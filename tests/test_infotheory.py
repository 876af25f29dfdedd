import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir import infotheory
from adder_spir.infotheory import JointDistribution


def _fair_pair():
    # Two independent fair bits and their XOR.
    table = {}
    for a in (0, 1):
        for b in (0, 1):
            table[(a, b, a ^ b)] = 0.25
    return JointDistribution(("a", "b", "c"), table)


def test_total_mass_and_len():
    d = _fair_pair()
    assert abs(d.total_mass() - 1.0) < 1e-15
    assert len(d) == 4


def test_normalization_check():
    with pytest.raises(ValueError):
        JointDistribution(("a",), {(0,): 0.6})


def test_marginal():
    d = _fair_pair()
    m = d.marginal(("a",))
    assert m.table == {(0,): 0.5, (1,): 0.5}


def test_condition():
    d = _fair_pair()
    c = d.condition("a", 1)
    assert math.isclose(c.total_mass(), 1.0)
    assert all(k[0] == 1 for k in c.table)
    with pytest.raises(ValueError):
        d.condition("a", 7)


def test_entropy():
    d = _fair_pair()
    assert math.isclose(d.entropy(("a",)), 1.0)
    assert math.isclose(d.entropy(("a", "b")), 2.0)
    assert math.isclose(d.entropy(("a", "b", "c")), 2.0)


def test_mutual_information_independent_and_determined():
    d = _fair_pair()
    assert abs(d.mutual_information(("a",), ("b",))) < 1e-15
    assert abs(d.mutual_information(("a",), ("c",))) < 1e-15
    # c is a function of (a, b), so I(ab; c) = H(c) = 1.
    assert math.isclose(d.mutual_information(("a", "b"), ("c",)), 1.0)


def test_mutual_information_rejects_overlap():
    d = _fair_pair()
    with pytest.raises(ValueError):
        d.mutual_information(("a", "b"), ("b",))


def test_unknown_variable():
    d = _fair_pair()
    with pytest.raises(KeyError):
        d.marginal(("z",))


def test_conditional_mutual_information_xor():
    d = _fair_pair()
    # Given b, c determines a.
    assert math.isclose(d.conditional_mutual_information(("a",), ("c",), ("b",)), 1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_chain_rule_consistency(seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(8))
    keys = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    d = JointDistribution(("a", "b", "c"), dict(zip(keys, probs.tolist())))
    lhs = d.mutual_information(("a",), ("b", "c"))
    rhs = d.mutual_information(("a",), ("c",)) + d.conditional_mutual_information(
        ("a",), ("b",), ("c",)
    )
    assert abs(lhs - rhs) < 1e-10


def test_fraction_mode():
    table = {(0, 0): Fraction(1, 4), (0, 1): Fraction(1, 4), (1, 0): Fraction(1, 2)}
    d = JointDistribution(("a", "b"), table)
    assert d.total_mass() == Fraction(1)
    c = d.condition("a", 0)
    assert c.table[(0, 0)] == Fraction(1, 2)
    # One representation: float tables read back as the same Fractions.
    assert d.to_float() is d
    f = JointDistribution(("a", "b"), {k: float(p) for k, p in table.items()})
    assert f.table == table
    assert all(isinstance(p, Fraction) for p in f.table.values())


def test_float_table_is_normalised_exactly():
    # 0.1 + 0.2 + 0.7 is not 1 in binary; the table is scaled by its exact total.
    d = JointDistribution(("a",), {(0,): 0.1, (1,): 0.2, (2,): 0.7})
    assert d.total_mass() == 1
    total = Fraction(0.1) + Fraction(0.2) + Fraction(0.7)
    assert d.probability("a", 0) == Fraction(0.1) / total


def test_from_codes_checks_the_denominator():
    codes = np.array([[0, 1], [1, 0]])
    d = JointDistribution.from_codes(("a", "b"), codes, np.array([1, 3]), [bool, str], denominator=4)
    assert d.table == {(False, "1"): Fraction(1, 4), (True, "0"): Fraction(3, 4)}
    assert d.probability("a", True) == Fraction(3, 4)
    with pytest.raises(ValueError):
        JointDistribution.from_codes(("a", "b"), codes, np.array([1, 2]), [bool, str], denominator=4)


def test_zero_mutual_information_is_exact():
    # Independent masses that float sums would not cancel exactly.
    pa, pb = Fraction(1, 3), Fraction(1, 7)
    table = {(a, b): (pa if a else 1 - pa) * (pb if b else 1 - pb) for a in (0, 1) for b in (0, 1)}
    d = JointDistribution(("a", "b"), table)
    assert d.mutual_information(("a",), ("b",)) == 0.0
    # Dependence only in the last place of a large denominator is still seen.
    eps = Fraction(1, 3**45)
    skewed = dict(table)
    skewed[(0, 0)] += eps
    skewed[(0, 1)] -= eps
    assert JointDistribution(("a", "b"), skewed).mutual_information(("a",), ("b",)) > 0.0


def test_fraction_mode_beyond_int64():
    # A common denominator above 2**62 keeps exact Python-int numerators.
    p = Fraction(1, 3**45)
    d = JointDistribution(("a", "b"), {(0, 0): p, (0, 1): p, (1, 0): 1 - 2 * p})
    assert d.total_mass() == 1
    assert d.probability("a", 0) == 2 * p
    assert d.marginal(("a",)).table == {(0,): 2 * p, (1,): 1 - 2 * p}
    assert d.condition("a", 0).table == {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 2)}
    # P(b = 1) = p; each term is p_ab log2(p_ab / (p_a p_b)).
    q = float(p)
    log2_1mq = math.log1p(-q) / math.log(2)
    expected = q * (-1 - log2_1mq) + q * math.log2(1 / (2 * q)) - (1 - 2 * q) * log2_1mq
    assert math.isclose(d.mutual_information(("a",), ("b",)), expected, rel_tol=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(1, 60),
    spread=st.sampled_from([1, 2, infotheory._DENSE_RANGE, infotheory._DENSE_RANGE + 1, 50]),
    data=st.data(),
)
def test_renumber_matches_unique(rows, spread, data):
    # Both branches: a table of the id range up to _DENSE_RANGE ids per row,
    # np.unique beyond it.  Ids, their order and the summed masses agree.
    count = spread * rows
    ids = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=rows, max_size=rows)), dtype=np.int64)
    weights = np.array(data.draw(st.lists(st.integers(1, 2**40), min_size=rows, max_size=rows)), dtype=np.int64)
    keys, dense = infotheory._renumber(ids, count)
    ref_keys, ref_dense = np.unique(ids, return_inverse=True)
    assert keys.tolist() == ref_keys.tolist()
    assert dense.tolist() == ref_dense.tolist()
    masses, ref_masses = np.zeros(len(keys), dtype=np.int64), np.zeros(len(ref_keys), dtype=np.int64)
    np.add.at(masses, dense, weights)
    np.add.at(ref_masses, ref_dense, weights)
    assert masses.tolist() == ref_masses.tolist()


@settings(max_examples=60, deadline=None)
@given(
    columns=st.lists(st.integers(1, 9), min_size=3, max_size=3),
    rows=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8), st.integers(1, 50)),
                  min_size=1, max_size=40),
)
def test_grouping_by_table_matches_sorting(columns, rows):
    # Marginals and mutual informations come out identical, to the last
    # digit, whether every grouping renumbers by a table or sorts.
    distinct = {tuple(v % c for v, c in zip(r[:3], columns)): r[3] for r in rows}
    codes = np.array(list(distinct), dtype=np.int64)
    weights = np.array(list(distinct.values()), dtype=np.int64)
    d = JointDistribution.from_codes(("a", "b", "c"), codes, weights, [int] * 3, denominator=int(weights.sum()))

    def results():
        return (
            d.mutual_information(("a",), ("b", "c")),
            d.mutual_information(("a", "b"), ("c",)),
            d.entropy(("b", "c")),
            dict(d.marginal(("c", "a")).table),
        )

    by_table = results()
    with mock.patch.object(infotheory, "_DENSE_RANGE", -1):
        assert results() == by_table
