"""The audit's leakage from a sorted tally against two references.

``oracle._leakage`` reads I(view; secret) off a tally's distinct keys in
ascending order (each key its view above its secret) and their integer
masses.  It must give what a :class:`JointDistribution` built from a dict
of ``Fraction`` probabilities gives, and what a plain Python sum over the
cells gives: exact zeros exactly, other values within 1e-12 bits.
"""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adder_spir import oracle
from adder_spir.infotheory import JointDistribution, _numerators

_TOL = 1e-12


def _reference(cells: dict, den: int) -> tuple[bool, float, float]:
    """Whether I(V; S) is exactly zero, its value in floats, and Pinsker's
    lower bound on it, straight from the integer masses of ``cells``."""
    ca, cb = Counter(), Counter()
    for (v, s), w in cells.items():
        ca[v] += w
        cb[s] += w
    zero = len(cells) == len(ca) * len(cb) and all(w * den == ca[v] * cb[s] for (v, s), w in cells.items())
    value = math.fsum(w / den * math.log2(Fraction(w * den, ca[v] * cb[s])) for (v, s), w in cells.items())
    distance = sum(abs(Fraction(cells.get((v, s), 0), den) - Fraction(ca[v] * cb[s], den * den)) for v in ca for s in cb)
    return zero, value, float(distance) ** 2 / (2 * math.log(2))


def _check(cells: dict, den: int, secret_bits: int) -> float:
    """The audit's leakage of ``cells`` ({(view, secret): mass} over
    ``den``), checked against both references."""
    keys = sorted(v << secret_bits | s for v, s in cells)
    masses = [cells[k >> secret_bits, k & ((1 << secret_bits) - 1)] for k in keys]
    got = oracle._leakage(np.array(keys, dtype=np.int64), _numerators(masses, den), secret_bits, den)
    table = JointDistribution(("view", "secret"), {cell: Fraction(w, den) for cell, w in cells.items()})
    expected = table.mutual_information(("view",), ("secret",))
    zero, value, pinsker = _reference(cells, den)
    if zero:
        assert got == expected == 0.0
    else:
        assert got > 0.0 and expected > 0.0
        assert abs(got - expected) <= _TOL and abs(got - value) <= _TOL
        assert got >= pinsker * (1 - 1e-9)
    return got


@st.composite
def tables(draw):
    """(cells, denominator, secret bits) of a small random tally: a product
    table (exactly independent), a product table with one unit of mass
    moved (a dependence below float resolution), or arbitrary masses,
    optionally scaled past 2^31 or 2^62, and optionally conditioned on a
    subset of the cells of a larger table."""
    secret_bits = draw(st.integers(0, 4))
    secrets = draw(st.lists(st.integers(0, 2**secret_bits - 1), min_size=1, max_size=5, unique=True))
    views = draw(st.lists(st.integers(0, 2**12), min_size=1, max_size=6, unique=True))
    kind = draw(st.sampled_from(["product", "nudged", "arbitrary"]))
    scale = draw(st.sampled_from([1, 2**31, 2**62]))
    if kind == "arbitrary":
        present = draw(st.lists(st.sampled_from([(v, s) for v in views for s in secrets]), min_size=1, unique=True))
        cells = {cell: draw(st.integers(1, 1000)) * scale for cell in present}
    else:
        wa = [draw(st.integers(1, 50)) * scale for _ in views]
        wb = [draw(st.integers(2, 50)) for _ in secrets]
        cells = {(v, s): a * b for v, a in zip(views, wa) for s, b in zip(secrets, wb)}
        if kind == "nudged" and len(cells) > 1:
            first, second = sorted(cells)[:2]
            cells[first] -= 1
            cells[second] += 1
    den = sum(cells.values())
    if draw(st.booleans()):
        # Conditioning: the masses keep their numerators over the full
        # table's denominator, and the event's mass becomes the denominator.
        kept = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, unique=True))
        cells = {cell: cells[cell] for cell in kept}
        den = sum(cells.values())
    return cells, den, secret_bits


@settings(max_examples=300, deadline=None)
@given(tables())
def test_leakage_from_sorted_tally_matches_references(table):
    _check(*table)


@pytest.mark.parametrize("scale", [1, 2**31, 2**62], ids=["int64", "object-products", "object-numerators"])
def test_exactly_independent_tally_is_exactly_zero(scale):
    cells = {(v, s): (v + 1) * (s + 2) * scale for v in (3, 9, 40) for s in (0, 1, 2)}
    assert _check(cells, sum(cells.values()), 2) == 0.0


@pytest.mark.parametrize("scale", [2**40, 2**62])
def test_dependence_below_float_resolution_stays_positive(scale):
    # One unit of mass moved in a table of 4 scale units: every log ratio
    # is within about 1 / scale of zero, and Pinsker's bound keeps the
    # value positive.
    cells = {(v, s): scale for v in (0, 1) for s in (0, 1)}
    cells[0, 0] += 1
    cells[0, 1] -= 1
    den = sum(cells.values())
    got = _check(cells, den, 1)
    assert 0.0 < got < 1e-20


def test_conditioned_denominator():
    # Over the full table the cells outside the event carry mass; over the
    # event's own mass the kept cells factor exactly.
    full = {(v, s): 4 for v in range(3) for s in range(2)}
    full[5, 0] = 7  # an aborted view, dropped by conditioning
    kept = {cell: w for cell, w in full.items() if cell[0] != 5}
    assert _check(kept, sum(kept.values()), 1) == 0.0
    assert _check(full, sum(full.values()), 1) > 0.0
