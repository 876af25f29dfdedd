import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adder_spir.capacity import ARGMAX, F_MAX, achieved_rates, conditional_entropy_f, region_check
from brute_force import brute_conditional_entropy

_interior = st.floats(min_value=1e-3, max_value=1 - 1e-3)


@settings(max_examples=100, deadline=None)
@given(_interior, _interior)
def test_closed_form_matches_brute_oracle(p1, p2):
    assert abs(conditional_entropy_f(p1, p2) - brute_conditional_entropy(p1, p2)) < 1e-12


def test_f_known_values():
    assert math.isclose(conditional_entropy_f(0.5, 0.5), 0.5, abs_tol=1e-15)
    assert conditional_entropy_f(0.0, 0.0) == 0.0
    assert conditional_entropy_f(1.0, 1.0) == 0.0
    assert conditional_entropy_f(0.0, 1.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(_interior, _interior)
def test_f_symmetric(p1, p2):
    assert math.isclose(
        conditional_entropy_f(p1, p2), conditional_entropy_f(p2, p1), abs_tol=1e-14
    )


def test_f_vectorized():
    grid = np.linspace(0.1, 0.9, 5)
    vals = conditional_entropy_f(grid[:, None], grid[None, :])
    assert vals.shape == (5, 5)
    assert math.isclose(float(vals[2, 2]), 0.5, abs_tol=1e-12)


_unit = st.floats(min_value=0.0, max_value=1.0)
# The proof's inequalities hold exactly; the float evaluations may overshoot
# by a few ulps where they meet (f = 1/2 at the centre, p1 + p2 = 1 for AM-GM).
_ROUNDING = 1e-15


def _binary_entropy(q: float) -> float:
    return -math.fsum(x * math.log2(x) for x in (q, 1.0 - q) if x > 0)


def _split(p1: float, p2: float) -> tuple[float, float, float]:
    a = p1 * (1.0 - p2)
    b = (1.0 - p1) * p2
    return a, b, a + b


@settings(max_examples=300, deadline=None)
@given(_unit, _unit)
@example(0.0, 0.0)
@example(0.0, 1.0)
@example(1.0, 1.0)
@example(0.5, 0.5)
def test_f_is_at_most_min_w_and_one_minus_w(p1, p2):
    _a, _b, w = _split(p1, p2)
    assert conditional_entropy_f(p1, p2) <= min(w, 1.0 - w) + _ROUNDING


@settings(max_examples=300, deadline=None)
@given(_unit)
@example(0.0)
@example(0.5)
@example(1.0)
def test_binary_entropy_is_at_most_twice_root_q_one_minus_q(q):
    assert _binary_entropy(q) <= 2.0 * math.sqrt(q * (1.0 - q)) + _ROUNDING


@settings(max_examples=300, deadline=None)
@given(_unit, _unit)
@example(0.0, 1.0)
@example(0.25, 0.75)
@example(0.5, 0.5)
def test_twice_root_ab_is_at_most_one_minus_w(p1, p2):
    a, b, _w = _split(p1, p2)
    assert 2.0 * math.sqrt(a * b) <= p1 * p2 + (1.0 - p1) * (1.0 - p2) + _ROUNDING


def test_f_is_exactly_the_cap_at_the_argmax():
    assert ARGMAX == (0.5, 0.5)
    assert conditional_entropy_f(*ARGMAX) == F_MAX == 0.5


def test_achieved_rates_bookkeeping():
    report = achieved_rates(8, 4, 16, 2, weight1=2, weight2=3, public_bits=(32, 16))
    assert report.rate1 == 8 / 32
    assert report.rate2 == 4 / 32
    assert report.weighted_sum == 2 * report.rate1 + 3 * report.rate2
    assert report.download_per_recovered_bit((8, 4)) == (4.0, 4.0)


def test_region_check():
    assert region_check(0.25, 0.25, 2, 2)
    assert region_check(0.5, 0.0, 2, 2)
    assert not region_check(0.3, 0.25, 2, 2)
    assert region_check(0.25, 0.0, 3, 4)
    assert not region_check(0.25, 0.1, 3, 4)
