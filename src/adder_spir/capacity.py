"""Input-pair entropy analysis for the adder channel and rate accounting.

The quantity of interest is the residual joint input entropy given the
channel sum, ``f(p1, p2) = H(X1 X2 | Y)`` for independent Bernoulli inputs.
Its maximum over input biases caps the sum of weighted retrieval rates; the
maximizer is the uniform pair and the maximum is exactly one half.  A
closed form, a brute-force four-atom oracle, a grid-plus-golden-section
maximizer, and a sampled monotonicity check of the diagonal slice (a grid
check, not a proof; its record keeps the name ``MonotoneCertificate``) live
here, together with the per-transcript rate bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "conditional_entropy_f",
    "f_gradient",
    "brute_conditional_entropy",
    "maximize_f",
    "diagonal_slice",
    "slope_gate",
    "verify_g_monotone",
    "MonotoneCertificate",
    "RateReport",
    "achieved_rates",
    "region_check",
]

_REGION_TOL = 1e-12


def _plogp(p: np.ndarray | float) -> np.ndarray | float:
    """p * log2(p) with the 0 log 0 = 0 convention, elementwise."""
    arr = np.asarray(p, dtype=float)
    out = np.zeros_like(arr)
    mask = arr > 0
    out[mask] = arr[mask] * np.log2(arr[mask])
    return out if out.ndim else float(out)


def conditional_entropy_f(p1: np.ndarray | float, p2: np.ndarray | float) -> np.ndarray | float:
    """Residual input entropy given the sum, for Bernoulli(p1) x Bernoulli(p2).

    Only the ambiguous sum value contributes: with w = P[sum = 1] the value
    is w times the binary entropy of the split between the two input pairs
    that produce it.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    a = p1 * (1.0 - p2)
    b = (1.0 - p1) * p2
    w = a + b
    out = _plogp(w) - _plogp(a) - _plogp(b)
    return out if np.ndim(out) else float(out)


def f_gradient(p1: np.ndarray | float, p2: np.ndarray | float) -> tuple:
    """Closed-form partial derivatives of the residual-entropy surface.

    With a = p1 (1 - p2), b = (1 - p1) p2 and w = a + b:
    df/dp1 = (1 - p2 - p2) log2 w - (1 - p2) log2 a + p2 log2 b, and
    symmetrically for p2.  Only valid on the open square where a, b > 0.
    """
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    a = p1 * (1.0 - p2)
    b = (1.0 - p1) * p2
    w = a + b
    d1 = (1.0 - 2.0 * p2) * np.log2(w) - (1.0 - p2) * np.log2(a) + p2 * np.log2(b)
    d2 = (1.0 - 2.0 * p1) * np.log2(w) - (1.0 - p1) * np.log2(b) + p1 * np.log2(a)
    if np.ndim(d1):
        return d1, d2
    return float(d1), float(d2)


def brute_conditional_entropy(p1: float, p2: float) -> float:
    """Same quantity from the explicit four-atom joint: H(X1 X2) - H(Y)."""
    atoms = {
        (0, 0): (1 - p1) * (1 - p2),
        (0, 1): (1 - p1) * p2,
        (1, 0): p1 * (1 - p2),
        (1, 1): p1 * p2,
    }
    h_inputs = -math.fsum(p * math.log2(p) for p in atoms.values() if p > 0)
    py: dict[int, float] = {}
    for (x1, x2), p in atoms.items():
        py[x1 + x2] = py.get(x1 + x2, 0.0) + p
    h_sum = -math.fsum(p * math.log2(p) for p in py.values() if p > 0)
    return h_inputs - h_sum


def diagonal_slice(p: np.ndarray | float) -> np.ndarray | float:
    """The slice g(p) = f(p, 1 - p) along the complementary-bias diagonal.

    Any maximizer of f lies on this diagonal, so the two-dimensional search
    reduces to one dimension.
    """
    return conditional_entropy_f(p, 1.0 - np.asarray(p, dtype=float))


def slope_gate(u: np.ndarray | float) -> np.ndarray | float:
    """Sign gate for the diagonal slope: g'(p) = 2 p * gate((1 - p) / p).

    gate(u) = 2 u log2 u - (u - 1) log2(1 + u^2); nonnegative for u >= 1,
    which makes g non-decreasing on (0, 1/2].
    """
    u = np.asarray(u, dtype=float)
    out = 2.0 * u * np.log2(u) - (u - 1.0) * np.log2(1.0 + u * u)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class MonotoneCertificate:
    """Numerical evidence that the diagonal slice increases up to 1/2."""

    samples: int
    min_forward_difference: float
    gate_at_one: float
    gate_slope_at_one: float
    expected_gate_slope: float
    min_gate: float
    max_gate_curvature: float

    def passed(self) -> bool:
        return (
            self.min_forward_difference >= 0.0
            and abs(self.gate_at_one) <= 1e-12
            and abs(self.gate_slope_at_one - self.expected_gate_slope) <= 1e-6
            and self.min_gate >= -1e-12
            and self.max_gate_curvature <= 1e-6
        )


def verify_g_monotone(samples: int = 10_000) -> MonotoneCertificate:
    """Sampled check of the diagonal slice's monotonicity on (0, 1/2].

    Checks the slice's forward differences on a ``samples``-point grid, plus
    the slope gate: zero at u = 1 with slope (2 - ln 2) / ln 2, nonnegative
    and concave on [1, 100], by finite differences on the same number of
    points.  It is numerical evidence, not a certificate.
    """
    grid = np.linspace(1e-9, 0.5, samples)
    diffs = np.diff(diagonal_slice(grid))
    u = np.linspace(1.0, 100.0, samples)
    gate = slope_gate(u)
    slope_at_one = (slope_gate(1.0 + 1e-5) - slope_gate(1.0)) / 1e-5
    # Curvature needs a coarser step: the second difference divides float
    # cancellation noise by h^2, which swamps the signal below h ~ 1e-4.
    h = 1e-3
    uu = np.linspace(1.0 + h, 100.0 - h, samples)
    curvature = (slope_gate(uu + h) - 2.0 * slope_gate(uu) + slope_gate(uu - h)) / h**2
    return MonotoneCertificate(
        samples=samples,
        min_forward_difference=float(diffs.min()),
        gate_at_one=float(slope_gate(1.0)),
        gate_slope_at_one=float(slope_at_one),
        expected_gate_slope=(2.0 - math.log(2.0)) / math.log(2.0),
        min_gate=float(gate.min()),
        max_gate_curvature=float(curvature.max()),
    )


def maximize_f(grid_step: float = 1e-3, tol: float = 1e-10) -> tuple[float, float, float]:
    """Maximize f over both biases; returns (p1*, p2*, max value).

    A coarse two-dimensional grid locates the basin; the stationarity
    structure (any maximizer has complementary biases) reduces refinement
    to a golden-section search on the diagonal slice.
    """
    axis = np.arange(grid_step, 1.0, grid_step)
    vals = conditional_entropy_f(axis[:, None], axis[None, :])
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    center = 0.5 * (axis[i] + (1.0 - axis[j]))

    lo = max(center - 2 * grid_step, 1e-9)
    hi = min(center + 2 * grid_step, 1.0 - 1e-9)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = diagonal_slice(c), diagonal_slice(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = diagonal_slice(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = diagonal_slice(d)
    p = 0.5 * (a + b)
    return float(p), float(1.0 - p), float(diagonal_slice(p))


@dataclass(frozen=True)
class RateReport:
    """Measured per-channel-use retrieval rates for one session."""

    rate1: float
    rate2: float
    weighted_sum: float
    channel_uses: int
    public_bits: tuple[int, int]

    def download_per_recovered_bit(self, recovered_bits: tuple[int, int]) -> tuple[float, float]:
        return (
            self.public_bits[0] / recovered_bits[0] if recovered_bits[0] else 0.0,
            self.public_bits[1] / recovered_bits[1] if recovered_bits[1] else 0.0,
        )


def achieved_rates(
    recovered_bits1: int,
    recovered_bits2: int,
    n: int,
    rounds: int,
    weight1: int = 1,
    weight2: int = 1,
    public_bits: tuple[int, int] = (0, 0),
) -> RateReport:
    """Per-channel-use rates of one session of ``rounds`` blocks of ``n`` uses."""
    uses = n * rounds
    r1 = recovered_bits1 / uses
    r2 = recovered_bits2 / uses
    return RateReport(
        rate1=r1,
        rate2=r2,
        weighted_sum=weight1 * r1 + weight2 * r2,
        channel_uses=uses,
        public_bits=public_bits,
    )


def region_check(rate1: float, rate2: float, L1: int, L2: int, tol: float = _REGION_TOL) -> bool:
    """True iff (L1 - 1) r1 + (L2 - 1) r2 <= 1/2 up to tolerance."""
    return (L1 - 1) * rate1 + (L2 - 1) * rate2 <= 0.5 + tol
