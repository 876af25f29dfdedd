"""Input-pair entropy analysis for the adder channel and rate accounting.

The quantity of interest is the residual joint input entropy given the
channel sum, ``f(p1, p2) = H(X1 X2 | Y)`` for independent Bernoulli inputs.
Its maximum over input biases caps the sum of weighted retrieval rates.

Lemma: f <= 1/2 on [0, 1]^2, with equality only at p1 = p2 = 1/2.

Proof.  Let a = p1 (1 - p2), b = (1 - p1) p2 and w = a + b = P[Y = 1];
only Y = 1 leaves the inputs ambiguous, so f = w h(a / w) (0 when w = 0),
with h the binary entropy.

1. f <= w, since h <= 1.
2. f <= 2 sqrt(a b).  Topsøe's bound h(q) <= (4 q (1 - q))^(1 / ln 4)
   (F. Topsøe, "Bounds for entropy and divergence for distributions over a
   two-element set", J. Inequalities in Pure and Applied Mathematics 2(2),
   2001), with 0 <= 4 q (1 - q) <= 1 and 1 / ln 4 > 1/2, gives
   h(q) <= 2 sqrt(q (1 - q)); at q = a / w, w h(q) <= 2 sqrt(a b).
3. a b = [p1 p2] [(1 - p1)(1 - p2)], so by AM-GM
   2 sqrt(a b) <= p1 p2 + (1 - p1)(1 - p2) = 1 - w.
4. So f <= min(w, 1 - w) <= 1/2.  Equality needs w = 1/2 and equality in
   AM-GM, p1 p2 = (1 - p1)(1 - p2), that is p2 = 1 - p1; then
   w = p1^2 + (1 - p1)^2 = 1/2 forces p1 = 1/2.  And f(1/2, 1/2) =
   (1/2) h(1/2) = 1/2.

The same cap bounds the weighted retrieval rates,
(L1 - 1) r1 + (L2 - 1) r2 <= 1/2, which ``region_check`` tests per session.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "F_MAX",
    "ARGMAX",
    "conditional_entropy_f",
    "RateReport",
    "achieved_rates",
    "region_check",
]

# The lemma above: the maximum of f and the one point that attains it.
F_MAX = 0.5
ARGMAX = (0.5, 0.5)

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
    return (L1 - 1) * rate1 + (L2 - 1) * rate2 <= F_MAX + tol
