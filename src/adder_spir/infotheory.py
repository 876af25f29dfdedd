"""Exact probability tables over finite tuples of discrete variables.

A distribution is stored as a code matrix (one int64 code per row and
variable) plus a weight vector, and a decoder per variable that turns a
code back into its value.  Rows are distinct.  Probabilities are floats by
default, with an exact-rational mode (integer numerators over one common
denominator, read back as ``fractions.Fraction``) for cross-checks on tiny
instances.  Marginals, entropies and mutual informations group rows by
factorized code ids with ``np.unique`` and ``np.bincount``.  All
information quantities are in bits; final summations go through
``math.fsum`` so that 1e-10 tolerances are meaningful.

Also houses the one-time-pad lemma checker: an exhaustive catalog of small
dependent/independent variable constructions verifying that XOR with a
fresh uniform pad adds no information.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .model import ConfigurationError

__all__ = ["JointDistribution", "OtpLemmaReport", "otp_lemma_check", "MAX_PAD_WIDTH"]

_SUM_TOL = 1e-12
# Widest pad the one-time-pad lemma catalog enumerates.
MAX_PAD_WIDTH = 3
# Exact numerators stay in int64 while every partial sum is below this.
_INT64_SAFE = 2**62

Decoder = Callable[[int], Hashable]


class _DecodedTable(Mapping):
    """Read-only view of a distribution as {value tuple: probability}.

    Keys are decoded on first access; ``len`` is the row count and needs
    no decoding.
    """

    def __init__(self, dist: "JointDistribution"):
        self._dist = dist

    @cached_property
    def _items(self) -> dict[tuple, float | Fraction]:
        d = self._dist
        columns = [d._decoded_column(j) for j in range(len(d.names))]
        return dict(zip(zip(*columns), d._probabilities()))

    def __getitem__(self, key: tuple) -> float | Fraction:
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._dist)


class JointDistribution:
    """Exact joint distribution over named finite-alphabet variables."""

    def __init__(self, names: Sequence[str], table: Mapping[tuple, float | Fraction]):
        """Build from a {value tuple: probability} mapping."""
        keys = list(table)
        probs = list(table.values())
        codes = np.zeros((len(keys), len(names)), dtype=np.int64)
        decoders: list[Decoder] = []
        for j in range(len(names)):
            ids: dict = {}
            codes[:, j] = [ids.setdefault(key[j], len(ids)) for key in keys]
            decoders.append(list(ids).__getitem__)
        den = None
        weights = np.array(probs, dtype=np.float64)
        if any(isinstance(p, Fraction) for p in probs):
            fracs = [Fraction(p) for p in probs]
            den = math.lcm(*(f.denominator for f in fracs))
            numerators = [f.numerator * (den // f.denominator) for f in fracs]
            weights = np.array(numerators, dtype=np.int64 if den < _INT64_SAFE else object)
        self._setup(names, codes, weights, decoders, den)
        self._check_normalized()

    @classmethod
    def from_codes(
        cls,
        names: Sequence[str],
        codes: np.ndarray,
        weights: np.ndarray,
        decoders: Sequence[Decoder],
        *,
        denominator: int | None = None,
    ) -> "JointDistribution":
        """Build from a code matrix, merging rows with equal codes.

        ``weights`` are float probabilities, or integer numerators over
        ``denominator`` in exact mode.  Each decoder maps its column's
        codes one-to-one onto values.
        """
        dist = cls._new(names, codes, weights, decoders, denominator)
        ids, first = dist._group(range(len(dist.names)))
        if len(first) < len(dist):
            dist = cls._new(names, codes[first], dist._group_sum(ids, len(first)), decoders, denominator)
        dist._check_normalized()
        return dist

    @classmethod
    def _new(cls, names, codes, weights, decoders, denominator) -> "JointDistribution":
        dist = cls.__new__(cls)
        dist._setup(names, codes, weights, decoders, denominator)
        return dist

    def _setup(self, names, codes, weights, decoders, denominator) -> None:
        self.names = tuple(names)
        self._codes = codes
        self._weights = weights
        self._decoders = tuple(decoders)
        self._den = denominator
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def _check_normalized(self) -> None:
        total = self.total_mass()
        if abs(float(total) - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {float(total)}, not 1")

    @cached_property
    def table(self) -> Mapping[tuple, float | Fraction]:
        return _DecodedTable(self)

    @property
    def _exact(self) -> bool:
        return self._den is not None

    def total_mass(self) -> float | Fraction:
        if self._exact:
            return Fraction(int(self._weights.sum()), self._den)
        return math.fsum(self._weights.tolist())

    def _indices(self, names: Iterable[str]) -> list[int]:
        pos = {name: i for i, name in enumerate(self.names)}
        missing = [n for n in names if n not in pos]
        if missing:
            raise KeyError(f"unknown variables {missing}; have {list(self.names)}")
        return [pos[n] for n in names]

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(distinct codes, dense id of each row) of column ``j``."""
        if j not in self._columns:
            self._columns[j] = np.unique(self._codes[:, j], return_inverse=True)
        return self._columns[j]

    def _decoded_column(self, j: int) -> list:
        uniq, inverse = self._column(j)
        values = [self._decoders[j](c) for c in uniq.tolist()]
        return [values[i] for i in inverse.tolist()]

    def _group(self, idx: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
        """Dense group id per row of its value tuple in columns ``idx``, and
        one row index per group."""
        ids = np.zeros(len(self), dtype=np.int64)
        count = 1
        for j in idx:
            uniq, inverse = self._column(j)
            if count * len(uniq) >= _INT64_SAFE:
                kept, ids = np.unique(ids, return_inverse=True)
                count = len(kept)
            ids = ids * len(uniq) + inverse
            count *= len(uniq)
        _keys, first, ids = np.unique(ids, return_index=True, return_inverse=True)
        return ids, first

    def _group_sum(self, ids: np.ndarray, count: int) -> np.ndarray:
        """Weights summed per group id: floats, or exact numerators."""
        if not self._exact:
            return np.bincount(ids, weights=self._weights, minlength=count)
        out = np.zeros(count, dtype=self._weights.dtype)
        np.add.at(out, ids, self._weights)
        return out

    def _as_float(self, weights: np.ndarray) -> np.ndarray:
        if not self._exact:
            return weights
        if self._den < 2**53 and weights.dtype != object:
            return weights / self._den
        return np.array([int(w) / self._den for w in weights], dtype=np.float64)

    def _probabilities(self) -> list[float | Fraction]:
        if self._exact:
            return [Fraction(int(w), self._den) for w in self._weights]
        return self._weights.tolist()

    def _grouped_probabilities(self, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        ids, first = self._group(idx)
        return ids, self._as_float(self._group_sum(ids, len(first)))

    def _rows_where(self, name: str, value: Hashable) -> np.ndarray:
        (j,) = self._indices([name])
        uniq, inverse = self._column(j)
        hit = np.array([self._decoders[j](c) == value for c in uniq.tolist()], dtype=bool)
        return hit[inverse]

    def probability(self, name: str, value: Hashable) -> float | Fraction:
        """P(name = value), summed exactly over the matching rows."""
        w = self._weights[self._rows_where(name, value)]
        if self._exact:
            return Fraction(int(w.sum()), self._den)
        return math.fsum(w.tolist())

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        idx = self._indices(names)
        ids, first = self._group(idx)
        return self._new(
            names,
            self._codes[np.ix_(first, idx)],
            self._group_sum(ids, len(first)),
            [self._decoders[j] for j in idx],
            self._den,
        )

    def condition(self, name: str, value: Hashable) -> "JointDistribution":
        """Distribution conditioned on one variable taking one value."""
        kept = self._rows_where(name, value)
        weights = self._weights[kept]
        mass = int(weights.sum()) if self._exact else math.fsum(weights.tolist())
        if mass <= 0:
            raise ValueError(f"conditioning event {name}={value!r} has zero probability")
        if self._exact:
            # Numerators over the event's own mass: p / P(event) exactly.
            return self._new(self.names, self._codes[kept], weights, self._decoders, mass)
        return self._new(self.names, self._codes[kept], weights / mass, self._decoders, None)

    def entropy(self, names: Sequence[str]) -> float:
        _ids, p = self._grouped_probabilities(self._indices(names))
        p = p[p > 0]
        return -math.fsum((p * np.log2(p)).tolist())

    def mutual_information(self, group_a: Sequence[str], group_b: Sequence[str]) -> float:
        """I(A; B) in bits, computed exactly over the table."""
        if set(group_a) & set(group_b):
            raise ValueError("variable groups must be disjoint")
        ida, pa = self._grouped_probabilities(self._indices(group_a))
        idb, pb = self._grouped_probabilities(self._indices(group_b))
        pairs, joint = np.unique(ida * len(pb) + idb, return_inverse=True)
        pab = self._as_float(self._group_sum(joint, len(pairs)))
        live = pab > 0
        pab, pairs = pab[live], pairs[live]
        terms = pab * np.log2(pab / (pa[pairs // len(pb)] * pb[pairs % len(pb)]))
        return math.fsum(terms.tolist())

    def conditional_mutual_information(
        self, group_a: Sequence[str], group_b: Sequence[str], group_c: Sequence[str]
    ) -> float:
        """I(A; B | C) via the chain rule I(A; BC) - I(A; C)."""
        return self.mutual_information(group_a, list(group_b) + list(group_c)) - self.mutual_information(group_a, group_c)

    def to_float(self) -> "JointDistribution":
        out = self._new(self.names, self._codes, self._as_float(self._weights), self._decoders, None)
        out._columns = self._columns
        return out

    def __len__(self) -> int:
        return len(self._codes)


# ---------------------------------------------------------------------------
# One-time-pad lemma checking


@dataclass(frozen=True)
class OtpLemmaReport:
    pad_width: int
    entries: int
    max_masking_slack: float
    max_hiding_slack: float

    def passed(self, tol: float = 1e-12) -> bool:
        return self.max_masking_slack <= tol and self.max_hiding_slack <= tol

    def to_record(self) -> dict:
        return {
            "record": "otp-lemma-report",
            "pad_width": self.pad_width,
            "entries": self.entries,
            "max_masking_slack": self.max_masking_slack,
            "max_hiding_slack": self.max_hiding_slack,
        }


def _mi_pairs(atoms: list[tuple]) -> float:
    """I(A; B) from equally weighted (a, b) atoms."""
    w = 1.0 / len(atoms)
    joint: dict[tuple, float] = {}
    pa: dict = {}
    pb: dict = {}
    for a, b in atoms:
        joint[(a, b)] = joint.get((a, b), 0.0) + w
        pa[a] = pa.get(a, 0.0) + w
        pb[b] = pb.get(b, 0.0) + w
    return math.fsum(
        p * math.log2(p / (pa[a] * pb[b])) for (a, b), p in joint.items()
    )


def otp_lemma_check(pad_width: int = 1) -> OtpLemmaReport:
    """Exhaustively verify that a fresh uniform XOR pad adds no information.

    Catalog: a uniform 2-bit seed R, with A and B ranging over all binary
    functions of R and C over all ``pad_width``-bit functions of R; D is a
    fresh uniform pad of the same width.  Checks, by exact computation:

    * masking:  I(A; B, C xor D) equals I(A; B), and
    * hiding:   I(A, C xor D; C) equals 0 whenever I(A; C) = 0.
    """
    if not 1 <= pad_width <= MAX_PAD_WIDTH:
        raise ConfigurationError(f"pad_width must be in [1, {MAX_PAD_WIDTH}]")
    seeds = range(4)
    bin_funcs = list(itertools.product((0, 1), repeat=4))
    pad_vals = range(2**pad_width)
    pad_funcs = list(itertools.product(pad_vals, repeat=4))

    entries = 0
    max_masking = 0.0
    max_hiding = 0.0
    for f in bin_funcs:
        for h in pad_funcs:
            i_ac = _mi_pairs([(f[r], h[r]) for r in seeds])
            independent_ac = abs(i_ac) <= 1e-12
            if independent_ac:
                slack = abs(
                    _mi_pairs([((f[r], h[r] ^ d), h[r]) for r in seeds for d in pad_vals])
                )
                max_hiding = max(max_hiding, slack)
            for g in bin_funcs:
                entries += 1
                i_ab = _mi_pairs([(f[r], g[r]) for r in seeds])
                i_a_bcd = _mi_pairs(
                    [(f[r], (g[r], h[r] ^ d)) for r in seeds for d in pad_vals]
                )
                max_masking = max(max_masking, abs(i_a_bcd - i_ab))
    return OtpLemmaReport(pad_width, entries, max_masking, max_hiding)
