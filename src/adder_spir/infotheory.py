"""Exact probability tables over finite tuples of discrete variables.

A distribution is stored as a code matrix (one int64 code per row and
variable), one positive integer numerator per row over one common
denominator, and a decoder per variable that turns a code back into its
value.  Rows are distinct, and the numerators sum to the denominator
exactly.  Probabilities read back as ``fractions.Fraction``.  Marginals,
entropies and mutual informations group rows by factorized code ids,
renumbered densely in ascending order, and sum their numerators as
integers.  A mutual information is exactly 0.0 when the grouped integer
masses factor, decided by integer cross-multiplication; only a non-zero
value is computed in floats.  All information quantities are in bits.

Also houses the one-time-pad lemma checker: an exhaustive catalog of small
dependent/independent variable constructions verifying that XOR with a
fresh uniform pad adds no information.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
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
# Products of two masses stay in int64 while the denominator is below this.
_PRODUCT_SAFE = 2**31
_DENSE_RANGE = 4  # group ids are renumbered by a table of their range up to this many per row

Decoder = Callable[[int], Hashable]


def _numerators(values, denominator: int) -> np.ndarray:
    """Integer numerators over ``denominator``: int64 when every partial sum fits."""
    return np.array(values, dtype=np.int64 if denominator < _INT64_SAFE else object)


class _DecodedTable(Mapping):
    """Read-only view of a distribution as {value tuple: probability}.

    Keys are decoded on first access; ``len`` is the row count and needs
    no decoding.
    """

    def __init__(self, dist: "JointDistribution"):
        self._dist = dist

    @cached_property
    def _items(self) -> dict[tuple, Fraction]:
        d = self._dist
        columns = [d._decoded_column(j) for j in range(len(d.names))]
        return dict(zip(zip(*columns), d._probabilities()))

    def __getitem__(self, key: tuple) -> Fraction:
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._dist)


class JointDistribution:
    """Exact joint distribution over named finite-alphabet variables."""

    def __init__(self, names: Sequence[str], table: Mapping[tuple, float | Fraction]):
        """Build from a {value tuple: probability} mapping.

        Float probabilities are read exactly (``Fraction(p)``).  They must
        sum to 1 within ``_SUM_TOL``; the table is then normalised by its
        exact total.  Zero-probability entries are dropped.
        """
        keys = [key for key, p in table.items() if p != 0]
        probs = [Fraction(table[key]) for key in keys]
        codes = np.zeros((len(keys), len(names)), dtype=np.int64)
        decoders: list[Decoder] = []
        for j in range(len(names)):
            ids: dict = {}
            codes[:, j] = [ids.setdefault(key[j], len(ids)) for key in keys]
            decoders.append(list(ids).__getitem__)
        den = math.lcm(*(f.denominator for f in probs))
        numerators = [f.numerator * (den // f.denominator) for f in probs]
        total = sum(numerators)
        if abs(total / den - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total / den}, not 1")
        self._setup(names, codes, _numerators(numerators, total), decoders, total)

    @classmethod
    def from_codes(
        cls,
        names: Sequence[str],
        codes: np.ndarray,
        weights: np.ndarray,
        decoders: Sequence[Decoder],
        *,
        denominator: int,
    ) -> "JointDistribution":
        """Build from a code matrix whose rows are distinct.

        ``weights`` are positive integer numerators over ``denominator`` and
        must sum to it.  Rows with equal codes are not merged.  Each decoder
        maps its column's codes one-to-one onto values.
        """
        dist = cls._new(names, codes, weights, decoders, denominator)
        if dist._total() != denominator:
            raise ValueError(f"numerators sum to {dist._total()}, not the denominator {denominator}")
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

    @cached_property
    def table(self) -> Mapping[tuple, Fraction]:
        return _DecodedTable(self)

    def _total(self, rows=slice(None)) -> int:
        return int(self._weights[rows].sum())

    def total_mass(self) -> Fraction:
        return Fraction(self._total(), self._den)

    def _indices(self, names: Iterable[str]) -> list[int]:
        pos = {name: i for i, name in enumerate(self.names)}
        missing = [n for n in names if n not in pos]
        if missing:
            raise KeyError(f"unknown variables {missing}; have {list(self.names)}")
        return [pos[n] for n in names]

    def _column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(distinct codes, dense id of each row) of column ``j``; an
        ascending column is read as runs, and a column of nonnegative codes
        below ``_DENSE_RANGE`` per row is renumbered by a table, both
        without a sort."""
        if j not in self._columns:
            column = self._codes[:, j]
            if column.size and not np.count_nonzero(column[1:] < column[:-1]):
                first = np.empty(column.size, dtype=bool)
                first[0] = True
                np.not_equal(column[1:], column[:-1], out=first[1:])
                ids = first.cumsum()
                ids -= 1
                self._columns[j] = column[first], ids
            elif column.size and column.min() >= 0:
                self._columns[j] = _renumber(column, int(column.max()) + 1)
            else:
                self._columns[j] = np.unique(column, return_inverse=True)
        return self._columns[j]

    def _decoded_column(self, j: int) -> list:
        uniq, inverse = self._column(j)
        values = [self._decoders[j](c) for c in uniq.tolist()]
        return [values[i] for i in inverse.tolist()]

    def _group(self, idx: Sequence[int]) -> tuple[np.ndarray, int]:
        """Dense group id per row of its value tuple in columns ``idx``
        (ascending), and the number of groups."""
        if len(idx) == 1:
            uniq, inverse = self._column(idx[0])
            return inverse, len(uniq)
        ids = np.zeros(len(self), dtype=np.int64)
        count = 1
        for j in idx:
            uniq, inverse = self._column(j)
            if count * len(uniq) >= _INT64_SAFE:
                kept, ids = _renumber(ids, count)
                count = len(kept)
            ids = ids * len(uniq) + inverse
            count *= len(uniq)
        keys, ids = _renumber(ids, count)
        return ids, len(keys)

    def _group_sum(self, ids: np.ndarray, count: int) -> np.ndarray:
        """Numerators summed per group id, exactly."""
        out = np.zeros(count, dtype=self._weights.dtype)
        np.add.at(out, ids, self._weights)
        return out

    def _probabilities(self) -> list[Fraction]:
        return [Fraction(w, self._den) for w in self._weights.tolist()]

    def _grouped_masses(self, idx: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        ids, count = self._group(idx)
        return ids, self._group_sum(ids, count)

    def _rows_where(self, name: str, value: Hashable) -> np.ndarray:
        (j,) = self._indices([name])
        uniq, inverse = self._column(j)
        hit = np.array([self._decoders[j](c) == value for c in uniq.tolist()], dtype=bool)
        return hit[inverse]

    def probability(self, name: str, value: Hashable) -> Fraction:
        """P(name = value), summed exactly over the matching rows."""
        return Fraction(self._total(self._rows_where(name, value)), self._den)

    def marginal(self, names: Sequence[str]) -> "JointDistribution":
        idx = self._indices(names)
        ids, count = self._group(idx)
        first = np.empty(count, dtype=np.int64)
        first[ids] = np.arange(len(ids))  # one row of each group
        return self._new(
            names,
            self._codes[np.ix_(first, idx)],
            self._group_sum(ids, count),
            [self._decoders[j] for j in idx],
            self._den,
        )

    def condition(self, name: str, value: Hashable) -> "JointDistribution":
        """Distribution conditioned on one variable taking one value."""
        kept = self._rows_where(name, value)
        mass = self._total(kept)
        if mass <= 0:
            raise ValueError(f"conditioning event {name}={value!r} has zero probability")
        # Numerators over the event's own mass: p / P(event) exactly.
        return self._new(self.names, self._codes[kept], self._weights[kept], self._decoders, mass)

    def entropy(self, names: Sequence[str]) -> float:
        _ids, c = self._grouped_masses(self._indices(names))
        p = np.asarray(c, dtype=np.float64) / self._den
        return -math.fsum((p * np.log2(p)).tolist())

    def mutual_information(self, group_a: Sequence[str], group_b: Sequence[str]) -> float:
        """I(A; B) in bits, computed exactly over the table.

        When A and B together name every variable, each row is its own
        (a, b) pair, since rows are distinct, and its numerator is that
        pair's mass."""
        if set(group_a) & set(group_b):
            raise ValueError("variable groups must be disjoint")
        ida, ca = self._grouped_masses(self._indices(group_a))
        idb, cb = self._grouped_masses(self._indices(group_b))
        cells = len(ca) * len(cb)
        if set(group_a) | set(group_b) == set(self.names):
            return _mutual_information(self._weights, ca[ida], cb[idb], self._den, cells)
        pairs, joint = _renumber(ida * len(cb) + idb, cells)
        cab = self._group_sum(joint, len(pairs))
        return _mutual_information(cab, ca[pairs // len(cb)], cb[pairs % len(cb)], self._den, cells)

    def conditional_mutual_information(
        self, group_a: Sequence[str], group_b: Sequence[str], group_c: Sequence[str]
    ) -> float:
        """I(A; B | C) via the chain rule I(A; BC) - I(A; C)."""
        return self.mutual_information(group_a, list(group_b) + list(group_c)) - self.mutual_information(group_a, group_c)

    def to_float(self) -> "JointDistribution":
        """This distribution: there is no separate float representation."""
        return self

    def __len__(self) -> int:
        return len(self._codes)


def _renumber(ids: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(ids, return_inverse=True)`` for ids in [0, count), by a table
    of that range unless it spans more than ``_DENSE_RANGE`` ids per row."""
    if count > _DENSE_RANGE * len(ids):
        return np.unique(ids, return_inverse=True)
    present = np.zeros(count, dtype=bool)
    present[ids] = True
    return np.flatnonzero(present), (np.cumsum(present) - 1)[ids]


def _mutual_information(cab: np.ndarray, ca: np.ndarray, cb: np.ndarray, den: int, cells: int) -> float:
    """I(A; B) in bits from integer masses over ``den``.

    ``cab`` holds the mass of each (a, b) pair that occurs, ``ca`` and
    ``cb`` the masses of its a and its b, and ``cells`` is the number of
    values of A times that of B.  The value is exactly 0.0 iff every (a, b)
    pair occurs and c_ab D == c_a c_b for each, compared as integers;
    otherwise it is fsum(c_ab log2(c_ab D / (c_a c_b))) / D, and never below
    Pinsker's bound ||P_AB - P_A P_B||_1^2 / (2 ln 2), whose L1 distance is
    exact: a dependence too small for the rounded log ratios stays positive.
    """
    if den >= _PRODUCT_SAFE:
        cab, ca, cb = (x.astype(object) for x in (cab, ca, cb))
    joint, product = cab * den, ca * cb
    excess = joint - product
    if len(cab) == cells and not np.count_nonzero(excess):
        return 0.0
    # log2(1 + excess / product); near 1, log1p of the exact excess keeps its digits.
    rel = np.asarray(excess / product, dtype=np.float64)
    log_ratio = np.where(abs(rel) < 0.5, np.log1p(rel) / math.log(2), np.log2(1 + rel))
    value = math.fsum((cab * log_ratio).tolist()) / den
    # The pairs that do not occur carry the product mass D^2 - sum(c_a c_b).
    distance = int(abs(excess).sum()) + den * den - int(product.sum())
    return max(value, (distance / (den * den)) ** 2 / (2 * math.log(2)))


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


def _mi_pairs(atoms: list[tuple], memo: dict) -> float:
    """I(A; B) from equally weighted (a, b) atoms, counted as integers.

    The value depends only on the multiset of (c_ab, c_a, c_b), so ``memo``
    keeps one value per multiset.
    """
    joint = Counter(atoms)
    ca = Counter(a for a, _b in atoms)
    cb = Counter(b for _a, b in atoms)
    key = tuple(sorted((c, ca[a], cb[b]) for (a, b), c in joint.items())), len(atoms), len(ca) * len(cb)
    if key not in memo:
        masses, den, cells = key
        memo[key] = _mutual_information(*np.array(masses).T, den, cells)
    return memo[key]


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
    memo: dict = {}
    max_masking = 0.0
    max_hiding = 0.0
    for f in bin_funcs:
        # I(A; B) does not depend on the pad function h.
        i_abs = [_mi_pairs([(f[r], g[r]) for r in seeds], memo) for g in bin_funcs]
        for h in pad_funcs:
            i_ac = _mi_pairs([(f[r], h[r]) for r in seeds], memo)
            if i_ac == 0.0:
                slack = abs(
                    _mi_pairs([((f[r], h[r] ^ d), h[r]) for r in seeds for d in pad_vals], memo)
                )
                max_hiding = max(max_hiding, slack)
            for g, i_ab in zip(bin_funcs, i_abs):
                entries += 1
                i_a_bcd = _mi_pairs([(f[r], (g[r], h[r] ^ d)) for r in seeds for d in pad_vals], memo)
                max_masking = max(max_masking, abs(i_a_bcd - i_ab))
    return OtpLemmaReport(pad_width, entries, max_masking, max_hiding)
