"""Two-file-per-server retrieval over the adder channel, end to end.

Session flow: both servers transmit uniform blocks over the adder channel;
the client checks that the decodable fraction of the output y is close
enough to one half, splits the positions of y into decodable and hidden
sets, carves shares of the requested lengths out of both (at most
floor(alpha M) and floor((1 - alpha) M) of M = min(|good|, |bad|), in exact
integers), and publishes one set pair per server chosen so that the set
covering the requested file is decodable.  Each server one-time-pads its
channel inputs over both published sets with its two files; the client
unmasks the requested file on the decodable side.

``execute_session`` is the deterministic core of one session (explicit
channel inputs).  Seeded runs reach it through ``multifile.run_multifile``,
whose one-round case is two files per server, and the leakage oracle
through ``multifile.execute_multifile``; ``run_session_adaptive`` sizes the
files to the realized block for rate sweeps.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from .bits import BitString, sample_uniform
from .channel import IndexSet, classify_indices, ternary_to_string, transmit
from .model import (
    CapacityShortfall,
    ConfigurationError,
    FileStore,
    PartyRandomness,
    ProtocolParams,
    Selection,
    party_stream,
    sample_filestore,
)

__all__ = [
    "IndexPartition",
    "SelectionSets",
    "Transcript",
    "abort_check",
    "partition",
    "sample_partition",
    "partition_choices",
    "shares_fit",
    "client_partitioner",
    "build_selection_sets",
    "decode_sets",
    "server_mask",
    "client_recover",
    "execute_session",
    "run_session_adaptive",
    "MUTATIONS",
]

# Deliberately broken protocol variants, used to demonstrate that the
# leakage oracle detects violations.  All tamper with server 1 / z1.
#   reuse-pad:          server 1 pads both messages with the same input bits
#   leak-selection:     the client publishes z1 alongside the sets
#   unmasked-messages:  server 1 sends its files without the input pad
MUTATIONS = ("reuse-pad", "leak-selection", "unmasked-messages")


@dataclass(frozen=True)
class IndexPartition:
    """The decodable/hidden split and its per-server shares."""

    good: IndexSet
    bad: IndexSet
    g1: IndexSet
    g2: IndexSet
    b1: IndexSet
    b2: IndexSet
    m: int


@dataclass(frozen=True)
class SelectionSets:
    """The two index sets published to each server, in published order."""

    s1_for_server1: IndexSet
    s2_for_server1: IndexSet
    s1_for_server2: IndexSet
    s2_for_server2: IndexSet

    def for_server(self, server_id: int) -> tuple[IndexSet, IndexSet]:
        if server_id == 1:
            return self.s1_for_server1, self.s2_for_server1
        return self.s1_for_server2, self.s2_for_server2


# Labels of a record's ``sets`` string: no set, then the four in SelectionSets field order.
_LABELS = np.frombuffer(b".abcd", dtype=np.uint8)
_NO_SET = _LABELS[0]


def decode_sets(labels: str) -> SelectionSets:
    """The four published index sets of a record's ``sets`` label string."""
    codes = np.frombuffer(labels.encode("ascii"), dtype=np.uint8)
    if np.isin(codes, _LABELS, invert=True).any():
        raise ValueError("set labels may only contain '.', 'a', 'b', 'c', 'd'")
    return SelectionSets(*((codes == code).nonzero()[0] + 1 for code in _LABELS[1:]))


@dataclass(frozen=True)
class Transcript:
    """Complete public record of one session."""

    params: ProtocolParams
    aborted: bool
    abort_reason: Optional[str]
    y: np.ndarray
    selection_sets: Optional[SelectionSets] = None
    m11: Optional[BitString] = None
    m12: Optional[BitString] = None
    m21: Optional[BitString] = None
    m22: Optional[BitString] = None
    recovered: Optional[tuple[BitString, BitString]] = None
    recovery_ok: Optional[bool] = None
    leaked_selection: Optional[int] = None

    def public_bits_from_server(self, server_id: int) -> int:
        """Total public message bits sent by one server in this session."""
        if self.aborted:
            return 0
        a, b = (self.m11, self.m12) if server_id == 1 else (self.m21, self.m22)
        return len(a) + len(b)

    def to_record(self) -> dict:
        rec = {
            "record": "transcript",
            "n": self.params.n,
            "t": self.params.t_exponent,
            "alpha": float(self.params.alpha),
            "ell1": self.params.ell1,
            "ell2": self.params.ell2,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
            "y": ternary_to_string(self.y),
        }
        if not self.aborted:
            # One label per position: the set in published order ('a'-'d') or '.' for none.
            s = self.selection_sets
            shares = (s.s1_for_server1, s.s2_for_server1, s.s1_for_server2, s.s2_for_server2)
            positions = np.concatenate(shares)
            if positions.size and (positions.min() < 1 or positions.max() > self.params.n):
                raise ValueError("selection sets must lie in [1, n]")
            labels = np.full(self.params.n, _NO_SET, dtype=np.uint8)
            labels[positions - 1] = np.repeat(_LABELS[1:], [a.size for a in shares])
            if np.count_nonzero(labels != _NO_SET) != positions.size:
                raise ValueError("selection sets must be pairwise disjoint")
            rec["sets"] = labels.tobytes().decode("ascii")
            rec["messages"] = {
                "m11": self.m11.to_hex(),
                "m12": self.m12.to_hex(),
                "m21": self.m21.to_hex(),
                "m22": self.m22.to_hex(),
            }
            rec["recovery_ok"] = self.recovery_ok
        if self.leaked_selection is not None:
            rec["leaked_selection"] = self.leaked_selection
        return rec


def abort_check(g_size: int, n: int, t: float) -> bool:
    """True iff the session may continue: |g_size/n - 1/2| <= n**(-t)."""
    if not 0 <= g_size <= n:
        raise ValueError("g_size must lie in [0, n]")
    if not 0 < t < 0.5:
        raise ValueError("t must lie in (0, 1/2)")
    return abs(g_size / n - 0.5) <= n ** (-t)


def partition(y: np.ndarray, alpha: float | Fraction, ell1: int, ell2: int) -> IndexPartition:
    """Carve per-server shares out of the decodable and hidden sets of y.

    Shares are the lowest-index elements, first-server first, so the choice
    is deterministic.  Raises :class:`CapacityShortfall` when the realized
    block cannot carry the requested lengths (the session driver treats
    that as an abort), and ``ValueError`` when y is not a channel output.
    """
    good, bad = classify_indices(y)
    m = _check_shares(good, bad, alpha, ell1, ell2)
    return IndexPartition(
        good=good,
        bad=bad,
        g1=good[:ell1],
        g2=good[ell1 : ell1 + ell2],
        b1=bad[:ell1],
        b2=bad[ell1 : ell1 + ell2],
        m=m,
    )


def _share_lengths(m: int, alpha: float | Fraction) -> tuple[int, int]:
    """(floor(alpha m), floor((1 - alpha) m)), in exact integers.

    An int or a ``Fraction`` alpha is used as given; a float stands for the
    decimal it prints as, ``Fraction(repr(alpha))``, so 0.3 is 3/10 and
    1 / 3 is 3333333333333333 / 10**16.
    """
    a = alpha if isinstance(alpha, (int, Fraction)) else Fraction(repr(float(alpha)))
    p, q, m = a.numerator, a.denominator, int(m)  # Python ints: no int64 overflow
    return p * m // q, (q - p) * m // q


def shares_fit(m: int, alpha: float | Fraction, ell1: int, ell2: int) -> bool:
    """True iff the shares of M = min(|good|, |bad|) = m (:func:`_share_lengths`) carry the lengths."""
    share1, share2 = _share_lengths(m, alpha)
    return ell1 <= share1 and ell2 <= share2


def _check_shares(good: IndexSet, bad: IndexSet, alpha: float | Fraction, ell1: int, ell2: int) -> int:
    """M = min(|good|, |bad|), once its shares carry the requested lengths."""
    m = min(good.size, bad.size)
    if not shares_fit(m, alpha, ell1, ell2):
        raise CapacityShortfall(
            f"requested lengths ({ell1}, {ell2}) exceed shares of M={m} at alpha={alpha}"
        )
    return m


def sample_partition(
    y: np.ndarray, alpha: float | Fraction, ell1: int, ell2: int, stream: np.random.Generator
) -> IndexPartition:
    """Draw the shares of y's index sets uniformly at random with the
    client's local randomness: one permutation of the decodable set, then
    one of the hidden set.

    Honest sessions must use a random partition: a deterministic share rule
    lets an observer of all four published sets reconstruct which sets are
    decodable and break both selection privacy and server privacy.  The
    deterministic :func:`partition` remains available for worked examples
    and sizing checks only.
    """
    good, bad = classify_indices(y)
    m = _check_shares(good, bad, alpha, ell1, ell2)
    g = good[stream.permutation(good.size)[: ell1 + ell2]]
    b = bad[stream.permutation(bad.size)[: ell1 + ell2]]
    g1, g2, b1, b2 = g[:ell1], g[ell1:], b[:ell1], b[ell1:]
    for share in (g1, g2, b1, b2):
        share.sort()  # in place: each share is its own slice of a fresh array
    return IndexPartition(good=good, bad=bad, g1=g1, g2=g2, b1=b1, b2=b2, m=m)


def partition_choices(y: np.ndarray, alpha: float | Fraction, ell1: int, ell2: int) -> list[IndexPartition]:
    """All equally likely partitions of y's index sets, for exhaustive
    averaging over the client's share randomness."""
    good, bad = classify_indices(y)
    m = _check_shares(good, bad, alpha, ell1, ell2)

    def shares(indices: IndexSet) -> list[tuple[IndexSet, IndexSet]]:
        pool = indices.tolist()
        return [
            (np.array(first, dtype=np.int64), np.array(second, dtype=np.int64))
            for first in itertools.combinations(pool, ell1)
            for second in itertools.combinations([i for i in pool if i not in first], ell2)
        ]

    return [IndexPartition(good, bad, g1, g2, b1, b2, m) for g1, g2 in shares(good) for b1, b2 in shares(bad)]


def build_selection_sets(z1: int, z2: int, part: IndexPartition) -> SelectionSets:
    """Publish the decodable share in slot z_i and the hidden share in the other."""
    s11, s21 = (part.g1, part.b1) if z1 == 1 else (part.b1, part.g1)
    s12, s22 = (part.g2, part.b2) if z2 == 1 else (part.b2, part.g2)
    return SelectionSets(s11, s21, s12, s22)


def server_mask(
    x: BitString, sets: tuple[IndexSet, IndexSet], f1: BitString, f2: BitString
) -> tuple[BitString, BitString]:
    """One-time-pad the server's channel inputs over both published sets."""
    s1, s2 = sets
    return x.subselect(s1) ^ f1, x.subselect(s2) ^ f2


def client_recover(z: int, y: np.ndarray, s_z: IndexSet, m_z: BitString) -> BitString:
    """Unmask the requested file from the message covering decodable positions.

    At a decodable position the sum determines both inputs, so each server's
    input there is simply half the sum.
    """
    vals = np.asarray(y, dtype=np.uint8)[np.asarray(s_z, dtype=np.int64) - 1]
    if np.count_nonzero(vals == 1):
        raise RuntimeError("hidden position inside a decodable selection set")
    return BitString.from_array(vals >> 1) ^ m_z


def _aborted(params: ProtocolParams, y: np.ndarray, reason: str) -> Transcript:
    return Transcript(params=params, aborted=True, abort_reason=reason, y=y)


def execute_session(
    params: ProtocolParams,
    files1: FileStore,
    files2: FileStore,
    sel: Selection,
    x1: BitString,
    x2: BitString,
    *,
    abort_disabled: bool = False,
    mutation: Optional[str] = None,
    partitioner=partition,
) -> Transcript:
    """Run one session with explicit channel inputs.

    ``abort_disabled`` skips the decodable-fraction check only; a capacity
    shortfall still aborts because the shares physically do not exist.
    ``partitioner`` maps (y, alpha, ell1, ell2) to the share
    partition; honest drivers supply a randomized one (see
    :func:`sample_partition`), the default deterministic rule is for
    deterministic replay and worked examples.
    """
    params.validate()
    sel.validate(2, 2)
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigurationError(f"unknown mutation {mutation!r}; choose from {MUTATIONS}")
    if files1.file_count != 2 or files2.file_count != 2:
        raise ConfigurationError("two-file sessions need exactly two files per server")
    if files1.file_length != params.ell1 or files2.file_length != params.ell2:
        raise ConfigurationError("file lengths must match (ell1, ell2)")
    if len(x1) != params.n or len(x2) != params.n:
        raise ConfigurationError("channel inputs must have length n")

    round_ = transmit(x1, x2)
    if not abort_disabled and not abort_check(np.count_nonzero(round_.y != 1), params.n, params.t_exponent):
        return _aborted(params, round_.y, "size-deviation")
    try:
        part = partitioner(round_.y, params.alpha, params.ell1, params.ell2)
    except CapacityShortfall:
        return _aborted(params, round_.y, "capacity-shortfall")

    sets = build_selection_sets(sel.z1, sel.z2, part)
    s1_sets, s2_sets = sets.for_server(1), sets.for_server(2)
    (f11, f12), (f21, f22) = files1.files, files2.files

    m11, m12 = server_mask(x1, s1_sets, f11, f12)
    m21, m22 = server_mask(x2, s2_sets, f21, f22)
    if mutation == "reuse-pad":
        # Server 1 pads its second message with the inputs of the first set.
        m12 = x1.subselect(sets.s1_for_server1) ^ f12
    elif mutation == "unmasked-messages":
        m11, m12 = f11, f12

    rec1 = client_recover(sel.z1, round_.y, s1_sets[sel.z1 - 1], (m11, m12)[sel.z1 - 1])
    rec2 = client_recover(sel.z2, round_.y, s2_sets[sel.z2 - 1], (m21, m22)[sel.z2 - 1])

    return Transcript(
        params=params,
        aborted=False,
        abort_reason=None,
        y=round_.y,
        selection_sets=sets,
        m11=m11,
        m12=m12,
        m21=m21,
        m22=m22,
        recovered=(rec1, rec2),
        recovery_ok=(rec1 == (f11, f12)[sel.z1 - 1] and rec2 == (f21, f22)[sel.z2 - 1]),
        leaked_selection=sel.z1 if mutation == "leak-selection" else None,
    )


def client_partitioner(client_seed: int, round_index: int = 1):
    """Share partitioner backed by the client's private stream, key (3, round)."""
    stream = party_stream(client_seed, (3, round_index))

    def partitioner(y, alpha, ell1, ell2):
        return sample_partition(y, alpha, ell1, ell2, stream)

    return partitioner


def run_session_adaptive(
    params: ProtocolParams, sel: Selection, rnd: PartyRandomness
) -> tuple[Transcript, ProtocolParams]:
    """Run one session with maximal file sizing.

    The file lengths are fixed only after the channel realization is known:
    the largest lengths the realized shares can carry.  Files are then
    sampled uniformly from the server streams.  Used for rate measurements;
    returns the transcript and the params actually executed.
    """
    params.validate()
    x1 = sample_uniform(params.n, party_stream(rnd.server1_seed, (1, 1)))
    x2 = sample_uniform(params.n, party_stream(rnd.server2_seed, (1, 1)))
    g = np.count_nonzero(transmit(x1, x2).y != 1)
    ell1, ell2 = _share_lengths(min(g, params.n - g), params.alpha)
    sized = replace(params, ell1=ell1, ell2=ell2)
    files1 = sample_filestore(1, 2, sized.ell1, rnd.server1_seed)
    files2 = sample_filestore(2, 2, sized.ell2, rnd.server2_seed)
    return (
        execute_session(
            sized,
            files1,
            files2,
            sel,
            x1,
            x2,
            partitioner=client_partitioner(rnd.client_seed),
        ),
        sized,
    )
