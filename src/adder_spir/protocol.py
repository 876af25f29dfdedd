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

A round has two phases.  :func:`open_round` is the channel phase, which
does not depend on the selection: the servers transmit, and the client
reads y, decides both aborts (the decodable fraction, and whether the
shares carry the lengths) from its decodable count alone, partitions the
positions and decodes the servers' inputs at its decodable shares, y/2
there (:class:`IndexPartition`).  :func:`execute_session` answers one
opened round for one selection: the servers mask, and the client XORs
each requested message with the inputs it decoded.  Seeded runs reach
them through ``multifile.run_multifile``, whose one-round case is two
files per server, and the leakage oracle through
``multifile.execute_multifile``; ``run_session_adaptive`` sizes the files
to the realized block for rate sweeps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple, Optional

import numpy as np

from .bits import BitString, sample_uniform
from .channel import IndexSet, classify_indices, ternary_to_string, transmit
from .model import (
    CapacityShortfall,
    ConfigurationError,
    FileStore,
    ProtocolParams,
    Selection,
    SessionStreams,
    sample_filestore,
)

__all__ = [
    "IndexPartition",
    "RoundOpening",
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
    "open_round",
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


def check_mutation(mutation: Optional[str]) -> None:
    """Refuse a ``mutation`` that is neither None nor one of ``MUTATIONS``."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigurationError(f"unknown mutation {mutation!r}; choose from {MUTATIONS}")


@dataclass(frozen=True, init=False)
class IndexPartition:
    """The decodable/hidden split, its per-server shares, and the client's
    decoded inputs at the decodable shares: ``decoded1`` and ``decoded2``
    are y/2 at g1 and g2, packed, read once where the partition is built
    (:func:`_index_partition`) for every selection that answers it.

    Frozen, and built in one step like :class:`Transcript`: the oracle
    builds one per partition the client could draw.
    """

    good: IndexSet
    bad: IndexSet
    g1: IndexSet
    g2: IndexSet
    b1: IndexSet
    b2: IndexSet
    m: int
    decoded1: BitString
    decoded2: BitString

    def __init__(self, good, bad, g1, g2, b1, b2, m, decoded1, decoded2):
        self.__dict__.update(good=good, bad=bad, g1=g1, g2=g2, b1=b1, b2=b2, m=m, decoded1=decoded1, decoded2=decoded2)


def _index_partition(y, good, bad, g1, g2, b1, b2, m) -> IndexPartition:
    """The partition of y into these shares (int64 arrays), with the
    client's inputs at g1 and g2 decoded: at a decodable position the sum
    pins both inputs, so each server's input there is half the sum.  Every
    partitioner builds its partitions here."""
    y, decoded = np.asarray(y, dtype=np.uint8), []
    for share in (g1, g2):
        vals = y[share - 1]
        if 1 in vals.tobytes():
            raise RuntimeError("hidden position inside a decodable share")
        # The sums left are 0 and 2, and packing reads any nonzero value as a 1.
        decoded.append(BitString.from_array(vals))
    return IndexPartition(good, bad, g1, g2, b1, b2, m, *decoded)


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


@dataclass(frozen=True, init=False)
class Transcript:
    """Complete public record of one session.

    Frozen, and built by an ``__init__`` that fills the instance dict in
    one step: a frozen dataclass's generated one sets each of the twelve
    fields through ``object.__setattr__`` and takes two to three times as
    long.  ``dataclasses.replace`` calls it like the generated one.
    """

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
    requested: Optional[tuple[BitString, BitString]] = None
    leaked_selection: Optional[int] = None

    def __init__(self, params, aborted, abort_reason, y, selection_sets=None, m11=None, m12=None, m21=None, m22=None,
                 recovered=None, requested=None, leaked_selection=None):
        self.__dict__.update({
            "params": params, "aborted": aborted, "abort_reason": abort_reason, "y": y,
            "selection_sets": selection_sets, "m11": m11, "m12": m12, "m21": m21, "m22": m22,
            "recovered": recovered, "requested": requested, "leaked_selection": leaked_selection,
        })

    @property
    def recovery_ok(self) -> Optional[bool]:
        """Whether the recovered files are the requested ones; None on abort."""
        return None if self.aborted else self.recovered == self.requested

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
    is deterministic.  Honest sessions must not use it (see
    :func:`sample_partition`); it is for worked examples, sizing checks and
    deterministic replays that pass it to :func:`open_round` explicitly.
    Raises :class:`CapacityShortfall` when the realized block cannot carry
    the requested lengths (:func:`open_round` decides that abort before it
    calls any partitioner), and ``ValueError`` when y is not a channel
    output.
    """
    good, bad = classify_indices(y)
    m = _check_shares(good, bad, alpha, ell1, ell2)
    return _index_partition(y, good, bad, good[:ell1], good[ell1 : ell1 + ell2], bad[:ell1], bad[ell1 : ell1 + ell2], m)


def _share_lengths(m: int, alpha: float | Fraction) -> tuple[int, int]:
    """(floor(alpha m), floor((1 - alpha) m)), in exact integers.

    An int or a ``Fraction`` alpha is used as given; a float stands for the
    decimal it prints as, ``Fraction(repr(alpha))``, so 0.3 is 3/10 and
    1 / 3 is 3333333333333333 / 10**16.
    """
    a = alpha if isinstance(alpha, (int, Fraction)) else _decimal(float(alpha))
    p, q, m = a.numerator, a.denominator, int(m)  # Python ints: no int64 overflow
    return p * m // q, (q - p) * m // q


@functools.lru_cache(maxsize=256)
def _decimal(alpha: float) -> Fraction:
    """The decimal a float prints as, converted once per value."""
    return Fraction(repr(alpha))


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
    decodable and break both selection privacy and server privacy.  Like
    :func:`partition`, it raises :class:`CapacityShortfall` when the shares
    cannot carry the lengths, before it draws from ``stream``.
    """
    good, bad = classify_indices(y)
    m = _check_shares(good, bad, alpha, ell1, ell2)
    g = good[stream.permutation(good.size)[: ell1 + ell2]]
    b = bad[stream.permutation(bad.size)[: ell1 + ell2]]
    g1, g2, b1, b2 = g[:ell1], g[ell1:], b[:ell1], b[ell1:]
    for share in (g1, g2, b1, b2):
        share.sort()  # in place: each share is its own slice of a fresh array
    return _index_partition(y, good, bad, g1, g2, b1, b2, m)


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

    return [_index_partition(y, good, bad, g1, g2, b1, b2, m) for g1, g2 in shares(good) for b1, b2 in shares(bad)]


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


def client_recover(decoded: BitString, m_z: BitString) -> BitString:
    """Unmask the requested file from the message covering decodable
    positions: ``decoded`` is the server's inputs there, which the client
    decoded once from y where the partition was built
    (:class:`IndexPartition`)."""
    return decoded ^ m_z


class RoundOpening(NamedTuple):
    """The channel phase of one round, from :func:`open_round`.

    ``abort_reason`` is None unless the round aborted; ``partition`` is
    whatever the partitioner returned, None on abort.
    """

    x1: BitString
    x2: BitString
    y: np.ndarray
    abort_reason: Optional[str]
    partition: object


def open_round(
    params: ProtocolParams, x1: BitString, x2: BitString, partitioner, *, abort_disabled: bool = False
) -> RoundOpening:
    """Transmit one block, run the abort checks and partition its positions.

    Both checks read y's decodable count g alone: the decodable fraction,
    and whether the shares of M = min(g, n - g) carry the lengths
    (:func:`shares_fit`).  ``partitioner`` maps (y, alpha, ell1, ell2) to
    the share partition, and is called only once both pass; honest drivers
    supply a randomized one (:func:`client_partitioner`), whose stream a
    round that aborts leaves as it was.  ``abort_disabled`` skips the
    decodable-fraction check only; a capacity shortfall still aborts
    because the shares physically do not exist.
    """
    if len(x1) != params.n or len(x2) != params.n:
        raise ConfigurationError("channel inputs must have length n")
    y = transmit(x1, x2).y
    g = np.count_nonzero(y != 1)
    if not abort_disabled and not abort_check(g, params.n, params.t_exponent):
        return RoundOpening(x1, x2, y, "size-deviation", None)
    if not shares_fit(min(g, params.n - g), params.alpha, params.ell1, params.ell2):
        return RoundOpening(x1, x2, y, "capacity-shortfall", None)
    return RoundOpening(x1, x2, y, None, partitioner(y, params.alpha, params.ell1, params.ell2))


def execute_session(
    params: ProtocolParams,
    files1: FileStore,
    files2: FileStore,
    sel: Selection,
    opening: RoundOpening,
    *,
    mutation: Optional[str] = None,
) -> Transcript:
    """Answer one opened round (:func:`open_round`) for one selection."""
    params.validate()
    sel.validate(2, 2)
    check_mutation(mutation)
    if files1.file_count != 2 or files2.file_count != 2:
        raise ConfigurationError("two-file sessions need exactly two files per server")
    if files1.file_length != params.ell1 or files2.file_length != params.ell2:
        raise ConfigurationError("file lengths must match (ell1, ell2)")
    x1, x2, y, abort_reason, part = opening
    if abort_reason is not None:
        return Transcript(params=params, aborted=True, abort_reason=abort_reason, y=y)

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

    # The set covering the requested file is g1 at server 1 and g2 at server 2, whatever the selection.
    rec1 = client_recover(part.decoded1, (m11, m12)[sel.z1 - 1])
    rec2 = client_recover(part.decoded2, (m21, m22)[sel.z2 - 1])

    return Transcript(
        params=params,
        aborted=False,
        abort_reason=None,
        y=y,
        selection_sets=sets,
        m11=m11,
        m12=m12,
        m21=m21,
        m22=m22,
        recovered=(rec1, rec2),
        requested=((f11, f12)[sel.z1 - 1], (f21, f22)[sel.z2 - 1]),
        leaked_selection=sel.z1 if mutation == "leak-selection" else None,
    )


def client_partitioner(stream: np.random.Generator):
    """Share partitioner backed by the client's private partition stream for one round."""

    def partitioner(y, alpha, ell1, ell2):
        return sample_partition(y, alpha, ell1, ell2, stream)

    return partitioner


def run_session_adaptive(
    params: ProtocolParams, sel: Selection, streams: SessionStreams
) -> tuple[Transcript, ProtocolParams]:
    """Run one session with maximal file sizing.

    The file lengths are fixed only after the channel realization is known:
    the largest lengths the realized shares can carry, so the channel phase
    runs at lengths (0, 0) and never aborts on capacity.  They are fitted
    once from y: by the partitioner, or after a round that aborted.  Files
    are then sampled uniformly from the server streams.  ``streams`` are
    those of one two-file round (``session_streams(rnd, 2, 2)``); others are
    refused.  Used for rate measurements; returns the transcript and the
    params actually executed.
    """
    params.validate()
    streams.check(2, 2)
    ((stream1, stream2),) = streams.inputs
    x1 = sample_uniform(params.n, stream1)
    x2 = sample_uniform(params.n, stream2)
    client = client_partitioner(streams.partitions[0])
    unsized = replace(params, ell1=0, ell2=0) if params.ell1 or params.ell2 else params
    fitted = []  # the lengths, fitted once from y where the partitioner runs

    def partitioner(y, alpha, *_lengths):
        fitted.append(_fitting(y, alpha))
        return client(y, alpha, *fitted[0])

    opening = open_round(unsized, x1, x2, partitioner)
    ell1, ell2 = fitted[0] if fitted else _fitting(opening.y, params.alpha)
    sized = replace(params, ell1=ell1, ell2=ell2)
    files1 = sample_filestore(1, 2, ell1, streams.files[0])
    files2 = sample_filestore(2, 2, ell2, streams.files[1])
    return execute_session(sized, files1, files2, sel, opening), sized


def _fitting(y: np.ndarray, alpha: float | Fraction) -> tuple[int, int]:
    """The largest lengths the shares of y carry."""
    g = np.count_nonzero(y != 1)
    return _share_lengths(min(g, y.size - g), alpha)
