"""Exhaustive-enumeration leakage auditing on tiny protocol instances.

Every random input of a session (channel inputs, the client's share
partitions, files, chaining masks, and the selection pair) is enumerated
with its exact probability, yielding the exact joint distribution of
everything any party ever sees.  Leakage is then a plain
mutual-information computation on that table; no sampling and no
estimation are involved.  Probabilities are integer numerators over one
denominator, and a leakage is exactly 0.0 when its grouped integer masses
factor, so a secure instance audits to exact zeros.

The real protocol is the thing audited, but it is not replayed for every
assignment.  A *skeleton* fixes the channel outputs y of every executed
round, one partition per round that did not abort, and the selection.  Its
free bits are the B file and mask bits and the U channel bits, one per
hidden position (y = 1), where server 1 sends a bit u and server 2 sends
1 XOR u.  They enter the session code as
:class:`~adder_spir.bits.AffineBits`, so one replay per skeleton returns
the channel inputs, the messages and the unselected files as an offset
plus one column per free bit; numpy expands the 2^(B+U) assignments by XOR.
Every other value (y, sets, leak, abort, and whether the requested files
came back) must come out concrete: a session step that reads a file or
mask bit as a value, or combines such bits other than by XOR, raises
``TypeError``.  A skeleton whose replay reads a channel bit that way is
replayed once per value of its channel bits instead.  Two files per server
is the L1 = L2 = 2 case of the multi-file reduction, replayed the same way;
only its decoded per-round values are unwrapped from their one-round tuples.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bits import AffineBits, BitString
from .channel import classify_indices, transmit  # noqa: F401  (classify_indices: bound for tracing tools)
from .infotheory import JointDistribution, _numerators
from .model import CapacityShortfall, ConfigurationError, FileStore, ProtocolParams, Selection
from .multifile import execute_multifile
# The oracle looks its protocol entry points up in this namespace at call
# time, so tracing tools can wrap them here; execute_session, reached through
# execute_multifile, stays bound with them.
from .protocol import Transcript, abort_check, execute_session, partition_choices, shares_fit  # noqa: F401

__all__ = [
    "StateBudgetExceeded",
    "LeakageReport",
    "enumerate_protocol",
    "required_states",
    "audit",
    "DEFAULT_STATE_BUDGET",
]

DEFAULT_STATE_BUDGET = 2**28

# The public record is split into components so that each party's view can
# be assembled per the non-colluding-servers model: the selection sets and
# abort notice are broadcast, but each server's masked messages travel on
# its private link with the client and are not seen by the other server.
# (If the other server's messages were public, it could combine them with
# its own channel inputs — which pin down the peer's inputs up to the
# good/bad assignment of the published sets — and recover a nontrivial
# function of the peer's files; the oracle measures exactly 1 bit on the
# smallest instance.)
VARIABLES = (
    "z1", "z2", "files1", "files2", "masks1", "masks2", "x1", "x2", "y",
    "sets", "msgs1", "msgs2", "leak", "abort", "ok", "unsel", "u0",
)
# Skeleton constants coded by interned ids.
_INTERNED = ("y", "sets", "leak", "u0")
# Free file and mask bits of an assignment, packed in this order from the
# most significant end; the channel bits sit above them.
_FREE = ("files1", "files2", "masks1", "masks2")
# Packed codes (free bits plus a round-pattern tag) must fit an int64.
_MAX_CODE_BITS = 62


class StateBudgetExceeded(Exception):
    def __init__(self, required: int, budget: int):
        super().__init__(f"enumeration needs {required} rows, budget is {budget}")
        self.required = required
        self.budget = budget


@dataclass(frozen=True)
class LeakageReport:
    """All six audited quantities for one instance, in bits.

    ``enumeration_s`` and ``information_s`` split ``wall_time_s`` into the
    enumeration and the mutual-information passes; they and ``replays`` (the
    protocol replays the enumeration ran) stay out of the record.
    """

    params: ProtocolParams
    conditioning: str
    client_privacy_s1: float
    client_privacy_s2: float
    server2_vs_server1: float
    server1_vs_server2: float
    servers_vs_client: float
    reliability_error: float
    state_count: int
    required_states: int
    budget: int
    wall_time_s: float
    mutation: Optional[str] = None
    enumeration_s: float = 0.0
    information_s: float = 0.0
    replays: int = 0

    @property
    def mode(self) -> str:
        """The record's shape label, derived from (L1, L2)."""
        return "two_file" if (self.params.L1, self.params.L2) == (2, 2) else "multifile"

    @property
    def leakages(self) -> dict[str, float]:
        return {
            "client_privacy_s1": self.client_privacy_s1,
            "client_privacy_s2": self.client_privacy_s2,
            "server2_vs_server1": self.server2_vs_server1,
            "server1_vs_server2": self.server1_vs_server2,
            "servers_vs_client": self.servers_vs_client,
        }

    def all_zero(self) -> bool:
        return all(v == 0.0 for v in self.leakages.values()) and self.reliability_error == 0.0

    def to_record(self) -> dict:
        return {
            "record": "leakage-report",
            **{k: getattr(self.params, k) for k in ("n", "L1", "L2", "ell1", "ell2")},
            "alpha": float(self.params.alpha),
            "t": self.params.t_exponent,
            "mode": self.mode,
            "conditioning": self.conditioning,
            "mutation": self.mutation,
            **{k: repr(v) for k, v in self.leakages.items()},
            "reliability_error": self.reliability_error,
            "state_count": self.state_count,
            "required_states": self.required_states,
            "budget": self.budget,
            "wall_time_s": self.wall_time_s,
        }


def _public_of(t: Transcript) -> tuple:
    """(sets, msgs1, msgs2, leak) components of one session's public record."""
    if t.aborted:
        return (True, t.abort_reason, None), None, None, t.leaked_selection
    s = t.selection_sets
    sets = (False, None, _tuples(s.s1_for_server1, s.s2_for_server1, s.s1_for_server2, s.s2_for_server2))
    return sets, (t.m11, t.m12), (t.m21, t.m22), t.leaked_selection


def _tuples(*index_sets) -> tuple:
    """Index-set arrays as hashable tuples of ints."""
    return tuple(tuple(s.tolist()) for s in index_sets)


def _round_choices(x1: BitString, x2: BitString, params: ProtocolParams, abort_disabled: bool):
    """The client's equally likely partitions for one block, or None if it aborts."""
    y = transmit(x1, x2).y
    if not abort_disabled and not abort_check(np.count_nonzero(y != 1), params.n, params.t_exponent):
        return None
    try:
        return partition_choices(y, params.alpha, params.ell1, params.ell2)
    except CapacityShortfall:
        return None


def _part_key(part) -> tuple:
    return _tuples(part.g1, part.g2, part.b1, part.b2)


def _preset_partitioner(part):
    """Partitioner that replays one enumerated choice (None means shortfall)."""

    def partitioner(*_args):
        if part is None:
            raise CapacityShortfall("infeasible block replayed by the oracle")
        return part

    return partitioner


def _mask(width: int) -> int:
    return (1 << width) - 1


def _unpack(code, widths: list[int]) -> list:
    """Fields of the given widths packed in ``code`` (int or int64 array), first highest."""
    shift = sum(widths)
    fields = []
    for w in widths:
        shift -= w
        fields.append((code >> shift) & _mask(w))
    return fields


def _bitstrings(code: int, count: int, width: int) -> tuple[BitString, ...]:
    return tuple(BitString.from_int(f, width) for f in _unpack(code, [width] * count))


class _Layout:
    """Shapes of one instance; ``fields`` is (count, width) per ``_FREE`` name."""

    def __init__(self, params: ProtocolParams):
        self.n, self.L1, self.L2 = params.n, params.L1, params.L2
        self.K = (self.L1 - 1) * (self.L2 - 1)
        self.p1, self.p2 = params.ell1, params.ell2
        self.len1, self.len2 = self.p1 * (self.L2 - 1), self.p2 * (self.L1 - 1)
        self.fields = (
            (self.L1, self.len1),
            (self.L2, self.len2),
            ((self.L1 - 2) * (self.L2 - 1), self.p1),
            ((self.L2 - 2) * (self.L1 - 1), self.p2),
        )
        self.free_bits = sum(c * w for c, w in self.fields)

    def split(self, a) -> list:
        """Codes of the ``_FREE`` fields of packed assignments ``a``."""
        return _unpack(a, [c * w for c, w in self.fields])

    def symbols(self, channel_bits: int = 0) -> tuple:
        """FileStores and per-part mask groups as :class:`AffineBits` of the
        free bits that :meth:`split` reads them from, with ``channel_bits``
        more free bits above those."""
        shift, groups = self.free_bits, []
        for count, width in self.fields:
            shift -= count * width
            linear = [(1 << j >> shift) & _mask(count * width) for j in range(self.free_bits)]
            linear += [0] * channel_bits
            groups.append(tuple(AffineBits((0, *linear), count * width).split(count)) if count else ())
        f1, f2, m1, m2 = groups
        g1, g2 = self.L1 - 2, self.L2 - 2
        return (
            FileStore(1, f1), FileStore(2, f2),
            tuple(m1[i * g1 : (i + 1) * g1] for i in range(self.L2 - 1)),
            tuple(m2[j * g2 : (j + 1) * g2] for j in range(self.L1 - 1)),
        )


def required_states(params: ProtocolParams, abort_disabled: bool = False) -> int:
    """Exact number of rows :func:`enumerate_protocol` generates.

    One row per (channel inputs of each executed round, partition of each
    round that did not abort, selection, free file and mask bits).  Per
    round, C(n, g) 2^n input pairs have g decodable positions; such a pair
    either aborts, which ends the sequence, or continues under each of its
    C(g, ell1) C(g - ell1, ell2) C(n - g, ell1) C(n - g - ell1, ell2)
    equally likely partitions.
    """
    params.validate()
    n, a, b = params.n, params.ell1, params.ell2
    aborting = continuing = 0
    for g in range(n + 1):
        pairs = math.comb(n, g) * 2**n
        if (not abort_disabled and not abort_check(g, n, params.t_exponent)) or not shares_fit(
            min(g, n - g), params.alpha, a, b
        ):
            aborting += pairs
        else:
            continuing += pairs * math.comb(g, a) * math.comb(g - a, b) * math.comb(n - g, a) * math.comb(n - g - a, b)
    layout = _Layout(params)
    sequences = sum(continuing**k * aborting for k in range(layout.K)) + continuing**layout.K
    return sequences * params.L1 * params.L2 * 2**layout.free_bits


def enumerate_protocol(
    params: ProtocolParams,
    *,
    abort_disabled: bool = False,
    mutation: Optional[str] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
    stats: Optional[dict] = None,
) -> JointDistribution:
    """Exact joint distribution of one protocol instance.

    Variables: selection pair, file tuples, mask tuples, per-server channel
    inputs, observed sums, the entire public communication, the abort flag,
    the recovery flag, and the tuple of unselected files.  Per-round values
    are tuples over the executed rounds, except with two files per server
    (L1 = L2 = 2, one round), where they are unwrapped.  A given ``stats``
    dict receives the number of protocol replays under ``"replays"``.
    """
    required = required_states(params, abort_disabled)
    if required > state_budget:
        raise StateBudgetExceeded(required, state_budget)
    enumeration = _Enumeration(params, abort_disabled, mutation)
    dist = enumeration.distribution(single=(params.L1, params.L2) == (2, 2))
    if stats is not None:
        stats["replays"] = enumeration.replays
    return dist


class _Enumeration:
    """Skeleton replays of one instance and their numpy expansion."""

    def __init__(self, params: ProtocolParams, abort_disabled: bool, mutation: Optional[str]):
        self.params, self.abort_disabled, self.mutation = params, abort_disabled, mutation
        self.layout = lay = _Layout(params)
        B, U = lay.free_bits, lay.n * lay.K
        if B + U + (2 * lay.K + 1).bit_length() > _MAX_CODE_BITS:
            raise ConfigurationError(f"{B} file and mask bits and {U} channel bits are too many to enumerate")
        self.symbols = [lay.symbols(u) for u in range(U + 1)]
        self.replays = 0

    def sequences(self):
        """Canonical channel-input sequences, truncated at the first aborting
        round, with one partition per round that did not abort.

        A canonical pair (ints) has x1 = 0 and x2 = 1 at every hidden
        position; it stands for every pair with the same sums.  Yields (pairs,
        partition per live round, number of partition combinations).
        """
        n = self.layout.n
        verdicts = [
            ((v1, v2), _round_choices(*(BitString.from_int(v, n) for v in (v1, v2)), self.params, self.abort_disabled))
            for v1 in range(2**n) for v2 in range(2**n) if not v1 & ~v2
        ]
        prefixes = [((), (), 1)]
        for _round in range(self.layout.K):
            grown = []
            for pairs, parts, combos in prefixes:
                for pair, choices in verdicts:
                    if choices is None:
                        yield pairs + (pair,), parts, combos
                    else:
                        grown.extend((pairs + (pair,), parts + (c,), combos * len(choices)) for c in choices)
            prefixes = grown
        yield from prefixes

    def skeletons(self):
        """Replay every skeleton.  Yields per replay (z1, z2, aborted, ok), the
        values of ``_INTERNED``, the offset and columns of x1, x2, msgs1,
        msgs2 and unsel, and (free channel bits, executed rounds, partition
        combinations)."""
        lay = self.layout
        f1, f2 = self.symbols[0][0].files, self.symbols[0][1].files
        selections = [(Selection(z1, z2), _columns(f1[: z1 - 1] + f1[z1:] + f2[: z2 - 1] + f2[z2:]))
                      for z1 in range(1, lay.L1 + 1) for z2 in range(1, lay.L2 + 1)]
        for pairs, parts, combos in self.sequences():
            executed, aborted = len(pairs), len(parts) < len(pairs)
            partitioners = [_preset_partitioner(p) for p in parts + (None,) * (lay.K - len(parts))]
            # One free channel bit per hidden position: (round, its column).
            channel = [(r, 1 << s) for r, (v1, v2) in enumerate(pairs)
                       for s in range(lay.n - 1, -1, -1) if (v1 ^ v2) >> s & 1]
            part_keys = tuple(map(_part_key, parts))
            for sel, unsel in selections:
                try:
                    replays = [self.replay(sel, pairs, channel, partitioners, unsel)]
                except TypeError:
                    # The session reads a channel bit as a value: replay each assignment of them.
                    replays = [self.replay(sel, _fixed(pairs, channel, u), [], partitioners, unsel)
                               for u in range(2 ** len(channel))]
                for (public, replayed_abort, ok), outputs, free in replays:
                    if replayed_abort != aborted or len(public) != executed:
                        raise RuntimeError("replay disagrees with the enumerated channel verdicts")
                    values = (*(tuple(r[i] for r in public) for i in range(3)), part_keys)
                    yield (sel.z1, sel.z2, int(aborted), ok), values, outputs, (free, executed, combos)

    def replay(self, sel: Selection, pairs, channel, partitioners, unsel) -> tuple:
        """Run the protocol once on the symbolic files and masks and the
        channel-input ``pairs`` XOR the ``channel`` bits, free above the file
        and mask bits: the concrete outputs (per executed round y, sets and
        leak; the abort flag; ok, 2 on abort, else whether the recovered files
        equal the oracle's own symbolic requested ones, never the session's
        ``recovery_ok``), the offset and columns of x1, x2, msgs1, msgs2 and
        unsel (given) and the number of free channel bits."""
        self.replays += 1
        lay, free = self.layout, len(channel)
        x_rounds = []
        for r, pair in enumerate(pairs):
            linear = [0] * lay.free_bits + [c if k == r else 0 for k, c in channel]
            x_rounds.append(tuple(AffineBits((v, *linear), lay.n) for v in pair))
        files1, files2, masks1, masks2 = self.symbols[free]
        mt = execute_multifile(
            self.params, files1, files2, sel, x_rounds + [(BitString.zeros(lay.n),) * 2] * (lay.K - len(pairs)),
            masks1, masks2, abort_disabled=self.abort_disabled, mutation=self.mutation, partitioners=partitioners,
        )
        sent = [t for t in mt.transcripts if not t.aborted]
        outputs = (
            *(_columns([x[i] for x in x_rounds]) for i in (0, 1)),
            _columns([m for t in sent for m in (t.m11, t.m12)]),
            _columns([m for t in sent for m in (t.m21, t.m22)]),
            unsel,
        )
        ok = 2 if mt.aborted else int(mt.recovered == (files1.file(sel.z1), files2.file(sel.z2)))
        public = tuple((t.y.tobytes(), *_public_of(t)[::3]) for t in mt.transcripts)
        return (public, mt.aborted, ok), outputs, free

    def distribution(self, single: bool) -> JointDistribution:
        lay = self.layout
        n, K, B = lay.n, lay.K, lay.free_bits
        F = B + n * K  # the most free bits of any skeleton
        interned: dict[str, dict] = {name: {} for name in _INTERNED}
        rows, affine = [], []
        for direct, values, outputs, shape in self.skeletons():
            ids = (interned[name].setdefault(v, len(interned[name])) for name, v in zip(_INTERNED, values))
            rows.append((*direct, *ids, *shape))
            affine.append([o + (0,) * (F + 1 - len(o)) for o in outputs])
        names = ("z1", "z2", "abort", "ok", *_INTERNED)
        table = np.array(rows, dtype=np.int64).T
        affine = np.array(affine, dtype=np.int64)
        free, executed, combos = table[len(names):]

        # Skeleton s expands to one row per assignment a of its free bits:
        # file and mask bits below, its channel bits above.
        counts = np.left_shift(1, B + free)
        skel = np.repeat(np.arange(len(counts)), counts)
        a = np.arange(len(skel)) - np.repeat(np.cumsum(counts) - counts, counts)
        rounds, aborted = executed[skel], table[2][skel]

        codes = np.empty((len(skel), len(VARIABLES)), dtype=np.int64)
        columns = dict(zip(VARIABLES, codes.T))
        for name, col in zip(names, table):
            columns[name][:] = col[skel]
        for name, col in zip(_FREE, lay.split(a & _mask(B))):
            columns[name][:] = col
        tag = 2 * rounds + aborted
        for i, name in enumerate(("x1", "x2")):
            columns[name][:] = (rounds << n * K) | _expand(affine[:, i], skel, a)
        columns["msgs1"][:] = (tag << 2 * lay.p1 * K) | _expand(affine[:, 2], skel, a)
        columns["msgs2"][:] = (tag << 2 * lay.p2 * K) | _expand(affine[:, 3], skel, a)
        columns["unsel"][:] = _expand(affine[:, 4], skel, a)

        # Row probability: 2^(-2n) per executed round, 1 / combos for the
        # partitions, 1 / (L1 L2) for the selection, 2^-B for the file and
        # mask bits.
        scale = lay.L1 * lay.L2 * 2**B
        pairs = list(zip(executed.tolist(), combos.tolist()))
        lcm = math.lcm(*(c for _k, c in pairs))
        denominator = 2 ** (2 * n * K) * lcm * scale
        weights = _numerators([2 ** (2 * n * (K - k)) * lcm // c for k, c in pairs], denominator)

        decoders = {name: list(ids).__getitem__ for name, ids in interned.items()}
        decoders.update(
            z1=int, z2=int, abort=bool, x1=self._inputs, x2=self._inputs,
            msgs1=functools.partial(self._messages, width=lay.p1),
            msgs2=functools.partial(self._messages, width=lay.p2),
            unsel=self._unselected,
            ok=(False, True, None).__getitem__,
        )
        for name, (count, width) in zip(_FREE, lay.fields):
            decoders[name] = functools.partial(_bitstrings, count=count, width=width)
        if single:
            for name in ("x1", "x2", "y", "sets", "msgs1", "msgs2", "leak"):
                decoders[name] = lambda c, d=decoders[name]: d(c)[0]
            decoders["unsel"] = lambda c, d=decoders["unsel"]: tuple(u[0] for u in d(c))
            decoders["u0"] = lambda c, d=decoders["u0"]: (d(c) or (None,))[0]
        return JointDistribution.from_codes(
            VARIABLES, codes, weights[skel], [decoders[v] for v in VARIABLES], denominator=denominator
        )

    def _inputs(self, code: int) -> tuple:
        """One server's channel input per executed round."""
        bits = self.layout.n * self.layout.K
        return _bitstrings(code & _mask(bits), code >> bits, self.layout.n)

    def _messages(self, code: int, width: int) -> tuple:
        """Per executed round (m1, m2), or None for the round that aborted."""
        bits = 2 * width * self.layout.K
        executed, aborted = divmod(code >> bits, 2)
        sent = _bitstrings(code & _mask(bits), 2 * (executed - aborted), width)
        return tuple(zip(sent[::2], sent[1::2])) + ((None,) if aborted else ())

    def _unselected(self, code: int) -> tuple:
        lay = self.layout
        unsel1, unsel2 = _unpack(code, [(lay.L1 - 1) * lay.len1, (lay.L2 - 1) * lay.len2])
        return _bitstrings(unsel1, lay.L1 - 1, lay.len1), _bitstrings(unsel2, lay.L2 - 1, lay.len2)


def _columns(values) -> tuple[int, ...]:
    """Offset and per-free-bit columns of the affine ``values`` packed
    together; a lone zero offset for no values (missing columns are zero)."""
    return AffineBits.join(values)._cols if values else (0,)


def _expand(affine: np.ndarray, skel: np.ndarray, a: np.ndarray) -> np.ndarray:
    """An affine output at every row: the offset of its skeleton XOR the
    columns of the set bits of its assignment ``a``."""
    value = affine[skel, 0]
    for j in np.flatnonzero(affine[:, 1:].any(axis=0)).tolist():
        value ^= np.where(a >> j & 1, affine[skel, j + 1], 0)
    return value


def _fixed(pairs, channel, u: int) -> list:
    """The channel-input ``pairs`` with the ``channel`` bits set to the bits of ``u``."""
    flips = [0] * len(pairs)
    for j, (r, col) in enumerate(channel):
        flips[r] ^= col * (u >> j & 1)
    return [(v1 ^ f, v2 ^ f) for (v1, v2), f in zip(pairs, flips)]


SERVER1_VIEW = ("files1", "masks1", "x1", "sets", "msgs1", "leak")
SERVER2_VIEW = ("files2", "masks2", "x2", "sets", "msgs2", "leak")
CLIENT_VIEW = ("z1", "z2", "y", "u0", "sets", "msgs1", "msgs2", "leak")


def audit(
    params: ProtocolParams,
    *,
    abort_disabled: bool = False,
    condition_nonabort: bool = False,
    mutation: Optional[str] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> LeakageReport:
    """Compute all six audited quantities on the exact distribution."""
    start = time.perf_counter()
    required = required_states(params, abort_disabled)
    stats: dict = {}
    dist = enumerate_protocol(
        params, abort_disabled=abort_disabled, mutation=mutation, state_budget=state_budget, stats=stats
    )
    enumerated = time.perf_counter()

    nonabort_mass = dist.probability("abort", False)
    fail_mass = dist.probability("ok", False)
    reliability_error = float(fail_mass / nonabort_mass) if nonabort_mass > 0 else 0.0

    work = dist
    if condition_nonabort:
        if nonabort_mass == 0:
            raise ConfigurationError("every session aborts: no non-abort event to condition on")
        work = work.condition("abort", False)
        conditioning = "non-abort"
    else:
        conditioning = "unconditioned"

    leakages = dict(
        client_privacy_s1=work.mutual_information(SERVER1_VIEW, ("z1", "z2")),
        client_privacy_s2=work.mutual_information(SERVER2_VIEW, ("z1", "z2")),
        server2_vs_server1=work.mutual_information(SERVER1_VIEW, ("files2",)),
        server1_vs_server2=work.mutual_information(SERVER2_VIEW, ("files1",)),
        servers_vs_client=work.mutual_information(CLIENT_VIEW, ("unsel",)),
    )
    end = time.perf_counter()
    return LeakageReport(
        params, conditioning, **leakages, reliability_error=reliability_error, state_count=len(dist),
        required_states=required, budget=state_budget, wall_time_s=end - start, mutation=mutation,
        enumeration_s=enumerated - start, information_s=end - enumerated,
        replays=stats.get("replays", 0),
    )
