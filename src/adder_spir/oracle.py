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
the channel inputs, the messages, the unselected files and the recovered
files XOR the requested ones as an offset plus one column per free bit;
numpy expands the 2^(B+U) assignments by XOR, and a row recovered its
files when that XOR is zero.  Every other value (y, sets, leak, abort)
must come out concrete: a session step that reads a free bit as a value,
or combines such bits other than by XOR, raises ``TypeError``.  So each
skeleton is replayed at most once, and the skeletons are counted before
any replay, from the counts of the kept openings that go on and that
abort.  Two files per server is the L1 = L2 = 2 case of the
multi-file reduction, replayed the same way; only its decoded per-round
values are unwrapped from their one-round tuples.  The channel phase of a
round does not depend on the selection, so it runs once per kept opening:
:func:`~adder_spir.protocol.open_round` on the opening's own concrete
channel-input pair, which decides both aborts from y's counts before any
partition is drawn, and whose partition holds the client's inputs decoded
at its decodable shares, which every answer to the opening XORs with its
message.  The sequences are replayed as a tree of rounds.
Every symbolic value carries all B + n K free-bit columns, each round's
channel bits after those of the rounds before it, so there is one plan per
selection.  The files and masks do not depend on the selection either:
they are chained once per enumeration, and every selection's plan is laid
out on those chains (:func:`~adder_spir.multifile.chain_multifile`).  A
round's symbolic opening keeps its kept opening's y, abort verdict and
partition, with the symbolic channel inputs; it depends only on the round
index, the column of its first channel bit and the kept opening, and is
built once under that key for every sequence that reaches it.  Each plan
answers each opening once, so sequences that share their leading rounds
answer them once per selection; the inputs remember their subselections,
so each opening's published-set pads are computed once.  The oracle reads
each answer's public entry and message words once, and joins the rounds
before each sequence's last once per plan, however many replays share
them, so a replay appends only its last round to them.  The client
decides to abort from y alone, before any message that depends on the
selection, so a round that aborted publishes its y and its verdict and
nothing else, whatever the selection, and every plan shares its answer.
So a sequence that aborted is replayed only for the plans that have not
yet run the rounds before its last; for every other selection, its
skeleton is the plan's run of those rounds followed by the opening's y
and verdict.  Every skeleton that went on is replayed.

Every skeleton is built before any row is expanded, and keeps the
offset and columns of its affine outputs, 6 (1 + B + U) words, and its row
of the skeleton table.  The rows are then streamed: runs of skeletons are
expanded one at a time, each run ending once it expands ``_CHUNK_ROWS``
rows.  One function expands them, over every channel bit of a skeleton and
the file and mask bits it is given, and weights each row by 2 to the file
and mask bits left out, the rows it stands for: :func:`enumerate_protocol`
gives it every bit, and :func:`audit` the bits its tallied pairs read.  A
skeleton is never split, so a chunk can be as large as the largest
skeleton's expanded rows, up to 2^(B + U) (the audit reports its largest
chunk).  A chunk's skeletons are laid out most rows first and the affine
outputs asked for are expanded at once, by doubling over the bits.
:func:`enumerate_protocol` concatenates the chunks into one table.
:func:`audit` never holds more than a chunk of rows, and adds each chunk's
integer masses into one tally of distinct (view, secret) keys per tallied
pair, so its memory follows the distinct pairs, not the rows.  Conditioned
on non-abort it expands only the rows of the skeletons that did not abort;
the state budget, ``state_count`` and the non-abort mass still count every
row, over all its free bits, from the skeleton table.

Before any row is expanded, :func:`audit` reads every scalar it can from
the replayed skeletons (:func:`_settle`).  In skeleton s the free bits u
are uniform, and an affine output is C_s u + c_s, whose zeros number
2^(F - rank C_s) of its 2^F rows when c_s lies in the span of C_s's
columns, and none otherwise.  So each skeleton's mass and the non-abort
mass come from the skeleton table, and the failure mass from the ranks of
``miss``, the recovered files XOR the requested ones.  For uniform u,
I(M u; N u) = rank M + rank N - rank [M; N].  The client's view fixes its
skeleton and reads the free bits through its messages, M_s u + m_s, and
the unselected files are N_s u + n_s; when N_s has full rank on every
skeleton the audit counts (every one that did not abort, when
conditioned), the files are uniform whatever s, and ``servers_vs_client``
is sum_s p(s) (rank M_s + rank N_s - rank [M_s; N_s]), an exact integer
ratio rounded once.  A server's view holds its own files and masks, and reads the
free bits otherwise only through its channel inputs and messages; when
those read none of the other server's file bits, that server's files are
independent of the view and the pair prints exactly 0.0, as its tally
would.  Each rank is taken once per distinct pattern of the columns it
reads: rank M_s per pattern of the messages, rank N_s per pattern of the
unselected files (one per selection), rank [M_s; N_s] per pattern of
both, and miss's per pattern of miss.  A pair settled neither way is
tallied with the two selection pairs, whose secret is a skeleton
constant; the rows are expanded only for the outputs the tallied pairs
read.  Every pair's key width, over the full views, counts against
``_MAX_CODE_BITS`` before any replay, so no audit moves between accepted
and refused.

A selection pair is tallied without its server's own messages, files and
masks where one GF(2) solve certifies the server's messages as an affine
map of the rest of its canonical view (:func:`_own_parts`).  The argument,
for server 1 (server 2's is the same): its canonical view (below) is
(F, M, V, D), its files and masks F, its messages M, V its round verdicts
and the leak, and D its channel-input digits, which hold X_c, its inputs
at the published positions in set and rank order; the secret is
Z = (z1, z2).  (1) Where, for each value of V, one A_V and b_V give
M = A_V [F; X_c] + b_V as affine functions of the free bits, offset
included, on every skeleton the tally counts with that V, M = g(F, V, D)
for one function g on the views that occur.  Mapping (F, M, V, D) to
(F, V, D) is then injective on them, and I(view; Z) does not change under
an injective relabelling of the view (Cover and Thomas, Elements of
Information Theory, 2.9).  g may read only what the key keeps, so the
skeletons are grouped by V and not by their raw sets: the audit keeps one
representative per share class, whose y lays decodable shares out first,
so a message bit equal to [y_p = 2] at set a's first position p is x1_p
under one order of the sets and 0 under the other.  One map per raw sets
value would pass it, yet the bit tells server 1 whether p is hidden, and
no one map of its key computes it (unless the leak names the selection,
and with it which set is decodable).  Such an A_V and b_V exist exactly
when the columns (d; t) of every free bit and of the offset, over the
group's skeletons, d the column's coefficients in (F, X_c, 1) and t its
coefficients in M, have the GF(2) rank of their d parts alone.  Nothing in
this knows the message format, and it passes under every mutation the
tests run.  (2) The server's channel inputs, and so D, read only channel
bits (asserted too), V and Z are skeleton constants, and F is free bits,
uniform and independent of the skeleton and of the channel bits.  So F
is independent of (V, D, Z), and
I((F, V, D); Z) = I((V, D); Z) (ibid.).  Merging the 2^a values of F
multiplies each remaining mass by 2^a, and every term of the
mutual-information sum, the L1 distance of its floor and the integer test
for an exact zero scale by that power of two, which is exact: the printed
float does not change.  So the reduced pair is keyed by the round
verdicts, the leak and the server's canonical channel-input digits alone;
its rows need only the channel bits, each standing for 2^B rows.  Where
the solve fails (a message that reads the other server's input, or
[y_p = 2]), that server keeps its full view, and its file and mask bits
are expanded too.

A tally's total holds its distinct keys in ascending order, each its view
above its secret, so the views are runs of adjacent keys.  Each leakage is
:meth:`JointDistribution.mutual_information` on the two columns (view,
secret) of one tally: an ascending column is grouped by its runs without a
sort, and since the keys are distinct each one's mass is its (view,
secret) pair's mass.  Only the secrets are sorted.

:func:`audit` enumerates one skeleton per class of executions.  A
permutation of a round's positions that keeps the order inside each share
of its partition, and is arbitrary elsewhere, keeps the channel inputs
uniform, maps the client's partitions onto equally likely ones (their
number depends only on y's counts) and fixes every secret (the selection,
the files, the unselected files).  A message bit pairs the r-th position
of its set with file bit r, so such a permutation also keeps every
message, and maps each view onto a view of equal probability; acting on
each executed round separately, these permutations relate executions by
an equivalence.  Then I(V; S) = I(canon(V); S) for any canon that maps
exactly the views of one class together; the same holds for the integer
factoring test behind exact zeros.  A class of a round's (y, partition)
choices is fixed by the sums of each decodable share in rank order and by
the counts of 0-, 2- and hidden positions outside every share; it stands
for n! / (ell1!^2 ell2!^2 i0! i2! i1!) choices, where i0, i2 and i1 are
those counts.  So the audit opens one channel-input pair per class, whose
y lays out the shares and then the other positions, and on which the
deterministic lowest-index partition draws those shares, and weights each
row by the number of rows its class stands for; a count triple whose
rounds abort keeps one pair.  With ell1, ell2 <= 1 the order inside a
share is vacuous, and the classes are the orbits of S_n on each round.
Each skeleton is its class's representative.  The client sees every
round's y, partition and published sets, so two of its views share a
class only when they come from one skeleton, and the permutation between
them keeps the order inside every share and so every message: its view is
keyed by its skeleton and its messages, as under the trivial group.

Only a server's view needs a canonical form, and it takes one form under
both groups and every ell.  A permutation of a round's positions that
keeps the order inside each published set, and is arbitrary elsewhere,
keeps a server's files, masks, messages and leak, fixes every secret and
maps each execution onto an equally likely one, so merging the views it
relates changes no leakage either.  Each position of a published set is
named by its set and its rank inside it, and every other position carries
message bit 0 and only the server's input bit, so the form keeps the
view's files, masks, messages and leak, each round's verdict in place of
its sets, and per round the server's input bits at the published sets'
positions and its count of ones at the other positions.
:func:`enumerate_protocol` uses the trivial group, which keeps every
canonical pair with each partition the client could draw, and every audit
keeps one opening per share class.  ``state_count``
and ``required_states`` count the full table; the state budget counts the
rows actually enumerated.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .bits import AffineBits, BitString
from .channel import classify_indices, transmit  # noqa: F401  (bound for tracing tools)
from .infotheory import JointDistribution, _numerators
from .model import ConfigurationError, FileStore, ProtocolParams, Selection
from .multifile import chain_multifile, execute_multifile, plan_selection
# The oracle looks its protocol entry points up in this namespace at call
# time, so tracing tools can wrap them here; execute_session, reached through
# execute_multifile, stays bound with them.
from .protocol import (  # noqa: F401
    RoundOpening, Transcript, abort_check, check_mutation, execute_session, open_round, partition, partition_choices,
    shares_fit)

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
SERVER1_VIEW = ("files1", "masks1", "x1", "sets", "msgs1", "leak")
SERVER2_VIEW = ("files2", "masks2", "x2", "sets", "msgs2", "leak")
CLIENT_VIEW = ("z1", "z2", "y", "u0", "sets", "msgs1", "msgs2", "leak")
# The audited (view, secret) pairs by report field.
_PAIRS = {
    "client_privacy_s1": (SERVER1_VIEW, ("z1", "z2")),
    "client_privacy_s2": (SERVER2_VIEW, ("z1", "z2")),
    "server2_vs_server1": (SERVER1_VIEW, ("files2",)),
    "server1_vs_server2": (SERVER2_VIEW, ("files1",)),
    "servers_vs_client": (CLIENT_VIEW, ("unsel",)),
}
# A selection pair's view without its server's own messages, files and
# masks, keyed in its place where the server's messages are certified as an
# affine map of the rest of its canonical view (:func:`_own_parts`).
_REDUCED = {"client_privacy_s1": ("x1", "sets", "leak"), "client_privacy_s2": ("x2", "sets", "leak")}
# How a tallied pair's view was keyed, reduced or whole.
_DROPPED, _FULL = "own messages, files and masks dropped", "full view"
# Skeleton constants coded by interned ids.
_INTERNED = ("y", "sets", "leak", "u0")
# Per-skeleton columns of a chunk.
_SKELETON = ("z1", "z2", "abort", *_INTERNED, "free", "executed", "combos")
# Free file and mask bits of an assignment, packed in this order from the
# most significant end; the channel bits sit above them.
_FREE = ("files1", "files2", "masks1", "masks2")
# Affine outputs, expanded per row; a chunk holds x and the messages
# without the round tags of their codes, and ``miss``, the recovered files
# XOR the requested ones, from which :meth:`_Enumeration.codes` derives ``ok``.
_AFFINE = ("x1", "x2", "msgs1", "msgs2", "unsel", "miss")
# Packed codes (free bits plus a round-pattern tag) and audit keys must fit
# an int64.
_MAX_CODE_BITS = 62
# Expanded rows at which a run of skeletons is expanded as one chunk.  No
# skeleton is split, so a chunk holds up to this many rows less one, plus
# its last skeleton's (up to 2^(B + U)), and ``LeakageReport.largest_chunk_rows``
# reports the largest.  A chunk's columns and row weights take about 100
# bytes a row: 1.6 MB at 2^14 rows, 52 MB for a 524,288-row skeleton.
_CHUNK_ROWS = 2**14
# Least seconds between two progress lines of an audit.
_PROGRESS_S = 1.0
# Bits of a certificate column (:func:`_own_parts`): an int64 without its sign.
_COLUMN_BITS = 63


class _Ids(dict):
    """Dense ids of hashable values, each new value taking the next id when first looked up."""

    def __missing__(self, value) -> int:
        self[value] = new = len(self)
        return new


class StateBudgetExceeded(Exception):
    def __init__(self, required: int, budget: int, enumerated: int):
        super().__init__(f"enumeration needs {enumerated} rows standing for {required}, budget is {budget}")
        self.required = required
        self.enumerated = enumerated
        self.budget = budget


@dataclass(frozen=True)
class LeakageReport:
    """All six audited quantities for one instance, in bits.

    ``state_count`` is the rows of the full table the enumerated rows stand
    for.  ``enumeration_s`` and ``information_s`` split ``wall_time_s``
    into the enumeration and the ranks, tallies and mutual-information
    passes; they, ``skeletons`` (the skeletons it enumerated, one per
    sequence and selection), ``replays`` (the protocol replays behind them,
    :func:`~adder_spir.multifile.execute_multifile` runs: one per skeleton
    that went on, and one per skeleton that aborted only where its plan had
    not yet run the rounds before its last), ``chunks`` (the runs of rows it
    was streamed in),
    ``largest_chunk_rows`` (the most rows one chunk expanded),
    ``view_pairs`` (the distinct (view, secret) pairs of the largest
    tallied pair), ``tallied`` (each pair tallied over the expanded rows,
    by name with its distinct (view, secret) pairs of the view it was keyed
    by, in ``_PAIRS`` order; every other pair was settled from ranks),
    ``keyed`` (each tallied pair by name with how its view was keyed: its
    server's own messages, files and masks dropped, or its full view and,
    for a selection pair, why its server's messages were not certified as
    an affine map of the rest of its canonical view),
    ``orbit_sequences`` (the channel-input sequences it enumerated),
    ``enumerated_rows`` (every row over all its free bits),
    ``expanded_rows`` (the rows it expanded: each skeleton's channel bits
    and the file and mask bits the tallied pairs read, each row standing
    for the bits left out; under non-abort conditioning only those of
    skeletons that did not abort), ``answered_rounds`` (the distinct rounds
    the replays answered: each opening once per round index and branch
    choices, which the selections' plans share, and each that aborted once
    per round index) and ``key_bits`` (the bits
    of the widest audited pair's keys, over the full views) stay out of the
    record.
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
    skeletons: int = 0
    replays: int = 0
    chunks: int = 0
    view_pairs: int = 0
    orbit_sequences: int = 0
    enumerated_rows: int = 0
    expanded_rows: int = 0
    answered_rounds: int = 0
    key_bits: int = 0
    largest_chunk_rows: int = 0
    tallied: tuple = ()
    keyed: tuple = ()

    @property
    def mode(self) -> str:
        """The record's shape label, derived from (L1, L2)."""
        return "two_file" if (self.params.L1, self.params.L2) == (2, 2) else "multifile"

    @property
    def leakages(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _PAIRS}

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


def _public_of(t: Transcript, shares: Optional[dict] = None) -> tuple:
    """(sets, msgs1, msgs2, leak) components of one session's public record,
    its sets as :func:`_tuples` with ``shares``."""
    if t.aborted:
        return (True, t.abort_reason, None), None, None, t.leaked_selection
    s = t.selection_sets
    sets = (False, None, _tuples((s.s1_for_server1, s.s2_for_server1, s.s1_for_server2, s.s2_for_server2), shares))
    return sets, (t.m11, t.m12), (t.m21, t.m22), t.leaked_selection


def _tuples(index_sets, shares: Optional[dict] = None) -> tuple:
    """Index-set arrays as hashable tuples of ints.  ``shares`` maps the id
    of an array already converted to that array and its tuple; an array
    found there by identity takes its tuple, and any other is converted."""
    shares = shares or {}
    return tuple([seen[1] if (seen := shares.get(id(a))) and seen[0] is a else tuple(a.tolist()) for a in index_sets])


def _part_key(part, shares: Optional[dict] = None) -> tuple:
    """The shares g1, g2, b1, b2 of ``part`` as tuples, each kept in
    ``shares`` under its array's id when given (:func:`_tuples`)."""
    arrays = part.g1, part.g2, part.b1, part.b2
    key = _tuples(arrays)
    if shares is not None:
        shares.update(zip(map(id, arrays), zip(arrays, key)))
    return key


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
        # Bits of each row-varying code of a chunk.
        self.widths = dict(zip(_FREE, (c * w for c, w in self.fields)))
        self.widths.update(
            x1=self.n * self.K, x2=self.n * self.K, msgs1=2 * self.p1 * self.K, msgs2=2 * self.p2 * self.K,
            unsel=(self.L1 - 1) * self.len1 + (self.L2 - 1) * self.len2,
        )

    def split(self, a) -> list:
        """Codes of the ``_FREE`` fields of packed assignments ``a``."""
        return _unpack(a, [c * w for c, w in self.fields])

    def field_bits(self, name: str) -> int:
        """The free bits of the ``_FREE`` field ``name``, free bit j as bit j."""
        return _mask(self.widths[name]) << sum(self.widths[f] for f in _FREE[_FREE.index(name) + 1 :])

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
            continuing += pairs * _choices(g, n - g, a, b)
    return _rows(_Layout(params), continuing, aborting)


def _choices(g: int, h: int, ell1: int, ell2: int) -> int:
    """The partitions the client can draw from g decodable and h hidden positions."""
    return math.comb(g, ell1) * math.comb(g - ell1, ell2) * math.comb(h, ell1) * math.comb(h - ell1, ell2)


def _multinomial(*counts: int) -> int:
    """The ways to lay out ``counts[i]`` positions of kind i in one row."""
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


def _sequences(K: int, continuing: int, aborting: int) -> int:
    """The sequences of up to K rounds, where ``continuing`` and ``aborting``
    weigh one round's choices that go on and that abort."""
    return sum(continuing**k * aborting for k in range(K)) + continuing**K


def _rows(layout: "_Layout", continuing: int, aborting: int) -> int:
    """Rows of the sequences of up to K rounds, weighed as :func:`_sequences`."""
    return _sequences(layout.K, continuing, aborting) * layout.L1 * layout.L2 * 2**layout.free_bits


def _enumeration(params: ProtocolParams, abort_disabled: bool, mutation: Optional[str], state_budget: int,
                 classes: bool = False):
    """The enumeration of one instance (by share classes with ``classes``)
    and the rows of the full table, with the rows it enumerates checked
    against ``state_budget`` before anything is replayed."""
    check_mutation(mutation)
    required = required_states(params, abort_disabled)
    enumeration = _Enumeration(params, abort_disabled, mutation, classes)
    if enumeration.rows > state_budget:
        raise StateBudgetExceeded(required, state_budget, enumeration.rows)
    return enumeration, required


def enumerate_protocol(
    params: ProtocolParams,
    *,
    abort_disabled: bool = False,
    mutation: Optional[str] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> JointDistribution:
    """Exact joint distribution of one protocol instance.

    Variables: selection pair, file tuples, mask tuples, per-server channel
    inputs, observed sums, the entire public communication, the abort flag,
    the recovery flag, and the tuple of unselected files.  Per-round values
    are tuples over the executed rounds, except with two files per server
    (L1 = L2 = 2, one round), where they are unwrapped.
    """
    enumeration, _required = _enumeration(params, abort_disabled, mutation, state_budget)
    return enumeration.distribution(single=(params.L1, params.L2) == (2, 2))


class _Chunk(NamedTuple):
    """A run of skeletons expanded to one row per assignment of their
    channel bits and of the file and mask bits asked for, or of those bits
    of its skeletons that did not abort."""

    table: np.ndarray  # one row of ``_SKELETON`` values per skeleton
    weights: np.ndarray  # the numerator of each expanded row of each skeleton
    skel: np.ndarray  # the skeleton of each expanded row
    columns: dict  # per expanded row, the codes of ``_FREE`` and of the expanded outputs
    rows: int  # the rows of every skeleton over all its free bits, expanded or not
    states: int  # the rows of the full table these rows stand for


class _Replayed(NamedTuple):
    """Every skeleton of an enumeration, in order (:meth:`_Enumeration.skeletons`)."""

    skeletons: list  # per skeleton, what :meth:`_Enumeration.skeletons` yields but its outputs
    affine: np.ndarray  # per skeleton and ``_AFFINE`` output, its offset and all B + n K columns
    table: np.ndarray  # one row of ``_SKELETON`` values per skeleton, its constants by interned id


class _Enumeration:
    """Skeleton replays of one instance, one per share class with
    ``classes``, else one per canonical pair and partition (the trivial
    group), and their numpy expansion."""

    def __init__(self, params: ProtocolParams, abort_disabled: bool, mutation: Optional[str], classes: bool = False):
        self.params, self.abort_disabled, self.mutation, self.classes = params, abort_disabled, mutation, classes
        self.layout = lay = _Layout(params)
        B, U = lay.free_bits, lay.n * lay.K
        if B + U + (2 * lay.K + 1).bit_length() > _MAX_CODE_BITS:
            raise ConfigurationError(f"{B} file and mask bits and {U} channel bits are too many to enumerate")
        self.symbols = lay.symbols(U)
        # Per selection: its plan, the requested files joined and the public
        # values of the runs of rounds it answered (:meth:`_run`).
        self.plans: dict = {}
        self.answered: dict[int, tuple] = {}  # per answered transcript, the run of its round alone (:meth:`_round`)
        self.opened: dict = {}  # one symbolic RoundOpening per (round, channel offset, kept opening)
        self.partitions: dict[int, tuple] = {}  # per kept opening that goes on, its partition's key
        self.shares: dict[int, tuple] = {}  # per share array of those partitions, by id: the array and its tuple
        self.interned: dict[str, _Ids] = {name: _Ids() for name in _INTERNED}
        self.zeros = bytes(8 * (B + U + 1))  # the offset and columns of no affine value, as words
        self.empty = ((), (), (), None, None, self.zeros, self.zeros)  # the run of no rounds, every plan's (:meth:`_run`)
        self.weighed: tuple = (None, [])  # the skeletons last weighed and their weights (:meth:`weights`)
        self.replays = self.sequence_count = 0

    @functools.cached_property
    def verdicts(self) -> list:
        """Each round opening the enumeration keeps: (its channel-input pair
        as ints, its opening with one partition, or None on abort, the
        number of (canonical pair, partition) choices it stands for, and the
        number of partitions its pair could draw, 1 on abort).

        A canonical pair has x1 = 0 and x2 = 1 at every hidden position; it
        stands for every pair with the same sums.  The trivial group keeps
        every canonical pair with each partition the client could draw.
        With ``classes`` one opening stands for each class: its pair's y
        lays out the sums of g1 and g2 in rank order, the hidden b1 and b2,
        then its idle 0-, 2- and hidden positions, and :func:`partition`
        (lowest-index shares) draws exactly those shares.  A count triple
        that aborts keeps the opening of its first class alone, for every
        pair with its counts.
        """
        n = self.layout.n
        kept = []
        if not self.classes:
            for v1, v2 in ((v1, v2) for v1 in range(2**n) for v2 in range(2**n) if not v1 & ~v2):
                pair, verdict = self._open(v1, v2, partition_choices)
                parts = verdict.partition or [None]
                kept.extend((pair, verdict._replace(partition=part), 1, len(parts)) for part in parts)
            return kept
        for twos in range(n + 1):
            for hidden in range(n + 1 - twos):
                zeros = n - twos - hidden
                # Without a class no partition fits, and any y of the counts
                # aborts; this one's y is its 0s, its 2s, then its 1s.
                for x1, x2, size in list(self._classes(zeros, twos, hidden)) or [(_mask(twos) << hidden, _mask(twos + hidden), 0)]:
                    pair, verdict = self._open(x1, x2, partition)
                    if verdict.partition is None:
                        kept.append((pair, verdict, _multinomial(zeros, twos, hidden), 1))
                        break
                    kept.append((pair, verdict, size, _choices(zeros + twos, hidden, self.params.ell1, self.params.ell2)))
        return kept

    def _classes(self, zeros: int, twos: int, hidden: int):
        """The classes of (y, partition) choices whose y has these counts:
        each one's representative channel-input pair, as ints whose highest
        bit is position 1, and the number of choices it stands for.  A class
        fixes the sums of each decodable share in rank order and the counts
        of the 0-, 2- and hidden positions outside every share (its idle
        positions), so it stands for n! / (ell1!^2 ell2!^2 i0! i2! i1!)
        choices.  Its y holds the shares' sums, then s = ell1 + ell2 1s (b1
        and b2), i0 0s, i2 2s and i1 1s; x1 is 1 at the 2s, x2 at the 1s
        and 2s."""
        a, b = self.params.ell1, self.params.ell2
        n, s = self.layout.n, a + b
        for sums in range(1 << s):  # the shares' sums, a 1 bit for each 2, first position highest
            i0, i2, i1 = zeros - s + sums.bit_count(), twos - sums.bit_count(), hidden - s
            if min(i0, i2, i1) >= 0:
                x1 = (sums << n - s) | (_mask(i2) << i1)
                yield x1, x1 | (_mask(s) << n - 2 * s) | _mask(i1), _multinomial(a, b, a, b, i0, i2, i1)

    def _open(self, v1: int, v2: int, partitioner) -> tuple:
        """The concrete channel-input pair (v1, v2) and its :func:`open_round`."""
        x1, x2 = (BitString.from_int(v, self.layout.n) for v in (v1, v2))
        verdict = open_round(self.params, x1, x2, partitioner, abort_disabled=self.abort_disabled)
        # Every symbolic opening of the pair shares this y.
        verdict.y.flags.writeable = False
        return (v1, v2), verdict

    def sequences(self):
        """Sequences of the kept openings, truncated at the first aborting
        round.  Yields (kept opening per executed round, number of
        partition combinations, number of canonical (pair, partition)
        sequences it stands for).
        """
        prefixes = [((), 1, 1)]
        for _round in range(self.layout.K):
            grown = []
            for rounds, combos, size in prefixes:
                for kept in self.verdicts:
                    _pair, verdict, stands, choices = kept
                    if verdict.partition is None:
                        yield rounds + (kept,), combos, size * stands
                    else:
                        grown.append((rounds + (kept,), combos * choices, size * stands))
            prefixes = grown
        yield from prefixes

    @functools.cached_property
    def rows(self) -> int:
        """The rows the enumeration expands, counted before any replay: the
        full table's under the trivial group, which needs no pair opened."""
        if not self.classes:
            return required_states(self.params, self.abort_disabled)
        rows = {False: 0, True: 0}  # by whether the opening aborts
        for (v1, v2), verdict, _size, _choices in self.verdicts:
            rows[verdict.partition is None] += 1 << bin(v1 ^ v2).count("1")  # one per value of the channel bits
        return _rows(self.layout, rows[False], rows[True])

    @functools.cached_property
    def lcm(self) -> int:
        """Least common multiple of the partition combinations of every
        sequence, before any replay.  A sequence's combinations are the
        product of its live rounds' partition counts, and some sequence
        goes on K times, so it is the lcm of the counts of the kept openings
        that go on, to the K-th power (1 when none goes on)."""
        return math.lcm(*(c for _pair, verdict, _size, c in self.verdicts if verdict.partition is not None)) ** self.layout.K

    @property
    def skeleton_count(self) -> int:
        """The skeletons, one per (sequence, selection), counted before any replay."""
        live = sum(verdict.partition is not None for _pair, verdict, *_counts in self.verdicts)
        return _sequences(self.layout.K, live, len(self.verdicts) - live) * self.layout.L1 * self.layout.L2

    @property
    def denominator(self) -> int:
        """The common denominator of every row probability: 2^(-2n) per
        executed round, 1 / combos for the partitions, 1 / (L1 L2) for the
        selection and 2^-B for the file and mask bits."""
        lay = self.layout
        return 2 ** (2 * lay.n * lay.K) * self.lcm * lay.L1 * lay.L2 * 2**lay.free_bits

    @functools.cached_property
    def chains(self):
        """The symbolic files chained through the symbolic masks, once for
        every selection's plan (:func:`~adder_spir.multifile.chain_multifile`)."""
        return chain_multifile(self.params, *self.symbols)

    def skeletons(self):
        """Replay every skeleton at most once.  Yields per sequence, for each
        selection in turn, the row of its skeleton in the skeleton table,
        ((z1, z2, aborted), the values of ``_INTERNED``, (free channel bits,
        executed rounds, partition combinations), the number of skeletons it
        stands for), and the offset and columns of each of its ``_AFFINE``
        outputs, as one list of words.

        A replay runs the protocol once on the symbolic files and masks and
        the :meth:`openings` of its sequence.  Each selection's plan is
        built once, on the chains every plan shares, and answers each
        opening once (:class:`~adder_spir.multifile.MultifilePlan`), so a
        replay runs the session only on the rounds no earlier replay
        reached.  Each answered round's public values and message words are
        read once, as the run of that round alone (:meth:`_round`), its sets
        from the tuples of its partition's shares, and the rounds before a
        sequence's last, which went on, are joined once per plan
        (:meth:`_run`), so a replay appends only its last round to them.  A
        sequence that aborted is replayed only for a plan that has not yet
        run the rounds before its last: the round that aborted publishes its
        opening's y and verdict whatever the plan, so the skeleton is the
        plan's run followed by them, built once per sequence and run (every
        plan shares the run of no rounds).  ``miss``, the recovered files
        XOR the requested ones, is zero on abort."""
        lay = self.layout
        f1, f2 = self.symbols[0].files, self.symbols[1].files
        selections = []
        for z1 in range(1, lay.L1 + 1):
            for z2 in range(1, lay.L2 + 1):
                sel = Selection(z1, z2)
                if sel not in self.plans:
                    plan = plan_selection(self.chains, sel, mutation=self.mutation)
                    self.plans[sel] = plan, AffineBits.join(plan.requested), {(): self.empty}
                unsel = self._columns(f1[: z1 - 1] + f1[z1:] + f2[: z2 - 1] + f2[z2:])
                selections.append((((z1, z2, 0), (z1, z2, 1)), unsel, *self.plans[sel]))
        zeros = self.zeros
        for rounds, combos, size in self.sequences():
            self.sequence_count += 1
            executed, aborted = len(rounds), rounds[-1][1].partition is None
            opened, (x1, x2), free = self.openings(rounds)
            values = self.part_keys(rounds[: executed - aborted])
            shape = (free, executed, combos)
            # The rounds before the last, which went on, by their openings: a
            # plan's transcripts of them are fixed by the openings.
            head, last = tuple(map(id, opened[:-1])), opened[-1]
            ended = {}  # per run of the rounds before a last round that aborted: its skeleton's values
            skeletons, words = [], []
            for direct, unsel, plan, requested, runs in selections:
                run = runs.get(head)
                # A sequence that aborted is replayed only for a plan that
                # has not yet run the rounds before its last.
                if run is None or not aborted:
                    self.replays += 1
                    mt = execute_multifile(plan, opened)
                    transcripts = mt.transcripts
                    if mt.aborted != aborted or len(transcripts) != executed:
                        raise RuntimeError("replay disagrees with the enumerated channel verdicts")
                    run = run or self._run(runs, head, transcripts[:-1])
                if aborted:
                    public = ended.get(id(run))
                    if public is None:
                        # The client aborts from y alone, before any message
                        # that depends on the selection: the round publishes
                        # its y and verdict, and leaks and sends nothing,
                        # whatever the plan.
                        public = ended[id(run)] = (run[0] + (last.y.tobytes(),), run[1] + ((True, last.abort_reason, None),),
                                                   run[2] + (None,), values)
                    words1, words2, miss = run[5], run[6], zeros
                else:
                    ys, sets, leaks, _msgs1, _msgs2, words1, words2 = self._extend(run, transcripts[-1])
                    public, miss = (ys, sets, leaks, values), (AffineBits.join(mt.recovered) ^ requested).words()
                skeletons.append((direct[aborted], public, shape, size))
                words += x1, x2, words1, words2, unsel, miss
            yield skeletons, words

    def _round(self, t: Transcript) -> tuple:
        """The run of one answered round that did not abort, alone
        (:meth:`_extend`), once per transcript (kept alive by its plan): its
        y, sets and leak, and each server's two messages joined, as
        :class:`AffineBits` and as words.  Its sets reuse the tuples of its
        partition's shares (:meth:`part_keys`)."""
        public, sent1, sent2, leak = _public_of(t, self.shares)
        sent1, sent2 = AffineBits.join(sent1), AffineBits.join(sent2)
        entry = self.answered[id(t)] = ((t.y.tobytes(),), (public,), (leak,), sent1, sent2, sent1.words(), sent2.words())
        return entry

    def _run(self, runs: dict, key: tuple, transcripts: tuple) -> tuple:
        """The run of answered rounds, none of which aborted, that
        ``transcripts`` hold, kept in ``runs`` (their plan's) under ``key``,
        the ids of their openings (:meth:`_extend`)."""
        run = runs.get(key)
        if run is None:
            run = runs[key] = self._extend(self._run(runs, key[:-1], transcripts[:-1]), transcripts[-1])
        return run

    def _extend(self, run: tuple, t: Transcript) -> tuple:
        """A run of answered rounds followed by the round of ``t``, which did
        not abort: per round its y, sets and leak, and each server's messages
        joined, as :class:`AffineBits` (None for no rounds) and as words.
        After no rounds it is the round's own run (:meth:`_round`)."""
        alone = self.answered.get(id(t)) or self._round(t)
        if run[3] is None:
            return alone
        sent1, sent2 = AffineBits.join((run[3], alone[3])), AffineBits.join((run[4], alone[4]))
        return run[0] + alone[0], run[1] + alone[1], run[2] + alone[2], sent1, sent2, sent1.words(), sent2.words()

    def openings(self, rounds) -> tuple:
        """The symbolic opening of each executed round: its kept opening
        with the channel-input pair XOR one free channel bit per hidden
        position, above the file and mask bits, as :class:`AffineBits`; the
        x1 and x2 columns; and the free channel bit count.  The channel bits
        sit at hidden positions of both inputs, so every assignment of them
        keeps the opening's y.

        A round's symbolic opening depends only on its index, the column of
        its first channel bit (the hidden positions of the rounds before it)
        and its kept opening, so every sequence that reaches it shares one
        object, which each plan answers once
        (:class:`~adder_spir.multifile.MultifilePlan`).  A sequence of one
        round takes its opening's own x1 and x2 columns."""
        lay = self.layout
        opened, offset = [], 0
        for r, ((v1, v2), verdict, _size, _choices) in enumerate(rounds):
            hidden = (v1 ^ v2).bit_count()
            # A round without channel bits has no column; ``verdicts`` keeps
            # the opening alive, so its id is not reused.
            key = (r, offset if hidden else -1, id(verdict))
            opening = self.opened.get(key)
            if opening is None:
                # Free bit j is word 1 + j; each hidden position's channel
                # bit, first position first, takes the next column.
                words, column = 0, 1 + lay.free_bits + offset
                for s in range(lay.n - 1, -1, -1):
                    if (v1 ^ v2) >> s & 1:
                        words, column = words | 1 << s << 64 * column, column + 1
                free = lay.free_bits + lay.n * lay.K
                opening = self.opened[key] = RoundOpening(AffineBits._of_words(v1 | words, free, lay.n),
                                                          AffineBits._of_words(v2 | words, free, lay.n), *verdict[2:])
            opened.append(opening)
            offset += hidden
        if len(opened) == 1:
            return opened, (opened[0].x1.words(), opened[0].x2.words()), offset
        return opened, (self._columns([o.x1 for o in opened]), self._columns([o.x2 for o in opened])), offset

    def part_keys(self, rounds) -> tuple:
        """The partition of each of ``rounds``, kept openings that go on, as
        hashable tuples; each share's tuple is kept by its array
        (:attr:`shares`), for the sets of every answer to the opening."""
        keys = self.partitions
        return tuple(keys.get(id(verdict)) or keys.setdefault(id(verdict), _part_key(verdict.partition, self.shares))
                     for _pair, verdict, *_counts in rounds)

    def _columns(self, values) -> bytes:
        """Offset and per-free-bit columns of the affine ``values`` packed
        together, as :meth:`AffineBits.words`; zeros for no values."""
        return AffineBits.join(values).words() if values else self.zeros

    def replay_all(self) -> "_Replayed":
        """Every skeleton (:meth:`skeletons`), the words of its affine outputs
        and its row of the skeleton table."""
        skeletons, words = [], []
        for rows, outputs in self.skeletons():
            skeletons += rows
            words += outputs
        affine = np.frombuffer(b"".join(words), dtype="<i8")
        direct, values, shapes, _sizes = zip(*skeletons)
        table = list(zip(*direct))
        for name, column in zip(_INTERNED, zip(*values)):
            table.append(tuple(map(self.interned[name].__getitem__, column)))
        table.extend(zip(*shapes))
        return _Replayed(skeletons, affine.reshape(len(skeletons), len(_AFFINE), -1), np.array(table, dtype=np.int64).T)

    def weights(self, skeletons: list) -> list[int]:
        """The numerator of each row of each of ``skeletons``, as
        :meth:`replay_all` lists them: its probability over
        :attr:`denominator` times the number of skeletons it stands for.
        The list last asked for is kept with its weights, so an audit
        works them out once for its ranks and its chunks."""
        if self.weighed[0] is not skeletons:
            n, K = self.layout.n, self.layout.K
            self.weighed = skeletons, [(self.lcm // c * size) << 2 * n * (K - k) for _d, _v, (_f, k, c), size in skeletons]
        return self.weighed[1]

    def chunks(self, replayed: Optional["_Replayed"] = None, live_only: bool = False, outputs: tuple = _AFFINE,
               bits: Optional[tuple] = None):
        """Every skeleton in order (the ``replayed`` ones, else each replayed
        now), expanded in runs that end once they expand ``_CHUNK_ROWS``
        rows; a skeleton is never split, so one of more rows is a chunk of
        its own.  With ``live_only``, the skeletons that abort are not
        expanded.  Only the ``_AFFINE`` ``outputs`` are expanded, over every
        channel bit and the file and mask ``bits`` (free bit j as j; every
        one unless given), as :meth:`chunk` does."""
        skeletons, affine, table = self.replay_all() if replayed is None else replayed
        bits = tuple(range(self.layout.free_bits)) if bits is None else bits
        # Each skeleton's rows over the bits expanded, from the skeleton table.
        counts = np.left_shift(1, len(bits) + table[:, _SKELETON.index("free")]) * _counted(table, live_only)
        first, rows = 0, 0
        for end, count in enumerate(counts.tolist(), 1):
            rows += count
            if rows >= _CHUNK_ROWS or end == len(skeletons):
                yield self.chunk(skeletons[first:end], table[first:end], affine[first:end],
                                 self.weights(skeletons)[first:end], bits, live_only, outputs)
                first, rows = end, 0

    def chunk(self, run: list, table: np.ndarray, affine: np.ndarray, weights: list, bits: tuple,
              live_only: bool = False, outputs: tuple = _AFFINE) -> _Chunk:
        """One row per assignment of the channel bits and of the file and
        mask ``bits`` (free bit j as j) of each skeleton of ``run`` (with
        ``live_only``, of each skeleton that did not abort): the file and
        mask bits below, the channel bits above.  ``table`` holds each
        skeleton's row of the skeleton table, ``weights`` its :meth:`weights`,
        and ``affine`` its ``_AFFINE`` outputs (offset and columns), of which only ``outputs`` are
        expanded; those must read no other file or mask bit, and a
        ``_FREE`` field reads its bits outside ``bits`` as 0.  The
        rows run skeleton by skeleton, those with the most rows first, each
        with its skeleton's :meth:`weights` times 2 to the file and mask
        bits left out, the rows each one stands for."""
        lay = self.layout
        B, E = lay.free_bits, len(bits)
        skeleton = dict(zip(_SKELETON, table.T))
        aborted, free = skeleton["abort"], skeleton["free"]

        expanded = np.left_shift(1, E + free)
        if live_only:
            expanded[aborted == 1] = 0
        # The expanded skeletons, most rows first, so that each one's rows
        # start at a multiple of its row count.
        order = np.argsort(-expanded, kind="stable")[: np.count_nonzero(expanded)]
        skel = np.repeat(order, expanded[order])
        picked = [_AFFINE.index(name) for name in outputs]
        # The offset, the columns of ``bits``, then every channel column.
        words = [0, *(1 + j for j in bits), *range(1 + B, affine.shape[2])]
        columns = dict(zip(outputs, _expand(affine[order[:, None], picked][:, :, words], expanded[order])))
        # Every row count is a multiple of 2^E, so a row's file and mask
        # bits are the low E bits of its index, bit e free bit bits[e]; a
        # run of consecutive free bits moves as one field.
        index, packed = np.arange(len(skel)), np.zeros(len(skel), dtype=np.int64)
        for _shift, ((e, j), *more) in itertools.groupby(enumerate(bits), lambda bit: bit[1] - bit[0]):
            packed |= (index >> e & _mask(1 + len(more))) << j
        columns.update(zip(_FREE, lay.split(packed)))
        # Each skeleton stands for its class size times its 2^(B + free) rows.
        states = sum(map(int.__lshift__, [size for _direct, _values, _shape, size in run], (B + free).tolist()))
        weights = [w << (B - E) for w in weights]
        rows = int(np.left_shift(1, B + free).sum())
        return _Chunk(table, _numerators(weights, self.denominator), skel, columns, rows, states)

    def codes(self, chunk: _Chunk) -> np.ndarray:
        """The rows of ``chunk``, one code per ``VARIABLES`` entry; ``ok`` is
        2 on abort, else whether the row's ``miss`` is zero."""
        lay = self.layout
        codes = np.empty((len(chunk.skel), len(VARIABLES)), dtype=np.int64)
        out = dict(zip(VARIABLES, codes.T))
        skeleton = {name: col[chunk.skel] for name, col in zip(_SKELETON, chunk.table.T)}
        for name in ("z1", "z2", "abort", *_INTERNED):
            out[name][:] = skeleton[name]
        for name in (*_FREE, "unsel"):
            out[name][:] = chunk.columns[name]
        out["ok"][:] = np.where(skeleton["abort"] == 1, 2, chunk.columns["miss"] == 0)
        rounds = skeleton["executed"]
        tag = 2 * rounds + skeleton["abort"]
        for name in ("x1", "x2"):
            out[name][:] = (rounds << lay.widths[name]) | chunk.columns[name]
        for name in ("msgs1", "msgs2"):
            out[name][:] = (tag << lay.widths[name]) | chunk.columns[name]
        return codes

    def distribution(self, single: bool) -> JointDistribution:
        """Every chunk's rows in one table."""
        lay = self.layout
        codes, weights = [], []
        for chunk in self.chunks():
            codes.append(self.codes(chunk))
            weights.append(chunk.weights[chunk.skel])

        decoders = {name: list(ids).__getitem__ for name, ids in self.interned.items()}
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
            VARIABLES, np.concatenate(codes), np.concatenate(weights), [decoders[v] for v in VARIABLES],
            denominator=self.denominator,
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


def _expand(affine: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each affine output (``affine`` holds, per skeleton and output, its
    offset and columns) at every row, one output per line: ``counts`` rows
    per skeleton, powers of two in descending order, the i-th row of a
    skeleton its offset XOR the columns of the set bits of i.

    The rows are built by doubling: a table of each skeleton's first 2^j
    rows gains its next 2^j rows, those rows XOR column j, for every
    skeleton with more rows, and puts the others aside."""
    sizes = counts.tolist()
    columns = affine.transpose(2, 1, 0)[:, :, :, None]  # (column, output, skeleton, row)
    table, built, k = columns[0], [], len(sizes)
    for j in range(sizes[0].bit_length() - 1 if sizes else 0):
        while sizes[k - 1] <= 1 << j:  # keep the skeletons with free bit j
            k -= 1
        if k < table.shape[1]:
            built.append(table[:, k:])
            table = table[:, :k]
        table = np.concatenate((table, table ^ columns[j + 1, :, :k]), axis=2)
    built.append(table)
    if len(built) == 1:
        return table.reshape(len(table), -1)
    return np.concatenate([t.reshape(len(t), -1) for t in reversed(built)], axis=1)


class _PairKeys:
    """One int64 key per chunk row for each group of variables of ``_PAIRS``
    (a view or a secret), and the tallies of the pairs asked for.

    A group is keyed by one id for its skeleton constants, interned across
    the enumeration and placed above its row-varying codes.  The ids stay
    below the product of the constants' value counts and below the number
    of skeletons, counted before any replay.  Every group with a per-round
    code holds ``sets``, whose interned value has one entry per executed
    round and ends with the round that aborted, if one did; so the id also
    fixes how many rounds the codes hold.  A pair's key is its view's key
    above its secret's, so equal keys mean equal values and the masses
    grouped by key are the masses grouped by value.

    The client's view is keyed as above: it holds every round's y, its
    partition and the published sets, so two of its views share a class
    of the enumeration only when they come from one skeleton, and the
    permutation between them keeps the order inside every share and so
    every message.
    A server's view is keyed by one canonical form under both groups and
    every ell (the module docstring says why it changes no leakage): its
    sets become the verdict of each executed round (whether it aborted,
    and why), and its channel inputs one digit per round: its bits at the
    S = 2 ell1 + 2 ell2 positions of the published sets, in a, b, c, d
    order and rank order inside each set, times n - S + 1, plus its count
    of ones at the other positions.  A live round publishes sets of the
    same sizes whatever its partition, so the verdicts fix the layout of
    the digits.  Two server views get one key exactly when a permutation
    of each round's positions that keeps the order inside each published
    set carries one onto the other.  A digit is never wider than the
    round's n bits.

    The per-round fields cover only the rounds a sequence can reach: when
    no opened pair goes on, every sequence aborts at its first round, so
    the messages take no bits and the channel inputs one round's.

    The groups include each ``_REDUCED`` view, a server's view without its
    own messages, files and masks, keyed the same way by its verdicts, leak
    and digits; the key widths checked are the full views'.
    """

    def __init__(self, enumeration: _Enumeration):
        lay = self.layout = enumeration.layout
        # The rounds a key holds: unless some opened pair goes on, every
        # sequence aborts at its first round and no round sends messages.
        live = lay.K if any(verdict.partition is not None for _pair, verdict, *_counts in enumeration.verdicts) else 0
        self.executed = live or 1
        self.widths = {
            **lay.widths, "x1": lay.n * self.executed, "x2": lay.n * self.executed,
            "msgs1": 2 * lay.p1 * live, "msgs2": 2 * lay.p2 * live,
        }
        self.interned = enumeration.interned
        values = {"z1": lay.L1, "z2": lay.L2}
        skeletons = enumeration.skeleton_count
        # S, the positions of the published sets a, b, c, d.  A live round's
        # digit is below 2^S (n - S + 1) <= 2^n; an aborted round's is at most n.
        self.published = S = 2 * lay.p1 + 2 * lay.p2
        self.digit_bits = max(2**S * (lay.n - S + 1) - 1 if live else 0, lay.n).bit_length()
        self.groups = {}  # group -> (constants, row-varying codes, digitised channel inputs, key bits)
        for group in dict.fromkeys([g for pair in _PAIRS.values() for g in pair] + list(_REDUCED.values())):
            inputs = [v for v in group if v in ("x1", "x2")]
            constants = tuple("verdicts" if inputs and v == "sets" else v for v in group if v in _SKELETON)
            varying = [v for v in group if v in self.widths and v not in inputs]
            ids = min(skeletons, math.prod(values.get(c, skeletons) for c in constants))
            bits = (ids - 1).bit_length() + sum(self.widths[v] for v in varying) + len(inputs) * self.executed * self.digit_bits
            self.groups[group] = constants, varying, inputs, bits
        widths = {name: self.groups[view][3] + self.groups[secret][3] for name, (view, secret) in _PAIRS.items()}
        for name, bits in widths.items():
            if bits > _MAX_CODE_BITS:
                raise ConfigurationError(f"{name} needs {bits}-bit audit keys, more than {_MAX_CODE_BITS}")
        self.key_bits = max(widths.values())
        self.ids: dict[tuple, _Ids] = {}  # constants -> {their values: id}
        self.verdicts = _Ids()  # verdicts of a sets value -> id
        # Per interned sets value, the id of its verdicts and its (K, S) set
        # shifts, as lists and as the arrays the keys gather from.
        self.verdict_ids: list[int] = []
        self.shifts: list[list] = []
        self.verdict_table = self.shift_table = np.zeros(0, dtype=np.int64)
        # A set bit adds its place value in the digit and takes one from its count of ones.
        self.place = [((lay.n - S + 1) << (S - 1 - j)) - 1 for j in range(S)]

    def secret_bits(self, name: str) -> int:
        return self.groups[_PAIRS[name][1]][3]

    def add(self, chunk: _Chunk, weights: np.ndarray, tallies: dict, pairs: dict) -> None:
        """Add every row of ``chunk``, with its ``weights``, to ``tallies``,
        one per pair named, whose (view, secret) ``pairs`` holds: a pair's
        key is its view's key shifted, in place, above its secret's.  A
        secret that several pairs share, the selection, is keyed once."""
        secrets = {secret: self.key(secret, chunk) for secret in dict.fromkeys(pairs[name][1] for name in tallies)}
        for name, tally in tallies.items():
            view, secret = pairs[name]
            key = self.key(view, chunk)
            key <<= self.groups[secret][3]
            key |= secrets[secret]
            tally.add(key, weights)

    def key(self, group: tuple, chunk: _Chunk) -> np.ndarray:
        """The key of ``group`` at every row of ``chunk``."""
        names, varying, inputs, _bits = self.groups[group]
        table = dict(zip(_SKELETON, chunk.table.T))
        if inputs:
            table["verdicts"], shifts = self._decode(table["sets"])
        if names:
            ids = self.ids.setdefault(names, _Ids())
            constants = zip(*(table[c].tolist() for c in names))
            key = np.array(list(map(ids.__getitem__, constants)), dtype=np.int64)[chunk.skel]
        else:
            key = np.zeros(len(chunk.skel), dtype=np.int64)  # a group without constants has one id, 0
        for v in varying:
            key <<= self.widths[v]
            key |= chunk.columns[v]
        for v in inputs:
            for digit in self._digits(chunk.columns[v], chunk.skel, shifts):
                key <<= self.digit_bits
                key |= digit
        return key

    def _digits(self, inputs: np.ndarray, skel: np.ndarray, shifts: np.ndarray):
        """Per round, first round first, one digit per row of the channel
        ``inputs`` of skeleton ``skel``: its bits at the S published set
        positions times n - S + 1, plus its count of ones at the other
        positions.  ``shifts`` holds each skeleton's shifts in its codes
        (:meth:`_decode`), which are gathered to its rows.  A round that
        aborted publishes no set, and a round the skeleton did not execute
        has no bits."""
        n = self.layout.n
        for at, *shift in shifts.transpose(1, 2, 0):
            word = inputs >> at[skel]
            word &= _mask(n)
            digit = _ONES[word & 255]
            for b in range(8, n, 8):
                digit += _ONES[word >> b & 255]
            for j, place in enumerate(self.place):
                bit = inputs >> shift[j][skel]
                bit &= 1
                bit *= place
                digit += bit
            yield digit

    def _decode(self, sets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The verdict id and the shifts in the channel-input codes of each
        interned sets value in ``sets``, decoding the values not decoded yet:
        per round a key holds, first round first, the shift of the round's n
        bits, then that of each published set position, in a, b, c, d order
        and rank order inside each set, as a (rounds, 1 + S) array.  Round
        r of e executed rounds sits at shift (e - 1 - r) n; bit 63 of a code
        is 0, so a round not executed, or a set not published, reads none."""
        n, S = self.layout.n, self.published
        interned = self.interned["sets"]
        if len(self.shifts) < len(interned):
            for value in itertools.islice(interned, len(self.shifts), None):
                self.verdict_ids.append(self.verdicts[tuple(published[:2] for published in value)])
                rounds = [[at := (len(value) - 1 - r) * n, *([at + n - p for share in sets for p in share]
                                                              if sets else [63] * S)]
                          for r, (_aborted, _reason, sets) in enumerate(value)]
                self.shifts.append(rounds + [[63] * (1 + S)] * (self.executed - len(value)))
            self.verdict_table = np.array(self.verdict_ids, dtype=np.int64)
            self.shift_table = np.array(self.shifts, dtype=np.int64)
        return self.verdict_table[sets], self.shift_table[sets]


# The ones in each byte value.
_ONES = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def _reduce(keys: np.ndarray, weights: np.ndarray, kind: Optional[str] = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys`` in ascending order and the summed ``weights`` of
    each; ``kind`` is the ``np.argsort`` algorithm ("stable" runs through the
    sorted runs of concatenated tables in linear time)."""
    order = np.argsort(keys, kind=kind)
    keys = keys[order]
    first = _firsts(keys)
    return keys[first], np.add.reduceat(weights[order], first)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """The index of the first of each run of equal ``keys``, which are sorted and not empty."""
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


class _Tally:
    """Exact integer masses of distinct int64 keys, added a chunk at a time.

    Tables wait on a stack, each smaller than half the one below it; a new
    table merges into the one below while it is at least half that size.
    Each key then takes part in O(log rows) merges, and memory follows the
    distinct keys, not the rows added.
    """

    def __init__(self):
        self.tables: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, keys: np.ndarray, weights: np.ndarray) -> None:
        if not len(keys):
            return
        table = _reduce(keys, weights)
        while self.tables and 2 * len(table[0]) >= len(self.tables[-1][0]):
            below = self.tables.pop()
            table = _reduce(*(np.concatenate(pair) for pair in zip(below, table)), kind="stable")
        self.tables.append(table)

    def total(self) -> tuple[np.ndarray, np.ndarray]:
        """Every distinct key added, ascending, with its summed weights."""
        if len(self.tables) > 1:
            self.tables = [_reduce(*(np.concatenate(column) for column in zip(*self.tables)), kind="stable")]
        return self.tables[0]


def _leakage(key: np.ndarray, weights: np.ndarray, secret_bits: int, denominator: int) -> float:
    """I(view; secret) in bits of a tally's total: its distinct keys in
    ascending order, each its view above its ``secret_bits``-bit secret, and
    their masses over ``denominator``.  The views are runs of adjacent keys,
    so :class:`JointDistribution` groups them without a sort."""
    codes = np.empty((len(key), 2), dtype=np.int64)
    np.right_shift(key, secret_bits, out=codes[:, 0])
    np.bitwise_and(key, _mask(secret_bits), out=codes[:, 1])
    dist = JointDistribution.from_codes(("view", "secret"), codes, weights, (int, int), denominator=denominator)
    return dist.mutual_information(("view",), ("secret",))


def _pivots(vectors, pivots: dict) -> dict[int, int]:
    """A GF(2) echelon basis of ints read as bit vectors, each keyed by its
    leading bit's place (its bit length): ``pivots``, such a basis, grown
    in place by ``vectors``.  The pivots of vectors number their rank, and
    those that lead above a place the rank of the vectors' bits above it."""
    for v in vectors:
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
    return pivots


def _rank(vectors) -> int:
    """The GF(2) rank of ints read as bit vectors."""
    return len(_pivots(vectors, {}))


def _solved(columns: list, offset: int) -> Optional[int]:
    """The rank r of ``columns`` when ``offset`` lies in their span, so that
    2^-r of the assignments u zero C u + offset, else None (none do)."""
    pivots = _pivots(columns, {})
    rank = len(pivots)
    return rank if len(_pivots([offset], pivots)) == rank else None


def _settle(enumeration: _Enumeration, replayed: _Replayed, live_only: bool, counted=None) -> tuple[int, int, dict]:
    """The non-abort mass, the failure mass and the leakage of each pair of
    ``_PAIRS`` with a file secret that GF(2) ranks settle, read from the
    ``replayed`` skeletons: every one, or with ``live_only`` every one that
    did not abort, the skeletons a tally would count.  Masses are numerators
    over :attr:`_Enumeration.denominator`.

    In skeleton s the F_s free bits u are uniform and an affine output is
    C_s u + c_s.  Its zeros number 2^(F_s - rank C_s) when c_s lies in the
    span of C_s's columns, and none otherwise; so a live skeleton's rows
    with miss = 0 hold 2^-rank of its mass, or none.  For the client, M_s
    are the columns of its messages and N_s those of the unselected files:
    where N_s has full rank on every counted skeleton, the files are uniform
    whatever s, and since the client's view fixes s its leakage is
    sum_s p(s) (rank M_s + rank N_s - rank [M_s; N_s]).  A server's pair is
    0.0 where no counted skeleton's channel inputs or messages read a bit
    of the other server's files.  Each counted skeleton's pattern of what a
    rank reads is read in one pass over the skeletons (:func:`_patterns`),
    and each rank is taken once per pattern: rank N_s per pattern of the
    unselected files (one per selection), rank M_s and rank [M_s; N_s] from
    one elimination of [M_s; N_s] per pattern of the columns of both, M_s's
    bits leading, and miss's per pattern of miss.  The masses are then
    summed over the skeletons with each one's pattern's value.  A skeleton
    that aborts after its first round still carries the messages of the
    rounds before it, so it is counted like any other.  ``counted`` is the
    :func:`_counted_skeletons` of ``replayed``, worked out here unless given."""
    lay = enumeration.layout
    B = lay.free_bits
    counted, affine, table, read = counted or _counted_skeletons(replayed, live_only, B)
    weights = enumeration.weights(replayed.skeletons)
    masses = list(map(int.__lshift__, map(weights.__getitem__, counted.tolist()),
                      (B + table[:, _SKELETON.index("free")]).tolist()))
    # The columns of msgs1, msgs2 and unsel.
    patterns, client = _patterns(affine[:, _AFFINE.index("msgs1") : _AFFINE.index("unsel") + 1, 1:])
    ranks, bits = {}, {}  # per pattern of the unselected files its rank, of all three rank M + rank N - rank [M; N]
    for pattern, (msgs1, msgs2, N) in zip(client, client.values()):
        rank_n = ranks.get(unsel := tuple(N))
        if rank_n is None:
            rank_n = ranks[unsel] = _rank(N)
        # Each column of [M; N] is its msgs1 bits, msgs2 bits, then N's
        # bits, 64 places each; the pivots leading above N's number rank M.
        pivots = _pivots([(a << 64 | b) << 64 | c for a, b, c in zip(msgs1, msgs2, N)], {})
        bits[pattern] = sum(map((64).__lt__, pivots)) + rank_n - len(pivots)
    leaked = sum(map(int.__mul__, masses, map(bits.__getitem__, patterns)))
    full = all(rank == lay.widths["unsel"] for rank in ranks.values())
    live = (table[:, _SKELETON.index("abort")] == 0).tolist()
    masses = list(itertools.compress(masses, live))
    nonabort = sum(masses)
    patterns, misses = _patterns(affine[live, _AFFINE.index("miss")])
    # Per pattern of miss, 2^-rank of its mass has miss = 0, or none (a
    # shift past every mass).  2^rank divides every mass it has.
    shifts = {pattern: _solved(columns, offset) for pattern, (offset, *columns) in misses.items()}
    shifts = {pattern: nonabort.bit_length() if rank is None else rank for pattern, rank in shifts.items()}
    fail = nonabort - sum(map(int.__rshift__, masses, map(shifts.__getitem__, patterns)))
    settled = {}
    if full:  # int division rounds correctly
        settled["servers_vs_client"] = leaked / (nonabort if live_only else enumeration.denominator) if leaked else 0.0
    for name, (view, (secret, *_rest)) in _PAIRS.items():
        if secret in _FREE and not lay.field_bits(secret) & functools.reduce(
                int.__or__, [read[_AFFINE.index(v)] for v in view if v in _AFFINE]):
            settled[name] = 0.0
    return nonabort, fail, settled


def _patterns(words: np.ndarray) -> tuple[list, dict]:
    """The pattern of each row of ``words`` (a row's bytes), and one row of
    each distinct pattern, as lists of ints, by pattern."""
    rows = np.ascontiguousarray(words).reshape(len(words), math.prod(words.shape[1:]))
    patterns = rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel().tolist()
    where = dict(zip(patterns, range(len(patterns))))
    return patterns, dict(zip(where, words[list(where.values())].tolist()))


def _counted(table: np.ndarray, live_only: bool) -> np.ndarray:
    """Whether a tally counts each skeleton of the skeleton ``table``: every
    one, or with ``live_only`` every one that did not abort."""
    return ~(live_only & (table[:, _SKELETON.index("abort")] == 1))


def _counted_skeletons(replayed: _Replayed, live_only: bool, B: int) -> tuple:
    """The skeletons of ``replayed`` a tally counts (:func:`_counted`): their
    indices, affine outputs and rows of the skeleton table, sliced only
    where some are not counted, and the :func:`_read` of their outputs."""
    counted, affine, table = np.flatnonzero(_counted(replayed.table, live_only)), replayed.affine, replayed.table
    if len(counted) < len(table):
        affine, table = affine[counted], table[counted]
    return counted, affine, table, _read(affine, B)


def _read(affine: np.ndarray, B: int) -> list[int]:
    """Per ``_AFFINE`` output, the file and mask bits (free bit j as bit j)
    its columns read on some skeleton of ``affine``."""
    return ((np.bitwise_or.reduce(affine[:, :, 1 : B + 1], axis=0) != 0) @ (1 << np.arange(B))).tolist()


def _own_parts(keys: _PairKeys, affine: np.ndarray, table: np.ndarray, read: list[int]) -> dict[str, str]:
    """Why each selection pair whose server's view must be kept whole is
    kept whole.  Where the server's channel inputs read no file or mask bit
    (``read``, :func:`_read`) and a GF(2) solve certifies its messages, on
    every skeleton of ``affine`` and ``table`` (:func:`_counted_skeletons`), as
    one affine map of what its reduced key keeps, its view may drop its own
    messages, files and masks (``_REDUCED``), and the pair is not named.

    The skeletons are grouped by V, their round verdicts and leak.  The map
    M = A_V [F; X_c; 1] may read the server's files and masks F and X_c,
    its inputs at the published positions in set and rank order
    (:meth:`_PairKeys._decode`), but not the raw sets (the module docstring
    says why).  Each free bit's and the offset's column packs V, then d,
    its coefficients in (F, X_c, 1), then t, its coefficients in the
    messages M, into one word; A_V exists exactly when no combination of
    the group's distinct columns has a zero d part and a non-zero t part,
    so when no pivot of one elimination of them leads in t.  Nothing here
    knows the message format, so a message that reads the other server's
    input, a raw position or anything else that merely agrees with such a
    map on some skeletons fails.  A column wider than ``_COLUMN_BITS``
    keeps the full view rather than wrap."""
    lay = keys.layout
    skeleton = dict(zip(_SKELETON, table.T))
    verdicts, shifts = keys._decode(skeleton["sets"])
    group = verdicts * len(keys.interned["leak"]) + skeleton["leak"]
    group_bits = int(group.max(initial=0)).bit_length()
    # Per published position (round, set, rank), its shift in each skeleton's inputs.
    published = shifts[:, :, 1:].reshape(len(group), -1).T[:, :, None]
    X, failed = len(published), {}
    for name, server in (("client_privacy_s1", "1"), ("client_privacy_s2", "2")):
        msgs, own = f"msgs{server}", lay.field_bits(f"files{server}") | lay.field_bits(f"masks{server}")
        # From the top: V, F, X_c, the offset's 1, then the messages M.
        T = keys.widths[msgs]
        low = own.bit_count() + X + 1 + T
        if read[_AFFINE.index(f"x{server}")]:
            failed[name] = f"x{server} reads a file or mask bit"
        elif group_bits + low > _COLUMN_BITS:
            failed[name] = f"{msgs}'s certificate needs {group_bits + low}-bit columns"
        elif T:  # a server that sends no message bit passes
            places = iter(range(low - 1, X + T, -1))  # F's places, the first own bit highest
            columns = affine[:, _AFFINE.index(msgs)] | (group << low)[:, None]
            # The offset's column holds the 1 of d, an own file or mask bit's its place in F.
            columns[:, : 1 + lay.free_bits] |= [1 << T, *(1 << next(places) if own >> j & 1 else 0
                                                           for j in range(lay.free_bits))]
            # Copied whole, as the shifts by each position run fastest on one block.
            inputs = np.ascontiguousarray(affine[:, _AFFINE.index(f"x{server}")])
            for place, at in zip(range(T + X, T, -1), published):
                columns |= (inputs >> at & 1) << place
            columns = np.sort(columns, axis=None)
            for v, words in itertools.groupby(columns[_firsts(columns)].tolist(), lambda word: word >> low):
                if min(_pivots([word ^ v << low for word in words], {})) <= T:
                    failed[name] = f"{msgs} is no affine map of its files, masks, published inputs, verdicts and leak"
                    break
    return failed


def audit(
    params: ProtocolParams,
    *,
    abort_disabled: bool = False,
    condition_nonabort: bool = False,
    mutation: Optional[str] = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> LeakageReport:
    """Compute all six audited quantities on the exact distribution.

    The enumeration keeps one skeleton per share class.  Every skeleton is
    built first, replayed where it must be, and the masses, the failure
    mass and the pairs with a file secret are settled from GF(2) ranks
    where they can be (:func:`_settle`); only the pairs left are tallied.
    Each selection pair whose server's messages a GF(2) solve certifies as
    an affine map of the rest of its canonical view is keyed without that
    server's own messages, files and masks (:func:`_own_parts`).  The
    rows are then streamed, over the channel bits and the file and mask
    bits the pairs left read: each chunk's expanded rows (when
    conditioning, only those of skeletons that did not abort) are added to
    one tally of (view, secret) keys per pair left.  ``state_budget``
    bounds the rows enumerated, over all their free bits, expanded or not.
    A progress line goes to stderr at most every ``_PROGRESS_S`` seconds,
    the first one only after that long.
    """
    start = time.perf_counter()
    enumeration, required = _enumeration(params, abort_disabled, mutation, state_budget, classes=True)
    keys = _PairKeys(enumeration)
    replayed = enumeration.replay_all()
    tic = time.perf_counter()
    lay = enumeration.layout
    counted = _counted_skeletons(replayed, condition_nonabort, lay.free_bits)
    _index, affine, table, read = counted
    nonabort, fail, settled = _settle(enumeration, replayed, condition_nonabort, counted)
    reliability_error = fail / nonabort if nonabort > 0 else 0.0  # int division rounds correctly
    if condition_nonabort:
        if nonabort == 0:
            raise ConfigurationError("every session aborts: no non-abort event to condition on")
        denominator, conditioning = nonabort, "non-abort"
    else:
        denominator, conditioning = enumeration.denominator, "unconditioned"
    tallies = {name: _Tally() for name in _PAIRS if name not in settled}
    failed = _own_parts(keys, affine, table, read)
    reduced = {name: (view, _PAIRS[name][1]) for name, view in _REDUCED.items() if name not in failed}
    pairs = {**_PAIRS, **reduced}
    keyed = tuple((name, _DROPPED if name in reduced else f"{_FULL} ({failed[name]})" if name in failed else _FULL)
                  for name in tallies)
    # Only the outputs the tallied pairs read are expanded, over the file and
    # mask bits they read; each row stands for the bits left out.
    views = {v for name in tallies for group in pairs[name] for v in group}
    outputs = tuple(v for v in _AFFINE if v in views)
    free = sum(lay.field_bits(v) for v in _FREE if v in views)  # the fields are disjoint
    for v, bits in zip(_AFFINE, read):
        if v in views:
            free |= bits
    bits = tuple(j for j in range(lay.free_bits) if free >> j & 1)
    rows = expanded = states = chunks = largest = 0
    tallying, shown = time.perf_counter() - tic, start
    for chunk in enumeration.chunks(replayed, condition_nonabort, outputs, bits):
        tic = time.perf_counter()
        rows += chunk.rows
        expanded += len(chunk.skel)
        largest = max(largest, len(chunk.skel))
        states += chunk.states
        chunks += 1
        keys.add(chunk, chunk.weights[chunk.skel], tallies, pairs)
        # Free this chunk's rows before the next chunk is expanded.
        del chunk
        now = time.perf_counter()
        tallying += now - tic
        if now - shown >= _PROGRESS_S:
            print(
                f"audit: {rows:,} of {enumeration.rows:,} rows, standing for {states:,} of {required:,}; "
                f"{enumeration.sequence_count:,} orbit sequences; {rows / (now - start):,.0f} rows/s",
                file=sys.stderr,
            )
            shown = now
    streamed = time.perf_counter()
    if (rows, states) != (enumeration.rows, required):
        raise RuntimeError(f"enumerated {rows} rows standing for {states}, not {enumeration.rows} for {required}")

    leakages, tallied = settled, {}
    for name, tally in tallies.items():
        key, weights = tally.total()
        leakages[name] = _leakage(key, weights, keys.secret_bits(name), denominator)
        tallied[name] = len(key)
    end = time.perf_counter()
    return LeakageReport(
        params, conditioning, **leakages, reliability_error=reliability_error, state_count=states,
        required_states=required, budget=state_budget, wall_time_s=end - start, mutation=mutation,
        enumeration_s=streamed - start - tallying, information_s=end - streamed + tallying,
        skeletons=len(replayed.skeletons), replays=enumeration.replays, chunks=chunks, view_pairs=max(tallied.values()),
        orbit_sequences=enumeration.sequence_count, enumerated_rows=rows, expanded_rows=expanded,
        answered_rounds=len(enumeration.chains.answers), key_bits=keys.key_bits, largest_chunk_rows=largest,
        tallied=tuple(tallied.items()), keyed=keyed,
    )
