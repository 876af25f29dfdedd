"""Reduction of many-file retrieval to repeated two-file sessions.

Each server links its files (or file parts) into a chain of value pairs
through fresh one-time-pad masks; each chain pair is served through one
two-file session, and the client's per-round branch choices telescope under
XOR to exactly the requested file.

With L1 files at server 1 and L2 at server 2, server 1 splits every file
into L2 - 1 equal parts and server 2 into L1 - 1 parts, giving
K = (L1 - 1) * (L2 - 1) rounds.  The canonical round ordering pairs server
1's (chain position t, part i) with server 2's (chain position t', part j)
as

    server 1: k = (i - 1) * (L1 - 1) + t      (part-major)
    server 2: k = (t' - 1) * (L1 - 1) + j     (chain-major)

so that each round consumes one pair from each server.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .bits import BitString, sample_uniform
from .model import ConfigurationError, FileStore, ProtocolParams, Selection, SessionStreams
from .protocol import RoundOpening, Transcript, check_mutation, client_partitioner, execute_session, open_round

__all__ = [
    "MultifileChains",
    "MultifilePlan",
    "MultifileTranscript",
    "build_chain",
    "chain_multifile",
    "round_selection",
    "flatten_rounds",
    "reconstruct",
    "run_multifile",
    "plan_multifile",
    "plan_selection",
    "execute_multifile",
    "request_schedule",
]

Symbol = tuple[str, int, int]  # ("file" | "mask", chain index, part index)
SymbolSet = frozenset[Symbol]


@dataclass(frozen=True, init=False)
class MultifileTranscript:
    """Ordered base-session transcripts plus the reduction header.

    Frozen, and built in one step like :class:`~adder_spir.protocol.Transcript`.
    """

    L1: int
    L2: int
    part_length1: int
    part_length2: int
    pairing: tuple[tuple[tuple[int, int], tuple[int, int]], ...]
    round_selections: tuple[tuple[int, int], ...]
    transcripts: tuple[Transcript, ...]
    aborted: bool
    recovered: Optional[tuple[BitString, BitString]] = None
    requested: Optional[tuple[BitString, BitString]] = None

    def __init__(self, L1, L2, part_length1, part_length2, pairing, round_selections, transcripts, aborted,
                 recovered=None, requested=None):
        self.__dict__.update({
            "L1": L1, "L2": L2, "part_length1": part_length1, "part_length2": part_length2, "pairing": pairing,
            "round_selections": round_selections, "transcripts": transcripts, "aborted": aborted,
            "recovered": recovered, "requested": requested,
        })

    @property
    def recovery_ok(self) -> Optional[bool]:
        """Whether the recovered files are the requested ones; None on abort."""
        return None if self.aborted else self.recovered == self.requested

    @property
    def round_count(self) -> int:
        return len(self.pairing)

    def public_bits_from_server(self, server_id: int) -> int:
        return sum(t.public_bits_from_server(server_id) for t in self.transcripts)

    def to_record(self) -> dict:
        """The public record; with two files per server, its one round's record."""
        if (self.L1, self.L2) == (2, 2):
            return self.transcripts[0].to_record()
        return {
            "record": "multifile-transcript",
            "L1": self.L1,
            "L2": self.L2,
            "part_length1": self.part_length1,
            "part_length2": self.part_length2,
            "pairing": [list(map(list, pair)) for pair in self.pairing],
            "round_selections": [list(p) for p in self.round_selections],
            "aborted": self.aborted,
            "rounds": [t.to_record() for t in self.transcripts],
            "recovered": None
            if self.recovered is None
            else [self.recovered[0].to_hex(), self.recovered[1].to_hex()],
            "recovery_ok": self.recovery_ok,
        }


def build_chain(entries: Sequence[BitString], masks: Sequence[BitString]) -> tuple[tuple[BitString, BitString], ...]:
    """Link L values through L - 2 masks into L - 1 one-time-padded pairs.

    Pair 1 is (value 1, mask 1); middle pair t is (value t padded with mask
    t-1, mask t-1 padded with mask t); the last pair pads the final two
    values with the last mask.  For L = 2 the single pair is the raw values.
    """
    L = len(entries)
    if L < 2:
        raise ValueError("a chain needs at least two values")
    if len(masks) != L - 2:
        raise ValueError(f"expected {L - 2} masks for {L} values, got {len(masks)}")
    if len(set(map(len, (*entries, *masks)))) != 1:
        raise ValueError("all chain values and masks must have equal length")
    if L == 2:
        return ((entries[0], entries[1]),)
    pairs = [(entries[0], masks[0])]
    for t in range(2, L - 1):
        pairs.append((entries[t - 1] ^ masks[t - 2], masks[t - 2] ^ masks[t - 1]))
    pairs.append((entries[L - 2] ^ masks[L - 3], masks[L - 3] ^ entries[L - 1]))
    return tuple(pairs)


@functools.lru_cache(maxsize=None)
def round_selection(Z: int, L: int) -> tuple[int, ...]:
    """Per-round branch choices: branch 2 strictly before the target, else 1."""
    if not 1 <= Z <= L:
        raise ValueError(f"selection {Z} outside [1, {L}]")
    return tuple(2 if t < Z else 1 for t in range(1, L))


@functools.lru_cache(maxsize=None)
def flatten_rounds(L1: int, L2: int) -> tuple[tuple[tuple[int, int], tuple[int, int]], ...]:
    """Canonical pairing of server-1 (t, i) with server-2 (t', j) per round."""
    if L1 < 2 or L2 < 2:
        raise ValueError("need at least two files per server")
    pairing = []
    for k in range(1, (L1 - 1) * (L2 - 1) + 1):
        t1 = (k - 1) % (L1 - 1) + 1
        i = (k - 1) // (L1 - 1) + 1
        t2 = (k - 1) // (L1 - 1) + 1
        j = (k - 1) % (L1 - 1) + 1
        pairing.append(((t1, i), (t2, j)))
    return tuple(pairing)


def reconstruct(Z: int, L: int, chosen: Sequence[BitString]) -> BitString:
    """XOR the per-round recovered values down to the requested one.

    ``chosen[t-1]`` is the branch value recovered in chain round t: branch 2
    before the target position, branch 1 at and after it.  The pads
    telescope away, leaving value Z.
    """
    if len(chosen) != L - 1:
        raise ValueError(f"expected {L - 1} recovered values, got {len(chosen)}")
    if Z < L:
        acc = chosen[Z - 1]
        for t in range(Z - 1):
            acc = acc ^ chosen[t]
    else:
        acc = chosen[0]
        for t in range(1, L - 1):
            acc = acc ^ chosen[t]
    return acc


def sample_masks(
    L_own: int, n_parts: int, length: int, stream: Optional[np.random.Generator]
) -> tuple[tuple[BitString, ...], ...]:
    """Fresh chaining masks, one tuple of L_own - 2 masks per part index.

    Sampling order is part-index outer, chain-index inner, from the
    server's mask stream; masks are never reused across parts.  With two
    files there are no masks and ``stream`` (None in a session's streams)
    is not read.
    """
    if L_own == 2:
        return ((),) * n_parts
    return tuple(
        tuple(sample_uniform(length, stream) for _t in range(L_own - 2))
        for _i in range(n_parts)
    )


def _chains(store: FileStore, n_parts: int, masks: Sequence[Sequence[BitString]]) -> list:
    """Per part index, the chain of that part of every file, padded with its masks."""
    parts = zip(*[f.split(n_parts) for f in store.files])
    return [build_chain(entries, m) for entries, m in zip(parts, masks, strict=True)]


class MultifileChains(NamedTuple):
    """A reduction's checked selection-independent inputs, from
    :func:`chain_multifile`: the params, the two-file params of every round,
    the two file stores, ``stores``, per server and part index the two-file
    store of each chain position, and ``shape``, the (L1, L2, part lengths,
    pairing) header of every transcript its plans return.  Every
    selection's plan (:func:`plan_selection`) shares them.

    ``answers`` holds every round the plans have answered, with its opening.
    A round's two-file stores come from the pairing alone, so its answer is
    fixed by the round index, its branch choices, the mutation and the
    identity of its opening, the key it is kept under: a plan that passes
    the same opening object for a round again, or another plan with the
    same branch choices there, reuses its transcript.  An opening that
    aborted is kept under the round index and its identity alone: the
    client decides to abort from the channel output before any message
    that depends on the selection, and
    :func:`~adder_spir.protocol.execute_session` returns its aborted
    transcript before it reads the selection or the mutation, so every
    plan on the chains shares it.  Chains run on fresh openings keep every
    one of them, so a long loop of runs whose openings never repeat chains
    once per run, as :func:`run_multifile` does.
    """

    params: ProtocolParams
    round_params: ProtocolParams
    files: tuple[FileStore, FileStore]
    stores: tuple[list[list[FileStore]], list[list[FileStore]]]
    shape: tuple
    answers: dict


@dataclass(frozen=True)
class MultifilePlan:
    """One reduction's checked inputs, from :func:`plan_multifile` or
    :func:`plan_selection`: per round its two-file stores and branch
    choices, per part index of each server the rounds that reconstruct it,
    the requested files, and ``shape``, the (L1, L2, part lengths, pairing)
    header of every transcript it returns.  ``answers`` is its chains'
    (:class:`MultifileChains`), shared with every plan on them.
    """

    params: ProtocolParams
    round_params: ProtocolParams
    sel: Selection
    mutation: Optional[str]
    rounds: tuple[tuple[FileStore, FileStore, Selection], ...]
    selections: tuple[tuple[int, int], ...]
    orders: tuple[tuple[tuple[int, ...], ...], ...]
    requested: tuple[BitString, BitString]
    shape: tuple
    answers: dict = field(compare=False, repr=False)


def chain_multifile(
    params: ProtocolParams, files1: FileStore, files2: FileStore,
    masks1: Sequence[Sequence[BitString]], masks2: Sequence[Sequence[BitString]],
) -> MultifileChains:
    """Check the reduction's selection-independent inputs and chain the
    files through the masks, once for the plans of every selection."""
    params.validate()
    L1, L2 = params.L1, params.L2
    if files1.file_count != L1 or files2.file_count != L2:
        raise ConfigurationError("file store sizes must match (L1, L2)")
    len1, len2 = files1.file_length, files2.file_length
    if len1 % (L2 - 1):
        raise ConfigurationError(f"server-1 file length {len1} not divisible by {L2 - 1}")
    if len2 % (L1 - 1):
        raise ConfigurationError(f"server-2 file length {len2} not divisible by {L1 - 1}")
    p1, p2 = len1 // (L2 - 1), len2 // (L1 - 1)
    if p1 != params.ell1 or p2 != params.ell2:
        raise ConfigurationError(
            f"per-round lengths ({p1}, {p2}) disagree with params ({params.ell1}, {params.ell2})"
        )
    stores = (
        [[FileStore(1, pair) for pair in chain] for chain in _chains(files1, L2 - 1, masks1)],
        [[FileStore(2, pair) for pair in chain] for chain in _chains(files2, L1 - 1, masks2)],
    )
    # Every round is a two-file session at the per-round lengths (ell1, ell2).
    round_params = replace(params, L1=2, L2=2)
    shape = (L1, L2, params.ell1, params.ell2, flatten_rounds(L1, L2))
    return MultifileChains(params, round_params, (files1, files2), stores, shape, {})


def plan_selection(chains: MultifileChains, sel: Selection, *, mutation: Optional[str] = None) -> MultifilePlan:
    """Check one selection and plan its rounds on shared ``chains``, once
    for any number of :func:`execute_multifile` runs."""
    L1, L2 = chains.params.L1, chains.params.L2
    sel.validate(L1, L2)
    check_mutation(mutation)
    slots, selections, order1, order2 = _round_plan(L1, L2, sel.z1, sel.z2)
    stores1, stores2 = chains.stores
    rounds = tuple((stores1[i][t1], stores2[j][t2], s) for i, t1, j, t2, s in slots)
    files1, files2 = chains.files
    requested = (files1.file(sel.z1), files2.file(sel.z2))
    return MultifilePlan(
        chains.params, chains.round_params, sel, mutation, rounds, selections, (order1, order2), requested,
        chains.shape, chains.answers,
    )


def plan_multifile(
    params: ProtocolParams, files1: FileStore, files2: FileStore, sel: Selection,
    masks1: Sequence[Sequence[BitString]], masks2: Sequence[Sequence[BitString]], *, mutation: Optional[str] = None,
) -> MultifilePlan:
    """Check the reduction's inputs and chain the files through the masks,
    once for any number of :func:`execute_multifile` runs: the one plan of
    :func:`chain_multifile`'s chains for ``sel``."""
    return plan_selection(chain_multifile(params, files1, files2, masks1, masks2), sel, mutation=mutation)


def execute_multifile(plan: MultifilePlan, openings: Iterable[RoundOpening]) -> MultifileTranscript:
    """Run a planned reduction on its opened rounds (:func:`~adder_spir.protocol.open_round`).

    The openings are read one round at a time, and none after a round that
    aborts: any single round abort aborts the whole session (no retry here;
    retries are a harness-level loop with fresh seeds).  A round whose
    opening object a plan on the same chains has answered at that round,
    with the same branch choices or, if it aborted, with any, is not
    answered again (:class:`MultifileChains`).
    """
    openings = iter(openings)
    answers, round_params, mutation, branches = plan.answers, plan.round_params, plan.mutation, plan.selections
    transcripts: list[Transcript] = []
    for k, (store1, store2, round_sel) in enumerate(plan.rounds):
        opening = next(openings, None)
        if opening is None:
            break
        key = (k, id(opening)) if opening.abort_reason is not None else (k, branches[k], mutation, id(opening))
        answered = answers.get(key)
        if answered is None:
            transcript = execute_session(round_params, store1, store2, round_sel, opening, mutation=mutation)
            answers[key] = opening, transcript
        else:
            transcript = answered[1]
        transcripts.append(transcript)
        if transcript.aborted:
            return MultifileTranscript(*plan.shape, plan.selections[: k + 1], tuple(transcripts), True)
    if len(transcripts) < len(plan.rounds) or next(openings, None) is not None:
        raise ConfigurationError(f"expected openings of {len(plan.rounds)} rounds")

    sel, (order1, order2) = plan.sel, plan.orders
    L1, L2 = plan.shape[:2]
    parts1 = [reconstruct(sel.z1, L1, [transcripts[k].recovered[0] for k in ks]) for ks in order1]
    parts2 = [reconstruct(sel.z2, L2, [transcripts[k].recovered[1] for k in ks]) for ks in order2]
    # Joined by the parts' own type, which the oracle's symbolic values override.
    recovered = (type(parts1[0]).join(parts1), type(parts2[0]).join(parts2))
    return MultifileTranscript(
        *plan.shape, plan.selections, tuple(transcripts), aborted=False, recovered=recovered, requested=plan.requested,
    )


@functools.lru_cache(maxsize=None)
def _round_plan(L1: int, L2: int, z1: int, z2: int) -> tuple:
    """The per-call structure of one shape and selection.

    Per round, the 0-based (part, chain position) slots it serves at each
    server and its branch choices as a :class:`Selection`; the branch
    choices as pairs; per part index of each server, the rounds whose
    recovered values reconstruct it, in chain order.
    """
    z1_rounds = round_selection(z1, L1)
    z2_rounds = round_selection(z2, L2)
    pairing = flatten_rounds(L1, L2)
    selections = tuple((z1_rounds[t1 - 1], z2_rounds[t2 - 1]) for (t1, _i), (t2, _j) in pairing)
    slots = tuple(
        (i - 1, t1 - 1, j - 1, t2 - 1, Selection(*round_sel))
        for ((t1, i), (t2, j)), round_sel in zip(pairing, selections)
    )
    round_of1 = {pair1: k for k, (pair1, _pair2) in enumerate(pairing)}
    round_of2 = {pair2: k for k, (_pair1, pair2) in enumerate(pairing)}
    order1 = tuple(tuple(round_of1[(t, i)] for t in range(1, L1)) for i in range(1, L2))
    order2 = tuple(tuple(round_of2[(t, j)] for t in range(1, L2)) for j in range(1, L1))
    return slots, selections, order1, order2


def run_multifile(
    params: ProtocolParams,
    files1: FileStore,
    files2: FileStore,
    sel: Selection,
    streams: SessionStreams,
    *,
    abort_disabled: bool = False,
) -> MultifileTranscript:
    """Run the reduction with masks and per-round channel inputs from the
    session's party streams (:func:`~adder_spir.model.session_streams`).

    Each round uses a fresh channel block of n uses with fresh uniform
    inputs and its own partition draw, from that round's streams; a round
    is opened (transmitted, checked and partitioned) only once the rounds
    before it went through.  Two files per server is the one-round case.
    Masks are drawn at the per-round lengths of ``params``;
    :func:`plan_multifile` checks them against the files.  Streams whose
    round count or mask streams do not match (L1, L2) are refused.
    """
    L1, L2 = params.L1, params.L2
    streams.check(L1, L2)
    masks1 = sample_masks(L1, L2 - 1, params.ell1, streams.masks[0])
    masks2 = sample_masks(L2, L1 - 1, params.ell2, streams.masks[1])
    plan = plan_multifile(params, files1, files2, sel, masks1, masks2)
    # Every round's inputs and partitioner are set up before any round
    # runs.  Only the opening waits for earlier rounds.
    x_rounds = [tuple(sample_uniform(params.n, stream) for stream in pair) for pair in streams.inputs]
    partitioners = [client_partitioner(stream) for stream in streams.partitions]
    openings = (
        open_round(plan.round_params, *x, p, abort_disabled=abort_disabled) for x, p in zip(x_rounds, partitioners)
    )
    return execute_multifile(plan, openings)


def request_schedule(L1: int, L2: int, z1: int, z2: int) -> tuple[tuple[SymbolSet, SymbolSet], ...]:
    """Per round, the symbolic value the client requests from each server.

    Each value is a XOR-set (frozenset) of atoms ("file", l, part) and
    ("mask", t, part), chained by :func:`build_chain` as the bits would be.
    """
    def chain(L: int, part: int) -> tuple:
        files = [frozenset({("file", l, part)}) for l in range(1, L + 1)]
        return build_chain(files, [frozenset({("mask", t, part)}) for t in range(1, L - 1)])

    chains1 = [chain(L1, i) for i in range(1, L2)]
    chains2 = [chain(L2, j) for j in range(1, L1)]
    slots = _round_plan(L1, L2, z1, z2)[0]
    return tuple((chains1[i][t1][s.z1 - 1], chains2[j][t2][s.z2 - 1]) for i, t1, j, t2, s in slots)
