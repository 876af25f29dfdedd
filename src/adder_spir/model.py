"""Shared domain types, seeded randomness, and error classes.

Randomness scheme: each party owns one 64-bit seed, and a sub-stream is the
PCG64 generator of ``numpy.random.SeedSequence(seed, spawn_key=key)``, so a
session is reproducible bit for bit from the seed triple alone.  The spawn
keys are this module's alone, and :func:`_session_keys` lists them:

* ``()``         the client's selection draw (``run`` and ``sweep`` trials)
* ``(0,)``       file sampling for a server's library
* ``(1, k)``     channel inputs for sub-protocol round ``k`` (1-based)
* ``(2,)``       chaining masks, for a server with more than two files
* ``(3, k)``     the client's share-partition draw for round ``k`` (1-based)

Such a sequence hashes only its assembled entropy: the seed's little-endian
uint32 words, zero-padded to the pool size (4) when the key is non-empty,
then each key element's words.  Padding when the key is empty changes
nothing, since the hash reads a missing pool word as 0.  Its constants
depend only on a word's position, so :func:`block_streams` hashes every
stream of a block of sessions at once, one stream to a 64-bit lane of a
Python int, and hands each PCG64 the state words it computed.  A pass's
fixed cost outweighs its cost per row at a two-file session's six rows, so
a block pays it once for many sessions.  :func:`session_streams` is the
block of one and :func:`party_stream` the batch of one stream.
``tests/test_streams.py`` checks them against numpy's own ``SeedSequence``
over mixed seed and key widths, and a block against each of its sessions
alone.  :func:`trial_seeds`, one value per trial, builds numpy's sequence
of the same words.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bits import BitString, sample_uniform

__all__ = [
    "CapacityShortfall",
    "ConfigurationError",
    "FileStore",
    "PartyRandomness",
    "ProtocolParams",
    "Selection",
    "SessionStreams",
    "block_streams",
    "party_stream",
    "sample_filestore",
    "session_streams",
    "stream_count",
    "trial_seeds",
]


class ConfigurationError(ValueError):
    """Invalid parameters detected before any channel use."""


class CapacityShortfall(Exception):
    """The realized channel block cannot carry the requested file lengths."""


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): its pool size
# in uint32 words and its constants.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# -MIX_MULT_R mod 2**32, which turns mix's subtraction into an addition.
_MIX_NEG_R = _MASK32 + 1 - _MIX_MULT_R
# PCG64 reads generate_state(4, uint64): eight uint32 words.
_STATE_WORDS = 8
# One 64-bit lane, little-endian: a row still mixing its words, and one done.
_LIVE, _DONE = b"\xff\xff\xff\xff\0\0\0\0", bytes(8)


def _uint32_words(x: int) -> list[int]:
    """A nonnegative int as little-endian uint32 words, at least one, as ``SeedSequence`` reads it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("seeds and spawn-key elements must be nonnegative")
    return [x >> shift & _MASK32 for shift in range(0, max(x.bit_length(), 1), 32)]


def _entropy_words(seed: int, key: tuple[int, ...]) -> list[int]:
    """The words ``SeedSequence(seed, spawn_key=key)`` hashes, the seed's zero-padded to the pool size."""
    seed = operator.index(seed)
    if 0 <= seed < 1 << 64:
        words = [seed & _MASK32, seed >> 32, 0, 0]
    else:
        words = _uint32_words(seed)
        words += [0] * (_POOL - len(words))
    for element in key:
        element = operator.index(element)
        if 0 <= element <= _MASK32:
            words.append(element)
        else:
            words += _uint32_words(element)
    return words


def _chain(init: int, mult: int, count: int) -> list[int]:
    """``init * mult**i`` mod 2**32 for i < ``count``: the hash's constant at each step."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return out


@functools.lru_cache(maxsize=64)
def _lanes(rows: int, width: int) -> tuple:
    """Masks and constants for hashing ``rows`` entropy rows of at most
    ``width`` words, one row to a 64-bit lane: the low 32 bits of every
    lane, then each step's hashmix constant (the mixing chain, then the
    output chain) in every lane and alone."""
    ones = int.from_bytes(b"\1\0\0\0\0\0\0\0" * rows, "little")
    a = _chain(_INIT_A, _MULT_A, _POOL * width + 1)
    b = _chain(_INIT_B, _MULT_B, _STATE_WORDS + 1)
    return ones * _MASK32, tuple(c * ones for c in a), tuple(a), tuple(c * ones for c in b), tuple(b)


def _pcg_states(rows: list[list[int]]) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, uint64)`` of every row of
    entropy words at once, as (len(rows), 4) uint64 in C order: PCG64 reads
    a row's memory as its four words.

    Row r sits in the low 32 bits of 64-bit lane r of each Python int, so a
    product of two 32-bit values fits its lane and masking every lane back
    to 32 bits keeps each step exact.  A row with fewer words skips the
    later mixing steps under a lane mask; the output steps have their own
    constant chain, so skipping is exact.
    """
    n, width = len(rows), max(map(len, rows))
    mask, lane_a, a, lane_b, b = _lanes(n, width)
    table = np.array([row + [0] * (width - len(row)) for row in rows], dtype="<u8").T
    words = [int.from_bytes(column.tobytes(), "little") for column in table]

    def hashmix(value: int, step: int) -> int:
        value = (value ^ lane_a[step]) * a[step + 1] & mask
        return value ^ (value >> 16 & mask)

    def mix(x: int, y: int) -> int:
        value = ((x * _MIX_MULT_L & mask) + (y * _MIX_NEG_R & mask)) & mask
        return value ^ (value >> 16 & mask)

    pool = [hashmix(words[i], i) for i in range(_POOL)]
    step = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src], step))
                step += 1
    for i in range(_POOL, width):
        # The low 32 bits of the lanes of the rows that have a word i.
        live = int.from_bytes(b"".join(_LIVE if len(row) > i else _DONE for row in rows), "little")
        for dst in range(_POOL):
            mixed = mix(pool[dst], hashmix(words[i], step))
            pool[dst] ^= (mixed ^ pool[dst]) & live
            step += 1
    out = []
    for i in range(_STATE_WORDS):
        value = (pool[i % _POOL] ^ lane_b[i]) * b[i + 1] & mask
        out.append(value ^ (value >> 16 & mask))
    state = b"".join((out[i] | out[i + 1] << 32).to_bytes(8 * n, "little") for i in range(0, _STATE_WORDS, 2))
    return np.frombuffer(state, "<u8").reshape(4, n).T.astype(np.uint64, order="C")


class _HashedSeed:
    """A stream's ``SeedSequence`` state, computed by :func:`_pcg_states`,
    as PCG64 reads it: numpy's ``ISeedSequence``, once :func:`_streams` has
    registered it as one."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a party stream's seed holds only PCG64's state: 4 uint64 words")
        return self._state


@functools.cache
def _register_hashed_seed() -> None:
    """Register :class:`_HashedSeed` as an ``ISeedSequence`` on first use:
    numpy imports ``numpy.random`` lazily, and importing it with this module
    would add it to every command's start-up."""
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_HashedSeed)


def _streams(pairs: list[tuple[int, tuple[int, ...]]]) -> list[np.random.Generator]:
    """The PCG64 stream of ``SeedSequence(seed, spawn_key=key)`` for every (seed, key) pair, hashed at once."""
    states = _pcg_states([_entropy_words(seed, key) for seed, key in pairs])
    _register_hashed_seed()
    return [np.random.Generator(np.random.PCG64(_HashedSeed(state))) for state in states]


def party_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic PCG64 stream for one party, split by spawn key."""
    return _streams([(seed, key)])[0]


@dataclass(frozen=True)
class Selection:
    """Client file choice: index z_i requested from server i."""

    z1: int
    z2: int

    def validate(self, L1: int, L2: int) -> None:
        if not 1 <= self.z1 <= L1:
            raise ConfigurationError(f"z1={self.z1} outside [1, {L1}]")
        if not 1 <= self.z2 <= L2:
            raise ConfigurationError(f"z2={self.z2} outside [1, {L2}]")


@dataclass(frozen=True)
class PartyRandomness:
    """Independent 64-bit seeds for the client and the two servers."""

    client_seed: int
    server1_seed: int
    server2_seed: int


@dataclass(frozen=True)
class ProtocolParams:
    """Parameters of one (possibly multi-round) retrieval session.

    ``ell1`` and ``ell2`` are the per-sub-protocol file lengths in bits; in
    the multi-file reduction each of the K rounds carries files of exactly
    these lengths.  ``alpha`` is a float, an int or a ``Fraction``.
    """

    n: int
    t_exponent: float
    alpha: float | Fraction
    L1: int = 2
    L2: int = 2
    ell1: int = 0
    ell2: int = 0

    def validate(self) -> None:
        if self.n <= 0:
            raise ConfigurationError("n must be a positive integer")
        if not 0.0 < self.t_exponent < 0.5:
            raise ConfigurationError("t_exponent must lie in (0, 1/2)")
        # A Fraction is bounded by its numerator and (positive) denominator,
        # which every session answer compares faster than the Fraction.
        alpha = self.alpha
        low, high = (alpha.numerator, alpha.denominator) if isinstance(alpha, Fraction) else (alpha, 1)
        if not 0 <= low <= high:
            raise ConfigurationError("alpha must lie in [0, 1]")
        if self.L1 < 2 or self.L2 < 2:
            raise ConfigurationError("each server must hold at least two files")
        if self.ell1 < 0 or self.ell2 < 0:
            raise ConfigurationError("file lengths must be nonnegative")


@dataclass(frozen=True)
class FileStore:
    """Ordered library of equal-length files held by one server.

    ``file_count`` and ``file_length`` are plain attributes, set once the
    files are checked: every session answer reads them.
    """

    server_id: int
    files: tuple[BitString, ...]

    def __post_init__(self):
        if self.server_id not in (1, 2):
            raise ConfigurationError("server_id must be 1 or 2")
        if len(self.files) < 2:
            raise ConfigurationError("a file store needs at least two files")
        lengths = set(map(len, self.files))
        if len(lengths) != 1:
            raise ConfigurationError("all files in a store must have equal length")
        object.__setattr__(self, "file_count", len(self.files))
        object.__setattr__(self, "file_length", lengths.pop())

    def file(self, index: int) -> BitString:
        """File at 1-based index."""
        return self.files[index - 1]


def sample_filestore(server_id: int, count: int, length: int, stream: np.random.Generator) -> FileStore:
    """Sample ``count`` independent uniform files of ``length`` bits from the server's file stream."""
    return FileStore(server_id, tuple(sample_uniform(length, stream) for _ in range(count)))


def trial_seeds(master_seed: int | np.random.SeedSequence, trial: int) -> PartyRandomness:
    """Per-trial party seeds: the trial index appended to the master's spawn key."""
    if isinstance(master_seed, np.random.SeedSequence):
        entropy, key = master_seed.entropy, (*master_seed.spawn_key, trial)
    else:
        entropy, key = master_seed, (trial,)
    sequence = np.random.SeedSequence(np.array(_entropy_words(entropy, key), dtype=np.uint32))
    return PartyRandomness(*sequence.generate_state(3, np.uint64).tolist())


class SessionStreams(NamedTuple):
    """Every party stream of one session, from :func:`block_streams`.

    ``files`` and ``masks`` are per server, a mask stream None for a server
    with two files; ``inputs`` holds both servers' channel-input streams and
    ``partitions`` the client's partition stream, per round.
    """

    selection: np.random.Generator
    files: tuple[np.random.Generator, np.random.Generator]
    masks: tuple[Optional[np.random.Generator], Optional[np.random.Generator]]
    inputs: tuple[tuple[np.random.Generator, np.random.Generator], ...]
    partitions: tuple[np.random.Generator, ...]

    def check(self, L1: int, L2: int) -> None:
        """Refuse streams that are not those of a session of L1 and L2 files."""
        rounds = (L1 - 1) * (L2 - 1)
        if len(self.inputs) != rounds or len(self.partitions) != rounds:
            raise ConfigurationError(
                f"streams for {len(self.inputs)} input and {len(self.partitions)} partition rounds; "
                f"L1={L1}, L2={L2} takes {rounds}"
            )
        if tuple(mask is not None for mask in self.masks) != (L1 > 2, L2 > 2):
            raise ConfigurationError("a server has a mask stream exactly when it holds more than two files")


def _session_keys(L1: int, L2: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(party, spawn key) of every stream of a session of L1 and L2 files,
    in :class:`SessionStreams` field order; party 0 is the client, 1 and 2
    the servers."""
    if L1 < 2 or L2 < 2:
        raise ConfigurationError("each server must hold at least two files")
    rounds = range(1, (L1 - 1) * (L2 - 1) + 1)
    keys = [(0, ()), (1, (0,)), (2, (0,))]
    keys += [(server, (2,)) for server, L in ((1, L1), (2, L2)) if L > 2]
    keys += [(server, (1, k)) for k in rounds for server in (1, 2)]
    keys += [(0, (3, k)) for k in rounds]
    return tuple(keys)


def stream_count(L1: int, L2: int) -> int:
    """How many party streams a session of L1 and L2 files derives."""
    return len(_session_keys(L1, L2))


def block_streams(rnds: Sequence[PartyRandomness], L1: int, L2: int) -> list[SessionStreams]:
    """Every party stream of a block of sessions of L1 and L2 files, one
    session per entry of ``rnds``, in one batched hash."""
    keys = _session_keys(L1, L2)
    pairs = []
    for rnd in rnds:
        seeds = rnd.client_seed, rnd.server1_seed, rnd.server2_seed
        pairs += [(seeds[party], key) for party, key in keys]
    if not pairs:
        return []
    streams = iter(_streams(pairs))
    rounds = range((L1 - 1) * (L2 - 1))
    out = []
    for _ in rnds:
        selection, files = next(streams), (next(streams), next(streams))
        masks = tuple(next(streams) if L > 2 else None for L in (L1, L2))
        inputs = tuple((next(streams), next(streams)) for _ in rounds)
        out.append(SessionStreams(selection, files, masks, inputs, tuple(next(streams) for _ in rounds)))
    return out


def session_streams(rnd: PartyRandomness, L1: int, L2: int) -> SessionStreams:
    """Every party stream of a session of L1 and L2 files: the block of one."""
    return block_streams([rnd], L1, L2)[0]
