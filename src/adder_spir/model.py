"""Shared domain types, seeded randomness, and error classes.

Randomness scheme: each party owns one 64-bit seed, and a sub-stream is the
PCG64 generator of ``numpy.random.SeedSequence(seed, spawn_key=key)``, so a
session is reproducible bit for bit from the seed triple alone.  That
sequence hashes only its assembled entropy: the seed's little-endian uint32
words, zero-padded to the pool size (4) when the key is non-empty, then each
key element's words.  A ``SeedSequence`` of those words as one uint32 array
has the same pool and state and is cheaper to build, so it is the one built
here.  Spawn-key conventions:

* ``()``         the client's selection draw (``run`` and ``sweep`` trials)
* ``(0,)``       file sampling for a server's library
* ``(1, k)``     channel inputs for sub-protocol round ``k`` (1-based)
* ``(2,)``       chaining masks for the multi-file reduction
* ``(3, k)``     the client's share-partition draw for round ``k`` (1-based)
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bits import BitString, sample_uniform

__all__ = [
    "CapacityShortfall",
    "ConfigurationError",
    "FileStore",
    "PartyRandomness",
    "ProtocolParams",
    "Selection",
    "party_stream",
    "sample_filestore",
    "trial_seeds",
]


class ConfigurationError(ValueError):
    """Invalid parameters detected before any channel use."""


class CapacityShortfall(Exception):
    """The realized channel block cannot carry the requested file lengths."""


def _uint32_words(x: int) -> bytes:
    """A nonnegative int as little-endian uint32 words, at least one, as ``SeedSequence`` reads it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("seeds and spawn-key elements must be nonnegative")
    return x.to_bytes(-(-x.bit_length() // 32) * 4 or 4, "little")


def _seed_sequence(entropy: int, key: tuple[int, ...]) -> np.random.SeedSequence:
    """``SeedSequence(entropy, spawn_key=key)``, built from its assembled entropy words."""
    words = _uint32_words(entropy)
    if key:
        words = words.ljust(16, b"\0") + b"".join(map(_uint32_words, key))
    return np.random.SeedSequence(np.frombuffer(words, "<u4"))


def party_stream(seed: int, key: tuple[int, ...] = ()) -> np.random.Generator:
    """Deterministic PCG64 stream for one party, split by spawn key."""
    return np.random.Generator(np.random.PCG64(_seed_sequence(seed, key)))


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


def sample_filestore(server_id: int, count: int, length: int, seed: int) -> FileStore:
    """Sample ``count`` independent uniform files of ``length`` bits."""
    stream = party_stream(seed, (0,))
    return FileStore(server_id, tuple(sample_uniform(length, stream) for _ in range(count)))


def trial_seeds(master_seed: int | np.random.SeedSequence, trial: int) -> PartyRandomness:
    """Per-trial party seeds: the trial index appended to the master's spawn key."""
    if isinstance(master_seed, np.random.SeedSequence):
        entropy, key = master_seed.entropy, (*master_seed.spawn_key, trial)
    else:
        entropy, key = master_seed, (trial,)
    return PartyRandomness(*_seed_sequence(entropy, key).generate_state(3, np.uint64).tolist())
