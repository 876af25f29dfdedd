"""Packed bit strings and the bit-level algebra used by every other module.

Bit strings are immutable, stored packed (8 bits per byte, most significant
bit first within each byte) with an explicit bit length, so lengths need not
be byte multiples.  All index sets handed to :meth:`BitString.subselect` are
1-based, matching the protocol's index conventions; conversion to Python's
0-based indexing happens only inside this module.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = ["BitString", "sample_uniform"]


def _trailing_mask(length: int) -> int:
    rem = length % 8
    if rem == 0:
        return 0xFF
    return (0xFF << (8 - rem)) & 0xFF


class BitString:
    """Immutable fixed-length sequence of bits."""

    __slots__ = ("_packed", "_length")

    def __init__(self, packed: bytes, length: int):
        if length < 0:
            raise ValueError("bit length must be nonnegative")
        nbytes = (length + 7) // 8
        if len(packed) != nbytes:
            raise ValueError(f"expected {nbytes} bytes for {length} bits, got {len(packed)}")
        if nbytes and packed[-1] & ~_trailing_mask(length) & 0xFF:
            raise ValueError("unused trailing bits must be zero")
        self._packed = bytes(packed)
        self._length = length

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        arr = np.fromiter((int(b) for b in bits), dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        return cls(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        arr = np.asarray(arr, dtype=np.uint8)
        return cls(np.packbits(arr).tobytes(), int(arr.size))

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        return cls(bytes((length + 7) // 8), length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        nbytes = (length + 7) // 8
        buf = bytearray(b"\xff" * nbytes)
        if nbytes:
            buf[-1] &= _trailing_mask(length)
        return cls(bytes(buf), length)

    @classmethod
    def from_hex(cls, hex_digits: str, length: int) -> "BitString":
        return cls(bytes.fromhex(hex_digits), length)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build from an integer whose MSB is bit 1 of the string."""
        if value < 0 or value >> length:
            raise ValueError("value out of range for length")
        shifted = value << ((-length) % 8)
        return cls(shifted.to_bytes((length + 7) // 8, "big"), length)

    def to_hex(self) -> str:
        return self._packed.hex()

    def to_int(self) -> int:
        if self._length == 0:
            return 0
        return int.from_bytes(self._packed, "big") >> ((-self._length) % 8)

    @property
    def packed(self) -> bytes:
        return self._packed

    @property
    def bits(self) -> np.ndarray:
        """Unpacked bit values as a uint8 array of length ``len(self)``."""
        if self._length == 0:
            return np.zeros(0, dtype=np.uint8)
        return np.unpackbits(np.frombuffer(self._packed, dtype=np.uint8), count=self._length)

    def bit(self, index: int) -> int:
        """Bit at 1-based position ``index``."""
        if not 1 <= index <= self._length:
            raise IndexError(f"bit index {index} out of range [1, {self._length}]")
        j = index - 1
        return (self._packed[j // 8] >> (7 - j % 8)) & 1

    def subselect(self, indices: np.ndarray | Sequence[int]) -> "BitString":
        """Bits at the given 1-based indices, in increasing index order."""
        idx = np.sort(np.asarray(indices, dtype=np.int64), kind="stable")
        if idx.size == 0:
            return BitString(b"", 0)
        if idx[0] < 1 or idx[-1] > self._length:
            raise IndexError(f"indices must lie in [1, {self._length}]")
        return BitString.from_array(self.bits[idx - 1])

    def concat(self, other: "BitString") -> "BitString":
        if self._length % 8 == 0:
            return BitString(self._packed + other._packed, self._length + other._length)
        return BitString.from_array(np.concatenate([self.bits, other.bits]))

    @classmethod
    def join(cls, parts: Sequence["BitString"]) -> "BitString":
        if not parts:
            return cls(b"", 0)
        return cls.from_array(np.concatenate([p.bits for p in parts]))

    def split(self, count: int) -> list["BitString"]:
        """Split into ``count`` equal-length pieces; length must divide evenly."""
        if count <= 0:
            raise ValueError("count must be positive")
        if self._length % count:
            raise ValueError(f"length {self._length} not divisible into {count} parts")
        step = self._length // count
        arr = self.bits
        return [BitString.from_array(arr[i * step : (i + 1) * step]) for i in range(count)]

    def __xor__(self, other: "BitString") -> "BitString":
        if self._length != other._length:
            raise ValueError(f"length mismatch in xor: {self._length} vs {other._length}")
        a = int.from_bytes(self._packed, "big")
        b = int.from_bytes(other._packed, "big")
        return BitString((a ^ b).to_bytes(len(self._packed), "big"), self._length)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((self._packed, self._length))

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{''.join(map(str, self.bits))}')"
        return f"BitString(len={self._length}, hex={self.to_hex()[:16]}...)"


def sample_uniform(length: int, stream: np.random.Generator) -> BitString:
    """Draw ``length`` independent uniform bits from ``stream``.

    Deterministic given the generator state; consumes ceil(length / 8) bytes.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    nbytes = (length + 7) // 8
    buf = bytearray(stream.bytes(nbytes))
    if nbytes:
        buf[-1] &= _trailing_mask(length)
    return BitString(bytes(buf), length)
