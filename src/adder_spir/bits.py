"""Bit strings and the bit-level algebra used by every other module.

Bit strings are immutable.  Each holds its value as a Python int whose most
significant bit is bit 1 of the string, plus an explicit bit length, so
lengths need not be byte multiples and xor, split, join and the int
conversions are plain integer operations.  The packed form (8 bits per
byte, most significant bit first within each byte) is derived on demand;
the unpacked uint8 view is computed once and cached read-only.  All index
sets handed to :meth:`BitString.subselect` are 1-based, matching the
protocol's index conventions; conversion to Python's 0-based indexing
happens only inside this module.  :class:`AffineBits` is the symbolic
subclass the leakage oracle runs the session code on: each value is a
GF(2)-affine function of free bits, and whatever needs a concrete value
raises ``TypeError``.
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = ["AffineBits", "BitString", "sample_uniform"]


def _check_length(length: int) -> int:
    """``length`` as a Python int (numpy integers would overflow the value's shifts)."""
    length = operator.index(length)
    if length < 0:
        raise ValueError("bit length must be nonnegative")
    return length


class BitString:
    """Immutable fixed-length sequence of bits."""

    __slots__ = ("_value", "_length", "_bits")

    def __init__(self, packed: bytes, length: int):
        length = _check_length(length)
        nbytes = (length + 7) // 8
        if len(packed) != nbytes:
            raise ValueError(f"expected {nbytes} bytes for {length} bits, got {len(packed)}")
        pad = -length % 8
        value = int.from_bytes(packed, "big")
        if value & ((1 << pad) - 1):
            raise ValueError("unused trailing bits must be zero")
        self._value = value >> pad
        self._length = length
        self._bits = None

    @classmethod
    def _of(cls, value: int, length: int) -> "BitString":
        """Wrap an int already known to fit ``length`` bits."""
        s = object.__new__(cls)
        s._value = value
        s._length = length
        s._bits = None
        return s

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        arr = np.fromiter((int(b) for b in bits), dtype=np.uint8)
        if arr.size and arr.max() > 1:
            raise ValueError("bits must be 0 or 1")
        return cls.from_array(arr)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "BitString":
        arr = np.asarray(arr, dtype=np.uint8)
        return cls._of(int.from_bytes(np.packbits(arr).tobytes(), "big") >> (-arr.size % 8), arr.size)

    @classmethod
    def zeros(cls, length: int) -> "BitString":
        length = _check_length(length)
        return cls._of(0, length)

    @classmethod
    def ones(cls, length: int) -> "BitString":
        length = _check_length(length)
        return cls._of((1 << length) - 1, length)

    @classmethod
    def from_hex(cls, hex_digits: str, length: int) -> "BitString":
        return cls(bytes.fromhex(hex_digits), length)

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Build from an integer whose MSB is bit 1 of the string."""
        length = _check_length(length)
        if value < 0 or value >> length:
            raise ValueError("value out of range for length")
        return cls._of(value, length)

    def to_hex(self) -> str:
        return self.packed.hex()

    def to_int(self) -> int:
        return self._value

    @property
    def packed(self) -> bytes:
        return (self._value << (-self._length % 8)).to_bytes((self._length + 7) // 8, "big")

    @property
    def bits(self) -> np.ndarray:
        """Unpacked bit values as a read-only uint8 array of length ``len(self)``."""
        if self._bits is None:
            bits = np.unpackbits(np.frombuffer(self.packed, dtype=np.uint8), count=self._length)
            bits.flags.writeable = False
            self._bits = bits
        return self._bits

    def bit(self, index: int) -> int:
        """Bit at 1-based position ``index``."""
        if not 1 <= index <= self._length:
            raise IndexError(f"bit index {index} out of range [1, {self._length}]")
        return (self._value >> (self._length - index)) & 1

    def subselect(self, indices: np.ndarray | Sequence[int]) -> "BitString":
        """Bits at the given 1-based indices, in increasing index order."""
        idx = np.array(indices, dtype=np.int64)
        idx.sort(kind="stable")  # linear on the already sorted sets the protocol passes
        if idx.size == 0:
            return BitString._of(0, 0)
        if idx[0] < 1 or idx[-1] > self._length:
            raise IndexError(f"indices must lie in [1, {self._length}]")
        return BitString.from_array(self.bits[idx - 1])

    def concat(self, other: "BitString") -> "BitString":
        return BitString._of((self._value << other._length) | other._value, self._length + other._length)

    @classmethod
    def join(cls, parts: Sequence["BitString"]) -> "BitString":
        value = length = 0
        for p in parts:
            value = (value << p._length) | p._value
            length += p._length
        return cls._of(value, length)

    def split(self, count: int) -> list["BitString"]:
        """Split into ``count`` equal-length pieces; length must divide evenly."""
        if count <= 0:
            raise ValueError("count must be positive")
        if self._length % count:
            raise ValueError(f"length {self._length} not divisible into {count} parts")
        if count == 1:
            return [self]
        step = self._length // count
        mask = (1 << step) - 1
        return [BitString._of((self._value >> (step * i)) & mask, step) for i in range(count - 1, -1, -1)]

    def __xor__(self, other: "BitString") -> "BitString":
        if self._length != other._length:
            raise ValueError(f"length mismatch in xor: {self._length} vs {other._length}")
        return BitString._of(self._value ^ other._value, self._length)

    def __len__(self) -> int:
        return self._length

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._length == other._length and self._value == other._value

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"BitString('{''.join(map(str, self.bits))}')"
        return f"BitString(len={self._length}, hex={self.to_hex()[:16]}...)"


class AffineBits(BitString):
    """A bit string of at most 64 bits that is a GF(2)-affine function of
    free bits.

    The leakage oracle runs the session code on these.  One holds an offset
    and one column per free bit, ints in the bit order of :class:`BitString`
    values: at an assignment (free bit j is bit j of an int) its value is the
    offset XOR the columns of the set bits.  ``^`` (with a
    :class:`BitString` on either side), :meth:`split`, :meth:`join`,
    :meth:`subselect`, ``len`` and ``==`` act on every column; ``==`` unless
    the two differ by a constant, and whatever needs a concrete value (such
    as ``bits``, and so the channel's ``transmit``), raise ``TypeError``.
    Two values combined by ``^``, ``==`` or :meth:`join` must have the same
    number of free bits (``ValueError`` otherwise).

    The offset and the columns are stored as the 64-bit words of one int,
    the offset lowest.  So ``^``, :meth:`join` and :meth:`split` are one int
    operation each, whatever the number of free bits, and :meth:`words` are
    the columns as little-endian int64s.  The constructor and :meth:`join`
    raise ``ValueError`` past 64 bits, and the other operations cannot
    lengthen a value (:meth:`subselect` of distinct indices).  Every value
    the oracle builds fits: it refuses instances of more than 62 file, mask
    and channel bits.

    A value remembers its :meth:`subselect` per index set, so the oracle's
    replays of one channel sequence under each selection compute the pads
    once.
    """

    __slots__ = ("_words", "_free", "_picks")

    def __init__(self, cols: tuple[int, ...], length: int):
        """``cols`` is the offset, then the column of each free bit, all below 2^length."""
        if length > _WORD:
            raise ValueError(f"an affine bit string holds at most {_WORD} bits, not {length}")
        words = 0
        for c in reversed(cols):
            words = words << _WORD | c
        self._value, self._length, self._bits, self._picks = None, length, None, None
        self._words, self._free = words, len(cols) - 1

    @classmethod
    def _of_words(cls, words: int, free: int, length: int) -> "AffineBits":
        """Wrap 64-bit words already known to fit ``length`` bits each."""
        s = object.__new__(cls)
        s._value, s._length, s._bits, s._picks = None, length, None, None
        s._words, s._free = words, free
        return s

    @property
    def _cols(self) -> tuple[int, ...]:
        """The offset, then the column of each free bit."""
        mask = (1 << _WORD) - 1
        return tuple(self._words >> _WORD * j & mask for j in range(self._free + 1))

    def words(self) -> bytes:
        """The offset and the columns as little-endian 64-bit words."""
        return self._words.to_bytes(8 * (self._free + 1), "little")

    def __xor__(self, other: BitString) -> "AffineBits":
        if self._length != other._length:
            raise ValueError(f"length mismatch in xor: {self._length} vs {other._length}")
        if not isinstance(other, AffineBits):
            return AffineBits._of_words(self._words ^ other._value, self._free, self._length)
        if self._free != other._free:
            _check_columns(self, other)
        return AffineBits._of_words(self._words ^ other._words, self._free, self._length)

    __rxor__ = __xor__

    def split(self, count: int) -> list["AffineBits"]:
        if count == 1:
            return [self]
        if count <= 0 or self._length % count:
            raise ValueError(f"cannot split length {self._length} into {count} equal parts")
        step = self._length // count
        words, free, mask = self._words, self._free, _ones(self._free) * ((1 << step) - 1)
        return [AffineBits._of_words(words >> step * i & mask, free, step) for i in range(count - 1, -1, -1)]

    @classmethod
    def join(cls, parts: Sequence["AffineBits"]) -> "AffineBits":
        if len(parts) == 1:
            return parts[0]
        first = parts[0]
        words, length = first._words, first._length
        for p in parts[1:]:
            if p._free != first._free:
                _check_columns(first, p)
            words = words << p._length | p._words
            length += p._length
        if length > _WORD:
            raise ValueError(f"an affine bit string holds at most {_WORD} bits, not {length}")
        return cls._of_words(words, first._free, length)

    def subselect(self, indices: np.ndarray | Sequence[int]) -> "AffineBits":
        key = np.asarray(indices, dtype=np.int64).tobytes()
        if self._picks is None:
            self._picks = {}
        elif key in self._picks:
            return self._picks[key]
        shifts = [self._length - i for i in sorted(map(int, indices))]
        if shifts and (shifts[0] >= self._length or shifts[-1] < 0):
            raise IndexError(f"indices must lie in [1, {self._length}]")
        ones, words = _ones(self._free), 0
        for s in shifts:
            words = words << 1 | self._words >> s & ones
        self._picks[key] = picked = AffineBits._of_words(words, self._free, len(shifts))
        return picked

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        if isinstance(other, AffineBits):
            _check_columns(self, other)
            difference = self._words ^ other._words
        else:
            difference = self._words ^ other._value
        if self._length != other._length:
            return False
        if difference >> _WORD:
            raise TypeError("affine bit strings whose equality depends on the free bits")
        return not difference

    def _concrete(self, *_args):
        raise TypeError("an affine bit string has no concrete value")

    to_int = bit = concat = to_hex = _concrete
    bits = packed = property(_concrete)
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"AffineBits({self._cols}, {self._length})"


# The word of each column of an AffineBits of at most this many bits.
_WORD = 64


def _ones(free: int) -> int:
    """A 1 at the lowest bit of each of the free + 1 64-bit words."""
    return ((1 << _WORD * (free + 1)) - 1) // ((1 << _WORD) - 1)


def _check_columns(a: AffineBits, b: AffineBits) -> None:
    """Raise unless ``a`` and ``b`` have the same number of free bits."""
    if a._free != b._free:
        raise ValueError(f"free bit count mismatch: {a._free} vs {b._free}")


def sample_uniform(length: int, stream: np.random.Generator) -> BitString:
    """Draw ``length`` independent uniform bits from ``stream``.

    The bits are those of ``stream.bytes(ceil(length / 8))``, and the stream
    is left where ``bytes`` leaves it.  ``bytes`` takes ceil(length / 32)
    words, but at least one, from the PCG64 uint32 stream: the low half of
    each raw 64-bit output, then its high half, which waits in a one-word
    buffer when a draw ends there.  The buffered word and an odd last word
    go through numpy's own uint32 path; the rest is read raw.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    length = operator.index(length)
    bitgen = stream.bit_generator
    buffered = bitgen.state["has_uint32"]
    words = ((length + 31) // 32 or 1) - buffered
    head = _word(stream) if buffered else b""
    body = bitgen.random_raw(words // 2).astype("<u8").tobytes()
    tail = _word(stream) if words % 2 else b""
    packed = (head + body + tail)[: (length + 7) // 8]
    return BitString._of(int.from_bytes(packed, "big") >> (-length % 8), length)


def _word(stream: np.random.Generator) -> bytes:
    """The next word of ``stream``'s uint32 stream, as ``bytes`` lays it out."""
    return int(stream.integers(1 << 32, dtype=np.uint32)).to_bytes(4, "little")
