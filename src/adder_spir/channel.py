"""Noiseless binary adder channel: two binary inputs, ternary sum output.

Pure functions with no internal state; simultaneous transmission is modeled
as block-synchronous input pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bits import BitString

__all__ = ["ChannelRound", "transmit", "classify_indices", "ternary_to_string", "string_to_ternary"]

# Sorted 1-based positions as an int64 array.
IndexSet = np.ndarray


@dataclass(frozen=True)
class ChannelRound:
    """One block of n channel uses: the two inputs and the observed sums."""

    x1: BitString
    x2: BitString
    y: np.ndarray  # uint8 values in {0, 1, 2}

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=np.uint8))


def transmit(x1: BitString, x2: BitString) -> ChannelRound:
    """Per-symbol integer addition of the two binary inputs."""
    if len(x1) != len(x2):
        raise ValueError(f"input length mismatch: {len(x1)} vs {len(x2)}")
    return ChannelRound(x1, x2, x1.bits + x2.bits)


def classify_indices(y: np.ndarray | Sequence[int]) -> tuple[IndexSet, IndexSet]:
    """Split positions (1-based) into decodable and hidden sets.

    An output of 0 or 2 pins both inputs (0 means both sent 0, 2 means both
    sent 1); an output of 1 leaves the input pair ambiguous.
    """
    arr = np.asarray(y)
    # The uint8 outputs of transmit are checked in place; they cannot be negative.
    if arr.dtype != np.uint8:
        arr = np.asarray(arr, dtype=np.int64)
    if arr.size and (arr.max() > 2 or (arr.dtype != np.uint8 and arr.min() < 0)):
        raise ValueError("channel outputs must lie in {0, 1, 2}")
    hidden = arr == 1
    return (~hidden).nonzero()[0] + 1, hidden.nonzero()[0] + 1


def ternary_to_string(y: np.ndarray) -> str:
    return (np.asarray(y, dtype=np.uint8) + 48).tobytes().decode("ascii")


def string_to_ternary(s: str) -> np.ndarray:
    arr = np.fromiter((int(c) for c in s), dtype=np.uint8, count=len(s))
    if arr.size and arr.max() > 2:
        raise ValueError("ternary string may only contain '0', '1', '2'")
    return arr
