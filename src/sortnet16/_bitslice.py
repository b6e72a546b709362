"""Bit-sliced evaluation over the whole binary input space, on numpy words.

Each wire carries a 2**width-bit slice, stored as one row of uint64 words:
bit v % 64 of word v // 64 is the value of the wire when the network runs
on input number v.  Input v maps to the vector whose wire-0 bit is the
*most* significant bit of v, so the numeric order of input indices is the
lexicographic order of input vectors.  Below width 6 a slice fills only the
low 2**width bits of its single word; the bits above stay zero.  A
comparator is then one AND plus one OR of two rows.

This is the package's only slice engine: ``verify`` reduces its slices with
``first_unsorted`` and ``leq_masks``, ``circuits`` evaluates gates on the
rows of ``input_patterns``, and ``analysis`` counts ones on the rows of
``evaluate`` with ``at_least``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Widest input space the engine evaluates: width * 2**width / 8 bytes of
# slices, ~218 MB at 26 wires.
MAX_WIDTH = 26

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

# Word pattern of the wire driven by input bit j < 6: bit b is bit j of b.
_LOW_PATTERNS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def check_width(width: int) -> None:
    if not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"width {width} is outside the slice engine's range 0..{MAX_WIDTH}")


def vector_of(index: int, width: int) -> tuple[int, ...]:
    """Binary input vector number ``index``: wire 0 gets the most significant bit."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def full_row(nbits: int) -> np.ndarray:
    """All-ones slice over ``nbits`` inputs, its last word cut to ``nbits``."""
    row = np.full(max(1, -(-nbits // 64)), _ONES)
    if nbits % 64:
        row[-1] = (1 << (nbits % 64)) - 1
    return row


def input_patterns(width: int) -> np.ndarray:
    """Initial slices, one row per wire: bit v of row i is bit (width-1-i) of v."""
    check_width(width)
    full = full_row(1 << width)
    pats = np.empty((width, len(full)), dtype=np.uint64)
    for i in range(width):
        j = width - 1 - i  # bit position of v driving wire i
        if j >= 6:
            # Words alternate in runs of 2**(j-6): all zeros, then all ones.
            runs = pats[i].reshape(-1, 2, 1 << (j - 6))
            runs[:, 0] = 0
            runs[:, 1] = _ONES
        else:
            pats[i] = _LOW_PATTERNS[j]
    pats &= full
    return pats


def at_least(
    rows: Sequence[np.ndarray], full: np.ndarray, k: int | None = None
) -> list[np.ndarray]:
    """Counting slices: entry j marks the inputs on which at least j of
    ``rows`` are 1, for j = 0..k (default: all of them).

    ``full`` is the all-ones slice and is returned as entry 0.
    """
    if k is None:
        k = len(rows)
    counts = [full] + [np.zeros_like(full) for _ in range(k)]
    step = np.empty_like(full)
    for seen, x in enumerate(rows, start=1):
        for j in range(min(k, seen), 0, -1):
            np.bitwise_and(counts[j - 1], x, out=step)
            np.bitwise_or(counts[j], step, out=counts[j])
    return counts


def _evaluate_rows(width: int, lows: Sequence[int], highs: Sequence[int]) -> list[np.ndarray]:
    rows = list(input_patterns(width))
    spare = np.empty_like(rows[0]) if rows else None
    for a, b in zip(lows, highs):
        lo, hi = rows[a], rows[b]
        np.bitwise_and(lo, hi, out=spare)
        np.bitwise_or(lo, hi, out=hi)
        # The minimum now lives in the spare buffer; lo's storage is free.
        rows[a], spare = spare, lo
    return rows


def evaluate(width: int, lows: Sequence[int], highs: Sequence[int]) -> np.ndarray:
    """Final slices, one row per wire, after applying all comparators."""
    rows = _evaluate_rows(width, lows, highs)
    return np.array(rows, dtype=np.uint64).reshape(width, max(1, (1 << width) >> 6))


def first_unsorted(width: int, lows: Sequence[int], highs: Sequence[int]) -> int:
    """Least input index whose output is not non-decreasing, or -1."""
    rows = _evaluate_rows(width, lows, highs)
    if width < 2:
        return -1
    bad = np.zeros_like(rows[0])
    step = np.empty_like(bad)
    for lo, hi in zip(rows, rows[1:]):
        np.bitwise_not(hi, out=step)
        np.bitwise_and(lo, step, out=step)
        np.bitwise_or(bad, step, out=bad)
    return first_set(bad)


def first_set(bits: np.ndarray) -> int:
    """Least input index whose bit is set in the slice ``bits``, or -1."""
    words = np.flatnonzero(bits)
    if len(words) == 0:
        return -1
    word = int(words[0])
    value = int(bits[word])
    return 64 * word + (value & -value).bit_length() - 1


def leq_masks(width: int, lows: Sequence[int], highs: Sequence[int]) -> list[int]:
    """Per-wire bitmask rows of the always-at-most relation.

    Bit b of row a is set iff no binary input yields wire a = 1, wire b = 0.
    """
    rows = _evaluate_rows(width, lows, highs)
    masks = [1 << a for a in range(width)]
    if width < 2:
        return masks
    below = np.empty_like(rows[0])
    step = np.empty_like(below)
    for b in range(width):
        np.bitwise_not(rows[b], out=below)
        for a in range(width):
            if a != b:
                np.bitwise_and(rows[a], below, out=step)
                if not step.any():
                    masks[a] |= 1 << b
    return masks
