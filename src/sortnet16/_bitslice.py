"""Bit-sliced evaluation over the binary input space.

Each wire carries a slice: bit v is the value of the wire when the network
runs on input number v.  Input v maps to the vector whose wire-0 bit is the
*most* significant bit of v, so the numeric order of input indices is the
lexicographic order of input vectors.  A comparator is then one AND (the
minimum) plus one OR (the maximum) of two slices.

A slice is a Python int: ``evaluate`` returns one per wire, ``analysis``
counts ones on them with ``at_least`` and ``circuits`` evaluates gates on
them.  Only the full sweep inside ``first_unsorted`` and ``leq_masks``,
which runs above PROBE_BITS wires, keeps each slice as a row of numpy
uint64 words (bit v % 64 of word v // 64 is input v): from 2**18 inputs up
in-place AND/OR on words beats int arithmetic, which allocates a new int
per operation.

The two reductions answer for all 2**width inputs without always sweeping
them.  Both first evaluate inputs 0 .. 2**PROBE_BITS - 1 alone.  A failure
found there is the least failing input, since the probed inputs come first,
so ``first_unsorted`` sweeps only when the probe finds none and did not
already cover every input.  ``leq_masks`` tests on the full rows only the
wire pairs the probe did not refute, and skips a pair that two verified
pairs imply by transitivity.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

# Widest input space the engine evaluates: width * 2**width / 8 bytes of
# slices, ~218 MB at 26 wires.
MAX_WIDTH = 26

# Inputs the reductions probe first: 2**PROBE_BITS of them, as ints,
# because an AND of two 4096-bit ints takes ~0.1 us and even the shortest
# numpy call ~1 us.
PROBE_BITS = 12

# Input slices over up to 2**CACHED_BITS inputs are cut from one table
# built on first use (16 ints of 8 KB); wider ones are built per call, so no
# table of more inputs stays in memory.
CACHED_BITS = 16

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def check_width(width: int) -> None:
    if not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"width {width} is outside the slice engine's range 0..{MAX_WIDTH}")


def vector_of(index: int, width: int) -> tuple[int, ...]:
    """Binary input vector number ``index``: wire 0 gets the most significant bit."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def _pattern(j: int, bits: int) -> int:
    """Slice of input bit j over inputs 0 .. 2**bits - 1: runs of 2**j
    zeros, then 2**j ones."""
    s = ((1 << (1 << j)) - 1) << (1 << j)
    size = 2 << j
    while size < 1 << bits:
        # Doubling, not division: big-int division is quadratic.
        s |= s << size
        size <<= 1
    return s


@cache
def _cached_patterns() -> tuple[int, ...]:
    return tuple(_pattern(j, CACHED_BITS) for j in range(CACHED_BITS))


def _patterns(bits: int) -> list[int]:
    """Slices of input bits 0 .. bits-1 over inputs 0 .. 2**bits - 1."""
    if bits > CACHED_BITS:
        return [_pattern(j, bits) for j in range(bits)]
    mask = (1 << (1 << bits)) - 1
    return [p & mask for p in _cached_patterns()[:bits]]


def lowest(bits: int) -> int:
    """Least input index whose bit is set in the slice ``bits``, or -1."""
    return (bits & -bits).bit_length() - 1


def evaluate(
    width: int, lows: Sequence[int], highs: Sequence[int], bits: int | None = None
) -> list[int]:
    """Final slices, one int per wire, over inputs 0 .. 2**bits - 1 (all
    2**width inputs by default)."""
    check_width(width)
    if bits is None:
        bits = width
    # Wire i is driven by input bit width-1-i, constant 0 below 2**bits
    # for the top width-bits wires.
    rows = [0] * (width - bits) + _patterns(bits)[::-1]
    for a, b in zip(lows, highs):
        rows[a], rows[b] = rows[a] & rows[b], rows[a] | rows[b]
    return rows


def at_least(rows: Sequence[int], full: int, k: int | None = None) -> list[int]:
    """Counting slices: entry j marks the inputs on which at least j of
    ``rows`` are 1, for j = 0..k (default: all of them).

    ``full`` is the all-ones slice and is returned as entry 0.
    """
    if k is None:
        k = len(rows)
    counts = [full] + [0] * k
    for seen, x in enumerate(rows, start=1):
        for j in range(min(k, seen), 0, -1):
            counts[j] |= counts[j - 1] & x
    return counts


def _sweep_rows(width: int, lows: Sequence[int], highs: Sequence[int]) -> list[np.ndarray]:
    """Final slices over all inputs as rows of uint64 words, for width >= 6."""
    # One allocation: a row per wire plus the spare each comparator swaps in.
    words = np.empty((width + 1, 1 << (width - 6)), dtype=np.uint64)
    for i in range(width):
        j = width - 1 - i  # bit position of v driving wire i
        if j >= 6:
            # Words alternate in runs of 2**(j-6): all zeros, then all ones.
            runs = words[i].reshape(-1, 2, 1 << (j - 6))
            runs[:, 0] = 0
            runs[:, 1] = _ONES
        else:
            words[i] = _pattern(j, 6)
    *rows, spare = words
    for a, b in zip(lows, highs):
        lo, hi = rows[a], rows[b]
        np.bitwise_and(lo, hi, out=spare)
        np.bitwise_or(lo, hi, out=hi)
        # The minimum now lives in the spare row; lo's storage is free.
        rows[a], spare = spare, lo
    return rows


def first_unsorted(width: int, lows: Sequence[int], highs: Sequence[int]) -> int:
    """Least input index whose output is not non-decreasing, or -1."""
    probe = evaluate(width, lows, highs, min(width, PROBE_BITS))
    bad = 0
    for lo, hi in zip(probe, probe[1:]):
        bad |= lo ^ (lo & hi)
    if bad or width <= PROBE_BITS:
        return lowest(bad)
    rows = _sweep_rows(width, lows, highs)
    bad = np.zeros_like(rows[0])
    step = np.empty_like(bad)
    for lo, hi in zip(rows, rows[1:]):
        np.bitwise_not(hi, out=step)
        np.bitwise_and(lo, step, out=step)
        np.bitwise_or(bad, step, out=bad)
    words = np.flatnonzero(bad)
    if len(words) == 0:
        return -1
    word = int(words[0])
    return 64 * word + lowest(int(bad[word]))


def leq_masks(width: int, lows: Sequence[int], highs: Sequence[int]) -> list[int]:
    """Per-wire bitmask rows of the always-at-most relation.

    Bit b of row a is set iff no binary input yields wire a = 1, wire b = 0.
    """
    probe = evaluate(width, lows, highs, min(width, PROBE_BITS))
    # Candidates: the pairs the probed inputs do not refute, a superset of
    # the answer.  Up to PROBE_BITS wires the probe covered every input.
    cand = [
        sum(1 << b for b in range(width) if b != a and probe[a] & probe[b] == probe[a])
        for a in range(width)
    ]
    if width <= PROBE_BITS or not any(cand):
        return [cand[a] | 1 << a for a in range(width)]
    inv = [sum(1 << a for a in range(width) if cand[a] >> b & 1) for b in range(width)]
    # Test pairs with fewer candidate wires between them first (nearer wires
    # first among equals), so that a pair two verified pairs already imply by
    # transitivity is skipped.  The order affects only how many pairs are tested.
    pairs = sorted(
        ((a, b) for a in range(width) for b in range(width) if cand[a] >> b & 1),
        key=lambda p: ((cand[p[0]] & inv[p[1]]).bit_count(), abs(p[1] - p[0])),
    )
    rows = _sweep_rows(width, lows, highs)
    above = [0] * width  # verified strict relation, by row and by column
    below = [0] * width
    step = np.empty_like(rows[0])
    for a, b in pairs:
        if not above[a] & below[b]:
            np.bitwise_not(rows[b], out=step)
            np.bitwise_and(rows[a], step, out=step)
            if step.any():
                continue
        above[a] |= 1 << b
        below[b] |= 1 << a
    return [above[a] | 1 << a for a in range(width)]
