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

The two reductions answer for all 2**width inputs without always sweeping
them.  Both first run the network on inputs 0 .. 2**PROBE_BITS - 1 alone,
one Python int per wire, numbered as above.  A failure found there is the
least failing input, since the probed inputs come first, so
``first_unsorted`` sweeps the rows only when the probe finds none and did
not already cover every input.  ``leq_masks`` tests on the full rows only
the wire pairs the probe did not refute, and skips a pair that two verified
pairs imply by transitivity.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

# Widest input space the engine evaluates: width * 2**width / 8 bytes of
# slices, ~218 MB at 26 wires.
MAX_WIDTH = 26

# Inputs the reductions probe first: 2**PROBE_BITS of them, on Python ints,
# because an AND of two 4096-bit ints takes ~0.1 us and even the shortest
# numpy call ~1 us.
PROBE_BITS = 12

# Probe slice of input bit j: runs of 2**j zeros, then 2**j ones.
_PROBE_PATTERNS = tuple(
    ((1 << (1 << PROBE_BITS)) - 1) // ((1 << (1 << j)) + 1) << (1 << j)
    for j in range(PROBE_BITS)
)

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


def _probe(width: int, lows: Sequence[int], highs: Sequence[int]) -> list[int]:
    """Wire values on inputs 0 .. 2**min(width, PROBE_BITS) - 1, one Python
    int per wire: bit v is the wire's value on input v, numbered as in
    ``input_patterns``."""
    bits = min(width, PROBE_BITS)
    full = (1 << (1 << bits)) - 1
    rows = [0] * (width - bits)
    rows += [_PROBE_PATTERNS[j] & full for j in range(bits - 1, -1, -1)]
    for a, b in zip(lows, highs):
        rows[a], rows[b] = rows[a] & rows[b], rows[a] | rows[b]
    return rows


def first_unsorted(width: int, lows: Sequence[int], highs: Sequence[int]) -> int:
    """Least input index whose output is not non-decreasing, or -1."""
    check_width(width)
    probe = _probe(width, lows, highs)
    bad = 0
    for lo, hi in zip(probe, probe[1:]):
        bad |= lo & ~hi
    if bad:
        return (bad & -bad).bit_length() - 1
    if width <= PROBE_BITS:
        return -1
    rows = _evaluate_rows(width, lows, highs)
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
    check_width(width)
    probe = _probe(width, lows, highs)
    # Candidates: the pairs the probed inputs do not refute, a superset of
    # the answer.  Up to PROBE_BITS wires the probe covered every input.
    cand = [
        sum(1 << b for b in range(width) if b != a and not probe[a] & ~probe[b])
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
    rows = _evaluate_rows(width, lows, highs)
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
