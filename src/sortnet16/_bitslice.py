"""Bit-sliced evaluation over the binary input space.

Each wire carries a slice: bit v is the value of the wire when the network
runs on input number v.  Input v maps to the vector whose wire-0 bit is the
*most* significant bit of v, so the numeric order of input indices is the
lexicographic order of input vectors.  A slice is a Python int, and a
comparator is one AND (the minimum) plus one OR (the maximum) of two slices.

A network reaches the engine as its width and one sequence of
``(low, high)`` wire pairs, ``Network.pairs()``: ``evaluate(width, pairs)``,
``first_unsorted(width, pairs)``, ``leq_masks(width, pairs)``.  ``Network``
has checked the pairs; the engine checks only the width.  ``evaluate`` runs
a network on the first 2**bits inputs.  ``analysis`` counts ones on the
slices with ``at_least``, and ``circuits.is_threshold`` evaluates gates on
the input slices of each block (``blocks``, ``block_inputs``).
``block_inputs`` is the one input builder: ``evaluate`` and the sweeps
take their input slices from it, so it alone states the input numbering.

The two reductions walk the inputs in blocks of two sizes.  Past
PROBE_BITS wires a probe of inputs 0 .. 2**PROBE_BITS - 1 comes first; then
blocks of 2**min(width, BLOCK_BITS) inputs cover all 2**width inputs in
index order, from input 0 again (a verdict is a conjunction over inputs, so
testing some twice changes none).  An evaluation holds at most
width * 2**BLOCK_BITS bits.  In a block of 2**bits inputs the wires driven
by the low ``bits`` input bits get a fixed pattern; the others are constant
over the block, 0 or all ones, and a comparator that meets a constant only
moves slices.  The full blocks share their patterns, and a comparator no
constant reaches computes the same slices in each, so it runs once per
sweep.  ``first_unsorted`` stops at the first block with a failing input:
its least failing input is the least of all.  ``leq_masks`` starts from
every ordered pair of distinct wires, nearest first.  Every block keeps the
pairs that hold on it and skips a pair that two pairs already verified on
that block imply by transitivity; the walk stops once no pair is left.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Sequence

# Widest input space the engine evaluates.  A budget of time, not memory:
# the 26-wire odd-even transposition sorter takes 0.25-0.27 s to verify and
# 0.31-0.36 s for its poset (three runs each, 2-vCPU VM, which runs up
# to ~1.6x slower in its slow spells), and each wire more doubles that.
MAX_WIDTH = 26

# The probe: inputs 0 .. 2**PROBE_BITS - 1, swept first on wider networks so
# that a network failing early is refuted in microseconds.
PROBE_BITS = 12

# The full blocks: 2**BLOCK_BITS inputs, or all of them on fewer wires.
# Chosen from timings of verify + poset on sorters and random networks of 18
# and 20 wires.  Smaller blocks pay more interpreter overhead (2**15 took
# ~19% longer than 2**16).  At 2**17 the C allocator handed the slices a
# call frees back to the system, so each later call faulted ~100 fresh pages
# in and took 10-25% longer; with the once-per-sweep comparators, 2**17 and
# 2**18 blocks ran the kernel 3% and 7% slower than 2**16 even without such
# faults.
# Input slices of every block are cut from one table of BLOCK_BITS patterns
# built on first use; ``block_inputs`` builds wider ones (only a whole-input
# ``evaluate`` asks for them) per call.
BLOCK_BITS = 16


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
def _patterns(bits: int) -> tuple[int, ...]:
    """Slices of input bits bits-1 .. 0 (the wires they drive, in order)
    over inputs 0 .. 2**bits - 1, for bits up to BLOCK_BITS."""
    if bits == BLOCK_BITS:
        return tuple(_pattern(j, bits) for j in reversed(range(bits)))
    mask = (1 << (1 << bits)) - 1
    return tuple(p & mask for p in _patterns(BLOCK_BITS)[BLOCK_BITS - bits :])


def lowest(bits: int) -> int:
    """Least input index whose bit is set in the slice ``bits``, or -1."""
    return (bits & -bits).bit_length() - 1


def evaluate(width: int, pairs: Iterable[tuple[int, int]], bits: int | None = None) -> list[int]:
    """Final slices, one int per wire, over inputs 0 .. 2**bits - 1 (all
    2**width inputs by default)."""
    check_width(width)
    if bits is None:
        bits = width
    full = (1 << (1 << bits)) - 1
    return _compare(block_inputs(width, bits, 0, full), pairs, full)


def _compare(rows: list[int], pairs: Iterable[tuple[int, int]], full: int) -> list[int]:
    """Apply comparators to the slices ``rows`` in place and return them.

    A comparator that meets a constant slice, 0 or ``full``, only moves
    slices.  ``full`` is tested by identity: a computed all-ones slice just
    takes the general path.
    """
    for a, b in pairs:
        x, y = rows[a], rows[b]
        if not x or y is full:
            continue
        if x is full or not y:
            rows[a], rows[b] = y, x
        else:
            rows[a], rows[b] = x & y, x | y
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


def blocks(width: int) -> Iterator[tuple[int, int]]:
    """(bits, start) of each block: the probe, then full blocks from input 0."""
    check_width(width)
    if width > PROBE_BITS:
        yield PROBE_BITS, 0
    bits = min(width, BLOCK_BITS)
    for start in range(0, 1 << width, 1 << bits):
        yield bits, start


def block_inputs(width: int, bits: int, start: int, full: int) -> list[int]:
    """Input slices of the 2**bits inputs from ``start``, one per wire;
    ``full`` is their all-ones slice."""
    # Wire i is driven by input bit width-1-i, which is constant over the
    # block for the top width-bits wires.
    rows = [full if start >> j & 1 else 0 for j in range(width - 1, bits - 1, -1)]
    if bits > BLOCK_BITS:
        rows += [_pattern(j, bits) for j in reversed(range(bits))]
    else:
        rows += _patterns(bits)
    return rows


def _split(
    width: int, pairs: Iterable[tuple[int, int]], bits: int
) -> tuple[list[int], list[tuple[int, int]]]:
    """Slices of wires width-bits .. width-1 after the comparators that no
    constant wire reaches, over inputs 0 .. 2**bits - 1 (the same in every
    block of that size), and the other comparators, in order."""
    reached = [i < width - bits for i in range(width)]
    once, rest = [], []
    for a, b in pairs:
        if reached[a] or reached[b]:
            reached[a] = reached[b] = True
            rest.append((a, b))
        else:
            once.append((a, b))
    return evaluate(width, once, bits)[width - bits :], rest


def _sweep(width: int, pairs: Sequence[tuple[int, int]]) -> Iterator[tuple[int, list[int]]]:
    """(start, final slices) of each block of inputs, in index order."""
    split = None
    for bits, start in blocks(width):
        full = (1 << (1 << bits)) - 1
        rows, rest = block_inputs(width, bits, start, full), pairs
        if bits == BLOCK_BITS:
            if split is None:
                split = _split(width, pairs, bits)
            rows[width - bits :], rest = split
        yield start, _compare(rows, rest, full)


def first_unsorted(width: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Least input index whose output is not non-decreasing, or -1."""
    for start, rows in _sweep(width, pairs):
        bad = [lo ^ m for lo, hi in zip(rows, rows[1:]) if (m := lo & hi) != lo]
        if bad:
            return start + min(map(lowest, bad))
    return -1


def leq_masks(width: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per-wire bitmask rows of the always-at-most relation.

    Bit b of row a is set iff no binary input yields wire a = 1, wire b = 0.
    """
    check_width(width)
    # Nearest first, ties by (a, b), so the two shorter pairs through a wire
    # between a and b are tested before (a, b) and may settle it.  The order
    # affects only how many pairs are tested.
    leq = [
        (a, b)
        for d in range(1, width)
        for a in range(width)
        for b in (a - d, a + d)
        if 0 <= b < width
    ]
    for _, rows in _sweep(width, pairs):
        above = [0] * width  # pairs verified on this block, by row and by column
        below = [0] * width
        kept = []
        for a, b in leq:
            if above[a] & below[b] or rows[a] & rows[b] == rows[a]:
                above[a] |= 1 << b
                below[b] |= 1 << a
                kept.append((a, b))
        leq = kept
        if not leq:
            break
    masks = [1 << a for a in range(width)]
    for a, b in leq:
        masks[a] |= 1 << b
    return masks
