"""Bit-sliced evaluation over the binary input space.

Each wire carries a slice: bit v is the value of the wire when the network
runs on input number v.  Input v maps to the vector whose wire-0 bit is the
*most* significant bit of v, so the numeric order of input indices is the
lexicographic order of input vectors.  A slice is a Python int, and a
comparator is one AND (the minimum) plus one OR (the maximum) of two slices.

A network reaches the engine as its width and one sequence of
``(low, high)`` wire pairs, ``Network.pairs()``: ``first_unsorted(width,
pairs)`` and ``leq_masks(width, pairs)``.  ``Network`` has checked the
pairs; the engine checks only the width.  Only ``_sweep`` reads
``layouts``; ``analysis`` (claims a-d) and ``circuits.is_threshold`` read
its blocks and count ones with ``at_least``.  Every input slice is built by
``_product_inputs``, and a block's lanes are the vectors its input slices
spell out.

The two reductions sweep what the network's first layer can output, not
every input.  The first layer is the comparators whose two wires no earlier
comparator touches; they commute to the front.  After such a comparator on
wires a < b the pair reads 00, 01 or 11, so the full blocks cover
3**k * 2**(width - 2k) inputs for k first-layer pairs: by the zero-one
principle the rest of the network need sort only what the first layer
outputs.

``layouts`` alone decides how a sweep is cut.  Where the first layer has
more than 2**(PROBE_BITS + 1) outputs (so in every sweep of more than one
block), a probe of inputs 0 .. 2**PROBE_BITS - 1 comes first, in index
order and through every comparator, so a network that fails early is
refuted at once.  A smaller single block is swept without it: a
refutation then sweeps at most twice the probe's lanes, and a pass saves the
probe whole.  So no network of 13 wires or fewer takes the probe, nor does a
16-wire network whose first layer pairs every wire (3**8 = 6,561 lanes);
every network of more than 16 wires does, since even a first layer that
pairs every wire leaves 3**8 * 2 = 13,122 lanes at 17.

Each full block fixes the top t wires, t the fewest that leave at most
2**BLOCK_BITS lanes, and its lanes are a mixed-radix product over the low
wires.  A first-layer pair with both wires low is one radix-3 digit (00, 01,
11) and its comparator is dropped; every other low wire is one radix-2
digit, and a pair from a top wire to a low one keeps its comparator.  A
block in which a pair inside the top wires reads 1, 0 is skipped: the block
with the pair swapped has the same outputs.  Blocks come in index order of
their top wires.  Comparators no top wire reaches compute the same slices in
every block, so they run once per sweep.  An evaluation holds at most
width * 2**BLOCK_BITS bits.

``first_unsorted`` stops at the first block with a failing lane.  The least
failing input is a fixed point of the first layer (turning 1, 0 into 0, 1 on
a pair lowers the input and keeps the output), so that block holds it.  Lane
order is not index order when first-layer pairs interleave, so the failing
lanes are narrowed through the input slices in wire order, to those where
the wire reads 0 while any are left.

``leq_masks`` tests every ordered pair of wires on the first block.  If
another block follows, it walks the pairs that hold there, nearest first:
every later block keeps the pairs that hold on it and skips a pair that two
pairs already verified on that block imply by transitivity; the walk stops
once no pair is left.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator, Sequence

# Widest input space the engine evaluates.  A budget of time, not memory.
# The slowest sweep is of a network whose first layer is one comparator, 3/4
# of all inputs: the 26-wire odd-even transposition sorter behind a chain
# (0, 1), (1, 2), .. (24, 25), or (24, 25), (23, 24), .. (0, 1), takes
# 0.16-0.26 s to verify and 0.21-0.43 s for its poset (three runs each,
# 2-vCPU VM, which runs up to ~1.6x slower in its slow spells), and each
# wire more doubles that.  The sorter alone takes 4-7 ms.
MAX_WIDTH = 26

# The probe: inputs 0 .. 2**PROBE_BITS - 1, swept first where the first
# layer's outputs are many (``layouts``), so that a network failing early is
# refuted in microseconds.
PROBE_BITS = 12

# The full blocks: at most 2**BLOCK_BITS lanes.
# Chosen from timings of verify + poset on sorters and random networks of 18
# and 20 wires.  Smaller blocks pay more interpreter overhead (2**15 took
# ~19% longer than 2**16).  At 2**17 the C allocator handed the slices a
# call frees back to the system, so each later call faulted ~100 fresh pages
# in and took 10-25% longer; with the once-per-sweep comparators, 2**17 and
# 2**18 blocks ran the kernel 3% and 7% slower than 2**16 even without such
# faults.
# The sweep's input slices are cached for the last few first layers and the
# probe (``_product_inputs``).
BLOCK_BITS = 16


def check_width(width: int) -> None:
    if not 0 <= width <= MAX_WIDTH:
        raise ValueError(f"width {width} is outside the slice engine's range 0..{MAX_WIDTH}")


def vector_of(index: int, width: int) -> tuple[int, ...]:
    """Binary input vector number ``index``: wire 0 gets the most significant bit."""
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def lowest(bits: int) -> int:
    """Least input index whose bit is set in the slice ``bits``, or -1."""
    return (bits & -bits).bit_length() - 1


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


def _first_layer(
    width: int, pairs: Iterable[tuple[int, int]]
) -> tuple[list[int], list[tuple[int, int]]]:
    """Partner of each wire in the first layer (-1 if none), and the later
    comparators in order.

    The first layer is the comparators whose two wires no earlier
    comparator touches; they commute to the front of the network.
    """
    partner = [-1] * width
    touched = [False] * width
    untouched = width
    later = []
    rest = iter(pairs)
    for a, b in rest:
        if touched[a] or touched[b]:
            later.append((a, b))
            if touched[a] and touched[b]:
                continue
            untouched -= 1
        else:
            partner[a], partner[b] = b, a
            untouched -= 2
        touched[a] = touched[b] = True
        if not untouched:
            # Every wire is touched: the rest are later comparators.
            later.extend(rest)
            break
    return partner, later


@lru_cache(maxsize=8)
def _product_inputs(links: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Lane count and input slices of the low wires over the lanes of
    their mixed-radix product.

    ``links[i]`` is j - i when low wires i < j form a first-layer pair, a
    radix-3 digit (00, 01, 11); i - j on wire j; 0 on a radix-2 digit.
    The digit of the first wire is the most significant.
    """
    rows = [0] * len(links)
    lanes = 1
    for i in reversed(range(len(links))):
        d = links[i]
        if d < 0:
            continue
        # The digit's value counts in steps of ``lanes``: repeat the less
        # significant digits once per value.
        radix = 3 if d else 2
        rows[i + 1 :] = [r | r << lanes | (r << 2 * lanes if d else 0) for r in rows[i + 1 :]]
        rows[i] = ((1 << lanes) - 1) << (radix - 1) * lanes
        if d:
            rows[i + d] = ((1 << 2 * lanes) - 1) << lanes
        lanes *= radix
    return lanes, tuple(rows)


def layouts(
    partner: Sequence[int],
) -> Iterator[tuple[bool, int, int, tuple[int, ...], Iterable[int]]]:
    """Parts of a sweep over what the first layer ``partner`` outputs: the
    probe where it is needed, then the full blocks.  Each part is (is it
    the probe, the number t of top wires, the lane count, the input slices
    of the low wires, the top wire values of each block to sweep as an int
    whose most significant of t bits is wire 0).

    The probe's top wires read 0 and its low wires are PROBE_BITS radix-2
    digits, which is index order.  The full blocks' top values come in
    order and skip those where a pair inside the top wires reads 1, 0.
    """
    width = len(partner)
    k = sum(1 for i, p in enumerate(partner) if p > i)
    lanes = 3**k << (width - 2 * k)
    if lanes > 2 << PROBE_BITS:
        yield (True, width - PROBE_BITS, *_product_inputs((0,) * PROBE_BITS), (0,))
    # Found only once the probe has passed: a network refuted inside it
    # pays for neither the top wires nor the product.  t is the fewest top
    # wires that leave at most 2**BLOCK_BITS lanes; a wire that turns top
    # takes a radix-3 digit down to its partner's radix-2 one, or a radix-2
    # digit away.
    t = 0
    while lanes > 1 << BLOCK_BITS:
        lanes = lanes // 3 * 2 if partner[t] > t else lanes >> 1
        t += 1
    links = tuple(p - i if p >= t else 0 for i, p in enumerate(partner[t:], t))
    skip = [(t - 1 - a, t - 1 - partner[a]) for a in range(t) if a < partner[a] < t]
    tops = (top for top in range(1 << t) if not any(top >> a & 1 > top >> b & 1 for a, b in skip))
    yield (False, t, *_product_inputs(links), tops)


def _sweep(
    width: int, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[int], list[int], int]]:
    """(input slices, final slices, all-ones slice) of each block of the
    parts of ``layouts``.  A block's lanes are the input vectors its input
    slices spell out."""
    check_width(width)
    partner, later = _first_layer(width, pairs)
    for probe, t, lanes, low, tops in layouts(partner):
        full = (1 << lanes) - 1
        # The probe runs every comparator.  Elsewhere a pair from a top wire
        # to a low one keeps its comparator, ahead of the later ones, and a
        # pair inside the top or the low wires is dropped.  Comparators no
        # top wire reaches compute the same slices in every block: run them
        # once.
        once, each = [], []
        if probe:
            each = pairs
        else:
            crossing = [(a, partner[a]) for a in range(t) if partner[a] >= t]
            reached = [i < t for i in range(width)]
            for a, b in crossing + later:
                if reached[a] or reached[b]:
                    reached[a] = reached[b] = True
                    each.append((a, b))
                else:
                    once.append((a, b))
        swept = _compare([0] * t + list(low), once, full)[t:]
        for top in tops:
            rows = [full if top >> j & 1 else 0 for j in range(t - 1, -1, -1)]
            yield rows + list(low), _compare(rows + swept, each, full), full


def _least(inputs: Sequence[int], lanes: int) -> int:
    """Least input index among the set ``lanes`` of a block: narrow them
    wire by wire, to the lanes where the wire reads 0 while any remain."""
    index = 0
    for s in inputs:
        zero = lanes ^ (lanes & s)
        index <<= 1
        if zero:
            lanes = zero
        else:
            index |= 1
    return index


def first_unsorted(width: int, pairs: Sequence[tuple[int, int]]) -> int:
    """Least input index whose output is not non-decreasing, or -1."""
    for inputs, rows, _ in _sweep(width, pairs):
        bad = 0
        for lo, hi in zip(rows, rows[1:]):
            if (m := lo & hi) != lo:
                bad |= lo ^ m
        if bad:
            return _least(inputs, bad)
    return -1


@lru_cache(maxsize=None)
def _nearest_first(width: int) -> tuple[tuple[int, int], ...]:
    """Every ordered pair of distinct wires, nearest first, ties by (a, b),
    so the two shorter pairs through a wire between a and b come before
    (a, b) and may settle it.  The order affects only how many pairs
    ``leq_masks`` tests."""
    return tuple(
        (a, b)
        for d in range(1, width)
        for a in range(width)
        for b in (a - d, a + d)
        if 0 <= b < width
    )


def leq_masks(width: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per-wire bitmask rows of the always-at-most relation.

    Bit b of row a is set iff no binary input yields wire a = 1, wire b = 0.
    """
    blocks = _sweep(width, pairs)
    _, rows, _ = next(blocks)
    masks = [sum(1 << b for b, y in enumerate(rows) if x & y == x) for x in rows]
    # A later block can only refute pairs that hold on this one.
    second = None if masks == [1 << a for a in range(width)] else next(blocks, None)
    if second is None:
        return masks
    leq = [(a, b) for a, b in _nearest_first(width) if masks[a] >> b & 1]
    for _, rows, _ in chain([second], blocks):
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
