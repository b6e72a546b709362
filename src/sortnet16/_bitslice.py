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
a network on the first 2**bits inputs.  ``analysis`` checks claims a-d on
the blocks of ``_sweep`` and counts ones on the slices with ``at_least``,
and ``circuits.is_threshold`` evaluates gates on the input slices of the
probe and of the blocks of ``layout``.  ``block_inputs`` builds the input
slices of inputs in index order, for ``evaluate`` and the probe; ``layout``
builds those of the sweep's other blocks, whose lanes are the vectors they
spell out.

The two reductions sweep what the network's first layer can output, not
every input.  The first layer is the comparators whose two wires no earlier
comparator touches; they commute to the front.  After such a comparator on
wires a < b the pair reads 00, 01 or 11, so the full blocks cover
3**k * 2**(width - 2k) inputs for k first-layer pairs: by the zero-one
principle the rest of the network need sort only what the first layer
outputs.

Where those outputs take more than one block, or one block of more than
2**(PROBE_BITS + 1) lanes, a probe of inputs 0 .. 2**PROBE_BITS - 1 comes
first, in index order and through every comparator, so a network that fails
early is refuted at once (``probe_first``).  A smaller single block is swept
without it: a refutation then sweeps at most twice the probe's lanes, and a
pass saves the probe whole.  So no network of 13 wires or fewer takes the
probe, nor does a 16-wire network whose first layer pairs every wire (3**8 =
6,561 lanes); every network of more than 16 wires does.

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

``leq_masks`` tests every ordered pair of distinct wires on a sweep that is
one block with no probe.  Otherwise it starts from every ordered pair,
nearest first.  Every block keeps the pairs that hold on it and skips a pair
that two pairs already verified on that block imply by transitivity; the
walk stops once no pair is left.  On a single block that bookkeeping costs
more than the tests it skips, because no later block re-tests the pairs it
keeps.
"""

from __future__ import annotations

from functools import cache, lru_cache
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
# layer's outputs are many (``probe_first``), so that a network failing early
# is refuted in microseconds.
PROBE_BITS = 12

# The full blocks: at most 2**BLOCK_BITS lanes.
# Chosen from timings of verify + poset on sorters and random networks of 18
# and 20 wires.  Smaller blocks pay more interpreter overhead (2**15 took
# ~19% longer than 2**16).  At 2**17 the C allocator handed the slices a
# call frees back to the system, so each later call faulted ~100 fresh pages
# in and took 10-25% longer; with the once-per-sweep comparators, 2**17 and
# 2**18 blocks ran the kernel 3% and 7% slower than 2**16 even without such
# faults.
# ``block_inputs`` cuts its input slices from one table of BLOCK_BITS
# patterns built on first use, and builds wider ones (only a whole-input
# ``evaluate`` asks for them) per call.  The sweep's product inputs are
# cached for the last few first layers (``_product_inputs``).
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
    later = []
    for a, b in pairs:
        if touched[a] or touched[b]:
            later.append((a, b))
        else:
            partner[a], partner[b] = b, a
        touched[a] = touched[b] = True
    return partner, later


def _top_wires(width: int, partner: Sequence[int]) -> int:
    """Fewest top wires t that leave at most 2**BLOCK_BITS lanes to the
    product over wires t .. width-1."""
    t = 0
    while True:
        k = sum(1 for i in range(t, width) if partner[i] > i)
        if 3**k << (width - t - 2 * k) <= 1 << BLOCK_BITS:
            return t
        t += 1


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


def layout(partner: Sequence[int]) -> tuple[int, int, tuple[int, ...], Iterator[int]]:
    """Full blocks of a sweep over what the first layer ``partner`` outputs:
    the number t of top wires, the lane count, the input slices of the low
    wires, and the top wire values of each block to sweep, as an int whose
    most significant of t bits is wire 0.

    The top values come in order and skip those where a pair inside the top
    wires reads 1, 0.
    """
    width = len(partner)
    t = _top_wires(width, partner)
    links = tuple(p - i if p >= t else 0 for i, p in enumerate(partner[t:], t))
    lanes, low = _product_inputs(links)
    skip = [(t - 1 - a, t - 1 - partner[a]) for a in range(t) if a < partner[a] < t]
    tops = (top for top in range(1 << t) if not any(top >> a & 1 > top >> b & 1 for a, b in skip))
    return t, lanes, low, tops


def probe_first(t: int, lanes: int) -> bool:
    """Does the probe go ahead of a sweep whose layout has ``t`` top wires
    and ``lanes`` lanes per block?  Only where the sweep is more than one
    block or one of more than twice the probe's lanes."""
    return t > 0 or lanes > 2 << PROBE_BITS


def _sweep(
    width: int, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[int] | None, list[int], int]]:
    """(input slices, final slices, all-ones slice) of each block.

    The probe's lanes are inputs 0 .. 2**PROBE_BITS - 1 in index order, and
    its input slices are None; it comes first where ``probe_first`` says
    so.  Every other block's lanes are the input vectors its input slices
    spell out.
    """
    check_width(width)
    partner, later = _first_layer(width, pairs)
    t, lanes, low, tops = layout(partner)
    if probe_first(t, lanes):
        yield None, evaluate(width, pairs, PROBE_BITS), (1 << (1 << PROBE_BITS)) - 1
    full = (1 << lanes) - 1
    # A pair from a top wire to a low one keeps its comparator, ahead of the
    # later ones; a pair inside the top or the low wires is dropped.
    # Comparators no top wire reaches compute the same slices in every
    # block: run them once.
    crossing = [(a, partner[a]) for a in range(t) if partner[a] >= t]
    reached = [i < t for i in range(width)]
    once, each = [], []
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


def _least(inputs: Sequence[int] | None, lanes: int) -> int:
    """Least input index among the set ``lanes`` of a block: narrow them
    wire by wire, to the lanes where the wire reads 0 while any remain."""
    if inputs is None:
        return lowest(lanes)
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


def leq_masks(width: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Per-wire bitmask rows of the always-at-most relation.

    Bit b of row a is set iff no binary input yields wire a = 1, wire b = 0.
    """
    blocks = _sweep(width, pairs)
    inputs, rows, _ = next(blocks)
    if inputs is not None:
        # No probe: this block is the whole sweep, so test every pair on it.
        return [sum(1 << b for b, y in enumerate(rows) if x & y == x) for x in rows]
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
    for rows in chain([rows], (rows for _, rows, _ in blocks)):
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
