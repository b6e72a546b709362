"""Bit-sliced evaluation over the binary input space.

Each wire carries a slice: bit v is the value of the wire when the network
runs on input number v.  Input v maps to the vector whose wire-0 bit is the
*most* significant bit of v, so the numeric order of input indices is the
lexicographic order of input vectors.  A slice is a Python int, and a
comparator is one AND (the minimum) plus one OR (the maximum) of two slices.

A network reaches the engine as its width and one sequence of
``(low, high)`` wire pairs, those ``Network`` checked and kept on
construction: ``first_unsorted(width, pairs)`` and ``leq_masks(width,
pairs)``.  The engine checks only the width.  ``_sweep`` cuts and runs
every sweep; ``analysis`` (claims a-d) and ``circuits.is_threshold`` read
its blocks too, and count with ``count`` (each lane's number of ones, as
bit planes) and ``at_least`` (those numbers against a constant).

A sweep covers what the network's first layer can output, not every
input.  The first layer is the comparators whose two wires no earlier
comparator touches; they commute to the front.  After such a comparator on
wires a < b the pair reads 00, 01 or 11, so the full blocks cover
3**k * 2**(width - 2k) inputs for k first-layer pairs: by the zero-one
principle the rest of the network need sort only what the first layer
outputs.  A verdict that depends only on the network's outputs (sorting,
wire order, claims a-d) fails first on a fixed point of the first layer:
turning 1, 0 into 0, 1 on a first-layer pair lowers the input and keeps the
output.  The blocks cover those fixed points in index order of their top
wires, so the first block that fails holds the least failing input.  A
circuit's front comparators (``circuits._front_pairs``) stand for a first
layer: swapping such a pair changes no gate's value, and a threshold
function is symmetric, so ``is_threshold`` sweeps the same blocks.

``_sweep`` alone decides how a sweep is cut.  Where the first layer has
more than 2**(PROBE_BITS + 1) outputs (so in every sweep of more than one
block), a probe of inputs 0 .. 2**PROBE_BITS - 1 comes first, in index
order and through every comparator, so a network that fails early is
refuted at once, before the product is built.  A smaller single block is
swept without it: a refutation then sweeps at most twice the probe's lanes,
and a pass saves the probe whole.  So no network of 13 wires or fewer takes
the probe, nor does a 16-wire network whose first layer pairs every wire
(3**8 = 6,561 lanes); every network of more than 16 wires does, since even
a first layer that pairs every wire leaves 3**8 * 2 = 13,122 lanes at 17.

Each full block fixes the top t wires, t the fewest that leave at most
2**BLOCK_BITS lanes, and its lanes are a mixed-radix product over the low
wires.  A first-layer pair with both wires low is one radix-3 digit (00, 01,
11) and its comparator is dropped; every other low wire is one radix-2
digit, and a pair from a top wire to a low one keeps its comparator.  A
block in which a pair inside the top wires reads 1, 0 is skipped: the block
with the pair swapped has the same outputs.  Blocks come in index order of
their top wires.  An evaluation holds at most width * 2**BLOCK_BITS bits.

``first_unsorted`` stops at the first block with a failing lane.  Lane
order is not index order when first-layer pairs interleave, so the failing
lanes are narrowed through the input slices in wire order, to those where
the wire reads 0 while any are left (``_least``).

``leq_masks`` walks the ordered pairs of wires nearest first, on every
block from the first: each block keeps the pairs that hold on it and skips a
pair that two pairs already verified on that block imply by transitivity;
the walk stops once no pair is left.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, Sequence

# Widest input space the engine evaluates.  A budget of time, not memory.
# The slowest sweep is of a network whose first layer is one comparator, 3/4
# of all inputs: behind a chain (0, 1), (1, 2), .. (24, 25), or the same
# chain from the bottom, the 26-wire odd-even transposition sorter takes
# 0.16-0.22 s to verify and 0.21-0.30 s for its poset (nine runs each, one
# sitting, 2-vCPU VM, up to ~1.6x slower in its slow spells); each wire more
# doubles that.  The sorter alone takes 6-11 ms.
MAX_WIDTH = 26

# The probe: inputs 0 .. 2**PROBE_BITS - 1, swept first where the first
# layer's outputs are many (``_sweep``), so that a network failing early is
# refuted in microseconds.
PROBE_BITS = 12

# The full blocks: at most 2**BLOCK_BITS lanes.
# Chosen from timings of verify + poset on sorters and random networks of 18
# and 20 wires.  Smaller blocks pay more interpreter overhead (2**15 took
# ~19% longer than 2**16).  At 2**17 the C allocator handed the slices a
# call frees back to the system, so each later call faulted ~100 fresh pages
# in and took 10-25% longer; 2**17 and 2**18 blocks also ran the kernel 3%
# and 7% slower than 2**16 even without such faults.
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


def count(rows: Iterable[int]) -> list[int]:
    """Bit planes, least significant first, of the number of ``rows`` that
    read 1 on each lane: bit v of plane t is bit t of that number on lane v.

    Full adders, as in a carry-save (Wallace) tree: at each weight a running
    sum takes the rows two at a time, each full adder passing its carry on
    to the next weight, and a half adder takes a row left over; the sum left
    is that weight's plane.  n rows give n.bit_length() planes in about 4n
    operations (63 for 16 rows).
    """
    planes = []
    column = list(rows)
    while column:
        rest = iter(column)
        s = next(rest)
        carries = []
        for a, b in zip(rest, rest):
            t = a ^ b
            carries.append(a & b | s & t)
            s ^= t
        if not len(column) & 1:
            # One row is left over: a half adder.
            b = column[-1]
            carries.append(s & b)
            s ^= b
        planes.append(s)
        column = carries
    return planes


def at_least(planes: Sequence[int], c: int, full: int) -> int:
    """Lanes whose number, bit t in ``planes[t]`` (as ``count`` gives it),
    is at least ``c``; ``full`` is the all-ones slice.

    From the lowest set bit of ``c`` up, ``ge`` marks the lanes whose bits
    so far read at least those of ``c``: where ``c`` has a 1 a lane needs
    that bit and ``ge``, where it has a 0 either one.
    """
    if c <= 0:
        return full
    if c >> len(planes):
        return 0
    low = (c & -c).bit_length() - 1
    ge = planes[low]  # below bit low, c reads 0
    for t in range(low + 1, len(planes)):
        ge = planes[t] & ge if c >> t & 1 else planes[t] | ge
    return ge


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


def _sweep(
    width: int, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[int], list[int], int]]:
    """(input slices, final slices, all-ones slice) of each block: the probe
    where it is needed, then the full blocks.  Every input slice is built by
    ``_product_inputs``; a block's lanes are the vectors they spell out."""
    check_width(width)
    partner, later = _first_layer(width, pairs)
    k = sum(1 for i, p in enumerate(partner) if p > i)
    lanes = 3**k << (width - 2 * k)
    if lanes > 2 << PROBE_BITS:
        # The top wires read 0 and the low wires are PROBE_BITS radix-2
        # digits, which is index order; every comparator runs.
        full = (1 << (1 << PROBE_BITS)) - 1
        rows = [0] * (width - PROBE_BITS) + list(_product_inputs((0,) * PROBE_BITS)[1])
        yield rows, _compare(rows[:], pairs, full), full
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
    lanes, low = _product_inputs(links)
    full = (1 << lanes) - 1
    # A pair from a top wire to a low one keeps its comparator, ahead of the
    # later ones, and a pair inside the top or the low wires is dropped.
    pairs = [(a, partner[a]) for a in range(t) if partner[a] >= t] + later
    skip = [(t - 1 - a, t - 1 - partner[a]) for a in range(t) if a < partner[a] < t]
    for top in range(1 << t):
        if any(top >> a & 1 > top >> b & 1 for a, b in skip):
            continue
        rows = [full if top >> j & 1 else 0 for j in range(t - 1, -1, -1)]
        rows += low
        yield rows, _compare(rows[:], pairs, full), full


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
    check_width(width)
    leq = _nearest_first(width)
    for _, rows, _ in _sweep(width, pairs):
        # Pairs verified on this block, by row and by column.  A block visits
        # each pair once, so a wire's own bit never makes a pair look implied.
        above = [1 << a for a in range(width)]
        below = above[:]
        kept = []
        for a, b in leq:
            if above[a] & below[b] or rows[a] & rows[b] == rows[a]:
                above[a] |= 1 << b
                below[b] |= 1 << a
                kept.append((a, b))
        leq = kept
        if not leq:
            break
    return above
