"""The classic 16-input sorters, rebuilt from their structural blocks.

Both networks open with an approximate-sorting phase that orders the 16
wires into the partial order of the 4-dimensional Boolean cube: wire i sits
above wire j exactly when j's index bitmask is a subset of i's.  Cube layer
k holds the wires of popcount k, so the extremes are pinned immediately and
the middle of the order is confined to a small candidate set:

* the two largest values can only sit on the popcount-3 wires, and the two
  smallest on the popcount-1 wires;
* the six medial values are confined to the 8-wire set M: the popcount-2
  wires plus the minimum of layer III (wire 7 after sorting that layer) and
  the maximum of layer I (wire 8).

Sorting layers I and III with 5-comparator blocks, sorting M, and comparing
wire pairs (3,4) and (11,12) then completes the sort.  The two classic
networks differ only in how they sort M:

* ``green16``   : 3 pair comparisons, two sorted tetrads, 3-comparator
  merge; 60 comparators, depth 10.
* ``van_voorhis16``: the same 3 pairs, a second round of 3 pair
  comparisons, two sorted tetrads, single medial comparison; 61
  comparators, depth 9.

``batcher_sorter`` provides Batcher's odd-even mergesort as a baseline.
"""

from __future__ import annotations

from .network import Network, Phase, concat, embed

# Cube layers of the width-16 approximate phase (popcount of the wire index).
CUBE_LAYER1 = (1, 2, 4, 8)
CUBE_LAYER3 = (7, 11, 13, 14)
MIDDLE_LAYER = (3, 5, 6, 9, 10, 12)
# M = middle layer + min of sorted layer III (wire 7) + max of sorted layer I
# (wire 8); the six medial values always land inside this set.
M_WIRES = (3, 5, 6, 7, 8, 9, 10, 12)

# Wire homes of the two tetrads sorted during the M phase.
UPPER_TETRAD = (7, 9, 10, 12)
LOWER_TETRAD = (3, 5, 6, 8)


def hypercube_phase(n: int) -> Network:
    """Approximate sorting of 2**n wires into the Boolean cube order.

    Round k compares (i, i + 2**k) for every wire i whose bit k is clear:
    n rounds of 2**(n-1) disjoint comparators each, so depth n and size
    n * 2**(n-1).  ``n`` is at most 6: 64 wires, the widest network
    ``render_diagram`` draws.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"hypercube phase needs 1 <= n <= 6, got {n}")
    width = 1 << n
    comps = []
    for k in range(n):
        step = 1 << k
        comps.extend((i, i + step) for i in range(width) if not i & step)
    return Network(width, tuple(comps))


def sorter4() -> Network:
    """The 5-comparator, depth-3 sorter of 4 wires.

    Its first two layers (4 comparators) already pin the minimum on wire 0
    and the maximum on wire 3; only the middle pair needs the third layer.
    """
    return Network(4, ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)))


def _shared_blocks() -> tuple[Network, ...]:
    """Prefix common to both 16-input sorters: cube phase, layer sorters,
    first pair round."""
    approx = hypercube_phase(4).tagged(Phase.APPROX)
    layer1 = embed(sorter4(), CUBE_LAYER1, 16).tagged(Phase.LAYER1)
    layer3 = embed(sorter4(), CUBE_LAYER3, 16).tagged(Phase.LAYER3)
    # Each pair couples a middle-layer wire with the complementary one so
    # that together they neighbour all of layers I and III: winners beat
    # every lower-layer wire, losers lose to every upper-layer one.
    pairs = Network(16, ((3, 12), (5, 10), (6, 9))).tagged(Phase.PAIRS)
    return approx, layer1, layer3, pairs


def _tetrad_blocks() -> tuple[Network, Network]:
    upper = embed(sorter4(), UPPER_TETRAD, 16).tagged(Phase.TETRAD_A)
    lower = embed(sorter4(), LOWER_TETRAD, 16).tagged(Phase.TETRAD_B)
    return upper, lower


def _final_block() -> Network:
    # Max of M against the third element of layer III, min of M against the
    # third element of layer I (counted from the bottom).
    return Network(16, ((3, 4), (11, 12))).tagged(Phase.FINAL)


def _green(merge: tuple[tuple[int, int], ...]) -> Network:
    """Green's network with the three tetrad-merge comparators in the given order."""
    merge_block = Network(16, merge).tagged(Phase.MERGE)
    return concat(*_shared_blocks(), *_tetrad_blocks(), merge_block, _final_block())


def green16() -> Network:
    """Green's 16-input sorter: 60 comparators, depth 10.

    After the shared prefix, the upper tetrad {7, 9, 10, 12} and lower
    tetrad {3, 5, 6, 8} are sorted and merged with three comparators.  The
    merge runs (7, 8) first: those two wires settle one layer earlier than
    their neighbours, so leading with them saves a layer overall.
    """
    return _green(((7, 8), (6, 7), (8, 9)))


def green16_naive_merge() -> Network:
    """green16 with the merge done bottom-up; functionally identical but
    deeper, kept as the regression witness for the merge ordering."""
    return _green(((6, 7), (7, 8), (8, 9)))


def van_voorhis16() -> Network:
    """van Voorhis's 16-input sorter: 61 comparators, depth 9.

    Instead of waiting for wires 7 and 8 (ready one layer later than the
    other M wires), a second pair round compares (5, 12), (6, 10), (3, 9)
    immediately.  Each tetrad member then dominates three members of the
    other tetrad, so after sorting both tetrads a single comparison of the
    medial pair (7, 8) finishes M.
    """
    upper, lower = _tetrad_blocks()
    pairs2 = Network(16, ((5, 12), (6, 10), (3, 9))).tagged(Phase.PAIRS2)
    merge = Network(16, ((7, 8),)).tagged(Phase.MERGE)
    return concat(
        *_shared_blocks(), pairs2, upper, lower, merge, _final_block()
    )


_BATCHER_SIZES = (2, 4, 8, 16, 32)


def batcher_sorter(n: int) -> Network:
    """Batcher's odd-even mergesort network for n inputs (n a power of two,
    2..32)."""
    if n not in _BATCHER_SIZES:
        raise ValueError(f"supported sizes: {_BATCHER_SIZES}, got {n}")
    return Network(n, tuple(_oddeven_sort(0, n - 1)))


def _oddeven_sort(lo, hi):
    if hi - lo >= 1:
        mid = lo + (hi - lo) // 2
        yield from _oddeven_sort(lo, mid)
        yield from _oddeven_sort(mid + 1, hi)
        yield from _oddeven_merge(lo, hi, 1)


def _oddeven_merge(lo, hi, r):
    step = r * 2
    if step < hi - lo:
        yield from _oddeven_merge(lo, hi, step)
        yield from _oddeven_merge(lo + r, hi, step)
        for i in range(lo + r, hi - r, step):
            yield (i, i + r)
    else:
        yield (lo, lo + r)


def strategy_sorter(m_sorter: Network | None = None) -> Network:
    """16-input sorter built directly from the middle-set strategy.

    Cube phase, layer sorters, then any 8-input sorter placed ascending on
    the M wires (Batcher's by default), then the two final comparisons.
    Sorting correctly regardless of the M sorter is what validates the
    strategy itself.
    """
    if m_sorter is None:
        m_sorter = batcher_sorter(8)
    if m_sorter.width != len(M_WIRES):
        raise ValueError(f"M sorter must have width {len(M_WIRES)}")
    approx, layer1, layer3, _ = _shared_blocks()
    m_block = embed(m_sorter, M_WIRES, 16)
    return concat(approx, layer1, layer3, m_block, _final_block())
