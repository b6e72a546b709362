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

The networks are fixed, so each builder makes its tuple of tagged
comparators once per builder and size, on first use (``functools.cache``
on a private table function, never at import).  The builder checks its
argument before the table is looked up, and every call still returns a
new ``Network`` that checks each comparator of the table once.
``circuits.majority_circuit`` keeps its gate tables the same way, and no
``Network``, circuit, poset or verdict outlives a call.
"""

from __future__ import annotations

from functools import cache

from .network import Comparator, Network, Phase

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


def _cube_pairs(n: int) -> list[tuple[int, int]]:
    return [(i, i | 1 << k) for k in range(n) for i in range(1 << n) if not i >> k & 1]


def hypercube_phase(n: int) -> Network:
    """Approximate sorting of 2**n wires into the Boolean cube order.

    Round k compares (i, i + 2**k) for every wire i whose bit k is clear:
    n rounds of 2**(n-1) disjoint comparators each, so depth n and size
    n * 2**(n-1).  ``n`` is at most 6: 64 wires, the widest network
    ``render_diagram`` draws.
    """
    if not 1 <= n <= 6:
        raise ValueError(f"hypercube phase needs 1 <= n <= 6, got {n}")
    return Network(1 << n, _cube_table(n))


@cache
def _cube_table(n: int) -> tuple[Comparator, ...]:
    return tuple(Comparator(a, b) for a, b in _cube_pairs(n))


_SORTER4 = ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))


def sorter4() -> Network:
    """The 5-comparator, depth-3 sorter of 4 wires.

    Its first two layers (4 comparators) already pin the minimum on wire 0
    and the maximum on wire 3; only the middle pair needs the third layer.
    """
    return Network(4, _SORTER4)


def _block(tag: Phase, pairs, wires=range(16)) -> list[Comparator]:
    """One tagged block: block wire i runs on host wire ``wires[i]``."""
    return [Comparator(wires[a], wires[b], tag) for a, b in pairs]


# First pair round, shared by both classic sorters.  Each pair couples a
# middle-layer wire with the complementary one so that together they
# neighbour all of layers I and III: winners beat every lower-layer wire,
# losers lose to every upper-layer one.
_PAIRS = ((3, 12), (5, 10), (6, 9))

# Max of M against the third element of layer III, min of M against the
# third element of layer I (counted from the bottom).
_FINAL = ((3, 4), (11, 12))


@cache
def _fixed16() -> tuple[tuple[Comparator, ...], tuple[Comparator, ...]]:
    """The blocks every 16-wire sorter here shares: the cube phase and the
    layer sorters ahead of the middle blocks, and the final pair after."""
    head = (
        *_block(Phase.APPROX, _cube_pairs(4)),
        *_block(Phase.LAYER1, _SORTER4, CUBE_LAYER1),
        *_block(Phase.LAYER3, _SORTER4, CUBE_LAYER3),
    )
    return head, tuple(_block(Phase.FINAL, _FINAL))


def _sorter16(*middle: Comparator) -> tuple[Comparator, ...]:
    """Cube phase, layer sorters, ``middle``, final pair."""
    head, final = _fixed16()
    return (*head, *middle, *final)


@cache
def _green_table(merge: tuple[tuple[int, int], ...]) -> tuple[Comparator, ...]:
    """Green's network with the three tetrad-merge comparators in the given order."""
    return _sorter16(
        *_block(Phase.PAIRS, _PAIRS),
        *_block(Phase.TETRAD_A, _SORTER4, UPPER_TETRAD),
        *_block(Phase.TETRAD_B, _SORTER4, LOWER_TETRAD),
        *_block(Phase.MERGE, merge),
    )


def green16() -> Network:
    """Green's 16-input sorter: 60 comparators, depth 10.

    After the shared prefix, the upper tetrad {7, 9, 10, 12} and lower
    tetrad {3, 5, 6, 8} are sorted and merged with three comparators.  The
    merge runs (7, 8) first: those two wires settle one layer earlier than
    their neighbours, so leading with them saves a layer overall.
    """
    return Network(16, _green_table(((7, 8), (6, 7), (8, 9))))


def green16_naive_merge() -> Network:
    """green16 with the merge done bottom-up; functionally identical but
    deeper, kept as the regression witness for the merge ordering."""
    return Network(16, _green_table(((6, 7), (7, 8), (8, 9))))


def van_voorhis16() -> Network:
    """van Voorhis's 16-input sorter: 61 comparators, depth 9.

    Instead of waiting for wires 7 and 8 (ready one layer later than the
    other M wires), a second pair round compares (5, 12), (6, 10), (3, 9)
    immediately.  Each tetrad member then dominates three members of the
    other tetrad, so after sorting both tetrads a single comparison of the
    medial pair (7, 8) finishes M.
    """
    return Network(16, _van_voorhis_table())


@cache
def _van_voorhis_table() -> tuple[Comparator, ...]:
    return _sorter16(
        *_block(Phase.PAIRS, _PAIRS),
        *_block(Phase.PAIRS2, ((5, 12), (6, 10), (3, 9))),
        *_block(Phase.TETRAD_A, _SORTER4, UPPER_TETRAD),
        *_block(Phase.TETRAD_B, _SORTER4, LOWER_TETRAD),
        *_block(Phase.MERGE, ((7, 8),)),
    )


_BATCHER_SIZES = (2, 4, 8, 16, 32)


def batcher_sorter(n: int) -> Network:
    """Batcher's odd-even mergesort network for n inputs (n a power of two,
    2..32)."""
    if n not in _BATCHER_SIZES:
        raise ValueError(f"supported sizes: {_BATCHER_SIZES}, got {n}")
    return Network(n, _batcher_table(n))


@cache
def _batcher_table(n: int) -> tuple[Comparator, ...]:
    return tuple(Comparator(a, b) for a, b in _oddeven_sort(0, n - 1))


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
        m_comps = _batcher_table(len(M_WIRES))
    elif m_sorter.width != len(M_WIRES):
        raise ValueError(f"M sorter must have width {len(M_WIRES)}")
    else:
        m_comps = m_sorter.comparators
    return Network(16, _sorter16(
        *(Comparator(M_WIRES[low], M_WIRES[high], tag) for low, high, tag in m_comps)
    ))
