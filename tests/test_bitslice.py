"""The slice engine against per-vector ``Network.apply``, in every environment."""

import random

import numpy as np
import pytest

from sortnet16 import Network, batcher_sorter, green16, van_voorhis16
from sortnet16 import _bitslice
from sortnet16._bitslice import BLOCK_BITS, PROBE_BITS

from test_network import random_network


def bits_of(index, width):
    return [(index >> (width - 1 - i)) & 1 for i in range(width)]


def brute_force_poset_pairs(net):
    """Independent oracle: per-vector evaluation over all binary inputs."""
    width = net.width
    outputs = {tuple(net.apply(bits_of(v, width))) for v in range(1 << width)}
    leq = {(a, b) for a in range(width) for b in range(width)}
    for out in outputs:
        leq -= {(a, b) for a in range(width) for b in range(width) if out[a] > out[b]}
    return leq


def least_failing_index(net):
    for v in range(1 << net.width):
        out = net.apply(bits_of(v, net.width))
        if any(a > b for a, b in zip(out, out[1:])):
            return v
    return -1


def brute_force_rows(net):
    pairs = brute_force_poset_pairs(net)
    return [
        sum(1 << b for b in range(net.width) if (a, b) in pairs) for a in range(net.width)
    ]


def column_oracle(net):
    """Least failing index and leq rows from one uint8 column per wire over
    all inputs: independent of the slice engine, fast enough past 16 wires."""
    width = net.width
    v = np.arange(1 << width, dtype=np.uint32)
    cols = [((v >> (width - 1 - i)) & 1).astype(np.uint8) for i in range(width)]
    for c in net.comparators:
        lo, hi = cols[c.low], cols[c.high]
        cols[c.low], cols[c.high] = np.minimum(lo, hi), np.maximum(lo, hi)
    bad = np.zeros(1 << width, dtype=bool)
    for lo, hi in zip(cols, cols[1:]):
        bad |= lo > hi
    failing = np.flatnonzero(bad)
    rows = [
        sum(1 << b for b in range(width) if not np.any(cols[a] > cols[b])) for a in range(width)
    ]
    return (int(failing[0]) if len(failing) else -1), rows


def slice_bit(row, index):
    return (row >> index) & 1


def assert_slices_match_apply(net, slices, inputs):
    for v in inputs:
        assert [slice_bit(row, v) for row in slices] == net.apply(bits_of(v, net.width))


def assert_engine_matches_apply(net):
    assert _bitslice.first_unsorted(net.width, net.pairs()) == least_failing_index(net)
    assert _bitslice.leq_masks(net.width, net.pairs()) == brute_force_rows(net)


@pytest.mark.parametrize("width", range(1, 13))
def test_empty_networks(width):
    net = Network(width)
    assert_engine_matches_apply(net)
    slices = _bitslice.evaluate(width, [])
    assert len(slices) == width
    assert_slices_match_apply(net, slices, range(1 << width))
    # No bit is set past the last input.
    assert all(row >> (1 << width) == 0 for row in slices)


def test_random_networks():
    rng = random.Random(0xD1FF)
    for _ in range(150):
        net = random_network(rng, width=rng.randint(2, 13))
        assert_engine_matches_apply(net)


def sorter(width):
    """Batcher's 16- or 32-input sorter cut to ``width`` wires: a comparator
    that touches a dropped wire only ever meets a top value there, so it is a
    no-op."""
    full = batcher_sorter(16 if width <= 16 else 32)
    return [(c.low, c.high) for c in full.comparators if c.high < width]


def assert_engine_matches_columns(net):
    first, rows = column_oracle(net)
    assert _bitslice.first_unsorted(net.width, net.pairs()) == first
    assert _bitslice.leq_masks(net.width, net.pairs()) == rows


def test_probe_rows_are_the_first_columns_of_the_slices():
    rng = random.Random(0x9B0)
    for width in range(1, 17):
        bits = min(width, PROBE_BITS)
        for size in (0, 3 * width if width > 1 else 0):
            pairs = random_network(rng, width=width, size=size).pairs()
            first = [row % (1 << (1 << bits)) for row in _bitslice.evaluate(width, pairs)]
            assert _bitslice.evaluate(width, pairs, bits) == first


def test_block_schedule():
    # Past PROBE_BITS wires the probe comes first, then full blocks from
    # input 0 again.
    full = [(16, i << 16) for i in range(16)]
    assert {w: list(_bitslice.blocks(w)) for w in (0, 1, 12, 13, 16, 17, 20)} == {
        0: [(0, 0)],
        1: [(1, 0)],
        12: [(12, 0)],
        13: [(12, 0), (13, 0)],
        16: [(12, 0), (16, 0)],
        17: [(12, 0), *full[:2]],
        20: [(12, 0), *full],
    }


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, BLOCK_BITS + 3))
def test_sweep_rows_equal_the_int_slices(width):
    # Each block the reductions sweep holds the bits of the whole-input
    # slices from its start on.  Past BLOCK_BITS the largest blocks repeat
    # and share the comparators no constant wire reaches: a sorter has many.
    rng = random.Random(0x5E1 + width)
    nets = [Network(width)] if width == PROBE_BITS + 1 else []
    nets += [random_network(rng, width=width, size=s) for s in (width, 6 * width)]
    nets.append(Network(width, sorter(width)))
    for net in nets:
        whole = _bitslice.evaluate(width, net.pairs())
        blocks = list(_bitslice.blocks(width))
        swept = list(_bitslice._sweep(width, net.pairs()))
        assert [start for start, _ in swept] == [start for _, start in blocks]
        for (bits, start), (_, block) in zip(blocks, swept):
            mask = (1 << (1 << bits)) - 1
            assert block == [row >> start & mask for row in whole]


@pytest.mark.parametrize("width", [PROBE_BITS, PROBE_BITS + 1])
def test_widths_at_the_probe_boundary(width):
    rng = random.Random(width)
    for size in (0, 1, width, 4 * width):
        assert_engine_matches_apply(random_network(rng, width=width, size=size))
    assert_engine_matches_apply(Network(width, sorter(width)))


@pytest.mark.parametrize("k", [PROBE_BITS, PROBE_BITS + 1, BLOCK_BITS])
def test_first_failure_just_past_the_probe(k):
    # Wire 0 is the top input bit, so inputs below 2**k leave it 0 and the
    # sorter on wires 1..k sorts them all; input 2**k is 1 then k 0s.  The
    # probe passes, and the input lies inside the second block, the first
    # full one, for k = PROBE_BITS and PROBE_BITS + 1; for k = BLOCK_BITS it
    # starts the third and last.
    net = Network(k + 1, [(a + 1, b + 1) for a, b in sorter(k)])
    assert_engine_matches_columns(net)
    assert _bitslice.first_unsorted(k + 1, net.pairs()) == 1 << k
    if k == PROBE_BITS:
        assert least_failing_index(net) == 1 << k
        assert_engine_matches_apply(net)


def test_failure_only_in_the_last_block():
    # Sort wires 0..w-2, then sink wire w-1 with (w-2, w-1) .. (1, 2) but
    # not (0, 1): only input 1..10, the last but one, stays unsorted.
    width = BLOCK_BITS + 2
    sink = [(i, i + 1) for i in range(width - 2, 0, -1)]
    net = Network(width, sorter(width - 1) + sink)
    assert_engine_matches_columns(net)
    assert _bitslice.first_unsorted(width, net.pairs()) == (1 << width) - 2


@pytest.mark.parametrize("width", [BLOCK_BITS - 1, BLOCK_BITS, BLOCK_BITS + 1])
def test_widths_at_the_block_size(width):
    rng = random.Random(0xB10C + width)
    whole = sorter(width)
    nets = [
        Network(width, whole),
        Network(width, whole[1:]),
        Network(width, random_network(rng, width=width, size=width).comparators + tuple(whole[1:])),
        random_network(rng, width=width, size=12 * width),
    ]
    for net in nets:
        assert_engine_matches_columns(net)


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, 17))
def test_random_sorters_and_non_sorters_past_the_probe(width):
    rng = random.Random(0x5EED + width)
    prefix = random_network(rng, width=width, size=width).comparators
    suffix = sorter(width)
    assert_engine_matches_apply(Network(width, prefix + tuple(suffix)))
    # Without its first comparator, (0, 1), the sorter fails only past the
    # probe on these networks; without a random one it mostly fails inside.
    late = Network(width, prefix + tuple(suffix[1:]))
    assert _bitslice.first_unsorted(width, late.pairs()) >= 1 << PROBE_BITS
    assert_engine_matches_apply(late)
    del suffix[rng.randrange(len(suffix))]
    assert_engine_matches_apply(Network(width, prefix + tuple(suffix)))


def test_evaluate_matches_apply_bit_for_bit():
    rng = random.Random(0xB17)
    for _ in range(40):
        net = random_network(rng, width=rng.randint(2, 9))
        slices = _bitslice.evaluate(net.width, net.pairs())
        assert_slices_match_apply(net, slices, range(1 << net.width))


@pytest.mark.parametrize("build", [green16, van_voorhis16])
def test_the_classics(build):
    net = build()
    assert _bitslice.first_unsorted(16, net.pairs()) == -1
    # A sorter's outputs form one chain: wire a is at most every wire above it.
    chain = [sum(1 << b for b in range(a, 16)) for a in range(16)]
    assert _bitslice.leq_masks(16, net.pairs()) == chain
    slices = _bitslice.evaluate(16, net.pairs())
    assert_slices_match_apply(net, slices, random.Random(0xC1A5).sample(range(1 << 16), 2000))


def test_width_ceiling():
    for fn in (_bitslice.first_unsorted, _bitslice.leq_masks, _bitslice.evaluate):
        with pytest.raises(ValueError):
            fn(_bitslice.MAX_WIDTH + 1, [])


@pytest.mark.parametrize("k", [None, 0, 2, 9])
def test_at_least_counts_ones_per_input(k):
    rng = random.Random(7)
    nbits = 3 * 64
    rows = [rng.getrandbits(nbits) for _ in range(6)]
    counts = _bitslice.at_least(rows, (1 << nbits) - 1, k)
    assert len(counts) == (len(rows) if k is None else k) + 1
    for index in range(nbits):
        ones = sum(slice_bit(row, index) for row in rows)
        assert [slice_bit(c, index) for c in counts] == [
            int(ones >= j) for j in range(len(counts))
        ]


@pytest.mark.parametrize("width", range(BLOCK_BITS - 3, BLOCK_BITS + 3))
def test_input_slices_across_the_cached_table(width):
    # Up to BLOCK_BITS input bits the slices are cut from one cached table,
    # above it they are built per call: both follow vector_of.
    slices = _bitslice.evaluate(width, [])
    assert all(row >> (1 << width) == 0 for row in slices)
    rng = random.Random(width)
    last = (1 << width) - 1
    for v in [0, 1, last - 1, last] + [rng.randrange(1 << width) for _ in range(200)]:
        assert tuple(slice_bit(row, v) for row in slices) == _bitslice.vector_of(v, width)
