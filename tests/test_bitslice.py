"""The slice engine against per-vector ``Network.apply``, in every environment."""

import random

import pytest

from sortnet16 import Network, batcher_sorter, green16, van_voorhis16
from sortnet16 import _bitslice
from sortnet16._bitslice import CACHED_BITS, PROBE_BITS

from test_network import random_network


def wire_lists(net):
    return [c.low for c in net.comparators], [c.high for c in net.comparators]


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


def slice_bit(row, index):
    return (row >> index) & 1


def word_row_bits(row):
    """A row of uint64 words as one int slice: bit v is the wire's value on input v."""
    return int.from_bytes(row.astype("<u8").tobytes(), "little")


def assert_slices_match_apply(net, slices, inputs):
    for v in inputs:
        assert [slice_bit(row, v) for row in slices] == net.apply(bits_of(v, net.width))


def assert_engine_matches_apply(net):
    lows, highs = wire_lists(net)
    assert _bitslice.first_unsorted(net.width, lows, highs) == least_failing_index(net)
    assert _bitslice.leq_masks(net.width, lows, highs) == brute_force_rows(net)


@pytest.mark.parametrize("width", range(1, 13))
def test_empty_networks(width):
    net = Network(width)
    assert_engine_matches_apply(net)
    slices = _bitslice.evaluate(width, [], [])
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
    """Batcher's 16-input sorter cut to ``width`` wires: a comparator that
    touches a dropped wire only ever meets a top value there, so it is a no-op."""
    return [(c.low, c.high) for c in batcher_sorter(16).comparators if c.high < width]


def test_probe_rows_are_the_first_columns_of_the_slices():
    rng = random.Random(0x9B0)
    for width in range(1, 17):
        bits = min(width, PROBE_BITS)
        for size in (0, 3 * width if width > 1 else 0):
            lows, highs = wire_lists(random_network(rng, width=width, size=size))
            first = [row % (1 << (1 << bits)) for row in _bitslice.evaluate(width, lows, highs)]
            assert _bitslice.evaluate(width, lows, highs, bits) == first


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, 17))
def test_sweep_rows_equal_the_int_slices(width):
    rng = random.Random(0x5E1 + width)
    nets = [Network(width)] if width == PROBE_BITS + 1 else []
    nets += [random_network(rng, width=width, size=s) for s in (width, 6 * width)]
    for net in nets:
        lows, highs = wire_lists(net)
        words = _bitslice._sweep_rows(width, lows, highs)
        assert [word_row_bits(row) for row in words] == _bitslice.evaluate(width, lows, highs)


@pytest.mark.parametrize("width", [PROBE_BITS, PROBE_BITS + 1])
def test_widths_at_the_probe_boundary(width):
    rng = random.Random(width)
    for size in (0, 1, width, 4 * width):
        assert_engine_matches_apply(random_network(rng, width=width, size=size))
    assert_engine_matches_apply(Network(width, sorter(width)))


def test_first_failure_just_past_the_probe():
    # Wire 0 is the top input bit, so inputs below 2**12 leave it 0 and the
    # sorter on wires 1..12 sorts them all; input 4096 is 1 then twelve 0s.
    width = PROBE_BITS + 1
    net = Network(width, [(a + 1, b + 1) for a, b in sorter(PROBE_BITS)])
    assert least_failing_index(net) == 1 << PROBE_BITS
    assert_engine_matches_apply(net)


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, 17))
def test_random_sorters_and_non_sorters_past_the_probe(width):
    rng = random.Random(0x5EED + width)
    prefix = random_network(rng, width=width, size=width).comparators
    suffix = sorter(width)
    assert_engine_matches_apply(Network(width, prefix + tuple(suffix)))
    # Without its first comparator, (0, 1), the sorter fails only past the
    # probe on these networks; without a random one it mostly fails inside.
    late = Network(width, prefix + tuple(suffix[1:]))
    assert _bitslice.first_unsorted(width, *wire_lists(late)) >= 1 << PROBE_BITS
    assert_engine_matches_apply(late)
    del suffix[rng.randrange(len(suffix))]
    assert_engine_matches_apply(Network(width, prefix + tuple(suffix)))


def test_evaluate_matches_apply_bit_for_bit():
    rng = random.Random(0xB17)
    for _ in range(40):
        net = random_network(rng, width=rng.randint(2, 9))
        slices = _bitslice.evaluate(net.width, *wire_lists(net))
        assert_slices_match_apply(net, slices, range(1 << net.width))


@pytest.mark.parametrize("build", [green16, van_voorhis16])
def test_the_classics(build):
    net = build()
    lows, highs = wire_lists(net)
    assert _bitslice.first_unsorted(16, lows, highs) == -1
    # A sorter's outputs form one chain: wire a is at most every wire above it.
    chain = [sum(1 << b for b in range(a, 16)) for a in range(16)]
    assert _bitslice.leq_masks(16, lows, highs) == chain
    slices = _bitslice.evaluate(16, lows, highs)
    assert_slices_match_apply(net, slices, random.Random(0xC1A5).sample(range(1 << 16), 2000))


def test_width_ceiling():
    for fn in (_bitslice.first_unsorted, _bitslice.leq_masks, _bitslice.evaluate):
        with pytest.raises(ValueError):
            fn(_bitslice.MAX_WIDTH + 1, [], [])


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


@pytest.mark.parametrize("width", range(CACHED_BITS - 3, CACHED_BITS + 3))
def test_input_slices_across_the_cached_table(width):
    # Up to CACHED_BITS input bits the slices are cut from one cached table,
    # above it they are built per call: both follow vector_of.
    slices = _bitslice.evaluate(width, [], [])
    assert all(row >> (1 << width) == 0 for row in slices)
    rng = random.Random(width)
    last = (1 << width) - 1
    for v in [0, 1, last - 1, last] + [rng.randrange(1 << width) for _ in range(200)]:
        assert tuple(slice_bit(row, v) for row in slices) == _bitslice.vector_of(v, width)
