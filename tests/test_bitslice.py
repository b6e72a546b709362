"""The slice engine against per-vector ``Network.apply``, in every environment."""

import random

import numpy as np
import pytest

from sortnet16 import Network, green16, van_voorhis16
from sortnet16 import _bitslice

from test_network import random_network


def wire_lists(net):
    return [c.low for c in net.comparators], [c.high for c in net.comparators]


def bits_of(index, width):
    return [(index >> (width - 1 - i)) & 1 for i in range(width)]


def brute_force_poset_pairs(net):
    """Independent oracle: per-vector evaluation over all binary inputs."""
    width = net.width
    leq = {(a, b) for a in range(width) for b in range(width)}
    for v in range(1 << width):
        out = net.apply(bits_of(v, width))
        for a in range(width):
            for b in range(width):
                if out[a] == 1 and out[b] == 0:
                    leq.discard((a, b))
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
    return (int(row[index // 64]) >> (index % 64)) & 1


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
    assert slices.shape == (width, max(1, (1 << width) // 64))
    assert_slices_match_apply(net, slices, range(1 << width))
    # Bits past the last input are zero: below width 6 that is the word tail.
    nbits = 1 << width
    for row in slices:
        assert int.from_bytes(row.astype("<u8").tobytes(), "little") >> nbits == 0


def test_random_networks():
    rng = random.Random(0xD1FF)
    for _ in range(150):
        net = random_network(rng, width=rng.randint(2, 13))
        assert_engine_matches_apply(net)


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


def test_full_row_masks_the_tail():
    assert list(_bitslice.full_row(1)) == [1]
    assert list(_bitslice.full_row(16)) == [0xFFFF]
    assert list(_bitslice.full_row(128)) == [2**64 - 1] * 2
    assert _bitslice.full_row(1).dtype == np.uint64


def test_width_ceiling():
    for fn in (_bitslice.first_unsorted, _bitslice.leq_masks, _bitslice.evaluate):
        with pytest.raises(ValueError):
            fn(_bitslice.MAX_WIDTH + 1, [], [])


@pytest.mark.parametrize("k", [None, 0, 2, 9])
def test_at_least_counts_ones_per_input(k):
    rng = np.random.default_rng(7)
    top = np.iinfo(np.uint64).max
    rows = list(rng.integers(0, top, size=(6, 3), dtype=np.uint64, endpoint=True))
    full = _bitslice.full_row(3 * 64)
    counts = _bitslice.at_least(rows, full, k)
    assert len(counts) == (len(rows) if k is None else k) + 1
    for index in range(3 * 64):
        ones = sum(slice_bit(row, index) for row in rows)
        assert [slice_bit(c, index) for c in counts] == [
            int(ones >= j) for j in range(len(counts))
        ]
