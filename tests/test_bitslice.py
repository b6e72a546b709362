"""The slice engine against per-vector ``Network.apply``, in every environment."""

import random
from functools import cache
from itertools import chain

import numpy as np
import pytest

from sortnet16 import (
    DegenerateOrderError,
    Network,
    batcher_sorter,
    green16,
    infer_poset,
    van_voorhis16,
)
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


def output_columns(net):
    """One uint8 column per wire of the outputs over all inputs, input v in
    row v: independent of the slice engine, fast enough past 16 wires."""
    width = net.width
    v = np.arange(1 << width, dtype=np.uint32)
    cols = [((v >> (width - 1 - i)) & 1).astype(np.uint8) for i in range(width)]
    for c in net.comparators:
        lo, hi = cols[c.low], cols[c.high]
        cols[c.low], cols[c.high] = np.minimum(lo, hi), np.maximum(lo, hi)
    return cols


def column_oracle(net):
    """Least failing index and leq rows from ``output_columns``."""
    width = net.width
    cols = output_columns(net)
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


@cache
def whole_inputs(width):
    """Slice of each wire over all 2**width inputs, from the definition of
    the input order alone: bit v of wire i is bit width - 1 - i of v, so
    wire i reads runs of 2**(width - 1 - i) zeros and as many ones."""
    rows = []
    for i in range(width):
        run = 1 << (width - 1 - i)
        row, period = ((1 << run) - 1) << run, 2 * run
        while period < 1 << width:
            row |= row << period
            period *= 2
        rows.append(row)
    return tuple(rows)


def whole_outputs(pairs, inputs):
    """Output slices of the comparators ``pairs`` run on the input slices
    ``inputs``."""
    rows = list(inputs)
    for a, b in pairs:
        rows[a], rows[b] = rows[a] & rows[b], rows[a] | rows[b]
    return rows


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
    slices = whole_inputs(width)
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


def first_layer(pairs):
    """Comparators whose two wires no earlier comparator touches."""
    touched, layer = set(), []
    for a, b in pairs:
        if not {a, b} & touched:
            layer.append((a, b))
        touched |= {a, b}
    return layer


def lane_bits(row, lanes):
    """Bits 0 .. lanes-1 of the slice ``row`` as a uint8 array."""
    raw = np.frombuffer(row.to_bytes((lanes + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:lanes]


def swept_blocks(width, pairs):
    """(input index of each lane, final slices, whether it is the probe) of
    each block ``_sweep`` yields: every block's lanes are the vectors its
    input slices spell out, and the probe is the first block where the
    first part of ``layouts`` is the probe."""
    probed = next(_bitslice.layouts(_bitslice._first_layer(width, pairs)[0]))[0]
    out = []
    for inputs, rows, full in _bitslice._sweep(width, pairs):
        lanes = full.bit_length()
        assert full == (1 << lanes) - 1
        assert len(inputs) == width
        assert lanes == max(map(int.bit_length, inputs))
        assert 0 < lanes <= 1 << BLOCK_BITS
        index = np.zeros(lanes, dtype=np.int64)
        for row in inputs:
            index = index << 1 | lane_bits(row, lanes)
        assert all(row >> lanes == 0 for row in rows)
        out.append((index, rows, probed and not out))
    return out


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, BLOCK_BITS + 3))
def test_sweep_rows_equal_the_int_slices(width):
    # Every block holds, in each lane, the bits of the whole-input slices at
    # the input that lane stands for: the probe those of inputs
    # 0 .. 2**PROBE_BITS - 1.  The probe comes first exactly when the
    # first layer's outputs take more than one block or more than twice
    # its lanes.  The other blocks come in index order, sweep no input
    # twice, and together cover every input the first layer leaves
    # unchanged.  A sorter's first layer covers nearly every wire; at 16
    # wires it covers all of them, and the sorter is one block of 3**8
    # lanes with no probe.
    rng = random.Random(0x5E1 + width)
    nets = [Network(width), Network(width, sorter(width))]
    nets += [random_network(rng, width=width, size=s) for s in (width, 6 * width)]
    probed = set()
    for net in nets:
        whole = [lane_bits(row, 1 << width) for row in whole_outputs(net.pairs(), whole_inputs(width))]
        blocks = swept_blocks(width, net.pairs())
        for index, rows, _ in blocks:
            for row, column in zip(rows, whole):
                assert np.array_equal(lane_bits(row, len(index)), column[index])
        k = len(first_layer(net.pairs()))
        product = 3**k << width - 2 * k
        expect_probe = product > 2 << PROBE_BITS
        probed.add(expect_probe)
        assert [probe for _, _, probe in blocks] == [expect_probe] + [False] * (
            len(blocks) - 1
        )
        if expect_probe:
            probe, *blocks = blocks
            assert np.array_equal(probe[0], np.arange(1 << PROBE_BITS))
        else:
            assert [len(index) for index, _, _ in blocks] == [product]
        swept = np.concatenate([index for index, _, _ in blocks])
        assert all(a.max() < b.min() for (a, _, _), (b, _, _) in zip(blocks, blocks[1:]))
        assert len(np.unique(swept)) == len(swept)
        v = np.arange(1 << width)
        fixed = np.ones(1 << width, dtype=bool)
        for a, b in first_layer(net.pairs()):
            fixed &= (v >> (width - 1 - a) & 1) <= (v >> (width - 1 - b) & 1)
        assert np.isin(v[fixed], swept).all()
    # 13 wires never reach the probe, and more than 16 always do.  From 14
    # to 16 wires the empty network takes it, and the sorter, whose first
    # layer pairs every wire but the last on odd widths, does not.
    assert (True in probed, False in probed) == (width > PROBE_BITS + 1, width <= 16)


def chained(width, layer):
    """``layer``, then a chain of comparators through every other wire, each
    touching the wire before it, so that ``layer`` is the whole first layer."""
    used = {w for pair in layer for w in pair}
    rest = [w for w in range(width) if w not in used]
    start = layer[-1][1] if layer else 0
    return list(layer) + [(min(a, b), max(a, b)) for a, b in zip([start] + rest[:-1], rest)]


def assert_lanes_match_apply(net, sample=None, seed=0):
    # Every lane of every swept block (or ``sample`` lanes of each) holds
    # Network.apply of the input it stands for.
    rng = random.Random(seed)
    for index, rows, _ in swept_blocks(net.width, net.pairs()):
        lanes = range(len(index))
        if sample is not None and sample < len(index):
            lanes = rng.sample(lanes, sample)
        for lane in lanes:
            got = [slice_bit(row, lane) for row in rows]
            assert got == net.apply(bits_of(int(index[lane]), net.width))


def test_every_lane_equals_apply():
    rng = random.Random(0x1A4E)
    for width in range(1, PROBE_BITS + 3):
        for size in (0, width, 4 * width) if width > 1 else (0,):
            assert_lanes_match_apply(random_network(rng, width=width, size=size))
    # Interleaved, crossing and one-comparator first layers, with blocks of
    # top wires past BLOCK_BITS.
    for width in (PROBE_BITS + 1, BLOCK_BITS + 1, BLOCK_BITS + 4):
        for layer in ([(0, 2), (1, 3)], [(0, width - 1), (1, width - 2)], [(0, 1)]):
            pairs = chained(width, layer) + random_network(rng, width=width, size=width).pairs()
            assert_lanes_match_apply(Network(width, pairs), sample=150, seed=width)


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, 21))
def test_least_counterexample_where_digit_and_index_order_disagree(width):
    # First layer (p, r), (q, s) on the last four wires p < q < r < s,
    # interleaved: its radix-3 digits count in the order of p, then q, so
    # the lane of input e0 + eq + es (digits 00, 11) comes before the lane
    # of input e0 + er (digits 01, 00), though the latter is less.  Then
    # wire 0 becomes w0 & (wq | wr) and wires 1 .. width-1 are sorted, so
    # both inputs fail, and every input below e0 + er, the probe included,
    # sorts.
    p, q, r, s = range(width - 4, width)
    rest = [(a + 1, b + 1) for a, b in sorter(width - 1)]
    net = Network(width, [(p, r), (q, s), (q, r), (0, r)] + rest)
    assert sorted(first_layer(net.pairs()))[-2:] == [(p, r), (q, s)]
    least = (1 << width - 1) + (1 << width - 1 - r)
    assert _bitslice.first_unsorted(width, net.pairs()) == least
    assert_engine_matches_columns(net)


@pytest.mark.parametrize("width", range(BLOCK_BITS + 1, 21))
def test_first_layer_pairs_across_the_top_wires(width):
    # Two first-layer pairs from the top wires to the bottom ones: they keep
    # their comparators, every other wire is a radix-2 digit, and the low
    # wires leave top wires to sweep in blocks.
    layer = [(0, width - 1), (1, width - 2)]
    whole = sorter(width)
    for cut in (None, 0, 1, 2):
        suffix = whole[:cut] + whole[cut + 1 :] if cut is not None else whole
        net = Network(width, chained(width, layer) + suffix)
        assert first_layer(net.pairs()) == layer
        *_, (_, top, *_) = _bitslice.layouts(_bitslice._first_layer(width, net.pairs())[0])
        assert 0 < top <= width - 2
        assert_engine_matches_columns(net)


@pytest.mark.parametrize("width", range(PROBE_BITS + 1, 21))
def test_first_layers_of_every_wire_and_of_one_comparator(width):
    rng = random.Random(0xF1 + width)
    whole = sorter(width)
    cut = whole[:1] + whole[2:]
    # Every wire (all but the last on odd widths) paired with the wire half
    # the width away: one radix-3 digit each, all interleaved.
    half = width // 2
    every = [(i, i + half) for i in range(half)]
    # One comparator: the rest chain from it, so blocks of top wires skip
    # the tops where it reads 1, 0.
    one = chained(width, [(0, 1)])
    noise = list(random_network(rng, width=width, size=3 * width).pairs())
    for pairs in (every + whole, every + cut, every + noise, one + whole, one + cut):
        assert_engine_matches_columns(Network(width, pairs))


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
    # probe passes, and the block after it holds the input.
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


def test_whole_input_slices_match_apply_bit_for_bit():
    rng = random.Random(0xB17)
    for _ in range(40):
        net = random_network(rng, width=rng.randint(2, 9))
        slices = whole_outputs(net.pairs(), whole_inputs(net.width))
        assert_slices_match_apply(net, slices, range(1 << net.width))


@pytest.mark.parametrize("build", [green16, van_voorhis16])
def test_the_classics(build):
    net = build()
    assert _bitslice.first_unsorted(16, net.pairs()) == -1
    # A sorter's outputs form one chain: wire a is at most every wire above it.
    chain = [sum(1 << b for b in range(a, 16)) for a in range(16)]
    assert _bitslice.leq_masks(16, net.pairs()) == chain
    slices = whole_outputs(net.pairs(), whole_inputs(16))
    assert_slices_match_apply(net, slices, random.Random(0xC1A5).sample(range(1 << 16), 2000))


def test_width_ceiling():
    for fn in (_bitslice.first_unsorted, _bitslice.leq_masks):
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
def test_input_slices_follow_vector_of(width):
    slices = whole_inputs(width)
    assert all(row >> (1 << width) == 0 for row in slices)
    rng = random.Random(width)
    last = (1 << width) - 1
    for v in [0, 1, last - 1, last] + [rng.randrange(1 << width) for _ in range(200)]:
        assert tuple(slice_bit(row, v) for row in slices) == _bitslice.vector_of(v, width)


def paired_network(rng, width, size):
    """A first layer that pairs every wire (all but one on odd widths) in a
    random, mostly interleaved matching, then ``size`` random comparators."""
    wires = rng.sample(range(width), width)
    layer = tuple(tuple(sorted(wires[i : i + 2])) for i in range(0, width - 1, 2))
    return Network(width, layer + random_network(rng, width=width, size=size).comparators)


def walked_rows(monkeypatch, net):
    """``leq_masks`` through the pair walk: with ``layouts`` patched to put
    the probe ahead of the block, the sweep is no longer one block."""
    layouts = _bitslice.layouts
    lanes, low = _bitslice._product_inputs((0,) * PROBE_BITS)
    probe = (True, net.width - PROBE_BITS, lanes, low, (0,))
    with monkeypatch.context() as m:
        m.setattr(_bitslice, "layouts", lambda partner: chain([probe], layouts(partner)))
        return _bitslice.leq_masks(net.width, net.pairs())


def one_block(net):
    return [probe for _, _, probe in swept_blocks(net.width, net.pairs())] == [False]


def test_one_block_rows_equal_the_walk_and_the_columns(monkeypatch):
    # Without a probe the sweep is one block, and leq_masks tests every pair
    # on it directly.  The prefixes of the 16-wire sorters take that path
    # once their first layer pairs every wire: from comparator 8 on in the
    # classic networks and from 26 on in Batcher's.  So does every seeded
    # network here.
    nets = [net.prefix(k) for net in (green16(), van_voorhis16(), batcher_sorter(16))
            for k in range(len(net) + 1)]
    rng = random.Random(0xD12EC7)
    nets += [paired_network(rng, width, rng.randint(0, 5 * width))
             for width in range(PROBE_BITS + 1, 17) for _ in range(6)]
    direct = 0
    for net in nets:
        rows = _bitslice.leq_masks(net.width, net.pairs())
        assert rows == column_oracle(net)[1], net.comparators
        if one_block(net):
            direct += 1
            assert rows == walked_rows(monkeypatch, net), net.comparators
    assert direct == 53 + 54 + 38 + 24


def test_the_pair_walk_goes_nearest_first():
    # Every ordered pair of distinct wires, by distance and then by (a, b):
    # the two shorter pairs through a wire between a and b come first.
    for width in range(2, _bitslice.MAX_WIDTH + 1):
        pairs = [(a, b) for a in range(width) for b in range(width) if a != b]
        pairs.sort(key=lambda p: (abs(p[0] - p[1]), p))
        assert _bitslice._nearest_first(width) == tuple(pairs)


def test_degenerate_rows_reach_the_poset_on_either_path(monkeypatch):
    # No comparator network keeps two wires equal on every binary input:
    # flipping input bits 0 to 1 one at a time flips exactly one output
    # wire each time.  So a block whose slices 3 and 5 are equal is made up
    # here, once as the whole sweep and once twice in a row, so that the
    # pair walk runs on the second, and infer_poset must refuse the relation
    # either way.
    net = green16().prefix(32)
    sweep = _bitslice._sweep

    def doctored(width, pairs, copies):
        for inputs, rows, full in sweep(width, pairs):
            rows[5] = rows[3]
            for _ in range(copies):
                yield inputs, rows, full

    for copies in (1, 2):
        monkeypatch.setattr(_bitslice, "_sweep", lambda w, p: doctored(w, p, copies))
        with pytest.raises(DegenerateOrderError, match="wires 3 and 5"):
            infer_poset(net)


def test_the_probe_always_runs_past_16_wires():
    for width in range(1, _bitslice.MAX_WIDTH + 1):
        # The fewest lanes: a first layer that pairs all the wires it can.
        paired = [i ^ 1 if i ^ 1 < width else -1 for i in range(width)]
        parts = list(_bitslice.layouts(paired))
        assert [probe for probe, *_ in parts] == [True] * (width > 16) + [False]
        if width > 16:
            probe, t, lanes, low, tops = parts[0]
            assert (t, lanes, list(tops)) == (width - PROBE_BITS, 1 << PROBE_BITS, [0])
            assert low == whole_inputs(PROBE_BITS)


def test_a_refutation_inside_the_probe_builds_no_product(monkeypatch):
    # The probe is decided from the lane count alone, and the first layer's
    # product is built only once the probe has passed.
    built = []
    product = _bitslice._product_inputs
    monkeypatch.setattr(_bitslice, "_product_inputs", lambda links: built.append(links) or product(links))
    for width in (17, 18, 20):
        # With no comparators, input 2 (the last two wires read 1, 0) is
        # the least unsorted one; behind two pairs, input 4.
        for pairs, least in (([], 2), ([(0, 1), (width - 2, width - 1)], 4)):
            built.clear()
            assert _bitslice.first_unsorted(width, pairs) == least
            assert built == [(0,) * PROBE_BITS]
