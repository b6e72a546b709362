import random
import tracemalloc
from itertools import product

import numpy as np
import pytest

from sortnet16 import (
    Gate,
    MonotoneCircuit,
    Network,
    batcher_sorter,
    cone_depth,
    depth,
    green16,
    green16_naive_merge,
    hypercube_phase,
    is_threshold,
    majority_circuit,
    network_to_circuit,
    render_gate_list,
    sorter4,
    specialize,
    van_voorhis16,
)
from sortnet16 import _bitslice, circuits
from sortnet16.circuits import _front_pairs, evaluate_slices

from test_bitslice import (
    bits_of,
    chained,
    output_columns,
    slice_bit,
    whole_inputs,
    whole_outputs,
)
from test_network import random_network
from test_small_blocks import cases


def constructed_networks():
    return [
        sorter4(),
        hypercube_phase(1),
        hypercube_phase(2),
        hypercube_phase(3),
        hypercube_phase(4),
        batcher_sorter(2),
        batcher_sorter(4),
        batcher_sorter(8),
        batcher_sorter(16),
        green16(),
        green16_naive_merge(),
        van_voorhis16(),
    ]


def network_slices(net):
    return whole_outputs(net.pairs(), whole_inputs(net.width))


def evaluate_all(circuit):
    """Output slices over all 2**n_inputs binary inputs at once."""
    n = circuit.n_inputs
    return evaluate_slices(circuit, whole_inputs(n), 1 << n)


def threshold_slice(n, k):
    """Slice of the k-of-n threshold function over all 2**n inputs."""
    full = (1 << (1 << n)) - 1
    if k <= 0:
        return full
    return _bitslice.at_least(whole_inputs(n), full, k)[k]


def test_single_comparator_circuit():
    circuit = network_to_circuit(Network(2, ((0, 1),)))
    assert circuit.gates == (Gate("AND", 2, 3), Gate("OR", 2, 3))
    assert circuit.outputs == (4, 5)
    slices = evaluate_all(circuit)
    table = [tuple(slice_bit(row, v) for row in slices) for v in range(4)]
    assert table == [(0, 0), (0, 1), (0, 1), (1, 1)]


def test_circuit_matches_network_exhaustively():
    for net in constructed_networks():
        circuit = network_to_circuit(net)
        assert evaluate_all(circuit) == network_slices(net), net


def test_green16_circuit_matches_apply_on_random_vectors(green):
    slices = evaluate_all(network_to_circuit(green))
    rng = random.Random(0x1000)
    for _ in range(1000):
        v = rng.randrange(1 << 16)
        assert [slice_bit(row, v) for row in slices] == green.apply(bits_of(v, 16))


def test_cone_depth_bounded_by_network_depth():
    for net in constructed_networks():
        circuit = network_to_circuit(net)
        net_depth = depth(net)
        for wire in range(net.width):
            assert cone_depth(circuit, wire) <= net_depth


def test_vv_circuit_cone_depths(vv):
    circuit = network_to_circuit(vv)
    for wire in range(16):
        assert cone_depth(circuit, wire) <= 9
    assert cone_depth(circuit, 7) == 9
    assert cone_depth(circuit, 8) == 9


def test_cone_depth_base_cases():
    single = MonotoneCircuit(2, (Gate("AND", 2, 3),), (4,))
    assert cone_depth(single, 0) == 1
    passthrough = MonotoneCircuit(1, (), (2,))
    assert cone_depth(passthrough, 0) == 0
    with pytest.raises(ValueError):
        cone_depth(single, 5)
    with pytest.raises(ValueError):
        cone_depth(single, len(single.outputs))


def test_every_sorter_wire_is_a_threshold_function():
    sorters = (
        sorter4(),
        batcher_sorter(4),
        batcher_sorter(8),
        batcher_sorter(16),
        green16(),
        van_voorhis16(),
    )
    for net in sorters:
        circuit = network_to_circuit(net)
        slices = evaluate_all(circuit)
        for wire in range(net.width):
            assert slices[wire] == threshold_slice(net.width, net.width - wire), (net, wire)


def test_is_threshold_examples(vv):
    circuit = network_to_circuit(sorter4())
    assert is_threshold(circuit, 3, 1)
    assert is_threshold(circuit, 0, 4)
    vv_circuit = network_to_circuit(vv)
    assert is_threshold(vv_circuit, 8, 8)
    assert is_threshold(vv_circuit, 7, 9)
    assert not is_threshold(vv_circuit, 8, 7)
    # Refuted inside the probe: output n-1 of the empty network is x(n-1),
    # which misses input 2 (only x(n-2) reads 1) of "at least one input is 1".
    for n in (17, 20):
        assert not is_threshold(network_to_circuit(Network(n, [])), n - 1, 1)


def assert_is_threshold_matches_whole_input_slices(circuit):
    slices = evaluate_all(circuit)
    n = circuit.n_inputs
    for wire in range(len(circuit.outputs)):
        for k in range(-1, n + 2):
            expected = slices[wire] == threshold_slice(n, k)
            assert is_threshold(circuit, wire, k) == expected, (wire, k)


def test_is_threshold_matches_whole_input_slices():
    # Where the probe runs, its top input rows are constant; then come the
    # product blocks of the front pairs.
    rng = random.Random(0x7E5)
    nets = [Network(1), sorter4(), batcher_sorter(16)] + [
        random_network(rng, width, rng.randint(0, 3 * width)) for width in (2, 5, 13, 14)
    ]
    for net in nets:
        assert_is_threshold_matches_whole_input_slices(network_to_circuit(net))


@pytest.mark.parametrize("n", range(13, 19))
def test_is_threshold_against_brute_force(n):
    # Per input v, output wire w must be 1 iff v has at least k one bits.
    # Past 16 inputs the blocks fix top inputs whose ones count too.
    rng = random.Random(0x7B + n)
    sorter = [(i, i + 1) for r in range(n) for i in range(r % 2, n - 1, 2)]
    broken = list(sorter)
    del broken[rng.randrange(len(broken))]
    ones = [v.bit_count() for v in reversed(range(1 << n))]  # input 0 last
    threshold = {}
    for pairs in (sorter, broken):
        circuit = network_to_circuit(Network(n, pairs))
        outputs = evaluate_all(circuit)
        for wire in (0, n // 2, n - 1):
            for k in (n - wire - 1, n - wire, n - wire + 1):
                if k not in threshold:
                    threshold[k] = int("".join("01"[count >= k] for count in ones), 2)
                expected = outputs[wire] == threshold[k]
                assert is_threshold(circuit, wire, k) == expected, (pairs is sorter, wire, k)


def lanes_per_block(monkeypatch, circuit, wire, k):
    """Verdict of is_threshold and the lane count of each block it evaluates."""
    lanes = []

    def counted(circuit, input_slices, nbits):
        lanes.append(nbits)
        return evaluate_slices(circuit, input_slices, nbits)

    monkeypatch.setattr(circuits, "evaluate_slices", counted)
    return is_threshold(circuit, wire, k), lanes


def test_is_threshold_lanes_per_block(monkeypatch):
    # The product blocks: 3 lanes per front pair, 2 per other input, in
    # blocks of at most 2**16 lanes.  The probe's 4096 inputs come first
    # where the product takes more than one block or more than 8192 lanes.
    # The 16-input majority circuit pairs every input, the pinned 15-input
    # one all but the partner of the pinned one: both take one block and no
    # probe.
    cases = [
        (*majority_circuit(16), 8, [3**8]),
        (*majority_circuit(15, pin_bit=0), 8, [3**7 * 2]),
        (*majority_circuit(15, pin_bit=1), 8, [3**7 * 2]),
    ]
    blocks = {
        13: [1 << 13],
        16: [4096, 1 << 16],
        17: [4096] + [1 << 16] * 2,
        20: [4096] + [1 << 16] * 16,
    }
    for n, expected in blocks.items():
        # No pairs: the one output is the constant 1, "at least 0 of n".
        cases.append((MonotoneCircuit(n, (), (1,)), 0, 0, expected))
    for circuit, wire, k, expected in cases:
        assert lanes_per_block(monkeypatch, circuit, wire, k) == (True, expected)


def test_majority_circuit_checks_pin_bit():
    for n in (15, 16):
        for bad in ("x", 2, -1, None, 1.0):
            with pytest.raises(ValueError, match="pin_bit"):
                majority_circuit(n, pin_bit=bad)
    # At 16 variables no input is pinned: pin_bit=1 would be silently ignored.
    with pytest.raises(ValueError, match="16 variables"):
        majority_circuit(16, pin_bit=1)
    assert majority_circuit(16, pin_bit=0) == majority_circuit(16)


def test_front_pairs_are_and_or_pairs_read_by_nothing_else():
    # Each circuit fails only on x0 = 1, x1 = 0, the input that pairing x0
    # with x1 would leave out; none of them may pair.
    and01, or01 = Gate("AND", 2, 3), Gate("OR", 2, 3)
    hiding = [
        # x0 is also read by a third gate: g2 = x0 AND (x0 OR x1) = x0.
        (MonotoneCircuit(2, (and01, or01, Gate("AND", 2, 5)), (6,)), 2),
        # An output names x0, or x1.
        (MonotoneCircuit(2, (and01, or01), (2,)), 2),
        (MonotoneCircuit(2, (and01, or01), (3,)), 1),
        # x0 read twice by one gate: g1 = x0 OR x0 = x0.
        (MonotoneCircuit(2, (and01, Gate("OR", 2, 2)), (5,)), 2),
    ]
    for circuit, k in hiding:
        assert _front_pairs(circuit) == [], circuit
        assert not is_threshold(circuit, 0, k), circuit
        assert_is_threshold_matches_whole_input_slices(circuit)
    # The partner of a front pair is an input, not a constant or a gate.
    constant = MonotoneCircuit(1, (Gate("AND", 2, 0), Gate("OR", 0, 2)), (3, 4))
    gate = MonotoneCircuit(2, (Gate("AND", 3, 3), Gate("AND", 2, 4), Gate("OR", 4, 2)), (5, 6))
    assert _front_pairs(constant) == [] and _front_pairs(gate) == []
    assert_is_threshold_matches_whole_input_slices(constant)
    assert_is_threshold_matches_whole_input_slices(gate)
    # Two ANDs and no OR do not pair either, though AND is symmetric too.
    two_ands = MonotoneCircuit(2, (and01, Gate("AND", 3, 2)), (4, 5))
    assert _front_pairs(two_ands) == []
    assert_is_threshold_matches_whole_input_slices(two_ands)
    # OR(x1, x0) with swapped operands pairs, here ahead of the 3-input
    # transposition sorter's other comparators.
    sorter3 = network_to_circuit(Network(3, ((0, 1), (1, 2), (0, 1))))
    swapped = MonotoneCircuit(3, (and01, Gate("OR", 3, 2), *sorter3.gates[2:]), sorter3.outputs)
    assert _front_pairs(swapped) == [(0, 1)]
    assert_is_threshold_matches_whole_input_slices(swapped)
    for wire in range(3):
        assert is_threshold(swapped, wire, 3 - wire)


def transposition_sorter(n):
    return [(i, i + 1) for r in range(n) for i in range(r % 2, n - 1, 2)]


@pytest.mark.parametrize(
    "n, layer, t",
    [
        (17, [(0, 1)], 1),  # the pair crosses from the top wire to the low ones
        (18, [(0, 1)], 2),  # the pair is inside the top wires: block 1, 0 is skipped
        (18, [(0, 2), (1, 3)], 2),
        (20, [(0, 2), (1, 3)], 4),  # interleaved pairs inside the top wires
    ],
)
def test_is_threshold_behind_first_layers_against_columns(n, layer, t):
    # The odd-even transposition sorter, whole and with one comparator cut,
    # behind ``layer`` and a chain through every other wire, so that
    # ``layer`` holds the only front pairs.  Numpy columns over all 2**n
    # inputs give each output and the popcount of each input.
    ones = sum(output_columns(Network(n)))
    sorter = transposition_sorter(n)
    cut = len(sorter) // 2 + 1  # a cut that leaves every case unsorted
    for pairs in (sorter, sorter[:cut] + sorter[cut + 1 :]):
        net = Network(n, chained(n, layer) + pairs)
        circuit = network_to_circuit(net)
        assert _front_pairs(circuit) == layer
        partner, _ = _bitslice._first_layer(n, layer)
        assert list(_bitslice.layouts(partner))[-1][1] == t
        verdicts = []
        for wire, column in enumerate(output_columns(net)):
            for k in (n - wire - 1, n - wire, n - wire + 1):
                expected = bool(np.array_equal(column, ones >= k))
                assert is_threshold(circuit, wire, k) == expected, (pairs is sorter, wire, k)
                verdicts.append(expected)
        assert (pairs is sorter) == (sum(verdicts) == n)


def test_is_threshold_memory_is_bounded_by_the_block():
    # The 20-wire odd-even transposition sorter: slices of its 380 gate
    # values over all 2**20 inputs would take ~50 MB, over one block of
    # 2**BLOCK_BITS inputs a sixteenth of that.
    width = 20
    net = Network(width, [(i, i + 1) for r in range(width) for i in range(r % 2, width - 1, 2)])
    circuit = network_to_circuit(net)
    tracemalloc.start()
    try:
        assert is_threshold(circuit, 10, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak


def test_is_threshold_above_the_input_count_counts_nothing():
    circuit = network_to_circuit(sorter4())
    assert not is_threshold(circuit, 0, 5)  # wire 0 is "at least 4", never 0
    tracemalloc.start()
    try:
        assert not is_threshold(circuit, 0, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Counting to k would build k + 1 slices (16 MB for this k).
    assert peak < 256 << 10, peak
    zero = MonotoneCircuit(2, (), (0,))  # the constant 0 is "at least 3 of 2"
    assert is_threshold(zero, 0, 3) and is_threshold(zero, 0, 10**6)
    assert not is_threshold(zero, 0, 2)


def test_threshold_slice_against_popcount_loop():
    for n in (1, 3, 4):
        for k in range(0, n + 2):
            expected = 0
            for v in range(1 << n):
                if bin(v).count("1") >= k:
                    expected |= 1 << v
            assert threshold_slice(n, k) == expected


def test_specialize_constant_folding():
    tiny = network_to_circuit(Network(2, ((0, 1),)))
    pinned_one = specialize(tiny, 1, 1)
    assert pinned_one.gates == ()
    assert pinned_one.outputs == (2, 1)
    pinned_zero = specialize(tiny, 1, 0)
    assert pinned_zero.outputs == (0, 2)


def specializations():
    """(circuit, index, bit, specialized circuit) for every input index and
    both bits, on the constructed networks (both classic sorters among them)
    and seeded random networks of widths 2-10."""
    rng = random.Random(0x5EC)
    nets = constructed_networks() + [
        random_network(rng, width, rng.randint(0, 4 * width))
        for width in range(2, 11)
        for _ in range(3)
    ]
    for net in nets:
        circuit = network_to_circuit(net)
        for index in range(net.width):
            for bit in (0, 1):
                reduced = specialize(circuit, index, bit)
                yield circuit, index, bit, reduced


def pinned_inputs(width, held):
    """Input slices of ``width`` wires over all inputs of the wires not in
    ``held``, each wire in ``held`` fixed at its bit."""
    free = [i for i in range(width) if i not in held]
    inputs = iter(whole_inputs(len(free)))
    full = (1 << (1 << len(free))) - 1
    return [full * held[i] if i in held else next(inputs) for i in range(width)]


def test_specialize_preserves_function():
    for circuit, index, bit, reduced in specializations():
        n = circuit.n_inputs - 1
        assert reduced.n_inputs == n
        # original circuit driven with the pinned input held constant
        driven = pinned_inputs(circuit.n_inputs, {index: bit})
        assert evaluate_all(reduced) == evaluate_slices(circuit, driven, 1 << n), (index, bit)


def test_specialize_pinned_twice_on_every_small_network():
    # specialize is the only code that folds a constant.  Every network of
    # at most 3 comparators on 4 wires, pinned at each input to 0 and to 1,
    # then once more, against the network's whole-input slices with the
    # pinned wires held constant.
    for pairs, *_ in cases(4, 3):
        circuit = network_to_circuit(Network(4, pairs))
        for index, bit in product(range(4), (0, 1)):
            once = specialize(circuit, index, bit)
            held = {index: bit}
            assert evaluate_all(once) == whole_outputs(pairs, pinned_inputs(4, held))
            free = [i for i in range(4) if i != index]
            for again, again_bit in product(range(3), (0, 1)):
                twice = specialize(once, again, again_bit)
                want = whole_outputs(pairs, pinned_inputs(4, {**held, free[again]: again_bit}))
                assert evaluate_all(twice) == want, (pairs, index, bit, again, again_bit)


def unreachable_gates(circuit):
    """Ids of the gates that no output depends on."""
    base = circuit.n_inputs + 2
    live = set(circuit.outputs)
    for gid in range(len(circuit.gates) - 1, -1, -1):
        if base + gid in live:
            live.update(circuit.gates[gid][1:])
    return [gid for gid in range(len(circuit.gates)) if base + gid not in live]


def test_specialize_leaves_every_gate_reachable():
    # specialize folds in one sweep with no liveness pass: on the circuits of
    # networks, pinned once or twice, no gate may be left unreachable.
    for circuit, index, bit, reduced in specializations():
        assert unreachable_gates(circuit) == []
        assert unreachable_gates(reduced) == [], (index, bit)
        for again_index in range(reduced.n_inputs):
            for again_bit in (0, 1):
                again = specialize(reduced, again_index, again_bit)
                assert unreachable_gates(again) == [], (index, bit, again_index, again_bit)


def test_specialize_never_deepens():
    for circuit, index, bit, reduced in specializations():
        before = [cone_depth(circuit, w) for w in range(len(circuit.outputs))]
        after = [cone_depth(reduced, w) for w in range(len(reduced.outputs))]
        assert all(a <= b for a, b in zip(after, before)), (circuit, index, bit)


def test_specialize_argument_validation(vv):
    circuit = network_to_circuit(vv)
    with pytest.raises(ValueError):
        specialize(circuit, 16, 0)
    with pytest.raises(ValueError):
        specialize(circuit, 0, 2)


def test_majority_circuit_16():
    for k, wire in ((8, 8), (9, 7)):
        circuit, out = majority_circuit(16, k)
        assert out == wire
        assert cone_depth(circuit, out) <= 9
        assert is_threshold(circuit, out, k)


@pytest.mark.parametrize("pin_bit", [0, 1])
def test_majority_circuit_15(pin_bit, vv):
    circuit, wire = majority_circuit(15, pin_bit=pin_bit)
    assert circuit == specialize(network_to_circuit(vv), 15, pin_bit)
    assert circuit.n_inputs == 15
    assert cone_depth(circuit, wire) <= 9
    assert is_threshold(circuit, wire, 8)


@pytest.mark.parametrize("pin_bit", [0, 1])
@pytest.mark.parametrize("k", range(1, 16))
def test_majority_circuit_15_every_threshold(k, pin_bit):
    circuit, wire = majority_circuit(15, k, pin_bit=pin_bit)
    assert is_threshold(circuit, wire, k)
    assert cone_depth(circuit, wire) <= 9


def test_majority_circuit_validation():
    with pytest.raises(ValueError):
        majority_circuit(14)
    with pytest.raises(ValueError):
        majority_circuit(16, 17)
    with pytest.raises(ValueError):
        majority_circuit(15, pin_bit=2)


@pytest.mark.parametrize("args", [(15.0,), (16, 8.5), (16.0, 8)])
def test_majority_circuit_wants_integer_sizes_and_thresholds(args):
    # Refused before any gate table is looked up.
    circuits._majority_table.cache_clear()
    with pytest.raises(TypeError):
        majority_circuit(*args)
    assert circuits._majority_table.cache_info() == (0, 0, None, 0)  # hits, misses, maxsize, size
    circuit, wire = majority_circuit(np.int64(16), np.int8(9))
    assert wire == 7 and type(wire) is int
    assert is_threshold(circuit, wire, 9)


def test_is_threshold_cap():
    wide = _bitslice.MAX_WIDTH + 1
    circuit = MonotoneCircuit(wide, (), tuple(range(2, wide + 2)))
    with pytest.raises(ValueError, match="slice engine"):
        is_threshold(circuit, 0, 1)


def test_is_threshold_checks_the_width_before_reading_gates():
    # Finding the front pairs first would build one reader list per input.
    circuit = MonotoneCircuit(1 << 20, (), (2,))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="slice engine"):
            is_threshold(circuit, 0, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_circuit_reference_validation():
    # A gate's operands are tested together; the message names the bad one.
    for gate, bad in ((Gate("AND", 2, 7), 7), (Gate("AND", 2, 4), 4), (Gate("OR", 4, 3), 4)):
        with pytest.raises(ValueError, match=f"gate g0 has bad operand {bad}$"):
            MonotoneCircuit(2, (gate,), (4,))
    with pytest.raises(ValueError, match="bad output reference 7"):
        MonotoneCircuit(2, (), (7,))
    for gate in (Gate("XOR", 2, 3), Gate("XOR", 2, 9)):
        with pytest.raises(ValueError, match="gate kind must be AND or OR, got 'XOR'"):
            MonotoneCircuit(2, (gate,), (4,))
    for gates, outputs in (
        ((Gate("AND", -1, 2),), (4,)),  # would wrap to the last value
        ((Gate("AND", 2, 3),), (-1,)),
        ((Gate("AND", 2, 5), Gate("OR", 2, 3)), (5,)),  # g0 names the later g1
        ((Gate("AND", 2, 3),), (5,)),  # output past the last gate
    ):
        with pytest.raises(ValueError):
            MonotoneCircuit(2, gates, outputs)
    # Operands are indices only; no names are read.
    for gates, outputs in (
        ((Gate("AND", "x0", "x1"),), (4,)),
        ((Gate("AND", 2, 3.0),), (4,)),
        ((), ("x0",)),
        ((), (2.0,)),
    ):
        with pytest.raises(TypeError):
            MonotoneCircuit(2, gates, outputs)


def test_evaluate_slices_wants_one_slice_per_input():
    circuit = network_to_circuit(Network(2, ((0, 1),)))
    with pytest.raises(ValueError, match="3 input slices for 2 inputs"):
        evaluate_slices(circuit, [0b0011, 0b0101, 0], 4)


def test_render_gate_list():
    circuit = network_to_circuit(Network(2, ((0, 1),)))
    assert render_gate_list(circuit) == (
        "g0 = AND x0 x1\ng1 = OR x0 x1\nout0 = g0\nout1 = g1\n"
    )
    assert render_gate_list(specialize(circuit, 1, 1)) == "out0 = x0\nout1 = 1\n"
    consts = MonotoneCircuit(2, (Gate("AND", 0, 3), Gate("OR", 1, 4)), (5, 4, 2, 1))
    assert render_gate_list(consts) == (
        "g0 = AND 0 x1\ng1 = OR 1 g0\nout0 = g1\nout1 = g0\nout2 = x0\nout3 = 1\n"
    )


