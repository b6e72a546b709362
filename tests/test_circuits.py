import random

import numpy as np
import pytest

from sortnet16 import (
    Gate,
    MonotoneCircuit,
    Network,
    asap_schedule,
    batcher_sorter,
    cone_depth,
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
from sortnet16 import _bitslice
from sortnet16.circuits import evaluate_all, evaluate_slices, threshold_slice

from test_bitslice import bits_of, slice_bit


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
    lows = [c.low for c in net.comparators]
    highs = [c.high for c in net.comparators]
    return _bitslice.evaluate(net.width, lows, highs)


def test_single_comparator_circuit():
    circuit = network_to_circuit(Network(2, ((0, 1),)))
    assert circuit.gates == (Gate("AND", "x0", "x1"), Gate("OR", "x0", "x1"))
    assert circuit.outputs == ("g0", "g1")
    slices = evaluate_all(circuit)
    table = [tuple(slice_bit(row, v) for row in slices) for v in range(4)]
    assert table == [(0, 0), (0, 1), (0, 1), (1, 1)]


def test_circuit_matches_network_exhaustively():
    for net in constructed_networks():
        circuit = network_to_circuit(net)
        assert np.array_equal(evaluate_all(circuit), network_slices(net)), net


def test_green16_circuit_matches_apply_on_random_vectors(green):
    slices = evaluate_all(network_to_circuit(green))
    rng = random.Random(0x1000)
    for _ in range(1000):
        v = rng.randrange(1 << 16)
        assert [slice_bit(row, v) for row in slices] == green.apply(bits_of(v, 16))


def test_cone_depth_bounded_by_network_depth():
    for net in constructed_networks():
        circuit = network_to_circuit(net)
        net_depth = asap_schedule(net).depth
        for wire in range(net.width):
            assert cone_depth(circuit, wire) <= net_depth


def test_vv_circuit_cone_depths(vv):
    circuit = network_to_circuit(vv)
    for wire in range(16):
        assert cone_depth(circuit, wire) <= 9
    assert cone_depth(circuit, 7) == 9
    assert cone_depth(circuit, 8) == 9


def test_cone_depth_base_cases():
    single = MonotoneCircuit(2, (Gate("AND", "x0", "x1"),), ("g0",))
    assert cone_depth(single, 0) == 1
    passthrough = MonotoneCircuit(1, (), ("x0",))
    assert cone_depth(passthrough, 0) == 0
    with pytest.raises(ValueError):
        cone_depth(single, 5)


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
            assert np.array_equal(
                slices[wire], threshold_slice(net.width, net.width - wire)
            ), (net, wire)


def test_is_threshold_examples(vv):
    circuit = network_to_circuit(sorter4())
    assert is_threshold(circuit, 3, 1)
    assert is_threshold(circuit, 0, 4)
    vv_circuit = network_to_circuit(vv)
    assert is_threshold(vv_circuit, 8, 8)
    assert is_threshold(vv_circuit, 7, 9)
    assert not is_threshold(vv_circuit, 8, 7)


def test_threshold_slice_against_popcount_loop():
    for n in (1, 3, 4):
        for k in range(0, n + 2):
            expected = 0
            for v in range(1 << n):
                if bin(v).count("1") >= k:
                    expected |= 1 << v
            words = threshold_slice(n, k).astype("<u8").tobytes()
            assert int.from_bytes(words, "little") == expected


def test_specialize_constant_folding():
    tiny = network_to_circuit(Network(2, ((0, 1),)))
    pinned_one = specialize(tiny, 1, 1)
    assert pinned_one.gates == ()
    assert pinned_one.outputs == ("x0", "1")
    pinned_zero = specialize(tiny, 1, 0)
    assert pinned_zero.outputs == ("0", "x0")


def test_specialize_preserves_function(vv):
    circuit = network_to_circuit(vv)
    patterns15 = list(_bitslice.input_patterns(15))
    nbits = 1 << 15
    for index, bit in ((15, 0), (15, 1), (0, 1), (7, 0)):
        reduced = specialize(circuit, index, bit)
        assert reduced.n_inputs == 15
        # original circuit driven with the pinned input held constant
        full = _bitslice.full_row(nbits)
        pinned = full if bit else np.zeros_like(full)
        driven = patterns15[:index] + [pinned] + patterns15[index:]
        expected = evaluate_slices(circuit, driven, nbits)
        assert np.array_equal(evaluate_all(reduced), expected)


def test_specialize_never_deepens(vv):
    circuit = network_to_circuit(vv)
    before = [cone_depth(circuit, w) for w in range(16)]
    reduced = specialize(circuit, 15, 0)
    after = [cone_depth(reduced, w) for w in range(16)]
    assert all(a <= b for a, b in zip(after, before))


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
def test_majority_circuit_15(pin_bit):
    circuit, wire = majority_circuit(15, pin_bit=pin_bit)
    assert circuit.n_inputs == 15
    assert cone_depth(circuit, wire) <= 9
    assert is_threshold(circuit, wire, 8)


def test_majority_circuit_validation():
    with pytest.raises(ValueError):
        majority_circuit(14)
    with pytest.raises(ValueError):
        majority_circuit(16, 17)
    with pytest.raises(ValueError):
        majority_circuit(15, pin_bit=2)


def test_is_threshold_cap():
    wide = _bitslice.MAX_WIDTH + 1
    circuit = MonotoneCircuit(wide, (), tuple(f"x{i}" for i in range(wide)))
    with pytest.raises(ValueError, match="slice engine"):
        is_threshold(circuit, 0, 1)


def test_circuit_reference_validation():
    with pytest.raises(ValueError):
        MonotoneCircuit(2, (Gate("AND", "x0", "x5"),), ("g0",))
    with pytest.raises(ValueError):
        MonotoneCircuit(2, (Gate("AND", "x0", "g0"),), ("g0",))
    with pytest.raises(ValueError):
        MonotoneCircuit(2, (), ("g3",))
    with pytest.raises(ValueError):
        Gate("XOR", "x0", "x1")


def test_render_gate_list():
    circuit = network_to_circuit(Network(2, ((0, 1),)))
    assert render_gate_list(circuit) == (
        "g0 = AND x0 x1\ng1 = OR x0 x1\nout0 = g0\nout1 = g1\n"
    )

