"""Lane counts of the exhaustive checks.

Every 16-wire check of the paper runs on a network whose first layer pairs
all 16 wires, so the slice engine sweeps the 3**8 = 6,561 vectors that
layer can output, in one block and with no probe ahead of it.  Wider
networks keep the probe of inputs 0 .. 2**PROBE_BITS - 1 first.  The
blocks are seen through the block recorder of ``test_bitslice``, which
wraps ``_bitslice._sweep``.  A change to the schedule fails here rather
than only in a benchmark row, and so does a threshold check of a circuit
that sweeps other blocks than the check of the network it comes from.
"""

import random

import numpy as np
import pytest

from sortnet16 import (
    Network,
    batcher_sorter,
    check_cube_poset,
    check_green_m_poset,
    check_observations,
    check_strategy_completeness,
    check_vv_m_poset,
    green16,
    hypercube_phase,
    infer_poset,
    network_to_circuit,
    strategy_sorter,
    van_voorhis16,
    verify_sorts_binary,
)
from sortnet16 import _bitslice
from sortnet16._bitslice import PROBE_BITS

from test_bitslice import recording
from test_circuits import lanes_per_block, transposition_sorter
from test_network import random_network

ONE_BLOCK = [("block", 3**8)]


@pytest.fixture
def sweeps(monkeypatch):
    """The blocks of each ``_bitslice._sweep`` call, as the block recorder of
    ``test_bitslice`` sees them."""
    calls = []
    monkeypatch.setattr(_bitslice, "_sweep", recording(calls))
    return calls


def swept(calls):
    """The (kind, lanes) of every block swept, in order; kind is "probe" or
    "block"."""
    return [("probe" if b.probe else "block", len(b.index)) for blocks in calls for b in blocks]


SIXTEEN_WIRE_CHECKS = {
    "verify green16": lambda: verify_sorts_binary(green16()).sorts,
    "verify van_voorhis16": lambda: verify_sorts_binary(van_voorhis16()).sorts,
    "verify batcher16": lambda: verify_sorts_binary(batcher_sorter(16)).sorts,
    "verify strategy sorter": lambda: verify_sorts_binary(strategy_sorter()).sorts,
    "refute hypercube(4)": lambda: not verify_sorts_binary(hypercube_phase(4)).sorts,
    "strategy completeness": check_strategy_completeness,
    "green M-poset": check_green_m_poset,
    "van Voorhis M-poset": check_vv_m_poset,
    "green cube poset": lambda: check_cube_poset(green16().prefix(32), 4),
    "van Voorhis cube poset": lambda: check_cube_poset(van_voorhis16().prefix(32), 4),
    "green prefix 45 poset": lambda: infer_poset(green16().prefix(45)) is not None,
    "claims a-d": lambda: check_observations().all_hold,
}


@pytest.mark.parametrize("name", SIXTEEN_WIRE_CHECKS)
def test_sixteen_wire_checks_sweep_one_block_of_the_first_layer(sweeps, name):
    assert SIXTEEN_WIRE_CHECKS[name]()
    assert swept(sweeps) == ONE_BLOCK


def test_wider_networks_take_the_probe_first(sweeps):
    # The 18-wire odd-even transposition sorter pairs every wire in its
    # first layer: the probe, then one block of 3**9 lanes.
    width = 18
    oet = Network(width, [(i, i + 1) for r in range(width) for i in range(r % 2, width - 1, 2)])
    assert verify_sorts_binary(oet).sorts
    assert swept(sweeps) == [("probe", 1 << PROBE_BITS), ("block", 3**9)]
    sweeps.clear()
    infer_poset(oet)
    assert swept(sweeps)[0] == ("probe", 1 << PROBE_BITS)
    # A seeded random 20-wire network: the probe comes first, and here it
    # already refutes.
    net = random_network(random.Random(0x20), width=20, size=240)
    sweeps.clear()
    assert not verify_sorts_binary(net).sorts
    assert swept(sweeps) == [("probe", 1 << PROBE_BITS)]
    sweeps.clear()
    infer_poset(net)
    assert swept(sweeps)[0] == ("probe", 1 << PROBE_BITS)


@pytest.mark.parametrize("width", [*range(13, 21), "batcher16"])
def test_networks_and_circuits_sweep_one_schedule(width, sweeps, monkeypatch):
    # The blocks of each _bitslice._sweep call: first_unsorted on a sorter,
    # then is_threshold on one of its circuit's outputs, which evaluates the
    # circuit on every block of its own call.  Both calls sweep the same
    # list, the probe first past 16 wires, then the first layer's product.
    net = batcher_sorter(16) if width == "batcher16" else Network(width, transposition_sorter(width))
    width = net.width
    assert verify_sorts_binary(net).sorts
    wire = width // 2
    verdict = lanes_per_block(monkeypatch, network_to_circuit(net), wire, width - wire)
    network, circuit = sweeps
    probe = [("probe", 1 << PROBE_BITS)] if width > 16 else []
    assert swept([network]) == probe + [("block", 3 ** (width // 2) << width % 2)]
    assert swept([circuit]) == swept([network])
    assert all(np.array_equal(a.index, b.index) for a, b in zip(circuit, network))
    assert verdict == (True, [len(b.index) for b in network])
