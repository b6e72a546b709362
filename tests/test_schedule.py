"""Lane counts of the exhaustive checks.

Every 16-wire check of the paper runs on a network whose first layer pairs
all 16 wires, so the slice engine sweeps the 3**8 = 6,561 vectors that
layer can output, in one block and with no probe ahead of it.  Wider
networks keep the probe of inputs 0 .. 2**PROBE_BITS - 1 first.  A change
to the schedule fails here rather than only in a benchmark row, and so
does a threshold check of a circuit that sweeps other blocks than the
check of the network it comes from.
"""

import random

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

from test_circuits import lanes_per_block, transposition_sorter
from test_network import random_network

ONE_BLOCK = [("block", 3**8)]


@pytest.fixture
def swept(monkeypatch):
    """The (kind, lanes) of every block the slice engine sweeps, in order;
    kind is "probe" or "block", as the part of ``layouts`` it comes from
    says."""
    blocks = []
    layouts = _bitslice.layouts

    def drawn(kind, lanes, tops):
        for top in tops:
            blocks.append((kind, lanes))
            yield top

    def recorded(partner):
        for probe, t, lanes, low, tops in layouts(partner):
            yield probe, t, lanes, low, drawn("probe" if probe else "block", lanes, tops)

    monkeypatch.setattr(_bitslice, "layouts", recorded)
    return blocks


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
def test_sixteen_wire_checks_sweep_one_block_of_the_first_layer(swept, name):
    assert SIXTEEN_WIRE_CHECKS[name]()
    assert swept == ONE_BLOCK


def test_wider_networks_take_the_probe_first(swept):
    # The 18-wire odd-even transposition sorter pairs every wire in its
    # first layer: the probe, then one block of 3**9 lanes.
    width = 18
    oet = Network(width, [(i, i + 1) for r in range(width) for i in range(r % 2, width - 1, 2)])
    assert verify_sorts_binary(oet).sorts
    assert swept == [("probe", 1 << PROBE_BITS), ("block", 3**9)]
    swept.clear()
    infer_poset(oet)
    assert swept[0] == ("probe", 1 << PROBE_BITS)
    # A seeded random 20-wire network: the probe comes first, and here it
    # already refutes.
    net = random_network(random.Random(0x20), width=20, size=240)
    swept.clear()
    assert not verify_sorts_binary(net).sorts
    assert swept == [("probe", 1 << PROBE_BITS)]
    swept.clear()
    infer_poset(net)
    assert swept[0] == ("probe", 1 << PROBE_BITS)


@pytest.mark.parametrize("width", [*range(13, 21), "batcher16"])
def test_networks_and_circuits_sweep_one_schedule(width, monkeypatch):
    # The lanes of each block first_unsorted sweeps on a sorter, and of each
    # block is_threshold evaluates on one of its circuit's outputs: the same
    # list, the probe first past 16 wires, then the first layer's product.
    net = batcher_sorter(16) if width == "batcher16" else Network(width, transposition_sorter(width))
    width = net.width
    sweep = _bitslice._sweep
    swept = []

    def swept_lanes(width, pairs):
        for inputs, rows, full in sweep(width, pairs):
            swept.append(full.bit_length())
            yield inputs, rows, full

    monkeypatch.setattr(_bitslice, "_sweep", swept_lanes)
    assert verify_sorts_binary(net).sorts
    probe = [1 << PROBE_BITS] if width > 16 else []
    assert swept == probe + [3 ** (width // 2) << width % 2]
    wire = width // 2
    assert lanes_per_block(monkeypatch, network_to_circuit(net), wire, width - wire) == (True, swept)
