"""The slice engine with its probe and blocks shrunk to a few lanes.

``_bitslice._sweep`` reads ``PROBE_BITS`` and ``BLOCK_BITS`` on each call,
so with them at 1-2 and 2-4 a network of 4 to 6 wires already takes the
probe, several top wires and skipped blocks, which the real constants reach
only past 13 or 16 wires.  Every network of at most 4 comparators on 4
wires and at most 3 on 5 and 6 wires (6,282 networks) is compared with
whole-input slices built from the definition of the input order
(``test_bitslice``), with no block, probe or first layer.
The circuits of all but the 3-comparator networks on 6 wires (2,907
networks) are checked on every output and threshold; the others would add
about 40% to the test's time.  Claims a-d of a few 16-wire prefixes, swept in up
to 16,385 blocks, are compared with the column oracle of ``test_analysis``.
"""

from functools import cache
from itertools import combinations, product

import pytest

from sortnet16 import (
    Network,
    _bitslice,
    check_observations,
    circuits,
    hypercube_phase,
    is_threshold,
    network_to_circuit,
)

from test_analysis import interleaved_prefixes, oracle_claims
from test_bitslice import whole_inputs, whole_outputs

CONFIGS = [(probe, block) for probe in (1, 2) for block in (2, 3, 4)]
# (wires, most comparators, most comparators whose circuits are checked)
SIZES = [(4, 4, 4), (5, 3, 3), (6, 3, 2)]


@cache
def cases(width, most):
    """Every network of at most ``most`` comparators on ``width`` wires,
    with its output slices, least unsorted input and leq rows."""
    comparators = list(combinations(range(width), 2))
    found = []
    for size in range(most + 1):
        for pairs in product(comparators, repeat=size):
            rows = whole_outputs(pairs, whole_inputs(width))
            found.append((pairs, rows, *oracle(width, rows)))
    return found


@cache
def thresholds(width):
    """k -> the inputs with at least k ones, for k = -1 .. width + 1."""
    return {
        k: sum(1 << v for v in range(1 << width) if v.bit_count() >= k)
        for k in range(-1, width + 2)
    }


def oracle(width, rows):
    """Least unsorted input (-1 if none) and the rows of the always-at-most
    relation."""
    bad = 0
    for lo, hi in zip(rows, rows[1:]):
        bad |= lo & ~hi
    least = (bad & -bad).bit_length() - 1
    leq = [sum(1 << b for b in range(width) if not rows[a] & ~rows[b]) for a in range(width)]
    return least, leq


def assert_thresholds(circuit, rows):
    for wire, row in enumerate(rows):
        for k, want in thresholds(len(rows)).items():
            assert is_threshold(circuit, wire, k) == (row == want), (wire, k)


@pytest.fixture(params=CONFIGS, ids=[f"probe{p}-block{b}" for p, b in CONFIGS])
def shrunk(request, monkeypatch):
    probe_bits, block_bits = request.param
    monkeypatch.setattr(_bitslice, "PROBE_BITS", probe_bits)
    monkeypatch.setattr(_bitslice, "BLOCK_BITS", block_bits)
    _bitslice._product_inputs.cache_clear()
    yield CONFIGS.index(request.param)
    _bitslice._product_inputs.cache_clear()


def test_every_small_network_against_whole_input_slices(shrunk):
    # first_unsorted and leq_masks run on every network in every
    # configuration.  Every wire and k of each network's circuit are checked
    # in one configuration, by turns, which keeps the test to a few seconds.
    turn = 0
    for width, most, most_circuit in SIZES:
        for pairs, rows, least, leq in cases(width, most):
            assert _bitslice.first_unsorted(width, pairs) == least, pairs
            assert _bitslice.leq_masks(width, pairs) == leq, pairs
            if len(pairs) <= most_circuit:
                if turn % len(CONFIGS) == shrunk:
                    assert_thresholds(network_to_circuit(Network(width, pairs)), rows)
                turn += 1


@cache
def claim_cases():
    """16-wire prefixes and their claim verdicts from the column oracle: no
    comparator (every claim fails, 65,536 lanes), the cube phase by layers
    (the last passes) and random comparators behind an interleaved first
    layer (lanes out of index order)."""
    cube = hypercube_phase(4)
    prefixes = [Network(16), *(cube.prefix(k) for k in (8, 16, 24, 32))]
    prefixes += interleaved_prefixes(1, seed=0x1A7E)[-1:]
    return [(prefix, oracle_claims(prefix)) for prefix in prefixes]


def test_claims_against_the_column_oracle(shrunk):
    # Each claim's verdict comes from its first failing block, the probe
    # included, and its counterexample is the least failing input there.
    for prefix, claims in claim_cases():
        assert check_observations(prefix).claims == claims, prefix.comparators


def transposition_sorter(n):
    return [(i, i + 1) for r in range(n) for i in range(r % 2, n - 1, 2)]


@pytest.mark.parametrize("width", [4, 5, 6])
def test_circuits_that_sweep_several_blocks(shrunk, width):
    # A sorter behind a chain (0, 1), (1, 2), .., or (w-2, w-1), (w-3, w-2),
    # .. (0, 1): one front pair, so the sweep is cut into many blocks, and
    # from the bottom the chain's early comparators may reach no top wire.
    # Each output is a threshold function of its own k; with any comparator
    # of the sorter dropped some output is not, and the check may only fail
    # on a late block.
    up = [(i, i + 1) for i in range(width - 1)]
    for chain in (up, up[::-1]):
        front = chain[0]
        sorter = chain + transposition_sorter(width)
        cut = [sorter[:i] + sorter[i + 1 :] for i in range(len(chain), len(sorter))]
        for pairs in [sorter, *cut]:
            circuit = network_to_circuit(Network(width, pairs))
            assert circuits._front_pairs(circuit) == [front]
            assert len(list(_bitslice._sweep(width, [front]))) >= 2
            rows = whole_outputs(pairs, whole_inputs(width))
            assert_thresholds(circuit, rows)
            assert _bitslice.first_unsorted(width, pairs) == oracle(width, rows)[0]
        assert all(is_threshold(network_to_circuit(Network(width, sorter)), w, width - w)
                   for w in range(width))
