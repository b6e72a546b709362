"""Acceptance suite: one test per headline claim, exact tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in verbose test listings), so the whole contract can be audited at a
glance:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time

from sortnet16 import (
    batcher_sorter,
    check_cube_poset,
    check_green_m_poset,
    check_observations,
    check_strategy_completeness,
    check_vv_m_poset,
    cone_depth,
    depth,
    green16,
    green16_naive_merge,
    infer_poset,
    is_threshold,
    majority_circuit,
    network_to_circuit,
    parse_text,
    render_text,
    van_voorhis16,
    verify_sorts_binary,
)
from sortnet16.analysis import SAMPLED

from test_bitslice import bits_of, least_failing_index
from test_network import random_network
from test_render import random_tagged_network


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_c01_green16_size_depth_sorts():
    net = green16()
    assert len(net) == 60
    assert depth(net) == 10
    assert verify_sorts_binary(net).sorts
    report(1, "green16 has 60 comparators, depth 10, sorts all 65536 binary inputs")


def test_c02_van_voorhis16_size_depth_sorts():
    net = van_voorhis16()
    assert len(net) == 61
    assert depth(net) == 9
    assert verify_sorts_binary(net).sorts
    report(2, "van_voorhis16 has 61 comparators, depth 9, sorts all 65536 binary inputs")


def test_c03_shared_prefix_is_depth4_cube_order():
    for net in (green16(), van_voorhis16()):
        prefix = net.prefix(32)
        assert depth(prefix) == 4
        assert check_cube_poset(prefix, 4)
    report(3, "32-comparator prefix of both networks: depth 4, exact 4-cube poset")


def test_c04_observations_hold_in_both_modes():
    exhaustive = check_observations()
    assert exhaustive.inputs_checked == 65536
    assert exhaustive.all_hold
    sampled = check_observations(mode=SAMPLED, samples=10_000, seed=0xC0FFEE)
    assert sampled.all_hold
    report(4, "claims a-d hold on all 2^16 binary inputs and 10^4 seeded permutations")


def test_c05_m_posets():
    assert check_green_m_poset()
    assert check_vv_m_poset()
    report(5, "tetrad dominance patterns hold for both M-sorting routes")


def test_c06_strategy_completeness():
    assert check_strategy_completeness(batcher_sorter(8))
    report(6, "cube phase + layer sorters + Batcher-8 on M + final pair = verified sorter")


def test_c07_merge_order_depth_regression():
    assert depth(green16()) == 10
    assert depth(green16_naive_merge()) >= 11
    report(7, "bottom-up merge costs depth >= 11 versus 10 with (7,8) first")


def test_c08_majority_corollary():
    circuit = network_to_circuit(van_voorhis16())
    assert cone_depth(circuit, 8) <= 9
    assert cone_depth(circuit, 7) <= 9
    assert is_threshold(circuit, 8, 8)  # majority as >= 8 of 16
    assert is_threshold(circuit, 7, 9)  # majority as >= 9 of 16
    maj15, wire = majority_circuit(15)
    assert cone_depth(maj15, wire) <= 9
    assert is_threshold(maj15, wire, 8)  # >= 8 of 15, exhaustive over 2^15
    report(8, "majority of 16 (both conventions) and of 15 at circuit depth <= 9, "
              "truth tables verified exhaustively")


def test_c09_batcher_baseline():
    net = batcher_sorter(16)
    assert len(net) == 63
    assert depth(net) == 10
    assert verify_sorts_binary(net).sorts
    assert len(net) > len(green16())
    report(9, "batcher_sorter(16): 63 comparators, depth 10, strictly larger than green16")


def test_c10_property_suites():
    rng = random.Random(0xACCE)
    # multiset preservation
    net = green16()
    for _ in range(500):
        values = [rng.randint(0, 20) for _ in range(16)]
        assert sorted(net.apply(values)) == sorted(values)
    # bit-parallel vs per-vector verifier agreement
    for _ in range(40):
        sample = random_network(rng, width=rng.randint(2, 10))
        bad = least_failing_index(sample)
        assert verify_sorts_binary(sample).counterexample == (
            None if bad < 0 else tuple(bits_of(bad, sample.width))
        )
    # text round-trip
    for _ in range(40):
        sample = random_tagged_network(rng)
        assert parse_text(render_text(sample)) == sample
    # Hasse reduction followed by closure reproduces the relation
    poset = infer_poset(green16().prefix(45))
    reach = {a: {a} for a in range(16)}
    changed = True
    while changed:
        changed = False
        for a, b in poset.covers():
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    closed = {(a, b) for a in reach for b in reach[a]}
    assert closed == {(a, b) for a in range(16) for b in range(16) if poset.leq(a, b)}
    report(10, "multiset preservation, verifier agreement, round-trip, "
               "Hasse reduction/closure identity")


def test_c11_bitsliced_verification_under_50ms():
    net = van_voorhis16()
    best = min(
        _timed(lambda: verify_sorts_binary(net)) for _ in range(5)
    )
    assert best < 0.050, f"bit-sliced width-16 verification took {best * 1e3:.1f} ms"
    report(11, f"bit-sliced width-16 verification in {best * 1e3:.2f} ms (< 50 ms)")


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
