import random
import tracemalloc

import numpy as np
import pytest

from sortnet16 import (
    M_WIRES,
    DegenerateOrderError,
    MonotoneCircuit,
    Network,
    SortVerdict,
    _bitslice,
    counterexample_permutation,
    green16,
    hypercube_phase,
    infer_poset,
    is_threshold,
    sorter4,
    van_voorhis16,
    verify_sorts_binary,
)
from sortnet16.verify import Poset, poset_from_rows

from test_bitslice import bits_of, brute_force_poset_pairs, column_oracle, least_failing_index
from test_network import random_network


def test_single_comparator_sorts():
    assert verify_sorts_binary(Network(2, ((0, 1),))).sorts


def test_identity_network_counterexample():
    verdict = verify_sorts_binary(Network(2))
    assert not verdict.sorts
    assert verdict.counterexample == (1, 0)


def test_counterexample_is_lexicographically_least():
    verdict = verify_sorts_binary(Network(3))
    assert verdict.counterexample == (0, 1, 0)


def test_green16_sorts_binary(green):
    assert verify_sorts_binary(green).sorts


def test_bitsliced_and_naive_agree_on_random_networks():
    rng = random.Random(0x5EED)
    for _ in range(100):
        net = random_network(rng, width=rng.randint(2, 12))
        bad = least_failing_index(net)
        expected = None if bad < 0 else tuple(bits_of(bad, net.width))
        assert verify_sorts_binary(net) == SortVerdict(bad < 0, expected)


def test_verified_sorter_sorts_random_permutations(green):
    rng = random.Random(0x01)
    assert verify_sorts_binary(green).sorts
    values = list(range(16))
    for _ in range(10_000):
        rng.shuffle(values)
        assert green.apply(values) == sorted(values)


def test_counterexample_lifts_to_failing_permutation():
    rng = random.Random(0x02)
    lifted = 0
    while lifted < 30:
        net = random_network(rng)
        verdict = verify_sorts_binary(net)
        if verdict.sorts:
            continue
        perm = counterexample_permutation(net, verdict.counterexample)
        assert sorted(perm) == list(range(net.width))
        out = net.apply(perm)
        assert any(a > b for a, b in zip(out, out[1:]))
        lifted += 1


def test_counterexample_permutation_examples():
    perm = counterexample_permutation(Network(2), [1, 0])
    assert perm == [1, 0]
    net = Network(3, ((0, 1),))
    perm = counterexample_permutation(net, [0, 1, 0])
    out = net.apply(perm)
    assert any(a > b for a, b in zip(out, out[1:]))


def test_counterexample_permutation_rejects_sorted_vector(green):
    with pytest.raises(ValueError):
        counterexample_permutation(green, [0] * 8 + [1] * 8)
    with pytest.raises(ValueError):
        counterexample_permutation(green, [2] * 16)
    with pytest.raises(ValueError):
        counterexample_permutation(green, [0, 1])


def test_width_cap():
    # The engine's ceiling is the one width limit of every exhaustive check.
    wide = _bitslice.MAX_WIDTH + 1
    with pytest.raises(ValueError, match="slice engine"):
        verify_sorts_binary(Network(wide))
    with pytest.raises(ValueError, match="slice engine"):
        infer_poset(Network(wide))


def test_engine_ceiling_overrides_cap():
    # No argument lifts the ceiling: the cap and mode knobs no longer exist,
    # and every exhaustive entry point refuses MAX_WIDTH + 1 on its own.
    wide = _bitslice.MAX_WIDTH + 1
    circuit = MonotoneCircuit(wide, (), tuple(range(2, wide + 2)))
    with pytest.raises(TypeError):
        verify_sorts_binary(Network(wide), cap=64)
    with pytest.raises(TypeError):
        verify_sorts_binary(Network(wide), mode="naive")
    with pytest.raises(TypeError):
        infer_poset(Network(wide), cap=64)
    with pytest.raises(TypeError):
        is_threshold(circuit, 0, 1, cap=64)
    with pytest.raises(ValueError, match="slice engine"):
        verify_sorts_binary(Network(wide))
    with pytest.raises(ValueError, match="slice engine"):
        infer_poset(Network(wide))
    with pytest.raises(ValueError, match="slice engine"):
        is_threshold(circuit, 0, 1)


def test_width_25_gets_a_verdict():
    verdict = verify_sorts_binary(Network(25, ((23, 24),)))
    assert verdict == SortVerdict(False, (0,) * 22 + (1, 0, 0))


def test_early_failure_skips_the_sweep():
    # Input 4 already fails, so the first block of 4096 inputs answers; the
    # 2**25 inputs past it are never evaluated.
    net = Network(25, ((23, 24),))
    tracemalloc.start()
    try:
        verdict = verify_sorts_binary(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == SortVerdict(False, (0,) * 22 + (1, 0, 0))
    assert peak < 1 << 20, peak


def test_sweep_memory_is_one_block():
    # The 22-wire odd-even transposition sorter is swept in blocks of at most
    # 2**BLOCK_BITS lanes, one at a time: 22 slices of at most 8 KB, where
    # slices over all 2**22 inputs would take 11.5 MB.
    width = 22
    net = Network(width, [(i, i + 1) for r in range(width) for i in range(r % 2, width - 1, 2)])
    tracemalloc.start()
    try:
        verdict = verify_sorts_binary(net)
        poset = infer_poset(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == SortVerdict(True)
    assert poset.covers() == [(i, i + 1) for i in range(width - 1)]
    assert peak < 4 << 20, peak


def test_infer_poset_single_comparator():
    poset = infer_poset(Network(2, ((0, 1),)))
    assert poset.rows == (0b11, 0b10)  # 0 <= 1 besides the reflexive pairs


def test_infer_poset_diamond_matches_brute_force():
    net = hypercube_phase(2)
    poset = infer_poset(net)
    expected = brute_force_poset_pairs(net)
    actual = {(a, b) for a in range(4) for b in range(4) if poset.leq(a, b)}
    assert actual == expected
    assert poset.leq(0, 1) and poset.leq(0, 2) and poset.leq(1, 3) and poset.leq(2, 3)
    assert not poset.leq(1, 2) and not poset.leq(2, 1)


def test_infer_poset_matches_brute_force_on_random_networks():
    rng = random.Random(0x03)
    for _ in range(25):
        net = random_network(rng, width=rng.randint(2, 8))
        poset = infer_poset(net)
        actual = {
            (a, b) for a in range(net.width) for b in range(net.width) if poset.leq(a, b)
        }
        assert actual == brute_force_poset_pairs(net)


@pytest.mark.parametrize("build", [green16, van_voorhis16])
def test_every_prefix_poset_of_the_classics(build):
    # The cube order after the approximate phase and the dominance patterns
    # on M are all read from these posets.
    net = build()
    for k in range(len(net.comparators) + 1):
        prefix = net.prefix(k)
        assert list(infer_poset(prefix).rows) == column_oracle(prefix)[1], k


def covers_by_definition(poset, elems):
    """The O(n**3) definition: a < b with no kept wire c strictly between."""
    return [
        (a, b)
        for a in elems
        for b in elems
        if a != b
        and poset.leq(a, b)
        and not any(c not in (a, b) and poset.leq(a, c) and poset.leq(c, b) for c in elems)
    ]


@pytest.mark.parametrize("build", [green16, van_voorhis16])
def test_covers_match_the_definition_on_every_prefix(build):
    net = build()
    for k in range(len(net) + 1):
        poset = infer_poset(net.prefix(k))
        assert poset.covers() == covers_by_definition(poset, range(16)), k
        assert poset.covers(M_WIRES) == covers_by_definition(poset, M_WIRES), k


def test_sorter_poset_is_total_chain(green):
    poset = infer_poset(green)
    for a in range(16):
        for b in range(a + 1, 16):
            assert poset.leq(a, b)
            assert not poset.leq(b, a)
    assert poset.covers() == [(i, i + 1) for i in range(15)]


def test_poset_reflexive_and_transitive():
    rng = random.Random(0x04)
    for _ in range(20):
        net = random_network(rng, width=rng.randint(2, 10))
        poset = infer_poset(net)
        w = net.width
        assert all(poset.leq(a, a) for a in range(w))
        for a in range(w):
            for b in range(w):
                for c in range(w):
                    if poset.leq(a, b) and poset.leq(b, c):
                        assert poset.leq(a, c)


def test_degenerate_relation_rejected():
    # rows force wires 0 and 1 equal
    with pytest.raises(DegenerateOrderError):
        poset_from_rows(2, [0b11, 0b11])


def test_poset_wants_one_row_per_wire_within_the_width():
    for width, rows, message in (
        (2, (1,), "1 rows for width 2"),
        (1, (1, 2), "2 rows for width 1"),
        (2, (7, 2), "row 0 names a wire outside 0..1"),
        (2, (1, -2), "row 1 names a wire outside 0..1"),
    ):
        with pytest.raises(ValueError, match=message):
            Poset(width, rows)
    assert Poset(0, ()).covers() == []


def test_covers_wants_each_wire_once_within_the_width():
    poset = infer_poset(green16().prefix(45))
    for elements, message in (
        ([0, 0, 1, 1], "wire 0 is named twice"),
        ([-1, 3], "wire -1 is outside 0..15"),
        ([16], "wire 16 is outside 0..15"),
    ):
        with pytest.raises(ValueError, match=message):
            poset.covers(elements)
    assert poset.covers([1, 0]) == poset.covers([0, 1]) == [(0, 1)]


def test_poset_reads_wires_and_rows_as_integers():
    # The width, the rows and the wires of leq and covers are read through
    # operator.index; a wire outside 0..width-1 is refused, not wrapped
    # round (-1 read the last row) or shifted by.
    poset = infer_poset(sorter4())
    for a, b, message in (
        (-1, 3, "wire -1 is outside 0..3"),
        (0, 99, "wire 99 is outside 0..3"),
        (4, 0, "wire 4 is outside 0..3"),
        (0, -1, "wire -1 is outside 0..3"),
    ):
        with pytest.raises(ValueError, match=message):
            poset.leq(a, b)
    with pytest.raises(TypeError):
        poset.leq(0, 1.0)
    assert poset.leq(np.int64(0), np.int8(3)) and poset.leq(True, 2) and not poset.leq(3, False)
    assert poset.covers([np.int64(2), True, 0]) == poset.covers([0, 1, 2]) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match="wire 1 is named twice"):
        poset.covers([True, 1])
    numpy_rows = Poset(np.int64(2), (np.int64(1), np.int64(3)))
    assert numpy_rows == Poset(2, (1, 3))
    assert type(numpy_rows.width) is int and all(type(row) is int for row in numpy_rows.rows)
    assert numpy_rows.covers() == [(1, 0)]
    assert Poset(2, [1, 3]) == poset_from_rows(2, [1, 3])
    with pytest.raises(TypeError):
        Poset(2, (1.0, 3))


def test_covers_reduction_closure_identity():
    for net in (hypercube_phase(3), hypercube_phase(4), green16()):
        poset = infer_poset(net)
        covers = set(poset.covers())
        # transitive closure of the covers must reproduce the full relation
        reach = {a: {a} for a in range(net.width)}
        changed = True
        while changed:
            changed = False
            for a, b in covers:
                new = reach[b] - reach[a]
                if new:
                    reach[a] |= new
                    changed = True
        closed = {(a, b) for a in reach for b in reach[a]}
        full = {
            (a, b)
            for a in range(net.width)
            for b in range(net.width)
            if poset.leq(a, b)
        }
        assert closed == full


def test_poset_above_below(green):
    poset = infer_poset(hypercube_phase(4))
    assert [b for b in range(16) if poset.leq(15, b)] == [15]
    assert [a for a in range(16) if poset.leq(a, 0)] == [0]
    assert all(poset.leq(0, b) for b in range(16))
