import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortnet16 import (
    LOWER_TETRAD,
    M_WIRES,
    Network,
    Phase,
    UPPER_TETRAD,
    check_cube_poset,
    check_depth_regression,
    check_green_m_poset,
    check_observations,
    check_strategy_completeness,
    check_vv_m_poset,
    hypercube_phase,
    infer_poset,
)
from sortnet16 import _bitslice, analysis
from sortnet16.analysis import EXHAUSTIVE, SAMPLED, ClaimVerdict
from sortnet16.constructions import CUBE_LAYER1, CUBE_LAYER3, MIDDLE_LAYER

# Hasse diagrams of the partial order established on the M wires, as
# recovered by exhaustive order inference (documented here: the pictures
# the constructions rely on are exactly these).
GREEN_M_HASSE = [
    (3, 5), (5, 6), (5, 7), (6, 8), (6, 9),
    (7, 9), (8, 10), (9, 10), (10, 12),
]
VV_M_HASSE = [
    (3, 7), (3, 9), (3, 12),
    (5, 7), (5, 10), (5, 12),
    (6, 7), (6, 9), (6, 10),
    (8, 9), (8, 10), (8, 12),
]


def random_depth4_prefix(rng):
    """Four rounds of random perfect matchings on 16 wires."""
    comps = []
    for _ in range(4):
        wires = list(range(16))
        rng.shuffle(wires)
        for i in range(0, 16, 2):
            a, b = wires[i], wires[i + 1]
            comps.append((min(a, b), max(a, b)))
    return Network(16, tuple(comps))


def test_check_cube_poset_accepts_hypercube():
    assert check_cube_poset(hypercube_phase(4), 4)


def test_check_cube_poset_rejects_antichain():
    assert not check_cube_poset(Network(4), 2)


def test_check_cube_poset_rejects_truncated_phase():
    truncated = hypercube_phase(3).prefix(8)
    assert not check_cube_poset(truncated, 3)


def test_check_cube_poset_width_mismatch():
    with pytest.raises(ValueError):
        check_cube_poset(Network(4), 3)


def test_observations_hold_exhaustively():
    report = check_observations()
    assert report.mode == EXHAUSTIVE
    assert report.inputs_checked == 65536
    assert report.all_hold
    assert report.seed is None


def test_observations_hold_on_sampled_permutations():
    report = check_observations(mode=SAMPLED, samples=10_000, seed=0xC0FFEE)
    assert report.mode == SAMPLED
    assert report.inputs_checked == 10_000
    assert report.all_hold
    assert report.seed == 0xC0FFEE


def test_observations_sampled_mode_is_deterministic():
    first = check_observations(mode=SAMPLED, samples=500, seed=42)
    second = check_observations(mode=SAMPLED, samples=500, seed=42)
    assert first == second
    # On a failing prefix the counterexamples are the draws, so they repeat too.
    identity = check_observations(Network(16), mode=SAMPLED, samples=500, seed=42)
    assert identity == check_observations(Network(16), mode=SAMPLED, samples=500, seed=42)
    assert (drawn_permutations(500, 42) == drawn_permutations(500, 42)).all()
    assert (drawn_permutations(500, 42) != drawn_permutations(500, 43)).any()


def test_observations_fail_on_identity_prefix():
    report = check_observations(Network(16))
    assert not report.claims["b"].holds
    bad = report.claims["b"].counterexample
    assert bad is not None
    assert set(bad) <= {0, 1}
    assert not report.claims["a"].holds


def test_observations_reject_bad_inputs():
    with pytest.raises(ValueError):
        check_observations(Network(8))
    with pytest.raises(ValueError):
        check_observations(mode="guess")
    with pytest.raises(ValueError, match="seed must be non-negative"):
        check_observations(mode=SAMPLED, seed=-1)


@pytest.mark.parametrize("mode", [EXHAUSTIVE, SAMPLED])
@pytest.mark.parametrize("samples", [0, -1, analysis.MAX_SAMPLES + 1, 10**20])
def test_observations_refuse_bad_sample_counts(monkeypatch, mode, samples):
    def evaluated(*args):
        raise AssertionError("evaluated before the sample count was checked")

    monkeypatch.setattr(analysis, "_exhaustive_claims", evaluated)
    monkeypatch.setattr(analysis, "_draw_permutations", evaluated)
    bound = "at least 1" if samples < 1 else f"at most {1 << 26}"
    with pytest.raises(ValueError, match=f"samples must be {bound}, got {samples}"):
        check_observations(mode=mode, samples=samples)


def test_observation_report_lines():
    lines = check_observations(mode=SAMPLED, samples=100, seed=7).to_lines()
    assert lines[0].startswith("observations mode=sampled-permutations")
    assert "seed=0x7" in lines[0]
    assert lines[1:] == ["a: holds", "b: holds", "c: holds", "d: holds"]


def test_failing_report_lines_are_pinned():
    assert check_observations(Network(16)).to_lines() == [
        "observations mode=exhaustive-binary inputs=65536 seed=-",
        "a: FAIL input=[0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0]",
        "b: FAIL input=[0 0 0 0 0 0 0 0 0 0 0 0 0 0 1 0]",
        "c: FAIL input=[0 0 0 0 0 0 0 0 0 1 1 0 1 0 0 0]",
        "d: FAIL input=[0 0 0 0 0 0 0 0 0 0 0 0 1 0 0 0]",
    ]


def test_claim_a_restated_on_poset():
    poset = infer_poset(hypercube_phase(4))
    assert [b for b in range(16) if poset.leq(15, b)] == [15]
    assert [a for a in range(16) if poset.leq(a, 0)] == [0]


def test_sampling_never_contradicts_exhaustive_mode():
    rng = random.Random(0xD4)
    for _ in range(20):
        prefix = random_depth4_prefix(rng)
        full = check_observations(prefix)
        sampled = check_observations(prefix, mode=SAMPLED, samples=1500, seed=99)
        for name, verdict in full.claims.items():
            if verdict.holds:
                assert sampled.claims[name].holds, name


def test_green_m_poset_holds(green):
    assert check_green_m_poset()
    assert check_green_m_poset(green.prefix_through(Phase.TETRAD_B))


def test_green_m_poset_fails_before_tetrad_sorts(green):
    assert not check_green_m_poset(green.prefix_through(Phase.PAIRS))


def test_green_m_poset_fails_at_wire_9(green):
    # After 45 comparators the upper tetrad beats two lower wires each, but
    # wire 9 beats only two, not three.
    prefix = green.prefix(45)
    poset = infer_poset(prefix)
    assert all(analysis._dominates(poset, u) >= 2 for u in UPPER_TETRAD)
    assert analysis._dominates(poset, 9) == 2
    assert not check_green_m_poset(prefix)


def test_green_m_poset_fails_at_the_lower_tetrad(green):
    # Without tetrad A's (9, 12) both upper conditions still hold, but
    # wire 8 loses to only one upper wire.
    comps = list(green.prefix_through(Phase.TETRAD_B).comparators)
    assert comps.pop(48) == (9, 12, Phase.TETRAD_A)
    prefix = Network(16, comps)
    poset = infer_poset(prefix)
    assert all(analysis._dominates(poset, u) >= 2 for u in UPPER_TETRAD)
    assert analysis._dominates(poset, 9) >= 3
    assert analysis._dominated_by(poset, 8) == 1
    assert not check_green_m_poset(prefix)


def test_green_m_hasse_diagram(green):
    poset = infer_poset(green.prefix_through(Phase.TETRAD_B))
    assert poset.covers(M_WIRES) == sorted(GREEN_M_HASSE)
    # the documented dominance pattern behind the 3-comparison merge
    dominated = {u: sum(poset.leq(l, u) for l in LOWER_TETRAD) for u in UPPER_TETRAD}
    assert dominated == {7: 2, 9: 3, 10: 4, 12: 4}


def test_vv_m_poset_holds(vv):
    assert check_vv_m_poset()
    assert check_vv_m_poset(vv.prefix_through(Phase.PAIRS2))


def test_vv_m_poset_fails_on_green_prefix(green, vv):
    same_count = len(vv.prefix_through(Phase.PAIRS2))
    assert not check_vv_m_poset(green.prefix(same_count))


def test_vv_m_hasse_diagram(vv):
    poset = infer_poset(vv.prefix_through(Phase.PAIRS2))
    assert poset.covers(M_WIRES) == sorted(VV_M_HASSE)
    for upper in UPPER_TETRAD:
        assert sum(poset.leq(low, upper) for low in LOWER_TETRAD) == 3
    for low in LOWER_TETRAD:
        assert sum(poset.leq(low, upper) for upper in UPPER_TETRAD) == 3


def test_full_vv_m_wires_form_chain(vv):
    assert infer_poset(vv).covers(M_WIRES) == list(zip(M_WIRES, M_WIRES[1:]))


def test_strategy_completeness():
    assert check_strategy_completeness()


def test_depth_regression():
    assert check_depth_regression()


# --------------------------------------------------------------------------
# Oracle for claims a-d: evaluate the prefix on an input matrix, one row per
# input, then sort values generically.  Independent of the bit-slice engine
# and of the rank shortcuts that check_observations takes.


def _all_binary_inputs(width):
    v = np.arange(1 << width, dtype=np.uint32)
    out = np.empty((1 << width, width), dtype=np.uint8)
    for i in range(width):
        out[:, i] = (v >> (width - 1 - i)) & 1
    return out


def _apply_columns(mat, net):
    for c in net.comparators:
        a = mat[:, c.low].copy()
        b = mat[:, c.high]
        np.minimum(a, b, out=mat[:, c.low])
        np.maximum(a, b, out=mat[:, c.high])


def _sorted_multiset_contains(small, big):
    """Row-wise multiset inclusion of sorted ``small`` rows in sorted ``big``
    rows, where big has exactly two extra columns.

    An inclusion is an order-preserving embedding small[j] == big[j + d_j]
    with offsets d_j non-decreasing in {0, 1, 2}; feasible offsets are
    tracked column by column.
    """
    n, k = small.shape
    if big.shape != (n, k + 2):
        raise ValueError("big must have exactly two more columns than small")
    feasible = [small[:, 0] == big[:, d] for d in range(3)]
    for j in range(1, k):
        reach = feasible[0]
        nxt = []
        for d in range(3):
            if d > 0:
                reach = reach | feasible[d]
            nxt.append((small[:, j] == big[:, j + d]) & reach)
        feasible = nxt
    return feasible[0] | feasible[1] | feasible[2]


def _sorted_pair_equals(s_lo, s_hi, x, y):
    return (np.minimum(x, y) == s_lo) & (np.maximum(x, y) == s_hi)


def _claim_masks(outputs):
    ranks = np.sort(outputs, axis=1)
    layer1 = np.sort(outputs[:, list(CUBE_LAYER1)], axis=1)
    layer3 = np.sort(outputs[:, list(CUBE_LAYER3)], axis=1)
    m_vals = np.concatenate(
        [outputs[:, list(MIDDLE_LAYER)], layer3[:, :1], layer1[:, 3:]], axis=1
    )
    m_vals = np.sort(m_vals, axis=1)

    a = (outputs[:, 15] == ranks[:, 15]) & (outputs[:, 0] == ranks[:, 0])
    b = (
        (layer3[:, 3] == ranks[:, 14])
        & (layer3[:, 2] == ranks[:, 13])
        & (layer1[:, 0] == ranks[:, 1])
        & (layer1[:, 1] == ranks[:, 2])
    )
    c = _sorted_multiset_contains(ranks[:, 5:11], m_vals)
    d = _sorted_pair_equals(
        ranks[:, 11], ranks[:, 12], layer3[:, 1], m_vals[:, 7]
    ) & _sorted_pair_equals(ranks[:, 3], ranks[:, 4], layer1[:, 2], m_vals[:, 0])
    return {"a": a, "b": b, "c": c, "d": d}


BINARY_INPUTS = _all_binary_inputs(16)


def oracle_claims(prefix, inputs=BINARY_INPUTS):
    """Claim verdicts with the first failing input row as counterexample."""
    outputs = inputs.copy()
    _apply_columns(outputs, prefix)
    claims = {}
    for name, ok in _claim_masks(outputs).items():
        bad = np.flatnonzero(~ok)
        claims[name] = (
            ClaimVerdict(True)
            if len(bad) == 0
            else ClaimVerdict(False, tuple(int(x) for x in inputs[bad[0]]))
        )
    return claims


def flags_of(mask, lanes):
    """Bits 0 .. lanes-1 of ``mask`` as a bool array."""
    raw = np.frombuffer(mask.to_bytes((lanes + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:lanes].astype(bool)


def block_rows(lanes, wires):
    """The values of every lane of one drawn block, valid or not, one row
    each, read from the bit planes with numpy (bit k of plane t is bit t of
    row k's value)."""
    block = np.zeros((lanes, 16), dtype=np.uint8)
    for w, planes in enumerate(wires):
        for t, plane in enumerate(planes):
            block[:, w] |= flags_of(plane, lanes).astype(np.uint8) << t
    return block


def drawn_permutations(samples, seed):
    """The permutations the sampled mode draws from ``seed``, one row each:
    the valid lanes of every block, in order."""
    rows = []
    for lanes, wires, valid in analysis._draw_permutations(samples, seed):
        rows.append(block_rows(lanes, wires)[flags_of(valid, lanes)])
    return np.concatenate(rows)


def random_prefix(rng, size):
    comps = []
    for _ in range(size):
        a, b = rng.sample(range(16), 2)
        comps.append((min(a, b), max(a, b)))
    return Network(16, tuple(comps))


def differential_prefixes(count, seed):
    """The identity network, every prefix of the cube phase, and ``count``
    seeded random prefixes: unstructured ones, random matchings, and the
    cube phase followed by a few random comparators."""
    rng = random.Random(seed)
    cube = hypercube_phase(4)
    nets = [Network(16)] + [cube.prefix(k) for k in range(len(cube) + 1)]
    for i in range(count):
        kind = i % 3
        if kind == 0:
            nets.append(random_prefix(rng, rng.randrange(0, 64)))
        elif kind == 1:
            nets.append(random_depth4_prefix(rng))
        else:
            extra = random_prefix(rng, rng.randrange(1, 4))
            nets.append(Network(16, cube.comparators + extra.comparators))
    return nets


def assert_every_verdict_seen(verdicts):
    for name in ("a", "b", "c", "d"):
        assert any(not v[name].holds for v in verdicts), f"claim {name} never fails"
        assert any(v[name].holds for v in verdicts), f"claim {name} never holds"


def test_exhaustive_observations_match_matrix_oracle():
    verdicts = []
    for prefix in differential_prefixes(210, seed=0xA11):
        expected = oracle_claims(prefix)
        assert check_observations(prefix).claims == expected, prefix.comparators
        verdicts.append(expected)
    assert_every_verdict_seen(verdicts)


def interleaved_prefixes(count, seed):
    """Prefixes whose first layer pairs all 16 wires in an interleaved
    matching, such as (0, 2), (1, 3), so that the sweep's lane order is not
    index order: the cube phase behind (i, i + 2) pairs or a random
    matching, and random comparators behind a random matching."""
    rng = random.Random(seed)
    cube = hypercube_phase(4).comparators
    skip2 = tuple((i, i + 2) for j in (0, 4, 8, 12) for i in (j, j + 1))
    nets = [Network(16, skip2 + cube[:k]) for k in range(0, len(cube) + 1, 4)]
    for i in range(count):
        wires = rng.sample(range(16), 16)
        layer = tuple(tuple(sorted(wires[j : j + 2])) for j in range(0, 16, 2))
        rest = cube[: rng.randrange(len(cube) + 1)] if i % 2 else random_prefix(
            rng, rng.randrange(0, 48)).comparators
        nets.append(Network(16, layer + rest))
    return nets


def test_exhaustive_observations_behind_interleaved_first_layers():
    # One block of 3**8 lanes, no probe: each failing claim's least input
    # is narrowed out of lanes that do not come in index order.
    verdicts = []
    for prefix in interleaved_prefixes(60, seed=0x1A7E):
        blocks = [full.bit_length() for _, _, full in _bitslice._sweep(16, prefix.pairs())]
        assert blocks == [3**8]
        expected = oracle_claims(prefix)
        assert check_observations(prefix).claims == expected, prefix.comparators
        verdicts.append(expected)
    assert_every_verdict_seen(verdicts)


def test_sampled_observations_match_matrix_oracle():
    verdicts = []
    for i, prefix in enumerate(differential_prefixes(60, seed=0x5A)):
        seed = 1000 + i
        inputs = drawn_permutations(300, seed)
        expected = oracle_claims(prefix, inputs)
        report = check_observations(prefix, mode=SAMPLED, samples=300, seed=seed)
        assert report.claims == expected, prefix.comparators
        verdicts.append(expected)
        # Every lane's verdict, valid or not, not just the first failure.
        for lanes, planes, _ in analysis._draw_permutations(300, seed):
            full = (1 << lanes) - 1
            out = analysis._compare_planes(list(planes), prefix.pairs())
            masks = analysis._sampled_masks(out, full)
            outputs = block_rows(lanes, planes)
            _apply_columns(outputs, prefix)
            for name, ok in _claim_masks(outputs).items():
                assert masks[name] == lanes_of(ok), (name, prefix.comparators)
    assert_every_verdict_seen(verdicts)


def test_exhaustive_a_b_d_imply_every_claim_on_permutations():
    # See the module docstring: exhaustive a, b and d put ranks 5..10 on M.
    implied = 0
    for i, prefix in enumerate(differential_prefixes(210, seed=0xA11)):
        claims = check_observations(prefix).claims
        if all(claims[name].holds for name in "abd"):
            implied += 1
            assert claims["c"].holds, prefix.comparators
            sampled = check_observations(prefix, mode=SAMPLED, samples=2000, seed=i)
            assert sampled.all_hold, prefix.comparators
    assert implied >= 20


def lanes_of(flags):
    """Bit k set where ``flags[k]`` is true."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def test_sampled_claim_masks_match_oracle_near_the_cube_order():
    # Outputs of the cube phase, on which every claim holds, with two wires'
    # values exchanged: the claims then fail narrowly or not at all, which
    # random prefixes rarely reach.
    rng = np.random.default_rng(0xD15)
    outputs = drawn_permutations(4000, 0xD15)
    _apply_columns(outputs, hypercube_phase(4))
    rows = np.arange(len(outputs))
    a, b = rng.integers(0, 16, len(outputs)), rng.integers(0, 16, len(outputs))
    outputs[rows, a], outputs[rows, b] = outputs[rows, b], outputs[rows, a].copy()
    planes = [
        tuple(lanes_of((outputs[:, w] >> t) & 1) for t in range(4)) for w in range(16)
    ]
    masks = analysis._sampled_masks(planes, (1 << len(outputs)) - 1)
    for name, ok in _claim_masks(outputs).items():
        assert 0 < ok.sum() < len(ok), name
        assert masks[name] == lanes_of(ok), name


def test_every_draw_is_a_permutation():
    rows = drawn_permutations(3000, 0x5EED)
    assert rows.shape == (3000, 16)
    assert (np.sort(rows, axis=1) == np.arange(16)).all()


def test_draws_are_uniform_over_values_and_wires():
    rows = drawn_permutations(160_000, 0xC0FFEE)  # three blocks, the last partial
    assert (np.sort(rows, axis=1) == np.arange(16)).all()
    counts = np.array([np.bincount(rows[:, w], minlength=16) for w in range(16)])
    # Each count is Binomial(160000, 1/16): mean 10000, sd ~97; 500 is ~5 sd.
    assert np.abs(counts - 10_000).max() < 500, counts


def test_draws_are_uniform_over_pairs_of_wires():
    # Joint counts of the values on wires 0 and 1: 240 cells of
    # Multinomial(160000, 1/240), whose chi-square statistic has 239
    # degrees of freedom (mean 239, sd ~21.9); 350 is ~5 sd.
    rows = drawn_permutations(160_000, 0xC0FFEE)
    counts = np.zeros((16, 16))
    np.add.at(counts, (rows[:, 0], rows[:, 1]), 1)
    assert (np.diag(counts) == 0).all()
    expected = len(rows) / 240
    chi2 = ((counts[~np.eye(16, dtype=bool)] - expected) ** 2 / expected).sum()
    assert chi2 < 350, chi2


@pytest.mark.parametrize("samples", [1, 300, 10_000, analysis.SAMPLE_BLOCK + 5, 160_000])
def test_valid_lanes_number_exactly_the_samples(samples):
    blocks = list(analysis._draw_permutations(samples, 0xC0FFEE))
    assert sum(valid.bit_count() for _, _, valid in blocks) == samples
    for lanes, wires, valid in blocks:
        assert 0 < lanes <= analysis.SAMPLE_BLOCK
        assert 0 < valid < 1 << lanes
        assert all(p >> lanes == 0 for planes in wires for p in planes)
    # Some lanes are given up: the draw stops after ROUNDS rounds.
    assert sum(lanes for lanes, _, _ in blocks) > samples


def test_first_lanes_keeps_the_lowest_set_bits():
    rng = random.Random(0x1A5)
    for _ in range(500):
        mask = rng.getrandbits(rng.randrange(200))
        k = rng.randrange(mask.bit_count() + 3)
        lowest = [i for i in range(mask.bit_length()) if mask >> i & 1][:k]
        assert analysis._first_lanes(mask, k) == sum(1 << i for i in lowest), (mask, k)


def test_a_seed_draws_one_sample():
    # Blocks, valid lanes and values repeat for a seed, across blocks too.
    samples = analysis.SAMPLE_BLOCK + 5
    first = list(analysis._draw_permutations(samples, 0xB10C))
    again = list(analysis._draw_permutations(samples, 0xB10C))
    assert len(first) == 2 and first == again
    assert (drawn_permutations(samples, 0xB10C) == drawn_permutations(samples, 0xB10C)).all()


def test_sampled_counterexample_is_the_first_failing_draw_across_blocks(monkeypatch):
    samples = analysis.SAMPLE_BLOCK + 5
    inputs = drawn_permutations(samples, 0xB10C)
    prefix = hypercube_phase(4).prefix(31)
    report = check_observations(prefix, mode=SAMPLED, samples=samples, seed=0xB10C)
    assert report.claims == oracle_claims(prefix, inputs)
    assert not report.all_hold

    # The first block's valid lanes fall short of the sample, so a second,
    # smaller block follows, and its last valid lanes are not all it draws.
    (lanes, _, first), (more, _, second) = analysis._draw_permutations(samples, 0xB10C)
    assert lanes == analysis.SAMPLE_BLOCK and more < lanes
    given_up = (1 << lanes) - 1 ^ first
    assert given_up and first.bit_count() < samples
    assert second.bit_length() < more  # lanes past the sample
    # Claim a fails only on the fourth valid draw of the second block, and
    # claim b on the same draw and on the last valid draw of the first
    # block.  Claim c fails only on lanes that are not samples: one the
    # first block gave up, and every such lane of the second.
    fourth = analysis._first_lanes(second, 4) ^ analysis._first_lanes(second, 3)
    last = 1 << first.bit_length() - 1
    masks = analysis._sampled_masks

    def failing_late(out, full):
        got = masks(out, full)
        if full.bit_length() == analysis.SAMPLE_BLOCK:
            got["b"] &= ~last
            got["c"] &= ~(given_up & -given_up)
        else:
            got["a"] &= ~fourth
            got["b"] &= ~fourth
            got["c"] &= second
        return got

    monkeypatch.setattr(analysis, "_sampled_masks", failing_late)
    claims = check_observations(mode=SAMPLED, samples=samples, seed=0xB10C).claims
    assert claims["a"].counterexample == tuple(inputs[first.bit_count() + 3])
    assert claims["b"].counterexample == tuple(inputs[first.bit_count() - 1])
    assert claims["c"].holds and claims["d"].holds


def test_sampled_observations_stay_small():
    prefix = hypercube_phase(4)
    check_observations(prefix, mode=SAMPLED, samples=10)  # warm caches
    tracemalloc.start()
    try:
        check_observations(prefix, mode=SAMPLED, samples=3 * analysis.SAMPLE_BLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One block's values take 16 wires x 4 planes x 8 KB = 512 KB, and the
    # 3 x 2**16 x 16 sampled values would take 3 MB even as bytes.
    assert peak < 2 << 20, peak


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15))
        .filter(lambda p: p[0] != p[1])
        .map(sorted),
        max_size=80,
    )
)
def test_exhaustive_observations_property(pairs):
    prefix = Network(16, tuple(tuple(p) for p in pairs))
    assert check_observations(prefix).claims == oracle_claims(prefix)


def test_exhaustive_observations_stay_small():
    prefix = hypercube_phase(4)
    check_observations(prefix)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        check_observations(prefix)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 65536 x 16 input matrix alone would take 1 MB.
    assert peak < 1 << 20, peak


def test_sorted_multiset_contains_against_brute_force():
    def contains(small, big):
        big = list(big)
        for x in small:
            if x not in big:
                return False
            big.remove(x)
        return True

    rng = random.Random(0x6)
    smalls, bigs, expected = [], [], []
    for _ in range(600):
        small = sorted(rng.choices(range(4), k=4))
        big = sorted(rng.choices(range(4), k=6))
        smalls.append(small)
        bigs.append(big)
        expected.append(contains(small, big))
    got = _sorted_multiset_contains(np.array(smalls), np.array(bigs))
    assert got.tolist() == expected
