import random
from pathlib import Path

import pytest

from sortnet16 import constructions
from sortnet16 import (
    CUBE_LAYER1,
    CUBE_LAYER3,
    M_WIRES,
    MIDDLE_LAYER,
    Network,
    Phase,
    asap_schedule,
    batcher_sorter,
    check_cube_poset,
    depth,
    green16,
    green16_naive_merge,
    hypercube_phase,
    infer_poset,
    parse_text,
    sorter4,
    strategy_sorter,
    van_voorhis16,
    verify_sorts_binary,
)

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypercube_counts_and_depth(n):
    net = hypercube_phase(n)
    assert net.width == 1 << n
    assert len(net) == n << (n - 1)
    assert depth(net) == n


def test_hypercube_base_case():
    assert hypercube_phase(1).pairs() == [(0, 1)]
    with pytest.raises(ValueError):
        hypercube_phase(0)
    # 64 wires, the widest diagram, is the largest cube built.
    assert len(hypercube_phase(6)) == 6 * 32
    with pytest.raises(ValueError):
        hypercube_phase(7)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hypercube_orders_into_cube_poset(n):
    assert check_cube_poset(hypercube_phase(n), n)


def test_cube_layer_constants():
    # Cube layer k holds the wires whose index has popcount k.
    assert all(w.bit_count() == 1 for w in CUBE_LAYER1)
    assert all(w.bit_count() == 3 for w in CUBE_LAYER3)
    assert all(w.bit_count() == 2 for w in MIDDLE_LAYER)
    assert set(M_WIRES) == set(MIDDLE_LAYER) | {7, 8}
    assert CUBE_LAYER1 == (1, 2, 4, 8)
    assert CUBE_LAYER3 == (7, 11, 13, 14)


def test_sorter4():
    net = sorter4()
    assert net.pairs() == [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]
    assert depth(net) == 3
    assert verify_sorts_binary(net).sorts


def test_sorter4_extremes_ready_at_depth_2():
    prefix = sorter4().prefix(4)
    assert depth(prefix) == 2
    for v in range(16):
        bits = [(v >> (3 - i)) & 1 for i in range(4)]
        out = prefix.apply(bits)
        assert out[0] == min(bits)
        assert out[3] == max(bits)


def test_green16_shape(green):
    assert len(green) == 60
    assert depth(green) == 10
    assert verify_sorts_binary(green).sorts
    assert green.phase_counts() == {
        Phase.APPROX: 32,
        Phase.LAYER1: 5,
        Phase.LAYER3: 5,
        Phase.PAIRS: 3,
        Phase.TETRAD_A: 5,
        Phase.TETRAD_B: 5,
        Phase.MERGE: 3,
        Phase.FINAL: 2,
    }


def test_van_voorhis16_shape(vv):
    assert len(vv) == 61
    assert depth(vv) == 9
    assert verify_sorts_binary(vv).sorts
    assert vv.phase_counts() == {
        Phase.APPROX: 32,
        Phase.LAYER1: 5,
        Phase.LAYER3: 5,
        Phase.PAIRS: 3,
        Phase.PAIRS2: 3,
        Phase.TETRAD_A: 5,
        Phase.TETRAD_B: 5,
        Phase.MERGE: 1,
        Phase.FINAL: 2,
    }


def test_networks_share_45_comparator_prefix(green, vv):
    assert green.comparators[:45] == vv.comparators[:45]
    assert green.comparators[45].tag is Phase.TETRAD_A
    assert vv.comparators[45].tag is Phase.PAIRS2


def test_approx_prefix_is_hypercube_phase(green, vv):
    expected = hypercube_phase(4).pairs()
    assert green.prefix(32).pairs() == expected
    assert vv.prefix(32).pairs() == expected


def test_naive_merge_variant(green):
    naive = green16_naive_merge()
    assert len(naive) == 60
    assert verify_sorts_binary(naive).sorts
    assert depth(naive) >= 11
    # only the merge order differs
    assert naive.prefix(55).comparators == green.prefix(55).comparators


def test_winners_and_losers_after_pairs(green):
    poset = infer_poset(green.prefix_through(Phase.PAIRS))
    for winner in (9, 10, 12):
        for wire in (0,) + CUBE_LAYER1:
            assert poset.leq(wire, winner)
    for loser in (3, 5, 6):
        for wire in CUBE_LAYER3 + (15,):
            assert poset.leq(loser, wire)


def test_m_extremes_settle_at_layer_6(green):
    layers = asap_schedule(green)
    last7 = max(
        layer
        for layer, c in zip(layers, green.comparators)
        if c.tag is Phase.LAYER3 and 7 in (c.low, c.high)
    )
    last8 = max(
        layer
        for layer, c in zip(layers, green.comparators)
        if c.tag is Phase.LAYER1 and 8 in (c.low, c.high)
    )
    assert last7 == 6
    assert last8 == 6


@pytest.mark.parametrize(
    "n,size,d",
    [(2, 1, 1), (4, 5, 3), (8, 19, 6), (16, 63, 10), (32, 191, 15)],
)
def test_batcher_sizes(n, size, d):
    net = batcher_sorter(n)
    assert net.width == n
    assert len(net) == size
    assert depth(net) == d


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_batcher_sorts_exhaustively(n):
    assert verify_sorts_binary(batcher_sorter(n)).sorts


def test_batcher32_sorts_sampled():
    net = batcher_sorter(32)
    rng = random.Random(0x20)
    values = list(range(32))
    for _ in range(1000):
        rng.shuffle(values)
        assert net.apply(values) == sorted(values)


def test_batcher_rejects_unsupported_sizes():
    for n in (0, 1, 3, 6, 64):
        with pytest.raises(ValueError):
            batcher_sorter(n)


def test_batcher16_strictly_larger_than_green(green):
    assert len(batcher_sorter(16)) > len(green)


def test_strategy_sorter_sorts():
    assert verify_sorts_binary(strategy_sorter()).sorts


def test_strategy_sorter_rejects_wrong_width():
    with pytest.raises(ValueError):
        strategy_sorter(batcher_sorter(4))


def test_full_sorters_order_wires_totally(green, vv):
    for net in (green, vv):
        assert infer_poset(net).covers() == [(i, i + 1) for i in range(15)]


# The builders' reference: their tagged comparator lists written out in the
# network text format.  Green's network is the CLI's reference output; the
# naive merge differs from it only in the order of the merge block.

GREEN16_TEXT = (REFERENCE / "green16.txt").read_text(encoding="utf-8")
GREEN_MERGE = "# phase:merge\n7 8\n6 7\n8 9\n"
NAIVE_MERGE = "# phase:merge\n6 7\n7 8\n8 9\n"
VAN_VOORHIS16_TEXT = """\
width 16
# phase:approx
0 1
2 3
4 5
6 7
8 9
10 11
12 13
14 15
0 2
1 3
4 6
5 7
8 10
9 11
12 14
13 15
0 4
1 5
2 6
3 7
8 12
9 13
10 14
11 15
0 8
1 9
2 10
3 11
4 12
5 13
6 14
7 15
# phase:layer1
1 2
4 8
1 4
2 8
2 4
# phase:layer3
7 11
13 14
7 13
11 14
11 13
# phase:pairs
3 12
5 10
6 9
# phase:pairs2
5 12
6 10
3 9
# phase:tetradA
7 9
10 12
7 10
9 12
9 10
# phase:tetradB
3 5
6 8
3 6
5 8
5 6
# phase:merge
7 8
# phase:final
3 4
11 12
"""


def test_builders_equal_the_block_composition():
    # Network equality compares the comparators with their tags.
    assert GREEN16_TEXT.count(GREEN_MERGE) == 1
    assert green16() == parse_text(GREEN16_TEXT)
    assert green16_naive_merge() == parse_text(GREEN16_TEXT.replace(GREEN_MERGE, NAIVE_MERGE))
    assert van_voorhis16() == parse_text(VAN_VOORHIS16_TEXT)
    # strategy_sorter: Green's prefix through layer III, the M sorter on the
    # M wires with its tags, then the final pair.
    layers = green16().prefix_through(Phase.LAYER3).comparators
    final = ((3, 4, Phase.FINAL), (11, 12, Phase.FINAL))
    batcher8 = batcher_sorter(8)
    tagged_m = Network(8, [(low, high, Phase.MERGE) for low, high in batcher8.pairs()])
    for m, built in ((batcher8, strategy_sorter()), (tagged_m, strategy_sorter(tagged_m))):
        on_m = [(M_WIRES[c.low], M_WIRES[c.high], c.tag) for c in m.comparators]
        assert built == Network(16, (*layers, *on_m, *final))
    assert [c.tag for c in strategy_sorter(tagged_m).comparators].count(Phase.MERGE) == 19


def clear_tables():
    """Empty every comparator-table cache of the builders."""
    tables = [f for f in vars(constructions).values() if hasattr(f, "cache_clear")]
    assert tables
    for table in tables:
        table.cache_clear()


def every_builder_call():
    """(id, builder call, the parent's construction of the same network) for
    every valid argument; the parent built each table anew on every call."""
    for n in range(1, 7):
        pairs = [(i, i | 1 << k) for k in range(n) for i in range(1 << n) if not i >> k & 1]
        yield f"hypercube_phase({n})", lambda n=n: hypercube_phase(n), Network(1 << n, pairs)
    for n in (2, 4, 8, 16, 32):
        expected = Network(n, tuple(constructions._oddeven_sort(0, n - 1)))
        yield f"batcher_sorter({n})", lambda n=n: batcher_sorter(n), expected
    green = parse_text(GREEN16_TEXT)
    yield "green16", green16, green
    yield "green16_naive_merge", green16_naive_merge, parse_text(
        GREEN16_TEXT.replace(GREEN_MERGE, NAIVE_MERGE)
    )
    yield "van_voorhis16", van_voorhis16, parse_text(VAN_VOORHIS16_TEXT)
    layers = green.prefix_through(Phase.LAYER3).comparators
    final = green.comparators[-2:]
    batcher8 = Network(8, tuple(constructions._oddeven_sort(0, 7)))
    on_m = [(M_WIRES[low], M_WIRES[high]) for low, high in batcher8.pairs()]
    expected = Network(16, (*layers, *on_m, *final))
    yield "strategy_sorter()", strategy_sorter, expected
    yield "strategy_sorter(M)", lambda: strategy_sorter(batcher_sorter(8)), expected
    yield "sorter4", sorter4, Network(4, ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)))


BUILDER_CALLS = {name: (build, expected) for name, build, expected in every_builder_call()}


@pytest.mark.parametrize("cold", [True, False], ids=["first call", "cached"])
@pytest.mark.parametrize("name", BUILDER_CALLS)
def test_every_call_returns_a_new_network_equal_to_the_parent_build(name, cold):
    build, expected = BUILDER_CALLS[name]
    if cold:
        clear_tables()
    first, second = build(), build()
    # Equality compares the width and every comparator with its tag.
    assert first == expected and second == expected
    assert first is not second


@pytest.mark.parametrize(
    "build",
    [
        green16,
        green16_naive_merge,
        van_voorhis16,
        strategy_sorter,
        # The M sorter is built before the count starts.
        pytest.param(lambda m=batcher_sorter(8): strategy_sorter(m), id="strategy_sorter(M)"),
        pytest.param(lambda: hypercube_phase(4), id="hypercube_phase"),
        pytest.param(lambda: batcher_sorter(16), id="batcher_sorter"),
        sorter4,
    ],
)
def test_each_builder_checks_its_comparators_once(build, monkeypatch):
    # The first call makes the builder's table too; neither that nor the
    # cached table of the second call may hide a second Network or check.
    calls = []
    check = Network.__post_init__

    def counted(self):
        calls.append(len(self.comparators))
        check(self)

    clear_tables()
    monkeypatch.setattr(Network, "__post_init__", counted)
    for _ in range(2):
        calls.clear()
        net = build()
        assert calls == [len(net)]


@pytest.mark.parametrize(
    "call",
    [
        lambda: hypercube_phase(0),
        lambda: hypercube_phase(7),
        lambda: batcher_sorter(6),
        lambda: batcher_sorter(64),
    ],
)
def test_a_bad_argument_never_reaches_a_table(call):
    clear_tables()
    with pytest.raises(ValueError):
        call()
    assert constructions._cube_table.cache_info().currsize == 0
    assert constructions._batcher_table.cache_info().currsize == 0
