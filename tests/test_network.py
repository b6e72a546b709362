import random
from collections import Counter

import pytest

from sortnet16 import (
    Comparator,
    Network,
    Phase,
    asap_schedule,
    depth,
    green16,
)


def random_network(rng, width=None, size=None):
    width = width or rng.randint(2, 12)
    size = size if size is not None else rng.randint(0, 25)
    comps = []
    for _ in range(size):
        a, b = rng.sample(range(width), 2)
        comps.append((min(a, b), max(a, b)))
    return Network(width, tuple(comps))


def test_apply_single_comparator():
    assert Network(2, ((0, 1),)).apply([5, 3]) == [3, 5]


def test_apply_fixes_sorted_input(green):
    sorted_input = list(range(16))
    assert green.apply(sorted_input) == sorted_input


def test_green16_sorts_reversed_input(green):
    values = list(range(16, 0, -1))
    assert green.apply(values) == sorted(values)


def test_apply_length_mismatch():
    with pytest.raises(ValueError):
        Network(2, ((0, 1),)).apply([1, 2, 3])


def test_apply_preserves_multiset():
    rng = random.Random(0xA11CE)
    nets = [green16()] + [random_network(rng) for _ in range(20)]
    trials = 10_000
    per_net = trials // len(nets)
    for net in nets:
        for _ in range(per_net):
            values = [rng.randint(-50, 50) for _ in range(net.width)]
            assert Counter(net.apply(values)) == Counter(values)


def test_comparator_validation():
    # A Comparator is a plain record; the Network holding it checks it.
    with pytest.raises(ValueError, match=r"comparator \(3, 3\) needs 0 <= low < high"):
        Network(16, (Comparator(3, 3),))
    with pytest.raises(ValueError, match=r"comparator \(5, 2\) needs 0 <= low < high"):
        Network(16, ((5, 2),))
    with pytest.raises(ValueError, match=r"comparator \(-1, 2\) needs 0 <= low < high"):
        Network(16, ((-1, 2),))
    with pytest.raises(ValueError, match=r"comparator \(0, 4\) exceeds width 4"):
        Network(4, ((0, 4),))
    with pytest.raises(ValueError, match="network width must be at least 1"):
        Network(0)


def test_tags_are_read_as_phases():
    # A str-valued Phase compares equal to its value, so test identity.
    assert Network(2, [(0, 1, "approx")]).comparators[0].tag is Phase.APPROX
    assert Network(2, [Comparator(0, 1, "merge")]).comparators[0].tag is Phase.MERGE
    with pytest.raises(ValueError, match="bogus"):
        Network(2, [(0, 1, "bogus")])


def test_non_integer_wires_and_widths_are_refused():
    for comparators in (((0.5, 1),), ((0, 1.0),), (Comparator("0", 1),)):
        with pytest.raises(TypeError):
            Network(4, comparators)
    for width in (2.0, "2", None):
        with pytest.raises(TypeError):
            Network(width, ((0, 1),))


def test_comparator_record():
    c = Comparator(1, 2, Phase.MERGE)
    assert (c.low, c.high, c.tag) == (1, 2, Phase.MERGE)
    assert c == Comparator(1, 2, Phase.MERGE) and c != Comparator(1, 2)
    assert hash(c) == hash(Comparator(1, 2, Phase.MERGE))
    assert repr(Comparator(0, 1)) == "Comparator(low=0, high=1, tag=None)"


def test_network_accepts_bare_pairs():
    net = Network(4, ((0, 1), (2, 3)))
    assert net.comparators[0] == Comparator(0, 1)


def test_green16_splits_into_approx_plus_completion(green):
    approx = green.prefix_through(Phase.APPROX)
    rest = Network(16, green.comparators[32:])
    assert len(approx) == 32
    assert len(rest) == 28
    assert Network(16, approx.comparators + rest.comparators) == green


def test_asap_schedule_examples():
    assert asap_schedule(Network(4)) == ()
    assert depth(Network(4)) == 0
    net = Network(4, ((0, 1), (2, 3), (0, 2)))
    assert asap_schedule(net) == (1, 1, 2)
    assert depth(net) == 2


def test_asap_schedule_invariants():
    rng = random.Random(0xBEEF)
    for _ in range(50):
        net = random_network(rng)
        layers = asap_schedule(net)
        assert type(layers) is tuple and len(layers) == len(net)
        comps = net.comparators
        for i, ci in enumerate(comps):
            for j in range(i + 1, len(comps)):
                cj = comps[j]
                if {ci.low, ci.high} & {cj.low, cj.high}:
                    assert layers[i] < layers[j]
        by_layer = {}
        for layer, c in zip(layers, comps):
            wires = by_layer.setdefault(layer, set())
            assert not wires & {c.low, c.high}
            wires.update((c.low, c.high))


def test_asap_depth_equals_longest_chain():
    # Independent recomputation: longest chain of wire-sharing comparators.
    rng = random.Random(0xCAFE)
    for _ in range(50):
        net = random_network(rng)
        comps = net.comparators
        best = [0] * len(comps)
        for i, ci in enumerate(comps):
            prev = [
                best[j]
                for j in range(i)
                if {ci.low, ci.high} & {comps[j].low, comps[j].high}
            ]
            best[i] = 1 + max(prev, default=0)
        assert depth(net) == max(best, default=0)


def test_prefix_rejects_a_negative_count(green):
    assert len(green.prefix(0)) == 0
    assert green.prefix(len(green)) == green
    with pytest.raises(ValueError, match="prefix length"):
        green.prefix(-5)


def test_prefix_through_missing_tag(green):
    with pytest.raises(ValueError):
        green.prefix_through(Phase.PAIRS2)


def test_prefix_through_reads_the_tag_as_a_phase(green):
    assert green.prefix_through("merge") == green.prefix_through(Phase.MERGE)
    with pytest.raises(ValueError):
        green.prefix_through("bogus")


def test_tagged_and_phase_counts():
    net = Network(4, ((0, 1, Phase.PAIRS), (2, 3, Phase.PAIRS)))
    assert all(c.tag is Phase.PAIRS for c in net.comparators)
    assert net.phase_counts() == {Phase.PAIRS: 2}


def test_prefix_rejects_a_count_past_the_end(green):
    with pytest.raises(ValueError, match=f"prefix length must be in 0..{len(green)}"):
        green.prefix(len(green) + 1)
