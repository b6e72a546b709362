"""How ``Network`` checks its comparators: every spelling of the same pairs
against a reference that reads every item the general way, the pairs it
keeps for the slice engine, and the fast path that exact ints take."""

import copy
import operator
import pickle
import random
from types import SimpleNamespace

import numpy as np

from sortnet16 import Comparator, Network, Phase, infer_poset, verify_sorts_binary
from sortnet16 import network


def reference_comparators(width, items):
    """The check spelled the general way: every item is made a Comparator,
    every wire read through ``operator.index`` and every tag through
    ``Phase``."""
    width = operator.index(width)
    if width < 1:
        raise ValueError("network width must be at least 1")
    out = []
    for c in items:
        low, high, tag = c if type(c) is Comparator else Comparator(*c)
        lo, hi = operator.index(low), operator.index(high)
        if not 0 <= lo < hi:
            raise ValueError(f"comparator ({low}, {high}) needs 0 <= low < high")
        if hi >= width:
            raise ValueError(f"comparator ({low}, {high}) exceeds width {width}")
        out.append(Comparator(lo, hi, None if tag is None else Phase(tag)))
    return tuple(out)


def outcome(make):
    try:
        return make()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def random_pairs(rng, width, size):
    return [tuple(sorted(rng.sample(range(width), 2))) for _ in range(size)]


def spell(rng, pair, tag):
    """One valid spelling of ``pair``; ``tag`` None spells it untagged."""
    a, b = pair
    if tag is not None:
        return rng.choice([
            (a, b, tag), (a, b, tag.value), [a, b, tag],
            Comparator(a, b, tag), Comparator(a, b, tag.value),
            (np.int64(a), b, tag.value),
        ])
    spellings = [
        (a, b), [a, b], (a, b, None), Comparator(a, b), Comparator(np.int64(a), b),
        (np.int64(a), np.int64(b)), (np.uint8(a), np.uint8(b)), (a, np.int64(b)),
    ]
    if (a, b) == (0, 1):
        spellings += [(False, True), (0, True), Comparator(False, True)]
    return rng.choice(spellings)


def test_every_valid_spelling_builds_the_same_network():
    rng = random.Random(0x5EED)
    for width in range(1, 31):
        for _ in range(4):
            pairs = random_pairs(rng, width, rng.randint(0, 3 * width)) if width > 1 else []
            tag = rng.choice([None, None, Phase.MERGE, Phase.APPROX])
            plain = Network(width, [(a, b, tag) for a, b in pairs])
            expected = reference_comparators(width, plain.comparators)
            assert plain.comparators == expected
            for _ in range(3):
                items = [spell(rng, p, tag) for p in pairs]
                for given in (items, tuple(items), (item for item in items)):
                    net = Network(np.int64(width) if rng.random() < 0.2 else width, given)
                    assert net == plain and net.pairs() == pairs
                    assert type(net.width) is int
                    for c in net.comparators:
                        assert type(c) is Comparator and type(c.low) is int is type(c.high)
                        assert c.tag is tag


INVALID = [
    lambda w: (w - 1, w - 1),  # equal wires
    lambda w: (w - 1, 0),  # reversed
    lambda w: (-1, w - 1),  # negative
    lambda w: (0, w),  # past the width
    lambda w: (np.int64(0), np.int64(w)),
    lambda w: Comparator(0, w + 3, Phase.MERGE),
    lambda w: (0.5, w - 1),  # float wire
    lambda w: (0, float(w - 1)),
    lambda w: ("0", w - 1),  # str wire
    lambda w: Comparator("0", w - 1),
    lambda w: (0, w - 1, "bogus"),  # unknown tag
    lambda w: Comparator(0, w - 1, "bogus"),
    lambda w: (0,),  # wrong arity
    lambda w: (0, 1, None, 2),
    lambda w: [0, 1, 2, 3],
    lambda w: 5,
]


def test_every_invalid_spelling_raises_as_the_reference_does():
    rng = random.Random(0xBAD)
    for width in range(2, 31):
        for bad in INVALID:
            items = random_pairs(rng, width, rng.randint(0, width))
            items.insert(rng.randint(0, len(items)), bad(width))
            expected = outcome(lambda: reference_comparators(width, items))
            assert type(expected) is tuple and issubclass(expected[0], Exception)
            assert outcome(lambda: Network(width, items)) == expected
    for width in (0, -3, 2.0, "2", None):
        expected = outcome(lambda: reference_comparators(width, [(0, 1)]))
        assert outcome(lambda: Network(width, [(0, 1)])) == expected


def test_pairs_are_a_new_list_each_call_and_changing_one_changes_nothing():
    rng = random.Random(7)
    net = Network(10, random_pairs(rng, 10, 40) + [Comparator(0, 9, Phase.FINAL)])
    twin = copy.copy(net)
    first, second = net.pairs(), net.pairs()
    assert type(first) is list and first == second and first is not second
    verdict, poset = verify_sorts_binary(net), infer_poset(net)
    first.reverse()
    first += [(0, 1)] * 5
    second.clear()
    assert net == twin and net.pairs() == [(c.low, c.high) for c in net.comparators]
    assert verify_sorts_binary(net) == verdict and infer_poset(net) == poset


def test_reduce_and_copies_carry_the_fields_alone():
    net = Network(5, [(0, 1), Comparator(2, 4, Phase.MERGE), [1, 3]])
    assert net.__reduce__() == (Network, (5, net.comparators))
    assert "_pairs" not in repr(net)
    for copied in (pickle.loads(pickle.dumps(net)), copy.deepcopy(net)):
        assert copied == net and hash(copied) == hash(net)
        assert copied.pairs() == net.pairs() == [(0, 1), (2, 4), (1, 3)]


def counting(monkeypatch):
    """Counts of the calls to ``operator.index`` that ``network`` makes and
    of Comparator records built."""
    calls = {"index": 0, "record": 0}

    def index(value):
        calls["index"] += 1
        return operator.index(value)

    build = Comparator.__new__

    def new(cls, *args, **kwargs):
        calls["record"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(network, "operator", SimpleNamespace(index=index))
    monkeypatch.setattr(Comparator, "__new__", new)
    return calls


def test_exact_ints_take_the_fast_path(monkeypatch):
    pairs = [(i, j) for j in range(20) for i in range(j)]
    records = Network(20, pairs).comparators  # shares every pair's record
    calls = counting(monkeypatch)
    bare = Network(20, pairs)
    assert calls == {"index": 1, "record": 0}  # the width alone
    tagged = Network(20, [Comparator(a, b, Phase.MERGE) for a, b in pairs])
    calls.update(index=0, record=0)
    assert Network(20, tagged.comparators) == tagged and Network(20, records) == bare
    assert calls == {"index": 2, "record": 0}
    assert all(x is y for x, y in zip(bare.comparators, records))
    # The general path is what the fast path saves.
    Network(20, [(np.int64(a), b) for a, b in pairs])
    assert calls == {"index": 3 + 2 * len(pairs), "record": 2 * len(pairs)}


def test_the_shared_records_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(network, "_shared", {})
    monkeypatch.setattr(network, "_SHARED_MAX", 5)
    rng = random.Random(3)
    pairs = random_pairs(rng, 200, 100)
    net = Network(200, pairs)
    assert len(network._shared) == 5
    assert net.comparators == reference_comparators(200, pairs)
    assert net.pairs() == pairs
    for pair, record in network._shared.items():
        assert record == Comparator(*pair) and record.tag is None
