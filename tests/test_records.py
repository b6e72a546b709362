"""The record types: equal and hashed by their fields, printed with their
field names, closed to assignment, and carried whole through pickle and
deepcopy.  The validated records check their fields on every construction."""

import copy
import pickle

import pytest

from sortnet16 import (
    Comparator,
    DegenerateOrderError,
    Gate,
    MonotoneCircuit,
    Network,
    ObservationReport,
    Phase,
    Poset,
    SortVerdict,
    green16,
    network_to_circuit,
)
from sortnet16.analysis import ClaimVerdict


def check_record(make, other, text, fields, hashable=True):
    """``make()`` builds a record from the same fields each call; ``other``
    differs from it in one field; ``text`` is its repr."""
    record, twin = make(), make()
    assert record is not twin and record == twin and not record != twin
    assert record != other and not record == other
    if hashable:
        assert hash(record) == hash(twin)
    else:
        with pytest.raises(TypeError):
            hash(record)
    assert repr(record) == text
    for name in fields:
        value = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        assert getattr(record, name) is value
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record)
        assert copied == record and repr(copied) == text


def test_network_record():
    check_record(
        lambda: Network(3, [(0, 1), (1, 2, "approx")]),
        Network(3, [(0, 1)]),
        "Network(width=3, comparators=(Comparator(low=0, high=1, tag=None), "
        "Comparator(low=1, high=2, tag=<Phase.APPROX: 'approx'>)))",
        ("width", "comparators"),
    )
    net = pickle.loads(pickle.dumps(green16()))
    assert net == green16() and net.comparators[0].tag is Phase.APPROX
    with pytest.raises(AttributeError, match="cannot delete field 'width'"):
        del net.width
    # Records of different classes are unequal, not an error.
    assert Network(2) != Poset(1, (1,)) and not Network(2) == Poset(1, (1,))


def test_network_construction_checks_its_comparators():
    assert Network(width=2, comparators=[(0, 1)]).comparators == (Comparator(0, 1),)
    assert Network(4).comparators == ()
    with pytest.raises(ValueError, match="exceeds width"):
        Network(3, [(1, 3)])
    with pytest.raises(ValueError, match="needs 0 <= low < high"):
        Network(3, [(1, 0)])
    with pytest.raises(ValueError):
        Network(0)


def test_poset_record():
    check_record(
        lambda: Poset(2, (0b11, 0b10)),
        Poset(2, (0b01, 0b10)),
        "Poset(width=2, rows=(3, 2))",
        ("width", "rows"),
    )


def test_poset_construction_refuses_a_degenerate_relation():
    with pytest.raises(DegenerateOrderError, match="wires 0 and 1"):
        Poset(2, (0b11, 0b11))
    with pytest.raises(DegenerateOrderError):
        Poset(width=3, rows=(0b001, 0b110, 0b110))


def test_monotone_circuit_record():
    check_record(
        lambda: network_to_circuit(Network(2, [(0, 1)])),
        MonotoneCircuit(2, (Gate("AND", 2, 3),), (4, 3)),
        "MonotoneCircuit(n_inputs=2, gates=(Gate(kind='AND', a=2, b=3), "
        "Gate(kind='OR', a=2, b=3)), outputs=(4, 5))",
        ("n_inputs", "gates", "outputs"),
    )


def test_monotone_circuit_construction_checks_its_gates():
    ok = MonotoneCircuit(n_inputs=1, gates=(Gate("OR", 0, 2),), outputs=(3,))
    assert ok.outputs == (3,)
    with pytest.raises(ValueError, match="gate kind must be AND or OR"):
        MonotoneCircuit(2, (Gate("XOR", 2, 3),), (4,))
    with pytest.raises(ValueError, match="bad operand"):
        MonotoneCircuit(2, (Gate("AND", 2, 4),), (4,))
    with pytest.raises(ValueError, match="bad output reference"):
        MonotoneCircuit(2, (), (4,))


def test_sort_verdict_record():
    check_record(
        lambda: SortVerdict(False, (1, 0)),
        SortVerdict(False, (1, 1)),
        "SortVerdict(sorts=False, counterexample=(1, 0))",
        ("sorts", "counterexample"),
    )
    assert SortVerdict(True).counterexample is None
    assert bool(SortVerdict(True)) and not SortVerdict(False, (1, 0))


def test_observation_report_record():
    def report(holds=True):
        claims = {name: ClaimVerdict(True) for name in "abc"}
        claims["d"] = ClaimVerdict(True) if holds else ClaimVerdict(False, (0, 1))
        return ObservationReport("sampled-permutations", 10, 0x7, claims)

    check_record(
        report,
        report(holds=False),
        "ObservationReport(mode='sampled-permutations', inputs_checked=10, seed=7, "
        "claims={'a': ClaimVerdict(holds=True, counterexample=None), "
        "'b': ClaimVerdict(holds=True, counterexample=None), "
        "'c': ClaimVerdict(holds=True, counterexample=None), "
        "'d': ClaimVerdict(holds=True, counterexample=None)})",
        ("mode", "inputs_checked", "seed", "claims"),
        hashable=False,  # the claims field is a dict
    )
    assert report().all_hold and not report(holds=False).all_hold
    assert report(holds=False).to_lines()[-1] == "d: FAIL input=[0 1]"
    check_record(
        lambda: ClaimVerdict(False, (0, 1)),
        ClaimVerdict(True),
        "ClaimVerdict(holds=False, counterexample=(0, 1))",
        ("holds", "counterexample"),
    )
