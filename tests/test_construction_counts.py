"""How much the paper's fixed objects cost to build.

Each builder makes its comparator table once, on first use, and then only
constructs and checks one ``Network`` per call (pinned per builder by
``test_constructions.py::test_each_builder_checks_its_comparators_once``).
``majority_circuit`` makes its gate table once per size and pin the same
way.  The first call converts one ``Network`` to a ``MonotoneCircuit``, at
15 inputs pins its last input with one ``specialize`` call (one circuit
more), and returns one new ``MonotoneCircuit``; every later call is that
last circuit alone.  Importing the package, or running its CLI for the
version, builds no table.  A change to the construction layer fails here
rather than only in a benchmark row.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sortnet16
from sortnet16 import (
    MonotoneCircuit,
    Network,
    circuits,
    constructions,
    majority_circuit,
    network_to_circuit,
    specialize,
    van_voorhis16,
)


@pytest.fixture
def built(monkeypatch):
    """Counts of the Networks and MonotoneCircuits constructed, and of the
    calls of ``specialize``."""
    counts = Counter()

    def count_checks(cls):
        check = cls.__post_init__

        def counted(self):
            counts[cls.__name__] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    count_checks(Network)
    count_checks(MonotoneCircuit)
    specialize = circuits.specialize

    def counted_specialize(*args):
        counts["specialize"] += 1
        return specialize(*args)

    monkeypatch.setattr(circuits, "specialize", counted_specialize)
    return counts


MAJORITY = [(16, 0), (15, 0), (15, 1)]


@pytest.mark.parametrize("cold", [True, False], ids=["first call", "warm"])
@pytest.mark.parametrize("n_vars, pin_bit", MAJORITY)
def test_a_majority_table_is_built_once_then_each_call_is_one_circuit(
    built, n_vars, pin_bit, cold
):
    if cold:
        circuits._majority_table.cache_clear()
        constructions._van_voorhis_table.cache_clear()
        constructions._fixed16.cache_clear()
    else:
        majority_circuit(n_vars, pin_bit=pin_bit)
        built.clear()
    circuit, _ = majority_circuit(n_vars, pin_bit=pin_bit)
    assert circuit.n_inputs == n_vars
    if not cold:
        assert built == {"MonotoneCircuit": 1}
    elif n_vars == 16:
        assert built == {"Network": 1, "MonotoneCircuit": 2}
    else:
        assert built == {"Network": 1, "MonotoneCircuit": 3, "specialize": 1}


@pytest.mark.parametrize("n_vars, pin_bit", MAJORITY)
def test_every_majority_call_returns_a_new_circuit_of_the_same_gates(n_vars, pin_bit):
    table = network_to_circuit(van_voorhis16())
    if n_vars == 15:
        table = specialize(table, 15, pin_bit)
    wires = set()
    for k in range(1, n_vars + 1):
        first, wire = majority_circuit(n_vars, k, pin_bit=pin_bit)
        second, again = majority_circuit(n_vars, k, pin_bit=pin_bit)
        assert first == second == table
        assert first is not second
        assert wire == again
        wires.add(wire)
    # Each threshold picks its own output of the one table.
    assert len(wires) == n_vars


_TABLE_PROBE = """
import contextlib, io, json, runpy, sys
import sortnet16
import sortnet16.circuits as circuits
import sortnet16.constructions as constructions

def filled():
    return {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}": f.cache_info().currsize
        for module in (circuits, constructions)
        for name, f in sorted(vars(module).items())
        if hasattr(f, "cache_info")
    }

report = [filled()]
sys.argv = ["sortnet16", "--version"]
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("sortnet16", run_name="__main__", alter_sys=True)
    except SystemExit as exit:
        code = exit.code
report.append(filled())
constructions.green16()
report.append(filled())
circuits.majority_circuit(15, pin_bit=1)
report.append(filled())
print(json.dumps([code, report]))
"""


def test_import_and_version_build_no_table():
    src = str(Path(sortnet16.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", _TABLE_PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, (imported, after_version, after_green, after_majority) = json.loads(proc.stdout)
    assert code == 0
    tables = [
        "circuits._majority_table",
        "constructions._batcher_table",
        "constructions._cube_table",
        "constructions._fixed16",
        "constructions._green_table",
        "constructions._van_voorhis_table",
    ]
    assert imported == after_version == dict.fromkeys(tables, 0)
    # The probe sees a table once a builder has made it.
    green = {"constructions._fixed16": 1, "constructions._green_table": 1}
    assert after_green == {**imported, **green}
    assert after_majority == {
        **after_green, "circuits._majority_table": 1, "constructions._van_voorhis_table": 1
    }
