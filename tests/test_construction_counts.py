"""How much the paper's fixed objects cost to build.

Each builder makes its comparator table once, on first use, and then only
constructs and checks one ``Network`` per call (pinned per builder by
``test_constructions.py::test_each_builder_checks_its_comparators_once``).
A majority circuit is one ``Network`` and one ``MonotoneCircuit``, with no
``specialize`` pass: the 15-input circuit is folded while the network is
converted.  Importing the package, or running its CLI for the version,
builds no table.  A change to the construction layer fails here rather
than only in a benchmark row.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import sortnet16
from sortnet16 import MonotoneCircuit, Network, circuits, constructions, majority_circuit


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


@pytest.mark.parametrize("cold", [True, False], ids=["first call", "cached"])
@pytest.mark.parametrize("n_vars, pin_bit", [(16, 0), (15, 0), (15, 1)])
def test_a_majority_circuit_is_one_network_and_one_circuit(built, n_vars, pin_bit, cold):
    if cold:
        constructions._van_voorhis_table.cache_clear()
        constructions._fixed16.cache_clear()
    circuit, _ = majority_circuit(n_vars, pin_bit=pin_bit)
    assert circuit.n_inputs == n_vars
    assert built == {"Network": 1, "MonotoneCircuit": 1}
    assert built["specialize"] == 0


_TABLE_PROBE = """
import contextlib, io, json, runpy, sys
import sortnet16
import sortnet16.constructions as constructions

def filled():
    return {
        name: f.cache_info().currsize
        for name, f in sorted(vars(constructions).items())
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
    code, (imported, after_version, after_green) = json.loads(proc.stdout)
    assert code == 0
    tables = ["_batcher_table", "_cube_table", "_fixed16", "_green_table", "_van_voorhis_table"]
    assert imported == after_version == dict.fromkeys(tables, 0)
    # The probe sees a table once a builder has made it.
    assert after_green == {**imported, "_fixed16": 1, "_green_table": 1}
