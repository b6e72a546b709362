"""Self-tests for the benchmark harness.

    python3 -m pytest bench -q
"""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import manifest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def span(sid, start, end, parent=None):
    return spans.Span(sid, f"s{sid}", start, end, parent, 0)


# -- span self-time arithmetic ---------------------------------------------


def test_self_time_subtracts_nested_children():
    tree = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 2.0, 3.0, 1), span(3, 5.0, 6.0, 0)]
    assert spans.self_times(tree) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once():
    # Two processes of a pipeline overlap inside one op.
    tree = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, 0), span(2, 4.0, 8.0, 0), span(3, 4.5, 5.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent():
    tree = [span(0, 2.0, 5.0), span(1, 1.0, 3.0, 0), span(2, 4.0, 9.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_self_times_sum_to_root_duration():
    tree = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, 0), span(2, 2.0, 3.0, 1)]
    tree[2].name = tree[1].name = "layer"
    assert spans.layer_self_times(tree) == {"s0": 7.0, "layer": 3.0}


def test_adopt_renumbers_child_spans_under_parent():
    tracer = spans.Tracer()
    tracer.op = 7
    root = tracer.add("process", 0.0, 5.0, None)
    tracer.adopt([[0, "import", 1.0, 2.0, None, 0], [1, "x", 1.5, 1.8, 0, 0]], root)
    assert [(s.id, s.parent, s.op) for s in tracer.spans] == [(0, None, 7), (1, 0, 7), (2, 1, 7)]


def test_install_records_spans_only_inside_ops_and_restores():
    import sortnet16
    from sortnet16 import network, verify

    originals = (sortnet16.verify_sorts_binary, verify._backend.first_unsorted,
                 network.Network.__post_init__)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        sortnet16.verify_sorts_binary(sortnet16.green16())
        assert tracer.spans == []
        tracer.op = 0
        sortnet16.verify_sorts_binary(sortnet16.green16())
    finally:
        restore()
    names = {s.name for s in tracer.spans}
    assert {"constructions.build", "network.validate", "verify.first_unsorted"} <= names
    assert tracer.counts["verify.calls"] == 1
    assert tracer.counts["verify.inputs_covered"] == 1 << 16
    assert tracer.counts["verify.slice_bytes"] == 16 * (1 << 16) // 8
    assert (sortnet16.verify_sorts_binary, verify._backend.first_unsorted,
            network.Network.__post_init__) == originals


# -- percentile rule ---------------------------------------------------------


def test_percentile_matches_statistics_quantiles():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == statistics.median(values)
    assert run.percentile(values, 90) == statistics.quantiles(values, n=100)[89]
    assert run.beyond(values, run.percentile(values, 90)) == 10


def test_percentile_of_one_sample_is_that_sample():
    assert run.percentile([3.5], 90) == 3.5


def test_percentile_is_stable_under_repeated_passes():
    # p50 and p90 of a pass repeated k times fall inside the same cluster
    # whatever k is, as long as the pass puts no cluster edge at 50 or 90%.
    one_pass = [0.1] * 8 + [1.5] * 4
    for k in range(1, 6):
        assert run.percentile(one_pass * k, 50) == 0.1
        assert run.percentile(one_pass * k, 90) == 1.5


# -- schemas -----------------------------------------------------------------


def test_benchmark_json_is_generated_from_manifest():
    assert (BENCH.parent / "BENCHMARK.json").read_text() == manifest.render()


def test_benchmark_json_follows_the_contract():
    doc = json.loads(manifest.render())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= doc["run_seconds"] <= 60 and isinstance(doc["run_seconds"], int)
    assert all(len(a) <= 200 for a in doc["command"]) and len(doc["command"]) <= 32
    assert all((BENCH.parent / p).is_dir() for p in doc["paths"])
    assert 2 <= len(doc["workloads"]) <= 8
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(doc["end_to_end"] + doc["per_layer"]) == len(
        {m["name"] for m in doc["end_to_end"] + doc["per_layer"]})
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
    assert len(json.dumps(doc)) <= 64 * 1024


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_schema(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "library_claims",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = manifest.PER_LAYER if trace else manifest.END_TO_END
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_claims", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- correctness gate ------------------------------------------------------------


def test_oracle_agrees_with_known_orders():
    import sortnet16

    assert workloads.oracle(sortnet16.green16())[0] == -1
    first, rows = workloads.oracle(sortnet16.hypercube_phase(4))
    assert first >= 0 and rows == workloads._cube_rows(4)
    assert workloads._check_verdict(sortnet16.hypercube_phase(4),
                                    sortnet16.SortVerdict(True)) is not None


def test_wide_networks_depend_only_on_the_seed():
    assert workloads.wide_networks(5) == workloads.wide_networks(5)
    assert workloads.wide_networks(5) != workloads.wide_networks(6)


def test_cli_check_rejects_wrong_exit_code_and_stdout():
    cmd = workloads.CLI_COMMANDS[0]
    check = workloads._cli_check(cmd, "sorts\n")
    assert check(workloads.CliResult((0, 0), "sorts\n", "")) is None
    assert check(workloads.CliResult((0, 1), "sorts\n", "")) is not None
    assert check(workloads.CliResult((0, 0), "counterexample: 1\n", "")) is not None


# -- comparing result sets -------------------------------------------------------


def test_compare_flags_backend_change_instead_of_regression():
    def rows(backend, value):
        return {"library_claims": [
            {"env": {"backend": backend},
             "metrics": {m["name"]: {"value": value * (1 + i / 1000)} for m in manifest.END_TO_END}}
            for i in range(5)
        ]}

    slow = compare.compare(rows("compiled", 1.0), rows("python", 2.0))
    assert all(r[-1].startswith("backend differs") for r in slow)
    same = {r[1]: r[-1] for r in compare.compare(rows("python", 1.0), rows("python", 2.0))}
    assert same["pass_s"] == "regression" and same["ops_per_s"] == "better"


def test_verdict_reports_noisy_metrics_as_unresolved():
    assert compare.verdict([1.0, 1.5, 2.0, 2.5], [1.9, 2.0, 2.1], 0.1, "lower") == "unresolved"
    assert compare.verdict([1.0, 1.01, 1.02], [1.03, 1.01, 1.02], 0.1, "lower") == "ok"
