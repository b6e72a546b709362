import io
import json
import os
import random
import resource
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

from sortnet16 import (
    batcher_sorter,
    green16,
    hypercube_phase,
    parse_text,
    render_text,
    sorter4,
    van_voorhis16,
)
import sortnet16
from sortnet16.cli import _CHECKS, main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_net(tmp_path, net, name="net.txt"):
    path = tmp_path / name
    path.write_text(render_text(net))
    return str(path)


def test_build_green16(capsys):
    code, out, _ = run(capsys, "build", "green16")
    assert code == 0
    assert parse_text(out) == green16()


@pytest.mark.parametrize(
    "args,expected",
    [
        (("build", "vanvoorhis16"), van_voorhis16),
        (("build", "sorter4"), sorter4),
        (("build", "hypercube", "3"), lambda: hypercube_phase(3)),
        (("build", "batcher", "8"), lambda: batcher_sorter(8)),
    ],
)
def test_build_variants(capsys, args, expected):
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert parse_text(out) == expected()


def test_build_requires_size_for_parametric_networks(capsys):
    code, _, err = run(capsys, "build", "hypercube")
    assert code == 2
    assert "size" in err


def test_build_rejects_bad_size(capsys):
    code, _, err = run(capsys, "build", "batcher", "7")
    assert code == 2
    assert "error" in err


def test_build_rejects_oversized_hypercube(capsys):
    code, out, err = run(capsys, "build", "hypercube", "7")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_build_rejects_stray_size(capsys):
    code, _, err = run(capsys, "build", "green16", "5")
    assert code == 2
    assert "no size" in err


def test_build_layered_output(capsys):
    code, out, _ = run(capsys, "build", "green16", "--layered")
    assert code == 0
    assert out.count(";") == 9


def test_verify_sorting_network(capsys, tmp_path):
    path = write_net(tmp_path, van_voorhis16())
    code, out, _ = run(capsys, "verify", path)
    assert code == 0
    assert out.strip() == "sorts"


def test_verify_reports_counterexample_and_witness(capsys, tmp_path):
    path = write_net(tmp_path, green16().prefix(59))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    lines = out.splitlines()
    assert lines[0].startswith("counterexample:")
    assert lines[1].startswith("witness permutation:")
    witness = [int(v) for v in lines[1].split(":")[1].split()]
    unsorted_out = green16().prefix(59).apply(witness)
    assert any(a > b for a, b in zip(unsorted_out, unsorted_out[1:]))


def test_verify_empty_width16_network(capsys, tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("width 16\n")
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "counterexample" in out


def test_verify_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(render_text(green16())))
    code, out, _ = run(capsys, "verify", "-")
    assert code == 0
    assert out.strip() == "sorts"


def test_stats(capsys, tmp_path):
    path = write_net(tmp_path, green16())
    code, out, _ = run(capsys, "stats", path)
    assert code == 0
    assert "width: 16" in out
    assert "comparators: 60" in out
    assert "depth: 10" in out
    assert "phase approx: 32" in out
    assert "phase merge: 3" in out


def test_poset_prefix_and_restrict(capsys, tmp_path):
    path = write_net(tmp_path, green16())
    code, out, _ = run(capsys, "poset", path, "--prefix", "32")
    assert code == 0
    assert out.count("->") == 32
    code, out, _ = run(capsys, "poset", path, "--prefix", "55", "--restrict", "M")
    assert code == 0
    assert out.count("->") == 9
    code, out, _ = run(capsys, "poset", path, "--prefix", "32", "--restrict", "0,1,3")
    assert code == 0
    assert "n3" in out


def test_poset_bad_restrict(capsys, tmp_path):
    path = write_net(tmp_path, green16())
    code, _, err = run(capsys, "poset", path, "--restrict", "middle")
    assert code == 2
    assert "restrict" in err


@pytest.mark.parametrize(
    "restrict,message",
    [
        ("0,99", "wire 99 is outside 0..15"),
        ("-1,3", "wire -1 is outside 0..15"),
        ("3,3", "names wire 3 twice"),
        ("M", "wire 5 is outside 0..3"),
        *(
            (bad, f"wants M, layer1, layer3, or a comma list of wires, got {bad!r}")
            for bad in ("+3,1", "1_0", "\u0663", "3,-0x1", "-", "")
        ),
    ],
)
def test_poset_restrict_names_the_bad_wire(capsys, tmp_path, restrict, message):
    net = green16() if restrict != "M" else sorter4()
    code, out, err = run(capsys, "poset", write_net(tmp_path, net), f"--restrict={restrict}")
    assert code == 2
    assert out == ""
    assert err == f"error: --restrict {message}\n"


def test_poset_prefix_past_the_end_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "poset", write_net(tmp_path, green16()), "--prefix", "999")
    assert code == 2
    assert out == ""
    assert err == "error: prefix length must be in 0..60, got 999\n"


def test_poset_negative_prefix_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "poset", write_net(tmp_path, green16()), "--prefix", "-5")
    assert code == 2
    assert out == ""
    assert "prefix length" in err


def test_diagram_ascii_and_svg(capsys, tmp_path):
    path = write_net(tmp_path, van_voorhis16())
    code, out, _ = run(capsys, "diagram", path)
    assert code == 0
    assert len(out.splitlines()) == 16
    code, out, _ = run(capsys, "diagram", path, "--format", "svg", "--color")
    assert code == 0
    assert out.count('class="bridge"') == 61
    target = tmp_path / "net.svg"
    code, out, _ = run(capsys, "diagram", path, "--format", "svg", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("<svg")


def test_observations_command(capsys):
    code, out, _ = run(capsys, "observations", "--samples", "500", "--seed", "0x7")
    assert code == 0
    assert out.startswith("# prefix=hypercube(4) samples=500 seed=0x7")
    assert "mode=exhaustive-binary" in out
    assert "mode=sampled-permutations" in out
    assert out.count("holds") == 8


@pytest.mark.parametrize("samples", ["0", "-1", "100000000000000000000"])
def test_observations_bad_sample_count_prints_nothing(capsys, monkeypatch, samples):
    from sortnet16 import analysis

    def drawn(*args):
        raise AssertionError("the sample was drawn")

    monkeypatch.setattr(analysis, "_draw_permutations", drawn)
    code, out, err = run(capsys, "observations", "--samples", samples)
    assert code == 2
    assert out == ""
    bound = "at least 1" if int(samples) < 1 else f"at most {1 << 26}"
    assert err == f"error: samples must be {bound}, got {samples}\n"


@pytest.mark.parametrize("seed", ["0x", "12.5", "seven"])
def test_observations_bad_seed_says_what_a_seed_is(capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["observations", "--seed", seed])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert err.endswith(
        "error: argument --seed: seed must be an integer such as 12 or 0xC0FFEE, "
        f"got {seed!r}\n"
    )


@pytest.mark.parametrize(
    "name", ["green-m", "vv-m", "strategy", "depth-regression"]
)
def test_checks_pass(capsys, name):
    code, out, _ = run(capsys, "checks", name)
    assert code == 0
    assert out.strip() == f"{name}: PASS"


def test_majority_16(capsys):
    code, out, _ = run(capsys, "majority", "16")
    assert code == 0
    assert "out8" in out
    assert "cone depth: 9" in out
    assert "threshold 8 of 16: verified" in out
    code, out, _ = run(capsys, "majority", "16", "--threshold", "9")
    assert code == 0
    assert "output: out7" in out


def test_majority_15(capsys):
    for pin in ("0", "1"):
        code, out, _ = run(capsys, "majority", "15", "--pin", pin)
        assert code == 0
        assert "threshold 8 of 15: verified" in out
        assert "cone depth: 9" in out


@pytest.mark.parametrize("variables", ["16", "15"])
def test_majority_prints_the_reference_gate_list(capsys, variables):
    # The corollary's circuit text, byte for byte as the benchmark checks it.
    code, out, _ = run(capsys, "majority", variables)
    assert code == 0
    assert out == (REFERENCE / f"majority{variables}.out").read_text()


def test_majority_16_refuses_a_pin(capsys):
    code, out, err = run(capsys, "majority", "16", "--pin", "1")
    assert (code, out) == (2, "")
    assert "pin_bit" in err


def test_majority_bad_threshold(capsys):
    code, _, err = run(capsys, "majority", "16", "--threshold", "40")
    assert code == 2
    assert "error" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--bogus-flag", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["build", "quicksort"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/net.txt")
    assert code == 2
    assert "error" in err


def test_malformed_network_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("width 2\n1 1\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2


def test_no_command_prints_help(capsys):
    code, out, _ = run(capsys)
    assert code == 2
    assert "usage" in out


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out == "sortnet16 0.1.0 (backend: python)\n"


def test_width_beyond_engine_ceiling_exits_2(capsys, tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text("width 40\n0 1\n")
    for command in ("verify", "poset"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "slice engine" in err


def test_memory_error_exits_2(capsys, monkeypatch, tmp_path):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("sortnet16.network.asap_schedule", exhausted)
    code, _, err = run(capsys, "stats", write_net(tmp_path, sorter4()))
    assert code == 2
    assert err == "error: out of memory\n"


def test_stats_of_huge_declared_width(capsys, monkeypatch):
    # Nothing is allocated per declared wire, so this runs in constant memory.
    monkeypatch.setattr("sys.stdin", io.StringIO("width 99999999999\n0 1\n"))
    code, out, _ = run(capsys, "stats", "-")
    assert code == 0
    assert out == "width: 99999999999\ncomparators: 1\ndepth: 1\n"


def test_stats_out_of_memory_prints_nothing_to_stdout(capsys, monkeypatch):
    # Whatever runs out of memory while the report is built (simulated here),
    # the exit leaves stdout empty.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("sys.stdin", io.StringIO("width 99999999999\n0 1\n"))
    monkeypatch.setattr("sortnet16.network.asap_schedule", exhausted)
    code, out, err = run(capsys, "stats", "-")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


# Runs commands in one fresh interpreter in which numpy cannot be imported,
# and reports after each its exit code, its stdout and the package modules
# (and the standard library's dataclasses and inspect) loaded so far.
# sys.modules only grows, so a module missing after a command was loaded by
# none of the commands before it either.
_COMMAND_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # makes every import of numpy fail
from sortnet16.cli import build_parser, main

def loaded():
    return sorted(
        m for m in sys.modules if m.startswith("sortnet16.") or m in ("dataclasses", "inspect")
    )

build_parser()
report = [[0, "", loaded()]]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report.append([code, out.getvalue(), loaded()])
print(json.dumps(report))
"""


def test_commands_run_without_numpy_and_load_only_what_they_run(tmp_path):
    green, cube = str(REFERENCE / "green16.txt"), str(tmp_path / "cube.txt")
    commands = [  # argv, exit code, file in bench/reference/ holding its stdout
        (["build", "green16"], 0, "green16.txt"),
        (["build", "hypercube", "4", "-o", cube], 0, None),
        (["stats", green], 0, "stats.out"),
        (["diagram", green, "--format", "svg", "--color"], 0, "diagram_svg.out"),
        (["verify", green], 0, "verify_green16.out"),
        (["verify", cube], 1, "verify_hypercube4.out"),
        (["poset", green, "--prefix", "55", "--restrict", "M"], 0, "poset_prefix55_M.out"),
        (["majority", "16"], 0, "majority16.out"),
        (["majority", "15"], 0, "majority15.out"),
        (["observations"], 0, "observations.out"),
        *((["checks", name], 0, f"checks_{name}.out") for name in sorted(_CHECKS)),
    ]
    (_, _, parsed), *report = probe_commands(commands)

    def loaded_after(command):
        """Modules loaded once the last run of ``command`` has returned."""
        last = max(i for i, (argv, _, _) in enumerate(commands) if argv[0] == command)
        return set(report[last][2])

    heavy = {"sortnet16.analysis", "sortnet16.circuits"}
    assert not heavy & set(parsed)
    assert not heavy & loaded_after("diagram")  # build, stats and diagram
    assert "sortnet16.circuits" not in loaded_after("poset")  # and verify
    assert "sortnet16.analysis" not in loaded_after("majority")
    assert heavy <= loaded_after("checks")
    assert not {"dataclasses", "inspect"} & loaded_after("checks")  # after every command


def probe_commands(commands):
    """Run ``(argv, exit code, reference file or None)`` commands through
    ``_COMMAND_PROBE``, check each one's exit code and stdout, and return
    the probe's report: the state after parsing, then one per command."""
    src = str(Path(sortnet16.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_PROBE, json.dumps([argv for argv, _, _ in commands])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report) == len(commands) + 1
    for (argv, code, reference), (got_code, stdout, _) in zip(commands, report[1:]):
        assert got_code == code, argv
        if reference:
            assert stdout == (REFERENCE / reference).read_text(encoding="utf-8"), argv
    return report


def test_commands_leave_unloaded_the_modules_they_do_not_run():
    # Each group runs in its own interpreter, so that no command outside the
    # group loads a module first and hides a load by a command inside it.
    green = str(REFERENCE / "green16.txt")
    readers = [
        (["verify", green], 0, "verify_green16.out"),
        (["stats", green], 0, "stats.out"),
        (["diagram", green, "--format", "svg", "--color"], 0, "diagram_svg.out"),
    ]
    claims = [
        (["majority", "16"], 0, "majority16.out"),
        (["majority", "15"], 0, "majority15.out"),
        (["observations"], 0, "observations.out"),
        *((["checks", name], 0, f"checks_{name}.out") for name in sorted(_CHECKS)),
    ]
    loaded_by_readers = set(probe_commands(readers)[-1][2])
    loaded_by_claims = set(probe_commands(claims)[-1][2])
    assert "sortnet16.render" in loaded_by_readers
    assert "sortnet16.constructions" not in loaded_by_readers
    assert "sortnet16.constructions" in loaded_by_claims
    assert "sortnet16.render" not in loaded_by_claims


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from sortnet16 import *", namespace)
    assert set(sortnet16.__all__) <= set(namespace)
    # The public surface, pinned: adding or dropping a name edits this set.
    assert set(sortnet16.__all__) == {
        "__version__",
        # network
        "Comparator", "Network", "Phase", "asap_schedule", "depth",
        # verify
        "DegenerateOrderError", "Poset", "SortVerdict", "backend_name",
        "counterexample_permutation", "infer_poset", "verify_sorts_binary",
        # constructions
        "CUBE_LAYER1", "CUBE_LAYER3", "MIDDLE_LAYER", "M_WIRES", "UPPER_TETRAD",
        "LOWER_TETRAD", "batcher_sorter", "green16", "green16_naive_merge",
        "hypercube_phase", "sorter4", "strategy_sorter", "van_voorhis16",
        # analysis
        "ObservationReport", "check_cube_poset", "check_depth_regression",
        "check_green_m_poset", "check_observations", "check_strategy_completeness",
        "check_vv_m_poset",
        # circuits
        "Gate", "MonotoneCircuit", "cone_depth", "is_threshold", "majority_circuit",
        "network_to_circuit", "render_gate_list", "specialize",
        # render
        "TextFormatError", "parse_text", "render_diagram", "render_poset_dot",
        "render_text",
    }
    assert namespace["verify_sorts_binary"] is sortnet16.verify.verify_sorts_binary


# -- fuzz --------------------------------------------------------------------

_NOISE = ["", ";", "#", "# phase: merge", "# phase: bogus", "-1", "+2", "1_0", "٣", "x", "0 1 2"]


def fuzz_text(rng):
    """Network text: mostly well-formed comparators on small widths, some
    with one noise line or bad wire, some with a width past the engine's or
    the diagram's cap, and now and then no header or no text at all."""
    if rng.random() < 0.05:
        return "".join(rng.choice("width 0123456789;#\n -") for _ in range(rng.randint(0, 30)))
    small = rng.randint(1, 6) if rng.random() < 0.5 else rng.randint(1, 14)
    width = rng.choices([small, 0, 27, 70, 10**12], [12, 1, 1, 1, 1])[0]
    span = max(1, min(width, 16))
    lines = []
    for _ in range(rng.randint(0, 4 * span)):
        a, b = sorted(rng.sample(range(span), 2)) if span > 1 else (0, 1)
        lines.append(f"{a} {b}")
    if rng.random() < 0.4:
        bad = rng.choice(_NOISE + [f"{rng.randint(-1, span + 1)} {rng.randint(-1, span + 1)}"])
        lines.insert(rng.randint(0, len(lines)), bad)
    if rng.random() > 0.03:
        lines.insert(0, f"width {width}")
    return "\n".join(lines) + rng.choice(["", "\n"])


def fuzz_restrict(rng):
    choice = rng.choice(["M", "layer1", "layer3", "list", "junk"])
    if choice == "list":
        return ",".join(str(rng.randint(-2, 17)) for _ in range(rng.randint(1, 4)))
    if choice == "junk":
        return rng.choice(["", ",", "1,,2", "+3", "٣", "1_0", "m", "1 2"])
    return choice


def fuzz_argvs(rng):
    poset = ["poset", "-"]
    if rng.random() < 0.5:
        poset.append(f"--prefix={rng.randint(-2, 40)}")
    if rng.random() < 0.5:
        poset.append(f"--restrict={fuzz_restrict(rng)}")
    return [
        ["verify", "-"],
        ["stats", "-"],
        poset,
        ["diagram", "-"],
        ["diagram", "-", "--format", "svg", "--flip", "--color"],
    ]


def in_limited_child(check, headroom=512 << 20):
    """Run ``check()`` in a forked child whose address space may grow by
    ``headroom`` bytes, and fail with the child's traceback or exit status.

    An allocation past the limit raises MemoryError in the child, where an
    unbounded one would exhaust the machine and kill the whole test run.
    """
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status, report = 1, b""
        try:
            os.close(read_end)
            size = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            resource.setrlimit(resource.RLIMIT_AS, (size + headroom, hard))
            check()
            status = 0
        except BaseException:
            report = traceback.format_exc().encode()
        finally:
            try:
                with os.fdopen(write_end, "wb") as pipe:
                    pipe.write(report)
            finally:
                os._exit(status)  # never return into pytest
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        report = pipe.read().decode()
    _, wait_status = os.waitpid(pid, 0)
    if wait_status:
        pytest.fail(report or f"child ended with wait status {wait_status}", pytrace=False)


def test_cli_fuzz_ends_in_a_verdict_or_a_clean_exit_2(capsys, monkeypatch):
    def cases():
        rng = random.Random(0xF022)
        for _ in range(300):
            text = fuzz_text(rng)
            for argv in fuzz_argvs(rng):
                monkeypatch.setattr("sys.stdin", io.StringIO(text))
                code, out, err = run(capsys, *argv)
                case = (argv, text)
                assert code in (0, 1, 2), case
                if code == 1:
                    assert argv[0] == "verify", case
                    assert out.startswith("counterexample: "), case
                if code == 2:
                    assert out == "" and err, case
                    assert "out of memory" not in err, case
                if argv[0] == "verify" and code == 0:
                    assert out == "sorts\n", case

    in_limited_child(cases)
