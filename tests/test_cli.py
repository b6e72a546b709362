import io

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
from sortnet16.cli import main


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

    monkeypatch.setattr("sortnet16.cli.asap_schedule", exhausted)
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
    monkeypatch.setattr("sortnet16.cli.asap_schedule", exhausted)
    code, out, err = run(capsys, "stats", "-")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"
