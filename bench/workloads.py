"""The benchmark's workloads: op lists, generated inputs, correctness checks.

An op is one timed call (``run``) and the check of its result (``check``,
which returns ``None`` or a failure message).  Checks run outside the
timed region.  The program receives only inputs generated here: built-in
network names, network text captured in ``reference/``, and networks the
benchmark constructs from the workload seed.

Module level imports stay in the standard library so that ``cli_claims``
set-up does not pay for the package or numpy.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference"
CHILD = BENCH / "cli_child.py"
SPAN_MARKER = "SPANS "
CHILD_TIMEOUT_S = 120

WIDE_WIDTHS = (18, 20)
# Random non-sorting networks per wide width; 12 * width comparators each.
WIDE_RANDOM = {18: 3, 20: 1}
SAMPLED_PERMUTATIONS = 10_000


@dataclass
class Op:
    name: str
    run: Callable[[Any], Any]  # run(tracer); tracer is None when untraced
    check: Callable[[Any], str | None]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --------------------------------------------------------------------------
# cli_claims: one fresh `python -m sortnet16` process per command


@dataclass(frozen=True)
class CliCommand:
    name: str
    argvs: tuple  # one argv per process; two make a `a | b` pipeline
    stdin: str | None  # file under reference/ fed to the first process
    codes: tuple  # expected exit code per process


def _check_cmd(name):
    return CliCommand(f"checks_{name}", (("checks", name),), None, (0,))


CLI_COMMANDS = [
    CliCommand("verify_green16", (("build", "green16"), ("verify", "-")), None, (0, 0)),
    CliCommand("verify_vanvoorhis16", (("build", "vanvoorhis16"), ("verify", "-")), None, (0, 0)),
    CliCommand("verify_hypercube4", (("build", "hypercube", "4"), ("verify", "-")), None, (0, 1)),
    CliCommand("stats", (("stats", "-"),), "green16.txt", (0,)),
    CliCommand(
        "poset_prefix55_M",
        (("poset", "-", "--prefix", "55", "--restrict", "M"),),
        "green16.txt",
        (0,),
    ),
    CliCommand("diagram_svg", (("diagram", "-", "--format", "svg", "--color"),), "green16.txt", (0,)),
    CliCommand("observations", (("observations",),), None, (0,)),
    _check_cmd("green-m"),
    _check_cmd("vv-m"),
    _check_cmd("strategy"),
    _check_cmd("depth-regression"),
    CliCommand("majority16", (("majority", "16"),), None, (0,)),
    CliCommand("majority15", (("majority", "15"),), None, (0,)),
]


@dataclass
class CliResult:
    codes: tuple
    stdout: str
    stderr: str


def _reference(name: str) -> str:
    return (REFERENCE / name).read_text(encoding="utf-8")


def _unsorted(values) -> bool:
    return any(a > b for a, b in zip(values, values[1:]))


def _check_witness(stdout: str) -> str | None:
    """Re-check the counterexample and witness that `verify` printed for
    hypercube(4) by running them through ``Network.apply``."""
    import sortnet16 as sn

    fields = dict(line.split(": ", 1) for line in stdout.splitlines())
    bits = [int(x) for x in fields["counterexample"].split()]
    perm = [int(x) for x in fields["witness permutation"].split()]
    net = sn.hypercube_phase(4)
    if not _unsorted(net.apply(bits)):
        return "counterexample is sorted by the network"
    if sorted(perm) != list(range(16)) or not _unsorted(net.apply(perm)):
        return "witness is not a mis-sorted permutation"
    return None


def _check_majority(stdout: str) -> str | None:
    lines = stdout.splitlines()
    depth = int(lines[-2].removeprefix("cone depth: "))
    if not lines[-1].endswith(": verified") or depth > 9:
        return f"majority circuit not verified at depth <= 9: {lines[-2:]}"
    return None


_EXTRA_CHECKS = {
    "verify_hypercube4": _check_witness,
    "majority16": _check_majority,
    "majority15": _check_majority,
}


def _cli_check(cmd: CliCommand, expected: str):
    extra = _EXTRA_CHECKS.get(cmd.name)

    def check(result):
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        if result.codes != cmd.codes:
            return f"exit codes {result.codes}, expected {cmd.codes}: {result.stderr[-300:]}"
        if result.stdout != expected:
            return "stdout differs from bench/reference/" + cmd.name + ".out"
        return extra(result.stdout) if extra else None

    return check


def _split_spans(stderr: str):
    lines = stderr.splitlines()
    if lines and lines[-1].startswith(SPAN_MARKER):
        return "\n".join(lines[:-1]), json.loads(lines[-1][len(SPAN_MARKER):])
    return stderr, None


def run_processes(argvs, stdin: str | None, tracer=None) -> CliResult:
    """Run one command or a two-stage pipeline and wait for every process.

    Untraced processes run ``python -m sortnet16``; traced ones run
    ``cli_child.py``, whose spans are grafted under a "process" span.
    """
    if stdin is not None and len(argvs) > 1:
        raise ValueError("only a single command reads stdin text")
    prefix = [sys.executable, str(CHILD)] if tracer else [sys.executable, "-m", "sortnet16"]
    env = child_env()
    procs, starts, ends = [], [], []
    try:
        for argv in argvs:
            if procs:
                upstream = procs[-1].stdout
            else:
                upstream = subprocess.DEVNULL if stdin is None else subprocess.PIPE
            starts.append(time.perf_counter())
            procs.append(
                subprocess.Popen(
                    prefix + list(argv), cwd=ROOT, env=env, text=True,
                    stdin=upstream, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                )
            )
            if len(procs) > 1:
                procs[-2].stdout.close()  # the downstream process owns it now
        # Reap upstream first so each process span ends when it exits; the
        # commands' outputs are far below a pipe buffer, so this cannot block.
        for p in procs[:-1]:
            p.wait(timeout=CHILD_TIMEOUT_S)
            ends.append(time.perf_counter())
        out, last_err = procs[-1].communicate(stdin, timeout=CHILD_TIMEOUT_S)
        ends.append(time.perf_counter())
        errs = [p.stderr.read() for p in procs[:-1]] + [last_err]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
            for stream in (p.stdin, p.stdout, p.stderr):
                if stream is not None and not stream.closed:
                    stream.close()
    texts = []
    for start, end, err in zip(starts, ends, errs):
        text, payload = _split_spans(err)
        texts.append(text)
        if tracer is not None and payload is not None:
            tracer.adopt(payload["spans"], tracer.add("process", start, end, tracer.top()))
            tracer.counts.update(payload["counts"])
    return CliResult(tuple(p.returncode for p in procs), out, "\n".join(texts))


def run_in_process(argvs, stdin: str | None) -> CliResult:
    """The same command through ``sortnet16.cli.main`` in this process,
    with captured stdio; a pipeline feeds each stage's stdout onward."""
    from sortnet16 import cli

    codes, err = [], io.StringIO()
    text = stdin or ""
    for argv in argvs:
        out = io.StringIO()
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                codes.append(cli.main(list(argv)))
        finally:
            sys.stdin = saved
        text = out.getvalue()
    return CliResult(tuple(codes), text, err.getvalue())


def _cli_ops(runner) -> list[Op]:
    ops = []
    for cmd in CLI_COMMANDS:
        stdin = _reference(cmd.stdin) if cmd.stdin else None
        ops.append(
            Op(
                cmd.name,
                lambda tracer, cmd=cmd, stdin=stdin: runner(cmd.argvs, stdin, tracer),
                _cli_check(cmd, _reference(cmd.name + ".out")),
            )
        )
    return ops


def cli_ops() -> list[Op]:
    return _cli_ops(run_processes)


def census_ops() -> list[Op]:
    """The cli_claims commands in process: they reach every timed layer."""
    return _cli_ops(lambda argvs, stdin, tracer: run_in_process(argvs, stdin))


# --------------------------------------------------------------------------
# Reference evaluation for the library and wide workloads


def oracle(net):
    """(first unsorted input index or -1, leq rows) for ``net``.

    An independent bit-sliced evaluation on numpy uint64 words, so the
    package's engine is never checked against itself.  Needs width >= 6.
    """
    return _oracle(net.width, tuple(net.pairs()))


@functools.lru_cache(maxsize=32)
def _oracle(width: int, pairs: tuple):
    import numpy as np

    words = np.arange(1 << (width - 6), dtype=np.uint64)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    slices = []
    for i in range(width):
        j = width - 1 - i  # bit of the input index that drives wire i
        if j >= 6:
            slices.append(np.where((words >> np.uint64(j - 6)) & np.uint64(1), ones, np.uint64(0)))
        else:
            pattern = sum(1 << b for b in range(64) if (b >> j) & 1)
            slices.append(np.full(words.shape, pattern, dtype=np.uint64))
    for lo, hi in pairs:
        slices[lo], slices[hi] = slices[lo] & slices[hi], slices[lo] | slices[hi]
    bad = np.zeros_like(words)
    for a, b in zip(slices, slices[1:]):
        bad |= a & ~b
    nonzero = np.flatnonzero(bad)
    if len(nonzero):
        word = int(nonzero[0])
        value = int(bad[word])
        first = 64 * word + (value & -value).bit_length() - 1
    else:
        first = -1
    rows = tuple(
        sum(1 << b for b in range(width) if not (slices[a] & ~slices[b]).any())
        for a in range(width)
    )
    return first, rows


def _bits(index: int, width: int) -> tuple:
    return tuple((index >> (width - 1 - i)) & 1 for i in range(width))


def _check_verdict(net, verdict) -> str | None:
    first, _ = oracle(net)
    if first < 0:
        return None if verdict.sorts and verdict.counterexample is None else "sorter reported unsorted"
    if verdict.sorts:
        return "non-sorter reported as sorting"
    if tuple(verdict.counterexample) != _bits(first, net.width):
        return "counterexample is not the least failing input"
    if not _unsorted(net.apply(list(verdict.counterexample))):
        return "counterexample is sorted by Network.apply"
    return None


def _degenerate(rows, width) -> bool:
    return any(
        (rows[a] >> b) & 1 and (rows[b] >> a) & 1
        for a in range(width) for b in range(a + 1, width)
    )


def _check_poset(net, result) -> str | None:
    from sortnet16 import DegenerateOrderError

    _, rows = oracle(net)
    if _degenerate(rows, net.width):
        return None if isinstance(result, DegenerateOrderError) else "expected DegenerateOrderError"
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    return None if result.rows == rows else "poset rows differ from the reference evaluation"


def _cube_rows(n: int) -> tuple:
    width = 1 << n
    return tuple(sum(1 << b for b in range(width) if a & b == a) for a in range(width))


def _closure_matches(poset, covers) -> bool:
    reach = {a: {a} for a in range(poset.width)}
    changed = True
    while changed:
        changed = False
        for a, b in covers:
            new = reach[b] - reach[a]
            if new:
                reach[a] |= new
                changed = True
    closed = {(a, b) for a in reach for b in reach[a]}
    return closed == {
        (a, b) for a in range(poset.width) for b in range(poset.width) if poset.leq(a, b)
    }


def _expect(ok: bool, message: str) -> str | None:
    return None if ok else message


def _guard(check):
    """Report an exception raised by the op instead of checking it."""

    def guarded(result):
        if isinstance(result, Exception):
            return f"{type(result).__name__}: {result}"
        return check(result)

    return guarded


# --------------------------------------------------------------------------
# library_claims: the acceptance-suite call sequence, imported once


def library_ops(seed: int) -> list[Op]:
    import sortnet16 as sn
    from sortnet16.analysis import SAMPLED

    green, vv, cube4 = sn.green16(), sn.van_voorhis16(), sn.hypercube_phase(4)
    batcher16 = sn.batcher_sorter(16)
    green32, green45, vv32 = green.prefix(32), green.prefix(45), vv.prefix(32)

    def build(size, depth):
        return _guard(lambda net: _expect(
            len(net) == size and sn.depth(net) == depth, f"expected size {size}, depth {depth}"
        ))

    def verify_failing(_):
        verdict = sn.verify_sorts_binary(cube4)
        return verdict, sn.counterexample_permutation(cube4, verdict.counterexample)

    def check_failing(result):
        verdict, perm = result
        problem = _check_verdict(cube4, verdict)
        if problem or verdict.sorts:
            return problem or "hypercube(4) reported as sorting"
        return _expect(sorted(perm) == list(range(16)) and _unsorted(cube4.apply(perm)),
                       "witness is not a mis-sorted permutation")

    def poset_covers(_):
        poset = sn.infer_poset(green45)
        return poset, poset.covers()

    def check_covers(result):
        poset, covers = result
        return _check_poset(green45, poset) or _expect(
            _closure_matches(poset, covers), "Hasse closure does not reproduce the order")

    def observations(_):
        return sn.check_observations(), sn.check_observations(
            mode=SAMPLED, samples=SAMPLED_PERMUTATIONS, seed=seed)

    def check_observations(reports):
        exhaustive, sampled = reports
        return _expect(
            exhaustive.all_hold and exhaustive.inputs_checked == 1 << 16
            and sampled.all_hold and sampled.inputs_checked == SAMPLED_PERMUTATIONS
            and sampled.seed == seed,
            f"claims a-d: {exhaustive.to_lines() + sampled.to_lines()}")

    def majority(_):
        results = []
        for n in (16, 15):
            circuit, wire = sn.majority_circuit(n)
            results.append((n, sn.cone_depth(circuit, wire), sn.is_threshold(circuit, wire, 8)))
        return results

    def check_majority(results):
        return _expect(len(results) == 2 and all(d <= 9 and ok for _, d, ok in results),
                       f"majority (n, cone depth, threshold): {results}")

    holds = _guard(lambda ok: _expect(ok is True, "check returned False"))
    return [
        Op("build_green16", lambda _: sn.green16(), build(60, 10)),
        Op("build_van_voorhis16", lambda _: sn.van_voorhis16(), build(61, 9)),
        Op("verify_green16", lambda _: sn.verify_sorts_binary(green),
           _guard(lambda v: _check_verdict(green, v))),
        Op("verify_van_voorhis16", lambda _: sn.verify_sorts_binary(vv),
           _guard(lambda v: _check_verdict(vv, v))),
        Op("verify_hypercube4", verify_failing, _guard(check_failing)),
        Op("verify_batcher16", lambda _: sn.verify_sorts_binary(batcher16),
           _guard(lambda v: _check_verdict(batcher16, v))),
        Op("poset_green_prefix32", lambda _: sn.infer_poset(green32),
           _guard(lambda p: _expect(p.rows == _cube_rows(4), "prefix 32 is not the 4-cube order"))),
        Op("poset_green_prefix45_covers", poset_covers, _guard(check_covers)),
        Op("cube_poset_vv_prefix32", lambda _: sn.check_cube_poset(vv32, 4), holds),
        # Both modes in one op, as acceptance claim c04 and the CLI command do.
        Op("observations_both_modes", observations, _guard(check_observations)),
        Op("green_m_poset", lambda _: sn.check_green_m_poset(), holds),
        Op("vv_m_poset", lambda _: sn.check_vv_m_poset(), holds),
        Op("strategy_completeness",
           lambda _: sn.check_strategy_completeness(sn.batcher_sorter(8)), holds),
        Op("depth_regression", lambda _: sn.check_depth_regression(), holds),
        # Both sizes in one op, as acceptance claim c08 does; apart, the
        # 16-input op would sit at the edge of the 90th percentile.
        Op("majority_16_and_15", majority, _guard(check_majority)),
    ]


# --------------------------------------------------------------------------
# wide_sweep: verify and poset at widths 18 and 20


def oddeven_transposition(width: int) -> list[tuple[int, int]]:
    """``width`` rounds of alternating adjacent comparators: a sorter."""
    return [(i, i + 1) for r in range(width) for i in range(r % 2, width - 1, 2)]


def random_pairs(rng: random.Random, width: int, size: int) -> list[tuple[int, int]]:
    pairs = []
    for _ in range(size):
        a, b = rng.sample(range(width), 2)
        pairs.append((min(a, b), max(a, b)))
    return pairs


def wide_networks(seed: int) -> list[tuple[str, int, list]]:
    """(name, width, comparator pairs): per width one sorter, then seeded
    random networks with 12 * width comparators."""
    rng = random.Random(seed)
    nets = []
    for width in WIDE_WIDTHS:
        nets.append((f"oet{width}", width, oddeven_transposition(width)))
        for k in range(WIDE_RANDOM[width]):
            nets.append((f"random{width}_{k}", width, random_pairs(rng, width, 12 * width)))
    return nets


def wide_ops(seed: int) -> list[Op]:
    """Each op receives comparator pairs, as a caller reading them from a
    file would, so ``Network`` validation is part of the op."""
    import sortnet16 as sn

    ops = []
    for name, width, pairs in wide_networks(seed):
        pairs = tuple(pairs)
        ref = sn.Network(width, pairs)  # for the checks only
        ops.append(Op(f"verify_{name}",
                      lambda _, w=width, p=pairs: sn.verify_sorts_binary(sn.Network(w, p)),
                      _guard(lambda v, net=ref: _check_verdict(net, v))))
        ops.append(Op(f"poset_{name}",
                      lambda _, w=width, p=pairs: sn.infer_poset(sn.Network(w, p)),
                      lambda p, net=ref: _check_poset(net, p)))
    return ops


WORKLOAD_OPS = {
    "cli_claims": lambda seed: cli_ops(),
    "library_claims": library_ops,
    "wide_sweep": wide_ops,
}

# Widths each workload evaluates exhaustively, for the environment record.
WORKLOAD_WIDTHS = {"cli_claims": [16], "library_claims": [16], "wide_sweep": list(WIDE_WIDTHS)}

# Workloads whose ops call the package in this process (traced by install).
IN_PROCESS = {"library_claims", "wide_sweep"}
