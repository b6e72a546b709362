#!/usr/bin/env python3
"""sortnet16 benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 bench/run.py --workload cli_claims --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from a checkout of the repository; the package is imported from
``src`` (it need not be installed) and the CLI runs as
``python -m sortnet16``.  Load is a closed loop with one client: the next
op starts when the previous one has finished and been checked.  Every op
is checked (``workloads.py``); any failure makes the command exit 1.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of ``manifest.py``,
measured by alternating untraced and traced passes.  Lines before it,
starting with ``#``, give the environment, sample counts and, for a
traced run, each layer's self time and share of the traced pass.
``--out FILE`` appends the whole result, spans included, as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import manifest
import workloads

ROOT = workloads.ROOT
SETUP_PROBES = 7
FLOOR_PROBES = 5
CENSUS_PASSES = 3


def percentile(values, p: int) -> float:
    """The p-th percentile by ``statistics.quantiles`` (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[p - 1]


def beyond(values, threshold: float) -> int:
    """How many samples lie above a percentile; ten or more make it a
    measured figure rather than a few outliers."""
    return sum(v > threshold for v in values)


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)  # seconds per op
    failures: list = field(default_factory=list)
    tracer: object = None

    @property
    def seconds(self) -> float:
        return sum(self.latencies)


def run_pass(ops, tracer=None) -> PassResult:
    result = PassResult(tracer=tracer)
    for op_id, op in enumerate(ops):
        span = None
        if tracer is not None:
            tracer.op = op_id
            span = tracer.open("op")
        start = time.perf_counter()
        try:
            value = op.run(tracer)
        except Exception as exc:  # a raising op is checked like any result
            value = exc
        result.latencies.append(time.perf_counter() - start)
        if span is not None:
            tracer.close(span)
            tracer.op = None
        problem = op.check(value)
        if problem:
            result.failures.append(f"{op.name}: {problem}")
    return result


def run_process(argv, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, **kwargs)


def probe_setup(workload: str, seed: int) -> float:
    """Fresh process until the first timed op is ready, seconds."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--probe"]
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {err.strip()[-300:]}")
    return ready


def measure_floors() -> dict:
    """Per-process costs: a bare interpreter, and ``import sortnet16``
    (numpy included) as ``-X importtime`` reports it."""
    interp, imports = [], {"sortnet16": [], "numpy": []}
    for _ in range(FLOOR_PROBES):
        start = time.perf_counter()
        run_process([sys.executable, "-c", "pass"])
        interp.append(time.perf_counter() - start)
        proc = run_process([sys.executable, "-X", "importtime", "-c", "import sortnet16"],
                           env=workloads.child_env())
        if proc.returncode != 0:
            raise RuntimeError(f"import sortnet16 failed: {proc.stderr[-300:]}")
        cumulative = {}
        for line in proc.stderr.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, cum, name = line.split("|")
                if cum.strip().isdigit():
                    cumulative[name.strip()] = int(cum) / 1e3
        for name in imports:
            imports[name].append(cumulative.get(name, 0.0))
    return {
        "process.interpreter_ms": statistics.median(interp) * 1e3,
        "import.sortnet16_ms": statistics.median(imports["sortnet16"]),
        "import.numpy_ms": statistics.median(imports["numpy"]),
    }


def environment(workload: str, seed: int) -> dict:
    import numpy
    import sortnet16

    backend = sortnet16.backend_name()
    if os.environ.get("SORTNET16_PURE"):
        why = "SORTNET16_PURE set"
    elif backend == "compiled":
        why = "_kernels importable"
    else:
        try:
            import sortnet16._kernels  # noqa: F401
            why = "_kernels importable but not selected"
        except ImportError as exc:
            why = f"_kernels not importable: {exc}"
    commit = None
    if (ROOT / ".git").exists():
        proc = run_process(["git", "rev-parse", "HEAD"])
        commit = proc.stdout.strip() or None
    return {
        "backend": backend,
        "backend_why": why,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "widths": workloads.WORKLOAD_WIDTHS[workload],
    }


def peak_rss_mb(workload: str) -> float:
    """The benchmarked process: this one, or for cli_claims its children."""
    who = resource.RUSAGE_SELF if workload in workloads.IN_PROCESS else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024


def measure(workload: str, seed: int, seconds: float, probes: int = SETUP_PROBES) -> dict:
    ops = workloads.WORKLOAD_OPS[workload](seed)
    setup, passes = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # Probes are spread over the run, between passes, because the
        # machine's speed drifts over minutes and one burst would see
        # only one state of it.
        while len(setup) < probes and time.perf_counter() - start >= len(setup) * seconds / probes:
            setup.append(probe_setup(workload, seed))
        passes.append(run_pass(ops))
    while len(setup) < probes:
        setup.append(probe_setup(workload, seed))
    lat = [t for p in passes for t in p.latencies]
    p50, p90 = percentile(lat, 50), percentile(lat, 90)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": statistics.median(p.seconds for p in passes),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb(workload),
    }
    failures = [f for p in passes for f in p.failures]
    notes = [
        f"passes={len(passes)} ops/pass={len(ops)} op samples={len(lat)} "
        f"beyond p50={beyond(lat, p50)} beyond p90={beyond(lat, p90)} setup probes={probes}",
        f"failed_ops_ratio={len(failures) / len(lat):.6f}",
    ]
    return {"metrics": metrics, "attempted": len(lat), "failures": failures, "notes": notes}


def _traced_pass(ops, in_process: bool) -> PassResult:
    import spans

    tracer = spans.Tracer()
    restore = spans.install(tracer) if in_process else None
    try:
        return run_pass(ops, tracer)
    finally:
        if restore is not None:
            restore()


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    import spans

    floors = measure_floors()
    ops = workloads.WORKLOAD_OPS[workload](seed)
    in_process = workload in workloads.IN_PROCESS
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        untraced.append(run_pass(ops))
        traced.append(_traced_pass(ops, in_process))
    per_pass = [spans.layer_self_times(p.tracer.spans) for p in traced]
    failures = [f for p in untraced + traced for f in p.failures]
    counts = [dict(p.tracer.counts) for p in traced]
    if any(c != counts[0] for c in counts):
        failures.append(f"trace: counts differ between passes: {counts}")

    # A layer the workload never reaches is timed on the in-process CLI
    # commands instead, so that every per-layer figure is a measurement.
    reached = {name for layers in per_pass for name in layers}
    census_layers = [n for n in manifest.LAYER_SPANS if n not in reached]
    census = []
    if census_layers:
        census_ops = workloads.census_ops()
        census = [_traced_pass(census_ops, True) for _ in range(CENSUS_PASSES)]
        failures += [f"census {f}" for p in census for f in p.failures]

    census_pass = [spans.layer_self_times(p.tracer.spans) for p in census]

    def median_self(passes, name):
        return statistics.median(layers.get(name, 0.0) for layers in passes)

    shares = {name: median_self(per_pass, name) for name in sorted(reached)}
    rates = []
    for layers, c in zip(per_pass, counts):
        kernel_s = layers.get("verify.first_unsorted", 0.0) + layers.get("verify.leq_masks", 0.0)
        if kernel_s > 0:
            rates.append(c.get("verify.comparator_inputs", 0) / kernel_s)
    traced_s = statistics.median(p.seconds for p in traced)
    untraced_s = statistics.median(p.seconds for p in untraced)
    metrics = dict(floors)
    metrics.update({
        f"{name}_ms": 1e3 * (shares[name] if name in shares else median_self(census_pass, name))
        for name in manifest.LAYER_SPANS
    })
    metrics["verify.comparator_inputs_per_s"] = statistics.median(rates) if rates else 0.0
    metrics["trace.overhead_pct"] = (traced_s / untraced_s - 1) * 100
    for count in manifest.COUNTS:
        metrics[count["name"]] = counts[0].get(count["name"], 0)

    notes = [f"passes untraced={len(untraced)} traced={len(traced)} "
             f"pass_s untraced={untraced_s:.4f} traced={traced_s:.4f}"]
    notes += [f"{'layer':34s} {'self ms/pass':>13s} {'share':>7s}"]
    for name, secs in sorted(shares.items(), key=lambda kv: -kv[1]):
        notes.append(f"{name:34s} {secs * 1e3:13.3f} {100 * secs / traced_s:6.2f}%")
    if census_layers:
        notes.append("not reached, timed on the in-process CLI commands: " + " ".join(census_layers))
    attempted = sum(len(p.latencies) for p in untraced + traced + census)
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "notes": notes,
        "shares_s": shares,
        "census_layers": census_layers,
        "spans": [p.tracer.dump() for p in traced],
    }


def smoke(seed: int) -> int:
    """Each workload once, untraced and traced, with every check."""
    failed = 0
    for w in manifest.WORKLOADS:
        for trace in (0, 1):
            result = (measure_traced(w["name"], seed, 0) if trace
                      else measure(w["name"], seed, 0, probes=1))
            for failure in result["failures"]:
                print(f"FAIL {w['name']}: {failure}")
            failed += len(result["failures"])
            print(f"smoke {w['name']} trace={trace}: {result['attempted']} ops, "
                  f"{len(result['failures'])} failed", flush=True)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in manifest.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as a JSON line")
    parser.add_argument("--smoke", action="store_true", help="each workload once, all checks")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "sortnet16" / "__init__.py").is_file():
        print(f"error: no sortnet16 sources under {workloads.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(workloads.SRC))
    if args.smoke:
        return smoke(args.seed)
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        workloads.WORKLOAD_OPS[args.workload](args.seed)
        print("ready", flush=True)
        return 0

    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(args.workload, args.seed, args.seconds)
    names = manifest.PER_LAYER if args.trace else manifest.END_TO_END
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in names}
    env = environment(args.workload, args.seed)
    print("# env " + json.dumps(env))
    for note in result["notes"]:
        print("# " + note)
    for failure in result["failures"]:
        print("# FAIL " + failure)
    if args.out:
        row = {"workload": args.workload, "trace": args.trace, "env": env, **result,
               "metrics": metrics}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
    failed = len(result["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
