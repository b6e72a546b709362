"""What the benchmark measures: workloads, metrics and bounds.

This module is the single source of ``BENCHMARK.json`` at the repository
root; regenerate it after editing the tables here:

    python3 bench/manifest.py

The run harness reads the same tables, so the metric names it prints and
the names in ``BENCHMARK.json`` cannot drift apart.  The predictions of
which end-to-end metric each layer should move are in ``README.md``.
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST_PATH = ROOT / "BENCHMARK.json"

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 30

WORKLOADS = [
    {
        "name": "cli_claims",
        "why": "re-proves the paper from the shell, one fresh process per command: "
        "interpreter start plus import dominate, the kernel is a few percent",
    },
    {
        "name": "library_claims",
        "why": "imports once and repeats the acceptance-suite calls: bit-slice kernel "
        "and numpy claim masks dominate, import shows only in setup_s",
    },
    {
        "name": "wide_sweep",
        "why": "verify and poset at widths 18 and 20 on a generated sorter and seeded "
        "random non-sorters: the kernel does nearly all the work",
    },
]

# bound: the share of the parent's median by which the metric may worsen.
# Timings are bounded at 0.25 because the machine's speed drifts by 10-20%
# over minutes (a fixed CPU loop varies that much), which no run length
# averages out; see README.md for the measured spreads.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# Span name -> per-layer metric ``<span name>_ms``: self time per pass.
LAYER_SPANS = [
    "cli.main",
    "constructions.build",
    "network.validate",
    "network.asap_schedule",
    "render.parse_text",
    "render.render_text",
    "render.diagram",
    "render.poset_dot",
    "verify.first_unsorted",
    "verify.leq_masks",
    "verify.poset_from_rows",
    "verify.covers",
    "analysis.observations_exhaustive",
    "analysis.observations_sampled",
    "analysis.m_poset",
    "analysis.strategy",
    "circuits.majority_circuit",
    "circuits.specialize",
    "circuits.is_threshold",
    "circuits.cone_depth",
]

# Counts that must repeat exactly from pass to pass.
COUNTS = [
    {"name": "verify.calls", "unit": "count", "better": "lower"},
    {"name": "verify.inputs_covered", "unit": "count", "better": "lower"},
    # width * 2**width / 8 per kernel call: computed, not measured traffic.
    {"name": "verify.slice_bytes", "unit": "bytes_computed", "better": "lower"},
    {"name": "network.comparators", "unit": "count", "better": "lower"},
]

PER_LAYER = (
    [
        {"name": "process.interpreter_ms", "unit": "ms", "better": "lower"},
        {"name": "import.sortnet16_ms", "unit": "ms", "better": "lower"},
        {"name": "import.numpy_ms", "unit": "ms", "better": "lower"},
    ]
    + [{"name": f"{span}_ms", "unit": "ms", "better": "lower"} for span in LAYER_SPANS]
    + [
        {"name": "verify.comparator_inputs_per_s", "unit": "1/s", "better": "higher"},
        {"name": "trace.overhead_pct", "unit": "%", "better": "lower"},
    ]
    + COUNTS
)


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(manifest(), indent=2) + "\n"


if __name__ == "__main__":
    MANIFEST_PATH.write_text(render(), encoding="utf-8")
