"""In-memory spans recorded around calls into sortnet16's public functions.

The benchmark does not change the package: ``install`` swaps each public
function it times for a wrapper, in every ``sortnet16`` module namespace
and module-level table that refers to it, and the returned callable puts
the originals back.  A wrapper records a span only while an op is open,
so untraced code and the harness's own correctness checks cost nothing.

Each span carries a name, start and end (``time.perf_counter``, which on
Linux is the system-wide monotonic clock, so spans from child processes
line up with the parent's), its parent span and the op it belongs to.
A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


class Tracer:
    """Spans and counts for one process; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def add(self, name, start, end, parent) -> int:
        span = Span(len(self.spans), name, start, end, parent, self.op)
        self.spans.append(span)
        return span.id

    def top(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def open(self, name) -> Span:
        span = self.spans[self.add(name, time.perf_counter(), float("nan"), self.top())]
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def adopt(self, rows, parent: int) -> None:
        """Graft spans serialised by ``dump`` in another process under
        ``parent``, renumbering them and moving them into the current op."""
        base = len(self.spans)
        for sid, name, start, end, sparent, _op in rows:
            self.spans.append(
                Span(base + sid, name, start, end,
                     parent if sparent is None else base + sparent, self.op)
            )

    def dump(self) -> list:
        return [astuple(s) for s in self.spans]


def self_times(spans) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children,
    each clipped to the parent's interval (children may overlap, as the
    two processes of a pipeline do)."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Total self time (seconds) per span name."""
    totals: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        totals[s.name] += selfs[s.id]
    return dict(totals)


def _observation_span(args, kwargs) -> str:
    from sortnet16 import analysis

    mode = kwargs.get("mode", analysis.EXHAUSTIVE)
    return "analysis.observations_" + ("sampled" if mode == analysis.SAMPLED else "exhaustive")


def _count_kernel(counts, args, result):
    width, lows = args[0], args[1]
    inputs = 1 << width
    counts["verify.calls"] += 1
    counts["verify.inputs_covered"] += inputs
    counts["verify.slice_bytes"] += width * inputs // 8
    counts["verify.comparator_inputs"] += len(lows) * inputs


def _count_comparators(counts, args, result):
    counts["network.comparators"] += len(args[0].comparators)


def _targets():
    """(function, span name or namer, count hook) for every timed call."""
    from sortnet16 import analysis, circuits, cli, constructions, network, render, verify

    kernels = verify._backend
    build = [
        constructions.green16,
        constructions.van_voorhis16,
        constructions.green16_naive_merge,
        constructions.hypercube_phase,
        constructions.batcher_sorter,
        constructions.strategy_sorter,
        constructions.sorter4,
    ]
    return [(f, "constructions.build", None) for f in build] + [
        (cli.main, "cli.main", None),
        (network.asap_schedule, "network.asap_schedule", None),
        (render.parse_text, "render.parse_text", None),
        (render.render_text, "render.render_text", None),
        (render.render_diagram, "render.diagram", None),
        (render.render_poset_dot, "render.poset_dot", None),
        (kernels.first_unsorted, "verify.first_unsorted", _count_kernel),
        (kernels.leq_masks, "verify.leq_masks", _count_kernel),
        (verify.poset_from_rows, "verify.poset_from_rows", None),
        (analysis.check_observations, _observation_span, None),
        (analysis.check_green_m_poset, "analysis.m_poset", None),
        (analysis.check_vv_m_poset, "analysis.m_poset", None),
        (analysis.check_strategy_completeness, "analysis.strategy", None),
        (analysis.check_cube_poset, "analysis.cube_poset", None),
        (analysis.check_depth_regression, "analysis.depth_regression", None),
        (circuits.majority_circuit, "circuits.majority_circuit", None),
        (circuits.specialize, "circuits.specialize", None),
        (circuits.is_threshold, "circuits.is_threshold", None),
        (circuits.cone_depth, "circuits.cone_depth", None),
    ], [
        (network.Network, "__post_init__", "network.validate", _count_comparators),
        (verify.Poset, "covers", "verify.covers", None),
    ]


def _wrap(fn, name, count, tracer):
    namer = name if callable(name) else (lambda args, kwargs: name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.op is None:
            return fn(*args, **kwargs)
        span = tracer.open(namer(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Route every timed sortnet16 call through ``tracer``; returns a
    callable that restores the original functions."""
    functions, methods = _targets()
    wrappers = {id(fn): (fn, _wrap(fn, name, count, tracer)) for fn, name, count in functions}
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "sortnet16" and not modname.startswith("sortnet16."):
            continue
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                undo.append((setattr, mod, attr, value))
                setattr(mod, attr, wrappers[id(value)][1])
            elif isinstance(value, dict):  # dispatch tables such as cli._CHECKS
                for key, item in list(value.items()):
                    if id(item) in wrappers:
                        undo.append((dict.__setitem__, value, key, item))
                        value[key] = wrappers[id(item)][1]
    for cls, attr, name, count in methods:
        original = cls.__dict__[attr]
        undo.append((setattr, cls, attr, original))
        setattr(cls, attr, _wrap(original, name, count, tracer))

    def restore():
        for put, target, key, original in reversed(undo):
            put(target, key, original)

    return restore
