"""Text serialization, Knuth-style diagrams, and DOT output.

The text format is the interchange format of the CLI:

    width 16
    # phase:approx
    0 1
    2 3
    ;

One comparator per line as "<low> <high>", an optional header comment
carrying the phase tag of the following comparators ("# phase:none"
clears it), and optional ";" lines separating layers.  Parsing the
default rendering reproduces the network exactly.
"""

from __future__ import annotations

from .network import Comparator, Network, Phase, asap_schedule
from .verify import DegenerateOrderError, Poset


class TextFormatError(ValueError):
    """Malformed network text; the message carries the offending line."""


def render_text(net: Network, *, layered: bool = False) -> str:
    """Serialize a network.

    With ``layered=True`` comparators are grouped into ASAP layers
    separated by ";" lines; within a layer the original order is kept.
    Grouping only ever reorders comparators that share no wires, so the
    layered form is functionally identical, though not order-identical.
    """
    if layered:
        sched = asap_schedule(net)
        order = sorted(range(len(net)), key=lambda i: (sched.layers[i], i))
        groups: list[list[Comparator]] = []
        prev = None
        for i in order:
            if sched.layers[i] != prev:
                groups.append([])
                prev = sched.layers[i]
            groups[-1].append(net.comparators[i])
    else:
        groups = [list(net.comparators)] if net.comparators else []

    lines = [f"width {net.width}"]
    tag: Phase | None = None
    for gi, group in enumerate(groups):
        if layered and gi > 0:
            lines.append(";")
        for c in group:
            if c.tag != tag:
                lines.append(f"# phase:{c.tag.value if c.tag else 'none'}")
                tag = c.tag
            lines.append(f"{c.low} {c.high}")
    return "\n".join(lines) + "\n"


def parse_text(text: str) -> Network:
    """Parse the network text format; inverse of ``render_text``."""
    width: int | None = None
    comps: list[Comparator] = []
    groups: list[list[Comparator]] = [[]]
    tag: Phase | None = None
    saw_separator = False

    def fail(lineno: int, message: str):
        raise TextFormatError(f"line {lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("phase:"):
                name = body[len("phase:") :].strip()
                if name == "none":
                    tag = None
                else:
                    try:
                        tag = Phase(name)
                    except ValueError:
                        fail(lineno, f"unknown phase tag {name!r}")
            continue
        if line == ";":
            if width is None:
                fail(lineno, "separator before width header")
            if not groups[-1]:
                fail(lineno, "empty layer group")
            saw_separator = True
            groups.append([])
            continue
        fields = line.split()
        if fields[0] == "width":
            if width is not None:
                fail(lineno, "duplicate width header")
            if len(fields) != 2 or not fields[1].isdigit() or int(fields[1]) < 1:
                fail(lineno, "width header must read 'width <positive int>'")
            width = int(fields[1])
            continue
        if width is None:
            fail(lineno, "comparator before width header")
        if len(fields) != 2:
            fail(lineno, f"expected '<low> <high>', got {line!r}")
        try:
            low, high = int(fields[0]), int(fields[1])
        except ValueError:
            fail(lineno, f"non-integer wire in {line!r}")
        if not 0 <= low < high:
            fail(lineno, f"comparator ({low}, {high}) needs 0 <= low < high")
        if high >= width:
            fail(lineno, f"wire {high} out of range for width {width}")
        comp = Comparator(low, high, tag)
        comps.append(comp)
        groups[-1].append(comp)

    if width is None:
        raise TextFormatError("missing width header")
    if saw_separator:
        if not groups[-1]:
            raise TextFormatError("trailing empty layer group")
        for group in groups:
            used: set[int] = set()
            for c in group:
                if c.low in used or c.high in used:
                    raise TextFormatError(
                        f"layer group reuses wire in comparator ({c.low}, {c.high})"
                    )
                used.update((c.low, c.high))
    return Network(width, tuple(comps))


# ---------------------------------------------------------------------------
# Diagrams

_MAX_DIAGRAM_WIDTH = 64

# Block labels as printed next to the classic diagrams.
_BLOCK_LABELS = {
    Phase.LAYER1: "1",
    Phase.LAYER3: "2",
    Phase.TETRAD_A: "3",
    Phase.TETRAD_B: "4",
    Phase.MERGE: "5",
}

_PHASE_COLORS = {
    Phase.APPROX: "#888888",
    Phase.LAYER1: "#1f77b4",
    Phase.LAYER3: "#2ca02c",
    Phase.PAIRS: "#d62728",
    Phase.PAIRS2: "#9467bd",
    Phase.TETRAD_A: "#ff7f0e",
    Phase.TETRAD_B: "#8c564b",
    Phase.MERGE: "#e377c2",
    Phase.FINAL: "#17becf",
}


def _layout(net: Network):
    """Per-comparator (layer, sub-column) plus sub-column counts per layer.

    Bridges of one layer that overlap as wire ranges get distinct
    sub-columns, filled left to right by low wire index.
    """
    sched = asap_schedule(net)
    by_layer: dict[int, list[Comparator]] = {}
    for layer, comp in zip(sched.layers, net.comparators):
        by_layer.setdefault(layer, []).append(comp)
    placed: dict[tuple[int, int, int], int] = {}
    subcols: dict[int, int] = {}
    for layer in sorted(by_layer):
        ranges: list[list[tuple[int, int]]] = []
        for comp in sorted(by_layer[layer], key=lambda c: (c.low, c.high)):
            slot = 0
            while slot < len(ranges) and any(
                comp.low <= hi and lo <= comp.high for lo, hi in ranges[slot]
            ):
                slot += 1
            if slot == len(ranges):
                ranges.append([])
            ranges[slot].append((comp.low, comp.high))
            placed[(layer, comp.low, comp.high)] = slot
        subcols[layer] = len(ranges)
    return sched, placed, subcols


def _separator_layer(net: Network, sched) -> int | None:
    """Last layer of the approximate phase, if the network is tagged."""
    layers = [
        layer
        for layer, comp in zip(sched.layers, net.comparators)
        if comp.tag is Phase.APPROX
    ]
    return max(layers) if layers else None


def render_diagram(
    net: Network,
    fmt: str = "ascii",
    *,
    flip: bool = False,
    color: bool = False,
    labels: bool = True,
) -> str:
    """Knuth-style diagram; wire 0 at the bottom unless ``flip=True``.

    svg only: ``color`` (per-phase bridge colors) and ``labels`` (block
    labels next to the tagged blocks); ascii ignores both.
    """
    if net.width > _MAX_DIAGRAM_WIDTH:
        raise ValueError(f"diagram rendering caps at width {_MAX_DIAGRAM_WIDTH}")
    if fmt == "ascii":
        return _render_ascii(net, flip=flip)
    if fmt == "svg":
        return _render_svg(net, flip=flip, color=color, labels=labels)
    raise ValueError(f"unknown diagram format {fmt!r}")


_MARGIN = 3
_LAYER_GAP = 3


def _column_positions(subcols: dict[int, int], sep_layer: int | None):
    """x position of (layer, slot) columns plus the separator position."""
    xs: dict[tuple[int, int], int] = {}
    x = _MARGIN
    sep_x = None
    for layer in sorted(subcols):
        if sep_layer is not None and layer == sep_layer + 1:
            sep_x = x
            x += 2
        for slot in range(subcols[layer]):
            xs[(layer, slot)] = x
            x += 2
        x += _LAYER_GAP - 1
    if sep_layer is not None and sep_x is None and subcols:
        # separator after the final layer
        sep_x = x
        x += 2
    return xs, sep_x, x + _MARGIN


def _render_ascii(net: Network, flip: bool) -> str:
    sched, placed, subcols = _layout(net)
    sep_layer = _separator_layer(net, sched)
    xs, sep_x, total = _column_positions(subcols, sep_layer)
    rows = [["-"] * total for _ in range(net.width)]

    def row(wire: int) -> int:
        return wire if flip else net.width - 1 - wire

    for layer, comp in zip(sched.layers, net.comparators):
        x = xs[(layer, placed[(layer, comp.low, comp.high)])]
        for w in range(comp.low, comp.high + 1):
            rows[row(w)][x] = "+"
        rows[row(comp.low)][x] = "o"
        rows[row(comp.high)][x] = "o"
    if sep_x is not None:
        for r in rows:
            r[sep_x] = "|"
    return "\n".join("".join(r) for r in rows) + "\n"


def _render_svg(net: Network, flip: bool, color: bool, labels: bool) -> str:
    sched, placed, subcols = _layout(net)
    sep_layer = _separator_layer(net, sched)
    xs, sep_x, total = _column_positions(subcols, sep_layer)
    unit, dy, margin_y = 12, 22, 30
    width_px = total * unit
    height_px = 2 * margin_y + (net.width - 1) * dy

    def y(wire: int) -> int:
        pos = wire if flip else net.width - 1 - wire
        return margin_y + pos * dy

    def x_px(col: int) -> int:
        return col * unit

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height_px}" '
        f'viewBox="0 0 {width_px} {height_px}">'
    ]
    for w in range(net.width):
        out.append(
            f'<line class="wire" x1="0" y1="{y(w)}" x2="{width_px}" y2="{y(w)}" '
            f'stroke="black" stroke-width="1"/>'
        )
    label_cols: dict[Phase, list[int]] = {}
    for layer, comp in zip(sched.layers, net.comparators):
        x = x_px(xs[(layer, placed[(layer, comp.low, comp.high)])])
        phase = comp.tag.value if comp.tag else ""
        stroke = (
            _PHASE_COLORS.get(comp.tag, "black") if color and comp.tag else "black"
        )
        out.append(
            f'<line class="bridge" data-layer="{layer}" data-phase="{phase}" '
            f'x1="{x}" y1="{y(comp.low)}" x2="{x}" y2="{y(comp.high)}" '
            f'stroke="{stroke}" stroke-width="2"/>'
        )
        for wire in (comp.low, comp.high):
            out.append(
                f'<circle class="endpoint" cx="{x}" cy="{y(wire)}" r="3" '
                f'fill="{stroke}"/>'
            )
        if comp.tag in _BLOCK_LABELS:
            label_cols.setdefault(comp.tag, []).append(x)
    if sep_x is not None:
        x = x_px(sep_x)
        out.append(
            f'<line class="phase-sep" x1="{x}" y1="{margin_y // 2}" '
            f'x2="{x}" y2="{height_px - margin_y // 2}" '
            f'stroke="black" stroke-width="1" stroke-dasharray="4 3"/>'
        )
    if labels:
        for tag in _BLOCK_LABELS:
            if tag in label_cols:
                cols = label_cols[tag]
                cx = sum(cols) // len(cols)
                out.append(
                    f'<text class="block-label" x="{cx}" y="{margin_y - 12}" '
                    f'text-anchor="middle" font-size="12">{_BLOCK_LABELS[tag]}</text>'
                )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def render_poset_dot(poset: Poset, *, restrict=None) -> str:
    """DOT digraph of the Hasse diagram (cover pairs), nodes labeled with
    1-based line numbers so diagrams read like the classic pictures."""
    elems = sorted(restrict) if restrict is not None else list(range(poset.width))
    for a in elems:
        for b in elems:
            if a != b and poset.leq(a, b) and poset.leq(b, a):
                raise DegenerateOrderError(
                    f"wires {a} and {b} are equal in the relation"
                )
    lines = ["digraph poset {", "  rankdir=BT;"]
    for w in elems:
        lines.append(f'  n{w} [label="{w + 1}"];')
    for a, b in poset.covers(elems):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
