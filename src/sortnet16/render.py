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

from typing import TYPE_CHECKING

from .network import Comparator, Network, Phase, asap_schedule

if TYPE_CHECKING:
    from .verify import Poset


class TextFormatError(ValueError):
    """Malformed network text; the message carries the offending line."""


def render_text(net: Network, *, layered: bool = False) -> str:
    """Serialize a network.

    With ``layered=True`` comparators are grouped into ASAP layers
    separated by ";" lines; within a layer the original order is kept.
    Grouping only ever reorders comparators that share no wires, so the
    layered form is functionally identical, though not order-identical.
    """
    layers = asap_schedule(net) if layered else (1,) * len(net)
    lines = [f"width {net.width}"]
    tag: Phase | None = None
    layer = 1
    for i in sorted(range(len(net)), key=layers.__getitem__):
        c = net.comparators[i]
        if layers[i] != layer:
            lines.append(";")
            layer = layers[i]
        if c.tag != tag:
            lines.append(f"# phase:{c.tag.value if c.tag else 'none'}")
            tag = c.tag
        lines.append(f"{c.low} {c.high}")
    return "\n".join(lines) + "\n"


def _decimal(field: str) -> int:
    """ASCII decimal digits as an int: no sign, underscore or other script."""
    if not (field.isascii() and field.isdecimal()):
        raise ValueError(f"not a decimal number: {field!r}")
    return int(field)  # a ValueError too past int()'s digit-count limit


def parse_text(text: str) -> Network:
    """Parse the network text format; inverse of ``render_text``."""
    width: int | None = None
    comps: list[Comparator] = []
    used: set[int] = set()  # wires of the current layer group
    reuse: str | None = None  # the first reuse, an error if the text has a ";"
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
            if not used:
                fail(lineno, "empty layer group")
            saw_separator = True
            used = set()
            continue
        fields = line.split()
        if fields[0] == "width":
            if width is not None:
                fail(lineno, "duplicate width header")
            malformed = "width header must read 'width <positive int>'"
            if len(fields) != 2:
                fail(lineno, malformed)
            try:
                width = _decimal(fields[1])
            except ValueError:
                fail(lineno, malformed)
            if width < 1:
                fail(lineno, malformed)
            continue
        if width is None:
            fail(lineno, "comparator before width header")
        if len(fields) != 2:
            fail(lineno, f"expected '<low> <high>', got {line!r}")
        try:
            low, high = _decimal(fields[0]), _decimal(fields[1])
        except ValueError:
            fail(lineno, f"non-integer wire in {line!r}")
        if not 0 <= low < high:
            fail(lineno, f"comparator ({low}, {high}) needs 0 <= low < high")
        if high >= width:
            fail(lineno, f"wire {high} out of range for width {width}")
        if reuse is None and (low in used or high in used):
            reuse = f"line {lineno}: layer group reuses wire in comparator ({low}, {high})"
        used.update((low, high))
        comps.append(Comparator(low, high, tag))

    if width is None:
        raise TextFormatError("missing width header")
    if saw_separator and not used:
        raise TextFormatError("trailing empty layer group")
    if saw_separator and reuse is not None:
        raise TextFormatError(reuse)
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


def _columns(net: Network):
    """Diagram layout: the (layer, column) of each comparator, the column of
    the separator that follows the approximate phase (None if no comparator
    is tagged APPROX), and the total number of columns.

    Layers run left to right, each in as many columns as its bridges need:
    bridges of one layer that overlap as wire ranges get distinct columns,
    filled left to right by low wire index.
    """
    layers = asap_schedule(net)
    comps = net.comparators
    by_layer: list[list[int]] = [[] for _ in range(max(layers, default=0))]
    for i, layer in enumerate(layers):
        by_layer[layer - 1].append(i)
    sep_layer = max(
        (layer for layer, c in zip(layers, comps) if c.tag is Phase.APPROX), default=None
    )
    cols = [0] * len(comps)
    x, sep = _MARGIN, None
    for layer, members in enumerate(by_layer, 1):
        if sep_layer is not None and layer == sep_layer + 1:
            sep, x = x, x + 2
        slots: list[list[tuple[int, int]]] = []  # wire ranges drawn in each column
        for i in sorted(members, key=lambda i: (comps[i].low, comps[i].high)):
            low, high, _ = comps[i]
            slot = 0
            while slot < len(slots) and any(low <= hi and lo <= high for lo, hi in slots[slot]):
                slot += 1
            if slot == len(slots):
                slots.append([])
            slots[slot].append((low, high))
            cols[i] = x + 2 * slot
        x += 2 * len(slots) + _LAYER_GAP - 1
    if sep_layer is not None and sep is None:  # the separator follows the last layer
        sep, x = x, x + 2
    return list(zip(layers, cols)), sep, x + _MARGIN


def _render_ascii(net: Network, flip: bool) -> str:
    placed, sep_x, total = _columns(net)
    rows = [["-"] * total for _ in range(net.width)]

    def row(wire: int) -> int:
        return wire if flip else net.width - 1 - wire

    for (_, x), comp in zip(placed, net.comparators):
        for w in range(comp.low, comp.high + 1):
            rows[row(w)][x] = "+"
        rows[row(comp.low)][x] = "o"
        rows[row(comp.high)][x] = "o"
    if sep_x is not None:
        for r in rows:
            r[sep_x] = "|"
    return "\n".join("".join(r) for r in rows) + "\n"


def _render_svg(net: Network, flip: bool, color: bool, labels: bool) -> str:
    placed, sep_x, total = _columns(net)
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
    for (layer, col), comp in zip(placed, net.comparators):
        x = x_px(col)
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
    1-based line numbers so diagrams read like the classic pictures.  The
    wires of ``restrict`` are read, and checked, by ``Poset.wire``."""
    elems = sorted(map(poset.wire, restrict)) if restrict is not None else range(poset.width)
    lines = ["digraph poset {", "  rankdir=BT;"]
    for w in elems:
        lines.append(f'  n{w} [label="{w + 1}"];')
    for a, b in poset.covers(elems):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
