import random
import re

import pytest

from sortnet16 import (
    Network,
    Phase,
    Poset,
    DegenerateOrderError,
    TextFormatError,
    hypercube_phase,
    infer_poset,
    parse_text,
    render_diagram,
    render_poset_dot,
    render_text,
)

from test_network import random_network


def random_tagged_network(rng):
    net = random_network(rng)
    tags = [None] + list(Phase)
    comps = [
        type(c)(c.low, c.high, rng.choice(tags)) for c in net.comparators
    ]
    return Network(net.width, tuple(comps))


def test_trivial_round_trip():
    net = Network(2, ((0, 1),))
    text = render_text(net)
    assert text == "width 2\n0 1\n"
    assert parse_text(text) == net


def test_green16_round_trip(green):
    assert parse_text(render_text(green)) == green


def test_van_voorhis_round_trip(vv):
    parsed = parse_text(render_text(vv))
    assert parsed == vv
    assert [c.tag for c in parsed.comparators] == [c.tag for c in vv.comparators]


def test_random_networks_round_trip():
    rng = random.Random(0xF00D)
    for _ in range(100):
        net = random_tagged_network(rng)
        assert parse_text(render_text(net)) == net


def test_layered_render_groups_by_asap_layer(green):
    text = render_text(green, layered=True)
    assert text.count(";") == 9  # depth 10 => 9 separators
    reordered = parse_text(text)
    assert len(reordered) == len(green)
    # functionally identical even though the order changed
    rng = random.Random(1)
    for _ in range(200):
        values = [rng.randint(0, 9) for _ in range(16)]
        assert reordered.apply(values) == green.apply(values)


@pytest.mark.parametrize(
    "text,message",
    [
        ("width 2\n1 1\n", "low < high"),
        ("width 2\n1 0\n", "low < high"),
        ("width 2\n0 5\n", "out of range"),
        ("0 1\n", "before width"),
        ("width 2\nwidth 3\n0 1\n", "duplicate"),
        ("width two\n0 1\n", "width header"),
        ("width 2\n0 1 2\n", "expected"),
        ("width 2\n0 x\n", "non-integer"),
        ("width 2\n# phase:warmup\n0 1\n", "unknown phase"),
        ("width 4\n0 1\n0 2\n;\n1 2\n", "reuses wire"),
        ("width 2\n;\n0 1\n", "empty layer"),
        ("width 2\n0 1\n;\n", "empty layer"),
        ("", "missing width"),
    ],
)
def test_parse_rejects_malformed_text(text, message):
    with pytest.raises(TextFormatError) as err:
        parse_text(text)
    assert message in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(TextFormatError, match="line 3"):
        parse_text("width 4\n0 1\n3 2\n")


def test_ascii_single_bridge():
    art = render_diagram(Network(2, ((0, 1),)))
    lines = art.splitlines()
    assert len(lines) == 2
    columns = {line.index("o") for line in lines}
    assert len(columns) == 1
    assert all(set(line) <= {"-", "o"} for line in lines)


def bridge_layer_count(art):
    """Recover the number of layer columns from ascii output: bridge columns
    2 apart share a layer, anything further starts a new one."""
    lines = art.splitlines()
    cols = sorted(
        {x for line in lines for x, ch in enumerate(line) if ch == "o"}
    )
    layers = 1
    for a, b in zip(cols, cols[1:]):
        if b - a > 2:
            layers += 1
    return layers


def test_ascii_green16_layout(green):
    art = render_diagram(green)
    lines = art.splitlines()
    assert len(lines) == 16
    assert sum(line.count("o") for line in lines) == 120  # two endpoints each
    assert bridge_layer_count(art) == 10
    sep_cols = {x for line in lines for x, ch in enumerate(line) if ch == "|"}
    assert len(sep_cols) == 1
    assert all(line.count("|") == 1 for line in lines)


def test_ascii_van_voorhis_has_9_layer_columns(vv):
    assert bridge_layer_count(render_diagram(vv)) == 9


def test_ascii_flip_moves_wire_zero():
    net = Network(3, ((0, 1),))
    default = render_diagram(net).splitlines()
    flipped = render_diagram(net, flip=True).splitlines()
    # wire 0 is drawn at the bottom by default, at the top when flipped
    assert "o" not in default[0] and "o" in default[2]
    assert "o" in flipped[0] and "o" not in flipped[2]
    assert default == flipped[::-1]


def test_ascii_separator_only_when_tagged():
    art = render_diagram(hypercube_phase(4))
    assert "|" not in art


def test_diagram_width_cap():
    with pytest.raises(ValueError):
        render_diagram(Network(65))
    with pytest.raises(ValueError):
        render_diagram(Network(4), "png")


def test_diagram_rejects_misspelled_option(green):
    with pytest.raises(TypeError):
        render_diagram(green, "svg", colour=True)


def test_svg_green16_structure(green):
    svg = render_diagram(green, "svg")
    assert svg.count('class="bridge"') == 60
    assert svg.count('class="endpoint"') == 120
    layers = set(re.findall(r'data-layer="(\d+)"', svg))
    assert layers == {str(i) for i in range(1, 11)}
    assert svg.count('class="phase-sep"') == 1
    # the separator sits between the approx columns (layers 1-4) and layer 5
    sep_x = int(re.search(r'class="phase-sep" x1="(\d+)"', svg).group(1))
    bridge_x = {
        int(layer): int(x)
        for layer, x in re.findall(r'data-layer="(\d+)"[^/]*?x1="(\d+)"', svg)
    }
    assert max(
        int(x)
        for layer, x in re.findall(r'data-layer="(\d+)"[^/]*?x1="(\d+)"', svg)
        if int(layer) <= 4
    ) < sep_x
    assert sep_x < min(
        int(x)
        for layer, x in re.findall(r'data-layer="(\d+)"[^/]*?x1="(\d+)"', svg)
        if int(layer) == 5
    )
    for label in "12345":
        assert f">{label}</text>" in svg


def test_svg_van_voorhis_9_layers(vv):
    svg = render_diagram(vv, "svg")
    layers = set(re.findall(r'data-layer="(\d+)"', svg))
    assert layers == {str(i) for i in range(1, 10)}


def test_svg_colors_and_labels_options(green):
    plain = render_diagram(green, "svg")
    assert 'stroke="#888888"' not in plain
    colored = render_diagram(green, "svg", color=True)
    assert 'stroke="#888888"' in colored  # approx phase color
    unlabeled = render_diagram(green, "svg", labels=False)
    assert "block-label" not in unlabeled


def test_diagram_output_is_deterministic(green):
    for fmt in ("ascii", "svg"):
        assert render_diagram(green, fmt) == render_diagram(green, fmt)


def test_dot_chain_of_three():
    chain = Network(3, ((0, 1), (1, 2), (0, 1)))
    dot = render_poset_dot(infer_poset(chain))
    edges = re.findall(r"n(\d+) -> n(\d+);", dot)
    assert edges == [("0", "1"), ("1", "2")]
    assert 'n0 [label="1"]' in dot


def test_dot_antichain_is_edgeless():
    dot = render_poset_dot(infer_poset(Network(3)))
    assert "->" not in dot
    assert dot.count("[label=") == 3


def test_dot_hypercube_has_32_hasse_edges():
    dot = render_poset_dot(infer_poset(hypercube_phase(4)))
    assert len(re.findall(r"n\d+ -> n\d+;", dot)) == 32


def test_dot_restriction(green):
    poset = infer_poset(green.prefix_through(Phase.TETRAD_B))
    dot = render_poset_dot(poset, restrict=(3, 5, 6, 7, 8, 9, 10, 12))
    assert len(re.findall(r"n\d+ -> n\d+;", dot)) == 9
    assert "n0 " not in dot


def test_dot_rejects_degenerate_relation():
    bogus = Poset(2, (0b11, 0b11))
    with pytest.raises(DegenerateOrderError):
        render_poset_dot(bogus)


def test_dot_is_deterministic():
    poset = infer_poset(hypercube_phase(3))
    assert render_poset_dot(poset) == render_poset_dot(poset)
