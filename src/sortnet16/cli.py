"""Command-line front door.

Exit codes follow a CI-friendly convention: 0 when the command succeeds
and any checked claim holds, 1 when a claim fails or a counterexample is
found, 2 for usage or I/O errors and for inputs too large to evaluate.

Each command imports the modules it runs when it runs, and parsing the
arguments loads only ``network``.  So:

* ``build``, ``stats`` and ``diagram`` load neither the slice engine nor
  ``analysis`` or ``circuits``;
* ``verify``, ``stats`` and ``diagram`` do not load ``constructions``;
* ``checks``, ``observations`` and ``majority`` do not load ``render``.
"""

from __future__ import annotations

import argparse
import sys

from .network import Network, depth

# Network name -> its builder in ``constructions``.
_BUILDERS = {
    "green16": "green16",
    "vanvoorhis16": "van_voorhis16",
    "sorter4": "sorter4",
    "hypercube": "hypercube_phase",
    "batcher": "batcher_sorter",
}
_SIZED = ("hypercube", "batcher")  # the builders that take a size

# --restrict name -> its wire set in ``constructions``.
_RESTRICT_SETS = {
    "M": "M_WIRES",
    "layer1": "CUBE_LAYER1",
    "layer3": "CUBE_LAYER3",
}


def _read_network(path: str) -> Network:
    from .render import parse_text

    if path == "-":
        return parse_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_text(fh.read())


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_build(args) -> int:
    from . import constructions
    from .render import render_text

    sized = args.network in _SIZED
    if sized and args.n is None:
        print(f"build {args.network} requires a size argument", file=sys.stderr)
        return 2
    if not sized and args.n is not None:
        print(f"build {args.network} takes no size argument", file=sys.stderr)
        return 2
    builder = getattr(constructions, _BUILDERS[args.network])
    net = builder(args.n) if sized else builder()
    _write(render_text(net, layered=args.layered), args.output)
    return 0


def _cmd_verify(args) -> int:
    from .verify import counterexample_permutation, verify_sorts_binary

    net = _read_network(args.network_file)
    verdict = verify_sorts_binary(net)
    if verdict.sorts:
        print("sorts")
        return 0
    bits = " ".join(str(b) for b in verdict.counterexample)
    print(f"counterexample: {bits}")
    witness = counterexample_permutation(net, verdict.counterexample)
    print(f"witness permutation: {' '.join(str(v) for v in witness)}")
    return 1


def _cmd_stats(args) -> int:
    net = _read_network(args.network_file)
    # Build the whole report first: an error exit leaves stdout empty.
    lines = [f"width: {net.width}", f"comparators: {len(net)}", f"depth: {depth(net)}"]
    lines += [
        f"phase {tag.value}: {count}"
        for tag, count in net.phase_counts().items()
        if tag is not None
    ]
    print("\n".join(lines))
    return 0


def _parse_restrict(choice: str, width: int) -> tuple[int, ...]:
    from .render import TextFormatError, _decimal

    if choice in _RESTRICT_SETS:
        from . import constructions

        wires = getattr(constructions, _RESTRICT_SETS[choice])
    else:
        try:
            # A minus sign is read so that the range check names a negative wire.
            wires = tuple(
                -_decimal(w[1:]) if w.startswith("-") else _decimal(w) for w in choice.split(",")
            )
        except ValueError:
            raise TextFormatError(
                f"--restrict wants M, layer1, layer3, or a comma list of wires, got {choice!r}"
            )
    for i, w in enumerate(wires):
        if not 0 <= w < width:
            raise TextFormatError(f"--restrict wire {w} is outside 0..{width - 1}")
        if w in wires[:i]:
            raise TextFormatError(f"--restrict names wire {w} twice")
    return wires


def _cmd_poset(args) -> int:
    from .render import render_poset_dot
    from .verify import infer_poset

    net = _read_network(args.network_file)
    if args.prefix is not None:
        net = net.prefix(args.prefix)
    restrict = _parse_restrict(args.restrict, net.width) if args.restrict is not None else None
    sys.stdout.write(render_poset_dot(infer_poset(net), restrict=restrict))
    return 0


def _cmd_diagram(args) -> int:
    from .render import render_diagram

    net = _read_network(args.network_file)
    text = render_diagram(
        net, args.format, flip=args.flip, color=args.color, labels=not args.no_labels
    )
    _write(text, args.output)
    return 0


def _cmd_observations(args) -> int:
    from . import analysis

    samples = analysis.DEFAULT_SAMPLES if args.samples is None else args.samples
    seed = analysis.DEFAULT_SEED if args.seed is None else args.seed
    # Build the whole report first: an error exit leaves stdout empty.
    lines = [f"# prefix=hypercube(4) samples={samples} seed={hex(seed)}"]
    ok = True
    for mode in (analysis.EXHAUSTIVE, analysis.SAMPLED):
        report = analysis.check_observations(mode=mode, samples=samples, seed=seed)
        ok = ok and report.all_hold
        lines += report.to_lines()
    print("\n".join(lines))
    return 0 if ok else 1


# Check name -> function in ``analysis``, looked up when the check runs.
_CHECKS = {
    "green-m": "check_green_m_poset",
    "vv-m": "check_vv_m_poset",
    "strategy": "check_strategy_completeness",
    "depth-regression": "check_depth_regression",
}


def _cmd_checks(args) -> int:
    from . import analysis

    ok = getattr(analysis, _CHECKS[args.check])()
    print(f"{args.check}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_majority(args) -> int:
    from . import circuits

    n = args.variables
    k = args.threshold if args.threshold is not None else (n + 1) // 2
    circuit, wire = circuits.majority_circuit(n, k, pin_bit=args.pin)
    sys.stdout.write(circuits.render_gate_list(circuit))
    depth = circuits.cone_depth(circuit, wire)
    verified = circuits.is_threshold(circuit, wire, k)
    print()
    print(f"output: out{wire}")
    print(f"cone depth: {depth}")
    print(f"threshold {k} of {n}: {'verified' if verified else 'FAILED'}")
    return 0 if verified and depth <= 9 else 1


def _seed(text: str) -> int:
    """A seed in Python's integer syntax: 12, 0xC0FFEE, 0o17 or 0b101."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer such as 12 or 0xC0FFEE, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sortnet16",
        description="Build, verify, analyse, and render comparator sorting networks.",
    )
    parser.add_argument(
        "--version", action="store_true", help="print backend info and exit"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("build", help="emit a built-in network as text")
    p.add_argument("network", choices=sorted(_BUILDERS))
    p.add_argument("n", nargs="?", type=int, help="size for hypercube/batcher")
    p.add_argument("--layered", action="store_true", help="group output by ASAP layer")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="exhaustively verify a network sorts")
    p.add_argument("network_file", help="network text file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="width, size, depth, per-phase counts")
    p.add_argument("network_file")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("poset", help="DOT Hasse diagram of the inferred order")
    p.add_argument("network_file")
    p.add_argument("--prefix", type=int, default=None, help="use only the first K comparators")
    p.add_argument("--restrict", default=None, help="M, layer1, layer3, or wire list")
    p.set_defaults(func=_cmd_poset)

    p = sub.add_parser("diagram", help="render a network diagram")
    p.add_argument("network_file")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.add_argument("--flip", action="store_true", help="draw wire 0 at the top")
    p.add_argument("--color", action="store_true", help="per-phase colors (svg)")
    p.add_argument("--no-labels", action="store_true", help="suppress block labels (svg)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_diagram)

    p = sub.add_parser(
        "observations", help="check claims a-d for the cube phase, both modes"
    )
    # Defaults (None) are analysis.DEFAULT_SAMPLES and DEFAULT_SEED.
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.set_defaults(func=_cmd_observations)

    p = sub.add_parser("checks", help="run one of the structural checks")
    p.add_argument("check", choices=sorted(_CHECKS))
    p.set_defaults(func=_cmd_checks)

    p = sub.add_parser("majority", help="majority circuit, cone depth, verdict")
    p.add_argument("variables", type=int, choices=(15, 16))
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--pin", type=int, choices=(0, 1), default=0,
                   help="value pinned onto the dropped input (15 variables)")
    p.set_defaults(func=_cmd_majority)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version:
        from . import __version__
        from .verify import backend_name

        print(f"sortnet16 {__version__} (backend: {backend_name()})")
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except ValueError as exc:  # TextFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
