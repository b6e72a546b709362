"""Command-line front door.

Exit codes follow a CI-friendly convention: 0 when the command succeeds
and any checked claim holds, 1 when a claim fails or a counterexample is
found, 2 for usage or I/O errors and for inputs too large to evaluate.
"""

from __future__ import annotations

import argparse
import sys

from . import analysis, circuits
from .constructions import (
    CUBE_LAYER1,
    CUBE_LAYER3,
    M_WIRES,
    batcher_sorter,
    green16,
    hypercube_phase,
    sorter4,
    van_voorhis16,
)
from .network import Network, asap_schedule
from .render import TextFormatError, parse_text, render_diagram, render_poset_dot, render_text
from .verify import (
    backend_name,
    counterexample_permutation,
    infer_poset,
    verify_sorts_binary,
)

_BUILDERS = {
    "green16": lambda n: green16(),
    "vanvoorhis16": lambda n: van_voorhis16(),
    "sorter4": lambda n: sorter4(),
    "hypercube": hypercube_phase,
    "batcher": batcher_sorter,
}

_RESTRICT_SETS = {
    "M": M_WIRES,
    "layer1": CUBE_LAYER1,
    "layer3": CUBE_LAYER3,
}


def _read_network(path: str) -> Network:
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
    builder = _BUILDERS[args.network]
    if args.network in ("hypercube", "batcher"):
        if args.n is None:
            print(f"build {args.network} requires a size argument", file=sys.stderr)
            return 2
        net = builder(args.n)
    else:
        if args.n is not None:
            print(f"build {args.network} takes no size argument", file=sys.stderr)
            return 2
        net = builder(None)
    _write(render_text(net, layered=args.layered), args.output)
    return 0


def _cmd_verify(args) -> int:
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
    lines = [
        f"width: {net.width}",
        f"comparators: {len(net)}",
        f"depth: {asap_schedule(net).depth}",
    ]
    lines += [
        f"phase {tag.value}: {count}"
        for tag, count in net.phase_counts().items()
        if tag is not None
    ]
    print("\n".join(lines))
    return 0


def _parse_restrict(choice: str):
    if choice in _RESTRICT_SETS:
        return _RESTRICT_SETS[choice]
    try:
        return tuple(int(w) for w in choice.split(","))
    except ValueError:
        raise TextFormatError(
            f"--restrict wants M, layer1, layer3, or a comma list of wires, got {choice!r}"
        )


def _cmd_poset(args) -> int:
    net = _read_network(args.network_file)
    if args.prefix is not None:
        net = net.prefix(args.prefix)
    poset = infer_poset(net)
    restrict = _parse_restrict(args.restrict) if args.restrict else None
    sys.stdout.write(render_poset_dot(poset, restrict=restrict))
    return 0


def _cmd_diagram(args) -> int:
    net = _read_network(args.network_file)
    text = render_diagram(
        net, args.format, flip=args.flip, color=args.color, labels=not args.no_labels
    )
    _write(text, args.output)
    return 0


def _cmd_observations(args) -> int:
    print(f"# prefix=hypercube(4) samples={args.samples} seed={hex(args.seed)}")
    ok = True
    for mode in (analysis.EXHAUSTIVE, analysis.SAMPLED):
        report = analysis.check_observations(
            mode=mode, samples=args.samples, seed=args.seed
        )
        ok = ok and report.all_hold
        for line in report.to_lines():
            print(line)
    return 0 if ok else 1


_CHECKS = {
    "green-m": analysis.check_green_m_poset,
    "vv-m": analysis.check_vv_m_poset,
    "strategy": analysis.check_strategy_completeness,
    "depth-regression": analysis.check_depth_regression,
}


def _cmd_checks(args) -> int:
    ok = _CHECKS[args.check]()
    print(f"{args.check}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_majority(args) -> int:
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
    p.add_argument("--samples", type=int, default=analysis.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=lambda s: int(s, 0), default=analysis.DEFAULT_SEED)
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

        print(f"sortnet16 {__version__} (backend: {backend_name()})")
        return 0
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (TextFormatError, ValueError) as exc:
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
