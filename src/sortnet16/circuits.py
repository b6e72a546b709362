"""Monotone AND/OR circuits extracted from comparator networks.

On binary inputs a comparator is one AND (the minimum) plus one OR (the
maximum), so a width-w sorting network converts gate for gate into a
monotone circuit whose output wire j computes the threshold function
"at least w - j inputs are 1", at a circuit depth no greater than the
network's depth.  The depth-9 16-input sorter therefore yields depth-9
majority circuits for 16 variables, and for 15 after pinning one input.

Gate operands are textual references following the export format:
``x<i>`` for inputs, ``g<id>`` for earlier gates, ``0``/``1`` constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _bitslice
from .constructions import van_voorhis16
from .network import Network

AND = "AND"
OR = "OR"


def _ref_ok(ref: str, n_inputs: int, next_gate: int) -> bool:
    if ref in ("0", "1"):
        return True
    if ref.startswith("x"):
        return ref[1:].isdigit() and int(ref[1:]) < n_inputs
    if ref.startswith("g"):
        return ref[1:].isdigit() and int(ref[1:]) < next_gate
    return False


@dataclass(frozen=True)
class Gate:
    kind: str
    a: str
    b: str

    def __post_init__(self):
        if self.kind not in (AND, OR):
            raise ValueError(f"gate kind must be AND or OR, got {self.kind!r}")


@dataclass(frozen=True)
class MonotoneCircuit:
    """Acyclic gate list over ``n_inputs`` inputs with one named output ref
    per wire.  Gates may only reference inputs, constants, and earlier
    gates, so acyclicity holds by construction."""

    n_inputs: int
    gates: tuple[Gate, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        for gid, g in enumerate(self.gates):
            for ref in (g.a, g.b):
                if not _ref_ok(ref, self.n_inputs, gid):
                    raise ValueError(f"gate g{gid} has bad operand {ref!r}")
        for ref in self.outputs:
            if not _ref_ok(ref, self.n_inputs, len(self.gates)):
                raise ValueError(f"bad output reference {ref!r}")


def network_to_circuit(net: Network) -> MonotoneCircuit:
    """AND/OR circuit computing exactly what the network computes on bits."""
    refs = [f"x{i}" for i in range(net.width)]
    gates: list[Gate] = []
    for c in net.comparators:
        gid = len(gates)
        gates.append(Gate(AND, refs[c.low], refs[c.high]))
        gates.append(Gate(OR, refs[c.low], refs[c.high]))
        refs[c.low] = f"g{gid}"
        refs[c.high] = f"g{gid + 1}"
    return MonotoneCircuit(net.width, tuple(gates), tuple(refs))


def _lookup(ref: str, inputs, gate_vals, zero, one):
    if ref == "0":
        return zero
    if ref == "1":
        return one
    idx = int(ref[1:])
    return inputs[idx] if ref[0] == "x" else gate_vals[idx]


def evaluate_slices(
    circuit: MonotoneCircuit, input_slices: Sequence[int], nbits: int
) -> list[int]:
    """Evaluate bit-parallel over any family of ``nbits`` inputs given as
    int slices (bit v is input v); returns one slice per output."""
    one = (1 << nbits) - 1
    vals: list[int] = []
    for g in circuit.gates:
        a = _lookup(g.a, input_slices, vals, 0, one)
        b = _lookup(g.b, input_slices, vals, 0, one)
        vals.append(a & b if g.kind == AND else a | b)
    return [_lookup(r, input_slices, vals, 0, one) for r in circuit.outputs]


def evaluate_all(circuit: MonotoneCircuit) -> list[int]:
    """Output slices over all 2**n_inputs binary inputs (see _bitslice for
    the slice layout)."""
    n = circuit.n_inputs
    return evaluate_slices(circuit, _bitslice.evaluate(n, [], []), 1 << n)


def cone_depth(circuit: MonotoneCircuit, wire: int) -> int:
    """Longest gate path from any input or constant to the named output."""
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    depths: list[int] = []

    def ref_depth(ref: str) -> int:
        return depths[int(ref[1:])] if ref.startswith("g") else 0

    for g in circuit.gates:
        depths.append(1 + max(ref_depth(g.a), ref_depth(g.b)))
    return ref_depth(circuit.outputs[wire])


def specialize(circuit: MonotoneCircuit, input_index: int, bit: int) -> MonotoneCircuit:
    """Pin one input to a constant and simplify.

    Constants are propagated exhaustively (x AND 0 = 0, x AND 1 = x,
    x OR 1 = 1, x OR 0 = x), unreachable gates are dropped, and inputs
    above ``input_index`` shift down by one.
    """
    if not 0 <= input_index < circuit.n_inputs:
        raise ValueError(f"no input {input_index}")
    if bit not in (0, 1):
        raise ValueError("pinned value must be 0 or 1")

    replacement: list[str] = []

    def rewrite(ref: str) -> str:
        if ref.startswith("x"):
            i = int(ref[1:])
            if i == input_index:
                return str(bit)
            return f"x{i - 1}" if i > input_index else ref
        if ref.startswith("g"):
            return replacement[int(ref[1:])]
        return ref

    folded: list[Gate] = []
    for g in circuit.gates:
        a, b = rewrite(g.a), rewrite(g.b)
        if g.kind == AND:
            if a == "0" or b == "0":
                replacement.append("0")
                continue
            if a == "1":
                replacement.append(b)
                continue
            if b == "1":
                replacement.append(a)
                continue
        else:
            if a == "1" or b == "1":
                replacement.append("1")
                continue
            if a == "0":
                replacement.append(b)
                continue
            if b == "0":
                replacement.append(a)
                continue
        replacement.append(f"g{len(folded)}")
        folded.append(Gate(g.kind, a, b))

    outputs = [rewrite(r) for r in circuit.outputs]

    # Drop gates not reachable from any output, keeping relative order.
    live: set[int] = set()
    stack = [int(r[1:]) for r in outputs if r.startswith("g")]
    while stack:
        gid = stack.pop()
        if gid in live:
            continue
        live.add(gid)
        for ref in (folded[gid].a, folded[gid].b):
            if ref.startswith("g"):
                stack.append(int(ref[1:]))
    keep = sorted(live)
    renumber = {old: new for new, old in enumerate(keep)}

    def remap(ref: str) -> str:
        return f"g{renumber[int(ref[1:])]}" if ref.startswith("g") else ref

    gates = tuple(
        Gate(folded[old].kind, remap(folded[old].a), remap(folded[old].b))
        for old in keep
    )
    return MonotoneCircuit(
        circuit.n_inputs - 1, gates, tuple(remap(r) for r in outputs)
    )


def threshold_slice(n: int, k: int) -> int:
    """Slice of the k-of-n threshold function over all 2**n inputs."""
    inputs = _bitslice.evaluate(n, [], [])
    full = (1 << (1 << n)) - 1
    if k <= 0:
        return full
    return _bitslice.at_least(inputs, full, k)[k]


def is_threshold(circuit: MonotoneCircuit, wire: int, k: int) -> bool:
    """Exhaustively compare one output against the k-of-n threshold."""
    n = circuit.n_inputs
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    return evaluate_all(circuit)[wire] == threshold_slice(n, k)


def majority_circuit(n_vars: int, k: int | None = None, *, pin_bit: int = 0):
    """Majority/threshold circuit for 15 or 16 variables from the depth-9
    sorter.

    Returns ``(circuit, wire)`` where ``wire`` names the output computing
    the k-of-n threshold.  The default k is ceil(n/2).  The 15-variable
    version pins the last input of the 16-input circuit to ``pin_bit`` and
    simplifies.
    """
    if n_vars not in (15, 16):
        raise ValueError("majority circuits are built for 15 or 16 variables")
    if k is None:
        k = (n_vars + 1) // 2
    if not 1 <= k <= n_vars:
        raise ValueError(f"threshold {k} out of range for {n_vars} variables")
    full = network_to_circuit(van_voorhis16())
    if n_vars == 16:
        return full, 16 - k
    if pin_bit not in (0, 1):
        raise ValueError("pin_bit must be 0 or 1")
    wire = 16 - k if pin_bit == 0 else 16 - (k + 1)
    if not 0 <= wire < 16:
        raise ValueError(f"threshold {k} not reachable with pin_bit={pin_bit}")
    return specialize(full, 15, pin_bit), wire


def render_gate_list(circuit: MonotoneCircuit) -> str:
    """Line-oriented gate list: gates in order, then the named outputs."""
    lines = [f"g{i} = {g.kind} {g.a} {g.b}" for i, g in enumerate(circuit.gates)]
    lines.extend(f"out{w} = {ref}" for w, ref in enumerate(circuit.outputs))
    return "\n".join(lines) + "\n"
