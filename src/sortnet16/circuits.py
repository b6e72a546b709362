"""Monotone AND/OR circuits extracted from comparator networks.

On binary inputs a comparator is one AND (the minimum) plus one OR (the
maximum), so a width-w sorting network converts gate for gate into a
monotone circuit whose output wire j computes the threshold function
"at least w - j inputs are 1", at a circuit depth no greater than the
network's depth.  The depth-9 16-input sorter therefore yields depth-9
majority circuits for 16 variables, and for 15 after pinning one input.

Gate operands and outputs are integer indices into the circuit's list of
values: 0 and 1 are the constants, 2 .. n+1 the inputs x0 .. x(n-1) of an
n-input circuit, and n+2+g the output of gate g.  Only ``render_gate_list``
turns them into names (``0``, ``1``, ``x<i>``, ``g<id>``).  A ``Gate`` is a
plain ``(kind, a, b)`` record; the ``MonotoneCircuit`` that holds it checks
its kind and operands.

Truth tables are slices as in ``_bitslice``.  ``is_threshold`` walks the
inputs in the slice engine's blocks, so each value it holds has at most
2**BLOCK_BITS bits, whatever the number of inputs.
"""

from __future__ import annotations

import operator
from typing import NamedTuple, Sequence

from . import _bitslice
from .constructions import van_voorhis16
from .network import Network, _Record, _set_field

AND = "AND"
OR = "OR"


class Gate(NamedTuple):
    """AND or OR of the values at indices ``a`` and ``b``."""

    kind: str
    a: int
    b: int


class MonotoneCircuit(_Record):
    """Acyclic gate list over ``n_inputs`` inputs with one value index per
    output wire.  Gate g may only reference the constants, the inputs and
    earlier gates (indices below n_inputs + 2 + g), so acyclicity holds by
    construction.  Construction checks every gate's kind and operands."""

    __slots__ = ("n_inputs", "gates", "outputs")

    def __init__(self, n_inputs: int, gates: tuple[Gate, ...], outputs: tuple[int, ...]):
        _set_field(self, "n_inputs", n_inputs)
        _set_field(self, "gates", gates)
        _set_field(self, "outputs", outputs)
        self.__post_init__()

    def __post_init__(self):
        base = self.n_inputs + 2
        for gid, (kind, a, b) in enumerate(self.gates):
            if kind not in (AND, OR):
                raise ValueError(f"gate kind must be AND or OR, got {kind!r}")
            for ref in (a, b):
                if not 0 <= operator.index(ref) < base + gid:
                    raise ValueError(f"gate g{gid} has bad operand {ref!r}")
        for ref in self.outputs:
            if not 0 <= operator.index(ref) < base + len(self.gates):
                raise ValueError(f"bad output reference {ref!r}")


def network_to_circuit(net: Network) -> MonotoneCircuit:
    """AND/OR circuit computing exactly what the network computes on bits."""
    refs = list(range(2, net.width + 2))
    gates: list[Gate] = []
    for c in net.comparators:
        ref = net.width + 2 + len(gates)
        gates.append(Gate(AND, refs[c.low], refs[c.high]))
        gates.append(Gate(OR, refs[c.low], refs[c.high]))
        refs[c.low], refs[c.high] = ref, ref + 1
    return MonotoneCircuit(net.width, tuple(gates), tuple(refs))


def evaluate_slices(
    circuit: MonotoneCircuit, input_slices: Sequence[int], nbits: int
) -> list[int]:
    """Evaluate bit-parallel over any family of ``nbits`` inputs given as
    int slices (bit v is input v); returns one slice per output."""
    if len(input_slices) != circuit.n_inputs:
        raise ValueError(f"{len(input_slices)} input slices for {circuit.n_inputs} inputs")
    vals = [0, (1 << nbits) - 1, *input_slices]
    for kind, a, b in circuit.gates:
        vals.append(vals[a] & vals[b] if kind == AND else vals[a] | vals[b])
    return [vals[r] for r in circuit.outputs]


def cone_depth(circuit: MonotoneCircuit, wire: int) -> int:
    """Longest gate path from any input or constant to the named output."""
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    depths = [0] * (circuit.n_inputs + 2)
    for _, a, b in circuit.gates:
        depths.append(1 + max(depths[a], depths[b]))
    return depths[circuit.outputs[wire]]


def specialize(circuit: MonotoneCircuit, input_index: int, bit: int) -> MonotoneCircuit:
    """Pin one input to a constant and simplify.

    Constants are propagated exhaustively (x AND 0 = 0, x AND 1 = x,
    x OR 1 = 1, x OR 0 = x), and inputs above ``input_index`` shift down
    by one.  On circuits of networks, pinned any number of times, no gate
    is left unreachable: a value sits on one wire until a comparator's AND
    and OR both consume it.
    """
    n = circuit.n_inputs
    if not 0 <= input_index < n:
        raise ValueError(f"no input {input_index}")
    if bit not in (0, 1):
        raise ValueError("pinned value must be 0 or 1")

    # table[r]: what old value r becomes in the folded circuit, whose gate
    # f has index base + f.
    base = n + 1
    table = [0, 1, *range(2, input_index + 2), bit, *range(input_index + 2, base)]
    folded: list[Gate] = []
    for g in circuit.gates:
        a, b = table[g.a], table[g.b]
        absorbing, neutral = (0, 1) if g.kind == AND else (1, 0)
        if absorbing in (a, b):
            table.append(absorbing)
        elif a == neutral:
            table.append(b)
        elif b == neutral:
            table.append(a)
        else:
            table.append(base + len(folded))
            folded.append(Gate(g.kind, a, b))
    return MonotoneCircuit(n - 1, tuple(folded), tuple(table[r] for r in circuit.outputs))


def is_threshold(circuit: MonotoneCircuit, wire: int, k: int) -> bool:
    """Exhaustively compare one output against the k-of-n threshold, one
    block of inputs at a time; the first block that differs ends the check."""
    n = circuit.n_inputs
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    # Counting slices of the low input bits, over one full block: the probe
    # takes their low part, and each block the entry for the ones its index
    # lacks.
    bits = min(n, _bitslice.BLOCK_BITS)
    full = (1 << (1 << bits)) - 1
    low = _bitslice.block_inputs(bits, bits, 0, full)
    counts = _bitslice.at_least(low, full, min(max(k, 0), bits))
    for bits, start in _bitslice.blocks(n):
        full = (1 << (1 << bits)) - 1
        need = k - (start >> bits).bit_count()
        want = full if need <= 0 else counts[need] & full if need < len(counts) else 0
        inputs = _bitslice.block_inputs(n, bits, start, full)
        if evaluate_slices(circuit, inputs, 1 << bits)[wire] != want:
            return False
    return True


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
    names = ["0", "1", *(f"x{i}" for i in range(circuit.n_inputs))]
    names.extend(f"g{i}" for i in range(len(circuit.gates)))
    lines = [f"g{i} = {g.kind} {names[g.a]} {names[g.b]}" for i, g in enumerate(circuit.gates)]
    lines.extend(f"out{w} = {names[r]}" for w, r in enumerate(circuit.outputs))
    return "\n".join(lines) + "\n"
