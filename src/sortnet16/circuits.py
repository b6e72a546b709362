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

A network's circuit has no constants, so ``network_to_circuit`` appends
each comparator's AND and then its OR as they are.  ``specialize`` is the one
code that pins an input: it sends every gate through ``_fold``, which holds
the constant-folding rules.  ``majority_circuit(15)`` is van Voorhis's
circuit with its last input pinned by ``specialize``.

The majority circuits are fixed, so, like the builders in ``constructions``,
``majority_circuit`` composes the gates and output references of each size
and pin once per process, on first use (``functools.cache`` on a private
table function, never at import); the threshold only picks the output wire.
Every call still returns a new ``MonotoneCircuit`` that checks each gate of
the table, and no circuit, depth or verdict outlives a call.

Truth tables are slices as in ``_bitslice``.  ``is_threshold`` sweeps only
what the comparators at the front of the circuit can output: input pairs
(i, j) whose only readers are one AND and one OR gate of x_i and x_j, and
which no output names.  Swapping x_i and x_j changes no gate's value, and a
threshold function is symmetric, so the check need only cover the inputs on
which each pair reads 00, 01 or 11.  Those are the blocks ``_bitslice``
sweeps for a network whose first layer is these pairs, so a circuit of a
network sweeps the network's blocks (that module's docstring states them,
and where the probe runs), and no value it holds exceeds one block's bits.
"""

from __future__ import annotations

import operator
from functools import cache
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
        index = operator.index
        for top, (kind, a, b) in enumerate(self.gates, base):
            if kind not in (AND, OR) or not (0 <= index(a) < top and 0 <= index(b) < top):
                if kind not in (AND, OR):
                    raise ValueError(f"gate kind must be AND or OR, got {kind!r}")
                bad = a if not 0 <= a < top else b
                raise ValueError(f"gate g{top - base} has bad operand {bad!r}")
        for ref in self.outputs:
            if not 0 <= operator.index(ref) < base + len(self.gates):
                raise ValueError(f"bad output reference {ref!r}")


_new_gate = tuple.__new__  # a Gate from its fields, as NamedTuple._make does


def _fold(gates: list[Gate], base: int, kind: str, a: int, b: int) -> int:
    """Value index of ``kind`` of the values at ``a`` and ``b`` in a circuit
    whose gate f has index base + f.  A constant operand folds the gate
    (x AND 0 = 0, x AND 1 = x, x OR 1 = 1, x OR 0 = x); otherwise the gate
    is appended to ``gates``."""
    if a > 1 and b > 1:
        gates.append(_new_gate(Gate, (kind, a, b)))
        return base + len(gates) - 1
    absorbing = 0 if kind == AND else 1
    if absorbing in (a, b):
        return absorbing
    return b if a < 2 else a


def network_to_circuit(net: Network) -> MonotoneCircuit:
    """AND/OR circuit computing exactly what the network computes on bits."""
    n = net.width
    refs = list(range(2, n + 2))
    gates: list[Gate] = []
    for low, high, _ in net.comparators:
        a, b = refs[low], refs[high]
        refs[low], refs[high] = n + 2 + len(gates), n + 3 + len(gates)
        gates += (_new_gate(Gate, (AND, a, b)), _new_gate(Gate, (OR, a, b)))
    return MonotoneCircuit(n, tuple(gates), tuple(refs))


def evaluate_slices(
    circuit: MonotoneCircuit, input_slices: Sequence[int], nbits: int
) -> list[int]:
    """Evaluate bit-parallel over any family of ``nbits`` inputs given as
    int slices (bit v is input v); returns one slice per output."""
    if len(input_slices) != circuit.n_inputs:
        raise ValueError(f"{len(input_slices)} input slices for {circuit.n_inputs} inputs")
    vals = [0, (1 << nbits) - 1, *input_slices]
    append = vals.append
    for kind, a, b in circuit.gates:
        append(vals[a] & vals[b] if kind == AND else vals[a] | vals[b])
    return [vals[r] for r in circuit.outputs]


def cone_depth(circuit: MonotoneCircuit, wire: int) -> int:
    """Longest gate path from any input or constant to the named output."""
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    depths = [0] * (circuit.n_inputs + 2)
    append = depths.append
    for _, a, b in circuit.gates:
        x, y = depths[a], depths[b]
        append(x + 1 if x > y else y + 1)
    return depths[circuit.outputs[wire]]


def specialize(circuit: MonotoneCircuit, input_index: int, bit: int) -> MonotoneCircuit:
    """Pin one input to a constant and simplify.

    Constants are propagated exhaustively through ``_fold``, and inputs
    above ``input_index`` shift down by one.  On circuits of networks,
    pinned any number of times, no gate is left unreachable: a value sits
    on one wire until a comparator's AND and OR both consume it.
    """
    n = circuit.n_inputs
    if not 0 <= input_index < n:
        raise ValueError(f"no input {input_index}")
    if bit not in (0, 1):
        raise ValueError("pinned value must be 0 or 1")

    # table[r]: what old value r becomes in the folded circuit.
    table = [0, 1, *range(2, input_index + 2), bit, *range(input_index + 2, n + 1)]
    folded: list[Gate] = []
    for kind, a, b in circuit.gates:
        table.append(_fold(folded, n + 1, kind, table[a], table[b]))
    return MonotoneCircuit(n - 1, tuple(folded), tuple(table[r] for r in circuit.outputs))


def _front_pairs(circuit: MonotoneCircuit) -> list[tuple[int, int]]:
    """The comparators at the front of the circuit, as input pairs (i, j)
    with i < j: inputs i and j pair when their only readers are one AND and
    one OR gate of the two, and no output names either."""
    gates = circuit.gates
    m = circuit.n_inputs + 2  # value indices below m are the constants and the inputs
    readers: list[list[int]] = [[] for _ in range(m)]
    for gid, (_, a, b) in enumerate(gates):
        if a < m:
            readers[a].append(gid)
        if b < m:
            readers[b].append(gid)
    named = set(circuit.outputs)
    pairs = []
    for i in range(2, m):
        r = readers[i]
        if len(r) != 2 or i in named:
            continue
        kind, a, b = gates[r[0]]
        j = a + b - i
        # Two gates of different kinds read i, both read j, and nothing else
        # reads j: the second is the other of AND and OR of i and j.
        if kind != gates[r[1]].kind and i < j < m and j not in named and readers[j] == r:
            pairs.append((i - 2, j - 2))
    return pairs


def is_threshold(circuit: MonotoneCircuit, wire: int, k: int) -> bool:
    """Compare one output against the k-of-n threshold on each block of the
    sweep of the circuit's front comparators, up to the first that differs."""
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    n = circuit.n_inputs
    _bitslice.check_width(n)
    for inputs, _, full in _bitslice._sweep(n, _front_pairs(circuit)):
        want = full if k <= 0 else 0 if k > n else _bitslice.at_least(inputs, full, k)[k]
        if evaluate_slices(circuit, inputs, full.bit_length())[wire] != want:
            return False
    return True


def majority_circuit(n_vars: int, k: int | None = None, *, pin_bit: int = 0):
    """Majority/threshold circuit for 15 or 16 variables from the depth-9
    sorter.

    Returns ``(circuit, wire)`` where ``wire`` names the output computing
    the k-of-n threshold.  The default k is ceil(n/2).  The 15-variable
    version is ``specialize`` of the 16-input circuit with its last input
    pinned to ``pin_bit``; at 16 variables no input is pinned, and
    ``pin_bit`` must be 0.  ``n_vars`` and ``k`` are read as integers, and
    the arguments are checked before the gate table of the size and pin is
    looked up.
    """
    n_vars = operator.index(n_vars)
    if n_vars not in (15, 16):
        raise ValueError("majority circuits are built for 15 or 16 variables")
    k = (n_vars + 1) // 2 if k is None else operator.index(k)
    if not 1 <= k <= n_vars:
        raise ValueError(f"threshold {k} out of range for {n_vars} variables")
    if not isinstance(pin_bit, int) or pin_bit not in (0, 1):
        raise ValueError("pin_bit must be 0 or 1")
    if n_vars == 16 and pin_bit:
        raise ValueError("no input is pinned at 16 variables: pin_bit must be 0")
    # Sorter output 16 - j is 1 iff at least j of its 16 inputs are 1, the pinned one included.
    return MonotoneCircuit(*_majority_table(n_vars, pin_bit)), 16 - k - pin_bit


@cache
def _majority_table(n_vars: int, pin_bit: int) -> tuple[int, tuple[Gate, ...], tuple[int, ...]]:
    """The fields of a majority circuit, composed on first use."""
    circuit = network_to_circuit(van_voorhis16())
    if n_vars == 15:
        circuit = specialize(circuit, 15, pin_bit)
    return circuit.n_inputs, circuit.gates, circuit.outputs


def render_gate_list(circuit: MonotoneCircuit) -> str:
    """Line-oriented gate list: gates in order, then the named outputs."""
    names = ["0", "1", *(f"x{i}" for i in range(circuit.n_inputs))]
    names.extend(f"g{i}" for i in range(len(circuit.gates)))
    lines = [f"g{i} = {g.kind} {names[g.a]} {names[g.b]}" for i, g in enumerate(circuit.gates)]
    lines.extend(f"out{w} = {names[r]}" for w, r in enumerate(circuit.outputs))
    return "\n".join(lines) + "\n"
