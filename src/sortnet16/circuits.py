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

Truth tables are slices as in ``_bitslice``.  ``is_threshold`` sweeps only
what the comparators at the front of the circuit can output.  Such a
comparator is an input pair (i, j) whose only readers are one AND and one
OR gate of x_i and x_j, and which no output names.  Swapping x_i and x_j
changes no gate's value, and a threshold function is symmetric, so the
check need only cover the inputs on which each pair reads 00, 01 or 11.
The check sweeps the slice engine's first-layer blocks
(``_bitslice.layout``), behind the probe of inputs 0 .. 2**PROBE_BITS - 1
where ``_bitslice.probe_first`` asks for it, as the engine's own sweep
does: the 16-input majority circuit takes one block of 6,561 lanes and the
15-input one 4,374, with no probe.  Each value the check holds has at most
2**BLOCK_BITS bits, whatever the number of inputs.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, NamedTuple, Sequence

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


def _front_pairs(circuit: MonotoneCircuit) -> list[int]:
    """Partner of each input in a comparator at the front of the circuit,
    -1 if none: inputs i and j pair when their only readers are one AND and
    one OR gate of the two, and no output names either."""
    n = circuit.n_inputs
    gates = circuit.gates
    m = n + 2  # value indices below m are the constants and the inputs
    readers: list[list[int]] = [[] for _ in range(m)]
    for gid, (_, a, b) in enumerate(gates):
        if a < m:
            readers[a].append(gid)
        if b < m:
            readers[b].append(gid)
    named = set(circuit.outputs)
    partner = [-1] * n
    for i in range(2, m):
        r = readers[i]
        if len(r) != 2 or i in named:
            continue
        kind, a, b = gates[r[0]]
        j = a + b - i
        # Two gates of different kinds read i, both read j, and nothing else
        # reads j: the second is the other of AND and OR of i and j.
        if kind != gates[r[1]].kind and 2 <= j < m and j not in named and readers[j] == r:
            partner[i - 2] = j - 2
    return partner


def _layouts(
    circuit: MonotoneCircuit,
) -> Iterator[tuple[int, int, Sequence[int], Iterable[int]]]:
    """(top wire count, lanes, low input slices, top values) of each sweep:
    the probe of inputs 0 .. 2**PROBE_BITS - 1, whose top wires read 0,
    where ``_bitslice.probe_first`` asks for it, then the product blocks of
    ``_bitslice.layout``."""
    n = circuit.n_inputs
    _bitslice.check_width(n)
    t, lanes, low, tops = _bitslice.layout(_front_pairs(circuit))
    if _bitslice.probe_first(t, lanes):
        bits = _bitslice.PROBE_BITS
        probe = _bitslice.block_inputs(bits, bits, 0, (1 << (1 << bits)) - 1)
        yield n - bits, 1 << bits, probe, (0,)
    yield t, lanes, low, tops


def is_threshold(circuit: MonotoneCircuit, wire: int, k: int) -> bool:
    """Compare one output against the k-of-n threshold on every input the
    circuit's front comparators can output, one block at a time; the first
    block that differs ends the check."""
    if not 0 <= wire < len(circuit.outputs):
        raise ValueError(f"no output wire {wire}")
    for t, lanes, low, tops in _layouts(circuit):
        full = (1 << lanes) - 1
        # Counting slices of the low inputs; each block takes the entry for
        # the ones its top inputs lack.
        counts = _bitslice.at_least(low, full, min(max(k, 0), len(low)))
        for top in tops:
            need = k - top.bit_count()
            want = full if need <= 0 else counts[need] if need < len(counts) else 0
            rows = [full if top >> j & 1 else 0 for j in range(t - 1, -1, -1)]
            if evaluate_slices(circuit, rows + list(low), lanes)[wire] != want:
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
    # Sorter output 16 - j is 1 iff at least j of its 16 inputs are 1, the pinned one included.
    return specialize(full, 15, pin_bit), 16 - k - pin_bit


def render_gate_list(circuit: MonotoneCircuit) -> str:
    """Line-oriented gate list: gates in order, then the named outputs."""
    names = ["0", "1", *(f"x{i}" for i in range(circuit.n_inputs))]
    names.extend(f"g{i}" for i in range(len(circuit.gates)))
    lines = [f"g{i} = {g.kind} {names[g.a]} {names[g.b]}" for i, g in enumerate(circuit.gates)]
    lines.extend(f"out{w} = {names[r]}" for w, r in enumerate(circuit.outputs))
    return "\n".join(lines) + "\n"
