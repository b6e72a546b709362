"""Exhaustive binary verification and order inference for networks.

By the zero-one principle a network sorts every input iff it sorts every
binary input, so every verdict here covers the full 2**width binary input
space.  The slice engine ``_bitslice``, the module attribute ``_backend``,
sweeps the inputs; this module turns its answers into a ``SortVerdict``
with the least failing input, lifts that input to a failing permutation,
and builds the ``Poset`` of wire order, which refuses two wires forced
equal.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from . import _bitslice as _backend
from .network import Network, _Record, _set_field


def backend_name() -> str:
    """Name of the slice engine: always "python" (Python ints, no compiled
    extension)."""
    return "python"


class DegenerateOrderError(ValueError):
    """Two distinct wires carry equal values on every binary input."""


class SortVerdict(NamedTuple):
    """Outcome of exhaustive verification.

    ``counterexample`` is the lexicographically least binary input the
    network fails to sort, or None when it sorts everything.
    """

    sorts: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.sorts


def verify_sorts_binary(net: Network) -> SortVerdict:
    """Check all 2**width binary inputs on the slice engine.

    The inputs are swept in index order, block by block, and the first
    block with a failing input ends the sweep.
    """
    bad = _backend.first_unsorted(net.width, net.pairs())
    if bad < 0:
        return SortVerdict(True)
    return SortVerdict(False, _backend.vector_of(bad, net.width))


def counterexample_permutation(net: Network, bad: Sequence[int]) -> list[int]:
    """Lift a failing binary vector to a failing permutation of 0..width-1.

    Zeros become the low values and ones the high values, each group in
    input order, so a monotone threshold maps the permutation back onto
    ``bad``; the permutation therefore mis-sorts whenever ``bad`` does.
    """
    if len(bad) != net.width:
        raise ValueError(f"expected {net.width} bits, got {len(bad)}")
    if any(bit not in (0, 1) for bit in bad):
        raise ValueError("counterexample vector must be binary")
    out = net.apply(list(bad))
    if all(a <= b for a, b in zip(out, out[1:])):
        raise ValueError("network sorts this vector; nothing to witness")
    zeros = sum(1 for bit in bad if bit == 0)
    next_low, next_high = 0, zeros
    perm = []
    for bit in bad:
        if bit:
            perm.append(next_high)
            next_high += 1
        else:
            perm.append(next_low)
            next_low += 1
    return perm


class Poset(_Record):
    """The always-at-most relation between wires after a network prefix.

    ``rows[a]`` is a bitmask with bit b set iff wire a's value is at most
    wire b's value on every binary input.  The relation is reflexive and
    transitive by construction; construction refuses a relation that is
    not antisymmetric.
    """

    __slots__ = ("width", "rows")

    def __init__(self, width: int, rows: tuple[int, ...]):
        _set_field(self, "width", width)
        _set_field(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        rows = self.rows
        for a in range(self.width):
            for b in range(a + 1, self.width):
                if (rows[a] >> b) & 1 and (rows[b] >> a) & 1:
                    raise DegenerateOrderError(
                        f"wires {a} and {b} are forced equal on all binary inputs"
                    )

    def leq(self, a: int, b: int) -> bool:
        return (self.rows[a] >> b) & 1 == 1

    def covers(self, elements: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Cover pairs (transitive reduction) of the order, optionally
        restricted to a subset of wires, in (a, b) order."""
        elems = sorted(elements) if elements is not None else range(self.width)
        keep = sum(1 << e for e in set(elems))
        # up[a]: the kept wires strictly above a.  b covers a unless b is
        # also above some c in up[a].
        up = {a: self.rows[a] & keep & ~(1 << a) for a in elems}
        out = []
        for a in elems:
            above, through = up[a], 0
            while above:
                through |= up[_backend.lowest(above)]
                above &= above - 1
            cover = up[a] & ~through
            out += [(a, b) for b in elems if cover >> b & 1]
        return out


def poset_from_rows(width: int, rows: Sequence[int]) -> Poset:
    """Build a Poset from leq rows; raises DegenerateOrderError when two
    distinct wires are forced equal."""
    return Poset(width, tuple(rows))


def infer_poset(net: Network) -> Poset:
    """Infer the known-at-most relation over all binary inputs."""
    rows = _backend.leq_masks(net.width, net.pairs())
    return poset_from_rows(net.width, rows)
