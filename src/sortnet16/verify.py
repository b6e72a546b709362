"""Exhaustive binary verification and order inference for networks.

By the zero-one principle a network sorts every input iff it sorts every
binary input, so every verdict here covers the full 2**width binary input
space.  The slice engine ``_bitslice``, the module attribute ``_backend``,
sweeps the binary vectors the network's first layer can output, which
stand for every input; this module turns its answers into a ``SortVerdict``
with the least failing input, lifts that input to a failing permutation,
and builds the ``Poset`` of wire order, which refuses two wires forced
equal.
"""

from __future__ import annotations

import operator
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

    The engine sweeps the first layer's outputs block by block, in index
    order of the top wires, and the first block with a failing input ends
    the sweep.
    """
    bad = _backend.first_unsorted(net.width, net._pairs)
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
    transitive by construction; construction reads the width and each row
    through ``operator.index``, and refuses rows other than one per wire
    within the width, and a relation that is not antisymmetric.  ``leq``
    and ``covers`` read wires through ``wire``, which refuses one outside
    0..width-1.
    """

    __slots__ = _fields = ("width", "rows")

    def __init__(self, width: int, rows: tuple[int, ...]):
        _set_field(self, "width", width)
        _set_field(self, "rows", rows)
        self.__post_init__()

    def __post_init__(self) -> None:
        width, rows = operator.index(self.width), tuple(map(operator.index, self.rows))
        if len(rows) != width:
            raise ValueError(f"{len(rows)} rows for width {width}")
        for a, row in enumerate(rows):
            if row >> width:
                raise ValueError(f"row {a} names a wire outside 0..{width - 1}")
            for b in range(a + 1, width):
                if (row >> b) & 1 and (rows[b] >> a) & 1:
                    raise DegenerateOrderError(
                        f"wires {a} and {b} are forced equal on all binary inputs"
                    )
        _set_field(self, "width", width)
        _set_field(self, "rows", rows)

    def wire(self, w) -> int:
        """Wire ``w`` read through ``operator.index``; refuses one outside
        0..width-1."""
        w = operator.index(w)
        if not 0 <= w < self.width:
            raise ValueError(f"wire {w} is outside 0..{self.width - 1}")
        return w

    def leq(self, a: int, b: int) -> bool:
        width = self.width  # exact-int wires in range pass on these tests alone
        if not (type(a) is int and type(b) is int and 0 <= a < width and 0 <= b < width):
            a, b = self.wire(a), self.wire(b)
        return (self.rows[a] >> b) & 1 == 1

    def covers(self, elements: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Cover pairs (transitive reduction) of the order, optionally
        restricted to a subset of wires, each named once, in (a, b) order."""
        elems = sorted(map(self.wire, elements)) if elements is not None else range(self.width)
        keep = 0
        for e in elems:
            if keep >> e & 1:
                raise ValueError(f"wire {e} is named twice")
            keep |= 1 << e
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
    rows = _backend.leq_masks(net.width, net._pairs)
    return poset_from_rows(net.width, rows)
