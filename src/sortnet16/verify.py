"""Exhaustive binary verification and order inference for networks.

By the zero-one principle a network sorts every input iff it sorts every
binary input, so all checks here sweep the full 2**width binary input
space.  The sweep runs on the numpy-word slice engine in ``_bitslice``,
reached through the module attribute ``_backend``; it is the only
verifier.  The engine's ``MAX_WIDTH`` is the one width limit: wider
networks are refused before anything is allocated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _bitslice as _backend
from .network import Network


def backend_name() -> str:
    """Name of the slice engine: always "python" (numpy words, no compiled
    extension)."""
    return "python"


class DegenerateOrderError(ValueError):
    """Two distinct wires carry equal values on every binary input."""


def _wire_lists(net: Network) -> tuple[list[int], list[int]]:
    return [c.low for c in net.comparators], [c.high for c in net.comparators]


@dataclass(frozen=True)
class SortVerdict:
    """Outcome of exhaustive verification.

    ``counterexample`` is the lexicographically least binary input the
    network fails to sort, or None when it sorts everything.
    """

    sorts: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.sorts


def verify_sorts_binary(net: Network) -> SortVerdict:
    """Check all 2**width binary inputs at once on the slice engine."""
    lows, highs = _wire_lists(net)
    bad = _backend.first_unsorted(net.width, lows, highs)
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


@dataclass(frozen=True)
class Poset:
    """The always-at-most relation between wires after a network prefix.

    ``rows[a]`` is a bitmask with bit b set iff wire a's value is at most
    wire b's value on every binary input.  The relation is reflexive and
    transitive by construction and antisymmetric by the degeneracy check
    in ``infer_poset``.
    """

    width: int
    rows: tuple[int, ...]

    def leq(self, a: int, b: int) -> bool:
        return (self.rows[a] >> b) & 1 == 1

    def above(self, a: int) -> list[int]:
        """Wires known to be >= wire a (including a itself)."""
        return [b for b in range(self.width) if self.leq(a, b)]

    def below(self, b: int) -> list[int]:
        """Wires known to be <= wire b (including b itself)."""
        return [a for a in range(self.width) if self.leq(a, b)]

    def matrix(self) -> list[list[bool]]:
        return [[self.leq(a, b) for b in range(self.width)] for a in range(self.width)]

    def relation_pairs(self) -> list[tuple[int, int]]:
        """All ordered pairs (a, b) with a != b and a <= b."""
        return [
            (a, b)
            for a in range(self.width)
            for b in range(self.width)
            if a != b and self.leq(a, b)
        ]

    def covers(self, elements: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Cover pairs (transitive reduction) of the order, optionally
        restricted to a subset of wires."""
        elems = sorted(elements) if elements is not None else list(range(self.width))
        out = []
        for a in elems:
            for b in elems:
                if a == b or not self.leq(a, b):
                    continue
                if not any(
                    c != a and c != b and self.leq(a, c) and self.leq(c, b)
                    for c in elems
                ):
                    out.append((a, b))
        return out

    def is_total_chain(self, elements: Sequence[int] | None = None) -> bool:
        """True when the (restricted) order is total."""
        elems = sorted(elements) if elements is not None else list(range(self.width))
        return all(
            self.leq(a, b) or self.leq(b, a) for a in elems for b in elems if a != b
        )


def poset_from_rows(width: int, rows: Sequence[int]) -> Poset:
    """Build a Poset, rejecting forced equality between distinct wires."""
    for a in range(width):
        for b in range(a + 1, width):
            if (rows[a] >> b) & 1 and (rows[b] >> a) & 1:
                raise DegenerateOrderError(
                    f"wires {a} and {b} are forced equal on all binary inputs"
                )
    return Poset(width, tuple(rows))


def infer_poset(net: Network) -> Poset:
    """Infer the known-at-most relation over all binary inputs."""
    lows, highs = _wire_lists(net)
    rows = _backend.leq_masks(net.width, lows, highs)
    return poset_from_rows(net.width, rows)
