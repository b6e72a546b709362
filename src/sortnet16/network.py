"""Comparator networks: representation, evaluation, scheduling.

A comparator network is an ordered sequence of (low, high) wire pairs on a
fixed number of wires.  Applying a comparator routes the smaller of the two
wire values to ``low`` and the larger to ``high``.  Every network built here
is therefore a *standard* network: sorted inputs are fixed points, and the
maximum always travels toward the highest wire index.
"""

from __future__ import annotations

import operator
from collections import defaultdict
from enum import Enum
from typing import NamedTuple, Sequence


class Phase(str, Enum):
    """Structural block labels for the 16-input constructions."""

    APPROX = "approx"
    LAYER1 = "layer1"
    LAYER3 = "layer3"
    PAIRS = "pairs"
    PAIRS2 = "pairs2"
    TETRAD_A = "tetradA"
    TETRAD_B = "tetradB"
    MERGE = "merge"
    FINAL = "final"


class Comparator(NamedTuple):
    """A single min/max gadget between two wires, optionally tagged with the
    structural block it belongs to.  A plain record: the ``Network`` that
    holds it checks its wires."""

    low: int
    high: int
    tag: Phase | None = None


class _Record:
    """Base of the records that check their fields: the fields, named in
    ``_fields``, are stored by ``__init__`` before ``__post_init__`` checks
    them.  Equality, hash, repr and pickling go by the fields alone, not by
    other slots; assignment raises AttributeError, and pickling calls the
    constructor, checks included.  Plain classes keep ``inspect``, ``ast``
    and ``dis`` out of every CLI process, which ``tests/test_cli.py`` pins."""

    __slots__ = _fields = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


_set_field = object.__setattr__  # how __init__ and __post_init__ store a field


# Untagged records of bare exact-int pairs, shared by every network that
# names the pair; the table holds at most _SHARED_MAX of them.
_SHARED_MAX = 4096
_shared: dict[tuple[int, int], Comparator] = {}


class Network(_Record):
    """An ordered sequence of comparators on ``width`` wires.

    Comparators may be given as ``Comparator`` instances or bare
    ``(low, high)`` pairs; pairs are normalised on construction.  This is
    the one place that checks comparators: each wire must be an int (read
    through ``operator.index`` and stored as the int it returns) with
    ``0 <= low < high < width``, and a tag other than None is read through
    ``Phase``, so "approx" is stored as ``Phase.APPROX`` and an unknown tag
    raises ValueError.  The check runs once; the pairs it passed are kept.
    """

    _fields = ("width", "comparators")
    __slots__ = _fields + ("_pairs",)

    def __init__(self, width: int, comparators: Sequence = ()):
        _set_field(self, "width", width)
        _set_field(self, "comparators", comparators)
        self.__post_init__()

    def __post_init__(self):
        index = operator.index
        width = index(self.width)
        if width < 1:
            raise ValueError("network width must be at least 1")
        comps, pairs = [], []
        for c in self.comparators:
            # Exact-int wires in range, with no tag or a Phase, are normal as
            # they stand: no operator.index, and a bare pair's record is shared.
            if type(c) is tuple and len(c) == 2:
                low, high = c
                if type(low) is int and type(high) is int and 0 <= low < high < width:
                    rec = _shared.get(c)
                    if rec is None and len(_shared) < _SHARED_MAX:
                        rec = _shared[c] = Comparator(low, high)
                    comps.append(rec or Comparator(low, high))
                    pairs.append(c)
                    continue
            elif type(c) is Comparator:
                low, high, tag = c
                if (type(low) is int and type(high) is int and 0 <= low < high < width
                        and (tag is None or type(tag) is Phase)):
                    comps.append(c)
                    pairs.append((low, high))
                    continue
            low, high, tag = c if type(c) is Comparator else Comparator(*c)
            lo, hi = index(low), index(high)
            if not 0 <= lo < hi:
                raise ValueError(f"comparator ({low}, {high}) needs 0 <= low < high")
            if hi >= width:
                raise ValueError(f"comparator ({low}, {high}) exceeds width {width}")
            # Wires are stored as plain ints (not bools or numpy ints) and tags
            # as Phase members, so the network renders as text that parse_text
            # reads back.
            comps.append(Comparator(lo, hi, None if tag is None else Phase(tag)))
            pairs.append((lo, hi))
        _set_field(self, "width", width)
        _set_field(self, "comparators", tuple(comps))
        _set_field(self, "_pairs", tuple(pairs))

    def __len__(self) -> int:
        return len(self.comparators)

    def apply(self, values: Sequence) -> list:
        """Run the network on a sequence of totally ordered values.

        Returns a new list; the output is always a permutation of the input.
        """
        if len(values) != self.width:
            raise ValueError(f"expected {self.width} values, got {len(values)}")
        out = list(values)
        for low, high in self._pairs:
            a, b = out[low], out[high]
            if b < a:
                out[low], out[high] = b, a
        return out

    def prefix(self, count: int) -> Network:
        """The first ``count`` comparators as a network of the same width."""
        if not 0 <= count <= len(self):
            raise ValueError(f"prefix length must be in 0..{len(self)}, got {count}")
        return Network(self.width, self.comparators[:count])

    def prefix_through(self, tag: Phase) -> Network:
        """Prefix ending at the last comparator tagged ``tag``, read as a Phase."""
        tag = Phase(tag)
        last = max((i for i, c in enumerate(self.comparators) if c.tag is tag), default=None)
        if last is None:
            raise ValueError(f"network has no comparator tagged {tag.value!r}")
        return self.prefix(last + 1)

    def phase_counts(self) -> dict[Phase | None, int]:
        """Comparator count per tag, in first-appearance order."""
        counts: dict[Phase | None, int] = {}
        for c in self.comparators:
            counts[c.tag] = counts.get(c.tag, 0) + 1
        return counts

    def pairs(self) -> list[tuple[int, int]]:
        """The comparators as bare ``(low, high)`` pairs, the slice engine's
        input: a new list on each call."""
        return list(self._pairs)


def asap_schedule(net: Network) -> tuple[int, ...]:
    """ASAP layering: the 1-based layer of each comparator, the earliest its
    wires allow.

    Two comparators in the same layer never share a wire, and the number of
    layers equals the length of the longest chain of wire-sharing
    comparators, so the largest layer is the network's parallel time.
    """
    # Keyed by the wires comparators touch: the declared width costs nothing.
    last: defaultdict[int, int] = defaultdict(int)
    layers = []
    for low, high in net._pairs:
        layer = 1 + max(last[low], last[high])
        layers.append(layer)
        last[low] = last[high] = layer
    return tuple(layers)


def depth(net: Network) -> int:
    """ASAP depth of the network (0 for an empty network)."""
    return max(asap_schedule(net), default=0)
