"""Comparator networks: representation, evaluation, composition, scheduling.

A comparator network is an ordered sequence of (low, high) wire pairs on a
fixed number of wires.  Applying a comparator routes the smaller of the two
wire values to ``low`` and the larger to ``high``.  Every network built here
is therefore a *standard* network: sorted inputs are fixed points, and the
maximum always travels toward the highest wire index.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Sequence


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

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Comparator:
    """A single min/max gadget between two wires, optionally tagged with the
    structural block it belongs to."""

    low: int
    high: int
    tag: Phase | None = None

    def __post_init__(self):
        if not 0 <= self.low < self.high:
            raise ValueError(
                f"comparator ({self.low}, {self.high}) needs 0 <= low < high"
            )


def _as_comparator(item) -> Comparator:
    if isinstance(item, Comparator):
        return item
    return Comparator(*item)


@dataclass(frozen=True)
class Network:
    """An ordered sequence of comparators on ``width`` wires.

    Comparators may be given as ``Comparator`` instances or bare
    ``(low, high)`` pairs; pairs are normalised on construction.
    """

    width: int
    comparators: tuple[Comparator, ...] = ()

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("network width must be at least 1")
        comps = tuple(_as_comparator(c) for c in self.comparators)
        for c in comps:
            if c.high >= self.width:
                raise ValueError(
                    f"comparator ({c.low}, {c.high}) exceeds width {self.width}"
                )
        object.__setattr__(self, "comparators", comps)

    def __len__(self) -> int:
        return len(self.comparators)

    @property
    def size(self) -> int:
        """Number of comparators (the network's complexity)."""
        return len(self.comparators)

    def apply(self, values: Sequence) -> list:
        """Run the network on a sequence of totally ordered values.

        Returns a new list; the output is always a permutation of the input.
        """
        if len(values) != self.width:
            raise ValueError(f"expected {self.width} values, got {len(values)}")
        out = list(values)
        for c in self.comparators:
            a, b = out[c.low], out[c.high]
            if b < a:
                out[c.low], out[c.high] = b, a
        return out

    def tagged(self, tag: Phase | None) -> Network:
        """Copy of this network with every comparator carrying ``tag``."""
        return Network(
            self.width, tuple(Comparator(c.low, c.high, tag) for c in self.comparators)
        )

    def prefix(self, count: int) -> Network:
        """The first ``count`` comparators as a network of the same width."""
        return Network(self.width, self.comparators[:count])

    def prefix_through(self, tag: Phase) -> Network:
        """Prefix ending at the last comparator tagged ``tag``."""
        last = None
        for i, c in enumerate(self.comparators):
            if c.tag is tag:
                last = i
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
        return [(c.low, c.high) for c in self.comparators]


def concat(a: Network, b: Network) -> Network:
    """Sequential composition; both networks must share a width."""
    if a.width != b.width:
        raise ValueError(f"width mismatch: {a.width} vs {b.width}")
    return Network(a.width, a.comparators + b.comparators)


def concat_all(first: Network, *rest: Network) -> Network:
    return reduce(concat, rest, first)


def embed(block: Network, wires: Sequence[int], host_width: int) -> Network:
    """Place ``block`` on the given target wires of a wider network.

    ``wires[i]`` names the host wire playing the role of block wire ``i``.
    The target list must be strictly ascending so the min-to-low orientation
    of every comparator is preserved.
    """
    targets = list(wires)
    if len(targets) != block.width:
        raise ValueError(
            f"block width {block.width} != {len(targets)} target wires"
        )
    if any(b <= a for a, b in zip(targets, targets[1:])):
        raise ValueError("target wires must be strictly ascending")
    if targets and not (0 <= targets[0] and targets[-1] < host_width):
        raise ValueError("target wires fall outside the host network")
    comps = tuple(
        Comparator(targets[c.low], targets[c.high], c.tag) for c in block.comparators
    )
    return Network(host_width, comps)


@dataclass(frozen=True)
class LayeredSchedule:
    """ASAP layering of a network: 1-based layer per comparator position.

    Two comparators in the same layer never share a wire, and the number of
    layers equals the length of the longest chain of wire-sharing
    comparators, so ``depth`` is the network's parallel time.
    """

    layers: tuple[int, ...]
    depth: int


def asap_schedule(net: Network) -> LayeredSchedule:
    """Schedule each comparator at the earliest layer its wires allow."""
    # Keyed by the wires comparators touch: the declared width costs nothing.
    last: defaultdict[int, int] = defaultdict(int)
    layers = []
    for c in net.comparators:
        layer = 1 + max(last[c.low], last[c.high])
        layers.append(layer)
        last[c.low] = last[c.high] = layer
    return LayeredSchedule(tuple(layers), max(layers, default=0))


def depth(net: Network) -> int:
    """ASAP depth of the network (0 for an empty network)."""
    return asap_schedule(net).depth
