"""Machine checks for the structural claims behind the 16-input sorters.

The approximate-sorting prefix pins down a lot more than the cube order
itself; the checks here confirm each of the distributional claims the
constructions rely on, exhaustively over all 2**16 binary inputs and,
as a sanity cross-check, over seeded random permutations:

a) the extreme wires already hold the extreme values;
b) the 2nd/3rd largest values sit on layer III, the 2nd/3rd smallest on
   layer I;
c) the six medial values fall inside the 8-wire candidate set M;
d) the 4th/5th largest are the 3rd largest of layer III and the maximum of
   M (dually at the bottom).

How claims a-d are checked.  Over binary inputs every claim compares order
statistics (the r-th smallest of all outputs, of a layer, or of M), and on
0/1 values an order statistic is a threshold: the r-th smallest (from 0) of
s values is 1 exactly when at least s - r of them are 1.  So the exhaustive
mode evaluates the prefix once on the bit-slice engine (one 2**16-bit int
per wire), builds the "at least j ones" slices over all outputs, layer I,
layer III and M with ``_bitslice.at_least``, and states each claim as bitwise
identities of those slices; a 6-of-8 multiset inclusion, for instance, is
"at most as many ones and at most as many zeros".  This is the matrix check
(sort every input's outputs, compare columns) with the sort replaced by its
value on 0/1 inputs, so the verdict per input and hence the lexicographically
least counterexample are the same; ``tests/test_analysis.py`` keeps the
matrix check as its oracle.  The sampled mode runs random permutations of
0..15 through the prefix on per-wire numpy rows, the one use of numpy in
the package (imported there); the r-th smallest of all outputs is then r
itself, and only layers I and III need sorting.

Also here: the cube-order check itself, the partial orders established on
M by each construction's preliminary comparisons, the strategy-completeness
check (any 8-sorter on the M wires completes the network), and the depth
regression for the merge ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import _bitslice
from .constructions import (
    CUBE_LAYER1,
    CUBE_LAYER3,
    LOWER_TETRAD,
    M_WIRES,
    MIDDLE_LAYER,
    UPPER_TETRAD,
    batcher_sorter,
    green16,
    green16_naive_merge,
    hypercube_phase,
    sorter4,
    strategy_sorter,
    van_voorhis16,
)
from .network import Network, Phase, depth
from .verify import infer_poset, verify_sorts_binary

if TYPE_CHECKING:
    import numpy as np

EXHAUSTIVE = "exhaustive-binary"
SAMPLED = "sampled-permutations"
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 0xC0FFEE

CLAIM_NAMES = ("a", "b", "c", "d")

_SORTER4 = sorter4()  # sorts the four wires of layer I or III in sampled mode
_FULL16 = (1 << (1 << 16)) - 1  # all-ones slice over the 2**16 binary inputs


@dataclass(frozen=True)
class ClaimVerdict:
    holds: bool
    counterexample: tuple[int, ...] | None = None


@dataclass(frozen=True)
class ObservationReport:
    """Verdicts for claims a-d under one checking mode."""

    mode: str
    inputs_checked: int
    seed: int | None
    claims: dict[str, ClaimVerdict]

    @property
    def all_hold(self) -> bool:
        return all(v.holds for v in self.claims.values())

    def to_lines(self) -> list[str]:
        seed = "-" if self.seed is None else hex(self.seed)
        lines = [f"observations mode={self.mode} inputs={self.inputs_checked} seed={seed}"]
        for name in CLAIM_NAMES:
            verdict = self.claims[name]
            if verdict.holds:
                lines.append(f"{name}: holds")
            else:
                bits = " ".join(str(x) for x in verdict.counterexample)
                lines.append(f"{name}: FAIL input=[{bits}]")
        return lines


def check_cube_poset(net: Network, n: int) -> bool:
    """Does the network order its wires exactly into the n-cube order?"""
    width = 1 << n
    if net.width != width:
        raise ValueError(f"expected width {width} for n={n}, got {net.width}")
    poset = infer_poset(net)
    return all(
        poset.leq(a, b) == ((a & b) == a) for a in range(width) for b in range(width)
    )


def _exhaustive_masks(prefix: Network) -> dict[str, int]:
    """Claim slices over all 2**16 binary inputs (see the module docstring)."""
    out = _bitslice.evaluate(16, prefix.pairs())
    full = _FULL16
    t = _bitslice.at_least(out, full)  # rank r is t[16 - r]
    l1 = _bitslice.at_least([out[w] for w in CUBE_LAYER1], full)
    l3 = _bitslice.at_least([out[w] for w in CUBE_LAYER3], full)
    m = _bitslice.at_least([*(out[w] for w in MIDDLE_LAYER), l3[4], l1[1]], full)

    def same(x, y):
        return full ^ x ^ y

    a = same(out[15], t[1]) & same(out[0], t[16])
    b = same(l3[1], t[2]) & same(l3[2], t[3]) & same(l1[4], t[15]) & same(l1[3], t[14])
    c = full
    for j in range(1, 7):
        # ranks 5..10 hold no more ones than M, and no more zeros
        c &= ((full ^ t[5 + j]) | m[j]) & (t[12 - j] | (full ^ m[9 - j]))
    d = (
        same(l3[3] & m[1], t[5])
        & same(l3[3] | m[1], t[4])
        & same(l1[2] & m[8], t[13])
        & same(l1[2] | m[8], t[12])
    )
    return {"a": a, "b": b, "c": c, "d": d}


def _permutation_inputs(width: int, samples: int, seed: int) -> np.ndarray:
    import numpy as np

    rng = np.random.default_rng(seed)
    base = np.tile(np.arange(width, dtype=np.int64), (samples, 1))
    return rng.permuted(base, axis=1)


def _sampled_claims(prefix: Network, inputs: np.ndarray) -> dict[str, ClaimVerdict]:
    """Claims a-d over permutations of 0..15, on which rank r is r; a
    failing claim carries the first permutation it fails on."""
    import numpy as np

    def apply_rows(rows: list[np.ndarray], net: Network) -> None:
        """Apply ``net`` in place to per-wire rows of values."""
        spare = np.empty_like(rows[0])
        for c in net.comparators:
            lo, hi = rows[c.low], rows[c.high]
            np.minimum(lo, hi, out=spare)
            np.maximum(lo, hi, out=hi)
            rows[c.low], spare = spare, lo

    out = list(np.ascontiguousarray(inputs.T, dtype=np.uint8))
    apply_rows(out, prefix)
    l1 = [out[w].copy() for w in CUBE_LAYER1]
    l3 = [out[w].copy() for w in CUBE_LAYER3]
    apply_rows(l1, _SORTER4)
    apply_rows(l3, _SORTER4)
    m = np.array([*(out[w] for w in MIDDLE_LAYER), l3[0], l1[3]])
    m_lo, m_hi = m.min(axis=0), m.max(axis=0)

    def pair_is(lo, hi, x, y):
        return (np.minimum(x, y) == lo) & (np.maximum(x, y) == hi)

    a = (out[15] == 15) & (out[0] == 0)
    b = (l3[3] == 14) & (l3[2] == 13) & (l1[0] == 1) & (l1[1] == 2)
    # M holds distinct values, so it contains ranks 5..10 iff six of them lie there.
    c = np.count_nonzero((m >= 5) & (m <= 10), axis=0) == 6
    d = pair_is(11, 12, l3[1], m_hi) & pair_is(3, 4, l1[2], m_lo)
    claims = {}
    for name, ok in {"a": a, "b": b, "c": c, "d": d}.items():
        bad = np.flatnonzero(~ok)
        claims[name] = (
            ClaimVerdict(True)
            if len(bad) == 0
            else ClaimVerdict(False, tuple(int(x) for x in inputs[bad[0]]))
        )
    return claims


def check_observations(
    prefix: Network | None = None,
    *,
    mode: str = EXHAUSTIVE,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> ObservationReport:
    """Check claims a-d for a width-16 prefix network.

    ``mode=EXHAUSTIVE`` sweeps all 2**16 binary inputs (authoritative) as
    threshold slices on the bit-slice engine; ``mode=SAMPLED`` spot-checks
    ``samples`` permutations of 0..15 drawn from ``seed``.  A failing claim
    carries its least counterexample: the lexicographically least binary
    input vector, or the first failing permutation drawn.  ``samples`` must
    be at least 1 in either mode.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if prefix is None:
        prefix = hypercube_phase(4)
    if prefix.width != 16:
        raise ValueError("observation checks are defined for width 16")
    claims = {}
    if mode == EXHAUSTIVE:
        inputs_checked, used_seed = 1 << 16, None
        for name, ok in _exhaustive_masks(prefix).items():
            first = _bitslice.lowest(_FULL16 ^ ok)
            claims[name] = (
                ClaimVerdict(True)
                if first < 0
                else ClaimVerdict(False, _bitslice.vector_of(first, 16))
            )
    elif mode == SAMPLED:
        inputs = _permutation_inputs(16, samples, seed)
        inputs_checked, used_seed = len(inputs), seed
        claims = _sampled_claims(prefix, inputs)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return ObservationReport(mode, inputs_checked, used_seed, claims)


def _dominates(poset, upper: int) -> int:
    return sum(poset.leq(low, upper) for low in LOWER_TETRAD)


def _dominated_by(poset, lower: int) -> int:
    return sum(poset.leq(lower, up) for up in UPPER_TETRAD)


def check_green_m_poset(prefix: Network | None = None) -> bool:
    """Partial order on M after Green's tetrad sorts.

    Every sorted upper-tetrad wire must beat at least two lower-tetrad
    wires (wire 9, the second-smallest of the upper chain, at least three),
    every lower wire must lose to at least two upper wires, and in
    consequence wires 12, 10 must be the determined top two of M and wires
    3, 5 the bottom two.
    """
    if prefix is None:
        prefix = green16().prefix_through(Phase.TETRAD_B)
    poset = infer_poset(prefix)
    if not all(_dominates(poset, u) >= 2 for u in UPPER_TETRAD):
        return False
    if _dominates(poset, 9) < 3:
        return False
    if not all(_dominated_by(poset, low) >= 2 for low in LOWER_TETRAD):
        return False
    top_two = all(poset.leq(w, 12) for w in M_WIRES if w != 12) and all(
        poset.leq(w, 10) for w in M_WIRES if w not in (10, 12)
    )
    bottom_two = all(poset.leq(3, w) for w in M_WIRES if w != 3) and all(
        poset.leq(5, w) for w in M_WIRES if w not in (3, 5)
    )
    return top_two and bottom_two


def check_vv_m_poset(prefix: Network | None = None) -> bool:
    """Partial order on M after van Voorhis's second pair round: every
    upper-tetrad wire beats at least three lower-tetrad wires and vice
    versa, which pins the top three of M to the upper tetrad, the bottom
    three to the lower, and leaves (7, 8) as the medial pair."""
    if prefix is None:
        prefix = van_voorhis16().prefix_through(Phase.PAIRS2)
    poset = infer_poset(prefix)
    return all(_dominates(poset, u) >= 3 for u in UPPER_TETRAD) and all(
        _dominated_by(poset, low) >= 3 for low in LOWER_TETRAD
    )


def check_strategy_completeness(m_sorter: Network | None = None) -> bool:
    """Cube phase + layer sorters + any M sorter + final pair = full sorter."""
    if m_sorter is None:
        m_sorter = batcher_sorter(8)
    return verify_sorts_binary(strategy_sorter(m_sorter)).sorts


def check_depth_regression() -> bool:
    """Leading the Green merge with (7, 8) saves at least one layer."""
    return depth(green16()) == 10 and depth(green16_naive_merge()) >= 11
