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
mode runs the prefix on the slice engine's sweep (``_bitslice._sweep``),
counts the ones of all outputs, of layer I, of layer III and of M on each
lane of a block (``_bitslice.count``), compares each count with every
constant j to get the "at least j ones" slices (``_bitslice.at_least``),
and states each claim as bitwise identities of those slices; a 6-of-8
multiset inclusion, for instance, is "at most as many ones and at most as
many zeros".  This is the
matrix check (sort every input's outputs, compare columns) with the sort
replaced by its value on 0/1 inputs, so the verdict per input and hence the
lexicographically least counterexample are the same;
``tests/test_analysis.py`` keeps the matrix check as its oracle.

The sweep covers only what the prefix's first layer can output (one block
of 3**8 = 6,561 lanes for the cube phase), and its first failing block
holds a claim's least failing input; the ``_bitslice`` docstring gives
the argument.

The sampled mode runs seeded random permutations of 0..15 through the
prefix, on which the r-th smallest of all outputs is r itself.  It holds
each wire's values as four bit planes, Python ints with one bit per lane:
bit k of plane t is bit t of lane k's value.  The permutations are drawn
by Fisher-Yates, a comparator is a bit-sliced 4-bit "greater than" and a
swap in the lanes where it holds, layers I and III are sorted the same
way, and each claim is a per-lane identity: a value equal to a constant,
six of M's eight values in 5..10, or bounds on the minimum and maximum of M.
Every bound is one ``_bitslice.at_least`` compare of a value's planes with
a constant, and claim c compares with 6 the ``_bitslice.count`` of the
eight "lies in 5..10" slices.

The draw's cost depends on the number of samples, not on its unluckiest
lane.  Each Fisher-Yates step draws its index by rejection, random bits
drawn again in the lanes where they are too large, but for at most ROUNDS
rounds; a lane still rejected then is not valid, and its permutation is
not used.  The valid lanes are exactly uniform samples.  Given acceptance
within ROUNDS rounds, a step's value is uniform on its range, and the
steps draw independent bits.  A lane's validity depends only on its own
draws, so the valid lanes hold independent uniform permutations, and
taking the first ``samples`` of them in lane order is a stopping rule on an
i.i.d. sequence.  At ROUNDS = 4, 90.5% of lanes are valid.  Each block
draws about 1/8 more lanes than the sample still needs, plus 64, so one
block nearly always suffices; more are drawn while the sample is short.
A seed's sample is deterministic.

Exhaustive claims a, b and d imply all four claims on every permutation.
Comparators commute with thresholds, so a, b and d hold on a permutation
iff they hold on its 15 threshold inputs; the 8 wires outside M then hold
ranks 0-2, 13-15, one of 3-4 and one of 11-12, leaving ranks 5-10 on M
(claim c).  So the sampled mode cannot fail while exhaustive a, b, d hold.

Also here: the cube-order check itself, the partial orders established on
M by each construction's preliminary comparisons, the strategy-completeness
check (any 8-sorter on the M wires completes the network), and the depth
regression for the merge ordering.
"""

from __future__ import annotations

import operator
import random
from bisect import bisect_left
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import _bitslice
from .constructions import (
    CUBE_LAYER1,
    CUBE_LAYER3,
    LOWER_TETRAD,
    M_WIRES,
    MIDDLE_LAYER,
    UPPER_TETRAD,
    _SORTER4,
    batcher_sorter,
    green16,
    green16_naive_merge,
    hypercube_phase,
    strategy_sorter,
    van_voorhis16,
)
from .network import Network, Phase, depth
from .verify import infer_poset, verify_sorts_binary

EXHAUSTIVE = "exhaustive-binary"
SAMPLED = "sampled-permutations"
DEFAULT_SAMPLES = 10_000
DEFAULT_SEED = 0xC0FFEE

CLAIM_NAMES = ("a", "b", "c", "d")

# Sampled mode: permutations are drawn and checked this many at a time.
SAMPLE_BLOCK = 1 << 16
# Largest sample, the input count of the widest exhaustive sweep.  A budget
# of time: 2**26 samples took 6.5-7.4 s (two runs, 2-vCPU VM), ~16 MB peak,
# and the time grows with the count.
MAX_SAMPLES = 1 << _bitslice.MAX_WIDTH
# Rounds of random bits a step of the draw takes before it gives a lane up.
ROUNDS = 4

Planes = tuple[int, int, int, int]  # a value 0..15 per lane, bit t in entry t


class ClaimVerdict(NamedTuple):
    holds: bool
    counterexample: tuple[int, ...] | None = None


class ObservationReport(NamedTuple):
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
    cube = tuple(sum(1 << b for b in range(width) if a & b == a) for a in range(width))
    return infer_poset(net).rows == cube


def _binary_masks(out: list[int], full: int) -> dict[str, int]:
    """Per-lane verdicts of claims a-d on the output slices ``out`` of a
    block of binary inputs whose all-ones slice is ``full`` (see the module
    docstring)."""
    count, at_least = _bitslice.count, _bitslice.at_least
    ones = count(out)
    t = [at_least(ones, j, full) for j in range(17)]  # rank r is t[16 - r]
    ones = count([out[w] for w in CUBE_LAYER1])
    l1 = [at_least(ones, j, full) for j in range(5)]
    ones = count([out[w] for w in CUBE_LAYER3])
    l3 = [at_least(ones, j, full) for j in range(5)]
    ones = count([*(out[w] for w in MIDDLE_LAYER), l3[4], l1[1]])
    m = [at_least(ones, j, full) for j in range(9)]

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


def _exhaustive_claims(prefix: Network) -> dict[str, ClaimVerdict]:
    """Claims a-d over all 2**16 binary inputs, checked on the blocks of
    the slice engine's sweep; a failing claim carries its least failing
    input, found in the first block that fails it (see the module
    docstring)."""
    claims = {}
    for inputs, out, full in _bitslice._sweep(16, prefix._pairs):
        for name, ok in _binary_masks(out, full).items():
            if name not in claims and ok != full:
                bad = _bitslice._least(inputs, full ^ ok)
                claims[name] = ClaimVerdict(False, _bitslice.vector_of(bad, 16))
    return {name: claims.get(name, ClaimVerdict(True)) for name in CLAIM_NAMES}


def _below(getrandbits, n: int, lanes: int, full: int) -> tuple[list[int], int]:
    """Planes of one uniform draw from 0 .. n-1 per lane, and the lanes it
    failed in: random bits, drawn again in the lanes where they read n or
    more, for at most ROUNDS rounds in all."""
    planes = [getrandbits(lanes) for _ in range((n - 1).bit_length())]
    redraw = _bitslice.at_least(planes, n, full)
    for _ in range(ROUNDS - 1):
        if not redraw:
            break
        for t, p in enumerate(planes):
            planes[t] = p ^ ((p ^ getrandbits(lanes)) & redraw)
        redraw &= _bitslice.at_least(planes, n, full)
    return planes, redraw


def _one_hot(planes: Sequence[int], n: int, full: int) -> list[int]:
    """Lane masks of the values 0 .. n-1."""
    masks = [full]
    for p in reversed(planes):
        q = full ^ p
        masks = [m for x in masks for m in (x & q, x & p)]
    return masks[:n]


def _first_lanes(mask: int, k: int) -> int:
    """The k lowest set bits of ``mask`` (all of them if it has fewer)."""
    width = bisect_left(
        range(mask.bit_length()), k, key=lambda w: (mask & ((1 << w) - 1)).bit_count()
    )
    return mask & ((1 << width) - 1)


def _draw_permutations(samples: int, seed: int) -> Iterator[tuple[int, list[Planes], int]]:
    """Uniform permutations of 0..15 from ``seed``, in blocks of at most
    SAMPLE_BLOCK lanes: (lanes, wires, valid), where bit k of
    ``wires[w][t]`` is bit t of the value that lane k puts on wire w, and
    ``valid`` marks the lanes that are samples.  The valid lanes of all
    blocks number exactly ``samples``.

    Fisher-Yates (Knuth's Algorithm P), one step for every lane at once: for
    i = 15 .. 1 draw j uniform in 0 .. i and swap the values at i and j.  A
    lane whose draw failed in any step is not valid; the sample is the
    first ``samples`` valid lanes (see the module docstring).
    """
    getrandbits = random.Random(seed).getrandbits
    need = samples
    while need:
        lanes = min(SAMPLE_BLOCK, need + need // 8 + 64)
        full = (1 << lanes) - 1
        valid = full
        wires = [tuple(full if v >> t & 1 else 0 for t in range(4)) for v in range(16)]
        for i in range(15, 0, -1):
            planes, failed = _below(getrandbits, i + 1, lanes, full)
            valid &= ~failed
            h0, h1, h2, h3 = wires[i]
            for q, m in enumerate(_one_hot(planes, i, full)):
                l0, l1, l2, l3 = wires[q]
                d0, d1, d2, d3 = (l0 ^ h0) & m, (l1 ^ h1) & m, (l2 ^ h2) & m, (l3 ^ h3) & m
                wires[q] = (l0 ^ d0, l1 ^ d1, l2 ^ d2, l3 ^ d3)
                h0, h1, h2, h3 = h0 ^ d0, h1 ^ d1, h2 ^ d2, h3 ^ d3
            wires[i] = (h0, h1, h2, h3)
        valid = _first_lanes(valid, need)
        need -= valid.bit_count()
        yield lanes, wires, valid


def _compare_planes(wires: list[Planes], pairs: Iterable[tuple[int, int]]) -> list[Planes]:
    """Apply comparators to 4-bit values held as planes, in place: a
    bit-sliced "low > high" from the least significant bit up, then a
    swap in the lanes where it holds."""
    for a, b in pairs:
        l0, l1, l2, l3 = wires[a]
        h0, h1, h2, h3 = wires[b]
        x0, x1, x2, x3 = l0 ^ h0, l1 ^ h1, l2 ^ h2, l3 ^ h3
        gt = x0 & l0
        gt ^= (gt ^ l1) & x1  # where bit 1 differs, low > high iff low has it
        gt ^= (gt ^ l2) & x2
        gt ^= (gt ^ l3) & x3
        if gt:
            x0, x1, x2, x3 = x0 & gt, x1 & gt, x2 & gt, x3 & gt
            wires[a] = (l0 ^ x0, l1 ^ x1, l2 ^ x2, l3 ^ x3)
            wires[b] = (h0 ^ x0, h1 ^ x1, h2 ^ x2, h3 ^ x3)
    return wires


def _lane_values(wires: Sequence[Planes], k: int) -> tuple[int, ...]:
    """The values that lane k holds on each wire."""
    return tuple(sum((p >> k & 1) << t for t, p in enumerate(planes)) for planes in wires)


def _sampled_masks(out: list[Planes], full: int) -> dict[str, int]:
    """Per-lane verdicts of claims a-d on outputs of permutations of 0..15,
    on which rank r is the value r (see the module docstring)."""
    # Layers I and III sorted by the pairs of ``sorter4``.
    l1 = _compare_planes([out[w] for w in CUBE_LAYER1], _SORTER4)
    l3 = _compare_planes([out[w] for w in CUBE_LAYER3], _SORTER4)
    m = [*(out[w] for w in MIDDLE_LAYER), l3[0], l1[3]]

    def ge(v, c):
        return _bitslice.at_least(v, c, full)

    def within(v, lo, hi):
        return ge(v, lo) & ~ge(v, hi + 1)

    def equals(v, c):
        return within(v, c, c)

    a = equals(out[15], 15) & equals(out[0], 0)
    b = equals(l3[3], 14) & equals(l3[2], 13) & equals(l1[0], 1) & equals(l1[1], 2)
    # M holds distinct values, so it contains ranks 5..10 iff six of them lie there.
    c = ge(_bitslice.count([within(v, 5, 10) for v in m]), 6)
    # Claim d: {l3[1], max M} = {11, 12} and {l1[2], min M} = {3, 4}.  The
    # values are distinct, so this holds iff l3[1] lies in 11..12, l1[2] in
    # 3..4, and every value of M in 3..12.  For if no value of M were 11 or
    # more, the five values 11..15 would take the five places left to them
    # (l3[1..3] and wires 0 and 15), leaving only l1[0] and l1[1] for the
    # three values 0..2; dually at the bottom.
    d = within(l3[1], 11, 12) & within(l1[2], 3, 4)
    for v in m:
        d &= within(v, 3, 12)
    return {"a": a, "b": b, "c": c, "d": d}


def _sampled_claims(prefix: Network, samples: int, seed: int) -> dict[str, ClaimVerdict]:
    """Claims a-d over ``samples`` permutations drawn from ``seed``; a
    failing claim carries the first permutation it fails on."""
    pairs = prefix._pairs
    claims = {}
    for lanes, inputs, valid in _draw_permutations(samples, seed):
        masks = _sampled_masks(_compare_planes(list(inputs), pairs), (1 << lanes) - 1)
        for name, ok in masks.items():
            bad = valid & ~ok
            if name not in claims and bad:
                claims[name] = ClaimVerdict(False, _lane_values(inputs, _bitslice.lowest(bad)))
    return {name: claims.get(name, ClaimVerdict(True)) for name in CLAIM_NAMES}


def check_observations(
    prefix: Network | None = None,
    *,
    mode: str = EXHAUSTIVE,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> ObservationReport:
    """Check claims a-d for a width-16 prefix network.

    ``mode=EXHAUSTIVE`` covers all 2**16 binary inputs (authoritative) as
    threshold slices over what the prefix's first layer can output, on the
    bit-slice engine; ``mode=SAMPLED`` spot-checks ``samples`` permutations
    of 0..15 drawn from ``seed``.  A failing claim carries its least
    counterexample: the lexicographically least binary input vector, or the
    first failing permutation of the sample.  In either mode ``samples`` and
    ``seed`` are read as integers, and ``samples`` must lie in 1 .. MAX_SAMPLES.
    """
    samples, seed = operator.index(samples), operator.index(seed)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if prefix is None:
        prefix = hypercube_phase(4)
    if prefix.width != 16:
        raise ValueError("observation checks are defined for width 16")
    if mode == EXHAUSTIVE:
        inputs_checked, used_seed = 1 << 16, None
        claims = _exhaustive_claims(prefix)
    elif mode == SAMPLED:
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        inputs_checked, used_seed = samples, seed
        claims = _sampled_claims(prefix, samples, seed)
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
    if prefix.width != 16:
        raise ValueError("M-poset checks are defined for width 16")
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
    if prefix.width != 16:
        raise ValueError("M-poset checks are defined for width 16")
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
