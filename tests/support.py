"""Shared generators for randomized tests."""

from __future__ import annotations

import contextlib
import io
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations

from gridideals import (
    ColumnSpec,
    GameError,
    SequenceFamily,
    SetDescriptor,
    EVENTUALLY_CONSTANT,
    NONDECREASING,
    NONINCREASING,
    pick_outside,
    point_sum,
)
from gridideals import cli, covering
from gridideals.covering import KINDS, _column_groups, _heavy_counts, _order
from gridideals.grid import Point, longest_increasing


def run_cli(argv, stdin=""):
    """Run the CLI in process on argv with stdin; return the exit code and
    stdout."""
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


def random_points(rng: random.Random, width: int, height: int, max_n: int):
    n = rng.randint(0, max_n)
    pool = [(c, r) for c in range(width) for r in range(height)]
    return tuple(sorted(rng.sample(pool, min(n, len(pool)))))


def random_sparse_chain(rng: random.Random, max_len: int = 10):
    """Consecutive growth keeps every pair mutually sparse."""
    n = rng.randint(1, max_len)
    pts = []
    col = rng.randint(0, 3)
    for _ in range(n):
        row = rng.randint(0, 6)
        pts.append((col, row))
        col = col + row + 1 + rng.randint(0, 3)
    return tuple(pts)


def random_vertical_sample(rng: random.Random, max_len: int = 10):
    c = rng.randint(0, 7)
    rows = sorted(rng.sample(range(24), rng.randint(1, max_len)))
    return tuple((c, r) for r in rows)


def random_descriptor(rng: random.Random) -> SetDescriptor:
    cols = rng.sample(range(12), rng.randint(0, 3))
    tails = [(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(rng.randint(0, 2))]
    pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(0, 5))]
    return SetDescriptor.build(cols, tails, pts)


def stack_depth() -> int:
    """Frames on the caller's stack, for tests run under a tight
    recursion limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def reference_blocking_strategy(exact: bool = False):
    """The blocking strategy recomputed from every pick each round: the
    reference the incremental game.blocking_strategy must match."""

    def strategy(state) -> SetDescriptor:
        picks = state.picks()
        if not picks:
            return SetDescriptor.build()
        fam = state.presentation.family
        if fam == "WR":
            if exact:
                cols: list[int] = []
                tails: list[tuple[int, int]] = []
                for i, j in picks:
                    cols.extend(range(i, i + j + 1))
                    tails.extend((c, i - c) for c in range(i))
                return SetDescriptor.build(cols, tails, picks)
            top = max(point_sum(p) for p in picks)
            return SetDescriptor.build(range(top + 1), (), picks)
        if fam == "WRpi":
            rank = state.presentation.rank_map
            level = max(rank(p) for p in picks)
            top = max(max(p[0] for p in picks), level - 1)
            low = {q for v in range(level + 1) for q in rank.preimages(v)}
            return SetDescriptor.build(range(top + 1), (), low | set(picks))
        raise GameError(f"no blocking strategy for {fam!r}")

    return strategy


def reference_best_lines(pts, partition):
    """covering._best_lines as every subset enumeration: the reference the
    bounded search must match, lines and chains.

    Line subsets are tried by increasing size, so among minimum covers the
    first with the fewest lines, in ``combinations`` order, wins.  A chain
    holds at most one point per column, so a subset whose size plus the
    largest remaining multiplicity reaches the best cost cannot beat it
    and is skipped without partitioning.
    """
    groups = _column_groups(pts)
    cols = sorted(groups)
    best = None
    for size in range(len(cols) + 1):
        if best is not None and size >= best:
            break
        for chosen in combinations(cols, size):
            line_cols = set(chosen)
            if best is not None:
                mult = max((len(groups[c]) for c in cols if c not in line_cols), default=0)
                if size + mult >= best:
                    continue
            chains = partition([p for p in pts if p[0] not in line_cols])
            if best is None or size + len(chains) < best:
                best = size + len(chains)
                best_lines, best_chains = chosen, chains
    return best_lines, best_chains


def sparse_antichain(pts) -> list[Point]:
    """Canonical points needing one sparse chain each, as many as the
    partition has chains: those whose spans [col, col+row] contain the
    busiest column.  The reference covering's sparse-chain scan must
    match.

    Spans that share a column pairwise overlap, and the proof of
    covering.sparse_chain_cover_number finds a column in k+1 spans when
    first fit opens its (k+1)-th chain.
    """
    ends = sorted(p[0] + p[1] for p in pts)
    busiest, depth, gone = None, 0, 0
    for k, p in enumerate(pts):
        if k + 1 < len(pts) and pts[k + 1][0] == p[0]:
            continue
        while ends[gone] < p[0]:
            gone += 1
        if k + 1 - gone > depth:
            busiest, depth = p[0], k + 1 - gone
    return [p for p in pts if p[0] <= busiest <= p[0] + p[1]] if pts else []


def nondecreasing_antichain(pts) -> list[Point]:
    """Canonical points needing one nondecreasing graph each, as many as
    the partition has chains: a longest strictly decreasing run of rows
    in (column, -row) order, so columns never decrease and rows fall.

    Two points of such a run share a column or have the later one lower;
    conversely any set of pairwise incomparable points is such a run, so
    the longest has the size of a largest antichain, which is the chain
    count by Dilworth's theorem.  The reference covering's
    nondecreasing-graph scan must match.
    """
    pts = sorted(pts, key=lambda p: (p[0], -p[1]))
    return sorted(pts[i] for i in longest_increasing([-p[1] for p in pts]))


def reference_line_search(
    pts, partition, antichain, family
) -> tuple[tuple[int, ...], list[tuple[Point, ...]]]:
    """covering._best_lines as it was before its antichain scans were
    carried down the frames: every node rebuilds its antichains from the
    points.  The reference the search's answers and steps must match.

    Lines on some occupied columns and a chain partition of the other
    points, together the fewest generators covering the canonical pts.

    Line subsets are tried by increasing size, then in ``combinations``
    order, depth first, and a subset replaces the best only at a
    strictly lower cost, so among minimum covers the first with the
    fewest lines wins.  A node has fixed a prefix of its subset: the
    columns taken as lines, the columns passed over before the last of
    them, and ``need`` lines still to take from the open columns after
    it.  Three lower bounds hold for every cover below a node, and a
    node whose bound reaches the best cost is cut: it holds no subset
    that could replace the best.  The first counts multiplicities, at
    every node and at the root of each size: a chain holds one point
    per column and the ``need`` lines take at most ``need`` open
    columns, so the largest multiplicity of the passed-over columns and
    the (need+1)-th largest of the open ones stay on chains.  The other
    two count antichains, whose points need a chain each: the antichain
    of the points off the lines, less its points on the ``need`` open
    columns holding most of them, and the antichain of the passed-over
    columns.  A subset is partitioned only when its size plus the
    antichain of the points it leaves is below the best.  Graphs and
    ranked chains pass no antichain, as the one known for them is the
    most populated column.  For graphs the multiplicity bound is the
    cheapest cover below the node, so every node kept has a strictly
    better leaf below it and the search is polynomial.  A node is one
    step, and a node that lists the points off its lines adds one step
    per point; past ``MAX_SEARCH_WORK`` steps the search raises
    ``SearchScaleError``.
    """
    groups = _column_groups(pts)
    cols = sorted(groups)
    n = len(cols)
    mults = [len(groups[c]) for c in cols]
    by_size = sorted(mults, reverse=True) + [0]
    best_lines, best_chains = (), partition(pts)
    best, work = len(best_chains), 0
    for size in range(1, n + 1):
        if size + by_size[size] >= best:
            continue
        heavy = _heavy_counts(mults, best - size)
        # one frame per node being expanded: its lines, the next column to
        # take, and the largest multiplicity of the columns passed over
        frames = [[(), 0, 0]]
        while frames and size + by_size[size] < best:
            frame = frames[-1]
            lines, i, passed_mult = frame
            need = size - len(lines) - 1
            if i + need >= n:
                frames.pop()
                continue
            frame[1] = i + 1
            if mults[i] > passed_mult:
                frame[2] = mults[i]
            work += 1
            if work > covering.MAX_SEARCH_WORK:
                raise covering.SearchScaleError(
                    f"covering search bound exceeded: {family}, {len(pts)} points"
                    f" in {n} columns, more than {covering.MAX_SEARCH_WORK} steps"
                )
            if passed_mult >= best - size or heavy[i + 1] > need:
                continue
            lines += (cols[i],)
            if need and antichain is None:
                frames.append([lines, i + 1, passed_mult])
                continue
            work += len(pts)
            line_set = set(lines)
            live = [p for p in pts if p[0] not in line_set]
            if need == 0:
                if antichain is None or size + len(antichain(live)) < best:
                    chains = partition(live)
                    if size + len(chains) < best:
                        best, best_lines, best_chains = size + len(chains), lines, chains
                        heavy = _heavy_counts(mults, best - size)
                continue
            kept = antichain(live)
            on_open = Counter(p[0] for p in kept if p[0] > cols[i])
            takeable = sum(sorted(on_open.values(), reverse=True)[:need])
            if size + len(kept) - takeable >= best:
                continue
            passed = [p for c in cols[:i] if c not in line_set for p in groups[c]]
            if size + len(antichain(passed)) >= best:
                # the later siblings pass over these columns and more
                frames.pop()
                continue
            frames.append([lines, i + 1, passed_mult])
    return best_lines, best_chains


def reference_ed_lines(pts) -> list[int]:
    """Lines of a minimum cover by lines and graphs: the closed form the
    line search must match on ED, lines and chains.

    Turning a column into a line zeroes its multiplicity, and the
    remainder needs exactly its maximum column multiplicity many graphs,
    so the optimum takes lines on the most populated columns only.
    """
    groups = _column_groups(pts)
    order = sorted(groups, key=lambda c: (-len(groups[c]), c))
    costs = [s + len(groups[c]) for s, c in enumerate(order)] + [len(order)]
    return order[: costs.index(min(costs))]


def reference_oracle_dp(pts, kinds, rank):
    """covering._oracle_dp as a full enumeration: every kind's valid-mask
    table over every mask, and a DP over every submask of every mask.  The
    reference the oracle's dp, choice and label must match."""
    n = len(pts)
    size = 1 << n
    valid_any = bytearray(size)
    label = [None] * size
    for kind in [k for k in KINDS if k in kinds]:
        before = _order(kind, rank)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if before(pts[i], pts[j]):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        vk = bytearray(size)
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            if rest == 0:
                vk[mask] = 1
            else:
                i = low.bit_length() - 1
                if vk[rest] and (rows[i] & rest) == rest:
                    vk[mask] = 1
            if vk[mask] and not valid_any[mask]:
                valid_any[mask] = 1
                label[mask] = kind
    big = n + 1
    dp = [big] * size
    dp[0] = 0
    choice = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        best = big
        best_sub = 0
        sub = mask
        while sub:
            if (sub & low) and valid_any[sub]:
                c = dp[mask ^ sub] + 1
                if c < best:
                    best = c
                    best_sub = sub
            sub = (sub - 1) & mask
        dp[mask] = best
        choice[mask] = best_sub
    return dp, choice, label


def json_descriptor_contains(doc: dict, p) -> bool:
    """Membership in a serialised set descriptor, read from the JSON
    alone: on a column run [first, last], on a tail [column, first row]
    at or below its first row, or a listed point."""
    c, r = p
    return (
        any(first <= c <= last for first, last in doc["columns"])
        or any(tc == c and r >= start for tc, start in doc["tails"])
        or [c, r] in doc["points"]
    )


def reference_random_opponent(seed: int):
    """game.random_opponent with the largest pick sum recomputed from
    every pick each call and the draws made through randint: the
    reference the incremental opponent must match."""
    rng = random.Random(seed)

    def opponent(state, blocked: SetDescriptor):
        hi = max((point_sum(k) for k in state.picks()), default=0) + 8
        for _ in range(64):
            p = (rng.randint(0, hi), rng.randint(0, 12))
            if not blocked.contains(p):
                return p
        return pick_outside(blocked, beyond=hi)

    return opponent


def random_witness_family(rng: random.Random, level: int):
    """level+1 points with increasing columns and sums beyond the last."""
    cols = sorted(rng.sample(range(0, 24), level + 1))
    last = cols[-1]
    return tuple((c, last - c + 1 + rng.randint(0, 4)) for c in cols)


def _approach_below(limit):
    return lambda j: limit - Fraction(1, j + 2)


def _approach_above(limit):
    return lambda j: limit + Fraction(1, j + 2)


def _constant_from(limit, pivot):
    def term(j):
        if j >= pivot:
            return limit
        return limit - (pivot - j)

    return term


def _random_jmap(rng: random.Random):
    a = rng.randint(1, 3)
    b = rng.randint(0, 2)
    return lambda k: a * k + b


def family_limits_increasing(rng: random.Random, n_cols: int) -> SequenceFamily:
    cols = []
    base = Fraction(rng.randint(0, 3))
    for i in range(n_cols):
        base += Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
        jmap = _random_jmap(rng)
        if rng.random() < 0.25:
            thr = rng.randint(0, 3)
            cols.append(
                ColumnSpec(EVENTUALLY_CONSTANT, base, _constant_from(base, jmap(thr)), jmap, thr)
            )
        else:
            cols.append(ColumnSpec(NONDECREASING, base, _approach_below(base), jmap))
    return SequenceFamily(tuple(cols))


def family_constant_eventually(rng: random.Random, n_cols: int) -> SequenceFamily:
    value = Fraction(rng.randint(-3, 6), rng.choice([1, 2, 3]))
    cols = []
    for _ in range(n_cols):
        jmap = _random_jmap(rng)
        thr = rng.randint(0, 4)
        cols.append(
            ColumnSpec(EVENTUALLY_CONSTANT, value, _constant_from(value, jmap(thr)), jmap, thr)
        )
    return SequenceFamily(tuple(cols))


def family_constant_increasing(rng: random.Random, n_cols: int) -> SequenceFamily:
    value = Fraction(rng.randint(-3, 6), rng.choice([1, 2, 3]))
    cols = [
        ColumnSpec(NONDECREASING, value, _approach_below(value), _random_jmap(rng))
        for _ in range(n_cols)
    ]
    return SequenceFamily(tuple(cols))


def family_limits_decreasing(rng: random.Random, n_cols: int) -> SequenceFamily:
    cols = []
    base = Fraction(4 * n_cols + rng.randint(0, 5))
    for _ in range(n_cols):
        base -= Fraction(rng.randint(2, 4))
        cols.append(ColumnSpec(NONDECREASING, base, _approach_below(base), _random_jmap(rng)))
    return SequenceFamily(tuple(cols))


def family_dual_decreasing(rng: random.Random, n_cols: int) -> SequenceFamily:
    """Nonincreasing columns whose limits strictly decrease, like terms
    1/(i+2) + 1/(j+2): only the mirrored pipeline can serve them."""
    cols = []
    base = Fraction(4 * n_cols + rng.randint(0, 5))
    for _ in range(n_cols):
        base -= Fraction(rng.randint(1, 3))
        cols.append(ColumnSpec(NONINCREASING, base, _approach_above(base), _random_jmap(rng)))
    return SequenceFamily(tuple(cols))


MON_FAMILY_MAKERS = {
    "limits-increasing": family_limits_increasing,
    "constant-terms-constant": family_constant_eventually,
    "constant-terms-increasing": family_constant_increasing,
    "limits-decreasing": family_limits_decreasing,
}


def mirror_family(fam: SequenceFamily) -> SequenceFamily:
    """Negate every column, swapping the declared directions."""
    swapped = {
        NONDECREASING: NONINCREASING,
        NONINCREASING: NONDECREASING,
        EVENTUALLY_CONSTANT: EVENTUALLY_CONSTANT,
    }

    def negate(term):
        return lambda j: -term(j)

    cols = tuple(
        ColumnSpec(swapped[s.mode], -s.limit, negate(s.term), s.jmap, s.threshold)
        for s in fam.columns
    )
    return SequenceFamily(cols, fam.depth)
