"""Shared generators for randomized tests."""

from __future__ import annotations

import contextlib
import io
import random
import sys
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
from gridideals import cli
from gridideals.covering import KINDS, _column_groups, _order


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


def reference_random_opponent(seed: int, spread: int = 8, row_spread: int = 12):
    """game.random_opponent with the largest pick sum recomputed from
    every pick each call and the draws made through randint: the
    reference the incremental opponent must match."""
    rng = random.Random(seed)

    def opponent(state, blocked: SetDescriptor):
        hi = max((point_sum(k) for k in state.picks()), default=0) + spread
        for _ in range(64):
            p = (rng.randint(0, hi), rng.randint(0, row_spread))
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
