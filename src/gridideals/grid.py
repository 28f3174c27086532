"""Grid points, orderings, and the chain orders everything else shares.

Each chain order before(lo, hi) is a strict partial order implying lex order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count, pairwise
from typing import Callable, Iterable

Point = tuple[int, int]


def point_sum(p: Point) -> int:
    """Coordinate sum col + row."""
    return p[0] + p[1]


def canonical_points(points: Iterable[Point]) -> tuple[Point, ...]:
    """Deduplicated and sorted by (col, row)."""
    return tuple(sorted(set(points)))


def window_points(side: int) -> list[Point]:
    """All points with col and row below side, column-major order."""
    return [(c, r) for c in range(side) for r in range(side)]


def extend_increasing(tails: list, runs: list, items) -> None:
    """Resume patience sorting over (key, label) items, in place.

    tails[k] is the least key ending a strictly increasing run of length
    k+1 and runs[k] that run's labels as a chain (last label, chain of the
    rest), with None for the empty chain.  A key replaces the first tail
    it does not exceed, so runs[-1] is a longest run, and sorting a
    sequence in two pieces gives the chains of sorting it whole."""
    for key, label in items:
        k = bisect_left(tails, key)
        run = (label, runs[k - 1] if k else None)
        if k == len(tails):
            tails.append(key)
            runs.append(run)
        else:
            tails[k], runs[k] = key, run


def longest_increasing(keys) -> list[int]:
    """Positions, in order, of a longest strictly increasing run of keys."""
    tails: list = []
    runs: list = []
    extend_increasing(tails, runs, zip(keys, count()))
    positions = []
    run = runs[-1] if runs else None
    while run is not None:
        positions.append(run[0])
        run = run[1]
    return positions[::-1]


def sparse_before(lo: Point, hi: Point) -> bool:
    return hi[0] > lo[0] + lo[1]


def graph_before(lo: Point, hi: Point) -> bool:
    return lo[0] < hi[0]


def nondecreasing_before(lo: Point, hi: Point) -> bool:
    return lo[0] < hi[0] and lo[1] <= hi[1]


def ranked(rank: Callable[[Point], int]) -> Callable[[Point, Point], bool]:
    """Columns and ranks strictly increase; hi's column reaches lo's rank."""
    return lambda lo, hi: lo[0] < hi[0] and rank(hi) > rank(lo) and hi[0] >= rank(lo)


def is_chain(before: Callable[[Point, Point], bool], points: Iterable[Point]) -> bool:
    """Whether every pair of canonical points is comparable: consecutive
    ones decide it."""
    return all(before(a, b) for a, b in pairwise(points))


def sparse_pair_color(a: Point, b: Point) -> int:
    """0 when two distinct points fit in one sparse chain, 1 otherwise."""
    if a == b:
        raise ValueError("pair required")
    return 0 if sparse_before(min(a, b), max(a, b)) else 1


def is_sparse_chain(points: Iterable[Point]) -> bool:
    """True when every pair is mutually sparse; any order, with repeats."""
    return is_chain(sparse_before, canonical_points(points))


def is_ranked_chain(rank: Callable[[Point], int], points: Iterable[Point]) -> bool:
    """Chain condition for a ranked family; any order, with repeats."""
    return is_chain(ranked(rank), canonical_points(points))
