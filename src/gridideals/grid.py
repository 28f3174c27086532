"""Grid points, orderings, and the chain orders everything else shares.

Each chain order before(lo, hi) is a strict partial order implying lex order.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import pairwise
from typing import Callable, Iterable

Point = tuple[int, int]


def point_sum(p: Point) -> int:
    """Coordinate sum col + row."""
    return p[0] + p[1]


def canonical_points(points: Iterable[Point]) -> tuple[Point, ...]:
    """Deduplicated and sorted by (col, row)."""
    return tuple(sorted(set(points)))


def window_points(cols: int, rows: int | None = None) -> list[Point]:
    """All points with col < cols and row < rows, column-major order."""
    if rows is None:
        rows = cols
    return [(c, r) for c in range(cols) for r in range(rows)]


def longest_increasing(keys) -> list[int]:
    """Positions, in order, of a longest strictly increasing run of keys:
    patience sorting with predecessor links, a key replacing the first
    tail it does not exceed."""
    tails: list = []  # tails[k]: the least key ending a run of length k+1
    ends: list[int] = []  # ends[k]: its position
    prev: list[int] = []
    for i, key in enumerate(keys):
        k = bisect_left(tails, key)
        if k == len(tails):
            tails.append(key)
            ends.append(i)
        else:
            tails[k], ends[k] = key, i
        prev.append(ends[k - 1] if k else -1)
    run = []
    i = ends[-1] if ends else -1
    while i != -1:
        run.append(i)
        i = prev[i]
    return run[::-1]


def lex_before(a: Point, b: Point) -> bool:
    """Strict lexicographic comparison by (col, row)."""
    return a < b


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


def _pair_color(before, a: Point, b: Point) -> int:
    if a == b:
        raise ValueError("pair required")
    return 0 if before(min(a, b), max(a, b)) else 1


def sparse_pair_color(a: Point, b: Point) -> int:
    """0 when two distinct points fit in one sparse chain, 1 otherwise."""
    return _pair_color(sparse_before, a, b)


def nondecreasing_pair_color(a: Point, b: Point) -> int:
    """0 when the pair fits on the graph of a nondecreasing function."""
    return _pair_color(nondecreasing_before, a, b)


def is_sparse_chain(points: Iterable[Point]) -> bool:
    """True when every pair is mutually sparse; any order, with repeats."""
    return is_chain(sparse_before, canonical_points(points))


def is_ranked_chain(rank: Callable[[Point], int], points: Iterable[Point]) -> bool:
    """Chain condition for a ranked family; any order, with repeats."""
    return is_chain(ranked(rank), canonical_points(points))
