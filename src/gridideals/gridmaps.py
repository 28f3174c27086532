"""Catalog of explicit grid maps, index enumerations, and partition
embeddings."""

from __future__ import annotations

from math import isqrt
from typing import Callable, Iterable, NamedTuple

from .grid import Point


# ---------------------------------------------------------------------------
# the triangle fold


def triangle_fold(p: Point) -> Point:
    """Fold even rows onto the upper wedge and odd rows onto the lower one.

    (i, 2j) goes to (i, i+j) and (i, 2j+1) to (i+j+1, i); a bijection of
    the grid.  Images of a vertical line sit on one line plus one constant
    graph, and images of a sparse chain split into two nondecreasing
    graphs, which is what makes the fold useful.
    """
    i, r = p
    j, parity = divmod(r, 2)
    if parity == 0:
        return (i, i + j)
    return (i + j + 1, i)


def triangle_unfold(q: Point) -> Point:
    """Inverse of triangle_fold."""
    n, m = q
    if n <= m:
        return (n, 2 * (m - n))
    return (m, 2 * (n - m - 1) + 1)


# ---------------------------------------------------------------------------
# rank maps


class RankMap(NamedTuple):
    """Map from grid points to naturals with exact preimage enumeration.

    Instances are expected to be onto and finite-to-one; validate_rank_map
    checks that on a window.
    """

    name: str
    fn: Callable[[Point], int]
    preimages_fn: Callable[[int], tuple[Point, ...]]

    def __call__(self, p: Point) -> int:
        return self.fn(p)

    def preimages(self, value: int) -> tuple[Point, ...]:
        return self.preimages_fn(value)


def antidiagonal_height(p: Point) -> int:
    """Plain anti-diagonal height col + row + 1 (not onto: misses 0)."""
    return p[0] + p[1] + 1


def _diag_value(p: Point) -> int:
    if p == (0, 1):
        return 0
    return p[0] + p[1] + 1


def _diag_preimages(v: int) -> tuple[Point, ...]:
    if v == 0:
        return ((0, 1),)
    return tuple(p for p in ((i, v - 1 - i) for i in range(v)) if p != (0, 1))


DIAG_RANK = RankMap("diag-rank", _diag_value, _diag_preimages)


def _max_preimages(v: int) -> tuple[Point, ...]:
    pts = [(v, r) for r in range(v + 1)] + [(c, v) for c in range(v)]
    return tuple(sorted(pts))


MAX_RANK = RankMap("max-rank", lambda p: max(p[0], p[1]), _max_preimages)


def _skew_preimages(v: int) -> tuple[Point, ...]:
    return tuple(sorted((v - 2 * j, j) for j in range(v // 2 + 1)))


SKEW_RANK = RankMap("skew-rank", lambda p: p[0] + 2 * p[1], _skew_preimages)


def _offset_value(p: Point) -> int:
    i, j = p
    if i == 0:
        return j + 1
    if j == 0:
        return i - 1
    return i + j + 1


def _offset_preimages(v: int) -> tuple[Point, ...]:
    pts = [(v + 1, 0)]
    if v >= 1:
        pts.append((0, v - 1))
    pts.extend((i, v - 1 - i) for i in range(1, v - 1))
    return tuple(sorted(pts))


# offset-rank sends no column-0 point to 0, exercising the first-column
# adjustment of the transfer construction
OFFSET_RANK = RankMap("offset-rank", _offset_value, _offset_preimages)

RANK_CATALOG = {m.name: m for m in (DIAG_RANK, MAX_RANK, SKEW_RANK, OFFSET_RANK)}


def validate_rank_map(rank: RankMap, window: int) -> list[str]:
    """Window-bounded checks that a rank map is onto and self-consistent.

    Returns a list of problems; empty means no violation was found for
    the values below window, on the box of side window + 32.  Being
    finite-to-one cannot be decided on a window, so the preimage
    enumeration is trusted to be complete and is cross-checked against a
    scan of the box.
    """
    problems = []
    declared: dict[int, set[Point]] = {}
    for v in range(window):
        pre = rank.preimages(v)
        if not pre:
            problems.append(f"value {v} has no preimage (not onto)")
        bad = [p for p in pre if rank(p) != v]
        if bad:
            problems.append(f"preimages of {v} include {bad[0]} with rank {rank(bad[0])}")
        declared[v] = set(pre)
    for c in range(window + 32):
        for r in range(window + 32):
            v = rank((c, r))
            if v < 0:
                problems.append(f"negative rank at {(c, r)}")
            elif v < window and (c, r) not in declared[v]:
                problems.append(f"preimage enumeration of {v} misses {(c, r)}")
    return problems


# ---------------------------------------------------------------------------
# the wedge zigzag enumeration


def wedge_zigzag_point(n: int) -> Point:
    """Enumerate the grid block by block: even indices fill the upper
    wedge {row >= col} row by row, odd indices fill the lower wedge
    column by column, downwards."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    b = (isqrt(4 * n + 1) - 1) // 2
    r = n - b * (b + 1)
    k, parity = divmod(r, 2)
    if parity == 0:
        return (k, b)
    return (b + 1, b - k)


def wedge_zigzag_index(p: Point) -> int:
    i, j = p
    if j >= i:
        return j * (j + 1) + 2 * i
    b = i - 1
    return b * (b + 1) + 2 * (b - j) + 1


class IndexPointMap(NamedTuple):
    """A bijection between the naturals and the grid."""

    name: str
    to_point: Callable[[int], Point]
    to_index: Callable[[Point], int]


WEDGE_ZIGZAG = IndexPointMap("wedge-zigzag", wedge_zigzag_point, wedge_zigzag_index)


def wedge_class_level(p: Point) -> int:
    """Class level of a point: its column on the upper wedge, its row on
    the lower wedge."""
    i, j = p
    return i if j >= i else j


def adversarial_value(n: int) -> Fraction:
    """Term n of the adversarial sequence.

    The sequence is strictly decreasing along each upper-wedge column and
    each lower-wedge row, valued in the open interval (level, level+1),
    so monotone index sets enumerate cheaply coverable point sets.
    """
    from fractions import Fraction

    p = wedge_zigzag_point(n)
    i, j = p
    if j >= i:
        level, pos = i, j - i
    else:
        level, pos = j, i - j - 1
    return level + Fraction(1, pos + 2)


# ---------------------------------------------------------------------------
# partitions of the naturals, each given by its class function (a finite
# table of labels is labels.__getitem__), and their grid embeddings


def dyadic_class(m: int) -> int:
    """Class of m in the dyadic partition, the 2-adic valuation of m + 1;
    every class is infinite."""
    return ((m + 1) & -(m + 1)).bit_length() - 1


class PartitionEmbedding(NamedTuple):
    """Injection of the indices below the window into the grid whose
    column fibers pull back to the partition classes, together with a
    point enumeration that makes the target a ranked presentation.

    points sends each index to its point and indices inverts it; odd_rank
    numbers the points off the image near it.  The repr leaves the three
    tables out, and being dicts they leave the embedding unhashable.
    """

    class_of: Callable[[int], int]
    window: int
    points: dict[int, Point]
    indices: dict[Point, int]
    odd_rank: dict[Point, int]

    def __repr__(self) -> str:
        return f"PartitionEmbedding(class_of={self.class_of!r}, window={self.window!r})"

    def to_point(self, m: int) -> Point:
        try:
            return self.points[m]
        except KeyError:
            raise ValueError(f"{m} is beyond the embedding window") from None

    def to_index(self, p: Point) -> int | None:
        return self.indices.get(p)

    def point_rank(self, p: Point) -> int:
        """Enumeration position of a point: the image of index m sits at
        position 2m, and the remaining points take odd positions in
        diagonal order."""
        m = self.indices.get(p)
        if m is not None:
            return 2 * m
        try:
            return self.odd_rank[p]
        except KeyError:
            raise ValueError(f"{p} is outside the prepared point window") from None

    def fiber(self, col: int) -> tuple[int, ...]:
        return tuple(m for m, p in self.points.items() if p[0] == col)


def partition_to_embedding(class_of: Callable[[int], int], window: int) -> PartitionEmbedding:
    """Embed each class of the partition class_of into its own column.

    The k-th member of class n goes to (n, k+1), so the image meets every
    column in a proper subset.  Raises ValueError for a class that is not
    a nonnegative int.
    """
    points: dict[int, Point] = {}
    counts: dict[int, int] = {}
    for m in range(window):
        n = class_of(m)
        if type(n) is not int or n < 0:
            raise ValueError(f"the class of {m} must be a nonnegative int, not {n!r}")
        counts[n] = counts.get(n, 0) + 1
        points[m] = (n, counts[n])
    indices = {p: m for m, p in points.items()}
    pool = [
        (c, r)
        for c in range(max(counts, default=0) + 2)
        for r in range(window + 2)
        if (c, r) not in indices
    ]
    pool.sort(key=lambda p: (p[0] + p[1], p[0]))
    odd_rank = {p: 2 * t + 1 for t, p in enumerate(pool)}
    return PartitionEmbedding(class_of, window, points, indices, odd_rank)


def jumping_condition(class_of: Callable[[int], int], indices: Iterable[int]) -> bool:
    """After dropping the least element, successive indices must land in
    classes indexed above their predecessor."""
    h = sorted(indices)[1:]
    return all(a < b and class_of(b) > a for a, b in zip(h, h[1:]))
