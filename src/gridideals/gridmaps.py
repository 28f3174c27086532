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


def validate_rank_map(rank: RankMap, values: int = 64, window: int = 96) -> list[str]:
    """Window-bounded checks that a rank map is onto and self-consistent.

    Returns a list of problems; empty means no violation was found up to
    the bounds.  Being finite-to-one cannot be decided on a window, so the
    preimage enumeration is trusted to be complete and is cross-checked
    against a scan of the window.
    """
    problems = []
    declared: dict[int, set[Point]] = {}
    for v in range(values):
        pre = rank.preimages(v)
        if not pre:
            problems.append(f"value {v} has no preimage (not onto)")
        bad = [p for p in pre if rank(p) != v]
        if bad:
            problems.append(f"preimages of {v} include {bad[0]} with rank {rank(bad[0])}")
        declared[v] = set(pre)
    for c in range(window):
        for r in range(window):
            v = rank((c, r))
            if v < 0:
                problems.append(f"negative rank at {(c, r)}")
            elif v < values and (c, r) not in declared[v]:
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

INDEX_MAP_CATALOG = {WEDGE_ZIGZAG.name: WEDGE_ZIGZAG}


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
# coloring pullback


def pullback_coloring(
    f: Callable[[int], Point], base: Callable[[Point, Point], int]
) -> Callable[[int, int], int]:
    """Pull a point-pair coloring back along an index map.

    Pairs with equal images get color 1.
    """

    def chi(n: int, m: int) -> int:
        if n == m:
            raise ValueError("pair required")
        a, b = f(n), f(m)
        if a == b:
            return 1
        return base(a, b)

    return chi


# ---------------------------------------------------------------------------
# partitions of the naturals and their grid embeddings


class PartitionWitness(NamedTuple):
    """A partition of the naturals into indexed classes, each enumerated
    increasingly."""

    class_of: Callable[[int], int]
    nth_of_class: Callable[[int, int], int]
    rank_of: Callable[[int], int]
    all_infinite: bool = True
    name: str = "partition"

    def validate(self, window: int) -> None:
        for m in range(window):
            c = self.class_of(m)
            r = self.rank_of(m)
            if self.nth_of_class(c, r) != m:
                raise ValueError(f"class enumeration inconsistent at {m}")
            if r > 0 and self.nth_of_class(c, r - 1) >= m:
                raise ValueError(f"class {c} enumeration is not increasing at {m}")


def dyadic_partition() -> PartitionWitness:
    """Classes by the dyadic valuation of n+1; every class is infinite."""

    def class_of(m: int) -> int:
        c = 0
        x = m + 1
        while x % 2 == 0:
            x //= 2
            c += 1
        return c

    def nth(c: int, k: int) -> int:
        return (2 ** c) * (2 * k + 1) - 1

    def rank_of(m: int) -> int:
        return (((m + 1) >> class_of(m)) - 1) // 2

    return PartitionWitness(class_of, nth, rank_of, True, "dyadic")


def partition_from_labels(labels: Iterable[int], name: str = "table") -> PartitionWitness:
    """Partition of an initial segment given by explicit class labels."""
    labels = list(labels)
    classes: dict[int, list[int]] = {}
    ranks: dict[int, int] = {}
    for m, c in enumerate(labels):
        members = classes.setdefault(c, [])
        ranks[m] = len(members)
        members.append(m)

    def class_of(m: int) -> int:
        try:
            return labels[m]
        except IndexError:
            raise ValueError(f"{m} is beyond the labeled window") from None

    def nth(c: int, k: int) -> int:
        members = classes.get(c, ())
        if k >= len(members):
            raise ValueError(f"class {c} has no element of rank {k} in the window")
        return members[k]

    def rank_of(m: int) -> int:
        return ranks[m]

    return PartitionWitness(class_of, nth, rank_of, False, name)


class PartitionEmbedding:
    """Injection of the naturals into the grid whose column fibers pull
    back to the partition classes, together with a point enumeration that
    makes the target a ranked presentation.

    Immutable and compared by value; the three lookup tables are left out
    of the repr, and being dicts they leave the embedding unhashable.
    """

    __slots__ = ("witness", "window", "mode", "_table", "_inverse", "_odd_rank")
    __hash__ = None

    def __init__(
        self,
        witness: PartitionWitness,
        window: int,
        mode: str,
        _table: dict[int, Point] | None = None,
        _inverse: dict[Point, int] | None = None,
        _odd_rank: dict[Point, int] | None = None,
    ):
        tables = ({} if t is None else t for t in (_table, _inverse, _odd_rank))
        for name, value in zip(self.__slots__, (witness, window, mode, *tables)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return (
            f"PartitionEmbedding(witness={self.witness!r}, window={self.window!r}, "
            f"mode={self.mode!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self.__slots__)

    def to_point(self, m: int) -> Point:
        try:
            return self._table[m]
        except KeyError:
            raise ValueError(f"{m} is beyond the embedding window") from None

    def to_index(self, p: Point) -> int | None:
        return self._inverse.get(p)

    def point_rank(self, p: Point) -> int:
        """Enumeration position of a point.

        In general mode the image of index m sits at position 2m and the
        remaining points take odd positions in diagonal order; in
        bijection mode the position is the class member itself.
        """
        if self.mode == "bijection":
            return self.witness.nth_of_class(p[0], p[1])
        m = self._inverse.get(p)
        if m is not None:
            return 2 * m
        try:
            return self._odd_rank[p]
        except KeyError:
            raise ValueError(f"{p} is outside the prepared point window") from None

    def fiber(self, col: int) -> tuple[int, ...]:
        return tuple(sorted(m for m, p in self._table.items() if p[0] == col))


def partition_to_embedding(
    witness: PartitionWitness, window: int, mode: str = "general"
) -> PartitionEmbedding:
    """Embed each class into its own column.

    The general mode sends the k-th member of class n to (n, k+1), so the
    image meets every column in a proper subset; the bijection mode (for
    all-infinite partitions) uses (n, k) and enumerates points by class
    membership itself.
    """
    if mode not in ("general", "bijection"):
        raise ValueError(f"unknown embedding mode: {mode!r}")
    if mode == "bijection" and not witness.all_infinite:
        raise ValueError("bijection mode needs all classes infinite")
    witness.validate(window)
    shift = 1 if mode == "general" else 0
    table = {}
    inverse = {}
    for m in range(window):
        p = (witness.class_of(m), witness.rank_of(m) + shift)
        table[m] = p
        inverse[p] = m
    odd_rank: dict[Point, int] = {}
    if mode == "general":
        max_col = max((p[0] for p in inverse), default=0)
        pool = [
            (c, r)
            for c in range(max_col + 2)
            for r in range(window + 2)
            if (c, r) not in inverse
        ]
        pool.sort(key=lambda p: (p[0] + p[1], p[0]))
        for t, p in enumerate(pool):
            odd_rank[p] = 2 * t + 1
    return PartitionEmbedding(witness, window, mode, table, inverse, odd_rank)


def jumping_condition(witness: PartitionWitness, indices: Iterable[int]) -> bool:
    """After dropping the least element, successive indices must land in
    classes indexed above their predecessor."""
    h = sorted(indices)[1:]
    for a, b in zip(h, h[1:]):
        if b <= a or witness.class_of(b) <= a:
            return False
    return True
