"""Named ideal presentations and a small symbolic algebra of infinite sets.

Descriptors denote finite unions of whole columns, column tails, and
finite point sets.  That algebra is deliberately tiny: it covers every
infinite set the supported constructions manipulate while keeping
membership in each presented ideal decidable.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .covering import IdealError
from .grid import Point, canonical_points, ranked, sparse_before
from .gridmaps import RankMap


class SetDescriptor(NamedTuple):
    """Symbolic subset of the grid: column runs, column tails, finite points.

    The whole columns are kept as maximal runs (first, last) of
    consecutive columns, so a block of blocked columns costs one atom
    however wide it is.  Canonical form: the runs are sorted, disjoint
    and never adjacent (two runs that touch are one run); a tail never
    starts at row 0, never sits on a run, and the points immediately
    below it are folded into it; listed points never lie on a run or
    inside a tail.  Equal sets therefore have equal descriptors.
    """

    columns: tuple[tuple[int, int], ...] = ()
    tails: tuple[tuple[int, int], ...] = ()
    points: frozenset[Point] = frozenset()

    @staticmethod
    def build(columns=(), tails=(), points=()) -> "SetDescriptor":
        """The canonical descriptor of the given whole columns (column
        numbers, not runs), tails (column, first row) and points."""
        cols = set(columns)
        tail_map: dict[int, int] = {}
        for c, start in tails:
            if start <= 0:
                cols.add(c)
            else:
                prev = tail_map.get(c)
                tail_map[c] = start if prev is None else min(prev, start)
        pts = set(points)
        for c in list(tail_map):
            if c in cols:
                del tail_map[c]
                continue
            start = tail_map[c]
            while (c, start - 1) in pts:
                pts.discard((c, start - 1))
                start -= 1
            if start <= 0:
                cols.add(c)
                del tail_map[c]
            else:
                tail_map[c] = start
        pts = {
            p
            for p in pts
            if p[0] not in cols
            and not (p[0] in tail_map and p[1] >= tail_map[p[0]])
        }
        return SetDescriptor(_runs(cols), tuple(sorted(tail_map.items())), frozenset(pts))

    def contains(self, p: Point) -> bool:
        # the first run is tried before any search: a blocking wall is
        # one run, and most points a game asks about lie on it
        c = p[0]
        runs = self.columns
        try:
            first, last = runs[0]
        except IndexError:
            pass
        else:
            if c <= last:
                if c >= first:
                    return True
            elif len(runs) > 1:
                # (c + 1,) sorts after every run starting at c or before
                i = bisect_left(runs, (c + 1,))
                if c <= runs[i - 1][1]:
                    return True
        tails = self.tails
        if tails:
            i = bisect_left(tails, (c,))
            if i < len(tails) and tails[i][0] == c and p[1] >= tails[i][1]:
                return True
        return p in self.points

    def _column_set(self) -> set[int]:
        """The whole columns, one by one."""
        return {c for first, last in self.columns for c in range(first, last + 1)}

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return SetDescriptor.build(
            self._column_set() | other._column_set(),
            self.tails + other.tails,
            self.points | other.points,
        )

    __or__ = union

    def intersect(self, other: "SetDescriptor") -> "SetDescriptor":
        cols1, cols2 = self._column_set(), other._column_set()
        t1 = dict(self.tails)
        t2 = dict(other.tails)
        tails = []
        for c in cols1:
            if c in t2:
                tails.append((c, t2[c]))
        for c in cols2:
            if c in t1:
                tails.append((c, t1[c]))
        for c, s in t1.items():
            if c in t2:
                tails.append((c, max(s, t2[c])))
        pts = {p for p in self.points if other.contains(p)}
        pts |= {p for p in other.points if self.contains(p)}
        return SetDescriptor.build(cols1 & cols2, tails, pts)

    __and__ = intersect

    def is_finite(self) -> bool:
        return not self.columns and not self.tails

    def infinite_columns(self) -> tuple[int, ...]:
        """Columns the denoted set meets infinitely often."""
        return tuple(sorted(self._column_set() | {c for c, _ in self.tails}))

    def to_json(self) -> dict:
        return {
            "columns": [list(run) for run in self.columns],
            "tails": [list(t) for t in self.tails],
            "points": [list(p) for p in canonical_points(self.points)],
        }

    @staticmethod
    def from_json(obj: dict) -> "SetDescriptor":
        cols = []
        for first, last in obj.get("columns", ()):
            if last < first:
                raise ValueError(f"column run [{first}, {last}] ends before it starts")
            cols.extend(range(first, last + 1))
        return SetDescriptor.build(
            cols,
            [tuple(t) for t in obj.get("tails", ())],
            [tuple(p) for p in obj.get("points", ())],
        )


def _runs(cols) -> tuple[tuple[int, int], ...]:
    """The maximal runs of consecutive columns in a set of columns."""
    runs: list[tuple[int, int]] = []
    for c in sorted(cols):
        if runs and runs[-1][1] == c - 1:
            runs[-1] = (runs[-1][0], c)
        else:
            runs.append((c, c))
    return tuple(runs)


def empty_set() -> SetDescriptor:
    return SetDescriptor.build()


def column(c: int) -> SetDescriptor:
    return SetDescriptor.build(columns=(c,))


def column_tail(c: int, start: int) -> SetDescriptor:
    return SetDescriptor.build(tails=((c, start),))


def finite_points(points: Iterable[Point]) -> SetDescriptor:
    return SetDescriptor.build(points=points)


def pick_outside(d: SetDescriptor, beyond: int = -1) -> Point:
    """The least point outside the denoted set in a column past beyond.

    Columns are scanned from beyond + 1, so the default scans from 0, and
    a run of whole columns is passed in one step.  No descriptor denotes
    the whole grid, so the scan terminates.
    """
    runs = d.columns
    tails = dict(d.tails)
    c = beyond + 1
    k = bisect_left(runs, c, key=itemgetter(1))  # the first run not wholly before c
    while True:
        if k < len(runs) and runs[k][0] <= c:
            c = runs[k][1] + 1
            k += 1
            continue
        limit = tails.get(c)
        r = 0
        while limit is None or r < limit:
            if (c, r) not in d.points:
                return (c, r)
            r += 1
        c += 1


# ---------------------------------------------------------------------------
# presentations


class IdealPresentation(NamedTuple):
    """A named generator system.

    Atomic families: Fin, WR, ED, EDup, FinxFin, EmptyxFin, and WRpi
    (parameterized by a rank map).  Composite families: direct sums and
    restrictions.
    """

    family: str
    rank_map: RankMap | None = None
    left: "IdealPresentation | None" = None
    right: "IdealPresentation | None" = None
    base: "IdealPresentation | None" = None
    carrier: SetDescriptor | None = None

    def describe(self) -> str:
        if self.family == "WRpi":
            return f"WRpi({self.rank_map.name})"
        if self.family == "sum":
            return f"({self.left.describe()} (+) {self.right.describe()})"
        if self.family == "restrict":
            return f"{self.base.describe()}|carrier"
        return self.family


FIN = IdealPresentation("Fin")
WR = IdealPresentation("WR")
ED = IdealPresentation("ED")
EDUP = IdealPresentation("EDup")
FIN_X_FIN = IdealPresentation("FinxFin")
EMPTY_X_FIN = IdealPresentation("EmptyxFin")


def wr_pi(rank_map: RankMap) -> IdealPresentation:
    return IdealPresentation("WRpi", rank_map=rank_map)


def direct_sum(left: IdealPresentation, right: IdealPresentation) -> IdealPresentation:
    return IdealPresentation("sum", left=left, right=right)


def restrict(base: IdealPresentation, carrier: SetDescriptor) -> IdealPresentation:
    return IdealPresentation("restrict", base=base, carrier=carrier)


def split_by_parity(d: SetDescriptor) -> tuple[SetDescriptor, SetDescriptor]:
    """Split a descriptor between the two summands of a direct sum.

    Direct sums live on the grid by interleaving columns, even columns
    carrying the left component and odd ones the right.
    """
    sides: tuple = (([], [], []), ([], [], []))
    for c in d._column_set():
        sides[c % 2][0].append(c // 2)
    for c, s in d.tails:
        sides[c % 2][1].append((c // 2, s))
    for c, r in d.points:
        sides[c % 2][2].append((c // 2, r))
    return tuple(SetDescriptor.build(*part) for part in sides)


_ALWAYS_CONTAIN = {"WR", "WRpi", "ED", "EDup", "FinxFin"}
_FINITE_ONLY = {"Fin", "EmptyxFin"}


def descriptor_in_ideal(ideal: IdealPresentation, d: SetDescriptor) -> bool:
    """Exact membership of the denoted set in the presented ideal.

    Columns and tails are inside (or covered by) single generators of the
    line-generated families, and finite sets are in everything, so any
    descriptor is a member there.  The sets finite on every column reject
    descriptors with a column or tail atom, and composites delegate.
    """
    fam = ideal.family
    if fam in _ALWAYS_CONTAIN:
        return True
    if fam in _FINITE_ONLY:
        return d.is_finite()
    if fam == "sum":
        dl, dr = split_by_parity(d)
        return descriptor_in_ideal(ideal.left, dl) and descriptor_in_ideal(ideal.right, dr)
    if fam == "restrict":
        return descriptor_in_ideal(ideal.base, d.intersect(ideal.carrier))
    raise IdealError(f"no symbolic membership for {fam!r}")


# ---------------------------------------------------------------------------
# dense subsets


def dense_subset(
    ideal: IdealPresentation,
    universe,
    n: int,
    *,
    min_col: int = 0,
    search_bound: int = 512,
) -> tuple[Point, ...]:
    """A size-n subset of an infinite set lying inside one generator.

    Descriptor universes: a column met infinitely often supplies n of its
    points.  Rule universes (membership callables): a greedy chain is
    grown in the family's chain order (grid.sparse_before for WR,
    grid.ranked for WRpi), each next point the lexicographically least
    member that comes after the previous one.  Growing the
    chain is bounded by search_bound, and outputs are prefixes of each
    other as n increases.
    """
    if ideal.family == "WR":
        before = sparse_before
    elif ideal.family == "WRpi":
        before = ranked(ideal.rank_map)
    else:
        raise IdealError("dense subsets are implemented for the chain families only")
    if n <= 0:
        return ()

    if isinstance(universe, SetDescriptor):
        candidates = [c for c in universe.infinite_columns() if c >= min_col]
        if not candidates:
            raise ValueError("finite input set")
        c = min(candidates)
        start = dict(universe.tails).get(c, 0)
        return tuple((c, start + i) for i in range(n))

    member: Callable[[Point], bool] = universe
    row_cap = max(8 * n, 64)
    hi = min_col + search_bound

    def least_member(col_from: int, admissible: Callable[[Point], bool]) -> Point | None:
        for c in range(col_from, hi):
            for r in range(row_cap):
                p = (c, r)
                if member(p) and admissible(p):
                    return p
        return None

    seed = least_member(min_col, lambda p: True)
    if seed is None:
        raise ValueError("no member found within the search bound")
    chain = [seed]
    while len(chain) < n:
        prev = chain[-1]
        nxt = least_member(max(prev[0] + 1, min_col), lambda p: before(prev, p))
        if nxt is None:
            raise ValueError("chain search exhausted; raise search_bound")
        chain.append(nxt)
    return tuple(chain)
