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
        return _canonical(((c, c) for c in columns), tails, points)

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

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return _canonical(
            self.columns + other.columns, self.tails + other.tails, self.points | other.points
        )

    __or__ = union

    def intersect(self, other: "SetDescriptor") -> "SetDescriptor":
        # the overlaps of two sorted run lists, swept with one pointer each
        a, b = self.columns, other.columns
        runs = []
        i = j = 0
        while i < len(a) and j < len(b):
            first, last = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if first <= last:
                runs.append((first, last))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        starts = dict(other.tails)
        tails = [t for t in self.tails if _on_run(b, t[0])]
        tails += [t for t in other.tails if _on_run(a, t[0])]
        tails += [(c, max(s, starts[c])) for c, s in self.tails if c in starts]
        pts = {p for p in self.points if other.contains(p)}
        pts |= {p for p in other.points if self.contains(p)}
        return _canonical(runs, tails, pts)

    __and__ = intersect

    def is_finite(self) -> bool:
        return not self.columns and not self.tails

    def to_json(self) -> dict:
        return {
            "columns": [list(run) for run in self.columns],
            "tails": [list(t) for t in self.tails],
            "points": [list(p) for p in canonical_points(self.points)],
        }

    @staticmethod
    def from_json(obj: dict) -> "SetDescriptor":
        runs = [tuple(run) for run in obj.get("columns", ())]
        for first, last in runs:
            if last < first:
                raise ValueError(f"column run [{first}, {last}] ends before it starts")
        return _canonical(
            runs,
            [tuple(t) for t in obj.get("tails", ())],
            [tuple(p) for p in obj.get("points", ())],
        )


def _on_run(runs, c: int) -> bool:
    """Whether column c lies on one of the sorted, disjoint runs."""
    k = bisect_left(runs, c, key=itemgetter(1))  # the first run not wholly before c
    return k < len(runs) and runs[k][0] <= c


def _canonical(runs, tails, points) -> SetDescriptor:
    """The canonical descriptor (see SetDescriptor) of column runs
    (first, last), tails (column, first row) and points, in
    O(atoms log atoms): no run is expanded into its columns."""
    pts = frozenset(points)
    lowest: dict[int, int] = {}
    for c, start in tails:
        lowest[c] = min(start, lowest.get(c, start))
    runs = list(runs)
    for c, start in lowest.items():
        while start > 0 and (c, start - 1) in pts:
            start -= 1
        lowest[c] = start
        if start <= 0:
            runs.append((c, c))
    merged: list[tuple[int, int]] = []
    for first, last in sorted(runs):
        if merged and first <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], last))
        else:
            merged.append((first, last))
    kept = {c: s for c, s in sorted(lowest.items()) if s > 0 and not _on_run(merged, c)}
    pts = frozenset(
        (c, r) for c, r in pts if not _on_run(merged, c) and not (c in kept and r >= kept[c])
    )
    return SetDescriptor(tuple(merged), tuple(kept.items()), pts)


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
    for first, last in d.columns:
        # the even columns 2k of a run, then its odd columns 2k + 1
        for side, lo, hi in ((0, (first + 1) // 2, last // 2), (1, first // 2, (last - 1) // 2)):
            if lo <= hi:
                sides[side][0].append((lo, hi))
    for c, s in d.tails:
        sides[c % 2][1].append((c // 2, s))
    for c, r in d.points:
        sides[c % 2][2].append((c // 2, r))
    return tuple(_canonical(*part) for part in sides)


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
) -> tuple[Point, ...]:
    """A size-n subset of an infinite set lying inside one generator.

    Descriptor universes: a column met infinitely often supplies n of its
    points.  Rule universes (membership callables): a greedy chain is
    grown in the family's chain order (grid.sparse_before for WR,
    grid.ranked for WRpi), each next point the lexicographically least
    member that comes after the previous one.  The chain is grown in
    the 512 columns from min_col, and outputs are prefixes of each
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
        # the first column met infinitely often at or after min_col: the
        # first run reaching min_col, or the first tail there
        runs, tails = universe.columns, universe.tails
        k = bisect_left(runs, min_col, key=itemgetter(1))
        t = bisect_left(tails, (min_col,))
        firsts = [(max(runs[k][0], min_col), 0)] if k < len(runs) else []
        firsts += tails[t : t + 1]
        if not firsts:
            raise ValueError("finite input set")
        c, start = min(firsts)
        return tuple((c, start + i) for i in range(n))

    member: Callable[[Point], bool] = universe
    row_cap = max(8 * n, 64)
    hi = min_col + 512

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
            raise ValueError("chain search exhausted within 512 columns of min_col")
        chain.append(nxt)
    return tuple(chain)
