"""Named ideal presentations and the set descriptors the blocking game plays with.

A descriptor denotes a finite union of whole columns, column tails, and
finite point sets.  The game asks three things of one: whether a point
lies in it (`contains`), a point outside it (`pick_outside`), and its
membership in the presented ideal (`descriptor_in_ideal`), which is
exact for every presentation here.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import itemgetter
from typing import Iterable, NamedTuple

from .covering import IdealError
from .grid import Point, canonical_points
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
    """A named generator system: WR, ED, EDup, WRpi (parameterized by a
    rank map), or Fin, the finite sets, the one family under which a
    blocked set can be illegal in `game.play`."""

    family: str
    rank_map: RankMap | None = None

    def describe(self) -> str:
        if self.family == "WRpi":
            return f"WRpi({self.rank_map.name})"
        return self.family


FIN = IdealPresentation("Fin")
WR = IdealPresentation("WR")
ED = IdealPresentation("ED")
EDUP = IdealPresentation("EDup")


def wr_pi(rank_map: RankMap) -> IdealPresentation:
    return IdealPresentation("WRpi", rank_map=rank_map)


_ALWAYS_CONTAIN = {"WR", "WRpi", "ED", "EDup"}


def descriptor_in_ideal(ideal: IdealPresentation, d: SetDescriptor) -> bool:
    """Exact membership of the denoted set in the presented ideal.

    Columns and tails are inside (or covered by) single generators of the
    line-generated families, and finite sets are in everything, so any
    descriptor is a member there.  Fin rejects descriptors with a column
    or tail atom.
    """
    fam = ideal.family
    if fam in _ALWAYS_CONTAIN:
        return True
    if fam == "Fin":
        return d.is_finite()
    raise IdealError(f"no symbolic membership for {fam!r}")
