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
from typing import NamedTuple

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
        pts = frozenset(points)
        lowest: dict[int, int] = {}
        for c, start in tails:
            lowest[c] = min(start, lowest.get(c, start))
        for c, start in lowest.items():
            while start > 0 and (c, start - 1) in pts:
                start -= 1
            lowest[c] = start
        cols = set(columns).union(c for c, start in lowest.items() if start <= 0)
        kept = {c: start for c, start in sorted(lowest.items()) if c not in cols}
        runs: list[tuple[int, int]] = []
        for c in sorted(cols):
            if runs and c == runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], c)
            else:
                runs.append((c, c))
        pts = frozenset(
            (c, r) for c, r in pts if c not in cols and not (c in kept and r >= kept[c])
        )
        return SetDescriptor(tuple(runs), tuple(kept.items()), pts)

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

    def is_finite(self) -> bool:
        return not self.columns and not self.tails

    def to_json(self) -> dict:
        return {
            "columns": [list(run) for run in self.columns],
            "tails": [list(t) for t in self.tails],
            "points": [list(p) for p in canonical_points(self.points)],
        }


def pick_outside(d: SetDescriptor, beyond: int = -1) -> Point:
    """The least point outside the denoted set in a column past beyond.

    Columns are scanned from beyond + 1, so the default scans from 0, and
    a run of whole columns is passed in one step.  No descriptor denotes
    the whole grid, so the scan terminates.
    """
    runs = d.columns
    tails = dict(d.tails)
    c = max(beyond + 1, 0)
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
