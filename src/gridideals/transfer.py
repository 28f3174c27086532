"""Injective transfers between ranked presentations.

Given two rank maps, the grid is cut into column strips [m_{n-1}, m_n)
whose edges grow stage by stage.  A point (c, r) of strip n, of width
w = m_n - m_{n-1}, sits at the row-major position y = r*w + c - m_{n-1}.
The strip's points of pi0 rank at most m_n are finitely many; their
sorted positions form lows[n], and they join a global remainder that is
sent into odd columns in rank order.  Every other position is the t-th
natural outside lows[n] for one t, and goes to column 2n at the t-th row
outside the rows the a-set A_n already holds there.  Column 0 maps
identically.  Preimages of source chain generators then decompose into
at most three target chains, which verify_preimage_decomposition checks
on samples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple

from .grid import Point, canonical_points, is_ranked_chain, ranked
from .gridmaps import RankMap

MAX_WINDOW = 256
MAX_STAGES = 512
MAX_REMAINDER_ROWS = 10 ** 6


class TransferError(RuntimeError):
    pass


def _adjusted(rank: RankMap) -> tuple[RankMap, bool]:
    """Ensure some column-0 point has rank 0, shifting column 0 if not."""
    if any(p[0] == 0 for p in rank.preimages(0)):
        return rank, False
    base_fn = rank.fn
    base_pre = rank.preimages_fn

    def fn(p: Point) -> int:
        c, r = p
        if c != 0:
            return base_fn(p)
        if r == 0:
            return 0
        return base_fn((0, r - 1))

    def preimages(v: int) -> tuple[Point, ...]:
        pts = [(0, r + 1) if c == 0 else (c, r) for c, r in base_pre(v)]
        if v == 0:
            pts.append((0, 0))
        return tuple(sorted(pts))

    return RankMap(rank.name + "+shift", fn, preimages), True


def _nth_outside(excluded: list[int], t: int) -> int:
    """The t-th natural outside a sorted excluded list."""
    return t + bisect_right(range(len(excluded)), t, key=lambda i: excluded[i] - i)


def _index_outside(excluded: list[int], y: int) -> int | None:
    """Inverse of _nth_outside; None when y is excluded."""
    i = bisect_left(excluded, y)
    if i < len(excluded) and excluded[i] == y:
        return None
    return y - i


class _Sublevel:
    """The points of rank at most a rising level, handed out by column.

    Each rank value's preimages are listed once; a point waits under its
    column until that column is taken.
    """

    def __init__(self, rank: RankMap):
        self.rank = rank
        self.level = -1
        self.waiting: dict[int, list[Point]] = {}

    def take(self, level: int, first: int, last: int) -> list[Point]:
        """Raise the level, then remove the waiting points of columns
        first..last."""
        for v in range(self.level + 1, level + 1):
            for p in self.rank.preimages(v):
                self.waiting.setdefault(p[0], []).append(p)
        self.level = max(self.level, level)
        return [p for c in range(first, last + 1) for p in self.waiting.pop(c, ())]


class ChainTransfer:
    """The built injection; total on every point with col < col_bound."""

    def __init__(self, pi: RankMap, pi0: RankMap, window: int, adjusted: bool):
        self.pi = pi
        self.pi0 = pi0
        self.window = window
        self.adjusted = adjusted
        self.m = [1]
        self.stalled: tuple[int, ...] = ()
        self.col_bound = 0
        self._arows: list[list[int]] = [[]]
        # the a-sets and the strips' low points grow stage by stage, and
        # the edge is a running maximum
        self._pi_sub = _Sublevel(pi)
        self._pi0_sub = _Sublevel(pi0)
        self._reach: int | None = None
        self._lows: list[list[int]] = [[]]
        self._sp: dict[Point, Point] = {}
        self._spi: dict[Point, Point] = {}

    def stage_of_column(self, c: int) -> int:
        if c < 1 or c >= self.m[-1]:
            raise TransferError(f"column {c} is outside the built strips")
        return bisect_right(self.m, c)

    def apply(self, p: Point) -> Point:
        c, r = p
        if c >= self.col_bound:
            raise TransferError(
                f"point {p} is outside the constructed domain (col < {self.col_bound})"
            )
        if c == 0:
            return p
        n = self.stage_of_column(c)
        lo = self.m[n - 1]
        t = _index_outside(self._lows[n], r * (self.m[n] - lo) + c - lo)
        if t is None:
            q = self._sp.get(p)
            if q is None:
                raise TransferError(f"remainder image missing for {p}")
            return q
        return (2 * n, _nth_outside(self._arows[n], t))

    def invert(self, q: Point) -> Point | None:
        """Preimage of q, or None when q is outside the range."""
        if q[0] % 2 == 1:
            return self._spi.get(q)
        return self._even_source(q)

    def _even_source(self, q: Point) -> Point | None:
        """The point sent to q in an even column, or None when there is none."""
        c, r = q
        n = c // 2
        if n == 0:
            return q
        if n >= len(self.m) or self.m[n - 1] == self.m[n]:
            return None
        t = _index_outside(self._arows[n], r)
        if t is None:
            return None
        lo = self.m[n - 1]
        row, col = divmod(_nth_outside(self._lows[n], t), self.m[n] - lo)
        return (lo + col, row)

    def in_remainder_range(self, q: Point) -> bool:
        return q in self._spi

    def table(self, cols: int, rows: int) -> list[tuple[Point, Point]]:
        out = []
        for c in range(min(cols, self.col_bound)):
            for r in range(rows):
                out.append(((c, r), self.apply((c, r))))
        return out

    def _run_stage(self) -> list[Point]:
        """Append the next a-set and strip edge; return the new strip's remainder.

        The a-set A_n holds the points of pi rank at most 2n in columns
        0..2n, so it grows from A_{n-1} by the preimages of the two new
        rank values and the points of the two new columns.
        """
        n = len(self.m)
        if n > MAX_STAGES:
            raise TransferError("stage limit exceeded while growing the strip edges")
        new = set(self._pi_sub.take(2 * n, 0, 2 * n))
        self._arows.append(sorted(r for c, r in new if c == 2 * n))
        # the edge is the largest pi0 rank among the block points the a-set
        # reaches in the earlier even columns.  Column 2(n-1) has a strip
        # only from this stage on; every other even-column point was read
        # when it joined the a-set
        fresh = [q for q in new if q[0] % 2 == 0 and q[0] < 2 * n]
        fresh += [(2 * n - 2, r) for r in self._arows[n - 1]]
        reached = [self.pi0(d) for d in map(self._even_source, fresh) if d is not None]
        if self._reach is not None:
            reached.append(self._reach)
        lo = self.m[-1]
        if reached:
            edge = self._reach = max(reached)
            if edge < lo:
                raise TransferError("strip edges decreased; inconsistent rank maps")
        else:
            edge = lo
            self.stalled += (n,)
        self.m.append(edge)
        width = edge - lo
        # the strip's points of pi0 rank at most its edge; points of an
        # earlier strip's columns that rank above its edge wait unused
        low = self._pi0_sub.take(edge, lo, edge - 1)
        self._lows.append(sorted(r * width + c - lo for c, r in low))
        return low


def build_chain_transfer(pi: RankMap, pi0: RankMap, window: int) -> ChainTransfer:
    """Run the stage construction until the strip edges pass the window.

    Raises ValueError when the window is outside [1, MAX_WINDOW], and
    TransferError when a rank map fails to be onto where needed or the
    edges stop growing.
    """
    if not 1 <= window <= MAX_WINDOW:
        raise ValueError(f"window must be between 1 and {MAX_WINDOW}")
    for rm in (pi, pi0):
        for v in range(4):
            if not rm.preimages(v):
                raise TransferError(f"invalid rank map {rm.name}: no preimage of {v}")
    pi, adjusted = _adjusted(pi)
    built = ChainTransfer(pi, pi0, window, adjusted)
    remainder: list[Point] = []
    while built.m[-1] < window:
        remainder += built._run_stage()
    built.col_bound = built.m[-1]

    vstar = max((pi0(b) for b in remainder), default=0)
    # points of rank <= vstar beyond the built strips also belong to the
    # remainder; extend the edges far enough to cover their columns
    target_col = max(
        (q[0] for v in range(vstar + 1) for q in pi0.preimages(v) if q[0] >= built.col_bound),
        default=0,
    )
    while built.m[-1] <= target_col:
        remainder += built._run_stage()

    # enumerate the remainder prefix in rank order, larger columns first
    # among equal ranks, and place each element in its odd column
    prefix = sorted(
        (q for q in remainder if pi0(q) <= vstar),
        key=lambda q: (pi0(q), -q[0], q[1]),
    )
    rem_cols = sorted(q[0] for q in remainder)
    # the ranks placed rise strictly, so every row of an odd column up to
    # its last image has rank at most the next bound: resume past that image
    next_row: dict[int, int] = {}
    last_rank = -1
    for b in prefix:
        f_b = bisect_left(rem_cols, pi0(b))
        h_b = bisect_left(rem_cols, b[0])
        bound = max(2 * f_b + 1, last_rank)
        col_v = 2 * h_b + 1
        y = next_row.get(col_v, 0)
        while pi((col_v, y)) <= bound:
            y += 1
            if y > MAX_REMAINDER_ROWS:
                raise TransferError("no admissible remainder image found")
        next_row[col_v] = y + 1
        q = (col_v, y)
        built._sp[b] = q
        built._spi[q] = b
        last_rank = pi(q)
    return built


class DecompositionReport(NamedTuple):
    """Split of a chain generator's preimage with per-part verdicts."""

    remainder_preimage: tuple[Point, ...]
    block_preimage_even: tuple[Point, ...]
    block_preimage_odd: tuple[Point, ...]
    remainder_ok: bool
    even_ok: bool
    odd_ok: bool

    @property
    def ok(self) -> bool:
        return self.remainder_ok and self.even_ok and self.odd_ok


def verify_preimage_decomposition(transfer: ChainTransfer, chain_points: Iterable[Point]) -> DecompositionReport:
    """Check that a source chain generator pulls back to at most three
    target chains: one through the remainder and an alternating pair
    through the even-column blocks.

    The chain condition is taken with respect to transfer.pi, which is
    the first-column-shifted map when the construction had to adjust (the
    shifted family generates the same ideal).
    """
    pts = canonical_points(chain_points)
    if not is_ranked_chain(transfer.pi, pts):
        raise ValueError("sample is not a chain generator of the source family")
    rem: list[Point] = []
    block: list[Point] = []
    for g in pts:
        p = transfer.invert(g)
        if p is None:
            raise ValueError(f"{g} is outside the transfer range")
        if g[0] % 2 == 1:
            rem.append(p)
        else:
            block.append(p)
    rem.sort()
    block.sort()
    even_part = tuple(block[0::2])
    odd_part = tuple(block[1::2])
    pi0 = transfer.pi0
    return DecompositionReport(
        tuple(rem),
        even_part,
        odd_part,
        is_ranked_chain(pi0, rem),
        is_ranked_chain(pi0, even_part),
        is_ranked_chain(pi0, odd_part),
    )


def sample_range_chain(transfer: ChainTransfer, rng, max_len: int = 8, row_cap: int = 40) -> tuple[Point, ...]:
    """Random chain generator of the source family inside the range."""
    pool = []
    for c in range(transfer.col_bound):
        for r in range(row_cap):
            pool.append(transfer.apply((c, r)))
    pool = sorted(set(pool), key=lambda q: (transfer.pi(q), q))
    start = rng.choice(pool[: max(4, len(pool) // 8)])
    before = ranked(transfer.pi)
    chain = [start]
    while len(chain) < max_len:
        admissible = sorted(q for q in pool if before(chain[-1], q))
        if not admissible:
            break
        chain.append(rng.choice(admissible[:6]))
    return tuple(chain)
