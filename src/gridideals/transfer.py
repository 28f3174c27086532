"""Injective transfers between ranked presentations.

Given two rank maps, the grid is cut into column strips [m_{n-1}, m_n)
whose edges grow stage by stage.  Inside strip n, the points whose
target rank exceeds the edge m_n are matched bijectively onto one even
column (minus a finite excluded set), while the finitely many low-rank
points join a global remainder that is sent into odd columns in rank
order.  Column 0 maps identically.  Preimages of source chain
generators then decompose into at most three target chains, which
verify_preimage_decomposition checks on samples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable

from .grid import Point, canonical_points, is_ranked_chain, ranked
from .gridmaps import RankMap


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


def _block_rank(pi0: RankMap, lo: int, hi: int, edge: int, p: Point) -> int:
    """Row-major position of p among strip points with rank above the edge."""
    c, r = p
    t = 0
    for rr in range(r + 1):
        c_hi = c if rr == r else hi
        for cc in range(lo, c_hi):
            if pi0((cc, rr)) > edge:
                t += 1
    return t


def _block_point(pi0: RankMap, lo: int, hi: int, edge: int, t: int) -> Point:
    """Inverse of _block_rank: the t-th strip point in row-major order."""
    rr = 0
    while True:
        for cc in range(lo, hi):
            if pi0((cc, rr)) > edge:
                if t == 0:
                    return (cc, rr)
                t -= 1
        rr += 1


def _skip_rows(excluded: list[int], t: int) -> int:
    """The t-th natural outside a sorted excluded list."""
    y = t
    for a in excluded:
        if a <= y:
            y += 1
        else:
            break
    return y


class ChainTransfer:
    """The built injection; total on every point with col < col_bound."""

    def __init__(self, pi, pi0, window, m, a_sets, stalled, adjusted, col_bound,
                 sigma_prime, sigma_prime_inv):
        self.pi = pi
        self.pi0 = pi0
        self.window = window
        self.m = m
        self.stalled = tuple(stalled)
        self.adjusted = adjusted
        self.col_bound = col_bound
        self._A = a_sets
        self._arows = [sorted(r for c, r in a if c == 2 * n) for n, a in enumerate(a_sets)]
        self._sp = sigma_prime
        self._spi = sigma_prime_inv

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
        edge = self.m[n]
        if self.pi0(p) <= edge:
            q = self._sp.get(p)
            if q is None:
                raise TransferError(f"remainder image missing for {p}")
            return q
        t = _block_rank(self.pi0, self.m[n - 1], self.m[n], edge, p)
        return (2 * n, _skip_rows(self._arows[n], t))

    def invert(self, q: Point) -> Point | None:
        """Preimage of q, or None when q is outside the range."""
        c, r = q
        if c == 0:
            return q
        if c % 2 == 1:
            return self._spi.get(q)
        n = c // 2
        if n < 1 or n >= len(self.m):
            return None
        if self.m[n - 1] == self.m[n]:
            return None
        arows = self._arows[n]
        i = bisect_left(arows, r)
        if i < len(arows) and arows[i] == r:
            return None
        t = r - i
        return _block_point(self.pi0, self.m[n - 1], self.m[n], self.m[n], t)

    def in_remainder_range(self, q: Point) -> bool:
        return q in self._spi

    def table(self, cols: int, rows: int) -> list[tuple[Point, Point]]:
        out = []
        for c in range(min(cols, self.col_bound)):
            for r in range(rows):
                out.append(((c, r), self.apply((c, r))))
        return out


def build_chain_transfer(
    pi: RankMap, pi0: RankMap, window: int, *, max_stages: int = 512
) -> ChainTransfer:
    """Run the stage construction until the strip edges pass the window.

    Raises TransferError when a rank map fails to be onto where needed or
    the edges stop growing.
    """
    if window < 1:
        raise ValueError("window must be positive")
    for rm in (pi, pi0):
        for v in range(4):
            if not rm.preimages(v):
                raise TransferError(f"invalid rank map {rm.name}: no preimage of {v}")
    pi, adjusted = _adjusted(pi)

    def a_set(n: int) -> frozenset:
        pts = set()
        for v in range(2 * n + 1):
            for p in pi.preimages(v):
                if p[0] < 2 * n + 1:
                    pts.add(p)
        return frozenset(pts)

    m = [1]
    a_sets = [frozenset()]
    stalled: list[int] = []

    def run_stage() -> None:
        n = len(m)
        if n > max_stages:
            raise TransferError("stage limit exceeded while growing the strip edges")
        an = a_set(n)
        a_sets.append(an)
        vals = []
        for j in range(n):
            if j > 0 and m[j - 1] == m[j]:
                continue
            aj = a_sets[j]
            arows_j = sorted(r for c, r in aj if c == 2 * j)
            for q in an:
                if q[0] != 2 * j or q in aj:
                    continue
                if j == 0:
                    d = q
                else:
                    i = bisect_left(arows_j, q[1])
                    t = q[1] - i
                    d = _block_point(pi0, m[j - 1], m[j], m[j], t)
                vals.append(pi0(d))
        if vals:
            edge = max(vals)
            if edge < m[-1]:
                raise TransferError("strip edges decreased; inconsistent rank maps")
            m.append(edge)
        else:
            m.append(m[-1])
            stalled.append(n)

    while m[-1] < window:
        run_stage()
    col_bound = m[-1]

    # remainder strips up to the current edge
    def strip_remainder(j: int) -> set:
        lo, hi = m[j - 1], m[j]
        pts = set()
        if lo < hi:
            for v in range(m[j] + 1):
                for p in pi0.preimages(v):
                    if lo <= p[0] < hi:
                        pts.add(p)
        return pts

    remainder: set[Point] = set()
    for j in range(1, len(m)):
        remainder |= strip_remainder(j)
    vstar = max((pi0(b) for b in remainder), default=0)
    # points of rank <= vstar beyond the built strips also belong to the
    # remainder; extend the edges far enough to cover their columns
    far = [
        q
        for v in range(vstar + 1)
        for q in pi0.preimages(v)
        if q[0] >= col_bound
    ]
    target_col = max((q[0] for q in far), default=0)
    while m[-1] <= target_col:
        run_stage()
        remainder |= strip_remainder(len(m) - 1)

    # enumerate the remainder prefix in rank order, larger columns first
    # among equal ranks, and place each element in its odd column
    prefix = sorted(
        (q for q in remainder if pi0(q) <= vstar),
        key=lambda q: (pi0(q), -q[0], q[1]),
    )
    rem_cols = sorted(q[0] for q in remainder)
    sigma_prime: dict[Point, Point] = {}
    sigma_prime_inv: dict[Point, Point] = {}
    last_rank = -1
    for b in prefix:
        f_b = bisect_left(rem_cols, pi0(b))
        h_b = bisect_left(rem_cols, b[0])
        bound = max(2 * f_b + 1, last_rank)
        col_v = 2 * h_b + 1
        y = 0
        while pi((col_v, y)) <= bound:
            y += 1
            if y > 10 ** 6:
                raise TransferError("no admissible remainder image found")
        q = (col_v, y)
        sigma_prime[b] = q
        sigma_prime_inv[q] = b
        last_rank = pi(q)

    return ChainTransfer(
        pi, pi0, window, m, a_sets, stalled, adjusted, col_bound,
        sigma_prime, sigma_prime_inv,
    )


@dataclass(frozen=True)
class DecompositionReport:
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
