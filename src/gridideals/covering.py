"""Exact covering numbers for the generator-presented families.

Every supported family is generated by vertical lines plus one kind of
chain generator (sparse chains, graphs, nondecreasing graphs, or ranked
chains).  Each chain kind is a strict partial order on the grid (the
order table in ``grid``), so a minimum cover is a minimum partition into
lines and chains, and its cost is the number of parts.  A bitmask
partition DP serves as the independent oracle.  It splits each mask's
low point off with a block of points comparable to it; traces are
hereditary, so no mask needs more than one part beyond the mask without
its low point, and the first block that needs no more ends the search.
The structured solver for every family is one depth-first search over
which occupied columns become whole lines, with the rest partitioned by
the family's one chain routine.  A chain holds one point per column, so
the column multiplicities bound every node of the search; for graphs
that bound is exact, so ED's search stays polynomial.  Sparse chains and
nondecreasing graphs also have an antichain scan, a left-to-right pass
over the columns that finds points needing one chain each, as many as
the partition has chains by Dilworth's theorem, and the search cuts its
branches with them too.  The scan's state after the columns a node
passed over rides in the node's frame, so a node scans only its open
columns.  The search is exponential in the worst case and stops with
``SearchScaleError`` past ``MAX_SEARCH_WORK`` steps: one per node, and
one per point at each leaf and at each node of a family with a scan.

A point set is canonicalised (deduplicated, sorted by (col, row)) once,
at the public call; the partitions, scans and line search below it take
the canonical sequence they are given.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import accumulate, zip_longest
from typing import Iterable, NamedTuple, Sequence

from .grid import (
    Point,
    canonical_points,
    extend_increasing,
    graph_before,
    is_chain,
    nondecreasing_before,
    ranked,
    sparse_before,
)

VERTICAL_LINE = "vertical-line"
SPARSE_CHAIN = "sparse-chain"
GRAPH = "graph"
NONDECREASING_GRAPH = "nondecreasing-graph"
RANKED_CHAIN = "ranked-chain"

ORACLE_LIMIT = 16

# The line search stops past MAX_SEARCH_WORK steps.  A node is one step; a
# leaf, and a node of a family with an antichain scan, adds one step per
# point, the nodes that once listed the points off their lines.  The
# seeded cover ladder needs at most 56,664 steps (18 WR points) and 40-point
# WR sets in a 28x28 box at most 757,481.
MAX_SEARCH_WORK = 8_000_000

# The generator kinds; the oracle labels a block that fits several with
# the first of them.
KINDS = (SPARSE_CHAIN, NONDECREASING_GRAPH, GRAPH, RANKED_CHAIN, VERTICAL_LINE)


class IdealError(ValueError):
    """Raised for presentations without a usable generator system."""


class OracleScaleError(ValueError):
    """Raised when the brute-force oracle is asked about too many points."""


class SearchScaleError(ValueError):
    """Raised when the line search of a cover passes its work bound.

    ``certificate`` is the best cover the search had found and
    ``lower_bound`` a cost that no cover of the points goes below."""

    def __init__(self, message, certificate=None, lower_bound=None):
        super().__init__(message)
        self.certificate = certificate
        self.lower_bound = lower_bound


_ORDERS = {
    VERTICAL_LINE: lambda lo, hi: lo[0] == hi[0],
    SPARSE_CHAIN: sparse_before,
    GRAPH: graph_before,
    NONDECREASING_GRAPH: nondecreasing_before,
}


def _order(kind: str, rank=None):
    """The pair test of a kind: two points in canonical order lie in one
    generator.  Every test is transitive, so consecutive points decide."""
    if kind == RANKED_CHAIN:
        if rank is None:
            raise ValueError("ranked chains need a rank map")
        return ranked(rank)
    if kind not in _ORDERS:
        raise ValueError(f"unknown generator kind: {kind!r}")
    return _ORDERS[kind]


def part_is_valid(kind: str, members: Iterable[Point], rank=None) -> bool:
    """Whether points, in any order and with repeats, trace one generator of the kind."""
    pts = canonical_points(members)
    return bool(pts) and is_chain(_order(kind, rank), pts)


class CoverPart(NamedTuple):
    kind: str
    members: tuple[Point, ...]


class CoverCertificate(NamedTuple):
    """A disjoint cover of a finite point set by generator traces."""

    parts: tuple[CoverPart, ...]

    @property
    def cost(self) -> int:
        return len(self.parts)

    def validate(self, points: Iterable[Point], rank=None) -> bool:
        """Parts are pairwise disjoint valid traces whose union is the input set."""
        seen: set[Point] = set()
        for part in self.parts:
            if not part_is_valid(part.kind, part.members, rank):
                return False
            for p in part.members:
                if p in seen:
                    return False
                seen.add(p)
        return seen == set(points)

    def to_json(self) -> dict:
        return {
            "cost": self.cost,
            "parts": [
                {"kind": part.kind, "members": [list(p) for p in part.members]}
                for part in self.parts
            ],
        }


class SparsityWitness(NamedTuple):
    points: tuple[Point, ...]
    level: int

    def to_json(self) -> dict:
        return {"level": self.level, "points": [list(p) for p in self.points]}


def sparsity_witness(points: Sequence[Point]) -> SparsityWitness | None:
    """Witness that a point list needs one sparse chain per point.

    The conditions: columns strictly increase along the list and every
    coordinate sum exceeds the last column.  Any two such points would
    need the later column to exceed the earlier sum, which the sum bound
    forbids, so a witness on k+1 points pins the sparse-chain cover
    number to exactly k+1 (singletons give the upper bound).
    """
    pts = tuple(points)
    if not pts:
        raise ValueError("nonempty point list required")
    for a, b in zip(pts, pts[1:]):
        if a[0] >= b[0]:
            return None
    last_col = pts[-1][0]
    for p in pts:
        if p[0] + p[1] <= last_col:
            return None
    return SparsityWitness(pts, len(pts) - 1)


# ---------------------------------------------------------------------------
# brute-force oracle


def _oracle_tables(pts, kinds, rank):
    """label[mask]: the first admitted kind of which the points of mask
    form one generator trace, else None; near[i]: the points comparable
    to point i in some admitted kind.

    A mask is a trace of a kind exactly when its low point is comparable
    to all its other points and they form a trace, so each kind's traces
    with low point i are built from the traces among i's comparable
    points above it, highest i first."""
    n = len(pts)
    size = 1 << n
    label = [None] * size
    near = [0] * n
    for kind in [k for k in KINDS if k in kinds]:
        before = _order(kind, rank)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if before(pts[i], pts[j]):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        vk = bytearray(size)
        vk[0] = 1
        for i in reversed(range(n)):
            low = 1 << i
            above = rows[i] >> (i + 1) << (i + 1)
            rest = above
            while True:
                if vk[rest]:
                    vk[rest | low] = 1
                    if label[rest | low] is None:
                        label[rest | low] = kind
                if not rest:
                    break
                rest = (rest - 1) & above
            near[i] |= rows[i]
    return label, near


def _oracle_dp(pts, kinds, rank):
    """dp[mask]: the fewest traces partitioning mask; choice[mask]: the
    block of a minimum partition holding mask's low point.

    The blocks holding the low point are the low point plus a submask of
    its comparable points in mask, tried in descending order; a block
    replaces the best only at a strictly lower cost, so the first
    minimum in that order is chosen."""
    n = len(pts)
    size = 1 << n
    label, near = _oracle_tables(pts, kinds, rank)
    dp = [0] * size
    choice = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        rest = mask ^ low
        # traces are hereditary and singletons are traces, so dp[mask] is
        # dp[rest] or one more: a block reaching dp[rest] ends the search
        floor = dp[rest]
        cand = rest & near[low.bit_length() - 1]
        best = n + 1
        sub = cand
        while True:
            if label[sub | low] is not None:
                c = dp[rest ^ sub] + 1
                if c < best:
                    best, best_sub = c, sub | low
                    if c == floor:
                        break
            if not sub:
                break
            sub = (sub - 1) & cand
        dp[mask] = best
        choice[mask] = best_sub
    return dp, choice, label


def _check_oracle_input(points, kinds):
    unknown = [k for k in kinds if k not in KINDS]
    if unknown or not kinds:
        raise ValueError(f"unknown generator kinds: {unknown or kinds}")
    pts = canonical_points(points)
    if len(pts) > ORACLE_LIMIT:
        raise OracleScaleError(
            f"oracle scale exceeded: {len(pts)} points, limit {ORACLE_LIMIT}"
        )
    return pts


def oracle_cover_cost(points, kinds, rank=None) -> int:
    """Minimum cover cost by exhaustive partition search, cost only."""
    kinds = tuple(kinds)
    pts = _check_oracle_input(points, kinds)
    if not pts:
        return 0
    dp, _, _ = _oracle_dp(pts, kinds, rank)
    return dp[(1 << len(pts)) - 1]


def brute_force_cover(points, kinds, rank=None) -> CoverCertificate:
    """Minimum cover by exhaustive search over partitions into generator
    traces of the admissible kinds; deterministic tie-breaking."""
    kinds = tuple(kinds)
    pts = _check_oracle_input(points, kinds)
    if not pts:
        return CoverCertificate(())
    dp, choice, label = _oracle_dp(pts, kinds, rank)
    parts = []
    mask = (1 << len(pts)) - 1
    while mask:
        sub = choice[mask]
        members = tuple(pts[i] for i in range(len(pts)) if sub & (1 << i))
        parts.append(CoverPart(label[sub], members))
        mask ^= sub
    parts.sort(key=lambda part: part.members[0])
    return CoverCertificate(tuple(parts))


# ---------------------------------------------------------------------------
# structured solvers


def sparse_chain_partition(pts) -> list[tuple[Point, ...]]:
    """Optimal partition of canonical points into sparse chains: first fit."""
    chains: list[list[Point]] = []
    ends: list[int] = []
    for p in pts:
        for i, e in enumerate(ends):
            if e < p[0]:
                chains[i].append(p)
                ends[i] = p[0] + p[1]
                break
        else:
            chains.append([p])
            ends.append(p[0] + p[1])
    return [tuple(ch) for ch in chains]


def sparse_chain_cover_number(points) -> int:
    """Minimum number of sparse chains covering the set, in any order.

    Two points share a chain exactly when their spans [col, col+row] are
    disjoint.  First fit in canonical order is optimal: a chain only
    takes a point p when the span of its last point ends before p's
    column, and that last point's column is at most p's.  So when first
    fit opens a new chain for p, the last spans of the k open chains
    all contain p's column, as p's span does.  These k+1 spans pairwise
    overlap, no two of their points share a chain, and every cover needs
    k+1 chains.
    """
    return len(sparse_chain_partition(canonical_points(points)))


def _column_groups(pts):
    groups: dict[int, list[Point]] = {}
    for p in pts:
        groups.setdefault(p[0], []).append(p)
    return groups


def _graph_partition(pts) -> list[tuple[Point, ...]]:
    """Minimum partition into graphs: the i-th point of every column goes
    to graph i, so there are as many graphs as the largest multiplicity."""
    rows = zip_longest(*_column_groups(pts).values())
    return [tuple(p for p in row if p is not None) for row in rows]


def _augment(adj, match_right, root, seen) -> bool:
    """Search for an augmenting path from left vertex root, depth first
    with an explicit stack, and flip it when found.  Right vertices are
    tried in ascending order, which fixes the matching found and so the
    certificate."""
    stack = [(root, iter(adj[root]))]
    path: list[int] = []
    while stack:
        for j in stack[-1][1]:
            if not seen[j]:
                seen[j] = True
                path.append(j)
                if match_right[j] == -1:
                    for (i, _), k in zip(stack, path):
                        match_right[k] = i
                    return True
                stack.append((match_right[j], iter(adj[match_right[j]])))
                break
        else:
            stack.pop()
            if path:
                path.pop()
    return False


def nondecreasing_chain_partition(pts) -> list[tuple[Point, ...]]:
    """Minimum partition of canonical points into nondecreasing graphs.

    One augmenting path search per point matches it to a successor; the
    n minus matching size points left without a predecessor start the
    chains, the usual minimum-path-cover argument.
    """
    n = len(pts)
    adj = [
        [j for j in range(i + 1, n) if nondecreasing_before(pts[i], pts[j])]
        for i in range(n)
    ]
    match_right = [-1] * n
    for i in range(n):
        _augment(adj, match_right, i, [False] * n)
    succ = {i: j for j, i in enumerate(match_right) if i != -1}
    chains = []
    for start, pred in enumerate(match_right):
        if pred != -1:
            continue
        chain = [start]
        while chain[-1] in succ:
            chain.append(succ[chain[-1]])
        chains.append(tuple(pts[k] for k in chain))
    return chains


def _ranked_chain_partition(pts, rank) -> list[tuple[Point, ...]]:
    """Minimum partition of canonical points into ranked chains: by the
    oracle, except that a set which is one chain needs no search."""
    if pts and is_chain(ranked(rank), pts):
        return [tuple(pts)]
    return [part.members for part in brute_force_cover(pts, (RANKED_CHAIN,), rank=rank).parts]


# An antichain scan is built per search from (pts, groups, cols) and has:
# ``start``, the state before any column; ``passed(state, i)`` and
# ``taken(state, i)``, the state once column i is passed over or taken as
# a line, leaving ``state`` as it was; ``passed_size(state)``, the size of
# the antichain of the passed-over points; and ``antichain(state, i)``,
# at a node whose last line is column i, the size of the antichain of
# the points off the lines and its points on each open column from i+1
# on (the columns past the list hold none).


class _SparseScan:
    """Sparse-chain antichains of the points off the lines, read off the
    columns left to right.

    Spans [col, col+row] that share a column pairwise overlap, so the
    points whose spans hold a column need one chain each; their number is
    the column's depth, and the first column of greatest depth, the
    busiest, gives an antichain as large as the partition (the proof of
    ``sparse_chain_cover_number``).  cnt(a, b) counts the points of
    column a whose spans reach column b >= a.  A column's depth over the
    points off the lines is its depth over every point less cnt(l, b) for
    each line l at or before it.  So a state is the greatest depth of the
    columns passed over and the depths of the columns after the last
    line, and taking a line subtracts its cnt from the depths after it.
    """

    def __init__(self, pts, groups, cols):
        self.n = len(cols)
        self.cols = cols
        # ends[a]: the span ends of column a, ascending, so that
        # cnt(a, b) = len(ends[a]) - bisect_left(ends[a], cols[b])
        self.ends = [[p[0] + p[1] for p in groups[c]] for c in cols]
        ends = sorted(p[0] + p[1] for p in pts)
        upto = accumulate(len(e) for e in self.ends)
        self.start = (0, [k - bisect_left(ends, c) for c, k in zip(cols, upto)])

    def passed(self, state, i):
        top, depths = state
        depth = depths[i - self.n + len(depths)]
        return (depth, depths) if depth > top else state

    def taken(self, state, i):
        top, depths = state
        ends = self.ends[i]
        after = depths[i + 1 - self.n + len(depths):]
        return top, [
            d - len(ends) + bisect_left(ends, c) for d, c in zip(after, self.cols[i + 1:])
        ]

    def passed_size(self, state):
        return state[0]

    def antichain(self, state, i):
        top, depths = state
        most = max(depths, default=0)
        if most <= top:
            return top, []
        b = i + 1 + depths.index(most)
        col = self.cols[b]
        return most, [len(ends) - bisect_left(ends, col) for ends in self.ends[i + 1:b + 1]]


class _NondecreasingScan:
    """Nondecreasing-graph antichains of the points off the lines, read
    off the columns left to right.

    Two points of a strictly decreasing run of rows in (column, -row)
    order share a column or have the later one lower; conversely any set
    of pairwise incomparable points is such a run, so a longest run is as
    large as the partition by Dilworth's theorem.  Patience sorting
    (``grid.extend_increasing``) over each column's points, highest row
    first, finds one; a state is its tails and runs after the columns
    passed over, labelled by column index, and a node resumes it over the
    open columns.
    """

    def __init__(self, pts, groups, cols):
        self.items = [[(-p[1], a) for p in reversed(groups[c])] for a, c in enumerate(cols)]
        self.start = ((), ())

    def passed(self, state, i):
        tails, runs = list(state[0]), list(state[1])
        extend_increasing(tails, runs, self.items[i])
        return tails, runs

    def taken(self, state, i):
        return state

    def passed_size(self, state):
        return len(state[0])

    def antichain(self, state, i):
        tails, runs = list(state[0]), list(state[1])
        for items in self.items[i + 1:]:
            extend_increasing(tails, runs, items)
        counts = [0] * (len(self.items) - i - 1)
        run = runs[-1] if runs else None
        while run is not None and run[0] > i:
            counts[run[0] - i - 1] += 1
            run = run[1]
        return len(tails), counts


def _heavy_counts(mults, floor) -> list[int]:
    """counts[i]: how many of mults[i:] are at least floor."""
    return list(accumulate((m >= floor for m in reversed(mults)), initial=0))[::-1]


def _best_lines(
    pts, family, rank=None
) -> tuple[tuple[int, ...], list[tuple[Point, ...]]]:
    """Lines on some occupied columns and a chain partition of the other
    points, together the fewest generators of the family covering the
    canonical pts.

    Line subsets are tried by increasing size, then in ``combinations``
    order, depth first, and a subset replaces the best only at a
    strictly lower cost, so among minimum covers the first with the
    fewest lines wins.  A node has fixed a prefix of its subset: the
    columns taken as lines, the columns passed over before the last of
    them, and ``need`` lines still to take from the open columns after
    it.  Three lower bounds hold for every cover below a node, and a
    node whose bound reaches the best cost is cut: it holds no subset
    that could replace the best.  The first counts multiplicities, at
    every node and at the root of each size: a chain holds one point
    per column and the ``need`` lines take at most ``need`` open
    columns, so the largest multiplicity of the passed-over columns and
    the (need+1)-th largest of the open ones stay on chains.  The other
    two count antichains, whose points need a chain each: the antichain
    of the points off the lines, less its points on the ``need`` open
    columns holding most of them, and the antichain of the passed-over
    columns.  A subset is partitioned only when its size plus the
    antichain of the points it leaves is below the best.

    The antichains come from the family's scan, a left-to-right pass
    over the columns whose state after the passed-over columns rides in
    each frame: a frame passes a column over as it moves past it, a
    child starts from its parent's state before that, and a node resumes
    the scan over its open columns only.  Graphs and ranked chains have
    no scan, as the antichain known for them is the most populated
    column.  For graphs the multiplicity bound is the cheapest cover
    below the node, so every node kept has a strictly better leaf below
    it and the search is polynomial.

    A node is one step.  A leaf, and every node of a family with a scan,
    adds one step per point: such nodes listed the points off their
    lines before the scans were carried, and the charge is kept so that
    every search stops where it stopped then.  Past ``MAX_SEARCH_WORK``
    steps the search raises ``SearchScaleError`` with the best cover
    found and a lower bound for every cover.
    """
    kind, partition, scan_of = _FAMILIES[family]
    if kind == RANKED_CHAIN:
        partition = partial(partition, rank=rank)
    groups = _column_groups(pts)
    cols = sorted(groups)
    n = len(cols)
    mults = [len(groups[c]) for c in cols]
    by_size = sorted(mults, reverse=True) + [0]
    scan = scan_of(pts, groups, cols) if scan_of else None
    best_lines, best_chains = (), partition(pts)
    best, work = len(best_chains), 0
    for size in range(1, n + 1):
        if size + by_size[size] >= best:
            continue
        heavy = _heavy_counts(mults, best - size)
        # one frame per node being expanded: its lines, the next column to
        # take, the largest multiplicity of the columns passed over and the
        # scan's state after them
        frames = [[(), 0, 0, scan.start if scan else None]]
        while frames and size + by_size[size] < best:
            frame = frames[-1]
            lines, i, passed_mult, state = frame
            need = size - len(lines) - 1
            if i + need >= n:
                frames.pop()
                continue
            frame[1] = i + 1
            if mults[i] > passed_mult:
                frame[2] = mults[i]
            if scan:
                frame[3] = scan.passed(state, i)
            work += 1
            if work > MAX_SEARCH_WORK:
                # every size below this one is finished, and at least
                # by_size[s] points stay off any s lines
                floor = min(s + by_size[s] for s in range(size, n + 1))
                raise SearchScaleError(
                    f"covering search bound exceeded: {family}, {len(pts)} points"
                    f" in {n} columns, more than {MAX_SEARCH_WORK} steps",
                    _certificate(kind, groups, best_lines, best_chains),
                    min(best, floor),
                )
            if passed_mult >= best - size or heavy[i + 1] > need:
                continue
            lines += (cols[i],)
            if need and not scan:
                frames.append([lines, i + 1, passed_mult, None])
                continue
            work += len(pts)
            if scan:
                state = scan.taken(state, i)
                kept, on_open = scan.antichain(state, i)
                if size + kept - sum(sorted(on_open, reverse=True)[:need]) >= best:
                    continue
            if need == 0:
                line_set = set(lines)
                chains = partition([p for p in pts if p[0] not in line_set])
                if size + len(chains) < best:
                    best, best_lines, best_chains = size + len(chains), lines, chains
                    heavy = _heavy_counts(mults, best - size)
                continue
            if size + scan.passed_size(state) >= best:
                # the later siblings pass over these columns and more
                frames.pop()
                continue
            frames.append([lines, i + 1, passed_mult, state])
    return best_lines, best_chains


def _certificate(kind, groups, lines, chains) -> CoverCertificate:
    """The cover by lines on the given columns and chains of the kind."""
    parts = [CoverPart(VERTICAL_LINE, tuple(groups[c])) for c in sorted(lines)]
    parts.extend(CoverPart(kind, chain) for chain in chains)
    return CoverCertificate(tuple(parts))


# ---------------------------------------------------------------------------
# dispatch


# family -> (chain kind, partition, antichain scan); the ranked family's
# partition also takes its rank map
_FAMILIES = {
    "WR": (SPARSE_CHAIN, sparse_chain_partition, _SparseScan),
    "ED": (GRAPH, _graph_partition, None),
    "EDup": (NONDECREASING_GRAPH, nondecreasing_chain_partition, _NondecreasingScan),
    "WRpi": (RANKED_CHAIN, _ranked_chain_partition, None),
}


def phi(ideal, points) -> tuple[int, CoverCertificate]:
    """Minimum mixed cover cost and a witnessing certificate, in any order.

    Among minimum covers the certificate uses the fewest lines."""
    pts = canonical_points(points)
    family = ideal if isinstance(ideal, str) else getattr(ideal, "family", None)
    rank = getattr(ideal, "rank_map", None)
    if family not in _FAMILIES:
        raise IdealError(f"no generator system: {family!r}")
    kind = _FAMILIES[family][0]
    if kind == RANKED_CHAIN and rank is None:
        raise IdealError("ranked family without a rank map")
    lines, chains = _best_lines(pts, family, rank)
    cert = _certificate(kind, _column_groups(pts), lines, chains)
    return cert.cost, cert


def phi_cost(ideal, points) -> int:
    """The cost of ``phi``."""
    return phi(ideal, points)[0]
