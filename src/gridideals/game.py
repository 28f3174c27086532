"""The point-picking game on a presentation.

Player one plays a set from the ideal each round, player two answers
with a point outside it, and player one aims to trap the picks inside a
single ideal set.  For the chain families the blocking strategy walls
off every column a future pick could pair up with, so the picks always
form one chain generator.  The module also carries the finite
transformations between colorings, decreasing set chains, trees, and
partitions that surround the game.
"""

from __future__ import annotations

import random
from typing import Callable, Iterable, Mapping

from .covering import IdealError, phi_cost
from .grid import Point, is_sparse_chain, point_sum
from .gridmaps import PartitionWitness
from .presentations import (
    IdealPresentation,
    SetDescriptor,
    descriptor_in_ideal,
    pick_outside,
)


# the longest game play accepts.  WR and WRpi transcripts grow linearly
# with the round count (one column run per round); exact WR lists a tail
# for every free column below the picks each round, so its transcript
# grows with the square of the round count
MAX_ROUNDS = 400


class GameError(RuntimeError):
    pass


class GameState:
    """The presentation played on, the (set, pick) moves so far, and the
    seed; mutable, compared by value, unhashable."""

    __slots__ = ("presentation", "moves", "seed")
    __hash__ = None

    def __init__(
        self,
        presentation: IdealPresentation,
        moves: list[tuple[SetDescriptor, Point]] | None = None,
        seed: int | None = None,
    ):
        self.presentation = presentation
        self.moves = [] if moves is None else moves
        self.seed = seed

    def __repr__(self) -> str:
        return (
            f"GameState(presentation={self.presentation!r}, moves={self.moves!r}, "
            f"seed={self.seed!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.presentation, self.moves, self.seed) == (
            other.presentation, other.moves, other.seed
        )

    @property
    def round(self) -> int:
        return len(self.moves)

    def picks(self) -> tuple[Point, ...]:
        return tuple(k for _, k in self.moves)


def blocking_strategy(exact: bool = False) -> Callable[[GameState], SetDescriptor]:
    """Player one's winning recipe for the chain families.

    Each round blocks, for every pick so far, all columns up to its
    coordinate sum (plus the picks themselves), which forces the next
    pick to be pair-compatible with everything played.  The exact mode
    blocks only the color-1 section of each pick, using tails below it
    instead of whole columns.  For a ranked family the finitely many
    points of too-small rank are blocked as a finite set.

    A strategy keeps its wall between calls: the picks it last saw, the
    highest blocked column, and for a ranked family the largest pick
    rank and the points of that rank sublevel past the blocked columns.
    When a call's picks extend the kept ones, on the same family and
    the same rank map object, only the new picks are read: the
    preimages of newly reached rank values are added, and the kept
    points on columns the wall rises over are dropped.  Any other call rebuilds the wall
    from its own picks, so the descriptor never depends on call order.
    The exact mode keeps nothing, since one sweep over the sorted picks
    gives it.
    """
    wall: _Wall | None = None

    def strategy(state: GameState) -> SetDescriptor:
        nonlocal wall
        picks = state.picks()
        if not picks:
            return SetDescriptor.build()
        ideal = state.presentation
        if ideal.family == "WR" and exact:
            return _exact_sections(picks)
        if ideal.family not in ("WR", "WRpi"):
            raise GameError(f"no blocking strategy for {ideal.family!r}")
        if wall is None or not wall.extended_by(ideal, picks):
            wall = _Wall(ideal)
        wall.advance(picks)
        return wall.descriptor()

    return strategy


class _Wall:
    """The columns 0..top a WR or WRpi strategy blocks, and for WRpi the
    rank sublevel points past them.

    WR walls off every column up to the largest coordinate sum of a
    pick.  WRpi walls off every column up to the largest pick column and
    one below the largest pick rank, plus the finite rest of that rank's
    sublevel.
    """

    def __init__(self, ideal: IdealPresentation):
        self.family = ideal.family
        self.rank = ideal.rank_map
        self.picks: tuple[Point, ...] = ()
        self.top = -1
        self.level = -1
        self.past: set[Point] = set()

    def extended_by(self, ideal: IdealPresentation, picks: tuple[Point, ...]) -> bool:
        return (
            ideal.family == self.family
            and ideal.rank_map is self.rank
            and picks[: len(self.picks)] == self.picks
        )

    def advance(self, picks: tuple[Point, ...]) -> None:
        new = picks[len(self.picks):]
        if self.family == "WR":
            top = max(self.top, max(map(point_sum, new), default=-1))
        else:
            level = max(self.level, max(map(self.rank, new), default=-1))
            top = max(self.top, max((p[0] for p in new), default=-1), level - 1)
            fresh = [
                q
                for v in range(self.level + 1, level + 1)
                for q in self.rank.preimages(v)
                if q[0] > top
            ]
            if top > self.top:
                self.past = {q for q in self.past if q[0] > top}
            self.past.update(fresh)
            self.level = level
        self.top, self.picks = top, picks

    def descriptor(self) -> SetDescriptor:
        # already canonical: one run, no tails, and no point on the run
        return SetDescriptor(((0, self.top),), (), frozenset(self.past))


def _exact_sections(picks: tuple[Point, ...]) -> SetDescriptor:
    """The color-1 sections of the picks under the sparse coloring.

    A pick (i, j) blocks the columns i..i+j and the tail from row i - c
    of every column c < i.  Of the tails on one column the longest wins,
    so a column c outside every pick's columns keeps the tail from row
    (next pick column past c) - c, and one sweep over the picks sorted
    by column lists the column runs and the tails in order.
    """
    runs: list[tuple[int, int]] = []
    tails: list[tuple[int, int]] = []
    free = 0  # the first column past every pick's columns so far
    for i, j in sorted(picks):
        tails.extend((c, i - c) for c in range(free, i))
        if i + j < free:
            continue
        if runs and i <= free:  # the columns go on from the last run
            runs[-1] = (runs[-1][0], i + j)
        else:
            runs.append((max(free, i), i + j))
        free = i + j + 1
    return SetDescriptor(tuple(runs), tuple(tails), frozenset())


def empty_strategy(state: GameState) -> SetDescriptor:
    return SetDescriptor.build()


def least_lex_opponent(state: GameState, blocked: SetDescriptor) -> Point:
    return pick_outside(blocked)


def random_opponent(seed: int, spread: int = 8, row_spread: int = 12):
    """Seeded legal opponent: random points near the action, with a
    deterministic fallback beyond the blocked columns.

    The points are drawn in no column past the largest pick sum plus
    spread.  That sum is kept with the state and the number of moves it
    was read from, so a call on the same state after more moves reads
    only the new ones.  A call on another state, on fewer moves, or on a
    state whose last move read before has been replaced reads them all
    again.
    """
    rng = random.Random(seed)
    seen: tuple = (None, 0, None)  # state, moves read, the last move read
    top = 0  # the largest pick sum among the moves read

    def opponent(state: GameState, blocked: SetDescriptor) -> Point:
        nonlocal seen, top
        moves = state.moves
        seen_state, read, last = seen
        if state is not seen_state or read > len(moves) or (read and moves[read - 1] is not last):
            read, top = 0, 0
        for _, k in moves[read:]:
            top = max(top, point_sum(k))
        seen = (state, len(moves), moves[-1] if moves else None)
        hi = top + spread
        draw, contains = rng.randrange, blocked.contains
        for _ in range(64):
            p = (draw(hi + 1), draw(row_spread + 1))
            if not contains(p):
                return p
        return pick_outside(blocked, beyond=hi)

    return opponent


def scripted_opponent(points: Iterable[Point]):
    script = iter(points)

    def opponent(state: GameState, blocked: SetDescriptor) -> Point:
        try:
            return next(script)
        except StopIteration:
            raise GameError("script exhausted") from None

    return opponent


def play(
    presentation: IdealPresentation,
    player_one: Callable[[GameState], SetDescriptor],
    player_two: Callable[[GameState, SetDescriptor], Point],
    rounds: int,
    seed: int | None = None,
) -> GameState:
    """Run a legality-checked match and return the transcript state."""
    if rounds > MAX_ROUNDS:
        raise ValueError(f"rounds must be at most {MAX_ROUNDS}")
    state = GameState(presentation, seed=seed)
    for n in range(rounds):
        blocked = player_one(state)
        if not descriptor_in_ideal(presentation, blocked):
            raise GameError(f"player one left the ideal at round {n}")
        pick = player_two(state, blocked)
        if blocked.contains(pick):
            raise GameError(f"player two picked a blocked point at round {n}")
        state.moves.append((blocked, pick))
    return state


def verdict(state: GameState) -> dict:
    """Finite-horizon report: no winner is declared, only whether the
    picks sit inside one chain generator and what they cost to cover."""
    picks = state.picks()
    out = {
        "rounds": state.round,
        "sparse_chain": is_sparse_chain(picks),
    }
    try:
        out["phi"] = phi_cost(state.presentation, picks)
    except IdealError:
        out["phi"] = None
    return out


def transcript_json(state: GameState) -> dict:
    return {
        "seed": state.seed,
        "rounds": [
            {"X": blocked.to_json(), "k": list(pick)}
            for blocked, pick in state.moves
        ],
        "verdict": verdict(state),
    }


# ---------------------------------------------------------------------------
# trees built from colorings


class FiniteTree:
    """Lazily materialized tree of chosen-point sequences.

    The children of a node are exactly the members of its ramification;
    materialized nodes stay prefix closed by construction.
    """

    def __init__(self, root_ramification: Iterable[Point], child_rule, depth: int = 0):
        self._ram: dict[tuple, frozenset] = {(): frozenset(root_ramification)}
        self._rule = child_rule
        self.depth = depth

    def ramification(self, node: Iterable[Point]) -> frozenset:
        node = tuple(node)
        known = len(node)
        while node[:known] not in self._ram:
            known -= 1
        for n in range(known + 1, len(node) + 1):
            parent = node[: n - 1]
            parent_ram = self._ram[parent]
            if node[n - 1] not in parent_ram:
                raise KeyError(f"{node[:n]!r} is not a tree node")
            self._ram[node[:n]] = self._rule(parent, parent_ram, node[n - 1])
        return self._ram[node]

    def children(self, node: Iterable[Point]) -> list[Point]:
        return sorted(self.ramification(node))

    def nodes(self) -> list[tuple]:
        return sorted(self._ram)

    def branches(self, depth: int | None = None):
        """All chosen-point sequences of the given length (shorter when a
        ramification empties out first), depth first in sorted order."""
        if depth is None:
            depth = self.depth
        node: tuple = ()
        pending = []  # per level above node, the children not yet visited
        while True:
            ram = self.ramification(node) if len(node) != depth else None
            if ram:
                pending.append(iter(sorted(ram)))
            else:
                yield node
            while pending:
                nxt = next(pending[-1], None)
                if nxt is not None:
                    node = node[: len(pending) - 1] + (nxt,)
                    break
                pending.pop()
            else:
                return


def coloring_to_tree(
    coloring: Callable[[Point, Point], int],
    small_class: Callable[[Point], int],
    depth: int,
    window: int | Iterable[Point],
) -> FiniteTree:
    """Tree whose ramification below a chosen point keeps only its big
    color section: small_class names the color class claimed small, and
    children survive in the opposite class."""
    if isinstance(window, int):
        pts = frozenset((c, r) for c in range(window) for r in range(window))
    else:
        pts = frozenset(window)

    def rule(parent, parent_ram, chosen):
        large = 1 - small_class(chosen)
        return frozenset(
            b for b in parent_ram if b != chosen and coloring(chosen, b) == large
        )

    return FiniteTree(pts, rule, depth)


# ---------------------------------------------------------------------------
# chains, colorings, families of sets over the naturals


def decreasing_chain_to_coloring(chain: Callable[[int], object]) -> Callable[[int, int], int]:
    """Color a pair 0 exactly when the larger element belongs to the
    smaller element's set."""

    def color(n: int, m: int) -> int:
        if n == m:
            raise ValueError("pair required")
        lo, hi = (n, m) if n < m else (m, n)
        members = chain(lo)
        inside = members(hi) if callable(members) else hi in members
        return 0 if inside else 1

    return color


def normalize_family(family: Mapping[tuple, frozenset]) -> dict[tuple, frozenset]:
    """Intersect each set with every family member whose index is no
    longer and has no larger maximum, making the family monotone in that
    preorder while staying pointwise inside the original."""
    out = {}
    for t, xt in family.items():
        cur = set(xt)
        lt = len(t)
        mt = max(t, default=-1)
        for s, xs in family.items():
            if s != t and len(s) <= lt and max(s, default=-1) <= mt:
                cur &= set(xs)
        out[t] = frozenset(cur)
    return out


def condition4_check(witness: PartitionWitness, f: Callable[[int], int], window: int) -> bool:
    """Strictly increasing and always jumping into a class indexed above
    the previous value."""
    vals = [f(n) for n in range(window)]
    for a, b in zip(vals, vals[1:]):
        if b <= a or witness.class_of(b) <= a:
            return False
    return True
