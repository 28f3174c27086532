import hashlib
import json
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridideals import (
    DIAG_RANK,
    FIN,
    RANK_CATALOG,
    WR,
    FiniteTree,
    GameError,
    GameState,
    blocking_strategy,
    coloring_to_tree,
    column,
    condition4_check,
    decreasing_chain_to_coloring,
    descriptor_in_ideal,
    dyadic_partition,
    empty_set,
    finite_points,
    is_sparse_chain,
    least_lex_opponent,
    normalize_family,
    phi_cost,
    play,
    random_opponent,
    scripted_opponent,
    sparse_pair_color,
    transcript_json,
    verdict,
    wr_pi,
)
from gridideals import game
from gridideals.game import empty_strategy
from support import (
    json_descriptor_contains,
    reference_blocking_strategy,
    reference_random_opponent,
    stack_depth,
)


def test_strategy_descriptor_shapes():
    strat = blocking_strategy()
    state = GameState(WR)
    assert strat(state) == empty_set()
    state.moves.append((empty_set(), (0, 0)))
    assert strat(state) == column(0) | finite_points([(0, 0)])
    state.moves.append((empty_set(), (1, 7)))
    d = strat(state)
    assert d.columns == ((0, 8),)


def test_least_lex_match():
    state = play(WR, blocking_strategy(), least_lex_opponent, 3)
    assert state.picks() == ((0, 0), (1, 0), (2, 0))
    assert verdict(state)["sparse_chain"]
    assert verdict(state)["phi"] == 1


def test_column_spammer_defeats_empty_strategy():
    state = play(WR, empty_strategy, scripted_opponent([(0, 0), (0, 1), (0, 2)]), 3)
    assert state.picks() == ((0, 0), (0, 1), (0, 2))
    assert not verdict(state)["sparse_chain"]


def test_random_opponents_lose_long_games():
    for seed in range(5):
        state = play(WR, blocking_strategy(), random_opponent(seed), 60, seed=seed)
        picks = state.picks()
        assert is_sparse_chain(picks)
        assert phi_cost(WR, picks) == 1
        for blocked, pick in state.moves:
            assert descriptor_in_ideal(WR, blocked)
            assert not blocked.contains(pick)


def test_exact_sections_also_win():
    state = play(WR, blocking_strategy(exact=True), random_opponent(5), 40)
    assert is_sparse_chain(state.picks())
    for blocked, _ in state.moves:
        assert descriptor_in_ideal(WR, blocked)


def test_exact_sections_block_exactly_color_one():
    strat = blocking_strategy(exact=True)
    state = GameState(WR)
    state.moves.append((empty_set(), (3, 2)))
    d = strat(state)
    for c in range(12):
        for r in range(12):
            if (c, r) == (3, 2):
                assert d.contains((c, r))
            else:
                expected = sparse_pair_color((3, 2), (c, r)) == 1
                assert d.contains((c, r)) == expected


def test_ranked_family_strategy():
    from gridideals import MAX_RANK, OFFSET_RANK, SKEW_RANK, is_ranked_chain

    for rank in (DIAG_RANK, MAX_RANK, SKEW_RANK, OFFSET_RANK):
        ideal = wr_pi(rank)
        state = play(ideal, blocking_strategy(), random_opponent(11), 25)
        assert is_ranked_chain(rank, state.picks())
        assert verdict(state)["phi"] == 1


def test_illegal_strategy_is_caught():
    def cheating_player_two(state, blocked):
        return (0, 0)

    strat = blocking_strategy()
    with pytest.raises(GameError, match="round 1"):
        play(WR, strat, cheating_player_two, 2)

    def cheating_player_one(state):
        return column(0)  # fine for WR, illegal for Fin

    with pytest.raises(GameError, match="player one"):
        play(FIN, cheating_player_one, least_lex_opponent, 1)


def test_rounds_past_the_cap_are_refused():
    calls = []

    def player_one(state):
        calls.append(state.round)
        return empty_set()

    with pytest.raises(ValueError, match=str(game.MAX_ROUNDS)):
        play(WR, player_one, least_lex_opponent, game.MAX_ROUNDS + 1)
    assert calls == []
    assert play(WR, empty_strategy, least_lex_opponent, game.MAX_ROUNDS).round == game.MAX_ROUNDS


def test_unsupported_strategy_family():
    # round 0 blocks nothing, so the family is only interrogated afterwards
    with pytest.raises(GameError):
        play(FIN, blocking_strategy(), least_lex_opponent, 2)


def test_transcript_shape():
    state = play(WR, blocking_strategy(), random_opponent(2), 4, seed=2)
    doc = transcript_json(state)
    assert doc["seed"] == 2
    assert len(doc["rounds"]) == 4
    assert set(doc["rounds"][0]) == {"X", "k"}
    assert doc["verdict"]["sparse_chain"] is True


GAME_IDEALS = [WR] + [wr_pi(rank) for rank in RANK_CATALOG.values()]
_picks = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 14)), max_size=14)


@settings(max_examples=300, deadline=None)
@given(
    exact=st.booleans(),
    sequences=st.lists(_picks, min_size=1, max_size=3),
    calls=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 14), st.integers(0, len(GAME_IDEALS) - 1)),
        max_size=30,
    ),
)
def test_strategy_matches_reference_in_any_call_order(exact, sequences, calls):
    # one strategy serves states that grow, shrink, diverge and switch
    # ideals; every descriptor must equal the one recomputed from scratch
    strategy = blocking_strategy(exact=exact)
    reference = reference_blocking_strategy(exact=exact)
    for which, length, ideal_index in calls:
        picks = sequences[which % len(sequences)][:length]
        state = GameState(GAME_IDEALS[ideal_index], [(empty_set(), p) for p in picks])
        assert strategy(state) == reference(state), (state.presentation.describe(), picks)
    for ideal in GAME_IDEALS:
        state = GameState(ideal)
        for p in sequences[0]:
            state.moves.append((empty_set(), p))
            assert strategy(state) == reference(state), (ideal.describe(), state.picks())


_SWITCH = [[(0, 0), (3, 3), (1, 1)], [(0, 0), (0, 0), (1, 1), (0, 0)]]


@settings(max_examples=300, deadline=None)
# a second state whose third move is the first state's third move
@example(seed=0, sequences=_SWITCH, calls=[(0, 0, 3, False, False), (1, 1, 4, False, False)])
# the same state refilled with fresh moves past the count read before
@example(seed=0, sequences=_SWITCH, calls=[(0, 0, 3, False, False), (0, 1, 4, True, False)])
@given(
    seed=st.integers(0, 2 ** 16),
    # few distinct picks, so that states often share moves
    sequences=st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10),
        min_size=1,
        max_size=3,
    ),
    calls=st.lists(
        st.tuples(
            st.integers(0, 2), st.integers(0, 2), st.integers(0, 10), st.booleans(), st.booleans()
        ),
        max_size=40,
    ),
)
def test_opponent_matches_reference_in_any_call_order(seed, sequences, calls):
    # one opponent serves up to three states.  A state is set in place to
    # a prefix of its own pick sequence, so it grows and shrinks, or it is
    # refilled with fresh moves from any sequence.  Equal picks share one
    # move object across the states, so only the state tells them apart.
    # The reference rescans every pick on each call
    opponent = random_opponent(seed)
    reference = reference_random_opponent(seed)
    shared = {p: (empty_set(), p) for seq in sequences for p in seq}
    states = [GameState(WR) for _ in range(3)]
    walls = reference_blocking_strategy()
    for which_state, which_seq, length, fresh, walled in calls:
        state = states[which_state]
        if fresh:
            picks = sequences[which_seq % len(sequences)][:length]
            state.moves[:] = [(empty_set(), p) for p in picks]
        else:
            state.moves[:] = [shared[p] for p in sequences[which_state % len(sequences)][:length]]
        blocked = walls(state) if walled else empty_set()
        assert opponent(state, blocked) == reference(state, blocked), state.picks()


def _recorded_games():
    """WR for 120 rounds, exact WR for 60 and WRpi over the rank catalog
    for 22, each against a seeded random and the least-lex opponent,
    with one strategy per mode reused across all the games."""
    games = [(WR, False, 120), (WR, True, 60)]
    games += [(wr_pi(rank), False, 22) for rank in RANK_CATALOG.values()]
    strategies = {False: blocking_strategy(), True: blocking_strategy(exact=True)}
    for seed, (ideal, exact, rounds) in enumerate(games):
        for opponent in (random_opponent(seed), least_lex_opponent):
            yield exact, play(ideal, strategies[exact], opponent, rounds, seed=seed)


# sha256 over the sorted-key JSON of each recorded game's transcript in turn
TRANSCRIPT_DIGEST = "3ba31e997afcfad283b830fec9529b52df7b7d060dbd989f7580c21d485fd00c"
# sha256 over the JSON of each recorded game's picks in turn; the
# descriptor encoding may change, the picks may not
PICKS_DIGEST = "1382b20b1ae338e7710205a484254f5fa9856f45fd0314afd05689f5361cfa50"


def test_transcripts_match_recorded_digest():
    digest = hashlib.sha256()
    for _, state in _recorded_games():
        digest.update(json.dumps(transcript_json(state), sort_keys=True).encode())
    assert digest.hexdigest() == TRANSCRIPT_DIGEST


def test_picks_match_recorded_digest():
    digest = hashlib.sha256()
    for _, state in _recorded_games():
        digest.update(json.dumps([list(p) for p in state.picks()]).encode())
    assert digest.hexdigest() == PICKS_DIGEST


def test_transcript_sets_match_reference():
    # every round's serialised X, read without the presentations module,
    # denotes the reference strategy's set on a 70 x 40 window
    window = [(c, r) for c in range(70) for r in range(40)]
    for exact, state in _recorded_games():
        reference = reference_blocking_strategy(exact=exact)
        for n, move in enumerate(transcript_json(state)["rounds"]):
            expected = reference(GameState(state.presentation, state.moves[:n]))
            for p in window:
                assert json_descriptor_contains(move["X"], p) == expected.contains(p), (n, p)


def test_transcripts_grow_linearly():
    # a WR or WRpi round serialises one column run and the sublevel
    # points past it, so 4x the rounds may cost at most 4.5x the bytes
    # (about 4.05x measured).  Exact WR is left out on purpose: it lists
    # a tail for every free column below the picks each round, so its
    # transcript grows with the square of the round count (about 13x)
    for ideal in [WR] + [wr_pi(rank) for rank in RANK_CATALOG.values()]:
        state = play(ideal, blocking_strategy(), random_opponent(7), 400, seed=7)
        sizes = [
            len(json.dumps(transcript_json(GameState(ideal, state.moves[:n], 7))))
            for n in (100, 400)
        ]
        assert sizes[1] <= 4.5 * sizes[0], (ideal.describe(), sizes)


# ---------------------------------------------------------------------------
# trees and transformations


def test_tree_examples():
    tree = coloring_to_tree(sparse_pair_color, lambda x: 1, 0, 8)
    assert len(tree.ramification(())) == 64
    after = tree.ramification(((0, 0),))
    assert after == frozenset((c, r) for c in range(1, 8) for r in range(8))
    const0 = coloring_to_tree(lambda a, b: 0, lambda x: 1, 2, 4)
    ram = const0.ramification(((0, 0),))
    assert ram == frozenset(p for p in const0.ramification(()) if p != (0, 0))


def test_tree_branches_are_sparse_chains():
    tree = coloring_to_tree(sparse_pair_color, lambda x: 1, 4, 8)
    count = 0
    for branch in tree.branches(4):
        count += 1
        assert is_sparse_chain(branch)
    assert count > 0
    # nodes materialized along the way stay prefix closed
    nodes = set(tree.nodes())
    assert all(n[:-1] in nodes for n in nodes if n)


def test_tree_rejects_foreign_nodes():
    tree = coloring_to_tree(sparse_pair_color, lambda x: 1, 2, 6)
    with pytest.raises(KeyError):
        tree.ramification(((0, 0), (0, 1)))


def test_tree_walks_independent_of_recursion_limit():
    # one child per node, so the tree is one branch of 3,000 points
    def one_branch():
        return FiniteTree([(0, 0)], lambda parent, ram, chosen: frozenset({(chosen[0] + 1, 0)}),
                          3000)

    branch = tuple((c, 0) for c in range(3000))
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        deepest = one_branch().ramification(branch)
        branches = list(one_branch().branches())
    finally:
        sys.setrecursionlimit(old)
    assert deepest == frozenset({(3000, 0)})
    assert branches == [branch]


def test_chain_coloring_examples():
    tail = decreasing_chain_to_coloring(lambda n: (lambda m: m > n))
    assert all(tail(n, m) == 0 for n in range(5) for m in range(n + 1, 9))
    evens = decreasing_chain_to_coloring(lambda n: {m for m in range(40) if m % 2 == 0 and m > n})
    assert evens(1, 4) == 0
    assert evens(1, 3) == 1
    with pytest.raises(ValueError):
        evens(2, 2)


def test_chain_coloring_reproduces_chain():
    chain = {n: frozenset(m for m in range(40) if m % 3 == 0 and m > n) for n in range(10)}
    color = decreasing_chain_to_coloring(lambda n: chain[n])
    for n in range(10):
        derived = {m for m in range(n + 1, 40) if color(n, m) == 0}
        assert derived == set(chain[n])


def test_normalize_family():
    full = frozenset(range(10))
    fam = {(): full}
    assert normalize_family(fam) == fam
    fam = {(1,): frozenset({1, 2, 3}), (2, 2): frozenset({2, 3, 4})}
    out = normalize_family(fam)
    assert out[(2, 2)] == frozenset({2, 3})  # (1,) is shorter with smaller max
    assert out[(1,)] == frozenset({1, 2, 3})
    fam = {(0,): full, (1, 1): full, (2,): full}
    assert all(v == full for v in normalize_family(fam).values())


def test_normalize_family_monotone_in_preorder():
    rng = random.Random(23)
    for _ in range(30):
        fam = {}
        for _ in range(rng.randint(1, 6)):
            key = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 3)))
            fam[key] = frozenset(rng.sample(range(12), rng.randint(3, 10)))
        out = normalize_family(fam)
        for t in out:
            assert out[t] <= fam[t]
            for s in out:
                if len(s) <= len(t) and max(s, default=-1) <= max(t, default=-1):
                    assert out[t] <= out[s]


def test_condition4_examples():
    from gridideals import partition_from_labels

    ident = partition_from_labels(list(range(600)))
    assert condition4_check(ident, lambda n: 2 ** n, 9)
    assert condition4_check(ident, lambda n: n, 20)
    assert not condition4_check(ident, lambda n: 5, 3)
    # dyadic classes grow too slowly for any increasing selector
    w = dyadic_partition()
    assert not condition4_check(w, lambda n: 2 ** (n + 1) - 1, 8)

