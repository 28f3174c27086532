import hashlib
import json
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridideals import (
    DIAG_RANK,
    FIN,
    RANK_CATALOG,
    WR,
    GameError,
    GameState,
    SetDescriptor,
    blocking_strategy,
    coloring_tree,
    descriptor_in_ideal,
    is_sparse_chain,
    least_lex_opponent,
    phi_cost,
    play,
    random_opponent,
    sparse_pair_color,
    transcript_json,
    verdict,
    window_points,
    wr_pi,
)
from gridideals import game
from support import (
    json_descriptor_contains,
    reference_blocking_strategy,
    reference_random_opponent,
    stack_depth,
)


def test_strategy_descriptor_shapes():
    strat = blocking_strategy()
    state = GameState(WR)
    assert strat(state) == SetDescriptor()
    state.moves.append((SetDescriptor(), (0, 0)))
    assert strat(state) == SetDescriptor.build([0], (), [(0, 0)])
    state.moves.append((SetDescriptor(), (1, 7)))
    d = strat(state)
    assert d.columns == ((0, 8),)


def test_least_lex_match():
    state = play(WR, blocking_strategy(), least_lex_opponent, 3)
    assert state.picks() == ((0, 0), (1, 0), (2, 0))
    assert verdict(state)["sparse_chain"]
    assert verdict(state)["phi"] == 1


def test_column_spammer_defeats_empty_strategy():
    script = iter([(0, 0), (0, 1), (0, 2)])
    state = play(WR, lambda state: SetDescriptor(), lambda state, blocked: next(script), 3)
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
    state.moves.append((SetDescriptor(), (3, 2)))
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
        return SetDescriptor.build([0])  # fine for WR, illegal for Fin

    with pytest.raises(GameError, match="player one"):
        play(FIN, cheating_player_one, least_lex_opponent, 1)


def test_rounds_past_the_cap_are_refused():
    calls = []

    def player_one(state):
        calls.append(state.round)
        return SetDescriptor()

    with pytest.raises(ValueError, match=str(game.MAX_ROUNDS)):
        play(WR, player_one, least_lex_opponent, game.MAX_ROUNDS + 1)
    assert calls == []
    assert play(WR, player_one, least_lex_opponent, game.MAX_ROUNDS).round == game.MAX_ROUNDS


@pytest.mark.parametrize("rounds", [-1, -3])
def test_negative_rounds_are_refused(rounds):
    with pytest.raises(ValueError) as caught:
        play(WR, blocking_strategy(), least_lex_opponent, rounds)
    assert str(caught.value) == f"rounds must be from 0 to 400, not {rounds}"
    assert play(WR, blocking_strategy(), least_lex_opponent, 0).round == 0


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
        state = GameState(GAME_IDEALS[ideal_index], [(SetDescriptor(), p) for p in picks])
        assert strategy(state) == reference(state), (state.presentation, picks)
    for ideal in GAME_IDEALS:
        state = GameState(ideal)
        for p in sequences[0]:
            state.moves.append((SetDescriptor(), p))
            assert strategy(state) == reference(state), (ideal, state.picks())


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
    shared = {p: (SetDescriptor(), p) for seq in sequences for p in seq}
    states = [GameState(WR) for _ in range(3)]
    walls = reference_blocking_strategy()
    for which_state, which_seq, length, fresh, walled in calls:
        state = states[which_state]
        if fresh:
            picks = sequences[which_seq % len(sequences)][:length]
            state.moves[:] = [(SetDescriptor(), p) for p in picks]
        else:
            state.moves[:] = [shared[p] for p in sequences[which_state % len(sequences)][:length]]
        blocked = walls(state) if walled else SetDescriptor()
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
        assert sizes[1] <= 4.5 * sizes[0], (ideal, sizes)


# ---------------------------------------------------------------------------
# trees built from colorings


def test_tree_examples():
    tree = dict(coloring_tree(sparse_pair_color, 2, 8))
    assert tree[()] == tuple(window_points(8))
    assert tree[((0, 0),)] == tuple((c, r) for c in range(1, 8) for r in range(8))
    assert tree[((0, 0), (1, 0))] == ()  # cut at depth
    const0 = dict(coloring_tree(lambda a, b: 0, 2, 4))
    assert const0[((0, 0),)] == const0[()][1:]
    assert list(coloring_tree(sparse_pair_color, 0, 8)) == [((), ())]


def test_tree_branches_are_sparse_chains():
    walk = list(coloring_tree(sparse_pair_color, 4, 8))
    branches = [node for node, ram in walk if not ram]
    assert branches and all(map(is_sparse_chain, branches))
    # root first, then depth first in sorted order, each node once
    nodes = [node for node, _ in walk]
    assert nodes == sorted(set(nodes))
    # a node's children are the members of its ramification, which is
    # its parent's less the chosen point, keeping the sparse partners
    tree = dict(walk)
    children = Counter(node[:-1] for node in nodes if node)
    for node, ram in walk:
        assert children[node] == len(ram) and all(node + (p,) in tree for p in ram)
        if node and len(node) < 4:
            parent, chosen = tree[node[:-1]], node[-1]
            assert ram == tuple(
                b for b in parent if b != chosen and sparse_pair_color(chosen, b) == 0
            )


def test_tree_walks_independent_of_recursion_limit():
    # under the lexicographic coloring the first branch of a 55 x 55
    # window takes the points in sorted order, 3,000 of them down to depth
    points = window_points(55)
    walk = coloring_tree(lambda a, b: int(a > b), 3000, 55)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        for n, (node, ram) in zip(range(3001), walk):
            assert node == tuple(points[:n])
            assert ram == (tuple(points[n:]) if n < 3000 else ())
    finally:
        sys.setrecursionlimit(old)
    assert n == 3000
