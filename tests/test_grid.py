import random
from itertools import combinations

import pytest

from gridideals import (
    RANK_CATALOG,
    canonical_points,
    is_sparse_chain,
    lex_before,
    nondecreasing_pair_color,
    sparse_pair_color,
    window_points,
)
from gridideals.grid import (
    graph_before,
    is_chain,
    longest_increasing,
    nondecreasing_before,
    ranked,
    sparse_before,
)
from support import random_sparse_chain


def test_longest_increasing_is_a_longest_strict_run():
    rng = random.Random(17)
    for _ in range(400):
        keys = [rng.randint(0, 5) for _ in range(rng.randint(0, 9))]
        run = longest_increasing(keys)
        assert run == sorted(set(run))
        assert all(keys[a] < keys[b] for a, b in zip(run, run[1:]))
        longer = combinations(keys, len(run) + 1)
        assert not any(all(a < b for a, b in zip(sub, sub[1:])) for sub in longer), keys


def test_lex_before():
    assert lex_before((0, 0), (0, 1))
    assert not lex_before((1, 0), (0, 9))
    assert not lex_before((2, 3), (2, 3))


def test_sparse_pair_color_examples():
    assert sparse_pair_color((0, 0), (1, 5)) == 0
    assert sparse_pair_color((2, 3), (4, 9)) == 1
    assert sparse_pair_color((2, 3), (6, 0)) == 0


def test_pair_colors_reject_equal_points():
    with pytest.raises(ValueError):
        sparse_pair_color((1, 1), (1, 1))
    with pytest.raises(ValueError):
        nondecreasing_pair_color((2, 2), (2, 2))


def test_nondecreasing_pair_color_examples():
    assert nondecreasing_pair_color((0, 0), (1, 5)) == 0
    assert nondecreasing_pair_color((1, 5), (2, 3)) == 1
    assert nondecreasing_pair_color((3, 3), (3, 7)) == 1


def test_colors_symmetric_on_window():
    pts = window_points(12)
    for a, b in combinations(pts, 2):
        assert sparse_pair_color(a, b) == sparse_pair_color(b, a)
        assert nondecreasing_pair_color(a, b) == nondecreasing_pair_color(b, a)


def test_is_sparse_chain_examples():
    assert is_sparse_chain([(0, 0), (1, 0), (2, 0)])
    assert not is_sparse_chain([(0, 5), (1, 4)])
    assert is_sparse_chain([])
    assert is_sparse_chain([(3, 9)])


def test_is_sparse_chain_matches_pairwise_color():
    pts = window_points(6)
    for size in range(5):
        for sub in combinations(pts, size):
            pairwise = all(sparse_pair_color(a, b) == 0 for a, b in combinations(sub, 2))
            assert is_sparse_chain(sub) == pairwise


def test_sparse_chain_downward_closed():
    rng = random.Random(5)
    for _ in range(100):
        chain = random_sparse_chain(rng)
        assert is_sparse_chain(chain)
        k = rng.randint(0, len(chain))
        assert is_sparse_chain(rng.sample(chain, k))


def test_equal_columns_never_jointly_sparse():
    for i in range(8):
        for j in range(6):
            for l in range(6):
                if j != l:
                    assert sparse_pair_color((i, j), (i, l)) == 1


def test_canonical_points_sorted_dedup():
    assert canonical_points([(2, 1), (0, 3), (2, 1)]) == ((0, 3), (2, 1))


def _orders():
    named = {"sparse": sparse_before, "graph": graph_before, "nondecreasing": nondecreasing_before}
    named.update({name: ranked(rank) for name, rank in RANK_CATALOG.items()})
    return named


def test_chain_orders_are_strict_partial_orders():
    pts = window_points(9)
    for name, before in _orders().items():
        above = {a: {b for b in pts if before(a, b)} for a in pts}
        for a in pts:
            assert a not in above[a], (name, a)
            assert all(a < b for b in above[a]), (name, a)
            for b in above[a]:
                assert above[b] <= above[a], (name, a, b)


def test_is_chain_matches_all_pairs():
    pts = window_points(5)
    for name, before in _orders().items():
        for size in range(5):
            for sub in combinations(pts, size):
                pairwise = all(before(a, b) for a, b in combinations(sorted(sub), 2))
                assert is_chain(before, sub) == pairwise, (name, sub)
