import random

import pytest

from gridideals import (
    ED,
    EDUP,
    EMPTY_X_FIN,
    FIN,
    FIN_X_FIN,
    WR,
    DIAG_RANK,
    IdealError,
    SetDescriptor,
    column,
    column_tail,
    dense_subset,
    descriptor_in_ideal,
    direct_sum,
    empty_set,
    finite_points,
    is_sparse_chain,
    pick_outside,
    restrict,
    wr_pi,
)
from support import random_descriptor


def test_descriptor_contains_examples():
    assert column(3).contains((3, 100))
    assert not finite_points([(1, 1)]).contains((1, 2))
    assert not column_tail(2, 5).contains((2, 4))
    assert column_tail(2, 5).contains((2, 5))


def test_canonicalization_merges():
    d = SetDescriptor.build(tails=[(4, 0)])
    assert d.columns == frozenset({4}) and not d.tails
    # points right below a tail fold into it, collapsing to a column
    d = SetDescriptor.build(tails=[(2, 2)], points=[(2, 1), (2, 0)])
    assert d.columns == frozenset({2}) and not d.points
    # points inside a column or tail disappear
    d = SetDescriptor.build(columns=[1], tails=[(3, 2)], points=[(1, 7), (3, 5), (0, 0)])
    assert d.points == frozenset({(0, 0)})
    # overlapping tails keep the lower start
    d = SetDescriptor.build(tails=[(5, 4), (5, 2)])
    assert d.tails == ((5, 2),)


def test_union_and_intersection():
    d1 = column(0) | finite_points([(5, 5)])
    d2 = column_tail(5, 3) | finite_points([(0, 9), (7, 1)])
    u = d1 | d2
    assert u.contains((0, 123)) and u.contains((5, 5)) and u.contains((7, 1))
    i = d1 & d2
    assert i.contains((5, 5)) is False or True  # membership checked below
    assert not i.contains((7, 1))
    assert i.contains((0, 9))
    assert i.contains((5, 5))  # (5,5) in d1 points and inside d2's tail


def test_pick_outside_examples():
    assert pick_outside(column(0)) == (1, 0)
    assert pick_outside(empty_set()) == (0, 0)
    assert pick_outside(column(0) | column(1), beyond=5) == (6, 0)


def test_pick_outside_never_lands_inside():
    rng = random.Random(7)
    for _ in range(1000):
        d = random_descriptor(rng)
        p = pick_outside(d)
        assert not d.contains(p)
        q = pick_outside(d, beyond=rng.randint(0, 10))
        assert not d.contains(q)


def test_membership_examples():
    assert descriptor_in_ideal(WR, column(0) | finite_points([(5, 5)]))
    assert not descriptor_in_ideal(FIN, column(0))
    assert not descriptor_in_ideal(EMPTY_X_FIN, column_tail(1, 10))
    assert descriptor_in_ideal(FIN_X_FIN, column(3) | column(9))
    assert descriptor_in_ideal(ED, column_tail(4, 2))
    assert descriptor_in_ideal(EDUP, finite_points([(1, 1)]))


def test_direct_sum_membership():
    # even columns carry the left summand, odd the right
    both_fin = direct_sum(FIN, FIN)
    assert descriptor_in_ideal(both_fin, finite_points([(0, 0), (2, 5)]))
    fin_wr = direct_sum(FIN, WR)
    assert descriptor_in_ideal(fin_wr, column(1))
    assert not descriptor_in_ideal(fin_wr, column(0))


def test_restrict_membership():
    r = restrict(WR, column(0))
    assert descriptor_in_ideal(r, column(0))
    rf = restrict(FIN, column(0))
    assert descriptor_in_ideal(rf, finite_points([(0, 3)]))
    assert not descriptor_in_ideal(rf, column(0))
    # intersecting with the carrier can make infinite sets acceptable
    assert descriptor_in_ideal(rf, column(5))


def test_membership_closed_under_union():
    rng = random.Random(11)
    ideals = [WR, FIN, EMPTY_X_FIN, FIN_X_FIN, direct_sum(FIN, WR), restrict(WR, column(2))]
    for _ in range(200):
        d1, d2 = random_descriptor(rng), random_descriptor(rng)
        for ideal in ideals:
            if descriptor_in_ideal(ideal, d1) and descriptor_in_ideal(ideal, d2):
                assert descriptor_in_ideal(ideal, d1 | d2)


def test_dense_subset_examples():
    assert dense_subset(WR, lambda p: True, 3) == ((0, 0), (1, 0), (2, 0))
    assert dense_subset(WR, column(4), 5) == tuple((4, i) for i in range(5))
    two = dense_subset(WR, column_tail(0, 0) | column_tail(7, 0), 2, min_col=1)
    assert two == ((7, 0), (7, 1))


def test_dense_subset_lands_in_one_generator():
    rng = random.Random(13)
    rules = [
        lambda p: p[1] == 0,
        lambda p: p[0] == p[1],
        lambda p: (p[0] + p[1]) % 3 == 0,
        lambda p: p == (0, 1) or p[0] >= 1,
    ]
    for rule in rules:
        pts = dense_subset(WR, rule, 5)
        assert all(rule(p) for p in pts)
        assert is_sparse_chain(pts) or len({p[0] for p in pts}) == 1
    pts = dense_subset(wr_pi(DIAG_RANK), lambda p: p[1] % 2 == 0, 5)
    assert is_sparse_chain(pts) or len({p[0] for p in pts}) == 1


def test_dense_subset_prefix_property():
    for n in range(1, 6):
        small = dense_subset(WR, lambda p: True, n)
        big = dense_subset(WR, lambda p: True, n + 1)
        assert big[:n] == small
    for n in range(1, 5):
        assert dense_subset(WR, column(2), n + 1)[:n] == dense_subset(WR, column(2), n)


def test_dense_subset_errors():
    with pytest.raises(ValueError):
        dense_subset(WR, finite_points([(0, 0), (3, 3)]), 2)
    with pytest.raises(IdealError):
        dense_subset(FIN, column(0), 2)


def test_nested_composites():
    nested = restrict(direct_sum(FIN, WR), column(3))
    assert descriptor_in_ideal(nested, column(3))
    assert descriptor_in_ideal(nested, column(2))  # carrier intersection is empty
    deep = direct_sum(direct_sum(FIN, WR), EMPTY_X_FIN)
    assert descriptor_in_ideal(deep, column(2))
    assert not descriptor_in_ideal(deep, column(1))
    assert not descriptor_in_ideal(deep, column(0))
    assert descriptor_in_ideal(deep, finite_points([(1, 5)]))


def test_descriptor_json_round_trip():
    rng = random.Random(17)
    for _ in range(50):
        d = random_descriptor(rng)
        assert SetDescriptor.from_json(d.to_json()) == d
