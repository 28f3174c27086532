import random
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from gridideals.presentations import split_by_parity
from support import random_descriptor


def test_descriptor_contains_examples():
    assert column(3).contains((3, 100))
    assert not finite_points([(1, 1)]).contains((1, 2))
    assert not column_tail(2, 5).contains((2, 4))
    assert column_tail(2, 5).contains((2, 5))


def test_canonicalization_merges():
    d = SetDescriptor.build(tails=[(4, 0)])
    assert d.columns == ((4, 4),) and not d.tails
    # points right below a tail fold into it, collapsing to a column
    d = SetDescriptor.build(tails=[(2, 2)], points=[(2, 1), (2, 0)])
    assert d.columns == ((2, 2),) and not d.points
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


# ---------------------------------------------------------------------------
# canonical form, against sets materialised on a window

W = 16  # atoms are drawn on a W x W window
_coord = st.integers(0, W - 1)
_atoms = st.tuples(
    st.lists(_coord, max_size=10),
    st.lists(st.tuples(_coord, _coord), max_size=6),
    st.lists(st.tuples(_coord, _coord), max_size=16),
)


def _materialise(columns, tails, points):
    """The atoms' set on a window one wider and taller than they are
    drawn on, so the last row shows what goes on forever."""
    return {
        (c, r)
        for c in range(W + 1)
        for r in range(W + 1)
        if c in columns or any(tc == c and r >= s for tc, s in tails) or (c, r) in points
    }


def _window(d, width=W + 1):
    return {(c, r) for c in range(width) for r in range(W + 1) if d.contains((c, r))}


def _assert_canonical(d):
    runs = d.columns
    assert all(first <= last for first, last in runs)
    # sorted, disjoint and maximal: a gap of at least one column between runs
    assert all(a[1] + 1 < b[0] for a, b in pairwise(runs)), runs
    on_run = {c for first, last in runs for c in range(first, last + 1)}
    assert [c for c, _ in d.tails] == sorted({c for c, _ in d.tails})
    for c, start in d.tails:
        assert start > 0 and c not in on_run and (c, start - 1) not in d.points
    tails = dict(d.tails)
    for c, r in d.points:
        assert c not in on_run and not (c in tails and r >= tails[c])


@settings(max_examples=400, deadline=None)
@given(_atoms, _atoms, st.integers(-1, W + 2))
def test_descriptor_canonical_form(a, b, beyond):
    d, e = SetDescriptor.build(*a), SetDescriptor.build(*b)
    for x in (d, e, d | e, d & e):
        _assert_canonical(x)
    assert SetDescriptor.from_json(d.to_json()) == d
    expanded = [c for first, last in d.columns for c in range(first, last + 1)]
    assert SetDescriptor.build(expanded, d.tails, d.points) == d
    sd, se = _materialise(*a), _materialise(*b)
    assert _window(d) == sd
    assert _window(d | e) == sd | se
    assert _window(d & e) == sd & se
    # the even columns go to the left summand and the odd ones to the right
    for side, part in enumerate(split_by_parity(d)):
        _assert_canonical(part)
        assert _window(part, W // 2 + 1) == {(c // 2, r) for c, r in sd if c % 2 == side}
    # a column whose W + 1 window rows are all members is a whole column,
    # since every tail starts and every point lies in the first W rows
    c = beyond + 1
    while all((c, r) in sd for r in range(W + 1)):
        c += 1
    free = min(r for r in range(W + 1) if (c, r) not in sd)
    assert pick_outside(d, beyond=beyond) == (c, free)


def test_run_json_rejects_reversed_runs():
    with pytest.raises(ValueError, match="ends before"):
        SetDescriptor.from_json({"columns": [[5, 3]]})
    d = SetDescriptor.from_json({"columns": [[0, 2], [3, 3], [7, 9]], "tails": [[5, 1]]})
    assert d.columns == ((0, 3), (7, 9))
    assert d.to_json() == {"columns": [[0, 3], [7, 9]], "tails": [[5, 1]], "points": []}
