import random
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridideals import (
    ED,
    EDUP,
    FIN,
    WR,
    IdealError,
    IdealPresentation,
    SetDescriptor,
    column,
    column_tail,
    descriptor_in_ideal,
    empty_set,
    finite_points,
    pick_outside,
)
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
    assert descriptor_in_ideal(ED, column_tail(4, 2))
    assert descriptor_in_ideal(EDUP, finite_points([(1, 1)]))
    # a family without a membership rule is refused, not answered
    with pytest.raises(IdealError, match="no symbolic membership for 'FinxFin'"):
        descriptor_in_ideal(IdealPresentation("FinxFin"), column(0))


def test_membership_closed_under_union():
    rng = random.Random(11)
    ideals = [WR, FIN]
    for _ in range(200):
        d1, d2 = random_descriptor(rng), random_descriptor(rng)
        for ideal in ideals:
            if descriptor_in_ideal(ideal, d1) and descriptor_in_ideal(ideal, d2):
                assert descriptor_in_ideal(ideal, d1 | d2)


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
    for x in (d, e, d | e):
        _assert_canonical(x)
    assert SetDescriptor.from_json(d.to_json()) == d
    expanded = [c for first, last in d.columns for c in range(first, last + 1)]
    assert SetDescriptor.build(expanded, d.tails, d.points) == d
    sd, se = _materialise(*a), _materialise(*b)
    assert _window(d) == sd
    assert _window(d | e) == sd | se
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


# runs as JSON gives them: unsorted, overlapping, adjacent and single-column
_run = st.tuples(_coord, st.integers(0, 4)).map(lambda t: [t[0], min(t[0] + t[1], W - 1)])
_pair = st.tuples(_coord, _coord).map(list)
_json = st.fixed_dictionaries({
    "columns": st.lists(_run, max_size=6),
    "tails": st.lists(_pair, max_size=6),
    "points": st.lists(_pair, max_size=16),
})


def _json_set(obj):
    columns = {c for first, last in obj["columns"] for c in range(first, last + 1)}
    return _materialise(columns, [tuple(t) for t in obj["tails"]], {tuple(p) for p in obj["points"]})


@settings(max_examples=200, deadline=None)
@given(_json, _json)
def test_run_json_canonical_form(a, b):
    d, e = SetDescriptor.from_json(a), SetDescriptor.from_json(b)
    sd, se = _json_set(a), _json_set(b)
    for x, want in ((d, sd), (e, se), (d | e, sd | se)):
        _assert_canonical(x)
        assert _window(x) == want


def test_wide_runs_cost_one_atom():
    # a run of 10**15 + 1 columns: no operation lists its columns
    n = 10**15
    d = SetDescriptor.from_json({"columns": [[0, n]]})
    assert d == SetDescriptor(((0, n),))
    assert d | column(n + 2) == SetDescriptor(((0, n), (n + 2, n + 2)))
    assert d | column(n + 1) == SetDescriptor(((0, n + 1),))
