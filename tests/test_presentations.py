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
    descriptor_in_ideal,
    pick_outside,
)
from support import random_descriptor


def test_descriptor_contains_examples():
    assert SetDescriptor.build(columns=[3]).contains((3, 100))
    assert not SetDescriptor.build(points=[(1, 1)]).contains((1, 2))
    assert not SetDescriptor.build(tails=[(2, 5)]).contains((2, 4))
    assert SetDescriptor.build(tails=[(2, 5)]).contains((2, 5))


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


def test_pick_outside_examples():
    assert pick_outside(SetDescriptor.build(columns=[0])) == (1, 0)
    assert pick_outside(SetDescriptor()) == (0, 0)
    assert pick_outside(SetDescriptor.build(columns=[0, 1]), beyond=5) == (6, 0)
    # every column is past a negative beyond; the scan still starts on the grid
    assert pick_outside(SetDescriptor.build(columns=[0]), beyond=-5) == (1, 0)


def test_pick_outside_never_lands_inside():
    rng = random.Random(7)
    for _ in range(1000):
        d = random_descriptor(rng)
        p = pick_outside(d)
        assert not d.contains(p)
        q = pick_outside(d, beyond=rng.randint(0, 10))
        assert not d.contains(q)


def test_membership_examples():
    assert descriptor_in_ideal(WR, SetDescriptor.build([0], (), [(5, 5)]))
    assert not descriptor_in_ideal(FIN, SetDescriptor.build([0]))
    assert descriptor_in_ideal(ED, SetDescriptor.build(tails=[(4, 2)]))
    assert descriptor_in_ideal(EDUP, SetDescriptor.build(points=[(1, 1)]))
    # a family without a membership rule is refused, not answered
    with pytest.raises(IdealError, match="no symbolic membership for 'FinxFin'"):
        descriptor_in_ideal(IdealPresentation("FinxFin"), SetDescriptor.build([0]))


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


def _window(d):
    return {(c, r) for c in range(W + 1) for r in range(W + 1) if d.contains((c, r))}


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
@given(_atoms, _atoms, st.integers(-3, W + 2))
def test_descriptor_canonical_form(a, b, beyond):
    d, e = SetDescriptor.build(*a), SetDescriptor.build(*b)
    for x in (d, e):
        _assert_canonical(x)
    expanded = [c for first, last in d.columns for c in range(first, last + 1)]
    assert SetDescriptor.build(expanded, d.tails, d.points) == d
    sd, se = _materialise(*a), _materialise(*b)
    assert _window(d) == sd
    assert _window(e) == se
    # a column whose W + 1 window rows are all members is a whole column,
    # since every tail starts and every point lies in the first W rows
    c = max(beyond + 1, 0)
    while all((c, r) in sd for r in range(W + 1)):
        c += 1
    free = min(r for r in range(W + 1) if (c, r) not in sd)
    assert pick_outside(d, beyond=beyond) == (c, free)


def test_wide_runs_cost_one_atom():
    # runs of 10**15 + 1 and 10**15 - 1 columns: no query lists their columns
    n = 10**15
    d = SetDescriptor(((0, n), (n + 2, 2 * n)))
    assert d.contains((n, 7)) and d.contains((n + 2, 0)) and d.contains((2 * n, 5))
    assert not d.contains((n + 1, 3)) and not d.contains((2 * n + 1, 0))
    assert pick_outside(d) == pick_outside(d, beyond=5) == (n + 1, 0)
    assert pick_outside(d, beyond=n + 1) == (2 * n + 1, 0)
