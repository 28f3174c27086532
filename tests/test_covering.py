import hashlib
import json
import random
import sys
from collections import Counter
from functools import partial
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridideals import (
    DIAG_RANK,
    ED,
    EDUP,
    RANK_CATALOG,
    SPARSE_CHAIN,
    VERTICAL_LINE,
    WR,
    OracleScaleError,
    brute_force_cover,
    oracle_cover_cost,
    phi,
    phi_cost,
    sparse_chain_cover_number,
    sparsity_witness,
    wr_pi,
)
from gridideals import covering
from gridideals.covering import (
    GRAPH,
    NONDECREASING_GRAPH,
    RANKED_CHAIN,
    CoverCertificate,
    CoverPart,
    nondecreasing_chain_partition,
    part_is_valid,
    sparse_chain_partition,
)
from gridideals.grid import (
    canonical_points,
    is_ranked_chain,
    is_sparse_chain,
    nondecreasing_before,
    ranked,
    sparse_before,
)
from support import (
    nondecreasing_antichain,
    random_points,
    random_sparse_chain,
    random_witness_family,
    reference_best_lines,
    reference_ed_lines,
    reference_line_search,
    reference_oracle_dp,
    sparse_antichain,
    stack_depth,
)


def test_brute_force_examples():
    assert brute_force_cover([], (VERTICAL_LINE, SPARSE_CHAIN)).cost == 0
    assert brute_force_cover([(0, 0), (0, 1)], (SPARSE_CHAIN,)).cost == 2
    assert brute_force_cover([(0, 5), (1, 4), (2, 3)], (VERTICAL_LINE, SPARSE_CHAIN)).cost == 3


def test_brute_force_scale_guard():
    pts = [(c, 0) for c in range(17)]
    with pytest.raises(OracleScaleError):
        brute_force_cover(pts, (SPARSE_CHAIN,))


def test_sparse_chain_cover_number_examples():
    assert sparse_chain_cover_number([]) == 0
    assert sparse_chain_cover_number([(0, 0), (1, 0), (2, 0)]) == 1
    assert sparse_chain_cover_number([(0, 5), (1, 4), (2, 3)]) == 3


def test_phi_examples():
    assert phi(WR, [(0, j) for j in range(5)])[0] == 1
    assert phi(EDUP, [(0, 0), (1, 1), (2, 2)])[0] == 1
    assert phi(EDUP, [(0, 1), (1, 0)])[0] == 2
    assert phi("ED", [(0, 0), (0, 1), (1, 0), (1, 1)])[0] == 2


def test_phi_unsupported_presentation():
    from gridideals import FIN, IdealError

    with pytest.raises(IdealError):
        phi(FIN, [(0, 0)])


def test_witness_examples():
    w = sparsity_witness([(0, 5), (1, 4), (2, 3)])
    assert w is not None and w.level == 2
    assert sparse_chain_cover_number(w.points) == 3
    assert sparsity_witness([(0, 0), (1, 0)]) is None
    w2 = sparsity_witness([(0, 3), (2, 2)])
    assert w2 is not None and w2.level == 1
    assert sparse_chain_cover_number(w2.points) == 2
    with pytest.raises(ValueError):
        sparsity_witness([])


def test_witness_soundness_random():
    rng = random.Random(17)
    for _ in range(60):
        level = rng.randint(1, 6)
        pts = random_witness_family(rng, level)
        w = sparsity_witness(pts)
        assert w is not None and w.level == level
        assert brute_force_cover(pts, (SPARSE_CHAIN,)).cost == level + 1


def _all_small_subsets(width, height, max_size):
    pool = [(c, r) for c in range(width) for r in range(height)]
    for size in range(max_size + 1):
        yield from combinations(pool, size)


def test_oracle_equivalence_exhaustive_small():
    for pts in _all_small_subsets(5, 5, 3):
        assert sparse_chain_cover_number(pts) == oracle_cover_cost(pts, (SPARSE_CHAIN,))
        assert phi_cost("WR", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, SPARSE_CHAIN))
        assert phi_cost("ED", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, GRAPH))
        assert phi_cost("EDup", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, NONDECREASING_GRAPH))


def test_oracle_equivalence_random():
    rng = random.Random(23)
    for _ in range(120):
        pts = random_points(rng, 8, 8, 6)
        assert sparse_chain_cover_number(pts) == oracle_cover_cost(pts, (SPARSE_CHAIN,))
        assert phi_cost("WR", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, SPARSE_CHAIN))
        assert phi_cost("ED", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, GRAPH))
        assert phi_cost("EDup", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, NONDECREASING_GRAPH))


def test_ranked_cover_matches_oracle():
    from gridideals import MAX_RANK, OFFSET_RANK, SKEW_RANK

    rng = random.Random(29)
    for rank in (DIAG_RANK, MAX_RANK, SKEW_RANK, OFFSET_RANK):
        ideal = wr_pi(rank)
        for _ in range(30):
            pts = random_points(rng, 7, 7, 5)
            structured = phi_cost(ideal, pts)
            assert structured == oracle_cover_cost(
                pts, (VERTICAL_LINE, RANKED_CHAIN), rank=rank
            )
            cost, cert = phi(ideal, pts)
            assert cost == structured
            assert cert.validate(pts, rank=rank)


def test_phi_matches_oracle_on_13_to_16_points():
    # one seeded set per family and size, the WRpi ones under every rank map
    pool = [(c, r) for c in range(8) for r in range(8)]
    cases = [(family, kind, None, n) for family, kind in
             (("WR", SPARSE_CHAIN), ("ED", GRAPH), ("EDup", NONDECREASING_GRAPH))
             for n in (13, 14, 15, 16)]
    cases += [(wr_pi(rank), RANKED_CHAIN, rank, n)
              for rank in RANK_CATALOG.values() for n in (13, 14)]
    for ideal, kind, rank, n in cases:
        pts = random.Random(f"oracle-tier-{kind}-{n}").sample(pool, n)
        cost, cert = phi(ideal, pts)
        assert cert.validate(pts, rank=rank)
        assert cost == oracle_cover_cost(pts, (VERTICAL_LINE, kind), rank=rank), (ideal, pts)


def test_oracle_deterministic():
    rng = random.Random(47)
    for _ in range(25):
        pts = random_points(rng, 8, 8, 6)
        first = brute_force_cover(pts, (VERTICAL_LINE, SPARSE_CHAIN))
        second = brute_force_cover(pts, (VERTICAL_LINE, SPARSE_CHAIN))
        assert first == second


def test_oracle_rejects_unknown_kinds():
    with pytest.raises(ValueError):
        brute_force_cover([(0, 0)], ("no-such-kind",))
    with pytest.raises(ValueError):
        oracle_cover_cost([(0, 0)], ())


# every kind tuple that the tests, the CLI and perfbench pass to the oracle
ORACLE_KIND_TUPLES = [
    ((SPARSE_CHAIN,), None),
    ((GRAPH,), None),
    ((NONDECREASING_GRAPH,), None),
    ((VERTICAL_LINE, SPARSE_CHAIN), None),
    ((VERTICAL_LINE, GRAPH), None),
    ((VERTICAL_LINE, NONDECREASING_GRAPH), None),
    ((VERTICAL_LINE, SPARSE_CHAIN, NONDECREASING_GRAPH), None),
    *(((RANKED_CHAIN,), rank) for rank in RANK_CATALOG.values()),
    *(((VERTICAL_LINE, RANKED_CHAIN), rank) for rank in RANK_CATALOG.values()),
]


def test_oracle_dp_matches_full_enumeration_exhaustive_small():
    pool = [(c, r) for c in range(5) for r in range(5)]
    mixes = [((VERTICAL_LINE, SPARSE_CHAIN, NONDECREASING_GRAPH), None),
             ((VERTICAL_LINE, GRAPH, RANKED_CHAIN), DIAG_RANK)]
    for size in range(5):
        for pts in combinations(pool, size):
            for kinds, rank in mixes:
                got = covering._oracle_dp(pts, kinds, rank)
                assert got == reference_oracle_dp(pts, kinds, rank), (kinds, pts)


def test_oracle_dp_matches_full_enumeration_seeded():
    rng = random.Random(67)
    pool = [(c, r) for c in range(7) for r in range(7)]
    for kinds, rank in ORACLE_KIND_TUPLES:
        for n in range(7, 13):
            pts = tuple(sorted(rng.sample(pool, n)))
            got = covering._oracle_dp(pts, kinds, rank)
            assert got == reference_oracle_dp(pts, kinds, rank), (kinds, rank, pts)


def test_oracle_dp_matches_full_enumeration_past_12_points():
    rng = random.Random(79)
    pool = [(c, r) for c in range(8) for r in range(8)]
    kinds = (VERTICAL_LINE, SPARSE_CHAIN, NONDECREASING_GRAPH)
    for n in (13, 14):
        pts = tuple(sorted(rng.sample(pool, n)))
        assert covering._oracle_dp(pts, kinds, None) == reference_oracle_dp(pts, kinds, None), pts


# sha256 over the brute_force_cover certificate JSON of each set in turn, and
# the total cost, on 8-12 points where blocks fit several admitted kinds, so
# the labels count too
ORACLE_CERTIFICATE_DIGESTS = {
    "lines+sparse+nondecreasing": (
        "f358d6b421174297fb8366bf7624daff4b1bc753d2ebd3e35456eb75a0dcc633", 44),
    "unranked": ("3b0162ca6baa870e4d40a538a616ad6f7965cb2d926dc4295a4633fd99c1eec1", 36),
    "lines+ranked/diag-rank": (
        "a77a39bce2f1b26693413e8bbcac4758c2c51dd08ca2c5e00b0ff541b81e5be4", 60),
    "lines+ranked/max-rank": (
        "5dc5a2ff0c1703752ee3c708cc3b3101bd7f1f69a0ad91e05c49da654957aa2f", 47),
    "lines+ranked/skew-rank": (
        "346c9619d2c6c52c5f324f521915610db3e95ac18b332ab9747ddadcc08d4522", 60),
    "lines+ranked/offset-rank": (
        "883e3d6d0188b987cf11c9fbb1ca3a5a221cbfaa7c7099772f70ab61c6fba002", 59),
}


def test_oracle_certificates_match_recorded_digests():
    mixes = {
        "lines+sparse+nondecreasing": ((VERTICAL_LINE, SPARSE_CHAIN, NONDECREASING_GRAPH), None),
        "unranked": ((VERTICAL_LINE, SPARSE_CHAIN, GRAPH, NONDECREASING_GRAPH), None),
        **{f"lines+ranked/{name}": ((VERTICAL_LINE, RANKED_CHAIN), rank)
           for name, rank in RANK_CATALOG.items()},
    }
    pool = [(c, r) for c in range(6) for r in range(6)]
    got = {}
    for name, (kinds, rank) in mixes.items():
        rng = random.Random(f"oracle-cert-{name}")
        digest, total = hashlib.sha256(), 0
        for _ in range(12):
            cert = brute_force_cover(rng.sample(pool, rng.randint(8, 12)), kinds, rank=rank)
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode() + b"\n")
            total += cert.cost
        got[name] = (digest.hexdigest(), total)
    assert got == ORACLE_CERTIFICATE_DIGESTS


def test_submeasure_axioms_sampled():
    rng = random.Random(31)
    for family in ("WR", "EDup"):
        assert phi_cost(family, []) == 0
        for _ in range(60):
            a = set(random_points(rng, 8, 8, 5))
            b = set(random_points(rng, 8, 8, 5))
            pa, pb, pab = phi_cost(family, a), phi_cost(family, b), phi_cost(family, a | b)
            assert pa <= pab <= pa + pb


def test_certificates_validate():
    rng = random.Random(37)
    for _ in range(40):
        pts = random_points(rng, 8, 8, 6)
        for family in ("WR", "ED", "EDup"):
            cost, cert = phi(family, pts)
            assert cert.cost == cost
            assert cert.validate(pts)
        cert = brute_force_cover(pts, (VERTICAL_LINE, SPARSE_CHAIN))
        assert cert.validate(pts)


def test_prefix_monotone_shadow():
    rng = random.Random(41)
    for family in ("WR", "EDup"):
        for _ in range(25):
            pts = list(random_points(rng, 8, 8, 6))
            total = phi_cost(family, pts)
            last = 0
            for m in range(1, len(pts) + 1):
                cur = phi_cost(family, pts[:m])
                assert cur >= last
                last = cur
            assert last == total


def test_wr_certificate_prefers_fewer_lines():
    # a lone column is one line; scattered sparse points stay one chain
    cost, cert = phi("WR", [(0, j) for j in range(4)])
    assert cost == 1 and cert.parts[0].kind == VERTICAL_LINE
    cost, cert = phi("WR", random_sparse_chain(random.Random(1), 6))
    assert cost == 1 and cert.parts[0].kind == SPARSE_CHAIN


def test_partition_helpers_are_valid_partitions():
    rng = random.Random(43)
    for _ in range(30):
        pts = random_points(rng, 8, 8, 6)
        chains = sparse_chain_partition(pts)
        assert sorted(p for ch in chains for p in ch) == sorted(pts)
        assert len(chains) == oracle_cover_cost(pts, (SPARSE_CHAIN,))
        nd = nondecreasing_chain_partition(pts)
        assert sorted(p for ch in nd for p in ch) == sorted(pts)
        assert len(nd) == oracle_cover_cost(pts, (NONDECREASING_GRAPH,))


def _first_fewest_lines(pts, chain_kind, rank=None):
    """Line columns of the first minimum cover in the order of line
    subsets by size, then ``combinations`` order, chains by the oracle."""
    cols = sorted({p[0] for p in pts})
    costs = {}
    for size in range(len(cols) + 1):
        for lines in combinations(cols, size):
            rest = [p for p in pts if p[0] not in lines]
            costs[lines] = size + oracle_cover_cost(rest, (chain_kind,), rank=rank)
    best = min(costs.values())
    return next(lines for lines, cost in costs.items() if cost == best)


def test_certificate_lines_are_fewest_among_minimum_covers():
    from gridideals import MAX_RANK

    rng = random.Random(53)
    cases = [("WR", SPARSE_CHAIN, None), ("EDup", NONDECREASING_GRAPH, None)]
    cases += [(wr_pi(rank), RANKED_CHAIN, rank) for rank in (DIAG_RANK, MAX_RANK)]
    for ideal, chain_kind, rank in cases:
        for _ in range(40):
            pts = random_points(rng, 5, 6, 8)
            cost, cert = phi(ideal, pts)
            lines = tuple(part.members[0][0] for part in cert.parts if part.kind == VERTICAL_LINE)
            assert lines == _first_fewest_lines(pts, chain_kind, rank), (ideal, pts)
            assert cost == oracle_cover_cost(pts, (VERTICAL_LINE, chain_kind), rank=rank)


def test_chain_partition_independent_of_recursion_limit():
    # augmenting paths in this set run about 170 vertices deep
    rng = random.Random(0)
    pts = tuple(sorted(rng.sample([(c, r) for c in range(60) for r in range(60)], 400)))
    expected = nondecreasing_chain_partition(pts)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        shallow = nondecreasing_chain_partition(pts)
    finally:
        sys.setrecursionlimit(old)
    assert shallow == expected
    assert sorted(p for chain in shallow for p in chain) == sorted(pts)


# sha256 over the certificate JSON of each set in turn, and the total cost:
# any change to a certificate's bytes, its tie-breaks included, shows here
CERTIFICATE_DIGESTS = {
    "WR": ("2cf7ae3e419cc91f4ac56e65224958ecffc3100f9d0bea972fe7222b823b7491", 427),
    "ED": ("98a17c236ee4c1b81af54c1f60a16c1d2830de0bd8b4c0a7a10dce32469a28eb", 278),
    "EDup": ("6274b08e43371892bb795d595e377d2f5c1e53486dc7c18175039615185d4ef4", 369),
    "WRpi/diag-rank": ("42f351dc389d1af6b8c6154cafbfca1411ee690b11cc52bb636b23b777d9658c", 409),
    "WRpi/max-rank": ("37b353e5b5b653d7f99cd951325751865147d9b573c802aa192391eaaec93333", 399),
    "WRpi/offset-rank": ("124deeccdc1cd65afdc654d459d0d253fd2a60251d6938b1c5bf223698e60b19", 403),
    "WRpi/skew-rank": ("9de625a207c4bd82b8e3fab7509be0296bdf5cd51bebf48ce0463adf216066af", 444),
}


def test_certificates_match_recorded_digests():
    ideals = {"WR": WR, "ED": ED, "EDup": EDUP}
    ideals.update({f"WRpi/{name}": wr_pi(rank) for name, rank in RANK_CATALOG.items()})
    got = {}
    for name, ideal in ideals.items():
        rng = random.Random(f"cert-{name}")
        digest, total = hashlib.sha256(), 0
        for _ in range(150):
            cost, cert = phi(ideal, random_points(rng, 6, 8, 10))
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode() + b"\n")
            total += cost
        got[name] = (digest.hexdigest(), total)
    assert got == CERTIFICATE_DIGESTS


# the same over WR, ED and EDup sets of 12-20 points in a 12x12 box, nearly
# all on more than 6 columns, so the digests pin the line search's deeper nodes
WIDE_CERTIFICATE_DIGESTS = {
    "WR": ("894f5357d2ae113b1106160afa2088b125fc2403238ebe4341fa3e7fd68d2a9c", 1100),
    "ED": ("33b9478f72f235dd711dfab7a9cbe1ec46c560ffe646ce334f4828ef77fc10dc", 462),
    "EDup": ("73566dc2bb84c8c222f7503d139e2853a741a1790c8887be06e99c3e54486f8c", 788),
}


def test_wide_certificates_match_recorded_digests():
    pool = [(c, r) for c in range(12) for r in range(12)]
    got = {}
    for name, ideal in (("WR", WR), ("ED", ED), ("EDup", EDUP)):
        rng = random.Random(f"wide-cert-{name}")
        digest, total = hashlib.sha256(), 0
        for _ in range(150):
            cost, cert = phi(ideal, rng.sample(pool, rng.randint(12, 20)))
            digest.update(json.dumps(cert.to_json(), sort_keys=True).encode() + b"\n")
            total += cost
        got[name] = (digest.hexdigest(), total)
    assert got == WIDE_CERTIFICATE_DIGESTS


def _staircases(width):
    """Column c holds rows 0..c, or rows 0..width-1-c: every multiplicity
    from 1 to width once, rising or falling."""
    return [[(c, r) for c in range(width) for r in range(c + 1)],
            [(c, r) for c in range(width) for r in range(width - c)]]


def _reference_ed_certificate(pts):
    pts = canonical_points(pts)
    lines = set(reference_ed_lines(pts))
    groups = covering._column_groups(pts)
    parts = [CoverPart(VERTICAL_LINE, tuple(groups[c])) for c in sorted(lines)]
    rest = [p for p in pts if p[0] not in lines]
    parts.extend(CoverPart(GRAPH, chain) for chain in covering._graph_partition(rest))
    return CoverCertificate(tuple(parts))


def test_ed_search_matches_the_closed_form(monkeypatch):
    # without the root cut of each size a w-column staircase takes
    # w(w+1)/2 nodes; the sets below need at most 50,600 steps (the
    # 400-column set lists its 50,200 points once), and they are searched
    # under a bound of 100,000, below the default
    assert covering.MAX_SEARCH_WORK >= 100_000
    monkeypatch.setattr(covering, "MAX_SEARCH_WORK", 100_000)
    rng = random.Random(83)
    sets = _staircases(30) + _staircases(100)
    for _ in range(2000):
        side = rng.randint(1, 30)
        pool = [(c, r) for c in range(side) for r in range(rng.randint(1, 30))]
        sets.append(rng.sample(pool, min(len(pool), rng.randint(0, 200))))
    pool = [(c, r) for c in range(60) for r in range(60)]
    sets += [random.Random(f"ed-{seed}").sample(pool, 3000) for seed in range(3)]
    # 19,999 columns with one doubled; a 100-step staircase padded to
    # 10,200 columns; an optimum of 200 lines
    sets.append([(c, 0) for c in range(19_999)] + [(0, 1)])
    sets.append(_staircases(100)[1] + [(c, 0) for c in range(100, 10_200)])
    sets.append([(c, r) for c in range(400) for r in range(250 if c % 2 else 1)])
    for pts in sets:
        cost, cert = phi(ED, pts)
        assert cert == _reference_ed_certificate(pts) and cost == cert.cost, pts


def _pairwise_incomparable(before, pts):
    return all(not before(a, b) for a, b in combinations(sorted(pts), 2))


def test_antichains_are_incomparable_and_as_large_as_the_partitions():
    rng = random.Random(59)
    for _ in range(300):
        pts = random_points(rng, rng.randint(1, 12), rng.randint(1, 12), 30)
        for antichain, before, partition in (
            (sparse_antichain, sparse_before, sparse_chain_partition),
            (nondecreasing_antichain, nondecreasing_before, nondecreasing_chain_partition),
        ):
            found = antichain(pts)
            assert set(found) <= set(pts) and len(set(found)) == len(found)
            assert _pairwise_incomparable(before, found), (antichain.__name__, pts)
            assert len(found) == len(partition(pts)), (antichain.__name__, pts)
        # graphs and ranked chains pass no antichain to the line search: the
        # most populated column is one for every rank map, and for graphs it
        # is as large as the partition
        column = max(covering._column_groups(pts).values(), key=len, default=[])
        assert len(column) == len(covering._graph_partition(pts))
        for rank in RANK_CATALOG.values():
            assert _pairwise_incomparable(ranked(rank), column)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["ED", "EDup", "WR"]),
    pts=st.sets(st.tuples(st.integers(0, 10), st.integers(0, 11)), min_size=0, max_size=18),
)
def test_line_search_matches_enumeration(family, pts):
    pts = tuple(sorted(pts))
    partition = covering._FAMILIES[family][1]
    assert covering._best_lines(pts, family) == reference_best_lines(pts, partition)


@settings(max_examples=40, deadline=None)
@given(
    rank_name=st.sampled_from(sorted(RANK_CATALOG)),
    pts=st.sets(st.tuples(st.integers(0, 11), st.integers(0, 6)), min_size=7, max_size=12),
)
def test_ranked_line_search_matches_enumeration(rank_name, pts):
    pts = tuple(sorted(pts))
    rank = RANK_CATALOG[rank_name]
    partition = partial(covering._ranked_chain_partition, rank=rank)
    got = covering._best_lines(pts, "WRpi", rank)
    assert got == reference_best_lines(pts, partition)


# the families with an antichain scan, and the routines it replaced
_SCANNED = {
    "WR": (covering._SparseScan, sparse_chain_partition, sparse_antichain),
    "EDup": (covering._NondecreasingScan, nondecreasing_chain_partition, nondecreasing_antichain),
}


def test_scans_match_the_antichains_they_replace():
    # a random line prefix: its last line at column index i, and the
    # columns before i that are not lines passed over, fed to the scan in
    # the order the search feeds them
    rng = random.Random(97)
    for scan_of, _, antichain in _SCANNED.values():
        for _ in range(500):
            pts = random_points(rng, rng.randint(1, 14), rng.randint(1, 14), 30)
            if not pts:
                continue
            groups = covering._column_groups(pts)
            cols = sorted(groups)
            i = rng.randrange(len(cols))
            lines = {j for j in range(i) if rng.random() < 0.4} | {i}
            scan = scan_of(pts, groups, cols)
            state = scan.start
            for j in range(i + 1):
                state = (scan.taken if j in lines else scan.passed)(state, j)
            live = [p for p in pts if cols.index(p[0]) not in lines]
            passed = [p for p in live if p[0] < cols[i]]
            kept = antichain(live)
            size, counts = scan.antichain(state, i)
            assert size == len(kept), (antichain.__name__, pts, lines)
            on_open = {cols[i + 1 + k]: c for k, c in enumerate(counts) if c}
            assert on_open == Counter(p[0] for p in kept if p[0] > cols[i]), (pts, lines)
            assert scan.passed_size(state) == len(antichain(passed)), (pts, lines)


def _search_steps(monkeypatch, search, hi):
    """The least MAX_SEARCH_WORK up to hi under which search completes,
    found by bisection, and its answer there: the steps the search takes."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(covering, "MAX_SEARCH_WORK", mid)
        try:
            search()
            hi = mid
        except covering.SearchScaleError:
            lo = mid + 1
    monkeypatch.setattr(covering, "MAX_SEARCH_WORK", lo)
    return lo, search()


def test_line_search_takes_the_reference_steps(monkeypatch):
    # the carried scans must cut the same nodes as antichains rebuilt at
    # every node, so every search stops at the same bound
    rng = random.Random(89)
    bound = covering.MAX_SEARCH_WORK
    for family, (_, partition, antichain) in _SCANNED.items():
        for _ in range(150):
            pts = random_points(rng, rng.randint(1, 14), rng.randint(1, 14), 24)
            got = _search_steps(monkeypatch, lambda: covering._best_lines(pts, family), bound)
            want = _search_steps(
                monkeypatch, lambda: reference_line_search(pts, partition, antichain, family), bound)
            assert got == want, (family, pts)


def _contract_results(ideal, kind, rank, pts):
    """What every canonicalising entry point answers on pts."""
    cost, cert = phi(ideal, pts)
    kinds = (VERTICAL_LINE, kind)
    return (
        cost, cert, phi_cost(ideal, pts), cert.validate(pts, rank=rank),
        sparse_chain_cover_number(pts),
        oracle_cover_cost(pts, kinds, rank=rank), brute_force_cover(pts, kinds, rank=rank),
        [part_is_valid(k, pts, rank) for k in kinds],
        is_sparse_chain(pts), [is_ranked_chain(r, pts) for r in RANK_CATALOG.values()],
    )


def test_entry_points_canonicalise_their_input():
    cases = [(WR, SPARSE_CHAIN, None), (ED, GRAPH, None), (EDUP, NONDECREASING_GRAPH, None)]
    cases += [(wr_pi(rank), RANKED_CHAIN, rank) for rank in RANK_CATALOG.values()]
    rng = random.Random(71)
    for ideal, kind, rank in cases:
        for _ in range(25):
            pts = random_points(rng, 6, 6, 9)
            scrambled = list(pts) + rng.choices(pts, k=3) if pts else []
            rng.shuffle(scrambled)
            got = _contract_results(ideal, kind, rank, scrambled)
            assert got == _contract_results(ideal, kind, rank, pts), (ideal, scrambled)
            assert got[3], (ideal, scrambled)


def test_phi_canonicalises_once(monkeypatch):
    calls = []

    def counted(points):
        calls.append(1)
        return canonical_points(points)

    monkeypatch.setattr(covering, "canonical_points", counted)
    pool = [(c, r) for c in range(10) for r in range(10)]
    rng = random.Random(73)
    for ideal in (WR, ED, EDUP):
        for _ in range(5):
            calls.clear()
            phi(ideal, rng.sample(pool, 20))
            assert len(calls) == 1, ideal


def test_line_search_node_bound(monkeypatch):
    pts = random.Random(61).sample([(c, r) for c in range(12) for r in range(12)], 30)
    cost = phi(WR, pts)[0]
    monkeypatch.setattr(covering, "MAX_SEARCH_WORK", 90)
    message = f"covering .*: WR, 30 points in {len({p[0] for p in pts})} columns, more than 90 steps"
    with pytest.raises(covering.SearchScaleError, match=message) as raised:
        phi(WR, pts)
    assert issubclass(covering.SearchScaleError, ValueError)
    assert raised.value.certificate.validate(pts)
    assert raised.value.lower_bound <= cost <= raised.value.certificate.cost
    # under every bound that stops a search, the error holds a valid cover
    # no cheaper than the optimum and a bound no dearer than it
    pool = [(c, r) for c in range(12) for r in range(12)]
    for family in ("WR", "EDup"):
        for seed in range(4):
            pts = random.Random(f"partial-{family}-{seed}").sample(pool, 16)
            cost = oracle_cover_cost(pts, (VERTICAL_LINE, covering._FAMILIES[family][0]))
            for bound in (0, 10, 30, 100, 300):
                monkeypatch.setattr(covering, "MAX_SEARCH_WORK", bound)
                try:
                    phi(family, pts)
                except covering.SearchScaleError as err:
                    cert, lower = err.certificate, err.lower_bound
                    assert cert.validate(pts), (family, pts, bound)
                    assert lower <= cost <= cert.cost, (family, pts, bound)
                    kinds = {part.kind for part in cert.parts} - {VERTICAL_LINE}
                    assert kinds <= {covering._FAMILIES[family][0]}


@pytest.mark.parametrize("family", ["WR", "ED", "EDup"])
def test_forty_points_solve_within_the_node_bound(monkeypatch, family):
    monkeypatch.setattr(covering, "MAX_SEARCH_WORK", 2_000_000)
    pool = [(c, r) for c in range(28) for r in range(28)]
    for seed in range(20):
        pts = random.Random(f"scale-{family}-{seed}").sample(pool, 40)
        cost, cert = phi(family, pts)
        assert cost == cert.cost and cert.validate(pts)
