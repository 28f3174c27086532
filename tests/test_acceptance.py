"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Tolerances are exact equalities and the stated bounds; nothing is
calibrated at runtime.
"""

import functools
import multiprocessing
import os
import random
from itertools import combinations, islice

from gridideals import (
    DIAG_RANK,
    MAX_RANK,
    OFFSET_RANK,
    SKEW_RANK,
    WEDGE_ZIGZAG,
    WR,
    adversarial_value,
    antidiagonal_height,
    blocking_strategy,
    brute_force_cover,
    build_chain_transfer,
    coloring_tree,
    descriptor_in_ideal,
    dyadic_class,
    extract_mon,
    is_ranked_chain,
    is_sparse_chain,
    jumping_condition,
    oracle_cover_cost,
    partition_to_embedding,
    phi_cost,
    play,
    point_sum,
    random_opponent,
    sample_range_chain,
    sparse_chain_cover_number,
    sparse_pair_color,
    sparsity_witness,
    triangle_fold,
    triangle_unfold,
    verify_certificate,
    verify_preimage_decomposition,
    wedge_class_level,
    wedge_zigzag_point,
)
from gridideals.covering import (
    GRAPH,
    NONDECREASING_GRAPH,
    SPARSE_CHAIN,
    VERTICAL_LINE,
)
from support import (
    MON_FAMILY_MAKERS,
    random_points,
    random_sparse_chain,
    random_witness_family,
)


def _report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def _check_against_oracle(pts) -> None:
    assert sparse_chain_cover_number(pts) == oracle_cover_cost(pts, (SPARSE_CHAIN,))
    assert phi_cost("WR", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, SPARSE_CHAIN))
    assert phi_cost("ED", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, GRAPH))
    assert phi_cost("EDup", pts) == oracle_cover_cost(pts, (VERTICAL_LINE, NONDECREASING_GRAPH))


def _criterion_1_sets():
    """Every set of at most 4 points in an 8x8 box, then 500 seeded sets of
    at most 6 points."""
    pool = [(c, r) for c in range(8) for r in range(8)]
    for size in range(5):
        yield from combinations(pool, size)
    rng = random.Random(101)
    for _ in range(500):
        yield random_points(rng, 8, 8, 6)


def _criterion_1_share(part: int, parts: int) -> int:
    """Check every parts-th set of criterion 1 from the part-th on; return
    the count checked, or raise naming the first set that fails."""
    checked = 0
    for pts in islice(_criterion_1_sets(), part, None, parts):
        try:
            _check_against_oracle(pts)
        except AssertionError as exc:
            raise AssertionError(f"criterion 1 fails on {pts}: {exc}") from None
        checked += 1
    return checked


def test_criterion_1_oracle_equivalence():
    # forked workers inherit the loaded modules; the suite starts no thread.
    # Results come in as the shares finish, so a failing share raises
    # without waiting for the other, and leaving the pool stops it
    workers = min(2, os.cpu_count() or 1)
    share = functools.partial(_criterion_1_share, parts=workers)
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        checked = sum(pool.imap_unordered(share, range(workers)))
    _report(1, f"structured solvers match the oracle on {checked} point sets")


def test_criterion_2_sparsity_witnesses():
    rng = random.Random(202)
    for i in range(100):
        level = 1 + i % 6
        pts = random_witness_family(rng, level)
        w = sparsity_witness(pts)
        assert w is not None and w.level == level
        assert sparse_chain_cover_number(pts) == level + 1
        assert brute_force_cover(pts, (SPARSE_CHAIN,)).cost == level + 1
    _report(2, "100 witness families pin the chain cover number to level+1")


def test_criterion_3_triangle_fold():
    for c in range(40):
        for r in range(40):
            p = (c, r)
            assert triangle_unfold(triangle_fold(p)) == p
            assert triangle_fold(triangle_unfold(p)) == p
    rng = random.Random(303)
    for _ in range(200):
        chain = random_sparse_chain(rng, 10)
        assert phi_cost("EDup", [triangle_fold(p) for p in chain]) <= 2
    line_samples = []
    for c in range(8):
        line_samples.append([(c, r) for r in range(10)])
        for _ in range(3):
            rows = sorted(rng.sample(range(30), 10))
            line_samples.append([(c, r) for r in rows])
    for sample in line_samples:
        assert phi_cost("EDup", [triangle_fold(p) for p in sample]) <= 2
    _report(3, "fold is a bijection on 40x40 and sends generator samples to cost <= 2")


def test_criterion_4_ranked_predicate_matches_sparse():
    pool = [(c, r) for c in range(10) for r in range(10)]
    budget = 10 ** 6
    checked = 0
    done = False
    for size in range(1, 6):
        if done:
            break
        for sub in combinations(pool, size):
            assert is_sparse_chain(sub) == is_ranked_chain(antidiagonal_height, sub)
            checked += 1
            if checked >= budget:
                done = True
                break
    _report(4, f"ranked and sparse chain predicates agree on {checked} sets")


def test_criterion_5_game_strategy_wins():
    wins = 0
    for seed in range(50):
        state = play(WR, blocking_strategy(), random_opponent(seed), 200, seed=seed)
        for blocked, pick in state.moves:
            assert descriptor_in_ideal(WR, blocked)
            assert not blocked.contains(pick)
        picks = state.picks()
        assert is_sparse_chain(picks)
        assert phi_cost(WR, picks) == 1
        wins += 1
    _report(5, f"blocking strategy confined the picks to one chain in {wins}/50 games")


def test_criterion_6_transfer_decompositions():
    rng = random.Random(606)
    pairs = [(DIAG_RANK, DIAG_RANK), (MAX_RANK, SKEW_RANK), (OFFSET_RANK, DIAG_RANK)]
    total = 0
    for pi, pi0 in pairs:
        t = build_chain_transfer(pi, pi0, 32)
        images = set()
        for c in range(t.col_bound):
            for r in range(40):
                q = t.apply((c, r))
                assert q not in images
                images.add(q)
        for _ in range(20):
            chain = sample_range_chain(t, rng)
            report = verify_preimage_decomposition(t, chain)
            assert report.ok
            total += 1
    _report(6, f"3 transfers built at window 32; {total} sampled chains decompose")


def _embedding_chain(emb, rng, window):
    pool = sorted(
        ((emb.to_point(m), emb.point_rank(emb.to_point(m))) for m in range(window)),
        key=lambda t: t[1],
    )
    chain = [rng.choice(pool[:8])]
    while True:
        prev_p, prev_rk = chain[-1]
        admissible = [
            (p, rk)
            for p, rk in pool
            if p[0] > prev_p[0] and p[0] >= prev_rk and rk > prev_rk
        ]
        if not admissible:
            break
        admissible.sort()
        chain.append(rng.choice(admissible[:5]))
    return [p for p, _ in chain]


def test_criterion_7_partition_embeddings():
    rng = random.Random(707)
    window = 64
    partitions = [dyadic_class]
    for _ in range(2):
        labels = [rng.randint(0, 11) for _ in range(window)]
        partitions.append(labels.__getitem__)
    total = 0
    for class_of in partitions:
        emb = partition_to_embedding(class_of, window)
        fibers: dict = {}
        for m in range(window):
            p = emb.to_point(m)
            assert p[0] == class_of(m)
            assert emb.to_index(p) == m
            fibers.setdefault(p[0], []).append(m)
        for col, members in fibers.items():
            assert tuple(members) == emb.fiber(col)
            assert members == [m for m in range(window) if class_of(m) == col]
        for _ in range(50):
            chain = _embedding_chain(emb, rng, window)
            indices = sorted(emb.to_index(p) for p in chain)
            assert jumping_condition(class_of, indices)
            total += 1
    _report(7, f"fibers match the classes exactly; {total} sampled chains jump correctly")


def test_criterion_8_monotone_extraction():
    rng = random.Random(808)
    runs = 0
    for case, maker in MON_FAMILY_MAKERS.items():
        for _ in range(50):
            fam = maker(rng, 45)
            cert = extract_mon(WEDGE_ZIGZAG, fam, 20, 5)
            assert cert.case == case
            assert verify_certificate(cert, WEDGE_ZIGZAG, fam)
            top = [w for w in cert.witnesses if w.level == 5][0]
            assert oracle_cover_cost(top.points, (SPARSE_CHAIN,)) == 6
            assert sparse_chain_cover_number(cert.points) >= 6
            runs += 1
    _report(8, f"{runs} extractions verified with cover number >= 6")


def _monotone_index_sets(values, max_size, cap, nonincreasing):
    out = []

    def extend(prefix):
        if len(out) >= cap:
            return
        if len(prefix) >= 2:
            out.append(tuple(prefix))
        if len(prefix) == max_size:
            return
        last = prefix[-1]
        for j in range(last + 1, len(values)):
            if len(out) >= cap:
                return
            ok = values[j] <= values[last] if nonincreasing else values[j] >= values[last]
            if ok:
                prefix.append(j)
                extend(prefix)
                prefix.pop()

    for i in range(len(values)):
        if len(out) >= cap:
            break
        extend([i])
    return out


def test_criterion_9_adversarial_sequence():
    n_terms = 90
    values = [adversarial_value(n) for n in range(n_terms)]
    points = [wedge_zigzag_point(n) for n in range(n_terms)]
    checked = 0
    for nonincreasing in (False, True):
        for idx in _monotone_index_sets(values, 6, 20000, nonincreasing):
            pts = [points[i] for i in idx]
            level = max(wedge_class_level(p) for p in pts)
            cost = phi_cost("EDup", pts)
            assert cost <= 2 * (1 + level)
            if not nonincreasing:
                assert cost <= 2
            checked += 1
    _report(9, f"{checked} monotone index sets stay within the cover bound")


def test_criterion_10_wr_tree_branches_are_chains():
    # the finite shadow of "WR is not weakly Ramsey": in the tree that keeps,
    # below each chosen point, the points sparse with it, every branch is one
    # sparse chain, yet no ramification is small.  A node's ramification holds
    # every full window column past the largest coordinate sum chosen, and one
    # full column costs one line or w chains
    branches = nodes = tight = 0
    for w, depth in [(w, 2) for w in range(6, 13)] + [(6, 3), (8, 3)]:
        for node, ram in coloring_tree(sparse_pair_color, depth, w):
            if not ram:
                assert phi_cost("WR", node) == 1, node
                branches += 1
            if len(node) == depth:
                continue
            # the root and every inner node
            bound = max(0, w - 1 - max(map(point_sum, node), default=-1))
            cost = phi_cost("WR", ram)
            assert cost >= bound, (w, node, cost)
            assert node or cost == w  # the root: one generator per column
            nodes += 1
            tight += cost == bound
    _report(10, f"{branches} tree branches cost 1; {nodes} ramifications meet their "
                f"column bound, {tight} of them exactly")


# the largest window side criterion 11 checks
RAMSEY_SIDE = 12


def test_criterion_11_wr_is_not_2_ramsey():
    """The finite shadow of "WR is not 2-Ramsey": some 2-coloring of pairs
    has no WR-positive homogeneous set.  This reading, and the argument,
    are the roadmap's own.  Under sparse_pair_color, a color-0 homogeneous
    set is one sparse chain.  In a color-1 set the spans [c, c+r] pairwise
    overlap, so by Helly's theorem on the line they share a column x: every
    point lies in the columns at or below x, and x is at most the least
    coordinate sum s.  A chain then holds one point, so the set costs its
    column count in WR, at most s + 1, and even an infinite one is in WR.

    On every window up to RAMSEY_SIDE the maximal color-1 set of each
    column x is H_x, the points whose span contains x.  It is pairwise
    color 1, its columns stop at its least coordinate sum, and it costs
    its x + 1 columns.
    """
    windows = 0
    for w in range(1, RAMSEY_SIDE + 1):
        for x in range(w):
            h = [(c, r) for c in range(w) for r in range(w) if c <= x <= c + r]
            assert all(sparse_pair_color(a, b) == 1 for a, b in combinations(h, 2)), (w, x)
            columns = {c for c, _ in h}
            assert max(columns) == min(map(point_sum, h)) == x, (w, x)
            assert phi_cost("WR", h) == len(columns) == x + 1, (w, x)
            windows += 1
    _report(11, f"{windows} maximal color-1 sets on windows of side up to {RAMSEY_SIDE} "
                f"cost their column count in WR, at most the least coordinate sum plus one")
