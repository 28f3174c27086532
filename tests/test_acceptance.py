"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
pass.  Tolerances are exact equalities and the stated bounds; nothing is
calibrated at runtime.
"""

import random
from itertools import combinations

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
    descriptor_in_ideal,
    dyadic_partition,
    extract_mon,
    is_ranked_chain,
    is_sparse_chain,
    jumping_condition,
    oracle_cover_cost,
    partition_from_labels,
    partition_to_embedding,
    phi_cost,
    play,
    random_opponent,
    sample_range_chain,
    sparse_chain_cover_number,
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


def test_criterion_1_oracle_equivalence():
    pool = [(c, r) for c in range(8) for r in range(8)]
    checked = 0
    for size in range(5):
        for pts in combinations(pool, size):
            _check_against_oracle(pts)
            checked += 1
    rng = random.Random(101)
    for _ in range(500):
        pts = random_points(rng, 8, 8, 6)
        _check_against_oracle(pts)
        checked += 1
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
    witnesses = [dyadic_partition()]
    for name in ("random-a", "random-b"):
        labels = [rng.randint(0, 11) for _ in range(window)]
        witnesses.append(partition_from_labels(labels, name))
    total = 0
    for witness in witnesses:
        emb = partition_to_embedding(witness, window)
        fibers: dict = {}
        for m in range(window):
            p = emb.to_point(m)
            assert p[0] == witness.class_of(m)
            assert emb.to_index(p) == m
            fibers.setdefault(p[0], []).append(m)
        for col, members in fibers.items():
            assert tuple(members) == emb.fiber(col)
            assert members == [m for m in range(window) if witness.class_of(m) == col]
        for _ in range(50):
            chain = _embedding_chain(emb, rng, window)
            indices = sorted(emb.to_index(p) for p in chain)
            assert jumping_condition(witness, indices)
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
