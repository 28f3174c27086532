import random
from fractions import Fraction

import pytest

from gridideals import (
    DIAG_RANK,
    MAX_RANK,
    OFFSET_RANK,
    SKEW_RANK,
    adversarial_value,
    antidiagonal_height,
    dyadic_class,
    jumping_condition,
    partition_to_embedding,
    phi_cost,
    triangle_fold,
    triangle_unfold,
    validate_rank_map,
    wedge_class_level,
    wedge_zigzag_index,
    wedge_zigzag_point,
)
from support import random_sparse_chain, random_vertical_sample


def test_triangle_fold_examples():
    assert triangle_fold((3, 4)) == (3, 5)
    assert triangle_fold((3, 5)) == (6, 3)
    assert triangle_unfold((6, 3)) == (3, 5)


def test_triangle_fold_bijection_window():
    for c in range(40):
        for r in range(40):
            p = (c, r)
            assert triangle_unfold(triangle_fold(p)) == p
            assert triangle_fold(triangle_unfold(p)) == p


def test_fold_sends_generators_low():
    rng = random.Random(3)
    for _ in range(60):
        chain = random_sparse_chain(rng)
        assert phi_cost("EDup", [triangle_fold(p) for p in chain]) <= 2
    for _ in range(40):
        line = random_vertical_sample(rng)
        assert phi_cost("EDup", [triangle_fold(p) for p in line]) <= 2


def test_rank_map_examples():
    assert DIAG_RANK((0, 1)) == 0
    assert DIAG_RANK((2, 3)) == 6
    assert DIAG_RANK((0, 0)) == 1
    assert antidiagonal_height((2, 3)) == 6
    assert antidiagonal_height((0, 1)) == 2


def test_rank_maps_validate():
    for rank in (DIAG_RANK, MAX_RANK, SKEW_RANK, OFFSET_RANK):
        assert validate_rank_map(rank, 24) == []


def test_offset_rank_avoids_first_column_at_zero():
    assert all(p[0] != 0 for p in OFFSET_RANK.preimages(0))


def test_wedge_zigzag_examples():
    assert wedge_zigzag_point(0) == (0, 0)
    assert wedge_zigzag_point(1) == (1, 0)
    assert wedge_zigzag_point(2) == (0, 1)
    assert wedge_zigzag_point(9) == (3, 1)


def test_wedge_zigzag_bijection_and_parity():
    seen = {}
    for n in range(1600):
        p = wedge_zigzag_point(n)
        assert p not in seen
        seen[p] = n
        assert wedge_zigzag_index(p) == n
        upper = p[1] >= p[0]
        assert upper == (n % 2 == 0)
    # windows are exhausted: every small point appears
    for c in range(10):
        for r in range(10):
            assert (c, r) in seen


def test_adversarial_examples():
    assert adversarial_value(0) == Fraction(1, 2)
    assert adversarial_value(2) == Fraction(1, 3)
    assert adversarial_value(1) == Fraction(1, 2)


def test_adversarial_classes_decrease_within_band():
    by_class: dict = {}
    for n in range(400):
        p = wedge_zigzag_point(n)
        level = wedge_class_level(p)
        v = adversarial_value(n)
        assert level < v < level + 1
        upper = p[1] >= p[0]
        by_class.setdefault((upper, level), []).append((n, v))
    for members in by_class.values():
        members.sort()
        vals = [v for _, v in members]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_dyadic_class():
    assert [dyadic_class(m) for m in range(8)] == [0, 1, 0, 2, 0, 1, 0, 3]
    for m in range(256):
        n = dyadic_class(m)
        assert (m + 1) % 2**n == 0 and (m + 1) % 2 ** (n + 1) != 0


def test_partition_embedding_examples():
    emb = partition_to_embedding(dyadic_class, 64)
    assert emb.to_point(0) == (0, 1)
    assert emb.to_point(1) == (1, 1)
    assert emb.to_point(2) == (0, 2)
    # image avoids row 0, so fibers are proper subsets of their columns
    assert all(emb.to_point(m)[1] >= 1 for m in range(64))
    for m in range(64):
        assert emb.to_point(m)[0] == dyadic_class(m)
        assert emb.to_index(emb.to_point(m)) == m
    # enumeration position doubles the index on the image, odd elsewhere
    assert emb.point_rank(emb.to_point(5)) == 10
    assert emb.point_rank((0, 0)) % 2 == 1
    with pytest.raises(ValueError):
        emb.to_point(64)


def test_partition_embedding_of_labels():
    labels = [0, 1, 0, 1, 2, 0]
    emb = partition_to_embedding(labels.__getitem__, 6)
    # the k-th member of class n sits at (n, k+1)
    assert [emb.to_point(m) for m in range(6)] == [(0, 1), (1, 1), (0, 2), (1, 2), (2, 1), (0, 3)]
    assert emb.fiber(0) == (0, 2, 5) and emb.fiber(3) == ()
    with pytest.raises(IndexError):
        partition_to_embedding(labels.__getitem__, 7)
    for bad in ([0, -1], [0, 1.0], [True]):
        with pytest.raises(ValueError, match="must be a nonnegative int"):
            partition_to_embedding(bad.__getitem__, len(bad))


def test_jumping_condition():
    assert jumping_condition(dyadic_class, [0, 1, 3, 63])
    assert jumping_condition(dyadic_class, [5])
    assert not jumping_condition(dyadic_class, [0, 1, 2])  # class of 2 is 0, not above 1
