import hashlib
import json
import random

import pytest

from gridideals import (
    DIAG_RANK,
    MAX_RANK,
    OFFSET_RANK,
    RANK_CATALOG,
    SKEW_RANK,
    TransferError,
    build_chain_transfer,
    is_ranked_chain,
    sample_range_chain,
    verify_preimage_decomposition,
)

PAIRS = [(DIAG_RANK, DIAG_RANK), (MAX_RANK, SKEW_RANK), (OFFSET_RANK, DIAG_RANK)]


def _a_set(t, n):
    """A_n by its definition: the points of (adjusted) pi rank at most 2n
    in columns 0..2n; A_0 is empty."""
    if n == 0:
        return frozenset()
    return frozenset(p for v in range(2 * n + 1) for p in t.pi.preimages(v) if p[0] <= 2 * n)


def test_first_stage_values():
    t = build_chain_transfer(DIAG_RANK, DIAG_RANK, 16)
    assert sorted(_a_set(t, 1)) == [(0, 0), (0, 1), (1, 0)]
    assert t.m[0] == 1 and t.m[1] == 1  # first strip is empty
    assert 1 in t.stalled or t.m[1] == t.m[0]


def test_identity_on_first_column():
    for pi, pi0 in PAIRS:
        t = build_chain_transfer(pi, pi0, 12)
        for r in range(30):
            assert t.apply((0, r)) == (0, r)


def test_adjustment_flag():
    assert not build_chain_transfer(DIAG_RANK, DIAG_RANK, 8).adjusted
    assert build_chain_transfer(OFFSET_RANK, DIAG_RANK, 8).adjusted


def test_injective_and_parts_disjoint():
    for pi, pi0 in PAIRS:
        t = build_chain_transfer(pi, pi0, 20)
        images = {}
        for c in range(t.col_bound):
            for r in range(32):
                q = t.apply((c, r))
                assert q not in images, f"collision at {q}"
                images[q] = (c, r)
        # ranges split by column parity: remainder odd, blocks even
        for q in images:
            if q[0] % 2 == 1:
                assert t.in_remainder_range(q)


def test_invert_round_trip():
    t = build_chain_transfer(MAX_RANK, SKEW_RANK, 16)
    for c in range(t.col_bound):
        for r in range(300):
            p = (c, r)
            assert t.invert(t.apply(p)) == p


def test_line_preimages():
    t = build_chain_transfer(DIAG_RANK, DIAG_RANK, 24)
    # odd lines: finitely many preimages (just the remainder entries)
    odd_cols = {q[0] for q in t._spi}
    for c in odd_cols:
        pre = [b for q, b in t._spi.items() if q[0] == c]
        assert len(pre) < 50
    # even lines: preimages confined to one strip of columns
    for n in range(1, len(t.m) - 1):
        if t.m[n - 1] == t.m[n]:
            continue
        cols = set()
        for r in range(40):
            p = t.invert((2 * n, r))
            if p is not None:
                cols.add(p[0])
        assert cols <= set(range(t.m[n - 1], t.m[n]))


def test_outside_domain_raises():
    t = build_chain_transfer(DIAG_RANK, DIAG_RANK, 8)
    with pytest.raises(TransferError):
        t.apply((t.col_bound + 5, 0))


def test_decomposition_trivial_samples():
    t = build_chain_transfer(DIAG_RANK, DIAG_RANK, 16)
    assert verify_preimage_decomposition(t, []).ok
    single = (t.apply((3, 5)),)
    assert verify_preimage_decomposition(t, single).ok


def test_decomposition_rejects_non_chains():
    t = build_chain_transfer(DIAG_RANK, DIAG_RANK, 16)
    with pytest.raises(ValueError):
        verify_preimage_decomposition(t, [(0, 0), (0, 1)])


def test_decomposition_random_chains():
    rng = random.Random(19)
    for pi, pi0 in PAIRS:
        t = build_chain_transfer(pi, pi0, 24)
        for _ in range(15):
            chain = sample_range_chain(t, rng)
            assert is_ranked_chain(t.pi, chain)
            report = verify_preimage_decomposition(t, chain)
            assert report.ok
            total = (
                len(report.remainder_preimage)
                + len(report.block_preimage_even)
                + len(report.block_preimage_odd)
            )
            assert total == len(chain)


def test_bad_window():
    with pytest.raises(ValueError):
        build_chain_transfer(DIAG_RANK, DIAG_RANK, 0)


def test_window_independence():
    # the staged realization restricts one canonical infinite injection:
    # growing the window must not change already-constructed values
    for pi, pi0 in PAIRS + [(SKEW_RANK, MAX_RANK)]:
        small = build_chain_transfer(pi, pi0, 12)
        big = build_chain_transfer(pi, pi0, 40)
        for c in range(small.col_bound):
            for r in range(50):
                assert small.apply((c, r)) == big.apply((c, r))


def test_incremental_a_sets_match_definition():
    # the build grows each a-set from the last; the rows it keeps in the
    # new even column must be those of the a-set defined from scratch
    for pi in RANK_CATALOG.values():
        for pi0 in RANK_CATALOG.values():
            t = build_chain_transfer(pi, pi0, 24)
            for n in range(1, len(t.m)):
                assert t._arows[n] == sorted(r for c, r in _a_set(t, n) if c == 2 * n)


def _transfer_digest(t, window):
    inverse = [t.invert((c, r)) for c in range(2 * len(t.m) + 3) for r in range(80)]
    a_sets = [sorted(_a_set(t, n)) for n in range(len(t.m))]
    doc = [
        t.m, list(t.stalled), t.adjusted, t.col_bound,
        a_sets, sorted(t._spi.items()), t.table(window, window), inverse,
    ]
    return json.dumps(doc).encode()


# sha256 over the 16 catalog pairs in name order: the edges, the a-sets (by
# their definition, for the stages built), the remainder placement, the forward table and the inverse on even and odd columns
TRANSFER_DIGESTS = {
    5: "443ea134267844c316c6bb777d70e82bf74b2a4319941a4c395d896e3ab0dbb3",
    16: "e7af31abc86340bfc2cf35cc437f1c299de33349571bda04ff77726f1a3b5a71",
    32: "dd5dcceb41472f3f0b640f4eec6cd1aa2a4c52ea6b975cf386e3d3b2a32916db",
}


def test_transfer_matches_recorded_digest():
    names = sorted(RANK_CATALOG)
    got = {}
    for window in TRANSFER_DIGESTS:
        digest = hashlib.sha256()
        for pi in names:
            for pi0 in names:
                t = build_chain_transfer(RANK_CATALOG[pi], RANK_CATALOG[pi0], window)
                digest.update(_transfer_digest(t, window) + b"\n")
        got[window] = digest.hexdigest()
    assert got == TRANSFER_DIGESTS
