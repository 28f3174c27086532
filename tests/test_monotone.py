import random
from fractions import Fraction

import pytest

from gridideals import (
    SPARSE_CHAIN,
    WEDGE_ZIGZAG,
    ColumnSpec,
    DescriptorError,
    EVENTUALLY_CONSTANT,
    ExtractionError,
    MonCertificate,
    NONDECREASING,
    SequenceFamily,
    brute_force_cover,
    extract_mon,
    sparse_chain_cover_number,
    verify_certificate,
)
from gridideals import monotone
from support import (
    MON_FAMILY_MAKERS,
    family_dual_decreasing,
    family_limits_increasing,
)


def _constant_family(n=30, value=Fraction(2), threshold=3):
    def term(j):
        return value if j >= threshold else value - (threshold - j)

    cols = tuple(
        ColumnSpec(EVENTUALLY_CONSTANT, value, term, threshold=threshold)
        for _ in range(n)
    )
    return SequenceFamily(cols)


def _increasing_limits_family(n=30):
    cols = tuple(
        ColumnSpec(NONDECREASING, Fraction(i), (lambda i: lambda j: Fraction(i) - Fraction(1, j + 2))(i))
        for i in range(n)
    )
    return SequenceFamily(cols)


def test_case_constant_terms_constant():
    fam = _constant_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 9, 3)
    assert cert.case == "constant-terms-constant"
    assert cert.direction == "nondecreasing-constant"
    assert verify_certificate(cert, WEDGE_ZIGZAG, fam)
    top = [w for w in cert.witnesses if w.level == 3][0]
    assert brute_force_cover(top.points, (SPARSE_CHAIN,)).cost == 4


def test_case_limits_increasing():
    fam = _increasing_limits_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 9, 3)
    assert cert.case == "limits-increasing"
    assert cert.direction == "increasing"
    assert verify_certificate(cert, WEDGE_ZIGZAG, fam)


def test_case_dual_pipeline():
    rng = random.Random(3)
    fam = family_dual_decreasing(rng, 30)
    cert = extract_mon(WEDGE_ZIGZAG, fam, 9, 3)
    assert cert.case.endswith("-dual")
    assert cert.direction == "decreasing"
    assert verify_certificate(cert, WEDGE_ZIGZAG, fam)


def test_round_trip_all_cases():
    rng = random.Random(5)
    for case, maker in MON_FAMILY_MAKERS.items():
        for _ in range(12):
            fam = maker(rng, 25)
            cert = extract_mon(WEDGE_ZIGZAG, fam, 8, 3)
            assert cert.case == case
            assert verify_certificate(cert, WEDGE_ZIGZAG, fam)
            assert sparse_chain_cover_number(cert.points) >= 4


def test_mirrored_families_flip_directions():
    from support import mirror_family

    rng = random.Random(6)
    flip = {"increasing": "decreasing", "decreasing": "increasing",
            "nondecreasing-constant": "nondecreasing-constant"}
    for case, maker in MON_FAMILY_MAKERS.items():
        fam = maker(rng, 25)
        straight = extract_mon(WEDGE_ZIGZAG, fam, 8, 3)
        mirrored = extract_mon(WEDGE_ZIGZAG, mirror_family(fam), 8, 3)
        if case == "constant-terms-constant":
            # eventually-constant columns are self-mirrored: no dual needed
            assert mirrored.case == case
        else:
            assert mirrored.case == case + "-dual"
        assert mirrored.direction == flip[straight.direction]
        assert verify_certificate(mirrored, WEDGE_ZIGZAG, mirror_family(fam))


def test_indices_increase_and_correspond():
    fam = _constant_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 10, 4)
    assert all(a < b for a, b in zip(cert.indices, cert.indices[1:]))
    for idx, p in zip(cert.indices, cert.points):
        assert WEDGE_ZIGZAG.to_point(idx) == p


def test_witness_levels_complete():
    fam = _increasing_limits_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 11, 5)
    assert sorted(w.level for w in cert.witnesses) == list(range(6))
    for w in cert.witnesses:
        assert sparse_chain_cover_number(w.points) == w.level + 1


def test_tampered_certificates_fail():
    fam = _constant_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 9, 3)
    # break monotonicity by rewriting the direction
    bad = MonCertificate(cert.indices, cert.points, "increasing", cert.witnesses, cert.case)
    res = verify_certificate(bad, WEDGE_ZIGZAG, fam)
    assert not res.ok and "direction" in " ".join(res.reasons)
    # witness with non-increasing columns
    w = cert.witnesses[-1]
    from gridideals import SparsityWitness

    flipped = SparsityWitness(tuple(reversed(w.points)), w.level)
    bad = MonCertificate(cert.indices, cert.points, cert.direction, (flipped,), cert.case)
    res = verify_certificate(bad, WEDGE_ZIGZAG, fam)
    assert not res.ok
    # witness points from outside the certificate
    alien = SparsityWitness(((0, 50), (1, 50)), 1)
    bad = MonCertificate(cert.indices, cert.points, cert.direction, (alien,), cert.case)
    assert not verify_certificate(bad, WEDGE_ZIGZAG, fam).ok
    # index that does not enumerate its point
    bad = MonCertificate(
        (cert.indices[0] + 1,) + cert.indices[1:], cert.points, cert.direction, cert.witnesses, cert.case
    )
    assert not verify_certificate(bad, WEDGE_ZIGZAG, fam).ok


def test_validation_rejects_bad_descriptors():
    # declared nondecreasing but actually dropping
    cols = (ColumnSpec(NONDECREASING, Fraction(0), lambda j: Fraction(-j)),)
    with pytest.raises(DescriptorError):
        SequenceFamily(cols).validate()
    # rows of the declared subsequence must increase
    cols = (ColumnSpec(NONDECREASING, Fraction(1), lambda j: Fraction(0), jmap=lambda k: 0),)
    with pytest.raises(DescriptorError):
        SequenceFamily(cols).validate()
    # eventually-constant columns must sit at their limit
    cols = (ColumnSpec(EVENTUALLY_CONSTANT, Fraction(1), lambda j: Fraction(0), threshold=1),)
    with pytest.raises(DescriptorError):
        SequenceFamily(cols).validate()


def test_resource_exhaustion_carries_prefix():
    fam = _constant_family(n=30)
    short = SequenceFamily(fam.columns, depth=4)
    with pytest.raises(ExtractionError) as err:
        extract_mon(WEDGE_ZIGZAG, short, 12, 2)
    cert = err.value.certificate
    assert cert is not None
    assert len(cert.points) < 12
    assert (cert.case, cert.direction) == ("constant-terms-constant", "nondecreasing-constant")
    # extract_mon raises the primary error, so the dual prefix is read directly
    fam = family_dual_decreasing(random.Random(3), 30)
    short = monotone._mirror(SequenceFamily(fam.columns, depth=3))
    with pytest.raises(ExtractionError) as err:
        monotone._extract(WEDGE_ZIGZAG, short, 9, 2, dual=True)
    cert = err.value.certificate
    assert (cert.case, cert.direction) == ("limits-increasing-dual", "decreasing")
    assert cert.points == ((0, 3), (1, 4), (2, 6)) and cert.witnesses == ()


def test_not_enough_columns():
    fam = _constant_family(n=4)
    with pytest.raises(ExtractionError):
        extract_mon(WEDGE_ZIGZAG, fam, 9, 2)


def test_target_bounds_checked():
    fam = _constant_family()
    with pytest.raises(ValueError):
        extract_mon(WEDGE_ZIGZAG, fam, 6, 3)
    with pytest.raises(ValueError):
        extract_mon(WEDGE_ZIGZAG, fam, 0, 0)


def test_certificate_json_round_trip():
    fam = _increasing_limits_family()
    cert = extract_mon(WEDGE_ZIGZAG, fam, 9, 3)
    again = MonCertificate.from_json(cert.to_json())
    assert again == cert


def test_unbounded_limit_column():
    from gridideals import INF, NONINCREASING

    cols = [
        ColumnSpec(NONDECREASING, Fraction(i), (lambda i: lambda j: Fraction(i) - Fraction(1, j + 2))(i))
        for i in range(12)
    ]
    cols.append(ColumnSpec(NONDECREASING, INF, lambda j: Fraction(j)))
    fam = SequenceFamily(tuple(cols))
    cert = extract_mon(WEDGE_ZIGZAG, fam, 5, 2)
    assert cert.case == "limits-increasing"
    assert verify_certificate(cert, WEDGE_ZIGZAG, fam)
    sinking = SequenceFamily(
        tuple(
            ColumnSpec(NONINCREASING, -INF, (lambda i: lambda j: Fraction(i) - j)(i))
            for i in range(0, 120, 10)
        )
    )
    cert = extract_mon(WEDGE_ZIGZAG, sinking, 5, 2)
    assert cert.direction == "decreasing"
    assert verify_certificate(cert, WEDGE_ZIGZAG, sinking)


def test_infinite_limit_is_exact():
    from gridideals import INF

    assert not isinstance(INF, float) and type(-INF) is type(INF)
    for x in (Fraction(-10 ** 30), Fraction(7, 3), 0, 10 ** 30):
        assert -INF < x < INF and INF > x > -INF and x != INF and x <= INF
        assert INF - x == INF and -INF - x == -INF
    assert -(-INF) == INF and INF <= INF and not INF < INF and -INF < INF
    assert sorted([INF, Fraction(1, 2), -INF, 3]) == [-INF, Fraction(1, 2), 3, INF]
    assert len({INF, type(INF)(), -INF, -(-INF)}) == 2
    with pytest.raises(TypeError):
        INF - INF


def test_nonidentity_jmap():
    rng = random.Random(9)
    fam = family_limits_increasing(rng, 25)
    cert = extract_mon(WEDGE_ZIGZAG, fam, 8, 3)
    assert verify_certificate(cert, WEDGE_ZIGZAG, fam)
    # chosen rows must come from each column's declared subsequence
    for (c, r) in cert.points:
        spec = fam.columns[c]
        rows = {spec.jmap(k) for k in range(fam.depth)}
        assert r in rows
