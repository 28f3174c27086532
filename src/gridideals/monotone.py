"""Monotone subsequences indexed by cover-expensive point sets.

The input is a column family: each grid column declares a monotone
subsequence of its terms together with its limit.  The extractor sorts
the declared limits, picks one of four regimes (limits increasing,
limits constant with eventually constant terms, limits constant with
increasing terms, limits decreasing), and then walks the chosen columns
selecting one point each under three moving constraints: enumeration
index up, value in the declared direction, and coordinate sum beyond a
growth threshold taken two columns ahead.  The growth discipline makes
consecutive runs of the output sparsity witnesses, so the returned index
set provably needs many sparse chains to cover.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from numbers import Rational
from operator import eq, ge, gt, le, lt, neg
from typing import Callable, NamedTuple, Sequence

from .covering import SparsityWitness, sparsity_witness
from .grid import Point, longest_increasing


@total_ordering
class Infinity:
    """An exact infinite limit, INF or -INF.

    It lies above (or below) every integer and Fraction and negates.  No
    float enters a comparison with it.  Immutable; equal and hashed by
    its sign.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int = 1):
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Infinity(sign={self.sign!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sign == other.sign

    def __hash__(self) -> int:
        return hash((self.sign,))

    def __lt__(self, other):
        if isinstance(other, Infinity):
            return self.sign < other.sign
        if isinstance(other, Rational):
            return self.sign < 0
        return NotImplemented

    def __neg__(self) -> "Infinity":
        return Infinity(-self.sign)


INF = Infinity()

# the most subsequence positions one extraction may walk: target_len times
# the family's depth, checked before the walk, which visits up to that many
# positions for the family and again with the sign reversed
MAX_EXTRACT_WORK = 2 ** 18

NONDECREASING = "nondecreasing"
NONINCREASING = "nonincreasing"
EVENTUALLY_CONSTANT = "eventually-constant"

CASE_LIMITS_INCREASING = "limits-increasing"
CASE_CONSTANT_TERMS_CONSTANT = "constant-terms-constant"
CASE_CONSTANT_TERMS_INCREASING = "constant-terms-increasing"
CASE_LIMITS_DECREASING = "limits-decreasing"

_DIRECTION = {
    CASE_LIMITS_INCREASING: "increasing",
    CASE_CONSTANT_TERMS_CONSTANT: "nondecreasing-constant",
    CASE_CONSTANT_TERMS_INCREASING: "increasing",
    CASE_LIMITS_DECREASING: "decreasing",
}

_FLIP = {"increasing": "decreasing", "decreasing": "increasing",
         "nondecreasing-constant": "nondecreasing-constant"}

# the test each term makes against the one placed before it
_STEP = {"increasing": lt, "decreasing": gt, "nondecreasing-constant": eq}

# the order a column's terms keep, with each other and with its limit
_SHAPE = {NONDECREASING: le, NONINCREASING: ge}


class DescriptorError(ValueError):
    pass


class ExtractionError(RuntimeError):
    """Raised when resources run out; carries the prefix certificate."""

    def __init__(self, message: str, certificate: "MonCertificate | None" = None):
        super().__init__(message)
        self.certificate = certificate


def _identity(k: int) -> int:
    return k


class ColumnSpec(NamedTuple):
    """One column: a declared monotone subsequence and its limit.

    term maps a grid row to its value; jmap gives the strictly increasing
    rows of the declared subsequence; threshold is the first subsequence
    position where an eventually-constant column sits at its limit.
    """

    mode: str
    limit: Fraction | Infinity
    term: Callable[[int], Fraction]
    jmap: Callable[[int], int] = _identity
    threshold: int = 0

    def value_at(self, k: int) -> Fraction:
        return self.term(self.jmap(k))


class SequenceFamily(NamedTuple):
    columns: tuple[ColumnSpec, ...]
    depth: int = 512

    def value(self, p: Point) -> Fraction:
        c, r = p
        if c >= len(self.columns):
            raise DescriptorError(f"descriptor invalid: no column {c}")
        return self.columns[c].term(r)

    def validate(self) -> None:
        """Consistency of declared shapes on the first 24 subsequence
        positions.

        The check is a rank cutoff, not an epsilon: terms must respect
        the declared monotonicity and stay on the limit's side of it.
        """
        for i, spec in enumerate(self.columns):
            rows = [spec.jmap(k) for k in range(24)]
            if any(b <= a for a, b in zip(rows, rows[1:])):
                raise DescriptorError(
                    f"descriptor invalid: column {i} subsequence rows not increasing"
                )
            if spec.mode == EVENTUALLY_CONSTANT:
                tail = [spec.value_at(spec.threshold + k) for k in range(24)]
                if any(v != spec.limit for v in tail):
                    raise DescriptorError(
                        f"descriptor invalid: column {i} not constant past its threshold"
                    )
                continue
            vals = [spec.term(r) for r in rows]
            order = _SHAPE.get(spec.mode)
            if order is None:
                raise DescriptorError(f"descriptor invalid: unknown mode {spec.mode!r}")
            if not (all(map(order, vals, vals[1:])) and all(order(v, spec.limit) for v in vals)):
                raise DescriptorError(
                    f"descriptor invalid: column {i} breaks its declared {spec.mode} shape"
                )


class MonCertificate(NamedTuple):
    """A monotone index set with sparsity witnesses attached."""

    indices: tuple[int, ...]
    points: tuple[Point, ...]
    direction: str
    witnesses: tuple[SparsityWitness, ...]
    case: str = ""

    def to_json(self) -> dict:
        return {
            "indices": list(self.indices),
            "points": [list(p) for p in self.points],
            "direction": self.direction,
            "case": self.case,
            "witnesses": [w.to_json() for w in self.witnesses],
        }

    @staticmethod
    def from_json(obj: dict) -> "MonCertificate":
        return MonCertificate(
            tuple(obj["indices"]),
            tuple(tuple(p) for p in obj["points"]),
            obj["direction"],
            tuple(
                SparsityWitness(tuple(tuple(p) for p in w["points"]), w["level"])
                for w in obj.get("witnesses", ())
            ),
            obj.get("case", ""),
        )


class VerifyResult(NamedTuple):
    ok: bool
    reasons: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


# ---------------------------------------------------------------------------
# case selection


def _select_case(fam: SequenceFamily, need: int, sign: int):
    """The case and the chosen columns when the family is read with sign:
    at -1 a nonincreasing column counts as rising and every limit is
    negated."""
    rising = NONDECREASING if sign > 0 else NONINCREASING
    read = _identity if sign > 0 else neg
    eligible = [
        i
        for i, s in enumerate(fam.columns)
        if s.mode in (rising, EVENTUALLY_CONSTANT)
    ]
    if len(eligible) < need:
        return None, None
    limits = [read(fam.columns[i].limit) for i in eligible]
    inc = [eligible[k] for k in longest_increasing(limits)]
    if len(inc) >= need:
        return CASE_LIMITS_INCREASING, inc[:need]
    groups: dict = {}
    for i, limit in zip(eligible, limits):
        groups.setdefault(limit, []).append(i)
    values = sorted(groups)
    for value in values:
        ec = [i for i in groups[value] if fam.columns[i].mode == EVENTUALLY_CONSTANT]
        if len(ec) >= need:
            return CASE_CONSTANT_TERMS_CONSTANT, ec[:need]
    for value in values:
        up = [i for i in groups[value] if fam.columns[i].mode == rising]
        if len(up) >= need:
            return CASE_CONSTANT_TERMS_INCREASING, up[:need]
    dec = [eligible[k] for k in longest_increasing([-v for v in limits])]
    if len(dec) >= need:
        return CASE_LIMITS_DECREASING, dec[:need]
    return None, None


# ---------------------------------------------------------------------------
# extraction


def _extract(index_map, fam: SequenceFamily, target_len: int, target_level: int, sign: int):
    need = 2 * target_len - 1
    case, chosen = _select_case(fam, need, sign)
    if case is None:
        raise ExtractionError(
            f"not enough columns for any case (need {need} eligible ones)"
        )
    read = _identity if sign > 0 else neg
    direction, label = _DIRECTION[case], case
    step = _STEP[direction]
    if sign < 0:
        direction, label = _FLIP[direction], case + "-dual"
    points: list[Point] = []
    indices: list[int] = []
    prev_value = None
    prev_index = -1
    for i in range(target_len):
        cid = chosen[i]
        spec = fam.columns[cid]
        growth_col = chosen[2 * i]
        # limits-decreasing keeps each term above the next column's limit
        floor = read(fam.columns[chosen[i + 1]].limit) if case == CASE_LIMITS_DECREASING else None
        k = spec.threshold if spec.mode == EVENTUALLY_CONSTANT else 0
        found = None
        while k < fam.depth:
            j = spec.jmap(k)
            value = read(spec.term(j))
            admissible = prev_value is None or step(prev_value, value)
            if admissible and (floor is None or value > floor) and cid + j > growth_col:
                index = index_map.to_index((cid, j))
                if index > prev_index:
                    found = ((cid, j), value, index)
                    break
            k += 1
        if found is None:
            raise ExtractionError(
                f"column {cid} exhausted at depth {fam.depth} while placing point {i}",
                MonCertificate(tuple(indices), tuple(points), direction, (), label),
            )
        points.append(found[0])
        prev_value = found[1]
        prev_index = found[2]
        indices.append(found[2])
    witnesses = []
    for level in range(target_level + 1):
        run = points[level : 2 * level + 1]
        w = sparsity_witness(run)
        if w is None:
            raise ExtractionError("growth discipline failed to produce a witness")
        witnesses.append(w)
    return MonCertificate(tuple(indices), tuple(points), direction, tuple(witnesses), label)


def extract_mon(index_map, family: SequenceFamily, target_len: int, target_level: int) -> MonCertificate:
    """Extract a monotone index set of the requested length with sparsity
    witnesses up to the requested level.

    The growth discipline compares each point's coordinate sum against
    the column two positions ahead, which makes the run of points from
    position k to 2k a valid witness of level k; that is why target_len
    must exceed twice target_level.  When the declared shapes offer no
    regime, the walk is tried again with the sign reversed, where the
    nonincreasing columns rise and every limit and term is read negated,
    covering the nonincreasing side by the same code path.
    """
    if target_len <= 0:
        raise ValueError("target_len must be positive")
    if target_level < 0:
        raise ValueError("target_level must be nonnegative")
    if 2 * target_level >= target_len:
        raise ValueError("target_len must exceed twice target_level")
    if target_len * family.depth > MAX_EXTRACT_WORK:
        raise ValueError(
            f"target_len * depth must be at most {MAX_EXTRACT_WORK} (monotone.MAX_EXTRACT_WORK), "
            f"not {target_len * family.depth}"
        )
    family.validate()
    try:
        return _extract(index_map, family, target_len, target_level, 1)
    except ExtractionError as primary:
        try:
            return _extract(index_map, family, target_len, target_level, -1)
        except ExtractionError as reversed_error:
            # an error without a prefix certificate means the +1 pass found
            # no case, so the reversed pass's error is the one that informs
            raise (reversed_error if primary.certificate is None else primary) from None


# ---------------------------------------------------------------------------
# verification


def _is_subsequence(small: Sequence, big: Sequence) -> bool:
    it = iter(big)
    return all(any(x == y for y in it) for x in small)


def verify_certificate(cert: MonCertificate, index_map, family: SequenceFamily) -> VerifyResult:
    """Recheck a certificate from scratch, independently of the extractor:
    enumeration correspondence, value monotonicity in the declared
    direction, and every sparsity witness."""
    reasons = []
    if len(cert.indices) != len(cert.points):
        reasons.append("index and point counts differ")
        return VerifyResult(False, tuple(reasons))
    for idx, p in zip(cert.indices, cert.points):
        if index_map.to_point(idx) != p:
            reasons.append(f"index {idx} does not enumerate {p}")
            break
    if any(b <= a for a, b in zip(cert.indices, cert.indices[1:])):
        reasons.append("indices not strictly increasing")
    values = None
    try:
        values = [family.value(p) for p in cert.points]
    except DescriptorError as exc:
        reasons.append(str(exc))
    if values is not None:
        step = _STEP.get(cert.direction)
        if step is None:
            reasons.append(f"unknown direction {cert.direction!r}")
        elif not all(map(step, values, values[1:])):
            reasons.append("values break the declared direction")
    for w in cert.witnesses:
        if not _is_subsequence(w.points, cert.points):
            reasons.append("witness points are not a subsequence of the certificate points")
            continue
        # an empty list witnesses nothing, and sparsity_witness refuses it
        check = sparsity_witness(w.points) if w.points else None
        if check is None or check.level != w.level:
            reasons.append(f"witness of level {w.level} fails the sparsity conditions")
    return VerifyResult(not reasons, tuple(reasons))
