"""Output checks that do not trust the code under test.

The predicates here restate the definitions from the package README
(sparse chains, ranked chains, graphs, vertical lines, sparsity
witnesses, descriptor membership) so that a wrong answer cannot be
confirmed by the same code that produced it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import jsonschema
from referencing import Registry, Resource


def digest(obj) -> str:
    """Stable short digest of a JSON-serialisable value."""
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Schemas:
    """Validators for the schemas in ``schemas/``.

    References between schemas resolve through a local registry keyed by
    each schema's ``$id``; the default resolver would try to fetch
    ``gridideals:points`` over the network.
    """

    def __init__(self, root: pathlib.Path):
        registry = Registry()
        self.schemas = {}
        for path in sorted(root.glob("*.schema.json")):
            schema = json.loads(path.read_text(encoding="utf-8"))
            self.schemas[schema["$id"]] = schema
            registry = registry.with_resource(schema["$id"], Resource.from_contents(schema))
        self.registry = registry
        self._validators = {}

    def errors(self, schema_id: str, doc) -> list[str]:
        v = self._validators.get(schema_id)
        if v is None:
            v = jsonschema.Draft7Validator(self.schemas[schema_id], registry=self.registry)
            self._validators[schema_id] = v
        return [f"{schema_id}: {e.message[:120]}" for e in v.iter_errors(doc)][:3]


# ---------------------------------------------------------------------------
# chain kinds, restated pairwise


def sparse_pair(a, b) -> bool:
    lo, hi = sorted((a, b))
    return hi[0] > lo[0] + lo[1]


def ranked_pair(rank, a, b) -> bool:
    lo, hi = sorted((a, b))
    return lo[0] < hi[0] and rank(hi) > rank(lo) and hi[0] >= rank(lo)


def graph_pair(a, b) -> bool:
    return a[0] != b[0]


def nondecreasing_pair(a, b) -> bool:
    lo, hi = sorted((a, b))
    return lo[0] < hi[0] and lo[1] <= hi[1]


def line_pair(a, b) -> bool:
    return a[0] == b[0]


def pairwise(pred, points) -> bool:
    pts = list(points)
    return all(pred(pts[i], pts[j]) for i in range(len(pts)) for j in range(i + 1, len(pts)))


# which part kinds each family may use, with their pair predicates
FAMILY_KINDS = {
    "WR": {"vertical-line": line_pair, "sparse-chain": sparse_pair},
    "ED": {"vertical-line": line_pair, "graph": graph_pair},
    "EDup": {"vertical-line": line_pair, "nondecreasing-graph": nondecreasing_pair},
    "WRpi": {"vertical-line": line_pair, "ranked-chain": None},
}


def cover_errors(family: str, rank, points, cert_json: dict, cost: int) -> list[str]:
    """A certificate partitions the points into traces of allowed kinds."""
    errs = []
    parts = cert_json.get("parts", [])
    if cert_json.get("cost") != cost or len(parts) != cost:
        errs.append(f"cost {cost} disagrees with certificate ({cert_json.get('cost')}, {len(parts)} parts)")
    seen = []
    kinds = FAMILY_KINDS[family]
    for part in parts:
        members = [tuple(p) for p in part["members"]]
        if part["kind"] not in kinds:
            errs.append(f"kind {part['kind']} not allowed for {family}")
            continue
        pred = kinds[part["kind"]] or (lambda a, b: ranked_pair(rank, a, b))
        if not members or not pairwise(pred, members):
            errs.append(f"part {part['kind']} {members[:4]} is not one generator trace")
        seen.extend(members)
    if len(seen) != len(set(seen)) or set(seen) != set(points):
        errs.append("parts are not a partition of the input")
    return errs


def witness_errors(points, level) -> list[str]:
    """Columns strictly increase and every sum exceeds the last column."""
    pts = [tuple(p) for p in points]
    if level != len(pts) - 1:
        return [f"witness level {level} for {len(pts)} points"]
    if any(b[0] <= a[0] for a, b in zip(pts, pts[1:])):
        return ["witness columns do not increase"]
    if any(c + r <= pts[-1][0] for c, r in pts):
        return ["witness sum does not pass the last column"]
    return []


def in_descriptor(desc_json: dict, p) -> bool:
    """Membership in a serialised set descriptor."""
    c, r = p
    if c in desc_json.get("columns", ()):
        return True
    if any(tc == c and r >= start for tc, start in desc_json.get("tails", ())):
        return True
    return [c, r] in desc_json.get("points", ())
