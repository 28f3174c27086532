"""Command-line surface.

One job per invocation, JSON in and JSON out.  Exit codes: 0 on success,
1 on domain or input errors, 2 when a verification command finds a
violation.  Outputs are byte-identical across runs for identical inputs
and seeds.  Each command imports only the modules it runs, so a process
pays for no other subcommand's imports.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import monotone, presentations


class CliError(ValueError):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


# the longest integer a payload may hold, the interpreter's own default cap
# on converting a digit string, checked before the conversion; a map or
# mon extract output that passes it is refused before printing
MAX_INT_DIGITS = 4300

# the most that the rank values of one `map invert` call on a rank map may
# sum to, counting one more per value.  A catalog rank map has at most
# 2v + 1 preimages of value v, so one call lists at most 200,000 points
MAX_RANK_SUM = 100_000

# the widest `map verify` window; a rank map check scans (window + 32)^2 points
MAX_VERIFY_WINDOW = 256

# the input contract: each payload is checked against its file in schemas/
_SCHEMAS = os.path.join(os.path.dirname(__file__), "schemas")
# JSON decodes to exactly these classes, so `type(x) is int` also refuses bool
_TYPES = {"object": dict, "array": list, "string": str, "integer": int,
          "boolean": bool, "null": type(None)}


@functools.cache
def _schema(name: str) -> dict:
    with open(os.path.join(_SCHEMAS, name + ".schema.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _show(x) -> str:
    return "an object" if type(x) is dict else "an array" if type(x) is list else json.dumps(x)


def _check(schema: dict, x, where: str = "payload") -> None:
    """Raise CliError unless x is valid against schema.

    Covers the draft-7 keywords the schemas use.  `$ref` gridideals:X
    names the file X.schema.json.  Unlike the jsonschema package, a final
    `$` in a pattern anchors at the end of the string, as in ECMA 262,
    and a float such as 1.0 is never an integer.
    """
    if "$ref" in schema:
        schema = _schema(schema["$ref"].partition(":")[2])
    types = schema.get("type")
    if types is not None:
        types = [types] if type(types) is str else types
        if not any(type(x) is _TYPES[t] for t in types):
            raise CliError(f"{where} must be {' or '.join(types)}, not {_show(x)}")
    if "enum" in schema and x not in schema["enum"]:
        raise CliError(f"{where} must be one of {json.dumps(schema['enum'])}, not {_show(x)}")
    if type(x) is str and len(x) > schema.get("maxLength", len(x)):
        raise CliError(f"{where} must have at most {schema['maxLength']} characters, not {len(x)}")
    if type(x) is str and "pattern" in schema:
        pattern = schema["pattern"]
        if not re.search(pattern[:-1] + r"\Z" if pattern.endswith("$") else pattern, x):
            raise CliError(f"{where} must match {pattern}, not {_show(x)}")
    if type(x) in (int, float) and x < schema.get("minimum", x):
        raise CliError(f"{where} must be at least {schema['minimum']}, not {x}")
    if type(x) is list:
        if len(x) < schema.get("minItems", 0):
            raise CliError(f"{where} must have at least {schema['minItems']} items, not {len(x)}")
        if len(x) > schema.get("maxItems", len(x)):
            raise CliError(f"{where} must have at most {schema['maxItems']} items, not {len(x)}")
        items = schema.get("items", {})
        pairs = zip(items, x) if type(items) is list else ((items, v) for v in x)
        for i, (sub, v) in enumerate(pairs):
            _check(sub, v, f"{where}[{i}]")
    if type(x) is dict:
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in x:
                raise CliError(f"{where} lacks {json.dumps(key)}")
        for key, v in x.items():
            if key in props:
                _check(props[key], v, f"{where}.{key}")
            elif schema.get("additionalProperties", True) is False:
                raise CliError(f"{where} has an unknown key {json.dumps(key)}")


def _read_payload(path: str | None, schema: str):
    """The JSON payload in the file at path, or on stdin, valid against
    schemas/<schema>.schema.json."""
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    payload = json.loads(text, parse_int=_parse_int)
    _check(_schema(schema), payload)
    return payload


def _parse_int(digits: str) -> int:
    n = len(digits.lstrip("-"))
    if n > MAX_INT_DIGITS:
        raise CliError(f"payload integers must have at most {MAX_INT_DIGITS} digits, not {n}")
    return int(digits)


def _read_points(path: str | None) -> tuple:
    return tuple(map(tuple, _read_payload(path, "points")))


def _rank_map(name: str | None, needed_by: str = ""):
    """The catalog rank map a --rank, --pi or --pi0 name gives, or None
    when it is absent and nothing needs it; an unknown or missing name is
    refused with the catalog listed."""
    from . import gridmaps

    names = sorted(gridmaps.RANK_CATALOG)
    if name is None:
        if needed_by:
            raise CliError(f"{needed_by} needs --rank, one of {names}")
        return None
    if name not in gridmaps.RANK_CATALOG:
        raise CliError(f"unknown rank map {name!r}; choose from {names}")
    return gridmaps.RANK_CATALOG[name]


def _ideal_from_args(args) -> presentations.IdealPresentation:
    from . import presentations

    rank = _rank_map(args.rank, "WRpi" if args.ideal == "WRpi" else "")
    if args.ideal != "WRpi":
        return {"WR": presentations.WR, "ED": presentations.ED, "EDup": presentations.EDUP}[args.ideal]
    return presentations.wr_pi(rank)


def _column_from_json(obj: dict) -> monotone.ColumnSpec:
    from fractions import Fraction

    from . import monotone

    mode, limit = obj["mode"], obj["limit"]
    infinite = limit in ("inf", "-inf")
    # the schema's pattern leaves Fraction no decimal or exponent to read,
    # so "1e999999999" never builds a billion-digit integer
    if infinite:
        limit = monotone.INF if limit == "inf" else -monotone.INF
    else:
        limit = Fraction(limit)
    a, b = obj.get("jmap", (1, 0))

    def jmap(k):
        return a * k + b

    threshold = obj.get("threshold", 0)
    # every kind of column but a linear one needs a finite limit
    kind = mode if mode == monotone.EVENTUALLY_CONSTANT else obj.get("style", "approach")
    if infinite != (kind == "linear"):
        need = "an infinite" if kind == "linear" else "a finite"
        raise CliError(f"{kind} columns need {need} limit")
    if kind == monotone.EVENTUALLY_CONSTANT:
        pivot = jmap(threshold)

        def term(j):
            return limit if j >= pivot else limit - (pivot - j)
    else:
        # a nonincreasing column is the nondecreasing one times -1
        sign = -1 if mode == monotone.NONINCREASING else 1

        def term(j):
            return sign * (Fraction(j) if kind == "linear" else sign * limit - Fraction(1, j + 2))
    return monotone.ColumnSpec(mode, limit, term, jmap, threshold)


def _family_from_json(obj: dict) -> monotone.SequenceFamily:
    from . import monotone

    columns = tuple(map(_column_from_json, obj["columns"]))
    return monotone.SequenceFamily(columns, obj.get("depth", 512))


# ---------------------------------------------------------------------------
# commands


def _cmd_phi(args) -> int:
    from . import covering

    ideal = _ideal_from_args(args)
    pts = _read_points(args.input)
    cost, cert = covering.phi(ideal, pts)
    _emit({"ideal": args.ideal, "phi": cost, "certificate": cert.to_json()})
    return 0


def _cmd_witness(args) -> int:
    from . import covering

    pts = _read_points(args.input)
    w = covering.sparsity_witness(pts)
    if w is None:
        _emit({"witness": None})
        return 2
    _emit({"witness": w.to_json()})
    return 0


def _cmd_oracle(args) -> int:
    from . import covering

    kinds = tuple(k.strip() for k in args.kinds.split(","))
    for k in kinds:
        if k not in covering.KINDS:
            raise CliError(f"unknown kind {k!r}; choose from {covering.KINDS}")
    rank = _rank_map(args.rank, "a ranked-chain cover" if covering.RANKED_CHAIN in kinds else "")
    pts = _read_points(args.input)
    cert = covering.brute_force_cover(pts, kinds, rank=rank)
    _emit({"cost": cert.cost, "parts": cert.to_json()["parts"]})
    return 0


def _cmd_map(args) -> int:
    from . import gridmaps

    name = args.name
    if args.map_cmd == "verify":
        if not 1 <= args.window <= MAX_VERIFY_WINDOW:
            raise CliError(f"--window must be between 1 and {MAX_VERIFY_WINDOW}")
        failures = _verify_map(name, args.window)
        _emit({"name": name, "ok": not failures, "failures": failures})
        return 2 if failures else 0
    # (action, name) -> (input schema, output key, the map on one input)
    maps = {
        ("apply", "triangle-fold"): ("points", "points", gridmaps.triangle_fold),
        ("invert", "triangle-fold"): ("points", "points", gridmaps.triangle_unfold),
        ("apply", "wedge-zigzag"): ("naturals", "points", gridmaps.wedge_zigzag_point),
        ("invert", "wedge-zigzag"): ("points", "indices", gridmaps.wedge_zigzag_index),
    }
    rank = gridmaps.RANK_CATALOG.get(name)
    if rank is not None:
        maps["apply", name] = ("points", "values", rank)
        maps["invert", name] = ("naturals", "preimages", rank.preimages)
    if (args.map_cmd, name) not in maps:
        raise CliError(f"unknown map {name!r}")
    schema, key, fn = maps[args.map_cmd, name]
    inputs = _read_points(args.input) if schema == "points" else _read_payload(args.input, schema)
    if key == "preimages" and sum(inputs) + len(inputs) > MAX_RANK_SUM:
        raise CliError(
            f"map invert rank values, each plus one, must sum to at most {MAX_RANK_SUM} "
            "(cli.MAX_RANK_SUM)"
        )
    out = [fn(v) for v in inputs]
    _check_digits(out, f"map {args.map_cmd} --name {name}")
    # json writes the tuples the maps return as arrays
    _emit({key: out})
    return 0


def _check_digits(out, command: str) -> None:
    """Raise CliError if an integer in out, or in the tuples and lists
    nested in it, has more than MAX_INT_DIGITS digits."""
    limit = 10**MAX_INT_DIGITS

    def too_long(x) -> bool:
        return abs(x) >= limit if type(x) is int else any(map(too_long, x))

    if too_long(out):
        raise CliError(
            f"{command} gives an integer of more than {MAX_INT_DIGITS} digits (cli.MAX_INT_DIGITS)"
        )


def _verify_map(name: str, window: int) -> list[str]:
    from . import gridmaps

    failures = []
    if name == "triangle-fold":
        for c in range(window):
            for r in range(window):
                p = (c, r)
                if gridmaps.triangle_unfold(gridmaps.triangle_fold(p)) != p:
                    failures.append(f"round trip fails at {p}")
                if gridmaps.triangle_fold(gridmaps.triangle_unfold(p)) != p:
                    failures.append(f"reverse round trip fails at {p}")
    elif name == "wedge-zigzag":
        seen = {}
        for n in range(window * window):
            p = gridmaps.wedge_zigzag_point(n)
            if p in seen:
                failures.append(f"indices {seen[p]} and {n} collide at {p}")
            seen[p] = n
            if gridmaps.wedge_zigzag_index(p) != n:
                failures.append(f"index round trip fails at {n}")
            upper = p[1] >= p[0]
            if upper != (n % 2 == 0):
                failures.append(f"parity class wrong at index {n}")
    elif name in gridmaps.RANK_CATALOG:
        failures.extend(gridmaps.validate_rank_map(gridmaps.RANK_CATALOG[name], window))
    else:
        raise CliError(f"unknown map {name!r}")
    return failures


def _cmd_game(args) -> int:
    from . import game

    if args.exact and args.ideal != "WR":
        raise CliError("--exact needs --ideal WR")
    ideal = _ideal_from_args(args)
    if args.opponent == "random":
        opponent = game.random_opponent(args.seed)
    else:
        opponent = game.least_lex_opponent
    state = game.play(
        ideal,
        game.blocking_strategy(exact=args.exact),
        opponent,
        args.rounds,
        seed=args.seed,
    )
    _emit(game.transcript_json(state))
    return 0


def _cmd_mon(args) -> int:
    from . import gridmaps, monotone

    extract = args.mon_cmd == "extract"
    payload = _read_payload(args.input, "mon-descriptor" if extract else "mon-verify")
    if extract:
        fam = _family_from_json(payload)
        cert = monotone.extract_mon(gridmaps.WEDGE_ZIGZAG, fam, args.target_len, args.level)
        _check_digits([cert.indices, cert.points, *(w.points for w in cert.witnesses)],
                      "mon extract")
        _emit(cert.to_json())
        return 0
    fam = _family_from_json(payload["descriptor"])
    cert = monotone.MonCertificate.from_json(payload["certificate"])
    result = monotone.verify_certificate(cert, gridmaps.WEDGE_ZIGZAG, fam)
    _emit({"ok": result.ok, "reasons": list(result.reasons)})
    return 0 if result.ok else 2


def _cmd_sigma(args) -> int:
    from . import transfer

    built = transfer.build_chain_transfer(_rank_map(args.pi), _rank_map(args.pi0), args.window)
    _emit(
        {
            "pi": args.pi,
            "pi0": args.pi0,
            "window": args.window,
            "col_bound": built.col_bound,
            "edges": list(built.m),
            "adjusted": built.adjusted,
            "stalled": list(built.stalled),
            "table": [[list(p), list(q)] for p, q in built.table(args.window)],
        }
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridideals",
        description="covering numbers, games, and monotone extraction for grid ideals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phi", help="minimum mixed cover of a finite point set")
    p.add_argument("--ideal", required=True, choices=["WR", "ED", "EDup", "WRpi"])
    p.add_argument("--rank", help="rank map name for WRpi")
    p.add_argument("--input", help="JSON file (default: stdin)")
    p.set_defaults(fn=_cmd_phi)

    p = sub.add_parser("witness", help="check the sparsity witness conditions")
    p.add_argument("--input")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("oracle", help="brute-force cover for cross-checking")
    osub = p.add_subparsers(dest="oracle_cmd", required=True)
    oc = osub.add_parser("cover")
    oc.add_argument("--kinds", required=True, help="comma-separated generator kinds")
    oc.add_argument("--rank")
    oc.add_argument("--input")
    oc.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("map", help="apply, invert, or verify a cataloged map")
    msub = p.add_subparsers(dest="map_cmd", required=True)
    for action in ("apply", "invert"):
        mp = msub.add_parser(action)
        mp.add_argument("--name", required=True)
        mp.add_argument("--input")
        mp.set_defaults(fn=_cmd_map)
    mv = msub.add_parser("verify")
    mv.add_argument("--name", required=True)
    mv.add_argument("--window", type=int, default=40)
    mv.set_defaults(fn=_cmd_map)

    p = sub.add_parser("game", help="play the point-picking game")
    gsub = p.add_subparsers(dest="game_cmd", required=True)
    gp = gsub.add_parser("play")
    gp.add_argument("--ideal", default="WR", choices=["WR", "WRpi"])
    gp.add_argument("--rank")
    gp.add_argument("--rounds", type=int, default=20)
    gp.add_argument("--opponent", default="random", choices=["random", "least-lex"])
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--exact", action="store_true", help="block exact color sections (WR only)")
    gp.set_defaults(fn=_cmd_game)

    p = sub.add_parser("mon", help="extract or verify monotone certificates")
    nsub = p.add_subparsers(dest="mon_cmd", required=True)
    ne = nsub.add_parser("extract")
    ne.add_argument("--target-len", type=int, required=True, dest="target_len")
    ne.add_argument("--level", type=int, default=0)
    ne.add_argument("--input")
    ne.set_defaults(fn=_cmd_mon)
    nv = nsub.add_parser("verify")
    nv.add_argument("--input")
    nv.set_defaults(fn=_cmd_mon)

    p = sub.add_parser("sigma", help="build a transfer map between ranked families")
    ssub = p.add_subparsers(dest="sigma_cmd", required=True)
    sb = ssub.add_parser("build")
    sb.add_argument("--pi", required=True)
    sb.add_argument("--pi0", required=True)
    sb.add_argument("--window", type=int, default=32)
    sb.set_defaults(fn=_cmd_sigma)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        _emit({"error": f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"})
        return 1
    except (CliError, ValueError, KeyError, OSError, RuntimeError) as exc:
        _emit({"error": str(exc)})
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
