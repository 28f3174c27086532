"""Command-line surface.

One job per invocation, JSON in and JSON out.  Exit codes: 0 on success,
1 on domain or input errors, 2 when a verification command finds a
violation.  Outputs are byte-identical across runs for identical inputs
and seeds.  Each command imports only the modules it runs, so a process
pays for no other subcommand's imports.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import monotone, presentations


class CliError(ValueError):
    pass


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_payload(path: str | None):
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    return json.loads(text)


def _is_natural(x) -> bool:
    # JSON true and false decode to bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _naturals(payload, key: str) -> list:
    values = payload.get(key) if isinstance(payload, dict) else payload
    if not (isinstance(values, list) and all(_is_natural(v) for v in values)):
        raise CliError(f"expected a JSON array of nonnegative integer {key}")
    return values


def _object(obj, what: str, required: tuple, optional: tuple = ()) -> dict:
    """obj as a JSON object with every required key and no other key
    than the optional ones, as the input schemas demand."""
    if not isinstance(obj, dict):
        raise CliError(f"{what} must be a JSON object: {obj!r}")
    for key in required:
        if key not in obj:
            raise CliError(f"{what} lacks {key!r}")
    unknown = sorted(obj.keys() - {*required, *optional})
    if unknown:
        raise CliError(f"{what} has an unknown key {unknown[0]!r}")
    return obj


def _points(payload) -> tuple:
    if isinstance(payload, dict):
        payload = payload.get("points", payload)
    if not isinstance(payload, list):
        raise CliError("expected a JSON array of [col,row] pairs")
    pts = []
    for entry in payload:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise CliError(f"not a [col,row] pair: {entry!r}")
        c, r = entry
        if not (_is_natural(c) and _is_natural(r)):
            raise CliError(f"coordinates must be nonnegative integers: {entry!r}")
        pts.append((c, r))
    return tuple(pts)


def _ideal_from_args(args) -> presentations.IdealPresentation:
    from . import gridmaps, presentations

    ideals = {"WR": presentations.WR, "ED": presentations.ED, "EDup": presentations.EDUP}
    if args.ideal in ideals:
        return ideals[args.ideal]
    if args.ideal == "WRpi":
        rank = gridmaps.RANK_CATALOG.get(args.rank or "")
        if rank is None:
            raise CliError(
                f"WRpi needs --rank, one of {sorted(gridmaps.RANK_CATALOG)}"
            )
        return presentations.wr_pi(rank)
    raise CliError(f"unknown ideal {args.ideal!r}")


# the limit forms of schemas/mon-descriptor.schema.json: an integer, p/q,
# inf or -inf.  Fraction alone would also read decimals and exponents,
# and "1e999999999" would build a billion-digit integer
_LIMIT = r"-?(inf|[0-9]+(/[0-9]+)?)"


def _parse_limit(limit):
    from fractions import Fraction

    from . import monotone

    if isinstance(limit, int) and not isinstance(limit, bool):
        limit = str(limit)
    if not (isinstance(limit, str) and re.fullmatch(_LIMIT, limit)):
        raise CliError(f"limit must be an integer, 'p/q', 'inf' or '-inf': {limit!r}")
    if limit == "inf":
        return monotone.INF
    if limit == "-inf":
        return -monotone.INF
    try:
        return Fraction(limit)
    except ZeroDivisionError:
        raise CliError(f"limit has a zero denominator: {limit!r}") from None


def _natural_field(obj: dict, key: str, default: int) -> int:
    value = obj.get(key, default)
    if not _is_natural(value):
        raise CliError(f"{key} must be a nonnegative integer: {value!r}")
    return value


def _column_from_json(obj) -> monotone.ColumnSpec:
    from fractions import Fraction

    from . import monotone

    _object(obj, "a column", ("mode", "limit"), ("style", "threshold", "jmap"))
    mode = obj["mode"]
    if mode not in (monotone.NONDECREASING, monotone.NONINCREASING, monotone.EVENTUALLY_CONSTANT):
        raise CliError(f"unknown column mode {mode!r}")
    limit = _parse_limit(obj["limit"])
    jmap = obj.get("jmap", [1, 0])
    natural_pair = isinstance(jmap, list) and len(jmap) == 2 and all(map(_is_natural, jmap))
    if not (natural_pair and jmap[0] >= 1):
        raise CliError(f"jmap must be two nonnegative integers, slope at least 1: {jmap!r}")
    a, b = jmap
    jmap = (lambda a, b: lambda k: a * k + b)(a, b)
    style = obj.get("style", "approach")
    if style not in ("approach", "linear"):
        raise CliError(f"unknown column style {style!r}")
    threshold = _natural_field(obj, "threshold", 0)
    if mode == monotone.EVENTUALLY_CONSTANT:
        pivot = jmap(threshold)

        def term(j, limit=limit, pivot=pivot):
            if j >= pivot:
                return limit
            return limit - (pivot - j)

    elif style == "approach":
        if limit in (monotone.INF, -monotone.INF):
            raise CliError("approach columns need a finite limit")
        if mode == monotone.NONDECREASING:
            def term(j, limit=limit):
                return limit - Fraction(1, j + 2)
        else:
            def term(j, limit=limit):
                return limit + Fraction(1, j + 2)
    elif mode == monotone.NONDECREASING:
        def term(j):
            return Fraction(j)
    else:
        def term(j):
            return Fraction(-j)
    return monotone.ColumnSpec(mode, limit, term, jmap, threshold)


def _family_from_json(obj) -> monotone.SequenceFamily:
    from . import monotone

    cols = _object(obj, "descriptor", ("columns",), ("depth",))["columns"]
    if not isinstance(cols, list) or not cols:
        raise CliError("descriptor needs a nonempty columns array")
    columns = tuple(_column_from_json(c) for c in cols)
    depth = obj.get("depth", 512)
    if not (_is_natural(depth) and depth >= 1):
        raise CliError(f"depth must be a positive integer: {depth!r}")
    return monotone.SequenceFamily(columns, depth)


def _mon_certificate_from_json(obj) -> monotone.MonCertificate:
    from . import monotone

    _object(obj, "certificate", ("indices", "points", "direction", "witnesses"), ("case",))
    _naturals(obj, "indices")
    _points(obj["points"])
    if obj["direction"] not in ("increasing", "nondecreasing-constant", "decreasing"):
        raise CliError(f"unknown direction {obj['direction']!r}")
    if not isinstance(obj.get("case", ""), str):
        raise CliError(f"case must be a string: {obj['case']!r}")
    witnesses = obj["witnesses"]
    if not isinstance(witnesses, list):
        raise CliError("witnesses must be a JSON array")
    for w in witnesses:
        _object(w, "a witness", ("level", "points"))
        if not _is_natural(w["level"]):
            raise CliError(f"a witness level must be a nonnegative integer: {w['level']!r}")
        _points(w["points"])
    return monotone.MonCertificate.from_json(obj)


# ---------------------------------------------------------------------------
# commands


def _cmd_phi(args) -> int:
    from . import covering

    ideal = _ideal_from_args(args)
    pts = _points(_read_payload(args.input))
    cost, cert = covering.phi(ideal, pts)
    _emit({"ideal": args.ideal, "phi": cost, "certificate": cert.to_json()})
    return 0


def _cmd_witness(args) -> int:
    from . import covering

    pts = _points(_read_payload(args.input))
    w = covering.sparsity_witness(pts)
    if w is None:
        _emit({"witness": None})
        return 2
    _emit({"witness": w.to_json()})
    return 0


def _cmd_oracle(args) -> int:
    from . import covering, gridmaps

    kinds = tuple(k.strip() for k in args.kinds.split(","))
    for k in kinds:
        if k not in covering.KINDS:
            raise CliError(f"unknown kind {k!r}; choose from {covering.KINDS}")
    rank = gridmaps.RANK_CATALOG.get(args.rank) if args.rank else None
    if covering.RANKED_CHAIN in kinds and rank is None:
        raise CliError("ranked-chain covers need --rank")
    pts = _points(_read_payload(args.input))
    cert = covering.brute_force_cover(pts, kinds, rank=rank)
    _emit({"cost": cert.cost, "parts": cert.to_json()["parts"]})
    return 0


def _map_points(args):
    return _points(_read_payload(args.input))


def _cmd_map(args) -> int:
    from . import gridmaps

    name = args.name
    if args.map_cmd == "apply":
        if name == "triangle-fold":
            pts = _map_points(args)
            _emit({"points": [list(gridmaps.triangle_fold(p)) for p in pts]})
            return 0
        if name in gridmaps.RANK_CATALOG:
            pts = _map_points(args)
            rank = gridmaps.RANK_CATALOG[name]
            _emit({"values": [rank(p) for p in pts]})
            return 0
        if name == "wedge-zigzag":
            indices = _naturals(_read_payload(args.input), "indices")
            _emit({"points": [list(gridmaps.wedge_zigzag_point(n)) for n in indices]})
            return 0
        raise CliError(f"unknown map {name!r}")
    if args.map_cmd == "invert":
        if name == "triangle-fold":
            pts = _map_points(args)
            _emit({"points": [list(gridmaps.triangle_unfold(p)) for p in pts]})
            return 0
        if name in gridmaps.RANK_CATALOG:
            values = _naturals(_read_payload(args.input), "values")
            rank = gridmaps.RANK_CATALOG[name]
            _emit({"preimages": [[list(p) for p in rank.preimages(v)] for v in values]})
            return 0
        if name == "wedge-zigzag":
            pts = _map_points(args)
            _emit({"indices": [gridmaps.wedge_zigzag_index(p) for p in pts]})
            return 0
        raise CliError(f"unknown map {name!r}")
    if args.map_cmd == "verify":
        from .transfer import MAX_WINDOW

        if not 1 <= args.window <= MAX_WINDOW:
            raise CliError(f"--window must be between 1 and {MAX_WINDOW}")
        failures = _verify_map(name, args.window)
        _emit({"name": name, "ok": not failures, "failures": failures})
        return 2 if failures else 0
    raise CliError(f"unknown map action {args.map_cmd!r}")


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
        failures.extend(
            gridmaps.validate_rank_map(gridmaps.RANK_CATALOG[name], values=window, window=window + 32)
        )
    else:
        raise CliError(f"unknown map {name!r}")
    return failures


def _cmd_game(args) -> int:
    from . import game

    if args.rounds < 0:
        raise CliError("--rounds must be nonnegative")
    ideal = _ideal_from_args(args)
    if args.opponent == "random":
        opponent = game.random_opponent(args.seed)
    elif args.opponent == "least-lex":
        opponent = game.least_lex_opponent
    else:
        raise CliError(f"unknown opponent {args.opponent!r}")
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

    payload = _read_payload(args.input)
    index_map = gridmaps.INDEX_MAP_CATALOG.get(args.map)
    if index_map is None:
        raise CliError(f"unknown enumeration {args.map!r}")
    if args.mon_cmd == "extract":
        fam = _family_from_json(payload)
        cert = monotone.extract_mon(index_map, fam, args.target_len, args.level)
        _emit(cert.to_json())
        return 0
    if args.mon_cmd == "verify":
        if not (isinstance(payload, dict) and {"descriptor", "certificate"} <= payload.keys()):
            raise CliError("mon verify takes an object with descriptor and certificate")
        fam = _family_from_json(payload["descriptor"])
        cert = _mon_certificate_from_json(payload["certificate"])
        result = monotone.verify_certificate(cert, index_map, fam)
        _emit({"ok": result.ok, "reasons": list(result.reasons)})
        return 0 if result.ok else 2
    raise CliError(f"unknown mon action {args.mon_cmd!r}")


def _cmd_sigma(args) -> int:
    from . import gridmaps, transfer

    catalog = gridmaps.RANK_CATALOG
    if args.pi not in catalog or args.pi0 not in catalog:
        raise CliError(f"rank maps must come from {sorted(catalog)}")
    built = transfer.build_chain_transfer(catalog[args.pi], catalog[args.pi0], args.window)
    _emit(
        {
            "pi": args.pi,
            "pi0": args.pi0,
            "window": args.window,
            "col_bound": built.col_bound,
            "edges": list(built.m),
            "adjusted": built.adjusted,
            "stalled": list(built.stalled),
            "table": [
                [list(p), list(q)] for p, q in built.table(args.window, args.window)
            ],
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
    gp.add_argument("--exact", action="store_true", help="block exact color sections")
    gp.set_defaults(fn=_cmd_game)

    p = sub.add_parser("mon", help="extract or verify monotone certificates")
    nsub = p.add_subparsers(dest="mon_cmd", required=True)
    ne = nsub.add_parser("extract")
    ne.add_argument("--target-len", type=int, required=True, dest="target_len")
    ne.add_argument("--level", type=int, default=0)
    ne.add_argument("--map", default="wedge-zigzag")
    ne.add_argument("--input")
    ne.set_defaults(fn=_cmd_mon)
    nv = nsub.add_parser("verify")
    nv.add_argument("--map", default="wedge-zigzag")
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
