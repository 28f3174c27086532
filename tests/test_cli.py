import json
import os
import pathlib
import subprocess
import sys

import pytest

from gridideals import cli, covering, game, transfer
from support import run_cli


def test_phi_command():
    code, out = run_cli(["phi", "--ideal", "WR"], "[[0,5],[1,4],[2,3]]")
    assert code == 0
    doc = json.loads(out)
    assert doc["phi"] == 3
    assert len(doc["certificate"]["parts"]) == 3


def test_phi_wrpi_needs_rank():
    code, out = run_cli(["phi", "--ideal", "WRpi"], "[[0,0]]")
    assert code == 1
    code, out = run_cli(["phi", "--ideal", "WRpi", "--rank", "diag-rank"], "[[0,0]]")
    assert code == 0 and json.loads(out)["phi"] == 1


def test_witness_exit_codes():
    code, out = run_cli(["witness"], "[[0,0],[1,0]]")
    assert code == 2 and json.loads(out) == {"witness": None}
    code, out = run_cli(["witness"], "[[0,5],[1,4],[2,3]]")
    assert code == 0 and json.loads(out)["witness"]["level"] == 2


def test_map_apply_invert():
    code, out = run_cli(["map", "apply", "--name", "triangle-fold"], "[[3,5]]")
    assert code == 0 and json.loads(out) == {"points": [[6, 3]]}
    code, out = run_cli(["map", "invert", "--name", "triangle-fold"], "[[6,3]]")
    assert code == 0 and json.loads(out) == {"points": [[3, 5]]}
    code, out = run_cli(["map", "apply", "--name", "diag-rank"], "[[0,1],[2,3]]")
    assert code == 0 and json.loads(out) == {"values": [0, 6]}
    code, out = run_cli(["map", "apply", "--name", "wedge-zigzag"], "[0,2,9]")
    assert code == 0 and json.loads(out) == {"points": [[0, 0], [0, 1], [3, 1]]}
    code, out = run_cli(["map", "invert", "--name", "wedge-zigzag"], "[[3,1]]")
    assert code == 0 and json.loads(out) == {"indices": [9]}


def test_map_verify():
    for name in ("triangle-fold", "wedge-zigzag", "diag-rank", "max-rank"):
        code, out = run_cli(["map", "verify", "--name", name, "--window", "16"])
        assert code == 0, out
        assert json.loads(out)["ok"] is True


def test_oracle_command():
    code, out = run_cli(
        ["oracle", "cover", "--kinds", "vertical-line,sparse-chain"],
        "[[0,5],[1,4],[2,3]]",
    )
    assert code == 0 and json.loads(out)["cost"] == 3
    code, out = run_cli(["oracle", "cover", "--kinds", "nonsense"], "[]")
    assert code == 1


def test_oracle_has_no_limit_flag():
    # ORACLE_LIMIT is the one size cap; argparse refuses the removed flag
    with pytest.raises(SystemExit):
        run_cli(["oracle", "cover", "--kinds", "graph", "--limit", "40"], "[]")


def test_game_determinism():
    argv = ["game", "play", "--rounds", "12", "--seed", "5"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["verdict"]["sparse_chain"] is True
    assert doc["verdict"]["phi"] == 1
    assert len(doc["rounds"]) == 12


def test_sigma_build():
    code, out = run_cli(
        ["sigma", "build", "--pi", "diag-rank", "--pi0", "diag-rank", "--window", "8"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"][0] == 1
    assert doc["col_bound"] >= 8
    assert doc["table"]
    seen = set()
    for p, q in doc["table"]:
        assert tuple(q) not in seen
        seen.add(tuple(q))


def test_mon_extract_and_verify():
    descriptor = {
        "columns": [
            {"mode": "eventually-constant", "limit": "2", "threshold": 2, "jmap": [1, 0]}
            for _ in range(20)
        ]
    }
    code, out = run_cli(
        ["mon", "extract", "--target-len", "6", "--level", "2"],
        json.dumps(descriptor),
    )
    assert code == 0
    cert = json.loads(out)
    assert cert["direction"] == "nondecreasing-constant"
    payload = json.dumps({"descriptor": descriptor, "certificate": cert})
    code, out = run_cli(["mon", "verify"], payload)
    assert code == 0 and json.loads(out)["ok"] is True
    # break it and watch exit code 2
    cert["indices"] = list(reversed(cert["indices"]))
    payload = json.dumps({"descriptor": descriptor, "certificate": cert})
    code, out = run_cli(["mon", "verify"], payload)
    assert code == 2 and json.loads(out)["ok"] is False


def test_malformed_json_diagnostics():
    code, out = run_cli(["phi", "--ideal", "WR"], "not json")
    assert code == 1
    doc = json.loads(out)
    assert "line 1" in doc["error"]


def test_bad_points_rejected():
    code, out = run_cli(["phi", "--ideal", "WR"], "[[0,-1]]")
    assert code == 1
    code, out = run_cli(["phi", "--ideal", "WR"], "[[0]]")
    assert code == 1


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["phi", "--ideal", "WR"], "[[true,false]]"),
        (["map", "invert", "--name", "diag-rank"], "[-3]"),
        (["map", "invert", "--name", "diag-rank"], '["a"]'),
        (["map", "invert", "--name", "diag-rank"], "[true]"),
        (["map", "apply", "--name", "wedge-zigzag"], "[true]"),
        # one input for each constraint of schemas/points.schema.json
        (["phi", "--ideal", "WR"], "7"),
        (["witness"], "[5]"),
        (["oracle", "cover", "--kinds", "graph"], "[[0,1,2]]"),
        (["map", "apply", "--name", "triangle-fold"], "[[0.5,1]]"),
        (["phi", "--ideal", "WR"], "[[1.0,0]]"),
        # object forms: each payload schema is an array
        (["phi", "--ideal", "WR"], '{"points": [[0,1]], "x": 2}'),
        (["map", "invert", "--name", "diag-rank"], '{"values": [1]}'),
        (["map", "apply", "--name", "wedge-zigzag"], '{"indices": [3]}'),
    ],
)
def test_non_natural_inputs_rejected(argv, payload):
    code, out = run_cli(argv, payload)
    assert code == 1 and "error" in json.loads(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["map", "verify", "--name", "triangle-fold", "--window", "-5"],
        ["map", "verify", "--name", "wedge-zigzag", "--window", "0"],
        ["map", "verify", "--name", "diag-rank", "--window", str(transfer.MAX_WINDOW + 1)],
        ["game", "play", "--rounds", "-3"],
        ["game", "play", "--rounds", str(game.MAX_ROUNDS + 1)],
        ["sigma", "build", "--pi", "diag-rank", "--pi0", "max-rank", "--window", "0"],
        ["sigma", "build", "--pi", "diag-rank", "--pi0", "max-rank",
         "--window", str(transfer.MAX_WINDOW + 1)],
    ],
    ids=["verify-negative", "verify-zero", "verify-past-cap", "rounds-negative", "rounds-past-cap",
         "sigma-zero", "sigma-past-cap"],
)
def test_vacuous_or_unbounded_runs_rejected(argv):
    code, out = run_cli(argv)
    assert code == 1 and "error" in json.loads(out)


def test_line_search_past_its_bound_is_a_json_error(monkeypatch):
    monkeypatch.setattr(covering, "MAX_SEARCH_NODES", 3)
    pts = [[c, (5 * c) % 7] for c in range(10)] + [[c, 7] for c in range(0, 10, 2)]
    code, out = run_cli(["phi", "--ideal", "EDup"], json.dumps(pts))
    assert code == 1
    assert json.loads(out) == {
        "error": "covering search bound exceeded: EDup, 15 points in 10 columns, more than 3 nodes"
    }


def _mon_column(**fields):
    return {"mode": "eventually-constant", "limit": "2", "threshold": 2, **fields}


def _mon_extract(*columns, **descriptor):
    return ["mon", "extract", "--target-len", "1"], json.dumps(
        {"columns": list(columns), **descriptor}
    )


def _mon_verify(drop=(), **certificate):
    cert = {"indices": [0], "points": [[0, 0]], "direction": "increasing", "witnesses": []}
    cert = {k: v for k, v in {**cert, **certificate}.items() if k not in drop}
    payload = {"descriptor": {"columns": [_mon_column()]}, "certificate": cert}
    return ["mon", "verify"], json.dumps(payload)


_WITNESS = {"level": 0, "points": [[0, 0]]}


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["mon", "verify"], "[]"),
        _mon_extract(_mon_column(jmap=["a", 0])),
        _mon_extract({"mode": "nondecreasing", "limit": "1", "jmap": [1.5, 0]}),
        _mon_extract({"mode": "nondecreasing", "limit": "1", "jmap": [1, -2]}),
        _mon_extract(_mon_column(threshold=[2])),
        _mon_extract(1),
        _mon_verify(points=[5]),
        # one input for each constraint of schemas/mon-descriptor.schema.json
        (["mon", "extract", "--target-len", "1"], "[]"),
        (["mon", "extract", "--target-len", "1"], '{"depth": 4}'),
        _mon_extract(_mon_column(), depth=0),
        _mon_extract(_mon_column(), depth="9"),
        (["mon", "extract", "--target-len", "1"], '{"columns": {"mode": "nondecreasing"}}'),
        _mon_extract(),
        _mon_extract(_mon_column(), order="asc"),
        _mon_extract({"limit": "1"}),
        _mon_extract({"mode": "nondecreasing"}),
        _mon_extract({"mode": "sideways", "limit": "1"}),
        _mon_extract({"mode": "nondecreasing", "limit": 1.5}),
        _mon_extract({"mode": "nondecreasing", "limit": "1e999999999"}),
        _mon_extract({"mode": "nondecreasing", "limit": "1/0"}),
        _mon_extract(_mon_column(style="zigzag")),
        _mon_extract(_mon_column(threshold=-1)),
        _mon_extract(_mon_column(jmap=3)),
        _mon_extract(_mon_column(jmap=[1])),
        _mon_extract(_mon_column(jmap=[1, 0, 0])),
        _mon_extract(_mon_column(color="red")),
        # one input for each constraint of schemas/mon-certificate.schema.json
        (["mon", "verify"], json.dumps({"descriptor": {"columns": [_mon_column()]},
                                        "certificate": []})),
        _mon_verify(drop=("indices",)),
        _mon_verify(drop=("points",)),
        _mon_verify(drop=("direction",)),
        _mon_verify(drop=("witnesses",)),
        _mon_verify(indices=5),
        _mon_verify(indices=[-1]),
        _mon_verify(direction="sideways"),
        _mon_verify(case=3),
        _mon_verify(witnesses={}),
        _mon_verify(witnesses=[3]),
        _mon_verify(witnesses=[{"points": [[0, 0]]}]),
        _mon_verify(witnesses=[{"level": 0}]),
        _mon_verify(witnesses=[{**_WITNESS, "level": -1}]),
        _mon_verify(witnesses=[{**_WITNESS, "points": [[0]]}]),
        _mon_verify(witnesses=[{**_WITNESS, "note": "x"}]),
        _mon_verify(note="x"),
        (["mon", "verify"], json.dumps({**json.loads(_mon_verify()[1]), "note": "x"})),
        _mon_extract({"mode": "nondecreasing", "limit": "1", "jmap": [0, 0]}),
        _mon_extract({"mode": "nondecreasing", "limit": "1\n"}),
        _mon_extract({"mode": "nondecreasing", "limit": "inf\n"}),
    ],
    ids=["verify-array", "jmap-str", "jmap-float", "jmap-negative", "threshold-array",
         "column-int", "cert-points-int",
         "descriptor-array", "columns-missing", "depth-zero", "depth-str", "columns-object",
         "columns-empty", "descriptor-extra-key", "mode-missing", "limit-missing",
         "mode-unknown", "limit-float", "limit-exponent", "limit-zero-denominator",
         "style-unknown", "threshold-negative", "jmap-int", "jmap-short", "jmap-long",
         "column-extra-key",
         "cert-array", "cert-indices-missing", "cert-points-missing", "cert-direction-missing",
         "cert-witnesses-missing", "cert-indices-int", "cert-indices-negative",
         "cert-direction-unknown", "cert-case-int", "cert-witnesses-object", "witness-int",
         "witness-level-missing", "witness-points-missing", "witness-level-negative",
         "witness-points-short", "witness-extra-key", "cert-extra-key",
         "verify-extra-key", "jmap-zero-slope", "limit-trailing-newline",
         "limit-inf-trailing-newline"],
)
def test_malformed_mon_input_rejected(argv, payload):
    code, out = run_cli(argv, payload)
    assert code == 1 and "error" in json.loads(out)


def test_malformed_mon_inputs_break_one_rule():
    # the inputs above differ from these by one broken rule; these pass
    # validation, so an error above comes from the rule alone
    code, out = run_cli(*_mon_extract(_mon_column(), {"mode": "nondecreasing", "limit": "1"}))
    assert code == 0, out
    code, out = run_cli(*_mon_verify(witnesses=[_WITNESS], case="limits-increasing"))
    assert code in (0, 2) and "error" not in json.loads(out)


def test_empty_witness_fails_verification():
    code, out = run_cli(*_mon_verify(witnesses=[{"level": 0, "points": []}]))
    assert code == 2
    assert json.loads(out) == {
        "ok": False, "reasons": ["witness of level 0 fails the sparsity conditions"]
    }


def test_over_long_limit_is_refused_by_the_schema():
    code, out = run_cli(*_mon_extract({"mode": "nondecreasing", "limit": "1" * 5000}))
    assert code == 1
    assert json.loads(out) == {
        "error": "payload.columns[0].limit must have at most 1000 characters, not 5000"
    }
    longest = "-" + "1" * 999
    code, out = run_cli(*_mon_extract({"mode": "nondecreasing", "limit": longest}))
    assert code == 0, out


def test_over_long_integers_are_refused_before_conversion():
    error = {"error": "payload integers must have at most 4300 digits, not 5000"}
    code, out = run_cli(["phi", "--ideal", "WR"], f"[[{'1' * 5000}, 0]]")
    assert (code, json.loads(out)) == (1, error)
    argv, _ = _mon_extract()
    payload = f'{{"columns": [{{"mode": "nondecreasing", "limit": {"1" * 5000}}}]}}'
    code, out = run_cli(argv, payload)
    assert (code, json.loads(out)) == (1, error)
    longest = "9" * cli.MAX_INT_DIGITS
    code, out = run_cli(["phi", "--ideal", "WR"], f"[[{longest}, 0]]")
    assert code == 0 and out == (
        '{"certificate": {"cost": 1, "parts": [{"kind": "sparse-chain", "members": '
        f'[[{longest}, 0]]}}]}}, "ideal": "WR", "phi": 1}}\n'
    )


def test_outputs_byte_identical():
    pairs = [
        (["phi", "--ideal", "EDup"], "[[0,1],[1,0],[4,4]]"),
        (["witness"], "[[0,5],[1,4],[2,3]]"),
        (["sigma", "build", "--pi", "max-rank", "--pi0", "skew-rank", "--window", "6"], ""),
    ]
    for argv, payload in pairs:
        _, out1 = run_cli(argv, payload)
        _, out2 = run_cli(argv, payload)
        assert out1 == out2


def test_file_input(tmp_path):
    path = tmp_path / "points.json"
    path.write_text("[[0,0],[1,0],[2,0]]", encoding="utf-8")
    code, out = run_cli(["phi", "--ideal", "WR", "--input", str(path)])
    assert code == 0 and json.loads(out)["phi"] == 1


def test_outputs_validate_against_schemas():
    import pathlib

    import jsonschema
    from referencing import Registry, Resource

    root = pathlib.Path(__file__).resolve().parents[1] / "schemas"
    registry = Registry()
    schemas = {}
    for path in root.glob("*.schema.json"):
        schema = json.loads(path.read_text())
        schemas[schema["$id"]] = schema
        registry = registry.with_resource(schema["$id"], Resource.from_contents(schema))

    def validator(schema_id):
        return jsonschema.Draft7Validator(schemas[schema_id], registry=registry)

    _, out = run_cli(["phi", "--ideal", "WR"], "[[0,5],[1,4],[2,3]]")
    validator("gridideals:cover-certificate").validate(json.loads(out)["certificate"])
    for extra in ([], ["--exact"], ["--ideal", "WRpi", "--rank", "max-rank"]):
        _, out = run_cli(["game", "play", "--rounds", "6", "--seed", "1", *extra])
        validator("gridideals:game-transcript").validate(json.loads(out))
    descriptor = {
        "columns": [
            {"mode": "nondecreasing", "limit": "3/2", "jmap": [1, 0]} for _ in range(20)
        ]
    }
    validator("gridideals:mon-descriptor").validate(descriptor)
    _, out = run_cli(["mon", "extract", "--target-len", "6", "--level", "2"], json.dumps(descriptor))
    validator("gridideals:mon-certificate").validate(json.loads(out))


def test_cli_agrees_with_library():
    import random

    from gridideals import phi
    from support import random_points

    rng = random.Random(99)
    for ideal in ("WR", "ED", "EDup"):
        for _ in range(10):
            pts = random_points(rng, 8, 8, 6)
            payload = json.dumps([list(p) for p in pts])
            code, out = run_cli(["phi", "--ideal", ideal], payload)
            assert code == 0
            cost, cert = phi(ideal, pts)
            doc = json.loads(out)
            assert doc["phi"] == cost
            assert doc["certificate"] == cert.to_json()


ROOT = pathlib.Path(__file__).resolve().parents[1]

# one input per subcommand
FRESH_JOBS = {
    "phi": (["phi", "--ideal", "WRpi", "--rank", "diag-rank"], "[[0,5],[1,4],[2,3]]"),
    "witness": (["witness"], "[[0,5],[1,4],[2,3]]"),
    "oracle": (["oracle", "cover", "--kinds", "vertical-line,sparse-chain"], "[[0,5],[1,4]]"),
    "map": (["map", "invert", "--name", "max-rank"], "[0,3]"),
    "game": (["game", "play", "--rounds", "5", "--seed", "3"], ""),
    "mon": _mon_extract(_mon_column(), {"mode": "nondecreasing", "limit": "1"}),
    "sigma": (["sigma", "build", "--pi", "max-rank", "--pi0", "skew-rank", "--window", "6"], ""),
}


def _fresh_process(args, stdin):
    """Run the interpreter on args; return the process and the modules it
    imported, read from the interpreter's own import log."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], input=stdin, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=path), cwd=ROOT, timeout=120,
    )
    log = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc, {line.rsplit("|", 1)[1].strip() for line in log}


def test_fresh_process_cli():
    # `python -m gridideals.cli` goes through runpy and the lazy package
    # __init__, which the in-process tests above never do
    _, startup = _fresh_process(["-c", "pass"], "")
    loaded = {}
    for name, (argv, stdin) in FRESH_JOBS.items():
        proc, imported = _fresh_process(["-m", "gridideals.cli", *argv], stdin)
        assert (proc.returncode, proc.stdout) == run_cli(argv, stdin), name
        loaded[name] = imported - startup
    for name, modules in loaded.items():
        assert "dataclasses" not in modules, name
        assert name == "mon" or "fractions" not in modules, name
    assert "fractions" in loaded["mon"] | startup
    assert not loaded["phi"] & {"gridideals.game", "gridideals.monotone", "gridideals.transfer"}


def test_package_names_follow_their_module(monkeypatch):
    # the package copies no name, so a rebinding in the submodule (as the
    # benchmark's tracer makes) shows through it
    import gridideals
    from gridideals import covering

    assert gridideals.phi is covering.phi
    monkeypatch.setattr(covering, "phi", len)
    assert gridideals.phi is len and "phi" not in vars(gridideals)
    with pytest.raises(AttributeError):
        gridideals.no_such_name
