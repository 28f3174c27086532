import contextlib
import io
import json
import sys

import pytest

from gridideals import cli, game, transfer


def run_cli(argv, stdin=""):
    out = io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue()


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


def _mon_column(**fields):
    return {"mode": "eventually-constant", "limit": "2", "threshold": 2, **fields}


def _mon_extract(*columns):
    return ["mon", "extract", "--target-len", "2"], json.dumps({"columns": list(columns)})


def _mon_verify(**certificate):
    cert = {"indices": [0], "points": [[0, 0]], "direction": "increasing", "witnesses": []}
    payload = {"descriptor": {"columns": [_mon_column()]}, "certificate": {**cert, **certificate}}
    return ["mon", "verify"], json.dumps(payload)


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
    ],
    ids=["verify-array", "jmap-str", "jmap-float", "jmap-negative", "threshold-array",
         "column-int", "cert-points-int"],
)
def test_malformed_mon_input_rejected(argv, payload):
    code, out = run_cli(argv, payload)
    assert code == 1 and "error" in json.loads(out)


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
