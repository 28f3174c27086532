"""Tests of the benchmark itself: the percentile rule, self time, name
patching, and that its output checks fail a wrong program.

    python3 -m pytest perfbench/tests -q
"""

import bisect
import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

HERE = pathlib.Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402


# ---------------------------------------------------------------------------
# the tail percentile


@pytest.mark.parametrize(
    "n, q",
    [(5, 50), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90), (199, 90),
     (200, 95), (999, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_ladder(n, q):
    assert run.tail_percentile(n) == q


def test_tail_percentile_cap():
    assert run.tail_percentile(270, cap=90) == 90
    assert run.tail_percentile(60, cap=90) == 75


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in list(range(20, 1200)) + list(range(1200, 20000, 97)):
        q = run.tail_percentile(n)
        samples = range(n)
        beyond = n - bisect.bisect_right(samples, run.percentile(samples, q))
        assert beyond >= 10
        higher = [p / 10 for p in run.TAIL_LADDER if p / 10 > q]
        if higher:
            cut = run.percentile(samples, min(higher))
            assert n - bisect.bisect_right(samples, cut) < 10


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 90) == 90
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 99.9) == 100
    assert run.percentile([7.0], 50) == 7.0


# ---------------------------------------------------------------------------
# self time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _spans(tracer, script):
    """script: ('enter', name, t) / ('exit', t) steps on a fake clock."""
    for step in script:
        tracer.clock.now = step[-1]
        if step[0] == "enter":
            tracer.enter(step[1])
        else:
            tracer.exit()


def test_self_time_nested_spans():
    t = tracing.Tracer(clock=FakeClock())
    _spans(t, [("enter", "a", 0), ("enter", "b", 1), ("enter", "c", 2),
               ("exit", 3), ("exit", 6), ("exit", 10)])
    assert t.self_s == {"a": 5, "b": 4, "c": 1}
    assert dict(t.calls) == {"a": 1, "b": 1, "c": 1}
    by_name = {s[1]: s for s in t.spans}
    assert by_name["a"][4] is None
    assert by_name["b"][4] == by_name["a"][0]
    assert by_name["c"][4] == by_name["b"][0]


def test_self_time_back_to_back_spans():
    t = tracing.Tracer(clock=FakeClock())
    _spans(t, [("enter", "a", 0), ("enter", "b", 1), ("exit", 3), ("enter", "b", 3),
               ("exit", 7), ("enter", "c", 8), ("exit", 9), ("exit", 10)])
    assert t.self_s == {"a": 3, "b": 6, "c": 1}
    assert t.calls["b"] == 2
    # sibling spans share their parent
    parents = {s[4] for s in t.spans if s[1] != "a"}
    assert parents == {next(s[0] for s in t.spans if s[1] == "a")}


def test_inactive_tracer_records_nothing():
    t = tracing.Tracer()
    f = tracing.timed(t, "f", lambda x: x + 1)
    g = tracing.counted(t, "g", lambda x: x * 2)
    assert f(1) == 2 and g(2) == 4
    assert not t.calls and not t.counts
    t.active = True
    f(1), g(2)
    assert t.calls["f"] == 1 and t.counts["g"] == 1


def test_span_cap_keeps_totals():
    t = tracing.Tracer(clock=FakeClock(), max_spans=2)
    for i in range(5):
        _spans(t, [("enter", "x", 2 * i), ("exit", 2 * i + 1)])
    assert len(t.spans) == 2 and t.dropped == 3
    assert t.calls["x"] == 5 and t.self_s["x"] == 5


# ---------------------------------------------------------------------------
# patching where the caller looks a name up


def test_patcher_rebinds_every_binding_and_undoes(monkeypatch):
    def original(x):
        return x

    pkg = types.ModuleType("fakepkg")
    pkg.original = original
    sub = types.ModuleType("fakepkg.user")
    sub.alias = original  # bound at import under another name
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.user", sub)
    t = tracing.Tracer()
    t.active = True
    p = tracing.Patcher("fakepkg")
    assert p.function(pkg, "original", lambda fn: tracing.timed(t, "orig", fn))
    assert not p.function(pkg, "missing", lambda fn: fn)
    pkg.original(1)
    sub.alias(2)
    assert t.calls["orig"] == 2
    p.undo()
    assert pkg.original is original and sub.alias is original


def test_patcher_keeps_static_methods_static():
    class Box:
        @staticmethod
        def make(x):
            return [x]

    t = tracing.Tracer()
    t.active = True
    p = tracing.Patcher("fakepkg")
    p.method(Box, "make", lambda fn: tracing.timed(t, "make", fn))
    assert Box.make(3) == [3] and Box().make(4) == [4]
    assert t.calls["make"] == 2
    p.undo()
    assert isinstance(Box.__dict__["make"], staticmethod)


# ---------------------------------------------------------------------------
# the declared metrics are the ones the runner prints


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER
    ]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


# ---------------------------------------------------------------------------
# the command in a copied checkout: it passes on the program as it is and
# fails on a program whose certificates are wrong

WRONG_COST = '''
_unmutated_phi = phi


def phi(ideal, points):
    cost, cert = _unmutated_phi(ideal, points)
    return cost + 1, cert
'''

MISSING_POINT = '''
_unmutated_phi = phi


def phi(ideal, points):
    cost, cert = _unmutated_phi(ideal, points)
    first = cert.parts[0]
    parts = (CoverPart(first.kind, first.members[1:]),) + cert.parts[1:]
    return cost, CoverCertificate(parts)
'''


def _checkout(tmp_path, with_program=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_program:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        shutil.copytree(ROOT / "schemas", tmp_path / "schemas")
    return tmp_path


def _run(checkout, *args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cover", "--seconds", "1", *args],
        cwd=checkout, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None), proc.stdout


@pytest.mark.parametrize("seed", ["1409", "2"])
def test_unmodified_program_passes(tmp_path, seed):
    code, result, out = _run(_checkout(tmp_path), "--seed", seed)
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


@pytest.mark.parametrize("mutation", [WRONG_COST, MISSING_POINT], ids=["wrong-cost", "missing-point"])
def test_wrong_certificates_fail_the_run(tmp_path, mutation):
    checkout = _checkout(tmp_path)
    covering = checkout / "src" / "gridideals" / "covering.py"
    covering.write_text(covering.read_text() + mutation)
    code, result, out = _run(checkout, "--seed", "2")
    assert code == 1, out
    assert result["correct"] is False
    assert "CHECK FAILED" in out


def test_no_program_no_result(tmp_path):
    code, result, out = _run(_checkout(tmp_path, with_program=False))
    assert code == 2
    assert result is None
