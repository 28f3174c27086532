"""Seeded closed-loop benchmark of gridideals.

    python3 perfbench/run.py --workload cover --seed 1409 --seconds 24 --trace 0

One client, no threads: each op starts when the previous one has ended,
and the cli workload runs its processes one at a time.  Human-readable
lines come first; the last line of stdout is one JSON object.  With
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-module metrics.  Without ``--workload`` every workload runs in its
own process.  The exit code is 1 when any output fails its check, and 2
when the program is not there to measure.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
import types

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1409
SETUPS = 9  # spread evenly over the sweeps
REFERENCE = HERE / "reference.json"
TRACE_DIR = ROOT / ".perfbench"
MODULES = ("covering", "grid", "presentations", "gridmaps", "game", "transfer", "monotone", "cli")
# tail percentiles in per mille, highest first
TAIL_LADDER = (999, 990, 950, 900, 750, 500)

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"), ("output_bytes", "bytes"),
)

# name, unit, where the value comes from: tracer calls, self time or
# counts per pass, or a value the runner works out itself
PER_LAYER = (
    ("covering.phi.calls", "count/pass", "calls", "covering.phi"),
    ("covering.phi.self_s", "s/pass", "self", "covering.phi"),
    ("covering.chain_count.calls", "count/pass", "count", "covering.chain_count"),
    ("covering.oracle.calls", "count/pass", "calls", "covering.oracle"),
    ("covering.oracle.self_s", "s/pass", "self", "covering.oracle"),
    ("covering.oracle.masks", "count/pass", "count", "covering.oracle.masks"),
    ("grid.chain_predicate.calls", "count/pass", "calls", "grid.chain_predicate"),
    ("grid.chain_predicate.self_s", "s/pass", "self", "grid.chain_predicate"),
    ("presentations.build.calls", "count/pass", "calls", "presentations.build"),
    ("presentations.build.self_s", "s/pass", "self", "presentations.build"),
    ("presentations.contains.calls", "count/pass", "calls", "presentations.contains"),
    ("presentations.contains.self_s", "s/pass", "self", "presentations.contains"),
    ("presentations.in_ideal.self_s", "s/pass", "self", "presentations.in_ideal"),
    ("presentations.pick_outside.self_s", "s/pass", "self", "presentations.pick_outside"),
    ("presentations.descriptor_atoms", "count/pass", "count", "presentations.descriptor_atoms"),
    ("gridmaps.preimages.calls", "count/pass", "calls", "gridmaps.preimages"),
    ("gridmaps.preimages.points", "count/pass", "count", "gridmaps.preimages.points"),
    ("gridmaps.preimages.self_s", "s/pass", "self", "gridmaps.preimages"),
    ("gridmaps.rank.calls", "count/pass", "count", "gridmaps.rank.calls"),
    ("game.strategy.self_s", "s/pass", "self", "game.strategy"),
    ("game.opponent.self_s", "s/pass", "self", "game.opponent"),
    ("game.transcript.self_s", "s/pass", "self", "game.transcript"),
    ("game.transcript.bytes", "bytes/pass", "count", "game.transcript.bytes"),
    ("game.rounds", "count/pass", "count", "game.rounds"),
    ("transfer.build.self_s", "s/pass", "self", "transfer.build"),
    ("transfer.build.stages", "count/pass", "count", "transfer.build.stages"),
    ("transfer.apply.calls", "count/pass", "calls", "transfer.apply"),
    ("transfer.apply.self_s", "s/pass", "self", "transfer.apply"),
    ("transfer.invert.calls", "count/pass", "calls", "transfer.invert"),
    ("transfer.invert.self_s", "s/pass", "self", "transfer.invert"),
    ("transfer.decompose.self_s", "s/pass", "self", "transfer.decompose"),
    ("monotone.extract.calls", "count/pass", "calls", "monotone.extract"),
    ("monotone.extract.self_s", "s/pass", "self", "monotone.extract"),
    ("monotone.verify.self_s", "s/pass", "self", "monotone.verify"),
    ("monotone.extract.dual_share", "ratio", "runner", None),
    ("cli.startup_ms", "ms", "runner", None),
    ("cli.inproc_ms", "ms", "runner", None),
    ("cli.stdout_bytes", "bytes/pass", "runner", None),
    ("trace.slowdown", "ratio", "runner", None),
)


def tail_percentile(n: int, cap: float = 100.0) -> float:
    """Highest ladder percentile up to cap with at least ten samples
    beyond it."""
    for q in TAIL_LADDER:
        if q / 10 <= cap and n - -(-q * n // 1000) >= 10:
            return q / 10
    return TAIL_LADDER[-1] / 10


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = -(-int(round(q * 10)) * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def import_program():
    """A fresh import of every gridideals module, from bytecode."""
    for name in [n for n in sys.modules if n == "gridideals" or n.startswith("gridideals.")]:
        del sys.modules[name]
    importlib.import_module("gridideals")
    return types.SimpleNamespace(
        **{m: importlib.import_module("gridideals." + m) for m in MODULES}
    )


class Phase:
    """What one sequence of passes measured.

    Every pass runs once per sweep.  Times are scaled to the reference
    machine speed: the workload's probe (Workload.slowness) runs between
    jobs, and a job's times are divided by the mean slowness just before
    and just after it.  A job's time is the median of its scaled runs,
    and so is each op's latency.  The reference machine's CPU speed
    (README.md) swings by up to a factor of two over seconds to minutes;
    scaling follows the swings, and the median drops a run whose probe
    and job saw different speeds.
    """

    def __init__(self):
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.counts: dict = {}
        self.output_bytes = 0
        # (pass, job) -> one (scaled job time, scaled op latencies, job
        # wall time) per sweep
        self.runs: dict = {}

    def _median(self, i):
        return [statistics.median(r[i] for r in runs) for runs in self.runs.values()]

    @property
    def latencies(self) -> list[float]:
        return [statistics.median(ts) for runs in self.runs.values()
                for ts in zip(*(r[1] for r in runs))]

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self._median(0))

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.latencies) / sum(self._median(2))


def measure(wl, seconds=None, passes=None, sweeps=1, tracer=None, before_sweep=None) -> Phase:
    """The first sweep runs whole passes until its timed work reaches
    seconds / sweeps (at least one pass), or exactly `passes` passes, and
    checks every output; later sweeps repeat those passes and must
    reproduce every output exactly."""
    ph = Phase()
    seen: dict = {}
    for sweep in range(sweeps):
        if before_sweep is not None:
            before_sweep()
        k, timed = 0, 0.0
        probe = wl.slowness()
        while (k < passes) if passes is not None else (k == 0 or timed < seconds / sweeps):
            jobs = wl.jobs(k)
            outs = []
            for j, job in enumerate(jobs):
                key = (k, j)
                if sweep and key not in seen:
                    continue  # it raised on the first sweep
                if tracer is not None:
                    tracer.op_id = f"{k}.{j}"
                    tracer.active = True
                    tracer.enter("op")
                t0 = time.perf_counter()
                try:
                    out, lat, nbytes = wl.run(job)
                except Exception as exc:  # an op that raises is counted, not fatal
                    out = exc
                finally:
                    wall = time.perf_counter() - t0
                    if tracer is not None:
                        tracer.exit()
                        tracer.active = False
                after = wl.slowness()
                scale = 2 / (probe + after)
                probe = after
                timed += wall
                ph.attempted += job.ops
                if isinstance(out, Exception):
                    ph.failed += job.ops
                    ph.errors.append(f"{wl.name} {job.label}: raised {type(out).__name__}: {out}")
                    outs.append(None)
                    continue
                lat = [t * scale for t in lat]
                ph.runs.setdefault(key, []).append((wall * scale, lat, wall))
                if sweep:
                    if wl.fingerprint(out) != seen[key]:
                        ph.errors.append(f"{wl.name} {job.label}: output changed on a repeat")
                    continue
                seen[key] = wl.fingerprint(out)
                ph.output_bytes += nbytes
                for name, v in wl.layer_counts(job, out).items():
                    ph.counts[name] = ph.counts.get(name, 0) + v
                ph.errors.extend(wl.check(job, out))
                outs.append(out)
            if sweep == 0 and k == 0 and wl.refs is not None and None not in outs:
                if wl.reference(jobs, outs) != wl.refs:
                    ph.errors.append(f"{wl.name}: pass 0 differs from the recorded reference")
            k += 1
        passes = k
    ph.passes = passes
    return ph


def setup_once(wl) -> float:
    """Import, reference loading, input generation and warm-up; the time
    is scaled like a job's."""
    before = wl.slowness()
    t0 = time.perf_counter()
    mods = import_program()
    recorded = json.loads(REFERENCE.read_text(encoding="utf-8"))
    wl.refs = recorded.get(wl.name) if wl.seed == recorded["provenance"]["seed"] else None
    wl.schemas = checks.Schemas(ROOT / "schemas")
    wl.setup(mods)
    wall = time.perf_counter() - t0
    return wall * 2 / (before + wl.slowness())


def end_to_end(wl, setup_times: list, ph: Phase) -> dict:
    lat = ph.latencies
    q = tail_percentile(len(lat), wl.tail)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ph.ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": percentile(lat, q) * 1e3,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "output_bytes": ph.output_bytes / ph.passes,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{len(lat)} ops, {ph.passes} passes, runs per job: {wl.sweeps}; "
                     f"{ph.raw_ops_per_s:.6g} unscaled",
        "op_p50_ms": f"n={len(lat)}",
        "op_tail_ms": f"p{q:g}, n={len(lat)}",
        "peak_rss_mb": "largest CLI process" if wl.name == "cli" else "benchmark process",
        "output_bytes": "per pass",
    }
    for name, unit in END_TO_END:
        print(f"{wl.name:<10} {name:<14} {values[name]:>14.6g} {unit:<6} ({notes[name]})")
    frac = ph.failed / ph.attempted if ph.attempted else 0.0
    print(f"{wl.name:<10} {'failed_frac':<14} {frac:>14.6g} {'ratio':<6} "
          f"({ph.failed}/{ph.attempted} raised)")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(wl, untraced: Phase, traced: Phase, tracer, extra: dict) -> dict:
    p = traced.passes
    extract = tracer.calls["monotone.extract"]
    runner = dict(extra)
    runner["monotone.extract.dual_share"] = (
        tracer.counts["monotone.extract.dual"] / extract if extract else 0.0
    )
    runner["trace.slowdown"] = untraced.ops_per_s / traced.ops_per_s
    counts = dict(tracer.counts)
    for key, v in traced.counts.items():
        counts[key] = counts.get(key, 0) + v
    out = {}
    for name, unit, source, key in PER_LAYER:
        if source == "calls":
            value = tracer.calls[key] / p
        elif source == "self":
            value = tracer.self_s[key] / p
        elif source == "count":
            value = counts.get(key, 0) / p
        else:
            value = runner.get(name, 0.0)
        out[name] = {"value": value, "unit": unit}
        print(f"{wl.name:<10} {name:<36} {value:>14.6g} {unit}")
    print(f"{wl.name:<10} tracing overhead: {traced.ops_per_s:.6g} ops/s traced against "
          f"{untraced.ops_per_s:.6g} untraced")
    return out


def cli_extras(wl, untraced: Phase):
    """Process start, in-process time of the same jobs, stdout bytes."""
    starts = []
    for _ in range(5):
        t0 = time.perf_counter()
        wl.process(["--help"], "")
        starts.append(time.perf_counter() - t0)
    wl.inproc = True
    inproc = measure(wl, passes=untraced.passes)
    return {
        "cli.startup_ms": statistics.median(starts) * 1e3,
        "cli.inproc_ms": statistics.median(inproc.latencies) * 1e3,
        "cli.stdout_bytes": untraced.output_bytes / untraced.passes,
    }, inproc


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = environment()
    print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r} "
          f"workload={name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    wl = WORKLOADS[name](seed, None, ROOT)
    setup_times: list[float] = []

    def set_up():
        # spread over the run, like the sweeps, so one slow spell of the
        # machine does not decide the median
        setup_times.extend(setup_once(wl) for _ in range(SETUPS // wl.sweeps))

    if not trace:
        ph = measure(wl, seconds=seconds, sweeps=wl.sweeps, before_sweep=set_up)
        metrics = end_to_end(wl, setup_times, ph)
        phases = [ph]
    else:
        untraced = measure(wl, seconds=seconds / 2, before_sweep=set_up)
        extra, phases = {}, [untraced]
        if name == "cli":
            extra, untraced = cli_extras(wl, untraced)  # the traced replay runs in process
            phases.append(untraced)
        tracer = tracing.Tracer()
        patcher = tracing.install(tracer, wl.mods)
        wl.tracer = tracer
        try:
            traced = measure(wl, passes=untraced.passes, tracer=tracer)
        finally:
            patcher.undo()
            wl.tracer = None
        phases.append(traced)
        metrics = per_layer(wl, untraced, traced, tracer, extra)
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.write(TRACE_DIR / f"trace-{name}-{seed}.jsonl",
                     dict(env, workload=name, seed=seed, passes=traced.passes))
    errors = [e for ph in phases for e in ph.errors]
    for e in errors[:20]:
        print("CHECK FAILED", e)
    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so memory and imports are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        summary["correct"] &= result["correct"] and proc.returncode == 0
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def record() -> int:
    """Write reference.json from pass 0 of the default seed."""
    sys.path.insert(0, str(ROOT / "src"))
    src = sorted((ROOT / "src" / "gridideals").glob("*.py"))
    refs = {"provenance": {
        "seed": DEFAULT_SEED,
        "program_sha256": checks.digest({p.name: p.read_text(encoding="utf-8") for p in src}),
        "recorded_with": "python3 perfbench/run.py --record",
        "environment": environment(),
    }}
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED, checks.Schemas(ROOT / "schemas"), ROOT)
        wl.setup(import_program())
        jobs = wl.jobs(0)
        outs = []
        for job in jobs:
            out = wl.run(job)[0]
            errors = wl.check(job, out)
            if errors:
                print("\n".join(errors), file=sys.stderr)
                return 1
            outs.append(out)
        refs[name] = wl.reference(jobs, outs)
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gridideals" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'gridideals'} is missing", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
