"""The four seeded workloads: inputs, the timed op, and output checks.

A pass is the fixed list of jobs a workload draws from ``(seed, pass)``;
every pass has the same mix, so the share of each kind of op never
depends on how many passes fit into a run.  A job is one or more ops:
one ``phi`` call, one cross-checked point set, one CLI process, or the
rounds of one game.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
from checks import digest

CHECK_LIMIT = 12  # point sets this small are also solved by the oracle

ORACLE_KINDS = {
    "WR": ("vertical-line", "sparse-chain"),
    "ED": ("vertical-line", "graph"),
    "EDup": ("vertical-line", "nondecreasing-graph"),
    "WRpi": ("vertical-line", "ranked-chain"),
}


@dataclass
class Job:
    label: str
    data: tuple
    ops: int = 1
    extra: dict = field(default_factory=dict)


def _rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{k}")


def _points(rng: random.Random, n: int, box: int) -> tuple:
    pool = [(c, r) for c in range(box) for r in range(box)]
    return tuple(sorted(rng.sample(pool, n)))


def _presentation(mods, family: str, rank_name):
    if family == "WRpi":
        return mods.presentations.wr_pi(mods.gridmaps.RANK_CATALOG[rank_name])
    return {"WR": mods.presentations.WR, "ED": mods.presentations.ED,
            "EDup": mods.presentations.EDUP}[family]


def _rank(mods, rank_name):
    return mods.gridmaps.RANK_CATALOG[rank_name] if rank_name else None


class Workload:
    """Base: subclasses define jobs, run, check and reference."""

    name = ""
    # The tail percentile: the highest with ten samples beyond it at the
    # sample count of a 24-second run.  Fixed per workload, because a run
    # that fits one more pass must not move the tail to another rung.
    tail = 50.0
    # Runs of every pass; a job's time is the median of its runs.  Repeats
    # beat the machine's noise where a pass costs nearly the same for every
    # seed; where inputs drive the cost, distinct passes do more.
    sweeps = 3

    def __init__(self, seed: int, schemas: checks.Schemas, root):
        self.seed = seed
        self.schemas = schemas
        self.root = root
        self.mods = None
        self.refs = None
        self.tracer = None

    def slowness(self) -> float:
        """How much slower the machine runs now than the reference machine
        at full speed (described in README.md), by a fixed
        pure-Python kernel of tuple keys, dict updates and integer
        arithmetic, the mix the program spends its time on."""
        t0 = time.perf_counter()
        d: dict = {}
        acc = 0
        for i in range(4000):
            key = (i % 61, i % 53)
            d[key] = d.get(key, 0) + 1
            acc += (i * 7) ^ (i >> 3)
        return (time.perf_counter() - t0) / 1.2e-3

    def setup(self, mods) -> None:
        self.mods = mods
        self.jobs(0)  # input generation counts in the set-up time
        self.warm_up()

    def warm_up(self) -> None:
        for job in self.jobs(0)[:1]:
            self.run(job)

    def jobs(self, k: int) -> list[Job]:
        raise NotImplementedError

    def run(self, job: Job):
        """Returns (output, op latencies in s, serialised bytes)."""
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        """What a repeat of the same job must reproduce exactly."""
        raise NotImplementedError

    def check(self, job: Job, out) -> list[str]:
        raise NotImplementedError

    def reference(self, jobs: list[Job], outs: list) -> dict:
        raise NotImplementedError

    def layer_counts(self, job: Job, out) -> dict:
        return {}


# ---------------------------------------------------------------------------
# cover: phi with its certificate over a ladder of point counts


# (family, rank map, points, box side).  Sorted by cost the rungs fall
# into four groups: eight under 10 ms, four WRpi 10-point sets near
# 25 ms, the larger WR and EDup sets, and four WRpi 12-point sets.  The
# median and the p95 tail then sit inside the second and the last group
# rather than on the edge between two rungs, where they spread by 30 %
# from one seed to the next.
COVER_LADDER = (
    ("ED", None, 20, 12), ("ED", None, 40, 20), ("ED", None, 80, 28), ("ED", None, 160, 40),
    ("WR", None, 10, 10), ("WR", None, 14, 12), ("EDup", None, 10, 10), ("EDup", None, 16, 12),
    ("WR", None, 18, 14), ("WR", None, 20, 16), ("EDup", None, 20, 14), ("EDup", None, 24, 16),
) + tuple(("WRpi", rank, n, 8) for n in (10, 12) for rank in ("diag-rank", "max-rank") * 2)


class Cover(Workload):
    name = "cover"
    tail = 95.0
    sweeps = 1  # one set's cost spans a factor of ten between seeds

    def jobs(self, k):
        rng = _rng(self.name, self.seed, k)
        return [
            Job(f"{fam}:{rank or ''}:{n}", (fam, rank, _points(rng, n, box)))
            for fam, rank, n, box in COVER_LADDER
        ]

    def warm_up(self):
        for job in self.jobs(0)[:2]:
            self.run(job)

    def run(self, job):
        fam, rank, pts = job.data
        ideal = _presentation(self.mods, fam, rank)
        t0 = time.perf_counter()
        cost, cert = self.mods.covering.phi(ideal, pts)
        text = json.dumps(cert.to_json(), sort_keys=True)
        dt = time.perf_counter() - t0
        return (cost, text, cert), [dt], len(text)

    def fingerprint(self, out):
        return f"{out[0]}:{out[1]}"

    def check(self, job, out):
        fam, rank_name, pts = job.data
        cost, text, cert = out
        rank = _rank(self.mods, rank_name)
        errs = checks.cover_errors(fam, rank, pts, json.loads(text), cost)
        if not cert.validate(pts, rank):
            errs.append("CoverCertificate.validate rejects the certificate")
        if len(pts) <= CHECK_LIMIT:
            want = self.mods.covering.oracle_cover_cost(pts, ORACLE_KINDS[fam], rank=rank)
            if cost != want:
                errs.append(f"cost {cost}, oracle {want}")
        return [f"{job.label}: {e}" for e in errs]

    def reference(self, jobs, outs):
        return {"costs": [out[0] for out in outs]}


# ---------------------------------------------------------------------------
# crosscheck: structured cover costs against the oracle, as criterion 1


CROSS_KINDS = (
    ("sparse-chain",),
    ("vertical-line", "sparse-chain"),
    ("vertical-line", "graph"),
    ("vertical-line", "nondecreasing-graph"),
)
CROSS_SIZES = (6, 7, 8, 9, 10, 11, 12)


class Crosscheck(Workload):
    name = "crosscheck"
    tail = 90.0

    def jobs(self, k):
        rng = _rng(self.name, self.seed, k)
        return [Job(f"n{n}", (_points(rng, n, 8),)) for n in CROSS_SIZES]

    def run(self, job):
        (pts,) = job.data
        cov, pres = self.mods.covering, self.mods.presentations
        t0 = time.perf_counter()
        structured = (
            cov.sparse_chain_cover_number(pts),
            cov.phi_cost(pres.WR, pts),
            cov.phi_cost(pres.ED, pts),
            cov.phi_cost(pres.EDUP, pts),
        )
        oracle = tuple(cov.oracle_cover_cost(pts, kinds) for kinds in CROSS_KINDS)
        dt = time.perf_counter() - t0
        return (structured, oracle), [dt], len(json.dumps([structured, oracle]))

    def fingerprint(self, out):
        return repr(out)

    def check(self, job, out):
        structured, oracle = out
        if structured != oracle:
            return [f"{job.label} {job.data[0]}: structured {structured}, oracle {oracle}"]
        return []

    def reference(self, jobs, outs):
        return {"costs": [list(out[0]) for out in outs]}


# ---------------------------------------------------------------------------
# game: rounds of the blocking strategy against a seeded random opponent


# Game costs grow steeply with the round count (WRpi about fourfold from
# 20 to 28 rounds) and vary by opponent seed by a fifth or more, so many
# shorter games per run keep the run-to-run spread small.  Four cheap WR
# games make most of the rounds, which puts the median among WR rounds
# instead of where WR, exact WR and early WRpi rounds overlap.
GAME_MIX = (
    (("WR", None, 200, False),) * 4
    + (("WR", None, 50, True),) * 2
    + tuple(("WRpi", rank, 16, False) for rank in ("diag-rank", "max-rank", "skew-rank") * 3)
)


class Game(Workload):
    name = "game"
    tail = 99.0

    def jobs(self, k):
        rng = _rng(self.name, self.seed, k)
        return [
            Job(f"{fam}:{rank or ''}:{rounds}{':exact' if exact else ''}",
                (fam, rank, rounds, exact, rng.randrange(10 ** 6)), ops=rounds)
            for fam, rank, rounds, exact in GAME_MIX
        ]

    def warm_up(self):
        job = Job("warm", ("WR", None, 20, False, 1), ops=20)
        self.run(job)

    def run(self, job):
        fam, rank, rounds, exact, opp_seed = job.data
        g = self.mods.game
        ideal = _presentation(self.mods, fam, rank)
        strategy = g.blocking_strategy(exact=exact)
        marks = []

        def player_one(state):
            marks.append(time.perf_counter())
            return strategy(state)

        state = g.play(ideal, player_one, g.random_opponent(opp_seed), rounds, seed=opp_seed)
        end = time.perf_counter()
        text = json.dumps(g.transcript_json(state), sort_keys=True)
        lat = [b - a for a, b in zip(marks, marks[1:] + [end])]
        return (state, text), lat, len(text)

    def fingerprint(self, out):
        return digest(out[1])

    def check(self, job, out):
        fam, rank_name, rounds, _, _ = job.data
        state, text = out
        ideal = _presentation(self.mods, fam, rank_name)
        doc = json.loads(text)
        errs = []
        picks = [tuple(p) for p in state.picks()]
        if len(doc["rounds"]) != rounds or len(picks) != rounds:
            errs.append(f"{len(doc['rounds'])} rounds played, {rounds} asked")
        if [tuple(r["k"]) for r in doc["rounds"]] != picks:
            errs.append("transcript picks differ from the game state")
        for n, (blocked, pick) in enumerate(state.moves):
            if not self.mods.presentations.descriptor_in_ideal(ideal, blocked):
                errs.append(f"round {n}: blocked set outside the ideal")
            if blocked.contains(pick) or checks.in_descriptor(doc["rounds"][n]["X"], pick):
                errs.append(f"round {n}: pick {pick} is blocked")
        if fam == "WR":
            one_chain = checks.pairwise(checks.sparse_pair, picks)
        else:
            rank = _rank(self.mods, rank_name)
            one_chain = checks.pairwise(lambda a, b: checks.ranked_pair(rank, a, b), picks)
        if not one_chain:
            errs.append("picks are not one chain generator")
        if self.mods.covering.phi_cost(ideal, picks) != 1 or doc["verdict"].get("phi") != 1:
            errs.append("picks do not cost exactly one generator")
        # the schema walk takes seconds on a 200-round WR transcript, so it
        # sees the first, middle and last rounds; the checks above see all
        keep = sorted({0, rounds // 2, rounds - 1})
        excerpt = dict(doc, rounds=[doc["rounds"][i] for i in keep])
        errs.extend(self.schemas.errors("gridideals:game-transcript", excerpt))
        return [f"{job.label}: {e}" for e in errs]

    def reference(self, jobs, outs):
        return {"picks": [digest([list(p) for p in out[0].picks()]) for out in outs]}

    def layer_counts(self, job, out):
        state, text = out
        atoms = sum(len(x.columns) + len(x.tails) + len(x.points) for x, _ in state.moves)
        return {
            "game.rounds": state.round,
            "game.transcript.bytes": len(text),
            "presentations.descriptor_atoms": atoms,
        }


# ---------------------------------------------------------------------------
# cli: one fresh process per job, every subcommand


SIGMA_PAIRS = (("diag-rank", "diag-rank"), ("max-rank", "skew-rank"), ("offset-rank", "diag-rank"))
SIGMA_WINDOWS = (32, 48, 64)
VERIFY_MAPS = ("triangle-fold", "wedge-zigzag", "diag-rank", "skew-rank")
MON_TARGET = (8, 3)  # target length and level
MON_COLUMNS = 20


def _limit(x) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _mon_descriptor(rng: random.Random, regime: str) -> dict:
    """A CLI column family whose extraction lands in the given regime."""
    from fractions import Fraction

    cols = []
    base = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    for i in range(MON_COLUMNS):
        jmap = [rng.randint(1, 3), rng.randint(0, 2)]
        if regime == "limits-increasing":
            base += Fraction(rng.randint(1, 4), rng.choice([1, 2, 3]))
            cols.append({"mode": "nondecreasing", "limit": _limit(base), "jmap": jmap})
        elif regime == "constant-terms-constant":
            cols.append({"mode": "eventually-constant", "limit": _limit(base),
                         "threshold": rng.randint(0, 4), "jmap": jmap})
        elif regime == "constant-terms-increasing":
            cols.append({"mode": "nondecreasing", "limit": _limit(base), "jmap": jmap})
        elif regime == "limits-decreasing":
            base -= rng.randint(2, 4)
            cols.append({"mode": "nondecreasing", "limit": _limit(base), "jmap": jmap})
        else:  # nonincreasing columns, served only by the mirrored pass
            base -= rng.randint(1, 3)
            cols.append({"mode": "nonincreasing", "limit": _limit(base), "jmap": jmap})
    return {"columns": cols}


MON_REGIMES = ("limits-increasing", "constant-terms-constant", "constant-terms-increasing",
               "limits-decreasing", "limits-increasing-dual")


class Cli(Workload):
    name = "cli"
    tail = 75.0

    def __init__(self, seed, schemas, root):
        super().__init__(seed, schemas, root)
        self.inproc = False
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def warm_up(self):
        self.process(["--help"], "")

    def slowness(self):
        """By the start of an empty interpreter, 12 ms at full speed.  The
        jobs run in child processes, whose speed the parent's kernel did
        not track on the reference machine; this probe did."""
        if self.inproc:
            return super().slowness()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], check=True)
        return (time.perf_counter() - t0) / 12e-3

    def jobs(self, k):
        rng = _rng(self.name, self.seed, k)

        def pts(n, box):
            return json.dumps([list(p) for p in _points(rng, n, box)])

        level = rng.randint(3, 6)
        cols = sorted(rng.sample(range(24), level + 1))
        witness = [[c, cols[-1] - c + 1 + rng.randint(0, 4)] for c in cols]
        jobs = [
            Job("phi-WR", (["phi", "--ideal", "WR"], pts(10, 8))),
            Job("phi-EDup", (["phi", "--ideal", "EDup"], pts(10, 8))),
            Job("phi-WRpi", (["phi", "--ideal", "WRpi", "--rank", "diag-rank"], pts(9, 8))),
            Job("witness", (["witness"], json.dumps(witness))),
            Job("oracle", (["oracle", "cover", "--kinds", "vertical-line,sparse-chain"], pts(10, 8))),
            Job("map-apply", (["map", "apply", "--name", "triangle-fold"], pts(20, 30))),
            Job("map-invert", (["map", "invert", "--name", "max-rank"],
                               json.dumps(sorted(rng.sample(range(40), 10))))),
            Job("map-verify", (["map", "verify", "--name", rng.choice(VERIFY_MAPS),
                                "--window", str(rng.randint(24, 40))], "")),
            Job("game", (["game", "play", "--rounds", "40", "--seed", str(rng.randrange(10 ** 6))], "")),
        ]
        target_len, level = MON_TARGET
        for regime in MON_REGIMES:
            desc = _mon_descriptor(rng, regime)
            jobs.append(Job(f"mon-extract:{regime}", (
                ["mon", "extract", "--target-len", str(target_len), "--level", str(level)],
                json.dumps(desc)), extra={"descriptor": desc, "regime": regime}))
            jobs.append(Job(f"mon-verify:{regime}", (["mon", "verify"], None),
                            extra={"descriptor": desc}))
        windows = list(SIGMA_WINDOWS)
        rng.shuffle(windows)
        for (pi, pi0), window in zip(SIGMA_PAIRS, windows):
            jobs.append(Job(f"sigma:{pi}:{pi0}", (
                ["sigma", "build", "--pi", pi, "--pi0", pi0, "--window", str(window)], "")))
        return jobs

    def process(self, argv, stdin):
        proc = subprocess.run(
            [sys.executable, "-m", "gridideals.cli", *argv],
            input=stdin, capture_output=True, text=True, env=self.env,
            cwd=self.root, timeout=120,
        )
        return proc.returncode, proc.stdout

    def in_process(self, argv, stdin):
        out = io.StringIO()
        old_stdin = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out):
                code = self.mods.cli.main(argv)
        finally:
            sys.stdin = old_stdin
        return code, out.getvalue()

    def run(self, job):
        argv, stdin = job.data
        if stdin is None:  # mon verify reads the certificate its extract printed
            stdin = json.dumps({"descriptor": job.extra["descriptor"],
                                "certificate": json.loads(self._last_extract)})
        t0 = time.perf_counter()
        code, stdout = (self.in_process if self.inproc else self.process)(argv, stdin)
        dt = time.perf_counter() - t0
        if job.label.startswith("mon-extract"):
            self._last_extract = stdout
        return (code, stdout), [dt], len(stdout)

    def fingerprint(self, out):
        return f"{out[0]}:{digest(out[1])}"

    def check(self, job, out):
        code, stdout = out
        if code != 0:
            return [f"{job.label}: exit code {code}: {stdout[:200]}"]
        try:
            doc = json.loads(stdout)
        except ValueError:
            return [f"{job.label}: stdout is not JSON"]
        kind = job.label.split(":")[0]
        errs = getattr(self, "_check_" + kind.replace("-", "_"))(job, doc)
        return [f"{job.label}: {e}" for e in errs]

    def _check_phi_points(self, job, fam, rank_name, cert, cost):
        pts = tuple(tuple(p) for p in json.loads(job.data[1]))
        rank = _rank(self.mods, rank_name)
        errs = self.schemas.errors("gridideals:cover-certificate", cert)
        errs += checks.cover_errors(fam, rank, pts, cert, cost)
        if len(pts) <= CHECK_LIMIT:
            want = self.mods.covering.oracle_cover_cost(pts, ORACLE_KINDS[fam], rank=rank)
            if cost != want:
                errs.append(f"cost {cost}, oracle {want}")
        return errs

    def _check_phi_WR(self, job, doc):
        return self._check_phi_points(job, "WR", None, doc["certificate"], doc["phi"])

    def _check_phi_EDup(self, job, doc):
        return self._check_phi_points(job, "EDup", None, doc["certificate"], doc["phi"])

    def _check_phi_WRpi(self, job, doc):
        return self._check_phi_points(job, "WRpi", "diag-rank", doc["certificate"], doc["phi"])

    def _check_oracle(self, job, doc):
        # the oracle's answer, checked against the structured solver
        errs = self._check_phi_points(job, "WR", None, doc, doc["cost"])
        pts = tuple(tuple(p) for p in json.loads(job.data[1]))
        want = self.mods.covering.phi_cost(self.mods.presentations.WR, pts)
        if doc["cost"] != want:
            errs.append(f"oracle cost {doc['cost']}, structured {want}")
        return errs

    def _check_witness(self, job, doc):
        given = json.loads(job.data[1])
        w = doc.get("witness") or {}
        errs = self.schemas.errors("gridideals:points", w.get("points"))
        if w.get("points") != given:
            errs.append("witness points differ from the input")
        return errs + checks.witness_errors(given, w.get("level"))

    def _check_map_apply(self, job, doc):
        given = [tuple(p) for p in json.loads(job.data[1])]
        images = [tuple(q) for q in doc["points"]]
        errs = self.schemas.errors("gridideals:points", doc["points"])
        if len(set(images)) != len(given):
            errs.append("images collide")
        if [self.mods.gridmaps.triangle_unfold(q) for q in images] != given:
            errs.append("unfold does not invert the fold")
        return errs

    def _check_map_invert(self, job, doc):
        values = json.loads(job.data[1])
        errs = []
        for v, pre in zip(values, doc["preimages"]):
            pts = {tuple(p) for p in pre}
            if len(pts) != 2 * v + 1 or any(max(p) != v for p in pts):
                errs.append(f"preimages of {v} are not the max-rank level set")
        if len(doc["preimages"]) != len(values):
            errs.append("one preimage list per value expected")
        return errs

    def _check_map_verify(self, job, doc):
        return [] if doc.get("ok") is True and not doc.get("failures") else ["verification failed"]

    def _check_game(self, job, doc):
        errs = self.schemas.errors("gridideals:game-transcript", doc)
        picks = [tuple(r["k"]) for r in doc["rounds"]]
        for n, r in enumerate(doc["rounds"]):
            if checks.in_descriptor(r["X"], r["k"]):
                errs.append(f"round {n}: pick is blocked")
        if len(picks) != 40 or not checks.pairwise(checks.sparse_pair, picks):
            errs.append("picks are not one sparse chain")
        if doc["verdict"] != {"rounds": 40, "sparse_chain": True, "phi": 1}:
            errs.append(f"verdict {doc['verdict']}")
        return errs

    def _check_mon_extract(self, job, doc):
        desc = job.extra["descriptor"]
        target_len, level = MON_TARGET
        errs = self.schemas.errors("gridideals:mon-descriptor", desc)
        errs += self.schemas.errors("gridideals:mon-certificate", doc)
        idx, pts = doc["indices"], [tuple(p) for p in doc["points"]]
        if len(idx) != target_len or any(b <= a for a, b in zip(idx, idx[1:])):
            errs.append("indices are not strictly increasing of the target length")
        if [self.mods.gridmaps.wedge_zigzag_point(i) for i in idx] != pts:
            errs.append("indices do not enumerate the points")
        if doc["case"] != job.extra["regime"]:
            errs.append(f"case {doc['case']}, expected {job.extra['regime']}")
        if sorted(w["level"] for w in doc["witnesses"]) != list(range(level + 1)):
            errs.append("witness levels are not 0..level")
        for w in doc["witnesses"]:
            errs += checks.witness_errors(w["points"], w["level"])
        return errs

    def _check_mon_verify(self, job, doc):
        return [] if doc == {"ok": True, "reasons": []} else [f"verify says {doc}"]

    def _check_sigma(self, job, doc):
        argv = job.data[0]
        pi, pi0, window = argv[3], argv[5], int(argv[7])
        edges, table = doc["edges"], [(tuple(p), tuple(q)) for p, q in doc["table"]]
        errs = []
        if edges[0] != 1 or any(b < a for a, b in zip(edges, edges[1:])) or doc["col_bound"] < window:
            errs.append(f"strip edges {edges[:6]}... do not grow to the window")
        if len({q for _, q in table}) != len(table):
            errs.append("transfer is not injective on the table")
        want = [(c, r) for c in range(min(window, doc["col_bound"])) for r in range(window)]
        if [p for p, _ in table] != want:
            errs.append("table does not list the window")
        tr = self.mods.transfer
        catalog = self.mods.gridmaps.RANK_CATALOG
        built = tr.build_chain_transfer(catalog[pi], catalog[pi0], window)
        if list(built.m) != edges:
            errs.append("CLI strip edges differ from the library's")
        chains = _sample_chains(built, [q for _, q in table], random.Random(digest(doc)))
        with _traced(self.tracer):
            if any(built.invert(q) != p for p, q in table):
                errs.append("invert does not undo apply")
            if not all(tr.verify_preimage_decomposition(built, ch).ok for ch in chains):
                errs.append("a sampled chain does not decompose into three")
        return errs

    def reference(self, jobs, outs):
        ref = {}
        for job, (code, stdout) in zip(jobs, outs):
            if job.label == "game":  # the transcript encoding may change; picks may not
                ref[job.label] = digest([r["k"] for r in json.loads(stdout)["rounds"]])
            elif job.label.startswith("sigma"):
                ref[job.label] = {"edges": json.loads(stdout)["edges"], "stdout": digest(stdout)}
            else:
                ref[job.label] = digest(stdout)
        return ref


def _sample_chains(built, images, rng, count=10, max_len=8):
    """Source chain generators inside the table's images, drawn as in
    criterion 6 but from one shared pool."""
    pi = built.pi
    pool = sorted(set(images), key=lambda q: (pi(q), q))
    chains = []
    for _ in range(count):
        chain = [rng.choice(pool[: max(4, len(pool) // 8)])]
        while len(chain) < max_len:
            prev = chain[-1]
            prev_rank = pi(prev)
            admissible = sorted(
                q for q in pool if q[0] > prev[0] and q[0] >= prev_rank and pi(q) > prev_rank
            )
            if not admissible:
                break
            chain.append(rng.choice(admissible[:6]))
        chains.append(tuple(chain))
    return chains


@contextlib.contextmanager
def _traced(tracer):
    """Trace the transfer checks too: no CLI command reaches invert or
    the decomposition, so the traced replay times them here."""
    if tracer is None:
        yield
        return
    tracer.active = True
    try:
        with tracer.span("check.sigma"):
            yield
    finally:
        tracer.active = False


WORKLOADS = {w.name: w for w in (Cover, Crosscheck, Game, Cli)}
