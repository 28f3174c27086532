"""Spans and counters recorded around calls into gridideals.

Nothing here touches the program's files: the tracer wraps the public
functions of each module from the outside, replacing every binding of a
function wherever a caller looks it up (``game`` imports ``phi_cost`` and
``pick_outside`` by name, ``covering`` imports ``canonical_points``, and so
on), and restores the originals afterwards.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import Counter, defaultdict

MAX_SPANS = 100_000


class Tracer:
    """Single-threaded span stack with per-name call counts and self time.

    A span's self time is its duration minus the time its child spans
    cover.  On one thread children nest strictly inside their parent and
    never overlap each other, so that coverage is the sum of the
    children's durations.  Wrappers pass straight through while the tracer
    is inactive, so checks made between ops are not traced.
    """

    def __init__(self, clock=time.perf_counter, max_spans: int = MAX_SPANS):
        self.clock = clock
        self.max_spans = max_spans
        self.active = False
        self.op_id = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        name, start, covered, span_id = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][3]
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, name, start, end, parent, self.op_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def write(self, path, meta: dict) -> None:
        """Spans as JSON lines after one header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta, "dropped_spans": self.dropped}) + "\n")
            for span_id, name, start, end, parent, op in self.spans:
                fh.write(json.dumps([span_id, name, start, end, parent, op]) + "\n")


def timed(tracer: Tracer, name: str, fn, after=None):
    """Wrap fn in a span; after(tracer, args, result) may add counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(tracer, args, result)
        return result

    return wrapper


def counted(tracer: Tracer, name: str, fn):
    """Count calls without a span, for functions called millions of times."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    """Rebinds names in loaded gridideals modules and undoes it."""

    def __init__(self, package: str = "gridideals"):
        self.package = package
        self._undo: list[tuple] = []

    def _modules(self):
        prefix = self.package + "."
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(prefix))
        ]

    def function(self, module, attr: str, make_wrapper) -> bool:
        """Replace module.attr and every other binding of the same object
        in the package's modules.  False when the name does not exist."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = make_wrapper(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
        return True

    def method(self, cls, attr: str, make_wrapper) -> bool:
        """Replace a method or static method on its class."""
        raw = cls.__dict__.get(attr)
        if raw is None:
            return False
        if isinstance(raw, staticmethod):
            new = staticmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, new)
        return True

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _count_masks(tracer, args, result):
    points = args[0]
    tracer.counts["covering.oracle.masks"] += 1 << len(set(points))


def _count_preimage_points(tracer, args, result):
    tracer.counts["gridmaps.preimages.points"] += len(result)


def _count_stages(tracer, args, result):
    tracer.counts["transfer.build.stages"] += len(result.m)


def _count_dual(tracer, args, result):
    if result.case.endswith("-dual"):
        tracer.counts["monotone.extract.dual"] += 1


def _wrap_factory(tracer, name):
    """Wrap a factory so that the callables it returns are traced."""

    def make(factory):
        @functools.wraps(factory)
        def build(*args, **kwargs):
            return timed(tracer, name, factory(*args, **kwargs))

        return build

    return make


def install(tracer: Tracer, mods) -> Patcher:
    """Wrap the layer boundaries the per-module metrics are taken at.

    mods holds the loaded gridideals modules as attributes.  Names that
    a later version of the program no longer has are skipped.
    """
    p = Patcher()
    cov, grid, pres, gmaps = mods.covering, mods.grid, mods.presentations, mods.gridmaps
    game, tr, mono = mods.game, mods.transfer, mods.monotone

    def t(name, after=None):
        return lambda fn: timed(tracer, name, fn, after)

    def c(name):
        return lambda fn: counted(tracer, name, fn)

    p.function(cov, "phi", t("covering.phi"))
    # the per-family chain count of the points left off the chosen lines:
    # one call per line subset tried
    for attr in ("sparse_chain_cover_number", "_nondecreasing_chain_count", "_ranked_chain_count"):
        p.function(cov, attr, c("covering.chain_count"))
    for attr in ("oracle_cover_cost", "brute_force_cover"):
        p.function(cov, attr, t("covering.oracle", _count_masks))
    for attr in ("is_sparse_chain", "is_ranked_chain"):
        p.function(grid, attr, t("grid.chain_predicate"))
    p.method(pres.SetDescriptor, "build", t("presentations.build"))
    p.method(pres.SetDescriptor, "contains", t("presentations.contains"))
    p.function(pres, "descriptor_in_ideal", t("presentations.in_ideal"))
    p.function(pres, "pick_outside", t("presentations.pick_outside"))
    p.method(gmaps.RankMap, "preimages", t("gridmaps.preimages", _count_preimage_points))
    p.method(gmaps.RankMap, "__call__", c("gridmaps.rank.calls"))
    p.function(game, "blocking_strategy", _wrap_factory(tracer, "game.strategy"))
    p.function(game, "random_opponent", _wrap_factory(tracer, "game.opponent"))
    p.function(game, "transcript_json", t("game.transcript"))
    p.function(tr, "build_chain_transfer", t("transfer.build", _count_stages))
    p.method(tr.ChainTransfer, "apply", t("transfer.apply"))
    p.method(tr.ChainTransfer, "invert", t("transfer.invert"))
    p.function(tr, "verify_preimage_decomposition", t("transfer.decompose"))
    p.function(mono, "extract_mon", t("monotone.extract", _count_dual))
    p.function(mono, "verify_certificate", t("monotone.verify"))
    return p
