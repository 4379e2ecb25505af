"""Span recorder for the traced benchmark pass, installed from outside ptnls.

``Recorder.installed()`` replaces each traced name in the module that looks
it up at call time (``ptnls.simulator.step``, ``ptnls.criteria.M_function``
and so on) with a wrapper that records a span, and restores every original
on exit.  A name that no longer exists is skipped and reports zero calls, so
its time shows up as its caller's self time.

Spans are kept in memory: name, start, end, parent span and job id, with
parent stacks kept per thread.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "child_s")

    def __init__(self, name, parent, job):
        self.name = name
        self.parent = parent
        self.job = job
        self.child_s = 0.0


def _step_state(args, kwargs):
    return args[0] if args else kwargs["state"]


def _solve_bytes(args, kwargs, result):
    """Bytes of the banded matrix, right-hand side and solution: computed
    from the array sizes, not measured."""
    ab = args[1] if len(args) > 1 else kwargs["ab"]
    b = args[2] if len(args) > 2 else kwargs["b"]
    return ab.nbytes + b.nbytes + result.nbytes


# (module, attribute, span name).  Each attribute is wrapped in the module
# whose code looks it up, so calls made inside ptnls are seen.
TARGETS = (
    ("ptnls.criteria", "check_theorem1", "criteria.check_theorem1"),
    ("ptnls.criteria", "check_theorem2", "criteria.check_theorem2"),
    ("ptnls.criteria", "check_manakov_theorem", "criteria.check_manakov_theorem"),
    ("ptnls.criteria", "lemma1_threshold", "criteria.lemma"),
    ("ptnls.criteria", "lemma2_threshold", "criteria.lemma"),
    ("ptnls.criteria", "manakov_invariants", "criteria.manakov_invariants"),
    ("ptnls.criteria", "F_function", "criteria.F_function"),
    ("ptnls.criteria", "G_function", "criteria.G_function"),
    ("ptnls.criteria", "M_function", "criteria.M_function"),
    ("ptnls.simulator", "run", "simulator.run"),
    ("ptnls.cli", "run", "simulator.run"),
    ("ptnls.simulator", "convergence_check", "simulator.convergence_check"),
    ("ptnls.cli", "convergence_check", "simulator.convergence_check"),
    ("ptnls.simulator", "step", "simulator.step"),
    ("ptnls.simulator", "solve_banded", "simulator.solve"),
    ("ptnls.simulator", "grid_functionals", "functionals.grid_functionals"),
    ("ptnls.simulator", "evaluate_ic", "model.evaluate_ic"),
    ("ptnls.functionals", "gaussian_moments", "functionals.gaussian_moments"),
    ("ptnls.cli", "gaussian_moments", "functionals.gaussian_moments"),
    ("ptnls.cli", "parse_config", "cli.parse_config"),
    ("ptnls.cli", "write_trace", "cli.write_trace"),
)


class Recorder:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.job = None
        self.missing = []
        self._local = threading.local()
        self._last_step_t = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.job)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.end - span.start
            self.spans.append(span)

    def _before_step(self, span, args, kwargs):
        # A step retried from the same t means the previous call was rejected.
        t = _step_state(args, kwargs).t
        key = id(span.parent)
        if self._last_step_t.get(key) == t:
            self.counters["simulator.step.rejected"] += 1
        self._last_step_t[key] = t

    def _after_solve(self, args, kwargs, result):
        self.counters["simulator.solve.bytes_computed"] += _solve_bytes(
            args, kwargs, result)

    def wrap(self, name, fn):
        before = self._before_step if name == "simulator.step" else None
        after = self._after_solve if name == "simulator.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                if before is not None:
                    before(span, args, kwargs)
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attr, name in TARGETS:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if not hasattr(module, attr):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = getattr(module, attr)
                originals.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
            for module, attr, original in originals:
                if getattr(module, attr) is not original:
                    raise RuntimeError(f"{module.__name__}.{attr} not restored")

    def totals(self) -> dict:
        """name -> [calls, busy_s, self_s]."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for s in self.spans:
            d = s.end - s.start
            entry = out[s.name]
            entry[0] += 1
            entry[1] += d
            entry[2] += d - s.child_s
        return dict(out)

    def write(self, path: Path):
        """One CSV row per span, in the order spans ended."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,job\n")
            for i, s in enumerate(self.spans):
                parent = ids[id(s.parent)] if s.parent is not None else ""
                job = "" if s.job is None else s.job
                fh.write(f"{i},{s.name},{s.start:.9f},{s.end:.9f},{parent},{job}\n")


def layer_metrics(rec: Recorder) -> dict:
    """The per-layer metrics; a name with no spans reports zero."""
    tot = rec.totals()

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    m = {}
    for name in ("criteria.check_theorem1", "simulator.run", "simulator.step"):
        m[f"{name}.self_s"] = tot.get(name, (0, 0.0, 0.0))[2]
    for name in ("criteria.check_theorem1", "simulator.run", "simulator.step",
                 "criteria.M_function", "criteria.check_theorem2",
                 "criteria.check_manakov_theorem", "simulator.solve",
                 "functionals.grid_functionals", "functionals.gaussian_moments",
                 "model.evaluate_ic", "cli.write_trace"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.busy_s"] = busy(name)
    for name in ("criteria.F_function", "criteria.G_function"):
        m[f"{name}.calls"] = calls(name)
    for name in ("criteria.lemma", "simulator.convergence_check",
                 "cli.parse_config"):
        m[f"{name}.busy_s"] = busy(name)
    steps = calls("simulator.step")
    rejected = int(rec.counters["simulator.step.rejected"])
    m["simulator.step.rejected"] = rejected
    m["simulator.step.accept_ratio"] = (steps - rejected) / steps if steps else 0.0
    m["simulator.solve.bytes_computed"] = int(
        rec.counters["simulator.solve.bytes_computed"])
    return m
