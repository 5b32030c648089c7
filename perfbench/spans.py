"""Spans around public polymoment functions, recorded from outside the package.

Each wrapper replaces a function at the name the run actually looks up: a
module that did ``from .x import f`` holds its own reference, so patching
only the defining module would miss that call site.  Spans are kept in
memory as ``(id, name, start, end, parent)`` tuples and handed back once
the process is done; self times are derived from them afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

# (owner, attribute, span name); the owner is resolved lazily by module path
TRACE_POINTS = (
    ("polymoment.mcverify", "natural_envelope", "polymodel.natural_envelope"),
    ("polymoment.mcverify", "zeta_chain", "calculus.zeta_chain"),
    ("polymoment.mcverify", "ConjugateSpec", "tails.conjugate_spec"),
    ("polymoment.mcverify", "fit_tail_rescale", "tails.fit_tail_rescale"),
    ("polymoment.mcverify", "dominance_check", "tails.dominance_check"),
    ("polymoment.calculus", "otimes", "calculus.otimes"),
    ("polymoment.calculus", "polynomial_dominant_envelope", "calculus.dominant_envelope"),
    ("polymoment.tails", "tail_from_envelope", "tails.tail_from_envelope"),
)
RUN_POINTS = (
    ("polymoment.cli", "run_experiment", "mcverify.run"),
    ("polymoment.cli", "doob_experiment", "mcverify.run"),
)
# top-level tail work inside a run; nested tail_from_envelope calls are inside these
TAIL_SPANS = ("tails.conjugate_spec", "tails.fit_tail_rescale", "tails.dominance_check")


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._evals = itertools.count()
        self._batches = 0
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str) -> None:
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return tracer.span(name, fn, *args, **kwargs)

        self._patch(owner, attr, traced)

    def install(self, points) -> None:
        import importlib

        for module, attr, name in points:
            self.wrap(importlib.import_module(module), attr, name)

    def install_layers(self) -> None:
        """Spans on every layer, plus the envelope-evaluation and batch counters."""
        import polymoment.mcverify as mcverify
        from polymoment.envelope import MomentEnvelope

        self.install(TRACE_POINTS)
        call = MomentEnvelope.__call__
        evals = self._evals

        @functools.wraps(call)
        def counted(env, p):
            next(evals)
            return call(env, p)

        self._patch(MomentEnvelope, "__call__", counted)
        batch_plan = mcverify.batch_plan
        tracer = self

        @functools.wraps(batch_plan)
        def counted_plan(*args, **kwargs):
            # called on the run's own thread before any pool starts, so no lock
            sizes = batch_plan(*args, **kwargs)
            tracer._batches += len(sizes)
            return sizes

        self._patch(mcverify, "batch_plan", counted_plan)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def counts(self) -> dict:
        """Counter totals; read once, after the run (reading advances the evaluation count)."""
        return {"envelope.evals": next(self._evals), "polymodel.batches": self._batches}


def self_times(spans) -> dict:
    """Per span name: calls, inclusive seconds and self seconds (children removed)."""
    child_time = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[sid]
    return dict(out)


def tails_in_runs(spans) -> float:
    """Inclusive seconds of top-level tail work nested inside ``mcverify.run`` spans."""
    by_id = {s[0]: s for s in spans}
    total = 0.0
    for sid, name, start, end, parent in spans:
        if name in TAIL_SPANS and parent in by_id and by_id[parent][1] == "mcverify.run":
            total += end - start
    return total
