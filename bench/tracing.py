"""Span tracing of the cantorcode layers, installed from outside the package.

`Tracer.installed()` swaps the public entry points of the package modules for
thin wrappers and restores them on exit, so nothing under `src/` changes and an
untraced run pays nothing.  A wrapped module-level function records one span
(job, id, parent, name, start, end, self time); a wrapped `ClopenClass` method
is called too often to keep one record per call, so its calls and time are
folded into the record of the span that made them.  Self time is a span's
duration minus the time of the wrapped calls nested inside it.

The bits layer is counted, not timed: `BitString.from_int` calls and `Dyadic`
constructions.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Module-level functions that get a span of their own, by module.
SPANNED_FUNCTIONS = {
    "clopen": ("prune", "verify_extension_property", "verify_density_property"),
    "coder": ("settle_words", "encode", "decode", "end_to_end"),
    "schedules": ("redundancy_report",),
    "analysis": ("random_vt_instance", "vt_construction"),
    "labeltree": (
        "is_fully_labelable_bruteforce",
        "splice_reduce",
        "labelling_from_reduction",
        "validate_labelling",
        "measure_condition_check",
    ),
}

# Trie operations of clopen.ClopenClass, aggregated into the enclosing span.
SPANNED_METHODS = ("is_extendible", "part_below", "union", "minus_cylinder", "keep_leftmost")

FROM_INT = "bits.BitString.from_int.calls"
DYADIC = "bits.Dyadic.constructed"


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "child", "methods")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.child = 0.0
        self.methods = None


class Tracer:
    """Per-layer calls, self times, work counts and span records for one run."""

    def __init__(self, modules):
        self._modules = modules  # package module name -> module object
        self.stats = defaultdict(lambda: [0, 0.0])  # span name -> [calls, self seconds]
        self.counts = defaultdict(int)
        self.spans: list[dict] = []
        self.job = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._bindings = None

    # -- job scoping ------------------------------------------------------------

    @contextmanager
    def job_span(self, job: int, name: str):
        """Root span of one job; every span it causes carries the job index."""
        self.job = job
        frame = self._push(name)
        try:
            yield
        finally:
            end = time.perf_counter()
            while self._stack and self._stack[-1] is not frame:
                self._stack.pop()  # left behind by a timeout
            self._pop(frame, end, record=True)
            self._stack.clear()
            self.job = None

    def _push(self, name):
        self._next_id += 1
        parent = self._stack[-1].id if self._stack else None
        frame = _Frame(self._next_id, parent, name, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _pop(self, frame, end, record):
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - frame.start
        stat = self.stats[frame.name]
        stat[0] += 1
        stat[1] += duration - frame.child
        if stack:
            outer = stack[-1]
            outer.child += duration
            if not record:
                if outer.methods is None:
                    outer.methods = defaultdict(lambda: [0, 0.0])
                agg = outer.methods[frame.name]
                agg[0] += 1
                agg[1] += duration
        if record:
            self.spans.append({
                "job": self.job,
                "id": frame.id,
                "parent": frame.parent,
                "name": frame.name,
                "start": frame.start,
                "end": end,
                "self_s": duration - frame.child,
                "methods": {k: {"calls": c, "total_s": s} for k, (c, s) in (frame.methods or {}).items()},
            })

    # -- wrappers ------------------------------------------------------------------

    def _wrap(self, name, fn, record, on_result=None):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame, clock(), record)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _result_counters(self):
        counts = self.counts

        def prune(res):
            counts["clopen.prune.acts"] += len(res.trace)

        def settle(table):
            counts["coder.words_settled"] += len(table.slots)

        def blocks(res):
            counts["coder.blocks_coded"] += len(res.slots)

        def vt(res):
            counts["analysis.vt_construction.cover_members"] += sum(
                level.cover.member_count for level in res.levels
            )

        def brute(res):
            counts["labeltree.trees_decided"] += 1
            counts["labeltree.labelable"] += bool(res[0])

        return {
            "clopen.prune": prune,
            "coder.settle_words": settle,
            "coder.encode": blocks,
            "coder.decode": blocks,
            "analysis.vt_construction": vt,
            "labeltree.is_fully_labelable_bruteforce": brute,
        }

    def _bind(self):
        """(owner, attribute, original, wrapper) for every name the tracer swaps."""
        hooks = self._result_counters()
        bindings = []
        for short, names in SPANNED_FUNCTIONS.items():
            for fname in names:
                span = f"{short}.{fname}"
                original = getattr(self._modules[f"cantorcode.{short}"], fname)
                wrapper = self._wrap(span, original, True, hooks.get(span))
                # rebind every package-module name for it: coder calls `prune`
                # through its own import of the name
                for mod in self._modules.values():
                    for attr, val in vars(mod).items():
                        if val is original:
                            bindings.append((mod, attr, original, wrapper))
        cls = self._modules["cantorcode.clopen"].ClopenClass
        for meth in SPANNED_METHODS:
            original = vars(cls)[meth]
            bindings.append((cls, meth, original,
                             self._wrap(f"clopen.ClopenClass.{meth}", original, False)))

        bits = self._modules["cantorcode.bits"]
        counts = self.counts
        from_int_cm = vars(bits.BitString)["from_int"]
        from_int = from_int_cm.__func__
        dyadic_init = vars(bits.Dyadic)["__init__"]

        def counted_from_int(cls, value, length):
            counts[FROM_INT] += 1
            return from_int(cls, value, length)

        def counted_init(self, num, exp=0):
            counts[DYADIC] += 1
            dyadic_init(self, num, exp)

        bindings.append((bits.BitString, "from_int", from_int_cm, classmethod(counted_from_int)))
        bindings.append((bits.Dyadic, "__init__", dyadic_init, counted_init))
        return bindings

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        if self._bindings is None:
            self._bindings = self._bind()
        try:
            for owner, attr, _, wrapper in self._bindings:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in self._bindings:
                setattr(owner, attr, original)

    # -- per-layer metrics -------------------------------------------------------------

    def layer_metrics(self, check_failures) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit); 0 where a layer did not run."""
        out: dict[str, tuple[float, str]] = {}
        for short, names in SPANNED_FUNCTIONS.items():
            for fname in names:
                calls, self_s = self.stats.get(f"{short}.{fname}", (0, 0.0))
                out[f"{short}.{fname}.calls"] = (calls, "count")
                out[f"{short}.{fname}.self_s"] = (self_s, "s")
        for meth in SPANNED_METHODS:
            calls, self_s = self.stats.get(f"clopen.ClopenClass.{meth}", (0, 0.0))
            out[f"clopen.ClopenClass.{meth}.calls"] = (calls, "count")
            out[f"clopen.ClopenClass.{meth}.self_s"] = (self_s, "s")
        c = self.counts
        acts = c["clopen.prune.acts"]
        out["clopen.prune.acts"] = (acts, "count")
        out["clopen.prune.self_s_per_act"] = (out["clopen.prune.self_s"][0] / acts if acts else 0.0, "s")
        settled = c["coder.words_settled"]
        out["coder.words_settled"] = (settled, "count")
        out["coder.words_used_ratio"] = (c["coder.blocks_coded"] / settled if settled else 0.0, "ratio")
        out["analysis.vt_construction.cover_members"] = (c["analysis.vt_construction.cover_members"], "count")
        decided = c["labeltree.trees_decided"]
        out["labeltree.labelable_ratio"] = (c["labeltree.labelable"] / decided if decided else 0.0, "ratio")
        out["labeltree.disagreements"] = (check_failures.get("disagreement", 0), "count")
        out[FROM_INT] = (c[FROM_INT], "count")
        out[DYADIC] = (c[DYADIC], "count")
        return out


def package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "cantorcode" or name.startswith("cantorcode.")}
