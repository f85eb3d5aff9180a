"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent span, job id, failed). Spans are kept
in a list while the run executes and written out once, when it ends.
Per-layer metrics come from them: a layer's call count, its self time
(duration minus the part of the interval its child spans cover) and the
number of calls that raised.

Instrumentation wraps the package's public functions from outside: every
module attribute bound to the original function object is rebound to the
wrapper, so calls between sensan modules are recorded too and nested calls
become child spans. Nothing inside the package is edited, and an untraced
run never imports this wrapping.
"""

from __future__ import annotations

import functools
import json
import sys
import time

NAME, START, END, PARENT, JOB, FAILED = range(6)


class Recorder:
    """Collects spans of one single-threaded process."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self.job = None
        self.active = False
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), None, parent, self.job, False]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = self.clock()
            self._stack.pop()

    def wrap(self, fn, name):
        """Wrapper recording a span per call. `name` is a string or a
        callable of the call's arguments returning one."""
        namer = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(namer(*args, **kwargs), fn, *args, **kwargs)

        traced.__wrapped_original__ = fn
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "job", "failed"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def self_times(spans) -> list[int]:
    """Self time of every span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children: dict[int, list[tuple[int, int]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for i, rec in enumerate(spans):
        lo, hi = rec[START], rec[END]
        covered = 0
        cur_lo = cur_hi = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi - lo - covered)
    return out


def layer_metrics(spans, names, keep=lambda rec: True) -> dict[str, float]:
    """`<name>.calls`, `<name>.ms` (self time) and `<name>.fail` for every
    layer name, over the spans `keep` accepts. Layers without calls read 0."""
    stats = {n: [0, 0, 0] for n in names}
    for rec, own in zip(spans, self_times(spans)):
        if rec[NAME] not in stats or not keep(rec):
            continue
        s = stats[rec[NAME]]
        s[0] += 1
        s[1] += own
        s[2] += int(rec[FAILED])
    out = {}
    for n, (calls, ns, fails) in stats.items():
        out[f"{n}.calls"] = calls
        out[f"{n}.ms"] = ns / 1e6
        out[f"{n}.fail"] = fails
    return out


def instrument(recorder: Recorder, targets) -> None:
    """Rebind every `(module, function, span_name)` target wherever a sensan
    module holds a reference to it."""
    holders = [m for k, m in list(sys.modules.items())
               if m is not None and (k == "sensan" or k.startswith("sensan."))]
    for modname, fname, span_name in targets:
        mod = sys.modules[f"sensan.{modname}"]
        orig = getattr(mod, fname)
        traced = recorder.wrap(orig, span_name)
        for holder in holders:
            for attr, val in list(vars(holder).items()):
                if val is orig:
                    setattr(holder, attr, traced)
