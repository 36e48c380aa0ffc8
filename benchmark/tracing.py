"""Spans recorded from outside the library, around the calls into each layer.

A span is (name, start, end, parent, run id); its layer is the part of the
name before the first dot, which is a module name of ``tissue`` (``bench``
marks the benchmark's own code).  Spans stay in memory and are written out
when the run ends.  ``NullTracer`` has the same surface and records nothing,
so the untraced run pays for no wrapper.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Every time the benchmark measures is CPU time of its own process.  In a
# virtual machine the kernel leaves out of it the time the hypervisor hands
# this CPU to other guests (steal time).  On the shared 2-vCPU machine the
# benchmark was built on, steal reached 10-49% of a CPU for a minute at a time
# and moved wall-clock figures by up to 45%.  Each workload runs on one thread
# with one BLAS thread, so its CPU time is its wall time without the steal.
clock = time.process_time


class NullTracer:
    @contextmanager
    def span(self, name: str):
        yield

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def instrument(self, system, module: str) -> None:
        pass


class Tracer(NullTracer):
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), None, parent])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = clock()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def instrument(self, system, module: str) -> None:
        """Wrap one system's implicit step and state reconstruction.

        Only the instance attributes change, so library code that calls
        ``system.stepper.step`` or ``system.state_at`` (simulate, the period
        map, the two-scale mean-defect check) is timed without any change to
        the library.  ``state_at`` is wrapped from the class, not from the
        instance: a ``with_law`` copy inherits the instance attribute of the
        system it copies, and wrapping that would nest two spans per call.
        """
        stepper = system.stepper
        step = stepper.step
        linear = stepper.law.is_linear
        name = "membrane.linear_step" if linear else "membrane.newton_step"

        def traced_step(t_next, w_prev, dt):
            with self.span(name):
                res = step(t_next, w_prev, dt)
            if not linear:
                self.counts["membrane.newton_steps"] += 1
                self.counts["membrane.newton_iters"] += res.iterations
                self.counts["membrane.shift_retries"] += int(res.used_shift)
            return res

        stepper.step = traced_step
        state_at = type(system).state_at.__get__(system)

        def traced_state_at(t, w):
            with self.span(f"{module}.state_at"):
                return state_at(t, w)

        system.state_at = traced_state_at

    # -- summaries -------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_self_s(self) -> dict:
        out: dict = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            out[span[0].split(".", 1)[0]] += own
        return dict(out)

    def durations_ms(self, name: str) -> np.ndarray:
        return np.array([(end - start) * 1e3
                         for n, start, end, _ in self.spans if n == name])

    def by_name(self) -> dict:
        """Count, total and self seconds of every span name."""
        out: dict = {}
        for span, own in zip(self.spans, self.self_times()):
            entry = out.setdefault(span[0], {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[2] - span[1]
            entry["self_s"] += own
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": n, "start": s - t0, "end": e - t0, "parent": p,
                 "run": self.run_id} for n, s, e, p in self.spans]
        path.write_text(json.dumps({"run": self.run_id, "spans": rows,
                                    "counts": dict(self.counts)}) + "\n")
