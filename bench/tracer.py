"""Spans and counters around tcpfluid's public functions, from outside.

``Tracer.install`` rebinds module attributes and class methods of an imported
tcpfluid package to timing wrappers and ``uninstall`` puts the originals back;
the package source is not edited.  Spans (name, start, end, parent) are kept
in memory and written out once the run is over.  While the simulator runs,
the concrete ``window`` methods are wrapped too, so its window evaluations are
counted without touching the fluid integrator's.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter

# span name -> (module name, attribute) pairs that all bind the same function.
# experiment imports these names into its own namespace, so both bindings are
# rebound to the one wrapper.
FUNCTIONS = {
    "fixedpoint.solve": [("fixedpoint", "cubic_fixed_point"), ("experiment", "cubic_fixed_point")],
    "dde.integrate": [("dde", "integrate"), ("experiment", "integrate")],
    "stability.trace": [("stability", "stability_trace"), ("experiment", "stability_trace")],
    "nhpl.simulate": [("nhpl", "run_simulation"), ("experiment", "run_simulation")],
    "nhpl.loop": [("nhpl", "generate_poi_loss")],
    "nhpl.sample": [("nhpl", "compute_T")],
    "nhpl.bdp": [("nhpl", "t_bdp")],
}

# artifact writer -> number of data rows it writes
WRITERS = {
    ("dde", "Trajectory", "write_csv"): lambda obj: len(obj.t),
    ("nhpl", "SimResult", "write_events_csv"): lambda obj: len(obj.events),
    ("nhpl", "SimResult", "write_trace_csv"): lambda obj: len(obj.trace_t),
    ("stability", "DiagnosticTrace", "write_csv"): lambda obj: len(obj.t),
}

WINDOW_CLASSES = ("RenoWindow", "CubicWindow", "FrozenWindow")


class Tracer:
    def __init__(self, tcp):
        self.tcp = tcp
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.rows = 0
        self.bytes = 0
        self.window_evals = 0
        self.steps = 0
        self.samples = 0
        self.losses = 0
        self.indications = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._windows = [getattr(tcp.protocols, name) for name in WINDOW_CLASSES]

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _timed(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _simulate(self, fn):
        originals = [cls.__dict__["window"] for cls in self._windows]

        def counted(orig):
            def window(obj, state, params):
                self.window_evals += 1
                return orig(obj, state, params)

            return window

        @functools.wraps(fn)
        def simulate(*args, **kwargs):
            for cls, orig in zip(self._windows, originals):
                cls.window = counted(orig)
            try:
                return fn(*args, **kwargs)
            finally:
                for cls, orig in zip(self._windows, originals):
                    cls.window = orig

        return simulate

    def _count_events(self, args, sim) -> None:
        for ev in sim.events:
            self.losses += ev.event_type == "loss"
            self.indications += ev.event_type == "indication"

    def _count_steps(self, args, traj) -> None:
        self.steps += len(traj.t) - 1

    def _count_samples(self, args, diag) -> None:
        self.samples += len(diag.t)

    def _written(self, count_rows):
        def after(args, result):
            obj, path = args[0], args[1]
            self.rows += count_rows(obj)
            self.bytes += os.path.getsize(path)

        return after

    def install(self) -> None:
        tcp = self.tcp
        counters = {
            "nhpl.simulate": self._count_events,
            "dde.integrate": self._count_steps,
            "stability.trace": self._count_samples,
        }
        for name, bindings in FUNCTIONS.items():
            module, attr = bindings[0]
            fn = getattr(getattr(tcp, module), attr)
            if name == "nhpl.simulate":
                fn = self._simulate(fn)
            wrapper = self._timed(name, fn, counters.get(name))
            for module, attr in bindings:
                self._rebind(getattr(tcp, module), attr, wrapper)
        for (module, cls_name, attr), count_rows in WRITERS.items():
            cls = getattr(getattr(tcp, module), cls_name)
            self._rebind(cls, attr, self._timed("experiment.write", cls.__dict__[attr],
                                                self._written(count_rows)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def total_s(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def layer_metrics(self) -> dict[str, float]:
        def per(num: float, den: float, scale: float = 1.0) -> float:
            return scale * num / den if den else 0.0

        integrate_s, trace_s = self.total_s("dde.integrate"), self.total_s("stability.trace")
        simulate_s, loop_s = self.total_s("nhpl.simulate"), self.total_s("nhpl.loop")
        write_s = self.total_s("experiment.write")
        candidates = self.calls("nhpl.sample")
        steps, samples = self.steps, self.samples
        return {
            "fixedpoint.solve_us": per(self.total_s("fixedpoint.solve"), self.calls("fixedpoint.solve"), 1e6),
            "dde.integrate_s": integrate_s,
            "dde.steps": steps,
            "dde.step_us": per(integrate_s, steps, 1e6),
            "stability.trace_s": trace_s,
            "stability.samples": samples,
            "stability.sample_us": per(trace_s, samples, 1e6),
            "nhpl.simulate_s": simulate_s,
            "nhpl.loop_s": loop_s,
            "nhpl.sample_s": self.total_s("nhpl.sample"),
            "nhpl.bdp_s": self.total_s("nhpl.bdp"),
            "nhpl.render_s": simulate_s - loop_s,
            "nhpl.candidates": candidates,
            "nhpl.losses": self.losses,
            "nhpl.indications": self.indications,
            "nhpl.accept_ratio": per(self.losses, candidates),
            "nhpl.window_evals": self.window_evals,
            "nhpl.window_evals_per_loss": per(self.window_evals, self.losses),
            "nhpl.us_per_loss": per(loop_s, self.losses, 1e6),
            "experiment.write_s": write_s,
            "experiment.rows": self.rows,
            "experiment.bytes": self.bytes,
            "experiment.row_us": per(write_s, self.rows, 1e6),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")
