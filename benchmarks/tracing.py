"""Spans and counters recorded around calls into gfsim's layers.

The tracer lives entirely in the benchmark. For a traced pass it replaces
each public function of the five library layers at every gfsim binding that
other code calls it through: the modules that imported it by name and the
package namespace, which is what the benchmark itself calls. A call from one
layer into another therefore opens a span; calls inside one layer do not.
The cli layer is entered only by the benchmark, which opens one
`cli.main.<preset>` span per call. Spans nest through a stack, so each span
knows its parent and a layer's self time is its duration minus its
children's. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time
import warnings
from collections import Counter, defaultdict

from gfsim.errors import RegimeError
from gfsim.protocol import DoubletPurityWarning

LAYERS = ("model", "dynamics", "analytics", "protocol", "open_system")


class Tracer:
    def __init__(self):
        self.spans = []          # (span_id, parent_id, pass_index, name, start_ns, end_ns)
        self.counters = defaultdict(Counter)   # pass_index -> name -> count
        self.pass_index = -1
        self._stack = []
        self._next_id = 0
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((span_id, parent, self.pass_index, name, start, end))

    def count(self, name, amount=1):
        self.counters[self.pass_index][name] += amount

    def install(self):
        """Wrap every public layer function at its bindings outside its module."""
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"gfsim.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{layer}.{attr}"))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "gfsim" or name.startswith("gfsim.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj and obj.__module__ != name:
                    self._saved.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def _wrap(self, fn, name):
        around = _AROUND.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                if around is None:
                    return fn(*args, **kwargs)
                return around(self, fn, args, kwargs)

        return traced

    def per_pass(self):
        """{pass_index: {name: [calls, self_ns]}} from the recorded spans."""
        child_ns = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for span_id, _, pass_index, name, start, end in self.spans:
            slot = out[pass_index][name]
            slot[0] += 1
            slot[1] += (end - start) - child_ns[span_id]
        return out

    def write(self, path):
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["span_id", "parent_id", "pass",
                                                "name", "start_ns", "end_ns"]}) + "\n")
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


# Counters kept at a layer boundary: each makes the call and counts its work.

def _make_plan(tracer, fn, args, kwargs):
    tracer.count("protocol.plans_attempted")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            plan = fn(*args, **kwargs)
        except RegimeError:
            tracer.count("protocol.plans_refused")
            raise
    tracer.count("protocol.plans_built")
    if any(issubclass(w.category, DoubletPurityWarning) for w in caught):
        tracer.count("protocol.plans_warned")
    for w in caught:  # hand them on to the caller's own warning handling
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return plan


def _time_points(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    # an array of probabilities has one entry per time; a state is one time
    tracer.count("dynamics.time_points", int(getattr(result, "size", 1)))
    return result


def _dissipation_grid(tracer, fn, args, kwargs):
    curve = fn(*args, **kwargs)
    cells = len(curve.gamma_over_J)
    tracer.count("open_system.cells", cells)
    tracer.count("open_system.samples_scored", cells * int(curve.samples))
    return curve


def _rk4_steps(tracer, fn, args, kwargs):
    run = fn(*args, **kwargs)
    # computed from the arguments, the way integrate_master sizes its run:
    # ceil(t_end/dt) steps, and twice that again for the dt/2 check
    arguments = inspect.signature(fn).bind(*args, **kwargs).arguments
    t_end, dt = float(arguments["t_end"]), float(arguments["dt"])
    steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0 else 0
    check = arguments.get("check_step", True)
    tracer.count("open_system.rk4_steps", steps * (3 if check else 1))
    return run


_AROUND = {
    "protocol.make_plan": _make_plan,
    "dynamics.transfer_probability": _time_points,
    "dynamics.evolve": _time_points,
    "open_system.average_transfer_fidelity": _dissipation_grid,
    "open_system.integrate_master": _rk4_steps,
}
