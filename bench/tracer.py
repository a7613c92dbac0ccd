"""Outside-in tracing of the aggsim layers.

The tracer wraps public functions and methods of the aggsim modules from
outside the package; no source under ``src/`` changes. For a module-level
function every attribute of every loaded aggsim module that is the very
same object is replaced, so the defining attribute and each by-name
import (``aggsim.cli.run_solver``, ``aggsim.cli.solve``, the stability
functions ``cli`` imports, the package re-exports) all go through the
wrapper. Methods are replaced on their class. Everything is restored when
the ``patched`` block exits.

Each wrapped call is a span: name, start, end and the span that caused
it. Spans are kept in memory in flat arrays and can be saved at the end.
Self time, a span's duration minus the durations of the wrapped spans it
caused directly, is accumulated per name while the spans are recorded.
"""

import contextlib
import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute or Class.method, span name); several targets may
# share a span name, which then aggregates them
LAYER_TARGETS = (
    ("aggsim.config", "ExperimentConfig.build_problem", "config.build"),
    ("aggsim.config", "ExperimentConfig.build_graph", "config.build"),
    ("aggsim.config", "ExperimentConfig.build_solver_config", "config.build"),
    ("aggsim.config", "ExperimentConfig.build_x0", "config.build"),
    ("aggsim.graph", "build_topology", "graph.build_topology"),
    ("aggsim.problems", "AggregativeProblem.global_gradient", "problems.global_gradient"),
    ("aggsim.problems", "AggregativeProblem.objective", "problems.objective"),
    ("aggsim.problems", "AggregativeProblem.phi_all", "problems.phi_all"),
    ("aggsim.problems", "AggregativeProblem.grad1_all", "problems.grad1_all"),
    ("aggsim.problems", "AggregativeProblem.grad2_all", "problems.grad2_all"),
    ("aggsim.problems", "AggregativeProblem.dphi_all", "problems.dphi_all"),
    ("aggsim.oracle", "solve", "oracle.solve"),
    ("aggsim.solver", "run", "solver.run"),
    ("aggsim.solver", "step", "solver.step"),
    ("aggsim.solver", "IterTrace.record", "solver.record"),
    ("aggsim.solver", "IterTrace.to_csv", "solver.to_csv"),
    ("aggsim.solver", "CommChannel.mix", "solver.mix"),
    ("aggsim.stability", "jury_stable", "stability.jury_stable"),
    ("aggsim.stability", "region_member_hb", "stability.region_member"),
    ("aggsim.stability", "region_member_nes", "stability.region_member"),
    ("aggsim.stability", "error_matrix_hb", "stability.error_matrix"),
    ("aggsim.stability", "error_matrix_nes", "stability.error_matrix"),
    ("aggsim.stability", "ErrorSystemMatrix.spectral_radius", "stability.spectral_radius"),
    ("aggsim.stability", "quadratic_rates", "stability.quadratic_rates"),
    ("aggsim.stability", "conservative_bounds_hb", "stability.conservative_bounds"),
    ("aggsim.stability", "conservative_bounds_nes", "stability.conservative_bounds"),
)

# the untraced run counts solver ticks through this single wrapper
TICK_TARGETS = (("aggsim.solver", "run", "solver.run"),)


def _count_ticks(tracer, args, result, exc):
    if exc is not None:
        tracer.counts["solver.ticks"] += getattr(exc, "iteration", 0)
    else:
        tracer.counts["solver.ticks"] += int(result.k[-1])


def _count_noise_draws(tracer, args, result, exc):
    # a noisy channel makes one Gaussian draw per tracker per mix
    if getattr(args[0], "noise_sigma", 0.0) > 0.0:
        tracer.counts["solver.noise_draws"] += 2


def _note_rates_dim(tracer, args, result, exc):
    if exc is None:
        dim = result.matrix.entries.shape[0]
        tracer.counts["stability.quadratic_rates.max_dim"] = max(
            tracer.counts["stability.quadratic_rates.max_dim"], dim
        )


HOOKS = {
    "solver.run": _count_ticks,
    "solver.mix": _count_noise_draws,
    "stability.quadratic_rates": _note_rates_dim,
}


class Tracer:
    """Span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        # one entry per span; parent is -1 for a root span
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []  # [span index, seconds covered by child spans]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name):
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, name, frame, t0, t1):
        self._stack.pop()
        sid, child_s = frame
        self.span_start[sid] = t0
        self.span_end[sid] = t1
        duration = t1 - t0
        self.calls[name] += 1
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][1] += duration

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(name, frame, t0, time.perf_counter())
                if hook is not None:
                    hook(self, args, None, exc)
                raise
            self._close(name, frame, t0, time.perf_counter())
            if hook is not None:
                hook(self, args, result, None)
            return result

        return wrapper

    @contextlib.contextmanager
    def patched(self, targets):
        """Route every call of `targets` through the tracer while open.

        A target missing from the package raises LookupError: a metric
        whose function was renamed would otherwise read as zero calls and
        zero seconds, which looks like a gain. A change that renames or
        removes a traced function updates LAYER_TARGETS with it.
        """
        saved = []
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                owner_name, _, member = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = owner.__dict__.get(member) if owner is not None else None
                if original is None:
                    raise LookupError(f"traced target {module_name}.{attr} not found")
                wrapper = self.wrap(name, original)
                if owner_name:
                    saved.append((owner, member, original))
                    setattr(owner, member, wrapper)
                    continue
                for mod in _aggsim_modules():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def save(self, path):
        """Write the recorded spans as a NumPy .npz archive."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def _aggsim_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "aggsim" or key.startswith("aggsim."))
    ]
