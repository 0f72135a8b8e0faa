"""Pass-through spans around the library's public functions, for per-layer self time.

Modules import functions by name, so wrapping a function on its defining
module alone misses every caller that imported it.  While a Tracer is
entered, each traced function is replaced at every module attribute that holds
it, which is where callers look the name up at call time; leaving the Tracer
puts the originals back.  A layer is a library module; a span's self time is
its duration minus the time covered by the spans it called.
"""
from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

TRACED = {
    "graph": ("with_optimum",),
    "simulator": ("evolve", "outcome_distribution", "sample"),
    "estimators": ("compute_stats", "expectation_estimate"),
    "shots": ("evaluate_point",),
    "bo": ("suggest", "run_search", "optimize_map_bo"),
    "baselines": ("optimize_exp_bo", "optimize_exp_gd", "parameter_shift_gradient"),
    "stage2": ("amplify", "randomized_shift_gradient", "target_probability",
               "exact_gradient"),
    "resources": ("build_report",),
    "bench": ("make_instance", "run_cell", "write_outputs"),
}


def _observe_evolve(tracer, args, kwargs, state):
    params = args[1] if len(args) > 1 else kwargs["params"]
    n = state.size.bit_length() - 1
    # computed, not measured: one pass over the state per cost layer and per
    # mixer qubit, plus the initial fill, at 16 B per complex128 amplitude
    tracer.counts["simulator.evolve.bytes_computed"] += \
        (params.depth * (n + 1) + 1) * state.nbytes
    if tracer.active["baselines.parameter_shift_gradient"]:
        tracer.counts["baselines.gradient_evolves"] += 1


def _observe_sample(tracer, args, kwargs, counts):
    tracer.counts["simulator.sample.shots"] += args[1] if len(args) > 1 else kwargs["shots"]


def _observe_stats(tracer, args, kwargs, stats):
    tracer.counts["estimators.stats_keys"] += stats.distinct


def _observe_point(tracer, args, kwargs, point):
    tracer.counts["shots.accepted"] += point.accepted
    tracer.counts["shots.rounds"] += point.rounds
    tracer.counts["shots.point_shots"] += point.shots_used


OBSERVERS = {
    "simulator.evolve": _observe_evolve,
    "simulator.sample": _observe_sample,
    "estimators.compute_stats": _observe_stats,
    "shots.evaluate_point": _observe_point,
}


class Tracer:
    """Span counts, self times and observed counts, kept in memory."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.active = defaultdict(int)
        self.sites: list[str] = []  # "module.attribute" names replaced
        self._open: list[list[float]] = []  # child time of each open span
        self._patched: list[tuple] = []

    def _span(self, name, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            self.active[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.active[name] -= 1
                self._open.pop()
                if self._open:
                    self._open[-1][0] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children[0]
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"modeqaoa.{name}") for name in TRACED}
        wrappers = {}
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(modules[home], fname)
                wrappers[id(original)] = (original, self._span(f"{home}.{fname}", original))
        for site_name, site in modules.items():
            for attr, obj in list(vars(site).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(site, attr, entry[1])
                    self._patched.append((site, attr, obj))
                    self.sites.append(f"{site_name}.{attr}")
        return self

    def __exit__(self, *exc) -> None:
        for site, attr, original in reversed(self._patched):
            setattr(site, attr, original)
        self._patched.clear()

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per library module."""
        out = dict.fromkeys(TRACED, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out
