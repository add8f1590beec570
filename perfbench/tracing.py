"""Outside-in tracer for the benchmark.

The tracer wraps quantgame's public functions from the benchmark's own
code, so the library stays untouched. Each wrapper is installed where the
name is looked up at call time, not where it is defined:

- `game` imported `multi_start_lloyd_max`, `observed_environment` and
  `word_usage` by name, so those are wrapped in `game`'s namespace;
- `multi_start_lloyd_max` reaches `lloyd_max` through the `quantizers`
  module globals;
- `partial_moments` and `quantile` are methods of `MixtureDensity`;
- `config.load_state` calls the `refresh_state` that `config` imported;
- `verify_nash` calls `montecarlo.true_env_residuals` through the module.

Coarse calls (a solve, a sweep, one Monte-Carlo batch) become spans with a
name, start, end, parent and run id. Hot calls (the 1.1M-call moment kernel,
Lloyd-Max, best responses) only add to aggregated counters, so tracing stays
cheap. Counters are kept per benchmark phase (setup, solve, verify,
simulate, chains), the top-level spans the benchmark opens itself.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from quantgame import config, densities, game, montecarlo, quantizers

_clock = time.perf_counter


class Tracer:
    """Spans and counters of one benchmark run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # [id, name, parent id or None, start, end]
        self.counters = defaultdict(lambda: defaultdict(float))  # phase -> key -> value
        self._stack = []
        self._current = self.counters["none"]
        self._saved = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, parent, _clock(), None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield
        finally:
            rec[4] = _clock()
            self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A top-level benchmark phase: a span that also scopes counters."""
        previous = self._current
        self._current = self.counters[name]
        try:
            with self.span("phase." + name):
                yield
        finally:
            self._current = previous

    def _span_wrapper(self, name, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            self._current[name + ".calls"] += 1
            if observe is not None:
                observe(self._current, out)
            return out
        return wrapper

    def _counter_wrapper(self, name, fn, observe=None):
        calls, secs = name + ".calls", name + ".s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = _clock()
            out = fn(*args, **kwargs)
            dt = _clock() - t0
            c = self._current
            c[calls] += 1
            c[secs] += dt
            if observe is not None:
                observe(c, out)
            return out
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        """Replace every traced name at its binding site."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, kind, observe in _SITES:
            original = getattr(owner, attr)
            make = self._span_wrapper if kind == "span" else self._counter_wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original, observe))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Restore the original names for a while, e.g. around output
        checks, whose work is not the workload's."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reporting -------------------------------------------------------------

    def span_table(self):
        """Per span: (id, name, parent, start, end, self seconds).

        Self time is the span's duration minus the time its direct children
        cover; children of one parent never overlap (one thread).
        """
        child_time = defaultdict(float)
        for sid, _name, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [(sid, name, parent, start, end, end - start - child_time[sid])
                for sid, name, parent, start, end in self.spans]

    def totals(self):
        """Counters summed over phases, plus span durations and self times."""
        out = defaultdict(float)
        for per_phase in self.counters.values():
            for key, value in per_phase.items():
                out[key] += value
        for _sid, name, _parent, start, end, self_s in self.span_table():
            out[name + ".s"] += end - start
            out[name + ".self_s"] += self_s
        return out

    def dump(self):
        """JSON-ready record of the run: spans and per-phase counters."""
        t0 = self.spans[0][3] if self.spans else 0.0
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": sid, "name": name, "parent": parent, "run": self.run_id,
                 "start_s": start - t0, "end_s": end - t0, "self_s": self_s}
                for sid, name, parent, start, end, self_s in self.span_table()
            ],
            "counters": {phase: dict(c) for phase, c in self.counters.items() if c},
        }


def _observe_lloyd(c, res):
    c["quantizers.lloyd_max.iterations"] += res.iterations
    c["quantizers.empty_cell_events"] += res.empty_cell_events


def _observe_paths(c, out):
    x, _value, lengths, n_truncated, n_clamped = out
    ok = ~np.isnan(x)
    c["montecarlo.sample_paths.samples"] += int(ok.sum())
    c["montecarlo.sample_paths.hops"] += int(lengths[ok].sum())
    c["montecarlo.truncated"] += n_truncated
    c["montecarlo.clamped"] += n_clamped


def _observe_chains(c, chains):
    c["montecarlo.chains_enumerated"] += len(chains)


# (owner, attribute, metric name, "span" or "counter", result observer)
_SITES = [
    (densities.MixtureDensity, "partial_moments", "densities.partial_moments", "counter", None),
    (densities.MixtureDensity, "quantile", "densities.quantile", "counter", None),
    (quantizers, "lloyd_max", "quantizers.lloyd_max", "counter", _observe_lloyd),
    (game, "multi_start_lloyd_max", "quantizers.multi_start", "counter", None),
    (game, "observed_environment", "networks.observed_environment", "counter", None),
    (game, "word_usage", "networks.word_usage", "counter", None),
    (game, "best_response", "game.best_response", "counter", None),
    (game, "bootstrap", "game.bootstrap", "span", None),
    (game, "sweep", "game.sweep", "span", None),
    (game, "solve_equilibrium", "game.solve_equilibrium", "span", None),
    (game, "verify_nash", "game.verify_nash", "span", None),
    (game, "check_social_stability", "game.check_social_stability", "span", None),
    (config, "refresh_state", "game.refresh_state", "span", None),
    (config, "load_state", "config.load_state", "span", None),
    (config, "load_config", "config.load_config", "span", None),
    (montecarlo, "estimate_losses", "montecarlo.estimate_losses", "span", None),
    (montecarlo, "true_env_residuals", "montecarlo.true_env_residuals", "span", None),
    (montecarlo, "sample_paths", "montecarlo.sample_paths", "span", _observe_paths),
    (montecarlo, "path_dependence_probe", "montecarlo.path_dependence_probe", "counter", None),
    (montecarlo, "enumerate_chains", "montecarlo.enumerate_chains", "counter", _observe_chains),
    (montecarlo, "chain_translate", "montecarlo.chain_translate", "counter", None),
]


def _ratio(num, den):
    return num / den if den else 0.0


# name -> (unit, better); the per_layer list of BENCHMARK.json, in order.
PER_LAYER = {
    "densities.partial_moments.calls": ("count", "lower"),
    "densities.partial_moments.s": ("s", "lower"),
    "densities.quantile.calls": ("count", "lower"),
    "densities.quantile.s": ("s", "lower"),
    "quantizers.lloyd_max.calls": ("count", "lower"),
    "quantizers.lloyd_max.iterations": ("count", "lower"),
    "quantizers.lloyd_max.s": ("s", "lower"),
    "quantizers.lloyd_max.us_per_iteration": ("us", "lower"),
    "quantizers.multi_start.calls": ("count", "lower"),
    "quantizers.multi_start.s": ("s", "lower"),
    "quantizers.multi_start.useful_ratio": ("ratio", "higher"),
    "quantizers.empty_cell_events": ("count", "lower"),
    "networks.observed_environment.calls": ("count", "lower"),
    "networks.observed_environment.s": ("s", "lower"),
    "networks.word_usage.calls": ("count", "lower"),
    "networks.word_usage.s": ("s", "lower"),
    "game.sweeps": ("count", "lower"),
    "game.sweep.s": ("s", "lower"),
    "game.best_response.calls": ("count", "lower"),
    "game.best_response.s": ("s", "lower"),
    "game.bootstrap.s": ("s", "lower"),
    "game.solve_equilibrium.s": ("s", "lower"),
    "game.solve_equilibrium.self_s": ("s", "lower"),
    "game.verify_nash.s": ("s", "lower"),
    "game.check_social_stability.s": ("s", "lower"),
    "game.refresh_state.s": ("s", "lower"),
    "config.load_state.s": ("s", "lower"),
    "config.load_config.s": ("s", "lower"),
    "montecarlo.sample_paths.calls": ("count", "lower"),
    "montecarlo.sample_paths.s": ("s", "lower"),
    "montecarlo.sample_paths.samples_per_s": ("1/s", "higher"),
    "montecarlo.sample_paths.mean_path_length": ("hops", "lower"),
    "montecarlo.estimate_losses.self_s": ("s", "lower"),
    "montecarlo.true_env_residuals.self_s": ("s", "lower"),
    "montecarlo.truncated": ("count", "lower"),
    "montecarlo.clamped": ("count", "lower"),
    "montecarlo.path_dependence_probe.calls": ("count", "lower"),
    "montecarlo.path_dependence_probe.s": ("s", "lower"),
    "montecarlo.chains_enumerated": ("count", "lower"),
    "montecarlo.chain_translate.s": ("s", "lower"),
    "trace.pass_cpu_s": ("s", "lower"),
}


def layer_metrics(totals, pass_cpu_s: float):
    """The per_layer metrics of one traced run. A layer the workload does not
    reach reports 0 calls, 0 s and 0 for its ratios."""
    t = defaultdict(float, totals)
    derived = {
        "quantizers.lloyd_max.us_per_iteration":
            1e6 * _ratio(t["quantizers.lloyd_max.s"], t["quantizers.lloyd_max.iterations"]),
        # share of Lloyd-Max runs whose result a multi-start returns
        "quantizers.multi_start.useful_ratio":
            _ratio(t["quantizers.multi_start.calls"], t["quantizers.lloyd_max.calls"]),
        "game.sweeps": t["game.sweep.calls"],
        "montecarlo.sample_paths.samples_per_s":
            _ratio(t["montecarlo.sample_paths.samples"], t["montecarlo.sample_paths.s"]),
        "montecarlo.sample_paths.mean_path_length":
            _ratio(t["montecarlo.sample_paths.hops"], t["montecarlo.sample_paths.samples"]),
        "trace.pass_cpu_s": pass_cpu_s,
    }
    return {name: {"value": float(derived.get(name, t[name])), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}
