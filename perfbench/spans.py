"""Span tracing around the public functions of each cacherec layer.

`Tracer.install` replaces every public function of the layer modules by a
wrapper that records one span (name, start, end, parent, workload, run) per
call, and rebinds the names other layer modules imported with
`from .module import name`, so calls made through those bindings are traced
too. Spans stay in memory until `write` is called at the end of a run.

`layer_metrics` turns the spans of the traced passes into the per-layer
metrics listed in BENCHMARK.json: self time per layer (span duration minus
the time its direct child spans cover), inclusive time of named functions,
and counts taken from return values at the same boundaries.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYERS = ("data", "model", "lp", "simplex", "policies", "markov", "sim", "cli")

#: Inclusive-time metrics: metric name -> span names whose durations it sums.
INCLUSIVE = {
    "simplex.solve_s": ("simplex.solve",),
    "lp.build_s": ("lp.build_session_lp", "lp.build_positional_lp",
                   "lp.build_greedy_row_lps"),
    "lp.recover_s": ("lp.recover_policy",),
    "cli.policy_io_s": ("cli.read_policy_csv", "cli.write_policy_csv"),
    "data.scenario_s": ("data.scenario_from_config",),
    "markov.evaluate_s": ("markov.evaluate",),
    "model.validate_s": ("model.validate_policy",),
    "sim.simulate_s": ("sim.simulate",),
}

#: Count metrics, filled from the return values at the span boundary.
COUNTS = ("simplex.calls", "simplex.iterations", "simplex.failed", "lp.n_vars",
          "lp.nnz", "markov.calls", "sim.steps")


def _count_solve(counts, result, error):
    counts["simplex.calls"] += 1
    if error is not None or result.status != "optimal":
        counts["simplex.failed"] += 1
    if error is None:
        counts["simplex.iterations"] += result.iterations


def _count_build(counts, result, error):
    if error is not None:
        return
    for problem in result if isinstance(result, list) else [result]:
        counts["lp.n_vars"] += problem.n_vars
        counts["lp.nnz"] += problem.a_eq.nnz + problem.a_ub.nnz


def _count_evaluate(counts, result, error):
    counts["markov.calls"] += 1


def _count_simulate(counts, result, error):
    if error is None:
        counts["sim.steps"] += result.steps


COUNTERS = {
    "simplex.solve": _count_solve,
    "lp.build_session_lp": _count_build,
    "lp.build_positional_lp": _count_build,
    "lp.build_greedy_row_lps": _count_build,
    "markov.evaluate": _count_evaluate,
    "sim.simulate": _count_simulate,
}


class Tracer:
    """Records spans and counts while `active`; inert otherwise."""

    def __init__(self, workload: str):
        self.workload = workload
        self.run = "setup"
        self.active = False
        self.spans: list[list] = []      # [name, start, end, parent, run]
        self.counts: dict = {}
        self._stack: list[int] = []
        self.t0 = time.perf_counter()

    def _wrap(self, fn, name):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent, self.run])
            self._stack.append(idx)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    counts = self.counts.setdefault(self.run, dict.fromkeys(COUNTS, 0))
                    counter(counts, result, error)
        return traced

    def install(self) -> None:
        """Wrap each layer's public functions and every binding of them."""
        modules = {layer: importlib.import_module(f"cacherec.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    setattr(mod, attr, wrapped[id(value)])

    def write(self, path, header: dict) -> None:
        """Write a header line, then one JSON object per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "workload": self.workload, "run": run}) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(tracer: Tracer, passes: list) -> dict[str, float]:
    """Per-layer metrics, averaged over the traced passes `passes` (run ids)."""
    runs = set(passes)
    selfs = self_times(tracer.spans)
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update(dict.fromkeys(INCLUSIVE, 0.0))
    out.update(dict.fromkeys(COUNTS, 0))
    out["cli.sweep_self_s"] = 0.0
    by_name = {span: metric for metric, names in INCLUSIVE.items() for span in names}
    for span, own in zip(tracer.spans, selfs):
        name, start, end, _, run = span
        if run not in runs:
            continue
        out[name.split(".", 1)[0] + ".self_s"] += own
        if name in by_name:
            out[by_name[name]] += end - start
        if name == "cli.run_sweep":
            out["cli.sweep_self_s"] += own
    for run in runs:
        for key, value in tracer.counts.get(run, {}).items():
            out[key] += value
    return {key: value / len(runs) for key, value in out.items()}


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Inclusive data and policy-file time spent during the traced set-up."""
    metrics = {"data.setup_scenario_s": 0.0, "cli.setup_policy_io_s": 0.0}
    for name, start, end, _, run in tracer.spans:
        if run != "setup":
            continue
        if name in INCLUSIVE["data.scenario_s"]:
            metrics["data.setup_scenario_s"] += end - start
        elif name in INCLUSIVE["cli.policy_io_s"]:
            metrics["cli.setup_policy_io_s"] += end - start
    return metrics
