"""Spans around the program's public functions, installed from outside.

Each wrapper replaces one module-level name that the program looks up at
call time (for example ``ioshock.experiments.ration_random``, which
``run_method`` calls through the ``experiments`` module globals). A span
records its name, start, end and parent; spans stay in memory until the
traced run ends. Counts come from return values, so they repeat exactly
between runs of the same inputs.

A layer's self time is the sum over its spans of the span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import time
from collections import Counter, defaultdict

#: (module, attribute, span name). The same function can be bound in
#: several modules; each binding is wrapped and shares the span name.
TARGETS = (
    ("cli", "parse_economy_csv", "fileio.parse_economy_csv"),
    ("cli", "parse_shocks_csv", "fileio.parse_shocks_csv"),
    ("cli", "write_results", "fileio.write_results"),
    ("cli", "coefficients", "economy.coefficients"),
    ("cli", "make_constraints", "shocks.make_constraints"),
    ("cli", "run_method", "experiments.run_method"),
    ("cli", "sweep_scale", "experiments.sweep_scale"),
    ("cli", "sweep_density", "experiments.sweep_density"),
    ("cli", "summarize", "experiments.summarize"),
    ("experiments", "coefficients", "economy.coefficients"),
    ("experiments", "remove_links", "economy.remove_links"),
    ("experiments", "make_constraints", "shocks.make_constraints"),
    ("experiments", "evaluate_point", "experiments.evaluate_point"),
    ("experiments", "run_method", "experiments.run_method"),
    ("experiments", "optimal_allocation", "lp.optimal_allocation"),
    ("experiments", "ration_proportional", "rationing.ration_proportional"),
    ("experiments", "ration_mixed", "rationing.ration_mixed"),
    ("experiments", "ration_largest_first", "rationing.ration_largest_first"),
    ("experiments", "ration_random", "rationing.ration_random"),
    ("experiments", "classify", "meem.classify"),
    ("experiments", "solve_meem", "meem.solve_meem"),
    ("lp", "build_max_output_lp", "lp.build_max_output_lp"),
    ("lp", "build_max_consumption_lp", "lp.build_max_consumption_lp"),
    ("lp", "solve", "lp.solve"),
    ("rationing", "largest_first_rankings", "rationing.largest_first_rankings"),
    ("rationing", "random_rankings", "rationing.random_rankings"),
    ("rationing", "allocation_is_feasible", "shocks.allocation_is_feasible"),
    ("shocks", "allocation_is_feasible", "shocks.allocation_is_feasible"),
)

ROOT_SPAN = "cli.run_command"
RULES = ("proportional", "mixed", "largest_first", "random")


class Tracer:
    """In-memory span recorder plus per-name counters from return values."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, returned]
        self.stack = []
        self.counts = Counter()
        #: span names with at least one installed wrapper
        self.wrapped = set()
        #: targets the program no longer has
        self.missing = []

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, True])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.spans[index][4] = False
                self.count_error(name)
                raise
            finally:
                self.close(index)
            self.count(name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, result):
        c = self.counts
        c[name + ".calls"] += 1
        if name.startswith("rationing.ration_"):
            rule = name[len("rationing.ration_"):]
            c[rule + ".iters"] += result.iterations
            if result.converged:
                c["converged_iters"] += result.iterations
            else:
                c[rule + ".nonconverged"] += 1
        elif name == "lp.solve":
            c["lp.pivots"] += result.iterations
            if result.status != "optimal":
                c["lp.failed"] += 1
        elif name == "fileio.write_results":
            c["fileio.bytes"] += sum(os.path.getsize(p) for p in result)
        elif name == "meem.solve_meem":
            c["meem.violations"] += int(
                result.negative_consumption.sum()
                + result.consumption_above_max.sum()
                + result.output_above_max.sum()
                + result.negative_output.sum())

    def count_error(self, name):
        self.counts[name + ".calls"] += 1
        if name == "lp.solve":
            self.counts["lp.failed"] += 1

    def self_times(self, raised=True):
        """Self time per span name; ``raised=False`` leaves out the spans
        whose call raised."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for k, (name, start, end, _, returned) in enumerate(self.spans):
            if returned or raised:
                out[name] += end - start - child[k]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [{"name": n, "start": s, "end": e, "parent": p,
                                  "returned": r}
                                 for n, s, e, p, r in self.spans],
                       "counts": dict(self.counts),
                       "missing": self.missing}, fh)


@contextlib.contextmanager
def installed(tracer):
    """Replace every target that still exists; restore all on exit."""
    saved = []
    try:
        for module, attr, name in TARGETS:
            mod = importlib.import_module("ioshock." + module)
            fn = getattr(mod, attr, None)
            if fn is None:
                tracer.missing.append(f"ioshock.{module}.{attr}")
                continue
            saved.append((mod, attr, fn))
            tracer.wrapped.add(name)
            setattr(mod, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """Per-layer values, keyed as in BENCHMARK.json, from one traced run.

    A metric is left out when none of the spans it reads could be
    installed, because the program no longer has those names.
    """
    st, c = tracer.self_times(), tracer.counts
    m = {}

    def put(spans, values):
        if any(s in tracer.wrapped for s in spans):
            m.update(values)

    def self_s(*spans):
        return sum(st.get(s, 0.0) for s in spans)

    for rule in RULES:
        span = "rationing.ration_" + rule
        iters = c[rule + ".iters"]
        put([span], {
            f"rationing.{rule}_s": self_s(span),
            f"rationing.{rule}_calls": c[span + ".calls"],
            f"rationing.{rule}_iters": iters,
            f"rationing.{rule}_s_per_iter": _ratio(self_s(span), iters),
            f"rationing.{rule}_nonconverged": c[rule + ".nonconverged"],
        })
    rankings = ("rationing.largest_first_rankings", "rationing.random_rankings")
    put(rankings, {"rationing.rankings_s": self_s(*rankings)})
    put(["rationing.ration_" + r for r in RULES], {
        "rationing.useful_iter_ratio": _ratio(
            c["converged_iters"], sum(c[r + ".iters"] for r in RULES))})
    put(["lp.solve"], {
        "lp.solve_s": self_s("lp.solve", "lp.optimal_allocation"),
        "lp.solves": c["lp.solve.calls"],
        "lp.pivots": c["lp.pivots"],
        # pivots are counted from returned solutions only, so a solve
        # that raises is left out of the time per pivot too
        "lp.s_per_pivot": _ratio(tracer.self_times(raised=False).get("lp.solve", 0.0),
                                 c["lp.pivots"]),
        "lp.failed": c["lp.failed"],
    })
    builds = ("lp.build_max_output_lp", "lp.build_max_consumption_lp")
    put(builds, {"lp.build_s": self_s(*builds)})
    put(["experiments.run_method"], {
        "experiments.evals": c["experiments.run_method.calls"],
        "experiments.self_s": self_s("experiments.sweep_scale",
                                     "experiments.sweep_density",
                                     "experiments.evaluate_point",
                                     "experiments.run_method"),
    })
    put(["experiments.summarize"],
        {"experiments.summarize_s": self_s("experiments.summarize")})
    put(["fileio.parse_economy_csv"],
        {"fileio.parse_economy_s": self_s("fileio.parse_economy_csv")})
    put(["fileio.parse_shocks_csv"],
        {"fileio.parse_shocks_s": self_s("fileio.parse_shocks_csv")})
    put(["fileio.write_results"], {
        "fileio.write_results_s": self_s("fileio.write_results"),
        "fileio.bytes_written": c["fileio.bytes"],
    })
    put(["economy.coefficients"], {
        "economy.coefficients_s": self_s("economy.coefficients"),
        "economy.coefficients_calls": c["economy.coefficients.calls"],
    })
    put(["economy.remove_links"],
        {"economy.remove_links_s": self_s("economy.remove_links")})
    put(["shocks.make_constraints"],
        {"shocks.make_constraints_s": self_s("shocks.make_constraints")})
    put(["shocks.allocation_is_feasible"],
        {"shocks.feasibility_check_s": self_s("shocks.allocation_is_feasible")})
    put(["meem.solve_meem"], {
        "meem.s": self_s("meem.classify", "meem.solve_meem"),
        "meem.calls": c["meem.solve_meem.calls"],
        "meem.violations": c["meem.violations"],
    })
    m["cli.self_s"] = self_s(ROOT_SPAN)
    return m
