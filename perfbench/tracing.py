"""Outside-in tracing of the qentropy modules for the benchmark's traced run.

The tracer replaces public functions and methods of each module with thin
wrappers that record a span (name, start, end, parent span, op id) and a few
counts derived from arguments and results.  It patches module attributes,
the names under which other qentropy modules imported them, class methods
and the ``harness.SUITES`` table, and restores all of them on ``uninstall``.
Nothing under ``src/`` changes.  An entry point that no longer exists is
skipped, and its metrics are reported as absent.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# The traced layers, one per module.
MODULES = ("amplitude", "mean_estimation", "estimators", "distinctness", "oracle",
           "distributions", "harness")
ESTIMATOR_FUNCTIONS = (
    "estimate_shannon", "estimate_kl", "estimate_renyi", "estimate_power_sum_high",
    "estimate_power_sum_low", "estimate_power_sum_integer", "estimate_min_entropy",
    "estimate_support_coverage", "estimate_support_size", "exact_expectation",
)
CONTRACTS = ("qmean_additive", "qmean_multiplicative", "bounded_l2_estimate", "median_amplify")
TRUTH_FUNCTIONS = ("shannon_entropy", "power_sum", "renyi_entropy", "min_entropy",
                   "kl_divergence", "support_coverage")
SUITE_NAMES = ("estamp", "sandwich", "poisson", "collision", "meanest")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS: dict[str, str] = {}
for _name, _unit in (
    ("amplitude.lookups", "count"), ("amplitude.builds", "count"),
    ("amplitude.build_s", "s"), ("amplitude.self_s", "s"),
    ("amplitude.kernel_evals", "count"), ("amplitude.table_bytes", "B"),
    ("estimators.payoff_law.builds", "count"), ("estimators.payoff_law.self_s", "s"),
    ("estimators.payoff_law.atoms", "count"),
    ("mean_estimation.moment_sums.calls", "count"),
    ("mean_estimation.moment_sums.self_s", "s"),
    ("mean_estimation.moment_sums.atoms", "count"),
    ("mean_estimation.moment_sums.samples", "count"),
    ("mean_estimation.out_of_contract", "count"),
):
    PER_LAYER_METRICS[_name] = _unit
for _fn in CONTRACTS:
    PER_LAYER_METRICS["mean_estimation.%s.calls" % _fn] = "count"
    PER_LAYER_METRICS["mean_estimation.%s.self_s" % _fn] = "s"
for _fn in ESTIMATOR_FUNCTIONS:
    PER_LAYER_METRICS["estimators.%s.calls" % _fn] = "count"
    PER_LAYER_METRICS["estimators.%s.self_s" % _fn] = "s"
for _name, _unit in (
    ("harness.run_cell_trial.self_s", "s"),
    ("distributions.truth.calls", "count"), ("distributions.truth.self_s", "s"),
    ("distinctness.find_k_collision.calls", "count"),
    ("distinctness.find_k_collision.self_s", "s"),
    ("distinctness.find_k_collision.elements", "count"),
    ("distinctness.count_k_collisions.calls", "count"),
    ("distinctness.count_k_collisions.self_s", "s"),
    ("distinctness.count_k_collisions.elements", "count"),
    ("oracle.draws.calls", "count"), ("oracle.draws.self_s", "s"),
    ("oracle.draws.elements", "count"),
    ("oracle.build_oracle.calls", "count"), ("oracle.build_oracle.self_s", "s"),
    ("oracle.build_oracle.table_bytes", "B"),
):
    PER_LAYER_METRICS[_name] = _unit
for _suite in SUITE_NAMES:
    PER_LAYER_METRICS["harness.verify.%s.self_s" % _suite] = "s"
for _module in MODULES[1:]:  # amplitude.self_s is listed above
    PER_LAYER_METRICS["%s.self_s" % _module] = "s"
for _name, _unit in (
    ("oracle.quantum_queries", "count"), ("oracle.classical_executions", "count"),
    ("trace.spans", "count"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
):
    PER_LAYER_METRICS[_name] = _unit


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays directly attached to an object."""
    return sum(v.nbytes for v in vars(obj).values() if isinstance(v, np.ndarray))


def _law_size(sub) -> int:
    """Atoms of a finite payoff law: outcome values, or both tables per group."""
    for attr in ("values", "_atom_values"):
        values = getattr(sub, attr, None)
        if isinstance(values, np.ndarray):
            return int(values.size)
    tables = getattr(sub, "_tables", None)
    if tables:
        return int(sum(t[1].size + t[4].size for t in tables))
    return 0


def _arg(args, kwargs, position, name, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


class Tracer:
    """Span recorder with per-name counters; spans live in compact arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack = [-1]
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self._attempted: set[str] = set()
        self._patched: set[str] = set()
        self._patches: list[tuple] = []
        self._last_build_parent = -2

    # -- wrapping ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, span: str, fn, count=None):
        nid = self._name_id(span)
        start, end, names, parent, op, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(start)
            start.append(0.0)
            end.append(0.0)
            names.append(nid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if count is not None:
                count(tracer, idx, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _patch_function(self, module_name: str, attr: str, span: str, count=None):
        self._attempted.add(span)
        module = sys.modules["qentropy." + module_name]
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patched.add(span)
        wrapper = self.wrap(span, original, count)
        # The defining module plus every qentropy module that imported the name.
        for name, mod in list(sys.modules.items()):
            if (name == "qentropy" or name.startswith("qentropy.")) and \
                    getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def _patch_method(self, module_name: str, cls_name: str, attr: str, span: str,
                      count=None):
        self._attempted.add(span)
        cls = getattr(sys.modules["qentropy." + module_name], cls_name, None)
        original = None if cls is None else cls.__dict__.get(attr)
        if original is None:
            return
        self._patched.add(span)
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(span, original, count))

    def install(self) -> None:
        import qentropy.harness  # noqa: F401  (loads every traced module)

        mean_estimation = sys.modules["qentropy.mean_estimation"]

        def count_build(tr, idx, args, kwargs, result):
            tr.counts["amplitude.kernel_evals"] += int(_arg(args, kwargs, 1, "M"))
            tr._last_build_parent = tr.parent[idx]

        def count_lookup(tr, idx, args, kwargs, result):
            if tr._last_build_parent == idx:
                tr.counts["amplitude.build_s"] += tr.end[idx] - tr.start[idx]
                tr.counts["amplitude.table_bytes"] += _array_bytes(result)

        def count_law(tr, idx, args, kwargs, result):
            tr.counts["estimators.payoff_law.atoms"] += _law_size(args[0])

        def count_moments(tr, idx, args, kwargs, result):
            tr.counts["mean_estimation.moment_sums.atoms"] += _law_size(args[0])
            tr.counts["mean_estimation.moment_sums.samples"] += int(
                _arg(args, kwargs, 1, "count"))

        def count_contract(tr, idx, args, kwargs, result):
            if getattr(result, "out_of_contract", False):
                tr.counts["mean_estimation.out_of_contract"] += 1

        def count_elements(key):
            def count(tr, idx, args, kwargs, result):
                tr.counts[key] += int(np.size(args[0]))
            return count

        def count_draws(tr, idx, args, kwargs, result):
            tr.counts["oracle.draws.elements"] += int(np.size(result))

        def count_table(tr, idx, args, kwargs, result):
            tr.counts["oracle.build_oracle.table_bytes"] += _array_bytes(result)

        self._patch_function("amplitude", "estamp_distribution", "amplitude.lookup",
                             count_lookup)
        self._patch_function("amplitude", "measurement_probabilities", "amplitude.build",
                             count_build)
        for fn in ("sample_estamp", "sample_estamp_multiplicative"):
            self._patch_function("amplitude", fn, "amplitude." + fn)
        for cls in ("MasterSubroutine", "_RatioSubroutine"):
            self._patch_method("estimators", cls, "__init__", "estimators.payoff_law",
                               count_law)
        self._attempted.add("mean_estimation.moment_sums")
        for cls_name, cls in list(vars(mean_estimation).items()):
            if isinstance(cls, type) and "moment_sums" in cls.__dict__:
                self._patch_method("mean_estimation", cls_name, "moment_sums",
                                   "mean_estimation.moment_sums", count_moments)
        for fn in CONTRACTS:
            self._patch_function("mean_estimation", fn, "mean_estimation." + fn,
                                 None if fn == "median_amplify" else count_contract)
        for fn in ESTIMATOR_FUNCTIONS:
            self._patch_function("estimators", fn, "estimators." + fn)
        self._patch_function("harness", "run_cell_trial", "harness.run_cell_trial")
        for fn in TRUTH_FUNCTIONS:
            self._patch_function("distributions", fn, "distributions.truth")
        for fn in ("find_k_collision", "count_k_collisions"):
            self._patch_function("distinctness", fn, "distinctness." + fn,
                                 count_elements("distinctness.%s.elements" % fn))
        for method in ("sample", "sample_classical", "draws_for_simulation"):
            self._patch_method("oracle", "DistributionOracle", method, "oracle.draws",
                               count_draws)
        self._patch_function("oracle", "build_oracle", "oracle.build_oracle", count_table)

        suites = sys.modules["qentropy.harness"].SUITES
        for suite in SUITE_NAMES:
            self._attempted.add("harness.verify." + suite)
            if suite not in suites:
                continue
            self._patched.add("harness.verify." + suite)
            self._patches.append((suites, suite, suites[suite]))
            suites[suite] = self.wrap("harness.verify." + suite, suites[suite])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            if isinstance(target, dict):
                target[attr] = original
            else:
                setattr(target, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def write_spans(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.span_arrays())

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics from the spans and counters, plus absent names."""
        spans = self.span_arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child_time = np.zeros(duration.size)
        np.add.at(child_time, spans["parent"][has_parent], duration[has_parent])
        self_time = duration - child_time
        calls = np.bincount(spans["name"], minlength=len(self.names))
        self_by_name = np.bincount(spans["name"], weights=self_time,
                                   minlength=len(self.names))
        by_span = {name: (int(calls[i]), float(self_by_name[i]))
                   for i, name in enumerate(self.names)}

        def calls_of(span):
            return by_span.get(span, (0, 0.0))[0]

        def self_of(span):
            return by_span.get(span, (0, 0.0))[1]

        out = dict.fromkeys(PER_LAYER_METRICS, 0.0)
        out.update({k: v for k, v in self.counts.items() if k in out})
        out["amplitude.lookups"] = calls_of("amplitude.lookup")
        out["amplitude.builds"] = calls_of("amplitude.build")
        out["estimators.payoff_law.builds"] = calls_of("estimators.payoff_law")
        for span in (["estimators.payoff_law", "distributions.truth",
                      "mean_estimation.moment_sums", "oracle.draws",
                      "oracle.build_oracle", "distinctness.find_k_collision",
                      "distinctness.count_k_collisions"]
                     + ["mean_estimation." + fn for fn in CONTRACTS]
                     + ["estimators." + fn for fn in ESTIMATOR_FUNCTIONS]):
            if span + ".calls" in out:
                out[span + ".calls"] = calls_of(span)
            out[span + ".self_s"] = self_of(span)
        out["harness.run_cell_trial.self_s"] = self_of("harness.run_cell_trial")
        for suite in SUITE_NAMES:
            out["harness.verify.%s.self_s" % suite] = self_of("harness.verify." + suite)
        for module in MODULES:
            out[module + ".self_s"] = sum(
                s for name, (_, s) in by_span.items() if name.split(".")[0] == module)
        out["trace.spans"] = int(duration.size)

        missing = self._attempted - self._patched
        absent = set()
        for span in missing:
            absent.update(k for k in PER_LAYER_METRICS
                          if k == span or k.startswith(span + "."))
        if "amplitude.build" in missing:
            absent.update(("amplitude.builds", "amplitude.build_s",
                           "amplitude.kernel_evals", "amplitude.table_bytes"))
        if "amplitude.lookup" in missing:
            absent.update(("amplitude.lookups", "amplitude.build_s",
                           "amplitude.table_bytes"))
        if "estimators.payoff_law" in missing:
            absent.add("estimators.payoff_law.builds")
        return out, sorted(absent)
