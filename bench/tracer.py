"""Wrappers around cmdual's public functions, installed from outside.

The program stays untouched: each traced function is replaced, in every
``cmdual`` module that binds it, by a wrapper that keeps an in-memory
aggregate (calls, inclusive time, self time, exceptions by class).  Methods
are replaced on their classes.  Self time is inclusive time minus the time
spent in nested traced calls.  Spans are kept for the workload's
operations and for the traced calls they make directly; everything is
written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

# metric prefix -> (module, attribute); "Class.method" patches the class and
# "*.method" patches every class of the module that defines the method
TARGETS = {
    "cli.main": ("cmdual.cli", "main"),
    "measures.laplace_moment": ("cmdual.measures", "laplace_moment"),
    "measures.exp_difference_moment": ("cmdual.measures",
                                       "exp_difference_moment"),
    "measures.mass": ("cmdual.measures", "mass"),
    "duality.invert_decreasing": ("cmdual.duality", "invert_decreasing"),
    "duality.inverse_marginal": ("cmdual.duality", "*.inverse_marginal"),
    "duality.conjugate_derivative": ("cmdual.duality", "*.conjugate_derivative"),
    "duality.marginal": ("cmdual.duality", "*.marginal"),
    "duality.value": ("cmdual.duality", "*.value"),
    "duality.second": ("cmdual.duality", "*.second"),
    "cmcalc.DnFunction.derivative": ("cmdual.cmcalc", "DnFunction.derivative"),
    "cmcalc.DnFunction.value": ("cmdual.cmcalc", "DnFunction.value"),
    "dominance.dominates_inf": ("cmdual.dominance", "dominates_inf"),
    "dominance.dominates_n": ("cmdual.dominance", "dominates_n"),
    "dominance.test_function_audit": ("cmdual.dominance", "test_function_audit"),
    "dominance.Lognormal.laplace": ("cmdual.dominance", "Lognormal.laplace"),
    "dominance.Discrete.laplace": ("cmdual.dominance", "Discrete.laplace"),
    "dominance.Lognormal.iterated": ("cmdual.dominance", "Lognormal.iterated"),
    "dominance.Discrete.iterated": ("cmdual.dominance", "Discrete.iterated"),
    "solver.ValueFunctionPair.init": ("cmdual.solver",
                                      "ValueFunctionPair.__init__"),
    "solver.dual_value": ("cmdual.solver", "ValueFunctionPair.dual_value"),
    "solver.dual_derivative": ("cmdual.solver",
                               "ValueFunctionPair.dual_derivative"),
    "solver.primal_marginal": ("cmdual.solver",
                               "ValueFunctionPair.primal_marginal"),
    "solver.primal_derivatives": ("cmdual.solver",
                                  "ValueFunctionPair.primal_derivatives"),
    "solver.optimizer_derivative": ("cmdual.solver",
                                    "ValueFunctionPair.optimizer_derivative"),
    "solver.widder_invert": ("cmdual.solver", "ValueFunctionPair.widder_invert"),
    "solver.sd_equivalence_audit": ("cmdual.solver", "sd_equivalence_audit"),
    "solver.FiniteMarket.deflator_vertices": ("cmdual.solver",
                                              "FiniteMarket.deflator_vertices"),
    "solver.FiniteMarket.has_positive_deflator": (
        "cmdual.solver", "FiniteMarket.has_positive_deflator"),
    "solver.merged_law": ("cmdual.solver", "merged_law"),
    "counterexamples.cex2_build": ("cmdual.counterexamples", "cex2_build"),
    "counterexamples.cex2_gap": ("cmdual.counterexamples", "cex2_gap"),
    "counterexamples.cex1_verify_finite": ("cmdual.counterexamples",
                                           "cex1_verify_finite"),
    "counterexamples.cex1_divergence": ("cmdual.counterexamples",
                                        "cex1_divergence"),
    "partitions.multiplicity_partitions": ("cmdual.partitions",
                                           "multiplicity_partitions"),
}

LAPLACE = ("dominance.Lognormal.laplace", "dominance.Discrete.laplace")
VERDICTS = ("dominance.dominates_inf", "dominance.dominates_n")


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    exceptions: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self):
        self.stats = {key: Stat() for key in TARGETS}
        self.errors = Counter()        # exceptions escaping traced calls
        self.laplace_points = 0
        self.verdicts = Counter()
        self.spans = []
        self._stack = []               # [key, child time] per open call
        self._op_span = None
        self._patches = []
        self.missing = []

    # -- spans for the workload's operations ----------------------------------

    def begin_op(self, name, parent=None):
        span = {"id": len(self.spans), "parent": parent, "name": name,
                "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._op_span = span["id"]
        return span["id"]

    def end_op(self, span_id):
        self.spans[span_id]["end"] = time.perf_counter()
        self._op_span = None

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, key, fn):
        stack, stat = self._stack, self.stats[key]
        is_laplace, is_verdict = key in LAPLACE, key in VERDICTS

        def traced(*args, **kwargs):
            if is_laplace and not any(k in LAPLACE for k, _ in stack):
                z = args[1] if len(args) > 1 else kwargs["z"]
                self.laplace_points += _size(z)
            span = None
            if not stack and self._op_span is not None:
                span = {"id": len(self.spans), "parent": self._op_span,
                        "name": key, "start": 0.0, "end": None}
                self.spans.append(span)
            frame = [key, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                stat.exceptions[type(exc).__name__] += 1
                if not getattr(exc, "_bench_counted", False):
                    self.errors[type(exc).__name__] += 1
                    try:
                        exc._bench_counted = True
                    except AttributeError:
                        pass
                raise
            finally:
                t1 = time.perf_counter()
                dt = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                stat.calls += 1
                stat.incl_s += dt
                stat.self_s += dt - frame[1]
                if span is not None:
                    span["start"], span["end"] = t0, t1
            if is_verdict:
                self.verdicts["dominates" if out.dominates else "violated"] += 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def install(self):
        """Wrap every target; a target the program no longer has is listed
        in ``missing`` and its metrics read 0."""
        for key, (modname, attr) in TARGETS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(key)
                continue
            owner, _, method = attr.rpartition(".")
            if owner not in ("", "*") and method not in vars(
                    getattr(module, owner, object)):
                self.missing.append(key)
                continue
            if not owner:
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(key)
                    continue
                wrapped = self._wrap(key, original)
                for name, mod in list(sys.modules.items()):
                    if name == "cmdual" or name.startswith("cmdual."):
                        for bound, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, bound, wrapped)
                continue
            classes = ([getattr(module, owner)] if owner != "*" else
                       [c for c in vars(module).values()
                        if isinstance(c, type) and c.__module__ == modname
                        and method in vars(c)])
            for cls in classes:
                self._patch(cls, method, self._wrap(key, vars(cls)[method]))

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()


def _size(z):
    try:
        return int(getattr(z, "size", None) or len(z))
    except TypeError:
        return 1


ERROR_CLASSES = ("InvalidMeasure", "NonIntegrable", "OrderExceeded",
                 "TailDivergent", "NotVanishing", "QuadratureFailure",
                 "RangeError", "NoRoot", "DualInfinite", "DivergentMoment",
                 "EnvelopeViolation", "ConstantRRA", "PolytopeEmpty",
                 "ValueError")
WARNING_CLASSES = ("IntegrationWarning", "OptimumAtBoundary", "RuntimeWarning")


def _split(counts: Counter, named, prefix):
    out = {f"{prefix}.{name}.count": counts[name] for name in named}
    out[f"{prefix}.other.count"] = sum(v for k, v in counts.items()
                                      if k not in named)
    return out


def layer_metrics(tracer: Tracer, warning_counts: Counter) -> dict:
    """Per-layer metrics from one traced pass."""
    out = {}
    for key, st in tracer.stats.items():
        out[f"{key}.calls"] = st.calls
        out[f"{key}.self_s"] = st.self_s
    solves = tracer.stats["duality.invert_decreasing"].calls
    evals = tracer.stats["duality.inverse_marginal"].calls
    out["duality.evals_per_solve"] = evals / solves if solves else 0.0
    out["dominance.laplace_points"] = tracer.laplace_points
    out["dominance.verdicts.dominates"] = tracer.verdicts["dominates"]
    out["dominance.verdicts.violated"] = tracer.verdicts["violated"]
    out.update(_split(tracer.errors, ERROR_CLASSES, "errors"))
    out.update(_split(warning_counts, WARNING_CLASSES, "warnings"))
    return out
