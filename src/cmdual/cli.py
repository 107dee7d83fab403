"""Command-line front end.

Subcommands: dominance, audit, solve, derivatives, invert, cex1, cex2,
sd-equiv.  Inputs are JSON files in the schemas documented in the README;
outputs are deterministic JSON or CSV (17 significant digits, so doubles
round-trip).  Exit codes: 0 success/PASS, 1 verdict FAIL, 2 input error,
3 numerical failure.  A divergence verdict from cex1 is the expected
finding there and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .dominance import Distribution, dominates_inf, dominates_n, test_function_audit
from .duality import UtilitySpec, footnote_utility
from .errors import CmdualError
from .solver import FiniteMarket, MarketModel, ValueFunctionPair, sd_equivalence_audit

MAX_ORDER = 8
MAX_INVERT_ORDER = 16


@dataclass
class RunConfig:
    subcommand: str
    inputs: dict = field(default_factory=dict)
    order: float = 2
    grid: tuple[float, float, int] = (0.5, 2.0, 4)
    x: float = 1.0
    z: float = 1.0
    truncations: tuple[int, ...] = (10**3, 10**4, 10**5, 10**6)
    eps: tuple[float, ...] = (1e-2, 1e-3, 1e-4)
    n_states: int = 200
    family_size: int = 100
    seed: int = 0
    out: str = "json"
    output: Optional[str] = None
    candidate: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        cap = MAX_INVERT_ORDER if self.subcommand == "invert" else MAX_ORDER
        if self.order == math.inf and self.subcommand not in ("dominance", "audit"):
            raise ValueError("order inf applies to dominance and audit only")
        if self.order != math.inf and not (1 <= self.order <= cap):
            raise ValueError(f"order must lie in 1..{cap}")
        a, b, steps = self.grid
        if not all(map(math.isfinite, (self.x, self.z, a, b, *self.eps,
                                       *(self.candidate or ())))):
            raise ValueError("x, z, grid ends, eps and candidate must be finite")
        if not (a < b and steps >= 2):
            raise ValueError("grid must satisfy a < b and steps >= 2")
        if self.family_size < 1:
            raise ValueError("family size must be >= 1")
        if self.out not in ("json", "csv"):
            raise ValueError("out must be json or csv")
        if any(e <= 0 for e in self.eps):
            raise ValueError("eps values must be positive")


def _parse_order(text: str) -> float:
    return math.inf if text in ("inf", "infinity") else int(text)


def _parse_grid(text: str) -> tuple[float, float, int]:
    a, b, steps = text.split(":")
    return float(a), float(b), int(steps)


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _emit(cfg: RunConfig, text: str):
    if not text.endswith("\n"):
        text += "\n"
    if cfg.output:
        with open(cfg.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=1)


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("%.17g" % v for v in row))
    return "\n".join(lines)


def _run_dominance(cfg: RunConfig) -> int:
    F = Distribution.from_dict(cfg.inputs["F"])
    G = Distribution.from_dict(cfg.inputs["G"])
    if cfg.order == math.inf:
        verdict = dominates_inf(F, G)
    else:
        verdict = dominates_n(F, G, int(cfg.order))
    _emit(cfg, _json_text(verdict.to_dict()))
    return 0 if verdict.dominates else 1


def _run_audit(cfg: RunConfig) -> int:
    F = Distribution.from_dict(cfg.inputs["F"])
    G = Distribution.from_dict(cfg.inputs["G"])
    report = test_function_audit(F, G, cfg.order, cfg.family_size, cfg.seed)
    payload = {"ok": report.ok, "tested": report.tested,
               "counterexample": report.counterexample}
    _emit(cfg, _json_text(payload))
    return 0 if report.ok else 1


def _solve_row(pair: ValueFunctionPair, order: int, x: float) -> list[float]:
    uderivs = pair.primal_derivatives(order, x)
    y = uderivs[0]
    row = [x, pair.primal_value(x), *uderivs]
    row += [y, pair.dual_value(y)]
    row += [pair.dual_derivative(k, y) for k in range(1, order + 1)]
    return row


def _run_solve(cfg: RunConfig) -> int:
    utility = UtilitySpec.from_dict(cfg.inputs["utility"])
    model = MarketModel.from_dict(cfg.inputs["model"])
    pair = ValueFunctionPair(utility, model)
    order = int(cfg.order)
    a, b, steps = cfg.grid
    xs = np.linspace(a, b, steps)
    rows = [_solve_row(pair, order, x) for x in xs]
    header = (["x", "u"] + [f"u_{k}" for k in range(1, order + 1)]
              + ["y", "v"] + [f"v_{k}" for k in range(1, order + 1)])
    if cfg.out == "csv":
        _emit(cfg, _csv_text(header, rows))
    else:
        _emit(cfg, _json_text({"columns": header,
                               "rows": [list(r) for r in rows]}))
    return 0


def _run_derivatives(cfg: RunConfig) -> int:
    utility = UtilitySpec.from_dict(cfg.inputs["utility"])
    model = MarketModel.from_dict(cfg.inputs["model"])
    pair = ValueFunctionPair(utility, model)
    order = int(cfg.order)
    terminal = pair.optimizer_terminal(cfg.x)
    tables = {n: pair.optimizer_derivative(n, cfg.x).values
              for n in range(1, order + 1)}
    header = ["deflator", "weight", "x_hat"] + [f"d{n}" for n in tables]
    rows = [
        [terminal.deflator[i], terminal.weights[i], terminal.values[i]]
        + [tables[n][i] for n in tables]
        for i in range(terminal.deflator.size)
    ]
    if cfg.out == "csv":
        _emit(cfg, _csv_text(header, rows))
    else:
        _emit(cfg, _json_text({"columns": header,
                               "rows": [list(map(float, r)) for r in rows]}))
    return 0


def _run_invert(cfg: RunConfig) -> int:
    utility = UtilitySpec.from_dict(cfg.inputs["utility"])
    model = MarketModel.from_dict(cfg.inputs["model"])
    pair = ValueFunctionPair(utility, model)
    mass = pair.widder_invert(cfg.z, int(cfg.order))
    _emit(cfg, _json_text({"z": cfg.z, "order": int(cfg.order), "mass": mass}))
    return 0


def _run_cex1(cfg: RunConfig) -> int:
    from . import counterexamples as cex

    truncations = cex.check_truncations(cfg.truncations)  # before any work
    inst = cex.Cex1Instance(order=int(cfg.order), n_trunc=truncations[-1])
    finite = {str(k): v for k, v in cex.cex1_verify_finite(inst).items()}
    report = cex.cex1_divergence(inst, truncations)
    payload = report.to_dict()
    payload["finite_orders_at_1"] = finite
    if cfg.out == "csv":
        rows = list(zip(report.truncations, report.partial_sums))
        _emit(cfg, _csv_text(["truncation", "partial_sum"], rows))
    else:
        _emit(cfg, _json_text(payload))
    # divergence is the expected verdict: report it, exit 0
    return 0 if report.diverges else 1


def _run_cex2(cfg: RunConfig) -> int:
    from .counterexamples import cex2_build, cex2_gap

    utility = (UtilitySpec.from_dict(cfg.inputs["utility"])
               if "utility" in cfg.inputs else footnote_utility(1))
    inst = cex2_build(utility, cfg.n_states)
    report = cex2_gap(inst, cfg.eps)
    if cfg.out == "csv":
        rows = list(zip(report.eps, report.d_plus, report.d_minus))
        _emit(cfg, _csv_text(["eps", "d_plus", "d_minus"], rows))
    else:
        _emit(cfg, _json_text(report.to_dict()))
    return 0 if report.gap > 0 else 1


def _run_sd_equiv(cfg: RunConfig) -> int:
    fm = FiniteMarket.from_dict(cfg.inputs["market"])
    report = sd_equivalence_audit(fm, candidate=cfg.candidate)
    _emit(cfg, _json_text(report.to_dict()))
    ok = report.all_agree or not report.maximal_exists
    return 0 if ok else 1


_RUNNERS = {
    "dominance": _run_dominance,
    "audit": _run_audit,
    "solve": _run_solve,
    "derivatives": _run_derivatives,
    "invert": _run_invert,
    "cex1": _run_cex1,
    "cex2": _run_cex2,
    "sd-equiv": _run_sd_equiv,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration; returns the process exit code."""
    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except (CmdualError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(
        prog="cmdual",
        description="Completely monotone calculus, dominance tests, and "
                    "expected-utility duality")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--out", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write here, not stdout")

    p = sub.add_parser("dominance", help="order-n or infinite-order dominance")
    p.add_argument("F"), p.add_argument("G")
    p.add_argument("--order", default="inf")
    add_common(p)

    p = sub.add_parser("audit", help="test-function cross-check of dominance")
    p.add_argument("F"), p.add_argument("G")
    p.add_argument("--order", default="2")
    p.add_argument("--family-size", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("solve", help="value functions and derivatives on a grid")
    p.add_argument("--utility", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", default="4")
    p.add_argument("--grid", default="0.5:2:4")
    add_common(p)

    p = sub.add_parser("derivatives", help="optimizer per-state derivatives")
    p.add_argument("--utility", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", default="2")
    p.add_argument("--x", type=float, default=1.0)
    add_common(p)

    p = sub.add_parser("invert", help="recover measure mass behind -v'")
    p.add_argument("--utility", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--order", default="8")
    p.add_argument("--z", type=float, required=True)
    add_common(p)

    p = sub.add_parser("cex1", help="divergence of the (n+1)-st dual derivative")
    p.add_argument("--order", default="2")
    p.add_argument("--truncations", default="1000,10000,100000,1000000")
    add_common(p)

    p = sub.add_parser("cex2", help="second-difference gap of the value function")
    p.add_argument("--utility", default=None)
    p.add_argument("--N", type=int, default=200, dest="n_states")
    p.add_argument("--eps", default="1e-2,1e-3,1e-4")
    add_common(p)

    p = sub.add_parser("sd-equiv", help="three-way maximality audit")
    p.add_argument("--market", required=True)
    p.add_argument("--candidate", default=None,
                   help="comma-separated terminal deflator values")
    add_common(p)
    return parser


def _config_from_args(args) -> RunConfig:
    inputs = {key: _load_json(getattr(args, key))
              for key in ("F", "G", "utility", "model", "market")
              if getattr(args, key, None)}
    kw = dict(
        subcommand=args.subcommand,
        inputs=inputs,
        out=args.out,
        output=args.output,
    )
    if hasattr(args, "order"):
        kw["order"] = _parse_order(args.order)
    if hasattr(args, "grid"):
        kw["grid"] = _parse_grid(args.grid)
    for key in ("x", "z", "n_states", "family_size", "seed"):
        if hasattr(args, key):
            kw[key] = getattr(args, key)
    if getattr(args, "truncations", None):
        kw["truncations"] = tuple(int(float(v))
                                  for v in args.truncations.split(","))
    if getattr(args, "eps", None):
        kw["eps"] = _parse_floats(args.eps)
    if getattr(args, "candidate", None):
        kw["candidate"] = _parse_floats(args.candidate)
    return RunConfig(**kw)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a JSONDecodeError is a ValueError; int(inf) in --truncations overflows
    try:
        cfg = _config_from_args(args)
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
