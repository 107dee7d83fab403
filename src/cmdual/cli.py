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

import numpy as np

from .dominance import Distribution, dominates_inf, dominates_n, test_function_audit
from .duality import UtilitySpec
from .errors import CmdualError, ConstantRRA, OrderExceeded
from .solver import FiniteMarket, MarketModel, ValueFunctionPair, sd_equivalence_audit

MAX_ORDER = 8
MAX_INVERT_ORDER = 16


def _check(args) -> None:
    """Load the JSON inputs, and convert and validate the options, in place."""
    for key in ("F", "G", "utility", "model", "market"):
        if getattr(args, key, None):
            with open(getattr(args, key)) as fh:
                setattr(args, key, json.load(fh))
    finite = [getattr(args, key) for key in ("x", "z") if hasattr(args, key)]
    if hasattr(args, "order"):
        args.order = (math.inf if args.order in ("inf", "infinity")
                      else int(args.order))
        cap = MAX_INVERT_ORDER if args.subcommand == "invert" else MAX_ORDER
        if args.order == math.inf and args.subcommand not in ("dominance", "audit"):
            raise ValueError("order inf applies to dominance and audit only")
        if args.order != math.inf and not (1 <= args.order <= cap):
            raise ValueError(f"order must lie in 1..{cap}")
    if hasattr(args, "grid"):
        a, b, steps = args.grid.split(":")
        args.grid = (float(a), float(b), int(steps))
        a, b, steps = args.grid
        finite += [a, b]
        if not (a < b and steps >= 2):
            raise ValueError("grid must satisfy a < b and steps >= 2")
    if hasattr(args, "truncations"):
        args.truncations = tuple(int(float(v))
                                 for v in args.truncations.split(","))
    if hasattr(args, "eps"):
        args.eps = tuple(float(v) for v in args.eps.split(","))
        finite += args.eps
        if any(e <= 0 for e in args.eps):
            raise ValueError("eps values must be positive")
    if hasattr(args, "candidate"):
        args.candidate = (tuple(float(v) for v in args.candidate.split(","))
                          if args.candidate else None)
        finite += args.candidate or ()
    if not all(map(math.isfinite, finite)):
        raise ValueError("x, z, grid ends, eps and candidate must be finite")
    if getattr(args, "family_size", 1) < 1:
        raise ValueError("family size must be >= 1")


def _emit(args, payload, table=None):
    """Write ``table`` = (header, rows) as CSV under ``--out csv``, and
    ``payload`` as JSON otherwise, to ``--output`` or stdout."""
    if table is not None and args.out == "csv":
        header, rows = table
        text = "\n".join([",".join(header),
                          *(",".join("%.17g" % v for v in row) for row in rows)])
    else:
        text = json.dumps(payload, sort_keys=True, indent=1)
    text += "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(header, rows):
    """The JSON payload of a table, and the table for CSV."""
    rows = [[float(v) for v in row] for row in rows]
    return {"columns": header, "rows": rows}, (header, rows)


def _pair(args) -> ValueFunctionPair:
    return ValueFunctionPair(UtilitySpec.from_dict(args.utility),
                             MarketModel.from_dict(args.model))


def _run_dominance(args) -> int:
    F = Distribution.from_dict(args.F)
    G = Distribution.from_dict(args.G)
    if args.order == math.inf:
        verdict = dominates_inf(F, G)
    else:
        verdict = dominates_n(F, G, args.order)
    _emit(args, verdict.to_dict())
    return 0 if verdict.dominates else 1


def _run_audit(args) -> int:
    F = Distribution.from_dict(args.F)
    G = Distribution.from_dict(args.G)
    report = test_function_audit(F, G, args.order, args.family_size, args.seed)
    _emit(args, {"ok": report.ok, "tested": report.tested,
                 "counterexample": report.counterexample})
    return 0 if report.ok else 1


def _solve_row(pair: ValueFunctionPair, order: int, x: float) -> list[float]:
    uderivs = pair.primal_derivatives(order, x)
    y = uderivs[0]
    row = [x, pair.primal_value(x), *uderivs]
    row += [y, pair.dual_value(y)]
    row += [pair.dual_derivative(k, y) for k in range(1, order + 1)]
    return row


def _run_solve(args) -> int:
    pair = _pair(args)
    order = args.order
    rows = [_solve_row(pair, order, x) for x in np.linspace(*args.grid)]
    header = (["x", "u"] + [f"u_{k}" for k in range(1, order + 1)]
              + ["y", "v"] + [f"v_{k}" for k in range(1, order + 1)])
    _emit(args, *_table(header, rows))
    return 0


def _run_derivatives(args) -> int:
    pair = _pair(args)
    terminal = pair.optimizer_terminal(args.x)
    tables = pair.optimizer_derivatives(args.order, args.x)
    header = ["deflator", "weight", "x_hat"] + [
        f"d{n}" for n in range(1, args.order + 1)]
    rows = zip(terminal.deflator, terminal.weights, terminal.values, *tables)
    _emit(args, *_table(header, rows))
    return 0


def _run_invert(args) -> int:
    mass = _pair(args).widder_invert(args.z, args.order)
    _emit(args, {"z": args.z, "order": args.order, "mass": mass})
    return 0


def _run_cex1(args) -> int:
    from . import counterexamples as cex

    truncations = cex.check_truncations(args.truncations)  # before any work
    inst = cex.Cex1Instance(order=args.order, n_trunc=truncations[-1])
    finite = {str(k): v for k, v in cex.cex1_verify_finite(inst).items()}
    report = cex.cex1_divergence(inst, truncations)
    payload = report.to_dict()
    payload["finite_orders_at_1"] = finite
    _emit(args, payload, (["truncation", "partial_sum"],
                          zip(report.truncations, report.partial_sums)))
    # divergence is the expected verdict: report it, exit 0
    return 0 if report.diverges else 1


def _run_cex2(args) -> int:
    from .counterexamples import cex2_build, cex2_gap

    utility = UtilitySpec.from_dict(args.utility) if args.utility else None
    report = cex2_gap(cex2_build(utility, args.n_states), args.eps)
    _emit(args, report.to_dict(),
          (["eps", "d_plus", "d_minus"],
           zip(report.eps, report.d_plus, report.d_minus)))
    return 0 if report.gap > 0 else 1


def _run_sd_equiv(args) -> int:
    fm = FiniteMarket.from_dict(args.market)
    report = sd_equivalence_audit(fm, candidate=args.candidate)
    _emit(args, report.to_dict())
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


def main(argv=None) -> int:
    """Run one command line; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    # a JSONDecodeError is a ValueError; int(inf) in --truncations overflows
    try:
        _check(args)
    except (OSError, ValueError, KeyError, OverflowError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        return _RUNNERS[args.subcommand](args)
    # an order the utility lacks, or a constant-RRA utility for cex2, is a
    # fault of the request, not of the numerics
    except (OrderExceeded, ConstantRRA, KeyError, ValueError, TypeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (CmdualError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
