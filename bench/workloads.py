"""The benchmark's four workloads: seeded inputs, operation lists, oracles.

A workload is a fixed list of operations built from inputs that depend only
on the seed.  Each operation returns a JSON-serializable output, and its
check compares that output with a reference from ``oracles``.  Operations
marked ``probe`` test a defect the program is known to have; they count in
``failed`` like any other operation but do not decide ``correct``.

Calls into ``cmdual`` go through module and class attributes looked up at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import oracles
from oracles import KAPPAS

SOLVE_ORDER = 4
CALL_TIMEOUT_S = 120


@dataclass
class Op:
    name: str
    part: str                      # metric bucket, see Workload.parts
    run: Callable[[], object]      # returns a JSON-serializable output
    check: Callable[[object], Optional[str]]
    units: int = 1
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    build_inputs: Callable[[int], dict]
    make_ops: Callable[[dict, Path], list]
    # end-to-end metric -> parts: wall_s times the median share of a
    # complete pass that the parts' operations took, divided by the units
    # they do in one pass
    parts: dict
    # per-workload names printed in the report: (name, unit, metric, invert)
    aliases: tuple


def _cm(name):
    """A cmdual module; the benchmark imports them after the timed start-up."""
    return importlib.import_module(f"cmdual.{name}")


# -- input generators ---------------------------------------------------------


def _discrete(xs, ps):
    return {"kind": "discrete", "x": [float(v) for v in xs],
            "p": [float(v) for v in ps]}


def shifted_pair(rng):
    """3-atom G and F = G with every atom shifted up: F dominates G at
    every order, the known answer."""
    xs = np.sort(rng.uniform(0.1, 3.0, 3))
    ps = rng.dirichlet(np.ones(3))
    shift = rng.uniform(0.05, 1.0, 3)
    return _discrete(xs + shift, ps), _discrete(xs, ps)


def random_pair(rng):
    return tuple(_discrete(np.sort(rng.uniform(0.0, 1.0, 3)),
                           rng.dirichlet(np.ones(3))) for _ in range(2))


# chance that a payoff of the sweep script, uniform on [0.2, 2.5], falls
# below s0 = 1
P_BELOW = 0.8 / 2.3


def market(rng, states, below):
    """One-period market as scripts/run_sd_equiv.py draws it, given that
    ``below`` of its payoffs fall under s0 = 1 and the rest above, so a
    strictly positive deflator exists.  The split sets the deflator
    polytope's vertex count, and with it most of the audit's cost."""
    payoffs = np.concatenate([rng.uniform(0.2, 0.999, below),
                              rng.uniform(1.001, 2.5, states - below)])
    return {"probs": rng.dirichlet(np.ones(states)).tolist(),
            "payoffs": np.round(rng.permutation(payoffs), 3).tolist(),
            "s0": 1.0}


def below_mix(states, count):
    """Splits for ``count`` markets with ``states`` states, in the shares
    the sweep script draws them (binomial with P_BELOW, both sides
    non-empty), apportioned by largest remainders: the same for every
    seed, so the seed cannot change the audits' cost much."""
    weight = {k: math.comb(states, k) * P_BELOW**k
              * (1 - P_BELOW)**(states - k) for k in range(1, states)}
    exact = {k: count * w / sum(weight.values()) for k, w in weight.items()}
    counts = {k: int(x) for k, x in exact.items()}
    short = count - sum(counts.values())
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[:short]:
        counts[k] += 1
    return [k for k in sorted(counts) for _ in range(counts[k])]


def lognormal_pair(rng):
    """F and G lognormal with var log F < var log G and E F > E G: F
    dominates G at order 2 (Levy's lognormal criterion), hence at infinite
    order.  Log-variances stay in [0.25, 1], where one pair's verdicts take
    about 20 s at a cost that hardly depends on the draw; see README for
    why larger ones are not in the verdicts."""
    s2f, s2g = rng.uniform(0.25, 0.45), rng.uniform(0.6, 1.0)
    mean_g = math.exp(rng.uniform(-0.5, 0.5))
    mean_f = mean_g * (1.0 + rng.uniform(0.02, 0.2))
    return ({"kind": "lognormal", "m": math.log(mean_f) - s2f / 2, "s2": s2f},
            {"kind": "lognormal", "m": math.log(mean_g) - s2g / 2, "s2": s2g})


# -- running the program ------------------------------------------------------


def _solve_row(pair, order, x):
    """One row as the CLI's solve subcommand builds it."""
    uderivs = pair.primal_derivatives(order, x)
    y = uderivs[0]
    row = [x, pair.primal_value(x), *uderivs, y, pair.dual_value(y)]
    row += [pair.dual_derivative(k, y) for k in range(1, order + 1)]
    return [float(v) for v in row]


def _cli_call(workdir: Path, argv):
    proc = subprocess.run([sys.executable, "-m", "cmdual.cli", *argv],
                          cwd=workdir, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    return {"code": proc.returncode, "stdout": proc.stdout}


def cli_replay(argv):
    """The same call through cmdual.cli.main in this process."""
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _cm("cli").main(list(argv))
    return {"code": code, "stdout": buf.getvalue()}


# -- cli_quick ----------------------------------------------------------------


def cli_quick_inputs(seed):
    rng = np.random.default_rng([seed, 1])
    F, G = shifted_pair(rng)
    zs = rng.uniform(0.5, 3.0, 3)
    cs = rng.uniform(0.5, 2.0, 3)
    deflator = _discrete(np.sort(rng.uniform(0.3, 2.0, 3)),
                         rng.dirichlet(np.ones(3)))
    mean = float(np.dot(deflator["x"], deflator["p"]))
    # -v'(0+) = E[Y] sum c z bounds the attainable wealth; keep the solve
    # grid's x <= 2 well inside it
    cs = cs * rng.uniform(4.0, 8.0) / (mean * float(np.dot(cs, zs)))
    return {
        "F": F, "G": G,
        "power": {"kind": "power", "p": float(rng.uniform(-2.0, -0.25))},
        "mixture": {"kind": "finite_order", "n": int(rng.integers(4, 7)),
                    "mixture": {"z": zs.tolist(), "c": cs.tolist()}},
        "deflator": {"deflator": deflator},
        "kappa_derivatives": float(rng.choice(KAPPAS)),
        "x": float(rng.uniform(0.5, 2.0)),
        "kappa_invert": float(rng.choice(KAPPAS)),
        "z": float(rng.uniform(0.5, 3.0)),
        # half the payoffs below s0: 9 polytope vertices for every seed
        "market": market(rng, 4, below=2),
    }


def cli_quick_argvs(inputs, workdir: Path):
    """[(name, argv, content check)]; writes the input files."""
    def put(name, payload):
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(payload))
        return str(path)

    F, G = put("F", inputs["F"]), put("G", inputs["G"])
    power, mixture = put("power", inputs["power"]), put("mixture", inputs["mixture"])
    log = put("log", {"kind": "log"})
    k_solve = put("kappa_solve", {"kappa": 0.25})
    k_der = put("kappa_derivatives", {"kappa": inputs["kappa_derivatives"]})
    k_inv = put("kappa_invert", {"kappa": inputs["kappa_invert"]})
    deflator = put("deflator", inputs["deflator"])
    market = put("market", inputs["market"])

    law = inputs["deflator"]["deflator"]
    mix = inputs["mixture"]["mixture"]
    mixture_form = oracles.MixtureClosedForm(mix["z"], mix["c"], law["x"],
                                             law["p"])
    power_form = oracles.PowerClosedForm(inputs["power"]["p"], 0.25)
    log_form = oracles.LogClosedForm(inputs["kappa_derivatives"])
    x, z = inputs["x"], inputs["z"]

    def verdict_is(want):
        return lambda out: oracles.check_verdict(out["verdict"], want)

    def derivatives_ok(out):
        cols = list(zip(*out["rows"]))
        return oracles.check_terminal_table(x, cols[0], cols[1], cols[2],
                                            cols[3:], log_form)

    return [
        ("dominance.order2", ["dominance", F, G, "--order", "2"],
         verdict_is("dominates")),
        ("dominance.inf", ["dominance", F, G, "--order", "inf"],
         verdict_is("dominates")),
        ("audit.order2", ["audit", F, G, "--order", "2"],
         lambda out: None if out["ok"] else "audit refuted a true dominance"),
        ("solve.power",
         ["solve", "--utility", power, "--model", k_solve],
         lambda out: oracles.check_rows(out["rows"], SOLVE_ORDER, power_form)),
        ("solve.finite_order",
         ["solve", "--utility", mixture, "--model", deflator],
         lambda out: oracles.check_rows(out["rows"], SOLVE_ORDER,
                                        mixture_form)),
        ("derivatives.log",
         ["derivatives", "--utility", log, "--model", k_der, "--x", repr(x)],
         derivatives_ok),
        ("invert.log",
         ["invert", "--utility", log, "--model", k_inv, "--order", "8",
          "--z", repr(z)],
         lambda out: oracles.check_widder(out["mass"], z, 8, log_form)),
        ("sd-equiv", ["sd-equiv", "--market", market],
         oracles.check_equivalence),
        ("cex1", ["cex1", "--truncations", "1000,10000"],
         oracles.check_cex1),
    ]


# the parts of cli_quick's calls: subcommands that build a value-function
# pair, the market audit (in wall_s only: its cost moves with the drawn
# market), and the verdict and counterexample subcommands
CLI_PARTS = {"solve": "value_call", "derivatives": "value_call",
             "invert": "value_call", "sd-equiv": "market_call"}


def cli_quick_ops(inputs, workdir: Path, replay=True):
    """The argv lists through cmdual.cli.main in this process, or with
    ``replay=False`` as ``python -m cmdual.cli`` subprocesses (the self-tests
    check that both print the same).  The first call is made again last;
    it must print the same bytes."""
    argvs = cli_quick_argvs(inputs, workdir)
    name0, *rest = argvs[0]
    seen = {}
    ops = []
    for name, argv, content in argvs + [(name0 + ".repeat", *rest)]:
        def check(out, name=name, sub=argv[0], content=content):
            seen.setdefault(name, out)
            if name.endswith(".repeat") and out != seen.get(name0):
                return "a repeated call printed different bytes or exit code"
            return oracles.check_cli(sub, out["code"], out["stdout"], content)

        run = ((lambda argv=argv: cli_replay(argv)) if replay
               else (lambda argv=argv: _cli_call(workdir, argv)))
        part = CLI_PARTS.get(argv[0], "verdict_call")
        ops.append(Op(name, part, run, check))
    return ops


# -- cex_repro ----------------------------------------------------------------


def cex_repro_inputs(seed):
    # the paper's reproduction runs at the CLI defaults: nothing to draw
    return {"cex2": {"k": 1, "N": 200, "eps": [1e-2, 1e-3, 1e-4]},
            "cex1": {"order": 2, "truncations": [10**3, 10**4, 10**5, 10**6]}}


def cex_repro_ops(inputs, workdir):
    c2, c1 = inputs["cex2"], inputs["cex1"]

    def cex2():
        ce = _cm("counterexamples")
        utility = _cm("duality").footnote_utility(c2["k"])
        inst = ce.cex2_build(utility, c2["N"])
        return ce.cex2_gap(inst, tuple(c2["eps"])).to_dict()

    def cex1():
        ce = _cm("counterexamples")
        top = max(c1["truncations"])
        inst = ce.Cex1Instance(order=c1["order"], n_trunc=top)
        finite = {str(k): float(v) for k, v in
                  ce.cex1_verify_finite(inst, top).items()}
        report = ce.cex1_divergence(inst, tuple(c1["truncations"])).to_dict()
        report["finite_orders_at_1"] = finite
        return report

    # cex2 is one long run of interpreter-bound code, the kind the machine's
    # speed swings hit hardest (see README, Steadiness); it runs again after
    # cex1 and the two are averaged
    return [Op("cex2#0", "cex2", cex2, oracles.check_cex2),
            Op("cex1", "cex1", cex1, oracles.check_cex1),
            Op("cex2#1", "cex2", cex2, oracles.check_cex2)]


# -- lognormal_market ---------------------------------------------------------


def lognormal_inputs(seed):
    rng = np.random.default_rng([seed, 3])
    F, G = lognormal_pair(rng)
    # the solve grid (0.5:2:4) and the audit's family seed (0) are the CLI
    # defaults and the Widder point is fixed: the cost of all three varies
    # with their value, so the seed draws only the pair and the power
    return {"F": F, "G": G, "audit_seed": 0, "p": float(rng.uniform(-2.0, -0.25)),
            "xs": np.linspace(0.5, 2.0, 4).tolist(), "z": 1.0}


def lognormal_ops(inputs, workdir):
    F_d, G_d = inputs["F"], inputs["G"]
    xs, z, p = inputs["xs"], inputs["z"], inputs["p"]
    x0 = xs[0]
    verdicts = {}
    pairs = {}

    def laws():
        dom = _cm("dominance")
        return dom.Distribution.from_dict(F_d), dom.Distribution.from_dict(G_d)

    def order2():
        F, G = laws()
        verdicts[2] = _cm("dominance").dominates_n(F, G, 2).to_dict()["verdict"]
        return verdicts[2]

    def infinite():
        F, G = laws()
        verdicts["inf"] = _cm("dominance").dominates_inf(F, G).to_dict()[
            "verdict"]
        return verdicts["inf"]

    def audit():
        F, G = laws()
        rep = _cm("dominance").test_function_audit(F, G, 2, 100,
                                                   inputs["audit_seed"])
        return {"ok": rep.ok, "tested": rep.tested}

    verdict_ops = [
        Op("verdict.order2", "verdict", order2,
           lambda v: oracles.check_verdict(v, "dominates")),
        Op("verdict.inf", "verdict", infinite,
           lambda v: oracles.check_verdict(v, "dominates")
           or oracles.check_nesting(verdicts)),
        Op("verdict.audit2", "verdict", audit,
           lambda out: None if out["ok"] else "audit refuted a true dominance"),
    ]

    def utility(kind):
        duality = _cm("duality")
        return (duality.footnote_utility(1) if kind == "footnote"
                else duality.PowerUtility(p))

    solve_ops, ops = [], []
    for kappa in KAPPAS:
        power_form = oracles.PowerClosedForm(p, kappa)
        for kind in ("footnote", "power"):
            key = (kind, kappa)
            form = power_form if kind == "power" else None

            def solve(key=key):
                solver = _cm("solver")
                pair = solver.ValueFunctionPair(
                    utility(key[0]), solver.MarketModel.lognormal(key[1]))
                pairs[key] = pair
                return [_solve_row(pair, SOLVE_ORDER, x) for x in xs]

            def optimizer(key=key):
                pair = pairs[key]
                term = pair.optimizer_terminal(x0)
                derivs = [pair.optimizer_derivative(n, x0).values.tolist()
                          for n in (1, 2)]
                return {"deflator": term.deflator.tolist(),
                        "weights": term.weights.tolist(),
                        "values": term.values.tolist(), "derivs": derivs}

            def widder(key=key):
                return float(pairs[key].widder_invert(z, 8))

            tag = f"{kind}.k{kappa:g}"
            solve_ops.append((f"solve.{tag}", solve,
                              lambda rows, form=form: oracles.check_rows(
                                  rows, SOLVE_ORDER, form)))
            ops += [
                Op(f"optimizer.{tag}", "other", optimizer,
                   lambda out, form=form: oracles.check_terminal_table(
                       x0, out["deflator"], out["weights"], out["values"],
                       out["derivs"], form)),
                Op(f"widder.{tag}", "other", widder,
                   lambda mass, form=form: oracles.check_widder(mass, z, 8,
                                                                form)),
            ]

    # the solve rows take about a second in all, short enough for the
    # machine's speed swings to dominate one sample, so they run in rounds
    # spread between the verdicts and the median round of each counts
    rounds = [[Op(f"{name}#{r}", "solve_point", run, check, units=len(xs))
               for name, run, check in solve_ops]
              for r in range(len(verdict_ops) + 1)]
    ops = rounds[0] + [op for verdict, solves in zip(verdict_ops, rounds[1:])
                       for op in (verdict, *solves)] + ops

    def rra():
        u = utility("footnote")
        return [[x, float(u.marginal(x)), float(u.second(x))] for x in xs]

    ops.append(Op("rra_identity.footnote", "other", rra,
                  lambda rows: next((f for f in (
                      oracles.check_rra_identity(*r) for r in rows) if f),
                      None)))
    ops += lognormal_probes()
    return ops


def lognormal_probes():
    """(a) Laplace transforms of wide lognormals, (b) the footnote utility
    under a wide lognormal market.  Both fail at the parent commit."""
    def laplace(m, s2, zs):
        def run():
            law = _cm("dominance").Lognormal(m, s2)
            return [[z, float(law.laplace(z))] for z in zs]
        return run

    def marginal():
        solver = _cm("solver")
        pair = solver.ValueFunctionPair(_cm("duality").footnote_utility(1),
                                        solver.MarketModel.lognormal(36.0))
        return float(pair.primal_marginal(1.0))

    return [
        Op("probe_a.laplace.LN(0,16)", "probe",
           laplace(0.0, 16.0, (0.1, 1.0, 10.0)), oracles.check_laplace_probe,
           probe=True),
        Op("probe_a.laplace.LN(-2,4)", "probe",
           laplace(-2.0, 4.0, (10.0, 100.0)), oracles.check_laplace_probe,
           probe=True),
        Op("probe_b.footnote_marginal.kappa36", "probe", marginal,
           lambda y: None if math.isfinite(y) and y > 0 else f"u'(1) = {y}",
           probe=True),
    ]


# -- discrete_markets ---------------------------------------------------------

MARKETS = 40
SHIFTED_PAIRS = 12
RANDOM_PAIRS = 12
ORDERS = tuple(range(2, 9))
SCALE = 10.0


def discrete_inputs(seed):
    rng = np.random.default_rng([seed, 4])
    # the sweep script's state-count mix (2 states with probability 0.4,
    # else 3..6) and its mix of payoff splits, fixed for every seed because
    # the audit's cost grows with both
    counts = {2: MARKETS * 2 // 5, **{k: MARKETS * 3 // 20 for k in (3, 4, 5, 6)}}
    splits = [(k, below) for k, count in counts.items()
              for below in below_mix(k, count)]
    return {
        "markets": [market(rng, k, below) for k, below in splits],
        "shifted": [shifted_pair(rng) for _ in range(SHIFTED_PAIRS)],
        "random": [random_pair(rng) for _ in range(RANDOM_PAIRS)],
    }


def _scaled(d, c):
    return dict(d, x=[c * v for v in d["x"]])


def discrete_ops(inputs, workdir):
    ops = []
    for i, market in enumerate(inputs["markets"]):
        def audit(market=market):
            solver = _cm("solver")
            return solver.sd_equivalence_audit(
                solver.FiniteMarket.from_dict(market)).to_dict()
        ops.append(Op(f"sd_equiv[{i}]", "market", audit,
                      oracles.check_equivalence))

    def decide(F_d, G_d, scale=1.0, with_inf=False):
        dom = _cm("dominance")
        F = dom.Distribution.from_dict(_scaled(F_d, scale))
        G = dom.Distribution.from_dict(_scaled(G_d, scale))
        out = {str(n): dom.dominates_n(F, G, n).to_dict()["verdict"]
               for n in ORDERS}
        if with_inf:
            out["inf"] = dom.dominates_inf(F, G).to_dict()["verdict"]
        return out

    def all_dominate(out):
        bad = [k for k, v in out.items() if v != "dominates"]
        return (f"shifted copy judged violated at order {bad}" if bad
                else oracles.check_nesting(out))

    for i, (F, G) in enumerate(inputs["shifted"]):
        ops.append(Op(f"shifted_pair[{i}]", "verdict",
                      lambda F=F, G=G: decide(F, G, with_inf=True),
                      all_dominate, units=len(ORDERS) + 1))
    # probe (c): rescaling both laws must leave every verdict unchanged
    for label, pairs in (("shifted", inputs["shifted"]),
                         ("random", inputs["random"])):
        for i, (F, G) in enumerate(pairs):
            def both(F=F, G=G):
                return [decide(F, G), decide(F, G, SCALE)]
            ops.append(Op(f"probe_c.scale.{label}[{i}]", "probe", both,
                          lambda out: oracles.check_scale_invariance(*out),
                          probe=True))
    return ops


# -- registry -----------------------------------------------------------------

WORKLOADS = {
    "cli_quick": Workload(
        cli_quick_inputs, cli_quick_ops,
        {"primary_s": ("verdict_call",),
         "secondary_s": ("value_call",)},
        (("verdict_call_s", "s", "primary_s", False),
         ("value_call_s", "s", "secondary_s", False))),
    "cex_repro": Workload(
        cex_repro_inputs, cex_repro_ops,
        {"primary_s": ("cex2",),
         "secondary_s": ("cex1",)},
        (("cex2_s", "s", "primary_s", False),
         ("cex1_s", "s", "secondary_s", False))),
    "lognormal_market": Workload(
        lognormal_inputs, lognormal_ops,
        {"primary_s": ("verdict",),
         "secondary_s": ("solve_point",)},
        (("verdicts_per_s", "1/s", "primary_s", True),
         ("solve_points_per_s", "1/s", "secondary_s", True))),
    "discrete_markets": Workload(
        discrete_inputs, discrete_ops,
        {"primary_s": ("market",),
         "secondary_s": ("verdict",)},
        (("markets_per_s", "1/s", "primary_s", True),
         ("verdicts_per_s", "1/s", "secondary_s", True))),
}


def workdir_for(root: Path, name: str, seed: int) -> Path:
    path = root / ".bench_out" / "work" / f"{name}-{seed}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path
