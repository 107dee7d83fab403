"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cmdual.cmcalc import DnFunction
from cmdual.counterexamples import Cex1Instance, cex1_divergence, cex2_build, cex2_gap
from cmdual.dominance import Discrete, dominates_inf, dominates_n, expectation_vs_iterated
from cmdual.dominance import test_function_audit as function_audit
from cmdual.duality import LogUtility, MeasureUtility, PowerUtility
from cmdual.measures import BernsteinMeasure, DensityPiece
from cmdual.solver import FiniteMarket, MarketModel, ValueFunctionPair, sd_equivalence_audit


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS - {description}")


SQRT_UTILITY = MeasureUtility(
    BernsteinMeasure(pieces=(DensityPiece(1.0, 1.0, 0.0),)), anchor=(1.0, 1.0))
UTILITIES = {
    "log": LogUtility(),
    "power(-1)": PowerUtility(-1.0),
    "measure(2*sqrt)": SQRT_UTILITY,
}
MODELS = {
    "point": MarketModel.degenerate(),
    "two-point": MarketModel(Discrete((0.5, 1.5), (0.5, 0.5))),
    "lognormal": MarketModel.lognormal(0.25),
}


def high_order_diff(fn, x, k, h):
    stencils = {
        1: ([-2, -1, 1, 2], [1 / 12, -2 / 3, 2 / 3, -1 / 12]),
        2: ([-2, -1, 0, 1, 2], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]),
        3: ([-3, -2, -1, 1, 2, 3], [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8]),
        4: ([-3, -2, -1, 0, 1, 2, 3],
            [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6]),
    }
    offsets, coeffs = stencils[k]
    return sum(c * fn(x + o * h) for o, c in zip(offsets, coeffs)) / h**k


def random_discrete(rng, max_atoms=5, span=5.0):
    k = int(rng.integers(1, max_atoms + 1))
    xs = np.unique(np.round(rng.uniform(0.0, span, size=k), 6))
    ps = rng.dirichlet(np.ones(xs.size))
    return Discrete(tuple(xs), tuple(ps / ps.sum()))


def mean_preserving_spread(d, rng):
    agg = {}
    for x, p in zip(d.xs, d.ps):
        delta = rng.uniform(0.0, 1.0) * min(x, 1.0) if x > 0 else 0.0
        if delta == 0.0:
            agg[x] = agg.get(x, 0.0) + p
        else:
            agg[x - delta] = agg.get(x - delta, 0.0) + p / 2
            agg[x + delta] = agg.get(x + delta, 0.0) + p / 2
    return Discrete(tuple(agg), tuple(agg.values()))


def test_criterion_01_bernstein_round_trips():
    with criterion(1, "measure-backed inverse marginals match closed forms "
                      "to 1e-10 on a 100-point log grid"):
        grid = np.geomspace(1e-3, 1e3, 100)
        log_m = MeasureUtility(BernsteinMeasure.lebesgue())
        half = MeasureUtility(
            BernsteinMeasure.power(0.5, coeff=1.0 / math.gamma(0.5)))
        for y in grid:
            assert log_m.inverse_marginal(y) == pytest.approx(
                1.0 / y, rel=1e-10)
            assert half.inverse_marginal(y) == pytest.approx(
                y ** -0.5, rel=1e-10)


def test_criterion_02_fubini_identity():
    with criterion(2, "expectation equals the iterated-CDF integral to 1e-6 "
                      "on 20 random laws x 3 rates x orders {2,3}"):
        rng = np.random.default_rng(20)
        for _ in range(20):
            d = random_discrete(rng)
            for z in (0.5, 1.0, 2.0):
                for n in (2, 3):
                    W = DnFunction.exponential(z, order=n)
                    chk = expectation_vs_iterated(d, W)
                    assert chk.gap <= 1e-6 * (1.0 + abs(chk.lhs)), (z, n)


def test_criterion_03_dominance_characterization():
    with criterion(3, "order-2 and infinite-order dominance verdicts survive "
                      "100-function audits on 50 random pairs"):
        rng = np.random.default_rng(30)
        for trial in range(50):
            f = random_discrete(rng)
            g = mean_preserving_spread(f, rng)
            assert dominates_n(f, g, 2), trial
            rep = function_audit(f, g, 2, family_size=100, seed=trial)
            assert rep.ok and rep.counterexample is None, trial
            assert dominates_inf(f, g), trial
            rep = function_audit(f, g, math.inf, family_size=100, seed=trial)
            assert rep.ok and rep.counterexample is None, trial


def test_criterion_04_derivative_formulas():
    with criterion(4, "dual and primal derivative formulas match finite "
                      "differences to 1e-5 for n = 1..4; 2*sqrt closed forms "
                      "to 1e-8"):
        for uname, utility in UTILITIES.items():
            for mname, model in MODELS.items():
                pair = ValueFunctionPair(utility, model)
                for n in range(1, 5):
                    for y in (0.5, 1.0, 2.0):
                        got = pair.dual_derivative(n, y)
                        fd = high_order_diff(pair.dual_value, y, n, 0.02 * y)
                        assert got == pytest.approx(fd, rel=1e-5), \
                            (uname, mname, n, y)
                for n in range(2, 5):
                    for x in (0.5, 1.0, 2.0):
                        got = pair.primal_derivatives(n, x)[-1]
                        fd = high_order_diff(pair.primal_value, x, n, 0.02 * x)
                        assert got == pytest.approx(fd, rel=1e-5), \
                            (uname, mname, n, x)
        pair = ValueFunctionPair(SQRT_UTILITY, MarketModel.degenerate())
        assert pair.primal_derivatives(2, 1.0)[-1] == pytest.approx(
        -0.5, abs=1e-8)
        assert pair.primal_derivatives(3, 1.0)[-1] == pytest.approx(
        0.75, abs=1e-8)


def test_criterion_05_optimizer_derivatives():
    with criterion(5, "optimizer first derivative positive in every state; "
                      "per-state differences match to 1e-5; dual optimizer "
                      "derivatives vanish beyond order 1 exactly"):
        for utility in UTILITIES.values():
            for model in MODELS.values():
                pair = ValueFunctionPair(utility, model)
                for x in (0.5, 1.0, 2.0):
                    first = pair.optimizer_derivative(1, x)
                    assert np.all(first.values > 0.0)
                for n in (1, 2):
                    x = 1.0
                    got = pair.optimizer_derivative(n, x).values
                    h = 1e-3
                    if n == 1:
                        fd = (pair.optimizer_terminal(x + h).values
                              - pair.optimizer_terminal(x - h).values) / (2 * h)
                    else:
                        fd = (pair.optimizer_terminal(x + h).values
                              - 2 * pair.optimizer_terminal(x).values
                              + pair.optimizer_terminal(x - h).values) / h**2
                    # second differences of huge far-tail states cannot beat
                    # their own roundoff floor
                    floor = 1e-5 * np.maximum(
                        1.0, np.abs(pair.optimizer_terminal(x).values)) / x**n
                    assert np.all(np.abs(got - fd) <= 1e-5 * np.abs(fd) + floor)
                for n in (2, 3, 4):
                    assert np.all(
                        pair.dual_optimizer_derivative(n, 1.0).values == 0.0)
                assert np.array_equal(
                    pair.dual_optimizer_derivative(1, 1.0).values,
                    pair.dual_optimizer_derivative(1, 2.0).deflator)


def test_criterion_06_post_widder():
    with criterion(6, "normalized scaled-derivative inversion: Lebesgue mass "
                      "is exact for every order, atom mass converges "
                      "monotonically over n in {4,8,16}"):
        log_pair = ValueFunctionPair(LogUtility(), MarketModel.degenerate())
        for n in (2, 4, 8, 16):
            for z in (0.3, 1.0, 2.5):
                assert log_pair.widder_invert(z, n) == pytest.approx(
                    z, rel=1e-9), (n, z)
        atom = MeasureUtility(BernsteinMeasure(
            atoms=((1.0, 1.0),),
            pieces=(DensityPiece(1.0, 0.0, 0.0, 100.0, math.inf),)))
        pair = ValueFunctionPair(atom, MarketModel.degenerate())
        below = [pair.widder_invert(0.5, n) for n in (4, 8, 16)]
        above = [pair.widder_invert(2.0, n) for n in (4, 8, 16)]
        assert below[0] > below[1] > below[2] >= 0.0
        assert 0.0 < above[0] < above[1] < above[2] <= 1.0 + 1e-9


def test_criterion_07_counterexample_one():
    with criterion(7, "finite orders converge across truncations 1e3..1e6 "
                      "(drift < 1e-4) while the next order diverges within "
                      "25% of the harmonic oracle, in under 5 minutes"):
        start = time.time()
        inst = Cex1Instance(order=2, n_trunc=10**6)
        truncs = (10**3, 10**4, 10**5, 10**6)
        i = inst.atoms
        p = inst.atom_probs
        for k in (1, 2):
            vk = inst.conjugate.derivative(k, i)
            series = np.cumsum(p * vk * i**k)
            head = (inst.base_prob * 0.5**k
                    * float(inst.conjugate.derivative(k, np.array([0.5]))[0]))
            totals = [head + float(series[t - 1]) for t in truncs]
            drift = abs(totals[-1] - totals[-2]) / abs(totals[-1])
            assert drift < 1e-4, (k, totals)
            assert (-1.0) ** k * totals[-1] > 0.0
        report = cex1_divergence(inst, truncs)
        assert report.diverges
        for inc, oracle in zip(report.increments, report.oracle_increments):
            assert inc > 0.0
            assert abs(inc - oracle) <= 0.25 * oracle
        assert inst.mean() == pytest.approx(1.0, abs=1e-10)
        assert time.time() - start < 300.0


def test_criterion_08_counterexample_two():
    with criterion(8, "one-period market invariants hold at 1e-12, the gap "
                      "is strictly positive and N-stable, and the one-sided "
                      "quotients straddle it"):
        inst = cex2_build(n_states=200)
        p = np.asarray(inst.probs)
        assert abs(p.sum() - 1.0) <= 1e-12
        foc = inst.expectation(
            lambda s: inst.utility.marginal(s) * (1.0 - s))
        assert abs(foc) <= 1e-12
        assert -1.0 < inst.delta_hat < 2.0
        assert abs(inst.delta_hat - 1.0) > 1e-6
        report = cex2_gap(inst, eps_list=(1e-2, 1e-3, 1e-4))
        assert report.gap > 0.0
        inst400 = cex2_build(n_states=400)
        report400 = cex2_gap(inst400, eps_list=(1e-4,))
        assert report400.gap == pytest.approx(report.gap, rel=0.01)
        # D+(1e-4) sits on the unconstrained side, D-(1e-4) on the
        # constrained side of the gap
        assert report.d_plus[-1] > report.midpoint > report.d_minus[-1]
        assert report.d_plus[-1] >= report.q_at_hat - 0.5 * report.gap
        assert report.d_minus[-1] <= report.q_constrained + 0.5 * report.gap


def test_criterion_09_sd_equivalence_audit():
    with criterion(9, "on 100 random one-period markets the three maximality "
                      "conditions agree on every vertex whenever a "
                      "vertex-maximal deflator exists"):
        rng = np.random.default_rng(90)
        done = gated = disagreements = 0
        while done < 100:
            k = 2 if rng.random() < 0.4 else int(rng.integers(3, 7))
            probs = rng.dirichlet(np.ones(k))
            payoffs = np.round(rng.uniform(0.2, 2.5, size=k), 3)
            if payoffs.min() >= 1.0 or payoffs.max() <= 1.0:
                continue
            fm = FiniteMarket(tuple(probs), tuple(payoffs), 1.0)
            report = sd_equivalence_audit(fm)
            if report.maximal_exists:
                gated += 1
                if not report.all_agree:
                    disagreements += 1
            done += 1
        assert disagreements == 0
        assert gated >= 10  # the claim must not be vacuous


def test_criterion_10_homotheticity_preserved():
    with criterion(10, "power utilities keep constant relative risk aversion "
                       "through the lognormal model to 1e-8"):
        model = MarketModel.lognormal(0.25)
        for p in (-1.0, 0.5):
            pair = ValueFunctionPair(PowerUtility(p), model)
            xs = np.linspace(0.5, 2.0, 7)
            rra = []
            for x in xs:
                up = pair.primal_marginal(x)
                upp = pair.primal_derivatives(2, x)[-1]
                rra.append(-upp * x / up)
            assert np.ptp(rra) <= 1e-8
            assert rra[0] == pytest.approx(1.0 - p, abs=1e-7)
