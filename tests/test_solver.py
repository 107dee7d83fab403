"""Tests for value-function pairs, optimizer derivatives, and the market audit."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmdual.cli import main
from cmdual.dominance import (
    Discrete,
    discrete_witness_table,
    dominates_inf,
    dominates_n,
)
from cmdual.duality import (
    LogUtility,
    MeasureUtility,
    PowerUtility,
    UtilitySpec,
    footnote_utility,
)
from cmdual.errors import (
    DivergentMoment,
    DualInfinite,
    NoRoot,
    OrderExceeded,
    PolytopeEmpty,
    RangeError,
)
from cmdual.measures import BernsteinMeasure, DensityPiece
from cmdual.solver import (
    FiniteMarket,
    MarketModel,
    ValueFunctionPair,
    merged_law,
    merged_laws,
    sd_equivalence_audit,
)

# V(y) = 1/y, i.e. U(x) = 2 sqrt(x): inverse marginal 1/y**2 has density z dz
SQRT_UTILITY = MeasureUtility(
    BernsteinMeasure(pieces=(DensityPiece(1.0, 1.0, 0.0),)), anchor=(1.0, 1.0))
LOG = LogUtility()
DEGENERATE = MarketModel.degenerate()
TWO_POINT = MarketModel(Discrete((0.5, 1.5), (0.5, 0.5)))
LOGNORMAL = MarketModel.lognormal(0.25)


def central_diff(fn, x, h, order=1):
    if order == 1:
        return (fn(x + h) - fn(x - h)) / (2 * h)
    if order == 2:
        return (fn(x + h) - 2 * fn(x) + fn(x - h)) / h**2
    raise ValueError


def high_order_diff(fn, x, k, h):
    """4th-order accurate central difference for derivative k <= 4."""
    stencils = {
        1: ([-2, -1, 1, 2], [1 / 12, -2 / 3, 2 / 3, -1 / 12], 1),
        2: ([-2, -1, 0, 1, 2], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12], 2),
        3: ([-3, -2, -1, 1, 2, 3],
            [1 / 8, -1, 13 / 8, -13 / 8, 1, -1 / 8], 3),
        4: ([-3, -2, -1, 0, 1, 2, 3],
            [-1 / 6, 2, -13 / 2, 28 / 3, -13 / 2, 2, -1 / 6], 4),
    }
    offsets, coeffs, power = stencils[k]
    return sum(c * fn(x + o * h) for o, c in zip(offsets, coeffs)) / h**power


def test_dual_value_degenerate():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    assert pair.dual_value(2.0) == pytest.approx(0.5, rel=1e-10)


def test_dual_value_lognormal_reciprocal():
    pair = ValueFunctionPair(SQRT_UTILITY, LOGNORMAL)
    assert pair.dual_value(1.0) == pytest.approx(math.exp(0.25), rel=1e-9)
    # Monte Carlo oracle
    rng = np.random.default_rng(0)
    draws = np.exp(rng.normal(-0.125, 0.5, size=10**6))
    assert pair.dual_value(1.0) == pytest.approx(np.mean(1.0 / draws), rel=3e-3)


def test_dual_value_two_point_log():
    pair = ValueFunctionPair(LOG, TWO_POINT)
    want = -0.5 * (math.log(0.5) + math.log(1.5)) - 1.0
    assert pair.dual_value(1.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(-0.85616, abs=5e-6)


def test_dual_derivative_examples():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    assert pair.dual_derivative(2, 1.0) == pytest.approx(2.0, rel=1e-10)
    assert pair.dual_derivative(1, 2.0) == pytest.approx(-0.25, rel=1e-10)
    two = ValueFunctionPair(SQRT_UTILITY, TWO_POINT)
    assert two.dual_derivative(1, 1.0) == pytest.approx(-4.0 / 3.0, rel=1e-10)


@pytest.mark.parametrize("utility", [LOG, PowerUtility(-1.0), SQRT_UTILITY],
                         ids=["log", "power", "measure"])
@pytest.mark.parametrize("model", [DEGENERATE, TWO_POINT, LOGNORMAL],
                         ids=["point", "twopoint", "lognormal"])
def test_dual_derivative_matches_finite_differences(utility, model):
    pair = ValueFunctionPair(utility, model)
    for n in range(1, 5):
        for y in (0.5, 1.0, 2.0):
            got = pair.dual_derivative(n, y)
            fd = high_order_diff(pair.dual_value, y, n, 0.02 * y)
            assert got == pytest.approx(fd, rel=1e-5), (n, y)


def test_dual_sign_ladder():
    for model in (DEGENERATE, TWO_POINT, LOGNORMAL):
        pair = ValueFunctionPair(SQRT_UTILITY, model)
        for n in range(1, 7):
            for y in (0.3, 1.0, 3.0):
                assert (-1.0) ** n * pair.dual_derivative(n, y) > 0


def test_primal_marginal_examples():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    assert pair.primal_marginal(4.0) == pytest.approx(0.5, rel=1e-11)
    log_pair = ValueFunctionPair(LOG, TWO_POINT)
    assert log_pair.primal_marginal(2.0) == pytest.approx(0.5, rel=1e-11)
    x_at_one = -log_pair.dual_derivative(1, 1.0)
    assert log_pair.primal_marginal(x_at_one) == pytest.approx(1.0, rel=1e-11)


def test_primal_round_trip_and_conjugate_consistency():
    for utility, model in [(LOG, TWO_POINT), (SQRT_UTILITY, LOGNORMAL)]:
        pair = ValueFunctionPair(utility, model)
        for y in (0.5, 1.0, 2.0):
            x = -pair.dual_derivative(1, y)
            assert pair.primal_marginal(x) == pytest.approx(y, rel=1e-9)
        for x in (0.5, 1.0, 2.0):
            y = pair.primal_marginal(x)
            gap = pair.primal_value(x) - (pair.dual_value(y) + x * y)
            assert abs(gap) <= 1e-9


def test_primal_second_and_third_derivative_closed_form():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    # u(x) = 2 sqrt(x)
    assert pair.primal_derivatives(2, 1.0)[-1] == pytest.approx(
        -0.5, abs=1e-8)
    assert pair.primal_derivatives(3, 1.0)[-1] == pytest.approx(
        0.75, abs=1e-8)
    assert pair.primal_value(4.0) == pytest.approx(4.0, rel=1e-10)


def test_primal_second_equals_inverse_function_theorem():
    for model in (TWO_POINT, LOGNORMAL):
        pair = ValueFunctionPair(SQRT_UTILITY, model)
        for x in (0.5, 1.0, 2.0):
            y = pair.primal_marginal(x)
            assert pair.primal_derivatives(2, x)[-1] == pytest.approx(
                -1.0 / pair.dual_derivative(2, y), rel=1e-10)


@pytest.mark.parametrize("utility", [LOG, PowerUtility(-1.0), SQRT_UTILITY],
                         ids=["log", "power", "measure"])
@pytest.mark.parametrize("model", [DEGENERATE, TWO_POINT, LOGNORMAL],
                         ids=["point", "twopoint", "lognormal"])
def test_primal_derivative_matches_finite_differences(utility, model):
    pair = ValueFunctionPair(utility, model)
    for n in range(2, 5):
        for x in (0.5, 1.0, 2.0):
            got = pair.primal_derivatives(n, x)[-1]
            fd = high_order_diff(pair.primal_value, x, n, 0.02 * x)
            assert got == pytest.approx(fd, rel=1e-5), (n, x)


def test_optimizer_terminal_examples():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    for x in (0.5, 1.0, 2.0):
        tab = pair.optimizer_terminal(x)
        assert tab.values[0] == pytest.approx(x, rel=1e-10)

    log_pair = ValueFunctionPair(LOG, TWO_POINT)
    tab = log_pair.optimizer_terminal(1.5)
    assert tab.values == pytest.approx(1.5 / tab.deflator, rel=1e-10)


def test_budget_identity():
    for utility, model in [(LOG, TWO_POINT), (SQRT_UTILITY, TWO_POINT),
                           (PowerUtility(-1.0), LOGNORMAL)]:
        pair = ValueFunctionPair(utility, model)
        for x in (0.5, 1.0, 2.0):
            tab = pair.optimizer_terminal(x)
            assert tab.expectation(tab.deflator * tab.values) == pytest.approx(
                x, abs=1e-8, rel=1e-8)


def test_optimizer_derivative_first_order():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    tab = pair.optimizer_derivative(1, 1.0)
    assert tab.values[0] == pytest.approx(1.0, rel=1e-9)

    log_pair = ValueFunctionPair(LOG, TWO_POINT)
    tab = log_pair.optimizer_derivative(1, 2.0)
    assert tab.values == pytest.approx(1.0 / tab.deflator, rel=1e-9)
    assert np.all(tab.values > 0)


def test_optimizer_derivative_matches_per_state_differences():
    for utility, model in [(LOG, TWO_POINT), (SQRT_UTILITY, TWO_POINT),
                           (SQRT_UTILITY, LOGNORMAL)]:
        pair = ValueFunctionPair(utility, model)
        for n in (1, 2):
            for x in (0.8, 1.6):
                got = pair.optimizer_derivative(n, x).values
                h = 1e-3 * x
                if n == 1:
                    fd = (pair.optimizer_terminal(x + h).values
                          - pair.optimizer_terminal(x - h).values) / (2 * h)
                else:
                    fd = (pair.optimizer_terminal(x + h).values
                          - 2 * pair.optimizer_terminal(x).values
                          + pair.optimizer_terminal(x - h).values) / h**2
                # second differences of huge per-state values cannot be
                # resolved below their own roundoff floor
                floor = 1e-5 * np.maximum(
                    1.0, np.abs(pair.optimizer_terminal(x).values)) / x**n
                assert np.all(np.abs(got - fd)
                              <= 1e-5 * np.abs(fd) + floor), (utility, n, x)


def test_dual_optimizer_derivative():
    pair = ValueFunctionPair(LOG, TWO_POINT)
    first = pair.dual_optimizer_derivative(1, 1.3)
    assert first.values == pytest.approx(first.deflator)
    for n in (2, 3, 5):
        assert np.all(pair.dual_optimizer_derivative(n, 1.3).values == 0.0)


def test_widder_lebesgue_reference():
    pair = ValueFunctionPair(LOG, DEGENERATE)
    for n in (2, 4, 8, 16):
        for z in (0.3, 1.0, 2.5):
            assert pair.widder_invert(z, n) == pytest.approx(z, rel=1e-9)
    assert pair.widder_invert(0.0, 4) == 0.0


def test_widder_atom_reference():
    # measure: unit atom at 1 plus a far Lebesgue tail to keep infinite mass
    m = BernsteinMeasure(atoms=((1.0, 1.0),),
                         pieces=(DensityPiece(1.0, 0.0, 0.0, 100.0, math.inf),))
    pair = ValueFunctionPair(MeasureUtility(m), DEGENERATE)
    below = [pair.widder_invert(0.5, n) for n in (4, 8, 16)]
    above = [pair.widder_invert(2.0, n) for n in (4, 8, 16)]
    assert below[0] > below[1] > below[2]
    assert below[2] < 0.01
    assert above[0] < above[1] < above[2] < 1.0 + 1e-9
    assert above[2] > 0.98
    # classical approximant has the closed form Q(n, n*a/z) here
    from scipy.special import gammaincc
    for n, got in zip((4, 8, 16), above):
        assert got == pytest.approx(float(gammaincc(n, n / 2.0)), rel=1e-12)


def test_widder_half_mass_at_atom_location():
    # at the exact location of an atom the approximants converge to the
    # average of the closed and open interval masses, i.e. half the weight
    m = BernsteinMeasure(atoms=((1.0, 1.0),),
                         pieces=(DensityPiece(1.0, 0.0, 0.0, 100.0, math.inf),))
    pair = ValueFunctionPair(MeasureUtility(m), DEGENERATE)
    from scipy.special import gammaincc
    vals = [pair.widder_invert(1.0, n) for n in (4, 8, 16)]
    assert vals[0] < vals[1] < vals[2] < 0.5
    assert vals[2] == pytest.approx(0.5, abs=0.04)
    for n, got in zip((4, 8, 16), vals):
        assert got == pytest.approx(float(gammaincc(n, n)), rel=1e-12)


def test_widder_needs_no_derivative_beyond_order_n():
    # only v^(1..n) at n/z enter; v^(n+1) over all of [n/z, inf) overflows
    # on the far nodes of this law
    wide = MarketModel.lognormal(4.0)
    assert ValueFunctionPair(LOG, wide).widder_invert(0.5, 16) == pytest.approx(
        0.5, rel=1e-12)
    # p = -1/2: -v'(y) = E[Y**(1/3)] y**(-a), a = 2/3 and
    # E[Y**(1/3)] = exp(-kappa/9), so nu has density
    # E[Y**(1/3)] s**(a-1)/Gamma(a), and int Q(n, t) t**(a-1) dt equals
    # Gamma(n+a)/(a Gamma(n))
    a, n, z = 2.0 / 3.0, 16, 1.0
    closed = math.exp(-4.0 / 9.0 + a * math.log(z / n) + math.lgamma(n + a)
                      - math.lgamma(a + 1.0) - math.lgamma(n))
    assert ValueFunctionPair(PowerUtility(-0.5), wide).widder_invert(
        z, n) == pytest.approx(closed, rel=1e-12)


@pytest.mark.parametrize("z", [0.1, 0.5, 1.0])
def test_widder_footnote_wide_lognormal(z):
    # -V'(y) = 1/(y(y+1)) has measure (1 - e^-s) ds, so -v' has
    # nu(ds) = E[1 - e^(-s/Y)] ds; with int Q(n, as) e^(-bs) ds =
    # (1 - (a/(a+b))**n)/b the approximant is, per node Y,
    # z - Y (1 - (1 + z/(n Y))**-n)
    n = 16
    pair = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(4.0))
    Y, w = pair._outcomes, pair._weights
    oracle = float(w @ (z - Y * -np.expm1(-n * np.log1p(z / (n * Y)))))
    assert pair.widder_invert(z, n) == pytest.approx(oracle, rel=1e-12)


def test_audit_handles_extreme_probabilities():
    for probs, payoffs in [((0.998, 0.001, 0.001), (2.0, 0.5, 0.3)),
                           ((0.001, 0.998, 0.001), (1.8, 0.9, 0.4))]:
        report = sd_equivalence_audit(FiniteMarket(probs, payoffs, 1.0))
        assert len(report.candidates) >= 3
        if report.maximal_exists:
            assert report.all_agree


def test_order_exceeded_for_finite_conjugate():
    from cmdual.cmcalc import DnFunction
    from cmdual.duality import FiniteOrderUtility

    V = DnFunction.from_nth_derivative(2, lambda t: 2.0 / t**3,
                                       anchor=(1.0, 1.0))
    pair = ValueFunctionPair(FiniteOrderUtility(V), DEGENERATE)
    with pytest.raises(OrderExceeded):
        pair.dual_derivative(3, 1.0)
    # u''' reads v''', and the optimizer's d2 reads V'''
    assert len(pair.primal_derivatives(2, 1.0)) == 2
    with pytest.raises(OrderExceeded):
        pair.primal_derivatives(3, 1.0)
    with pytest.raises(OrderExceeded):
        pair.optimizer_derivative(2, 1.0)


def test_power_bounds_inherited():
    # for power conjugates the ratios -y v^(k+1)/v^(k) equal k - q exactly
    for p in (-1.0, 0.5):
        u = PowerUtility(p)
        for model in (TWO_POINT, LOGNORMAL):
            pair = ValueFunctionPair(u, model)
            for k in (1, 2, 3):
                for y in (0.5, 1.0, 2.0):
                    ratio = (-y * pair.dual_derivative(k + 1, y)
                             / pair.dual_derivative(k, y))
                    assert ratio == pytest.approx(k - u.q, rel=1e-8)


def test_divergent_expectations_are_reported():
    from cmdual.errors import DivergentMoment, DualInfinite

    # conjugate exponent near -1000: the far-left lognormal nodes overflow
    pair = ValueFunctionPair(PowerUtility(0.999), MarketModel.lognormal(4.0))
    with pytest.raises(DualInfinite):
        pair.dual_value(1.0)
    with pytest.raises(DivergentMoment):
        pair.dual_derivative(1, 1.0)


def test_footnote_marginal_under_wide_lognormal():
    # E[1/(Y+1)] <= 1, so the first dual derivative is finite at kappa 36
    pair = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(36.0))
    y = pair.primal_marginal(1.0)
    assert math.isfinite(y) and y > 0.0


def test_widder_rejects_negative_interval():
    pair = ValueFunctionPair(SQRT_UTILITY, DEGENERATE)
    with pytest.raises(ValueError):
        pair.widder_invert(-1.0, 4)
    with pytest.raises(ValueError):
        pair.widder_invert(1.0, 1)
    # the approximant is defined through v^(n+1), one order beyond what
    # a finite-order conjugate of order n offers
    from cmdual.cmcalc import DnFunction
    from cmdual.duality import FiniteOrderUtility

    finite = FiniteOrderUtility(
        DnFunction.exponential_mixture([1.0, 2.0], [1.0, 0.5], order=4))
    with pytest.raises(OrderExceeded):
        ValueFunctionPair(finite, DEGENERATE).widder_invert(1.0, 4)


# each model with E[Y**q] of its deflator, for the power closed form
CLOSED_FORM_MODELS = [
    pytest.param(MarketModel.lognormal(1.0),
                 lambda q: math.exp(q * (q - 1) / 2), id="lognormal"),
    pytest.param(TWO_POINT, lambda q: 0.5 * 0.5**q + 0.5 * 1.5**q,
                 id="discrete"),
]


@pytest.mark.parametrize("model, moment", CLOSED_FORM_MODELS)
def test_log_primal_derivatives_to_order_21(model, moment):
    # u(x) = log x - E log Y_T, so u^(k+1)(x) = (-1)^k k!/x^(k+1)
    pair = ValueFunctionPair(LOG, model)
    for x in (0.4, 1.3, 7.0):
        exact = [(-1) ** k * math.factorial(k) / x ** (k + 1)
                 for k in range(21)]
        assert pair.primal_derivatives(21, x) == pytest.approx(exact,
                                                               rel=3e-10)


@pytest.mark.parametrize("model, moment", CLOSED_FORM_MODELS)
def test_power_primal_derivatives_to_order_21(model, moment):
    # u'(x) = (x / E[Y**q])**(p-1), so u^(k+1) = u' (p-1)(p-2)...(p-k)/x^k
    p = 0.5
    pair = ValueFunctionPair(PowerUtility(p), model)
    q = pair.utility.q
    for x in (0.4, 1.3, 7.0):
        first = (x / moment(q)) ** (p - 1)
        exact = [first * math.prod(p - 1 - j for j in range(k)) / x**k
                 for k in range(21)]
        assert pair.primal_derivatives(21, x) == pytest.approx(exact,
                                                               rel=3e-11)


@pytest.mark.parametrize("utility", [LOG, PowerUtility(-1.0)],
                         ids=["log", "power"])
def test_homothetic_optimizer_is_linear_past_order_8(utility):
    # X_T(x) = x X_T(1) for log and power utility: every derivative past
    # the first vanishes, up to the roundoff of its terms, of size X_T/x^n
    pair = ValueFunctionPair(utility, MarketModel.lognormal(1.0))
    x = 1.3
    terminal = pair.optimizer_terminal(x).values
    first = pair.optimizer_derivative(1, x).values
    assert first == pytest.approx(terminal / x, rel=1e-12)
    for n in range(2, 13):
        scale = math.factorial(n) * np.abs(terminal) / x**n
        assert np.all(np.abs(pair.optimizer_derivative(n, x).values)
                      <= 1e-10 * scale), n


def test_optimizer_derivative_near_the_bottom_of_the_double_range():
    import mpmath

    # at the node Y ~ 6.3e3, V^(k+1)(u'(x) Y) is subnormal, so a division
    # by k! before the products meet would lose bits; the oracle is a
    # 60-digit derivative of -V'(u'(x) Y) over the pair's own nodes
    zs, cs = (1.0, 3.5), (1.0, 0.5)
    utility = UtilitySpec.from_dict({"kind": "finite_order", "n": 8,
                                     "mixture": {"z": zs, "c": cs}})
    pair = ValueFunctionPair(utility, MarketModel.lognormal(2.0))
    x, order = 1.3, 7
    i = int(np.argmin(np.abs(pair._outcomes - 6.3e3)))
    got = pair.optimizer_derivative(order, x).values[i]
    assert 0.0 < got < 1e-290
    with mpmath.workdps(60):
        nodes = [mpmath.mpf(float(v)) for v in pair._outcomes]
        weights = [mpmath.mpf(float(v)) for v in pair._weights]

        def wealth(w):  # -V'(w)
            return mpmath.fsum(c * z * mpmath.exp(-z * w)
                               for z, c in zip(zs, cs))

        def marginal(t):  # u'(t), the root of -v'(y) = t
            return mpmath.findroot(
                lambda y: mpmath.fsum(p * wealth(y * v) * v
                                      for p, v in zip(weights, nodes)) - t,
                mpmath.mpf(pair.primal_marginal(x)))

        exact = mpmath.diff(lambda t: wealth(marginal(t) * nodes[i]),
                            mpmath.mpf(x), order)
    # what is left is the subnormal V^(k+1) of the conjugate itself
    assert abs(got / exact - 1) < 5e-8


def test_no_root_outside_range():
    from cmdual.cmcalc import DnFunction
    from cmdual.duality import FiniteOrderUtility

    # -V'(y) = exp(-y): range (0, ~0.37) on y > 1e-300, so x = 5 has no root
    V = DnFunction.exponential(1.0, order=2)
    pair = ValueFunctionPair(FiniteOrderUtility(V), DEGENERATE)
    with pytest.raises(NoRoot):
        pair.primal_marginal(5.0)


# ---- finite one-period markets -------------------------------------------------


def test_two_state_complete_market():
    fm = FiniteMarket((0.5, 0.5), (2.0, 0.5), 1.0)
    # the unique martingale density: q = 1/3 on the up state
    z = np.array([(1 / 3) / 0.5, (2 / 3) / 0.5])
    assert fm.contains_deflator(z)
    report = sd_equivalence_audit(fm)
    assert report.all_agree
    assert report.maximal_vertex is not None
    assert np.allclose(report.maximal_vertex, z)


def test_audit_on_supplied_candidate():
    fm = FiniteMarket((0.5, 0.5), (2.0, 0.5), 1.0)
    z = (2 / 3, 4 / 3)
    report = sd_equivalence_audit(fm, candidate=z)
    assert report.candidates[0].maximal


def test_polytope_empty_for_arbitrage_market():
    # stock strictly rises in every state: no strictly positive deflator
    fm = FiniteMarket((0.5, 0.5), (2.0, 1.5), 1.0)
    with pytest.raises(PolytopeEmpty):
        sd_equivalence_audit(fm)


def test_polytope_empty_when_a_payoff_equals_s0():
    # the stock never loses and gains in one state: every deflator vanishes
    # there, while the zero deflator keeps the polytope non-empty
    fm = FiniteMarket((0.5, 0.5), (1.0, 1.5), 1.0)
    assert fm.deflator_vertices()
    assert not fm.has_positive_deflator()
    with pytest.raises(PolytopeEmpty):
        sd_equivalence_audit(fm)


def _linprog_has_positive_deflator(fm):
    # reference: maximize t subject to A y <= b and y_i >= t for every state
    from scipy.optimize import linprog

    A, b = fm.deflator_constraints()
    n = A.shape[1]
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.vstack([np.hstack([A, np.zeros((A.shape[0], 1))]),
                      np.hstack([-np.eye(n), np.ones((n, 1))])])
    res = linprog(c, A_ub=A_ub, b_ub=np.concatenate([b, np.zeros(n)]),
                  bounds=[(None, None)] * (n + 1), method="highs")
    return bool(res.success and -res.fun > 1e-11)


def test_positive_deflator_matches_linprog_reference():
    # arbitrage markets (every payoff on one side of s0, or on it) included
    rng = np.random.default_rng(17)
    markets = [FiniteMarket((0.5, 0.5), (1.0, 1.0), 1.0),
               FiniteMarket((0.3, 0.7), (0.5, 1.0), 1.0),
               FiniteMarket((0.2, 0.3, 0.5), (0.0, 1.0, 2.0), 1.0)]
    for _ in range(150):
        k = int(rng.integers(2, 7))
        payoffs = np.round(rng.uniform(0.2, 2.5, size=k), int(rng.integers(1, 4)))
        markets.append(FiniteMarket(tuple(rng.dirichlet(np.ones(k))),
                                    tuple(payoffs), 1.0))
    verdicts = [fm.has_positive_deflator() for fm in markets]
    assert verdicts == [_linprog_has_positive_deflator(fm) for fm in markets]
    assert 10 <= sum(verdicts) <= len(markets) - 10  # both answers occur


def test_audit_enumerates_vertices_once(monkeypatch):
    calls = []
    enumerate_vertices = FiniteMarket.deflator_vertices

    def counted(self, *args, **kwargs):
        calls.append(self)
        return enumerate_vertices(self, *args, **kwargs)

    monkeypatch.setattr(FiniteMarket, "deflator_vertices", counted)
    sd_equivalence_audit(FiniteMarket((0.3, 0.3, 0.2, 0.2),
                                      (0.5, 0.8, 1.5, 2.0), 1.0))
    assert len(calls) == 1


def test_random_markets_conditions_agree_when_maximal_exists():
    rng = np.random.default_rng(5)
    done = gated = 0
    while done < 30:
        k = 2 if rng.random() < 0.5 else int(rng.integers(3, 5))
        probs = rng.dirichlet(np.ones(k))
        payoffs = np.round(rng.uniform(0.2, 2.5, size=k), 3)
        if payoffs.min() >= 1.0 or payoffs.max() <= 1.0:
            continue
        fm = FiniteMarket(tuple(probs), tuple(payoffs), 1.0)
        report = sd_equivalence_audit(fm)
        if report.maximal_exists:
            gated += 1
            assert report.all_agree, (probs, payoffs, report.to_dict())
        done += 1
    assert gated >= 5  # the agreement claim must not be vacuous


def _allclose_vertices(fm, tol=1e-9):
    # the pairwise allclose deduplication the rounded one replaced
    from itertools import combinations

    A, b = fm.deflator_constraints()
    verts = []
    for idx in combinations(range(A.shape[0]), A.shape[1]):
        sub = A[list(idx)]
        norms = np.linalg.norm(sub, axis=1)
        if np.any(norms < 1e-14) or abs(
                np.linalg.det(sub / norms[:, None])) < 1e-10:
            continue
        y = np.linalg.solve(sub, b[list(idx)])
        if np.all(A @ y <= b + tol):
            y = np.where(np.abs(y) < tol, 0.0, y)
            if not any(np.allclose(y, v, atol=1e-8) for v in verts):
                verts.append(y)
    return verts


def _sixty_markets():
    # two markets with repeated payoffs, then random ones with both sides of s0
    rng = np.random.default_rng(11)
    markets = [FiniteMarket((0.4, 0.3, 0.3), (2.0, 0.5, 0.5), 1.0),
               FiniteMarket((0.25,) * 4, (2.0, 1.0, 0.5, 0.5), 1.0)]
    while len(markets) < 60:
        k = int(rng.integers(2, 7))
        payoffs = np.round(rng.uniform(0.2, 2.5, size=k), 3)
        if payoffs.min() < 1.0 < payoffs.max():
            markets.append(FiniteMarket(tuple(rng.dirichlet(np.ones(k))),
                                        tuple(payoffs), 1.0))
    return markets


def test_vertex_deduplication_matches_pairwise_allclose():
    for fm in _sixty_markets():
        got, want = fm.deflator_vertices(), _allclose_vertices(fm)
        assert len(got) == len(want), fm
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), fm


def _pairwise_audit(fm, candidate=None):
    # the candidate-by-vertex loop the batched audit replaced: one verdict
    # call per pair, and the conditional check grouped pair by pair
    probs = np.asarray(fm.probs)
    vertices = fm.deflator_vertices()
    laws = [merged_law(v, probs) for v in vertices]

    def conditional(y_hat, y_other, tol=1e-9):
        keys = np.round(np.asarray(y_hat) / 1e-9) * 1e-9
        levels, inverse = np.unique(keys, return_inverse=True)
        mass = np.bincount(inverse, weights=probs)
        weighted = np.bincount(inverse, weights=probs * y_other)
        return not np.any(weighted / mass > levels + tol * (1.0 + np.abs(levels)))

    candidates = vertices if candidate is None else [np.asarray(candidate)]
    rows = []
    for cand in candidates:
        law_hat = merged_law(cand, probs)
        rows.append({
            "vertex": list(cand),
            "laplace_order": all(dominates_inf(law_hat, law) for law in laws),
            "conditional": all(conditional(cand, v) for v in vertices),
            "second_order": all(dominates_n(law_hat, law, 2) for law in laws),
        })
    return rows


def test_batched_audit_matches_pairwise_loop():
    for fm in _sixty_markets():
        interior = np.mean(fm.deflator_vertices(), axis=0)
        for candidate in (None, interior):
            got = sd_equivalence_audit(fm, candidate=candidate).to_dict()
            assert got["candidates"] == _pairwise_audit(fm, candidate), fm


@st.composite
def drawn_markets(draw):
    """2-6 states with payoffs on a grid of 1/100 on both sides of s0 = 1,
    and state weights down to 1e-4, so that vertex atoms get large."""
    k = draw(st.integers(2, 6))
    weights = draw(st.lists(
        st.sampled_from([1e-4, 1e-3, 0.01]) | st.floats(1e-4, 1.0),
        min_size=k, max_size=k))
    payoffs = draw(st.lists(st.integers(20, 250), min_size=k, max_size=k))
    assume(min(payoffs) < 100 < max(payoffs))
    probs = np.array(weights) / sum(weights)
    return FiniteMarket(tuple(probs), tuple(x / 100 for x in payoffs), 1.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fm=drawn_markets())
def test_audit_matches_pairwise_loop_on_drawn_markets(fm):
    vertices = fm.deflator_vertices()
    assume(fm.has_positive_deflator(vertices))
    for candidate in (None, np.mean(vertices, axis=0)):
        got = sd_equivalence_audit(fm, candidate=candidate).to_dict()
        assert got["candidates"] == _pairwise_audit(fm, candidate), fm
        # order 2 implies infinite order
        assert all(c["laplace_order"] for c in got["candidates"]
                   if c["second_order"]), fm


@settings(max_examples=12, deadline=None, derandomize=True)
@given(fm=drawn_markets(), scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_witness_tables_match_single_pairs_on_vertex_laws(fm, scale):
    # the audit's own rectangles, whose laws share atoms and the atom 0:
    # every entry equals the verdict of its pair on its own
    laws = merged_laws(np.array(fm.deflator_vertices()) * scale, fm.probs)
    assert any(law.xs[0] == 0.0 for law in laws)
    for n in range(1, 9):
        single = [[math.nan if (w := dominates_n(F, G, n).witness) is None
                   else w for G in laws] for F in laws]
        assert np.array_equal(discrete_witness_table(laws, laws, n), single,
                              equal_nan=True), n


@pytest.mark.parametrize("w", [1e-8, 1e-11, 1e-13])
def test_audit_takes_a_market_with_a_tiny_state_weight(w, tmp_path, capsys):
    # payoffs on both sides of s0, so a positive deflator exists however
    # small state 0's weight: every test of the vertex enumeration is
    # scale-free per state, and the market audits as at weight 1e-2
    def market(w):
        return FiniteMarket((w, (1 - w) / 2, (1 - w) / 2), (0.5, 0.9, 1.5))

    def pattern(report):
        return [(c.laplace_order, c.conditional, c.second_order)
                for c in report.candidates]

    fm = market(w)
    vertices = fm.deflator_vertices()
    assert len(vertices) == len(market(1e-2).deflator_vertices()) == 6
    assert fm.has_positive_deflator(vertices)
    assert _linprog_has_positive_deflator(fm)
    assert pattern(sd_equivalence_audit(fm)) == pattern(
        sd_equivalence_audit(market(1e-2)))
    path = tmp_path / "mkt.json"
    path.write_text(json.dumps({"probs": list(fm.probs),
                                "payoffs": list(fm.payoffs), "s0": 1.0}))
    assert main(["sd-equiv", "--market", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["candidates"]


@pytest.mark.parametrize("fm", [
    FiniteMarket((0.3, 0.3, 0.2, 0.2), (0.5, 0.8, 1.5, 2.0), 1.0),
    FiniteMarket((0.4, 0.3, 0.3), (2.0, 0.5, 0.5), 1.0),
], ids=["4-state", "3-state"])
def test_settled_audit_evaluates_no_laplace_transform(fm, monkeypatch):
    # every candidate dominates every vertex at order 2 or fails at an end
    # of the Laplace transform, so nothing is left for the z-grid
    report = sd_equivalence_audit(fm)
    assert not all(c.second_order for c in report.candidates)
    calls = []
    laplace = Discrete.laplace

    def counted(self, z, groups=None):
        calls.append(z)
        return laplace(self, z, groups)

    monkeypatch.setattr(Discrete, "laplace", counted)
    assert sd_equivalence_audit(fm) == report
    assert calls == []


def _sweep_markets(count, seed):
    # drawn as scripts/run_sd_equiv.py draws them
    rng = np.random.default_rng(seed)
    markets = []
    while len(markets) < count:
        k = 2 if rng.random() < 0.4 else int(rng.integers(3, 7))
        probs = rng.dirichlet(np.ones(k))
        payoffs = np.round(rng.uniform(0.2, 2.5, size=k), 3)
        if payoffs.min() < 1.0 < payoffs.max():
            markets.append(FiniteMarket(tuple(probs), tuple(payoffs), 1.0))
    return markets


def _checked_merged_law(values, probs):
    # merged_law through the sorting, checking public constructor
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        keys = np.where(values != 0, np.round(values / 1e-12) * 1e-12, 0.0)
    xs, inverse = np.unique(keys, return_inverse=True)
    ps = np.bincount(inverse, weights=np.asarray(probs, dtype=float))
    return Discrete(tuple(xs), tuple(ps / ps.sum()))


def test_merged_law_equals_the_checked_constructor():
    # 500 sweep markets and 400 with state weights down to 1e-4: every
    # vertex law and the vertex mean's law
    rng = np.random.default_rng(29)
    markets = _sweep_markets(500, 0)
    for fm in _sweep_markets(400, 1):
        weights = np.asarray(fm.probs) ** rng.uniform(1.0, 4.0) + 1e-4
        markets.append(FiniteMarket(tuple(weights / weights.sum()),
                                    fm.payoffs, 1.0))
    for fm in markets:
        probs, vertices = np.asarray(fm.probs), fm.deflator_vertices()
        for values in (*vertices, np.mean(vertices, axis=0)):
            got, want = merged_law(values, probs), _checked_merged_law(
                values, probs)
            assert got == want, fm
            assert all(np.array_equal(a, b)
                       for a, b in zip(got._xp, want._xp)), fm


@pytest.mark.parametrize("values, probs, message", [
    ((-1.0, 1.0), (0.5, 0.5), "support must lie in [0, inf)"),
    ((math.nan, 1.0), (0.5, 0.5), "support must lie in [0, inf)"),
    ((math.inf, 1.0), (0.5, 0.5), "support must lie in [0, inf)"),
    ((1.0, 2.0), (1.0, 0.0), "probabilities must be strictly positive"),
    ((1.0, 2.0), (0.5, math.nan), "probabilities must be strictly positive"),
], ids=["negative", "nan", "inf", "zero-mass", "nan-mass"])
def test_merged_law_refuses_what_the_constructor_refuses(values, probs,
                                                         message):
    for merge in (merged_law, _checked_merged_law):
        with pytest.raises(ValueError) as caught:
            merge(values, probs)
        assert str(caught.value) == message


def test_edge_interior_maximal_element_supplied():
    # with two states sharing the payoff the market is complete over the
    # sigma-algebra of the stock; the flat martingale density is maximal but
    # sits in the middle of an edge, not at a vertex
    fm = FiniteMarket((0.4, 0.3, 0.3), (2.0, 0.5, 0.5), 1.0)
    z = ((1 / 3) / 0.4, (2 / 3) / 0.6, (2 / 3) / 0.6)
    assert fm.contains_deflator(z)
    report = sd_equivalence_audit(fm, candidate=z)
    assert report.candidates[0].maximal
    assert not sd_equivalence_audit(fm).maximal_exists


def test_vertex_only_checks_can_disagree_without_maximal_element():
    # incomplete market where no vertex is maximal: the vertex-restricted
    # Laplace/second-order checks pass for a degenerate vertex even though
    # the conditional check (equivalent to the full-polytope test) fails
    fm = FiniteMarket(
        (0.28730571, 0.498388, 0.20275852, 0.01154777),
        (1.082, 1.139, 0.304, 0.312), 1.0)
    report = sd_equivalence_audit(fm)
    assert not report.maximal_exists
    assert not report.all_agree


def _outcome(fn):
    """fn()'s result, or the class and message of what it raised."""
    try:
        return fn()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _same_laws(got, want):
    # equal values, and bitwise equal arrays
    return got == want and all(
        a.tobytes() == b.tobytes() and a.dtype == b.dtype
        for law, ref in zip(got, want) for a, b in zip(law._xp, ref._xp))


@st.composite
def value_rows(draw):
    """1-6 rows over 1-24 states: values from 1-10 levels, each maybe
    moved by less than the 1e-12 key grid, so rows tie within it; zeros,
    all-equal and all-distinct rows; state weights down to 1e-4; and
    sometimes a value or a weight, or both, that a law must refuse."""
    states = draw(st.integers(1, 24))
    weights = draw(st.lists(
        st.sampled_from([1e-4, 1e-3, 0.5]) | st.floats(1e-4, 1.0),
        min_size=states, max_size=states))
    levels = draw(st.lists(
        st.sampled_from([0.0, 1e-12, 1.0, 3.0]) | st.floats(0.0, 1e6),
        min_size=1, max_size=10))
    value = st.builds(lambda x, dx: max(x + dx, 0.0), st.sampled_from(levels),
                      st.sampled_from([0.0, 0.0, 3e-13, -4e-13, 6e-13]))
    rows = draw(st.lists(
        st.lists(value, min_size=states, max_size=states)
        | value.map(lambda x: [x] * states)
        | st.lists(st.floats(0.0, 1e6), min_size=states, max_size=states),
        min_size=1, max_size=6))
    values, probs = np.array(rows), np.array(weights) / sum(weights)
    value_bad = draw(st.sampled_from(
        [None] * 6 + [-1.0, math.nan, math.inf, 1e300]))
    if value_bad is not None:  # in one or two states of a row
        state = draw(st.integers(0, states - 1))
        values[draw(st.integers(0, len(rows) - 1)),
               state:state + draw(st.integers(1, 2))] = value_bad
    # a NaN weight fails every row, a zero weight each row where no other
    # state shares its state's value (with one state it would be 0/0)
    weight_bad = draw(st.sampled_from(
        [None] * 6 + [math.nan] + [0.0] * (states > 1)))
    if weight_bad is not None:
        probs[draw(st.integers(0, states - 1))] = weight_bad
    return values, probs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=value_rows())
def test_merged_laws_equal_the_checked_constructor_row_by_row(case):
    # every row's law bitwise, or the refusal the first refused row raises
    values, probs = case
    got = _outcome(lambda: merged_laws(values, probs))
    want = _outcome(lambda: [_checked_merged_law(v, probs) for v in values])
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _same_laws(got, want)
        assert _same_laws([merged_law(values[0], probs)], want[:1])


def test_merged_law_aggregates():
    law = merged_law([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
    assert law == Discrete((1.0, 2.0), (0.5, 0.5))


def test_audit_merges_each_law_once(monkeypatch):
    import cmdual.solver

    fm = FiniteMarket((0.3, 0.3, 0.2, 0.2), (0.5, 0.8, 1.5, 2.0), 1.0)
    vertices = fm.deflator_vertices()
    assert len(vertices) > 1
    calls = []

    def counted(values, probs):
        calls.append(len(values))
        return merged_laws(values, probs)

    monkeypatch.setattr(cmdual.solver, "merged_laws", counted)
    sd_equivalence_audit(fm)
    # one grouping for every vertex law, each serving as its candidate's
    assert calls == [len(vertices)]
    calls.clear()
    sd_equivalence_audit(fm, candidate=vertices[0])
    assert calls == [len(vertices), 1]


def test_audit_evaluates_each_law_once_per_grid(monkeypatch):
    # every Laplace transform is shared by all the pairs its law is in
    fm = FiniteMarket((0.2, 0.15, 0.25, 0.1, 0.2, 0.1),
                      (0.5, 0.8, 0.9, 1.5, 2.0, 1.2), 1.0)
    vertices = fm.deflator_vertices()
    assert len(vertices) > 4
    sizes = []
    laplace = Discrete.laplace

    def counted(self, z):
        sizes.append(np.size(z))
        return laplace(self, z)

    monkeypatch.setattr(Discrete, "laplace", counted)
    sd_equivalence_audit(fm)
    assert sizes
    assert max(sizes.count(size) for size in set(sizes)) <= len(vertices)


def test_dual_derivative_is_one_kernel_call(monkeypatch):
    # every expectation is one call on the outcome array, never a loop; the
    # measure utility reaches the kernel through its DnFunction conjugate
    pair = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(1.0))
    calls = count_kernel_calls(monkeypatch)
    assert pair.dual_derivative(3, 1.0) < 0.0
    assert len(calls) == 1


def count_kernel_calls(monkeypatch) -> list:
    """The list to which each Laplace moment call made through
    ``cmdual.cmcalc`` appends its orders, either entry of the kernel."""
    import cmdual.cmcalc

    calls = []
    for name, orders in (("laplace_moment", lambda args: (args[2],)),
                         ("laplace_moments", lambda args: tuple(args[2]))):
        def counted(*args, kernel=getattr(cmdual.cmcalc, name),
                    orders=orders):
            calls.append(orders(args))
            return kernel(*args)

        monkeypatch.setattr(cmdual.cmcalc, name, counted)
    return calls


def test_a_newton_step_is_one_kernel_call(monkeypatch):
    # a footnote solve row: the bracket's own calls of v' alone, one call
    # of v' and v'' per Newton step, then v^(3) and v^(4) in one call
    from cmdual.cli import _solve_row

    pair = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(1.0))
    calls = count_kernel_calls(monkeypatch)
    steps = []
    newton = pair._newton

    def counted_newton(t):
        steps.append(len(calls))
        return newton(t)

    monkeypatch.setattr(pair, "_newton", counted_newton)
    for x in np.linspace(0.5, 2.0, 4):
        calls.clear()
        steps.clear()
        _solve_row(pair, 4, x)
        bracket = steps[0]
        assert steps == list(range(bracket, bracket + len(steps)))
        assert calls == ([(0,)] * bracket + [(0, 1)] * len(steps)
                         + [(2, 3)])
        assert len(calls) <= 10
    # the scalar U'(x) takes its Newton pair from one call as well
    calls.clear()
    footnote_utility(1).marginal(1.3)
    pairs = calls.count((0, 1))
    assert pairs and calls == [(0,)] * (len(calls) - pairs) + [(0, 1)] * pairs


def test_an_order_failing_alongside_raises_only_when_read():
    # at kappa 36, V^(3)(y Y) exceeds the double range on the smallest nodes
    pair = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(36.0))
    fresh = ValueFunctionPair(footnote_utility(1), MarketModel.lognormal(36.0))
    second = fresh.dual_derivative(2, 1.0)
    pair._fill(1.0, (2, 3))
    assert pair.dual_derivative(2, 1.0) == second
    for _ in range(2):
        with pytest.raises(OverflowError):
            pair.dual_derivative(3, 1.0)
    # the Newton reads v'' with v' at each iterate, and the solve succeeds
    y = pair.primal_marginal(1.0)
    assert math.isfinite(y) and y > 0.0
    assert pair.primal_derivatives(2, 1.0)[1] < 0.0
    with pytest.raises(OverflowError):
        pair.primal_derivatives(4, 1.0)


def test_a_non_finite_order_stays_out_of_the_table(monkeypatch):
    # at kappa 4, V^(16)(8 Y) overflows to inf on the smallest nodes, while
    # v' ... v^(15) are finite; the Widder sum reads all of them at y = 8
    pair = ValueFunctionPair(LOG, MarketModel.lognormal(4.0))
    fresh = ValueFunctionPair(LOG, MarketModel.lognormal(4.0))
    expected = [fresh.dual_derivative(n, 8.0) for n in range(1, 16)]
    with pytest.raises(DivergentMoment):
        pair.widder_invert(2.0, 16)
    calls = []
    kernel = LogUtility.conjugate_derivatives

    def counted(self, orders, y):
        calls.append(tuple(orders))
        return kernel(self, orders, y)

    monkeypatch.setattr(LogUtility, "conjugate_derivatives", counted)
    assert [pair.dual_derivative(n, 8.0) for n in range(1, 16)] == expected
    assert calls == []
    for _ in range(2):
        with pytest.raises(DivergentMoment):
            pair.dual_derivative(16, 8.0)
    assert calls == [(16,), (16,)]


def test_the_newton_reads_the_slope_only_while_unsettled():
    # a conjugate of order 1 offers no v''; at x = -v'(1) the bracket
    # starts on the root, so the solve reads no slope and succeeds, while
    # any other x needs v'' and raises
    from cmdual.cmcalc import DnFunction
    from cmdual.duality import FiniteOrderUtility

    V = DnFunction.from_nth_derivative(1, lambda t: -1.0 / t**2,
                                       anchor=(1.0, -1.0))
    pair = ValueFunctionPair(FiniteOrderUtility(V), DEGENERATE)
    assert pair.primal_marginal(1.0) == 1.0
    with pytest.raises(OrderExceeded):
        pair.primal_marginal(2.0)


def test_optimizer_derivative_takes_one_conjugate_call(monkeypatch):
    # the outcome-wise chain rule reads -V^(1+k)(u'(x) Y) for every k <= n
    # from one call, not once for each partition of n (5 of them at n = 4)
    pair = ValueFunctionPair(LOG, TWO_POINT)
    pair.primal_marginal(1.3)
    calls = []
    kernel = LogUtility.conjugate_derivatives

    def counted(self, orders, y):
        calls.append(tuple(orders))
        return kernel(self, orders, y)

    monkeypatch.setattr(LogUtility, "conjugate_derivatives", counted)
    pair.primal_derivatives(5, 1.3)
    # the Newton left v' and v'' at u'(1.3) in the table; the rest is one
    # call
    assert calls == [(3, 4, 5)]
    calls.clear()
    pair.optimizer_derivative(4, 1.3)
    # optimizer_derivative(4) starts from primal_derivatives(5), which reads
    # v'' ... v^(5) at u'(1.3) from the last-point table
    assert calls == [(2, 3, 4, 5)]


@pytest.mark.parametrize("utility", [LOG, PowerUtility(-1.0),
                                     footnote_utility(1)],
                         ids=["log", "power", "footnote"])
@pytest.mark.parametrize("model", [TWO_POINT, LOGNORMAL,
                                   MarketModel.lognormal(1.0)],
                         ids=["twopoint", "lognormal", "lognormal1"])
def test_optimizer_derivatives_are_each_order_alone(utility, model):
    # one composition through order 8 holds every lower order, bitwise what
    # a composition through that order alone gives, on a pair of its own
    for x in (0.5, 1.3):
        jet = ValueFunctionPair(utility, model).optimizer_derivatives(8, x)
        alone = ValueFunctionPair(utility, model)
        assert len(jet) == 8
        for j, d in enumerate(jet, 1):
            want = alone.optimizer_derivative(j, x).values
            assert d.tobytes() == want.tobytes(), (j, x)


def test_derivatives_command_makes_one_composition(monkeypatch, tmp_path,
                                                   capsys):
    calls = []
    jet = ValueFunctionPair.optimizer_derivatives

    def counted(self, n, x):
        calls.append(n)
        return jet(self, n, x)

    monkeypatch.setattr(ValueFunctionPair, "optimizer_derivatives", counted)
    utility = tmp_path / "log.json"
    model = tmp_path / "kappa.json"
    utility.write_text(json.dumps({"kind": "log"}))
    model.write_text(json.dumps({"kappa": 0.25}))
    assert main(["derivatives", "--utility", str(utility), "--model",
                 str(model), "--order", "8"]) == 0
    assert calls == [8]
    assert "d8" in capsys.readouterr().out


# -- the last-point table and the float-native Newton --------------------------


def reference_invert_decreasing(fn, dfn, target):
    """``invert_decreasing``'s log-log Newton written on numpy scalars and
    masks on every iterate, with fn and its slope dfn computed apart."""
    def where(cond, a, b):
        if cond.ndim == 0:
            return a if cond else b
        return np.where(cond, a, b)

    target = np.asarray(target, dtype=float)[()]
    y = np.full(target.shape, 1.0)[()]
    lo = 0.0 * y
    hi, jump = lo + math.inf, lo + 2.0
    tol = 1e-12 * np.maximum(np.abs(target), 1e-300)
    for _ in range(100):
        value = fn(y)
        f = value - target
        settled = np.abs(f) <= tol
        if np.all(settled):
            return float(y) if np.ndim(y) == 0 else y
        above = f > 0
        lo = where(above, y, lo)
        hi = where(above, hi, y)
        slope = dfn(y)
        ratio = target / value
        step = y * where(ratio > 0.0, ratio, np.nan) ** (value / (y * slope))
        inside = (lo < step) & (step < hi)
        both = (lo > 0.0) & (hi < math.inf)
        step = where(inside, step, where(
            both, np.sqrt(lo) * np.sqrt(hi),
            where(hi == math.inf, y * jump, y / jump)))
        jump = where(inside | both | settled, jump, jump * jump)
        y = where(settled, y, step)
        if not np.all((0.0 < y) & (y < math.inf)):
            raise NoRoot("target outside the attainable range")
    raise NoRoot("no settled root")


def bracketed_invert_decreasing(fn, dfn, target):
    """The solve the log-log Newton replaced, kept as an oracle for its
    roots: a bracket by halving and doubling from y = 1, then Newton in y
    with bisection, on numpy scalars and masks."""
    def where(cond, a, b):
        if cond.ndim == 0:
            return a if cond else b
        return np.where(cond, a, b)

    def any_(mask):
        return bool(mask) if mask.size == 1 else bool(mask.any())

    target = np.asarray(target, dtype=float)[()]
    lo = hi = np.full(target.shape, 1.0)[()]
    flo = fhi = fn(lo)
    for _ in range(2000):
        low, high = ~(flo >= target), ~(fhi <= target)
        if any_(low):
            lo = where(low, lo / 2.0, lo)
            if any_(lo == 0.0):
                raise NoRoot("target above the attainable range")
            flo = where(low, fn(lo), flo)
        elif any_(high):
            hi = where(high, hi * 2.0, hi)
            fhi = where(high, fn(hi), fhi)
        else:
            break
    else:
        raise NoRoot("target below the attainable range")
    y = 0.5 * (lo + hi)
    tol = 1e-12 * np.maximum(np.abs(target), 1e-300)
    for _ in range(200):
        f = fn(y) - target
        active = ~(np.abs(f) <= tol)
        if not any_(active):
            break
        above = f > 0
        lo = where(above, y, lo)
        hi = where(above, hi, y)
        slope = dfn(y)
        if np.ndim(slope) == 0:
            step = y - f / slope if slope != 0.0 else math.inf
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                step = y - f / slope
        step = where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        y = where(active, step, y)
    return float(y) if np.ndim(y) == 0 else y


class ReferencePair(ValueFunctionPair):
    """The value functions as they were before the last-point table: every
    read computes its expectation anew, and the Newton runs on numpy
    scalars.  The methods not overridden here run on these."""

    def dual_value(self, y):
        if y <= 0:
            raise ValueError("y must be positive")
        out = float(self._weights @ self.utility.conjugate(y * self._outcomes))
        if not math.isfinite(out):
            raise DualInfinite(f"dual expectation diverges at y={y}")
        return out

    def dual_derivative(self, n, y):
        if n < 1:
            raise ValueError("n must be >= 1")
        if y <= 0:
            raise ValueError("y must be positive")
        if n > self.utility.max_order:
            raise OrderExceeded("conjugate order")
        out = float(self._weights @ (
            self.utility.conjugate_derivative(n, y * self._outcomes)
            * self._outcomes**n))
        if not math.isfinite(out):
            raise DivergentMoment(f"diverges at n={n}, y={y}")
        return out

    def primal_marginal(self, x):
        if x <= 0:
            raise ValueError("x must be positive")
        hit = self._marginal_cache.get(x)
        if hit is not None:
            return hit
        def fn(t):
            # products t * Y that underflow to 0 are past the solve
            if t * self._outcomes.min() == 0.0:
                raise NoRoot("t * Y underflows")
            return -self.dual_derivative(1, t)

        try:
            y = reference_invert_decreasing(
                fn, lambda t: -self.dual_derivative(2, t), x)
        except NoRoot:
            raise NoRoot(f"x={x} outside the range of -v'") from None
        self._marginal_cache[x] = y
        return y


def outcome(run):
    """The bytes of what ``run`` returns, or the class of what it raises."""
    try:
        return np.asarray(run(), dtype=float).tobytes()
    except Exception as exc:  # the class is compared
        return type(exc)


UTILITIES = {
    "log": lambda p, n: LOG,
    "power": lambda p, n: PowerUtility(p),
    "footnote1": lambda p, n: footnote_utility(1),
    "footnote2": lambda p, n: footnote_utility(2),
    "mixture": lambda p, n: UtilitySpec.from_dict(
        {"kind": "finite_order", "n": n,
         "mixture": {"z": [1.0, 3.5 + p], "c": [1.0, 0.5]}}),
}


@st.composite
def solver_cases(draw):
    if draw(st.booleans()):
        model = MarketModel.lognormal(draw(st.floats(0.05, 4.0)))
    else:
        size = draw(st.integers(1, 4))
        xs = draw(st.lists(st.floats(0.05, 5.0), min_size=size,
                           max_size=size, unique=True))
        ws = draw(st.lists(st.floats(0.05, 1.0), min_size=size,
                           max_size=size))
        model = MarketModel(Discrete(tuple(xs), tuple(w / sum(ws) for w in ws)))
    kind = draw(st.sampled_from(sorted(UTILITIES)))
    p = draw(st.floats(-3.0, 0.9).filter(lambda v: abs(v) > 0.05))
    utility = UTILITIES[kind](p, draw(st.integers(2, 8)))
    return (utility, model, draw(st.integers(1, 8)), draw(st.floats(0.05, 10.0)),
            draw(st.floats(0.05, 5.0)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=solver_cases())
def test_solver_outputs_are_bitwise_those_of_the_reference_path(case):
    from cmdual.cli import _solve_row

    utility, model, order, x, z = case
    pair = ValueFunctionPair(utility, model)
    reference = ReferencePair(utility, model)
    # one pair serves every call in turn, as a CLI run or a workload does
    for run in (lambda q: _solve_row(q, order, x),
                lambda q: q.optimizer_derivative(order, x).values,
                lambda q: q.widder_invert(z, max(order, 2)),
                lambda q: _solve_row(q, order, 0.5 * x),
                lambda q: q.primal_derivatives(order, x)):
        assert outcome(lambda: run(pair)) == outcome(lambda: run(reference))
    if type(utility).marginal is UtilitySpec.marginal:
        def reference_marginal(target):
            try:
                return reference_invert_decreasing(
                    utility.inverse_marginal,
                    lambda y: -utility.conjugate_derivative(2, y), target)
            except NoRoot:
                raise RangeError("outside the range") from None

        for target in (x, np.array([x, 0.5 * x, 3.0])):
            assert (outcome(lambda: utility.marginal(target))
                    == outcome(lambda: reference_marginal(target)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=solver_cases())
def test_roots_sit_within_1e_11_of_the_bracketed_solve(case):
    utility, model, _, x, _ = case
    pair = ValueFunctionPair(utility, model)
    solves = [(pair.primal_marginal, lambda t: -pair.dual_derivative(1, t),
               lambda t: -pair.dual_derivative(2, t), NoRoot)]
    if type(utility).marginal is UtilitySpec.marginal:
        solves.append((utility.marginal, utility.inverse_marginal,
                       lambda t: -utility.conjugate_derivative(2, t),
                       RangeError))
    for solve, fn, dfn, out_of_range in solves:
        try:
            want = bracketed_invert_decreasing(fn, dfn, x)
        # the bracket's halving stops at a y whose products y * Y underflow
        except (NoRoot, ValueError):
            with pytest.raises(out_of_range):
                solve(x)
            continue
        assert solve(x) == pytest.approx(want, rel=1e-11, abs=0.0)


def test_cex2_moves_within_its_stated_bound(monkeypatch):
    # D+-(eps) multiplies a rounding of u by 2 / eps**2; what does not pass
    # through a difference quotient stays within 1e-11
    from cmdual import duality
    from cmdual.counterexamples import cex2_build, cex2_gap

    def run():
        return cex2_gap(cex2_build(n_states=200), (1e-2, 1e-3, 1e-4))

    new = run()
    monkeypatch.setattr(
        duality, "invert_decreasing",
        lambda newton, target: bracketed_invert_decreasing(
            lambda y: newton(y)[0], lambda y: newton(y)[1](), target))
    old = run()
    for name in ("gap", "q_at_hat", "q_constrained", "delta_hat"):
        assert getattr(new, name) == pytest.approx(getattr(old, name),
                                                   rel=1e-11, abs=0.0), name
    for eps, got, want in zip(new.eps, new.d_plus + new.d_minus,
                              old.d_plus + old.d_minus):
        assert abs(got - want) <= 1e-15 * 2.0 / eps**2
    for report in (new, old):
        assert report.gap > 0 and report.margin > 0
        assert report.d_plus[-1] > report.midpoint > report.d_minus[-1]


KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)
GRID = (0.3, 0.5, 1.0, 1.3, 2.0, 4.0, 7.0)


def counted_newton(pair):
    """Count the pair's ``_newton`` evaluations in a list's length."""
    calls, newton = [], pair._newton

    def counted(t):
        calls.append(t)
        return newton(t)

    pair._newton = counted
    return calls


@pytest.mark.parametrize("kappa", KAPPAS)
def test_log_and_power_roots_are_the_closed_forms(kappa):
    model = MarketModel.lognormal(kappa)
    for x in GRID:
        assert ValueFunctionPair(LOG, model).primal_marginal(x) == \
            pytest.approx(1.0 / x, rel=1e-15, abs=0.0)
    for p in (-3.0, -2.0, -1.0, -0.5, 0.3, 0.5, 0.7):
        pair = ValueFunctionPair(PowerUtility(p), model)
        q = pair.utility.q
        moment = float(pair._weights @ pair._outcomes**q)
        for x in GRID:
            want = (x / moment) ** (1.0 / (q - 1.0))
            # the one log-log step from y = 1 is exact but for the rounding
            # of the elasticity q - 1, which log(x / moment) / (q - 1)
            # carries into y
            scale = max(1.0, abs(math.log(x / moment) / (q - 1.0)))
            assert pair.primal_marginal(x) == pytest.approx(
                want, rel=1e-15 * scale, abs=0.0), (p, x)


@pytest.mark.parametrize("kappa", KAPPAS)
def test_solves_take_few_evaluations(kappa):
    model = MarketModel.lognormal(kappa)
    for utility, most in ((LOG, 2), (PowerUtility(-1.5), 2),
                          (PowerUtility(0.5), 2), (footnote_utility(1), 6),
                          (footnote_utility(2), 6)):
        for x in GRID:
            pair = ValueFunctionPair(utility, model)
            calls = counted_newton(pair)
            pair.primal_marginal(x)
            assert len(calls) <= most, (utility, x, len(calls))


def test_a_root_on_a_bracket_end_does_not_crawl():
    # log utility: -v'(y) = 1/y, so the first step lands on u'(0.5) = 2,
    # the end a bracket by halving and doubling from 1 would stop at
    pair = ValueFunctionPair(LOG, LOGNORMAL)
    calls = counted_newton(pair)
    assert pair.primal_marginal(0.5) == 2.0
    assert len(calls) == 2


BOUNDED_MIXTURE = {"kind": "finite_order", "n": 4,
                   "mixture": {"z": [1.0, 2.0], "c": [1.0, 0.5]}}


def test_a_target_above_a_bounded_marginal_is_no_root(tmp_path, capsys):
    # -v'(0+) = 1 + 0.5 * 2 = 2 on the two-point deflator, so x = 2.5 has no
    # root; the search runs to y = 0 in a few squaring moves instead of
    # halving until y * Y underflows
    pair = ValueFunctionPair(UtilitySpec.from_dict(BOUNDED_MIXTURE), TWO_POINT)
    calls = counted_newton(pair)
    with pytest.raises(NoRoot, match="x=2.5 outside the range of -v'"):
        pair.primal_marginal(2.5)
    assert len(calls) <= 64
    utility, model = tmp_path / "u.json", tmp_path / "m.json"
    utility.write_text(json.dumps(BOUNDED_MIXTURE))
    model.write_text(json.dumps({"kind": "discrete", "x": [0.5, 1.5],
                                 "p": [0.5, 0.5]}))
    assert main(["solve", "--utility", str(utility), "--model", str(model),
                 "--grid", "0.5:2.5:3"]) == 3
    assert "x=2.5 outside the range of -v'" in capsys.readouterr().err


def test_reads_at_interleaved_points_keep_their_own_values():
    def fresh_reads(y):
        return {n: (ValueFunctionPair(footnote_utility(1), LOGNORMAL)
                    .dual_derivative(n, y) if n else
                    ValueFunctionPair(footnote_utility(1), LOGNORMAL)
                    .dual_value(y)) for n in range(5)}

    y1, y2 = 0.7, 1.9
    expected = {y1: fresh_reads(y1), y2: fresh_reads(y2)}
    assert expected[y1] != expected[y2]
    pair = ValueFunctionPair(footnote_utility(1), LOGNORMAL)
    for y, orders in ((y1, (2, 0, 4)), (y2, (4, 1, 0, 2)), (y1, range(5)),
                      (y2, range(4, -1, -1)), (y1, (3, 1))):
        for n in orders:
            got = pair.dual_derivative(n, y) if n else pair.dual_value(y)
            assert got == expected[y][n], (y, n)


def test_a_divergent_read_raises_on_every_call():
    pair = ValueFunctionPair(PowerUtility(0.999), MarketModel.lognormal(4.0))
    for _ in range(3):
        with pytest.raises(DualInfinite):
            pair.dual_value(1.0)
        with pytest.raises(DivergentMoment):
            pair.dual_derivative(1, 1.0)


def test_a_solve_row_reads_each_order_once(monkeypatch):
    # after primal_derivatives(4, x) has read v' (in the Newton) and v'' to
    # v'''' at y = u'(x), the rest of the row computes only v(y), once
    from cmdual.cli import _solve_row

    pair = ValueFunctionPair(LOG, TWO_POINT)
    x = 1.3
    y = pair.primal_derivatives(4, x)[0]
    calls = []
    conjugate, derivative = LogUtility.conjugate, LogUtility.conjugate_derivative

    def counted_value(self, t):
        calls.append(0)
        return conjugate(self, t)

    def counted_derivative(self, k, t):
        calls.append(k)
        return derivative(self, k, t)

    monkeypatch.setattr(LogUtility, "conjugate", counted_value)
    monkeypatch.setattr(LogUtility, "conjugate_derivative", counted_derivative)
    row = _solve_row(pair, 4, x)
    assert calls == [0]
    assert row[2] == y == row[6]
