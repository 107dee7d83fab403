"""Tests for the analyticity-failure and kinked-value-function constructions."""

import dataclasses
import functools
import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize
from scipy.special import erfc

import cmdual.counterexamples as counterexamples
from cmdual.cmcalc import check_cm_order, nfold_value
from cmdual.counterexamples import (
    AnalyticBump,
    Cex1Instance,
    _power_tail,
    _ScaledReciprocalTail,
    bump_f,
    cex1_divergence,
    cex1_verify_finite,
    cex2_build,
    cex2_gap,
)
from cmdual.duality import LogUtility, PowerUtility, UtilitySpec, footnote_utility
from cmdual.errors import ConstantRRA, EnvelopeViolation, OptimumAtBoundary
from cmdual.solver import sd_equivalence_audit


@pytest.fixture(scope="module")
def small_instance():
    return Cex1Instance(order=2, n_trunc=10**4)


def test_bump_basic_properties():
    ab = AnalyticBump(10**4)
    ys = np.linspace(0.01, 50.0, 3000)
    fv = ab.f(ys)
    assert fv.min() >= 1.0 - 1e-9
    assert fv.max() <= 2.0
    # decreasing (strictly between spikes contributes below double resolution)
    assert np.all(np.diff(fv) <= 0.0)
    assert np.all(ab.fprime(np.arange(1.0, 21.0)) < 0.0)
    assert bump_f(ab, 1e-9) == pytest.approx(2.0, abs=1e-9)
    assert bump_f(ab, 1e6) >= 1.0 - 1e-12


def test_bump_spike_lower_bound():
    ab = AnalyticBump(10**4)
    i = np.arange(1.0, 21.0)
    assert np.all(-ab.fprime(i) >= i**2 / ab.C * (1.0 - 1e-12))
    # the i = 3 spike alone already forces -f'(3) >= 9/C
    assert -float(ab.fprime(np.array([3.0]))[0]) >= 9.0 / ab.C


def test_bump_running_integral_against_quadrature():
    ab = AnalyticBump(50)

    def g_direct(x):
        return float(ab.g(np.array([x]))[0])

    for y in (0.5, 1.7, 3.0, 6.2):
        pts = [v for v in range(1, 8) if v < y]
        brute, _ = integrate.quad(g_direct, 0, y, points=pts, limit=300,
                                  epsabs=1e-13, epsrel=1e-13)
        assert float(ab.running_integral(np.array([y]))[0]) == pytest.approx(
            brute, rel=1e-11, abs=1e-12)


def test_two_minus_bump_is_not_decreasing():
    ab = AnalyticBump(100)
    rep = check_cm_order(lambda x: 2.0 - bump_f(ab, x), 1, [1.0], h=1e-3)
    assert not rep.ok
    assert rep.violation[0] == 1


# integer atoms, points within 1e-3 sig of a spike centre on either side,
# and points between spikes, wide (i <= 3) and narrow alike
TAIL_POINTS = (0.5, 1.0, 2.5, 4.0, 5.0, 7.3, 17.0, 25.0, 59.0,
               *(c + d * c**-4.0 for c in (2.0, 4.0, 17.0, 59.0)
                 for d in (-1e-3, 1e-3)))


def test_scaled_tail_matches_spike_quadrature():
    for n in (2, 3):
        _check_tail_against_spike_quadrature(n)


def _check_tail_against_spike_quadrature(n):
    ab = AnalyticBump(60)
    tail = _ScaledReciprocalTail(n, ab)

    def brute_sum(y, k):
        m = n - 1 - k
        total = 0.0
        for i in range(1, 61):
            sig = i**-4.0
            hi = i + 14 * sig
            if hi <= y:
                continue
            pts = [p for p in (i - 14 * sig, i) if y < p < hi]
            val, _ = integrate.quad(
                lambda t: (t - y) ** m / math.factorial(m) * t ** -(n + 1.0)
                * erfc((t - i) / (math.sqrt(2.0) * sig)),
                y, hi, points=pts, epsabs=1e-16, epsrel=1e-13, limit=400)
            total += i**-2.0 * val
        return total

    got = {k: tail._tail_sum(np.array(TAIL_POINTS), k) for k in range(n)}
    for k in range(n):
        for y, g in zip(TAIL_POINTS, got[k]):
            assert g == pytest.approx(brute_sum(y, k), rel=1e-9, abs=1e-14), (k, y)


# the ends, every atom below 14 and points within 1e-3 sig of the wide
# spikes 2 and 3 on either side
WIDE_POINTS = (0.1, 0.5, 13.99, *range(1, 14),
               *(c + d * c**-4.0 for c in (2.0, 3.0) for d in (-1e-3, 1e-3)))


@pytest.mark.parametrize("i", [1, 2, 3])
def test_wide_spike_rule_matches_high_precision_oracle(i):
    # E_i(y) = int_y^hi (t-y)^m/m! t^-(n+1) erfc((t-i)/(sqrt2 sig)) dt for
    # n = 1..5 and every m, from the moments int_y^hi t^-p erfc(.) dt at 30
    # digits; near y = 13 erfc is about 1e-32, below the oracle's own
    # absolute accuracy, hence the absolute floor
    ys = [y for y in WIDE_POINTS if y < i + 13.0 * i**-4.0]
    got = {(n, m): _ScaledReciprocalTail(n, None)._wide_spike(
        np.array(ys), i, m) for n in range(1, 6) for m in range(n)}
    with mpmath.workdps(30):
        sig = mpmath.mpf(i) ** -4
        hi = i + 13 * sig
        step = functools.lru_cache(maxsize=None)(
            lambda t: mpmath.erfc((t - i) / (mpmath.sqrt(2) * sig)))
        for a, y in enumerate(map(mpmath.mpf, ys)):
            breaks = sorted({y, hi, *(b for b in (i + sig * c for c in (
                -13, -4, -1, 0, 1, 4)) if y < b < hi)})
            moment = {p: mpmath.quad(lambda t: t**-p * step(t), breaks,
                                     method="gauss-legendre")
                      for p in range(1, 7)}
            for (n, m), g in got.items():
                want = sum(math.comb(m, j) * (-y) ** (m - j)
                           * moment[n + 1 - j]
                           for j in range(m + 1)) / math.factorial(m)
                assert g[a] == pytest.approx(float(want), rel=1e-12,
                                             abs=1e-30), (n, m, float(y))


def test_tail_sum_expands_one_live_spike_per_point(monkeypatch):
    # every spike but rint(y) is an exact power-tail step: at most one
    # boundary-layer expansion per point, in one array call
    tail = _ScaledReciprocalTail(2, AnalyticBump(10**4))
    calls = []
    band_term = tail._band_term

    def counted(y, i, m):
        calls.append(np.size(y))
        return band_term(y, i, m)

    monkeypatch.setattr(tail, "_band_term", counted)
    ys = np.concatenate([np.arange(1.0, 10**4 + 1), [3.4, 3.6, 4.5, 9.99]])
    assert np.all(np.isfinite(tail._tail_sum(ys, 0)))
    assert len(calls) == 1 and calls[0] <= ys.size


def test_bump_factor_runs_once_on_the_atoms(monkeypatch):
    # orders n (finite sums) and n + 1 (divergent sums) share f on the atoms
    inst = Cex1Instance(order=2, n_trunc=10**3)
    sizes = []
    running_integral = AnalyticBump.running_integral

    def counted(self, y):
        sizes.append(np.size(y))
        return running_integral(self, y)

    monkeypatch.setattr(AnalyticBump, "running_integral", counted)
    finite = cex1_verify_finite(inst)
    report = cex1_divergence(inst, (10**2, 10**3))
    assert sizes.count(inst.n_trunc) == 1
    # the shared values are exactly those of a fresh evaluation
    i, n = inst.atoms, inst.order
    assert np.array_equal(inst.conjugate.derivative(n + 1, i),
                          inst.conjugate.derivative(n + 1, i, inst._f_on_atoms))
    head = inst.base_prob * float(
        inst.conjugate.derivative(n, np.array([0.5]))[0]) * 0.5**n
    fresh = float(np.dot(inst.atom_probs, inst.conjugate.derivative(n, i) * i**n))
    assert finite[n] == head + fresh
    assert report.diverges


def _power_tail_oracle(s, a, N):
    """sum_{j=a}^{N} j**-s at 90 digits: summed term by term when short, else
    as a Hurwitz-zeta difference (which then cancels by under 1e4)."""
    with mpmath.workdps(90):
        if N - a < 600:
            return mpmath.fsum(mpmath.mpf(j) ** -s for j in range(a, N + 1))
        return mpmath.zeta(s, a) - mpmath.zeta(s, N + 1)


@pytest.mark.parametrize("N", [10, 1000, 10**4 + 3, 10**6])
def test_power_tail_matches_high_precision_oracle(N):
    # both sides of the first block edges and of the top, which must read 0
    starts = sorted({a for a in (1, 2, 3, 4, 5, 255, 256, 257, 511, 512, 513,
                                 N - 256, N - 1, N, N + 1) if 1 <= a <= N + 1})
    for s in (2, 3, 4, 6, 14):
        got = _power_tail(s, np.array(starts, dtype=float), N)
        assert got[-1] == 0.0
        for a, g in zip(starts[:-1], got[:-1]):
            assert g == pytest.approx(float(_power_tail_oracle(s, a, N)),
                                      rel=1e-12, abs=0.0), (s, a)
        # a lone start far below N, as the head point y = 1/2 gives
        lone = _power_tail(s, 4.0, N)
        assert lone.shape == ()
        assert float(lone) == pytest.approx(float(_power_tail_oracle(s, 4, N)),
                                            rel=1e-12, abs=0.0)


def test_cex1_calls_no_special_function_per_atom(monkeypatch):
    # the power tails read the atoms off blocks of 256: every zeta or
    # polygamma call takes at most one anchor per block
    sizes = []

    def counted(fn):
        def wrapper(*args):
            sizes.append(max(np.size(a) for a in args))
            return fn(*args)
        return wrapper

    monkeypatch.setattr(counterexamples, "zeta", counted(counterexamples.zeta))
    monkeypatch.setattr(counterexamples, "polygamma",
                        counted(counterexamples.polygamma))
    inst = Cex1Instance(order=2, n_trunc=10**4)
    cex1_verify_finite(inst)
    assert cex1_divergence(inst, (10**3, 10**4)).diverges
    assert sizes and max(sizes) <= inst.n_trunc / 256 + 2


@pytest.mark.parametrize("truncations", [(0, 10**3), (-5, 10**3), (10**3,), ()],
                         ids=["zero", "negative", "single", "empty"])
def test_divergence_rejects_bad_truncations(truncations):
    inst = Cex1Instance(order=2, n_trunc=10**3)
    with pytest.raises(ValueError):
        cex1_divergence(inst, truncations)


def test_degenerate_conjugate_is_reciprocal(small_instance):
    ref = small_instance.degenerate_conjugate
    ys = np.array([0.3, 1.0, 5.0])
    for k in range(0, 4):
        want = (-1.0) ** k * math.factorial(k) * ys ** (-k - 1.0)
        assert np.allclose(ref.derivative(k, ys), want, rtol=1e-13)


def test_degenerate_value_function_nfold(small_instance):
    W = small_instance.value_function(degenerate=True)
    assert nfold_value(W, 4.0) == pytest.approx(0.25, rel=1e-8)


def test_value_function_fast_path_matches_generic_quadrature(small_instance):
    W = small_instance.value_function()
    fast = small_instance.conjugate
    for y in (0.7, 1.0, 3.0):
        assert nfold_value(W, y) == pytest.approx(
            float(fast.value(np.array([y]))[0]), rel=1e-6)


def test_conjugate_passes_order_check(small_instance):
    # every order comes from the closed forms: no quadrature, no warning
    W = small_instance.value_function()
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        assert check_cm_order(W, 2, [0.5, 1.0, 4.0]).ok


def test_value_function_exact_path(small_instance):
    W = small_instance.value_function()
    tail = small_instance.conjugate
    ys = np.array([0.5, 1.0, 4.0, 17.5])
    for k in range(0, 3):
        assert isinstance(W.derivative(k, 4.0), float)
        assert np.array_equal(W.derivative(k, ys), tail.derivative(k, ys))
    # V ~ f_inf / y: the value at 1e8 is no limit, W(inf) = 0 is
    assert W.value(1e8) * 1e8 == pytest.approx(
        small_instance.bump.f_at_infinity, rel=1e-6)
    assert W.value_at_infinity() == 0.0


def test_envelope_holds_at_random_points(small_instance):
    rng = np.random.default_rng(2)
    ys = rng.uniform(0.1, 20.0, size=100)
    for k in range(0, small_instance.order + 1):
        small_instance.check_envelope(ys, k)


def test_envelope_violation_detected(small_instance):
    broken = Cex1Instance(order=2, n_trunc=10**3)
    with pytest.raises(EnvelopeViolation):
        # scaling the reference by 3 leaves the [1, 2] envelope
        got = broken.degenerate_conjugate

        class Fake:
            def derivative(self, k, ys):
                return 3.0 * got.derivative(k, ys)

        object.__setattr__(broken, "conjugate", Fake())
        broken.check_envelope(np.array([1.0]), 1)


def test_unit_mean_and_weights(small_instance):
    inst = small_instance
    assert inst.mean() == pytest.approx(1.0, abs=1e-12)
    assert 0.0 < inst.eps < 1.0
    total = inst.base_prob + float(np.sum(inst.atom_probs))
    assert total == pytest.approx(1.0, abs=1e-12)
    assert inst.eps == pytest.approx(0.5757, abs=2e-4)


def test_finite_orders_converge(small_instance):
    lo = cex1_verify_finite(small_instance, 10**3)
    hi = cex1_verify_finite(small_instance, 10**4)
    for k in (1, 2):
        assert (-1.0) ** k * hi[k] > 0.0
        assert abs(hi[k] - lo[k]) <= 1e-6 * abs(hi[k])


def test_dual_value_itself_is_finite(small_instance):
    # order zero: the law is bounded below, so E[V(Z)] converges
    inst = small_instance
    vals = inst.conjugate.value(inst.atoms)
    v0 = (inst.base_prob * float(inst.conjugate.value(np.array([0.5]))[0])
          + float(np.dot(inst.atom_probs, vals)))
    assert math.isfinite(v0) and v0 > 0.0
    # tail of the series is negligible: V(i) ~ 1/i, weights ~ i**-3
    assert float(np.dot(inst.atom_probs[-100:], vals[-100:])) < 1e-6 * v0


def test_divergence_tracks_harmonic_oracle(small_instance):
    rep = cex1_divergence(small_instance, truncations=(10**2, 10**3, 10**4))
    assert rep.diverges
    for inc, orc in zip(rep.increments, rep.oracle_increments):
        assert inc > 0
        assert abs(inc - orc) <= 0.25 * orc


def test_order_three_envelope():
    inst = Cex1Instance(order=3, n_trunc=10**3)
    rng = np.random.default_rng(4)
    ys = rng.uniform(0.2, 15.0, size=40)
    for k in range(0, 4):
        inst.check_envelope(ys, k)


# ---- counterexample 2 ----------------------------------------------------------


@pytest.fixture(scope="module")
def market60():
    return cex2_build(n_states=60)


def test_cex2_invariants(market60):
    inst = market60
    p = np.asarray(inst.probs)
    assert abs(p.sum() - 1.0) <= 1e-12
    assert np.all(p > 0)
    assert p[0] <= 0.25
    assert p[1] >= 0.5
    foc = inst.expectation(lambda s: inst.utility.marginal(s) * (1.0 - s))
    assert abs(foc) <= 1e-12
    assert -1.0 < inst.delta_hat < 2.0
    assert abs(inst.delta_hat - 1.0) > 1e-6
    assert 1.0 < inst.mean_payoff() < 2.0


def test_cex2_one_share_is_optimal_at_unit_wealth(market60):
    from cmdual.counterexamples import _inner_max
    from cmdual.errors import OptimumAtBoundary

    # one share is optimal by construction, so the limit is no false alarm
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimumAtBoundary)
        value, delta = _inner_max(market60, 1.0)
    assert delta == pytest.approx(1.0, abs=1e-6)
    assert value == pytest.approx(
        market60.expectation(market60.utility.value), abs=1e-12)


def test_cex2_quadratic_max_at_delta_hat(market60):
    from scipy import optimize

    res = optimize.minimize_scalar(lambda d: -market60.quadratic_form(d),
                                   bounds=(-1.0, 2.0), method="bounded",
                                   options={"xatol": 1e-12})
    assert float(res.x) == pytest.approx(market60.delta_hat, abs=1e-6)


def test_cex2_gap_straddled(market60):
    rep = cex2_gap(market60, eps_list=(1e-2, 1e-3))
    assert rep.gap > 0
    assert rep.d_plus[-1] > rep.midpoint > rep.d_minus[-1]
    # trend toward the respective bounds
    assert abs(rep.d_plus[-1] - rep.q_at_hat) < abs(rep.d_plus[0] - rep.q_at_hat)
    assert abs(rep.d_minus[-1] - rep.q_constrained) < \
        abs(rep.d_minus[0] - rep.q_constrained)


def test_cex2_envelope_integrable(market60):
    def dominating_sum(inst, eps_bar=1.0 / 3.0):
        total = 0.0
        for p, s in zip(inst.probs, inst.payoffs):
            step = 1.0 + inst.delta_hat * (s - 1.0)
            lo, hi = s, s + eps_bar * step
            lo, hi = min(lo, hi), max(lo, hi)
            grid = np.linspace(lo, hi, 40)
            total += p * abs(min(inst.utility.second(g) for g in grid))
        return total

    a = dominating_sum(market60)
    b = dominating_sum(cex2_build(n_states=90))
    assert math.isfinite(a) and math.isfinite(b)
    assert abs(a - b) <= 1e-6 * abs(a)


def test_cex2_quotients_do_not_depend_on_state_order(market60):
    reversed_states = dataclasses.replace(
        market60, probs=market60.probs[::-1], payoffs=market60.payoffs[::-1])
    a = cex2_gap(market60)
    b = cex2_gap(reversed_states)
    assert (a.d_plus, a.d_minus) == (b.d_plus, b.d_minus)
    assert (a.q_at_hat, a.q_constrained, a.margin) == (
        b.q_at_hat, b.q_constrained, b.margin)


def test_cex2_rejects_constant_rra():
    with pytest.raises(ConstantRRA):
        cex2_build(PowerUtility(-1.0), n_states=10)


def test_inner_max_warns_on_boundary_optimum():
    from cmdual.counterexamples import Cex2Instance, _inner_max
    from cmdual.errors import OptimumAtBoundary

    # every payoff beats cash, so the best position is the admissible limit
    inst = Cex2Instance(footnote_utility(1), 1, (0.5, 0.5), (2.0, 1.5), 0.5)
    with pytest.warns(OptimumAtBoundary):
        _inner_max(inst, 1.0)


def test_cex2_market_audit_five_states():
    inst = cex2_build(n_states=4)
    fm = inst.to_finite_market()
    # the physical measure is not even a deflator: E[S1] > S0
    assert not fm.contains_deflator(np.ones(len(inst.probs)))
    report = sd_equivalence_audit(fm)
    if report.maximal_exists:
        assert report.all_agree


def test_cex2_accepts_general_footnote_exponent():
    inst = cex2_build(footnote_utility(2), n_states=40)
    assert -1.0 < inst.delta_hat < 2.0
    rep = cex2_gap(inst, eps_list=(1e-2,))
    assert rep.gap > 0


def test_default_cex2_gap_has_no_boundary_warning():
    # below unit wealth delta = x binds by construction; that is no alarm
    inst = cex2_build()
    with warnings.catch_warnings():
        warnings.simplefilter("error", OptimumAtBoundary)
        rep = cex2_gap(inst)
    assert rep.gap > 0


CEX2_UTILITIES = {
    "footnote1": footnote_utility(1), "footnote2": footnote_utility(2),
    "footnote3": footnote_utility(3), "power_m1": PowerUtility(-1.0),
    "power_half": PowerUtility(0.5), "log": LogUtility(),
    "mixture": UtilitySpec.from_dict(
        {"kind": "finite_order", "n": 3,
         "mixture": {"z": [0.5, 2.0], "c": [1.0, 0.4]}}),
}


@pytest.mark.parametrize("name", sorted(CEX2_UTILITIES))
def test_second_derivative_floor_is_the_left_end(name):
    # cex2_build takes min U'' over [2/(3n), 2/3 + 2/(3n)] as U''(2/(3n))
    u = CEX2_UTILITIES[name]
    ns = np.arange(2, 201)
    left = 2.0 / (3.0 * ns)
    floor = u.second(left)
    grid = left[:, None] + np.linspace(0.0, 2.0 / 3.0, 65)
    assert np.all(u.second(grid) >= floor[:, None] * (1.0 + 1e-14))
    # the bounded search the construction used to run finds the same value
    for n in (2, 20, 200):
        lo, hi = left[n - 2], left[n - 2] + 2.0 / 3.0
        res = optimize.minimize_scalar(u.second, bounds=(lo, hi),
                                       method="bounded",
                                       options={"xatol": 1e-12})
        found = min(float(res.fun), u.second(lo), u.second(hi))
        assert found == pytest.approx(floor[n - 2], rel=1e-14), n
