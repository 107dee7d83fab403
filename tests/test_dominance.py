"""Tests for laws, iterated CDFs, and dominance orders."""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from cmdual.cmcalc import DnFunction
from cmdual.dominance import (
    ABS_TOL,
    REL_TOL,
    Discrete,
    Distribution,
    Lognormal,
    discrete_witness_table,
    dominates_inf,
    dominates_n,
    expectation_vs_iterated,
    iterated_cdf,
    laplace_witness_table,
)
from cmdual.dominance import test_function_audit as function_audit
from cmdual.errors import QuadratureFailure

DELTA1 = Discrete.point(1.0)
DELTA2 = Discrete.point(2.0)
UNIF02 = Discrete((0.0, 2.0), (0.5, 0.5))


def random_discrete(rng, max_atoms=5, span=5.0):
    k = int(rng.integers(1, max_atoms + 1))
    xs = np.unique(np.round(rng.uniform(0.0, span, size=k), 6))
    ps = rng.dirichlet(np.ones(xs.size))
    ps = ps / ps.sum()
    return Discrete(tuple(xs), tuple(ps))


def mean_preserving_spread(d, rng):
    """Split every atom symmetrically; the original then dominates at order 2."""
    xs, ps = [], []
    for x, p in zip(d.xs, d.ps):
        delta = rng.uniform(0.0, 1.0) * min(x, 1.0) if x > 0 else 0.0
        if delta == 0.0:
            xs.append(x), ps.append(p)
        else:
            xs.extend([x - delta, x + delta])
            ps.extend([p / 2, p / 2])
    agg = {}
    for x, p in zip(xs, ps):
        agg[x] = agg.get(x, 0.0) + p
    return Discrete(tuple(agg), tuple(agg.values()))


def repeated_integration_oracle(d, n, y):
    """Literal iteration of F_i(y) = integral_0^y F_{i-1}."""

    knots = [k for k in getattr(d, "xs", ()) if 0.0 < k]

    def f(level, t):
        if level == 1:
            return float(d.iterated(1, [t])[0])
        pts = [k for k in knots if k < t]
        val, _ = integrate.quad(lambda s: f(level - 1, s), 0.0, t,
                                points=pts, epsabs=1e-10, epsrel=1e-10,
                                limit=200)
        return val

    return f(n, y)


def test_iterated_cdf_examples():
    assert iterated_cdf(DELTA1, 2, 3.0) == pytest.approx(2.0)
    assert iterated_cdf(DELTA1, 2, 0.5) == 0.0
    assert iterated_cdf(UNIF02, 2, 1.0) == pytest.approx(0.5)
    assert iterated_cdf(UNIF02, 1, 1.0) == pytest.approx(0.5)
    assert iterated_cdf(UNIF02, 1, 2.0) == pytest.approx(1.0)


@pytest.mark.parametrize("n,count", [(2, 20), (3, 20), (4, 20)])
def test_closed_form_matches_repeated_integration(n, count):
    rng = np.random.default_rng(7)
    for _ in range(count):
        d = random_discrete(rng)
        y = rng.uniform(0.5, 6.0)
        want = repeated_integration_oracle(d, n, y)
        assert iterated_cdf(d, n, y) == pytest.approx(want, abs=1e-8, rel=1e-8)


def test_lognormal_iterated_cdf():
    d = Lognormal(0.0, 0.25)
    got = iterated_cdf(d, 2, 1.5)
    want = repeated_integration_oracle(d, 2, 1.5)
    assert got == pytest.approx(want, rel=1e-6)


def test_dominates_first_order():
    assert dominates_n(DELTA2, DELTA1, 1)
    v = dominates_n(DELTA1, UNIF02, 1)
    assert not v
    assert 1.0 <= v.witness < 2.0


def test_dominates_second_order():
    assert dominates_n(DELTA1, UNIF02, 2)
    assert not dominates_n(UNIF02, DELTA1, 2)


def test_dominates_inf_examples():
    assert dominates_inf(DELTA2, DELTA1)
    v = dominates_inf(DELTA1, DELTA2)
    assert not v and v.witness > 0
    assert dominates_inf(DELTA1, UNIF02)


def test_dominance_nesting_orders():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = random_discrete(rng)
        g = mean_preserving_spread(f, rng)
        assert dominates_n(f, g, 2)
        for m in (3, 4):
            assert dominates_n(f, g, m), f"order {m} should follow from order 2"


def test_order2_implies_infinite_order():
    rng = np.random.default_rng(13)
    for _ in range(10):
        f = random_discrete(rng)
        g = mean_preserving_spread(f, rng)
        if dominates_n(f, g, 2):
            assert dominates_inf(f, g)


def test_scale_monotonicity_first_order():
    rng = np.random.default_rng(17)
    for _ in range(10):
        d = random_discrete(rng)
        c = rng.uniform(1.01, 3.0)
        scaled = Discrete(tuple(c * x for x in d.xs), d.ps)
        assert dominates_n(scaled, d, 1)


def test_fubini_identity_point_mass():
    W = DnFunction.exponential(1.0, order=2)
    chk = expectation_vs_iterated(DELTA1, W)
    assert chk.lhs == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert chk.gap <= 1e-6 * (1 + abs(chk.lhs))


def test_fubini_identity_two_point_order3():
    d = Discrete((1.0, 3.0), (0.5, 0.5))
    W = DnFunction.exponential(2.0, order=3)
    chk = expectation_vs_iterated(d, W)
    assert chk.lhs == pytest.approx(0.5 * (math.exp(-2) + math.exp(-6)), rel=1e-12)
    assert chk.gap <= 1e-6 * (1 + abs(chk.lhs))


def test_fubini_identity_atom_at_zero():
    d = Discrete.point(0.0)
    W = DnFunction.exponential(1.0, order=2)
    chk = expectation_vs_iterated(d, W)
    assert chk.lhs == pytest.approx(1.0, rel=1e-12)
    assert chk.gap <= 1e-6 * (1 + abs(chk.lhs))


def test_fubini_identity_quadrature_backed():
    # same law and order, but W given only through its second derivative
    d = Discrete((0.5, 2.0), (0.25, 0.75))
    W = DnFunction.from_nth_derivative(
        2, lambda t: 2.25 * math.exp(-1.5 * t), anchor=(1.0, math.exp(-1.5)))
    chk = expectation_vs_iterated(d, W)
    assert chk.gap <= 1e-6 * (1 + abs(chk.lhs))


@pytest.mark.parametrize("n", [2, 3])
def test_fubini_identity_lognormal(n):
    chk = expectation_vs_iterated(Lognormal(-0.125, 0.25),
                                  DnFunction.exponential(1.0, order=n))
    assert chk.gap <= 1e-6 * (1 + abs(chk.lhs))


def test_lognormal_expectation_takes_the_outcome_array():
    law = Lognormal(-0.125, 0.25)
    assert law.expectation(lambda y: y) == pytest.approx(law.mean(), rel=1e-12)


def test_audit_passes_on_dominant_pairs():
    assert function_audit(DELTA2, DELTA1, math.inf, family_size=50)
    rep = function_audit(DELTA1, UNIF02, 2, family_size=50)
    assert rep.ok and rep.tested == 50


def test_audit_finds_counterexample_without_dominance():
    rep = function_audit(UNIF02, DELTA1, 2, family_size=50)
    assert not rep.ok
    assert rep.counterexample is not None
    assert rep.counterexample["lhs"] > rep.counterexample["rhs"]


def test_audit_is_seed_deterministic():
    a = function_audit(UNIF02, DELTA1, 2, family_size=50, seed=3)
    b = function_audit(UNIF02, DELTA1, 2, family_size=50, seed=3)
    assert a == b


def test_lognormal_laplace_and_mean():
    d = Lognormal(-0.125, 0.25)
    assert d.mean() == pytest.approx(1.0, rel=1e-12)
    brute, _ = integrate.quad(lambda t: math.exp(-0.7 * t) * d.pdf(t), 0, np.inf)
    assert d.laplace(0.7) == pytest.approx(brute, rel=1e-9)


def test_distribution_json_round_trip():
    for d in (UNIF02, Lognormal(0.1, 0.5)):
        assert Distribution.from_dict(d.to_dict()) == d
    emp = Distribution.from_dict({"kind": "empirical", "sample": [1.0, 1.0, 2.0]})
    assert emp == Discrete((1.0, 2.0), (2 / 3, 1 / 3))


def test_empirical_rejects_negative():
    with pytest.raises(ValueError):
        Discrete((-1.0, 1.0), (0.5, 0.5))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_discrete_refuses_non_finite_numbers(bad):
    # each check used to read False on a NaN, which then became a verdict
    for xs, ps in (((bad, 1.0), (0.5, 0.5)), ((1.0, 2.0), (bad, 0.5))):
        with pytest.raises(ValueError):
            Discrete(xs, ps)
    with pytest.raises(ValueError):
        Distribution.from_dict({"kind": "empirical", "sample": [bad, 1.0]})


@pytest.mark.parametrize("n", range(2, 9))
def test_discrete_polynomial_path_matches_dense_grid(n):
    # fuzz the exact piecewise-polynomial violation search against a brute
    # dense-grid comparison, skipping knife-edge cases near the tolerance
    rng = np.random.default_rng(23 + n)
    checked = 0
    while checked < 40:
        f = random_discrete(rng)
        g = mean_preserving_spread(f, rng) if rng.random() < 0.5 \
            else random_discrete(rng)
        hi = max(max(f.xs), max(g.xs)) + 5.0
        grid = np.linspace(0.0, hi, 20001)
        fn, gn = f.iterated(n, grid), g.iterated(n, grid)
        margin = float(np.max(fn - gn))
        scale = 1e-10 + 1e-8 * float(np.max(np.abs(gn)) + np.max(np.abs(fn)))
        if abs(margin) <= 10 * scale:
            continue  # too close to the tie tolerance to compare verdicts
        brute_dominates = margin < 0
        assert bool(dominates_n(f, g, n)) == brute_dominates, (f, g, n)
        checked += 1


def test_wide_lognormal_laplace_is_finite():
    # the Gauss-Hermite weights must stay finite at the node counts a
    # log-variance of 16 needs
    d = Lognormal(0.0, 16.0)
    zs = [0.1, 1.0, 10.0]
    got = d.laplace(zs)
    assert np.all(np.isfinite(got))
    assert np.all((got > 0.0) & (got <= 1.0))
    for z, val in zip(zs, got):
        assert val == pytest.approx(d.laplace(z), rel=1e-9)


def test_wide_lognormal_is_not_mutually_dominant():
    wide, point = Lognormal(0.0, 16.0), Discrete.point(1e-3)
    assert not (dominates_inf(wide, point) and dominates_inf(point, wide))


class NanLaw(Distribution):
    """A law whose Laplace transform failed to evaluate."""

    def laplace(self, z):
        return np.full(np.shape(z), np.nan)


def test_non_finite_laplace_is_a_failure_not_a_verdict():
    for F, G in ((NanLaw(), DELTA1), (DELTA1, NanLaw())):
        with pytest.raises(QuadratureFailure):
            dominates_inf(F, G)


def lognormal_iterated_oracle(d, n, y):
    """F_n(y) = integral_0^y (y - t)**(n-1) pdf(t) dt / (n-1)!.

    Integrated over u = ln t within 40 standard deviations of the log-mean,
    where all but 1e-300 of the mass lies, so narrow laws are not missed.
    """
    lo, hi = d.m - 40.0 * d.s, min(math.log(y), d.m + 40.0 * d.s)
    if hi <= lo:
        return 0.0
    val, _ = integrate.quad(
        lambda u: (y - math.exp(u)) ** (n - 1) * d.pdf(math.exp(u))
        * math.exp(u), lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
    return val / math.factorial(n - 1)


@pytest.mark.parametrize("n", range(1, 9))
def test_lognormal_iterated_closed_form(n):
    for d in (Lognormal(0.0, 0.25), Lognormal(-0.5, 1.0), Lognormal(0.0, 0.01)):
        for y in [*d.quantile_knots(9), 1e2, 1e4]:
            got = float(d.iterated(n, [y])[0])
            want = lognormal_iterated_oracle(d, n, y)
            assert abs(got - want) <= ABS_TOL + REL_TOL * max(abs(got),
                                                              abs(want))


# ---- known answers at every scale ---------------------------------------------

SCALES = (1.0, 10.0, 100.0, 1e3, 1e4)


def scaled(d, scale):
    return Discrete(tuple(np.asarray(d.xs) * scale), d.ps)


def exact_iterated(d, n, y):
    """F_n(y) = sum_i p_i (y - x_i)_+**(n-1) / (n-1)! in exact rationals."""
    y = Fraction(y)
    return sum((Fraction(p) * (y - Fraction(x)) ** (n - 1)
                for x, p in zip(d.xs, d.ps) if x <= y),
               Fraction(0)) / math.factorial(n - 1)


@pytest.mark.parametrize("scale", SCALES)
def test_point_masses_are_ordered_by_location(scale):
    # for a > b, delta_a dominates delta_b at every order, never conversely
    rng = np.random.default_rng(11)
    pairs = [(47.12325, 36.72854)] + [
        tuple(np.sort(rng.uniform(0.0, 50.0, 2))[::-1]) for _ in range(20)]
    for a, b in pairs:
        high = Discrete.point(a * scale)
        low = Discrete.point(b * scale)
        for n in range(1, 9):
            assert dominates_n(high, low, n), (a, b, n)
            assert not dominates_n(low, high, n), (a, b, n)


@pytest.mark.parametrize("scale", SCALES)
def test_point_dominates_its_symmetric_spread(scale):
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = rng.uniform(0.5, 50.0)
        d = rng.uniform(0.01, 1.0) * m
        point = Discrete.point(m * scale)
        spread = Discrete(((m - d) * scale, (m + d) * scale), (0.5, 0.5))
        for n in range(2, 9):
            assert dominates_n(point, spread, n), (m, d, n)


@pytest.mark.parametrize("scale", SCALES)
def test_smaller_mean_never_dominates(scale):
    # E F < E G makes G_n - F_n -> -inf past the last atom for every n >= 2
    rng = np.random.default_rng(13)
    checked = 0
    while checked < 50:
        f, g = random_discrete(rng), random_discrete(rng)
        if abs(f.mean() - g.mean()) < 1e-6:
            continue
        low, high = (f, g) if f.mean() < g.mean() else (g, f)
        for n in range(2, 9):
            assert not dominates_n(scaled(low, scale), scaled(high, scale), n)
        checked += 1


def test_smaller_mean_witness_is_an_exact_violation():
    # E F = 300 < E G = 301, so F cannot dominate G at any order >= 2
    F, G = Discrete.point(300.0), Discrete((200.0, 402.0), (0.5, 0.5))
    for n in range(2, 9):
        verdict = dominates_n(F, G, n)
        assert not verdict
        y = verdict.witness
        assert exact_iterated(G, n, y) - exact_iterated(F, n, y) < 0, (n, y)


def test_discrete_order_n_reads_only_iterated_cdfs(monkeypatch):
    # the local Taylor coefficients come from one Discrete.iterated call per
    # order and law; no second formula for F_n
    calls = []
    iterated = Discrete.iterated

    def counted(self, n, ys):
        calls.append(n)
        return iterated(self, n, ys)

    monkeypatch.setattr(Discrete, "iterated", counted)
    pairs = [(DELTA1, UNIF02), (UNIF02, DELTA1),
             (Discrete((0.5, 3.0), (0.5, 0.5)),
              Discrete((1.0, 2.0, 2.5), (0.2, 0.5, 0.3)))]
    for F, G in pairs:
        for n in range(1, 9):
            calls.clear()
            dominates_n(F, G, n)
            assert len(calls) == 2 * n, (F, G, n)


@pytest.mark.parametrize("scale", [1.0, 10.0])
def test_witness_tables_match_single_pairs(scale):
    # every entry of a rectangle equals the verdict of its pair on its own;
    # shifted copies make some pairs dominate at every order
    rng = np.random.default_rng(23)
    laws = []
    for _ in range(3):
        xs = np.sort(rng.uniform(0.0, 1.0, 3))
        ps = rng.dirichlet(np.ones(3))
        laws += [Discrete(tuple(scale * xs), tuple(ps)),
                 Discrete(tuple(scale * (xs + rng.uniform(0.05, 0.5, 3))),
                          tuple(ps))]
    rows, cols = laws[:4], laws

    def witness(verdict):
        return math.nan if verdict.witness is None else verdict.witness

    for n in range(2, 9):
        single = [[witness(dominates_n(F, G, n)) for G in cols] for F in rows]
        assert np.array_equal(discrete_witness_table(rows, cols, n), single,
                              equal_nan=True), n
    single = [[witness(dominates_inf(F, G)) for G in cols] for F in rows]
    assert np.array_equal(laplace_witness_table(rows, cols), single,
                          equal_nan=True)
