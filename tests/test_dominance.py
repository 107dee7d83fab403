"""Tests for laws, iterated CDFs, and dominance orders."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyder, polyfromroots, polyroots, polyval
from scipy import integrate

from cmdual import dominance
from cmdual.cmcalc import DnFunction
from cmdual.dominance import (
    ABS_TOL,
    REL_TOL,
    Discrete,
    Distribution,
    Lognormal,
    _grid_violation,
    _interior_witness,
    discrete_witness_table,
    dominates_inf,
    dominates_n,
    expectation_vs_iterated,
    iterated_cdf,
    laplace_end_violated,
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
    """Literal iteration of F_i(y) = integral_0^y F_{i-1}.

    A discrete law's F_i is a polynomial between consecutive atoms, so its
    integrals are taken interval by interval in exact rationals; any other
    law goes through nested quad.
    """
    if isinstance(d, Discrete):
        return float(exact_repeated_integration(d, n, y))
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


def exact_repeated_integration(d, n, y):
    """F_n(y) of a discrete law, each F_i = integral_0^y F_{i-1} integrated
    exactly on every interval between 0, the atoms below y and y."""
    y = Fraction(y)
    atoms = [(Fraction(x), Fraction(p)) for x, p in zip(d.xs, d.ps)]
    cuts = sorted({Fraction(0), y, *(x for x, _ in atoms if x < y)})
    # F_1 on [a, b): the mass at or below a, as a polynomial in t - a
    pieces = [[sum((p for x, p in atoms if x <= a), Fraction(0))]
              for a in cuts[:-1]]
    value = sum((p for x, p in atoms if x <= y), Fraction(0))
    for _ in range(n - 1):
        value, integrated = Fraction(0), []
        for a, b, poly in zip(cuts, cuts[1:], pieces):
            integrated.append([value, *(c / (r + 1) for r, c in enumerate(poly))])
            value = sum(c * (b - a) ** r for r, c in enumerate(integrated[-1]))
        pieces = integrated
    return value


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


# every rung of the doubling ladder, and two odd counts
HERMITE_COUNTS = (64, 65, 128, 151, 256, 512, 1024, 2048, 4096)


def mp_hermite_node(n, x):
    """A 40-digit Gauss-Hermite node polished from ``x`` by two Newton steps
    on H_(k+1) = 2t H_k - 2k H_(k-1), and its weight 2**(n-1) n!/(n**2
    H_(n-1)**2), normalised to sum 1."""
    with mpmath.workdps(40):
        t = mpmath.mpf(float(x))
        for _ in range(2):
            prev, cur = mpmath.mpf(0), mpmath.mpf(1)
            for k in range(n):
                prev, cur = cur, 2 * t * cur - 2 * k * prev
            t -= cur / (2 * n * prev)
        weight = mpmath.mpf(2) ** (n - 1) * mpmath.factorial(n) / (n * prev) ** 2
        return t, weight


@pytest.mark.parametrize("n", HERMITE_COUNTS)
def test_hermite_rule_is_symmetric_and_normalised(n):
    t, w = dominance._hermite_rule(n)
    assert t.shape == w.shape == (n,)
    assert not t.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(t) > 0)
    assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
    assert (t[n // 2] == 0.0) == (n % 2 == 1)
    # weights underflow only where exp(-t**2) does
    assert np.all(w >= 0.0) and np.all(w[np.abs(t) < 27.0] > 0.0)
    assert abs(math.fsum(w) - 1.0) <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("n", HERMITE_COUNTS)
def test_hermite_rule_matches_a_40_digit_newton_polish(n):
    # the nodes within 1e-15 (1 + |t|), the weights within 1e-12 relative
    # where they are normal numbers; centre, edge and bulk nodes
    t, w = dominance._hermite_rule(n)
    half = n // 2
    for i in {half, half + 1, half + 2, *range(n - 4, n),
              *np.linspace(half, n - 1, 6).astype(int)}:
        node, weight = mp_hermite_node(n, t[i])
        assert abs(node - t[i]) <= 1e-15 * (1 + abs(t[i])), i
        if weight > 1e-290:
            assert abs(weight - w[i]) <= 1e-12 * weight, i
        else:
            assert w[i] <= 1e-290, i


@pytest.mark.parametrize("m, s2", [(0.0, 0.05), (-0.5, 0.25), (0.3, 1.0),
                                   (0.0, 4.0)])
def test_lognormal_rule_reproduces_the_moments(m, s2):
    # E[Y**q] = exp(q m + q**2 s**2/2), on the rule the ladder settles on
    law = Lognormal(m, s2)
    for q in (-4.0, -2.0, -1.0, -0.5, 0.5, 1.0, 2.0, 3.0, 4.0):
        exact = math.exp(q * m + q * q * s2 / 2)
        got = law.rule(lambda y: y**q).value
        assert abs(got - exact) <= 2e-14 * exact, q


def test_hermite_rule_is_built_on_first_use():
    # importing the CLI builds no rule: start-up pays for none
    code = ("import cmdual.cli\n"
            "from cmdual.dominance import _hermite_rule\n"
            "assert _hermite_rule.cache_info().currsize == 0\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(dominance.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr


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
    # law, for all orders n..1 at once; no second formula for F_n
    calls = []
    iterated = Discrete.iterated

    def counted(self, n, ys):
        calls.append(list(n))
        return iterated(self, n, ys)

    monkeypatch.setattr(Discrete, "iterated", counted)
    pairs = [(DELTA1, UNIF02), (UNIF02, DELTA1),
             (Discrete((0.5, 3.0), (0.5, 0.5)),
              Discrete((1.0, 2.0, 2.5), (0.2, 0.5, 0.3)))]
    for F, G in pairs:
        for n in range(1, 9):
            calls.clear()
            dominates_n(F, G, n)
            assert calls == [list(range(n, 0, -1))] * 2, (F, G, n)


def test_iterated_orders_match_single_orders():
    # one call for several orders gives each order's values bit for bit
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_discrete(rng)
        ys = np.sort(rng.uniform(0.0, 6.0, 9))
        table = d.iterated(range(9, 0, -1), ys)
        for r, n in enumerate(range(9, 0, -1)):
            assert np.array_equal(table[r], d.iterated(n, ys)), n


def reference_interior_violation(knots, dc, gc):
    """The per-interval numpy.polynomial search the array kernel replaced:
    leftmost interior minimum of sum_r dc[r, j] t**r on knot interval j
    below the tie tolerance (gc: G's coefficients there), NaN if none."""
    slopes = polyder(dc)
    for j, width in enumerate(np.diff(knots, append=math.inf)):
        roots = polyroots(slopes[:, j])
        ts = np.sort(roots.real[(np.abs(roots.imag) < 1e-12)
                                & (roots.real > 0) & (roots.real < width)])
        dval, gval = polyval(ts, dc[:, j]), polyval(ts, gc[:, j])
        tol = REL_TOL * np.maximum(np.abs(gval), np.abs(gval - dval))
        bad = dval < -tol
        if bad.any():
            return knots[j] + ts[np.argmax(bad)]
    return math.nan


def random_coefficient_table(rng, pairs, n, size):
    """Knots, a knot mask per pair and coefficient tables dc, gc whose
    slopes on each interval mix every case polyroots tells apart: exactly
    zero leading coefficients (slopes of degree 0 and 1), complex
    conjugate roots, nearly real pairs, and roots at or just inside the
    interval's edges.  A pair's last interval has infinite width."""
    knots = np.append(0.0, np.sort(rng.uniform(0.0, 5.0, size - 1)))
    mask = rng.random((pairs, size)) < 0.7
    mask[:, 0] = True
    dc = rng.normal(size=(pairs, n, size))
    gc = rng.normal(size=(pairs, n, size))
    for p in range(pairs):
        own = np.flatnonzero(mask[p])
        widths = np.diff(knots[own], append=math.inf)
        for k, width in zip(own, widths):
            edge = width if width < math.inf else rng.uniform(0.5, 5.0)
            kind = rng.integers(6)
            if kind < 2:  # slope of degree 0 or 1 (or zero)
                dc[p, 2 + kind:, k] = 0.0
                if rng.random() < 0.2:
                    dc[p, 1:, k] = 0.0
                continue
            if kind == 2:
                roots = [complex(rng.uniform(0, edge), rng.uniform(0.1, 1.0))]
                roots += [roots[0].conjugate()]
            elif kind == 3:
                im = 10.0 ** rng.uniform(-16, -11)
                roots = [complex(rng.uniform(0, edge), im)]
                roots += [roots[0].conjugate()]
            else:
                roots = [edge, np.nextafter(edge, 0.0), 0.0,
                         edge * (1 - 1e-15)][:rng.integers(1, 5)]
            roots += list(rng.uniform(-1.0, edge, rng.integers(0, 3)))
            roots = roots[:n - 2]
            slope = np.real(polyfromroots(roots)) * rng.uniform(0.5, 2.0)
            dc[p, 1:, k] = 0.0
            dc[p, 1:len(slope) + 1, k] = slope / np.arange(1, len(slope) + 1)
            dc[p, 0, k] = rng.uniform(-0.5, 1.0)
    return knots, mask, dc, gc


@pytest.mark.parametrize("n", [3, 4, 6, 9])
def test_interior_kernel_matches_per_interval_search(n):
    # the batched kernel finds every pair's witness bit for bit as the
    # per-interval polyroots/polyval search did
    rng = np.random.default_rng(40 + n)
    found = []
    for _ in range(30):
        knots, mask, dc, gc = random_coefficient_table(rng, 6, n, 8)
        got = _interior_witness(knots, mask, dc, gc)
        want = np.array([reference_interior_violation(
            knots[mask[p]], dc[p][:, mask[p]], gc[p][:, mask[p]])
            for p in range(mask.shape[0])])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (
            got, want)
        found += list(np.isnan(got))
    assert 0 < sum(found) < len(found)


def test_order_8_verdict_eigensolves_once_per_slope_degree(monkeypatch):
    # a dominating pair searches every interval; the intervals share one
    # stacked eigensolve per trimmed slope degree, and no numpy.polynomial
    # function runs
    degrees = []
    eigvals = np.linalg.eigvals

    def counted(a):
        degrees.append(a.shape[-1])
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    polynomial = []

    def watch(frame, event, arg):
        path = frame.f_code.co_filename
        if event == "call" and f"numpy{os.sep}polynomial{os.sep}" in path:
            polynomial.append(frame.f_code.co_name)

    G = Discrete((0.5, 1.5, 2.5, 3.1), (0.2, 0.4, 0.3, 0.1))
    F = Discrete((1.0, 2.0, 3.0, 3.6), G.ps)
    sys.setprofile(watch)
    try:
        verdict = dominates_n(F, G, 8)
    finally:
        sys.setprofile(None)
    assert verdict
    assert degrees and len(degrees) == len(set(degrees)), degrees
    assert polynomial == []


def test_violation_past_the_last_knot_is_found_by_the_tail_walk(monkeypatch):
    # G_n - F_n stays positive up to the last atom 1.5 and then falls
    # without an interior minimum (E F = 1 < E G = 1.125), so no knot and no
    # interval finds the violation: the walk past the last knot does,
    # starting at 3, twice that knot, and doubling; the witnesses are pinned
    F, G = Discrete.point(1.0), Discrete((0.0, 1.5), (0.25, 0.75))
    interior = []

    def recorded(*args):
        interior.append(_interior_witness(*args))
        return interior[-1]

    monkeypatch.setattr(dominance, "_interior_witness", recorded)
    for n, want in zip(range(3, 9), TAIL_WALK_WITNESSES):
        interior.clear()
        verdict = dominates_n(F, G, n)
        assert len(interior) == 1 and np.isnan(interior[0]).all(), n
        assert verdict.witness == want, n
        assert exact_iterated(G, n, want) < exact_iterated(F, n, want)


# the tail walk's witnesses at orders 3-8, in units of the pair's scale
TAIL_WALK_WITNESSES = (3.0, 6.0, 12.0, 12.0, 12.0, 24.0)


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
def test_tail_walk_scales_with_the_laws(c):
    # the walk starts at twice the last knot, not a fixed distance past it,
    # so rescaling both laws rescales its witnesses
    F, G = Discrete.point(c), Discrete((0.0, 1.5 * c), (0.25, 0.75))
    for n, want in zip(range(3, 9), TAIL_WALK_WITNESSES):
        verdict = dominates_n(F, G, n)
        assert not verdict and verdict.witness / c == want, (n, c)
        assert exact_iterated(G, n, verdict.witness) < exact_iterated(
            F, n, verdict.witness), (n, c)


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


# ---- scale-free ties on the exact discrete path -------------------------------

def normalised_iterated(d, n, y):
    """exact_iterated with the masses scaled to sum to exactly 1: float
    masses summing to 1 within rounding describe a probability law."""
    return exact_iterated(d, n, y) / sum(map(Fraction, d.ps), Fraction(0))


# F_2 - G_2 peaks at 0.5001 at F's 1e-6 times the 1e-4 gap, a true
# violation of 1e-10: once the size of the old absolute tie floor
TIE_F = Discrete((0.5, 10.0), (1e-6, 1 - 1e-6))
TIE_G = Discrete((0.5001, 1.0), (0.5, 0.5))


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("n", [2, 3, 8])
def test_violation_at_the_size_of_the_old_floor_is_found_at_every_scale(
        scale, n):
    F, G = scaled(TIE_F, scale), scaled(TIE_G, scale)
    verdict = dominates_n(F, G, n)
    assert not verdict
    assert verdict.witness == G.xs[0] == 0.5001 * scale
    assert exact_iterated(G, n, verdict.witness) < exact_iterated(
        F, n, verdict.witness)


# rescaling probe pairs of the discrete_markets benchmark (seeds 102 and
# 106) that read "dominates" at x1 and "violated" at x10: each is violated
# by exact rational evaluation, at x1 by less than the old floor
PROBE_PAIRS = [
    (Discrete((0.2377246178383816, 0.6455830838476505, 0.8280567620621894),
              (0.0364935836818347, 0.8337701228278491, 0.12973629349031615)),
     Discrete((0.29000513965423413, 0.5361901478174166, 0.8906668348897564),
              (0.376589408554568, 0.3249507567289343, 0.2984598347164976)),
     (8,)),
    (Discrete((0.02771206224907441, 0.7466879634027576, 0.9856222809682798),
              (0.0003340896767250921, 0.04565586521122239,
               0.9540100451120525)),
     Discrete((0.22251421947772987, 0.5449226153077497, 0.8389531579061792),
              (0.09004462347632744, 0.3317322039785486, 0.578223172545124)),
     (8,)),
    (Discrete((0.04036047896601025, 0.7749623580425603, 0.7981607896021629),
              (0.01778707685047585, 0.460483334368534, 0.5217295887809901)),
     Discrete((0.04841984694653634, 0.6242148048970471, 0.6880186678268482),
              (0.4418042242044623, 0.06282063436107951, 0.49537514143445815)),
     (5, 6, 7)),
]


@pytest.mark.parametrize("scale", [1.0, 10.0])
@pytest.mark.parametrize("F,G,orders", PROBE_PAIRS)
def test_rescaling_probe_pairs_are_violated_at_both_scales(F, G, orders, scale):
    F, G = scaled(F, scale), scaled(G, scale)
    for n in orders:
        verdict = dominates_n(F, G, n)
        assert not verdict, n
        assert normalised_iterated(G, n, verdict.witness) < normalised_iterated(
            F, n, verdict.witness), n


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_tail_walk_ends_where_only_the_leading_coefficient_falls(scale):
    # E F = 1 < E G = 1 + 1e-6 while G is far more spread, so G_n - F_n turns
    # negative only near y = 4e5 and is there below 1e-8 of F_n and G_n at
    # every order n >= 3: the walk must stop at a finite exact violation
    F = scaled(Discrete((0.5, 1.5), (0.5, 0.5)), scale)
    G = scaled(Discrete((0.0, 2.0 + 2e-6), (0.5, 0.5)), scale)
    for n in range(2, 9):
        verdict = dominates_n(F, G, n)
        assert not verdict, n
        assert math.isfinite(verdict.witness), n
        assert exact_iterated(G, n, verdict.witness) < exact_iterated(
            F, n, verdict.witness), n


@st.composite
def discrete_pairs(draw):
    """Two laws of 2-6 atoms on a grid of 1/100 with masses from small
    integer weights, in either order.  Half the time the second law is a
    near-shifted copy of the first: each atom moved up by a step of 0 to
    0.5, with the same masses or new ones."""
    def law(xs):
        weights = draw(st.lists(st.integers(1, 20), min_size=len(xs),
                                max_size=len(xs)))
        return Discrete(tuple(xs), tuple(w / sum(weights) for w in weights))

    def atoms():
        return [x / 100 for x in draw(st.lists(
            st.integers(0, 1000), min_size=2, max_size=6, unique=True))]

    F = law(atoms())
    if draw(st.booleans()):
        steps = st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 0.5])
        ys = [x + draw(steps) for x in F.xs]
        assume(len(set(ys)) == len(ys))
        G = Discrete(tuple(ys), F.ps) if draw(st.booleans()) else law(ys)
    else:
        G = law(atoms())
    return (G, F) if draw(st.booleans()) else (F, G)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=discrete_pairs(), k=st.integers(-6, 6))
def test_discrete_verdicts_are_scale_free_with_exact_witnesses(pair, k):
    F, G = pair
    c = 10.0 ** k
    for n in range(1, 9):
        for scale in (1.0, c):
            Fs, Gs = scaled(F, scale), scaled(G, scale)
            verdict = dominates_n(Fs, Gs, n)
            if scale == 1.0:
                at_one = verdict.dominates
            else:
                assert verdict.dominates == at_one, (n, c)
            if not verdict:
                w = verdict.witness
                assert normalised_iterated(Gs, n, w) < normalised_iterated(
                    Fs, n, w), (n, scale, w)


# F's mean is 0.12 below G's, but their Laplace transforms cross only below
# Z_RANGE's lower end (two vertex laws of a drawn 2-state market)
MEAN_BELOW_GRID = (
    Discrete((0.0, 1.749338935139), (0.6568808150019195, 0.34311918499808053)),
    Discrete((0.0, 4909.782594590136),
             (0.9998527513563573, 0.00014724864364278138)))


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
def test_discrete_inf_verdict_sees_a_mean_violation_below_the_grid(scale):
    F, G = (scaled(law, scale) for law in MEAN_BELOW_GRID)
    assert F.mean() < G.mean()
    assert laplace_end_violated(F, G)
    verdict = dominates_inf(F, G)
    assert not verdict
    # the grid's witness where it finds one (at x0.01, z = 1e-4), else none
    found = laplace_witness_table([F], [G])[0, 0]
    assert verdict.witness == (None if math.isnan(found) else found)
    assert (verdict.witness is None) == (scale != 0.01)


@pytest.mark.parametrize("scale", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("G", [TIE_G, Discrete((0.6, 1.0), (0.5, 0.5))],
                         ids=["0.5001", "0.6"])
def test_discrete_inf_verdict_sees_the_lowest_atom_at_every_scale(G, scale):
    # F's mass 1e-6 at 0.5, below G's lowest atom, decides as z -> inf; the
    # grid finds the crossing at z ~ 134 against 0.6 at x1 and x100 only,
    # and never against 0.5001 (z ~ 1.3e5 at x1; e^(-50 z) underflows at
    # x100)
    F, G = scaled(TIE_F, scale), scaled(G, scale)
    assert F.mean() > G.mean() and laplace_end_violated(F, G)
    assert not dominates_inf(F, G)


def test_laplace_ends_decide_by_the_mean_and_the_lowest_atom():
    # a larger mean and less mass at the lowest atom pass both ends
    assert not laplace_end_violated(DELTA2, DELTA1)
    assert not laplace_end_violated(DELTA1, UNIF02)
    # a smaller mean fails as z -> 0+
    assert laplace_end_violated(DELTA1, DELTA2)
    # equal means: more mass at the lowest atom fails as z -> inf
    assert laplace_end_violated(UNIF02, DELTA1)
    # equal atoms and masses pass on to the next atom, where F has mass
    # and G none; F's extra top atom fails too
    F = Discrete((0.0, 1.0, 4.0), (0.5, 0.3, 0.2))
    G = Discrete((0.0, 2.0, 2.5), (0.5, 0.4, 0.1))
    assert F.mean() > G.mean() and laplace_end_violated(F, G)
    assert laplace_end_violated(Discrete((0.0, 1.0, 2.0), (0.5, 0.5, 1e-13)),
                                Discrete((0.0, 1.0), (0.5, 0.5)))
    assert not laplace_end_violated(F, F)
    # more mass by less than the tie at the lowest atom where the masses
    # differ decides nothing, though it is the sign of d(z) as z -> inf
    G = Discrete((0.0, 2.0, 2.5), (0.5 - 1e-12, 0.4, 0.1 + 1e-12))
    assert F.mean() > G.mean() and not laplace_end_violated(F, G)


def laplace_gap(F, G, z):
    """E e^-zG - E e^-zF at mpmath's working precision, from the exact
    float atoms and masses."""
    def transform(d):
        return mpmath.fsum(mpmath.mpf(p) * mpmath.exp(-z * mpmath.mpf(x))
                           for x, p in zip(d.xs, d.ps))
    return transform(G) - transform(F)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pair=discrete_pairs(), k=st.integers(-6, 6))
def test_laplace_end_violations_are_real_and_scale_free(pair, k):
    F, G = pair
    violated = laplace_end_violated(F, G)
    assert laplace_end_violated(scaled(F, 10.0**k), scaled(G, 10.0**k)) == violated
    if dominates_n(F, G, 2):
        assert not violated  # order 2 implies infinite order
    if violated:
        assert not dominates_inf(F, G)
        with mpmath.workdps(50):
            zs = (mpmath.mpf(10) ** (e / 10) for e in range(-120, 121))
            assert any(laplace_gap(F, G, z) < 0 for z in zs), (F, G)


# ---- the quadrature grid path: lognormal and mixed pairs ------------------------

def test_levy_lognormal_pairs_dominate_from_order_2():
    # s_F < s_G and E F > E G: F dominates G at order 2 (Levy 1973), so at
    # every higher order
    F, G = Lognormal(0.0, 0.1), Lognormal(-0.2, 0.4)
    assert F.mean() > G.mean()
    for n in range(2, 9):
        assert dominates_n(F, G, n), n


def test_lognormal_with_smaller_mean_is_violated_at_order_2():
    F, G = Lognormal(-0.3, 0.25), Lognormal(0.0, 0.25)
    assert F.mean() < G.mean()
    verdict = dominates_n(F, G, 2)
    assert not verdict
    assert F.iterated(2, [verdict.witness])[0] > G.iterated(
        2, [verdict.witness])[0]


def mp_lognormal_iterated(d, n, y):
    """F_n(y) of a lognormal at 50 digits: the integral over u = ln t < ln y
    of (y - e^u)**(n-1) / (n-1)! times the normal density of u."""
    with mpmath.workdps(50):
        m, s, y = mpmath.mpf(d.m), mpmath.sqrt(mpmath.mpf(d.s2)), mpmath.mpf(y)
        log_y = mpmath.log(y)
        return mpmath.quad(lambda u: (y - mpmath.exp(u)) ** (n - 1)
                           * mpmath.npdf(u, m, s),
                           [-mpmath.inf, log_y - 1, log_y]) / mpmath.factorial(n - 1)


# s_F = 0.408 > s_G = 0.403, so F's left tail is the heavier one and F never
# dominates G, although E F > E G; F_n - G_n is of order 1e-87 where it is
# positive, far below the grid's tolerance
HIDDEN_F, HIDDEN_G = Lognormal(0.0, 0.408**2), Lognormal(-0.098, 0.403**2)


def test_lognormal_violation_below_the_grid_tolerance_is_found():
    F, G = HIDDEN_F, HIDDEN_G
    assert F.mean() > G.mean()
    # the CDFs cross at y*, and F_n > G_n on (0, y*] at every order
    half = math.exp((F.m * G.s - G.m * F.s) / (G.s - F.s)) / 2.0
    assert half == pytest.approx(1.68e-4, rel=1e-2)
    for n in (1, 2, 3, 8):
        verdict = dominates_n(F, G, n)
        assert not verdict and verdict.witness == half, n
        assert mp_lognormal_iterated(G, n, half) < mp_lognormal_iterated(
            F, n, half), n
    verdict = dominates_inf(F, G)
    assert not verdict and verdict.witness is None


def mp_survival_gap(F, G, y):
    """(1 - G_1(y)) - (1 - F_1(y)) = F_1(y) - G_1(y) for two lognormals, at
    50 digits from the survival functions, which stay resolved where both
    CDFs round to 1."""
    with mpmath.workdps(50):
        log_y = mpmath.log(mpmath.mpf(y))

        def survival(d):
            return mpmath.ncdf(-(log_y - d.m) / mpmath.sqrt(mpmath.mpf(d.s2)))
        return survival(G) - survival(F)


def test_order_1_violation_past_the_crossing_is_found():
    # s_F < s_G: F_1 > G_1 on all of (y*, inf), but y* ~ 2694 lies where
    # both CDFs round to 1, so the grid sees a tie
    F, G = Lognormal(0.0, 0.403**2), Lognormal(-0.098, 0.408**2)
    assert F.s < G.s and F.mean() > G.mean()
    twice = 2.0 * math.exp((F.m * G.s - G.m * F.s) / (G.s - F.s))
    assert twice == pytest.approx(5388.1, rel=1e-4)
    verdict = dominates_n(F, G, 1)
    assert not verdict and verdict.witness == twice
    assert F.iterated(1, [twice])[0] == G.iterated(1, [twice])[0] == 1.0
    assert mp_survival_gap(F, G, twice) > 0
    # from order 2 on Levy's criterion holds
    assert dominates_n(F, G, 2)


def test_dominating_lognormal_pair_evaluates_neither_law(monkeypatch):
    calls = []

    def counted(name):
        method = getattr(Lognormal, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return wrapper

    for name in ("iterated", "laplace"):
        monkeypatch.setattr(Lognormal, name, counted(name))
    F, G = Lognormal(0.0, 0.1), Lognormal(-0.2, 0.4)
    assert all(dominates_n(F, G, n) for n in range(2, 9))
    assert dominates_inf(F, G)
    assert dominates_n(Lognormal(0.1, 0.25), Lognormal(0.0, 0.25), 1)
    assert calls == []


@st.composite
def lognormal_pairs(draw):
    """F and G with log-variances in [0.01, 2], G's a multiple of F's near
    1 or far from it, and E F / E G = e^gap with gap near 0 or far from it."""
    m = draw(st.floats(-1.0, 1.0))
    s2 = draw(st.floats(0.01, 2.0))
    s2_g = s2 * draw(st.sampled_from([1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.05,
                                      0.95, 2.0, 0.5]))
    gap = draw(st.sampled_from([0.0, 1e-9, -1e-9, 1e-3, -1e-3, 0.3, -0.3]))
    return Lognormal(m, s2), Lognormal(m + s2 / 2 - s2_g / 2 - gap, s2_g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pair=lognormal_pairs())
def test_lognormal_verdicts_nest_are_antisymmetric_and_meet_the_grid(pair):
    F, G = pair
    orders = (*range(1, 9), math.inf)

    def verdicts(F, G):
        return [bool(dominates_n(F, G, n) if n != math.inf
                     else dominates_inf(F, G)) for n in orders]

    forward, backward = verdicts(F, G), verdicts(G, F)
    for row in (forward, backward):
        # order n implies order n + 1 and infinite order
        assert all(not a or b for a, b in zip(row, row[1:])), row
    if any(a and b for a, b in zip(forward, backward)):
        assert (F.m, F.s2) == (G.m, G.s2)
    # a witness that the quadrature grid finds is never called dominance
    for (A, B), row in (((F, G), forward), ((G, F), backward)):
        for n, dominates in zip(orders, row):
            try:
                witness = (_grid_violation(A, B, n) if n != math.inf
                           else laplace_witness_table([A], [B])[0, 0])
            except QuadratureFailure:
                continue
            assert not (dominates and math.isfinite(witness)), (A, B, n)


def test_mixed_pair_verdicts_are_pinned():
    F, G = Discrete((0.5, 1.5), (0.5, 0.5)), Lognormal(0.0, 0.25)
    for n, want in ((2, 0.5336904790324424), (3, 0.5834735408982554)):
        verdict = dominates_n(F, G, n)
        assert not verdict and verdict.witness == want, n


def reference_audit(F, G, order, family_size=100, seed=0):
    """The audit as one Laplace call per law and test function, each
    settling on its own ladder: what the batched audit must reproduce."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(dominance.Z_RANGE[0]), math.log(dominance.Z_RANGE[1])
    finite = order != math.inf
    n = int(order) if finite else None
    tested = 0
    for i in range(family_size):
        mixture = finite and (i % 2 == 1)
        if mixture:
            j = rng.integers(2, 6)
            zs = np.exp(rng.uniform(lo, hi, size=j))
            cs = rng.uniform(0.1, 1.0, size=j)
            weights = cs / zs**n
        else:
            zs = np.array([math.exp(rng.uniform(lo, hi))])
            weights = np.array([1.0])
        ef = float(np.dot(weights, np.asarray(F.laplace(zs))))
        eg = float(np.dot(weights, np.asarray(G.laplace(zs))))
        tested += 1
        if ef > eg + dominance._tol(ef, eg):
            return dominance.AuditReport(False, tested, {
                "rates": zs.tolist(), "weights": weights.tolist(),
                "lhs": ef, "rhs": eg})
    return dominance.AuditReport(True, tested)


def audit_outcome(audit, *args, **kwargs):
    try:
        return audit(*args, **kwargs)
    except QuadratureFailure as exc:
        return type(exc)


def assert_same_audit(got, want):
    if isinstance(want, type) or isinstance(got, type):
        assert got == want
        return
    assert (got.ok, got.tested) == (want.ok, want.tested)
    if want.counterexample is None:
        assert got.counterexample is None
        return
    for key in ("rates", "weights"):
        assert got.counterexample[key] == want.counterexample[key], key
    for key in ("lhs", "rhs"):
        a, b = got.counterexample[key], want.counterexample[key]
        assert abs(a - b) <= 1e-14 * max(abs(a), abs(b)), (key, a, b)


@st.composite
def audit_laws(draw):
    """A lognormal (log-variance up to 4, which 128 nodes do not settle at
    most rates) or a discrete law of 1-4 atoms in [0, 5]."""
    if draw(st.booleans()):
        return Lognormal(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.01, 4.0)))
    xs = draw(st.lists(st.floats(0.0, 5.0), min_size=1, max_size=4,
                       unique=True))
    ws = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=len(xs),
                                max_size=len(xs))))
    return Discrete(tuple(xs), tuple(ws / ws.sum()))


def shrunk(d):
    """A law that ``d`` dominates at first order, so at every order."""
    if isinstance(d, Lognormal):
        return Lognormal(d.m - 0.3, d.s2)
    return Discrete(tuple(0.5 * x for x in d.xs), d.ps)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(F=audit_laws(), G=audit_laws(), dominated=st.booleans(),
       order=st.sampled_from([1, 2, 3, 8, math.inf]),
       seed=st.integers(0, 2**16),
       family_size=st.sampled_from([0, 1, 5, 100, 100]),
       max_nodes=st.sampled_from([4096, 4096, 128, 256]))
def test_audit_matches_one_laplace_call_per_function(F, G, dominated, order,
                                                     seed, family_size,
                                                     max_nodes):
    if dominated:
        G = shrunk(F)
    with mock.patch.object(dominance, "MAX_NODES", max_nodes):
        want = audit_outcome(reference_audit, F, G, order, family_size, seed)
        got = audit_outcome(function_audit, F, G, order, family_size, seed)
    assert_same_audit(got, want)


def test_audit_evaluates_each_law_once(monkeypatch):
    calls = []

    def counted(cls):
        method = cls.laplace

        def wrapper(self, *args, **kwargs):
            calls.append(self)
            return method(self, *args, **kwargs)
        return wrapper

    for cls in (Lognormal, Discrete):
        monkeypatch.setattr(cls, "laplace", counted(cls))
    F, G = Lognormal(0.0, 0.1), Lognormal(-0.2, 0.4)
    for A, B in ((F, G), (DELTA2, DELTA1), (DELTA2, F), (F, UNIF02)):
        for order in (2, math.inf):
            calls.clear()
            rep = function_audit(A, B, order)
            assert calls == [A, B], (A, B, order, rep)


def test_empty_audit_passes():
    for F, G in ((DELTA1, DELTA2), (Lognormal(0.0, 1.0), DELTA1)):
        assert function_audit(F, G, 2, family_size=0) == dominance.AuditReport(
            True, 0)


def test_audit_fails_only_where_the_walk_meets_an_unsettled_rate(monkeypatch):
    # at 128 nodes LN(0, 4) settles only its smallest rates; with seed 3 the
    # first function (rate 4.8e-4) is already a counterexample, so the
    # unsettled rates later in the family never matter, while with seed 0
    # the walk meets one first
    monkeypatch.setattr(dominance, "MAX_NODES", 128)
    F, G = Lognormal(0.0, 4.0), Discrete.point(100.0)
    with pytest.raises(QuadratureFailure):
        F.laplace(1.0)
    for order in (2, math.inf):
        rep = function_audit(F, G, order, seed=3)
        assert not rep and rep.tested == 1
        assert rep.counterexample["rates"] == [0.00048438795711668384]
        assert_same_audit(rep, reference_audit(F, G, order, seed=3))
        with pytest.raises(QuadratureFailure, match="at 128 nodes"):
            function_audit(F, G, order, seed=0)
        with pytest.raises(QuadratureFailure):
            reference_audit(F, G, order, seed=0)


def test_grouped_rule_settles_each_group_on_its_own():
    d = Lognormal(0.0, 1.0)
    zs = np.array([1e-3, 0.5, 2.0, 40.0, 1e3])
    groups = np.array([0, 1, 1, 2, 3])
    got = d.laplace(zs, groups)
    for g in range(4):
        want = d.laplace(zs[groups == g])
        np.testing.assert_allclose(got[groups == g], want, rtol=4e-16, atol=0)
