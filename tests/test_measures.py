"""Tests for atom + power-exponential measures and their weighted moments."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cmdual import measures
from cmdual.errors import InvalidMeasure, NonIntegrable
from cmdual.measures import (BernsteinMeasure, DensityPiece, laplace_moment,
                             laplace_moments, mass)

LEBESGUE = BernsteinMeasure.lebesgue()


def quad_oracle(m, x, k):
    """Brute-force quadrature of the same moment, independent of the library path."""
    total = sum(w * z**k * math.exp(-x * z) for z, w in m.atoms)
    for p in m.pieces:
        val, _ = integrate.quad(
            lambda z: p.c * z ** (p.a + k) * math.exp(-(x + p.b) * z),
            p.lo,
            p.hi,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        total += val
    return total


def test_lebesgue_moments():
    assert laplace_moment(LEBESGUE, 2.0, 0) == pytest.approx(0.5, rel=1e-12)
    assert laplace_moment(LEBESGUE, 1.0, 1) == pytest.approx(1.0, rel=1e-12)


def test_single_atom():
    m = BernsteinMeasure.from_atoms([(3.0, 2.0)])
    assert laplace_moment(m, 1.0, 0) == pytest.approx(2.0 * math.exp(-3.0), rel=1e-14)


def test_half_power_density():
    # integral of exp(-4z) z**(-1/2) dz = Gamma(1/2) * 4**(-1/2) = sqrt(pi)/2
    m = BernsteinMeasure.power(0.5)
    want = math.sqrt(math.pi) / 2.0
    assert laplace_moment(m, 4.0, 0) == pytest.approx(want, rel=1e-12)
    assert laplace_moment(m, 4.0, 0) == pytest.approx(quad_oracle(m, 4.0, 0), rel=1e-9)


def test_signed_difference_density():
    # (1 - exp(-z)) dz has moment 1/x - 1/(x+1) at k=0
    m = BernsteinMeasure(
        pieces=(DensityPiece(1.0, 0.0, 0.0), DensityPiece(-1.0, 0.0, 1.0))
    )
    for x in (0.5, 1.0, 7.0):
        assert laplace_moment(m, x, 0) == pytest.approx(
            1.0 / x - 1.0 / (x + 1.0), rel=1e-12
        )


@pytest.mark.parametrize("a,lo,hi", [
    (-1.5, 1.0, math.inf),
    (-1.0, 0.5, math.inf), (-2.0, 0.5, math.inf), (-3.25, 0.5, math.inf),
    (-1.0, 0.5, 3.0), (-2.0, 0.5, 3.0), (-3.25, 0.5, 3.0),
])
def test_exotic_exponent_quadrature_path(a, lo, hi):
    # a <= -1 on an interval away from zero exercises the quadrature fallback
    m = BernsteinMeasure(pieces=(DensityPiece(1.0, a, 0.0, lo, hi),))
    for x in (0.3, 2.0, 20.0):
        assert laplace_moment(m, x, 0) == pytest.approx(
            quad_oracle(m, x, 0), rel=1e-9)


@pytest.mark.parametrize("c,a,b", [(1.0, 0.0, 0.0), (0.7, 1.0, 0.3),
                                   (2.5, -0.5, 1.5), (3.0, 2.75, 0.0)])
def test_full_range_piece_is_a_gamma_ratio(c, a, b):
    m = BernsteinMeasure(pieces=(DensityPiece(c, a, b),))
    for x, k in ((0.5, 0), (2.0, 1), (7.0, 3)):
        q = a + k + 1.0
        want = c * math.gamma(q) / (x + b) ** q
        assert laplace_moment(m, x, k) == pytest.approx(want, rel=1e-14)


def test_line_log_gammas_match_mpmath():
    # the bound the measures docstring states: log Gamma(q) within
    # 1e-15 max(1, |log Gamma(q)|), on 25 exponents a and orders 0-20,
    # for array and scalar rates alike
    a = np.linspace(-0.9, 10.0, 25)
    m = BernsteinMeasure(pieces=tuple(DensityPiece(1.0, ai, 1.0) for ai in a))
    ks = tuple(range(21))
    _, q, log_gamma, _ = measures._line_terms(m, ks, 1)
    _, q0, log_gamma0, _ = measures._line_terms(m, ks, 0)
    assert np.array_equal(np.transpose(q0), q[..., 0])
    assert np.array_equal(np.transpose(log_gamma0), log_gamma[..., 0])
    with mpmath.workdps(40):
        for qi, got in zip(q.ravel(), log_gamma.ravel()):
            want = mpmath.loggamma(qi)
            assert abs(got - want) <= 1e-15 * max(1, abs(want)), qi


def test_full_range_moments_load_no_scipy():
    code = ("import sys\n"
            "from cmdual.duality import footnote_utility\n"
            "from cmdual.measures import laplace_moments\n"
            "m = footnote_utility(2).measure\n"
            "laplace_moments(m, 0.7, (0, 1, 2))\n"
            "laplace_moments(m, [0.7, 2.0], (0, 3))\n"
            "assert not any(n.startswith('scipy') for n in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(measures.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_mass_examples():
    assert mass(LEBESGUE, 0.0, math.inf) == math.inf
    m0 = BernsteinMeasure.from_atoms([(0.0, 1.0)])
    assert mass(m0, 0.0, 0.0) == 1.0
    # integral of t**(-1/2) over [1, 4] = 2*(2 - 1) = 2
    m = BernsteinMeasure.power(0.5, lo=1.0)
    assert mass(m, 1.0, 4.0) == pytest.approx(2.0, rel=1e-12)
    assert mass(m, 1.0, math.inf) == math.inf


def test_mass_exponential_tail_is_finite():
    m = BernsteinMeasure(pieces=(DensityPiece(1.0, 0.0, 2.0),))
    assert mass(m) == pytest.approx(0.5, rel=1e-12)


def test_invalid_measures_rejected():
    with pytest.raises(InvalidMeasure):
        BernsteinMeasure(atoms=((1.0, 0.0),))
    with pytest.raises(InvalidMeasure):
        BernsteinMeasure(atoms=((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(InvalidMeasure):
        BernsteinMeasure(pieces=(DensityPiece(1.0, -1.0, 0.0, 0.0, 1.0),))
    with pytest.raises(InvalidMeasure):
        # negative total density
        BernsteinMeasure(pieces=(DensityPiece(-1.0, 0.0, 0.0, 0.0, 1.0),))


def test_divergent_at_zero_rate():
    with pytest.raises(NonIntegrable):
        laplace_moment(LEBESGUE, 0.0, 0)


@pytest.mark.parametrize("rates, error", [
    ([math.nan, 1e-320], OverflowError),   # 1/1e-320 is past the double range
    ([1e-320, math.nan], OverflowError),
    ([math.nan, 0.0], NonIntegrable),
    ([math.nan, -1.0], ValueError),
], ids=["nan-tiny", "tiny-nan", "nan-zero", "nan-negative"])
def test_a_nan_rate_hides_no_other_rate(rates, error):
    # the range checks reduce over the rates leaving NaNs out: a NaN
    # anywhere must not mask what the other rates raise
    with pytest.raises(error):
        laplace_moment(LEBESGUE, np.array(rates), 0)


def test_all_nan_rates_give_nan_moments():
    got = laplace_moment(LEBESGUE, np.array([math.nan, math.nan]), 0)
    assert np.isnan(got).all()
    assert math.isnan(laplace_moment(LEBESGUE, math.nan, 0))


def test_exp_difference_kernel():
    from cmdual.measures import exp_difference_moment

    # Lebesgue: the difference kernel integrates to -log(y/y0)
    assert exp_difference_moment(LEBESGUE, 2.0, 1.0) == pytest.approx(
        -math.log(2.0), rel=1e-12)
    # fractional power piece: cross-check by quadrature
    m = BernsteinMeasure.power(0.5)
    brute, _ = integrate.quad(
        lambda t: (math.exp(-2.0 * t) - math.exp(-t)) / t * t**-0.5,
        0, math.inf)
    assert exp_difference_moment(m, 2.0, 1.0) == pytest.approx(brute, rel=1e-9)
    with pytest.raises(NonIntegrable):
        exp_difference_moment(BernsteinMeasure.from_atoms([(0.0, 1.0)]),
                              2.0, 1.0)


@pytest.mark.parametrize("a,lo,hi", [
    (0.0, 0.5, math.inf), (0.0, 0.5, 4.0),         # E1 differences
    (-0.5, 0.0, 2.0), (-0.25, 0.5, 4.0),           # a in (-1, 0), finite
    (-1.0, 0.5, math.inf), (-2.5, 1.0, 6.0),       # a <= -1, lo > 0
])
def test_exp_difference_single_piece(a, lo, hi):
    from cmdual.measures import exp_difference_moment

    m = BernsteinMeasure(pieces=(DensityPiece(1.5, a, 0.25, lo, hi),))
    for y, y0 in ((2.0, 1.0), (0.3, 5.0)):
        brute, _ = integrate.quad(
            lambda t: 1.5 * t ** (a - 1.0) * math.exp(-0.25 * t)
            * (math.exp(-y * t) - math.exp(-y0 * t)),
            lo, hi, epsabs=1e-14, epsrel=1e-12, limit=200)
        assert exp_difference_moment(m, y, y0) == pytest.approx(brute,
                                                                rel=1e-9)


def test_json_round_trip():
    m = BernsteinMeasure(
        atoms=((0.5, 1.5), (2.0, 0.25)),
        pieces=(DensityPiece(1.0, -0.5, 0.0, 0.0, math.inf),
                DensityPiece(2.0, 1.0, 3.0, 1.0, 5.0)),
    )
    assert BernsteinMeasure.from_dict(m.to_dict()) == m


measures_strategy = st.sampled_from(
    [
        LEBESGUE,
        BernsteinMeasure.power(0.5),
        BernsteinMeasure.from_atoms([(0.5, 1.0), (3.0, 0.5)]),
        BernsteinMeasure(
            atoms=((1.0, 2.0),),
            pieces=(DensityPiece(0.7, 1.0, 0.3),),
        ),
    ]
)


@given(m=measures_strategy, x1=st.floats(0.1, 5.0), ratio=st.floats(1.01, 10.0),
       k=st.integers(0, 3))
@settings(max_examples=50, deadline=None)
def test_monotone_decay_in_x(m, x1, ratio, k):
    x2 = x1 * ratio
    assert laplace_moment(m, x2, k) <= laplace_moment(m, x1, k) * (1 + 1e-12)


@given(m=measures_strategy, x=st.floats(0.2, 5.0), k=st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_differentiation_consistency(m, x, k):
    # central differences at h = 1e-5 x must land within 10x the moment tol
    h = 1e-5 * x
    left = laplace_moment(m, x - h, k)
    right = laplace_moment(m, x + h, k)
    slope = (right - left) / (2 * h)
    target = -laplace_moment(m, x, k + 1)
    assert slope == pytest.approx(target, rel=1e-9, abs=1e-12)


def test_additivity_over_pieces():
    pieces = (DensityPiece(1.0, 0.0, 0.0, 0.0, 2.0),
              DensityPiece(1.0, 0.0, 0.0, 2.0, math.inf),
              DensityPiece(0.5, -0.25, 1.0))
    union = BernsteinMeasure(pieces=pieces)
    parts = [BernsteinMeasure(pieces=(p,)) for p in pieces]
    for x in (0.5, 1.0, 4.0):
        whole = laplace_moment(union, x, 1)
        split = sum(laplace_moment(p, x, 1) for p in parts)
        assert whole == pytest.approx(split, rel=1e-10)


# one measure per branch of the moment kernels: atoms, a full-range piece,
# both incomplete-gamma forms (s*lo on either side of the median), the
# quadrature for exponents <= -1 away from 0, and x = 0 on bounded pieces
BRANCH_MEASURES = {
    "atoms": BernsteinMeasure.from_atoms([(0.5, 1.0), (3.0, 0.5)]),
    "full_range": BernsteinMeasure(pieces=(DensityPiece(0.7, 1.0, 0.3),)),
    "gamma_forms": BernsteinMeasure(
        pieces=(DensityPiece(1.0, -0.5, 0.0, 0.5, 4.0),)),
    "quadrature": BernsteinMeasure(
        pieces=(DensityPiece(1.0, -2.0, 0.0, 0.5, 3.0),)),
}
BROADCAST_XS = np.array([[0.0, 0.1, 0.5], [2.0, 7.0, 20.0]])


@pytest.mark.parametrize("name", sorted(BRANCH_MEASURES))
def test_laplace_moment_broadcasts(name):
    m = BRANCH_MEASURES[name]
    for k in (0, 2):
        got = laplace_moment(m, BROADCAST_XS, k)
        assert got.shape == BROADCAST_XS.shape
        for x, g in zip(BROADCAST_XS.flat, got.flat):
            one = laplace_moment(m, float(x), k)
            assert type(one) is float
            assert g == pytest.approx(one, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("a,lo,hi", [
    (1.5, 0.0, math.inf), (0.0, 0.0, math.inf), (0.0, 0.5, 4.0),
    (-0.5, 0.0, 2.0), (-2.5, 1.0, 6.0),
])
def test_exp_difference_moment_broadcasts(a, lo, hi):
    from cmdual.measures import exp_difference_moment

    m = BernsteinMeasure(atoms=((0.5, 1.0),),
                         pieces=(DensityPiece(1.5, a, 0.25, lo, hi),))
    ys = BROADCAST_XS + 0.05
    got = exp_difference_moment(m, ys, 1.0)
    assert got.shape == ys.shape
    for y, g in zip(ys.flat, got.flat):
        one = exp_difference_moment(m, float(y), 1.0)
        assert type(one) is float
        assert g == pytest.approx(one, rel=1e-14, abs=1e-300)


def outcome(run):
    """The bytes of what ``run`` returns, or the class of what it raises."""
    try:
        return np.asarray(run(), dtype=float).tobytes()
    except Exception as exc:  # the class is compared
        return type(exc)


def per_piece_moment(m, x, k):
    """``laplace_moment`` as it was before the one-pass path: every piece on
    its own, one order at a time."""
    from cmdual.measures import _least, _moment

    x = np.asarray(x, dtype=float)[()]
    out = _moment(m, x, k, bool(_least(x) <= 0))
    return float(out) if x.ndim == 0 else out


@st.composite
def moment_cases(draw):
    """A measure of atoms and of full-range, truncated, signed and
    quadrature pieces; a scalar or 1-d rate with 0 and overflowing rates
    among the choices; and a list of orders, repeats and disorder allowed."""
    positive = st.floats(0.1, 2.0)
    atoms = draw(st.lists(st.tuples(st.floats(0.0, 5.0), st.floats(0.05, 3.0)),
                          max_size=2, unique_by=lambda atom: atom[0]))
    pieces = []
    kinds = ("line", "line", "signed", "truncated", "quadrature")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=not atoms,
                              max_size=3)):
        c, a = draw(positive), draw(st.floats(-0.9, 2.0))
        if kind == "line":
            b = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
            pieces.append(DensityPiece(c, a, b))
        elif kind == "truncated":
            lo = draw(st.floats(0.0, 2.0))
            hi = draw(st.sampled_from([math.inf, lo + draw(st.floats(0.1, 5.0))]))
            b = draw(st.floats(0.0, 1.0)) if hi < math.inf else draw(positive)
            pieces.append(DensityPiece(c, a, b, lo + (hi == math.inf), hi))
        elif kind == "signed":
            # c z**a exp(-b z) (1 - exp(-d z)) >= 0
            b, d = draw(st.floats(0.0, 1.0)), draw(positive)
            pieces += [DensityPiece(c, a, b), DensityPiece(-c, a, b + d)]
        else:
            # a + k <= -1 on [lo, hi] away from 0: adaptive quadrature
            lo = draw(st.floats(0.2, 1.0))
            pieces.append(DensityPiece(c, draw(st.floats(-3.0, -1.0)), 0.0,
                                       lo, lo + draw(st.floats(0.5, 3.0))))
    usual = st.floats(1e-3, 30.0)
    rate = st.one_of(usual, usual, usual, usual, st.just(0.0),
                     st.floats(1e-200, 1e-150))
    x = (draw(rate) if draw(st.booleans())
         else np.array(draw(st.lists(rate, min_size=1, max_size=4))))
    ks = draw(st.lists(st.integers(0, 5), min_size=1, max_size=4))
    return BernsteinMeasure(tuple(atoms), tuple(pieces)), x, ks


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=moment_cases())
def test_laplace_moments_rows_are_the_one_order_moments(case):
    m, x, ks = case
    singles = [outcome(lambda k=k: laplace_moment(m, x, k)) for k in ks]
    # the one-pass paths compute what the per-piece path computes
    assert singles == [outcome(lambda k=k: per_piece_moment(m, x, k))
                       for k in ks]
    failed = [one for one in singles if isinstance(one, type)]
    try:
        rows = laplace_moments(m, x, ks)
    except Exception as exc:  # the class is compared
        assert failed and type(exc) is failed[0]
        return
    assert not failed
    assert [np.asarray(row, dtype=float).tobytes() for row in rows] == singles
    # a scalar rate gives the element of an array of rates bitwise
    for j, rate in enumerate(np.atleast_1d(x)):
        scalar = laplace_moments(m, float(rate), ks)
        assert all(type(v) is float for v in scalar)
        assert np.array(scalar).tobytes() == np.array(
            [np.atleast_1d(row)[j] for row in rows]).tobytes()
