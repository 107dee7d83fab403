"""Tests for CM functions, D(n) test functions, and order checking."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from cmdual.cmcalc import (
    DnFunction,
    check_cm_order,
    limits_at_infinity,
    nfold_value,
)
from cmdual.errors import (InvalidMeasure, NotVanishing, OrderExceeded,
                           TailDivergent)
from cmdual.measures import BernsteinMeasure, DensityPiece


def nested_value_oracle(W, y, rel=1e-9):
    """Literal nested quadrature of the n-fold tail integral (n = 2 or 3)."""
    n = int(W.order)
    y0, w0 = W.anchor

    def tail(level, s):
        # tail(1, s) = -W'(s); tail(n, s) = (-1)**n W^(n)(s)
        if level == n:
            return (-1.0) ** n * W.nth_derivative(s)
        val, _ = integrate.quad(lambda t: tail(level + 1, t), s, math.inf,
                                epsabs=rel, epsrel=rel, limit=100)
        return val

    outer, _ = integrate.quad(lambda s: tail(1, s), y, y0,
                              epsabs=rel, epsrel=rel, limit=100)
    return w0 + outer


def test_measure_backed_reciprocal_derivatives():
    f = DnFunction.laplace(BernsteinMeasure.lebesgue())
    assert f(1.0) == pytest.approx(1.0, rel=1e-12)
    assert f.derivative(3, 1.0) == pytest.approx(-6.0, rel=1e-12)
    assert f.derivative(1, 2.0) == pytest.approx(-0.25, rel=1e-12)


def test_closed_form_catalog():
    f = DnFunction.power(1.0)
    assert f.derivative(3, 1.0) == pytest.approx(-6.0, rel=1e-14)
    g = DnFunction.exponential(2.0)
    assert g.derivative(2, 0.5) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-14)
    prod = DnFunction.product(DnFunction.power(1.0),
                              DnFunction.exponential(2.0))
    # d/dx [x^-1 e^-2x] = -(x^-2 + 2 x^-1) e^-2x
    assert prod.derivative(1, 1.0) == pytest.approx(-3.0 * math.exp(-2.0), rel=1e-13)


def test_product_outside_catalog_goes_through_measure():
    # x^-1 * (x+1)^-1 equals the moment of (1 - exp(-t)) dt; checked against
    # brute-force quadrature of the defining measure
    m = BernsteinMeasure(pieces=(DensityPiece(1.0, 0.0, 0.0),
                                 DensityPiece(-1.0, 0.0, 1.0)))
    f = DnFunction.laplace(m)
    brute, _ = integrate.quad(lambda t: math.exp(-t) * (1 - math.exp(-t)),
                              0, math.inf)
    assert brute == pytest.approx(0.5, abs=1e-10)
    assert f(1.0) == pytest.approx(0.5, rel=1e-11)


def test_closed_form_members_vanish_at_infinity():
    # a Laplace transform tends to m({0}), so a measure with an atom at 0 is
    # refused rather than given the closed forms' limit 0
    members = (DnFunction.power(0.5), DnFunction.exponential(2.0),
               DnFunction.product(DnFunction.power(1.0),
                                  DnFunction.exponential(2.0)),
               DnFunction.laplace(BernsteinMeasure.lebesgue()))
    for f in members:
        assert f.value_at_infinity() == 0.0
        assert 0.0 <= f(1e12) <= 1e-6
    with pytest.raises(InvalidMeasure):
        DnFunction.laplace(BernsteinMeasure(atoms=((0.0, 1.0), (2.0, 1.0))))
    with pytest.raises(ValueError):
        DnFunction(order=math.inf, anchor=(1.0, 0.0))


def test_measure_of_minus_derivative_matches_closed_forms():
    # 1/y backed by the measure z dz of its negative derivative agrees with
    # the Laplace transform of Lebesgue measure and with the catalog power
    W = DnFunction.from_measure(
        BernsteinMeasure(pieces=(DensityPiece(1.0, 1.0, 0.0),)),
        anchor=(1.0, 1.0))
    for f in (DnFunction.laplace(BernsteinMeasure.lebesgue()),
              DnFunction.power(1.0)):
        for y in (0.5, 2.0, 4.0):
            for k in range(5):
                assert W.derivative(k, y) == pytest.approx(f.derivative(k, y),
                                                           rel=1e-12)
    assert W.value_at_infinity() == pytest.approx(0.0, abs=1e-9)


def test_dn_exponential_derivative():
    W = DnFunction.exponential(2.0)
    assert W.derivative(1, 0.5) == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-13)
    assert W(0.5) == pytest.approx(math.exp(-1.0), rel=1e-13)


def test_nfold_reciprocal():
    W = DnFunction.from_nth_derivative(2, lambda t: 2.0 / t**3, anchor=(1.0, 1.0))
    assert nfold_value(W, 2.0) == pytest.approx(0.5, rel=1e-9)
    assert nfold_value(W, 4.0) == pytest.approx(0.25, rel=1e-9)
    assert W.derivative(1, 2.0) == pytest.approx(-0.25, rel=1e-9)


def test_nfold_exponential_order3():
    W = DnFunction.from_nth_derivative(3, lambda t: -math.exp(-t),
                                       anchor=(1.0, math.exp(-1.0)))
    assert nfold_value(W, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-9)


@pytest.mark.parametrize("n,dn,anchor", [
    (2, lambda t: 1.5**2 * math.exp(-1.5 * t), (1.0, math.exp(-1.5))),
    (3, lambda t: -1.5**3 * math.exp(-1.5 * t), (1.0, math.exp(-1.5))),
])
@pytest.mark.parametrize("y", [0.5, 1.0, 2.0])
def test_kernel_collapse_matches_nested_quadrature(n, dn, anchor, y):
    W = DnFunction.from_nth_derivative(n, dn, anchor=anchor)
    got = nfold_value(W, y)
    want = nested_value_oracle(W, y)
    assert got == pytest.approx(want, rel=1e-6)


def test_tail_probe_rejects_divergent_generator():
    W = DnFunction.from_nth_derivative(3, lambda t: 1.0 / t, anchor=(1.0, 0.0))
    with pytest.raises(TailDivergent):
        nfold_value(W, 0.5)


def test_check_cm_order_examples():
    f = DnFunction.laplace(BernsteinMeasure.lebesgue())
    assert check_cm_order(f, 6, [0.1, 1.0, 10.0]).ok
    rep = check_cm_order(lambda x: x, 1, [1.0])
    assert not rep.ok
    assert rep.violation == (1, 1.0)


def test_check_cm_order_blackbox_exponential():
    rep = check_cm_order(lambda x: math.exp(-x), 4, [0.5, 1.0, 2.0], h=1e-2)
    assert rep.ok


def test_limits_at_infinity():
    W = DnFunction.from_nth_derivative(3, lambda t: -6.0 / t**4, anchor=(1.0, 1.0))
    last = limits_at_infinity(W, 1)
    assert abs(last) == pytest.approx(1e-12, rel=1e-6)

    E = DnFunction.exponential(1.0)
    assert abs(limits_at_infinity(E, 2)) <= math.exp(-100.0)

    bad = DnFunction.from_nth_derivative(
        2, lambda t: 1.0 / t**2, anchor=(1.0, 0.0),
        exact=lambda k, y: (-1.0 - 1.0 / y) if k == 1 else 1.0 / y**2 if k == 2 else 0.0)
    with pytest.raises(NotVanishing):
        limits_at_infinity(bad, 1)


def test_order_exceeded():
    W = DnFunction.from_nth_derivative(2, lambda t: 2.0 / t**3, anchor=(1.0, 1.0))
    with pytest.raises(OrderExceeded):
        W.derivative(3, 1.0)


@pytest.mark.parametrize("n", range(2, 9))
def test_exponentials_are_universal_members(n):
    for z in (0.25, 1.0, 4.0):
        W = DnFunction.exponential(z, order=n)
        assert check_cm_order(W, n, [0.5, 1.0, 3.0]).ok
        for k in range(1, n):
            limits_at_infinity(W, k)


@given(z=st.floats(0.1, 5.0), x=st.floats(0.1, 10.0), k=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_measure_backed_sign_alternation(z, x, k):
    f = DnFunction.laplace(
        BernsteinMeasure(atoms=((z, 1.0),), pieces=(DensityPiece(0.5, 0.0, 1.0),)))
    assert (-1.0) ** k * f.derivative(k, x) >= 0.0
