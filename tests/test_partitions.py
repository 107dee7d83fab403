"""Tests for truncated power-series composition and reversion."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmdual.partitions import compose, revert

# total set partitions of {1..m}
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147]


def exp_series(n, start=0):
    """Coefficients 1/k! of exp(s), exactly, with those below ``start`` 0."""
    return [Fraction(int(k >= start), math.factorial(k)) for k in range(n)]


def test_order_zero_is_the_outer_value():
    # the empty partition of 0: g(h(0)) is the outer series' constant term
    assert compose([Fraction(3)], [Fraction(7)]) == [Fraction(3)]
    assert compose([], [1.0, 2.0]) == []
    assert revert([Fraction(5)]) == [0]


@pytest.mark.parametrize("m", range(0, 10))
def test_coefficients_sum_to_bell_numbers(m):
    # exp(e^s - 1) = sum_m B_m s^m / m!: the m-th coefficient adds up the
    # Faa di Bruno weights of all partitions of m
    series = compose(exp_series(m + 1), exp_series(m + 1, start=1))
    assert series[m] * math.factorial(m) == BELL[m]
    assert all(isinstance(c, Fraction) for c in series)


@pytest.mark.parametrize("m", range(1, 8))
def test_chain_rule_reproduces_exponential_composition(m):
    # d^m/dx^m exp(x**2) at x0: exp's series at x0**2 composed with that of
    # x**2 at x0, against the recurrence h' = 2x h, h'' = 2h + 2x h', ...
    x0 = 0.7
    h0 = math.exp(x0**2)
    outer = [h0 / math.factorial(k) for k in range(m + 1)]
    inner = ([x0**2, 2 * x0, 1.0] + [0.0] * m)[:m + 1]
    got = compose(outer, inner)[m] * math.factorial(m)

    # independent recurrence: h^(r+1) = 2 x h^(r) + 2 r h^(r-1)
    hs = [h0, 2 * x0 * h0]
    for r in range(1, m + 1):
        hs.append(2 * x0 * hs[r] + 2 * r * hs[r - 1])
    assert got == pytest.approx(hs[m], rel=1e-12)


def test_reversion_of_exp_is_log():
    # the inverse of e^t at t = 0 is log(1 + s): coefficients (-1)^(m+1)/m
    b = revert(exp_series(12))
    assert b == [0] + [Fraction((-1) ** (m + 1), m) for m in range(1, 12)]


def test_array_coefficients_act_elementwise():
    rng = np.random.default_rng(7)
    outer = [rng.normal(size=5) for _ in range(6)]
    inner = [rng.normal(size=5) for _ in range(6)]
    series = compose(outer, inner)
    inverse = revert(outer)
    for i in range(5):
        assert [c[i] for c in series] == compose([c[i] for c in outer],
                                                 [c[i] for c in inner])
        assert [c[i] for c in inverse[1:]] == revert(
            [c[i] for c in outer])[1:]


coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=st.lists(coefficients, min_size=2, max_size=9),
       lead=coefficients.filter(lambda c: c != 0))
def test_compose_inverts_revert(a, lead):
    a = [a[0], lead] + a[2:]
    b = revert(a)
    assert compose(a, b) == [a[0], 1] + [0] * (len(a) - 2)
    # reverting the inverse gives the series back
    assert revert(b)[1:] == a[1:]
