"""Tests for utility specs, conjugates, and the marginal machinery."""

import math

import numpy as np
import pytest
from scipy import integrate

from cmdual.cmcalc import DnFunction
from cmdual.duality import (
    FiniteOrderUtility,
    LogUtility,
    MeasureUtility,
    PowerUtility,
    UtilitySpec,
    footnote_utility,
)
from cmdual.errors import (InvalidMeasure, NonIntegrable, NoRoot,
                           OrderExceeded, RangeError)
from cmdual.measures import BernsteinMeasure

LOG = LogUtility()
POWER_M1 = PowerUtility(-1.0)
LOG_MEASURE = MeasureUtility(BernsteinMeasure.lebesgue(), anchor=(1.0, -1.0))
FOOTNOTE = footnote_utility(1)


def test_inverse_marginal_examples():
    assert LOG.inverse_marginal(4.0) == pytest.approx(0.25)
    assert POWER_M1.inverse_marginal(4.0) == pytest.approx(0.5)
    assert FOOTNOTE.inverse_marginal(1.0) == pytest.approx(0.5, rel=1e-12)
    # quadrature oracle for the footnote measure
    brute, _ = integrate.quad(lambda t: math.exp(-t) * (1 - math.exp(-t)),
                              0, np.inf)
    assert FOOTNOTE.inverse_marginal(1.0) == pytest.approx(brute, rel=1e-9)


def test_marginal_examples():
    assert LOG.marginal(0.25) == pytest.approx(4.0)
    assert POWER_M1.marginal(0.5) == pytest.approx(4.0)
    # root of y (y + 1) = 2
    assert FOOTNOTE.marginal(0.5) == pytest.approx(1.0, rel=1e-11)


def test_conjugate_examples():
    assert LOG.conjugate(1.0) == pytest.approx(-1.0)
    assert POWER_M1.conjugate(4.0) == pytest.approx(-4.0)
    assert LOG_MEASURE.conjugate(math.e) == pytest.approx(-2.0, rel=1e-12)
    # the anchor travels with the spec
    anchored = MeasureUtility(BernsteinMeasure.lebesgue(), anchor=(1.0, -1.0))
    assert anchored.conjugate(math.e) == pytest.approx(-2.0, rel=1e-12)


def test_risk_aversion_examples():
    assert PowerUtility(0.5).rra(3.0) == pytest.approx(0.5)
    assert LOG.rra(2.0) == pytest.approx(1.0)
    # inverse marginal y**-1/(y+1): B(y) = 1 + y/(y+1); B(1) = 1.5 and the
    # matching wealth is x = 0.5, so A(0.5) = 2/3
    assert FOOTNOTE.rrt(1.0) == pytest.approx(1.5, rel=1e-12)
    assert FOOTNOTE.rra(0.5) == pytest.approx(2.0 / 3.0, rel=1e-9)


def test_dual_identity_a_times_b():
    for u in (LOG, POWER_M1, FOOTNOTE, LOG_MEASURE):
        for x in (0.25, 1.0, 3.0):
            y = u.marginal(x)
            assert u.rra(x) * u.rrt(y) == pytest.approx(1.0, abs=1e-8)


def test_marginal_round_trip():
    ys = np.geomspace(1e-3, 1e3, 25)
    for u in (LOG_MEASURE, FOOTNOTE, POWER_M1):
        for y in ys:
            x = u.inverse_marginal(y)
            assert u.marginal(x) == pytest.approx(y, rel=1e-10)


def test_biconjugacy_gap():
    ygrid = np.geomspace(1e-3, 1e3, 4001)
    for u in (LOG, POWER_M1, FOOTNOTE):
        for x in (0.5, 1.0, 2.0):
            vals = [u.conjugate(y) + x * y for y in ygrid]
            direct = u.value(x)
            assert direct <= min(vals) + 1e-8
            ystar = u.marginal(x)
            assert u.conjugate(ystar) + x * ystar == pytest.approx(direct, abs=1e-9)


def test_conjugate_sign_alternation():
    for u in (LOG_MEASURE, FOOTNOTE):
        for k in range(1, 7):
            for y in (0.1, 1.0, 10.0):
                assert (-1.0) ** k * u.conjugate_derivative(k, y) > 0.0


def test_power_ratio_constant():
    # -y V^(k+1) / V^(k) must be the constant k - q for power utilities
    for p in (-1.0, 0.5, -3.0):
        u = PowerUtility(p)
        for k in (1, 2, 3):
            vals = [-y * u.conjugate_derivative(k + 1, y)
                    / u.conjugate_derivative(k, y)
                    for y in np.geomspace(0.01, 100, 9)]
            assert np.ptp(vals) <= 1e-10 * max(abs(v) for v in vals)
            assert vals[0] == pytest.approx(k - u.q, rel=1e-12)
            assert vals[0] > 0


def test_log_equals_lebesgue_measure_spec():
    for y in np.geomspace(1e-2, 1e2, 11):
        assert LOG_MEASURE.inverse_marginal(y) == pytest.approx(1.0 / y, rel=1e-12)
        assert LOG_MEASURE.conjugate(y) == pytest.approx(-math.log(y) - 1.0,
                                                         rel=1e-11, abs=1e-11)
        for k in (1, 2, 3):
            assert LOG_MEASURE.conjugate_derivative(k, y) == pytest.approx(
                LOG.conjugate_derivative(k, y), rel=1e-12)


def test_power_half_measure_representation():
    # density z**(-1/2)/Gamma(1/2) represents the p = -1 inverse marginal
    m = BernsteinMeasure.power(0.5, coeff=1.0 / math.gamma(0.5))
    u = MeasureUtility(m)
    for y in np.geomspace(1e-2, 1e2, 11):
        assert u.inverse_marginal(y) == pytest.approx(y**-0.5, rel=1e-12)


def test_inada_enforced():
    with pytest.raises(InvalidMeasure):
        MeasureUtility(BernsteinMeasure.from_atoms([(0.0, 1.0)]))
    with pytest.raises(InvalidMeasure):
        # finite mass: marginal cannot blow up at zero wealth
        MeasureUtility(BernsteinMeasure.from_atoms([(1.0, 1.0)]))


def test_finite_order_spec():
    V = DnFunction.from_nth_derivative(2, lambda t: 2.0 / t**3,
                                       anchor=(1.0, 1.0))
    u = FiniteOrderUtility(V)
    assert u.inverse_marginal(2.0) == pytest.approx(0.25, rel=1e-9)
    assert u.marginal(0.25) == pytest.approx(2.0, rel=1e-9)
    with pytest.raises(OrderExceeded):
        u.conjugate_derivative(3, 1.0)


@pytest.mark.parametrize("name", ["log", "power", "measure", "finite_order"])
def test_conjugate_derivative_refuses_order_zero(name):
    # V itself is ``conjugate``; order 0 is refused by every spec kind
    V = DnFunction.from_nth_derivative(2, lambda t: 2.0 / t**3,
                                       anchor=(1.0, 1.0))
    u = {"log": LOG, "power": POWER_M1, "measure": FOOTNOTE,
         "finite_order": FiniteOrderUtility(V)}[name]
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be >= 1"):
            u.conjugate_derivative(k, 1.0)


def test_measure_utility_domain_errors():
    # y * Y underflowing to 0 is a divergent moment, not a bad argument,
    # while the inverse marginal refuses a point outside (0, inf)
    for k in (1, 2, 5):
        with pytest.raises(NonIntegrable):
            FOOTNOTE.conjugate_derivative(k, 0.0)
        with pytest.raises(NonIntegrable):
            FOOTNOTE.conjugate_derivative(k, np.array([1.0, 0.0, 2.0]))
    for y in (0.0, -1.0, np.array([1.0, 0.0])):
        with pytest.raises(ValueError):
            FOOTNOTE.inverse_marginal(y)


def test_measure_utility_refuses_non_finite_anchor():
    m = BernsteinMeasure.lebesgue()
    for anchor in ((1.0, math.nan), (math.nan, 0.0), (math.inf, 0.0),
                   (0.0, 0.0)):
        with pytest.raises(ValueError):
            MeasureUtility(m, anchor=anchor)


def test_footnote_general_k():
    u2 = footnote_utility(2)
    for y in (0.5, 1.0, 4.0):
        assert u2.inverse_marginal(y) == pytest.approx(
            y**-2.0 / (y + 1.0), rel=1e-11)
    assert u2.rrt(1.0) == pytest.approx(2.5, rel=1e-10)


def test_utility_json_round_trip():
    for u in (LOG, PowerUtility(0.5), LOG_MEASURE, FOOTNOTE):
        back = UtilitySpec.from_dict(u.to_dict())
        assert back.inverse_marginal(1.7) == pytest.approx(
            u.inverse_marginal(1.7), rel=1e-12)
    mix = UtilitySpec.from_dict(
        {"kind": "finite_order", "n": 3, "mixture": {"z": [1.0, 2.0],
                                                     "c": [1.0, 0.5]}})
    assert isinstance(mix, FiniteOrderUtility)
    assert mix.max_order == 3


MIXTURE = UtilitySpec.from_dict(
    {"kind": "finite_order", "n": 3, "mixture": {"z": [0.5, 2.0],
                                                 "c": [1.0, 0.4]}})
BROADCAST_SPECS = {"log": LOG, "power_m1": POWER_M1,
                   "power_half": PowerUtility(0.5), "footnote1": FOOTNOTE,
                   "footnote2": footnote_utility(2), "mixture": MIXTURE}
BROADCAST_POINTS = np.array([[0.05, 0.3, 1.0], [1.7, 4.0, 12.0]])


@pytest.mark.parametrize("name", sorted(BROADCAST_SPECS))
def test_utility_methods_broadcast(name):
    u = BROADCAST_SPECS[name]
    points = BROADCAST_POINTS * 0.1 if name == "mixture" else BROADCAST_POINTS
    methods = {
        "inverse_marginal": u.inverse_marginal, "conjugate": u.conjugate,
        "marginal": u.marginal, "value": u.value, "second": u.second,
        "rrt": u.rrt, "rra": u.rra,
    }
    for k in (1, 2, 3):
        methods[f"conjugate_derivative_{k}"] = (
            lambda y, k=k: u.conjugate_derivative(k, y))
    for label, method in methods.items():
        got = method(points)
        assert got.shape == points.shape, label
        for t, g in zip(points.flat, got.flat):
            one = method(float(t))
            assert isinstance(one, float) and np.ndim(one) == 0, label
            assert g == pytest.approx(one, rel=1e-14), (label, t)


def test_invert_decreasing_broadcasts():
    from cmdual.duality import invert_decreasing

    fn = FOOTNOTE.inverse_marginal

    def newton(y):
        return fn(y), lambda: -FOOTNOTE.conjugate_derivative(2, y)

    targets = np.geomspace(1e-4, 1e4, 12).reshape(3, 4)
    got = invert_decreasing(newton, targets)
    assert got.shape == targets.shape
    for t, g in zip(targets.flat, got.flat):
        one = invert_decreasing(newton, float(t))
        assert type(one) is float
        assert g == pytest.approx(one, rel=1e-14)
        assert fn(one) == pytest.approx(t, rel=1e-11)


def test_marginal_above_a_bounded_inverse_marginal_is_a_range_error(
        monkeypatch):
    # -V'(0+) = 1 + 0.5 = 1.5 for this mixture; the search reaches y = 0 in
    # a few squaring moves, not a thousand halvings
    u = UtilitySpec.from_dict({"kind": "finite_order", "n": 4, "mixture": {
        "z": [1.0, 2.0], "c": [1.0, 0.5]}})
    calls, newton = [], FiniteOrderUtility._newton
    monkeypatch.setattr(FiniteOrderUtility, "_newton",
                        lambda self, y: calls.append(y) or newton(self, y))
    for x in (2.5, np.array([0.5, 2.5])):
        calls.clear()
        with pytest.raises(RangeError):
            u.marginal(x)
        assert 0 < len(calls) <= 64


def test_a_nan_never_settles():
    from cmdual.duality import invert_decreasing

    points = []

    def nan_between(a, b):
        # fn = 1/y, but NaN on (a, b)
        def newton(y):
            points.append(np.atleast_1d(y)[-1])
            y = np.asarray(y)
            gap = (a < y) & (y < b)
            with np.errstate(all="ignore"):
                value = np.where(gap, np.nan, 1.0 / y)[()]
                slope = np.where(gap, np.nan, -1.0 / y**2)[()]
            return value, lambda: slope
        return newton

    everywhere = nan_between(0.0, np.inf)
    around_the_root = nan_between(0.5, 2.0)
    for newton, target in ((everywhere, 1.0), (around_the_root, 1.0),
                           (around_the_root, np.array([4.0, 1.0]))):
        points.clear()
        with pytest.raises(NoRoot):
            invert_decreasing(newton, target)
        # the unsettled point (the array's last) is never evaluated twice:
        # a bracket closed on two adjacent floats ends the solve
        assert len(set(points)) == len(points), len(points)
    # outside the NaN region the root is found, a NaN taken as the upper end
    assert invert_decreasing(around_the_root, 4.0) == 0.25
    assert invert_decreasing(around_the_root, np.array([4.0])) == [0.25]


def test_a_step_onto_a_bracket_end_gives_way_to_the_midpoint():
    from cmdual.duality import invert_decreasing

    # fn(y) and fn'(y) where they are read: from y = 1 the log-log step
    # lands on 16, from 16 exactly back on the lower end 1; the geometric
    # midpoint 4 is the root of fn = 0.5
    table = {1.0: (1.0, -0.25), 16.0: (1.0 / 32, -1.0 / 512),
             4.0: (0.5, -0.125)}
    for target in (0.5, np.array([0.5, 0.5])):
        calls = []

        def newton(y):
            calls.append(np.max(y))
            value, slope = np.vectorize(table.get, otypes=[float, float])(y)
            return value[()], lambda: slope[()]

        assert np.all(invert_decreasing(newton, target) == 4.0)
        assert calls == [1.0, 16.0, 4.0]
