"""Utility functions with completely monotone inverse marginals.

A utility U is specified in one of four ways: the log and power closed
forms, a measure whose exponentially weighted mass is the inverse marginal
(U')^{-1}, or a finite-order conjugate function V given directly; the last
two hold V as a ``cmcalc.DnFunction`` and read V, V^(k) and -V' off it.
Every spec exposes U, U', U'', (U')^{-1}, the convex conjugate V with its
derivatives, and the relative risk aversion/tolerance pair A and B with
A(x) * B(U'(x)) = 1.

For measure-backed specs the conjugate satisfies V'(y) = -(U')^{-1}(y), so
V is pinned only up to the anchor value V(y0); the anchor defaults to
(1.0, 0.0) and travels through every downstream computation consistently.

Each spec implements ``conjugate_derivatives(orders, y)``, which gives
several orders of V at once; ``conjugate_derivative(k, y)`` is its
one-order case.  A measure-backed V computes all orders in one Laplace
moment call, and the closed forms loop their formulas.  The log-log
Newton of ``marginal`` reads V' and V'' at each iterate from one such call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cmcalc import DnFunction
from .errors import InvalidMeasure, NoRoot, RangeError
from .measures import BernsteinMeasure, DensityPiece, _any, mass

__all__ = [
    "UtilitySpec",
    "LogUtility",
    "PowerUtility",
    "MeasureUtility",
    "FiniteOrderUtility",
    "footnote_utility",
    "invert_decreasing",
]


def invert_decreasing(newton, target):
    """Solve fn(y) = target elementwise for a strictly decreasing positive fn.

    Newton on log y -> log fn(y) from y = 1: ``newton(y)`` gives fn(y) and a
    reader of fn'(y), called only while a residual is unsettled, and the
    step y (target / fn(y))**(1/e), e = y fn'(y) / fn(y), solves a power law
    at once.  A point settles at a relative residual of 1e-12, else it ends
    a bracket on its residual's side (a NaN: the upper end).  A step that is
    not finite or leaves the bracket gives way to its geometric midpoint,
    or, while one end is unknown, to a move toward it by 2, 4, 16, 256, ...
    Reaching 0 or infinity, or 100 evaluations, raises NoRoot.  A scalar
    target is solved in Python floats, with no numpy call but newton's.
    """
    if np.ndim(target) == 0:
        target, y, lo = float(target), 1.0, 0.0
        tol = 1e-12 * max(abs(target), 1e-300)
        every, magnitude, advance = bool, abs, _advance
    else:
        target = np.asarray(target, dtype=float)
        y, lo = np.ones(target.shape), np.zeros(target.shape)
        tol = 1e-12 * np.maximum(np.abs(target), 1e-300)
        every, magnitude, advance = np.all, np.abs, _advances
    hi, jump = lo + math.inf, lo + 2.0
    for _ in range(100):
        value, read_slope = newton(y)
        settled = magnitude(value - target) <= tol
        if every(settled):
            return y
        y, lo, hi, jump = advance(y, value, read_slope(), target, lo, hi,
                                  jump, settled)
        if not every((0.0 < y) & (y < math.inf)):
            raise NoRoot("target outside the attainable range")
    raise NoRoot("no settled root in 100 evaluations")


def _advance(y, value, slope, target, lo, hi, jump, settled):
    """Next scalar iterate, bracket and move factor of invert_decreasing."""
    value, slope = float(value), float(slope)
    lo, hi = (y, hi) if value > target else (lo, y)
    try:
        ratio = target / value
        step = y * ratio ** (value / (y * slope)) if ratio > 0.0 else math.nan
    except (ZeroDivisionError, OverflowError):
        step = math.nan
    if lo < step < hi:
        return step, lo, hi, jump
    if lo > 0.0 and hi < math.inf:
        return math.sqrt(lo) * math.sqrt(hi), lo, hi, jump
    return (y * jump if hi == math.inf else y / jump), lo, hi, jump * jump


def _advances(y, value, slope, target, lo, hi, jump, settled):
    """``_advance`` elementwise; a settled element stays where it is."""
    above = value > target
    lo, hi = np.where(above, y, lo), np.where(above, hi, y)
    with np.errstate(all="ignore"):
        ratio = target / value
        step = y * np.where(ratio > 0.0, ratio, np.nan) ** (value / (y * slope))
        inside = (lo < step) & (step < hi)
        both = (lo > 0.0) & (hi < math.inf)
        step = np.where(inside, step, np.where(
            both, np.sqrt(lo) * np.sqrt(hi),
            np.where(hi == math.inf, y * jump, y / jump)))
        jump = np.where(inside | both | settled, jump, jump * jump)
    return np.where(settled, y, step), lo, hi, jump


def _nonpositive(v) -> bool:
    """Whether some element of v is <= 0 (a NaN is not): a plain comparison
    for a Python float."""
    return v <= 0 if isinstance(v, float) else _any(np.asarray(v) <= 0)


class UtilitySpec:
    """Common surface of all utility specifications; every method acts
    elementwise (a scalar gives a float, an array an array of its shape)."""

    kind: str = "abstract"

    # subclasses implement: inverse_marginal, conjugate, conjugate_derivatives
    def inverse_marginal(self, y):
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def conjugate_derivatives(self, orders, y) -> list:
        """[V^(k)(y) for k in orders], each order k >= 1; the call raises
        what the first failing order would raise alone."""
        raise NotImplementedError

    def conjugate_derivative(self, k: int, y):
        return self.conjugate_derivatives((k,), y)[0]

    @property
    def max_order(self) -> float:
        return math.inf

    def _newton(self, y):
        """(U')^{-1}(y) = -V'(y) and a reader of its slope -V''(y), both from
        one conjugate call; where that call fails, each is taken alone, so
        an order that fails raises only when it is read."""
        try:
            first, second = self.conjugate_derivatives((1, 2), y)
        except Exception:  # each order raises its own error when read
            return (self.inverse_marginal(y),
                    lambda: -self.conjugate_derivative(2, y))
        return -first, lambda: -second

    def marginal(self, x):
        if _nonpositive(x):
            raise ValueError("x must be positive")
        try:
            return invert_decreasing(self._newton, x)
        except NoRoot as exc:
            raise RangeError(f"x={x} outside the range of the inverse "
                             f"marginal") from exc

    def value(self, x):
        """U(x) recovered through conjugacy: U(x) = V(y) + x*y at y = U'(x)."""
        y = self.marginal(x)
        return self.conjugate(y) + x * y

    def second(self, x):
        """U''(x) = -1 / V''(U'(x)) by the inverse-function theorem."""
        return -1.0 / self.conjugate_derivative(2, self.marginal(x))

    def rrt(self, y):
        """Relative risk tolerance B(y) = -V''(y) y / V'(y)."""
        return (-self.conjugate_derivative(2, y) * y
                / self.conjugate_derivative(1, y))

    def rra(self, x):
        """Relative risk aversion A(x) = -U''(x) x / U'(x) = 1 / B(U'(x))."""
        return 1.0 / self.rrt(self.marginal(x))

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(d: dict) -> "UtilitySpec":
        kind = d["kind"]
        if kind == "log":
            return LogUtility()
        if kind == "power":
            return PowerUtility(d["p"])
        if kind == "measure":
            anchor = tuple(d.get("anchor", (1.0, 0.0)))
            return MeasureUtility(BernsteinMeasure.from_dict(d["measure"]),
                                  anchor=anchor)
        if kind == "finite_order":
            mix = d["mixture"]
            return FiniteOrderUtility(DnFunction.exponential_mixture(
                mix["z"], mix["c"], order=d["n"]))
        raise ValueError(f"unknown utility kind {kind!r}")


@dataclass(frozen=True)
class LogUtility(UtilitySpec):
    kind = "log"

    def inverse_marginal(self, y):
        return 1.0 / y

    def marginal(self, x):
        return 1.0 / x

    def value(self, x):
        return np.log(x)

    def second(self, x):
        return -1.0 / x**2

    def conjugate(self, y):
        return -np.log(y) - 1.0

    # a tiny y overflows to inf, which the solver reports as divergent
    @np.errstate(over="ignore")
    def conjugate_derivatives(self, orders, y):
        if min(orders, default=1) < 1:
            raise ValueError("k must be >= 1")
        return [(-1.0) ** k * math.factorial(k - 1) * y ** (-k)
                for k in orders]

    def rra(self, x):
        return np.full_like(x, 1.0, dtype=float)[()]

    def rrt(self, y):
        return np.full_like(y, 1.0, dtype=float)[()]

    def to_dict(self):
        return {"kind": "log"}


@dataclass(frozen=True)
class PowerUtility(UtilitySpec):
    p: float
    kind = "power"

    def __post_init__(self):
        if not (-math.inf < self.p < 1 and self.p != 0):
            raise ValueError("power parameter requires finite p < 1, p != 0")

    @property
    def q(self):
        # conjugate exponent: 1/p + 1/q = 1
        return self.p / (self.p - 1.0)

    def inverse_marginal(self, y):
        return y ** (-1.0 / (1.0 - self.p))

    def marginal(self, x):
        return x ** (self.p - 1.0)

    def value(self, x):
        return x**self.p / self.p

    def second(self, x):
        return (self.p - 1.0) * x ** (self.p - 2.0)

    # as for log, an overflow to inf is reported downstream
    @np.errstate(over="ignore")
    def conjugate(self, y):
        return -(y**self.q) / self.q

    @np.errstate(over="ignore")
    def conjugate_derivatives(self, orders, y):
        if min(orders, default=1) < 1:
            raise ValueError("k must be >= 1")
        q, out = self.q, []
        for k in orders:
            coeff = -1.0
            for j in range(1, k):
                coeff *= q - j
            out.append(coeff * y ** (q - k))
        return out

    def rra(self, x):
        return np.full_like(x, 1.0 - self.p, dtype=float)[()]

    def rrt(self, y):
        return np.full_like(y, 1.0 / (1.0 - self.p), dtype=float)[()]

    def to_dict(self):
        return {"kind": "power", "p": self.p}


class _ConjugateUtility(UtilitySpec):
    """Utility given through its conjugate ``V``, a DnFunction: the inverse
    marginal is -V' and the conjugate derivatives are those of V."""

    V: DnFunction

    @property
    def max_order(self):
        return self.V.order

    def inverse_marginal(self, y):
        if _nonpositive(y):
            raise ValueError("y must be positive")
        return -self.V.derivative(1, y)

    def conjugate(self, y):
        return self.V.value(y)

    def conjugate_derivatives(self, orders, y):
        if min(orders, default=1) < 1:
            raise ValueError("k must be >= 1")
        return self.V.derivatives(orders, y)

    def conjugate_derivative(self, k, y):
        if k < 1:
            raise ValueError("k must be >= 1")
        return self.V.derivative(k, y)


@dataclass(frozen=True)
class MeasureUtility(_ConjugateUtility):
    """Utility whose inverse marginal is the weighted mass of ``measure``:
    V is the Laplace transform form of Bernstein's theorem, pinned at
    ``anchor`` = (y0, V(y0))."""

    measure: BernsteinMeasure
    anchor: tuple[float, float] = (1.0, 0.0)
    kind = "measure"

    def __post_init__(self):
        # DnFunction refuses an atom at 0 (U' must vanish at infinity)
        object.__setattr__(self, "V", DnFunction.from_measure(self.measure,
                                                              self.anchor))
        if not math.isinf(mass(self.measure, 0.0, math.inf)):
            raise InvalidMeasure("inverse-marginal measure needs infinite "
                                 "mass so the marginal blows up at 0")

    def to_dict(self):
        return {"kind": "measure", "measure": self.measure.to_dict(),
                "anchor": list(self.anchor)}


@dataclass(frozen=True)
class FiniteOrderUtility(_ConjugateUtility):
    """Utility given through a finite-order conjugate function V.

    Derivatives are exposed only up to the order of V; beyond that the
    request raises OrderExceeded rather than silently differencing.
    """

    V: DnFunction
    kind = "finite_order"

    def __post_init__(self):
        if self.V.order == math.inf:
            raise ValueError("use MeasureUtility for infinite order")

    def to_dict(self):
        raise NotImplementedError(
            "only exponential-mixture finite-order specs serialize; "
            "build them via UtilitySpec.from_dict")


@lru_cache(maxsize=None)
def footnote_utility(k: int = 1) -> MeasureUtility:
    """Utility with inverse marginal y**(-k) / (y + 1) for integer k >= 1.

    Partial fractions give 1/(y**k (y+1)) = sum_{j<=k} (-1)**(k-j) y**(-j)
    + (-1)**k/(y+1), i.e. a measure with density
    sum_j (-1)**(k-j) z**(j-1)/(j-1)! + (-1)**k exp(-z).  Its relative risk
    tolerance is B(y) = k + y/(y+1), strictly monotone, so the relative risk
    aversion is non-constant.  The utility is immutable, so one instance per
    k is built and shared: building it runs the sampled nonnegativity probe
    of the signed density, about a quarter of a millisecond.
    """
    if k < 1 or k != int(k):
        raise ValueError("k must be an integer >= 1")
    k = int(k)
    pieces = [
        DensityPiece((-1.0) ** (k - j) / math.factorial(j - 1),
                     float(j - 1), 0.0)
        for j in range(1, k + 1)
    ]
    pieces.append(DensityPiece((-1.0) ** k, 0.0, 1.0))
    return MeasureUtility(BernsteinMeasure(pieces=tuple(pieces)))

