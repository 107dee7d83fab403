"""Utility functions with completely monotone inverse marginals.

A utility U is specified in one of four ways: the log and power closed
forms, a measure whose exponentially weighted mass is the inverse marginal
(U')^{-1}, or a finite-order conjugate function V given directly.  Every
spec exposes U, U', U'', (U')^{-1}, the convex conjugate V with its
derivatives, and the relative risk aversion/tolerance pair A and B with
A(x) * B(U'(x)) = 1.

For measure-backed specs the conjugate satisfies V'(y) = -(U')^{-1}(y), so
V is pinned only up to the anchor value V(y0); the anchor defaults to
(1.0, 0.0) and travels through every downstream computation consistently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import factorial

from .cmcalc import DnFunction
from .errors import InvalidMeasure, NoRoot, OrderExceeded, RangeError
from .measures import (
    BernsteinMeasure,
    DensityPiece,
    exp_difference_moment,
    laplace_moment,
    mass,
)

__all__ = [
    "UtilitySpec",
    "LogUtility",
    "PowerUtility",
    "MeasureUtility",
    "FiniteOrderUtility",
    "footnote_utility",
    "invert_decreasing",
]


def invert_decreasing(fn, dfn, target: float, y_init: float = 1.0,
                      rel_tol: float = 1e-12, max_iter: int = 200) -> float:
    """Solve fn(y) = target for a strictly decreasing positive fn.

    Brackets by geometric doubling from y_init, then runs Newton with the
    supplied derivative, falling back to bisection whenever an iterate
    leaves the bracket.
    """
    lo = hi = y_init
    flo = fhi = fn(y_init)
    for _ in range(2000):
        if flo >= target:
            break
        lo /= 2.0
        if lo == 0.0:
            raise NoRoot("target above the attainable range")
        flo = fn(lo)
    else:
        raise NoRoot("target above the attainable range")
    for _ in range(2000):
        if fhi <= target:
            break
        hi *= 2.0
        fhi = fn(hi)
    else:
        raise NoRoot("target below the attainable range")
    y = 0.5 * (lo + hi)
    for _ in range(max_iter):
        f = fn(y) - target
        if abs(f) <= rel_tol * max(abs(target), 1e-300):
            return y
        if f > 0:
            lo = max(lo, y)
        else:
            hi = min(hi, y)
        d = dfn(y)
        step = y - f / d if d != 0 else math.nan
        if not (lo < step < hi) or not math.isfinite(step):
            step = 0.5 * (lo + hi)
        y = step
    return y


class UtilitySpec:
    """Common surface of all utility specifications."""

    kind: str = "abstract"

    # subclasses implement: inverse_marginal, conjugate, conjugate_derivative
    def inverse_marginal(self, y: float) -> float:
        raise NotImplementedError

    def conjugate(self, y: float) -> float:
        raise NotImplementedError

    def conjugate_derivative(self, k: int, y: float) -> float:
        raise NotImplementedError

    @property
    def max_order(self) -> float:
        return math.inf

    def marginal(self, x: float) -> float:
        if x <= 0:
            raise ValueError("x must be positive")
        try:
            return invert_decreasing(
                self.inverse_marginal,
                lambda y: -self.conjugate_derivative(2, y),
                x,
            )
        except NoRoot as exc:
            raise RangeError(f"x={x} outside the range of the inverse "
                             f"marginal") from exc

    def value(self, x: float) -> float:
        """U(x) recovered through conjugacy: U(x) = V(y) + x*y at y = U'(x)."""
        y = self.marginal(x)
        return self.conjugate(y) + x * y

    def second(self, x: float) -> float:
        """U''(x) = -1 / V''(U'(x)) by the inverse-function theorem."""
        return -1.0 / self.conjugate_derivative(2, self.marginal(x))

    def rrt(self, y: float) -> float:
        """Relative risk tolerance B(y) = -V''(y) y / V'(y)."""
        return (-self.conjugate_derivative(2, y) * y
                / self.conjugate_derivative(1, y))

    def rra(self, x: float) -> float:
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
            V = DnFunction.exponential_mixture(mix["z"], mix["c"],
                                               order=int(d["n"]))
            return FiniteOrderUtility(V)
        raise ValueError(f"unknown utility kind {kind!r}")


@dataclass(frozen=True)
class LogUtility(UtilitySpec):
    kind = "log"

    def inverse_marginal(self, y):
        return 1.0 / y

    def marginal(self, x):
        return 1.0 / x

    def value(self, x):
        return math.log(x)

    def second(self, x):
        return -1.0 / x**2

    def conjugate(self, y):
        return -math.log(y) - 1.0

    def conjugate_derivative(self, k, y):
        if k < 1:
            raise ValueError("k must be >= 1")
        return (-1.0) ** k * factorial(k - 1, exact=True) * y ** (-k)

    def rra(self, x):
        return 1.0

    def rrt(self, y):
        return 1.0

    def to_dict(self):
        return {"kind": "log"}


@dataclass(frozen=True)
class PowerUtility(UtilitySpec):
    p: float
    kind = "power"

    def __post_init__(self):
        if self.p >= 1 or self.p == 0:
            raise ValueError("power parameter requires p < 1, p != 0")

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

    def conjugate(self, y):
        return -(y**self.q) / self.q

    def conjugate_derivative(self, k, y):
        if k < 1:
            raise ValueError("k must be >= 1")
        coeff = -1.0
        for j in range(1, k):
            coeff *= self.q - j
        return coeff * y ** (self.q - k)

    def rra(self, x):
        return 1.0 - self.p

    def rrt(self, y):
        return 1.0 / (1.0 - self.p)

    def to_dict(self):
        return {"kind": "power", "p": self.p}


@dataclass(frozen=True)
class MeasureUtility(UtilitySpec):
    """Utility whose inverse marginal is the weighted mass of ``measure``."""

    measure: BernsteinMeasure
    anchor: tuple[float, float] = (1.0, 0.0)
    kind = "measure"

    def __post_init__(self):
        if any(z == 0.0 for z, _ in self.measure.atoms):
            raise InvalidMeasure("inverse-marginal measure must have no mass "
                                 "at 0 (marginal must vanish at infinity)")
        if not math.isinf(mass(self.measure, 0.0, math.inf)):
            raise InvalidMeasure("inverse-marginal measure needs infinite "
                                 "mass so the marginal blows up at 0")

    def inverse_marginal(self, y):
        if y <= 0:
            raise ValueError("y must be positive")
        return laplace_moment(self.measure, y, 0)

    def conjugate(self, y):
        y0, v0 = self.anchor
        return v0 + exp_difference_moment(self.measure, y, y0)

    def conjugate_derivative(self, k, y):
        if k < 1:
            raise ValueError("k must be >= 1")
        return (-1.0) ** k * laplace_moment(self.measure, y, k - 1)

    def to_dict(self):
        return {"kind": "measure", "measure": self.measure.to_dict(),
                "anchor": list(self.anchor)}


@dataclass(frozen=True)
class FiniteOrderUtility(UtilitySpec):
    """Utility given through a finite-order conjugate function V.

    Derivatives are exposed only up to the order of V; beyond that the
    request raises OrderExceeded rather than silently differencing.
    """

    V: DnFunction
    kind = "finite_order"

    def __post_init__(self):
        if self.V.order == math.inf:
            raise ValueError("use MeasureUtility for infinite order")

    @property
    def max_order(self):
        return int(self.V.order)

    def inverse_marginal(self, y):
        return -self.V.derivative(1, y)

    def conjugate(self, y):
        return self.V.value(y)

    def conjugate_derivative(self, k, y):
        if k > self.max_order:
            raise OrderExceeded(
                f"conjugate of order {self.max_order} has no derivative {k}")
        return self.V.derivative(k, y)

    def to_dict(self):
        raise NotImplementedError(
            "only exponential-mixture finite-order specs serialize; "
            "build them via UtilitySpec.from_dict")


def footnote_utility(k: int = 1) -> MeasureUtility:
    """Utility with inverse marginal y**(-k) / (y + 1) for integer k >= 1.

    Partial fractions give 1/(y**k (y+1)) = sum_{j<=k} (-1)**(k-j) y**(-j)
    + (-1)**k/(y+1), i.e. a measure with density
    sum_j (-1)**(k-j) z**(j-1)/(j-1)! + (-1)**k exp(-z).  Its relative risk
    tolerance is B(y) = k + y/(y+1), strictly monotone, so the relative risk
    aversion is non-constant.
    """
    if k < 1 or k != int(k):
        raise ValueError("k must be an integer >= 1")
    k = int(k)
    pieces = [
        DensityPiece((-1.0) ** (k - j) / factorial(j - 1, exact=True),
                     float(j - 1), 0.0)
        for j in range(1, k + 1)
    ]
    pieces.append(DensityPiece((-1.0) ** k, 0.0, 1.0))
    return MeasureUtility(BernsteinMeasure(pieces=tuple(pieces)))

