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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def invert_decreasing(fn, dfn, target):
    """Solve fn(y) = target elementwise for a strictly decreasing positive fn.

    Each element is bracketed by geometric halving and doubling from y = 1,
    then solved by Newton with dfn to a relative residual of 1e-12 in at
    most 200 steps, falling back to bisection whenever an iterate leaves its
    bracket.  fn and dfn act elementwise on the shape of ``target``: a
    scalar target gives a float, an array an array.  A scalar is solved in
    Python floats, with no numpy call on any iterate but fn's and dfn's.
    """
    scalar = np.ndim(target) == 0
    if scalar:
        target, lo = float(target), 1.0
        tol = 1e-12 * max(abs(target), 1e-300)
        every, where, magnitude = bool, _pick, abs
    else:
        target = np.asarray(target, dtype=float)
        lo = np.ones(target.shape)
        tol = 1e-12 * np.maximum(np.abs(target), 1e-300)
        every, where, magnitude = np.all, np.where, np.abs
    hi = lo
    flo = fhi = fn(lo)
    for _ in range(2000):
        # written so that a NaN counts as outside the bracket
        low_ok, high_ok = flo >= target, fhi <= target
        if not every(low_ok):
            lo = where(low_ok, lo, lo / 2.0)
            if not every(lo > 0.0):
                raise NoRoot("target above the attainable range")
            flo = where(low_ok, flo, fn(lo))
        elif not every(high_ok):
            hi = where(high_ok, hi, hi * 2.0)
            fhi = where(high_ok, fhi, fn(hi))
        else:
            break
    else:
        raise NoRoot("target below the attainable range")
    y = 0.5 * (lo + hi)
    for _ in range(200):
        f = fn(y) - target
        settled = magnitude(f) <= tol
        if every(settled):
            break
        # each iterate lies inside its bracket and replaces one end of it
        above = f > 0
        lo = where(above, y, lo)
        hi = where(above, hi, y)
        # a zero or non-finite slope gives a step outside the bracket
        slope = dfn(y)
        if scalar:
            step = y - f / slope if slope != 0.0 else math.inf
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                step = y - f / slope
        step = where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        y = where(settled, y, step)
    return float(y) if scalar else y


def _pick(cond, a, b):
    """np.where for a scalar condition."""
    return a if cond else b


class UtilitySpec:
    """Common surface of all utility specifications; every method acts
    elementwise (a scalar gives a float, an array an array of its shape)."""

    kind: str = "abstract"

    # subclasses implement: inverse_marginal, conjugate, conjugate_derivative
    def inverse_marginal(self, y):
        raise NotImplementedError

    def conjugate(self, y):
        raise NotImplementedError

    def conjugate_derivative(self, k: int, y):
        raise NotImplementedError

    @property
    def max_order(self) -> float:
        return math.inf

    def marginal(self, x):
        if _any(np.asarray(x) <= 0):
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

    def conjugate_derivative(self, k, y):
        if k < 1:
            raise ValueError("k must be >= 1")
        return (-1.0) ** k * math.factorial(k - 1) * y ** (-k)

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
        if _any(np.asarray(y) <= 0):
            raise ValueError("y must be positive")
        return -self.V.derivative(1, y)

    def conjugate(self, y):
        return self.V.value(y)

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
        DensityPiece((-1.0) ** (k - j) / math.factorial(j - 1),
                     float(j - 1), 0.0)
        for j in range(1, k + 1)
    ]
    pieces.append(DensityPiece((-1.0) ** k, 0.0, 1.0))
    return MeasureUtility(BernsteinMeasure(pieces=tuple(pieces)))

