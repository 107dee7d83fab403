"""Completely monotone functions of finite or infinite order.

Two evaluable families live here.  ``CMFunction`` is a function with
alternating-sign derivatives of all orders, backed either by a measure
(so that f(x) is its exponentially weighted mass) or by a small closed-form
catalog (powers ``x**(-a)``, exponentials ``exp(-b*x)``, and finite products
of these).  ``DnFunction`` is a decreasing test function W whose negative
derivative is completely monotone up to a finite order n; it is specified
by its n-th derivative plus one anchor value and everything of lower order
is recovered by collapsed tail integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import integrate
from scipy.special import binom, factorial

from .errors import (
    InvalidMeasure,
    NotVanishing,
    OrderExceeded,
    TailDivergent,
)
from .measures import BernsteinMeasure, exp_difference_moment, laplace_moment

__all__ = [
    "CMFunction",
    "DnFunction",
    "check_cm_order",
    "nfold_value",
    "limits_at_infinity",
    "CMOrderReport",
]


def _rising(a: float, k: int) -> float:
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


@dataclass(frozen=True)
class CMFunction:
    """Completely monotone function with exact k-th derivatives.

    Exactly one of ``measure`` and ``factors`` is set.  ``factors`` is a
    tuple of catalog entries ("power", a) for x**(-a) with a > 0 or
    ("exp", b) for exp(-b*x) with b > 0; several entries mean their product.
    """

    measure: Optional[BernsteinMeasure] = None
    factors: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if (self.measure is None) == (not self.factors):
            raise ValueError("provide exactly one of measure or factors")
        for kind, p in self.factors:
            if kind not in ("power", "exp"):
                raise ValueError(f"unknown catalog entry {kind!r}")
            if p <= 0:
                raise ValueError("catalog parameters must be positive")

    @classmethod
    def from_measure(cls, m: BernsteinMeasure) -> "CMFunction":
        return cls(measure=m)

    @classmethod
    def power(cls, a: float) -> "CMFunction":
        return cls(factors=(("power", a),))

    @classmethod
    def exponential(cls, b: float) -> "CMFunction":
        return cls(factors=(("exp", b),))

    @classmethod
    def product(cls, *funcs: "CMFunction") -> "CMFunction":
        factors = []
        for f in funcs:
            if f.measure is not None:
                raise ValueError("products are closed-form only")
            factors.extend(f.factors)
        return cls(factors=tuple(factors))

    def _factor_derivs(self, kind: str, p: float, kmax: int, x: float) -> np.ndarray:
        ks = np.arange(kmax + 1)
        if kind == "power":
            return np.array(
                [(-1.0) ** k * _rising(p, k) * x ** (-p - k) for k in ks]
            )
        return (-p) ** ks * math.exp(-p * x)

    def derivative(self, k: int, x: float) -> float:
        if x <= 0:
            raise ValueError("x must be positive")
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.measure is not None:
            return (-1.0) ** k * laplace_moment(self.measure, x, k)
        # Leibniz fold over the factor list
        derivs = self._factor_derivs(*self.factors[0], k, x)
        for kind, p in self.factors[1:]:
            nxt = self._factor_derivs(kind, p, k, x)
            derivs = np.array(
                [
                    sum(binom(m, j) * derivs[j] * nxt[m - j] for j in range(m + 1))
                    for m in range(k + 1)
                ]
            )
        return float(derivs[k])

    def value(self, x: float) -> float:
        return self.derivative(0, x)

    __call__ = value

    @property
    def order(self) -> float:
        return math.inf


_TAIL_PROBE = (1e3, 1e4, 1e5)
# absolute and relative accuracy of the tail and anchor quadratures
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class DnFunction:
    """Decreasing test function W with -W' completely monotone of order n-1.

    For ``order == math.inf`` the function is backed by the measure of -W';
    for finite order it is specified by an evaluable n-th derivative whose
    sign satisfies (-1)**n W^(n) >= 0, plus the anchor (y0, W(y0)).  Lower
    derivatives come from the collapsed tail integral

        (-1)**k W^(k)(y) = int_y^inf (t-y)**(n-1-k)/(n-1-k)! (-1)**n W^(n)(t) dt.

    ``exact`` optionally short-circuits derivative evaluation with a closed
    form (used for test-function families where all orders are known).
    """

    order: float
    anchor: tuple[float, float]
    measure: Optional[BernsteinMeasure] = None
    nth_derivative: Optional[Callable[[float], float]] = None
    exact: Optional[Callable[[int, float], float]] = None

    def __post_init__(self):
        if self.order != math.inf:
            if self.order < 1 or self.order != int(self.order):
                raise ValueError("order must be an integer >= 1 or math.inf")
            if self.nth_derivative is None:
                raise ValueError("finite order requires the n-th derivative")
        else:
            if self.measure is None:
                raise ValueError("infinite order requires the measure of -W'")
            if any(z == 0.0 for z, _ in self.measure.atoms):
                raise InvalidMeasure("measure of -W' must have no mass at 0, "
                                     "else W'(inf) != 0")
        y0, _ = self.anchor
        if y0 <= 0:
            raise ValueError("anchor point must be positive")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_measure(cls, m: BernsteinMeasure, anchor: tuple[float, float],
                     **kw) -> "DnFunction":
        return cls(order=math.inf, anchor=anchor, measure=m, **kw)

    @classmethod
    def from_nth_derivative(cls, n: int, dn: Callable[[float], float],
                            anchor: tuple[float, float], **kw) -> "DnFunction":
        return cls(order=n, anchor=anchor, nth_derivative=dn, **kw)

    @classmethod
    def exponential(cls, z: float, order: float = math.inf) -> "DnFunction":
        """W(y) = exp(-z*y), a member of every order class."""
        if z <= 0:
            raise ValueError("z must be positive")

        def exact(k, y):
            return (-z) ** k * math.exp(-z * y)

        if order == math.inf:
            m = BernsteinMeasure.from_atoms([(z, z)])
            return cls.from_measure(m, anchor=(1.0, math.exp(-z)), exact=exact)
        n = int(order)
        return cls.from_nth_derivative(
            n, lambda t: (-z) ** n * math.exp(-z * t),
            anchor=(1.0, math.exp(-z)), exact=exact)

    @classmethod
    def exponential_mixture(cls, zs, cs, order: float = math.inf) -> "DnFunction":
        """W(y) = sum_j c_j exp(-z_j y) with c_j > 0, anchored so W(inf) = 0."""
        zs = np.asarray(zs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if np.any(zs <= 0) or np.any(cs <= 0):
            raise ValueError("rates and weights must be positive")

        def exact(k, y):
            return float(np.sum(cs * (-zs) ** k * np.exp(-zs * y)))

        w0 = exact(0, 1.0)
        if order == math.inf:
            m = BernsteinMeasure.from_atoms(list(zip(zs, cs * zs)))
            return cls.from_measure(m, anchor=(1.0, w0), exact=exact)
        n = int(order)
        return cls.from_nth_derivative(n, lambda t: exact(n, t),
                                       anchor=(1.0, w0), exact=exact)

    # -- evaluation -----------------------------------------------------------

    def _tail_weight(self, k: int, y: float, t: float) -> float:
        m = int(self.order) - 1 - k
        return (t - y) ** m / factorial(m, exact=True)

    def derivative(self, k: int, y: float) -> float:
        if y <= 0:
            raise ValueError("y must be positive")
        if k < 0:
            raise ValueError("k must be >= 0")
        if self.order != math.inf and k > int(self.order):
            raise OrderExceeded(
                f"order {int(self.order)} function has no derivative {k}")
        if k == 0:
            return self.value(y)
        if self.exact is not None:
            return self.exact(k, y)
        if self.order == math.inf:
            return (-1.0) ** k * laplace_moment(self.measure, y, k - 1)
        n = int(self.order)
        if k == n:
            return self.nth_derivative(y)
        val, _ = integrate.quad(
            lambda t: self._tail_weight(k, y, t)
            * (-1.0) ** n * self.nth_derivative(t),
            y, math.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
        return (-1.0) ** k * val

    def value(self, y: float) -> float:
        if self.exact is not None:
            return self.exact(0, y)
        y0, w0 = self.anchor
        if y == y0:
            return w0
        if self.order == math.inf:
            return w0 + exp_difference_moment(self.measure, y, y0)
        return nfold_value(self, y)

    def __call__(self, y: float) -> float:
        return self.value(y)

    def value_at_infinity(self) -> float:
        """lim W(y) as y -> inf, by integrating -W' over the anchor tail."""
        if self.exact is not None:
            # exponential-type families vanish at infinity
            return self.exact(0, 1e8)
        y0, w0 = self.anchor
        tail, _ = integrate.quad(lambda s: -self.derivative(1, s), y0, math.inf,
                                 epsabs=_QUAD_TOL, epsrel=_QUAD_TOL,
                                 limit=200)
        return w0 - tail


def nfold_value(W: DnFunction, y: float) -> float:
    """Value of a finite-order W at y by collapsing the iterated tail integral.

    The n-fold integral telescopes to a single quadrature:

        W(y) = W(y0) + int ((t-y)+**(n-1) - (t-y0)+**(n-1))/(n-1)!
                        * (-1)**n W^(n)(t) dt,

    which must agree with literal nested quadrature (checked in tests).
    Raises TailDivergent when a probe detects non-integrable growth of
    (t-y)**(n-1) W^(n)(t).
    """
    if W.order == math.inf:
        return W.value(y)
    n = int(W.order)
    y0, w0 = W.anchor
    _tail_probe(W, y, n)
    fac = factorial(n - 1, exact=True)

    def kernel(t):
        ky = max(t - y, 0.0) ** (n - 1) if n > 1 else float(t > y)
        k0 = max(t - y0, 0.0) ** (n - 1) if n > 1 else float(t > y0)
        return (ky - k0) / fac * (-1.0) ** n * W.nth_derivative(t)

    lo, hi = min(y, y0), max(y, y0)
    head, _ = integrate.quad(kernel, lo, hi, points=[y, y0],
                             epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)
    tail, _ = integrate.quad(kernel, hi, math.inf,
                             epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=400)
    return w0 + head + tail


def _tail_probe(W: DnFunction, y: float, n: int):
    vals = [abs((t - y) ** (n - 1) * W.nth_derivative(t)) for t in _TAIL_PROBE]
    for prev, nxt in zip(vals, vals[1:]):
        if nxt > prev / 2.0 and nxt > 1e-300:
            raise TailDivergent(
                f"(t-y)^{n - 1} W^({n})(t) fails to decay: probe {vals}")


@dataclass(frozen=True)
class CMOrderReport:
    ok: bool
    violation: Optional[tuple[int, float]] = None
    inconclusive: tuple[tuple[int, float], ...] = ()

    def __bool__(self):
        return self.ok


def _central_difference(f, k: int, x: float, h: float) -> float:
    coeffs = [(-1.0) ** i * binom(k, i) for i in range(k + 1)]
    return sum(c * f(x + (k / 2.0 - i) * h) for i, c in enumerate(coeffs)) / h**k


def _blackbox_derivative(f, k: int, x: float, h: float) -> float:
    if k == 0:
        return f(x)
    if k > 6:
        raise OrderExceeded("divided differences support k <= 6 only")
    d1 = _central_difference(f, k, x, h)
    d2 = _central_difference(f, k, x, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def check_cm_order(f, n: int, grid, h: float = 1e-2,
                   tol_factor: float = 1e-8) -> CMOrderReport:
    """Check (-1)**k f^(k)(x) >= 0 for k = 0..n on the grid.

    Exact derivatives are used for CMFunction/DnFunction inputs; plain
    callables are probed with Richardson-extrapolated central differences.
    Returns the first violating (k, x); estimates inside the noise band
    ``tol_sign = tol_factor*|f(x)| + 1e-12`` are recorded as inconclusive
    rather than failed.
    """
    grid = sorted(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    exact_path = isinstance(f, (CMFunction, DnFunction))
    fval = f.value if exact_path else f
    inconclusive = []
    for k in range(n + 1):
        for x in grid:
            if exact_path:
                est = f.derivative(k, x)
            else:
                est = _blackbox_derivative(f, k, x, h)
            tol_sign = tol_factor * abs(fval(x)) + 1e-12
            signed = (-1.0) ** k * est
            if signed < -tol_sign:
                return CMOrderReport(False, (k, x), tuple(inconclusive))
            if not exact_path and k > 0 and abs(est) < tol_sign:
                inconclusive.append((k, x))
    return CMOrderReport(True, None, tuple(inconclusive))


def limits_at_infinity(W: DnFunction, k: int,
                       probes=(1e2, 1e4, 1e6)) -> float:
    """Confirm W^(k)(y) -> 0 along geometric probe points; return the last value.

    Raises NotVanishing when successive magnitudes fail to at least halve
    (the signature of a nonzero limit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if W.order != math.inf and k > int(W.order) - 1:
        raise OrderExceeded("limit check needs k <= n-1")
    vals = [W.derivative(k, y) for y in probes]
    for prev, nxt in zip(vals, vals[1:]):
        if abs(nxt) > max(0.5 * abs(prev), 1e-300):
            raise NotVanishing(f"W^({k}) probe values {vals} do not decay to 0")
    return vals[-1]
