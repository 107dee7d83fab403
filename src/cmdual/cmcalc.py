"""Completely monotone functions of finite or infinite order.

One evaluable type lives here.  ``DnFunction`` is a decreasing function W
whose negative derivative is completely monotone, of all orders or up to a
finite order n.  An infinite-order member is backed by the measure of -W'
(Bernstein's theorem) or by a closed form: the catalog of powers
``y**(-a)``, exponentials ``exp(-b*y)``, Laplace transforms of measures and
finite products of these.  A finite-order member is specified by its n-th
derivative plus one anchor value, and everything of lower order is
recovered by collapsed tail integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidMeasure,
    NotVanishing,
    OrderExceeded,
    TailDivergent,
)
from .measures import (BernsteinMeasure, _any, exp_difference_moment,
                       laplace_moment, laplace_moments)

__all__ = [
    "DnFunction",
    "check_cm_order",
    "nfold_value",
    "limits_at_infinity",
    "CMOrderReport",
]


_TAIL_PROBE = (1e3, 1e4, 1e5)
# absolute and relative accuracy of the tail and anchor quadratures
_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class DnFunction:
    """Decreasing test function W with -W' completely monotone of order n-1.

    For ``order == math.inf`` the function is backed by the measure of -W'
    or by a closed form ``exact`` alone; for finite order it is specified
    by an evaluable n-th derivative whose sign satisfies (-1)**n W^(n) >= 0,
    plus the anchor (y0, W(y0)).  Lower derivatives come from the collapsed
    tail integral

        (-1)**k W^(k)(y) = int_y^inf (t-y)**(n-1-k)/(n-1-k)! (-1)**n W^(n)(t) dt.

    ``exact`` optionally short-circuits derivative evaluation with a closed
    form (used for families where all orders are known, all of which
    vanish at infinity).
    ``exact``, ``derivative`` and ``value`` act elementwise on y (a float for
    a scalar, an array for an array); finite-order quadrature runs per point.
    ``derivatives`` takes several orders at once: from a measure, every
    order k >= 1 is one ``laplace_moments`` call.
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
            object.__setattr__(self, "order", int(self.order))
        else:
            if (self.measure is None) == (self.exact is None):
                raise ValueError("infinite order requires either the measure "
                                 "of -W' or a closed form")
            if self.measure is not None and any(
                    z == 0.0 for z, _ in self.measure.atoms):
                raise InvalidMeasure("measure of -W' must have no mass at 0, "
                                     "else W'(inf) != 0")
        y0, w0 = self.anchor
        if not (0 < y0 < math.inf and math.isfinite(w0)):
            raise ValueError("anchor must be finite with a positive point")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_measure(cls, m: BernsteinMeasure,
                     anchor: tuple[float, float]) -> "DnFunction":
        return cls(order=math.inf, anchor=anchor, measure=m)

    @classmethod
    def from_nth_derivative(cls, n: int, dn: Callable[[float], float],
                            anchor: tuple[float, float], **kw) -> "DnFunction":
        return cls(order=n, anchor=anchor, nth_derivative=dn, **kw)

    @classmethod
    def exponential(cls, z: float, order: float = math.inf) -> "DnFunction":
        """W(y) = exp(-z*y), a member of every order class."""
        if z <= 0:
            raise ValueError("z must be positive")
        return cls.exponential_mixture([z], [1.0], order)

    @classmethod
    def exponential_mixture(cls, zs, cs, order: float = math.inf) -> "DnFunction":
        """W(y) = sum_j c_j exp(-z_j y) with c_j > 0, anchored so W(inf) = 0."""
        zs = np.asarray(zs, dtype=float)
        cs = np.asarray(cs, dtype=float)
        if not np.all(np.isfinite(zs) & (zs > 0) & np.isfinite(cs) & (cs > 0)):
            raise ValueError("rates and weights must be positive and finite")

        def exact(k, y):
            terms = cs * (-zs) ** k * np.exp(-np.multiply.outer(y, zs))
            return terms.sum(axis=-1)

        nth = None if order == math.inf else lambda t: exact(int(order), t)
        return cls(order=order, anchor=(1.0, exact(0, 1.0)),
                   nth_derivative=nth, exact=exact)

    @classmethod
    def power(cls, a: float) -> "DnFunction":
        """W(y) = y**(-a) with a > 0."""
        if a <= 0:
            raise ValueError("a must be positive")

        def exact(k, y):
            rising = math.prod(a + j for j in range(k))
            return (-1.0) ** k * rising * y ** (-a - k)

        return cls(order=math.inf, anchor=(1.0, 1.0), exact=exact)

    @classmethod
    def laplace(cls, m: BernsteinMeasure) -> "DnFunction":
        """W(y) = int exp(-y z) m(dz); m has no atom at 0, so W(inf) = 0."""
        if any(z == 0.0 for z, _ in m.atoms):
            raise InvalidMeasure("m must have no mass at 0, else W(inf) != 0")

        def exact(k, y):
            return (-1.0) ** k * laplace_moment(m, y, k)

        return cls(order=math.inf, anchor=(1.0, exact(0, 1.0)), exact=exact)

    @classmethod
    def product(cls, *fs: "DnFunction") -> "DnFunction":
        """W = f_1 * ... * f_r of closed-form infinite-order members, whose
        derivatives follow by folding the Leibniz rule over the factors."""
        if not fs or any(f.exact is None or f.order != math.inf for f in fs):
            raise ValueError("products take closed-form members of infinite order")

        def exact(k, y):
            derivs = [fs[0].exact(j, y) for j in range(k + 1)]
            for f in fs[1:]:
                nxt = [f.exact(j, y) for j in range(k + 1)]
                derivs = [sum(math.comb(r, j) * derivs[j] * nxt[r - j]
                              for j in range(r + 1)) for r in range(k + 1)]
            return derivs[k]

        return cls(order=math.inf, anchor=(1.0, exact(0, 1.0)), exact=exact)

    # -- evaluation -----------------------------------------------------------

    def derivatives(self, orders, y) -> list:
        """``[self.derivative(k, y) for k in orders]``; a measure gives every
        order k >= 1 from one kernel call, which raises what the first
        failing order would raise alone."""
        if self.measure is None or min(orders, default=0) < 1:
            return [self.derivative(k, y) for k in orders]
        moments = laplace_moments(self.measure, y, [k - 1 for k in orders])
        return [(-1.0) ** k * mk for k, mk in zip(orders, moments)]

    def derivative(self, k: int, y):
        if self.measure is not None and k >= 1:
            # laplace_moment refuses y < 0 itself and raises NonIntegrable
            # where the moment diverges, as at y = 0 for infinite mass
            return (-1.0) ** k * laplace_moment(self.measure, y, k - 1)
        if k < 0:
            raise ValueError("k must be >= 0")
        if k > self.order:
            raise OrderExceeded(
                f"order {self.order} function has no derivative {k}")
        if _any(np.asarray(y) <= 0):
            raise ValueError("y must be positive")
        if k == 0:
            return self.value(y)
        if self.exact is not None:
            return self.exact(k, y)
        n = self.order
        m = n - 1 - k  # the tail weight is (t-y)**m / m!
        from scipy import integrate

        def one(s):
            if k == n:
                return self.nth_derivative(s)
            val, _ = integrate.quad(
                lambda t: (t - s) ** m / math.factorial(m)
                * (-1.0) ** n * self.nth_derivative(t),
                s, math.inf, epsabs=_QUAD_TOL, epsrel=_QUAD_TOL, limit=200)
            return (-1.0) ** k * val

        return np.vectorize(one, otypes=[float])(y)[()]

    def value(self, y):
        if self.exact is not None:
            return self.exact(0, y)
        y0, w0 = self.anchor
        if self.order == math.inf:
            # the difference kernel vanishes exactly at y = y0
            return w0 + exp_difference_moment(self.measure, y, y0)
        return np.vectorize(lambda t: w0 if t == y0 else nfold_value(self, t),
                            otypes=[float])(y)[()]

    def __call__(self, y: float) -> float:
        return self.value(y)

    def value_at_infinity(self) -> float:
        """lim W(y) as y -> inf, by integrating -W' over the anchor tail."""
        if self.exact is not None:
            # the closed forms (the catalog, the cex1 conjugate ~ f_inf / y)
            # vanish at infinity
            return 0.0
        from scipy import integrate
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
    from scipy import integrate
    n = W.order
    y0, w0 = W.anchor
    _tail_probe(W, y, n)
    fac = math.factorial(n - 1)

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
    coeffs = [(-1.0) ** i * math.comb(k, i) for i in range(k + 1)]
    return sum(c * f(x + (k / 2.0 - i) * h) for i, c in enumerate(coeffs)) / h**k


def _blackbox_derivative(f, k: int, x: float, h: float) -> float:
    if k == 0:
        return f(x)
    if k > 6:
        raise OrderExceeded("divided differences support k <= 6 only")
    d1 = _central_difference(f, k, x, h)
    d2 = _central_difference(f, k, x, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def check_cm_order(f, n: int, grid, h: float = 1e-2) -> CMOrderReport:
    """Check (-1)**k f^(k)(x) >= 0 for k = 0..n on the grid.

    Exact derivatives are used for DnFunction inputs; plain
    callables are probed with Richardson-extrapolated central differences.
    Returns the first violating (k, x); estimates inside the noise band
    ``tol_sign = 1e-8*|f(x)| + 1e-12`` are recorded as inconclusive
    rather than failed.
    """
    grid = sorted(grid)
    if not grid:
        raise ValueError("grid must be nonempty")
    exact_path = isinstance(f, DnFunction)
    fval = f.value if exact_path else f
    inconclusive = []
    for k in range(n + 1):
        for x in grid:
            if exact_path:
                est = f.derivative(k, x)
            else:
                est = _blackbox_derivative(f, k, x, h)
            tol_sign = 1e-8 * abs(fval(x)) + 1e-12
            signed = (-1.0) ** k * est
            if signed < -tol_sign:
                return CMOrderReport(False, (k, x), tuple(inconclusive))
            if not exact_path and k > 0 and abs(est) < tol_sign:
                inconclusive.append((k, x))
    return CMOrderReport(True, None, tuple(inconclusive))


def limits_at_infinity(W: DnFunction, k: int) -> float:
    """Confirm W^(k)(y) -> 0 at y = 1e2, 1e4, 1e6; return the last value.

    Raises NotVanishing when successive magnitudes fail to at least halve
    (the signature of a nonzero limit).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > W.order - 1:
        raise OrderExceeded("limit check needs k <= n-1")
    vals = [W.derivative(k, y) for y in (1e2, 1e4, 1e6)]
    for prev, nxt in zip(vals, vals[1:]):
        if abs(nxt) > max(0.5 * abs(prev), 1e-300):
            raise NotVanishing(f"W^({k}) probe values {vals} do not decay to 0")
    return vals[-1]
