"""Laws of nonnegative random variables and stochastic dominance tests.

A law is either a finite discrete distribution or a lognormal; empirical
samples enter as discrete laws with equal weights.  Order-n dominance
compares n-fold iterated CDFs pointwise, infinite-order dominance compares
Laplace transforms on a z-grid, and both verdicts can be cross-examined
against sampled families of decreasing test functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np
from numpy.polynomial.polynomial import polyder, polyroots, polyval
from scipy.special import log_ndtr, ndtr, ndtri, roots_hermite

from .cmcalc import DnFunction
from .errors import QuadratureFailure

__all__ = [
    "Distribution",
    "Discrete",
    "Lognormal",
    "iterated_cdf",
    "dominates_n",
    "dominates_inf",
    "expectation_vs_iterated",
    "test_function_audit",
    "DominanceVerdict",
    "AuditReport",
]

ABS_TOL = 1e-10
REL_TOL = 1e-8
MIN_NODES, MAX_NODES = 64, 4096
# Laplace rates compared by dominates_inf and sampled by test_function_audit
Z_RANGE = (1e-4, 1e4)


@lru_cache(maxsize=None)
def _hermite_rule(n: int):
    """n-point Gauss-Hermite nodes and weights, weights divided by sqrt(pi)."""
    t, w = roots_hermite(n)
    w = w / math.sqrt(math.pi)
    t.flags.writeable = w.flags.writeable = False
    return t, w


class QuadratureRule(NamedTuple):
    """Outcomes, their weights, and the probe expectation they settled on."""

    nodes: np.ndarray
    weights: np.ndarray
    value: np.ndarray


class Distribution:
    """Law of a nonnegative random variable."""

    def cdf(self, y):
        raise NotImplementedError

    def iterated(self, n, ys):
        raise NotImplementedError

    def laplace(self, z):
        """E[exp(-z*xi)]."""
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def expectation(self, fn):
        """E[fn(xi)]; ``fn`` maps an outcome array to per-outcome values."""
        raise NotImplementedError

    def quantile_knots(self, count):
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def from_dict(d: dict) -> "Distribution":
        kind = d["kind"]
        if kind == "discrete":
            return Discrete(tuple(d["x"]), tuple(d["p"]))
        if kind == "lognormal":
            return Lognormal(d["m"], d["s2"])
        if kind == "empirical":
            return Discrete.from_sample(d["sample"])
        raise ValueError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class Discrete(Distribution):
    xs: tuple[float, ...]
    ps: tuple[float, ...]

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ps = np.asarray(self.ps, dtype=float)
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size == 0:
            raise ValueError("support and probabilities must match and be nonempty")
        if np.any(xs < 0):
            raise ValueError("support must lie in [0, inf)")
        if np.any(ps <= 0):
            raise ValueError("probabilities must be strictly positive")
        if abs(ps.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")
        order = np.argsort(xs)
        xs, ps = xs[order], ps[order]
        if np.any(np.diff(xs) == 0):
            raise ValueError("support points must be distinct")
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ps", tuple(ps))

    @classmethod
    def from_sample(cls, sample) -> "Discrete":
        xs, counts = np.unique(np.asarray(sample, dtype=float), return_counts=True)
        return cls(tuple(xs), tuple(counts / counts.sum()))

    @classmethod
    def point(cls, x: float) -> "Discrete":
        return cls((x,), (1.0,))

    def _arrays(self):
        return np.asarray(self.xs), np.asarray(self.ps)

    def cdf(self, y):
        xs, ps = self._arrays()
        y = np.asarray(y, dtype=float)
        return (xs[:, None] <= y[None, :]).T @ ps if y.ndim else float(
            ps[xs <= y].sum())

    def iterated(self, n, ys):
        xs, ps = self._arrays()
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if n == 1:
            out = (xs[None, :] <= ys[:, None]) @ ps
        else:
            gap = np.clip(ys[:, None] - xs[None, :], 0.0, None)
            out = gap ** (n - 1) @ ps / math.factorial(n - 1)
        return out

    def laplace(self, z):
        xs, ps = self._arrays()
        z = np.asarray(z, dtype=float)
        if z.ndim == 0:
            return float(np.dot(ps, np.exp(-float(z) * xs)))
        return np.exp(-z[:, None] * xs[None, :]) @ ps

    def mean(self):
        xs, ps = self._arrays()
        return float(np.dot(xs, ps))

    def expectation(self, fn):
        xs, ps = self._arrays()
        return float(ps @ fn(xs))

    def quantile_knots(self, count=0):
        return np.asarray(self.xs)

    def to_dict(self):
        return {"kind": "discrete", "x": list(self.xs), "p": list(self.ps)}


@dataclass(frozen=True)
class Lognormal(Distribution):
    m: float
    s2: float

    def __post_init__(self):
        if self.s2 <= 0:
            raise ValueError("log-variance must be positive")

    @property
    def s(self):
        return math.sqrt(self.s2)

    def pdf(self, y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                y > 0,
                np.exp(-((np.log(np.where(y > 0, y, 1.0)) - self.m) ** 2)
                       / (2 * self.s2)) / (np.where(y > 0, y, 1.0)
                                           * self.s * math.sqrt(2 * math.pi)),
                0.0,
            )
        return out

    def cdf(self, y):
        y = np.asarray(y, dtype=float)
        out = np.where(y > 0, ndtr(self._score(y)), 0.0)
        return float(out) if out.ndim == 0 else out

    def _score(self, y):
        """(ln y - m) / s, with y <= 0 mapped to y = 1."""
        return (np.log(np.where(y > 0, y, 1.0)) - self.m) / self.s

    def iterated(self, n, ys):
        """Closed form of E[(y - xi)_+^(n-1)] / (n-1)!: with d = (ln y - m)/s,

            F_n(y) = sum_k C(n-1,k) (-1)**k y**(n-1-k) e^(km + k^2 s^2/2)
                     Phi(d - ks) / (n-1)!,

        each term assembled in log space so wide laws cannot overflow.
        """
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if n == 1:
            return np.asarray(self.cdf(ys))
        k = np.arange(n)
        signs = np.array([(-1.0) ** j * math.comb(n - 1, j) for j in k])
        logy = np.log(np.where(ys > 0, ys, 1.0))[:, None]
        logs = ((n - 1 - k) * logy + k * self.m + k**2 * self.s2 / 2.0
                + log_ndtr(self._score(ys)[:, None] - k * self.s))
        out = np.exp(logs) @ signs / math.factorial(n - 1)
        return np.where(ys > 0, out, 0.0)

    def rule(self, probe) -> QuadratureRule:
        """Gauss-Hermite rule for E[probe(xi)], doubled from MIN_NODES nodes.

        ``probe`` maps the outcome array to per-outcome values (one row per
        outcome, any trailing shape).  The node count doubles until every
        component of the expectation moves by at most 1e-10 * (1 + |value|)
        or some component is non-finite; the caller decides what a
        non-finite expectation means.  Raises QuadratureFailure if
        MAX_NODES nodes do not settle it.
        """
        prev = None
        nodes = MIN_NODES
        while True:
            t, w = _hermite_rule(nodes)
            # a non-finite value is returned or raised below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                xi = np.exp(self.m + self.s * math.sqrt(2.0) * t)
                val = w @ probe(xi)
            settled = prev is not None and np.all(
                np.abs(val - prev) <= 1e-10 * (1.0 + np.abs(val)))
            if settled or not np.all(np.isfinite(val)):
                return QuadratureRule(xi, w, val)
            if nodes >= MAX_NODES:
                raise QuadratureFailure(
                    f"Gauss-Hermite expectation unsettled at {nodes} nodes")
            prev = val
            nodes *= 2

    def laplace(self, z):
        z = np.asarray(z, dtype=float)
        val = self.rule(lambda xi: np.exp(-np.multiply.outer(xi, z))).value
        return float(val) if z.ndim == 0 else val

    def mean(self):
        return math.exp(self.m + self.s2 / 2.0)

    def expectation(self, fn):
        return float(self.rule(fn).value)

    def quantile_knots(self, count=33):
        us = np.linspace(1e-6, 1.0 - 1e-6, count)
        return np.exp(self.m + self.s * ndtri(us))

    def to_dict(self):
        return {"kind": "lognormal", "m": self.m, "s2": self.s2}


def iterated_cdf(d: Distribution, n: int, y: float) -> float:
    """n-fold iterated CDF F_n(y); F_1 is the CDF itself."""
    if n < 1 or n != int(n):
        raise ValueError("n must be an integer >= 1")
    if y < 0:
        return 0.0
    return float(d.iterated(int(n), [y])[0])


@dataclass(frozen=True)
class DominanceVerdict:
    dominates: bool
    witness: Optional[float]
    order: float

    def __bool__(self):
        return self.dominates

    def to_dict(self):
        return {
            "verdict": "dominates" if self.dominates else "violated",
            "order": "inf" if self.order == math.inf else int(self.order),
            "witness": self.witness,
        }


def _tol(a, b):
    """Tie tolerance between two values, elementwise."""
    return ABS_TOL + REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _discrete_pair_violation(F: Discrete, G: Discrete, n: int):
    """Leftmost point found where G_n - F_n falls below the tie tolerance.

    On each knot interval, d/dy F_m = F_(m-1) makes F_n a polynomial with
    the exact local expansion F_n(k + t) = sum_(r<n) F_(n-r)(k) t**r / r!,
    so the knots, the interior minima of each interval and the sign of the
    highest non-tied coefficient past the last knot decide the verdict.
    """
    knots = np.unique(np.concatenate([F.xs, G.xs, [0.0]]))
    # row r: F_(n-r) and G_(n-r) at every knot
    f = np.array([F.iterated(n - r, knots) for r in range(n)])
    g = np.array([G.iterated(n - r, knots) for r in range(n)])
    fac = np.array([float(math.factorial(r)) for r in range(n)])[:, None]
    gc, dc = g / fac, (g - f) / fac
    bad = dc[0] < -_tol(g[0], f[0])
    if bad.any():
        return float(knots[np.argmax(bad)])
    if n >= 3:
        for j, width in enumerate(np.diff(knots, append=math.inf)):
            roots = polyroots(polyder(dc[:, j]))
            ts = np.sort(roots.real[(np.abs(roots.imag) < 1e-12)
                                    & (roots.real > 0) & (roots.real < width)])
            dval, gval = polyval(ts, dc[:, j]), polyval(ts, gc[:, j])
            bad = dval < -_tol(gval, gval - dval)
            if bad.any():
                return float(knots[j] + ts[np.argmax(bad)])
    # past the last knot the highest-degree coefficient that is not a tie
    # of its own two iterated-CDF values decides the sign
    last_f, last_g = f[:, -1], g[:, -1]
    lead = np.flatnonzero(np.abs(last_g - last_f) > _tol(last_g, last_f))
    if lead.size and dc[lead[-1], -1] < 0:
        y = knots[-1] + 1.0
        while polyval(y - knots[-1], dc[:, -1]) >= -ABS_TOL:
            y *= 2.0
        return float(y)
    return None


def _refined_witness(grids, values, slack):
    """Leftmost grid point where F's values exceed G's by more than slack.

    ``values(grid)`` returns the pair (f, g) on each successively finer grid
    and ``slack(f, g)`` the tie tolerance.  Refinement stops once the
    verdict has held across two refinements, or when the grids run out.
    A non-finite value fails the comparison, so it can never pass as
    dominance; if it is the leftmost failure, QuadratureFailure is raised
    instead of a witness.
    """
    prev_ok, stable = None, 0
    for grid in grids:
        f, g = values(grid)
        bad = ~(f <= g + slack(f, g))
        witness = None
        if bad.any():
            i = np.argmax(bad)
            if not (np.isfinite(f[i]) and np.isfinite(g[i])):
                raise QuadratureFailure(f"non-finite value at {grid[i]:g}")
            witness = float(grid[i])
        ok = witness is None
        if ok == prev_ok:
            stable += 1
            if stable >= 2:
                break
        else:
            stable = 0
        prev_ok = ok
    return witness


def _grid_violation(F: Distribution, G: Distribution, n: int):
    base = np.unique(np.concatenate(
        [F.quantile_knots(65), G.quantile_knots(65), [0.0]]))
    lo = max(np.min(base[base > 0], initial=1e-6) / 2.0, 1e-9)
    hi = float(np.max(base)) * 1.5 + 1.0
    grids = (np.unique(np.concatenate([base, np.geomspace(lo, hi, points)]))
             for points in (129 << i for i in range(5)))
    return _refined_witness(
        grids, lambda grid: (F.iterated(n, grid), G.iterated(n, grid)),
        _tol)


def dominates_n(F: Distribution, G: Distribution, n: int) -> DominanceVerdict:
    """Does F dominate G at order n, i.e. F_n <= G_n everywhere?

    For discrete pairs with n >= 2 the comparison is exact piecewise
    polynomial analysis including interior minima; mixed kinds fall back to
    a refined grid whose verdict must be stable across two refinements.
    Ties within tolerance count as dominance.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be an integer >= 1")
    n = int(n)
    if isinstance(F, Discrete) and isinstance(G, Discrete):
        witness = _discrete_pair_violation(F, G, n)
    else:
        witness = _grid_violation(F, G, n)
    return DominanceVerdict(witness is None, witness, n)


def _read_only(a):
    a.flags.writeable = False
    return a


# the refinement schedule of dominates_inf: 200 log-spaced rates, doubled
_ZGRIDS = tuple(_read_only(np.geomspace(*Z_RANGE, 200 << i)) for i in range(6))


def dominates_inf(F: Distribution, G: Distribution) -> DominanceVerdict:
    """Does F dominate G at infinite order: E[e^-z xi_F] <= E[e^-z xi_G] for z > 0?

    Compared pointwise on a log-spaced grid over Z_RANGE with relative
    tolerance 1e-10; the grid is doubled until the verdict is stable across
    two refinements.
    """
    witness = _refined_witness(
        _ZGRIDS, lambda zs: (np.asarray(F.laplace(zs)), np.asarray(G.laplace(zs))),
        lambda f, g: 1e-10 * np.maximum(f, g) + 1e-300)
    return DominanceVerdict(witness is None, witness, math.inf)


class FubiniCheck(NamedTuple):
    lhs: float
    rhs: float
    gap: float


def _value_with_zero_extension(W: DnFunction, xs: np.ndarray) -> np.ndarray:
    """W on an outcome array, read at 0 as W(0+)."""
    vals = W.value(np.where(xs > 0, xs, 1e-8))
    return vals if W.exact is None else np.where(xs > 0, vals, W.exact(0, 0.0))


def expectation_vs_iterated(d: Distribution, W: DnFunction,
                            n: Optional[int] = None) -> FubiniCheck:
    """Compare E[W(xi)] with the iterated-CDF integral representation

        E[W(xi)] = W(inf) + int_0^inf (-1)**n W^(n)(t) F_n(t) dt,

    valid for W of order n bounded below.  Returns (lhs, rhs, |gap|) and the
    contract |gap| <= 1e-6 * (1 + |lhs|) is asserted by the caller's tests.
    """
    from scipy import integrate
    if n is None:
        if W.order == math.inf:
            raise ValueError("pass n explicitly for infinite-order W")
        n = int(W.order)
    lhs = d.expectation(lambda xs: _value_with_zero_extension(W, xs))
    w_inf = W.value_at_infinity()

    def integrand(t):
        return (-1.0) ** n * W.derivative(n, t) * float(d.iterated(n, [t])[0])

    knots = [k for k in d.quantile_knots(17) if k > 0]
    pieces = [0.0] + sorted(knots)
    total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        val, err = integrate.quad(integrand, a, b, epsabs=1e-10, epsrel=1e-10,
                                  limit=200)
        total += val
    tail, err = integrate.quad(integrand, pieces[-1], math.inf,
                               epsabs=1e-10, epsrel=1e-10, limit=200)
    if not math.isfinite(tail) or not math.isfinite(total):
        raise QuadratureFailure("iterated-CDF integral did not converge")
    rhs = w_inf + total + tail
    return FubiniCheck(lhs, rhs, abs(lhs - rhs))


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    tested: int
    counterexample: Optional[dict] = None

    def __bool__(self):
        return self.ok


def test_function_audit(F: Distribution, G: Distribution, order: float,
                        family_size: int = 100, seed: int = 0) -> AuditReport:
    """Cross-examine a dominance verdict with sampled decreasing test functions.

    Exponentials exp(-z*y) are sampled log-uniformly on Z_RANGE; for
    finite order, positive mixtures whose n-th derivative is
    sum_j c_j exp(-z_j t) (up to sign) are added.  The dominant law must give
    the smaller expectation for every sampled function; the first failure is
    returned as a counterexample.
    """
    rng = np.random.default_rng(seed)
    lo, hi = math.log(Z_RANGE[0]), math.log(Z_RANGE[1])
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
        if ef > eg + _tol(ef, eg):
            return AuditReport(False, tested, {
                "rates": zs.tolist(),
                "weights": weights.tolist(),
                "lhs": ef,
                "rhs": eg,
            })
    return AuditReport(True, tested)
