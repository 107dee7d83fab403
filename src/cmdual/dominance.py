"""Laws of nonnegative random variables and stochastic dominance tests.

A law is either a finite discrete distribution or a lognormal; empirical
samples enter as discrete laws with equal weights.  Order-n dominance
compares n-fold iterated CDFs pointwise, infinite-order dominance compares
Laplace transforms on a z-grid (for discrete laws also the exact signs of
their difference as z -> 0+ and z -> inf), two lognormals are decided at
either in closed form, and verdicts can be cross-examined against sampled
families of decreasing test functions.  Both orders are
decided for a whole rectangle of row and column laws at once, each law
evaluated once; a single pair is the one-by-one rectangle.  The audit
likewise draws its whole family first and evaluates each law's Laplace
transform once, on all the family's rates, each function's rates settling
on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from . import _special as special
from .cmcalc import DnFunction
from .errors import QuadratureFailure

__all__ = [
    "Distribution",
    "Discrete",
    "Lognormal",
    "iterated_cdf",
    "dominates_n",
    "dominates_inf",
    "discrete_witness_table",
    "laplace_witness_table",
    "laplace_end_violated",
    "second_order_settled",
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


def _read_only(a):
    a.flags.writeable = False
    return a


# the first zeros of the Airy function Ai, where its asymptotic series is
# not yet accurate to 1e-9 (Abramowitz & Stegun, table 10.13)
_AIRY_ZEROS = (-2.338107410459767, -4.087949444130971, -5.520559828095551)


def _airy_zeros(count: int) -> np.ndarray:
    """The first ``count`` zeros a_1 > a_2 > ... of Ai: the table, then
    a_k = -T(3 pi (4k - 1)/8) from T's asymptotic series (DLMF 9.9.18)."""
    t = 3.0 * math.pi / 8.0 * (4.0 * np.arange(1, count + 1) - 1.0)
    u = t**-2.0
    a = -t ** (2.0 / 3.0) * (1.0 + u * (5.0 / 48.0 + u * (-5.0 / 36.0 + u * (
        77125.0 / 82944.0 - u * 108056875.0 / 6967296.0))))
    head = min(count, len(_AIRY_ZEROS))
    a[:head] = _AIRY_ZEROS[:head]
    return a


def _hermite_guesses(n: int) -> np.ndarray:
    """The nonnegative zeros of H_n, ascending, to about 1e-7: Tricomi's
    asymptotic form in the bulk and Gatteschi's near sqrt(2n), split where
    Townsend, Trogdon & Olver (IMA J. Numer. Anal. 36, 2016) split them."""
    half, nu = n // 2, 2.0 * n + 1.0
    split = max(0, round(0.49082003 * n - 4.37859653) + 1)
    # Tricomi: tau - sin(tau) = c, by Newton from pi/2
    c = (4.0 * (half - np.arange(1, split + 1)) + 3.0) * math.pi / nu
    tau = np.full(split, math.pi / 2.0)
    for _ in range(8):
        tau -= (tau - np.sin(tau) - c) / (1.0 - np.cos(tau))
    s = np.cos(tau / 2.0) ** 2
    bulk = nu * s - (5.0 / (4.0 * (1.0 - s) ** 2) - 1.0 / (1.0 - s)
                     - 0.25) / (3.0 * nu)
    a, r = _airy_zeros(half - split)[::-1], nu ** (1.0 / 3.0)
    edge = (nu + 2.0 ** (2.0 / 3.0) * a * r + 0.2 * 2.0 ** (4.0 / 3.0) * a**2 / r
            + (9.0 / 140.0 - 12.0 / 175.0 * a**3) / nu
            + (16.0 / 1575.0 * a + 92.0 / 7875.0 * a**4) * 2.0 ** (2.0 / 3.0) / r**5
            - (15152.0 / 3031875.0 * a**5 + 1088.0 / 121275.0 * a**2)
            * 2.0 ** (1.0 / 3.0) / r**7)
    x = np.sqrt(np.concatenate([bulk, edge]))
    return np.concatenate([[0.0], x]) if n % 2 else x


def _hermite_recurrence(n: int, y: np.ndarray):
    """He_n(y) 2**-e, He_(n-1)(y) 2**-e and e, elementwise, from
    He_(k+1) = y He_k - k He_(k-1); every 16 steps both are scaled by a
    power of two, exactly, so the recurrence never overflows."""
    prev, cur, buf = np.zeros_like(y), np.ones_like(y), np.empty_like(y)
    e = np.zeros(y.shape, dtype=int)
    for k in range(n):
        prev *= -k
        prev += np.multiply(y, cur, out=buf)
        prev, cur = cur, prev
        if k % 16 == 15:
            s = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            cur, prev = np.ldexp(cur, -s), np.ldexp(prev, -s)
            e += s
    return cur, prev, e


@lru_cache(maxsize=None)
def _hermite_rule(n: int):
    """n-point Gauss-Hermite nodes, ascending, and weights summing to 1,
    built on first use and read-only.

    The nonnegative nodes start from ``_hermite_guesses`` and take Newton
    steps on the recurrence of He_k(y), y = sqrt(2) x, the orthonormal
    Hermite polynomials up to a constant per degree, until every step is
    below 1e-14 (1 + y): two or three steps at 64-4096 nodes, O(n**2)
    work in all, with no eigensolve.  The weights are Christoffel's
    1/sum_k p_k(x)**2 = 1/(n p_(n-1)(x)**2) at each node (Golub & Welsch,
    Math. Comp. 23, 1969): 1/He_(n-1)**2 from the last step, its power-of-
    two scale put back exactly, normalised to sum 1.  Far enough out they
    underflow to 0, as exp(-x**2) does.  Against a 40-digit mpmath Newton
    polish the nodes are within 1e-15 (1 + |x|) and the normal weights
    within 1e-12 relative; a settled lognormal moment E[Y**q] is within
    2e-14 relative of exp(qm + q**2 s**2/2) (tests/test_dominance.py).
    A rule costs about 1 ms at 64 nodes, 1.6 ms at 128, 17 ms at 2048 and
    56 ms at 4096 (one thread, 2-vCPU container).
    """
    y = math.sqrt(2.0) * _hermite_guesses(n)
    for _ in range(8):
        he, he_prev, e = _hermite_recurrence(n, y)
        step = he / (n * he_prev)
        y -= step
        if np.all(np.abs(step) <= 1e-14 * (1.0 + y)):
            break
    else:
        raise QuadratureFailure(f"{n} Gauss-Hermite nodes did not converge")
    w = np.ldexp(1.0 / he_prev**2, 2 * (e.min() - e))
    x = y / math.sqrt(2.0)
    t = np.concatenate([-x[::-1], x[n % 2:]])
    w = np.concatenate([w[::-1], w[n % 2:]])
    return _read_only(t), _read_only(w / w.sum())


class QuadratureRule(NamedTuple):
    """Outcomes, their weights, and the probe expectation they settled on."""

    nodes: np.ndarray
    weights: np.ndarray
    value: np.ndarray


class Distribution:
    """Law of a nonnegative random variable."""

    def iterated(self, n, ys):
        raise NotImplementedError

    def laplace(self, z, groups=None):
        """E[exp(-z*xi)]; ``groups`` labels the entries of a 1-d ``z`` that
        a quadrature may settle group by group (an exact law ignores it)."""
        raise NotImplementedError

    def mean(self):
        raise NotImplementedError

    def rule(self, probe) -> QuadratureRule:
        """Outcomes and weights for E[probe(xi)], and that expectation."""
        raise NotImplementedError

    def expectation(self, fn):
        """E[fn(xi)]; ``fn`` maps an outcome array to per-outcome values."""
        return float(self.rule(fn).value)

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
        self._check(xs, ps)
        order = np.argsort(xs)
        xs, ps = xs[order], ps[order]
        if np.any(np.diff(xs) == 0):
            raise ValueError("support points must be distinct")
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ps", tuple(ps))
        # the same values as arrays, converted once for every evaluation
        object.__setattr__(self, "_xp", (_read_only(xs), _read_only(ps)))

    @staticmethod
    def _check(xs, ps):
        if xs.ndim != 1 or xs.shape != ps.shape or xs.size == 0:
            raise ValueError("support and probabilities must match and be nonempty")
        # written so that a NaN fails each check
        if not np.all(np.isfinite(xs) & (xs >= 0)):
            raise ValueError("support must lie in [0, inf)")
        if not np.all(ps > 0):
            raise ValueError("probabilities must be strictly positive")
        if not abs(ps.sum() - 1.0) <= 1e-12:
            raise ValueError("probabilities must sum to 1 within 1e-12")

    @classmethod
    def _sorted_rows(cls, xs, ps, bounds) -> list["Discrete"]:
        """The law of each slice ``xs[a:b]`` (ascending and distinct) and
        ``ps[a:b]`` of float arrays, for consecutive a, b in ``bounds``,
        not re-sorted.  They are checked as the constructor checks each in
        turn: one pass over all atoms, and if it fails, the first law that
        fails its own check raises."""
        edges = list(zip(bounds, bounds[1:]))
        if not ((np.isfinite(xs) & (xs >= 0) & (ps > 0)).all()
                and all(b > a and abs(ps[a:b].sum() - 1.0) <= 1e-12
                        for a, b in edges)):
            for a, b in edges:
                cls._check(xs[a:b], ps[a:b])
        xs.flags.writeable = ps.flags.writeable = False
        xl, pl, laws = xs.tolist(), ps.tolist(), []
        for a, b in edges:
            law = object.__new__(cls)
            object.__setattr__(law, "xs", tuple(xl[a:b]))
            object.__setattr__(law, "ps", tuple(pl[a:b]))
            object.__setattr__(law, "_xp", (xs[a:b], ps[a:b]))
            laws.append(law)
        return laws

    @classmethod
    def from_sample(cls, sample) -> "Discrete":
        xs, counts = np.unique(np.asarray(sample, dtype=float), return_counts=True)
        return cls(tuple(xs), tuple(counts / counts.sum()))

    @classmethod
    def point(cls, x: float) -> "Discrete":
        return cls((x,), (1.0,))

    def iterated(self, n, ys):
        """F_n at ``ys``; for a sequence of orders, one row per order."""
        xs, ps = self._xp
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        gap = np.maximum(ys[:, None] - xs[None, :], 0.0)
        single = np.isscalar(n)
        rows = [gap ** (m - 1) @ ps / math.factorial(m - 1) if m > 1
                else (xs[None, :] <= ys[:, None]) @ ps for m in ([n] if single else n)]
        return rows[0] if single else np.array(rows)

    def laplace(self, z, groups=None):
        xs, ps = self._xp
        z = np.asarray(z, dtype=float)
        val = np.exp(-np.multiply.outer(z, xs)) @ ps
        return float(val) if z.ndim == 0 else val

    def mean(self):
        xs, ps = self._xp
        return float(np.dot(xs, ps))

    def rule(self, probe) -> QuadratureRule:
        xs, ps = self._xp
        return QuadratureRule(xs, ps, ps @ probe(xs))

    def quantile_knots(self, count=0):
        return np.asarray(self.xs)

    def to_dict(self):
        return {"kind": "discrete", "x": list(self.xs), "p": list(self.ps)}


@dataclass(frozen=True)
class Lognormal(Distribution):
    m: float
    s2: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and 0 < self.s2 < math.inf):
            raise ValueError("log-mean must be finite, log-variance positive")

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
            return np.where(ys > 0, special.ndtr(self._score(ys)), 0.0)
        k = np.arange(n)
        signs = np.array([(-1.0) ** j * math.comb(n - 1, j) for j in k])
        logy = np.log(np.where(ys > 0, ys, 1.0))[:, None]
        logs = ((n - 1 - k) * logy + k * self.m + k**2 * self.s2 / 2.0
                + special.log_ndtr(self._score(ys)[:, None] - k * self.s))
        out = np.exp(logs) @ signs / math.factorial(n - 1)
        return np.where(ys > 0, out, 0.0)

    def rule(self, probe, groups=None) -> QuadratureRule:
        """Gauss-Hermite rule for E[probe(xi)], doubled from MIN_NODES nodes.

        ``probe`` maps the outcome array to per-outcome values (one row per
        outcome, any trailing shape).  The node count doubles until every
        component of the expectation moves by at most 1e-10 * (1 + |value|)
        or some component is non-finite; the caller decides what a
        non-finite expectation means.  Raises QuadratureFailure if
        MAX_NODES nodes do not settle it.

        ``groups`` labels each component of a 1-d expectation with an
        integer group, and each group then stops on its own: at the
        doubling where all its components settle or one turns non-finite,
        which is where a rule on that group alone would stop.  The probe is
        called as ``probe(xi, cols)`` for the components ``cols`` of the
        groups still open, a group MAX_NODES nodes do not settle reads NaN
        instead of raising, and the nodes and weights returned are the last
        ones used.
        """
        cols = out = prev = None
        if groups is not None:
            # a NaN previous value settles nothing
            cols, prev = np.arange(len(groups)), np.full(len(groups), np.nan)
            out = np.full(len(groups), np.nan)
        nodes = MIN_NODES
        while True:
            t, w = _hermite_rule(nodes)
            # a non-finite value is returned or raised below, not warned about
            with np.errstate(over="ignore", invalid="ignore"):
                xi = np.exp(self.m + self.s * math.sqrt(2.0) * t)
                val = w @ (probe(xi) if cols is None else probe(xi, cols))
            settled = prev is not None and (
                np.abs(val - prev) <= 1e-10 * (1.0 + np.abs(val)))
            if cols is None:
                if np.all(settled) or not np.all(np.isfinite(val)):
                    return QuadratureRule(xi, w, val)
            else:
                label, count = groups[cols], len(groups)
                done = ((np.bincount(label, ~settled, count) == 0)
                        | (np.bincount(label, ~np.isfinite(val), count) > 0))
                stop = done[label]
                out[cols[stop]] = val[stop]
                cols, val = cols[~stop], val[~stop]
                if cols.size == 0:
                    return QuadratureRule(xi, w, out)
            if nodes >= MAX_NODES:
                if cols is None:
                    raise QuadratureFailure(
                        f"Gauss-Hermite expectation unsettled at {nodes} nodes")
                return QuadratureRule(xi, w, out)
            prev = val
            nodes *= 2

    def laplace(self, z, groups=None):
        """E[exp(-z*xi)]; ``groups`` settles each group of the entries of a
        1-d ``z`` on its own (see ``rule``), NaN where MAX_NODES do not."""
        z = np.asarray(z, dtype=float)
        val = self.rule(
            lambda xi, cols=...: np.exp(-np.multiply.outer(xi, z[cols])),
            groups).value
        return float(val) if z.ndim == 0 else val

    def mean(self):
        return math.exp(self.m + self.s2 / 2.0)

    def quantile_knots(self, count=33):
        us = np.linspace(1e-6, 1.0 - 1e-6, count)
        return np.exp(self.m + self.s * special.ndtri(us))

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


def _tie(a, b):
    """REL_TOL of the larger magnitude of two compared values, elementwise."""
    return REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _tol(a, b):
    """The tie next to quadrature noise: the relative tie plus ABS_TOL."""
    return ABS_TOL + _tie(a, b)


def _verdict(witness: float, order: float) -> DominanceVerdict:
    """One pair's verdict from its witness, NaN where it dominates."""
    found = not np.isnan(witness)
    return DominanceVerdict(not found, float(witness) if found else None, order)


def _distinct(rows, cols):
    """The distinct law objects among ``rows`` and ``cols`` in order of first
    appearance, and the index among them of each row and each column law."""
    index = {}
    for law in (*rows, *cols):
        index.setdefault(id(law), (len(index), law))
    return ([law for _, law in index.values()],
            np.array([index[id(law)][0] for law in rows], dtype=int),
            np.array([index[id(law)][0] for law in cols], dtype=int))


def _horner(c, x):
    """sum_r c[..., r] x**r in polyval's operation order."""
    val = c[..., -1] + x * 0
    for r in range(c.shape[-1] - 2, -1, -1):
        val = c[..., r] + val * x
    return val


def _interior_witness(knots, mask, dc, gc):
    """Leftmost interior minimum of each pair p's sum_r dc[p, r, k] t**r, on
    the interval from its knot k (mask[p]: its knots) to its next, that
    falls below the relative tie of G's and F's values there (gc: G's
    coefficients); NaN if none.
    Only slopes that change sign have a root t > 0 (Descartes' rule of
    signs), and their roots are polyroots': each is trimmed of exactly-zero
    leading coefficients, and all slopes of one trimmed degree m share one
    eigensolve of polycompanion's m-by-m matrices (m = 1 needs none).
    """
    pair, k = np.nonzero(mask)
    slope = dc[pair, 1:, k] * np.arange(1, dc.shape[1])
    deg = np.where(slope != 0, np.arange(slope.shape[1]), 0).max(axis=1)
    deg[~((slope > 0).any(axis=1) & (slope < 0).any(axis=1))] = 0
    if not deg.any():
        return np.full(mask.shape[0], np.nan)
    start, width = knots[k], np.diff(knots[k], append=math.inf)
    width[np.diff(pair, append=-1) != 0] = math.inf  # each pair's last one
    c = np.stack((dc[pair, :, k], gc[pair, :, k]), axis=1)
    owner, ts = [np.zeros(0, dtype=int)], [np.zeros(0)]
    for m in sorted(set(deg.tolist()) - {0}):
        at = np.flatnonzero(deg == m)
        companion = np.zeros((at.size, m, m))
        companion[:, np.arange(1, m), np.arange(m - 1)] = 1
        companion[:, :, -1] -= slope[at, :m] / slope[at, m:m + 1]
        roots = companion[:, :, 0] if m == 1 else np.linalg.eigvals(companion)
        row, col = np.nonzero((np.abs(roots.imag) < 1e-12) & (roots.real > 0)
                              & (roots.real < width[at, None]))
        owner.append(at[row])
        ts.append(roots.real[row, col])
    owner, ts = np.concatenate(owner), np.concatenate(ts)
    dval, gval = _horner(c[owner], ts[:, None]).T
    bad = dval < -_tie(gval, gval - dval)
    # each pair's first bad root: its intervals in order, then the root
    order = np.lexsort((ts, owner, ~bad))[:np.count_nonzero(bad)]
    owner, ts = owner[order], ts[order]
    first = np.diff(pair[owner], prepend=-1) != 0
    out = np.full(mask.shape[0], np.nan)
    out[pair[owner[first]]] = start[owner[first]] + ts[first]
    return out


def discrete_witness_table(rows, cols, n: int) -> np.ndarray:
    """Leftmost point found where G_n - F_n falls below the relative tie of
    the two, for every row law F and column law G (all Discrete); NaN where
    F dominates G at order n.  Rescaling both laws scales every compared
    value and its tie alike, so it leaves every verdict unchanged.

    On each knot interval of a pair, d/dy F_m = F_(m-1) makes F_n a
    polynomial with the exact local expansion
    F_n(k + t) = sum_(r<n) F_(n-r)(k) t**r / r!, so the pair's knots (both
    laws' atoms and 0), the interior minima of its intervals and the sign of
    the highest non-tied coefficient past its last knot decide the verdict.
    Each law's F_1..F_n come from one call on the union of all knots.  For
    the whole rectangle at once, each pair masked to its own knots, the
    knots are checked, then every undecided pair's interior minima with one
    stacked eigensolve per slope degree over the slopes that change sign
    (their coefficients are G_m - F_m, m < n, at the knot: where F_1 <= G_1
    none does), then the tail.
    """
    laws, ri, ci = _distinct(rows, cols)
    sizes = [len(law.xs) for law in laws]
    knots, at = np.unique(np.concatenate([*(law._xp[0] for law in laws),
                                          [0.0]]), return_inverse=True)
    # tab[l, r]: F_(n-r) of law l at every knot; own[l]: law l's knots
    tab = np.array([law.iterated(range(n, 0, -1), knots) for law in laws])
    own = np.zeros((len(laws), knots.size), dtype=bool)
    own[np.repeat(np.arange(len(laws)), sizes), at[:-1]] = True
    own[:, 0] = True  # knot 0, the smallest, belongs to every pair
    top_knot = at[np.cumsum(sizes) - 1]  # each law's largest atom
    fac = np.array([float(math.factorial(r)) for r in range(n)])[:, None]
    # the knots: G_n - F_n is the r = 0 coefficient, as 0! = 1
    f, g = tab[ri, 0][:, None], tab[ci, 0][None]
    mask = own[ri][:, None] | own[ci][None]
    bad = (g - f < -_tie(g, f)) & mask
    out = np.where(bad.any(axis=2), knots[bad.argmax(axis=2)], np.nan)
    if n >= 3 and (open_ := np.isnan(out)).any():
        row, col = np.nonzero(open_)
        g = tab[ci[col]]
        out[open_] = _interior_witness(knots, mask[open_],
                                       (g - tab[ri[row]]) / fac, g / fac)
    # past a pair's last knot the highest-degree coefficient that is not a
    # tie of its own two iterated-CDF values decides the sign
    last = np.maximum.outer(top_knot[ri], top_knot[ci])
    last_f = tab[ri[:, None], :, last].reshape(-1, n)
    last_g = tab[ci[None, :], :, last].reshape(-1, n)
    rise = last_g - last_f
    lead = np.abs(rise) > _tie(last_g, last_f)
    top = n - 1 - lead[:, ::-1].argmax(axis=1)
    falls = lead.any(axis=1) & (rise[np.arange(top.size), top] < 0)
    # and a falling pair's witness starts at twice that knot, so it scales
    # with the laws, and doubles until its tail polynomial falls below the
    # tie of F's and G's tail values there, all three cut at that
    # coefficient, so the walk ends
    tail = np.flatnonzero(falls & np.isnan(out).ravel())
    end = knots[last.ravel()[tail]]
    coeffs = (np.stack((rise[tail], last_f[tail], last_g[tail]))
              * (np.arange(n) <= top[tail, None]) / fac[:, 0])
    y, walk = 2.0 * end, np.ones(tail.size, dtype=bool)
    while walk.any():
        d, fv, gv = _horner(coeffs[:, walk], y[walk] - end[walk])
        walk[walk] = d >= -_tie(gv, fv)
        y[walk] *= 2.0
    out.flat[tail] = y
    return out


def _refined_witness(grids, rows, cols, evaluate, slack) -> np.ndarray:
    """Leftmost grid point where a row law's values exceed a column law's by
    more than slack, for every row-column pair; NaN where there is none.

    ``evaluate(law, grid)`` gives a law's values on each successively finer
    grid and ``slack(f, g)`` the tie tolerance.  A pair stops refining once
    its verdict has held across two refinements, or when the grids run
    out; each grid evaluates every distinct law that still has an
    undecided pair once, and compares one row law at a time against the
    columns it is undecided with.  A non-finite value fails the
    comparison, so it can never pass as dominance; if it is a pair's
    leftmost failure, QuadratureFailure is raised instead of a witness.
    """
    laws, ri, ci = _distinct(rows, cols)
    ri, ci = ri.tolist(), ci.tolist()
    witness = np.full((len(ri), len(ci)), np.nan)
    # per pair: the verdict at the previous grid, and for how many
    # refinements it has held; per row: the columns still undecided
    ok = [[None] * len(ci) for _ in ri]
    held = [[0] * len(ci) for _ in ri]
    live = {i: list(range(len(ci))) for i in range(len(ri))}
    for grid in grids:
        values = {k: evaluate(laws[k], grid) for k in sorted(
            {ri[i] for i in live} | {ci[c] for cs in live.values() for c in cs})}
        blank = np.zeros(grid.size)  # a column law that no live pair reads
        table = np.array([values.get(k, blank) for k in ci])
        for i, cs in live.items():
            f = values[ri[i]]
            g = table if len(cs) == len(ci) else table[cs]
            bad = ~(f <= g + slack(f, g))
            for c, g_c, hit, j in zip(cs, g, bad.any(axis=1).tolist(),
                                      bad.argmax(axis=1).tolist()):
                if hit and not (np.isfinite(f[j]) and np.isfinite(g_c[j])):
                    raise QuadratureFailure(f"non-finite value at {grid[j]:g}")
                witness[i, c] = grid[j] if hit else np.nan
                held[i][c] = held[i][c] + 1 if ok[i][c] == (not hit) else 0
                ok[i][c] = not hit
        live = {i: kept for i, cs in live.items()
                if (kept := [c for c in cs if held[i][c] < 2])}
        if not live:
            break
    return witness


def _grid_violation(F: Distribution, G: Distribution, n: int) -> float:
    base = np.unique(np.concatenate(
        [F.quantile_knots(65), G.quantile_knots(65), [0.0]]))
    lo = max(np.min(base[base > 0], initial=1e-6) / 2.0, 1e-9)
    hi = float(np.max(base)) * 1.5 + 1.0
    grids = (np.unique(np.concatenate([base, np.geomspace(lo, hi, points)]))
             for points in (129 << i for i in range(5)))
    return _refined_witness(grids, [F], [G],
                            lambda law, grid: law.iterated(n, grid), _tol)[0, 0]


def _levy_dominates(F: Lognormal, G: Lognormal, order: float) -> bool:
    """Does lognormal F dominate lognormal G at ``order`` (math.inf: at
    infinite order)?  Exact, with no tolerance:

    - at order 1 iff s_F = s_G and m_F >= m_G;
    - at every order n >= 2 and at infinite order iff s_F <= s_G and
      m_F + s_F^2/2 >= m_G + s_G^2/2, i.e. E F >= E G; the sign of the
      fsum of the four terms is that of their exact sum.

    Order 1: F_1(y) = Phi((ln y - m_F)/s_F) and G_1 are normal CDFs of
    ln y, which cross unless s_F = s_G; with equal slopes F_1 <= G_1 iff
    m_F >= m_G.  Sufficiency from order 2 on: the conditions give order 2
    (H. Levy, "Stochastic dominance among log-normal prospects",
    International Economic Review 14, 1973), and order n implies order
    n + 1 and infinite order.  Necessity of E F >= E G: as y -> inf,
    G_n(y) - F_n(y) = (E F - E G) y^(n-2)/(n-2)! + O(y^(n-3)), and as
    z -> 0, (E e^-zG - E e^-zF)/z -> E F - E G.  Necessity of s_F <= s_G:
    if s_F > s_G the CDFs cross once, at
    y* = exp((m_F s_G - m_G s_F)/(s_G - s_F)), and F_1 > G_1 on (0, y*);
    integrating n - 1 times gives F_n > G_n on (0, y*] for every n.  At
    infinite order, E e^-zF - E e^-zG = int z e^-zy (F_1 - G_1)(y) dy.  Its
    integrand is positive on (0, y*), and G_1 <= F_1/2 near 0 since
    G_1/F_1 -> 0 there, so for z large (1/(2z), 1/z) alone adds at least
    e^-1 F_1(1/(2z)) / 4, which decays like exp(-(ln z)^2 / (2 s_F^2));
    past y* it loses at most e^(-z y*), so the difference is positive.
    """
    if order == 1:
        return F.s2 == G.s2 and F.m >= G.m
    return F.s2 <= G.s2 and math.fsum((F.m, F.s2 / 2, -G.m, -G.s2 / 2)) >= 0


def _lognormal_verdict(F: Lognormal, G: Lognormal,
                       order: float) -> DominanceVerdict:
    """The verdict of ``_levy_dominates``, with a witness where it fails.

    A dominating pair returns at once.  A violated pair's witness is the
    one the grid of a pair of any kinds finds (``_grid_violation``, or
    ``laplace_witness_table`` at infinite order).  Where it finds none, or
    fails, the violation lies below what the grid resolves.  At a finite
    order with s_F > s_G the witness is then y*/2, where F_n > G_n at every
    order (see ``_levy_dominates``).  At order 1 with s_F < s_G it is 2 y*:
    the scores (ln y - m)/s of F and G differ by a linear function of ln y
    with slope 1/s_F - 1/s_G > 0 that vanishes at y*, so F_1 > G_1 on all
    of (y*, inf).  Any other pair's verdict has no witness.
    """
    if _levy_dominates(F, G, order):
        return DominanceVerdict(True, None, order)
    try:
        witness = (laplace_witness_table([F], [G])[0, 0] if order == math.inf
                   else _grid_violation(F, G, order))
    except QuadratureFailure:
        witness = math.nan
    if (math.isnan(witness) and order != math.inf
            and (F.s > G.s or (order == 1 and F.s < G.s))):
        log_crossing = (F.m * G.s - G.m * F.s) / (G.s - F.s)
        # y*/2 and 2 y* positive finite doubles
        if -744.0 < log_crossing < 709.0:
            witness = math.exp(log_crossing) * (0.5 if F.s > G.s else 2.0)
    return DominanceVerdict(
        False, None if math.isnan(witness) else float(witness), order)


def dominates_n(F: Distribution, G: Distribution, n: int) -> DominanceVerdict:
    """Does F dominate G at order n, i.e. F_n <= G_n everywhere?

    For discrete pairs the comparison is exact piecewise polynomial
    analysis (``discrete_witness_table`` on one pair) including interior
    minima, sought only where the slope changes sign (no other slope has a
    positive root, by Descartes' rule of signs), and two lognormals are
    decided in closed form (``_levy_dominates``); mixed kinds fall back to a
    refined grid whose verdict must be stable across two refinements, and
    to a/2 where that finds no witness against a G whose lowest atom is
    a > 0.  Ties count as dominance: relative on the exact path, with the
    floor ABS_TOL added on the grid.
    """
    if n < 1 or n != int(n):
        raise ValueError("n must be an integer >= 1")
    n = int(n)
    if isinstance(F, Discrete) and isinstance(G, Discrete):
        return _verdict(discrete_witness_table([F], [G], n)[0, 0], n)
    if isinstance(F, Lognormal) and isinstance(G, Lognormal):
        return _lognormal_verdict(F, G, n)
    witness = _grid_violation(F, G, n)
    if math.isnan(witness) and isinstance(G, Discrete) and G.xs[0] > 0:
        # F, lognormal, has mass below G's lowest atom a, where G_n is 0
        witness = G.xs[0] / 2.0
    return _verdict(witness, n)


# the refinement schedule of dominates_inf: 200 log-spaced rates, doubled
_ZGRIDS = tuple(_read_only(np.geomspace(*Z_RANGE, 200 << i)) for i in range(6))


def laplace_witness_table(rows, cols) -> np.ndarray:
    """Leftmost rate z where E[e^-z xi_F] exceeds E[e^-z xi_G], for every
    row law F and column law G; NaN where F dominates G at infinite order.

    Compared pointwise on a log-spaced grid over Z_RANGE with relative
    tolerance 1e-10; each pair's grid is doubled until its verdict is stable
    across two refinements.
    """
    return _refined_witness(
        _ZGRIDS, rows, cols, lambda law, zs: law.laplace(zs),
        lambda f, g: 1e-10 * np.maximum(f, g) + 1e-300)


def laplace_end_violated(F: Discrete, G: Discrete) -> bool:
    """Does d(z) = E[e^-z xi_G] - E[e^-z xi_F] have the wrong sign at an
    end of z > 0, so that F cannot dominate G at infinite order?  Exact,
    with each comparison tied at REL_TOL of the larger of its two values:

    - as z -> 0+, d(z) = z (E F - E G) + O(z^2), so E F < E G fails;
    - as z -> inf, the lowest atom x where F's and G's masses p and q
      differ decides, d(z) = (q - p) e^(-z x) (1 + o(1)), so p > q fails.
    """
    mean_f, mean_g = F.mean(), G.mean()
    if mean_g - mean_f > REL_TOL * max(mean_f, mean_g):
        return True
    for x, p, y, q in zip(F.xs, F.ps, G.xs, G.ps):
        if x != y:  # the lower atom has the other law's mass 0
            return bool(x < y)
        if p != q:
            return bool(p - q > REL_TOL * max(p, q))
    return len(F.xs) > len(G.xs)


def second_order_settled(rows, cols) -> np.ndarray:
    """Does each row law dominate each column law (all Discrete) at order 2,
    and so at infinite order: E[e^-z xi_F] = z^2 int_0^inf e^-zy F_2(y) dy?"""
    return np.isnan(discrete_witness_table(rows, cols, 2))


def dominates_inf(F: Distribution, G: Distribution) -> DominanceVerdict:
    """Does F dominate G at infinite order: E[e^-z xi_F] <= E[e^-z xi_G] for z > 0?

    ``laplace_witness_table`` on one pair; two lognormals are decided in
    closed form (``_levy_dominates``), and the table only finds the
    witness of a violated one.  A discrete pair dominating at order 2 needs
    no grid (``second_order_settled``); one the grid finds no witness for is
    still violated, with no witness, where ``laplace_end_violated`` says so:
    the violation lies outside Z_RANGE or below its tie.
    """
    if isinstance(F, Lognormal) and isinstance(G, Lognormal):
        return _lognormal_verdict(F, G, math.inf)
    discrete = isinstance(F, Discrete) and isinstance(G, Discrete)
    if discrete and second_order_settled([F], [G])[0, 0]:
        return DominanceVerdict(True, None, math.inf)
    witness = laplace_witness_table([F], [G])[0, 0]
    if math.isnan(witness) and discrete and laplace_end_violated(F, G):
        return DominanceVerdict(False, None, math.inf)
    return _verdict(witness, math.inf)


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

    The whole family is drawn first, then each law's Laplace transform is
    evaluated once, on all the family's rates, with each function's rates
    settling on their own (``Lognormal.rule``'s groups): the values a call
    per function would give.  The functions are then checked in draw order.
    At the audit's finite positive rates a Laplace value is finite, so a
    NaN marks a rate MAX_NODES nodes did not settle, and QuadratureFailure
    is raised when the check reaches the first function that uses one.
    """
    rng = np.random.default_rng(seed)
    lo, hi = math.log(Z_RANGE[0]), math.log(Z_RANGE[1])
    finite = order != math.inf
    n = int(order) if finite else None
    family = []
    for i in range(family_size):
        if finite and i % 2 == 1:
            j = rng.integers(2, 6)
            zs = np.exp(rng.uniform(lo, hi, size=j))
            cs = rng.uniform(0.1, 1.0, size=j)
            family.append((zs, cs / zs**n))
        else:
            family.append((np.array([math.exp(rng.uniform(lo, hi))]),
                           np.array([1.0])))
    if not family:
        return AuditReport(True, 0)
    sizes = np.array([zs.size for zs, _ in family])
    rates, weights = (np.concatenate(part) for part in zip(*family))
    groups = np.repeat(np.arange(len(family)), sizes)
    start = np.cumsum(sizes) - sizes
    ef, eg = (np.add.reduceat(weights * law.laplace(rates, groups), start)
              for law in (F, G))
    # a NaN fails the check too, so the first failure in draw order decides
    fail = ~(ef <= eg + _tol(ef, eg))
    if not fail.any():
        return AuditReport(True, len(family))
    i = int(fail.argmax())
    if np.isnan(ef[i]) or np.isnan(eg[i]):
        raise QuadratureFailure(
            f"Gauss-Hermite expectation unsettled at {MAX_NODES} nodes")
    zs, w = family[i]
    return AuditReport(False, i + 1, {
        "rates": zs.tolist(),
        "weights": w.tolist(),
        "lhs": float(ef[i]),
        "rhs": float(eg[i]),
    })
