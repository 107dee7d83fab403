"""Market models, value functions, optimizers, and their all-order derivatives.

The model enters only through the terminal law of the maximal deflator: the
dual value function is the expectation v(y) = E[V(y * Y)], its derivatives
are expectations of V^(n)(y Y) Y**n, and the orders a computation needs at
one y come from one ``conjugate_derivatives`` call on the outcome array (for
a measure-backed utility, one Laplace moment pass over every order).  The
primal marginal is the inverse of -v', whose log-log Newton takes v' and
v'' together at each iterate; the primal derivatives of every order are the
reverted Taylor series of -v' at u'(x), and the optimizer's derivatives the
outcome-wise composition of -V' with that series.  Measure recovery sums
the first n dual derivatives at n/z, the exact Post-Widder approximant of
the measure behind -v', and a finite one-period market type supports
enumerating the extreme points of its supermartingale-deflator set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

import numpy as np

from .dominance import (
    Discrete,
    Distribution,
    Lognormal,
    laplace_end_violated,
    laplace_witness_table,
    second_order_settled,
)
from .duality import UtilitySpec, invert_decreasing
from .errors import (
    DivergentMoment,
    DualInfinite,
    MomentUnderflow,
    NoRoot,
    OrderExceeded,
    PolytopeEmpty,
)
from .partitions import compose, revert

__all__ = [
    "MarketModel",
    "FiniteMarket",
    "ValueFunctionPair",
    "StateTable",
    "sd_equivalence_audit",
    "EquivalenceReport",
]


def merged_laws(values, probs) -> list[Discrete]:
    """Law of each row of the (V, S) array ``values`` on a finite space
    with state weights ``probs``, merging equal values in a row: one sort
    per row, then one weighted count over all rows' groups, which adds each
    group's weights in state order, as a count over one row would."""
    values = np.asarray(values, dtype=float)
    # a value past about 1e296 rounds to an infinite key, which the law's
    # own check then refuses
    with np.errstate(over="ignore"):
        keys = np.where(values != 0, np.round(values / 1e-12) * 1e-12, 0.0)
    rows, states = keys.shape
    # flat[v]: the flat indices of row v's states in key order
    flat = np.argsort(keys, axis=1) + states * np.arange(rows)[:, None]
    keys = keys.ravel()[flat]
    new = np.ones(keys.shape, dtype=bool)  # each group's first state
    new[:, 1:] = keys[:, 1:] != keys[:, :-1]
    group = np.empty(keys.size, dtype=int)
    group[flat.ravel()] = np.cumsum(new) - 1
    # a probs of the wrong length fails here, as a single row's weights do
    ps = np.bincount(group, weights=np.repeat(
        np.asarray(probs, dtype=float)[None], rows, axis=0).ravel())
    counts = new.sum(axis=1)
    bounds = [0, *np.cumsum(counts).tolist()]
    # each law normalised by its own sum, taken as numpy sums one row
    totals = [ps[a:b].sum() for a, b in zip(bounds, bounds[1:])]
    return Discrete._sorted_rows(keys[new], ps / np.repeat(totals, counts),
                                 bounds)


def merged_law(values, probs) -> Discrete:
    """Law of a random variable on a finite space, merging equal values."""
    return merged_laws([values], probs)[0]


@lru_cache(maxsize=None)
def _active_sets(rows: int, states: int) -> np.ndarray:
    """Every choice of ``states`` of ``rows`` constraints, one per row."""
    idx = np.array(list(combinations(range(rows), states)))
    idx.flags.writeable = False
    return idx


@dataclass(frozen=True)
class FiniteMarket:
    """One-period market: states with probabilities, one stock, zero rate."""

    probs: tuple[float, ...]
    payoffs: tuple[float, ...]
    s0: float = 1.0

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        s = np.asarray(self.payoffs, dtype=float)
        if p.shape != s.shape or p.ndim != 1 or p.size < 2:
            raise ValueError("need matching probabilities and payoffs, >= 2 states")
        # written so that a NaN fails each check
        if not (np.all(p > 0) and abs(p.sum() - 1.0) <= 1e-10):
            raise ValueError("probabilities must be positive and sum to 1")
        if not (np.all(np.isfinite(s) & (s >= 0)) and 0 < self.s0 < math.inf):
            raise ValueError("payoffs must be finite and nonnegative, s0 "
                             "finite and positive")

    def _arrays(self):
        return np.asarray(self.probs), np.asarray(self.payoffs)

    def deflator_constraints(self):
        """Rows (A, b) of the supermartingale-deflator polytope A y <= b.

        A terminal deflator value vector y >= 0 must satisfy
        E[(1 + H (S1 - S0)) Y] <= 1 for every admissible position H, which
        by linearity reduces to the extreme admissible positions (including
        the cash-only H = 0).  When one side of the position range is
        unbounded the corresponding constraint becomes E[(S1 - S0) Y] <= 0
        with the matching sign.
        """
        p, s = self._arrays()
        gap = s - self.s0
        smin, smax = float(np.min(s)), float(np.max(s))
        # y >= 0, cash, then the extreme long and short positions
        rows, rhs = [-np.eye(p.size), p], [0.0] * p.size + [1.0]
        if smin < self.s0:
            h_max = 1.0 / (self.s0 - smin)
            rows.append(p * (1.0 + h_max * gap))
        else:
            rows.append(p * gap)
        if smax > self.s0:
            h_min = -1.0 / (smax - self.s0)
            rows.append(p * (1.0 + h_min * gap))
        else:
            rows.append(p * -gap)
        rhs += [float(smin < self.s0), float(smax > self.s0)]
        return np.vstack(rows), np.array(rhs)

    def deflator_vertices(self) -> list[np.ndarray]:
        """Extreme points of the deflator polytope by active-set enumeration.

        An active set is regular when its rows, scaled to unit length and
        then its columns too, have a determinant of at least 1e-10, so that
        neither a small constraint nor a small state weight (whose state's
        deflator values are large) can mask it.  A solution is feasible
        within 1e-9, and entries below 1e-9 in size are 0.  Several active
        sets can solve to the same vertex up to rounding, so solutions equal
        on a grid of 1e-7 times the largest entry of each state (at least
        1e-7) are one vertex, kept in the order first found.
        """
        A, b = self.deflator_constraints()
        norms = np.linalg.norm(A, axis=1)
        idx = _active_sets(*A.shape)
        idx = idx[np.all(norms[idx] >= 1e-14, axis=1)]
        unit = A[idx] / norms[idx][..., None]
        scale = np.linalg.norm(unit, axis=1)
        # an exactly zero column leaves the determinant 0 at any scale
        unit /= np.where(scale > 0, scale, 1.0)[:, None, :]
        idx = idx[np.abs(np.linalg.det(unit)) >= 1e-10]
        ys = np.linalg.solve(A[idx], b[idx][..., None])
        ys = ys[np.all((A @ ys)[..., 0] <= b + 1e-9, axis=1), :, 0]
        if not ys.size:
            return []
        ys = np.where(np.abs(ys) < 1e-9, 0.0, ys)
        grid = 1e-7 * np.maximum(1.0, np.max(np.abs(ys), axis=0))
        keys = np.round(ys / grid) + 0.0
        order = np.lexsort(keys.T[::-1])
        first = np.diff(keys[order], axis=0, prepend=np.nan).any(axis=1)
        return list(ys[np.sort(order[first])])

    def contains_deflator(self, y) -> bool:
        """Whether y meets every deflator constraint within 1e-9."""
        A, b = self.deflator_constraints()
        return bool(np.all(A @ np.asarray(y, dtype=float) <= b + 1e-9))

    def has_positive_deflator(self, vertices=None) -> bool:
        """Some deflator is strictly positive in every state.

        The polytope is bounded, so the mean of its vertices lies in its
        relative interior: a positive deflator exists iff that mean is
        positive.  ``vertices`` are those of ``deflator_vertices()``.
        """
        if vertices is None:
            vertices = self.deflator_vertices()
        return bool(np.all(np.mean(vertices, axis=0) > 0.0))

    @classmethod
    def from_dict(cls, d):
        return cls(tuple(d["probs"]), tuple(d["payoffs"]), d.get("s0", 1.0))


@dataclass(frozen=True)
class MarketModel:
    """Market specified by the terminal law of its maximal deflator."""

    deflator_law: Distribution
    finite_market: Optional[FiniteMarket] = None

    def __post_init__(self):
        law = self.deflator_law
        if isinstance(law, Discrete) and any(x <= 0 for x in law.xs):
            raise ValueError("deflator law must be supported in (0, inf)")

    @classmethod
    def degenerate(cls) -> "MarketModel":
        return cls(Discrete.point(1.0))

    @classmethod
    def lognormal(cls, kappa: float) -> "MarketModel":
        """Deflator law exp(N(-kappa/2, kappa)): unit-mean lognormal."""
        if not 0 < kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        return cls(Lognormal(-kappa / 2.0, kappa))

    @classmethod
    def from_dict(cls, d: dict) -> "MarketModel":
        if "kappa" in d:
            return cls.lognormal(d["kappa"])
        if "deflator" in d:
            return cls(Distribution.from_dict(d["deflator"]))
        return cls(Distribution.from_dict(d))


@dataclass(frozen=True)
class StateTable:
    """Per-outcome values of a terminal random variable.

    For a discrete deflator law the outcomes are its states; for a lognormal
    law they are the fixed quadrature nodes.  ``expectation`` integrates a
    vector of per-outcome values against the weights.
    """

    deflator: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def expectation(self, values=None) -> float:
        vals = self.values if values is None else values
        return float(np.dot(self.weights, vals))


class ValueFunctionPair:
    """Dual/primal value functions bound to a utility and a market model.

    Every result depends on its arguments alone.  Three memos hold state:
    the Newton solutions of the primal marginal, keyed by exact argument,
    the powers Y**n of the outcomes, and a table {n: v^(n)(y)} at the last
    y evaluated (n = 0 for v itself), replaced when y moves, so each order
    read more than once at one y is computed once.  Every derivative enters
    the table through ``_fill``: the orders a computation needs at one y,
    from one conjugate call that fails as a whole.
    """

    def __init__(self, utility: UtilitySpec, model: MarketModel):
        self.utility = utility
        self.model = model
        self._marginal_cache: dict[float, float] = {}
        self._last: tuple = (None, {})  # (y, {n: v^(n)(y)}), replaced whole
        self._powers: dict[int, np.ndarray] = {}  # {n: Y**n}
        # a discrete law's states, or the nodes on which the dual probe
        # E[V(Y)] settles; a non-finite probe means the expectation diverges
        # and more nodes cannot help
        rule = model.deflator_law.rule(utility.conjugate)
        self._outcomes, self._weights = rule.nodes, rule.weights
        self._least = float(self._outcomes[0])  # the outcomes ascend

    # -- dual side -----------------------------------------------------------

    def _known_at(self, y) -> dict:
        """The table of v and its derivatives at y; a new y starts a new one.

        The point and its table are one attribute, so a table read for y
        holds values at y alone, whatever other calls interleave.
        """
        point, known = self._last
        if y != point:
            known = {}
            self._last = (y, known)
        return known

    def dual_value(self, y: float) -> float:
        """v(y) = E[V(y * Y_T)]."""
        if not y > 0:
            raise ValueError("y must be positive")
        known = self._known_at(y)
        out = known.get(0)
        if out is None:
            out = float(self._weights @ self.utility.conjugate(y * self._outcomes))
            if not math.isfinite(out):
                raise DualInfinite(f"dual expectation diverges at y={y}")
            known[0] = out
        return out

    def dual_derivative(self, n: int, y: float) -> float:
        """v^(n)(y) = E[V^(n)(y Y_T) Y_T**n]; sign alternates with n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if not y > 0:
            raise ValueError("y must be positive")
        if n > self.utility.max_order:
            raise OrderExceeded(f"conjugate offers order {self.utility.max_order}")
        return self._fill(y, (n,))[n]

    def _fill(self, y: float, orders) -> dict:
        """Put v^(n)(y) for each of ``orders`` up to ``max_order`` not yet
        known into the table, from one conjugate call that fails as a whole
        (raising what its lowest failing order would raise alone), and
        return the table; of the expectations, the finite ones go in and
        the lowest non-finite one raises DivergentMoment.  Y**n is kept."""
        known = self._known_at(y)
        top = self.utility.max_order
        need = [n for n in orders if n not in known and n <= top]
        if need:
            values = self.utility.conjugate_derivatives(
                need, y * self._outcomes)
            for n, vals in zip(need, values):
                power = self._powers.get(n)
                if power is None:
                    power = self._powers[n] = self._outcomes**n
                out = float(self._weights @ (vals * power))
                if math.isfinite(out):
                    known[n] = out
            if divergent := [n for n in need if n not in known]:
                raise DivergentMoment(f"derivative expectation diverges at "
                                      f"n={min(divergent)}, y={y}")
        return known

    def _newton(self, t: float):
        """-v'(t) and a reader of -v''(t) from one fill, or, for a conjugate
        of order 1, -v'(t) and a reader that raises OrderExceeded; a t whose
        products t * Y underflow to 0 is no root."""
        if t * self._least == 0.0:
            raise NoRoot("t * Y underflows")
        known = self._fill(t, (1, 2))
        second = known.get(2)
        if second is None:
            return -known[1], lambda: -self.dual_derivative(2, t)
        return -known[1], lambda: -second

    def dual_optimizer_derivative(self, n: int, y: float) -> StateTable:
        """Derivative in y of the dual optimizer y*Y_T: Y_T at n=1, 0 beyond."""
        if n < 1:
            raise ValueError("n must be >= 1")
        vals = self._outcomes.copy() if n == 1 else np.zeros_like(self._outcomes)
        return StateTable(self._outcomes, self._weights, vals)

    # -- primal side ----------------------------------------------------------

    def primal_marginal(self, x: float) -> float:
        """y = u'(x), the root of -v'(y) = x."""
        if not x > 0:
            raise ValueError("x must be positive")
        hit = self._marginal_cache.get(x)
        if hit is not None:
            return hit
        try:
            y = invert_decreasing(self._newton, x)
        except NoRoot:
            raise NoRoot(f"x={x} outside the range of -v'") from None
        if len(self._marginal_cache) < 4096:
            self._marginal_cache[x] = y
        return y

    def primal_value(self, x: float) -> float:
        """u(x) = v(y) + x*y at y = u'(x)."""
        y = self.primal_marginal(x)
        return self.dual_value(y) + x * y

    def primal_derivatives(self, n: int, x: float) -> list[float]:
        """[u'(x), u''(x), ..., u^(n)(x)] by reverting the series of -v'.

        u' is the inverse of -v', so the coefficients u^(j+1)(x)/j! are
        those of the inverse of -v' at y = u'(x), whose own coefficients
        are -v^(k+1)(y)/k! (``partitions.revert``).  The series of -v' is
        taken in the variable (y' - y)/2^e, 2^e the power of two just above
        y, so its coefficients stay near x in size and the scaling is exact;
        a -v^(k+1)(y) that underflows to 0 or a subnormal raises
        MomentUnderflow.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        y = self.primal_marginal(x)
        if n == 1:
            return [y]
        self._fill(y, range(2, n + 1))
        e = math.frexp(y)[1]
        a = [None]
        for k in range(1, n):
            c = -self.dual_derivative(k + 1, y)
            # v^(k+1) is strictly signed, so 0 or a subnormal, whose
            # digits are lost before the scaling, is an underflow
            if abs(c) < 2.2250738585072014e-308:
                raise MomentUnderflow(f"v^({k + 1})(y) underflows at y={y}")
            a.append(math.ldexp(c, k * e) / math.factorial(k))
        b = revert(a)
        return [y] + [math.ldexp(b[j] * math.factorial(j), e)
                      for j in range(1, n)]

    # -- optimizers ------------------------------------------------------------

    def optimizer_terminal(self, x: float) -> StateTable:
        """Optimal terminal wealth per outcome: X_T = -V'(u'(x) * Y_T)."""
        y = self.primal_marginal(x)
        vals = -self.utility.conjugate_derivative(1, y * self._outcomes)
        return StateTable(self._outcomes, self._weights, vals)

    def optimizer_derivative(self, n: int, x: float) -> StateTable:
        """n-th derivative in x of the optimal terminal wealth, per outcome:
        the last entry of ``optimizer_derivatives(n, x)``."""
        out = self.optimizer_derivatives(n, x)[-1]
        return StateTable(self._outcomes, self._weights, out)

    def optimizer_derivatives(self, n: int, x: float) -> list[np.ndarray]:
        """[d1, ..., dn], the derivatives in x of the optimal terminal
        wealth through order n, one array over the outcomes each, from one
        series composition.

        Outcome by outcome, X_T(x + s) = -V'(u'(x + s) Y_T) composes the
        series of -V' at w = u'(x) Y, with coefficients -V^(k+1)(w)/k!, with
        that of u'(x + s) Y, with coefficients u^(j+1)(x) Y/j!.  Both are
        taken in the variable (w' - w)/2^e, 2^e the power of two just above
        w, so a -V^(k+1)(w) near the bottom of the double range is scaled
        up, exactly, before it is divided by k!.  Coefficient j of the
        composite reads the two series through order j alone, so d_j is
        bitwise what a composition through order j gives.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n + 1 > self.utility.max_order:
            raise OrderExceeded("need V up to order n+1")
        derivs = self.primal_derivatives(n + 1, x)
        w = derivs[0] * self._outcomes
        e = np.frexp(w)[1]
        scaled = np.ldexp(self._outcomes, -e)  # Y / 2^e
        inner = [None] + [u / math.factorial(j) * scaled
                          for j, u in enumerate(derivs[1:], 1)]
        conjugate = self.utility.conjugate_derivatives(range(2, n + 2), w)
        outer = [None] + [np.ldexp(v, k * e) / -math.factorial(k)
                          for k, v in enumerate(conjugate, 1)]
        series = compose(outer, inner)
        return [series[j] * math.factorial(j) for j in range(1, n + 1)]

    # -- measure recovery -------------------------------------------------------

    def widder_invert(self, z: float, n: int) -> float:
        """n-th Post-Widder approximant of nu((0, z]), nu the measure of -v'.

        The classical approximant integrates (-1)**(n+1) v^(n+1)(n/r)
        (n/r)**(n+1)/n! over r in (0, z].  Against each e^(-ys) in
        -v'(y) = int e^(-ys) nu(ds) that integral is the Gamma tail
        Q(n, ns/z) = e^(-ns/z) sum_{k<n} (ns/z)**k/k!, so the approximant is
        exactly sum_{k<n} (-1)**(k+1) v^(k+1)(y) y**k/k! at y = n/z, a sum
        of positive terms built in log space so a tiny z cannot overflow.
        It converges to the half-open/open average at atoms.
        """
        if not z >= 0:
            raise ValueError("z must be >= 0")
        if n < 2:
            raise ValueError("n must be >= 2")
        if z == 0.0:
            return 0.0
        if n + 1 > self.utility.max_order:
            raise OrderExceeded("the approximant is defined through v^(n+1)")
        y = n / z
        known = self._fill(y, range(1, n + 1))
        terms = []
        for k in range(n):
            val = (-1.0) ** (k + 1) * known[k + 1]
            if val > 0.0:
                terms.append(math.exp(math.log(val) + k * math.log(y)
                                      - math.lgamma(k + 1)))
        return math.fsum(terms)


# -- finite-market equivalence audit ---------------------------------------------


@dataclass(frozen=True)
class CandidateVerdicts:
    vertex: tuple[float, ...]
    laplace_order: bool      # dominance of infinite order against every vertex
    conditional: bool        # Y_hat >= E[Y | sigma(Y_hat)] against every vertex
    second_order: bool       # dominance of order 2 against every vertex

    @property
    def agree(self) -> bool:
        return self.laplace_order == self.conditional == self.second_order

    @property
    def maximal(self) -> bool:
        return self.laplace_order and self.conditional and self.second_order


@dataclass(frozen=True)
class EquivalenceReport:
    candidates: tuple[CandidateVerdicts, ...]
    all_agree: bool
    maximal_vertex: Optional[tuple[float, ...]]

    @property
    def maximal_exists(self) -> bool:
        """Some vertex passes the conditional criterion.

        The conditional criterion is linear in the competing deflator, so its
        vertex check is equivalent to the full-polytope check; a passing
        vertex is therefore maximal against the entire deflator set, and by
        the equivalence of the three criteria plus transitivity of the
        dominance orders, all three vertex verdicts must then agree for
        every candidate.  Without such a vertex the Laplace and second-order
        checks restricted to vertices are genuinely weaker and the verdicts
        may differ.
        """
        return any(c.conditional for c in self.candidates)

    def to_dict(self):
        return {
            "all_agree": self.all_agree,
            "maximal_exists": self.maximal_exists,
            "maximal_vertex": list(self.maximal_vertex)
            if self.maximal_vertex else None,
            "candidates": [
                {
                    "vertex": list(c.vertex),
                    "laplace_order": c.laplace_order,
                    "conditional": c.conditional,
                    "second_order": c.second_order,
                }
                for c in self.candidates
            ],
        }


def _conditional_dominates(probs, candidates, others) -> np.ndarray:
    """For each row y_hat of ``candidates``, whether y_hat >= E[y | sigma(y_hat)]
    for every row y of ``others``, within 1e-9 relative to 1 + |y_hat|.

    One (V, S, S) mask groups every candidate's states by equal y_hat
    values, and one batched product gives every conditional expectation.
    """
    keys = np.round(np.asarray(candidates, dtype=float) / 1e-9) * 1e-9
    same = (keys[:, :, None] == keys[:, None, :]).astype(float)
    expected = (same @ (probs * others).T) / (same @ probs)[..., None]
    bound = keys + 1e-9 * (1.0 + np.abs(keys))
    return ~np.any(expected > bound[..., None], axis=(1, 2))


def _laplace_column(cand_laws, laws, settled) -> np.ndarray:
    """Whether each candidate law dominates every vertex law at infinite
    order, given ``settled``, the pairs that dominate at order 2 and so at
    infinite order too.  A row with a pair whose Laplace ends fail
    (``laplace_end_violated``) is False at once; the rows left go to one
    ``laplace_witness_table`` over the columns they have not settled.
    """
    column = settled.all(axis=1)
    rows = [i for i in np.flatnonzero(~column).tolist()
            if not any(laplace_end_violated(cand_laws[i], laws[j])
                       for j in np.flatnonzero(~settled[i]).tolist())]
    if rows:
        cols = np.flatnonzero(~settled[rows].all(axis=0))
        hit = ~np.isnan(laplace_witness_table(
            [cand_laws[i] for i in rows], [laws[j] for j in cols]))
        column[rows] = ~(hit & ~settled[np.ix_(rows, cols)]).any(axis=1)
    return column


def sd_equivalence_audit(fm: FiniteMarket, candidate=None) -> EquivalenceReport:
    """Test the three maximality conditions against every deflator vertex.

    For each candidate terminal deflator (every polytope vertex, or just the
    supplied one) the audit decides whether it dominates every vertex in the
    infinite-order sense, conditionally in the sense
    Y_hat >= E[Y | sigma(Y_hat)], and in the second-order sense, and reports
    whether the three verdicts coincide candidate by candidate.  The
    second-order verdicts are exact; a pair dominating at order 2 dominates
    at infinite order, the other pairs are first checked at the ends of the
    Laplace transform, and only what that leaves is sampled on the z-grid
    (``_laplace_column``).
    """
    if len(fm.probs) > 10:
        raise ValueError("audit is intended for <= 10 states")
    vertices = np.array(fm.deflator_vertices())
    if not fm.has_positive_deflator(vertices):
        raise PolytopeEmpty("no strictly positive deflator exists")
    probs = np.asarray(fm.probs)
    laws = merged_laws(vertices, probs)
    if candidate is None:
        candidates, cand_laws = vertices, laws
    else:
        candidates = [np.asarray(candidate, dtype=float)]
        cand_laws = merged_laws(candidates, probs)
    settled = second_order_settled(cand_laws, laws)
    laplace = _laplace_column(cand_laws, laws, settled)
    conditional = _conditional_dominates(probs, candidates, vertices)
    results = [
        CandidateVerdicts(tuple(cand), bool(lap), bool(cond), bool(sec))
        for cand, lap, cond, sec in zip(candidates, laplace, conditional,
                                        settled.all(axis=1))]
    all_agree = all(r.agree for r in results)
    maximal = next((r.vertex for r in results if r.maximal), None)
    return EquivalenceReport(tuple(results), all_agree, maximal)
