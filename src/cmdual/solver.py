"""Market models, value functions, optimizers, and their all-order derivatives.

The model enters only through the terminal law of the maximal deflator: the
dual value function is the expectation v(y) = E[V(y * Y)], its derivatives
are expectations of V^(n)(y Y) Y**n, each one call on the outcome array,
the primal marginal is the inverse of -v', and all higher primal
derivatives follow from the chain-rule partition sum applied to
u'' = -1/v''(u').  Measure recovery sums the first n dual derivatives at
n/z, the exact Post-Widder approximant of the measure behind -v', and a
finite one-period market type supports enumerating the extreme points of its
supermartingale-deflator set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .dominance import (
    Discrete,
    Distribution,
    Lognormal,
    discrete_witness_table,
    laplace_end_violated,
    laplace_witness_table,
)
from .duality import UtilitySpec, invert_decreasing
from .errors import (
    DivergentMoment,
    DualInfinite,
    NoRoot,
    OrderExceeded,
    PolytopeEmpty,
)
from .partitions import faa_di_bruno_coefficient, multiplicity_partitions

__all__ = [
    "MarketModel",
    "FiniteMarket",
    "ValueFunctionPair",
    "StateTable",
    "sd_equivalence_audit",
    "EquivalenceReport",
]

# highest order of the partition-sum chain rules (primal_derivatives: one more)
FAA_ORDER_CAP = 8


def _group_sums(keys, *weights):
    """Distinct keys in ascending order and each weight array summed over them."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    return uniq, *(np.bincount(inverse, weights=w, minlength=uniq.size)
                   for w in weights)


def merged_law(values, probs) -> Discrete:
    """Law of a random variable on a finite space, merging equal values."""
    values = np.asarray(values, dtype=float)
    # a value past about 1e296 rounds to an infinite key, which the law's
    # own check then refuses
    with np.errstate(over="ignore"):
        keys = np.where(values != 0, np.round(values / 1e-12) * 1e-12, 0.0)
    xs, ps = _group_sums(keys, np.asarray(probs, dtype=float))
    return Discrete._sorted(xs, ps / ps.sum())


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
        n = p.size
        rows = [-np.eye(n)]
        rhs = [np.zeros(n)]

        def add(weights, bound):
            rows.append(weights[None, :])
            rhs.append(np.array([bound]))

        add(p, 1.0)  # cash
        gap = s - self.s0
        smin, smax = float(np.min(s)), float(np.max(s))
        if smin < self.s0:
            h_max = 1.0 / (self.s0 - smin)
            add(p * (1.0 + h_max * gap), 1.0)
        else:
            add(p * gap, 0.0)
        if smax > self.s0:
            h_min = -1.0 / (smax - self.s0)
            add(p * (1.0 + h_min * gap), 1.0)
        else:
            add(p * -gap, 0.0)
        return np.vstack(rows), np.concatenate(rhs)

    def deflator_vertices(self) -> list[np.ndarray]:
        """Extreme points of the deflator polytope by active-set enumeration.

        A solution of an active set is feasible within 1e-9, and entries
        below 1e-9 in size are 0.  Several active sets can solve to the same
        vertex up to rounding, so solutions equal on a grid of 1e-7 times
        the largest entry are one vertex, kept in the order first found.
        """
        A, b = self.deflator_constraints()
        n = A.shape[1]
        idx = np.array(list(combinations(range(A.shape[0]), n)))
        subs = A[idx]
        norms = np.linalg.norm(subs, axis=2)
        keep = np.all(norms >= 1e-14, axis=1)
        idx, subs, norms = idx[keep], subs[keep], norms[keep]
        # scale-invariant regularity test so tiny state probabilities
        # cannot mask a legitimate active set
        regular = np.abs(np.linalg.det(subs / norms[..., None])) >= 1e-10
        ys = np.linalg.solve(subs[regular], b[idx[regular]][..., None])
        ys = ys[np.all((A @ ys)[..., 0] <= b + 1e-9, axis=1), :, 0]
        if not ys.size:
            return []
        ys = np.where(np.abs(ys) < 1e-9, 0.0, ys)
        grid = 1e-7 * max(1.0, float(np.max(np.abs(ys))))
        _, first = np.unique(np.round(ys / grid) + 0.0, axis=0, return_index=True)
        return list(ys[np.sort(first)])

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


def _chain_rule(m: int, outer, inner):
    """m-th derivative of g(h) by the Faa di Bruno partition sum, from
    outer[k] = g^(k)(h) and inner[j] = h^(j), scalars or outcome arrays."""
    total = 0.0
    for ks in multiplicity_partitions(m):
        prod = 1.0
        for j, k in enumerate(ks, start=1):
            if k:
                prod = prod * inner[j] ** k
        total = total + faa_di_bruno_coefficient(m, ks) * outer[sum(ks)] * prod
    return total


class ValueFunctionPair:
    """Dual/primal value functions bound to a utility and a market model.

    Every result depends on its arguments alone.  Two memos hold state: the
    Newton solutions of the primal marginal, keyed by exact argument, and a
    table {n: v^(n)(y)} at the last y evaluated (n = 0 for v itself),
    replaced when y moves, so each order read more than once at one y is
    computed once.  Only finite values enter it: a divergence raises on every call.
    """

    def __init__(self, utility: UtilitySpec, model: MarketModel):
        self.utility = utility
        self.model = model
        self._marginal_cache: dict[float, float] = {}
        self._last: tuple = (None, {})  # (y, {n: v^(n)(y)}), replaced whole
        # a discrete law's states, or the nodes on which the dual probe
        # E[V(Y)] settles; a non-finite probe means the expectation diverges
        # and more nodes cannot help
        rule = model.deflator_law.rule(utility.conjugate)
        self._outcomes, self._weights = rule.nodes, rule.weights

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
        if y <= 0:
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
        if y <= 0:
            raise ValueError("y must be positive")
        if n > self.utility.max_order:
            raise OrderExceeded(f"conjugate offers order {self.utility.max_order}")
        known = self._known_at(y)
        out = known.get(n)
        if out is None:
            out = float(self._weights @ (
                self.utility.conjugate_derivative(n, y * self._outcomes)
                * self._outcomes**n))
            if not math.isfinite(out):
                raise DivergentMoment(f"derivative expectation diverges at "
                                      f"n={n}, y={y}")
            known[n] = out
        return out

    def dual_optimizer_derivative(self, n: int, y: float) -> StateTable:
        """Derivative in y of the dual optimizer y*Y_T: Y_T at n=1, 0 beyond."""
        if n < 1:
            raise ValueError("n must be >= 1")
        vals = self._outcomes.copy() if n == 1 else np.zeros_like(self._outcomes)
        return StateTable(self._outcomes, self._weights, vals)

    # -- primal side ----------------------------------------------------------

    def primal_marginal(self, x: float) -> float:
        """y = u'(x), the root of -v'(y) = x."""
        if x <= 0:
            raise ValueError("x must be positive")
        hit = self._marginal_cache.get(x)
        if hit is not None:
            return hit
        try:
            y = invert_decreasing(
                lambda t: -self.dual_derivative(1, t),
                lambda t: -self.dual_derivative(2, t),
                x,
            )
        except NoRoot:
            raise NoRoot(f"x={x} outside the range of -v'") from None
        if len(self._marginal_cache) < 4096:
            self._marginal_cache[x] = y
        return y

    def primal_value(self, x: float) -> float:
        """u(x) = v(y) + x*y at y = u'(x)."""
        y = self.primal_marginal(x)
        return self.dual_value(y) + x * y

    def _reciprocal_derivatives(self, y: float, m: int) -> list[float]:
        """Derivatives 0..m of f = -1/v'' at y via the quotient recursion."""
        h = [-self.dual_derivative(j + 2, y) for j in range(m + 1)]
        g = [1.0 / h[0]]
        for order in range(1, m + 1):
            acc = 0.0
            for j in range(1, order + 1):
                acc += math.comb(order, j) * h[j] * g[order - j]
            g.append(-acc / h[0])
        return g

    def primal_derivatives(self, n: int, x: float) -> list[float]:
        """[u'(x), u''(x), ..., u^(n)(x)] by the partition-sum chain rule.

        Starting from u''(x) = f(u'(x)) with f = -1/v'', each next order is

            u^(r)(x) = sum over (k_1..k_{r-2}), sum i*k_i = r-2, of
                (r-2)!/prod(k_j! (j!)**k_j) f^(sum k)(u') prod u^(j+1)**k_j.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > FAA_ORDER_CAP + 1:
            raise OrderExceeded(
                f"partition sums are capped at order {FAA_ORDER_CAP}")
        y = self.primal_marginal(x)
        derivs = [y]
        if n == 1:
            return derivs
        f = self._reciprocal_derivatives(y, max(0, n - 2))
        for r in range(2, n + 1):
            # derivs[j] = u^(j+1) is the j-th derivative of u'
            derivs.append(_chain_rule(r - 2, f, derivs))
        return derivs

    def primal_derivative(self, n: int, x: float) -> float:
        """u^(n)(x) for n >= 2 (use primal_marginal for n = 1)."""
        if n < 2:
            raise ValueError("n must be >= 2")
        if n > FAA_ORDER_CAP:
            raise OrderExceeded(f"orders are capped at {FAA_ORDER_CAP}")
        return self.primal_derivatives(n, x)[-1]

    # -- optimizers ------------------------------------------------------------

    def optimizer_terminal(self, x: float) -> StateTable:
        """Optimal terminal wealth per outcome: X_T = -V'(u'(x) * Y_T)."""
        y = self.primal_marginal(x)
        vals = -self.utility.conjugate_derivative(1, y * self._outcomes)
        return StateTable(self._outcomes, self._weights, vals)

    def optimizer_derivative(self, n: int, x: float) -> StateTable:
        """n-th derivative in x of the optimal terminal wealth, per outcome.

        The chain rule applied outcome-wise to -V'(u'(x) * Y_T) gives

            sum over (k_1..k_n), sum i*k_i = n, of
            n!/prod(k_j! (j!)**k_j) * (-V^(1+sum k)(u'(x) Y)) *
            prod_j (u^(j+1)(x) Y)**k_j.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > FAA_ORDER_CAP:
            raise OrderExceeded(f"orders are capped at {FAA_ORDER_CAP}")
        if n + 1 > self.utility.max_order:
            raise OrderExceeded("need V up to order n+1")
        inner = [u * self._outcomes for u in self.primal_derivatives(n + 1, x)]
        # outer[k] = -V^(1+k)(u'(x) Y); no partition of n >= 1 reads outer[0]
        outer = [None] + [-self.utility.conjugate_derivative(1 + k, inner[0])
                          for k in range(1, n + 1)]
        out = _chain_rule(n, outer, inner)
        return StateTable(self._outcomes, self._weights, out)

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
        if z < 0:
            raise ValueError("z must be >= 0")
        if n < 2:
            raise ValueError("n must be >= 2")
        if z == 0.0:
            return 0.0
        if n + 1 > self.utility.max_order:
            raise OrderExceeded("the approximant is defined through v^(n+1)")
        y = n / z
        terms = []
        for k in range(n):
            val = (-1.0) ** (k + 1) * self.dual_derivative(k + 1, y)
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
    vertices = fm.deflator_vertices()
    if not fm.has_positive_deflator(vertices):
        raise PolytopeEmpty("no strictly positive deflator exists")
    probs = np.asarray(fm.probs)
    laws = [merged_law(v, probs) for v in vertices]
    if candidate is None:
        candidates, cand_laws = vertices, laws
    else:
        candidates = [np.asarray(candidate, dtype=float)]
        cand_laws = [merged_law(candidates[0], probs)]
    settled = np.isnan(discrete_witness_table(cand_laws, laws, 2))
    laplace = _laplace_column(cand_laws, laws, settled)
    conditional = _conditional_dominates(probs, candidates, np.array(vertices))
    results = [
        CandidateVerdicts(tuple(cand), bool(lap), bool(cond), bool(sec))
        for cand, lap, cond, sec in zip(candidates, laplace, conditional,
                                        settled.all(axis=1))]
    all_agree = all(r.agree for r in results)
    maximal = next((r.vertex for r in results if r.maximal), None)
    return EquivalenceReport(tuple(results), all_agree, maximal)
