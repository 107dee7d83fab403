"""Constructive failure examples for the smoothness-transfer machinery.

Two constructions live here.  The first builds an analytic conjugate
function whose n-th derivative is the reciprocal-power derivative scaled by
a slowly decreasing analytic factor f in [1, 2], together with a discrete
unit-mean law Z whose tail weights make the (n+1)-st derivative expectation
diverge logarithmically while every lower order stays finite.  The second
builds, for any utility with non-constant relative risk aversion, a
one-period market whose value function fails to be twice differentiable at
the initial wealth 1: the one-sided second-difference quotients straddle a
strictly positive gap between the unconstrained and the constrained
quadratic forms of U''.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import erf, erfc, polygamma, zeta

from .cmcalc import DnFunction
from .duality import UtilitySpec, footnote_utility
from .errors import ConstantRRA, EnvelopeViolation, OptimumAtBoundary

__all__ = [
    "AnalyticBump",
    "Cex1Instance",
    "Cex2Instance",
    "bump_f",
    "cex1_verify_finite",
    "cex1_divergence",
    "check_truncations",
    "cex2_build",
    "cex2_gap",
    "DivergenceReport",
    "GapReport",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT_PI_2 = math.sqrt(math.pi / 2.0)
ZETA2 = float(polygamma(1, 1))
# erf(1/sqrt(2)): left half-mass of the widest bump term
_ERF_HALF = float(erf(1.0 / math.sqrt(2.0)))
# integers per block of _power_tail
_BLOCK = 256
# the wide-spike rule's tables: 12 Gauss-Legendre nodes and weights on
# [0, 1], and the panel breaks at a spike in widths from its centre
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0
_SPIKE_BREAKS = np.array([-13.0, -4.0, -1.0, 0.0, 1.0, 4.0])


def _power_tail(s, start, stop: int):
    """sum_{j=start}^{stop} j**-s for integer starts >= 1; 0 where start > stop.

    The integers from the lowest to the highest start are split into blocks
    of _BLOCK ending at stop, stop - _BLOCK, ...  Each block is summed from
    the top down with one cumsum and sits on the exact Hurwitz-zeta tail
    above it, so a start costs no special function, and no anchor is a
    difference of two zeta values fewer than _BLOCK terms apart.
    """
    start = np.asarray(start, dtype=float)
    out = np.zeros(start.shape)
    live = start <= stop
    if not np.any(live):
        return out
    a = start[live].astype(np.int64)
    k_top, k_bottom = (stop - a.max()) // _BLOCK, (stop - a.min()) // _BLOCK
    j_top = stop - k_top * _BLOCK
    j = j_top - np.arange((k_bottom - k_top + 1) * _BLOCK, dtype=float)
    within = np.cumsum(np.maximum(j, 1.0).reshape(-1, _BLOCK) ** -s, axis=1)
    above = stop + 1.0 - _BLOCK * np.arange(k_top, k_bottom + 1, dtype=float)
    anchor = zeta(s, above) - zeta(s, stop + 1.0)
    out[live] = (within + anchor[:, None]).ravel()[j_top - a]
    return out


@dataclass(frozen=True)
class AnalyticBump:
    """Analytic decreasing factor f in [1, 2] with -f'(i) >= i**2 / C.

    The generator is a series of Gaussian spikes centered at the integers,
    the i-th with height i**4 / i**2 and width i**-4, so the spike at i has
    negligible overlap with its neighbours for i >= 4 while its peak value
    grows like i**2.  f is 2 minus the normalized running integral of the
    series truncated at ``n_terms``; C is the normalizer.
    """

    n_terms: int = 10**6

    @cached_property
    def C(self) -> float:
        return SQRT_2PI * (ZETA2 - float(polygamma(1, self.n_terms + 1)))

    @cached_property
    def total_integral(self) -> float:
        # integral of g over (0, inf): the i = 1 spike loses its left tail
        inner = (1.0 + _ERF_HALF) + 2.0 * (
            ZETA2 - 1.0 - float(polygamma(1, self.n_terms + 1)))
        return SQRT_PI_2 * inner

    @cached_property
    def f_at_infinity(self) -> float:
        return 2.0 - self.total_integral / self.C

    def g(self, y):
        """Spike series; only terms with |y - i| <= 12 i**-4 contribute."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        total = np.zeros_like(y)
        for i in (1, 2, 3):
            if i > self.n_terms:
                break
            sig = float(i) ** -4
            total += i**-2.0 / sig * np.exp(-((y - i) ** 2) / (2.0 * sig**2))
        jr = np.rint(y).astype(np.int64)
        mask = (jr >= 4) & (jr <= self.n_terms)
        if np.any(mask):
            j = jr[mask].astype(float)
            sig = j**-4.0
            spike = j**-2.0 / sig * np.exp(-((y[mask] - j) ** 2)
                                           / (2.0 * sig**2))
            total[mask] += spike
        return total

    def running_integral(self, y):
        """integral of g over (0, y], exact to ~1e-15 via erf splits."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        total = np.zeros_like(y)
        for i in (1, 2, 3):
            if i > self.n_terms:
                break
            sig = float(i) ** -4
            left = float(erf(i / (math.sqrt(2.0) * sig)))
            total += i**-2.0 * (erf((y - i) / (math.sqrt(2.0) * sig)) + left)
        jr = np.rint(y).astype(np.int64)
        sig_r = np.maximum(jr, 1).astype(float) ** -4.0
        near = (jr >= 4) & (np.abs(y - jr) <= 13.0 * sig_r) & (jr <= self.n_terms)
        full_top = np.where(near, jr - 1, np.floor(y).astype(np.int64))
        full_top = np.minimum(full_top, self.n_terms)
        has_full = full_top >= 4
        if np.any(has_full):
            # sum_{j=4}^{top} j**-2, as the sum to N less its tail past top
            head = float(polygamma(1, 4) - polygamma(1, self.n_terms + 1))
            top = full_top[has_full].astype(float)
            total[has_full] += 2.0 * (
                head - _power_tail(2, top + 1.0, self.n_terms))
        if np.any(near):
            j = jr[near].astype(float)
            sig = j**-4.0
            total[near] += j**-2.0 * (
                erf((y[near] - j) / (math.sqrt(2.0) * sig)) + 1.0)
        return SQRT_PI_2 * total

    def f(self, y):
        return 2.0 - self.running_integral(y) / self.C

    def fprime(self, y):
        return -self.g(y) / self.C


def bump_f(ab: AnalyticBump, y: float) -> float:
    """f(y) for a scalar argument."""
    return float(ab.f(y)[0])


class _ScaledReciprocalTail:
    """Derivatives of V defined by V^(n)(y) = f(y) * (d/dy)^n (1/y).

    Lower-order derivatives are the collapsed tail integrals

        (-1)**k V^(k)(y) = f_inf * k! y**-(k+1)
            + (n!/C) * sqrt(pi/2) * sum_i i**-2 E_i(y),

    with E_i the tail integral of (t-y)**m/m! t**-(n+1) against the
    complementary-error step of spike i (m = n-1-k).  A spike j >= 4 with
    |y - j| >= 1/2 sits at least 128 of its widths from y, where erfc is
    exactly 0 or 2 in double precision.  So only the live spike rint(y)
    gets the Gaussian-moment expansion; every spike below it vanishes, and
    every spike above it is the exact step 2(H(y) - H(j)) + sig_j**2 h'(j),
    a power series in j summed over [rint(y)+1, N] by anchored block sums.
    The three wide low-index spikes take fixed Gauss-Legendre panels over
    [y, i + 13 sig_i], broken geometrically and at the spike.  All parts
    are vectorized over y, so a million evaluations cost a few array ops.
    """

    def __init__(self, order: int, bump: Optional[AnalyticBump]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.n = order
        self.bump = bump  # None means f == 1 (the degenerate instance)

    # h(t; y) = (t-y)**m t**-(n+1) / m!, H(t; y) = int_t^inf h
    def _H(self, t, y, m):
        n = self.n
        out = np.zeros_like(np.broadcast_arrays(t, y)[0], dtype=float)
        for j in range(m + 1):
            out = out + (math.comb(m, j) * (-1.0) ** (m - j) * y ** (m - j)
                         * t ** (j - n) / (n - j))
        return out / math.factorial(m)

    def _h(self, t, y, m, d=0):
        """d-th t-derivative of h(t; y), by Leibniz over its two factors."""
        n = self.n
        return sum(math.comb(d, q) * math.perm(m, q) * (t - y) ** (m - q)
                   * (-1.0) ** (d - q) * math.perm(n + d - q, d - q)
                   * t ** (q - n - 1 - d)
                   for q in range(min(d, m) + 1)) / math.factorial(m)

    def _wide_spike(self, y: np.ndarray, i: int, m: int) -> np.ndarray:
        """E_i at points y below the upper end i + 13 sig of a wide spike.

        Fixed Gauss-Legendre panels on [y, i + 13 sig]: 8 geometric breaks
        follow the power t**-(n+1), and breaks at i + sig * _SPIKE_BREAKS
        follow the erfc step; all points, panels and nodes in one array.
        """
        sig = float(i) ** -4
        hi = i + 13.0 * sig
        yc = y[:, None]
        breaks = np.sort(np.concatenate(
            [np.geomspace(y, hi, 8, axis=-1),
             np.clip(i + sig * _SPIKE_BREAKS, yc, hi)], axis=1), axis=1)
        width = np.diff(breaks, axis=1)[..., None]
        t = breaks[:, :-1, None] + width * _GL_NODES
        vals = ((t - yc[..., None]) ** m * t ** (-self.n - 1.0)
                * erfc((t - i) / (math.sqrt(2.0) * sig)))
        return (width * _GL_WEIGHTS * vals).sum(axis=(1, 2)) / math.factorial(m)

    def _band_term(self, y, i, m):
        """E_i by parts with a Gaussian-moment expansion, exact to O(sig**4).

        Uniform in the spike position: it saturates to 0 for spikes far
        below y and to the power-tail step 2(H(y) - H(i)) far above.
        """
        sig = i**-4.0
        a = (y - i) / sig
        ec = erfc(a / math.sqrt(2.0))
        gauss = np.exp(-0.5 * np.minimum(a * a, 1500.0))
        gauss = np.where(np.abs(a) > 40.0, 0.0, gauss)
        Hy = self._H(y, y, m)
        Hi = self._H(i, y, m)
        hi, hpi, hsi = (self._h(i, y, m, d) for d in range(3))
        root = math.sqrt(2.0 / math.pi)
        return (ec * (Hy - Hi)
                + root * sig * hi * gauss
                + 0.5 * sig**2 * hpi * (root * a * gauss + ec)
                + root * sig**3 / 6.0 * hsi * (a * a + 2.0) * gauss)

    def _tail_sum(self, y: np.ndarray, k: int) -> np.ndarray:
        """sum_i i**-2 E_i(y) for the truncated spike family."""
        n, m = self.n, self.n - 1 - k
        n_terms = self.bump.n_terms
        out = np.zeros_like(y)

        # wide spikes i = 1..3: a panel rule, only where their layer reaches y
        for i in (1, 2, 3):
            if i > n_terms:
                break
            mask = y < i + 13.0 * float(i) ** -4
            if np.any(mask):
                out[mask] += self._wide_spike(y[mask], i, m) * float(i) ** -2.0

        # the live spike rint(y), the only one whose layer can reach y
        live = np.rint(y)
        mask = (live >= 4) & (live <= n_terms)
        if np.any(mask):
            i = live[mask]
            out[mask] += i**-2.0 * self._band_term(y[mask], i, m)

        # every spike j > rint(y) has erfc == 2 and gauss == 0 exactly, so
        # E_j = 2(H(y) - H(j)) + j**-8 h'(j); with h(t) = sum_r c_r t**(r-n-1)
        # binomially in t, sum_j j**-2 E_j is a sum of power tails
        start = np.maximum(live + 1, 4)
        active = start <= n_terms
        if np.any(active):
            ys = y[active]
            coeff = defaultdict(float)  # power s -> its coefficient in y
            for r in range(m + 1):
                c = math.comb(m, r) * (-ys) ** (m - r) / math.factorial(m)
                coeff[2] += 2.0 * c * ys ** (r - n) / (n - r)
                coeff[n + 2 - r] -= 2.0 * c / (n - r)
                coeff[n + 12 - r] += (r - n - 1) * c
            st = start[active]
            out[active] += sum(c * _power_tail(s, st, n_terms)
                               for s, c in coeff.items())
        return out

    def derivative(self, k: int, y, f=None) -> np.ndarray:
        """(d/dy)^k V at y, 0 <= k <= n + 1; ``f`` is bump.f(y) if known."""
        n = self.n
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if k > n + 1 or k < 0:
            raise ValueError(f"k must lie in 0..{n + 1}")
        sign = (-1.0) ** k
        base = math.factorial(k) * y ** (-k - 1.0)
        if self.bump is None:
            return sign * base
        if k >= n:
            top = (self.bump.f(y) if f is None else f) * base
            if k == n + 1:
                top = top - self.bump.fprime(y) * math.factorial(n) * y ** (-n - 1.0)
            return sign * top
        signed = (self.bump.f_at_infinity * base
                  + math.factorial(n) / self.bump.C * SQRT_PI_2
                  * self._tail_sum(y, k))
        return sign * signed

    def value(self, y) -> np.ndarray:
        return self.derivative(0, y)


@dataclass(frozen=True)
class Cex1Instance:
    """Analytic conjugate of finite smoothness order paired with a tail-heavy law.

    The law Z mixes a point mass at 1/2 with atoms at the integers weighted
    like i**-3, tuned so E[Z] = 1 holds exactly for the truncated sums.  The
    conjugate V has (d/dy)^n V = f(y) (d/dy)^n (1/y) with f the analytic
    bump factor, so all derivative expectations up to order n are finite
    while the (n+1)-st diverges like the harmonic series.
    """

    order: int = 2
    n_trunc: int = 10**6

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.n_trunc < 10:
            raise ValueError("n_trunc too small")

    @cached_property
    def bump(self) -> AnalyticBump:
        return AnalyticBump(self.n_trunc)

    @cached_property
    def _atom_weights(self):
        i = np.arange(1, self.n_trunc + 1, dtype=float)
        q = i**-3.0
        s0 = float(np.sum(q))
        s1 = float(np.sum(i * q))
        eps = 0.5 / (s1 / s0 - 0.5)
        return i, eps * q / s0, s0, eps

    @property
    def atoms(self) -> np.ndarray:
        return self._atom_weights[0]

    @property
    def atom_probs(self) -> np.ndarray:
        return self._atom_weights[1]

    @property
    def s0(self) -> float:
        return self._atom_weights[2]

    @property
    def eps(self) -> float:
        return self._atom_weights[3]

    @property
    def base_prob(self) -> float:
        """P(Z = 1/2)."""
        return 1.0 - self.eps

    @cached_property
    def conjugate(self) -> _ScaledReciprocalTail:
        return _ScaledReciprocalTail(self.order, self.bump)

    @cached_property
    def _f_on_atoms(self) -> np.ndarray:
        """bump.f on every atom, shared by the order n and n + 1 sums."""
        return self.bump.f(self.atoms)

    @cached_property
    def degenerate_conjugate(self) -> _ScaledReciprocalTail:
        """The f == 1 reference whose derivatives sandwich the real ones."""
        return _ScaledReciprocalTail(self.order, None)

    def mean(self) -> float:
        return (0.5 * self.base_prob
                + float(np.dot(self.atoms, self.atom_probs)))

    def value_function(self, degenerate: bool = False) -> DnFunction:
        """The conjugate as a finite-order test function with every order exact.

        ``nth_derivative`` and the anchor still back the generic quadrature
        path (``nfold_value``), which cross-checks the closed forms.
        """
        tail = self.degenerate_conjugate if degenerate else self.conjugate

        def exact(k, y):
            out = tail.derivative(k, y)
            return float(out[0]) if np.ndim(y) == 0 else out.reshape(np.shape(y))

        n = self.order
        return DnFunction.from_nth_derivative(
            n, lambda t: exact(n, t), anchor=(1.0, exact(0, 1.0)), exact=exact)

    def check_envelope(self, ys, k: int):
        """(-1)^k V^(k) must lie between 1 and 2 times the f == 1 reference,
        each end widened by the relative tolerance 1e-9."""
        ys = np.asarray(ys, dtype=float)
        sign = (-1.0) ** k
        got = sign * self.conjugate.derivative(k, ys)
        ref = sign * self.degenerate_conjugate.derivative(k, ys)
        lo, hi = ref * (1 - 1e-9), 2 * ref * (1 + 1e-9)
        if np.any(got < lo) or np.any(got > hi):
            bad = int(np.argmax(~((got >= lo) & (got <= hi))))
            raise EnvelopeViolation(
                f"order {k} at y={ys[bad]}: {got[bad]} outside "
                f"[{ref[bad]}, {2 * ref[bad]}]")


def cex1_verify_finite(inst: Cex1Instance,
                       n_trunc: Optional[int] = None) -> dict:
    """Partial sums of (d/dy)^k v at y = 1 for k = 1..n.

    Each entry is E[V^(k)(Z) Z**k] truncated at ``n_trunc`` atoms (weights
    are those of the full instance, so successive truncations are partial
    sums of one fixed series).
    """
    n = inst.order
    n_trunc = inst.n_trunc if n_trunc is None else int(n_trunc)
    if n_trunc < 10**3:
        raise ValueError("truncation must be at least 1e3")
    n_trunc = min(n_trunc, inst.n_trunc)
    i = inst.atoms[:n_trunc]
    p = inst.atom_probs[:n_trunc]
    out = {}
    for k in range(1, n + 1):
        vk = inst.conjugate.derivative(k, i, inst._f_on_atoms[:n_trunc])
        head = inst.base_prob * float(
            inst.conjugate.derivative(k, np.array([0.5]))[0]) * 0.5**k
        out[k] = head + float(np.dot(p, vk * i**k))
    return out


@dataclass(frozen=True)
class DivergenceReport:
    truncations: tuple[int, ...]
    partial_sums: tuple[float, ...]
    increments: tuple[float, ...]
    oracle_increments: tuple[float, ...]
    diverges: bool

    def to_dict(self):
        return {
            "truncations": list(self.truncations),
            "partial_sums": list(self.partial_sums),
            "increments": list(self.increments),
            "oracle_increments": list(self.oracle_increments),
            "diverges": self.diverges,
        }


def check_truncations(truncations) -> tuple[int, ...]:
    """The truncations as ints: at least two, increasing, the first >= 1."""
    truncations = tuple(int(t) for t in truncations)
    if len(truncations) < 2 or truncations[0] < 1:
        raise ValueError("need at least two truncations, the first >= 1")
    if any(b <= a for a, b in zip(truncations, truncations[1:])):
        raise ValueError("truncations must increase")
    return truncations


def cex1_divergence(inst: Cex1Instance,
                    truncations=(10**3, 10**4, 10**5, 10**6)) -> DivergenceReport:
    """Partial sums of the order n+1 derivative expectation at y = 1.

    S_N = sum_{i <= N} p_i (-1)**(n+1) V^(n+1)(i) i**(n+1) must grow by a
    near-constant amount per decade: the spike heights make
    -f'(i) q_i ~ i**-1 / C, so the harmonic oracle predicts an increment
    eps n! / (s0 C) * sum 1/i over each decade.  ``diverges`` is true when
    every increment is positive and within 25% of the oracle; it takes
    at least two increasing truncations, the first at least 1.
    """
    truncations = check_truncations(truncations)
    if truncations[-1] > inst.n_trunc:
        raise ValueError("truncation exceeds the instance size")
    n = inst.order
    i = inst.atoms
    p = inst.atom_probs
    terms = p * ((-1.0) ** (n + 1) * inst.conjugate.derivative(
        n + 1, i, inst._f_on_atoms)) * i ** (n + 1)
    csum = np.cumsum(terms)
    sums = [float(csum[t - 1]) for t in truncations]
    harmonic = np.cumsum(1.0 / i)
    scale = inst.eps * math.factorial(n) / (inst.s0 * inst.bump.C)
    oracle = [
        scale * float(harmonic[b - 1] - harmonic[a - 1])
        for a, b in zip(truncations, truncations[1:])
    ]
    increments = [b - a for a, b in zip(sums, sums[1:])]
    diverges = all(
        inc > 0 and abs(inc - orc) <= 0.25 * orc
        for inc, orc in zip(increments, oracle)
    )
    return DivergenceReport(truncations, tuple(sums), tuple(increments),
                            tuple(oracle), diverges)


# -- counterexample 2: one-period market with a kink in u'' ---------------------


@dataclass(frozen=True)
class Cex2Instance:
    """One-period market tuned so the value function has no second derivative.

    States are omega_0..omega_N with stock payoffs 2, 1, 1/2, ..., 1/N and
    s0 = 1.  The weights make holding one share optimal at x = 1 exactly
    (the first-order condition cancels identically), while the non-constant
    relative risk aversion forces the optimal quadratic response
    coefficient away from the admissible limit 1.
    """

    utility: UtilitySpec
    n_states: int
    probs: tuple[float, ...]
    payoffs: tuple[float, ...]
    delta_hat: float

    def expectation(self, fn) -> float:
        """E[fn(S)] for an fn that maps the payoff array to per-state values.

        The per-state products are summed exactly rounded, so the result does
        not depend on the order of the states.
        """
        terms = np.multiply(self.probs, fn(np.asarray(self.payoffs)))
        return math.fsum(terms.tolist())

    def mean_payoff(self) -> float:
        return self.expectation(lambda s: s)

    def quadratic_form(self, delta: float) -> float:
        """Q(delta) = E[U''(S)(delta S + 1 - delta)**2]."""
        return self.expectation(
            lambda s: self.utility.second(s) * (delta * s + 1 - delta) ** 2)

    def to_finite_market(self):
        from .solver import FiniteMarket

        return FiniteMarket(self.probs, self.payoffs, 1.0)


def cex2_build(utility: Optional[UtilitySpec] = None,
               n_states: int = 200) -> Cex2Instance:
    """Construct the market; requires non-constant relative risk aversion.

    The state weights for n >= 2 are

        p_n = 2**-(n+1) min(1, U'(2))
              / max(1, U'(1/n) - min U'' over [2/(3n), 2/3 + 2/(3n)]),

    p_0 cancels the first-order condition E[U'(S)(1-S)] = 0 identically
    and p_1 absorbs the remainder, so no renormalization is ever needed.

    That minimum is U''(2/(3n)).  With I = (U')^{-1} completely monotone,
    I' < 0 < I'' and U'' = 1/I'(U') < 0, so differentiating U'' = 1/I'(U')
    gives U''' = -I''(U') U'' / I'(U')**2 > 0: U'' is increasing.
    """
    utility = footnote_utility(1) if utility is None else utility
    if n_states < 3:
        raise ValueError("need at least 3 states")
    # non-constancy probe on the reciprocal-integer grid
    rra = utility.rra(1.0 / np.arange(2, 40))
    if not np.any(np.abs(rra[1:] - rra[0]) > 1e-6):
        raise ConstantRRA("relative risk aversion is constant on 1/m grid; "
                          "the construction needs it non-constant")
    u2 = utility.marginal(2.0)
    numer = min(1.0, u2)
    ns = np.arange(2, n_states + 1)
    marginal = utility.marginal(1.0 / ns)
    floor = utility.second(2.0 / (3.0 * ns))
    p = np.zeros(n_states + 1)
    p[2:] = 2.0 ** -(ns + 1.0) * numer / np.maximum(1.0, marginal - floor)
    p[0] = float(np.sum(p[2:] * marginal * (1.0 - 1.0 / ns))) / u2
    p[1] = 1.0 - p[0] - float(np.sum(p[2:]))
    if p[0] > 0.25 or p[1] < 0.5 or np.any(p <= 0):
        raise ValueError("weight construction failed its own bounds")
    payoffs = (2.0,) + tuple(1.0 / n for n in range(1, n_states + 1))
    inst = Cex2Instance(utility, n_states, tuple(p), payoffs, math.nan)
    m1 = inst.expectation(lambda s: utility.second(s) * (s - 1.0))
    m2 = inst.expectation(lambda s: utility.second(s) * (s - 1.0) ** 2)
    delta_hat = -m1 / m2
    if not (-1.0 < delta_hat < 2.0) or abs(delta_hat - 1.0) < 1e-12:
        raise ValueError(f"quadratic response {delta_hat} escaped (-1, 2) or "
                         f"hit the admissible limit")
    return Cex2Instance(utility, n_states, tuple(p), payoffs, delta_hat)


def _inner_max(inst: Cex2Instance, x: float) -> tuple[float, float]:
    """max over positions of E[U(x + delta (S - 1))] on the admissible range.

    Below unit wealth delta = x binds by construction, so a boundary optimum
    is reported only at the lower end, or at the upper end when x >= 1 and
    the objective still rises there (at x = 1 one share is optimal by
    construction and the slope cancels).
    """
    from scipy import optimize
    lo, hi = -x * (1.0 - 1e-13), x
    res = optimize.minimize_scalar(
        lambda d: -inst.expectation(lambda s: inst.utility.value(x + d * (s - 1))),
        bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    delta = float(res.x)

    def slope(s):
        return inst.utility.marginal(x + hi * (s - 1)) * (s - 1)

    rising = x >= 1.0 and hi - delta < 1e-6 * x and inst.expectation(
        slope) > 1e-8 * inst.expectation(lambda s: np.abs(slope(s)))
    if delta - lo < 1e-6 * x or rising:
        warnings.warn("inner maximization ended on the admissibility "
                      "boundary; increase the state count",
                      OptimumAtBoundary)
    return -float(res.fun), delta


@dataclass(frozen=True)
class GapReport:
    eps: tuple[float, ...]
    d_plus: tuple[float, ...]
    d_minus: tuple[float, ...]
    q_at_hat: float
    q_constrained: float
    gap: float
    delta_hat: float

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.q_at_hat + self.q_constrained)

    @property
    def margin(self) -> float:
        """Distance of the finest quotients from the gap midpoint."""
        return min(self.d_plus[-1] - self.midpoint,
                   self.midpoint - self.d_minus[-1])

    def to_dict(self):
        return {
            "eps": list(self.eps),
            "d_plus": list(self.d_plus),
            "d_minus": list(self.d_minus),
            "q_at_hat": self.q_at_hat,
            "q_constrained": self.q_constrained,
            "gap": self.gap,
            "margin": self.margin,
            "delta_hat": self.delta_hat,
        }


def cex2_gap(inst: Cex2Instance,
             eps_list=(1e-2, 1e-3, 1e-4)) -> GapReport:
    """One-sided second-difference quotients of the value function at 1.

    D+-(eps) = (2/eps**2) (u(1 +- eps) - u(1) -+ eps u'(1)) with
    u(x) = max_delta E[U(x + delta (S-1))].  At x = 1 the optimum is one
    share exactly, so u(1) = E[U(S)] and u'(1) = E[U'(S)].  The quotients
    straddle the strictly positive gap between Q(delta_hat) and the
    constrained supremum over delta >= 1 of Q.
    """
    eps_list = tuple(sorted((float(e) for e in eps_list), reverse=True))
    u1 = inst.expectation(inst.utility.value)
    up1 = inst.expectation(inst.utility.marginal)
    d_plus, d_minus = [], []
    for eps in eps_list:
        up, _ = _inner_max(inst, 1.0 + eps)
        dn, _ = _inner_max(inst, 1.0 - eps)
        d_plus.append(2.0 / eps**2 * (up - u1 - eps * up1))
        d_minus.append(2.0 / eps**2 * (dn - u1 + eps * up1))
    q_hat = inst.quadratic_form(inst.delta_hat)
    # Q is a concave quadratic with vertex delta_hat: on [1, inf) the
    # supremum sits at the closer endpoint
    q_constrained = inst.quadratic_form(max(1.0, inst.delta_hat))
    gap = q_hat - q_constrained
    return GapReport(eps_list, tuple(d_plus), tuple(d_minus),
                     q_hat, q_constrained, gap, inst.delta_hat)
