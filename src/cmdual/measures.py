"""Sigma-finite nonnegative measures on [0, inf) built from atoms and
power-exponential density pieces, with exponentially weighted moments.

A measure is a finite list of atoms (z, w) plus density pieces
``c * z**a * exp(-b*z)`` on subintervals of [0, inf).  This family covers
Lebesgue measure, fractional-power densities ``z**(-q)``, truncated tails,
and differences such as ``(1 - exp(-z)) dz``.  Moments against the kernel
``z**k * exp(-x*z)`` reduce to incomplete-gamma evaluations, so the common
path needs no quadrature at all.  Both moment kernels act elementwise on
their rate argument: a scalar gives a float, an array an array of its shape.

``laplace_moments`` is the one kernel for every order: it takes a list of
kernel orders k and returns one row per order.  When every density piece
spans [0, inf) and the rates are positive, an array of rates takes all
pieces and orders as one (piece, order, rate) array, with one ``log``, one
``exp`` and one overflow check, since log Gamma(a + k + 1) -
(a + k + 1) log(x + b) shares log(x + b) across the orders.  Each row is
bitwise the one-order result: the same floating-point operations run
elementwise, and the pieces are added in the same order.
``laplace_moment`` is the one-order case.

Full-range pieces take log Gamma from ``math.lgamma``, so a moment of such
pieces loads no scipy module.  It is within 1e-15 max(1, |log Gamma(q)|)
of a 40-digit ``mpmath.loggamma`` on the q tested (tests/test_measures.py),
so each such term exp(log Gamma(q) - q log s) moves by at most about that
much, relative, against scipy's ``gammaln``.  Truncated pieces (incomplete
gamma) and ``exp_difference_moment`` on a 1/t piece with a finite end
(``exp1``) still bind ``scipy.special`` on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _special as special
from .errors import InvalidMeasure, NonIntegrable

__all__ = [
    "DensityPiece",
    "BernsteinMeasure",
    "laplace_moment",
    "laplace_moments",
    "mass",
    "exp_difference_moment",
]

# accuracy of the quadrature for exponents p <= -1 on pieces away from 0
_QUAD_TOL = 1e-10
_LOG_MAX = math.log(np.finfo(float).max)  # largest finite argument of exp


def _any(mask) -> bool:
    """Whether any element of a boolean array or numpy bool is true."""
    return bool(mask) if mask.size == 1 else bool(mask.any())


def _least(values):
    """Smallest element of a numpy array or scalar, leaving NaNs out: one
    reduction, no temporary mask.  Without a number it is inf or NaN, so
    ``_least(x) <= c`` holds exactly when some ``x <= c`` does."""
    if values.ndim == 0:
        return values
    return np.fmin.reduce(values, axis=None, initial=math.inf)


def _greatest(values):
    """Largest element, as ``_least`` gives the smallest."""
    if values.ndim == 0:
        return values
    return np.fmax.reduce(values, axis=None, initial=-math.inf)


@dataclass(frozen=True)
class DensityPiece:
    """Density ``c * z**a * exp(-b*z)`` on [lo, hi); hi may be math.inf.

    ``c`` may be negative so that differences like ``(1 - exp(-z)) dz`` are
    expressible; the containing measure is responsible for keeping the total
    density nonnegative (checked by a sampled probe at construction).
    """

    c: float
    a: float
    b: float
    lo: float = 0.0
    hi: float = math.inf

    def density(self, z):
        z = np.asarray(z, dtype=float)
        inside = (z >= self.lo) & (z < self.hi) & (z > 0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            val = self.c * np.power(z, self.a) * np.exp(-self.b * z)
        return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class BernsteinMeasure:
    atoms: tuple[tuple[float, float], ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        atoms = tuple((float(z), float(w)) for z, w in self.atoms)
        pieces = tuple(
            p if isinstance(p, DensityPiece) else DensityPiece(*p) for p in self.pieces
        )
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)
        self._validate()

    def _validate(self):
        locs = [z for z, _ in self.atoms]
        numbers = [*locs, *(w for _, w in self.atoms),
                   *(v for p in self.pieces for v in (p.c, p.a, p.b, p.lo))]
        if not (all(map(math.isfinite, numbers))
                and all(-math.inf < p.hi <= math.inf for p in self.pieces)):
            raise ValueError("atoms and piece parameters must be finite "
                             "(only a piece's hi may be inf)")
        if any(z < 0 for z in locs):
            raise InvalidMeasure("atom locations must be >= 0")
        if any(w <= 0 for _, w in self.atoms):
            raise InvalidMeasure("atom weights must be strictly positive")
        if len(set(locs)) != len(locs):
            raise InvalidMeasure("atom locations must be distinct")
        for p in self.pieces:
            if p.c == 0:
                raise InvalidMeasure("piece coefficient must be nonzero")
            if p.b < 0:
                raise InvalidMeasure("piece decay rate must be >= 0")
            if not (0 <= p.lo < p.hi):
                raise InvalidMeasure("piece interval must satisfy 0 <= lo < hi")
            if p.lo == 0 and p.a <= -1:
                raise InvalidMeasure("piece with lo=0 needs a > -1 for integrability")
        if any(p.c < 0 for p in self.pieces):
            self._probe_nonnegative()

    def _probe_nonnegative(self):
        # Sampled check only: signed pieces must still describe a nonnegative
        # density.  A probe cannot prove nonnegativity, but catches blunders.
        lo = min(p.lo for p in self.pieces)
        hi = max(min(p.hi, 1e6) for p in self.pieces)
        lo = max(lo, 1e-9)
        grid = np.geomspace(lo, max(hi, lo * 10), 512)
        total = self.density(grid)
        scale = np.max(np.abs([p.c for p in self.pieces]))
        if np.min(total) < -1e-9 * scale:
            raise InvalidMeasure("signed pieces produce a negative total density")

    @cached_property
    def _on_line(self) -> bool:
        """Whether every density piece spans [0, inf)."""
        return all(p.lo == 0.0 and math.isinf(p.hi) for p in self.pieces)

    @cached_property
    def _line_terms(self) -> dict:
        """``_line_moments``' per-order arrays, keyed by (orders, rate
        dimensions) and filled on first use."""
        return {}

    def density(self, z):
        z = np.asarray(z, dtype=float)
        out = np.zeros_like(z)
        for p in self.pieces:
            out = out + p.density(z)
        return out

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "atoms": [{"z": z, "w": w} for z, w in self.atoms],
            "pieces": [
                {
                    "c": p.c,
                    "a": p.a,
                    "b": p.b,
                    "lo": p.lo,
                    "hi": "inf" if math.isinf(p.hi) else p.hi,
                }
                for p in self.pieces
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BernsteinMeasure":
        atoms = tuple((a["z"], a["w"]) for a in d.get("atoms", ()))
        pieces = []
        for p in d.get("pieces", ()):
            hi = p.get("hi", "inf")
            hi = math.inf if hi in ("inf", None) else float(hi)
            pieces.append(DensityPiece(p["c"], p["a"], p["b"], p.get("lo", 0.0), hi))
        return cls(atoms, tuple(pieces))

    # -- common constructors ------------------------------------------------

    @classmethod
    def lebesgue(cls) -> "BernsteinMeasure":
        return cls(pieces=(DensityPiece(1.0, 0.0, 0.0, 0.0, math.inf),))

    @classmethod
    def power(cls, q: float, coeff: float = 1.0, lo: float = 0.0,
              hi: float = math.inf) -> "BernsteinMeasure":
        """Density ``coeff * z**(-q)`` on [lo, hi)."""
        return cls(pieces=(DensityPiece(coeff, -q, 0.0, lo, hi),))

    @classmethod
    def from_atoms(cls, atoms) -> "BernsteinMeasure":
        return cls(atoms=tuple(atoms))


def _gamma_interval(q: float, x1, x2):
    """Incomplete-gamma mass P(q, x2) - P(q, x1) for q > 0, elementwise."""
    # the upper and lower forms are equal in exact arithmetic; take the one
    # computed from the larger operands to limit cancellation
    upper_x1 = special.gammaincc(q, x1)
    return np.where(upper_x1 > 0.5, upper_x1 - special.gammaincc(q, x2),
                    special.gammainc(q, x2) - special.gammainc(q, x1))


def _power_exp_integral(p: float, s, lo: float, hi: float):
    """Integral of z**p * exp(-s*z) over [lo, hi], elementwise in s.

    The caller has validated the rates, s > 0, and integrability at 0,
    lo > 0 or p > -1.  Raises OverflowError where the result exceeds the
    double range.
    """
    if p <= -1.0:
        # no incomplete-gamma form with q > 0: one quadrature per rate
        from scipy import integrate
        return np.vectorize(lambda r: integrate.quad(
            lambda z: z**p * math.exp(-r * z), lo, hi, epsabs=_QUAD_TOL,
            epsrel=_QUAD_TOL, limit=200)[0], otypes=[float])(s)
    q = p + 1.0
    log_full = math.lgamma(q) - q * np.log(s)
    if _greatest(log_full) > _LOG_MAX:
        raise OverflowError("moment exceeds the double range")
    full = np.exp(log_full)
    if lo == 0.0 and math.isinf(hi):
        return full
    return _gamma_interval(q, s * lo, s * hi) * full


def _power_integral(p: float, lo: float, hi: float) -> float:
    """Integral of z**p over [lo, hi] with no exponential factor."""
    if math.isinf(hi) and p >= -1.0:
        raise NonIntegrable("power tail not integrable without decay")
    if lo == 0.0 and p <= -1.0:
        raise NonIntegrable(f"z**{p} not integrable at 0")
    if p == -1.0:
        return math.log(hi / lo)
    hi_term = 0.0 if math.isinf(hi) else hi ** (p + 1.0)
    return (hi_term - lo ** (p + 1.0)) / (p + 1.0)


def laplace_moment(m: BernsteinMeasure, x, k: int = 0):
    """Moment ``integral of z**k * exp(-x*z) dm(z)`` over [0, inf).

    Atoms are summed exactly; each density piece is reduced to incomplete
    gamma functions when the combined power ``a + k`` exceeds -1 and falls
    back to adaptive quadrature (scipy ``quad`` at 1e-10) otherwise.  This
    is the one-order case of ``laplace_moments``.

    Parameters
    ----------
    m : BernsteinMeasure
    x : float or array
        Kernel rates; each must be > 0, or >= 0 when every component stays
        integrable at x = 0.
    k : int
        Polynomial order of the kernel, >= 0.

    Raises
    ------
    NonIntegrable
        If the integral diverges for some x.
    OverflowError
        If a moment exceeds the double range.
    """
    return laplace_moments(m, x, (k,))[0]


def laplace_moments(m: BernsteinMeasure, x, orders):
    """``laplace_moment(m, x, k)`` for each k in ``orders``: a list of one
    float per order for a scalar x, else one array of shape
    ``(len(orders),) + x.shape``.  Row i is bitwise the moment of order
    ``orders[i]``.

    Positive rates against pieces that all span [0, inf) take every order
    in one pass: one (piece, order, rate) array for an array of rates, the
    same operations in Python floats for a scalar.  A zero rate, a
    truncated piece or a quadrature piece takes the per-piece path once per
    order.  Either way the call raises what the first failing order would
    raise alone: on the one-pass path the only failure is OverflowError.
    """
    x = np.asarray(x, dtype=float)[()]
    # the rates are checked once here: a piece with decay b > 0, or any
    # piece when every x > 0, then has only positive rates x + b
    zero_rate = bool(_least(x) <= 0)
    if zero_rate and _any(x < 0):
        raise ValueError("x must be >= 0")
    ks = []
    for k in orders:
        if k < 0 or k != int(k):
            raise ValueError("k must be a nonnegative integer")
        ks.append(int(k))
    if not zero_rate and m._on_line:
        ks = tuple(ks)
        return _line_moments(m, x, ks) if x.ndim else _point_moments(m, x, ks)
    rows = [_moment(m, x, k, zero_rate) for k in ks]
    return np.array(rows) if x.ndim else [float(r) for r in rows]


def _line_terms(m: BernsteinMeasure, ks: tuple[int, ...], ndim: int):
    """The pieces' b, q = a + k + 1, lgamma(q) and c for orders ``ks``,
    cached per measure: for array rates of ``ndim`` dimensions, arrays
    shaped (piece, order, 1, ...); for a scalar rate, b and c as lists and
    q and lgamma(q) as one list per order."""
    terms = m._line_terms.get((ks, ndim))
    if terms is None:
        a, b, c = (np.array([getattr(p, f) for p in m.pieces]) for f in "abc")
        q = (a[:, None] + np.array(ks, dtype=float)) + 1.0
        log_gamma = np.reshape([math.lgamma(v) for v in q.flat], q.shape)
        if ndim:
            ones = (1,) * ndim
            terms = (b.reshape(b.shape + ones), q.reshape(q.shape + ones),
                     log_gamma.reshape(q.shape + ones), c.tolist())
        else:
            terms = (b.tolist(), q.T.tolist(), log_gamma.T.tolist(), c.tolist())
        if len(m._line_terms) < 256:
            m._line_terms[ks, ndim] = terms
    return terms


def _line_moments(m: BernsteinMeasure, x: np.ndarray, ks: tuple[int, ...]):
    """Every order at once for positive array rates and pieces on [0, inf):
    piece i and order k give c_i exp(lgamma(q) - q log(x + b_i)) with
    q = a_i + k + 1, as ``_power_exp_integral`` forms it."""
    total = np.zeros((len(ks),) + x.shape)
    for z, w in m.atoms:
        weights = np.array([w * z**k for k in ks]).reshape(
            (-1,) + (1,) * x.ndim)
        total = total + weights * np.exp(-x * z)
    if not m.pieces:
        return total
    b, q, log_gamma, c = _line_terms(m, ks, x.ndim)
    terms = q * np.log(x + b)[:, None]
    np.subtract(log_gamma, terms, out=terms)
    if _greatest(terms) > _LOG_MAX:
        raise OverflowError("moment exceeds the double range")
    np.exp(terms, out=terms)
    # the pieces are added one by one, in order, as the per-piece path does
    for coeff, term in zip(c, terms):
        total += np.multiply(coeff, term, out=term)
    return total


def _point_moments(m: BernsteinMeasure, x, ks: tuple[int, ...]) -> list:
    """``_line_moments`` for one positive rate, in Python floats, which
    round as numpy's float64 does: numpy's ``log`` and ``exp`` run on each
    float, and no array of one element is built."""
    b, qs, log_gammas, c = _line_terms(m, ks, 0)
    x = float(x)
    log_s = [float(np.log(x + bi)) for bi in b]
    atom_exps = [float(np.exp(-x * z)) for z, _ in m.atoms]
    out = []
    for k, q, log_gamma in zip(ks, qs, log_gammas):
        total = 0.0
        for (z, w), e in zip(m.atoms, atom_exps):
            total = total + w * z**k * e
        for ci, qi, gi, li in zip(c, q, log_gamma, log_s):
            log_full = gi - qi * li
            if log_full > _LOG_MAX:
                raise OverflowError("moment exceeds the double range")
            total = total + ci * float(np.exp(log_full))
        out.append(total)
    return out


def _moment(m: BernsteinMeasure, x, k: int, zero_rate: bool):
    """One order on the per-piece path; ``laplace_moments`` has checked the
    rates and sets ``zero_rate`` when some rate is 0."""
    total = np.zeros(x.shape)[()]
    for z, w in m.atoms:
        total = total + w * z**k * np.exp(-x * z)
    for p in m.pieces:
        s, power = x + p.b, p.a + k
        if zero_rate and p.b == 0.0:
            if math.isinf(p.hi) and power >= -1.0:
                raise NonIntegrable("kernel does not decay and the piece has "
                                    "an infinite-mass tail at x = 0")
            # no decay at x = 0: the plain power integral there (hi < inf)
            zero = s == 0.0
            term = np.where(zero, _power_integral(power, p.lo, p.hi),
                            _power_exp_integral(power, np.where(zero, 1.0, s),
                                                p.lo, p.hi))
        else:
            term = _power_exp_integral(power, s, p.lo, p.hi)
        total = total + p.c * term
    return total


def _piece_exp_difference(p: DensityPiece, s1, s2: float):
    """Integral of t**(a-1) (exp(-s1 t) - exp(-s2 t)) over the piece, per s1."""
    a, lo, hi = p.a, p.lo, p.hi
    if a > 0.0 or a <= -1.0:
        # both halves are separately integrable (a <= -1 forces lo > 0)
        return (_power_exp_integral(a - 1.0, s1, lo, hi)
                - _power_exp_integral(a - 1.0, s2, lo, hi))
    if a == 0.0:
        # 1/t weight: individually log-divergent at 0, the difference is not;
        # exp1(s * inf) is exactly 0, so an infinite hi adds no terms
        if math.isinf(hi):
            return (np.log(s2 / s1) if lo == 0.0
                    else special.exp1(s1 * lo) - special.exp1(s2 * lo))
        if lo == 0.0:
            return np.log(s2 / s1) - special.exp1(s1 * hi) + special.exp1(s2 * hi)
        return (special.exp1(s1 * lo) - special.exp1(s1 * hi)
                - special.exp1(s2 * lo) + special.exp1(s2 * hi))

    # -1 < a < 0: integrate by parts once; the boundary term vanishes at 0, inf
    def boundary(t):
        if t == 0.0 or math.isinf(t):
            return 0.0
        return t**a / a * (np.exp(-s1 * t) - math.exp(-s2 * t))

    inner = (s1 * _power_exp_integral(a, s1, lo, hi)
             - s2 * _power_exp_integral(a, s2, lo, hi))
    return boundary(hi) - boundary(lo) + inner / a


def exp_difference_moment(m: BernsteinMeasure, y, y0: float):
    """Integral of ``(exp(-y*t) - exp(-y0*t)) / t dm(t)`` over (0, inf).

    This is the kernel that turns the measure representation of a derivative
    into differences of the primitive; it requires m({0}) = 0.
    """
    y = np.asarray(y, dtype=float)[()]
    if _any(y <= 0) or y0 <= 0:
        raise ValueError("y and y0 must be positive")
    total = np.zeros(y.shape)[()]
    for z, w in m.atoms:
        if z == 0.0:
            raise NonIntegrable("kernel requires no mass at 0")
        total = total + w * (np.exp(-y * z) - math.exp(-y0 * z)) / z
    for p in m.pieces:
        total = total + p.c * _piece_exp_difference(p, y + p.b, y0 + p.b)
    return float(total) if y.ndim == 0 else total


def mass(m: BernsteinMeasure, lo: float = 0.0, hi: float = math.inf) -> float:
    """Exact mass of ``m`` on the closed interval [lo, hi].

    Returns ``math.inf`` when a density piece has divergent mass inside the
    interval.  Atoms at the endpoints are included.
    """
    if not (0 <= lo <= hi):
        raise ValueError("need 0 <= lo <= hi")
    total = 0.0
    for z, w in m.atoms:
        if lo <= z <= hi:
            total += w
    divergent = []  # (c, a, tail_start) for non-integrable b = 0 tails
    for p in m.pieces:
        a, b = max(lo, p.lo), min(hi, p.hi)
        if b <= a:
            continue
        try:
            if p.b == 0.0:
                part = _power_integral(p.a, a, b)
            else:
                part = float(_power_exp_integral(p.a, p.b, a, b))
        except NonIntegrable:
            divergent.append((p.c, p.a, a))
            continue
        total += p.c * part
    if not divergent:
        return total
    # Signed pieces may cancel at infinity; split each divergent tail at a
    # common start and compare net coefficients by leading exponent.
    start = max(max(s for _, _, s in divergent), 1e-12)
    for c, a, s in divergent:
        if s < start:
            total += c * _power_integral(a, s, start)
    coeffs: dict[float, float] = {}
    for c, a, _ in divergent:
        coeffs[a] = coeffs.get(a, 0.0) + c
    scale = max(abs(c) for c, _, _ in divergent)
    for a in sorted(coeffs, reverse=True):
        net = coeffs.pop(a)
        if net > 1e-12 * scale:
            return math.inf
        if net < -1e-12 * scale:
            raise InvalidMeasure("net density is negative at infinity")
    # exact cancellation of every divergent exponent: nothing left to add
    return total
