"""Truncated power series: composition and reversion.

A series is the list [c_0, c_1, ..., c_n] of its Taylor coefficients at a
point.  A coefficient may be any number that supports + - * / (a float, an
exact Fraction) or a numpy array, one series per element.  The coefficient
of s**m in g(h(s)) is Faa di Bruno's sum over the partitions of m, so a
composition gives every derivative of a composite without listing a
partition (Knuth, TAOCP vol. 2, sec. 4.7; Brent and Kung, J. ACM 25, 1978).
"""

from __future__ import annotations

__all__ = ["compose", "revert"]


def compose(outer, inner):
    """Series of g(h(s)) at s = 0, as long as the shorter argument.

    ``outer`` holds g's coefficients at h(0) and ``inner`` h's at 0, whose
    constant term is not read.  Coefficient m is sum_k outer[k] P_k[m] with
    P_k = (h - h(0))**k; outer[1] * inner[1] is the first-order term, as
    the chain rule writes it.
    """
    n = min(len(outer), len(inner))
    out = list(outer[:1]) + [outer[1] * h for h in inner[1:n]]
    last = inner  # P_1
    for k in range(2, n):
        last = [None] * k + [_power_term(inner, last, k, m)
                             for m in range(k, n)]
        for m in range(k, n):
            out[m] = out[m] + outer[k] * last[m]
    return out


def revert(a):
    """Series of f's inverse at f(t0), as long as ``a``, f's series at t0.

    a[0] is not read and a[1] must not vanish; the result b has b[0] = 0,
    so compose(a, b) is [a[0], 1, 0, ...].  Coefficient m of a(b(s)) reads
    b[m] only through a[1] b[m], and its other terms sum_k a[k] P_k[m],
    P_k = b(s)**k with k >= 2, read b[1..m-1] alone, so b[m] follows from
    the coefficients before it.
    """
    n = len(a)
    b = [0] * n
    if n > 1:
        b[1] = 1 / a[1]
    power = [None, b] + [[0] * n for _ in range(2, n)]  # power[k] = P_k
    for m in range(2, n):
        rest = 0
        for k in range(2, m + 1):
            power[k][m] = _power_term(b, power[k - 1], k, m)
            rest = rest + a[k] * power[k][m]
        b[m] = -rest / a[1]
    return b


def _power_term(h, last, k, m):
    """[s**m] of H**k, from last = H**(k-1), H = h - h(0), m >= k >= 2."""
    acc = h[1] * last[m - 1]
    for j in range(2, m - k + 2):
        acc = acc + h[j] * last[m - j]
    return acc
