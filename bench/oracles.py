"""Reference checks for the benchmark's operation outputs.

Every check returns ``None`` when the output is right and a one-line reason
when it is not.  References come from closed forms and mathematical
identities, never from running the code under test a second time, so a
correctness fix in the program can only turn a failure into a pass.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-6
ABS_TOL = 1e-12

# lognormal presets: deflator exp(N(-kappa/2, kappa)), as MarketModel.lognormal
KAPPAS = (0.25, 0.5, 1.0, 2.0, 4.0)


def close(got, want, rel=REL_TOL, abs_tol=ABS_TOL) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and math.isclose(got, want, rel_tol=rel, abs_tol=abs_tol))


def _mismatch(what, got, want):
    return f"{what}: got {got!r}, want {want!r}"


# -- closed forms -------------------------------------------------------------


def lognormal_power_moment(kappa: float, q: float) -> float:
    """E[Y**q] for Y = exp(N(-kappa/2, kappa)): exp(q*m + q**2 s**2 / 2)."""
    return math.exp(-q * kappa / 2.0 + q * q * kappa / 2.0)


def falling(a: float, k: int) -> float:
    """a (a-1) ... (a-k+1)."""
    out = 1.0
    for j in range(k):
        out *= a - j
    return out


class PowerClosedForm:
    """U(x) = x**p / p under the lognormal preset kappa.

    V(y) = -y**q / q with q = p/(p-1), so v(y) = -M y**q / q with
    M = E[Y**q], u'(x) = M**(1-p) x**(p-1) and u(x) = M**(1-p) x**p / p.
    """

    def __init__(self, p: float, kappa: float):
        self.p = p
        self.kappa = kappa
        self.q = p / (p - 1.0)
        self.M = lognormal_power_moment(kappa, self.q)

    def v(self, k: int, y: float) -> float:
        if k == 0:
            return -self.M * y**self.q / self.q
        return -self.M * falling(self.q - 1.0, k - 1) * y ** (self.q - k)

    def u(self, k: int, x: float) -> float:
        c = self.M ** (1.0 - self.p)
        if k == 0:
            return c * x**self.p / self.p
        return c * falling(self.p - 1.0, k - 1) * x ** (self.p - k)

    def terminal(self, x: float, deflator: float) -> float:
        """Optimal wealth X_T = (u'(x) Y)**(1/(p-1)) = x Y**(1/(p-1)) / M."""
        return x * deflator ** (1.0 / (self.p - 1.0)) / self.M

    def widder(self, z: float, n: int) -> float:
        """Post-Widder approximant of order n for -v'(y) = M y**-a, a = 1/(1-p).

        The approximant of a power is itself closed form:
        M z**a Gamma(a+n) n**(1-a) / (Gamma(a+1) Gamma(n+1)).
        """
        a = 1.0 / (1.0 - self.p)
        log = (math.lgamma(a + n) + (1.0 - a) * math.log(n)
               - math.lgamma(a + 1.0) - math.lgamma(n + 1.0))
        return self.M * z**a * math.exp(log)


class LogClosedForm:
    """U = log: v(y) = -log y - E[log Y] - 1, u'(x) = 1/x, X_T = x / Y_T."""

    def __init__(self, kappa: float):
        self.kappa = kappa

    def v(self, k: int, y: float) -> float:
        if k == 0:
            return -math.log(y) + self.kappa / 2.0 - 1.0
        return (-1.0) ** k * math.factorial(k - 1) * y ** (-k)

    def terminal(self, x: float, deflator: float) -> float:
        return x / deflator

    def widder(self, z: float, n: int) -> float:
        # -v'(y) = 1/y is the Laplace transform of Lebesgue measure, and the
        # approximant of a constant density is exact at every order
        return z


class MixtureClosedForm:
    """V(y) = sum_j c_j exp(-z_j y) against a discrete deflator law."""

    def __init__(self, zs, cs, xs, ps):
        self.zs, self.cs, self.xs, self.ps = zs, cs, xs, ps

    def v(self, k: int, y: float) -> float:
        return sum(p * x**k * c * (-z) ** k * math.exp(-z * y * x)
                   for x, p in zip(self.xs, self.ps)
                   for z, c in zip(self.zs, self.cs))


# -- checks on solve rows and optimizer tables --------------------------------


def check_solve_row(row, order: int, form=None, rel=REL_TOL):
    """Columns x, u, u_1..u_n, y, v, v_1..v_n of one solve row.

    With a closed form the v columns and the root -v'(y) = x are checked
    against it; without one the identities between the columns are checked:
    u_1 = y, u = v + x y, -v_1 = x and the inverse-function relations
    u_2 = -1/v_2, u_3 = -v_3/v_2**3, u_4 = v_4/v_2**4 - 3 v_3**2/v_2**5.
    A closed form that knows u (the power utility) also checks the u columns.
    """
    if len(row) != 2 * order + 4 or not all(
            isinstance(v, (int, float)) and math.isfinite(v) for v in row):
        return f"malformed or non-finite row {row!r}"
    x, u, us = row[0], row[1], row[2:2 + order]
    y, v, vs = row[2 + order], row[3 + order], row[4 + order:]
    if form is not None:
        want = [form.v(k, y) for k in range(order + 1)]
        for k, (got, ref) in enumerate(zip([v, *vs], want)):
            if not close(got, ref, rel):
                return _mismatch(f"v_{k} at y={y}", got, ref)
        v, vs = want[0], want[1:]
    if not close(-vs[0], x, rel):
        return _mismatch("-v'(y) against x", -vs[0], x)
    if not close(us[0], y, rel):
        return _mismatch("u_1 against y", us[0], y)
    if not close(u, v + x * y, rel):
        return _mismatch("u against v + x y", u, v + x * y)
    v2 = vs[1] if order >= 2 else None
    expected = []
    if order >= 2:
        expected.append(-1.0 / v2)
    if order >= 3:
        expected.append(-vs[2] / v2**3)
    if order >= 4:
        expected.append(vs[3] / v2**4 - 3.0 * vs[2] ** 2 / v2**5)
    for k, ref in enumerate(expected, start=2):
        if not close(us[k - 1], ref, rel):
            return _mismatch(f"u_{k}", us[k - 1], ref)
    if hasattr(form, "u"):
        for k, got in enumerate([u, *us]):
            if not close(got, form.u(k, x), rel):
                return _mismatch(f"u_{k} at x={x} against the closed form",
                                 got, form.u(k, x))
    return None


def check_rows(rows, order: int, form=None):
    return next((f for f in (check_solve_row(r, order, form) for r in rows)
                 if f), None)


def check_terminal_table(x, deflator, weights, values, derivs, form=None,
                         rel=REL_TOL):
    """Optimal terminal wealth and its x-derivatives, per outcome.

    Always: the budget identity E[Y X_T] = x and, differentiated,
    E[Y dX_T/dx] = 1 and E[Y d^n X_T/dx^n] = 0 for n >= 2.  With a closed
    form (log or power, where X_T is linear in x) also X_T per outcome,
    dX_T/dx = X_T / x and every higher derivative 0.
    """
    def budget(vals):
        terms = [w * d * v for w, d, v in zip(weights, deflator, vals)]
        return sum(terms), 1e-8 * (1.0 + sum(abs(t) for t in terms))

    if not all(math.isfinite(v) for col in (values, *derivs) for v in col):
        return "non-finite optimizer value"
    for n, col in enumerate([values, *derivs]):
        want = x if n == 0 else 1.0 if n == 1 else 0.0
        got, tol = budget(col)
        if not close(got, want, 1e-8, tol):
            return _mismatch(f"budget E[Y d^{n}X_T/dx^{n}]", got, want)
    if form is not None:
        for d, val, *ds in zip(deflator, values, *derivs):
            ref = form.terminal(x, d)
            if not close(val, ref, rel):
                return _mismatch(f"X_T at deflator {d}", val, ref)
            for n, got in enumerate(ds, start=1):
                want = ref / x if n == 1 else 0.0
                if not close(got, want, rel, 1e-7 * max(1.0, abs(ref))):
                    return _mismatch(f"d^{n}X_T at deflator {d}", got, want)
    return None


def check_widder(mass, z, n, form=None, rel=1e-6):
    """Approximant against its closed form, else 0 < mass <= z.

    The bound holds for the footnote utility: its inverse marginal has a
    density 1 - exp(-z) <= 1, mixing over the deflator keeps the density in
    [0, 1], and the approximant averages that density.
    """
    if not (isinstance(mass, float) and math.isfinite(mass)):
        return f"non-finite mass {mass!r}"
    if form is not None:
        want = form.widder(z, n)
        return None if close(mass, want, rel) else _mismatch(
            f"widder mass at z={z}, n={n}", mass, want)
    if not (0.0 < mass <= z * (1.0 + 1e-9)):
        return f"widder mass {mass} outside (0, {z}]"
    return None


def check_rra_identity(x, marginal, second, k=1, rel=1e-8):
    """A(x) B(U'(x)) = 1 for the footnote utility of index k.

    A(x) = -x U''(x) / U'(x) from the utility's own derivatives and the
    closed-form relative risk tolerance B(y) = k + y / (y + 1).
    """
    if not (math.isfinite(marginal) and math.isfinite(second)):
        return "non-finite marginal or second derivative"
    a = -x * second / marginal
    b = k + marginal / (marginal + 1.0)
    return None if close(a * b, 1.0, rel) else _mismatch(
        f"A(x) B(U'(x)) at x={x}", a * b, 1.0)


# -- verdict checks -----------------------------------------------------------


def check_verdict(verdict: str, want: str):
    return None if verdict == want else _mismatch("verdict", verdict, want)


def check_nesting(verdicts):
    """Order n implies order n+1 and infinite order.

    ``verdicts`` maps orders (integers or their strings, and "inf") to
    "dominates"/"violated".
    """
    verdicts = {k if k == "inf" else int(k): v for k, v in verdicts.items()}
    orders = sorted(k for k in verdicts if k != "inf")
    for lo in orders:
        if verdicts[lo] != "dominates":
            continue
        for hi in [k for k in orders if k > lo] + (
                ["inf"] if "inf" in verdicts else []):
            if verdicts[hi] != "dominates":
                return f"order {lo} dominates but order {hi} is violated"
    return None


def check_scale_invariance(base, scaled):
    """Verdicts of a pair and of the same pair rescaled must coincide."""
    flips = [k for k in base if base[k] != scaled.get(k)]
    return None if not flips else "rescaling flipped the verdict at order " \
        + ",".join(str(k) for k in flips)


def check_equivalence(report: dict):
    """When some vertex passes the conditional criterion the three verdicts
    must agree on every candidate (the paper's equivalence theorem)."""
    if report["maximal_exists"] and not report["all_agree"]:
        return "a maximal vertex exists but the three verdicts disagree"
    return None


def check_cex2(report: dict):
    gap, margin = report.get("gap"), report.get("margin")
    if not (isinstance(gap, float) and gap > 0):
        return f"cex2 gap {gap!r} is not > 0"
    if not (isinstance(margin, float) and margin > 0):
        return f"cex2 margin {margin!r} is not > 0"
    return None


def check_cex1(report: dict):
    if report.get("diverges") is not True:
        return "cex1 does not report divergence"
    finite = report.get("finite_orders_at_1", {})
    if not finite or not all(math.isfinite(v) for v in finite.values()):
        return "cex1 lower-order sums are missing or non-finite"
    return None


def check_laplace_probe(values):
    """E[exp(-z xi)] of any law lies in (0, 1] and is finite."""
    bad = [z for z, v in values if not (math.isfinite(v) and 0.0 < v <= 1.0)]
    return None if not bad else f"Laplace value not in (0, 1] at z={bad}"


# -- CLI checks ---------------------------------------------------------------


def _json(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_cli(sub: str, code: int, stdout: str, content=None):
    """Exit code consistent with the printed JSON, then ``content`` on it.

    Exit codes: 0 pass, 1 verdict fail, 2 input error, 3 numerical failure.
    """
    payload = _json(stdout)
    if payload is None:
        return f"exit {code} with no JSON output"
    if sub == "dominance":
        want = 0 if payload.get("verdict") == "dominates" else 1
    elif sub == "audit":
        want = 0 if payload.get("ok") else 1
    elif sub == "cex1":
        want = 0 if payload.get("diverges") else 1
    elif sub == "sd-equiv":
        ok = payload.get("all_agree") or not payload.get("maximal_exists")
        want = 0 if ok else 1
    else:
        want = 0
    if code != want:
        return f"exit code {code} but the output implies {want}"
    return content(payload) if content else None
