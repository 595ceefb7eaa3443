"""Computations made apart from mustab, used to check its outputs.

Nothing here imports mustab.  Fields are read straight from the document
JSON (``[[{"c": coeff, "e": [exponents]}, ...], ...]``), thresholds are
classified exactly with ``fractions.Fraction`` from the document's decimal
inputs, margins are taken on the original fields at ``xi**r`` (no change of
variables), and delayed systems are integrated by the method of steps with
``scipy.integrate.solve_ivp``.
"""

from __future__ import annotations

import bisect
import json
import math
from fractions import Fraction

import numpy as np

# scipy.integrate and scipy.optimize are imported where they are used, so
# that importing this module adds nothing to the measured set-up time

INF = math.inf


# --------------------------------------------------------------- fields --

class Field:
    """A monomial vector field ``x -> sum_k c_k x**E_k`` added into
    component ``K_k``; ``0**0`` is 1."""

    def __init__(self, comps, n):
        rows, coeffs, owner = [], [], []
        for i, terms in enumerate(comps):
            for term in terms:
                rows.append([float(v) for v in term["e"]])
                coeffs.append(float(term["c"]))
                owner.append(i)
        self.n = n
        self.E = np.asarray(rows, dtype=float).reshape(len(rows), n)
        self.C = np.asarray(coeffs, dtype=float)
        self.K = np.asarray(owner, dtype=int)

    def __call__(self, x, absolute=False):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            mono = np.prod(np.power(x[None, :], self.E), axis=1)
        c = np.abs(self.C) if absolute else self.C
        return np.bincount(self.K, weights=c * mono, minlength=self.n)


def exact_doc(text):
    """The document with every decimal read as an exact Fraction."""
    return json.loads(text, parse_float=Fraction)


def exact_degree(comps, r):
    """Exact homogeneity degree p of a field under the weights r:
    ``sum_j e_j r_j - r_i`` for every monomial of component i.  Returns
    (p, homogeneous); p is None for the zero map, which has every degree."""
    r = [Fraction(v) for v in r]
    degrees = {
        sum(Fraction(e) * rj for e, rj in zip(term["e"], r)) - r[i]
        for i, terms in enumerate(comps) for term in terms
    }
    if not degrees:
        return None, True
    if len(degrees) > 1:
        return None, False
    return degrees.pop(), True


# --------------------------------------------------- rates and delays --

def mu_value(spec, t):
    """Closed-form gauge mu(t) of a parametric family."""
    t = np.asarray(t, dtype=float)
    fam = spec["family"]
    if fam == "exp":
        return np.exp(float(spec["eps"]) * t)
    if fam == "power":
        return (1.0 + t) ** float(spec["beta"])
    if fam == "log":
        return np.log1p(t)
    if fam == "loglog":
        return np.log(np.log(t + 3.0))
    raise ValueError("no closed form for mu family %r" % fam)


def delay_functions(spec):
    """(d, inverse) for a delay spec: the delayed time d(t) = t - tau(t)
    and the time at which d reaches a given value (the end of a method of
    steps segment)."""
    fam = spec["family"]
    if fam == "bounded":
        tau = float(spec["tau_max"])
        return (lambda t: t - tau), (lambda s: s + tau)
    if fam == "proportional":
        q = float(spec["q"])
        return (lambda t: q * t), (lambda s: s / q)
    if fam == "powerlag":
        a = float(spec["alpha"])
        return (lambda t: t ** a), (lambda s: s ** (1.0 / a))
    if fam == "logfraction":
        def d(t):
            return t / math.log(t)
        return d, lambda s: _invert(d, s, max(s, math.e))
    if fam == "table":
        from scipy.interpolate import PchipInterpolator

        times = np.asarray(spec["t"], dtype=float)
        tau = PchipInterpolator(times, np.asarray(spec["tau"], dtype=float))

        def d(t):
            return float(t - tau(t))
        return d, lambda s: _invert(d, s, s, times[-1])
    raise ValueError("unknown delay family %r" % fam)


def _invert(d, s, lo, hi=None):
    """Smallest-bracket root of d(t) = s for an increasing d with d(lo) <= s."""
    from scipy.optimize import brentq

    if d(lo) >= s:
        return lo
    if hi is None:
        hi = 2.0 * lo
        while d(hi) < s:
            hi *= 2.0
    elif d(hi) < s:
        return hi
    return brentq(lambda t: d(t) - s, lo, hi, xtol=1e-13, rtol=1e-15)


# ------------------------------------------------------ limit table --

def exact_limits(mu, delay, s):
    """Closed-form limit pair (L, D) of a parametric (mu, delay) family
    pair, with s = p/r_star an exact Fraction.

    L = lim mu(t)/mu(d(t)) and D = lim mu'(t)/mu(t)**(1 - s).  The
    thresholds s == 0 (exp) and beta*s == 1 (power) are decided exactly.
    """
    mf, df = mu["family"], delay["family"]
    if mf == "exp":
        eps = Fraction(mu["eps"])
        L = math.exp(float(eps) * float(delay["tau_max"])) if df == "bounded" else INF
        D = float(eps) if s == 0 else INF
    elif mf == "power":
        beta = Fraction(mu["beta"])
        if df == "bounded":
            L = 1.0
        elif df == "proportional":
            L = float(delay["q"]) ** (-float(beta))
        else:
            L = INF
        bs = beta * s
        D = 0.0 if bs < 1 else (float(beta) if bs == 1 else INF)
    elif mf == "log":
        L = 1.0 / float(delay["alpha"]) if df == "powerlag" else 1.0
        D = 0.0
    elif mf == "loglog":
        L, D = 1.0, 0.0
    else:
        raise ValueError("no closed-form limits for mu family %r" % mf)
    return L, D


def margins(f, g, xi, r, r_star, p, L, D):
    """Stability margins from the original fields:
    ``(r*/r_j) [f_j(xi^r)/xi_j^{r_j} + L^((p+1)/r*) g_j(xi^r)/xi_j^{r_j}] + D``.

    Returns (margins, scale); scale bounds the size of the terms that were
    summed, for a rounding tolerance.
    """
    xi = np.asarray(xi, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (math.isfinite(L) and math.isfinite(D)):
        return np.full(len(xi), INF), np.full(len(xi), INF)
    xr = xi ** r
    lfac = L ** ((float(p) + 1.0) / float(r_star))
    w = float(r_star) / r / xr
    m = w * (f(xr) + lfac * g(xr)) + D
    scale = w * (f(xr, absolute=True) + lfac * g(xr, absolute=True)) + abs(D)
    return m, scale


# ----------------------------------------------- reference DDE solver --

class MethodOfSteps:
    """Solution of ``x' = f(x(t)) + g(x(d(t)))`` with history ``phi0`` on
    ``(-inf, t0]``, built segment by segment.

    On a segment ``[a, b]`` with ``d(b) = a`` the delayed state is already
    known (history or earlier segments), so each segment is an ODE solved
    by ``solve_ivp`` with dense output.  A delay that vanishes at ``t0``
    makes those segments shrink to nothing; for that case ``head`` names the
    end of a first segment that is solved by Picard iteration instead, each
    sweep reading the delayed state from the previous sweep.
    """

    def __init__(self, f, g, d, inverse, phi0, t0, rtol=1e-10, atol=1e-14,
                 method="DOP853"):
        self.f, self.g, self.d, self.inverse = f, g, d, inverse
        self.phi0 = np.asarray(phi0, dtype=float)
        self.t0 = float(t0)
        self.opts = dict(method=method, rtol=rtol, atol=atol, dense_output=True)
        self.starts, self.sols = [], []
        self.end = self.t0
        self.x_end = self.phi0.copy()

    def __call__(self, t):
        if t <= self.t0 or not self.sols:
            return self.phi0
        if t > self.end + 1e-9 * max(1.0, abs(self.end)):
            raise ValueError("t=%g beyond the solved range (%g)" % (t, self.end))
        k = max(bisect.bisect_right(self.starts, t) - 1, 0)
        return self.sols[k](t)

    def _segment(self, a, b, past):
        from scipy.integrate import solve_ivp

        def rhs(t, x):
            x = np.maximum(x, 0.0)
            return self.f(x) + self.g(past(self.d(t)))

        sol = solve_ivp(rhs, (a, b), self.x_end, **self.opts)
        if sol.status != 0:
            raise RuntimeError("solve_ivp failed on [%g, %g]: %s" % (a, b, sol.message))
        return sol

    def _append(self, a, sol):
        self.starts.append(a)
        self.sols.append(sol.sol)
        self.end = float(sol.t[-1])
        self.x_end = sol.y[:, -1].copy()

    def head(self, b, sweeps=200, tol=1e-13):
        """Solve [t0, b] by Picard sweeps until they agree to ``tol``."""
        a = self.end
        grid = np.linspace(a, b, 257)
        prev, prev_vals = None, None
        for _ in range(sweeps):
            def past(s, prev=prev):
                if s <= a:
                    return self(s)
                return self.x_end if prev is None else prev(min(s, b))

            sol = self._segment(a, b, past)
            vals = sol.sol(grid)
            if prev_vals is not None and np.max(
                    np.abs(vals - prev_vals)) <= tol * max(1.0, np.max(np.abs(vals))):
                self._append(a, sol)
                return self
            prev, prev_vals = sol.sol, vals
        raise RuntimeError("Picard sweeps on [%g, %g] did not settle" % (a, b))

    def run(self, t_end):
        """Continue by the method of steps up to ``t_end``."""
        while self.end < t_end:
            a = self.end
            b = min(self.inverse(a), t_end)
            if not b > a:
                raise RuntimeError("no progress at t=%g: the delay vanishes" % a)
            self._append(a, self._segment(a, b, self))
        return self


# test_6's frozen oracle x(1e6) of examples/paper_sec5.json, which
# reference_x remakes (python3 benchmark/oracle.py reference)
REFERENCE_X_1E6 = (0.192929, 0.0466025)


def reference_x(doc):
    """x(t_end) of the reference document (paper section 5).  Its delay
    t - t/ln(t) vanishes at t_start = e, so [e, 3.5] is solved by Picard
    sweeps; the method of steps goes on with Radau, since the problem is
    stiff at large t."""
    n = doc["n"]
    d, inverse = delay_functions(doc["delay"])
    sol = MethodOfSteps(Field(doc["f"], n), Field(doc["g"], n), d, inverse,
                        doc["history"]["phi0"], float(doc["sim"]["t_start"]),
                        rtol=1e-9, method="Radau")
    t_end = float(doc["sim"]["t_end"])
    return sol.head(3.5).run(t_end)(t_end)


def solve_document(doc, t_end=None, **opts):
    """Reference solution of a (JSON-decoded) system document from its
    ``sim.t_start``; the delay must be positive there."""
    n = doc["n"]
    d, inverse = delay_functions(doc["delay"])
    sol = MethodOfSteps(Field(doc["f"], n), Field(doc["g"], n), d, inverse,
                        doc["history"]["phi0"], float(doc["sim"]["t_start"]), **opts)
    return sol.run(float(t_end if t_end is not None else doc["sim"]["t_end"]))
