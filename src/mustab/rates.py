"""Rate functions mu(t) and time-varying delays tau(t).

Parametric families carry closed-form values, derivatives and a stable
log-value (needed when limits are probed at astronomically large t);
tabulated variants interpolate with a monotone piecewise cubic (PCHIP),
built here in numpy, so the package needs nothing beyond numpy at run time.
"""

from __future__ import annotations

import numpy as np


class RateError(ValueError):
    pass


def power_or_inf(a, b):
    """a ** b on floats, inf where it overflows, as numpy's power gives."""
    try:
        return a ** b
    except OverflowError:
        return np.inf


def _edge_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end knot, kept shape-preserving
    (scipy's ``PchipInterpolator._edge_case``)."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip(x, y):
    """Power-basis coefficients (c0, c1, c2, c3) of the monotone piecewise
    cubic through (x, y), x strictly increasing with at least three knots
    (Fritsch & Carlson 1980); interval k is a polynomial in s = t - x[k].
    Interior slopes are Fritsch & Butland's weighted harmonic mean of the
    neighbouring secants, zero where those change sign or one is zero; the
    end slopes use the three-point rule.  This is scipy's
    ``PchipInterpolator`` in its ``PPoly`` form."""
    h = np.diff(x)
    m = np.diff(y) / h
    a, b = m[:-1], m[1:]
    ok = (np.sign(a) == np.sign(b)) & (a != 0)
    w1 = (2.0 * h[1:] + h[:-1])[ok]
    w2 = (h[1:] + 2.0 * h[:-1])[ok]
    d = np.zeros_like(y)
    d[1:-1][ok] = 1.0 / ((w1 / a[ok] + w2 / b[ok]) / (w1 + w2))
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    c3 = (d[:-1] + d[1:] - 2.0 * m) / h
    return y[:-1], d[:-1], (m - d[:-1]) / h - c3, c3 / h


class _Cubic:
    """The piecewise cubic on knots x with coefficients (c0, c1, c2, c3)
    in s = t - x[k] on interval k; the end intervals extend past x."""

    def __init__(self, x, coeffs):
        self._x = x
        # searching only the interior knots keeps the interval index in range
        self._inner = x[1:-1]
        self._c = coeffs

    def __call__(self, t):
        k = self._inner.searchsorted(t, side="right")
        s = t - self._x[k]
        c0, c1, c2, c3 = self._c
        # Horner in place on the gathered copy c3[k]: a block of delayed
        # lookups allocates one result array, not one per operation
        v = c3[k] * s
        v += c2[k]
        v *= s
        v += c1[k]
        v *= s
        v += c0[k]
        return v

    def derivative(self, t):
        k = self._inner.searchsorted(t, side="right")
        s = t - self._x[k]
        _, c1, c2, c3 = self._c
        return c1[k] + s * (2.0 * c2[k] + s * (3.0 * c3[k]))


class MuFunction:
    """Positive, nondecreasing, unbounded rate function."""

    family = None
    # largest t at which value/log_value are meaningful (inf for closed forms)
    t_max = np.inf

    def value(self, t):
        raise NotImplementedError

    def derivative(self, t):
        raise NotImplementedError

    def log_value(self, t):
        return np.log(self.value(t))

    def _check_t(self, t):
        if np.any(np.asarray(t) < 0):
            raise RateError("mu is defined for t >= 0")


class ExponentialMu(MuFunction):
    family = "exp"

    def __init__(self, eps):
        self.eps = float(eps)
        if not 0.0 < self.eps < np.inf:
            raise RateError("exp rate requires a finite eps > 0")

    def value(self, t):
        self._check_t(t)
        return np.exp(self.eps * np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.eps * self.value(t)

    def log_value(self, t):
        self._check_t(t)
        return self.eps * np.asarray(t, dtype=float)


class PowerMu(MuFunction):
    family = "power"

    def __init__(self, beta):
        self.beta = float(beta)
        if not 0.0 < self.beta < np.inf:
            raise RateError("power rate requires a finite beta > 0")

    def value(self, t):
        self._check_t(t)
        return (1.0 + np.asarray(t, dtype=float)) ** self.beta

    def derivative(self, t):
        self._check_t(t)
        return self.beta * (1.0 + np.asarray(t, dtype=float)) ** (self.beta - 1.0)

    def log_value(self, t):
        self._check_t(t)
        return self.beta * np.log1p(np.asarray(t, dtype=float))


class LogMu(MuFunction):
    family = "log"

    def value(self, t):
        self._check_t(t)
        return np.log1p(np.asarray(t, dtype=float))

    def derivative(self, t):
        self._check_t(t)
        return 1.0 / (1.0 + np.asarray(t, dtype=float))

    def log_value(self, t):
        self._check_t(t)
        return np.log(np.log1p(np.asarray(t, dtype=float)))


class LogLogMu(MuFunction):
    family = "loglog"

    def value(self, t):
        self._check_t(t)
        return np.log(np.log(np.asarray(t, dtype=float) + 3.0))

    def derivative(self, t):
        self._check_t(t)
        t = np.asarray(t, dtype=float)
        return 1.0 / ((t + 3.0) * np.log(t + 3.0))

    def log_value(self, t):
        self._check_t(t)
        return np.log(np.log(np.log(np.asarray(t, dtype=float) + 3.0)))


class TabulatedMu(MuFunction):
    family = "table"

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape or len(times) < 4:
            raise RateError("tabulated mu needs >= 4 (t, mu) samples")
        if not (np.isfinite(times).all() and np.isfinite(values).all()):
            raise RateError("tabulated mu samples must be finite")
        if (np.diff(times) <= 0).any():
            raise RateError("tabulated mu times must be strictly increasing")
        if (values <= 0).any() or (np.diff(values) < 0).any():
            raise RateError("tabulated mu must be positive and nondecreasing")
        # unboundedness cannot be checked from a finite table; require the
        # last decade of samples to still be trending up
        decade = times >= times[-1] / 10.0
        if decade.sum() >= 2 and values[decade][-1] <= values[decade][0]:
            raise RateError("tabulated mu is flat over its last decade")
        self._interp = _Cubic(times, _pchip(times, values))
        self.t_min = times[0]
        self.t_max = times[-1]

    def _check_t(self, t):
        super()._check_t(t)
        if np.any(np.asarray(t) > self.t_max):
            raise RateError("t beyond tabulated mu domain")

    def value(self, t):
        self._check_t(t)
        return self._interp(np.clip(t, self.t_min, self.t_max))

    def derivative(self, t):
        self._check_t(t)
        return self._interp.derivative(np.clip(t, self.t_min, self.t_max))


class DelayFunction:
    """Time-varying delay tau(t); delayed time is d(t) = t - tau(t)."""

    family = None
    t_min = 0.0
    t_max = np.inf

    def tau(self, t):
        self._check_t(t)
        t = np.asarray(t, dtype=float)
        return t - self.d(t)

    def delayed_time(self, t):
        self._check_t(t)
        return self.d(np.asarray(t, dtype=float))

    def d(self, t):
        """d(t) without the domain check, for a caller that checked the
        whole range it evaluates on once (the integrator)."""
        raise NotImplementedError

    def d_inverse(self, b):
        """The time t >= b at which d(t) = b, for d nondecreasing: the delay
        breakpoint that follows b.  b itself when d(b) = b, inf when d stays
        below b on the domain.  A bracket that doubles, then narrowed 32-fold
        at a time by evaluating d on a grid of it."""
        gap = b - float(self.d(b))
        if not gap > 0.0:
            return b
        lo, hi = b, min(b + gap, self.t_max)
        while self.d(hi) < b:
            if hi >= self.t_max:
                return np.inf
            lo, gap = hi, 2.0 * gap
            hi = min(b + gap, self.t_max)
        while hi - lo > 4.0 * np.spacing(hi):
            grid = np.linspace(lo, hi, 33)
            k = int(np.searchsorted(self.d(grid), b))
            lo, hi = grid[max(k - 1, 0)], grid[k]
        return float(hi)

    def _check_t(self, t):
        t = np.asarray(t)
        if np.any(t < self.t_min) or np.any(t > self.t_max):
            raise RateError(
                "%s delay is valid on [%g, %g]" % (self.family, self.t_min, self.t_max)
            )


class BoundedDelay(DelayFunction):
    family = "bounded"

    def __init__(self, tau_max):
        self.tau_max = float(tau_max)
        if not 0.0 <= self.tau_max < np.inf:
            raise RateError("bounded delay requires a finite tau_max >= 0")

    def d(self, t):
        return t - self.tau_max

    def d_inverse(self, b):
        return b + self.tau_max


class ProportionalDelay(DelayFunction):
    family = "proportional"

    def __init__(self, q):
        self.q = float(q)
        if not 0.0 < self.q < 1.0:
            raise RateError("proportional delay requires q in (0, 1)")

    def d(self, t):
        return self.q * t

    def d_inverse(self, b):
        return b / self.q


class LogFractionDelay(DelayFunction):
    """tau(t) = t - t/ln(t); nonnegative with d(t) <= t only from t = e on."""

    family = "logfraction"
    t_min = float(np.e)

    def d(self, t):
        return t / np.log(t)


class PowerLagDelay(DelayFunction):
    """tau(t) = t - t**alpha; tau >= 0 requires t >= 1."""

    family = "powerlag"
    t_min = 1.0

    def __init__(self, alpha):
        self.alpha = float(alpha)
        if not 0.0 < self.alpha < 1.0:
            raise RateError("powerlag delay requires alpha in (0, 1)")

    def d(self, t):
        return t ** self.alpha

    def d_inverse(self, b):
        return power_or_inf(b, 1.0 / self.alpha)


class TabulatedDelay(DelayFunction):
    family = "table"

    def __init__(self, times, taus):
        times = np.asarray(times, dtype=float)
        taus = np.asarray(taus, dtype=float)
        if times.ndim != 1 or times.shape != taus.shape or len(times) < 4:
            raise RateError("tabulated delay needs >= 4 (t, tau) samples")
        if not (np.isfinite(times).all() and np.isfinite(taus).all()):
            raise RateError("tabulated delay samples must be finite")
        if (np.diff(times) <= 0).any():
            raise RateError("tabulated delay times must be strictly increasing")
        if (taus < 0).any():
            raise RateError("tabulated delay must be nonnegative")
        # d(t) = t - tau(t) is itself a cubic on each interval: t = x[k] + s
        c0, c1, c2, c3 = _pchip(times, taus)
        _, e1, e2, e3 = coeffs = (times[:-1] - c0, 1.0 - c1, -c2, -c3)
        # d(t) must be nondecreasing (to 1e-9, for the rounding of a constant
        # d): on interval k, d' = e1 + 2 e2 s + 3 e3 s^2 over s in [0, h_k]
        # is least at an end or at its vertex
        h = np.diff(times)
        vertex = np.clip(np.divide(-e2, 3.0 * e3, out=np.zeros_like(h), where=e3 > 0.0), 0.0, h)
        slope = np.min([e1 + s * (2.0 * e2 + s * (3.0 * e3)) for s in (0.0, h, vertex)], axis=0)
        bad = np.flatnonzero(slope < -1e-9)
        if len(bad):
            raise RateError("'tau' makes d(t) = t - tau(t) decrease on [%g, %g]"
                            % (times[bad[0]], times[bad[0] + 1]))
        self._d = _Cubic(times, coeffs)
        self.t_min = times[0]
        self.t_max = times[-1]

    def d(self, t):
        return self._d(t)


# each family's class and the parameters of its document form, in the
# order the class takes them
_MU_FAMILIES = {
    "exp": (ExponentialMu, ("eps",)),
    "power": (PowerMu, ("beta",)),
    "log": (LogMu, ()),
    "loglog": (LogLogMu, ()),
    "table": (TabulatedMu, ("t", "mu")),
}
_DELAY_FAMILIES = {
    "bounded": (BoundedDelay, ("tau_max",)),
    "proportional": (ProportionalDelay, ("q",)),
    "logfraction": (LogFractionDelay, ()),
    "powerlag": (PowerLagDelay, ("alpha",)),
    "table": (TabulatedDelay, ("t", "tau")),
}


def _make(spec, families, kind):
    fam = spec.get("family")
    if not isinstance(fam, str) or fam not in families:
        raise RateError("unknown %s family %r" % (kind, fam))
    cls, keys = families[fam]
    for key in spec:
        if key != "family" and key not in keys:
            raise RateError("unknown key %r" % key)
    args = []
    for key in keys:
        if key not in spec:
            raise RateError("missing key %r" % key)
        v = spec[key]
        # JSON numbers (a list of them for a table), not true, false or strings
        if not all(isinstance(u, (int, float)) and not isinstance(u, bool)
                   for u in (v if fam == "table" and isinstance(v, list) else [v])):
            raise RateError("%r must be a number" % key)
        args.append(v)
    return cls(*args)


def make_mu(spec: dict) -> MuFunction:
    """Build a MuFunction from its document form {"family": ..., params}."""
    return _make(spec, _MU_FAMILIES, "mu")


def make_delay(spec: dict) -> DelayFunction:
    """Build a DelayFunction from its document form {"family": ..., params}."""
    return _make(spec, _DELAY_FAMILIES, "delay")
