"""Rate functions mu(t) and time-varying delays tau(t).

Parametric families carry closed-form values, derivatives and a stable
log-value (needed when limits are probed at astronomically large t);
tabulated variants interpolate with a monotone piecewise cubic.
"""

from __future__ import annotations

import numpy as np


class RateError(ValueError):
    pass


def _pchip(times, values):
    """The monotone piecewise cubic through (times, values).  scipy is
    imported here, not with the module: only tables need it, and loading
    it costs most of the package's import time."""
    from scipy.interpolate import PchipInterpolator

    return PchipInterpolator(times, values)


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

    def params(self):
        return {}

    def to_dict(self):
        return {"family": self.family, **self.params()}


class ExponentialMu(MuFunction):
    family = "exp"

    def __init__(self, eps):
        self.eps = float(eps)
        if self.eps <= 0:
            raise RateError("exp rate requires eps > 0")

    def value(self, t):
        self._check_t(t)
        return np.exp(self.eps * np.asarray(t, dtype=float))

    def derivative(self, t):
        return self.eps * self.value(t)

    def log_value(self, t):
        self._check_t(t)
        return self.eps * np.asarray(t, dtype=float)

    def params(self):
        return {"eps": self.eps}


class PowerMu(MuFunction):
    family = "power"

    def __init__(self, beta):
        self.beta = float(beta)
        if self.beta <= 0:
            raise RateError("power rate requires beta > 0")

    def value(self, t):
        self._check_t(t)
        return (1.0 + np.asarray(t, dtype=float)) ** self.beta

    def derivative(self, t):
        self._check_t(t)
        return self.beta * (1.0 + np.asarray(t, dtype=float)) ** (self.beta - 1.0)

    def log_value(self, t):
        self._check_t(t)
        return self.beta * np.log1p(np.asarray(t, dtype=float))

    def params(self):
        return {"beta": self.beta}


class LogMu(MuFunction):
    family = "log"

    def value(self, t):
        self._check_t(t)
        return np.log1p(np.asarray(t, dtype=float))

    def derivative(self, t):
        self._check_t(t)
        return 1.0 / (1.0 + np.asarray(t, dtype=float))

    def log_value(self, t):
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
        if np.any(np.diff(times) <= 0):
            raise RateError("tabulated mu times must be strictly increasing")
        if np.any(values <= 0) or np.any(np.diff(values) < 0):
            raise RateError("tabulated mu must be positive and nondecreasing")
        # unboundedness cannot be checked from a finite table; require the
        # last decade of samples to still be trending up
        decade = times >= times[-1] / 10.0
        if decade.sum() >= 2 and values[decade][-1] <= values[decade][0]:
            raise RateError("tabulated mu is flat over its last decade")
        self._interp = _pchip(times, values)
        self._deriv = self._interp.derivative()
        self.t_min = times[0]
        self.t_max = times[-1]
        self._times = times
        self._values = values

    def _check_t(self, t):
        super()._check_t(t)
        if np.any(np.asarray(t) > self.t_max):
            raise RateError("t beyond tabulated mu domain")

    def value(self, t):
        self._check_t(t)
        return self._interp(np.clip(t, self.t_min, self.t_max))

    def derivative(self, t):
        self._check_t(t)
        return self._deriv(np.clip(t, self.t_min, self.t_max))

    def params(self):
        return {"t": self._times.tolist(), "mu": self._values.tolist()}


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

    def _check_t(self, t):
        t = np.asarray(t)
        if np.any(t < self.t_min) or np.any(t > self.t_max):
            raise RateError(
                "%s delay is valid on [%g, %g]" % (self.family, self.t_min, self.t_max)
            )

    def params(self):
        return {}

    def to_dict(self):
        return {"family": self.family, **self.params()}


class BoundedDelay(DelayFunction):
    family = "bounded"

    def __init__(self, tau_max):
        self.tau_max = float(tau_max)
        if self.tau_max < 0:
            raise RateError("bounded delay requires tau_max >= 0")

    def d(self, t):
        return t - self.tau_max

    def params(self):
        return {"tau_max": self.tau_max}


class ProportionalDelay(DelayFunction):
    family = "proportional"

    def __init__(self, q):
        self.q = float(q)
        if not 0.0 < self.q < 1.0:
            raise RateError("proportional delay requires q in (0, 1)")

    def d(self, t):
        return self.q * t

    def params(self):
        return {"q": self.q}


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

    def params(self):
        return {"alpha": self.alpha}


class TabulatedDelay(DelayFunction):
    family = "table"

    def __init__(self, times, taus):
        times = np.asarray(times, dtype=float)
        taus = np.asarray(taus, dtype=float)
        if times.ndim != 1 or times.shape != taus.shape or len(times) < 4:
            raise RateError("tabulated delay needs >= 4 (t, tau) samples")
        if np.any(np.diff(times) <= 0):
            raise RateError("tabulated delay times must be strictly increasing")
        if np.any(taus < 0):
            raise RateError("tabulated delay must be nonnegative")
        self._interp = _pchip(times, taus)
        self.t_min = times[0]
        self.t_max = times[-1]
        self._times = times
        self._taus = taus
        # d(t) should be nondecreasing; sampled check, reported not enforced
        grid = np.linspace(self.t_min, self.t_max, 512)
        d = grid - self._interp(grid)
        self.delayed_time_monotone = bool(np.all(np.diff(d) >= -1e-9))

    def d(self, t):
        return t - self._interp(t)

    def params(self):
        return {"t": self._times.tolist(), "tau": self._taus.tolist()}


def make_mu(spec: dict) -> MuFunction:
    """Build a MuFunction from its document form {"family": ..., params}."""
    fam = spec.get("family")
    if fam == "exp":
        return ExponentialMu(spec["eps"])
    if fam == "power":
        return PowerMu(spec["beta"])
    if fam == "log":
        return LogMu()
    if fam == "loglog":
        return LogLogMu()
    if fam == "table":
        return TabulatedMu(spec["t"], spec["mu"])
    raise RateError("unknown mu family %r" % fam)


def make_delay(spec: dict) -> DelayFunction:
    fam = spec.get("family")
    if fam == "bounded":
        return BoundedDelay(spec["tau_max"])
    if fam == "proportional":
        return ProportionalDelay(spec["q"])
    if fam == "logfraction":
        return LogFractionDelay()
    if fam == "powerlag":
        return PowerLagDelay(spec["alpha"])
    if fam == "table":
        return TabulatedDelay(spec["t"], spec["tau"])
    raise RateError("unknown delay family %r" % fam)
