"""Long-horizon integration of positive systems with time-varying delay.

The model is xdot(t) = f(x(t)) + g(x(d(t))) with delayed time d(t) <= t.
Integration is classical explicit RK4 with a relative-time step policy
h(t) ~ rho * t: the horizons of interest (1e6 and beyond) are unreachable
with fixed small steps, and the dynamics slow down as t grows.  Dense
output is cubic Hermite on stored (state, right-hand side) node pairs,
which is also how delayed state lookups are served.  Everything runs in
the original x coordinates; the transformed z quantities are derived from
the trajectory afterwards, which avoids the division by z_i near the
origin.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .fields import DilationMap, PolyMap, fast_evaluator, jacobian
from .rates import DelayFunction, MuFunction

# explicit RK4 is only stable for h * |lambda| below about 2.8 on the real
# axis; the relative step policy alone violates that once rho * t outgrows
# the local relaxation time, so the step is additionally capped by the
# spectral radius of the Jacobian of f (recomputed periodically)
_STAB_SAFETY = 2.5
_STAB_EVERY = 20


class SimulationError(RuntimeError):
    pass


@dataclass
class HistorySpec:
    """Initial function on (-inf, t_start]: a constant vector, optionally
    overridden by a tabulated segment (constant-extended on both sides)."""

    phi0: np.ndarray
    table_t: np.ndarray = None
    table_x: np.ndarray = None

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float)
        if np.any(self.phi0 < 0):
            raise SimulationError("history must be componentwise nonnegative")
        if self.table_t is not None:
            self.table_t = np.asarray(self.table_t, dtype=float)
            self.table_x = np.asarray(self.table_x, dtype=float)
            if np.any(self.table_x < 0):
                raise SimulationError("history must be componentwise nonnegative")

    def value(self, t):
        if self.table_t is None:
            return self.phi0
        idx = np.clip(np.searchsorted(self.table_t, t), 0, len(self.table_t) - 1)
        return self.table_x[idx]


@dataclass
class SimConfig:
    t_start: float
    t_end: float
    rho: float = 1e-3
    h_min: float = 1e-3
    h_max: float = None  # None means t/10
    x_floor: float = 1e-300

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise SimulationError("t_start must be below t_end")

    def step(self, t):
        cap = 0.1 * t if self.h_max is None else self.h_max
        return max(self.h_min, min(self.rho * t, max(cap, 0.0)))


def _hermite(t, t0, t1, x0, x1, f0, f1):
    h = t1 - t0
    s = (t - t0) / h
    s2, s3 = s * s, s * s * s
    return (
        (2 * s3 - 3 * s2 + 1) * x0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * x1
        + (s3 - s2) * h * f1
    )


class Trajectory:
    """Dense-output record: strictly increasing node times with states and
    right-hand-side values (for cubic Hermite evaluation)."""

    def __init__(self, ts, xs, fs, extrapolation_flagged=False):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        if np.any(np.diff(self.ts) <= 0):
            raise SimulationError("node times must be strictly increasing")
        if self.xs.ndim != 2 or len(self.xs) != len(self.ts) or self.fs.shape != self.xs.shape:
            raise SimulationError("inconsistent trajectory shapes")
        self.extrapolation_flagged = bool(extrapolation_flagged)

    @property
    def n(self):
        return self.xs.shape[1]

    def sample(self, t):
        """State at any time within [first node, last node], exact at nodes."""
        t = float(t)
        if t < self.ts[0] or t > self.ts[-1]:
            raise SimulationError("sample time outside trajectory range")
        k = np.searchsorted(self.ts, t)
        if k < len(self.ts) and self.ts[k] == t:
            return self.xs[k].copy()
        return _hermite(
            t, self.ts[k - 1], self.ts[k],
            self.xs[k - 1], self.xs[k], self.fs[k - 1], self.fs[k],
        )


def _stability_cap(f, x):
    """Largest step the explicit scheme tolerates at state x, from the
    spectral radius of the Jacobian of the undelayed part."""
    J = jacobian(f, np.maximum(x, 1e-30))
    lam = float(np.max(np.abs(np.linalg.eigvals(J))))
    return np.inf if lam <= 1e-300 else _STAB_SAFETY / lam


def simulate(f: PolyMap, g: PolyMap, delay: DelayFunction,
             history: HistorySpec, cfg: SimConfig) -> Trajectory:
    """Integrate the delayed system; see the module docstring for the scheme."""
    t = float(cfg.t_start)
    x = np.maximum(np.asarray(history.value(t), dtype=float).copy(), cfg.x_floor)

    f_eval = fast_evaluator(f)
    g_eval = fast_evaluator(g)
    ts = [t]
    xs = [x.copy()]
    flagged = False
    t_end = float(cfg.t_end)
    tol_ahead = 1e-9

    def delayed_state(ts_, h):
        nonlocal flagged
        d = float(delay.delayed_time(ts_))
        if d > ts_ + tol_ahead * max(1.0, abs(ts_)):
            raise SimulationError(
                "delayed time %g ahead of evaluation time %g" % (d, ts_)
            )
        if d <= cfg.t_start:
            return history.value(d)
        k = bisect.bisect_right(ts, d)
        if k >= len(ts):
            # inside the current incomplete step: extend the last completed
            # Hermite interval (valid since d(t) < t strictly)
            if d > ts[-1] + h:
                flagged = True
            k = len(ts) - 1
            if k == 0:
                return xs[0]
        return _hermite(d, ts[k - 1], ts[k], xs[k - 1], xs[k], fs[k - 1], fs[k])

    h0 = cfg.step(t)
    gd0 = g_eval(np.maximum(delayed_state(t, h0), 0.0))
    fs = [f_eval(x) + gd0]

    h_stab = _stability_cap(f, x)
    since_stab = 0
    eps_end = 1e-12 * max(1.0, t_end)

    while t < t_end - eps_end:
        if since_stab >= _STAB_EVERY:
            h_stab = _stability_cap(f, x)
            since_stab = 0
        since_stab += 1
        h = min(cfg.step(t), h_stab, t_end - t)
        gd_half = g_eval(np.maximum(delayed_state(t + 0.5 * h, h), 0.0))
        gd_full = g_eval(np.maximum(delayed_state(t + h, h), 0.0))
        k1 = fs[-1]
        k2 = f_eval(np.maximum(x + 0.5 * h * k1, 0.0)) + gd_half
        k3 = f_eval(np.maximum(x + 0.5 * h * k2, 0.0)) + gd_half
        k4 = f_eval(np.maximum(x + h * k3, 0.0)) + gd_full
        x_new = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if h <= cfg.h_min * (1 + 1e-12):
            if np.max(np.abs(x_new)) > 2.0 * max(np.max(np.abs(x)), 1e-12):
                raise SimulationError(
                    "state doubled within one minimal step at t=%g" % t
                )
        x_new = np.maximum(x_new, cfg.x_floor)
        t = t + h
        ts.append(t)
        xs.append(x_new)
        fs.append(f_eval(x_new) + gd_full)
        x = x_new

    return Trajectory(ts, np.vstack(xs), np.vstack(fs), flagged)


@dataclass
class MonitorReport:
    ts: np.ndarray
    V: np.ndarray
    V_sup: np.ndarray
    burn_in: float
    growth_ratio: float
    burn_in_found: bool

    def to_dict(self):
        return {
            "burn_in": self.burn_in,
            "growth_ratio": self.growth_ratio,
            "burn_in_found": self.burn_in_found,
            "V_final": float(self.V[-1]),
            "V_sup_final": float(self.V_sup[-1]),
        }


def lyapunov_monitor(traj: Trajectory, mu: MuFunction, xi, r: DilationMap,
                     r_star, fbar: PolyMap = None, gbar: PolyMap = None,
                     p=0.0, delay: DelayFunction = None) -> MonitorReport:
    """Track V(t) = mu(t) * max_i (z_i/xi_i)**r_star and its running sup.

    The proof object behind the margin criterion asserts the running sup
    max(1, sup V) stays constant past some burn-in time.  Burn-in is taken
    operationally as the first node where the margins are negative with the
    instantaneous ratio mu(t)/mu(d(t)) in place of its limit (requires
    fbar/gbar/p/delay; without them burn-in defaults to the first node).
    """
    xi = np.asarray(xi, dtype=float)
    rv = np.asarray(r.r)
    r_star = float(r_star)
    z = traj.xs ** (1.0 / rv)
    V = np.asarray(mu.value(traj.ts)) * np.max((z / xi) ** r_star, axis=1)
    V_sup = np.maximum(1.0, np.maximum.accumulate(V))

    burn_idx = 0
    found = fbar is None
    if fbar is not None:
        from .criterion import LimitPair, criterion_margins

        for k, tk in enumerate(traj.ts):
            try:
                d = float(delay.delayed_time(tk))
            except Exception:
                continue
            if d < 0:
                continue
            Lpt = float(mu.value(tk)) / max(float(mu.value(d)), 1e-300)
            Dpt = float(mu.derivative(tk)) * float(mu.value(tk)) ** (p / r_star - 1.0)
            m = criterion_margins(
                fbar, gbar, xi, r, r_star, p, LimitPair(Lpt, Dpt, "pointwise")
            )
            if np.all(m < 0):
                burn_idx = k
                found = True
                break
    growth = float(V_sup[-1] / V_sup[burn_idx])
    return MonitorReport(traj.ts, V, V_sup, float(traj.ts[burn_idx]), growth, found)


def fit_rate(traj: Trajectory, mu: MuFunction, window=0.5):
    """Least-squares slope of ln x_j against ln mu(t) on the trailing
    log-time window; the certified decay x_j = O(mu**(-r_j/r_star)) shows
    up as slope <= -r_j/r_star."""
    t_lo = max(traj.ts[0], 1e-12)
    lo_ln, hi_ln = np.log(t_lo), np.log(traj.ts[-1])
    cut = np.exp(lo_ln + (1.0 - window) * (hi_ln - lo_ln))
    mask = (traj.ts >= cut) & np.all(traj.xs > 1e-15, axis=1)
    if mask.sum() < 10:
        raise SimulationError("fewer than 10 usable nodes in the fit window")
    lnmu = np.log(np.asarray(mu.value(traj.ts[mask])))
    slopes = np.empty(traj.n)
    intercepts = np.empty(traj.n)
    for j in range(traj.n):
        slope, intercept = np.polyfit(lnmu, np.log(traj.xs[mask, j]), 1)
        slopes[j] = slope
        intercepts[j] = intercept
    return slopes, intercepts


def export_csv(traj: Trajectory, path, V=None):
    """Write the trajectory as CSV `t,x1,...,xn[,V]` at full precision."""
    cols = ["t"] + ["x%d" % (j + 1) for j in range(traj.n)]
    data = [traj.ts] + [traj.xs[:, j] for j in range(traj.n)]
    if V is not None:
        cols.append("V")
        data.append(np.asarray(V))
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in zip(*data):
            fh.write(",".join("%.17g" % v for v in row) + "\n")
