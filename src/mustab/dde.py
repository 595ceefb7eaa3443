"""Long-horizon integration of positive systems with time-varying delay.

The model is xdot(t) = f(x(t)) + g(x(d(t))) with delayed time d(t) <= t.
The step policy is relative, h(t) ~ rho * t: the horizons of interest (1e6
and beyond) are unreachable with fixed small steps, and the dynamics slow
down as t grows.  Such steps soon outgrow the fastest relaxation time of
f, so the scheme is linearly implicit: the Rosenbrock method RODAS3 (order
3, L-stable, with an embedded order-2 estimate), using the exact Jacobian
of f.  The delayed term enters as a known forcing G(t) = g(x(d(t))); the
stages sit at t and t + h, so a step needs one new delayed lookup.  The
step is the policy's.  A step is rejected and halved, never clamped, when
its state leaves the orthant, when its estimate is of order one, or when a
growing mode of the Jacobian takes it to the scheme's pole; below h_min
that is a SimulationError.  Whether a mode grows is decided by
Gershgorin's bound, then by an M-matrix certificate (one linear solve),
and only when both fail by the eigenvalues.  With no growing mode, a
rejected step is the scheme overshooting a stable mode, not a blow-up,
and it may shrink below h_min down to the stable scale of the Jacobian.
The steps after such a cut start at that scale, and the policy's step is
tried again after 1, 2, 4, ... of them, so a decayed stiff component does
not cost a rejected trial per step.  Dense output is cubic Hermite on stored (state,
right-hand side) node pairs, kept in arrays that double when full, which
is also how delayed state lookups are served.  Without a rejection the
policy's steps do not depend on the state, so they are planned ahead; the
lookups of planned steps whose delayed times lie behind the last node need
only nodes already made, and are served in one pass (the method-of-steps
observation, Bellen & Zennaro 2003, section 4.1).  Everything runs in the
original x coordinates; the transformed z quantities are derived from the
trajectory afterwards, which avoids the division by z_i near the origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DilationMap, PolyMap, fast_evaluator, field_and_jacobian, jacobian
from .rates import DelayFunction, MuFunction, RateError

# RODAS3 (Sandu et al., Atmos. Environ. 31, 1997) in the transformed form of
# Hairer & Wanner II, (IV.7.25): with W = I/(gamma h) - J and gamma = 1/2,
#   W u_i = F(t + alpha_i h, x + sum_j a_ij u_j) + sum_j (c_ij/h) u_j + gamma_i h F_t
# with alpha = (0, 0, 1, 1), gamma_i = (1/2, 3/2, 0, 0), a31 = a41 = 2,
# a43 = 1, c21 = 4, c31 = c41 = 1, c32 = c42 = -1, c43 = -8/3 (the other
# a_ij and c_ij are 0); x_new = x + 2 u1 + u3 + u4, and the embedded
# solution leaves out u4, which is the estimate
_GAMMA = 0.5
# a step whose estimate, relative to the state's largest component,
# exceeds this is rejected: not an accuracy control, which would cut the
# policy's steps, but a guard against a step that went wrong
_EST_REJECT = 0.5
# the scheme's stability function has its pole at h * lambda = 1/gamma; a
# step that takes a growing mode of the Jacobian there (a finite-time
# blow-up ahead) is rejected before it is made
_POLE = 1.0 / _GAMMA
# the stability function R(z) = (1 - z + z^3/6) / (1 - z/2)^4 is negative
# for z < -2.85, so a step far above a stable mode's relaxation time can
# drive a component below zero; with h * |lambda| at most 2 * _STABLE_Z,
# R stays positive
_STABLE_Z = 1.0
# the Jacobian is taken at max(x, _J_FLOOR): its entries divide by x
_J_FLOOR = 1e-30
# the most policy steps planned ahead, whose lookups behind the last node
# are served in one pass
_BLOCK = 256


class SimulationError(RuntimeError):
    pass


@dataclass
class HistorySpec:
    """Initial function on (-inf, t_start]: a constant vector."""

    phi0: np.ndarray

    def __post_init__(self):
        self.phi0 = np.asarray(self.phi0, dtype=float)
        if np.any(self.phi0 < 0):
            raise SimulationError("history must be componentwise nonnegative")

    def value(self, t):
        return self.phi0


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


def _growth(J):
    """The growth rate of J's modes: a bound on the spectral abscissa s(J)
    when the bound is at most 0 (no mode grows), else s(J) itself.  M is J
    with its off-diagonal entries made absolute, so M is Metzler and
    s(J) <= s(M).  First Gershgorin's bound, the largest row sum of M; when
    it is positive, an M-matrix certificate: s(M) <= max_i (M v)_i / v_i
    for any v > 0 (Collatz-Wielandt), and the solution of M v = -1 is
    positive exactly when M is Hurwitz (Berman & Plemmons 1994, ch. 6).
    For a cooperative f, M = J.  Only when both fail are eigenvalues taken."""
    M = np.abs(J)
    diag = J.diagonal()
    bound = np.maximum.reduce(np.add.reduce(M, axis=1) + 2.0 * np.minimum(diag, 0.0))
    if bound <= 0.0:
        return bound
    M.flat[::len(M) + 1] = diag
    try:
        v = np.linalg.solve(M, np.full(len(M), -1.0))
    except np.linalg.LinAlgError:  # M is singular
        v = None
    if v is not None and np.minimum.reduce(v) > 0.0 and np.maximum.reduce(v) < np.inf:
        # evaluated, not taken from the solve: a rounded v still bounds s(M)
        cw = np.maximum.reduce((M @ v) / v)
        if cw < 0.0:
            return cw
    return np.linalg.eigvals(J).real.max()


def _stable_scale(J, grow):
    """_STABLE_Z over Gershgorin's bound on the spectral radius of J, the
    largest sum_j |J_ij|; infinite when a mode may grow."""
    stiff = np.maximum.reduce(np.add.reduce(np.abs(J), axis=1))
    return _STABLE_Z / stiff if grow <= 0.0 and stiff > 0.0 else np.inf


def _forcing_slope(G_prev, G0, G1, h_prev, h):
    """Derivative at the middle node of the parabola through the forcing at
    t - h_prev, t and t + h: second order, so the scheme keeps its order 3
    on a smooth forcing.  Rows of a block of steps, or one step."""
    return ((G1 - G0) * (h_prev / h) + (G0 - G_prev) * (h / h_prev)) / (h + h_prev)


def _field_jacobian(f, f_eval, x, x_min):
    """f(x) and the Jacobian of f at max(x, _J_FLOOR), given x's smallest
    component: one power table serves both unless a component is below
    _J_FLOOR.  The term table is read from f itself, since f_eval may be a
    wrapper of it."""
    if x_min >= _J_FLOOR:
        return field_and_jacobian(f, x)
    return f_eval(x), jacobian(f, np.maximum(x, _J_FLOOR))


def simulate(f: PolyMap, g: PolyMap, delay: DelayFunction,
             history: HistorySpec, cfg: SimConfig) -> Trajectory:
    """Integrate the delayed system; see the module docstring for the scheme."""
    t = float(cfg.t_start)
    t_end = float(cfg.t_end)
    eps_end = 1e-12 * max(1.0, t_end)
    # one domain check for the whole horizon: every lookup below is at a
    # time in [t_start, t_end]
    delay.delayed_time(np.array([t, t_end]))
    d_of = delay.d
    x = np.maximum(np.asarray(history.value(t), dtype=float).copy(), cfg.x_floor)

    f_eval = fast_evaluator(f)
    g_eval = fast_evaluator(g)
    # the nodes, in arrays that double when full; fs[0] is 0 until the first
    # right-hand side is known, so the first node extends as a constant
    ts = np.empty(1024)
    xs = np.empty((1024, len(x)))
    fs = np.zeros((1024, len(x)))
    ts[0], xs[0] = t, x
    N = 1
    tol_ahead = 1e-9

    def forcing(d):
        """g(x(d)) for an array of delayed times above t_start, by cubic
        Hermite on the node interval around each; past the last node the
        last interval is extended."""
        k = np.minimum(np.searchsorted(ts[:N], d, side="right"), N - 1)
        xd = _hermite(d[:, None], ts[k - 1, None], ts[k, None],
                      xs[k - 1], xs[k], fs[k - 1], fs[k])
        return g_eval(np.maximum(xd, 0.0))

    def delayed_forcing(ts_):
        """g(x(d(ts_))), whether it came from the history, and whether it
        extrapolated past the last node."""
        d = float(d_of(ts_))
        if d > ts_ + tol_ahead * max(1.0, abs(ts_)):
            raise SimulationError(
                "delayed time %g ahead of evaluation time %g" % (d, ts_)
            )
        if d <= cfg.t_start:
            return g_eval(np.maximum(history.value(d), 0.0)), True, False
        if N == 1:
            # no completed step yet: extend the first node linearly
            return g_eval(np.maximum(xs[0] + (d - ts[0]) * fs[0], 0.0)), False, True
        # at or past the last node, inside the current step: the last
        # completed Hermite interval is extended (d(t) < t strictly)
        return forcing(np.array([d]))[0], False, d >= ts[N - 1]

    def plan(t):
        """The policy's next steps from t, up to _BLOCK of them, and the
        delayed times at their ends: without a rejection the step sequence
        does not depend on the state."""
        steps, ends = [], []
        while t < t_end - eps_end and len(steps) < _BLOCK:
            h = min(cfg.step(t), t_end - t)
            t = t + h
            steps.append(h)
            ends.append(t)
        return steps, d_of(np.array(ends))

    G0, hist0, flagged = delayed_forcing(t)
    F0, J = _field_jacobian(f, f_eval, x, np.minimum.reduce(x))
    x_max = np.maximum.reduce(x)
    F0 += G0
    fs[0] = F0
    eye = np.eye(len(x))
    G_prev = h_prev = None
    hist_prev = True
    # planned steps ph with delayed times pd; the next is ph[i], and the
    # lookups of steps b0 <= i < b1 are served as the rows of Gb and Ftb
    ph, pd, i, b0, b1 = [], None, 0, 0, 0
    # steps left that start at the stable scale, and how many the next
    # step cut to it sets: twice as many each time the policy's step
    # between them was cut again
    carry, span = 0, 1

    while t < t_end - eps_end:
        if i >= len(ph) and not carry:
            ph, pd = plan(t)
            i = b0 = b1 = 0
        h = ph[i] if i < len(ph) else min(cfg.step(t), t_end - t)
        grow = _growth(J)
        h_stable = None
        carried, cut = carry > 0, False
        if carried:
            # a stiff component has decayed: start where the stable-mode
            # shrink below arrives after rejecting the policy's step
            carry -= 1
            h_stable = _stable_scale(J, grow)
            if 2.0 * h_stable < 0.5 * h:
                h = 2.0 * h_stable
        elif (b1 <= i < len(ph) and not (hist0 or hist_prev)
              and cfg.t_start < pd[i] < t):
            # the lookups of the planned steps behind the last node depend
            # only on nodes already made: serve them in one pass
            ok = (pd[i:] > cfg.t_start) & (pd[i:] < t)
            b0, b1 = i, i + (len(ok) if ok.all() else int(ok.argmin()))
            Gb = forcing(pd[b0:b1])
            hb = np.array([h_prev] + ph[b0:b1])[:, None]
            Gs = np.vstack((G_prev, G0, Gb))
            Ftb = _forcing_slope(Gs[:-2], Gs[1:-1], Gs[2:], hb[:-1], hb[1:])
        blocked = b0 <= i < b1
        while True:
            if grow * h < _POLE:
                if blocked:
                    G1, hist1, ahead, Ft = Gb[i - b0], False, False, Ftb[i - b0]
                else:
                    G1, hist1, ahead = delayed_forcing(t + h)
                    # the forcing may have a kink where d(t) leaves the history
                    Ft = (G1 - G0) / h if hist_prev else _forcing_slope(G_prev, G0, G1, h_prev, h)
                Winv = np.linalg.inv(eye / (_GAMMA * h) - J)
                u1 = Winv @ (F0 + (0.5 * h) * Ft)
                u2 = Winv @ (F0 + (4.0 / h) * u1 + (1.5 * h) * Ft)
                u12 = u1 - u2
                y3 = x + 2.0 * u1
                u3 = Winv @ (f_eval(np.maximum(y3, 0.0)) + G1 + u12 / h)
                y4 = y3 + u3
                u4 = Winv @ (f_eval(np.maximum(y4, 0.0)) + G1
                             + (u12 - (8.0 / 3.0) * u3) / h)
                x_new = y4 + u4
                lo = np.minimum.reduce(x_new)
                # the orthant first: past it, x_new is its own absolute
                # value, and its extremes serve the estimate and the floor
                if lo >= 0.0:
                    hi = np.maximum.reduce(x_new)
                    if np.maximum.reduce(np.abs(u4)) / max(x_max, hi) <= _EST_REJECT:
                        x_new = np.maximum(x_new, cfg.x_floor)
                        F_new, J_new = _field_jacobian(f, f_eval, x_new,
                                                       max(lo, cfg.x_floor))
                        F_new += G1
                        if np.logical_and.reduce(np.isfinite(F_new)):
                            break
            # a rejection leaves the plan
            ph, blocked, i, b0, b1 = [], False, 0, 0, 0
            if h_stable is None:
                # with no growing mode, a rejected step is the scheme
                # overshooting a stable mode, not a blow-up: the step may
                # then shrink below h_min, down to the stable scale of J
                h_stable = _stable_scale(J, grow)
            # halve, or go straight to twice the stable scale from far above
            if 2.0 * h_stable < 0.5 * h:
                h, cut = 2.0 * h_stable, True
            else:
                h = 0.5 * h
            h_floor = min(cfg.h_min, h_stable)
            if h < h_floor or t + h == t:
                raise SimulationError(
                    "no step of at least %g keeps the state %s at t=%g "
                    "positive, finite and accurate" % (h_floor, x, t)
                )
        t = t + h
        x, F0, J = x_new, F_new, J_new
        # the largest component of x, kept for the next step's estimate
        x_max = max(hi, cfg.x_floor)
        flagged = flagged or ahead
        G_prev, G0, h_prev = G0, G1, h
        hist_prev, hist0 = hist0, hist1
        if cut:
            carry, span = span, 2 * span
        elif not carried:
            span = 1
        i += 1
        if N == len(ts):
            ts, xs, fs = (np.concatenate((a, np.empty_like(a))) for a in (ts, xs, fs))
        ts[N], xs[N], fs[N] = t, x, F0
        N += 1

    return Trajectory(ts[:N].copy(), xs[:N].copy(), fs[:N].copy(), flagged)


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
            except RateError:
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
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in data)))
