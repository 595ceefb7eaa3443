"""Long-horizon integration of positive systems with time-varying delay.

The model is xdot(t) = f(x(t)) + g(x(d(t))) with delayed time d(t) <= t.
The step policy is relative, h(t) ~ rho * t: the horizons of interest (1e6
and beyond) are unreachable with fixed small steps, and the dynamics slow
down as t grows.  Such steps soon outgrow the fastest relaxation time of
f, so the scheme is linearly implicit: the Rosenbrock method RODAS3 (order
3, L-stable, with an embedded order-2 estimate), using the exact Jacobian
of f.  The delayed term enters as a known forcing G(t) = g(x(d(t))).

The policy's step is the one the driver takes unless the estimate allows
a longer one.  After an accepted step h with err = max_i |u4_i| / (_ATOL +
_RTOL max(x_i, x_new_i)), the next step may be h min(_GROW, 0.9
err^(-1/3)) (Hairer & Wanner II, section IV.8), at most 0.1 t and cut to
end on the next delay breakpoint b_{k+1} = d^{-1}(b_k) from b_0 = t_start,
where the solution's derivatives jump (Bellen & Zennaro 2003, section
4.1), even one nearer than the policy's step.  A step longer than the
policy's is accepted only at err <= 1, and is retried shorter, down to the
policy's step.  The step after a landing is the policy's: the estimate
of a step that ended on a breakpoint says nothing of the one past it.  A
policy step longer than h_min whose estimate exceeds _EST_CUT of the
state's largest component is halved, down to h_min; at or below h_min
only _EST_REJECT rejects it.  Policy steps that are not lengthened still
cross breakpoints.

There are three parts.  rodas3_step makes one step from given forcing
values.  _Nodes keeps the (state, right-hand side) nodes in arrays that
double when full, and the cubic Hermite coefficients of each interval
between them (Bellen & Zennaro 2003, section 4.1), made in one vectorised
pass whenever a lookup reads past those already made: the delayed times
of a long run lie far behind the last node, so one pass serves many
steps.  Its one lookup, for one delayed time, takes the history, bisects
for the interval and evaluates that interval's cubic; Trajectory.sample
evaluates the same coefficients.  simulate is the driver: the step rule
above, rejections (a step that leaves the orthant, whose estimate is too
large, or that takes a growing mode to the scheme's pole is halved, never
clamped; below h_min that is a SimulationError) and the stable scale
carried past a stiff decay.  A run whose accepted steps stay below
_STALL_FRACTION of |t| for _STALL_STEPS steps in a row makes no progress:
a SimulationError naming t, not a run that never ends.  The pole test
takes Gershgorin's bound on the growth rate first, the largest row sum of
J when the sign pattern of f makes J Metzler (decided once per run), and
the growth rate itself (_growth) only when the bound reaches the pole or
a rejection needs the stable scale: the bound is never below the growth
rate, so the test decides as the growth rate would.  A Jacobian that is
not finite is a SimulationError.  Everything runs in the original x
coordinates; the z quantities are derived from the trajectory afterwards.

On n <= 6 vectors numpy's fixed cost per call exceeds the arithmetic, so
the scalars the driver branches on (the error norm and the Metzler row
sums among them) come from .tolist() and builtins, the cubics are
evaluated on floats and products take ndarray.dot, not @, each rounding as
numpy would.  A NaN fails every test as under numpy's reductions
(_extreme): a builtin min or max keeps it only at index 0.  The inverse of
W = I/(gamma h) - J is LAPACK's, from the gufunc np.linalg.inv wraps,
without that wrapper's per-call checks: the same bits.  Under simulate's
errstate a singular W gives a NaN inverse, not a LinAlgError, and the
NaN state that follows fails the orthant test: a rejection.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# the gufunc np.linalg.inv calls, without that wrapper's per-call checks
from numpy.linalg._umath_linalg import inv as _inv

from .fields import (DilationMap, PolyMap, cooperative_signs, fast_evaluator,
                     field_and_jacobian, jacobian)
from .rates import DelayFunction, MuFunction

# RODAS3 (Sandu et al., Atmos. Environ. 31, 1997) in the transformed form of
# Hairer & Wanner II, (IV.7.25): with W = I/(gamma h) - J and gamma = 1/2,
#   W u_i = F(t + alpha_i h, x + sum_j a_ij u_j) + sum_j (c_ij/h) u_j + gamma_i h F_t
# with alpha = (0, 0, 1, 1), gamma_i = (1/2, 3/2, 0, 0), a31 = a41 = 2,
# a43 = 1, c21 = 4, c31 = c41 = 1, c32 = c42 = -1, c43 = -8/3 (the other
# a_ij and c_ij are 0); x_new = x + 2 u1 + u3 + u4, and the embedded
# solution leaves out u4, which is the estimate
_GAMMA = 0.5
# a step of at most the policy's length whose estimate, relative to the
# state's largest component, exceeds this is rejected: a guard against a
# step of at most h_min that went wrong
_EST_REJECT = 0.5
# such a step longer than h_min is halved, down to h_min, when that ratio
# exceeds this: an accuracy cut on the few policy steps that are far too
# long, where the median ratio is of order 1e-6; accuracy otherwise only
# lengthens the policy's steps (_RTOL below)
_EST_CUT = 1e-2
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
# accepted states are raised to at least this: a decayed component stays positive
_X_FLOOR = 1e-300
# the policy's step is at most this fraction of t
_H_CAP = 0.1
# the identity matrix of each size, made once and shared: never written
_identity = lru_cache()(np.eye)
# the tolerances of the error norm err that may lengthen the policy's
# step, and the most a step may grow over the last one
_RTOL = 1e-7
_ATOL = 1e-12
_GROW = 4.0
# the most delay breakpoints made; past the last, no step is lengthened
_BREAKS = 64
# a run whose accepted steps stay below _STALL_FRACTION of |t| for
# _STALL_STEPS steps in a row has moved t by under 1e-9 of itself and
# would need over 1e12 more steps to double it: a SimulationError, not a
# hang.  Constants, not settings: no run that finishes comes near the
# fraction (the smallest h / t of the test suite and the benchmark's
# workloads is about 1e-6), and the count lets a short stiff transient pass
_STALL_FRACTION = 1e-12
_STALL_STEPS = 1000


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

    def __post_init__(self):
        if not self.t_start < self.t_end:
            raise SimulationError("t_start must be below t_end")

    def step(self, t):
        return max(self.h_min, min(self.rho * t, max(_H_CAP * t, 0.0)))


def _cubics(ts, xs, fs, out):
    """The cubic Hermite coefficients (x0, h f0, c2, c3) of each interval
    between consecutive nodes ts, xs, fs, written into the rows out (m, 4,
    n) and returned: on an interval of length h, x = x0 + s (h f0 + s (c2 +
    s c3)) at the fraction s of it, with the end values and slopes matched:
    c2 + c3 = dx - h f0 and 2 c2 + 3 c3 = h f1 - h f0."""
    h = (ts[1:] - ts[:-1])[:, None]
    x0, hf0, c2, c3 = out.swapaxes(0, 1)
    x0[...] = xs[:-1]
    np.multiply(h, fs[:-1], out=hf0)
    dx = xs[1:] - x0
    np.add(hf0, h * fs[1:], out=c3)
    c3 -= 2.0 * dx
    np.subtract(dx, hf0, out=c2)
    c2 -= c3
    return out


def _cubic(c, s):
    """The cubic with coefficient rows c (4, n) at s, by Horner's rule on
    Python floats, which round as numpy's operations on the rows do."""
    return np.array([a + s * (b + s * (p + s * q)) for a, b, p, q in zip(*c.tolist())])


class Trajectory:
    """Dense-output record: strictly increasing node times with states and
    right-hand-side values (for cubic Hermite evaluation), and how many of
    the steps between them the estimate lengthened past the policy's."""

    def __init__(self, ts, xs, fs, extrapolation_flagged=False, lengthened_steps=0):
        self.ts = np.asarray(ts, dtype=float)
        self.xs = np.asarray(xs, dtype=float)
        self.fs = np.asarray(fs, dtype=float)
        if np.any(np.diff(self.ts) <= 0):
            raise SimulationError("node times must be strictly increasing")
        if self.xs.ndim != 2 or len(self.xs) != len(self.ts) or self.fs.shape != self.xs.shape:
            raise SimulationError("inconsistent trajectory shapes")
        self.extrapolation_flagged = bool(extrapolation_flagged)
        self.lengthened_steps = int(lengthened_steps)

    @property
    def n(self):
        return self.xs.shape[1]

    def sample(self, t):
        """State at any time within [first node, last node], exact at nodes
        but the last, from the cubic of the interval around t."""
        ts = self.ts
        if t < ts[0] or t > ts[-1]:
            raise SimulationError("sample time outside trajectory range")
        if t == ts[0]:
            return self.xs[0].copy()
        k = ts[1:-1].searchsorted(t, side="right") + 1
        t0 = ts[k - 1]
        c = _cubics(ts[k - 1:k + 1], self.xs[k - 1:k + 1], self.fs[k - 1:k + 1],
                    np.empty((1, 4, self.n)))[0]
        return _cubic(c, (t - t0) / (ts[k] - t0))


class _Nodes:
    """The integrator's nodes (time, state, right-hand side) in arrays that
    double when full, with the history before the first, and the cubic
    coefficients of the intervals between them, made up to the last node
    whenever a lookup reads past those already made."""

    def __init__(self, t, x, F, history):
        self.ts, self.xs, self.fs = np.array([t]), np.array([x]), np.array([F])
        # the times again, as floats, for bisect
        self.times = [t]
        self.N = 1
        self.cubics = np.empty((1, 4, len(x)))
        self.made = 0
        self.history = history

    def append(self, t, x, F):
        if self.N == len(self.ts):
            self.ts, self.xs, self.fs, self.cubics = (
                np.concatenate((a, np.empty_like(a)))
                for a in (self.ts, self.xs, self.fs, self.cubics))
        self.ts[self.N], self.xs[self.N], self.fs[self.N] = t, x, F
        self.times.append(t)
        self.N += 1

    def lookup_one(self, d):
        """The state at one time d: the history at and before the first
        node; with one node, its linear extension; else the cubic of the
        node interval around d, the last interval extended past the last
        node.  Also whether it took the history, and whether d lies at or
        past the last node without taking it."""
        times = self.times
        if d <= times[0]:
            return self.history, True, False
        N = self.N
        if N == 1:
            return self.xs[0] + (d - times[0]) * self.fs[0], False, True
        # node k - 1 starts d's interval
        k = bisect_right(times, d, 1, N - 1)
        if k > self.made:
            self._make()
        t0 = times[k - 1]
        return _cubic(self.cubics[k - 1], (d - t0) / (times[k] - t0)), False, d >= times[N - 1]

    def _make(self):
        """The coefficients of every interval up to the last node, in one
        vectorised pass over those not yet made."""
        M, N = self.made, self.N
        _cubics(self.ts[M:N], self.xs[M:N], self.fs[M:N], self.cubics[M:N - 1])
        self.made = N - 1


def _extreme(pick, values):
    """min or max (pick) of a list of floats, NaN when any is, as numpy's
    reduction: the builtin keeps a NaN only at index 0."""
    total = sum(values)
    return pick(values) if total == total or all(v == v for v in values) else math.nan


def _growth_bound(J, metzler):
    """Gershgorin's bound on the growth rate of J's modes, its spectral
    abscissa s(J): the largest row sum of J when J is Metzler, else of J
    with its off-diagonal entries made absolute.  None when J is not
    finite."""
    if metzler:
        # sum from the int 0 adds left to right as numpy's row reduction
        # does for n <= 6, down to the sign of a zero row
        rows = [sum(row) for row in J.tolist()]
    else:
        rows = (np.add.reduce(np.abs(J), axis=1) + 2.0 * np.minimum(J.diagonal(), 0.0)).tolist()
    # a non-finite J gives a non-finite row, but so may a finite J's overflow
    if not math.isfinite(sum(rows)) and not np.isfinite(J).all():
        return None
    return _extreme(max, rows)


def _growth(J):
    """The growth rate of J's modes, for a finite J: Gershgorin's bound on
    the spectral abscissa s(J) when it is at most 0 (no mode grows), else
    s(J) itself from the eigenvalues."""
    rows = np.add.reduce(np.abs(J), axis=1) + 2.0 * np.minimum(J.diagonal(), 0.0)
    bound = np.maximum.reduce(rows)
    if bound <= 0.0:
        return bound
    return np.linalg.eigvals(J).real.max()


def _stable_scale(J, grow):
    """_STABLE_Z over Gershgorin's bound on the spectral radius of J, the
    largest sum_j |J_ij|; infinite when a mode may grow."""
    stiff = np.maximum.reduce(np.add.reduce(np.abs(J), axis=1))
    return _STABLE_Z / stiff if grow <= 0.0 and stiff > 0.0 else np.inf


def _field_jacobian(f, f_eval, x, x_min):
    """f(x) and the Jacobian of f at max(x, _J_FLOOR), given x's smallest
    component: one power table serves both unless a component is below
    _J_FLOOR.  The term table is read from f itself, since f_eval may be a
    wrapper of it."""
    if x_min >= _J_FLOOR:
        return field_and_jacobian(f, x)
    return f_eval(x), jacobian(f, np.maximum(x, _J_FLOOR))


def rodas3_step(x, F0, J, G1, Ft, h, f_eval):
    """One RODAS3 step of x' = f(x) + G(t) from x at t: F0 = f(x) + G(t),
    J the Jacobian of f at x, G1 = G(t + h), Ft the slope of G at t, and
    f_eval evaluates f.  Returns the new state and the estimate u4."""
    Winv = _inv(_identity(len(x)) / (_GAMMA * h) - J, signature="d->d")
    u1 = Winv.dot(F0 + (0.5 * h) * Ft)
    u2 = Winv.dot(F0 + (4.0 / h) * u1 + (1.5 * h) * Ft)
    # stages 3 and 4 share G(t + h) + (u1 - u2)/h
    q = G1 + (u1 - u2) / h
    y3 = x + 2.0 * u1
    u3 = Winv.dot(f_eval(np.maximum(y3, 0.0)) + q)
    y4 = y3 + u3
    u4 = Winv.dot(f_eval(np.maximum(y4, 0.0)) + q - (8.0 / 3.0 / h) * u3)
    return y4 + u4, u4


def _serve_one(nodes, g_eval, h, d, G0, dG0, h_prev, kink):
    """The forcing G1 = g(x(d)) at the end of a step h whose delayed time is
    d, its slope at the step's start, G1 - G0, whether the lookup took the
    history, and whether it read at or past the last node.  G0 is the
    forcing at the last node, dG0 its rise from the node before, h_prev the
    step between them, and kink whether the forcing there took the
    history: the slope then takes the step alone, else the parabola through
    the three."""
    xd, hist, ahead = nodes.lookup_one(d)
    G1 = g_eval(np.maximum(xd, 0.0))
    dG = G1 - G0
    if kink:
        return G1, dG / h, dG, hist, ahead
    # the slope at t of the parabola through the forcing at t - h_prev, t
    # and t + h: second order, so the scheme keeps its order 3
    r, hh = h / h_prev, h + h_prev
    return G1, dG * (1.0 / (r * hh)) + dG0 * (r / hh), dG, hist, ahead


class _Breakpoints:
    """The delay breakpoints b_{k+1} = d^{-1}(b_k) from b_0 = t_start, made
    only as far as they are asked for, and at most _BREAKS of them."""

    def __init__(self, delay, t):
        self.delay, self.b, self.made = delay, t, 0

    def after(self, t):
        """The first breakpoint past t: inf once d has a fixed point at the
        last one or stays below it on its domain; None when _BREAKS are made
        and none of them is past t."""
        while self.b <= t:
            if self.made == _BREAKS:
                return None
            b = self.delay.d_inverse(self.b)
            self.b = b if b > self.b else np.inf
            self.made += 1
        return self.b


def _err_norm(u4, scale):
    """The error norm of an estimate u4 over the state's componentwise scale."""
    return _extreme(max, [abs(u) / (_ATOL + _RTOL * s)
                          for u, s in zip(u4.tolist(), scale.tolist())])


def _longer_step(h, err, h_pol, cap, t, breaks):
    """The step from t that the error norm err of the accepted step h
    before it allows, at most cap and cut to end on the next breakpoint,
    even one nearer than the policy's step h_pol, and that breakpoint when
    it ends there; h_pol and None when the norm allows no step longer than
    h_pol, or the breakpoints made are used up."""
    h = min(h * min(_GROW, 0.9 / max(err, 1e-300) ** (1.0 / 3.0)), cap)
    b = breaks.after(t) if h > h_pol else None
    if b is None:
        return h_pol, None
    return (b - t, b) if b - t <= h else (h, None)


def simulate(f: PolyMap, g: PolyMap, delay: DelayFunction,
             history: HistorySpec, cfg: SimConfig) -> Trajectory:
    """Integrate the delayed system; see the module docstring for the scheme."""
    # an overflow or a non-finite value is a rejection or a SimulationError
    # below, never a warning
    with np.errstate(over="ignore", invalid="ignore"):
        t = float(cfg.t_start)
        t_end = float(cfg.t_end)
        eps_end = 1e-12 * max(1.0, t_end)
        # one domain check for the whole horizon: every lookup below is at a
        # time in [t_start, t_end]
        delay.delayed_time(np.array([t, t_end]))
        f_eval = fast_evaluator(f)
        g_eval = fast_evaluator(g)
        metzler = cooperative_signs(f)
        phi0 = np.asarray(history.value(t), dtype=float)
        x = np.maximum(phi0, _X_FLOOR)
        # d(t_start) <= t_start: the first forcing is the history's
        G0 = g_eval(np.maximum(phi0, 0.0))
        F0, J = _field_jacobian(f, f_eval, x, np.minimum.reduce(x))
        F0 += G0
        nodes = _Nodes(t, x, F0, phi0)
        # the forcing's rise into the last node, whether the forcing at the
        # last two nodes took the history, and the step between them: the
        # first two unused while the slope takes the history's kink
        dG0, hists, h_prev = 0.0 * G0, (True, True), 1.0
        flagged = False
        # steps left that start at the stable scale, and how many the next
        # step cut to it sets: twice as many each time the policy's step
        # between them was cut again
        carry, span = 0, 1
        # the error norm of the last accepted step when it was lengthened,
        # inf when it landed on a breakpoint, else a lower bound on it, and
        # the estimate u4 and the state's componentwise scale over that
        # step, which give the norm itself
        err, exact, u4, scale = math.inf, True, None, None
        breaks = _Breakpoints(delay, t)
        lengthened = 0
        # accepted steps in a row below _STALL_FRACTION of |t|
        stalled = 0

        while t < t_end - eps_end:
            h = h_pol = min(cfg.step(t), t_end - t)
            land = None
            # the error norm is taken only when its lower bound lets the
            # estimate lengthen the policy's step
            if not carry and _GROW * h_prev > h_pol and err < (0.9 * h_prev / h_pol) ** 3:
                if not exact:
                    err = _err_norm(u4, scale)
                h, land = _longer_step(h_prev, err, h_pol, min(_H_CAP * t, t_end - t), t, breaks)
            longer = h > h_pol
            # the growth rate itself is taken only where its bound could bind
            bound, grow = _growth_bound(J, metzler), None
            if bound is None:
                raise SimulationError("the Jacobian of f at t=%g is not finite" % t)
            h_stable = None
            carried, cut = carry > 0, False
            if carried:
                # a stiff component has decayed: start where the stable-mode
                # shrink below arrives after rejecting the policy's step
                carry -= 1
                grow = _growth(J)
                h_stable = _stable_scale(J, grow)
                if 2.0 * h_stable < 0.5 * h:
                    h = 2.0 * h_stable
            while True:
                coarse = False
                if grow is None and not bound * h < _POLE:
                    grow = _growth(J)
                if bound * h < _POLE or grow * h < _POLE:
                    G1, Ft, dG1, hist1, ahead = _serve_one(
                        nodes, g_eval, h, float(delay.d(t + h)), G0, dG0, h_prev, hists[0])
                    x_new, u4_new = rodas3_step(x, F0, J, G1, Ft, h, f_eval)
                    lo = _extreme(min, x_new.tolist())
                    # the orthant first: past it, x_new is its own absolute
                    # value, and its extremes serve the estimate and the floor
                    if lo >= 0.0:
                        scale_new = np.maximum(x, x_new)
                        if longer:
                            err_new = _err_norm(u4_new, scale_new)
                            accept = err_new <= 1.0
                        else:
                            est = _extreme(max, np.abs(u4_new).tolist())
                            top = _extreme(max, scale_new.tolist())
                            coarse = h > cfg.h_min and est / top > _EST_CUT
                            accept = est / top <= _EST_REJECT and not coarse
                            # scale_new <= top: a lower bound on the norm
                            err_new = est / (_ATOL + _RTOL * top)
                        if accept:
                            if lo < _X_FLOOR:
                                x_new = np.maximum(x_new, _X_FLOOR)
                            F_new, J_new = _field_jacobian(f, f_eval, x_new, max(lo, _X_FLOOR))
                            F_new += G1
                            if all(map(math.isfinite, F_new.tolist())):
                                break
                # a rejection leaves the breakpoint
                land = None
                if longer:
                    # a lengthened step is retried shorter, down to the policy's
                    h = max(0.5 * h, h_pol)
                    longer = h > h_pol
                    continue
                if coarse:
                    # an inaccurate policy step is halved, never below h_min
                    h = max(0.5 * h, cfg.h_min)
                    continue
                if h_stable is None:
                    # with no growing mode, a rejected step is the scheme
                    # overshooting a stable mode, not a blow-up: the step
                    # may then shrink below h_min, down to the stable scale
                    if grow is None:
                        grow = _growth(J)
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
            lengthened += longer
            stalled = stalled + 1 if h < _STALL_FRACTION * abs(t) else 0
            if stalled == _STALL_STEPS:
                raise SimulationError(
                    "the run stalls at t=%g: %d steps in a row below %g t"
                    % (t, _STALL_STEPS, _STALL_FRACTION))
            t = t + h if land is None else land
            x, F0, J = x_new, F_new, J_new
            # the norm of a step that ended on a breakpoint says nothing of
            # the step after it
            err, exact, u4, scale = ((err_new, longer, u4_new, scale_new) if land is None
                                     else (math.inf, True, None, None))
            flagged = flagged or ahead
            G0, dG0, h_prev = G1, dG1, h
            hists = (hists[1], hist1)
            if cut:
                carry, span = span, 2 * span
            elif not carried:
                span = 1
            nodes.append(t, x, F0)

    return Trajectory(*(a[:nodes.N].copy() for a in (nodes.ts, nodes.xs, nodes.fs)),
                      flagged, lengthened)


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
                     r_star, burn_in=0) -> MonitorReport:
    """Track V(t) = mu(t) * max_i (z_i/xi_i)**r_star and its running sup.

    The proof object behind the margin criterion asserts the running sup
    max(1, sup V) stays constant past some burn-in time.  burn_in is the
    index of that time's node (criterion.burn_in_node finds it), or None
    when there is none, and then the growth is taken from the first node.
    V is tracked as ln V = ln mu(t) + r_star max_i ln(z_i/xi_i), so a gauge
    that overflows, such as e^t, leaves the growth ratio exact or inf.
    """
    xi = np.asarray(xi, dtype=float)
    rv = np.asarray(r.r)
    r_star = float(r_star)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lnV = np.asarray(mu.log_value(traj.ts)) + r_star * np.max(
            np.log(traj.xs) / rv - np.log(xi), axis=1)
        ln_sup = np.maximum(0.0, np.maximum.accumulate(lnV))
        found = burn_in is not None
        burn_idx = burn_in if found else 0
        growth = float(np.exp(ln_sup[-1] - ln_sup[burn_idx]))
        V, V_sup = np.exp(lnV), np.exp(ln_sup)
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
    lnmu = np.asarray(mu.log_value(traj.ts[mask]))
    slopes = np.empty(traj.n)
    intercepts = np.empty(traj.n)
    for j in range(traj.n):
        slope, intercept = np.polyfit(lnmu, np.log(traj.xs[mask, j]), 1)
        slopes[j] = slope
        intercepts[j] = intercept
    return slopes, intercepts


def write_csv(path, cols, data):
    """Write the columns data under the header cols as CSV at full precision."""
    row = ",".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        fh.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in data)))


def export_csv(traj: Trajectory, path, V=None):
    """Write the trajectory as CSV `t,x1,...,xn[,V]` at full precision."""
    cols = ["t"] + ["x%d" % (j + 1) for j in range(traj.n)]
    data = [traj.ts] + [traj.xs[:, j] for j in range(traj.n)]
    if V is not None:
        cols.append("V")
        data.append(np.asarray(V))
    write_csv(path, cols, data)
