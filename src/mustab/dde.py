"""Long-horizon integration of positive systems with time-varying delay.

The model is xdot(t) = f(x(t)) + g(x(d(t))) with delayed time d(t) <= t.
The step policy is relative, h(t) ~ rho * t: the horizons of interest (1e6
and beyond) are unreachable with fixed small steps, and the dynamics slow
down as t grows.  Such steps soon outgrow the fastest relaxation time of
f, so the scheme is linearly implicit, a Rosenbrock method using the exact
Jacobian of f: RODAS3 (order 3, with an embedded order-2 estimate) or
RODAS4 (order 4, with an embedded order-3 estimate), both L-stable.  The
delayed term enters as a known forcing G(t) = g(x(d(t))).

The policy's step is the one the driver takes unless the estimate allows
a longer one.  After an accepted step h with err = max_i |u_i| / (_ATOL +
_RTOL max(x_i, x_new_i)), u its method's estimate of order q (4 after
RODAS4, 3 after RODAS3), the next step may be h min(_GROW, 0.9
err^(-1/q)) (Hairer & Wanner II, section IV.8), at most 0.1 t and cut to
end on the next delay breakpoint b_{k+1} = d^{-1}(b_k) from b_0 = t_start,
where the solution's derivatives jump (Bellen & Zennaro 2003, section
4.1).  Such a step is RODAS4, accepted only at err <= 1, else retried
shorter, down to the policy's step; the step after a landing is the
policy's.  Policy steps, their halvings and retries cut back to them are
RODAS3, and still cross breakpoints.  A policy step longer than h_min
whose estimate exceeds _EST_CUT of the state's largest component is
halved, down to h_min; at or below h_min only _EST_REJECT rejects it.  Any
other rejected policy step is halved: h_min is the floor of every step,
and below it is a SimulationError.  A RODAS3 trial reads the forcing at t
+ h, its slope (G(t + h) - G(t))/h from the first node, else from the
parabola through G at the last two nodes and t + h; a RODAS4 trial at t +
alpha h for the alpha of _ALPHA4 (g evaluated once on the four rows), its
slope from the quartic through those and G(t).  A run whose accepted trial
read the state at or past the node it started from, past t_start, where
the last interval is extended, is flagged (extrapolation_flagged).

RODAS3's stability function R(z) = (1 - z + z^3/6) / (1 - z/2)^4 is
negative for z < -2.85, so a step far above a stable mode's relaxation
time drives that component below zero.  Such a finite trial state is
projected (Shampine, Thompson, Kierzenka & Byrne, Appl. Math. Comput. 170,
2005): set to max(x_new, 0), then raised to _X_FLOOR as every accepted
state is.  On a lengthened trial the amount projected away, |min(x_new,
0)|, is added to the estimate before its norm; a policy step's cut and
guard read the estimate alone.  A state with a NaN or -inf component is
rejected, as "orthant" (REJECTIONS counts each rejection by its cause).
x' = -sqrt(x), projected to _X_FLOOR at t = 2, has a field (-1e-150) that
makes each step's estimate far exceed the state: the guard rejects every
step down to h_min, and the run fails.

rodas3_step and rodas4_step each make one step from given forcing values.
The Trajectory that simulate returns is the node store it appends to, with
the cubic Hermite coefficients of its intervals, made in one pass whenever
a lookup reads past those made.  Its one lookup, lookup_rows, returns the
states at a trial's delayed times, and Trajectory.sample evaluates the
same coefficients.  simulate is the driver, and serves both trial kinds.
A run whose accepted steps stay below _STALL_FRACTION of |t| for
_STALL_STEPS steps in a row is a SimulationError naming t, not a run that
never ends.  The pole test takes Gershgorin's bound on the growth rate
first (J's largest row sum when the sign pattern of f makes J Metzler),
never below the growth rate itself, which _growth takes only when the
bound reaches the pole.  A Jacobian that is not finite is a
SimulationError.

On n <= 6 vectors numpy's fixed cost per call exceeds the arithmetic, so
the driver's scalars come from .tolist() and builtins, and each of its
values rounds as the plain numpy expression would.  f and g are evaluated
on their nonzero exponents alone (fields.fast_evaluator), bitwise their
dense tables.  A trial's lookups are one pass of bisect and Horner's rule
on floats (Trajectory.lookup_rows).  A RODAS4 trial's stage rows are one
product of (1, 1/h, h) with _ROWS4, and each stage one product of its two
rows with the stack of the stages before it, indexed, not unpacked; its
state is clamped in place, f's value there takes the forcing in place,
and W^-1 times that is written into the stack.  W = I/(gamma h) - J is
inverted by the LAPACK gufunc that np.linalg.inv wraps, called without
that wrapper's checks.  A NaN fails every test as under numpy's
reductions (_extreme), and a singular W gives a NaN inverse, so a NaN
state: a rejection.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# the gufunc np.linalg.inv calls, without that wrapper's per-call checks;
# W is always float64, so the gufunc finds its loop without a signature
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
# exceeds this: an accuracy cut on the few policy steps far too long (the
# median ratio is of order 1e-6); accuracy otherwise only lengthens them
_EST_CUT = 1e-2
# the scheme's stability function has its pole at h * lambda = 1/gamma; a
# step that takes a growing mode of the Jacobian there (a finite-time
# blow-up ahead) is rejected before it is made.  RODAS3's pole, at 2, is
# nearer than RODAS4's, at 4, and the test at it serves both methods
_POLE = 1.0 / _GAMMA
# the Jacobian is taken at max(x, _J_FLOOR): its entries divide by x
_J_FLOOR = 1e-30
# accepted states, projected or not, are raised to at least this: a
# decayed component stays positive
_X_FLOOR = 1e-300
# the policy's step is at most this fraction of t
_H_CAP = 0.1
# the identity matrix of each size, made once and shared: never written
_identity = lru_cache()(np.eye)
# the clamp bounds 0 and _X_FLOOR as 0-d arrays, which numpy takes as they
# are, where a float operand is converted on every call
_ZERO = np.zeros(())
_FLOOR = np.array(_X_FLOOR)
# the tolerances of the error norm err that may lengthen the policy's
# step, and the most a step may grow over the last one
_RTOL = 1e-7
_ATOL = 1e-12
_GROW = 4.0
# the most delay breakpoints made; past the last, no step is lengthened
_BREAKS = 64
# a run whose accepted steps stay below _STALL_FRACTION of |t| for
# _STALL_STEPS steps in a row has moved t by under 1e-9 of itself: a
# SimulationError, not a hang.  No run that finishes comes near the
# fraction (the smallest h / t of the tests and the benchmark is about 1e-6)
_STALL_FRACTION = 1e-12
_STALL_STEPS = 1000
# fit_rate's window: the trailing fraction of log time it fits on
_FIT_WINDOW = 0.5
# the causes of a rejected trial: a state with a NaN or -inf component, an
# estimate too large, and a field not finite at the new state
REJECTIONS = ("orthant", "estimate", "field")


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


def _horner(coeffs, s):
    """Each component's cubic at s, coeffs its (x0, h f0, c2, c3), by
    Horner's rule on Python floats, which round as numpy's operations on
    the coefficient rows do."""
    return [a + s * (b + s * (p + s * q)) for a, b, p, q in coeffs]


class Trajectory:
    """Dense-output record and the integrator's node store: strictly
    increasing node times with states and right-hand-side values in arrays
    that double when full (ts, xs and fs are their first N rows), the
    history before the first node, and the cubic Hermite coefficients of
    the intervals between them, made up to the last node whenever a lookup
    reads past those already made.  Also the driver's counts: how many of
    the steps between the nodes the estimate lengthened past the policy's
    (the RODAS4 steps), how many trials were rejected, by cause (a key of
    REJECTIONS), and whether an accepted step read the state at or past
    the node it started from, past the first (extrapolation_flagged)."""

    def __init__(self, ts, xs, fs, history=None):
        ts, xs, fs = (np.asarray(a, dtype=float) for a in (ts, xs, fs))
        if np.any(np.diff(ts) <= 0):
            raise SimulationError("node times must be strictly increasing")
        if xs.ndim != 2 or len(xs) != len(ts) or fs.shape != xs.shape:
            raise SimulationError("inconsistent trajectory shapes")
        self._ts, self._xs, self._fs = ts, xs, fs
        self.extrapolation_flagged = False
        self.lengthened_steps = 0
        self.rejected = dict.fromkeys(REJECTIONS, 0)
        self.history = history
        self.N = len(ts)
        # the times again, as floats, for bisect
        self.times = ts.tolist()
        self.cubics = np.empty((self.N, 4, xs.shape[1]))
        self.made = 0

    ts = property(lambda self: self._ts[:self.N])
    xs = property(lambda self: self._xs[:self.N])
    fs = property(lambda self: self._fs[:self.N])
    n = property(lambda self: self._xs.shape[1])

    def append(self, t, x, F):
        if self.N == len(self._ts):
            self._ts, self._xs, self._fs, self.cubics = (
                np.concatenate((a, np.empty_like(a)))
                for a in (self._ts, self._xs, self._fs, self.cubics))
        self._ts[self.N], self._xs[self.N], self._fs[self.N] = t, x, F
        self.times.append(t)
        self.N += 1

    def sample(self, t):
        """State at any time within [first node, last node], exact at nodes
        but the last, from the cubic of the interval around t."""
        times = self.times
        if t < times[0] or t > times[-1]:
            raise SimulationError("sample time outside trajectory range")
        if t == times[0]:
            return self._xs[0].copy()
        k = self._interval(t)
        t0 = times[k - 1]
        return np.array(_horner(self.cubics[k - 1].T.tolist(), (t - t0) / (times[k] - t0)))

    def lookup_rows(self, ds):
        """The states at the times ds, raised to 0 by np.maximum, as the
        rows of one array: the history at and before the first node; with
        one node, its linear extension; else the cubic of the node interval
        around the time, the last interval extended past the last node, its
        coefficients kept as floats while the times share it."""
        times, N = self.times, self.N
        values, k_coeffs = [], 0
        for d in ds:
            if d <= times[0]:
                values += self.history.tolist()
            elif N == 1:
                values += (self._xs[0] + (d - times[0]) * self._fs[0]).tolist()
            else:
                k = self._interval(d)
                if k != k_coeffs:
                    t0, t1, k_coeffs = times[k - 1], times[k], k
                    coeffs = self.cubics[k - 1].T.tolist()
                values += _horner(coeffs, (d - t0) / (t1 - t0))
        return np.maximum(np.array(values).reshape(len(ds), -1), _ZERO)

    def _interval(self, d):
        """k such that nodes k - 1 and k bound the interval of a time d past
        the first of two nodes at least, the last interval extended past the
        last node; its coefficients are made."""
        k = bisect_right(self.times, d, 1, self.N - 1)
        if k > self.made:
            self._make()
        return k

    def _make(self):
        """The coefficients of every interval up to the last node, in one
        vectorised pass over those not yet made."""
        M, N = self.made, self.N
        _cubics(self._ts[M:N], self._xs[M:N], self._fs[M:N], self.cubics[M:N - 1])
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
        rows = (np.add.reduce(np.abs(J), axis=1) + 2.0 * np.minimum(J.diagonal(), _ZERO)).tolist()
    # a non-finite J gives a non-finite row, but so may a finite J's overflow
    if not math.isfinite(sum(rows)) and not np.isfinite(J).all():
        return None
    return _extreme(max, rows)


def _growth(J):
    """The growth rate of a finite J's modes, its spectral abscissa s(J)."""
    return np.linalg.eigvals(J).real.max()


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
    Winv = _inv(_identity(len(x)) / (_GAMMA * h) - J)
    u1 = Winv.dot(F0 + (0.5 * h) * Ft)
    u2 = Winv.dot(F0 + (4.0 / h) * u1 + (1.5 * h) * Ft)
    # stages 3 and 4 share G(t + h) + (u1 - u2)/h
    q = G1 + (u1 - u2) / h
    y3 = x + 2.0 * u1
    u3 = Winv.dot(f_eval(np.maximum(y3, _ZERO)) + q)
    y4 = y3 + u3
    u4 = Winv.dot(f_eval(np.maximum(y4, _ZERO)) + q - (8.0 / 3.0 / h) * u3)
    return y4 + u4, u4


# RODAS4 (Hairer & Wanner II, section IV.7; rodas.f, METH=1) in the same form
# with gamma = 1/4: stage i is taken at t + alpha_i h from x + sum_j a_ij u_j,
# with alpha = (0, 0.386, 0.21, 0.63, 1, 1) and gamma_1 = gamma; x_new = x +
# sum_j a_6j u_j + u6, with a_6j = a_5j for j < 5 and a_65 = 1, and u6, the
# last stage's correction to the embedded order-3 solution, is the
# estimate.  Rows are stages 2 to 6: a_ij and c_ij for j < i, and gamma_i
_GAMMA4 = 0.25
_ALPHA4 = np.array([0.386, 0.21, 0.63, 1.0])
_A4 = ((1.544,),
       (0.9466785280815826, 0.2557011698983284),
       (3.314825187068521, 2.896124015972201, 0.9986419139977817),
       (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895),
       (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895, 1.0))
_C4 = ((-5.6688,),
       (-2.430093356833875, -0.2063599157091915),
       (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
       (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
       (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
        -6.058818238834054))
_GAMMAS4 = (-0.1043, 0.1035, -0.03620000000000023, 0.0, 0.0)


def _stage_rows():
    """Stages 2 to 6 of RODAS4 as rows over the stack (u1, ..., u5, x,
    G(t + alpha_i h) for the four alpha_i of _ALPHA4, F_t): row 0 of stage i
    gives its state x + sum_j a_ij u_j, row 1 its forcing, G(t + alpha_i h)
    + sum_j (c_ij/h) u_j + gamma_i h F_t.  Returned as the three rows, each
    (5, 2, 11) flattened, of the part that is fixed and those that scale
    with 1/h and with h.  No entry has two nonzero parts, so the product of
    (1, 1/h, h) with them, one BLAS call, rounds each entry once, as the
    one nonzero part's product does."""
    parts = np.zeros((3, 5, 2, 11))
    fixed, per_h, by_h = parts
    for i, (a, c) in enumerate(zip(_A4, _C4)):
        fixed[i, 0, :len(a)] = a
        fixed[i, 0, 5] = 1.0
        fixed[i, 1, 6 + min(i, 3)] = 1.0
        per_h[i, 1, :len(c)] = c
        by_h[i, 1, 10] = _GAMMAS4[i]
    return parts.reshape(3, -1)


_ROWS4 = _stage_rows()
# the slope at t of the quartic through the forcing at t and at t + alpha h
# for the alpha of _ALPHA4 is sum_k w_k (G(t + alpha_k h) - G(t)) / h, with
# w_k the slope at 0 of the Lagrange basis polynomial of alpha_k on the
# nodes 0 and _ALPHA4: third order, as a fourth-order step needs
_SLOPE4 = np.array([np.prod(-np.delete(_ALPHA4, k)) / (a * np.prod(a - np.delete(_ALPHA4, k)))
                    for k, a in enumerate(_ALPHA4)])


def rodas4_step(x, F0, J, G, Ft, h, f_eval):
    """One RODAS4 step of x' = f(x) + G(t) from x at t: F0 = f(x) + G(t),
    J the Jacobian of f at x, G the rows G(t + alpha h) for the alpha of
    _ALPHA4, Ft the slope of G at t, and f_eval evaluates f.  Returns the
    new state and the estimate u6.  Each stage's state and forcing come
    from one product of its two rows, _ROWS4 taken at h, with the stack of
    the stages before it, x, G and Ft."""
    Winv = _inv(_identity(len(x)) / (_GAMMA4 * h) - J)
    rows = np.dot((1.0, 1.0 / h, h), _ROWS4).reshape(5, 2, 11)
    # zeros: a stage's rows are 0 on the stages not yet made
    U = np.zeros((11, len(x)))
    U[5], U[6:10], U[10] = x, G, Ft
    F = (_GAMMA4 * h) * Ft
    F += F0
    np.dot(Winv, F, out=U[0])
    for i in range(4):
        yq = rows[i].dot(U)
        y = yq[0]
        F = f_eval(np.maximum(y, _ZERO, out=y))
        F += yq[1]
        np.dot(Winv, F, out=U[i + 1])
    # the last stage's state, unclamped, is the new state's base
    yq = rows[4].dot(U)
    F = f_eval(np.maximum(yq[0], _ZERO))
    F += yq[1]
    u6 = Winv.dot(F)
    return yq[0] + u6, u6


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


def _longer_step(h, err, q, h_pol, cap, t, breaks):
    """The step from t that the error norm err of the accepted step h
    before it allows, for a method whose estimate is O(h^q), at most cap
    and cut to end on the next breakpoint, even one nearer than the
    policy's step h_pol, and that breakpoint when it ends there; h_pol and
    None when the norm allows no step longer than h_pol, or the
    breakpoints made are used up."""
    h = min(h * min(_GROW, 0.9 / max(err, 1e-300) ** (1.0 / q)), cap)
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
        t = t_start = float(cfg.t_start)
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
        traj = Trajectory([t], [x], [F0], history=phi0)
        # the forcing's rise into the last node and the step into it: the
        # rise unused from the first node, where the slope is one-sided
        dG0, h_prev = None, 1.0
        # the error norm of the last accepted step when it was lengthened,
        # inf when it landed on a breakpoint, else a lower bound on it, and
        # the estimate u4 and the state's componentwise scale over that
        # step, which give the norm itself
        err, exact, u4, scale = math.inf, True, None, None
        # the order q of that step's estimate: 4 after RODAS4, 3 after RODAS3
        q = 3
        breaks = _Breakpoints(delay, t)
        rejected = traj.rejected
        # accepted steps in a row below _STALL_FRACTION of |t|
        stalled = 0

        while t < t_end - eps_end:
            h = h_pol = min(cfg.step(t), t_end - t)
            land = None
            # the error norm is taken only when its lower bound lets the
            # estimate lengthen the policy's step
            if _GROW * h_prev > h_pol and err < (0.9 * h_prev / h_pol) ** q:
                if not exact:
                    err = _err_norm(u4, scale)
                h, land = _longer_step(h_prev, err, q, h_pol, min(_H_CAP * t, t_end - t), t,
                                       breaks)
            longer = h > h_pol
            # the growth rate itself is taken only where its bound could bind
            bound, grow = _growth_bound(J, metzler), None
            if bound is None:
                raise SimulationError("the Jacobian of f at t=%g is not finite" % t)
            while True:
                coarse = False
                if grow is None and not bound * h < _POLE:
                    grow = _growth(J)
                if bound * h < _POLE or grow * h < _POLE:
                    if longer:
                        # the estimate set this step, and it ends on or
                        # before the next breakpoint: RODAS4, with g
                        # evaluated once on the four rows
                        ds = delay.d(t + _ALPHA4 * h).tolist()
                        G = g_eval(traj.lookup_rows(ds))
                        G1, Ft, d_hi = G[3], _SLOPE4.dot(G - G0) * (1.0 / h), max(ds)
                        x_new, u4_new = rodas4_step(x, F0, J, G, Ft, h, f_eval)
                    else:
                        d_hi = float(delay.d(t + h))
                        G1 = g_eval(traj.lookup_rows((d_hi,))[0])
                        dG = G1 - G0
                        if traj.N == 1:
                            Ft = dG / h
                        else:
                            # the slope at t of the parabola through the
                            # forcing at t - h_prev, t and t + h: second
                            # order, so the scheme keeps its order 3
                            r, hh = h / h_prev, h + h_prev
                            Ft = dG * (1.0 / (r * hh)) + dG0 * (r / hh)
                        x_new, u4_new = rodas3_step(x, F0, J, G1, Ft, h, f_eval)
                    lo = _extreme(min, x_new.tolist())
                    cause = "orthant"
                    # a NaN or -inf fails this test; a finite negative
                    # component is projected onto the orthant when accepted
                    if lo > -math.inf:
                        cause = "estimate"
                        scale_new = np.maximum(x, x_new)
                        if longer:
                            if lo < 0.0:
                                # the amount projected away counts in the estimate
                                u4_new = np.abs(u4_new) - np.minimum(x_new, _ZERO)
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
                            cause = "field"
                            if lo < _X_FLOOR:
                                # projected, and raised to the floor
                                x_new = np.maximum(x_new, _FLOOR)
                            F_new, J_new = _field_jacobian(f, f_eval, x_new, max(lo, _X_FLOOR))
                            F_new += G1
                            if all(map(math.isfinite, F_new.tolist())):
                                break
                    rejected[cause] += 1
                # a rejection leaves the breakpoint
                land = None
                if longer:
                    # a lengthened step is retried shorter, down to the policy's
                    h = max(0.5 * h, h_pol)
                    longer = h > h_pol
                    continue
                # a rejected policy step is halved: an inaccurate one down
                # to h_min, any other below it, where the run fails
                h = max(0.5 * h, cfg.h_min) if coarse else 0.5 * h
                if h < cfg.h_min or t + h == t:
                    raise SimulationError(
                        "no step of at least %g keeps the state %s at t=%g "
                        "finite and accurate" % (cfg.h_min, x, t)
                    )
            traj.lengthened_steps += longer
            # the trial read the state at or past the node it started from
            traj.extrapolation_flagged |= d_hi >= t and d_hi > t_start
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
            q = 4 if longer else 3
            G0, dG0, h_prev = G1, G1 - G0, h
            traj.append(t, x, F0)
    return traj


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


def fit_rate(traj: Trajectory, mu: MuFunction):
    """Least-squares slope of ln x_j against ln mu(t) on the trailing
    _FIT_WINDOW of log time; the certified decay x_j = O(mu**(-r_j/r_star)) shows
    up as slope <= -r_j/r_star; a ln mu or ln x_j that is not finite in the
    window, or a ln mu that varies there by no more than rounding (no
    line is determined, as for a tabulated mu flat over the window), is a
    SimulationError naming mu."""
    t_lo = max(traj.ts[0], 1e-12)
    lo_ln, hi_ln = np.log(t_lo), np.log(traj.ts[-1])
    cut = np.exp(lo_ln + (1.0 - _FIT_WINDOW) * (hi_ln - lo_ln))
    mask = (traj.ts >= cut) & np.all(traj.xs > 1e-15, axis=1)
    if mask.sum() < 10:
        raise SimulationError("fewer than 10 usable nodes in the fit window")
    with np.errstate(over="ignore"):
        lnmu = np.asarray(mu.log_value(traj.ts[mask]))
    lnx = np.log(traj.xs[mask])
    if not (np.isfinite(lnmu).all() and np.isfinite(lnx).all()):
        raise SimulationError("mu: ln mu(t) or ln x(t) is not finite in the fit window")
    # the fit squares ln mu's deviations from their mean, which underflow
    # for a ln mu such as 1e-298: it is on ln mu scaled by the power of two
    # 2^-k that brings its largest magnitude into [0.5, 1), exactly, and
    # the slopes are scaled back by 2^-k
    k = math.frexp(float(np.max(np.abs(lnmu))))[1]
    scaled = np.ldexp(lnmu, -k)
    # a ln mu flat to within its rounding fixes no slope
    if np.ptp(scaled) <= len(scaled) * np.finfo(float).eps:
        raise SimulationError("mu: ln mu(t) does not vary in the fit window")
    # the least-squares line of every component at once, in the closed
    # form about the means
    xm, ym = scaled.mean(), lnx.mean(axis=0)
    xc = scaled - xm
    slopes = xc.dot(lnx - ym) / xc.dot(xc)
    with np.errstate(over="ignore"):
        # a slope scaled back past the largest float is infinite
        return np.ldexp(slopes, -k), ym - slopes * xm


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
