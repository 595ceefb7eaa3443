"""Delay-stability margin criterion for the transformed system.

The certificate needs two asymptotic quantities: the delayed-rate ratio
L = lim mu(t)/mu(d(t)) and the derivative limit
D = lim mu'(t)/mu(t)**(1 - p/r_star).  Both have closed forms for the
supported (mu, delay) family pairs; everything else falls back to a
numerical estimator that fits the reciprocal ratio against the natural
small parameter u = 1/mu(t) and extrapolates to u = 0.  Pointwise
evaluation alone is useless here: for the slow rate functions the ratio
approaches its limit like 1/ln(t) or worse, far outside floating-point
reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import TOL_HOM, DilationMap, FieldError, PolyMap, eval_field
from .rates import (
    BoundedDelay,
    DelayFunction,
    ExponentialMu,
    LogFractionDelay,
    LogLogMu,
    LogMu,
    MuFunction,
    PowerLagDelay,
    PowerMu,
    ProportionalDelay,
    RateError,
)

ANALYTIC = "analytic"
NUMERIC = "numeric-estimate"

MARGIN_EPS = 1e-12
TOL_ROUND = 1e-12

STABLE_CERTIFIED = "STABLE_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class LimitPair:
    L: float
    D: float
    method: str
    converged: bool = True

    def finite(self):
        return np.isfinite(self.L) and np.isfinite(self.D)

    def to_dict(self):
        return {
            "L": self.L,
            "D": self.D,
            "method": self.method,
            "converged": self.converged,
        }


def _analytic_L(mu, delay):
    if isinstance(delay, BoundedDelay):
        if isinstance(mu, ExponentialMu):
            return float(np.exp(mu.eps * delay.tau_max))
        if isinstance(mu, (PowerMu, LogMu, LogLogMu)):
            return 1.0
    if isinstance(delay, ProportionalDelay):
        if isinstance(mu, PowerMu):
            return float(delay.q ** (-mu.beta))
        if isinstance(mu, (LogMu, LogLogMu)):
            return 1.0
        if isinstance(mu, ExponentialMu):
            return np.inf
    if isinstance(delay, (LogFractionDelay, PowerLagDelay)):
        if isinstance(mu, (PowerMu, ExponentialMu)):
            # mu(t)/mu(d(t)) grows like (ln t)^beta, t^((1-alpha) beta) or
            # faster, beyond the reach of a numeric fit
            return np.inf
        if isinstance(delay, LogFractionDelay) and isinstance(mu, LogMu):
            return 1.0
        if isinstance(delay, PowerLagDelay) and isinstance(mu, LogLogMu):
            return 1.0
    return None


def _analytic_D(mu, s):
    # s = p / r_star, the exponent deficit in mu'(t)/mu(t)**(1-s).  p comes
    # from float exponent arithmetic, so a threshold is met one-sidedly: from
    # below within TOL_HOM, where the threshold's D is the larger (the
    # conservative) value, from above only within rounding noise, since past
    # the threshold D is infinite
    if isinstance(mu, ExponentialMu):
        return mu.eps if -TOL_HOM <= s <= TOL_ROUND else np.inf
    if isinstance(mu, PowerMu):
        bs = mu.beta * s
        if bs > 1.0 + TOL_ROUND:
            return np.inf
        return mu.beta if bs >= 1.0 - TOL_HOM else 0.0
    if isinstance(mu, (LogMu, LogLogMu)):
        return 0.0
    return None


# wide probe grid (t = 10**g); the reciprocal-ratio fit needs samples deep
# in the asymptotic regime, which log-domain evaluation makes reachable
_WIDE_EXPS = (20.0, 26.0, 34.0, 45.0, 60.0, 80.0, 105.0, 140.0, 185.0, 250.0)
_NARROW_EXPS = (4.0, 5.5, 7.0, 8.5, 10.0)


def _ratio_samples(mu, delay, gexps):
    hi = min(mu.t_max, delay.t_max, 10.0 ** max(gexps))
    lo = max(delay.t_min, getattr(mu, "t_min", 0.0), 1.0)
    if hi < np.inf:
        if hi <= lo * 10.0:
            raise RateError("tabulated domain too short for limit estimation")
        ts = np.geomspace(max(lo * 1.001, hi / 1e8), hi, 8)
    else:
        ts = 10.0 ** np.asarray(gexps, dtype=float)
        ts = ts[ts >= lo]
    d = np.asarray(delay.delayed_time(ts), dtype=float)
    # mu is defined from t = 0 on; a bounded delay reaches below it early
    ts, d = ts[d >= 0], d[d >= 0]
    lm_t = np.asarray(mu.log_value(ts), dtype=float)
    lm_d = np.asarray(mu.log_value(d), dtype=float)
    lv = lm_t - lm_d
    # drop samples where the log subtraction lost precision
    noise = 2.3e-16 * np.maximum(np.abs(lm_t), np.abs(lm_d))
    ok = np.isfinite(lv) & (noise <= 0.01 * np.maximum(np.abs(lv), 1e-12))
    return ts[ok], lv[ok], lm_t[ok]


def _fit_ratio_limit(lv, u):
    """Extrapolate ln-ratio samples lv (at small parameter u = 1/mu) to the
    limit; returns None when the fit degenerates."""
    v = np.exp(lv)
    w = 1.0 / v
    if np.ptp(u) <= 1e-12 * max(1.0, np.abs(u).max()):
        return float(v[-1])
    if np.ptp(w) <= 1e-12 * max(1.0, np.abs(w).max()):
        return float(v[-1])
    cols = [np.ones_like(u), u]
    with np.errstate(divide="ignore", invalid="ignore", under="ignore", over="ignore"):
        extras = [u * np.log(1.0 / u), u * np.exp(-1.0 / u)]
    for extra in extras:
        if not np.all(np.isfinite(extra)) or np.linalg.norm(extra) < 1e-13:
            continue
        A0 = np.column_stack(cols)
        proj, *_ = np.linalg.lstsq(A0, extra, rcond=None)
        resid = extra - A0 @ proj
        if np.linalg.norm(resid) > 1e-3 * np.linalg.norm(extra):
            cols.append(extra)
    A = np.column_stack(cols)
    coef, *_ = np.linalg.lstsq(A, w, rcond=None)
    if not np.isfinite(coef[0]) or coef[0] <= 0:
        return None
    return float(1.0 / coef[0])


def estimate_L(mu: MuFunction, delay: DelayFunction):
    """Numeric estimate of lim mu(t)/mu(d(t)); returns (value, converged)."""
    ts, lv, lm_t = _ratio_samples(mu, delay, _WIDE_EXPS)
    if len(ts) < 4 and np.isinf(mu.t_max) and np.isinf(delay.t_max):
        ts, lv, lm_t = _ratio_samples(mu, delay, _NARROW_EXPS)
    if len(ts) == 0:
        raise RateError("no usable samples for limit estimation")
    if np.any(lv > 700.0) or (len(lv) >= 3 and lv[-1] > lv[0] + 10.0):
        return np.inf, True
    if len(ts) < 4:
        return float(np.exp(lv[-1])), False
    u = np.exp(-lm_t)
    est = _fit_ratio_limit(lv, u)
    if est is None:
        return float(np.exp(lv[-1])), False
    # stability check: refit on the tail only
    half = len(ts) // 2
    est_tail = _fit_ratio_limit(lv[half:], u[half:])
    converged = est_tail is not None and abs(est_tail - est) <= 0.01 * max(1.0, abs(est))
    return max(est, 1.0), converged


def estimate_D(mu: MuFunction, s: float):
    """Numeric estimate of lim mu'(t)/mu(t)**(1-s) via log-log slope."""
    hi = mu.t_max
    if np.isfinite(hi):
        lo = max(getattr(mu, "t_min", 0.0), 1e-6)
        if hi <= lo * 10.0:
            raise RateError("tabulated domain too short for limit estimation")
        ts = np.geomspace(hi / 1e6, hi, 8)
        ts = ts[ts > lo]
    else:
        ts = 10.0 ** np.asarray(_NARROW_EXPS)
    with np.errstate(over="ignore", under="ignore"):
        vals = np.asarray(mu.derivative(ts), dtype=float) * np.exp(
            (s - 1.0) * np.asarray(mu.log_value(ts), dtype=float)
        )
    if np.any(~np.isfinite(vals)) or vals[-1] > 1e12:
        return np.inf, True
    if np.all(vals <= 0):
        return 0.0, True
    logs = np.log(np.maximum(vals, 1e-300))
    slope = np.polyfit(np.log(ts), logs, 1)[0]
    if slope < -0.01:
        return 0.0, True
    if slope > 0.01:
        return np.inf, True
    last, prev = vals[-1], vals[-2]
    converged = abs(last - prev) <= 0.01 * max(1.0, abs(last))
    return float(last), converged


def compute_limits(mu: MuFunction, delay: DelayFunction, p, r_star) -> LimitPair:
    """Limit pair (L, D) for the margin criterion, analytic where tabulated,
    numerically estimated otherwise."""
    p = float(p)
    r_star = float(r_star)
    if r_star <= 0:
        raise RateError("r_star must be positive")
    s = p / r_star
    L = _analytic_L(mu, delay)
    D = _analytic_D(mu, s)
    if L is not None and D is not None:
        return LimitPair(float(L), float(D), ANALYTIC)
    conv = True
    if L is None:
        L, c = estimate_L(mu, delay)
        conv = conv and c
    if D is None:
        D, c = estimate_D(mu, s)
        conv = conv and c
    return LimitPair(float(L), float(D), NUMERIC, converged=conv)


def criterion_margins(fbar: PolyMap, gbar: PolyMap, xi, r: DilationMap,
                      r_star, p, limits: LimitPair) -> np.ndarray:
    """Per-component stability margins; all strictly negative certifies the
    decay rate z_j = O(mu**(-1/r_star)).

    margin_j = (r_star/r_j) * [fbar_j(xi)/xi_j
               + L**((p+1)/r_star) * gbar_j(xi)/xi_j] + D
    The r_star = 1 case is the base theorem's inequality verbatim.
    """
    xi = np.asarray(xi, dtype=float)
    if np.any(xi <= 0):
        raise FieldError("xi must be strictly positive")
    r_star = float(r_star)
    with np.errstate(over="ignore", invalid="ignore"):
        Lfac = np.float64(limits.L) ** ((float(p) + 1.0) / r_star)
    if not (limits.finite() and np.isfinite(Lfac)):
        return np.full(fbar.n, np.inf)
    rv = np.asarray(r.r)
    fb = eval_field(fbar, xi) / xi
    gb = eval_field(gbar, xi) / xi
    return (r_star / rv) * (fb + Lfac * gb) + limits.D


@dataclass
class CriterionReport:
    xi: np.ndarray
    r_star: float
    p: float
    margins: np.ndarray
    limits: LimitPair
    verdict: str
    rate_statement: str
    hypothesis_flags: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "xi": np.asarray(self.xi).tolist(),
            "r_star": self.r_star,
            "p": self.p,
            "margins": np.asarray(self.margins).tolist(),
            "L": self.limits.L,
            "D": self.limits.D,
            "limit_method": self.limits.method,
            "limits_converged": self.limits.converged,
            "verdict": self.verdict,
            "rate": self.rate_statement,
            "hypothesis_flags": self.hypothesis_flags,
        }


def _rate_statement(r: DilationMap, r_star):
    zs = "z_j = O(mu(t)^(-1/%g))" % r_star
    xs = ", ".join(
        "x_%d = O(mu(t)^(-%g))" % (j + 1, rj / r_star) for j, rj in enumerate(r.r)
    )
    return zs + "; " + xs


def evaluate_criterion(fbar, gbar, xi, r: DilationMap, r_star, p,
                       limits: LimitPair, hypothesis_flags=None) -> CriterionReport:
    """Assemble margins into a certificate report.

    The verdict is STABLE_CERTIFIED only when every margin is strictly
    negative, the limits converged, and no structural hypothesis in
    ``hypothesis_flags`` is refuted or undecided.
    """
    hypothesis_flags = dict(hypothesis_flags or {})
    margins = criterion_margins(fbar, gbar, xi, r, r_star, p, limits)
    structural_ok = all(
        v in (True, "certified") for k, v in hypothesis_flags.items()
        if k.startswith("structure:")
    )
    ok = (
        np.all(margins < -MARGIN_EPS)
        and limits.converged
        and limits.finite()
        and structural_ok
    )
    return CriterionReport(
        xi=np.asarray(xi, dtype=float),
        r_star=float(r_star),
        p=float(p),
        margins=margins,
        limits=limits,
        verdict=STABLE_CERTIFIED if ok else INCONCLUSIVE,
        rate_statement=_rate_statement(r, float(r_star)),
        hypothesis_flags=hypothesis_flags,
    )


def search_xi(fbar, gbar, r: DilationMap, r_star, p, limits: LimitPair,
              sweeps=16, factors=(0.5, 0.8, 1.25, 2.0)):
    """Multiplicative coordinate descent for a weight vector with all
    margins negative.

    Returns (found, best_xi, best_margins): ``found`` is the successful xi
    or None, ``best_xi`` the minimizer of the worst margin seen.
    """
    xi = np.ones(fbar.n)
    best = criterion_margins(fbar, gbar, xi, r, r_star, p, limits)
    if not (limits.finite() and limits.converged):
        # no weight certifies on infinite limits (the margins are infinite)
        # or on an estimate that did not converge
        return None, xi, best
    if np.all(best < -MARGIN_EPS):
        return xi, xi, best
    for _ in range(sweeps):
        improved = False
        for j in range(fbar.n):
            for fac in factors:
                cand = xi.copy()
                cand[j] *= fac
                m = criterion_margins(fbar, gbar, cand, r, r_star, p, limits)
                if m.max() < best.max():
                    xi, best = cand, m
                    improved = True
                    if np.all(best < -MARGIN_EPS):
                        return xi, xi, best
        if not improved:
            break
    return None, xi, best
