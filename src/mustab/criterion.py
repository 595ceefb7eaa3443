"""Delay-stability margin criterion for the transformed system.

The certificate needs two asymptotic quantities: the delayed-rate ratio
L = lim mu(t)/mu(d(t)) and the derivative limit
D = lim mu'(t)/mu(t)**(1 - p/r_star), both as t -> inf.  They are taken in
closed form only, from the families of the gauge and the delay; every pair
of parametric families has one.  No finite table determines a limit at
infinity, so a limit that only a tabulated gauge or delay could give is
undetermined: nan, and no certificate rests on it.  A margin is certified
negative only with room for its rounding error (see criterion_margins).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# eval_field stays a name of this module, which benchmark/tracing.py wraps
from .fields import TOL_HOM, DilationMap, FieldError, PolyMap, eval_field  # noqa: F401
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
    power_or_inf,
)

ANALYTIC = "analytic"

TOL_ROUND = 1e-12

# search_xi's coordinate sweeps at most, and the factors it tries on each weight
_SWEEPS = 16
_FACTORS = (0.5, 0.8, 1.25, 2.0)
# the unit roundoff u of criterion_margins' rounding bound
_U = np.finfo(float).eps / 2.0

STABLE_CERTIFIED = "STABLE_CERTIFIED"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class LimitPair:
    L: float
    D: float
    method: str

    @property
    def converged(self):
        """Whether both limits are closed-form (method ANALYTIC)."""
        return self.method == ANALYTIC

    def finite(self):
        return np.isfinite(self.L) and np.isfinite(self.D)


def _analytic_L(mu, delay):
    if isinstance(delay, BoundedDelay):
        if isinstance(mu, ExponentialMu):
            with np.errstate(over="ignore"):
                return float(np.exp(mu.eps * delay.tau_max))
        if isinstance(mu, (PowerMu, LogMu, LogLogMu)):
            return 1.0
    if isinstance(delay, ProportionalDelay):
        if isinstance(mu, PowerMu):
            return power_or_inf(delay.q, -mu.beta)
        if isinstance(mu, (LogMu, LogLogMu)):
            return 1.0
        if isinstance(mu, ExponentialMu):
            return np.inf
    if isinstance(delay, (LogFractionDelay, PowerLagDelay)):
        if isinstance(mu, (PowerMu, ExponentialMu)):
            # mu(t)/mu(d(t)) grows like (ln t)^beta, t^((1-alpha) beta) or
            # faster, beyond the reach of a numeric fit
            return np.inf
        if isinstance(mu, LogLogMu):
            # ln ln d(t) ~ ln ln t for d(t) = t/ln t and for t^alpha
            return 1.0
        if isinstance(mu, LogMu):
            # ln d(t) is ln t - ln ln t, or alpha ln t
            return 1.0 if isinstance(delay, LogFractionDelay) else 1.0 / delay.alpha
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


def compute_limits(mu: MuFunction, delay: DelayFunction, p, r_star) -> LimitPair:
    """Limit pair (L, D) for the margin criterion, in closed form.  A limit
    with no closed form, one a tabulated gauge or delay would fix, is nan
    and the pair's method "undetermined"."""
    p = float(p)
    r_star = float(r_star)
    if r_star <= 0:
        raise RateError("r_star must be positive")
    L = _analytic_L(mu, delay)
    D = _analytic_D(mu, p / r_star)
    if L is not None and D is not None:
        return LimitPair(float(L), float(D), ANALYTIC)
    return LimitPair(np.nan if L is None else float(L), np.nan if D is None else float(D),
                     "undetermined")


def criterion_margins(fbar: PolyMap, gbar: PolyMap, xi, r: DilationMap,
                      r_star, p, limits: LimitPair):
    """Per-component stability margins and their rounding bounds, (margins,
    bound); all margins negative beyond their bounds (certifies) certifies
    the decay rate z_j = O(mu**(-1/r_star)).

    margin_j = (r_star/r_j) * [fbar_j(xi)/xi_j
               + L**((p+1)/r_star) * gbar_j(xi)/xi_j] + D
    The r_star = 1 case is the base theorem's inequality verbatim.  L and D
    may be arrays, one row of margins each; a non-finite L, D or
    L**((p+1)/r_star), or a sum of the three that overflows, gives its row
    infinite margins, and a margin that is not finite, as where fbar or
    gbar overflows at xi, is infinite.

    bound_j is at least the rounding error of the computed margin_j from
    these float inputs (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, §3.1): gamma_k S_j, with gamma_k = k u / (1 - k u),
    u = 2**-53 and S_j the formula above on the absolute values of its
    terms.  Each ``**`` is taken to be within one ulp (two roundings) of
    the exact power, so a term costs 3n roundings (n powers, n - 1
    products, the coefficient); k = 3n + (terms of fbar and gbar) + 8
    covers the sums, the division by xi_j, L's power, r_star/r_j and the
    products and sums after them, and one coefficient merged from like
    terms (PolyMap rounds that sum once), plus 2 |ln L**((p+1)/r_star)|
    for the rounded exponent.
    """
    xi = np.asarray(xi, dtype=float)
    if (xi <= 0).any():
        raise FieldError("xi must be strictly positive")
    r_star = float(r_star)
    # [()] keeps one pair's L a float64 scalar: numpy's array power may
    # round it one ulp off libm's, and so move a reported margin
    L = np.asarray(limits.L, dtype=float)[()]
    D = np.asarray(limits.D, dtype=float)[()]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # a weight r_star / r_j that overflows makes its margin infinite
        w = r_star / np.asarray(r.r)
        # one power table per map, taken as PolyMap.__call__ takes it, serves
        # its value at xi, bitwise the map's, and the sum of its terms'
        # absolute values for the bound
        Pf, Pg = (np.multiply.reduce(xi[None, :] ** F.E, axis=-1) for F in (fbar, gbar))
        fb, gb = Pf.dot(fbar.CK) / xi, Pg.dot(gbar.CK) / xi
        Lfac = L ** ((float(p) + 1.0) / r_star)
        m = w * (fb + Lfac[..., None] * gb) + D[..., None]
        # also fails a row whose finite L, D and Lfac overflow in the sum:
        # no certificate rests on limits that far out of range
        ok = np.isfinite(L + D + Lfac)[..., None] & np.isfinite(m)
        fa, ga = Pf.dot(np.abs(fbar.CK)) / xi, Pg.dot(np.abs(gbar.CK)) / xi
        k = 3 * fbar.n + len(fbar.C) + len(gbar.C) + 8 + 2.0 * np.abs(np.log(Lfac))
        S = w * (fa + Lfac[..., None] * ga) + np.abs(D)[..., None]
        bound = (k * _U / (1.0 - k * _U))[..., None] * S
    if not ok.all():
        m[~ok] = np.inf
    return m, bound


def certifies(margins, bounds):
    """Whether margins certify: margin_j + bound_j < 0 for every j, with
    bound_j the rounding bound of criterion_margins, row-wise for 2-D
    arrays.  The one negativity test of the margins; a margin of -inf
    with an infinite bound does not certify."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.logical_and.reduce(np.asarray(margins) + bounds < 0.0, axis=-1)


def burn_in_node(ts, mu: MuFunction, delay: DelayFunction, fbar: PolyMap,
                 gbar: PolyMap, xi, r: DilationMap, r_star, p):
    """The index of the first time in ts at which the margins certify with
    the pointwise L = mu(t)/mu(d(t)) and D = mu'(t)/mu(t)**(1 - p/r_star)
    in place of their limits, or None when there is none: past it the
    running sup of the Lyapunov-type V = mu(t) max_i (z_i/xi_i)**r_star
    stops growing.  A time outside the delay's domain, or with d(t) < 0
    where mu is undefined, is skipped; mu(d) is taken as at least 1e-300."""
    ts = np.asarray(ts, dtype=float)
    inside = (ts >= delay.t_min) & (ts <= delay.t_max)
    d = np.full_like(ts, -1.0)
    d[inside] = delay.delayed_time(ts[inside])
    idx = np.flatnonzero(d >= 0)
    t, d = ts[idx], d[idx]
    r_star = float(r_star)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu_t = np.asarray(mu.value(t), dtype=float)
        L = mu_t / np.maximum(mu.value(d), 1e-300)
        D = mu.derivative(t) * mu_t ** (float(p) / r_star - 1.0)
    m, bound = criterion_margins(fbar, gbar, xi, r, r_star, p, LimitPair(L, D, "pointwise"))
    hit = np.flatnonzero(certifies(m, bound))
    return int(idx[hit[0]]) if len(hit) else None


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

    The verdict is STABLE_CERTIFIED only when the margins certify (every
    one negative beyond its rounding bound), both limits are finite, and
    no structural hypothesis in ``hypothesis_flags`` is refuted or
    undecided.
    """
    hypothesis_flags = dict(hypothesis_flags or {})
    margins, bound = criterion_margins(fbar, gbar, xi, r, r_star, p, limits)
    structural_ok = all(
        v in (True, "certified") for k, v in hypothesis_flags.items()
        if k.startswith("structure:")
    )
    ok = certifies(margins, bound) and limits.finite() and structural_ok
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


def search_xi(fbar, gbar, r: DilationMap, r_star, p, limits: LimitPair):
    """Multiplicative coordinate descent for a weight vector whose margins
    certify, ranking weights by their largest margin plus rounding bound:
    the quantity that certifies tests.

    Returns (found, best_xi, best_margins): ``found`` is the successful xi
    or None, ``best_xi`` the best-ranked weight seen.
    """
    xi = np.ones(fbar.n)
    best, bound = criterion_margins(fbar, gbar, xi, r, r_star, p, limits)
    if not limits.finite():
        # no weight certifies on infinite or undetermined limits (the
        # margins are infinite)
        return None, xi, best
    if certifies(best, bound):
        return xi, xi, best
    score = (best + bound).max()
    for _ in range(_SWEEPS):
        improved = False
        for j in range(fbar.n):
            for fac in _FACTORS:
                cand = xi.copy()
                cand[j] *= fac
                m, bound = criterion_margins(fbar, gbar, cand, r, r_star, p, limits)
                worst = (m + bound).max()
                if worst < score:
                    xi, best, score = cand, m, worst
                    improved = True
                    if certifies(best, bound):
                        return xi, xi, best
        if not improved:
            break
    return None, xi, best
