import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mustab.criterion import (
    ANALYTIC,
    INCONCLUSIVE,
    STABLE_CERTIFIED,
    LimitPair,
    burn_in_node,
    certifies,
    compute_limits,
    criterion_margins,
    evaluate_criterion,
    search_xi,
)
from mustab.fields import DilationMap, PolyMap, homogeneity_degree
from mustab.rates import (
    BoundedDelay,
    ExponentialMu,
    LogFractionDelay,
    LogLogMu,
    LogMu,
    PowerLagDelay,
    PowerMu,
    ProportionalDelay,
    RateError,
    TabulatedDelay,
    TabulatedMu,
)
from mustab.transform import transform_field

from generate import (
    random_homogeneous_cooperative,
    random_homogeneous_nondecreasing,
    random_stable_linear_metzler,
)


def paper_transformed():
    f = PolyMap(2, [
        [(-5.0, (3, 0)), (2.0, (1, 1))],
        [(1.0, (2, 1)), (-4.0, (0, 2))],
    ])
    g = PolyMap(2, [
        [(1.0, (1, 1))],
        [(2.0, (4, 0))],
    ])
    r = DilationMap((1.0, 2.0))
    fbar, _ = transform_field(f, r)
    gbar, _ = transform_field(g, r)
    return fbar, gbar, r


# closed-form limit pairs for each (mu, delay) family combination; the D
# entries are for s = p/r_star
ANALYTIC_L_CASES = [
    (ExponentialMu(0.5), BoundedDelay(2.0), np.exp(1.0)),
    (PowerMu(1.5), BoundedDelay(3.0), 1.0),
    (LogMu(), BoundedDelay(1.0), 1.0),
    (LogLogMu(), BoundedDelay(5.0), 1.0),
    (PowerMu(2.0), ProportionalDelay(0.5), 4.0),
    (PowerMu(0.5), ProportionalDelay(0.25), 2.0),
    (LogMu(), ProportionalDelay(0.5), 1.0),
    (LogLogMu(), ProportionalDelay(0.5), 1.0),
    (LogMu(), LogFractionDelay(), 1.0),
    (LogLogMu(), PowerLagDelay(0.5), 1.0),
]


class TestAnalyticLimits:
    def test_L_table(self):
        for mu, delay, expect in ANALYTIC_L_CASES:
            pair = compute_limits(mu, delay, 0.0, 1.0)
            assert pair.method == ANALYTIC
            assert pair.L == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.25, 0.4, 0.5, 0.9])
    def test_log_gauge_under_powerlag_delay(self, alpha):
        # ln(1 + t) / ln(1 + t^alpha) -> 1/alpha
        pair = compute_limits(LogMu(), PowerLagDelay(alpha), 0.5, 1.0)
        assert (pair.method, pair.L, pair.D) == (ANALYTIC, 1.0 / alpha, 0.0)

    def test_loglog_gauge_under_logfraction_delay(self):
        # ln ln(t + 3) / ln ln(t/ln t + 3) -> 1
        pair = compute_limits(LogLogMu(), LogFractionDelay(), 0.5, 1.0)
        assert (pair.method, pair.L, pair.D) == (ANALYTIC, 1.0, 0.0)

    def test_power_gauge_under_a_tiny_proportional_factor_diverges(self):
        # L = q^(-beta) = 1e600 is past the largest float: inf, as numpy's
        # power would give, not an OverflowError
        pair = compute_limits(PowerMu(2.0), ProportionalDelay(1e-300), 0.0, 1.0)
        assert (pair.method, pair.L) == (ANALYTIC, np.inf)

    def test_exp_gauge_over_a_huge_bounded_delay_diverges(self):
        # L = e^(eps tau) = e^(1e291) is past the largest float: inf, with
        # no overflow warning
        pair = compute_limits(ExponentialMu(1e-9), BoundedDelay(1e300), 0.0, 1.0)
        assert (pair.method, pair.L) == (ANALYTIC, np.inf)

    def test_exp_with_proportional_diverges(self):
        pair = compute_limits(ExponentialMu(0.1), ProportionalDelay(0.5), 0.0, 1.0)
        assert np.isinf(pair.L)

    def test_ratio_diverges_for_fast_gauges_under_unbounded_delays(self):
        # mu(t)/mu(d(t)) grows like (ln t)^beta, t^((1 - alpha) beta) or
        # exponentially: analytic L = inf
        for mu in (PowerMu(1.0), ExponentialMu(0.1)):
            for delay in (LogFractionDelay(), PowerLagDelay(0.5)):
                pair = compute_limits(mu, delay, 0.5, 1.0)
                assert pair.method == ANALYTIC and np.isinf(pair.L)

    def test_D_exponential(self):
        assert compute_limits(ExponentialMu(0.3), BoundedDelay(1.0), 0.0, 1.0).D \
            == pytest.approx(0.3)
        assert np.isinf(
            compute_limits(ExponentialMu(0.3), BoundedDelay(1.0), 1.0, 1.0).D
        )
        # p from float exponent arithmetic lands a few ulps off s = 0
        assert compute_limits(ExponentialMu(0.3), BoundedDelay(1.0), 1e-15, 1.0).D == 0.3

    def test_D_power_cases(self):
        # beta*s below, at, above one
        assert compute_limits(PowerMu(1.0), BoundedDelay(1.0), 0.5, 1.0).D == 0.0
        assert compute_limits(PowerMu(2.0), BoundedDelay(1.0), 0.5, 1.0).D \
            == pytest.approx(2.0)
        assert np.isinf(compute_limits(PowerMu(3.0), BoundedDelay(1.0), 0.5, 1.0).D)
        # and a few ulps either side of beta*s = 1 still counts as at one
        for s in (0.5 - 1e-15, 0.5 + 1e-15):
            assert compute_limits(PowerMu(2.0), BoundedDelay(1.0), s, 1.0).D == 2.0

    def test_float_threshold_is_not_certified(self):
        # exactly p = 0.3 and beta*p/r* = 1, so D = 5 and the margin is +4.01;
        # in floats p = 0.2999999999999998, which once gave D = 0 and a
        # certificate with margin -0.99
        f = PolyMap(1, [[(-1.0, (1.2,))]])
        g = PolyMap(1, [[(0.01, (1.2,))]])
        r = DilationMap((1.5,))
        p = homogeneity_degree(f, r)
        assert p != 0.3
        limits = compute_limits(PowerMu(5.0), BoundedDelay(1.0), p, 1.5)
        assert (limits.method, limits.D) == (ANALYTIC, 5.0)
        fbar, _ = transform_field(f, r)
        gbar, _ = transform_field(g, r)
        rep = evaluate_criterion(fbar, gbar, np.ones(1), r, 1.5, p, limits)
        assert rep.verdict == INCONCLUSIVE
        assert rep.margins == pytest.approx([4.01])

    def test_past_threshold_is_not_met(self):
        # a threshold is met from above only within rounding noise: past it
        # D is infinite, and a D of beta or eps would certify a decay rate
        # the system does not have (x' ~ -3 x^(2 + 5e-10) is slower than 1/t)
        r = DilationMap((1.0,))
        for mu, a in ((PowerMu(1.0), 2.0000000005), (ExponentialMu(0.5), 1.0000000005)):
            f = PolyMap(1, [[(-3.0, (a,))]])
            g = PolyMap(1, [[(0.1, (a,))]])
            p = homogeneity_degree(f, r)
            limits = compute_limits(mu, BoundedDelay(1.0), p, 1.0)
            assert limits.method == ANALYTIC and np.isinf(limits.D)
            rep = evaluate_criterion(f, g, np.ones(1), r, 1.0, p, limits)
            assert rep.verdict == INCONCLUSIVE

    def test_D_slow_rates_vanish(self):
        for mu in (LogMu(), LogLogMu()):
            assert compute_limits(mu, BoundedDelay(1.0), 2.0, 2.0).D == 0.0

    def test_paper_pair(self):
        pair = compute_limits(LogMu(), LogFractionDelay(), 2.0, 2.0)
        assert pair.method == ANALYTIC
        assert (pair.L, pair.D) == (1.0, 0.0)


def closed_form(mu, delay, s):
    """(L, D) of a parametric (mu, delay) pair, written out here apart from
    criterion's table: L = lim mu(t)/mu(d(t)), D = lim mu'(t)/mu(t)**(1-s)."""
    m, d = mu.family, delay.family
    if m == "exp":
        L = math.exp(mu.eps * delay.tau_max) if d == "bounded" else math.inf
        D = mu.eps if s == 0 else math.inf
    elif m == "power":
        if d == "bounded":
            L = 1.0
        elif d == "proportional":
            L = delay.q ** -mu.beta
        else:
            L = math.inf
        bs = mu.beta * s
        D = 0.0 if bs < 1.0 - 1e-12 else (mu.beta if bs <= 1.0 + 1e-12 else math.inf)
    else:
        L = 1.0 / delay.alpha if (m, d) == ("log", "powerlag") else 1.0
        D = 0.0
    return L, D


@st.composite
def parametric_pairs(draw):
    """A pair of parametric families with random parameters, and an
    exponent deficit s at, below or above the gauge's threshold."""
    mu = draw(st.one_of(
        st.builds(ExponentialMu, st.floats(0.01, 5.0)),
        st.builds(PowerMu, st.floats(0.05, 5.0)),
        st.just(LogMu()),
        st.just(LogLogMu()),
    ))
    delay = draw(st.one_of(
        st.builds(BoundedDelay, st.floats(0.01, 10.0)),
        st.builds(ProportionalDelay, st.floats(0.01, 0.99)),
        st.just(LogFractionDelay()),
        st.builds(PowerLagDelay, st.floats(0.01, 0.99)),
    ))
    side = draw(st.sampled_from(("at", "below", "above")))
    if mu.family == "power":
        s = {"at": 1.0, "below": draw(st.floats(0.0, 0.99)),
             "above": draw(st.floats(1.01, 3.0))}[side] / mu.beta
    else:
        s = {"at": 0.0, "below": -draw(st.floats(0.01, 2.0)),
             "above": draw(st.floats(0.01, 2.0))}[side]
    return mu, delay, s


class TestClosedForms:
    @settings(max_examples=400, deadline=None)
    @given(parametric_pairs())
    def test_every_parametric_pair(self, case):
        # random parameters keep each pair's value apart from its
        # neighbours' (q^-beta and 1/alpha are not 1, exp(eps tau) is not 1)
        mu, delay, s = case
        pair = compute_limits(mu, delay, s, 1.0)
        L, D = closed_form(mu, delay, s)
        assert pair.method == ANALYTIC and pair.converged
        assert pair.L == pytest.approx(L, rel=1e-12)
        assert pair.D == pytest.approx(D, rel=1e-12)
        if mu.family in ("log", "loglog") and delay.family != "bounded" \
                and (mu.family, delay.family) != ("loglog", "powerlag"):
            # the ratio itself, in the log domain at t = 1e300, is within
            # 0.02 of these limits (ln ln t / ln t is 0.0095 there);
            # (loglog, powerlag) nears 1 only like ln(1/alpha) / ln ln t
            t = 1e300
            ratio = math.exp(mu.log_value(t) - mu.log_value(delay.delayed_time(t)))
            assert abs(ratio - pair.L) <= 0.02


class TestTabulatedLimits:
    # no finite table fixes a limit as t -> inf
    T = np.geomspace(1.0, 1e6, 16)

    def test_table_gauge_leaves_both_undetermined(self):
        for delay in (BoundedDelay(1.0), TabulatedDelay(self.T, 0.5 * self.T)):
            pair = compute_limits(TabulatedMu(self.T, np.log1p(self.T)), delay, 0.0, 1.0)
            assert np.isnan(pair.L) and np.isnan(pair.D)
            assert pair.method == "undetermined" and not pair.converged

    def test_table_delay_keeps_the_gauges_D(self):
        pair = compute_limits(PowerMu(2.0), TabulatedDelay(self.T, 0.5 * self.T), 0.5, 1.0)
        assert np.isnan(pair.L) and pair.D == 2.0
        assert not pair.converged and not pair.finite()


class TestMargins:
    def test_paper_margins(self):
        fbar, gbar, r = paper_transformed()
        m, _ = criterion_margins(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC))
        assert np.allclose(m, [-4.0, -1.0], atol=1e-12)

    def test_paper_margins_base_scaling(self):
        fbar, gbar, r = paper_transformed()
        m, _ = criterion_margins(fbar, gbar, np.ones(2), r, 1.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC))
        assert np.allclose(m, [-2.0, -0.5], atol=1e-12)

    def test_infinite_limits_give_infinite_margins(self):
        fbar, gbar, r = paper_transformed()
        m, _ = criterion_margins(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(np.inf, 0.0, ANALYTIC))
        assert np.all(np.isinf(m))

    def test_overflowing_delay_factor_gives_infinite_margins(self):
        # a finite L whose power L**((p+1)/r_star) overflows a float
        fbar, gbar, r = paper_transformed()
        m, _ = criterion_margins(fbar, gbar, np.ones(2), r, 0.05, 2.0,
                                 LimitPair(3e15, 0.0, "pointwise"))
        assert np.all(np.isinf(m))

    def test_overflowing_weight_gives_infinite_margins(self):
        # r_star / r_j = 1e300 / 1e-300 is past the largest float
        fbar, gbar, _ = paper_transformed()
        r = DilationMap((1e-300, 1.0))
        m, _ = criterion_margins(fbar, gbar, np.ones(2), r, 1e300, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC))
        assert m[0] == np.inf

    def test_xi_must_be_positive(self):
        fbar, gbar, r = paper_transformed()
        with pytest.raises(Exception):
            criterion_margins(fbar, gbar, np.array([1.0, 0.0]), r, 2.0, 2.0,
                              LimitPair(1.0, 0.0, ANALYTIC))


def parent_margins(fbar, gbar, xi, r, r_star, p, L, D):
    """The margins and bounds of criterion_margins for one scalar pair, the
    powers of each map taken twice: in fbar(xi) and gbar(xi), and again for
    the sums of the terms' absolute values."""
    L, D, w = np.float64(L), np.float64(D), r_star / np.asarray(r.r)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        fb, gb = fbar(xi) / xi, gbar(xi) / xi
        Lfac = L ** ((float(p) + 1.0) / r_star)
        m = w * (fb + Lfac * gb) + D
        ok = np.isfinite(L + D + Lfac) & np.isfinite(m)
        fa, ga = (np.multiply.reduce(xi ** F.E, axis=-1).dot(np.abs(F.CK)) / xi
                  for F in (fbar, gbar))
        u = np.finfo(float).eps / 2.0
        k = 3 * fbar.n + len(fbar.C) + len(gbar.C) + 8 + 2.0 * np.abs(np.log(Lfac))
        bound = k * u / (1.0 - k * u) * (w * (fa + Lfac * ga) + np.abs(D))
    return np.where(ok, m, np.inf), bound


@st.composite
def margin_cases(draw):
    """Maps of up to 11 terms in n <= 6, negative exponents allowed, with
    weights, r, a limit pair and p."""
    n = draw(st.integers(1, 6))
    term = st.tuples(st.floats(-5.0, 5.0).filter(bool),
                     st.tuples(*[st.floats(-2.0, 4.0)] * n))

    def poly():
        rows = [[] for _ in range(n)]
        for _ in range(draw(st.integers(0, 11))):
            rows[draw(st.integers(0, n - 1))].append(draw(term))
        return PolyMap(n, rows, allow_negative_exponents=True)

    xi = np.array(draw(st.tuples(*[st.floats(0.1, 10.0)] * n)))
    r = DilationMap(draw(st.tuples(*[st.sampled_from((0.5, 1.0, 2.0))] * n)))
    return (poly(), poly(), xi, r, draw(st.floats(0.0, 1e3)), draw(st.floats(-2.0, 2.0)),
            draw(st.floats(0.0, 3.0)))


class TestOnePowerTable:
    @settings(max_examples=300, deadline=None)
    @given(margin_cases())
    def test_margins_and_bounds_are_the_parent_formulas(self, case):
        fbar, gbar, xi, r, L, D, p = case
        r_star = max(r.r)
        m, b = criterion_margins(fbar, gbar, xi, r, r_star, p, LimitPair(L, D, ANALYTIC))
        want_m, want_b = parent_margins(fbar, gbar, xi, r, r_star, p, L, D)
        assert np.array_equal(m, want_m)
        # the parent's bound took xi ** E, which numpy rounds as libm's pow
        # when both operands are one element, while the broadcast that the
        # margins take may differ from it by an ulp
        if all(np.array_equal(xi ** F.E, xi[None, :] ** F.E) for F in (fbar, gbar)):
            assert np.array_equal(b, want_b, equal_nan=True)
        else:
            np.testing.assert_allclose(b, want_b, rtol=1e-15, atol=0.0)


class TestCertifies:
    def test_one_row(self):
        b = np.full(2, 1e-15)
        assert certifies(np.array([-4.0, -1.0]), b)
        assert not certifies(np.array([-4.0, 0.0]), b)
        assert not certifies(np.array([-4.0, -0.5e-15]), b)
        assert not certifies(np.array([-4.0, np.nan]), b)
        assert not certifies(np.array([-4.0, -1.0]), np.array([0.0, np.nan]))
        assert not certifies(np.array([-4.0, -np.inf]), np.array([0.0, np.inf]))
        # a finite margin and bound whose sum overflows
        assert not certifies(np.array([-4.0, 1e308]), np.array([1e-15, 1e308]))

    def test_row_wise(self):
        m = np.array([[-4.0, -1.0], [-4.0, np.inf], [-np.inf, -2e-15], [1.0, -1.0]])
        assert certifies(m, np.full((4, 2), 1e-15)).tolist() == [True, False, True, False]

    def test_bound_covers_the_reference_rounding_only(self):
        fbar, gbar, r = paper_transformed()
        m, b = criterion_margins(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC))
        assert m.tolist() == [-4.0, -1.0]
        assert np.all((0.0 < b) & (b < 1e-13))


# exact sum of a row's terms at xi, from the map's own float coefficients
def exact_row(F, xi, j):
    return sum((Fraction(c) * math.prod(Fraction(x) ** int(e) for x, e in zip(xi, row))
                for c, row, k in zip(F.C.tolist(), F.E.tolist(), F.k.tolist()) if k == j),
               Fraction(0))


@st.composite
def cancelling_systems(draw):
    """A system whose margins Fraction computes exactly: integer exponents,
    xi and r powers of 2, L = 1 or 2 with (p+1)/r* = 1, D a float.  Each row
    of f has a term that cancels the rest of the margin to within a
    rounding, and a small term of either sign decides the exact sign."""
    n = draw(st.integers(1, 3))
    xi = [2.0 ** draw(st.integers(-3, 3)) for _ in range(n)]
    r = [2.0 ** draw(st.integers(-1, 1)) for _ in range(n)]
    L = draw(st.sampled_from((1.0, 2.0)))
    D = draw(st.sampled_from((0.0, 2.0 ** -40, 0.5)))
    exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    coeff = st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(0.5, 1.0), st.integers(-20, 50)
                      ).map(lambda m: m[0] * m[1] * 2.0 ** m[2])

    def value(terms):
        return sum((Fraction(c) * math.prod(Fraction(x) ** e for x, e in zip(xi, ex))
                    for c, ex in terms), Fraction(0))

    f, g = [], []
    for j in range(n):
        fj = draw(st.lists(st.tuples(coeff, exps), min_size=1, max_size=5))
        gj = draw(st.lists(st.tuples(coeff, exps), max_size=2))
        # margin_j = (r*/r_j) (f_j + L g_j)/xi_j + D is 0 when f_j + L g_j
        # is -D xi_j r_j / r*
        rest = value(fj) + Fraction(L) * value(gj) + Fraction(D * xi[j] * r[j]) / Fraction(max(r))
        last = draw(exps)
        fj.append((float(-rest / value([(1.0, last)])), last))
        fj.append((draw(st.sampled_from((-1.0, 1.0))) * 2.0 ** draw(st.integers(-60, 0)),
                   draw(exps)))
        # the cancelling term is 0 when the rest cancels exactly
        f.append([t for t in fj if t[0] != 0.0])
        g.append(gj)
    return PolyMap(n, f), PolyMap(n, g), xi, DilationMap(tuple(r)), L, D


class TestSoundMargins:
    @settings(max_examples=500, deadline=None)
    @given(cancelling_systems())
    def test_no_certificate_on_an_exact_margin_at_least_zero(self, case):
        fbar, gbar, xi, r, L, D = case
        r_star = max(r.r)
        p = r_star - 1.0  # (p + 1)/r_star = 1, so L**((p+1)/r_star) = L exactly
        flags = {"structure:cooperative": "certified", "structure:nondecreasing": "certified"}
        rep = evaluate_criterion(fbar, gbar, np.array(xi), r, r_star, p,
                                 LimitPair(L, D, ANALYTIC), flags)
        exact = [Fraction(r_star) / Fraction(rj) * (exact_row(fbar, xi, j)
                 + Fraction(L) * exact_row(gbar, xi, j)) / Fraction(xi[j]) + Fraction(D)
                 for j, rj in enumerate(r.r)]
        if rep.verdict == STABLE_CERTIFIED:
            assert all(m < 0 for m in exact), (rep.margins, exact)


def burn_in_loop(ts, mu, delay, fbar, gbar, xi, r, r_star, p):
    """The per-node burn-in search that burn_in_node replaced, kept as its
    reference: one scalar limit pair and one margin row per node."""
    for k, tk in enumerate(ts):
        try:
            d = float(delay.delayed_time(tk))
        except RateError:
            continue
        if d < 0:
            continue
        Lpt = float(mu.value(tk)) / max(float(mu.value(d)), 1e-300)
        Dpt = float(mu.derivative(tk)) * float(mu.value(tk)) ** (p / r_star - 1.0)
        m, b = criterion_margins(fbar, gbar, xi, r, r_star, p, LimitPair(Lpt, Dpt, "pointwise"))
        if certifies(m, b):
            return k
    return None


_TABLE_T = np.geomspace(1.0, 300.0, 12)
# a delay of each family with a gauge it pairs with in the benchmark
BURN_IN_PAIRS = [
    (lambda rng: BoundedDelay(rng.uniform(1.0, 3.0)), lambda rng: PowerMu(rng.uniform(0.3, 1.5))),
    (lambda rng: ProportionalDelay(rng.uniform(0.3, 0.8)),
     lambda rng: PowerMu(rng.uniform(0.3, 1.5))),
    (lambda rng: PowerLagDelay(rng.uniform(0.3, 0.8)), lambda rng: LogLogMu()),
    (lambda rng: LogFractionDelay(), lambda rng: LogMu()),
    (lambda rng: TabulatedDelay(_TABLE_T, rng.uniform(0.5, 2.0) * np.sqrt(_TABLE_T)),
     lambda rng: PowerMu(rng.uniform(0.3, 1.5))),
]


def rounding_system():
    """f and g (zero) with r = (1, 1), r* = 1, p = 0, whose first margin at
    xi = (1, 1) is f_1's coefficient sum: +0.001 exactly, -2 in floats."""
    f = PolyMap(2, [[(-1.1000000000000002e16, (1, 0)), (1e16, (0.5, 0.5)), (1.0, (0, 1)),
                     (1.0, (0.25, 0.75)), (0.001, (0.75, 0.25)), (1e15, (0.125, 0.875))],
                    [(1.0, (1, 0)), (-2.0, (0, 1))]])
    return f, PolyMap(2, [[], []])


class TestBurnIn:
    def test_matches_the_per_node_loop(self):
        # the times start inside [0, tau) of a bounded delay, where d < 0,
        # and before the domains of the logfraction, powerlag and table delays
        rng = np.random.default_rng(7)
        ts = np.geomspace(0.5, 200.0, 200)
        seen = set()
        for k in range(60):
            make_delay, make_gauge = BURN_IN_PAIRS[k % len(BURN_IN_PAIRS)]
            delay, mu = make_delay(rng), make_gauge(rng)
            n = 1 + k % 3
            r = DilationMap(tuple(rng.choice([0.5, 1.0, 2.0], size=n)))
            p = float(rng.uniform(0.5, 2.0))
            fbar, _ = transform_field(random_homogeneous_cooperative(rng, n, r, p), r)
            gbar, _ = transform_field(random_homogeneous_nondecreasing(rng, n, r, p), r)
            args = (ts, mu, delay, fbar, gbar, np.ones(n), r, max(r.r), p)
            node = burn_in_node(*args)
            assert node == burn_in_loop(*args)
            seen.add(None if node is None else node > 0)
        # found at the first node, found later, and not found all occur
        assert seen == {None, False, True}

    def test_overflowing_and_zero_gauges_are_skipped(self):
        # mu(d) = 0 at t = 1 under tau = 1, one ulp later L**22 overflows, and
        # at t = 1.5 the margin is positive
        f = PolyMap(1, [[(-1.0, (1.0,))]])
        g = PolyMap(1, [[(0.1, (1.0,))]])
        r = DilationMap((1.0,))
        fbar, _ = transform_field(f, r)
        gbar, _ = transform_field(g, r)
        ts = np.array([1.0, np.nextafter(1.0, 2.0), 1.5, 50.0])
        assert burn_in_node(ts, LogMu(), BoundedDelay(1.0), fbar, gbar, np.ones(1), r,
                            0.045, 0.0) == 3

    def test_no_node_inside_the_domain(self):
        fbar, gbar, r = paper_transformed()
        ts = np.array([0.5, 1.0, 2.0])
        assert burn_in_node(ts, LogMu(), LogFractionDelay(), fbar, gbar, np.ones(2), r,
                            2.0, 2.0) is None

    def test_rounding_is_no_burn_in(self):
        # at xi = (1, 1) margin_1 is f_1's coefficient sum plus D(t) > 0:
        # exactly +0.001 + D(t), in floats -2 + D(t), negative at every node
        f, g = rounding_system()
        ts = np.geomspace(2.0, 1e6, 50)
        assert burn_in_node(ts, LogMu(), BoundedDelay(1.0), f, g, np.ones(2),
                            DilationMap((1.0, 1.0)), 1.0, 0.0) is None


class TestVerdict:
    def flags(self):
        return {
            "structure:cooperative": "certified",
            "structure:nondecreasing": "certified",
        }

    def test_certified(self):
        fbar, gbar, r = paper_transformed()
        rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC), self.flags())
        assert rep.verdict == STABLE_CERTIFIED
        assert "mu(t)^(-0.5)" in rep.rate_statement or "-1/2" in rep.rate_statement

    def test_nonnegative_margin_inconclusive(self):
        fbar, gbar, r = paper_transformed()
        rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(2.0, 0.0, ANALYTIC), self.flags())
        # L = 2 lifts the delayed term enough to lose component 2
        assert rep.verdict == INCONCLUSIVE

    def test_refuted_structure_blocks_certificate(self):
        fbar, gbar, r = paper_transformed()
        flags = self.flags()
        flags["structure:cooperative"] = "refuted"
        rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC), flags)
        assert rep.verdict == INCONCLUSIVE

    def test_undetermined_limits_block_certificate(self):
        fbar, gbar, r = paper_transformed()
        for L, D in ((np.nan, 0.0), (1.0, np.nan)):
            rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                     LimitPair(L, D, "undetermined"), self.flags())
            assert rep.verdict == INCONCLUSIVE
            assert np.isinf(rep.margins).all()

    def test_report_serializes(self):
        fbar, gbar, r = paper_transformed()
        rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, ANALYTIC), self.flags())
        d = rep.to_dict()
        assert d["margins"] == pytest.approx([-4.0, -1.0])
        assert d["L"] == 1.0 and d["D"] == 0.0
        assert d["verdict"] == STABLE_CERTIFIED


class TestSearchXi:
    def test_finds_weights_for_dominant_linear_systems(self):
        rng = np.random.default_rng(20)
        r = DilationMap((1.0, 1.0, 1.0))
        for _ in range(10):
            f, g = random_stable_linear_metzler(rng, 3)
            found, xi, margins = search_xi(f, g, r, 1.0, 0.0,
                                           LimitPair(1.0, 0.0, ANALYTIC))
            assert found is not None
            assert np.all(margins < 0)

    def test_no_weights_on_undetermined_limits(self):
        # the same system finds weights when L is known
        rng = np.random.default_rng(20)
        r = DilationMap((1.0, 1.0, 1.0))
        f, g = random_stable_linear_metzler(rng, 3)
        for L in (1.0, np.nan):
            found, xi, margins = search_xi(f, g, r, 1.0, 0.0, LimitPair(L, 0.0, "undetermined"))
            assert (found is not None) == (L == 1.0)

    def test_ranks_weights_by_margin_plus_bound(self):
        # every move from (1, 1) raises margin_2 = (x1 - 2 x2)/x2 above -1,
        # so ranking by the raw largest margin, -1 at (1, 1), accepts none;
        # (1.25, 1) certifies: margins (-1.2e15, -0.75), bounds (51, 8e-15)
        f, g = rounding_system()
        found, xi, margins = search_xi(f, g, DilationMap((1.0, 1.0)), 1.0, 0.0,
                                       LimitPair(1.0, 0.0, ANALYTIC))
        assert found is not None and found.tolist() == [1.25, 1.0]

    def test_reports_best_attempt_on_failure(self):
        f = PolyMap(1, [[(1.0, (1.0,))]])  # growing, no weights can help
        g = PolyMap(1, [[(1.0, (1.0,))]])
        found, xi, margins = search_xi(f, g, DilationMap((1.0,)), 1.0, 0.0,
                                       LimitPair(1.0, 0.0, ANALYTIC))
        assert found is None
        assert margins[0] > 0
