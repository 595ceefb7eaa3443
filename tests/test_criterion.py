import warnings

import numpy as np
import pytest

from mustab.criterion import (
    ANALYTIC,
    INCONCLUSIVE,
    MARGIN_EPS,
    NUMERIC,
    STABLE_CERTIFIED,
    LimitPair,
    _fit_ratio_limit,
    burn_in_node,
    certifies,
    compute_limits,
    criterion_margins,
    estimate_D,
    estimate_L,
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
        # ln(1 + t) / ln(1 + t^alpha) -> 1/alpha, which the estimator nears
        pair = compute_limits(LogMu(), PowerLagDelay(alpha), 0.5, 1.0)
        assert (pair.method, pair.L, pair.D) == (ANALYTIC, 1.0 / alpha, 0.0)
        assert estimate_L(LogMu(), PowerLagDelay(alpha))[0] == pytest.approx(1.0 / alpha, rel=0.01)

    def test_loglog_gauge_under_logfraction_delay(self):
        # ln ln(t + 3) / ln ln(t/ln t + 3) -> 1
        pair = compute_limits(LogLogMu(), LogFractionDelay(), 0.5, 1.0)
        assert (pair.method, pair.L, pair.D) == (ANALYTIC, 1.0, 0.0)
        assert estimate_L(LogLogMu(), LogFractionDelay())[0] == pytest.approx(1.0, rel=0.01)

    def test_exp_with_proportional_diverges(self):
        pair = compute_limits(ExponentialMu(0.1), ProportionalDelay(0.5), 0.0, 1.0)
        assert np.isinf(pair.L)

    def test_ratio_diverges_for_fast_gauges_under_unbounded_delays(self):
        # mu(t)/mu(d(t)) grows like (ln t)^beta, t^((1 - alpha) beta) or
        # exponentially: analytic L = inf, never a finite numeric fit
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


class TestNumericEstimators:
    def test_estimator_matches_analytic_table(self):
        for mu, delay, expect in ANALYTIC_L_CASES:
            if not np.isfinite(expect):
                continue
            est, converged = estimate_L(mu, delay)
            assert converged
            assert est == pytest.approx(expect, rel=0.01)

    def test_estimator_detects_divergence(self):
        est, _ = estimate_L(ExponentialMu(0.1), ProportionalDelay(0.5))
        assert np.isinf(est)

    def test_estimate_D(self):
        assert estimate_D(LogMu(), 1.0)[0] == 0.0
        assert np.isinf(estimate_D(ExponentialMu(0.5), 1.0)[0])
        val, conv = estimate_D(PowerMu(2.0), 0.5)
        assert conv
        assert val == pytest.approx(2.0, rel=0.01)

    def test_tabulated_inputs_use_numeric_path(self):
        t = np.exp(np.linspace(0.0, 10.0, 64))
        mu = TabulatedMu(t, np.log1p(t))
        delay = TabulatedDelay(t, 0.5 * t)
        pair = compute_limits(mu, delay, 0.0, 1.0)
        assert pair.method == NUMERIC
        # log mu with proportional-type delay tends to 1
        assert pair.L == pytest.approx(1.0, rel=0.15)

    def test_tabulated_ends_are_sampled_exactly(self):
        # the probe grids end exactly on the last table time, not one
        # rounding step beyond it
        t = [3.0, 10.0, 100.0, 1e3, 1e4, 1e5]
        pair = compute_limits(LogMu(), TabulatedDelay(t, np.ones(6)), 0.0, 1.0)
        assert pair.L == pytest.approx(1.0, rel=1e-3)
        t = np.geomspace(10.0, 1e4, 20)
        pair = compute_limits(TabulatedMu(t, (1.0 + t) ** 2), BoundedDelay(1.0), 0.0, 1.0)
        assert pair.L == pytest.approx(1.0, rel=0.01)
        assert pair.D == 0.0

    def test_subnormal_parameter_fits_without_warnings(self):
        # 1/u overflows at a subnormal u: the columns it feeds are dropped
        # as non-finite, and no floating-point warning escapes
        u = np.array([1e-3, 1e-200, 5e-324])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = _fit_ratio_limit(np.log1p(u), u)
        assert est == pytest.approx(1.0, rel=1e-9)

    def test_tabulated_domain_too_short(self):
        t = np.linspace(1.0, 5.0, 8)
        mu = TabulatedMu(t, np.log1p(t))
        delay = TabulatedDelay(t, np.full_like(t, 0.5))
        with pytest.raises(RateError):
            compute_limits(mu, delay, 0.0, 1.0)


class TestMargins:
    def test_paper_margins(self):
        fbar, gbar, r = paper_transformed()
        m = criterion_margins(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                              LimitPair(1.0, 0.0, ANALYTIC))
        assert np.allclose(m, [-4.0, -1.0], atol=1e-12)

    def test_paper_margins_base_scaling(self):
        fbar, gbar, r = paper_transformed()
        m = criterion_margins(fbar, gbar, np.ones(2), r, 1.0, 2.0,
                              LimitPair(1.0, 0.0, ANALYTIC))
        assert np.allclose(m, [-2.0, -0.5], atol=1e-12)

    def test_infinite_limits_give_infinite_margins(self):
        fbar, gbar, r = paper_transformed()
        m = criterion_margins(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                              LimitPair(np.inf, 0.0, ANALYTIC))
        assert np.all(np.isinf(m))

    def test_overflowing_delay_factor_gives_infinite_margins(self):
        # a finite L whose power L**((p+1)/r_star) overflows a float
        fbar, gbar, r = paper_transformed()
        m = criterion_margins(fbar, gbar, np.ones(2), r, 0.05, 2.0,
                              LimitPair(3e15, 0.0, "pointwise"))
        assert np.all(np.isinf(m))

    def test_xi_must_be_positive(self):
        fbar, gbar, r = paper_transformed()
        with pytest.raises(Exception):
            criterion_margins(fbar, gbar, np.array([1.0, 0.0]), r, 2.0, 2.0,
                              LimitPair(1.0, 0.0, ANALYTIC))


class TestCertifies:
    def test_one_row(self):
        assert certifies(np.array([-4.0, -1.0]))
        assert not certifies(np.array([-4.0, 0.0]))
        assert not certifies(np.array([-4.0, -0.5 * MARGIN_EPS]))
        assert not certifies(np.array([-4.0, np.nan]))

    def test_row_wise(self):
        m = np.array([[-4.0, -1.0], [-4.0, np.inf], [-np.inf, -2.0 * MARGIN_EPS],
                      [1.0, -1.0]])
        assert certifies(m).tolist() == [True, False, True, False]


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
        m = criterion_margins(fbar, gbar, xi, r, r_star, p, LimitPair(Lpt, Dpt, "pointwise"))
        if certifies(m):
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

    def test_unconverged_limits_block_certificate(self):
        fbar, gbar, r = paper_transformed()
        rep = evaluate_criterion(fbar, gbar, np.ones(2), r, 2.0, 2.0,
                                 LimitPair(1.0, 0.0, NUMERIC, converged=False),
                                 self.flags())
        assert rep.verdict == INCONCLUSIVE

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

    def test_no_weights_on_unconverged_limits(self):
        # the same system finds weights when the estimate converged
        rng = np.random.default_rng(20)
        r = DilationMap((1.0, 1.0, 1.0))
        f, g = random_stable_linear_metzler(rng, 3)
        for converged in (True, False):
            limits = LimitPair(1.0, 0.0, NUMERIC, converged=converged)
            found, xi, margins = search_xi(f, g, r, 1.0, 0.0, limits)
            assert (found is not None) == converged

    def test_reports_best_attempt_on_failure(self):
        f = PolyMap(1, [[(1.0, (1.0,))]])  # growing, no weights can help
        g = PolyMap(1, [[(1.0, (1.0,))]])
        found, xi, margins = search_xi(f, g, DilationMap((1.0,)), 1.0, 0.0,
                                       LimitPair(1.0, 0.0, ANALYTIC))
        assert found is None
        assert margins[0] > 0
