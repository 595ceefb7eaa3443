import numpy as np
import pytest

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
    _Cubic,
    _pchip,
    make_delay,
    make_mu,
)


class TestMuFamilies:
    def test_values(self):
        assert ExponentialMu(0.5).value(2.0) == pytest.approx(np.e)
        assert PowerMu(2.0).value(3.0) == pytest.approx(16.0)
        assert LogMu().value(np.e - 1.0) == pytest.approx(1.0)
        assert LogLogMu().value(np.e ** np.e - 3.0) == pytest.approx(1.0)

    def test_derivatives_match_finite_differences(self):
        mus = [ExponentialMu(0.3), PowerMu(1.7), LogMu(), LogLogMu()]
        for mu in mus:
            for t in (0.5, 3.0, 50.0):
                fd = (mu.value(t + 1e-6) - mu.value(t - 1e-6)) / 2e-6
                assert mu.derivative(t) == pytest.approx(fd, rel=1e-5)

    def test_log_value_consistent(self):
        for mu in (ExponentialMu(0.3), PowerMu(1.7), LogMu(), LogLogMu()):
            for t in (1.0, 10.0, 200.0):
                assert mu.log_value(t) == pytest.approx(np.log(mu.value(t)), rel=1e-12)

    def test_log_value_reaches_huge_times(self):
        # the whole point of log_value: no overflow at t = 10^250
        v = ExponentialMu(1.0).log_value(1e250)
        assert v == pytest.approx(1e250)

    def test_parameter_validation(self):
        with pytest.raises(RateError):
            ExponentialMu(0.0)
        with pytest.raises(RateError):
            PowerMu(-1.0)
        for bad in (np.nan, np.inf):
            for family in (ExponentialMu, PowerMu, BoundedDelay, ProportionalDelay,
                           PowerLagDelay):
                with pytest.raises(RateError):
                    family(bad)

    def test_negative_time_rejected(self):
        with pytest.raises(RateError):
            LogMu().value(-1.0)

    def test_every_method_rejects_negative_time(self):
        # log_value too: LogMu's once returned nan with a RuntimeWarning
        for mu in (ExponentialMu(0.3), PowerMu(1.7), LogMu(), LogLogMu()):
            for method in (mu.value, mu.derivative, mu.log_value):
                with pytest.raises(RateError, match="t >= 0"):
                    method(-0.5)


class TestTabulatedMu:
    def test_interpolates_samples(self):
        t = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        v = np.log1p(t)
        mu = TabulatedMu(t, v)
        assert mu.value(2.0) == pytest.approx(np.log(3.0))
        assert mu.value(3.0) == pytest.approx(np.log(4.0), rel=1e-2)

    def test_rejects_bad_tables(self):
        with pytest.raises(RateError):
            TabulatedMu([1, 2, 3], [1, 2, 3])  # too short
        with pytest.raises(RateError):
            TabulatedMu([1, 2, 2, 4], [1, 2, 3, 4])  # not increasing
        with pytest.raises(RateError):
            TabulatedMu([1, 2, 3, 4], [1, 2, 1.5, 3])  # not monotone
        with pytest.raises(RateError):
            TabulatedMu([1, 2, 30, 40], [1, 2, 3, 3])  # flat tail

    def test_rejects_nonfinite_samples(self):
        for t, v in (([1, 2, np.nan, 8], [1, 2, 3, 4]), ([1, 2, 4, np.inf], [1, 2, 3, 4]),
                     ([1, 2, 4, 8], [1, 2, np.nan, 4]), ([1, 2, 4, 8], [1, 2, 3, np.inf])):
            with pytest.raises(RateError, match="finite"):
                TabulatedMu(t, v)

    def test_domain_enforced(self):
        mu = TabulatedMu([1, 2, 4, 8], [1, 2, 3, 4])
        with pytest.raises(RateError):
            mu.value(9.0)

    def test_derivative_domain_enforced(self):
        # value and derivative agree on the domain: both raise past t_max
        mu = TabulatedMu([1, 2, 4, 8], [1, 2, 3, 4])
        assert mu.derivative(8.0) > 0
        with pytest.raises(RateError, match="beyond"):
            mu.derivative(9.0)
        with pytest.raises(RateError, match="beyond"):
            mu.derivative(np.array([2.0, 9.0]))


class TestDelayFamilies:
    def test_bounded(self):
        d = BoundedDelay(2.0)
        assert d.delayed_time(5.0) == pytest.approx(3.0)

    def test_proportional(self):
        d = ProportionalDelay(0.25)
        assert d.delayed_time(8.0) == pytest.approx(2.0)
        assert d.tau(8.0) == pytest.approx(6.0)
        with pytest.raises(RateError):
            ProportionalDelay(1.0)

    def test_logfraction_validity_window(self):
        d = LogFractionDelay()
        assert d.delayed_time(np.e) == pytest.approx(np.e)
        assert d.delayed_time(np.e ** 2) == pytest.approx(np.e ** 2 / 2.0)
        # below t = e the delay would be negative
        with pytest.raises(RateError):
            d.tau(2.0)

    def test_powerlag_validity_window(self):
        d = PowerLagDelay(0.5)
        assert d.delayed_time(9.0) == pytest.approx(3.0)
        with pytest.raises(RateError):
            d.tau(0.5)

    def test_powerlag_breakpoint_past_the_largest_float_is_inf(self):
        # 20 ** 1e9 overflows a float: the next breakpoint is inf, as
        # numpy's power would give, not an OverflowError
        assert PowerLagDelay(1e-9).d_inverse(20.0) == np.inf
        assert PowerLagDelay(0.5).d_inverse(20.0) == 400.0

    def test_delay_is_unbounded_for_unbounded_families(self):
        for d in (ProportionalDelay(0.5), LogFractionDelay(), PowerLagDelay(0.5)):
            lo = max(d.t_min, 10.0)
            assert d.tau(lo * 1e6) > d.tau(lo) * 100


class TestTabulatedDelay:
    def test_basic(self):
        t = np.array([0.0, 1.0, 2.0, 4.0])
        d = TabulatedDelay(t, 0.5 * t)
        assert d.tau(2.0) == pytest.approx(1.0)

    def test_nonmonotone_delayed_time_rejected(self):
        t = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(RateError, match=r"'tau' .* decrease on \[1, 2\]"):
            TabulatedDelay(t, np.array([0.0, 0.0, 1.9, 0.0]))

    def test_decrease_inside_an_interval_rejected(self):
        # on [1, 2] tau's slope is 0 at both knots with secant 0.9, so the
        # cubic's slope peaks at 1.35 mid-interval: d' = 1 - tau' is 1 at
        # both ends and -0.35 at the vertex, though d increases knot to knot
        with pytest.raises(RateError, match=r"decrease on \[1, 2\]"):
            TabulatedDelay([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.9, 0.9])

    def test_constant_delayed_time_accepted(self):
        t = np.geomspace(3.0, 1e6, 40)
        TabulatedDelay(t, t - 3.0)

    def test_negative_tau_rejected(self):
        with pytest.raises(RateError):
            TabulatedDelay([0, 1, 2, 3], [0, -0.1, 0, 0])

    def test_rejects_nonfinite_samples(self):
        # NaN passes the "strictly increasing" test: every comparison is false
        for t, tau in (([3, 10, np.nan, 1e3], [0, 1, 2, 3]), ([3, 10, 100, np.inf], [0, 1, 2, 3]),
                       ([3, 10, 100, 1e3], [0, np.nan, 2, 3]), ([3, 10, 100, 1e3], [0, 1, 2, np.inf])):
            with pytest.raises(RateError, match="finite"):
                TabulatedDelay(t, tau)


class TestPchipAgainstScipy:
    """The numpy PCHIP against scipy's PchipInterpolator, its reference."""

    @staticmethod
    def random_tables(rng, count):
        for i in range(count):
            n = int(rng.integers(4, 41))
            # uneven spacing: gaps drawn over four decades
            x = np.cumsum(rng.exponential(1.0, n) * 10.0 ** rng.integers(-2, 3, n))
            x -= rng.uniform(0.0, 5.0)
            kind = i % 4
            if kind == 0:  # strictly increasing
                y = np.cumsum(rng.exponential(1.0, n))
            elif kind == 1:  # nondecreasing with flat runs
                y = np.cumsum(rng.exponential(1.0, n) * (rng.random(n) < 0.5))
            elif kind == 2:  # sign changes of the secants
                y = rng.normal(size=n)
            else:  # flat runs and sign changes together
                y = rng.integers(-2, 3, n).astype(float)
            yield x, y

    def test_values_and_derivatives_match_scipy(self):
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(1980)
        for x, y in self.random_tables(rng, 1000):
            ref = interpolate.PchipInterpolator(x, y)
            ours = _Cubic(x, _pchip(x, y))
            h = np.diff(x)
            inside = (x[:-1, None] + h[:, None] * rng.random((len(h), 4))).ravel()
            # the end intervals extend past the table
            past = np.array([x[0] - 0.25 * h[0], x[-1] + 0.25 * h[-1]])
            # relative to the table's scale, so that zero crossings compare too
            y_scale = np.abs(y).max()
            m_scale = np.abs(np.diff(y) / h).max()
            for t in (x, inside, past):
                np.testing.assert_allclose(ours(t), ref(t), rtol=1e-14, atol=1e-14 * y_scale)
                np.testing.assert_allclose(ours.derivative(t), ref(t, 1),
                                           rtol=1e-14, atol=1e-14 * m_scale)

    @staticmethod
    def random_delay_tables(rng, count):
        """Tables whose PCHIP tau has slope at most 0.9, so d = t - tau is
        increasing: tau's secants lie in [-1, 0.3], and a monotone cubic
        Hermite piece's slope is at most three times its secant."""
        for _ in range(count):
            t = np.cumsum(rng.exponential(1.0, 12) * 10.0 ** rng.integers(-1, 3, 12))
            tau = [rng.uniform(0.0, 1.0) * t[0]]
            for h in np.diff(t):
                tau.append(max(tau[-1] + h * rng.uniform(-1.0, 0.3), 0.0))
            yield t, np.array(tau)

    def test_delayed_time_matches_scipy(self):
        # TabulatedDelay evaluates d(t) = t - tau(t) as one cubic per interval
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(2024)
        for t, tau in self.random_delay_tables(rng, 200):
            delay = TabulatedDelay(t, tau)
            h = np.diff(t)
            grid = np.concatenate([t, (t[:-1, None] + h[:, None] * rng.random((11, 4))).ravel()])
            np.testing.assert_allclose(delay.d(grid), grid - interpolate.PchipInterpolator(t, tau)(grid),
                                       rtol=1e-14, atol=1e-14 * t[-1])

    def test_rejects_exactly_where_scipy_decreases(self):
        # d' from scipy's PCHIP on 2,001 points per interval: a table is
        # accepted iff none is below -1e-9, and the interval named is the
        # first with one
        interpolate = pytest.importorskip("scipy.interpolate")
        rng = np.random.default_rng(2025)
        tables = list(self.random_delay_tables(rng, 100))
        for _ in range(100):
            t = np.cumsum(rng.exponential(1.0, 12) * 10.0 ** rng.integers(-1, 3, 12))
            tables.append((t, rng.uniform(0.0, 1.0, 12) * t))
        rejected = 0
        for t, tau in tables:
            s = np.linspace(0.0, 1.0, 2001)
            grid = t[:-1, None] + np.diff(t)[:, None] * s
            slope = 1.0 - interpolate.PchipInterpolator(t, tau)(grid, 1)
            first = np.flatnonzero((slope < -1e-9).any(axis=1))
            if len(first):
                rejected += 1
                with pytest.raises(RateError, match=r"decrease on \[%g, %g\]"
                                   % (t[first[0]], t[first[0] + 1])):
                    TabulatedDelay(t, tau)
            else:
                TabulatedDelay(t, tau)
        assert rejected >= 90

    def test_scalar_matches_block(self):
        x = np.array([3.0, 10.0, 100.0, 1e3, 1e4])
        p = _Cubic(x, _pchip(x, np.sqrt(x)))
        t = np.array([3.0, 7.5, 10.0, 512.0, 1e4])
        assert [p(v) for v in t] == p(t).tolist()
        assert [p.derivative(v) for v in t] == p.derivative(t).tolist()


class TestFactories:
    def test_round_trip_specs(self):
        specs = [
            {"family": "exp", "eps": 0.2},
            {"family": "power", "beta": 1.5},
            {"family": "log"},
            {"family": "loglog"},
        ]
        for spec in specs:
            mu = make_mu(spec)
            assert mu.family == spec["family"]

    def test_delay_specs(self):
        assert isinstance(make_delay({"family": "bounded", "tau_max": 1.0}), BoundedDelay)
        assert isinstance(make_delay({"family": "proportional", "q": 0.5}), ProportionalDelay)
        assert isinstance(make_delay({"family": "logfraction"}), LogFractionDelay)
        assert isinstance(make_delay({"family": "powerlag", "alpha": 0.5}), PowerLagDelay)

    def test_unknown_family(self):
        with pytest.raises(RateError):
            make_mu({"family": "quadratic"})
        with pytest.raises(RateError):
            make_delay({"family": "sawtooth"})

    @pytest.mark.parametrize("make, spec, message", [
        (make_mu, {"family": "exp"}, "missing key 'eps'"),
        (make_mu, {"family": "loglog", "eps": 0.1}, "unknown key 'eps'"),
        (make_mu, {"family": "power", "beta": True}, "'beta' must be a number"),
        (make_delay, {"family": "table", "t": [0, 1, 2, 3]}, "missing key 'tau'"),
        (make_delay, {"family": "proportional", "q": 0.5, "alpha": 0.5},
         "unknown key 'alpha'"),
        (make_delay, {"family": "table", "t": [0, 1, 2, 3], "tau": [True, 1, 1, 1]},
         "'tau' must be a number"),
        # strings, null and lists outside a table are not numbers either
        (make_delay, {"family": "bounded", "tau_max": "1"}, "'tau_max' must be a number"),
        (make_delay, {"family": "proportional", "q": "0.5"}, "'q' must be a number"),
        (make_delay, {"family": "bounded", "tau_max": None}, "'tau_max' must be a number"),
        (make_delay, {"family": "bounded", "tau_max": [1.0]}, "'tau_max' must be a number"),
        (make_mu, {"family": "table", "t": [1, 10, 100, 1000], "mu": [1, 2, "3", 4]},
         "'mu' must be a number"),
    ])
    def test_spec_keys_checked(self, make, spec, message):
        with pytest.raises(RateError, match=message):
            make(spec)
