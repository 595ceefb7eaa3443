import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mustab import dde
from mustab.dde import (
    HistorySpec,
    MonitorReport,
    SimConfig,
    SimulationError,
    Trajectory,
    export_csv,
    fit_rate,
    lyapunov_monitor,
    simulate,
)
from mustab.fields import DilationMap, PolyMap
from mustab.rates import (
    BoundedDelay,
    LogFractionDelay,
    LogMu,
    PowerLagDelay,
    PowerMu,
    ProportionalDelay,
    RateError,
    TabulatedDelay,
    TabulatedMu,
)


def zero_map(n):
    return PolyMap(n, [[] for _ in range(n)])


def scalar_decay():
    # xdot = -x
    return PolyMap(1, [[(-1.0, (1.0,))]])


class TestHistorySpec:
    def test_constant(self):
        h = HistorySpec(np.array([1.0, 2.0]))
        assert np.allclose(h.value(-5.0), [1.0, 2.0])

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            HistorySpec(np.array([-1.0]))


class TestSimConfig:
    def test_ordering(self):
        with pytest.raises(SimulationError):
            SimConfig(t_start=2.0, t_end=1.0)

    def test_step_policy(self):
        cfg = SimConfig(t_start=1.0, t_end=10.0, rho=1e-3, h_min=1e-3)
        assert cfg.step(0.5) == pytest.approx(1e-3)   # floor
        assert cfg.step(100.0) == pytest.approx(0.1)  # rho * t
        cfg2 = SimConfig(t_start=1.0, t_end=10.0, rho=0.5, h_min=1e-3)
        assert cfg2.step(100.0) == pytest.approx(10.0)  # t/10 cap


class TestScalarOracles:
    def test_exponential_decay(self):
        # closed form x(t) = x0 * exp(-(t - t0))
        cfg = SimConfig(t_start=0.0, t_end=10.0)
        traj = simulate(scalar_decay(), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), cfg)
        assert traj.xs[-1, 0] == pytest.approx(np.exp(-10.0), rel=1e-6)

    def test_delayed_identity_method_of_steps(self):
        # xdot(t) = x(t - 1), x == 1 for t <= 0:
        # x = 1 + t on [0, 1]; x = 2 + (t^2 - 1)/2 on [1, 2]
        g = PolyMap(1, [[(1.0, (1.0,))]])
        cfg = SimConfig(t_start=0.0, t_end=2.0)
        traj = simulate(zero_map(1), g, BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), cfg)
        for t in (0.25, 0.5, 0.99):
            assert traj.sample(t)[0] == pytest.approx(1.0 + t, abs=1e-8)
        for t in (1.01, 1.5, 2.0):
            assert traj.sample(t)[0] == pytest.approx(2.0 + (t * t - 1.0) / 2.0,
                                                      abs=1e-8)


class TestTrajectory:
    def test_sample_exact_at_nodes(self):
        cfg = SimConfig(t_start=0.0, t_end=1.0)
        traj = simulate(scalar_decay(), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), cfg)
        for k in (0, len(traj.ts) // 2, -1):
            assert traj.sample(traj.ts[k])[0] == traj.xs[k, 0]

    def test_sample_outside_range(self):
        traj = Trajectory([0.0, 1.0], [[1.0], [2.0]], [[1.0], [1.0]])
        with pytest.raises(SimulationError):
            traj.sample(2.0)
        assert traj.sample(0.5)[0] == pytest.approx(1.5, abs=0.3)

    def test_positivity_of_stored_states(self):
        cfg = SimConfig(t_start=0.0, t_end=20.0)
        traj = simulate(scalar_decay(), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), cfg)
        assert np.all(traj.xs >= 0.0)


def scalar(c, e):
    return PolyMap(1, [[(c, (e,))]])


def fixed_step_end(f, g, delay, t_end, h):
    # rho = 0 and h_min = h: every step is h unless one is rejected
    traj = simulate(f, g, delay, HistorySpec(np.ones(1)),
                    SimConfig(t_start=0.0, t_end=t_end, rho=0.0, h_min=h))
    assert len(traj.ts) == round(t_end / h) + 1
    return traj.xs[-1, 0]


class TestRosenbrock:
    def test_quadratic_decay_is_exact(self):
        # x' = -x^2, x = 1/(1 + t): the scheme reproduces it to rounding at
        # any step, so its order shows on the cubic below
        for h in (0.2, 0.1):
            assert fixed_step_end(scalar(-1.0, 2.0), zero_map(1), BoundedDelay(1.0),
                                  4.0, h) == pytest.approx(0.2, abs=1e-14)

    def test_observed_order_on_cubic_decay(self):
        # x' = -x^3, x = 1/sqrt(1 + 2t)
        errs = [abs(fixed_step_end(scalar(-1.0, 3.0), zero_map(1), BoundedDelay(1.0),
                                   4.0, h) - 1.0 / 3.0) for h in (0.1, 0.05, 0.025)]
        assert np.all(np.log2(np.divide(errs[:-1], errs[1:])) >= 2.6)

    def test_observed_order_with_delayed_forcing(self):
        # x' = -x^2 + x(t/2)^2 / 2 from t = 0: d(t) > t_start for t > 0, so
        # the forcing is smooth; orders from successive halvings of h
        ends = [fixed_step_end(scalar(-1.0, 2.0), scalar(0.5, 2.0), ProportionalDelay(0.5),
                               6.0, h) for h in (0.2, 0.1, 0.05, 0.025)]
        diffs = np.abs(np.diff(ends))
        assert np.all(np.log2(diffs[:-1] / diffs[1:]) >= 2.6)

    def test_stiff_linear_scalar(self):
        # x' = -1e4 x + 5e3 x(t - 1), unit history: after layers of width
        # 1e-4 at each integer time, x = 2**-k on (k - 1, k]; steps of 0.05
        # are 500 relaxation times and none may be rejected
        f, g = scalar(-1e4, 1.0), scalar(5e3, 1.0)
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.ones(1)),
                        SimConfig(t_start=0.0, t_end=10.0, rho=0.0, h_min=0.05))
        assert len(traj.ts) == 201
        assert np.all(traj.xs > 0.0)
        for k in (2, 5, 10):
            assert traj.sample(float(k))[0] == pytest.approx(2.0 ** -k, rel=1e-6)

    def test_stiff_decay_stays_positive(self):
        # x' = -1e4 x under the default settings: the policy's steps of
        # h_min = 1e-3 are 10 relaxation times, where the scheme drives the
        # raw state below zero; with no growing mode the step shrinks below
        # h_min, to the stable scale, instead of raising or clamping
        traj = simulate(scalar(-1e4, 1.0), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), SimConfig(t_start=0.0, t_end=0.1))
        x = traj.xs[:, 0]
        assert np.all(x > 0.0) and np.all(np.diff(x) <= 0.0)
        assert x[1] < np.exp(-1.0) and x[-1] <= 1e-290

    def test_rejected_trial_steps_do_not_flag_extrapolation(self):
        # tau = 5e-4 is below the policy's step of 1e-3, so each trial of
        # the policy's step (the first, and those between the steps carried
        # at the stable scale) reads x(d) past the last node; x' = -1e4 x
        # rejects each of them, and the accepted steps read behind the last node
        traj = simulate(scalar(-1e4, 1.0), scalar(1.0, 1.0), BoundedDelay(5e-4),
                        HistorySpec(np.ones(1)), SimConfig(t_start=0.0, t_end=0.05))
        assert np.all(np.diff(traj.ts) < 5e-4)
        assert not traj.extrapolation_flagged

    def test_estimate_guard_rejects(self, monkeypatch):
        # the cubic decay runs at h = 0.1 (above); with the guard at 1e-12
        # every step's estimate exceeds it, and halving past h_min raises
        monkeypatch.setattr(dde, "_EST_REJECT", 1e-12)
        with pytest.raises(SimulationError, match="accurate"):
            fixed_step_end(scalar(-1.0, 3.0), zero_map(1), BoundedDelay(1.0), 4.0, 0.1)

    def test_stable_scale_is_carried_past_rejected_trials(self, monkeypatch):
        # x' = -1e4 x to t = 1: the policy's step of 1e-3 overshoots below
        # zero at every step, and each accepted step is twice the stable
        # scale, 2e-4.  Carrying that scale skips the rejected trial of all
        # but the policy trials after 1, 2, 4, ... carried steps
        f = scalar(-1e4, 1.0)
        calls = []

        def counting(F):
            return (lambda x: calls.append(1) or F(x)) if F is f else F
        monkeypatch.setattr(dde, "fast_evaluator", counting)
        traj = simulate(f, zero_map(1), BoundedDelay(1.0), HistorySpec(np.ones(1)),
                        SimConfig(t_start=0.0, t_end=1.0))
        steps = len(traj.ts) - 1
        assert steps == 5000
        # two stage evaluations per trial, and one more per accepted state
        # below the Jacobian's floor
        trials = (len(calls) - np.sum(traj.xs[1:, 0] < dde._J_FLOOR)) / 2
        assert trials - steps <= np.log2(steps) + 1

    def test_one_cut_step_does_not_hold_back_the_policy(self):
        # from a large state, the stiff first step is cut to the stable
        # scale once; the policy's steps (463 from 1 to 100 at rho = 1e-2)
        # serve the rest of the run
        f, g = paper_system()
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.array([10.0, 40.0])),
                        SimConfig(t_start=1.0, t_end=100.0, rho=1e-2))
        assert traj.ts[1] - traj.ts[0] < 0.25e-2
        assert len(traj.ts) - 1 <= 470

    def test_extinction_in_finite_time_is_an_error(self):
        # x' = -sqrt(x) reaches 0 at t = 2, past which every step would
        # leave the orthant; the state is not clamped to x_floor
        with pytest.raises(SimulationError):
            simulate(scalar(-1.0, 0.5), zero_map(1), BoundedDelay(1.0),
                     HistorySpec(np.ones(1)), SimConfig(t_start=0.0, t_end=5.0))

    def test_blowup_with_steps_above_h_min(self):
        # x' = x^3 from x = 5 at t = 1 blows up at t = 1.02; the policy step
        # is 0.01 and h_min 1e-6
        cfg = SimConfig(t_start=1.0, t_end=2.0, rho=1e-2, h_min=1e-6)
        with pytest.raises(SimulationError):
            simulate(scalar(1.0, 3.0), zero_map(1), BoundedDelay(1.0),
                     HistorySpec(5.0 * np.ones(1)), cfg)

    def test_delay_domain_checked_before_first_step(self, monkeypatch):
        for name in ("field_and_jacobian", "jacobian"):
            monkeypatch.setattr(dde, name, lambda *a: pytest.fail("stepped"))
        d = TabulatedDelay([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 0.5, 0.5])
        cfg = SimConfig(t_start=0.0, t_end=5.0)
        with pytest.raises(RateError, match="valid on"):
            simulate(scalar_decay(), zero_map(1), d, HistorySpec(np.ones(1)), cfg)


class TestStep:
    """rodas3_step alone, on x' = A x + b with A Metzler and symmetric:
    x(h) = x* + V exp(Lambda h) V^T (x0 - x*), with x* = -A^-1 b."""

    A = np.array([[-3.0, 1.0, 0.5], [1.0, -2.0, 0.25], [0.5, 0.25, -1.0]])
    b = np.array([1.0, 0.5, 0.25])
    x0 = np.array([1.0, 2.0, 0.5])

    def orders(self):
        A, b, x0 = self.A, self.b, self.x0
        lam, V = np.linalg.eigh(A)
        x_star = -np.linalg.solve(A, b)
        errs, ests = [], []
        for h in 0.05 / 2.0 ** np.arange(4):
            # constant forcing: G1 = b and a zero slope
            x1, u4 = dde.rodas3_step(x0, A @ x0 + b, A, b, np.zeros(3), h, lambda y: A @ y)
            exact = x_star + V @ (np.exp(lam * h) * (V.T @ (x0 - x_star)))
            errs.append(np.abs(x1 - exact).max())
            ests.append(np.abs(u4).max())
        return (np.log2(np.divide(errs[:-1], errs[1:])),
                np.log2(np.divide(ests[:-1], ests[1:])))

    def test_one_step_error_is_fourth_order(self):
        # a third-order method errs by O(h^4) in one step
        assert np.all(self.orders()[0] >= 3.7)

    def test_estimate_is_third_order(self):
        # u4, the gap to the embedded order-2 solution, is O(h^3): the
        # scale an err^(-1/3) step controller assumes
        assert np.all(self.orders()[1] >= 2.7)


def paper_system():
    # the section-5 system: at most two terms in a component of f, one in g
    f = PolyMap(2, [[(-5.0, (3.0, 0.0)), (2.0, (1.0, 1.0))],
                    [(1.0, (2.0, 1.0)), (-4.0, (0.0, 2.0))]])
    g = PolyMap(2, [[(1.0, (1.0, 1.0))], [(2.0, (4.0, 0.0))]])
    return f, g


class TestLookupBlock:
    """Lookups behind the last node are served in blocks; with the block
    size at 0 every lookup takes the per-step path."""

    CASES = {
        "bounded": (BoundedDelay(1.0), [1.0, 4.0], 1.0),
        "proportional": (ProportionalDelay(0.5), [1.0, 4.0], 1.0),
        "powerlag": (PowerLagDelay(0.6), [1.0, 4.0], 1.0),
        "logfraction": (LogFractionDelay(), [1.0, 4.0], np.e),
        "table": (TabulatedDelay([0.0, 10.0, 100.0, 1e3, 1e4],
                                 [0.5, 2.0, 20.0, 200.0, 2e3]), [1.0, 4.0], 1.0),
        # one rejected step early on, blocks after it
        "rejected": (BoundedDelay(1.0), [10.0, 40.0], 1.0),
    }

    def run(self, monkeypatch, case, block):
        delay, phi0, t_start = self.CASES[case]
        f, g = paper_system()
        batches = []

        def counting(F):
            if F is not g:
                return F
            return lambda x: batches.append(len(x) if x.ndim == 2 else 1) or F(x)
        monkeypatch.setattr(dde, "fast_evaluator", counting)
        monkeypatch.setattr(dde, "_BLOCK", block)
        traj = simulate(f, g, delay, HistorySpec(np.array(phi0)),
                        SimConfig(t_start=t_start, t_end=1e3, rho=1e-2))
        return traj, batches

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_blocks_match_the_per_step_path(self, monkeypatch, case):
        size = dde._BLOCK
        per_step, batches = self.run(monkeypatch, case, 0)
        assert max(batches) == 1
        blocked, batches = self.run(monkeypatch, case, size)
        assert max(batches) > 1
        if case == "rejected":
            # the first step is cut below the policy's 1e-2
            assert per_step.ts[1] - per_step.ts[0] < 1e-2
        assert np.array_equal(blocked.ts, per_step.ts)
        assert blocked.extrapolation_flagged == per_step.extrapolation_flagged
        if case == "powerlag":
            # t ** alpha on an array may round d one ulp off the scalar's,
            # and the runs drift apart by a few ulps
            np.testing.assert_allclose(blocked.xs, per_step.xs, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(blocked.fs, per_step.fs, rtol=0.0,
                                       atol=1e-13 * np.abs(per_step.fs).max())
        else:
            assert np.array_equal(blocked.xs, per_step.xs)
            assert np.array_equal(blocked.fs, per_step.fs)


def abscissa(J):
    return np.linalg.eigvals(J).real.max()


def gershgorin(J):
    return (np.abs(J).sum(axis=1) + 2.0 * np.minimum(J.diagonal(), 0.0)).max()


def eigvals_only_growth(J):
    """_growth without the M-matrix certificate: Gershgorin, then eigvals."""
    bound = gershgorin(J)
    return bound if bound <= 0.0 else abscissa(J)


@st.composite
def square_matrices(draw):
    """n <= 6: Metzler, general, or Metzler with its abscissa moved to
    within a hair of 0 on either side."""
    n = draw(st.integers(1, 6))
    A = draw(hnp.arrays(float, (n, n), elements=st.floats(-10.0, 10.0)))
    kind = draw(st.sampled_from(("metzler", "general", "near-singular")))
    off = ~np.eye(n, dtype=bool)
    if kind != "general":
        A[off] = np.abs(A[off])
    if kind == "near-singular":
        # a Metzler matrix's abscissa is one of its eigenvalues, a real one
        gap = draw(st.sampled_from((-1e-6, -1e-13, 0.0, 1e-13, 1e-6)))
        return A - (abscissa(A) + gap) * np.eye(n)
    return A - draw(st.floats(0.0, 40.0)) * np.eye(n)


@st.composite
def metzler_hurwitz(draw):
    """A Metzler A with A v = -m for some v, m > 0: Hurwitz, with a margin."""
    n = draw(st.integers(2, 6))
    A = draw(hnp.arrays(float, (n, n), elements=st.floats(0.0, 10.0)))
    v = draw(hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    m = draw(hnp.arrays(float, n, elements=st.floats(0.1, 10.0)))
    np.fill_diagonal(A, 0.0)
    np.fill_diagonal(A, -(A @ v + m) / v)
    return A


class TestGrowth:
    """_growth bounds the spectral abscissa whenever it says no mode grows,
    and takes eigenvalues only when Gershgorin and the M-matrix
    certificate both fail."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_bounds_the_abscissa(self, A):
        g = dde._growth(A)
        if g > 0.0:
            assert g == abscissa(A)
        else:
            assert abscissa(A) <= g + 1e-12 * (1.0 + np.abs(A).sum(axis=1).max())

    @settings(max_examples=200, deadline=None)
    @given(metzler_hurwitz())
    def test_metzler_hurwitz_takes_no_eigenvalues(self, A):
        # past Gershgorin's bound, the certificate alone decides
        assume(gershgorin(A) > 0.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvals", lambda a: pytest.fail("eigvals called"))
            assert dde._growth(A) < 0.0

    CASES = {
        # x1' = -x1 + 10 x2: Gershgorin's bound is 9 on every step
        "cooperative": (
            PolyMap(2, [[(-1.0, (1, 0)), (10.0, (0, 1))], [(0.01, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[(0.1, (1, 0))], [(0.001, (0, 1))]]),
            ProportionalDelay(0.5), [1.0, 1.0], SimConfig(t_start=1.0, t_end=100.0, rho=1e-2)),
        # x1' = -x1 - x1 x2: Hurwitz always, certified only while 1 + x2 > 5 x1
        "noncooperative": (
            PolyMap(2, [[(-1.0, (1, 0)), (-1.0, (1, 1))], [(5.0, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[(0.1, (1, 0))], [(0.1, (0, 1))]]),
            BoundedDelay(1.0), [1.0, 0.1], SimConfig(t_start=1.0, t_end=100.0, rho=1e-2)),
        # x1 decays to x_floor, and every step is cut to the stable scale
        "stiff-decayed": (
            PolyMap(2, [[(-1e4, (1, 0))], [(10.0, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[], [(0.5, (0, 1))]]),
            BoundedDelay(1.0), [1.0, 1.0], SimConfig(t_start=0.0, t_end=0.1)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_certificate_takes_the_same_steps(self, monkeypatch, case):
        f, g, delay, phi0, cfg = self.CASES[case]
        eig = np.linalg.eigvals
        runs = []
        for growth in (dde._growth, eigvals_only_growth):
            calls = []
            monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eig(a))
            monkeypatch.setattr(dde, "_growth", growth)
            runs.append((simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg), len(calls)))
        (cert, cert_calls), (ref, ref_calls) = runs
        assert cert_calls < ref_calls
        if case != "noncooperative":
            assert cert_calls == 0
        for a, b in ((cert.ts, ref.ts), (cert.xs, ref.xs), (cert.fs, ref.fs)):
            assert np.array_equal(a, b)


class TestErrorPaths:
    def test_acausal_delay_rejected(self):
        # tabulated "delay" that is negative in effect cannot be built, so
        # force causality breakage with tau interpolation undershoot: a table
        # whose tau is zero but evaluation beyond its domain errors instead
        d = TabulatedDelay([0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0])
        cfg = SimConfig(t_start=0.0, t_end=5.0)
        with pytest.raises(Exception):
            simulate(scalar_decay(), zero_map(1), d, HistorySpec(np.ones(1)), cfg)

    def test_step_underflow_on_blowup(self):
        # xdot = x^3 from x0 = 5 diverges in finite time; the integrator must
        # fail loudly instead of marching through the singularity
        f = PolyMap(1, [[(1.0, (3.0,))]])
        cfg = SimConfig(t_start=0.0, t_end=1.0)
        with pytest.raises(SimulationError):
            simulate(f, zero_map(1), BoundedDelay(1.0),
                     HistorySpec(5.0 * np.ones(1)), cfg)


class TestMonitor:
    def test_degenerate_mu_reduces_to_norm(self):
        # mu == 1: V is just the weighted max of z
        t = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        mu = TabulatedMu(t, np.full_like(t, 1.0) + 1e-9 * t)
        traj = Trajectory(t, np.column_stack([np.full_like(t, 4.0)]),
                          np.zeros((len(t), 1)))
        rep = lyapunov_monitor(traj, mu, np.ones(1), DilationMap((2.0,)), 1.0)
        assert rep.V[0] == pytest.approx(2.0, rel=1e-6)
        assert rep.V_sup[-1] == pytest.approx(2.0, rel=1e-6)

    def test_divergent_system_flagged(self):
        f = PolyMap(1, [[(1.0, (1.0,))]])  # xdot = +x
        cfg = SimConfig(t_start=0.0, t_end=8.0)
        traj = simulate(f, zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), cfg)
        rep = lyapunov_monitor(traj, PowerMu(1.0), np.ones(1),
                               DilationMap((1.0,)), 1.0)
        assert rep.growth_ratio > 100.0

    def test_report_dict(self):
        traj = Trajectory([1.0, 2.0], [[1.0], [0.5]], [[0.0], [0.0]])
        rep = lyapunov_monitor(traj, LogMu(), np.ones(1), DilationMap((1.0,)), 1.0)
        d = rep.to_dict()
        assert set(d) >= {"burn_in", "growth_ratio", "V_final"}


class TestFitRate:
    def synthetic(self, c):
        t = np.exp(np.linspace(0.0, 10.0, 200))
        mu = np.log1p(t)
        xs = (mu ** (-c))[:, None]
        return Trajectory(t, xs, np.zeros_like(xs))

    def test_exact_power_law(self):
        traj = self.synthetic(1.5)
        slopes, _ = fit_rate(traj, LogMu())
        assert slopes[0] == pytest.approx(-1.5, abs=1e-10)

    def test_constant_trajectory(self):
        traj = self.synthetic(0.0)
        slopes, _ = fit_rate(traj, LogMu())
        assert slopes[0] == pytest.approx(0.0, abs=1e-10)

    def test_too_few_usable_nodes(self):
        t = np.linspace(1.0, 2.0, 5)
        traj = Trajectory(t, np.ones((5, 1)), np.zeros((5, 1)))
        with pytest.raises(SimulationError):
            fit_rate(traj, LogMu())


class TestExport:
    def test_csv_round_trip(self, tmp_path):
        traj = Trajectory([1.0, 2.0, 3.0], [[1.0], [0.5], [0.25]],
                          np.zeros((3, 1)))
        path = tmp_path / "traj.csv"
        export_csv(traj, str(path), V=np.array([1.0, 1.0, 1.0]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,x1,V"
        back = np.loadtxt(str(path), delimiter=",", skiprows=1)
        assert np.allclose(back[:, 1], [1.0, 0.5, 0.25])
