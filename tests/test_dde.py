import ast
import math
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
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

from generate import random_stable_linear_metzler


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


def method_of_steps(A, B, tau, phi0, t0, t_end):
    """x' = A x + B x(t - tau) with x = phi0 up to t0, by solve_ivp on the
    segments [t0 + k tau, t0 + (k + 1) tau], each reading the delayed state
    from the dense output of the one before: a list of those outputs."""
    from scipy.integrate import solve_ivp

    sols, x, a = [], phi0, t0
    while a < t_end:
        past = sols[-1] if sols else None

        def rhs(t, y, past=past):
            xd = phi0 if past is None else past(t - tau)
            return A @ y + B @ xd

        sol = solve_ivp(rhs, (a, min(a + tau, t_end)), x, method="DOP853",
                        rtol=1e-12, atol=1e-14, dense_output=True)
        assert sol.status == 0, sol.message
        sols.append(sol.sol)
        x, a = sol.y[:, -1], sol.t[-1]
    return sols


class TestAgainstSolveIvp:
    """simulate against scipy's solve_ivp by the method of steps, on random
    stable linear Metzler pairs under a bounded delay, with the default
    step policy (rho = 1e-3), most of whose steps the estimate lengthens
    into RODAS4 steps."""

    # the largest relative gap seen over these seeds was 6.2e-8
    RTOL = 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_at_checkpoints(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        f, g = random_stable_linear_metzler(rng, n)
        # the columns of a linear map are its values at the unit vectors
        A, B = f(np.eye(n)).T, g(np.eye(n)).T
        tau = float(rng.uniform(0.5, 2.0))
        phi0 = rng.uniform(0.5, 2.0, n)
        traj = simulate(f, g, BoundedDelay(tau), HistorySpec(phi0),
                        SimConfig(t_start=0.0, t_end=10.0))
        assert traj.lengthened_steps > 0
        sols = method_of_steps(A, B, tau, phi0, 0.0, 10.0)
        for t in (1.0, 2.5, 5.0, 10.0):
            want = sols[min(int(t // tau), len(sols) - 1)](t)
            np.testing.assert_allclose(traj.sample(t), want, rtol=self.RTOL, atol=0.0)


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

    def test_sample_is_the_hermite_arithmetic(self):
        # on a run, at every node but the first and every midpoint, sample
        # is bitwise the cubic rebuilt from the node arrays, also where the
        # decayed component's cubic dips below 0 and the lookup raises it
        f, g, delay, phi0, cfg = TestGrowth.CASES["stiff-decayed"]
        traj = simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg)
        ts = np.concatenate((traj.ts[1:], 0.5 * (traj.ts[1:] + traj.ts[:-1])))
        got = np.array([traj.sample(t) for t in ts])
        want = np.array([hermite_one(traj.ts, traj.xs, traj.fs, t, None)[0] for t in ts])
        assert np.array_equal(got, want) and (got < 0.0).any()
        assert np.array_equal(traj.lookup_rows(ts.tolist())[0], np.maximum(want, 0.0))


def scalar(c, e):
    return PolyMap(1, [[(c, (e,))]])


def fixed_step_end(f, g, delay, t_end, h):
    # rho = 0 and h_min = h: every step is h unless one is rejected
    traj = simulate(f, g, delay, HistorySpec(np.ones(1)),
                    SimConfig(t_start=0.0, t_end=t_end, rho=0.0, h_min=h))
    assert len(traj.ts) == round(t_end / h) + 1
    return traj.xs[-1, 0]


class TestRosenbrock:
    def test_quadratic_decay_is_exact(self, monkeypatch):
        # x' = -x^2, x = 1/(1 + t): the scheme reproduces it to rounding at
        # any step, so its order shows on the cubic below
        monkeypatch.setattr(dde, "_GROW", 1.0)
        for h in (0.2, 0.1):
            assert fixed_step_end(scalar(-1.0, 2.0), zero_map(1), BoundedDelay(1.0),
                                  4.0, h) == pytest.approx(0.2, abs=1e-14)

    def test_observed_order_on_cubic_decay(self, monkeypatch):
        # x' = -x^3, x = 1/sqrt(1 + 2t)
        monkeypatch.setattr(dde, "_GROW", 1.0)
        errs = [abs(fixed_step_end(scalar(-1.0, 3.0), zero_map(1), BoundedDelay(1.0),
                                   4.0, h) - 1.0 / 3.0) for h in (0.1, 0.05, 0.025)]
        assert np.all(np.log2(np.divide(errs[:-1], errs[1:])) >= 2.6)

    def test_observed_order_with_delayed_forcing(self, monkeypatch):
        # x' = -x^2 + x(t/2)^2 / 2 from t = 0: d(t) > t_start for t > 0, so
        # the forcing is smooth; orders from successive halvings of h
        monkeypatch.setattr(dde, "_GROW", 1.0)
        ends = [fixed_step_end(scalar(-1.0, 2.0), scalar(0.5, 2.0), ProportionalDelay(0.5),
                               6.0, h) for h in (0.2, 0.1, 0.05, 0.025)]
        diffs = np.abs(np.diff(ends))
        assert np.all(np.log2(diffs[:-1] / diffs[1:]) >= 2.6)

    def test_stiff_linear_scalar(self, monkeypatch):
        # x' = -1e4 x + 5e3 x(t - 1), unit history: after layers of width
        # 1e-4 at each integer time, x = 2**-k on (k - 1, k]; steps of 0.05
        # are 500 relaxation times and none may be rejected
        monkeypatch.setattr(dde, "_GROW", 1.0)
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
        # raw state below zero; it is projected onto the orthant and raised
        # to the floor instead of raising
        traj = simulate(scalar(-1e4, 1.0), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), SimConfig(t_start=0.0, t_end=0.1))
        x = traj.xs[:, 0]
        assert np.all(x > 0.0) and np.all(np.diff(x) <= 0.0)
        assert x[1] < np.exp(-1.0) and x[-1] <= 1e-290

    def test_rejected_trial_steps_do_not_flag_extrapolation(self, monkeypatch):
        # x' = -50 x + x(t - 0.05) at rho = 0.1: each policy step, 0.1 t, is
        # longer than tau and reads x(d) past the last node, and the
        # accuracy cut rejects it; the accepted halvings read behind the
        # last node
        steps = record_trials(monkeypatch, lambda name, a, out: a[5])
        traj = simulate(scalar(-50.0, 1.0), scalar(1.0, 1.0), BoundedDelay(0.05),
                        HistorySpec(np.ones(1)), SimConfig(t_start=1.0, t_end=3.0, rho=0.1))
        assert max(steps) > 0.05 and traj.rejected["estimate"] > 0
        assert np.all(np.diff(traj.ts) < 0.05)
        assert not traj.extrapolation_flagged

    def test_estimate_guard_rejects(self, monkeypatch):
        # the cubic decay runs at h = 0.1 (above); with the guard at 1e-12
        # every step's estimate exceeds it, and halving past h_min raises
        monkeypatch.setattr(dde, "_EST_REJECT", 1e-12)
        with pytest.raises(SimulationError, match="accurate"):
            fixed_step_end(scalar(-1.0, 3.0), zero_map(1), BoundedDelay(1.0), 4.0, 0.1)

    def test_stiff_decay_runs_without_rejections(self):
        # x' = -1e4 x to t = 1e3: the policy's steps overshoot below zero
        # and are projected; the decayed state's estimate then lengthens
        # them, with no trial rejected
        traj = simulate(scalar(-1e4, 1.0), zero_map(1), BoundedDelay(1.0),
                        HistorySpec(np.ones(1)), SimConfig(t_start=0.0, t_end=1e3))
        x = traj.xs[:, 0]
        assert len(traj.ts) - 1 <= 10_000
        assert sum(traj.rejected.values()) == 0
        assert np.all(x > 0.0) and np.all(np.diff(x) <= 0.0)

    def test_one_cut_step_does_not_hold_back_the_policy(self):
        # from a large state, the accuracy cut halves the stiff first step
        # down to h_min once; the policy's steps and the estimate's (343
        # from 1 to 100 at rho = 1e-2) serve the rest of the run
        f, g = paper_system()
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.array([10.0, 40.0])),
                        SimConfig(t_start=1.0, t_end=100.0, rho=1e-2))
        assert traj.ts[1] - traj.ts[0] < 0.25e-2
        assert len(traj.ts) - 1 <= 470

    def test_extinction_in_finite_time_is_an_error(self):
        # x' = -sqrt(x) reaches 0 at t = 2; projected to x_floor, its field
        # makes every step's estimate far exceed the state, and the guard
        # rejects each step down to h_min
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

    def test_singular_w_gives_no_finite_state(self):
        # J = (2/h) I makes W = I/(h/2) - J zero: under simulate's errstate
        # its inverse is NaN, so the orthant test rejects the trial
        h = 0.1
        J = (2.0 / h) * np.eye(3)
        with np.errstate(invalid="ignore"):
            x1, u4 = dde.rodas3_step(self.x0, J @ self.x0, J, self.b, np.zeros(3), h,
                                     lambda y: J @ y)
        assert not np.isfinite(x1).any()
        assert not dde._extreme(min, x1.tolist()) >= 0.0

    def test_inverse_is_numpys_bit_for_bit(self):
        # the inverse the Rosenbrock steps take is the gufunc np.linalg.inv wraps,
        # on matrices n = 1..6 scaled across 16 decades
        rng = np.random.default_rng(23)
        for n in range(1, 7):
            for _ in range(2000):
                W = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-8.0, 8.0)
                assert np.array_equal(dde._inv(W), np.linalg.inv(W))


# rodas.f (Hairer & Wanner), METH = 1, transcribed apart from dde: stage i
# at the fraction C[i] of the step, A[i][j] and CC[i][j] for j < i, D[i]
RODAS4_GAMMA = 0.25
RODAS4_C = (0.0, 0.386, 0.21, 0.63, 1.0)
RODAS4_A = ((),
            (1.544,),
            (0.9466785280815826, 0.2557011698983284),
            (3.314825187068521, 2.896124015972201, 0.9986419139977817),
            (1.221224509226641, 6.019134481288629, 12.53708332932087, -0.687886036105895))
RODAS4_CC = ((),
             (-5.6688,),
             (-2.430093356833875, -0.2063599157091915),
             (-0.1073529058151375, -9.594562251023355, -20.47028614809616),
             (7.496443313967647, -10.24680431464352, -33.99990352819905, 11.7089089320616),
             (8.083246795921522, -7.981132988064893, -31.52159432874371, 16.31930543123136,
              -6.058818238834054))
RODAS4_D = (0.25, -0.1043, 0.1035, -0.03620000000000023, 0.0)


def rodas4_reference(x, f, J, G, Ft, h):
    """One RODAS4 step of x' = f(x) + G as rodas.f takes it, one stage and
    one coefficient at a time: G(s) is the forcing at the fraction s of the
    step, Ft its slope at the start.  The new state, the estimate, and the
    largest term of the sums that made them."""
    E = np.linalg.inv(np.eye(len(x)) / (RODAS4_GAMMA * h) - J)
    k = []
    for i in range(5):
        y = x
        for j in range(i):
            y = y + RODAS4_A[i][j] * k[j]
        rhs = f(np.maximum(y, 0.0)) + G(RODAS4_C[i])
        for j in range(i):
            rhs = rhs + (RODAS4_CC[i][j] / h) * k[j]
        k.append(E.dot(rhs + (h * RODAS4_D[i]) * Ft))
    # the embedded solution, then the new one: each adds the next stage
    y = y + k[4]
    rhs = f(np.maximum(y, 0.0)) + G(1.0)
    for j in range(5):
        rhs = rhs + (RODAS4_CC[5][j] / h) * k[j]
    k.append(E.dot(rhs))
    # with the last stage's sum over k_j, which E scales by about gamma h
    terms = ([x, k[4], k[5]] + [a * u for a, u in zip(RODAS4_A[4], k)]
             + [(RODAS4_GAMMA * c) * u for c, u in zip(RODAS4_CC[5], k)])
    return y + k[5], k[5], np.abs(terms).max()


class TestRodas4:
    """rodas4_step against the transcription above, and its order."""

    def test_matches_the_transcription(self):
        rng = np.random.default_rng(24)
        for n in range(1, 7):
            for _ in range(50):
                f, _ = random_stable_linear_metzler(rng, n)
                J = f(np.eye(n)).T
                b, c, d = rng.uniform(0.0, 1.0, (3, n))
                G = lambda s: b + s * (c + s * d)
                x = rng.uniform(0.1, 2.0, n)
                h = 10.0 ** rng.uniform(-3.0, 1.0)
                Ft = rng.uniform(-1.0, 1.0, n)
                got = dde.rodas4_step(x, f(x) + G(0.0), J,
                                      np.array([G(s) for s in (0.386, 0.21, 0.63, 1.0)]),
                                      Ft, h, f)
                *want, top = rodas4_reference(x, f, J, G, Ft, h)
                # a few ulps of the largest term summed into them
                for a, w in zip(got, want):
                    assert np.abs(a - w).max() <= 8.0 * np.spacing(top)

    def test_stage_rows_are_the_three_parts_summed(self):
        # one product of (1, 1/h, h) with the stacked parts, bitwise the
        # sum of the fixed part and those scaled by 1/h and by h
        assert ((dde._ROWS4 != 0).sum(axis=0) <= 1).all()
        fixed, per_h, by_h = dde._ROWS4
        for h in 10.0 ** np.random.default_rng(25).uniform(-3.0, 12.0, 2000):
            assert np.array_equal(np.dot((1.0, 1.0 / h, h), dde._ROWS4),
                                  fixed + (1.0 / h) * per_h + h * by_h)

    # x' = -x - x^2/2 + G(t) from x(0) = 1
    F = PolyMap(1, [[(-1.0, (1.0,)), (-0.5, (2.0,))]])

    def end(self, G, h, t_end=2.0):
        """x(t_end) by fixed steps h, the forcing read at the driver's
        stage times and its slope the driver's quartic."""
        x = np.ones(1)
        for k in range(round(t_end / h)):
            t = k * h
            G0 = np.array([G(t)])
            rows = np.array([[G(t + a * h)] for a in dde._ALPHA4])
            Ft = dde._SLOPE4.dot(rows - G0) / h
            x, _ = dde.rodas4_step(x, self.F(x) + G0, np.array([[-1.0 - x[0]]]), rows, Ft, h,
                                   self.F)
        return x[0]

    @pytest.mark.parametrize("G, exact", [
        # the Bernoulli equation: 1/x = (3/2) e^t - 1/2
        (lambda t: 0.0, lambda t: 1.0 / (1.5 * np.exp(t) - 0.5)),
        # the forcing that makes x = 1/(1 + t) the solution
        (lambda t: 1.0 / (1.0 + t) - 0.5 / (1.0 + t) ** 2, lambda t: 1.0 / (1.0 + t)),
    ], ids=["autonomous", "forced"])
    def test_global_error_is_fourth_order(self, G, exact):
        errs = [abs(self.end(G, h) - exact(2.0)) for h in (0.1, 0.05, 0.025)]
        ratios = np.divide(errs[:-1], errs[1:])
        assert np.all((14.0 <= ratios) & (ratios <= 18.0)), ratios


def bisect_inverse(d, b, hi):
    """The t in [b, hi] at which d(t) = b, by bisection of d."""
    lo = b
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if d(mid) < b else (lo, mid)
    return hi


class TestLengthen:
    """The embedded estimate lengthens the policy's step, landing on delay
    breakpoints; a lengthened step passes the error norm."""

    @pytest.mark.parametrize("delay", [BoundedDelay(1.5), ProportionalDelay(0.3),
                                       PowerLagDelay(0.6), LogFractionDelay(),
                                       TabulatedDelay([1.0, 10.0, 100.0, 1e3],
                                                      [0.5, 2.0, 20.0, 200.0])],
                             ids=lambda d: d.family)
    def test_breakpoints_match_a_bisection(self, delay):
        # the closed forms (bounded, proportional, powerlag) and the
        # monotone solve (logfraction, table) against a bisection of d
        b = 3.0
        for _ in range(4):
            b_next = delay.d_inverse(b)
            hi = min(delay.t_max, 1e6)
            assert b_next == pytest.approx(bisect_inverse(delay.d, b, hi), rel=1e-12)
            b = b_next

    def test_logfraction_from_e_has_no_breakpoints(self):
        # d(e) = e: the history's end is a fixed point of d
        breaks = dde._Breakpoints(LogFractionDelay(), np.e)
        assert breaks.after(np.e) == np.inf and breaks.after(1e6) == np.inf

    def test_breakpoints_stop_at_the_cap(self):
        breaks = dde._Breakpoints(BoundedDelay(1.0), 0.0)
        assert breaks.after(2.5) == 3.0
        assert breaks.after(dde._BREAKS - 0.5) == dde._BREAKS
        assert breaks.after(dde._BREAKS) is None

    def test_stiff_delayed_scalar_lands_on_breakpoints(self):
        # x' = -1e4 x + 5e3 x(t - 1), unit history, default settings: x =
        # 2**-k on (k - 1, k] after a layer at each integer time, where a
        # step that crosses it would smear it
        f, g = scalar(-1e4, 1.0), scalar(5e3, 1.0)
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.ones(1)),
                        SimConfig(t_start=0.0, t_end=10.0))
        assert traj.lengthened_steps > 0
        for k in (2, 5, 10):
            assert traj.sample(float(k))[0] == pytest.approx(2.0 ** -k, rel=1e-6)

    def test_step_after_a_landing_is_not_rejected(self, monkeypatch):
        # the norm of the smooth interval before a breakpoint would lengthen
        # the step after it into the layer there, to be halved again and again
        trials = record_trials(monkeypatch, lambda name, a, out: 1)
        f, g = scalar(-1e4, 1.0), scalar(5e3, 1.0)
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.ones(1)),
                        SimConfig(t_start=0.0, t_end=10.0))
        assert traj.lengthened_steps > 0
        assert len(trials) <= len(traj.ts) - 1 + 10

    @pytest.mark.parametrize("delay, t_start", [(BoundedDelay(1.0), 1.0),
                                                (LogFractionDelay(), np.e)],
                             ids=["bounded", "logfraction"])
    def test_lengthened_steps_pass_the_norm(self, monkeypatch, delay, t_start):
        # every lengthened step is a RODAS4 step, every other a RODAS3 one,
        # and each passes the norm of its own method's estimate
        trials = record_trials(monkeypatch, lambda name, a, out: (name, a[0], a[5], *out))
        f, g = paper_system()
        cfg = SimConfig(t_start=t_start, t_end=1e3)
        traj = simulate(f, g, delay, HistorySpec(np.array([1.0, 4.0])), cfg)
        # the trials from one node share its state; the last is accepted
        accepted = [a for a, b in zip(trials, trials[1:] + [None])
                    if b is None or b[1] is not a[1]]
        assert len(accepted) == len(traj.ts) - 1
        longer = 0
        for t, (name, x, h, x_new, est) in zip(traj.ts, accepted):
            lengthened = h > min(cfg.step(t), cfg.t_end - t)
            assert name == ("rodas4_step" if lengthened else "rodas3_step")
            if lengthened:
                longer += 1
                err = np.max(np.abs(est) / (dde._ATOL + dde._RTOL * np.maximum(x, x_new)))
                assert err <= 1.0
        assert longer == traj.lengthened_steps > 0
        # the trials beyond the steps were rejected, each for one cause
        assert len(trials) - len(accepted) == sum(traj.rejected.values())

    @pytest.mark.parametrize("v", [None, -1e-3])
    def test_projected_amount_counts_in_a_lengthened_estimate(self, monkeypatch, v):
        # the first RODAS4 trial, accepted as it is, is retried shorter
        # from the same state once a component of its state is v: the
        # amount projected away fails the norm, though the estimate passes
        log = []

        def entry(name, a, out):
            if v is not None and name == "rodas4_step" and "rodas4_step" not in log:
                out[0][0] = v
            log.append(name)
            return a[0], a[5]

        trials = record_trials(monkeypatch, entry)
        f, g = paper_system()
        simulate(f, g, BoundedDelay(1.0), HistorySpec(np.array([1.0, 4.0])),
                 SimConfig(t_start=1.0, t_end=10.0))
        k = log.index("rodas4_step")
        (x, h), (x_next, h_next) = trials[k], trials[k + 1]
        if v is None:
            assert x_next is not x
        else:
            assert x_next is x and h_next < h


def record_trials(monkeypatch, entry):
    """Wrap both step functions: each trial, of either method, appends
    entry(name, args, (x_new, estimate)) to the list returned."""
    trials = []
    for name in ("rodas3_step", "rodas4_step"):
        def recording(*a, name=name, step=getattr(dde, name)):
            out = step(*a)
            trials.append(entry(name, a, out))
            return out
        monkeypatch.setattr(dde, name, recording)
    return trials


def record_nodes(monkeypatch, most):
    """Wrap the node store's append, Trajectory.append: the times
    appended, in a list, and a test failure past the most nodes."""
    nodes = []
    append = Trajectory.append

    def bounded(self, t, x, F):
        nodes.append(t)
        if len(nodes) > most:
            pytest.fail("the run did not raise")
        append(self, t, x, F)

    monkeypatch.setattr(Trajectory, "append", bounded)
    return nodes


def paper_system():
    # the section-5 system: at most two terms in a component of f, one in g
    f = PolyMap(2, [[(-5.0, (3.0, 0.0)), (2.0, (1.0, 1.0))],
                    [(1.0, (2.0, 1.0)), (-4.0, (0.0, 2.0))]])
    g = PolyMap(2, [[(1.0, (1.0, 1.0))], [(2.0, (4.0, 0.0))]])
    return f, g


@st.composite
def nodes_and_time(draw, count=None):
    """A node store of 1 to 6 nodes in n <= 3, and a delayed time at or
    before the first node, on a node, inside an interval or past the last;
    a list of count such times when count is given."""
    N = draw(st.integers(1, 6))
    n = draw(st.integers(1, 3))
    values = st.floats(-10.0, 10.0)
    gaps = draw(hnp.arrays(float, N - 1, elements=st.floats(1e-3, 5.0)))
    ts = draw(st.floats(-5.0, 5.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    xs, fs = (draw(hnp.arrays(float, (N, n), elements=values)) for _ in range(2))
    history = draw(hnp.arrays(float, n, elements=st.floats(0.0, 10.0)))
    nodes = Trajectory(ts[:1], xs[:1], fs[:1], history=history)
    for k in range(1, N):
        nodes.append(ts[k], xs[k], fs[k])

    def delayed_time():
        kind = draw(st.sampled_from(("before", "first", "node", "inside", "past")))
        k = draw(st.integers(0, N - 1))
        if kind == "before":
            d = ts[0] - draw(st.floats(1e-6, 10.0))
        elif kind == "first":
            d = ts[0]
        elif kind == "node":
            d = ts[k]
        elif kind == "inside" and N > 1:
            k = min(k, N - 2)
            d = ts[k] + draw(st.floats(0.0, 1.0)) * (ts[k + 1] - ts[k])
        else:
            d = ts[-1] + draw(st.floats(0.0, 10.0))
        return float(d)
    return nodes, delayed_time() if count is None else [delayed_time() for _ in range(count)]


def hermite_one(ts, xs, fs, d, history):
    """The cubic Hermite lookup rebuilt from the node values on every call,
    as the integrator did before it kept each interval's coefficients, not
    raised to 0."""
    N = len(ts)
    t0 = ts[0]
    if d <= t0:
        return history, True, False
    if N == 1:
        return xs[0] + (d - t0) * fs[0], False, True
    k = ts[1:N - 1].searchsorted(d, side="right") + 1
    j = k - 1
    t0 = ts[j]
    h = ts[k] - t0
    s = (d - t0) / h
    x0, hf0 = xs[j], h * fs[j]
    dx = xs[k] - x0
    c3 = hf0 + h * fs[k] - 2.0 * dx
    return x0 + s * (hf0 + s * (dx - hf0 - c3 + s * c3)), False, bool(d >= ts[N - 1])


def rows_by_hermite(traj, ds):
    """Trajectory.lookup_rows as one hermite_one per time on the node
    arrays, raised by np.maximum."""
    looks = [hermite_one(traj.ts, traj.xs, traj.fs, d, traj.history) for d in ds]
    return (np.maximum([x for x, _, _ in looks], 0.0), looks[-1][1],
            any(ahead for _, _, ahead in looks))


class TestLookupOne:
    """Every step takes the lookup of one delayed time (a RODAS3 trial) or
    of four (a RODAS4 trial), from the cubic coefficients of the node
    intervals, made once."""

    @given(nodes_and_time())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_hermite_arithmetic(self, case):
        nodes, d = case
        N = nodes.N
        want, hist, ahead = hermite_one(nodes.ts, nodes.xs, nodes.fs, d, nodes.history)
        X, got_hist, got_ahead = nodes.lookup_rows((d,))
        # the coefficients hold the same partial results, so the bits agree
        assert np.array_equal(X[0], np.maximum(want, 0.0))
        assert (got_hist, got_ahead) == (hist, ahead)
        if nodes.ts[0] < d <= nodes.ts[-1]:
            # sample reads the same coefficients, not raised to 0
            assert np.array_equal(nodes.sample(d), want)
        k = int(np.searchsorted(nodes.ts, d))
        if 0 < k < N - 1 and d == nodes.ts[k]:
            # s = 0 at a node inside the store: the node's state itself
            assert np.array_equal(nodes.sample(d), nodes.xs[k])

    @given(nodes_and_time(count=4))
    @settings(max_examples=300, deadline=None)
    def test_rows_are_lookup_ones(self, case):
        # a RODAS4 trial's four times in one pass, made first on the store
        nodes, ds = case
        X, hist, ahead = nodes.lookup_rows(ds)
        want, want_hist, want_ahead = rows_by_hermite(nodes, ds)
        assert np.array_equal(X, want) and np.array_equal(np.signbit(X), np.signbit(want))
        assert (hist, ahead) == (want_hist, want_ahead)

    def test_lookup_behind_the_made_intervals_makes_none(self, monkeypatch):
        ts = np.arange(6.0)
        nodes = Trajectory(ts[:1], np.ones((1, 2)), np.zeros((1, 2)), history=np.ones(2))
        for t in ts[1:4]:
            nodes.append(t, np.full(2, 1.0 + t), np.ones(2))
        nodes.lookup_rows((3.5,))
        assert nodes.made == 3
        for t in ts[4:]:
            nodes.append(t, np.full(2, 1.0 + t), np.ones(2))
        monkeypatch.setattr(dde, "_cubics", lambda *a: pytest.fail("coefficients made"))
        nodes.lookup_rows((0.5, 1.0, 2.25, 2.75))
        for d in (0.5, 1.0, 2.25, 2.75):
            nodes.sample(d)
        assert nodes.made == 3

    def test_one_pass_serves_many_steps(self, monkeypatch):
        # the proportional delay's times lie far behind the last node, so
        # the run makes its coefficients in far fewer passes than steps
        passes = []
        cubics = dde._cubics
        monkeypatch.setattr(dde, "_cubics", lambda *a: passes.append(1) or cubics(*a))
        f, g = paper_system()
        traj = simulate(f, g, ProportionalDelay(0.5), HistorySpec(np.array([1.0, 4.0])),
                        SimConfig(t_start=1.0, t_end=1e3, rho=1e-2))
        assert 0 < len(passes) < (len(traj.ts) - 1) / 10


def term_rows(rows):
    return [[(t["c"], tuple(t["e"])) for t in row] for row in rows]


class TestAccuracyCut:
    """A policy step longer than h_min whose estimate is a large fraction of
    the state is halved."""

    # a generated stable system, n = 3, under a logfraction delay, where a
    # few of the policy's steps at rho = 1e-2 had estimates of 0.08 to 0.17
    # of the state and x(32) ended 14.7% from the run at rho = 1e-3
    DOC = {
        "n": 3,
        "f": [[{"c": -3.76, "e": [3.375, 0.0, 0.0]}, {"c": 0.91, "e": [0.0, 0.0, 1.08]},
               {"c": 0.45, "e": [0.0, 5.4, 0.0]}, {"c": 0.13, "e": [0.0, 0.75, 0.93]}],
              [{"c": -4.39, "e": [0.0, 4.8, 0.0]}, {"c": 0.83, "e": [0.74, 0.0, 0.7232]},
               {"c": 0.7, "e": [0.0, 0.0, 0.96]}, {"c": 0.76, "e": [0.93, 3.312, 0.0]}],
              [{"c": -3.06, "e": [0.0, 0.0, 1.76]}, {"c": 0.29, "e": [0.56, 7.904, 0.0]},
               {"c": 0.2, "e": [0.0, 8.8, 0.0]}, {"c": 0.54, "e": [0.31, 1.43, 1.3748]}]],
        "g": [[{"c": 0.51, "e": [1.0, 2.75, 0.21]}, {"c": 0.76, "e": [2.58125, 0.82, 0.09]}],
              [{"c": 0.56, "e": [1.53125, 1.0, 0.27]}, {"c": 0.54, "e": [0.76, 0.36, 0.6448]}],
              [{"c": 0.19, "e": [1.95, 0.68, 1.0]}, {"c": 0.84, "e": [2.73125, 0.33, 0.82]}]],
        "phi0": [0.8, 1.85, 1.6],
        "t_start": 4.0,
    }

    def run(self, rho):
        doc = self.DOC
        f, g = (PolyMap(doc["n"], term_rows(doc[k])) for k in ("f", "g"))
        traj = simulate(f, g, LogFractionDelay(), HistorySpec(np.array(doc["phi0"])),
                        SimConfig(t_start=doc["t_start"], t_end=60.0, rho=rho))
        return traj.sample(32.0)

    def test_coarse_policy_steps_are_cut(self):
        np.testing.assert_allclose(self.run(1e-2), self.run(1e-3), rtol=1e-2, atol=0.0)

    def test_cut_stops_at_h_min(self, monkeypatch):
        # with every policy step above h_min cut, the run halves down to
        # h_min and no further, and does not fail: every step but the last
        # is h_min
        monkeypatch.setattr(dde, "_EST_CUT", 0.0)
        f, g = paper_system()
        traj = simulate(f, g, BoundedDelay(1.0), HistorySpec(np.array([1.0, 4.0])),
                        SimConfig(t_start=1.0, t_end=3.0, rho=1e-2))
        h = np.diff(traj.ts)[:-1]
        np.testing.assert_allclose(h, 1e-3, rtol=1e-9)


def abscissa(J):
    return np.linalg.eigvals(J).real.max()


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


class TestGrowth:
    """Gershgorin's bound is never below the spectral abscissa, which
    _growth takes from the eigenvalues, so the pole test decides by the
    bound as by the abscissa."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_bounds_the_abscissa(self, A):
        s = abscissa(A)
        assert dde._growth(A) == s
        tol = 1e-12 * (1.0 + np.abs(A).sum(axis=1).max())
        assert s <= dde._growth_bound(A, False) + tol
        # the row sums of J itself, when J is Metzler
        if np.all(A[~np.eye(len(A), dtype=bool)] >= 0.0):
            assert s <= dde._growth_bound(A, True) + tol

    CASES = {
        # x1' = -x1 + 10 x2: Gershgorin's bound is 9 on every step
        "cooperative": (
            PolyMap(2, [[(-1.0, (1, 0)), (10.0, (0, 1))], [(0.01, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[(0.1, (1, 0))], [(0.001, (0, 1))]]),
            ProportionalDelay(0.5), [1.0, 1.0], SimConfig(t_start=1.0, t_end=100.0, rho=1e-2)),
        # x1' = -x1 - x1 x2: Hurwitz always, with Gershgorin's bound 4 from row 2
        "noncooperative": (
            PolyMap(2, [[(-1.0, (1, 0)), (-1.0, (1, 1))], [(5.0, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[(0.1, (1, 0))], [(0.1, (0, 1))]]),
            BoundedDelay(1.0), [1.0, 0.1], SimConfig(t_start=1.0, t_end=100.0, rho=1e-2)),
        # x1 decays to x_floor, and its trial states are projected
        "stiff-decayed": (
            PolyMap(2, [[(-1e4, (1, 0))], [(10.0, (1, 0)), (-1.0, (0, 1))]]),
            PolyMap(2, [[], [(0.5, (0, 1))]]),
            BoundedDelay(1.0), [1.0, 1.0], SimConfig(t_start=0.0, t_end=0.1)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bound_decides_as_the_growth_rate(self, monkeypatch, case):
        # with a bound that never holds, every trial takes the growth rate
        f, g, delay, phi0, cfg = self.CASES[case]
        growth = dde._growth
        runs = []
        for bound in (dde._growth_bound, lambda J, metzler: np.inf):
            calls = []
            monkeypatch.setattr(dde, "_growth_bound", bound)
            monkeypatch.setattr(dde, "_growth", lambda J: calls.append(1) or growth(J))
            runs.append((simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg), len(calls)))
        (cheap, cheap_calls), (ref, ref_calls) = runs
        assert cheap_calls < ref_calls
        for a, b in ((cheap.ts, ref.ts), (cheap.xs, ref.xs), (cheap.fs, ref.fs)):
            assert np.array_equal(a, b)


def numpy_err_norm(u4, scale):
    """The error norm as numpy's elementwise expression."""
    return dde._extreme(max, (np.abs(u4) / (dde._ATOL + dde._RTOL * scale)).tolist())


def numpy_growth_bound(J, metzler):
    """Gershgorin's bound with numpy's row reductions."""
    if metzler:
        rows = np.add.reduce(J, axis=1).tolist()
    else:
        rows = (np.add.reduce(np.abs(J), axis=1) + 2.0 * np.minimum(J.diagonal(), 0.0)).tolist()
    if not math.isfinite(sum(rows)) and not np.isfinite(J).all():
        return None
    return dde._extreme(max, rows)


class TestTrialOnFloats:
    """The inverse without np.linalg.inv's wrapper, the error norm and the
    Metzler row sums on Python floats leave every trajectory as numpy's
    calls make it, bit for bit."""

    CASES = dict(TestGrowth.CASES, reference=(
        *paper_system(), LogFractionDelay(), [1.0, 4.0],
        SimConfig(t_start=math.e, t_end=1e6)))

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trajectory_is_numpys(self, monkeypatch, case):
        f, g, delay, phi0, cfg = self.CASES[case]
        fast = simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg)
        monkeypatch.setattr(dde, "_inv", lambda W: np.linalg.inv(W))
        monkeypatch.setattr(dde, "_err_norm", numpy_err_norm)
        monkeypatch.setattr(dde, "_growth_bound", numpy_growth_bound)
        ref = simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg)
        for a, b in ((fast.ts, ref.ts), (fast.xs, ref.xs), (fast.fs, ref.fs)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_trajectory_is_the_dense_tables(self, monkeypatch, case):
        # f and g evaluated on their dense tables, and every trial's
        # lookups rebuilt from the node values, one hermite_one per time
        # (all cases but the cooperative one take RODAS4 steps)
        f, g, delay, phi0, cfg = self.CASES[case]
        fast = simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg)
        monkeypatch.setattr(dde, "fast_evaluator", lambda F: F)
        monkeypatch.setattr(Trajectory, "lookup_rows", rows_by_hermite)
        ref = simulate(f, g, delay, HistorySpec(np.array(phi0)), cfg)
        for a, b in ((fast.ts, ref.ts), (fast.xs, ref.xs), (fast.fs, ref.fs)):
            assert np.array_equal(a, b)

    def test_row_sums_are_numpys(self):
        # down to the sign of a zero row, and NaN where numpy's is
        rng = np.random.default_rng(7)
        for n in range(1, 7):
            for _ in range(500):
                J = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-8, 9, (n, n))
                J[rng.random((n, n)) < 0.3] = -0.0
                J[rng.random((n, n)) < 0.02] = np.nan
                got = [sum(row) for row in J.tolist()]
                want = np.add.reduce(J, axis=1)
                assert np.array_equal(np.signbit(got), np.signbit(want))
                assert np.array_equal(got, want, equal_nan=True)


def unit(j, n=3):
    return tuple(float(j == k) for k in range(n))


class TestNanRule:
    """The driver's branch tests take their scalars from Python floats, yet
    keep numpy's NaN: the builtin min and max keep a NaN only at index 0,
    so a NaN or an inf is put at index 0 and at index n - 1 of n = 3."""

    # f_i = -2 x_i + x_j / 2 over j != i: every component reads every
    # state, so the field at an infinite state is not finite
    F = PolyMap(3, [[(-2.0 if j == i else 0.5, unit(j)) for j in range(3)] for i in range(3)])
    G = PolyMap(3, [[(0.1, unit(i))] for i in range(3)])

    @pytest.mark.parametrize("i", [0, 2])
    @pytest.mark.parametrize("v", [np.nan, np.inf, -np.inf])
    def test_extremes_are_numpys(self, v, i):
        values = [0.5, 2.0, 1.0]
        values[i] = v
        for pick, ufunc in ((min, np.minimum), (max, np.maximum)):
            got, want = dde._extreme(pick, values), float(ufunc.reduce(np.array(values)))
            assert got == want or (math.isnan(got) and math.isnan(want))

    @pytest.mark.parametrize("i", [0, 2])
    @pytest.mark.parametrize("v", [np.nan, np.inf])
    def test_err_norm_fails(self, v, i):
        u4 = np.full(3, 1e-12)
        u4[i] = v
        assert not dde._err_norm(u4, np.ones(3)) <= 1.0

    @pytest.mark.parametrize("metzler", [True, False])
    @pytest.mark.parametrize("i", [0, 2])
    @pytest.mark.parametrize("v", [np.nan, np.inf])
    def test_growth_bound_of_a_nonfinite_jacobian_is_none(self, v, i, metzler):
        J = np.full((3, 3), 0.1) - np.eye(3)
        J[i, i] = v
        assert dde._growth_bound(J, metzler) is None

    @pytest.mark.parametrize("i", [0, 2])
    def test_growth_bound_keeps_a_nan_row(self, i):
        # a finite J whose row of |J| overflows to inf while twice its
        # diagonal overflows to -inf: that row's bound is NaN, and so is J's
        J = -np.eye(3)
        J[i] = -1e308
        # as inside simulate, where the overflow is no warning
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(dde._growth_bound(J, False))

    def events(self, monkeypatch, where, i, v):
        """The trials and field evaluations of a run whose first trial
        returns v at index i of x_new or of u4, up to and with the second
        trial, and the run's trajectory."""
        log = []
        field = dde._field_jacobian

        def trial(name, a, out):
            x_new, u4 = out
            if all(e[0] != "trial" for e in log):
                (x_new if where == "x_new" else u4)[i] = v
            log.append(("trial", a[5]))

        record_trials(monkeypatch, trial)
        monkeypatch.setattr(dde, "_field_jacobian", lambda f, f_eval, x, x_min: log.append(
            ("field", bool(np.isfinite(x).all()))) or field(f, f_eval, x, x_min))
        traj = simulate(self.F, self.G, BoundedDelay(1.0), HistorySpec(np.ones(3)),
                        SimConfig(t_start=1.0, t_end=1.1, rho=1e-2))
        # the field at the initial state comes before any trial
        assert log[0] == ("field", True)
        log = log[1:]
        second = [k for k, e in enumerate(log) if e[0] == "trial"][1]
        return log[:second + 1], traj

    @pytest.mark.parametrize("i", [0, 2])
    @pytest.mark.parametrize("where, v, taken", [
        # the orthant test fails: rejected before the field, not as coarse
        ("x_new", np.nan, []),
        # the orthant and the estimate pass, the field is not finite
        ("x_new", np.inf, [("field", False)]),
        # the estimate test fails, not as coarse
        ("u4", np.nan, []),
        # an infinite estimate is coarse: halved
        ("u4", np.inf, []),
        # -inf fails the orthant test too: it is never projected
        ("x_new", -np.inf, []),
        # a finite negative component is projected, and the trial accepted
        ("x_new", -1.0, [("field", True)]),
    ])
    def test_trial_tests_reject_on_numpys_branch(self, monkeypatch, where, v, taken, i):
        log, traj = self.events(monkeypatch, where, i, v)
        h = log[0][1]
        if ("field", True) in taken:
            # accepted, so the second trial is the next step's; the run is
            # the one whose trial gave 0 there, bit for bit, with the same
            # rejections, none of them for the projection
            assert log[:-1] == [("trial", h)] + taken
            assert traj.ts[1] == traj.ts[0] + h and traj.xs[1, i] == dde._X_FLOOR
            monkeypatch.undo()
            log0, zero = self.events(monkeypatch, where, i, 0.0)
            assert log == log0 and traj.rejected == zero.rejected
            for a, b in ((traj.ts, zero.ts), (traj.xs, zero.xs), (traj.fs, zero.fs)):
                assert np.array_equal(a, b)
            return
        assert log == [("trial", h)] + taken + [("trial", 0.5 * h)]
        # the one rejected trial is counted under its cause
        cause = ("estimate" if where == "u4" else "field" if ("field", False) in taken
                 else "orthant")
        assert traj.rejected == dict(dict.fromkeys(dde.REJECTIONS, 0), **{cause: 1})


class TestErrorPaths:
    def test_stalled_run_raises(self, monkeypatch):
        # the reference to t_end = 1e16: past 1e12 the noisy node slopes
        # f(x_n) + G(t_n) (ROADMAP item 18) feed the forcing, and at t =
        # 7.99e14 no step down to h_min passes.  A change of those slopes
        # keeps this test by restoring them here by monkeypatch
        nodes = record_nodes(monkeypatch, 50_000)
        f, g = paper_system()
        with pytest.raises(SimulationError,
                           match=r"no step of at least 0\.001 .* at t=7\.990\d+e\+14"):
            simulate(f, g, LogFractionDelay(), HistorySpec(np.array([1.0, 4.0])),
                     SimConfig(t_start=math.e, t_end=1e16))
        assert nodes[-1] == pytest.approx(7.9908e14, rel=1e-4)

    def test_stall_guard_raises(self, monkeypatch):
        # with the fraction above every step's h / t (at most _H_CAP), each
        # accepted step is stalled: the _STALL_STEPS-th raises, naming t,
        # before it is added
        monkeypatch.setattr(dde, "_STALL_FRACTION", 1.0)
        nodes = record_nodes(monkeypatch, 50_000)
        f, g = paper_system()
        with pytest.raises(SimulationError, match=r"stalls at t=") as caught:
            simulate(f, g, LogFractionDelay(), HistorySpec(np.array([1.0, 4.0])),
                     SimConfig(t_start=math.e, t_end=1e6))
        assert len(nodes) == dde._STALL_STEPS - 1
        assert "stalls at t=%g:" % nodes[-1] in str(caught.value)

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

    def test_growth_is_taken_from_the_burn_in_node(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        traj = Trajectory(t, [[2.0], [3.0], [4.0], [8.0]], np.zeros((4, 1)))
        mu = TabulatedMu(t, np.ones(4) + 1e-9 * t)
        rep = lyapunov_monitor(traj, mu, np.ones(1), DilationMap((1.0,)), 1.0, 2)
        assert (rep.burn_in, rep.burn_in_found) == (3.0, True)
        assert rep.growth_ratio == pytest.approx(2.0)
        rep = lyapunov_monitor(traj, mu, np.ones(1), DilationMap((1.0,)), 1.0, None)
        assert (rep.burn_in, rep.burn_in_found) == (1.0, False)
        assert rep.growth_ratio == pytest.approx(4.0)

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


def test_dde_does_not_import_criterion():
    # the margins and when they certify belong to criterion alone; the
    # monitor is handed the burn-in node it found
    tree = ast.parse(Path(dde.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        assert not any(name.split(".")[-1] == "criterion" for name in names)


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
