"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line with its runtime and asserts its
own time budget, so the suite doubles as a performance regression guard.
"""

import json
import os
import time

import numpy as np
import pytest

from mustab.criterion import (
    ANALYTIC,
    LimitPair,
    compute_limits,
    criterion_margins,
)
from mustab.dde import HistorySpec, SimConfig, fit_rate, lyapunov_monitor, simulate
from mustab.fields import (
    CERTIFIED,
    DilationMap,
    PolyMap,
    check_cooperative,
    check_nondecreasing,
    check_omega_condition,
    eval_field,
    homogeneity_degree,
)
from mustab.pipeline import parse_system, run_pipeline
from mustab.rates import (
    BoundedDelay,
    ExponentialMu,
    LogFractionDelay,
    LogLogMu,
    LogMu,
    PowerLagDelay,
    PowerMu,
    ProportionalDelay,
    make_delay,
    make_mu,
)
from mustab.transform import (
    transform_field,
    verify_lemma1,
    verify_lemma2,
    verify_lemma3,
)

from generate import (
    random_dilation,
    random_homogeneous_cooperative,
    random_homogeneous_nondecreasing,
)

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_DOC = os.path.join(HERE, "..", "examples", "paper_sec5.json")


def report(name, t0, budget):
    dt = time.time() - t0
    print("%s: PASS (%.2f s, budget %g s)" % (name, dt, budget))
    assert dt < budget


def load_doc():
    with open(PAPER_DOC) as fh:
        return parse_system(fh.read())


def test_1_reference_margins():
    t0 = time.time()
    doc = load_doc()
    rep, _, code = run_pipeline(doc, ["check", "transform", "criterion"])
    assert code == 0
    assert np.allclose(rep.criterion.margins, [-4.0, -1.0], atol=1e-12)
    assert rep.criterion.verdict == "STABLE_CERTIFIED"
    report("acceptance 1 reference margins", t0, 1.0)


def test_2_structure_detection():
    t0 = time.time()
    doc = load_doc()
    r = doc.r
    assert homogeneity_degree(doc.f, r) == pytest.approx(2.0, abs=1e-12)
    assert homogeneity_degree(doc.g, r) == pytest.approx(2.0, abs=1e-12)
    assert check_cooperative(doc.f).status == CERTIFIED
    assert check_nondecreasing(doc.g).status == CERTIFIED
    report("acceptance 2 structure detection", t0, 1.0)


def test_3_transform_exactness():
    t0 = time.time()
    doc = load_doc()
    fbar, fflags = transform_field(doc.f, doc.r)
    gbar, gflags = transform_field(doc.g, doc.r)
    assert fbar == PolyMap(2, [
        [(-5.0, (3, 0)), (2.0, (1, 2))],
        [(1.0, (2, 1)), (-4.0, (0, 3))],
    ])
    assert gbar == PolyMap(2, [
        [(1.0, (1, 2))],
        [(2.0, (4, -1))],
    ], allow_negative_exponents=True)
    assert fflags == () and gflags == (1,)
    rng = np.random.default_rng(100)
    rv = np.asarray(doc.r.r)
    for F, Fbar in ((doc.f, fbar), (doc.g, gbar)):
        for _ in range(500):
            z = np.exp(rng.uniform(np.log(0.05), np.log(20.0), size=2))
            direct = eval_field(F, z ** rv) / z ** (rv - 1.0)
            got = eval_field(Fbar, z)
            assert np.allclose(got, direct, rtol=1e-10)
    report("acceptance 3 transform exactness", t0, 1.0)


# every closed-form delayed-ratio limit with a finite value, across the
# supported family pairs and a spread of parameters
LIMIT_TABLE = (
    [(ExponentialMu(e), BoundedDelay(tm), np.exp(e * tm))
     for e in (0.1, 0.5) for tm in (0.5, 2.0, 5.0)]
    + [(PowerMu(b), BoundedDelay(tm), 1.0)
       for b in (0.5, 1.0, 2.0) for tm in (0.5, 5.0)]
    + [(LogMu(), BoundedDelay(tm), 1.0) for tm in (0.5, 5.0)]
    + [(LogLogMu(), BoundedDelay(tm), 1.0) for tm in (0.5, 5.0)]
    + [(PowerMu(b), ProportionalDelay(q), q ** (-b))
       for b in (0.5, 1.0, 2.0) for q in (0.1, 0.25, 0.5, 0.9)]
    + [(LogMu(), ProportionalDelay(q), 1.0) for q in (0.1, 0.5, 0.9)]
    + [(LogLogMu(), ProportionalDelay(q), 1.0) for q in (0.1, 0.5, 0.9)]
    + [(LogMu(), LogFractionDelay(), 1.0)]
    + [(LogLogMu(), PowerLagDelay(a), 1.0) for a in (0.2, 0.5, 0.8)]
)


def test_4_limits():
    t0 = time.time()
    pair = compute_limits(LogMu(), LogFractionDelay(), 2.0, 2.0)
    assert pair.method == ANALYTIC
    assert (pair.L, pair.D) == (1.0, 0.0)
    for mu, delay, expect in LIMIT_TABLE:
        analytic = compute_limits(mu, delay, 0.0, 1.0).L
        assert analytic == pytest.approx(expect, rel=1e-12)
        if not isinstance(delay, (BoundedDelay, PowerLagDelay)):
            # mu(t)/mu(d(t)) itself at t = 1e300, in the log domain: the
            # slowest of these pairs is still 0.0095 off its limit there
            # ((loglog, powerlag) nears 1 like ln(1/alpha)/ln ln t, 4-33% off there)
            t = 1e300
            ratio = np.exp(mu.log_value(t) - mu.log_value(delay.delayed_time(t)))
            assert ratio == pytest.approx(expect, rel=0.02), (mu.family, delay.family)
    report("acceptance 4 limits", t0, 5.0)


def test_5_lemma_suites():
    t0 = time.time()
    rng = np.random.default_rng(200)
    refutations = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        r = random_dilation(rng, n)
        p = float(rng.uniform(0.0, 2.5))
        f = random_homogeneous_cooperative(rng, n, r, p)
        g = random_homogeneous_nondecreasing(rng, n, r, p)
        assert check_cooperative(f).status == CERTIFIED
        assert check_nondecreasing(g).status == CERTIFIED
        omega = {i: check_omega_condition(g, i, rng=rng) for i in range(n)}
        for rep in (
            verify_lemma1(f, r, p, trials=40, rng=rng, tol=1e-9),
            verify_lemma1(g, r, p, trials=40, rng=rng, tol=1e-9),
            verify_lemma2(f, r, trials=40, rng=rng),
            verify_lemma3(g, r, omega, trials=40, rng=rng),
        ):
            if not rep.passed:
                refutations += 1
    assert refutations == 0
    report("acceptance 5 lemma suites", t0, 30.0)


def test_6_reference_simulation_and_rate():
    t0 = time.time()
    doc = load_doc()
    rep, traj, code = run_pipeline(
        doc, ["check", "transform", "criterion", "simulate", "fit"])
    assert code == 0
    final = np.asarray(rep.simulation["final_state"])
    assert np.all(final >= 0.0)
    # frozen oracle from an independent fixed-cap reference integration
    # (h capped at 2, half a million nodes): x(1e6) = (0.192929, 0.0466025)
    assert final == pytest.approx([0.192929, 0.0466025], rel=1e-3)
    # decreasing over the last decade
    assert np.all(final < traj.sample(1e5))
    assert rep.simulation["v_growth_ratio"] < 1.01
    slopes = np.asarray(rep.simulation["slopes"])
    assert slopes[0] <= -0.4 and slopes[1] <= -0.9
    report("acceptance 6 simulation and rate", t0, 10.0)


def test_7_base_theorem_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(300)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        r = random_dilation(rng, n)
        p = float(rng.uniform(0.0, 2.0))
        f = random_homogeneous_cooperative(rng, n, r, p)
        g = random_homogeneous_nondecreasing(rng, n, r, p)
        fbar, _ = transform_field(f, r)
        gbar, _ = transform_field(g, r)
        xi = np.exp(rng.uniform(-1.0, 1.0, size=n))
        L = float(rng.uniform(1.0, 3.0))
        D = float(rng.uniform(0.0, 1.0))
        got, _ = criterion_margins(fbar, gbar, xi, r, 1.0, p,
                                LimitPair(L, D, ANALYTIC))
        rv = np.asarray(r.r)
        direct = (1.0 / rv) * (
            eval_field(fbar, xi) / xi
            + L ** (p + 1.0) * eval_field(gbar, xi) / xi
        ) + D
        assert np.allclose(got, direct, rtol=1e-14, atol=1e-14)
    report("acceptance 7 base criterion equivalence", t0, 5.0)


def test_8_integrator_oracles():
    t0 = time.time()
    # scalar exponential
    f = PolyMap(1, [[(-1.0, (1.0,))]])
    zero = PolyMap(1, [[]])
    traj = simulate(f, zero, BoundedDelay(1.0), HistorySpec(np.ones(1)),
                    SimConfig(t_start=0.0, t_end=10.0))
    assert traj.xs[-1, 0] == pytest.approx(np.exp(-10.0), rel=1e-6)

    # xdot(t) = x(t-1) with unit history, hand-derived stepwise polynomials
    g = PolyMap(1, [[(1.0, (1.0,))]])
    traj = simulate(zero, g, BoundedDelay(1.0), HistorySpec(np.ones(1)),
                    SimConfig(t_start=0.0, t_end=2.0))
    for t in (0.3, 0.7, 1.0):
        assert traj.sample(t)[0] == pytest.approx(1.0 + t, abs=1e-8)
    for t in (1.3, 1.7, 2.0):
        assert traj.sample(t)[0] == pytest.approx(2.0 + (t * t - 1.0) / 2.0,
                                                  abs=1e-8)

    # step-halving consistency on the reference system at t = 1e3
    doc = load_doc()
    delay = make_delay(doc.delay_spec)
    hist = HistorySpec(doc.phi0)
    a = simulate(doc.f, doc.g, delay, hist,
                 SimConfig(t_start=np.e, t_end=1e3, rho=1e-3))
    b = simulate(doc.f, doc.g, delay, hist,
                 SimConfig(t_start=np.e, t_end=1e3, rho=5e-4))
    rel = np.max(np.abs(a.xs[-1] - b.xs[-1]) / np.abs(b.xs[-1]))
    assert rel < 1e-4
    report("acceptance 8 integrator oracles", t0, 10.0)
