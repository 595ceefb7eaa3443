"""The four workloads: seeded inputs, the timed operation, and the checks.

Inputs are made here from the workload seed, without mustab; mustab only
receives the generated document texts.  Each workload has

* ``items(seed)``: the documents of one round, the same for the same seed;
* ``prepare(M, item)``: set-up for one item (parsing, building the delay);
* ``run(M, item, ready)``: the timed operation, through mustab's public API;
* ``check(item, out)``: the problems found in the outputs of one operation,
  judged by ``independent.py`` or by properties the method must have.

``M`` is the mustab package; operations look functions up on its modules at
call time (``M.dde.simulate``), so that the traced run's wrappers see every
call.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import independent as ind

STAGES_ALL = ["check", "transform", "criterion", "simulate", "fit"]
STAGES_CERTIFY = ["check", "transform", "criterion"]

# examples/paper_sec5.json, kept here so that the headline input cannot
# change under the benchmark
REFERENCE_DOC = {
    "n": 2,
    "f": [[{"c": -5.0, "e": [3, 0]}, {"c": 2.0, "e": [1, 1]}],
          [{"c": 1.0, "e": [2, 1]}, {"c": -4.0, "e": [0, 2]}]],
    "g": [[{"c": 1.0, "e": [1, 1]}], [{"c": 2.0, "e": [4, 0]}]],
    "r": [1.0, 2.0],
    "delay": {"family": "logfraction"},
    "mu": {"family": "log"},
    "xi": [1.0, 1.0],
    "r_star": 2.0,
    "history": {"phi0": [1.0, 4.0]},
    "sim": {"t_start": 2.718281828459045, "t_end": 1000000.0},
}

# weights whose reciprocals are terminating decimals, so that exponents
# solved from sum_j a_j r_j = p + r_i stay short decimals
R_CHOICES = (0.5, 0.8, 1.0, 1.25, 2.0, 2.5)
R_DYADIC = (0.5, 1.0, 2.0)
# tables end at 1e6: exp(log(t_max)) rounds above t_max for most other
# round ends, which mustab rejects (see FAULT_DOCS["table-end-rounding"])
TABLE_END = 1e6


@dataclass
class Item:
    name: str
    text: str                                 # what mustab receives
    meta: dict = field(default_factory=dict)  # how it was built
    expect_fail: str = None                   # a fault this item shows


@dataclass
class Outcome:
    value: object = None
    error: BaseException = None


def _dec(x, digits=2):
    return round(float(x), digits)


def _doc_text(doc):
    return json.dumps(doc, sort_keys=True)


def _term(c, e):
    return {"c": float(c), "e": [float(v) for v in e]}


def _fr(x):
    return Fraction(str(x))


def _solve_exponents(rng, r, target, support, base=None, grid=100):
    """Exponents on ``support``, added to ``base``, with sum_j a_j r_j
    growing by exactly ``target``: all but the last supported coordinate
    are drawn on the grid 1/``grid`` and the last is solved; since 1/r_k is
    a terminating decimal, every exponent stays a short decimal.  With
    ``grid=8`` and dyadic r, every exponent and every sum of their products
    with r is exact in binary floating point too."""
    a = [Fraction(0)] * len(r) if base is None else [_fr(v) for v in base]
    *free, last = support
    rest = target
    for j in free:
        aj = Fraction(round(float(rest) * rng.uniform(0.1, 0.9) / len(support) / r[j] * grid), grid)
        a[j] += aj
        rest -= aj * _fr(r[j])
    a[last] += rest / _fr(r[last])
    assert rest >= 0 and all(Fraction(repr(float(v))) == v for v in a)
    return [float(v) for v in a]


def _homog_exponents(rng, r, i, p, support, grid=100):
    """A monomial of component i of degree p: sum_j a_j r_j = p + r_i."""
    return _solve_exponents(rng, r, _fr(p) + _fr(r[i]), support, grid=grid)


def _diag_exponent(r, i, p):
    e = [0.0] * len(r)
    e[i] = float((_fr(p) + _fr(r[i])) / _fr(r[i]))
    return e


def _cross_support(rng, n, i):
    others = [j for j in range(n) if j != i]
    k = int(rng.integers(1, len(others) + 1))
    pick = sorted(int(j) for j in rng.choice(others, size=k, replace=False))
    return pick + [i] if rng.random() < 0.5 else pick


def _omega_exponents(rng, r, i, p, grid=100):
    """A monomial exactly linear in x_i (weight p spread on the others), or
    None when there is none (n = 1 with p > 0)."""
    n = len(r)
    unit = [1.0 if j == i else 0.0 for j in range(n)]
    if p == 0:
        return unit
    if n == 1:
        return None
    others = [j for j in range(n) if j != i]
    rng.shuffle(others)
    return _solve_exponents(rng, r, _fr(p), others, base=unit, grid=grid)


def _monotone_exponents(rng, r, i, p, grid=100):
    """A monomial of degree p whose transformed self-exponent
    a_i r_i + 1 - r_i is nonnegative, so gbar_i is nondecreasing."""
    n = len(r)
    base = [0.0] * n
    base[i] = math.ceil(max(r[i] - 1.0, 0.0) / r[i] * 100) / 100
    support = list(range(n))
    rng.shuffle(support)
    target = _fr(p) + _fr(r[i]) - _fr(base[i]) * _fr(r[i])
    return _solve_exponents(rng, r, target, support, base=base, grid=grid)


def _sublinear_exponents(rng, r, i, p, grid=100):
    """A monomial of degree p with x_i exponent in [1/2, 1): g_i/x_i has no
    positive lower bound, yet does not vanish at either end of the sweep of
    fields.check_omega_condition, which therefore samples all of its bases."""
    n = len(r)
    lo = max(0.5, (r[i] - 1.0) / r[i])
    base = [0.0] * n
    base[i] = float(Fraction(math.ceil(rng.uniform(lo, 0.95) * grid), grid))
    others = [j for j in range(n) if j != i]
    rng.shuffle(others)
    target = _fr(p) + _fr(r[i]) - _fr(base[i]) * _fr(r[i])
    return _solve_exponents(rng, r, target, others, base=base, grid=grid)


def homogeneous_system(rng, n, r, p, cross_terms=2, delayed_terms=2,
                       omega=True, grid=100):
    """Cooperative f and nondecreasing g, homogeneous of degree p under r,
    without the diagonal term of f; returns (f, g) as term lists.  With
    ``omega`` False (n >= 2), no g_i has a term linear in x_i."""
    f = [[] for _ in range(n)]
    g = [[] for _ in range(n)]
    for i in range(n):
        for _ in range(cross_terms if n > 1 else 0):
            f[i].append(_term(_dec(rng.uniform(0.1, 1.0)),
                              _homog_exponents(rng, r, i, p, _cross_support(rng, n, i), grid)))
        lin = _omega_exponents(rng, r, i, p, grid) if omega else None
        if lin is not None:
            g[i].append(_term(_dec(rng.uniform(0.1, 1.0)), lin))
        make = _monotone_exponents if omega else _sublinear_exponents
        while len(g[i]) < delayed_terms:
            g[i].append(_term(_dec(rng.uniform(0.1, 1.0)), make(rng, r, i, p, grid)))
    return f, g


def add_diagonal(f, r, p, d):
    for i, di in enumerate(d):
        f[i].insert(0, _term(-di, _diag_exponent(r, i, p)))
    return f


def _diagonal_for_margins(f, g, r, r_star, p, L, D, xi, targets):
    """Diagonal strengths d_i that put the exact margins at ``targets``,
    given as shares of the size of the other terms of each margin."""
    n = len(r)
    m0, size = ind.margins(ind.Field(f, n), ind.Field(g, n), xi, r, r_star, p, L, D)
    xr = np.asarray(xi) ** np.asarray(r)
    unit = float(r_star) / np.asarray(r) * xr ** (float(p) / np.asarray(r))
    size = np.maximum(size, 0.5)
    return [max(_dec((m0[i] - targets[i] * size[i]) / unit[i], 4), 0.05) for i in range(n)]


# ------------------------------------------------------ reference-1e6 --

class Reference:
    """examples/paper_sec5.json through all five stages, then emit_outputs."""

    name = "reference-1e6"
    max_rounds = 1
    oracle_rel = 1e-3

    def __init__(self, out_root):
        self.out_root = out_root

    def items(self, seed):
        return [Item("paper_sec5", _doc_text(REFERENCE_DOC), {"seed": seed})]

    def prepare(self, M, item):
        return M.pipeline.parse_system(item.text)

    def run(self, M, item, doc):
        report, traj, code = M.pipeline.run_pipeline(doc, STAGES_ALL, seed=item.meta["seed"])
        out_dir = os.path.join(self.out_root, "reference")
        shutil.rmtree(out_dir, ignore_errors=True)
        paths = M.pipeline.emit_outputs(report, traj, out_dir,
                                        mu=M.rates.make_mu(doc.mu_spec))
        return {"report": report, "final": traj.xs[-1].copy(), "code": code,
                "paths": paths}

    def signature(self, value):
        return tuple(value["final"])

    def check(self, item, out):
        if out.error is not None:
            return ["raised %r" % out.error]
        v = out.value
        problems = []
        doc = ind.exact_doc(item.text)
        n = doc["n"]
        F, G = ind.Field(doc["f"], n), ind.Field(doc["g"], n)
        crit = v["report"].criterion
        p, _ = ind.exact_degree(doc["f"], doc["r"])
        s = p / Fraction(doc["r_star"])
        L, D = ind.exact_limits(doc["mu"], doc["delay"], s)
        m, scale = ind.margins(F, G, doc["xi"], doc["r"], doc["r_star"], p, L, D)
        if not _close(crit.margins, m, scale):
            problems.append("margins %s, independent %s" % (list(crit.margins), list(m)))
        if crit.verdict != "STABLE_CERTIFIED" or v["code"] != 0:
            problems.append("verdict %s, exit code %d" % (crit.verdict, v["code"]))
        # x(1e6) from the independent solver, made in this run
        x_ref = ind.reference_x(doc)
        rel = np.abs(v["final"] / x_ref - 1.0)
        if not np.all(rel <= self.oracle_rel):
            problems.append("x(1e6) %s, independent %s" % (list(v["final"]), list(x_ref)))
        problems += self._check_files(doc, v)
        return problems

    def _check_files(self, doc, v):
        problems = []
        paths = {os.path.basename(p): p for p in v["paths"]}
        with open(paths["report.json"]) as fh:
            rep = json.load(fh)
        data = np.loadtxt(paths["trajectory.csv"], delimiter=",", skiprows=1)
        t, x, V = data[:, 0], data[:, 1:-1], data[:, -1]
        r = np.asarray(doc["r"], dtype=float)
        r_star = float(doc["r_star"])
        if not np.array_equal(x[-1], np.asarray(rep["simulation"]["final_state"])) \
                or not np.array_equal(x[-1], v["final"]):
            problems.append("last trajectory.csv row %s is not final_state" % list(x[-1]))
        if np.any(x < 0):
            problems.append("negative state in trajectory.csv")
        # slopes of ln x_j against ln mu(t) over the trailing half of log-time
        lnmu = np.log(ind.mu_value(doc["mu"], t))
        cut = math.exp(0.5 * (math.log(t[0]) + math.log(t[-1])))
        keep = (t >= cut) & np.all(x > 1e-15, axis=1)
        slopes = [np.polyfit(lnmu[keep], np.log(x[keep, j]), 1)[0] for j in range(x.shape[1])]
        bound = -r / r_star + 0.1
        if not np.all(np.asarray(slopes) <= bound):
            problems.append("refit slopes %s above %s" % (slopes, list(bound)))
        # V = mu(t) max_i (x_i^(1/r_i)/xi_i)^r*, and its running sup past burn-in
        xi = np.asarray(doc["xi"], dtype=float)
        V_ind = ind.mu_value(doc["mu"], t) * np.max((x ** (1.0 / r) / xi) ** r_star, axis=1)
        if not np.allclose(V, V_ind, rtol=1e-9, atol=0.0):
            problems.append("V column differs from mu(t) max_i (z_i/xi_i)^r*")
        sup = np.maximum(1.0, np.maximum.accumulate(V_ind))
        k = int(np.searchsorted(t, rep["simulation"]["burn_in"]))
        growth = sup[-1] / sup[k]
        if not growth < 1.01:
            problems.append("V growth %g past burn-in" % growth)
        return problems


# --------------------------------------------------- simulate-families --

SIM_FAMILIES = ("bounded", "proportional", "powerlag", "logfraction", "table")
SIM_PER_FAMILY = 4
# horizons short enough that the rho*t policy, not the stability cap, sets
# nearly every step: the unbounded delays keep the state (and the Jacobian)
# large for longer, so their horizons are shorter
SIM_T_END = {"bounded": 200.0, "proportional": 200.0, "table": 200.0,
             "powerlag": 60.0, "logfraction": 60.0}
SIM_RHO = 1e-2
# relative agreement with the reference solver at the checkpoints: about
# four times the largest change that halving rho made there, 9.3e-3 over
# 600 systems (seeds 0-29, `oracle.py halving`); see README.md
SIM_TOL = 4e-2


def _sim_delay(rng, family):
    if family == "bounded":
        return {"family": "bounded", "tau_max": _dec(rng.uniform(1.0, 3.0))}, 1.0
    if family == "proportional":
        return {"family": "proportional", "q": _dec(rng.uniform(0.3, 0.8))}, 1.0
    if family == "powerlag":
        return {"family": "powerlag", "alpha": _dec(rng.uniform(0.3, 0.8))}, 2.0
    if family == "logfraction":
        return {"family": "logfraction"}, 4.0
    # tau(t) = a + b t/(t + c): bounded, with d(t) = t - tau(t) increasing
    a, b, c = _dec(rng.uniform(0.5, 1.5)), _dec(rng.uniform(0.5, 2.0)), _dec(rng.uniform(20, 100))
    ts = np.geomspace(3.0, TABLE_END, 40)
    ts = [float("%.6g" % t) for t in ts[:-1]] + [TABLE_END]
    taus = [a + b * t / (t + c) for t in ts]
    return {"family": "table", "t": ts, "tau": taus}, 3.0


def _sim_mu(rng, family, p, r_star):
    if family == "powerlag":
        return {"family": "loglog"}
    if family == "logfraction":
        return {"family": "log"}
    # a power gauge below the D threshold, so the rate is certifiable
    return {"family": "power", "beta": _dec(rng.uniform(0.3, 0.9) * r_star / max(p, 0.5))}


class SimulateFamilies:
    """Stable systems, n = 2..6, over every delay family: simulate, then
    lyapunov_monitor, then fit_rate."""

    name = "simulate-families"

    def items(self, seed):
        rng = np.random.default_rng([seed, 2])
        out = []
        for k in range(SIM_PER_FAMILY * len(SIM_FAMILIES)):
            family = SIM_FAMILIES[k % len(SIM_FAMILIES)]
            n = 2 + (k + k // len(SIM_FAMILIES)) % 5
            r = [float(rng.choice(R_CHOICES)) for _ in range(n)]
            p = _dec(rng.uniform(0.5, 2.0), 1)
            f, g = homogeneous_system(rng, n, r, p, cross_terms=3, delayed_terms=2)
            # diagonal dominance at xi = 1: f_i(1) + g_i(1) < 0
            d = [_dec(sum(t["c"] for t in f[i] + g[i]) + 1.0) for i in range(n)]
            f = add_diagonal(f, r, p, d)
            delay, t_start = _sim_delay(rng, family)
            t_end = SIM_T_END[family]
            r_star = max(r)
            doc = {
                "n": n, "f": f, "g": g, "r": r, "delay": delay,
                "mu": _sim_mu(rng, family, p, r_star),
                "xi": [1.0] * n, "r_star": r_star,
                "history": {"phi0": [_dec(rng.uniform(0.5, 2.0)) for _ in range(n)]},
                "sim": {"t_start": t_start, "t_end": t_end, "rho": SIM_RHO},
            }
            span = t_end - t_start
            checkpoints = tuple(t_start + span * u for u in (0.05, 0.2, 0.5, 1.0))
            out.append(Item("%s-n%d-%d" % (family, n, k), _doc_text(doc),
                            {"checkpoints": checkpoints}))
        return out

    def prepare(self, M, item):
        doc = M.pipeline.parse_system(item.text)
        cfg = M.dde.SimConfig(t_start=doc.sim["t_start"], t_end=doc.sim["t_end"],
                              rho=doc.sim["rho"])
        return (doc, M.rates.make_delay(doc.delay_spec), M.rates.make_mu(doc.mu_spec),
                M.dde.HistorySpec(doc.phi0), cfg)

    def run(self, M, item, ready):
        doc, delay, mu, history, cfg = ready
        traj = M.dde.simulate(doc.f, doc.g, delay, history, cfg)
        # without the transformed fields the monitor takes burn-in at the
        # first node: its per-node search for a burn-in time would cost
        # 0 to 150 ms depending on the seed (reference-1e6 runs it)
        mon = M.dde.lyapunov_monitor(traj, mu, doc.xi, doc.r, doc.r_star)
        slopes, _ = M.dde.fit_rate(traj, mu)
        return {"at": np.array([traj.sample(t) for t in item.meta["checkpoints"]]),
                "min": float(traj.xs.min()), "growth": mon.growth_ratio,
                "slopes": slopes}

    def signature(self, value):
        return tuple(value["at"].ravel())

    def check(self, item, out):
        if out.error is not None:
            return ["raised %r" % out.error]
        v = out.value
        problems = []
        if not v["min"] >= 0.0:
            problems.append("negative state %g" % v["min"])
        doc = json.loads(item.text)
        sol = ind.solve_document(doc)
        ref = np.array([sol(t) for t in item.meta["checkpoints"]])
        gap = np.max(np.abs(v["at"] - ref) / np.abs(ref))
        if not gap <= SIM_TOL:
            problems.append("relative gap %.3g to the reference solver" % gap)
        if not np.all(np.isfinite(v["slopes"])) or not math.isfinite(v["growth"]):
            problems.append("monitor or fit not finite")
        return problems


# ------------------------------------------------------- certify-sweep --

MU_FAMILIES = ("exp", "power", "log", "loglog", "table")
DELAY_FAMILIES = ("bounded", "proportional", "logfraction", "powerlag", "table")
# (kind, count) of the documents of one family pair
CERTIFY_KINDS = (("good", 5), ("weights", 2), ("mixed-f", 2), ("mixed-g", 1), ("no-omega", 2))
# the pairs with a closed-form limit pair inside mustab (criterion._analytic_*)
ANALYTIC_PAIRS = {("exp", "bounded"), ("exp", "proportional"), ("power", "bounded"),
                  ("power", "proportional"), ("log", "bounded"), ("log", "proportional"),
                  ("log", "logfraction"), ("loglog", "bounded"), ("loglog", "proportional"),
                  ("loglog", "powerlag")}
LFAC_MAX = 50.0

# documents that fail because of a fault in mustab, the same in every run
FAULT_DOCS = {
    # exactly beta*p/r* = 1, so D = beta = 5 and the margin is +4.01; in
    # floats p = 0.2999999999999998 and criterion._analytic_D takes D = 0
    "float-threshold": {
        "n": 1, "f": [[{"c": -1.0, "e": [1.2]}]], "g": [[{"c": 0.01, "e": [1.2]}]],
        "r": [1.5], "mu": {"family": "power", "beta": 5}, "delay": {"family": "bounded", "tau_max": 1},
        "history": {"phi0": [1.0]},
    },
    # criterion._ratio_samples probes at exp(log(1e5)) > 1e5, beyond the table
    "table-end-rounding": {
        "n": 1, "f": [[{"c": -2.0, "e": [1.0]}]], "g": [[{"c": 0.5, "e": [1.0]}]],
        "r": [1.0], "mu": {"family": "log"},
        "delay": {"family": "table", "t": [3.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0],
                  "tau": [1.0, 1.0, 1.0, 1.0, 1.0, 1.0]},
        "history": {"phi0": [1.0]},
    },
    # no delayed term: fields.homogeneity_degree raises FieldError on g
    "empty-g": {
        "n": 1, "f": [[{"c": -1.0, "e": [2.0]}]], "g": [[]],
        "r": [1.0], "mu": {"family": "log"}, "delay": {"family": "bounded", "tau_max": 1.0},
        "history": {"phi0": [1.0]},
    },
}


def _table_mu(rng, delay_family):
    """A tabulated gauge sampled from a closed form on [10, 1e6]; the closed
    form (whose limits are exact) is returned alongside.  Power-generated
    tables are paired only with delays whose ratio limit is finite."""
    if delay_family in ("bounded", "proportional", "table") and rng.random() < 0.6:
        gen = {"family": "power", "beta": _dec(rng.uniform(0.3, 3.0))}
    else:
        gen = {"family": "log"}
    ts = np.geomspace(10.0, TABLE_END, 25)
    ts = [float("%.6g" % t) for t in ts[:-1]] + [TABLE_END]
    vals = ind.mu_value(gen, np.asarray(ts))
    return {"family": "table", "t": ts, "mu": [float(v) for v in vals]}, gen


def _table_delay(rng):
    if rng.random() < 0.5:
        gen = {"family": "bounded", "tau_max": _dec(rng.uniform(0.5, 2.5))}
    else:
        gen = {"family": "proportional", "q": _dec(rng.uniform(0.3, 0.9))}
    t0 = _dec(rng.uniform(3.0, 10.0), 1)
    ts = np.geomspace(t0, TABLE_END, 25)
    ts = [float("%.6g" % t) for t in ts[:-1]] + [TABLE_END]
    if gen["family"] == "bounded":
        taus = [gen["tau_max"]] * len(ts)
    else:
        taus = [(1.0 - gen["q"]) * t for t in ts]
    return {"family": "table", "t": ts, "tau": taus}, gen


def _param_mu(rng, family):
    if family == "exp":
        return {"family": "exp", "eps": _dec(rng.uniform(0.05, 0.5))}
    if family == "power":
        return {"family": "power", "beta": _dec(rng.uniform(0.3, 3.0))}
    return {"family": family}


def _param_delay(rng, family):
    if family == "bounded":
        return {"family": "bounded", "tau_max": _dec(rng.uniform(0.5, 5.0))}
    if family == "proportional":
        return {"family": "proportional", "q": _dec(rng.uniform(0.1, 0.9))}
    if family == "powerlag":
        return {"family": "powerlag", "alpha": _dec(rng.uniform(0.2, 0.8))}
    return {"family": "logfraction"}


def _pick_degree(rng, mu_gen, delay_gen, r_star):
    """A degree p (two decimals) whose D classification is clear: beta*p/r*
    at least 0.1 away from 1.  For power gauges whose delayed-ratio limit
    is infinite, beta*p/r* > 1 (D = inf), which leaves out mustab's finite
    estimates of that limit (see CHANGES.md).  None when the draws miss."""
    fam = mu_gen["family"]
    for _ in range(20):
        p = _dec(rng.uniform(0.0, 2.5))
        if fam != "power":
            return p
        bs = mu_gen["beta"] * p / r_star
        infinite_L = delay_gen["family"] in ("logfraction", "powerlag")
        if (bs > 1.1) if infinite_L else abs(bs - 1.0) >= 0.1:
            return p
    return None


class CertifySweep:
    """A few hundred documents over every (mu, delay) family pair:
    parse_system, run_pipeline(check, transform, criterion), then search_xi
    when the margins at the given xi are not all negative."""

    name = "certify-sweep"

    def items(self, seed):
        rng = np.random.default_rng([seed, 3])
        out = []
        for mf in MU_FAMILIES:
            for df in DELAY_FAMILIES:
                for kind, count in CERTIFY_KINDS:
                    for j in range(count):
                        out.append(self._make(rng, mf, df, kind, len(out), j))
        order = rng.permutation(len(out))
        out = [out[k] for k in order]
        for name, doc in FAULT_DOCS.items():
            out.append(Item(name, _doc_text(doc), {"fault": True}, expect_fail=name))
        return out

    def _make(self, rng, mf, df, kind, k, j):
        # n by slot, so that every seed has the same mix of sizes
        n = 2 + k % 3 if kind in ("mixed-f", "mixed-g", "no-omega") else 1 + k % 4
        while True:
            if df == "table":
                delay, delay_gen = _table_delay(rng)
            else:
                delay = delay_gen = _param_delay(rng, df)
            if mf == "table":
                mu, mu_gen = _table_mu(rng, delay_gen["family"])
            else:
                mu = mu_gen = _param_mu(rng, mf)
            # degree 0 with an exp gauge: exponents exact in binary, since
            # criterion._analytic_D tests s == 0 on a float p (the fault
            # of FAULT_DOCS["float-threshold"]; see CHANGES.md)
            exact0 = mu_gen["family"] == "exp" and j % 2 == 0
            grid = 8 if exact0 else 100
            r = [float(rng.choice(R_DYADIC if exact0 else R_CHOICES)) for _ in range(n)]
            r_star = max(r)
            p = 0.0 if exact0 else _pick_degree(rng, mu_gen, delay_gen, r_star)
            if p is None:
                continue
            L, D = ind.exact_limits(mu_gen, delay_gen, _fr(p) / _fr(r_star))
            # keep the delayed term's factor L^((p+1)/r*) moderate, so that
            # margins are not differences of huge numbers
            if not math.isfinite(L) or L ** ((p + 1.0) / r_star) <= LFAC_MAX:
                break
        f, g = homogeneous_system(rng, n, r, p, omega=(kind != "no-omega"), grid=grid)
        xi_star = [1.0] * n
        if kind == "weights":
            xi_star = [_dec(rng.uniform(0.5, 2.0)) for _ in range(n)]
        # margins at +-(0.2..0.6) of the size of their other terms: far
        # enough from 0 that an estimated L within a few percent of the
        # closed form cannot flip their sign
        targets = [-rng.uniform(0.2, 0.6) for _ in range(n)]
        # one good document in three is not certifiable at the given xi
        if kind == "good" and j % 3 == 2:
            targets[int(rng.integers(n))] = rng.uniform(0.2, 0.6)
        if math.isfinite(L) and math.isfinite(D):
            d = _diagonal_for_margins(f, g, r, r_star, p, L, D, xi_star, targets)
        else:
            d = [_dec(rng.uniform(1.0, 5.0)) for _ in range(n)]
        f = add_diagonal(f, r, p, d)
        xi = list(xi_star)
        if kind == "weights":
            xi[int(rng.integers(n))] *= 8.0
        if kind == "mixed-f":
            # a negative term that depends on another coordinate: the
            # symbolic cooperativity rule fails, sampling takes over
            i = int(rng.integers(n))
            support = _cross_support(rng, n, i)
            f[i].append(_term(-_dec(rng.uniform(0.05, 0.5)),
                              _homog_exponents(rng, r, i, p, support, grid)))
        if kind == "mixed-g":
            # g_i = c1 x_i^((p+r_i)/r_i) - c2 x^a with a on the other
            # coordinates only: dg_i/dx_j < 0 at every point
            i = int(rng.integers(n))
            others = [j for j in range(n) if j != i]
            g[i] = [_term(_dec(rng.uniform(0.1, 1.0)), _diag_exponent(r, i, p)),
                    _term(-_dec(rng.uniform(0.05, 0.5)),
                          _homog_exponents(rng, r, i, p, others, grid))]
        doc = {
            "n": n, "f": f, "g": g, "r": r, "delay": delay, "mu": mu,
            "xi": xi, "r_star": r_star, "history": {"phi0": [1.0] * n},
        }
        meta = {"kind": kind, "p": p, "mu_gen": mu_gen, "delay_gen": delay_gen,
                "analytic_pair": (mf, df) in ANALYTIC_PAIRS}
        return Item("%s-%s-%s-%d" % (mf, df, kind, k), _doc_text(doc), meta)

    def prepare(self, M, item):
        M.pipeline.parse_system(item.text)
        return None

    def run(self, M, item, ready):
        doc = M.pipeline.parse_system(item.text)
        report, _, code = M.pipeline.run_pipeline(doc, STAGES_CERTIFY)
        crit, tsys = report.criterion, report.transformed
        found = None
        if crit is not None and not np.all(np.asarray(crit.margins) < 0):
            found, _, _ = M.criterion.search_xi(tsys.fbar, tsys.gbar, doc.r, doc.r_star,
                                                tsys.p, crit.limits)
        return {"report": report, "code": code, "found": found}

    def signature(self, value):
        crit = value["report"].criterion
        found = None if value["found"] is None else tuple(value["found"])
        return (None if crit is None else (crit.verdict, tuple(crit.margins)), found)

    def check(self, item, out):
        if out.error is not None:
            return ["raised %s: %s" % (type(out.error).__name__, out.error)]
        v = out.value
        report = v["report"]
        crit = report.criterion
        doc = ind.exact_doc(item.text)
        n = doc["n"]
        F, G = ind.Field(doc["f"], n), ind.Field(doc["g"], n)
        p, homogeneous = ind.exact_degree(doc["f"], doc["r"])
        pg, _ = ind.exact_degree(doc["g"], doc["r"])
        if p is None:
            p = pg
        problems = []
        if crit is None:
            return ["no criterion report"]
        if not abs(crit.p - float(p)) <= 1e-9:
            problems.append("p = %r, constructed %s" % (crit.p, p))
        r_star = doc.get("r_star", max(doc["r"]))
        xi = doc.get("xi", [1] * n)
        mu_gen = item.meta.get("mu_gen", doc["mu"])
        delay_gen = item.meta.get("delay_gen", doc["delay"])
        L, D = ind.exact_limits(mu_gen, delay_gen, p / Fraction(r_star))
        lim = crit.limits
        # the margin formula, with mustab's own limit pair
        m_own, scale = ind.margins(F, G, xi, doc["r"], r_star, p, lim.L, lim.D)
        if not _close(crit.margins, m_own, scale):
            problems.append("margins %s, independent %s" % (list(crit.margins), list(m_own)))
        if lim.method == "analytic" and not (_same(lim.L, L) and _same(lim.D, D)):
            problems.append("analytic (L, D) = (%r, %r), closed form (%r, %r)" % (lim.L, lim.D, L, D))
        # a converged estimate against a finite closed form (mustab's finite
        # estimates of infinite limits are a FOUND line in CHANGES.md)
        if (lim.method != "analytic" and lim.converged and math.isfinite(L)
                and not (_near(lim.L, L) and _same_class(lim.D, D))):
            problems.append("estimated (L, D) = (%r, %r), closed form (%r, %r)" % (lim.L, lim.D, L, D))
        exact, exact_size = ind.margins(F, G, xi, doc["r"], r_star, p, L, D)
        certified = crit.verdict == "STABLE_CERTIFIED"
        if certified and not np.all(exact < 0):
            problems.append("STABLE_CERTIFIED with exact margins %s" % list(exact))
        symbolic = item.meta.get("kind") in ("good", "weights", "no-omega")
        if (symbolic and item.meta.get("analytic_pair")
                and np.all(exact < -0.05 * exact_size) and not certified):
            problems.append("clearly negative margins %s not certified" % list(exact))
        if v["found"] is not None:
            # judged by the closed form, unless mustab's estimate did not
            # converge: then search_xi is held to the pair it was given
            held = (L, D) if lim.method == "analytic" or lim.converged else (lim.L, lim.D)
            m_found, _ = ind.margins(F, G, v["found"], doc["r"], r_star, p, *held)
            if not np.all(m_found < 0):
                problems.append("search_xi returned %s with exact margins %s"
                                % (list(v["found"]), list(m_found)))
        return problems


def _close(a, b, scale):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    with np.errstate(invalid="ignore"):
        near = np.abs(a - b) <= 1e-12 * np.maximum(1.0, scale)
    return bool(np.all(both_inf | near))


def _same(a, b):
    return a == b or (math.isfinite(b) and abs(a - b) <= 1e-12 * max(1.0, abs(b)))


def _near(a, b, rel=0.05):
    return a == b or (math.isfinite(a) and math.isfinite(b) and abs(a - b) <= rel * abs(b))


def _same_class(a, b):
    """Estimated D against the closed form: 0, finite and infinite agree."""
    return (a == 0) == (b == 0) and math.isinf(a) == math.isinf(b) and (
        math.isinf(a) or a == 0 or _near(a, b))


# --------------------------------------------------------- lemma-suite --

LEMMA_ITEMS = 120
LEMMA_TRIALS = 40
# (kind, share) of the systems of one round; "good" meet every hypothesis
LEMMA_KINDS = ("good",) * 8 + ("wrong-degree", "non-cooperative", "decreasing-g", "non-homogeneous")


class LemmaSuite:
    """Homogeneous systems, n = 1..6: homogeneity_degree, the three
    structure checks, verify_lemma1 on f and g, verify_lemma2, verify_lemma3."""

    name = "lemma-suite"

    def items(self, seed):
        rng = np.random.default_rng([seed, 4])
        out = []
        for k in range(LEMMA_ITEMS):
            kind = LEMMA_KINDS[k % len(LEMMA_KINDS)]
            n = 1 + k % 6
            if kind == "non-cooperative" and n == 1:
                n = 2
            r = [float(rng.choice(R_CHOICES)) for _ in range(n)]
            p = _dec(rng.uniform(0.0, 2.5))
            f, g = homogeneous_system(rng, n, r, p, cross_terms=2, delayed_terms=2)
            f = add_diagonal(f, r, p, [_dec(rng.uniform(1.0, 5.0)) for _ in range(n)])
            claim = p
            if kind == "wrong-degree":
                claim = _dec(p + rng.uniform(0.3, 1.0))
            elif kind == "non-cooperative":
                # every cross term negative: each fbar_i decreases in the others
                for terms in f:
                    for t in terms[1:]:
                        t["c"] = -t["c"]
            elif kind == "decreasing-g":
                for terms in g:
                    terms[-1]["c"] = -terms[-1]["c"]
            elif kind == "non-homogeneous":
                f[0].append(_term(0.5, [float(v) + 0.5 for v in _diag_exponent(r, 0, p)]))
            doc = {"n": n, "f": f, "g": g, "r": r}
            out.append(Item("%s-n%d-%d" % (kind, n, k), _doc_text(doc),
                            {"kind": kind, "p": p, "claim": claim, "rng": [seed, 4, k]}))
        return out

    def prepare(self, M, item):
        doc = json.loads(item.text)
        n = doc["n"]
        f = M.fields.PolyMap(n, [[(t["c"], t["e"]) for t in c] for c in doc["f"]])
        g = M.fields.PolyMap(n, [[(t["c"], t["e"]) for t in c] for c in doc["g"]])
        return f, g, M.fields.DilationMap(tuple(doc["r"]))

    def run(self, M, item, ready):
        f, g, r = ready
        fl, tr = M.fields, M.transform
        rng = np.random.default_rng(item.meta["rng"])
        claim = item.meta["claim"]
        out = {
            "p_f": fl.homogeneity_degree(f, r),
            "p_g": fl.homogeneity_degree(g, r),
            "coop": fl.check_cooperative(f, rng=rng).status,
            "nondec": fl.check_nondecreasing(g, rng=rng).status,
        }
        omega = {i: fl.check_omega_condition(g, i, rng=rng) for i in range(f.n)}
        out["omega"] = {i: v.status for i, v in omega.items()}
        out["lemma1_f"] = tr.verify_lemma1(f, r, claim, trials=LEMMA_TRIALS, rng=rng).passed
        out["lemma1_g"] = tr.verify_lemma1(g, r, claim, trials=LEMMA_TRIALS, rng=rng).passed
        out["lemma2"] = tr.verify_lemma2(f, r, trials=LEMMA_TRIALS, rng=rng).passed
        out["lemma3"] = tr.verify_lemma3(g, r, omega, trials=LEMMA_TRIALS, rng=rng).passed
        return out

    def signature(self, value):
        return json.dumps(value, sort_keys=True, default=repr)

    def check(self, item, out):
        if out.error is not None:
            return ["raised %r" % out.error]
        v = out.value
        kind = item.meta["kind"]
        doc = ind.exact_doc(item.text)
        p_exact, homogeneous = ind.exact_degree(doc["f"], doc["r"])
        problems = []

        def want(cond, what):
            if not cond:
                problems.append("%s: %s" % (kind, what))

        if homogeneous:
            want(isinstance(v["p_f"], float) and abs(v["p_f"] - float(p_exact)) <= 1e-9,
                 "degree of f %r, exact %s" % (v["p_f"], p_exact))
        else:
            want(not isinstance(v["p_f"], float), "non-homogeneous f given degree %r" % (v["p_f"],))
        if kind == "good":
            want(v["coop"] == "certified" and v["nondec"] == "certified", "structure not certified")
            want(v["lemma1_f"] and v["lemma1_g"] and v["lemma2"] and v["lemma3"],
                 "a lemma refuted a system that meets its hypotheses")
        elif kind == "wrong-degree":
            want(not v["lemma1_f"] and not v["lemma1_g"], "lemma 1 passed at the wrong degree")
        elif kind == "non-cooperative":
            want(v["coop"] == "refuted", "cooperativity %s" % v["coop"])
            want(not v["lemma2"], "lemma 2 passed a field that decreases in the others")
        elif kind == "decreasing-g":
            want(v["nondec"] == "refuted", "monotonicity %s" % v["nondec"])
        elif kind == "non-homogeneous":
            want(not v["lemma1_f"], "lemma 1 passed a non-homogeneous f")
        return problems


WORKLOADS = {w.name: w for w in (Reference, SimulateFamilies, CertifySweep, LemmaSuite)}
