"""File-driven analysis pipeline: parse a system document, run the
requested stages (check, transform, criterion, simulate, fit) and emit
machine-readable reports plus plot data.

The input document is a single JSON object carrying the system and all
analysis settings, so a report is reproducible from the file alone.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

# CPython's own SHA-256, which loads no shared library, in place of
# OpenSSL's, whose libcrypto adds about 3.6 MB to a run's peak memory
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10 and 3.11
    except ImportError:
        # a CPython built without its own hashes has only OpenSSL's
        from hashlib import sha256

import numpy as np

from . import __version__
from .criterion import (
    STABLE_CERTIFIED,
    CriterionReport,
    burn_in_node,
    compute_limits,
    evaluate_criterion,
)
from .dde import (
    HistorySpec,
    MonitorReport,
    SimConfig,
    export_csv,
    fit_rate,
    lyapunov_monitor,
    simulate,
    write_csv,
)
from .fields import (
    CERTIFIED,
    DilationMap,
    NOT_HOMOGENEOUS,
    PolyMap,
    StructureReport,
    check_cooperative,
    check_nondecreasing,
    check_omega_condition,
    homogeneity_degree,
)
from .rates import DelayFunction, MuFunction, make_delay, make_mu
from .transform import TransformedSystem, build_transformed_system

STAGES = ("check", "transform", "criterion", "simulate", "fit")
_DEPS = {"criterion": "transform", "fit": "simulate"}


class DocumentError(ValueError):
    """Schema violation; the message names the offending field."""


def _require(cond, path, msg):
    if not cond:
        raise DocumentError("%s: %s" % (path, msg))


# the least integer that float() rounds to inf, not to the largest float
_FLOAT_END = 2 ** 1024 - 2 ** 970


def _finite(v):
    """A JSON number that is a finite float: json reads 1e400 as inf and
    NaN as nan, an integer too large for a float would overflow, and true
    and false, which Python takes for the integers 1 and 0, are not numbers."""
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:
        return False


def _known(obj, keys, path):
    """Reject a key the schema does not have: a misspelt setting would
    otherwise be replaced by its default without a word."""
    for key in obj:
        _require(key in keys, path, "unknown key %r" % key)


def _term_fault(term, n):
    """The first fault of a document term as (suffix of its path, message),
    or None for a good term."""
    if not (isinstance(term, dict) and "c" in term and "e" in term):
        return "", 'expected {"c": coeff, "e": [exponents]}'
    if len(term) != 2:
        return "", "unknown key %r" % next(key for key in term if key not in ("c", "e"))
    e, c = term["e"], term["c"]
    if not (isinstance(e, list) and len(e) == n):
        return ".e", "expected %d exponents" % n
    # the values of _finite(v) and v >= 0, in one comparison each: json
    # makes no bool an int or a float, and compares an int exactly
    if not all(type(v) in (int, float) and 0 <= v < _FLOAT_END for v in e):
        return ".e", "exponents must be finite nonnegative numbers"
    if not (_finite(c) and c != 0):
        return ".c", "coefficient must be a finite nonzero number"
    return None


def _parse_polymap(obj, n, path):
    _require(isinstance(obj, list) and len(obj) == n, path,
             "expected a list of %d component term lists" % n)
    comps = []
    for i, terms in enumerate(obj):
        if not isinstance(terms, list):
            raise DocumentError("%s[%d]: expected a list of terms" % (path, i))
        for k, term in enumerate(terms):
            fault = _term_fault(term, n)
            if fault:
                raise DocumentError("%s[%d][%d]%s: %s" % (path, i, k, *fault))
        comps.append([(term["c"], term["e"]) for term in terms])
    return PolyMap(n, comps)


@dataclass
class SystemDocument:
    n: int
    f: PolyMap
    g: PolyMap
    r: DilationMap
    delay_spec: dict
    mu_spec: dict
    # built from the specs when the document is parsed, and reused
    delay: DelayFunction
    mu: MuFunction
    phi0: np.ndarray
    xi: np.ndarray
    r_star: float
    # the first 16 hex digits of the SHA-256 of the document's text
    config_hash: str
    sim: dict = field(default_factory=dict)

    @property
    def t_start(self):
        """sim.t_start, by default where the delay's domain starts (at
        least 0)."""
        return float(self.sim.get("t_start", max(self.delay.t_min, 0.0)))


def _check_time_range(doc):
    """The simulation's time range against the order of its ends and the
    domains of the delay and the gauge, named by the field at fault: the
    delay is evaluated on [t_start, t_end], the gauge on the same range."""
    t_start, t_end = doc.t_start, float(doc.sim["t_end"])
    delay, mu = doc.delay, doc.mu
    _require(t_start < t_end, "sim.t_end", "must be above t_start = %g" % t_start)
    _require(t_start >= delay.t_min, "sim.t_start", "%s delay is valid on [%g, %g]"
             % (delay.family, delay.t_min, delay.t_max))
    _require(t_end <= delay.t_max, "sim.t_end", "%s delay is valid on [%g, %g]"
             % (delay.family, delay.t_min, delay.t_max))
    _require(t_end <= mu.t_max, "sim.t_end", "%s mu is valid up to %g" % (mu.family, mu.t_max))


def parse_system(text: str) -> SystemDocument:
    """Parse and validate a system document, rejecting keys the schema
    does not have; applies defaults (xi = ones, r_star = max r_i,
    simulation step policy), builds the delay and the gauge, and checks
    the simulation's time range against their domains."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise DocumentError("document: invalid JSON (%s)" % e) from None
    _require(isinstance(obj, dict), "document", "top level must be an object")
    _known(obj, ("n", "f", "g", "r", "delay", "mu", "xi", "r_star", "history", "sim"),
           "document")
    _require(isinstance(obj.get("n"), int) and not isinstance(obj["n"], bool)
             and obj["n"] >= 1, "n", "expected a positive integer")
    n = obj["n"]
    f = _parse_polymap(obj.get("f"), n, "f")
    g = _parse_polymap(obj.get("g"), n, "g")
    _require(isinstance(obj.get("r"), list) and len(obj["r"]) == n, "r",
             "expected %d dilation weights" % n)
    _require(all(_finite(v) and v > 0 for v in obj["r"]), "r",
             "weights must be finite positive numbers")
    r = DilationMap(tuple(obj["r"]))
    _require(isinstance(obj.get("delay"), dict), "delay", "expected an object")
    _require(isinstance(obj.get("mu"), dict), "mu", "expected an object")
    try:
        delay = make_delay(obj["delay"])
    except Exception as e:
        raise DocumentError("delay: %s" % e) from None
    try:
        mu = make_mu(obj["mu"])
    except Exception as e:
        raise DocumentError("mu: %s" % e) from None
    hist = obj.get("history")
    _require(isinstance(hist, dict), "history", "expected an object")
    _known(hist, ("phi0",), "history")
    _require(isinstance(hist.get("phi0"), list) and len(hist["phi0"]) == n,
             "history.phi0", "expected %d nonnegative values" % n)
    _require(all(_finite(v) and v >= 0 for v in hist["phi0"]),
             "history.phi0", "values must be finite and nonnegative")
    xi = obj.get("xi", [1.0] * n)
    _require(isinstance(xi, list) and len(xi) == n
             and all(_finite(v) and v > 0 for v in xi),
             "xi", "expected %d finite positive values" % n)
    r_star = obj.get("r_star", max(obj["r"]))
    _require(_finite(r_star) and r_star > 0, "r_star",
             "expected a finite positive number")
    sim = obj.get("sim", {})
    _require(isinstance(sim, dict), "sim", "expected an object")
    if sim:
        _known(sim, ("t_start", "t_end", "rho", "h_min"), "sim")
        _require(_finite(sim.get("t_end")), "sim.t_end", "expected a finite number")
        for key in ("t_start", "rho", "h_min"):
            if key in sim:
                _require(_finite(sim[key]) and sim[key] > 0,
                         "sim.%s" % key, "expected a finite positive number")
    doc = SystemDocument(
        n=n, f=f, g=g, r=r,
        delay_spec=obj["delay"], mu_spec=obj["mu"], delay=delay, mu=mu,
        phi0=np.asarray(hist["phi0"], dtype=float),
        xi=np.asarray(xi, dtype=float),
        r_star=float(r_star),
        config_hash=sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16],
        sim=dict(sim),
    )
    if sim:
        _check_time_range(doc)
    return doc


@dataclass
class RunReport:
    structure: StructureReport = None
    transformed: TransformedSystem = None
    criterion: CriterionReport = None
    simulation: dict = None
    monitor: MonitorReport = None
    provenance: dict = None
    stage_pass: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "structure": self.structure.to_dict() if self.structure else None,
            "transform": self.transformed.to_dict() if self.transformed else None,
            "criterion": self.criterion.to_dict() if self.criterion else None,
            "simulation": self.simulation,
            "provenance": self.provenance,
            "stage_pass": self.stage_pass,
            "notes": self.notes,
        }


class _LazyRng:
    """np.random.default_rng(seed), made when a sampled check first draws
    and serving every later draw: a run whose checks are all symbolic
    never imports numpy.random."""

    def __init__(self, seed):
        self.seed, self.rng = seed, None

    def uniform(self, *args, **kwargs):
        if self.rng is None:
            self.rng = np.random.default_rng(self.seed)
        return self.rng.uniform(*args, **kwargs)


def run_pipeline(doc: SystemDocument, stages, seed=0):
    """Execute the requested stages in order.

    Returns (report, trajectory, exit_code); exit code 0 when every
    requested verdict is certified/passed, 1 otherwise.  Stage dependency
    violations and a seed that is not a nonnegative integer raise
    DocumentError (exit code 2 at the CLI).  The sampled structure checks
    draw, in order, from one generator of the seed.
    """
    stages = set(stages)
    unknown = stages - set(STAGES)
    if unknown:
        raise DocumentError("stages: unknown %s" % sorted(unknown))
    for stage, dep in _DEPS.items():
        if stage in stages and dep not in stages:
            raise DocumentError("stages: %r requires %r" % (stage, dep))
    # the generator is made at the first draw, if any, so its own check of
    # the seed would come late or never
    _require(isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
             and seed >= 0, "seed", "expected a nonnegative integer, got %r" % (seed,))

    rng = _LazyRng(seed)
    report = RunReport()
    report.provenance = {
        "tool": "mustab",
        "version": __version__,
        "seed": int(seed),
        "config_hash": doc.config_hash,
    }
    traj = None
    delay, mu = doc.delay, doc.mu

    p_f = p_g = None
    hom_ok = False
    if "check" in stages or "transform" in stages:
        if doc.f.is_zero():
            raise DocumentError("f: the zero map has no homogeneity degree")
        structure = StructureReport()
        structure.cooperative = check_cooperative(doc.f, rng=rng)
        structure.nondecreasing = check_nondecreasing(doc.g, rng=rng)
        p_f = homogeneity_degree(doc.f, doc.r)
        # the zero map is homogeneous of every degree, so a system without
        # a delayed term takes the degree of f
        p_g = p_f if doc.g.is_zero() else homogeneity_degree(doc.g, doc.r)
        structure.homogeneity_f = p_f
        structure.homogeneity_g = p_g
        for i in range(doc.n):
            structure.omega[i] = check_omega_condition(doc.g, i, rng=rng)
        report.structure = structure
        hom_ok = (
            isinstance(p_f, float) and isinstance(p_g, float)
            and abs(p_f - p_g) <= 1e-9
        )
        report.stage_pass["check"] = bool(
            structure.cooperative.certified
            and structure.nondecreasing.certified
            and hom_ok
        )
        if not hom_ok:
            report.notes.append(
                "f/g are not homogeneous of one shared degree: %r vs %r" % (p_f, p_g)
            )

    tsys = None
    if "transform" in stages:
        if isinstance(p_f, float):
            tsys = build_transformed_system(doc.f, doc.g, doc.r, p_f)
            report.transformed = tsys
            report.stage_pass["transform"] = True
        else:
            report.stage_pass["transform"] = False
            report.notes.append("transform skipped: f is not r-homogeneous")

    if "criterion" in stages:
        if tsys is not None:
            if not report.stage_pass.get("check", False):
                report.notes.append("criterion evaluated without full structure certificates")
            limits = compute_limits(mu, delay, tsys.p, doc.r_star)
            if not limits.converged:
                tables = " and ".join(k for k, v in (("mu", mu), ("delay", delay))
                                      if v.family == "table")
                report.notes.append("limits undetermined: a table (%s) fixes no limit "
                                    "as t -> inf, and only closed forms are taken" % tables)
            flags = {}
            if report.structure:
                flags["structure:cooperative"] = report.structure.cooperative.status
                flags["structure:nondecreasing"] = report.structure.nondecreasing.status
                flags["structure:homogeneous"] = CERTIFIED if hom_ok else NOT_HOMOGENEOUS
                for i, v in report.structure.omega.items():
                    flags["omega:g[%d]" % i] = v.status
            for i in tsys.gbar_flags:
                flags["gbar-negative-exponent:%d" % i] = "flagged"
            report.criterion = evaluate_criterion(
                tsys.fbar, tsys.gbar, doc.xi, doc.r, doc.r_star, tsys.p,
                limits, hypothesis_flags=flags,
            )
        report.stage_pass["criterion"] = (report.criterion is not None
                                          and report.criterion.verdict == STABLE_CERTIFIED)

    if "simulate" in stages:
        sim = doc.sim
        if not sim:
            raise DocumentError("sim: simulation requested but no sim config present")
        # SimConfig holds the defaults of the keys the document leaves out
        cfg = SimConfig(doc.t_start, float(sim["t_end"]),
                        **{k: float(sim[k]) for k in ("rho", "h_min") if k in sim})
        history = HistorySpec(doc.phi0)
        traj = simulate(doc.f, doc.g, delay, history, cfg)
        burn_in = 0 if tsys is None else burn_in_node(
            traj.ts, mu, delay, tsys.fbar, tsys.gbar, doc.xi, doc.r, doc.r_star, tsys.p)
        monitor = lyapunov_monitor(traj, mu, doc.xi, doc.r, doc.r_star, burn_in)
        report.simulation = {
            "t_end": float(traj.ts[-1]),
            "final_state": traj.xs[-1].tolist(),
            "v_growth_ratio": monitor.growth_ratio,
            "burn_in": monitor.burn_in,
            "monitor": monitor.to_dict(),
            "extrapolation_flagged": traj.extrapolation_flagged,
            "steps": len(traj.ts) - 1,
            "lengthened_steps": traj.lengthened_steps,
            "rejected": traj.rejected,
        }
        report.stage_pass["simulate"] = True
        report.monitor = monitor

    if "fit" in stages:
        slopes, intercepts = fit_rate(traj, mu)
        report.simulation["slopes"] = slopes.tolist()
        report.simulation["intercepts"] = intercepts.tolist()
        with np.errstate(over="ignore"):
            # -inf where r_j / r_star overflows: no slope is below it
            bound = -np.asarray(doc.r.r) / doc.r_star + 0.1
        report.stage_pass["fit"] = bool(np.all(slopes <= bound))

    code = 0 if all(report.stage_pass.get(s, True) for s in stages) else 1
    return report, traj, code


def _strict(obj):
    """obj with numpy arrays and scalars made lists and Python numbers, at
    any depth, and every non-finite float written as "inf", "-inf" or
    "nan", which RFC 8259 JSON can hold."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj


def emit_outputs(report: RunReport, traj, out_dir, mu=None):
    """Write report.json, trajectory.csv and rateplot.csv into out_dir.

    rateplot.csv holds ln mu(t) against ln x_j(t) restricted to strictly
    positive states, i.e. the data of a decay-rate plot.  A file that
    cannot be written raises OSError.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    rpath = os.path.join(out_dir, "report.json")
    with open(rpath, "w") as fh:
        json.dump(_strict(report.to_dict()), fh, indent=2, allow_nan=False)
    paths.append(rpath)
    if traj is not None:
        tpath = os.path.join(out_dir, "trajectory.csv")
        export_csv(traj, tpath, V=report.monitor.V if report.monitor is not None else None)
        paths.append(tpath)
        if mu is not None:
            ppath = os.path.join(out_dir, "rateplot.csv")
            mask = np.all(traj.xs > 0.0, axis=1)
            lnmu = np.asarray(mu.log_value(traj.ts[mask]))
            cols = ["lnmu_t"] + ["ln_x%d" % (j + 1) for j in range(traj.n)]
            write_csv(ppath, cols, [lnmu, *np.log(traj.xs[mask]).T])
            paths.append(ppath)
    return paths
