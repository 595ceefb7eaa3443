import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from mustab import pipeline
from mustab.cli import main as cli_main
from mustab.dde import SimConfig
from mustab.fields import check_cooperative, check_nondecreasing, check_omega_condition
from mustab.pipeline import (
    DocumentError,
    emit_outputs,
    parse_system,
    run_pipeline,
)
from mustab.rates import make_mu

HERE = os.path.dirname(os.path.abspath(__file__))
PAPER_DOC = os.path.join(HERE, "..", "examples", "paper_sec5.json")
SRC = os.path.join(HERE, "..", "src")


def paper_text():
    with open(PAPER_DOC) as fh:
        return fh.read()


def small_doc(**overrides):
    obj = json.loads(paper_text())
    obj["sim"] = {"t_start": np.e, "t_end": 50.0}
    obj.update(overrides)
    return json.dumps(obj)


def scalar_system(f, g, **overrides):
    """x' = f(x) + g(x(t - 1)) for n = 1 as a document object: f and g one
    row of terms each, xi = phi0 = 1, the gauge e^(t/10), t in [1, 10]."""
    obj = dict(n=1, f=[f], g=[g], r=[1.0], xi=[1.0], r_star=1.0,
               history={"phi0": [1.0]}, delay={"family": "bounded", "tau_max": 1.0},
               mu={"family": "exp", "eps": 0.1}, sim={"t_start": 1.0, "t_end": 10.0})
    obj.update(overrides)
    return obj


class TestParseSystem:
    def test_parses_reference_document(self):
        doc = parse_system(paper_text())
        assert doc.n == 2
        assert doc.r.r == (1.0, 2.0)
        assert doc.r_star == 2.0
        assert np.allclose(doc.phi0, [1.0, 4.0])

    def test_defaults_applied(self):
        obj = json.loads(paper_text())
        del obj["xi"]
        del obj["r_star"]
        doc = parse_system(json.dumps(obj))
        assert np.allclose(doc.xi, 1.0)
        assert doc.r_star == 2.0  # max of r

    def test_invalid_json(self):
        with pytest.raises(DocumentError, match="invalid JSON"):
            parse_system("{nope")

    def test_negative_weight_names_field(self):
        obj = json.loads(paper_text())
        obj["r"] = [1.0, -2.0]
        with pytest.raises(DocumentError, match="^r:"):
            parse_system(json.dumps(obj))

    def test_bad_monomial_names_path(self):
        obj = json.loads(paper_text())
        obj["f"][0][0] = {"c": 1.0, "e": [1.0]}
        with pytest.raises(DocumentError, match=r"f\[0\]\[0\]"):
            parse_system(json.dumps(obj))

    def test_negative_exponent_rejected(self):
        obj = json.loads(paper_text())
        obj["g"][1][0]["e"] = [4.0, -1.0]
        with pytest.raises(DocumentError, match=r"g\[1\]\[0\]\.e"):
            parse_system(json.dumps(obj))

    def test_unknown_delay_family(self):
        obj = json.loads(paper_text())
        obj["delay"] = {"family": "sawtooth"}
        with pytest.raises(DocumentError, match="^delay:"):
            parse_system(json.dumps(obj))

    def test_history_length_checked(self):
        obj = json.loads(paper_text())
        obj["history"]["phi0"] = [1.0]
        with pytest.raises(DocumentError, match="history.phi0"):
            parse_system(json.dumps(obj))

    def test_serialization_round_trip(self):
        # f and g written back by PolyMap.to_json parse to the same maps
        doc = parse_system(paper_text())
        obj = json.loads(paper_text())
        obj["f"], obj["g"] = doc.f.to_json(), doc.g.to_json()
        again = parse_system(json.dumps(obj))
        assert again.f == doc.f and again.g == doc.g


class TestRunPipeline:
    def test_check_transform_criterion(self):
        doc = parse_system(paper_text())
        report, traj, code = run_pipeline(doc, ["check", "transform", "criterion"])
        assert code == 0
        assert traj is None
        assert report.structure.cooperative.certified
        assert np.allclose(report.criterion.margins, [-4.0, -1.0], atol=1e-12)
        assert report.criterion.verdict == "STABLE_CERTIFIED"
        # the delayed component with the negative transformed exponent is
        # carried as a flag on the certificate
        assert "gbar-negative-exponent:1" in report.criterion.hypothesis_flags

    def test_slope_bound_past_the_float_range_fails_the_fit(self):
        # the bound -r / r_star + 0.1 = -1e600 overflows: it is -inf, which
        # no fitted slope is below, and no overflow warning
        obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}],
                            r=[1e300], r_star=1e-300)
        report, _, code = run_pipeline(parse_system(json.dumps(obj)), ["simulate", "fit"])
        assert report.stage_pass == {"simulate": True, "fit": False}
        assert code == 1

    def test_dependency_violation(self):
        doc = parse_system(paper_text())
        with pytest.raises(DocumentError, match="requires"):
            run_pipeline(doc, ["criterion"])
        with pytest.raises(DocumentError, match="requires"):
            run_pipeline(doc, ["fit"])

    def test_unknown_stage(self):
        doc = parse_system(paper_text())
        with pytest.raises(DocumentError, match="unknown"):
            run_pipeline(doc, ["explode"])

    @pytest.mark.parametrize("seed", [True, 1.0, "1", None, -1])
    def test_bad_seed_is_named_before_any_stage(self, seed, monkeypatch):
        # the reference's checks are symbolic and never draw, so the seed is
        # checked up front, not by the generator
        def stage_ran(*args, **kwargs):
            raise AssertionError("a stage ran")
        monkeypatch.setattr(pipeline, "check_cooperative", stage_ran)
        doc = parse_system(paper_text())
        with pytest.raises(DocumentError, match=r"^seed: expected a nonnegative integer"):
            run_pipeline(doc, ["check"], seed=seed)

    def test_numpy_integer_seed(self):
        report, _, _ = run_pipeline(parse_system(paper_text()), ["check"], seed=np.int64(7))
        assert report.provenance["seed"] == 7

    def test_sampled_checks_draw_from_one_generator(self):
        # f has a negative cross term, and each row of g a negative
        # coefficient of its own variable, so cooperativity, monotonicity and
        # both omega conditions are decided on sampled points: the witnesses
        # are those of the checks called in that order on one generator
        obj = json.loads(paper_text())
        obj["f"][0][1]["c"] = -2.0
        obj["g"] = [[{"c": 1.0, "e": [1, 1]}, {"c": -0.5, "e": [2, 1]}],
                    [{"c": 2.0, "e": [4, 0]}, {"c": -1.0, "e": [0, 3]}]]
        doc = parse_system(json.dumps(obj))
        for seed in (0, 5):
            s = run_pipeline(doc, ["check"], seed=seed)[0].structure
            rng = np.random.default_rng(seed)
            want = [check_cooperative(doc.f, rng=rng), check_nondecreasing(doc.g, rng=rng),
                    check_omega_condition(doc.g, 0, rng=rng),
                    check_omega_condition(doc.g, 1, rng=rng)]
            got = [s.cooperative, s.nondecreasing, s.omega[0], s.omega[1]]
            for g, w in zip(got, want):
                assert g.status == w.status == "refuted"
                assert pipeline._strict(g.witness) == pipeline._strict(w.witness)

    def test_short_simulation_with_fit(self):
        doc = parse_system(small_doc(sim={"t_start": np.e, "t_end": 500.0}))
        report, traj, code = run_pipeline(
            doc, ["check", "transform", "criterion", "simulate", "fit"])
        assert code == 0
        assert traj is not None
        assert np.all(np.asarray(report.simulation["final_state"]) > 0)
        assert "slopes" in report.simulation

    def test_sim_defaults_come_from_simconfig(self, monkeypatch):
        # a document that leaves out rho and h_min simulates with
        # SimConfig's defaults, whatever they are; one that gives rho keeps it
        @dataclass
        class Config(SimConfig):
            rho: float = 5e-3
            h_min: float = 2e-3
        cfgs = []
        real = pipeline.simulate
        monkeypatch.setattr(pipeline, "SimConfig", Config)
        monkeypatch.setattr(pipeline, "simulate",
                            lambda *a: cfgs.append(a[-1]) or real(*a))
        for sim in ({"t_start": np.e, "t_end": 50.0},
                    {"t_start": np.e, "t_end": 50.0, "rho": 2e-3}):
            run_pipeline(parse_system(small_doc(sim=sim)), ["simulate"])
        assert [(c.rho, c.h_min) for c in cfgs] == [(5e-3, 2e-3), (2e-3, 2e-3)]

    def test_reference_steps_are_counted(self):
        # the reference run to t = 1e6 at the default settings: the
        # estimate lengthens most of the policy's steps
        report, traj, _ = run_pipeline(parse_system(paper_text()), ["simulate"])
        sim = report.simulation
        assert sim["steps"] == len(traj.ts) - 1 <= 4000
        assert 0 < sim["lengthened_steps"] < sim["steps"]
        # the rejected trials by cause: here only lengthened RODAS4 trials
        # whose estimate failed, each retried shorter
        assert sim["rejected"] == traj.rejected
        assert set(sim["rejected"]) == {"orthant", "estimate", "field"}
        assert sim["rejected"]["orthant"] == sim["rejected"]["field"] == 0
        assert 0 < sim["rejected"]["estimate"] < sim["lengthened_steps"]

    def test_inconclusive_gives_exit_one(self):
        obj = json.loads(paper_text())
        # flip a coefficient so component 2's margin turns positive
        obj["g"][1][0]["c"] = 100.0
        doc = parse_system(json.dumps(obj))
        report, _, code = run_pipeline(doc, ["check", "transform", "criterion"])
        assert code == 1
        assert report.criterion.verdict == "INCONCLUSIVE"

    def test_provenance_recorded(self):
        doc = parse_system(paper_text())
        report, _, _ = run_pipeline(doc, ["check"], seed=7)
        assert report.provenance["seed"] == 7
        assert len(report.provenance["config_hash"]) == 16
        # hash is a function of the document alone: its text's SHA-256
        assert report.provenance["config_hash"] == \
            hashlib.sha256(paper_text().encode()).hexdigest()[:16]
        report2, _, _ = run_pipeline(parse_system(paper_text()), ["check"])
        assert report2.provenance["config_hash"] == report.provenance["config_hash"]
        # one coefficient changed in text written alike changes the hash
        obj = json.loads(paper_text())
        same = parse_system(json.dumps(obj)).config_hash
        obj["f"][0][0]["c"] += 0.5
        assert parse_system(json.dumps(obj)).config_hash != same

    @pytest.mark.parametrize("value", ["\u00e9 \u2211 \U0001d707", "\ud800"],
                             ids=["non-ascii", "lone-surrogate"])
    def test_config_hash_beyond_ascii(self, value):
        # a string under "n" that the document's own "n" replaces, so the
        # text stays a valid document: it is hashed as UTF-8 with a lone
        # surrogate passed through, as by hashlib
        text = '{"n": %s, %s' % (json.dumps(value, ensure_ascii=False),
                                 paper_text().lstrip()[1:])
        assert value in text
        assert parse_system(text).config_hash == \
            hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()[:16]


class TestEmitOutputs:
    def test_files_and_keys(self, tmp_path):
        doc = parse_system(small_doc())
        report, traj, _ = run_pipeline(
            doc, ["check", "transform", "criterion", "simulate", "fit"])
        mu = make_mu(doc.mu_spec)
        paths = emit_outputs(report, traj, str(tmp_path), mu=mu)
        assert sorted(os.path.basename(p) for p in paths) == [
            "rateplot.csv", "report.json", "trajectory.csv"]
        with open(os.path.join(str(tmp_path), "report.json")) as fh:
            rep = json.load(fh)
        assert set(rep) >= {"structure", "transform", "criterion",
                            "simulation", "provenance"}
        assert rep["criterion"]["margins"] == pytest.approx([-4.0, -1.0])
        assert set(rep["simulation"]) >= {"final_state", "v_growth_ratio", "slopes"}
        head = open(os.path.join(str(tmp_path), "rateplot.csv")).readline().strip()
        assert head == "lnmu_t,ln_x1,ln_x2"
        # every value at full precision, as one "%.17g" per value formats it
        lnmu = np.log(mu.value(traj.ts))
        for name, cols in (
            ("trajectory.csv", [traj.ts, *traj.xs.T, report.monitor.V]),
            ("rateplot.csv", [lnmu, *np.log(traj.xs).T]),
        ):
            with open(os.path.join(str(tmp_path), name)) as fh:
                rows = fh.read().splitlines()[1:]
            assert rows == [",".join("%.17g" % v for v in row) for row in zip(*cols)]


def scalar_doc(g_terms, t_start):
    return json.dumps({
        "n": 1, "f": [[{"c": -1.0, "e": [2.0]}]], "g": [g_terms], "r": [1.0],
        "mu": {"family": "log"}, "delay": {"family": "bounded", "tau_max": 1.0},
        "history": {"phi0": [1.0]}, "sim": {"t_start": t_start, "t_end": 100.0},
    })


class TestScalarSystems:
    def test_no_delayed_term(self):
        # the zero map g takes the degree of f
        doc = parse_system(scalar_doc([], 2.0))
        rep, _, code = run_pipeline(doc, ["check", "transform", "criterion"])
        assert code == 0
        assert rep.structure.homogeneity_g == rep.structure.homogeneity_f == 1.0
        assert rep.criterion.verdict == "STABLE_CERTIFIED"
        assert rep.criterion.margins == pytest.approx([-1.0])

    def test_no_delayed_term_all_stages(self, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(scalar_doc([], 2.0))
        assert cli_main(["all", "--input", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_monitor_skips_zero_gauge_at_delayed_time(self, tmp_path):
        # t_start = 1 with tau = 1 puts d(t_start) = 0, where mu = ln(1 + t) is 0
        path = tmp_path / "sys.json"
        path.write_text(scalar_doc([{"c": 0.1, "e": [2.0]}], 1.0))
        assert cli_main(["all", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            sim = json.load(fh)["simulation"]
        assert sim["burn_in"] > 1.0 and sim["monitor"]["burn_in_found"]

    def test_monitor_skips_tiny_gauge_at_delayed_time(self):
        # one ulp after t = 1, mu(d) is 2e-16, and L = mu(t)/mu(d) = 3e15
        # raised to (p + 1)/r_star = 22 overflows a float
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [1.0]}], np.nextafter(1.0, 2.0)))
        obj["f"] = [[{"c": -1.0, "e": [1.0]}]]
        obj["r_star"] = 0.045
        rep, _, _ = run_pipeline(parse_system(json.dumps(obj)),
                                 ["check", "transform", "criterion", "simulate"])
        assert rep.monitor.burn_in > 1.0 and rep.monitor.burn_in_found

    def test_monitor_skips_zero_gauge_at_the_node(self):
        # t_start = 0 under a proportional delay: d(0) = 0 >= 0, and
        # mu(0) = ln 1 = 0 is raised to the negative power p/r_star - 1
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [1.0]}], 1.0))
        obj.update(f=[[{"c": -1.0, "e": [1.0]}]], delay={"family": "proportional", "q": 0.5},
                   sim={"t_end": 5.0})
        rep, _, code = run_pipeline(parse_system(json.dumps(obj)),
                                    ["check", "transform", "criterion", "simulate"])
        assert code == 0
        assert rep.monitor.burn_in > 0.0 and rep.monitor.burn_in_found


class TestLimitRegressions:
    def run_criterion(self, tmp_path, obj):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        code = cli_main(["check", "transform", "criterion", "--input", str(path),
                         "--out", str(out)])
        with open(out / "report.json") as fh:
            return code, json.load(fh)

    def test_power_gauge_under_logfraction_delay_not_certified(self, tmp_path):
        # mu(t)/mu(d(t)) grows like ln t, so L is infinite; a numeric fit
        # read L = 575.6 as converged and certified with margin -36.2
        obj = json.loads(scalar_doc([{"c": 0.001, "e": [1.5]}], np.e))
        obj["f"] = [[{"c": -50.0, "e": [1.5]}]]
        obj.update(mu={"family": "power", "beta": 1.0}, delay={"family": "logfraction"})
        code, report = self.run_criterion(tmp_path, obj)
        assert code == 1
        assert report["criterion"]["verdict"] == "INCONCLUSIVE"
        assert report["criterion"]["L"] == "inf"

    def test_tabulated_gauge_from_one_under_bounded_delay(self, tmp_path):
        # no finite table fixes a limit as t -> inf: L and D are undetermined,
        # the margins infinite, and a note names the table
        t = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [2.0]}], 2.0))
        obj.update(mu={"family": "table", "t": t, "mu": np.log1p(t).tolist()},
                   delay={"family": "bounded", "tau_max": 2.0})
        code, report = self.run_criterion(tmp_path, obj)
        crit = report["criterion"]
        assert code == 1
        assert crit["verdict"] == "INCONCLUSIVE"
        assert (crit["L"], crit["D"], crit["limit_method"]) == ("nan", "nan", "undetermined")
        assert crit["margins"] == ["inf"]
        assert report["notes"] == ["limits undetermined: a table (mu) fixes no limit "
                                   "as t -> inf, and only closed forms are taken"]

    def test_tabulated_delay_under_parametric_gauge(self, tmp_path):
        # D depends on the gauge alone and stays closed-form; L does not
        t = [1.0, 10.0, 100.0, 1e3]
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [2.0]}], 2.0))
        obj["delay"] = {"family": "table", "t": t, "tau": [1.0] * 4}
        code, report = self.run_criterion(tmp_path, obj)
        crit = report["criterion"]
        assert code == 1
        assert (crit["verdict"], crit["L"], crit["D"]) == ("INCONCLUSIVE", "nan", 0.0)
        assert report["notes"] == ["limits undetermined: a table (delay) fixes no limit "
                                   "as t -> inf, and only closed forms are taken"]


def term(c, *e):
    return {"c": c, "e": list(e)}


class TestSoundMargins:
    def run(self, tmp_path, capsys, obj):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(obj))
        code = cli_main(["check", "transform", "criterion", "--input", str(path),
                         "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().out

    def test_cancelling_row_is_not_certified(self, tmp_path, capsys):
        # at xi = (1, 1) margin_1 is the sum of f_1's coefficients: exactly
        # +0.001, but -2.0 in floats, where the terms' sum of magnitudes is
        # 2.2e16 and its rounding error bound about 50
        obj = {
            "n": 2, "r": [1, 1], "xi": [1, 1], "g": [[], []],
            "mu": {"family": "log"}, "delay": {"family": "bounded", "tau_max": 1},
            "history": {"phi0": [1, 1]},
            "f": [[term(-1.1000000000000002e16, 1, 0), term(1e16, 0.5, 0.5), term(1, 0, 1),
                   term(1, 0.25, 0.75), term(0.001, 0.75, 0.25), term(1e15, 0.125, 0.875)],
                  [term(1, 1, 0), term(-2, 0, 1)]],
        }
        code, out = self.run(tmp_path, capsys, obj)
        assert code == 1
        assert "verdict: INCONCLUSIVE" in out and "margins: [-2.0, -1.0]" in out

    def test_like_terms_cancel_exactly(self, tmp_path, capsys):
        # f = (1e16 + 1 + 1 - 1e16 - 1.5) x = 0.5 x, so x' = 0.5 x + 0.5 x(t-1)
        # grows; summed in order the like terms gave f = -1.5 x and margin -1
        obj = json.loads(scalar_doc([term(0.5, 1.0)], 2.0))
        obj["f"] = [[term(1e16, 1.0), term(1.0, 1.0), term(1.0, 1.0), term(-1e16, 1.0),
                     term(-1.5, 1.0)]]
        code, out = self.run(tmp_path, capsys, obj)
        assert code == 1
        assert "verdict: INCONCLUSIVE" in out and "margins: [1.0]" in out


class TestStiffSimulation:
    def test_stiff_scalar_all_stages(self, tmp_path):
        # x' = -1e4 x + 0.1 x(t - 1): from phi0 = 1 the state sits far above
        # its quasi-steady state 1e-5 x(t - 1), and the default steps are 10
        # relaxation times; their states are projected onto the orthant
        # instead of failing the run
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [1.0]}], 1.0))
        obj["f"] = [[{"c": -1e4, "e": [1.0]}]]
        obj["sim"]["t_end"] = 4.0
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(obj))
        assert cli_main(["all", "--input", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "report.json") as fh:
            sim = json.load(fh)["simulation"]
        assert 0.0 < sim["final_state"][0] < 1e-14
        assert sim["v_growth_ratio"] == 1.0


class TestCli:
    def run_cli(self, tmp_path, *args):
        out = str(tmp_path / "out")
        return cli_main(list(args) + ["--out", out]), out

    def test_all_stages(self, tmp_path, capsys):
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(small_doc())
        code, out = self.run_cli(tmp_path, "check", "transform", "criterion",
                                 "--input", str(doc_path))
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        text = capsys.readouterr().out
        assert "STABLE_CERTIFIED" in text

    def test_fit_without_simulate_exits_two(self, tmp_path, capsys):
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(small_doc())
        code, _ = self.run_cli(tmp_path, "fit", "--input", str(doc_path))
        assert code == 2
        assert "requires" in capsys.readouterr().err

    def test_missing_input_exits_two(self, tmp_path, capsys):
        code, _ = self.run_cli(tmp_path, "check", "--input",
                               str(tmp_path / "absent.json"))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --input: ")

    def run_failing_simulation(self, tmp_path, capsys, **overrides):
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(small_doc(**overrides))
        code, _ = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_blow_up_exits_two(self, tmp_path, capsys):
        err = self.run_failing_simulation(
            tmp_path, capsys, n=1,
            f=[[{"c": 1.0, "e": [3]}]], g=[[{"c": 0.1, "e": [3]}]],
            r=[1.0], xi=[1.0], r_star=1.0, history={"phi0": [5.0]},
            delay={"family": "bounded", "tau_max": 1.0}, mu={"family": "log"},
            sim={"t_start": 1.0, "t_end": 2.0})
        assert "no step" in err

    def test_short_fit_window_exits_two(self, tmp_path, capsys):
        err = self.run_failing_simulation(
            tmp_path, capsys, n=1,
            f=[[{"c": -1.0, "e": [2]}]], g=[[{"c": 0.1, "e": [2]}]],
            r=[1.0], xi=[1.0], r_star=1.0, history={"phi0": [1.0]},
            delay={"family": "bounded", "tau_max": 1.0}, mu={"family": "log"},
            sim={"t_start": 2.0, "t_end": 2.005})
        assert "fewer than 10 usable nodes" in err

    @pytest.mark.parametrize("stages, field, edit", [
        ("all", "delay", lambda o: o.update(delay={
            "family": "table", "t": [3, 10, "@nan", 1000, 1e4], "tau": [0, 5, 50, 500, 5000]})),
        ("all", "delay", lambda o: o.update(delay={
            "family": "table", "t": [3, 10, 100, 1000, 1e4], "tau": [0, 5, "@inf", 500, 5000]})),
        ("all", "mu", lambda o: o.update(mu={
            "family": "table", "t": [1, 10, 100, 1000, 1e4], "mu": [1, 2, "@nan", 4, 5]})),
        ("all", "mu", lambda o: o.update(mu={
            "family": "table", "t": [1, 10, 100, 1000, "@inf"], "mu": [1, 2, 3, 4, 5]})),
        ("check transform criterion", "delay",
         lambda o: o.update(delay={"family": "bounded", "tau_max": "@inf"})),
        ("all", "delay", lambda o: o.update(delay={"family": "bounded", "tau_max": "@nan"})),
        ("all", "r_star", lambda o: o.update(r_star="@inf")),
        ("all", "r_star", lambda o: o.update(r_star="@huge")),
        ("all", "mu", lambda o: o.update(mu={"family": "power", "beta": "@nan"})),
        ("all", "mu", lambda o: o.update(mu={"family": "exp", "eps": "@inf"})),
        ("all", "f[0][0].c", lambda o: o["f"][0][0].update(c="@nan")),
        ("all", "f[0][0].e", lambda o: o["f"][0][0].update(e=["@inf", 0])),
        ("all", "r", lambda o: o.update(r=[1.0, "@inf"])),
        ("all", "xi", lambda o: o.update(xi=["@inf", 1.0])),
        ("all", "history.phi0", lambda o: o.update(history={"phi0": ["@inf", 4.0]})),
        ("all", "sim.t_end", lambda o: o["sim"].update(t_end="@inf")),
        ("all", "sim.rho", lambda o: o["sim"].update(rho="@nan")),
    ], ids=["table-nan-time", "table-inf-tau", "table-nan-mu", "table-inf-last-time",
            "inf-tau_max", "nan-tau_max", "inf-r_star", "huge-int-r_star", "nan-beta",
            "inf-eps", "nan-coefficient", "inf-exponent", "inf-weight", "inf-xi",
            "inf-phi0", "inf-t_end", "nan-rho"])
    def test_nonfinite_number_names_its_field(self, tmp_path, capsys, stages, field, edit):
        obj = json.loads(small_doc())
        edit(obj)
        # json reads NaN as nan and 1e400 as inf
        text = (json.dumps(obj).replace('"@nan"', "NaN").replace('"@inf"', "1e400")
                .replace('"@huge"', "1" + "0" * 400))
        assert self.error_line(tmp_path, capsys, stages, text).startswith("error: %s: " % field)

    def test_decreasing_delayed_time_names_tau(self, tmp_path, capsys):
        obj = json.loads(small_doc())
        obj["delay"] = {"family": "table", "t": [3, 10, 100, 1000], "tau": [0, 5, 95, 0]}
        err = self.error_line(tmp_path, capsys, "all", json.dumps(obj))
        assert err == "error: delay: 'tau' makes d(t) = t - tau(t) decrease on [10, 100]\n"

    TABLE_DELAY = {"family": "table", "t": [3, 10, 100, 1000], "tau": [0, 1, 1, 1]}
    TABLE_MU = {"family": "table", "t": [1, 10, 100, 1000], "mu": [1, 2, 3, 4]}

    @pytest.mark.parametrize("edit, message", [
        (lambda o: o.update(sim={"t_start": 50.0, "t_end": 10.0}),
         "sim.t_end: must be above t_start = 50"),
        # t_start defaults to the start of the logfraction delay's domain, e
        (lambda o: o.update(sim={"t_end": 2.0}), "sim.t_end: must be above t_start = 2.71828"),
        (lambda o: o.update(sim={"t_start": 1.0, "t_end": 50.0}),
         "sim.t_start: logfraction delay is valid on [2.71828, inf]"),
        (lambda o: o.update(delay=TestCli.TABLE_DELAY, sim={"t_start": 3.0, "t_end": 2000.0}),
         "sim.t_end: table delay is valid on [3, 1000]"),
        (lambda o: o.update(mu=TestCli.TABLE_MU, sim={"t_start": 3.0, "t_end": 2000.0}),
         "sim.t_end: table mu is valid up to 1000"),
    ], ids=["reversed", "reversed-default-start", "before-delay", "past-delay-table",
            "past-mu-table"])
    def test_time_range_names_its_field(self, tmp_path, capsys, monkeypatch, edit, message):
        # checked when the document is parsed: nothing is simulated
        monkeypatch.setattr(pipeline, "simulate", lambda *a: pytest.fail("simulated"))
        obj = json.loads(small_doc())
        edit(obj)
        assert self.error_line(tmp_path, capsys, "all", json.dumps(obj)) == "error: %s\n" % message

    def error_line(self, tmp_path, capsys, stages, text, *options):
        """The one line on stderr of a run that must exit 2 on the document
        (str, or bytes written as they are) and the options."""
        doc_path = tmp_path / "sys.json"
        if isinstance(text, bytes):
            doc_path.write_bytes(text)
        else:
            doc_path.write_text(text)
        code, _ = self.run_cli(tmp_path, *stages.split(), "--input", str(doc_path), *options)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    @pytest.mark.parametrize("path, key, edit", [
        ("document", "rho", lambda o: o.update(rho=0.5)),
        ("sim", "rhoo", lambda o: o["sim"].update(rhoo=0.5)),
        ("history", "phi1", lambda o: o["history"].update(phi1=[1.0, 4.0])),
        ("f[0][1]", "d", lambda o: o["f"][0][1].update(d=1.0)),
        ("g[1][0]", "C", lambda o: o["g"][1][0].update(C=2.0)),
        ("delay", "tau_max", lambda o: o["delay"].update(tau_max=1.0)),
        ("delay", "tau", lambda o: o.update(delay={"family": "bounded", "tau_max": 1.0,
                                                  "tau": 1.0})),
        ("mu", "beta", lambda o: o["mu"].update(beta=2.0)),
        ("mu", "tau", lambda o: o.update(mu={"family": "table", "t": [1, 10, 100, 1000],
                                             "mu": [1, 2, 3, 4], "tau": [1, 1, 1, 1]})),
    ], ids=["top", "sim", "history", "f-term", "g-term", "logfraction", "bounded", "log",
            "table-mu"])
    def test_unknown_key_is_named(self, tmp_path, capsys, path, key, edit):
        obj = json.loads(small_doc())
        edit(obj)
        err = self.error_line(tmp_path, capsys, "all", json.dumps(obj))
        assert err == "error: %s: unknown key '%s'\n" % (path, key)

    @pytest.mark.parametrize("field, edit", [
        ("n", lambda o: o.update(
            n=True, f=[[{"c": -1.0, "e": [2]}]], g=[[{"c": 0.1, "e": [2]}]], r=[1.0],
            xi=[1.0], r_star=1.0, history={"phi0": [1.0]},
            delay={"family": "bounded", "tau_max": 1.0}, sim={"t_start": 2.0, "t_end": 50.0})),
        ("f[0][0].c", lambda o: o["f"][0][0].update(c=True)),
        ("g[0][0].e", lambda o: o["g"][0][0].update(e=[True, 1])),
        ("r", lambda o: o.update(r=[True, 2.0])),
        ("xi", lambda o: o.update(xi=[True, 1.0])),
        ("r_star", lambda o: o.update(r_star=True)),
        ("history.phi0", lambda o: o.update(history={"phi0": [True, 4.0]})),
        ("sim.t_end", lambda o: o["sim"].update(t_end=True)),
        ("sim.h_min", lambda o: o["sim"].update(h_min=True)),
        ("delay", lambda o: o.update(delay={"family": "bounded", "tau_max": False})),
        ("delay", lambda o: o.update(delay={"family": "table", "t": [3, 10, 100, 1000],
                                            "tau": [False, 1, 1, 1]})),
        ("mu", lambda o: o.update(mu={"family": "power", "beta": True})),
        ("mu", lambda o: o.update(mu={"family": "table", "t": [1, 10, 100, 1000],
                                      "mu": [True, 2, 3, 4]})),
    ], ids=["n", "coefficient", "exponent", "weight", "xi", "r_star", "phi0", "t_end",
            "h_min", "tau_max", "table-tau", "beta", "table-mu"])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, field, edit):
        obj = json.loads(small_doc())
        edit(obj)
        err = self.error_line(tmp_path, capsys, "all", json.dumps(obj))
        assert err.startswith("error: %s: " % field)

    @pytest.mark.parametrize("sim", [0, None, False, [], "sim"])
    def test_sim_must_be_an_object(self, tmp_path, capsys, sim):
        obj = json.loads(small_doc())
        obj["sim"] = sim
        err = self.error_line(tmp_path, capsys, "check", json.dumps(obj))
        assert err == "error: sim: expected an object\n"

    @pytest.mark.parametrize("key, spec", [
        ("tau_max", {"family": "bounded", "tau_max": "1"}),
        ("q", {"family": "proportional", "q": "0.5"}),
        ("tau_max", {"family": "bounded", "tau_max": None}),
        ("tau", {"family": "table", "t": [3, 10, 100, 1000], "tau": [0, "1", 1, 1]}),
    ])
    def test_rate_parameter_must_be_a_number(self, tmp_path, capsys, key, spec):
        obj = json.loads(small_doc())
        obj["delay"] = spec
        err = self.error_line(tmp_path, capsys, "check", json.dumps(obj))
        assert err == "error: delay: '%s' must be a number\n" % key

    def test_document_must_be_utf8(self, tmp_path, capsys):
        # a Latin-1 o-umlaut in a string: no UTF-8 byte sequence
        text = small_doc().encode()[:-1] + b', "\xf6": 1}'
        err = self.error_line(tmp_path, capsys, "check", text)
        assert err.startswith("error: document: not UTF-8 (")

    def test_unwritable_report_names_out(self, tmp_path, capsys):
        os.makedirs(tmp_path / "out" / "report.json")
        err = self.error_line(tmp_path, capsys, "check", small_doc())
        assert err.startswith("error: --out: ") and "report.json" in err

    def test_negative_seed_is_named(self, tmp_path, capsys):
        err = self.error_line(tmp_path, capsys, "check", small_doc(), "--seed", "-1")
        assert err == "error: --seed: expected a nonnegative integer, got -1\n"

    def test_zero_f_is_named(self, tmp_path, capsys):
        obj = json.loads(paper_text())
        obj["f"] = [[], []]
        err = self.error_line(tmp_path, capsys, "all", json.dumps(obj))
        assert err.startswith("error: f: ")

    def test_nonfinite_jacobian_exits_two(self, tmp_path, capsys):
        # f itself is finite at the history, -1e308 + 8, but J[0, 0] = -inf:
        # the Jacobian overflows, and the error is the only line on stderr
        obj = json.loads(paper_text())
        obj["f"][0][0]["c"] = -1e308
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            err = self.error_line(tmp_path, capsys, "all", json.dumps(obj))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert "Jacobian" in err and "t=2.71828" in err

    def test_overflowing_gauge_fits_its_log(self, tmp_path, capsys):
        # mu = e^t overflows at t = 1e3, ln mu = t does not: the fit, the
        # rate plot and the monitor take the latter, with no warning
        code, out = self.run_exp_gauge(tmp_path)
        assert code == 1
        assert capsys.readouterr().err == ""
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert np.isfinite(report["simulation"]["slopes"]).all()
        # V itself overflows, its logarithm does not
        assert report["simulation"]["v_growth_ratio"] == "inf"
        V = np.loadtxt(os.path.join(out, "trajectory.csv"), delimiter=",", skiprows=1)[:, -1]
        assert V[0] > 0.0 and V[-1] == np.inf

    def run_exp_gauge(self, tmp_path):
        obj = json.loads(paper_text())
        obj["mu"] = {"family": "exp", "eps": 1}
        obj["sim"]["t_end"] = 1e3
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(json.dumps(obj))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return out

    def test_report_is_strict_json(self, tmp_path, capsys):
        # the exp gauge's infinite limits, margins and growth ratio are
        # written as strings, never as the bare Infinity that RFC 8259 lacks
        def refuse(name):
            raise ValueError("non-JSON constant %s" % name)
        _, out = self.run_exp_gauge(tmp_path)
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh, parse_constant=refuse)
        assert report["criterion"]["L"] == "inf"
        assert report["criterion"]["margins"] == ["inf", "inf"]
        # and the margins line of the CLI is written the same way
        assert 'margins: ["inf", "inf"]' in capsys.readouterr().out.splitlines()

    def run_report(self, tmp_path, obj):
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(json.dumps(obj))
        code, out = self.run_cli(tmp_path, "check", "transform", "criterion",
                                 "--input", str(doc_path))
        with open(os.path.join(out, "report.json")) as fh:
            return code, json.load(fh)

    def test_refuted_cooperativity_writes_its_witness(self, tmp_path):
        # x1^1 x2^2 in f_1 with c < 0 breaks cooperativity; the witness (i,
        # j, x) holds x as an array, which report.json writes as a list
        obj = json.loads(paper_text())
        obj["f"][0][0]["e"] = [1, 2]
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        verdict = report["structure"]["cooperative"]
        assert verdict["status"] == "refuted"
        i, j, x = verdict["witness"]
        assert (i, j) == (0, 1) and len(x) == 2
        assert all(isinstance(v, float) and v > 0.0 for v in x)

    def test_overflowing_omega_sweep_is_refuted(self, tmp_path):
        # g = 2 x^60 - x^61 has a negative coefficient, so the omega check
        # sweeps x up to 1e6, where x^61 overflows; the finite ratios
        # below, negative past x = 2, refute it, and the report says where
        obj = scalar_system([{"c": -1.0, "e": [60]}],
                            [{"c": 2.0, "e": [60]}, {"c": -1.0, "e": [61]}])
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        omega = report["structure"]["omega"]["0"]
        assert omega["status"] == "refuted"
        (x,) = omega["witness"]
        assert x > 2.0 and 2.0 * x ** 59 - x ** 60 < 0.0

    def test_field_overflowing_at_xi_has_infinite_margins(self, tmp_path, capsys):
        # f = -x^400 and g = x^400 / 2 overflow at xi = 10: the margins are
        # infinite, as where they underflow at xi = 1e-200, and the
        # burn-in search of the simulation finds no node
        obj = scalar_system([{"c": -1.0, "e": [400]}], [{"c": 0.5, "e": [400]}], xi=[10.0])
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        assert report["criterion"]["verdict"] == "INCONCLUSIVE"
        assert report["criterion"]["margins"] == ["inf"]
        code, out = self.run_cli(tmp_path, "all", "--input", str(tmp_path / "sys.json"))
        assert code == 1 and "Traceback" not in capsys.readouterr().err
        with open(os.path.join(out, "report.json")) as fh:
            assert json.load(fh)["simulation"]["monitor"]["burn_in_found"] is False

    def test_gauge_whose_log_overflows_exits_two(self, tmp_path, capsys):
        # ln mu = 1e308 t overflows in the fit window: no fit, and an error
        # naming mu, not a least-squares failure
        err = self.run_failing_simulation(tmp_path, capsys, mu={"family": "exp", "eps": 1e308})
        assert err.startswith("error: mu: ")

    def test_powerlag_breakpoint_overflow_is_inf(self, tmp_path, capfd):
        # alpha = 1e-9 puts the breakpoint after t = 20 at 20^(1e9), past the
        # largest float: none is made, and the run goes on.  L = 1/alpha =
        # 1e9 makes the margin positive, so the verdict is inconclusive
        obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}],
                            delay={"family": "powerlag", "alpha": 1e-9},
                            mu={"family": "log"}, sim={"t_start": 20.0, "t_end": 40.0})
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(json.dumps(obj))
        code, out = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        assert code == 1
        assert capfd.readouterr().err == ""
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        assert report["criterion"]["verdict"] == "INCONCLUSIVE"
        assert report["simulation"]["t_end"] == 40.0

    @pytest.mark.parametrize("mu", [{"family": "exp", "eps": 1e-300},
                                    {"family": "power", "beta": 1e-300}])
    def test_tiny_log_gauge_is_fitted(self, tmp_path, capfd, mu):
        # ln mu(t) is about 1e-298 over the fit window, whose squares
        # underflow: the fit on it scaled by a power of two calls LAPACK on
        # well-scaled data, and no DLASCL line reaches stderr
        obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}],
                            mu=mu, sim={"t_start": 1.0, "t_end": 100.0})
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(json.dumps(obj))
        code, out = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        assert code == 0
        assert capfd.readouterr().err == ""
        with open(os.path.join(out, "report.json")) as fh:
            (slope,) = json.load(fh)["simulation"]["slopes"]
        if mu["family"] == "exp":
            # x decays like e^(lambda t), lambda = -1 + e^(-lambda)/2 = -0.315
            assert slope * 1e-300 == pytest.approx(-0.3149, rel=1e-2)
        else:
            assert slope < -1e299

    def test_gauge_flat_over_the_fit_window_exits_two(self, tmp_path, capfd):
        # the tabulated mu is 3 on [10, 1e4], and the fit window is [49, 200]:
        # ln mu varies there by no more than rounding, so the closed-form
        # line fixes no slope, and the run exits 2 with one line on stderr
        t = [1.0, 10.0, 1e3, 1e4, 1e5, 1e6]
        obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}],
                            mu={"family": "table", "t": t, "mu": [2.0, 3.0, 3.0, 3.0, 4.0, 40.0]},
                            sim={"t_start": 12.0, "t_end": 200.0})
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(json.dumps(obj))
        code, _ = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        assert code == 2
        assert capfd.readouterr().err == "error: mu: ln mu(t) does not vary in the fit window\n"

    def test_power_gauge_under_a_tiny_proportional_factor(self, tmp_path, capfd):
        # L = q^(-beta) = 1e600 overflows a float: L is inf, so the margin is,
        # and the verdict is inconclusive
        obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}],
                            delay={"family": "proportional", "q": 1e-300},
                            mu={"family": "power", "beta": 2.0})
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        assert capfd.readouterr().err == ""
        assert report["criterion"]["verdict"] == "INCONCLUSIVE"
        assert report["criterion"]["L"] == "inf"
        assert report["criterion"]["margins"] == ["inf"]

    def test_f_not_homogeneous_skips_the_transform(self, tmp_path):
        obj = json.loads(paper_text())
        obj["f"][0][1]["e"] = [1.5, 1]
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        assert report["stage_pass"] == {"check": False, "transform": False,
                                        "criterion": False}
        assert "transform skipped: f is not r-homogeneous" in report["notes"]

    def test_g_not_homogeneous_is_inconclusive(self, tmp_path):
        obj = json.loads(paper_text())
        obj["g"] = [[{"c": 1, "e": [2, 1]}], [{"c": 2, "e": [0, 3]}]]
        code, report = self.run_report(tmp_path, obj)
        assert code == 1
        assert report["criterion"]["verdict"] == "INCONCLUSIVE"
        assert "criterion evaluated without full structure certificates" in report["notes"]

    def test_delay_and_gauge_built_once(self, tmp_path, monkeypatch):
        # parse_system builds the delay and the gauge to validate them; the
        # stages and the CLI use those objects, never building them again
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(small_doc())
        built = []
        for name in ("make_delay", "make_mu"):
            make = getattr(pipeline, name)
            monkeypatch.setattr(
                pipeline, name, lambda spec, make=make, name=name: built.append(name) or make(spec))
        code, _ = self.run_cli(tmp_path, "all", "--input", str(doc_path))
        assert code == 0
        assert sorted(built) == ["make_delay", "make_mu"]

    def test_comma_separated_stages(self, tmp_path):
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(small_doc())
        code, _ = self.run_cli(tmp_path, "check,transform", "--input", str(doc_path))
        assert code == 0


class TestImportFootprint:
    def last_line(self, script):
        """The last line that script prints in a fresh interpreter."""
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
        return out.stdout.strip().splitlines()[-1]

    def test_symbolic_checks_never_import_numpy_random(self, tmp_path):
        # every structure check of the reference is symbolic, so no
        # generator is made and numpy.random is never imported
        script = (
            "import sys\n"
            "from mustab import cli\n"
            "code = cli.main(['all', '--input', %r, '--out', %r])\n"
            "print(code, 'numpy.random' in sys.modules)\n"
        ) % (PAPER_DOC, str(tmp_path / "out"))
        assert self.last_line(script) == "0 False"

    def test_reference_run_never_loads_openssl(self, tmp_path):
        # config_hash is taken by CPython's own SHA-256: hashlib's would
        # load OpenSSL's libcrypto, about 3.6 MB of the run's peak memory
        script = (
            "import sys\n"
            "from mustab import cli\n"
            "code = cli.main(['all', '--input', %r, '--out', %r])\n"
            "print(code, '_hashlib' in sys.modules)\n"
        ) % (PAPER_DOC, str(tmp_path / "out"))
        assert self.last_line(script) == "0 False"

    def test_closed_form_document_never_loads_scipy(self):
        # the reference document must get through a fresh interpreter
        # without loading scipy
        script = (
            "import sys\n"
            "import mustab\n"
            "with open(%r) as fh:\n"
            "    doc = mustab.pipeline.parse_system(fh.read())\n"
            "mustab.pipeline.run_pipeline(doc, ['check', 'transform', 'criterion'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        ) % PAPER_DOC
        assert self.last_line(script) == "[]"

    def test_tabulated_document_never_loads_scipy(self, tmp_path):
        # the tabulated gauge and delay are numpy only, through every stage
        t = [3.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        text = small_doc(mu={"family": "table", "t": t, "mu": np.log1p(t).tolist()},
                         delay={"family": "table", "t": t, "tau": [0.5 * v for v in t]},
                         sim={"t_start": 3.0, "t_end": 50.0})
        script = (
            "import sys\n"
            "import mustab\n"
            "doc = mustab.pipeline.parse_system(%r)\n"
            "stages = ['check', 'transform', 'criterion', 'simulate', 'fit']\n"
            "report, traj, _ = mustab.pipeline.run_pipeline(doc, stages)\n"
            "assert sorted(report.stage_pass) == sorted(stages)\n"
            "mustab.pipeline.emit_outputs(report, traj, %r,\n"
            "                             mu=mustab.rates.make_mu(doc.mu_spec))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        ) % (text, str(tmp_path / "out"))
        assert self.last_line(script) == "[]"

    def test_reference_run_never_loads_numpy_ma(self, tmp_path):
        # numpy.ma takes about 6 ms to import, which every run would pay;
        # np.unique is one numpy function that imports it on first call
        script = (
            "import sys\n"
            "import mustab\n"
            "with open(%r) as fh:\n"
            "    doc = mustab.pipeline.parse_system(fh.read())\n"
            "report, traj, _ = mustab.pipeline.run_pipeline(doc, mustab.pipeline.STAGES)\n"
            "assert sorted(report.stage_pass) == sorted(mustab.pipeline.STAGES)\n"
            "mustab.pipeline.emit_outputs(report, traj, %r, mu=doc.mu)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']))\n"
        ) % (PAPER_DOC, str(tmp_path / "out"))
        assert self.last_line(script) == "[]"
