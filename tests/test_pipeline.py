import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mustab import pipeline
from mustab.cli import main as cli_main
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
        doc = parse_system(paper_text())
        again = parse_system(doc.serialize())
        assert doc == again


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

    def test_short_simulation_with_fit(self):
        doc = parse_system(small_doc(sim={"t_start": np.e, "t_end": 500.0}))
        report, traj, code = run_pipeline(
            doc, ["check", "transform", "criterion", "simulate", "fit"])
        assert code == 0
        assert traj is not None
        assert np.all(np.asarray(report.simulation["final_state"]) > 0)
        assert "slopes" in report.simulation

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
        # hash is a function of the document alone
        report2, _, _ = run_pipeline(parse_system(paper_text()), ["check"])
        assert report2.provenance["config_hash"] == report.provenance["config_hash"]


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


class TestLimitRegressions:
    def run_criterion(self, tmp_path, obj):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(obj))
        out = tmp_path / "out"
        code = cli_main(["check", "transform", "criterion", "--input", str(path),
                         "--out", str(out)])
        with open(out / "report.json") as fh:
            return code, json.load(fh)["criterion"]

    def test_power_gauge_under_logfraction_delay_not_certified(self, tmp_path):
        # mu(t)/mu(d(t)) grows like ln t, so L is infinite; a numeric fit
        # read L = 575.6 as converged and certified with margin -36.2
        obj = json.loads(scalar_doc([{"c": 0.001, "e": [1.5]}], np.e))
        obj["f"] = [[{"c": -50.0, "e": [1.5]}]]
        obj.update(mu={"family": "power", "beta": 1.0}, delay={"family": "logfraction"})
        code, crit = self.run_criterion(tmp_path, obj)
        assert code == 1
        assert crit["verdict"] == "INCONCLUSIVE"
        assert crit["L"] == float("inf")

    def test_tabulated_gauge_from_one_under_bounded_delay(self, tmp_path):
        # d(t) = t - 2 < 0 at the first probe times, where mu is undefined
        t = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6]
        obj = json.loads(scalar_doc([{"c": 0.1, "e": [2.0]}], 2.0))
        obj.update(mu={"family": "table", "t": t, "mu": np.log1p(t).tolist()},
                   delay={"family": "bounded", "tau_max": 2.0})
        code, crit = self.run_criterion(tmp_path, obj)
        assert code == 0
        assert crit["L"] == pytest.approx(1.0, rel=0.01)


class TestStiffSimulation:
    def test_stiff_scalar_all_stages(self, tmp_path):
        # x' = -1e4 x + 0.1 x(t - 1): from phi0 = 1 the state sits far above
        # its quasi-steady state 1e-5 x(t - 1), and the default steps are 10
        # relaxation times; the step shrinks instead of failing the run
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

    def error_line(self, tmp_path, capsys, stages, text):
        """The one line on stderr of a run that must exit 2 on the document."""
        doc_path = tmp_path / "sys.json"
        doc_path.write_text(text)
        code, _ = self.run_cli(tmp_path, *stages.split(), "--input", str(doc_path))
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
    def loaded_scipy_modules(self, script):
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env=dict(os.environ, PYTHONPATH=path))
        return out.stdout.strip()

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
        assert self.loaded_scipy_modules(script) == "[]"

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
        assert self.loaded_scipy_modules(script) == "[]"
