"""The benchmark's independent computations reproduce known answers.

Run with ``python3 -m pytest benchmark/tests``; nothing here imports mustab.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

import independent as ind
import workloads

REF = ind.exact_doc(json.dumps(workloads.REFERENCE_DOC))


def scalar(c):
    return ind.Field([[{"c": c, "e": [1.0]}]], 1)


ZERO = ind.Field([[]], 1)
UNIT_DELAY = ind.delay_functions({"family": "bounded", "tau_max": 1.0})


def test_reference_margins():
    n = REF["n"]
    p, homogeneous = ind.exact_degree(REF["f"], REF["r"])
    assert homogeneous and p == 2
    assert ind.exact_degree(REF["g"], REF["r"]) == (2, True)
    L, D = ind.exact_limits(REF["mu"], REF["delay"], p / Fraction(REF["r_star"]))
    assert (L, D) == (1.0, 0.0)
    m, _ = ind.margins(ind.Field(REF["f"], n), ind.Field(REF["g"], n), REF["xi"],
                       REF["r"], REF["r_star"], p, L, D)
    assert np.allclose(m, [-4.0, -1.0], rtol=0, atol=1e-12)


def test_exponential_decay():
    d, inverse = UNIT_DELAY
    sol = ind.MethodOfSteps(scalar(-1.0), ZERO, d, inverse, [1.0], 0.0).run(10.0)
    assert sol(10.0)[0] == pytest.approx(math.exp(-10.0), rel=1e-6)


def test_delayed_identity_step_polynomials():
    # x'(t) = x(t - 1), x = 1 for t <= 0: 1 + t on [0, 1], 2 + (t^2 - 1)/2 on [1, 2]
    d, inverse = UNIT_DELAY
    sol = ind.MethodOfSteps(ZERO, scalar(1.0), d, inverse, [1.0], 0.0).run(2.0)
    for t in (0.3, 0.7, 1.0):
        assert sol(t)[0] == pytest.approx(1.0 + t, abs=1e-8)
    for t in (1.3, 1.7, 2.0):
        assert sol(t)[0] == pytest.approx(2.0 + (t * t - 1.0) / 2.0, abs=1e-8)


def test_threshold_document_not_certifiable():
    doc = ind.exact_doc(json.dumps(workloads.FAULT_DOCS["float-threshold"]))
    p, _ = ind.exact_degree(doc["f"], doc["r"])
    r_star = max(doc["r"])
    assert p == Fraction(3, 10) and doc["mu"]["beta"] * p / r_star == 1
    L, D = ind.exact_limits(doc["mu"], doc["delay"], p / r_star)
    assert (L, D) == (1.0, 5.0)
    m, _ = ind.margins(ind.Field(doc["f"], 1), ind.Field(doc["g"], 1), [1.0],
                       doc["r"], r_star, p, L, D)
    assert m[0] == pytest.approx(4.01, abs=1e-12)


def test_limit_thresholds_are_exact():
    power = {"family": "power", "beta": Fraction("2.5")}
    bounded = {"family": "bounded", "tau_max": 1}
    assert ind.exact_limits(power, bounded, Fraction(2, 5)) == (1.0, 2.5)
    assert ind.exact_limits(power, bounded, Fraction(39, 100)) == (1.0, 0.0)
    assert ind.exact_limits(power, bounded, Fraction(41, 100))[1] == math.inf
    exp = {"family": "exp", "eps": Fraction("0.5")}
    assert ind.exact_limits(exp, bounded, Fraction(0)) == (math.exp(0.5), 0.5)
    assert ind.exact_limits(exp, bounded, Fraction(1, 10**9))[1] == math.inf
    assert ind.exact_limits({"family": "log"}, {"family": "powerlag", "alpha": 0.25},
                            Fraction(1)) == (4.0, 0.0)


def test_vanishing_delay_head_matches_frozen_oracle():
    x = ind.reference_x(workloads.REFERENCE_DOC)
    assert x == pytest.approx(ind.REFERENCE_X_1E6, rel=1e-5)


@pytest.mark.parametrize("name", ["simulate-families", "certify-sweep", "lemma-suite"])
def test_inputs_repeat_for_a_seed(name):
    wl = workloads.WORKLOADS[name]()
    a, b, c = wl.items(5), wl.items(5), wl.items(6)
    assert [i.text for i in a] == [i.text for i in b]
    assert [i.text for i in a] != [i.text for i in c]


def test_generated_systems_are_exactly_homogeneous():
    for item in workloads.CertifySweep().items(1) + workloads.LemmaSuite().items(1):
        if item.expect_fail or item.meta.get("kind") == "non-homogeneous":
            continue
        doc = ind.exact_doc(item.text)
        p, homogeneous = ind.exact_degree(doc["f"], doc["r"])
        assert homogeneous and p == Fraction(str(item.meta["p"])), item.name
        pg, homogeneous = ind.exact_degree(doc["g"], doc["r"])
        assert homogeneous and pg == p, item.name


def test_simulated_systems_dominate_at_unit_weights():
    for item in workloads.SimulateFamilies().items(2):
        doc = json.loads(item.text)
        n = doc["n"]
        ones = np.ones(n)
        assert np.all(ind.Field(doc["f"], n)(ones) + ind.Field(doc["g"], n)(ones) < 0)
