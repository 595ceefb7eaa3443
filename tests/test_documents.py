"""Generated documents through the whole command line: every one exits 0, 1
or 2, and none raises or leaves a traceback or a LAPACK line on stderr.

Two strategies draw the documents. One builds them from the maps of
`generate.py`, with numbers at the schema's edges. The other mutates the
reference document. Both keep a run short, since a long run is not the
fault looked for here. `t_end / t_start` is at most 1e3 and `rho` at least
0.05, so that the policy takes at most about 140 steps, and `h_min` is at
least a hundredth of `t_end - t_start`, so that at most 100 steps are cut
to it.
"""

import copy
import json
import math

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from mustab.cli import main as cli_main
from mustab.fields import DilationMap

from generate import (
    random_dilation,
    random_homogeneous_cooperative,
    random_homogeneous_nondecreasing,
    random_stable_linear_metzler,
)
from test_pipeline import PAPER_DOC, scalar_system

BIG = 1.7976931348623157e308
TINY = 5e-324
# magnitudes out to the least subnormal and the largest float
SCALES = [1.0, 1e-9, 1e9, 1e-300, 1e300, TINY, BIG]
# a scale that is 1 half the time, so that more documents parse
SCALE = st.one_of(st.just(1.0), st.sampled_from(SCALES))
EXPONENTS = [0.0, 1e-9, 1.0, 60.0, 300.0]
# the open unit interval's ends, for q and alpha
UNIT = [TINY, 1e-300, 1e-9, 0.5, 1.0 - 2.0 ** -53]
MUS = st.one_of(
    st.builds(lambda v: {"family": "exp", "eps": v}, st.sampled_from(SCALES)),
    st.builds(lambda v: {"family": "power", "beta": v}, st.sampled_from(SCALES)),
    st.just({"family": "log"}),
    st.just({"family": "loglog"}),
)
DELAYS = st.one_of(
    st.builds(lambda v: {"family": "bounded", "tau_max": v}, st.sampled_from([0.0] + SCALES)),
    st.builds(lambda v: {"family": "proportional", "q": v}, st.sampled_from(UNIT)),
    st.just({"family": "logfraction"}),
    st.builds(lambda v: {"family": "powerlag", "alpha": v}, st.sampled_from(UNIT)),
)


def _scaled(F, scale, edge, rng):
    """F's document form with every coefficient times scale, and, for an
    edge exponent, one term's exponent set to it."""
    comps = F.to_json()
    for terms in comps:
        for term in terms:
            term["c"] *= scale
    terms = [t for terms in comps for t in terms]
    if edge is not None and terms:
        term = terms[int(rng.integers(len(terms)))]
        term["e"][int(rng.integers(len(term["e"])))] = edge
    return comps


@st.composite
def built_documents(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(1, 3))
    if draw(st.booleans()):
        r = DilationMap((1.0,) * n)
        f, g = random_stable_linear_metzler(rng, n)
    else:
        r = random_dilation(rng, n)
        p = float(rng.uniform(0.0, 2.0))
        f = random_homogeneous_cooperative(rng, n, r, p)
        g = random_homogeneous_nondecreasing(rng, n, r, p)
    edge = st.one_of(st.none(), st.sampled_from(EXPONENTS))
    t_start = draw(st.sampled_from([20.0, 1.0, math.e, 1e6, 1e-9, 1e-300]))
    t_end = t_start * draw(st.floats(1.5, 1e3))
    sim = {"t_start": t_start, "t_end": t_end,
           "rho": draw(st.sampled_from([0.05, 0.1, 1.0, 1e3])),
           # 1e-2 twice: half the runs have room for the fit's 10 nodes
           "h_min": (t_end - t_start) * draw(st.sampled_from([1e-2, 1e-2, 0.1, 1e3]))}
    return {
        "n": n,
        "f": _scaled(f, draw(SCALE), draw(edge), rng),
        "g": _scaled(g, draw(SCALE), draw(edge), rng),
        "r": [v * draw(st.sampled_from([1.0, 1e-300, 1e300])) for v in r.r],
        "delay": draw(DELAYS),
        "mu": draw(MUS),
        "xi": [draw(SCALE) for _ in range(n)],
        "r_star": draw(st.sampled_from([1e-300, 1.0, 2.0, 1e300])),
        "history": {"phi0": [draw(st.one_of(st.just(0.0), SCALE)) for _ in range(n)]},
        "sim": sim,
    }


# JSON values that are wrong in most places, or right at an edge
ODD = [None, True, False, "1", [], {}, 0, -1, -0.0, float("nan"), float("inf"),
       2 ** 1100, [1.0, 2.0, 3.0]]
NUMBERS = [TINY, 1e-300, 0.5, 1e300, BIG]


def _paths(obj, path=()):
    """The path to every value in obj, obj itself first."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _reference():
    with open(PAPER_DOC) as fh:
        obj = json.load(fh)
    # the reference system on a short run: to t = 100, not 1e6, and with
    # rho and h_min inside the bounds above, not the defaults of 1e-3
    obj["sim"].update(t_end=100.0, rho=0.05, h_min=1.0)
    return obj


@st.composite
def mutated_references(draw):
    obj = _reference()
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(obj) if p]
        path = draw(st.sampled_from(paths))
        *head, key = path
        parent = obj
        for k in head:
            parent = parent[k]
        # a finite positive number in sim, or the default rho or h_min, could
        # ask for a long run: sim takes only the odd values, and keeps its
        # rho and h_min keys
        values = ODD + ([] if path[0] == "sim" else NUMBERS)
        if (isinstance(parent, dict) and path[-2:] not in (("sim", "rho"), ("sim", "h_min"))
                and draw(st.booleans())):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(draw(st.sampled_from(values)))
    return obj


def scalar(**overrides):
    """x' = -x + x(t - 1)/2 under the keys given: each example below is a
    document that raised."""
    obj = scalar_system([{"c": -1.0, "e": [1]}], [{"c": 0.5, "e": [1]}])
    obj.update(overrides)
    return obj


@settings(max_examples=250, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.one_of(built_documents(), mutated_references()))
# (1/alpha)-th power of a breakpoint that overflows
@example(scalar(delay={"family": "powerlag", "alpha": 1e-9}, mu={"family": "log"},
                sim={"t_start": 20.0, "t_end": 40.0}))
# ln mu of about 1e-298 over the fit window
@example(scalar(mu={"family": "exp", "eps": 1e-300}, sim={"t_start": 1.0, "t_end": 100.0}))
# L = q^-beta = 1e600
@example(scalar(delay={"family": "proportional", "q": 1e-300}, mu={"family": "power", "beta": 2.0}))
# L = e^(eps tau) = e^(1e291)
@example(scalar(delay={"family": "bounded", "tau_max": 1e300}, mu={"family": "exp", "eps": 1e-9}))
# the weight r_star / r and the slope bound r / r_star past the float range
@example(scalar(r=[1e-300], r_star=1e300))
@example(scalar(r=[1e300], r_star=1e-300))
# a Jacobian sampled where it overflows
@example(scalar(n=2, f=[[{"c": 1e308, "e": [2, 0]}, {"c": -1.0, "e": [1, 1]}],
                        [{"c": -1.0, "e": [0, 1]}]],
                g=[[], []], r=[1.0, 1.0], xi=[1.0, 1.0], history={"phi0": [1.0, 1.0]}))
# a weighted exponent sum that overflows
@example(scalar(f=[[{"c": -1.0, "e": [1e308]}]], r=[2.0], r_star=2.0))
# a margin of the largest float, whose rounding bound overflows the sum
@example(scalar(delay={"family": "bounded", "tau_max": 0.0}, mu={"family": "power", "beta": BIG},
                sim={"t_start": 1e-300, "t_end": 2e-300}))
# a fitted slope of about -1 / 5e-324
@example(scalar(mu={"family": "power", "beta": 5e-324}))
def test_no_document_raises(tmp_path, capfd, obj):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(obj))
    code = cli_main(["all", "--input", str(path), "--out", str(tmp_path / "out")])
    err = capfd.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    # LAPACK's xerbla reports a bad argument as "On entry to <routine> ..."
    assert "On entry to" not in err
