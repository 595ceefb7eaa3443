"""Anisotropic change of variables z_i = x_i**(1/r_i) for monomial fields.

The transformed component i is f_i(z_1**r_1, ..., z_n**r_n) / z_i**(r_i - 1),
which stays a monomial sum: exponents map as b_j = a_j * r_j for j != i and
b_i = a_i * r_i - r_i + 1.  A transformed delay component may pick up a
negative exponent in its own variable; this is represented and flagged
rather than rejected, since the margin criterion only ever evaluates the
transformed field at strictly positive points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import DilationMap, FieldError, PolyMap, _sample_points, eval_field


def transform_field(F: PolyMap, r: DilationMap) -> tuple[PolyMap, tuple]:
    """Return the transformed PolyMap and the components flagged for a
    negative self-exponent."""
    if len(r) != F.n:
        raise FieldError("dilation of length %d for an n=%d map" % (len(r), F.n))
    rv = np.asarray(r.r)
    # b_j = a_j r_j, plus 1 - r_i on the term's own coordinate i
    out = PolyMap.from_arrays(F.n, F.k, F.E * rv + F.K * (1.0 - rv), F.C, F.CK)
    own = out.E[np.arange(len(out.k)), out.k]
    return out, tuple(sorted(set(out.k[own < 0].tolist())))


@dataclass
class TransformedSystem:
    fbar: PolyMap
    gbar: PolyMap
    r: DilationMap
    p: float
    fbar_flags: tuple = ()
    gbar_flags: tuple = ()

    def to_dict(self):
        return {
            "fbar": self.fbar.to_json(),
            "gbar": self.gbar.to_json(),
            "r": list(self.r.r),
            "p": self.p,
            "fbar_negative_exponent_components": list(self.fbar_flags),
            "gbar_negative_exponent_components": list(self.gbar_flags),
        }


def build_transformed_system(f: PolyMap, g: PolyMap, r: DilationMap, p) -> TransformedSystem:
    fbar, fflags = transform_field(f, r)
    gbar, gflags = transform_field(g, r)
    return TransformedSystem(fbar, gbar, r, float(p), fflags, gflags)


@dataclass
class LemmaReport:
    passed: bool
    trials: int
    excluded_components: tuple = ()
    witness: object = None


def verify_lemma1(F: PolyMap, r: DilationMap, p, trials=200, rng=None, tol=1e-9):
    """Transformed field of a degree-p field is degree-p homogeneous under
    uniform scaling: fbar(lam*z) == lam**(p+1) * fbar(z)."""
    fbar, _ = transform_field(F, r)
    rng = rng or np.random.default_rng(10)
    Z = _sample_points(rng, F.n, trials, 1e-2, 1e2)
    lam = rng.uniform(0.5, 2.0, size=(trials, 1))
    lhs = eval_field(fbar, lam * Z)
    rhs = lam ** (p + 1.0) * eval_field(fbar, Z)
    err = np.abs(lhs - rhs) - tol * (1.0 + np.abs(lhs))
    bad = np.flatnonzero(np.any(err > 0, axis=1))
    if len(bad):
        t = bad[0]
        return LemmaReport(False, trials, witness=(Z[t], float(lam[t, 0])))
    return LemmaReport(True, trials)


def verify_lemma2(F: PolyMap, r: DilationMap, trials=200, rng=None, tol=1e-12):
    """For cooperative F: pinning one coordinate, fbar_i is monotone in the
    others.  Draws the points Z, then every trial's pinned coordinate, then
    every trial's shrink factors W / Z, each in one call."""
    fbar, _ = transform_field(F, r)
    rng = rng or np.random.default_rng(11)
    Z = _sample_points(rng, F.n, trials, 1e-2, 1e2)
    own = rng.integers(F.n, size=trials)
    W = Z * rng.uniform(0.0, 1.0, size=Z.shape)
    rows = np.arange(trials)
    W[rows, own] = Z[rows, own]
    bad = np.flatnonzero(eval_field(fbar, Z)[rows, own] < eval_field(fbar, W)[rows, own] - tol)
    if len(bad):
        t = bad[0]
        return LemmaReport(False, trials, witness=(int(own[t]), Z[t], W[t]))
    return LemmaReport(True, trials)


def verify_lemma3(G: PolyMap, r: DilationMap, omega_verdicts, trials=200, rng=None, tol=1e-12):
    """For nondecreasing G: gbar is componentwise monotone, restricted to the
    components whose lower-bound hypothesis holds.

    ``omega_verdicts`` maps component index -> Verdict; components that are
    not certified are excluded from the check and reported.
    """
    gbar, _ = transform_field(G, r)
    rng = rng or np.random.default_rng(12)
    included = [
        i for i in range(G.n)
        if i in omega_verdicts and omega_verdicts[i].certified
    ]
    excluded = tuple(i for i in range(G.n) if i not in included)
    Z = _sample_points(rng, G.n, trials, 1e-2, 1e2)
    W = Z * rng.uniform(0.0, 1.0, size=Z.shape)
    bad = np.argwhere(eval_field(gbar, Z)[:, included] < eval_field(gbar, W)[:, included] - tol)
    if len(bad):
        t, c = bad[0]
        return LemmaReport(False, trials, excluded, witness=(included[c], Z[t], W[t]))
    return LemmaReport(True, trials, excluded)
