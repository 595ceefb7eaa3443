"""Monomial vector fields on the nonnegative orthant and their structure checks.

A vector field component is a finite signed sum of monomials
``c * x1^a1 * ... * xn^an`` with real exponents ``aj >= 0``.  This class is
closed under the anisotropic change of variables used elsewhere in the
package (up to negative exponents, which are tolerated but flagged) and
admits exact Jacobians and exact homogeneity certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

CERTIFIED = "certified"
REFUTED = "refuted"
UNDECIDED = "undecided"

# sampling fallback parameters for the structure checks
N_SAMPLES = 200
SAMPLE_RANGE = (1e-3, 1e3)
TOL_COOP = 1e-9
TOL_HOM = 1e-9


class FieldError(ValueError):
    pass


def _fsum(values):
    """The sum of values rounded once, or inf when it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(values)


class PolyMap:
    """A vector field with monomial components, stored as one term table.

    Term t is ``C[t] * prod_j x_j**E[t, j]`` in component ``k[t]``, and
    ``K`` is the one-hot term-to-component matrix; ``CK`` is ``K`` with row
    t scaled by ``C[t]``, the matrix that sums the terms' values into the
    components.  ``components`` holds, per component, (coeff, exponents)
    pairs with nonzero coefficients.  Like terms are merged, zero sums
    dropped and the rest sorted by (component, exponents), so equal maps
    have equal tables.
    """

    def __init__(self, n, components, allow_negative_exponents=False):
        self.n = n = int(n)
        if len(components) != n:
            raise FieldError("expected %d components, got %d" % (n, len(components)))
        terms = []
        for i, comp in enumerate(components):
            for c, e in comp:
                c, e = float(c), tuple(map(float, e))
                if c == 0.0:
                    raise FieldError("zero-coefficient monomial")
                if len(e) != n:
                    raise FieldError(
                        "component %d: exponent vector of length %d, expected %d"
                        % (i, len(e), n)
                    )
                if not allow_negative_exponents and min(e) < 0:
                    raise FieldError("component %d: negative exponent %r" % (i, min(e)))
                terms.append(((i, e), c))
        self._set_table(terms)

    @classmethod
    def from_arrays(cls, n, k, E, C):
        """The map with terms ``C[t] * x**E[t]`` in components ``k[t]``;
        exponents are not checked."""
        F = cls.__new__(cls)
        F.n = int(n)
        F._set_table(zip(zip(k.tolist(), map(tuple, E.tolist())), C.tolist()))
        return F

    def _set_table(self, terms):
        # ((component, exponents), coeff) pairs: like terms summed with one
        # rounding (fsum), so cancelling coefficients lose nothing more
        merged = {}
        for key, c in terms:
            merged.setdefault(key, []).append(c)
        table = sorted((key, c) for key, c in
                       ((key, _fsum(cs)) for key, cs in merged.items()) if c != 0.0)
        self.k = np.array([i for (i, _), _ in table], dtype=np.intp)
        self.E = np.array([e for (_, e), _ in table], dtype=float).reshape(len(table), self.n)
        self.C = np.array([c for _, c in table], dtype=float)
        self.CK = self.C[:, None] * (self.k[:, None] == np.arange(self.n))

    @property
    def K(self):
        return (self.k[:, None] == np.arange(self.n)).astype(float)

    @cached_property
    def CKT(self):
        """CK transposed and contiguous, for the Jacobian's row scaling;
        made on first use, as most maps are never differentiated."""
        return np.ascontiguousarray(self.CK.T)

    @cached_property
    def runs(self):
        """The table's nonzero exponents, term by term, as (columns,
        exponents, starts): term t is the product of x[columns[s]] **
        exponents[s] for s from starts[t] to the next term's start.  The
        factors left out are x_j**0 = 1, so each product, taken left to
        right as multiply.reduce takes the dense row, keeps its bits.  A
        term with no nonzero exponent keeps column 0.  Made on first use,
        in about 10 us, which __call__ on a map evaluated a few times would
        not win back."""
        nz = self.E != 0.0
        nz[:, 0] |= ~nz.any(axis=1)
        if self.n > 1 and nz.sum() == 1:
            # numpy raises a lone element to 2, 0.5 or -1 as x*x, sqrt(x)
            # or 1/x, not by the pow loop that serves the dense row: a
            # second factor of 1 keeps that loop
            nz[0, :2] = True
        t, j = np.nonzero(nz)
        return j, self.E[t, j], np.flatnonzero(np.diff(t, prepend=-1))

    def __call__(self, x):
        """F at a point (n,) or at each row of a batch (m, n); 0**0 is 1.

        The dense table serves batches and one-off points; the integrator
        takes fast_evaluator, on the runs.  multiply.reduce and ndarray.dot
        cost less per call than np.prod and @.
        """
        return np.multiply.reduce(x[..., None, :] ** self.E, axis=-1).dot(self.CK)

    def __eq__(self, other):
        return (
            isinstance(other, PolyMap) and self.n == other.n
            and np.array_equal(self.k, other.k)
            and np.array_equal(self.E, other.E)
            and np.array_equal(self.C, other.C)
        )

    def __repr__(self):
        return "PolyMap(n=%d, %r)" % (self.n, self.to_json())

    def to_json(self):
        """The document form: per component, a list of {"c": coeff, "e": exponents}."""
        comps = [[] for _ in range(self.n)]
        for i, e, c in zip(self.k.tolist(), self.E.tolist(), self.C.tolist()):
            comps[i].append({"c": c, "e": e})
        return comps

    @property
    def min_exponent(self):
        return float(self.E.min()) if len(self.C) else 0.0

    def is_zero(self):
        return len(self.C) == 0


def fast_evaluator(F: PolyMap):
    """F as the integrator calls it, at a point (n,) or rows (m, n), with
    no validation: each term's product on F.runs, bitwise F(x) with fewer
    powers (each term of the reference system, n = 2, has one or two
    nonzero exponents).  F's exponents must be nonnegative."""
    if F.min_exponent < 0:
        raise FieldError("fast evaluation requires nonnegative exponents")
    cols, e, starts = F.runs
    CK, reduceat = F.CK, np.multiply.reduceat

    def evaluate(x):
        # indexing gathers a point's factors fastest, take a batch's
        return reduceat((x[cols] if x.ndim == 1 else x.take(cols, 1)) ** e,
                        starts, -1).dot(CK)
    return evaluate


def eval_field(F: PolyMap, x) -> np.ndarray:
    """Evaluate F at a point (n,) or a batch of points (m, n) of the
    nonnegative orthant (0^0 evaluates to 1)."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != F.n:
        raise FieldError("point of shape %r, expected (%d,) or (m, %d)" % (x.shape, F.n, F.n))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = F(x)
    finite = np.isfinite(out)
    if not finite.all():
        where = x if x.ndim == 1 else x[~finite.all(axis=1)][0]
        raise FieldError("field value not finite at %r" % (where.tolist(),))
    return out


def jacobian(F: PolyMap, x) -> np.ndarray:
    """Exact analytic Jacobian at a strictly positive point."""
    x = np.asarray(x, dtype=float)
    if x.shape != (F.n,):
        raise FieldError("point of shape %r, expected (%d,)" % (x.shape, F.n))
    if np.any(x <= 0.0):
        raise FieldError("jacobian requires a strictly positive point")
    return field_and_jacobian(F, x)[1]


def field_and_jacobian(F: PolyMap, x):
    """F(x) and its exact Jacobian from one product per term, unchecked: x
    is a strictly positive point (n,), such as an integrator's state.  The
    products are taken on F.runs, as fast_evaluator takes them, so F(x)
    is bitwise the dense table's."""
    cols, e, starts = F.runs
    P = np.multiply.reduceat(x[cols] ** e, starts)
    # d/dx_j of c*prod x^a = a_j * value / x_j, exact for x_j > 0
    return P.dot(F.CK), (F.CKT * P).dot(F.E) / x


def _sample_points(rng, n, count=N_SAMPLES, lo=SAMPLE_RANGE[0], hi=SAMPLE_RANGE[1]):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=(count, n)))


@dataclass
class Verdict:
    status: str
    witness: object = None

    @property
    def certified(self):
        return self.status == CERTIFIED


@dataclass
class StructureReport:
    cooperative: Verdict = None
    nondecreasing: Verdict = None
    homogeneity_f: object = None
    homogeneity_g: object = None
    omega: dict = field(default_factory=dict)

    def to_dict(self):
        # the witness as it is: the report's encoder makes it JSON
        def enc(v):
            if isinstance(v, Verdict):
                return {"status": v.status, "witness": v.witness}
            return v

        return {
            "cooperative": enc(self.cooperative),
            "nondecreasing": enc(self.nondecreasing),
            "homogeneity_f": enc(self.homogeneity_f),
            "homogeneity_g": enc(self.homogeneity_g),
            "omega": {str(k): enc(v) for k, v in self.omega.items()},
        }


def cooperative_signs(F: PolyMap) -> bool:
    """Whether F's sign pattern makes its Jacobian Metzler on the open
    positive orthant: every monomial of component i that depends on x_j
    (j != i) has nonnegative coefficient."""
    cross = np.any((F.E > 0) & (F.K == 0), axis=1)
    return not np.any((F.C < 0) & cross)


def _sampled_jacobians(F: PolyMap, rng, off_diagonal) -> Verdict:
    """Refuted, with (i, j, x), at the first sampled x where entry (i, j) of
    F's Jacobian, off its diagonal if off_diagonal, is below -TOL_COOP."""
    for x in _sample_points(rng, F.n):
        J = jacobian(F, x)
        if off_diagonal:
            J = J - np.diag(np.diag(J))
        if J.min() < -TOL_COOP:
            i, j = np.unravel_index(np.argmin(J), J.shape)
            return Verdict(REFUTED, witness=(int(i), int(j), x.copy()))
    return Verdict(UNDECIDED)


def check_cooperative(F: PolyMap, rng=None) -> Verdict:
    """Off-diagonal Jacobian nonnegativity on the open positive orthant.

    Symbolic sufficient rule: cooperative_signs.  Mixed-sign cases fall
    back to sampled Jacobians and can only be refuted, never certified.
    """
    if cooperative_signs(F):
        return Verdict(CERTIFIED)
    return _sampled_jacobians(F, rng or np.random.default_rng(0), True)


def check_nondecreasing(G: PolyMap, rng=None) -> Verdict:
    """Componentwise monotonicity of G on the nonnegative orthant."""
    if np.all(G.C >= 0):
        return Verdict(CERTIFIED)
    return _sampled_jacobians(G, rng or np.random.default_rng(1), False)


@dataclass(frozen=True)
class DilationMap:
    """Anisotropic scaling weights r > 0: x_i -> lam**r_i * x_i."""

    r: tuple

    def __post_init__(self):
        object.__setattr__(self, "r", tuple(float(v) for v in self.r))
        if any(v <= 0 for v in self.r):
            raise FieldError("dilation weights must be strictly positive")

    def __len__(self):
        return len(self.r)


NOT_HOMOGENEOUS = "not_homogeneous"


def homogeneity_degree(F: PolyMap, r: DilationMap):
    """Degree p such that F(dilate(lam, x)) = lam**p * dilate(lam, F(x)).

    For a monomial c*x^a in component i this holds iff
    sum_j a_j r_j == p + r_i, so the degree is read off the exponents.
    Returns the shared p, or (NOT_HOMOGENEOUS, (component, monomial_index))
    on the first violation.
    """
    if len(r) != F.n:
        raise FieldError("dilation of length %d for an n=%d map" % (len(r), F.n))
    if F.is_zero():
        raise FieldError("homogeneity degree of the zero map is undefined")
    rv = np.asarray(r.r)
    cand = F.E @ rv - rv[F.k]
    bad = np.flatnonzero(np.abs(cand - cand[0]) > TOL_HOM)
    if len(bad):
        t, i = int(bad[0]), int(F.k[bad[0]])
        return (NOT_HOMOGENEOUS, (i, t - int(np.searchsorted(F.k, i))))
    p = float(cand[0])
    if p < -TOL_HOM:
        return (NOT_HOMOGENEOUS, None)
    return max(p, 0.0)


def check_omega_condition(G: PolyMap, i, rng=None) -> Verdict:
    """Is g_i(x)/x_i bounded below by a positive function of the other
    coordinates?

    On a row with positive coefficients this is exact in the row's
    exponents a_t of x_i, compared with TOL_HOM: certified iff
    min a_t <= 1 <= max a_t (weighted AM-GM on one term each side of 1).
    Otherwise the ratio goes to 0 as x_i -> 0 (every a_t > 1) or as
    x_i -> inf (every a_t < 1); the witness names that end and the range
    [min a_t, max a_t].  An empty row (g_i = 0) is refuted.  A row with a
    negative coefficient is swept instead: x_i over [1e-6, 1e6] with the
    other coordinates frozen at sampled points, refuted when the ratio
    turns negative or vanishes at either end, else undecided; a sampled
    point whose sweep overflows decides nothing.
    """
    if not 0 <= i < G.n:
        raise FieldError("component index %d out of range" % i)
    own = G.k == i
    if np.all(G.C[own] > 0):
        a = G.E[own, i].tolist()
        if not a:
            return Verdict(REFUTED, witness={"end": "0", "exponents": []})
        lo, hi = min(a), max(a)
        if lo <= 1.0 + TOL_HOM and hi >= 1.0 - TOL_HOM:
            return Verdict(CERTIFIED)
        return Verdict(REFUTED, witness={"end": "0" if lo > 1.0 else "inf",
                                         "exponents": [lo, hi]})
    rng = rng or np.random.default_rng(2)
    sweep = np.logspace(-6, 6, 25)
    for base in _sample_points(rng, G.n, count=8, lo=0.1, hi=10.0):
        X = np.tile(base, (len(sweep), 1))
        X[:, i] = sweep
        # unchecked, unlike eval_field: an overflow is skipped below
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ratios = G(X)[:, i] / sweep
        if not np.all(np.isfinite(ratios)):
            continue
        if ratios.min() < -TOL_COOP:
            return Verdict(REFUTED, witness=X[int(np.argmin(ratios))])
        mid = abs(ratios[len(sweep) // 2])
        for idx in (0, len(sweep) - 1):
            if abs(ratios[idx]) <= 1e-6 * max(mid, 1e-30):
                return Verdict(REFUTED, witness=X[idx])
    return Verdict(UNDECIDED)
