"""Seeded generators for random test systems.

Used by the property suites: homogeneous exponent vectors are built by
scaling random nonnegative directions onto the plane
sum_j a_j r_j = p + r_i, so the generated maps are exactly homogeneous of
the requested degree by construction.
"""

from __future__ import annotations

import numpy as np

from mustab.fields import DilationMap, PolyMap


def random_dilation(rng, n, lo=0.5, hi=3.0) -> DilationMap:
    return DilationMap(tuple(rng.uniform(lo, hi, size=n)))


def _homogeneous_exponents(rng, n, r, i, p):
    """Random exponent vector with sum_j a_j r_j = p + r_i."""
    target = p + r[i]
    u = rng.uniform(0.1, 1.0, size=n)
    return tuple(u * target / float(np.dot(u, r)))


def random_homogeneous_cooperative(rng, n, r: DilationMap, p, terms=3) -> PolyMap:
    """Cooperative field, homogeneous of degree p w.r.t. r: every monomial
    that touches another coordinate has a positive coefficient; one
    diagonal-only monomial per component may be negative."""
    rv = np.asarray(r.r)
    comps = []
    for i in range(n):
        mons = []
        # negative self-term (keeps the field dissipative-looking)
        diag = [0.0] * n
        diag[i] = (p + rv[i]) / rv[i]
        mons.append((-rng.uniform(1.0, 5.0), diag))
        for _ in range(terms - 1):
            mons.append(
                (rng.uniform(0.1, 1.0), _homogeneous_exponents(rng, n, rv, i, p))
            )
        comps.append(mons)
    return PolyMap(n, comps)


def random_homogeneous_nondecreasing(rng, n, r: DilationMap, p, terms=2,
                                     with_omega=True) -> PolyMap:
    """Nonnegative-coefficient field, homogeneous of degree p w.r.t. r.

    With ``with_omega`` each component gets a monomial exactly linear in its
    own coordinate (remaining weight spread over the others), so the
    lower-bound hypothesis of the transform's monotonicity lemma holds.
    """
    rv = np.asarray(r.r)
    comps = []
    for i in range(n):
        mons = []
        if with_omega:
            a = np.zeros(n)
            a[i] = 1.0
            rest = p  # remaining weighted exponent mass
            if rest > 0:
                if n > 1:
                    u = rng.uniform(0.1, 1.0, size=n)
                    u[i] = 0.0
                    a += u * rest / float(np.dot(u, rv))
                else:
                    # single coordinate: cannot stay linear in x_i unless p=0
                    a[i] = (p + rv[i]) / rv[i]
            mons.append((rng.uniform(0.1, 1.0), tuple(a)))
        for _ in range(terms - (1 if with_omega else 0)):
            # keep the own-coordinate exponent at least (r_i - 1)/r_i so the
            # transformed term has a nonnegative self-exponent; below that the
            # transformed component can genuinely fail to be monotone
            a = np.zeros(n)
            a[i] = max(rv[i] - 1.0, 0.0) / rv[i]
            rest = p + rv[i] - a[i] * rv[i]
            u = rng.uniform(0.1, 1.0, size=n)
            a = a + u * rest / float(np.dot(u, rv))
            mons.append((rng.uniform(0.1, 1.0), tuple(a)))
        comps.append(mons)
    return PolyMap(n, comps)


def random_stable_linear_metzler(rng, n, dominance=1.0):
    """Linear system pair (f, g) = (A x, B x) with A strictly diagonally
    dominant against both the off-diagonal of A and the row sums of B, so
    the unit weight vector already has negative margins."""
    A = rng.uniform(0.0, 1.0, size=(n, n))
    B = rng.uniform(0.0, 1.0, size=(n, n))
    for i in range(n):
        off = A[i].sum() - A[i, i] + B[i].sum()
        A[i, i] = -(off + rng.uniform(dominance, 2 * dominance))

    def linear_map(M):
        comps = []
        for i in range(n):
            mons = []
            for j in range(n):
                if M[i, j] != 0.0:
                    e = [0.0] * n
                    e[j] = 1.0
                    mons.append((M[i, j], e))
            comps.append(mons)
        return PolyMap(n, comps)

    return linear_map(A), linear_map(B)
