import numpy as np

from mustab.fields import CERTIFIED, DilationMap, PolyMap, Verdict, eval_field
from mustab.fields import _sample_points, check_omega_condition
from mustab.transform import (
    build_transformed_system,
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


def paper_f():
    return PolyMap(2, [
        [(-5.0, (3, 0)), (2.0, (1, 1))],
        [(1.0, (2, 1)), (-4.0, (0, 2))],
    ])


def paper_g():
    return PolyMap(2, [
        [(1.0, (1, 1))],
        [(2.0, (4, 0))],
    ])


R12 = DilationMap((1.0, 2.0))


class TestTransformField:
    def test_paper_fbar_exact(self):
        fbar, flags = transform_field(paper_f(), R12)
        # component 1 unchanged (r_1 = 1), component 2 is z1^2 z2 - 4 z2^3
        expect = PolyMap(2, [
            [(-5.0, (3, 0)), (2.0, (1, 2))],
            [(1.0, (2, 1)), (-4.0, (0, 3))],
        ])
        assert fbar == expect
        assert flags == ()

    def test_terms_that_round_together_merge(self):
        # 3.7 and the next float both scale to 1.11 under r = 0.3
        a = 3.7
        F = PolyMap(2, [[], [(1.0, (a, 0.0)), (2.0, (np.nextafter(a, 4.0), 0.0))]])
        fbar, _ = transform_field(F, DilationMap((0.3, 1.0)))
        assert fbar == PolyMap(2, [[], [(3.0, (a * 0.3, 0.0))]])
        # 1 and u = 1 + 2**-52 both map to 0.5 * a_1 + 0.5 = 1 under r_1 = 0.5
        u = 1.0 + 2.0 ** -52
        F = PolyMap(2, [[(2.0, (1.0, 0.0)), (-1.0, (u, 0.0))], []])
        fbar, _ = transform_field(F, DilationMap((0.5, 1.0)))
        assert fbar.E.tolist() == [[1.0, 0.0]] and fbar.C.tolist() == [1.0]
        assert np.array_equal(fbar.CK, [[1.0, 0.0]])

    def test_terms_that_round_into_a_tie_reorder(self):
        # (1, 2) sorts before (u, 1), but u's row rounds to (1, 1), which
        # sorts before (1, 2): the transformed table must be sorted again
        u = 1.0 + 2.0 ** -52
        F = PolyMap(2, [[(-1.0, (1.0, 2.0)), (2.0, (u, 1.0))], []])
        assert F.E.tolist() == [[1.0, 2.0], [u, 1.0]]
        fbar, _ = transform_field(F, DilationMap((0.5, 1.0)))
        assert fbar.E.tolist() == [[1.0, 1.0], [1.0, 2.0]]
        assert fbar.C.tolist() == [2.0, -1.0]
        assert np.array_equal(fbar.CK, [[2.0, 0.0], [-1.0, 0.0]])

    def test_paper_gbar_exact_with_flag(self):
        gbar, flags = transform_field(paper_g(), R12)
        expect = PolyMap(2, [
            [(1.0, (1, 2))],
            [(2.0, (4, -1))],
        ], allow_negative_exponents=True)
        assert gbar == expect
        assert flags == (1,)

    def test_exponents_match_per_term_formula(self):
        # b_j = a_j r_j for j != i and b_i = a_i r_i + (1 - r_i), bit for bit,
        # and the table (with CK) the one merging and sorting those terms
        # gives, whether the transform keeps F's order or sorts again:
        # exponents on a grid, which repeat, and weights that include 0.5
        rng = np.random.default_rng(8)
        cases = [(n, False) for n in (1, 2, 4)] + [(n, True) for n in range(1, 7)] * 20
        for n, grid in cases:
            if grid:
                r = DilationMap(tuple(rng.choice([0.5, 1.0, 1.5, 2.0, 0.3], size=n)))
                draw = lambda: tuple(rng.integers(0, 7, size=n) / 2.0)
            else:
                r = DilationMap(tuple(rng.uniform(0.3, 3.0, size=n)))
                draw = lambda: tuple(rng.uniform(0.0, 3.0, size=n))
            comps = [[(rng.normal(), draw()) for _ in range(4)] for _ in range(n)]
            expect = []
            for i, terms in enumerate(comps):
                rows = []
                for c, a in terms:
                    b = [aj * r.r[j] for j, aj in enumerate(a)]
                    b[i] += 1.0 - r.r[i]
                    rows.append((c, b))
                expect.append(rows)
            fbar, _ = transform_field(PolyMap(n, comps), r)
            merged = PolyMap(n, expect, allow_negative_exponents=True)
            for name in ("k", "E", "C", "CK"):
                assert np.array_equal(getattr(fbar, name), getattr(merged, name))

    def test_quotient_oracle(self):
        # definition check: fbar_i(z) == f_i(z^r) / z_i^(r_i - 1)
        rng = np.random.default_rng(7)
        for F in (paper_f(), paper_g()):
            fbar, _ = transform_field(F, R12)
            rv = np.asarray(R12.r)
            for _ in range(100):
                z = rng.uniform(0.1, 10.0, size=2)
                direct = eval_field(F, z ** rv) / z ** (rv - 1.0)
                assert np.allclose(eval_field(fbar, z), direct, rtol=1e-10)

    def test_unit_weights_identity(self):
        r1 = DilationMap((1.0, 1.0))
        fbar, flags = transform_field(paper_f(), r1)
        assert fbar == paper_f()
        assert flags == ()


class TestTransformedSystem:
    def test_build_and_serialize(self):
        tsys = build_transformed_system(paper_f(), paper_g(), R12, 2.0)
        d = tsys.to_dict()
        assert d["p"] == 2.0
        assert d["gbar_negative_exponent_components"] == [1]
        assert d["r"] == [1.0, 2.0]


class TestLemmaSuites:
    def test_lemma1_paper_system(self):
        rep = verify_lemma1(paper_f(), R12, 2.0, trials=100)
        assert rep.passed

    def test_lemma1_random_systems(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            r = random_dilation(rng, n)
            p = float(rng.uniform(0.0, 2.0))
            F = random_homogeneous_cooperative(rng, n, r, p)
            assert verify_lemma1(F, r, p, trials=50, rng=rng).passed

    def test_lemma2_cooperative(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            r = random_dilation(rng, n)
            F = random_homogeneous_cooperative(rng, n, r, float(rng.uniform(0, 2)))
            assert verify_lemma2(F, r, trials=50, rng=rng).passed

    def test_lemma3_with_omega(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            r = random_dilation(rng, n)
            G = random_homogeneous_nondecreasing(rng, n, r, float(rng.uniform(0, 2)))
            omega = {i: check_omega_condition(G, i, rng=rng) for i in range(n)}
            rep = verify_lemma3(G, r, omega, trials=50, rng=rng)
            assert rep.passed

    def test_lemma3_excludes_uncertified_components(self):
        g = paper_g()
        omega = {i: check_omega_condition(g, i) for i in range(2)}
        rep = verify_lemma3(g, R12, omega, trials=50)
        assert rep.passed
        assert rep.excluded_components == (1,)


def suite_points(rng, count, n):
    return np.exp(rng.uniform(np.log(1e-2), np.log(1e2), size=(count, n)))


class TestLemmaSuitesAgainstLoops:
    """The batched suites return the first failing trial of the loop that
    draws and evaluates one trial at a time."""

    def test_lemma1(self):
        F = PolyMap(1, [[(1.0, (1.0,)), (1e-12, (3.0,))]])  # fails for large z only
        rng = np.random.default_rng(13)
        Z = suite_points(rng, 100, 1)
        lam = [rng.uniform(0.5, 2.0) for _ in Z]

        def fails(t):
            lhs = eval_field(F, lam[t] * Z[t])
            return np.any(np.abs(lhs - lam[t] * eval_field(F, Z[t])) > 1e-9 * (1.0 + np.abs(lhs)))

        first = next(t for t in range(100) if fails(t))
        assert first > 0
        rep = verify_lemma1(F, DilationMap((1.0,)), 0.0, trials=100, rng=np.random.default_rng(13))
        assert np.array_equal(rep.witness[0], Z[first]) and rep.witness[1] == lam[first]

    def test_lemma2(self):
        F = PolyMap(2, [[(1.0, (0, 1)), (-1.0, (0, 2))], [(1.0, (1, 0))]])
        rng = np.random.default_rng(14)
        Z = suite_points(rng, 100, 2)
        # every trial's pinned coordinate first, then every trial's factors
        own = [int(rng.integers(2)) for _ in Z]
        draws = []
        for z, i in zip(Z, own):
            w = z * rng.uniform(0.0, 1.0, size=2)
            w[i] = z[i]
            draws.append((i, w))
        first = next(t for t, (i, w) in enumerate(draws)
                     if eval_field(F, Z[t])[i] < eval_field(F, w)[i] - 1e-12)
        assert first > 0
        gen = np.random.default_rng(14)
        rep = verify_lemma2(F, DilationMap((1.0, 1.0)), trials=100, rng=gen)
        i, z, w = rep.witness
        assert i == draws[first][0]
        assert np.array_equal(z, Z[first]) and np.array_equal(w, draws[first][1])
        # two bulk draws after the points, and nothing more
        twin = np.random.default_rng(14)
        _sample_points(twin, 2, 100, 1e-2, 1e2)
        twin.integers(2, size=100)
        twin.uniform(size=(100, 2))
        assert gen.random() == twin.random()

    def test_lemma3(self):
        G = PolyMap(2, [[(1.0, (1, 0)), (1.0, (0, 1)), (-1.0, (0, 2))], [(1.0, (0, 1))]])
        rng = np.random.default_rng(16)
        Z = suite_points(rng, 100, 2)
        W = [z * rng.uniform(0.0, 1.0, size=2) for z in Z]
        first = next((i, t) for t in range(100) for i in (0, 1)
                     if eval_field(G, Z[t])[i] < eval_field(G, W[t])[i] - 1e-12)
        assert first[1] > 0
        omega = {0: Verdict(CERTIFIED), 1: Verdict(CERTIFIED)}
        rep = verify_lemma3(G, DilationMap((1.0, 1.0)), omega, trials=100,
                            rng=np.random.default_rng(16))
        i, z, w = rep.witness
        assert i == first[0]
        assert np.array_equal(z, Z[first[1]]) and np.array_equal(w, W[first[1]])
