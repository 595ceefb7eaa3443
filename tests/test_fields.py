import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mustab.fields import (
    CERTIFIED,
    REFUTED,
    UNDECIDED,
    DilationMap,
    FieldError,
    PolyMap,
    check_cooperative,
    check_nondecreasing,
    check_omega_condition,
    eval_field,
    fast_evaluator,
    field_and_jacobian,
    homogeneity_degree,
    jacobian,
    NOT_HOMOGENEOUS,
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


class TestPolyMap:
    def test_like_terms_merge(self):
        F = PolyMap(1, [[(2.0, (3,)), (1.5, (3,)), (1.0, (1,))]])
        assert len(F.C) == 2 and np.all(F.k == 0)
        assert eval_field(F, np.array([2.0]))[0] == pytest.approx(3.5 * 8 + 2.0)

    def test_cancelling_terms_drop(self):
        F = PolyMap(1, [[(1.0, (2,)), (-1.0, (2,))]])
        assert F.is_zero()

    def test_like_terms_sum_with_one_rounding(self):
        # in order, 1e16 + 1 + 1 - 1e16 - 1.5 is -1.5 in floats; it is 0.5
        F = PolyMap(1, [[(1e16, (1,)), (1.0, (1,)), (1.0, (1,)), (-1e16, (1,)), (-1.5, (1,))]])
        assert F.C.tolist() == [0.5]

    def test_like_terms_that_overflow_sum_to_inf(self):
        F = PolyMap(1, [[(1e308, (1,)), (1e308, (1,))]])
        assert F.C.tolist() == [np.inf]

    def test_zero_coefficient_rejected(self):
        with pytest.raises(FieldError, match="^zero-coefficient monomial$"):
            PolyMap(1, [[(0.0, (1,))]])

    def test_negative_exponent_rejected_by_default(self):
        with pytest.raises(FieldError):
            PolyMap(1, [[(1.0, (-1.0,))]])
        # but representable when asked for
        F = PolyMap(1, [[(1.0, (-1.0,))]], allow_negative_exponents=True)
        assert F.min_exponent == -1.0

    def test_dimension_mismatch(self):
        with pytest.raises(FieldError):
            PolyMap(2, [[(1.0, (1,))], []])

    def test_constant_term_uses_zero_power_convention(self):
        F = PolyMap(1, [[(3.0, (0.0,))]])
        assert eval_field(F, np.array([0.0]))[0] == 3.0

    def test_eval_at_origin(self):
        assert np.allclose(eval_field(paper_f(), np.zeros(2)), 0.0)

    def test_eval_paper_point(self):
        # hand-evaluated at (1, 1)
        assert np.allclose(eval_field(paper_f(), np.ones(2)), [-3.0, -3.0])
        assert np.allclose(eval_field(paper_g(), np.ones(2)), [1.0, 2.0])


class TestFastEvaluator:
    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        F = paper_f()
        fe = fast_evaluator(F)
        for _ in range(50):
            x = rng.uniform(0.0, 5.0, size=2)
            assert np.array_equal(fe(x), eval_field(F, x))

    def test_zero_map(self):
        fe = fast_evaluator(PolyMap(2, [[], []]))
        assert np.all(fe(np.ones(2)) == 0.0)

    def test_rejects_negative_exponents(self):
        F = PolyMap(1, [[(1.0, (-1.0,))]], allow_negative_exponents=True)
        with pytest.raises(FieldError):
            fast_evaluator(F)


class TestBatchEvaluation:
    def test_rows_match_points(self):
        # several terms per component; a batch matmul may sum them in
        # another order, so rows agree with points to a few ulps
        rng = np.random.default_rng(6)
        comps = [
            [(rng.normal(), tuple(rng.uniform(0.0, 3.0, size=3))) for _ in range(7)]
            for _ in range(3)
        ]
        comps[0].append((1.5, (0.0, 0.0, 0.0)))  # the origin row then meets 0^0 = 1
        F = PolyMap(3, comps)
        X = rng.uniform(0.0, 5.0, size=(40, 3))
        X[0] = 0.0
        X[1, 2] = 0.0
        got = eval_field(F, X)
        assert got.shape == (40, 3) and got[0, 0] == 1.5
        for x, row in zip(X, got):
            # any order of summing 8 terms is within 7 eps * sum|terms| of the exact sum
            bound = 14 * np.finfo(float).eps * (np.abs(F.C * np.prod(x ** F.E, axis=1)) @ F.K)
            assert np.all(np.abs(row - eval_field(F, x)) <= bound)

    def test_zero_map(self):
        Z = PolyMap(2, [[], []])
        assert np.array_equal(eval_field(Z, np.ones((5, 2))), np.zeros((5, 2)))
        assert np.array_equal(eval_field(Z, np.zeros(2)), np.zeros(2))

    def test_shape_checked(self):
        with pytest.raises(FieldError):
            eval_field(paper_f(), np.ones((4, 3)))
        with pytest.raises(FieldError):
            eval_field(paper_f(), np.ones((2, 2, 2)))

    def test_non_finite_row_named(self):
        F = PolyMap(1, [[(1.0, (-1.0,))]], allow_negative_exponents=True)
        with pytest.raises(FieldError, match=r"\[0\.0\]"):
            eval_field(F, np.array([[1.0], [0.0]]))


class TestJacobian:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(4)
        F = paper_f()
        for _ in range(10):
            x = rng.uniform(0.5, 3.0, size=2)
            J = jacobian(F, x)
            eps = 1e-7
            for j in range(2):
                dx = np.zeros(2)
                dx[j] = eps
                fd = (eval_field(F, x + dx) - eval_field(F, x - dx)) / (2 * eps)
                assert np.allclose(J[:, j], fd, rtol=1e-5, atol=1e-7)

    def test_requires_positive_point(self):
        with pytest.raises(FieldError):
            jacobian(paper_f(), np.array([1.0, 0.0]))

    def test_fused_field_is_the_evaluator_bitwise(self):
        # the integrator takes F(x) from the Jacobian's power table, so it
        # must be bitwise the evaluator's value, or trajectories move
        rng = np.random.default_rng(5)
        maps = [paper_f(), paper_g(), PolyMap(1, [[(-1.0, (2.0,))]]),
                PolyMap(1, [[(0.1, (2.5,)), (-3.0, (1.0,))]])]
        for F in maps:
            for x in rng.uniform(0.01, 3.0, size=(200, F.n)):
                value, J = field_and_jacobian(F, x)
                assert np.array_equal(value, F(x))
                assert np.array_equal(J, jacobian(F, x))


class TestCooperative:
    def test_paper_f_certified(self):
        assert check_cooperative(paper_f()).status == CERTIFIED

    def test_negative_cross_term_refuted(self):
        F = PolyMap(2, [[(-1.0, (0, 1))], [(1.0, (1, 0))]])
        v = check_cooperative(F)
        assert v.status == REFUTED
        i, j, x = v.witness
        assert (i, j) == (0, 1)
        assert jacobian(F, x)[0, 1] < 0

    def test_mixed_sign_can_stay_undecided(self):
        # -x1*x2 + 2*x1*x2 is cooperative but written with a negative term;
        # canonical merging resolves it before the check runs
        F = PolyMap(2, [[(-1.0, (1, 1)), (2.0, (1, 1))], [(1.0, (1, 0))]])
        assert check_cooperative(F).status == CERTIFIED


class TestNondecreasing:
    def test_paper_g_certified(self):
        assert check_nondecreasing(paper_g()).status == CERTIFIED

    def test_decreasing_refuted(self):
        G = PolyMap(1, [[(-1.0, (2.0,))]])
        assert check_nondecreasing(G).status == REFUTED


def dilate(r, lam, x):
    """x_i -> lam**r_i * x_i under the weights r."""
    return np.asarray(x, dtype=float) * lam ** np.asarray(r.r)


class TestDilation:
    def test_weights_must_be_positive(self):
        with pytest.raises(FieldError):
            DilationMap((1.0, 0.0))


class TestHomogeneity:
    def test_paper_system_degree_two(self):
        r = DilationMap((1.0, 2.0))
        assert homogeneity_degree(paper_f(), r) == pytest.approx(2.0)
        assert homogeneity_degree(paper_g(), r) == pytest.approx(2.0)

    def test_scaling_identity(self):
        # the defining relation F(dilate(lam, x)) = lam^p dilate(lam, F(x))
        rng = np.random.default_rng(5)
        F, r = paper_f(), DilationMap((1.0, 2.0))
        p = homogeneity_degree(F, r)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, size=2)
            lam = rng.uniform(0.5, 2.0)
            lhs = eval_field(F, dilate(r, lam, x))
            rhs = lam ** p * dilate(r, lam, eval_field(F, x))
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_violation_reports_witness(self):
        F = PolyMap(2, [[(1.0, (3, 0)), (1.0, (1, 0))], [(1.0, (0, 2))]])
        status, where = homogeneity_degree(F, DilationMap((1.0, 2.0)))
        assert status == NOT_HOMOGENEOUS
        assert where == (0, 1)

    def test_zero_map_rejected(self):
        with pytest.raises(FieldError):
            homogeneity_degree(PolyMap(1, [[]]), DilationMap((1.0,)))


class TestOmegaCondition:
    def test_linear_self_term_certified(self):
        g = paper_g()
        assert check_omega_condition(g, 0).status == CERTIFIED

    def test_no_self_dependence_refuted(self):
        # component 1 is 2*x1^4: ratio g_1/x_2 vanishes as x_2 grows
        g = paper_g()
        assert check_omega_condition(g, 1).status == REFUTED

    def test_superlinear_self_term_refuted(self):
        # x_i^2 is not bounded below by a positive multiple of x_i near 0
        G = PolyMap(1, [[(1.0, (2.0,))]])
        assert check_omega_condition(G, 0).status == REFUTED

    @pytest.mark.parametrize("terms, status, witness", [
        # x^(1/2) + x^2 has no linear term; AM-GM bounds it below by 2 x
        ([(1.0, (0.5,)), (1.0, (2.0,))], CERTIFIED, None),
        ([(1.0, (2.0,)), (3.0, (1.5,))], REFUTED, {"end": "0", "exponents": [1.5, 2.0]}),
        ([(1.0, (0.5,)), (1.0, (0.0,))], REFUTED, {"end": "inf", "exponents": [0.0, 0.5]}),
        ([], REFUTED, {"end": "0", "exponents": []}),
    ], ids=["both-sides", "superlinear", "sublinear", "empty"])
    def test_exact_on_positive_rows(self, terms, status, witness):
        v = check_omega_condition(PolyMap(1, [terms]), 0)
        assert (v.status, v.witness) == (status, witness)

    def test_positive_row_draws_no_sample(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        for i in range(2):
            check_omega_condition(paper_g(), i, rng=rng)
        assert rng.bit_generator.state == state

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, n - 1),
        st.lists(st.tuples(st.floats(0.1, 1.0),
                           st.lists(st.one_of(st.just(1.0), st.floats(0.0, 3.0)),
                                    min_size=n, max_size=n)),
                 min_size=1, max_size=4),
        st.integers(0, 2 ** 32 - 1))))
    def test_exact_rule_agrees_with_a_dense_sweep(self, case):
        n, i, terms, seed = case
        comps = [[] for _ in range(n)]
        comps[i] = terms
        G = PolyMap(n, comps)
        verdict = check_omega_condition(G, i).status
        # g_i/x_i over x_i in [1e-12, 1e12] at 16 bases: an end vanishes when
        # it falls below 1e-9 of the value at x_i = 1 (a row with an exponent
        # on each side of 1 stays above about 1e-7 of it at these bases and
        # coefficients), and is bounded when the ratio does not fall towards it
        sweep = np.logspace(-12, 12, 25)
        vanishes, bounded = False, True
        for base in np.random.default_rng(seed).uniform(0.5, 2.0, size=(16, n)):
            X = np.tile(base, (len(sweep), 1))
            X[:, i] = sweep
            ratio = eval_field(G, X)[:, i] / sweep
            mid = ratio[len(sweep) // 2]
            vanishes |= min(ratio[0], ratio[-1]) <= 1e-9 * mid
            bounded &= ratio[0] >= ratio[1] and ratio[-1] >= ratio[-2]
        if vanishes:
            assert verdict == REFUTED
        elif bounded:
            assert verdict == CERTIFIED

    def test_index_range(self):
        with pytest.raises(FieldError):
            check_omega_condition(paper_g(), 2)
