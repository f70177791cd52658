import warnings

import numpy as np
import pytest

from densreg.basis import (
    EffectDesign,
    bspline_eval,
    bspline_knots,
    calibrate_df,
    density_basis,
    difference_penalty,
    effective_df,
    sum_to_zero_transform,
)
from densreg.bayes import ClrElement, clr_inv
from densreg.measure import make_discrete, make_mixed

from conftest import make_continuous, mixed_concatenated_basis

from bayes_oracle import constant_density, perturb, power
from boosting_oracle import stacked_penalty


def cox_de_boor(knots, degree, i, x):
    """Recursive B-spline evaluation, used as an independent reference."""
    if degree == 0:
        # treat the last interval as closed on the right
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    left = 0.0
    if knots[i + degree] > knots[i]:
        left = (x - knots[i]) / (knots[i + degree] - knots[i]) * cox_de_boor(
            knots, degree - 1, i, x
        )
    right = 0.0
    if knots[i + degree + 1] > knots[i + 1]:
        right = (knots[i + degree + 1] - x) / (
            knots[i + degree + 1] - knots[i + 1]
        ) * cox_de_boor(knots, degree - 1, i + 1, x)
    return left + right


class TestBsplineEval:
    def test_degree_zero_is_indicator(self):
        knots = bspline_knots(0, 1, 3, 0)
        mat = bspline_eval(knots, 0, [0.1, 0.3, 0.6, 0.9])
        assert mat.shape == (4, 4)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0)
        assert np.all((mat == 0) | (mat == 1))

    def test_partition_of_unity(self):
        rng = np.random.default_rng(0)
        knots = bspline_knots(0, 1, 8, 3)
        pts = rng.uniform(0, 1, size=50)
        mat = bspline_eval(knots, 3, pts)
        np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)

    def test_against_recursion(self):
        knots = bspline_knots(0.0, 1.0, 5, 3)
        pts = np.concatenate([np.linspace(0, 1, 9), knots[4:-4]])
        mat = bspline_eval(knots, 3, pts)
        n_basis = mat.shape[1]
        expected = np.array(
            [[cox_de_boor(knots, 3, i, x) for i in range(n_basis)] for x in pts]
        )
        np.testing.assert_allclose(mat, expected, atol=1e-12)

    @pytest.mark.parametrize("span", [(1.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_infinite_knot_span_rejected(self, span):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="knot span must be finite"):
                bspline_knots(*span, 2, 3)

    def test_outside_span_rejected(self):
        knots = bspline_knots(0, 1, 4, 3)
        with pytest.raises(ValueError, match="span"):
            bspline_eval(knots, 3, [1.2])

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    @pytest.mark.parametrize("n_interior", [0, 1, 7])
    @pytest.mark.parametrize("span", [(0.0, 1.0), (1990.0, 2021.0)])
    def test_equals_scipy_design_matrix(self, degree, n_interior, span):
        from scipy.interpolate import BSpline

        knots = bspline_knots(*span, n_interior, degree)
        pts = np.concatenate([
            np.random.default_rng(degree).uniform(*span, size=200), knots, list(span)
        ])
        got = bspline_eval(knots, degree, pts)
        expected = BSpline.design_matrix(pts, knots, degree).toarray()
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected)

    def test_knot_vector_checks(self):
        knots = bspline_knots(0, 1, 2, 3)
        for bad in (np.r_[knots[:-1], np.nan], np.r_[knots[:-1], -1.0], knots[:7], knots[:3]):
            with pytest.raises(ValueError, match="knots"):
                bspline_eval(bad, 3, [0.0])
        with pytest.raises(ValueError, match="finite"):
            bspline_eval(knots, 3, [np.nan])


class TestDifferencePenalty:
    def test_first_order_by_hand(self):
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        np.testing.assert_allclose(difference_penalty(3, 1), expected)

    def test_constant_in_nullspace(self):
        for r in (1, 2):
            p = difference_penalty(6, r)
            np.testing.assert_allclose(p @ np.ones(6), 0.0, atol=1e-12)

    def test_linear_ramp_in_second_order_nullspace(self):
        p = difference_penalty(6, 2)
        np.testing.assert_allclose(p @ np.arange(6.0), 0.0, atol=1e-12)
        assert np.linalg.matrix_rank(p) == 4


class TestSumToZero:
    def test_constraint_row_annihilated(self):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 40)
        rng = np.random.default_rng(1)
        raw = rng.normal(size=(m.size, 7))
        z, constrained = sum_to_zero_transform(raw, m)
        c = m.weights @ raw
        np.testing.assert_allclose(c @ z, 0.0, atol=1e-12)
        np.testing.assert_allclose(m.weights @ constrained, 0.0, atol=1e-12)

    def test_orthonormal_columns(self):
        m = make_continuous(0, 1, 30)
        raw = np.random.default_rng(2).normal(size=(m.size, 5))
        z, _ = sum_to_zero_transform(raw, m)
        np.testing.assert_allclose(z.T @ z, np.eye(4), atol=1e-12)

    def test_spans_centered_column(self):
        m = make_discrete([(0, 1), (1, 1)])
        raw = np.array([[1.0, 1.0], [1.0, -1.0]])
        z, constrained = sum_to_zero_transform(raw, m)
        # the centered column survives up to sign
        assert constrained.shape == (2, 1)
        np.testing.assert_allclose(np.abs(constrained[:, 0]), [1.0, 1.0], atol=1e-12)

    def test_congruence_preserves_psd(self):
        rng = np.random.default_rng(3)
        m = make_continuous(0, 1, 20)
        raw = rng.normal(size=(m.size, 6))
        z, _ = sum_to_zero_transform(raw, m)
        a = rng.normal(size=(6, 6))
        psd = a.T @ a
        transformed = z.T @ psd @ z
        eigs = np.linalg.eigvalsh(transformed)
        np.testing.assert_allclose(transformed, transformed.T, atol=1e-12)
        assert eigs.min() > -1e-10

    def test_degenerate_rejected(self):
        m = make_discrete([(0, 1), (1, 1)])
        raw = np.array([[1.0], [-1.0]])  # integrates to zero already
        with pytest.raises(ValueError, match="degenerate"):
            sum_to_zero_transform(raw, m)


class TestDensityBases:
    @pytest.mark.parametrize(
        "maker",
        [
            lambda: (make_continuous(0, 1, 50), lambda m: density_basis(m, 8, 3, 2)),
            lambda: (make_discrete([(0, 1), (0.5, 1), (1, 1)]), lambda m: density_basis(m, 10, 3, 2)),
            lambda: (make_mixed(0, 1, [(0, 1), (1, 1)], 50), lambda m: mixed_concatenated_basis(m, 8)),
        ],
    )
    def test_zero_integral_columns(self, maker):
        m, build = maker()
        basis = build(m)
        integrals = m.weights @ basis.clr_matrix
        np.testing.assert_allclose(integrals, 0.0, atol=1e-10)

    def test_penalty_symmetric_psd(self):
        m = make_continuous(0, 1, 40)
        basis = density_basis(m, 10, 3, 2)
        np.testing.assert_allclose(basis.penalty, basis.penalty.T, atol=1e-12)
        assert np.linalg.eigvalsh(basis.penalty).min() > -1e-10

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_continuous_kind(self, order):
        m = make_continuous(0, 1, 40)
        basis = density_basis(m, 6, 2, order)
        splines = bspline_eval(bspline_knots(0, 1, 6, 2), 2, m.grid)
        z, _ = sum_to_zero_transform(splines, m)
        # the zero-integral combinations of the degree-2 B-splines on the grid
        assert basis.n_basis == 6 + 2
        np.testing.assert_array_equal(basis.clr_matrix, splines @ z)
        np.testing.assert_array_equal(basis.penalty, z.T @ difference_penalty(9, order) @ z)

    @pytest.mark.parametrize("atoms", [2, 4])
    def test_discrete_kind_ignores_penalty_order(self, atoms):
        m = make_discrete([(float(i), 1.0 + i) for i in range(atoms)])
        basis = density_basis(m, 6, 2, 3)
        z, _ = sum_to_zero_transform(np.eye(atoms), m)
        # the zero-integral combinations of the atom indicators
        assert basis.n_basis == atoms - 1
        np.testing.assert_array_equal(basis.clr_matrix, z)
        np.testing.assert_array_equal(basis.penalty, z.T @ difference_penalty(atoms, 1) @ z)

    def test_mixed_measure_refused(self):
        with pytest.raises(ValueError, match="component measures"):
            density_basis(make_mixed(0, 1, [(0, 1), (1, 1)], 50), 6, 3, 2)


class TestAssembleEffect:
    def test_intercept_penalty_reduces_to_density_direction(self):
        m = make_continuous(0, 1, 30)
        basis = density_basis(m, 6, 3, 2)
        eff = EffectDesign(np.ones((10, 1)), np.zeros((1, 1)), basis, 1.7, 2.5)
        np.testing.assert_allclose(stacked_penalty(eff), 2.5 * basis.penalty, atol=1e-12)

    def test_penalty_shape_checked(self):
        basis = density_basis(make_continuous(0, 1, 30), 6, 3, 2)
        with pytest.raises(ValueError, match="covariate penalty must match"):
            EffectDesign(np.ones((10, 4)), np.eye(3), basis, 1.0, 0.0)

    def test_zero_density_smoothing(self):
        m = make_continuous(0, 1, 30)
        basis = density_basis(m, 6, 3, 2)
        p_cov = difference_penalty(4, 2)
        eff = EffectDesign(np.random.default_rng(4).normal(size=(10, 4)), p_cov, basis, 3.0, 0.0)
        k_y = basis.n_basis
        np.testing.assert_allclose(
            stacked_penalty(eff), 3.0 * np.kron(p_cov, np.eye(k_y)), atol=1e-12
        )

    def test_kronecker_row_matches_naive_double_sum(self):
        rng = np.random.default_rng(5)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 20)
        basis = mixed_concatenated_basis(m, 4)
        x_row = rng.normal(size=3)
        coef = rng.normal(size=(3, basis.n_basis))
        # matrix route: row of the design applied to the coefficient matrix
        surface = x_row @ coef @ basis.clr_matrix.T
        # naive route: sum of scaled basis densities in the density space
        acc = constant_density(m)
        for n in range(3):
            for k in range(basis.n_basis):
                col = clr_inv(ClrElement(m, basis.clr_matrix[:, k]))
                acc = perturb(acc, power(x_row[n] * coef[n, k], col))
        from densreg.bayes import clr

        np.testing.assert_allclose(clr(acc).values, surface, atol=1e-10)


class TestCalibrateDf:
    def test_ridge_limits(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(50, 5))
        gram = x.T @ x
        assert effective_df(gram, np.eye(5), 1e12) < 1e-6
        assert effective_df(gram, np.eye(5), 1e-12) == pytest.approx(5.0, abs=1e-6)

    def test_unpenalized_full_rank_df_is_column_count(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(30, 4))
        lam, df = calibrate_df(x, np.eye(4), 4.0)
        assert lam == 0.0 and df == pytest.approx(4.0, abs=1e-3)
        assert effective_df(x.T @ x, np.eye(4), lam) == pytest.approx(4.0, abs=1e-3)

    def test_target_met_and_monotone(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(60, 8))
        pen = difference_penalty(8, 2)
        lam, df = calibrate_df(x, pen, 4.0)
        gram = x.T @ x
        assert effective_df(gram, pen, lam) == df == pytest.approx(4.0, abs=2e-4)
        # eigenvalue form of the trace as an independent check
        from scipy.linalg import eigh

        d = eigh(pen, gram, eigvals_only=True)
        assert np.sum(1.0 / (1.0 + lam * d)) == pytest.approx(4.0, abs=2e-4)
        lams = [10.0 ** e for e in range(-6, 7)]
        dfs = [effective_df(gram, pen, l) for l in lams]
        assert all(a >= b - 1e-9 for a, b in zip(dfs, dfs[1:]))

    def test_out_of_range_capped(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(30, 4))
        gram = x.T @ x
        # above the column count: no penalty, and the column rank
        assert calibrate_df(x, np.eye(4), 5.0) == (0.0, 4.0)
        pen = difference_penalty(4, 1)
        # below the nullspace dimension: the df of the penalty-dominated limit
        lam, df = calibrate_df(x, pen, 0.5)
        assert lam > 1.0
        assert df == pytest.approx(effective_df(gram, pen, 1e12), abs=2e-4)
        assert df == pytest.approx(1.0, abs=2e-4)

    def test_unpenalized_df_is_rank_where_the_penalty_outweighs_the_gram(self):
        # three rows of small numbers: the smallest lam of the bracket still
        # shrinks the fit, so its df lies well below the two the fit has
        x = 1e-4 * np.random.default_rng(10).normal(size=(3, 2))
        pen = np.eye(2)
        assert effective_df(x.T @ x, pen, 1e-8) < 1.9
        assert calibrate_df(x, pen, 2.0) == (0.0, 2.0)
        assert calibrate_df(x, pen, 50.0) == (0.0, 2.0)
        # rank-deficient: the df is the rank, not the column count
        x = np.column_stack([x, x[:, 0]])
        assert calibrate_df(x, np.eye(3), 3.0) == (0.0, 2.0)

    def test_zero_penalty_gives_column_rank(self):
        x = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0)])
        assert calibrate_df(x, np.zeros((3, 3)), 1.0) == (0.0, 2.0)
