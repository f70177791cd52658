import json
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from densreg.basis import (
    EffectDesign,
    bspline_eval,
    bspline_knots,
    density_basis,
    difference_penalty,
)
from densreg.bayes import ClrElement, clr, clr_inv, decompose_clr
from densreg.boosting import (
    BoostConfig,
    _boost_paths,
    _learner_systems,
    _smoothers,
    boost,
    boost_from_clr,
    early_stop_from_clr,
)
from densreg.measure import make_discrete, make_mixed
from densreg.model import EffectTerm, ModelSpec, build_designs, fit
from densreg.synth import planted_problem

from bayes_oracle import constant_density, density, equal_b, norm, perturb, subtract
from boosting_oracle import (
    boost_density_space,
    brute_force_boost,
    brute_force_early_stop,
    brute_force_heldout_curve,
    fit_base_learner,
    negative_gradient,
    offset,
    resample_splits,
    select_base_learner,
    stacked_penalty,
)
from conftest import (
    clr_stack,
    mixed_concatenated_basis,
    options,
    random_clr_direction,
    random_density,
)


def center_columns(design, penalty):
    """Sum-to-zero over observations via the nullspace of the column means."""
    q, _ = np.linalg.qr(design.mean(axis=0)[:, None], mode="complete")
    z = q[:, 1:]
    return design @ z, z.T @ penalty @ z


def simple_designs(measure, n, rng, n_effects=2, knots=4):
    """Intercept plus random-covariate flexible designs on the measure."""
    if measure.n_atoms and measure.n_grid:
        basis = mixed_concatenated_basis(measure, knots)
    else:
        basis = density_basis(measure, knots, 3, 2)
    designs = [
        EffectDesign("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0, 0.0)
    ]
    for j in range(1, n_effects):
        x = rng.uniform(0, 1, size=n)
        bx = bspline_eval(bspline_knots(0, 1, 3, 2), 2, x)
        bx, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs.append(EffectDesign(f"flex{j}", bx, pen, basis, 1.0, 0.0))
    return designs


class TestOffset:
    def test_identical_responses(self, mixed_measure):
        rng = np.random.default_rng(0)
        f = random_density(mixed_measure, rng)
        assert equal_b(offset([f, f, f]), f)

    def test_opposite_pair_gives_uniform(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        f = density(m, [0.8, 0.2])
        g = density(m, [0.2, 0.8])
        assert equal_b(offset([f, g]), constant_density(m))

    def test_clr_of_offset_integrates_to_zero(self, mixed_measure):
        rng = np.random.default_rng(1)
        fs = [random_density(mixed_measure, rng) for _ in range(7)]
        z = clr(offset(fs))
        assert abs(z.values @ mixed_measure.weights) < 1e-10


class TestNegativeGradient:
    def test_vanishes_at_fit(self, mixed_measure):
        rng = np.random.default_rng(2)
        y = random_density(mixed_measure, rng)
        u = negative_gradient(y, y)
        assert equal_b(u, constant_density(mixed_measure))

    def test_matches_clr_difference(self, mixed_measure):
        rng = np.random.default_rng(3)
        y = random_density(mixed_measure, rng)
        h = random_density(mixed_measure, rng)
        u = negative_gradient(y, h)
        expected = 2.0 * (clr(y).values - clr(h).values)
        np.testing.assert_allclose(clr(u).values, expected, atol=1e-10)

    def test_finite_difference_directions(self, mixed_measure):
        rng = np.random.default_rng(4)
        y = random_density(mixed_measure, rng)
        h = random_density(mixed_measure, rng)
        u_clr = clr(negative_gradient(y, h)).values
        w = mixed_measure.weights
        eps = 1e-6
        for _ in range(20):
            v = random_clr_direction(mixed_measure, rng)
            step = ClrElement(mixed_measure, eps * v)
            plus = subtract(y, perturb(h, clr_inv(step)))
            minus = subtract(y, perturb(h, clr_inv(ClrElement(mixed_measure, -eps * v))))
            deriv = (norm(plus) ** 2 - norm(minus) ** 2) / (2 * eps)
            analytic = -float((u_clr * v) @ w)
            assert abs(deriv - analytic) < 1e-5 * max(1.0, abs(analytic))


class TestBaseLearner:
    def test_zero_gradient_gives_zero(self, continuous_measure):
        rng = np.random.default_rng(5)
        designs = simple_designs(continuous_measure, 8, rng)
        u = np.zeros((8, continuous_measure.size))
        gamma = fit_base_learner(designs[1], u)
        np.testing.assert_allclose(gamma, 0.0, atol=1e-12)

    def test_interpolates_with_square_invertible_design(self):
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        basis = density_basis(m, 10, 3, 2)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        eff = EffectDesign("e", x, np.zeros((2, 2)), basis, 0.0, 0.0)
        # target surfaces built from the basis itself are recovered exactly
        coef = rng.normal(size=(2, basis.n_basis))
        u = x @ coef @ basis.clr_matrix.T
        gamma = fit_base_learner(eff, u)
        np.testing.assert_allclose(gamma, coef.ravel(), atol=1e-8)

    def test_matches_dense_normal_equation_solve(self, mixed_measure):
        rng = np.random.default_rng(7)
        basis = mixed_concatenated_basis(mixed_measure, 4)
        x = rng.normal(size=(5, 2))
        pen = difference_penalty(2, 1)
        eff = EffectDesign("e", x, pen, basis, 0.7, 0.3)
        u = rng.normal(size=(5, mixed_measure.size))
        gamma = fit_base_learner(eff, u)
        # independent dense construction of the weighted least-squares system
        w = mixed_measure.weights
        rows = []
        targets = []
        for i in range(5):
            block = np.kron(x[i], basis.clr_matrix) * np.sqrt(w)[:, None]
            rows.append(block)
            targets.append(u[i] * np.sqrt(w))
        big = np.vstack(rows)
        t = np.concatenate(targets)
        expected = np.linalg.solve(big.T @ big + stacked_penalty(eff), big.T @ t)
        np.testing.assert_allclose(gamma, expected, atol=1e-8)


class TestSelection:
    def test_single_candidate(self, continuous_measure):
        rng = np.random.default_rng(8)
        designs = simple_designs(continuous_measure, 6, rng, n_effects=1)
        u = rng.normal(size=(6, continuous_measure.size))
        u = u - (u @ continuous_measure.weights)[:, None] / continuous_measure.total_mass
        gammas = [fit_base_learner(designs[0], u)]
        assert select_base_learner(designs, gammas, u) == 0

    def test_exact_reproducer_wins(self, continuous_measure):
        rng = np.random.default_rng(9)
        designs = simple_designs(continuous_measure, 10, rng, n_effects=3)
        basis = designs[1].density_basis
        coef = rng.normal(size=(designs[1].n_cov, basis.n_basis))
        u = designs[1].X @ coef @ basis.clr_matrix.T
        gammas = [fit_base_learner(d, u) for d in designs]
        assert select_base_learner(designs, gammas, u) == 1

    def test_generating_effect_dominates_selection(self, continuous_measure):
        rng = np.random.default_rng(10)
        n = 40
        designs = simple_designs(continuous_measure, n, rng, n_effects=3)
        basis = designs[1].density_basis
        coef = rng.normal(size=(designs[1].n_cov, basis.n_basis))
        y_clr = designs[1].X @ coef @ basis.clr_matrix.T
        y_clr += 0.01 * rng.normal(size=y_clr.shape)
        w = continuous_measure.weights
        y_clr -= ((y_clr * w).sum(axis=1) / w.sum())[:, None]
        state = boost_from_clr(
            y_clr, continuous_measure, designs, BoostConfig(max_iterations=50), m_stop=50
        )
        share = np.mean(np.asarray(state.selections) == 1)
        assert share >= 0.9


class TestBoost:
    def test_intercept_only_noiseless(self, continuous_measure):
        rng = np.random.default_rng(11)
        f = random_density(continuous_measure, rng)
        responses = [f] * 6
        designs = simple_designs(continuous_measure, 6, rng, n_effects=1)
        state = boost(clr_stack(responses), continuous_measure, designs, BoostConfig(max_iterations=20))
        # offset equals the common response, so risk starts and stays at zero
        assert state.risk_path[0] < 1e-16
        assert state.risk_path[-1] < 1e-16

    def test_risk_non_increasing(self, mixed_measure):
        rng = np.random.default_rng(12)
        responses = [random_density(mixed_measure, rng) for _ in range(12)]
        designs = simple_designs(mixed_measure, 12, rng, n_effects=3)
        state = boost(clr_stack(responses), mixed_measure, designs, BoostConfig(max_iterations=60))
        assert np.all(np.diff(state.risk_path) <= 1e-9 * max(1.0, state.risk_path[0]))

    def test_single_block_update_per_iteration(self, continuous_measure):
        rng = np.random.default_rng(13)
        responses = [random_density(continuous_measure, rng) for _ in range(8)]
        designs = simple_designs(continuous_measure, 8, rng, n_effects=3)
        y, cfg = clr_stack(responses), BoostConfig(max_iterations=10)
        fits = [boost_from_clr(y, continuous_measure, designs, cfg, m_stop=m) for m in range(11)]
        # iteration m + 1 moves the selected block only
        for m, (before, after) in enumerate(zip(fits, fits[1:])):
            j = after.selections[m]
            assert after.selections[:m] == before.selections
            assert np.any(after.coefficients[j] != before.coefficients[j])
            for k, (a, b) in enumerate(zip(after.coefficients, before.coefficients)):
                if k != j:
                    np.testing.assert_array_equal(a, b)

    def test_unselected_effects_stay_exactly_zero(self, continuous_measure):
        rng = np.random.default_rng(14)
        f = random_density(continuous_measure, rng)
        responses = [f] * 5
        designs = simple_designs(continuous_measure, 5, rng, n_effects=3)
        state = boost(clr_stack(responses), continuous_measure, designs, BoostConfig(max_iterations=5))
        for j, coef in enumerate(state.coefficients):
            if j not in state.selections:
                assert np.all(coef == 0.0)

    def test_increment_surfaces_stay_zero_integral(self, mixed_measure):
        rng = np.random.default_rng(15)
        responses = [random_density(mixed_measure, rng) for _ in range(6)]
        designs = simple_designs(mixed_measure, 6, rng, n_effects=2)
        y, cfg = clr_stack(responses), BoostConfig(max_iterations=15)
        fits = [boost_from_clr(y, mixed_measure, designs, cfg, m_stop=m) for m in range(16)]
        w = mixed_measure.weights
        for m, (before, after) in enumerate(zip(fits, fits[1:])):
            j = after.selections[m]
            basis = designs[j].density_basis
            step = after.coefficients[j] - before.coefficients[j]
            coef = step.reshape(designs[j].n_cov, basis.n_basis) / cfg.step_length
            surfaces = designs[j].X @ coef @ basis.clr_matrix.T
            assert np.max(np.abs(surfaces)) > 1e-6
            np.testing.assert_allclose(surfaces @ w, 0.0, atol=1e-9)

    def test_smaller_step_dominated_by_larger(self, continuous_measure):
        rng = np.random.default_rng(16)
        responses = [random_density(continuous_measure, rng) for _ in range(10)]
        designs = simple_designs(continuous_measure, 10, rng, n_effects=2)
        y = clr_stack(responses)
        fast = boost(y, continuous_measure, designs, BoostConfig(step_length=0.1, max_iterations=40))
        slow = boost(y, continuous_measure, designs, BoostConfig(step_length=0.05, max_iterations=40))
        assert np.all(slow.risk_path >= fast.risk_path - 1e-9)


class TestDualPathEquivalence:
    @pytest.mark.parametrize("kind", ["discrete", "mixed"])
    def test_paths_agree(self, kind):
        rng = np.random.default_rng(17)
        m = (
            make_discrete([(0, 1), (0.3, 1), (1, 1)])
            if kind == "discrete"
            else make_mixed(0, 1, [(0, 1), (1, 1)], 24)
        )
        n = 12
        responses = [random_density(m, rng) for _ in range(n)]
        designs = simple_designs(m, n, rng, n_effects=3)
        cfg = BoostConfig(max_iterations=40)
        a = boost(clr_stack(responses), m, designs, cfg)
        b = boost_density_space(responses, designs, cfg)
        assert a.selections == b.selections
        for ca, cb in zip(a.coefficients, b.coefficients):
            np.testing.assert_allclose(ca, cb, atol=1e-9)
        np.testing.assert_allclose(a.risk_path, b.risk_path, rtol=1e-9, atol=1e-12)


class TestEarlyStop:
    def test_noiseless_rich_basis_runs_to_limit(self, continuous_measure):
        rng = np.random.default_rng(18)
        n = 12
        basis = density_basis(continuous_measure, 4, 3, 2)
        x = rng.uniform(0, 1, size=n)
        bx = bspline_eval(bspline_knots(0, 1, 1, 2), 2, x)
        bxc, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs = [
            EffectDesign("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0, 0.0),
            EffectDesign("flex", bxc, pen, basis, 1e-8, 0.0),
        ]
        coef = 0.5 * rng.normal(size=(bxc.shape[1], basis.n_basis))
        y_clr = bxc @ coef @ basis.clr_matrix.T
        responses = [
            clr_inv(ClrElement(continuous_measure, row)) for row in y_clr
        ]
        cfg = BoostConfig(max_iterations=25, stopping="cv", folds=3, seed=5)
        result = early_stop_from_clr(clr_stack(responses), continuous_measure, designs, cfg)
        # nothing to overfit, the held-out risk keeps falling
        assert result.m_stop == 25
        assert np.all(np.diff(result.risk_curve) <= 1e-15)

    def test_pure_noise_stops_early(self, continuous_measure):
        rng = np.random.default_rng(19)
        n = 16
        responses = [random_density(continuous_measure, rng) for _ in range(n)]
        designs = simple_designs(continuous_measure, n, rng, n_effects=2)
        cfg = BoostConfig(max_iterations=80, stopping="bootstrap", replicates=10, seed=3)
        result = early_stop_from_clr(clr_stack(responses), continuous_measure, designs, cfg)
        assert result.m_stop < 80
        # held-out risk stops improving early on pure noise
        assert result.risk_curve[result.m_stop] <= result.risk_curve[-1]

    def test_two_fold_oracle_on_four_observations(self):
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        rng = np.random.default_rng(20)
        responses = [random_density(m, rng) for _ in range(4)]
        basis = density_basis(m, 10, 3, 2)
        designs = [
            EffectDesign("intercept", np.ones((4, 1)), np.zeros((1, 1)), basis, 0.0, 0.0)
        ]
        cfg = BoostConfig(max_iterations=6, stopping="cv", folds=2, seed=21)
        result = early_stop_from_clr(clr_stack(responses), m, designs, cfg)

        # hand-rolled two-fold computation with the same fold assignment
        y = np.stack([clr(f).values for f in responses])
        w = m.weights
        perm = np.random.default_rng(21).permutation(4)
        folds = np.array_split(perm, 2)
        curves = []
        for i in (0, 1):
            test = np.sort(folds[i])
            train = np.sort(folds[1 - i])
            off = y[train].mean(axis=0)
            fit_train = np.tile(off, (len(train), 1))
            fit_test = np.tile(off, (len(test), 1))
            b = basis.clr_matrix
            bw = b * w[:, None]
            gram = np.kron(np.ones((1, 1)) * len(train), b.T @ bw)
            curve = [float((((y[test] - fit_test) ** 2) * w).sum()) / len(test)]
            for _ in range(6):
                u = 2.0 * (y[train] - fit_train)
                rhs = (np.ones((1, len(train))) @ u @ bw).ravel()
                gamma = np.linalg.solve(gram, rhs)
                surf = (np.ones((len(train), 1)) @ gamma[None, :]) @ b.T
                fit_train = fit_train + 0.1 * surf
                fit_test = fit_test + 0.1 * np.tile(gamma @ b.T, (len(test), 1))
                curve.append(float((((y[test] - fit_test) ** 2) * w).sum()) / len(test))
            curves.append(curve)
        expected = np.mean(np.array(curves), axis=0)
        np.testing.assert_allclose(result.risk_curve, expected, atol=1e-9)


class TestBoostMixed:
    """Mixed responses through the component loop of ``model.fit``."""

    SPEC = ModelSpec((
        EffectTerm("intercept", "intercept"),
        EffectTerm("flex", "flexible", ("x",), knots=3, degree=2),
    ))
    MEASURE = make_mixed(0, 1, [(0, 1), (1, 1)], 30)

    def _fits(self, rng, y, config):
        data = {"x": rng.uniform(size=len(y))}
        return fit(self.SPEC, data, y, self.MEASURE, config, **options("model", density_knots=5)).fits

    def test_constant_discrete_part(self, ):
        rng = np.random.default_rng(22)
        m = self.MEASURE
        responses = []
        for _ in range(10):
            grid_vals = np.exp(rng.normal(size=30))
            gm = np.exp(np.log(grid_vals) @ m.grid_weights / 1.0)
            values = np.concatenate([[gm, gm], grid_vals])
            responses.append(density(m, values))
        fits = self._fits(rng, clr_stack(responses), BoostConfig(max_iterations=30))
        assert fits.discrete.risk_path[0] < 1e-16

    def test_sse_pythagoras(self):
        rng = np.random.default_rng(23)
        m = self.MEASURE
        y = clr_stack([random_density(m, rng) for _ in range(10)])
        fits = self._fits(rng, y, BoostConfig(max_iterations=25))
        total = float((((y - fits.fitted_clr) ** 2) * m.weights).sum())
        comp = fits.continuous.risk_path[-1] + fits.discrete.risk_path[-1]
        assert abs(total - comp) < 1e-9 * max(1.0, total)

    def test_two_stopping_iterations_reported(self):
        rng = np.random.default_rng(24)
        y = clr_stack([random_density(self.MEASURE, rng) for _ in range(10)])
        fits = self._fits(
            rng, y, BoostConfig(max_iterations=20, stopping="bootstrap", replicates=5, seed=1)
        )
        assert isinstance(fits.m_stop, tuple) and len(fits.m_stop) == 2
        assert fits.continuous.m_stop >= 1 and fits.discrete.m_stop >= 1


def rank_deficient_effect(measure, rng, n):
    """Effect whose penalized normal matrix is singular: plain column-mean
    centering keeps a linear dependency among the partition-of-unity columns."""
    basis = density_basis(measure, 4, 3, 2)
    bx = bspline_eval(bspline_knots(0, 1, 2, 2), 2, rng.uniform(size=n))
    bx = bx - bx.mean(axis=0)
    return EffectDesign("flex", bx, difference_penalty(bx.shape[1], 2), basis, 1.0, 0.0)


def one_system_inverse(gram):
    """The kernel's smoother for a single learner system of one block."""
    inverse, jittered = _smoothers(gram[None])
    return inverse[0], jittered


class TestSingularFallback:
    def test_inverse_matches_scipy_cholesky(self, continuous_measure):
        rng = np.random.default_rng(25)
        basis = density_basis(continuous_measure, 6, 3, 2)
        c = basis.clr_matrix.T @ (basis.clr_matrix * continuous_measure.weights[:, None])
        bx = bspline_eval(bspline_knots(0, 1, 3, 3), 3, rng.uniform(size=40))
        eff = EffectDesign("flex", bx, difference_penalty(bx.shape[1], 2), basis, 0.5, 0.1)
        gram = np.kron(bx.T @ bx, c) + stacked_penalty(eff)
        inverse, jittered = one_system_inverse(gram)
        expected = cho_solve(cho_factor(gram), np.eye(gram.shape[0]))
        assert not jittered
        np.testing.assert_allclose(inverse, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_inverse_as_accurate_as_scipy_on_model_designs(self):
        # on worse-conditioned grams (up to 1e5 here) the two inverses differ
        # by about cond * eps, so require residuals of the same order instead
        m, data, _, _ = planted_problem(seed=0, grid_size=20, n_years=8, **options("planted_problem"))
        spec = ModelSpec((
            EffectTerm("intercept", "intercept"),
            EffectTerm("region", "group_intercept", ("region",)),
            EffectTerm("year", "flexible", ("year",), knots=4),
            EffectTerm("region_year", "group_flexible", ("region", "year"),
                       orthogonal_to=("region", "year")),
        ))
        _, _, designs = build_designs(spec, data, m, **options("model", density_knots=6))
        for d in designs["continuous"] + designs["discrete"]:
            b, w = d.density_basis.clr_matrix, d.density_basis.measure.weights
            gram = np.kron(d.X.T @ d.X, b.T @ (b * w[:, None])) + stacked_penalty(d)
            eye = np.eye(gram.shape[0])
            inverse, jittered = one_system_inverse(gram)
            expected = cho_solve(cho_factor(gram), eye)
            assert not jittered
            assert np.abs(gram @ inverse - eye).max() <= 4 * np.abs(gram @ expected - eye).max() + 1e-15

    def test_singular_gram_is_jittered(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        inverse, jittered = one_system_inverse(gram)
        expected = cho_solve(cho_factor(gram + 1e-10 * np.eye(2)), np.eye(2))
        assert jittered
        np.testing.assert_allclose(inverse, expected, rtol=1e-6)

    def test_jitter_reaches_only_the_failing_learner(self):
        # two learners of two 2 x 2 blocks; one block of the first is singular
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        systems = np.stack([
            np.stack([good, np.ones((2, 2))]),
            np.stack([good, 3.0 * good]),
        ])
        inverse, jittered = _smoothers(systems)
        assert jittered
        ridge = 1e-10 * np.eye(2)
        np.testing.assert_allclose(
            inverse[0], [np.linalg.inv(good + ridge), cho_solve(cho_factor(np.ones((2, 2)) + ridge), np.eye(2))],
            rtol=1e-6,
        )
        np.testing.assert_allclose(inverse[1], [np.linalg.inv(good), np.linalg.inv(3.0 * good)], rtol=1e-12)

    @pytest.mark.parametrize("lambda_density", [0.0, 0.1])
    def test_rotated_blocks_invert_the_learner_system(self, continuous_measure, lambda_density):
        # the kernel's smoother, rotated back, is the inverse of
        # kron(X'X, C) + penalty in the original density coordinates
        rng = np.random.default_rng(28)
        basis = density_basis(continuous_measure, 6, 3, 2)
        c = basis.clr_matrix.T @ (basis.clr_matrix * continuous_measure.weights[:, None])
        bx = bspline_eval(bspline_knots(0, 1, 3, 3), 3, rng.uniform(size=40))
        eff = EffectDesign("flex", bx, difference_penalty(bx.shape[1], 2), basis, 0.5, lambda_density)
        spectrum, rotation = np.linalg.eigh(c)
        density_penalty = rotation.T @ basis.penalty @ rotation
        systems = _learner_systems(
            (bx.T @ bx)[None, None],
            (eff.lambda_cov * eff.cov_penalty)[None],
            (lambda_density * density_penalty)[None] if lambda_density else None,
            spectrum,
        )
        assert systems.shape[2] == (1 if lambda_density else basis.n_basis)
        inverse, jittered = _smoothers(systems)
        assert not jittered
        d, k_y = bx.shape[1], basis.n_basis
        # (block, row, column) with the density index outermost -> a-major
        rotated = np.zeros((k_y, d, k_y, d))
        if lambda_density:
            rotated[...] = inverse[0, 0, 0].reshape(k_y, d, k_y, d)
        else:
            for k in range(k_y):
                rotated[k, :, k, :] = inverse[0, 0, k]
        back = np.kron(np.eye(d), rotation)
        got = back @ rotated.transpose(1, 0, 3, 2).reshape(d * k_y, d * k_y) @ back.T
        gram = np.kron(bx.T @ bx, c) + stacked_penalty(eff)
        expected = cho_solve(cho_factor(gram), np.eye(gram.shape[0]))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10 * np.abs(expected).max())

    def test_rank_deficient_design_warns_and_solves(self, continuous_measure):
        rng = np.random.default_rng(26)
        n = 8
        eff = rank_deficient_effect(continuous_measure, rng, n)
        y = rng.normal(size=(n, continuous_measure.size))
        with pytest.warns(RuntimeWarning, match="ridge jitter"):
            state = boost_from_clr(y, continuous_measure, [eff], BoostConfig(), m_stop=5)
        assert all(np.all(np.isfinite(c)) for c in state.coefficients)
        assert np.all(np.isfinite(state.fitted_clr))

    def test_one_warning_per_call_from_calling_thread(self, continuous_measure, monkeypatch):
        rng = np.random.default_rng(27)
        n = 12
        eff = rank_deficient_effect(continuous_measure, rng, n)
        y = rng.normal(size=(n, continuous_measure.size))
        seen = []
        monkeypatch.setattr(
            warnings, "warn",
            lambda message, *a, **k: seen.append((str(message), threading.get_ident())),
        )
        fixed = BoostConfig(max_iterations=5)
        boost_from_clr(y, continuous_measure, [eff], fixed, m_stop=5)
        boost_from_clr(y, continuous_measure, [eff], fixed, m_stop=5)
        # every fold's system is singular; a thread count changes nothing
        cv = BoostConfig(max_iterations=5, stopping="cv", folds=4, threads=2)
        early_stop_from_clr(y, continuous_measure, [eff], cv)
        assert len(seen) == 3
        assert all("ridge jitter" in msg for msg, _ in seen)
        assert {tid for _, tid in seen} == {threading.get_ident()}


class TestRiskCheck:
    # run after a line that binds OPTIONS to the model options of model.fit
    SCRIPT = textwrap.dedent(
        """
        import numpy as np
        from densreg.basis import EffectDesign, density_basis
        from densreg.boosting import BoostConfig, boost_from_clr, early_stop_from_clr
        from densreg.measure import make_discrete

        assert not __debug__
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        basis = density_basis(m, 10, 3, 2)
        y = np.random.default_rng(0).normal(size=(6, m.size))
        x = np.linspace(-1.0, 1.0, 6)[:, None]
        # a negative penalty keeps the system positive definite but lets each
        # step overshoot, so the in-bag risk rises
        eff = EffectDesign("slope", x, np.array([[-1.0]]), basis, 2.0, 0.0)
        try:
            boost_from_clr(y, m, [eff], BoostConfig(step_length=0.5), m_stop=3)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # every fold's system stays positive definite; the first fold's risk
        # falls, the other two overshoot
        eff = EffectDesign("slope", x, np.array([[-1.0]]), basis, 1.0, 0.0)
        cv = BoostConfig(step_length=0.5, max_iterations=3, stopping="cv", folds=3)
        try:
            early_stop_from_clr(y, m, [eff], cv)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # a perturbed coefficient takes the fitted surfaces off the risk path
        import densreg.boosting as boosting
        kernel = boosting._boost_paths

        def perturbed(*args, **kwargs):
            out = kernel(*args, **kwargs)
            out[1][0, 0, 0] += 1e-3
            return out

        boosting._boost_paths = perturbed
        eff = EffectDesign("slope", x, np.array([[1.0]]), basis, 1.0, 0.0)
        try:
            boost_from_clr(y, m, [eff], BoostConfig(), m_stop=3)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # a discrete embedding that drops the stand-in value breaks the
        # decompose/embed round trip of mixed responses
        boosting._boost_paths = kernel
        import densreg.bayes as bayes
        import densreg.model as model
        from densreg.measure import make_mixed
        spec = model.ModelSpec((model.EffectTerm("intercept", "intercept"),
                                model.EffectTerm("x", "linear", ("x",))))
        data = {"x": x[:, 0]}
        mixed = make_mixed(0, 1, [(0, 1), (1, 1)], 20)
        y_mixed = np.random.default_rng(1).normal(size=(6, mixed.size))
        y_mixed -= (y_mixed @ mixed.weights)[:, None] / mixed.total_mass
        embed = bayes.embed_clr_discrete_rows
        bayes.embed_clr_discrete_rows = lambda z_d, target: embed(
            np.concatenate([z_d[:, :-1], np.zeros((z_d.shape[0], 1))], axis=1), target)
        try:
            model.fit(spec, data, y_mixed, mixed, BoostConfig(max_iterations=3), **OPTIONS)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        bayes.embed_clr_discrete_rows = embed
        # a clr prediction row shifted off the zero integral
        y_clr = y - (y @ m.weights)[:, None] / m.total_mass
        fitted = model.fit(spec, data, y_clr, m, BoostConfig(max_iterations=3), **OPTIONS)
        rows = model._raw_clr_rows

        def shifted(*args, **kwargs):
            out = rows(*args, **kwargs)
            out[1] += 1e-3
            return out

        model._raw_clr_rows = shifted
        try:
            model.predict(fitted, data)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        """
    )

    def test_fires_under_optimize_flag(self):
        import densreg

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(densreg.__file__)))
        res = subprocess.run(
            [sys.executable, "-O", "-c", f"OPTIONS = {options('model')!r}\n" + self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 5
        assert all(line.startswith("FloatingPointError False in-bag risk increased") for line in lines[:2])
        assert lines[2].startswith("FloatingPointError False in-bag fit drifted from its risk path")
        assert lines[3].startswith(
            "FloatingPointError False mixed responses do not embed back to their clr rows"
        )
        assert lines[4] == "FloatingPointError False clr values must be finite and integrate to zero (rows 2)"

    def test_cli_maps_it_to_numeric_exit(self, tmp_path, monkeypatch):
        import densreg.cli as cli

        def failing_fit(*args, **kwargs):
            raise FloatingPointError("in-bag risk increased during boosting at iteration 1")

        monkeypatch.setattr(cli, "fit_model", failing_fit)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": {"densities": "unread.tsv"},
            "model": {"terms": [{"name": "intercept", "kind": "intercept"}]},
        }))
        monkeypatch.setattr(cli, "_densities_and_table", lambda path, spec: (None,) * 3)
        assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4


PAPER_TERMS = (
    EffectTerm("intercept", "intercept"),
    EffectTerm("region", "group_intercept", ("region",)),
    EffectTerm("c_age", "group_intercept", ("c_age",)),
    EffectTerm("year", "flexible", ("year",)),
    EffectTerm("region_year", "group_flexible", ("region", "year"),
               orthogonal_to=("region", "year")),
)


def planted_components(lambda_density):
    """clr responses, measure and designs per component of a small planted
    problem with the paper's model terms."""
    measure, data, truths, _ = planted_problem(seed=3, grid_size=30, n_years=5, noise_scale=0.5)
    spec = ModelSpec(PAPER_TERMS, references={"region": "west", "c_age": "other", "year": 0.0})
    _, bases, designs = build_designs(
        spec, data, measure, **options("model", density_knots=6, lambda_density=lambda_density)
    )
    parts = [decompose_clr(clr(f)) for f in truths]
    return {
        comp: (np.stack([p[k].values for p in parts]), bases[comp].measure, designs[comp])
        for k, comp in enumerate(("continuous", "discrete"))
    }


@pytest.fixture(scope="module")
def paper_components():
    return planted_components(0.0)


@pytest.fixture(scope="module")
def penalized_components():
    """With a density penalty, which couples the rotated density directions:
    each learner's system is one block of d K_Y."""
    return planted_components(0.5)


# learner orders of the fixture's terms, whose blocks are 1, 1, 2, 11 and 18
# columns wide: blocks 11, 1, 2, 18, 1, so that the two one-column learners
# share a smoother stack without being adjacent; and blocks 11, 1, 2, 11, 1
# with year at indices 0 and 3, so that two learners tie exactly and the first
# must win
LEARNER_ORDERS = {"noncontiguous": [3, 0, 2, 4, 1], "duplicated": [3, 0, 2, 3, 1]}


def assert_fit_matches(got, want):
    assert got.selections == want.selections
    scale = max(np.abs(c).max() for c in want.coefficients)
    for a, b in zip(got.coefficients, want.coefficients):
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * scale)
    np.testing.assert_allclose(got.risk_path, want.risk_path, rtol=1e-10)
    np.testing.assert_allclose(got.fitted_clr, want.fitted_clr, rtol=0, atol=1e-12)


class TestKernelMatchesBruteForce:
    """The coefficient-space kernel against the brute-force N x P clr loop."""

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    def test_in_bag_fit(self, paper_components, component):
        y, m, designs = paper_components[component]
        cfg = BoostConfig(max_iterations=60)
        got = boost_from_clr(y, m, designs, cfg, m_stop=cfg.max_iterations)
        assert_fit_matches(got, brute_force_boost(y, m, designs, cfg))

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize("order", sorted(LEARNER_ORDERS))
    def test_in_bag_fit_grouped_learners(self, paper_components, component, order):
        y, m, designs = paper_components[component]
        designs = [designs[j] for j in LEARNER_ORDERS[order]]
        cfg = BoostConfig(max_iterations=60)
        got = boost_from_clr(y, m, designs, cfg, m_stop=cfg.max_iterations)
        assert_fit_matches(got, brute_force_boost(y, m, designs, cfg))
        if order == "duplicated":
            assert 0 in got.selections and 3 not in got.selections
            assert np.all(got.coefficients[3] == 0.0)

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize("order", sorted(LEARNER_ORDERS))
    @pytest.mark.parametrize("method", ["cv", "bootstrap"])
    def test_resample_paths_grouped_learners(self, paper_components, component, order, method):
        y, m, designs = paper_components[component]
        designs = [designs[j] for j in LEARNER_ORDERS[order]]
        cfg = BoostConfig(max_iterations=40, stopping=method, folds=5, replicates=4, seed=11)
        n = y.shape[0]
        splits = resample_splits(n, cfg)
        counts = np.stack([np.bincount(train, minlength=n) for train, _ in splits])
        *_, selections, _, heldout = _boost_paths(
            y, m.weights, designs, cfg.step_length, cfg.max_iterations, counts, counts == 0,
        )
        for f, (train, test) in enumerate(splits):
            picks = []
            curve = brute_force_heldout_curve(y, m.weights, designs, cfg, train, test, picks)
            assert selections[f].tolist() == picks
            np.testing.assert_allclose(heldout[f] / test.size, curve, rtol=1e-12, atol=0)
        if order == "duplicated":
            assert (selections == 0).any() and not (selections == 3).any()
        mean_curve = np.mean(heldout / (counts == 0).sum(axis=1)[:, None], axis=0)
        assert early_stop_from_clr(y, m, designs, cfg).m_stop == np.argmin(mean_curve[1:]) + 1

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize(
        "method, folds", [("cv", 5), ("bootstrap", 5), ("cv", 4)],
        ids=["cv", "bootstrap", "cv_unequal_folds"],
    )
    def test_resampled_stopping(self, paper_components, component, method, folds):
        y, m, designs = paper_components[component]
        cfg = BoostConfig(max_iterations=40, stopping=method, folds=folds, replicates=4, seed=11)
        got = early_stop_from_clr(y, m, designs, cfg)
        want, curves = brute_force_early_stop(y, m, designs, cfg)
        splits = resample_splits(y.shape[0], cfg)
        if method == "bootstrap":
            # bootstrap training sets repeat rows
            train, _ = splits[0]
            assert np.unique(train).size < train.size
        if folds == 4:
            # 30 rows in folds of 8, 8, 7 and 7
            assert sorted(test.size for _, test in splits) == [7, 7, 8, 8]
        assert got.m_stop == want.m_stop
        np.testing.assert_allclose(got.risk_curve, want.risk_curve, rtol=1e-12, atol=0)


class TestDensityPenaltyMatchesBruteForce:
    """The kernel's coupled systems (lambda_density > 0) against the
    brute-force N x P clr loop, at the tolerances of the uncoupled case."""

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize("order", ["paper", "duplicated"])
    def test_in_bag_fit(self, penalized_components, component, order):
        y, m, designs = penalized_components[component]
        assert all(d.lambda_density > 0 for d in designs)
        if order == "duplicated":
            designs = [designs[j] for j in LEARNER_ORDERS[order]]
        cfg = BoostConfig(max_iterations=60)
        got = boost_from_clr(y, m, designs, cfg, m_stop=cfg.max_iterations)
        assert_fit_matches(got, brute_force_boost(y, m, designs, cfg))
        if order == "duplicated":
            assert 0 in got.selections and 3 not in got.selections

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize("method", ["cv", "bootstrap"])
    def test_resample_paths(self, penalized_components, component, method):
        y, m, designs = penalized_components[component]
        cfg = BoostConfig(max_iterations=40, stopping=method, folds=5, replicates=4, seed=11)
        n = y.shape[0]
        splits = resample_splits(n, cfg)
        counts = np.stack([np.bincount(train, minlength=n) for train, _ in splits])
        *_, selections, _, heldout = _boost_paths(
            y, m.weights, designs, cfg.step_length, cfg.max_iterations, counts, counts == 0,
        )
        for f, (train, test) in enumerate(splits):
            picks = []
            curve = brute_force_heldout_curve(y, m.weights, designs, cfg, train, test, picks)
            assert selections[f].tolist() == picks
            np.testing.assert_allclose(heldout[f] / test.size, curve, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    @pytest.mark.parametrize("method", ["cv", "bootstrap"])
    def test_resampled_stopping(self, penalized_components, component, method):
        y, m, designs = penalized_components[component]
        cfg = BoostConfig(max_iterations=40, stopping=method, folds=5, replicates=4, seed=11)
        got = early_stop_from_clr(y, m, designs, cfg)
        want, _ = brute_force_early_stop(y, m, designs, cfg)
        assert got.m_stop == want.m_stop
        np.testing.assert_allclose(got.risk_curve, want.risk_curve, rtol=1e-12, atol=0)


def test_paper_model_cv_stop_memory():
    # the paper's model at paper scale: 180 densities, K_Y = 13, learner
    # blocks of 1, 1, 2, 11 and 11 columns; 10-fold CV of the continuous
    # component. Smoothers of the 11-column learners, dense, would take
    # 10 folds x 2 x 143^2 doubles (3.3 MB) alone
    measure, data, truths, _ = planted_problem(seed=3, grid_size=100, n_years=30, noise_scale=0.5)
    spec = ModelSpec(PAPER_TERMS, references={"region": "west", "c_age": "other", "year": 0.0})
    _, bases, designs = build_designs(spec, data, measure, **options("model"))
    y = np.stack([decompose_clr(clr(f))[0].values for f in truths])
    designs = designs["continuous"]
    assert [d.n_cov for d in designs] == [1, 1, 2, 11, 11]
    assert designs[0].density_basis.n_basis == 13
    cfg = BoostConfig(stopping="cv", folds=10)
    tracemalloc.start()
    try:
        early_stop_from_clr(y, bases["continuous"].measure, designs, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


class TestThreadDeterminism:
    @pytest.mark.parametrize("method", ["cv", "bootstrap"])
    def test_bit_identical_across_thread_counts(self, paper_components, method):
        y, m, designs = paper_components["continuous"]
        runs = []
        for threads in (1, 2):
            cfg = BoostConfig(
                max_iterations=40, stopping=method, folds=5, replicates=4, seed=2,
                threads=threads,
            )
            runs.append(boost(y, m, designs, cfg))
        one, two = runs
        assert one.m_stop == two.m_stop
        np.testing.assert_array_equal(one.stop_curve, two.stop_curve)
        for a, b in zip(one.coefficients, two.coefficients):
            np.testing.assert_array_equal(a, b)


class TestConfigValidation:
    def test_step_length_bounds(self):
        with pytest.raises(ValueError, match="step"):
            BoostConfig(step_length=1.0)

    def test_stopping_method(self):
        with pytest.raises(ValueError, match="stopping"):
            BoostConfig(stopping="magic")

    @pytest.mark.parametrize("stopping", ["fixed", "cv", "bootstrap"])
    def test_m_stop_beyond_max_iterations(self, stopping):
        # rejected when the settings are declared, before any design is built
        with pytest.raises(ValueError, match="^m_stop exceeds max_iterations$"):
            BoostConfig(max_iterations=10, m_stop=11, stopping=stopping)
        assert BoostConfig(max_iterations=10, m_stop=10, stopping=stopping).m_stop == 10

    def test_design_length_mismatch(self, continuous_measure):
        rng = np.random.default_rng(25)
        responses = [random_density(continuous_measure, rng) for _ in range(4)]
        designs = simple_designs(continuous_measure, 5, rng)
        with pytest.raises(ValueError, match="rows"):
            boost(clr_stack(responses), continuous_measure, designs, BoostConfig(max_iterations=2))
