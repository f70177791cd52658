import json
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
    _learner_bases,
    _pcg64_words,
    _pencil_bases,
    _permutation,
    _resamples,
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
    make_continuous,
    mixed_concatenated_basis,
    options,
    random_clr_direction,
    random_density,
)


DATA = pathlib.Path(__file__).resolve().parent / "data"


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
        EffectDesign(np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0, 0.0)
    ]
    for j in range(1, n_effects):
        x = rng.uniform(0, 1, size=n)
        bx = bspline_eval(bspline_knots(0, 1, 3, 2), 2, x)
        bx, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs.append(EffectDesign(bx, pen, basis, 1.0, 0.0))
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
        eff = EffectDesign(x, np.zeros((2, 2)), basis, 0.0, 0.0)
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
        eff = EffectDesign(x, pen, basis, 0.7, 0.3)
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
            EffectDesign(np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0, 0.0),
            EffectDesign(bxc, pen, basis, 1e-8, 0.0),
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
            EffectDesign(np.ones((4, 1)), np.zeros((1, 1)), basis, 0.0, 0.0)
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
        assert all(isinstance(s.m_stop, int) for s in (fits.continuous, fits.discrete))
        assert fits.continuous.m_stop >= 1 and fits.discrete.m_stop >= 1


def rank_deficient_effect(measure, rng, n):
    """Effect whose penalized normal matrix is singular: plain column-mean
    centering keeps a linear dependency among the partition-of-unity columns."""
    basis = density_basis(measure, 4, 3, 2)
    bx = bspline_eval(bspline_knots(0, 1, 2, 2), 2, rng.uniform(size=n))
    bx = bx - bx.mean(axis=0)
    return EffectDesign(bx, difference_penalty(bx.shape[1], 2), basis, 1.0, 0.0)


def block_inverses(w, inv_den):
    """Inverses W diag(1 / den_k) W' of every block k of a basis, (..., B, s, s)."""
    return (w[..., None, :, :] * inv_den[..., None, :]) @ w[..., None, :, :].swapaxes(-1, -2)


def one_system_inverse(gram, penalty):
    """The inverse of gram + penalty from the basis of the pencil (gram, penalty)."""
    w, a, b, jittered = _pencil_bases(gram[None], penalty[None])
    return block_inverses(w, 1.0 / (a + b)[:, None])[0, 0], jittered


class TestSingularFallback:
    def test_inverse_matches_scipy_cholesky(self, continuous_measure):
        rng = np.random.default_rng(25)
        basis = density_basis(continuous_measure, 6, 3, 2)
        c = basis.clr_matrix.T @ (basis.clr_matrix * continuous_measure.weights[:, None])
        bx = bspline_eval(bspline_knots(0, 1, 3, 3), 3, rng.uniform(size=40))
        eff = EffectDesign(bx, difference_penalty(bx.shape[1], 2), basis, 0.5, 0.1)
        gram = np.kron(bx.T @ bx, c) + stacked_penalty(eff)
        inverse, jittered = one_system_inverse(np.kron(bx.T @ bx, c), stacked_penalty(eff))
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
            fit_gram = np.kron(d.X.T @ d.X, b.T @ (b * w[:, None]))
            gram = fit_gram + stacked_penalty(d)
            eye = np.eye(gram.shape[0])
            inverse, jittered = one_system_inverse(fit_gram, stacked_penalty(d))
            expected = cho_solve(cho_factor(gram), eye)
            assert not jittered
            assert np.abs(gram @ inverse - eye).max() <= 4 * np.abs(gram @ expected - eye).max() + 1e-15

    def test_singular_gram_is_jittered(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        inverse, jittered = one_system_inverse(gram, np.zeros((2, 2)))
        expected = cho_solve(cho_factor(gram + 1e-10 * np.eye(2)), np.eye(2))
        assert jittered
        np.testing.assert_allclose(inverse, expected, rtol=1e-6)

    def test_jitter_reaches_only_the_failing_learner(self):
        # two learners in two rotated directions (c = 1, 3); the first's
        # Gram is singular, so both of its blocks are
        good = np.array([[2.0, 1.0], [1.0, 2.0]])
        spectrum = np.array([1.0, 3.0])
        grams = np.stack([np.ones((2, 2)), good])
        w, a, b, jittered = _pencil_bases(grams, np.zeros((2, 2, 2)))
        assert jittered
        inverse = block_inverses(w, 1.0 / (spectrum[:, None] * a[:, None] + b[:, None]))
        # (c 11' + 1e-10 I)^-1 by Sherman-Morrison: at condition 6e10,
        # cho_solve itself is off by 4e-6 for c = 3
        eps = 1e-10
        np.testing.assert_allclose(
            inverse[0], [(np.eye(2) - c * np.ones((2, 2)) / (eps + 2.0 * c)) / eps for c in spectrum],
            rtol=1e-6,
        )
        np.testing.assert_allclose(inverse[1], [np.linalg.inv(c * good) for c in spectrum], rtol=1e-12)
        # the good learner's basis is the one it gets on its own
        alone, *ab, alone_jittered = _pencil_bases(grams[1:], np.zeros((1, 2, 2)))
        assert not alone_jittered
        np.testing.assert_array_equal(w[1:], alone)
        np.testing.assert_array_equal(np.stack([a[1:], b[1:]]), ab)

    @pytest.mark.parametrize("with_unfactorable", [True, False])
    def test_stack_factors_like_each_system_alone(self, with_unfactorable):
        # a stack of healthy systems, one with a tiny pivot (a factor exists)
        # and, in one case, one with no Cholesky factor at all, which sends
        # the stack down the one-at-a-time path
        rng = np.random.default_rng(31)
        x = rng.normal(size=(2, 3, 8, 4))
        grams = x.swapaxes(-1, -2) @ x
        penalties = np.broadcast_to(difference_penalty(4, 2), grams.shape).copy()
        grams[1, 2], penalties[1, 2] = np.diag([1.0, 1.0, 1.0, 1e-17]), 0.0
        bad = {(1, 2)}
        if with_unfactorable:
            grams[0, 1], penalties[0, 1] = 0.0, 0.0
            bad.add((0, 1))
        w, a, b, jittered = _pencil_bases(grams, penalties)
        assert jittered
        for i in np.ndindex(grams.shape[:2]):
            alone_w, alone_a, alone_b, alone_jittered = _pencil_bases(grams[i][None], penalties[i][None])
            assert alone_jittered == (i in bad)
            np.testing.assert_array_equal(w[i], alone_w[0])
            np.testing.assert_array_equal(a[i], alone_a[0])
            np.testing.assert_array_equal(b[i], alone_b[0])

    def test_fancy_indexed_stack_gets_its_own_bases(self):
        # the kernel factorizes fancy-indexed slices of padded stacks, whose
        # memory is not in the C order of their shape; each system must
        # still get its own basis
        rng = np.random.default_rng(30)
        x = rng.normal(size=(3, 4, 9, 6))
        grams = (x.swapaxes(-1, -2) @ x)[:, [3, 0], :5, :5]
        penalties = np.broadcast_to(difference_penalty(5, 2), grams.shape)
        assert not grams.flags.c_contiguous
        w, a, b, jittered = _pencil_bases(grams, penalties)
        assert not jittered
        eye = np.broadcast_to(np.eye(5), grams.shape)
        np.testing.assert_allclose(w.swapaxes(-1, -2) @ (grams + penalties) @ w, eye, atol=1e-10)
        np.testing.assert_allclose(w.swapaxes(-1, -2) @ grams @ w, eye * a[..., None], atol=1e-10)
        np.testing.assert_allclose(a + b, 1.0, rtol=1e-10)
        again = _pencil_bases(np.ascontiguousarray(grams), penalties)
        for got, want in zip((w, a, b), again):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("lambda_density", [0.0, 0.1])
    def test_rotated_blocks_invert_the_learner_system(self, continuous_measure, lambda_density):
        # the kernel's learner basis, rotated back, inverts
        # kron(X'X, C) + penalty in the original density coordinates
        rng = np.random.default_rng(28)
        basis = density_basis(continuous_measure, 6, 3, 2)
        c = basis.clr_matrix.T @ (basis.clr_matrix * continuous_measure.weights[:, None])
        bx = bspline_eval(bspline_knots(0, 1, 3, 3), 3, rng.uniform(size=40))
        eff = EffectDesign(bx, difference_penalty(bx.shape[1], 2), basis, 0.5, lambda_density)
        spectrum, rotation = np.linalg.eigh(c)
        density_penalty = rotation.T @ basis.penalty @ rotation
        w, inv_den, _, jittered = _learner_bases(
            (bx.T @ bx)[None, None], [eff], density_penalty, spectrum
        )
        assert inv_den.shape[2] == (1 if lambda_density else basis.n_basis)
        inverse = block_inverses(w, inv_den)
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
        eff = EffectDesign(x, np.array([[-1.0]]), basis, 2.0, 0.0)
        try:
            boost_from_clr(y, m, [eff], BoostConfig(step_length=0.5), m_stop=3)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # every fold's system stays positive definite; the first fold's risk
        # falls, the other two overshoot
        eff = EffectDesign(x, np.array([[-1.0]]), basis, 1.0, 0.0)
        cv = BoostConfig(step_length=0.5, max_iterations=3, stopping="cv", folds=3)
        try:
            early_stop_from_clr(y, m, [eff], cv)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # a perturbed coefficient takes the fitted surfaces off the risk path
        import densreg.boosting as boosting
        kernel = boosting._boost_paths

        def perturbed(*args, **kwargs):
            offset, coefficients, *rest = kernel(*args, **kwargs)

            def moved(m):
                out = coefficients(m)
                out[0, 0] += 1e-3
                return out

            return (offset, moved, *rest)

        boosting._boost_paths = perturbed
        eff = EffectDesign(x, np.array([[1.0]]), basis, 1.0, 0.0)
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
            "FloatingPointError False mixed rows do not embed back to their clr rows"
        )
        assert lines[4] == "FloatingPointError False clr values must be finite and integrate to zero (rows 2)"

    def test_cli_maps_it_to_numeric_exit(self, tmp_path, monkeypatch):
        import densreg.cli as cli

        def failing_fit(*args, **kwargs):
            raise FloatingPointError("in-bag risk increased during boosting at iteration 1")

        monkeypatch.setattr(cli, "fit_model", failing_fit)
        # a data path must name a file, though this one is not read
        unread = tmp_path / "unread.tsv"
        unread.write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": {"densities": str(unread)},
            "model": {"terms": [{"name": "intercept", "kind": "intercept"}]},
        }))
        monkeypatch.setattr(cli, "_read_densities", lambda path, numeric: (None,) * 4)
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
            assert selections[f + 1].tolist() == picks
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
            assert selections[f + 1].tolist() == picks
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
    # component. Dense smoothers of the 11-column learners would take
    # 10 folds x 2 x 143^2 doubles (3.3 MB) alone; their Demmler-Reinsch
    # bases, one per fold and learner padded to 11 columns, take
    # 10 x 5 x 11^2 doubles (48 KB)
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


@pytest.fixture(scope="module", params=[0.0, 0.1, 0.5], ids=lambda v: f"lambda_density={v}")
def each_penalty_components(request):
    """The planted components uncoupled and with two density penalties."""
    return planted_components(request.param)


@pytest.mark.parametrize("method", ["cv", "fixed"])
def test_measure_without_density_directions_fits(method):
    # one atom leaves no density direction (K_Y = 0): the kernel's state and
    # its flat views are empty, and the fit is the offset alone
    _, data, _, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
    spec = ModelSpec((
        EffectTerm("intercept", "intercept"),
        EffectTerm("region", "group_intercept", ("region",)),
    ))
    y = np.zeros((len(data["year"]), 1))
    cfg = BoostConfig(max_iterations=5, stopping=method, folds=3)
    model = fit(spec, data, y, make_discrete([(0.5, 1.0)]), cfg, **options("model"))
    assert [c.size for c in model.fits.coefficients] == [0, 0]
    np.testing.assert_array_equal(model.fits.fitted_clr, y)


@pytest.mark.parametrize("method", ["cv", "bootstrap", "fixed"])
@pytest.mark.parametrize("component", ["continuous", "discrete"])
def test_riding_fit_equals_a_separate_fit(each_penalty_components, component, method):
    # boost runs the in-bag fit as one more all-ones resample of the
    # stopping call, to max_iterations, and keeps its first m_stop steps
    y, m, designs = each_penalty_components[component]
    cfg = BoostConfig(max_iterations=100, stopping=method, folds=5, replicates=4, seed=11)
    got = boost(y, m, designs, cfg)
    if method == "fixed":
        assert got.m_stop == cfg.max_iterations and got.stop_curve is None
    else:
        stop, _ = brute_force_early_stop(y, m, designs, cfg)
        assert got.m_stop == stop.m_stop
        np.testing.assert_allclose(got.stop_curve, stop.risk_curve, rtol=1e-12, atol=0)
    # the test is void if the stop lands on the last iteration
    assert method == "fixed" or got.m_stop < cfg.max_iterations
    want = boost_from_clr(y, m, designs, cfg, m_stop=got.m_stop)
    assert got.selections == want.selections
    assert len(got.risk_path) == got.m_stop + 1
    np.testing.assert_allclose(got.risk_path, want.risk_path, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.offset_clr, want.offset_clr, rtol=1e-12, atol=0)
    for a, b in zip(got.coefficients, want.coefficients):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.fitted_clr, want.fitted_clr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("lambda_density", [0.0, 0.1])
@pytest.mark.parametrize("component", ["continuous", "discrete"])
def test_heldout_rows_move_like_training_rows(component, lambda_density):
    # every row set takes one update and one risk formula: held-out rows that
    # are all N rows of resample 1 follow its in-bag risk path to the bit
    y, m, designs = planted_components(lambda_density)[component]
    n = y.shape[0]
    *_, selections, risk, heldout = _boost_paths(
        y, m.weights, designs, 0.1, 60, np.ones((1, n), dtype=int), np.ones((1, n), dtype=bool),
    )
    np.testing.assert_array_equal(selections[0], selections[1])
    np.testing.assert_array_equal(heldout[0], risk[1])


def test_paper_model_boost_memory():
    # boost on the paper's model at paper scale (see the test above), the
    # in-bag fit riding the 10-fold stop: its step history and the rotated
    # cross-Grams must not grow the memory of a fit. Run as a stop and then
    # a separate in-bag fit, boost peaked at 1.47 MB here
    measure, data, truths, _ = planted_problem(seed=3, grid_size=100, n_years=30, noise_scale=0.5)
    spec = ModelSpec(PAPER_TERMS, references={"region": "west", "c_age": "other", "year": 0.0})
    _, bases, designs = build_designs(spec, data, measure, **options("model"))
    y = np.stack([decompose_clr(clr(f))[0].values for f in truths])
    cfg = BoostConfig(stopping="cv", folds=10, seed=3)
    tracemalloc.start()
    try:
        state = boost(y, bases["continuous"].measure, designs["continuous"], cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert state.m_stop == 114
    assert peak < 1.47e6


def test_paper_model_cv_paths():
    # the paper's model at paper scale with 10-fold CV: m_stop and the in-bag
    # selection paths of both components, as a change of the kernel must keep
    with open(DATA / "paper_cv_paths.json") as fh:
        expected = json.load(fh)
    measure, data, truths, _ = planted_problem(seed=3, grid_size=100, n_years=30, noise_scale=0.5)
    spec = ModelSpec(PAPER_TERMS, references={"region": "west", "c_age": "other", "year": 0.0})
    model = fit(spec, data, clr_stack(truths), measure, BoostConfig(stopping="cv", folds=10, seed=3),
                **options("model"))
    stops = [state.m_stop for state in model.component_states().values()]
    assert stops == expected["m_stop"] == [114, 49]
    for comp, state in model.component_states().items():
        assert state.selections == expected["selections"][comp], comp


@pytest.mark.parametrize("gap, winner", [(1e-12, 0), (1e-7, 1)])
def test_near_tied_learners_go_to_the_first(continuous_measure, gap, winner):
    # learner 1 is learner 0's column tilted by delta t, which fits the
    # responses better by a relative gap linear in a small delta; within
    # the tie tolerance (1e-10) the first learner wins
    m, rng = continuous_measure, np.random.default_rng(8)
    y = clr_stack([random_density(m, rng) for _ in range(6)])
    basis, (x, tilt) = density_basis(m, 4, 3, 2), rng.uniform(size=(2, 6, 1))
    no_resample = np.zeros((0, 6), dtype=int), np.zeros((0, 6), dtype=bool)

    def learner(delta):
        return EffectDesign(x + delta * tilt, np.zeros((1, 1)), basis, 0.0, 0.0)

    def gain(delta):
        """Relative gain in the first step's risk drop over the untilted learner."""
        drops = [-np.diff(_boost_paths(y, m.weights, [learner(d)], 0.1, 1, *no_resample)[3][0])[0]
                 for d in (0.0, delta)]
        return drops[1] / drops[0] - 1.0

    delta = 1e-6 * gap / gain(1e-6)
    assert gain(delta) == pytest.approx(gap, rel=0.05)
    *_, selections, _, _ = _boost_paths(
        y, m.weights, [learner(0.0), learner(delta)], 0.1, 1, *no_resample
    )
    assert selections[0, 0] == winner


def test_collinear_learners_tie_to_the_first():
    # the layout of the ingest_auto benchmark (region x c_age, one density
    # each) with in-bag rows of one c_age level only: there c_age fits the
    # same constant as the intercept, which precedes it, though the two
    # predict the held-out rows differently; so rounding must not choose
    # between them. Seeds 20-39 include one (31) where the plain argmin of
    # the criteria chose c_age in the discrete component
    measure = make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 100)
    regions, ages = ["east", "west"], ["kids0_6", "kids7_17", "other"]
    data = {"region": [r for r in regions for _ in ages], "c_age": ages * len(regions)}
    spec = ModelSpec(PAPER_TERMS[:3], references={"region": "west", "c_age": "other"})
    _, bases, designs = build_designs(spec, data, measure, **options("model"))
    counts = np.array([[0, 0, 2, 0, 0, 4]])
    for comp in ("continuous", "discrete"):
        m, paths = bases[comp].measure, set()
        for seed in range(20, 40):
            y = np.random.default_rng(seed).uniform(size=(6, m.size))
            y -= (y @ m.weights)[:, None] / m.total_mass
            with pytest.warns(RuntimeWarning, match="singular"):
                *_, selections, _, _ = _boost_paths(
                    y, m.weights, designs[comp], 0.1, 100, counts, counts == 0
                )
            paths.add(tuple(selections[1].tolist()))
        assert len(paths) == 1, (comp, paths)
        (path,) = paths
        assert 0 in path and 2 not in path, comp


# measures with a density basis each, for generated kernel problems: a grid,
# and atoms alone
KERNEL_BASES = [
    density_basis(make_continuous(0.0, 1.0, 12), 3, 3, 2),
    density_basis(make_discrete([(0.0, 1.0), (0.3, 2.0), (0.5, 0.5), (1.0, 1.0)]), 10, 3, 2),
]


@st.composite
def kernel_problems(draw):
    """Arguments of a kernel call with R resamples of arbitrary counts, each
    holding out some rows (count 0) and training on others, some more than
    once: an intercept and ridge-penalized learners of random columns, whose
    systems stay positive definite on every resample."""
    basis = draw(st.sampled_from(KERNEL_BASES))
    m, lambda_density = basis.measure, draw(st.sampled_from([0.0, 0.2]))
    n = draw(st.integers(4, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    designs = [EffectDesign(np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0, lambda_density)]
    for d in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        designs.append(EffectDesign(rng.normal(size=(n, d)), np.eye(d), basis,
                                    draw(st.floats(0.1, 10.0)), lambda_density))
    y = rng.normal(size=(n, m.size))
    y -= (y @ m.weights)[:, None] / m.total_mass
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(lambda c: 0 in c and any(c))
    counts = np.array(draw(st.lists(row, min_size=1, max_size=3)))
    return y, m.weights, designs, draw(st.floats(0.05, 0.9)), draw(st.integers(1, 15)), counts


KERNEL_PROPERTY = dict(max_examples=50, derandomize=True, database=None, deadline=None)


def with_rows(designs, rows):
    """The designs on the given rows of their columns."""
    return [EffectDesign(d.X[rows], d.cov_penalty, d.density_basis, d.lambda_cov, d.lambda_density)
            for d in designs]


def assert_paths_match(got, want, resamples=slice(None), scale=1.0):
    """Equal selections of the kernel's resamples ``resamples``, and their
    in-bag and held-out risks (resample f's are held-out row f - 1) within
    1e-12 relative to ``want``'s times ``scale``. A path is a running sum
    from its start, so its rounding scales with its largest value, against
    which each of its risks is measured."""
    np.testing.assert_array_equal(got[2][resamples], want[2][resamples])
    for path, expected in ((got[3][resamples], want[3][resamples]), (got[4], want[4])):
        expected = scale * expected
        bound = 1e-12 * np.abs(expected).max(axis=1, keepdims=True)
        assert (np.abs(path - expected) <= bound).all(), (path, expected)


class TestKernelMetamorphic:
    """Relations between kernel calls that need no oracle."""

    @settings(**KERNEL_PROPERTY)
    @given(kernel_problems())
    def test_a_count_of_two_is_the_row_listed_twice(self, problem):
        # every row listed twice, its count split in two: a count of 2 or 3
        # becomes 1 + 1 or 1 + 2, and a held-out row is held out once. Only
        # resamples 1 .. R compare: resample 0 weights each listed row once
        y, weights, designs, kappa, n_iter, counts = problem
        test = counts == 0
        once = np.minimum(counts, 1)
        rows = np.tile(np.arange(y.shape[0]), 2)
        want = _boost_paths(y, weights, designs, kappa, n_iter, counts, test)
        got = _boost_paths(y[rows], weights, with_rows(designs, rows), kappa, n_iter,
                           np.hstack([once, counts - once]), np.hstack([test, 0 * test]))
        assert_paths_match(got, want, slice(1, None))

    @settings(**KERNEL_PROPERTY)
    @given(kernel_problems(), st.randoms(use_true_random=False))
    def test_permuting_rows_with_their_counts_changes_nothing(self, problem, random):
        y, weights, designs, kappa, n_iter, counts = problem
        rows = list(range(y.shape[0]))
        random.shuffle(rows)
        want = _boost_paths(y, weights, designs, kappa, n_iter, counts, counts == 0)
        got = _boost_paths(y[rows], weights, with_rows(designs, rows), kappa, n_iter,
                           counts[:, rows], counts[:, rows] == 0)
        assert_paths_match(got, want)

    @settings(**KERNEL_PROPERTY)
    @given(kernel_problems(), st.floats(1e-6, 1e6))
    def test_scaling_the_responses_scales_the_fit(self, problem, s):
        y, weights, designs, kappa, n_iter, counts = problem
        want = _boost_paths(y, weights, designs, kappa, n_iter, counts, counts == 0)
        got = _boost_paths(s * y, weights, designs, kappa, n_iter, counts, counts == 0)
        assert_paths_match(got, want, scale=s * s)
        np.testing.assert_allclose(got[0], s * want[0], rtol=1e-12, atol=0)
        coefficients = want[1](n_iter)
        np.testing.assert_allclose(got[1](n_iter), s * coefficients, rtol=0,
                                   atol=1e-12 * s * np.abs(coefficients).max())


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


class TestFoldStream:
    """The folds are numpy's ``default_rng(seed).permutation(n)``, drawn in
    Python; numpy is the reference."""

    SEEDS = [*range(64), 2**32 - 1, 2**32, 2**64 + 3, 10**30,
             np.uint32(7), np.int64(2**40 + 1), np.uint64(2**64 - 1)]

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 180, 1800])
    def test_permutation_is_numpys(self, n):
        for seed in self.SEEDS:
            assert _permutation(n, seed) == np.random.default_rng(seed).permutation(n).tolist(), seed

    @pytest.mark.parametrize("testset", [1, 2])
    def test_raw_outputs_are_numpys(self, testset):
        # numpy's own PCG64 test vectors: a seed line, then 1,000 64-bit outputs
        path = pathlib.Path(np.__file__).parent / "random" / "tests" / "data"
        lines = (path / f"pcg64-testset-{testset}.csv").read_text().split()
        seed, outputs = int(lines[1], 16), [int(v, 16) for v in lines[3::2]]
        assert len(outputs) == 1000
        words = _pcg64_words(seed)
        assert [next(words) | next(words) << 32 for _ in outputs] == outputs

    @pytest.mark.parametrize("n", [7, 23, 180])
    @pytest.mark.parametrize("folds", [2, 10, "n"])
    def test_cv_masks_match_numpy_folds(self, n, folds):
        config = BoostConfig(stopping="cv", folds=n if folds == "n" else folds, seed=n + 5)
        counts = _resamples(n, config)
        splits = resample_splits(n, config)
        assert counts.shape == (min(config.folds, n), n) == (len(splits), n)
        for i, (train, held_out) in enumerate(splits):
            assert np.flatnonzero(counts[i] == 0).tolist() == held_out.tolist()
            assert np.flatnonzero(counts[i]).tolist() == train.tolist()
        # each fold trains on every row at most once, and holds each row out
        # in exactly one fold
        assert np.isin(counts, [0, 1]).all()
        assert ((counts == 0).sum(axis=0) == 1).all()

    def test_pinned_permutations(self):
        # the folds stay where they are if a later numpy changes its Generator
        assert _permutation(10, 0) == [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]
        assert _permutation(17, 2**64 + 3) == [3, 7, 12, 6, 15, 14, 11, 16, 8, 13, 4, 9, 1, 2,
                                               0, 10, 5]


class TestConfigValidation:
    @pytest.mark.parametrize("seed", [None, -1, 2.0, "3", True, np.int64(-2)])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # None would draw the folds from OS entropy, a negative seed would
        # fail only once resampling starts
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            BoostConfig(stopping="cv", seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 + 3, np.uint64(2**63), np.int32(4)])
    def test_integer_seeds_are_kept(self, seed):
        assert BoostConfig(seed=seed).seed == seed

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

    def test_views_of_boost_read_the_config_as_boost_does(self, continuous_measure):
        # boost_from_clr is boost at a fixed stop, so BoostConfig bounds its
        # m_stop; early_stop_from_clr reports a fixed stop without a curve
        rng = np.random.default_rng(29)
        y = clr_stack([random_density(continuous_measure, rng) for _ in range(5)])
        designs = simple_designs(continuous_measure, 5, rng)
        with pytest.raises(ValueError, match="^m_stop exceeds max_iterations$"):
            boost_from_clr(y, continuous_measure, designs, BoostConfig(max_iterations=3), m_stop=4)
        fixed = BoostConfig(max_iterations=3, m_stop=2)
        assert early_stop_from_clr(y, continuous_measure, designs, fixed) == (2, None)

    def test_design_length_mismatch(self, continuous_measure):
        rng = np.random.default_rng(25)
        responses = [random_density(continuous_measure, rng) for _ in range(4)]
        designs = simple_designs(continuous_measure, 5, rng)
        with pytest.raises(ValueError, match="rows"):
            boost(clr_stack(responses), continuous_measure, designs, BoostConfig(max_iterations=2))
