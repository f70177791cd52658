import json
import os
import subprocess
import sys
import textwrap
import threading
import warnings

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from densreg.basis import (
    assemble_effect,
    bspline_density_basis,
    bspline_eval,
    bspline_knots,
    difference_penalty,
    indicator_density_basis,
    mixed_concatenated_basis,
)
from densreg.bayes import (
    ClrElement,
    clr,
    clr_inv,
    constant_density,
    decompose_clr,
    density,
    equal_b,
    norm,
    perturb,
    power,
    subtract,
)
from densreg.boosting import (
    BoostConfig,
    _penalized_inverse,
    _stop_then_fit,
    boost,
    boost_from_clr,
    boost_mixed,
    early_stop,
    early_stop_from_clr,
)
from densreg.measure import make_continuous, make_discrete, make_mixed
from densreg.model import EffectTerm, ModelSpec, build_designs
from densreg.synth import planted_problem

from boosting_oracle import (
    boost_density_space,
    brute_force_boost,
    brute_force_early_stop,
    fit_base_learner,
    negative_gradient,
    offset,
    resample_splits,
    select_base_learner,
)
from conftest import random_clr_direction, random_density


def center_columns(design, penalty):
    """Sum-to-zero over observations via the nullspace of the column means."""
    q, _ = np.linalg.qr(design.mean(axis=0)[:, None], mode="complete")
    z = q[:, 1:]
    return design @ z, z.T @ penalty @ z


def simple_designs(measure, n, rng, n_effects=2, knots=4):
    """Intercept plus random-covariate flexible designs on the measure."""
    if measure.n_atoms and measure.n_grid:
        basis = mixed_concatenated_basis(measure, knots)
    elif measure.n_grid:
        basis = bspline_density_basis(measure, knots)
    else:
        basis = indicator_density_basis(measure)
    designs = [
        assemble_effect("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0)
    ]
    for j in range(1, n_effects):
        x = rng.uniform(0, 1, size=n)
        bx = bspline_eval(bspline_knots(0, 1, 3, 2), 2, x)
        bx, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs.append(assemble_effect(f"flex{j}", bx, pen, basis, 1.0))
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
        basis = indicator_density_basis(m)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(2, 2)) + 2 * np.eye(2)
        eff = assemble_effect("e", x, np.zeros((2, 2)), basis, 0.0)
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
        eff = assemble_effect("e", x, pen, basis, 0.7, 0.3)
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
        expected = np.linalg.solve(big.T @ big + eff.penalty(), big.T @ t)
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
            y_clr, continuous_measure, designs, BoostConfig(max_iterations=50)
        )
        share = np.mean(np.asarray(state.selections) == 1)
        assert share >= 0.9


class TestBoost:
    def test_intercept_only_noiseless(self, continuous_measure):
        rng = np.random.default_rng(11)
        f = random_density(continuous_measure, rng)
        responses = [f] * 6
        designs = simple_designs(continuous_measure, 6, rng, n_effects=1)
        state = boost(responses, designs, BoostConfig(max_iterations=20))
        # offset equals the common response, so risk starts and stays at zero
        assert state.risk_path[0] < 1e-16
        assert state.risk_path[-1] < 1e-16

    def test_risk_non_increasing(self, mixed_measure):
        rng = np.random.default_rng(12)
        responses = [random_density(mixed_measure, rng) for _ in range(12)]
        designs = simple_designs(mixed_measure, 12, rng, n_effects=3)
        state = boost(responses, designs, BoostConfig(max_iterations=60))
        assert np.all(np.diff(state.risk_path) <= 1e-9 * max(1.0, state.risk_path[0]))

    def test_single_block_update_per_iteration(self, continuous_measure):
        rng = np.random.default_rng(13)
        responses = [random_density(continuous_measure, rng) for _ in range(8)]
        designs = simple_designs(continuous_measure, 8, rng, n_effects=3)
        cfg = BoostConfig(max_iterations=10, track_increments=True)
        state = boost(responses, designs, cfg)
        theta = [np.zeros_like(c) for c in state.coefficients]
        for j, gamma in state.increments:
            before = [t.copy() for t in theta]
            theta[j] = theta[j] + cfg.step_length * gamma
            for k in range(len(theta)):
                if k != j:
                    np.testing.assert_array_equal(theta[k], before[k])
        for got, want in zip(theta, state.coefficients):
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_unselected_effects_stay_exactly_zero(self, continuous_measure):
        rng = np.random.default_rng(14)
        f = random_density(continuous_measure, rng)
        responses = [f] * 5
        designs = simple_designs(continuous_measure, 5, rng, n_effects=3)
        state = boost(responses, designs, BoostConfig(max_iterations=5))
        for j, coef in enumerate(state.coefficients):
            if j not in state.selections:
                assert np.all(coef == 0.0)

    def test_increment_surfaces_stay_zero_integral(self, mixed_measure):
        rng = np.random.default_rng(15)
        responses = [random_density(mixed_measure, rng) for _ in range(6)]
        designs = simple_designs(mixed_measure, 6, rng, n_effects=2)
        cfg = BoostConfig(max_iterations=15, track_increments=True)
        state = boost(responses, designs, cfg)
        w = mixed_measure.weights
        for j, gamma in state.increments:
            basis = designs[j].density_basis
            coef = gamma.reshape(designs[j].n_cov, basis.n_basis)
            surfaces = designs[j].X @ coef @ basis.clr_matrix.T
            np.testing.assert_allclose(surfaces @ w, 0.0, atol=1e-9)

    def test_smaller_step_dominated_by_larger(self, continuous_measure):
        rng = np.random.default_rng(16)
        responses = [random_density(continuous_measure, rng) for _ in range(10)]
        designs = simple_designs(continuous_measure, 10, rng, n_effects=2)
        fast = boost(responses, designs, BoostConfig(step_length=0.1, max_iterations=40))
        slow = boost(responses, designs, BoostConfig(step_length=0.05, max_iterations=40))
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
        cfg = BoostConfig(max_iterations=40, track_increments=True)
        a = boost(responses, designs, cfg)
        b = boost_density_space(responses, designs, cfg)
        assert a.selections == b.selections
        for (ja, ga), (jb, gb) in zip(a.increments, b.increments):
            assert ja == jb
            np.testing.assert_allclose(ga, gb, atol=1e-9)
        for ca, cb in zip(a.coefficients, b.coefficients):
            np.testing.assert_allclose(ca, cb, atol=1e-9)


class TestEarlyStop:
    def test_noiseless_rich_basis_runs_to_limit(self, continuous_measure):
        rng = np.random.default_rng(18)
        n = 12
        basis = bspline_density_basis(continuous_measure, 4)
        x = rng.uniform(0, 1, size=n)
        bx = bspline_eval(bspline_knots(0, 1, 1, 2), 2, x)
        bxc, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs = [
            assemble_effect("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis, 0.0),
            assemble_effect("flex", bxc, pen, basis, 1e-8),
        ]
        coef = 0.5 * rng.normal(size=(bxc.shape[1], basis.n_basis))
        y_clr = bxc @ coef @ basis.clr_matrix.T
        responses = [
            clr_inv(ClrElement(continuous_measure, row)) for row in y_clr
        ]
        cfg = BoostConfig(max_iterations=25, stopping="cv", folds=3, seed=5)
        result = early_stop(responses, designs, cfg)
        # nothing to overfit, the held-out risk keeps falling
        assert result.m_stop == 25
        assert np.all(np.diff(result.risk_curve) <= 1e-15)

    def test_pure_noise_stops_early(self, continuous_measure):
        rng = np.random.default_rng(19)
        n = 16
        responses = [random_density(continuous_measure, rng) for _ in range(n)]
        designs = simple_designs(continuous_measure, n, rng, n_effects=2)
        cfg = BoostConfig(max_iterations=80, stopping="bootstrap", replicates=10, seed=3)
        result = early_stop(responses, designs, cfg)
        assert result.m_stop < 80
        # held-out risk stops improving early on pure noise
        assert result.risk_curve[result.m_stop] <= result.risk_curve[-1]

    def test_two_fold_oracle_on_four_observations(self):
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        rng = np.random.default_rng(20)
        responses = [random_density(m, rng) for _ in range(4)]
        basis = indicator_density_basis(m)
        designs = [
            assemble_effect("intercept", np.ones((4, 1)), np.zeros((1, 1)), basis, 0.0)
        ]
        cfg = BoostConfig(max_iterations=6, stopping="cv", folds=2, seed=21)
        result = early_stop(responses, designs, cfg)

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
    def _mixed_setup(self, rng, n=10):
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 30)
        from densreg.bayes import continuous_submeasure, discrete_star_measure

        mc, md = continuous_submeasure(m), discrete_star_measure(m)
        basis_c = bspline_density_basis(mc, 5)
        basis_d = indicator_density_basis(md)
        x = rng.uniform(size=n)
        bx = bspline_eval(bspline_knots(0, 1, 3, 2), 2, x)
        bx, pen = center_columns(bx, difference_penalty(bx.shape[1], 2))
        designs_c = [
            assemble_effect("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis_c, 0.0),
            assemble_effect("flex", bx, pen, basis_c, 1.0),
        ]
        designs_d = [
            assemble_effect("intercept", np.ones((n, 1)), np.zeros((1, 1)), basis_d, 0.0),
            assemble_effect("flex", bx, pen, basis_d, 1.0),
        ]
        return m, designs_c, designs_d

    def test_constant_discrete_part(self, ):
        rng = np.random.default_rng(22)
        m, designs_c, designs_d = self._mixed_setup(rng)
        responses = []
        for _ in range(10):
            grid_vals = np.exp(rng.normal(size=30))
            gm = np.exp(np.log(grid_vals) @ m.grid_weights / 1.0)
            values = np.concatenate([[gm, gm], grid_vals])
            responses.append(density(m, values))
        fit = boost_mixed(responses, designs_c, designs_d, BoostConfig(max_iterations=30))
        assert fit.discrete.risk_path[0] < 1e-16

    def test_sse_pythagoras(self):
        rng = np.random.default_rng(23)
        m, designs_c, designs_d = self._mixed_setup(rng)
        responses = [random_density(m, rng) for _ in range(10)]
        fit = boost_mixed(responses, designs_c, designs_d, BoostConfig(max_iterations=25))
        y = np.stack([clr(f).values for f in responses])
        total = float((((y - fit.fitted_clr) ** 2) * m.weights).sum())
        comp = fit.continuous.risk_path[-1] + fit.discrete.risk_path[-1]
        assert abs(total - comp) < 1e-9 * max(1.0, total)

    def test_two_stopping_iterations_reported(self):
        rng = np.random.default_rng(24)
        m, designs_c, designs_d = self._mixed_setup(rng)
        responses = [random_density(m, rng) for _ in range(10)]
        fit = boost_mixed(
            responses,
            designs_c,
            designs_d,
            BoostConfig(max_iterations=20, stopping="bootstrap", replicates=5, seed=1),
        )
        assert isinstance(fit.m_stop, tuple) and len(fit.m_stop) == 2
        assert fit.continuous.m_stop >= 1 and fit.discrete.m_stop >= 1


def rank_deficient_effect(measure, rng, n):
    """Effect whose penalized normal matrix is singular: plain column-mean
    centering keeps a linear dependency among the partition-of-unity columns."""
    basis = bspline_density_basis(measure, 4)
    bx = bspline_eval(bspline_knots(0, 1, 2, 2), 2, rng.uniform(size=n))
    bx = bx - bx.mean(axis=0)
    return assemble_effect("flex", bx, difference_penalty(bx.shape[1], 2), basis, 1.0)


class TestSingularFallback:
    def test_inverse_matches_scipy_cholesky(self, continuous_measure):
        rng = np.random.default_rng(25)
        basis = bspline_density_basis(continuous_measure, 6)
        c = basis.clr_matrix.T @ (basis.clr_matrix * continuous_measure.weights[:, None])
        bx = bspline_eval(bspline_knots(0, 1, 3, 3), 3, rng.uniform(size=40))
        eff = assemble_effect("flex", bx, difference_penalty(bx.shape[1], 2), basis, 0.5, 0.1)
        gram = np.kron(bx.T @ bx, c) + eff.penalty()
        inverse, jittered = _penalized_inverse(gram)
        expected = cho_solve(cho_factor(gram), np.eye(gram.shape[0]))
        assert not jittered
        np.testing.assert_allclose(inverse, expected, rtol=0, atol=1e-12 * np.abs(expected).max())

    def test_inverse_as_accurate_as_scipy_on_model_designs(self):
        # on worse-conditioned grams (up to 1e5 here) the two inverses differ
        # by about cond * eps, so require residuals of the same order instead
        m, data, _, _ = planted_problem(seed=0, grid_size=20, n_years=8)
        spec = ModelSpec((
            EffectTerm("intercept", "intercept"),
            EffectTerm("region", "group_intercept", ("region",)),
            EffectTerm("year", "flexible", ("year",), knots=4),
            EffectTerm("region_year", "group_flexible", ("region", "year"),
                       orthogonal_to=("region", "year")),
        ))
        _, _, designs = build_designs(spec, data, m, density_knots=6)
        for d in designs["continuous"] + designs["discrete"]:
            b, w = d.density_basis.clr_matrix, d.density_basis.measure.weights
            gram = np.kron(d.X.T @ d.X, b.T @ (b * w[:, None])) + d.penalty()
            eye = np.eye(gram.shape[0])
            inverse, jittered = _penalized_inverse(gram)
            expected = cho_solve(cho_factor(gram), eye)
            assert not jittered
            assert np.abs(gram @ inverse - eye).max() <= 4 * np.abs(gram @ expected - eye).max() + 1e-15

    def test_singular_gram_is_jittered(self):
        gram = np.array([[1.0, 1.0], [1.0, 1.0]])
        inverse, jittered = _penalized_inverse(gram)
        expected = cho_solve(cho_factor(gram + 1e-10 * np.eye(2)), np.eye(2))
        assert jittered
        np.testing.assert_allclose(inverse, expected, rtol=1e-6)

    def test_rank_deficient_design_warns_and_solves(self, continuous_measure):
        rng = np.random.default_rng(26)
        n = 8
        eff = rank_deficient_effect(continuous_measure, rng, n)
        y = rng.normal(size=(n, continuous_measure.size))
        with pytest.warns(RuntimeWarning, match="ridge jitter"):
            state = boost_from_clr(y, continuous_measure, [eff], BoostConfig(max_iterations=5))
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
        boost_from_clr(y, continuous_measure, [eff], fixed)
        boost_from_clr(y, continuous_measure, [eff], fixed)
        # every fold's system is singular; a thread count changes nothing
        cv = BoostConfig(max_iterations=5, stopping="cv", folds=4, threads=2)
        early_stop_from_clr(y, continuous_measure, [eff], cv)
        assert len(seen) == 3
        assert all("ridge jitter" in msg for msg, _ in seen)
        assert {tid for _, tid in seen} == {threading.get_ident()}


class TestRiskCheck:
    SCRIPT = textwrap.dedent(
        """
        import numpy as np
        from densreg.basis import assemble_effect, indicator_density_basis
        from densreg.boosting import BoostConfig, boost_from_clr, early_stop_from_clr
        from densreg.measure import make_discrete

        assert not __debug__
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        basis = indicator_density_basis(m)
        y = np.random.default_rng(0).normal(size=(6, m.size))
        x = np.linspace(-1.0, 1.0, 6)[:, None]
        # a negative penalty keeps the system positive definite but lets each
        # step overshoot, so the in-bag risk rises
        eff = assemble_effect("slope", x, np.array([[-1.0]]), basis, 2.0)
        try:
            boost_from_clr(y, m, [eff], BoostConfig(step_length=0.5, max_iterations=3))
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        # every fold's system stays positive definite; the first fold's risk
        # falls, the other two overshoot
        eff = assemble_effect("slope", x, np.array([[-1.0]]), basis, 1.0)
        cv = BoostConfig(step_length=0.5, max_iterations=3, stopping="cv", folds=3)
        try:
            early_stop_from_clr(y, m, [eff], cv)
        except Exception as exc:
            print(type(exc).__name__, isinstance(exc, ValueError), exc)
        """
    )

    def test_fires_under_optimize_flag(self):
        import densreg

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(densreg.__file__)))
        res = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("FloatingPointError False in-bag risk increased") for line in lines)

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
        monkeypatch.setattr(cli, "_densities_and_table", lambda path: (None,) * 5)
        assert cli.main(["fit", "--config", str(cfg), "--out", str(tmp_path)]) == 4


PAPER_TERMS = (
    EffectTerm("intercept", "intercept"),
    EffectTerm("region", "group_intercept", ("region",)),
    EffectTerm("c_age", "group_intercept", ("c_age",)),
    EffectTerm("year", "flexible", ("year",)),
    EffectTerm("region_year", "group_flexible", ("region", "year"),
               orthogonal_to=("region", "year")),
)


@pytest.fixture(scope="module")
def paper_components():
    """clr responses, measure and designs per component of a small planted
    problem with the paper's model terms."""
    measure, data, truths, _ = planted_problem(seed=3, grid_size=30, n_years=5, noise_scale=0.5)
    spec = ModelSpec(PAPER_TERMS, references={"region": "west", "c_age": "other", "year": 0.0})
    _, bases, designs = build_designs(spec, data, measure, density_knots=6)
    parts = [decompose_clr(clr(f)) for f in truths]
    return {
        comp: (np.stack([p[k].values for p in parts]), bases[comp].measure, designs[comp])
        for k, comp in enumerate(("continuous", "discrete"))
    }


class TestKernelMatchesBruteForce:
    """The coefficient-space kernel against the brute-force N x P clr loop."""

    @pytest.mark.parametrize("component", ["continuous", "discrete"])
    def test_in_bag_fit(self, paper_components, component):
        y, m, designs = paper_components[component]
        cfg = BoostConfig(max_iterations=60)
        got = boost_from_clr(y, m, designs, cfg)
        want = brute_force_boost(y, m, designs, cfg)
        assert got.selections == want.selections
        scale = max(np.abs(c).max() for c in want.coefficients)
        for a, b in zip(got.coefficients, want.coefficients):
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12 * scale)
        np.testing.assert_allclose(got.risk_path, want.risk_path, rtol=1e-10)
        np.testing.assert_allclose(got.fitted_clr, want.fitted_clr, rtol=0, atol=1e-12)

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
            runs.append(_stop_then_fit(y, m, designs, cfg))
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

    def test_design_length_mismatch(self, continuous_measure):
        rng = np.random.default_rng(25)
        responses = [random_density(continuous_measure, rng) for _ in range(4)]
        designs = simple_designs(continuous_measure, 5, rng)
        with pytest.raises(ValueError, match="rows"):
            boost(responses, designs, BoostConfig(max_iterations=2))
