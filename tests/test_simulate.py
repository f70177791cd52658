import numpy as np
import pytest

from densreg.bayes import ClrElement, clr, clr_inv, constant_density, subtract
from densreg.measure import make_continuous, make_discrete, make_mixed
from densreg.simulate import FpcaResult, fpca, rel_mse, selection_table, simulate_responses

from conftest import random_density, random_clr_direction


def residuals_from(measure, rng, n, rank=None):
    rows = [random_clr_direction(measure, rng) for _ in range(n)]
    return [ClrElement(measure, r) for r in rows]


class TestFpca:
    def test_one_dimensional_residuals(self, mixed_measure):
        rng = np.random.default_rng(0)
        direction = random_clr_direction(mixed_measure, rng)
        coefs = rng.normal(size=12)
        coefs -= coefs.mean()
        residuals = [ClrElement(mixed_measure, c * direction) for c in coefs]
        result = fpca(residuals, truncation=5)
        assert result.eigenvalues[0] > 0
        np.testing.assert_allclose(result.eigenvalues[1:], 0.0, atol=1e-12)

    def test_orthonormal_eigenfunctions(self, mixed_measure):
        rng = np.random.default_rng(1)
        result = fpca(residuals_from(mixed_measure, rng, 30), truncation=8)
        w = mixed_measure.weights
        gram = (result.eigenfunctions * w) @ result.eigenfunctions.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_covariance_reconstruction(self, mixed_measure):
        rng = np.random.default_rng(2)
        residuals = residuals_from(mixed_measure, rng, 40)
        rows = np.stack([r.values for r in residuals])
        centered = rows - rows.mean(axis=0)
        result = fpca(residuals, truncation=None)
        # dense covariance kernel c(t, s) as the reference
        empirical = centered.T @ centered / len(residuals)
        rebuilt = np.zeros_like(empirical)
        for lam, psi in zip(result.eigenvalues, result.eigenfunctions):
            rebuilt += lam * np.outer(psi, psi)
        assert np.linalg.norm(rebuilt - empirical) < 1e-6

    def test_scores_centered(self, mixed_measure):
        rng = np.random.default_rng(3)
        result = fpca(residuals_from(mixed_measure, rng, 25), truncation=6)
        np.testing.assert_allclose(result.scores.mean(axis=0), 0.0, atol=1e-10)

    def test_truncation_bound(self, mixed_measure):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="rank bound"):
            fpca(residuals_from(mixed_measure, rng, 5), truncation=50)

    def test_truncation_below_one(self, mixed_measure):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="truncation must be at least 1"):
            fpca(residuals_from(mixed_measure, rng, 5), truncation=0)


class TestSimulateResponses:
    def test_zero_eigenvalues_reproduce_means(self, mixed_measure):
        rng = np.random.default_rng(5)
        means = [random_density(mixed_measure, rng) for _ in range(6)]
        zero = [ClrElement(mixed_measure, np.zeros(mixed_measure.size))] * 6
        result = fpca(zero, truncation=3)
        out = simulate_responses(means, result, seed=1)
        for f, g in zip(means, out):
            np.testing.assert_allclose(
                f.as_probability().values, g.values, atol=1e-12
            )

    def test_original_scores_reproduce_responses(self, mixed_measure):
        rng = np.random.default_rng(6)
        means = [random_density(mixed_measure, rng) for _ in range(10)]
        responses = [random_density(mixed_measure, rng) for _ in range(10)]
        residuals = [clr(subtract(r, m)) for r, m in zip(responses, means)]
        result = fpca(residuals, truncation=None)
        rebuilt = simulate_responses(means, result, scores=result.scores)
        for orig, out in zip(responses, rebuilt):
            assert np.max(np.abs(orig.as_probability().values - out.values)) < 1e-8

    def test_score_variances_match_eigenvalues(self, mixed_measure):
        rng = np.random.default_rng(7)
        residuals = residuals_from(mixed_measure, rng, 20)
        result = fpca(residuals, truncation=4)
        means = [constant_density(mixed_measure)] * 10_000
        out = simulate_responses(means, result, seed=11)
        w = mixed_measure.weights
        rows = np.stack([clr(f).values for f in out]) - result.mean
        sampled = (rows * w) @ result.eigenfunctions.T
        var = sampled.var(axis=0)
        np.testing.assert_allclose(var, result.eigenvalues, rtol=0.05)

    def test_noise_has_zero_clr_integral(self, mixed_measure):
        rng = np.random.default_rng(8)
        residuals = residuals_from(mixed_measure, rng, 15)
        result = fpca(residuals, truncation=5)
        means = [random_density(mixed_measure, rng) for _ in range(5)]
        out = simulate_responses(means, result, seed=3)
        for f in out:
            assert abs(clr(f).values @ mixed_measure.weights) < 1e-9

    def test_deterministic_for_seed(self, mixed_measure):
        rng = np.random.default_rng(9)
        residuals = residuals_from(mixed_measure, rng, 10)
        result = fpca(residuals, truncation=3)
        means = [random_density(mixed_measure, rng) for _ in range(4)]
        a = simulate_responses(means, result, seed=42)
        b = simulate_responses(means, result, seed=42)
        for f, g in zip(a, b):
            np.testing.assert_array_equal(f.values, g.values)


class TestRelMse:
    def test_perfect_estimate(self, mixed_measure):
        rng = np.random.default_rng(10)
        truths = [random_density(mixed_measure, rng) for _ in range(5)]
        assert rel_mse(truths, truths) == 0.0

    def test_neutral_estimate_gives_one(self, mixed_measure):
        rng = np.random.default_rng(11)
        truths = [random_density(mixed_measure, rng) for _ in range(5)]
        neutral = [constant_density(mixed_measure)] * 5
        assert rel_mse(truths, neutral) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hand_computation(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        truth = clr_inv(ClrElement(m, np.array([0.3, -0.3])))
        est = clr_inv(ClrElement(m, np.array([0.1, -0.1])))
        # numerator: 2 * 0.2^2, denominator: 2 * 0.3^2
        expected = (2 * 0.2**2) / (2 * 0.3**2)
        assert rel_mse([truth], [est]) == pytest.approx(expected, abs=1e-12)

    def test_neutral_truth_rejected(self, mixed_measure):
        neutral = [constant_density(mixed_measure)]
        with pytest.raises(ZeroDivisionError, match="neutral"):
            rel_mse(neutral, neutral)

    def test_length_mismatch(self, mixed_measure):
        f = constant_density(mixed_measure)
        with pytest.raises(ValueError, match="length"):
            rel_mse([f], [f, f])


class TestSelectionTable:
    def test_combined_rule(self):
        runs = [
            {
                "year": {"continuous": True, "discrete": False, "combined": True},
                "region": {"continuous": False, "discrete": False, "combined": False},
            },
            {
                "year": {"continuous": True, "discrete": True, "combined": True},
                "region": {"continuous": False, "discrete": True, "combined": True},
            },
        ]
        table = selection_table(runs)
        assert table["year"]["combined"]["selected"] == 2
        assert table["region"]["combined"]["selected"] == 1
        assert table["region"]["continuous"]["selected"] == 0
        assert table["region"]["discrete"]["not_selected"] == 1

    def test_counts_sum_to_replicates(self):
        runs = [
            {"x": {"continuous": bool(i % 2), "discrete": False, "combined": bool(i % 2)}}
            for i in range(7)
        ]
        table = selection_table(runs)
        for comp, counts in table["x"].items():
            assert counts["selected"] + counts["not_selected"] == 7

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            selection_table([])


class TestNoiseScaleMonotonicity:
    def test_relmse_nondecreasing_in_noise(self):
        # end-to-end: simulate at growing noise scales, refit, compare medians
        from densreg.boosting import BoostConfig
        from densreg.model import EffectTerm, ModelSpec, fit, predict
        from densreg.synth import planted_problem

        m, data, truths, _ = planted_problem(seed=13, grid_size=30, n_years=6)
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("region", "group_intercept", ("region",), df=1.0),
                EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
                EffectTerm("year", "flexible", ("year",), df=2.0, knots=4),
            ),
            references={"region": "west", "c_age": "other", "year": 0.0},
        )
        cfg = BoostConfig(max_iterations=120, seed=0)
        base = fit(spec, data, truths, cfg, density_knots=6)
        fitted = [clr_inv(ClrElement(m, row)) for row in base.fits.fitted_clr]
        residuals = [clr(subtract(y, f)) for y, f in zip(truths, fitted)]
        structure = fpca(residuals, truncation=10)
        medians = []
        for scale in (0.0, 1.0, 3.0):
            errors = []
            for rep in range(5):
                sim = simulate_responses(
                    fitted, structure, seed=100 + rep, noise_scale=scale
                )
                refit = fit(spec, data, sim, cfg, density_knots=6)
                errors.append(rel_mse(fitted, predict(refit, data)))
            medians.append(float(np.median(errors)))
        assert medians[0] <= medians[1] <= medians[2]
