import numpy as np
import pytest

from densreg.bayes import ClrElement, clr, clr_inv
from densreg.measure import make_discrete, make_mixed
from densreg.simulate import FpcaResult, fpca, rel_mse, selection_counts, simulate_responses

from bayes_oracle import constant_density, density
from conftest import clr_stack, options, random_clr_direction, random_density


def residuals_from(measure, rng, n, rank=None):
    return np.stack([random_clr_direction(measure, rng) for _ in range(n)])


def scores(result, residuals, measure):
    """Scores of the centered residuals on the eigenfunctions of ``result``,
    the fpca of ``residuals`` on ``measure``."""
    return ((residuals - result.mean) * measure.weights) @ result.eigenfunctions.T


def densities_of(measure, rows):
    return [clr_inv(ClrElement(measure, row)) for row in rows]


class TestFpca:
    def test_one_dimensional_residuals(self, mixed_measure):
        rng = np.random.default_rng(0)
        direction = random_clr_direction(mixed_measure, rng)
        coefs = rng.normal(size=12)
        coefs -= coefs.mean()
        residuals = coefs[:, None] * direction
        result = fpca(residuals, mixed_measure, truncation=5)
        assert result.eigenvalues[0] > 0
        np.testing.assert_allclose(result.eigenvalues[1:], 0.0, atol=1e-12)

    def test_orthonormal_eigenfunctions(self, mixed_measure):
        rng = np.random.default_rng(1)
        result = fpca(residuals_from(mixed_measure, rng, 30), mixed_measure, truncation=8)
        w = mixed_measure.weights
        gram = (result.eigenfunctions * w) @ result.eigenfunctions.T
        np.testing.assert_allclose(gram, np.eye(8), atol=1e-8)

    def test_covariance_reconstruction(self, mixed_measure):
        rng = np.random.default_rng(2)
        residuals = residuals_from(mixed_measure, rng, 40)
        centered = residuals - residuals.mean(axis=0)
        result = fpca(residuals, mixed_measure, truncation=None)
        # dense covariance kernel c(t, s) as the reference
        empirical = centered.T @ centered / len(residuals)
        rebuilt = np.zeros_like(empirical)
        for lam, psi in zip(result.eigenvalues, result.eigenfunctions):
            rebuilt += lam * np.outer(psi, psi)
        assert np.linalg.norm(rebuilt - empirical) < 1e-6

    def test_scores_centered(self, mixed_measure):
        rng = np.random.default_rng(3)
        residuals = residuals_from(mixed_measure, rng, 25)
        result = fpca(residuals, mixed_measure, truncation=6)
        np.testing.assert_allclose(scores(result, residuals, mixed_measure).mean(axis=0), 0.0, atol=1e-10)

    def test_truncation_bound(self, mixed_measure):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="rank bound"):
            fpca(residuals_from(mixed_measure, rng, 5), mixed_measure, truncation=50)

    def test_truncation_below_one(self, mixed_measure):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="truncation must be at least 1"):
            fpca(residuals_from(mixed_measure, rng, 5), mixed_measure, truncation=0)


class TestSimulateResponses:
    def test_zero_eigenvalues_reproduce_means(self, mixed_measure):
        rng = np.random.default_rng(5)
        means = [random_density(mixed_measure, rng) for _ in range(6)]
        zero = np.zeros((6, mixed_measure.size))
        result = fpca(zero, mixed_measure, truncation=3)
        sim = simulate_responses(clr_stack(means), result, seed=1, **options("simulate_responses"))
        out = densities_of(mixed_measure, sim)
        for f, g in zip(means, out):
            np.testing.assert_allclose(
                density(f.measure, f.values).values, g.values, atol=1e-12
            )

    def test_original_scores_reproduce_responses(self, mixed_measure):
        rng = np.random.default_rng(6)
        means = [random_density(mixed_measure, rng) for _ in range(10)]
        responses = [random_density(mixed_measure, rng) for _ in range(10)]
        residuals = clr_stack(responses) - clr_stack(means)
        result = fpca(residuals, mixed_measure, truncation=None)
        rows = clr_stack(means) + (result.mean + scores(result, residuals, mixed_measure) @ result.eigenfunctions)
        rebuilt = densities_of(mixed_measure, rows)
        for orig, out in zip(responses, rebuilt):
            assert np.max(np.abs(density(orig.measure, orig.values).values - out.values)) < 1e-8

    def test_score_variances_match_eigenvalues(self, mixed_measure):
        rng = np.random.default_rng(7)
        residuals = residuals_from(mixed_measure, rng, 20)
        result = fpca(residuals, mixed_measure, truncation=4)
        means = np.zeros((10_000, mixed_measure.size))
        out = simulate_responses(means, result, seed=11, **options("simulate_responses"))
        w = mixed_measure.weights
        rows = out - result.mean
        sampled = (rows * w) @ result.eigenfunctions.T
        var = sampled.var(axis=0)
        np.testing.assert_allclose(var, result.eigenvalues, rtol=0.05)

    def test_noise_has_zero_clr_integral(self, mixed_measure):
        rng = np.random.default_rng(8)
        residuals = residuals_from(mixed_measure, rng, 15)
        result = fpca(residuals, mixed_measure, truncation=5)
        means = [random_density(mixed_measure, rng) for _ in range(5)]
        out = simulate_responses(clr_stack(means), result, seed=3, **options("simulate_responses"))
        for z in out:
            assert abs(z @ mixed_measure.weights) < 1e-9

    def test_deterministic_for_seed(self, mixed_measure):
        rng = np.random.default_rng(9)
        residuals = residuals_from(mixed_measure, rng, 10)
        result = fpca(residuals, mixed_measure, truncation=3)
        means = clr_stack([random_density(mixed_measure, rng) for _ in range(4)])
        a = simulate_responses(means, result, seed=42, **options("simulate_responses"))
        b = simulate_responses(means, result, seed=42, **options("simulate_responses"))
        for f, g in zip(a, b):
            np.testing.assert_array_equal(f, g)


class TestRelMse:
    def test_perfect_estimate(self, mixed_measure):
        rng = np.random.default_rng(10)
        truths = clr_stack([random_density(mixed_measure, rng) for _ in range(5)])
        assert rel_mse(truths, truths, mixed_measure) == 0.0

    def test_neutral_estimate_gives_one(self, mixed_measure):
        rng = np.random.default_rng(11)
        truths = clr_stack([random_density(mixed_measure, rng) for _ in range(5)])
        neutral = clr_stack([constant_density(mixed_measure)] * 5)
        assert rel_mse(truths, neutral, mixed_measure) == pytest.approx(1.0, abs=1e-12)

    def test_two_point_hand_computation(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        truth = clr_inv(ClrElement(m, np.array([0.3, -0.3])))
        est = clr_inv(ClrElement(m, np.array([0.1, -0.1])))
        # numerator: 2 * 0.2^2, denominator: 2 * 0.3^2
        expected = (2 * 0.2**2) / (2 * 0.3**2)
        assert rel_mse(clr_stack([truth]), clr_stack([est]), m) == pytest.approx(expected, abs=1e-12)

    def test_neutral_truth_rejected(self, mixed_measure):
        neutral = clr_stack([constant_density(mixed_measure)])
        with pytest.raises(ZeroDivisionError, match="neutral"):
            rel_mse(neutral, neutral, mixed_measure)

    def test_length_mismatch(self, mixed_measure):
        f = constant_density(mixed_measure)
        with pytest.raises(ValueError, match="length"):
            rel_mse(clr_stack([f]), clr_stack([f, f]), mixed_measure)


class TestSelectionTable:
    """Rows of simulate_selection.tsv from the selection paths of the fits."""

    def test_combined_rule(self):
        # year: continuous in both runs, discrete in the second;
        # region: discrete in the second run only
        paths = [
            {"continuous": [0, 0], "discrete": []},
            {"continuous": [0], "discrete": [1, 0, 1]},
        ]
        rows = {(t, c): (k, n) for t, c, k, n in selection_counts(["year", "region"], paths)}
        assert rows["year", "combined"][0] == 2
        assert rows["region", "combined"][0] == 1
        assert rows["region", "continuous"][0] == 0
        assert rows["region", "discrete"][1] == 1

    def test_counts_sum_to_replicates(self):
        paths = [{"continuous": [0] * (i % 2), "discrete": []} for i in range(7)]
        rows = selection_counts(["x"], paths)
        assert [k for *_, k, _ in rows] == [3, 0, 3]
        for *_, selected, not_selected in rows:
            assert selected + not_selected == 7

    def test_empty_runs_rejected(self):
        with pytest.raises(ValueError, match="runs"):
            selection_counts(["x"], [])


class TestNoiseScaleMonotonicity:
    def test_relmse_nondecreasing_in_noise(self):
        # end-to-end: simulate at growing noise scales, refit, compare medians
        from densreg.bayes import clr_rows
        from densreg.boosting import BoostConfig
        from densreg.model import EffectTerm, ModelSpec, fit, predict
        from densreg.synth import planted_problem

        m, data, truths, _ = planted_problem(seed=13, grid_size=30, n_years=6, **options("planted_problem"))
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
        base = fit(spec, data, clr_stack(truths), m, cfg, **options("model", density_knots=6))
        fitted = base.fitted_clr
        structure = fpca(clr_stack(truths) - fitted, m, truncation=10)
        medians = []
        for scale in (0.0, 1.0, 3.0):
            errors = []
            for rep in range(5):
                sim = simulate_responses(
                    fitted, structure, seed=100 + rep, noise_scale=scale
                )
                refit = fit(spec, data, sim, m, cfg, **options("model", density_knots=6))
                errors.append(rel_mse(fitted, clr_rows(predict(refit, data), m), m))
            medians.append(float(np.median(errors)))
        assert medians[0] <= medians[1] <= medians[2]
