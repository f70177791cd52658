import numpy as np
import pytest

from densreg.bayes import ClrElement, DensityElement, clr, clr_inv
from densreg.boosting import BoostConfig
from densreg.interpret import did_effect, heatmap, log_odds, value_at
from densreg.measure import integrate, make_discrete, make_mixed
from densreg.model import EffectTerm, ModelSpec, extract_effect, fit, predict
from densreg.synth import planted_problem

from bayes_oracle import (
    constant_density,
    decompose_mixed,
    density,
    equal_b,
    geometric_mean_full,
    inverse,
    perturb,
    subtract,
)
from conftest import clr_stack, make_continuous, options, random_density


class TestLogOdds:
    def test_same_point_is_zero(self, mixed_measure):
        rng = np.random.default_rng(0)
        f = random_density(mixed_measure, rng)
        assert log_odds(clr(f), 0.5, 0.5) == 0.0

    def test_worked_boundary_example(self, mixed_measure):
        # clr values -0.44 at the lower atom, 0.31 at the upper one
        w = mixed_measure.weights
        values = np.concatenate([[-0.44, 0.31], np.zeros(100)])
        values[2:] -= (values @ w) / w[2:].sum()
        z = ClrElement(mixed_measure, values)
        lo = log_odds(z, 1.0, 0.0)
        assert abs(lo - 0.75) < 1e-12
        assert round(float(np.exp(lo)), 2) == 2.12

    def test_antisymmetry(self, mixed_measure):
        rng = np.random.default_rng(1)
        f = random_density(mixed_measure, rng)
        for _ in range(20):
            t, s = rng.uniform(0.01, 0.99, size=2)
            assert log_odds(clr(f), t, s) == pytest.approx(-log_odds(clr(f), s, t), abs=1e-14)

    def test_off_support_rejected(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        f = density(m, [0.6, 0.4])
        with pytest.raises(ValueError, match="support"):
            log_odds(clr(f), 0.5, 0.0)


class TestLogOddsRatio:
    """The log odds ratio of two effects is the log odds of their Bayes-space
    difference, which is how the DiD heatmap reads."""

    def test_same_effect_is_zero(self, mixed_measure):
        rng = np.random.default_rng(2)
        f = random_density(mixed_measure, rng)
        assert log_odds(clr(subtract(f, f)), 0.25, 0.75) == pytest.approx(0.0, abs=1e-14)

    def test_reference_reduces_to_log_odds(self, mixed_measure):
        rng = np.random.default_rng(3)
        f = random_density(mixed_measure, rng)
        ref = constant_density(mixed_measure)
        t, s = 0.305, 0.805
        assert log_odds(clr(subtract(f, ref)), t, s) == pytest.approx(log_odds(clr(f), t, s), abs=1e-12)

    def test_ceteris_paribus(self, mixed_measure):
        rng = np.random.default_rng(4)
        f = random_density(mixed_measure, rng)
        g = random_density(mixed_measure, rng)
        common = random_density(mixed_measure, rng)
        t, s = 0.105, 0.605
        plain = log_odds(clr(f), t, s) - log_odds(clr(g), t, s)
        shifted = log_odds(clr(subtract(perturb(common, f), perturb(common, g))), t, s)
        assert abs(plain - shifted) < 1e-12


class TestGeometricMeanOdds:
    """The clr value at t is the log odds of t against the geometric mean."""

    def test_constant_effect(self, mixed_measure):
        assert value_at(clr(constant_density(mixed_measure)), 0.5) == pytest.approx(0.0, abs=1e-14)

    def test_log_outputs_integrate_to_zero(self, mixed_measure):
        rng = np.random.default_rng(5)
        f = random_density(mixed_measure, rng)
        logs = np.array([value_at(clr(f), t) for t in f.measure.locations])
        assert abs(logs @ f.measure.weights) < 1e-9

    def test_matches_direct_ratio(self, mixed_measure):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_density(mixed_measure, rng)
            t = float(rng.choice(f.measure.grid))
            direct = f.values[np.argmin(np.abs(f.measure.locations - t))] / geometric_mean_full(f)
            assert np.exp(value_at(clr(f), t)) == pytest.approx(direct, abs=1e-10)


class TestMixedDiscreteOdds:
    """The heatmap's outer band: log odds of each atom against the geometric
    mean of the continuous component."""

    def test_constant_effect(self, mixed_measure):
        outer = heatmap(clr(constant_density(mixed_measure)), **options("heatmap")).outer_band
        np.testing.assert_allclose(outer, 0.0, atol=1e-12)

    def test_matches_decomposed_clr_difference(self, mixed_measure):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_density(mixed_measure, rng)
            zd = clr(decompose_mixed(f)[1]).values
            # the discrete component's clr at each atom minus its stand-in value
            outer = heatmap(clr(f), **options("heatmap")).outer_band
            np.testing.assert_allclose(outer, zd[:-1] - zd[-1], atol=1e-10)

    def test_hand_built_effect(self, mixed_measure):
        values = np.concatenate([[2.0, 1.0], np.ones(100)])
        f = density(mixed_measure, values, normalize=False)
        outer = heatmap(clr(f), **options("heatmap")).outer_band
        np.testing.assert_allclose(outer, [np.log(2.0), 0.0], atol=1e-12)


@pytest.fixture(scope="module")
def did_models():
    """Two fitted models: one additive, one with a planted interaction."""
    from densreg.bayes import embed_clr_continuous, embed_clr_discrete
    from densreg.model import build_designs

    m, data, truths, effects = planted_problem(seed=11, grid_size=40, n_years=6, **options("planted_problem"))
    spec = ModelSpec(
        terms=(
            EffectTerm("intercept", "intercept"),
            EffectTerm("region", "group_intercept", ("region",), df=1.0),
            EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
            EffectTerm("year", "flexible", ("year",), df=2.0, knots=4),
            EffectTerm(
                "region_x_c_age",
                "group_intercept",
                ("region", "c_age"),
                df=2.0,
                orthogonal_to=("region", "c_age"),
            ),
        ),
        references={"region": "west", "c_age": "other", "year": 0.0},
    )
    # plant the interaction contrast inside the model's density-basis span so
    # the fit can recover it beyond the spline approximation floor
    _, bases, _ = build_designs(spec, data, m, **options("model", density_knots=6))
    rng = np.random.default_rng(1)
    zc = bases["continuous"].clr_matrix @ rng.normal(0, 0.3, size=bases["continuous"].n_basis)
    zd = bases["discrete"].clr_matrix @ rng.normal(0, 0.3, size=bases["discrete"].n_basis)
    contrast = (
        embed_clr_continuous(ClrElement(bases["continuous"].measure, zc), m).values
        + embed_clr_discrete(ClrElement(bases["discrete"].measure, zd), m).values
    )
    region = np.asarray(data["region"])
    cage = np.asarray(data["c_age"])
    z_rows = clr_stack(truths)
    sign_a = np.where(region == "east", 1.0, -1.0)
    sign_b = np.where(cage == "kids0_6", 1.0, np.where(cage == "other", -1.0, 0.0))
    with_inter = z_rows + (sign_a * sign_b * 0.5)[:, None] * contrast
    cfg = BoostConfig(max_iterations=1500, step_length=0.5, seed=0)
    additive = fit(spec, data, z_rows, m, cfg, **options("model", density_knots=6))
    interacted = fit(spec, data, with_inter, m, cfg, **options("model", density_knots=6))
    return m, contrast, additive, interacted


class TestDidEffect:
    def test_no_interaction_gives_neutral(self, did_models):
        m, contrast, additive, _ = did_models
        did = did_effect(
            additive,
            "region", ("east", "west"),
            "c_age", ("kids0_6", "other"),
            {"year": 3.0},
        )
        assert np.max(np.abs(did.values)) < 1e-8

    def test_swapping_levels_inverts(self, did_models):
        m, contrast, _, interacted = did_models
        did = did_effect(
            interacted, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        swapped = did_effect(
            interacted, "region", ("west", "east"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        assert equal_b(clr_inv(swapped), inverse(clr_inv(did)), tol=1e-9)

    def test_planted_interaction_recovered(self, did_models):
        m, contrast, _, interacted = did_models
        did = did_effect(
            interacted, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        # planted contrast: (+1*+1 - (-1*+1)) - (+1*-1 - (-1*-1)) = 4 units
        expected = 4 * 0.5 * contrast
        assert np.max(np.abs(did.values - expected)) < 1e-6


def did_density_space(model, factor_a, levels_a, factor_b, levels_b, fixed):
    """The DiD as three Bayes-space differences of four predicted densities."""
    (a1, a0), (b1, b0) = levels_a, levels_b
    cells = [(a1, b1), (a0, b1), (a1, b0), (a0, b0)]
    table = {k: [v] * len(cells) for k, v in fixed.items()}
    table[factor_a] = [a for a, _ in cells]
    table[factor_b] = [b for _, b in cells]
    f11, f01, f10, f00 = (DensityElement(model.measure, row) for row in predict(model, table))
    return subtract(subtract(f11, f01), subtract(f10, f00))


class TestDidMatchesDensitySpace:
    @pytest.mark.parametrize("kind", ["discrete", "mixed"])
    def test_clr_contrast_equals_subtract_chain(self, kind):
        m, data, truths, _ = planted_problem(seed=4, grid_size=20, n_years=5, noise_scale=0.3)
        if kind == "discrete":
            m = make_discrete([(0.0, 1.0), (0.5, 1.0), (1.0, 2.0)])
            rng = np.random.default_rng(4)
            truths = [random_density(m, rng) for _ in truths]
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("region", "group_intercept", ("region",), df=1.0),
                EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
                EffectTerm("year", "flexible", ("year",), df=2.0, knots=3),
                EffectTerm("region_x_c_age", "group_intercept", ("region", "c_age"), df=2.0,
                           orthogonal_to=("region", "c_age")),
            ),
            references={"region": "west", "c_age": "other", "year": 0.0},
        )
        model = fit(spec, data, clr_stack(truths), m, BoostConfig(max_iterations=50),
                    **options("model", density_knots=5))
        args = (model, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 2.0})
        did, reference = did_effect(*args), did_density_space(*args)
        assert np.max(np.abs(clr(reference).values)) > 1e-3
        np.testing.assert_allclose(clr_inv(did).values, reference.values, rtol=1e-12, atol=0)
        np.testing.assert_allclose(did.values, clr(reference).values, rtol=0, atol=1e-12)


class TestDidIsTermContrast:
    """With the level pairs (value, reference), the DiD over two covariates is
    the reference-coded effect of a term on those two covariates."""

    @pytest.mark.parametrize(
        "term, factor_b, levels_b, fixed",
        [("region_x_c_age", "c_age", ("kids0_6", "other"), {"year": 2.0}),
         ("region_year", "year", (3.0, 0.0), {"c_age": "kids7_18"})],
    )
    def test_did_equals_extracted_effect(self, term, factor_b, levels_b, fixed):
        m, data, truths, _ = planted_problem(seed=4, grid_size=20, n_years=5, noise_scale=0.3)
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("region", "group_intercept", ("region",), df=1.0),
                EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
                EffectTerm("year", "flexible", ("year",), df=2.0, knots=3),
                EffectTerm("region_x_c_age", "group_intercept", ("region", "c_age"), df=2.0,
                           orthogonal_to=("region", "c_age")),
                EffectTerm("region_year", "group_flexible", ("region", "year"), knots=3,
                           orthogonal_to=("region", "year")),
            ),
            references={"region": "west", "c_age": "other", "year": 0.0},
        )
        model = fit(spec, data, clr_stack(truths), m, BoostConfig(max_iterations=50),
                    **options("model", density_knots=5))
        did = did_effect(model, "region", ("east", "west"), factor_b, levels_b, fixed)
        _, effect = extract_effect(model, term, {"region": "east", factor_b: levels_b[0], **fixed})
        assert np.max(np.abs(effect.values)) > 1e-3
        np.testing.assert_allclose(did.values, effect.values, rtol=0, atol=1e-12)


class TestHeatmap:
    def test_constant_effect_all_zero(self, mixed_measure):
        unnormalized = density(mixed_measure, np.full(mixed_measure.size, 3.0), normalize=False)
        for f in (constant_density(mixed_measure), unnormalized):
            grid = heatmap(clr(f), resolution=10)
            np.testing.assert_allclose(grid.values, 0.0, atol=1e-12)
            np.testing.assert_allclose(grid.outer_band, 0.0, atol=1e-12)

    def test_diagonal_zero_antisymmetric(self, mixed_measure):
        rng = np.random.default_rng(8)
        f = random_density(mixed_measure, rng)
        grid = heatmap(clr(f), resolution=12)
        np.testing.assert_allclose(np.diag(grid.values), 0.0, atol=1e-14)
        np.testing.assert_allclose(grid.values, -grid.values.T, atol=1e-14)

    def test_monotone_effect_is_positive_for_larger_first_point(self):
        m = make_continuous(0, 1, 50)
        z = m.grid - float(m.grid @ m.grid_weights)
        grid = heatmap(ClrElement(m, z), resolution=10)
        # points are sorted ascending, so the lower triangle has t > s
        lower = grid.values[np.tril_indices_from(grid.values, k=-1)]
        assert np.all(lower > 0)

    def test_atoms_flagged(self, mixed_measure):
        rng = np.random.default_rng(9)
        f = random_density(mixed_measure, rng)
        grid = heatmap(clr(f), resolution=10)
        assert grid.is_atom.sum() == 2
        assert grid.outer_band.shape == (2,)
        assert grid.points[grid.is_atom][0] == 0.0
        assert grid.points[grid.is_atom][-1] == 1.0

    def test_resolution_below_one(self, mixed_measure):
        with pytest.raises(ValueError, match="resolution must be at least 1"):
            heatmap(clr(constant_density(mixed_measure)), resolution=0)


class TestRepresentativeInvariance:
    def test_all_outputs_unchanged_by_scaling(self, mixed_measure):
        rng = np.random.default_rng(11)
        f = random_density(mixed_measure, rng)
        g = random_density(mixed_measure, rng)
        scaled_f = DensityElement(mixed_measure, 3.7 * f.values)
        scaled_g = DensityElement(mixed_measure, 0.2 * g.values)
        t, s = 0.105, 0.905
        assert log_odds(clr(f), t, s) == pytest.approx(log_odds(clr(scaled_f), t, s), abs=1e-12)
        assert value_at(clr(f), t) == pytest.approx(value_at(clr(scaled_f), t), abs=1e-12)
        assert log_odds(clr(subtract(f, g)), t, s) == pytest.approx(
            log_odds(clr(subtract(scaled_f, scaled_g)), t, s), abs=1e-12
        )
        a = heatmap(clr(f), **options("heatmap"))
        b = heatmap(clr(scaled_f), **options("heatmap"))
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.outer_band, b.outer_band, rtol=0, atol=1e-12)

    def test_density_odds_approximate_probability_odds(self):
        # ratio of small-interval probabilities converges to the density ratio
        t, s = 0.375, 0.625
        f_vals = lambda x: np.exp(np.sin(2 * np.pi * x) + 0.5 * x)
        widths = [0.2, 0.05, 0.0125]
        errors = []
        m_fine = make_continuous(0, 1, 4000)
        f = density(m_fine, f_vals(m_fine.grid))
        target = value_at(clr(f), t) - value_at(clr(f), s)
        for width in widths:
            sel_t = np.abs(m_fine.grid - t) <= width / 2
            sel_s = np.abs(m_fine.grid - s) <= width / 2
            p_t = float((f.values * m_fine.weights)[sel_t].sum()) / width
            p_s = float((f.values * m_fine.weights)[sel_s].sum()) / width
            errors.append(abs(np.log(p_t / p_s) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3
