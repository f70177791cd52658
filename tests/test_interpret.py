import numpy as np
import pytest

from densreg.bayes import (
    ClrElement,
    DensityElement,
    clr,
    clr_inv,
    constant_density,
    density,
    equal_b,
    geometric_mean_full,
    inverse,
    perturb,
    power,
    subtract,
)
from densreg.boosting import BoostConfig
from densreg.interpret import (
    did_effect,
    geometric_mean_odds,
    heatmap,
    log_odds,
    log_odds_ratio,
    mixed_discrete_odds,
    odds_ratio,
    threshold_split,
    value_at,
)
from densreg.measure import integrate, make_continuous, make_discrete, make_mixed
from densreg.model import EffectTerm, ModelSpec, extract_effect, fit
from densreg.synth import planted_problem

from conftest import random_density


def effect_from_clr(measure, values):
    return clr_inv(ClrElement(measure, values))


class TestLogOdds:
    def test_same_point_is_zero(self, mixed_measure):
        rng = np.random.default_rng(0)
        f = random_density(mixed_measure, rng)
        assert log_odds(f, 0.5, 0.5) == 0.0

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
            assert log_odds(f, t, s) == pytest.approx(-log_odds(f, s, t), abs=1e-14)

    def test_off_support_rejected(self):
        m = make_discrete([(0.0, 1.0), (1.0, 1.0)])
        f = density(m, [0.6, 0.4])
        with pytest.raises(ValueError, match="support"):
            log_odds(f, 0.5, 0.0)


class TestLogOddsRatio:
    def test_same_effect_is_zero(self, mixed_measure):
        rng = np.random.default_rng(2)
        f = random_density(mixed_measure, rng)
        assert log_odds_ratio(f, f, 0.25, 0.75) == 0.0

    def test_reference_reduces_to_log_odds(self, mixed_measure):
        rng = np.random.default_rng(3)
        f = random_density(mixed_measure, rng)
        ref = constant_density(mixed_measure)
        t, s = 0.305, 0.805
        assert log_odds_ratio(f, ref, t, s) == pytest.approx(log_odds(f, t, s), abs=1e-14)

    def test_ceteris_paribus(self, mixed_measure):
        rng = np.random.default_rng(4)
        f = random_density(mixed_measure, rng)
        g = random_density(mixed_measure, rng)
        common = random_density(mixed_measure, rng)
        t, s = 0.105, 0.605
        plain = log_odds_ratio(f, g, t, s)
        shifted = log_odds_ratio(perturb(common, f), perturb(common, g), t, s)
        assert abs(plain - shifted) < 1e-12


class TestGeometricMeanOdds:
    def test_constant_effect(self, mixed_measure):
        assert geometric_mean_odds(constant_density(mixed_measure), 0.5) == pytest.approx(1.0)

    def test_log_outputs_integrate_to_zero(self, mixed_measure):
        rng = np.random.default_rng(5)
        f = random_density(mixed_measure, rng)
        logs = np.array(
            [np.log(geometric_mean_odds(f, t)) for t in f.measure.locations]
        )
        assert abs(logs @ f.measure.weights) < 1e-9

    def test_matches_direct_ratio(self, mixed_measure):
        rng = np.random.default_rng(6)
        for _ in range(20):
            f = random_density(mixed_measure, rng)
            t = float(rng.choice(f.measure.grid))
            direct = f.values[np.argmin(np.abs(f.measure.locations - t))] / geometric_mean_full(f)
            assert geometric_mean_odds(f, t) == pytest.approx(direct, abs=1e-10)


class TestMixedDiscreteOdds:
    def test_constant_effect(self, mixed_measure):
        assert mixed_discrete_odds(constant_density(mixed_measure), 0.0) == pytest.approx(1.0)

    def test_matches_decomposed_clr_difference(self, mixed_measure):
        from densreg.bayes import decompose_mixed

        rng = np.random.default_rng(7)
        for _ in range(20):
            f = random_density(mixed_measure, rng)
            _, f_d = decompose_mixed(f)
            zd = clr(f_d).values
            expected = np.exp(zd[0] - zd[-1])
            assert mixed_discrete_odds(f, 0.0) == pytest.approx(expected, abs=1e-10)

    def test_hand_built_effect(self, mixed_measure):
        values = np.concatenate([[2.0, 1.0], np.ones(100)])
        f = density(mixed_measure, values, normalize=False)
        assert mixed_discrete_odds(f, 0.0) == pytest.approx(2.0, abs=1e-12)

    def test_interior_point_rejected(self, mixed_measure):
        f = constant_density(mixed_measure)
        with pytest.raises(ValueError, match="atom"):
            mixed_discrete_odds(f, 0.5)


@pytest.fixture(scope="module")
def did_models():
    """Two fitted models: one additive, one with a planted interaction."""
    from densreg.bayes import embed_clr_continuous, embed_clr_discrete
    from densreg.model import build_designs

    m, data, truths, effects = planted_problem(seed=11, grid_size=40, n_years=6)
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
    _, bases, _ = build_designs(spec, data, m, density_knots=6)
    rng = np.random.default_rng(1)
    zc = bases["continuous"].clr_matrix @ rng.normal(0, 0.3, size=bases["continuous"].n_basis)
    zd = bases["discrete"].clr_matrix @ rng.normal(0, 0.3, size=bases["discrete"].n_basis)
    contrast = (
        embed_clr_continuous(ClrElement(bases["continuous"].measure, zc), m).values
        + embed_clr_discrete(ClrElement(bases["discrete"].measure, zd), m).values
    )
    region = np.asarray(data["region"])
    cage = np.asarray(data["c_age"])
    z_rows = np.stack([clr(f).values for f in truths])
    sign_a = np.where(region == "east", 1.0, -1.0)
    sign_b = np.where(cage == "kids0_6", 1.0, np.where(cage == "other", -1.0, 0.0))
    with_inter = [
        clr_inv(ClrElement(m, z + sa * sb * 0.5 * contrast))
        for z, sa, sb in zip(z_rows, sign_a, sign_b)
    ]
    cfg = BoostConfig(max_iterations=1500, step_length=0.5, seed=0)
    additive = fit(spec, data, truths, cfg, density_knots=6)
    interacted = fit(spec, data, with_inter, cfg, density_knots=6)
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
        assert np.max(np.abs(clr(did).values)) < 1e-8

    def test_swapping_levels_inverts(self, did_models):
        m, contrast, _, interacted = did_models
        did = did_effect(
            interacted, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        swapped = did_effect(
            interacted, "region", ("west", "east"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        assert equal_b(swapped, inverse(did), tol=1e-9)

    def test_planted_interaction_recovered(self, did_models):
        m, contrast, _, interacted = did_models
        did = did_effect(
            interacted, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 3.0}
        )
        # planted contrast: (+1*+1 - (-1*+1)) - (+1*-1 - (-1*-1)) = 4 units
        expected = 4 * 0.5 * contrast
        assert np.max(np.abs(clr(did).values - expected)) < 1e-6


class TestHeatmap:
    def test_constant_effect_all_zero(self, mixed_measure):
        grid = heatmap(constant_density(mixed_measure), resolution=10)
        np.testing.assert_allclose(grid.values, 0.0, atol=1e-12)
        np.testing.assert_allclose(grid.outer_band, 0.0, atol=1e-12)

    def test_diagonal_zero_antisymmetric(self, mixed_measure):
        rng = np.random.default_rng(8)
        f = random_density(mixed_measure, rng)
        grid = heatmap(f, resolution=12)
        np.testing.assert_allclose(np.diag(grid.values), 0.0, atol=1e-14)
        np.testing.assert_allclose(grid.values, -grid.values.T, atol=1e-14)

    def test_monotone_effect_is_positive_for_larger_first_point(self):
        m = make_continuous(0, 1, 50)
        z = m.grid - float(m.grid @ m.grid_weights)
        f = effect_from_clr(m, z)
        grid = heatmap(f, resolution=10)
        # points are sorted ascending, so the lower triangle has t > s
        lower = grid.values[np.tril_indices_from(grid.values, k=-1)]
        assert np.all(lower > 0)

    def test_atoms_flagged(self, mixed_measure):
        rng = np.random.default_rng(9)
        f = random_density(mixed_measure, rng)
        grid = heatmap(f, resolution=10)
        assert grid.is_atom.sum() == 2
        assert grid.outer_band.shape == (2,)
        assert grid.points[grid.is_atom][0] == 0.0
        assert grid.points[grid.is_atom][-1] == 1.0

    def test_resolution_below_one(self, mixed_measure):
        with pytest.raises(ValueError, match="resolution must be at least 1"):
            heatmap(constant_density(mixed_measure), resolution=0)


class TestThresholdSplit:
    def test_constant_effect_at_threshold(self, mixed_measure):
        g = constant_density(mixed_measure)
        # a hair below the constant level to absorb renormalization rounding
        alpha = g.values[0] * (1.0 - 1e-12)
        split = threshold_split(constant_density(mixed_measure), g, alpha)
        assert split.mask.all()
        assert split.mass_inside_before == pytest.approx(1.0, abs=1e-12)
        assert split.mass_inside_after == pytest.approx(1.0, abs=1e-12)

    def test_mass_moves_toward_large_effect_region(self, mixed_measure):
        rng = np.random.default_rng(10)
        for _ in range(100):
            f = random_density(mixed_measure, rng)
            g = random_density(mixed_measure, rng)
            split = threshold_split(f, g, 1.0)
            assert split.mass_inside_after >= split.mass_inside_before - 1e-9
            assert split.mass_outside_after <= split.mass_outside_before + 1e-9

    def test_nonpositive_threshold_rejected(self, mixed_measure):
        f = constant_density(mixed_measure)
        with pytest.raises(ValueError, match="positive"):
            threshold_split(f, f, 0.0)

    def test_probability_ratio_link(self):
        # pointwise density-ratio domination carries over to probabilities
        m = make_continuous(0, 1, 100)
        t = m.grid
        f_j = density(m, np.exp(-2.0 * t))
        f_k = density(m, np.exp(2.0 * t))
        i_t = t >= 0.8
        i_s = t <= 0.2
        # h_j(t)/h_j(s) < h_k(t)/h_k(s) for all t in I_t, s in I_s
        p_j_t = float((f_j.values * m.weights)[i_t].sum())
        p_j_s = float((f_j.values * m.weights)[i_s].sum())
        p_k_t = float((f_k.values * m.weights)[i_t].sum())
        p_k_s = float((f_k.values * m.weights)[i_s].sum())
        assert p_j_t / p_j_s < p_k_t / p_k_s


class TestRepresentativeInvariance:
    def test_all_outputs_unchanged_by_scaling(self, mixed_measure):
        rng = np.random.default_rng(11)
        f = random_density(mixed_measure, rng)
        g = random_density(mixed_measure, rng)
        scaled_f = DensityElement(mixed_measure, 3.7 * f.values)
        scaled_g = DensityElement(mixed_measure, 0.2 * g.values)
        t, s = 0.105, 0.905
        assert log_odds(f, t, s) == pytest.approx(log_odds(scaled_f, t, s), abs=1e-12)
        assert log_odds_ratio(f, g, t, s) == pytest.approx(
            log_odds_ratio(scaled_f, scaled_g, t, s), abs=1e-12
        )
        assert geometric_mean_odds(f, t) == pytest.approx(
            geometric_mean_odds(scaled_f, t), abs=1e-12
        )
        assert mixed_discrete_odds(f, 0.0) == pytest.approx(
            mixed_discrete_odds(scaled_f, 0.0), abs=1e-12
        )
        a = threshold_split(f, g, 1.0)
        b = threshold_split(scaled_f, scaled_g, 1.0)
        assert a.mass_inside_after == pytest.approx(b.mass_inside_after, abs=1e-12)

    def test_density_odds_approximate_probability_odds(self):
        # ratio of small-interval probabilities converges to the density ratio
        t, s = 0.375, 0.625
        f_vals = lambda x: np.exp(np.sin(2 * np.pi * x) + 0.5 * x)
        widths = [0.2, 0.05, 0.0125]
        errors = []
        m_fine = make_continuous(0, 1, 4000)
        f = density(m_fine, f_vals(m_fine.grid))
        target = value_at(f, t) - value_at(f, s)
        for width in widths:
            sel_t = np.abs(m_fine.grid - t) <= width / 2
            sel_s = np.abs(m_fine.grid - s) <= width / 2
            p_t = float((f.values * m_fine.weights)[sel_t].sum()) / width
            p_s = float((f.values * m_fine.weights)[sel_s].sum()) / width
            errors.append(abs(np.log(p_t / p_s) - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3
