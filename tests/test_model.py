import numpy as np
import pytest

from densreg.bayes import ClrElement, clr, clr_inv, constant_density, equal_b, norm, subtract
from densreg.boosting import BoostConfig
from densreg.measure import make_continuous, make_discrete
from densreg.model import (
    EffectTerm,
    FittedModel,
    ModelSpec,
    build_designs,
    design_report,
    extract_effect,
    fit,
    predict,
    predict_clr,
)
from densreg.synth import planted_problem

from conftest import random_density


def income_spec(coding="effect"):
    return ModelSpec(
        terms=(
            EffectTerm("intercept", "intercept"),
            EffectTerm("region", "group_intercept", ("region",), df=1.0),
            EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
            EffectTerm("year", "flexible", ("year",), df=2.0, knots=6),
            EffectTerm(
                "region_x_c_age",
                "group_intercept",
                ("region", "c_age"),
                df=2.0,
                orthogonal_to=("region", "c_age"),
            ),
        ),
        coding=coding,
        references={"region": "west", "c_age": "other", "year": 0.0},
    )


@pytest.fixture(scope="module")
def planted_fit():
    m, data, truths, effects = planted_problem(seed=3, grid_size=60, n_years=12)
    spec = income_spec()
    model = fit(
        spec,
        data,
        truths,
        BoostConfig(max_iterations=400, stopping="fixed", seed=0),
        density_knots=8,
    )
    return m, data, truths, effects, model


class TestBuildDesigns:
    def test_intercept_only(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4)
        spec = ModelSpec(terms=(EffectTerm("intercept", "intercept"),))
        frame, bases, designs = build_designs(spec, data, m)
        assert set(designs) == {"continuous", "discrete"}
        assert designs["continuous"][0].X.shape == (len(truths), 1)

    def test_unknown_covariate_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4)
        spec = ModelSpec(terms=(EffectTerm("bad", "flexible", ("elevation",)),))
        with pytest.raises(ValueError, match="elevation"):
            build_designs(spec, data, m)

    def test_constant_flexible_covariate_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4)
        data = dict(data, year=np.zeros(len(truths)))
        spec = ModelSpec(terms=(EffectTerm("year", "flexible", ("year",)),))
        with pytest.raises(ValueError, match="constant"):
            build_designs(spec, data, m)

    def test_single_level_group_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4)
        data = dict(data, region=["east"] * len(truths))
        spec = ModelSpec(terms=(EffectTerm("region", "group_intercept", ("region",)),))
        with pytest.raises(ValueError, match="two levels"):
            build_designs(spec, data, m)

    @pytest.mark.parametrize("size", ["knots", "degree", "penalty_order"])
    def test_negative_term_sizes_rejected(self, size):
        # rejected when the term is declared, not when its design is built
        with pytest.raises(ValueError, match=f"{size} must be nonnegative"):
            EffectTerm("year", "flexible", ("year",), **{size: -1})

    def test_observation_centering(self):
        # under effect coding every non-intercept design is mean-centered, so
        # the average fitted partial effect is the zero function exactly
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6)
        spec = income_spec()
        frame, bases, designs = build_designs(spec, data, m)
        for design in designs["continuous"][1:]:
            np.testing.assert_allclose(design.X.mean(axis=0), 0.0, atol=1e-9)

    def test_interaction_orthogonal_to_mains(self):
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6)
        spec = income_spec()
        _, _, designs = build_designs(spec, data, m)
        by_name = {d.name: d for d in designs["continuous"]}
        inter = by_name["region_x_c_age"].X
        for main in ("region", "c_age"):
            cross = by_name[main].X.T @ inter
            np.testing.assert_allclose(cross, 0.0, atol=1e-9)

    def test_reference_coding_zero_rows(self):
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6)
        spec = income_spec(coding="reference")
        _, _, designs = build_designs(spec, data, m)
        by_name = {d.name: d for d in designs["continuous"]}
        region = np.asarray(data["region"])
        rows = by_name["region"].X[region == "west"]
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)


class TestFitAndPredict:
    def test_zero_noise_recovery(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        preds = predict(model, data)
        num = sum(norm(subtract(t, p)) ** 2 for t, p in zip(truths, preds))
        den = sum(norm(t) ** 2 for t in truths)
        assert num / den < 1e-3

    def test_planted_main_effects_selected(self, planted_fit):
        *_, model = planted_fit
        selected = model.selected_terms()
        for name in ("region", "c_age", "year"):
            assert selected[name]["combined"]

    def test_two_stopping_values_for_mixed(self, planted_fit):
        *_, model = planted_fit
        assert isinstance(model.m_stop, tuple) and len(model.m_stop) == 2

    def test_training_rows_reproduce_fitted(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        rows = np.stack([z.values for z in predict_clr(model, data)])
        np.testing.assert_allclose(rows, model.fits.fitted_clr, atol=1e-9)

    def test_predictions_positive_and_normalized(self, planted_fit):
        m, data, *_ , model = planted_fit
        few = {k: np.asarray(v)[:5] for k, v in data.items()}
        for f in predict(model, few):
            assert np.all(f.values > 0)
            assert f.total() == pytest.approx(1.0, abs=1e-10)

    def test_refit_identical(self):
        m, data, truths, _ = planted_problem(seed=5, grid_size=30, n_years=6)
        spec = income_spec()
        cfg = BoostConfig(max_iterations=40, stopping="bootstrap", replicates=5, seed=9)
        a = fit(spec, data, truths, cfg, density_knots=6)
        b = fit(spec, data, truths, cfg, density_knots=6)
        for ca, cb in zip(a.fits.continuous.coefficients, b.fits.continuous.coefficients):
            np.testing.assert_array_equal(ca, cb)
        assert a.m_stop == b.m_stop

    def test_length_mismatch_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4)
        spec = income_spec()
        with pytest.raises(ValueError, match="length"):
            fit(spec, data, truths[:-1], BoostConfig(max_iterations=2))


class TestExtractEffect:
    def test_reference_combination_is_neutral(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        dens, z = extract_effect(
            model, "region", {"region": "west", "c_age": "other", "year": 3.0}
        )
        np.testing.assert_allclose(z.values, 0.0, atol=1e-9)
        assert equal_b(dens, constant_density(m), tol=1e-8)

    def test_clr_view_integrates_to_zero(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        _, z = extract_effect(
            model, "c_age", {"region": "east", "c_age": "kids0_6", "year": 5.0}
        )
        assert abs(z.values @ m.weights) < 1e-9

    def test_sum_of_extracted_effects_is_prediction(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        point = {"region": "east", "c_age": "kids7_18", "year": 7.0}
        total = np.zeros(m.size)
        for term in model.spec.terms:
            _, z = extract_effect(model, term.name, point)
            total += z.values
        row = {k: [v] for k, v in point.items()}
        expected = predict_clr(model, row)[0].values
        np.testing.assert_allclose(total, expected, atol=1e-9)

    def test_never_selected_term_is_exactly_neutral(self):
        m, data, truths, _ = planted_problem(seed=6, grid_size=30, n_years=6)
        # nuisance column unrelated to the generator
        rng = np.random.default_rng(0)
        data = dict(data, nuisance=rng.normal(size=len(truths)))
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("region", "group_intercept", ("region",), df=1.0),
                EffectTerm("nuisance", "flexible", ("nuisance",), df=2.0, knots=4),
            ),
            references={"region": "west"},
        )
        model = fit(spec, data, truths, BoostConfig(max_iterations=3), density_knots=6)
        states = model.component_states()
        for comp, state in states.items():
            if not state.selected_mask[2]:
                assert np.all(state.coefficients[2] == 0.0)

    def test_unknown_term_rejected(self, planted_fit):
        *_, model = planted_fit
        with pytest.raises(KeyError):
            extract_effect(model, "ghost", {"region": "east", "c_age": "other", "year": 1.0})


class TestCodingInvariance:
    def test_effect_and_reference_coding_agree_at_convergence(self):
        # unpenalized learners with a half step make every update an exact
        # projection, so both parameterizations reach the shared joint
        # least-squares limit within the iteration budget
        m, data, truths, _ = planted_problem(seed=7, grid_size=30, n_years=8)

        def spec(coding):
            return ModelSpec(
                terms=(
                    EffectTerm("intercept", "intercept"),
                    EffectTerm("region", "group_intercept", ("region",), df=50),
                    EffectTerm("c_age", "group_intercept", ("c_age",), df=50),
                    EffectTerm("year", "flexible", ("year",), df=50, knots=2),
                ),
                coding=coding,
                references={"region": "west", "c_age": "other", "year": 0.0},
            )

        cfg = BoostConfig(step_length=0.5, max_iterations=400, seed=0)
        model_e = fit(spec("effect"), data, truths, cfg, density_knots=6)
        model_r = fit(spec("reference"), data, truths, cfg, density_knots=6)
        pe = np.stack([z.values for z in predict_clr(model_e, data)])
        pr = np.stack([z.values for z in predict_clr(model_r, data)])
        assert np.max(np.abs(pe - pr)) < 1e-8


class TestDesignReport:
    def test_report_shape_and_caps(self, planted_fit):
        *_, model = planted_fit
        report = design_report(model)
        by_name = {r["term"]: r for r in report}
        assert by_name["intercept"]["achieved_df"] == pytest.approx(1.0)
        # binary region term cannot reach two degrees of freedom
        assert by_name["region"]["achieved_df"] <= 1.0 + 1e-6
        assert by_name["year"]["achieved_df"] == pytest.approx(2.0, abs=1e-3)


class TestSingleComponentDispatch:
    def test_discrete_measure_fits_single_state(self):
        m = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        rng = np.random.default_rng(8)
        n = 12
        data = {"x": rng.uniform(size=n)}
        responses = [random_density(m, rng) for _ in range(n)]
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("x", "flexible", ("x",), df=2.0, knots=4),
            )
        )
        model = fit(spec, data, responses, BoostConfig(max_iterations=20))
        assert not model.is_mixed
        assert isinstance(model.m_stop, int)
        preds = predict(model, data)
        assert len(preds) == n
