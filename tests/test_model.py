import numpy as np
import pytest

from densreg.bayes import ClrElement, DensityElement, clr, clr_inv
from densreg.boosting import BoostConfig
from densreg.measure import make_discrete
from densreg.model import (
    EffectTerm,
    FittedModel,
    ModelSpec,
    SpecMismatch,
    build_designs,
    design_report,
    extract_effect,
    fit,
    predict,
    predict_clr,
)
from densreg.synth import planted_problem

from bayes_oracle import constant_density, equal_b, norm, subtract
from conftest import clr_stack, options, random_density


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
    m, data, truths, effects = planted_problem(seed=3, grid_size=60, n_years=12, **options("planted_problem"))
    spec = income_spec()
    model = fit(
        spec,
        data,
        clr_stack(truths),
        m,
        BoostConfig(max_iterations=400, stopping="fixed", seed=0),
        **options("model", density_knots=8),
    )
    return m, data, truths, effects, model


class TestBuildDesigns:
    def test_intercept_only(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        spec = ModelSpec(terms=(EffectTerm("intercept", "intercept"),))
        frame, bases, designs = build_designs(spec, data, m, **options("model"))
        assert set(designs) == {"continuous", "discrete"}
        assert designs["continuous"][0].X.shape == (len(truths), 1)

    def test_unknown_covariate_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        spec = ModelSpec(terms=(EffectTerm("bad", "flexible", ("elevation",)),))
        with pytest.raises(ValueError, match="elevation"):
            build_designs(spec, data, m, **options("model"))

    def test_constant_flexible_covariate_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        data = dict(data, year=np.zeros(len(truths)))
        spec = ModelSpec(terms=(EffectTerm("year", "flexible", ("year",)),))
        with pytest.raises(ValueError, match="constant"):
            build_designs(spec, data, m, **options("model"))

    def test_single_level_group_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        data = dict(data, region=["east"] * len(truths))
        spec = ModelSpec(terms=(EffectTerm("region", "group_intercept", ("region",)),))
        with pytest.raises(ValueError, match="two levels"):
            build_designs(spec, data, m, **options("model"))

    @pytest.mark.parametrize(
        "terms, message",
        [
            ((EffectTerm("year", "flexible", ("year",)),
              EffectTerm("yr_cat", "group_intercept", ("year",))),
             "covariate 'year' used with conflicting types"),
            ((EffectTerm("region", "group_intercept", ("region",)),
              EffectTerm("x", "varying_coefficient", ("region", "year"))),
             "covariate 'region' used with conflicting types"),
            ((EffectTerm("year", "flexible", ("year",), orthogonal_to=("region_year",)),
              EffectTerm("region_year", "group_flexible", ("region", "year"))),
             "term 'year' is constrained against 'region_year', which must be declared earlier"),
            ((EffectTerm("year", "flexible", ("year",), orthogonal_to=("year",)),),
             "term 'year' is constrained against 'year', which must be declared earlier"),
            ((EffectTerm("year", "flexible", ("year",)),
              EffectTerm("region_year", "group_flexible", ("region", "year"),
                         orthogonal_to=("year", "regoin"))),
             "term 'region_year' is constrained against 'regoin', which must be declared earlier"),
        ],
        ids=["numeric_then_categorical", "categorical_then_numeric", "later_term", "itself",
             "unknown_term"],
    )
    def test_spec_rules_checked_when_declared(self, terms, message):
        # no data needed: the spec itself is rejected
        with pytest.raises(ValueError, match=f"^{message}$"):
            ModelSpec(terms)

    def test_covariate_kinds_follow_blocks(self):
        term = EffectTerm("region_year", "group_flexible", ("region", "year"))
        assert term.covariate_kinds == ("categorical", "numeric")
        spec = ModelSpec((term, EffectTerm("x", "varying_coefficient", ("x", "year"))))
        assert spec.numeric_covariates == {"x", "year"}

    @pytest.mark.parametrize("size", ["knots", "degree", "penalty_order"])
    def test_negative_term_sizes_rejected(self, size):
        # rejected when the term is declared, not when its design is built
        with pytest.raises(ValueError, match=f"{size} must be nonnegative"):
            EffectTerm("year", "flexible", ("year",), **{size: -1})

    @pytest.mark.parametrize("kind, covariates", [
        ("flexible", ("year",)), ("group_flexible", ("region", "year")),
        ("interaction", ("year", "x")),
    ])
    @pytest.mark.parametrize("knots, degree, order", [(0, 0, 1), (0, 0, 2), (4, 3, 8)])
    def test_spline_penalty_order_above_its_dimension_rejected(self, kind, covariates,
                                                               knots, degree, order):
        # a spline of knots + degree + 1 columns takes differences of order
        # at most knots + degree
        with pytest.raises(ValueError, match=(
                f"^term 'year': penalty_order {order} exceeds knots \\+ degree "
                f"\\({knots} \\+ {degree}\\)")):
            EffectTerm("year", kind, covariates, knots=knots, degree=degree, penalty_order=order)
        EffectTerm("year", kind, covariates, knots=knots, degree=degree,
                   penalty_order=knots + degree)

    def test_penalty_order_of_a_term_without_splines_is_not_read(self):
        for kind, covariates in [("intercept", ()), ("group_intercept", ("region",)),
                                 ("linear", ("year",))]:
            EffectTerm("t", kind, covariates, knots=0, degree=0, penalty_order=5)

    def test_term_without_free_columns_names_the_term(self):
        # one constant column, centered away by the intercept
        m, data, _, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        spec = ModelSpec(terms=(
            EffectTerm("intercept", "intercept"),
            EffectTerm("year", "flexible", ("year",), knots=0, degree=0, penalty_order=0),
        ))
        with pytest.raises(SpecMismatch, match="no free coefficients") as caught:
            build_designs(spec, data, m, **options("model"))
        assert caught.value.item == "terms[1]"

    @pytest.mark.parametrize("knots, degree, order, message", [
        (0, 0, 2, "penalty_order 2 exceeds"),
        (10, 3, 20, "penalty_order 20 exceeds"),
        # one B-spline on the grid, which the sum-to-zero constraint removes
        (0, 0, 0, r"knots \+ degree \(0 \+ 0\) leave one B-spline"),
    ], ids=["0-0-2", "10-3-20", "0-0-0"])
    def test_density_penalty_order_above_its_dimension_names_the_basis(
        self, knots, degree, order, message
    ):
        m, data, _, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        spec = ModelSpec(terms=(EffectTerm("intercept", "intercept"),))
        sizes = dict(density_knots=knots, density_degree=degree, density_penalty_order=order)
        with pytest.raises(SpecMismatch, match=message) as caught:
            build_designs(spec, data, m, **options("model", **sizes))
        assert caught.value.item == "density_basis"
        # only a grid reads the density-basis options: a discrete-only measure fits
        atoms = make_discrete([(0, 1), (0.5, 1), (1, 1)])
        _, bases, _ = build_designs(spec, data, atoms, **options("model", **sizes))
        assert list(bases) == ["single"] and bases["single"].n_basis == 2
        y = np.random.default_rng(0).normal(size=(len(data["year"]), 3))
        y_clr = y - (y @ atoms.weights / atoms.weights.sum())[:, None]
        model = fit(spec, data, y_clr, atoms, BoostConfig(max_iterations=5), **options("model", **sizes))
        assert model.fits.m_stop == 5

    def test_observation_centering(self):
        # under effect coding every non-intercept design is mean-centered, so
        # the average fitted partial effect is the zero function exactly
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6, **options("planted_problem"))
        spec = income_spec()
        frame, bases, designs = build_designs(spec, data, m, **options("model"))
        for design in designs["continuous"][1:]:
            np.testing.assert_allclose(design.X.mean(axis=0), 0.0, atol=1e-9)

    def test_interaction_orthogonal_to_mains(self):
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6, **options("planted_problem"))
        spec = income_spec()
        _, _, designs = build_designs(spec, data, m, **options("model"))
        by_name = dict(zip((t.name for t in spec.terms), designs["continuous"]))
        inter = by_name["region_x_c_age"].X
        for main in ("region", "c_age"):
            cross = by_name[main].X.T @ inter
            np.testing.assert_allclose(cross, 0.0, atol=1e-9)

    def test_reference_coding_zero_rows(self):
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6, **options("planted_problem"))
        spec = income_spec(coding="reference")
        _, _, designs = build_designs(spec, data, m, **options("model"))
        by_name = dict(zip((t.name for t in spec.terms), designs["continuous"]))
        region = np.asarray(data["region"])
        rows = by_name["region"].X[region == "west"]
        np.testing.assert_allclose(rows, 0.0, atol=1e-12)


class TestCategoricalIdentification:
    """Categorical terms without ``orthogonal_to`` are identified by their
    coding under both codings; centering them as well removes a real contrast
    as soon as the rows are unbalanced."""

    @pytest.mark.parametrize("coding", ["effect", "reference"])
    def test_unbalanced_paper_model_fits(self, coding):
        m, data, truths, _ = planted_problem(seed=0, grid_size=100, n_years=30, noise_scale=0.5)
        keep = np.setdiff1d(np.arange(len(truths)), [3, 50, 51])
        data = {k: np.asarray(v)[keep] for k, v in data.items()}
        spec = ModelSpec(
            terms=income_spec(coding).terms[:4] + (
                EffectTerm("region_year", "group_flexible", ("region", "year"),
                           orthogonal_to=("region", "year")),
            ),
            coding=coding,
            references={"region": "west", "c_age": "other", "year": 0.0},
        )
        model = fit(spec, data, clr_stack([truths[i] for i in keep]), m,
                    BoostConfig(max_iterations=20), **options("model", density_knots=6))
        columns = {r["term"]: r["columns"] for r in design_report(model)}
        assert (columns["region"], columns["c_age"]) == (1, 2)
        assert len(predict(model, {k: v[:3] for k, v in data.items()})) == 3

    def test_balanced_group_flexible_keeps_every_contrast(self):
        m, data, truths, _ = planted_problem(seed=1, grid_size=30, n_years=6, **options("planted_problem"))
        spec = ModelSpec(
            terms=(
                EffectTerm("intercept", "intercept"),
                EffectTerm("c_age_year", "group_flexible", ("c_age", "year"), knots=4),
            ),
            references={"c_age": "other"},
        )
        frame, _, designs = build_designs(spec, data, m, **options("model"))
        # (levels - 1) x splines: 2 x 8
        assert designs["continuous"][1].n_cov == 16
        assert frame.encoders[1].transform is None


class TestFitAndPredict:
    def test_zero_noise_recovery(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        preds = [DensityElement(m, row) for row in predict(model, data)]
        num = sum(norm(subtract(t, p)) ** 2 for t, p in zip(truths, preds))
        den = sum(norm(t) ** 2 for t in truths)
        assert num / den < 1e-3

    def test_planted_main_effects_selected(self, planted_fit):
        *_, model = planted_fit
        paths = [state.selections for state in model.component_states().values()]
        for j, term in enumerate(model.spec.terms):
            if term.name in ("region", "c_age", "year"):
                assert any(j in path for path in paths)

    def test_two_stopping_values_for_mixed(self, planted_fit):
        *_, model = planted_fit
        states = model.component_states()
        assert list(states) == ["continuous", "discrete"]
        assert all(isinstance(s.m_stop, int) for s in states.values())

    def test_training_rows_reproduce_fitted(self, planted_fit):
        m, data, truths, effects, model = planted_fit
        rows = np.stack([z.values for z in predict_clr(model, data)])
        np.testing.assert_allclose(rows, model.fits.fitted_clr, atol=1e-9)

    def test_predictions_positive_and_normalized(self, planted_fit):
        m, data, *_ , model = planted_fit
        few = {k: np.asarray(v)[:5] for k, v in data.items()}
        preds = predict(model, few)
        assert preds.shape == (5, m.size) and np.all(preds > 0)
        np.testing.assert_allclose(preds @ m.weights, 1.0, rtol=0, atol=1e-10)

    def test_refit_identical(self):
        m, data, truths, _ = planted_problem(seed=5, grid_size=30, n_years=6, **options("planted_problem"))
        spec = income_spec()
        cfg = BoostConfig(max_iterations=40, stopping="bootstrap", replicates=5, seed=9)
        a = fit(spec, data, clr_stack(truths), m, cfg, **options("model", density_knots=6))
        b = fit(spec, data, clr_stack(truths), m, cfg, **options("model", density_knots=6))
        for ca, cb in zip(a.fits.continuous.coefficients, b.fits.continuous.coefficients):
            np.testing.assert_array_equal(ca, cb)
        assert ([s.m_stop for s in a.component_states().values()]
                == [s.m_stop for s in b.component_states().values()])

    def test_length_mismatch_rejected(self):
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, **options("planted_problem"))
        spec = income_spec()
        with pytest.raises(ValueError, match="length"):
            fit(spec, data, clr_stack(truths[:-1]), m, BoostConfig(max_iterations=2),
                **options("model"))


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
        m, data, truths, _ = planted_problem(seed=6, grid_size=30, n_years=6, **options("planted_problem"))
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
        model = fit(spec, data, clr_stack(truths), m, BoostConfig(max_iterations=3),
                    **options("model", density_knots=6))
        states = model.component_states()
        for comp, state in states.items():
            if 2 not in state.selections:
                assert np.all(state.coefficients[2] == 0.0)

    def test_intercept_of_model_without_covariates(self):
        # the contrast builds a covariate table with no column at all; its one
        # cell is the prediction, the same for every row
        m, data, truths, _ = planted_problem(seed=0, grid_size=20, n_years=4, noise_scale=0.5)
        spec = ModelSpec((EffectTerm("intercept", "intercept"),))
        model = fit(spec, data, clr_stack(truths), m, BoostConfig(max_iterations=20),
                    **options("model", density_knots=6))
        dens, z = extract_effect(model, "intercept", {})
        expected = predict_clr(model, data)
        np.testing.assert_allclose(z.values, expected[0].values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dens.values, predict(model, data)[-1], rtol=1e-12, atol=0)

    def test_unknown_term_rejected(self, planted_fit):
        *_, model = planted_fit
        with pytest.raises(KeyError):
            extract_effect(model, "ghost", {"region": "east", "c_age": "other", "year": 1.0})


class TestCodingInvariance:
    def test_effect_and_reference_coding_agree_at_convergence(self):
        # unpenalized learners with a half step make every update an exact
        # projection, so both parameterizations reach the shared joint
        # least-squares limit within the iteration budget
        m, data, truths, _ = planted_problem(seed=7, grid_size=30, n_years=8, **options("planted_problem"))

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
        model_e = fit(spec("effect"), data, clr_stack(truths), m, cfg, **options("model", density_knots=6))
        model_r = fit(spec("reference"), data, clr_stack(truths), m, cfg, **options("model", density_knots=6))
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
        model = fit(spec, data, clr_stack(responses), m, BoostConfig(max_iterations=20),
                    **options("model"))
        assert list(model.component_states()) == ["single"]
        assert model.fits is model.component_states()["single"]
        assert isinstance(model.component_states()["single"].m_stop, int)
        preds = predict(model, data)
        assert len(preds) == n
