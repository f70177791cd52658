"""The record API that the benchmark tracer (``perfbench/trace.py``) builds
on, called the way the tracer calls it: it builds the config objects and
the fitted model itself and reads results by attribute. No tier-1 test
imports ``perfbench/``, so these calls are checked here."""
import dataclasses
import json

import numpy as np
import pytest

from densreg.bayes import decompose_clr_rows
from densreg.boosting import BoostConfig, MixedFit, boost_from_clr, early_stop_from_clr
from densreg.ingest import KdeConfig
from densreg.interpret import did_effect, heatmap
from densreg.io import model_to_dict, validate_config
from densreg.model import EffectTerm, FittedModel, ModelSpec, build_designs, fit
from densreg.synth import planted_problem

from conftest import clr_stack

CONFIG = validate_config({
    "seed": 4,
    "threads": 2,
    "model": {
        "references": {"region": "west", "c_age": "other", "year": 0.0},
        "density_basis": {"knots": 6},
        "terms": [
            {"name": "intercept", "kind": "intercept"},
            {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
            {"name": "c_age", "kind": "group_intercept", "covariates": ["c_age"]},
            {"name": "year", "kind": "flexible", "covariates": ["year"], "knots": 4},
        ],
    },
    "boosting": {"max_iterations": 30, "stopping": {"method": "cv", "folds": 4}},
})


def tracer_spec(cfg):
    m = cfg["model"]
    terms = tuple(
        EffectTerm(**dict(t, covariates=tuple(t["covariates"]), orthogonal_to=tuple(t["orthogonal_to"])))
        for t in m["terms"]
    )
    return ModelSpec(terms, m["coding"], m["references"])


def tracer_boost_config(cfg):
    b = cfg["boosting"]
    return BoostConfig(
        step_length=b["step_length"], max_iterations=b["max_iterations"],
        stopping=b["stopping"]["method"], m_stop=b["stopping"]["m_stop"],
        folds=b["stopping"]["folds"], replicates=b["stopping"]["replicates"],
        target_df=cfg["model"]["default_df"], seed=cfg["seed"], threads=cfg["threads"],
    )


def tracer_design_options(cfg):
    db = cfg["model"]["density_basis"]
    return {"default_df": cfg["model"]["default_df"], "density_knots": db["knots"],
            "density_degree": db["degree"], "density_penalty_order": db["penalty_order"],
            "lambda_density": db["lambda_density"]}


def test_terms_and_spec_from_config_items():
    spec = tracer_spec(CONFIG)
    assert [t.name for t in spec.terms] == ["intercept", "region", "c_age", "year"]
    year = spec.term("year")
    assert (year.kind, year.covariates, year.knots, year.degree, year.orthogonal_to) == (
        "flexible", ("year",), 4, 3, ())
    assert spec.coding == "effect" and spec.references["region"] == "west"


def test_boost_config_takes_tracer_fields_and_replace():
    config = tracer_boost_config(CONFIG)
    assert (config.target_df, config.threads, config.seed, config.folds) == (2.0, 2, 4, 4)
    other = dataclasses.replace(config, seed=config.seed + 1)
    assert (other.seed, other.stopping, other.threads) == (5, "cv", 2)
    assert dataclasses.replace(config, threads=1).threads == 1
    with pytest.raises(ValueError, match="step length"):
        dataclasses.replace(config, step_length=2.0)


def test_kde_config_by_keyword():
    grid = np.geomspace(0.01, 0.1, 5)
    kcfg = KdeConfig(bandwidth=0.05, floor=1e-5, bandwidth_grid=grid)
    assert (kcfg.bandwidth, kcfg.floor) == (0.05, 1e-5)
    np.testing.assert_array_equal(kcfg.bandwidth_grid, grid)
    assert KdeConfig(bandwidth="auto", floor=1e-6).bandwidth_grid.size == 16


def test_hand_built_model_dumps_like_the_fitted_one():
    # the tracer fits each component itself, sets the stop curves on the
    # states and assembles FittedModel(8 arguments) around MixedFit(4)
    measure, data, truths, _ = planted_problem(seed=2, grid_size=30, n_years=4, noise_scale=0.3)
    spec, config, options = tracer_spec(CONFIG), tracer_boost_config(CONFIG), tracer_design_options(CONFIG)
    y_clr = clr_stack(truths)
    want = fit(spec, data, y_clr, measure, config, **options)

    frame, bases, designs = build_designs(spec, data, measure, **options)
    states = {}
    for k, (comp, y) in enumerate(zip(("continuous", "discrete"), decompose_clr_rows(y_clr, measure))):
        c_cfg = dataclasses.replace(config, seed=config.seed + k)
        stop = early_stop_from_clr(y, bases[comp].measure, designs[comp], c_cfg)
        assert stop.risk_curve.shape == (config.max_iterations + 1,)
        states[comp] = boost_from_clr(y, bases[comp].measure, designs[comp], c_cfg, m_stop=stop.m_stop)
        states[comp].stop_curve = stop.risk_curve
    model = FittedModel(
        spec, measure, frame, MixedFit(states["continuous"], states["discrete"], measure, None),
        bases, options["lambda_density"], config,
        {k: options[k] for k in ("density_knots", "density_degree", "density_penalty_order")},
    )
    assert ({c: s.m_stop for c, s in model.component_states().items()}
            == {c: s.m_stop for c, s in want.component_states().items()})
    assert json.dumps(model_to_dict(model)) == json.dumps(model_to_dict(want))

    did = did_effect(model, "region", ("east", "west"), "c_age", ("kids0_6", "other"), {"year": 2.0})
    grid = heatmap(did, 10)
    assert grid.values.shape == (grid.points.size, grid.points.size)
    np.testing.assert_array_equal(np.diag(grid.values), 0.0)
