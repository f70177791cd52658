"""Every term kind, under both codings, with and without ``orthogonal_to``.

``tests/data/term_kinds.json`` was captured from the model layer that still
built each kind in its own code branch. For each case it holds the shape and
sha256 of the raw design, the raw penalty and the constrained design, plus
the column count, smoothing parameter and achieved df, or the error the case
raised. The block-string encoder must reproduce it bit for bit, except where
the identification rule changed on purpose: effect-coded categorical terms
without ``orthogonal_to`` are no longer centered over the training rows,
which used to remove a real contrast. Generated configs over every kind run
the command chain and the model file's round trip.
"""
import hashlib
import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densreg.basis import bspline_eval, bspline_knots
from densreg.bayes import clr_inv_rows
from densreg.boosting import BoostConfig
from densreg.cli import main
from densreg.io import load_config, model_from_dict, model_to_dict, run_objects, write_density_file
from densreg.model import EffectTerm, ModelSpec, build_designs, design_report, fit, predict
from densreg.synth import planted_problem

from conftest import clr_stack, options

FIXTURE = pathlib.Path(__file__).resolve().parent / "data" / "term_kinds.json"
with open(FIXTURE) as fh:
    EXPECTED = json.load(fh)

MEASURE, DATA, TRUTHS, _ = planted_problem(seed=0, grid_size=20, n_years=8, **options("planted_problem"))
# a second numeric covariate for the two-spline kinds
DATA = dict(DATA, age=np.random.default_rng(1).uniform(20.0, 60.0, len(DATA["year"])))

MAINS = (
    EffectTerm("region", "group_intercept", ("region",), df=1.0),
    EffectTerm("c_age", "group_intercept", ("c_age",), df=2.0),
    EffectTerm("year", "flexible", ("year",), df=2.0, knots=2),
    EffectTerm("age", "flexible", ("age",), df=2.0, knots=2),
)
# kind -> (covariates, orthogonal_to when orthogonalized) of the term "t"
CASES = {
    "intercept": ((), ("region",)),
    "linear": (("age",), ("region",)),
    "flexible": (("age",), ("region",)),
    "group_intercept": (("region", "c_age"), ("region", "c_age")),
    "group_linear": (("c_age", "age"), ("region",)),
    "group_flexible": (("c_age", "year"), ("c_age", "year")),
    "varying_coefficient": (("age", "year"), ("c_age",)),
    "interaction": (("year", "age"), ("year", "age")),
}
# constrained widths of the effect-coded categorical terms without
# orthogonal_to: (levels - 1) per categorical block times the other blocks
UNCENTERED_WIDTHS = {
    "group_intercept": 1 * 2,   # region x c_age
    "group_linear": 2 * 1,      # c_age x age
    "group_flexible": 2 * 6,    # c_age x 6 splines of year
}


def case_spec(kind, coding, orthogonal):
    covariates, others = CASES[kind]
    term = EffectTerm("t", kind, covariates, df=3.0, knots=2,
                      orthogonal_to=others if orthogonal else ())
    head = () if kind == "intercept" else (EffectTerm("intercept", "intercept"),)
    return ModelSpec(head + MAINS + (term,), coding,
                     {"region": "west", "c_age": "other", "year": 0.0, "age": 40.0})


def digest(a):
    a = np.ascontiguousarray(a, dtype=np.float64)
    return [list(a.shape), hashlib.sha256(a.tobytes()).hexdigest()]


def record(kind, coding, orthogonal):
    frame, _, designs = build_designs(case_spec(kind, coding, orthogonal), DATA, MEASURE,
                                      **options("model", density_knots=4))
    enc = frame.encoders[-1]
    x = designs["continuous"][-1].X
    np.testing.assert_array_equal(x, enc.design(DATA, len(TRUTHS)))
    return enc, {
        "raw_design": digest(enc.raw_design(DATA, len(TRUTHS))),
        "raw_penalty": digest(enc.raw_penalty()),
        "design": digest(x),
        "n_columns": enc.n_columns,
        "lambda": enc.lambda_cov,
        "achieved_df": enc.achieved_df,
    }


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_case_reproduces_fixture(case):
    kind, coding, variant = case.split("/")
    orthogonal = variant == "orthogonal"
    expected = EXPECTED[case]
    if "error" in expected:
        with pytest.raises(ValueError, match=re.escape(expected["error"])):
            record(kind, coding, orthogonal)
        return
    enc, got = record(kind, coding, orthogonal)
    if coding == "effect" and "c" in enc.term.blocks and not orthogonal:
        for key in ("raw_design", "raw_penalty"):
            assert got[key] == expected[key], key
        assert enc.transform is None
        assert got["n_columns"] == got["design"][0][1] == UNCENTERED_WIDTHS[kind]
    else:
        assert got == expected


def test_fixture_covers_every_kind_coding_and_constraint():
    assert sorted(EXPECTED) == sorted(
        f"{kind}/{coding}/{variant}" for kind in CASES for coding in ("effect", "reference")
        for variant in ("plain", "orthogonal")
    )


def test_varying_coefficient_on_one_covariate():
    # x * f(x): the slots are taken by position, so the same covariate is the
    # linear column in the first and the spline basis in the second
    term = EffectTerm("t", "varying_coefficient", ("year", "year"), df=2.0, knots=2)
    spec = ModelSpec((EffectTerm("intercept", "intercept"), term))
    frame, _, designs = build_designs(spec, DATA, MEASURE, **options("model", density_knots=4))
    enc = frame.encoders[-1]
    year = np.asarray(DATA["year"])
    splines = bspline_eval(bspline_knots(year.min(), year.max(), 2, 3), 3, year)
    np.testing.assert_array_equal(enc.raw_design(DATA, year.size), year[:, None] * splines)
    assert enc.raw_penalty().shape == (6, 6)
    assert designs["continuous"][-1].n_cov == 5  # centered
    model = fit(spec, DATA, clr_stack(TRUTHS), MEASURE, BoostConfig(max_iterations=5),
                **options("model", density_knots=4))
    assert [r["columns"] for r in design_report(model)] == [1, 5]


@pytest.mark.parametrize("coding", ["effect", "reference"])
def test_intercept_orthogonal_to_centered_year(coding):
    # the constraint rows year' 1 vanish up to rounding once year is centered;
    # rank is measured against the designs, so they remove no column
    spec = ModelSpec(
        (EffectTerm("year", "flexible", ("year",), df=2.0, knots=2),
         EffectTerm("intercept", "intercept", orthogonal_to=("year",))),
        coding, {"year": 0.0},
    )
    model = fit(spec, DATA, clr_stack(TRUTHS), MEASURE, BoostConfig(max_iterations=5),
                **options("model", density_knots=4))
    assert [r["columns"] for r in design_report(model)] == [5, 1]


@pytest.mark.parametrize("unit", [1e-20, 1.0, 1e20])
def test_orthogonalization_independent_of_units(unit):
    # each block of constraint rows is measured against the design it comes
    # from, so rescaling the covariate of that design removes the same columns
    spec = ModelSpec((
        EffectTerm("intercept", "intercept"),
        EffectTerm("age", "group_linear", ("c_age", "age"), df=1.0),
        EffectTerm("year", "flexible", ("year",), df=2.0, knots=2, orthogonal_to=("age",)),
    ))
    data = dict(DATA, age=DATA["age"] * unit)
    model = fit(spec, data, clr_stack(TRUTHS), MEASURE, BoostConfig(max_iterations=5),
                **options("model", density_knots=4))
    assert [r["columns"] for r in design_report(model)] == [1, 2, 3]


# covariate values of the generated interpret items and references
AT = {"region": "east", "c_age": "kids0_6", "year": 3.0, "age": 40.0}
REFERENCES = {"region": "west", "c_age": "other", "year": 0.0, "age": 40.0}


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """The planted densities with their covariates, and the same covariates
    as newdata."""
    root = tmp_path_factory.mktemp("configs")
    cols = ["region", "c_age", "year", "age"]
    keys = [tuple(str(v) if isinstance(v, str) else repr(float(v)) for v in row)
            for row in zip(*(DATA[c] for c in cols))]
    write_density_file(root / "densities.tsv", MEASURE, cols, keys, TRUTHS)
    (root / "newdata.tsv").write_text("".join("\t".join(row) + "\n" for row in [cols, *keys]))
    return root


@st.composite
def generated_configs(draw):
    """A fit, predict and interpret config: one to three terms of any kind
    with small spline bases, constrained against earlier terms, under
    either coding, with or without a density penalty, and any stopping
    rule; the interpret item is an effect of the first term."""
    terms = []
    for i, kind in enumerate(draw(st.lists(st.sampled_from(sorted(CASES)), min_size=1, max_size=3))):
        term = {"name": f"t{i}", "kind": kind, "covariates": list(CASES[kind][0]),
                "knots": draw(st.integers(0, 3)), "degree": draw(st.integers(1, 3)),
                "penalty_order": draw(st.integers(1, 2))}
        if terms:
            term["orthogonal_to"] = draw(st.lists(st.sampled_from([t["name"] for t in terms]),
                                                  unique=True, max_size=2))
        df = draw(st.sampled_from([None, 1.0, 3.0]))
        if df is not None:
            term["df"] = df
        terms.append(term)
    used = {c for t in terms for c in t["covariates"]}
    method = draw(st.sampled_from(["fixed", "cv", "bootstrap"]))
    max_iterations = draw(st.integers(1, 60))
    stopping = {"method": method, "folds": draw(st.integers(2, 5)),
                "replicates": draw(st.integers(2, 4))}
    if method == "fixed":
        stopping["m_stop"] = draw(st.one_of(st.none(), st.integers(0, max_iterations)))
    return {
        "seed": draw(st.integers(0, 10)),
        "model": {
            "coding": draw(st.sampled_from(["effect", "reference"])),
            "references": {c: REFERENCES[c] for c in sorted(used)},
            "density_basis": {"knots": draw(st.integers(2, 5)),
                              "lambda_density": draw(st.sampled_from([0.0, 0.2]))},
            "terms": terms,
        },
        "boosting": {"max_iterations": max_iterations, "stopping": stopping},
        "interpret": {"effects": [{"term": "t0", "at": {c: AT[c] for c in sorted(used)}}]},
    }


@settings(max_examples=60, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(config=generated_configs())
def test_generated_config_chain_and_model_round_trip(chain_inputs, tmp_path_factory, capsys, config):
    # every command ends in an exit code, never a traceback; a fit that
    # succeeds is one that predict and interpret read back, and its model
    # file predicts its in-bag fit on the training covariates
    out = tmp_path_factory.mktemp("chain")
    config["data"] = {"densities": str(chain_inputs / "densities.tsv"),
                      "newdata": str(chain_inputs / "newdata.tsv"),
                      "model": str(out / "model.json")}
    config["out"] = str(out)
    path = out / "config.json"
    path.write_text(json.dumps(config))
    codes = []
    for command in ("fit", "predict", "interpret"):
        codes.append(main([command, "--config", str(path)]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2, 3, 4) and "Traceback" not in err, (command, err)
    if codes[0]:
        return
    assert codes == [0, 0, 0]
    run = run_objects(load_config(path), "fit")
    model = fit(run.spec, DATA, clr_stack(TRUTHS), MEASURE, run.boost, **run.fit_options)
    fields = json.loads(json.dumps(model_to_dict(model)))
    assert fields == json.loads((out / "model.json").read_text())
    np.testing.assert_allclose(predict(model_from_dict(fields), DATA),
                               clr_inv_rows(model.fits.fitted_clr, MEASURE), rtol=1e-9, atol=0)
