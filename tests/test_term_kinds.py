"""Every term kind, under both codings, with and without ``orthogonal_to``.

``tests/data/term_kinds.json`` was captured from the model layer that still
built each kind in its own code branch. For each case it holds the shape and
sha256 of the raw design, the raw penalty and the constrained design, plus
the column count, smoothing parameter and achieved df, or the error the case
raised. The block-string encoder must reproduce it bit for bit, except where
the identification rule changed on purpose: effect-coded categorical terms
without ``orthogonal_to`` are no longer centered over the training rows,
which used to remove a real contrast.
"""
import hashlib
import json
import pathlib
import re

import numpy as np
import pytest

from densreg.basis import bspline_eval, bspline_knots
from densreg.boosting import BoostConfig
from densreg.model import EffectTerm, ModelSpec, build_designs, design_report, fit
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
