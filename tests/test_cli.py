import copy
import gc
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from densreg import cli
from densreg.cli import main
from densreg.basis import bspline_knots, density_basis, raw_density_basis, sum_to_zero_transform
from densreg.io import (
    INTERPRET_FILES,
    ConfigError,
    DataError,
    load_config,
    model_from_dict,
    model_to_dict,
    read_density_file,
    reported_as,
    run_objects,
    validate_config,
    write_density_file,
)
from densreg.measure import ReferenceMeasure, integrate, make_mixed
from densreg.model import SpecMismatch
from densreg.synth import planted_problem, synthetic_observations

from conftest import clr_stack, options


def write_config(path, **sections):
    with open(path, "w") as fh:
        json.dump(sections, fh)
    return str(path)


def write_observations(path, table):
    keys = list(table.keys())
    with open(path, "w") as fh:
        fh.write("\t".join(keys) + "\n")
        n = len(table[keys[0]])
        for i in range(n):
            fh.write(
                "\t".join(
                    v if isinstance(v := table[k][i], str) else repr(float(v))
                    for k in keys
                )
                + "\n"
            )
    return str(path)


DATA = pathlib.Path(__file__).resolve().parent / "data"

MEASURE = {
    "interval": [0.0, 1.0],
    "atoms": [{"location": 0.0, "weight": 1.0}, {"location": 1.0, "weight": 1.0}],
    "grid_size": 40,
}

MODEL = {
    "references": {"region": "west", "c_age": "other", "year": 0.0},
    "density_basis": {"knots": 6},
    "terms": [
        {"name": "intercept", "kind": "intercept"},
        {"name": "region", "kind": "group_intercept", "covariates": ["region"], "df": 1.0},
        {"name": "c_age", "kind": "group_intercept", "covariates": ["c_age"], "df": 2.0},
        {"name": "year", "kind": "flexible", "covariates": ["year"], "df": 2.0, "knots": 4},
    ],
}


@pytest.fixture
def densities_file(tmp_path):
    m, data, truths, _ = planted_problem(seed=21, grid_size=40, n_years=6, **options("planted_problem"))
    path = tmp_path / "dens.tsv"
    keys = [
        (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
        for i in range(len(truths))
    ]
    write_density_file(path, m, ["region", "c_age", "year"], keys, truths)
    return str(path)


class TestConfigValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key.*extra"):
            validate_config({"extra": 1})

    def test_nested_unknown_key_paths(self):
        with pytest.raises(ConfigError, match=r"config\.boosting\.stopping"):
            validate_config({"boosting": {"stopping": {"mystery": 1}}})

    def test_bad_stopping_method(self):
        with pytest.raises(ConfigError, match="method"):
            validate_config({"boosting": {"stopping": {"method": "magic"}}})

    def test_invalid_json_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(path)

    def test_defaults_filled(self):
        cfg = validate_config({})
        assert cfg["seed"] == 0
        assert cfg["boosting"]["step_length"] == 0.1
        assert cfg["kde"]["bandwidth"] == "auto"

    def test_full_config_sets_every_table_row(self):
        from densreg.io import _CONFIG

        def rows(value, row=""):
            key = _CONFIG.get(row)
            found = {row} if key else set()
            if isinstance(value, dict) and not (key and key.items):
                for key, v in value.items():
                    found |= rows(v, f"{row}.{key}" if row else key)
            elif isinstance(value, list) and _CONFIG[row].items == "object":
                for v in value:
                    found |= rows(v, row + "[]")
            return found

        with open(DATA / "config_full.json") as fh:
            assert rows(json.load(fh)) == set(_CONFIG)

    def test_earlier_normalization_reproduced(self):
        # config_full_normalized.json holds what the earlier, hand-written
        # validator returned for config_full.json and for {}, after a JSON
        # round trip
        with open(DATA / "config_full.json") as fh:
            full = json.load(fh)
        with open(DATA / "config_full_normalized.json") as fh:
            expected = json.load(fh)
        for name, raw in (("full", full), ("empty", {})):
            got = json.loads(json.dumps(validate_config(raw)))
            assert got == expected[name]
            # also tells 1 from 1.0
            assert json.dumps(got, sort_keys=True) == json.dumps(expected[name], sort_keys=True)

    @pytest.mark.parametrize(
        "raw, path",
        [
            ({"measure": {"interval": [1.0, 0.0]}}, "config.measure: interval"),
            ({"kde": {"bandwidth_grid": [0.2, 0.1]}}, "config.kde: bandwidth grid"),
            ({"model": {"terms": [{"name": "a", "kind": "bogus"}]}}, "config.model.terms[0]: unknown"),
            ({"model": {"terms": [{"name": "a", "kind": "intercept"}] * 2}}, "config.model: term names"),
        ],
    )
    def test_constructor_rules_reported_at_section_path(self, raw, path):
        with pytest.raises(ConfigError) as info:
            validate_config(raw)
        assert str(info.value).startswith(path)

    def test_normalized_config_is_not_shared(self):
        first = validate_config({})
        first["interpret"]["effects"].append("changed")
        assert validate_config({})["interpret"]["effects"] == []

    def test_load_config_overrides(self, tmp_path):
        path = write_config(tmp_path / "cfg.json", seed=3)
        assert load_config(path)["seed"] == 3
        cfg = load_config(path, {"seed": 5, "threads": 2})
        assert (cfg["seed"], cfg["threads"]) == (5, 2)

    @pytest.mark.parametrize("flag, value, field", [("--seed", "-1", "seed")])
    def test_cli_overrides_checked_by_table(self, tmp_path, capsys, flag, value, field):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["fit", "--config", cfg, flag, value]) == 2
        assert capsys.readouterr().err.startswith(f"config error: config.{field}: ")

    def test_no_threads_flag(self, tmp_path, capsys):
        # every command runs on one thread, so there is no thread count to pass
        cfg = write_config(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as info:
            main(["fit", "--config", cfg, "--threads", "2"])
        assert info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


# Malformed configs that once ended with a traceback (exit 1), as a data
# error (exit 3), as a numeric failure (exit 4), or were silently coerced
# (exit 0): command, field (dotted, list indices as numbers), value
PROBES = [
    ("simulate", "simulation.truncation", "x"),
    ("simulate", "simulation.truncation", 0),
    ("interpret", "interpret.effects", "x"),
    ("estimate", "measure.interval", ["a", "b"]),
    ("interpret", "interpret.heatmap_resolution", 0),
    ("fit", "model.density_basis.lambda_density", -1),
    ("fit", "data.densities", 5),
    ("estimate", "kde.floor", "x"),
    ("estimate", "kde.floor", -1),
    ("estimate", "kde.bandwidth", -1),
    ("estimate", "kde.bandwidth_grid", [0.2, 0.1]),
    ("simulate", "simulation.replicates", "x"),
    ("simulate", "simulation.noise_scale", "x"),
    ("interpret", "interpret.effects", [{"at": {}}]),
    ("interpret", "interpret.did", [{"factor_a": "region"}]),
    ("interpret", "interpret.odds", [{"term": "year"}]),
    ("fit", "model.terms.1.kind", "bogus"),
    ("fit", "model.terms.3.knots", -2),
    ("fit", "model.terms.3.degree", -1),
    ("fit", "model.terms.1.covariates", []),
    ("estimate", "measure.interval", [1, 0]),
    ("estimate", "measure.atoms.0.weight", "x"),
    ("estimate", "measure.atoms", [{"location": 0.0}]),
    ("estimate", "kde.bandwidth", True),
    # measures the shares cannot fill: atoms off the boundaries, or an
    # interval other than [0, 1]
    ("estimate", "measure.atoms.0.location", 0.3),
    ("estimate", "measure.interval", [0.0, 2.0]),
    ("fit", "model.default_df", -3),
    ("simulate", "simulation.replicates", 2.5),
    ("interpret", "interpret.svg", "no"),
    ("fit", "model.terms.1.name", 5),
]


@pytest.mark.parametrize(
    "command, field, value", PROBES, ids=[f"{c}-{f}={json.dumps(v)}" for c, f, v in PROBES]
)
def test_malformed_config_exits_config_error(tmp_path, capsys, densities_file, command, field, value):
    obs = write_observations(tmp_path / "obs.tsv", synthetic_observations(0, groups=2, n_per_group=40))
    sections = {
        "data": {
            "observations": obs, "densities": densities_file,
            "model": str(DATA / "model_v1.json"), "newdata": str(DATA / "model_v1_newdata.tsv"),
        },
        "measure": copy.deepcopy(MEASURE),
        "kde": {"bandwidth": 0.05},
        "model": copy.deepcopy(MODEL),
        "boosting": {"max_iterations": 5},
        "simulation": {"replicates": 2},
        "interpret": {},
    }
    *head, last = [int(k) if k.isdigit() else k for k in field.split(".")]
    target = sections
    for key in head:
        target = target[key]
    target[last] = value
    cfg = write_config(tmp_path / "cfg.json", **sections)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config.{field.split('.')[0]}")
    assert "Traceback" not in err


class TestDensityFileRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 25)
        values = np.exp(rng.normal(size=(3, m.size)))
        from bayes_oracle import density, same_support

        densities = [density(m, v) for v in values]
        path = tmp_path / "d.tsv"
        write_density_file(path, m, ["g"], [("a",), ("b",), ("c",)], densities)
        m2, cols, keys, back = read_density_file(path)
        assert cols == ["g"]
        assert keys == [("a",), ("b",), ("c",)]
        assert same_support(m2, m)
        for f, g in zip(densities, back):
            np.testing.assert_array_equal(f.values, g.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(1)
        m = make_mixed(0, 1, [(0, 1), (1, 1)], 25)
        from bayes_oracle import density

        densities = [density(m, np.exp(rng.normal(size=m.size)))]
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_density_file(p1, m, ["g"], [("x",)], densities)
        _, _, _, back = read_density_file(p1)
        write_density_file(p2, m, ["g"], [("x",)], back)
        assert p1.read_bytes() == p2.read_bytes()


class TestEstimateCommand:
    def test_three_groups(self, tmp_path):
        obs = write_observations(tmp_path / "obs.tsv", synthetic_observations(0, groups=3, n_per_group=120))
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"observations": obs},
            measure=MEASURE,
            kde={"bandwidth": 0.05},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        measure, cols, keys, densities = read_density_file(out / "densities.tsv")
        assert len(densities) == 3
        assert cols == ["region", "c_age"]
        for f in densities:
            assert integrate(f.measure, f.values) == pytest.approx(1.0, abs=1e-8)
        report = (out / "estimate_report.tsv").read_text().splitlines()
        assert report[0].split("\t") == ["region", "c_age", "n", "p0", "p1", "bandwidth"]

    def test_boundary_only_group(self, tmp_path):
        table = {
            "g": ["a"] * 4,
            "value": [0.0, 0.0, 0.0, 1.0],
            "weight": [1.0, 1.0, 1.0, 1.0],
        }
        obs = write_observations(tmp_path / "obs.tsv", table)
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"observations": obs},
            measure=MEASURE,
            kde={"bandwidth": 0.05},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        _, _, _, densities = read_density_file(out / "densities.tsv")
        f = densities[0]
        assert np.all(f.values > 0)
        # nearly all mass stays on the atoms
        atom_mass = float(f.values[:2] @ f.measure.atom_weights)
        assert atom_mass > 0.999

    def test_atom_weights_are_free(self, tmp_path):
        obs = write_observations(tmp_path / "obs.tsv", synthetic_observations(0, groups=2, n_per_group=40))
        measure = dict(MEASURE, atoms=[{"location": 0.0, "weight": 2.0}, {"location": 1.0, "weight": 0.5}])
        cfg = write_config(
            tmp_path / "cfg.json", data={"observations": obs}, measure=measure,
            kde={"bandwidth": 0.05},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        m, _, _, densities = read_density_file(out / "densities.tsv")
        assert m.atom_weights.tolist() == [2.0, 0.5]
        for f in densities:
            assert integrate(f.measure, f.values) == pytest.approx(1.0, abs=1e-8)

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "obs.tsv"
        path.write_text("a\tb\n1\t2\n")
        cfg = write_config(
            tmp_path / "cfg.json", data={"observations": str(path)}, measure=MEASURE
        )
        assert main(["estimate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    def test_skipped_group_then_fit(self, tmp_path):
        # a group of zero total weight is skipped, which leaves the estimated
        # densities unbalanced over region x c_age
        table = synthetic_observations(2, groups=6, n_per_group=60)
        table["weight"] = [
            0.0 if (r, c) == ("east", "kids7_18") else w
            for r, c, w in zip(table["region"], table["c_age"], table["weight"])
        ]
        obs = write_observations(tmp_path / "obs.tsv", table)
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"observations": obs, "densities": str(out / "densities.tsv")},
            measure=MEASURE,
            kde={"bandwidth": 0.05},
            model=dict(MODEL, references={"region": "west", "c_age": "other"},
                       terms=MODEL["terms"][:3]),
            boosting={"max_iterations": 20},
        )
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        skipped = (out / "skipped_groups.tsv").read_text().splitlines()
        assert skipped[1:] == ["east\tkids7_18"]
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        report = [ln.split("\t") for ln in (out / "design_report.tsv").read_text().splitlines()]
        columns = {row[0]: row[report[0].index("columns")] for row in report[1:]}
        assert (columns["region"], columns["c_age"]) == ("1", "2")

    def test_estimate_roundtrips_through_check(self, tmp_path):
        obs = write_observations(tmp_path / "obs.tsv", synthetic_observations(1, groups=2, n_per_group=150))
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"observations": obs},
            measure=MEASURE,
            kde={"bandwidth": 0.05},
        )
        out = tmp_path / "out"
        assert main(["estimate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["check", str(out / "densities.tsv"), "--config", cfg]) == 0


class TestFitCommand:
    def test_fit_and_outputs(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={"max_iterations": 40},
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "model.json",
            "risk_continuous.tsv",
            "risk_discrete.tsv",
            "selection_continuous.tsv",
            "design_report.tsv",
        ):
            assert (out / name).exists()
        risk = [
            float(ln.split("\t")[1])
            for ln in (out / "risk_continuous.tsv").read_text().splitlines()[1:]
        ]
        assert all(a >= b - 1e-9 for a, b in zip(risk, risk[1:]))

    def test_refit_byte_identical(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={
                "max_iterations": 25,
                "stopping": {"method": "bootstrap", "replicates": 4},
            },
            seed=7,
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["fit", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["fit", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_intercept_only(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model={"terms": [{"name": "intercept", "kind": "intercept"}]},
            boosting={"max_iterations": 5},
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={"step_length": 2.0},
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "boosting, field",
        [
            ({"stopping": {"m_stop": "x"}}, "stopping.m_stop"),
            ({"stopping": {"m_stop": 2.5}}, "stopping.m_stop"),
            ({"stopping": {"m_stop": 300}}, "stopping.m_stop"),
            ({"stopping": {"m_stop": -1}}, "stopping.m_stop"),
            ({"step_length": "x"}, "step_length"),
            ({"step_length": True}, "step_length"),
            ({"max_iterations": "many"}, "max_iterations"),
            ({"max_iterations": 10, "stopping": {"m_stop": 11}}, "stopping.m_stop"),
            ({"stopping": {"folds": "ten"}}, "stopping.folds"),
            ({"stopping": {"replicates": 2.5}}, "stopping.replicates"),
            ({"stopping": []}, "stopping"),
            ([], ""),
        ],
    )
    def test_boosting_section_errors_exit_config(self, tmp_path, capsys, densities_file, boosting, field):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting=boosting,
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.boosting{'.' + field if field else ''}:")

    @pytest.mark.parametrize(
        "changes, field",
        [
            ({"terms": {3: {"knots": [1]}}}, "terms[3].knots"),
            ({"terms": {3: {"knots": "x"}}}, "terms[3].knots"),
            ({"terms": {3: {"degree": 2.5}}}, "terms[3].degree"),
            ({"terms": {3: {"df": "x"}}}, "terms[3].df"),
            ({"terms": {1: {"covariates": "region"}}}, "terms[1].covariates"),
            ({"terms": {1: {"orthogonal_to": [1]}}}, "terms[1].orthogonal_to"),
            ({"references": [1]}, "references"),
            ({"default_df": "x"}, "default_df"),
            ({"density_basis": {"knots": "x"}}, "density_basis.knots"),
            ({"density_basis": {"lambda_density": "x"}}, "density_basis.lambda_density"),
        ],
    )
    def test_model_section_errors_exit_config(self, tmp_path, capsys, densities_file, changes, field):
        model = copy.deepcopy(MODEL)
        for key, value in changes.items():
            if key == "terms":
                for i, term_changes in value.items():
                    model["terms"][i].update(term_changes)
            else:
                model[key] = value
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=model,
            boosting={"max_iterations": 5},
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config.model.{field}:")

    @pytest.mark.parametrize(
        "change, message",
        [
            ("orthogonal_to_later_term",
             "term 'year' is constrained against 'region_year', which must be declared earlier"),
            ("covariate_with_two_kinds", "covariate 'year' used with conflicting types"),
        ],
        ids=["orthogonal_to_later_term", "covariate_with_two_kinds"],
    )
    def test_spec_rules_exit_config_at_model(self, tmp_path, capsys, densities_file, change, message):
        model = copy.deepcopy(MODEL)
        model["terms"].append({
            "name": "region_year", "kind": "group_flexible", "covariates": ["region", "year"],
            "knots": 4, "orthogonal_to": ["region", "year"],
        })
        if change == "orthogonal_to_later_term":
            model["terms"][3]["orthogonal_to"] = ["region_year"]
        else:
            model["terms"].append({"name": "yr_cat", "kind": "group_intercept", "covariates": ["year"]})
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=model,
            boosting={"max_iterations": 5},
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: config.model: {message}\n"

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"terms": {3: {"covariates": ["x"]}}},
             "config.model.terms[3]: unknown covariate 'x'"),
            ({"terms": {1: {"covariates": ["x"]}}},
             "config.model.terms[1]: unknown covariate 'x'"),
            ({"references": {"c_age": "0"}},
             "config.model.references.c_age: reference '0' not a level of 'c_age'"),
            ({"references": {"year": "abc"}},
             "config.model.references.year: reference 'abc' of 'year' is not a number"),
            ({"references": {"year": 99.0}},
             "config.model.references.year: reference 99.0 of 'year' lies outside the "
             "training range [0.0, 5.0] of its spline basis"),
        ],
        ids=["unknown_spline_covariate", "unknown_categorical_covariate",
             "reference_not_a_level", "reference_not_a_number", "spline_reference_off_range"],
    )
    def test_spec_items_the_data_contradicts_exit_config(
        self, tmp_path, capsys, densities_file, command, change, message
    ):
        model = copy.deepcopy(MODEL)
        for i, term_changes in change.get("terms", {}).items():
            model["terms"][i].update(term_changes)
        model["references"].update(change.get("references", {}))
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=model,
            boosting={"max_iterations": 5},
            simulation={"replicates": 2},
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize(
        "change, message",
        [
            ({"terms": {3: {"knots": 0, "degree": 0}}},
             "config.model.terms[3]: term 'year': penalty_order 2 exceeds knots + degree "
             "(0 + 0), the spline's highest difference order"),
            ({"terms": {3: {"penalty_order": 20}}},
             "config.model.terms[3]: term 'year': penalty_order 20 exceeds knots + degree "
             "(4 + 3), the spline's highest difference order"),
            ({"terms": {3: {"knots": 0, "degree": 0, "penalty_order": 0}}},
             "config.model.terms[3]: identifiability constraints leave no free coefficients"),
            ({"density_basis": {"knots": 0, "degree": 0}},
             "config.model.density_basis: penalty_order 2 exceeds knots + degree (0 + 0), "
             "the spline's highest difference order"),
            ({"density_basis": {"penalty_order": 20}},
             "config.model.density_basis: penalty_order 20 exceeds knots + degree (10 + 3), "
             "the spline's highest difference order"),
            ({"density_basis": {"knots": 0, "degree": 0, "penalty_order": 0}},
             "config.model.density_basis: knots + degree (0 + 0) leave one B-spline, which the "
             "sum-to-zero constraint removes: the density basis needs knots + degree >= 1"),
        ],
        ids=["term_without_knots", "term_order_too_high", "term_without_free_columns",
             "density_basis_without_knots", "density_basis_order_too_high",
             "density_basis_without_free_columns"],
    )
    def test_spline_sizes_the_basis_cannot_take_exit_config(
        self, tmp_path, capsys, densities_file, command, change, message
    ):
        model = copy.deepcopy(MODEL)
        for i, term_changes in change.get("terms", {}).items():
            model["terms"][i].update(term_changes)
        model["density_basis"] = change.get("density_basis", {})
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=model,
            boosting={"max_iterations": 5},
            simulation={"replicates": 2},
        )
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_linear_covariate_keeps_off_range_reference(self, tmp_path, densities_file):
        # a linear block is defined beyond the training range, so only a
        # spline block bounds the reference of its covariate
        model = copy.deepcopy(MODEL)
        model["terms"][3] = {"name": "year", "kind": "linear", "covariates": ["year"]}
        model["references"]["year"] = 99.0
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=model,
            boosting={"max_iterations": 5},
        )
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        saved = json.loads((tmp_path / "o" / "model.json").read_text())
        assert saved["covariates"]["year"]["reference"] == 99.0

    @pytest.mark.parametrize("lambda_density", [0.0, 0.5])
    def test_outputs_independent_of_blas_threads(self, tmp_path, lambda_density):
        # the year term has 11 columns on a 13-column density basis, so with
        # a density penalty the learner systems are 143 x 143, large enough
        # for a threaded BLAS to split its work
        m, data, truths, _ = planted_problem(seed=21, grid_size=40, n_years=12, **options("planted_problem"))
        keys = [
            (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
            for i in range(len(truths))
        ]
        write_density_file(tmp_path / "dens.tsv", m, ["region", "c_age", "year"], keys, truths)
        model = copy.deepcopy(MODEL)
        model["density_basis"] = {"lambda_density": lambda_density}
        del model["terms"][3]["knots"]
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": str(tmp_path / "dens.tsv")},
            model=model,
            boosting={"max_iterations": 30, "stopping": {"method": "cv", "folds": 5}},
        )
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"o{threads}"
            env = dict(
                os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
            )
            res = subprocess.run(
                [sys.executable, "-m", "densreg.cli", "fit", "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300,
            )
            assert res.returncode == 0, res.stderr
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert "stop_curve_continuous.tsv" in outputs[0]
        assert outputs[0] == outputs[1]

    def test_unread_reference_is_one_warning_line(self, tmp_path, densities_file):
        # the spec cannot refuse a reference that no term reads, so a typo
        # would go unseen: fit warns, names the key and fits as without it
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        fits = {}
        for name, references in (("typo", {"regoin": "west", "c_age": "other", "year": 0.0}),
                                 ("clean", {"c_age": "other", "year": 0.0})):
            cfg = write_config(tmp_path / f"{name}.json", data={"densities": densities_file},
                               model=dict(MODEL, references=references),
                               boosting={"max_iterations": 20})
            res = subprocess.run(
                [sys.executable, "-m", "densreg.cli", "fit", "--config", cfg,
                 "--out", str(tmp_path / name)],
                env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
                timeout=300,
            )
            assert res.returncode == 0, res.stderr
            fits[name] = (res.stderr, json.loads((tmp_path / name / "model.json").read_text()))
        assert fits["typo"][0] == "warning: references: no term reads ['regoin']\n"
        assert fits["clean"][0] == ""
        # the model file echoes the configured references; all else is the same
        assert fits["typo"][1]["covariates"]["region"]["reference"] == "east"
        del fits["typo"][1]["references"]["regoin"]
        assert fits["typo"][1] == fits["clean"][1]

    def test_missing_densities_exit_code(self, tmp_path, capsys):
        # the path is a config mistake, named at its key
        absent = str(tmp_path / "absent.tsv")
        cfg = write_config(tmp_path / "cfg.json", data={"densities": absent}, model=MODEL)
        assert main(["fit", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: config.data.densities: no such file: {absent!r}\n"
        )


class TestPredictInterpret:
    @pytest.fixture
    def fitted(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={
                "densities": densities_file,
                "model": str(tmp_path / "out" / "model.json"),
                "newdata": str(tmp_path / "new.tsv"),
            },
            model=MODEL,
            boosting={"max_iterations": 60},
            interpret={
                "effects": [
                    {"term": "region", "at": {"region": "east", "c_age": "other", "year": 2.0}},
                    {"term": "region", "name": "ref", "at": {"region": "west", "c_age": "other", "year": 2.0}},
                ],
                "odds": [
                    {"term": "region", "at": {"region": "east", "c_age": "other", "year": 2.0}, "t": 1.0, "s": 0.0}
                ],
                "did": [
                    {
                        "factor_a": "region", "levels_a": ["east", "west"],
                        "factor_b": "c_age", "levels_b": ["kids0_6", "other"],
                        "fixed": {"year": 2.0},
                    }
                ],
                "svg": True,
            },
        )
        (tmp_path / "new.tsv").write_text(
            "region\tc_age\tyear\neast\tother\t2.0\nwest\tkids0_6\t4.0\n"
        )
        out = tmp_path / "out"
        assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
        return cfg, out, tmp_path

    def test_predict(self, fitted):
        cfg, out, tmp_path = fitted
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        measure, cols, keys, preds = read_density_file(out / "predictions.tsv")
        assert cols == ["region", "c_age", "year"]
        assert len(preds) == 2
        for f in preds:
            assert np.all(f.values > 0)
            assert integrate(f.measure, f.values) == pytest.approx(1.0, abs=1e-10)

    def test_interpret_outputs(self, fitted):
        cfg, out, tmp_path = fitted
        assert main(["interpret", "--config", cfg, "--out", str(out)]) == 0
        # reference-category effect file is all zeros on the clr scale
        lines = (out / "effect_ref.tsv").read_text().splitlines()[1:]
        clr_vals = [float(ln.split("\t")[2]) for ln in lines]
        assert np.max(np.abs(clr_vals)) < 1e-9
        # heatmap diagonal is zero
        hm = (out / "did_0_heatmap.tsv").read_text().splitlines()
        for i, ln in enumerate(hm[1:]):
            row = ln.split("\t")
            assert abs(float(row[i + 1])) < 1e-12
        assert (out / "did_0_heatmap.svg").exists()
        assert (out / "effect_region.svg").exists()
        odds = (out / "odds_table.tsv").read_text().splitlines()
        assert odds[0].split("\t") == ["term", "t", "s", "log_odds", "odds"]

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"factor_b": "region", "levels_b": ["east", "west"]},
             "factor_a and factor_b are both 'region'"),
            ({"levels_a": ["east", "east"]}, "the contrast of 'region' compares 'east' with itself"),
            ({"levels_b": ["other", "other"]}, "the contrast of 'c_age' compares 'other' with itself"),
        ],
        ids=["same_factor", "same_levels_a", "same_levels_b"],
    )
    def test_did_that_is_zero_by_construction_is_config_error(self, fitted, capsys, change, message):
        cfg, out, tmp_path = fitted
        with open(cfg) as fh:
            config = json.load(fh)
        config["interpret"]["did"][0].update(change)
        path = tmp_path / "did.json"
        path.write_text(json.dumps(config))
        assert main(["interpret", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: config.interpret.did[0]: {message}\n"
        assert not (out / "did_0_heatmap.tsv").exists()

    @pytest.mark.parametrize(
        "item, index, change, message",
        [
            ("effects", 1, {"name": "region"},
             "writes effect_region.tsv, as config.interpret.effects[0] does"),
            ("effects", 1, {"name": "ref_heatmap"}, None),
            ("did", 0, {"name": "../escaped"}, "'../escaped' contains a path separator"),
            ("effects", 0, {"name": "../escaped"}, "'../escaped' contains a path separator"),
        ],
        ids=["same_effect_file", "effect_file_of_a_did", "did_outside_out", "effect_outside_out"],
    )
    def test_interpret_item_files_stay_apart_and_inside_out(self, fitted, capsys, item, index,
                                                           change, message):
        # without the check, the second effect overwrote the first's file, and
        # a name with a separator wrote beside the output directory
        cfg, out, tmp_path = fitted
        with open(cfg) as fh:
            config = json.load(fh)
        config["interpret"][item][index].update(change)
        if message is None:
            # a DiD's heatmap named like the effect file "ref_heatmap" writes
            config["interpret"]["did"][0]["name"] = "effect_ref"
            item, index = "did", 0
            message = "writes effect_ref_heatmap.tsv, as config.interpret.effects[1] does"
        path = tmp_path / "names.json"
        path.write_text(json.dumps(config))
        before = sorted(tmp_path.rglob("*"))
        assert main(["interpret", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: config.interpret.{item}[{index}].name: {message}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    def test_interpret_writes_the_files_its_names_name(self, fitted):
        # the collision check reads the same patterns as the writes
        cfg, _, tmp_path = fitted
        out = tmp_path / "interpret"
        assert main(["interpret", "--config", cfg, "--out", str(out)]) == 0
        items = {"effects": ["region", "ref"], "did": ["did_0"]}
        named = {pattern.format(name) for kind, names in items.items() for name in names
                 for pattern in INTERPRET_FILES[kind].values()}
        assert {p.name for p in out.iterdir()} == named | {"odds_table.tsv"}

    def test_interpret_rerun_byte_identical(self, fitted):
        cfg, out, tmp_path = fitted
        assert main(["interpret", "--config", cfg, "--out", str(out)]) == 0
        first = (out / "did_0_heatmap.svg").read_bytes()
        assert main(["interpret", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "did_0_heatmap.svg").read_bytes() == first


class TestSimulateCommand:
    def test_simulate_outputs_and_determinism(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={"max_iterations": 30},
            simulation={"replicates": 3, "noise_scale": 1.0},
            seed=5,
        )
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("simulate_relmse.tsv", "simulate_selection.tsv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_noise_relmse_near_zero(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={"max_iterations": 60},
            simulation={"replicates": 2, "noise_scale": 0.0},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "simulate_relmse.tsv").read_text().splitlines()[1:]
        for ln in lines:
            assert float(ln.split("\t")[1]) < 1e-3

    def test_selection_counts_sum(self, tmp_path, densities_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"densities": densities_file},
            model=MODEL,
            boosting={"max_iterations": 20},
            simulation={"replicates": 4},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, *lines = (out / "simulate_selection.tsv").read_text().splitlines()
        assert header == "term\tcomponent\tselected\tnot_selected"
        rows = [ln.split("\t") for ln in lines]
        # term order, then continuous, discrete and combined; a term is
        # selected combined when some component selected it
        assert [r[:2] for r in rows] == [
            [t["name"], comp] for t in MODEL["terms"]
            for comp in ("continuous", "discrete", "combined")
        ]
        for _, _, sel, unsel in rows:
            assert int(sel) + int(unsel) == 4
        for i in range(0, len(rows), 3):
            cont, disc, comb = (int(r[2]) for r in rows[i:i + 3])
            assert max(cont, disc) <= comb <= min(cont + disc, 4)

    def test_replicate_error_is_data_error(self, tmp_path, capsys, densities_file, monkeypatch):
        # the replicates run inside the data boundary; cmd_simulate imports
        # the simulate module when it runs, so the patch goes on that module
        import densreg.simulate as simulate

        draw, calls = simulate.simulate_responses, []

        def second_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise ValueError("replicate responses are not finite")
            return draw(*args, **kwargs)

        monkeypatch.setattr(simulate, "simulate_responses", second_fails)
        cfg = write_config(
            tmp_path / "cfg.json", data={"densities": densities_file}, model=MODEL,
            boosting={"max_iterations": 5}, simulation={"replicates": 3},
        )
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert len(calls) == 2
        assert capsys.readouterr().err == "data error: replicate responses are not finite\n"
        assert not (tmp_path / "o").exists()


class TestCheckCommand:
    def test_valid_file_passes(self, tmp_path, densities_file):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["check", densities_file, "--config", cfg]) == 0

    def test_target_before_or_after_options(self, tmp_path, densities_file):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["check", densities_file, "--config", cfg]) == 0
        assert main(["check", "--config", cfg, densities_file]) == 0
        assert main(["check", "--config", cfg, densities_file, "--seed", "1"]) == 0

    def test_clr_row_off_zero_integral_is_a_fail_line(
        self, tmp_path, densities_file, capsys, monkeypatch
    ):
        cfg = write_config(tmp_path / "cfg.json")
        clr_rows = cli.clr_rows

        def shifted(values, measure):
            z = clr_rows(values, measure)
            z[2] += 1e-3
            return z

        monkeypatch.setattr(cli, "clr_rows", shifted)
        assert main(["check", densities_file, "--config", cfg]) == 3
        assert "FAIL clr values must be finite and integrate to zero (rows 3)\n" in capsys.readouterr().out

    def test_mixed_file_reports_round_trip(self, tmp_path, densities_file, capsys):
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["check", densities_file, "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        words = lines[1].split()
        assert words[:3] == ["worst", "decompose/embed", "deviation"]
        assert words[4] == "(tolerance" and float(words[5].rstrip(")")) >= 1e-12
        assert float(words[3]) <= 1e-15
        assert lines[2].startswith("OK all invariants hold")

    def test_broken_embedding_is_a_fail_line(self, tmp_path, densities_file, capsys, monkeypatch):
        import densreg.bayes as bayes

        cfg = write_config(tmp_path / "cfg.json")
        embed = bayes.embed_clr_discrete_rows
        # drop the stand-in value, as in a broken discrete embedding
        monkeypatch.setattr(
            bayes, "embed_clr_discrete_rows",
            lambda z_d, target: embed(np.concatenate([z_d[:, :-1], 0.0 * z_d[:, -1:]], axis=1),
                                      target),
        )
        assert main(["check", densities_file, "--config", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL mixed rows do not embed back to their clr rows\n" in out
        assert "OK" not in out

    def test_long_interval_passes(self, tmp_path, capsys):
        # the 37 quadrature weights on [0, 10000] sum to the length within
        # 1.8e-12, which is rounding at this scale
        m = make_mixed(0.0, 10000.0, [], 37)
        path = tmp_path / "long.tsv"
        write_density_file(path, m, ["g"], [("a",)], [np.full(m.size, 1e-4)])
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["check", str(path), "--config", cfg]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_corrupted_file_fails(self, tmp_path, densities_file):
        cfg = write_config(tmp_path / "cfg.json")
        lines = open(densities_file).read().splitlines()
        parts = lines[2].split("\t")
        parts[4] = "250.0"  # break the unit integral
        lines[2] = "\t".join(parts)
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", str(bad), "--config", cfg]) == 3

    def test_negative_value_fails(self, tmp_path, densities_file):
        cfg = write_config(tmp_path / "cfg.json")
        lines = open(densities_file).read().splitlines()
        parts = lines[2].split("\t")
        parts[4] = "-1.0"
        lines[2] = "\t".join(parts)
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["check", str(bad), "--config", cfg]) == 3


class TestDensityColumns:
    """The value columns of a density file are read by name: the header must
    end in ``atom:<location>`` per atom, then ``g:<i>`` per grid node."""

    @staticmethod
    def atoms_last(lines):
        # every value moves with its name, so the file still holds the
        # densities, in another order of columns
        rows = [line.split("\t") for line in lines[1:]]
        return lines[:1] + ["\t".join(r[:3] + r[5:] + r[3:5]) for r in rows]

    @staticmethod
    def header_dropped(lines):
        return lines[:1] + lines[2:]

    @pytest.mark.parametrize("command", ["fit", "check"])
    @pytest.mark.parametrize("edit", ["atoms_last", "header_dropped"])
    def test_misnamed_columns_exit_3(self, tmp_path, densities_file, capsys, command, edit):
        lines = getattr(self, edit)(pathlib.Path(densities_file).read_text().splitlines())
        path = tmp_path / "edited.tsv"
        path.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "cfg.json", data={"densities": str(path)}, model=MODEL,
                           boosting={"max_iterations": 5})
        argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
        if command == "check":
            argv.insert(1, str(path))
        assert main(argv) == 3
        captured = capsys.readouterr()
        # the fourth name of line 2 stands where the first atom's column belongs
        found = lines[1].split("\t")[3]
        assert captured.err == (
            f"data error: {path}: line 2: expected column 'atom:0.0', found {found!r}\n"
        )
        assert captured.out == ""


class TestModelRoundTrip:
    def test_saved_model_predicts_like_fresh_fit(self, tmp_path, densities_file):
        from densreg.io import model_from_dict, model_to_dict
        from densreg.model import fit as fit_model, predict_clr
        from densreg.boosting import BoostConfig
        import json as _json

        cfg = validate_config(
            {
                "data": {"densities": densities_file},
                "model": MODEL,
                "boosting": {"max_iterations": 30},
            }
        )
        measure, cols, keys, densities = read_density_file(densities_file)
        data = {c: [k[i] for k in keys] for i, c in enumerate(cols)}
        spec = run_objects(cfg).spec
        model = fit_model(
            spec, data, clr_stack(densities), measure, BoostConfig(max_iterations=30),
            **options("model", density_knots=6),
        )
        blob = _json.dumps(model_to_dict(model))
        loaded = model_from_dict(_json.loads(blob))
        a = np.stack([z.values for z in predict_clr(model, data)])
        b = np.stack([z.values for z in predict_clr(loaded, data)])
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_design_report_survives_round_trip(self, tmp_path, densities_file):
        from densreg.io import model_to_dict
        from densreg.model import design_report, fit as fit_model
        from densreg.boosting import BoostConfig

        cfg = validate_config({"model": MODEL})
        measure, cols, keys, densities = read_density_file(densities_file)
        data = {c: [k[i] for k in keys] for i, c in enumerate(cols)}
        model = fit_model(
            run_objects(cfg).spec, data, clr_stack(densities), measure,
            BoostConfig(max_iterations=10), **options("model", density_knots=6),
        )
        blob = model_to_dict(model)
        loaded = model_from_dict(json.loads(json.dumps(blob)))
        assert design_report(loaded) == design_report(model)
        assert [r["columns"] for r in design_report(loaded)] == [1, 1, 2, 7]
        # re-serializing a loaded model writes the same file
        assert json.dumps(model_to_dict(loaded)) == json.dumps(blob)


def _model_file_with(path, value):
    """Mutation of a model file: set the field at ``path`` (None deletes it)."""
    def mutate(doc):
        doc = copy.deepcopy(doc)
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is None:
            del target[path[-1]]
        else:
            target[path[-1]] = value
        return doc
    return mutate


class TestModelFiles:
    """Model files: the version-1 layout written by earlier releases, and
    malformed files, which must end as data errors (exit 3)."""

    def _config(self, tmp_path, model_path):
        return write_config(
            tmp_path / "cfg.json",
            data={"model": str(model_path), "newdata": str(DATA / "model_v1_newdata.tsv")},
        )

    def test_v1_file_reproduces_its_predictions(self, tmp_path):
        # model_v1.json and model_v1_predictions.tsv were written by the
        # fit and predict commands of an earlier release
        out = tmp_path / "out"
        cfg = self._config(tmp_path, DATA / "model_v1.json")
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        _, _, keys, got = read_density_file(out / "predictions.tsv")
        _, _, ref_keys, expected = read_density_file(DATA / "model_v1_predictions.tsv")
        assert keys == ref_keys
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g.values, e.values, rtol=1e-12, atol=0)

    def test_newdata_without_rows_predicts_no_rows(self, tmp_path, capsys):
        # a header and no rows: predictions.tsv gets both header lines and
        # no row, and check accepts it
        newdata = tmp_path / "newdata.tsv"
        newdata.write_text((DATA / "model_v1_newdata.tsv").read_text().splitlines()[0] + "\n")
        cfg = write_config(tmp_path / "cfg.json",
                           data={"model": str(DATA / "model_v1.json"), "newdata": str(newdata)})
        out = tmp_path / "out"
        assert main(["predict", "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        written = (out / "predictions.tsv").read_text().splitlines()
        expected = (DATA / "model_v1_predictions.tsv").read_text().splitlines()
        assert written == expected[:2]
        assert main(["check", str(out / "predictions.tsv"), "--config", cfg]) == 0
        assert capsys.readouterr().out.endswith("OK all invariants hold for 0 rows\n")

    def test_v1_file_design_columns(self):
        from densreg.model import design_report

        with open(DATA / "model_v1.json") as fh:
            model = model_from_dict(json.load(fh))
        # the columns the fit command reported for this model
        assert [r["columns"] for r in design_report(model)] == [1, 1, 2, 5, 6]

    def test_v1_knots_and_bases_are_what_the_builders_make(self):
        # a version-1 file stores knot vectors and density-basis transforms;
        # load rebuilds them from the covariate ranges and basis options
        with open(DATA / "model_v1.json") as fh:
            doc = json.load(fh)
        for term in doc["terms"]:
            for name, stored in term["knot_vectors"].items():
                cov = doc["covariates"][name]
                knots = bspline_knots(cov["lo"], cov["hi"], term["knots"], term["degree"])
                assert knots.tobytes() == np.asarray(stored, dtype=float).tobytes()
        db = doc["density_basis"]
        loaded = model_from_dict(doc).bases
        for comp, stored in doc["bases"].items():
            m = ReferenceMeasure.from_dict(stored["measure"])
            z, _ = sum_to_zero_transform(raw_density_basis(m, db["knots"], db["degree"]), m)
            assert z.tobytes() == np.asarray(stored["transform"], dtype=float).tobytes()
            basis = density_basis(m, db["knots"], db["degree"], db["penalty_order"])
            assert loaded[comp].clr_matrix.tobytes() == basis.clr_matrix.tobytes()

    def test_v1_file_is_rewritten_as_v2(self):
        with open(DATA / "model_v1.json") as fh:
            doc = json.load(fh)
        rewritten = json.loads(json.dumps(model_to_dict(model_from_dict(doc))))
        assert rewritten["version"] == 2
        del doc["bases"]
        for term in doc["terms"]:
            # this file's writer kept no target_df, which is read as df
            term["target_df"] = term["df"]
            del term["knot_vectors"]
        assert rewritten == dict(doc, version=2)

    def test_edited_range_moves_the_knots(self):
        # knots follow the stored range, as predictions follow stored coefficients
        with open(DATA / "model_v1.json") as fh:
            doc = json.load(fh)
        doc["covariates"]["year"]["hi"] = 8.0
        encoder = model_from_dict(doc).frame.encoders[3]
        knots = encoder._knots(encoder.covariates[0])
        assert (knots[0], knots[-1]) == (0.0, 8.0)

    def test_newdata_off_spline_range_names_covariate(self, tmp_path, capsys):
        newdata = tmp_path / "new.tsv"
        newdata.write_text("region\tc_age\tyear\neast\tkids0_6\t99.0\n")
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"model": str(DATA / "model_v1.json"), "newdata": str(newdata)},
        )
        assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            "data error: covariate 'year': 99.0 lies outside the training range [0.0, 4.0]\n"
        )

    def test_reference_off_spline_range_names_model_field(self, tmp_path, capsys):
        with open(DATA / "model_v1.json") as fh:
            doc = json.load(fh)
        doc["covariates"]["year"]["reference"] = 99.0
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "cfg.json",
            data={"model": str(path), "newdata": str(DATA / "model_v1_newdata.tsv")},
            interpret={"effects": [
                {"term": "year", "at": {"region": "east", "c_age": "other", "year": 2.0}},
            ]},
        )
        for command in ("predict", "interpret"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
            assert capsys.readouterr().err == (
                "data error: model file: covariates.year.reference: reference 99.0 of 'year' "
                "lies outside the training range [0.0, 4.0] of its spline basis\n"
            )

    def test_reference_off_range_of_linear_covariate_loads(self):
        # a numeric covariate that only a linear block reads has no range to keep to
        with open(DATA / "model_v1.json") as fh:
            doc = json.load(fh)
        doc["covariates"]["age"] = {"kind": "numeric", "lo": 20.0, "hi": 60.0, "reference": 99.0}
        doc["terms"].append(dict(
            doc["terms"][3], name="age", kind="linear", covariates=["age"], transform=None,
            knot_vectors={},
        ))
        for comp, fd in doc["fits"].items():
            k_y = len(fd["coefficients"][0])
            fd["coefficients"].append([0.0] * 2 * k_y)
        model = model_from_dict(doc)
        assert model.frame.covariates["age"].reference == 99.0
        assert model.frame.encoders[-1].n_columns == 2

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: [d], "expected a JSON object"),
            (_model_file_with(("format",), "other-model"), "not a model file"),
            (_model_file_with(("version",), 99), "unsupported version 99"),
            (_model_file_with(("version",), "1"), "unsupported version '1'"),
            (_model_file_with(("terms",), None), "missing field 'terms'"),
            (_model_file_with(("terms",), 5), "model file:"),
            (_model_file_with(("covariates", "year", "kind"), "bogus"), "unknown kind 'bogus'"),
            (_model_file_with(("terms", 4, "transform"), [[1.0]]),
             "model file: term 'region_year': transform must have 12 rows"),
            (_model_file_with(("fits", "continuous", "coefficients", 1), [0.0]), "coefficient lengths"),
            (_model_file_with(("fits", "discrete", "offset"), [0.0]),
             "model file: fits.discrete.offset: rows have shape (1, 1), expected (N, 3)"),
            (_model_file_with(("fits", "discrete", "m_stop"), 1e400), "float infinity"),
            (_model_file_with(("terms", 4, "transform", 0, 0), math.inf),
             "model file: term 'region_year': transform and lambda_cov must be finite"),
            (_model_file_with(("terms", 3, "lambda_cov"), -math.inf), "model file: term 'year': transform"),
            (_model_file_with(("density_basis", "lambda_density"), math.nan),
             "model file: density_basis.lambda_density must be finite"),
            (_model_file_with(("fits", "continuous", "offset", 5), math.nan),
             "model file: offset and coefficients must be finite"),
            (_model_file_with(("fits", "discrete", "coefficients", 3, 0), -math.inf),
             "model file: offset and coefficients must be finite"),
            (_model_file_with(("covariates", "region", "reference"), "north"),
             "model file: covariates.region.reference: reference 'north' not a level of 'region'"),
            (_model_file_with(("covariates", "region", "levels"), "east"),
             "model file: covariates.region.levels: expected a list of strings"),
            (_model_file_with(("covariates", "year", "hi"), math.inf),
             "model file: covariates.year.hi: must be a finite number, not inf"),
            (_model_file_with(("covariates", "year", "reference"), "abc"),
             "model file: covariates.year.reference: must be a finite number, not 'abc'"),
            (_model_file_with(("density_basis", "penalty_order"), 40),
             "model file: density_basis: penalty_order 40 exceeds knots + degree (3 + 3)"),
            (_model_file_with(("terms", 3, "penalty_order"), 9),
             "model file: term 'year': penalty_order 9 exceeds knots + degree (2 + 3)"),
            (_model_file_with(("covariates", "year", "lo"), 5.0),
             "model file: covariates.year.hi: covariate 'year': lo 5.0 lies above hi 4.0"),
            (_model_file_with(("covariates", "c_age", "levels"), ["other"]),
             "model file: covariates.c_age.levels: covariate 'c_age' needs at least two levels"),
            (_model_file_with(("terms", 1, "covariates"), ["regoin"]),
             "model file: terms[1].covariates: 'regoin' is not a declared categorical covariate"),
            (_model_file_with(("terms", 3, "covariates"), ["region"]),
             "model file: terms[3].covariates: 'region' is not a declared numeric covariate"),
            (_model_file_with(("terms", 4, "orthogonal_to"), ["region", "regoin"]),
             "model file: term 'region_year' is constrained against 'regoin', "
             "which must be declared earlier"),
            (_model_file_with(("fits", "discrete"), None),
             "model file: fits: expected the component(s) ['continuous', 'discrete']"),
            (_model_file_with(("fits", "continuous", "selections", 0), 99),
             "model file: fits.continuous.selections: a term index outside [0, 5)"),
            (_model_file_with(("fits", "discrete", "selections", 2), -1),
             "model file: fits.discrete.selections: a term index outside [0, 5)"),
            (_model_file_with(("fits", "continuous", "m_stop"), 3),
             "model file: fits.continuous.m_stop: 3 does not match 40 selections and 41 risk values"),
            (_model_file_with(("covariates", "c_age", "levels"), ["kids0_6", "kids0_6", "other"]),
             "model file: covariates.c_age.levels: a level is listed twice"),
            (_model_file_with(("fits", "continuous", "offset", 0), 5.0),
             "model file: fits.continuous.offset: clr values must be finite and integrate to zero"),
        ],
        ids=[
            "json_list", "format", "version_99", "version_string", "missing_terms",
            "terms_not_list", "covariate_kind", "term_transform",
            "coefficient_length", "offset_length", "m_stop_infinite",
            "transform_infinite", "lambda_cov_infinite", "lambda_density_nan",
            "offset_nan", "coefficient_infinite",
            "reference_not_a_level", "levels_not_a_list", "covariate_range_infinite",
            "covariate_reference_string", "density_penalty_order_too_large",
            "term_penalty_order_too_large",
            "covariate_range_empty", "single_level",
            "unknown_term_covariate", "term_covariate_wrong_kind", "orthogonal_to_unknown_term",
            "missing_component_fit", "selection_too_large", "selection_negative",
            "m_stop_not_selections", "duplicate_levels", "offset_off_zero_integral",
        ],
    )
    def test_malformed_model_file_exits_data_error(self, tmp_path, capsys, mutate, message):
        with open(DATA / "model_v1.json") as fh:
            doc = mutate(json.load(fh))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        cfg = self._config(tmp_path, path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["predict", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and message in err
        assert "Traceback" not in err
        # rejected when read, before any arithmetic on the bad numbers
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


# the data paths each command reads
DATA_PATHS = [("estimate", "observations"), ("fit", "densities"), ("simulate", "densities"),
              ("predict", "model"), ("predict", "newdata"), ("interpret", "model")]


@pytest.mark.parametrize("command, key", DATA_PATHS)
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_data_path_that_names_no_file_is_config_error(tmp_path, capsys, command, key, kind):
    present = tmp_path / "present.tsv"
    present.write_text("")
    bad = tmp_path / kind
    if kind == "directory":
        bad.mkdir()
    data = dict.fromkeys(("observations", "densities", "model", "newdata"), str(present))
    cfg = write_config(tmp_path / "cfg.json", data=dict(data, **{key: str(bad)}),
                       measure=MEASURE, model=MODEL)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    what = "no such file" if kind == "missing" else "is a directory"
    assert capsys.readouterr().err == f"config error: config.data.{key}: {what}: {str(bad)!r}\n"


class TestExitCodes:
    def test_linalg_error_exits_numeric(self, tmp_path, capsys, monkeypatch):
        def singular(cfg, args):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setitem(cli._COMMANDS, "fit", singular)
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["fit", "--config", cfg]) == 4
        assert capsys.readouterr().err.startswith("numeric failure: singular matrix")

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_bootstrap_stopping_on_one_density(self, tmp_path, densities_file, command):
        # no bootstrap draw of one density leaves it out of bag; in a child
        # process with a timeout, so that a redraw loop fails the test
        # instead of stalling the suite
        lines = pathlib.Path(densities_file).read_text().splitlines()
        one = tmp_path / "one.tsv"
        one.write_text("\n".join(lines[:3]) + "\n")
        cfg = write_config(
            tmp_path / "cfg.json", data={"densities": str(one)},
            model={"terms": [{"name": "intercept", "kind": "intercept"}]},
            boosting={"max_iterations": 5, "stopping": {"method": "bootstrap"}},
        )
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        res = subprocess.run(
            [sys.executable, "-m", "densreg.cli", command, "--config", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
        )
        assert res.returncode == 3, res.stderr
        assert res.stderr == "data error: bootstrap stopping needs at least two densities\n"

    @pytest.mark.parametrize("noise_scale", [1e200, 1e308])
    def test_non_finite_risk_exits_numeric(self, tmp_path, densities_file, noise_scale):
        # the replicates' squared residuals overflow, and NaN compares False
        # with every bound; in a child process, since numpy's overflow
        # warnings are errors under pytest
        cfg = write_config(
            tmp_path / "cfg.json", data={"densities": densities_file}, model=MODEL,
            boosting={"max_iterations": 5, "stopping": {"method": "cv", "folds": 3}},
            simulation={"replicates": 2, "noise_scale": noise_scale},
        )
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        res = subprocess.run(
            [sys.executable, "-m", "densreg.cli", "simulate", "--config", cfg,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert res.returncode == 4, res.stderr
        *warned, last = res.stderr.splitlines()
        assert last == "numeric failure: in-bag risk is not finite during boosting"
        assert all(line.startswith("warning: ") for line in warned)
        assert not (tmp_path / "o").exists()


def test_help_is_the_usage_and_the_summary(capsys):
    # the module docstring past its first paragraph is for readers of the code
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: densreg ")
    assert len(out.splitlines()) < 20
    assert not re.search(r":(func|class|mod|meth):", out)


def _with_column(path, out, column, value):
    """A copy of density file ``path`` at ``out`` with every entry of key
    ``column`` set to ``value``."""
    lines = pathlib.Path(path).read_text().splitlines()
    j = lines[1].split("\t").index(column)
    rows = [line.split("\t") for line in lines[2:]]
    for row in rows:
        row[j] = value
    out.write_text("\n".join(lines[:2] + ["\t".join(r) for r in rows]) + "\n")
    return str(out)


class TestErrorTable:
    """Inputs that ``main`` once caught only by the type of their error: each
    now ends at the boundary of what the user has to fix (see the ``cli``
    docstring)."""

    @pytest.mark.parametrize("raised, error, prefix, want", [
        (ValueError("bad"), DataError, None, DataError("bad")),
        (ValueError("bad"), ConfigError, "config.x", ConfigError("config.x: bad")),
        (KeyError("no term named 'z'"), ConfigError, "config.x",
         ConfigError("config.x: no term named 'z'")),
        (FileNotFoundError(2, "No such file or directory"), DataError, None,
         DataError("[Errno 2] No such file or directory")),
        (SpecMismatch("terms[1]", "unknown covariate 'z'"), DataError, None,
         ConfigError("config.model.terms[1]: unknown covariate 'z'")),
        (ConfigError("config.y: no"), DataError, None, ConfigError("config.y: no")),
        (DataError("f.tsv: line 3: no"), ConfigError, "config.x", DataError("f.tsv: line 3: no")),
        (np.linalg.LinAlgError("singular"), DataError, None, np.linalg.LinAlgError("singular")),
        (ZeroDivisionError("zero"), DataError, None, ZeroDivisionError("zero")),
        (TypeError("a bug"), DataError, None, TypeError("a bug")),
    ])
    def test_reported_as(self, raised, error, prefix, want):
        with pytest.raises(Exception) as info:
            with reported_as(error, prefix):
                raise raised
        assert type(info.value) is type(want) and str(info.value) == str(want)

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    @pytest.mark.parametrize("case, message", [
        ("one_level", "covariate 'region' needs at least two levels"),
        ("constant", "covariate 'year' is constant"),
        ("cv_on_one_density", "cross-validation needs at least two folds"),
    ])
    def test_densities_the_model_cannot_use_are_data_errors(
        self, tmp_path, capsys, densities_file, command, case, message
    ):
        model, boosting = MODEL, {"max_iterations": 5}
        if case == "one_level":
            path = _with_column(densities_file, tmp_path / "d.tsv", "region", "east")
        elif case == "constant":
            path = _with_column(densities_file, tmp_path / "d.tsv", "year", "1.0")
        else:
            # the two header lines and one density
            lines = pathlib.Path(densities_file).read_text().splitlines()
            path = tmp_path / "d.tsv"
            path.write_text("\n".join(lines[:3]) + "\n")
            model = dict(MODEL, references={}, terms=MODEL["terms"][:1])
            boosting = dict(boosting, stopping={"method": "cv", "folds": 2})
        cfg = write_config(tmp_path / "cfg.json", data={"densities": str(path)}, model=model,
                           boosting=boosting, simulation={"replicates": 2})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == f"data error: {message}\n"

    def test_truncation_above_rank_bound_is_config_error(self, tmp_path, capsys, densities_file):
        cfg = write_config(tmp_path / "cfg.json", data={"densities": densities_file}, model=MODEL,
                           boosting={"max_iterations": 5},
                           simulation={"replicates": 2, "truncation": 999})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        # 36 densities on 42 points: the residual covariance has rank at most 36
        assert capsys.readouterr().err == (
            "config error: config.simulation.truncation: truncation 999 exceeds the rank bound 36\n"
        )

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_check_target_that_names_no_file_is_config_error(self, tmp_path, capsys, kind):
        bad = tmp_path / kind
        if kind == "directory":
            bad.mkdir()
        cfg = write_config(tmp_path / "cfg.json")
        assert main(["check", str(bad), "--config", cfg]) == 2
        what = "no such file" if kind == "missing" else "is a directory"
        assert capsys.readouterr().err == f"config error: target: {what}: {str(bad)!r}\n"

    @pytest.mark.parametrize("where", ["--out", "config.out"])
    def test_output_directory_that_cannot_be_made_is_config_error(
        self, tmp_path, capsys, densities_file, where
    ):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = {"out": str(taken)} if where == "config.out" else {}
        cfg = write_config(tmp_path / "cfg.json", data={"densities": densities_file}, model=MODEL,
                           boosting={"max_iterations": 5}, **out)
        argv = ["fit", "--config", cfg] + (["--out", str(taken)] if where == "--out" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {where}: [Errno 17] File exists: {str(taken)!r}\n"

    @pytest.mark.parametrize("command, output", [
        ("fit", "model.json"), ("simulate", "simulate_relmse.tsv"),
    ])
    def test_output_file_that_cannot_be_written_is_config_error(
        self, tmp_path, capsys, densities_file, command, output
    ):
        out = tmp_path / "o"
        (out / output).mkdir(parents=True)
        cfg = write_config(tmp_path / "cfg.json", data={"densities": densities_file}, model=MODEL,
                           boosting={"max_iterations": 5}, simulation={"replicates": 2})
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out: [Errno 21] Is a directory: {str(out / output)!r}\n"

    def test_config_file_that_is_not_text_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["check", "x.tsv", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode")


class TestWarnings:
    """A library warning on stderr is one line without a file path; a caller
    that records warnings around ``main`` still receives them."""

    @pytest.fixture
    def jitter_config(self, tmp_path):
        # three distinct years under a cubic spline with two knots: a
        # singular learner system, which the kernel solves with ridge jitter
        m, data, truths, _ = planted_problem(seed=21, grid_size=20, n_years=3,
                                             **options("planted_problem"))
        keys = [(data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
                for i in range(len(truths))]
        write_density_file(tmp_path / "dens.tsv", m, ["region", "c_age", "year"], keys, truths)
        # no reference: no term reads region or c_age
        model = dict(MODEL, references={}, terms=[
            {"name": "intercept", "kind": "intercept"},
            {"name": "year", "kind": "flexible", "covariates": ["year"], "knots": 2},
        ])
        return write_config(tmp_path / "cfg.json", data={"densities": str(tmp_path / "dens.tsv")},
                            model=model, boosting={"max_iterations": 5})

    def test_warning_is_one_line_without_path(self, tmp_path, jitter_config):
        src = pathlib.Path(cli.__file__).resolve().parents[1]
        res = subprocess.run(
            [sys.executable, "-m", "densreg.cli", "fit", "--config", jitter_config,
             "--out", str(tmp_path / "o")],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert res.stderr == "warning: singular base-learner system, adding ridge jitter\n"

    def test_recording_caller_receives_the_warning(self, tmp_path, capsys, jitter_config):
        formatwarning = warnings.formatwarning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["fit", "--config", jitter_config, "--out", str(tmp_path / "o")]) == 0
        assert "ridge jitter" in str(caught[0].message)
        assert capsys.readouterr().err == ""
        assert warnings.formatwarning is formatwarning


def test_no_output_relies_on_a_finalizer(tmp_path, densities_file):
    # at exit the CLI leaves cyclic garbage unfinalized (cli's exit hook), so
    # a file left open would lose its buffered tail; every file is closed by
    # the command that opened it
    obs = write_observations(tmp_path / "obs.tsv", synthetic_observations(0, groups=3, n_per_group=60))
    (tmp_path / "new.tsv").write_text("region\tc_age\tyear\neast\tother\t2.0\nwest\tkids0_6\t4.0\n")
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path / "cfg.json",
        data={
            "observations": obs,
            "densities": densities_file,
            "model": str(out / "model.json"),
            "newdata": str(tmp_path / "new.tsv"),
        },
        measure=MEASURE,
        kde={"bandwidth": 0.05},
        model=MODEL,
        boosting={"max_iterations": 20},
        interpret={
            "effects": [{"term": "year", "at": {"region": "east", "c_age": "other", "year": 2.0}}],
            "did": [{
                "factor_a": "region", "levels_a": ["east", "west"],
                "factor_b": "c_age", "levels_b": ["kids0_6", "other"],
                "fixed": {"year": 2.0},
            }],
            "svg": True,
        },
        simulation={"replicates": 2},
        out=str(out),
    )
    commands = [["estimate"], ["fit"], ["predict"], ["interpret"], ["simulate"],
                ["check", str(out / "predictions.tsv")]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for command in commands:
            assert main(command + ["--config", cfg]) == 0
            gc.collect()
    assert (out / "did_0_heatmap.svg").exists()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []
