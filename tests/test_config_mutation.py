"""Seeded mutations of a full run config.

Each mutation changes one place of ``tests/data/config_full.json``: a type
swap, an out-of-range number, a deleted key or list item, a wrong container
or an extra key. The validator must accept the result or raise
``ConfigError``; the CLI must end a mutated run with a documented exit code
(0 ok, 2 config, 3 data, 4 numeric) and never with an uncaught exception.
A mutation of a valid run's config is a config mistake, so it ends with 0
or 2 and never with 3; in the ``data`` section too, where a path that names
no file is a config error.
"""
import copy
import json
import pathlib
import random

import pytest

from densreg.cli import main
from densreg.io import ConfigError, validate_config, write_density_file
from densreg.synth import planted_problem, synthetic_observations

from conftest import options

DATA = pathlib.Path(__file__).resolve().parent / "data"
with open(DATA / "config_full.json") as fh:
    FULL = json.load(fh)

SWAPS = ["x", True, False, None, 2.5, 7, [], {}]
# out of range for every numeric key that has a bound; none is large enough
# to make a run expensive
OUT_OF_RANGE = [-1, 0, -2.5, 0.0, 1.5]


def _places(value, path=()):
    """Path of every key and list item below ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        yield path + (key,)
        if isinstance(v, (dict, list)):
            yield from _places(v, path + (key,))


def mutate(cfg: dict, rng: random.Random, sections=None):
    """One seeded mutation of a copy of ``cfg``, restricted to the top-level
    ``sections`` when given; returns the copy and a description."""
    cfg = copy.deepcopy(cfg)
    places = [p for p in _places(cfg) if sections is None or p[0] in sections]
    path = rng.choice(places)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    key, old = path[-1], parent[path[-1]]
    kind = rng.choice(["swap", "range", "delete", "container", "extra"])
    if kind == "swap":
        parent[key] = rng.choice(SWAPS)
    elif kind == "range":
        parent[key] = rng.choice(OUT_OF_RANGE)
    elif kind == "delete":
        del parent[key]
    elif kind == "container":
        parent[key] = {"value": old} if isinstance(old, list) else [old]
    else:
        holder = old if isinstance(old, dict) else parent if isinstance(parent, dict) else cfg
        holder["unexpected"] = 1
    return cfg, f"{kind} at {'.'.join(map(str, path))}"


def test_validator_accepts_or_raises_config_error():
    rng = random.Random(20211022)
    outcomes = {"accepted": 0, "rejected": 0}
    for _ in range(200):
        cfg, what = mutate(FULL, rng)
        try:
            validate_config(cfg)
            outcomes["accepted"] += 1
        except ConfigError:
            outcomes["rejected"] += 1
        except Exception as exc:  # noqa: BLE001 - any other class is the failure
            pytest.fail(f"{what}: {type(exc).__name__}: {exc}")
    assert outcomes["accepted"] > 0 and outcomes["rejected"] > 0


# the sections each command reads, besides seed, threads and out
READS = {
    "estimate": ("data", "measure", "kde"),
    "fit": ("data", "model", "boosting"),
    "predict": ("data",),
    "interpret": ("data", "interpret"),
    "simulate": ("data", "model", "boosting", "simulation"),
}


@pytest.fixture(scope="module")
def runnable(tmp_path_factory):
    """The full config with its data paths pointing at small input files."""
    base = tmp_path_factory.mktemp("inputs")
    m, data, truths, _ = planted_problem(seed=21, grid_size=40, n_years=4, **options("planted_problem"))
    keys = [
        (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
        for i in range(len(truths))
    ]
    write_density_file(base / "dens.tsv", m, ["region", "c_age", "year"], keys, truths)
    obs = synthetic_observations(0, groups=2, n_per_group=40)
    with open(base / "obs.tsv", "w") as fh:
        fh.write("region\tc_age\tvalue\tweight\n")
        for row in zip(obs["region"], obs["c_age"], obs["value"], obs["weight"]):
            fh.write("\t".join(map(str, row)) + "\n")
    cfg = copy.deepcopy(FULL)
    cfg["data"] = {
        "observations": str(base / "obs.tsv"),
        "densities": str(base / "dens.tsv"),
        "newdata": str(DATA / "model_v1_newdata.tsv"),
        "model": str(DATA / "model_v1.json"),
    }
    cfg["boosting"]["max_iterations"] = 10
    return cfg


def test_cli_ends_mutated_runs_with_exit_codes(tmp_path, capsys, runnable):
    rng = random.Random(1110)
    commands = sorted(READS)
    for i in range(12):
        command = commands[i % len(commands)]
        cfg, what = mutate(runnable, rng, READS[command] + ("seed", "threads", "out"))
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        code = main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}")])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), f"{command}, {what}: exit {code}: {err}"
        assert "Traceback" not in err, f"{command}, {what}"


def test_config_only_mutations_never_exit_data_error(tmp_path, capsys, runnable):
    """A mistake in the config is a config error (exit 2) with its path, not a
    data error (exit 3), even where it names something the data lacks or a
    data path that names no file."""
    rng = random.Random(7)
    commands = sorted(READS)
    codes = []
    # anywhere, then 20 more in the data section, whose paths the commands read
    for i, sections in enumerate([None] * 60 + [("data",)] * 20):
        command = commands[i % len(commands)]
        cfg, what = mutate(runnable, rng, sections)
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        codes.append(main([command, "--config", str(path), "--out", str(tmp_path / f"o{i}")]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 2), f"{command}, {what}: exit {codes[-1]}: {err}"
    assert {0, 2} <= set(codes)


# interpret items that do not fit tests/data/model_v1.json: (item path, the
# change, the offending value the message must name)
MISFITS = {
    "unknown_term": ("effects[0]", lambda i: i["effects"][0].update(term="nosuch"), "nosuch"),
    "odds_point_off_support": ("odds[0]", lambda i: i["odds"][0].update(t=2.0), "2.0"),
    "unknown_did_level": ("did[0]", lambda i: i["did"][0].update(levels_a=["north", "west"]),
                          "north"),
    "unknown_did_factor": ("did[0]", lambda i: i["did"][0].update(factor_a="nation"), "nation"),
    "effect_at_lacks_covariate": ("effects[0]", lambda i: i["effects"][0]["at"].pop("c_age"),
                                  "c_age"),
    "did_same_factor": ("did[0]", lambda i: i["did"][0].update(factor_b="region"),
                        "factor_a and factor_b are both 'region'"),
    "did_level_with_itself": ("did[0]", lambda i: i["did"][0].update(levels_b=["other", "other"]),
                              "the contrast of 'c_age' compares 'other' with itself"),
    "did_level_off_spline_range": (
        "did[0]",
        lambda i: i["did"][0].update(factor_b="year", levels_b=[99.0, 1.0], fixed={"c_age": "other"}),
        "covariate 'year': 99.0 lies outside the training range [0.0, 4.0]",
    ),
}


@pytest.mark.parametrize("case", sorted(MISFITS))
def test_interpret_item_that_does_not_fit_the_model_is_config_error(
    tmp_path, capsys, runnable, case
):
    item, change, value = MISFITS[case]
    cfg = copy.deepcopy(runnable)
    change(cfg["interpret"])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = main(["interpret", "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith(f"config error: config.interpret.{item}: "), err
    assert value in err.split(": ", 2)[2], err
