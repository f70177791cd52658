"""Seeded mutations of a full run config.

Each mutation changes one place of ``tests/data/config_full.json``: a type
swap, an out-of-range number, a deleted key or list item, a wrong container
or an extra key. The validator must accept the result or raise
``ConfigError``; the CLI must end a mutated run with a documented exit code
(0 ok, 2 config, 3 data, 4 numeric) and never with an uncaught exception.
"""
import copy
import json
import pathlib
import random

import pytest

from densreg.cli import main
from densreg.io import ConfigError, validate_config, write_density_file
from densreg.synth import planted_problem, synthetic_observations

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
    m, data, truths, _ = planted_problem(seed=21, grid_size=40, n_years=4)
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
