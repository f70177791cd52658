"""Seeded mutations of data files.

Each mutation changes one place of an input file: a line dropped,
duplicated, truncated or made ragged, a field set to ``x``, ``nan``,
``inf``, ``-1`` or ``1e400``, or a leaf of a model file's JSON replaced; and
one fixed change, a group whose interior rows all weigh zero. The
files are a densities file (read by ``fit`` and ``check``), a newdata table
(``predict``), an observations table (``estimate``) and a model file
(``predict`` and ``interpret``). Every run must end with exit 0, 3 (data) or
4 (numeric), never with a traceback, and without a ``RuntimeWarning`` other
than the ridge-jitter warning.
"""
import json
import pathlib
import random
import warnings

import numpy as np
import pytest

from densreg.cli import main
from densreg.io import read_density_file, write_density_file
from densreg.synth import planted_problem, synthetic_observations

DATA = pathlib.Path(__file__).resolve().parent / "data"

FIELDS = ["x", "nan", "inf", "-1", "1e400"]
LEAVES = ["x", -1, 1e400, None, True, [], {}]


def mutate_table(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of a tab-separated file; returns it and a description."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split("\t")
    kind = rng.choice(["drop", "duplicate", "truncate", "ragged", "field"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == "ragged":
        lines[i] = "\t".join(fields[:-1] if len(fields) > 1 and rng.random() < 0.5
                             else fields + fields[-1:])
    else:
        j = rng.randrange(len(fields))
        fields[j] = rng.choice(FIELDS)
        lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n", f"{kind} at line {i}"


def _leaves(value, path=()):
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if isinstance(v, (dict, list)) and v:
            yield from _leaves(v, path + (key,))
        else:
            yield path + (key,)


def mutate_model(doc: dict, rng: random.Random) -> tuple[str, str]:
    """A model file with one JSON leaf replaced; returns its text and the path."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_leaves(doc)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = rng.choice(LEAVES)
    return json.dumps(doc), "leaf " + ".".join(map(str, path))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small input files of each kind and the config that reads them."""
    base = tmp_path_factory.mktemp("inputs")
    m, data, truths, _ = planted_problem(seed=4, grid_size=12, n_years=3)
    keys = [
        (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
        for i in range(len(truths))
    ]
    write_density_file(base / "dens.tsv", m, ["region", "c_age", "year"], keys, truths)
    obs = synthetic_observations(5, groups=3, n_per_group=30)
    with open(base / "obs.tsv", "w") as fh:
        fh.write("region\tc_age\tvalue\tweight\n")
        for row in zip(obs["region"], obs["c_age"], obs["value"], obs["weight"]):
            fh.write("\t".join(map(str, row)) + "\n")
    config = {
        "measure": {
            "interval": [0.0, 1.0],
            "atoms": [{"location": 0.0, "weight": 1.0}, {"location": 1.0, "weight": 1.0}],
            "grid_size": 12,
        },
        "kde": {"bandwidth": 0.1},
        "model": {
            "references": {"region": "west", "c_age": "other"},
            "density_basis": {"knots": 4},
            "terms": [
                {"name": "intercept", "kind": "intercept"},
                {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
                {"name": "year", "kind": "flexible", "covariates": ["year"], "knots": 2},
            ],
        },
        "boosting": {"max_iterations": 5},
        "interpret": {
            "effects": [{"term": "year", "at": {"region": "east", "c_age": "other", "year": 1.0}}],
            "heatmap_resolution": 3,
        },
    }
    originals = {
        "densities": (base / "dens.tsv").read_text(),
        "newdata": (DATA / "model_v1_newdata.tsv").read_text(),
        "observations": (base / "obs.tsv").read_text(),
    }
    with open(DATA / "model_v1.json") as fh:
        model = json.load(fh)
    return config, originals, model


# (command, mutated file) in turn; "check" reads the densities file as target
RUNS = [
    ("fit", "densities"),
    ("check", "densities"),
    ("predict", "newdata"),
    ("estimate", "observations"),
    ("predict", "model"),
    ("interpret", "model"),
]


def test_mutated_data_files_end_with_exit_codes(tmp_path, capsys, inputs):
    config, originals, model = inputs
    rng = random.Random(20211103)
    codes = set()
    for i in range(60):
        command, which = RUNS[i % len(RUNS)]
        if which == "model":
            text, what = mutate_model(model, rng)
            name = "model.json"
        else:
            text, what = mutate_table(originals[which], rng)
            name = f"{which}.tsv"
        path = tmp_path / f"{i}_{name}"
        path.write_text(text)
        data = {
            "densities": str(tmp_path / "none.tsv"),
            "newdata": str(DATA / "model_v1_newdata.tsv"),
            "observations": str(tmp_path / "none.tsv"),
            "model": str(DATA / "model_v1.json"),
            which: str(path),
        }
        cfg = tmp_path / f"{i}_cfg.json"
        cfg.write_text(json.dumps(dict(config, data=data)))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"o{i}")]
        if command == "check":
            argv.insert(1, str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 3, 4), f"{command} on {which}, {what}: exit {code}: {err}"
        assert "Traceback" not in err, f"{command} on {which}, {what}"
        # bad numbers are rejected where they are read, not met by numpy later
        stray = [
            str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning) and "ridge jitter" not in str(w.message)
        ]
        assert stray == [], f"{command} on {which}, {what}: {stray}"
        codes.add(code)
    # the mutations are not all harmless, nor all fatal
    assert {0, 3} <= codes


def test_group_without_interior_weight(tmp_path, capsys, inputs):
    """Zero weight on every interior row of one group: the group gets no kernel
    part and no say in the bandwidth, like a group without interior values."""
    config, originals, _ = inputs
    lines = originals["observations"].splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    first = rows[0][:2]
    for row in rows:
        if row[:2] == first and 0.0 < float(row[2]) < 1.0:
            row[3] = "0.0"
    path = tmp_path / "obs.tsv"
    path.write_text("\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, kde={"bandwidth": "auto"},
                                   data={"observations": str(path)})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    _, _, keys, densities = read_density_file(tmp_path / "o" / "densities.tsv")
    grid_part = densities[keys.index(tuple(first))].values[2:]
    assert np.ptp(grid_part) < 1e-15
