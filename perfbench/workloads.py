"""Workload definitions and the seeded input generator.

Each workload is one analyst batch run of the ``densreg`` CLI chain on
synthetic inputs from ``densreg.synth``. The program sees only the files
written here (densities or observations, newdata, config); generating them
is not timed.

Inputs are drawn from one of ``INPUT_VARIANTS`` seeded variants
(``seed % INPUT_VARIANTS``), so that every run can be compared against a
reference captured for exactly those inputs (see ``reference/``).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

INPUT_VARIANTS = 16

MEASURE = {
    "interval": [0.0, 1.0],
    "atoms": [{"location": 0.0, "weight": 1.0}, {"location": 1.0, "weight": 1.0}],
    "grid_size": 100,
}

# region x child-age group x year, as in the paper's income-share analysis
PAPER_TERMS = [
    {"name": "intercept", "kind": "intercept"},
    {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
    {"name": "c_age", "kind": "group_intercept", "covariates": ["c_age"]},
    {"name": "year", "kind": "flexible", "covariates": ["year"]},
    {
        "name": "region_year",
        "kind": "group_flexible",
        "covariates": ["region", "year"],
        "orthogonal_to": ["region", "year"],
    },
]

DID_REGION = {"factor_a": "region", "levels_a": ["east", "west"]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple            # CLI commands of the chain, in order
    n_years: int = 0           # planted problem size (0: estimate from observations)
    stopping: str = "fixed"
    max_iterations: int = 250
    threads: int = 1
    n_per_group: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper_cv",
            "paper scale (180 densities, 102-point mixed measure); resampled "
            "stopping by 10-fold CV in boosting does most of the work",
            ("fit", "predict", "interpret"),
            n_years=30, stopping="cv", threads=2,
        ),
        Workload(
            "ingest_auto",
            "estimate with automatic UCV bandwidth on 6 groups x 500 observations: "
            "ingest is the largest command, boosting does almost nothing",
            ("estimate", "fit", "predict", "interpret"),
            max_iterations=100, n_per_group=500,
        ),
    )
}


def input_seed(seed: int) -> int:
    return seed % INPUT_VARIANTS


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def _config(w: Workload, seed: int, terms: list, interpret: dict) -> dict:
    return {
        "seed": seed,
        "threads": w.threads,
        "data": {
            "observations": "observations.tsv",
            "densities": "out/densities.tsv" if "estimate" in w.commands else "densities.tsv",
            "newdata": "newdata.tsv",
            "model": "out/model.json",
        },
        "measure": MEASURE,
        "kde": {"bandwidth": "auto"},
        "model": {
            "references": {"region": "west", "c_age": "other", "year": 0.0},
            "terms": terms,
        },
        "boosting": {
            "max_iterations": w.max_iterations,
            "stopping": {"method": w.stopping, "folds": 10},
        },
        "interpret": interpret,
        "out": "out",
    }


def generate(name: str, seed: int, out_dir: str) -> dict:
    """Write the workload's input files into ``out_dir``; return its config."""
    from densreg.io import write_density_file
    from densreg.synth import planted_problem, synthetic_observations

    w = WORKLOADS[name]
    seed = input_seed(seed)
    os.makedirs(out_dir, exist_ok=True)
    if w.n_years:
        measure, data, truths, _ = planted_problem(
            seed=seed, grid_size=MEASURE["grid_size"], n_years=w.n_years, noise_scale=0.5
        )
        cols = ["region", "c_age", "year"]
        keys = [
            (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
            for i in range(len(truths))
        ]
        write_density_file(os.path.join(out_dir, "densities.tsv"), measure, cols, keys, truths)
        _write_rows(os.path.join(out_dir, "newdata.tsv"), cols, keys)
        mid = float(w.n_years // 2)
        terms = PAPER_TERMS
        interpret = {
            "effects": [
                {"term": "year", "at": {"region": "east", "c_age": "kids0_6", "year": mid}}
            ],
            # region x year contrast, which the region_year term makes nonzero
            "did": [
                dict(DID_REGION, factor_b="year", levels_b=[float(w.n_years - 1), mid],
                     fixed={"c_age": "kids0_6"})
            ],
        }
    else:
        table = synthetic_observations(seed=seed, groups=6, n_per_group=w.n_per_group)
        _write_rows(
            os.path.join(out_dir, "observations.tsv"),
            ["region", "c_age", "value", "weight"],
            [
                (r, c, repr(v), repr(wt))
                for r, c, v, wt in zip(table["region"], table["c_age"], table["value"], table["weight"])
            ],
        )
        groups = sorted(set(zip(table["region"], table["c_age"])))
        _write_rows(os.path.join(out_dir, "newdata.tsv"), ["region", "c_age"], groups)
        terms = PAPER_TERMS[:3]
        interpret = {
            "effects": [{"term": "region", "at": {"region": "east", "c_age": "kids0_6"}}],
            "did": [
                dict(DID_REGION, factor_b="c_age", levels_b=["kids0_6", "other"], fixed={})
            ],
        }
    cfg = _config(w, seed, terms, interpret)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=1)
    return cfg
