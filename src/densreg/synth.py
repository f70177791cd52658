"""Synthetic data generation: planted regression problems and individual-level
observation tables.

The planted problem mirrors the structure of an income-share analysis: mixed
densities on [0, 1] with point masses at the boundaries, a binary region, a
three-level child-age group, and a year trend. True effects are built
directly in clr coordinates so recovery can be measured exactly.
"""
from __future__ import annotations

import numpy as np

from .bayes import ClrElement, clr_inv
from .measure import ReferenceMeasure, make_mixed

__all__ = [
    "planted_shapes",
    "planted_problem",
    "synthetic_observations",
]

REGION_LEVELS = ("east", "west")
CAGE_LEVELS = ("kids0_6", "kids7_18", "other")


def _center(m: ReferenceMeasure, values: np.ndarray) -> np.ndarray:
    w = m.weights
    return values - (values @ w) / w.sum()


def planted_shapes(m: ReferenceMeasure) -> dict:
    """Fixed zero-integral shape vectors used to compose true effects."""
    t = np.concatenate([m.atom_locations, m.grid])
    shapes = {
        "tilt": _center(m, t - 0.5),
        "bump": _center(m, np.exp(-18.0 * (t - 0.45) ** 2)),
        "wave": _center(m, np.sin(2.0 * np.pi * t)),
        "edge": _center(m, np.where(t <= 0.0, 1.0, 0.0) - np.where(t >= 1.0, 1.0, 0.0)),
    }
    return shapes


def planted_problem(seed: int, grid_size: int, n_years: int, noise_scale: float):
    """Planted mixed-density regression problem over region x child group x year.

    Returns (measure, data, truths, effects) where ``truths`` are the
    observed densities: the planted additive clr surfaces, plus, when
    ``noise_scale`` > 0, a random clr perturbation per observation (so they
    carry the noise); ``data`` is the covariate table, and ``effects`` maps
    term names to the noise-free planted clr surfaces per observation for
    direct comparison with fitted effects.
    """
    rng = np.random.default_rng(seed)
    m = make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], grid_size)
    shapes = planted_shapes(m)
    years = np.arange(n_years, dtype=float)
    year_scaled = (years - years.mean()) / max(years.std(), 1.0)

    region_col, cage_col, year_col = [], [], []
    for region in REGION_LEVELS:
        for cage in CAGE_LEVELS:
            for year in years:
                region_col.append(region)
                cage_col.append(cage)
                year_col.append(year)
    data = {
        "region": region_col,
        "c_age": cage_col,
        "year": np.asarray(year_col),
    }
    n = len(region_col)

    base = 0.8 * shapes["bump"] - 0.6 * shapes["tilt"] + 0.4 * shapes["edge"]
    region_dev = {
        "east": 0.5 * shapes["tilt"] + 0.2 * shapes["edge"],
        "west": -0.5 * shapes["tilt"] - 0.2 * shapes["edge"],
    }
    cage_dev = {
        "kids0_6": -0.6 * shapes["tilt"] + 0.3 * shapes["edge"],
        "kids7_18": -0.2 * shapes["tilt"] + 0.1 * shapes["edge"],
        "other": 0.8 * shapes["tilt"] - 0.4 * shapes["edge"],
    }

    effects = {
        "intercept": np.tile(base, (n, 1)),
        "region": np.zeros((n, m.size)),
        "c_age": np.zeros((n, m.size)),
        "year": np.zeros((n, m.size)),
    }
    z_rows = np.zeros((n, m.size))
    for i in range(n):
        zr = region_dev[region_col[i]]
        zc = cage_dev[cage_col[i]]
        u = year_scaled[int(year_col[i] - years[0])]
        zy = 0.45 * u * shapes["wave"] + 0.3 * (u ** 2 - 1.0) * shapes["tilt"]
        effects["region"][i] = zr
        effects["c_age"][i] = zc
        effects["year"][i] = zy
        z_rows[i] = base + zr + zc + zy
        if noise_scale > 0:
            eps = noise_scale * rng.normal(size=3)
            z_rows[i] += _center(
                m,
                eps[0] * shapes["bump"] * rng.normal()
                + eps[1] * shapes["wave"]
                + eps[2] * shapes["tilt"],
            )
    truths = [clr_inv(ClrElement(m, _center(m, row))) for row in z_rows]
    return m, data, truths, effects


def synthetic_observations(seed: int, groups: int, n_per_group: int):
    """Individual-level weighted observations of a share in [0, 1].

    Each group mixes exact boundary values with interior draws from a
    group-specific beta distribution. Returns a column table with keys
    group key columns, "value", and "weight".
    """
    rng = np.random.default_rng(seed)
    region, cage, values, weights = [], [], [], []
    combos = [(r, c) for r in REGION_LEVELS for c in CAGE_LEVELS][:groups]
    for gi, (r, c) in enumerate(combos):
        p0 = 0.12 + 0.05 * (gi % 3)
        p1 = 0.05 + 0.02 * (gi % 2)
        a = 2.0 + 0.7 * gi
        b = 2.8
        for _ in range(n_per_group):
            u = rng.uniform()
            if u < p0:
                v = 0.0
            elif u < p0 + p1:
                v = 1.0
            else:
                v = float(np.clip(rng.beta(a, b), 1e-9, 1 - 1e-9))
            region.append(r)
            cage.append(c)
            values.append(v)
            weights.append(float(rng.uniform(0.5, 1.5)))
    return {
        "region": region,
        "c_age": cage,
        "value": values,
        "weight": weights,
    }
