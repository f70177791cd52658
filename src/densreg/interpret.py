"""Odds-ratio interpretation of fitted effects.

Every quantity here is a function of clr values, so it is invariant to the
representative chosen for a density. Log odds compare an effect's density
values at two support points; odds ratios compare those comparisons across
two effects; the mixed-case variants relate a point mass to the geometric
mean of the continuous component. The heatmap assembles pairwise log odds in
the band layout used for mixed supports: an inner point-vs-point quadrant,
inner bands for atom-vs-point, and outer bands for atom-vs-continuous
aggregate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import (
    ClrElement,
    DensityElement,
    clr,
    geometric_mean_continuous,
    perturb,
    subtract,
)
from .measure import ReferenceMeasure
from .model import FittedModel, predict

__all__ = [
    "value_at",
    "log_odds",
    "odds",
    "log_odds_ratio",
    "odds_ratio",
    "geometric_mean_odds",
    "mixed_discrete_odds",
    "did_effect",
    "HeatmapGrid",
    "heatmap",
    "ThresholdSplit",
    "threshold_split",
]


def _clr_values(effect) -> tuple[ReferenceMeasure, np.ndarray]:
    if isinstance(effect, ClrElement):
        return effect.measure, effect.values
    if isinstance(effect, DensityElement):
        z = clr(effect)
        return z.measure, z.values
    raise TypeError("expected a density or clr element")


def _locate(m: ReferenceMeasure, t: float) -> int:
    """Index of the support point representing ``t`` (atom or nearest grid
    node within half a cell)."""
    if m.n_atoms:
        hits = np.nonzero(np.abs(m.atom_locations - t) < 1e-12)[0]
        if hits.size:
            return int(hits[0])
    if m.n_grid:
        k = int(np.argmin(np.abs(m.grid - t)))
        half_cell = 0.5 * m.grid_weights[k]
        if abs(m.grid[k] - t) <= half_cell + 1e-12:
            return m.n_atoms + k
    raise ValueError(f"point {t!r} is not on the support of the measure")


def value_at(effect, t: float) -> float:
    """clr value of the effect at a support point."""
    m, z = _clr_values(effect)
    return float(z[_locate(m, t)])


def log_odds(effect, t: float, s: float) -> float:
    """Log odds of the effect for t compared to s: clr(t) - clr(s)."""
    return value_at(effect, t) - value_at(effect, s)


def odds(effect, t: float, s: float) -> float:
    return float(np.exp(log_odds(effect, t, s)))


def log_odds_ratio(effect_j, effect_k, t: float, s: float) -> float:
    """Log odds ratio of two effects for t compared to s.

    With the comparison effect at the reference (zero clr) this reduces to
    the plain log odds of the first effect.
    """
    return log_odds(effect_j, t, s) - log_odds(effect_k, t, s)


def odds_ratio(effect_j, effect_k, t: float, s: float) -> float:
    return float(np.exp(log_odds_ratio(effect_j, effect_k, t, s)))


def geometric_mean_odds(effect, t: float) -> float:
    """Odds of the effect at t compared to its geometric mean: exp(clr(t))."""
    return float(np.exp(value_at(effect, t)))


def mixed_discrete_odds(effect: DensityElement, t: float) -> float:
    """Odds of the point mass at t against the continuous component.

    Equals the discrete component's value at t relative to the stand-in
    point, i.e. the effect value at the atom divided by the geometric mean
    of its continuous part.
    """
    m = effect.measure
    if not m.is_mixed:
        raise ValueError("mixed-case odds need a mixed reference measure")
    idx = _locate(m, t)
    if idx >= m.n_atoms:
        raise ValueError(f"point {t!r} is not an atom of the measure")
    return float(effect.values[idx] / geometric_mean_continuous(effect))


def did_effect(
    model: FittedModel,
    factor_a: str,
    levels_a: tuple,
    factor_b: str,
    levels_b: tuple,
    fixed: dict,
) -> DensityElement:
    """Difference-in-differences of predictions over two binary contrasts.

    Computes (f[a1,b1] - f[a0,b1]) - (f[a1,b0] - f[a0,b0]) in the density
    space, with remaining covariates held at ``fixed``.
    """
    a1, a0 = levels_a
    b1, b0 = levels_b
    cells = [(a1, b1), (a0, b1), (a1, b0), (a0, b0)]
    table = {k: [v] * len(cells) for k, v in fixed.items()}
    table[factor_a] = [a for a, _ in cells]
    table[factor_b] = [b for _, b in cells]
    f11, f01, f10, f00 = predict(model, table)
    return subtract(subtract(f11, f01), subtract(f10, f00))


@dataclass
class HeatmapGrid:
    """Pairwise log odds over ordered support points, with band metadata."""

    points: np.ndarray          # evaluation points, atoms flagged separately
    is_atom: np.ndarray         # boolean flags per point
    values: np.ndarray          # values[i, j] = log odds for points[i] vs points[j]
    outer_band: np.ndarray      # per-atom log odds against the continuous aggregate


def heatmap(effect, resolution: int = 25) -> HeatmapGrid:
    """Log-odds surface LO(t, s) over atoms plus a grid subsample.

    The outer band compares each atom with the continuous component as a
    whole (geometric-mean odds of the discrete part), matching the band
    layout used for mixed densities.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    m, z = _clr_values(effect)
    idx = list(range(m.n_atoms))
    if m.n_grid:
        step = max(1, m.n_grid // resolution)
        idx += [m.n_atoms + k for k in range(0, m.n_grid, step)]
    idx = np.asarray(idx, dtype=int)
    pts = m.locations[idx]
    order = np.argsort(pts, kind="stable")
    idx, pts = idx[order], pts[order]
    vals = z[idx]
    grid = vals[:, None] - vals[None, :]
    is_atom = idx < m.n_atoms
    if m.is_mixed:
        grid_vals = z[m.n_atoms:]
        cont_mean = float(grid_vals @ m.grid_weights) / m.lebesgue_length
        outer = z[: m.n_atoms] - cont_mean
    else:
        outer = np.empty(0)
    return HeatmapGrid(pts, is_atom, grid, outer)


@dataclass
class ThresholdSplit:
    """Masses before and after perturbing with a thresholded effect."""

    mask: np.ndarray
    mass_inside_before: float
    mass_inside_after: float
    mass_outside_before: float
    mass_outside_after: float


def threshold_split(f: DensityElement, g: DensityElement, alpha: float) -> ThresholdSplit:
    """Split the support at {g >= alpha} and report how perturbation by g
    moves probability mass: inside the split it can only grow, outside only
    shrink.

    Both inputs are taken as probability representatives; ``alpha`` must be
    positive.
    """
    if alpha <= 0:
        raise ValueError("threshold must be positive")
    fp = f.as_probability()
    gp = g.as_probability()
    mask = gp.values >= alpha
    combined = perturb(fp, gp)
    m = f.measure
    w = m.weights

    def mass(values, where):
        return float((values * w)[where].sum())

    return ThresholdSplit(
        mask=mask,
        mass_inside_before=mass(fp.values, mask),
        mass_inside_after=mass(combined.values, mask),
        mass_outside_before=mass(fp.values, ~mask),
        mass_outside_after=mass(combined.values, ~mask),
    )
