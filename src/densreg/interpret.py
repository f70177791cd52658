"""Odds-ratio interpretation of fitted effects.

Every quantity here is a function of clr values, so it is invariant to the
representative chosen for a density: the functions take a
:class:`~densreg.bayes.ClrElement`, and the difference-in-differences is one
inclusion-exclusion contrast of the clr predictor. Log odds compare an
effect's density values at two support points. The heatmap assembles
pairwise log odds in the band layout used for mixed supports: an inner
point-vs-point quadrant, inner bands for atom-vs-point, and outer bands for
atom-vs-continuous aggregate (a point mass against the geometric mean of the
continuous component).
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bayes import ClrElement, decompose_clr_rows
from .measure import ReferenceMeasure
from .model import FittedModel, _contrast

__all__ = [
    "value_at",
    "log_odds",
    "did_effect",
    "HeatmapGrid",
    "heatmap",
]


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


def value_at(effect: ClrElement, t: float) -> float:
    """clr value of the effect at a support point."""
    return float(effect.values[_locate(effect.measure, t)])


def log_odds(effect: ClrElement, t: float, s: float) -> float:
    """Log odds of the effect for t compared to s: clr(t) - clr(s)."""
    return value_at(effect, t) - value_at(effect, s)


def did_effect(
    model: FittedModel,
    factor_a: str,
    levels_a: tuple,
    factor_b: str,
    levels_b: tuple,
    fixed: dict,
) -> ClrElement:
    """Difference-in-differences of predictions over two binary contrasts.

    The clr image of (f[a1,b1] - f[a0,b1]) - (f[a1,b0] - f[a0,b0]), with
    Bayes-space differences and the remaining covariates held at ``fixed``:
    the inclusion-exclusion contrast of the predictor over the two factors,
    the one :func:`~densreg.model.extract_effect` takes over a term's
    covariates. The two factors must differ, and so must the two levels of
    each contrast; otherwise the result is zero by construction.
    """
    covariates = model.frame.covariates
    for factor in (factor_a, factor_b):
        if factor not in covariates:
            raise ValueError(f"factor {factor!r} is not a covariate of the model")
    if factor_a == factor_b:
        raise ValueError(f"factor_a and factor_b are both {factor_a!r}")
    for factor, levels in ((factor_a, levels_a), (factor_b, levels_b)):
        if levels[0] == levels[1]:
            raise ValueError(f"the contrast of {factor!r} compares {levels[0]!r} with itself")
    missing = sorted(set(covariates) - set(fixed) - {factor_a, factor_b})
    if missing:
        raise ValueError(f"fixed values missing for covariate(s) {missing}")
    toggles = {factor_a: levels_a, factor_b: levels_b}
    return ClrElement(model.measure, _contrast(model, toggles, fixed))


class HeatmapGrid(NamedTuple):
    """Pairwise log odds over ordered support points, with band metadata."""

    points: np.ndarray          # evaluation points, atoms flagged separately
    is_atom: np.ndarray         # boolean flags per point
    values: np.ndarray          # values[i, j] = log odds for points[i] vs points[j]
    outer_band: np.ndarray      # per-atom log odds against the continuous aggregate


def heatmap(effect: ClrElement, resolution: int) -> HeatmapGrid:
    """Log-odds surface LO(t, s) over atoms plus a grid subsample.

    The outer band compares each atom with the continuous component as a
    whole: the discrete part of :func:`~densreg.bayes.decompose_clr_rows`,
    each atom minus the stand-in value.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")
    m, z = effect.measure, effect.values
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
    outer = np.empty(0)
    if m.is_mixed:
        z_d = decompose_clr_rows(z[None, :], m)[1][0]
        outer = z_d[:-1] - z_d[-1]
    return HeatmapGrid(pts, is_atom, grid, outer)
