"""Densities relative to a finite measure and their clr coordinates.

Densities are stored as strictly positive value sequences over the atoms and
grid nodes of a :class:`~densreg.measure.ReferenceMeasure`. The centered
log-ratio (clr) transform maps the Bayes space isometrically onto
zero-integral sequences, where all linear algebra happens: perturbation and
powering of densities are sums and scalar multiples of clr rows.

For a mixed measure, the clr rows split orthogonally into a continuous part
on the grid and a discrete part on the atoms plus one stand-in point for the
continuous component; embedding the two parts back and adding them recovers
the rows. Boosting and simulation work on N x P clr arrays (the ``*_rows``
functions); the element classes and their per-element forms are the API edge.

Public constructors renormalize to the probability representative; elements
that differ by a positive constant factor represent the same point of the
space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import ReferenceMeasure, integrate, make_discrete

__all__ = [
    "DensityElement",
    "ClrElement",
    "density",
    "clr",
    "clr_inv",
    "decompose_clr",
    "embed_clr_continuous",
    "embed_clr_discrete",
    "decompose_clr_rows",
    "embed_clr_continuous_rows",
    "embed_clr_discrete_rows",
    "continuous_submeasure",
    "discrete_star_measure",
]


@dataclass(frozen=True)
class DensityElement:
    """A strictly positive density (atoms-then-grid layout)."""

    measure: ReferenceMeasure
    values: np.ndarray

    def __post_init__(self):
        values = self.measure.check_values(self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values <= 0):
            raise ValueError("density values must be strictly positive")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def total(self) -> float:
        return integrate(self.measure, self.values)

    def as_probability(self) -> "DensityElement":
        """Representative with unit integral."""
        return DensityElement(self.measure, self.values / self.total())


@dataclass(frozen=True)
class ClrElement:
    """clr image of a density: a real sequence with zero measure-integral."""

    measure: ReferenceMeasure
    values: np.ndarray

    def __post_init__(self):
        values = self.measure.check_values(self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("clr values must be finite")
        scale = max(1.0, float(np.max(np.abs(values)) if values.size else 0.0))
        tol = 1e-10 * scale * max(1.0, self.measure.total_mass)
        if abs(float(values @ self.measure.weights)) > tol:
            raise ValueError("clr values must integrate to zero")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def density(measure: ReferenceMeasure, values, normalize: bool = True) -> DensityElement:
    """Wrap raw values as a density, by default as the probability representative."""
    f = DensityElement(measure, np.asarray(values, dtype=float))
    return f.as_probability() if normalize else f


def clr(f: DensityElement) -> ClrElement:
    """Centered log-ratio transform: log f minus its mean log."""
    logs = np.log(f.values)
    centered = logs - integrate(f.measure, logs) / f.measure.total_mass
    return ClrElement(f.measure, centered)


def clr_inv(z: ClrElement) -> DensityElement:
    """Inverse clr transform: exponentiate, renormalize."""
    return density(z.measure, np.exp(z.values))


# ---------------------------------------------------------------------------
# Mixed-case orthogonal decomposition
# ---------------------------------------------------------------------------

def _require_mixed(m: ReferenceMeasure) -> None:
    if m.n_atoms == 0 or m.n_grid == 0:
        raise ValueError("decomposition requires a mixed measure")


def continuous_submeasure(m: ReferenceMeasure) -> ReferenceMeasure:
    """The Lebesgue part of a mixed measure as a measure in its own right."""
    if m.n_grid == 0:
        raise ValueError("measure has no continuous part")
    return ReferenceMeasure(
        interval=m.interval,
        atom_locations=np.empty(0),
        atom_weights=np.empty(0),
        grid=m.grid,
        grid_weights=m.grid_weights,
    )


def discrete_star_measure(m: ReferenceMeasure) -> ReferenceMeasure:
    """Atoms plus one extra point standing in for the continuous part.

    The extra point sits at the interval midpoint (a label only, never used
    in arithmetic) and carries the Lebesgue length as weight.
    """
    _require_mixed(m)
    a, b = m.interval
    label = 0.5 * (a + b)
    if np.any(np.abs(m.atom_locations - label) < 1e-12):
        # midpoint already taken by an atom, nudge the label off it
        label = label + 0.25 * (b - a)
    points = list(zip(m.atom_locations, m.atom_weights)) + [(label, m.lebesgue_length)]
    return make_discrete(points)


def decompose_clr_rows(z: np.ndarray, m: ReferenceMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`decompose_clr` for the N x P rows ``z`` on ``m``:
    returns the N x P_c continuous and N x (A + 1) discrete parts."""
    _require_mixed(m)
    if z.ndim != 2 or z.shape[1] != m.size:
        raise ValueError(f"clr rows have shape {z.shape}, expected (N, {m.size})")
    grid_vals = z[:, m.n_atoms:]
    grid_mean = (grid_vals @ m.grid_weights) / m.lebesgue_length
    z_d = np.concatenate([z[:, : m.n_atoms], grid_mean[:, None]], axis=1)
    return grid_vals - grid_mean[:, None], z_d


def embed_clr_continuous_rows(z_c: np.ndarray, target: ReferenceMeasure) -> np.ndarray:
    """Array form of :func:`embed_clr_continuous` for N x P_c rows."""
    if z_c.shape[1] != target.n_grid:
        raise ValueError("continuous component does not match the target grid")
    return np.concatenate([np.zeros((z_c.shape[0], target.n_atoms)), z_c], axis=1)


def embed_clr_discrete_rows(z_d: np.ndarray, target: ReferenceMeasure) -> np.ndarray:
    """Array form of :func:`embed_clr_discrete` for N x (A + 1) rows."""
    if z_d.shape[1] != target.n_atoms + 1:
        raise ValueError("discrete component does not match the target atoms")
    return np.concatenate([z_d[:, :-1], np.repeat(z_d[:, -1:], target.n_grid, axis=1)], axis=1)


def decompose_clr(z: ClrElement) -> tuple[ClrElement, ClrElement]:
    """Decompose a clr element over a mixed measure into component clr parts.

    The grid part is recentered by its Lebesgue mean, which becomes the
    stand-in value of the discrete part. This is the clr image of splitting
    the density into its restriction to the grid and its atoms relative to
    the geometric mean of that restriction.
    """
    z_c, z_d = decompose_clr_rows(z.values[None, :], z.measure)
    return (
        ClrElement(continuous_submeasure(z.measure), z_c[0]),
        ClrElement(discrete_star_measure(z.measure), z_d[0]),
    )


def embed_clr_continuous(z_c: ClrElement, target: ReferenceMeasure) -> ClrElement:
    """clr-level embedding of the continuous part: zero on the atoms."""
    return ClrElement(target, embed_clr_continuous_rows(z_c.values[None, :], target)[0])


def embed_clr_discrete(z_d: ClrElement, target: ReferenceMeasure) -> ClrElement:
    """clr-level embedding of the discrete part: stand-in value on the grid."""
    return ClrElement(target, embed_clr_discrete_rows(z_d.values[None, :], target)[0])
