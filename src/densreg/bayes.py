"""Densities relative to a finite measure and their clr coordinates.

Densities are stored as strictly positive value sequences over the atoms and
grid nodes of a :class:`~densreg.measure.ReferenceMeasure`. The centered
log-ratio (clr) transform maps the Bayes space isometrically onto
zero-integral sequences, where all linear algebra happens: perturbation and
powering of densities are sums and scalar multiples of clr rows.

For a mixed measure, the clr rows split orthogonally into a continuous part
on the grid and a discrete part on the atoms plus one stand-in point for the
continuous component, which comes last, past the interval; embedding the two
parts back and adding them recovers the rows, and each part integrates to
zero under its own component measure (:func:`check_decomposition`).
:func:`components` is the one table of a measure's components, each with its
measure and the embedding of its clr rows: the model fits one component at a
time from it, and the decomposition check reads it too. The library works on
N x P arrays of rows: each rule (clr, its inverse, the zero integral, the
stand-in value) has one ``*_rows`` implementation, and the element classes
and their one-row forms are the API edge. The inverse clr
returns the probability representative; elements that differ by a positive
constant factor represent the same point of the space.
"""
from __future__ import annotations

import numpy as np

from .measure import ReferenceMeasure

__all__ = [
    "DensityElement",
    "ClrElement",
    "check_density_values",
    "clr",
    "clr_inv",
    "clr_rows",
    "clr_inv_rows",
    "check_clr_rows",
    "decompose_clr",
    "embed_clr_continuous",
    "embed_clr_discrete",
    "decompose_clr_rows",
    "embed_clr_continuous_rows",
    "embed_clr_discrete_rows",
    "components",
    "check_decomposition",
    "continuous_submeasure",
    "discrete_star_measure",
]


class DensityElement:
    """A strictly positive density (atoms-then-grid layout); ``values`` is a
    read-only copy."""

    def __init__(self, measure: ReferenceMeasure, values):
        values = measure.check_values(values)
        check_density_values(values)
        values = values.copy()
        values.setflags(write=False)
        self.measure, self.values = measure, values


class ClrElement:
    """clr image of a density: a real sequence with zero measure-integral;
    ``values`` is a read-only copy."""

    def __init__(self, measure: ReferenceMeasure, values):
        values = measure.check_values(values)
        check_clr_rows(values[None, :], measure)
        values = values.copy()
        values.setflags(write=False)
        self.measure, self.values = measure, values


def check_density_values(values: np.ndarray) -> None:
    """Raise ValueError unless every density value is finite and strictly positive."""
    if not np.isfinite(values).all():
        raise ValueError("density values must be finite")
    if (values <= 0).any():
        raise ValueError("density values must be strictly positive")


def _check_rows(z: np.ndarray, m: ReferenceMeasure, error=ValueError) -> None:
    if z.ndim != 2 or z.shape[1] != m.size:
        raise error(f"rows have shape {z.shape}, expected (N, {m.size})")


def check_clr_rows(z: np.ndarray, m: ReferenceMeasure, error=ValueError) -> None:
    """Raise ``error(message)``, listing the failing rows, unless each row of ``z``
    is finite and integrates to zero within 1e-10 * max(1, max|row|) * max(1, mass)."""
    _check_rows(z, m, error)
    scale = np.maximum(1.0, np.abs(z).max(axis=1, initial=0.0))
    tol = 1e-10 * scale * max(1.0, m.total_mass)
    bad = np.flatnonzero(~(np.abs(z @ m.weights) <= tol) | np.isinf(scale))
    if bad.size:
        message = "clr values must be finite and integrate to zero"
        if len(z) > 1:
            message += f" (rows {', '.join(str(i + 1) for i in bad)})"
        raise error(message)


def clr_rows(values: np.ndarray, m: ReferenceMeasure) -> np.ndarray:
    """clr of N x P positive rows: log values minus each row's mean log."""
    logs = np.log(values)
    return logs - ((logs @ m.weights) / m.total_mass)[:, None]


def clr_inv_rows(z: np.ndarray, m: ReferenceMeasure) -> np.ndarray:
    """Inverse clr of N x P rows: exponentiate, scale each row to unit integral."""
    values = np.exp(z)
    check_density_values(values)
    return values / (values @ m.weights)[:, None]


def clr(f: DensityElement) -> ClrElement:
    """One-row form of :func:`clr_rows`."""
    return ClrElement(f.measure, clr_rows(f.values[None, :], f.measure)[0])


def clr_inv(z: ClrElement) -> DensityElement:
    """One-row form of :func:`clr_inv_rows`: the probability representative."""
    return DensityElement(z.measure, clr_inv_rows(z.values[None, :], z.measure)[0])


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
    return ReferenceMeasure(m.interval, (), (), m.grid, m.grid_weights)


def discrete_star_measure(m: ReferenceMeasure) -> ReferenceMeasure:
    """Atoms plus one extra point standing in for the continuous part.

    The measure follows the layout of the discrete part's values: the atoms'
    weights in order, then the Lebesgue length last. The stand-in's location
    b + (b - a) lies past the interval; it is there because a measure needs
    one, and nothing reads it.
    """
    _require_mixed(m)
    a, b = m.interval
    return ReferenceMeasure(None, np.append(m.atom_locations, b + (b - a)),
                            np.append(m.atom_weights, m.lebesgue_length), (), ())


def decompose_clr_rows(z: np.ndarray, m: ReferenceMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Array form of :func:`decompose_clr` for the N x P rows ``z`` on ``m``:
    returns the N x P_c continuous and N x (A + 1) discrete parts."""
    _require_mixed(m)
    _check_rows(z, m)
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


def components(m: ReferenceMeasure) -> dict:
    """The one table of the components of ``m``: each one's measure and the
    embedding of its clr rows back into ``m``, by name. A mixed measure has
    "continuous" (the grid) and "discrete" (the atoms plus the stand-in,
    last), in the order of :func:`decompose_clr_rows`; any other has
    "single", embedded as it is."""
    if m.is_mixed:
        return {"continuous": (continuous_submeasure(m), embed_clr_continuous_rows),
                "discrete": (discrete_star_measure(m), embed_clr_discrete_rows)}
    return {"single": (m, lambda z, _: z)}


def check_decomposition(z: np.ndarray, parts: tuple, m: ReferenceMeasure,
                        error=ValueError) -> tuple[float, float]:
    """Raise ``error(message)`` unless each of the ``parts`` of the mixed clr
    rows ``z`` (see :func:`decompose_clr_rows`) integrates to zero under its
    own component measure (:func:`check_clr_rows`) and their embeddings add
    back up to ``z`` within 1e-12 * max(1, max |z|); the components are those
    of :func:`components`. Returns the worst absolute deviation of that round
    trip and its tolerance; rounding keeps the deviation near 1e-16."""
    embedded = []
    for (name, (measure, embed)), part in zip(components(m).items(), parts):
        check_clr_rows(part, measure, lambda message: error(f"{name} part: {message}"))
        embedded.append(embed(part, m))
    deviation = float(np.max(np.abs(sum(embedded[1:], embedded[0]) - z), initial=0.0))
    tolerance = 1e-12 * max(1.0, float(np.max(np.abs(z), initial=0.0)))
    if not deviation <= tolerance:
        raise error("mixed rows do not embed back to their clr rows")
    return deviation, tolerance


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
