"""Vector-space arithmetic for densities relative to a finite measure.

Densities are stored as strictly positive value sequences over the atoms and
grid nodes of a :class:`~densreg.measure.ReferenceMeasure`. Addition is the
pointwise product (perturbation), scalar multiplication the pointwise power
(powering), and the centered log-ratio (clr) transform maps the space
isometrically onto zero-integral sequences, where all linear algebra happens.

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
    "constant_density",
    "perturb",
    "inverse",
    "subtract",
    "power",
    "clr",
    "clr_inv",
    "inner",
    "norm",
    "equal_b",
    "geometric_mean_full",
    "geometric_mean_continuous",
    "mean_log_full",
    "mean_log_continuous",
    "decompose_mixed",
    "embed_continuous",
    "embed_discrete",
    "decompose_clr",
    "embed_clr_continuous",
    "embed_clr_discrete",
    "decompose_clr_rows",
    "embed_clr_continuous_rows",
    "embed_clr_discrete_rows",
    "continuous_submeasure",
    "discrete_star_measure",
    "project_subspace",
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


def constant_density(measure: ReferenceMeasure) -> DensityElement:
    """The neutral element: the uniform probability density."""
    return density(measure, np.ones(measure.size))


def _require_same_measure(f: DensityElement, g: DensityElement):
    if f.measure is not g.measure and not f.measure.same_support(g.measure):
        raise ValueError("operands live on different reference measures")


def perturb(f: DensityElement, g: DensityElement) -> DensityElement:
    """f + g in the density space: pointwise product, renormalized."""
    _require_same_measure(f, g)
    return density(f.measure, f.values * g.values)


def inverse(f: DensityElement) -> DensityElement:
    """Additive inverse: pointwise reciprocal, renormalized."""
    return density(f.measure, 1.0 / f.values)


def subtract(f: DensityElement, g: DensityElement) -> DensityElement:
    """f - g, i.e. perturbation with the inverse of g."""
    return perturb(f, inverse(g))


def power(alpha: float, f: DensityElement) -> DensityElement:
    """Scalar multiple: pointwise power, renormalized."""
    if not np.isfinite(alpha):
        raise ValueError("powering exponent must be finite")
    return density(f.measure, f.values ** alpha)


def mean_log_full(f: DensityElement) -> float:
    """Mean of log f over the whole measure."""
    return integrate(f.measure, np.log(f.values)) / f.measure.total_mass


def mean_log_continuous(f: DensityElement) -> float:
    """Mean of log f over the continuous part only."""
    m = f.measure
    if m.n_grid == 0:
        raise ValueError("measure has no continuous part")
    logs = np.log(f.values[m.n_atoms:])
    return float(logs @ m.grid_weights) / m.lebesgue_length


def geometric_mean_full(f: DensityElement) -> float:
    return float(np.exp(mean_log_full(f)))


def geometric_mean_continuous(f: DensityElement) -> float:
    return float(np.exp(mean_log_continuous(f)))


def clr(f: DensityElement) -> ClrElement:
    """Centered log-ratio transform: log f minus its mean log."""
    logs = np.log(f.values)
    centered = logs - integrate(f.measure, logs) / f.measure.total_mass
    return ClrElement(f.measure, centered)


def clr_inv(z: ClrElement) -> DensityElement:
    """Inverse clr transform: exponentiate, renormalize."""
    return density(z.measure, np.exp(z.values))


def inner(f: DensityElement, g: DensityElement) -> float:
    """Inner product: the weighted product integral of the clr images."""
    _require_same_measure(f, g)
    zf, zg = clr(f).values, clr(g).values
    return float((zf * zg) @ f.measure.weights)


def norm(f: DensityElement) -> float:
    return float(np.sqrt(max(inner(f, f), 0.0)))


def equal_b(f: DensityElement, g: DensityElement, tol: float = 1e-10) -> bool:
    """Equality up to a positive constant factor (probability representatives)."""
    _require_same_measure(f, g)
    fv = f.as_probability().values
    gv = g.as_probability().values
    return bool(np.max(np.abs(fv - gv)) <= tol * max(1.0, float(np.max(fv))))


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


def decompose_mixed(f: DensityElement) -> tuple[DensityElement, DensityElement]:
    """Split a mixed density into its continuous and discrete components.

    Returns (f_c, f_d): f_c is f restricted to the grid; f_d lives on the
    atoms plus the stand-in point, with value 1 there and atom values divided
    by the geometric mean of the continuous part. These are the unique
    components whose embeddings perturb back to f.
    """
    m = f.measure
    _require_mixed(m)
    gm = geometric_mean_continuous(f)
    f_c = DensityElement(continuous_submeasure(m), f.values[m.n_atoms:])
    d_values = np.concatenate([f.values[: m.n_atoms] / gm, [1.0]])
    f_d = DensityElement(discrete_star_measure(m), d_values)
    return f_c, f_d


def embed_continuous(f_c: DensityElement, target: ReferenceMeasure) -> DensityElement:
    """Embed a continuous-part density into the mixed space.

    Atom values are filled with the geometric mean of f_c, which makes the
    embedding linear, norm-preserving, and orthogonal to the discrete part.
    """
    if f_c.measure.n_grid != target.n_grid or not np.array_equal(
        f_c.measure.grid, target.grid
    ):
        raise ValueError("continuous component does not match the target grid")
    gm = geometric_mean_continuous(f_c)
    values = np.concatenate([np.full(target.n_atoms, gm), f_c.values])
    return density(target, values)


def embed_discrete(f_d: DensityElement, target: ReferenceMeasure) -> DensityElement:
    """Embed a discrete-star density into the mixed space.

    Grid values are filled with the value at the stand-in point (last atom).
    """
    if f_d.measure.n_atoms != target.n_atoms + 1:
        raise ValueError("discrete component does not match the target atoms")
    values = np.concatenate(
        [f_d.values[:-1], np.full(target.n_grid, f_d.values[-1])]
    )
    return density(target, values)


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

    Mirrors :func:`decompose_mixed` at the transformed level: the grid part is
    recentered by its Lebesgue mean, which becomes the stand-in value of the
    discrete part. The decomposition commutes with the clr transform.
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


def project_subspace(f: DensityElement, mask) -> DensityElement:
    """Orthogonal projection onto the densities supported by ``mask``.

    ``mask`` is a boolean sequence over atoms-then-grid selecting a
    measurable sub-support. Off the mask the projection takes the geometric
    mean of f over the mask, which makes the map idempotent and self-adjoint.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (f.measure.size,):
        raise ValueError("mask must align with the measure layout")
    if not mask.any():
        raise ValueError("sub-support must have positive mass")
    w = f.measure.weights
    logs = np.log(f.values)
    s0 = float((logs[mask] @ w[mask]) / w[mask].sum())
    values = np.where(mask, f.values, np.exp(s0))
    return density(f.measure, values)
