"""Density-space algebra of the Bayes Hilbert space, kept as a test oracle.

The library works in clr coordinates only. These functions do the same
arithmetic on densities directly: perturbation is the pointwise product,
powering the pointwise power, the inner product the weighted product
integral of the clr images, and the mixed-case decomposition splits a
density into its grid restriction and its atoms relative to the geometric
mean of that restriction. Every result is renormalized to the probability
representative. Tests compare the clr-space code paths against them, and
``boosting_oracle`` builds the density-space boosting path on them.
"""
from __future__ import annotations

import numpy as np

from densreg.bayes import (
    DensityElement,
    _require_mixed,
    clr,
    continuous_submeasure,
    discrete_star_measure,
)
from densreg.measure import ReferenceMeasure, integrate


def density(measure: ReferenceMeasure, values, normalize: bool = True) -> DensityElement:
    """Wrap raw values as a density, by default as the probability representative."""
    f = DensityElement(measure, np.asarray(values, dtype=float))
    return DensityElement(measure, f.values / integrate(measure, f.values)) if normalize else f


def constant_density(measure: ReferenceMeasure) -> DensityElement:
    """The neutral element: the uniform probability density."""
    return density(measure, np.ones(measure.size))


def same_support(m: ReferenceMeasure, other: ReferenceMeasure) -> bool:
    """Whether two measures have the same interval, atoms, grid and weights."""
    if m.interval != other.interval:
        return False
    return (
        np.array_equal(m.atom_locations, other.atom_locations)
        and np.array_equal(m.atom_weights, other.atom_weights)
        and np.array_equal(m.grid, other.grid)
        and np.array_equal(m.grid_weights, other.grid_weights)
    )


def _require_same_measure(f: DensityElement, g: DensityElement):
    if f.measure is not g.measure and not same_support(f.measure, g.measure):
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
    fv = density(f.measure, f.values).values
    gv = density(g.measure, g.values).values
    return bool(np.max(np.abs(fv - gv)) <= tol * max(1.0, float(np.max(fv))))


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
