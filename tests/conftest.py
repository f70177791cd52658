import numpy as np
import pytest

from densreg.basis import DensityBasis, difference_penalty, raw_density_basis, sum_to_zero_transform
from densreg.bayes import clr_rows
from densreg.measure import ReferenceMeasure, make_discrete, make_mixed

from bayes_oracle import density

# Values for the library parameters that tests do not vary, by function.
# Every caller in the package passes these parameters, so the library gives
# them no default; the model options of fit and build_designs are the
# command-line defaults.
OPTIONS = {
    "model": {
        "default_df": 2.0,
        "density_knots": 10,
        "density_degree": 3,
        "density_penalty_order": 2,
        "lambda_density": 0.0,
    },
    "heatmap": {"resolution": 25},
    "planted_problem": {"noise_scale": 0.0},
    "simulate_responses": {"noise_scale": 1.0},
}


def options(function: str, **changes) -> dict:
    """The keyword values of ``OPTIONS[function]`` with ``changes`` applied."""
    return {**OPTIONS[function], **changes}


def make_continuous(a: float, b: float, grid_size: int) -> ReferenceMeasure:
    """Lebesgue measure on [a, b] (no atoms)."""
    return make_mixed(a, b, [], grid_size)


def mixed_concatenated_basis(
    m: ReferenceMeasure, n_interior: int = 10, degree: int = 3, penalty_order: int = 2
) -> DensityBasis:
    """Atom indicators concatenated with grid B-splines, constrained jointly.

    A direct basis over a mixed measure, used when fitting without the
    orthogonal two-component split.
    """
    if m.n_atoms == 0 or m.n_grid == 0:
        raise ValueError("concatenated basis requires a mixed measure")
    spline_part = raw_density_basis(m, n_interior, degree)
    k_spline = spline_part.shape[1]
    raw = np.zeros((m.size, m.n_atoms + k_spline))
    raw[: m.n_atoms, : m.n_atoms] = np.eye(m.n_atoms)
    raw[m.n_atoms :, m.n_atoms :] = spline_part
    pen_raw = np.zeros((raw.shape[1], raw.shape[1]))
    pen_raw[: m.n_atoms, : m.n_atoms] = difference_penalty(
        m.n_atoms, min(1, m.n_atoms - 1)
    )
    pen_raw[m.n_atoms :, m.n_atoms :] = difference_penalty(k_spline, penalty_order)
    z, constrained = sum_to_zero_transform(raw, m)
    return DensityBasis(m, constrained, z.T @ pen_raw @ z)


@pytest.fixture
def discrete_measure():
    return make_discrete([(0.0, 1.0), (1.0, 1.0)])


@pytest.fixture
def continuous_measure():
    return make_continuous(0.0, 1.0, 100)


@pytest.fixture
def mixed_measure():
    return make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 100)


def random_density(measure, rng, spread=1.0):
    """Random strictly positive density on the given measure."""
    logs = rng.normal(0.0, spread, size=measure.size)
    return density(measure, np.exp(logs))


def clr_stack(densities):
    """N x P clr rows of density elements on one measure, one transform of
    the stacked values, as the command-line front-end passes them to
    ``model.fit``."""
    return clr_rows(np.stack([f.values for f in densities]), densities[0].measure)


def random_clr_direction(measure, rng):
    """Random zero-integral direction for the given measure."""
    v = rng.normal(size=measure.size)
    w = measure.weights
    return v - (v @ w) / w.sum()
