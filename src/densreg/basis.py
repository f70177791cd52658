"""Basis construction, penalties, and degree-of-freedom calibration.

Covers both directions of an effect: bases over the covariates (B-splines,
linear, indicators) and bases over the density support, which are constrained
to zero measure-integral through a QR nullspace transform so that fitted
surfaces stay inside the transformed density space. :func:`density_basis` is
the one place that picks the density basis of a component measure: B-splines
on the Lebesgue part, indicators on the atoms. Penalties are difference or
ridge matrices, combined across directions as Kronecker sums by
:meth:`EffectDesign.penalty`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measure import ReferenceMeasure

__all__ = [
    "bspline_knots",
    "bspline_eval",
    "difference_penalty",
    "sum_to_zero_transform",
    "DensityBasis",
    "raw_density_basis",
    "density_basis",
    "EffectDesign",
    "calibrate_df",
    "effective_df",
]


def bspline_knots(lo: float, hi: float, n_interior: int, degree: int) -> np.ndarray:
    """Clamped knot vector with uniform interior knots on [lo, hi]."""
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("knot span must be finite")
    if not hi > lo:
        raise ValueError("knot span must satisfy lo < hi")
    if n_interior < 0:
        raise ValueError("number of interior knots must be nonnegative")
    interior = np.linspace(lo, hi, n_interior + 2)[1:-1]
    return np.concatenate([[lo] * (degree + 1), interior, [hi] * (degree + 1)])


def bspline_eval(knots: np.ndarray, degree: int, points) -> np.ndarray:
    """Evaluate the B-spline basis at the given points.

    Parameters
    ----------
    knots : ndarray
        Full (clamped) knot vector, strictly increasing on the interior.
    degree : int
        Spline degree (0 gives cell indicators, 3 cubic).
    points : array_like
        Evaluation points inside the knot span.

    Returns
    -------
    ndarray of shape (len(points), n_basis) whose rows sum to one.
    """
    knots = np.asarray(knots, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if not (np.isfinite(knots).all() and np.isfinite(points).all()):
        raise ValueError("knots and evaluation points must be finite")
    if knots.size < 2 * degree + 2 or np.any(np.diff(knots) < 0):
        raise ValueError(f"knots must be nondecreasing, at least {2 * degree + 2} of them")
    lo, hi = knots[degree], knots[-degree - 1]
    if np.any(points < lo) or np.any(points > hi):
        raise ValueError("evaluation points must lie within the knot span")
    interior = knots[degree + 1 : -degree - 1]
    if interior.size and np.any(np.diff(interior) <= 0):
        raise ValueError("interior knots must be strictly increasing")
    # Cox-de Boor recursion (de Boor 1978), all points at once: on the span
    # knots[i] <= x < knots[i+1] the degree+1 nonzero values are built up one
    # degree at a time; the right end of the span falls in the last interval
    n_basis = knots.size - degree - 1
    span = np.clip(np.searchsorted(knots, points, side="right") - 1, degree, n_basis - 1)
    h = np.zeros((points.size, degree + 1))
    h[:, 0] = 1.0
    for j in range(1, degree + 1):
        prev = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            right, left = knots[span + n], knots[span + n - j]
            w = prev[:, n - 1] / (right - left)
            h[:, n - 1] += w * (right - points)
            h[:, n] = w * (points - left)
    out = np.zeros((points.size, n_basis))
    out[np.arange(points.size)[:, None], span[:, None] + np.arange(-degree, 1)] = h
    return out


def difference_penalty(size: int, order: int) -> np.ndarray:
    """Penalty matrix D_r' D_r for r-th order coefficient differences."""
    if order < 0:
        raise ValueError("difference order must be nonnegative")
    if order == 0:
        return np.eye(size)
    if size <= order:
        raise ValueError("difference order must be smaller than the dimension")
    d = np.diff(np.eye(size), n=order, axis=0)
    return d.T @ d


def sum_to_zero_transform(
    raw_basis: np.ndarray, m: ReferenceMeasure
) -> tuple[np.ndarray, np.ndarray]:
    """Constrain basis columns to zero measure-integral.

    The row vector of column integrals C is removed via the QR decomposition
    of C': the trailing columns of the orthogonal factor span its nullspace.

    Returns
    -------
    Z : ndarray, (K+1) x K
        Transform with orthonormal columns satisfying C @ Z = 0.
    constrained : ndarray
        ``raw_basis @ Z``, every column integrating to zero.
    """
    raw_basis = np.asarray(raw_basis, dtype=float)
    if raw_basis.shape[0] != m.size:
        raise ValueError("basis rows must align with the measure layout")
    c = m.weights @ raw_basis
    if np.max(np.abs(c)) == 0.0:
        raise ValueError("degenerate basis: all columns integrate to zero already")
    q, _ = np.linalg.qr(c[:, None], mode="complete")
    z = q[:, 1:]
    return z, raw_basis @ z


@dataclass(frozen=True)
class DensityBasis:
    """Zero-integral basis over the density support of one model component."""

    measure: ReferenceMeasure
    clr_matrix: np.ndarray      # (size, K_Y), columns integrate to zero
    penalty: np.ndarray | None  # (K_Y, K_Y) transformed roughness penalty
    transform: np.ndarray       # (K_Y+1 or more, K_Y) constraint transform

    @property
    def kind(self) -> str:
        return "bspline" if self.measure.n_grid else "indicator"

    @property
    def n_basis(self) -> int:
        return self.clr_matrix.shape[1]


def raw_density_basis(m: ReferenceMeasure, n_interior: int, degree: int) -> np.ndarray:
    """Unconstrained basis: B-splines on the grid when the measure has one,
    otherwise one indicator per atom."""
    if m.n_grid:
        a, b = m.interval
        return bspline_eval(bspline_knots(a, b, n_interior, degree), degree, m.grid)
    return np.eye(m.n_atoms)


def density_basis(
    m: ReferenceMeasure, n_interior: int, degree: int, penalty_order: int
) -> DensityBasis:
    """Constrained basis over one component measure: B-splines with
    ``penalty_order`` differences on a measure with a grid, else indicators
    with first differences (none for a single atom)."""
    if m.is_mixed:
        raise ValueError("use the component measures for mixed measures")
    raw = raw_density_basis(m, n_interior, degree)
    order = penalty_order if m.n_grid else min(1, m.n_atoms - 1)
    z, constrained = sum_to_zero_transform(raw, m)
    return DensityBasis(m, constrained, z.T @ difference_penalty(raw.shape[1], order) @ z, z)


@dataclass(frozen=True)
class EffectDesign:
    """One partial effect ready for boosting.

    Holds the constrained covariate design, the shared density basis, and
    the per-direction penalties and smoothing parameters. Over the stacked
    coefficients (design column outer, density basis function inner) the
    penalty is lambda_cov (P_cov x I) + lambda_density (I x P_density).
    """

    name: str
    X: np.ndarray                  # (N, K_j) constrained covariate design
    cov_penalty: np.ndarray        # (K_j, K_j)
    density_basis: DensityBasis
    lambda_cov: float
    lambda_density: float

    def __post_init__(self):
        if self.cov_penalty.shape != (self.n_cov,) * 2:
            raise ValueError("covariate penalty must match the design columns")

    @property
    def n_cov(self) -> int:
        return self.X.shape[1]


def effective_df(gram: np.ndarray, penalty: np.ndarray, lam: float) -> float:
    """trace((M + lam P)^-1 M) for the penalized least-squares smoother."""
    k = gram.shape[0]
    system = gram + lam * penalty + 1e-12 * np.eye(k)
    return float(np.trace(np.linalg.solve(system, gram)))


# calibrate_df: accepted distance to the target df, log10 bracket of the
# smoothing parameter, and bisection steps
_DF_TOL = 1e-4
_LOG10_BRACKET = (-8.0, 12.0)
_MAX_BISECTIONS = 100


def calibrate_df(design: np.ndarray, penalty: np.ndarray, target_df: float) -> tuple[float, float]:
    """The smoothing parameter giving the requested degrees of freedom, and
    the degrees of freedom it gives.

    The degrees of freedom trace((M + lam P)^-1 M), M = design' design, are
    strictly decreasing in lam, so a bisection on log10(lam) converges. The
    target is capped to the range the bracket attains: at or above the df of
    the smallest lam it gives lam 0 and that df. A zero penalty gives lam 0
    and the column rank.
    """
    if np.abs(penalty).max() < 1e-14:
        return 0.0, float(np.linalg.matrix_rank(design))
    gram = design.T @ design
    a, b = _LOG10_BRACKET
    df_max = effective_df(gram, penalty, 10.0 ** a)   # df at nearly no penalty
    df_min = effective_df(gram, penalty, 10.0 ** b)   # df with the penalty dominating
    target = float(np.clip(target_df, df_min + 1e-9, df_max))
    if target >= df_max - 1e-9:
        return 0.0, df_max
    for _ in range(_MAX_BISECTIONS):
        mid = 0.5 * (a + b)
        df_mid = effective_df(gram, penalty, 10.0 ** mid)
        if abs(df_mid - target) < _DF_TOL:
            return 10.0 ** mid, df_mid
        if df_mid > target:
            a = mid
        else:
            b = mid
    lam = 10.0 ** (0.5 * (a + b))
    return lam, effective_df(gram, penalty, lam)
