"""Basis construction, penalties, and degree-of-freedom calibration.

Covers both directions of an effect: bases over the covariates (B-splines,
linear, indicators) and bases over the density support, which are constrained
to zero measure-integral through a QR nullspace transform so that fitted
surfaces stay inside the transformed density space. Penalties are difference
or ridge matrices, combined across directions as Kronecker sums.
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
    "bspline_density_basis",
    "indicator_density_basis",
    "mixed_concatenated_basis",
    "EffectDesign",
    "assemble_effect",
    "kron_penalty",
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
    kind: str

    @property
    def n_basis(self) -> int:
        return self.clr_matrix.shape[1]

    def to_dict(self) -> dict:
        """Model-file fields: kind, constraint transform, and measure."""
        return {
            "kind": self.kind,
            "transform": self.transform.tolist(),
            "measure": self.measure.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict, n_interior: int, degree: int) -> "DensityBasis":
        """Rebuild a basis around its stored constraint transform. Only
        fitting uses the roughness penalty, so it is not rebuilt (None)."""
        m = ReferenceMeasure.from_dict(d["measure"])
        if d["kind"] == "bspline":
            a, b = m.interval
            raw = bspline_eval(bspline_knots(a, b, n_interior, degree), degree, m.grid)
        elif d["kind"] == "indicator":
            raw = np.eye(m.n_atoms)
        else:
            raise ValueError(f"unknown density basis kind {d['kind']!r}")
        z = np.asarray(d["transform"], dtype=float)
        if not np.isfinite(z).all():
            raise ValueError("density basis transform must be finite")
        return cls(m, raw @ z, None, z, d["kind"])


def bspline_density_basis(
    m: ReferenceMeasure, n_interior: int = 10, degree: int = 3, penalty_order: int = 2
) -> DensityBasis:
    """Constrained B-spline basis over the continuous support."""
    if m.n_grid == 0:
        raise ValueError("measure has no continuous part")
    if m.n_atoms > 0:
        raise ValueError("use the component measures or the concatenated basis for mixed measures")
    a, b = m.interval
    knots = bspline_knots(a, b, n_interior, degree)
    raw = bspline_eval(knots, degree, m.grid)
    pen_raw = difference_penalty(raw.shape[1], penalty_order)
    z, constrained = sum_to_zero_transform(raw, m)
    return DensityBasis(m, constrained, z.T @ pen_raw @ z, z, "bspline")


def indicator_density_basis(m: ReferenceMeasure, penalty_order: int = 1) -> DensityBasis:
    """Constrained indicator basis over a purely discrete measure."""
    if m.n_grid > 0 or m.n_atoms == 0:
        raise ValueError("indicator basis requires a purely discrete measure")
    raw = np.eye(m.n_atoms)
    pen_raw = difference_penalty(m.n_atoms, min(penalty_order, m.n_atoms - 1))
    z, constrained = sum_to_zero_transform(raw, m)
    return DensityBasis(m, constrained, z.T @ pen_raw @ z, z, "indicator")


def mixed_concatenated_basis(
    m: ReferenceMeasure, n_interior: int = 10, degree: int = 3, penalty_order: int = 2
) -> DensityBasis:
    """Atom indicators concatenated with grid B-splines, constrained jointly.

    A direct basis over a mixed measure, used when fitting without the
    orthogonal two-component split.
    """
    if m.n_atoms == 0 or m.n_grid == 0:
        raise ValueError("concatenated basis requires a mixed measure")
    a, b = m.interval
    knots = bspline_knots(a, b, n_interior, degree)
    spline_part = bspline_eval(knots, degree, m.grid)
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
    return DensityBasis(m, constrained, z.T @ pen_raw @ z, z, "mixed")


@dataclass(frozen=True)
class EffectDesign:
    """One partial effect ready for boosting.

    Holds the constrained covariate design, the shared density basis, the
    per-direction penalties and smoothing parameters, and the constraint
    transform used to rebuild design rows for new covariate values.
    """

    name: str
    X: np.ndarray                  # (N, K_j) constrained covariate design
    cov_penalty: np.ndarray        # (K_j, K_j)
    density_basis: DensityBasis
    lambda_cov: float
    lambda_density: float = 0.0
    isotropic: bool = False

    @property
    def n_cov(self) -> int:
        return self.X.shape[1]

    def penalty(self) -> np.ndarray:
        return kron_penalty(
            self.cov_penalty,
            self.density_basis.penalty,
            self.lambda_cov,
            self.lambda_density,
            self.isotropic,
        )


def kron_penalty(
    p_cov: np.ndarray,
    p_density: np.ndarray,
    lambda_cov: float,
    lambda_density: float,
    isotropic: bool = False,
) -> np.ndarray:
    """Combined penalty over the stacked coefficient vector.

    Anisotropic form: lambda_cov (P_cov x I) + lambda_density (I x P_density).
    Isotropic form scales the plain Kronecker sum by lambda_cov alone.
    """
    k_cov = p_cov.shape[0]
    k_den = p_density.shape[0]
    kron_cov = np.kron(p_cov, np.eye(k_den))
    kron_den = np.kron(np.eye(k_cov), p_density)
    if isotropic:
        return lambda_cov * (kron_cov + kron_den)
    return lambda_cov * kron_cov + lambda_density * kron_den


def assemble_effect(
    name: str,
    cov_design: np.ndarray,
    cov_penalty: np.ndarray,
    density_basis: DensityBasis,
    lambda_cov: float,
    lambda_density: float = 0.0,
    isotropic: bool = False,
) -> EffectDesign:
    """Bundle covariate design, density basis, and penalties into an effect."""
    cov_design = np.asarray(cov_design, dtype=float)
    cov_penalty = np.asarray(cov_penalty, dtype=float)
    if cov_penalty.shape != (cov_design.shape[1],) * 2:
        raise ValueError("covariate penalty must match the design columns")
    return EffectDesign(
        name, cov_design, cov_penalty, density_basis, lambda_cov, lambda_density, isotropic
    )


def effective_df(gram: np.ndarray, penalty: np.ndarray, lam: float) -> float:
    """trace((M + lam P)^-1 M) for the penalized least-squares smoother."""
    k = gram.shape[0]
    system = gram + lam * penalty + 1e-12 * np.eye(k)
    return float(np.trace(np.linalg.solve(system, gram)))


def calibrate_df(
    design: np.ndarray,
    penalty: np.ndarray,
    target_df: float,
    tol: float = 1e-4,
    log10_bracket: tuple[float, float] = (-8.0, 12.0),
    max_iter: int = 100,
) -> float:
    """Solve for the smoothing parameter giving the requested degrees of freedom.

    The degrees of freedom trace((M + lam P)^-1 M), M = design' design, are
    strictly decreasing in lam, so a bisection on log10(lam) converges. The
    target must lie between the penalty-dominated limit and the unpenalized
    column rank.
    """
    design = np.asarray(design, dtype=float)
    penalty = np.asarray(penalty, dtype=float)
    gram = design.T @ design
    lo, hi = (10.0 ** log10_bracket[0]), (10.0 ** log10_bracket[1])
    df_hi = effective_df(gram, penalty, lo)   # df at nearly no penalty
    df_lo = effective_df(gram, penalty, hi)   # df with the penalty dominating
    if not (df_lo - tol <= target_df <= df_hi + tol):
        raise ValueError(
            f"target df {target_df:.4f} outside attainable range "
            f"[{df_lo:.4f}, {df_hi:.4f}]"
        )
    if target_df >= df_hi:
        return lo
    if target_df <= df_lo:
        return hi
    a, b = np.log10(lo), np.log10(hi)
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        df_mid = effective_df(gram, penalty, 10.0 ** mid)
        if abs(df_mid - target_df) < tol:
            return 10.0 ** mid
        if df_mid > target_df:
            a = mid
        else:
            b = mid
    return 10.0 ** (0.5 * (a + b))
