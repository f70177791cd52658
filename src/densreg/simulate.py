"""Residual-driven simulation and evaluation metrics.

Principal component analysis of clr residuals under the measure-weighted
inner product yields eigenfunctions and score variances; truncated expansions
with fresh normal scores generate realistic noise around given mean
densities. Estimation quality is summarized by the relative mean squared
error, and repeated fits by per-effect selection counts.

Densities enter and leave as N x P clr rows on one measure: :func:`fpca`
takes the residual rows, :func:`simulate_responses` returns the simulated
rows, and :func:`rel_mse` compares two row arrays.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .measure import ReferenceMeasure

__all__ = [
    "FpcaResult",
    "fpca",
    "simulate_responses",
    "rel_mse",
    "selection_counts",
]


class FpcaResult(NamedTuple):
    """Eigenstructure of the empirical residual covariance.

    Eigenfunctions are orthonormal for the measure-weighted inner product.
    The residual mean is kept, so the scores of the centered residuals on the
    eigenfunctions rebuild the inputs exactly.
    """

    mean: np.ndarray            # (P,) mean clr residual
    eigenvalues: np.ndarray     # (M,) descending, >= 0
    eigenfunctions: np.ndarray  # (M, P), rows orthonormal under the measure


def fpca(rows: np.ndarray, measure: ReferenceMeasure, truncation: int | None) -> FpcaResult:
    """Principal components of clr residuals.

    Parameters
    ----------
    rows : N x P clr residuals on ``measure``
    truncation : number of components to keep, or None for min(N, P) - 1
        (the empirical covariance of N centered curves has rank at most
        N - 1).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != measure.size:
        raise ValueError(f"residuals have shape {rows.shape}, expected (N, {measure.size})")
    if not rows.shape[0]:
        raise ValueError("no residuals given")
    n, p = rows.shape
    cap = min(n, p)
    if truncation is None:
        truncation = max(1, min(n, p) - 1)
    if truncation < 1:
        raise ValueError(f"truncation must be at least 1, got {truncation}")
    if truncation > cap:
        raise ValueError(
            f"truncation {truncation} exceeds the rank bound {cap}"
        )
    mean = rows.mean(axis=0)
    centered = rows - mean
    w = measure.weights
    sqrt_w = np.sqrt(w)
    # weighted Gram construction: eigenvectors of the symmetrized covariance
    # correspond to measure-orthonormal eigenfunctions
    sym = (centered * sqrt_w).T @ (centered * sqrt_w) / n
    eigvals, eigvecs = np.linalg.eigh(sym)
    order = np.argsort(eigvals)[::-1][:truncation]
    eigvals = np.maximum(eigvals[order], 0.0)
    # components at numerical rank zero carry arbitrary directions; zero them
    # out so simulated noise stays inside the zero-integral subspace
    eigvals[eigvals < 1e-12 * max(eigvals[0], 1e-300)] = 0.0
    funcs = (eigvecs[:, order] / sqrt_w[:, None]).T
    funcs = funcs - ((funcs @ w) / w.sum())[:, None]
    return FpcaResult(mean, eigvals, funcs)


def simulate_responses(
    mean_clr: np.ndarray,
    fpca_result: FpcaResult,
    seed: int | np.random.SeedSequence | None,
    noise_scale: float,
) -> np.ndarray:
    """Mean clr rows plus truncated expansions of the residual structure.

    Adding a noise row in clr perturbs the mean density by its inverse clr,
    since every noise row integrates to zero. The scores are independent
    normal draws with the component variances, scaled by ``noise_scale``,
    from ``np.random.default_rng(seed)``.
    """
    mean_clr = np.asarray(mean_clr, dtype=float)
    rng = np.random.default_rng(seed)
    sd = noise_scale * np.sqrt(fpca_result.eigenvalues)
    scores = rng.normal(size=(mean_clr.shape[0], sd.size)) * sd
    return mean_clr + (fpca_result.mean + scores @ fpca_result.eigenfunctions)


def rel_mse(true_clr: np.ndarray, est_clr: np.ndarray, measure: ReferenceMeasure) -> float:
    """Relative mean squared error of estimated against true clr rows.

    Sum of squared distances divided by the sum of squared norms of the
    truths, each evaluation point weighted by its ``measure.weights`` entry
    (the measure-weighted clr norm). Raises when the
    truths are identically neutral, since the ratio is then undefined and
    the error would be reported as infinitely large.
    """
    true_clr = np.asarray(true_clr, dtype=float)
    est_clr = np.asarray(est_clr, dtype=float)
    if true_clr.shape != est_clr.shape:
        raise ValueError("truths and estimates differ in length")
    den = float(((true_clr ** 2) @ measure.weights).sum())
    if den < 1e-26:
        raise ZeroDivisionError(
            "all true densities are neutral; the relative error is undefined "
            "(small true effects blow up this ratio)"
        )
    return float((((true_clr - est_clr) ** 2) @ measure.weights).sum()) / den


def selection_counts(term_names: list, paths: list[dict]) -> list[list]:
    """Rows [term, component, selected, not selected] of per-term selection
    counts over replicated fits, in term order, then the components, then
    "combined". Each entry of ``paths`` maps the components of one fit to
    their selection paths (the term index chosen at each iteration)."""
    if not paths:
        raise ValueError("no runs given")
    rows = []
    for j, name in enumerate(term_names):
        hits = [{comp for comp, path in fit.items() if j in path} for fit in paths]
        for comp in [*paths[0], "combined"]:
            k = sum(bool(h) if comp == "combined" else comp in h for h in hits)
            rows.append([name, comp, k, len(paths) - k])
    return rows
