"""Residual-driven simulation and evaluation metrics.

Principal component analysis of clr residuals under the measure-weighted
inner product yields eigenfunctions and score variances; truncated expansions
with fresh normal scores generate realistic noise around given mean
densities. Estimation quality is summarized by the relative mean squared
error, and repeated fits by per-effect selection counts.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bayes import ClrElement, DensityElement, clr, clr_inv, perturb
from .measure import ReferenceMeasure

__all__ = [
    "FpcaResult",
    "fpca",
    "simulate_responses",
    "rel_mse",
    "selection_table",
]


@dataclass
class FpcaResult:
    """Eigenstructure of the empirical residual covariance.

    Eigenfunctions are orthonormal for the measure-weighted inner product;
    scores are those of the centered residuals, so their per-component mean
    is zero. The residual mean is kept so that reconstruction from stored
    scores reproduces the inputs exactly.
    """

    measure: ReferenceMeasure
    mean: np.ndarray            # (P,) mean clr residual
    eigenvalues: np.ndarray     # (M,) descending, >= 0
    eigenfunctions: np.ndarray  # (M, P), rows orthonormal under the measure
    scores: np.ndarray          # (N, M)

    @property
    def truncation(self) -> int:
        return self.eigenvalues.size


def fpca(residuals: list[ClrElement], truncation: int | None = None) -> FpcaResult:
    """Principal components of clr residuals.

    Parameters
    ----------
    residuals : list of clr elements on one measure
    truncation : number of components to keep, at most min(N, P) - 1 by
        default (the empirical covariance of N centered curves has rank
        at most N - 1).
    """
    if not residuals:
        raise ValueError("no residuals given")
    measure = residuals[0].measure
    rows = np.stack([r.values for r in residuals])
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
    scores = (centered * w) @ funcs.T
    return FpcaResult(measure, mean, eigvals, funcs, scores)


def simulate_responses(
    means: list[DensityElement],
    fpca_result: FpcaResult,
    seed: int | None = None,
    scores: np.ndarray | None = None,
    noise_scale: float = 1.0,
) -> list[DensityElement]:
    """Means perturbed by truncated expansions of the residual structure.

    With ``scores`` given, reconstructs deterministically (the stored scores
    reproduce the original responses); otherwise draws independent normal
    scores with the component variances, scaled by ``noise_scale``.
    """
    n = len(means)
    m = fpca_result.truncation
    if scores is None:
        rng = np.random.default_rng(seed)
        sd = noise_scale * np.sqrt(fpca_result.eigenvalues)
        scores = rng.normal(size=(n, m)) * sd
    else:
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (n, m):
            raise ValueError("scores must have shape (n_means, truncation)")
    noise_rows = fpca_result.mean + scores @ fpca_result.eigenfunctions
    out = []
    for mean_density, row in zip(means, noise_rows):
        eps = clr_inv(ClrElement(fpca_result.measure, row))
        out.append(perturb(mean_density, eps))
    return out


def rel_mse(truths: list[DensityElement], estimates: list[DensityElement]) -> float:
    """Relative mean squared error of estimates against true densities.

    Sum of squared distances divided by the sum of squared norms of the
    truths; evaluation points enter with equal weight. Raises when the
    truths are identically neutral, since the ratio is then undefined and
    the error would be reported as infinitely large.
    """
    if len(truths) != len(estimates):
        raise ValueError("truths and estimates differ in length")
    num = 0.0
    den = 0.0
    for t, e in zip(truths, estimates):
        zt = clr(t).values
        ze = clr(e).values
        w = t.measure.weights
        num += float(((zt - ze) ** 2) @ w)
        den += float((zt**2) @ w)
    if den < 1e-26:
        raise ZeroDivisionError(
            "all true densities are neutral; the relative error is undefined "
            "(small true effects blow up this ratio)"
        )
    return num / den


def selection_table(runs: list[dict]) -> dict:
    """Aggregate per-effect selection over replicated fits.

    Each run maps effect names to {component: selected} dicts as produced by
    the fitted model's selection summary. An effect counts as selected in
    the combined model when either component selected it; it is unselected
    combined only if unselected in both.
    """
    if not runs:
        raise ValueError("no runs given")
    effects = list(runs[0].keys())
    components: list[str] = []
    for comp in runs[0][effects[0]]:
        if comp != "combined":
            components.append(comp)
    table: dict = {}
    for name in effects:
        row = {}
        for comp in components + ["combined"]:
            selected = 0
            for run in runs:
                per = run[name]
                if comp == "combined":
                    hit = per.get("combined", any(per[c] for c in components))
                else:
                    hit = per[comp]
                selected += bool(hit)
            row[comp] = {"selected": selected, "not_selected": len(runs) - selected}
        table[name] = row
    return table
