"""Component-wise L2 gradient boosting for density responses.

The model is linear in clr coordinates, where every base-learner is a
penalized least-squares fit of the clr residuals. All base-learners of one
component share its density basis B (P x K_Y), and the measure-weighted
inner product meets the residual Y - F only through its projection onto that
basis, R = (Y - F) W B (N x K_Y instead of N x P). One kernel,
:func:`_boost_paths`, runs the loop on R for F resamples in lockstep, in the
array arithmetic of row-tensor designs (Currie, Durbán & Eilers 2006) that
FDboost uses for functional linear array models (Brockhaus, Scheipl, Hothorn
& Greven 2015). A resample weights the N densities by counts n: all ones for
the in-bag fit, 0/1 for a cross-validation fold, draw multiplicities for a
bootstrap replicate; its held-out rows are a 0/1 mask.

* learner j's smoother G_j^-1, with G_j = kron(X_j' diag(n) X_j, C) +
  penalty_j and C = B'WB, is one (F, d_j, d_j) stack, about 0.34 MB per
  resample for the paper's model;
* each iteration forms rhs = X' diag(n) 2R with one product and
  gamma_j = G_j^-1 rhs_j with one batched solve per learner; up to a constant,
  learner j's weighted residual sum of squares is gamma_j * (Q_j gamma_j -
  2 rhs_j) with Q_j = kron(X_j' diag(n) X_j, C), and one argmin per resample
  picks its learner;
* a block mask applies each resample's pick to its residual, in-bag risk and
  held-out risk in closed form; fitted N x P surfaces are built once, at the end.

In-bag fits (:func:`boost_from_clr`) are the one-resample case; resampled
stopping (:func:`early_stop_from_clr`) makes one call for all folds or
replicates. Norms everywhere are measure-weighted, which is where discrete,
continuous, and mixed supports differ.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .basis import EffectDesign
from .bayes import (
    DensityElement,
    clr,
    decompose_clr_rows,
    embed_clr_continuous_rows,
    embed_clr_discrete_rows,
)
from .measure import ReferenceMeasure

__all__ = [
    "BoostConfig",
    "FitState",
    "MixedFit",
    "EarlyStopResult",
    "boost",
    "boost_from_clr",
    "early_stop",
    "early_stop_from_clr",
    "boost_mixed",
]

_RISK_SLACK = 1e-9


@dataclass(frozen=True)
class BoostConfig:
    """Settings for one boosting run.

    ``stopping`` selects how the number of iterations is chosen: "fixed" uses
    ``m_stop`` (default ``max_iterations``), "cv" k-fold cross-validation,
    "bootstrap" out-of-bag risk over resampled density sets.

    ``threads`` and ``target_df`` are accepted but not read by the library;
    they remain because the benchmark tracer (``perfbench/trace.py``) still
    sets them.
    """

    step_length: float = 0.1
    max_iterations: int = 250
    stopping: str = "fixed"
    m_stop: int | None = None
    folds: int = 10
    replicates: int = 25
    target_df: float | dict | None = 2.0
    seed: int = 0
    threads: int = 1
    track_increments: bool = False

    def __post_init__(self):
        if not 0.0 < self.step_length < 1.0:
            raise ValueError("step length must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stopping not in ("fixed", "cv", "bootstrap"):
            raise ValueError(f"unknown stopping method {self.stopping!r}")
        if self.m_stop is not None and self.m_stop < 0:
            raise ValueError("m_stop must be nonnegative")


@dataclass
class FitState:
    """Result of one boosting run in a single component space."""

    measure: ReferenceMeasure
    offset_clr: np.ndarray            # (P,)
    coefficients: list                # theta_j, each (K_j * K_Y,)
    fitted_clr: np.ndarray | None     # (N, P) final fitted surfaces incl. offset
    selections: list                  # chosen effect index per iteration
    risk_path: np.ndarray             # in-bag SSE, index m = 0 .. m_stop
    m_stop: int
    increments: list | None = None    # (j, gamma) per iteration when tracked
    stop_curve: np.ndarray | None = None  # resampled out-of-sample risk per m

    @property
    def selected_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.coefficients), dtype=bool)
        for j in self.selections:
            mask[j] = True
        return mask

    def to_dict(self) -> dict:
        """Model-file fields; the training surfaces and increments are not kept."""
        return {
            "offset": self.offset_clr.tolist(),
            "coefficients": [c.tolist() for c in self.coefficients],
            "selections": list(map(int, self.selections)),
            "risk_path": self.risk_path.tolist(),
            "m_stop": int(self.m_stop),
            "stop_curve": None if self.stop_curve is None else self.stop_curve.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict, measure: ReferenceMeasure) -> "FitState":
        """A fit read from a model file, without training surfaces."""
        offset = np.asarray(d["offset"], dtype=float)
        if offset.shape != (measure.size,):
            raise ValueError(f"offset has shape {offset.shape}, expected ({measure.size},)")
        coefficients = [np.asarray(c, dtype=float) for c in d["coefficients"]]
        if not all(np.isfinite(v).all() for v in [offset, *coefficients]):
            raise ValueError("offset and coefficients must be finite")
        curve = None if d["stop_curve"] is None else np.asarray(d["stop_curve"], dtype=float)
        return cls(
            measure, offset, coefficients, None,
            list(map(int, d["selections"])), np.asarray(d["risk_path"], dtype=float),
            int(d["m_stop"]), stop_curve=curve,
        )


@dataclass
class MixedFit:
    """Separate continuous and discrete fits plus the recombined surfaces."""

    continuous: FitState
    discrete: FitState
    measure: ReferenceMeasure
    fitted_clr: np.ndarray | None     # (N, P) on the mixed measure

    @property
    def m_stop(self) -> tuple[int, int]:
        return (self.continuous.m_stop, self.discrete.m_stop)


@dataclass
class EarlyStopResult:
    m_stop: int
    risk_curve: np.ndarray            # mean out-of-sample risk, index 0 .. M
    method: str


def _penalized_inverse(gram: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverse of one penalized normal matrix, and whether it needed ridge
    jitter (degenerate designs, e.g. empty categories in small folds)."""
    eye = np.eye(gram.shape[0])
    try:
        lower = np.linalg.cholesky(gram)
        jittered = False
    except np.linalg.LinAlgError:
        lower = np.linalg.cholesky(gram + 1e-10 * eye)
        jittered = True
    inv_lower = np.linalg.solve(lower, eye)
    return inv_lower.T @ inv_lower, jittered


def _boost_paths(
    y_clr: np.ndarray,
    weights: np.ndarray,
    designs: list[EffectDesign],
    kappa: float,
    n_iter: int,
    counts: np.ndarray,
    test: np.ndarray | None = None,
    track: bool = False,
):
    """The boosting loop in density-basis coordinates, for F resamples at once.

    ``counts`` (F x N integers) gives each resample's training rows as
    multiplicities over all N rows; ``test`` (F x N booleans), when given,
    marks the held-out rows whose risk is tracked alongside. ``track`` keeps
    every unscaled increment of resample 0.

    Returns the offsets (F, P), coefficients (F, sum K_j, K_Y), selections
    (F, n_iter), in-bag risks (F, n_iter + 1), held-out risk sums
    (F, n_iter + 1, or None) and the increments. Raises FloatingPointError
    when the in-bag risk of any resample increases.
    """
    basis = designs[0].density_basis.clr_matrix
    weighted_basis = basis * weights[:, None]
    c = basis.T @ weighted_basis
    k_y = basis.shape[1]
    sizes = [d.n_cov for d in designs]
    ends = np.cumsum(sizes)
    blocks = list(zip(ends - sizes, ends))
    n_resamples, n = counts.shape
    x = np.hstack([d.X for d in designs])

    offsets = np.empty((n_resamples, y_clr.shape[1]))
    resid = np.empty((n_resamples, n, k_y))
    risk = np.empty((n_resamples, n_iter + 1))
    heldout = None if test is None else np.empty((n_resamples, n_iter + 1))
    grams = [np.empty((n_resamples, b - a, b - a)) for a, b in blocks]
    smoothers = [np.empty((n_resamples, (b - a) * k_y, (b - a) * k_y)) for a, b in blocks]
    penalties = [d.penalty() for d in designs]
    jittered = False
    for f in range(n_resamples):
        rows = np.repeat(np.arange(n), counts[f])
        x_in = x[rows]
        offsets[f] = y_clr[rows].mean(axis=0)
        e = y_clr - offsets[f]
        resid[f] = e @ weighted_basis
        risk[f, 0] = float(((e[rows] ** 2) * weights).sum())
        if test is not None:
            heldout[f, 0] = float(((e[test[f]] ** 2) * weights).sum())
        for j, (a, b) in enumerate(blocks):
            grams[j][f] = x_in[:, a:b].T @ x_in[:, a:b]
            smoothers[j][f], jit = _penalized_inverse(np.kron(grams[j][f], c) + penalties[j])
            jittered |= jit
    if jittered:
        warnings.warn(
            "singular base-learner system, adding ridge jitter", RuntimeWarning,
            stacklevel=3,
        )

    # 2 x counts weights the in-bag rows of the gradient; the mask picks the
    # selected learner's block of every resample
    twice_counts = 2.0 * counts[:, :, None]
    test_weight = None if test is None else test.astype(float)
    block_mask = np.zeros((len(designs), x.shape[1], 1))
    for j, (a, b) in enumerate(blocks):
        block_mask[j, a:b] = 1.0
    every = np.arange(n_resamples)
    coefficients = np.zeros((n_resamples, x.shape[1], k_y))
    gamma = np.empty_like(coefficients)
    fit_part = np.empty((n_resamples, len(designs)))
    size_part = np.empty_like(fit_part)
    selections = np.empty((n_resamples, n_iter), dtype=int)
    increments = [] if track else None
    for m in range(1, n_iter + 1):
        rhs = x.T @ (resid * twice_counts)
        for j, (a, b) in enumerate(blocks):
            r = rhs[:, a:b].reshape(n_resamples, -1)
            g = (smoothers[j] @ r[:, :, None]).reshape(n_resamples, b - a, k_y)
            fit_part[:, j] = (g.reshape(n_resamples, -1) * r).sum(axis=1)
            size_part[:, j] = (g * (grams[j] @ g @ c)).sum(axis=(1, 2))
            gamma[:, a:b] = g
        sel = np.argmin(size_part - 2.0 * fit_part, axis=1)
        selections[:, m - 1] = sel
        step = gamma * block_mask[sel]
        coefficients += kappa * step
        if track:
            a, b = blocks[sel[0]]
            increments.append((int(sel[0]), gamma[0, a:b].ravel().copy()))
        risk[:, m] = (
            risk[:, m - 1] - kappa * fit_part[every, sel] + kappa ** 2 * size_part[every, sel]
        )
        h = x @ step
        hc = h @ c
        if test is not None:
            heldout[:, m] = (
                heldout[:, m - 1]
                - 2.0 * kappa * np.einsum("fnk,fnk,fn->f", h, resid, test_weight)
                + kappa ** 2 * np.einsum("fnk,fnk,fn->f", h, hc, test_weight)
            )
        resid -= kappa * hc

    rises = np.diff(risk, axis=1) > _RISK_SLACK * np.maximum(1.0, risk[:, :1])
    if rises.any():
        raise FloatingPointError(
            "in-bag risk increased during boosting at iteration "
            f"{np.flatnonzero(rises.any(axis=0))[0] + 1}"
        )
    return offsets, coefficients, selections, risk, heldout, increments


def _check_inputs(y_clr, measure: ReferenceMeasure, designs: list[EffectDesign]) -> None:
    if not designs:
        raise ValueError("no effects given")
    n = y_clr.shape[0]
    if any(d.X.shape[0] != n for d in designs):
        raise ValueError("design rows must match the number of responses")
    if y_clr.shape[1] != measure.size:
        raise ValueError("response columns must match the measure layout")
    basis = designs[0].density_basis.clr_matrix
    if any(not np.array_equal(d.density_basis.clr_matrix, basis) for d in designs):
        raise ValueError("all effects must share one density basis")


def boost_from_clr(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
    m_stop: int | None = None,
) -> FitState:
    """Run the boosting loop on a matrix of clr-transformed responses."""
    y_clr = np.asarray(y_clr, dtype=float)
    _check_inputs(y_clr, measure, designs)
    m_stop = config.max_iterations if m_stop is None else m_stop
    offsets, coefficients, selections, risk, _, increments = _boost_paths(
        y_clr, measure.weights, designs, config.step_length, m_stop,
        np.ones((1, y_clr.shape[0]), dtype=int), track=config.track_increments,
    )
    ends = np.cumsum([d.n_cov for d in designs])
    x = np.hstack([d.X for d in designs])
    fitted = offsets[0] + x @ coefficients[0] @ designs[0].density_basis.clr_matrix.T
    return FitState(
        measure=measure,
        offset_clr=offsets[0],
        coefficients=[c.ravel() for c in np.split(coefficients[0], ends[:-1])],
        fitted_clr=fitted,
        selections=selections[0].tolist(),
        risk_path=risk[0],
        m_stop=m_stop,
        increments=increments,
    )


def _common_measure(responses: list[DensityElement]) -> ReferenceMeasure:
    if not responses:
        raise ValueError("no responses given")
    measure = responses[0].measure
    for f in responses[1:]:
        if f.measure is not measure and not f.measure.same_support(measure):
            raise ValueError("responses live on different reference measures")
    return measure


def _stop_then_fit(y_clr, measure, designs, config: BoostConfig) -> FitState:
    """Resolve the stopping iteration, then fit on all responses."""
    if config.stopping == "fixed":
        m_stop = config.m_stop if config.m_stop is not None else config.max_iterations
        if m_stop > config.max_iterations:
            raise ValueError("m_stop exceeds max_iterations")
        curve = None
    else:
        stop = early_stop_from_clr(y_clr, measure, designs, config)
        m_stop, curve = stop.m_stop, stop.risk_curve
    state = boost_from_clr(y_clr, measure, designs, config, m_stop=m_stop)
    state.stop_curve = curve
    return state


def boost(
    responses: list[DensityElement],
    designs: list[EffectDesign],
    config: BoostConfig,
) -> FitState:
    """Fit the additive model to density responses sharing one measure.

    Resolves the stopping iteration first (resampling methods run the loop on
    every fold or replicate at once), then fits on the full data.
    """
    measure = _common_measure(responses)
    y_clr = np.stack([clr(f).values for f in responses])
    return _stop_then_fit(y_clr, measure, designs, config)


def early_stop_from_clr(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
) -> EarlyStopResult:
    """Pick the stopping iteration by resampling the responses.

    Cross-validation splits the densities into folds; bootstrapping draws
    them with replacement and scores on the out-of-bag densities. Each
    resample's per-density risk curve is averaged first within, then across
    resamples, and the minimizer over m = 1 .. max_iterations is returned.
    """
    y_clr = np.asarray(y_clr, dtype=float)
    _check_inputs(y_clr, measure, designs)
    n = y_clr.shape[0]
    rng = np.random.default_rng(config.seed)
    if config.stopping == "cv":
        k = min(config.folds, n)
        if k < 2:
            raise ValueError("cross-validation needs at least two folds")
        test = np.zeros((k, n), dtype=bool)
        for i, rows in enumerate(np.array_split(rng.permutation(n), k)):
            test[i, rows] = True
        counts = (~test).astype(int)
    elif config.stopping == "bootstrap":
        counts = np.ones((config.replicates, n), dtype=int)
        for row in counts:
            while row.all():  # redraw until some density is out of bag
                row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        test = counts == 0
    else:
        raise ValueError(f"no resampling for stopping method {config.stopping!r}")

    *_, heldout, _ = _boost_paths(
        y_clr, measure.weights, designs, config.step_length, config.max_iterations,
        counts, test,
    )
    mean_curve = np.mean(heldout / test.sum(axis=1)[:, None], axis=0)
    m_stop = int(np.argmin(mean_curve[1:]) + 1)
    return EarlyStopResult(m_stop, mean_curve, config.stopping)


def early_stop(
    responses: list[DensityElement],
    designs: list[EffectDesign],
    config: BoostConfig,
) -> EarlyStopResult:
    measure = _common_measure(responses)
    y_clr = np.stack([clr(f).values for f in responses])
    return early_stop_from_clr(y_clr, measure, designs, config)


def boost_mixed(
    responses: list[DensityElement],
    designs_continuous: list[EffectDesign],
    designs_discrete: list[EffectDesign],
    config: BoostConfig,
) -> MixedFit:
    """Fit a mixed-measure model as two independent component fits.

    Every response splits orthogonally into a continuous and a discrete
    component; each component is boosted on its own measure with its own
    stopping iteration (the discrete one resamples with seed + 1), and
    predictions recombine through the embeddings.
    """
    measure = _common_measure(responses)
    if not measure.is_mixed:
        raise ValueError("boost_mixed requires a mixed reference measure")
    y_c, y_d = decompose_clr_rows(np.stack([clr(f).values for f in responses]), measure)
    fit_c = _stop_then_fit(
        y_c, designs_continuous[0].density_basis.measure, designs_continuous, config
    )
    fit_d = _stop_then_fit(
        y_d, designs_discrete[0].density_basis.measure, designs_discrete,
        replace(config, seed=config.seed + 1),
    )
    combined = embed_clr_continuous_rows(fit_c.fitted_clr, measure) + embed_clr_discrete_rows(
        fit_d.fitted_clr, measure
    )
    return MixedFit(fit_c, fit_d, measure, combined)
