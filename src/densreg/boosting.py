"""Component-wise L2 gradient boosting for density responses.

The model is linear in clr coordinates, where every base-learner is a
penalized least-squares fit of the clr residuals. All base-learners of one
component share its density basis B (P x K_Y), and the measure-weighted
inner product meets the residual Y - F only through its projection onto that
basis, R = (Y - F) W B (N x K_Y instead of N x P). One kernel,
:func:`_boost_path`, runs the loop on R, in the array arithmetic of row-tensor
designs (Currie, Durbán & Eilers 2006) that FDboost uses for functional
linear array models (Brockhaus, Scheipl, Hothorn & Greven 2015):

* the base-learners are stacked into one column block X = [X_1 ... X_J]; for
  its training rows the kernel precomputes the smoother
  S = blockdiag(G_j^-1), with G_j = kron(X_j'X_j, C) + penalty_j and
  C = B'WB, and the Gram blocks X_j'X_j;
* each iteration forms rhs = X' 2R once and gamma = S rhs; up to a constant
  shared by all learners, learner j's weighted residual sum of squares is the
  segment sum of gamma * (Q gamma - 2 rhs) with Q = blockdiag(kron(X_j'X_j, C)),
  so every learner is scored at once;
* the selected learner updates R, the in-bag risk and, for resampled
  stopping, the held-out residual and risk in closed form; the fitted N x P
  surfaces are built once, at the end.

In-bag fits (:func:`boost_from_clr`) and every cross-validation or bootstrap
resample (:func:`early_stop_from_clr`) run this kernel. Norms everywhere are
measure-weighted, which is where discrete, continuous, and mixed supports
differ.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ThreadPoolExecutor
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
        curve = None if d["stop_curve"] is None else np.asarray(d["stop_curve"], dtype=float)
        return cls(
            measure, offset, [np.asarray(c, dtype=float) for c in d["coefficients"]], None,
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


def _block_diag(blocks: list) -> np.ndarray:
    """Square blocks placed along the diagonal of one zero matrix."""
    ends = np.cumsum([len(b) for b in blocks])
    out = np.zeros((ends[-1], ends[-1]))
    for b, end in zip(blocks, ends):
        out[end - len(b):end, end - len(b):end] = b
    return out


def _warn_jitter(jittered: bool) -> None:
    if jittered:
        warnings.warn(
            "singular base-learner system, adding ridge jitter", RuntimeWarning,
            stacklevel=3,
        )


@dataclass
class _Path:
    """What one run of the kernel produced."""

    offset_clr: np.ndarray            # (P,) clr mean of the training rows
    coefficients: np.ndarray          # (sum K_j, K_Y) stacked theta_j
    selections: list                  # chosen effect index per iteration
    increments: list | None           # (j, gamma) per iteration when tracked
    risk: np.ndarray                  # in-bag risk, index 0 .. n_iter
    heldout: np.ndarray | None        # summed held-out risk, index 0 .. n_iter
    jittered: bool


def _boost_path(
    y_clr: np.ndarray,
    weights: np.ndarray,
    designs: list[EffectDesign],
    kappa: float,
    n_iter: int,
    train: np.ndarray | None = None,
    test: np.ndarray | None = None,
    track: bool = False,
) -> _Path:
    """The boosting loop in density-basis coordinates.

    Fits on the rows ``train`` (all rows when None; repeats allowed) and, when
    ``test`` is given, tracks the risk of the held-out rows alongside.
    ``track`` keeps every unscaled increment.
    """
    basis = designs[0].density_basis.clr_matrix
    weighted_basis = basis * weights[:, None]
    c = basis.T @ weighted_basis
    k_y = basis.shape[1]
    sizes = np.array([d.n_cov for d in designs])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    segments = starts * k_y

    x = np.hstack([d.X for d in designs])
    x_in = x if train is None else x[train]
    y_in = y_clr if train is None else y_clr[train]
    offset_clr = y_in.mean(axis=0)
    smoothers, grams, jittered = [], [], False
    for d, a, b in zip(designs, starts, ends):
        gram = x_in[:, a:b].T @ x_in[:, a:b]
        smoother, jit = _penalized_inverse(np.kron(gram, c) + d.penalty())
        smoothers.append(smoother)
        grams.append(gram)
        jittered |= jit
    smoother = _block_diag(smoothers)
    gram = _block_diag(grams)

    e_in = y_in - offset_clr
    resid = e_in @ weighted_basis
    risk = np.empty(n_iter + 1)
    risk[0] = float(((e_in ** 2) * weights).sum())
    heldout = None
    if test is not None:
        x_out = x[test]
        e_out = y_clr[test] - offset_clr
        resid_out = e_out @ weighted_basis
        heldout = np.empty(n_iter + 1)
        heldout[0] = float(((e_out ** 2) * weights).sum())

    coefficients = np.zeros((x.shape[1], k_y))
    selections = []
    increments = [] if track else None
    for m in range(1, n_iter + 1):
        rhs = x_in.T @ (2.0 * resid)
        gamma = (smoother @ rhs.ravel()).reshape(rhs.shape)
        fit_part = np.add.reduceat((gamma * rhs).ravel(), segments)
        size_part = np.add.reduceat((gamma * (gram @ gamma @ c)).ravel(), segments)
        j = int(np.argmin(size_part - 2.0 * fit_part))
        a, b = starts[j], ends[j]
        g = gamma[a:b]
        coefficients[a:b] += kappa * g
        selections.append(j)
        if track:
            increments.append((j, g.ravel().copy()))
        resid -= kappa * (x_in[:, a:b] @ g @ c)
        risk[m] = risk[m - 1] - kappa * fit_part[j] + kappa ** 2 * size_part[j]
        if heldout is not None:
            h = x_out[:, a:b] @ g
            hc = h @ c
            heldout[m] = (
                heldout[m - 1] - 2.0 * kappa * float((h * resid_out).sum())
                + kappa ** 2 * float((h * hc).sum())
            )
            resid_out -= kappa * hc
    return _Path(offset_clr, coefficients, selections, increments, risk, heldout, jittered)


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
    path = _boost_path(
        y_clr, measure.weights, designs, config.step_length, m_stop,
        track=config.track_increments,
    )
    _warn_jitter(path.jittered)

    drops = np.diff(path.risk)
    bad = np.flatnonzero(drops > _RISK_SLACK * max(1.0, path.risk[0]))
    if bad.size:
        raise FloatingPointError(
            f"in-bag risk increased during boosting at iteration {bad[0] + 1}"
        )

    ends = np.cumsum([d.n_cov for d in designs])
    x = np.hstack([d.X for d in designs])
    fitted = path.offset_clr + x @ path.coefficients @ designs[0].density_basis.clr_matrix.T
    return FitState(
        measure=measure,
        offset_clr=path.offset_clr,
        coefficients=[c.ravel() for c in np.split(path.coefficients, ends[:-1])],
        fitted_clr=fitted,
        selections=path.selections,
        risk_path=path.risk,
        m_stop=m_stop,
        increments=path.increments,
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

    Resolves the stopping iteration first (resampling methods re-run the loop
    on subsets of the densities), then fits on the full data.
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
    splits: list[tuple[np.ndarray, np.ndarray]] = []
    if config.stopping == "cv":
        k = min(config.folds, n)
        if k < 2:
            raise ValueError("cross-validation needs at least two folds")
        perm = rng.permutation(n)
        folds = np.array_split(perm, k)
        for i in range(k):
            test = np.sort(folds[i])
            train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
            splits.append((train, test))
    elif config.stopping == "bootstrap":
        for _ in range(config.replicates):
            while True:
                draw = rng.integers(0, n, size=n)
                oob = np.setdiff1d(np.arange(n), draw)
                if oob.size:
                    break
            splits.append((np.sort(draw), oob))
    else:
        raise ValueError(f"no resampling for stopping method {config.stopping!r}")

    def run(split):
        train, test = split
        return _boost_path(
            y_clr, measure.weights, designs, config.step_length,
            config.max_iterations, train, test,
        )

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            paths = list(pool.map(run, splits))
    else:
        paths = [run(s) for s in splits]
    _warn_jitter(any(p.jittered for p in paths))
    curves = [p.heldout / len(test) for p, (_, test) in zip(paths, splits)]
    mean_curve = np.mean(np.stack(curves), axis=0)
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
