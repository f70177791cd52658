"""Component-wise L2 gradient boosting for density responses.

The model is linear in clr coordinates, where every base-learner is a
penalized least-squares fit of the clr residuals. All base-learners of one
component share its density basis B (P x K_Y), and the measure-weighted
inner product meets the residual Y - F only through its projection onto that
basis, R = (Y - F) W B (N x K_Y instead of N x P). One kernel,
:func:`_boost_paths`, runs the loop for F resamples in lockstep, in the
array arithmetic of row-tensor designs (Currie, Durbán & Eilers 2006) that
FDboost uses for functional linear array models (Brockhaus, Scheipl, Hothorn
& Greven 2015). A resample weights the N densities by counts n: all ones for
the in-bag fit, 0/1 for a cross-validation fold, draw multiplicities for a
bootstrap replicate; its held-out rows are a 0/1 mask.

* the iterations never read the N rows. Each resample keeps its gradient in
  coefficient space, rhs = X' diag(2n) R (D x K_Y), next to the cross-Gram
  G = X' diag(n) X; both are formed once. This is the covariance-update form
  of coordinate descent (Friedman, Hastie & Tibshirani 2010, JSS 33(1),
  section 2.2) applied to the array model;
* learner j's smoother G_j^-1, with G_j = kron(X_j' diag(n) X_j, C) +
  penalty_j and C = B'WB, is factorized once per resample, in density
  coordinates rotated by the eigenvectors V of C = V diag(c) V'. There C
  becomes the scaling diag(c), and without a density penalty G_j splits
  into K_Y blocks c_k X_j' diag(n) X_j + lambda_j P_j of size d, the
  learner's column count. Learners of one block size share one
  (F, L, K_Y, d, d) stack, about 25 KB per resample for the paper's model,
  and one batched solve per iteration: three for the paper's blocks of 1,
  1, 2, 11 and 11 columns. A density penalty couples the rotated
  directions, and the stack becomes (F, L, 1, d K_Y, d K_Y). Up to a
  constant, learner j's weighted residual sum of squares is
  gamma_j * (Q_j gamma_j - 2 rhs_j) with
  Q_j = kron(X_j' diag(n) X_j, C), and one argmin per resample picks its
  learner, the first of equal ones;
* the pick, step = gamma_j in block j and zero elsewhere, moves rhs by
  2 kappa G step C and the in-bag risk in closed form. The held-out rows
  (mask t) keep rhs_t = X' diag(t) R and G_t = X' diag(t) X, and their risk
  moves by -2 kappa <step, rhs_t> + kappa^2 <step, G_t step C>. The
  coefficients are rotated back to the density basis B, fitted N x P
  surfaces are built once, at the end, and their weighted SSE must match the
  in-bag risk path.

Every entry point takes the responses as N x P clr rows. In-bag fits
(:func:`boost_from_clr`) are the one-resample case; resampled stopping
(:func:`early_stop_from_clr`) makes one call for all folds or replicates;
:func:`boost` resolves the stopping iteration, then fits. A fit works on
one component measure; splitting mixed responses into their components is
:func:`densreg.model.fit`'s. Norms everywhere are measure-weighted, which is
where discrete, continuous, and mixed supports differ.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import EffectDesign
from .measure import ReferenceMeasure

__all__ = [
    "BoostConfig",
    "FitState",
    "MixedFit",
    "EarlyStopResult",
    "boost",
    "boost_from_clr",
    "early_stop_from_clr",
]

_RISK_SLACK = 1e-9
# bound on |SSE of the fitted surfaces - risk_path[m_stop]| relative to the
# responses' weighted sum of squares; rounding keeps it near 1e-15
_DRIFT_TOLERANCE = 1e-10


@dataclass(frozen=True)
class BoostConfig:
    """Settings for one boosting run.

    ``stopping`` selects how the number of iterations is chosen: "fixed" uses
    ``m_stop`` (at most and by default ``max_iterations``), "cv" k-fold
    cross-validation, "bootstrap" out-of-bag risk over resampled density sets.

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

    def __post_init__(self):
        if not 0.0 < self.step_length < 1.0:
            raise ValueError("step length must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.stopping not in ("fixed", "cv", "bootstrap"):
            raise ValueError(f"unknown stopping method {self.stopping!r}")
        if self.m_stop is not None and self.m_stop < 0:
            raise ValueError("m_stop must be nonnegative")
        if self.m_stop is not None and self.m_stop > self.max_iterations:
            raise ValueError("m_stop exceeds max_iterations")


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
    stop_curve: np.ndarray | None = None  # resampled out-of-sample risk per m

    @property
    def selected_mask(self) -> np.ndarray:
        mask = np.zeros(len(self.coefficients), dtype=bool)
        mask[self.selections] = True
        return mask


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


def _smoothers(systems: np.ndarray) -> tuple[np.ndarray, bool]:
    """Inverses of a stack of learner systems (..., B, s, s), each made of B
    diagonal blocks of size s, and whether any needed ridge jitter.

    A learner system whose Cholesky factorization fails (degenerate designs,
    e.g. empty categories in small folds) gets a 1e-10 ridge on every block.
    Each inverse is L^-T L^-1, with L^-1 by forward substitution.
    """
    jittered = False
    try:
        lower = np.linalg.cholesky(systems)
    except np.linalg.LinAlgError:
        lower = np.empty_like(systems)
        ridge = 1e-10 * np.eye(systems.shape[-1])
        per_learner = (-1, *systems.shape[-3:])
        for system, factor in zip(systems.reshape(per_learner), lower.reshape(per_learner)):
            try:
                factor[...] = np.linalg.cholesky(system)
            except np.linalg.LinAlgError:
                factor[...] = np.linalg.cholesky(system + ridge)
                jittered = True
    inv_lower = np.zeros_like(lower)
    for i in range(lower.shape[-1]):
        row = -(lower[..., i:i + 1, :i] @ inv_lower[..., :i, :])
        row[..., i] += 1.0
        inv_lower[..., i:i + 1, :] = row / lower[..., i:i + 1, i:i + 1]
    return inv_lower.swapaxes(-1, -2) @ inv_lower, jittered


def _learner_systems(
    diag_grams: np.ndarray,
    cov_penalties: np.ndarray,
    density_penalties: np.ndarray | None,
    spectrum: np.ndarray,
) -> np.ndarray:
    """Penalized normal matrices of one group of learners, (F, L, B, s, s),
    in the rotated density coordinates with the density index outermost.

    From the diagonal Grams X_j' diag(n) X_j (F, L, d, d), the scaled
    covariate penalties (L, d, d) and the eigenvalues c of C, learner j's
    block k is c_k X_j' diag(n) X_j + lambda_j P_j. Without a density penalty
    these K_Y blocks are the whole system (B = K_Y, s = d); the rotated,
    scaled density penalties (L, K_Y, K_Y) couple them into one block of
    size s = d K_Y.
    """
    blocks = spectrum[:, None, None] * diag_grams[:, :, None] + cov_penalties[:, None]
    if density_penalties is None:
        return blocks
    n_resamples, n_learners, k_y, d, _ = blocks.shape
    full = blocks[:, :, :, :, None, :] * np.eye(k_y)[:, None, :, None]
    coupling = np.stack([np.kron(p, np.eye(d)) for p in density_penalties])
    return full.reshape(n_resamples, n_learners, 1, k_y * d, k_y * d) + coupling[:, None]


def _boost_paths(
    y_clr: np.ndarray,
    weights: np.ndarray,
    designs: list[EffectDesign],
    kappa: float,
    n_iter: int,
    counts: np.ndarray,
    test: np.ndarray | None = None,
):
    """The boosting loop in coefficient space, for F resamples at once.

    ``counts`` (F x N integers) gives each resample's training rows as
    multiplicities over all N rows; ``test`` (F x N booleans), when given,
    marks the held-out rows whose risk is tracked alongside. The N rows are
    read only while setting up; the iterations update K_Y x D arrays.

    The density coordinates are rotated once by the eigenvectors V of
    C = B'WB = V diag(c) V': with coefficients theta V, learner j's system
    carries diag(c) in place of C, so C acts as a scaling of each rotated
    density direction. Without a density penalty the system splits into K_Y
    independent d x d blocks c_k X_j' diag(n) X_j + lambda_j P_j, and a group
    of learners of block size d holds an (F, L, K_Y, d, d) smoother stack;
    with one, the rotated density penalty couples the directions, and the
    stack is (F, L, 1, d K_Y, d K_Y). Per-learner arrays are held with the
    density index outermost, so one batched product applies either form.

    Returns the offsets (F, P), coefficients (F, sum K_j, K_Y) in the
    original density basis, selections (F, n_iter), in-bag risks
    (F, n_iter + 1) and held-out risk sums (F, n_iter + 1, or None). Raises
    FloatingPointError when the in-bag risk of any resample increases.
    """
    basis = designs[0].density_basis.clr_matrix
    weighted_basis = basis * weights[:, None]
    spectrum, rotation = np.linalg.eigh(basis.T @ weighted_basis)
    rotated_basis = weighted_basis @ rotation
    k_y = basis.shape[1]
    sizes = [d.n_cov for d in designs]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    n_resamples, n = counts.shape
    x = np.hstack([d.X for d in designs])
    n_cols = x.shape[1]

    # Learners of one block size d, in learner order, form a group: their
    # indices (L,) and design columns (L, d). Per group and resample, each
    # learner gets its smoother, gradient rows R' diag(2n) X_j, Gram rows
    # X' diag(n) X_j and diagonal block X_j' diag(n) X_j from products of its
    # own, so equal learners get bitwise equal values and tie exactly.
    by_size = {}
    for j, d in enumerate(sizes):
        by_size.setdefault(d, []).append(j)
    groups = [(np.array(js), starts[js][:, None] + np.arange(d)) for d, js in by_size.items()]
    x_groups = [x.T[cols] for _, cols in groups]
    grads = [np.empty((n_resamples, len(js), k_y, cols.shape[1])) for js, cols in groups]
    gram_rows = [np.empty((n_resamples, len(js), n_cols, cols.shape[1])) for js, cols in groups]
    diag_grams = [np.empty((n_resamples, *cols.shape, cols.shape[1])) for _, cols in groups]

    offsets = np.empty((n_resamples, y_clr.shape[1]))
    risk = np.empty((n_resamples, n_iter + 1))
    if test is None:
        heldout = gram_t = rhs_t = None
    else:
        heldout = np.empty((n_resamples, n_iter + 1))
        gram_t = np.empty((n_resamples, n_cols, n_cols))
        rhs_t = np.empty((n_resamples, k_y, n_cols))
    for f in range(n_resamples):
        rows = np.repeat(np.arange(n), counts[f])
        offsets[f] = y_clr[rows].mean(axis=0)
        e = y_clr - offsets[f]
        resid_t = (e @ rotated_basis).T
        risk[f, 0] = float(((e[rows] ** 2) * weights).sum())
        if test is not None:
            x_test = x * test[f][:, None]
            heldout[f, 0] = float(((e[test[f]] ** 2) * weights).sum())
            gram_t[f] = x.T @ x_test
            rhs_t[f] = resid_t @ x_test
        for k, x_group in enumerate(x_groups):
            counted = (x_group * counts[f]).transpose(0, 2, 1)
            grads[k][f] = 2.0 * (resid_t @ counted)
            gram_rows[k][f] = x.T @ counted
            diag_grams[k][f] = x_group @ counted

    coupled = any(d.lambda_density for d in designs)
    density_penalty = rotation.T @ designs[0].density_basis.penalty @ rotation
    smoothers, jittered = [], False
    for (js, _), diag in zip(groups, diag_grams):
        group = [designs[j] for j in js]
        systems = _learner_systems(
            diag,
            np.stack([d.lambda_cov * d.cov_penalty for d in group]),
            np.stack([d.lambda_density * density_penalty for d in group]) if coupled else None,
            spectrum,
        )
        stack, jit = _smoothers(systems)
        smoothers.append(stack)
        jittered |= jit
    if jittered:
        warnings.warn(
            "singular base-learner system, adding ridge jitter", RuntimeWarning,
            stacklevel=3,
        )

    # the mask picks the selected learner's block of every resample
    block_mask = np.zeros((len(designs), 1, n_cols))
    for j, (a, b) in enumerate(zip(starts, ends)):
        block_mask[j, :, a:b] = 1.0
    every = np.arange(n_resamples)
    coefficients = np.zeros((n_resamples, k_y, n_cols))
    gamma = np.empty_like(coefficients)
    fit_part = np.empty((n_resamples, len(designs)))
    size_part = np.empty_like(fit_part)
    selections = np.empty((n_resamples, n_iter), dtype=int)
    for m in range(1, n_iter + 1):
        for (js, cols), stack, r, diag in zip(groups, smoothers, grads, diag_grams):
            g = (stack @ r.reshape(*stack.shape[:-1], 1)).reshape(r.shape)
            fit_part[:, js] = (g * r).sum(axis=(2, 3))
            size_part[:, js] = (g * (g @ diag) * spectrum[:, None]).sum(axis=(2, 3))
            gamma[:, :, cols] = g.swapaxes(1, 2)
        sel = np.argmin(size_part - 2.0 * fit_part, axis=1)
        selections[:, m - 1] = sel
        step = gamma * block_mask[sel]
        coefficients += kappa * step
        risk[:, m] = (
            risk[:, m - 1] - kappa * fit_part[every, sel] + kappa ** 2 * size_part[every, sel]
        )
        # covariance updates: the step moves the residuals by X step B', so
        # the gradient rows by 2 kappa (step C) G and rhs_t by kappa (step C) G_t,
        # where step C scales each rotated density direction by c_k
        step_c = step * spectrum[:, None]
        for r, rows_x in zip(grads, gram_rows):
            r -= 2.0 * kappa * (step_c[:, None] @ rows_x)
        if test is not None:
            moved = step_c @ gram_t
            heldout[:, m] = (
                heldout[:, m - 1]
                - 2.0 * kappa * (step * rhs_t).sum(axis=(1, 2))
                + kappa ** 2 * (step * moved).sum(axis=(1, 2))
            )
            rhs_t -= kappa * moved

    rises = np.diff(risk, axis=1) > _RISK_SLACK * np.maximum(1.0, risk[:, :1])
    if rises.any():
        raise FloatingPointError(
            "in-bag risk increased during boosting at iteration "
            f"{np.flatnonzero(rises.any(axis=0))[0] + 1}"
        )
    return offsets, coefficients.swapaxes(1, 2) @ rotation.T, selections, risk, heldout


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
    m_stop: int,
) -> FitState:
    """Run ``m_stop`` iterations of the boosting loop on a matrix of
    clr-transformed responses."""
    y_clr = np.asarray(y_clr, dtype=float)
    _check_inputs(y_clr, measure, designs)
    offsets, coefficients, selections, risk, _ = _boost_paths(
        y_clr, measure.weights, designs, config.step_length, m_stop,
        np.ones((1, y_clr.shape[0]), dtype=int),
    )
    ends = np.cumsum([d.n_cov for d in designs])
    x = np.hstack([d.X for d in designs])
    fitted = offsets[0] + x @ coefficients[0] @ designs[0].density_basis.clr_matrix.T
    # the risk path was updated in coefficient space; the surfaces must agree
    sse = float((((y_clr - fitted) ** 2) * measure.weights).sum())
    scale = float(((y_clr ** 2) * measure.weights).sum())
    if abs(sse - risk[0, m_stop]) > _DRIFT_TOLERANCE * scale:
        raise FloatingPointError(
            f"in-bag fit drifted from its risk path: weighted SSE {sse:.12g}, "
            f"risk_path[{m_stop}] {risk[0, m_stop]:.12g}"
        )
    return FitState(
        measure=measure,
        offset_clr=offsets[0],
        coefficients=[c.ravel() for c in np.split(coefficients[0], ends[:-1])],
        fitted_clr=fitted,
        selections=selections[0].tolist(),
        risk_path=risk[0],
        m_stop=m_stop,
    )


def boost(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
) -> FitState:
    """Fit the additive model to N x P clr responses on one measure.

    Resolves the stopping iteration first (resampling methods run the loop on
    every fold or replicate at once), then fits on all responses.
    """
    if config.stopping == "fixed":
        m_stop = config.m_stop if config.m_stop is not None else config.max_iterations
        curve = None
    else:
        stop = early_stop_from_clr(y_clr, measure, designs, config)
        m_stop, curve = stop.m_stop, stop.risk_curve
    state = boost_from_clr(y_clr, measure, designs, config, m_stop=m_stop)
    state.stop_curve = curve
    return state


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

    *_, heldout = _boost_paths(
        y_clr, measure.weights, designs, config.step_length, config.max_iterations,
        counts, test,
    )
    mean_curve = np.mean(heldout / test.sum(axis=1)[:, None], axis=0)
    m_stop = int(np.argmin(mean_curve[1:]) + 1)
    return EarlyStopResult(m_stop, mean_curve)
