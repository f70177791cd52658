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
* in density coordinates rotated by the eigenvectors of C = B'WB =
  V diag(c) V', learner j's system in direction k is c_k D_j + lambda_j P_j,
  D_j = X_j' diag(n) X_j. Smoothers that differ only in a scalar share one
  Demmler-Reinsch basis (Demmler & Reinsch 1975, Numer. Math. 24): W with
  W' D_j W = diag(a) and W' (D_j + lambda_j P_j) W = I, one per resample and
  learner, diagonalizes all K_Y systems. With u = rhs_j' W, the learner's
  weighted residual sum of squares is, up to a constant,
  sum u^2 (c a - 2 den) / den^2 with den = c a + b, and each resample picks
  the first learner within a relative 1e-10 of the best. A density penalty
  couples the directions into one system of size d K_Y, with c = 1;
* only the pick forms its step, g = W (u / den) in block j and zero
  elsewhere, which moves rhs by 2 kappa G g C and the in-bag risk in closed
  form. The held-out rows (mask t) keep rhs_t = X' diag(t) R and
  G_t = X' diag(t) X, and their risk moves by -2 kappa <g, rhs_t> +
  kappa^2 <g, G_t g C>. The coefficients are rotated back to the density
  basis B, fitted N x P surfaces are built once, at the end, and their
  weighted SSE must match the in-bag risk path.

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
from typing import NamedTuple

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
# learners whose criterion lies within this fraction of the best one's are
# tied, and the first of them in term order is chosen: collinear learners in
# degenerate resamples tie to rounding (about 1e-15), while distinct learners
# on the benchmark workloads differ by at least 5.7e-8
_TIE_TOLERANCE = 1e-10
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
    sets them. The tracer also derives configs with ``dataclasses.replace``,
    which is why this is the package's one dataclass: every other record is
    a plain class or a NamedTuple, which generate no code when defined and
    so keep start-up short.
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


class FitState:
    """Result of one boosting run in a single component space: the offset
    (P,), the coefficients theta_j (each K_j * K_Y), the final fitted
    surfaces (N, P) incl. offset or None, the chosen effect index per
    iteration, the in-bag SSE at m = 0 .. m_stop, and the resampled
    out-of-sample risk per m (None for a fixed stop)."""

    def __init__(self, offset_clr: np.ndarray, coefficients: list, fitted_clr: np.ndarray | None,
                 selections: list, risk_path: np.ndarray, m_stop: int,
                 stop_curve: np.ndarray | None = None):
        self.offset_clr, self.coefficients, self.fitted_clr = offset_clr, coefficients, fitted_clr
        self.selections, self.risk_path, self.m_stop = selections, risk_path, m_stop
        self.stop_curve = stop_curve


class MixedFit:
    """Separate continuous and discrete fits plus the recombined surfaces
    (N, P) on the mixed measure, or None."""

    def __init__(self, continuous: FitState, discrete: FitState, measure: ReferenceMeasure,
                 fitted_clr: np.ndarray | None):
        self.continuous, self.discrete = continuous, discrete
        self.measure, self.fitted_clr = measure, fitted_clr


class EarlyStopResult(NamedTuple):
    m_stop: int
    risk_curve: np.ndarray            # mean out-of-sample risk, index 0 .. M


def _pencil_bases(grams: np.ndarray, penalties: np.ndarray):
    """Demmler-Reinsch bases W = L^-T U of a stack of pencils (..., s, s):
    W' gram W = diag(a), W' penalty W = diag(b) and a + b = 1, from
    gram + penalty = L L' and L^-1 penalty L^-T = U diag(b) U'. Returns W,
    a, b and whether any system needed jitter: one not positive definite to
    working precision (no Cholesky factor, or a squared pivot at most s eps
    times its largest entry: degenerate designs, e.g. empty categories in
    small folds) gets a 1e-10 ridge in its penalty. Decomposing the penalty
    side leaves the factor's rounding on the gram, at the gram's scale; the
    gram side would put it on a 1e-10 ridge, as a 1e-5 relative error that
    makes a ridged learner's criterion noisy. An unpenalized learner gets
    W = L^-T and a = 1 exactly.
    """
    systems = grams + penalties
    lower, ridged = np.empty_like(systems), np.zeros(systems.shape[:-2], dtype=bool)
    size = systems.shape[-1]
    tiny, ridge = size * np.finfo(float).eps, 1e-10 * np.eye(size)
    for i in np.ndindex(ridged.shape):
        try:
            lower[i] = np.linalg.cholesky(systems[i])
            ridged[i] = np.diagonal(lower[i]).min() ** 2 <= tiny * np.abs(systems[i]).max()
        except np.linalg.LinAlgError:
            ridged[i] = True
        if ridged[i]:
            lower[i] = np.linalg.cholesky(systems[i] + ridge)
    if ridged.any():
        penalties = penalties + ridge * ridged[..., None, None]
    inv_lower = np.linalg.inv(lower)
    del systems, lower
    b, u = np.linalg.eigh(inv_lower @ penalties @ inv_lower.swapaxes(-1, -2))
    return inv_lower.swapaxes(-1, -2) @ u, 1.0 - b, b, bool(ridged.any())


def _learner_bases(
    diag_grams: np.ndarray,
    designs: list[EffectDesign],
    density_penalty: np.ndarray,
    spectrum: np.ndarray,
):
    """Every learner's Demmler-Reinsch basis W (F, J, s, s), 1/den and
    c a / den^2 (F, J, B, s), zero-padded to the widest block d_max, and
    whether any system needed ridge jitter; learners of one block size are
    factorized together. With D = X_j' diag(n) X_j (``diag_grams``), learner
    j's system in rotated density direction k is c_k D + lambda_j P_j, which
    the basis of the pencil (D, lambda_j P_j) makes diag(c_k a + b) = diag(den):
    B = K_Y blocks, s = d_max. A density penalty (rotated, unscaled) couples
    the directions into one block (B = 1, s = d_max K_Y, indexed like the
    flattened K_Y x d_max gradient), the pencil of kron(diag(c), D) and the
    full system, with c = 1. An uncoupled direction with c_k at most 1e-12 of
    the largest is one the grid cannot see (a density basis finer than the
    grid): its gradient is rounding noise, so it gets 1/den = 0 and takes no
    step, the least-squares answer.
    """
    n_resamples, n_learners, d_max, _ = diag_grams.shape
    k_y = spectrum.size
    coupled = any(d.lambda_density for d in designs)
    blocks, width = (1, k_y * d_max) if coupled else (k_y, d_max)
    seen = True if coupled else (spectrum > 1e-12 * spectrum.max(initial=0.0))[:, None]
    bases = np.zeros((n_resamples, n_learners, width, width))
    inv_den, size_w = np.zeros((2, n_resamples, n_learners, blocks, width))
    by_size, jittered = {}, False
    for j, design in enumerate(designs):
        by_size.setdefault(design.n_cov, []).append(j)
    for d, js in by_size.items():
        grams, scale, pos = diag_grams[:, js, :d, :d], spectrum[:, None], np.arange(d)
        penalties = np.stack([designs[j].lambda_cov * designs[j].cov_penalty for j in js])
        if coupled:
            eye = np.eye(k_y)
            grams = np.einsum("k,kl,fjab->fjkalb", spectrum, eye, grams)
            grams = grams.reshape(n_resamples, len(js), k_y * d, k_y * d)
            penalties = np.stack([
                np.kron(eye, p) + np.kron(designs[j].lambda_density * density_penalty, np.eye(d))
                for j, p in zip(js, penalties)
            ])
            scale, pos = np.ones((1, 1)), (np.arange(k_y)[:, None] * d_max + pos).ravel()
        w, a, b, jit = _pencil_bases(grams, penalties)
        jittered |= jit
        fitted = scale * a[:, :, None]
        at = (slice(None), np.array(js)[:, None, None])
        bases[(*at, pos[:, None], pos)] = w
        at = (*at, np.arange(blocks)[:, None], pos)
        den = fitted + b[:, :, None]
        inv_den[at] = np.divide(1.0, den, out=np.zeros_like(den), where=seen)
        size_w[at] = fitted * inv_den[at] ** 2
    return bases, inv_den, size_w, jittered


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
    read only while setting up; the iterations update K_Y x D arrays. Each
    iteration picks, per resample, the learner that lowers the in-bag risk
    most; learners within ``_TIE_TOLERANCE`` of it tie, and the first wins.

    The density coordinates are rotated by the eigenvectors V of C = B'WB =
    V diag(c) V'. Learner arrays are zero-padded to the widest block, so one
    batched product per iteration scores every learner in its basis (see
    :func:`_learner_bases`); padded coordinates stay zero in every product.

    Returns the offsets (F, P), coefficients (F, sum K_j, K_Y) in the
    original density basis, selections (F, n_iter), in-bag risks
    (F, n_iter + 1) and held-out risk sums (F, n_iter + 1, or None). Raises
    FloatingPointError when an in-bag or held-out risk is not finite, or the
    in-bag risk of any resample increases.
    """
    basis = designs[0].density_basis.clr_matrix
    weighted_basis = basis * weights[:, None]
    spectrum, rotation = np.linalg.eigh(basis.T @ weighted_basis)
    rotated_basis = weighted_basis @ rotation
    k_y = basis.shape[1]
    sizes = [d.n_cov for d in designs]
    starts = np.cumsum(sizes) - sizes
    n_resamples, n = counts.shape
    x = np.hstack([d.X for d in designs])
    n_cols = x.shape[1]

    # Each learner's padded columns (J, d_max, N) and the 0/1 matrices that
    # scatter them back (J, d_max, D). Per resample, each learner gets its
    # gradient rows R' diag(2n) X_j, Gram rows X' diag(n) X_j and diagonal
    # block X_j' diag(n) X_j from products of its own, so equal learners get
    # bitwise equal values and tie exactly.
    n_learners, d_max = len(designs), max(sizes)
    x_pad = np.zeros((n_learners, d_max, n))
    scatter = np.zeros((n_learners, d_max, n_cols))
    for j, (a, d) in enumerate(zip(starts, sizes)):
        x_pad[j, :d] = x.T[a:a + d]
        scatter[j, np.arange(d), a + np.arange(d)] = 1.0
    grads = np.empty((n_resamples, n_learners, k_y, d_max))
    gram_rows = np.empty((n_resamples, n_learners, n_cols, d_max))
    diag_grams = np.empty((n_resamples, n_learners, d_max, d_max))

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
        counted = (x_pad * counts[f]).transpose(0, 2, 1)
        grads[f] = 2.0 * (resid_t @ counted)
        gram_rows[f] = x.T @ counted
        diag_grams[f] = x_pad @ counted

    bases, inv_den, size_w, jittered = _learner_bases(
        diag_grams, designs, rotation.T @ designs[0].density_basis.penalty @ rotation, spectrum
    )
    # per learner coordinate: the weights of size - 2 fit, fit and size; a
    # step moves the in-bag risk by -kappa fit + kappa^2 size
    crit_w, fit_size_w = size_w - 2.0 * inv_den, np.stack([inv_den, size_w], axis=2)
    if jittered:
        warnings.warn(
            "singular base-learner system, adding ridge jitter", RuntimeWarning,
            stacklevel=3,
        )

    every, moves = np.arange(n_resamples), np.array([-kappa, kappa ** 2])
    coefficients = np.zeros((n_resamples, k_y, n_cols))
    selections = np.empty((n_resamples, n_iter), dtype=int)
    for m in range(1, n_iter + 1):
        # u = r W in every learner's basis; size - 2 fit = sum u^2 (c a - 2 den) / den^2
        u = grads.reshape(crit_w.shape) @ bases
        crit = (u * u * crit_w).sum(axis=(2, 3))
        # crit <= 0, so the tied learners lie at or below best (1 - tol)
        tied = crit <= crit.min(axis=1, keepdims=True) * (1.0 - _TIE_TOLERANCE)
        selections[:, m - 1] = sel = np.argmax(tied, axis=1)
        # the step g = W (u / den) of each resample's chosen learner only
        u, chosen_w = u[every, sel], fit_size_w[every, sel]
        g = (u * chosen_w[:, 0]) @ bases[every, sel].swapaxes(-1, -2)
        step = g.reshape(n_resamples, k_y, d_max) @ scatter[sel]
        coefficients += kappa * step
        risk[:, m] = risk[:, m - 1] + ((u * u)[:, None] * chosen_w).sum(axis=(2, 3)) @ moves
        # covariance updates: the step moves the residuals by X step B', so
        # the gradient rows by 2 kappa (step C) G and rhs_t by kappa (step C) G_t,
        # where step C scales each rotated density direction by c_k
        step_c = step * spectrum[:, None]
        grads -= 2.0 * kappa * (step_c[:, None] @ gram_rows)
        if test is not None:
            moved = step_c @ gram_t
            heldout[:, m] = (
                heldout[:, m - 1]
                - 2.0 * kappa * (step * rhs_t).sum(axis=(1, 2))
                + kappa ** 2 * (step * moved).sum(axis=(1, 2))
            )
            rhs_t -= kappa * moved

    for which, path in (("in-bag", risk), ("held-out", heldout)):
        if path is not None and not np.isfinite(path).all():
            raise FloatingPointError(f"{which} risk is not finite during boosting")
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
    if not abs(sse - risk[0, m_stop]) <= _DRIFT_TOLERANCE * scale:
        raise FloatingPointError(
            f"in-bag fit drifted from its risk path: weighted SSE {sse:.12g}, "
            f"risk_path[{m_stop}] {risk[0, m_stop]:.12g}"
        )
    return FitState(
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
        if n < 2:
            # one density is drawn every time: none would ever be out of bag
            raise ValueError("bootstrap stopping needs at least two densities")
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
