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

* in density coordinates rotated by the eigenvectors of C = B'WB =
  V diag(c) V', learner j's system in direction k is c_k D_j + lambda_j P_j,
  D_j = X_j' diag(n) X_j. Smoothers that differ only in a scalar share one
  Demmler-Reinsch basis (Demmler & Reinsch 1975, Numer. Math. 24): W with
  W' D_j W = diag(a) and W' (D_j + lambda_j P_j) W = I, one per resample and
  learner, diagonalizes all K_Y systems. With the learner's scores
  u = W' X_j' diag(2n) R, its weighted residual sum of squares is, up to a
  constant, sum u^2 (c a - 2 den) / den^2 with den = c a + b, and each
  resample picks the first learner within a relative 1e-10 of the best;
* the iterations never read the N rows. The kernel tracks weighted row
  sets alike: each resample's training rows (weights n) and held-out rows
  (weights t), every set owned by its resample and taking its steps. A set
  carries every learner's scores in that learner's own basis,
  u = W' X_j' diag(2w) R for weights w, next to the cross-Grams rotated
  once into its owner's bases, H_ij = W_i' X_i' diag(w) X_j W_j. The
  pick's step is g = u / den in its basis; one product, 2 kappa H_i' (g C),
  moves the scores of every learner, and the set's risk moves by
  (kappa / 2) <g, moved - 2 u_i>, in-bag and held-out alike. This is the
  covariance-update form of coordinate descent (Friedman, Hastie &
  Tibshirani 2010, JSS 33(1), section 2.2) applied to the array model;
* a density penalty couples the K_Y directions into one system of size
  d K_Y per learner (with c = 1), whose cross-Grams in the bases would be
  (d K_Y)^2 per pair of learners. Coupled row sets therefore carry the raw
  gradient rows X_j' diag(2w) R and the raw cross-Grams, the training sets
  score every learner in its basis at each iteration, and the raw step
  W g moves every set by the same product: a branch of the same loop;
* the loop reads flat views, so that each gather is one ``take``: the
  states of the S sets as (S (D + 1), K_Y) rows, the cross-Grams as
  (S J, D + 1, d_max) and 1/den as (F J, d_max, K_Y). Set s's cross-Grams
  with learner j, and the offsets of its state rows of learner j's
  coordinates (a precomputed (S J, d_max) table), sit at s J + j.

Every fit and stop is one call of :func:`boost`, one kernel call per
component: the in-bag fit is the kernel's resample 0, which weights every
row once, has no held-out rows, and keeps its steps; the first m_stop of
them, summed per learner and rotated back to the density basis B, are the
fit. Resampled stopping adds the folds or replicates as resamples 1 .. R,
each described, as in mboost's ``cvrisk``, by one count vector whose rows of
count 0 are held out, and runs all of them to ``max_iterations``; fixed
stopping is the case R = 0. The fitted N x P surfaces are built once, at the
end, and their weighted SSE must match the in-bag risk path.
:func:`boost_from_clr` (an in-bag fit of m_stop iterations) and
:func:`early_stop_from_clr` (the stop alone) are views of :func:`boost`.
The cross-validation folds split
``np.random.default_rng(seed).permutation(N)``, its PCG64 stream reproduced
in Python (:func:`_permutation`): a CV fit then keeps numpy's folds without
importing ``numpy.random`` (about 10 ms and 6 MB in a fresh process) for
its N - 1 draws. Bootstrap replicates draw from numpy, as their
replicates x N draws in Python would outweigh the import from about
N = 560 at 25 replicates. A fit works on one component measure; splitting
mixed responses into their components is :func:`densreg.model.fit`'s.
Norms everywhere are measure-weighted, which is where discrete, continuous,
and mixed supports differ.
"""
from __future__ import annotations

import itertools
import operator
import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .basis import EffectDesign
from .measure import ReferenceMeasure
from .records import BoostConfig, FitState, MixedFit

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


class EarlyStopResult(NamedTuple):
    m_stop: int
    risk_curve: np.ndarray | None     # mean out-of-sample risk, index 0 .. M


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
    W = L^-T and a = 1 exactly. The stack is factorized in one call; when
    some system has no factor, each is factorized alone, and only the
    ridged systems are factorized again, with the ridge.
    """
    systems = grams + penalties
    size = systems.shape[-1]
    tiny = size * np.finfo(float).eps * np.abs(systems).max(axis=(-2, -1))
    ridge = 1e-10 * np.eye(size)
    try:
        lower = np.linalg.cholesky(systems)
        ridged = np.diagonal(lower, axis1=-2, axis2=-1).min(axis=-1) ** 2 <= tiny
    except np.linalg.LinAlgError:
        # some system has no factor: find which, one at a time
        lower, ridged = np.empty_like(systems), np.ones(systems.shape[:-2], dtype=bool)
        for i in np.ndindex(ridged.shape):
            try:
                lower[i] = np.linalg.cholesky(systems[i])
                ridged[i] = np.diagonal(lower[i]).min() ** 2 <= tiny[i]
            except np.linalg.LinAlgError:
                pass
    for i in zip(*np.nonzero(ridged)):
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
    """Every learner's Demmler-Reinsch basis W (F, J, s, s), 1/den and the
    criterion weights c a / den^2 - 2 / den (F, J, B, s), zero-padded to the widest block d_max, and
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
    inv_den, crit_w = np.zeros((2, n_resamples, n_learners, blocks, width))
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
        crit_w[at] = fitted * inv_den[at] ** 2 - 2.0 * inv_den[at]
    return bases, inv_den, crit_w, jittered


def _boost_paths(
    y_clr: np.ndarray,
    weights: np.ndarray,
    designs: list[EffectDesign],
    kappa: float,
    n_iter: int,
    counts: np.ndarray,
    test: np.ndarray,
):
    """The boosting loop for F = R + 1 resamples at once (see the module
    docstring).

    Resample 0 is the in-bag fit: it weights every row once, has no
    held-out rows, and keeps its steps. ``counts`` (R x N integers, R >= 0)
    gives the training rows of resamples 1 .. R as multiplicities over all N
    rows, and row i of ``test`` (R x N booleans) the held-out rows of
    resample i + 1. Each iteration picks, per resample, the learner that
    lowers the in-bag risk most; learners within ``_TIE_TOLERANCE`` of it
    tie, and the first wins.

    The kernel tracks S = F + R weighted row sets alike: each resample's
    training rows, then the held-out rows of resamples 1 .. R, each set
    owned by its resample and taking that resample's steps. The N rows are
    read only while setting up. A set's state has one row per coordinate of
    every learner (D = sum K_j rows, by K_Y rotated density directions) and
    one zero row, which the coordinates that pad a block to the widest,
    d_max, read (see :func:`_learner_bases`). A step g of learner i in the
    state's coordinates moves a set's state by H_i' (g 2 kappa C), with H_i
    its rows of the set's cross-Grams, and the set's risk by (kappa / 2)
    <g, moved - 2 u> for u the state's rows of learner i before the move.

    Returns resample 0's offset (P,), a function of m that gives its
    coefficients (sum K_j, K_Y) in the original density basis after m
    iterations, selections (F, n_iter), in-bag risks (F, n_iter + 1) and
    held-out risk sums (R, n_iter + 1). Raises FloatingPointError when an
    in-bag or held-out risk is not finite, or the in-bag risk of any
    resample increases.
    """
    basis = designs[0].density_basis.clr_matrix
    weighted_basis = basis * weights[:, None]
    spectrum, rotation = np.linalg.eigh(basis.T @ weighted_basis)
    rotated_basis = weighted_basis @ rotation
    k_y = basis.shape[1]
    sizes = [d.n_cov for d in designs]
    starts = np.cumsum(sizes) - sizes
    n = y_clr.shape[0]
    counts = np.vstack([np.ones((1, n), dtype=int), counts])
    n_resamples = counts.shape[0]
    n_learners, d_max, n_cols = len(designs), max(sizes), sum(sizes)
    coupled = any(d.lambda_density for d in designs)
    # the row weights of each set (S x N) and the resample that owns it
    in_set = np.vstack([counts, test])
    owner = np.concatenate([np.arange(n_resamples), np.arange(1, n_resamples)])
    n_sets = owner.size

    # each learner's columns zero-padded to d_max (J, N, d_max), the state
    # row of each padded coordinate, the padded index of each state row, and
    # the learner of each state entry (one-hot, (D + 1) K_Y x J)
    columns = np.zeros((n_learners, n, d_max))
    rows_of, real = np.full((n_learners, d_max), n_cols), []
    member = np.zeros((n_cols + 1, k_y, n_learners))
    for j, (a, d) in enumerate(zip(starts, sizes)):
        columns[j, :, :d] = designs[j].X
        rows_of[j, :d] = a + np.arange(d)
        real += range(j * d_max, j * d_max + d)
        member[a:a + d, :, j] = 1.0
    member = member.reshape(-1, n_learners)
    diag_grams = np.empty((n_resamples, n_learners, d_max, d_max))
    for f in range(n_resamples):
        diag_grams[f] = columns.swapaxes(1, 2) @ (columns * counts[f][:, None])
    bases, inv_den, crit_w, jittered = _learner_bases(
        diag_grams, designs, rotation.T @ designs[0].density_basis.penalty @ rotation, spectrum
    )
    del diag_grams
    if jittered:
        warnings.warn(
            "singular base-learner system, adding ridge jitter", RuntimeWarning,
            stacklevel=3,
        )
    # (F, J, s, B), like the chosen scores; uncoupled criterion weights per state row
    inv_den, crit_w = inv_den.swapaxes(2, 3).copy(), crit_w.swapaxes(2, 3)
    if not coupled:
        unpadded = np.zeros((n_resamples, n_cols + 1, k_y))
        unpadded[:, rows_of] = crit_w
        crit_w = unpadded

    state = np.zeros((n_sets, n_cols + 1, k_y))
    cross = np.zeros((n_sets, n_learners, n_cols + 1, d_max))
    # per set, its risk at the start and its change per iteration; the risk
    # paths are their running sums
    paths = np.empty((n_sets, n_iter + 1))
    for f in range(n_resamples):
        mean = y_clr[np.repeat(np.arange(n), counts[f])].mean(axis=0)
        if not f:
            offset = mean
        e = y_clr - mean
        resid = e @ rotated_basis
        # the weighted row sums of squares, squaring e in place: at most one
        # N x P residual or N-row column array is alive at a time
        sse = np.square(e, out=e) @ weights
        del e
        # the learners' columns in their bases, side by side (N, J d_max)
        cols = (columns if coupled else columns @ bases[f]).swapaxes(0, 1).reshape(n, -1)
        for s in np.flatnonzero(owner == f):
            weighted = cols[:, real] * in_set[s][:, None]
            paths[s, 0] = in_set[s] @ sse
            state[s, :-1] = 2.0 * (weighted.T @ resid)
            cross[s, :, :-1] = (weighted.T @ cols).reshape(n_cols, n_learners, d_max).swapaxes(0, 1)
        del cols, weighted
    del columns

    # flat views, so that every gather in the loop is one take: the cross-Grams
    # of set s with learner j, and its state rows of learner j's coordinates,
    # sit at s J + j; resample f's 1/den of learner j sits at f J + j
    flat = state.reshape(n_sets * (n_cols + 1), k_y)
    cross = cross.reshape(n_sets * n_learners, n_cols + 1, d_max)
    state_rows = (np.arange(n_sets)[:, None, None] * (n_cols + 1) + rows_of).reshape(-1, d_max)
    inv_den = inv_den.reshape(n_resamples * n_learners, *inv_den.shape[2:])
    set_base = np.arange(n_sets) * n_learners
    scale_by = 2.0 * kappa * spectrum
    steps = np.empty((n_iter, *inv_den.shape[1:]))
    selections = np.empty((n_resamples, n_iter), dtype=int)
    bag = state[:n_resamples]       # the training sets, which pick the learners
    bag_rows = state_rows[:n_resamples * n_learners].reshape(n_resamples, n_learners, d_max)
    for m in range(1, n_iter + 1):
        # sum u^2 (c a - 2 den) / den^2 scores the learners
        if coupled:
            raw = flat.take(bag_rows, axis=0).swapaxes(2, 3)
            raw = raw.reshape(n_resamples, n_learners, 1, -1)
            scores = (raw @ bases).swapaxes(2, 3)   # (F, J, K_Y d_max, 1)
            crit = (scores * scores * crit_w).reshape(n_resamples, n_learners, -1).sum(axis=2)
            scores = scores.reshape(n_resamples * n_learners, -1, 1)
        else:
            crit = (bag * bag * crit_w).reshape(n_resamples, -1) @ member
        # crit <= 0, so the tied learners lie at or below best (1 - tol)
        tied = crit <= crit.min(axis=1, keepdims=True) * (1.0 - _TIE_TOLERANCE)
        selections[:, m - 1] = sel = tied.argmax(axis=1)
        # each set moves by its owner's pick, and u is its state on the pick's
        # rows; the step is the pick's scores / den in its basis, and the
        # uncoupled scores are the training sets' u
        pairs = set_base + sel.take(owner)
        at = state_rows.take(pairs, axis=0)
        u = flat.take(at, axis=0)
        chosen = pairs[:n_resamples]     # the training sets are the resamples
        picked = scores.take(chosen, axis=0) if coupled else u[:n_resamples]
        step = picked * inv_den.take(chosen, axis=0)
        steps[m - 1] = step[0]
        if coupled:
            # raw step W (u / den), from the flattened K_Y x d_max layout; one
            # product per resample reads its chosen basis in place, where a
            # batched product would first copy F bases of (d_max K_Y)^2
            step = np.stack([bases[f, j] @ step[f] for f, j in enumerate(sel)])
            step = step.reshape(n_resamples, k_y, d_max).swapaxes(1, 2)
        # each set takes its owner's step g, and its risk moves by
        # (kappa / 2) <g, moved - 2 u>
        g = step.take(owner, axis=0)
        moved = cross.take(pairs, axis=0) @ (g * scale_by)
        gap = moved.reshape(flat.shape).take(at, axis=0) - 2.0 * u
        paths[:, m] = (g * gap).reshape(n_sets, -1).sum(axis=1)
        state -= moved

    paths[:, 1:] *= 0.5 * kappa
    np.cumsum(paths, axis=1, out=paths)
    risk, heldout = paths[:n_resamples], paths[n_resamples:]
    for which, path in (("in-bag", risk), ("held-out", heldout)):
        if not np.isfinite(path).all():
            raise FloatingPointError(f"{which} risk is not finite during boosting")
    rises = np.diff(risk, axis=1) > _RISK_SLACK * np.maximum(1.0, risk[:, :1])
    if rises.any():
        raise FloatingPointError(
            "in-bag risk increased during boosting at iteration "
            f"{np.flatnonzero(rises.any(axis=0))[0] + 1}"
        )

    def coefficients(m_stop: int) -> np.ndarray:
        """Resample 0's first ``m_stop`` steps, summed per learner,
        taken out of its basis and rotated back to the density basis."""
        summed = np.zeros((n_learners, *steps.shape[1:]))
        np.add.at(summed, selections[0, :m_stop], steps[:m_stop])
        raw = kappa * (bases[0] @ summed)
        if coupled:
            raw = raw.reshape(n_learners, k_y, d_max).swapaxes(1, 2)
        return np.vstack([raw[j, :d] for j, d in enumerate(sizes)]) @ rotation.T

    return offset, coefficients, selections, risk, heldout


def boost(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
) -> FitState:
    """Fit the additive model to N x P clr responses on one measure.

    One kernel call: fixed stopping runs the in-bag fit alone, for m_stop
    iterations; resampled stopping runs it next to every fold or replicate,
    to ``max_iterations``, and keeps its first m_stop steps. There m_stop
    minimizes, over m = 1 .. max_iterations, the held-out risk per density,
    averaged first within and then across resamples. The fitted surfaces
    must match the in-bag risk path.
    """
    y_clr = np.asarray(y_clr, dtype=float)
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
    fixed = config.stopping == "fixed"
    m_stop = config.m_stop if fixed and config.m_stop is not None else config.max_iterations
    counts = _resamples(n, config)
    test = counts == 0
    offset, coefficients, selections, risk, heldout = _boost_paths(
        y_clr, measure.weights, designs, config.step_length, m_stop, counts, test,
    )
    curve = None
    if not fixed:
        curve = np.mean(heldout / test.sum(axis=1)[:, None], axis=0)
        m_stop = int(np.argmin(curve[1:]) + 1)
    coefficients = coefficients(m_stop)
    fitted = np.hstack([d.X for d in designs]) @ coefficients @ basis.T
    fitted += offset
    # the risk path was updated in coefficient space; the surfaces must agree
    scale = float(((y_clr ** 2) @ measure.weights).sum())
    resid = y_clr - fitted
    sse = float((np.square(resid, out=resid) @ measure.weights).sum())
    if not abs(sse - risk[0, m_stop]) <= _DRIFT_TOLERANCE * scale:
        raise FloatingPointError(
            f"in-bag fit drifted from its risk path: weighted SSE {sse:.12g}, "
            f"risk_path[{m_stop}] {risk[0, m_stop]:.12g}"
        )
    ends = np.cumsum([d.n_cov for d in designs])
    return FitState(
        offset_clr=offset,
        coefficients=[c.ravel() for c in np.split(coefficients, ends[:-1])],
        fitted_clr=fitted,
        selections=selections[0, :m_stop].tolist(),
        risk_path=risk[0, :m_stop + 1],
        m_stop=m_stop,
        stop_curve=curve,
    )


def boost_from_clr(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
    m_stop: int,
) -> FitState:
    """:func:`boost` stopped at ``m_stop`` iterations, at most
    ``max_iterations``."""
    return boost(y_clr, measure, designs, replace(config, stopping="fixed", m_stop=m_stop))


def _resamples(n: int, config: BoostConfig) -> np.ndarray:
    """The training counts (R x N) of the folds or replicates of a resampled
    stop, R = 0 for a fixed one; a resample holds out its rows of count 0.

    The folds split ``np.random.default_rng(seed).permutation(n)``, drawn by
    :func:`_permutation` in Python: its N - 1 draws cost about 0.1 ms at
    N = 180, against about 10 ms and 6 MB for importing ``numpy.random``
    in a fresh process. Bootstrap replicates draw from numpy itself: their
    replicates x N bounded draws would cost about 0.36 us each in Python,
    more than the import from about N = 560 at 25 replicates.
    """
    if config.stopping == "cv":
        k = min(config.folds, n)
        if k < 2:
            raise ValueError("cross-validation needs at least two folds")
        counts = np.ones((k, n), dtype=int)
        for i, rows in enumerate(np.array_split(np.array(_permutation(n, config.seed)), k)):
            counts[i, rows] = 0
        return counts
    if config.stopping == "bootstrap":
        if n < 2:
            # one density is drawn every time: none would ever be out of bag
            raise ValueError("bootstrap stopping needs at least two densities")
        rng = np.random.default_rng(config.seed)
        counts = np.ones((config.replicates, n), dtype=int)
        for row in counts:
            while row.all():  # redraw until some density is out of bag
                row[:] = np.bincount(rng.integers(0, n, size=n), minlength=n)
        return counts
    return np.zeros((0, n), dtype=int)


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_words(seed: int):
    """The 32-bit draws of ``np.random.PCG64(seed)``, numpy's default bit
    generator, without numpy: ``SeedSequence(seed)`` hashes the seed's
    32-bit words into a pool of 4 and generates 8 words from it, which set
    the 128-bit LCG state and stream as ``pcg64_set_seed`` does. Each step
    gives one XSL-RR 64-bit output, drawn as its low and then its high half.
    """
    seed = operator.index(seed)
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]

    def hasher(hash_const, mult):
        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * mult & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return result ^ result >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word, dst in itertools.product(entropy[4:], range(4)):
        pool[dst] = mix(pool[dst], hashmix(word))
    words = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    # uint64 words, low half first: the state's high and low half, then the stream's
    high, low, seq_high, seq_low = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((seq_high << 64 | seq_low) << 1 | 1) & _MASK128
    state = ((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _MASK128
    while True:
        state = (state * _PCG64_MULT + inc) & _MASK128
        rot, out = state >> 122, (state >> 64 ^ state) & _MASK64
        out = (out >> rot | out << (64 - rot)) & _MASK64
        yield out & _MASK32
        yield out >> 32


def _permutation(n: int, seed: int) -> list:
    """``np.random.default_rng(seed).permutation(n)`` as a list, for
    n <= 2**32: Generator.shuffle's Fisher-Yates pass, which swaps each
    i = n - 1 .. 1 with a draw j <= i, masked to i's bit length and redrawn
    while above i."""
    perm, words = list(range(n)), _pcg64_words(seed)
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        j = next(words) & mask
        while j > i:
            j = next(words) & mask
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def early_stop_from_clr(
    y_clr: np.ndarray,
    measure: ReferenceMeasure,
    designs: list[EffectDesign],
    config: BoostConfig,
) -> EarlyStopResult:
    """Pick the stopping iteration by resampling the responses.

    Cross-validation splits the densities into folds; bootstrapping draws
    them with replacement and scores on the out-of-bag densities. The stop
    and its curve are those of :func:`boost` (for fixed stopping, m_stop and
    None).
    """
    state = boost(y_clr, measure, designs, config)
    return EarlyStopResult(state.m_stop, state.stop_curve)
