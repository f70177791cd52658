"""Independent boosting paths that the library kernel is checked against.

Two oracles live here, both written for clarity rather than speed:

* the density-space formulation: the boosting loop carried out on density
  representatives through perturbation and powering, with inner products from
  the density-space inner product;
* the brute-force clr loop: every iteration refits every base-learner as an
  N x P clr surface and scores it by how much it lowers the weighted
  residual sum of squares, for in-bag fits and for each cross-validation or
  bootstrap resample.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from densreg.basis import EffectDesign
from densreg.bayes import ClrElement, DensityElement, clr, clr_inv
from densreg.boosting import BoostConfig, EarlyStopResult, FitState

from bayes_oracle import density, inner, norm, perturb, power, subtract


def offset(responses: list[DensityElement]) -> DensityElement:
    """Mean of the responses in the density space (mean of clr images)."""
    if not responses:
        raise ValueError("offset needs at least one response")
    zs = np.stack([clr(f).values for f in responses])
    return clr_inv(ClrElement(responses[0].measure, zs.mean(axis=0)))


def negative_gradient(y: DensityElement, h_current: DensityElement) -> DensityElement:
    """Steepest-descent direction of the squared-distance loss: 2 (y - h)."""
    return power(2.0, subtract(y, h_current))


def stacked_penalty(effect: EffectDesign) -> np.ndarray:
    """Combined penalty over an effect's stacked coefficient vector (design
    column outer, density basis function inner),
    lambda_cov (P_cov x I) + lambda_density (I x P_density)."""
    p_den = effect.density_basis.penalty
    kron_cov = np.kron(effect.cov_penalty, np.eye(p_den.shape[0]))
    kron_den = np.kron(np.eye(effect.n_cov), p_den)
    return effect.lambda_cov * kron_cov + effect.lambda_density * kron_den


def _factor(gram: np.ndarray):
    """Cholesky factor of a penalized normal matrix, with ridge jitter for
    degenerate designs."""
    try:
        return cho_factor(gram)
    except np.linalg.LinAlgError:
        return cho_factor(gram + 1e-10 * np.eye(gram.shape[0]))


def _pseudo_inverse(data: np.ndarray, penalty: np.ndarray):
    """Pseudo-inverse of a penalized normal matrix G = data + penalty, and
    the projector onto the directions it determines. G is decomposed in the
    penalty's eigenbasis, with each direction that the penalty weighs above
    the data's largest entry scaled down to the data's scale, where an
    eigenvalue within rounding (the matrix's size times eps times its
    largest) counts as zero. The scaling keeps a penalty many orders above
    the data (a smoothing parameter near its bound of 1e12) from rounding
    away the directions it leaves to the data, as an eigenvalue cut
    relative to G's largest would. Along the directions G does not
    determine (a density direction that the grid cannot see, design columns
    that the rows leave dependent and the penalty leaves free) any
    coefficient fits the rows alike."""
    weights, basis = np.linalg.eigh(penalty)
    weights = np.maximum(weights, 0.0)
    shrink = 1.0 / np.sqrt(1.0 + weights / (np.abs(data).max(initial=0.0) or 1.0))
    scaled = basis * shrink
    values, vectors = np.linalg.eigh(scaled.T @ data @ scaled + np.diag(weights * shrink**2))
    keep = values > values.size * np.finfo(float).eps * values.max(initial=0.0)
    null = np.linalg.qr(scaled @ vectors[:, ~keep])[0]
    projector = np.eye(data.shape[0]) - null @ null.T
    part = projector @ scaled @ vectors[:, keep]
    return part @ (part.T / values[keep, None]), projector


def determined_part(effect: EffectDesign, weights: np.ndarray,
                    rows: np.ndarray | None = None) -> tuple[np.ndarray, float, float]:
    """Projector onto the coefficient directions of ``effect`` that its
    penalized normal matrix on ``rows`` (all rows by default) determines
    (see :func:`_pseudo_inverse`), and the matrix's largest eigenvalue and
    its smallest on those directions (0 when it determines none)."""
    solver = _EffectSolver(effect, weights, rows)
    inverse_norm = np.linalg.eigvalsh(solver.inverse).max(initial=0.0)
    return (solver.projector, float(np.linalg.eigvalsh(solver.gram).max(initial=0.0)),
            1.0 / inverse_norm if inverse_norm else 0.0)


class _EffectSolver:
    """Per-effect Gram matrix on the given rows, and its penalized
    least-squares solve of least norm: no part along the directions that the
    matrix does not determine."""

    def __init__(self, effect: EffectDesign, weights: np.ndarray, rows: np.ndarray | None = None):
        x = effect.X if rows is None else effect.X[rows]
        self.x = x
        self.basis = effect.density_basis.clr_matrix
        self.weighted_basis = self.basis * weights[:, None]
        data = np.kron(x.T @ x, self.basis.T @ self.weighted_basis)
        penalty = stacked_penalty(effect)
        self.gram = data + penalty
        self.inverse, self.projector = _pseudo_inverse(data, penalty)

    def fit(self, u: np.ndarray) -> np.ndarray:
        rhs = (self.x.T @ u @ self.weighted_basis).ravel()
        return self.inverse @ rhs

    def surface(self, gamma: np.ndarray, x: np.ndarray | None = None) -> np.ndarray:
        x = self.x if x is None else x
        coef = gamma.reshape(self.x.shape[1], self.basis.shape[1])
        return x @ coef @ self.basis.T


def fit_base_learner(effect: EffectDesign, u: np.ndarray) -> np.ndarray:
    """Penalized least-squares coefficients for one effect against the
    stacked clr gradients ``u`` of shape (N, P)."""
    weights = effect.density_basis.measure.weights
    return _EffectSolver(effect, weights).fit(np.asarray(u, dtype=float))


def select_base_learner(
    effects: list[EffectDesign], gammas: list[np.ndarray], u: np.ndarray
) -> int:
    """Index of the base-learner with the smallest weighted residual sum of
    squares; ties break toward the lowest index."""
    weights = effects[0].density_basis.measure.weights
    rss = []
    for effect, gamma in zip(effects, gammas):
        solver = _EffectSolver(effect, weights)
        resid = u - solver.surface(gamma)
        rss.append(float(((resid ** 2) * weights).sum()))
    return int(np.argmin(rss))


# ---------------------------------------------------------------------------
# Brute-force clr loop
# ---------------------------------------------------------------------------

def _clr_loop(y_train, weights, solvers, kappa, n_iter, on_step, margins=None):
    """Refit every learner as an N x P surface s each iteration and choose
    the first of those that lower the weighted residual sum of squares
    |u - s|^2 most; ``on_step`` receives (j, gamma, fitted) of the chosen
    learner. The drop is summed as 2 <u, s> - <s, s>: as |u|^2 - |u - s|^2
    it would lose its digits to |u|^2 once the learners explain little of u.
    ``margins``, when given, receives the relative gap between the two
    largest drops of each iteration: inf with one learner, and 0 when no
    drop exceeds 1e-12 |u|^2 of the first iteration's u: the residuals keep
    the rounding of the responses' scale, so the drops of a fit that has
    nearly reached the responses are rounding."""
    fitted = np.tile(y_train.mean(axis=0), (y_train.shape[0], 1))
    floor = 1e-12 * float((4.0 * (y_train - fitted) ** 2 * weights).sum())
    for _ in range(n_iter):
        u = 2.0 * (y_train - fitted)
        drops, fits = [], []
        for solver in solvers:
            gamma = solver.fit(u)
            surface = solver.surface(gamma)
            drops.append(float(((surface * (2.0 * u - surface)) * weights).sum()))
            fits.append((gamma, surface))
        best_j = int(np.argmax(drops))
        if margins is not None:
            second = max(drops[:best_j] + drops[best_j + 1:], default=-np.inf)
            margins.append((drops[best_j] - second) / drops[best_j]
                           if drops[best_j] > floor else 0.0)
        gamma, surface = fits[best_j]
        fitted = fitted + kappa * surface
        on_step(best_j, gamma, fitted)
    return fitted


def brute_force_boost(y_clr, measure, designs, config: BoostConfig, m_stop=None,
                      margins=None) -> FitState:
    """In-bag boosting fit by the brute-force clr loop; ``margins`` as in
    :func:`_clr_loop`."""
    y_clr = np.asarray(y_clr, dtype=float)
    weights = measure.weights
    m_stop = config.max_iterations if m_stop is None else m_stop
    solvers = [_EffectSolver(d, weights) for d in designs]
    offset_clr = y_clr.mean(axis=0)
    theta = [np.zeros(d.n_cov * d.density_basis.n_basis) for d in designs]
    selections = []
    risk = [float((((y_clr - offset_clr) ** 2) * weights).sum())]

    def on_step(j, gamma, fitted):
        theta[j] = theta[j] + config.step_length * gamma
        selections.append(j)
        risk.append(float((((y_clr - fitted) ** 2) * weights).sum()))

    fitted = _clr_loop(y_clr, weights, solvers, config.step_length, m_stop, on_step, margins)
    return FitState(offset_clr, theta, fitted, selections, np.asarray(risk), m_stop)


def brute_force_heldout_curve(y_clr, weights, designs, config, train_idx, test_idx,
                              selections=None, margins=None):
    """Out-of-sample risk per test density after each iteration of a fit on
    ``train_idx`` (which may repeat rows); the chosen learners are appended
    to ``selections`` when it is given, and ``margins`` as in
    :func:`_clr_loop`."""
    y_train, y_test = y_clr[train_idx], y_clr[test_idx]
    solvers = [_EffectSolver(d, weights, rows=train_idx) for d in designs]
    fit_test = [np.tile(y_train.mean(axis=0), (len(test_idx), 1))]
    curve = [float((((y_test - fit_test[0]) ** 2) * weights).sum()) / len(test_idx)]

    def on_step(j, gamma, _fitted):
        if selections is not None:
            selections.append(j)
        surface = solvers[j].surface(gamma, designs[j].X[test_idx])
        fit_test[0] = fit_test[0] + config.step_length * surface
        curve.append(float((((y_test - fit_test[0]) ** 2) * weights).sum()) / len(test_idx))

    _clr_loop(y_train, weights, solvers, config.step_length, config.max_iterations, on_step,
              margins)
    return np.asarray(curve)


def resample_splits(n: int, config: BoostConfig) -> list:
    """(train, test) row indices per resample, drawn as the library draws them."""
    rng = np.random.default_rng(config.seed)
    splits = []
    if config.stopping == "cv":
        k = min(config.folds, n)
        folds = np.array_split(rng.permutation(n), k)
        for i in range(k):
            test = np.sort(folds[i])
            train = np.sort(np.concatenate([folds[j] for j in range(k) if j != i]))
            splits.append((train, test))
    else:
        for _ in range(config.replicates):
            while True:
                draw = rng.integers(0, n, size=n)
                oob = np.setdiff1d(np.arange(n), draw)
                if oob.size:
                    break
            splits.append((np.sort(draw), oob))
    return splits


def brute_force_early_stop(y_clr, measure, designs, config: BoostConfig):
    """Resampled stopping by the brute-force clr loop; returns the result and
    the held-out curve of every resample."""
    curves = [
        brute_force_heldout_curve(y_clr, measure.weights, designs, config, train, test)
        for train, test in resample_splits(y_clr.shape[0], config)
    ]
    mean_curve = np.mean(np.stack(curves), axis=0)
    m_stop = int(np.argmin(mean_curve[1:]) + 1)
    return EarlyStopResult(m_stop, mean_curve), curves


# ---------------------------------------------------------------------------
# Density-space formulation
# ---------------------------------------------------------------------------

def boost_density_space(
    responses: list[DensityElement],
    designs: list[EffectDesign],
    config: BoostConfig,
    m_stop: int | None = None,
) -> FitState:
    """The boosting loop carried out on density representatives.

    State evolves through perturbation and powering of positive densities
    rather than linear updates of clr vectors; inner products come from the
    density-space inner product. The library's clr kernel must produce the
    same selections and coefficient paths.
    """
    measure = responses[0].measure
    m_stop = config.max_iterations if m_stop is None else m_stop
    n = len(responses)
    kappa = config.step_length
    weights = measure.weights

    basis_densities = [
        [clr_inv(ClrElement(measure, col)) for col in d.density_basis.clr_matrix.T]
        for d in designs
    ]
    basis_clr = [
        np.stack([clr(b).values for b in cols]) if cols else np.empty((0, measure.size))
        for cols in basis_densities
    ]
    grams = []
    for d, cols in zip(designs, basis_densities):
        k = len(cols)
        g = np.empty((k, k))
        for a in range(k):
            for b in range(a, k):
                g[a, b] = g[b, a] = inner(cols[a], cols[b])
        grams.append(np.kron(d.X.T @ d.X, g) + stacked_penalty(d))
    factors = [_factor(g) for g in grams]

    start = offset(responses)
    current = [start for _ in range(n)]
    theta = [np.zeros(d.n_cov * d.density_basis.n_basis) for d in designs]
    selections: list[int] = []
    risk = [sum(norm(subtract(y, h)) ** 2 for y, h in zip(responses, current))]

    def compose(cols: list[DensityElement], coef: np.ndarray) -> DensityElement:
        out = np.ones(measure.size)
        for c, b in zip(coef, cols):
            out = out * (b.values ** c)
        return density(measure, out)

    for _ in range(m_stop):
        gradients = [negative_gradient(y, h) for y, h in zip(responses, current)]
        grad_clr = np.stack([clr(u).values for u in gradients])
        best = None
        for j, d in enumerate(designs):
            cross = grad_clr @ (basis_clr[j].T * weights[:, None])  # (N, K_Y)
            rhs = (d.X.T @ cross).ravel()
            gamma = cho_solve(factors[j], rhs)
            coef = gamma.reshape(d.n_cov, -1)
            fits = [compose(basis_densities[j], coef.T @ d.X[i]) for i in range(n)]
            rss = sum(
                norm(subtract(u, fit)) ** 2 for u, fit in zip(gradients, fits)
            )
            if best is None or rss < best[1]:
                best = (j, rss, gamma, fits)
        j_star, _, gamma, fits = best
        theta[j_star] = theta[j_star] + kappa * gamma
        current = [perturb(h, power(kappa, fit)) for h, fit in zip(current, fits)]
        selections.append(j_star)
        risk.append(sum(norm(subtract(y, h)) ** 2 for y, h in zip(responses, current)))

    return FitState(
        offset_clr=clr(start).values,
        coefficients=theta,
        fitted_clr=np.stack([clr(h).values for h in current]),
        selections=selections,
        risk_path=np.asarray(risk),
        m_stop=m_stop,
    )
