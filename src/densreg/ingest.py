"""Turn individual-level weighted observations into mixed densities.

Shares live on [0, 1] with genuine point masses at the boundaries: the
measure must be mixed on [0, 1] with atoms at 0 and 1, of any weights
(:func:`check_share_measure`, which the ``estimate`` command also calls on
its configured measure). Exact boundary values become
atom probabilities; interior values feed a weighted kernel density estimate with
boundary-respecting beta kernels, normalized on the evaluation grid. Each
group's density is one row of values in the measure's layout (atoms, then
grid), checked like every density row: a positivity floor keeps every value
strictly positive, so the row is a valid point of the density space. All
groups of one run share the bandwidth of :func:`shared_bandwidth`, the one
place that decides it.

The estimators build each kernel matrix as one BLAS product: the beta
parameters and log B of every evaluation point form an (n_t x 3) matrix, the
logs of the data a (3 x n) one, and their product is exponentiated in place.
What remains per matrix is linear in the evaluation points: three
``math.lgamma`` calls each, for log B.

An :class:`ObservationGroup` is split into its boundary and interior values
once, when it is made, and its arrays are read-only, so every estimator reads
the same split. A group whose interior values all have zero weight is treated
like one without interior values.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

from .bayes import check_density_values
from .measure import ReferenceMeasure, integrate
from .records import KdeConfig

__all__ = [
    "ObservationGroup",
    "KdeConfig",
    "kde",
    "ucv_score",
    "select_bandwidth",
    "shared_bandwidth",
    "check_share_measure",
    "assemble_mixed",
    "group_table",
    "group_name",
    "naming_group",
]

_BOUNDARY_TOL = 1e-12
DEFAULT_BANDWIDTH = 0.02


class ObservationGroup:
    """Weighted observations of one covariate combination ``key``, split once
    into the boundary and the interior when the group is made.

    Weights are normalized to sum to one; values must lie in [0, 1].
    ``at_zero``, ``at_one`` and ``interior`` mark the values at 0, at 1 and
    strictly inside; an interior whose values all have zero weight counts as
    none, so that such a group has no kernel part. ``interior_values`` and
    ``interior_weights`` are the interior values and their weights,
    renormalized to sum to one (empty without an interior). Every array is
    read-only.
    """

    def __init__(self, values, weights, key: tuple = ()):
        # copies, as the arrays are made read-only below
        values = np.array(values, dtype=float)
        weights = np.array(weights, dtype=float)
        self.key = key
        if values.size == 0:
            raise ValueError("a group needs at least one observation")
        if values.shape != weights.shape:
            raise ValueError("values and weights must align")
        if np.any((values < 0) | (values > 1)):
            raise ValueError("values must lie in [0, 1]")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        total = weights.sum()
        if total <= 0:
            raise ValueError("total weight must be positive")
        self.values, self.weights = values, weights / total
        self.at_zero = np.abs(values) < _BOUNDARY_TOL
        self.at_one = np.abs(values - 1.0) < _BOUNDARY_TOL
        inside = ~(self.at_zero | self.at_one)
        self.interior = inside & (self.weights[inside].sum() > 0)
        self.interior_values = values[self.interior]
        w = self.weights[self.interior]
        self.interior_weights = w / w.sum()
        for arr in (self.values, self.weights, self.at_zero, self.at_one, self.interior,
                    self.interior_values, self.interior_weights):
            arr.setflags(write=False)

    def boundary_shares(self) -> tuple[float, float, float]:
        """(p0, p1, p_interior), summing to one exactly."""
        p0 = float(self.weights[self.at_zero].sum())
        p1 = float(self.weights[self.at_one].sum())
        return p0, p1, 1.0 - p0 - p1


def _rho(t: np.ndarray, b: float) -> np.ndarray:
    return 2.0 * b**2 + 2.5 - np.sqrt(
        4.0 * b**4 + 6.0 * b**2 + 2.25 - t**2 - t / b
    )


def _shape_parameters(t: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Beta parameters (p, q) at each evaluation point: Beta(t/b, (1-t)/b) in
    the middle, rho(t) for p within 2b of 0 and rho(1-t) for q within 2b of 1
    (Chen 1999). Where both boundary ranges hold (b > 0.5), the right one wins."""
    p = t / b
    q = (1.0 - t) / b
    left = t < 2.0 * b
    right = t > 1.0 - 2.0 * b
    p[left & ~right] = _rho(t[left & ~right], b)
    q[right] = _rho(1.0 - t[right], b)
    return p, q


def _log_beta(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log B(p, q) elementwise, one ``math.lgamma`` per value; NaN where a
    shape parameter is not positive."""
    ok = (p > 0) & (q > 0)
    out = np.full(p.shape, np.nan)
    p, q = p[ok], q[ok]

    def lgamma(v):
        return np.fromiter(map(math.lgamma, v.tolist()), float, v.size)

    out[ok] = lgamma(p) + lgamma(q) - lgamma(p + q)
    return out


def _check_kernel_arguments(t: np.ndarray, b: float, x: np.ndarray) -> None:
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    if np.any((t < 0) | (t > 1)) or np.any((x < 0) | (x > 1)):
        raise ValueError("kernel arguments must lie in [0, 1]")


def _raw_kde_matrix(points: np.ndarray, data: np.ndarray, b: float) -> np.ndarray:
    """Kernel values K[t_i, x_l] for evaluation points ``points`` and data
    strictly inside (0, 1).

    The exponent is one (n_t x 3) @ (3 x n) product,
    [p-1, q-1, -log B] @ [log x; log(1-x); 1], exponentiated in place.
    """
    _check_kernel_arguments(points, b, data)
    if np.any((data <= 0) | (data >= 1)):
        raise ValueError("kernel data must lie strictly inside (0, 1)")
    p, q = _shape_parameters(points, b)
    shapes = np.stack([p - 1.0, q - 1.0, -_log_beta(p, q)], axis=1)
    logs = np.stack([np.log(data), np.log1p(-data), np.ones_like(data)])
    out = shapes @ logs
    np.exp(out, out=out)
    return out


def kde(
    group: ObservationGroup, measure: ReferenceMeasure, b: float
) -> np.ndarray:
    """Normalized weighted beta-kernel estimate on the measure's grid.

    Uses only the interior observations; the returned values integrate to
    one against the grid quadrature.
    """
    if not group.interior.any():
        raise ValueError("no interior observations to smooth")
    raw = _raw_kde_matrix(measure.grid, group.interior_values, b) @ group.interior_weights
    total = float(raw @ measure.grid_weights)
    if total <= 0:
        raise ValueError("kernel estimate vanished on the grid")
    return raw / total


def ucv_score(group: ObservationGroup, measure: ReferenceMeasure, b: float) -> float:
    """Cross-validation score for one bandwidth on the interior observations.

    Estimates the integrated squared error of the normalized estimate up to a
    constant: the squared integral of the estimate minus twice the weighted
    average of leave-one-out estimates at the left-out points. One kernel
    matrix with the G grid points and the n data points as rows gives both
    terms; beyond its (G + n) x n product and exponential, the cost is one
    log B, three ``math.lgamma`` calls, per row.
    """
    data, w = group.interior_values, group.interior_weights
    if w.size < 2:
        raise ValueError("cross-validation needs at least two interior points")
    if w.max() >= 1.0:
        raise ValueError("cannot leave out an observation carrying all weight")
    # grid rows (G, n) and data rows (n, n) in one evaluation
    kernel = _raw_kde_matrix(np.concatenate([measure.grid, data]), data, b)
    grid_mat, point_mat = kernel[: measure.n_grid], kernel[measure.n_grid :]
    raw_full = grid_mat @ w
    norm_full = float(raw_full @ measure.grid_weights)
    fhat = raw_full / norm_full
    term1 = float((fhat**2) @ measure.grid_weights)
    # leave-one-out estimates at the left-out points, all points at once
    raw_wo = (point_mat @ w - w * np.diagonal(point_mat)) / (1.0 - w)
    norm_wo = (norm_full - w * (measure.grid_weights @ grid_mat)) / (1.0 - w)
    term2 = float((w * raw_wo / norm_wo).sum())
    return term1 - 2.0 * term2


def select_bandwidth(
    group: ObservationGroup, measure: ReferenceMeasure, cfg: KdeConfig
) -> float:
    """Bandwidth minimizing the cross-validation score over the config grid."""
    scores = [ucv_score(group, measure, b) for b in cfg.bandwidth_grid]
    return float(cfg.bandwidth_grid[int(np.argmin(scores))])


def shared_bandwidth(
    groups: list, measure: ReferenceMeasure, cfg: KdeConfig, key_columns: list
) -> float:
    """The one bandwidth of all groups: the configured one, else the smallest
    cross-validated optimum over the groups with at least three interior
    values, else the default of 0.02. A failing group is named."""
    if not isinstance(cfg.bandwidth, str):
        return float(cfg.bandwidth)
    optima = []
    for g in groups:
        if g.interior_values.size >= 3:
            with naming_group(key_columns, g.key):
                optima.append(select_bandwidth(g, measure, cfg))
    return min(optima, default=DEFAULT_BANDWIDTH)


def check_share_measure(measure: ReferenceMeasure) -> None:
    """Shares need a mixed measure on [0, 1] with atoms at 0 and 1, of any
    weights; raises ValueError on any other measure."""
    if not (measure.is_mixed and measure.interval == (0.0, 1.0)
            and measure.atom_locations.tolist() == [0.0, 1.0]):
        raise ValueError("expected a mixed measure on [0, 1] with atoms at both boundaries")


def assemble_mixed(
    group: ObservationGroup,
    measure: ReferenceMeasure,
    cfg: KdeConfig,
    bandwidth: float,
) -> np.ndarray:
    """The mixed density row of one group with the kernel ``bandwidth``.

    Atom values carry the weighted boundary frequencies (scaled by the atom
    weights), the grid carries the interior share times the kernel estimate.
    All values are floored at ``cfg.floor`` times the uniform level and the
    row is renormalized to integrate to one.
    """
    check_share_measure(measure)
    p0, p1, p_int = group.boundary_shares()
    if group.interior.any() and p_int > 0:
        grid_part = p_int * kde(group, measure, bandwidth)
    else:
        grid_part = np.zeros(measure.n_grid)
    values = np.concatenate(
        [[p0 / measure.atom_weights[0], p1 / measure.atom_weights[1]], grid_part]
    )
    floor = cfg.floor / measure.total_mass
    values = np.maximum(values, floor)
    row = values / integrate(measure, values)
    check_density_values(row)
    return row


def group_table(table: dict, key_columns: list):
    """Split a column table with "value" and "weight" columns into
    observation groups by key columns.

    Returns (groups, skipped): the groups in sorted key order, for
    reproducibility, and the keys of the groups with zero total weight,
    which are left out.
    """
    keys = {}
    for i in range(len(table["value"])):
        keys.setdefault(tuple(str(table[c][i]) for c in key_columns), []).append(i)
    values, weights = (np.asarray(table[c], dtype=float) for c in ("value", "weight"))
    out, skipped = [], []
    for key in sorted(keys):
        idx = keys[key]
        if weights[idx].sum() <= 0:
            skipped.append(key)
            continue
        with naming_group(key_columns, key):
            out.append(ObservationGroup(values[idx], weights[idx], key))
    return out, skipped


def group_name(key_columns: list, key: tuple) -> str:
    """``col=value`` pairs naming one observation group in messages."""
    return ", ".join(f"{c}={v}" for c, v in zip(key_columns, key))


@contextlib.contextmanager
def naming_group(key_columns: list, key: tuple):
    """Prefix a ValueError about one observation group with the group's name."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"group {group_name(key_columns, key)}: {exc}") from exc
