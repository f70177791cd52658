"""The records that config validation (:func:`densreg.io.run_objects`) and
model loading (:func:`densreg.model.load_fields`) build. They live below the
kernels that use them, which re-export them, so that reading a config or a
model file imports neither :mod:`densreg.boosting` nor :mod:`densreg.ingest`
(see :mod:`densreg.cli`). Only numpy is imported; the measure check that
shares need lives with the estimator, in :mod:`densreg.ingest`.

A fit is one :class:`FitState` per component of the response measure, by
name (``FittedModel.states`` in :mod:`densreg.model`), for single and mixed
measures alike; no record holds the components together.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

__all__ = ["BoostConfig", "FitState", "KdeConfig"]


@dataclass(frozen=True)
class BoostConfig:
    """Settings for one boosting run.

    ``stopping`` selects how the number of iterations is chosen: "fixed" uses
    ``m_stop`` (at most and by default ``max_iterations``), "cv" k-fold
    cross-validation, "bootstrap" out-of-bag risk over resampled density sets.

    The counts are integers (numpy integers included, bools refused), as the
    run configuration's table requires of its keys: ``max_iterations`` and
    ``replicates`` at least 1, ``folds`` at least 2, ``m_stop`` (or None)
    and ``seed`` nonnegative. A non-integer count would fail only inside the
    kernel, and too few folds or replicates would leave the stop curve
    empty. The seed makes resampled stopping draw the same folds or
    replicates on every run: a seed of None would draw them from OS entropy.

    ``threads`` and ``target_df`` are accepted but not read by the library;
    they remain because the benchmark tracer (``perfbench/trace.py``) still
    sets them. The tracer also derives configs with ``dataclasses.replace``,
    as do :func:`densreg.model.fit` (each component's seed) and
    :func:`densreg.boosting.boost_from_clr` (a fixed stop), which is why
    this is the package's one dataclass: every other record is a plain class
    or a NamedTuple, which generate no code when defined and so keep
    start-up short. It lives in :mod:`densreg.records`, which
    :mod:`densreg.boosting` re-exports it from.
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
        if self.stopping not in ("fixed", "cv", "bootstrap"):
            raise ValueError(f"unknown stopping method {self.stopping!r}")
        for key, least in (("max_iterations", 1), ("m_stop", 0), ("folds", 2),
                           ("replicates", 1), ("seed", 0)):
            value = getattr(self, key)
            if key == "m_stop" and value is None:
                continue
            try:
                ok = not isinstance(value, bool) and operator.index(value) >= least
            except TypeError:
                ok = False
            if not ok:
                rule = "a nonnegative integer" if least == 0 else f"an integer of at least {least}"
                raise ValueError(f"{key} must be {rule}, got {value!r}")
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


class KdeConfig:
    """Bandwidth policy and positivity floor for density estimation; the
    bandwidth grid, which "auto" searches, defaults to 16 geometric steps
    from 0.005 to 0.2."""

    def __init__(self, bandwidth: float | str = "auto", bandwidth_grid=None,
                 floor: float = 1e-6):
        grid = np.geomspace(0.005, 0.2, 16) if bandwidth_grid is None else bandwidth_grid
        self.bandwidth, self.floor = bandwidth, floor
        self.bandwidth_grid = grid = np.asarray(grid, dtype=float)
        if not grid.size or np.any(grid <= 0) or np.any(np.diff(grid) <= 0):
            raise ValueError("bandwidth grid must be nonempty, positive and ascending")
        if isinstance(self.bandwidth, (int, float)) and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.floor <= 0:
            raise ValueError("positivity floor must be positive")
