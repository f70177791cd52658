"""Finite reference measures on a bounded interval or finite point set.

A measure consists of weighted Dirac atoms plus an optional Lebesgue part
represented by a midpoint quadrature rule. Every integral in the package is
evaluated against one of these measures, with value sequences laid out as
atoms first (in location order), then grid nodes. :func:`make_discrete` and
:func:`make_mixed` read atoms through one parser, which sorts them and
requires finite, distinct locations; :class:`ReferenceMeasure` checks that
every weight is positive.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ReferenceMeasure",
    "make_discrete",
    "make_mixed",
    "integrate",
]

_GRID_COLLISION_TOL = 1e-12


class ReferenceMeasure:
    """Finite measure: sum of positive Dirac atoms plus an optional
    Lebesgue part on (a, b) discretized by a midpoint rule.

    Attributes
    ----------
    interval : tuple or None
        Closed support interval (a, b) of the continuous part, None for a
        purely discrete measure.
    atom_locations, atom_weights : ndarray
        Atom positions (sorted, distinct) and their positive weights.
    grid, grid_weights : ndarray
        Interior quadrature nodes and weights; empty iff interval is None.
    total_mass : float
        Sum of all weights.
    weights, locations : ndarray
        Atom and quadrature weights, atom locations and grid nodes, in the
        layout of a value sequence (atoms first).

    Every array is read-only.
    """

    def __init__(self, interval: tuple[float, float] | None, atom_locations, atom_weights,
                 grid, grid_weights):
        self.interval = interval
        arrays = [np.asarray(a, dtype=float)
                  for a in (atom_locations, atom_weights, grid, grid_weights)]
        self.atom_locations, self.atom_weights, self.grid, self.grid_weights = arrays
        if self.atom_weights.size and np.any(self.atom_weights <= 0):
            raise ValueError("atom weights must be strictly positive")
        if self.grid_weights.size and np.any(self.grid_weights <= 0):
            raise ValueError("quadrature weights must be strictly positive")
        mass = float(self.atom_weights.sum() + self.grid_weights.sum())
        if not np.isfinite(mass) or mass <= 0:
            raise ValueError("total mass must be finite and positive")
        self.total_mass = mass
        self.weights = np.concatenate((self.atom_weights, self.grid_weights))
        self.locations = np.concatenate((self.atom_locations, self.grid))
        for arr in arrays + [self.weights, self.locations]:
            arr.setflags(write=False)

    @property
    def n_atoms(self) -> int:
        return self.atom_locations.size

    @property
    def n_grid(self) -> int:
        return self.grid.size

    @property
    def size(self) -> int:
        """Length of a value sequence aligned to this measure."""
        return self.n_atoms + self.n_grid

    @property
    def lebesgue_length(self) -> float:
        """Length of the continuous support, 0 for discrete measures."""
        if self.interval is None:
            return 0.0
        return self.interval[1] - self.interval[0]

    @property
    def is_mixed(self) -> bool:
        return self.n_atoms > 0 and self.n_grid > 0

    def check_values(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.size,):
            raise ValueError(
                f"value sequence has length {values.shape}, expected ({self.size},)"
            )
        return values

    def to_dict(self) -> dict:
        """Model-file fields: interval (or None), atoms as [location, weight]
        pairs, and grid size."""
        return {
            "interval": None if self.interval is None else [self.interval[0], self.interval[1]],
            "atoms": [[float(l), float(w)] for l, w in zip(self.atom_locations, self.atom_weights)],
            "grid_size": int(self.n_grid),
        }

    @staticmethod
    def from_dict(d: dict) -> "ReferenceMeasure":
        atoms = [tuple(a) for a in d["atoms"]]
        if d["interval"] is None:
            return make_discrete(atoms)
        a, b = d["interval"]
        return make_mixed(a, b, atoms, d["grid_size"])


def _atoms(points) -> tuple[np.ndarray, np.ndarray]:
    """Locations and weights of (location, weight) pairs, sorted by location,
    which must be finite and distinct."""
    locs = np.array([p[0] for p in points], dtype=float)
    weights = np.array([p[1] for p in points], dtype=float)
    order = np.argsort(locs, kind="stable")
    locs, weights = locs[order], weights[order]
    if not np.isfinite(locs).all() or np.any(np.diff(locs) == 0):
        raise ValueError("atom locations must be finite and distinct")
    return locs, weights


def make_discrete(points) -> ReferenceMeasure:
    """Build a purely discrete measure from (location, weight) pairs."""
    if not points:
        raise ValueError("a discrete measure needs at least one atom")
    locs, weights = _atoms(points)
    return ReferenceMeasure(
        interval=None,
        atom_locations=locs,
        atom_weights=weights,
        grid=np.empty(0),
        grid_weights=np.empty(0),
    )


def make_mixed(a: float, b: float, atoms, grid_size: int) -> ReferenceMeasure:
    """Mixed Dirac + Lebesgue measure on [a, b].

    The continuous part uses the midpoint rule on ``grid_size`` equal cells,
    so nodes lie strictly inside (a, b) and the weights sum to b - a exactly.
    Pass an empty ``atoms`` list for the purely continuous case.
    """
    if not b > a:
        raise ValueError("interval must satisfy a < b")
    if grid_size < 4:
        raise ValueError("grid_size must be at least 4")
    locs, weights = _atoms(atoms)
    if np.any((locs < a) | (locs > b)):
        raise ValueError("atom locations must lie within [a, b]")
    h = (b - a) / grid_size
    try:
        grid = a + h * (np.arange(grid_size) + 0.5)
    except MemoryError:
        raise ValueError(f"a grid of {grid_size} points cannot be allocated") from None
    if locs.size and np.min(np.abs(grid[:, None] - locs[None, :])) < _GRID_COLLISION_TOL:
        raise ValueError(
            "a quadrature node coincides with an interior atom; change grid_size"
        )
    return ReferenceMeasure(
        interval=(float(a), float(b)),
        atom_locations=locs,
        atom_weights=weights,
        grid=grid,
        grid_weights=np.full(grid_size, h),
    )


def integrate(m: ReferenceMeasure, values) -> float:
    """Integrate a value sequence against the measure."""
    values = m.check_values(values)
    return float(values @ m.weights)
