"""File formats and configuration handling for the batch front-end.

All tabular output is tab-separated text with a one-line header. Density
files are self-describing: the first line carries the reference measure
(interval, atoms, grid size), so a file can be read back without external
context. Floats are written with ``repr``, which round-trips exactly.

Run configurations are JSON with strict validation: unknown keys are
rejected and every diagnostic carries the path of the offending field.

Model files are JSON objects with ``"format": "densreg-model"`` and
``"version": 1``; anything else is a :class:`DataError`. Version-1 fields:

* ``measure``: ``interval`` (or null), ``atoms`` ([location, weight] pairs),
  ``grid_size``; then ``coding`` and ``references``;
* ``covariates``: by name, ``kind`` "categorical" with sorted ``levels`` or
  "numeric" with the training range ``lo``, ``hi``; each with ``reference``;
* ``terms``: in order, the effect-term fields (``name``, ``kind``,
  ``covariates``, ``df``, ``knots``, ``degree``, ``penalty_order``,
  ``orthogonal_to``), then ``transform`` (raw to constrained columns, or
  null), ``lambda_cov``, ``target_df`` (absent in files of earlier writers,
  read as ``df``), ``achieved_df`` and ``knot_vectors``;
* ``density_basis``: ``knots``, ``degree``, ``penalty_order``, ``lambda_density``;
* ``bases``: per component ("single", or "continuous" and "discrete"),
  ``kind`` ("bspline" or "indicator"), sum-to-zero ``transform``, ``measure``;
* ``fits``: per component, the clr ``offset``, one flat ``coefficients``
  vector per term (covariate columns x density basis), ``selections``,
  ``risk_path``, ``m_stop`` and ``stop_curve`` (or null).
"""
from __future__ import annotations

import json

import numpy as np

from .bayes import DensityElement
from .measure import ReferenceMeasure, make_discrete, make_mixed
from .model import FittedModel

__all__ = [
    "ConfigError",
    "DataError",
    "fmt",
    "write_table",
    "read_table",
    "measure_header",
    "parse_measure_header",
    "write_density_file",
    "read_density_file",
    "model_to_dict",
    "model_from_dict",
    "load_config",
    "validate_config",
]


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""


class DataError(ValueError):
    """Malformed input data file."""


def fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_table(path, header: list, rows) -> None:
    with open(path, "w") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(fmt(v) for v in row) + "\n")


def read_table(path) -> tuple[list, list]:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split("\t")
    rows = [ln.split("\t") for ln in lines[1:] if ln]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: line {i + 2} has {len(row)} fields, expected {len(header)}")
    return header, rows


# ---------------------------------------------------------------------------
# Density files
# ---------------------------------------------------------------------------

def measure_header(m: ReferenceMeasure) -> str:
    interval = "none" if m.interval is None else f"{fmt(m.interval[0])}:{fmt(m.interval[1])}"
    atoms = (
        ";".join(f"{fmt(l)}:{fmt(w)}" for l, w in zip(m.atom_locations, m.atom_weights))
        or "none"
    )
    return f"#measure\tinterval={interval}\tatoms={atoms}\tgrid={m.n_grid}"


def parse_measure_header(line: str) -> ReferenceMeasure:
    parts = line.split("\t")
    if not parts or parts[0] != "#measure":
        raise DataError("density file must start with a #measure header line")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise DataError(f"malformed measure field {part!r}")
        key, val = part.split("=", 1)
        fields[key] = val
    try:
        atoms = []
        if fields.get("atoms", "none") != "none":
            for chunk in fields["atoms"].split(";"):
                loc, w = chunk.split(":")
                atoms.append((float(loc), float(w)))
        grid = int(fields.get("grid", "0"))
        if fields.get("interval", "none") == "none":
            if grid:
                raise DataError("a grid requires an interval")
            return make_discrete(atoms)
        a, b = fields["interval"].split(":")
        return make_mixed(float(a), float(b), atoms, grid)
    except (KeyError, ValueError) as exc:
        if isinstance(exc, DataError):
            raise
        raise DataError(f"malformed measure header: {exc}") from exc


def write_density_file(path, measure: ReferenceMeasure, key_columns, keys, densities):
    """One row per group: key values, then density values (atoms, then grid)."""
    cols = list(key_columns)
    cols += [f"atom:{fmt(l)}" for l in measure.atom_locations]
    cols += [f"g:{i}" for i in range(measure.n_grid)]
    with open(path, "w") as fh:
        fh.write(measure_header(measure) + "\n")
        fh.write("\t".join(cols) + "\n")
        for key, dens in zip(keys, densities):
            values = dens.values if isinstance(dens, DensityElement) else np.asarray(dens)
            fh.write(
                "\t".join(list(map(str, key)) + [fmt(v) for v in values]) + "\n"
            )


def read_density_file(path):
    """Returns (measure, key_columns, keys, densities)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    if len(lines) < 2:
        raise DataError(f"{path}: missing header lines")
    measure = parse_measure_header(lines[0])
    header = lines[1].split("\t")
    n_values = measure.size
    if len(header) < n_values:
        raise DataError(f"{path}: header shorter than the measure layout")
    key_columns = header[: len(header) - n_values]
    keys, densities = [], []
    for i, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        row = ln.split("\t")
        if len(row) != len(header):
            raise DataError(f"{path}: line {i} has {len(row)} fields, expected {len(header)}")
        keys.append(tuple(row[: len(key_columns)]))
        try:
            values = np.array([float(v) for v in row[len(key_columns):]])
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
        if np.any(values <= 0):
            raise DataError(f"{path}: line {i}: density values must be positive")
        densities.append(DensityElement(measure, values))
    return measure, key_columns, keys, densities


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_to_dict(model) -> dict:
    """Serialize a fitted model with everything prediction needs."""
    return {"format": "densreg-model", "version": 1, **model.to_dict()}


def model_from_dict(d) -> FittedModel:
    """Rebuild a fitted model from its serialized form; raises DataError on a
    file that is not a version-1 model file or does not hold a valid model."""
    if not isinstance(d, dict):
        raise DataError("model file: expected a JSON object")
    if d.get("format") != "densreg-model":
        raise DataError("not a model file")
    version = d.get("version")
    if type(version) is not int or version != 1:
        raise DataError(f"model file: unsupported version {version!r}")
    try:
        return FittedModel.from_dict(d)
    except KeyError as exc:
        raise DataError(f"model file: missing field {exc}") from exc
    except (TypeError, ValueError, AttributeError, IndexError) as exc:
        raise DataError(f"model file: {exc}") from exc


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

def _check_keys(d: dict, allowed: set, path: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")


def _require(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}: missing required key {key!r}")
    return d[key]


def _typed(value, types, path, type_name):
    if not isinstance(value, types) or isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise ConfigError(f"{path}: expected {type_name}")
    return value


def _integer(section: dict, key: str, default: int, path: str) -> int:
    return _typed(section.get(key, default), (int,), f"{path}.{key}", "an integer")


def _strings(value, path: str) -> list:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{path}: expected a list of strings")
    return list(value)


def validate_config(raw: dict) -> dict:
    """Validate and normalize a run configuration.

    Returns a new dict with defaults filled in; raises ConfigError with a
    field path on the first problem found.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    _check_keys(
        raw,
        {"seed", "threads", "data", "measure", "kde", "model", "boosting",
         "simulation", "interpret", "out"},
        "config",
    )
    cfg = {
        "seed": int(_typed(raw.get("seed", 0), (int,), "config.seed", "an integer")),
        "threads": int(_typed(raw.get("threads", 1), (int,), "config.threads", "an integer")),
        "out": raw.get("out"),
    }
    if cfg["threads"] < 1:
        raise ConfigError("config.threads: must be at least 1")

    data = raw.get("data", {})
    _check_keys(data, {"observations", "densities", "newdata", "model"}, "config.data")
    cfg["data"] = {
        k: data.get(k) for k in ("observations", "densities", "newdata", "model")
    }

    measure = raw.get("measure")
    if measure is not None:
        _check_keys(measure, {"interval", "atoms", "grid_size"}, "config.measure")
        interval = measure.get("interval")
        if interval is not None:
            if (not isinstance(interval, list) or len(interval) != 2):
                raise ConfigError("config.measure.interval: expected [a, b]")
        atoms = measure.get("atoms", [])
        if not isinstance(atoms, list):
            raise ConfigError("config.measure.atoms: expected a list")
        parsed_atoms = []
        for i, atom in enumerate(atoms):
            _check_keys(atom, {"location", "weight"}, f"config.measure.atoms[{i}]")
            parsed_atoms.append(
                (
                    float(_require(atom, "location", f"config.measure.atoms[{i}]")),
                    float(atom.get("weight", 1.0)),
                )
            )
        cfg["measure"] = {
            "interval": interval,
            "atoms": parsed_atoms,
            "grid_size": int(measure.get("grid_size", 100)),
        }

    kde = raw.get("kde", {})
    _check_keys(kde, {"bandwidth", "bandwidth_grid", "floor"}, "config.kde")
    bandwidth = kde.get("bandwidth", "auto")
    if isinstance(bandwidth, str) and bandwidth != "auto":
        raise ConfigError("config.kde.bandwidth: expected 'auto' or a number")
    cfg["kde"] = {
        "bandwidth": bandwidth,
        "bandwidth_grid": kde.get("bandwidth_grid"),
        "floor": float(kde.get("floor", 1e-6)),
    }

    model = raw.get("model")
    if model is not None:
        _check_keys(
            model,
            {"coding", "references", "default_df", "density_basis", "terms"},
            "config.model",
        )
        coding = model.get("coding", "effect")
        if coding not in ("effect", "reference"):
            raise ConfigError("config.model.coding: expected 'effect' or 'reference'")
        db = model.get("density_basis", {})
        _check_keys(
            db, {"knots", "degree", "penalty_order", "lambda_density"},
            "config.model.density_basis",
        )
        terms = _require(model, "terms", "config.model")
        if not isinstance(terms, list) or not terms:
            raise ConfigError("config.model.terms: expected a nonempty list")
        parsed_terms = []
        for i, term in enumerate(terms):
            path = f"config.model.terms[{i}]"
            _check_keys(
                term,
                {"name", "kind", "covariates", "df", "knots", "degree",
                 "penalty_order", "orthogonal_to"},
                path,
            )
            df = term.get("df")
            if df is not None:
                _typed(df, (int, float), f"{path}.df", "a number or null")
            parsed_terms.append(
                {
                    "name": str(_require(term, "name", path)),
                    "kind": str(_require(term, "kind", path)),
                    "covariates": _strings(term.get("covariates", []), f"{path}.covariates"),
                    "df": df,
                    "knots": _integer(term, "knots", 8, path),
                    "degree": _integer(term, "degree", 3, path),
                    "penalty_order": _integer(term, "penalty_order", 2, path),
                    "orthogonal_to": _strings(
                        term.get("orthogonal_to", []), f"{path}.orthogonal_to"
                    ),
                }
            )
        references = model.get("references", {})
        if not isinstance(references, dict):
            raise ConfigError("config.model.references: expected an object")
        path = "config.model.density_basis"
        cfg["model"] = {
            "coding": coding,
            "references": dict(references),
            "default_df": float(
                _typed(model.get("default_df", 2.0), (int, float), "config.model.default_df",
                       "a number")
            ),
            "density_basis": {
                "knots": _integer(db, "knots", 10, path),
                "degree": _integer(db, "degree", 3, path),
                "penalty_order": _integer(db, "penalty_order", 2, path),
                "lambda_density": float(
                    _typed(db.get("lambda_density", 0.0), (int, float),
                           f"{path}.lambda_density", "a number")
                ),
            },
            "terms": parsed_terms,
        }

    boosting = raw.get("boosting", {})
    _check_keys(
        boosting, {"step_length", "max_iterations", "stopping"}, "config.boosting"
    )
    stopping = boosting.get("stopping", {})
    _check_keys(
        stopping, {"method", "m_stop", "folds", "replicates"}, "config.boosting.stopping"
    )
    method = stopping.get("method", "fixed")
    if method not in ("fixed", "cv", "bootstrap"):
        raise ConfigError(
            "config.boosting.stopping.method: expected 'fixed', 'cv', or 'bootstrap'"
        )
    path = "config.boosting"
    step_length = float(
        _typed(boosting.get("step_length", 0.1), (int, float), f"{path}.step_length", "a number")
    )
    if not 0.0 < step_length < 1.0:
        raise ConfigError(f"{path}.step_length: must lie in (0, 1)")
    max_iterations = _integer(boosting, "max_iterations", 250, path)
    if max_iterations < 1:
        raise ConfigError(f"{path}.max_iterations: must be at least 1")
    m_stop = stopping.get("m_stop")
    if m_stop is not None:
        _typed(m_stop, (int,), f"{path}.stopping.m_stop", "an integer or null")
        if not 0 <= m_stop <= max_iterations:
            raise ConfigError(f"{path}.stopping.m_stop: must lie in [0, max_iterations]")
    folds = _integer(stopping, "folds", 10, f"{path}.stopping")
    if folds < 2:
        raise ConfigError(f"{path}.stopping.folds: must be at least 2")
    replicates = _integer(stopping, "replicates", 25, f"{path}.stopping")
    if replicates < 1:
        raise ConfigError(f"{path}.stopping.replicates: must be at least 1")
    cfg["boosting"] = {
        "step_length": step_length,
        "max_iterations": max_iterations,
        "stopping": {
            "method": method,
            "m_stop": m_stop,
            "folds": folds,
            "replicates": replicates,
        },
    }

    simulation = raw.get("simulation", {})
    _check_keys(
        simulation, {"replicates", "truncation", "noise_scale"}, "config.simulation"
    )
    cfg["simulation"] = {
        "replicates": int(simulation.get("replicates", 20)),
        "truncation": simulation.get("truncation"),
        "noise_scale": float(simulation.get("noise_scale", 1.0)),
    }
    if cfg["simulation"]["replicates"] < 1:
        raise ConfigError("config.simulation.replicates: must be at least 1")
    if cfg["simulation"]["noise_scale"] < 0:
        raise ConfigError("config.simulation.noise_scale: must be nonnegative")

    interpret = raw.get("interpret", {})
    _check_keys(
        interpret,
        {"effects", "odds", "did", "heatmap_resolution", "svg"},
        "config.interpret",
    )
    cfg["interpret"] = {
        "effects": interpret.get("effects", []),
        "odds": interpret.get("odds", []),
        "did": interpret.get("did", []),
        "heatmap_resolution": int(interpret.get("heatmap_resolution", 25)),
        "svg": bool(interpret.get("svg", False)),
    }
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return validate_config(raw)
