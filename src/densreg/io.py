"""File formats and configuration handling for the batch front-end.

All tabular output is tab-separated text with a one-line header. Density
files are self-describing: the first line carries the reference measure
(interval, atoms, grid size), so a file can be read back without external
context. Floats are written with ``repr``, which round-trips exactly.

Run configurations are JSON objects checked in one place. The table
``_CONFIG`` is the reference: it gives every key its JSON type, its default,
and its allowed strings or numeric bound; unknown keys are rejected.
:func:`validate_config` walks a config against it, then builds the run
objects (:func:`run_objects`), so the library constructors check the rules
that span several keys: ``a < b`` and atoms inside the interval (measure),
the term kind and its covariate count (``EffectTerm``), unique term names
(``ModelSpec``), an ascending bandwidth grid (``KdeConfig``). Every problem
is a :class:`ConfigError` whose message starts with the path of the field,
such as ``config.model.terms[2].knots``, or of its section. A command that
needs more than the defaults (data paths, a measure, a model) checks that in
:func:`run_objects`. The command-line front-end exits with 0 on success,
2 on a config error, 3 on a data error (:class:`DataError` or another
``ValueError`` from the input files) and 4 on a numeric failure.

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

import copy
import json
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bayes import DensityElement
from .boosting import BoostConfig
from .ingest import KdeConfig
from .measure import ReferenceMeasure, make_discrete, make_mixed
from .model import EffectTerm, FittedModel, ModelSpec

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
    "RunObjects",
    "run_objects",
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
    except (TypeError, ValueError, AttributeError, IndexError, OverflowError) as exc:
        raise DataError(f"model file: {exc}") from exc


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_REQUIRED = object()    # the key must be given
_OPTIONAL = object()    # no default: an absent (or null) key stays absent


class _Key(NamedTuple):
    """One row of the config table.

    ``type`` joins JSON types with "|": "integer", "number" (kept as given),
    "float" (a number, normalized to float), "string", "boolean", "array",
    "object", "null". ``bound`` is an interval such as "[1, inf)" on a number,
    or on the length of an array; a limit may name an earlier key of the same
    or an enclosing section. ``choices`` lists the allowed strings. ``items``
    is the type of the items of an array, or of the values of an object whose
    keys are free (covariate names).
    """

    type: str
    default: object = _REQUIRED
    bound: str | None = None
    choices: tuple = ()
    items: str | None = None


# Paths name the key ``b`` of section ``a`` as "a.b", and the key ``b`` of
# the objects in array ``a`` as "a[].b". Sections are walked in table order.
_CONFIG = {
    "seed": _Key("integer", 0, "[0, inf)"),
    "threads": _Key("integer", 1, "[1, inf)"),
    "out": _Key("string|null", None),
    "data": _Key("object", {}),
    "data.observations": _Key("string|null", None),
    "data.densities": _Key("string|null", None),
    "data.newdata": _Key("string|null", None),
    "data.model": _Key("string|null", None),
    "measure": _Key("object|null", _OPTIONAL),
    "measure.interval": _Key("array|null", None, "[2, 2]", items="number"),
    "measure.atoms": _Key("array", [], items="object"),
    "measure.atoms[].location": _Key("float"),
    "measure.atoms[].weight": _Key("float", 1.0, "(0, inf)"),
    "measure.grid_size": _Key("integer", 100),
    "kde": _Key("object", {}),
    "kde.bandwidth": _Key("string|number", "auto", "(0, inf)", ("auto",)),
    "kde.bandwidth_grid": _Key("array|null", None, "[1, inf)", items="number"),
    "kde.floor": _Key("float", 1e-6, "(0, inf)"),
    "model": _Key("object|null", _OPTIONAL),
    "model.coding": _Key("string", "effect", choices=("effect", "reference")),
    "model.references": _Key("object", {}, items="string|number"),
    "model.default_df": _Key("float", 2.0, "[0, inf)"),
    "model.density_basis": _Key("object", {}),
    "model.density_basis.knots": _Key("integer", 10, "[0, inf)"),
    "model.density_basis.degree": _Key("integer", 3, "[0, inf)"),
    "model.density_basis.penalty_order": _Key("integer", 2, "[0, inf)"),
    "model.density_basis.lambda_density": _Key("float", 0.0, "[0, inf)"),
    "model.terms": _Key("array", bound="[1, inf)", items="object"),
    "model.terms[].name": _Key("string"),
    "model.terms[].kind": _Key("string"),
    "model.terms[].covariates": _Key("array", [], items="string"),
    "model.terms[].df": _Key("number|null", None, "[0, inf)"),
    "model.terms[].knots": _Key("integer", 8, "[0, inf)"),
    "model.terms[].degree": _Key("integer", 3, "[0, inf)"),
    "model.terms[].penalty_order": _Key("integer", 2, "[0, inf)"),
    "model.terms[].orthogonal_to": _Key("array", [], items="string"),
    "boosting": _Key("object", {}),
    "boosting.step_length": _Key("float", 0.1, "(0, 1)"),
    "boosting.max_iterations": _Key("integer", 250, "[1, inf)"),
    "boosting.stopping": _Key("object", {}),
    "boosting.stopping.method": _Key("string", "fixed", choices=("fixed", "cv", "bootstrap")),
    "boosting.stopping.m_stop": _Key("integer|null", None, "[0, max_iterations]"),
    "boosting.stopping.folds": _Key("integer", 10, "[2, inf)"),
    "boosting.stopping.replicates": _Key("integer", 25, "[1, inf)"),
    "simulation": _Key("object", {}),
    "simulation.replicates": _Key("integer", 20, "[1, inf)"),
    "simulation.truncation": _Key("integer|null", None, "[1, inf)"),
    "simulation.noise_scale": _Key("float", 1.0, "[0, inf)"),
    "interpret": _Key("object", {}),
    "interpret.effects": _Key("array", [], items="object"),
    "interpret.effects[].term": _Key("string"),
    "interpret.effects[].at": _Key("object", items="string|number"),
    "interpret.effects[].name": _Key("string", _OPTIONAL),
    "interpret.odds": _Key("array", [], items="object"),
    "interpret.odds[].term": _Key("string"),
    "interpret.odds[].at": _Key("object", items="string|number"),
    "interpret.odds[].t": _Key("number"),
    "interpret.odds[].s": _Key("number"),
    "interpret.did": _Key("array", [], items="object"),
    "interpret.did[].factor_a": _Key("string"),
    "interpret.did[].levels_a": _Key("array", bound="[2, 2]", items="string|number"),
    "interpret.did[].factor_b": _Key("string"),
    "interpret.did[].levels_b": _Key("array", bound="[2, 2]", items="string|number"),
    "interpret.did[].fixed": _Key("object", _OPTIONAL, items="string|number"),
    "interpret.did[].name": _Key("string", _OPTIONAL),
    "interpret.heatmap_resolution": _Key("integer", 25, "[1, inf)"),
    "interpret.svg": _Key("boolean", False),
}

_MAX = sys.float_info.max
_TYPES = {
    "integer": ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    # finite: NaN, infinities and integers beyond the float range fail the range test
    "number": ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
               and -_MAX <= v <= _MAX),
    "string": ("a string", lambda v: isinstance(v, str)),
    "boolean": ("a boolean", lambda v: isinstance(v, bool)),
    "array": ("a list", lambda v: isinstance(v, list)),
    "object": ("an object", lambda v: isinstance(v, dict)),
    "null": ("null", lambda v: v is None),
}
_TYPES["float"] = _TYPES["number"]


def _within(x, bound: str, scopes: tuple) -> bool:
    def limit(token):
        try:
            return float(token)
        except ValueError:
            return next(s[token] for s in reversed(scopes) if token in s)

    lo, hi = (limit(t.strip()) for t in bound[1:-1].split(","))
    return (lo < x if bound[0] == "(" else lo <= x) and (x < hi if bound[-1] == ")" else x <= hi)


def _walk(value, key: _Key, path: str, row: str, scopes: tuple = ()):
    """Check ``value`` against table row ``row`` and return it normalized,
    with defaults filled in; raises ConfigError at ``path``."""
    types = key.type.split("|")
    if not any(_TYPES[t][1](value) for t in types):
        raise ConfigError(f"{path}: expected {' or '.join(_TYPES[t][0] for t in types)}")
    if isinstance(value, str) and key.choices and value not in key.choices:
        raise ConfigError(f"{path}: expected one of {list(key.choices)}")
    if key.bound and isinstance(value, (int, float, list)) and not isinstance(value, bool):
        if not _within(len(value) if isinstance(value, list) else value, key.bound, scopes):
            what = "length " if isinstance(value, list) else ""
            raise ConfigError(f"{path}: {what}must lie in {key.bound}")
    if isinstance(value, list):
        # objects get their own path; a plain item is reported at the list's
        at = (lambda i: f"{path}[{i}]") if key.items == "object" else (lambda i: f"{path}: item {i}")
        return [_walk(v, _Key(key.items), at(i), row + "[]", scopes) for i, v in enumerate(value)]
    if isinstance(value, dict) and key.items:
        return {k: _walk(v, _Key(key.items), f"{path}.{k}", row) for k, v in value.items()}
    if isinstance(value, dict):
        prefix = row + "." if row else ""
        rows = {
            r[len(prefix):]: k for r, k in _CONFIG.items()
            if r.startswith(prefix) and not any(c in r[len(prefix):] for c in ".[")
        }
        unknown = set(value) - set(rows)
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) {sorted(unknown)}")
        out = {}
        for name, k in rows.items():
            given = value.get(name)
            if given is None and (name not in value or k.default is _OPTIONAL):
                if k.default is _REQUIRED:
                    raise ConfigError(f"{path}: missing required key {name!r}")
                if k.default is _OPTIONAL:
                    continue
                given = copy.deepcopy(k.default)
            out[name] = _walk(given, k, f"{path}.{name}", prefix + name, scopes + (out,))
        return out
    return float(value) if key.type == "float" else value


@dataclass(frozen=True)
class RunObjects:
    """The library objects a validated config describes. ``measure`` and
    ``spec`` are None when the config has no such section; ``fit_options``
    are the keyword options of :func:`densreg.model.fit`; ``effects`` and
    ``did`` are the interpret items with their output names filled in."""

    measure: ReferenceMeasure | None
    kde: KdeConfig
    spec: ModelSpec | None
    boost: BoostConfig
    fit_options: dict
    effects: list
    did: list


# what each command needs from the config beyond its defaults
_NEEDS = {
    "estimate": ("data.observations", "measure"),
    "fit": ("data.densities", "model"),
    "predict": ("data.model", "data.newdata"),
    "interpret": ("data.model",),
    "simulate": ("data.densities", "model"),
}


def _built(path: str, make, *args, **kwargs):
    """Call a library constructor; its ValueError becomes a ConfigError at
    ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def run_objects(cfg: dict, command: str | None = None) -> RunObjects:
    """Build the run objects from a normalized config (see
    :func:`validate_config`); with ``command``, first check that the config
    gives what that command needs."""
    for need in _NEEDS.get(command, ()):
        section, _, key = need.partition(".")
        if not (cfg[section][key] if key else cfg.get(section)):
            raise ConfigError(f"config.{need}: required for {command}")
    measure = cfg.get("measure") and _built(
        "config.measure", ReferenceMeasure.from_dict, cfg["measure"]
    )
    if command == "estimate" and not (measure.is_mixed and measure.n_atoms == 2):
        raise ConfigError("config.measure: estimate needs a mixed measure with two atoms")
    k = cfg["kde"]
    grid = {} if k["bandwidth_grid"] is None else {"bandwidth_grid": np.asarray(k["bandwidth_grid"], dtype=float)}
    kde = _built("config.kde", KdeConfig, bandwidth=k["bandwidth"], floor=k["floor"], **grid)
    spec, fit_options = None, {}
    model = cfg.get("model")
    if model is not None:
        terms = [
            _built(f"config.model.terms[{i}]", EffectTerm, **t)
            for i, t in enumerate(model["terms"])
        ]
        spec = _built("config.model", ModelSpec, terms, model["coding"], model["references"])
        db = model["density_basis"]
        fit_options = {
            "default_df": model["default_df"], "lambda_density": db["lambda_density"],
            **{f"density_{k}": db[k] for k in ("knots", "degree", "penalty_order")},
        }
    b, stop = cfg["boosting"], cfg["boosting"]["stopping"]
    boost = _built(
        "config.boosting", BoostConfig,
        step_length=b["step_length"], max_iterations=b["max_iterations"],
        stopping=stop["method"], m_stop=stop["m_stop"], folds=stop["folds"],
        replicates=stop["replicates"], seed=cfg["seed"],
    )
    icfg = cfg["interpret"]
    return RunObjects(
        measure, kde, spec, boost, fit_options,
        [{"name": e["term"], **e} for e in icfg["effects"]],
        [{"name": f"did_{i}", "fixed": {}, **q} for i, q in enumerate(icfg["did"])],
    )


def validate_config(raw) -> dict:
    """Validate and normalize a run configuration against ``_CONFIG``.

    Returns a new dict with defaults filled in, after building the run
    objects once so that the library constructors check the rules that span
    several keys; raises ConfigError with a field path on the first problem.
    """
    cfg = _walk(raw, _Key("object"), "config", "")
    if "measure" in cfg:
        # (location, weight) pairs, as the measure constructors take them
        cfg["measure"]["atoms"] = [(a["location"], a["weight"]) for a in cfg["measure"]["atoms"]]
    run_objects(cfg)
    return cfg


def load_config(path, overrides: dict | None = None) -> dict:
    """Read and validate a JSON run configuration; ``overrides`` (such as
    the CLI's ``--seed`` and ``--threads``) replace top-level keys before
    validation."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return validate_config(raw)
