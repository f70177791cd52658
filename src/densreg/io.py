"""File formats and configuration handling for the batch front-end.

All tabular output is tab-separated text with a one-line header. Density
files are self-describing: the first line carries the reference measure
(interval, atoms, grid size), so a file can be read back without external
context, and the column header names the key columns, then one value column
per point of the measure's layout, ``atom:<location>`` and ``g:<i>``. The
reader checks the declared layout, whose fields may each appear once,
against the header before it builds the measure, so a header with fewer
columns than the layout declares points is a :class:`DataError` and no grid
is allocated for it; it reads the value columns by these names: a header
that does not end in them is a :class:`DataError` at line 2. Floats are
written with ``repr``, which round-trips exactly.

Every input table goes through one row reader: observations, densities and
new covariates (:mod:`densreg.cli` states which command reads which). A
header names each column once, and each row has as many fields as its
header; blank lines are skipped but counted. The number columns (numeric
keys, ``value`` and ``weight``: finite numbers; density values: also
strictly positive) are parsed as Python's ``float`` parses them, a block of
rows per numpy call, and a block that fails is read again row by row. So in
every input the first bad line in file order wins, whatever is wrong with
it, and its :class:`DataError` names the file and the line. An
observations file without ``value`` and ``weight`` columns fails at its
header.

Run configurations are JSON objects checked in one place. The table
``_CONFIG`` is the reference: it gives every key its JSON type, its default,
and its allowed strings or numeric bound; unknown keys are rejected.
:func:`validate_config` walks a config against it, then builds the run
objects (:func:`run_objects`), so the library constructors check the rules
that span several keys: ``a < b`` and atoms inside the interval (measure),
the term kind and its covariate count (``EffectTerm``), unique term names,
at most one intercept, one kind (categorical or numeric) per covariate and
``orthogonal_to`` naming only earlier terms (``ModelSpec``, at
``config.model``), an ascending bandwidth grid (``KdeConfig``), and
interpret items whose output files, named once in ``INTERPRET_FILES``, stay
apart. Every
problem is a :class:`ConfigError` whose message starts with the path of the
field, such as ``config.model.terms[2].knots``, or of its section. This
module names no command: what each command needs beyond the defaults (data
paths that name files, a measure, a model) is checked with the commands, in
:mod:`densreg.cli`.

A library error becomes a :class:`ConfigError` or a :class:`DataError` in
one way, :func:`reported_as`: inside it, a ValueError, KeyError or OSError
becomes the error its caller names, and a ``model.SpecMismatch`` a config
error at ``config.model.<item>``. Which boundary each command draws, and the
exit code of each error type, are stated in :mod:`densreg.cli`.

Model files are JSON objects with ``"format": "densreg-model"`` and
``"version"`` 3, 2 or 1; anything else is a :class:`DataError`. A model
file keeps what fitting learned and what the training data fixed; load
rebuilds knots and density bases from those. The version-3 fields below have
one writer and one reader, :func:`densreg.model.dump_fields` and
:func:`densreg.model.load_fields`; a field that does not fit the rest is a
:class:`DataError` that names it, such as ``covariates.region.reference``:

* ``measure``: ``interval`` (or null), ``atoms`` ([location, weight] pairs),
  ``grid_size``; then ``coding``;
* ``covariates``: by name, ``kind`` "categorical" with sorted ``levels`` or
  "numeric" with the training range ``lo``, ``hi``; each with ``reference``,
  the one place a model file states it;
* ``terms``: in order, the effect-term fields (``name``, ``kind``,
  ``covariates``, ``df``, ``knots``, ``degree``, ``penalty_order``,
  ``orthogonal_to``), then ``transform`` (raw to constrained columns, or
  null), ``lambda_cov``, ``target_df`` (absent in files of earlier writers,
  read as ``df``) and ``achieved_df``;
* ``density_basis``: ``knots``, ``degree``, ``penalty_order``, ``lambda_density``;
* ``fits``: per component ("single", or "continuous" and "discrete"), the
  clr ``offset``, one flat ``coefficients`` vector per term (covariate
  columns x density basis), ``selections``, ``risk_path``, ``m_stop`` and
  ``stop_curve`` (or null).

Version-1 and version-2 files also hold ``references``, the configured
``model.references`` with any key that no term reads; version-1 files also
hold ``terms[].knot_vectors`` and the density bases (``bases``). They load
through the same reader, which ignores all three.
"""
from __future__ import annotations

import contextlib
import copy
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from .bayes import DensityElement, check_density_values
from .measure import ReferenceMeasure
from .model import EffectTerm, FittedModel, ModelSpec, SpecMismatch, dump_fields, load_fields
from .records import BoostConfig, KdeConfig

__all__ = [
    "ConfigError",
    "DataError",
    "reported_as",
    "fmt",
    "write_table",
    "read_table",
    "read_observations",
    "measure_header",
    "write_density_file",
    "read_density_rows",
    "read_density_file",
    "model_to_dict",
    "model_from_dict",
    "load_config",
    "validate_config",
    "RunObjects",
    "run_objects",
    "INTERPRET_FILES",
]


class ConfigError(ValueError):
    """Invalid run configuration; carries the offending field path."""


class DataError(ValueError):
    """Malformed input data file."""


@contextlib.contextmanager
def reported_as(error: type, prefix: str | None = None):
    """Report a ValueError, KeyError or OSError raised inside as ``error``
    (ConfigError or DataError), with ``prefix`` in front of its message when
    given: a config error's field path, or the context of a data error (the
    commands' data boundaries give none). ConfigError, DataError and numpy's
    LinAlgError pass unchanged, and a ``SpecMismatch`` is a ConfigError at
    its item of ``config.model``."""
    try:
        yield
    except (ConfigError, DataError, np.linalg.LinAlgError):
        raise
    except SpecMismatch as exc:
        raise ConfigError(f"config.model.{exc.item}: {exc}") from exc
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        raise error(f"{prefix}: {message}" if prefix else str(message)) from exc


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


def _header(path, line: str) -> list:
    """Column names of a header line; a name may appear only once."""
    if not line:
        raise DataError(f"{path}: empty file")
    header = line.rstrip("\n").split("\t")
    if len(set(header)) < len(header):
        name = next(c for i, c in enumerate(header) if c in header[:i])
        raise DataError(f"{path}: column {name!r} appears more than once")
    return header


# number tokens parsed per numpy call, at least: blocks of 21 rows of the
# benchmark measure's 102 density values
_PARSE_TOKENS = 2048


def _read_rows(path, fh, header: list, start: int, numbers, n_values: int = 0):
    """The rows of a table body, its lines numbered from ``start``: the
    fields of each non-blank line but its last ``n_values``, as strings, and
    an N x (k + ``n_values``) float array of its k ``numbers`` columns (in
    header order), which must hold finite numbers, and of its last
    ``n_values`` columns, which must hold density values
    (:func:`~densreg.bayes.check_density_values`).

    Each line must have as many fields as ``header``. The numbers of a block
    of rows are parsed and checked in one numpy call, and a block that fails
    is read again row by row, so that the first failing line in file order
    raises its DataError, also when a later line has the wrong number of
    fields."""
    n_keys = len(header) - n_values
    cols = [j for j, col in enumerate(header[:n_keys]) if col in numbers]
    width = len(cols) + n_values
    rows, lines, tokens, blocks = [], [], [], []
    try:
        for i, line in enumerate(fh, start=start):
            row = line.rstrip("\n").split("\t")
            if row == [""]:
                continue
            if len(row) != len(header):
                raise DataError(f"{path}: line {i} has {len(row)} fields, expected {len(header)}")
            rows.append(row[:n_keys])
            lines.append(i)
            tokens += [row[j] for j in cols] + row[n_keys:]
            if len(tokens) >= _PARSE_TOKENS:
                blocks.append(_parsed(path, lines, tokens, len(cols), width))
                lines, tokens = [], []
    except DataError:
        # a number error on an earlier line comes first
        _parsed(path, lines, tokens, len(cols), width)
        raise
    blocks.append(_parsed(path, lines, tokens, len(cols), width))
    return rows, np.concatenate(blocks)


def _parsed(path, lines: list, tokens: list, n_numbers: int, width: int) -> np.ndarray:
    """The float rows of ``lines`` from their ``width`` tokens each, the
    first ``n_numbers`` finite numbers and the others density values, parsed
    and checked at once; when that fails, row by row, so that the first
    failing line raises its own DataError."""
    try:
        block = np.array(tokens, dtype=float).reshape(len(lines), width)
        if not np.isfinite(block[:, :n_numbers]).all():
            raise ValueError("not finite")
        check_density_values(block[:, n_numbers:])
        return block
    except ValueError:
        pass
    for k, i in enumerate(lines):
        row = tokens[k * width:(k + 1) * width]
        try:
            for text in row[:n_numbers]:
                if not math.isfinite(float(text)):
                    raise ValueError(f"{text!r} is not a finite number")
            check_density_values(np.array([float(t) for t in row[n_numbers:]]))
        except ValueError as exc:
            raise DataError(f"{path}: line {i}: {exc}") from exc
    return np.array([float(t) for t in tokens]).reshape(len(lines), width)


def read_table(path, numeric=()) -> tuple[list, list]:
    """Header and rows of a table; the ``numeric`` columns must hold finite numbers."""
    with open(path) as fh:
        header = _header(path, fh.readline())
        rows, _ = _read_rows(path, fh, header, 2, numeric)
    return header, rows


def read_observations(path) -> tuple[dict, list]:
    """Observation table as columns, ``value`` and ``weight`` as finite floats, and
    its grouping columns (all others)."""
    with open(path) as fh:
        header = _header(path, fh.readline())
        if "value" not in header or "weight" not in header:
            raise DataError(f"{path}: needs 'value' and 'weight' columns")
        rows, numbers = _read_rows(path, fh, header, 2, ("value", "weight"))
    table = {col: [row[j] for row in rows] for j, col in enumerate(header)}
    table.update(zip([c for c in header if c in ("value", "weight")], numbers.T.tolist()))
    return table, [c for c in header if c not in ("value", "weight")]


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


def _measure_fields(line: str) -> dict:
    """The measure a ``#measure`` line declares, as the fields that
    :meth:`ReferenceMeasure.from_dict` takes; each field may appear once."""
    parts = line.split("\t")
    if parts[0] != "#measure":
        raise DataError("density file must start with a #measure header line")
    fields = {}
    for part in parts[1:]:
        if "=" not in part:
            raise DataError(f"malformed measure field {part!r}")
        key, val = part.split("=", 1)
        if key in fields:
            raise DataError(f"measure field {key!r} appears more than once")
        fields[key] = val
    with reported_as(DataError, "malformed measure header"):
        atoms = []
        if fields.get("atoms", "none") != "none":
            for chunk in fields["atoms"].split(";"):
                loc, w = chunk.split(":")
                atoms.append((float(loc), float(w)))
        grid = int(fields.get("grid", "0"))
        interval = None
        if fields.get("interval", "none") != "none":
            interval = [float(v) for v in fields["interval"].split(":")]
        elif grid:
            raise DataError("a grid requires an interval")
        return {"interval": interval, "atoms": atoms, "grid_size": grid}


def _value_columns(measure: ReferenceMeasure) -> list:
    """The value-column names of a density file on ``measure``, in its
    layout: ``atom:<location>`` per atom, then ``g:<i>`` per grid node."""
    return ([f"atom:{fmt(l)}" for l in measure.atom_locations]
            + [f"g:{i}" for i in range(measure.n_grid)])


def write_density_file(path, measure: ReferenceMeasure, key_columns, keys, densities):
    """One row per group: key values, then density values (atoms, then grid)."""
    cols = list(key_columns) + _value_columns(measure)
    with open(path, "w") as fh:
        fh.write(measure_header(measure) + "\n")
        fh.write("\t".join(cols) + "\n")
        for key, dens in zip(keys, densities):
            values = dens.values if isinstance(dens, DensityElement) else np.asarray(dens)
            fh.write("\t".join([*map(str, key), *map(repr, values.tolist())]) + "\n")


def read_density_rows(path, numeric=()):
    """(measure, key_columns, keys, values) of a density file, ``values``
    the N x P density rows; the header must end in the measure's value
    columns, each row must hold finite, strictly positive numbers, and the
    ``numeric`` keys finite numbers."""
    with open(path) as fh:
        first, second = fh.readline(), fh.readline()
        if not second:
            raise DataError(f"{path}: missing header lines")
        # the declared layout against the header, before a grid is allocated
        fields = _measure_fields(first.rstrip("\n"))
        if len(fields["atoms"]) + fields["grid_size"] > len(second.split("\t")):
            raise DataError(f"{path}: header shorter than the measure layout")
        with reported_as(DataError, "malformed measure header"):
            measure = ReferenceMeasure.from_dict(fields)
        header = _header(path, second)
        n_keys = len(header) - measure.size
        for want, found in zip(_value_columns(measure), header[n_keys:]):
            if want != found:
                raise DataError(f"{path}: line 2: expected column {want!r}, found {found!r}")
        keys, numbers = _read_rows(path, fh, header, 3, numeric, measure.size)
    values = np.ascontiguousarray(numbers[:, numbers.shape[1] - measure.size:])
    return measure, header[:n_keys], [tuple(key) for key in keys], values


def read_density_file(path):
    """(measure, key_columns, keys, densities): :func:`read_density_rows`
    with each row as a :class:`~densreg.bayes.DensityElement`."""
    measure, key_columns, keys, values = read_density_rows(path)
    return measure, key_columns, keys, [DensityElement(measure, v) for v in values]


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def model_to_dict(model) -> dict:
    """Serialize a fitted model with everything prediction needs."""
    return {"format": "densreg-model", "version": 3, **dump_fields(model)}


def model_from_dict(d) -> FittedModel:
    """Rebuild a fitted model from its serialized form; raises DataError on a
    file that is not a model file of version 1 to 3 or does not hold a valid
    model."""
    if not isinstance(d, dict):
        raise DataError("model file: expected a JSON object")
    if d.get("format") != "densreg-model":
        raise DataError("not a model file")
    version = d.get("version")
    if type(version) is not int or version not in (1, 2, 3):
        raise DataError(f"model file: unsupported version {version!r}")
    try:
        return load_fields(d)
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


class RunObjects(NamedTuple):
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


# the files written for each item of ``config.interpret.effects`` and
# ``.did``, by role; "{}" is the item's name
INTERPRET_FILES = {
    "effects": {"table": "effect_{}.tsv", "svg": "effect_{}.svg"},
    "did": {"heatmap": "{}_heatmap.tsv", "bands": "{}_bands.tsv", "svg": "{}_heatmap.svg"},
}


def _built(path: str, make, *args, **kwargs):
    """Call a library constructor; what it rejects is a ConfigError at ``path``."""
    with reported_as(ConfigError, path):
        return make(*args, **kwargs)


def run_objects(cfg: dict) -> RunObjects:
    """Build the run objects from a normalized config (see
    :func:`validate_config`)."""
    measure = cfg.get("measure") and _built(
        "config.measure", ReferenceMeasure.from_dict, cfg["measure"]
    )
    k = cfg["kde"]
    kde = _built("config.kde", KdeConfig, bandwidth=k["bandwidth"], floor=k["floor"],
                 bandwidth_grid=k["bandwidth_grid"])
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
    effects = [{"name": e["term"], **e} for e in icfg["effects"]]
    did = [{"name": f"did_{i}", "fixed": {}, **q} for i, q in enumerate(icfg["did"])]
    # each item's files stay inside the output directory and apart from
    # every other item's
    written = {}
    for kind, items in (("effects", effects), ("did", did)):
        for i, item in enumerate(items):
            where, name = f"config.interpret.{kind}[{i}]", item["name"]
            if any(sep and sep in name for sep in (os.sep, os.altsep)):
                raise ConfigError(f"{where}.name: {name!r} contains a path separator")
            for file in (f.format(name) for f in INTERPRET_FILES[kind].values()):
                if file in written:
                    raise ConfigError(f"{where}.name: writes {file}, as {written[file]} does")
                written[file] = where
    return RunObjects(measure, kde, spec, boost, fit_options, effects, did)


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
    the CLI's ``--seed``) replace top-level keys before validation."""
    with reported_as(ConfigError, path):
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if overrides and isinstance(raw, dict):
        raw = {**raw, **overrides}
    return validate_config(raw)
