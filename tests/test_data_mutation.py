"""Seeded mutations of data files.

Each mutation changes one place of an input file: a line dropped,
duplicated, truncated or made ragged, a field set to ``x``, ``nan``,
``inf``, ``-1`` or ``1e400``, or a leaf of a model file's JSON replaced; and
fixed changes: a group whose interior rows all weigh zero, one whose
interior weight sits on a single row, and single bad fields whose error must
name their group or their file and line. The files are a densities file
(read by ``fit`` and ``check``), a newdata table (``predict``), an
observations table (``estimate``) and a model file (``predict`` and
``interpret``). Every run must end with exit 0, 3 (data) or
4 (numeric), never with a traceback, and without a ``RuntimeWarning`` other
than the ridge-jitter warning. Every reader also meets a row-by-row
reference on generated tables and density files: the first bad line in file
order wins.
"""
import json
import math
import pathlib
import random
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densreg.cli import main
from densreg.io import (
    DataError,
    _measure_fields,
    measure_header,
    read_density_file,
    read_density_rows,
    read_observations,
    read_table,
    write_density_file,
)
from densreg.measure import ReferenceMeasure, make_discrete, make_mixed
from densreg.synth import planted_problem, synthetic_observations

from conftest import options

DATA = pathlib.Path(__file__).resolve().parent / "data"

FIELDS = ["x", "nan", "inf", "-1", "1e400"]
LEAVES = ["x", -1, 1e400, None, True, [], {}]


def mutate_table(text: str, rng: random.Random) -> tuple[str, str]:
    """One seeded mutation of a tab-separated file; returns it and a description."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    fields = lines[i].split("\t")
    kind = rng.choice(["drop", "duplicate", "truncate", "ragged", "field"])
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "truncate":
        lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
    elif kind == "ragged":
        lines[i] = "\t".join(fields[:-1] if len(fields) > 1 and rng.random() < 0.5
                             else fields + fields[-1:])
    else:
        j = rng.randrange(len(fields))
        fields[j] = rng.choice(FIELDS)
        lines[i] = "\t".join(fields)
    return "\n".join(lines) + "\n", f"{kind} at line {i}"


def _leaves(value, path=()):
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, v in items:
        if isinstance(v, (dict, list)) and v:
            yield from _leaves(v, path + (key,))
        else:
            yield path + (key,)


def mutate_model(doc: dict, rng: random.Random) -> tuple[str, str]:
    """A model file with one JSON leaf replaced; returns its text and the path."""
    doc = json.loads(json.dumps(doc))
    path = rng.choice(list(_leaves(doc)))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = rng.choice(LEAVES)
    return json.dumps(doc), "leaf " + ".".join(map(str, path))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small input files of each kind and the config that reads them."""
    base = tmp_path_factory.mktemp("inputs")
    m, data, truths, _ = planted_problem(seed=4, grid_size=12, n_years=3, **options("planted_problem"))
    keys = [
        (data["region"][i], data["c_age"][i], repr(float(data["year"][i])))
        for i in range(len(truths))
    ]
    write_density_file(base / "dens.tsv", m, ["region", "c_age", "year"], keys, truths)
    obs = synthetic_observations(5, groups=3, n_per_group=30)
    with open(base / "obs.tsv", "w") as fh:
        fh.write("region\tc_age\tvalue\tweight\n")
        for row in zip(obs["region"], obs["c_age"], obs["value"], obs["weight"]):
            fh.write("\t".join(map(str, row)) + "\n")
    config = {
        "measure": {
            "interval": [0.0, 1.0],
            "atoms": [{"location": 0.0, "weight": 1.0}, {"location": 1.0, "weight": 1.0}],
            "grid_size": 12,
        },
        "kde": {"bandwidth": 0.1},
        "model": {
            "references": {"region": "west", "c_age": "other"},
            "density_basis": {"knots": 4},
            "terms": [
                {"name": "intercept", "kind": "intercept"},
                {"name": "region", "kind": "group_intercept", "covariates": ["region"]},
                {"name": "year", "kind": "flexible", "covariates": ["year"], "knots": 2},
            ],
        },
        "boosting": {"max_iterations": 5},
        "interpret": {
            "effects": [{"term": "year", "at": {"region": "east", "c_age": "other", "year": 1.0}}],
            "heatmap_resolution": 3,
        },
    }
    originals = {
        "densities": (base / "dens.tsv").read_text(),
        "newdata": (DATA / "model_v1_newdata.tsv").read_text(),
        "observations": (base / "obs.tsv").read_text(),
    }
    with open(DATA / "model_v1.json") as fh:
        model = json.load(fh)
    return config, originals, model


# (command, mutated file) in turn; "check" reads the densities file as target
RUNS = [
    ("fit", "densities"),
    ("check", "densities"),
    ("predict", "newdata"),
    ("estimate", "observations"),
    ("predict", "model"),
    ("interpret", "model"),
]


def test_mutated_data_files_end_with_exit_codes(tmp_path, capsys, inputs):
    config, originals, model = inputs
    rng = random.Random(20211103)
    codes = set()
    for i in range(60):
        command, which = RUNS[i % len(RUNS)]
        if which == "model":
            text, what = mutate_model(model, rng)
            name = "model.json"
        else:
            text, what = mutate_table(originals[which], rng)
            name = f"{which}.tsv"
        path = tmp_path / f"{i}_{name}"
        path.write_text(text)
        data = {
            "densities": str(tmp_path / "none.tsv"),
            "newdata": str(DATA / "model_v1_newdata.tsv"),
            "observations": str(tmp_path / "none.tsv"),
            "model": str(DATA / "model_v1.json"),
            which: str(path),
        }
        cfg = tmp_path / f"{i}_cfg.json"
        cfg.write_text(json.dumps(dict(config, data=data)))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / f"o{i}")]
        if command == "check":
            argv.insert(1, str(path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 3, 4), f"{command} on {which}, {what}: exit {code}: {err}"
        assert "Traceback" not in err, f"{command} on {which}, {what}"
        # bad numbers are rejected where they are read, not met by numpy later
        stray = [
            str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning) and "ridge jitter" not in str(w.message)
        ]
        assert stray == [], f"{command} on {which}, {what}: {stray}"
        codes.add(code)
    # the mutations are not all harmless, nor all fatal
    assert {0, 3} <= codes


def test_group_without_interior_weight(tmp_path, capsys, inputs):
    """Zero weight on every interior row of one group: the group gets no kernel
    part and no say in the bandwidth, like a group without interior values."""
    config, originals, _ = inputs
    lines = originals["observations"].splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    first = rows[0][:2]
    for row in rows:
        if row[:2] == first and 0.0 < float(row[2]) < 1.0:
            row[3] = "0.0"
    path = tmp_path / "obs.tsv"
    path.write_text("\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, kde={"bandwidth": "auto"},
                                   data={"observations": str(path)})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 0, capsys.readouterr().err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    _, _, keys, densities = read_density_file(tmp_path / "o" / "densities.tsv")
    grid_part = densities[keys.index(tuple(first))].values[2:]
    assert np.ptp(grid_part) < 1e-15


def test_group_with_all_interior_weight_on_one_row(tmp_path, capsys, inputs):
    """All interior weight on one row of a group, zero on its other interior
    rows: bandwidth selection cannot leave that row out, and ``estimate``
    exits 3 naming the group."""
    config, originals, _ = inputs
    lines = originals["observations"].splitlines()
    rows = [line.split("\t") for line in lines[1:]]
    first = rows[0][:2]
    interior = [row for row in rows if row[:2] == first and 0.0 < float(row[2]) < 1.0]
    assert len(interior) >= 3
    for k, row in enumerate(interior):
        row[3] = "1.0" if k == 0 else "0.0"
    path = tmp_path / "obs.tsv"
    path.write_text("\n".join([lines[0]] + ["\t".join(r) for r in rows]) + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(config, kde={"bandwidth": "auto"},
                                   data={"observations": str(path)})))
    code = main(["estimate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.strip() == (
        f"data error: group region={first[0]}, c_age={first[1]}: "
        "cannot leave out an observation carrying all weight"
    )



@pytest.mark.parametrize("which, column, text, where, message", [
    ("observations", "value", "1.5", "group", "values must lie in [0, 1]"),
    ("observations", "weight", "-0.001", "group", "weights must be nonnegative"),
    ("observations", "value", "abc", "line", "could not convert string to float: 'abc'"),
    ("observations", "weight", "abc", "line", "could not convert string to float: 'abc'"),
    ("observations", "value", "nan", "line", "'nan' is not a finite number"),
    ("observations", "weight", "inf", "line", "'inf' is not a finite number"),
    ("densities", "atom:0.0", "nan", "line", "density values must be finite"),
    ("densities", "g:3", "inf", "line", "density values must be finite"),
    ("densities", "year", "abc", "line", "could not convert string to float: 'abc'"),
    ("densities", "year", "nan", "line", "'nan' is not a finite number"),
    ("newdata", "year", "abc", "line", "could not convert string to float: 'abc'"),
    ("newdata", "year", "nan", "line", "'nan' is not a finite number"),
])
def test_bad_field_names_its_group_or_line(tmp_path, capsys, inputs, which, column, text,
                                           where, message):
    """A bad number, an observation or a numeric covariate of the model,
    exits 3 naming the file and line where it is read, and an observation
    outside its group's rules names the group."""
    config, originals, _ = inputs
    lines = originals[which].splitlines()
    first = 2 if which == "densities" else 1
    header = lines[first - 1].split("\t")
    row = lines[first + 1].split("\t")
    row[header.index(column)] = text
    # a blank line before the bad row still counts
    lines[first: first + 2] = [lines[first], "", "\t".join(row)]
    path = tmp_path / f"{which}.tsv"
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    data = {which: str(path), "model": str(DATA / "model_v1.json")}
    cfg.write_text(json.dumps(dict(config, data=data)))
    command = {"densities": "fit", "newdata": "predict", "observations": "estimate"}[which]
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3, err
    named = f"group region={row[0]}, c_age={row[1]}" if where == "group" else f"{path}: line {first + 3}"
    assert err.strip() == f"data error: {named}: {message}"


@pytest.mark.parametrize("which", ["densities", "newdata", "observations"])
def test_repeated_column_name_exits_3(tmp_path, capsys, inputs, which):
    """A name that appears twice in a header exits 3 naming the file and the
    column: reading one column as the key and another as the covariate
    would mislabel rows."""
    config, originals, _ = inputs
    lines = originals[which].splitlines()
    first = 1 if which == "densities" else 0
    # the region column once more, in front of the header and of every row
    lines[first:] = [line and line.split("\t")[0] + "\t" + line for line in lines[first:]]
    path = tmp_path / f"{which}.tsv"
    path.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    data = {which: str(path), "model": str(DATA / "model_v1.json")}
    cfg.write_text(json.dumps(dict(config, data=data)))
    command = {"densities": "fit", "newdata": "predict", "observations": "estimate"}[which]
    code = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err == f"data error: {path}: column 'region' appears more than once\n"


def _first_bad_line(path):
    """The DataError message of the first failing line of a density file,
    read one row at a time, or None: the reader's rule in file order."""
    with open(path) as fh:
        fh.readline()
        header = fh.readline().rstrip("\n").split("\t")
        for i, line in enumerate(fh, start=3):
            row = line.rstrip("\n").split("\t")
            if row == [""]:
                continue
            if len(row) != len(header):
                return f"{path}: line {i} has {len(row)} fields, expected {len(header)}"
            try:
                values = [float(t) for t in row[1:]]
            except ValueError as exc:
                return f"{path}: line {i}: {exc}"
            if not np.isfinite(values).all():
                return f"{path}: line {i}: density values must be finite"
            if min(values) <= 0:
                return f"{path}: line {i}: density values must be strictly positive"
    return None


# data row -> (value column, text) or "short" (a field dropped); the reader
# parses blocks of 21 rows of this measure's 102 values
@pytest.mark.parametrize("changes", [
    {30: (5, "abc")},
    {45: (0, "-1")},
    {25: (3, "nan"), 22: (7, "-0")},
    {5: (2, "inf"), 12: "short"},
    {5: "short", 12: (2, "abc")},
    {19: (1, "0"), 21: "short"},
    {39: "short", 40: (1, "")},
    {3: (4, "1_0"), 33: (0, "١"), 47: (6, " 2")},
], ids=str)
def test_density_reader_fails_on_the_first_bad_line(tmp_path, changes):
    """Values parsed a block of rows at a time fail, accept and report
    exactly as a row-by-row read: the first failing line in file order,
    also when a later line has the wrong number of fields."""
    from densreg.io import DataError, read_density_rows
    from densreg.measure import make_mixed

    m = make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 100)
    rng = np.random.default_rng(5)
    path = tmp_path / "dens.tsv"
    write_density_file(path, m, ["region"], [(f"r{i}",) for i in range(50)],
                       list(rng.uniform(0.5, 2.0, size=(50, m.size))))
    lines = path.read_text().splitlines()
    for k, change in changes.items():
        row = lines[2 + k].split("\t")
        if change == "short":
            row.pop()
        else:
            row[1 + change[0]] = change[1]
        lines[2 + k] = "\t".join(row)
    # blank lines count in the line numbers and are skipped
    lines[10:10] = ["", ""]
    path.write_text("\n".join(lines) + "\n")
    expected = _first_bad_line(path)
    if expected is None:
        _, _, keys, values = read_density_rows(path)
        want = [[float(t) for t in line.split("\t")[1:]] for line in lines[2:] if line]
        assert len(keys) == 50
        assert values.tobytes() == np.array(want).tobytes()
    else:
        with pytest.raises(DataError) as info:
            read_density_rows(path)
        assert str(info.value) == expected


def _numbered(path, lines: list, changes: dict) -> None:
    """Write ``lines`` to ``path`` with the line of each key of ``changes``
    (numbered from 1) replaced by its value."""
    for i, line in changes.items():
        lines[i - 1] = line
    path.write_text("\n".join(lines) + "\n")


def test_density_key_error_before_a_later_value_error(tmp_path):
    """A bad numeric key on line 5 comes before a bad density value on line
    21 of the same block of rows: keys and values are read in one pass."""
    m = make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 100)
    path = tmp_path / "dens.tsv"
    write_density_file(path, m, ["region", "year"], [(f"r{i}", str(i)) for i in range(30)],
                       list(np.random.default_rng(2).uniform(0.5, 2.0, size=(30, m.size))))
    lines = path.read_text().splitlines()
    line_5, line_21 = lines[4].split("\t"), lines[20].split("\t")
    line_5[1], line_21[7] = "abc", "nan"
    _numbered(path, lines, {5: "\t".join(line_5), 21: "\t".join(line_21)})
    with pytest.raises(DataError) as info:
        read_density_rows(path, ("year",))
    assert str(info.value) == f"{path}: line 5: could not convert string to float: 'abc'"


def test_newdata_bad_number_before_a_later_short_row(tmp_path):
    """A bad number on line 3 of a newdata table comes before a row with too
    few fields on line 5."""
    lines = (DATA / "model_v1_newdata.tsv").read_text().splitlines()
    path = tmp_path / "newdata.tsv"
    _numbered(path, lines, {3: lines[2].rsplit("\t", 1)[0] + "\tabc",
                            5: lines[4].rsplit("\t", 1)[0]})
    with pytest.raises(DataError) as info:
        read_table(path, ("year",))
    assert str(info.value) == f"{path}: line 3: could not convert string to float: 'abc'"


def test_observations_without_weight_fail_at_the_header(tmp_path):
    """An observations header without a ``weight`` column is the error, not
    a short row below it."""
    path = tmp_path / "obs.tsv"
    path.write_text("region\tc_age\tvalue\neast\tother\t0.5\neast\tother\n")
    with pytest.raises(DataError) as info:
        read_observations(path)
    assert str(info.value) == f"{path}: needs 'value' and 'weight' columns"


# ---------------------------------------------------------------------------
# Every reader against one row-by-row reference
# ---------------------------------------------------------------------------

# tokens that a bad field may hold: not numbers, not finite, not positive,
# and numbers in forms that Python's float accepts
BAD_TOKENS = ["abc", "", "nan", "NaN", "-inf", "1e400", "1e-400", "-1", "0", "-0",
              "1_0", "١", " 2", "0x10", "1e", "."]
NUMBER_COLUMNS = {"observations": ("value", "weight")}


def _reference_read(path, kind: str, numeric=()):
    """What ``read_table`` (kind "table"), ``read_observations`` or
    ``read_density_rows`` returns, or the message of the DataError it
    raises, read one row at a time: a row's field count first, then its
    number columns in header order, each parsed and then checked to be
    finite, then its density values, all parsed and then checked."""
    with open(path) as fh:
        measure = None
        if kind == "densities":
            measure = ReferenceMeasure.from_dict(_measure_fields(fh.readline().rstrip("\n")))
        header = fh.readline().rstrip("\n").split("\t")
        if kind == "observations" and not {"value", "weight"} <= set(header):
            return f"{path}: needs 'value' and 'weight' columns"
        n_keys = len(header) - (measure.size if measure else 0)
        numbers = NUMBER_COLUMNS.get(kind, numeric)
        rows, parsed = [], []
        for i, line in enumerate(fh, start=3 if measure else 2):
            row = line.rstrip("\n").split("\t")
            if row == [""]:
                continue
            if len(row) != len(header):
                return f"{path}: line {i} has {len(row)} fields, expected {len(header)}"
            try:
                found = []
                for col, text in zip(header, row[:n_keys]):
                    if col in numbers:
                        found.append(float(text))
                        if not math.isfinite(found[-1]):
                            raise ValueError(f"{text!r} is not a finite number")
                values = [float(text) for text in row[n_keys:]]
                if not all(math.isfinite(v) for v in values):
                    raise ValueError("density values must be finite")
                if any(v <= 0 for v in values):
                    raise ValueError("density values must be strictly positive")
            except ValueError as exc:
                return f"{path}: line {i}: {exc}"
            rows.append(row[:n_keys])
            parsed.append(found + values)
    if kind == "table":
        return header, rows
    if kind == "observations":
        table = {col: [row[j] for row in rows] for j, col in enumerate(header)}
        for k, col in enumerate(c for c in header if c in numbers):
            table[col] = [p[k] for p in parsed]
        return table, [c for c in header if c not in numbers]
    values = np.array([p[len(p) - measure.size:] for p in parsed]).reshape(-1, measure.size)
    return measure, header[:n_keys], [tuple(r) for r in rows], values


def _comparable(outcome):
    """An outcome with every float spelled out bit for bit, -0.0 apart from 0.0."""
    if isinstance(outcome, str):
        return outcome
    if len(outcome) == 4:
        measure, key_columns, keys, values = outcome
        return key_columns, keys, values.shape, values.dtype, values.tobytes()
    first, second = outcome
    if isinstance(first, dict):
        first = {col: [v.hex() if type(v) is float else v for v in vs] for col, vs in first.items()}
    return first, second


@st.composite
def reader_files(draw):
    """(kind, numeric, text) of a table, observations or density file whose
    rows are valid but for up to four changes: a bad token in any field, a
    row with a field too few or too many, and blank lines. The row count
    reaches past two blocks of parsed numbers."""
    kind = draw(st.sampled_from(["table", "observations", "densities"]))
    measure = draw(st.sampled_from([
        make_discrete([(0.0, 1.0), (1.0, 2.0), (3.0, 1.0)]),
        make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 5),
        make_mixed(0.0, 1.0, [(0.0, 1.0), (1.0, 1.0)], 100),
    ])) if kind == "densities" else None
    names = [f"k{j}" for j in range(draw(st.integers(0 if measure else 1, 3)))]
    numeric = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
    if kind == "observations":
        numeric = [c for c in draw(st.sampled_from(
            [("value", "weight")] * 3 + [("weight", "value")] * 3 + [("value",), ("weight",)]))]
        for col in numeric:
            names.insert(draw(st.integers(0, len(names))), col)
    n_values = measure.size if measure else 0
    width = len(numeric) + n_values
    # the readers parse at least 2048 tokens per numpy call
    n = draw(st.integers(0, min(2 * -(-2048 // max(width, 1)) + 2, 2100)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(n):
        row = [repr(float(rng.uniform(0.0, 1.0))) if c in ("value", "weight")
               else repr(float(rng.normal(0.0, 10.0))) if c in numeric
               else f"g{rng.integers(4)}" for c in names]
        rows.append(row + [repr(float(v)) for v in rng.uniform(0.5, 2.0, n_values)])
    lines = ["\t".join(row) for row in rows]
    changes = draw(st.lists(st.tuples(st.integers(0, max(n - 1, 0)),
                                      st.sampled_from(["token", "short", "long", "blank"]),
                                      st.integers(0, len(names) + n_values - 1),
                                      st.sampled_from(BAD_TOKENS)), max_size=4)) if n else []
    # from the last line up, so that each index still names its row
    for i, change, col, token in sorted(changes, reverse=True):
        if change == "blank":
            lines.insert(i, "")
        elif change == "long":
            lines[i] += "\t1"
        else:
            fields = rows[i][:]
            if change == "short":
                fields.pop()
            else:
                fields[col] = token
            lines[i] = "\t".join(fields)
    head = [measure_header(measure)] if measure else []
    if measure:
        names += [f"atom:{float(v)!r}" for v in measure.atom_locations]
        names += [f"g:{i}" for i in range(measure.n_grid)]
    head.append("\t".join(names))
    text = "\n".join(head + lines) + ("\n" if draw(st.booleans()) else "")
    return kind, numeric, text


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(reader_files())
def test_readers_match_a_row_by_row_reference(tmp_path, file):
    """Each reader, parsing blocks of rows per numpy call, returns bit for
    bit what a row-by-row read returns, or fails with its message: the
    first failing line in file order."""
    kind, numeric, text = file
    path = tmp_path / "input.tsv"
    path.write_text(text)
    read = {"table": lambda: read_table(path, numeric),
            "observations": lambda: read_observations(path),
            "densities": lambda: read_density_rows(path, numeric)}[kind]
    try:
        got = read()
    except DataError as exc:
        got = str(exc)
    assert _comparable(got) == _comparable(_reference_read(path, kind, numeric))
