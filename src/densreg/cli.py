"""Batch command-line front-end.

Subcommands: estimate (observations to densities), fit (densities to model),
predict, interpret (effect curves, odds tables, difference-in-differences
heatmaps), simulate (residual-driven replication study), and check (invariant
suite for a density file). All inputs come from a JSON config plus
tab-separated data files; all outputs are tab-separated tables, JSON model
files, and optional SVG figures. Runs are deterministic for a fixed seed,
and every command runs on one thread: importing :mod:`densreg` pins the BLAS
pool to one thread before numpy loads, so the outputs do not depend on the
host's core count, and the ``threads`` config key is accepted but not read.
Density files are read as N x P rows (:func:`densreg.io.read_density_rows`),
their value columns by name and each row checked to be finite and strictly
positive, and ``fit``, ``simulate`` and ``check`` take their clr rows from
one transform of the whole matrix; from there on the commands work on N x P
clr or density rows. ``check`` reports one ``FAIL`` line per broken rule:
the quadrature weights must sum to the interval length, every density must
integrate to one and every clr row to zero, and on a mixed measure the rows
must pass :func:`densreg.bayes.check_decomposition` (each part integrates to
zero under its own component measure, and the parts embed back to the
rows). A newdata file with a header and no rows is valid: ``predict``
writes ``predictions.tsv`` with its two header lines and no row, which
``check`` accepts. For each difference-in-differences item ``interpret``
writes a heatmap and a bands table; the bands table's outer band compares
each atom with the continuous component as a whole, so its cells are empty
unless the measure is mixed.

Exit codes, by the type of the error that ends a command:

* 0: done (``check``: every invariant holds).
* 2, :class:`~densreg.io.ConfigError`: the fix is in the config or the
  command line, named at the start of the message: a key or a constructor
  rule (``config.model.terms[2]``), among them a spline term whose
  ``penalty_order`` exceeds its ``knots`` + ``degree``, a ``data.*`` path or
  the ``check`` ``target`` that names no file or a directory, a model item
  that the densities contradict (``config.model.<item>``: a term that reads
  a covariate the table lacks or keeps no free column under its
  constraints, a reference that is not a level, not a number or off a
  spline's training range, and a ``density_basis`` whose ``penalty_order``
  exceeds its ``knots`` + ``degree``, or whose ``knots`` + ``degree`` is 0,
  on a measure with a grid), an
  interpret item that does not fit the model (``config.interpret.<item>``)
  or whose name holds a path separator or names an output file that an
  earlier item writes (``config.interpret.<item>.name``), a
  ``simulation.truncation`` above the rank bound of the residuals, and an
  output directory that cannot be made or an output file that cannot be
  written (``--out`` or ``config.out``). Each command writes its outputs
  inside one output boundary, which makes the directory once the outputs
  are computed.
* 3, :class:`~densreg.io.DataError`: the fix is in a data file that exists.
  Each command reads its data input and runs the library on it inside one
  data boundary (:func:`densreg.io.reported_as`), where a ValueError, KeyError
  or OSError counts as a data error: ``estimate`` the observations, their
  groups, bandwidths and densities; ``fit`` and ``simulate`` the densities and
  the fit to them, and ``simulate`` its replicates; ``check`` its target, and
  a failed invariant; ``predict`` the model file, the newdata and the
  prediction; ``interpret`` the model file.
* 4: a numeric failure (numpy's LinAlgError, ZeroDivisionError,
  FloatingPointError), among them a boosting risk that is not finite, as
  when a huge ``simulation.noise_scale`` makes the squared residuals
  overflow.

Any other exception is a bug and ends with its traceback. A library warning
is printed as one line, ``warning: <message>``.

Importing this module registers one exit hook, :func:`gc.freeze`. Python
runs exit hooks before it tears the interpreter down, so every object alive
at exit moves to the permanent generation, and the shutdown's final full
collections, which would walk the tens of thousands of objects numpy and
densreg keep, skip them. Standard output and standard error are still
flushed, other exit hooks still run, and objects that no reference cycle
holds are still freed by their reference counts. While the process lives,
collection is unchanged, also for a caller that runs :func:`main` in process.

Each command imports only the modules it runs: without a bytecode cache a
process compiles every module it imports. Importing this module loads the
config, file and model layers, all that ``predict`` and ``check`` run.
``fit`` adds ``boosting`` (imported by :func:`densreg.model.fit`),
``estimate`` ``ingest``, ``interpret`` ``interpret`` (and ``render`` to write
SVG), and ``simulate`` ``simulate`` and ``boosting``. A ``fit`` that stops
by cross-validation or at a fixed iteration loads no ``numpy.random``
(about 10 ms and 6 MB in a fresh process): it draws its folds in Python, as
numpy's default generator would. Bootstrap stopping and ``simulate`` import
it for their replicates.
"""
from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import json
import os
import sys
import warnings

import numpy as np

from .bayes import check_clr_rows, check_decomposition, clr_rows, decompose_clr_rows
from .io import (
    ConfigError,
    DataError,
    check_input_file,
    fmt,
    load_config,
    measure_header,
    model_from_dict,
    model_to_dict,
    read_density_rows,
    read_observations,
    read_table,
    reported_as,
    run_objects,
    write_density_file,
    write_table,
)
from .model import design_report, extract_effect, fit as fit_model, predict

OK, CONFIG_ERROR, DATA_ERROR, NUMERIC_ERROR = 0, 2, 3, 4

# the shutdown's full collections would walk every object alive at exit;
# the module docstring says what the hook leaves unchanged
atexit.register(gc.freeze)


@contextlib.contextmanager
def _writing(cfg, args):
    """The output boundary: it makes the output directory, and a directory
    that cannot be made or a file in it that cannot be written is a config
    error at ``--out`` or ``config.out``."""
    out = args.out or cfg["out"] or "."
    with reported_as(ConfigError, "--out" if args.out else "config.out"):
        os.makedirs(out, exist_ok=True)
        yield out


def cmd_estimate(cfg, args) -> int:
    from .ingest import assemble_mixed, group_table, naming_group, shared_bandwidth

    run = run_objects(cfg, "estimate")
    measure, kde_cfg = run.measure, run.kde
    obs_path = cfg["data"]["observations"]
    with reported_as(DataError):
        table, key_columns = read_observations(obs_path)
        if not key_columns:
            raise DataError(f"{obs_path}: no grouping columns found")
        groups, skipped = group_table(table, key_columns)
        if not groups:
            raise DataError("no usable observation groups")
        bandwidth = shared_bandwidth(groups, measure, kde_cfg, key_columns)
        densities, report = [], []
        for g in groups:
            p0, p1, _ = g.boundary_shares()
            with naming_group(key_columns, g.key):
                densities.append(assemble_mixed(g, measure, kde_cfg, bandwidth=bandwidth))
            report.append(list(g.key) + [g.values.size, p0, p1, bandwidth])
    with _writing(cfg, args) as out:
        write_density_file(
            os.path.join(out, "densities.tsv"), measure, key_columns,
            [g.key for g in groups], densities,
        )
        write_table(
            os.path.join(out, "estimate_report.tsv"),
            key_columns + ["n", "p0", "p1", "bandwidth"],
            report,
        )
        if skipped:
            write_table(
                os.path.join(out, "skipped_groups.tsv"), key_columns,
                [list(k) for k in skipped],
            )
    if args.verbose:
        print(f"estimated {len(densities)} densities (bandwidth {bandwidth})", file=sys.stderr)
    return OK


def _read_densities(path, numeric):
    """The measure, key table, density rows and clr rows of a density file;
    the ``numeric`` key columns must hold finite numbers."""
    measure, key_columns, keys, values = read_density_rows(path, numeric)
    table = {col: [key[i] for key in keys] for i, col in enumerate(key_columns)}
    return measure, table, values, clr_rows(values, measure)


def _write_fit_outputs(out, model):
    # dumps runs the C encoder; dump would run the Python one
    with open(os.path.join(out, "model.json"), "w") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")
    term_names = [t.name for t in model.spec.terms]
    for comp, state in model.component_states().items():
        write_table(
            os.path.join(out, f"risk_{comp}.tsv"),
            ["iteration", "sse"],
            [[i, v] for i, v in enumerate(state.risk_path.tolist())],
        )
        write_table(
            os.path.join(out, f"selection_{comp}.tsv"),
            ["iteration", "term"],
            [[i + 1, term_names[j]] for i, j in enumerate(state.selections)],
        )
        if state.stop_curve is not None:
            write_table(
                os.path.join(out, f"stop_curve_{comp}.tsv"),
                ["iteration", "out_of_sample_risk"],
                [[i, v] for i, v in enumerate(state.stop_curve.tolist())],
            )
    write_table(
        os.path.join(out, "design_report.tsv"),
        ["term", "kind", "columns", "lambda", "target_df", "achieved_df"],
        [
            [r["term"], r["kind"], r["columns"], r["lambda"],
             "none" if r["target_df"] is None else r["target_df"], r["achieved_df"]]
            for r in design_report(model)
        ],
    )


def cmd_fit(cfg, args) -> int:
    run = run_objects(cfg, "fit")
    with reported_as(DataError):
        measure, data, _, y_clr = _read_densities(cfg["data"]["densities"],
                                                  run.spec.numeric_covariates)
        model = fit_model(run.spec, data, y_clr, measure, run.boost, **run.fit_options)
    with _writing(cfg, args) as out:
        _write_fit_outputs(out, model)
    if args.verbose:
        stops = ", ".join(f"{c} {s.m_stop}" for c, s in model.component_states().items())
        print(f"fitted model, stopping at {stops}", file=sys.stderr)
    return OK


def _load_model(path):
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from exc


def cmd_predict(cfg, args) -> int:
    run_objects(cfg, "predict")
    with reported_as(DataError):
        model = _load_model(cfg["data"]["model"])
        header, rows = read_table(cfg["data"]["newdata"], model.spec.numeric_covariates)
        data = {col: [row[i] for row in rows] for i, col in enumerate(header)}
        preds = predict(model, data)
    with _writing(cfg, args) as out:
        write_density_file(
            os.path.join(out, "predictions.tsv"), model.measure, header,
            [tuple(row) for row in rows], preds,
        )
    return OK


def cmd_interpret(cfg, args) -> int:
    from .interpret import did_effect, heatmap as build_heatmap, log_odds

    run = run_objects(cfg, "interpret")
    with reported_as(DataError):
        model = _load_model(cfg["data"]["model"])
    icfg = cfg["interpret"]
    m = model.measure
    want_svg = icfg["svg"]
    if want_svg:
        from .render import curve_svg, heatmap_svg

    # a config error of an item passes the output boundary unchanged
    with _writing(cfg, args) as out:
        for i, spec in enumerate(run.effects):
            name = spec["name"]
            # the model file is checked when read: an error here is the item's
            with reported_as(ConfigError, f"config.interpret.effects[{i}]"):
                dens, z = extract_effect(model, spec["term"], spec["at"])
            write_table(
                os.path.join(out, f"effect_{name}.tsv"),
                ["point", "is_atom", "clr", "density"],
                [
                    [m.locations[i], i < m.n_atoms, z.values[i], dens.values[i]]
                    for i in range(m.size)
                ],
            )
            if want_svg and m.n_grid:
                markers = {
                    f"atom {fmt(loc)}": (float(loc), float(z.values[i]))
                    for i, loc in enumerate(m.atom_locations)
                }
                curve_svg(
                    os.path.join(out, f"effect_{name}.svg"),
                    m.grid,
                    {"clr effect": z.values[m.n_atoms:]},
                    markers,
                    title=f"clr effect: {name}",
                )

        odds_rows = []
        for i, q in enumerate(icfg["odds"]):
            with reported_as(ConfigError, f"config.interpret.odds[{i}]"):
                lo = log_odds(extract_effect(model, q["term"], q["at"])[1], q["t"], q["s"])
            odds_rows.append([q["term"], q["t"], q["s"], lo, float(np.exp(lo))])
        if odds_rows:
            write_table(
                os.path.join(out, "odds_table.tsv"),
                ["term", "t", "s", "log_odds", "odds"],
                odds_rows,
            )

        for i, q in enumerate(run.did):
            with reported_as(ConfigError, f"config.interpret.did[{i}]"):
                did = did_effect(
                    model,
                    q["factor_a"], tuple(q["levels_a"]),
                    q["factor_b"], tuple(q["levels_b"]),
                    q["fixed"],
                )
            name = q["name"]
            grid = build_heatmap(did, icfg["heatmap_resolution"])
            write_table(
                os.path.join(out, f"{name}_heatmap.tsv"),
                ["t\\s"] + [fmt(p) for p in grid.points],
                [
                    [fmt(grid.points[r])] + [v for v in grid.values[r]]
                    for r in range(len(grid.points))
                ],
            )
            # the atoms in order take the outer band; it is empty unless m is mixed
            band = iter(grid.outer_band)
            write_table(
                os.path.join(out, f"{name}_bands.tsv"),
                ["point", "is_atom", "outer_band_log_odds"],
                [[point, bool(atom), next(band, "") if atom else ""]
                 for point, atom in zip(grid.points, grid.is_atom)],
            )
            if want_svg:
                heatmap_svg(
                    os.path.join(out, f"{name}_heatmap.svg"),
                    grid.values,
                    grid.is_atom,
                    title=f"log odds: {name}",
                )
    return OK


def cmd_simulate(cfg, args) -> int:
    from .simulate import fpca, rel_mse, selection_counts, simulate_responses

    run = run_objects(cfg, "simulate")
    spec, boost_cfg, options = run.spec, run.boost, run.fit_options
    with reported_as(DataError):
        measure, data, _, y_clr = _read_densities(cfg["data"]["densities"],
                                                  spec.numeric_covariates)
        base = fit_model(spec, data, y_clr, measure, boost_cfg, **options)
    fitted = base.fits.fitted_clr
    sim_cfg = cfg["simulation"]
    with reported_as(ConfigError, "config.simulation.truncation"):
        structure = fpca(y_clr - fitted, measure, truncation=sim_cfg["truncation"])
    replicates = sim_cfg["replicates"]
    errors, paths = [], []
    with reported_as(DataError):
        for seed in np.random.SeedSequence(cfg["seed"]).spawn(replicates):
            sim = simulate_responses(fitted, structure, seed=seed,
                                     noise_scale=sim_cfg["noise_scale"])
            refit = fit_model(spec, data, sim, measure, boost_cfg, **options)
            # the in-sample fit is the prediction at the training covariates
            errors.append(rel_mse(fitted, refit.fits.fitted_clr, measure))
            paths.append({comp: s.selections for comp, s in refit.component_states().items()})
    with _writing(cfg, args) as out:
        write_table(
            os.path.join(out, "simulate_relmse.tsv"),
            ["replicate", "relmse_predictions"],
            list(enumerate(errors)),
        )
        write_table(
            os.path.join(out, "simulate_selection.tsv"),
            ["term", "component", "selected", "not_selected"],
            selection_counts([t.name for t in spec.terms], paths),
        )
    if args.verbose:
        med = float(np.median(errors))
        print(f"median relMSE over {replicates} replicates: {med:.4f}", file=sys.stderr)
    return OK


def cmd_check(cfg, args) -> int:
    path = args.target
    if not path:
        raise ConfigError("check needs a target file argument")
    check_input_file(path, "target")
    with reported_as(DataError):
        measure, _, values, z = _read_densities(path, ())
        problems = []
        if measure.interval is not None:
            length = measure.interval[1] - measure.interval[0]
            # relative to the length: rounding in the weights grows with it
            if abs(measure.grid_weights.sum() - length) > 1e-12 * max(1.0, length):
                problems.append("quadrature weights do not reproduce the interval length")
        for i, total in enumerate(values @ measure.weights):
            if abs(total - 1.0) > 1e-6:
                problems.append(f"row {i + 1}: integral {float(total)!r} deviates from 1")
        try:
            check_clr_rows(z, measure)
        except ValueError as exc:
            problems.append(str(exc))
        print(f"{path}: {len(values)} densities on {measure_header(measure)[1:]}")
        if measure.is_mixed:
            try:
                dev, tol = check_decomposition(z, decompose_clr_rows(z, measure), measure)
                print(f"worst decompose/embed deviation {dev:.3g} (tolerance {tol:.3g})")
            except ValueError as exc:
                problems.append(str(exc))
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return DATA_ERROR
    print(f"OK all invariants hold for {len(values)} rows")
    return OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "interpret": cmd_interpret,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def _warning_line(message, *_) -> str:
    # without the library's file and line: stderr stays the same wherever it is installed
    return f"warning: {message}\n"


def main(argv=None) -> int:
    # the first paragraph: the rest of the docstring is for readers of the code
    parser = argparse.ArgumentParser(prog="densreg", description=(__doc__ or "").split("\n\n")[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("target", nargs="?", help="input file for the check command")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--verbose", action="store_true")
    # intermixed, so the check target may also follow the options
    args = parser.parse_intermixed_args(argv)
    # the format, not showwarning: a caller that records warnings still receives them
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        cfg = load_config(args.config, {} if args.seed is None else {"seed": args.seed})
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except (np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    raise SystemExit(main())
