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
Densities are checked as elements when read; from there on the commands
work on N x P clr or density rows.

Exit codes: 0 ok, 2 config error (a model term or reference that the
densities contradict included), 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bayes import check_clr_rows, clr, clr_rows, decompose_clr_rows, round_trip_deviation
from .ingest import assemble_mixed, group_table, naming_group, shared_bandwidth
from .io import (
    ConfigError,
    DataError,
    fmt,
    load_config,
    measure_header,
    model_from_dict,
    model_to_dict,
    read_density_file,
    read_observations,
    read_table,
    run_objects,
    write_density_file,
    write_table,
)
from .interpret import heatmap as build_heatmap
from .interpret import did_effect, log_odds
from .model import SpecMismatch, design_report, extract_effect, fit as fit_model, predict
from .render import curve_svg, heatmap_svg
from .simulate import fpca, rel_mse, selection_table, simulate_responses

OK, CONFIG_ERROR, DATA_ERROR, NUMERIC_ERROR = 0, 2, 3, 4


def _out_dir(cfg, args):
    out = args.out or cfg["out"] or "."
    os.makedirs(out, exist_ok=True)
    return out


def cmd_estimate(cfg, args) -> int:
    run = run_objects(cfg, "estimate")
    measure, kde_cfg = run.measure, run.kde
    out = _out_dir(cfg, args)
    obs_path = cfg["data"]["observations"]
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


def _densities_and_table(path, spec):
    """The measure, clr rows and key columns of a density file."""
    measure, key_columns, keys, densities = read_density_file(path, spec.numeric_covariates)
    data = {
        col: [key[i] for key in keys] for i, col in enumerate(key_columns)
    }
    # one clr per density: the rows keep the bits of the element transform
    y_clr = np.reshape([clr(f).values for f in densities], (-1, measure.size))
    return measure, y_clr, data


def _write_fit_outputs(out, model):
    # dumps runs the C encoder; dump would run the Python one
    with open(os.path.join(out, "model.json"), "w") as fh:
        fh.write(json.dumps(model_to_dict(model)) + "\n")
    term_names = [t.name for t in model.spec.terms]
    for comp, state in model.component_states().items():
        write_table(
            os.path.join(out, f"risk_{comp}.tsv"),
            ["iteration", "sse"],
            [[i, v] for i, v in enumerate(state.risk_path)],
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
                [[i, v] for i, v in enumerate(state.stop_curve)],
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
    out = _out_dir(cfg, args)
    measure, y_clr, data = _densities_and_table(cfg["data"]["densities"], run.spec)
    model = fit_model(run.spec, data, y_clr, measure, run.boost, **run.fit_options)
    _write_fit_outputs(out, model)
    if args.verbose:
        print(f"fitted model, stopping at {model.m_stop}", file=sys.stderr)
    return OK


def _load_model(path):
    try:
        with open(path) as fh:
            return model_from_dict(json.load(fh))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc.msg}") from exc


def cmd_predict(cfg, args) -> int:
    run_objects(cfg, "predict")
    out = _out_dir(cfg, args)
    model = _load_model(cfg["data"]["model"])
    header, rows = read_table(cfg["data"]["newdata"], model.spec.numeric_covariates)
    data = {col: [row[i] for row in rows] for i, col in enumerate(header)}
    preds = predict(model, data)
    write_density_file(
        os.path.join(out, "predictions.tsv"), model.measure, header,
        [tuple(row) for row in rows], preds,
    )
    return OK


def _interpret_item(path, compute):
    """Evaluate one interpret item of the config against the loaded model.

    The model file is checked when it is read, so a ValueError or KeyError
    here comes from the item not fitting the model (an unknown term, level or
    covariate, a point off the support); it becomes a ConfigError at ``path``.
    """
    try:
        return compute()
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"{path}: {exc.args[0] if isinstance(exc, KeyError) else exc}") from exc


def cmd_interpret(cfg, args) -> int:
    run = run_objects(cfg, "interpret")
    out = _out_dir(cfg, args)
    model = _load_model(cfg["data"]["model"])
    icfg = cfg["interpret"]
    m = model.measure
    want_svg = icfg["svg"]

    for i, spec in enumerate(run.effects):
        name = spec["name"]
        dens, z = _interpret_item(
            f"config.interpret.effects[{i}]",
            lambda: extract_effect(model, spec["term"], spec["at"]),
        )
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
        lo = _interpret_item(
            f"config.interpret.odds[{i}]",
            lambda: log_odds(extract_effect(model, q["term"], q["at"])[1], q["t"], q["s"]),
        )
        odds_rows.append([q["term"], q["t"], q["s"], lo, float(np.exp(lo))])
    if odds_rows:
        write_table(
            os.path.join(out, "odds_table.tsv"),
            ["term", "t", "s", "log_odds", "odds"],
            odds_rows,
        )

    for i, q in enumerate(run.did):
        did = _interpret_item(
            f"config.interpret.did[{i}]",
            lambda: did_effect(
                model,
                q["factor_a"], tuple(q["levels_a"]),
                q["factor_b"], tuple(q["levels_b"]),
                q["fixed"],
            ),
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
        write_table(
            os.path.join(out, f"{name}_bands.tsv"),
            ["point", "is_atom", "outer_band_log_odds"],
            [
                [grid.points[r], bool(grid.is_atom[r]),
                 grid.outer_band[int(np.sum(grid.is_atom[:r]))] if grid.is_atom[r] else ""]
                for r in range(len(grid.points))
            ],
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
    run = run_objects(cfg, "simulate")
    spec, boost_cfg, options = run.spec, run.boost, run.fit_options
    out = _out_dir(cfg, args)
    measure, y_clr, data = _densities_and_table(cfg["data"]["densities"], spec)
    base = fit_model(spec, data, y_clr, measure, boost_cfg, **options)
    fitted = base.fits.fitted_clr
    sim_cfg = cfg["simulation"]
    structure = fpca(y_clr - fitted, measure, truncation=sim_cfg["truncation"])
    replicates = sim_cfg["replicates"]
    results = []
    for seed in np.random.SeedSequence(cfg["seed"]).spawn(replicates):
        sim = simulate_responses(fitted, structure, seed=seed, noise_scale=sim_cfg["noise_scale"])
        refit = fit_model(spec, data, sim, measure, boost_cfg, **options)
        # the in-sample fit is the prediction at the training covariates
        results.append((rel_mse(fitted, refit.fits.fitted_clr, measure), refit.selected_terms()))
    write_table(
        os.path.join(out, "simulate_relmse.tsv"),
        ["replicate", "relmse_predictions"],
        [[i, err] for i, (err, _) in enumerate(results)],
    )
    table = selection_table([sel for _, sel in results])
    rows = []
    for term, comps in table.items():
        for comp, counts in comps.items():
            rows.append([term, comp, counts["selected"], counts["not_selected"]])
    write_table(
        os.path.join(out, "simulate_selection.tsv"),
        ["term", "component", "selected", "not_selected"],
        rows,
    )
    if args.verbose:
        med = float(np.median([err for err, _ in results]))
        print(f"median relMSE over {replicates} replicates: {med:.4f}", file=sys.stderr)
    return OK


def cmd_check(cfg, args) -> int:
    path = args.target
    if not path:
        raise ConfigError("check needs a target file argument")
    measure, key_columns, keys, densities = read_density_file(path)
    problems = []
    if measure.interval is not None:
        length = measure.interval[1] - measure.interval[0]
        if abs(measure.grid_weights.sum() - length) > 1e-12:
            problems.append("quadrature weights do not reproduce the interval length")
    values = np.reshape([f.values for f in densities], (-1, measure.size))
    for i, total in enumerate(values @ measure.weights):
        if abs(total - 1.0) > 1e-6:
            problems.append(f"row {i + 1}: integral {float(total)!r} deviates from 1")
    z = clr_rows(values, measure)
    try:
        check_clr_rows(z, measure)
    except ValueError as exc:
        problems.append(str(exc))
    print(f"{path}: {len(densities)} densities on {measure_header(measure)[1:]}")
    if measure.is_mixed:
        deviation, tolerance = round_trip_deviation(z, decompose_clr_rows(z, measure), measure)
        print(f"worst decompose/embed deviation {deviation:.3g} (tolerance {tolerance:.3g})")
        if deviation > tolerance:
            problems.append("mixed rows do not embed back to their clr rows")
    if problems:
        for p in problems:
            print(f"FAIL {p}")
        return DATA_ERROR
    print(f"OK all invariants hold for {len(densities)} rows")
    return OK


_COMMANDS = {
    "estimate": cmd_estimate,
    "fit": cmd_fit,
    "predict": cmd_predict,
    "interpret": cmd_interpret,
    "simulate": cmd_simulate,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="densreg", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("target", nargs="?", help="input file for the check command")
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides config)")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--verbose", action="store_true")
    # intermixed, so the check target may also follow the options
    args = parser.parse_intermixed_args(argv)
    try:
        cfg = load_config(args.config, {} if args.seed is None else {"seed": args.seed})
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except SpecMismatch as exc:
        print(f"config error: config.model.{exc.item}: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    # before ValueError: numpy's LinAlgError subclasses it
    except (np.linalg.LinAlgError, ZeroDivisionError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
