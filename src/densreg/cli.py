"""Batch command-line front-end.

Subcommands: estimate (observations to densities), fit (densities to model),
predict, interpret (effect curves, odds tables, difference-in-differences
heatmaps), simulate (residual-driven replication study), and check (invariant
suite for a density file). All inputs come from a JSON config plus
tab-separated data files; all outputs are tab-separated tables, JSON model
files, and optional SVG figures. Runs are deterministic for a fixed seed,
also across thread counts.

Exit codes: 0 ok, 2 config error, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .bayes import ClrElement, clr, clr_inv
from .ingest import DEFAULT_BANDWIDTH, assemble_mixed, group_table, select_bandwidth
from .io import (
    ConfigError,
    DataError,
    fmt,
    load_config,
    measure_header,
    model_from_dict,
    model_to_dict,
    read_density_file,
    read_table,
    run_objects,
    write_density_file,
    write_table,
)
from .interpret import heatmap as build_heatmap
from .interpret import did_effect, log_odds
from .model import design_report, extract_effect, fit as fit_model, predict
from .render import curve_svg, heatmap_svg
from .simulate import fpca, rel_mse, selection_table, simulate_responses

OK, CONFIG_ERROR, DATA_ERROR, NUMERIC_ERROR = 0, 2, 3, 4


def _out_dir(cfg, args):
    out = args.out or cfg["out"] or "."
    os.makedirs(out, exist_ok=True)
    return out


def _read_observations(path):
    header, rows = read_table(path)
    if "value" not in header or "weight" not in header:
        raise DataError(f"{path}: needs 'value' and 'weight' columns")
    table = {col: [row[i] for row in rows] for i, col in enumerate(header)}
    table["value"] = [float(v) for v in table["value"]]
    table["weight"] = [float(v) for v in table["weight"]]
    key_columns = [c for c in header if c not in ("value", "weight")]
    return table, key_columns


def cmd_estimate(cfg, args) -> int:
    run = run_objects(cfg, "estimate")
    measure, kde_cfg = run.measure, run.kde
    out = _out_dir(cfg, args)
    obs_path = cfg["data"]["observations"]
    table, key_columns = _read_observations(obs_path)
    if not key_columns:
        raise DataError(f"{obs_path}: no grouping columns found")
    groups, skipped = group_table(table, key_columns)
    if not groups:
        raise DataError("no usable observation groups")

    # bandwidth policy: smallest per-group optimum shared by all groups
    if isinstance(kde_cfg.bandwidth, str):
        candidates = [
            select_bandwidth(g, measure, kde_cfg)
            for g in groups
            if int(g.interior.sum()) >= 3
        ]
        bandwidth = min(candidates) if candidates else DEFAULT_BANDWIDTH
    else:
        bandwidth = float(kde_cfg.bandwidth)

    densities, report = [], []
    for g in groups:
        p0, p1, _ = g.boundary_shares()
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


def _densities_and_table(path):
    measure, key_columns, keys, densities = read_density_file(path)
    data = {
        col: [key[i] for key in keys] for i, col in enumerate(key_columns)
    }
    return measure, key_columns, keys, densities, data


def _write_fit_outputs(out, model, prefix=""):
    with open(os.path.join(out, prefix + "model.json"), "w") as fh:
        json.dump(model_to_dict(model), fh)
        fh.write("\n")
    term_names = [t.name for t in model.spec.terms]
    for comp, state in model.component_states().items():
        write_table(
            os.path.join(out, f"{prefix}risk_{comp}.tsv"),
            ["iteration", "sse"],
            [[i, v] for i, v in enumerate(state.risk_path)],
        )
        write_table(
            os.path.join(out, f"{prefix}selection_{comp}.tsv"),
            ["iteration", "term"],
            [[i + 1, term_names[j]] for i, j in enumerate(state.selections)],
        )
        if state.stop_curve is not None:
            write_table(
                os.path.join(out, f"{prefix}stop_curve_{comp}.tsv"),
                ["iteration", "out_of_sample_risk"],
                [[i, v] for i, v in enumerate(state.stop_curve)],
            )
    write_table(
        os.path.join(out, prefix + "design_report.tsv"),
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
    measure, key_columns, keys, densities, data = _densities_and_table(cfg["data"]["densities"])
    model = fit_model(run.spec, data, densities, run.boost, **run.fit_options)
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
    header, rows = read_table(cfg["data"]["newdata"])
    data = {col: [row[i] for row in rows] for i, col in enumerate(header)}
    preds = predict(model, data)
    write_density_file(
        os.path.join(out, "predictions.tsv"), model.measure, header,
        [tuple(row) for row in rows], preds,
    )
    return OK


def cmd_interpret(cfg, args) -> int:
    run = run_objects(cfg, "interpret")
    out = _out_dir(cfg, args)
    model = _load_model(cfg["data"]["model"])
    icfg = cfg["interpret"]
    m = model.measure
    want_svg = icfg["svg"]

    for spec in run.effects:
        name = spec["name"]
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
    for q in icfg["odds"]:
        dens, z = extract_effect(model, q["term"], q["at"])
        lo = log_odds(z, q["t"], q["s"])
        odds_rows.append([q["term"], q["t"], q["s"], lo, float(np.exp(lo))])
    if odds_rows:
        write_table(
            os.path.join(out, "odds_table.tsv"),
            ["term", "t", "s", "log_odds", "odds"],
            odds_rows,
        )

    for q in run.did:
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
    measure, key_columns, keys, densities, data = _densities_and_table(cfg["data"]["densities"])
    base = fit_model(spec, data, densities, boost_cfg, **options)
    fitted = [clr_inv(ClrElement(measure, row)) for row in base.fits.fitted_clr]
    residuals = [
        ClrElement(measure, clr(y).values - row)
        for y, row in zip(densities, base.fits.fitted_clr)
    ]
    sim_cfg = cfg["simulation"]
    structure = fpca(residuals, truncation=sim_cfg["truncation"])
    replicates = sim_cfg["replicates"]
    seeds = np.random.SeedSequence(cfg["seed"]).spawn(replicates)

    def run_replicate(idx):
        rng_seed = seeds[idx]
        rng = np.random.default_rng(rng_seed)
        sd = sim_cfg["noise_scale"] * np.sqrt(structure.eigenvalues)
        scores = rng.normal(size=(len(fitted), structure.truncation)) * sd
        sim = simulate_responses(fitted, structure, scores=scores)
        refit = fit_model(spec, data, sim, boost_cfg, **options)
        err = rel_mse(fitted, predict(refit, data))
        return err, refit.selected_terms()

    if cfg["threads"] > 1:
        with ThreadPoolExecutor(max_workers=cfg["threads"]) as pool:
            results = list(pool.map(run_replicate, range(replicates)))
    else:
        results = [run_replicate(i) for i in range(replicates)]

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
    for i, f in enumerate(densities):
        total = f.total()
        if abs(total - 1.0) > 1e-6:
            problems.append(f"row {i + 1}: integral {total!r} deviates from 1")
        z = clr(f)
        if abs(float(z.values @ measure.weights)) > 1e-8:
            problems.append(f"row {i + 1}: clr transform does not integrate to zero")
    print(f"{path}: {len(densities)} densities on {measure_header(measure)[1:]}")
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
    parser.add_argument("--threads", type=int, help="worker cap override")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "threads": args.threads}
    try:
        cfg = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
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
