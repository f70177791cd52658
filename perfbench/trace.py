"""Traced in-process run of the CLI chain.

Calls the public functions of each ``densreg`` layer in the order the CLI
commands call them and records a span (name, start, end, parent) around each
call. All spans come from this file; nothing inside ``src/`` is instrumented.
Probes that the CLI does not run (factorization only, the single-thread
stopping baseline) run after the chain, outside the command spans. The fit
follows ``model.fit`` for a mixed reference measure, which every workload
uses: one boosting fit per component, the discrete one with seed + 1.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from densreg.bayes import ClrElement, clr, clr_inv, decompose_clr, embed_clr_continuous, embed_clr_discrete
from densreg.boosting import BoostConfig, MixedFit, boost_from_clr, early_stop_from_clr
from densreg.ingest import DEFAULT_BANDWIDTH, KdeConfig, assemble_mixed, group_table, kde, select_bandwidth
from densreg.interpret import did_effect, heatmap
from densreg.io import (
    load_config,
    model_from_dict,
    model_to_dict,
    read_density_file,
    read_table,
    write_density_file,
    write_table,
)
from densreg.measure import make_mixed
from densreg.model import EffectTerm, FittedModel, ModelSpec, build_designs, extract_effect, predict_clr

import proc


class Tracer:
    """In-memory spans and counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "start": time.monotonic(), "end": None,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def add(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def command_seconds(self) -> float:
        """Total of the root spans of the CLI commands (probes excluded)."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["parent"] is None and s["name"].startswith("cli."))


# ---------------------------------------------------------------------------
# config to library objects, as the CLI maps them
# ---------------------------------------------------------------------------

def _measure(cfg):
    spec = cfg["measure"]
    a, b = spec["interval"]
    return make_mixed(a, b, spec["atoms"], spec["grid_size"])


def _spec(cfg):
    m = cfg["model"]
    terms = tuple(
        EffectTerm(**dict(t, covariates=tuple(t["covariates"]), orthogonal_to=tuple(t["orthogonal_to"])))
        for t in m["terms"]
    )
    return ModelSpec(terms, m["coding"], m["references"])


def _boost_config(cfg):
    b = cfg["boosting"]
    return BoostConfig(
        step_length=b["step_length"],
        max_iterations=b["max_iterations"],
        stopping=b["stopping"]["method"],
        m_stop=b["stopping"]["m_stop"],
        folds=b["stopping"]["folds"],
        replicates=b["stopping"]["replicates"],
        target_df=cfg["model"]["default_df"],
        seed=cfg["seed"],
        threads=cfg["threads"],
    )


def _design_options(cfg):
    db = cfg["model"]["density_basis"]
    return {
        "default_df": cfg["model"]["default_df"],
        "density_knots": db["knots"],
        "density_degree": db["degree"],
        "density_penalty_order": db["penalty_order"],
        "lambda_density": db["lambda_density"],
    }


def _columns(header, rows):
    return {col: [row[i] for row in rows] for i, col in enumerate(header)}


# ---------------------------------------------------------------------------
# the four commands
# ---------------------------------------------------------------------------

def traced_estimate(t: Tracer, cfg, out):
    with t.span("cli.estimate"):
        with t.span("io.read_table"):
            header, rows = read_table(cfg["data"]["observations"])
        table = _columns(header, rows)
        table["value"] = [float(v) for v in table["value"]]
        table["weight"] = [float(v) for v in table["weight"]]
        key_columns = [c for c in header if c not in ("value", "weight")]
        measure = _measure(cfg)
        kcfg = KdeConfig(bandwidth=cfg["kde"]["bandwidth"], floor=cfg["kde"]["floor"],
                         **({} if cfg["kde"]["bandwidth_grid"] is None
                            else {"bandwidth_grid": np.asarray(cfg["kde"]["bandwidth_grid"], dtype=float)}))
        with t.span("ingest.group_table"):
            groups, _ = group_table(table, key_columns)
        usable = [g for g in groups if int(g.interior.sum()) >= 3]
        with t.span("ingest.select_bandwidth"):
            candidates = [select_bandwidth(g, measure, kcfg) for g in usable]
        bandwidth = min(candidates) if candidates else DEFAULT_BANDWIDTH
        with t.span("ingest.assemble"):
            densities = [assemble_mixed(g, measure, kcfg, bandwidth=bandwidth) for g in groups]
        path = os.path.join(out, "densities.tsv")
        with t.span("io.write_density"):
            write_density_file(path, measure, key_columns, [g.key for g in groups], densities)
    grid = kcfg.bandwidth_grid
    t.add("ingest.ucv_evals", len(usable) * grid.size)
    for g in usable:
        n = int(g.interior.sum())
        t.add("ingest.kernel_evals", grid.size * (measure.n_grid * n + n * n))
    t.add("ingest.bandwidth_at_edge", sum(b in (grid[0], grid[-1]) for b in candidates))
    t.add("ingest.bandwidth_fallback", len(groups) - len(usable))
    floor = kcfg.floor / measure.total_mass
    for g in groups:
        p0, p1, p_int = g.boundary_shares()
        raw = [p0 / measure.atom_weights[0], p1 / measure.atom_weights[1]]
        grid_part = p_int * kde(g, measure, bandwidth) if g.interior.any() and p_int > 0 else np.zeros(measure.n_grid)
        t.add("ingest.floored_values", int(np.sum(np.concatenate([raw, grid_part]) < floor)))
    t.add("io.density_bytes", os.path.getsize(path))


def traced_fit(t: Tracer, cfg, out):
    """Returns the m_stop and selection path per component, and per component
    the (responses, measure, designs, config) that the probes rerun."""
    config = _boost_config(cfg)
    with t.span("cli.fit"):
        with t.span("io.read_density"):
            measure, key_columns, keys, densities = read_density_file(cfg["data"]["densities"])
        data = {col: [k[i] for k in keys] for i, col in enumerate(key_columns)}
        spec = _spec(cfg)
        options = _design_options(cfg)
        with t.span("model.build_designs"):
            frame, bases, designs = build_designs(spec, data, measure, **options)
        with t.span("bayes.clr"):
            z = [clr(f) for f in densities]
        with t.span("bayes.decompose"):
            parts = [decompose_clr(zi) for zi in z]
        components = {
            "continuous": (np.stack([p[0].values for p in parts]), designs["continuous"], config),
            "discrete": (np.stack([p[1].values for p in parts]), designs["discrete"],
                         replace(config, seed=config.seed + 1)),
        }
        states = {}
        for comp, (y, ds, c_cfg) in components.items():
            m_comp = bases[comp].measure
            if c_cfg.stopping == "fixed":
                m_stop, curve = (c_cfg.m_stop if c_cfg.m_stop is not None else c_cfg.max_iterations), None
            else:
                with t.span("boosting.stop"):
                    stop = early_stop_from_clr(y, m_comp, ds, c_cfg)
                m_stop, curve = stop.m_stop, stop.risk_curve
                t.add("boosting.heldout_iterations", min(c_cfg.folds, y.shape[0]) * c_cfg.max_iterations
                      if c_cfg.stopping == "cv" else c_cfg.replicates * c_cfg.max_iterations)
                t.add("boosting.stop_max_iterations", c_cfg.max_iterations)
                t.add("boosting.stop_m_stop", m_stop)
            with t.span("boosting.boost"):
                state = boost_from_clr(y, m_comp, ds, c_cfg, m_stop=m_stop)
            state.stop_curve = curve
            states[comp] = state
            t.add("boosting.iterations", m_stop)
            t.add(f"boosting.m_stop.{comp}", m_stop)
            t.add("model.design_cols", sum(d.n_cov * d.density_basis.n_basis for d in ds))
        with t.span("bayes.embed"):
            fc, fd = states["continuous"], states["discrete"]
            combined = np.stack([
                embed_clr_continuous(ClrElement(bases["continuous"].measure, fc.fitted_clr[i]), measure).values
                + embed_clr_discrete(ClrElement(bases["discrete"].measure, fd.fitted_clr[i]), measure).values
                for i in range(len(densities))
            ])
        model = FittedModel(
            spec, measure, frame, MixedFit(fc, fd, measure, combined), bases,
            options["lambda_density"], config,
            {k: options[k] for k in ("density_knots", "density_degree", "density_penalty_order")},
        )
        path = os.path.join(out, "model.json")
        with t.span("io.model_dump"):
            with open(path, "w") as fh:
                json.dump(model_to_dict(model), fh)
                fh.write("\n")
    t.add("io.model_bytes", os.path.getsize(path))
    paths = {c: (s.m_stop, [int(j) for j in s.selections]) for c, s in states.items()}
    return paths, {c: (y, bases[c].measure, ds, c_cfg) for c, (y, ds, c_cfg) in components.items()}


def _load_model(t: Tracer, path):
    with t.span("io.model_load"):
        with open(path) as fh:
            return model_from_dict(json.load(fh))


def traced_predict(t: Tracer, cfg, out):
    with t.span("cli.predict"):
        model = _load_model(t, os.path.join(out, "model.json"))
        with t.span("io.read_table"):
            header, rows = read_table(cfg["data"]["newdata"])
        data = _columns(header, rows)
        with t.span("model.predict_clr"):
            zs = predict_clr(model, data)
        with t.span("bayes.clr_inv"):
            preds = [clr_inv(z) for z in zs]
        path = os.path.join(out, "predictions.tsv")
        with t.span("io.write_density"):
            write_density_file(path, model.measure, header, [tuple(r) for r in rows], preds)
    t.add("model.predict_rows", len(rows))
    t.add("io.density_bytes", os.path.getsize(path))


def traced_interpret(t: Tracer, cfg, out):
    icfg = cfg["interpret"]
    with t.span("cli.interpret"):
        model = _load_model(t, os.path.join(out, "model.json"))
        m = model.measure
        for spec in icfg["effects"]:
            with t.span("model.extract_effect"):
                dens, z = extract_effect(model, spec["term"], spec["at"])
            with t.span("io.write_table"):
                write_table(
                    os.path.join(out, f"effect_{spec.get('name', spec['term'])}.tsv"),
                    ["point", "is_atom", "clr", "density"],
                    [[m.locations[i], i < m.n_atoms, z.values[i], dens.values[i]] for i in range(m.size)],
                )
        for i, q in enumerate(icfg["did"]):
            with t.span("interpret.did_effect"):
                did = did_effect(model, q["factor_a"], tuple(q["levels_a"]),
                                 q["factor_b"], tuple(q["levels_b"]), q.get("fixed", {}))
            with t.span("interpret.heatmap"):
                grid = heatmap(did, icfg["heatmap_resolution"])
            with t.span("io.write_table"):
                write_table(
                    os.path.join(out, f"{q.get('name', f'did_{i}')}_heatmap.tsv"),
                    ["t\\s"] + [repr(float(p)) for p in grid.points],
                    [[repr(float(grid.points[r]))] + list(grid.values[r]) for r in range(len(grid.points))],
                )


# ---------------------------------------------------------------------------
# probes outside the chain
# ---------------------------------------------------------------------------

def probe_boosting(t: Tracer, components: dict):
    """Factorization-only fits, for the per-iteration cost."""
    for comp, (y, m_comp, ds, c_cfg) in components.items():
        with t.span("probe.boosting.factor"):
            boost_from_clr(y, m_comp, ds, c_cfg, m_stop=0)


def probe_stop_threads(t: Tracer, components: dict, nproc: int):
    """Resampled stopping of the continuous component at 1 and nproc threads."""
    y, m_comp, ds, c_cfg = components["continuous"]
    if c_cfg.stopping == "fixed":
        return
    for threads in sorted({1, nproc}):
        with t.span(f"probe.stop.threads{threads}"):
            early_stop_from_clr(y, m_comp, ds, replace(c_cfg, threads=threads))


_IMPORTTIME = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)")


def import_times(modules, cwd, runs=3) -> dict:
    """Median cumulative import time of each module, from ``-X importtime``."""
    samples = {m: [] for m in modules}
    for _ in range(runs):
        res = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import densreg.cli"],
            cwd=cwd, env=proc.program_env(), capture_output=True, text=True, timeout=120,
        )
        found = {name: int(us) for us, name in _IMPORTTIME.findall(res.stderr)}
        for m in modules:
            samples[m].append(found.get(m, 0) * 1e-6)
    return {m: statistics.median(v) for m, v in samples.items()}


def traced_run(commands, cfg_path, out, nproc):
    """Run the chain in-process; returns (tracer, m_stop and selection paths)."""
    t = Tracer()
    cfg = load_config(cfg_path)
    base = os.path.dirname(os.path.abspath(cfg_path))
    cfg["data"] = {k: v and os.path.join(base, v) for k, v in cfg["data"].items()}
    os.makedirs(out, exist_ok=True)
    paths, components = None, None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in commands:
            if command == "estimate":
                traced_estimate(t, cfg, out)
                cfg["data"]["densities"] = os.path.join(out, "densities.tsv")
            elif command == "fit":
                paths, components = traced_fit(t, cfg, out)
            elif command == "predict":
                traced_predict(t, cfg, out)
            elif command == "interpret":
                traced_interpret(t, cfg, out)
        probe_boosting(t, components)
        probe_stop_threads(t, components, nproc)
    t.add("boosting.jitter_warnings", sum("ridge jitter" in str(w.message) for w in caught))
    return t, paths
