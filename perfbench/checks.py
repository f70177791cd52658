"""Output checks: summaries of what each CLI command wrote, compared with a
reference captured from an earlier commit.

m_stop, the selection path of every component and the number of predicted
rows must match exactly. Every other number (bandwidth, densities,
coefficients, prediction column sums, effects, heatmap sums) must satisfy
|got - ref| <= ATOL + RTOL * |ref| elementwise.
"""
from __future__ import annotations

import hashlib
import json
import os

import numpy as np

RTOL = 1e-6
ATOL = 1e-9


def _density_rows(path):
    """Value matrix of a density file, key columns dropped (no validation)."""
    with open(path) as fh:
        fh.readline()                       # measure header
        header = fh.readline().rstrip("\n").split("\t")
        n_keys = sum(1 for c in header if not (c.startswith("atom:") or c.startswith("g:")))
        rows = [ln.rstrip("\n").split("\t")[n_keys:] for ln in fh if ln.strip()]
    return np.array(rows, dtype=float)


def _column_stats(values: np.ndarray) -> dict:
    return {"rows": int(values.shape[0]), "sum": values.sum(axis=0).tolist(),
            "sumsq": (values ** 2).sum(axis=0).tolist()}


def _table(path) -> tuple[list, list]:
    with open(path) as fh:
        lines = [ln.rstrip("\n").split("\t") for ln in fh if ln.strip()]
    return lines[0], lines[1:]


def summarize(command: str, out_dir: str) -> dict:
    """What a command wrote, reduced to what the reference keeps."""
    if command == "estimate":
        _, report = _table(os.path.join(out_dir, "estimate_report.tsv"))
        return {
            "bandwidth": float(report[0][-1]),
            "densities": _density_rows(os.path.join(out_dir, "densities.tsv")).tolist(),
        }
    if command == "fit":
        with open(os.path.join(out_dir, "model.json")) as fh:
            fits = json.load(fh)["fits"]
        return {
            comp: {
                "m_stop": f["m_stop"],
                "selections": f["selections"],
                "coefficients": f["coefficients"],
            }
            for comp, f in fits.items()
        }
    if command == "predict":
        return _column_stats(_density_rows(os.path.join(out_dir, "predictions.tsv")))
    if command == "interpret":
        out = {}
        for name in sorted(os.listdir(out_dir)):
            if name.startswith("effect_") and name.endswith(".tsv"):
                _, rows = _table(os.path.join(out_dir, name))
                out[name] = [float(r[2]) for r in rows]
            elif name.endswith("_heatmap.tsv"):
                _, rows = _table(os.path.join(out_dir, name))
                values = np.array([r[1:] for r in rows], dtype=float)
                out[name] = {"row_sum": values.sum(axis=1).tolist(),
                             "col_sum": values.sum(axis=0).tolist()}
        return out
    raise ValueError(f"no summary for command {command!r}")


def compare(got, ref, path: str = "") -> list:
    """Differences between a summary and its reference, as messages."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        return [p for k in ref for p in compare(got[k], ref[k], f"{path}.{k}")]
    if path.endswith(("m_stop", "selections", "rows")):
        return [] if got == ref else [f"{path}: {got!r} != reference {ref!r}"]
    if isinstance(ref, list) and ref and isinstance(ref[0], list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs from reference"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare(g, r, f"{path}[{i}]")]
    g, r = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if g.shape != r.shape:
        return [f"{path}: shape {g.shape} != reference {r.shape}"]
    err = np.abs(g - r) - (ATOL + RTOL * np.abs(r))
    if np.any(err > 0) or not np.all(np.isfinite(g)):
        worst = float(np.max(np.abs(g - r)))
        return [f"{path}: max |got - ref| = {worst:.3g} exceeds tolerance"]
    return []


def digest_files(out_dir: str, names) -> dict:
    """sha256 of each named output file."""
    out = {}
    for name in sorted(names):
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[name] = h.hexdigest()
    return out
