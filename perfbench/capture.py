"""Capture the reference outputs that ``run.py`` compares every run against.

Runs each workload's CLI chain once per input variant and stores, per
command, the summary from ``checks.summarize`` in
``reference/<workload>.json``. Run it only on a commit whose outputs are
known good; a later change that alters m_stop, a selection path, or a
coefficient or prediction beyond the tolerance in ``checks.py`` then fails
the benchmark.

Usage (from the repository root):

    python3 perfbench/capture.py [--workload NAME ...]
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import checks
import proc
import run
import workloads


def rounded(value):
    """Floats cut to 10 significant digits, far inside the check tolerance."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [rounded(v) for v in value]
    return value


def capture(name: str, seed: int) -> dict:
    work = os.path.join(run.STATE_DIR, "capture", f"{name}-{seed}")
    shutil.rmtree(work, ignore_errors=True)
    workloads.generate(name, seed, work)
    try:
        summary = {}
        for command, res, _ in run.run_chain(workloads.WORKLOADS[name], work):
            if res.returncode != 0:
                raise SystemExit(f"{name} seed {seed}: {command} failed: {res.stderr}")
            summary[command] = rounded(checks.summarize(command, os.path.join(work, "out")))
        return summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, proc.SRC)
    os.makedirs(os.path.join(proc.HERE, "reference"), exist_ok=True)
    for name in args.workload or sorted(workloads.WORKLOADS):
        ref = {str(s): capture(name, s) for s in range(workloads.INPUT_VARIANTS)}
        with open(os.path.join(proc.HERE, "reference", f"{name}.json"), "w") as fh:
            json.dump(ref, fh, separators=(",", ":"))
            fh.write("\n")
        print(f"captured {name}: {len(ref)} input variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
