"""densreg benchmark: the estimate -> fit -> predict -> interpret CLI chain.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's CLI chain, one fresh process per
command, again and again for about ``--seconds`` seconds (at least twice),
and reports end-to-end medians, scaled to a reference host speed (see
``REFERENCE_NUMPY_S``). With ``--trace 1`` it runs the chain once
and then a traced in-process run of the same layer calls (``trace.py``),
and reports per-layer metrics. Every run checks the outputs: ``densreg
check`` on estimated densities and predictions, the first chain against the
captured reference (``reference/``), later chains byte for byte against the
first, and in the traced run the m_stop and selection paths against the CLI
run. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed command or
check counts as one failed operation. A record with the host, every sample
and the spans goes to ``.perfbench/<workload>-s<seed>-t<trace>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import proc

# For the traced run in this process. Modules that load numpy (checks, trace,
# densreg) are imported inside functions, after this line.
os.environ.update(proc.BLAS_ENV)

MIN_CHAINS = 2
# End-to-end times are reported at a reference host speed: each is multiplied
# by REFERENCE_NUMPY_S over the run's median time from process launch to the
# end of ``import numpy``, which every launched command does before it imports
# densreg, so the program cannot change it. On a shared host whose speed drifts
# by tens of percent within minutes, this removes the common factor from run
# to run. Raw times and the factor are kept in the run record.
REFERENCE_NUMPY_S = 0.15
STATE_DIR = os.path.join(proc.ROOT, ".perfbench")
# density file that ``densreg check`` validates after each command
CHECKED_OUTPUT = {"estimate": "densities.tsv", "predict": "predictions.tsv"}


def host_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(proc.BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "commit": commit,
    }


def _listing(out: str) -> dict:
    return {e.name: (e.stat().st_mtime_ns, e.stat().st_size) for e in os.scandir(out) if e.is_file()}


def run_chain(workload, work: str) -> list:
    """One pass of the CLI chain; returns [(command, ProcResult, files written)]."""
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    steps = []
    for command in workload.commands:
        before = _listing(out)
        res = proc.run_cli(command, work, "--config", "config.json")
        os.sync()  # flush this command's writes now, so the next command does not wait on them
        after = _listing(out)
        steps.append((command, res, sorted(n for n in after if before.get(n) != after[n])))
    return steps


class Checker:
    """Counts operations and failures and keeps the first chain's digests."""

    def __init__(self, reference: dict | None, work: str):
        self.reference = reference
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_digests: dict | None = None
        self.setup_samples: list[float] = []
        self.numpy_samples: list[float] = []
        self.fit_summary = None

    def _sample(self, res):
        if res.setup_s is not None:
            self.setup_samples.append(res.setup_s)
            self.numpy_samples.append(res.numpy_s)

    def _fail(self, message: str):
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def chain(self, steps: list):
        import checks

        out = os.path.join(self.work, "out")
        digests = {}
        for command, res, written in steps:
            self.attempted += 1
            self._sample(res)
            issues = []
            if res.returncode != 0:
                issues.append(f"{command} exited {res.returncode}: {res.stderr.strip()[-300:]}")
            else:
                digests[command] = checks.digest_files(out, written)
                if self.first_digests is None:
                    issues += self._first_chain_checks(command, out)
                elif digests[command] != self.first_digests.get(command):
                    issues.append(f"{command}: outputs differ from the first chain of this run")
            if issues:
                self.failed += 1
                for issue in issues:
                    self._fail(issue)
        if self.first_digests is None:
            self.first_digests = digests

    def _first_chain_checks(self, command: str, out: str) -> list:
        import checks

        issues = []
        if command in CHECKED_OUTPUT:
            res = proc.run_cli("check", self.work, os.path.join("out", CHECKED_OUTPUT[command]),
                               "--config", "config.json")
            self._sample(res)
            if res.returncode != 0:
                issues.append(f"densreg check on {CHECKED_OUTPUT[command]} exited {res.returncode}")
        summary = checks.summarize(command, out)
        if command == "fit":
            self.fit_summary = summary
        if self.reference is None:
            issues.append(f"{command}: no reference for these inputs")
        else:
            issues += checks.compare(summary, self.reference.get(command), command)
        return issues

    def expect(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._fail(message)


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(proc.HERE, "reference", f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh).get(str(seed))


def _samples(steps: list) -> list:
    return [(c, r.wall_s, r.setup_s, r.numpy_s, r.cpu_s, r.peak_rss_mb) for c, r, _ in steps]


def end_to_end(chains: list, checker: Checker) -> tuple[dict, float]:
    """Metrics at reference host speed, and the speed factor applied."""
    factor = REFERENCE_NUMPY_S / statistics.median(checker.numpy_samples)

    def median_of(command):
        return statistics.median(
            sum(r.wall_s for c, r, _ in steps if c == command) for steps in chains
        )

    metrics = {
        "chain_s": (factor * statistics.median(sum(r.wall_s for _, r, _ in steps) for steps in chains), "s"),
        "setup_s": (factor * statistics.median(checker.setup_samples), "s"),
        "peak_rss_mb": (max(r.peak_rss_mb for steps in chains for _, r, _ in steps), "MB"),
    }
    for command in ("fit", "predict", "interpret"):
        metrics[f"{command}_s"] = (factor * median_of(command), "s")
    return metrics, factor


# spans recorded by trace.py, each reported as <name>_s (0 where the workload
# does not run that layer)
SPAN_METRICS = (
    "ingest.group_table", "ingest.select_bandwidth", "ingest.assemble",
    "boosting.stop", "model.build_designs", "bayes.clr", "bayes.decompose", "bayes.embed",
    "model.predict_clr", "bayes.clr_inv", "io.read_table", "io.read_density",
    "io.write_density", "io.model_dump", "io.model_load",
    "model.extract_effect", "interpret.did_effect", "interpret.heatmap",
)
# counters kept by trace.py, reported as they are
COUNT_METRICS = (
    "ingest.ucv_evals", "ingest.kernel_evals", "boosting.heldout_iterations",
    "boosting.iterations", "model.design_cols", "model.predict_rows",
    "boosting.m_stop.continuous", "boosting.m_stop.discrete", "boosting.jitter_warnings",
    "ingest.bandwidth_at_edge", "ingest.bandwidth_fallback", "ingest.floored_values",
)
BYTE_METRICS = ("io.density_bytes", "io.model_bytes")


def per_layer(t, chain_steps: list, host: dict, import_s: dict) -> dict:
    count = lambda name: float(t.counts.get(name, 0))
    metrics = {f"{name}_s": (t.seconds(name), "s") for name in SPAN_METRICS}
    metrics.update({name: (count(name), "count") for name in COUNT_METRICS})
    metrics.update({name: (count(name), "bytes") for name in BYTE_METRICS})

    iterations = count("boosting.iterations")
    factor = t.seconds("probe.boosting.factor")
    stop_1 = t.seconds("probe.stop.threads1")
    stop_n = t.seconds(f"probe.stop.threads{host['nproc']}")
    max_iterations = count("boosting.stop_max_iterations")
    program_s = sum(r.wall_s - (r.setup_s or 0.0) for _, r, _ in chain_steps)
    metrics.update({
        "setup.import.basis_s": (import_s["densreg.basis"], "s"),
        "setup.import.ingest_s": (import_s["densreg.ingest"], "s"),
        "cli.estimate_s": (sum(r.wall_s for c, r, _ in chain_steps if c == "estimate"), "s"),
        "boosting.stop_useful_ratio": (
            count("boosting.stop_m_stop") / max_iterations if max_iterations else 0.0, "ratio"),
        "boosting.stop_thread_speedup": (stop_1 / stop_n if stop_n else 0.0, "ratio"),
        "boosting.stop_1thread_s": (stop_1, "s"),
        "boosting.factor_s": (factor, "s"),
        "boosting.iter_s": (
            (t.seconds("boosting.boost") - factor) / iterations if iterations else 0.0, "s"),
        # traced command time over the CLI's command time without set-up
        "trace.overhead_ratio": (t.command_seconds() / program_s, "ratio"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(proc.SRC, "densreg", "cli.py")):
        print(f"program not found: {proc.SRC}/densreg is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, proc.SRC)
    workload = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(STATE_DIR, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    workloads.generate(args.workload, seed, work)
    host = host_record()
    checker = Checker(load_reference(args.workload, seed), work)
    record = {"workload": args.workload, "seed": args.seed, "input_seed": seed, "host": host}

    try:
        if args.trace == 0:
            chains = []
            start = time.monotonic()
            while True:
                t0 = time.monotonic()
                steps = run_chain(workload, work)
                checker.chain(steps)
                chains.append(steps)
                elapsed, last = time.monotonic() - start, time.monotonic() - t0
                if len(chains) >= MIN_CHAINS and elapsed + last > args.seconds:
                    break
            metrics, record["host_factor"] = end_to_end(chains, checker)
            record["chains"] = [_samples(s) for s in chains]
        else:
            import trace

            steps = run_chain(workload, work)
            checker.chain(steps)
            t, paths = trace.traced_run(workload.commands, os.path.join(work, "config.json"),
                                        os.path.join(work, "trace_out"), host["nproc"])
            if checker.fit_summary is not None:
                cli_paths = {c: (f["m_stop"], f["selections"]) for c, f in checker.fit_summary.items()}
                checker.expect(cli_paths == paths, "traced m_stop or selection path differs from the CLI run")
            import_s = trace.import_times(("densreg.basis", "densreg.ingest"), work)
            metrics = per_layer(t, steps, host, import_s)
            record["chains"] = [_samples(steps)]
            record["spans"] = t.spans
            record["counts"] = t.counts
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record["problems"] = checker.problems
    record["setup_samples"] = checker.setup_samples
    record["numpy_samples"] = checker.numpy_samples
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    with open(os.path.join(STATE_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print("host: " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
