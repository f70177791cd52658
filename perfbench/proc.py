"""Launch and time fresh processes of the program under test."""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
COMMAND_TIMEOUT_S = 150.0

# BLAS stays single-threaded so that threads in flight never exceed the
# boosting thread pool, which is capped at nproc.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def program_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = SRC
    return env


@dataclass
class ProcResult:
    argv: list
    returncode: int
    wall_s: float            # process launch to exit
    setup_s: float | None    # process launch to end of ``import densreg.cli``
    numpy_s: float | None    # process launch to end of ``import numpy``
    cpu_s: float             # user + system CPU time
    peak_rss_mb: float
    stderr: str


def run(argv: list, cwd: str, stamp: str | None = None) -> ProcResult:
    """Run ``argv`` in ``cwd`` and wait for it; never raises on failure."""
    out_path = os.path.join(cwd, ".proc_stdout")
    err_path = os.path.join(cwd, ".proc_stderr")
    if stamp and os.path.exists(stamp):
        os.remove(stamp)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    setup = numpy_s = None
    if stamp and os.path.exists(stamp):
        with open(stamp) as fh:
            cli_done, numpy_done = map(float, fh.read().split())
        setup, numpy_s = cli_done - start, numpy_done - start
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return ProcResult(argv, proc.returncode, end - start, setup, numpy_s, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024.0, stderr)


def run_cli(command: str, cwd: str, *args: str) -> ProcResult:
    """One CLI command in a fresh process, with its set-up time recorded."""
    stamp = os.path.join(cwd, ".import_done")
    argv = [sys.executable, os.path.join(HERE, "launch.py"), stamp, command, *args]
    return run(argv, cwd, stamp)
