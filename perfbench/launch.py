"""Run one ``densreg`` CLI command in a fresh process.

It does what the ``densreg`` console script does (import ``densreg.cli``,
call ``main``) and, in between, writes to the file named by the first
argument the monotonic clock readings at which the import of ``densreg.cli``
and, before it, the import of numpy finished. The caller subtracts its own
reading at process launch to get the set-up time and the numpy import time;
the latter does not depend on the program and gauges the host's speed.

Usage: python3 launch.py STAMP_FILE COMMAND [CLI ARGS...]
"""
import sys
import time

import numpy  # noqa: F401  (densreg imports it first anyway)

numpy_done = time.monotonic()
import densreg.cli  # noqa: E402

with open(sys.argv[1], "w") as fh:
    fh.write(f"{time.monotonic()!r} {numpy_done!r}")
sys.exit(densreg.cli.main(sys.argv[2:]))
