"""tfcond benchmark entry point.

    python3 bench/run.py --workload {gs3d,flow1d,counting} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the benchmark measures the ``src/tfcond`` package of the
checkout it sits in.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``, ``ok_frac``); with ``--trace 1`` they are the per-layer
ones.  The line before it holds the run's details: wall-time samples,
failed operations and the environment (commit, nproc, library versions,
thread settings).  Both, plus the spans of a traced run, are also written
under ``.bench_out/`` in the checkout.

This launcher imports only the standard library.  ``setup_s`` is the time
from starting a Python process to its first timed call, so the launcher
starts SETUP_RUNS processes in turn: all but the last stop after set-up and
report their time, the last one also measures the workload (one process per
workload, so peak memory never mixes workloads) and reports the median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

SETUP_RUNS = 3
MEASURE = Path(__file__).resolve().parent / "measure.py"
WORKLOADS = ("gs3d", "flow1d", "counting")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _measure_cmd(args, *extra):
    return [
        sys.executable, str(MEASURE),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--launched-at", repr(time.monotonic()), *extra,
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    samples = []
    for _ in range(SETUP_RUNS - 1):
        proc = subprocess.run(
            _measure_cmd(args, "--setup-only"), stdout=subprocess.PIPE, text=True
        )
        if proc.returncode != 0:
            print(f"set-up run failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    proc = subprocess.run(_measure_cmd(args, "--setup-samples", json.dumps(samples)))
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main())
