"""One benchmark process: set up a workload, measure passes, check, report.

Started by ``run.py``; see its docstring for the command line and output.
A pass is one workload pass up to a verified answer, so its wall time
includes the workload's correctness gates.  Passes repeat until the next
one would end past ``--seconds`` (at least one pass runs).  Only passes
whose every operation passed its gate are timed.

Untraced (``--trace 0``) runs install no wrappers.  A traced run first
repeats the untraced measurement, then installs the tracer and measures
again; the per-layer numbers are medians over the traced passes and
``trace.overhead_s`` is the traced minus the untraced median pass time.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--setup-samples", default="[]")
    return p.parse_args(argv)


def measure(run_pass, seconds, tracer=None):
    """Run passes until the next would end past `seconds`; time the clean ones."""
    walls, cpus, ops, spans = [], [], [], []
    start = time.monotonic()
    while True:
        if tracer is not None:
            tracer.spans = []
        c0, t0 = time.process_time(), time.perf_counter()
        pass_ops = run_pass() if tracer is None else tracer.call("bench.pass", run_pass)
        t1, c1 = time.perf_counter(), time.process_time()
        ops.extend(pass_ops)
        if all(op.ok for op in pass_ops):
            walls.append(t1 - t0)
            cpus.append(c1 - c0)
            if tracer is not None:
                spans.append(tracer.spans)
        typical = statistics.median(walls) if walls else t1 - t0
        if time.monotonic() - start + typical > seconds:
            return walls, cpus, ops, spans


def _median(values):
    return statistics.median(values) if values else None


def traced_metrics(workload, seconds):
    """Per-layer metrics: untraced passes, then the same passes traced."""
    from tracing import Tracer, layer_metrics

    walls_u, cpus_u, ops, _ = measure(workload.run_pass, seconds)
    tracer = Tracer()
    tracer.install()
    try:
        walls_t, _, ops_t, pass_spans = measure(workload.run_pass, seconds, tracer)
        ops.extend(ops_t)
        serial_spans = []
        if workload.serial_pass is not None:
            tracer.spans = []
            serial_ops = tracer.call("bench.pass", workload.serial_pass)
            ops.extend(serial_ops)
            if all(op.ok for op in serial_ops):
                serial_spans = tracer.spans
    finally:
        tracer.uninstall()

    per_pass = [layer_metrics(s) for s in pass_spans]
    metrics = {k: _median([m[k] for m in per_pass]) for k in layer_metrics([])}
    serial_s = layer_metrics(serial_spans)["harness.run_study_s"] if serial_spans else 0.0
    metrics["harness.serial_s"] = serial_s
    run_s = metrics.get("harness.run_study_s") or 0.0
    metrics["harness.speedup"] = serial_s / run_s if run_s and serial_s else 0.0
    metrics["proc.cpu_s"] = _median(cpus_u)
    metrics["trace.overhead_s"] = (
        _median(walls_t) - _median(walls_u) if walls_t and walls_u else None
    )
    details = {
        "untraced_wall_s_samples": walls_u,
        "traced_wall_s_samples": walls_t,
        "serial_pass": bool(serial_spans),
    }
    spans = [(i, s) for i, group in enumerate(pass_spans) for s in group]
    spans += [("serial", s) for s in serial_spans]
    return metrics, details, spans, ops


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "tfcond").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _blas(module):
    try:
        cfg = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return None
    return f"{cfg.get('name')} {cfg.get('version')}"


def environment(workers):
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workers": workers,
        "load": "one benchmark process driving the package from its main thread",
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import tfcond
    except ImportError as exc:
        print(f"cannot import tfcond from {SRC}: {exc}", file=sys.stderr)
        return 2
    if SRC.resolve() not in Path(tfcond.__file__).resolve().parents:
        print(f"tfcond was imported from {tfcond.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.setup(args.workload, args.seed, OUT / "work")
    own_setup = time.monotonic() - args.launched_at
    if args.setup_only:
        print(repr(own_setup))
        return 0
    setup_samples = json.loads(args.setup_samples) + [own_setup]

    spans = []
    if args.trace:
        metrics, details, spans, ops = traced_metrics(workload, args.seconds)
    else:
        walls, _, ops, _ = measure(workload.run_pass, args.seconds)
        metrics = {
            "setup_s": _median(setup_samples),
            "wall_s": _median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        details = {"wall_s_samples": walls, "wall_s_count": len(walls)}
    attempted = len(ops)
    failed = sum(1 for op in ops if not op.ok)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "setup_s_samples": setup_samples,
        "fail_frac": failed / attempted,
        "failed_ops": [f"{op.name}: {op.detail}" for op in ops if not op.ok][:20],
        **details,
        "env": environment(workload.workers),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({"info": info, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    if spans:
        with gzip.open(OUT / f"spans-{stem}.jsonl.gz", "wt", compresslevel=1) as fh:
            for pass_id, span in spans:
                fh.write(json.dumps([pass_id, *span]) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
