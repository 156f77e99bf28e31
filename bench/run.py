"""Benchmark entry point: one workload, measured in fresh processes.

    python3 bench/run.py --workload solve_8x8 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  With ``--trace 0`` one untraced
process measures the end-to-end metrics.  With ``--trace 1`` an untraced
and a traced process do the same fixed work; the traced one gives the
per-layer metrics and the difference of the two wall times is the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full records, spans included, are written to
``.bench_out/``.  See ``bench/README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# Each run must end within 180 s; leave room for start-up and printing.
DEADLINE_S = 170.0
# A single BLAS thread keeps run-to-run spread low on a shared host; the
# measured split between 1 and 2 threads was within noise.
BLAS_THREADS = 1
# Names only; workloads.py defines them.  This process imports neither numpy
# nor helmskel, so it can refuse to run before either is needed.
WORKLOADS = ("solve_8x8", "multi_rhs_2x2", "certify_k40")


def child(workload, seed, seconds, role, deadline, *, fixed=False, trace=False):
    """Run one workload process and return its record, or None on failure."""
    out = OUT_DIR / f"{workload}-seed{seed}-{role}.json"
    out.unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--out", str(out)]
    cmd += ["--fixed"] * fixed + ["--trace"] * trace
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print(f"error: {role} process of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"error: {role} process of {workload} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(out.read_text())


def print_common(record, role):
    env = record["env"]
    print(f"[{role}] workload {record['workload']}  seed {record['seed']}  "
          f"nproc {env['nproc']}  BLAS {env['blas']} threads {env['blas_threads']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    if record["kind"] == "solve":
        print(f"[{role}] gmres iterations per right-hand side: {record['iterations']}")
    else:
        cert = record["certificate"]
        chain = (1.0 + cert["continuity_a"]) * cert["infsup_skeleton"]
        print(f"[{role}] pass_thm_final = {str(cert['pass_estimate_chain']).lower()} "
              f"(reported as computed, not a failed check): infsup_primary "
              f"{cert['infsup_primary']:.6f} vs (1 + ||a||) infsup_skeleton {chain:.6f}")


def end_to_end(record):
    """End-to-end metrics of an untraced record, plus the named split."""
    work_name = "solve_s" if record["kind"] == "solve" else "certify_s"
    n_work, n_setup = len(record["work_samples"]), len(record["setup_samples"])
    print(f"setup_s     = {record['median_setup_s']!r} s  (median of {n_setup} builds)")
    print(f"{work_name:11s} = {record['median_work_s']!r} s  (reported as result_s; "
          f"median of {n_work} "
          f"{'right-hand sides' if record['kind'] == 'solve' else 'certificates'})")
    print(f"peak_rss_mb = {record['peak_rss_mb']!r} MB")
    return {"setup_s": {"value": record["median_setup_s"], "unit": "s"},
            "result_s": {"value": record["median_work_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"}}


def per_layer(baseline, traced):
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in traced["layers"].items()}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - baseline["wall_s"], "unit": "s"}
    metrics["trace.spans"] = {"value": len(traced["spans"]), "unit": "count"}
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(f"trace overhead: traced {traced['wall_s']!r} s - untraced "
          f"{baseline['wall_s']!r} s of measured time")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="helmskel benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (SRC / "helmskel" / "__init__.py").is_file():
        print(f"error: no helmskel sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        records = [child(args.workload, args.seed, args.seconds, role, deadline,
                         fixed=True, trace=role == "traced")
                   for role in ("baseline", "traced")]
    else:
        records = [child(args.workload, args.seed, args.seconds, "run", deadline)]
    if any(r is None for r in records):
        return 1

    for r in records:
        print_common(r, "traced" if r["traced"] else "untraced")
    checks = [c for r in records for c in r["checks"]]
    failures = [c for c in checks if not c["ok"]]
    attempted, failed = len(checks), len(failures)
    for c in failures:
        print(f"FAILED check {c['name']}: value {c['value']!r}, limit {c['limit']!r}")
    print(f"failed_frac = {failed / attempted!r} 1  ({failed} of {attempted} checks failed)")
    metrics = per_layer(*records) if args.trace else end_to_end(records[0])
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
