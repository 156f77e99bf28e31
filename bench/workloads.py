"""One benchmark workload, measured in the current process.

``run.py`` starts this file as a fresh process per workload, with the BLAS
thread count and ``PYTHONPATH`` already set:

    python3 bench/workloads.py --workload solve_8x8 --seed 1 --seconds 15 \
        --out .bench_out/solve_8x8-seed1-run.json [--fixed] [--trace]

It runs rounds until ``--seconds`` of measured time have passed: each
round builds the problem several times (``setup_s``), then solves
seeded right-hand sides or computes spectral certificates with the last
build.  Interleaving the builds with the work makes both sample the same
stretch of the host's speed.  Peak memory is read when the first round
ends.  Every answer is checked after the last round, and one JSON record
is written.  ``--fixed``
replaces the rounds by one build and the workload's minimum count, so that
a traced run and its untraced baseline do the same work.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.sparse

import helmskel.problem as problem_mod
import helmskel.skeleton as sk
import helmskel.solvers_spectral as ss

from tracing import Recorder

GMRES_TOL = 1e-8
# The true residual may exceed the Krylov estimate by rounding only.
RESIDUAL_LIMIT = 10 * GMRES_TOL
H1_LIMIT = 1e-6
# ROADMAP item 3 gates the spectral constants at 1e-10 relative; the
# ARPACK-based primary constants repeat to about 1e-12 across runs.
CONSTANT_RTOL = 1e-10
CONSTANTS = ("infsup_skeleton", "coercivity", "infsup_primary", "continuity_a",
             "sigma_max_skeleton", "sigma_max_primary")
EXACT = ("n_dual", "n_sigma", "kernel_dim_primary", "kernel_dim_skeleton")

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference_certify_k40.json"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "solve" or "certify"
    build: dict        # keyword arguments of build_problem
    builds: int        # builds per round, each timed for setup_s
    units: int         # right-hand sides or certificates per round
    min_count: int     # right-hand sides or certificates per run, at least
    reference: Path = None


WORKLOADS = {w.name: w for w in (
    Workload("solve_8x8", "solve",
             dict(nx=128, ny=128, px=8, py=8, k=10.0, bc_kind="robin",
                  tgamma="collar"), builds=4, units=1, min_count=1),
    Workload("multi_rhs_2x2", "solve",
             dict(nx=128, ny=128, px=2, py=2, k=10.0, bc_kind="robin",
                  tgamma="collar"), builds=2, units=2, min_count=4),
    Workload("certify_k40", "certify",
             dict(nx=64, ny=64, px=2, py=2, k=40.0, bc_kind="robin",
                  tgamma="boundary_h1"), builds=12, units=1, min_count=1,
             reference=REFERENCE_FILE),
)}

# Small configurations of each kind, run once untimed so that lazy imports
# and first-call costs are paid before anything is measured.
WARMUP = {"solve": dict(nx=8, ny=8, px=2, py=2, k=5.0, bc_kind="robin", tgamma="collar"),
          "certify": dict(nx=8, ny=8, px=2, py=2, k=5.0, bc_kind="robin",
                          tgamma="boundary_h1")}


def gaussian_source(seed: int, index: int, bumps: int = 6, width: float = 0.05):
    """Seeded sum of Gaussian bumps with complex amplitudes on the unit square.

    Several bumps make the load generic, so the GMRES iteration count
    barely depends on the seed (per-seed counts in ``bench/README.md``).
    """
    rng = np.random.default_rng([seed, index])
    centres = rng.uniform(0.15, 0.85, size=(bumps, 2))
    amps = rng.standard_normal(bumps) + 1j * rng.standard_normal(bumps)

    def f(x, y):
        out = np.zeros(np.shape(x), complex)
        for (cx, cy), a in zip(centres, amps):
            out += a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width ** 2))
        return out

    return f


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


# -- correctness checks (run outside every timed region) ---------------------

def check_solve(problem, load, f, q, report, rec):
    """Checks of one skeleton solve: ``[(name, ok, value, limit)]``."""
    imp = problem.impedance
    true_res = imp.norm(f - sk.skeleton_apply(problem, q)) / imp.norm(f)
    u_mono, _ = problem_mod.solve_monolithic(problem, load)
    h1_err = (problem_mod.h1_norm(problem, rec.u - u_mono)
              / problem_mod.h1_norm(problem, u_mono))
    return [("converged", bool(report.converged), report.iterations, None),
            ("true_residual", bool(true_res <= RESIDUAL_LIMIT), true_res, RESIDUAL_LIMIT),
            ("h1_vs_monolithic", bool(h1_err <= H1_LIMIT), h1_err, H1_LIMIT)]


def check_certificate(report: dict, reference: dict):
    """Checks of one verify_estimates report against recorded values."""
    out = []
    for key in EXACT:
        out.append((key, report[key] == reference[key], report[key], reference[key]))
    for key in CONSTANTS:
        ref = reference[key]
        rel = abs(report[key] - ref) / abs(ref)
        out.append((key, bool(rel <= CONSTANT_RTOL), rel, CONSTANT_RTOL))
    return out


# -- environment ------------------------------------------------------------

def _openblas_threads():
    """Thread count of every OpenBLAS that numpy and scipy loaded, by library."""
    out = {}
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    out[f"{pkg.__name__}:{Path(path).name}"] = fn()
                    break
    return out


def environment(seed: int) -> dict:
    blas = {}
    for pkg in (np, scipy):
        info = pkg.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[pkg.__name__] = f"{info['name']} {info['version']}"
    return {"nproc": len(os.sched_getaffinity(0)), "blas": blas,
            "blas_threads": _openblas_threads(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "seed": seed}


# -- the measured phases ----------------------------------------------------

# glibc keeps a freed build's heap pages; trimming them before each build
# keeps rebuilds from growing the resident set (by about 60 MB over eight
# builds of solve_8x8 without it).
_malloc_trim = getattr(ctypes.CDLL(None), "malloc_trim", None)


def _warmup(kind: str):
    p = problem_mod.build_problem(**WARMUP[kind])
    if kind == "solve":
        load = problem_mod.make_load(p, gaussian_source(0, 0))
        q, _ = ss.gmres_tinv(p, sk.skeleton_rhs(p, load), tol=GMRES_TOL)
        sk.recover_volume(p, q, load)
    else:
        ss.verify_estimates(p)


def _build(workload: Workload, rec: Recorder):
    """One timed build; the caller has dropped its previous build."""
    gc.collect()
    if _malloc_trim is not None:
        _malloc_trim(0)
    t0 = perf_counter()
    with rec.span("bench.setup"):
        p = problem_mod.build_problem(**workload.build)
    return p, perf_counter() - t0


def _solve(p, seed: int, index: int, rec: Recorder):
    """One timed right-hand side, and what its checks need."""
    source = gaussian_source(seed, index)
    gc.collect()
    t0 = perf_counter()
    with rec.span("bench.solve"):
        load = problem_mod.make_load(p, source)
        f = sk.skeleton_rhs(p, load)
        q, report = ss.gmres_tinv(p, f, tol=GMRES_TOL)
        recovered = sk.recover_volume(p, q, load)
    return perf_counter() - t0, (load, f, q, report, recovered)


def _certify(p, seed: int, index: int, rec: Recorder):
    """One timed certificate (no random input: seed and index are unused)."""
    gc.collect()
    t0 = perf_counter()
    with rec.span("bench.certify"):
        report = ss.verify_estimates(p).as_dict()
    return perf_counter() - t0, report


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rounds(workload: Workload, seed: int, seconds: float, fixed: bool, rec: Recorder):
    """Alternate builds and work until the budget is spent (see module doc).

    Peak memory is read when the first round ends: later rounds repeat its
    work, and their rebuilds add heap fragmentation that one build does not
    have (about 45 MB over six builds of multi_rhs_2x2, even with the trim).
    """
    work = _solve if workload.kind == "solve" else _certify
    setup, samples, answers, peak = [], [], [], None
    while True:
        for _ in range(1 if fixed else workload.builds):
            p = None  # free the previous build before timing the next
            p, dt = _build(workload, rec)
            setup.append(dt)
        for _ in range(workload.min_count if fixed else workload.units):
            dt, answer = work(p, seed, len(samples), rec)
            samples.append(dt)
            answers.append(answer)
        peak = peak or _peak_rss_mb()
        if fixed or (len(samples) >= workload.min_count
                     and sum(setup) + sum(samples) >= seconds):
            return p, setup, samples, answers, peak


def run_workload(workload: Workload, seed: int, seconds: float = 0.0, *,
                 fixed: bool = False, recorder: Recorder = None,
                 reference: dict = None) -> dict:
    """Measure one workload; with ``recorder``, trace it as well.

    ``reference`` overrides the certificate reference file (self-tests).
    """
    _warmup(workload.kind)
    traced = recorder is not None
    # Untraced, a paused recorder turns the phase spans into no-ops.
    rec = recorder if traced else Recorder()
    if workload.kind == "certify" and reference is None:
        reference = json.loads(workload.reference.read_text())

    with (rec.installed() if traced else rec.paused()):
        # The peak is read before the checks, whose monolithic reference
        # solves would otherwise set it.
        p, setup, samples, answers, peak_rss_mb = _rounds(
            workload, seed, seconds, fixed, rec)

    # Builds of one configuration are identical, so the last build serves
    # to check the answers of every round.
    if workload.kind == "solve":
        checks = [c for answer in answers for c in check_solve(p, *answer)]
        outputs = [digest(q.concat(), recovered.u, np.asarray(report.residual_history))
                   for _, _, q, report, recovered in answers]
    else:
        checks = [c for report in answers for c in check_certificate(report, reference)]
        outputs = answers
    out = {"workload": workload.name, "seed": seed, "traced": traced, "fixed": fixed,
           "kind": workload.kind, "setup_samples": setup, "work_samples": samples,
           "outputs": outputs,
           "checks": [{"name": n, "ok": bool(ok), "value": v, "limit": lim}
                      for n, ok, v, lim in checks],
           "wall_s": sum(setup) + sum(samples), "peak_rss_mb": peak_rss_mb,
           "sizes": {"problem.n_sigma": p.index.n_sigma,
                     "problem.dual_dim": p.dual_dim,
                     "problem.num_vertices": p.mesh.num_vertices,
                     "problem.max_block_dofs": max(p.omega_sizes)}}
    if workload.kind == "solve":
        out["iterations"] = [answer[3].iterations for answer in answers]
    else:
        out["certificate"] = answers[-1]
    if traced:
        out["layers"] = dict(rec.layer_metrics(), **_computed_layers(p, out))
        out["spans"] = rec.as_records()
    return out


def _held_mb(obj) -> float:
    """Megabytes of the numpy arrays and scipy sparse matrices that ``obj``
    holds in its attributes, directly or in tuples, lists and dicts."""
    total, stack = 0, list(vars(obj).values())
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            total += v.nbytes
        elif scipy.sparse.issparse(v):
            total += sum(a.nbytes for a in vars(v).values() if isinstance(a, np.ndarray))
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return total / 2 ** 20


def _gmres_alloc_peak_mb(p, seed: int) -> float:
    """Peak of the memory allocated inside one ``gmres_tinv`` call, by
    tracemalloc, for the first right-hand side; untimed and untraced."""
    f = sk.skeleton_rhs(p, problem_mod.make_load(p, gaussian_source(seed, 0)))
    tracemalloc.start()
    try:
        ss.gmres_tinv(p, f, tol=GMRES_TOL)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def _computed_layers(p, out: dict) -> dict:
    """Per-layer figures read from the program's objects, not from spans."""
    layers = {k: (v, "count") for k, v in out["sizes"].items()}
    layers["solvers_spectral.gmres_iters"] = (sum(out.get("iterations", [])), "count")
    layers["skeleton.exchange_held_mb"] = (_held_mb(p.exchange), "MB")
    layers["solvers_spectral.gmres_alloc_peak_mb"] = (
        _gmres_alloc_peak_mb(p, out["seed"]) if out["kind"] == "solve" else 0.0, "MB")
    return layers


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--fixed", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                          fixed=args.fixed,
                          recorder=Recorder() if args.trace else None)
    result["env"] = environment(args.seed)
    result["median_setup_s"] = statistics.median(result["setup_samples"])
    result["median_work_s"] = statistics.median(result["work_samples"])
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
