"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q bench

They check that tracing changes no number, that the correctness checks
catch a wrong answer, that the traced run reports exactly the per-layer
metrics named in BENCHMARK.json, and that the benchmark refuses to run
without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import helmskel.problem as problem_mod
import helmskel.skeleton as sk
import helmskel.solvers_spectral as ss
import run
import workloads
from tracing import WRAP_POINTS, Recorder

ROOT = Path(__file__).resolve().parent.parent

TINY_SOLVE = workloads.Workload(
    "tiny_solve", "solve", dict(nx=16, ny=16, px=2, py=2, k=5.0, bc_kind="robin",
                                tgamma="collar"), builds=2, units=1, min_count=2)
TINY_CERTIFY = workloads.Workload(
    "tiny_certify", "certify", dict(nx=8, ny=8, px=2, py=2, k=5.0, bc_kind="robin",
                                    tgamma="boundary_h1"), builds=2, units=1, min_count=1)


def _originals():
    return [vars(owner)[attr] for owner, attr, _ in WRAP_POINTS]


@pytest.fixture(scope="module")
def tiny_certificate_reference():
    p = problem_mod.build_problem(**TINY_CERTIFY.build)
    return ss.verify_estimates(p).as_dict()


@pytest.mark.parametrize("workload", [TINY_SOLVE, TINY_CERTIFY], ids=lambda w: w.name)
def test_tracing_changes_no_output(workload, tiny_certificate_reference):
    before = _originals()
    ref = tiny_certificate_reference if workload.kind == "certify" else None
    plain = workloads.run_workload(workload, seed=3, fixed=True, reference=ref)
    traced = workloads.run_workload(workload, seed=3, fixed=True,
                                    recorder=Recorder(), reference=ref)
    assert traced["outputs"] == plain["outputs"]
    assert [c["value"] for c in traced["checks"]] == [c["value"] for c in plain["checks"]]
    assert all(c["ok"] for c in plain["checks"] + traced["checks"])
    assert _originals() == before
    layers = traced["layers"]
    assert layers["skeleton.exchange_apply_calls"][0] > 0
    assert layers["skeleton.scattering_apply_calls"][0] > 0
    assert layers["skeleton.exchange_held_mb"][0] > 0
    if workload.kind == "solve":
        assert layers["solvers_spectral.gmres_iters"][0] == sum(plain["iterations"])
        assert layers["solvers_spectral.gmres_alloc_peak_mb"][0] > 0
    else:
        assert layers["solvers_spectral.verify_calls"][0] == 1


def test_rounds_alternate_builds_and_work():
    result = workloads.run_workload(TINY_SOLVE, seed=2, seconds=0.0)
    rounds = TINY_SOLVE.min_count // TINY_SOLVE.units
    assert len(result["work_samples"]) == rounds * TINY_SOLVE.units
    assert len(result["setup_samples"]) == rounds * TINY_SOLVE.builds
    assert len(result["checks"]) == 3 * len(result["work_samples"])
    assert all(c["ok"] for c in result["checks"])


def test_traced_run_reports_the_declared_per_layer_metrics():
    baseline = workloads.run_workload(TINY_SOLVE, seed=1, fixed=True)
    traced = workloads.run_workload(TINY_SOLVE, seed=1, fixed=True, recorder=Recorder())
    metrics = run.per_layer(baseline, traced)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in declared["per_layer"])


def test_self_time_excludes_child_spans():
    rec = Recorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
    calls, total, own = rec.layer_totals()["outer"]
    inner = rec.layer_totals()["inner"][1]
    assert calls == 1 and own == pytest.approx(total - inner)
    assert [s["request"] for s in rec.as_records()] == [0, 0]


def test_wrong_answers_are_failed_checks(tiny_certificate_reference):
    p = problem_mod.build_problem(**TINY_SOLVE.build)
    load = problem_mod.make_load(p, workloads.gaussian_source(0, 0))
    f = sk.skeleton_rhs(p, load)
    q, report = ss.gmres_tinv(p, f, tol=workloads.GMRES_TOL)
    rec = sk.recover_volume(p, q, load)
    good = workloads.check_solve(p, load, f, q, report, rec)
    assert all(ok for _, ok, _, _ in good)

    bad_q = q.copy()
    bad_q.blocks[1][0] += 1e-3 * np.abs(q.blocks[1]).max()
    bad = dict((name, ok) for name, ok, _, _ in
               workloads.check_solve(p, load, f, bad_q, report, rec))
    assert not bad["true_residual"]

    ref = dict(tiny_certificate_reference)
    assert all(ok for _, ok, _, _ in workloads.check_certificate(ref, ref))
    wrong = dict(ref, infsup_primary=ref["infsup_primary"] * (1 + 1e-8),
                 kernel_dim_skeleton=ref["kernel_dim_skeleton"] + 1)
    failed = {name for name, ok, _, _ in workloads.check_certificate(ref, wrong) if not ok}
    assert failed == {"infsup_primary", "kernel_dim_skeleton"}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "solve_8x8",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
