"""Acceptance gate: every certified property at its stated tolerance.

Reference configuration: unit square, 8x8 mesh, 2x2 partition (one cross
point), mu = 1, kappa = k = 5, gamma = 1/k, robin condition with impedance
k times the boundary mass, seed 42.  The wavenumber sweep uses the
resolution rule instead of the fixed mesh; C08a bounds the measured
inf-sup slope, C08b asserts the certified coercivity lower bound at every
wavenumber and its O(1/k^2) floor, not that the bound is attained.  Run
with ``pytest -s`` to see one status line per criterion.
"""

import time

import numpy as np
import pytest

import helmskel.skeleton as sk
import helmskel.verification as vf
from helmskel.geometry import build_rect_mesh
from helmskel.problem import build_problem, make_load
from helmskel.solvers_spectral import (dense_operator, dirichlet_resonance,
                                       gmres_tinv, richardson, sweep_wavenumber,
                                       verify_estimates)

SEED = 42
KINDS = ("dirichlet", "neumann", "robin", "mixed")


@pytest.fixture(scope="module")
def ref():
    return build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")


@pytest.fixture(scope="module")
def sweep_results():
    t0 = time.monotonic()
    rows, slopes = sweep_wavenumber([5.0, 10.0, 20.0, 40.0], tgamma="boundary_h1")
    return rows, slopes, time.monotonic() - t0


def _line(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def test_c01_exchange_operator_axioms(ref):
    t0 = time.monotonic()
    worst = vf.exchange_axioms(ref, np.random.default_rng(SEED))["max_residual"]
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and dt < 5.0
    _line(1, ok, f"involution/isometry residual {worst:.3e}, {dt:.2f}s")
    assert worst <= 1e-10
    assert dt < 5.0


def test_c02_scattering_energy_identity(ref):
    t0 = time.monotonic()
    # with Im kappa^2 = 0 the map is an isometry whenever the boundary
    # block conserves energy (the robin block deliberately absorbs)
    lossless = [build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
                for kind in ("dirichlet", "neumann", "mixed")]
    res = vf.energy_identity(ref, np.random.default_rng(SEED), lossless)
    worst, worst_iso = res["max_residual"], res["max_isometry"]
    dt = time.monotonic() - t0
    ok = worst <= 1e-10 and worst_iso <= 1e-11 and dt < 5.0
    _line(2, ok, f"energy residual {worst:.3e}, isometry residual "
                 f"{worst_iso:.3e} (non-absorbing kinds), {dt:.2f}s")
    assert worst <= 1e-10
    assert worst_iso <= 1e-11
    assert dt < 5.0


def test_c03_transmission_characterization(ref):
    res = vf.transmission(ref, np.random.default_rng(SEED))
    worst_valid, worst_invalid = res["max_residual"], res["min_violation"]
    ok = worst_valid <= 1e-11 and worst_invalid >= 1e-3
    _line(3, ok, f"valid pairs {worst_valid:.3e}, violating pairs fail by "
                 f">= {worst_invalid:.3e}")
    assert worst_valid <= 1e-11
    assert worst_invalid >= 1e-3


def test_c04_equivalence_of_formulations():
    t0 = time.monotonic()
    res = vf.equivalence(build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
                         for kind in KINDS)
    worst_h1, worst_mm = res["max_h1_error"], res["max_mismatch"]
    dt = time.monotonic() - t0
    ok = worst_h1 <= 1e-8 and worst_mm <= 1e-9 and dt < 30.0
    _line(4, ok, f"H1 error {worst_h1:.3e}, mismatch {worst_mm:.3e}, {dt:.2f}s")
    assert res["converged"]
    assert worst_h1 <= 1e-8
    assert worst_mm <= 1e-9
    assert dt < 30.0


def test_c05_coercivity_inequality(ref):
    p = ref
    assert p.dual_dim <= 500
    t0 = time.monotonic()
    import scipy.linalg as sla

    M = dense_operator(p)
    smin = float(sla.svdvals(M).min())
    coer = float(sla.eigvalsh(0.5 * (M + M.conj().T)).min())
    dt = time.monotonic() - t0
    ok = coer >= 0.5 * smin ** 2 - 1e-9 and dt < 60.0
    _line(5, ok, f"coercivity {coer:.6f} >= half infsup^2 "
                 f"{0.5 * smin ** 2:.6f}, {dt:.2f}s")
    assert coer >= 0.5 * smin ** 2 - 1e-9
    assert dt < 60.0


def test_c06_estimate_chain(ref):
    worst = -np.inf
    details = []
    for kind, problem in (("robin", ref),
                          ("neumann", build_problem(8, 8, 2, 2, k=5.0,
                                                    bc_kind="neumann")),
                          ("mixed", build_problem(8, 8, 2, 2, k=5.0,
                                                  bc_kind="mixed"))):
        rep = verify_estimates(problem)
        gap = rep.infsup_primary - (1.0 + rep.continuity_a) * rep.infsup_skeleton
        worst = max(worst, gap)
        details.append(f"{kind}: {rep.infsup_primary:.4f} <= "
                       f"(1+{rep.continuity_a:.3f})*{rep.infsup_skeleton:.4f}")
    ok = worst <= 1e-9
    _line(6, ok, "; ".join(details))
    assert worst <= 1e-9


def test_c07_kernel_correspondence_at_resonance():
    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    rep = verify_estimates(p, svd_threshold=1e-8)
    ok1 = rep.kernel_dim_primary == 1 and rep.kernel_dim_skeleton == 1
    p2 = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam * 1.01 ** 2,
                       bc_kind="dirichlet")
    rep2 = verify_estimates(p2, svd_threshold=1e-8)
    ok2 = rep2.kernel_dim_primary == 0 and rep2.kernel_dim_skeleton == 0
    _line(7, ok1 and ok2,
          f"at resonance kernels ({rep.kernel_dim_primary}, "
          f"{rep.kernel_dim_skeleton}); perturbed ({rep2.kernel_dim_primary}, "
          f"{rep2.kernel_dim_skeleton})")
    assert ok1
    assert ok2


def test_c08a_wavenumber_scaling_infsup(sweep_results):
    rows, slopes, dt = sweep_results
    slope = slopes["infsup_skeleton"]
    ok = -1.4 <= slope <= -0.6 and dt < 600.0
    _line("8a", ok, f"infsup slope {slope:.3f} (boundary_h1 metric), {dt:.1f}s")
    assert dt < 600.0
    assert -1.4 <= slope <= -0.6


def test_c08b_wavenumber_scaling_coercivity(sweep_results):
    # The certified result is a lower bound: coercivity >= infsup^2 / 2 at
    # every k, hence a decay no faster than O(1/k^2).  Nothing certifies that
    # the bound is attained; the measured constant sits several times above
    # it and decays more slowly, so only the floor of the slope window is
    # asserted (evidence in CHANGES.md, C08b entry).  The upper side
    # coercivity <= infsup holds for any operator: min Re<Mq,q> <= |M q_min|.
    rows, slopes, dt = sweep_results
    slope = slopes["coercivity"]
    ratios = [r["coercivity"] / (0.5 * r["infsup_skeleton"] ** 2) for r in rows]
    ok = slope >= -2.6 and all(
        0.5 * r["infsup_skeleton"] ** 2 - 1e-9 <= r["coercivity"]
        <= r["infsup_skeleton"] + 1e-9 and r["pass_coercivity_bound"]
        for r in rows)
    _line("8b", ok, f"coercivity slope {slope:.3f} >= -2.6, coercivity / "
                    f"(infsup^2/2) {[round(x, 2) for x in ratios]} "
                    f"(values {[round(r['coercivity'], 5) for r in rows]})")
    for r in rows:
        assert r["coercivity"] >= 0.5 * r["infsup_skeleton"] ** 2 - 1e-9, r
        assert r["pass_coercivity_bound"], r
        assert r["coercivity"] <= r["infsup_skeleton"] + 1e-9, r
    assert slope >= -2.6


def test_c09_solver_behavior(ref):
    p = ref
    load = make_load(p, f=1.0)
    f = sk.skeleton_rhs(p, load)
    q1, rep1 = richardson(p, f, relax=0.5, tol=1e-8, maxit=20000)
    h = np.array(rep1.residual_history)
    monotone = bool(np.all(h[1:] <= h[:-1] * (1 + 1e-12)))
    q2, rep2 = gmres_tinv(p, f, tol=1e-8)
    ok = (rep1.converged and monotone and rep2.converged
          and rep2.iterations < rep1.iterations)
    _line(9, ok, f"richardson {rep1.iterations} iters (monotone={monotone}), "
                 f"gmres {rep2.iterations} iters")
    assert rep1.converged
    assert monotone
    assert rep2.converged
    assert rep2.iterations < rep1.iterations


def test_c10_factorization_and_cauchy_decomposition(ref):
    worst_fact = vf.factorization(build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
                                  for kind in KINDS)["max_entry_error"]
    res = vf.cauchy_decomposition(ref, np.random.default_rng(SEED))
    worst_rec, worst_mem = res["max_recomposition"], res["max_membership"]
    worst_graph = res["max_graph"]
    ok = worst_fact <= 1e-13 and worst_rec <= 1e-12 and worst_mem <= 1e-9 \
        and worst_graph <= 1e-12
    _line(10, ok, f"factorization {worst_fact:.3e}, recomposition "
                  f"{worst_rec:.3e}, membership {worst_mem:.3e}")
    assert worst_fact <= 1e-13
    assert worst_rec <= 1e-12
    assert worst_mem <= 1e-9
    assert worst_graph <= 1e-12
