import io
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as sla

import helmskel.skeleton as sk
import helmskel.solvers_spectral as ss
from helmskel.geometry import build_rect_mesh
from helmskel.problem import build_problem, make_load
from helmskel.solvers_spectral import (DenseCapExceeded, dense_operator,
                                       dirichlet_resonance, gmres_tinv,
                                       infsup_primary, richardson,
                                       sweep_wavenumber, verify_estimates,
                                       write_sweep_csv, _gmres_core)
from helmskel.traces import SkeletonField


@pytest.fixture(scope="module")
def robin_system():
    p = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
    load = make_load(p, f=1.0, g_n=p.gamma_mass @ np.ones(p.n_gamma))
    f = sk.skeleton_rhs(p, load)
    return p, load, f


def test_richardson_zero_rhs(ref_problem):
    p = ref_problem
    q, rep = richardson(p, p.impedance.zeros("dual"))
    assert rep.converged and rep.iterations == 0
    assert p.impedance.norm(q) == 0.0


def test_richardson_monotone_and_converges(robin_system):
    p, load, f = robin_system
    q, rep = richardson(p, f, relax=0.5, tol=1e-8, maxit=5000)
    assert rep.converged
    h = np.array(rep.residual_history)
    assert np.all(h[:-1] > 0)
    assert np.all(h[1:] <= h[:-1] * (1 + 1e-12))


def test_richardson_contraction_consistent_with_coercivity(robin_system):
    # whitened, M = I + Pi S has ||Pi S|| <= 1, hence ||Mq||^2 <= 2 Re<Mq, q>,
    # and Re<Mq, q> >= alpha ||q||^2, so one damped step I - r M contracts
    # every residual by at most sqrt(1 - 2 r (1 - r) alpha)
    p, load, f = robin_system
    alpha = verify_estimates(p).coercivity
    for r in (0.25, 0.5, 0.75):
        q, rep = richardson(p, f, relax=r, tol=1e-10, maxit=5000)
        assert rep.converged
        h = np.array(rep.residual_history)
        bound = np.sqrt(1 - 2 * r * (1 - r) * alpha)
        assert bound < 1
        assert np.all(h[1:] / h[:-1] <= bound * (1 + 1e-12))


def test_richardson_stagnates_at_resonance():
    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    load = make_load(p, f=1.0)
    f = sk.skeleton_rhs(p, load)
    q, rep = richardson(p, f, relax=0.5, tol=1e-10, maxit=300)
    assert not rep.converged
    assert rep.message != ""


def test_richardson_reports_divergence(small_problem):
    # an exchange that triples Pi~ w makes Id + Pi S expansive, so the
    # residual grows from the second step on and its tenth rise ends the
    # iteration (warnings are errors in this suite, so none is raised)
    exchange = small_problem.exchange

    class TripledExchange:
        def apply(self, w):
            return 3.0 * exchange.apply(w)

    p = replace(small_problem, exchange=TripledExchange())
    f = sk.skeleton_rhs(p, make_load(p, f=1.0))
    q, rep = richardson(p, f, maxit=1000)
    assert not rep.converged
    assert rep.message == "divergence: residual grew over 10 consecutive steps"
    assert rep.iterations == 11
    h = np.array(rep.residual_history)
    assert np.all(h[-10:] > h[-11:-1])


def test_richardson_relax_validation(ref_problem):
    with pytest.raises(ValueError):
        richardson(ref_problem, ref_problem.impedance.zeros("dual"), relax=1.5)


def test_richardson_history_ends_at_returned_iterate(ref_problem):
    # when maxit runs out, q has taken one more step than the last residual
    # in the loop saw; the history and true_residual must describe that q
    p = ref_problem
    f = sk.skeleton_rhs(p, make_load(p, f=1.0))
    q, rep = richardson(p, f, maxit=3)
    assert not rep.converged and rep.iterations == 3
    want = p.impedance.norm(f - sk.skeleton_apply(p, q))
    assert abs(rep.residual_history[-1] - want) <= 1e-12 * want
    assert rep.true_residual == rep.residual_history[-1] / p.impedance.norm(f)
    assert rep.as_dict()["true_residual"] == rep.true_residual


def test_solvers_count_updates_not_residuals(ref_problem):
    # f = 1 meets tol = 10 at q = 0, before any update
    p = ref_problem
    f = sk.skeleton_rhs(p, make_load(p, f=1.0))
    for solve in (richardson, gmres_tinv):
        q, rep = solve(p, f, tol=10.0)
        assert rep.converged and rep.iterations == 0
        assert len(rep.residual_history) == 1 and p.impedance.norm(q) == 0.0


def test_gmres_zero_rhs(ref_problem):
    q, rep = gmres_tinv(ref_problem, ref_problem.impedance.zeros("dual"))
    assert rep.converged and rep.iterations == 0
    assert ref_problem.impedance.norm(q) == 0.0


def test_gmres_matches_richardson(robin_system):
    p, load, f = robin_system
    q1, rep1 = richardson(p, f, relax=0.5, tol=1e-10, maxit=5000)
    q2, rep2 = gmres_tinv(p, f, tol=1e-10)
    assert rep2.converged
    assert rep2.iterations < rep1.iterations
    assert p.impedance.norm(q1 - q2) <= 1e-8 * p.impedance.norm(q2)


def test_gmres_residuals_are_tinv_residuals(robin_system):
    p, load, f = robin_system
    q, rep = gmres_tinv(p, f, tol=1e-10)
    final = p.impedance.norm(f - sk.skeleton_apply(p, q))
    assert abs(final - rep.residual_history[-1]) <= 1e-8 * rep.residual_history[0]


def test_gmres_reports_true_residual(robin_system):
    p, load, f = robin_system
    q, rep = gmres_tinv(p, f, tol=1e-10)
    assert rep.converged and rep.message == ""
    want = p.impedance.norm(f - sk.skeleton_apply(p, q)) / p.impedance.norm(f)
    assert abs(rep.true_residual - want) <= 1e-12
    # on a converged solve the true residual agrees with the Givens estimate
    estimate = rep.residual_history[-1] / rep.residual_history[0]
    assert rep.true_residual <= 10 * 1e-10
    assert abs(rep.true_residual - estimate) <= 1e-12
    assert rep.as_dict()["true_residual"] == rep.true_residual


def test_gmres_true_residual_overrides_estimate(robin_system, monkeypatch):
    # a Krylov core that stops after 3 steps and claims convergence: the
    # true residual at exit must catch it
    p, load, f = robin_system
    real_core = ss._gmres_core

    def lying_core(matvec, b, tol, restart, maxit):
        x, history, _ = real_core(matvec, b, tol, restart, 3)
        return x, history[:-1] + [0.0], True

    monkeypatch.setattr(ss, "_gmres_core", lying_core)
    q, rep = gmres_tinv(p, f, tol=1e-10)
    assert not rep.converged
    assert rep.true_residual > 1e-9 and "true residual" in rep.message


def test_gmres_calls_each_layer_once_per_iteration(ref_problem, monkeypatch):
    # the call contract that per-layer tracing wraps: one scattering and
    # one exchange per iteration and one more for the exit residual, all in
    # whitened coordinates; only the right-hand side is whitened and only
    # the solution unwhitened
    from helmskel.impedance import BlockImpedance

    calls = {}

    def count(owner, name, label):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[label] = calls.get(label, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    p = ref_problem
    f = sk.skeleton_rhs(p, make_load(p, f=1.0))
    count(sk.ScatteringOperator, "apply", "scattering")
    count(sk.ExchangeOperator, "apply", "exchange")
    count(BlockImpedance, "whiten", "whiten")
    count(BlockImpedance, "unwhiten", "unwhiten")
    q, rep = gmres_tinv(p, f, tol=1e-10, restart=None)
    it = rep.iterations
    assert rep.converged and it > 10
    assert calls == {"scattering": it + 1, "exchange": it + 1,
                     "whiten": 1, "unwhiten": 1}
    # a dual field passes through each operator in one call as well:
    # skeleton_apply whitens it once and unwhitens the result once
    calls.clear()
    sk.skeleton_apply(p, f)
    assert calls == {"scattering": 1, "exchange": 1, "whiten": 1, "unwhiten": 1}


def _bumps(seed, bumps=6, width=0.05):
    """Seeded sum of Gaussian bumps with complex amplitudes in the unit square."""
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.15, 0.85, size=(bumps, 2))
    amps = rng.standard_normal(bumps) + 1j * rng.standard_normal(bumps)

    def f(x, y):
        return sum(a * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * width ** 2))
                   for (cx, cy), a in zip(centres, amps))
    return f


@pytest.mark.parametrize("px", [1, 2])
def test_gmres_counts_are_h_uniform_with_the_collar(px):
    # the collar's T_Gamma is uniformly equivalent to an H^1/2-type norm, so
    # the counts hold still under refinement (27/28/27 on 1x1, 39/39/40 on
    # 2x2); boundary_h1's is not, and its counts grow (59/71/81, 92/110/128)
    counts = {}
    for tgamma in ("collar", "boundary_h1"):
        for n in (16, 32, 64):
            p = build_problem(n, n, px, px, k=10.0, bc_kind="robin", tgamma=tgamma)
            _, rep = gmres_tinv(p, sk.skeleton_rhs(p, make_load(p, _bumps(1))), tol=1e-8)
            assert rep.converged
            counts.setdefault(tgamma, []).append(rep.iterations)
    collar, h1 = counts["collar"], counts["boundary_h1"]
    assert max(collar) <= 1.1 * min(collar)
    assert h1[0] < h1[1] < h1[2] and h1[2] >= 1.3 * h1[0]


def test_gmres_finite_termination_single_domain(rng):
    p = build_problem(4, 4, 1, 1, k=3.0, bc_kind="dirichlet")
    load = make_load(p, f=1.0, g_d=np.cos(np.arange(p.n_gamma)))
    f = sk.skeleton_rhs(p, load)
    q, rep = gmres_tinv(p, f, tol=1e-12)
    assert rep.converged
    assert rep.iterations <= p.dual_dim


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_gmres_breakdown_is_not_convergence(scale):
    # diag(1, 1, 2, 2, 0, 0) has a 3-dimensional Krylov space from ones(6):
    # Arnoldi breaks down at step 3, and the kernel part of b stays
    b = scale * np.ones(6, complex)
    d = np.array([1.0, 1.0, 2.0, 2.0, 0.0, 0.0])
    x, history, converged = _gmres_core(lambda v: d * v, b, 1e-10, None, 12)
    assert not converged and len(history) - 1 == 3
    np.testing.assert_allclose(x / scale, [1, 1, 0.5, 0.5, 0, 0], atol=1e-12)
    np.testing.assert_allclose(history[-1], np.linalg.norm(b - d * x), rtol=1e-10)
    # the same breakdown with an invertible operator is an exact solve
    d[4:] = 3.0
    x, history, converged = _gmres_core(lambda v: d * v, b, 1e-10, None, 12)
    assert converged and len(history) - 1 == 3
    np.testing.assert_allclose(x, b / d, rtol=1e-12)
    # b in the kernel: the first operator image is exactly zero
    d[:] = 0.0
    x, history, converged = _gmres_core(lambda v: d * v, b, 1e-10, None, 12)
    assert not converged and len(history) - 1 == 1
    assert np.all(x == 0) and history[-1] == pytest.approx(np.linalg.norm(b))


def test_gmres_full_basis_breakdown_restarts():
    # a basis of all n directions always breaks down; below the attainable
    # accuracy of one cycle, the iteration restarts from the new iterate
    n = 100
    d = np.logspace(-6, 0, n)
    b = np.ones(n, complex)
    x, history, converged = _gmres_core(lambda v: d * v, b, 1e-12, None, 10 * n)
    assert converged and len(history) - 1 > n
    assert np.linalg.norm(b - d * x) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("restart", [0, -3])
def test_gmres_rejects_nonpositive_restart(restart):
    with pytest.raises(ValueError, match="restart"):
        _gmres_core(lambda v: 2.0 * v, np.ones(6, complex), 1e-10, restart, 12)


def test_gmres_operator_may_return_its_input():
    # the identity hands back the basis row itself; orthogonalising in
    # place must not overwrite the basis
    b = np.arange(1.0, 7.0) + 0j
    x, history, converged = _gmres_core(lambda v: v, b, 1e-10, None, 12)
    assert converged and len(history) - 1 == 1
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_gmres_keeps_the_basis_orthogonal():
    # with an orthogonal basis, full GMRES spans the whole space in n
    # steps; one classical Gram-Schmidt pass loses orthogonality on this
    # spread spectrum and needed 134 steps
    n = 100
    d = np.logspace(-4, 0, n)
    b = np.ones(n, complex)
    x, history, _ = _gmres_core(lambda v: d * v, b, 1e-12, None, 4 * n)
    assert len(history) - 1 <= n
    np.testing.assert_allclose(x, b / d, rtol=1e-8)


def test_gmres_memory_follows_iterations():
    # a basis sized by the dimension would take n (n + 1) complex entries,
    # 6.4 GB here; the grown basis holds only the directions in use
    import tracemalloc

    n = 20000
    d = np.linspace(1.0, 1.1, n)
    b = np.ones(n, complex)
    tracemalloc.start()
    try:
        x, history, converged = _gmres_core(lambda v: d * v, b, 1e-10, None, 2 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert converged and len(history) - 1 <= 10
    assert peak < 10e6
    np.testing.assert_allclose(x, b / d, rtol=1e-9)


def test_gmres_basis_growth_matches_restart_above_iterations():
    # 50 distinct eigenvalues on a circle: the iteration runs past 32
    # steps, so the basis grows by more than two blocks; a restart length
    # above the iteration count must not change a bit of the result
    n = 200
    d = np.repeat(1.8 + np.exp(2j * np.pi * np.arange(50) / 50), n // 50)
    b = np.random.default_rng(3).standard_normal(n) + 0j
    x1, h1, c1 = _gmres_core(lambda v: d * v, b, 1e-10, None, 1000)
    x2, h2, c2 = _gmres_core(lambda v: d * v, b, 1e-10, 60, 1000)
    assert c1 and c2 and len(h1) - 1 > 32
    np.testing.assert_array_equal(x1, x2)
    assert h1 == h2
    np.testing.assert_allclose(x1, b / d, rtol=1e-8)


def test_gmres_basis_grows_by_blocks_without_copies():
    # the basis grows one block of _BASIS_ROWS rows at a time and no block
    # is copied: a cycle holds its rows rounded up to a whole block, besides
    # a few vectors (b, x, w and an operator image); growing by doubling
    # held the old and the new basis at once (32 and 64 rows here)
    import tracemalloc

    from helmskel.solvers_spectral import _BASIS_ROWS

    n = 20000
    d = np.linspace(1.0, 10.0, n)
    b = np.ones(n, complex)
    tracemalloc.start()
    try:
        x, history, converged = _gmres_core(lambda v: d * v, b, 1e-10, None, 2 * n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    iterations = len(history) - 1
    assert converged and 33 <= iterations <= 48
    assert peak <= (iterations + 1 + _BASIS_ROWS + 4) * n * 16
    np.testing.assert_allclose(x, b / d, rtol=1e-8)


def test_gmres_non_normal_operator():
    n = 200
    A = np.diag(np.full(n, 2.0)) + np.diag(np.ones(n - 1), 1)
    rng = np.random.default_rng(5)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x, history, converged = _gmres_core(lambda v: A @ v, b, 1e-12, None, 2 * n)
    want = np.linalg.solve(A, b)
    assert converged
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


def test_gmres_restarted_still_converges(robin_system):
    p, load, f = robin_system
    q, rep = gmres_tinv(p, f, tol=1e-9, restart=10, maxit=2000)
    assert rep.converged
    final = p.impedance.norm(f - sk.skeleton_apply(p, q))
    assert final <= 1e-9 * p.impedance.norm(f) * 1.01


# ---------------------------------------------------------------------------
# dense harness
# ---------------------------------------------------------------------------

def test_dense_operator_matches_matvec(small_problem, rng):
    p = small_problem
    M = dense_operator(p)
    for _ in range(10):
        q = SkeletonField([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                           for n in p.block_sizes], "dual")
        want = p.impedance.whiten(sk.skeleton_apply(p, q))
        got = M @ p.impedance.whiten(q)
        np.testing.assert_allclose(got, want, atol=1e-12 * np.abs(want).max())


def test_dense_cap(small_problem, monkeypatch):
    monkeypatch.setattr(ss, "DENSE_CAP", 3)
    with pytest.raises(DenseCapExceeded, match="exceeds dense cap 3"):
        dense_operator(small_problem)


def test_verify_estimates_dense_phase_holds_two_matrices(monkeypatch):
    # M and its Hermitian part, each n^2 complex entries, besides the
    # chunk temporaries of dense_operator: about 2.0 n^2 entries measured.
    # The SVD's LAPACK copy of M is numpy's own malloc, outside tracemalloc;
    # the bench's peak_rss_mb is what sees it.  Forming the Hermitian part
    # out of place and letting LAPACK copy M and it held about 3.1.
    import tracemalloc

    p = build_problem(24, 24, 4, 4, k=10.0)
    n = p.dual_dim
    assert n >= 384
    monkeypatch.setattr(ss, "infsup_primary", lambda problem: (1.0, 1.0, 0))
    monkeypatch.setattr(ss, "continuity_modulus", lambda problem: 1.0)
    M = dense_operator(p)
    svals = np.linalg.svd(M, compute_uv=False)
    coer = np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min()
    del M
    tracemalloc.start()
    try:
        rep = ss.verify_estimates(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * 16
    assert abs(rep.infsup_skeleton - svals.min()) <= 1e-12 * svals.max()
    assert abs(rep.coercivity - coer) <= 1e-12 * svals.max()


def test_dense_operator_temporaries_stay_small():
    # the identity goes in chunks of at most _DENSE_CHUNK columns: M and
    # about one n^2 of temporaries, 2.0 n^2 entries measured here; one
    # chunk per trace block (the outer block is 128 of 384) peaked at 3.0
    import tracemalloc

    p = build_problem(32, 32, 2, 2, k=20.0, tgamma="boundary_h1")
    n = p.dual_dim
    assert n == 384
    tracemalloc.start()
    try:
        M = dense_operator(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.shape == (n, n)
    assert peak <= 2.2 * n * n * 16


def _resonant_problem():
    lam = dirichlet_resonance(build_rect_mesh(8, 8))
    return build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")


@pytest.mark.parametrize("make", [
    lambda: build_problem(32, 32, 2, 2, k=20.0, tgamma="boundary_h1"),
    lambda: build_problem(16, 16, 4, 4, k=10.0, tgamma="collar"),
    _resonant_problem,
], ids=["boundary_h1_2x2", "collar_4x4", "dirichlet_resonant"])
def test_verify_estimates_matches_serial_path(make):
    # the serial scipy path on the same M; the skeleton constants are
    # relative to sigma_max, the scale of a backward stable solver's error,
    # since sigma_min is about 1e-16 at resonance
    p = make()
    rep = verify_estimates(p)
    M = dense_operator(p)
    svals = sla.svdvals(M)
    coer = sla.eigvalsh(0.5 * (M + M.conj().T)).min()
    smax = svals.max()
    kernel = int(np.sum(svals < ss.SVD_THRESHOLD * smax))
    for got, want in ((rep.sigma_max_skeleton, smax), (rep.infsup_skeleton, svals.min()),
                      (rep.coercivity, coer)):
        assert abs(got - want) <= 1e-12 * smax
    smin_p, smax_p, kernel_p = infsup_primary(p)
    assert rep.infsup_primary == pytest.approx(smin_p, rel=1e-12)
    assert rep.sigma_max_primary == pytest.approx(smax_p, rel=1e-12)
    assert rep.continuity_a == pytest.approx(ss.continuity_modulus(p), rel=1e-12)
    assert (rep.kernel_dim_skeleton, rep.kernel_dim_primary) == (kernel, kernel_p)
    if make is _resonant_problem:
        assert (kernel, kernel_p) == (1, 1)


def test_verify_estimates_runs_only_the_svd_off_thread(ref_problem, monkeypatch):
    seen = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            seen[name] = threading.get_ident()
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", recording("svd", np.linalg.svd))
    for name in ("dense_operator", "infsup_primary", "continuity_modulus"):
        monkeypatch.setattr(ss, name, recording(name, getattr(ss, name)))
    before = threading.active_count()
    verify_estimates(ref_problem)
    assert threading.active_count() == before
    me = threading.get_ident()
    assert seen["svd"] != me
    assert seen["dense_operator"] == seen["infsup_primary"] == seen["continuity_modulus"] == me


def test_verify_estimates_failure_on_calling_thread_joins_worker(ref_problem, monkeypatch):
    # the exception propagates only once the running SVD has been joined:
    # the SVD outlasts the calling thread's work and records that it ran
    finished = []
    real_svd = np.linalg.svd

    def slow_svd(*args, **kwargs):
        time.sleep(0.2)
        out = real_svd(*args, **kwargs)
        finished.append(True)
        return out

    def violated(problem):
        raise sk.AssumptionViolation("planted")

    monkeypatch.setattr(np.linalg, "svd", slow_svd)
    monkeypatch.setattr(ss, "infsup_primary", violated)
    before = threading.active_count()
    with pytest.raises(sk.AssumptionViolation, match="planted"):
        verify_estimates(ref_problem)
    assert finished == [True]
    assert threading.active_count() == before


def test_verify_estimates_failure_on_worker_propagates(ref_problem, monkeypatch):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", diverged)
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        verify_estimates(ref_problem)
    assert threading.active_count() == before


def test_verify_estimates_rejects_non_finite_operator(ref_problem, monkeypatch):
    real = ss.dense_operator

    def planted(problem):
        M = real(problem)
        M[3, 5] = np.nan
        return M

    monkeypatch.setattr(ss, "dense_operator", planted)
    before = threading.active_count()
    with pytest.raises(ValueError, match="infs or NaNs"):
        verify_estimates(ref_problem)
    assert threading.active_count() == before


def test_dense_exchange_is_orthogonal_reflection(small_problem):
    p = small_problem
    n = p.dual_dim
    P = np.zeros((n, n), complex)
    for i in range(n):
        e = np.zeros(n, complex)
        e[i] = 1.0
        P[:, i] = p.exchange.apply(e)
    ev = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
    assert np.all((np.abs(ev - 1) < 1e-10) | (np.abs(ev + 1) < 1e-10))


def test_single_domain_dirichlet_structure(dual_apply):
    # With one subdomain and a dirichlet condition the boundary scattering
    # block is the identity, and the exchange reflection alone has the
    # two-point spectrum {0, 2} after symmetrization with the identity.
    p = build_problem(4, 4, 1, 1, k=3.0, bc_kind="dirichlet")
    n = p.dual_dim
    ng = p.n_gamma
    q = np.zeros(n, complex)
    q[:ng] = np.sin(np.arange(ng))
    field = SkeletonField.wrap(q, p.impedance.offsets, "dual")
    sq = dual_apply(p, p.scattering, field)
    np.testing.assert_allclose(sq.blocks[0], field.blocks[0], atol=1e-14)

    P = np.zeros((n, n), complex)
    for i in range(n):
        e = np.zeros(n, complex)
        e[i] = 1.0
        P[:, i] = p.exchange.apply(e)
    ev = np.linalg.eigvalsh(np.eye(n) + 0.5 * (P + P.conj().T))
    assert np.all((np.abs(ev) < 1e-10) | (np.abs(ev - 2) < 1e-10))

    rep = verify_estimates(p)
    assert rep.single_domain_flagged
    assert rep.kernel_dim_primary == rep.kernel_dim_skeleton


def test_whitened_singular_values_bounded(ref_problem):
    M = dense_operator(ref_problem)
    svals = np.linalg.svd(M, compute_uv=False)
    assert svals.max() <= 2.0 + 1e-10


def test_coercivity_versus_infsup(ref_problem):
    rep = verify_estimates(ref_problem)
    c, s = rep.coercivity, rep.infsup_skeleton
    assert c >= 0.5 * s * s - 1e-9


def test_coercivity_against_pencil_oracle(small_problem):
    # independent route: generalized eigenproblem in the unwhitened metric
    import scipy.linalg as sla

    p = small_problem
    n = p.dual_dim
    L = np.zeros((n, n), complex)
    for i in range(n):
        e = np.zeros(n, complex)
        e[i] = 1.0
        q = SkeletonField.wrap(e, p.impedance.offsets, "dual")
        L[:, i] = sk.skeleton_apply(p, q).concat()
    W = np.zeros((n, n))
    offs = p.impedance.offsets
    for b, Tb in enumerate(p.impedance.blocks):
        W[offs[b]:offs[b + 1], offs[b]:offs[b + 1]] = np.linalg.inv(Tb)
    G = W @ L
    lam = sla.eigh(0.5 * (G + G.conj().T), W, eigvals_only=True)[0]
    assert abs(lam - verify_estimates(p).coercivity) <= 1e-11


def test_infsup_primary_coercive_limit():
    p = build_problem(6, 6, 2, 2, k=4.0, kappa_sq=0.0, bc_kind="robin")
    smin, smax, kdim = infsup_primary(p)
    assert smin > 0 and kdim == 0


def _resonant_dirichlet(n):
    lam = dirichlet_resonance(build_rect_mesh(n, n))
    return build_problem(n, n, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")


def _dense_primary_svdvals(problem):
    """Oracle: singular values of the dense monolithic matrix A whitened by
    the Cholesky factor L of the block norm Gram W, L^-1 A L^-H."""
    import scipy.linalg as sla

    from helmskel.problem import monolithic_matrix

    W = sla.block_diag(problem.global_forms.H.toarray(), problem.bc.t_inverse())
    L = np.linalg.cholesky(W)
    A = monolithic_matrix(problem).toarray()
    X = sla.solve_triangular(L, A, lower=True)
    return sla.svdvals(sla.solve_triangular(L, X.conj().T, lower=True).conj().T)


@pytest.mark.parametrize("make,threshold", [
    (lambda: build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin"), 1e-8),
    (lambda: _resonant_dirichlet(8), 1e-8),
    (lambda: _resonant_dirichlet(16), 1e-8),
    (lambda: build_problem(8, 8, 2, 2, k=5.0, kappa_sq=0.0, bc_kind="neumann"), 1e-8),
    # three singular values under the threshold: the count doubles m to 4
    (lambda: build_problem(8, 8, 2, 2, k=5.0, bc_kind="mixed"), 0.2),
], ids=["reference", "resonance_8", "resonance_16", "neumann_zero", "mixed_0.2"])
def test_infsup_primary_matches_dense_oracle(make, threshold, monkeypatch):
    monkeypatch.setattr(ss, "SVD_THRESHOLD", threshold)
    p = make()
    svals = _dense_primary_svdvals(p)
    smin_d, smax_d = svals.min(), svals.max()
    smin, smax, kernel = infsup_primary(p)
    if smin_d > 1e-12 * smax_d:
        assert abs(smin - smin_d) <= 1e-6 * smin_d
    else:
        # at an exact kernel sigma_min is rounding noise on both sides
        assert smin <= 1e-12 * smax_d
    assert abs(smax - smax_d) <= 1e-6 * smax_d
    assert kernel == np.sum(svals < threshold * smax_d)


def test_infsup_primary_deterministic():
    # a seeded ARPACK start vector: repeated calls agree bit for bit
    p = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin", tgamma="boundary_h1")
    assert infsup_primary(p) == infsup_primary(p)


def _continuity_modulus_complex_svd(problem):
    """Oracle: every block whitened in complex arithmetic, normed by SVD."""
    import scipy.linalg as sla

    t = problem.bc.t_gamma
    ng = t.shape[0]
    L = np.zeros((2 * ng, 2 * ng))
    L[:ng, :ng] = np.linalg.cholesky(t)
    L[ng:, ng:] = np.linalg.cholesky(problem.bc.t_inverse())
    Baa, Bap, Bpa, Bpp = problem.bc.a_gamma_blocks()
    pairs = [(L, np.block([[Baa, Bap], [Bpa, Bpp]]))]
    pairs += [(np.linalg.cholesky(lf.H.toarray()), lf.A.toarray()) for lf in problem.forms]
    best = 0.0
    for L, A in pairs:
        X = sla.solve_triangular(L, A.astype(complex), lower=True)
        X = sla.solve_triangular(L, X.T, lower=True).T
        best = max(best, float(sla.svdvals(X).max()))
    return best


def _absorbing_layer(x, y):
    # a step layer, as config's absorbing-layer, that every block of the
    # 2 x 3 partition meets, so every block absorbs
    return 25.0 * (1.0 + 0.5j * (x >= 0.25))


@pytest.mark.parametrize("config,lossless", [
    (dict(bc_kind="robin"), True),
    (dict(bc_kind="dirichlet"), True),
    (dict(bc_kind="neumann", tgamma="boundary_h1"), True),
    (dict(bc_kind="mixed"), True),
    (dict(bc_kind="robin", mu=1 + 0.3j), False),
    (dict(bc_kind="dirichlet", kappa_sq=25 + 5j, tgamma="boundary_h1"), False),
    (dict(bc_kind="robin", kappa_sq=_absorbing_layer), False),
])
def test_continuity_modulus_against_complex_svd(config, lossless):
    from helmskel.solvers_spectral import continuity_modulus

    p = build_problem(12, 12, 2, 3, k=5.0, **config)
    # lossless volume blocks take the closed form, absorbing ones the
    # dense SVD
    assert all(np.any(lf.A.toarray().imag) != lossless for lf in p.forms)
    want = _continuity_modulus_complex_svd(p)
    assert abs(continuity_modulus(p) - want) <= 1e-12 * want


@pytest.mark.parametrize("px,py", [(1, 1), (2, 3), (4, 4)])
@pytest.mark.parametrize("config,bc_kind", [
    (dict(mu=0.5, kappa_sq=0.0, gamma=0.05), "robin"),     # k^2 g^2 < 1/mu
    (dict(), "neumann"),                                   # = 1/mu, defaults
    (dict(k=7.0), "dirichlet"),                            # rounds below 1
    (dict(mu=2.0), "mixed"),                               # > 1/mu
    (dict(gamma=1.0), "robin"),                            # > 1/mu
    (dict(kappa_sq=-10.0), "dirichlet"),                   # negative real
    (dict(kappa_sq=-50.0), "neumann"),                     # |f(0)| sets it
])
def test_subdomain_closed_form_against_dense_block_norm(px, py, config, bc_kind):
    from helmskel.solvers_spectral import _block_norm, _subdomain_block_norm

    config = {"k": 5.0, **config}
    p = build_problem(12, 12, px, py, bc_kind=bc_kind, **config)
    for lf in p.forms:
        # the closed form rests on every block floating: K kills constants
        K = lf.K.toarray()
        assert np.abs(K @ np.ones(lf.n_dofs)).max() <= 1e-13 * np.abs(K).max()
        want = _block_norm(lf.A.toarray(), lf.H.toarray())
        assert abs(_subdomain_block_norm(lf, p.coeffs) - want) <= 1e-12 * want


@pytest.mark.parametrize("k", [5.0, 7.0])   # k^2 (1/k)^2 rounds above, below 1
def test_continuity_modulus_defaults_solve_no_subdomain_block(monkeypatch, k):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve on a subdomain block")

    sizes = []

    def outer_only(bc):
        sizes.append(bc.n)
        return 0.5

    p = build_problem(12, 12, 2, 2, k=k)
    monkeypatch.setattr(ss.spla, "eigsh", refuse)
    monkeypatch.setattr(ss.sla, "eigh", refuse)
    monkeypatch.setattr(ss, "_block_norm", refuse)
    monkeypatch.setattr(ss, "_outer_block_norm", outer_only)
    assert abs(ss.continuity_modulus(p) - 1.0) <= 1e-15
    assert sizes == [p.n_gamma]


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("bc_kind,lambda_scale", [
    ("robin", 1.0), ("robin", 30.0), ("dirichlet", 1.0), ("neumann", 1.0), ("mixed", 1.0)])
def test_outer_closed_form_against_dense_block_norm(tgamma, bc_kind, lambda_scale):
    from helmskel.solvers_spectral import _block_norm, _outer_block_norm

    p = build_problem(12, 12, 2, 2, k=5.0, bc_kind=bc_kind, tgamma=tgamma,
                      lambda_scale=lambda_scale)
    bc = p.bc
    Baa, Bap, Bpa, Bpp = bc.a_gamma_blocks()
    Z = np.zeros_like(bc.t_gamma)
    want = _block_norm(np.block([[Baa, Bap], [Bpa, Bpp]]),
                       np.block([[bc.t_gamma, Z], [Z, bc.t_inverse()]]))
    # robin at lambda_scale 30 sets the norm well above 1 (31.3 with the
    # collar, 30.0 with boundary_h1); the others give 1 up to rounding
    assert want > (20.0 if lambda_scale > 1 else 0.99)
    assert abs(_outer_block_norm(bc) - want) <= 1e-13 * want


@pytest.mark.parametrize("bc_kind", ["dirichlet", "neumann", "mixed"])
def test_outer_block_norm_of_zero_lam_is_one(bc_kind):
    p = build_problem(12, 12, 2, 2, k=5.0, bc_kind=bc_kind)
    assert ss._outer_block_norm(p.bc) == 1.0


def test_continuity_modulus_one_seeded_eigensolve_per_block(monkeypatch):
    calls = []
    eigsh = ss.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        return eigsh(*args, **kwargs)

    p = build_problem(12, 12, 2, 3, k=5.0, mu=0.5, kappa_sq=0.0, gamma=0.05)
    monkeypatch.setattr(ss.spla, "eigsh", counted)
    first = ss.continuity_modulus(p)
    assert calls == [lf.n_dofs for lf in p.forms]
    assert ss.continuity_modulus(p) == first


def test_continuity_modulus_observed_across_partitions():
    values = {}
    for px, py in ((1, 1), (2, 2), (4, 4)):
        p = build_problem(8, 8, px, py, k=5.0, bc_kind="robin")
        from helmskel.solvers_spectral import continuity_modulus

        values[(px, py)] = continuity_modulus(p)
    assert all(np.isfinite(v) and v > 0 for v in values.values())
    vals = list(values.values())
    assert max(vals) / min(vals) < 10.0


@pytest.mark.parametrize("kind,k", [("robin", 5.0), ("neumann", 3.0)])
def test_verify_estimates_pass(kind, k):
    p = build_problem(8, 8, 2, 2, k=k, bc_kind=kind)
    rep = verify_estimates(p)
    assert rep.pass_estimate_chain
    assert rep.pass_coercivity_bound
    assert rep.pass_kernel_match
    assert rep.pass_index_zero


def test_verify_estimates_at_resonance():
    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    rep = verify_estimates(p)
    assert rep.kernel_dim_primary == 1
    assert rep.kernel_dim_skeleton == 1
    assert rep.pass_kernel_match
    assert rep.infsup_skeleton <= 1e-7
    smin, smax, kdim = infsup_primary(p)
    assert smin <= 1e-7 * smax


def test_resonance_value_close_to_continuum():
    mesh = build_rect_mesh(16, 16)
    lam = dirichlet_resonance(mesh)
    assert abs(lam - 2 * np.pi ** 2) < 0.2


def test_resonance_sparse_branch_matches_dense(monkeypatch):
    # 12x10 cells have 11 * 9 = 99 interior vertices: dense eigh at the
    # default limit, sparse shift-invert once the limit is lowered below it
    mesh = build_rect_mesh(12, 10)
    dense = dirichlet_resonance(mesh)
    monkeypatch.setattr(ss, "_DENSE_RESONANCE_MAX", 98)
    sparse = dirichlet_resonance(mesh)
    assert abs(sparse - dense) <= 1e-10 * dense


@pytest.mark.parametrize("nx,ny", [(1, 4), (2, 1)])
def test_resonance_needs_an_interior_vertex(nx, ny):
    with pytest.raises(ValueError, match="no interior vertex"):
        dirichlet_resonance(build_rect_mesh(nx, ny))


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------

def test_sweep_single_row():
    rows, slopes = sweep_wavenumber([5.0])
    assert len(rows) == 1 and slopes is None
    assert rows[0]["n_dual"] == 96


def test_sweep_empty_rejected():
    with pytest.raises(ValueError):
        sweep_wavenumber([])


def test_sweep_cap_exceeded_exits_before_writing(tmp_path, capsys, monkeypatch):
    from helmskel.cli import main

    monkeypatch.setattr(ss, "DENSE_CAP", 4)
    out = tmp_path / "sweep_out"
    cfg = tmp_path / "cap.ini"
    cfg.write_text(f"[output]\ndir = {out}\n")
    assert main(["sweep", "--config", str(cfg), "--k-list", "5"]) == 2
    assert capsys.readouterr().err == "error: skeleton dimension 96 exceeds dense cap 4\n"
    assert not out.exists()


def test_sweep_resolution_rule():
    from helmskel.solvers_spectral import _resolution

    assert _resolution(5.0, 2, 2) == 8
    assert _resolution(10.0, 2, 2) == 16
    assert _resolution(20.0, 2, 2) == 32
    assert _resolution(40.0, 2, 2) == 64
    assert _resolution(5.0, 3, 2) == 12   # rounded up to lcm(3, 2)


def test_sweep_csv_format():
    rows, slopes = sweep_wavenumber([5.0, 10.0], tgamma="boundary_h1")
    buf = io.StringIO()
    write_sweep_csv(rows, slopes, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].split(",")[0] == "k"
    assert len(lines) == 1 + 2 + 2
    assert lines[-2].startswith("#") and lines[-1].startswith("#")
    # the format of existing sweep CSVs, pinned: headers in order, bools as
    # true/false, counts as integers, floats in %.12g (norm_A is the float
    # 1.0 under boundary_h1, written "1")
    assert lines[0] == ("k,n_sigma,infsup_primary,norm_A,infsup_skeleton,coercivity,"
                        "kernel_primary,kernel_skeleton,pass_thm_final,pass_cor_coercivity")
    row, cells = rows[0], lines[1].split(",")
    assert cells[:2] == ["5", "96"] and cells[3] == "1"
    assert cells[6:] == ["0", "0", "false", "true"]
    for i, key in ((2, "infsup_primary"), (4, "infsup_skeleton"), (5, "coercivity")):
        assert cells[i] == "%.12g" % row[key]
    assert lines[-2] == "# slope log infsup_skeleton vs log k = %.6g" % slopes["infsup_skeleton"]
    assert lines[-1] == "# slope log coercivity vs log k = %.6g" % slopes["coercivity"]
