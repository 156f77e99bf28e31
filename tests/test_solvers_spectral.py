import io

import numpy as np
import pytest

import helmskel.skeleton as sk
from helmskel.geometry import build_rect_mesh
from helmskel.problem import build_problem, make_load
from helmskel.solvers_spectral import (DenseCapExceeded, dense_operator,
                                       dirichlet_resonance, gmres_tinv,
                                       infsup_primary, richardson,
                                       sweep_wavenumber, verify_estimates,
                                       write_sweep_csv,
                                       _gmres_core, _primary_extremes_iterative)
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
    p, load, f = robin_system
    q, rep = richardson(p, f, relax=0.5, tol=1e-10, maxit=5000)
    h = np.array(rep.residual_history)
    tail = h[-21:]
    factors = tail[1:] / tail[:-1]
    c = verify_estimates(p).coercivity
    r = 0.5
    assert factors.max() <= np.sqrt(1 - 2 * r * c + 4 * r * r) + 0.05


def test_richardson_stagnates_at_resonance():
    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    load = make_load(p, f=1.0)
    f = sk.skeleton_rhs(p, load)
    q, rep = richardson(p, f, relax=0.5, tol=1e-10, maxit=300)
    assert not rep.converged
    assert rep.message != ""


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
    import helmskel.solvers_spectral as ss

    p, load, f = robin_system
    real_core = ss._gmres_core

    def lying_core(matvec, b, tol, restart, maxit):
        x, history, _ = real_core(matvec, b, tol, restart, 3)
        return x, history[:-1] + [0.0], True

    monkeypatch.setattr(ss, "_gmres_core", lying_core)
    q, rep = gmres_tinv(p, f, tol=1e-10)
    assert not rep.converged
    assert rep.true_residual > 1e-9 and "true residual" in rep.message


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


@pytest.mark.parametrize("restart", [0, -3])
def test_gmres_rejects_nonpositive_restart(restart):
    with pytest.raises(ValueError, match="restart"):
        _gmres_core(lambda v: 2.0 * v, np.ones(6, complex), 1e-10, restart, 12)


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


def test_dense_cap(small_problem):
    with pytest.raises(DenseCapExceeded):
        dense_operator(small_problem, cap=3)


def test_dense_exchange_is_orthogonal_reflection(small_problem):
    p = small_problem
    n = p.dual_dim
    P = np.zeros((n, n), complex)
    for i in range(n):
        e = np.zeros(n, complex)
        e[i] = 1.0
        P[:, i] = p.impedance.whiten(p.exchange.apply(p.impedance.unwhiten(e)))
    ev = np.linalg.eigvalsh(0.5 * (P + P.conj().T))
    assert np.all((np.abs(ev - 1) < 1e-10) | (np.abs(ev + 1) < 1e-10))


def test_single_domain_dirichlet_structure():
    # With one subdomain and a dirichlet condition the boundary scattering
    # block is the identity, and the exchange reflection alone has the
    # two-point spectrum {0, 2} after symmetrization with the identity.
    p = build_problem(4, 4, 1, 1, k=3.0, bc_kind="dirichlet")
    n = p.dual_dim
    ng = p.n_gamma
    q = np.zeros(n, complex)
    q[:ng] = np.sin(np.arange(ng))
    field = SkeletonField.from_concat(q, p.block_sizes, "dual")
    sq = p.scattering.apply(field)
    np.testing.assert_allclose(sq.blocks[0], field.blocks[0], atol=1e-14)

    P = np.zeros((n, n), complex)
    for i in range(n):
        e = np.zeros(n, complex)
        e[i] = 1.0
        P[:, i] = p.impedance.whiten(p.exchange.apply(p.impedance.unwhiten(e)))
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
        q = SkeletonField.from_concat(e, p.block_sizes, "dual")
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


def test_primary_extremes_iterative_matches_dense(ref_problem):
    smin_d, smax_d, _ = infsup_primary(ref_problem, dense_cap=10 ** 9)
    smin_i, smax_i = _primary_extremes_iterative(ref_problem)
    assert abs(smin_i - smin_d) <= 1e-6 * smin_d
    assert abs(smax_i - smax_d) <= 1e-6 * smax_d


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


@pytest.mark.parametrize("config,lossless", [
    (dict(bc_kind="robin"), True),
    (dict(bc_kind="dirichlet"), True),
    (dict(bc_kind="neumann", tgamma="boundary_h1"), True),
    (dict(bc_kind="mixed"), True),
    (dict(bc_kind="robin", mu=1 + 0.3j), False),
    (dict(bc_kind="dirichlet", kappa_sq=25 + 5j, tgamma="boundary_h1"), False),
])
def test_continuity_modulus_against_complex_svd(config, lossless):
    from helmskel.solvers_spectral import continuity_modulus

    p = build_problem(12, 12, 2, 3, k=5.0, **config)
    # lossless volume blocks take the real eigensolve, absorbing ones the SVD
    assert all(np.any(lf.A.toarray().imag) != lossless for lf in p.forms)
    want = _continuity_modulus_complex_svd(p)
    assert abs(continuity_modulus(p) - want) <= 1e-12 * want


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


# ---------------------------------------------------------------------------
# sweep plumbing
# ---------------------------------------------------------------------------

def test_sweep_single_row():
    rows, slopes = sweep_wavenumber([5.0])
    assert len(rows) == 1 and slopes is None
    assert rows[0]["n_sigma"] == 96


def test_sweep_empty_rejected():
    with pytest.raises(ValueError):
        sweep_wavenumber([])


def test_sweep_resolution_rule():
    from helmskel.solvers_spectral import _resolution

    assert _resolution(5.0, 2, 2, 10.0) == 8
    assert _resolution(10.0, 2, 2, 10.0) == 16
    assert _resolution(20.0, 2, 2, 10.0) == 32
    assert _resolution(40.0, 2, 2, 10.0) == 64
    assert _resolution(5.0, 3, 2, 10.0) == 12   # rounded up to lcm(3, 2)


def test_sweep_csv_format():
    rows, slopes = sweep_wavenumber([5.0, 10.0], tgamma="boundary_h1")
    buf = io.StringIO()
    write_sweep_csv(rows, slopes, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0].split(",")[0] == "k"
    assert len(lines) == 1 + 2 + 2
    assert lines[-2].startswith("#") and lines[-1].startswith("#")
