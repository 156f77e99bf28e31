import numpy as np
import pytest

from helmskel.assembly import Coefficients, assemble_subdomain
from helmskel.geometry import build_rect_mesh, partition_checkerboard
from helmskel.impedance import (BlockImpedance, DtnBlock, boundary_h1_impedance,
                                boundary_mass, boundary_stiffness, collar_impedance,
                                schur_dtn)
from helmskel.problem import build_problem


def test_single_domain_dtn_spd():
    mesh = build_rect_mesh(2, 2)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    T, _, _ = schur_dtn(lf.H, lf.n_interior)
    np.testing.assert_allclose(T, T.T)
    assert np.linalg.eigvalsh(T).min() > 0


def test_dtn_norm_equals_lift_energy(ref_problem, rng):
    p = ref_problem
    for j, dtn in enumerate(p.dtn):
        nb = dtn.n_boundary
        for _ in range(5):
            v = rng.standard_normal(nb) + 1j * rng.standard_normal(nb)
            lhs = float(np.real(np.conj(v) @ (dtn.T @ v)))
            rhs = dtn.h_energy(dtn.lift(v))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_no_interior_block_is_plain_gram():
    mesh = build_rect_mesh(1, 1)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    assert lf.n_interior == 0
    T, lu, _ = schur_dtn(lf.H, 0)
    assert lu is None
    np.testing.assert_allclose(T, lf.H.toarray())


def test_trace_norm_dominated_by_volume_norm(ref_problem, rng):
    p = ref_problem
    for j, dtn in enumerate(p.dtn):
        n = p.omega_sizes[j]
        ni = p.n_interior[j]
        for _ in range(50 // p.num_subdomains + 1):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            tr = u[ni:]
            tnorm2 = float(np.real(np.conj(tr) @ (dtn.T @ tr)))
            assert tnorm2 <= dtn.h_energy(u) * (1 + 1e-12)


@pytest.mark.parametrize("surrogate", [collar_impedance, boundary_h1_impedance])
def test_gamma_surrogates_spd(surrogate):
    mesh = build_rect_mesh(8, 8)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T = surrogate(mesh, gamma_dofs, 0.2)
    np.testing.assert_allclose(T, T.T)
    assert np.linalg.eigvalsh(T).min() > 0


def test_collar_monotone_in_gamma(rng):
    mesh = build_rect_mesh(6, 6)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T1 = collar_impedance(mesh, gamma_dofs, 0.1)
    T2 = collar_impedance(mesh, gamma_dofs, 0.2)
    for _ in range(10):
        q = rng.standard_normal(len(gamma_dofs))
        assert q @ (T2 @ q) <= q @ (T1 @ q) * (1 + 1e-12)


def test_boundary_mass_total_length():
    mesh = build_rect_mesh(4, 6, 2.0, 3.0)
    gamma_dofs = np.unique(mesh.boundary_edges)
    M = boundary_mass(mesh, gamma_dofs)
    assert abs(M.sum() - 10.0) < 1e-12      # perimeter of 2 x 3 rectangle
    K = boundary_stiffness(mesh, gamma_dofs)
    assert np.abs(K @ np.ones(len(gamma_dofs))).max() < 1e-12
    assert np.array_equal(M, M.T) and np.array_equal(K, K.T)
    # reference: one boundary edge at a time
    pos = {v: i for i, v in enumerate(gamma_dofs)}
    M_ref, K_ref = np.zeros_like(M), np.zeros_like(K)
    for va, vb in mesh.boundary_edges:
        h = np.linalg.norm(mesh.vertices[vb] - mesh.vertices[va])
        for a in (pos[va], pos[vb]):
            for b in (pos[va], pos[vb]):
                M_ref[a, b] += h / 3.0 if a == b else h / 6.0
                K_ref[a, b] += 1.0 / h if a == b else -1.0 / h
    assert np.array_equal(M, M_ref) and np.array_equal(K, K_ref)


def test_impedance_rejects_asymmetric_block():
    bad = np.array([[2.0, 0.3], [0.0, 2.0]])
    with pytest.raises(ValueError, match="symmetric"):
        BlockImpedance([bad])


def test_apply_solve_roundtrip_and_norms(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    for _ in range(10):
        v = rand_field(p, rng, "primal")
        q = imp.apply(v)
        back = imp.solve(q)
        for a, b in zip(back.blocks, v.blocks):
            np.testing.assert_allclose(a, b, atol=1e-11 * max(1, np.abs(b).max()))
        # norm compatibility through the pair
        assert abs(imp.norm(q) - imp.norm(v)) <= 1e-12 * imp.norm(v)


def test_norm_axioms(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    z = imp.zeros("primal")
    assert imp.norm(z) == 0.0
    for _ in range(20):
        a = rand_field(p, rng, "primal")
        b = rand_field(p, rng, "primal")
        assert imp.norm(a) > 0
        assert imp.norm(a + b) <= imp.norm(a) + imp.norm(b) + 1e-12


def test_impedance_form_symmetry(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    for _ in range(10):
        q = rand_field(p, rng, "primal")
        w = rand_field(p, rng, "primal")
        tq, tw = imp.apply(q), imp.apply(w)
        lhs = sum(a @ np.conj(b) for a, b in zip(tq.blocks, w.blocks))
        rhs = sum(a @ np.conj(b) for a, b in zip(tw.blocks, q.blocks))
        assert abs(lhs - np.conj(rhs)) <= 1e-12 * abs(lhs)


def test_whitening_round_trip_and_isometry(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    for _ in range(10):
        q = rand_field(p, rng, "dual")
        w = imp.whiten(q)
        back = imp.unwhiten(w)
        for a, b in zip(back.blocks, q.blocks):
            np.testing.assert_allclose(a, b, atol=1e-13 * max(1, np.abs(b).max()))
        assert abs(np.linalg.norm(w) - imp.norm(q)) <= 1e-12 * imp.norm(q)


def test_whitening_linear(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    q1 = rand_field(p, rng, "dual")
    q2 = rand_field(p, rng, "dual")
    a = 0.7 - 1.3j
    lhs = imp.whiten(a * q1 + q2)
    rhs = a * imp.whiten(q1) + imp.whiten(q2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * np.abs(rhs).max())


def test_whitened_blocks_identity(ref_problem):
    imp = ref_problem.impedance
    for T, L in zip(imp.blocks, imp.chol):
        Linv_T = np.linalg.solve(L, T)
        W = np.linalg.solve(L, Linv_T.T).T
        np.testing.assert_allclose(W, np.eye(T.shape[0]), atol=1e-11)


def test_unknown_surrogate_rejected():
    with pytest.raises(ValueError, match="tgamma"):
        build_problem(2, 2, 1, 1, k=2.0, tgamma="nope")
