import numpy as np
import pytest
import scipy.sparse as sp

from helmskel.assembly import Coefficients, assemble_subdomain
from helmskel.geometry import build_rect_mesh, partition_checkerboard
from helmskel.impedance import (BlockImpedance, _collar_forms, boundary_h1_impedance,
                                boundary_mass, boundary_stiffness, collar_impedance,
                                schur_dtn)
from helmskel.problem import build_problem


def _energy(H, u):
    """Squared volume norm u^H H u of a local vector."""
    return float(np.real(np.conj(u) @ (H @ u)))


def test_single_domain_dtn_spd():
    mesh = build_rect_mesh(2, 2)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    T = schur_dtn(lf.H, lf.n_interior)
    np.testing.assert_allclose(T, T.T)
    assert np.linalg.eigvalsh(T).min() > 0


def test_dtn_norm_equals_lift_energy(ref_problem, rng, rand_field, harmonic_extension):
    # ||v||_T^2 of every subdomain block is the H-energy of the harmonic
    # extension of v: T is the Schur complement of H
    p = ref_problem
    for _ in range(5):
        v = rand_field(p, rng, "primal")
        tv = p.impedance.apply(v)
        for j, lf in enumerate(p.forms):
            vb = v.blocks[j + 1]
            lhs = float(np.real(np.conj(vb) @ tv.blocks[j + 1]))
            rhs = _energy(lf.H, harmonic_extension(lf, vb))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def _dense_schur(H, ni):
    H = H.toarray()
    return H[ni:, ni:] - H[ni:, :ni] @ np.linalg.solve(H[:ni, :ni], H[:ni, ni:])


def _forms_of(nx, ny, px, py):
    mesh = build_rect_mesh(nx, ny)
    part = partition_checkerboard(mesh, px, py)
    return [assemble_subdomain(mesh, part, j, Coefficients(k=10.0))
            for j in range(part.num_subdomains)]


def _collar_of(mesh):
    return _collar_forms(mesh, np.unique(mesh.boundary_edges), 0.1)


@pytest.mark.parametrize("forms", [
    pytest.param(lambda: _forms_of(32, 32, 8, 8)[:1], id="8x8-block"),
    pytest.param(lambda: _forms_of(32, 32, 2, 2)[:1], id="2x2-block"),
    pytest.param(lambda: _forms_of(30, 20, 3, 2), id="30x20-3x2-blocks"),
    pytest.param(lambda: [_collar_of(build_rect_mesh(12, 8, 1.5, 1.0))], id="collar-ring"),
])
def test_schur_dtn_matches_dense_formula(forms):
    for lf in forms():
        T = schur_dtn(lf.H, lf.n_interior)
        want = _dense_schur(lf.H, lf.n_interior)
        assert np.abs(T - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(T, T.T)


def test_schur_dtn_refuses_a_pivoted_factor():
    # symmetric indefinite: the zero diagonal of the interior block forces
    # SuperLU to pivot, so the trailing block is no Schur complement
    H = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(RuntimeError, match="pivoted or reordered"):
        schur_dtn(H, 2)


def test_no_interior_block_is_plain_gram():
    mesh = build_rect_mesh(1, 1)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    assert lf.n_interior == 0
    np.testing.assert_allclose(schur_dtn(lf.H, 0), lf.H.toarray())


def test_trace_norm_dominated_by_volume_norm(ref_problem, rng):
    p = ref_problem
    for j, lf in enumerate(p.forms):
        n = p.omega_sizes[j]
        T = p.impedance.blocks[j + 1]
        for _ in range(50 // p.num_subdomains + 1):
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            tr = u[lf.n_interior:]
            tnorm2 = float(np.real(np.conj(tr) @ (T @ tr)))
            assert tnorm2 <= _energy(lf.H, u) * (1 + 1e-12)


@pytest.mark.parametrize("surrogate", [collar_impedance, boundary_h1_impedance])
def test_gamma_surrogates_spd(surrogate):
    mesh = build_rect_mesh(8, 8)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T, L, _ = surrogate(mesh, gamma_dofs, 0.2)
    np.testing.assert_allclose(T, T.T)
    assert np.linalg.eigvalsh(T).min() > 0
    np.testing.assert_allclose(L @ L.T, T, rtol=0, atol=1e-12 * np.abs(T).max())
    assert np.array_equal(L, np.tril(L))


@pytest.mark.parametrize("surrogate", [collar_impedance, boundary_h1_impedance])
def test_gamma_surrogate_form_reduces_to_t(surrogate):
    # the sparse form a surrogate returns has T as its Schur complement onto
    # its trailing Gamma rows, in gamma_dofs order
    mesh = build_rect_mesh(10, 6, 1.5, 1.0)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T, _, F = surrogate(mesh, gamma_dofs, 0.2)
    assert sp.issparse(F) and np.all(F.data != 0)
    want = _dense_schur(F, F.shape[0] - len(gamma_dofs))
    assert np.abs(want - T).max() <= 1e-13 * np.abs(T).max()


def test_collar_monotone_in_gamma(rng):
    mesh = build_rect_mesh(6, 6)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T1 = collar_impedance(mesh, gamma_dofs, 0.1)[0]
    T2 = collar_impedance(mesh, gamma_dofs, 0.2)[0]
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


def test_apply_norm_pair(ref_problem, rng, rand_field):
    p = ref_problem
    imp = p.impedance
    for _ in range(10):
        v = rand_field(p, rng, "primal")
        q = imp.apply(v)
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
