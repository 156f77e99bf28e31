from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from helmskel.assembly import (Coefficients, assemble_boundary, assemble_subdomain,
                               boundary_h1_impedance, collar_impedance)
from helmskel.geometry import build_rect_mesh, partition_checkerboard
from helmskel.impedance import DtnBlock, _BoundaryLastFactor, _StackedBlocks
from helmskel.problem import build_problem


def _energy(H, u):
    """Squared volume norm u^H H u of a local vector."""
    return float(np.real(np.conj(u) @ (H @ u)))


def test_single_domain_dtn_spd():
    mesh = build_rect_mesh(2, 2)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    T = DtnBlock(lf.H, lf.n_interior).T
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
    """The collar's form as the H of a block, the boundary vertices last."""
    gamma_dofs = np.unique(mesh.boundary_edges)
    F = collar_impedance(mesh, gamma_dofs, 0.1)
    return SimpleNamespace(H=F, n_interior=F.shape[0] - len(gamma_dofs))


@pytest.mark.parametrize("forms", [
    pytest.param(lambda: _forms_of(32, 32, 8, 8)[:1], id="8x8-block"),
    pytest.param(lambda: _forms_of(32, 32, 2, 2)[:1], id="2x2-block"),
    pytest.param(lambda: _forms_of(30, 20, 3, 2), id="30x20-3x2-blocks"),
    pytest.param(lambda: [_collar_of(build_rect_mesh(12, 8, 1.5, 1.0))], id="collar-ring"),
])
def test_schur_dtn_matches_dense_formula(forms):
    for lf in forms():
        T = DtnBlock(lf.H, lf.n_interior).T
        want = _dense_schur(lf.H, lf.n_interior)
        assert np.abs(T - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(T, T.T)


def test_schur_dtn_refuses_a_pivoted_factor():
    # symmetric indefinite: the zero diagonal of the interior block forces
    # SuperLU to pivot, so the trailing block is no Schur complement
    H = sp.csr_matrix(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 2.0]]))
    with pytest.raises(RuntimeError, match="pivoted or reordered"):
        DtnBlock(H, 2)


def test_dtn_block_order_invariance(rng):
    # any interior order gives the same T; the boundary keeps its rows, and
    # the factor solves in H's own order
    lf = _forms_of(30, 20, 3, 2)[4]
    ni, n = lf.n_interior, lf.n_dofs
    default = DtnBlock(lf.H, ni)
    shuffled = DtnBlock(lf.H, ni, rng.permutation(ni))
    for block in (default, shuffled):
        assert np.array_equal(block.order[ni:], np.arange(ni, n))
        assert np.array_equal(np.sort(block.order[:ni]), np.arange(ni))
    assert not np.array_equal(default.order, shuffled.order)
    for got, want in [(shuffled.T, default.T), (shuffled.chol, default.chol)]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    b = rng.standard_normal((n, 2))
    x = _BoundaryLastFactor(lf.H, shuffled.order, ni, 0.0).solve(b)
    want = np.linalg.solve(lf.H.toarray(), b)
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_no_interior_block_is_plain_gram():
    mesh = build_rect_mesh(1, 1)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=2.0))
    assert lf.n_interior == 0
    np.testing.assert_allclose(DtnBlock(lf.H, 0).T, lf.H.toarray())


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


def _outer_block(surrogate, mesh, gamma_dofs, gamma):
    """The outer impedance block read off the form a surrogate returns, and
    that form."""
    F = surrogate(mesh, gamma_dofs, gamma)
    return DtnBlock(F, F.shape[0] - len(gamma_dofs)), F


@pytest.mark.parametrize("surrogate", [collar_impedance, boundary_h1_impedance])
def test_gamma_surrogates_spd(surrogate):
    mesh = build_rect_mesh(8, 8)
    gamma_dofs = np.unique(mesh.boundary_edges)
    block, _ = _outer_block(surrogate, mesh, gamma_dofs, 0.2)
    T, L = block.T, block.chol
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
    block, F = _outer_block(surrogate, mesh, gamma_dofs, 0.2)
    T = block.T
    assert sp.issparse(F) and np.all(F.data != 0)
    want = _dense_schur(F, F.shape[0] - len(gamma_dofs))
    assert np.abs(want - T).max() <= 1e-13 * np.abs(T).max()


def test_collar_monotone_in_gamma(rng):
    mesh = build_rect_mesh(6, 6)
    gamma_dofs = np.unique(mesh.boundary_edges)
    T1 = _outer_block(collar_impedance, mesh, gamma_dofs, 0.1)[0].T
    T2 = _outer_block(collar_impedance, mesh, gamma_dofs, 0.2)[0].T
    for _ in range(10):
        q = rng.standard_normal(len(gamma_dofs))
        assert q @ (T2 @ q) <= q @ (T1 @ q) * (1 + 1e-12)


def _h_half_ratio(p):
    """Ratio of the extreme generalized eigenvalues of (T_Gamma, R), with R
    = M^1/2 (M^-1/2 (K + gamma^-2 M) M^-1/2)^1/2 M^1/2 the exact H^1/2-type
    square root built from the boundary stiffness K and mass M."""
    K, M = (A.toarray() for A in assemble_boundary(p.mesh, p.partition.gamma_dofs))
    w, V = np.linalg.eigh(M)
    m_half, m_inv_half = (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    w, V = np.linalg.eigh(m_inv_half @ (K + M / p.coeffs.gamma ** 2) @ m_inv_half)
    R = m_half @ (V * np.sqrt(w)) @ V.T @ m_half
    ev = sla.eigvalsh(p.impedance.blocks[0], 0.5 * (R + R.T))
    return ev[-1] / ev[0]


def test_collar_is_uniformly_equivalent_to_h_half():
    # the graded collar reads 2.69, 2.65, 3.18 at n = 16, 32, 64; the
    # boundary H1 surrogate 54.7, 110.5, 221.5, growing like 1/h
    ratios = {tgamma: [_h_half_ratio(build_problem(n, n, 1, 1, k=10.0, tgamma=tgamma))
                       for n in (16, 32, 64)] for tgamma in ("collar", "boundary_h1")}
    assert max(ratios["collar"]) <= 3.5
    h1 = ratios["boundary_h1"]
    assert h1[1] >= 1.8 * h1[0] and h1[2] >= 1.8 * h1[1]


def test_boundary_mass_total_length():
    for nx, ny, width, height in [(4, 6, 2.0, 3.0), (3, 7, 0.7, 2.3)]:
        mesh = build_rect_mesh(nx, ny, width, height)
        gamma_dofs = np.unique(mesh.boundary_edges)
        K, M = (F.toarray() for F in assemble_boundary(mesh, gamma_dofs))
        assert abs(M.sum() - 2 * (width + height)) < 1e-12      # the perimeter
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
    # T_Gamma divides M by gamma entrywise; multiplying by 1/gamma, as a
    # sparse M / gamma does, moves its bits on this mesh
    for gamma in (0.1, 1.0 / 7.0):
        T = boundary_h1_impedance(mesh, gamma_dofs, gamma).toarray()
        assert np.array_equal(T, K + M / gamma)


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


def test_stacked_blocks_hold_a_repeated_block_once(rng):
    # a block passed three times is one family, stacked once and applied to
    # its members' rows side by side; a block equal to it but not the same
    # object is a family of its own
    A = rng.standard_normal((4, 4))
    blocks = [A, rng.standard_normal((2, 2)), A, A.copy(), A]
    stacked = _StackedBlocks(blocks)
    assert [(stack.shape, len(rows)) for stack, rows in stacked.groups] == [
        ((1, 4, 4), 12), ((1, 2, 2), 2), ((1, 4, 4), 4)]
    np.testing.assert_array_equal(stacked.groups[0][1], [0, 6, 14, 1, 7, 15, 2, 8, 16,
                                                         3, 9, 17])
    assert stacked.blocks[0] is stacked.blocks[2] is stacked.blocks[4]
    assert stacked.blocks[3] is not stacked.blocks[0]
    dense = sla.block_diag(*blocks)
    for shape in [(18,), (18, 3)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for transpose, D in [(False, dense), (True, dense.T)]:
            want = D @ x
            got = stacked.matmul(x, transpose)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_stacked_blocks_group_by_size_and_dtype(rng):
    # two sizes, and size 3 holds a real and a complex block: each (size,
    # dtype) is one stack, the real one stays real, and every product
    # matches the dense block-diagonal matrix
    def complex_block(n):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    blocks = [rng.standard_normal((3, 3)), complex_block(5), complex_block(3),
              complex_block(5)]
    stacked = _StackedBlocks(blocks)
    assert sorted((stack.shape, stack.dtype.name) for stack, _ in stacked.groups) == [
        ((1, 3, 3), "complex128"), ((1, 3, 3), "float64"), ((2, 5, 5), "complex128")]
    assert stacked.blocks[0].dtype == np.float64
    for got, want in zip(stacked.blocks, blocks):
        np.testing.assert_array_equal(got, want)
    dense = sla.block_diag(*blocks)
    for shape in [(16,), (16, 3)]:
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for transpose, A in [(False, dense), (True, dense.T)]:
            want = A @ x
            got = stacked.matmul(x, transpose)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_unknown_surrogate_rejected():
    with pytest.raises(ValueError, match="tgamma"):
        build_problem(2, 2, 1, 1, k=2.0, tgamma="nope")
