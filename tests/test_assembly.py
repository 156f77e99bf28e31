import numpy as np
import pytest

from helmskel.assembly import (Coefficients, assemble_load, assemble_subdomain,
                               primary_from_blocks, restriction_adjoint,
                               restriction_apply)
from helmskel.geometry import build_rect_mesh, local_dofs, partition_checkerboard
from helmskel.problem import build_problem, make_load, monolithic_matrix
from helmskel.traces import VolumeTuple


def _coeffs(**kw):
    base = dict(k=1.0, mu=1.0, kappa_sq=0.0, gamma=1.0)
    base.update(kw)
    return Coefficients(**base)


def test_coefficients_validation():
    with pytest.raises(ValueError, match="mu"):
        Coefficients(k=1.0, mu=-1.0)
    with pytest.raises(ValueError, match="mu"):
        Coefficients(k=1.0, mu=1.0 - 0.5j)
    with pytest.raises(ValueError, match="gamma"):
        Coefficients(k=1.0, gamma=-0.1)
    c = Coefficients(k=5.0)
    assert c.gamma == pytest.approx(0.2)
    assert c.kappa_sq == 25.0
    with pytest.raises(ValueError, match="kappa"):
        Coefficients(k=1.0, kappa_sq=lambda x, y: -1j * np.ones_like(x)).kappa_sq_at(
            np.array([0.5]), np.array([0.5]))


def test_reference_triangle_element_matrices():
    from helmskel.assembly import _element_matrices
    from helmskel.geometry import Mesh

    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.empty((0, 2), int),
                np.empty(0, dtype="<U1"), 1, 1, 1.0, 1.0)
    _, area, Ke, Me, _ = _element_matrices(mesh, np.array([0]), _coeffs())
    np.testing.assert_allclose(area, [0.5])
    classic = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
    np.testing.assert_allclose(Ke[0], classic, atol=1e-15)
    np.testing.assert_allclose(Ke[0].sum(axis=1), 0.0, atol=1e-15)
    np.testing.assert_allclose(Me[0], (np.ones((3, 3)) + np.eye(3)) / 24.0)


def test_assembled_unit_cell_stiffness():
    mesh = build_rect_mesh(1, 1)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, _coeffs())
    K = lf.K.toarray()
    np.testing.assert_allclose(K.sum(axis=1), 0.0, atol=1e-14)
    np.testing.assert_allclose(K, K.T)
    order = np.argsort(lf.dofs)
    Kg = K[np.ix_(order, order)]
    # both diagonals of the square contribute 1 to every vertex
    np.testing.assert_allclose(np.diag(Kg), np.ones(4), atol=1e-14)
    assert Kg[0, 3] == pytest.approx(0.0, abs=1e-15)  # opposite corners decouple


def test_mass_matrix_total():
    mesh = build_rect_mesh(3, 2, 2.0, 1.0)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, _coeffs())
    assert abs(lf.M.sum() - 2.0) < 1e-13


def test_laplace_block_psd():
    mesh = build_rect_mesh(2, 2)
    part = partition_checkerboard(mesh, 1, 1)
    lf = assemble_subdomain(mesh, part, 0, _coeffs())
    A = lf.A.toarray()
    np.testing.assert_allclose(A, lf.K.toarray())
    ev = np.linalg.eigvalsh(A.real)
    assert ev.min() > -1e-13


def test_real_coefficients_give_real_symmetric_form(rng):
    mesh = build_rect_mesh(8, 8)
    part = partition_checkerboard(mesh, 2, 2)
    coeffs = Coefficients(k=5.0, mu=1.0)
    for j in range(4):
        lf = assemble_subdomain(mesh, part, j, coeffs)
        A = lf.A
        for _ in range(5):
            u = rng.standard_normal(lf.n_dofs) + 1j * rng.standard_normal(lf.n_dofs)
            val = np.conj(u) @ (A @ u)
            assert abs(val.imag) < 1e-13 * abs(val)


def test_absorption_sign_with_complex_coefficients(rng):
    mesh = build_rect_mesh(6, 6)
    part = partition_checkerboard(mesh, 2, 2)
    coeffs = Coefficients(k=3.0, mu=1.0 + 0.3j,
                          kappa_sq=lambda x, y: 9.0 + 4.0j * (x > 0.5))
    for j in range(4):
        lf = assemble_subdomain(mesh, part, j, coeffs)
        for _ in range(10):
            u = rng.standard_normal(lf.n_dofs) + 1j * rng.standard_normal(lf.n_dofs)
            val = np.conj(u) @ (lf.A @ u)
            assert val.imag <= 1e-12 * abs(val)


def test_h_block_spd():
    mesh = build_rect_mesh(8, 8)
    part = partition_checkerboard(mesh, 2, 2)
    lf = assemble_subdomain(mesh, part, 0, Coefficients(k=5.0))
    ev = np.linalg.eigvalsh(lf.H.toarray())
    assert ev.min() > 0


def test_interior_first_ordering():
    mesh = build_rect_mesh(4, 4)
    part = partition_checkerboard(mesh, 2, 2)
    lf = assemble_subdomain(mesh, part, 1, Coefficients(k=2.0))
    np.testing.assert_array_equal(lf.dofs[:lf.n_interior], part.interior_dofs[1])
    np.testing.assert_array_equal(lf.dofs[lf.n_interior:], part.boundary_dofs[1])


def test_load_zero_and_partition_of_unity():
    mesh = build_rect_mesh(4, 4)
    part = partition_checkerboard(mesh, 2, 2)
    zero = assemble_load(mesh, part, 0.0)
    assert all(np.all(b == 0) for b in zero.omega)
    one = assemble_load(mesh, part, 1.0)
    total = sum(b.sum() for b in one.omega)
    assert abs(total - 1.0) < 1e-13


def test_load_indicator_localized():
    mesh = build_rect_mesh(4, 4)
    part = partition_checkerboard(mesh, 2, 2)

    def f(x, y):
        return ((x < 0.5) & (y < 0.5)).astype(float)

    load = assemble_load(mesh, part, f)
    assert np.any(load.omega[0] != 0)
    for j in (1, 2, 3):
        nonzero = np.flatnonzero(load.omega[j])
        # only rows shared with subdomain 0 may be touched, and here the
        # one-point rule keeps even those empty (no source triangle abuts them)
        touched = local_dofs(part, j)[nonzero]
        assert np.all(np.isin(touched, local_dofs(part, 0)))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_primary_factorization_entrywise(kind):
    problem = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
    direct = monolithic_matrix(problem)
    blockwise = primary_from_blocks(problem.partition, problem.forms, problem.bc)
    diff = (direct - blockwise).tocoo()
    scale = abs(direct).max()
    worst = abs(diff.data).max() / scale if diff.nnz else 0.0
    assert worst <= 1e-13


def test_dirichlet_primary_is_symmetric_lagrange_block():
    problem = build_problem(4, 4, 2, 2, k=3.0, bc_kind="dirichlet")
    A = monolithic_matrix(problem).toarray()
    np.testing.assert_allclose(A, A.T, atol=1e-14 * abs(A).max())
    nv = problem.mesh.num_vertices
    gamma = problem.partition.gamma_dofs
    lower_left = A[nv:, :nv]
    expect = np.zeros_like(lower_left)
    expect[np.arange(len(gamma)), gamma] = 1.0
    np.testing.assert_allclose(lower_left, expect)


def test_neumann_multiplier_decouples():
    problem = build_problem(4, 4, 2, 2, k=3.0, bc_kind="neumann")
    A = monolithic_matrix(problem).toarray()
    nv = problem.mesh.num_vertices
    assert abs(A[:nv, nv:]).max() == 0
    assert abs(A[nv:, :nv]).max() == 0
    # zero multiplier data forces p = 0
    from helmskel.problem import solve_monolithic
    load = make_load(problem, f=1.0)
    _, p = solve_monolithic(problem, load)
    assert abs(p).max() < 1e-12


def test_global_absorption(ref_problem, rng):
    import helmskel.skeleton as sk
    from helmskel.traces import VolumeTuple

    p = ref_problem
    ng = p.n_gamma
    for _ in range(50):
        u = VolumeTuple(
            (rng.standard_normal(ng) + 1j * rng.standard_normal(ng),
             rng.standard_normal(ng) + 1j * rng.standard_normal(ng)),
            [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for n in p.omega_sizes], "primal")
        nrm2 = sum(float(np.real(np.conj(b) @ b)) for b in u.omega)
        assert sk.absorption(p, u) <= 1e-12 * max(nrm2, 1.0)


def test_restriction_roundtrip_and_pairing(ref_problem, rng):
    p = ref_problem
    nv = p.mesh.num_vertices
    ng = p.n_gamma
    u = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
    pp = rng.standard_normal(ng) + 1j * rng.standard_normal(ng)

    tup = restriction_apply(p.partition, u, pp)
    assert np.all(tup.gamma[0] == u[p.partition.gamma_dofs])
    for j in range(p.num_subdomains):
        np.testing.assert_array_equal(tup.omega[j], u[p.forms[j].dofs])

    # constant-one restriction
    ones = restriction_apply(p.partition, np.ones(nv), np.ones(ng))
    assert all(np.all(b == 1) for b in ones.omega)
    assert np.all(ones.gamma[0] == 1)

    # pairing identity: v^T (R*AR) u computed through the blocks
    import helmskel.skeleton as sk
    v = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
    qq = rng.standard_normal(ng) + 1j * rng.standard_normal(ng)
    au = sk.apply_A(p, tup)
    g, gp = restriction_adjoint(p.partition, au)
    lhs = g @ v + gp @ qq
    A = monolithic_matrix(p)
    big_u = np.concatenate([u, pp])
    big_v = np.concatenate([v, qq])
    rhs = big_v @ (A @ big_u)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_restriction_single_domain_bijection(rng):
    p = build_problem(3, 3, 1, 1, k=2.0, bc_kind="neumann")
    nv = p.mesh.num_vertices
    u = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
    pp = rng.standard_normal(p.n_gamma)
    tup = restriction_apply(p.partition, u, pp)
    # the only volume block re-bundles the global vector
    np.testing.assert_array_equal(np.sort(p.forms[0].dofs), np.arange(nv))
    recovered = np.empty(nv, complex)
    recovered[p.forms[0].dofs] = tup.omega[0]
    np.testing.assert_array_equal(recovered, u)


def test_restriction_dimension_mismatch(ref_problem):
    with pytest.raises(ValueError):
        restriction_apply(ref_problem.partition, np.zeros(3), np.zeros(2))
