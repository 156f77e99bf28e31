import numpy as np
import pytest

from helmskel.assembly import (Coefficients, _collar_ring, assemble_load, assemble_subdomain,
                               collar_impedance, primary_from_blocks, restriction_adjoint,
                               restriction_apply)
from helmskel.geometry import build_rect_mesh, partition_checkerboard, triangle_areas
from helmskel.impedance import DtnBlock
from helmskel.problem import build_problem, make_load, monolithic_matrix
from helmskel.skeleton import recover_volume, skeleton_rhs
from helmskel.solvers_spectral import gmres_tinv
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
    # a gain medium, however slight, is no (A2) medium
    with pytest.raises(ValueError, match="kappa"):
        build_problem(8, 8, 2, 2, k=5.0, bc_kind="dirichlet", kappa_sq=25 - 1e-13j)


@pytest.mark.parametrize("coeffs,name", [
    (dict(k=np.nan), "k"), (dict(k=np.inf), "k"), (dict(mu=complex(1.0, np.nan)), "mu"),
    (dict(gamma=np.inf), "gamma"), (dict(kappa_sq=np.nan), "kappa_sq"),
    (dict(kappa_sq=lambda x, y: np.where(x < 0.5, np.nan, 25.0)), "kappa_sq")],
    ids=["k_nan", "k_inf", "mu_nan", "gamma_inf", "kappa_sq_nan", "kappa_sq_nan_on_half"])
def test_non_finite_coefficients_rejected(coeffs, name):
    # named as the coefficient, not as a singular local problem downstream
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        build_problem(8, 8, 2, 2, **coeffs)


def test_reference_triangle_element_matrices():
    from helmskel.assembly import _element_matrices
    from helmskel.geometry import Mesh

    mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0, 1, 2]]), np.empty((0, 2), int), 1, 1, 1.0, 1.0)
    _, area, Ke, Me = _element_matrices(mesh, np.array([0]))
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


def _layer_widths(coords, lo, hi):
    """Widths of the cell layers of a collar grid line below ``lo`` and
    above ``hi``, each list innermost first."""
    return np.diff(coords[coords <= lo])[::-1], np.diff(coords[coords >= hi])


@pytest.mark.parametrize("nx,ny,width,height,gamma,layers", [
    (8, 8, 1.0, 1.0, 0.2, 2),
    (8, 8, 1.0, 1.0, 0.125, 1),         # gamma = h
    (8, 8, 1.0, 1.0, 0.05, 1),          # gamma < h
    (10, 6, 1.5, 1.0, 0.5, 3),          # dx = 0.15, dy = 1/6
    (4, 12, 1.0, 1.0, 0.2, 2),          # dx = 0.25, dy = 1/12
])
def test_collar_ring_doubles_its_layers_until_gamma(nx, ny, width, height, gamma, layers):
    mesh = build_rect_mesh(nx, ny, width, height)
    gamma_dofs = np.unique(mesh.boundary_edges)
    big, ring_ids, dofs = _collar_ring(mesh, gamma_dofs, gamma)
    assert (big.nx, big.ny) == (nx + 2 * layers, ny + 2 * layers)

    # layers h, 2h, 4h, ... on every side, the tangential spacing kept
    sums = []
    for axis, n, h, length in [(0, nx, width / nx, width), (1, ny, height / ny, height)]:
        coords = np.unique(big.vertices[:, axis])
        assert len(coords) == n + 1 + 2 * layers
        np.testing.assert_allclose(np.diff(coords[layers:-layers]), h, rtol=1e-12)
        for side in _layer_widths(coords, 0.0, length):
            np.testing.assert_allclose(side, h * 2.0 ** np.arange(layers), rtol=1e-12)
        sums.append((h, h * (2 ** layers - 1)))
    # the least count for which both directions reach gamma
    assert all(total >= gamma for _, total in sums)
    assert layers == 1 or any(h * (2 ** (layers - 1) - 1) < gamma for h, _ in sums)

    # the ring tiles the collar, corners included, and none of it is inside
    wx, wy = (total for _, total in sums)
    area = triangle_areas(big)[ring_ids]
    assert area.min() > 0
    assert abs(area.sum() - ((width + 2 * wx) * (height + 2 * wy) - width * height)) <= 1e-12
    cents = big.vertices[big.triangles[ring_ids]].mean(axis=1)
    assert not np.any((cents[:, 0] > 0) & (cents[:, 0] < width)
                      & (cents[:, 1] > 0) & (cents[:, 1] < height))

    # its dofs are every grid vertex but the mesh's interior, the boundary
    # last and on the mesh's boundary vertices
    assert len(dofs) == len(np.unique(dofs)) == ((nx + 1 + 2 * layers) * (ny + 1 + 2 * layers)
                                                 - (nx - 1) * (ny - 1))
    np.testing.assert_array_equal(big.vertices[dofs[-len(gamma_dofs):]],
                                  mesh.vertices[gamma_dofs])

    F = collar_impedance(mesh, gamma_dofs, gamma)
    assert F.shape == (len(dofs),) * 2
    T = DtnBlock(F, len(dofs) - len(gamma_dofs)).T
    assert np.array_equal(T, T.T) and np.linalg.eigvalsh(T).min() > 0


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
    o = part.volume_offsets
    for j in (1, 2, 3):
        nonzero = np.flatnonzero(load.omega[j])
        # only rows shared with subdomain 0 may be touched, and here the
        # one-point rule keeps even those empty (no source triangle abuts them)
        touched = part.volume_rows[o[j + 2]:o[j + 3]][nonzero]
        assert np.all(np.isin(touched, part.volume_rows[o[2]:o[3]]))


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_primary_factorization_entrywise(kind):
    problem = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
    direct = monolithic_matrix(problem)
    blockwise = primary_from_blocks(problem.partition, problem.forms, problem.bc)
    diff = (direct - blockwise).tocoo()
    scale = abs(direct).max()
    worst = abs(diff.data).max() / scale if diff.nnz else 0.0
    assert worst <= 1e-13


def test_global_forms_assembled_on_first_read():
    p = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
    assert "global_forms" not in vars(p)
    # the skeleton solve path never reads them
    load = make_load(p, f=1.0)
    q, report = gmres_tinv(p, skeleton_rhs(p, load))
    recover_volume(p, q, load)
    assert report.converged and "global_forms" not in vars(p)
    glob = p.global_forms
    assert p.global_forms is glob
    # the one block of a 1x1 partition sums the same element entries in the
    # same order, with its dofs interior first
    one = assemble_subdomain(p.mesh, partition_checkerboard(p.mesh, 1, 1), 0, p.coeffs)
    for name in "KMAH":
        np.testing.assert_array_equal(
            getattr(glob, name)[one.dofs][:, one.dofs].toarray(),
            getattr(one, name).toarray())


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

    tup = restriction_apply(p.partition, np.concatenate([u, pp]))
    assert np.all(tup.gamma[0] == u[p.partition.gamma_dofs])
    assert np.all(tup.gamma[1] == pp)
    for j in range(p.num_subdomains):
        np.testing.assert_array_equal(tup.omega[j], u[p.forms[j].dofs])

    # constant-one restriction
    ones = restriction_apply(p.partition, np.ones(nv + ng))
    assert all(np.all(b == 1) for b in ones.omega)
    assert np.all(ones.gamma[0] == 1)

    # pairing identity: v^T (R*AR) u computed through the blocks
    import helmskel.skeleton as sk
    v = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
    qq = rng.standard_normal(ng) + 1j * rng.standard_normal(ng)
    au = sk.apply_A(p, tup)
    big_u = np.concatenate([u, pp])
    big_v = np.concatenate([v, qq])
    lhs = restriction_adjoint(p.partition, au) @ big_v
    rhs = big_v @ (monolithic_matrix(p) @ big_u)
    assert abs(lhs - rhs) <= 1e-13 * abs(rhs)


def test_restriction_single_domain_bijection(rng):
    p = build_problem(3, 3, 1, 1, k=2.0, bc_kind="neumann")
    nv = p.mesh.num_vertices
    u = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
    pp = rng.standard_normal(p.n_gamma)
    tup = restriction_apply(p.partition, np.concatenate([u, pp]))
    # the only volume block re-bundles the global vector
    np.testing.assert_array_equal(np.sort(p.forms[0].dofs), np.arange(nv))
    recovered = np.empty(nv, complex)
    recovered[p.forms[0].dofs] = tup.omega[0]
    np.testing.assert_array_equal(recovered, u)


def test_restriction_dimension_mismatch(ref_problem):
    with pytest.raises(ValueError):
        restriction_apply(ref_problem.partition, np.zeros(5))
