import numpy as np
import pytest
import scipy.linalg as sla

from helmskel.boundary_conditions import (SIDES, BoundaryCondition, dirichlet_positions,
                                          mixed_projector)
from helmskel.geometry import build_rect_mesh
from helmskel.problem import build_problem
from helmskel.traces import SkeletonField, trace_adjoint, trace_apply


@pytest.fixture(scope="module")
def setup():
    problems = {kind: build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
                for kind in ("dirichlet", "neumann", "robin", "mixed")}
    return problems


@pytest.fixture(scope="module")
def conditions(setup):
    """The four reference conditions and further data for the one form."""
    bcs = {kind: problem.bc for kind, problem in setup.items()}
    for name, sides in [("mixed_left", ("left",)),
                        ("mixed_three_sides", ("left", "bottom", "right"))]:
        bcs[name] = build_problem(8, 8, 2, 2, k=5.0, bc_kind="mixed",
                                  gamma_d_sides=sides).bc
    t = bcs["robin"].t_gamma
    n = t.shape[0]
    G = np.random.default_rng(7).standard_normal((n, n))
    lam = np.abs(t).max() * (G @ G.T / n + 0.1 * np.eye(n))
    bcs["robin_dense"] = BoundaryCondition("robin", t, lam=lam)
    bcs["mixed_zero"] = BoundaryCondition("mixed", t, theta=np.zeros((n, n)))
    return bcs


_CASES = ["dirichlet", "neumann", "robin", "mixed",
          "mixed_left", "mixed_three_sides", "robin_dense", "mixed_zero"]


def _rand(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_dirichlet_apply_swaps(setup, rng):
    bc = setup["dirichlet"].bc
    a, b = _rand(bc.n, rng), _rand(bc.n, rng)
    fa, fp = bc.apply(a, b)
    np.testing.assert_array_equal(fa, b)
    np.testing.assert_array_equal(fp, a)


def test_neumann_apply(setup, rng):
    bc = setup["neumann"].bc
    a, b = _rand(bc.n, rng), _rand(bc.n, rng)
    fa, fp = bc.apply(a, b)
    assert np.all(fa == 0)
    np.testing.assert_allclose(bc.t_gamma @ fp, b, atol=1e-11 * np.abs(b).max())


def test_all_kinds_dissipative(setup, rng):
    for kind, problem in setup.items():
        bc = problem.bc
        for _ in range(50):
            a, b = _rand(bc.n, rng), _rand(bc.n, rng)
            fa, fp = bc.apply(a, b)
            val = np.conj(a) @ fa + np.conj(b) @ fp
            mag = abs(np.conj(a) @ a + np.conj(b) @ b)
            assert val.imag <= 1e-12 * mag, kind


@pytest.mark.parametrize("case", _CASES)
def test_impedance_inverse_composition(conditions, case, rng):
    bc = conditions[case]
    n = bc.n
    inputs = [(_rand(n, rng), _rand(n, rng)) for _ in range(10)]
    # a zero multiplier slot, as B^T q sends it, and a block of 3 columns
    inputs += [(_rand(n, rng), np.zeros(n, complex)),
               (_rand((n, 3), rng), _rand((n, 3), rng))]
    for pin, ain in inputs:
        alpha, p = bc.impedance_inverse(pin, ain)
        assert alpha.shape == p.shape == pin.shape
        ra, rp = bc.impedance_apply(alpha, p)
        scale = max(np.abs(pin).max(), np.abs(ain).max())
        np.testing.assert_allclose(ra, pin, atol=1e-12 * scale)
        np.testing.assert_allclose(rp, ain, atol=1e-12 * scale)


def test_mixed_projector_axioms(setup, rng):
    bc = setup["mixed"].bc
    th = bc.theta
    tinv = bc.t_inverse()
    n = th.shape[0]
    np.testing.assert_allclose(th @ th, th, atol=1e-13)
    assert np.isrealobj(th)
    np.testing.assert_allclose(tinv @ th, th.T @ tinv, atol=1e-12)
    X = tinv @ (np.eye(n) - th)
    np.testing.assert_allclose(X, (np.eye(n) - th.T) @ X, atol=1e-12)
    # fixes its range
    for _ in range(10):
        q = _rand(n, rng)
        np.testing.assert_allclose(th @ (th @ q), th @ q,
                                   atol=1e-12 * np.abs(q).max())


def test_mixed_projector_supported_vectors_fixed(setup, rng):
    problem = setup["mixed"]
    bc = problem.bc
    dpos = dirichlet_positions(problem.mesh, problem.partition.gamma_dofs,
                               ("left", "bottom"))
    q = np.zeros(bc.n, complex)
    q[dpos] = _rand(len(dpos), rng)
    np.testing.assert_allclose(bc.theta @ q, q, atol=1e-12 * np.abs(q).max())


def test_mixed_projector_rejects_trivial_sets(setup):
    t = setup["mixed"].bc.t_gamma
    with pytest.raises(ValueError):
        mixed_projector(np.array([], dtype=int), t)
    with pytest.raises(ValueError):
        mixed_projector(np.arange(t.shape[0]), t)


def test_degenerate_projector_gives_dirichlet_inverse(setup, rng):
    # With the projector forced to the identity the mixed formulas
    # collapse onto the dirichlet ones.
    t = setup["mixed"].bc.t_gamma
    n = t.shape[0]
    full = BoundaryCondition("mixed", t, theta=np.eye(n))
    dir_bc = setup["dirichlet"].bc
    for _ in range(5):
        pin, ain = _rand(n, rng), _rand(n, rng)
        a1, p1 = full.impedance_inverse(pin, ain)
        a2, p2 = dir_bc.impedance_inverse(pin, ain)
        scale = max(np.abs(p2).max(), np.abs(a2).max())
        np.testing.assert_allclose(a1, a2, atol=1e-11 * scale)
        np.testing.assert_allclose(p1, p2, atol=1e-11 * scale)


def test_zero_projector_gives_neumann_inverse(conditions, rng):
    # With the projector forced to zero the mixed formulas collapse onto
    # the neumann ones.
    zero, neu = conditions["mixed_zero"], conditions["neumann"]
    for _ in range(5):
        pin, ain = _rand(zero.n, rng), _rand(zero.n, rng)
        a1, p1 = zero.impedance_inverse(pin, ain)
        a2, p2 = neu.impedance_inverse(pin, ain)
        scale = max(np.abs(p2).max(), np.abs(a2).max())
        np.testing.assert_allclose(a1, a2, atol=1e-11 * scale)
        np.testing.assert_allclose(p1, p2, atol=1e-11 * scale)


def test_scattering_closed_forms(setup, rng):
    q = _rand(setup["dirichlet"].bc.n, rng)
    np.testing.assert_array_equal(setup["dirichlet"].bc.scattering(q), q)
    np.testing.assert_array_equal(setup["neumann"].bc.scattering(q), -q)


@pytest.mark.parametrize("case", _CASES)
def test_whitened_scattering_is_the_closed_form_whitened(conditions, case):
    # L^-1 S L from the closed form applied to the columns of L
    bc = conditions[case]
    L = np.linalg.cholesky(bc.t_gamma)
    want = np.linalg.solve(L, bc.scattering(L))
    got = bc.whitened_scattering()
    assert np.isrealobj(got) and not np.any(want.imag)
    assert np.abs(got - want.real).max() <= 1e-13 * np.abs(want).max()


def test_robin_whitened_scattering_skips_zero_projector(conditions, monkeypatch):
    # the robin block needs the one solve for X = U^-T L, none with Theta = 0;
    # lam = 0 makes X = I with no solve, so neumann takes none and dirichlet
    # and mixed only the one with Theta
    calls = []
    solve = sla.solve_triangular
    monkeypatch.setattr(sla, "solve_triangular",
                        lambda *a, **kw: calls.append(1) or solve(*a, **kw))
    for kind, want in [("robin", 1), ("neumann", 0), ("dirichlet", 1), ("mixed", 1)]:
        calls.clear()
        conditions[kind].whitened_scattering()
        assert len(calls) == want, kind


def test_robin_matched_impedance_annihilates(setup, rng):
    t = setup["robin"].bc.t_gamma
    bc = BoundaryCondition("robin", t, lam=t.copy())
    q = _rand(t.shape[0], rng)
    assert np.abs(bc.scattering(q)).max() <= 1e-11 * np.abs(q).max()


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_scattering_matches_resolvent_formula(setup, kind, rng, dual_apply):
    # the outer block of S is the closed form of the condition; it must
    # reproduce the resolvent formula Id + 2i T B (..)^-1 B*, here through
    # the local solves, on vectors and on column blocks
    problem = setup[kind]
    bc = problem.bc
    for shape in [()] * 10 + [(5,)]:
        q = SkeletonField([_rand((n,) + shape, rng) for n in problem.block_sizes], "dual")
        closed = dual_apply(problem, problem.scattering, q).blocks[0]
        u = problem.solver.solve_tuple(trace_adjoint(q, problem.partition))
        tv = problem.impedance.apply(trace_apply(u, problem.partition))
        resolvent = (q + 2j * tv).blocks[0]
        assert resolvent.shape == closed.shape == (bc.n,) + shape
        np.testing.assert_allclose(resolvent, closed, atol=1e-11 * np.abs(closed).max())


def test_mixed_scattering_is_isometry(setup, rng):
    problem = setup["mixed"]
    bc = problem.bc
    tinv = bc.t_inverse()
    for _ in range(10):
        q = _rand(bc.n, rng)
        sq = bc.scattering(q)
        lhs = np.real(np.conj(sq) @ (tinv @ sq))
        rhs = np.real(np.conj(q) @ (tinv @ q))
        assert abs(lhs - rhs) <= 1e-11 * rhs


def test_robin_scattering_strict_contraction(setup, rng):
    bc = setup["robin"].bc
    tinv = bc.t_inverse()
    for _ in range(10):
        q = _rand(bc.n, rng)
        sq = bc.scattering(q)
        lhs = np.real(np.conj(sq) @ (tinv @ sq))
        rhs = np.real(np.conj(q) @ (tinv @ q))
        assert lhs < rhs


def test_robin_requires_positive_impedance(setup):
    t, lam = setup["robin"].bc.t_gamma, setup["robin"].bc.lam
    with pytest.raises(ValueError, match="positive"):
        BoundaryCondition("robin", t, lam=-np.eye(t.shape[0]))
    # Cholesky of lam + T reads one triangle: an unsymmetric or a complex
    # lam would be misread, not refused
    unsymmetric = lam.copy()
    unsymmetric[0, 1] += 0.05 * lam[0, 0]
    for bad in (unsymmetric, lam * (1 + 0.1j)):
        with pytest.raises(ValueError, match="robin impedance lam must be a real symmetric"):
            BoundaryCondition("robin", t, lam=bad)


def test_gamma_d_tie_break_toward_dirichlet():
    problem = build_problem(4, 4, 2, 2, k=3.0, bc_kind="mixed",
                            gamma_d_sides=("left",))
    dpos = dirichlet_positions(problem.mesh, problem.partition.gamma_dofs, ("left",))
    coords = problem.mesh.vertices[problem.partition.gamma_dofs[dpos]]
    assert np.all(coords[:, 0] == 0.0)
    # the corners of the left side lie on a second side too and land in D
    assert {(0.0, 0.0), (0.0, 1.0)} <= {tuple(c) for c in coords}


def _edge_midpoint_oracle(mesh, gamma_dofs, sides):
    """Positions of the vertices of the boundary edges whose midpoint lies
    on a listed side."""
    mid = mesh.vertices[mesh.boundary_edges].mean(axis=1)
    tol_x, tol_y = 1e-12 * max(mesh.width, 1.0), 1e-12 * max(mesh.height, 1.0)
    on = {"left": abs(mid[:, 0]) < tol_x, "right": abs(mid[:, 0] - mesh.width) < tol_x,
          "bottom": abs(mid[:, 1]) < tol_y, "top": abs(mid[:, 1] - mesh.height) < tol_y}
    hit = np.zeros(len(mid), bool)
    for s in sides:
        hit |= on[s]
    return np.searchsorted(gamma_dofs, np.unique(mesh.boundary_edges[hit]))


@pytest.mark.parametrize("nx,ny,width,height", [
    (1, 4, 1.0, 1.0), (1, 1, 1e-3, 1e-3), (5, 3, 2.0, 1.0), (16, 6, 1e4, 3e3)])
def test_dirichlet_positions_match_edge_midpoint_oracle(nx, ny, width, height):
    mesh = build_rect_mesh(nx, ny, width, height)
    gamma_dofs = np.unique(mesh.boundary_edges)
    for mask in range(16):
        sides = tuple(s for i, s in enumerate(SIDES) if mask >> i & 1)
        got = dirichlet_positions(mesh, gamma_dofs, sides)
        np.testing.assert_array_equal(got, _edge_midpoint_oracle(mesh, gamma_dofs, sides))


@pytest.mark.parametrize("sides, message", [
    (("left", "lft"), "unknown side 'lft'"),
    ((), "nonempty proper subset"),
    (SIDES, "nonempty proper subset")])
def test_bad_sides_fail_before_assembly(sides, message, monkeypatch):
    def assemble_forms(*args, **kwargs):
        raise AssertionError("assembly ran")

    monkeypatch.setattr("helmskel.assembly.assemble_forms", assemble_forms)
    with pytest.raises(ValueError, match=message):
        build_problem(4, 4, 2, 2, bc_kind="mixed", gamma_d_sides=sides)


def test_unknown_kind_rejected(setup):
    with pytest.raises(ValueError, match="unknown"):
        BoundaryCondition("periodic", setup["dirichlet"].bc.t_gamma)


@pytest.mark.parametrize("kind, given", [
    ("dirichlet", "lam"), ("neumann", "lam"), ("mixed", "lam+theta"),
    ("dirichlet", "theta"), ("neumann", "theta"), ("robin", "lam+theta"),
    ("robin", "none"), ("mixed", "none"),
])
def test_data_outside_the_one_form_rejected(setup, kind, given):
    # lam with robin only and theta with mixed only, each required there:
    # the one impedance inverse holds for lam theta = 0 only
    data = {"lam": setup["robin"].bc.lam, "theta": setup["mixed"].bc.theta}
    kwargs = {name: data[name] for name in given.split("+") if name in data}
    with pytest.raises(ValueError, match="only a"):
        BoundaryCondition(kind, setup["robin"].bc.t_gamma, **kwargs)
