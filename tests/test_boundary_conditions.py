import numpy as np
import pytest

from helmskel.boundary_conditions import (BoundaryCondition,
                                          gamma_d_positions_from_tags,
                                          mixed_projector)
from helmskel.problem import build_problem
from helmskel.traces import SkeletonField, trace_adjoint, trace_apply


@pytest.fixture(scope="module")
def setup():
    problems = {kind: build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
                for kind in ("dirichlet", "neumann", "robin", "mixed")}
    return problems


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


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_impedance_inverse_composition(setup, kind, rng):
    bc = setup[kind].bc
    for _ in range(10):
        pin, ain = _rand(bc.n, rng), _rand(bc.n, rng)
        alpha, p = bc.impedance_inverse(pin, ain)
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
    dpos = gamma_d_positions_from_tags(problem.mesh, problem.partition.gamma_dofs)
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


def test_scattering_closed_forms(setup, rng):
    q = _rand(setup["dirichlet"].bc.n, rng)
    np.testing.assert_array_equal(setup["dirichlet"].bc.scattering(q), q)
    np.testing.assert_array_equal(setup["neumann"].bc.scattering(q), -q)


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_whitened_scattering_is_the_closed_form_whitened(setup, kind):
    # L^-1 S L from the closed form applied to the columns of L
    bc = setup[kind].bc
    L = np.linalg.cholesky(bc.t_gamma)
    want = np.linalg.solve(L, bc.scattering(L))
    got = bc.whitened_scattering()
    assert np.isrealobj(got) and not np.any(want.imag)
    assert np.abs(got - want.real).max() <= 1e-13 * np.abs(want).max()


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
    t = setup["robin"].bc.t_gamma
    with pytest.raises(ValueError, match="positive"):
        BoundaryCondition("robin", t, lam=-np.eye(t.shape[0]))


def test_gamma_d_tie_break_toward_dirichlet():
    problem = build_problem(4, 4, 2, 2, k=3.0, bc_kind="mixed",
                            gamma_d_sides=("left",))
    dpos = gamma_d_positions_from_tags(problem.mesh, problem.partition.gamma_dofs)
    coords = problem.mesh.vertices[problem.partition.gamma_dofs[dpos]]
    assert np.all(coords[:, 0] == 0.0)
    # corner vertices of the left edge belong to both tag sets and land in D
    assert {(0.0, 0.0), (0.0, 1.0)} <= {tuple(c) for c in coords}


def test_unknown_kind_rejected(setup):
    with pytest.raises(ValueError, match="unknown"):
        BoundaryCondition("periodic", setup["dirichlet"].bc.t_gamma)
