import numpy as np
import pytest

from helmskel.traces import (SkeletonField, VolumeTuple, duality_pair,
                             harmonic_lift, single_trace_adjoint,
                             single_trace_embed, skew_pair, trace_adjoint,
                             trace_apply)


def _rand_tuple(problem, rng, kind="primal"):
    ng = problem.n_gamma
    return VolumeTuple(
        (rng.standard_normal(ng) + 1j * rng.standard_normal(ng),
         rng.standard_normal(ng) + 1j * rng.standard_normal(ng)),
        [rng.standard_normal(n) + 1j * rng.standard_normal(n)
         for n in problem.omega_sizes], kind)


def test_constant_tuple_traces_to_ones(ref_problem):
    p = ref_problem
    vol = VolumeTuple((np.ones(p.n_gamma), np.zeros(p.n_gamma)),
                      [np.ones(n) for n in p.omega_sizes], "primal")
    tr = trace_apply(vol, p.n_interior)
    assert all(np.all(b == 1) for b in tr.blocks)


def test_trace_gamma_block_forwards_alpha(ref_problem):
    p = ref_problem
    e1 = np.zeros(p.n_gamma)
    e1[0] = 1.0
    vol = VolumeTuple((e1, np.zeros(p.n_gamma)),
                      [np.zeros(n) for n in p.omega_sizes], "primal")
    tr = trace_apply(vol, p.n_interior)
    assert np.all(tr.blocks[0] == e1)
    assert all(np.all(b == 0) for b in tr.blocks[1:])


def test_trace_of_lift_is_identity(ref_problem, rng, rand_field):
    p = ref_problem
    for _ in range(20):
        v = rand_field(p, rng, "primal")
        lifted = harmonic_lift(v, p.dtn)
        back = trace_apply(lifted, p.n_interior)
        for a, b in zip(back.blocks, v.blocks):
            np.testing.assert_allclose(a, b, atol=1e-13)


def test_lift_zero(ref_problem):
    p = ref_problem
    z = SkeletonField.zeros(p.block_sizes, "primal")
    lifted = harmonic_lift(z, p.dtn)
    assert all(np.all(b == 0) for b in lifted.omega)


def test_lift_energy_equals_impedance_norm(ref_problem, rng, rand_field):
    p = ref_problem
    for _ in range(5):
        v = rand_field(p, rng, "primal")
        lifted = harmonic_lift(v, p.dtn)
        for j, dtn in enumerate(p.dtn):
            lhs = dtn.h_energy(lifted.omega[j])
            tv = p.impedance.blocks[j + 1] @ v.blocks[j + 1]
            rhs = float(np.real(np.conj(v.blocks[j + 1]) @ tv))
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_lift_minimizes_energy(ref_problem, rng):
    p = ref_problem
    for _ in range(20):
        for j, dtn in enumerate(p.dtn):
            n = p.omega_sizes[j]
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            tr = u[p.n_interior[j]:]
            assert dtn.h_energy(dtn.lift(tr)) <= dtn.h_energy(u) * (1 + 1e-12)


def test_trace_adjoint_is_adjoint(ref_problem, rng, rand_field):
    p = ref_problem
    for _ in range(20):
        q = rand_field(p, rng, "dual")
        u = _rand_tuple(p, rng)
        qt = trace_adjoint(q, p.n_interior, p.omega_sizes)
        lhs = (qt.gamma[0] @ u.gamma[0] + qt.gamma[1] @ u.gamma[1]
               + sum(a @ b for a, b in zip(qt.omega, u.omega)))
        tr = trace_apply(u, p.n_interior)
        rhs = duality_pair(q, tr)
        assert abs(lhs - rhs) <= 1e-14 * max(abs(rhs), 1.0)


def test_trace_adjoint_never_writes_interior(ref_problem, rng, rand_field):
    p = ref_problem
    q = rand_field(p, rng, "dual")
    qt = trace_adjoint(q, p.n_interior, p.omega_sizes)
    for ni, block in zip(p.n_interior, qt.omega):
        assert np.all(block[:ni] == 0)
    assert np.all(qt.gamma[1] == 0)


def test_trace_adjoint_injective(small_problem):
    p = small_problem
    # assemble the adjoint densely and check full column rank
    n = p.dual_dim
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        q = SkeletonField.from_concat(e, p.block_sizes, "dual")
        qt = trace_adjoint(q, p.n_interior, p.omega_sizes)
        cols.append(np.concatenate([qt.gamma[0], qt.gamma[1]] + list(qt.omega)))
    B_adj = np.column_stack(cols)
    assert np.linalg.matrix_rank(B_adj) == n


def test_trace_surjective_constructive(ref_problem, rng, rand_field):
    p = ref_problem
    g = rand_field(p, rng, "primal")
    omega = []
    for ni, n, gb in zip(p.n_interior, p.omega_sizes, g.blocks[1:]):
        u = np.zeros(n, complex)
        u[ni:] = gb
        omega.append(u)
    witness = VolumeTuple((g.blocks[0], np.zeros(p.n_gamma)), omega, "primal")
    tr = trace_apply(witness, p.n_interior)
    for a, b in zip(tr.blocks, g.blocks):
        np.testing.assert_array_equal(a, b)


def test_skeleton_field_storage(ref_problem, rng, rand_field):
    # one array per field: blocks are views of it, copies are deep and
    # from_concat wraps its input
    p = ref_problem
    q = rand_field(p, rng, "dual")
    q.blocks[1][0] = 7.0
    assert q.concat()[p.block_sizes[0]] == 7.0
    c = q.copy()
    c.blocks[1][0] = -1.0
    assert q.blocks[1][0] == 7.0 and not np.shares_memory(c.concat(), q.concat())
    vec = rng.standard_normal((p.dual_dim, 3)) + 0j
    f = SkeletonField.from_concat(vec, p.block_sizes, "primal")
    assert np.shares_memory(f.concat(), vec)
    assert [b.shape for b in f.blocks] == [(n, 3) for n in p.block_sizes]
    with pytest.raises(ValueError):
        SkeletonField.from_concat(vec[1:], p.block_sizes, "primal")


def test_volume_tuple_storage(ref_problem, rng):
    # the volume layout is one array over alpha, p, u_1 ... u_J: gamma and
    # omega are views of it, copies are deep, and layouts must match
    p = ref_problem
    u = _rand_tuple(p, rng)
    ng = p.n_gamma
    assert u.offsets == (0, ng, 2 * ng) + tuple(2 * ng + np.cumsum(p.omega_sizes))
    u.gamma[1][0] = 5.0
    u.omega[2][3] = -4.0
    assert u.data[ng] == 5.0 and u.data[u.offsets[4] + 3] == -4.0
    c = u.copy()
    c.omega[2][3] = 1.0
    assert u.omega[2][3] == -4.0 and not np.shares_memory(c.data, u.data)
    short = VolumeTuple(u.gamma, u.omega[:-1], "primal")
    with pytest.raises(ValueError):
        u + short
    with pytest.raises(ValueError):
        u + _rand_tuple(p, rng, "dual")


def test_single_trace_embed_ones(ref_problem):
    p = ref_problem
    x = np.ones(p.index.n_sigma)
    v = single_trace_embed(x, p.index)
    assert all(np.all(b == 1) for b in v.blocks)


def test_single_trace_opposite_jumps_cancel():
    from helmskel.problem import build_problem

    p = build_problem(4, 2, 2, 1, k=2.0, bc_kind="neumann")
    interface = np.intersect1d(p.partition.boundary_dofs[0],
                               p.partition.boundary_dofs[1])
    dof = interface[len(interface) // 2]
    q = SkeletonField.zeros(p.block_sizes, "dual")
    i0 = int(np.flatnonzero(p.partition.boundary_dofs[0] == dof)[0])
    i1 = int(np.flatnonzero(p.partition.boundary_dofs[1] == dof)[0])
    q.blocks[1][i0] = 2.5
    q.blocks[2][i1] = -2.5
    out = single_trace_adjoint(q, p.index)
    assert abs(out).max() == 0.0


def test_embedding_full_rank(small_problem):
    p = small_problem
    n_sigma = p.index.n_sigma
    cols = []
    for i in range(n_sigma):
        e = np.zeros(n_sigma)
        e[i] = 1.0
        cols.append(single_trace_embed(e, p.index).concat())
    E = np.column_stack(cols)
    assert np.linalg.matrix_rank(E) == n_sigma


def test_duality_pair_picks_coefficient(ref_problem):
    p = ref_problem
    v = SkeletonField([np.arange(n, dtype=complex) for n in p.block_sizes], "primal")
    q = SkeletonField.zeros(p.block_sizes, "dual")
    q.blocks[2][3] = 1.0
    assert duality_pair(q, v) == 3.0


def test_pairing_kind_checks(ref_problem, rng, rand_field):
    p = ref_problem
    a = rand_field(p, rng, "primal")
    b = rand_field(p, rng, "dual")
    with pytest.raises(ValueError):
        duality_pair(a, a)
    with pytest.raises(ValueError):
        a + b


def test_skew_pair_antisymmetry(ref_problem, rng, rand_field):
    p = ref_problem
    for _ in range(10):
        m = (rand_field(p, rng, "primal"), rand_field(p, rng, "dual"))
        n = (rand_field(p, rng, "primal"), rand_field(p, rng, "dual"))
        assert skew_pair(m, m) == 0.0
        assert abs(skew_pair(m, n) + skew_pair(n, m)) <= 1e-14 * abs(skew_pair(m, n))


def test_graph_of_impedance_is_self_polar(ref_problem, rng, rand_field):
    p = ref_problem
    for _ in range(10):
        v = rand_field(p, rng, "primal")
        w = rand_field(p, rng, "primal")
        gv = (v, 1j * p.impedance.apply(v))
        gw = (w, 1j * p.impedance.apply(w))
        scale = p.impedance.norm(v) * p.impedance.norm(w)
        assert abs(skew_pair(gv, gw)) <= 1e-13 * scale


def test_jump_tuples_annihilate_restrictions(ref_problem, rng, rand_field):
    from helmskel.assembly import restriction_apply

    p = ref_problem
    nv = p.mesh.num_vertices
    counts = np.zeros(p.index.n_sigma)
    for m in p.index.block_map:
        np.add.at(counts, m, 1.0)
    for _ in range(20):
        r = rand_field(p, rng, "dual")
        y = single_trace_adjoint(r, p.index)
        proj = SkeletonField([(y / counts)[m] for m in p.index.block_map], "dual")
        q = r - proj            # now in the kernel of the embedding adjoint
        u = rng.standard_normal(nv) + 1j * rng.standard_normal(nv)
        pp = rng.standard_normal(p.n_gamma) + 1j * rng.standard_normal(p.n_gamma)
        tup = restriction_apply(p.partition, u, pp)
        val = duality_pair(q, trace_apply(tup, p.n_interior))
        scale = max(np.abs(q.concat()).max() * np.abs(u).max(), 1.0)
        assert abs(val) <= 1e-12 * scale
