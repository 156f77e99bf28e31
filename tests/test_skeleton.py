import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import helmskel.skeleton as sk
import helmskel.verification as vf
from helmskel.problem import build_problem, h1_norm, make_load, monolithic_matrix, solve_monolithic
from helmskel.traces import SkeletonField, single_trace_adjoint, single_trace_embed, skew_pair


def _rand_dual(p, rng):
    return SkeletonField([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for n in p.block_sizes], "dual")


# ---------------------------------------------------------------------------
# exchange operator
# ---------------------------------------------------------------------------

def test_exchange_fixes_impedance_image(ref_problem, rng):
    p = ref_problem
    for _ in range(10):
        x = rng.standard_normal(p.index.n_sigma) + 1j * rng.standard_normal(p.index.n_sigma)
        q = p.impedance.apply(single_trace_embed(x, p.index))
        out = p.exchange.apply(q)
        assert p.impedance.norm(out - q) <= 1e-12 * p.impedance.norm(q)


def test_exchange_negates_jumps(ref_problem, rng):
    p = ref_problem
    counts = np.zeros(p.index.n_sigma)
    for m in p.index.block_map:
        np.add.at(counts, m, 1.0)
    for _ in range(10):
        r = _rand_dual(p, rng)
        y = single_trace_adjoint(r, p.index)
        proj = SkeletonField([(y / counts)[m] for m in p.index.block_map], "dual")
        q = r - proj
        out = p.exchange.apply(q)
        assert p.impedance.norm(out + q) <= 1e-12 * p.impedance.norm(q)


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("nx,ny,px,py", [(4, 4, 2, 2), (16, 16, 4, 4), (12, 12, 3, 4)])
def test_exchange_against_dense_projector(nx, ny, px, py, tgamma, rng):
    # the larger partitions have many interior cross points, where G
    # couples four blocks per dof
    p = build_problem(nx, ny, px, py, k=3.0, bc_kind="robin", tgamma=tgamma)
    # the exchange holds G sparse and no dense n_sigma x n_sigma array
    n_sigma = p.index.n_sigma
    assert sp.issparse(p.exchange.G)
    for v in vars(p.exchange).values():
        assert not (isinstance(v, np.ndarray) and v.shape == (n_sigma, n_sigma))
    # dense oracle: Q = T E (E^T T E)^-1 E^T assembled explicitly
    E = np.zeros((p.dual_dim, n_sigma))
    offs = p.impedance.offsets
    for b, m in enumerate(p.index.block_map):
        for row, col in enumerate(m):
            E[offs[b] + row, col] = 1.0
    T = np.zeros((p.dual_dim, p.dual_dim))
    for b, Tb in enumerate(p.impedance.blocks):
        T[offs[b]:offs[b + 1], offs[b]:offs[b + 1]] = Tb
    Q = T @ E @ np.linalg.solve(E.T @ T @ E, E.T)
    Pi = 2 * Q - np.eye(p.dual_dim)
    for _ in range(20):
        q = _rand_dual(p, rng)
        got = p.exchange.apply(q).concat()
        want = Pi @ q.concat()
        np.testing.assert_allclose(got, want, atol=1e-11 * np.abs(want).max())


@pytest.mark.parametrize("nx,ny,px,py", [(4, 4, 2, 2), (4, 2, 2, 1),
                                         (6, 6, 3, 3), (4, 4, 1, 1)])
def test_exchange_involution_isometry_matrix(nx, ny, px, py, rng):
    p = build_problem(nx, ny, px, py, k=3.0, bc_kind="robin")
    assert vf.exchange_axioms(p, rng)["max_residual"] <= 1e-11


def test_split_orthogonality(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    for _ in range(20):
        q = _rand_dual(p, rng)
        qq = p.exchange.project(q)
        rest = q - qq
        # T^-1 inner product of the two parts vanishes
        acc = 0.0 + 0.0j
        for L, a, b in zip(imp.chol, qq.blocks, rest.blocks):
            import scipy.linalg as sla
            wa = sla.solve_triangular(L, a, lower=True)
            wb = sla.solve_triangular(L, b, lower=True)
            acc += np.conj(wb) @ wa
        assert abs(acc) <= 1e-11 * imp.norm(q) ** 2


# ---------------------------------------------------------------------------
# scattering operator
# ---------------------------------------------------------------------------

def test_scattering_energy_identity(rng):
    # absorption in the volume and on the robin boundary at once
    k = 5.0
    p = build_problem(8, 8, 2, 2, k=k, bc_kind="robin",
                      kappa_sq=lambda x, y: k ** 2 * (1 + 0.5j * (x >= 0.5)))
    assert not vf.is_lossless(p)
    assert vf.energy_identity(p, rng)["max_residual"] <= 1e-10


def test_scattering_isometry_without_absorption(rng):
    # dirichlet and neumann boundary blocks conserve energy for real kappa
    for kind in ("dirichlet", "neumann", "mixed"):
        p = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
        for _ in range(10):
            q = _rand_dual(p, rng)
            sq = p.scattering.apply(q)
            assert abs(p.impedance.norm(sq) / p.impedance.norm(q) - 1) <= 1e-11


def test_scattering_strict_contraction_with_absorption(rng):
    k = 5.0
    p = build_problem(8, 8, 2, 2, k=k, bc_kind="neumann",
                      kappa_sq=lambda x, y: k ** 2 * (1 + 0.5j * (x >= 0.5)))
    for _ in range(20):
        q = _rand_dual(p, rng)
        sq = p.scattering.apply(q)
        assert p.impedance.norm(sq) < p.impedance.norm(q)


def _columns(field, i):
    return SkeletonField([b[:, i] for b in field.blocks], field.kind)


def _assert_rel(got, want, rtol=1e-13):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
@pytest.mark.parametrize("nx,ny,px,py", [(8, 8, 2, 2), (12, 12, 3, 4)])
@pytest.mark.parametrize("m", [1, 7])
def test_column_blocks_match_columns(nx, ny, px, py, kind, tgamma, m, rng):
    # every operator takes (n_b, m) blocks and must act column by column
    p = build_problem(nx, ny, px, py, k=3.0, bc_kind=kind, tgamma=tgamma)
    imp = p.impedance
    dense = SkeletonField([rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                           for n in p.block_sizes], "dual")
    # all blocks zero but one, the pattern of the dense_operator chunks,
    # whose zero blocks take no solve and no product
    one_block = SkeletonField([b if i == 2 else np.zeros_like(b)
                               for i, b in enumerate(dense.blocks)], "dual")
    ops = {"skeleton_apply": lambda f: sk.skeleton_apply(p, f),
           "exchange": p.exchange.apply, "scattering": p.scattering.apply}
    for q in (dense, one_block):
        for name, op in ops.items():
            out = op(q)
            assert all(b.shape == (n, m) for b, n in zip(out.blocks, p.block_sizes)), name
            for i in range(m):
                _assert_rel(_columns(out, i).concat(), op(_columns(q, i)).concat())
        w = imp.whiten(q)
        assert w.shape == (p.dual_dim, m)
        back = imp.unwhiten(w)
        for i in range(m):
            _assert_rel(w[:, i], imp.whiten(_columns(q, i)))
            _assert_rel(_columns(back, i).concat(), imp.unwhiten(w[:, i]).concat())


# ---------------------------------------------------------------------------
# skeleton system
# ---------------------------------------------------------------------------

def test_rhs_zero_load(ref_problem):
    p = ref_problem
    load = make_load(p, f=0.0)
    f = sk.skeleton_rhs(p, load)
    assert p.impedance.norm(f) == 0.0


def test_rhs_nonlocality_witness(rng):
    p = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")

    def f(x, y):
        return ((x < 0.5) & (y < 0.5)).astype(float)

    load = make_load(p, f=f)
    # before the exchange step the trace data lives only on block 1
    u = p.solver.solve_tuple(load)
    from helmskel.traces import trace_apply
    g = p.impedance.apply(trace_apply(u, p.n_interior))
    norms = [np.abs(b).max() for b in g.blocks]
    assert norms[1] > 0
    assert max(norms[0], *norms[2:]) <= 1e-14 * norms[1]
    # the exchange spreads it to every block meeting that boundary
    fvec = sk.skeleton_rhs(p, load)
    assert all(np.abs(b).max() > 0 for b in fvec.blocks)


def test_rhs_deterministic(rng):
    a = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
    b = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
    load_a = make_load(a, f=1.0)
    load_b = make_load(b, f=1.0)
    fa = sk.skeleton_rhs(a, load_a).concat()
    fb = sk.skeleton_rhs(b, load_b).concat()
    np.testing.assert_allclose(fa, fb, atol=1e-13 * np.abs(fa).max())


def test_operator_zero_and_norm_bound(ref_problem, rng):
    p = ref_problem
    z = p.impedance.zeros("dual")
    assert p.impedance.norm(sk.skeleton_apply(p, z)) == 0.0
    for _ in range(10):
        q = _rand_dual(p, rng)
        assert p.impedance.norm(sk.skeleton_apply(p, q)) <= 2 * p.impedance.norm(q) * (1 + 1e-12)


def test_transmission_characterization(rng):
    # more cross points, and the other outer metric, than the gate's C03
    p = build_problem(12, 12, 3, 4, k=3.0, bc_kind="robin", tgamma="boundary_h1")
    res = vf.transmission(p, rng)
    assert res["max_residual"] <= 1e-11
    # violating pairs fail by a wide margin
    assert res["min_violation"] >= 1e-3


# ---------------------------------------------------------------------------
# recovery and equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_recover_matches_monolithic(kind, rng):
    from helmskel.solvers_spectral import gmres_tinv

    p = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
    ones = np.ones(p.n_gamma)
    load = make_load(p, f=1.0, g_d=0.3 * ones, g_n=0.5 * (p.gamma_mass @ ones))
    f = sk.skeleton_rhs(p, load)
    q, rep = gmres_tinv(p, f, tol=1e-10)
    assert rep.converged
    rec = sk.recover_volume(p, q, load)
    u_mono, p_mono = solve_monolithic(p, load)
    assert h1_norm(p, rec.u - u_mono) <= 1e-8 * h1_norm(p, u_mono)
    assert rec.mismatch <= 1e-9
    # the boundary pair carries the monolithic multiplier
    np.testing.assert_allclose(rec.tuple.gamma[1], p_mono,
                               atol=1e-8 * max(1.0, np.abs(p_mono).max()))


def test_recover_mismatch_matches_reference_loop(ref_problem, rng):
    from helmskel.solvers_spectral import gmres_tinv
    from helmskel.traces import trace_apply

    p = ref_problem
    load = make_load(p, f=1.0)
    q, _ = gmres_tinv(p, sk.skeleton_rhs(p, load), tol=1e-10)
    q = q + 1e-3 * _rand_dual(p, rng)
    rec = sk.recover_volume(p, q, load)
    # the spread of every skeleton dof over the blocks that carry it
    bu = trace_apply(rec.tuple, p.n_interior)
    index = p.index
    vals = np.full((index.n_sigma, index.num_blocks), np.nan + 0j)
    for b, m in enumerate(index.block_map):
        vals[m, b] = bu.blocks[b]
    want = 0.0
    for row in vals:
        fin = row[~np.isnan(row)]
        if len(fin) > 1:
            want = max(want, float(np.abs(fin[:, None] - fin[None, :]).max()))
    assert want > 1e-6
    assert rec.mismatch == want


def test_recover_after_one_step_reports_mismatch(ref_problem):
    from helmskel.solvers_spectral import richardson

    p = ref_problem
    load = make_load(p, f=1.0)
    f = sk.skeleton_rhs(p, load)
    q, _ = richardson(p, f, relax=0.5, tol=1e-30, maxit=1)
    rec = sk.recover_volume(p, q, load)
    assert rec.mismatch > 0


def test_recover_zero(ref_problem):
    p = ref_problem
    load = make_load(p, f=0.0)
    rec = sk.recover_volume(p, p.impedance.zeros("dual"), load)
    assert np.abs(rec.u).max() == 0.0
    assert p.impedance.norm(rec.p) == 0.0


# ---------------------------------------------------------------------------
# closed manifolds: Cauchy data and the graph complement
# ---------------------------------------------------------------------------

def test_cauchy_pair_membership_and_energy_bounds(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    for _ in range(20):
        q = _rand_dual(p, rng)
        pair = sk.cauchy_pair_from(p, q)
        assert sk.cauchy_membership_residual(p, pair.v, pair.p) <= 1e-11
        a = imp.norm(pair.v) ** 2 + imp.norm(pair.p) ** 2
        b = imp.norm(pair.p - 1j * imp.apply(pair.v)) ** 2
        assert a <= b * (1 + 1e-10)
        assert b <= 2 * a * (1 + 1e-10)


def test_cauchy_decompose_random(rng):
    # the mixed condition, where the gate's C10 runs on the robin one
    res = vf.cauchy_decomposition(build_problem(8, 8, 2, 2, k=5.0, bc_kind="mixed"), rng)
    assert res["max_recomposition"] <= 1e-12
    assert res["max_graph"] <= 1e-12
    assert res["max_membership"] <= 1e-9


def test_cauchy_decompose_of_graph_element(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    v = SkeletonField([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                       for n in p.block_sizes], "primal")
    g = 1j * imp.apply(v)
    pair, (u1, p1) = sk.cauchy_decompose(p, v, g)
    assert imp.norm(pair.v) <= 1e-11 * imp.norm(v)
    assert imp.norm(pair.p) <= 1e-11 * imp.norm(g)
    assert imp.norm(u1 - v) <= 1e-11 * imp.norm(v)


def test_cauchy_decompose_of_cauchy_element(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    q = _rand_dual(p, rng)
    pair0 = sk.cauchy_pair_from(p, q)
    pair, (u1, p1) = sk.cauchy_decompose(p, pair0.v, pair0.p)
    assert imp.norm(u1) <= 1e-11 * imp.norm(pair0.v)
    assert imp.norm(p1) <= 1e-11 * imp.norm(pair0.p)


def test_cauchy_self_polarity_sampling(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    pairs_a = [sk.cauchy_pair_from(p, _rand_dual(p, rng)) for _ in range(20)]
    pairs_at = [sk.cauchy_pair_from(p, _rand_dual(p, rng), transpose=True)
                for _ in range(20)]
    for ca in pairs_a:
        for cb in pairs_at:
            val = skew_pair((ca.v, ca.p), (cb.v, cb.p))
            scale = ((imp.norm(ca.v) + imp.norm(ca.p))
                     * (imp.norm(cb.v) + imp.norm(cb.p)))
            assert abs(val) <= 1e-10 * scale


# ---------------------------------------------------------------------------
# kernel correspondence at resonance
# ---------------------------------------------------------------------------

def test_kernel_lift_zero(ref_problem):
    p = ref_problem
    z = np.zeros(p.mesh.num_vertices + p.n_gamma, complex)
    q = sk.kernel_lift(p, z)
    assert p.impedance.norm(q) == 0.0


def test_kernel_lift_at_resonance():
    from helmskel.geometry import build_rect_mesh
    from helmskel.solvers_spectral import dirichlet_resonance

    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    A = monolithic_matrix(p).toarray()
    _, svals, Vh = np.linalg.svd(A)
    assert svals[-1] <= 1e-10 * svals[0]
    z = Vh[-1].conj()
    q = sk.kernel_lift(p, z)
    res = p.impedance.norm(sk.skeleton_apply(p, q)) / p.impedance.norm(q)
    assert res <= 1e-7


def test_local_solvability_guard():
    with pytest.raises(sk.AssumptionViolation, match="perturb"):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin", rcond_floor=1.0)


def test_local_solvability_guard_without_onenormest(monkeypatch):
    def failing_estimator(*args, **kwargs):
        raise RuntimeError("estimator failed")

    monkeypatch.setattr(sk.spla, "onenormest", failing_estimator)
    # small blocks fall back to the exact 1-norm condition number
    C = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], complex))
    rcond = sk._estimate_rcond(C, spla.splu(C), 1)
    assert rcond < 1e-12
    assert rcond == pytest.approx(1.0 / np.linalg.cond(C.toarray(), 1), rel=1e-6)
    with pytest.raises(sk.AssumptionViolation, match="perturb"):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin", rcond_floor=1.0)
    # larger blocks cannot be checked, which is an error naming the block
    monkeypatch.setattr(sk, "_DENSE_RCOND_MAX", 1)
    with pytest.raises(sk.AssumptionViolation, match="block 1 "):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


@pytest.mark.parametrize("transpose", [False, True])
def test_solve_tuple_matches_dense_solve(ref_problem, rng, monkeypatch, transpose):
    # the local factors against a dense solve of each C_j = A_j - i B_j^T T_j B_j
    from helmskel.traces import VolumeTuple

    p = ref_problem
    blocks = [rng.standard_normal(lf.n_dofs) + 1j * rng.standard_normal(lf.n_dofs)
              for lf in p.forms]
    zero = np.zeros(p.n_gamma)
    u = p.solver.solve_tuple(VolumeTuple((zero, zero), blocks, "dual"), transpose=transpose)
    for j, (lf, rhs, got) in enumerate(zip(p.forms, blocks, u.omega)):
        ni = lf.n_interior
        C = lf.A.toarray().astype(complex)
        C[ni:, ni:] -= 1j * p.impedance.blocks[j + 1]
        want = np.linalg.solve(C.T if transpose else C, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # a tuple that is zero in all blocks but one: only that block is solved
    class Counting:
        def __init__(self, lu):
            self.lu, self.calls = lu, 0

        def solve(self, b, trans="N"):
            self.calls += 1
            return self.lu.solve(b, trans=trans)

    proxies = tuple(Counting(lu) for lu in p.solver._lus)
    monkeypatch.setattr(p.solver, "_lus", proxies)
    sparse = [np.zeros(lf.n_dofs) for lf in p.forms]
    sparse[1] = blocks[1]
    u = p.solver.solve_tuple(VolumeTuple((zero, zero), sparse, "dual"), transpose=transpose)
    assert [c.calls for c in proxies] == [int(j == 1) for j in range(len(proxies))]
    assert np.all(u.data[:u.offsets[3]] == 0) and np.all(u.data[u.offsets[4]:] == 0)
    np.testing.assert_array_equal(u.omega[1], proxies[1].lu.solve(
        blocks[1], trans="T" if transpose else "N"))
