import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helmskel.skeleton as sk
import helmskel.verification as vf
from helmskel.assembly import (Coefficients, boundary_h1_impedance, collar_impedance,
                               restriction_adjoint, restriction_apply)
import helmskel.problem as problem_mod
from helmskel.boundary_conditions import KINDS
from helmskel.cli import _tampered
from helmskel.geometry import build_rect_mesh, partition_checkerboard, partition_from_labels
from helmskel.impedance import BlockImpedance, DtnBlock, _BoundaryLastFactor
from helmskel.problem import (SURROGATES, build_problem, h1_norm, make_load, monolithic_matrix,
                              solve_monolithic)
from helmskel.solvers_spectral import gmres_tinv, richardson
from helmskel.traces import (SkeletonField, VolumeTuple, _zero_extension, single_trace_adjoint,
                             single_trace_embed, skew_pair, trace_adjoint, trace_apply)


# ---------------------------------------------------------------------------
# exchange operator
# ---------------------------------------------------------------------------

def test_exchange_fixes_impedance_image(ref_problem, rng, dual_apply):
    p = ref_problem
    for _ in range(10):
        x = rng.standard_normal(p.index.n_sigma) + 1j * rng.standard_normal(p.index.n_sigma)
        q = p.impedance.apply(single_trace_embed(x, p.index))
        out = dual_apply(p, p.exchange, q)
        assert p.impedance.norm(out - q) <= 1e-12 * p.impedance.norm(q)


def test_exchange_negates_jumps(ref_problem, rng, dual_apply):
    p = ref_problem
    counts = np.zeros(p.index.n_sigma)
    for m in p.index.block_map:
        np.add.at(counts, m, 1.0)
    for _ in range(10):
        r = vf.random_field(p, rng)
        y = single_trace_adjoint(r, p.index)
        proj = SkeletonField([(y / counts)[m] for m in p.index.block_map], "dual")
        q = r - proj
        out = dual_apply(p, p.exchange, q)
        assert p.impedance.norm(out + q) <= 1e-12 * p.impedance.norm(q)


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("nx,ny,px,py", [(4, 4, 2, 2), (16, 16, 4, 4), (12, 12, 3, 4)])
def test_exchange_against_dense_projector(nx, ny, px, py, tgamma, rng, dual_apply):
    # the larger partitions have many interior cross points, where G
    # couples four blocks per dof
    p = build_problem(nx, ny, px, py, k=3.0, bc_kind="robin", tgamma=tgamma)
    # the exchange holds the sparse factor of its bordered system K, at
    # least n_sigma square, and no dense n_sigma x n_sigma array
    n_sigma = p.index.n_sigma
    assert isinstance(p.exchange._lu, spla.SuperLU)
    assert p.exchange._lu.shape[0] >= n_sigma
    for v in vars(p.exchange).values():
        assert not (isinstance(v, np.ndarray) and v.shape == (n_sigma, n_sigma))
    Pi = _dense_exchange(p)
    for _ in range(20):
        q = vf.random_field(p, rng)
        got = dual_apply(p, p.exchange, q).concat()
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
        q = vf.random_field(p, rng)
        w = imp.whiten(q)
        # the whitened projector (I + Pi~) / 2 and its complement
        ww = 0.5 * (w + p.exchange.apply(w))
        rest = w - ww
        # their Euclidean inner product, the T^-1 one of the parts, vanishes
        acc = np.vdot(rest, ww)
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


def test_scattering_isometry_without_absorption(rng, dual_apply):
    # dirichlet, neumann and mixed boundary blocks conserve energy for real
    # kappa, and is_lossless says so; a robin block absorbs
    for kind in ("dirichlet", "neumann", "mixed"):
        p = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
        assert vf.is_lossless(p)
        for _ in range(10):
            q = vf.random_field(p, rng)
            sq = dual_apply(p, p.scattering, q)
            assert abs(p.impedance.norm(sq) / p.impedance.norm(q) - 1) <= 1e-11
    assert not vf.is_lossless(build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin"))


def test_scattering_strict_contraction_with_absorption(rng, dual_apply):
    k = 5.0
    p = build_problem(8, 8, 2, 2, k=k, bc_kind="neumann",
                      kappa_sq=lambda x, y: k ** 2 * (1 + 0.5j * (x >= 0.5)))
    for _ in range(20):
        q = vf.random_field(p, rng)
        sq = dual_apply(p, p.scattering, q)
        assert p.impedance.norm(sq) < p.impedance.norm(q)


def _cellwise_kappa_sq(seed, k, cells=4):
    """kappa^2 = k^2 w, with w constant on each of cells x cells squares of
    the unit square and seeded uniform in [0.5, 1.5]."""
    w = np.random.default_rng(seed).uniform(0.5, 1.5, size=(cells, cells))

    def kappa_sq(x, y):
        i = np.minimum((x * cells).astype(int), cells - 1)
        j = np.minimum((y * cells).astype(int), cells - 1)
        return k * k * w[j, i]

    return kappa_sq


@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
@pytest.mark.parametrize("config", ["reference", "fallback"])
def test_dense_scattering_matches_resolvent(config, kind, rng, dual_apply):
    # the dense whitened blocks S~_j = I + 2i L_j^T Sigma_j^-1 L_j, applied to
    # a dual field between a whitening and an unwhitening, against the
    # resolvent q + 2i T B (A - i B^T T B)^-1 B^T q through solve_tuple.  At k = 20 with
    # a seeded cellwise kappa^2, the factors of two of the four blocks swap
    # rows across the interior/boundary split, so those take the n_b-column
    # solve and the other two the trailing-block read.
    if config == "reference":
        p = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
        assert p.solver.fallbacks == 0
    else:
        p = build_problem(8, 8, 2, 2, k=20.0, kappa_sq=_cellwise_kappa_sq(1, 20.0),
                          bc_kind=kind)
        assert 1 <= p.solver.fallbacks < p.num_subdomains
        # kappa^2 enters A_j, not H_j: the cells share their DtN block only
        assert len({id(T) for T in p.impedance.blocks[1:]}) == 1
        assert len({id(f) for f in p.solver._lus}) == p.num_subdomains
        # the factors themselves, crossing swaps or not, against dense solves
        for j, (lf, lu) in enumerate(zip(p.forms, p.solver._lus)):
            ni = lf.n_interior
            C = lf.A.toarray().astype(complex)
            C[ni:, ni:] -= 1j * p.impedance.blocks[j + 1]
            b = rng.standard_normal(lf.n_dofs) + 1j * rng.standard_normal(lf.n_dofs)
            want = np.linalg.solve(C, b)
            assert np.linalg.norm(lu.solve(b) - want) <= 1e-12 * np.linalg.norm(want)
    _assert_scattering_matches_resolvent(p, rng, dual_apply)


def _resolvent_scattering(p, q):
    """S q = q + 2i T B (A - i B^T T B)^-1 B^T q through the local solves."""
    u = p.solver.solve_tuple(trace_adjoint(q, p.partition))
    return q + 2j * p.impedance.apply(trace_apply(u, p.partition))


def _assert_scattering_matches_resolvent(p, rng, dual_apply):
    for shape in [(p.dual_dim,), (p.dual_dim, 5)]:
        q = SkeletonField.wrap(rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
                               p.impedance.offsets, "dual")
        want = _resolvent_scattering(p, q)
        got = dual_apply(p, p.scattering, q)
        assert got.data.shape == shape
        assert np.linalg.norm(got.data - want.data) <= 1e-12 * np.linalg.norm(want.data)


@pytest.mark.parametrize("cross", [False, True], ids=["boundary-swaps", "crossing-swap"])
def test_scattering_block_under_row_swaps(cross, rng):
    # a matrix whose tiny boundary diagonal makes the factor swap boundary
    # rows among themselves; with an interior column whose only nonzero
    # below the diagonal is a boundary row, the factor swaps across the split
    ni, nb = 4, 3
    C = np.zeros((ni + nb, ni + nb), complex)
    C[:ni, :ni] = np.diag(4.0 + np.arange(ni)) + 0.1 * (rng.standard_normal((ni, ni))
                                                       + 1j * rng.standard_normal((ni, ni)))
    C[:ni, ni:] = 0.1 * rng.standard_normal((ni, nb))
    C[ni:, :ni] = C[:ni, ni:].T
    D = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
    C[ni:, ni:] = D + D.T
    C[np.arange(ni, ni + nb), np.arange(ni, ni + nb)] = 1e-3
    if cross:
        C[0, :ni] = C[:ni, 0] = 0.0
    factor = _BoundaryLastFactor(sp.csc_matrix(C), np.arange(ni + nb), ni, sk._PIVOT_THRESHOLD)
    rows = factor.lu.perm_r[ni:] - ni
    assert (rows.min() < 0) == cross
    assert cross or not np.array_equal(rows, np.arange(nb))
    L = np.linalg.cholesky(np.eye(nb) + 0.1 * np.ones((nb, nb)))
    S, crossed = sk._whitened_scattering_block(factor, L)
    assert crossed == cross
    want = np.eye(nb) + 2j * L.T @ np.linalg.inv(C)[ni:, ni:] @ L
    assert np.abs(S - want).max() <= 1e-13 * np.abs(want).max()


def _assert_whitened_apply_matches(p, rng):
    # w + Pi~ S~ w against independent dual-field oracles between an
    # unwhitening and a whitening: S through the resolvent and the local
    # solves, Pi as the dense T E (E^T T E)^-1 E^T reflection; on a vector
    # and on a block of columns
    imp = p.impedance
    Pi = _dense_exchange(p)
    for shape in [(p.dual_dim,), (p.dual_dim, 4)]:
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        q = imp.unwhiten(w)
        sq = _resolvent_scattering(p, q)
        want = imp.whiten(q + SkeletonField.wrap(Pi @ sq.data, sq.offsets, "dual"))
        got = sk._whitened_apply(p, w)
        assert got.shape == shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
def test_whitened_apply_matches_dual_operators(kind, tgamma, rng):
    _assert_whitened_apply_matches(build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind,
                                                 tgamma=tgamma), rng)


def test_whitened_apply_with_fallback_blocks(rng):
    p = build_problem(8, 8, 2, 2, k=20.0, kappa_sq=_cellwise_kappa_sq(1, 20.0))
    assert p.solver.fallbacks >= 1
    _assert_whitened_apply_matches(p, rng)


def _halve_first_cell(monkeypatch):
    # a px x py checkerboard whose first cell is cut in two halves,
    # labelled first and last
    partition_checkerboard = problem_mod.partition_checkerboard

    def halved(mesh, px, py):
        labels = partition_checkerboard(mesh, px, py).subdomain_of_triangle.copy()
        cents = mesh.vertices[mesh.triangles].mean(axis=1)
        labels[(labels == 0) & (cents[:, 0] > 0.25)] = px * py
        return partition_from_labels(mesh, labels)

    monkeypatch.setattr(problem_mod, "partition_checkerboard", halved)


def test_whitened_apply_on_blocks_of_unequal_sizes(monkeypatch, rng, dual_apply):
    # a 2x2 checkerboard of a 12x12 mesh with its first cell halved: the
    # 18-dof halves, which are not adjacent, are one size group, the three
    # 24-dof cells another, and the real outer block a third.  A cellwise
    # kappa^2 makes the two halves' blocks differ.
    _halve_first_cell(monkeypatch)
    p = build_problem(12, 12, 2, 2, k=5.0, kappa_sq=_cellwise_kappa_sq(2, 5.0))
    assert p.block_sizes == (48, 18, 24, 24, 24, 18)
    assert sorted(stack.shape for stack, _ in p.scattering.blocks.groups) == [
        (1, 48, 48), (2, 18, 18), (3, 24, 24)]
    _assert_whitened_apply_matches(p, rng)
    _assert_scattering_matches_resolvent(p, rng, dual_apply)


def _pair_diagonal_cells(monkeypatch):
    # a 2x2 checkerboard in two colours: each subdomain is two diagonal
    # cells that meet at the centre vertex only
    partition_checkerboard = problem_mod.partition_checkerboard

    def paired(mesh, px, py):
        labels = partition_checkerboard(mesh, px, py).subdomain_of_triangle
        return partition_from_labels(mesh, (labels // px + labels % px) % 2)

    monkeypatch.setattr(problem_mod, "partition_checkerboard", paired)


@pytest.mark.parametrize("layout,cross", [(_halve_first_cell, [[0.25, 0.5], [0.5, 0.5]]),
                                          (_pair_diagonal_cells, [])],
                         ids=["halved-cell", "diagonal-pairs"])
def test_incidence_readers_beyond_the_checkerboard(layout, cross, monkeypatch, rng):
    # the four readers of the skeleton incidence on partitions that are not
    # checkerboards: the cross points, the jump part of the transmission
    # suite, the spread of a recovery and the equivalence of the two solves.
    # The centre of the diagonal pairs lies on both subdomain boundaries,
    # once each, so it is no cross point.
    layout(monkeypatch)
    problems = [build_problem(12, 12, 2, 2, k=5.0, bc_kind=kind) for kind in KINDS]
    p = problems[KINDS.index("robin")]
    np.testing.assert_allclose(p.mesh.vertices[p.index.cross_points],
                               np.reshape(cross, (-1, 2)), rtol=0, atol=1e-15)
    assert vf.transmission(p, rng)["passed"]
    _assert_mismatch_matches_reference_loop(p, rng)
    res = vf.equivalence(problems)
    assert res["passed"] and res["singular"] == []


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(px=st.integers(1, 3), py=st.integers(1, 3), cx=st.integers(1, 4), cy=st.integers(1, 4),
       k=st.floats(1.0, 6.0), kind=st.sampled_from(KINDS),
       tgamma=st.sampled_from(SURROGATES))
def test_identities_on_drawn_checkerboards(px, py, cx, cy, k, kind, tgamma):
    # the library suites at their own thresholds on a drawn checkerboard of
    # px x py blocks of cx x cy cells each
    assume(px * cx >= 2 and py * cy >= 2)
    p = build_problem(px * cx, py * cy, px, py, k=k, bc_kind=kind, tgamma=tgamma)
    assert len(p.index.cross_points) == (px - 1) * (py - 1)
    rng = np.random.default_rng(0)
    assert vf.exchange_axioms(p, rng)["passed"]
    assert vf.transmission(p, rng)["passed"]
    assert vf.cauchy_decomposition(p, rng)["passed"]
    assert vf.equivalence([p])["passed"]
    assert vf.energy_identity(p, rng, [p] if vf.is_lossless(p) else ())["passed"]


def _dense_embedding_impedance(p):
    """The single-trace embedding E and the impedance T as dense matrices."""
    E = np.zeros((p.dual_dim, p.index.n_sigma))
    E[np.arange(p.dual_dim), p.index.flat_map] = 1.0
    T = np.zeros((p.dual_dim, p.dual_dim))
    for Tb, a, b in zip(p.impedance.blocks, p.impedance.offsets, p.impedance.offsets[1:]):
        T[a:b, a:b] = Tb
    return E, T


def _dense_gram(p):
    """E^T T E, assembled densely from the embedding and the impedance."""
    E, T = _dense_embedding_impedance(p)
    return E.T @ T @ E


def _dense_exchange(p):
    """Pi = 2 T E (E^T T E)^-1 E^T - I, assembled densely."""
    E, T = _dense_embedding_impedance(p)
    Q = T @ E @ np.linalg.solve(E.T @ T @ E, E.T)
    return 2 * Q - np.eye(p.dual_dim)


def _outer_form(p, tgamma):
    surrogate = {"collar": collar_impedance, "boundary_h1": boundary_h1_impedance}[tgamma]
    return surrogate(p.mesh, p.partition.gamma_dofs, p.coeffs.gamma)


def test_exchange_gram_stores_no_zero():
    # boundary_h1 makes T_Gamma banded and adds no unknown, so the exchange
    # system is G itself: the zeros of T_Gamma must not enter it
    p = build_problem(8, 8, 2, 2, k=5.0, tgamma="boundary_h1")
    G = sk._exchange_system(p.index, p.impedance, _outer_form(p, "boundary_h1"))
    assert np.all(G.data != 0)
    want = _dense_gram(p)
    assert G.shape == want.shape
    assert G.nnz == np.count_nonzero(want)
    assert np.abs(G.toarray() - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("halved", [False, True])
def test_exchange_system_reduces_to_gram(tgamma, halved, monkeypatch):
    # eliminating the extra unknowns of K gives back E^T T E, on a checkerboard
    # and on a partition with blocks of unequal sizes
    if halved:
        _halve_first_cell(monkeypatch)
    p = build_problem(12, 12, 2, 2, k=5.0, tgamma=tgamma)
    K = sk._exchange_system(p.index, p.impedance, _outer_form(p, tgamma)).toarray()
    n = p.index.n_sigma
    # the collar adds its ring off the boundary as extra unknowns: L layers
    # h, 2h, 4h, ... on each side, the least count with h (2^L - 1) >= gamma
    layers = next(L for L in itertools.count(1) if (2 ** L - 1) / 12 >= p.coeffs.gamma)
    ring = (13 + 2 * layers) ** 2 - 13 ** 2
    assert K.shape[0] == n + {"collar": ring, "boundary_h1": 0}[tgamma]
    assert np.array_equal(K, K.T)
    schur = K[:n, :n] - K[:n, n:] @ np.linalg.solve(K[n:, n:], K[n:, :n])
    want = _dense_gram(p)
    assert np.abs(schur - want).max() <= 1e-13 * np.abs(want).max()


def test_collar_exchange_system_holds_no_dense_outer_block():
    # the collar's T_Gamma is dense; K takes the collar's sparse form in its
    # place, so it stores fewer nonzeros than G, and its Gamma block has
    # the pattern it would have with the banded boundary H1 block
    p = build_problem(16, 16, 4, 4, k=5.0, tgamma="collar")
    assert np.count_nonzero(p.impedance.blocks[0]) == p.n_gamma ** 2
    K = sk._exchange_system(p.index, p.impedance, _outer_form(p, "collar"))
    assert K.nnz < np.count_nonzero(_dense_gram(p))
    banded = sk._exchange_system(p.index, p.impedance, _outer_form(p, "boundary_h1"))
    gamma = p.index.block_map[0]
    assert K[gamma][:, gamma].nnz == banded[gamma][:, gamma].nnz < p.n_gamma ** 2 // 4


def _columns(field, i):
    return SkeletonField([b[:, i] for b in field.blocks], field.kind)


def _volume_column(vol, i):
    return VolumeTuple.wrap(vol.data[:, i], vol.offsets, vol.kind)


def _assert_rel(got, want, rtol=1e-13):
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.mark.parametrize("tgamma", ["collar", "boundary_h1"])
@pytest.mark.parametrize("kind", ["dirichlet", "neumann", "robin", "mixed"])
@pytest.mark.parametrize("nx,ny,px,py", [(8, 8, 2, 2), (12, 12, 3, 4)])
@pytest.mark.parametrize("m", [1, 7])
def test_column_blocks_match_columns(nx, ny, px, py, kind, tgamma, m, rng, dual_apply):
    # every operator takes (n_b, m) blocks and must act column by column
    p = build_problem(nx, ny, px, py, k=3.0, bc_kind=kind, tgamma=tgamma)
    imp = p.impedance
    dense = SkeletonField([rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
                           for n in p.block_sizes], "dual")
    # all blocks zero but one: an input that mixes zero and nonzero blocks
    one_block = SkeletonField([b if i == 2 else np.zeros_like(b)
                               for i, b in enumerate(dense.blocks)], "dual")
    ops = {"skeleton_apply": lambda f: sk.skeleton_apply(p, f),
           "exchange": lambda f: dual_apply(p, p.exchange, f),
           "scattering": lambda f: dual_apply(p, p.scattering, f)}
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

    # the volume side: A, the restriction and its adjoint, the right-hand
    # side of m loads and the recovery of m solutions
    part = p.partition
    n_vol = part.volume_offsets[-1]
    z = rng.standard_normal((p.mesh.num_vertices + p.n_gamma, m)) + 0j
    u = restriction_apply(part, z)
    load = VolumeTuple.wrap(rng.standard_normal((n_vol, m)) + 1j * rng.standard_normal((n_vol, m)),
                            part.volume_offsets, "dual")
    au = sk.apply_A(p, u)
    rt = restriction_adjoint(part, load)
    f = sk.skeleton_rhs(p, load)
    rec = sk.recover_volume(p, dense, load)
    assert au.data.shape == (n_vol, m) and rec.u.shape == (p.mesh.num_vertices, m)
    spreads = []
    for i in range(m):
        u_i, load_i = _volume_column(u, i), _volume_column(load, i)
        np.testing.assert_array_equal(u_i.data, restriction_apply(part, z[:, i]).data)
        _assert_rel(au.data[:, i], sk.apply_A(p, u_i).data)
        _assert_rel(rt[:, i], restriction_adjoint(part, load_i))
        _assert_rel(_columns(f, i).concat(), sk.skeleton_rhs(p, load_i).concat())
        rec_i = sk.recover_volume(p, _columns(dense, i), load_i)
        _assert_rel(rec.u[:, i], rec_i.u)
        _assert_rel(_columns(rec.p, i).concat(), rec_i.p.concat())
        spreads.append(rec_i.mismatch)
    assert rec.mismatch == pytest.approx(max(spreads), rel=1e-13)


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
    g = p.impedance.apply(trace_apply(u, p.partition))
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
        q = vf.random_field(p, rng)
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


def _assert_mismatch_matches_reference_loop(p, rng):
    load = make_load(p, f=1.0)
    q, _ = gmres_tinv(p, sk.skeleton_rhs(p, load), tol=1e-10)
    q = q + 1e-3 * vf.random_field(p, rng)
    rec = sk.recover_volume(p, q, load)
    # the spread of every skeleton dof over the blocks that carry it
    bu = trace_apply(rec.tuple, p.partition)
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


def test_recover_mismatch_matches_reference_loop(ref_problem, rng):
    _assert_mismatch_matches_reference_loop(ref_problem, rng)


def test_recover_after_one_step_reports_mismatch(ref_problem):
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
        q = vf.random_field(p, rng)
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
    q = vf.random_field(p, rng)
    pair0 = sk.cauchy_pair_from(p, q)
    pair, (u1, p1) = sk.cauchy_decompose(p, pair0.v, pair0.p)
    assert imp.norm(u1) <= 1e-11 * imp.norm(pair0.v)
    assert imp.norm(p1) <= 1e-11 * imp.norm(pair0.p)


def test_cauchy_self_polarity_sampling(ref_problem, rng):
    p = ref_problem
    imp = p.impedance
    pairs_a = [sk.cauchy_pair_from(p, vf.random_field(p, rng)) for _ in range(20)]
    pairs_b = [sk.cauchy_pair_from(p, vf.random_field(p, rng)) for _ in range(20)]
    for ca in pairs_a:
        for cb in pairs_b:
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


def _resonant_kernel():
    """The 8x8/2x2 Dirichlet cavity at its first resonance, and a unit
    kernel vector of its monolithic operator."""
    from helmskel.geometry import build_rect_mesh
    from helmskel.solvers_spectral import dirichlet_resonance

    mesh = build_rect_mesh(8, 8)
    lam = dirichlet_resonance(mesh)
    p = build_problem(8, 8, 2, 2, k=5.0, kappa_sq=lam, bc_kind="dirichlet")
    A = monolithic_matrix(p).toarray()
    _, svals, Vh = np.linalg.svd(A)
    assert svals[-1] <= 1e-10 * svals[0]
    return p, Vh[-1].conj()


def test_kernel_lift_at_resonance():
    p, z = _resonant_kernel()
    q = sk.kernel_lift(p, z)
    res = p.impedance.norm(sk.skeleton_apply(p, q)) / p.impedance.norm(q)
    assert res <= 1e-7


def test_kernel_lift_matches_harmonic_lifting():
    # on a kernel vector the zero extension and the harmonic lifting give
    # the same Neumann trace: p'_j = phi_b - H_bi H_ii^-1 phi_i, phi = A R z
    p, z = _resonant_kernel()
    rz = restriction_apply(p.partition, z)
    arz = sk.apply_A(p, rz)
    blocks = [arz.gamma[0]]
    for lf, phi in zip(p.forms, arz.omega):
        ni = lf.n_interior
        H = lf.H.tocsc()
        blocks.append(phi[ni:] - H[ni:, :ni] @ spla.spsolve(H[:ni, :ni], phi[:ni]))
    v = trace_apply(rz, p.partition)
    want = SkeletonField(blocks, "dual") - 1j * p.impedance.apply(v)
    q = sk.kernel_lift(p, z)
    assert p.impedance.norm(q - want) <= 1e-10 * p.impedance.norm(want)


def _reachable(obj) -> list:
    """The distinct objects reachable from obj through attributes
    (``__dict__`` and ``__slots__``) and containers; arrays are leaves."""
    seen, found, stack = set(), [], [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (np.generic, str, type)):
            continue
        seen.add(id(o))
        found.append(o)
        if isinstance(o, np.ndarray):
            continue
        if isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        else:
            stack.extend(getattr(o, "__dict__", {}).values())
            for cls in type(o).__mro__:
                slots = getattr(cls, "__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(o, name):
                        stack.append(getattr(o, name))
    return found


def test_built_problem_keeps_only_operator_factors(ref_problem):
    # one local impedance factor per distinct subdomain form and the factor
    # of G; no factor made for an impedance block outlives the build.  The
    # four cells of the reference are one form.
    p = ref_problem
    assert len(p.solver._lus) == p.num_subdomains
    assert len({id(f) for f in p.solver._lus}) == 1
    superlu = [o for o in _reachable(p) if isinstance(o, spla.SuperLU)]
    assert len(superlu) == 1 + 1


def test_shared_forms_match_their_own_build():
    # every cell of a 16x16, 4x4 checkerboard is one form: its DtN block,
    # local factor and scattering block are built once, and each subdomain's
    # is bit for bit what a build from its own forms gives
    p = build_problem(16, 16, 4, 4, k=5.0)
    imp, J = p.impedance, p.num_subdomains
    assert len({id(T) for T in imp.blocks[1:]}) == len({id(f) for f in p.solver._lus}) == 1
    for j, lf in enumerate(p.forms):
        dtn = DtnBlock(lf.H, lf.n_interior)
        assert np.array_equal(imp.blocks[j + 1], dtn.T)
        assert np.array_equal(imp.chol[j + 1], dtn.chol)
        # a solver of this subdomain alone, with nothing to share
        own = sk.LocalImpedanceSolver([lf], [dtn.order], BlockImpedance(
            [imp.blocks[0], dtn.T], [imp.chol[0], dtn.chol]), p.bc)
        assert np.array_equal(p.scattering.blocks.blocks[j + 1],
                              own.whitened_blocks.blocks[1])
    # one stack of one block for all J members, on their rows side by side
    n0, nb = p.block_sizes[:2]
    for blocks in (imp._t, imp._l, p.scattering.blocks):
        assert [(stack.shape, len(rows)) for stack, rows in blocks.groups] == [
            ((1, n0, n0), n0), ((1, nb, nb), J * nb)]


@pytest.mark.parametrize("n, px, forms", [(24, 4, 9), (12, 2, 4)])
def test_forms_shared_in_part_or_not_at_all(n, px, forms):
    # the vertex coordinates of a 24x24 mesh are exact in 9 of the 16 cells'
    # own frames only, and in none of a 12x12 mesh's 2x2 cells; unshared
    # blocks are stacked as one family each
    p = build_problem(n, n, px, px, k=5.0)
    assert len({id(T) for T in p.impedance.blocks[1:]}) == forms
    assert len({id(f) for f in p.solver._lus}) == forms
    if forms == p.num_subdomains:
        n0, nb = p.block_sizes[:2]
        for blocks in (p.impedance._t, p.impedance._l, p.scattering.blocks):
            assert [(stack.shape, len(rows)) for stack, rows in blocks.groups] == [
                ((1, n0, n0), n0), ((forms, nb, nb), forms * nb)]


@pytest.mark.parametrize("n, px, calls", [(16, 4, 6), (24, 4, 22), (12, 2, 12)])
def test_factorisation_budget(monkeypatch, n, px, calls):
    # one splu per distinct form for the DtN blocks and the local factors,
    # plus one fill-reducing interior order per pattern, two for the collar
    # and one for the exchange: 6 = 2 + 2 + 1 + 1 when all cells are one form
    import helmskel.impedance as imp_mod
    count = [0]
    splu = imp_mod.spla.splu

    def counted(*args, **kwargs):
        count[0] += 1
        return splu(*args, **kwargs)

    monkeypatch.setattr(imp_mod.spla, "splu", counted)
    build_problem(n, n, px, px, k=5.0)
    assert count[0] == calls


_HELD = {
    "impedance_block": lambda p: p.impedance.blocks[1],
    "impedance_factor": lambda p: p.impedance.chol[0],
    "gamma_mass": lambda p: p.gamma_mass,
    "bc_t_gamma": lambda p: p.bc.t_gamma,
    "bc_lam": lambda p: p.bc.lam,
    "bc_theta": lambda p: p.bc.theta,
    "form_data": lambda p: p.forms[0].A.data,
    "form_indices": lambda p: p.forms[0].H.indices,
    "form_indptr": lambda p: p.forms[0].K.indptr,
    "gamma_dofs": lambda p: p.partition.gamma_dofs,
    "mesh_vertices": lambda p: p.mesh.vertices,
    "scattering_block": lambda p: p.scattering.blocks.blocks[1],
    "global_form_data": lambda p: p.global_forms.H.data,
    "tampered_exchange_sum": lambda p: _tampered(p).exchange._sum.data,
}


@pytest.mark.parametrize("held", list(_HELD))
def test_problem_arrays_refuse_writes(ref_problem, held):
    # a write into a block would leave the factors read from it stale
    a = _HELD[held](ref_problem)
    before = a.copy()
    with pytest.raises(ValueError, match="read-only"):
        a.flat[0] = 1.0
    assert np.array_equal(a, before)


def test_no_writable_array_is_reachable_from_a_problem(ref_problem):
    ref_problem.global_forms
    for p in (ref_problem, _tampered(ref_problem)):
        arrays = [o for o in _reachable(p) if isinstance(o, np.ndarray)]
        assert arrays and not any(a.flags.writeable for a in arrays)


def test_factors_keep_no_csc_copies(ref_problem):
    # reading S_j converts the whole factor to CSC, a copy SuperLU would keep
    # for the factor's lifetime; the read empties it, and the solves (checked
    # against dense ones below) do not use it
    assert ref_problem.solver.fallbacks == 0
    for f in ref_problem.solver._lus:
        assert f.lu.L.nnz == 0 and f.lu.U.nnz == 0


def test_local_solvability_guard(monkeypatch):
    monkeypatch.setattr(sk, "_RCOND_FLOOR", 1.0)
    with pytest.raises(sk.AssumptionViolation, match="perturb"):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


def test_local_solvability_guard_without_onenormest(monkeypatch):
    def failing_estimator(*args, **kwargs):
        raise RuntimeError("estimator failed")

    monkeypatch.setattr(sk.spla, "onenormest", failing_estimator)
    # small blocks fall back to the exact 1-norm condition number
    C = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]], complex))
    rcond = sk._estimate_rcond(_BoundaryLastFactor(C, np.arange(2), 0, sk._PIVOT_THRESHOLD), [1])
    assert rcond < 1e-12
    assert rcond == pytest.approx(1.0 / np.linalg.cond(C.toarray(), 1), rel=1e-6)
    with monkeypatch.context() as m, pytest.raises(sk.AssumptionViolation, match="perturb"):
        m.setattr(sk, "_RCOND_FLOOR", 1.0)
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")
    # larger blocks cannot be checked, which is an error naming the block
    monkeypatch.setattr(sk, "_DENSE_RCOND_MAX", 1)
    with pytest.raises(sk.AssumptionViolation, match="block 1 "):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


def test_singular_impedance_problem_is_named(monkeypatch):
    # a local factor that cannot be made is an AssumptionViolation naming the
    # first subdomain block, block 1; the impedance blocks read their own
    # factors and are built as usual
    class Singular:
        def __init__(self, *args):
            raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(sk, "_BoundaryLastFactor", Singular)
    with pytest.raises(sk.AssumptionViolation,
                       match="impedance problem of block 1 is singular; perturb"):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


@pytest.mark.parametrize("failure", ["singular", "ill-conditioned", "unchecked"])
def test_failing_form_names_all_its_blocks(monkeypatch, failure):
    # the four cells of a 4x4, 2x2 checkerboard are one form, factored and
    # checked once: a failure names block 1 and the other three
    class Singular:
        def __init__(self, *args):
            raise RuntimeError("Factor is exactly singular")

    if failure == "singular":
        monkeypatch.setattr(sk, "_BoundaryLastFactor", Singular)
    elif failure == "ill-conditioned":
        monkeypatch.setattr(sk, "_RCOND_FLOOR", 1.0)
    else:
        monkeypatch.setattr(sk.spla, "onenormest", Singular)
        monkeypatch.setattr(sk, "_DENSE_RCOND_MAX", 1)
    with pytest.raises(sk.AssumptionViolation,
                       match=r"block 1 .*\(and blocks 2, 3, 4 of the same form\)$"):
        build_problem(4, 4, 2, 2, k=3.0, bc_kind="robin")


@pytest.mark.parametrize("transpose", [False, True])
def test_solve_tuple_matches_dense_solve(ref_problem, rng, monkeypatch, transpose):
    # the local factors against a dense solve of each C_j = A_j - i B_j^T T_j B_j;
    # every C_j equals its transpose, so the plain solve is the transposed one
    p = ref_problem
    blocks = [rng.standard_normal(lf.n_dofs) + 1j * rng.standard_normal(lf.n_dofs)
              for lf in p.forms]
    zero = np.zeros(p.n_gamma)
    u = p.solver.solve_tuple(VolumeTuple((zero, zero), blocks, "dual"))
    for j, (lf, rhs, got) in enumerate(zip(p.forms, blocks, u.omega)):
        ni = lf.n_interior
        C = lf.A.toarray().astype(complex)
        C[ni:, ni:] -= 1j * p.impedance.blocks[j + 1]
        assert np.array_equal(C, C.T)
        want = np.linalg.solve(C.T if transpose else C, rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # a tuple that is zero in all blocks but one: every block takes one
    # solve, and the zero blocks solve to exact zeros
    class Counting:
        def __init__(self, lu):
            self.lu, self.calls = lu, 0

        def solve(self, b):
            self.calls += 1
            return self.lu.solve(b)

    proxies = tuple(Counting(lu) for lu in p.solver._lus)
    monkeypatch.setattr(p.solver, "_lus", proxies)
    sparse = [np.zeros(lf.n_dofs) for lf in p.forms]
    sparse[1] = blocks[1]
    u = p.solver.solve_tuple(VolumeTuple((zero, zero), sparse, "dual"))
    assert [c.calls for c in proxies] == [1] * len(proxies)
    assert np.all(u.data[:u.offsets[3]] == 0) and np.all(u.data[u.offsets[4]:] == 0)
    np.testing.assert_array_equal(u.omega[1], proxies[1].lu.solve(blocks[1]))


# ---------------------------------------------------------------------------
# loud failures
# ---------------------------------------------------------------------------

def _volume_zeros(p, kind):
    o = p.partition.volume_offsets
    return VolumeTuple.wrap(np.zeros(o[-1], complex), o, kind)


def _clockwise_mesh():
    mesh = build_rect_mesh(2, 2)
    triangles = mesh.triangles.copy()
    triangles[0] = triangles[0, ::-1]
    return replace(mesh, triangles=triangles)


def _two_columns(p):
    return SkeletonField.wrap(np.ones((p.dual_dim, 2), complex), p.impedance.offsets, "dual")


_MISUSES = {
    "richardson on a block of columns": (
        lambda p: richardson(p, _two_columns(p)), "one right-hand side per solve"),
    "gmres on a block of columns": (
        lambda p: gmres_tinv(p, _two_columns(p)), "one right-hand side per solve"),
    "trace_apply of a dual tuple": (
        lambda p: trace_apply(_volume_zeros(p, "dual"), p.partition), "primal tuple"),
    "trace_apply of a foreign layout": (
        lambda p: trace_apply(VolumeTuple.wrap(np.zeros(3, complex), (0, 3), "primal"),
                              p.partition), "volume layout"),
    "trace_adjoint of a primal field": (
        lambda p: trace_adjoint(p.impedance.zeros("primal"), p.partition), "dual field"),
    "zero extension of a foreign layout": (
        lambda p: _zero_extension(SkeletonField([np.zeros(3)], "primal"), p.partition),
        "volume layout"),
    "single_trace_embed of the wrong length": (
        lambda p: single_trace_embed(np.zeros(p.index.n_sigma + 1), p.index), "wrong length"),
    "single_trace_adjoint of a primal field": (
        lambda p: single_trace_adjoint(p.impedance.zeros("primal"), p.index), "dual field"),
    "block array of a bad kind": (
        lambda p: SkeletonField([np.zeros(2)], "neutral"), "kind must be"),
    "impedance of a dual field": (
        lambda p: p.impedance.apply(p.impedance.zeros("dual")), "primal fields"),
    "whitening of a primal field": (
        lambda p: p.impedance.whiten(p.impedance.zeros("primal")), "dual fields"),
    "local solve of a primal tuple": (
        lambda p: p.solver.solve_tuple(_volume_zeros(p, "primal")), "dual tuple"),
    "apply_A of a dual tuple": (
        lambda p: sk.apply_A(p, _volume_zeros(p, "dual")), "primal tuple"),
    "restriction_adjoint of a primal tuple": (
        lambda p: restriction_adjoint(p.partition, _volume_zeros(p, "primal")), "dual tuple"),
    "zero wavenumber": (lambda p: Coefficients(k=0.0), "k must be positive"),
    "zero width": (lambda p: build_rect_mesh(2, 2, width=0.0), "must be positive"),
    "zero partition count": (
        lambda p: partition_checkerboard(build_rect_mesh(2, 2), 0, 1), "must be >= 1"),
    "clockwise triangle": (
        lambda p: partition_checkerboard(_clockwise_mesh(), 1, 1), "non-positive area"),
}


@pytest.mark.parametrize("case", list(_MISUSES))
def test_misuse_fails_loudly(small_problem, case):
    call, fragment = _MISUSES[case]
    with pytest.raises(ValueError, match=fragment):
        call(small_problem)
