"""Block impedance operator: per-block Dirichlet-to-Neumann maps.

Each trace block carries a real SPD matrix T_b.  For a subdomain this is
the Schur complement of the volume norm Gram H = K + gamma^-2 M onto the
boundary dofs, i.e. the discrete Dirichlet-to-Neumann map of the operator
-Laplace + gamma^-2.  For the outer boundary there is no canonical
bounded exterior, so two SPD surrogates are provided: the Schur complement
of a one-cell exterior collar mesh (default), and a boundary H1 matrix.
Each surrogate also returns the sparse form its T_Gamma is the Schur
complement of (the collar's H, or T_Gamma itself), from which the exchange
operator builds its sparse system instead of from the dense T_Gamma.

Every Schur complement is read off a sparse factor: H is factored with
its boundary dofs last and no pivoting, which SPD allows, and T and its
Cholesky factor are the trailing block of that factor (``schur_dtn``).
No dense solve against the boundary columns is made, and no factor of H
is kept: the skeleton operators need only the blocks T_b, so a built
problem holds no interior factor and no harmonic lifting.  The
boundary-last dof order of a subdomain's factor (``DtnBlock.order``) is
passed on to the factor of its impedance problem, which has the same
sparsity.

The induced norms ||v||_T and ||q||_T^-1 are the working metric of the
whole skeleton formulation.  The Cholesky factors L_b of the blocks double
as the whitening transform w = L^-1 q: the Krylov solvers and the spectral
harness work in those coordinates, where the skeleton operators are
applied directly and the exchange takes one product with L and one with
L^T.  Only a dual field entering or leaving them is whitened or unwhitened.
Equal-size blocks of T and of L are stacked, so each such product is one
matrix product per block size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Mesh, _offsets, build_rect_mesh
from .assembly import Coefficients, LocalForms, _assemble_on
from .traces import SkeletonField

_dtrtrs = sla.get_lapack_funcs("trtrs", dtype=np.float64)

__all__ = [
    "DtnBlock",
    "BlockImpedance",
    "schur_dtn",
    "collar_impedance",
    "boundary_h1_impedance",
    "boundary_mass",
    "boundary_stiffness",
]


def _splu_spd(A: sp.spmatrix):
    """Sparse LU of a real SPD matrix in CSC form.

    SPD needs no pivoting, so the factor keeps the diagonal (symmetric
    mode) of a minimum-degree ordering of A + A^T, which on these 2-D
    grids gives less fill than the default column ordering.
    """
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))


def _trailing_block(F, n_interior: int) -> np.ndarray:
    """Dense trailing block, the rows and columns from ``n_interior`` on,
    of a square CSC matrix."""
    n, ni = F.shape[0], n_interior
    a = F.indptr[ni]
    rows = F.indices[a:] - ni
    cols = np.repeat(np.arange(n - ni), np.diff(F.indptr[ni:]))
    keep = rows >= 0
    out = np.zeros((n - ni, n - ni), F.dtype)
    out[rows[keep], cols[keep]] = F.data[a:][keep]
    return out


def _trailing_schur(Hc: sp.csc_matrix, pos: np.ndarray, n_interior: int):
    """Schur complement T of a real SPD matrix onto its rows and columns from
    ``n_interior`` on, and the lower Cholesky factor of T, read off one
    unpivoted factor.

    Row and column i of ``Hc`` move to ``pos[i]``, which must leave the
    trailing rows where they are.  The permuted matrix is factored in that
    order (no column reordering, no row pivoting) as L U with L unit lower
    triangular.  Gaussian elimination of the leading rows leaves their Schur
    complement as the trailing block L_bb U_bb, and a symmetric matrix has
    U = diag(U) L^T, so the complement is U_bb^T diag(U_bb)^-1 U_bb = R R^T
    with R = U_bb^T diag(U_bb)^-1/2 its Cholesky factor.  Only the trailing
    columns of U are read; the factor is dropped on return.
    """
    n, ni = Hc.shape[0], n_interior
    C = Hc.tocoo()
    lu = spla.splu(sp.csc_matrix((C.data, (pos[C.row], pos[C.col])), shape=(n, n)),
                   permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    ident = np.arange(n)
    if not (np.array_equal(lu.perm_r, ident) and np.array_equal(lu.perm_c, ident)):
        raise RuntimeError("the boundary-last factor of H was pivoted or reordered, "
                           "so its trailing block is not the Schur complement; "
                           "H should be SPD")
    U_bb = _trailing_block(lu.U, ni)
    chol = np.ascontiguousarray(U_bb.T)
    chol /= np.sqrt(np.diag(U_bb))
    T = chol @ chol.T
    return 0.5 * (T + T.T), chol


def _schur_and_order(H: sp.spmatrix, n_interior: int, interior_order=None):
    """``schur_dtn(H, n_interior)``, its lower Cholesky factor, and the
    boundary-last position ``pos[i]`` of each dof i in the factor both were
    read from.

    The interior takes the column order ``interior_order`` (a permutation of
    the interior dofs, as SuperLU's ``perm_c``: dof i at position
    ``interior_order[i]``), or when None that of a fill-reducing factor of
    H_ii.  Any permutation gives the same T; the order only sets the fill.
    """
    n = H.shape[0]
    ni = n_interior
    Hc = H.tocsc()
    if ni == 0:
        T = Hc.toarray()
        return T, np.linalg.cholesky(T), np.arange(n)
    if interior_order is None:
        try:
            interior_order = _splu_spd(Hc[:ni, :ni]).perm_c
        except RuntimeError as exc:  # pragma: no cover - signals an assembly bug
            raise RuntimeError("interior block of H is singular; H should be SPD") from exc
    pos = np.concatenate([interior_order, np.arange(ni, n)])
    return (*_trailing_schur(Hc, pos, ni), pos)


def schur_dtn(H: sp.spmatrix, n_interior: int) -> np.ndarray:
    """Schur complement T = H_bb - H_bi H_ii^-1 H_ib of an SPD matrix onto
    its trailing boundary block; H itself when it has no interior dofs.

    T is not formed by solving an interior factor against the n_b columns
    of H_ib.  H is factored once, with the interior dofs in the column order
    of a fill-reducing factor of H_ii and the boundary dofs last, and T is
    the trailing block of that factor (see ``_trailing_schur``).  The
    interior factor is made only for its column order and, like the
    boundary-last factor, is dropped on return.  The factor takes its pivots
    on the diagonal in the given order, which is safe because H is SPD: each
    reduced matrix of the elimination is SPD again, so every pivot is
    positive and no entry grows past the largest diagonal entry of H.  A
    factor that was pivoted or reordered anyway raises ``RuntimeError``
    instead of giving a wrong T.
    """
    return _schur_and_order(H, n_interior)[0]


def _real_columns(v: np.ndarray) -> np.ndarray:
    """A complex vector or column block as a real column block, without a copy.

    An ``(n,)`` vector becomes ``(n, 2)``, an ``(n, m)`` block ``(n, 2m)``:
    the real and imaginary parts of each column are adjacent real columns.
    """
    return np.ascontiguousarray(v, dtype=complex).view(np.float64).reshape(len(v), -1)


def _complex_columns(Y: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_real_columns`, shaped as a vector if ``like`` is one."""
    Z = np.ascontiguousarray(Y).view(complex)
    return Z if like.ndim > 1 else Z[:, 0]


def _real_op(op, v: np.ndarray) -> np.ndarray:
    """``op(v)`` for a real linear map ``op`` of vectors and column blocks.

    A real ``v`` goes to ``op`` as is; a complex vector or column block goes
    through ``op`` once, as its real and imaginary parts in real columns.
    Real factors and matrices so stay real: numpy would multiply mixed real
    and complex operands outside BLAS, and ``solve_triangular`` would cast
    its factor to complex on every call.
    """
    if not np.iscomplexobj(v):
        return op(v)
    return _complex_columns(op(_real_columns(v)), v)


class DtnBlock:
    """Boundary impedance ``T`` of one subdomain: the Schur complement of
    its volume norm Gram H onto the boundary dofs, from :func:`schur_dtn`.

    ``chol`` is the lower Cholesky factor of T, read off the same factor.
    ``order`` is the boundary-last dof order of the factor T was read off:
    local dof i sits at position ``order[i]``, the interior in a
    fill-reducing column order and the boundary last, in place.  The local
    impedance problem has the sparsity of H, so its factor takes the same
    order.  The interior order is that of a factor of H_ii, or
    ``interior_order`` when given: it depends on the sparsity of H only, so
    subdomains with the same pattern can share it.  No factor of H outlives
    the build.
    """

    def __init__(self, forms: LocalForms, interior_order=None):
        self.T, self.chol, self.order = _schur_and_order(forms.H, forms.n_interior,
                                                         interior_order)


def _boundary_edge_lengths(mesh: Mesh) -> np.ndarray:
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    return np.linalg.norm(b - a, axis=1)


def _gamma_positions(mesh: Mesh, gamma_dofs: np.ndarray) -> np.ndarray:
    pos = np.full(mesh.num_vertices, -1, dtype=np.int64)
    pos[gamma_dofs] = np.arange(len(gamma_dofs))
    return pos


def _boundary_form(mesh: Mesh, gamma_dofs: np.ndarray, elem: np.ndarray) -> np.ndarray:
    """Dense assembly of ``(ne, 2, 2)`` element matrices over the boundary edges."""
    pos = _gamma_positions(mesh, gamma_dofs)[mesh.boundary_edges]
    out = np.zeros((len(gamma_dofs), len(gamma_dofs)))
    np.add.at(out, (pos[:, :, None], pos[:, None, :]), elem)
    return out


def boundary_mass(mesh: Mesh, gamma_dofs: np.ndarray) -> np.ndarray:
    """1D mass matrix along the outer boundary (dense, SPD)."""
    h = _boundary_edge_lengths(mesh)[:, None, None]
    return _boundary_form(mesh, gamma_dofs, (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]]))


def boundary_stiffness(mesh: Mesh, gamma_dofs: np.ndarray) -> np.ndarray:
    """1D stiffness matrix along the outer boundary (dense, PSD)."""
    h = _boundary_edge_lengths(mesh)[:, None, None]
    return _boundary_form(mesh, gamma_dofs, (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]]))


def boundary_h1_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float):
    """Boundary H1 surrogate for the outer impedance: K_Gamma + gamma^-1 M_Gamma.

    Returns (T, L, F): L the lower Cholesky factor of T, and F the
    tridiagonal T as a sparse matrix, the form whose Schur complement onto
    the boundary is T with no dofs to eliminate (see ``collar_impedance``).
    """
    T = boundary_stiffness(mesh, gamma_dofs) + boundary_mass(mesh, gamma_dofs) / gamma
    T = 0.5 * (T + T.T)
    return T, np.linalg.cholesky(T), sp.csc_matrix(T)


def _collar_forms(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float) -> LocalForms:
    """Forms of the one-cell exterior collar, with ``n_interior`` its dofs
    off the boundary and the boundary vertices last, in ``gamma_dofs`` order."""
    dx = mesh.width / mesh.nx
    dy = mesh.height / mesh.ny
    big = build_rect_mesh(mesh.nx + 2, mesh.ny + 2,
                          mesh.width + 2 * dx, mesh.height + 2 * dy)
    big = replace(big, vertices=big.vertices - np.array([dx, dy]))

    # the ring is the outermost layer of cells; each cell holds two
    # consecutive triangles, cells row by row
    ring = np.ones((mesh.ny + 2, mesh.nx + 2), dtype=bool)
    ring[1:-1, 1:-1] = False
    ring_ids = np.flatnonzero(np.repeat(ring.ravel(), 2))
    ring_verts = np.unique(big.triangles[ring_ids])

    # Boundary vertex (i, j) of the mesh is vertex (i+1, j+1) of the collar grid.
    j, i = np.divmod(gamma_dofs, mesh.nx + 1)
    inner = (j + 1) * (mesh.nx + 3) + i + 1
    tol = 1e-9 * max(mesh.width, mesh.height)
    if not np.allclose(big.vertices[inner], mesh.vertices[gamma_dofs], rtol=0, atol=tol):
        raise RuntimeError("collar mesh does not line up with the boundary")

    # Order the ring dofs exterior first so the Schur elimination lands on
    # the boundary block.
    others = np.setdiff1d(ring_verts, inner)
    return _assemble_on(big, ring_ids, np.concatenate([others, inner]), len(others),
                        Coefficients(k=1.0, gamma=gamma))


def collar_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float):
    """Exterior-collar surrogate for the outer impedance.

    Meshes a one-cell-thick ring around the rectangle with the same grid
    spacing, assembles K + gamma^-2 M on it with the natural condition on
    the outer rim, and eliminates every collar dof except those matching
    the boundary vertices.  The result is real SPD by construction.
    Returns (T, L, F): L the lower Cholesky factor of T read off the same
    factor (see :func:`schur_dtn`), and F the sparse collar form H, the
    other collar dofs first and the boundary vertices last in
    ``gamma_dofs`` order, whose Schur complement onto those last rows is T.
    """
    lf = _collar_forms(mesh, gamma_dofs, gamma)
    T, chol, _ = _schur_and_order(lf.H, lf.n_interior)
    return T, chol, lf.H.tocsc()


class _StackedBlocks:
    """Square blocks on the diagonal of a block-diagonal matrix, stacked by size.

    The blocks of one size are one ``(g, n, n)`` array, and the product of
    all blocks with a flat array is one ``np.matmul`` per size, on the rows
    of those blocks gathered by one index array.  The products of all sizes
    are put back in flat order by one more gather, ``take`` with the
    inverse of the stacked row order: numpy gathers rows far faster than it
    assigns them through an index array.  ``blocks`` are views of the
    stacks, in the given order.
    """

    def __init__(self, blocks):
        sizes = [len(b) for b in blocks]
        offsets = _offsets(sizes)
        views = [None] * len(blocks)
        self.groups = []
        for n in sorted(set(sizes)):
            ids = [i for i, s in enumerate(sizes) if s == n]
            stack = np.stack([blocks[i] for i in ids])
            rows = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in ids])
            self.groups.append((stack, rows))
            for k, i in enumerate(ids):
                views[i] = stack[k]
        self.blocks = tuple(views)
        self.real = not any(np.iscomplexobj(stack) for stack, _ in self.groups)
        # the stacked position of each flat row
        self._flat_order = np.argsort(np.concatenate([rows for _, rows in self.groups]))

    def matmul(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """The product of every block (or its transpose) with its rows of
        ``x``, a vector or column block; a complex ``x`` meets real blocks as
        its real and imaginary parts in real columns."""
        if self.real and np.iscomplexobj(x):
            return _complex_columns(self.matmul(_real_columns(x), transpose), x)
        parts = []
        for stack, rows in self.groups:
            g, n = stack.shape[:2]
            A = stack.transpose(0, 2, 1) if transpose else stack
            Y = np.matmul(A, x.take(rows, axis=0).reshape(g, n, -1))
            parts.append(Y.reshape((g * n,) + x.shape[1:]))
        return np.concatenate(parts).take(self._flat_order, axis=0)


class BlockImpedance:
    """Block-diagonal SPD impedance T = diag(T_Gamma, T_1, ..., T_J).

    Holds the lower Cholesky factor of every block: ``chol`` gives those
    already at hand (None for a block to factor here), such as the factors
    :class:`DtnBlock` and the outer surrogates return with their blocks; a
    block factored here must be symmetric.  ``whiten`` maps a dual
    field to coordinates w = L^-1 q whose Euclidean norm equals the T^-1
    norm, which turns the skeleton metric into the plain l2 metric for
    solvers and singular value computations.  The skeleton operators are
    applied in those coordinates directly; whitening happens only where a
    dual field enters or leaves them.

    Fields are flat (see :class:`~helmskel.traces.SkeletonField`).  The
    blocks of T and of L are stacked by size, and each product with them
    is one real ``np.matmul`` per block size, the complex array, vector or
    column block, viewed as one real column block with the real and
    imaginary part of each column adjacent (``factor_product``).
    """

    def __init__(self, blocks, chol=None):
        blocks = [np.asarray(b) for b in blocks]
        factors = list(chol) if chol is not None else [None] * len(blocks)
        for i, b in enumerate(blocks):
            if factors[i] is not None:
                continue
            if not np.allclose(b, b.T, rtol=0, atol=1e-12 * (1 + np.abs(b).max())):
                raise ValueError(f"impedance block {i} is not symmetric")
            factors[i] = np.linalg.cholesky(b)
        self._t = _StackedBlocks(blocks)
        self._l = _StackedBlocks(factors)
        self.blocks = self._t.blocks
        self.chol = self._l.blocks
        self.sizes = tuple(b.shape[0] for b in self.blocks)
        self.offsets = _offsets(self.sizes)
        self.total = self.offsets[-1]

    def _field(self, data, kind: str) -> SkeletonField:
        return SkeletonField.wrap(data, self.offsets, kind)

    def factor_product(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """L x, or L^T x with ``transpose``, for a flat vector or column block."""
        return self._l.matmul(x, transpose)

    # -- block-wise algebra -------------------------------------------------

    def apply(self, field) -> SkeletonField:
        """T v: primal field to dual field."""
        if field.kind != "primal":
            raise ValueError("impedance applies to primal fields")
        return self._field(self._t.matmul(field.data), "dual")

    def solve(self, field) -> SkeletonField:
        """T^-1 q: dual field to primal field."""
        if field.kind != "dual":
            raise ValueError("impedance solve expects dual fields")
        X = _real_columns(field.data)
        Y = np.empty_like(X)
        o = self.offsets
        for L, a, b in zip(self.chol, o, o[1:]):
            Y[a:b] = sla.cho_solve((L, True), X[a:b], check_finite=False)
        return self._field(_complex_columns(Y, field.data), "primal")

    def norm(self, field) -> float:
        """T norm of a primal field, T^-1 norm of a dual field."""
        if field.kind != "primal":
            return float(np.linalg.norm(self.whiten(field)))
        return float(np.linalg.norm(self.factor_product(field.data, transpose=True)))

    # -- whitening ------------------------------------------------------------

    def whiten(self, field) -> np.ndarray:
        """Coordinates w = L^-1 q of a dual field, ||w||_2 = ||q||_T^-1.

        A field of m columns gives an ``(n, m)`` column block.  Each block
        is one LAPACK ``dtrtrs`` on ``L^T``, the call ``solve_triangular``
        makes, without its per-call checks.
        """
        if field.kind != "dual":
            raise ValueError("whitening is defined for dual fields")
        X = _real_columns(field.data)
        Y = np.empty_like(X)
        o = self.offsets
        # L^T of a C-ordered L is a Fortran-ordered view: LAPACK reads it as is
        for L, a, b in zip(self.chol, o, o[1:]):
            Y[a:b] = _dtrtrs(L.T, X[a:b], lower=0, trans=1)[0]
        return _complex_columns(Y, field.data)

    def unwhiten(self, w: np.ndarray) -> SkeletonField:
        """Inverse of :meth:`whiten`, for a vector or an ``(n, m)`` column block."""
        return self._field(self.factor_product(w), "dual")

    def zeros(self, kind: str) -> SkeletonField:
        return self._field(np.zeros(self.total, complex), kind)
