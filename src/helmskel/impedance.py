"""Block impedance operator: per-block Dirichlet-to-Neumann maps.

Each trace block carries a real SPD matrix T_b.  For a subdomain this is
the Schur complement of the volume norm Gram H = K + gamma^-2 M onto the
boundary dofs, i.e. the discrete Dirichlet-to-Neumann map of the operator
-Laplace + gamma^-2.  For the outer boundary there is no canonical
bounded exterior, so two SPD surrogates are provided: the Schur complement
of a one-cell exterior collar mesh (default), and a boundary H1 matrix.

The induced norms ||v||_T and ||q||_T^-1 are the working metric of the
whole skeleton formulation; the Cholesky factors of the blocks double as
the whitening transform used by Krylov solvers and the spectral harness.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import Mesh, build_rect_mesh
from .assembly import Coefficients, LocalForms, _assemble_on
from .traces import SkeletonField, _nonzero_blocks, _offsets

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


def schur_dtn(H: sp.spmatrix, n_interior: int):
    """Schur complement of an SPD matrix onto its trailing boundary block.

    Returns the dense boundary operator T = H_bb - H_bi H_ii^-1 H_ib, the
    interior factorization and the sparse coupling H_ib (both reused for
    harmonic lifting), or None for both when the block has no interior
    dofs.
    """
    n = H.shape[0]
    ni = n_interior
    Hc = H.tocsc()
    H_bb = Hc[ni:, ni:].toarray()
    if ni == 0:
        return H_bb, None, None
    H_ii = Hc[:ni, :ni]
    H_ib = Hc[:ni, ni:].tocsr()
    try:
        lu = _splu_spd(H_ii)
    except RuntimeError as exc:  # pragma: no cover - signals an assembly bug
        raise RuntimeError("interior block of H is singular; H should be SPD") from exc
    dense = H_ib.toarray()
    T = H_bb - dense.T @ lu.solve(dense)
    T = 0.5 * (T + T.T)
    return T, lu, H_ib


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
    """Boundary impedance of one subdomain plus its harmonic lifting.

    ``lift`` extends boundary data by the discrete (-Laplace + gamma^-2)
    harmonic function; ``lift_adjoint`` pairs a volume functional against
    the lifting basis.  Both reuse the interior factorization of H.
    """

    def __init__(self, forms: LocalForms):
        self.n_interior = forms.n_interior
        self.n_boundary = forms.n_boundary
        self.H = forms.H
        self.T, self._interior_lu, self._H_ib = schur_dtn(forms.H, forms.n_interior)

    def lift(self, v: np.ndarray) -> np.ndarray:
        """Harmonic extension of boundary values v into the full local vector."""
        if self.n_interior == 0:
            return np.asarray(v, dtype=complex).copy()
        u_i = -_real_op(self._interior_lu.solve, _real_op(self._H_ib.dot, v))
        return np.concatenate([u_i, v]).astype(complex)

    def lift_adjoint(self, phi: np.ndarray) -> np.ndarray:
        """Pair a local dual vector with the lifting: (lift)^T phi."""
        if self.n_interior == 0:
            return np.asarray(phi, dtype=complex).copy()
        ni = self.n_interior
        return phi[ni:] - _real_op(self._H_ib.T.dot,
                                   _real_op(self._interior_lu.solve, phi[:ni]))

    def h_energy(self, u: np.ndarray) -> float:
        """Squared volume norm u^H H u of a local vector."""
        return float(np.real(np.conj(u) @ (self.H @ u)))


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


def boundary_h1_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float) -> np.ndarray:
    """Boundary H1 surrogate for the outer impedance: K_Gamma + gamma^-1 M_Gamma."""
    T = boundary_stiffness(mesh, gamma_dofs) + boundary_mass(mesh, gamma_dofs) / gamma
    return 0.5 * (T + T.T)


def collar_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float) -> np.ndarray:
    """Exterior-collar surrogate for the outer impedance.

    Meshes a one-cell-thick ring around the rectangle with the same grid
    spacing, assembles K + gamma^-2 M on it with the natural condition on
    the outer rim, and eliminates every collar dof except those matching
    the boundary vertices.  The result is real SPD by construction.
    """
    dx = mesh.width / mesh.nx
    dy = mesh.height / mesh.ny
    big = build_rect_mesh(mesh.nx + 2, mesh.ny + 2,
                          mesh.width + 2 * dx, mesh.height + 2 * dy)
    big = replace(big, vertices=big.vertices - np.array([dx, dy]))

    cents = big.vertices[big.triangles].mean(axis=1)
    inside = ((cents[:, 0] > 0) & (cents[:, 0] < mesh.width)
              & (cents[:, 1] > 0) & (cents[:, 1] < mesh.height))
    ring_ids = np.flatnonzero(~inside)
    ring_verts = np.unique(big.triangles[ring_ids])

    # Match ring vertices on the inner rim to the mesh boundary dofs.
    from scipy.spatial import cKDTree

    tree = cKDTree(big.vertices[ring_verts])
    targets = mesh.vertices[gamma_dofs]
    dist, idx = tree.query(targets)
    tol = 1e-9 * max(mesh.width, mesh.height)
    if np.any(dist > tol):
        raise RuntimeError("collar mesh does not line up with the boundary")
    inner = ring_verts[idx]

    # Assemble H on the ring with dofs ordered exterior first so the
    # Schur elimination lands on the boundary block.
    others = np.setdiff1d(ring_verts, inner)
    lf = _assemble_on(big, ring_ids, np.concatenate([others, inner]), len(others),
                      Coefficients(k=1.0, gamma=gamma))
    T, _, _ = schur_dtn(lf.H, len(others))
    return T


class BlockImpedance:
    """Block-diagonal SPD impedance T = diag(T_Gamma, T_1, ..., T_J).

    Holds the Cholesky factor of every block.  ``whiten`` maps a dual
    field to coordinates whose Euclidean norm equals the T^-1 norm, which
    turns the skeleton metric into the plain l2 metric for solvers and
    singular value computations.

    Fields are flat (see :class:`~helmskel.traces.SkeletonField`): every
    method views the whole complex array, vector or column block, as one
    real column block, with the real and imaginary part of each column
    adjacent, and makes one real BLAS or LAPACK call per block into one
    preallocated output.  Products skip all-zero blocks.
    """

    def __init__(self, blocks):
        self.blocks = tuple(np.ascontiguousarray(b) for b in blocks)
        for i, b in enumerate(self.blocks):
            if not np.allclose(b, b.T, rtol=0, atol=1e-12 * (1 + np.abs(b).max())):
                raise ValueError(f"impedance block {i} is not symmetric")
        self.chol = tuple(np.linalg.cholesky(b) for b in self.blocks)
        # L^T of a C-ordered L is a Fortran-ordered view: LAPACK reads it as is
        self._upper = tuple(L.T for L in self.chol)
        self.sizes = tuple(b.shape[0] for b in self.blocks)
        self.offsets = _offsets(self.sizes)
        self.total = self.offsets[-1]

    def _field(self, data, kind: str) -> SkeletonField:
        return SkeletonField.wrap(data, self.offsets, kind)

    def _products(self, mats, data: np.ndarray) -> np.ndarray:
        """``mats[b] @ data_b`` for every block b, as real columns; an
        all-zero block of ``data`` gives a zero block without a product."""
        X = _real_columns(data)
        Y = np.zeros(X.shape)
        o = self.offsets
        for A, a, b, live in zip(mats, o, o[1:], _nonzero_blocks(data, o)):
            if live:
                np.dot(A, X[a:b], out=Y[a:b])
        return _complex_columns(Y, data)

    # -- block-wise algebra -------------------------------------------------

    def apply(self, field) -> SkeletonField:
        """T v: primal field to dual field."""
        if field.kind != "primal":
            raise ValueError("impedance applies to primal fields")
        return self._field(self._products(self.blocks, field.data), "dual")

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
        return float(np.linalg.norm(self._products(self._upper, field.data)))

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
        for U, a, b in zip(self._upper, o, o[1:]):
            Y[a:b] = _dtrtrs(U, X[a:b], lower=0, trans=1)[0]
        return _complex_columns(Y, field.data)

    def unwhiten(self, w: np.ndarray) -> SkeletonField:
        """Inverse of :meth:`whiten`, for a vector or an ``(n, m)`` column block."""
        return self._field(self._products(self.chol, w), "dual")

    def zeros(self, kind: str) -> SkeletonField:
        return self._field(np.zeros(self.total, complex), kind)
