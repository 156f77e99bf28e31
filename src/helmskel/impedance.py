"""Block impedance operator: the Schur complements of the norm forms.

Each trace block carries a real SPD matrix T_b, the Schur complement onto
its boundary rows of a sparse SPD form that :mod:`helmskel.assembly`
builds: for a subdomain, the volume norm Gram H = K + gamma^-2 M, whose
Schur complement is the discrete Dirichlet-to-Neumann map of the operator
-Laplace + gamma^-2; for the outer boundary, the form F of an outer
surrogate, boundary last (T_Gamma itself when F has no other dofs).  The
exchange operator builds its sparse system from F, not the dense T_Gamma.

Every Schur complement of the package is the trailing block of one kind
of sparse factor, ``_BoundaryLastFactor``, made with the boundary dofs
last and no column reordering.  ``DtnBlock`` reads every T_b that way,
unpivoted, which SPD allows, and with no dense solve against the
boundary columns; the factor is dropped, so a built problem holds no
interior factor and no harmonic lifting.  The boundary-last order of a
subdomain's factor (``DtnBlock.order``) is passed on to the factor of its
impedance problem, which has the same sparsity and gives the local
scattering block (:mod:`helmskel.skeleton`).  Subdomains with bitwise equal
forms (the congruent cells of a checkerboard whose vertex coordinates are
exact) share one ``DtnBlock``, so each distinct T_b is computed once.

The induced norms ||v||_T and ||q||_T^-1 are the working metric of the
whole skeleton formulation.  The Cholesky factors L_b of the blocks double
as the whitening transform w = L^-1 q.  The skeleton operators act in
those coordinates only, where the T^-1 norm is Euclidean and the exchange
takes one product with L and one with L^T; a dual field is whitened on
the way in and unwhitened on the way out, and T v of a primal field
whitens to L^T v with no solve.  Equal-size blocks of T and of L are
stacked, so each such product is one matrix product per block size, and a
block that several subdomains share is held once and applied to all their
rows in one product.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import _offsets
from .traces import SkeletonField

_dtrtrs = sla.get_lapack_funcs("trtrs", dtype=np.float64)

__all__ = [
    "DtnBlock",
    "BlockImpedance",
]


# SuperLU keeps the diagonal pivot of a column unless it is smaller than this
# fraction of the column's largest entry.
_PIVOT_THRESHOLD = 0.1


def _splu_symmetric(A: sp.spmatrix, pivot: float = 0.0):
    """Sparse LU, in symmetric mode, of a (complex) symmetric CSC matrix.

    A minimum-degree ordering of A + A^T gives less fill on these 2-D grids
    than the default column ordering.  A column keeps its diagonal pivot
    unless it is below ``pivot`` times the column's largest entry: 0 for an
    SPD matrix, which needs no pivoting, ``_PIVOT_THRESHOLD`` for an
    indefinite one.
    """
    return spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=pivot,
                     options=dict(SymmetricMode=True))


class _BoundaryLastFactor:
    """Sparse LU factor of a square matrix C with its boundary dofs last.

    Row and column i of C move to ``pos[i]``, which leaves the trailing
    ``n - n_interior`` (boundary) rows and columns in place, and SuperLU
    factors the permuted matrix as P_r C = L U in that column order (no
    column reordering, symmetric mode), keeping the diagonal pivot of a
    column unless it is below ``pivot`` times the column's largest entry.
    Gaussian elimination of the leading rows leaves the Schur complement of
    C onto the boundary in the trailing block: L_bb U_bb = P_b Sigma, with
    P_b the row swaps among the boundary rows, unless a swap crossed the
    interior/boundary split.  Every Schur complement of the package is read
    off such a factor, the impedance blocks T_b with ``pivot`` 0 and the
    local scattering blocks with threshold pivoting.

    ``solve`` takes and returns vectors and column blocks in C's own order;
    ``norm1`` is the 1-norm of C, for condition estimates.  Both ``norm1``
    and ``dofs``, the inverse of ``pos``, are computed on first read, so a
    factor that is only read off pays for neither; the permuted copy of C
    is kept until ``norm1`` is read.
    """

    def __init__(self, C: sp.spmatrix, pos: np.ndarray, n_interior: int, pivot: float):
        n = C.shape[0]
        coo = C.tocoo()
        # the permuted matrix, with duplicate triplets of a COO matrix C summed
        self._moved = sp.csc_matrix((coo.data, (pos[coo.row], pos[coo.col])), shape=(n, n))
        self.lu = spla.splu(self._moved, permc_spec="NATURAL", diag_pivot_thresh=pivot,
                            options=dict(SymmetricMode=True))
        self.pos = pos
        self.n_interior = n_interior

    @cached_property
    def norm1(self) -> float:
        """The 1-norm of C, the largest absolute column sum."""
        moved, self._moved = self._moved, None
        cols = np.repeat(np.arange(moved.shape[1]), np.diff(moved.indptr))
        return float(np.bincount(cols, np.abs(moved.data), minlength=moved.shape[1]).max())

    @cached_property
    def dofs(self) -> np.ndarray:
        """The dof at each position."""
        return np.argsort(self.pos)

    def solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """C^-1 b, or C^-T b or C^-H b with ``trans`` "T" or "H"."""
        return self.lu.solve(b[self.dofs], trans=trans)[self.pos]

    def trailing(self, which: str = "LU"):
        """Dense trailing blocks, the rows and columns from ``n_interior`` on,
        of the factors named in ``which``: L_bb and U_bb by default.

        ``lu.L`` and ``lu.U`` are CSC copies of the whole factor, which
        SuperLU caches for as long as the factor lives (``lu.U is lu.U``).
        Each is emptied after its read, so a kept factor holds its own
        storage only; its ``L`` and ``U`` then read as zero, while ``solve``
        is untouched.
        """
        ni = self.n_interior
        nb = self.lu.shape[0] - ni
        blocks = []
        for F in (getattr(self.lu, name) for name in which):
            a = F.indptr[ni]
            rows = F.indices[a:] - ni
            keep = rows >= 0
            cols = np.repeat(np.arange(nb), np.diff(F.indptr[ni:]))
            blocks.append(np.zeros((nb, nb), F.dtype))
            blocks[-1][rows[keep], cols[keep]] = F.data[a:][keep]
            F.data = np.zeros(0, F.dtype)
            F.indices = np.zeros(0, F.indices.dtype)
            F.indptr = np.zeros_like(F.indptr)
        return blocks


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
    """Impedance block ``T``, the Schur complement H_bb - H_bi H_ii^-1 H_ib of
    a real SPD matrix H onto its trailing ``n - n_interior`` (boundary) rows
    and columns (H itself with no interior dofs), and ``chol``, its lower
    Cholesky factor.  The one reader of every impedance block: T_j from a
    subdomain's volume norm Gram, T_Gamma from the form of an outer surrogate.

    H is factored once by a :class:`_BoundaryLastFactor` without pivoting,
    which SPD allows: each reduced matrix of the elimination is SPD again, so
    every pivot is positive and no entry grows past the largest diagonal
    entry of H.  A symmetric matrix has U = diag(U) L^T, so T = L_bb U_bb =
    R R^T with R = U_bb^T diag(U_bb)^-1/2 = ``chol``.  Only the trailing
    columns of U are read, no dense solve against the boundary columns is
    made, and the factor is dropped.  A factor that was pivoted or reordered
    anyway raises ``RuntimeError`` instead of giving a wrong T.

    ``order`` is the factor's boundary-last dof order: dof i at position
    ``order[i]``, the interior in the column order ``interior_order`` (as
    SuperLU's ``perm_c``) or, when None, that of a fill-reducing factor of
    H_ii, and the boundary last, in place.  Any order gives the same T.  It
    depends on the sparsity of H only, so blocks of one pattern can share
    it, and a subdomain's impedance problem, of the same sparsity, takes it.
    Blocks whose H is bitwise equal, pattern and data, share the whole
    ``DtnBlock`` (``problem.build_problem`` builds one per distinct H), so
    their T, chol and order are the same objects.
    """

    def __init__(self, H: sp.spmatrix, n_interior: int, interior_order=None):
        n, ni = H.shape[0], n_interior
        Hc = H.tocsc()
        if ni == 0:
            self.T = Hc.toarray()
            self.chol = np.linalg.cholesky(self.T)
            self.order = np.arange(n)
            return
        if interior_order is None:
            try:
                interior_order = _splu_symmetric(Hc[:ni, :ni]).perm_c
            except RuntimeError as exc:  # pragma: no cover - signals an assembly bug
                raise RuntimeError("interior block of H is singular; H should be SPD") from exc
        self.order = np.concatenate([interior_order, np.arange(ni, n)])
        factor = _BoundaryLastFactor(Hc, self.order, ni, 0.0)
        lu, ident = factor.lu, np.arange(n)
        if not (np.array_equal(lu.perm_r, ident) and np.array_equal(lu.perm_c, ident)):
            raise RuntimeError("the boundary-last factor of H was pivoted or reordered, "
                               "so its trailing block is not the Schur complement; "
                               "H should be SPD")
        U_bb, = factor.trailing("U")
        chol = np.ascontiguousarray(U_bb.T)
        chol /= np.sqrt(np.diag(U_bb))
        T = chol @ chol.T
        self.T, self.chol = 0.5 * (T + T.T), chol


class _StackedBlocks:
    """Square blocks on the diagonal of a block-diagonal matrix, stacked.

    A block passed as the same object at several positions, a family of r
    members, is held once, and its product is one product with the rows of
    its members laid side by side: ``(n, r * m)`` for m columns.  The
    families of one size, dtype and r are one ``(g, n, n)`` array, and the
    product of all blocks with a flat array is one ``np.matmul`` per such
    group, on the rows of those blocks gathered by one index array, row i
    of every member of a family next to each other; a real group takes
    complex rows as real columns (:func:`_real_columns`), so it stays real.
    The products of all groups are put back in flat order by one more
    gather, ``take`` with the inverse of the stacked row order: numpy
    gathers rows far faster than it assigns them through an index array.
    ``blocks`` are views of the stacks, in the given order, one view per
    family.
    """

    def __init__(self, blocks):
        offsets = np.asarray(_offsets(len(b) for b in blocks))
        families = {}
        for i, b in enumerate(blocks):
            families.setdefault(id(b), []).append(i)
        groups = {}
        for members in families.values():
            b = blocks[members[0]]
            groups.setdefault((len(b), b.dtype, len(members)), []).append(members)
        views = [None] * len(blocks)
        self.groups = []
        for (n, _, _), fams in groups.items():
            stack = np.stack([blocks[members[0]] for members in fams])
            rows = np.concatenate([(np.arange(n)[:, None] + offsets[members]).ravel()
                                   for members in fams])
            self.groups.append((stack, rows))
            for view, members in zip(stack, fams):
                for i in members:
                    views[i] = view
        self.blocks = tuple(views)
        # the stacked position of each flat row
        self._flat_order = np.argsort(np.concatenate([rows for _, rows in self.groups]))

    def matmul(self, x: np.ndarray, transpose: bool = False) -> np.ndarray:
        """The product of every block (or its transpose) with its rows of
        ``x``, a vector or column block."""
        parts = []
        for stack, rows in self.groups:
            g, n = stack.shape[:2]
            A = stack.transpose(0, 2, 1) if transpose else stack
            X = x.take(rows, axis=0)
            split = np.iscomplexobj(X) and not np.iscomplexobj(A)
            Y = np.matmul(A, (_real_columns(X) if split else X).reshape(g, n, -1))
            if split:
                Y = _complex_columns(Y.reshape(len(X), -1), X)
            parts.append(Y.reshape(X.shape))
            del X  # freed now, not held through the next gather and the concatenation
        return np.concatenate(parts).take(self._flat_order, axis=0)


class BlockImpedance:
    """Block-diagonal SPD impedance T = diag(T_Gamma, T_1, ..., T_J).

    Holds the lower Cholesky factor of every block, ``chol``, as
    :class:`DtnBlock` reads it off with the block.  ``whiten`` maps a dual
    field to coordinates w = L^-1 q whose Euclidean norm equals the T^-1
    norm, which turns the skeleton metric into the plain l2 metric for
    solvers and singular value computations.  The skeleton operators act
    in those coordinates only; whitening happens only where a dual field
    enters or leaves them.

    Fields are flat (see :class:`~helmskel.traces.SkeletonField`).  The
    blocks of T and of L are stacked by size, and each product with them
    is one real ``np.matmul`` per block size, the complex array, vector or
    column block, viewed as one real column block with the real and
    imaginary part of each column adjacent (``factor_product``).  A block
    passed as the same object for several subdomains, as the ``DtnBlock``
    of a shared form is, is held once (:class:`_StackedBlocks`).
    """

    def __init__(self, blocks, chol):
        self._t = _StackedBlocks([np.asarray(b) for b in blocks])
        self._l = _StackedBlocks(list(chol))
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
