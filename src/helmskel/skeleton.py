"""Exchange operator, scattering operator and the skeleton system.

The cavity problem is recast as an equation for a tuple q of outgoing
Robin traces on the skeleton: (Id + Pi S) q = f.  S flips incoming to
outgoing traces block by block; Pi is the non-local exchange operator, a
reflection across the single-trace subspace in the inverse-impedance
metric.  Pi couples every block meeting a skeleton dof at once, which is
exactly what makes cross points unproblematic here.

Both operators act only in the whitened coordinates w = L^-1 q of the
impedance Cholesky factor L, vectors or ``(n, m)`` column blocks, as
S~ = L^-1 S L and Pi~ = L^-1 Pi L; the T^-1 metric is Euclidean there.
``_whitened_apply``, w + Pi~ S~ w, is their one composition: the solvers
and the spectral harness apply it with no whitening inside a step, and
``skeleton_apply`` wraps it in one whitening and one unwhitening.  Each
subdomain keeps one sparse factor of its impedance problem
C_j = A_j - i B_j^T T_j B_j, made with the boundary dofs last.  The
whitened block S~_j = I + 2i L_j^T Sigma_j^-1 L_j, with Sigma_j the Schur
complement of C_j onto the boundary, is read off that factor once and
kept dense, stacked with the blocks of its size, so applying S~ takes one
matrix product per block size and no sparse solve.  The factor serves the
volume solves: the right-hand side, the recovery of the volume solution
and the Cauchy pairs.  The exchange keeps one sparse factor of a bordered
matrix K whose Schur complement onto the skeleton dofs is G = E^T T E:
the outer block enters K as the sparse form it is the Schur complement of
(the collar's volume Gram), so no dense T_Gamma row enters the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import restriction_apply
from .geometry import SkeletonIndex
from .impedance import (BlockImpedance, _complex_columns, _real_columns, _real_op,
                        _splu_spd, _StackedBlocks, _trailing_block)
from .traces import (SkeletonField, VolumeTuple, _nonzero_blocks, _zero_extension,
                     trace_adjoint, trace_apply)

__all__ = [
    "AssumptionViolation",
    "ExchangeOperator",
    "LocalImpedanceSolver",
    "ScatteringOperator",
    "CauchyPair",
    "RecoveredSolution",
    "apply_A",
    "skeleton_apply",
    "skeleton_rhs",
    "recover_volume",
    "cauchy_decompose",
    "kernel_lift",
    "cauchy_pair_from",
    "cauchy_membership_residual",
]


class AssumptionViolation(RuntimeError):
    """A local impedance problem is numerically singular.

    The theory requires every block operator A_b - i B_b^T T_b B_b to be
    invertible.  Discretely this can fail for unlucky coefficient choices;
    the failure must be loud, with a hint at which knobs to turn.
    """


def _exchange_system(index: SkeletonIndex, impedance: BlockImpedance,
                     outer_form: sp.spmatrix) -> sp.csc_matrix:
    """K, the sparse SPD matrix whose Schur complement onto its first
    ``n_sigma`` rows and columns is G = E^T T E.

    ``outer_form`` is a sparse SPD matrix F with the outer dofs Gamma last,
    in the order of impedance block 0, whose Schur complement onto them is
    T_Gamma; its leading rows are extra unknowns of K, after the skeleton
    dofs.  Each subdomain block T_j adds onto its skeleton dofs and F adds
    onto the Gamma dofs and the extra unknowns, so eliminating the extras
    gives back E^T T E, without the dense T_Gamma ever entering K.  With no
    extra unknowns (F = T_Gamma) K is G.  K stores no explicit zero: a
    banded F adds its band only, so the fill of the factor follows the
    nonzeros of K.
    """
    n = index.n_sigma
    n_extra = outer_form.shape[0] - impedance.sizes[0]
    F = outer_form.tocoo()
    outer = np.concatenate([n + np.arange(n_extra), index.block_map[0]]).astype(np.int32)
    maps = [m.astype(np.int32) for m in index.block_map[1:]]
    rows = np.concatenate([outer[F.row]] + [np.repeat(m, len(m)) for m in maps])
    cols = np.concatenate([outer[F.col]] + [np.tile(m, len(m)) for m in maps])
    vals = np.concatenate([F.data] + [T.ravel() for T in impedance.blocks[1:]])
    K = sp.csc_matrix((vals, (rows, cols)), shape=(n + n_extra, n + n_extra))
    K.eliminate_zeros()
    return K


class ExchangeOperator:
    """Reflection across the impedance image of the single-trace space.

    With E the single-trace embedding and G = E^T T E, the projection is
    Q q = T E G^-1 E^T q and the exchange operator is Pi = 2Q - Id.  Pi is
    an involution and an isometry for the T^-1 norm; it fixes tuples of
    matching Neumann data and negates tuples of opposite Neumann jumps.

    ``apply`` takes whitened coordinates w = L^-1 q, a vector or an
    ``(n, m)`` column block, on which the exchange is the Euclidean
    reflection Pi~ w = 2 L^T E G^-1 E^T L w - w; the products with L and
    L^T are one matrix product per block size.

    G is never formed.  ``outer_form`` is the sparse form F whose Schur
    complement onto its trailing rows is the outer block T_Gamma (the
    collar's H, or T_Gamma itself, as the outer surrogates return it), and
    G is the Schur complement onto the skeleton dofs of the sparse bordered
    matrix K of :func:`_exchange_system`, which holds the subdomain blocks
    and F.  K is factored once by a real sparse LU (symmetric mode,
    fill-reducing ordering of K + K^T), and G^-1 y is the first ``n_sigma``
    rows of K^-1 [y; 0]; only the factor is kept, not F.  Everything runs
    in real arithmetic: a complex array is solved as its real and imaginary
    parts, real columns of one solve.  E^T is one real sparse sum, padded
    with zero rows for the extra unknowns of K, and E one gather of
    ``index.flat_map``.  The m columns of a column block are applied at once.
    """

    def __init__(self, index: SkeletonIndex, impedance: BlockImpedance,
                 outer_form: sp.spmatrix):
        self.index = index
        self.impedance = impedance
        self._flat_map = index.flat_map
        K = _exchange_system(index, impedance, outer_form)
        S = index.dof_sum.real
        indptr = np.pad(S.indptr, (0, K.shape[0] - S.shape[0]), mode="edge")
        self._sum = sp.csr_matrix((S.data, S.indices, indptr), shape=(K.shape[0], S.shape[1]))
        self._lu = _splu_spd(K)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Pi~ w = 2 L^T E G^-1 E^T L w - w of whitened coordinates."""
        imp = self.impedance
        X = imp.factor_product(_real_columns(w))
        X = self._lu.solve(self._sum @ X).take(self._flat_map, axis=0)
        Y = imp.factor_product(X, transpose=True)
        return 2.0 * _complex_columns(Y, w) - w


# Largest block whose inverse the rcond fallback forms densely (64 MB complex).
_DENSE_RCOND_MAX = 2000

# SuperLU keeps the diagonal pivot of a column unless it is smaller than this
# fraction of the column's largest entry.
_PIVOT_THRESHOLD = 0.1

# Smallest reciprocal condition estimate a local impedance factor may have.
_RCOND_FLOOR = 1e-12


def _estimate_rcond(C: sp.spmatrix, lu, block: int) -> float:
    """1-norm reciprocal condition estimate of a factored sparse matrix.

    The estimator's products with C^-1 and C^-H are each one solve on a
    block of columns.  If the estimator fails, blocks of up to
    ``_DENSE_RCOND_MAX`` dofs take the exact 1-norm of the inverse from the
    factor applied to the identity; larger blocks raise
    :class:`AssumptionViolation`, since an unchecked factorization would
    disable the solvability guard.
    """
    norm_c = float(abs(C).sum(axis=0).max())

    def solve_h(X):
        return lu.solve(X, trans="H")

    inv_op = spla.LinearOperator(C.shape, dtype=complex, matvec=lu.solve,
                                 rmatvec=solve_h, matmat=lu.solve, rmatmat=solve_h)
    try:
        norm_inv = float(spla.onenormest(inv_op))
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        n = C.shape[0]
        if n > _DENSE_RCOND_MAX:
            raise AssumptionViolation(
                f"condition estimate of block {block} ({n} dofs) failed; "
                "its solvability cannot be checked") from exc
        norm_inv = float(np.abs(lu.solve(np.eye(n, dtype=complex))).sum(axis=0).max())
    if norm_c == 0 or not 0 < norm_inv < np.inf:
        return 0.0
    return 1.0 / (norm_c * norm_inv)


def _bordered(A: sp.spmatrix, T: np.ndarray, pos: np.ndarray, n_interior: int):
    """C = A - i B^T T B in CSC form, with row and column i at ``pos[i]``;
    ``pos`` leaves the trailing (boundary) rows in place."""
    n, ni = A.shape[0], n_interior
    Ac = A.tocoo()
    nb = n - ni
    rows = np.concatenate([pos[Ac.row], np.repeat(np.arange(ni, n), nb)])
    cols = np.concatenate([pos[Ac.col], np.tile(np.arange(ni, n), nb)])
    vals = np.concatenate([Ac.data.astype(complex), -1j * T.ravel()])
    return sp.csc_matrix((vals, (rows, cols)), shape=(n, n))


def _read_trailing_factors(lu, n_interior: int):
    """Dense trailing blocks L_bb and U_bb of a SuperLU factor.

    ``lu.L`` and ``lu.U`` are CSC copies of the whole factor, which SuperLU
    caches for as long as the factor lives (``lu.U is lu.U``).  They are
    emptied after the read, so a kept factor holds its own storage only;
    its ``L`` and ``U`` then read as zero, while ``solve`` is untouched.
    """
    L, U = lu.L, lu.U
    blocks = _trailing_block(L, n_interior), _trailing_block(U, n_interior)
    for F in (L, U):
        F.data = np.zeros(0, F.dtype)
        F.indices = np.zeros(0, F.indices.dtype)
        F.indptr = np.zeros_like(F.indptr)
    return blocks


def _boundary_last_lu(C: sp.csc_matrix):
    """SuperLU factor P_r C = L U of C in its given column order (no column
    reordering) with threshold pivoting at ``_PIVOT_THRESHOLD``."""
    return spla.splu(C, permc_spec="NATURAL", diag_pivot_thresh=_PIVOT_THRESHOLD,
                     options=dict(SymmetricMode=True))


def _whitened_scattering_block(lu, L: np.ndarray, n_interior: int):
    """S~ = I + 2i L^T Sigma^-1 L for a real matrix L, with Sigma the Schur
    complement onto the trailing ``n - n_interior`` rows and columns of the
    matrix C that ``lu`` factors (from :func:`_boundary_last_lu`).  With L
    the lower Cholesky factor of T, this is L^-1 S L for the scattering
    block S = I + 2i T Sigma^-1.

    Returns S~ and whether the factor was pivoted across the interior/boundary
    split.  If it was not, the trailing block of the factor is Sigma with
    its rows permuted by the boundary row swaps, L_bb U_bb = P_b Sigma, and
    Sigma^-1 L follows from two dense triangular solves against P_b L.
    Otherwise Sigma^-1 L = B C^-1 B^T L is one n_b-column solve with the
    factor.  One product with L^T ends both.
    """
    n, ni = lu.shape[0], n_interior
    rows = lu.perm_r[ni:] - ni
    crossed = rows.min(initial=0) < 0 or not np.array_equal(lu.perm_c, np.arange(n))
    if not crossed:
        # P_b moves row k of L to row rows[k]
        L_bb, U_bb = _read_trailing_factors(lu, ni)
        Z = np.empty(L.shape, complex, order="F")
        Z[rows] = L
        Z = sla.solve_triangular(L_bb, Z, lower=True, unit_diagonal=True,
                                 overwrite_b=True, check_finite=False)
        Z = sla.solve_triangular(U_bb, Z, overwrite_b=True, check_finite=False)
    else:
        E = np.zeros((n, L.shape[1]), complex)
        E[ni:] = L
        Z = lu.solve(E)[ni:]
    S = _real_op(L.T.dot, Z)
    S *= 2j
    S[np.diag_indices_from(S)] += 1.0
    return S, crossed


class _BoundaryLastFactor:
    """SuperLU factor of a matrix C whose row and column i sit at ``pos[i]``;
    ``solve`` takes and returns vectors and column blocks in C's own order."""

    def __init__(self, lu, pos: np.ndarray):
        self.lu = lu
        self.pos = pos
        self.dofs = np.argsort(pos)  # the dof at each position

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self.lu.solve(b[self.dofs])[self.pos]


class LocalImpedanceSolver:
    """One factor per subdomain of the impedance-shifted block operator,
    and the whitened scattering matrix read off it.

    Per subdomain this is C_j = A_j - i B_j^T T_j B_j, a complex symmetric
    sparse matrix bordered by the dense impedance on its boundary dofs.  It
    has the sparsity of the volume norm Gram H_j, so it is factored in the
    boundary-last order ``orders[j]`` of :class:`~helmskel.impedance.DtnBlock`
    (the interior in the fill-reducing column order of H_ii, the boundary
    dofs last), with SuperLU's threshold pivoting at ``_PIVOT_THRESHOLD``:
    C_j is indefinite, so a factor without pivoting is not safe.

    The factor gives the local Schur complement Sigma_j of C_j onto the
    boundary, and with it the dense block S~_j = I + 2i L_j^T Sigma_j^-1 L_j
    of the scattering operator in whitened coordinates, L_j the Cholesky
    factor of T_j (see :func:`_whitened_scattering_block`).  The blocks are
    kept stacked by size in ``whitened_blocks``.  Each is read off the
    trailing block of the factor unless a row swap crossed from the interior
    to the boundary rows; such a block takes an n_b-column solve with the
    same factor instead, and ``fallbacks`` counts it.  No option selects
    the path; the factor decides.

    The factor is the only one a subdomain keeps: ``solve_tuple`` applies
    it to loads, recovery and Cauchy pairs.  A reciprocal-condition estimate
    on it below ``_RCOND_FLOOR`` raises :class:`AssumptionViolation` instead
    of silently returning garbage.  The outer-boundary block is handled by
    the closed-form inverse of the boundary condition.
    """

    def __init__(self, forms, orders, impedance: BlockImpedance, bc):
        self.bc = bc
        lus = []
        for j, (lf, pos) in enumerate(zip(forms, orders)):
            C = _bordered(lf.A, impedance.blocks[j + 1], pos, lf.n_interior)
            try:
                lu = _boundary_last_lu(C)
            except RuntimeError as exc:
                raise AssumptionViolation(
                    f"impedance problem of block {j + 1} is singular; "
                    "perturb kappa or gamma and retry") from exc
            rcond = _estimate_rcond(C, lu, j + 1)
            if rcond < _RCOND_FLOOR:
                raise AssumptionViolation(
                    f"impedance problem of block {j + 1} is numerically singular "
                    f"(rcond ~ {rcond:.2e}); perturb kappa or gamma and retry")
            lus.append(_BoundaryLastFactor(lu, pos))
        # Every factor is made before any is read: the transient copies the
        # reads take then reuse one another's memory.
        blocks = [_whitened_scattering_block(f.lu, impedance.chol[j + 1], lf.n_interior)
                  for j, (lf, f) in enumerate(zip(forms, lus))]
        self.whitened_blocks = _StackedBlocks([S for S, _ in blocks])
        self.fallbacks = sum(crossed for _, crossed in blocks)
        self._lus = tuple(lus)

    def solve_tuple(self, phi: VolumeTuple) -> VolumeTuple:
        """(A - i B^T T B)^-1 applied to a dual tuple, blockwise.

        The only code that applies the local factors: the skeleton
        right-hand side, the volume recovery and the Cauchy pairs go
        through it (the scattering operator does not; its blocks are
        dense).  The result has the layout of ``phi``, vector or m columns,
        and is written into one new array.  A block that is all zero in
        ``phi`` (the boundary pair counts as one block) solves to zero
        without a solve.  Every block operator is complex symmetric, so
        this is also the transposed solve.
        """
        if phi.kind != "dual":
            raise ValueError("solve_tuple expects a dual tuple")
        o, data = phi.offsets, phi.data
        live = _nonzero_blocks(data, o)
        u = np.zeros(data.shape, complex)
        if live[0] or live[1]:
            u[:o[1]], u[o[1]:o[2]] = self.bc.impedance_inverse(*phi.gamma)
        for lu, a, b, nz in zip(self._lus, o[2:], o[3:], live[2:]):
            if nz:
                u[a:b] = lu.solve(data[a:b])
        return VolumeTuple.wrap(u, o, "primal")


class ScatteringOperator:
    """Blockwise map from incoming (p - iTv) to outgoing (p + iTv) traces.

    S q = q + 2i T B (A - i B^T T B)^-1 B^T q, block by block.  Only its
    whitened blocks S~ = L^-1 S L are kept, and ``apply`` takes whitened
    coordinates w = L^-1 q, a vector or an ``(n, m)`` column block: the
    outer block is the real dense matrix ``bc.whitened_scattering()``, and
    subdomain block j is S~_j = I + 2i L_j^T Sigma_j^-1 L_j of
    :class:`LocalImpedanceSolver`, with Sigma_j the Schur complement of the
    local impedance problem onto the boundary.  An application is one
    matrix product per block size and no sparse solve.  Without absorption
    the map is a T^-1 isometry, so S~ is unitary; absorption makes it a
    strict contraction.
    """

    def __init__(self, solver: LocalImpedanceSolver):
        self.n0 = solver.bc.n
        self.outer = solver.bc.whitened_scattering()
        self.blocks = solver.whitened_blocks

    def apply(self, w: np.ndarray) -> np.ndarray:
        """S~ w of whitened coordinates."""
        n0 = self.n0
        out = np.empty(w.shape, complex)
        out[:n0] = _real_op(self.outer.dot, w[:n0])
        out[n0:] = self.blocks.matmul(w[n0:])
        return out


@dataclass
class CauchyPair:
    """Trace pair (v, p) of a tuple of local solutions, with its witness."""

    v: SkeletonField
    p: SkeletonField
    witness: VolumeTuple


@dataclass
class RecoveredSolution:
    """Volume solution recovered from a skeleton solve.

    ``mismatch`` is the largest discrepancy between duplicated values of
    one skeleton dof across the blocks containing it (including the trace
    unknown on the outer boundary); it is a diagnostic, not an error.
    """

    u: np.ndarray
    p: SkeletonField
    mismatch: float
    tuple: VolumeTuple


def apply_A(problem, u: VolumeTuple) -> VolumeTuple:
    """Block-diagonal Helmholtz operator applied to a volume tuple."""
    if u.kind != "primal":
        raise ValueError("apply_A expects a primal tuple")
    ga = problem.bc.apply(*u.gamma)
    omega = [lf.A @ ub for lf, ub in zip(problem.forms, u.omega)]
    return VolumeTuple(ga, omega, "dual")


def absorption(problem, u: VolumeTuple) -> float:
    """Im <A u, conj(u)>, the dissipated energy of a volume tuple."""
    return float(np.imag(np.vdot(u.data, apply_A(problem, u).data)))


def _whitened_apply(problem, w: np.ndarray) -> np.ndarray:
    """L^-1 (Id + Pi S) L w = w + Pi~ S~ w for the impedance Cholesky factor
    L; ``w`` is a vector or an ``(n, m)`` column block.  One scattering and
    one exchange call, no whitening."""
    return w + problem.exchange.apply(problem.scattering.apply(w))


def skeleton_apply(problem, q: SkeletonField) -> SkeletonField:
    """(Id + Pi S) q of a dual field, never assembled: q is whitened, goes
    through ``_whitened_apply`` and is unwhitened.

    The blocks of q are vectors or ``(n_b, m)`` column blocks; the m
    columns are applied together.
    """
    imp = problem.impedance
    return imp.unwhiten(_whitened_apply(problem, imp.whiten(q)))


def skeleton_rhs(problem, load: VolumeTuple) -> SkeletonField:
    """Skeleton right-hand side f = -2i Pi T B (A - i B^T T B)^-1 l.

    ``load`` is the dual volume tuple l of ``make_load``, or m such loads
    as columns, which give a field of m columns.  g = T B u whitens to
    L^T B u with no triangular solve, and f is -2i Pi~ of it, unwhitened.
    """
    u = problem.solver.solve_tuple(load)
    g = problem.impedance.factor_product(trace_apply(u, problem.partition).data,
                                         transpose=True)
    return problem.impedance.unwhiten(-2j * problem.exchange.apply(g))


def recover_volume(problem, q: SkeletonField, load: VolumeTuple) -> RecoveredSolution:
    """Volume solution u = (A - i B^T T B)^-1 (B^T q + l) and p = q + iTBu.

    Duplicated interface dofs take the value of the lowest-indexed
    subdomain block; the spread across blocks is returned as ``mismatch``
    (the largest over all columns, for m right-hand sides as columns).
    """
    partition = problem.partition
    rhs = trace_adjoint(q, partition) + load
    u = problem.solver.solve_tuple(rhs)
    Bu = trace_apply(u, partition)
    p = q + 1j * problem.impedance.apply(Bu)
    mismatch = _largest_spread(problem.index, Bu.data)
    return RecoveredSolution(u.data[partition.vertex_rows], p, mismatch, u)


def _largest_spread(index, values: np.ndarray) -> float:
    """Largest distance between two entries of a flat field that sit on the
    same skeleton dof.

    The incidences are sorted by dof and laid out as a table with one row
    per dof, padded with NaN, so all pairs (of each column) are compared at
    once.
    """
    order = np.argsort(index.flat_map, kind="stable")
    dofs = index.flat_map[order]
    rank = np.arange(len(dofs)) - np.searchsorted(dofs, dofs)
    table = np.full((index.n_sigma, rank.max() + 1) + values.shape[1:], np.nan + 0j)
    table[dofs, rank] = values[order]
    spread = np.abs(table[:, :, None] - table[:, None, :])
    return float(np.max(spread, initial=0.0, where=~np.isnan(spread)))


def cauchy_pair_from(problem, q: SkeletonField) -> CauchyPair:
    """The Cauchy pair with incoming trace q: v = Bu, p = q + iTBu."""
    u = problem.solver.solve_tuple(trace_adjoint(q, problem.partition))
    v = trace_apply(u, problem.partition)
    p = q + 1j * problem.impedance.apply(v)
    return CauchyPair(v, p, u)


def cauchy_membership_residual(problem, v: SkeletonField, p: SkeletonField) -> float:
    """Relative residual of p + iTv = S(p - iTv); zero iff (v, p) is Cauchy data.
    Measured in whitened coordinates, where iTv is i L^T v."""
    imp = problem.impedance
    wp = imp.whiten(p)
    itv = 1j * imp.factor_product(v.data, transpose=True)
    outgoing = wp + itv
    scattered = problem.scattering.apply(wp - itv)
    denom = max(np.linalg.norm(outgoing), 1e-300)
    return float(np.linalg.norm(scattered - outgoing) / denom)


def cauchy_decompose(problem, v: SkeletonField, p: SkeletonField):
    """Split a trace pair into Cauchy data plus a graph element (v', iTv').

    Follows the constructive direct-sum argument: lift v by zero extension
    to w, solve the impedance problem for A w - B^T p, and read both parts
    off the solution.  Recomposition is exact up to the local solves.
    """
    w = _zero_extension(v, problem.partition)
    rhs = apply_A(problem, w) - trace_adjoint(p, problem.partition)
    vt = problem.solver.solve_tuple(rhs)
    u1 = trace_apply(vt, problem.partition)
    p1 = 1j * problem.impedance.apply(u1)
    u2 = v - u1
    p2 = p - p1
    witness = w - vt
    return CauchyPair(u2, p2, witness), (u1, p1)


def kernel_lift(problem, z: np.ndarray) -> SkeletonField:
    """Map a kernel vector of the monolithic operator to the skeleton kernel.

    z = (u, p) with the volume part first.  The image is q = p' - iTv with
    v = B R z the traces of the restriction and p' = L^T A R z the Neumann
    trace, the block residual paired against a right inverse L of the trace
    B.  L is the zero extension, so p' is one gather of the trace rows of
    A R z.  Any right inverse, the harmonic lifting included, gives the same
    p' on a kernel vector: two right inverses that leave the multiplier slot
    zero differ only in interior rows, and the interior rows of A R z
    vanish there.  An interior dof of subdomain j lies in triangles
    of j only and off the outer boundary, so its row of A_j R_j z is its row
    of the monolithic A z, which is zero on the kernel.  So q satisfies
    (Id + Pi S) q ~ 0 whenever z is (numerically) in the kernel.
    """
    partition = problem.partition
    rz = restriction_apply(partition, z)
    v = trace_apply(rz, partition)
    arz = apply_A(problem, rz)
    p = SkeletonField.wrap(arz.data[partition.trace_rows], partition.trace_offsets, "dual")
    return p - 1j * problem.impedance.apply(v)
