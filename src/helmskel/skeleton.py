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
distinct impedance problem C_j = A_j - i B_j^T T_j B_j has one sparse
factor, the ``_BoundaryLastFactor`` that also reads every T_b.  The
whitened block S~_j = I + 2i L_j^T Sigma_j^-1 L_j, with Sigma_j the Schur
complement of C_j onto the boundary, is read off its trailing block once
and kept dense.  Subdomains whose C_j are bitwise equal (the congruent
cells of a checkerboard whose vertex coordinates are exact) share both.
With the real outer block ahead of them, the J+1 blocks of S~ are one
block-diagonal matrix, stacked by size and dtype, with a shared block held
once, so applying S~ takes one matrix product per stack and no sparse
solve.  The factor serves the volume solves: the right-hand side, the
recovery of the volume solution and the Cauchy pairs.  The exchange keeps
one sparse factor of a bordered matrix K whose Schur complement onto the
skeleton dofs is G = E^T T E: the outer block enters K as the sparse form
it is the Schur complement of (the volume Gram of the collar ring, graded
and at least gamma wide), so no dense T_Gamma row enters the factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assembly import restriction_apply
from .geometry import SkeletonIndex
from .impedance import (BlockImpedance, _BoundaryLastFactor, _complex_columns, _PIVOT_THRESHOLD,
                        _real_columns, _real_op, _splu_symmetric, _StackedBlocks)
from .traces import SkeletonField, VolumeTuple, _zero_extension, trace_adjoint, trace_apply

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
        self.impedance = impedance
        self._flat_map = index.flat_map
        K = _exchange_system(index, impedance, outer_form)
        S = index.dof_sum
        indptr = np.pad(S.indptr, (0, K.shape[0] - S.shape[0]), mode="edge")
        self._sum = sp.csr_matrix((S.data, S.indices, indptr), shape=(K.shape[0], S.shape[1]))
        self._lu = _splu_symmetric(K)

    def apply(self, w: np.ndarray) -> np.ndarray:
        """Pi~ w = 2 L^T E G^-1 E^T L w - w of whitened coordinates."""
        imp = self.impedance
        X = imp.factor_product(_real_columns(w))
        X = self._lu.solve(self._sum @ X).take(self._flat_map, axis=0)
        Y = imp.factor_product(X, transpose=True)
        return 2.0 * _complex_columns(Y, w) - w


# Largest block whose inverse the rcond fallback forms densely (64 MB complex).
_DENSE_RCOND_MAX = 2000

# Smallest reciprocal condition estimate a local impedance factor may have.
_RCOND_FLOOR = 1e-12


def _same_form(blocks) -> str:
    """The trace blocks after the first in ``blocks``, which share its local
    impedance problem, named for an error message ("" if there are none)."""
    if len(blocks) == 1:
        return ""
    others = ", ".join(map(str, blocks[1:]))
    return f" (and block{'s' if len(blocks) > 2 else ''} {others} of the same form)"


def _estimate_rcond(factor: _BoundaryLastFactor, blocks) -> float:
    """1-norm reciprocal condition estimate of the matrix C of ``factor``.

    The estimator's products with C^-1 and C^-H are each one solve on a
    block of columns.  If the estimator fails, blocks of up to
    ``_DENSE_RCOND_MAX`` dofs take the exact 1-norm of the inverse from the
    factor applied to the identity; larger blocks raise
    :class:`AssumptionViolation`, naming the trace ``blocks`` whose local
    problem C is, since an unchecked factorization would disable the
    solvability guard.
    """
    n, norm_c = factor.lu.shape[0], factor.norm1

    def solve_h(X):
        return factor.solve(X, trans="H")

    inv_op = spla.LinearOperator((n, n), dtype=complex, matvec=factor.solve,
                                 rmatvec=solve_h, matmat=factor.solve, rmatmat=solve_h)
    try:
        norm_inv = float(spla.onenormest(inv_op))
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        if n > _DENSE_RCOND_MAX:
            raise AssumptionViolation(
                f"condition estimate of block {blocks[0]} ({n} dofs) failed; "
                f"its solvability cannot be checked{_same_form(blocks)}") from exc
        norm_inv = float(np.abs(factor.solve(np.eye(n, dtype=complex))).sum(axis=0).max())
    if norm_c == 0 or not 0 < norm_inv < np.inf:
        return 0.0
    return 1.0 / (norm_c * norm_inv)


def _whitened_scattering_block(factor: _BoundaryLastFactor, L: np.ndarray):
    """S~ = I + 2i L^T Sigma^-1 L for a real matrix L, with Sigma the Schur
    complement of the matrix C that ``factor`` factors onto its trailing
    (boundary) rows and columns.  With L the lower Cholesky factor of T,
    this is L^-1 S L for the scattering block S = I + 2i T Sigma^-1.

    Returns S~ and whether the factor was pivoted across the interior/boundary
    split.  If it was not, the trailing block of the factor is Sigma with
    its rows permuted by the boundary row swaps, L_bb U_bb = P_b Sigma, and
    Sigma^-1 L follows from two dense triangular solves against P_b L.
    Otherwise Sigma^-1 L = B C^-1 B^T L is one n_b-column solve with the
    factor.  One product with L^T ends both.
    """
    lu, ni = factor.lu, factor.n_interior
    n = lu.shape[0]
    rows = lu.perm_r[ni:] - ni
    crossed = rows.min(initial=0) < 0 or not np.array_equal(lu.perm_c, np.arange(n))
    if not crossed:
        # P_b moves row k of L to row rows[k]
        L_bb, U_bb = factor.trailing()
        Z = np.empty(L.shape, complex, order="F")
        Z[rows] = L
        Z = sla.solve_triangular(L_bb, Z, lower=True, unit_diagonal=True,
                                 overwrite_b=True, check_finite=False)
        Z = sla.solve_triangular(U_bb, Z, overwrite_b=True, check_finite=False)
    else:
        E = np.zeros((n, L.shape[1]), complex)
        E[ni:] = L
        Z = factor.solve(E)[ni:]
    S = _real_op(L.T.dot, Z)
    S *= 2j
    S[np.diag_indices_from(S)] += 1.0
    return S, crossed


class LocalImpedanceSolver:
    """One factor per distinct subdomain form of the impedance-shifted block
    operator, and the whitened scattering matrix read off it.

    Per subdomain this is C_j = A_j - i B_j^T T_j B_j, a complex symmetric
    sparse matrix bordered by the dense impedance on its boundary dofs.  It
    has the sparsity of the volume norm Gram H_j, so it is factored by the
    :class:`~helmskel.impedance._BoundaryLastFactor` that reads every Schur
    complement, in the boundary-last order ``orders[j]`` of
    :class:`~helmskel.impedance.DtnBlock` (the interior in the fill-reducing
    column order of H_ii, the boundary dofs last).  Unlike H_j, C_j is
    indefinite, so a factor without pivoting is not safe: it takes
    SuperLU's threshold pivoting at ``_PIVOT_THRESHOLD``.  Subdomains with
    equal order, A_j and T_j, bit for bit, are one form: it is factored,
    checked and read once, and its factor and block serve every member, so
    each is bitwise what the member's own build would give.

    The trailing block of the factor is the local Schur complement Sigma_j
    of C_j onto the boundary, and gives the dense block
    S~_j = I + 2i L_j^T Sigma_j^-1 L_j of the scattering operator in
    whitened coordinates, L_j the Cholesky factor of T_j (see
    :func:`_whitened_scattering_block`).  A block whose factor swapped a
    row across the interior/boundary split takes an n_b-column solve with
    the same factor instead, and ``fallbacks`` counts the subdomains of
    such blocks.  No option selects the path; the factor decides.
    ``whitened_blocks`` is all of S~: the outer block
    ``bc.whitened_scattering()`` as block 0, then the S~_j, the same object
    for the members of a form, so block b belongs to trace block b, as
    ``impedance.blocks[b]`` does.

    The factor is the only one a subdomain keeps (``_lus[j]``, shared within
    a form): ``solve_tuple`` applies it to loads, recovery and Cauchy pairs.
    A reciprocal-condition estimate on it below ``_RCOND_FLOOR`` raises
    :class:`AssumptionViolation`, naming every block of the form, instead
    of silently returning garbage.  The outer-boundary block is handled by
    the boundary condition's ``impedance_inverse``.
    """

    def __init__(self, forms, orders, impedance: BlockImpedance, bc):
        self.bc = bc
        # the trace blocks of each distinct C_j: equal order, A_j and T_j
        # make bitwise equal factors, so each form is factored once
        members = {}
        for j, (lf, pos) in enumerate(zip(forms, orders)):
            key = (lf.n_interior, pos.tobytes(), lf.A.indptr.tobytes(), lf.A.indices.tobytes(),
                   lf.A.data.tobytes(), impedance.blocks[j + 1].tobytes())
            members.setdefault(key, []).append(j + 1)
        classes = list(members.values())
        factors = []
        for blocks in classes:
            # C_j as triplets, which the factor sums: a sparse difference would
            # drop the exact zeros of T_j, and with them entries of the pattern
            b = blocks[0]
            lf = forms[b - 1]
            n, ni = lf.n_dofs, lf.n_interior
            A, bd = lf.A.tocoo(), np.arange(ni, n)
            C = sp.coo_matrix((np.concatenate([A.data, -1j * impedance.blocks[b].ravel()]),
                               (np.concatenate([A.row, np.repeat(bd, n - ni)]),
                                np.concatenate([A.col, np.tile(bd, n - ni)]))), shape=(n, n))
            try:
                factor = _BoundaryLastFactor(C, orders[b - 1], ni, _PIVOT_THRESHOLD)
            except RuntimeError as exc:
                raise AssumptionViolation(
                    f"impedance problem of block {b} is singular; "
                    f"perturb kappa or gamma and retry{_same_form(blocks)}") from exc
            rcond = _estimate_rcond(factor, blocks)
            if rcond < _RCOND_FLOOR:
                raise AssumptionViolation(
                    f"impedance problem of block {b} is numerically singular "
                    f"(rcond ~ {rcond:.2e}); perturb kappa or gamma and retry"
                    f"{_same_form(blocks)}")
            factors.append(factor)
        # Every factor is made before any is read: the transient copies the
        # reads take then reuse one another's memory.
        read = [_whitened_scattering_block(f, impedance.chol[blocks[0]])
                for f, blocks in zip(factors, classes)]
        # block b of each form takes the form's factor and S~, as one object
        lus, whitened = [None] * len(forms), [bc.whitened_scattering()] + [None] * len(forms)
        for blocks, factor, (S, _) in zip(classes, factors, read):
            for b in blocks:
                lus[b - 1], whitened[b] = factor, S
        self.whitened_blocks = _StackedBlocks(whitened)
        self.fallbacks = sum(len(blocks) * crossed for blocks, (_, crossed) in zip(classes, read))
        self._lus = tuple(lus)

    def solve_tuple(self, phi: VolumeTuple) -> VolumeTuple:
        """(A - i B^T T B)^-1 applied to a dual tuple, blockwise.

        The only code that applies the local factors: the skeleton
        right-hand side, the volume recovery and the Cauchy pairs go
        through it (the scattering operator does not; its blocks are
        dense).  The result has the layout of ``phi``, vector or m columns,
        and is written into one new array: the boundary pair by the
        condition's ``impedance_inverse``, each subdomain block by one
        solve with its factor.  Every block operator is complex symmetric,
        so this is also the transposed solve.
        """
        if phi.kind != "dual":
            raise ValueError("solve_tuple expects a dual tuple")
        o, data = phi.offsets, phi.data
        u = np.empty(data.shape, complex)
        u[:o[1]], u[o[1]:o[2]] = self.bc.impedance_inverse(*phi.gamma)
        for factor, a, b in zip(self._lus, o[2:], o[3:]):
            u[a:b] = factor.solve(data[a:b])
        return VolumeTuple.wrap(u, o, "primal")


class ScatteringOperator:
    """Blockwise map from incoming (p - iTv) to outgoing (p + iTv) traces.

    S q = q + 2i T B (A - i B^T T B)^-1 B^T q, block by block.  Only its
    whitened blocks S~ = L^-1 S L are kept, as the one block-diagonal
    matrix ``blocks`` that :class:`LocalImpedanceSolver` builds: the outer
    block is the real dense matrix ``bc.whitened_scattering()``, and
    subdomain block j is S~_j = I + 2i L_j^T Sigma_j^-1 L_j, with Sigma_j
    the Schur complement of the local impedance problem onto the boundary.
    ``apply`` takes whitened coordinates w = L^-1 q, a vector or an
    ``(n, m)`` column block: one matrix product per stack of ``blocks``
    and no sparse solve.  Without absorption the map is a T^-1 isometry,
    so S~ is unitary; absorption makes it a strict contraction.
    """

    def __init__(self, solver: LocalImpedanceSolver):
        self.blocks = solver.whitened_blocks

    def apply(self, w: np.ndarray) -> np.ndarray:
        """S~ w of whitened coordinates."""
        return self.blocks.matmul(w)


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

    The incidences of each dof are the row of ``index.dof_sum`` for it, in
    block order; laid out as a table with one row per dof, padded with NaN,
    all pairs (of each column) are compared at once.
    """
    S = index.dof_sum
    dofs = np.repeat(np.arange(index.n_sigma), np.diff(S.indptr))
    rank = np.arange(len(dofs)) - S.indptr[dofs]
    table = np.full((index.n_sigma, rank.max() + 1) + values.shape[1:], np.nan + 0j)
    table[dofs, rank] = values[S.indices]
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
