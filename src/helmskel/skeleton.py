"""Exchange operator, scattering operator and the skeleton system.

The cavity problem is recast as an equation for a tuple q of outgoing
Robin traces on the skeleton: (Id + Pi S) q = f.  S solves the impedance
problem of each block independently and flips incoming to outgoing
traces; Pi is the non-local exchange operator, a reflection across the
single-trace subspace in the inverse-impedance metric.  Pi couples every
block meeting a skeleton dof at once, which is exactly what makes cross
points unproblematic here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .geometry import SkeletonIndex
from .impedance import BlockImpedance, _real_op, _splu_spd
from .traces import (SkeletonField, VolumeTuple, _nonzero_blocks, _zero_extension,
                     lift_adjoint, single_trace_adjoint, single_trace_embed,
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


class ExchangeOperator:
    """Reflection across the impedance image of the single-trace space.

    With E the single-trace embedding and G = E^T T E, the projection is
    Q q = T E G^-1 E^T q and the exchange operator is Pi = 2Q - Id.  Pi is
    an involution and an isometry for the T^-1 norm; it fixes tuples of
    matching Neumann data and negates tuples of opposite Neumann jumps.
    G is assembled sparse from the impedance blocks and factored once by a
    real sparse LU (symmetric mode, fill-reducing ordering of G + G^T); a
    complex right-hand side is solved as its real and imaginary parts, real
    columns of one solve.  Fields of ``(n_b, m)`` column blocks are applied
    to all m columns at once.
    """

    def __init__(self, index: SkeletonIndex, impedance: BlockImpedance):
        self.index = index
        self.impedance = impedance
        n = index.n_sigma
        rows = np.concatenate([np.repeat(m, len(m)) for m in index.block_map])
        cols = np.concatenate([np.tile(m, len(m)) for m in index.block_map])
        vals = np.concatenate([T.ravel() for T in impedance.blocks])
        self.G = sp.csc_matrix((vals, (rows, cols)), shape=(n, n))
        self._lu = _splu_spd(self.G)

    def project(self, q: SkeletonField) -> SkeletonField:
        """Q q: the T^-1-orthogonal projection onto T(single-trace space)."""
        if q.kind != "dual":
            raise ValueError("exchange operator acts on dual fields")
        y = single_trace_adjoint(q, self.index)
        x = _real_op(self._lu.solve, y)
        return self.impedance.apply(single_trace_embed(x, self.index))

    def apply(self, q: SkeletonField) -> SkeletonField:
        """Pi q = 2 Q q - q."""
        return 2.0 * self.project(q) - q


# Largest block whose inverse the rcond fallback forms densely (64 MB complex).
_DENSE_RCOND_MAX = 2000


def _estimate_rcond(C: sp.spmatrix, lu, block: int) -> float:
    """1-norm reciprocal condition estimate of a factored sparse matrix.

    If the iterative estimator fails, blocks of up to ``_DENSE_RCOND_MAX``
    dofs take the exact 1-norm of the inverse from the factor applied to
    the identity; larger blocks raise :class:`AssumptionViolation`, since
    an unchecked factorization would disable the solvability guard.
    """
    norm_c = float(abs(C).sum(axis=0).max())
    inv_op = spla.LinearOperator(C.shape, dtype=complex,
                                 matvec=lambda x: lu.solve(x),
                                 rmatvec=lambda x: lu.solve(x, trans="H"))
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


class LocalImpedanceSolver:
    """Factorizations of the impedance-shifted block operators.

    Per subdomain this is C_j = A_j - i B_j^T T_j B_j, a complex symmetric
    sparse matrix bordered by the dense impedance on its boundary dofs.
    Each is factored by SuperLU with a minimum-degree ordering of C + C^T,
    which on these bordered 2-D grids holds about half the fill of the
    default column ordering.  The default threshold partial pivoting stays:
    C_j is indefinite, so a symmetric-mode factor without pivoting is not
    safe.  The outer-boundary block is handled by the closed-form inverse
    of the boundary condition.  A reciprocal-condition estimate below the
    floor raises :class:`AssumptionViolation` instead of silently
    returning garbage.
    """

    def __init__(self, forms, impedance: BlockImpedance, bc, rcond_floor: float = 1e-12):
        self.bc = bc
        self.n_interior = tuple(lf.n_interior for lf in forms)
        self.omega_sizes = tuple(lf.n_dofs for lf in forms)
        lus = []
        for j, lf in enumerate(forms):
            T = impedance.blocks[j + 1]
            ni = lf.n_interior
            n = lf.n_dofs
            rows = np.repeat(np.arange(ni, n), n - ni)
            cols = np.tile(np.arange(ni, n), n - ni)
            border = sp.coo_matrix((T.ravel(), (rows, cols)), shape=(n, n))
            C = (lf.A - 1j * border.tocsr()).tocsc()
            try:
                lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:
                raise AssumptionViolation(
                    f"impedance problem of block {j + 1} is singular; "
                    "perturb kappa or gamma and retry") from exc
            rcond = _estimate_rcond(C, lu, j + 1)
            if rcond < rcond_floor:
                raise AssumptionViolation(
                    f"impedance problem of block {j + 1} is numerically singular "
                    f"(rcond ~ {rcond:.2e}); perturb kappa or gamma and retry")
            lus.append(lu)
        self._lus = tuple(lus)

    def solve_tuple(self, phi: VolumeTuple, transpose: bool = False) -> VolumeTuple:
        """(A - i B^T T B)^-1 applied to a dual tuple, blockwise.

        The only code that applies the local factors.  The result has the
        layout of ``phi``, vector or m columns, and is written into one new
        array.  A block that is all zero in ``phi`` (the boundary pair
        counts as one block) solves to zero without a solve, which keeps
        block-sparse columns, such as the identity chunks of
        ``dense_operator``, cheap.

        All block operators here are complex symmetric (the volume forms by
        construction, the boundary blocks for each supported condition), so
        the transposed solve reuses the same closed form on the boundary
        block and transposed triangular solves in the volume.
        """
        if phi.kind != "dual":
            raise ValueError("solve_tuple expects a dual tuple")
        o, data = phi.offsets, phi.data
        live = _nonzero_blocks(data, o)
        u = np.zeros(data.shape, complex)
        if live[0] or live[1]:
            u[:o[1]], u[o[1]:o[2]] = self.bc.impedance_inverse(*phi.gamma)
        trans = "T" if transpose else "N"
        for lu, a, b, nz in zip(self._lus, o[2:], o[3:], live[2:]):
            if nz:
                u[a:b] = lu.solve(data[a:b], trans=trans)
        return VolumeTuple.wrap(u, o, "primal")


class ScatteringOperator:
    """Blockwise map from incoming (p - iTv) to outgoing (p + iTv) traces.

    S q = q + 2i T B (A - i B^T T B)^-1 B^T q through the local resolvent
    ``solver.solve_tuple``, the outer block included; ``bc.scattering``
    is that block's closed form, kept as a check.  Without absorption the
    map is a T^-1 isometry; absorption makes it a strict contraction.
    B^T scatters q into a zero volume tuple and B gathers the trace rows
    back, so a block that is all zero in q stays all zero on the way: it
    takes no local solve (``solve_tuple``) and no impedance product
    (``BlockImpedance.apply``).  Fields of m columns take one m-column
    solve per block.
    """

    def __init__(self, solver: LocalImpedanceSolver, impedance: BlockImpedance):
        self.solver = solver
        self.impedance = impedance

    def apply(self, q: SkeletonField) -> SkeletonField:
        if q.kind != "dual":
            raise ValueError("scattering operator acts on dual fields")
        solver = self.solver
        u = solver.solve_tuple(trace_adjoint(q, solver.n_interior, solver.omega_sizes))
        return q + 2j * self.impedance.apply(trace_apply(u, solver.n_interior))


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


def skeleton_apply(problem, q: SkeletonField) -> SkeletonField:
    """(Id + Pi S) q, applied operator by operator (never assembled).

    The blocks of q are vectors or ``(n_b, m)`` column blocks; the m
    columns are applied together.
    """
    return q + problem.exchange.apply(problem.scattering.apply(q))


def skeleton_rhs(problem, load: VolumeTuple) -> SkeletonField:
    """Skeleton right-hand side f = -2i Pi T B (A - i B^T T B)^-1 l.

    ``load`` is the dual volume tuple l of ``make_load``.
    """
    u = problem.solver.solve_tuple(load)
    g = problem.impedance.apply(trace_apply(u, problem.n_interior))
    return -2j * problem.exchange.apply(g)


def recover_volume(problem, q: SkeletonField, load: VolumeTuple) -> RecoveredSolution:
    """Volume solution u = (A - i B^T T B)^-1 (B^T q + l) and p = q + iTBu.

    Duplicated interface dofs take the value of the lowest-indexed
    subdomain block; the spread across blocks is returned as ``mismatch``.
    """
    rhs = trace_adjoint(q, problem.n_interior, problem.omega_sizes) + load
    u = problem.solver.solve_tuple(rhs)
    Bu = trace_apply(u, problem.n_interior)
    p = q + 1j * problem.impedance.apply(Bu)

    mesh = problem.mesh
    u_global = np.zeros(mesh.num_vertices, complex)
    for lf, uj in reversed(list(zip(problem.forms, u.omega))):
        u_global[lf.dofs] = uj

    mismatch = _largest_spread(problem.index, Bu.data)
    return RecoveredSolution(u_global, p, mismatch, u)


def _largest_spread(index, values: np.ndarray) -> float:
    """Largest distance between two entries of a flat field that sit on the
    same skeleton dof.

    The incidences are sorted by dof and laid out as a table with one row
    per dof, padded with NaN, so all pairs are compared at once.
    """
    order = np.argsort(index.flat_map, kind="stable")
    dofs = index.flat_map[order]
    rank = np.arange(len(dofs)) - np.searchsorted(dofs, dofs)
    table = np.full((index.n_sigma, rank.max() + 1), np.nan + 0j)
    table[dofs, rank] = values[order]
    spread = np.abs(table[:, :, None] - table[:, None, :])
    return float(np.max(spread, initial=0.0, where=~np.isnan(spread)))


def cauchy_pair_from(problem, q: SkeletonField, transpose: bool = False) -> CauchyPair:
    """The Cauchy pair with incoming trace q: v = Bu, p = q + iTBu."""
    u = problem.solver.solve_tuple(
        trace_adjoint(q, problem.n_interior, problem.omega_sizes), transpose)
    v = trace_apply(u, problem.n_interior)
    p = q + 1j * problem.impedance.apply(v)
    return CauchyPair(v, p, u)


def cauchy_membership_residual(problem, v: SkeletonField, p: SkeletonField) -> float:
    """Relative residual of p + iTv = S(p - iTv); zero iff (v, p) is Cauchy data."""
    itv = 1j * problem.impedance.apply(v)
    outgoing = p + itv
    scattered = problem.scattering.apply(p - itv)
    denom = max(problem.impedance.norm(outgoing), 1e-300)
    return problem.impedance.norm(scattered - outgoing) / denom


def cauchy_decompose(problem, v: SkeletonField, p: SkeletonField):
    """Split a trace pair into Cauchy data plus a graph element (v', iTv').

    Follows the constructive direct-sum argument: lift v by zero extension
    to w, solve the impedance problem for A w - B^T p, and read both parts
    off the solution.  Recomposition is exact up to the local solves.
    """
    w = _zero_extension(v, problem.n_interior, problem.omega_sizes)
    rhs = apply_A(problem, w) - trace_adjoint(p, problem.n_interior, problem.omega_sizes)
    vt = problem.solver.solve_tuple(rhs)
    u1 = trace_apply(vt, problem.n_interior)
    p1 = 1j * problem.impedance.apply(u1)
    u2 = v - u1
    p2 = p - p1
    witness = w - vt
    return CauchyPair(u2, p2, witness), (u1, p1)


def kernel_lift(problem, z: np.ndarray) -> SkeletonField:
    """Map a kernel vector of the monolithic operator to the skeleton kernel.

    z = (u, p) with the volume part first.  The image is q = p' - iTv with
    v the traces of the restriction and p' the pairing of the block
    residual against the harmonic lifting; it satisfies (Id + Pi S) q ~ 0
    whenever z is (numerically) in the kernel.
    """
    from .assembly import restriction_apply

    nv = problem.mesh.num_vertices
    rz = restriction_apply(problem.partition, z[:nv], z[nv:])
    v = trace_apply(rz, problem.n_interior)
    arz = apply_A(problem, rz)
    p = lift_adjoint(arz, problem.dtn)
    return p - 1j * problem.impedance.apply(v)
