"""Assemble a complete cavity problem and its skeleton machinery.

``build_problem`` wires the whole chain: mesh, partition, skeleton index,
per-subdomain forms, impedance blocks, boundary condition, exchange and
scattering operators.  A ``Problem`` holds operators only and is frozen:
boundary and volume data enter through ``make_load``, so one problem
serves any number of right-hand sides.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import Coefficients, LocalForms, restriction_adjoint
from .boundary_conditions import (BoundaryCondition, gamma_d_positions_from_tags,
                                  make_boundary_condition)
from .geometry import (Mesh, Partition, SkeletonIndex, build_rect_mesh,
                       partition_checkerboard, skeleton_index, tag_boundary)
from .impedance import (BlockImpedance, DtnBlock, boundary_h1_impedance,
                        boundary_mass, collar_impedance)
from .skeleton import ExchangeOperator, LocalImpedanceSolver, ScatteringOperator
from .traces import VolumeTuple

__all__ = [
    "Problem",
    "build_problem",
    "monolithic_matrix",
    "monolithic_rhs",
    "solve_monolithic",
    "make_load",
    "h1_norm",
    "side_tagger",
]

_SIDES = ("left", "right", "bottom", "top")


def side_tagger(sides, width: float, height: float):
    """Predicate tagging edges on the listed rectangle sides 'D', others 'N'."""
    sides = tuple(sides)
    for s in sides:
        if s not in _SIDES:
            raise ValueError(f"unknown side {s!r}, expected one of {_SIDES}")
    tolx, toly = 1e-12 * max(width, 1.0), 1e-12 * max(height, 1.0)

    def tag(x, y):
        on = (("left" in sides and abs(x) < tolx)
              or ("right" in sides and abs(x - width) < tolx)
              or ("bottom" in sides and abs(y) < toly)
              or ("top" in sides and abs(y - height) < toly))
        return "D" if on else "N"

    return tag


@dataclass(frozen=True)
class Problem:
    """All assembled operators of one cavity configuration.

    Frozen, and ``bc`` carries the boundary operator without data; a
    variant (say, with one block replaced) is a new ``Problem`` made by
    ``dataclasses.replace``.
    """

    mesh: Mesh
    partition: Partition
    index: SkeletonIndex
    coeffs: Coefficients
    bc: BoundaryCondition
    forms: tuple
    global_forms: LocalForms = field(repr=False)
    impedance: BlockImpedance = field(repr=False)
    gamma_mass: np.ndarray = field(repr=False)
    exchange: ExchangeOperator = field(repr=False)
    solver: LocalImpedanceSolver = field(repr=False)
    scattering: ScatteringOperator = field(repr=False)

    @property
    def num_subdomains(self) -> int:
        return self.partition.num_subdomains

    @property
    def omega_sizes(self):
        return tuple(lf.n_dofs for lf in self.forms)

    @property
    def block_sizes(self):
        return self.index.block_sizes

    @property
    def dual_dim(self) -> int:
        return self.impedance.total

    @property
    def n_gamma(self) -> int:
        return len(self.partition.gamma_dofs)


def build_problem(nx: int, ny: int, px: int = 2, py: int = 2, *,
                  width: float = 1.0, height: float = 1.0,
                  k: float = 5.0, mu: complex = 1.0, kappa_sq=None, gamma=None,
                  bc_kind: str = "robin", lambda_scale: float = 1.0,
                  gamma_d_sides=("left", "bottom"), tgamma: str = "collar") -> Problem:
    """Build every operator of a cavity configuration.

    Defaults follow the reference setup: unit square, robin condition with
    impedance k times the boundary mass, gamma = 1/k, exterior-collar
    surrogate for the outer impedance.
    """
    coeffs = Coefficients(k=k, mu=mu, kappa_sq=kappa_sq, gamma=gamma)
    mesh = build_rect_mesh(nx, ny, width, height)
    if bc_kind == "mixed":
        mesh = tag_boundary(mesh, side_tagger(gamma_d_sides, width, height),
                            require_mixed=True)
    partition = partition_checkerboard(mesh, px, py)
    index = skeleton_index(partition)

    forms, global_forms = assembly.assemble_forms(mesh, partition, coeffs)
    # The fill-reducing interior order depends on the sparsity of H alone,
    # so subdomains with the same pattern (all blocks of a checkerboard of
    # equal cells) compute it once.
    dtn, orders = [], {}
    for lf in forms:
        key = (lf.n_interior, lf.H.indptr.tobytes(), lf.H.indices.tobytes())
        dtn.append(DtnBlock(lf, orders.get(key)))
        orders.setdefault(key, dtn[-1].order[:lf.n_interior])

    if tgamma == "collar":
        t_gamma, chol_gamma, outer_form = collar_impedance(mesh, partition.gamma_dofs,
                                                           coeffs.gamma)
    elif tgamma == "boundary_h1":
        t_gamma, chol_gamma, outer_form = boundary_h1_impedance(mesh, partition.gamma_dofs,
                                                                coeffs.gamma)
    else:
        raise ValueError(f"unknown tgamma surrogate {tgamma!r}")

    impedance = BlockImpedance([t_gamma] + [d.T for d in dtn],
                                chol=[chol_gamma] + [d.chol for d in dtn])
    # The impedance holds its own stacked copies of the blocks and factors;
    # only the boundary-last orders of the DtN factors are still needed.
    local_orders = [d.order for d in dtn]
    del dtn, t_gamma, chol_gamma
    m_gamma = boundary_mass(mesh, partition.gamma_dofs)

    lam = None
    gamma_d_positions = None
    if bc_kind == "robin":
        lam = lambda_scale * k * m_gamma
    elif bc_kind == "mixed":
        gamma_d_positions = gamma_d_positions_from_tags(mesh, partition.gamma_dofs)
    bc = make_boundary_condition(bc_kind, impedance.blocks[0], lam=lam,
                                 gamma_d_positions=gamma_d_positions,
                                 chol_t=impedance.chol[0])

    exchange = ExchangeOperator(index, impedance, outer_form)
    solver = LocalImpedanceSolver(forms, local_orders, impedance, bc)
    scattering = ScatteringOperator(solver)

    return Problem(mesh, partition, index, coeffs, bc, forms, global_forms,
                   impedance, m_gamma, exchange, solver, scattering)


def make_load(problem: Problem, f=0.0, g_d=None, g_n=None) -> VolumeTuple:
    """Right-hand side l from a volume source f and boundary data.

    l is a dual volume tuple.  ``g_d`` holds Dirichlet values and ``g_n``
    the Neumann functional at the boundary dofs (None for zero); the
    condition's ``load_pair`` decides which of them its kind uses.
    """
    load = assembly.assemble_load(problem.mesh, problem.partition, f)
    return VolumeTuple(problem.bc.load_pair(g_d, g_n), load.omega, "dual")


def monolithic_matrix(problem: Problem) -> sp.csc_matrix:
    """The global volume form bordered by the boundary operator."""
    return assembly.assemble_primary(problem.global_forms.A, problem.bc,
                                     problem.partition.gamma_dofs)


def monolithic_rhs(problem: Problem, load: VolumeTuple) -> np.ndarray:
    """Fold a block load into the monolithic right-hand side: R^T l."""
    return restriction_adjoint(problem.partition, load)


def solve_monolithic(problem: Problem, load: VolumeTuple):
    """Direct sparse solve of the monolithic system; returns (u, p)."""
    A = monolithic_matrix(problem)
    rhs = monolithic_rhs(problem, load)
    sol = spla.spsolve(A, rhs)
    nv = problem.mesh.num_vertices
    return sol[:nv], sol[nv:]


def h1_norm(problem: Problem, u: np.ndarray) -> float:
    """Gamma-weighted H1 norm of a global volume vector."""
    H = problem.global_forms.H
    return float(np.sqrt(np.real(np.conj(u) @ (H @ u))))
