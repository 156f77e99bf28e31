"""Assemble a complete cavity problem and its skeleton machinery.

``build_problem`` wires the whole chain: mesh, partition, skeleton index,
per-subdomain forms, impedance blocks, boundary condition, exchange and
scattering operators.  Per-subdomain work is done once per distinct form:
subdomains with bitwise equal matrices share their DtN block, local factor
and scattering block, which are bitwise what separate builds would give.
A ``Problem`` holds operators only and is frozen:
boundary and volume data enter through ``make_load``, so one problem
serves any number of right-hand sides.  The global forms over the whole
mesh, which only the monolithic reference, the H1 norm and the primary
constants read, are assembled on first use, so a build and a skeleton
solve never hold them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .assembly import (Coefficients, LocalForms, assemble_boundary, boundary_h1_impedance,
                       collar_impedance, restriction_adjoint)
from .boundary_conditions import BoundaryCondition, dirichlet_positions, mixed_projector
from .geometry import (Mesh, Partition, SkeletonIndex, build_rect_mesh,
                       partition_checkerboard, skeleton_index)
from .impedance import BlockImpedance, DtnBlock
from .skeleton import ExchangeOperator, LocalImpedanceSolver, ScatteringOperator
from .traces import VolumeTuple

__all__ = [
    "Problem",
    "SURROGATES",
    "build_problem",
    "monolithic_matrix",
    "solve_monolithic",
    "make_load",
    "h1_norm",
]


# The outer impedance surrogates ``build_problem`` accepts as ``tgamma``.
SURROGATES = ("collar", "boundary_h1")


def _freeze(obj, seen=None):
    """Make every ndarray that ``obj`` holds read-only, and return ``obj``.

    Walks tuples, lists, dicts and the attributes of sparse matrices and of
    this package's objects, so the impedance blocks and factors, the
    boundary operator, the forms' sparse data and the partition's index
    arrays all refuse writes; a factor that the blocks were read into
    cannot go stale.  Copies nothing.
    """
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return obj
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _freeze(item, seen)
    elif isinstance(obj, dict):
        for item in obj.values():
            _freeze(item, seen)
    elif sp.issparse(obj) or type(obj).__module__.startswith(__package__ + "."):
        _freeze(getattr(obj, "__dict__", {}), seen)
    return obj


@dataclass(frozen=True)
class Problem:
    """All assembled operators of one cavity configuration.

    Frozen, and so is every array it holds (see ``_freeze``); ``bc``
    carries the boundary operator without data.  A variant (say, with one
    block replaced) is a new ``Problem`` made by ``dataclasses.replace``.
    ``global_forms`` is not a field: it is assembled on first read, frozen
    and then kept (a replaced variant assembles its own), so a build and a
    skeleton solve never hold it.  Nor is ``mesh``: it is the partition's.
    """

    partition: Partition
    index: SkeletonIndex
    coeffs: Coefficients
    bc: BoundaryCondition
    forms: tuple
    impedance: BlockImpedance = field(repr=False)
    gamma_mass: np.ndarray = field(repr=False)
    exchange: ExchangeOperator = field(repr=False)
    solver: LocalImpedanceSolver = field(repr=False)
    scattering: ScatteringOperator = field(repr=False)

    def __post_init__(self):
        _freeze(self)

    @property
    def mesh(self) -> Mesh:
        return self.partition.mesh

    @cached_property
    def global_forms(self) -> LocalForms:
        """The forms over the whole mesh, assembled and frozen on first read."""
        return _freeze(assembly.assemble_global(self.mesh, self.coeffs))

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
    impedance k times the boundary mass, gamma = 1/k, and the exterior
    collar, graded and at least gamma wide, as the surrogate for the outer
    impedance (``assembly.collar_impedance``).  ``gamma_d_sides`` names
    the sides of the rectangle (some of ``boundary_conditions.SIDES``) that
    carry the Dirichlet part of a mixed condition; other kinds ignore it.
    The returned ``Problem`` and every array it holds are read-only.
    """
    coeffs = Coefficients(k=k, mu=mu, kappa_sq=kappa_sq, gamma=gamma)
    mesh = build_rect_mesh(nx, ny, width, height)
    partition = partition_checkerboard(mesh, px, py)
    if bc_kind == "mixed":
        # a bad side set fails here, before any assembly
        d_positions = dirichlet_positions(mesh, partition.gamma_dofs, gamma_d_sides)
        if not 0 < len(d_positions) < len(partition.gamma_dofs):
            raise ValueError("Dirichlet dof set must be a nonempty proper subset")
    index = skeleton_index(partition)

    forms = assembly.assemble_forms(mesh, partition, coeffs)
    # The fill-reducing interior order depends on the sparsity of H alone,
    # so subdomains with the same pattern compute it once; subdomains whose
    # H is bitwise equal as well (all cells of a checkerboard whose vertex
    # coordinates are exact) share one DtnBlock, so its T and chol are the
    # same objects in every block of the form.
    dtn, orders, built = [], {}, {}
    for lf in forms:
        pattern = (lf.n_interior, lf.H.indptr.tobytes(), lf.H.indices.tobytes())
        form = pattern + (lf.H.data.tobytes(),)
        if form not in built:
            built[form] = DtnBlock(lf.H, lf.n_interior, orders.get(pattern))
            orders.setdefault(pattern, built[form].order[:lf.n_interior])
        dtn.append(built[form])

    # T_Gamma is the Schur complement of the surrogate's form onto its Gamma rows.
    if tgamma == "collar":
        outer_form = collar_impedance(mesh, partition.gamma_dofs, coeffs.gamma)
    elif tgamma == "boundary_h1":
        outer_form = boundary_h1_impedance(mesh, partition.gamma_dofs, coeffs.gamma)
    else:
        raise ValueError(f"unknown tgamma surrogate {tgamma!r}")
    outer = DtnBlock(outer_form, outer_form.shape[0] - len(partition.gamma_dofs))

    impedance = BlockImpedance([outer.T] + [d.T for d in dtn],
                                [outer.chol] + [d.chol for d in dtn])
    # The impedance holds its own stacked copies of the blocks and factors;
    # only the boundary-last orders of the DtN factors are still needed.
    local_orders = [d.order for d in dtn]
    del dtn, built, outer
    m_gamma = assemble_boundary(mesh, partition.gamma_dofs)[1].toarray()

    t_gamma, chol_t = impedance.blocks[0], impedance.chol[0]
    lam = lambda_scale * k * m_gamma if bc_kind == "robin" else None
    theta = (mixed_projector(d_positions, t_gamma, chol_t) if bc_kind == "mixed"
             else None)
    bc = BoundaryCondition(bc_kind, t_gamma, lam=lam, theta=theta, chol_t=chol_t)

    exchange = ExchangeOperator(index, impedance, outer_form)
    solver = LocalImpedanceSolver(forms, local_orders, impedance, bc)
    scattering = ScatteringOperator(solver)

    return Problem(partition, index, coeffs, bc, forms, impedance, m_gamma,
                   exchange, solver, scattering)


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


def solve_monolithic(problem: Problem, load: VolumeTuple):
    """Direct sparse solve of the monolithic system for the load R^T l; returns (u, p)."""
    sol = spla.spsolve(monolithic_matrix(problem),
                       restriction_adjoint(problem.partition, load))
    nv = problem.mesh.num_vertices
    return sol[:nv], sol[nv:]


def h1_norm(problem: Problem, u: np.ndarray) -> float:
    """Gamma-weighted H1 norm of a global volume vector."""
    H = problem.global_forms.H
    return float(np.sqrt(np.real(np.conj(u) @ (H @ u))))
