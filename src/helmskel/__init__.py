"""Skeleton-trace solver for the 2D Helmholtz cavity problem.

The cavity problem on a partitioned rectangle is reformulated as an
equation (Id + Pi S) q = f for Robin traces on the skeleton of the
partition, with S a blockwise scattering operator and Pi a non-local
exchange operator that communicates through cross points.  The package
provides the finite element assembly, the trace and impedance algebra,
iterative solvers in the natural trace metric, and a spectral harness
that measures the coercivity and inf-sup constants tying the two
formulations together.
"""

from .assembly import Coefficients, LocalForms
from .boundary_conditions import BoundaryCondition, make_boundary_condition, mixed_projector
from .geometry import (Mesh, Partition, SkeletonIndex, build_rect_mesh,
                       partition_checkerboard, skeleton_index, tag_boundary)
from .impedance import BlockImpedance, DtnBlock, boundary_h1_impedance, collar_impedance
from .problem import Problem, build_problem, h1_norm, make_load, monolithic_matrix, solve_monolithic
from .skeleton import (AssumptionViolation, CauchyPair, ExchangeOperator,
                       LocalImpedanceSolver, ScatteringOperator, cauchy_decompose,
                       kernel_lift, recover_volume, skeleton_apply, skeleton_rhs)
from .solvers_spectral import (SolveReport, SpectralReport, dense_operator,
                               dirichlet_resonance, gmres_tinv, infsup_primary,
                               richardson, sweep_wavenumber, verify_estimates)
from .traces import (SkeletonField, VolumeTuple, duality_pair, harmonic_lift,
                     single_trace_adjoint, single_trace_embed, skew_pair,
                     trace_adjoint, trace_apply)

__version__ = "0.1.0"
