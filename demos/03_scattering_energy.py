"""
Scattering and the energy balance
=================================

Each block maps incoming Robin traces p - iTv of its local solution to
outgoing traces p + iTv.  The exact balance reads

    ||S q||^2 + 4 |Im <A u, conj(u)>|  =  ||q||^2      (T^-1 norms)

so S is an isometry precisely when nothing absorbs: real coefficients and
an energy-conserving boundary condition.  Volume absorption (complex
kappa^2) or an absorbing boundary block (robin) makes it a strict
contraction, which is what iterative solvers feed on.
"""

import numpy as np

from helmskel import build_problem
from helmskel import skeleton as sk
from helmskel.traces import SkeletonField, trace_adjoint, trace_apply

rng = np.random.default_rng(42)
k = 5.0


def rand_dual(problem):
    return SkeletonField([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for n in problem.block_sizes], "dual")


def report(problem, label):
    imp = problem.impedance
    worst_bal, worst_ratio = 0.0, 0.0
    ratios = []
    for _ in range(50):
        q = rand_dual(problem)
        # the local solutions u with incoming trace q; S q = q + 2iTBu = 2p - q
        pair = sk.cauchy_pair_from(problem, q)
        sq = 2.0 * pair.p - q
        nq2 = imp.norm(q) ** 2
        bal = abs(imp.norm(sq) ** 2 + 4 * abs(sk.absorption(problem, pair.witness)) - nq2)
        worst_bal = max(worst_bal, bal / nq2)
        ratios.append(imp.norm(sq) / imp.norm(q))
    print(f"{label:28s} balance residual {worst_bal:.2e}   "
          f"norm ratio in [{min(ratios):.4f}, {max(ratios):.4f}]")


# Energy-conserving configuration: real kappa, neumann boundary block.
report(build_problem(8, 8, 2, 2, k=k, bc_kind="neumann"), "neumann, real kappa")

# The robin boundary block absorbs by construction.
report(build_problem(8, 8, 2, 2, k=k, bc_kind="robin"), "robin, real kappa")

# Volume absorption in the right half of the cavity.
absorbing = build_problem(8, 8, 2, 2, k=k, bc_kind="neumann",
                          kappa_sq=lambda x, y: k ** 2 * (1 + 0.5j * (x >= 0.5)))
report(absorbing, "neumann, absorbing layer")

# S applies its outer block in closed form; the resolvent formula
# q + 2i T B (A - i B^T T B)^-1 B^T q, through the local solves, reproduces it.
for kind in ("dirichlet", "neumann", "robin", "mixed"):
    problem = build_problem(8, 8, 2, 2, k=k, bc_kind=kind)
    q = rand_dual(problem)
    u = problem.solver.solve_tuple(trace_adjoint(q, problem.partition))
    resolvent = q + 2j * problem.impedance.apply(trace_apply(u, problem.partition))
    err = np.abs(problem.scattering.apply(q).blocks[0] - resolvent.blocks[0]).max()
    print(f"boundary block [{kind:9s}] closed form vs resolvent: {err:.2e}")
