"""
Solving through the skeleton and checking against the monolithic system
=======================================================================

The cavity problem and the skeleton equation (Id + Pi S) q = f are
equivalent: solving one solves the other.  This script runs the skeleton
route (Richardson and GMRES in the T^-1 metric), recovers the volume
solution blockwise, and compares with a direct sparse solve of the
monolithic system, for all four boundary conditions.
"""

import numpy as np

from helmskel import build_problem, h1_norm, make_load, solve_monolithic
from helmskel import skeleton as sk
from helmskel.solvers_spectral import gmres_tinv, richardson

for kind in ("dirichlet", "neumann", "robin", "mixed"):
    problem = build_problem(8, 8, 2, 2, k=5.0, bc_kind=kind)
    ones = np.ones(problem.n_gamma)
    load = make_load(problem, f=1.0, g_d=0.3 * ones,
                     g_n=0.5 * (problem.gamma_mass @ ones))

    f = sk.skeleton_rhs(problem, load)
    q, rep = gmres_tinv(problem, f, tol=1e-10)
    rec = sk.recover_volume(problem, q, load)
    u_mono, p_mono = solve_monolithic(problem, load)

    err = h1_norm(problem, rec.u - u_mono) / h1_norm(problem, u_mono)
    print(f"{kind:9s}: gmres {rep.iterations:3d} iters | "
          f"H1 error vs monolithic {err:.2e} | interface mismatch {rec.mismatch:.2e}")

# Solver comparison on the robin configuration: the damped fixed-point
# iteration rides on the coercivity of Id + Pi S, GMRES on its whole
# spectrum.  Both measure residuals in the T^-1 norm.
problem = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
load = make_load(problem, f=1.0)
f = sk.skeleton_rhs(problem, load)

q_r, rep_r = richardson(problem, f, relax=0.5, tol=1e-8, maxit=5000)
q_g, rep_g = gmres_tinv(problem, f, tol=1e-8)
h = rep_r.residual_history
print(f"\nrichardson: {rep_r.iterations} iterations, residual history "
      f"monotone: {all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))}")
print(f"gmres:      {rep_g.iterations} iterations")
print(f"solution gap between the two solvers: "
      f"{problem.impedance.norm(q_r - q_g):.2e}")
