"""
The non-local exchange operator
===============================

Pi is the reflection across the impedance image of the single-trace space,
in the inverse-impedance metric.  Classic Schwarz methods swap traces
pairwise across each interface and struggle at cross points; Pi instead
couples every block meeting a skeleton dof in one shot.  Its defining
algebra: an involution, an isometry, fixing matched Neumann data and
negating opposite Neumann jumps.

The operator acts in the whitened coordinates w = L^-1 q of the impedance
Cholesky factor L, where the inverse-impedance norm is the Euclidean one:
there Pi~ = L^-1 Pi L is an orthogonal reflection.  Dual fields are
whitened before Pi~ is applied, and every norm below is Euclidean.
"""

import numpy as np

from helmskel import build_problem
from helmskel.traces import SkeletonField, single_trace_adjoint, single_trace_embed
from helmskel.verification import random_field

problem = build_problem(8, 8, 2, 2, k=5.0, bc_kind="robin")
imp = problem.impedance
pi = problem.exchange.apply
norm = np.linalg.norm
rng = np.random.default_rng(42)


# Involution and isometry, measured over random whitened dual fields.
worst_inv, worst_iso = 0.0, 0.0
for _ in range(100):
    w = imp.whiten(random_field(problem, rng))
    piw = pi(w)
    worst_inv = max(worst_inv, norm(pi(piw) - w) / norm(w))
    worst_iso = max(worst_iso, abs(norm(piw) / norm(w) - 1.0))
print(f"involution residual: {worst_inv:.2e}")
print(f"isometry residual:   {worst_iso:.2e}")

# Matched data (impedance image of a single-valued skeleton function) is a
# fixed point ...
x = rng.standard_normal(problem.index.n_sigma)
fixed = imp.whiten(imp.apply(single_trace_embed(x, problem.index)))
print(f"fixed subspace residual: {norm(pi(fixed) - fixed) / norm(fixed):.2e}")

# ... while pure Neumann jumps flip sign.
counts = np.zeros(problem.index.n_sigma)
for m in problem.index.block_map:
    np.add.at(counts, m, 1.0)
r = random_field(problem, rng)
y = single_trace_adjoint(r, problem.index)
jump = imp.whiten(r - SkeletonField([(y / counts)[m] for m in problem.index.block_map],
                                    "dual"))
print(f"jump negation residual:  {norm(pi(jump) + jump) / norm(jump):.2e}")

# Non-locality at the cross point: a unit impulse on one subdomain block at
# the center vertex spreads to every block containing that vertex.  The
# whitening is block diagonal, so a whitened block is zero exactly when the
# dual block is.
cross = problem.index.cross_points[0]
q = imp.zeros("dual")
pos = np.flatnonzero(problem.partition.boundary_dofs[0] == cross)[0]
q.blocks[1][pos] = 1.0
piw = np.split(pi(imp.whiten(q)), imp.offsets[1:-1])
touched = [b for b, blk in enumerate(piw) if np.abs(blk).max() > 1e-12]
print(f"impulse at the cross point touches blocks {touched} "
      f"(0 = outer boundary, 1..4 = subdomains)")
