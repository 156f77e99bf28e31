"""The paper's algebraic identities, measured on built problems.

One function per identity suite: the exchange axioms, the scattering
energy identity, the transmission characterization, equivalence with the
monolithic solve, the assembly factorization and the Cauchy
decomposition.  Each draws its random fields from the generator it is
given, in a fixed order, and returns plain floats and bools with a
``passed`` flag, so the ``verify`` command and the acceptance gate report
the same numbers for the same seed.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import norm

from . import skeleton as sk
from .assembly import primary_from_blocks
from .problem import h1_norm, make_load, monolithic_matrix, solve_monolithic
from .solvers_spectral import gmres_tinv, infsup_primary
from .traces import SkeletonField, single_trace_adjoint, single_trace_embed

__all__ = [
    "random_field",
    "is_lossless",
    "exchange_axioms",
    "energy_identity",
    "transmission",
    "equivalence",
    "factorization",
    "cauchy_decomposition",
]


def random_field(problem, rng, kind: str = "dual") -> SkeletonField:
    """Complex Gaussian field on the trace blocks of a problem."""
    return SkeletonField([rng.standard_normal(n) + 1j * rng.standard_normal(n)
                          for n in problem.block_sizes], kind)


def is_lossless(problem) -> bool:
    """True when the volume absorbs nothing: Im mu = 0, Im kappa^2 = 0."""
    mesh, coeffs = problem.mesh, problem.coeffs
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    kappa_sq = coeffs.kappa_sq_at(cents[:, 0], cents[:, 1])
    return complex(coeffs.mu).imag == 0 and not np.any(kappa_sq.imag)


def _largest(values) -> float:
    """Largest residual (0 for none); unlike ``max``, a NaN is never dropped."""
    return float(np.max(values, initial=0.0))


def exchange_axioms(problem, rng) -> dict:
    """Pi is an involution and a T^-1 isometry, on 100 random fields: Pi~
    is a Euclidean one on their whitened coordinates."""
    imp, pi = problem.impedance, problem.exchange
    res = []
    for _ in range(100):
        w = imp.whiten(random_field(problem, rng))
        nw = norm(w)
        piw = pi.apply(w)
        res += [norm(pi.apply(piw) - w) / nw, abs(norm(piw) / nw - 1.0)]
    worst = _largest(res)
    return {"max_residual": worst, "passed": worst <= 1e-10}


def energy_identity(problem, rng, lossless=()) -> dict:
    """||S q||^2 + 4 |Im <A u, u>| = ||q||^2 in the T^-1 norm.

    Checked on 100 random fields of ``problem``; then, drawing from the
    same generator, S is checked to be an isometry on 34 fields of each
    problem in ``lossless`` (conditions that absorb nothing, on a lossless
    volume), as the Euclidean isometry of S~ on whitened fields.
    ``max_isometry`` is None when ``lossless`` is empty.
    """
    imp = problem.impedance
    res, iso = [], []
    for _ in range(100):
        q = random_field(problem, rng)
        pair = sk.cauchy_pair_from(problem, q)
        sq = 2.0 * pair.p - q  # S q = q + 2i T B u = 2 p - q
        nq2 = imp.norm(q) ** 2
        res.append(abs(imp.norm(sq) ** 2 + 4.0 * abs(sk.absorption(problem, pair.witness))
                       - nq2) / nq2)
    for pk in lossless:
        for _ in range(34):
            w = pk.impedance.whiten(random_field(pk, rng))
            iso.append(abs(norm(pk.scattering.apply(w)) / norm(w) - 1.0))
    worst, worst_iso = _largest(res), _largest(iso)
    return {"max_residual": worst,
            "max_isometry": worst_iso if lossless else None,
            "passed": worst <= 1e-10 and worst_iso <= 1e-11}


def transmission(problem, rng) -> dict:
    """Pi (p + iTv) = -p + iTv exactly for single-valued v and jump p.

    50 valid pairs must satisfy the identity; 50 generic pairs, drawn in
    the same loop, must violate it by a wide margin.  Measured in whitened
    coordinates: p whitens to L^-1 p and iTv to i L^T v.
    """
    imp, index, pi = problem.impedance, problem.index, problem.exchange

    def residual(p, v):
        wp = imp.whiten(p)
        itv = 1j * imp.factor_product(v.data, transpose=True)
        return norm((itv - wp) - pi.apply(wp + itv)) / norm(wp + itv)

    counts = np.zeros(index.n_sigma)
    for m in index.block_map:
        np.add.at(counts, m, 1.0)
    valid, invalid = [], []
    for _ in range(50):
        x = rng.standard_normal(index.n_sigma) + 1j * rng.standard_normal(index.n_sigma)
        u = single_trace_embed(x, index)
        r = random_field(problem, rng)
        # the jump part of r: strip its Euclidean projection onto the
        # single-valued fields
        y = single_trace_adjoint(r, index)
        jump = r - SkeletonField([(y / counts)[m] for m in index.block_map], "dual")
        valid.append(residual(jump, u))

        bad_u = random_field(problem, rng, "primal")
        bad_p = random_field(problem, rng)
        invalid.append(residual(bad_p, bad_u))
    worst_valid, worst_invalid = _largest(valid), float(np.min(invalid))
    return {"max_residual": worst_valid, "min_violation": worst_invalid,
            "passed": worst_valid <= 1e-11 and worst_invalid >= 1e-3}


def equivalence(problems) -> dict:
    """Skeleton GMRES plus recovery against the direct monolithic solve.

    Each problem gets the load f = 1, g_d = 0.3 and g_n = 0.5 M_Gamma 1.  A
    problem whose solve fails on a kernel that ``infsup_primary`` counts
    (pure Neumann at kappa^2 = 0, Dirichlet at a resonance) is listed by bc
    kind under ``singular``, skips the rest and does not fail the suite.
    """
    h1, mm, singular = [], [], []
    converged = True
    for p in problems:
        ones = np.ones(p.n_gamma)
        load = make_load(p, f=1.0, g_d=0.3 * ones, g_n=0.5 * (p.gamma_mass @ ones))
        q, rep = gmres_tinv(p, sk.skeleton_rhs(p, load), tol=1e-10)
        if not rep.converged and infsup_primary(p)[2] > 0:
            singular.append(p.bc.kind)
            continue
        converged = converged and bool(rep.converged)
        rec = sk.recover_volume(p, q, load)
        u_mono, _ = solve_monolithic(p, load)
        h1.append(h1_norm(p, rec.u - u_mono) / h1_norm(p, u_mono))
        mm.append(rec.mismatch)
    worst_h1, worst_mm = _largest(h1), _largest(mm)
    return {"max_h1_error": worst_h1, "max_mismatch": worst_mm,
            "converged": converged, "singular": singular,
            "passed": converged and worst_h1 <= 1e-8 and worst_mm <= 1e-9}


def factorization(problems) -> dict:
    """The monolithic matrix equals the folded block operator, entrywise."""
    res = []
    for p in problems:
        direct = monolithic_matrix(p)
        diff = (direct - primary_from_blocks(p.partition, p.forms, p.bc)).tocoo()
        if diff.nnz:
            res.append(abs(diff.data).max() / abs(direct).max())
    worst = _largest(res)
    return {"max_entry_error": worst, "passed": worst <= 1e-13}


def cauchy_decomposition(problem, rng) -> dict:
    """Trace pairs split into Cauchy data plus a graph element (v', iTv').

    On 10 random pairs: the parts recompose the pair, the first part is
    Cauchy data and the second lies on the graph of iT.
    """
    imp = problem.impedance
    rec, mem, graph = [], [], []
    for _ in range(10):
        v = random_field(problem, rng, "primal")
        q = random_field(problem, rng)
        pair, (u1, p1) = sk.cauchy_decompose(problem, v, q)
        scale = max(imp.norm(v), imp.norm(q))
        rec += [imp.norm((pair.v + u1) - v) / scale, imp.norm((pair.p + p1) - q) / scale]
        mem.append(sk.cauchy_membership_residual(problem, pair.v, pair.p))
        graph.append(imp.norm(p1 - 1j * imp.apply(u1)) / scale)
    worst_rec, worst_mem, worst_graph = _largest(rec), _largest(mem), _largest(graph)
    return {"max_recomposition": worst_rec, "max_membership": worst_mem,
            "max_graph": worst_graph,
            "passed": worst_rec <= 1e-12 and worst_mem <= 1e-9 and worst_graph <= 1e-12}
