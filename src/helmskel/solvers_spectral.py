"""Iterative solvers in the T^-1 metric and the dense spectral harness.

Both run on the whitened skeleton operator ``skeleton._whitened_apply``,
so that Euclidean norms are T^-1 norms.  The exchange and scattering
operators act in whitened coordinates only, so no step whitens or
unwhitens; one driver, ``_solve``, whitens the right-hand side once,
unwhitens the solution once, and runs the Richardson and GMRES cores in
between.  The spectral harness turns the structural guarantees into
numbers: inf-sup constants of both formulations, the coercivity constant
of the skeleton operator, kernel dimensions on both sides, and the
wavenumber scaling of the constants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zaxpy, zdotc

from .assembly import Coefficients, LocalForms, assemble_stiffness_mass
from .impedance import _PIVOT_THRESHOLD, _real_op, _splu_symmetric
from .problem import Problem, build_problem, monolithic_matrix
from .skeleton import _whitened_apply
from .traces import SkeletonField

__all__ = [
    "SolveReport",
    "SpectralReport",
    "DenseCapExceeded",
    "richardson",
    "gmres_tinv",
    "dense_operator",
    "infsup_primary",
    "continuity_modulus",
    "verify_estimates",
    "sweep_wavenumber",
    "write_sweep_csv",
    "dirichlet_resonance",
    "SWEEP_COLUMNS",
    "DENSE_CAP",
    "SVD_THRESHOLD",
]


# Largest skeleton dimension the dense spectral harness will form.  It is
# the only value, read by name at each call.
DENSE_CAP = 2000

# Relative threshold (times sigma_max) under which a singular value counts
# towards a kernel, on both the primary and the skeleton side.  It is the
# only value, read by name at each call.
SVD_THRESHOLD = 1e-8


class DenseCapExceeded(RuntimeError):
    """Requested dense analysis beyond the dimension cap ``DENSE_CAP``."""


@dataclass
class SolveReport:
    """Outcome of one iterative skeleton solve; ``iterations`` counts updates.
    Every field holds a plain Python value, so ``as_dict`` is its JSON record."""

    method: str
    iterations: int
    residual_history: list
    converged: bool
    message: str = ""
    true_residual: float = None

    def as_dict(self):
        return asdict(self)


@dataclass
class SpectralReport:
    """Measured constants and inequality checks of one configuration; the
    kernel dimensions are exact counts of singular values under the threshold.
    Every field holds a plain Python value, so ``as_dict`` is its JSON record."""

    n_dual: int
    n_sigma: int
    infsup_skeleton: float
    coercivity: float
    infsup_primary: float
    continuity_a: float
    kernel_dim_primary: int
    kernel_dim_skeleton: int
    pass_estimate_chain: bool
    pass_coercivity_bound: bool
    pass_kernel_match: bool
    pass_index_zero: bool
    single_domain_flagged: bool = False
    sigma_max_skeleton: float = field(default=np.nan)
    sigma_max_primary: float = field(default=np.nan)

    def all_passed(self) -> bool:
        return bool(self.pass_estimate_chain and self.pass_coercivity_bound
                    and self.pass_kernel_match and self.pass_index_zero)

    def as_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# iterative solvers
# ---------------------------------------------------------------------------

def richardson(problem: Problem, f: SkeletonField, relax: float = 0.5,
               tol: float = 1e-10, maxit: int = 1000):
    """Damped fixed-point iteration q <- q - relax ((Id + Pi S) q - f).

    Runs in whitened coordinates, so residuals are T^-1 residuals.  Ten
    consecutive residual increases are reported as divergence (not
    raised).  ``iterations`` counts updates; the history starts at
    ||f||_T^-1 and ends at the residual of the returned q.
    """
    if not 0.0 < relax < 1.0:
        raise ValueError("relaxation parameter must lie in (0, 1)")

    def core(matvec, b):
        x, r = np.zeros_like(b), b
        history = [np.linalg.norm(b)]
        limit = tol * history[0]
        growth = 0
        for _ in range(maxit):
            if history[-1] <= limit:
                break
            x = x + relax * r
            r = b - matvec(x)
            history.append(np.linalg.norm(r))
            growth = growth + 1 if history[-1] > history[-2] else 0
            if growth >= 10:
                return (x, history, False,
                        "divergence: residual grew over 10 consecutive steps")
        return x, history, history[-1] <= limit, ""

    return _solve(problem, f, "richardson", core, tol)


def _givens(h1: complex, h2: complex):
    t = math.hypot(abs(h1), abs(h2))
    if t == 0.0:
        return 1.0, 0.0
    return h1 / t, h2 / t


# Arnoldi breaks down when the new direction is this small relative to the
# operator image it came from: the Krylov space is then invariant.
_BREAKDOWN_RTOL = 100 * np.finfo(float).eps


# Rows of each block of the Krylov basis: the basis grows by one such block
# at a time, so its memory follows the iteration count, not the dimension.
_BASIS_ROWS = 16


def _gmres_core(matvec, b, tol, restart, maxit):
    """Restarted GMRES with Givens rotations; returns (x, history, converged).

    The Krylov basis is held as blocks of ``_BASIS_ROWS`` contiguous rows,
    each allocated when the previous one is full and never copied, so a
    cycle of k steps holds k + 1 rows rounded up to a whole block, besides
    a few vectors of the dimension; each rotated Hessenberg column stays
    in the array it was formed in.  Each new direction is orthogonalised by
    two classical Gram-Schmidt passes (CGS2, "twice is enough": Giraud,
    Langou and Rozloznik, Numer. Math. 101, 2005): each pass takes the
    projections ``<V[i], w>`` on all rows at once and then subtracts them
    from ``w``.  The update of x is one product per block.  The first cycle
    starts from x = 0 without applying the operator.

    On a breakdown in a basis smaller than the space, the Krylov space is
    invariant and restarting cannot help, so the iteration stops there.  A
    basis of all n directions breaks down by construction; that cycle
    restarts from its new iterate like any other.  On a breakdown the small
    triangular system may be singular (the operator is), so it is solved in
    the least-squares sense and its misfit enters the final residual
    estimate; ``converged`` holds only if that estimate meets ``tol``.
    """
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be None or >= 1, not {restart}")
    n = len(b)
    bnorm = np.linalg.norm(b)
    x = np.zeros(n, complex)
    restart = n if restart is None else min(restart, n)
    history = []
    total = 0
    converged = breakdown = False
    while total < maxit and not (converged or breakdown):
        r = b - matvec(x) if total else b
        beta = np.linalg.norm(r)
        if total == 0:
            history.append(beta)
        if beta <= tol * bnorm:
            converged = True
            break
        m = min(restart, maxit - total)
        blocks, V = [], []  # the basis blocks, and views of their rows in order

        def append_row(w, scale):
            if len(V) % _BASIS_ROWS == 0:
                blocks.append(np.empty((min(_BASIS_ROWS, m + 1 - len(V)), n), complex))
            V.append(np.divide(w, scale, out=blocks[-1][len(V) % _BASIS_ROWS]))

        columns = []  # rotated Hessenberg columns, column k of length k + 1
        rotations = []
        g = np.zeros(m + 1, complex)
        append_row(r, beta)
        g[0] = beta
        k_used = 0
        for k in range(m):
            # a copy, since the axpy updates below write into w
            w = np.array(matvec(V[k]), complex)
            wnorm = np.linalg.norm(w)
            # one BLAS-1 call per row, not a gemv with the basis: as fast on
            # one BLAS thread, but a threaded gemv wakes the BLAS workers on
            # every step, which doubled the solve time at two OpenBLAS
            # threads on a shared two-core host
            hk = np.zeros(k + 2, complex)
            for _ in range(2):
                h = [zdotc(v, w) for v in V]
                for coeff, v in zip(h, V):
                    w = zaxpy(v, w, a=-coeff)
                hk[:k + 1] += h
            hk[k + 1] = np.linalg.norm(w)
            breakdown = hk[k + 1].real <= _BREAKDOWN_RTOL * wnorm
            if breakdown:
                hk[k + 1] = 0.0
            else:
                append_row(w, hk[k + 1])
            # the rotations run on Python complex numbers: indexing numpy
            # scalars one at a time costs more than the arithmetic
            col = hk.tolist()
            for i, (c, s) in enumerate(rotations):
                hi, hi1 = col[i], col[i + 1]
                col[i] = c.conjugate() * hi + s.conjugate() * hi1
                col[i + 1] = -s * hi + c * hi1
            c, s = _givens(col[k], col[k + 1])
            rotations.append((c, s))
            col[k] = c.conjugate() * col[k] + s.conjugate() * col[k + 1]
            hk[:k + 1] = col[:k + 1]
            columns.append(hk[:k + 1])
            gk = g[k]
            g[k] = c.conjugate() * gk
            g[k + 1] = -s * gk
            total += 1
            k_used = k + 1
            history.append(abs(g[k + 1]))
            if abs(g[k + 1]) <= tol * bnorm or breakdown:
                break
        R, gr = np.zeros((k_used, k_used), complex), g[:k_used]
        for k, col in enumerate(columns):
            R[:k + 1, k] = col
        if breakdown:
            y = np.linalg.lstsq(R, gr, rcond=None)[0]
            history[-1] = math.hypot(history[-1], np.linalg.norm(gr - R @ y))
        else:
            y = sla.solve_triangular(R, gr, lower=False)
        for i, block in zip(range(0, k_used, _BASIS_ROWS), blocks):
            yb = y[i:i + _BASIS_ROWS]
            x += yb @ block[:len(yb)]
        converged = history[-1] <= tol * bnorm
        breakdown = breakdown and k_used < n
    return x, history, converged


# The true residual may exceed the Krylov estimate by rounding only.
_TRUE_RESIDUAL_FACTOR = 10.0

# Mesh resolution rule of the wavenumber sweep.
_POINTS_PER_WAVELENGTH = 10.0

# Rounding allowance of the inequalities checked by verify_estimates.
_SLACK = 1e-9


def _solve(problem: Problem, f: SkeletonField, method: str, core, tol: float):
    """Run ``core(matvec, b)`` on the whitened skeleton equation.

    ``core`` returns ``(x, history, converged, message)`` for the whitened
    operator and right-hand side, with the residual norms of the initial
    and of every updated iterate in ``history``.  At exit the true relative
    residual ||f - (Id + Pi S) q||_T^-1 / ||f||_T^-1 is computed once, as
    the Euclidean norm of the whitened residual, and reported as
    ``true_residual``; the solve counts as converged only if it is also
    within ``_TRUE_RESIDUAL_FACTOR * tol``.  ``f`` is whitened and the
    solution unwhitened once each.  A field of m columns raises
    ``ValueError``: one report cannot tell m solves apart.
    """
    if f.data.ndim != 1:
        raise ValueError(f"{method} takes one right-hand side per solve; "
                         f"solve the {f.data.shape[1]} columns in turn")
    imp = problem.impedance
    b = imp.whiten(f)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return imp.zeros("dual"), SolveReport(method, 0, [], True, true_residual=0.0)
    x, history, converged, message = core(lambda w: _whitened_apply(problem, w), b)
    true_res = float(np.linalg.norm(b - _whitened_apply(problem, x)) / bnorm)
    q = imp.unwhiten(x)
    iterations = max(len(history) - 1, 0)
    limit = _TRUE_RESIDUAL_FACTOR * tol
    if converged and true_res > limit:
        converged = False
        message = (f"{method} estimate {history[-1] / bnorm:.3e} met tol {tol:.1e}, "
                   f"but the true residual {true_res:.3e} exceeds {limit:.1e}")
    elif not (converged or message):
        message = f"not converged after {iterations} iterations"
    return q, SolveReport(method, iterations, [float(r) for r in history],
                          bool(converged), message=message, true_residual=true_res)


def gmres_tinv(problem: Problem, f: SkeletonField, tol: float = 1e-10,
               restart: int = None, maxit: int = None):
    """GMRES through ``_solve``; full (unrestarted) iteration by default."""
    if maxit is None:
        maxit = 2 * problem.dual_dim

    def core(matvec, b):
        return (*_gmres_core(matvec, b, tol, restart, maxit), "")

    return _solve(problem, f, "gmres", core, tol)


# ---------------------------------------------------------------------------
# dense spectral harness
# ---------------------------------------------------------------------------

def dense_operator(problem: Problem) -> np.ndarray:
    """Dense matrix of the whitened skeleton operator.

    The columns are ``_whitened_apply`` of the identity, the same path as
    the solvers' single vectors: the exchange and scattering operators in
    whitened coordinates, so no column is whitened.  To bound the
    temporaries, the identity goes in one chunk of columns per trace block.
    M is held in Fortran order, the layout LAPACK reads, so a dense solver
    given ``overwrite_a`` works on it in place.
    """
    n = problem.dual_dim
    if n > DENSE_CAP:
        raise DenseCapExceeded(f"skeleton dimension {n} exceeds dense cap {DENSE_CAP}")
    imp = problem.impedance
    M = np.zeros((n, n), complex, order="F")
    for o, m in zip(imp.offsets[:-1], imp.sizes):
        E = np.zeros((n, m), complex)
        E[o:o + m] = np.eye(m)
        M[:, o:o + m] = _whitened_apply(problem, E)
    return M


def _whitened(L: np.ndarray, A: np.ndarray) -> np.ndarray:
    """L^-1 A L^-T for a real lower triangular L.

    A complex A is solved as its real and imaginary columns, so L is never
    cast to complex; a real A gives a real result.
    """
    def solve(X):
        return sla.solve_triangular(L, X, lower=True, check_finite=False)

    return _real_op(solve, _real_op(solve, A).T).T


def infsup_primary(problem: Problem):
    """(sigma_min, sigma_max, kernel_dim) of the whitened monolithic operator.

    One sparse path at every size.  Both extremes come from Lanczos on SPD
    pencils: sigma_max^2 is the top eigenvalue of (A^H W^-1 A, W) and
    1/sigma_min^2 the top eigenvalue of (A^-H W A^-1, W^-1), with W the
    block norm Gram; every call starts from one seeded vector.  The kernel
    counts singular values under ``SVD_THRESHOLD * sigma_max``: 0 while
    sigma_min clears that limit, else the top m = 2, 4, 8, ... (m < n)
    eigenvalues of the inverse pencil are taken until one of them clears it.
    """
    A = monolithic_matrix(problem)
    nv = problem.mesh.num_vertices
    ng = problem.n_gamma
    n = nv + ng
    H = problem.global_forms.H.tocsc()
    h_lu = _splu_symmetric(H)
    t_gamma = problem.bc.t_gamma
    t_inv = problem.bc.t_inverse()
    # A is complex symmetric and indefinite: diagonal pivots where they are
    # large enough, as for the local impedance factors
    a_lu = _splu_symmetric(A.tocsc(), _PIVOT_THRESHOLD)
    rng = np.random.default_rng(0)
    v0 = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)

    def w_mat(x):
        return np.concatenate([H @ x[:nv], t_inv @ x[nv:]])

    def w_inv(x):
        return np.concatenate([_real_op(h_lu.solve, x[:nv]), t_gamma @ x[nv:]])

    W = spla.LinearOperator((n, n), matvec=w_mat, dtype=complex)
    Winv = spla.LinearOperator((n, n), matvec=w_inv, dtype=complex)

    AH = A.conj().T
    K = spla.LinearOperator((n, n), dtype=complex,
                            matvec=lambda x: AH @ w_inv(A @ x))
    lam_max = spla.eigsh(K, k=1, M=W, Minv=Winv, which="LA", v0=v0,
                         return_eigenvectors=False, tol=1e-8)[0]

    # 1/sigma_min^2 = max of y^H (A^-1 W A^-H) y over y^H W^-1 y; the two
    # solve orders give the same singular spectrum.
    Ginv = spla.LinearOperator((n, n), dtype=complex,
                               matvec=lambda y: a_lu.solve(w_mat(a_lu.solve(y, trans="H"))))

    def smallest(m):
        lam = spla.eigsh(Ginv, k=m, M=Winv, Minv=W, which="LA", v0=v0,
                         return_eigenvectors=False, tol=1e-8)
        return 1.0 / np.sqrt(lam)

    smin, smax = float(smallest(1)[0]), float(np.sqrt(lam_max))
    limit = SVD_THRESHOLD * smax
    kernel = m = int(smin < limit)
    while kernel == m and 0 < m < n - 1:
        m = min(2 * m, n - 1)
        kernel = int(np.sum(smallest(m) < limit))
    return smin, smax, kernel


def _block_norm(A: np.ndarray, W: np.ndarray) -> float:
    """Spectral norm of A whitened by the SPD Gram W = L L^T: ||L^-1 A L^-T||_2.

    The dense fallback of ``continuity_modulus`` for subdomain blocks
    without constant real coefficients, and the oracle that tests hold the
    closed forms of ``_outer_block_norm`` and ``_subdomain_block_norm`` to.

    A real symmetric A whitens to a real symmetric matrix, whose norm is
    its largest eigenvalue in modulus: the real generalized eigensolve of
    the pencil (A, W) whitens by the real Cholesky factor and finds them.
    Any other A is whitened by real triangular solves on its real and
    imaginary parts and normed by the complex SVD.
    """
    if not np.any(A.imag) and np.array_equal(A, A.T):
        ev = sla.eigh(A.real, W, eigvals_only=True, driver="gv", check_finite=False)
        return float(np.abs(ev).max())
    return float(sla.svdvals(_whitened(np.linalg.cholesky(W), A)).max())


# Relative slack of the test kappa^2 gamma^2 >= 1/mu: the default
# kappa^2 = k^2 with gamma = 1/k rounds to either side of 1.
_CLOSED_FORM_SLACK = 8 * np.finfo(float).eps


def _subdomain_block_norm(lf: LocalForms, coeffs: Coefficients) -> float:
    """Whitened norm of one subdomain block: the closed form of
    ``continuity_modulus`` for constant real coefficients, else the dense
    ``_block_norm``."""
    ksq, mu = coeffs.kappa_sq, complex(coeffs.mu)
    if callable(ksq) or complex(ksq).imag or mu.imag:
        return _block_norm(lf.A.toarray(), lf.H.toarray())
    ksq, mu_inv, g2 = complex(ksq).real, 1.0 / mu.real, coeffs.gamma ** 2
    at_zero = abs(ksq) * g2
    if mu_inv <= ksq * g2 * (1.0 + _CLOSED_FORM_SLACK):
        return max(at_zero, mu_inv)
    v0 = np.random.default_rng(0).uniform(-1.0, 1.0, lf.n_dofs)
    lam = spla.eigsh(lf.K, k=1, M=lf.M, which="LA", v0=v0, tol=0,
                     return_eigenvectors=False)[0]
    return max(at_zero, abs((lam * mu_inv - ksq) / (lam + 1.0 / g2)))


def _outer_block_norm(bc) -> float:
    """Whitened norm of the boundary block in the pair norm (T, T^-1).

    Whitened by the symmetric square root of W = diag(T, T^-1), the block
    (-i lam, Theta; Theta^T, T^-1 (I - Theta)) is (-i Lam, P; P, I - P) with
    Lam = T^-1/2 lam T^-1/2 and P = T^-1/2 Theta T^1/2, an orthogonal
    projector, as T^-1 Theta = Theta^T T^-1 and Theta^2 = Theta.  Every
    condition has lam = 0 or Theta = 0.  Theta = 0 leaves diag(-i Lam, I),
    of norm max(1, ||Lam||).  lam = 0 maps (a, b), split into parts in the
    range and the kernel of P, to (b_1, a_1 + b_0): no longer than (a, b),
    and as long for a = 0, so the norm is 1 = max(1, ||Lam||).  lam is
    zero or, as the robin condition checks, real symmetric positive
    definite, so ||Lam|| is the top eigenvalue of the pencil (lam, T); the
    eigensolve gives 0 for a zero lam.
    """
    n = bc.n
    top = sla.eigh(bc.lam, bc.t_gamma, eigvals_only=True,
                   subset_by_index=[n - 1, n - 1], check_finite=False)[0]
    return max(1.0, float(top))


def continuity_modulus(problem: Problem) -> float:
    """Operator norm of the block-diagonal form in the block trace norms.

    Block diagonality makes this the maximum over blocks of the whitened
    block norm: the boundary block in the (T, T^-1) pair norm, each
    subdomain in its volume norm.

    A subdomain block with a constant real kappa^2 and a real mu has a
    closed-form norm.  Its form is A = mu^-1 K - kappa^2 M in the Gram
    H = K + gamma^-2 M, so its whitened eigenvalues are
    f(lam) = (lam / mu - kappa^2) / (lam + gamma^-2) over the spectrum of
    the pencil (K, M).  The local forms carry no boundary condition, so K
    annihilates the constants and lam = 0 is attained.  f is monotone on
    [0, inf), so the norm is max(|kappa^2| gamma^2, |f(lam_max)|).

    When 1/mu <= kappa^2 gamma^2, f rises from -kappa^2 gamma^2 towards
    1/mu, so every block has the norm kappa^2 gamma^2 and none is touched.
    That comparison allows a few ulps, because the defaults kappa^2 = k^2,
    gamma = 1/k and mu = 1 round to either side of equality; within them
    the result is max(kappa^2 gamma^2, 1/mu).  Otherwise lam_max of each
    block comes from one sparse Lanczos solve with a seeded start vector.

    The boundary block has a closed form too, for every condition (see
    ``_outer_block_norm``).  The dense ``_block_norm`` stays for every
    subdomain block under a callable or complex kappa^2 or a complex mu.
    """
    best = _outer_block_norm(problem.bc)
    for lf in problem.forms:
        best = max(best, _subdomain_block_norm(lf, problem.coeffs))
    return best


def verify_estimates(problem: Problem) -> SpectralReport:
    """Measure every certified inequality of the configuration.

    Checks, in order: the estimate chain between the two inf-sup constants,
    the coercivity lower bound, the kernel dimension correspondence, and
    the (trivially zero) index consistency through the transposed operator.
    The transpose needs no second SVD: M is square and M^T is the adjoint
    of conj(M), so it has the singular values of M, and the kernels of M
    and M^T have the same dimension under the same threshold.

    Once ``dense_operator`` has returned, the dense phase holds two n x n
    matrices: M and its Hermitian part, written into one Fortran-ordered
    buffer.  The SVD and the eigensolve each overwrite their matrix in
    place, and both are freed before the sparse primary constants are
    computed.
    """
    M = dense_operator(problem)
    herm = np.empty_like(M)
    np.conjugate(M.T, out=herm)
    herm += M
    herm *= 0.5
    svals = sla.svdvals(M, overwrite_a=True)
    del M
    smax_s = float(svals.max())
    infsup_s = float(svals.min())
    kernel_s = int(np.sum(svals < SVD_THRESHOLD * smax_s))
    coer = float(sla.eigvalsh(herm, overwrite_a=True).min())
    del herm

    infsup_p, smax_p, kernel_p = infsup_primary(problem)
    norm_a = float(continuity_modulus(problem))

    kernel_t = kernel_s  # M.T has the singular values of M

    return SpectralReport(
        n_dual=problem.dual_dim,
        n_sigma=problem.index.n_sigma,
        infsup_skeleton=infsup_s,
        coercivity=coer,
        infsup_primary=infsup_p,
        continuity_a=norm_a,
        kernel_dim_primary=kernel_p,
        kernel_dim_skeleton=kernel_s,
        pass_estimate_chain=bool(infsup_p <= (1.0 + norm_a) * infsup_s + _SLACK),
        pass_coercivity_bound=bool(coer >= 0.5 * infsup_s ** 2 - _SLACK),
        pass_kernel_match=bool(kernel_p == kernel_s),
        pass_index_zero=bool(kernel_s == kernel_t),
        single_domain_flagged=bool(problem.num_subdomains == 1),
        sigma_max_skeleton=smax_s,
        sigma_max_primary=smax_p,
    )


# ---------------------------------------------------------------------------
# wavenumber sweep
# ---------------------------------------------------------------------------

# The sweep CSV: one (header, row key) pair per column, in file order.  A
# row is a certificate (``SpectralReport.as_dict``) plus its wavenumber
# ``k``.  The headers predate the certificate's field names and stay, so
# that existing sweep CSVs still compare: "n_sigma" holds the skeleton
# dimension ``n_dual`` (``Problem.dual_dim``, 96 on 8x8, 2x2), not
# ``index.n_sigma`` (45 there).  ``write_sweep_csv`` writes a bool as
# true/false, an int as an integer and every other value in %.12g.
SWEEP_COLUMNS = (("k", "k"), ("n_sigma", "n_dual"),
                 ("infsup_primary", "infsup_primary"), ("norm_A", "continuity_a"),
                 ("infsup_skeleton", "infsup_skeleton"), ("coercivity", "coercivity"),
                 ("kernel_primary", "kernel_dim_primary"),
                 ("kernel_skeleton", "kernel_dim_skeleton"),
                 ("pass_thm_final", "pass_estimate_chain"),
                 ("pass_cor_coercivity", "pass_coercivity_bound"))


def _resolution(k: float, px: int, py: int) -> int:
    cells = max(int(math.ceil(_POINTS_PER_WAVELENGTH * k / (2.0 * math.pi))), 1)
    step = math.lcm(px, py)
    return ((cells + step - 1) // step) * step


def sweep_wavenumber(k_values, px: int = 2, py: int = 2,
                     tgamma: str = "collar", lambda_scale: float = 1.0):
    """Constants of the robin reference family across wavenumbers.

    Per k: resolution from the rule of ``_POINTS_PER_WAVELENGTH`` points
    per wavelength, rounded to the partition grid, gamma = 1/k, robin
    impedance k times the boundary mass.  Returns (rows, slopes): a row is
    the certificate's ``as_dict`` plus ``k``; slopes are the log-log
    regression coefficients of ``infsup_skeleton`` and ``coercivity``
    against k, or None for fewer than two wavenumbers.
    """
    k_values = list(k_values)
    if not k_values:
        raise ValueError("empty wavenumber list")

    rows = []
    for k in k_values:
        n = _resolution(k, px, py)
        problem = build_problem(n, n, px, py, k=float(k), bc_kind="robin",
                                lambda_scale=lambda_scale, tgamma=tgamma)
        rep = verify_estimates(problem)
        rows.append({"k": float(k), **rep.as_dict()})

    slopes = None
    if len(k_values) >= 2:
        lk = np.log([r["k"] for r in rows])
        slopes = {name: float(np.polyfit(lk, np.log([r[name] for r in rows]), 1)[0])
                  for name in ("infsup_skeleton", "coercivity")}
    return rows, slopes


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v) if isinstance(v, int) else f"{v:.12g}"


def write_sweep_csv(rows, slopes, stream) -> None:
    """Write the sweep table in the format of ``SWEEP_COLUMNS``: the header
    line, one line per row, then one ``# slope ...`` footer line per slope
    (none for a single row)."""
    stream.write(",".join(header for header, _ in SWEEP_COLUMNS) + "\n")
    for r in rows:
        stream.write(",".join(_csv_cell(r[key]) for _, key in SWEEP_COLUMNS) + "\n")
    for name, slope in (slopes or {}).items():
        stream.write(f"# slope log {name} vs log k = {slope:.6g}\n")


# ---------------------------------------------------------------------------
# resonance engineering
# ---------------------------------------------------------------------------

# Most interior vertices for which ``dirichlet_resonance`` takes the dense
# generalized eigensolve; larger meshes use sparse shift-invert at 0.
_DENSE_RESONANCE_MAX = 1500


def dirichlet_resonance(mesh) -> float:
    """Smallest discrete Dirichlet eigenvalue of (-Laplace) on the mesh.

    Returned as kappa^2: running the Dirichlet cavity at exactly this
    value gives the monolithic operator a one-dimensional kernel (the
    eigenvalue is simple on a rectangle), which the skeleton operator
    must inherit.  A mesh with no interior vertex has no such eigenvalue
    and raises ``ValueError``.
    """
    interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_edges)
    if len(interior) == 0:
        raise ValueError("the mesh has no interior vertex, so no Dirichlet "
                         "eigenvalue: nx, ny >= 2 needed")
    K, M = (F.tocsc()[np.ix_(interior, interior)] for F in assemble_stiffness_mass(mesh))
    if len(interior) <= _DENSE_RESONANCE_MAX:
        vals = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                        subset_by_index=[0, 0])
        return float(vals[0])
    vals = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM",
                      return_eigenvectors=False)
    return float(vals[0])
