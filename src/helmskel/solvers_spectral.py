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
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg.blas import zaxpy, zdotc

from .assembly import Coefficients, LocalForms, _assemble_on
from .impedance import _real_op, _splu_spd
from .problem import Problem, build_problem, monolithic_matrix
from .skeleton import _PIVOT_THRESHOLD, _whitened_apply
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
]


class DenseCapExceeded(RuntimeError):
    """Requested dense analysis beyond the configured dimension cap."""


@dataclass
class SolveReport:
    """Outcome of one iterative skeleton solve; ``iterations`` counts updates."""

    method: str
    iterations: int
    residual_history: list
    converged: bool
    final_mismatch: float = None
    message: str = ""
    true_residual: float = None

    def as_dict(self):
        d = dict(method=self.method, iterations=self.iterations,
                 converged=bool(self.converged), message=self.message,
                 residual_history=[float(r) for r in self.residual_history])
        if self.final_mismatch is not None:
            d["final_mismatch"] = float(self.final_mismatch)
        if self.true_residual is not None:
            d["true_residual"] = float(self.true_residual)
        return d


@dataclass
class SpectralReport:
    """Measured constants and inequality checks of one configuration; the
    kernel dimensions are exact counts of singular values under the threshold."""

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
        return {k: (bool(v) if isinstance(v, (bool, np.bool_)) else
                    int(v) if isinstance(v, (int, np.integer)) else float(v))
                for k, v in self.__dict__.items()}


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


# Rows of the first Krylov basis allocation; the basis doubles as needed, so
# its memory follows the iteration count, not the dimension.
_BASIS_ROWS = 16


def _gmres_core(matvec, b, tol, restart, maxit):
    """Restarted GMRES with Givens rotations; returns (x, history, converged).

    The Krylov basis is held as contiguous rows ``V[k]``, allocated for
    ``_BASIS_ROWS`` directions and doubled as needed, with the Hessenberg
    matrix grown to match.  Each new direction is orthogonalised by two
    classical Gram-Schmidt passes (CGS2, "twice is enough": Giraud, Langou
    and Rozloznik, Numer. Math. 101, 2005): each pass takes the projections
    ``<V[i], w>`` on all rows at once and then subtracts them from ``w``.
    The first cycle starts from x = 0 without applying the operator.

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
    if bnorm == 0.0:
        return x, [], True
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
        V = np.empty((min(m + 1, _BASIS_ROWS), n), complex)
        H = np.zeros((len(V), len(V) - 1), complex)
        rotations = []
        g = np.zeros(m + 1, complex)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        for k in range(m):
            if k + 1 == len(V):
                grow = min(len(V), m + 1 - len(V))
                V = np.pad(V, ((0, grow), (0, 0)))
                H = np.pad(H, ((0, grow), (0, grow)))
            # a copy, since the axpy updates below write into w
            w = np.array(matvec(V[k]), complex)
            wnorm = np.linalg.norm(w)
            # one BLAS-1 call per row, not a gemv with the basis: as fast on
            # one BLAS thread, but a threaded gemv wakes the BLAS workers on
            # every step, which doubled the solve time at two OpenBLAS
            # threads on a shared two-core host
            Vk = V[:k + 1]
            for _ in range(2):
                h = [zdotc(v, w) for v in Vk]
                for coeff, v in zip(h, Vk):
                    w = zaxpy(v, w, a=-coeff)
                H[:k + 1, k] += h
            H[k + 1, k] = np.linalg.norm(w)
            breakdown = H[k + 1, k].real <= _BREAKDOWN_RTOL * wnorm
            if breakdown:
                H[k + 1, k] = 0.0
            else:
                V[k + 1] = w / H[k + 1, k]
            # the rotations run on Python complex numbers: indexing numpy
            # scalars one at a time costs more than the arithmetic
            col = H[:k + 2, k].tolist()
            for i, (c, s) in enumerate(rotations):
                hi, hi1 = col[i], col[i + 1]
                col[i] = c.conjugate() * hi + s.conjugate() * hi1
                col[i + 1] = -s * hi + c * hi1
            c, s = _givens(col[k], col[k + 1])
            rotations.append((c, s))
            col[k] = c.conjugate() * col[k] + s.conjugate() * col[k + 1]
            col[k + 1] = 0.0
            H[:k + 2, k] = col
            gk = g[k]
            g[k] = c.conjugate() * gk
            g[k + 1] = -s * gk
            total += 1
            k_used = k + 1
            history.append(abs(g[k + 1]))
            if abs(g[k + 1]) <= tol * bnorm or breakdown:
                break
        R, gr = H[:k_used, :k_used], g[:k_used]
        if breakdown:
            y = np.linalg.lstsq(R, gr, rcond=None)[0]
            history[-1] = math.hypot(history[-1], np.linalg.norm(gr - R @ y))
        else:
            y = sla.solve_triangular(R, gr, lower=False)
        x = x + y @ V[:k_used]
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
    solution unwhitened once each.
    """
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
    return q, SolveReport(method, iterations, history, converged,
                          message=message, true_residual=true_res)


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

def dense_operator(problem: Problem, cap: int = 2000) -> np.ndarray:
    """Dense matrix of the whitened skeleton operator.

    The columns are ``_whitened_apply`` of the identity, the same path as
    the solvers' single vectors: the exchange and scattering operators in
    whitened coordinates, so no column is whitened.  To bound the
    temporaries, the identity goes in one chunk of columns per trace block.
    """
    n = problem.dual_dim
    if n > cap:
        raise DenseCapExceeded(f"skeleton dimension {n} exceeds dense cap {cap}")
    imp = problem.impedance
    M = np.zeros((n, n), complex)
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


def infsup_primary(problem: Problem, svd_threshold: float = 1e-8):
    """(sigma_min, sigma_max, kernel_dim) of the whitened monolithic operator.

    One sparse path at every size.  Both extremes come from Lanczos on SPD
    pencils: sigma_max^2 is the top eigenvalue of (A^H W^-1 A, W) and
    1/sigma_min^2 the top eigenvalue of (A^-H W A^-1, W^-1), with W the
    block norm Gram; every call starts from one seeded vector.  The kernel
    counts singular values under ``svd_threshold * sigma_max``: 0 while
    sigma_min clears that limit, else the top m = 2, 4, 8, ... (m < n)
    eigenvalues of the inverse pencil are taken until one of them clears it.
    """
    A = monolithic_matrix(problem)
    nv = problem.mesh.num_vertices
    ng = problem.n_gamma
    n = nv + ng
    H = problem.global_forms.H.tocsc()
    h_lu = _splu_spd(H)
    t_gamma = problem.bc.t_gamma
    t_inv = problem.bc.t_inverse()
    # A is complex symmetric: a symmetric fill-reducing order, diagonal
    # pivots where they are large enough, as for the local impedance factors
    a_lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=_PIVOT_THRESHOLD,
                     options=dict(SymmetricMode=True))
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
    limit = svd_threshold * smax
    kernel = m = int(smin < limit)
    while kernel == m and 0 < m < n - 1:
        m = min(2 * m, n - 1)
        kernel = int(np.sum(smallest(m) < limit))
    return smin, smax, kernel


def _block_norm(A: np.ndarray, W: np.ndarray) -> float:
    """Spectral norm of A whitened by the SPD Gram W = L L^T: ||L^-1 A L^-T||_2.

    The dense fallback of ``continuity_modulus`` (the mixed outer block and
    subdomain blocks without constant real coefficients), and the oracle
    that tests hold the closed forms of ``_outer_block_norm`` and
    ``_subdomain_block_norm`` to.

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

    Whitened by the symmetric square root of W = diag(T, T^-1), the
    Dirichlet swap stays the swap and the Neumann block T^-1 on the
    multiplier becomes the identity: both have norm 1.  Robin adds the
    trace block -i lam, which whitens to -i T^-1/2 lam T^-1/2; for a real
    symmetric lam (positive definite, as the condition checks) its norm is
    the top eigenvalue of the pencil (lam, T).  The mixed condition, and a
    robin lam that is not real symmetric, keep the dense ``_block_norm``.
    """
    if bc.kind in ("dirichlet", "neumann"):
        return 1.0
    if bc.kind == "robin" and np.isrealobj(bc.lam) and np.array_equal(bc.lam, bc.lam.T):
        n = bc.n
        top = sla.eigh(bc.lam, bc.t_gamma, eigvals_only=True,
                       subset_by_index=[n - 1, n - 1], check_finite=False)[0]
        return max(1.0, float(top))
    Baa, Bap, Bpa, Bpp = bc.a_gamma_blocks()
    Z = np.zeros_like(bc.t_gamma)
    return _block_norm(np.block([[Baa, Bap], [Bpa, Bpp]]),
                       np.block([[bc.t_gamma, Z], [Z, bc.t_inverse()]]))


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

    The boundary block has a closed form too, except under the mixed
    condition (see ``_outer_block_norm``).  The dense ``_block_norm`` stays
    for the mixed boundary block and for every subdomain block under a
    callable or complex kappa^2 or a complex mu.
    """
    best = _outer_block_norm(problem.bc)
    for lf in problem.forms:
        best = max(best, _subdomain_block_norm(lf, problem.coeffs))
    return best


def verify_estimates(problem: Problem, svd_threshold: float = 1e-8,
                     dense_cap: int = 2000) -> SpectralReport:
    """Measure every certified inequality of the configuration.

    Checks, in order: the estimate chain between the two inf-sup constants,
    the coercivity lower bound, the kernel dimension correspondence, and
    the (trivially zero) index consistency through the transposed operator.
    The transpose needs no second SVD: M is square and M^T is the adjoint
    of conj(M), so it has the singular values of M, and the kernels of M
    and M^T have the same dimension under the same threshold.
    """
    M = dense_operator(problem, dense_cap)
    svals = sla.svdvals(M)
    smax_s = float(svals.max())
    infsup_s = float(svals.min())
    kernel_s = int(np.sum(svals < svd_threshold * smax_s))
    coer = float(sla.eigvalsh(0.5 * (M + M.conj().T)).min())

    infsup_p, smax_p, kernel_p = infsup_primary(problem, svd_threshold=svd_threshold)
    norm_a = continuity_modulus(problem)

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

SWEEP_COLUMNS = ("k", "n_sigma", "infsup_primary", "norm_A", "infsup_skeleton",
                 "coercivity", "kernel_primary", "kernel_skeleton",
                 "pass_thm_final", "pass_cor_coercivity")


def _resolution(k: float, px: int, py: int) -> int:
    cells = max(int(math.ceil(_POINTS_PER_WAVELENGTH * k / (2.0 * math.pi))), 1)
    step = math.lcm(px, py)
    return ((cells + step - 1) // step) * step


def sweep_wavenumber(k_values, px: int = 2, py: int = 2,
                     tgamma: str = "collar", lambda_scale: float = 1.0,
                     dense_cap: int = 2000, svd_threshold: float = 1e-8):
    """Constants of the robin reference family across wavenumbers.

    Per k: resolution from the rule of ``_POINTS_PER_WAVELENGTH`` points
    per wavelength, rounded to the partition grid, gamma = 1/k, robin impedance k times the boundary
    mass.  Returns (rows, slopes); slopes are the log-log regression
    coefficients of the skeleton inf-sup and coercivity constants against
    k, or None for fewer than two wavenumbers.
    """
    k_values = list(k_values)
    if not k_values:
        raise ValueError("empty wavenumber list")

    rows = []
    for k in k_values:
        n = _resolution(k, px, py)
        problem = build_problem(n, n, px, py, k=float(k), bc_kind="robin",
                                lambda_scale=lambda_scale, tgamma=tgamma)
        rep = verify_estimates(problem, svd_threshold=svd_threshold,
                               dense_cap=dense_cap)
        rows.append({
            "k": float(k), "n_sigma": rep.n_dual,
            "infsup_primary": rep.infsup_primary, "norm_A": rep.continuity_a,
            "infsup_skeleton": rep.infsup_skeleton, "coercivity": rep.coercivity,
            "kernel_primary": rep.kernel_dim_primary,
            "kernel_skeleton": rep.kernel_dim_skeleton,
            "pass_thm_final": rep.pass_estimate_chain,
            "pass_cor_coercivity": rep.pass_coercivity_bound,
        })

    slopes = None
    if len(k_values) >= 2:
        lk = np.log([r["k"] for r in rows])
        slopes = {
            "infsup_skeleton": float(np.polyfit(lk, np.log([r["infsup_skeleton"]
                                                            for r in rows]), 1)[0]),
            "coercivity": float(np.polyfit(lk, np.log([r["coercivity"]
                                                       for r in rows]), 1)[0]),
        }
    return rows, slopes


def write_sweep_csv(rows, slopes, stream) -> None:
    """Emit the sweep table with slope footer lines."""
    stream.write(",".join(SWEEP_COLUMNS) + "\n")
    for r in rows:
        cells = []
        for c in SWEEP_COLUMNS:
            v = r[c]
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(f"{float(v):.12g}")
        stream.write(",".join(cells) + "\n")
    if slopes is not None:
        stream.write(f"# slope log infsup_skeleton vs log k = "
                     f"{slopes['infsup_skeleton']:.6g}\n")
        stream.write(f"# slope log coercivity vs log k = "
                     f"{slopes['coercivity']:.6g}\n")


# ---------------------------------------------------------------------------
# resonance engineering
# ---------------------------------------------------------------------------

def dirichlet_resonance(mesh) -> float:
    """Smallest discrete Dirichlet eigenvalue of (-Laplace) on the mesh.

    Returned as kappa^2: running the Dirichlet cavity at exactly this
    value gives the monolithic operator a one-dimensional kernel (the
    eigenvalue is simple on a rectangle), which the skeleton operator
    must inherit.
    """
    coeffs = Coefficients(k=1.0, kappa_sq=0.0, gamma=1.0)
    glob = _assemble_on(mesh, np.arange(mesh.num_triangles),
                        np.arange(mesh.num_vertices), 0, coeffs)
    gamma = np.unique(mesh.boundary_edges)
    interior = np.setdiff1d(np.arange(mesh.num_vertices), gamma)
    K = glob.K.tocsc()[np.ix_(interior, interior)]
    M = glob.M.tocsc()[np.ix_(interior, interior)]
    ni = len(interior)
    if ni <= 1500:
        vals = sla.eigh(K.toarray(), M.toarray(), eigvals_only=True,
                        subset_by_index=[0, 0])
        return float(vals[0])
    vals = spla.eigsh(K, k=1, M=M, sigma=0.0, which="LM",
                      return_eigenvectors=False)
    return float(vals[0])
