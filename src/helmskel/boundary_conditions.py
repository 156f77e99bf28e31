"""Boundary operators for the four supported cavity conditions.

Each condition contributes a 2x2 block operator on the boundary pair
(alpha, p): the Dirichlet condition couples the trace and the multiplier
through a plain swap, Neumann and Robin decouple the multiplier, and the
mixed condition routes through an oblique projector onto the functionals
supported on the Dirichlet part.  The closed form of each impedance
inverse serves the volume solves on the boundary pair.  The closed form of
the boundary scattering block agrees with it by the resolvent formula;
written in whitened coordinates, it is the outer block of the scattering
operator.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .impedance import _real_op

__all__ = [
    "BoundaryCondition",
    "make_boundary_condition",
    "mixed_projector",
    "gamma_d_positions_from_tags",
]

_KINDS = ("dirichlet", "neumann", "robin", "mixed")


def _cho_solve(U: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(U^T U)^-1 q for a real upper Cholesky factor U; a complex q as real
    columns."""
    return _real_op(lambda X: sla.cho_solve((U, False), X, check_finite=False), q)


def mixed_projector(gamma_d_positions: np.ndarray, t_gamma: np.ndarray,
                    chol_t=None) -> np.ndarray:
    """Projector onto multipliers supported on the Dirichlet part.

    Orthogonal in the inverse-impedance inner product: with P the column
    selector of the Dirichlet positions, Theta = P (P^T T^-1 P)^-1 P^T T^-1.
    Real, idempotent, and satisfies T^-1 Theta = Theta^T T^-1.  ``chol_t``
    is the lower Cholesky factor of T if it is already at hand.
    """
    n = t_gamma.shape[0]
    d = np.asarray(gamma_d_positions, dtype=np.int64)
    if len(d) == 0 or len(np.unique(d)) >= n:
        raise ValueError("Dirichlet dof set must be a nonempty proper subset")
    d = np.unique(d)
    L = np.linalg.cholesky(t_gamma) if chol_t is None else chol_t
    Tinv = sla.cho_solve((L, True), np.eye(n))
    X = np.linalg.solve(Tinv[np.ix_(d, d)], Tinv[d, :])
    theta = np.zeros((n, n))
    theta[d, :] = X
    return theta


def gamma_d_positions_from_tags(mesh, gamma_dofs: np.ndarray) -> np.ndarray:
    """Positions (within the boundary dof ordering) of vertices on 'D' edges.

    A vertex touching both tag sets is assigned to the Dirichlet side.
    """
    d_edges = mesh.boundary_edges[mesh.boundary_tags == "D"]
    d_verts = np.unique(d_edges)
    pos = np.full(mesh.num_vertices, -1, dtype=np.int64)
    pos[gamma_dofs] = np.arange(len(gamma_dofs))
    return np.sort(pos[d_verts])


class BoundaryCondition:
    """One of the four boundary operators, bound to an outer impedance.

    Exposes the operator itself (``apply``), the closed-form inverse of
    the impedance-shifted operator (``impedance_inverse``), the closed form
    of the boundary scattering block (``scattering``, and in whitened
    coordinates ``whitened_scattering``, the outer block of the scattering
    operator) and the dense 2x2 blocks used by the monolithic assembly.
    ``chol_t`` is the lower Cholesky factor of ``t_gamma`` if it is already
    at hand (``BlockImpedance.chol[0]``); it is not copied.
    """

    def __init__(self, kind: str, t_gamma: np.ndarray, lam=None, theta=None, chol_t=None):
        if kind not in _KINDS:
            raise ValueError(f"unknown boundary condition kind {kind!r}")
        self.kind = kind
        self.t_gamma = np.ascontiguousarray(t_gamma)
        self.n = t_gamma.shape[0]
        if chol_t is None:
            chol_t = np.linalg.cholesky(self.t_gamma)
        # Upper factors are kept as transposes of C-ordered lower ones: they are
        # Fortran-ordered, so cho_solve passes them to LAPACK uncopied.
        self._upper_t = np.asarray(chol_t).T
        self.lam = None if lam is None else np.ascontiguousarray(lam)
        self.theta = None if theta is None else np.ascontiguousarray(theta)

        if kind == "robin":
            if self.lam is None:
                raise ValueError("robin condition needs an impedance matrix")
            try:
                np.linalg.cholesky(0.5 * (self.lam + self.lam.T))
            except np.linalg.LinAlgError as exc:
                raise ValueError("robin impedance must be positive definite") from exc
            try:
                self._upper_lt = np.linalg.cholesky(self.lam + self.t_gamma).T
            except np.linalg.LinAlgError as exc:
                raise ValueError("robin impedance plus boundary impedance "
                                 "is not positive definite") from exc
        if kind == "mixed" and self.theta is None:
            raise ValueError("mixed condition needs a projector")

    # -- small solves ---------------------------------------------------------

    def _t_solve(self, q):
        return _cho_solve(self._upper_t, q)

    def t_inverse(self) -> np.ndarray:
        """Dense inverse of the outer impedance (the multiplier norm Gram)."""
        return sla.cho_solve((self._upper_t, False), np.eye(self.n))

    # -- the boundary operator -------------------------------------------------

    def apply(self, alpha: np.ndarray, p: np.ndarray):
        """A_Gamma(alpha, p) as a pair of functionals; vectors or ``(n, m)``
        column blocks."""
        if self.kind == "dirichlet":
            return np.asarray(p, complex).copy(), np.asarray(alpha, complex).copy()
        if self.kind == "neumann":
            return np.zeros(np.shape(alpha), complex), self._t_solve(p)
        if self.kind == "robin":
            return -1j * (self.lam @ alpha), self._t_solve(p)
        tp = self.theta @ p
        return tp, self.theta.T @ alpha + self._t_solve(p - tp)

    # -- impedance-shifted inverse ----------------------------------------------

    def impedance_inverse(self, p_in: np.ndarray, a_in: np.ndarray):
        """(A_Gamma - i B* T B)^-1 applied to the dual pair (p_in, a_in).

        Vectors or ``(n, m)`` column blocks, applied as real columns.  An
        all-zero multiplier slot ``a_in`` (as in ``B^T q``) takes no product
        with ``T_Gamma``.
        """
        p_in = np.asarray(p_in, complex)
        a_in = np.asarray(a_in, complex)
        ta = (_real_op(self.t_gamma.dot, a_in) if a_in.any()
              else np.zeros(a_in.shape, complex))
        if self.kind == "dirichlet":
            return a_in.copy(), p_in + 1j * ta
        if self.kind == "neumann":
            return 1j * self._t_solve(p_in), ta
        if self.kind == "robin":
            return 1j * _cho_solve(self._upper_lt, p_in), ta
        th = self.theta
        th_p, th_ta = _real_op(th.dot, p_in), _real_op(th.dot, ta)
        alpha = _real_op(th.T.dot, a_in) + 1j * self._t_solve(p_in - th_p)
        return alpha, ta - th_ta + 1j * th_ta + th_p

    def impedance_apply(self, alpha: np.ndarray, p: np.ndarray):
        """(A_Gamma - i B* T B)(alpha, p), for composition checks."""
        fa, fp = self.apply(alpha, p)
        return fa - 1j * (self.t_gamma @ alpha), fp

    # -- boundary scattering ----------------------------------------------------

    def scattering(self, q: np.ndarray) -> np.ndarray:
        """Closed-form boundary scattering block applied to q.

        q is a vector or an ``(n, m)`` column block; the real operators act
        on its real and imaginary parts as real columns.
        """
        q = np.asarray(q, complex)
        if self.kind == "dirichlet":
            return q.copy()
        if self.kind == "neumann":
            return -q
        if self.kind == "robin":
            return _real_op((self.lam - self.t_gamma).dot, _cho_solve(self._upper_lt, q))
        return 2.0 * _real_op(self.theta.dot, q) - q

    def whitened_scattering(self) -> np.ndarray:
        """The boundary scattering block in whitened coordinates, L^-1 S L
        for the lower Cholesky factor L of ``t_gamma``: a real dense matrix.

        Dirichlet gives the identity and Neumann its negative.  Robin, with
        S = I - 2T (lam + T)^-1 and lam + T = U^T U, gives the symmetric
        I - 2 X^T X with X = U^-T L.  The mixed condition gives
        2 L^-1 Theta L - I.
        """
        n, L = self.n, self._upper_t.T
        if self.kind == "dirichlet":
            return np.eye(n)
        if self.kind == "neumann":
            return -np.eye(n)
        if self.kind == "robin":
            X = sla.solve_triangular(self._upper_lt, L, trans="T", check_finite=False)
            return np.eye(n) - 2.0 * (X.T @ X)
        return 2.0 * sla.solve_triangular(L, self.theta @ L, lower=True,
                                          check_finite=False) - np.eye(n)

    # -- dense blocks for monolithic assembly -----------------------------------

    def a_gamma_blocks(self):
        """(Baa, Bap, Bpa, Bpp) with A_Gamma(alpha,p) = (Baa a + Bap p, Bpa a + Bpp p)."""
        n = self.n
        Z = np.zeros((n, n))
        I = np.eye(n)
        if self.kind == "dirichlet":
            return Z, I, I, Z
        if self.kind == "neumann":
            return Z, Z, Z, self.t_inverse()
        if self.kind == "robin":
            return -1j * self.lam, Z, Z, self.t_inverse()
        Tinv = self.t_inverse()
        return Z, self.theta, self.theta.T, Tinv @ (I - self.theta)

    def load_pair(self, g_d=None, g_n=None):
        """Boundary part of the right-hand side for the data g_d and g_n.

        g_d is the Dirichlet datum, g_n the Neumann (or Robin) functional;
        None stands for zero, and each kind reads only the data it uses.
        """
        za = np.zeros(self.n, complex)
        g_d = za if g_d is None else np.asarray(g_d, complex)
        g_n = za if g_n is None else np.asarray(g_n, complex)
        if self.kind == "dirichlet":
            return za.copy(), g_d.copy()
        if self.kind in ("neumann", "robin"):
            return g_n.copy(), za.copy()
        return g_n.copy(), self.theta.T @ g_d


def make_boundary_condition(kind: str, t_gamma: np.ndarray, *, lam=None,
                            gamma_d_positions=None, chol_t=None) -> BoundaryCondition:
    """Build a condition, deriving the mixed projector when needed.

    ``chol_t``, the lower Cholesky factor of ``t_gamma`` if at hand, serves
    the condition and the projector alike.
    """
    theta = None
    if kind == "mixed":
        if gamma_d_positions is None:
            raise ValueError("mixed condition needs the Dirichlet dof positions")
        theta = mixed_projector(gamma_d_positions, t_gamma, chol_t)
    return BoundaryCondition(kind, t_gamma, lam=lam, theta=theta, chol_t=chol_t)
