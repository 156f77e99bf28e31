"""Boundary operators for the four supported cavity conditions.

All four are one operator on the boundary pair (alpha, p),

    A_Gamma(alpha, p) = (-i lam alpha + Theta p, Theta^T alpha + T^-1 (I - Theta) p),

for the outer impedance T and the data (lam, Theta) of the condition:

    kind        lam     Theta
    dirichlet   0       I
    neumann     0       0
    robin       given   0
    mixed       0       ``mixed_projector``, onto the Dirichlet part

The Dirichlet part of a mixed condition is a set of sides of the mesh
rectangle; ``dirichlet_positions`` finds the boundary dofs on them.

As lam Theta = 0, the inverse of the impedance-shifted operator, the
whitened outer scattering block and the dense blocks of the monolithic
assembly are one formula each in (lam, Theta).  ``scattering`` keeps the
closed form of each kind as the reference they are checked against.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from .impedance import _real_op

__all__ = [
    "BoundaryCondition",
    "KINDS",
    "SIDES",
    "dirichlet_positions",
    "mixed_projector",
]

KINDS = ("dirichlet", "neumann", "robin", "mixed")
SIDES = ("left", "right", "bottom", "top")


def _cho_solve(U: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(U^T U)^-1 q for a real upper Cholesky factor U; a complex q as real
    columns."""
    return _real_op(lambda X: sla.cho_solve((U, False), X, check_finite=False), q)


def mixed_projector(gamma_d_positions: np.ndarray, t_gamma: np.ndarray,
                    chol_t=None) -> np.ndarray:
    """Projector onto multipliers supported on the Dirichlet part, given by
    its positions within the boundary dofs (as ``dirichlet_positions``
    returns them).

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


def dirichlet_positions(mesh, gamma_dofs: np.ndarray, sides) -> np.ndarray:
    """Sorted positions, within ``gamma_dofs``, of the boundary vertices on
    any of the listed sides of the ``mesh.width`` x ``mesh.height`` rectangle.

    A corner lies on two sides and is taken if either is listed.  A vertex
    is on a side within 1e-12 max(extent, 1) of it.
    """
    x, y = mesh.vertices[gamma_dofs].T
    w, h = mesh.width, mesh.height
    tol_x, tol_y = 1e-12 * max(w, 1.0), 1e-12 * max(h, 1.0)
    on_side = {"left": np.abs(x) < tol_x, "right": np.abs(x - w) < tol_x,
               "bottom": np.abs(y) < tol_y, "top": np.abs(y - h) < tol_y}
    on = np.zeros(len(gamma_dofs), bool)
    for s in sides:
        if s not in on_side:
            raise ValueError(f"unknown side {s!r}, expected one of {SIDES}")
        on |= on_side[s]
    return np.flatnonzero(on)


class BoundaryCondition:
    """One of the four boundary operators, bound to an outer impedance.

    The constructor reads ``kind`` to set ``lam`` and ``theta`` as in the
    module table; it takes ``lam`` (real symmetric positive definite) for
    a robin condition only and ``theta`` for a mixed one only.  Past it,
    only the reference ``scattering`` and ``load_pair`` read ``kind``.
    ``chol_t`` is the lower Cholesky factor of ``t_gamma`` if it is
    already at hand (``BlockImpedance.chol[0]``); it is not copied.
    """

    def __init__(self, kind: str, t_gamma: np.ndarray, lam=None, theta=None, chol_t=None):
        if kind not in KINDS:
            raise ValueError(f"unknown boundary condition kind {kind!r}")
        if (lam is None) == (kind == "robin"):
            raise ValueError("a robin condition, and only a robin condition, "
                             "takes an impedance matrix lam")
        if (theta is None) == (kind == "mixed"):
            raise ValueError("a mixed condition, and only a mixed condition, "
                             "takes a projector theta")
        self.kind = kind
        self.t_gamma = np.ascontiguousarray(t_gamma)
        self.n = n = t_gamma.shape[0]
        if chol_t is None:
            chol_t = np.linalg.cholesky(self.t_gamma)
        # Upper factors are kept as transposes of C-ordered lower ones: they are
        # Fortran-ordered, so cho_solve passes them to LAPACK uncopied.
        self._upper_t = np.asarray(chol_t).T
        zero = np.zeros((n, n))
        self.lam = zero if lam is None else np.ascontiguousarray(lam)
        self.theta = (np.eye(n) if kind == "dirichlet" else
                      zero if theta is None else np.ascontiguousarray(theta))
        self._has_lam, self._has_theta = bool(self.lam.any()), bool(self.theta.any())
        # upper Cholesky factor of lam + T
        self._upper_lt = self._upper_t
        if lam is not None:
            # Cholesky reads one triangle of lam + T: it would misread any other lam
            if np.iscomplexobj(self.lam) or not np.array_equal(self.lam, self.lam.T):
                raise ValueError("robin impedance lam must be a real symmetric matrix")
            try:
                np.linalg.cholesky(self.lam)
            except np.linalg.LinAlgError as exc:
                raise ValueError("robin impedance must be positive definite") from exc
            try:
                self._upper_lt = np.linalg.cholesky(self.lam + self.t_gamma).T
            except np.linalg.LinAlgError as exc:
                raise ValueError("robin impedance plus boundary impedance "
                                 "is not positive definite") from exc

    def t_inverse(self) -> np.ndarray:
        """Dense inverse of the outer impedance (the multiplier norm Gram)."""
        return sla.cho_solve((self._upper_t, False), np.eye(self.n))

    def apply(self, alpha: np.ndarray, p: np.ndarray):
        """A_Gamma(alpha, p) as a pair of functionals; vectors or ``(n, m)``
        column blocks."""
        tp = self.theta @ p
        return (-1j * (self.lam @ alpha) + tp,
                self.theta.T @ alpha + _cho_solve(self._upper_t, p - tp))

    def impedance_inverse(self, p_in: np.ndarray, a_in: np.ndarray):
        """(A_Gamma - i B* T B)^-1 applied to the dual pair (p, a) = (p_in, a_in).

        As lam Theta = 0 it is (Theta^T a + i (lam + T)^-1 (I - Theta) p,
        (I - Theta) T a + i Theta T a + Theta p), one formula for every
        kind.  Vectors or ``(n, m)`` column blocks, applied as real columns.
        """
        p_in = np.asarray(p_in, complex)
        a_in = np.asarray(a_in, complex)
        th = self.theta
        ta = _real_op(self.t_gamma.dot, a_in)
        th_p, th_ta = _real_op(th.dot, p_in), _real_op(th.dot, ta)
        alpha = _real_op(th.T.dot, a_in) + 1j * _cho_solve(self._upper_lt, p_in - th_p)
        return alpha, ta - th_ta + 1j * th_ta + th_p

    def impedance_apply(self, alpha: np.ndarray, p: np.ndarray):
        """(A_Gamma - i B* T B)(alpha, p), for composition checks."""
        fa, fp = self.apply(alpha, p)
        return fa - 1j * (self.t_gamma @ alpha), fp

    def scattering(self, q: np.ndarray) -> np.ndarray:
        """Closed-form boundary scattering block applied to q, kind by kind.

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
        for the lower Cholesky factor L of ``t_gamma``: the real dense
        I - 2 X^T X + 2 L^-1 Theta L, with X = U^-T L and lam + T = U^T U.

        Two terms are skipped when their data is zero.  A zero Theta adds
        no product: every robin and neumann build takes that skip, and the
        term costs 17.5 ms at n_Gamma = 512.  A zero lam makes U = L^T, so
        X = I and the block is -I + 2 L^-1 Theta L with no solve for X; a
        computed U^-T L is I only up to rounding, which the skip keeps out
        of the block of the other three kinds.
        """
        L = self._upper_t.T
        if self._has_lam:
            X = sla.solve_triangular(self._upper_lt, L, trans="T", check_finite=False)
            S = np.eye(self.n) - 2.0 * (X.T @ X)
        else:
            S = -np.eye(self.n)
        if self._has_theta:
            S += 2.0 * sla.solve_triangular(L, self.theta @ L, lower=True,
                                            check_finite=False)
        return S

    def a_gamma_blocks(self):
        """(Baa, Bap, Bpa, Bpp) = (-i lam, Theta, Theta^T, T^-1 (I - Theta)), so
        A_Gamma(alpha,p) = (Baa a + Bap p, Bpa a + Bpp p)."""
        return (-1j * self.lam, self.theta, self.theta.T,
                sla.cho_solve((self._upper_t, False), np.eye(self.n) - self.theta))

    def load_pair(self, g_d=None, g_n=None):
        """Boundary part of the right-hand side, (g_n, Theta^T g_d), for the
        Dirichlet datum g_d and the Neumann (or Robin) functional g_n; None
        stands for zero.  A Dirichlet condition ignores g_n."""
        za = np.zeros(self.n, complex)
        g_d = za if g_d is None else np.asarray(g_d, complex)
        g_n = za if g_n is None or self.kind == "dirichlet" else np.asarray(g_n, complex)
        return g_n.copy(), _real_op(self.theta.T.dot, g_d)
