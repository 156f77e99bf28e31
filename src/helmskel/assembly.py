"""P1 finite element assembly for the complex Helmholtz cavity forms.

Everything is stored complex even when imaginary parts vanish; the trace
and scattering machinery downstream is uniformly complex and this keeps
the plumbing simple.  Volume dofs of a subdomain are ordered interior
first, boundary last, so that boundary Schur complements are index-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, Partition, local_dofs, triangle_areas
from .traces import VolumeTuple

__all__ = [
    "Coefficients",
    "LocalForms",
    "assemble_forms",
    "assemble_subdomain",
    "assemble_load",
    "assemble_primary",
    "primary_from_blocks",
    "restriction_apply",
    "restriction_adjoint",
]

KappaSq = Union[complex, Callable[[np.ndarray, np.ndarray], np.ndarray]]


@dataclass(frozen=True)
class Coefficients:
    """Material coefficients and the norm parameter gamma.

    ``kappa_sq`` is either a complex constant (integrated exactly with the
    consistent mass matrix) or a callable ``(x, y) -> complex`` evaluated
    at triangle centroids (one-point rule).  ``gamma`` scales the zeroth
    order term of the volume norm; the default is 1/k.
    """

    k: float
    mu: complex = 1.0 + 0.0j
    kappa_sq: KappaSq = None
    gamma: float = None

    def __post_init__(self):
        if self.k <= 0:
            raise ValueError("wavenumber k must be positive")
        mu = complex(self.mu)
        if mu.real <= 0 or mu.imag < 0:
            raise ValueError(f"mu must satisfy Re(mu) > 0, Im(mu) >= 0, got {mu}")
        if self.kappa_sq is None:
            object.__setattr__(self, "kappa_sq", complex(self.k) ** 2)
        if self.gamma is None:
            object.__setattr__(self, "gamma", 1.0 / self.k)
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")

    def kappa_sq_at(self, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
        """kappa^2 at centroid arrays, validated against Im >= 0."""
        if callable(self.kappa_sq):
            vals = np.asarray(self.kappa_sq(cx, cy), dtype=complex)
            vals = np.broadcast_to(vals, cx.shape).copy()
        else:
            vals = np.full(cx.shape, complex(self.kappa_sq))
        if np.any(vals.imag < -1e-14 * (1.0 + np.abs(vals))):
            raise ValueError("Im(kappa^2) must be >= 0 everywhere")
        return vals


@dataclass(frozen=True)
class LocalForms:
    """Assembled matrices of one volume block, over the dofs of its closure.

    ``dofs`` maps local indices to global vertex ids (interior first,
    boundary last).  A = mu^-1 K - M_kappa, with M_kappa the kappa^2-weighted
    mass, is the complex symmetric Helmholtz form; H = K + gamma^-2 M is the
    SPD volume norm Gram.
    """

    dofs: np.ndarray
    n_interior: int
    K: sp.csr_matrix = field(repr=False)
    M: sp.csr_matrix = field(repr=False)
    A: sp.csr_matrix = field(repr=False)
    H: sp.csr_matrix = field(repr=False)

    @property
    def n_dofs(self) -> int:
        return len(self.dofs)

    @property
    def n_boundary(self) -> int:
        return len(self.dofs) - self.n_interior


def _element_matrices(mesh: Mesh, tri_ids: np.ndarray, coeffs: Coefficients):
    """Vectorized element stiffness, mass and kappa^2-weighted mass."""
    tris = mesh.triangles[tri_ids]
    p = mesh.vertices[tris]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det <= 0):
        raise ValueError("triangle with non-positive area")
    area = 0.5 * det

    # P1 shape function gradients: grad(phi_i) = (b_i, c_i) with the
    # classic opposite-edge formulas.
    x, y = p[..., 0], p[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1) / det[:, None]
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1) / det[:, None]

    Ke = area[:, None, None] * (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    base = (np.ones((3, 3)) + np.eye(3)) / 12.0
    Me = area[:, None, None] * base[None, :, :]

    cents = p.mean(axis=1)
    w = coeffs.kappa_sq_at(cents[:, 0], cents[:, 1])
    if callable(coeffs.kappa_sq):
        # One-point centroid rule keeps the element matrix a PSD multiple
        # of a rank-one factor, preserving the sign of Im(kappa^2).
        Mke = (area * w)[:, None, None] * np.full((3, 3), 1.0 / 9.0)[None, :, :]
    else:
        Mke = w[:, None, None] * Me.astype(complex)

    return tris, area, Ke, Me, Mke


def _scatter(tris_local: np.ndarray, elem: np.ndarray, n: int, dtype) -> sp.csr_matrix:
    rows = np.repeat(tris_local, 3, axis=1).ravel()
    cols = np.tile(tris_local, (1, 3)).ravel()
    mat = sp.coo_matrix((elem.ravel().astype(dtype), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def _assemble_on(mesh: Mesh, tri_ids: np.ndarray, dof_ids: np.ndarray,
                 n_interior: int, coeffs: Coefficients) -> LocalForms:
    tris, _, Ke, Me, Mke = _element_matrices(mesh, tri_ids, coeffs)
    n = len(dof_ids)
    g2l = np.full(mesh.num_vertices, -1, dtype=np.int64)
    g2l[dof_ids] = np.arange(n)
    tl = g2l[tris]
    K = _scatter(tl, Ke, n, float)
    M = _scatter(tl, Me, n, float)
    Mk = _scatter(tl, Mke, n, complex)
    A = ((1.0 / complex(coeffs.mu)) * K - Mk).tocsr()
    H = (K + coeffs.gamma ** (-2) * M).tocsr()
    return LocalForms(dof_ids, n_interior, K, M, A, H)


def assemble_subdomain(mesh: Mesh, partition: Partition, j: int,
                       coeffs: Coefficients) -> LocalForms:
    """Assemble the Helmholtz block of subdomain j (interior-first ordering)."""
    tri_ids = np.flatnonzero(partition.subdomain_of_triangle == j)
    dofs = local_dofs(partition, j)
    return _assemble_on(mesh, tri_ids, dofs, len(partition.interior_dofs[j]), coeffs)


def assemble_forms(mesh: Mesh, partition: Partition, coeffs: Coefficients):
    """All per-subdomain LocalForms plus the global forms over the mesh."""
    forms = tuple(assemble_subdomain(mesh, partition, j, coeffs)
                  for j in range(partition.num_subdomains))
    glob = _assemble_on(mesh, np.arange(mesh.num_triangles),
                        np.arange(mesh.num_vertices), 0, coeffs)
    return forms, glob


def assemble_load(mesh: Mesh, partition: Partition, f) -> VolumeTuple:
    """Volume load blocks from a source f (callable or constant), one-point rule.

    Returns a dual volume tuple whose boundary pair is zero; boundary data
    is attached separately by the boundary condition.
    """
    areas = triangle_areas(mesh)
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    if callable(f):
        fvals = np.asarray(f(cents[:, 0], cents[:, 1]), dtype=complex)
        fvals = np.broadcast_to(fvals, areas.shape)
    else:
        fvals = np.full(areas.shape, complex(f))
    contrib = areas * fvals / 3.0

    omega = []
    for j in range(partition.num_subdomains):
        tri_ids = np.flatnonzero(partition.subdomain_of_triangle == j)
        dofs = local_dofs(partition, j)
        g2l = np.full(mesh.num_vertices, -1, dtype=np.int64)
        g2l[dofs] = np.arange(len(dofs))
        vec = np.zeros(len(dofs), complex)
        tl = g2l[mesh.triangles[tri_ids]]
        np.add.at(vec, tl.ravel(), np.repeat(contrib[tri_ids], 3))
        omega.append(vec)

    n_gamma = len(partition.gamma_dofs)
    return VolumeTuple((np.zeros(n_gamma, complex), np.zeros(n_gamma, complex)),
                       omega, "dual")


def _gamma_selector(gamma_dofs: np.ndarray, n: int) -> sp.csr_matrix:
    ng = len(gamma_dofs)
    return sp.coo_matrix((np.ones(ng), (np.arange(ng), gamma_dofs)),
                         shape=(ng, n)).tocsr()


def assemble_primary(volume: sp.spmatrix, bc, gamma_dofs: np.ndarray) -> sp.csc_matrix:
    """Monolithic cavity operator over (volume dofs) + (boundary multiplier).

    Borders the global volume form ``volume`` with the boundary operator
    of ``bc``, folded in through the trace selector and acting on the pair
    (u restricted to the boundary, p).
    """
    R = _gamma_selector(gamma_dofs, volume.shape[0])
    Baa, Bap, Bpa, Bpp = bc.a_gamma_blocks()
    return sp.bmat([[volume + R.T @ sp.csr_matrix(Baa) @ R, R.T @ sp.csr_matrix(Bap)],
                    [sp.csr_matrix(Bpa) @ R, sp.csr_matrix(Bpp)]], format="csc")


def primary_from_blocks(partition: Partition, forms, bc) -> sp.csc_matrix:
    """Independent assembly path: fold the block-diagonal forms together.

    Sums the per-subdomain Helmholtz blocks into global position and adds
    the boundary operator, i.e. the two-sided restriction of the block
    operator.  Must agree entrywise with the bordered global form.
    """
    mesh = partition.mesh
    n = mesh.num_vertices
    rows, cols, vals = [], [], []
    for j, lf in enumerate(forms):
        A = lf.A.tocoo()
        rows.append(lf.dofs[A.row])
        cols.append(lf.dofs[A.col])
        vals.append(A.data)
    vol = sp.coo_matrix((np.concatenate(vals),
                         (np.concatenate(rows), np.concatenate(cols))),
                        shape=(n, n)).tocsr()
    return assemble_primary(vol, bc, partition.gamma_dofs)


def restriction_apply(partition: Partition, u_global: np.ndarray, p: np.ndarray):
    """Restrict a monolithic pair (u, p) to the block tuple.

    Returns the boundary pair (u on the outer boundary, p) and one volume
    vector per subdomain in local dof order.
    """
    if len(u_global) != partition.mesh.num_vertices:
        raise ValueError("u_global has wrong length")
    if len(p) != len(partition.gamma_dofs):
        raise ValueError("p has wrong length")
    omega = [np.asarray(u_global)[local_dofs(partition, j)]
             for j in range(partition.num_subdomains)]
    gamma = (np.asarray(u_global)[partition.gamma_dofs], np.asarray(p))
    return VolumeTuple(gamma, omega, kind="primal")


def restriction_adjoint(partition: Partition, dual_tuple):
    """Adjoint of the restriction: sum duplicated interface contributions.

    Maps a dual block tuple to a (global volume functional, multiplier
    functional) pair.
    """
    if dual_tuple.kind != "dual":
        raise ValueError("restriction_adjoint expects a dual tuple")
    n = partition.mesh.num_vertices
    g = np.zeros(n, complex)
    phi_a, phi_p = dual_tuple.gamma
    np.add.at(g, partition.gamma_dofs, phi_a)
    for j, block in enumerate(dual_tuple.omega):
        np.add.at(g, local_dofs(partition, j), block)
    return g, phi_p.copy()
