"""P1 finite element assembly: every matrix the package builds from a mesh.

One kernel, ``_summed``, adds stacked element matrices of cells with any
number of vertices into the data arrays of one CSR pattern.  It builds
the forms of each subdomain and of the whole mesh, the stiffness and mass
of the whole mesh alone, the forms of the graded exterior collar ring at
least gamma wide and the 1-D stiffness and mass along the boundary edges;
the two outer impedance surrogates are combinations of the last two.  The
stiffness, mass and norm Gram matrices K, M and H are real; the Helmholtz
form A (with its kappa^2-weighted mass) and the loads are complex, as is
the trace and scattering machinery downstream.  Volume dofs of a subdomain
are ordered interior first, boundary last (the layout of
``Partition.volume_rows``), and the dofs of the collar ring the boundary
last too, so that boundary Schur complements are index-free.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

from .geometry import Mesh, Partition, build_rect_mesh, triangle_areas
from .traces import VolumeTuple

__all__ = [
    "Coefficients",
    "LocalForms",
    "assemble_forms",
    "assemble_global",
    "assemble_stiffness_mass",
    "assemble_boundary",
    "assemble_subdomain",
    "assemble_load",
    "assemble_primary",
    "primary_from_blocks",
    "restriction_apply",
    "restriction_adjoint",
    "collar_impedance",
    "boundary_h1_impedance",
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
        for name in ("k", "mu", "gamma", "kappa_sq"):
            value = getattr(self, name)
            if not (value is None or callable(value) or cmath.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
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
        """kappa^2 at centroid arrays, validated as finite with Im >= 0."""
        if callable(self.kappa_sq):
            vals = np.asarray(self.kappa_sq(cx, cy), dtype=complex)
            vals = np.broadcast_to(vals, cx.shape).copy()
        else:
            vals = np.full(cx.shape, complex(self.kappa_sq))
        if not np.all(np.isfinite(vals)):
            raise ValueError("kappa_sq must be finite everywhere")
        if np.any(vals.imag < 0):
            raise ValueError("Im(kappa^2) must be >= 0 everywhere")
        return vals


@dataclass(frozen=True)
class LocalForms:
    """Assembled matrices of one volume block, over the dofs of its closure.

    ``dofs`` maps local indices to global vertex ids (interior first,
    boundary last).  A = mu^-1 K - M_kappa, with M_kappa the kappa^2-weighted
    mass, is the complex symmetric Helmholtz form; H = K + gamma^-2 M is the
    SPD volume norm Gram.  The forms carry no boundary condition (the outer
    boundary enters through the boundary pair of the volume tuple), so every
    block floats: K annihilates the constants.
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


def _element_matrices(mesh: Mesh, tri_ids: np.ndarray):
    """Vectorized element stiffness and mass of the triangles ``tri_ids``,
    with their vertex ids and areas."""
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
    return tris, area, Ke, Me


def _pattern(cells: np.ndarray, n: int):
    """CSR pattern ``(indices, indptr)`` of the couplings of the cells
    ``cells`` (local dof ids, one row of v vertices per cell), and the slot
    in it of every entry of the stacked ``(ne, v, v)`` element matrices."""
    v = cells.shape[1]
    key = (np.repeat(cells, v, axis=1) * n + np.tile(cells, (1, v))).ravel()
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    first = np.ones(len(key), bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    slot = np.empty(len(key), np.intp)
    slot[order] = np.cumsum(first) - 1
    entries = ordered[first]
    indptr = np.searchsorted(entries, np.arange(n + 1) * n)
    return (entries % n).astype(np.int32), indptr.astype(np.int32), slot


def _summed(mesh: Mesh, cells: np.ndarray, dof_ids: np.ndarray, *elems):
    """The element matrices ``elems``, each stacked ``(ne, v, v)`` over the
    cells ``cells`` (vertex ids, one row per cell), summed slot by slot into
    data arrays of the one CSR pattern of the cells over the local dofs
    ``dof_ids``; and ``form``, the matrix of such a data array.  Forms
    combine on their data arrays, and the matrices share the index arrays.
    """
    n = len(dof_ids)
    g2l = np.full(mesh.num_vertices, -1, dtype=np.int64)
    g2l[dof_ids] = np.arange(n)
    indices, indptr, slot = _pattern(g2l[cells], n)

    def form(data):
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))

    return [np.bincount(slot, e.ravel(), len(indices)) for e in elems], form


def _assemble_on(mesh: Mesh, tri_ids: np.ndarray, dof_ids: np.ndarray,
                 n_interior: int, coeffs: Coefficients) -> LocalForms:
    """Forms over the triangles ``tri_ids`` with local dofs ``dof_ids``."""
    tris, area, Ke, Me = _element_matrices(mesh, tri_ids)
    cents = mesh.vertices[tris].mean(axis=1)
    w = coeffs.kappa_sq_at(cents[:, 0], cents[:, 1])
    if callable(coeffs.kappa_sq):
        # One-point centroid rule keeps the element matrix a PSD multiple
        # of a rank-one factor, preserving the sign of Im(kappa^2).
        Mke = (area * w)[:, None, None] * np.full((3, 3), 1.0 / 9.0)[None, :, :]
    else:
        Mke = w[:, None, None] * Me.astype(complex)

    (k, m, mk_re, mk_im), form = _summed(mesh, tris, dof_ids, Ke, Me, Mke.real, Mke.imag)
    mk = mk_re + 1j * mk_im
    return LocalForms(dof_ids, n_interior, form(k), form(m),
                      form((1.0 / complex(coeffs.mu)) * k - mk),
                      form(k + coeffs.gamma ** (-2) * m))


def assemble_subdomain(mesh: Mesh, partition: Partition, j: int,
                       coeffs: Coefficients) -> LocalForms:
    """Assemble the Helmholtz block of subdomain j (interior-first ordering)."""
    tri_ids = np.flatnonzero(partition.subdomain_of_triangle == j)
    o = partition.volume_offsets
    dofs = partition.volume_rows[o[j + 2]:o[j + 3]]
    return _assemble_on(mesh, tri_ids, dofs, len(partition.interior_dofs[j]), coeffs)


def assemble_forms(mesh: Mesh, partition: Partition, coeffs: Coefficients):
    """The LocalForms of every subdomain, as a tuple in subdomain order."""
    return tuple(assemble_subdomain(mesh, partition, j, coeffs)
                 for j in range(partition.num_subdomains))


def assemble_global(mesh: Mesh, coeffs: Coefficients) -> LocalForms:
    """The forms over the whole mesh, with the vertices in their own order."""
    return _assemble_on(mesh, np.arange(mesh.num_triangles),
                        np.arange(mesh.num_vertices), 0, coeffs)


def assemble_stiffness_mass(mesh: Mesh):
    """The stiffness K and mass M over the whole mesh, the vertices in their
    own order: the pencil of -Laplace, with no coefficient."""
    tris, _, Ke, Me = _element_matrices(mesh, np.arange(mesh.num_triangles))
    (k, m), form = _summed(mesh, tris, np.arange(mesh.num_vertices), Ke, Me)
    return form(k), form(m)


def _boundary_sums(mesh: Mesh, gamma_dofs: np.ndarray):
    """Summed 1-D stiffness and mass of the boundary edges, in ``gamma_dofs``
    order, and their ``form`` (see ``_summed``)."""
    edges = mesh.boundary_edges
    h = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]],
                       axis=1)[:, None, None]
    Ke = (1.0 / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    Me = (h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
    return _summed(mesh, edges, gamma_dofs, Ke, Me)


def assemble_boundary(mesh: Mesh, gamma_dofs: np.ndarray):
    """1-D stiffness K_Gamma (PSD) and mass M_Gamma (SPD) along the outer
    boundary, sparse, rows and columns in ``gamma_dofs`` order."""
    (k, m), form = _boundary_sums(mesh, gamma_dofs)
    return form(k), form(m)


def boundary_h1_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float) -> sp.csc_matrix:
    """Boundary H1 surrogate for the outer impedance: T_Gamma = K_Gamma +
    gamma^-1 M_Gamma, returned as the sparse form F = T_Gamma, whose Schur
    complement onto the boundary is itself, with no dofs to eliminate (see
    ``collar_impedance``)."""
    (k, m), form = _boundary_sums(mesh, gamma_dofs)
    # divided entry by entry: a sparse M / gamma multiplies by 1 / gamma
    return form(k + m / gamma).tocsc()


def _collar_ring(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float):
    """The graded exterior collar: its grid ``big`` (a mesh), the ids of
    the triangles of ``big`` that form the ring, and the ring dofs, the
    ones off the boundary first and the boundary vertices last, in
    ``gamma_dofs`` order.

    The ring keeps the tangential spacing of the mesh, so its inner rim is
    the boundary of the mesh vertex for vertex.  Normal to each side it has
    L layers h, 2h, 4h, ..., with L the least count for which both the x
    and the y layers sum to at least gamma; so gamma <= h gives one layer.
    The corners are rectangles of an x and a y layer.
    """
    nx, ny = mesh.nx, mesh.ny
    dx, dy = mesh.width / nx, mesh.height / ny
    L = 1
    while min(dx, dy) * (2.0 ** L - 1.0) < gamma:
        L += 1
    depth = 2.0 ** np.arange(1, L + 1) - 1.0    # 1, 3, 7, ... cells from the side

    def graded(n, d, length):
        return np.concatenate([-d * depth[::-1], np.linspace(0.0, length, n + 1),
                               length + d * depth])

    X, Y = np.meshgrid(graded(nx, dx, mesh.width), graded(ny, dy, mesh.height))
    big = replace(build_rect_mesh(nx + 2 * L, ny + 2 * L),
                  vertices=np.column_stack([X.ravel(), Y.ravel()]))

    # the ring is every cell outside the mesh; each cell holds two
    # consecutive triangles, cells row by row
    ring = np.ones((ny + 2 * L, nx + 2 * L), dtype=bool)
    ring[L:-L, L:-L] = False
    ring_ids = np.flatnonzero(np.repeat(ring.ravel(), 2))
    ring_verts = np.unique(big.triangles[ring_ids])

    # Boundary vertex (i, j) of the mesh is vertex (i+L, j+L) of the collar grid.
    j, i = np.divmod(gamma_dofs, nx + 1)
    inner = (j + L) * (nx + 2 * L + 1) + i + L
    tol = 1e-9 * max(mesh.width, mesh.height)
    if not np.allclose(big.vertices[inner], mesh.vertices[gamma_dofs], rtol=0, atol=tol):
        raise RuntimeError("collar mesh does not line up with the boundary")

    # Order the ring dofs exterior first so the Schur elimination lands on
    # the boundary block.
    return big, ring_ids, np.concatenate([np.setdiff1d(ring_verts, inner), inner])


def collar_impedance(mesh: Mesh, gamma_dofs: np.ndarray, gamma: float) -> sp.csc_matrix:
    """Exterior-collar surrogate for the outer impedance.

    Meshes a ring around the rectangle at least ``gamma`` wide, with the
    tangential spacing of the mesh and layers h, 2h, 4h, ... normal to the
    boundary (see ``_collar_ring``), and assembles H = K + gamma^-2 M on it
    with the natural condition on the outer rim.  Returns that sparse form
    F, the other collar dofs first and the boundary vertices last in
    ``gamma_dofs`` order: T_Gamma is its Schur complement onto those last
    rows, real SPD by construction, read off by ``impedance.DtnBlock`` as
    every other impedance block is.  A collar about gamma wide makes
    T_Gamma equivalent to an H^1/2-type norm on the boundary uniformly in
    h, which a ring of a fixed number of cells is not.
    """
    big, ring_ids, dofs = _collar_ring(mesh, gamma_dofs, gamma)
    tris, _, Ke, Me = _element_matrices(big, ring_ids)
    (k, m), form = _summed(big, tris, dofs, Ke, Me)
    return form(k + gamma ** (-2) * m).tocsc()


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

    # triangle-major, so each row sums its triangles in increasing order
    data = np.zeros(partition.volume_offsets[-1], complex)
    np.add.at(data, partition.triangle_rows.ravel(), np.repeat(contrib, 3))
    return VolumeTuple.wrap(data, partition.volume_offsets, "dual")


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

    R^T diag(A_j) R for the 0/1 restriction R of the volume rows, plus the
    boundary operator: the two-sided restriction of the block operator.
    Must agree entrywise with the bordered global form.
    """
    rows = partition.volume_rows[partition.volume_offsets[2]:]
    R = sp.csr_matrix((np.ones(len(rows)), (np.arange(len(rows)), rows)),
                      shape=(len(rows), partition.mesh.num_vertices))
    vol = R.T @ sp.block_diag([lf.A for lf in forms], format="csr") @ R
    return assemble_primary(vol, bc, partition.gamma_dofs)


def restriction_apply(partition: Partition, z: np.ndarray) -> VolumeTuple:
    """Restrict a monolithic vector z = (u, p), or m such columns, to the
    block tuple: one gather of ``partition.volume_rows``."""
    z = np.asarray(z, dtype=complex)
    if len(z) != partition.mesh.num_vertices + len(partition.gamma_dofs):
        raise ValueError("monolithic vector has wrong length")
    return VolumeTuple.wrap(z[partition.volume_rows], partition.volume_offsets, "primal")


def restriction_adjoint(partition: Partition, dual_tuple: VolumeTuple) -> np.ndarray:
    """Adjoint of the restriction: one scatter-add of a dual tuple (vector or
    m columns) into the monolithic functional over (u, p).  Duplicated
    interface rows add up in tuple order, the subdomain blocks in turn."""
    if dual_tuple.kind != "dual":
        raise ValueError("restriction_adjoint expects a dual tuple")
    n = partition.mesh.num_vertices + len(partition.gamma_dofs)
    out = np.zeros((n,) + dual_tuple.data.shape[1:], complex)
    np.add.at(out, partition.volume_rows, dual_tuple.data)
    return out
