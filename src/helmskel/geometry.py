"""Structured triangular meshes, checkerboard partitions and skeleton indexing.

The geometric side of the solver is deliberately minimal: uniform P1
triangulations of a rectangle, partitioned into an axis-aligned grid of
non-overlapping subdomains.  A 2x2 (or finer) partition already produces
interior cross points, which is the configuration the trace machinery is
designed to handle.  Degrees of freedom are mesh vertices throughout.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Mesh",
    "Partition",
    "SkeletonIndex",
    "build_rect_mesh",
    "partition_checkerboard",
    "partition_from_labels",
    "skeleton_index",
    "triangle_areas",
    "export_listing",
]


@dataclass(frozen=True)
class Mesh:
    """Conforming triangulation of a rectangle.

    A mixed condition names its Dirichlet part by sides of the rectangle
    (``boundary_conditions.dirichlet_positions``).

    Attributes
    ----------
    vertices : (nv, 2) float array
        Vertex coordinates.
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.
    boundary_edges : (ne, 2) int array
        Vertex index pairs of edges on the outer boundary.
    nx, ny : int
        Number of grid cells per direction (structured metadata).
    width, height : float
        Rectangle dimensions.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    nx: int
    ny: int
    width: float
    height: float

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]


def _offsets(sizes) -> tuple:
    """Block offsets ``(0, n_0, n_0 + n_1, ...)`` as Python ints."""
    return tuple(int(n) for n in np.cumsum([0, *sizes]))


@dataclass(frozen=True)
class Partition:
    """Non-overlapping decomposition of a mesh into J subdomains.

    ``boundary_dofs[j]`` and ``interior_dofs[j]`` split the vertices of the
    closed subdomain; both are sorted by global vertex id, which fixes a
    deterministic ordering for all downstream trace operators.

    The partition also owns the row order of a volume tuple: the blocks
    ``alpha, p, u_1 ... u_J`` hold the trace unknown and the multiplier on
    ``gamma_dofs``, then one block per subdomain, interior dofs first and
    boundary dofs last.  The cached properties below describe that order,
    so the restriction, the trace and their adjoints are one gather or one
    scatter-add each, for a vector and a block of columns alike.
    """

    mesh: Mesh
    subdomain_of_triangle: np.ndarray
    boundary_dofs: tuple
    interior_dofs: tuple
    gamma_dofs: np.ndarray

    @property
    def num_subdomains(self) -> int:
        return len(self.boundary_dofs)

    @cached_property
    def volume_offsets(self) -> tuple:
        """Block offsets of a volume tuple."""
        ng = len(self.gamma_dofs)
        return _offsets((ng, ng, *(len(i) + len(b) for i, b in
                                   zip(self.interior_dofs, self.boundary_dofs))))

    @cached_property
    def volume_rows(self) -> np.ndarray:
        """The row of the monolithic vector ``(u, p)`` behind each row of a
        volume tuple: ``R`` gathers these rows and ``R^T`` adds into them."""
        ng = len(self.gamma_dofs)
        return np.concatenate([self.gamma_dofs, self.mesh.num_vertices + np.arange(ng),
                               *map(np.concatenate, zip(self.interior_dofs,
                                                        self.boundary_dofs))])

    @cached_property
    def trace_rows(self) -> np.ndarray:
        """Rows of a volume tuple that carry a trace, in skeleton order:
        alpha, then the last (boundary) rows of each subdomain block."""
        ends = self.volume_offsets[3:]
        return np.concatenate([np.arange(self.volume_offsets[1]),
                               *(np.arange(e - len(b), e)
                                 for b, e in zip(self.boundary_dofs, ends))])

    @cached_property
    def trace_offsets(self) -> tuple:
        """Block offsets of the skeleton field of the trace rows."""
        return _offsets((len(self.gamma_dofs), *map(len, self.boundary_dofs)))

    @cached_property
    def vertex_rows(self) -> np.ndarray:
        """Row of each mesh vertex in the first subdomain block holding it."""
        start = self.volume_offsets[2]
        return start + np.unique(self.volume_rows[start:], return_index=True)[1]

    @cached_property
    def triangle_rows(self) -> np.ndarray:
        """``(nt, 3)`` rows of the triangle vertices in their own subdomain's block."""
        o, nv = self.volume_offsets, self.mesh.num_vertices
        keys = (np.repeat(np.arange(self.num_subdomains), np.diff(o[2:])) * nv
                + self.volume_rows[o[2]:])
        order = np.argsort(keys)
        wanted = self.subdomain_of_triangle[:, None] * nv + self.mesh.triangles
        return o[2] + order[np.searchsorted(keys, wanted, sorter=order)]


@dataclass(frozen=True)
class SkeletonIndex:
    """Index of the skeleton (union of all subdomain boundaries).

    ``block_dofs`` lists, per trace block, the global vertex ids carried by
    that block.  Block 0 is the outer boundary; blocks 1..J are the subdomain
    boundaries.  ``block_map[b]`` gives the positions of block b's dofs
    inside ``skeleton_dofs``, so that a single-valued skeleton function can
    be scattered into per-block trace vectors.
    """

    skeleton_dofs: np.ndarray
    block_dofs: tuple
    block_map: tuple
    cross_points: np.ndarray

    @property
    def n_sigma(self) -> int:
        return self.skeleton_dofs.shape[0]

    @property
    def num_blocks(self) -> int:
        return len(self.block_dofs)

    @property
    def block_sizes(self) -> tuple:
        return tuple(len(d) for d in self.block_dofs)

    @cached_property
    def flat_map(self) -> np.ndarray:
        """``block_map`` concatenated: the skeleton dof of every entry of a
        concatenated skeleton field."""
        return np.concatenate(self.block_map)

    @cached_property
    def dof_sum(self) -> sp.csr_matrix:
        """The real 0/1 matrix E^T adding every entry of a concatenated field
        onto its skeleton dof, ``(n_sigma, n)``.  Row i lists the entries on
        dof i, in block order, in ``indices[indptr[i]:indptr[i + 1]]``: it
        adds them as a loop over the blocks would, and it is the incidence
        table of the skeleton.  A column block costs one sparse product.
        """
        n = len(self.flat_map)
        return sp.csr_matrix((np.ones(n), (self.flat_map, np.arange(n))),
                             shape=(self.n_sigma, n))


def build_rect_mesh(nx: int, ny: int, width: float = 1.0, height: float = 1.0) -> Mesh:
    """Uniform triangulation of [0, width] x [0, height].

    Each of the nx*ny grid cells is split into two counterclockwise
    triangles along the diagonal from the lower-left corner, giving
    (nx+1)(ny+1) vertices.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"cell counts must be >= 1, got nx={nx}, ny={ny}")
    if width <= 0 or height <= 0:
        raise ValueError("width and height must be positive")

    xs = np.linspace(0.0, width, nx + 1)
    ys = np.linspace(0.0, height, ny + 1)
    X, Y = np.meshgrid(xs, ys)          # row-major: vertex id = j*(nx+1) + i
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    v = np.arange((ny + 1) * (nx + 1), dtype=np.int64).reshape(ny + 1, nx + 1)
    v00, v10, v01, v11 = v[:-1, :-1], v[:-1, 1:], v[1:, :-1], v[1:, 1:]
    # cell (i, j) gives (v00, v10, v11) then (v00, v11, v01), cells row by row
    triangles = np.stack([np.stack([v00, v10, v11], axis=-1),
                          np.stack([v00, v11, v01], axis=-1)], axis=2).reshape(-1, 3)

    # counterclockwise loop from the origin: bottom, right, top, left
    ring = np.concatenate([v[0, :nx], v[:ny, nx], v[ny, nx:0:-1], v[ny:0:-1, 0]])
    boundary_edges = np.column_stack([ring, np.roll(ring, -1)])

    return Mesh(vertices, triangles, boundary_edges,
                nx=nx, ny=ny, width=float(width), height=float(height))


def triangle_areas(mesh: Mesh) -> np.ndarray:
    """Signed areas of all triangles (positive for a valid mesh)."""
    p = mesh.vertices[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def partition_checkerboard(mesh: Mesh, px: int, py: int) -> Partition:
    """Partition a structured mesh into a px-by-py grid of subdomains.

    Triangles are assigned by the grid cell containing their centroid.
    px must divide nx and py must divide ny so that subdomain boundaries
    fall on mesh lines.
    """
    if px < 1 or py < 1:
        raise ValueError("partition counts must be >= 1")
    if mesh.nx % px != 0:
        raise ValueError(f"px={px} does not divide nx={mesh.nx}")
    if mesh.ny % py != 0:
        raise ValueError(f"py={py} does not divide ny={mesh.ny}")

    areas = triangle_areas(mesh)
    if np.any(areas <= 0):
        raise ValueError("mesh contains a triangle with non-positive area")

    dx = mesh.width / mesh.nx
    dy = mesh.height / mesh.ny
    cents = mesh.vertices[mesh.triangles].mean(axis=1)
    ci = np.clip(np.floor(cents[:, 0] / dx).astype(int), 0, mesh.nx - 1)
    cj = np.clip(np.floor(cents[:, 1] / dy).astype(int), 0, mesh.ny - 1)
    bi = ci // (mesh.nx // px)
    bj = cj // (mesh.ny // py)
    return partition_from_labels(mesh, bj * px + bi)


def partition_from_labels(mesh: Mesh, sub_of_tri: np.ndarray) -> Partition:
    """Partition a mesh by a subdomain label 0 ... J-1 per triangle.

    The closed subdomain's vertices are split into its boundary (the
    vertices of edges used by one of its triangles only) and its interior.
    Labels must be integers (or bools), one per triangle, nonnegative, and
    each of 0 ... J-1 must name a triangle, else ``ValueError`` is raised.
    A label need not name a connected set: two cells that meet at a single
    vertex make one subdomain, whose boundary holds that vertex once.
    """
    sub_of_tri = np.asarray(sub_of_tri)
    if not (np.issubdtype(sub_of_tri.dtype, np.integer) or sub_of_tri.dtype == bool):
        raise ValueError(f"subdomain labels must be integers, got an array of "
                         f"dtype {sub_of_tri.dtype}")
    if sub_of_tri.shape != (mesh.num_triangles,):
        raise ValueError(f"need one label for each of the {mesh.num_triangles} "
                         f"triangles, got an array of shape {sub_of_tri.shape}")
    if sub_of_tri.min() < 0:
        raise ValueError(f"negative subdomain label {int(sub_of_tri.min())}")
    sizes = np.bincount(sub_of_tri)
    if not sizes.all():
        raise ValueError(f"subdomain label {int(np.argmin(sizes))} names no triangle")
    nv = mesh.num_vertices
    boundary_dofs = []
    interior_dofs = []
    # triangles grouped by subdomain, in mesh order within each group
    order = np.argsort(sub_of_tri, kind="stable")
    groups = np.split(mesh.triangles[order], np.cumsum(sizes)[:-1])
    for tris in groups:
        verts = np.unique(tris)
        # An edge used by exactly one subdomain triangle lies on the
        # subdomain boundary (outer boundary or interface).  Each edge is
        # counted by one key a*nv + b of its sorted vertex pair.
        a, b = tris, tris[:, [1, 2, 0]]
        keys, counts = np.unique(np.minimum(a, b) * nv + np.maximum(a, b),
                                 return_counts=True)
        once = keys[counts == 1]
        bverts = np.unique(np.concatenate([once // nv, once % nv]))
        boundary_dofs.append(bverts)
        interior_dofs.append(np.setdiff1d(verts, bverts))

    gamma_dofs = np.unique(mesh.boundary_edges)

    return Partition(mesh, sub_of_tri,
                     tuple(boundary_dofs), tuple(interior_dofs), gamma_dofs)


def skeleton_index(partition: Partition) -> SkeletonIndex:
    """Enumerate skeleton dofs and build per-block injections.

    The skeleton ordering is the sorted global vertex id order, so the
    result is a pure function of the partition.  Cross points are vertices
    shared by three or more subdomain boundaries.
    """
    blocks = [partition.gamma_dofs] + list(partition.boundary_dofs)
    skeleton = np.unique(np.concatenate(blocks))
    block_map = tuple(np.searchsorted(skeleton, b) for b in blocks)

    counts = np.bincount(np.concatenate(block_map[1:]), minlength=len(skeleton))
    cross = skeleton[counts >= 3]

    return SkeletonIndex(skeleton, tuple(blocks), block_map, cross)


def export_listing(mesh: Mesh) -> str:
    """Plain-text node/element listing, one record per line (debug aid)."""
    out = io.StringIO()
    for i, (x, y) in enumerate(mesh.vertices):
        out.write(f"node {i} {x:.17g} {y:.17g}\n")
    for i, t in enumerate(mesh.triangles):
        out.write(f"tri {i} {t[0]} {t[1]} {t[2]}\n")
    for i, e in enumerate(mesh.boundary_edges):
        out.write(f"edge {i} {e[0]} {e[1]}\n")
    return out.getvalue()
