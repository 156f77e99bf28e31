"""
Meshes, checkerboard partitions and the skeleton index
======================================================

The geometric substrate of the solver: a structured triangulation of a
rectangle, split into a grid of non-overlapping subdomains.  Cross points
(vertices shared by three or more subdomains) appear as soon as the
partition is 2x2, and they are the configuration the non-local exchange
operator is built to handle.
"""

import numpy as np

from helmskel.boundary_conditions import dirichlet_positions
from helmskel.geometry import (build_rect_mesh, export_listing,
                               partition_checkerboard, skeleton_index,
                               triangle_areas)

# A 8x8 mesh of the unit square: each cell is split into two triangles.
mesh = build_rect_mesh(8, 8, 1.0, 1.0)
print(f"mesh: {mesh.num_vertices} vertices, {mesh.num_triangles} triangles, "
      f"{len(mesh.boundary_edges)} boundary edges")
print(f"total area: {triangle_areas(mesh).sum():.15f}")

# Partition into 2x2 subdomains.  Triangles are assigned by cell block;
# every subdomain boundary falls on mesh lines.
part = partition_checkerboard(mesh, 2, 2)
for j in range(part.num_subdomains):
    print(f"subdomain {j}: {len(part.interior_dofs[j])} interior dofs, "
          f"{len(part.boundary_dofs[j])} boundary dofs")

# The skeleton is the union of all subdomain boundaries.  Each trace block
# (outer boundary first, then one per subdomain) injects into it.
index = skeleton_index(part)
print(f"skeleton dofs: {index.n_sigma}, block sizes: {index.block_sizes}")
print(f"cross points: {[tuple(mesh.vertices[c]) for c in index.cross_points]}")

# Count how many blocks meet each skeleton dof: interface dofs are shared
# by two subdomains, the cross point by four.
counts = np.zeros(index.n_sigma, int)
for m in index.block_map[1:]:
    counts[m] += 1
print("dofs per subdomain multiplicity:",
      {int(k): int((counts == k).sum()) for k in np.unique(counts)})

# A mixed condition names its Dirichlet part by sides of the rectangle;
# here every side but the bottom, whose interior dofs are then Neumann.
sides = ("left", "right", "top")
d_pos = dirichlet_positions(mesh, part.gamma_dofs, sides)
print(f"Dirichlet part {sides}: {len(d_pos)} of {len(part.gamma_dofs)} boundary dofs")

# Plain-text export for eyeballing or diffing.
listing = export_listing(mesh).splitlines()
print("listing preview:", listing[0], "|", listing[mesh.num_vertices], "|", listing[-1])
