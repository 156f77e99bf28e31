import re

import numpy as np
import pytest

from helmskel.geometry import (build_rect_mesh, export_listing,
                               partition_checkerboard, partition_from_labels,
                               skeleton_index, triangle_areas)


def test_unit_cell_counts():
    mesh = build_rect_mesh(1, 1, 1.0, 1.0)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 4


def test_two_by_two_counts():
    mesh = build_rect_mesh(2, 2, 1.0, 1.0)
    assert mesh.num_triangles == 8
    assert mesh.num_vertices == 9
    assert len(mesh.boundary_edges) == 8


def test_area_conservation():
    mesh = build_rect_mesh(4, 4, 1.0, 1.0)
    assert abs(triangle_areas(mesh).sum() - 1.0) < 1e-14


def test_positive_areas_and_rejects():
    mesh = build_rect_mesh(3, 5, 2.0, 0.5)
    assert np.all(triangle_areas(mesh) > 0)
    with pytest.raises(ValueError):
        build_rect_mesh(0, 1)
    with pytest.raises(ValueError):
        build_rect_mesh(1, 0)


def test_boundary_edges_unique_to_one_triangle():
    mesh = build_rect_mesh(3, 3)
    edges = np.vstack([mesh.triangles[:, [0, 1]], mesh.triangles[:, [1, 2]],
                       mesh.triangles[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    lookup = {tuple(e): c for e, c in zip(uniq, counts)}
    for e in np.sort(mesh.boundary_edges, axis=1):
        assert lookup[tuple(e)] == 1
    # interior edges belong to exactly two triangles
    boundary = {tuple(e) for e in np.sort(mesh.boundary_edges, axis=1)}
    for e, c in lookup.items():
        assert c == (1 if e in boundary else 2)


def _loop_mesh_arrays(nx, ny):
    """Oracle: triangles and boundary edges built vertex by vertex."""
    def vid(i, j):
        return j * (nx + 1) + i

    tris = []
    for j in range(ny):
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    edges = []
    for i in range(nx):
        edges.append((vid(i, 0), vid(i + 1, 0)))            # bottom
    for j in range(ny):
        edges.append((vid(nx, j), vid(nx, j + 1)))          # right
    for i in range(nx, 0, -1):
        edges.append((vid(i, ny), vid(i - 1, ny)))          # top
    for j in range(ny, 0, -1):
        edges.append((vid(0, j), vid(0, j - 1)))            # left
    return np.array(tris, dtype=np.int64), np.array(edges, dtype=np.int64)


@pytest.mark.parametrize("nx,ny", [(1, 1), (1, 4), (5, 3), (7, 5)])
def test_rect_mesh_matches_loop_oracle(nx, ny):
    mesh = build_rect_mesh(nx, ny, 2.0)
    tris, edges = _loop_mesh_arrays(nx, ny)
    for got, want in ((mesh.triangles, tris), (mesh.boundary_edges, edges)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("nx,ny,px,py", [
    (2, 2, 1, 1), (6, 4, 2, 2), (7, 5, 7, 5), (30, 20, 3, 2), (16, 16, 8, 8)])
def test_partition_matches_row_unique_oracle(nx, ny, px, py):
    mesh = build_rect_mesh(nx, ny, 2.0)
    part = partition_checkerboard(mesh, px, py)
    for j, (bdofs, idofs) in enumerate(zip(part.boundary_dofs, part.interior_dofs)):
        tris = mesh.triangles[part.subdomain_of_triangle == j]
        e = np.sort(np.vstack([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]]), axis=1)
        uniq, counts = np.unique(e, axis=0, return_counts=True)
        want = np.unique(uniq[counts == 1])
        assert bdofs.dtype == want.dtype
        np.testing.assert_array_equal(bdofs, want)
        np.testing.assert_array_equal(idofs, np.setdiff1d(np.unique(tris), want))


def test_checkerboard_basic():
    mesh = build_rect_mesh(2, 2)
    part = partition_checkerboard(mesh, 2, 2)
    assert part.num_subdomains == 4
    index = skeleton_index(part)
    assert len(index.cross_points) == 1
    np.testing.assert_allclose(mesh.vertices[index.cross_points[0]], [0.5, 0.5])
    # coarsest mesh: every vertex lies on the skeleton
    assert index.n_sigma == 9


def test_checkerboard_degenerate_single():
    mesh = build_rect_mesh(4, 4)
    part = partition_checkerboard(mesh, 1, 1)
    assert part.num_subdomains == 1
    index = skeleton_index(part)
    np.testing.assert_array_equal(index.skeleton_dofs, part.gamma_dofs)
    assert len(index.cross_points) == 0


def test_checkerboard_two_strips():
    mesh = build_rect_mesh(4, 2)
    part = partition_checkerboard(mesh, 2, 1)
    assert part.num_subdomains == 2
    interface = np.intersect1d(part.boundary_dofs[0], part.boundary_dofs[1])
    assert len(interface) == 3
    np.testing.assert_allclose(mesh.vertices[interface][:, 0], 0.5)


def test_checkerboard_divisibility_rejected():
    mesh = build_rect_mesh(4, 4)
    with pytest.raises(ValueError, match="divide"):
        partition_checkerboard(mesh, 3, 1)
    with pytest.raises(ValueError, match="divide"):
        partition_checkerboard(mesh, 1, 3)


def test_partition_from_labels_rejects_bad_labels():
    # labels {0, 2} leave subdomain 1 without a triangle, which would give
    # it no dofs and a trace block of size 0
    mesh = build_rect_mesh(4, 4)
    labels = partition_checkerboard(mesh, 2, 1).subdomain_of_triangle * 2
    with pytest.raises(ValueError, match="label 1 names no triangle"):
        partition_from_labels(mesh, labels)
    labels = partition_checkerboard(mesh, 2, 1).subdomain_of_triangle - 1
    with pytest.raises(ValueError, match="negative subdomain label -1"):
        partition_from_labels(mesh, labels)
    # the labels {0, 1} of the same cells partition the mesh
    assert partition_from_labels(mesh, labels + 1).num_subdomains == 2


@pytest.mark.parametrize("shape", [(10,), (40,), (32, 1), (0,)])
def test_partition_from_labels_needs_one_label_per_triangle(shape):
    mesh = build_rect_mesh(4, 4)
    with pytest.raises(ValueError, match="each of the 32 triangles, got an array "
                                         f"of shape {re.escape(str(shape))}"):
        partition_from_labels(mesh, np.zeros(shape, dtype=np.int64))


def test_partition_cover_and_disjoint_dofs():
    mesh = build_rect_mesh(6, 4, 1.5, 1.0)
    part = partition_checkerboard(mesh, 3, 2)
    areas = triangle_areas(mesh)
    total = sum(areas[part.subdomain_of_triangle == j].sum()
                for j in range(part.num_subdomains))
    assert abs(total - 1.5) < 1e-13 * 1.5
    o = part.volume_offsets
    for j in range(part.num_subdomains):
        assert len(np.intersect1d(part.boundary_dofs[j], part.interior_dofs[j])) == 0
        verts = np.unique(mesh.triangles[part.subdomain_of_triangle == j])
        np.testing.assert_array_equal(np.sort(part.volume_rows[o[j + 2]:o[j + 3]]),
                                      np.sort(verts))


def test_block_count_equality_iff_single_domain():
    mesh = build_rect_mesh(4, 4)
    single = skeleton_index(partition_checkerboard(mesh, 1, 1))
    counted = sum(len(b) for b in single.block_dofs[1:])
    assert counted == single.n_sigma
    quad = skeleton_index(partition_checkerboard(mesh, 2, 2))
    counted = sum(len(b) for b in quad.block_dofs[1:])
    assert counted > quad.n_sigma


def test_skeleton_index_cross_points_and_maps():
    mesh = build_rect_mesh(4, 4)
    part = partition_checkerboard(mesh, 2, 2)
    index = skeleton_index(part)
    assert len(index.cross_points) == 1
    np.testing.assert_allclose(mesh.vertices[index.cross_points[0]], [0.5, 0.5])
    # block maps are consistent injections
    for dofs, mapped in zip(index.block_dofs, index.block_map):
        np.testing.assert_array_equal(index.skeleton_dofs[mapped], dofs)
        assert len(np.unique(mapped)) == len(mapped)
    # interface dofs are hit by >= 2 subdomain blocks
    counts = np.zeros(index.n_sigma, int)
    for m in index.block_map[1:]:
        counts[m] += 1
    on_gamma = np.isin(index.skeleton_dofs, part.gamma_dofs)
    assert np.all(counts[~on_gamma] >= 2)


def test_reproducible_orderings():
    mesh = build_rect_mesh(4, 4)
    a = skeleton_index(partition_checkerboard(mesh, 2, 2))
    b = skeleton_index(partition_checkerboard(build_rect_mesh(4, 4), 2, 2))
    np.testing.assert_array_equal(a.skeleton_dofs, b.skeleton_dofs)
    for ma, mb in zip(a.block_map, b.block_map):
        np.testing.assert_array_equal(ma, mb)


def test_export_listing_roundtrippable_format():
    mesh = build_rect_mesh(2, 1)
    text = export_listing(mesh)
    lines = text.strip().split("\n")
    assert len(lines) == mesh.num_vertices + mesh.num_triangles + len(mesh.boundary_edges)
    assert lines[0].startswith("node 0 ")
    kinds = {ln.split()[0] for ln in lines}
    assert kinds == {"node", "tri", "edge"}
