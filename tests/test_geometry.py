import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lpsvem.geometry import (CellGroup, GeometryError, L_SHAPE, MeshFormatError, PolyMesh,
                             Rectangle, UNIT_SQUARE, generate_mesh, read_mesh, write_mesh)
from lpsvem import element_ops as eo
from lpsvem import geometry
from oracles import (cell_areas, check_regularity, ear_clip, polygon_kernel,
                     polygon_signed_area, reference_hex_seeds, reference_lloyd,
                     reference_qhull_voronoi, reference_rect_markers, reference_structured_mesh,
                     reference_topology, reference_voronoi)

FAMILIES = ("uniform_square", "distorted_square", "voronoi", "nonconvex", "triangular")


def test_uniform_square_counts():
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1 / 5)
    assert mesh.n_cells == 25
    assert mesh.n_vertices == 36


def test_uniform_square_tiling():
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1 / 5)
    assert abs(cell_areas(mesh).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("h", [1 / 5, 1 / 10])
def test_tiling_and_orientation_all_families(family, h):
    domain = L_SHAPE if family == "triangular" else UNIT_SQUARE
    mesh = generate_mesh(family, domain, h)
    areas = cell_areas(mesh)
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - domain.area) / domain.area <= 1e-10
    assert mesh.h <= 2.0 * h + 1e-12


@pytest.mark.parametrize("family", FAMILIES)
def test_generator_determinism(family):
    import lpsvem.geometry as g
    domain = L_SHAPE if family == "triangular" else UNIT_SQUARE
    m1 = g._GENERATORS[family](domain, 1 / 5, 42)
    m2 = g._GENERATORS[family](domain, 1 / 5, 42)
    assert np.array_equal(m1.vertices, m2.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(m1.cells, m2.cells))


def test_every_edge_shared_by_one_or_two_cells(meshes_h5):
    for mesh in meshes_h5.values():
        counts = (mesh.edge_cells >= 0).sum(axis=1)
        assert set(counts.tolist()) <= {1, 2}
        bnd = mesh.boundary_edge_ids()
        marked = np.concatenate(list(mesh.boundary_markers.values()))
        assert sorted(marked.tolist()) == sorted(bnd.tolist())


def _is_convex(pts):
    n = len(pts)
    for i in range(n):
        a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
        if (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]) < -1e-9:
            return False
    return True


def test_voronoi_cells_convex_and_regular():
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 10)
    ratios = []
    for cell in mesh.cells:
        pts = mesh.vertices[cell]
        assert _is_convex(pts)
        d = np.roll(pts, -1, axis=0) - pts
        lens = np.hypot(d[:, 0], d[:, 1])
        diam = max(np.hypot(*(p - q)) for p in pts for q in pts)
        ratios.append(lens.min() / diam)
    assert min(ratios) >= 0.05


def test_regularity_uniform_square():
    mesh = generate_mesh("uniform_square", UNIT_SQUARE, 1 / 5)
    rep = check_regularity(mesh)
    assert abs(rep.gamma_edge - 1 / np.sqrt(2)) <= 1e-12
    assert 0.0 < rep.gamma_star <= 1.0


@pytest.mark.parametrize("family", FAMILIES)
def test_regularity_in_unit_interval(family):
    domain = L_SHAPE if family == "triangular" else UNIT_SQUARE
    rep = check_regularity(generate_mesh(family, domain, 1 / 5))
    assert 0.0 < rep.gamma_edge <= 1.0
    assert 0.0 < rep.gamma_star <= 1.0


def test_regular_hexagon_gamma_star():
    ang = np.linspace(0, 2 * np.pi, 7)[:-1]
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    mesh = PolyMesh(pts, [np.arange(6)], {})
    mesh.boundary_markers = {"all": mesh.boundary_edge_ids()}
    rep = check_regularity(mesh)
    # regular hexagon: inradius / diameter = sqrt(3)/4 = 0.433...
    assert rep.gamma_star > 0.4
    assert abs(rep.gamma_star - np.sqrt(3) / 4) < 1e-6


def test_kernel_of_concave_cell():
    dart = np.array([[0.3, 0.3], [0.7, -0.3], [1.3, 1.3], [-0.3, 0.7]])
    ker = polygon_kernel(dart)
    assert ker is not None
    assert polygon_signed_area(ker) < polygon_signed_area(dart)


@given(n=st.integers(4, 10), r=st.floats(0.2, 1.0), seed=st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_element_geometry_invariants(n, r, seed):
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    if np.min(np.diff(ang)) < 1e-2:
        return
    # a gap of pi or more between neighbouring angles (the wrap-around gap
    # included) leaves the origin outside the polygon, which may then be
    # clockwise or self-intersecting: keep only star-shaped CCW polygons
    gaps = np.append(np.diff(ang), 2 * np.pi - (ang[-1] - ang[0]))
    assume(gaps.max() < np.pi)
    rad = r * (1.0 + 0.2 * rng.uniform(-1, 1, size=n))
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    cell = CellGroup(np.array([0]), pts[None])
    area, diameter = cell.area[0], cell.diameter[0]
    tri_area = sum(polygon_signed_area(pts[list(t)]) for t in cell.triangles[0])
    assert abs(tri_area - area) <= 1e-12 * area
    centro = sum(polygon_signed_area(pts[list(t)]) * pts[list(t)].mean(axis=0)
                 for t in cell.triangles[0]) / area
    assert np.abs(centro - cell.centroid[0]).max() <= 1e-12 * diameter
    assert diameter >= cell.edge_lengths[0].max() - 1e-14


@pytest.mark.parametrize("family, domain", [
    *((f, d) for f in FAMILIES for d in (UNIT_SQUARE, Rectangle(-1.0, 2.0, 3.0, 2.5))),
    ("uniform_square", L_SHAPE), ("triangular", L_SHAPE)])   # the families that tile it
@pytest.mark.parametrize("h, seed", [(1 / 5, 1), (1 / 10, 7)])
def test_triangles_match_ear_clip_reference(family, domain, h, seed):
    """The ear clipping of a whole cell group gives, cell by cell, the
    triangles of the one-polygon reference, bit for bit."""
    mesh = generate_mesh(family, domain, h, seed=seed)
    for group in mesh.cell_groups:
        for tris, pts in zip(group.triangles, group.vertices):
            assert np.array_equal(tris, ear_clip(pts))


def _star_polygon(n, seed, t):
    """A CCW polygon of n vertices, star-shaped about the origin with radii
    between 0.3 and 1, and with a vertex at ``t`` along its first edge
    (collinear with its neighbours) unless ``t`` is None."""
    rng = np.random.default_rng(seed)
    ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
    gaps = np.append(np.diff(ang), 2 * np.pi - (ang[-1] - ang[0]))
    assume(gaps.min() > 1e-2 and gaps.max() < np.pi)
    rad = rng.uniform(0.3, 1.0, size=n)
    pts = np.column_stack([rad * np.cos(ang), rad * np.sin(ang)])
    if t is not None:
        pts = np.insert(pts, 1, (1 - t) * pts[0] + t * pts[1], axis=0)
    return pts


@given(n=st.integers(4, 10), seed=st.integers(0, 2**32 - 1),
       t=st.one_of(st.none(), st.floats(0.2, 0.8)))
@settings(max_examples=60, deadline=None)
def test_triangles_match_ear_clip_reference_on_polygons(n, seed, t):
    pts = _star_polygon(n, seed, t)
    turns = [polygon_signed_area(pts[[i - 1, i, (i + 1) % len(pts)]]) for i in range(len(pts))]
    assume(t is not None or min(turns) < 0.0)       # nonconvex, or a collinear vertex
    try:
        want = np.array(ear_clip(pts))
    except GeometryError:
        with pytest.raises(GeometryError, match=r"^cell 0: ear clipping failed"):
            CellGroup(np.array([0]), pts[None])
        return
    assume(min(polygon_signed_area(pts[tri]) for tri in want) > 1e-14 * polygon_signed_area(pts))
    assert np.array_equal(CellGroup(np.array([0]), pts[None]).triangles[0], want)


def test_ear_clip_failure_names_the_lowest_cell():
    """A triangle with a spike along each leg: the loop runs out to (2, 0) and
    back to (1, 0), and from (0, 1) out to (0, 2) and back, so that every
    corner that turns left holds another vertex on its triangle's edge.  Both
    cells pass the area and edge checks and fail ear clipping; the error names
    the lower id, whatever its place in the group."""
    spikes = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 2.0]])
    with pytest.raises(GeometryError,
                       match=r"^cell 4: ear clipping failed; polygon may be non-simple$"):
        CellGroup(np.array([7, 4]), np.stack([spikes, spikes + 3.0]))


def test_cell_with_fewer_than_3_vertices():
    with pytest.raises(GeometryError, match=r"^cell 2: fewer than 3 vertices$"):
        CellGroup(np.array([2]), np.array([[[0.0, 0.0], [1.0, 0.0]]]))


def test_mesh_io_roundtrip(tmp_path):
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    path = tmp_path / "mesh.json"
    write_mesh(mesh, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert all(np.array_equal(a, b) for a, b in zip(back.cells, mesh.cells))
    # a second write is byte-identical
    path2 = tmp_path / "mesh2.json"
    write_mesh(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_mesh_io_writes_shortest_floats(tmp_path):
    """A float is written in the shortest form that reads back exactly."""
    verts = [[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1]]
    mesh = PolyMesh(verts, [[0, 1, 2, 3]], {"wall": [0, 1, 2, 3]})
    path = tmp_path / "tenth.json"
    write_mesh(mesh, path)
    text = path.read_text()
    assert "[0.1, 0.0]" in text and "0.10000000000000001" not in text
    assert np.array_equal(read_mesh(path).vertices, verts)


def test_mesh_io_single_cell(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cells": [[0, 1, 2, 3]],
        "boundary": {"wall": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    }))
    mesh = read_mesh(path)
    assert mesh.n_cells == 1 and mesh.n_vertices == 4


def test_mesh_io_bad_vertex_index(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1]],
        "cells": [[0, 1, 7]],
        "boundary": {},
    }))
    with pytest.raises(MeshFormatError, match="bad vertex index"):
        read_mesh(path)


def test_mesh_io_orientation_error(tmp_path):
    path = tmp_path / "cw.json"
    path.write_text(json.dumps({
        "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]],
        "cells": [[0, 3, 2, 1]],
        "boundary": {"wall": [[0, 1], [1, 2], [2, 3], [3, 0]]},
    }))
    with pytest.raises(MeshFormatError, match="cell 0"):
        read_mesh(path)


SQUARE_CELL = {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]], "cells": [[0, 1, 2, 3]]}


@pytest.mark.parametrize("boundary, msg", [
    ({"wall": [[0, 1], [1, 2], [2, 3], [3, 0]], "inlet": [[1, 0]]},
     "a boundary edge carries more than one marker"),
    ({"wall": [[0, 1], [1, 2], [2, 3]]}, "boundary markers do not cover the boundary edges"),
])
def test_mesh_io_marker_errors(tmp_path, boundary, msg):
    path = tmp_path / "markers.json"
    path.write_text(json.dumps({**SQUARE_CELL, "boundary": boundary}))
    with pytest.raises(MeshFormatError, match=f"^{msg}$"):
        read_mesh(path)


def test_mesh_io_malformed(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(MeshFormatError, match="line"):
        read_mesh(path)
    path.write_text(json.dumps({"vertices": [[0, 0]]}))
    with pytest.raises(MeshFormatError, match="cells"):
        read_mesh(path)


@pytest.mark.parametrize("vertices, msg", [
    ([[0, 0], [1, 0], [float("nan"), 1]], r"vertex 2: non-finite coordinates \(nan, 1\)"),
    ([[0, 0], [1, 0], [1, 1], [0, float("inf")]], r"vertex 3: non-finite coordinates \(0, inf\)"),
], ids=["nan_triangle", "inf_quadrilateral"])
def test_non_finite_vertex_is_named(tmp_path, vertices, msg):
    """A vertex with a NaN or an infinite coordinate is rejected by name: by
    PolyMesh, and by read_mesh as a fault of the file."""
    loop = list(range(len(vertices)))
    with pytest.raises(GeometryError, match=f"^{msg}$"):
        PolyMesh(np.array(vertices), [loop], {})
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"vertices": vertices, "cells": [loop], "boundary": {
        "wall": [[i, (i + 1) % len(loop)] for i in loop]}}))
    with pytest.raises(MeshFormatError, match=f"^{msg}$"):
        read_mesh(path)


def test_generate_mesh_rejects_bad_h():
    with pytest.raises(GeometryError):
        generate_mesh("uniform_square", UNIT_SQUARE, 0.0)
    with pytest.raises(GeometryError):
        generate_mesh("uniform_square", UNIT_SQUARE, -1.0)
    for h in (np.inf, np.nan):
        with pytest.raises(GeometryError, match="positive and finite"):
            generate_mesh("uniform_square", UNIT_SQUARE, h)


@pytest.mark.parametrize("family", ["voronoi", "distorted_square", "nonconvex"])
def test_lshape_rejected_for_nontiling_families(family):
    with pytest.raises(GeometryError):
        generate_mesh(family, L_SHAPE, 1 / 4)


@pytest.mark.parametrize("family", ["uniform_square", "triangular"])
def test_lshape_supported_families(family):
    dom = L_SHAPE
    mesh = generate_mesh(family, dom, 1 / 4)
    assert abs(cell_areas(mesh).sum() - dom.area) / dom.area < 1e-12
    assert {"left", "right", "top", "bottom", "notch_v", "notch_h"} == set(mesh.boundary_markers)


def test_nonconvex_family_has_concave_cells():
    mesh = generate_mesh("nonconvex", UNIT_SQUARE, 1 / 5)
    concave = sum(0 if _is_convex(mesh.vertices[c]) else 1 for c in mesh.cells)
    assert concave > mesh.n_cells // 3


def test_distortion_bounded():
    ref = generate_mesh("uniform_square", UNIT_SQUARE, 1 / 5)
    import lpsvem.geometry as g
    dist = g._GENERATORS["distorted_square"](UNIT_SQUARE, 1 / 5, 42)
    n = round(1.8 * 5)
    s = 1.0 / n
    xs = np.linspace(0, 1, n + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    lattice = np.column_stack([X.ravel(), Y.ravel()])
    d = np.hypot(*(dist.vertices - lattice).T)
    assert d.max() <= 0.3 * s + 1e-12


# ---------------------------------------------------------------------------
# the array-based topology and generators against their loop references
# ---------------------------------------------------------------------------

def _assert_topology_matches_reference(mesh):
    edges, edge_cells, cell_edges = reference_topology(mesh.vertices, mesh.cells)
    assert mesh.edges.dtype == edges.dtype and np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.edge_cells, edge_cells)
    assert len(mesh.cell_edges) == len(cell_edges)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cell_edges, cell_edges))
    marked = np.concatenate(list(mesh.boundary_markers.values()))
    assert np.array_equal(np.sort(marked), np.flatnonzero(edge_cells[:, 1] < 0))
    assert all(np.all(np.diff(ids) > 0) for ids in mesh.boundary_markers.values())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("h", [1 / 5, 1 / 10])
def test_topology_matches_dict_reference(family, h):
    _assert_topology_matches_reference(generate_mesh(family, UNIT_SQUARE, h))


@pytest.mark.parametrize("family", ["uniform_square", "triangular"])
def test_topology_matches_dict_reference_lshape(family):
    _assert_topology_matches_reference(generate_mesh(family, L_SHAPE, 1 / 4))


def test_topology_matches_dict_reference_read_mesh(tmp_path):
    path = tmp_path / "mesh.json"
    write_mesh(generate_mesh("voronoi", UNIT_SQUARE, 1 / 10), path)
    _assert_topology_matches_reference(read_mesh(path))


SQUARE_2X1 = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [2.0, 1.0]])


@pytest.mark.parametrize("cells, exc, msg", [
    ([[0, 1, 4, 3], [1, 2]], GeometryError, "cell 1: fewer than 3 vertices"),
    ([[0, 1, 4, 3], [1, 2, 9, 4]], MeshFormatError, "cell 1: bad vertex index 9"),
    ([[0, 1, 4, 3], [1, -1, 5, 4]], MeshFormatError, "cell 1: bad vertex index 5"),
    ([[0, 1, 4, 3], [1, 2, 5, 2]], GeometryError, "cell 1: repeated vertex index"),
    ([[0, 1, 4, 1], [1, 2]], GeometryError, "cell 0: repeated vertex index"),
    ([[0, 1, 4, 3], [1, 2, 5, 7], [2, 2, 5]], MeshFormatError, "cell 1: bad vertex index 7"),
    ([[0, 1, 4, 3], [1, 2, 5, 4], [1, 4, 5]], GeometryError, "edge 1 shared by 3 cells"),
])
def test_topology_errors_match_dict_reference(cells, exc, msg):
    with pytest.raises(exc) as ref:
        reference_topology(SQUARE_2X1, cells)
    assert str(ref.value) == msg and type(ref.value) is exc
    with pytest.raises(exc, match=f"^{msg}$") as got:
        PolyMesh(SQUARE_2X1, cells, {})
    assert type(got.value) is exc


@pytest.mark.parametrize("h", [1 / 5, 1 / 10, 1 / 20])
def test_voronoi_cells_match_clipping_reference(h):
    """The regions of the mirrored diagram are the bisector-clipped cells:
    the Lloyd seeds of a fresh Voronoi diagram per step up to rounding, the
    same vertex count, loop lengths and marker counts, and cell areas equal
    up to rounding."""
    seeds, s = geometry._hex_seeds(UNIT_SQUARE, h)
    ref_seeds, _ = reference_hex_seeds(UNIT_SQUARE, h)
    assert np.array_equal(seeds, ref_seeds)
    # measured: 1.3e-15 s at h=1/5 and 1/10, 5.1e-15 s at h=1/20
    assert np.max(np.abs(geometry._lloyd(seeds, UNIT_SQUARE, 3.0 * s)[0]
                         - reference_lloyd(ref_seeds, UNIT_SQUARE, 20, 3.0 * s))) <= 1e-13 * s
    mesh = generate_mesh("voronoi", UNIT_SQUARE, h)
    verts, cells = reference_voronoi(UNIT_SQUARE, h)
    ref = PolyMesh(verts, cells, {})
    assert mesh.n_vertices == ref.n_vertices and mesh.n_edges == ref.n_edges
    assert [len(c) for c in mesh.cells] == [len(c) for c in ref.cells]
    ref.boundary_markers = reference_rect_markers(ref, UNIT_SQUARE, 1e-6 * s)
    assert ({k: len(v) for k, v in mesh.boundary_markers.items()}
            == {k: len(v) for k, v in ref.boundary_markers.items()})
    areas, ref_areas = cell_areas(mesh), cell_areas(ref)
    assert np.max(np.abs(areas - ref_areas) / ref_areas) <= 1e-13
    walls = {"left": (0, 0.0), "right": (0, 1.0), "bottom": (1, 0.0), "top": (1, 1.0)}
    for name, (axis, at) in walls.items():   # boundary vertices lie on their wall exactly
        assert np.all(mesh.vertices[mesh.edges[mesh.boundary_markers[name]], axis] == at)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("domain", [UNIT_SQUARE, Rectangle(-1.0, 2.0, 3.0, 2.5)])
@pytest.mark.parametrize("h, seed", [(1 / 4, 1), (1 / 10, 7)])
def test_markers_match_endpoint_reference(family, domain, h, seed):
    """On a rectangle the midpoint rule gives the markers of the endpoint
    rule: the same names in the same order, and the same edge ids."""
    mesh = generate_mesh(family, domain, h, seed=seed)
    ref = reference_rect_markers(mesh, domain, 1e-9 * max(domain.width, domain.height))
    assert list(mesh.boundary_markers) == list(ref)
    assert all(np.array_equal(mesh.boundary_markers[k], ref[k]) for k in ref)


@pytest.mark.parametrize("family, domain, h, seed", [
    ("triangular", L_SHAPE, 1 / 16, 1),              # channel_k1
    ("distorted_square", UNIT_SQUARE, 1 / 9, 1),     # picard_k2
    ("distorted_square", UNIT_SQUARE, 1 / 18, 1),
    ("uniform_square", L_SHAPE, 1 / 4, 42),
    ("uniform_square", UNIT_SQUARE, 1 / 5, 42),
    ("nonconvex", UNIT_SQUARE, 1 / 10, 42),
    ("triangular", UNIT_SQUARE, 1 / 5, 42),
])
def test_structured_meshes_match_loop_reference(family, domain, h, seed):
    """The array-built structured meshes are bit-identical to the ones built
    node by node and cell by cell: vertices, cells and edges."""
    mesh = generate_mesh(family, domain, h, seed=seed)
    verts, cells = reference_structured_mesh(family, domain, h, seed)
    assert np.array_equal(mesh.vertices, verts)
    assert len(mesh.cells) == len(cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, cells))
    assert np.array_equal(mesh.edges, reference_topology(verts, cells)[0])


def _count_triangulations(monkeypatch):
    """The list of point counts of the ``geometry._delaunay`` calls made."""
    calls, triangulate = [], geometry._delaunay

    def counted(points):
        calls.append(len(points))
        return triangulate(points)
    monkeypatch.setattr(geometry, "_delaunay", counted)
    return calls


def test_lloyd_remakes_a_stale_triangulation(monkeypatch):
    """Random seeds move far in their first Lloyd steps, so the triangulation
    goes stale and is made again; the seeds still follow a fresh Voronoi
    diagram per step to rounding (measured 8.0e-16 after 13 triangulations;
    with the incircle test skipped, a remake finds the region of seed 16
    unbounded)."""
    calls = _count_triangulations(monkeypatch)
    pts = np.random.default_rng(0).random((60, 2))
    moved = geometry._lloyd(pts, UNIT_SQUARE, 0.3)[0]
    assert 1 < len(calls) < geometry._LLOYD_ITERS
    assert np.max(np.abs(moved - reference_lloyd(pts, UNIT_SQUARE, 20, 0.3))) <= 1e-13


BOX = Rectangle(-1.0, 2.0, 3.0, 2.5)


def _triangulation_inputs():
    """Seeded random points; a grid, whose rows are collinear and whose
    squares are exact cocircular quads, and the same grid scaled, where they
    are cocircular to rounding; the hex seeds and their wall images."""
    cases = [pytest.param(np.random.default_rng(seed).random((n, 2)), id=f"random{n}")
             for seed, n in ((0, 3), (1, 4), (2, 50), (3, 300))]
    grid = np.stack(np.meshgrid(np.arange(9.0), np.arange(6.0)), axis=-1).reshape(-1, 2)
    cases += [pytest.param(grid, id="grid"), pytest.param(0.1 * grid + 0.3, id="scaled_grid")]
    for label, domain in (("unit_square", UNIT_SQUARE), ("box", BOX)):
        for n in (4, 5, 9, 10, 16, 20, 40):
            seeds, s = geometry._hex_seeds(domain, 1 / n)
            pts = geometry._images(seeds, domain, geometry._near_walls(seeds, domain, 3.0 * s))[0]
            cases.append(pytest.param(pts, id=f"hex-{label}-1/{n}"))
    return cases


def _incircle(points, tri, q):
    """The incircle determinant of the points ``q`` against the triangles
    ``tri`` (rows of corner ids), relative to the fourth power of the size
    as ``geometry._delaunay`` measures it: positive inside."""
    (ax, ay), (bx, by), (cx, cy) = ((points[tri[:, j]] - points[q]).T for j in range(3))
    la, lb, lc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    det = la * (bx * cy - cx * by) + lb * (cx * ay - ax * cy) + lc * (ax * by - bx * ay)
    return det / (la + lb + lc) ** 2


def _merged_edges(points, simp, nbr):
    """The Delaunay edges, as sorted pairs, without those between two
    cocircular triangles (to ``_DELAUNAY_TOL``): a cocircular pair makes one
    region vertex, so its diagonal is no edge of the merged fans."""
    t, k = np.indices(nbr.shape).reshape(2, -1)
    u = nbr[t, k]
    e = np.sort(np.stack([simp[t, (k + 1) % 3], simp[t, (k + 2) % 3]], axis=1), axis=1)
    inner = u >= 0
    apex = simp[u[inner], np.argmax(nbr[u[inner]] == t[inner, None], axis=1)]
    cocircular = np.zeros(len(t), dtype=bool)
    cocircular[inner] = np.abs(_incircle(points, simp[t[inner]], apex)) <= geometry._DELAUNAY_TOL
    return set(map(tuple, e[~cocircular].tolist()))


@pytest.mark.parametrize("points", _triangulation_inputs())
def test_delaunay_matches_qhull(points):
    """The numpy triangulation against ``scipy.spatial.Delaunay``: every
    triangle turns counter-clockwise, the neighbours agree edge by edge and
    the hull is one loop, no point lies inside a circumcircle beyond the
    slack, and the triangle count and the edges of the merged fans are
    Qhull's (Qhull breaks cocircular ties its own way)."""
    from scipy.spatial import Delaunay, cKDTree
    simp, nbr = geometry._delaunay(points)
    assert simp.shape == nbr.shape and simp.shape[1] == 3
    assert np.all(geometry._orient(*(points[simp[:, j]] for j in range(3))) > 0)
    t, k = np.nonzero(nbr >= 0)
    u = nbr[t, k]
    back = nbr[u] == t[:, None]
    assert np.all(back.sum(axis=1) == 1)
    kk = np.argmax(back, axis=1)
    assert np.array_equal(simp[t, (k + 1) % 3], simp[u, (kk + 2) % 3])
    assert np.array_equal(simp[t, (k + 2) % 3], simp[u, (kk + 1) % 3])
    t, k = np.nonzero(nbr < 0)
    after = dict(zip(simp[t, (k + 1) % 3].tolist(), simp[t, (k + 2) % 3].tolist()))
    loop = [next(iter(after))]
    while len(loop) <= len(t) and after[loop[-1]] != loop[0]:
        loop.append(after[loop[-1]])
    assert len(after) == len(t) and len(loop) == len(t)     # the hull edges make one loop
    # the points within each circumcircle, found by a k-d tree
    a, b, c = (points[simp[:, j]] - points[simp[:, 0]] for j in range(3))
    lb, lc = (b * b).sum(1), (c * c).sum(1)
    det = 2.0 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    centre = (np.stack([c[:, 1] * lb - b[:, 1] * lc, b[:, 0] * lc - c[:, 0] * lb], axis=1)
              / det[:, None])
    radius = np.hypot(*centre.T)
    near = cKDTree(points).query_ball_point(centre + points[simp[:, 0]], radius * (1 + 1e-9))
    tri = np.repeat(np.arange(len(simp)), [len(q) for q in near])
    q = np.concatenate([np.asarray(q, dtype=int) for q in near])
    assert np.max(_incircle(points, simp[tri], q)) <= geometry._DELAUNAY_TOL
    ref = Delaunay(points)
    assert len(simp) == len(ref.simplices)
    assert _merged_edges(points, simp, nbr) == _merged_edges(points, ref.simplices, ref.neighbors)


def test_delaunay_splits_a_grid_collinear_to_rounding_into_half_squares():
    """Shuffled grids whose points are moved by rounding-level noise put
    points on a hull edge's line to rounding only: such a point joins the
    hull within the edge or past its end, and every grid square splits into
    two triangles, none flat.  Qhull leaves flat and inverted triangles on
    these inputs (relative orientations down to -1.5e-16), and so did a walk
    that took the first ghost it reached (2e-17)."""
    rng = np.random.default_rng(5)
    for _ in range(20):
        nx, ny = rng.integers(3, 8, size=2)
        grid = np.stack(np.meshgrid(0.05 + 0.1 * np.arange(nx), 0.05 + 0.1 * np.arange(ny)),
                        axis=-1).reshape(-1, 2)
        grid += rng.normal(scale=1e-16, size=grid.shape) * (rng.random(grid.shape) < 0.5)
        rng.shuffle(grid)
        simp, _ = geometry._delaunay(grid)
        assert len(simp) == 2 * (nx - 1) * (ny - 1)
        area2 = geometry._orient(*(grid[simp[:, j]] for j in range(3)))
        assert np.allclose(area2, 0.01, rtol=1e-12, atol=0.0)


def test_delaunay_leaves_a_repeat_out_and_the_guard_names_its_seed():
    """A seed given twice is triangulated once, from its first copy, and so
    are its images; the region guard names the second copy, whose fan is
    empty."""
    seeds, s = geometry._hex_seeds(UNIT_SQUARE, 1 / 5)
    seeds = np.insert(seeds, 7, seeds[3], axis=0)        # seed 7 repeats seed 3
    pts = geometry._images(seeds, UNIT_SQUARE, geometry._near_walls(seeds, UNIT_SQUARE, 3.0 * s))[0]
    first = np.unique(pts, axis=0, return_index=True)[1]
    assert 7 not in first and len(first) < len(pts) - 1   # the images of seed 7 repeat too
    simp, _ = geometry._delaunay(pts)
    assert np.array_equal(np.unique(simp), np.sort(first))
    with pytest.raises(GeometryError, match=r"^voronoi region of seed 7 is unbounded"):
        geometry._lloyd(seeds, UNIT_SQUARE, 3.0 * s)


def test_voronoi_generator_loads_no_scipy_spatial():
    """The Voronoi meshes of the convergence ladder are made without
    scipy.spatial, and so without scipy.special (measured together: 0.08 s
    of import time and 7.6 MB)."""
    code = textwrap.dedent("""
        import sys
        from lpsvem.geometry import UNIT_SQUARE, generate_mesh
        for h in (1 / 5, 1 / 10, 1 / 20):
            generate_mesh("voronoi", UNIT_SQUARE, h)
        print([m for m in ("scipy.spatial", "scipy.special") if m in sys.modules])
    """)
    src = str(Path(geometry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]"]


@pytest.mark.parametrize("family", FAMILIES)
def test_memoized_mesh_is_read_only(family):
    """Every caller of ``generate_mesh`` gets the same memoized mesh, so an
    in-place write to any of its arrays, or to those of its cell groups,
    raises, and the next call returns the mesh as it was built."""
    mesh = generate_mesh(family, UNIT_SQUARE, 1 / 5)
    vertices, cells = mesh.vertices.copy(), [c.copy() for c in mesh.cells]
    group = mesh.cell_groups[0]
    for a in (mesh.vertices, mesh.cells[0], mesh.edges, mesh.edge_cells, mesh.cell_edges[0],
              mesh.boundary_markers["left"], group.cell_ids, group.vertices, group.area,
              group.centroid, group.diameter, group.edge_lengths, group.edge_normals,
              group.triangles):
        with pytest.raises(ValueError, match="read-only"):
            a[0] += 1
    again = generate_mesh(family, UNIT_SQUARE, 1 / 5)
    assert again is mesh and np.array_equal(again.vertices, vertices)
    assert all(np.array_equal(a, b) for a, b in zip(again.cells, cells))


def test_fans_stale_when_a_region_vertex_leaves_the_rectangle():
    seeds, s = geometry._hex_seeds(UNIT_SQUARE, 1 / 5)
    mirrored, wall = geometry._images(seeds, UNIT_SQUARE,
                                      geometry._near_walls(seeds, UNIT_SQUARE, 3.0 * s))
    fans = geometry._Fans(mirrored, len(seeds), wall)
    assert fans.centres(mirrored, UNIT_SQUARE) is not None
    assert fans.centres(mirrored, Rectangle(0.0, 0.0, 0.99, 1.0)) is None


@pytest.mark.parametrize("h", [1 / 5, 1 / 10, 1 / 20])
def test_voronoi_mesh_triangulates_once(monkeypatch, h):
    """A Voronoi mesh of the convergence ladder takes one Delaunay
    triangulation for all Lloyd steps and reads its cells from the same
    fans; at h=1/20 the seeds of the last step leave the band of two
    images, which the kept triangulation still holds."""
    calls = _count_triangulations(monkeypatch)
    geometry._voronoi(UNIT_SQUARE, h, 42)
    assert len(calls) == 1


@pytest.mark.parametrize("domain", [UNIT_SQUARE, Rectangle(-1.0, 2.0, 3.0, 2.5)])
@pytest.mark.parametrize("h", [1 / 4, 1 / 5, 1 / 9, 1 / 10, 1 / 16, 1 / 20, 1 / 40])
def test_voronoi_mesh_matches_qhull_reference(domain, h):
    """The cells read from the Lloyd fans are those of a second Qhull
    diagram of the same seeds (``scipy.spatial.Voronoi``): the same loops,
    markers, cell groups and ear-clip triangles, and vertices within one ulp
    of the domain's largest coordinate (measured: at most that, 2.2e-16 on
    the unit square and 4.4e-16 on the box)."""
    mesh = generate_mesh("voronoi", domain, h)
    ref = reference_qhull_voronoi(domain, h)
    assert len(mesh.cells) == len(ref.cells)
    assert all(np.array_equal(a, b) for a, b in zip(mesh.cells, ref.cells))
    assert list(mesh.boundary_markers) == list(ref.boundary_markers)
    assert all(np.array_equal(mesh.boundary_markers[k], ref.boundary_markers[k])
               for k in ref.boundary_markers)
    assert len(mesh.cell_groups) == len(ref.cell_groups)
    for g, r in zip(mesh.cell_groups, ref.cell_groups):
        assert np.array_equal(g.cell_ids, r.cell_ids) and np.array_equal(g.triangles, r.triangles)
    ulp = np.spacing(max(abs(domain.x0), abs(domain.x1), abs(domain.y0), abs(domain.y1)))
    assert mesh.vertices.shape == ref.vertices.shape
    assert np.max(np.abs(mesh.vertices - ref.vertices)) <= ulp


@pytest.mark.parametrize("domain", [UNIT_SQUARE, Rectangle(-1.0, 2.0, 3.0, 2.5)])
def test_voronoi_loops_start_at_lowest_vertex(domain):
    """Every Voronoi cell starts at its lowest vertex (by y, then x), not
    where its fan happens to begin."""
    for h in (1 / 5, 1 / 10):
        mesh = generate_mesh("voronoi", domain, h)
        for cell in mesh.cells:
            x, y = mesh.vertices[cell].T
            assert np.lexsort((x, y))[0] == 0


@pytest.mark.parametrize("family", ["uniform_square", "distorted_square", "nonconvex",
                                    "triangular"])
def test_grid_counts_round_half_up(family):
    """0.5 / 0.2 = 2.5 rows round up to 3, so the 4 x 0.5 box keeps every
    structured family within 2 h at h=1/5 (half to even gave nonconvex 2 rows
    of 0.25 and h=0.416)."""
    mesh = generate_mesh(family, Rectangle(-1.0, 2.0, 3.0, 2.5), 1 / 5)
    assert mesh.h <= 2 / 5


@pytest.mark.parametrize("family", FAMILIES)
def test_only_distorted_square_reads_the_seed(family):
    a = generate_mesh(family, UNIT_SQUARE, 1 / 5, seed=1)
    b = generate_mesh(family, UNIT_SQUARE, 1 / 5, seed=7)
    same = (np.array_equal(a.vertices, b.vertices)
            and all(np.array_equal(p, q) for p, q in zip(a.cells, b.cells)))
    assert same == (family != "distorted_square")


def test_voronoi_region_guard_names_the_seed():
    """Without reflected seeds the regions of the seeds on the boundary are
    unbounded; the region reader names the first of them."""
    seeds, _ = geometry._hex_seeds(UNIT_SQUARE, 1 / 5)
    with pytest.raises(GeometryError, match=r"^voronoi region of seed 0 is unbounded"):
        geometry._lloyd(seeds, UNIT_SQUARE, band=0.0)


def test_cell_groups_built_once(monkeypatch):
    mesh = generate_mesh("voronoi", UNIT_SQUARE, 1 / 5)
    groups = mesh.cell_groups
    built = []
    monkeypatch.setattr(CellGroup, "__post_init__", lambda self: built.append(self))
    eo.build_mesh_ops(mesh, 1)
    mesh.validate()
    assert mesh.h == max(g.diameter.max() for g in groups)
    assert built == [] and mesh.cell_groups is groups
