"""Polygonal meshes: data structures, generators, regularity checks and JSON IO.

Conventions: cells are counter-clockwise vertex-index loops, every cell is a
simple polygon with positive area, and each boundary edge carries exactly one
named marker.  Meshes are treated as immutable once built.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import KDTree, Voronoi


class GeometryError(ValueError):
    """Invalid mesh, cell or generator input."""


class MeshFormatError(GeometryError):
    """Malformed mesh file; message names the offending field or cell."""


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0

    @property
    def area(self) -> float:
        return (self.x1 - self.x0) * (self.y1 - self.y0)

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


@dataclass(frozen=True)
class CutoutRectangle:
    """Rectangle minus the block [notch_x, x1] x [y0, notch_y] (an L shape)."""
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 4.0
    y1: float = 2.0
    notch_x: float = 2.0
    notch_y: float = 1.0

    @property
    def area(self) -> float:
        return ((self.x1 - self.x0) * (self.y1 - self.y0)
                - (self.x1 - self.notch_x) * (self.notch_y - self.y0))

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


UNIT_SQUARE = Rectangle(0.0, 0.0, 1.0, 1.0)

MESH_FAMILIES = ("uniform_square", "distorted_square", "voronoi", "nonconvex",
                 "triangular")


# ---------------------------------------------------------------------------
# elementary polygon helpers
# ---------------------------------------------------------------------------

def polygon_signed_area(pts: np.ndarray) -> float:
    # shoelace about the first vertex: raw coordinates far from the origin
    # cancel catastrophically on small cells
    rel = pts - pts[0]
    x, y = rel[:, 0], rel[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_diameter(pts: np.ndarray) -> float:
    d = pts[:, None, :] - pts[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def _point_in_triangle(p, a, b, c, eps=1e-14):
    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])
    d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
    return d1 >= -eps and d2 >= -eps and d3 >= -eps


def ear_clip(pts: np.ndarray) -> list[tuple[int, int, int]]:
    """Triangulate a simple CCW polygon into index triples by ear clipping."""
    n = len(pts)
    if n < 3:
        raise GeometryError("polygon with fewer than 3 vertices")
    tol = 1e-14 * polygon_diameter(pts) ** 2
    p = np.asarray(pts, dtype=float).tolist()
    idx = list(range(n))
    tris: list[tuple[int, int, int]] = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * n * n:
            raise GeometryError("ear clipping failed; polygon may be non-simple")
        m = len(idx)
        clipped = False
        for k in range(m):
            i0, i1, i2 = idx[(k - 1) % m], idx[k], idx[(k + 1) % m]
            a, b, c = p[i0], p[i1], p[i2]
            cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cr <= tol:
                continue  # reflex or degenerate corner, not an ear
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _point_in_triangle(p[j], a, b, c):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise GeometryError("ear clipping failed; polygon may be non-simple")
    tris.append((idx[0], idx[1], idx[2]))
    return tris


def polygon_kernel(pts: np.ndarray) -> np.ndarray | None:
    """Intersection of the inner half-planes of all edges (kernel polygon).

    Returns None when the polygon is not star-shaped.
    """
    poly = [tuple(p) for p in pts]
    n = len(pts)
    for i in range(n):
        a, b = pts[i], pts[(i + 1) % n]
        # keep points left of the directed edge a->b
        nx, ny = a[1] - b[1], b[0] - a[0]  # inward normal for CCW loop
        off = nx * a[0] + ny * a[1]
        new: list[tuple[float, float]] = []
        m = len(poly)
        for k in range(m):
            p, q = poly[k], poly[(k + 1) % m]
            sp = nx * p[0] + ny * p[1] - off
            sq = nx * q[0] + ny * q[1] - off
            if sp >= -1e-14:
                new.append(p)
            if (sp > 1e-14 and sq < -1e-14) or (sp < -1e-14 and sq > 1e-14):
                t = sp / (sp - sq)
                new.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        poly = new
        if len(poly) < 3:
            return None
    return np.asarray(poly)


def chebyshev_radius(pts: np.ndarray) -> float:
    """Radius of the largest ball inscribed in a convex polygon (via an LP)."""
    from scipy.optimize import linprog   # about 0.1 s to import; only checks use it
    n = len(pts)
    A, b = [], []
    for i in range(n):
        p, q = pts[i], pts[(i + 1) % n]
        nx, ny = q[1] - p[1], -(q[0] - p[0])  # outward normal of CCW polygon
        ln = math.hypot(nx, ny)
        if ln < 1e-300:
            continue
        A.append([nx / ln, ny / ln, 1.0])
        b.append((nx * p[0] + ny * p[1]) / ln)
    res = linprog(c=[0.0, 0.0, -1.0], A_ub=np.array(A), b_ub=np.array(b),
                  bounds=[(None, None), (None, None), (0, None)], method="highs")
    if not res.success:
        return 0.0
    return float(res.x[2])


# ---------------------------------------------------------------------------
# per-element geometry
# ---------------------------------------------------------------------------

@dataclass
class CellGroup:
    """Geometry of cells with a common vertex count, stacked along axis 0.

    Every array has the cells on its first axis, in the order of
    ``cell_ids``; a single cell is the group of one.  Construction checks
    every cell for a positive area, edges that are not degenerate and an
    ear-clip sub-triangulation without degenerate triangles, and raises
    ``GeometryError`` for the lowest failing id, with the message of the
    first check that this cell fails.
    """
    cell_ids: np.ndarray          # (m,)
    vertices: np.ndarray          # (m, nv, 2) CCW
    area: np.ndarray = field(init=False)           # (m,)
    centroid: np.ndarray = field(init=False)       # (m, 2)
    diameter: np.ndarray = field(init=False)       # (m,)
    edge_lengths: np.ndarray = field(init=False)   # (m, nv)
    edge_normals: np.ndarray = field(init=False)   # (m, nv, 2) outward unit normals
    triangles: np.ndarray = field(init=False)      # (m, nv - 2, 3) ear-clip triples

    def __post_init__(self):
        ids = np.asarray(self.cell_ids, dtype=int).reshape(-1)
        pts = np.asarray(self.vertices, dtype=float)
        self.cell_ids, self.vertices = ids, pts
        m, nv = pts.shape[:2]
        failed: dict[int, str] = {}   # index in the group -> first failed check

        def fail(mask, msg):
            for j in np.flatnonzero(mask):
                failed.setdefault(int(j), msg(int(j)))

        # shoelace about the first vertex: raw coordinates far from the origin
        # cancel catastrophically on small cells
        rel = pts - pts[:, :1]
        x, y = rel[..., 0], rel[..., 1]
        xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
        cross = x * yn - xn * y
        area = 0.5 * np.sum(cross, axis=1)
        fail(area <= 0.0, lambda j: f"cell {ids[j]}: non-positive area {area[j]:g}")
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = np.sum((x + xn) * cross, axis=1) / (6.0 * area)
            cy = np.sum((y + yn) * cross, axis=1) / (6.0 * area)
        self.area = area
        self.centroid = pts[:, 0] + np.stack([cx, cy], axis=1)
        d = pts[:, :, None, :] - pts[:, None, :, :]
        self.diameter = np.sqrt((d ** 2).sum(-1)).max(axis=(1, 2))
        e = np.roll(pts, -1, axis=1) - pts
        self.edge_lengths = np.hypot(e[..., 0], e[..., 1])
        fail(np.any(self.edge_lengths < 1e-14 * self.diameter[:, None], axis=1),
             lambda j: f"cell {ids[j]}: degenerate edge")
        with np.errstate(divide="ignore", invalid="ignore"):
            self.edge_normals = (np.stack([e[..., 1], -e[..., 0]], axis=-1)
                                 / self.edge_lengths[..., None])

        tris = np.zeros((m, max(nv - 2, 0), 3), dtype=int)
        if nv == 3:
            tris[:] = (0, 1, 2)
        else:
            for j in range(m):
                if j in failed:
                    continue
                try:
                    tris[j] = ear_clip(pts[j])
                except GeometryError as exc:
                    failed[j] = str(exc)
        self.triangles = tris
        rows = np.arange(m)[:, None]
        p0, p1, p2 = (pts[rows, tris[..., i]] for i in range(3))
        u, v = p1 - p0, p2 - p0
        sub = 0.5 * (u[..., 0] * v[..., 1] - v[..., 0] * u[..., 1])
        fail(np.any(sub <= 1e-14 * area[:, None], axis=1),
             lambda j: f"cell {ids[j]}: degenerate sub-triangle")
        if failed:
            j = min(failed, key=lambda j: ids[j])
            raise GeometryError(failed[j])


# ---------------------------------------------------------------------------
# mesh container
# ---------------------------------------------------------------------------

@dataclass
class PolyMesh:
    """Polygonal tessellation with derived edge topology and boundary markers.

    ``boundary_markers`` maps marker name -> array of edge ids; the derived
    ``edges`` table stores each unique edge as (min vertex, max vertex).
    """
    vertices: np.ndarray
    cells: list[np.ndarray]
    boundary_markers: dict[str, np.ndarray]
    domain_area: float | None = None
    edges: np.ndarray = field(init=False)
    edge_cells: np.ndarray = field(init=False)       # (ne, 2), -1 for boundary
    cell_edges: list[np.ndarray] = field(init=False)  # per cell, edge ids in loop order
    h: float = field(init=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.cells = [np.asarray(c, dtype=int) for c in self.cells]
        self._build_topology()

    def _build_topology(self):
        nv = len(self.vertices)
        edge_index: dict[tuple[int, int], int] = {}
        pairs: list[tuple[int, int]] = []
        adj: list[list[int]] = []
        self.cell_edges = []
        for ci, cell in enumerate(self.cells):
            if len(cell) < 3:
                raise GeometryError(f"cell {ci}: fewer than 3 vertices")
            if cell.min() < 0 or cell.max() >= nv:
                raise MeshFormatError(f"cell {ci}: bad vertex index {int(cell.max())}")
            if len(np.unique(cell)) != len(cell):
                raise GeometryError(f"cell {ci}: repeated vertex index")
            eids = np.empty(len(cell), dtype=int)
            for k in range(len(cell)):
                a, b = int(cell[k]), int(cell[(k + 1) % len(cell)])
                key = (min(a, b), max(a, b))
                eid = edge_index.get(key)
                if eid is None:
                    eid = len(pairs)
                    edge_index[key] = eid
                    pairs.append(key)
                    adj.append([])
                adj[eid].append(ci)
                eids[k] = eid
            self.cell_edges.append(eids)
        self.edges = np.asarray(pairs, dtype=int).reshape(-1, 2)
        ec = np.full((len(pairs), 2), -1, dtype=int)
        for eid, cs in enumerate(adj):
            if len(cs) > 2:
                raise GeometryError(f"edge {eid} shared by {len(cs)} cells")
            ec[eid, :len(cs)] = cs
        self.edge_cells = ec
        self.h = max(polygon_diameter(self.vertices[c]) for c in self.cells)
        for name, eids in self.boundary_markers.items():
            self.boundary_markers[name] = np.asarray(eids, dtype=int)

    # -- queries ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def boundary_edge_ids(self) -> np.ndarray:
        return np.where(self.edge_cells[:, 1] < 0)[0]

    def cell_groups(self) -> list[CellGroup]:
        """Geometry of every cell, grouped by vertex count (ascending); each
        group lists its cells in mesh order."""
        counts = np.array([len(c) for c in self.cells])
        groups = []
        for nv in np.unique(counts):
            ids = np.flatnonzero(counts == nv)
            loops = np.stack([self.cells[ci] for ci in ids])
            groups.append(CellGroup(ids, self.vertices[loops]))
        return groups

    def cell_areas(self) -> np.ndarray:
        return np.array([polygon_signed_area(self.vertices[c]) for c in self.cells])

    def validate(self, expected_area: float | None = None):
        """Check the mesh invariants; raises GeometryError on violation."""
        areas = self.cell_areas()
        if np.any(areas <= 0):
            ci = int(np.argmin(areas))
            raise GeometryError(f"cell {ci}: non-positive signed area (orientation?)")
        bnd = set(self.boundary_edge_ids().tolist())
        marked: list[int] = []
        for eids in self.boundary_markers.values():
            marked.extend(int(e) for e in eids)
        if len(marked) != len(set(marked)):
            raise GeometryError("a boundary edge carries more than one marker")
        if set(marked) != bnd:
            raise GeometryError("boundary markers do not cover the boundary edges")
        area = expected_area if expected_area is not None else self.domain_area
        if area is not None:
            rel = abs(areas.sum() - area) / area
            if rel > 1e-10:
                raise GeometryError(f"cells do not tile the domain (rel gap {rel:.2e})")


@dataclass
class RegularityReport:
    gamma_edge: float
    gamma_star: float
    worst_cell: int


def check_regularity(mesh: PolyMesh) -> RegularityReport:
    """Shape-regularity ratios: min(edge/h_E) and min(kernel inradius/h_E).

    Star-shapedness is assessed through the polygon kernel, which is exact for
    convex cells and conservative for concave ones.  Degenerate cells report a
    zero ratio instead of raising.
    """
    g_edge, g_star, worst = np.inf, np.inf, -1
    for ci, cell in enumerate(mesh.cells):
        pts = mesh.vertices[cell]
        try:
            hE = polygon_diameter(pts)
            d = np.roll(pts, -1, axis=0) - pts
            emin = float(np.hypot(d[:, 0], d[:, 1]).min())
            ge = emin / hE
            ker = polygon_kernel(pts)
            gs = 0.0 if ker is None else chebyshev_radius(ker) / hE
        except Exception:
            ge, gs = 0.0, 0.0
        if min(ge, gs) < min(g_edge, g_star):
            worst = ci
        g_edge = min(g_edge, ge)
        g_star = min(g_star, gs)
    return RegularityReport(float(g_edge), float(g_star), worst)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _grid_counts(domain, h):
    nx = max(1, round(domain.width / h))
    ny = max(1, round(domain.height / h))
    return nx, ny


def _rect_markers(mesh: PolyMesh, domain: Rectangle, tol: float):
    v = mesh.vertices
    markers = {"left": [], "right": [], "bottom": [], "top": []}
    for eid in mesh.boundary_edge_ids():
        a, b = v[mesh.edges[eid]]
        if abs(a[0] - domain.x0) < tol and abs(b[0] - domain.x0) < tol:
            markers["left"].append(eid)
        elif abs(a[0] - domain.x1) < tol and abs(b[0] - domain.x1) < tol:
            markers["right"].append(eid)
        elif abs(a[1] - domain.y0) < tol and abs(b[1] - domain.y0) < tol:
            markers["bottom"].append(eid)
        elif abs(a[1] - domain.y1) < tol and abs(b[1] - domain.y1) < tol:
            markers["top"].append(eid)
        else:
            raise GeometryError("boundary edge not on any rectangle side")
    return {k: np.array(ids, dtype=int) for k, ids in markers.items() if ids}


def _cutout_markers(mesh: PolyMesh, dom: CutoutRectangle, tol: float):
    v = mesh.vertices
    names = ("left", "right", "bottom", "top", "notch_v", "notch_h")
    markers: dict[str, list[int]] = {n: [] for n in names}
    for eid in mesh.boundary_edge_ids():
        a, b = v[mesh.edges[eid]]
        mid = 0.5 * (a + b)
        if abs(mid[0] - dom.x0) < tol:
            markers["left"].append(eid)
        elif abs(mid[0] - dom.x1) < tol:
            markers["right"].append(eid)
        elif abs(mid[1] - dom.y1) < tol:
            markers["top"].append(eid)
        elif abs(mid[1] - dom.y0) < tol:
            markers["bottom"].append(eid)
        elif abs(mid[0] - dom.notch_x) < tol and mid[1] < dom.notch_y + tol:
            markers["notch_v"].append(eid)
        elif abs(mid[1] - dom.notch_y) < tol and mid[0] > dom.notch_x - tol:
            markers["notch_h"].append(eid)
        else:
            raise GeometryError("boundary edge not on the L-shape boundary")
    return {k: np.array(ids, dtype=int) for k, ids in markers.items() if ids}


def _structured_vertices(domain, nx, ny):
    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    return verts, vid


def _in_cutout(dom: CutoutRectangle, xc, yc):
    return xc > dom.notch_x and yc < dom.notch_y


def _quad_cells(domain, nx, ny):
    verts, vid = _structured_vertices(domain, nx, ny)
    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    cells, keep = [], []
    for i in range(nx):
        for j in range(ny):
            if isinstance(domain, CutoutRectangle):
                xc, yc = 0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])
                if _in_cutout(domain, xc, yc):
                    continue
            cells.append(np.array([vid[i, j], vid[i + 1, j], vid[i + 1, j + 1], vid[i, j + 1]]))
            keep.append((i, j))
    # drop unused vertices (cutout interior)
    used = np.unique(np.concatenate(cells))
    remap = -np.ones(len(verts), dtype=int)
    remap[used] = np.arange(len(used))
    cells = [remap[c] for c in cells]
    return verts[used], cells, keep, remap, vid


def _finish(verts, cells, domain, marker_fn, tol):
    mesh = PolyMesh(verts, cells, {}, domain_area=domain.area)
    mesh.boundary_markers = marker_fn(mesh, domain, tol)
    mesh.validate()
    return mesh


def _uniform_square(domain, h, seed):
    nx, ny = _grid_counts(domain, h)
    verts, cells, *_ = _quad_cells(domain, nx, ny)
    marker_fn = _cutout_markers if isinstance(domain, CutoutRectangle) else _rect_markers
    return _finish(verts, cells, domain, marker_fn, 1e-9 * max(domain.width, domain.height))


def _distorted_square(domain, h, seed):
    if isinstance(domain, CutoutRectangle):
        raise GeometryError("distorted_square cannot tile an L-shaped domain")
    # grid step h/1.8 makes the max cell diameter (diagonal stretched by the
    # node shifts) land at ~h.  The grid has round(1.8/h) cells a side, so
    # halving h need not double it: 1/9 and 1/18 give 16 and 32 cells, but
    # 1/8 and 1/16 give 14 and 29
    nx, ny = _grid_counts(domain, h / 1.8)
    verts, cells, _, remap, vid = _quad_cells(domain, nx, ny)
    s = min(domain.width / nx, domain.height / ny)
    rng = np.random.default_rng(seed)
    for i in range(1, nx):
        for j in range(1, ny):
            gid = remap[vid[i, j]]
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rad = 0.3 * s * math.sqrt(rng.uniform())
            verts[gid, 0] += rad * math.cos(theta)
            verts[gid, 1] += rad * math.sin(theta)
    return _finish(verts, cells, domain, _rect_markers, 1e-9 * max(domain.width, domain.height))


def _triangular(domain, h, seed):
    nx, ny = _grid_counts(domain, h)
    verts, quads, *_ = _quad_cells(domain, nx, ny)
    cells = []
    for q in quads:
        cells.append(np.array([q[0], q[1], q[2]]))
        cells.append(np.array([q[0], q[2], q[3]]))
    marker_fn = _cutout_markers if isinstance(domain, CutoutRectangle) else _rect_markers
    return _finish(verts, cells, domain, marker_fn, 1e-9 * max(domain.width, domain.height))


def _nonconvex(domain, h, seed):
    """Checkerboard 'dart' quads: interior nodes shifted along +-(1,1)/sqrt 2.

    The alternating shift makes every interior cell a concave dart while the
    mesh still tiles the domain exactly.
    """
    if isinstance(domain, CutoutRectangle):
        raise GeometryError("nonconvex cannot tile an L-shaped domain")
    nx, ny = _grid_counts(domain, h)
    verts, cells, _, remap, vid = _quad_cells(domain, nx, ny)
    sx, sy = domain.width / nx, domain.height / ny
    delta = 0.3
    for i in range(1, nx):
        for j in range(1, ny):
            gid = remap[vid[i, j]]
            sgn = 1.0 if (i + j) % 2 == 0 else -1.0
            verts[gid, 0] += sgn * delta * sx
            verts[gid, 1] += sgn * delta * sy
    return _finish(verts, cells, domain, _rect_markers, 1e-9 * max(domain.width, domain.height))


def _hex_seeds(domain: Rectangle, h):
    s = math.sqrt(3.0) / 2.0 * h
    dy = s * math.sqrt(3.0) / 2.0
    ncol = max(1, round(domain.width / s))
    nrow = max(1, round(domain.height / dy))
    pts = []
    for j in range(nrow):
        y = domain.y0 + (j + 0.5) * domain.height / nrow
        off = 0.25 if j % 2 == 0 else 0.75
        for i in range(ncol):
            x = domain.x0 + (i + off) * domain.width / ncol
            pts.append((x, y))
    return np.array(pts), s


def _mirror(points, domain: Rectangle, band):
    """Seeds plus wall reflections of the seeds within `band` of each wall."""
    p = points
    parts = [p]
    for sel, refl in (
        (p[:, 0] - domain.x0 < band, lambda q: np.column_stack([2 * domain.x0 - q[:, 0], q[:, 1]])),
        (domain.x1 - p[:, 0] < band, lambda q: np.column_stack([2 * domain.x1 - q[:, 0], q[:, 1]])),
        (p[:, 1] - domain.y0 < band, lambda q: np.column_stack([q[:, 0], 2 * domain.y0 - q[:, 1]])),
        (domain.y1 - p[:, 1] < band, lambda q: np.column_stack([q[:, 0], 2 * domain.y1 - q[:, 1]])),
    ):
        if np.any(sel):
            parts.append(refl(p[sel]))
    return np.vstack(parts)


def _lloyd(points, domain, iters, band):
    n = len(points)
    pts = points.copy()
    for _ in range(iters):
        vor = Voronoi(_mirror(pts, domain, band))
        # flatten all finite regions of the interior seeds and segment-sum the
        # shoelace centroid formula (orientation cancels out)
        flat, owner = [], []
        for i in range(n):
            reg = vor.regions[vor.point_region[i]]
            if -1 in reg or len(reg) < 3:
                continue
            nxt = reg[1:] + reg[:1]
            flat.extend(zip(reg, nxt))
            owner.extend([i] * len(reg))
        fe = np.asarray(flat)
        own = np.asarray(owner)
        a = vor.vertices[fe[:, 0]]
        b = vor.vertices[fe[:, 1]]
        cross = a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1]
        area2 = np.zeros(n)
        cx = np.zeros(n)
        cy = np.zeros(n)
        np.add.at(area2, own, cross)
        np.add.at(cx, own, (a[:, 0] + b[:, 0]) * cross)
        np.add.at(cy, own, (a[:, 1] + b[:, 1]) * cross)
        ok = np.abs(area2) > 1e-300
        new = pts.copy()
        new[ok, 0] = cx[ok] / (3.0 * area2[ok])
        new[ok, 1] = cy[ok] / (3.0 * area2[ok])
        pts = new
    return pts


def _clip_halfplane(poly, px, py, qx, qy):
    """Keep the part of `poly` (list of xy tuples) closer to seed p than to q."""
    nx, ny = px - qx, py - qy  # points toward p's side
    off = nx * 0.5 * (px + qx) + ny * 0.5 * (py + qy)
    out = []
    m = len(poly)
    for k in range(m):
        ax, ay = poly[k]
        bx, by = poly[(k + 1) % m]
        sa = nx * ax + ny * ay - off
        sb = nx * bx + ny * by - off
        if sa >= 0.0:
            out.append((ax, ay))
        if (sa > 0.0 > sb) or (sa < 0.0 < sb):
            t = sa / (sa - sb)
            out.append((ax + t * (bx - ax), ay + t * (by - ay)))
    return out


def _voronoi(domain, h, seed, lloyd_iters=20):
    if isinstance(domain, CutoutRectangle):
        raise GeometryError("voronoi cannot tile an L-shaped domain")
    seeds, s = _hex_seeds(domain, h)
    seeds = _lloyd(seeds, domain, lloyd_iters, band=3.0 * s)
    tree = KDTree(seeds)
    box = np.array([[domain.x0, domain.y0], [domain.x1, domain.y0],
                    [domain.x1, domain.y1], [domain.x0, domain.y1]])
    # identification key is coarse (true vertices sit ~s/3 apart); coordinates
    # keep their first-seen values so shared edges match bit for bit
    snap = 1e-6 * s
    vert_index: dict[tuple[int, int], int] = {}
    verts: list[np.ndarray] = []
    cells = []
    box_t = [tuple(b) for b in box]
    neighbor_lists = tree.query_ball_point(seeds, 2.8 * s)
    for i in range(len(seeds)):
        px, py = seeds[i]
        poly = list(box_t)
        # a bisector can only cut the cell when the seed lies within twice the
        # cell radius (~1.2*s after relaxation); 2.8*s keeps a wide margin
        for j in neighbor_lists[i]:
            if j == i:
                continue
            poly = _clip_halfplane(poly, px, py, seeds[j, 0], seeds[j, 1])
            if len(poly) < 3:
                raise GeometryError("empty voronoi cell; seeds degenerate")
        ids = []
        for q in poly:
            key = (round(q[0] / snap), round(q[1] / snap))
            vid = vert_index.get(key)
            if vid is None:
                vid = len(verts)
                vert_index[key] = vid
                verts.append(q)
            if not ids or (vid != ids[-1] and vid != ids[0]):
                ids.append(vid)
        if len(ids) < 3:
            raise GeometryError("degenerate voronoi cell after snapping")
        area2 = 0.0
        for k in range(len(poly)):
            ax, ay = poly[k]
            bx, by = poly[(k + 1) % len(poly)]
            area2 += ax * by - bx * ay
        cell = np.array(ids)
        if area2 < 0:
            cell = cell[::-1]
        cells.append(cell)
    return _finish(np.asarray(verts), cells, domain, _rect_markers, 1e-6 * s)


_GENERATORS = {
    "uniform_square": _uniform_square,
    "distorted_square": _distorted_square,
    "voronoi": _voronoi,
    "nonconvex": _nonconvex,
    "triangular": _triangular,
}


_MESH_MEMO: dict[tuple, PolyMesh] = {}


def generate_mesh(family: str, domain, h_target: float, seed: int = 42) -> PolyMesh:
    """Build one of the supported mesh families at nominal size ``h_target``.

    The measured mesh size (max cell diameter) lies within a factor 2 of
    ``h_target`` for every family.  Generators are pure functions of
    (family, domain, h_target, seed); results are memoized and must be treated
    as read-only.
    """
    if h_target <= 0:
        raise GeometryError(f"h_target must be positive, got {h_target}")
    if family not in _GENERATORS:
        raise GeometryError(f"unknown mesh family {family!r}")
    key = (family, domain, float(h_target), seed)
    if key in _MESH_MEMO:
        return _MESH_MEMO[key]
    mesh = _GENERATORS[family](domain, float(h_target), seed)
    if not (mesh.h <= 2.0 * h_target + 1e-12):
        raise GeometryError(f"generator produced h={mesh.h:g} > 2*h_target")
    _MESH_MEMO[key] = mesh
    return mesh


# ---------------------------------------------------------------------------
# JSON IO
# ---------------------------------------------------------------------------

def write_mesh(mesh: PolyMesh, path):
    """Write the mesh JSON format; floats carry 17 significant digits."""
    def f(x):
        return float(f"{x:.17g}")
    obj = {
        "vertices": [[f(x), f(y)] for x, y in mesh.vertices],
        "cells": [[int(i) for i in c] for c in mesh.cells],
        "boundary": {
            name: [[int(mesh.edges[e, 0]), int(mesh.edges[e, 1])] for e in eids]
            for name, eids in mesh.boundary_markers.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def read_mesh(path) -> PolyMesh:
    """Read the mesh JSON format, validating indices, orientation and markers."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MeshFormatError(f"not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    for key in ("vertices", "cells", "boundary"):
        if key not in obj:
            raise MeshFormatError(f"missing field {key!r}")
    verts = np.asarray(obj["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2:
        raise MeshFormatError("field 'vertices' must be a list of [x, y] pairs")
    cells = []
    for ci, loop in enumerate(obj["cells"]):
        cell = np.asarray(loop, dtype=int)
        if len(cell) < 3:
            raise MeshFormatError(f"cell {ci}: fewer than 3 vertices")
        if cell.min() < 0 or cell.max() >= len(verts):
            raise MeshFormatError(f"cell {ci}: bad vertex index {int(cell.max())}")
        if polygon_signed_area(verts[cell]) <= 0:
            raise MeshFormatError(f"cell {ci}: not counter-clockwise")
        cells.append(cell)
    mesh = PolyMesh(verts, cells, {})
    pair_to_eid = {(min(a, b), max(a, b)): eid for eid, (a, b) in enumerate(mesh.edges)}
    markers = {}
    for name, pairs in obj["boundary"].items():
        eids = []
        for a, b in pairs:
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key not in pair_to_eid:
                raise MeshFormatError(f"boundary marker {name!r}: edge {key} not in mesh")
            eids.append(pair_to_eid[key])
        markers[name] = np.array(eids, dtype=int)
    mesh.boundary_markers = markers
    mesh.validate()
    return mesh
