"""Polygonal meshes: data structures, generators and JSON IO.

Conventions: cells are counter-clockwise vertex-index loops, every cell is a
simple polygon with positive area, and each boundary edge carries exactly one
named marker.  Meshes are treated as immutable once built.  The edge topology
and the generators work on the concatenated cell loops; the cell geometry is
built once per mesh, one vertex-count group at a time (``CellGroup``).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np


class GeometryError(ValueError):
    """Invalid mesh, cell or generator input."""


class MeshFormatError(GeometryError):
    """Malformed mesh file; message names the offending field or cell."""


# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Rectangle:
    """The box [x0, x1] x [y0, y1]; with ``notch = (notch_x, notch_y)`` it
    loses the block [notch_x, x1] x [y0, notch_y] and is an L shape."""
    x0: float = 0.0
    y0: float = 0.0
    x1: float = 1.0
    y1: float = 1.0
    notch: tuple[float, float] | None = None

    @property
    def area(self) -> float:
        area = (self.x1 - self.x0) * (self.y1 - self.y0)
        if self.notch is not None:
            notch_x, notch_y = self.notch
            area -= (self.x1 - notch_x) * (notch_y - self.y0)
        return area

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0


UNIT_SQUARE = Rectangle(0.0, 0.0, 1.0, 1.0)
L_SHAPE = Rectangle(0.0, 0.0, 4.0, 2.0, notch=(2.0, 1.0))   # the channel with a step

MESH_FAMILIES = ("uniform_square", "distorted_square", "voronoi", "nonconvex",
                 "triangular")


# ---------------------------------------------------------------------------
# elementary polygon helpers
# ---------------------------------------------------------------------------

def _loop_next(lens: np.ndarray) -> np.ndarray:
    """Position of the next vertex of every vertex in loops of lengths
    ``lens`` (each at least 1), stored one after another."""
    end = np.cumsum(lens)
    nxt = np.arange(1, end[-1] + 1)
    nxt[end - 1] = end - lens
    return nxt


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct ``keys`` in order of first appearance: returns the
    number of every key and the position where each number first appears."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


def _orient(o, u, v):
    """Twice the signed area of the triangles (o, u, v), from (..., 2) corner
    arrays broadcast against each other."""
    return ((u[..., 0] - o[..., 0]) * (v[..., 1] - o[..., 1])
            - (u[..., 1] - o[..., 1]) * (v[..., 0] - o[..., 0]))


# ---------------------------------------------------------------------------
# per-element geometry
# ---------------------------------------------------------------------------

@dataclass
class CellGroup:
    """Geometry of cells with a common vertex count, stacked along axis 0.

    Every array has the cells on its first axis, in the order of
    ``cell_ids``; a single cell is the group of one.  Construction checks
    every cell for a positive area, edges that are not degenerate, an ear at
    every step of ear clipping and sub-triangles that are not degenerate,
    and raises ``GeometryError`` for the lowest failing id, with the message
    of the first check that this cell fails.
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
        if nv < 3:
            raise GeometryError(f"cell {ids[0]}: fewer than 3 vertices")
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

        # ear clipping, one step for all cells at once: each cell cuts the first
        # ear of its current loop, from (loop[-1], loop[0], loop[1]) on; a
        # corner is an ear if it turns left by more than the scaled tolerance
        # and no other remaining vertex lies in it (to 1e-14, corners excluded)
        cells = np.arange(m)
        rows = cells[:, None]
        loop = np.broadcast_to(np.arange(nv), (m, nv))
        tol = 1e-14 * self.diameter[:, None] ** 2
        ears, no_ear = [], np.zeros(m, dtype=bool)
        for r in range(nv, 3, -1):
            corners = [np.roll(loop, s, axis=1) for s in (1, 0, -1)]
            a, b, c = (pts[rows, i][:, :, None] for i in corners)   # (m, r, 1, 2)
            q = pts[rows, loop][:, None]                            # (m, 1, r, 2)
            inside = ((_orient(a, b, q) >= -1e-14) & (_orient(b, c, q) >= -1e-14)
                      & (_orient(c, a, q) >= -1e-14))
            k = np.arange(r)
            other = (k - k[:, None] + 1) % r > 2                    # not a corner of ear k
            ear = (_orient(a, b, c)[..., 0] > tol) & ~np.any(inside & other, axis=2)
            first = np.argmax(ear, axis=1)
            no_ear |= ~ear[cells, first]
            ears.append(np.stack([i[cells, first] for i in corners], axis=1))
            loop = loop[k != first[:, None]].reshape(m, r - 1)
        fail(no_ear, lambda j: f"cell {ids[j]}: ear clipping failed; polygon may be non-simple")
        self.triangles = tris = np.stack(ears + [loop], axis=1)
        sub = 0.5 * _orient(*(pts[rows, tris[..., i]] for i in range(3)))
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
    edges: np.ndarray = field(init=False)
    edge_cells: np.ndarray = field(init=False)       # (ne, 2), -1 for boundary
    cell_edges: list[np.ndarray] = field(init=False)  # per cell, edge ids in loop order

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        bad = ~np.isfinite(self.vertices).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            x, y = self.vertices[i]
            raise GeometryError(f"vertex {i}: non-finite coordinates ({x:g}, {y:g})")
        self.cells = [np.asarray(c, dtype=int) for c in self.cells]
        self._build_topology()

    def _build_topology(self):
        """Edges numbered by first appearance in the cell loops (cells in mesh
        order, each from its first vertex), keyed by (min, max) vertex."""
        nv = len(self.vertices)
        lens = np.array([len(c) for c in self.cells])
        loops = np.concatenate(self.cells)
        owner = np.repeat(np.arange(len(lens)), lens)
        bad_index = np.zeros(len(lens), dtype=bool)
        bad_index[owner[(loops < 0) | (loops >= nv)]] = True
        srt = np.lexsort((loops, owner))      # each cell's vertex ids, sorted
        dup = (np.diff(loops[srt]) == 0) & (np.diff(owner[srt]) == 0)
        repeated = np.zeros(len(lens), dtype=bool)
        repeated[owner[srt][1:][dup]] = True
        failed = (lens < 3) | bad_index | repeated
        if failed.any():   # the first failing cell, with its first failing check
            ci = int(np.argmax(failed))
            if lens[ci] < 3:
                raise GeometryError(f"cell {ci}: fewer than 3 vertices")
            if bad_index[ci]:
                raise MeshFormatError(f"cell {ci}: bad vertex index {int(self.cells[ci].max())}")
            raise GeometryError(f"cell {ci}: repeated vertex index")
        nxt = loops[_loop_next(lens)]
        lo, hi = np.minimum(loops, nxt), np.maximum(loops, nxt)
        eids, first = _first_appearance(lo * nv + hi)
        counts = np.bincount(eids)
        if np.any(counts > 2):
            eid = int(np.argmax(counts > 2))
            raise GeometryError(f"edge {eid} shared by {counts[eid]} cells")
        self.edges = np.column_stack([lo, hi])[first]
        self.edge_cells = np.full((len(first), 2), -1, dtype=int)
        self.edge_cells[:, 0] = owner[first]
        second = np.ones(len(loops), dtype=bool)
        second[first] = False
        self.edge_cells[eids[second], 1] = owner[second]
        self.cell_edges = np.split(eids, np.cumsum(lens)[:-1])
        for name, ids in self.boundary_markers.items():
            self.boundary_markers[name] = np.asarray(ids, dtype=int)

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

    @functools.cached_property
    def cell_groups(self) -> list[CellGroup]:
        """Geometry of every cell, grouped by vertex count (ascending); each
        group lists its cells in mesh order.  Built on first use and kept."""
        lens = np.array([len(c) for c in self.cells])
        loops = np.concatenate(self.cells)
        start = np.cumsum(lens) - lens
        groups = []
        for nv in np.unique(lens):
            ids = np.flatnonzero(lens == nv)
            groups.append(CellGroup(ids, self.vertices[loops[start[ids, None] + np.arange(nv)]]))
        return groups

    @property
    def h(self) -> float:
        """Mesh size: the largest cell diameter."""
        return max(float(g.diameter.max()) for g in self.cell_groups)

    def validate(self):
        """Check the mesh invariants; raises GeometryError on violation.

        Building the cell groups checks every cell (positive area, edges that
        are not degenerate, a valid sub-triangulation)."""
        self.cell_groups   # building the groups checks every cell
        marked = np.concatenate([np.empty(0, dtype=int), *self.boundary_markers.values()])
        if len(np.unique(marked)) != len(marked):
            raise GeometryError("a boundary edge carries more than one marker")
        if not np.array_equal(np.unique(marked), self.boundary_edge_ids()):
            raise GeometryError("boundary markers do not cover the boundary edges")


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _grid_counts(domain, h):
    """Cells per side of a grid of step about ``h``, each count rounded half
    up (``round`` would take 2.5 to 2 and stretch the cells past 2h)."""
    nx = max(1, math.floor(domain.width / h + 0.5))
    ny = max(1, math.floor(domain.height / h + 0.5))
    return nx, ny


def _markers(mesh: PolyMesh, domain: Rectangle, tol: float):
    """Boundary edge ids by the wall their midpoint lies on: left, right, top,
    bottom, then on a notched domain the notch walls notch_v and notch_h."""
    v, notch = mesh.vertices, domain.notch
    names = ("left", "right", "bottom", "top", "notch_v", "notch_h")
    markers: dict[str, list[int]] = {n: [] for n in names}
    for eid in mesh.boundary_edge_ids():
        a, b = v[mesh.edges[eid]]
        mid = 0.5 * (a + b)
        if abs(mid[0] - domain.x0) < tol:
            markers["left"].append(eid)
        elif abs(mid[0] - domain.x1) < tol:
            markers["right"].append(eid)
        elif abs(mid[1] - domain.y1) < tol:
            markers["top"].append(eid)
        elif abs(mid[1] - domain.y0) < tol:
            markers["bottom"].append(eid)
        elif notch is not None and abs(mid[0] - notch[0]) < tol and mid[1] < notch[1] + tol:
            markers["notch_v"].append(eid)
        elif notch is not None and abs(mid[1] - notch[1]) < tol and mid[0] > notch[0] - tol:
            markers["notch_h"].append(eid)
        else:
            raise GeometryError("boundary edge not on the domain boundary")
    return {k: np.array(ids, dtype=int) for k, ids in markers.items() if ids}


def _quad_cells(domain, nx, ny):
    """Vertices, CCW quads (i-major) and grid-node vertex ids of an nx x ny
    grid; on a notched domain the quads in the notch and their unused
    vertices are dropped, and the ids of dropped nodes read -1."""
    xs = np.linspace(domain.x0, domain.x1, nx + 1)
    ys = np.linspace(domain.y0, domain.y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    cells = np.stack([vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:], vid[:-1, 1:]], axis=-1)
    if domain.notch is not None:
        xc, yc = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
        cells = cells[~np.logical_and.outer(xc > domain.notch[0], yc < domain.notch[1])]
    cells = cells.reshape(-1, 4)
    used = np.unique(cells)
    remap = np.full(len(verts), -1)
    remap[used] = np.arange(len(used))
    return verts[used], remap[cells], remap[vid]


def _finish(verts, cells, domain, tol):
    """The validated mesh of a generator, with its boundary markers; its
    cells must tile ``domain``."""
    mesh = PolyMesh(verts, cells, {})
    mesh.boundary_markers = _markers(mesh, domain, tol)
    mesh.validate()
    rel = abs(sum(g.area.sum() for g in mesh.cell_groups) - domain.area) / domain.area
    if rel > 1e-10:
        raise GeometryError(f"cells do not tile the domain (rel gap {rel:.2e})")
    return mesh


def _uniform_square(domain, h, seed):
    nx, ny = _grid_counts(domain, h)
    verts, cells, _ = _quad_cells(domain, nx, ny)
    return _finish(verts, cells, domain, 1e-9 * max(domain.width, domain.height))


def _distorted_square(domain, h, seed):
    # grid step h/1.8 makes the max cell diameter (diagonal stretched by the
    # node shifts) land at ~h.  The grid has round(1.8/h) cells a side, so
    # halving h need not double it: 1/9 and 1/18 give 16 and 32 cells, but
    # 1/8 and 1/16 give 14 and 29
    nx, ny = _grid_counts(domain, h / 1.8)
    verts, cells, vid = _quad_cells(domain, nx, ny)
    s = min(domain.width / nx, domain.height / ny)
    rng = np.random.default_rng(seed)
    for i in range(1, nx):
        for j in range(1, ny):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            rad = 0.3 * s * math.sqrt(rng.uniform())
            verts[vid[i, j], 0] += rad * math.cos(theta)
            verts[vid[i, j], 1] += rad * math.sin(theta)
    return _finish(verts, cells, domain, 1e-9 * max(domain.width, domain.height))


def _triangular(domain, h, seed):
    nx, ny = _grid_counts(domain, h)
    verts, quads, _ = _quad_cells(domain, nx, ny)
    cells = quads[:, [0, 1, 2, 0, 2, 3]].reshape(-1, 3)    # two triangles per quad
    return _finish(verts, cells, domain, 1e-9 * max(domain.width, domain.height))


def _nonconvex(domain, h, seed):
    """Checkerboard 'dart' quads: interior nodes shifted along +-(1,1)/sqrt 2.

    The alternating shift makes every interior cell a concave dart while the
    mesh still tiles the domain exactly.
    """
    nx, ny = _grid_counts(domain, h)
    verts, cells, vid = _quad_cells(domain, nx, ny)
    sx, sy = domain.width / nx, domain.height / ny
    delta = 0.3
    i, j = np.meshgrid(np.arange(1, nx), np.arange(1, ny), indexing="ij")
    sgn = np.where((i + j) % 2 == 0, 1.0, -1.0)
    verts[vid[1:-1, 1:-1], 0] += sgn * delta * sx
    verts[vid[1:-1, 1:-1], 1] += sgn * delta * sy
    return _finish(verts, cells, domain, 1e-9 * max(domain.width, domain.height))


def _hex_seeds(domain: Rectangle, h):
    s = math.sqrt(3.0) / 2.0 * h
    dy = s * math.sqrt(3.0) / 2.0
    ncol = max(1, round(domain.width / s))
    nrow = max(1, round(domain.height / dy))
    j, i = np.divmod(np.arange(nrow * ncol), ncol)      # row by row
    off = np.where(j % 2 == 0, 0.25, 0.75)
    x = domain.x0 + (i + off) * domain.width / ncol
    y = domain.y0 + (j + 0.5) * domain.height / nrow
    return np.column_stack([x, y]), s


_WALL_AXIS = np.array([0, 0, 1, 1])   # left, right, bottom, top


def _walls(domain: Rectangle):
    """The coordinates of the left, right, bottom and top walls."""
    return np.array([domain.x0, domain.x1, domain.y0, domain.y1])


def _near_walls(points, domain: Rectangle, band):
    """(4, n) mask of the seeds within ``band`` of each wall: left, right,
    bottom, top."""
    return np.abs(points[:, _WALL_AXIS].T - _walls(domain)[:, None]) < band


def _images(points, domain: Rectangle, near):
    """Seeds plus the wall reflections that the ``_near_walls`` mask ``near``
    marks, wall by wall: left, right, bottom, top; with the wall each point
    is reflected in (-1 for the seed itself, then 0-3 in that order)."""
    walls = _walls(domain)
    wall, seed = np.nonzero(near)
    out = np.concatenate([points, points[seed]])
    axis = _WALL_AXIS[wall]
    out[len(points) + np.arange(len(seed)), axis] = 2 * walls[wall] - points[seed, axis]
    return out, np.concatenate([np.full(len(points), -1), wall])


def _check_regions(bad):
    """Raise for the first seed whose region is flagged in ``bad``."""
    if bad.any():
        raise GeometryError(f"voronoi region of seed {int(np.argmax(bad))} is unbounded "
                            "or has fewer than 3 vertices")


_LLOYD_ITERS = 20
_DELAUNAY_TOL = 1e-12   # relative slack of the incircle tests


def _hilbert_order(points):
    """Indices of ``points`` along a Hilbert curve through their bounding
    square, on a grid of 2**16 cells a side; stable, so points in one cell
    keep their order."""
    bits = 16
    lo = points.min(axis=0)
    side = (1 << bits) - 1
    span = float(np.max(points.max(axis=0) - lo)) or 1.0
    x, y = np.floor((points - lo) * (side / span)).astype(np.int64).T
    key = np.zeros(len(points), dtype=np.int64)
    s = 1 << (bits - 1)
    while s:
        rx, ry = (x & s) > 0, (y & s) > 0
        key += s * s * ((3 * rx) ^ ry)
        flip = rx & ~ry
        x, y = np.where(flip, side - x, x), np.where(flip, side - y, y)
        x, y = np.where(ry, x, y), np.where(ry, y, x)
        s >>= 1
    return np.argsort(key, kind="stable")


def _ghost_takes(ax, ay, bx, by):
    """Whether the ghost of the hull edge (a, b), whose outside is on its
    left, takes a point, given a and b relative to it: the point lies beyond
    the edge, or on it between its ends (to ``_DELAUNAY_TOL`` of the squared
    distances)."""
    left = ax * by - ay * bx
    slack = _DELAUNAY_TOL * (ax * ax + ay * ay + bx * bx + by * by)
    return left > slack or (left >= -slack and ax * bx + ay * by < 0.0)


def _circle_takes(ax, ay, bx, by, cx, cy):
    """Whether the counter-clockwise triangle (a, b, c) takes a point, given
    its corners relative to it: the point lies inside the circumcircle by
    more than ``_DELAUNAY_TOL`` times the fourth power of the size (the
    squared distances, summed and squared), as ``_Fans.centres`` measures."""
    la, lb, lc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    return (la * (bx * cy - cx * by) + lb * (cx * ay - ax * cy) + lc * (ax * by - bx * ay)
            > _DELAUNAY_TOL * (la + lb + lc) ** 2)


def _delaunay(points):
    """Delaunay triangulation of the (n, 2) ``points``: ``simplices`` (m, 3),
    each counter-clockwise, and ``neighbors`` (m, 3), the triangle opposite
    each corner, -1 on the hull.

    Bowyer-Watson insertion (Bowyer 1981, Watson 1981) along a Hilbert curve
    (``_hilbert_order``), into the triangle of the first point, the next
    point apart from it and the first point off their line.  Every hull
    edge carries a ghost triangle with a corner at infinity, so the
    triangles cover the convex hull.  A point is found by a walk from the
    last triangle made; the triangles whose circumcircle holds it, by more
    than the slack (``_circle_takes``), make a cavity, and the fan of the
    point over the cavity's rim replaces them.  A ghost takes the points beyond
    its hull edge and those on it (``_ghost_takes``); a walk that leaves the
    hull next to a point on the line of a hull edge, past its end, goes on
    along the hull.  A point that coincides with one inserted already (the
    earlier in the given order) is left out: the triangle it lies in does
    not take it.
    """
    order = _hilbert_order(points)
    d = points[order] - points[order[0]]
    apart = np.flatnonzero(np.any(d != 0.0, axis=1))[:1]
    off = np.flatnonzero(_orient(d[0], d[apart], d)) if len(apart) else apart
    if not len(off):
        raise GeometryError("cannot triangulate points on one line")
    a, b, c = order[[0, apart[0], off[0]]].tolist()
    if _orient(points[a], points[b], points[c]) < 0:
        b, c = c, b
    # triangle 0 and the ghosts (c, b), (a, c), (b, a) of its edges; a ghost
    # keeps its corner at infinity (-1) last, and has the outside on its left
    tv = [a, b, c, c, b, -1, a, c, -1, b, a, -1]
    tn = [1, 2, 3, 3, 2, 0, 1, 3, 0, 2, 1, 0]
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    last, first = 0, (a, b, c)
    for i in order.tolist():
        if i in first:
            continue
        px, py = xs[i], ys[i]
        t, came = last, -1
        while True:   # to the triangle holding the point, or a ghost that takes it
            o = 3 * t
            v0, v1, v2 = tv[o], tv[o + 1], tv[o + 2]
            ax, ay, bx, by = xs[v0] - px, ys[v0] - py, xs[v1] - px, ys[v1] - py
            if v2 < 0:
                if _ghost_takes(ax, ay, bx, by):
                    break
                # on the line of the edge, past one end: on to the ghost there,
                # unless that turns back (the point is at the corner between)
                step = tn[o] if bx * (ax - bx) + by * (ay - by) > 0.0 else tn[o + 1]
                if step == came:
                    t = -1
                    break
                t, came = step, t
                continue
            cx, cy = xs[v2] - px, ys[v2] - py
            if bx * cy - by * cx < 0.0:
                t = tn[o]
            elif cx * ay - cy * ax < 0.0:
                t = tn[o + 1]
            elif ax * by - ay * bx < 0.0:
                t = tn[o + 2]
            else:
                if not _circle_takes(ax, ay, bx, by, cx, cy):
                    t = -1
                break
        if t < 0:   # the point coincides with one inserted
            continue
        cavity, rim, todo = {t}, [], [t]
        while todo:
            s = todo.pop()
            o = 3 * s
            for k in range(3):
                u = tn[o + k]
                if u in cavity:
                    continue
                q = 3 * u
                v0, v1 = tv[q], tv[q + 1]
                ax, ay, bx, by = xs[v0] - px, ys[v0] - py, xs[v1] - px, ys[v1] - py
                v2 = tv[q + 2]
                if (_ghost_takes(ax, ay, bx, by) if v2 < 0 else
                        _circle_takes(ax, ay, bx, by, xs[v2] - px, ys[v2] - py)):
                    cavity.add(u)
                    todo.append(u)
                else:   # with the place in u that points back to s
                    rim.append((tv[o + (k + 1) % 3], tv[o + (k + 2) % 3], u,
                                q + tn[q:q + 3].index(s)))
        # the fan: one triangle (v, w, i) per rim edge (v, w), in the slots
        # of the cavity and then new ones; ghosts turned to keep -1 last
        new = len(rim) - len(cavity)
        slots = list(cavity) + list(range(len(tv) // 3, len(tv) // 3 + new))
        tv.extend([0] * (3 * new))
        tn.extend([0] * (3 * new))
        starts, ends = {}, {}
        for (v, w, _, back), t in zip(rim, slots):
            starts[v], ends[w], tn[back] = t, t, t
        for (v, w, out, _), t in zip(rim, slots):
            o, after, before = 3 * t, starts[w], ends[v]
            if v < 0:
                tv[o:o + 3], tn[o:o + 3] = (w, i, -1), (before, out, after)
            elif w < 0:
                tv[o:o + 3], tn[o:o + 3] = (i, v, -1), (out, after, before)
            else:
                tv[o:o + 3], tn[o:o + 3] = (v, w, i), (after, before, out)
                last = t
    tv, tn = np.array(tv).reshape(-1, 3), np.array(tn).reshape(-1, 3)
    real = tv[:, 2] >= 0
    number = np.where(real, np.cumsum(real) - 1, -1)
    return tv[real], number[tn[real]]


class _Fans:
    """Delaunay triangulation (``_delaunay``) of mirrored seeds, read around
    the seeds.

    The first ``n`` points are the seeds; the region guard names a seed
    whose fan meets the hull, or that has no fan because ``_delaunay`` left
    it out as a repeat of an earlier point.  ``seed``, ``b``, ``c`` list the
    corners of the triangles at the seeds, each the counter-clockwise
    triangle (seed, b, c), with the corners of a seed in counter-clockwise
    order around it, and ``tri`` the index of that triangle; ``next`` is the
    position of the following corner of the same seed.  ``quads`` holds, for
    every edge that can meet the rectangle (an end is a seed, or the ends
    are reflected in different walls), its triangles (c, e1, e2) and
    (e2, e1, d) as the rows c, e1, e2, d.
    """

    def __init__(self, mirrored, n, wall):
        simp, nbr = _delaunay(mirrored)
        t, k = np.nonzero(nbr < 0)                   # hull edges end in open fans
        ends = np.concatenate([simp[t, (k + 1) % 3], simp[t, (k + 2) % 3]])
        bad = np.ones(n, dtype=bool)
        bad[simp[simp < n]] = False                  # a repeat left out has no fan
        bad[ends[ends < n]] = True
        _check_regions(bad)
        t, k = np.nonzero(simp < n)
        seed, b, c = simp[t, k], simp[t, (k + 1) % 3], simp[t, (k + 2) % 3]
        mid = 0.5 * (mirrored[b] + mirrored[c]) - mirrored[seed]   # inside the corner
        order = np.lexsort((np.arctan2(mid[:, 1], mid[:, 0]), seed))
        self.seed, self.b, self.c, self.tri = seed[order], b[order], c[order], t[order]
        self.next = _loop_next(np.bincount(seed, minlength=n))
        t, k = np.nonzero(nbr > np.arange(len(simp))[:, None])   # each inner edge once
        u = nbr[t, k]
        e1, e2 = simp[t, (k + 1) % 3], simp[t, (k + 2) % 3]
        near = (wall[e1] != wall[e2]) | (wall[e1] < 0)
        t, k, u, e1, e2 = t[near], k[near], u[near], e1[near], e2[near]
        d = simp[u, np.argmax(nbr[u] == t[:, None], axis=1)]
        self.quads = np.stack([simp[t, k], e1, e2, d])

    def centres(self, mirrored, domain, check=True):
        """Region vertices of every corner, relative to its seed, as x and y
        arrays; None when a check finds the triangulation stale (``_lloyd``)."""
        x, y = mirrored.T
        if check:
            c, e1, e2, d = self.quads
            ax, ay, bx, by, cx, cy = (x[c] - x[d], y[c] - y[d], x[e1] - x[d], y[e1] - y[d],
                                      x[e2] - x[d], y[e2] - y[d])
            la, lb, lc = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
            bc, ca, ab = bx * cy - cx * by, cx * ay - ax * cy, ax * by - bx * ay
            if not (np.all(bc + ca + ab > 0) and np.all(bc < 0)     # both triangles turn left
                    and np.all(la * bc + lb * ca + lc * ab <= _DELAUNAY_TOL * (la + lb + lc) ** 2)):
                return None
        px, py = x[self.seed], y[self.seed]
        bx, by, cx, cy = x[self.b] - px, y[self.b] - py, x[self.c] - px, y[self.c] - py
        lb, lc = bx * bx + by * by, cx * cx + cy * cy
        det = 2.0 * (bx * cy - by * cx)
        ux, uy = (cy * lb - by * lc) / det, (bx * lc - cx * lb) / det
        if check:
            tol = _DELAUNAY_TOL * max(domain.width, domain.height)
            vx, vy = ux + px, uy + py
            if not np.all((vx >= domain.x0 - tol) & (vx <= domain.x1 + tol)
                          & (vy >= domain.y0 - tol) & (vy <= domain.y1 + tol)):
                return None
        return ux, uy


def _lloyd(points, domain, band):
    """Move each seed to the centroid of its region, _LLOYD_ITERS times;
    returns the seeds, the ``_Fans`` of their mirrored set and the region
    vertex of every corner of the fans, relative to its seed.

    The regions come from one Delaunay triangulation (``_delaunay``) of the
    seeds and their reflections in the walls they lie within ``band`` of,
    in which every image moves with its seed: the region of a seed is the
    polygon of the circumcentres of the triangles around it.  An image once
    triangulated is kept, even when its seed has left the band: an image is
    never closer to a point of the rectangle than the seed it reflects, so
    an extra image changes no region.  Before each step, and once more for
    the regions of the seeds returned, the triangulation is made again, of
    the kept images and the step's, when it is stale: when a seed has come
    within ``band`` of a wall whose image of it is not kept, when a triangle
    on an edge that can meet the rectangle has turned over, when such an
    edge fails the incircle test by more than ``_DELAUNAY_TOL`` times the
    fourth power of its size (the squared distances from the apex, summed
    and squared), or when a region vertex has left the rectangle by more
    than ``_DELAUNAY_TOL`` of its size.

    These edges are enough.  A region is right when no point lies inside the
    circumcircle of a triangle of its fan.  The centre lies in the
    rectangle, where an image is never closer than the seed it reflects, so
    only a seed could lie inside.  On the straight walk from the fan's seed
    to that seed, which stays in the rectangle and so crosses only checked
    edges, the power of the seed with respect to the circumcircles of the
    triangles passed does not grow: it would start negative and end at zero.
    """
    pts, fans, kept = points, None, np.zeros((4, len(points)), dtype=bool)
    for step in range(_LLOYD_ITERS + 1):
        near = _near_walls(pts, domain, band)
        cen = None
        if fans is not None and not np.any(near & ~kept):
            mirrored = _images(pts, domain, kept)[0]
            cen = fans.centres(mirrored, domain)
        if cen is None:
            kept |= near
            mirrored, wall = _images(pts, domain, kept)
            fans = _Fans(mirrored, len(pts), wall)
            cen = fans.centres(mirrored, domain, check=False)
        if step == _LLOYD_ITERS:
            return pts, fans, cen
        # shoelace centroid of every fan polygon, about its seed
        ux, uy = cen
        vx, vy = ux[fans.next], uy[fans.next]
        cross = ux * vy - vx * uy
        area2, cx, cy = (np.bincount(fans.seed, w, minlength=len(pts))
                         for w in (cross, (ux + vx) * cross, (uy + vy) * cross))
        pts = pts + np.column_stack([cx, cy]) / (3.0 * area2[:, None])


def _voronoi(domain, h, seed):
    """Lloyd-smoothed Voronoi cells of hexagonal seeds (``seed`` is not
    read), read from the fans of the last Lloyd triangulation.

    A vertex is the circumcentre of a triangle of the fans, taken from one
    corner, so that the cells around it share its coordinates; the two
    triangles of a cocircular quad (a seed, a neighbour and their
    reflections in a wall) follow each other in a fan within ``tol`` and
    make one vertex.  The fans turn counter-clockwise, and every loop starts
    at its lowest vertex (by y, then x; vertices within ``tol`` of a wall
    are put on it first)."""
    seeds, s = _hex_seeds(domain, h)
    pts, fans, (ux, uy) = _lloyd(seeds, domain, 3.0 * s)
    tol = 1e-6 * s
    _, first, corner = np.unique(fans.tri, return_index=True, return_inverse=True)
    verts = pts[fans.seed[first]] + np.column_stack([ux[first], uy[first]])
    nxt = corner[fans.next]
    close = np.hypot(*(verts[corner] - verts[nxt]).T) < tol
    # each set of merged triangles takes its least index; a set is a pair,
    # or a chain where more than four points share a circle
    label, a, b = np.arange(len(first)), corner[close], nxt[close]
    while np.any(label[a] != label[b]):
        np.minimum.at(label, a, label[b])
        np.minimum.at(label, b, label[a])
    keep = ~np.isin(np.arange(len(corner)), fans.next[close])
    loops, own = label[corner[keep]], fans.seed[keep]
    lens = np.bincount(own, minlength=len(pts))
    _check_regions(lens < 3)
    lo = np.array([domain.x0, domain.y0])
    hi = np.array([domain.x1, domain.y1])
    verts = np.where(np.abs(verts - lo) < tol, lo, np.where(np.abs(verts - hi) < tol, hi, verts))
    start = np.cumsum(lens) - lens
    at = np.arange(len(loops)) - start[own]                    # place in the loop
    lowest = np.lexsort((verts[loops, 0], verts[loops, 1], own))[start] - start
    loops = loops[start[own] + (at + lowest[own]) % lens[own]]
    # number the vertices by first appearance in the loops
    ids, first = _first_appearance(loops)
    return _finish(verts[loops[first]], np.split(ids, np.cumsum(lens)[:-1]), domain, tol)


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
    (family, domain, h_target, seed); only ``distorted_square`` reads
    ``seed`` (its random node shifts), and ``uniform_square``, ``voronoi``,
    ``nonconvex`` and ``triangular`` build the same mesh for every seed.
    Results are memoized and read-only: every array of the mesh and of its
    cell groups refuses an in-place write.
    """
    if not 0 < h_target < np.inf:
        raise GeometryError(f"h_target must be positive and finite, got {h_target}")
    if family not in _GENERATORS:
        raise GeometryError(f"unknown mesh family {family!r}")
    if domain.notch is not None and family not in ("uniform_square", "triangular"):
        raise GeometryError(f"{family} cannot tile an L-shaped domain")
    key = (family, domain, float(h_target), seed)
    if key in _MESH_MEMO:
        return _MESH_MEMO[key]
    mesh = _GENERATORS[family](domain, float(h_target), seed)
    if not (mesh.h <= 2.0 * h_target + 1e-12):
        raise GeometryError(f"generator produced h={mesh.h:g} > 2*h_target")
    groups = (a for g in mesh.cell_groups for a in vars(g).values())
    for a in (mesh.vertices, mesh.edges, mesh.edge_cells, *mesh.cells, *mesh.cell_edges,
              *mesh.boundary_markers.values(), *groups):
        a.flags.writeable = False
    _MESH_MEMO[key] = mesh
    return mesh


# ---------------------------------------------------------------------------
# JSON IO
# ---------------------------------------------------------------------------

def write_mesh(mesh: PolyMesh, path):
    """Write the mesh JSON format; each float is written in the shortest form
    that reads back to the same double."""
    obj = {
        "vertices": mesh.vertices.tolist(),
        "cells": [c.tolist() for c in mesh.cells],
        "boundary": {name: mesh.edges[eids].tolist()
                     for name, eids in mesh.boundary_markers.items()},
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
    try:   # a fault of the mesh is a fault of the file
        mesh = PolyMesh(verts, obj["cells"], {})
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
    except MeshFormatError:
        raise
    except GeometryError as exc:
        raise MeshFormatError(str(exc)) from exc
    return mesh
