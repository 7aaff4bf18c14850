"""Rigid transforms, triangle meshes, and surface proximity queries.

Conventions used throughout the package:

    Rotations are unit quaternions stored as (w, x, y, z).  Translations are
    3-vectors in meters.  A pose maps points from its child frame into its
    parent frame: p_parent = R @ p_child + t.  Composition renormalizes the
    quaternion so long chains cannot drift off the unit sphere.

    Meshes are triangle index triples over a vertex array with
    counterclockwise winding and outward normals.  Inside/outside for a
    watertight mesh is decided by the angle-weighted pseudonormal of the
    nearest surface feature (Baerentzen & Aanaes, IEEE TVCG 2005), so
    queries near edges and vertices get a consistent sign.

    `surface_query` finds the nearest triangle in one bound pass and, for
    almost every point, one walk.  Per-triangle bounding boxes, cached on the
    mesh, bound every point-triangle distance from below.  A mesh of more
    than `_FLAT_TRIANGLES` triangles also caches a leaf level: its
    triangles in Morton (Z) order of their centroids, cut into leaves of
    `_LEAF` under one box each, the leaf level of a linear BVH (Karras, HPG
    2012).  There a point's candidates are the triangles of its
    `_NEAR_LEAVES` nearest leaves, so the pass scales with leaves rather
    than triangles; on a smaller mesh every triangle is a candidate.  Each
    point walks its `_FIRST_WALK` lowest-bound candidates with the
    closest-point region test of Ericson, Real-Time Collision Detection
    (2004), 5.1.5, and the best of them, plus a rounding slack, caps the
    answer.  A point whose next lowest bound, of a candidate or of a leaf,
    is above that cap is done: no triangle it skipped can win or tie.  Only
    the other points are culled against the cap, leaves first, and walked
    again.  The answer is therefore bit-identical to walking every triangle.
    A vertex or edge normal is built only for a point that lands on that
    vertex or edge, with the same bits as a per-triangle loop.
    `sq_distance_floor` bounds the squared distances from below by the
    mesh's bounding box alone, so a caller can rule points out unasked.

    A run keeps one mesh: the object-frame mesh `load_obj` returns.  Every
    surface query is asked in the object frame, so a caller holding points
    in another frame maps them there first (`transform_points` with the
    inverse of the object's pose in that frame), and the per-mesh caches
    above are built once per run.  `transform_mesh` moves a copy of the
    surface into another frame for export only.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import MAX_LENGTH, EmptyMesh, FixtureMissing, SchemaError

_DEGENERATE_AREA = 1e-14


# ---------------------------------------------------------------------------
# quaternion helpers (w, x, y, z)
# ---------------------------------------------------------------------------

def _quat_mul(a, b):
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def _quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis of (..., 3) arrays, bit for bit: the same
    component products without its per-call axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _quat_rotate(q, v):
    """q applied to a vector (3,) or to each row of (n, 3)."""
    # v + 2 w (u x v) + 2 u x (u x v), u = vector part
    u = q[1:]
    t = 2.0 * _cross(u, v)
    return v + q[0] * t + _cross(u, t)


def _quat_from_rotvec(rv):
    rv = np.asarray(rv, dtype=float)
    angle = math.sqrt(float(rv @ rv))
    if angle < 1e-12:
        # first-order expansion keeps the map smooth through zero
        q = np.array([1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]])
        return q / math.sqrt(float(q @ q))
    axis = rv / angle
    half = 0.5 * angle
    s = math.sin(half) / math.sqrt(float(axis @ axis))
    return np.array([math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


# ---------------------------------------------------------------------------
# SE(3) poses
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SE3Pose:
    """Rigid transform: unit quaternion (w, x, y, z) plus translation (m)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.rotation, dtype=float).reshape(4).copy()
        t = np.asarray(self.translation, dtype=float).reshape(3).copy()
        n = math.sqrt(float(q @ q))
        if n == 0.0:
            raise ValueError("zero quaternion is not a rotation")
        q /= n
        q.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "translation", t)


def identity_pose() -> SE3Pose:
    return SE3Pose(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))


def pose_from_rotvec(rotvec, translation=(0.0, 0.0, 0.0)) -> SE3Pose:
    return SE3Pose(_quat_from_rotvec(rotvec), np.asarray(translation, dtype=float))


def compose(a: SE3Pose, b: SE3Pose) -> SE3Pose:
    """a then b: maps b's child frame through b and a into a's parent."""
    rot = _quat_mul(a.rotation, b.rotation)
    trans = _quat_rotate(a.rotation, b.translation) + a.translation
    return SE3Pose(rot, trans)


def invert(t: SE3Pose) -> SE3Pose:
    qc = _quat_conj(t.rotation)
    return SE3Pose(qc, -_quat_rotate(qc, t.translation))


def transform_points(t: SE3Pose, pts) -> np.ndarray:
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    return _quat_rotate(t.rotation, pts) + t.translation[None, :]


def rotate_vector(t: SE3Pose, v) -> np.ndarray:
    """Apply only the rotation part (directions, axes)."""
    return _quat_rotate(t.rotation, np.asarray(v, dtype=float).reshape(3))


def pose_to_record(t: SE3Pose) -> dict:
    return {
        "rotation": [float(v) for v in t.rotation],
        "translation": [float(v) for v in t.translation],
    }


def pose_from_record(record: dict) -> SE3Pose:
    return SE3Pose(np.asarray(record["rotation"], dtype=float),
                   np.asarray(record["translation"], dtype=float))


# ---------------------------------------------------------------------------
# triangle meshes
# ---------------------------------------------------------------------------

class _FaceError(ValueError):
    """Faces a mesh refuses: `faces` lists (index, reason) in index order."""

    def __init__(self, faces):
        self.faces = faces
        super().__init__("; ".join(f"triangle {k}: {why}" for k, why in faces))


def _face_normals(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Unit face normals from one cross product per face.

    The cross product's norm is twice the face's area.  A face whose area is
    below `_DEGENERATE_AREA`, or is not finite because finite but huge
    corners overflow the products, is refused with `_FaceError`; the
    overflow raises no numpy warning.  The normals divide the same cross
    products by the same norms.
    """
    a = v[f[:, 0]]
    with np.errstate(over="ignore", invalid="ignore"):
        n = _cross(v[f[:, 1]] - a, v[f[:, 2]] - a)
        norm = np.linalg.norm(n, axis=1, keepdims=True)
    area = 0.5 * norm[:, 0]
    small = area < _DEGENERATE_AREA
    bad = np.flatnonzero(small | ~np.isfinite(area)).tolist()
    if bad:
        raise _FaceError([(k, "degenerate (zero area)" if small[k] else "area not finite")
                          for k in bad])
    n /= norm
    return n


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Triangle soup with validated indices; vertices in meters.

    Every face must have a finite area of at least `_DEGENERATE_AREA`;
    `face_normals` (m, 3) are its outward unit normals.
    """

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3).copy()
        f = np.asarray(self.triangles, dtype=np.int64).reshape(-1, 3).copy()
        if f.size and (f.min() < 0 or f.max() >= len(v)):
            raise ValueError("triangle index out of range")
        normals = _face_normals(v, f)
        for a in (v, f, normals):
            a.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", f)
        object.__setattr__(self, "face_normals", normals)
        object.__setattr__(self, "_cache", {})


def transform_mesh(mesh: TriangleMesh, pose: SE3Pose) -> TriangleMesh:
    return TriangleMesh(transform_points(pose, mesh.vertices), mesh.triangles)


# ---- closest point on triangles (voronoi-region walk, vectorized) ----

def _closest_on_matched_triangles(a, b, c, p):
    """Closest point to p on triangle (a, b, c), all arrays (n, 3)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    # candidates for every region; the masks below pick one per row
    v_ab = safe_div(d1, d1 - d3)
    on_ab = a + v_ab[:, None] * ab
    w_ac = safe_div(d2, d2 - d6)
    on_ac = a + w_ac[:, None] * ac
    d43, d56 = d4 - d3, d5 - d6
    w_bc = safe_div(d43, d43 + d56)
    on_bc = b + w_bc[:, None] * (c - b)
    denom = safe_div(1.0, va + vb + vc)
    out = a + (vb * denom)[:, None] * ab + (vc * denom)[:, None] * ac

    # lowest-priority regions first so earlier checks win, mirroring the
    # early returns of the scalar algorithm
    for region, at in (((va <= 0) & (d43 >= 0) & (d56 >= 0), on_bc),
                       ((vb <= 0) & (d2 >= 0) & (d6 <= 0), on_ac),
                       ((d6 >= 0) & (d5 <= d6), c),
                       ((vc <= 0) & (d1 >= 0) & (d3 <= 0), on_ab),
                       ((d3 >= 0) & (d4 <= d3), b),
                       ((d1 <= 0) & (d2 <= 0), a)):
        np.copyto(out, at, where=region[:, None])
    return out


# point-box pairs per chunk of _first_pass, the one step that chunks: its
# bounds of every point against every triangle or leaf grow with both, and
# chunks keep their temporaries in cache on a large batch.  The largest query
# of the benchmark inputs is 165 points (the onset grid's 33 rows x 5
# fingertips): the first walk takes 1320 pairs at once, and on the
# benchmark's 3072-triangle meshes the second cull's leaf bounds, redo points
# x leaves, reach 120 x 96 and its walk 1868 pairs
_CHUNK_PAIRS = 8192
# triangles each point walks before the cull: enough that the nearest one is
# almost always among them, few enough that a small query walks little
_FIRST_WALK = 8
# triangles per leaf, and the leaves whose triangles are a point's first
# candidates.  Chosen by replaying the queries of one dense-mesh benchmark
# pass (36 queries, 1633 points) on its objects subdivided to 768, 3072 and
# 12288 triangles, every answer byte-identical: against 12 x 16, query time
# at 4 x 32 was about 0.80x, 0.77x and 0.69x, the best or within noise of it
# among 3 to 5 leaves of 24 to 48.  The 128 candidates hold a point's
# nearest triangle for 1604 of the 1633 points at 3072 triangles; fewer,
# larger leaves cost a second cull more often (22% of points instead of 19%)
# but bound far fewer boxes per point
_LEAF = 32
_NEAR_LEAVES = 4
# a mesh of at most this many triangles, every bundled object, keeps the flat
# pass and builds no leaf level: on the 192-triangle objects, leaves at 4 x 32
# made the queries of one fragile-batch and one hand-sweep pass (195 queries,
# 8448 points) 14% slower.  A mesh above it has more than _NEAR_LEAVES leaves
_FLAT_TRIANGLES = 192
# slack of the bound cull: relative to the upper bound, and absolute in units
# of the squared diagonal of the box spanning the mesh and the origin
_CULL_REL = 1e-9
_CULL_ABS = 1e-12


def _triangle_bounds(mesh: TriangleMesh):
    """Triangle corners (m, 3, 3), box corners lo and hi (3, m), cull slack.

    Built once per mesh; lo and hi are stored one row per axis.
    """
    cache = mesh._cache
    if "triangle_bounds" not in cache:
        tri = mesh.vertices[mesh.triangles]
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        span = np.maximum(hi.max(axis=0), 0.0) - np.minimum(lo.min(axis=0), 0.0)
        cache["triangle_bounds"] = (tri, lo.T.copy(), hi.T.copy(),
                                    _CULL_ABS * float(span @ span))
    return cache["triangle_bounds"]


def _morton_codes(centroids: np.ndarray) -> np.ndarray:
    """30-bit Z-order codes of points, 10 bits per axis over their extent.

    An axis of zero extent maps every point to cell 0.
    """
    lo = centroids.min(axis=0)
    extent = centroids.max(axis=0) - lo
    scale = np.where(extent > 0.0, 1023.0 / np.where(extent > 0.0, extent, 1.0), 0.0)
    cells = np.minimum(((centroids - lo) * scale).astype(np.int64), 1023)
    code = np.zeros(len(centroids), dtype=np.int64)
    for axis in range(3):
        v = cells[:, axis]
        v = (v | v << 16) & 0x030000FF
        v = (v | v << 8) & 0x0300F00F
        v = (v | v << 4) & 0x030C30C3
        v = (v | v << 2) & 0x09249249
        code |= v << (2 - axis)
    return code


def _leaf_bounds(mesh: TriangleMesh):
    """The leaf level over a mesh's triangles, built once per mesh.

    Triangles are sorted by the Morton code of their centroids and cut into
    leaves of `_LEAF`; the last leaf is padded by repeating its last
    triangle, which a walk then meets twice to no effect.  Returns the leaf
    boxes lo and hi (3, leaves) and each leaf's triangles (leaves, _LEAF).
    A leaf's box is the elementwise min and max of its triangles' boxes.
    """
    cache = mesh._cache
    if "leaf_bounds" not in cache:
        tri, lo, hi, _ = _triangle_bounds(mesh)
        # the centroids' bits are those of tri.mean(axis=1)
        centroids = (tri[:, 0] + tri[:, 1] + tri[:, 2]) / 3.0
        order = np.argsort(_morton_codes(centroids), kind="stable")
        leaves = np.r_[order, np.repeat(order[-1], -len(order) % _LEAF)].reshape(-1, _LEAF)
        cache["leaf_bounds"] = (lo[:, leaves].min(axis=2), hi[:, leaves].max(axis=2), leaves)
    return cache["leaf_bounds"]


def _box_bounds(lo, hi, p, cand=None):
    """Squared distance from points to boxes lo and hi, (3, m).

    Every point against every box, (k, m); or, given `cand` (k, j), point i
    against boxes cand[i], (k, j).
    """
    bound = 0.0
    for axis in range(3):
        x = p[:, axis, None]
        low, high = (lo[axis], hi[axis]) if cand is None else (lo[axis][cand], hi[axis][cand])
        gap = low - x
        np.maximum(gap, x - high, out=gap)
        np.maximum(gap, 0.0, out=gap)
        gap *= gap
        bound = gap if axis == 0 else np.add(bound, gap, out=bound)
    return bound


def _walk(tri, cand, p):
    """Squared distance and closest point from each p to triangle cand."""
    q = _closest_on_matched_triangles(tri[cand, 0], tri[cand, 1], tri[cand, 2], p)
    gap = q - p
    return np.einsum("ij,ij->i", gap, gap), q


def _walk_rows(tri, points, row, cand, out):
    """Walk the (row, triangle) pairs `row`, `cand`; keep each row's best in `out`.

    A row's best is its lowest (squared distance, triangle index) pair among
    the answer already in `out` and every pair walked for it, so ties go to
    the lowest index as in a full scan.
    """
    out_d2, out_tri, out_q = out
    d2, q = _walk(tri, cand, points[row])
    order = np.lexsort((cand, d2, row))
    win = order[np.r_[True, row[order[1:]] != row[order[:-1]]]]
    r = row[win]
    better = (d2[win] < out_d2[r]) | ((d2[win] == out_d2[r]) & (cand[win] < out_tri[r]))
    r, win = r[better], win[better]
    out_d2[r] = d2[win]
    out_tri[r] = cand[win]
    out_q[r] = q[win]


def _lowest(bound, k):
    """Columns of each row's k lowest values, and each row's (k+1)-th lowest."""
    part = np.argpartition(bound, k, axis=1)
    return part[:, :k], bound[np.arange(len(bound)), part[:, k]]


def _first_pass(lo, hi, leaves, points, k):
    """Each point's k lowest-bound triangles and a bound on all the others.

    Without `leaves` every triangle is a candidate.  With them a point's
    candidates are the triangles of its `_NEAR_LEAVES` lowest-bound leaves,
    and every other triangle's bound is at least the next leaf's bound.
    """
    first = np.empty((len(points), k), dtype=np.int64)
    rest = np.empty(len(points))
    if leaves is None:
        rows = max(1, _CHUNK_PAIRS // lo.shape[1])
        for s in range(0, len(points), rows):
            first[s:s + rows], rest[s:s + rows] = _lowest(
                _box_bounds(lo, hi, points[s:s + rows]), k)
        return first, rest
    leaf_lo, leaf_hi, members = leaves
    rows = max(1, _CHUNK_PAIRS // max(len(members), _NEAR_LEAVES * _LEAF))
    for s in range(0, len(points), rows):
        p = points[s:s + rows]
        near, next_leaf = _lowest(_box_bounds(leaf_lo, leaf_hi, p), _NEAR_LEAVES)
        cand = members[near].reshape(len(p), _NEAR_LEAVES * _LEAF)
        pick, next_tri = _lowest(_box_bounds(lo, hi, p, cand), k)
        first[s:s + rows] = np.take_along_axis(cand, pick, axis=1)
        rest[s:s + rows] = np.minimum(next_tri, next_leaf)
    return first, rest


def _culled(lo, hi, leaves, points, redo, limit):
    """(row, triangle) pairs: for each point in `redo`, every triangle whose
    bound is within the point's limit.  With `leaves`, a leaf whose bound is
    above the limit is pruned before its triangles' bounds are taken."""
    if leaves is None:
        row, cand = np.nonzero(_box_bounds(lo, hi, points[redo]) <= limit[redo, None])
        return redo[row], cand
    leaf_lo, leaf_hi, members = leaves
    row, leaf = np.nonzero(_box_bounds(leaf_lo, leaf_hi, points[redo]) <= limit[redo, None])
    row, cand = redo[row], members[leaf]
    pair, slot = np.nonzero(_box_bounds(lo, hi, points[row], cand) <= limit[row, None])
    return row[pair], cand[pair, slot]


def _closest_points(mesh: TriangleMesh, points: np.ndarray):
    """For each query point: squared distance, winning triangle, closest point.

    One bound pass, one walk, and a second cull only where it can matter.
    The squared gap between a point and a triangle's bounding box is a lower
    bound on its squared distance to the triangle.  Each point walks the K =
    `_FIRST_WALK` candidates with the lowest bounds (every triangle, if the
    mesh has at most K), and the best squared distance `d2` among them gives
    the cull limit `d2 * (1 + _CULL_REL) + slack`.  A point whose next bound
    is above the limit is done: every triangle it did not walk has a bound
    at least that high.  Only the other points are culled again, keeping
    every triangle whose bound is within the limit, and walk those.  The
    winner is the lowest (squared distance, triangle index) walked, so ties
    resolve to the lowest index as in a full scan.

    On a mesh of at most `_FLAT_TRIANGLES` triangles every triangle is a
    candidate, and the next bound is the (K+1)-th lowest.  On a larger mesh
    the candidates are the triangles of the point's `_NEAR_LEAVES`
    lowest-bound leaves, and the next bound is the lower of the (K+1)-th
    candidate bound and the (`_NEAR_LEAVES`+1)-th leaf bound; the second
    cull drops every leaf whose bound is above the limit before it takes
    the bounds of the triangles in the others.  Both steps rest on a leaf's
    computed bound never exceeding a member triangle's computed bound.  The
    leaf's lo is the exact minimum of its triangles' lo, so lo_leaf <=
    lo_tri, and rounding is monotone: fl(lo_leaf - x) <= fl(lo_tri - x).
    The same holds for hi, and the maximum with zero, the squares and the
    sum over the axes, taken in the same order, keep the order.  A
    triangle in a leaf whose bound is above the limit has a bound above
    the limit too.

    The slack is what makes the answer bit-identical to a full scan.  A
    computed squared distance carries absolute error of about eps * L**2, L
    the diagonal of the box spanning the mesh and the origin (coordinates
    are rounded at that magnitude), and a relative error of a few eps for
    far points; a triangle whose computed distance ties the computed minimum
    can therefore have an exact box bound a few ulps above it.  The slack
    (`_CULL_REL`, and `_CULL_ABS` times L**2) exceeds both errors by orders
    of magnitude, so the full scan's winner, whose distance is at most
    `d2`, has a bound within the limit.  A triangle whose bound is above the
    limit can therefore neither win nor tie, and that is exactly what the
    next-bound test rules out for the triangles a point did not walk.

    Only `_first_pass` takes its bounds in chunks of `_CHUNK_PAIRS` point-box
    pairs; the walks and the second cull take theirs at once, though the
    cull's leaf bounds grow with redo points x leaves, uncapped.
    """
    n = len(points)
    tri, lo, hi, slack = _triangle_bounds(mesh)
    m = len(tri)
    k = min(_FIRST_WALK, m)
    leaves = _leaf_bounds(mesh) if m > _FLAT_TRIANGLES else None
    if k < m:
        first, next_bound = _first_pass(lo, hi, leaves, points, k)
    else:
        first = np.broadcast_to(np.arange(m), (n, m))
        next_bound = np.full(n, np.inf)
    d2, q = _walk(tri, first.ravel(), np.repeat(points, k, axis=0))
    d2 = d2.reshape(n, k)
    win = (np.arange(n), np.lexsort((first, d2))[:, 0])
    out = d2[win], first[win], q.reshape(n, k, 3)[win]
    limit = out[0] * (1.0 + _CULL_REL) + slack
    redo = np.flatnonzero(next_bound <= limit)
    if redo.size:
        _walk_rows(tri, points, *_culled(lo, hi, leaves, points, redo, limit), out)
    return out


def sq_distance_floor(mesh: TriangleMesh, points: np.ndarray) -> np.ndarray:
    """A lower bound on `surface_query(mesh, points).sq_distance`, row by
    row, from the mesh's bounding box alone; `points` is (n, 3).

    The box is the elementwise min and max of the triangle boxes, so its
    computed squared gap G to a point is never above any triangle box's
    computed bound, by the leaf argument of `_closest_points`.  The winning
    triangle's bound is within the cull limit d2 * (1 + _CULL_REL) + slack,
    so (G - slack) / (1 + _CULL_REL), and 0 if that is negative, is at most
    d2: the subtraction and the division round by an eps or two, orders of
    magnitude inside `_CULL_REL`.
    """
    if mesh.triangles.size == 0:
        raise EmptyMesh("distance floor on a mesh with no triangles")
    _, lo, hi, slack = _triangle_bounds(mesh)
    gap = _box_bounds(lo.min(axis=1, keepdims=True), hi.max(axis=1, keepdims=True), points)
    return np.maximum(gap[:, 0] - slack, 0.0) / (1.0 + _CULL_REL)


# ---- pseudonormals for the inside/outside sign ----

def _scatter_add(idx, rows, n):
    """(n, 3) sums of `rows` grouped by `idx`, one bincount per component:
    each sum starts at 0.0 and adds in index order, as np.add.at does."""
    return np.stack([np.bincount(idx, weights=rows[:, c], minlength=n) for c in range(3)],
                    axis=1)


def _pseudonormals(mesh: TriangleMesh, at: np.ndarray, to: np.ndarray = None) -> np.ndarray:
    """Unit pseudonormals of the vertices `at`, or of the edges (at[i], to[i]).

    A vertex normal sums the normals of the faces around the vertex, each
    weighted by the face's angle there; an edge normal sums the normals of
    the faces holding both ends.  A sum whose norm is at most 1e-12 is kept
    as it is.  Only the corners at `at` are visited, found through a corner
    index built once per mesh: the corners sorted by vertex, stably, and
    each vertex's first slot.  Sums run in triangle order and every dot
    goes through einsum, so the bits match a per-triangle loop doing the
    same on any BLAS kernel, and an edge's normal does not depend on the
    order of its ends.
    """
    flat = mesh.triangles.ravel()
    if "corners" not in mesh._cache:
        order = np.argsort(flat, kind="stable")
        mesh._cache["corners"] = order, np.searchsorted(flat[order],
                                                        np.arange(len(mesh.vertices) + 1))
    order, starts = mesh._cache["corners"]
    # row i's corners are order[starts[at[i]]:starts[at[i] + 1]], one after another
    count = starts[at + 1] - starts[at]
    row = np.repeat(np.arange(len(at)), count)
    corner = order[np.arange(len(row)) + np.repeat(starts[at] - np.cumsum(count) + count, count)]
    tri, k = np.divmod(corner, 3)
    terms = mesh.face_normals[tri]
    if to is None:
        # the edges from the corner towards corners k + 1 and k + 2
        here = mesh.vertices[flat[corner]]
        e1 = mesh.vertices[flat[corner - k + (k + 1) % 3]] - here
        e2 = mesh.vertices[flat[corner - k + (k + 2) % 3]] - here
        lengths = np.sqrt(np.einsum("ij,ij->i", e1, e1)) * np.sqrt(np.einsum("ij,ij->i", e2, e2))
        cosang = np.clip(np.einsum("ij,ij->i", e1, e2) / lengths, -1.0, 1.0)
        terms = np.fromiter(map(math.acos, cosang.tolist()), float, len(cosang))[:, None] * terms
    else:
        held = (mesh.triangles[tri] == to[row, None]).any(axis=1)
        row, terms = row[held], terms[held]
    sums = _scatter_add(row, terms, len(at))
    norms = np.sqrt(np.einsum("ij,ij->i", sums, sums))[:, None]
    return np.where(norms > 1e-12, sums / np.where(norms > 1e-12, norms, 1.0), sums)


_FEATURE_EPS = 1e-7


def _feature_normals(mesh: TriangleMesh, tri_idx: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pseudonormal of the feature (face, edge, vertex) each point q lies on.

    Barycentrics are classified for the whole batch; only the vertices and
    edges that points lie on get a pseudonormal built.
    """
    verts = mesh.triangles[tri_idx]
    a, b, c = (mesh.vertices[verts[:, k]] for k in range(3))
    ab, ac, qa = b - a, c - a, q - a
    d00 = np.einsum("ij,ij->i", ab, ab)
    d01 = np.einsum("ij,ij->i", ab, ac)
    d11 = np.einsum("ij,ij->i", ac, ac)
    d20 = np.einsum("ij,ij->i", qa, ab)
    d21 = np.einsum("ij,ij->i", qa, ac)
    den = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / den
    w = (d00 * d21 - d01 * d20) / den
    small = np.stack([1.0 - v - w < _FEATURE_EPS, v < _FEATURE_EPS, w < _FEATURE_EPS], axis=1)
    count = small.sum(axis=1)
    normals = mesh.face_normals[tri_idx]
    # two barycentrics vanish: the first non-vanishing corner carries the
    # point (corner 0 if all three vanish)
    on_vertex = np.flatnonzero(count >= 2)
    if on_vertex.size:
        corner = np.argmin(small[on_vertex], axis=1)
        normals[on_vertex] = _pseudonormals(mesh, verts[on_vertex, corner])
    # exactly one vanishes: the opposite edge carries the point
    on_edge = np.flatnonzero(count == 1)
    if on_edge.size:
        k = np.argmax(small[on_edge], axis=1)
        normals[on_edge] = _pseudonormals(mesh, verts[on_edge, (k + 1) % 3],
                                          verts[on_edge, (k + 2) % 3])
    return normals


class SurfaceProximity:
    """Nearest-surface answers for a batch of query points, one row each.

    `sq_distance` (n,), `triangle` (n,) and `point` (n, 3) are computed up
    front.  The outward unit pseudonormal `normal` (n, 3) and the signed
    `distance` (n,), negative inside, are computed on first access, so a
    caller that needs only distances builds no pseudonormal.  The sign
    assumes a watertight mesh.
    """

    def __init__(self, mesh: TriangleMesh, points: np.ndarray):
        self._mesh = mesh
        self._points = points
        self.sq_distance, self.triangle, self.point = _closest_points(mesh, points)

    @cached_property
    def normal(self) -> np.ndarray:
        return _feature_normals(self._mesh, self.triangle, self.point)

    @cached_property
    def distance(self) -> np.ndarray:
        outward = np.einsum("ij,ij->i", self._points - self.point, self.normal)
        dist = np.sqrt(self.sq_distance)
        return np.where(outward < 0.0, -dist, dist)


def surface_query(mesh: TriangleMesh, points) -> SurfaceProximity:
    """Nearest surface point, triangle, normal and distance for every point.

    `points` is one point (3,) or a batch (n, 3); the answer always has one
    row per point.  Rows are computed independently, so a batched query
    agrees bit for bit with one query per point.  A non-finite coordinate
    has no nearest point and raises ValueError.
    """
    if mesh.triangles.size == 0:
        raise EmptyMesh("surface query on a mesh with no triangles")
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if not np.isfinite(points).all():
        raise ValueError("surface query points must be finite")
    return SurfaceProximity(mesh, points)


# ---------------------------------------------------------------------------
# OBJ subset: v and f records, triangles only
# ---------------------------------------------------------------------------

def _face_corners(corners) -> list:
    """Zero-based vertex indices of one f record's three corners.

    A corner is `v`, `v/vt`, `v//vn` or `v/vt/vn`; only `v` is kept.  Raises
    ValueError naming the first corner that is not a positive integer.
    """
    idx = []
    for t in corners:
        head = t.split("/")[0]
        try:
            i = int(head)
        except ValueError:
            raise ValueError(f"face index '{head}' not an integer") from None
        if i <= 0:
            raise ValueError(f"face index {i} must be positive (1-based)")
        idx.append(i - 1)
    return idx


def _read_plain(text: str, scale: float):
    """Vertices and triangles of an OBJ text in the plain layout, else None.

    In the plain layout, the one `save_obj` writes, every line is `v x y z`
    or `f i j k` with a space after the record name, vertices come before
    faces, and corners are bare integers.  One split proves it: the text
    has 4 tokens per line, every line starts with `v ` or `f `, every
    fourth token is `v` up to the first `f` and `f` after it, and every
    other token converts with `float` or `int`, which neither `v` nor `f`
    does.  The line heads are then exactly the record tokens, 4 apart.
    Also None for a file with a finding (no faces, a coordinate beyond the
    length bound, an index out of range), which `_read_lines` then names.
    """
    tokens = text.split()
    lines = text.count("\n") + (not text.endswith("\n"))
    heads = tokens[::4]
    nv = heads.count("v")
    nf = len(heads) - nv
    if (len(tokens) != 4 * lines or nf == 0 or heads[nv:].count("f") != nf
            or text.startswith(("v ", "f ")) + text.count("\nv ") + text.count("\nf ") != lines):
        return None
    coords, corners = tokens[:4 * nv], tokens[4 * nv:]
    del coords[::4], corners[::4]
    try:
        v = np.fromiter(map(float, coords), float, len(coords)).reshape(-1, 3)
        f = np.fromiter(map(int, corners), np.int64, len(corners)).reshape(-1, 3)
    except (ValueError, OverflowError):    # OverflowError: an index past int64
        return None
    with np.errstate(over="ignore"):    # a finite coordinate times `scale` may overflow
        v *= scale
    if not (np.abs(v) <= MAX_LENGTH).all() or f.min() < 1 or f.max() > nv:
        return None
    return v, f - 1


def _read_lines(text: str, scale: float):
    """Vertices, triangles and findings of any OBJ text, line by line.

    Findings come in line order, then index ranges face by face; an empty
    list means the arrays are the mesh.
    """
    vertices, vertex_lines, faces, violations = [], [], [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        rec = tokens[0]
        if rec == "v":
            if len(tokens) < 4:
                violations.append(f"line {lineno}: vertex needs 3 coordinates")
                continue
            try:
                vertices.append((float(tokens[1]), float(tokens[2]), float(tokens[3])))
                vertex_lines.append(lineno)
            except ValueError:
                violations.append(f"line {lineno}: vertex coordinates not numeric")
        elif rec == "f":
            if len(tokens) != 4:
                violations.append(
                    f"line {lineno}: face {len(faces) + 1} has "
                    f"{len(tokens) - 1} vertices; only triangles supported")
                continue
            try:
                faces.append(_face_corners(tokens[1:]))
            except ValueError as exc:
                violations.append(f"line {lineno}: {exc}")
        # all other record types, comments included, are ignored
    with np.errstate(over="ignore"):    # a finite coordinate times `scale` may overflow
        v = np.array(vertices, dtype=float).reshape(-1, 3) * scale
    for k in np.flatnonzero(~(np.abs(v) <= MAX_LENGTH).all(axis=1)).tolist():
        scaled = " after mesh_scale" if all(abs(c) <= MAX_LENGTH for c in vertices[k]) else ""
        violations.append(f"line {vertex_lines[k]}: vertex coordinates not within "
                          f"+-{MAX_LENGTH:g} m{scaled}")
    if not faces and not violations:
        violations.append("no faces: mesh must contain at least one triangle")
    nv = len(vertices)
    try:
        f = np.array(faces, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # an index past int64 is past every vertex
        f = np.array([[min(i, nv) for i in tri] for tri in faces], dtype=np.int64)
    for k, c in np.argwhere(f >= nv).tolist():  # face by face, corner by corner
        violations.append(f"face {k + 1}: vertex index {faces[k][c] + 1} out of range "
                          f"({nv} vertices)")
    return v, f, violations


def load_obj(path, scale: float = 1.0) -> TriangleMesh:
    """Load a triangle mesh from a Wavefront OBJ file.

    Only v and f records are honored; faces must be triangles.  Every
    violation in the file is collected, prefixed with the file name, before
    rejecting it; a missing file raises FixtureMissing.  Vertices are
    multiplied by `scale`, which must be positive, and must lie within
    +-MAX_LENGTH metres after it; every face must have a non-zero area.

    A file in the plain layout (`_read_plain`) is read in bulk: one split
    of the text and one conversion per column.  Any other layout, and any
    file with a finding, is read line by line (`_read_lines`), so a file
    gets the same arrays and the same findings either way.
    """
    scale = float(scale)
    if scale <= 0.0:
        raise ValueError("mesh scale must be positive")
    if not os.path.isfile(path):
        raise FixtureMissing(f"fixture file missing: {path}")
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    arrays = _read_plain(text, scale)
    if arrays is None:
        *arrays, violations = _read_lines(text, scale)
        if violations:
            raise SchemaError([f"{name}: {v}" for v in violations])
    try:
        return TriangleMesh(*arrays)
    except _FaceError as exc:
        raise SchemaError([f"{name}: face {k + 1}: {why}" for k, why in exc.faces]) from None


def save_obj(path, mesh: TriangleMesh) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
        for t in mesh.triangles:
            fh.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def save_points_obj(path, points) -> None:
    """Write bare vertices (a point cloud) as an OBJ snapshot."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    with open(path, "w", encoding="utf-8") as fh:
        for p in pts:
            fh.write(f"v {p[0]:.9g} {p[1]:.9g} {p[2]:.9g}\n")
