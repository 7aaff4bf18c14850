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
    queries near edges and vertices get a consistent sign.  `load_obj`,
    the way an object enters a run, refuses a mesh that is not closed,
    consistently wound and outward; a `TriangleMesh` built in code may be
    open or flat, and a query on it then has distances but no sign.

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
    vertex or edge, with the same bits as a per-triangle loop.  Inside the
    module, per-point and per-triangle coordinates are axis-major, one row
    per axis, and every row dot is `_dot`; the public arrays are (n, 3).
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
    """np.cross of vectors (3,) or axis-major (3, ...), bit for bit: the same
    component products without its per-call axis handling."""
    return np.array([a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                     a[0] * b[1] - a[1] * b[0]])


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row dots of axis-major (3, n) vectors in one written order, (x0 y0 +
    x2 y2) + x1 y1, the order einsum sums rows of three in."""
    return (x[0] * y[0] + x[2] * y[2]) + x[1] * y[1]


def _quat_rotate(q, v):
    """q applied to a vector (3,) or to each column of (3, n)."""
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
    return (_quat_rotate(t.rotation, pts.T) + t.translation[:, None]).T.copy()


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
    products by the same norms, summed as np.linalg.norm sums them.
    """
    a, b, c = np.take(v.T, f.T, axis=1).swapaxes(0, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        n = _cross(b - a, c - a)
        norm = np.sqrt((n[0] * n[0] + n[1] * n[1]) + n[2] * n[2])
    area = 0.5 * norm
    small = area < _DEGENERATE_AREA
    bad = np.flatnonzero(small | ~np.isfinite(area)).tolist()
    if bad:
        raise _FaceError([(k, "degenerate (zero area)" if small[k] else "area not finite")
                          for k in bad])
    return (n / norm).T.copy()


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
    """Closest point to p on triangle (a, b, c), all arrays axis-major (3, n)."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    bp = p - b
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    cp = p - c
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    def safe_div(num, den):
        return num / np.where(den == 0.0, 1.0, den)

    # candidates for every region; the masks below pick one per row
    on_ab = a + safe_div(d1, d1 - d3) * ab
    on_ac = a + safe_div(d2, d2 - d6) * ac
    d43, d56 = d4 - d3, d5 - d6
    on_bc = b + safe_div(d43, d43 + d56) * (c - b)
    denom = safe_div(1.0, va + vb + vc)
    out = a + (vb * denom) * ab + (vc * denom) * ac

    # lowest-priority regions first so earlier checks win, mirroring the
    # early returns of the scalar algorithm
    for region, at in (((va <= 0) & (d43 >= 0) & (d56 >= 0), on_bc),
                       ((vb <= 0) & (d2 >= 0) & (d6 <= 0), on_ac),
                       ((d6 >= 0) & (d5 <= d6), c),
                       ((vc <= 0) & (d1 >= 0) & (d3 <= 0), on_ab),
                       ((d3 >= 0) & (d4 <= d3), b),
                       ((d1 <= 0) & (d2 <= 0), a)):
        np.copyto(out, at, where=region)
    return out


# point-box pairs per chunk of _first_pass, the one step that chunks: its
# bounds of every point against every triangle or leaf grow with both, and
# chunks keep their temporaries in cache on a large batch.  The largest query
# of the benchmark inputs is 109 points (the in-box samples of an onset grid
# on the 22-joint hand): the first walk takes 872 pairs at once.  On the
# benchmark's 3072-triangle meshes the largest query is 100 points, and the
# second cull's leaf bounds, redo points x leaves, reach 20 x 96 and its walk
# 236 pairs
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
    """Triangle corners (3 axes, 3 corners, m), box corners lo and hi (3, m),
    cull slack.  Built once per mesh, one row per axis throughout."""
    cache = mesh._cache
    if "triangle_bounds" not in cache:
        corners = np.take(mesh.vertices.T, mesh.triangles.T, axis=1)
        a, b, c = corners.swapaxes(0, 1)
        lo, hi = np.minimum(np.minimum(a, b), c), np.maximum(np.maximum(a, b), c)
        span = np.maximum(hi.max(axis=1), 0.0) - np.minimum(lo.min(axis=1), 0.0)
        cache["triangle_bounds"] = corners, lo, hi, _CULL_ABS * float(span @ span)
    return cache["triangle_bounds"]


# _SPREAD[i] puts bit k of a 10-bit cell i at bit 3k
_SPREAD = sum((np.arange(1024) >> k & 1) << 3 * k for k in range(10))


def _morton_codes(centroids: np.ndarray) -> np.ndarray:
    """30-bit Z-order codes of points (3, m), 10 bits per axis over their
    extent, x's above y's above z's.

    An axis of zero extent maps every point to cell 0.
    """
    lo = centroids.min(axis=1, keepdims=True)
    extent = centroids.max(axis=1, keepdims=True) - lo
    scale = np.where(extent > 0.0, 1023.0 / np.where(extent > 0.0, extent, 1.0), 0.0)
    x, y, z = _SPREAD[np.minimum(((centroids - lo) * scale).astype(np.int64), 1023)]
    return x << 2 | y << 1 | z


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
        corners, lo, hi, _ = _triangle_bounds(mesh)
        # the centroids' bits are those of the corners' mean
        centroids = (corners[:, 0] + corners[:, 1] + corners[:, 2]) / 3.0
        order = np.argsort(_morton_codes(centroids), kind="stable")
        leaves = np.r_[order, np.repeat(order[-1], -len(order) % _LEAF)].reshape(-1, _LEAF)
        cache["leaf_bounds"] = (np.take(lo, leaves, axis=1).min(axis=2),
                                np.take(hi, leaves, axis=1).max(axis=2), leaves)
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


def _walk(corners, cand, p):
    """Squared distance and closest point, (3, n), from each p (3, n) to
    triangle cand."""
    q = _closest_on_matched_triangles(*np.take(corners, cand, axis=2).swapaxes(0, 1), p)
    gap = q - p
    return _dot(gap, gap), q


def _walk_rows(corners, points, row, cand, out):
    """Walk the (row, triangle) pairs `row`, `cand`; keep each row's best in `out`.

    Points and closest points are axis-major (3, n).  A row's best is its
    lowest (squared distance, triangle index) pair among the answer already
    in `out` and every pair walked for it, so ties go to the lowest index as
    in a full scan.
    """
    out_d2, out_tri, out_q = out
    d2, q = _walk(corners, cand, np.take(points, row, axis=1))
    order = np.lexsort((cand, d2, row))
    win = order[np.r_[True, row[order[1:]] != row[order[:-1]]]]
    r = row[win]
    better = (d2[win] < out_d2[r]) | ((d2[win] == out_d2[r]) & (cand[win] < out_tri[r]))
    r, win = r[better], win[better]
    out_d2[r] = d2[win]
    out_tri[r] = cand[win]
    out_q[:, r] = q[:, win]


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
    n, m = len(points), len(mesh.triangles)
    corners, lo, hi, slack = _triangle_bounds(mesh)
    k = min(_FIRST_WALK, m)
    leaves = _leaf_bounds(mesh) if m > _FLAT_TRIANGLES else None
    if k < m:
        first, next_bound = _first_pass(lo, hi, leaves, points, k)
    else:
        first = np.broadcast_to(np.arange(m), (n, m))
        next_bound = np.full(n, np.inf)
    d2, q = _walk(corners, first.ravel(), np.repeat(points.T, k, axis=1))
    d2 = d2.reshape(n, k)
    # each row's lowest triangle index among its lowest squared distances
    win = np.arange(n), np.where(d2 == d2.min(axis=1, keepdims=True), first, m).argmin(axis=1)
    out = d2[win], first[win], q.reshape(3, n, k)[:, win[0], win[1]]
    limit = out[0] * (1.0 + _CULL_REL) + slack
    redo = np.flatnonzero(next_bound <= limit)
    if redo.size:
        _walk_rows(corners, points.T, *_culled(lo, hi, leaves, points, redo, limit), out)
    return out[0], out[1], out[2].T.copy()


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


def floor_slack(mesh: TriangleMesh) -> float:
    """The computed squared gap to the mesh's bounding box up to which
    `sq_distance_floor` reads 0."""
    return _triangle_bounds(mesh)[3]


# ---- pseudonormals for the inside/outside sign ----

def _pseudonormals(mesh: TriangleMesh, at: np.ndarray, to: np.ndarray = None) -> np.ndarray:
    """Unit pseudonormals of the vertices `at`, or of the edges (at[i], to[i]).

    A vertex normal sums the normals of the faces around the vertex, each
    weighted by the face's angle there; an edge normal sums the normals of
    the faces holding both ends.  A sum whose norm is at most 1e-12 is kept
    as it is.  Only the corners at `at` are visited, found through a corner
    index built once per mesh: the corners sorted by vertex, stably, and
    each vertex's first slot.  Sums run in triangle order, one bincount per
    axis that starts at 0.0 and adds in index order as np.add.at does, and
    every dot goes through `_dot`, so the bits match a per-triangle loop
    doing the same on any BLAS kernel, and an edge's normal does not depend
    on the order of its ends.
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
    terms = np.take(mesh.face_normals.T, tri, axis=1)
    if to is None:
        # the edges from the corner towards corners k + 1 and k + 2
        corners = _triangle_bounds(mesh)[0]
        here = corners[:, k, tri]
        e1 = corners[:, (k + 1) % 3, tri] - here
        e2 = corners[:, (k + 2) % 3, tri] - here
        lengths = np.sqrt(_dot(e1, e1)) * np.sqrt(_dot(e2, e2))
        cosang = np.clip(_dot(e1, e2) / lengths, -1.0, 1.0)
        terms = np.fromiter(map(math.acos, cosang.tolist()), float, len(cosang)) * terms
    else:
        held = (mesh.triangles[tri] == to[row, None]).any(axis=1)
        row, terms = row[held], terms[:, held]
    sums = np.array([np.bincount(row, weights=t, minlength=len(at)) for t in terms])
    norms = np.sqrt(_dot(sums, sums))
    return np.where(norms > 1e-12, sums / np.where(norms > 1e-12, norms, 1.0), sums).T


_FEATURE_EPS = 1e-7


def _feature_normals(mesh: TriangleMesh, tri_idx: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Pseudonormal of the feature (face, edge, vertex) each point q lies on.

    Barycentrics are classified for the whole batch; only the vertices and
    edges that points lie on get a pseudonormal built.
    """
    verts = mesh.triangles[tri_idx]
    a, b, c = np.take(_triangle_bounds(mesh)[0], tri_idx, axis=2).swapaxes(0, 1)
    ab, ac, qa = b - a, c - a, q.T - a
    d00 = _dot(ab, ab)
    d01 = _dot(ab, ac)
    d11 = _dot(ac, ac)
    d20 = _dot(qa, ab)
    d21 = _dot(qa, ac)
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
        outward = _dot((self._points - self.point).T, self.normal.T)
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
    """One-based vertex indices of one f record's three corners.

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
        idx.append(i)
    return idx


def _read_plain(text: str):
    """`_read_lines` of an OBJ text in the plain layout, in bulk, else None.

    In the plain layout, the one `save_obj` writes, every line is `v x y z`
    or `f i j k` with a space after the record name, vertices come before
    faces, and corners are bare integers.  One split proves it: the text
    has 4 tokens per line, every line starts with `v ` or `f `, every
    fourth token is `v` up to the first `f` and `f` after it, and every
    other token converts with `float` or `int` (numpy converts each str
    with them), which neither `v` nor `f` does.  The line heads are then exactly the record tokens, 4 apart, and
    vertex k is on line k + 1.  Also None for a corner below 1, which
    `_read_lines` then names.
    """
    tokens = text.split()
    lines = text.count("\n") + (not text.endswith("\n"))
    heads = tokens[::4]
    nv = heads.count("v")
    if (len(tokens) != 4 * lines or heads[nv:].count("f") != len(heads) - nv
            or text.startswith(("v ", "f ")) + text.count("\nv ") + text.count("\nf ") != lines):
        return None
    coords, corners = tokens[:4 * nv], tokens[4 * nv:]
    del coords[::4], corners[::4]
    try:
        v = np.array(coords, dtype=float).reshape(-1, 3)
        f = np.array(corners, dtype=np.int64).reshape(-1, 3)
    except (ValueError, OverflowError):    # OverflowError: an index past int64
        return None
    return None if (f < 1).any() else (v, f, range(1, nv + 1), [])


def _read_lines(text: str):
    """Vertices, one-based faces, each vertex's line and the line findings
    of any OBJ text, line by line; findings come in line order."""
    vertices, vertex_lines, faces, findings = [], [], [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.split()
        if not tokens:
            continue
        rec = tokens[0]
        if rec == "v":
            if len(tokens) < 4:
                findings.append(f"line {lineno}: vertex needs 3 coordinates")
                continue
            try:
                vertices.append((float(tokens[1]), float(tokens[2]), float(tokens[3])))
                vertex_lines.append(lineno)
            except ValueError:
                findings.append(f"line {lineno}: vertex coordinates not numeric")
        elif rec == "f":
            if len(tokens) != 4:
                findings.append(
                    f"line {lineno}: face {len(faces) + 1} has "
                    f"{len(tokens) - 1} vertices; only triangles supported")
                continue
            try:
                faces.append(_face_corners(tokens[1:]))
            except ValueError as exc:
                findings.append(f"line {lineno}: {exc}")
        # all other record types, comments included, are ignored
    return vertices, faces, vertex_lines, findings


def _unclosed(mesh: TriangleMesh) -> list:
    """Why `mesh` is not a closed, consistently wound surface facing out.

    The sign of a surface query and the onset grid's box pruning assume
    one.  A mesh is closed and consistently wound exactly when each edge
    a-b of its faces is walked once a->b and once b->a: no edge belongs to
    one face, and no directed edge is walked twice (an edge of two or more
    faces then has both walks).  Only such a mesh has an inside, and its
    faces face out when its signed volume is positive.

    One sort each way decides a mesh that passes: its sorted directed edges
    are its sorted reversed edges, and none repeats (`TriangleMesh` has
    refused a face with a repeated corner, whose edge a->a is its own
    reverse).  Only a mesh that fails counts its lone and repeated edges.
    """
    n = len(mesh.vertices)
    start, end = mesh.triangles.ravel(), mesh.triangles[:, [1, 2, 0]].ravel()
    walks = np.sort(start * n + end)
    if not (np.array_equal(walks, np.sort(end * n + start)) and (walks[1:] != walks[:-1]).all()):
        faces = np.unique(np.minimum(start, end) * n + np.maximum(start, end),
                          return_counts=True)[1]
        lone = np.count_nonzero(faces == 1)
        same = np.count_nonzero(np.unique(walks, return_counts=True)[1] > 1)
        return ([f"{lone} edges belong to one face"] if lone else []) + (
            [f"{same} edges are walked the same way by two faces"] if same else [])
    a, b, c = _triangle_bounds(mesh)[0].swapaxes(0, 1)    # the corners every query reads
    if np.einsum("ij,ij->", a, _cross(b, c)) <= 0.0:
        return ["faces wind inward (signed volume <= 0)"]
    return []


def load_obj(path, scale: float = 1.0) -> TriangleMesh:
    """Load a triangle mesh from a Wavefront OBJ file.

    Only v and f records are honored; faces must be triangles.  Every
    violation in the file is collected, prefixed with the file name, before
    rejecting it; a missing file raises FixtureMissing.  Vertices are
    multiplied by `scale`, which must be positive, and must lie within
    +-MAX_LENGTH metres after it; every face must have a non-zero area.

    A file in the plain layout (`_read_plain`) is read in bulk: one split
    of the text and one conversion per column.  Any other layout is read
    line by line (`_read_lines`).  The readers only parse: the findings on
    the arrays (coordinates, then no faces, then index ranges face by face)
    are named here, once, so a file gets the same arrays and the same
    findings either way.
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
    raw, faces, vertex_lines, findings = _read_plain(text) or _read_lines(text)
    raw = np.asarray(raw, dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore"):    # a finite coordinate times `scale` may overflow
        v = raw * scale
    for k in np.flatnonzero(~(np.abs(v) <= MAX_LENGTH).all(axis=1)).tolist():
        scaled = " after mesh_scale" if (np.abs(raw[k]) <= MAX_LENGTH).all() else ""
        findings.append(f"line {vertex_lines[k]}: vertex coordinates not within "
                        f"+-{MAX_LENGTH:g} m{scaled}")
    if not len(faces) and not findings:
        findings.append("no faces: mesh must contain at least one triangle")
    nv = len(v)
    try:
        f = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    except OverflowError:  # an index past int64 is past every vertex
        f = np.array([[min(i, nv + 1) for i in tri] for tri in faces], dtype=np.int64)
    for k, c in np.argwhere(f > nv).tolist():  # face by face, corner by corner
        findings.append(f"face {k + 1}: vertex index {faces[k][c]} out of range "
                        f"({nv} vertices)")
    if not findings:
        try:
            mesh = TriangleMesh(v, f - 1)
        except _FaceError as exc:
            findings = [f"face {k + 1}: {why}" for k, why in exc.faces]
        else:
            findings = _unclosed(mesh)
    if findings:
        raise SchemaError([f"{name}: {x}" for x in findings])
    return mesh


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
