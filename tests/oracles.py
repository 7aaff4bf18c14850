"""Independent reference implementations used to cross-check the package.

Everything here works from raw data (model JSON documents, vertex arrays,
plain floats) with its own math, so a package bug cannot hide inside its
own oracle.  Keep these slow and obvious; never import them back into the
package.
"""

import functools
import math
import os
from collections import Counter
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# rotations and homogeneous transforms
# ---------------------------------------------------------------------------

def quat_matrix(q):
    """Rotation matrix from a (w, x, y, z) quaternion, direct formula."""
    w, x, y, z = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([
        [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
        [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
        [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
    ])


def rodrigues(axis, angle):
    """Rotation matrix about a unit axis; independent of any quaternion."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def quat_rotate_cross(q, v):
    """v (3,) or (n, 3) rotated by the unit quaternion q (w, x, y, z) through
    np.cross: v + 2w (u x v) + 2 u x (u x v), u the vector part.  The pose
    helpers evaluate this formula with their own cross product, so they must
    match it bit for bit."""
    u = np.asarray(q, dtype=float)[1:]
    t = 2.0 * np.cross(u, v)
    return v + q[0] * t + np.cross(u, t)


def homogeneous(rotation, translation):
    m = np.eye(4)
    m[:3, :3] = rotation
    m[:3, 3] = np.asarray(translation, dtype=float)
    return m


def record_matrix(record):
    """4x4 matrix from a {rotation, translation} pose record."""
    return homogeneous(quat_matrix(record["rotation"]), record["translation"])


# ---------------------------------------------------------------------------
# forward kinematics over the raw model document
# ---------------------------------------------------------------------------

def chain_fingertips(doc, root_matrix, joint_angles):
    """Fingertip positions by recursive matrix chains over the JSON document.

    Mimic joints are resolved from the document, joint rotations use the
    Rodrigues formula, and every fingertip walks its own parent chain.
    """
    joint_names = [j["name"] for j in doc["joints"]]
    angles = dict(zip(joint_names, [float(a) for a in joint_angles]))
    effective = dict(angles)
    for m in doc.get("mimics", []):
        effective[m["joint"]] = float(m["ratio"]) * angles[m["driver"]]

    joint_of_link = {j["child_link"]: j for j in doc["joints"]}
    link_by_name = {l["name"]: l for l in doc["links"]}
    links = doc["links"]

    def link_matrix(name):
        link = link_by_name[name]
        local = record_matrix(link["offset"])
        joint = joint_of_link.get(name)
        if joint is not None:
            local = local @ homogeneous(
                rodrigues(joint["axis"], effective[joint["name"]]), (0.0, 0.0, 0.0))
        if link["parent"] == -1:
            return root_matrix @ local
        return link_matrix(links[link["parent"]]["name"]) @ local

    return np.array([link_matrix(n)[:3, 3] for n in doc["fingertip_links"]])


def sweep_fk(doc, root_rotation, root_translation, joint_angles):
    """One FK sweep over the document in Python floats: the (K, 3) fingertip
    positions, then every link's world quaternion and translation as float
    tuples, in document link order.

    Every link multiplies its parent's rotation by its offset rotation and
    then by the joint's (cos, sin * axis), all as general quaternion
    products: no term is skipped because a factor is an exact zero.  Offset
    rotations and axes are normalized as the loader normalizes them.  This is
    the arithmetic, rounding and signed zeros included, that the package's
    FK must match bit for bit.
    """
    identity = {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}
    joint_names = [j["name"] for j in doc["joints"]]
    angles = dict(zip(joint_names, [float(a) for a in joint_angles]))
    effective = dict(angles)
    for m in doc.get("mimics", []):
        effective[m["joint"]] = float(m.get("ratio", 1.0)) * angles[m["driver"]]
    joint_of_link = {j["child_link"]: j for j in doc["joints"]}
    links = doc["links"]
    quats, trans = [None] * len(links), [None] * len(links)

    def sweep(i):
        if quats[i] is not None:
            return
        link = links[i]
        if link["parent"] < 0:
            pw, px, py, pz = (float(v) for v in root_rotation)
            tx, ty, tz = (float(v) for v in root_translation)
        else:
            sweep(link["parent"])
            pw, px, py, pz = quats[link["parent"]]
            tx, ty, tz = trans[link["parent"]]
        offset = link.get("offset", identity)
        q = np.asarray(offset["rotation"], dtype=float)
        ow, ox, oy, oz = (q / np.linalg.norm(q)).tolist()
        vx, vy, vz = (float(v) for v in offset["translation"])
        cx = 2.0 * (py * vz - pz * vy)
        cy = 2.0 * (pz * vx - px * vz)
        cz = 2.0 * (px * vy - py * vx)
        trans[i] = (tx + vx + pw * cx + py * cz - pz * cy,
                    ty + vy + pw * cy + pz * cx - px * cz,
                    tz + vz + pw * cz + px * cy - py * cx)
        qw = pw * ow - px * ox - py * oy - pz * oz
        qx = pw * ox + px * ow + py * oz - pz * oy
        qy = pw * oy - px * oz + py * ow + pz * ox
        qz = pw * oz + px * oy - py * ox + pz * ow
        joint = joint_of_link.get(link["name"])
        if joint is None:
            quats[i] = (qw, qx, qy, qz)
            return
        axis = np.asarray(joint["axis"], dtype=float)
        ax, ay, az = (axis / np.linalg.norm(axis)).tolist()
        half = 0.5 * effective[joint["name"]]
        s = math.sin(half)
        jw, jx, jy, jz = math.cos(half), s * ax, s * ay, s * az
        quats[i] = (qw * jw - qx * jx - qy * jy - qz * jz,
                    qw * jx + qx * jw + qy * jz - qz * jy,
                    qw * jy - qx * jz + qy * jw + qz * jx,
                    qw * jz + qx * jy - qy * jx + qz * jw)

    for i in range(len(links)):
        sweep(i)
    index = {l["name"]: i for i, l in enumerate(links)}
    return np.array([trans[index[n]] for n in doc["fingertip_links"]]), quats, trans


def chain_jacobian(doc, root_matrix, joint_angles, step=1e-6):
    """Central-difference jacobian of `chain_fingertips`, (3K, 6 + J).

    The first six columns perturb the root on its body side by a rotation
    about one wrist axis (Rodrigues) or a shift along it; the rest perturb
    one joint angle each, so a mimic joint's own column comes out zero.
    """
    angles = np.asarray(joint_angles, dtype=float)
    root_matrix = np.asarray(root_matrix, dtype=float)
    columns = []
    for c in range(6 + len(angles)):
        sides = []
        for h in (step, -step):
            root, moved = root_matrix, angles.copy()
            if c < 3:
                root = root_matrix @ homogeneous(rodrigues(np.eye(3)[c], h), (0.0, 0.0, 0.0))
            elif c < 6:
                root = root_matrix @ homogeneous(np.eye(3), h * np.eye(3)[c - 3])
            else:
                moved[c - 6] += h
            sides.append(chain_fingertips(doc, root, moved).ravel())
        columns.append((sides[0] - sides[1]) / (2.0 * step))
    return np.stack(columns, axis=1)


def sweep_jacobian(doc, root_rotation, root_translation, quats, trans):
    """Geometric jacobian (3K, 6 + J) assembled in whole numpy arrays from one
    FK sweep: `quats` and `trans` give every link's world pose in document
    link order.

    Columns are built for every axis and tip at once, with `np.cross`, then
    masked by the tips each axis moves (a product with 0.0 keeps the sign of
    the cross product) and the mimic columns folded onto their drivers by
    one matmul.  Rounding and signed zeros are the reference for the
    package's Python-float assembly, bit for bit.
    """
    link_index = {l["name"]: i for i, l in enumerate(doc["links"])}
    joint_index = {j["name"]: i for i, j in enumerate(doc["joints"])}
    joint_of_link = {link_index[j["child_link"]]: i for i, j in enumerate(doc["joints"])}
    frames = (-1, -1, -1) + tuple(link_index[j["child_link"]] for j in doc["joints"])
    axes = np.vstack([np.eye(3)] + [np.array(j["axis"], dtype=float) / np.linalg.norm(j["axis"])
                                    for j in doc["joints"]])
    tip_ids = [link_index[n] for n in doc["fingertip_links"]]
    moves = np.zeros((len(tip_ids), len(frames), 1))
    moves[:, :3] = 1.0
    for k, i in enumerate(tip_ids):
        while i >= 0:
            if i in joint_of_link:
                moves[k, 3 + joint_of_link[i]] = 1.0
            i = doc["links"][i]["parent"]
    fold = np.eye(len(doc["joints"]))
    for m in doc.get("mimics", []):
        j = joint_index[m["joint"]]
        fold[j, j] = 0.0
        fold[j, joint_index[m["driver"]]] = float(m.get("ratio", 1.0))

    q = np.array([root_rotation if i < 0 else quats[i] for i in frames], dtype=float)
    origins = np.array([root_translation if i < 0 else trans[i] for i in frames], dtype=float)
    # rotate each axis into the world: v + 2w (u x v) + 2u x (u x v)
    turn = 2.0 * np.cross(q[:, 1:], axes)
    world = axes + q[:, :1] * turn + np.cross(q[:, 1:], turn)
    tips = np.array([trans[i] for i in tip_ids], dtype=float)
    cols = np.cross(world, tips[:, None] - origins) * moves      # (K, 3 + J, 3)
    rows = cols.transpose(0, 2, 1).reshape(3 * len(tips), -1)
    return np.hstack([rows[:, :3], np.tile(world[:3].T, (len(tips), 1)), rows[:, 3:] @ fold])


# ---------------------------------------------------------------------------
# point-to-triangle-mesh distance (Ericson region classification)
# ---------------------------------------------------------------------------

def _safe_div(num, den):
    return num / np.where(np.abs(den) > 0.0, den, 1.0)


def _dot(u, v):
    """Dots over the last axis in the package's written order, (u0 v0 + u2 v2)
    + u1 v1, one rounded product or sum per element: brute-force answers
    match the package bit for bit without resting on how numpy sums."""
    return (u[..., 0] * v[..., 0] + u[..., 2] * v[..., 2]) + u[..., 1] * v[..., 1]


def _triangle_closest(a, b, c, pts):
    """Closest point on triangle abc for every row of pts; the corners are
    3-vectors, or one row per point."""
    a, b, c = (np.broadcast_to(corner, pts.shape) for corner in (a, b, c))
    ab = b - a
    ac = c - a
    ap = pts - a
    d1 = _dot(ap, ab)
    d2 = _dot(ap, ac)
    bp = pts - b
    d3 = _dot(bp, ab)
    d4 = _dot(bp, ac)
    cp = pts - c
    d5 = _dot(cp, ab)
    d6 = _dot(cp, ac)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    on_a = (d1 <= 0.0) & (d2 <= 0.0)
    on_b = (d3 >= 0.0) & (d4 <= d3)
    on_c = (d6 >= 0.0) & (d5 <= d6)
    on_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0)
    on_ac = (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0)
    on_bc = (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0)

    v_ab = _safe_div(d1, d1 - d3)
    w_ac = _safe_div(d2, d2 - d6)
    w_bc = _safe_div(d4 - d3, (d4 - d3) + (d5 - d6))
    denom = _safe_div(np.ones_like(va), va + vb + vc)

    q = a + (vb * denom)[:, None] * ab + (vc * denom)[:, None] * ac
    q = np.where(on_bc[:, None], b + w_bc[:, None] * (c - b), q)
    q = np.where(on_ac[:, None], a + w_ac[:, None] * ac, q)
    q = np.where(on_ab[:, None], a + v_ab[:, None] * ab, q)
    q = np.where(on_c[:, None], c, q)
    q = np.where(on_b[:, None], b, q)
    q = np.where(on_a[:, None], a, q)
    return q


def mesh_closest(vertices, triangles, pts):
    """Brute-force (squared distance, triangle, surface point) for every point.

    Every triangle is tried in index order and only a strictly closer one
    replaces the best so far, so ties go to the lowest triangle index.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vertices = np.asarray(vertices, dtype=float)
    best_d2 = np.full(len(pts), np.inf)
    best_tri = np.full(len(pts), -1)
    best_q = np.zeros_like(pts)
    for t, (i, j, k) in enumerate(np.asarray(triangles, dtype=int)):
        q = _triangle_closest(vertices[i], vertices[j], vertices[k], pts)
        d2 = _dot(q - pts, q - pts)
        closer = d2 < best_d2
        best_d2[closer] = d2[closer]
        best_tri[closer] = t
        best_q[closer] = q[closer]
    return best_d2, best_tri, best_q


def mesh_sqdist(vertices, triangles, pts):
    """Brute-force squared distance to the surface for every point."""
    return mesh_closest(vertices, triangles, pts)[0]


def mesh_closest_point(vertices, triangles, point):
    """Brute-force (distance, surface point) for a single query."""
    d2, _, q = mesh_closest(vertices, triangles, np.asarray(point, dtype=float)[None, :])
    return math.sqrt(d2[0]), q[0]


# ---------------------------------------------------------------------------
# OBJ text, one line at a time
# ---------------------------------------------------------------------------

def _obj_corner(token):
    """Zero-based vertex index of an f-record corner `v[/vt[/vn]]`."""
    head = token.split("/")[0]
    try:
        i = int(head)
    except ValueError:
        raise ValueError(f"face index '{head}' not an integer") from None
    if i <= 0:
        raise ValueError(f"face index {i} must be positive (1-based)")
    return i - 1


def obj_arrays(path, scale=1.0, max_length=100.0, min_area=1e-14):
    """(vertices, triangles, findings) of an OBJ file, read line by line.

    Only v and f records count, and faces must be triangles.  Findings are
    prefixed with the file name and come in line order, then out-of-range
    indices face by face; a face's area is measured only when there is no
    other finding, and the surface's closure only when every area passes.
    The scaled vertices must lie within +-`max_length`, every face must
    have an area of at least `min_area`, every edge must be walked once
    each way, and the exact signed volume of the scaled vertices must be
    positive.  No findings means the arrays are the mesh.
    """
    name = os.path.basename(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    vertices, vertex_lines, faces, findings = [], [], [], []
    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "v":
            if len(tokens) < 4:
                findings.append(f"line {lineno}: vertex needs 3 coordinates")
                continue
            try:
                vertices.append([float(t) for t in tokens[1:4]])
                vertex_lines.append(lineno)
            except ValueError:
                findings.append(f"line {lineno}: vertex coordinates not numeric")
        elif tokens[0] == "f":
            if len(tokens) != 4:
                findings.append(f"line {lineno}: face {len(faces) + 1} has "
                                f"{len(tokens) - 1} vertices; only triangles supported")
                continue
            try:
                faces.append([_obj_corner(t) for t in tokens[1:]])
            except ValueError as exc:
                findings.append(f"line {lineno}: {exc}")
    scaled = []
    for k, corner in enumerate(vertices):
        with np.errstate(over="ignore"):
            point = [c * float(scale) for c in np.array(corner)]
        if not all(abs(c) <= max_length for c in point):
            after = " after mesh_scale" if all(abs(c) <= max_length for c in corner) else ""
            findings.append(f"line {vertex_lines[k]}: vertex coordinates not within "
                            f"+-{max_length:g} m{after}")
        scaled.append(point)
    if not faces and not findings:
        findings.append("no faces: mesh must contain at least one triangle")
    for k, face in enumerate(faces):
        for i in face:
            if i >= len(vertices):
                findings.append(f"face {k + 1}: vertex index {i + 1} out of range "
                                f"({len(vertices)} vertices)")
    v = np.array(scaled, dtype=float).reshape(-1, 3)
    f = None
    if not findings:
        f = np.array(faces, dtype=np.int64).reshape(-1, 3)
        area = 0.5 * np.linalg.norm(np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]),
                                    axis=1)
        findings = [f"face {k + 1}: degenerate (zero area)"
                    for k in np.flatnonzero(area < min_area).tolist()]
    if not findings:
        findings = _closure_findings(faces, scaled)
    return v, f, [f"{name}: {x}" for x in findings]


def _closure_findings(faces, vertices):
    """Edges walked by one face, directed edges walked twice, and, for a
    surface free of both, an exact signed volume that is not positive."""
    walks = Counter((face[k], face[(k + 1) % 3]) for face in faces for k in range(3))
    lone = sum(1 for (a, b), n in walks.items() if n == 1 and (b, a) not in walks)
    same = sum(1 for n in walks.values() if n > 1)
    findings = [f"{lone} edges belong to one face"] if lone else []
    if same:
        findings.append(f"{same} edges are walked the same way by two faces")
    if findings:
        return findings
    volume = 0
    for face in faces:
        (ax, ay, az), (bx, by, bz), (cx, cy, cz) = (
            [Fraction(float(x)) for x in vertices[i]] for i in face)
        volume += ax * (by * cz - bz * cy) + ay * (bz * cx - bx * cz) + az * (bx * cy - by * cx)
    return [] if volume > 0 else ["faces wind inward (signed volume <= 0)"]


# ---------------------------------------------------------------------------
# angle-weighted pseudonormals (Baerentzen & Aanaes), one triangle at a time
# ---------------------------------------------------------------------------

def pseudonormal_frames(vertices, triangles):
    """Vertex normals (n, 3) and {(i, j): edge normal} with i < j.

    A vertex normal sums each incident face normal weighted by the face's
    angle at that vertex; an edge normal sums the normals of the faces
    sharing the edge.  Both are normalized unless (near) zero.  Every dot
    product is `_dot`'s written sum, which gives the same bits under any
    BLAS kernel.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(triangles, dtype=int)
    fn = np.cross(v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]])
    fn /= np.linalg.norm(fn, axis=1, keepdims=True)
    vertex_normals = np.zeros_like(v)
    edge_sums = {}
    for t in range(len(f)):
        corners = (int(f[t, 0]), int(f[t, 1]), int(f[t, 2]))
        pts = v[list(corners)]
        for k in range(3):
            e1 = pts[(k + 1) % 3] - pts[k]
            e2 = pts[(k + 2) % 3] - pts[k]
            cosang = float(_dot(e1, e2)) / (math.sqrt(_dot(e1, e1)) * math.sqrt(_dot(e2, e2)))
            vertex_normals[corners[k]] += math.acos(max(-1.0, min(1.0, cosang))) * fn[t]
        for k in range(3):
            e = (min(corners[k], corners[(k + 1) % 3]), max(corners[k], corners[(k + 1) % 3]))
            edge_sums[e] = edge_sums.get(e, 0.0) + fn[t]

    def unit(s):
        n = math.sqrt(_dot(s, s))
        return s / n if n > 1e-12 else np.array(s)

    return (np.array([unit(s) for s in vertex_normals]).reshape(-1, 3),
            {e: unit(s) for e, s in edge_sums.items()})


def convex_side(vertices, triangles, pts):
    """+1 outside, -1 inside a closed convex mesh, by its face half-spaces.

    Each face plane comes from its own cross product; a point is inside when
    it lies below every plane, with no nearest-feature reasoning at all.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    vertices = np.asarray(vertices, dtype=float)
    height = np.full(len(pts), -np.inf)
    for i, j, k in np.asarray(triangles, dtype=int):
        a, b, c = vertices[i], vertices[j], vertices[k]
        n = np.cross(b - a, c - a)
        height = np.maximum(height, (pts - a) @ (n / np.linalg.norm(n)))
    return np.where(height > 0.0, 1.0, -1.0)


def box_sdf(extents, point):
    """Analytic signed distance of an origin-centered axis-aligned box."""
    q = np.abs(np.asarray(point, dtype=float)) - 0.5 * np.asarray(extents, dtype=float)
    outside = math.sqrt(float((np.maximum(q, 0.0) ** 2).sum()))
    inside = min(float(q.max()), 0.0)
    return outside + inside


def depth_grid_argmin(vertices, triangles, pts, half_range=0.15,
                      coarse_step=1e-3, fine_step=1e-5):
    """Grid search for the depth shift minimizing summed squared distances.

    A coarse full-range pass pins down the basin, then a fine pass at
    `fine_step` resolution scans one coarse cell on either side of it.
    """
    pts = np.asarray(pts, dtype=float)

    def objective(deltas):
        shifted = np.repeat(pts[None, :, :], len(deltas), axis=0)
        shifted[:, :, 2] += np.asarray(deltas)[:, None]
        d2 = mesh_sqdist(vertices, triangles, shifted.reshape(-1, 3))
        return d2.reshape(len(deltas), len(pts)).sum(axis=1)

    coarse = np.arange(-half_range, half_range + 0.5 * coarse_step, coarse_step)
    i = int(np.argmin(objective(coarse)))
    lo = coarse[max(i - 1, 0)]
    hi = coarse[min(i + 1, len(coarse) - 1)]
    fine = np.arange(lo, hi + 0.5 * fine_step, fine_step)
    return float(fine[int(np.argmin(objective(fine)))])


class BallCulledSurface:
    """Squared distances to a triangle surface by brute force over the
    triangles a bounding-ball test cannot rule out.

    A triangle lies in the ball around its centroid through its farthest
    corner, so no point of it is closer to p than |p - centroid| - radius.
    The triangle whose ball comes closest gives an upper bound, so one whose
    ball is farther than that cannot be nearest.  Every other triangle is
    tried with the region walk of `mesh_closest`.  Both distances in the
    test move by at most d when p moves by d.
    """

    def __init__(self, vertices, triangles):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.corners = self.vertices[self.triangles]
        self.centre = self.corners.mean(axis=1)
        gap = self.corners - self.centre[:, None]
        self.radius = np.sqrt(_dot(gap, gap)).max(axis=1)

    def _sqdist(self, pts, row, tri):
        q = _triangle_closest(*self.corners[tri].swapaxes(0, 1), pts[row])
        return _dot(q - pts[row], q - pts[row])

    def candidates(self, pts, margin=0.0):
        """(row, triangle) pairs: for every row of (n, 3) points, the
        triangles that can be nearest to a point within `margin` of it."""
        near = np.sqrt(_dot(pts[:, None] - self.centre, pts[:, None] - self.centre)) - self.radius
        rows = np.arange(len(pts))
        bound = np.sqrt(self._sqdist(pts, rows, near.argmin(axis=1))) + 2.0 * margin
        return np.nonzero(near <= bound[:, None] * (1.0 + 1e-9) + 1e-12)

    def near(self, pts, margin):
        """The surface of the triangles that can be nearest to some point
        within `margin` of a row of `pts`."""
        return BallCulledSurface(self.vertices, self.triangles[
            np.unique(self.candidates(pts, margin)[1])])

    def sqdist(self, pts, cull=True, pairs=1 << 16):
        """Squared distance to the surface for every row of (n, 3) points, in
        blocks of about `pairs` point-triangle pairs; without `cull`, every
        triangle is tried."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.full(len(pts), np.inf)
        block = max(1, pairs // len(self.triangles))
        for s in range(0, len(pts), block):
            p = pts[s:s + block]
            row, tri = (self.candidates(p) if cull
                        else np.divmod(np.arange(len(p) * len(self.triangles)), len(self.triangles)))
            np.minimum.at(out, s + row, self._sqdist(p, row, tri))
        return out


def depth_line_argmin(vertices, triangles, pts, direction, half_range=0.15,
                      samples=81, tol=1e-12, flat=1e-12):
    """The shift s of least summed squared distance to the mesh of the
    points pts + s * direction, in the basin the first depth grid picks, by
    brute force (`BallCulledSurface`).

    The first grid is 61 shifts over +-half_range; None where its objective
    varies by less than `flat`.  A scan of `samples` shifts over two grid
    steps either side of its best shift (the first on a tie), within the
    range, brackets the minimum between the best sample's neighbours, and
    golden-section search narrows the bracket to `tol`; a range end in the
    bracket wins where its objective is lower.
    """
    pts, direction = np.asarray(pts, dtype=float), np.asarray(direction, dtype=float)

    def objective(surface, shifts, cull=True):
        moved = pts[None] + np.asarray(shifts, dtype=float)[:, None, None] * direction
        d2 = surface.sqdist(moved.reshape(-1, 3), cull)
        return d2.reshape(len(shifts), len(pts)).sum(axis=1)

    mesh = BallCulledSurface(vertices, triangles)
    step = half_range / 30
    grid = step * np.arange(-30, 31)
    objs = objective(mesh, grid)
    if float(objs.max() - objs.min()) < flat:
        return None
    best = float(grid[int(np.argmin(objs))])
    a, b = max(best - 2 * step, -half_range), min(best + 2 * step, half_range)
    # the scan, and then the bracket's search, ask only the triangles that
    # can be nearest within them
    mesh = mesh.near(pts + 0.5 * (a + b) * direction, 0.5 * (b - a))
    scan = np.linspace(a, b, samples)
    i = int(np.argmin(objective(mesh, scan)))
    a, b = float(scan[max(i - 1, 0)]), float(scan[min(i + 1, samples - 1)])
    mesh = mesh.near(pts + 0.5 * (a + b) * direction, 0.5 * (b - a))
    objective = functools.partial(objective, mesh, cull=False)
    # a range end in the bracket is a candidate too: the minimum may lie on it
    ends = [e for e in (a, b) if abs(e) == half_range]
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    fc, fd = objective([c, d])
    while b - a > tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - shrink * (b - a)
            fc = objective([c])[0]
        else:
            a, c, fc = c, d, fd
            d = a + shrink * (b - a)
            fd = objective([d])[0]
    candidates = [0.5 * (a + b), *ends]
    return candidates[int(np.argmin(objective(candidates)))]


def nested_depth_grid(objective, half_range=0.15, tol=1e-5, flat=1e-12):
    """The nested depth search of earlier releases, asking `objective` for
    every shift of every grid.

    `objective(deltas)` gives one objective per shift.  The first grid is 61
    shifts over +-half_range, each later one 21 shifts at a tenth of the last
    spacing, centred on the best shift so far (the first on a tie), until the
    spacing is at most `tol`.  Returns the last best shift, or None where the
    first grid's objective varies by less than `flat`.
    """
    step = half_range / 30
    deltas = step * np.arange(-30, 31)
    objs = objective(deltas)
    if float(objs.max() - objs.min()) < flat:
        return None
    delta = float(deltas[int(np.argmin(objs))])
    while step > tol:
        step /= 10
        deltas = delta + step * np.arange(-10, 11)
        delta = float(deltas[int(np.argmin(objective(deltas)))])
    return delta


# ---------------------------------------------------------------------------
# geometric contact onset, one finger at a time
# ---------------------------------------------------------------------------

def engagement_per_finger(fingertip, depth, lo, hi, samples=33, tol=1e-6):
    """Contact onset of every finger by its own sweep, then its own bisection.

    The independent reference for `pipeline.derive_engagement`, which closes
    the same grid bracket by ITP steps in lockstep instead: both onsets lie
    within tol / 2 of a surface crossing in that bracket, so they agree
    within tol, and exactly where a finger sits at lo or +inf.

    `fingertip(k, angle)` is fingertip k with only finger k's driver moved
    to `angle`; `depth(point)` is the signed surface distance of one point.
    A driver that does not close (hi <= lo + 1e-12) counts only a touch at
    lo; a finger that starts inside gets lo, one that never crosses +inf.
    """
    out = []
    for k, (a, b) in enumerate(zip((float(v) for v in lo), (float(v) for v in hi))):
        if b <= a + 1e-12:
            out.append(a if depth(fingertip(k, a)) <= 0.0 else math.inf)
            continue
        grid = np.linspace(a, b, samples)
        inside = [depth(fingertip(k, angle)) <= 0.0 for angle in grid]
        if inside[0] or not any(inside):
            out.append(a if inside[0] else math.inf)
            continue
        i = inside.index(True)
        a, b = float(grid[i - 1]), float(grid[i])
        while (b - a) > tol:
            mid = 0.5 * (a + b)
            if depth(fingertip(k, mid)) <= 0.0:
                b = mid
            else:
                a = mid
        out.append(0.5 * (a + b))
    return np.array(out)


# ---------------------------------------------------------------------------
# grasp controller recursion, scalar python
# ---------------------------------------------------------------------------

def pd_spring_episode(start, squeeze, stiffness, engagement, f_target,
                      kp=5.0, kd=0.1, dt=0.01, max_steps=1000,
                      lock_enabled=True, command_eps=1e-9,
                      noise_sigma=0.0, seed=0):
    """Replay the closing loop step by step with plain floats.

    Spring: f = k * max(0, pos - engagement).  With noise_sigma > 0 each
    reading (every step's and the final one) adds one seeded gaussian draw
    per finger and is clipped at zero.  A finger locks the first
    time its force reaches f_target and holds that position forever.  PD
    on the position error with the derivative of the error; positions
    integrate explicitly; the loop ends when every command settles.
    """
    k = len(start)
    pos = [float(v) for v in start]
    stiffness = [float(v) for v in stiffness]
    engagement = [float(v) for v in engagement]
    squeeze = [float(v) for v in squeeze]
    locked = [False] * k
    hold = [0.0] * k
    last_err = None
    threshold = float(f_target) if lock_enabled else math.inf
    rows_pos, rows_force, rows_cmd, rows_locked = [], [], [], []

    rng = np.random.default_rng(seed) if noise_sigma > 0.0 else None

    def spring(p):
        forces = [stiffness[i] * max(0.0, p[i] - engagement[i]) for i in range(k)]
        if rng is not None:
            noise = rng.normal(0.0, noise_sigma, k).tolist()
            forces = [max(0.0, forces[i] + noise[i]) for i in range(k)]
        return forces

    for _ in range(max_steps):
        forces = spring(pos)
        for i in range(k):
            if not locked[i] and forces[i] >= threshold:
                locked[i] = True
                hold[i] = pos[i]
        err = [(hold[i] if locked[i] else squeeze[i]) - pos[i] for i in range(k)]
        der = [0.0] * k if last_err is None else [
            (err[i] - last_err[i]) / dt for i in range(k)]
        cmd = [kp * err[i] + kd * der[i] for i in range(k)]
        rows_pos.append(list(pos))
        rows_force.append(forces)
        rows_cmd.append(list(cmd))
        rows_locked.append(list(locked))
        for i in range(k):
            pos[i] += cmd[i] * dt
        last_err = err
        if max(abs(c) for c in cmd) < command_eps:
            break

    return {
        "positions": np.array(rows_pos),
        "forces": np.array(rows_force),
        "commands": np.array(rows_cmd),
        "locked": np.array(rows_locked, dtype=bool),
        "final_positions": np.array(pos),
        "final_forces": np.array(spring(pos)),
    }


def trace_csv_per_value(trace):
    """trace.csv text with every value formatted on its own, as f"{v:.9g}"."""
    k = trace.positions.shape[1]
    lines = [",".join(["step"] + [f"{col}_{i}" for col in ("position", "force", "command", "locked")
                                  for i in range(k)])]
    for step in range(len(trace.positions)):
        values = [*trace.positions[step], *trace.forces[step], *trace.commands[step]]
        lines.append(",".join([str(step)] + [f"{v:.9g}" for v in values]
                              + [str(int(v)) for v in trace.locked[step]]))
    return "\n".join(lines) + "\n"
