import functools
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from cases import (
    box_mesh,
    break_obj,
    cylinder_mesh,
    grid_mesh,
    icosphere,
    pose_from_axis_angle,
    pose_to_matrix,
    rotation_angle,
    subdivide,
)
from dextra import geometry
from dextra.errors import MAX_LENGTH, EmptyMesh, SchemaError
from dextra.geometry import (
    SE3Pose,
    TriangleMesh,
    compose,
    identity_pose,
    invert,
    load_obj,
    pose_from_record,
    pose_from_rotvec,
    pose_to_record,
    rotate_vector,
    save_obj,
    save_points_obj,
    sq_distance_floor,
    surface_query,
    transform_mesh,
    transform_points,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False)
quats = st.tuples(finite, finite, finite, finite).filter(
    lambda q: sum(v * v for v in q) > 1e-6)
vec3 = st.tuples(finite, finite, finite)


def _pose(q, t):
    return SE3Pose(np.asarray(q, dtype=float), np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# poses
# ---------------------------------------------------------------------------

def test_pose_normalizes_quaternion():
    p = _pose((2.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    assert np.allclose(p.rotation, [1.0, 0.0, 0.0, 0.0])
    assert np.isclose(np.linalg.norm(p.rotation), 1.0)


def test_zero_quaternion_rejected():
    with pytest.raises(ValueError):
        _pose((0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))


def test_pose_arrays_read_only():
    p = _pose((1.0, 0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        p.translation[0] = 9.0
    with pytest.raises(ValueError):
        p.rotation[0] = 9.0


@given(q=quats, t=vec3, p=vec3)
def test_transform_point_matches_matrix_oracle(q, t, p):
    pose = _pose(q, t)
    m = oracles.homogeneous(oracles.quat_matrix(q), t)
    expected = (m @ np.array([*p, 1.0]))[:3]
    assert np.allclose(transform_points(pose, p)[0], expected, atol=1e-9)


@given(q=quats, t=vec3)
def test_pose_to_matrix_matches_oracle(q, t):
    m = pose_to_matrix(_pose(q, t))
    assert np.allclose(m, oracles.homogeneous(oracles.quat_matrix(q), t), atol=1e-12)
    assert np.array_equal(m[3], [0.0, 0.0, 0.0, 1.0])


@given(qa=quats, ta=vec3, qb=quats, tb=vec3, p=vec3)
def test_compose_matches_matrix_product(qa, ta, qb, tb, p):
    a, b = _pose(qa, ta), _pose(qb, tb)
    m = pose_to_matrix(a) @ pose_to_matrix(b)
    got = transform_points(compose(a, b), p)[0]
    assert np.allclose(got, (m @ np.array([*p, 1.0]))[:3], atol=1e-9)


@given(q=quats, t=vec3, p=vec3)
def test_invert_roundtrip(q, t, p):
    pose = _pose(q, t)
    back = transform_points(invert(pose), transform_points(pose, p))[0]
    assert np.allclose(back, p, atol=1e-9)


@given(q=quats, t=vec3, v=vec3)
def test_rotate_vector_preserves_norm(q, t, v):
    got = rotate_vector(_pose(q, t), v)
    assert np.isclose(np.linalg.norm(got), np.linalg.norm(np.asarray(v)), atol=1e-9)


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@given(qa=quats, ta=vec3, qb=quats, tb=vec3, v=vec3,
       pts=st.lists(vec3, min_size=1, max_size=6))
def test_pose_helpers_match_np_cross_bit_for_bit(qa, ta, qb, tb, v, pts):
    a, b = _pose(qa, ta), _pose(qb, tb)
    v, pts = np.asarray(v, dtype=float), np.asarray(pts, dtype=float)
    assert _same_bits(compose(a, b).translation,
                      oracles.quat_rotate_cross(a.rotation, b.translation) + a.translation)
    conj = a.rotation * [1.0, -1.0, -1.0, -1.0]
    assert _same_bits(invert(a).translation, -oracles.quat_rotate_cross(conj, a.translation))
    assert _same_bits(transform_points(a, pts),
                      oracles.quat_rotate_cross(a.rotation, pts) + a.translation[None, :])
    assert _same_bits(rotate_vector(a, v), oracles.quat_rotate_cross(a.rotation, v))


def test_transform_points_batch():
    pose = pose_from_axis_angle((0.0, 0.0, 1.0), np.pi / 2, (1.0, 0.0, 0.0))
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    got = transform_points(pose, pts)
    assert np.allclose(got, [[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]], atol=1e-12)


def test_pose_from_rotvec_small_angle():
    p = pose_from_rotvec((1e-14, 0.0, 0.0))
    assert np.all(np.isfinite(p.rotation))
    assert np.isclose(rotation_angle(p, identity_pose()), 0.0, atol=1e-12)


def test_pose_from_rotvec_matches_axis_angle():
    rv = np.array([0.3, -0.2, 0.5])
    angle = np.linalg.norm(rv)
    a = pose_from_rotvec(rv)
    b = pose_from_axis_angle(rv / angle, angle)
    assert np.isclose(rotation_angle(a, b), 0.0, atol=1e-12)


def test_pose_record_roundtrip():
    pose = pose_from_rotvec((0.1, 0.2, 0.3), (4.0, 5.0, 6.0))
    rec = pose_to_record(pose)
    assert sorted(rec) == ["rotation", "translation"]
    back = pose_from_record(rec)
    assert np.allclose(back.rotation, pose.rotation)
    assert np.allclose(back.translation, pose.translation)


def test_rotation_angle_known_quarter_turn():
    a = pose_from_axis_angle((0.0, 0.0, 1.0), np.pi / 2)
    assert np.isclose(rotation_angle(a, identity_pose()), np.pi / 2, atol=1e-12)
    assert np.isclose(rotation_angle(identity_pose(), a), np.pi / 2, atol=1e-12)


def test_rotation_angle_sign_convention():
    # q and -q are the same rotation
    a = _pose((0.5, 0.5, 0.5, 0.5), (0.0, 0.0, 0.0))
    b = _pose((-0.5, -0.5, -0.5, -0.5), (0.0, 0.0, 0.0))
    assert np.isclose(rotation_angle(a, b), 0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# mesh primitives
# ---------------------------------------------------------------------------

def test_box_mesh_extents():
    mesh = box_mesh((0.2, 0.4, 0.6))
    assert np.allclose(np.abs(mesh.vertices).max(axis=0), [0.1, 0.2, 0.3])
    assert np.allclose(mesh.vertices.mean(axis=0), 0.0, atol=1e-12)


def test_box_mesh_normals_point_outward():
    mesh = box_mesh((0.2, 0.2, 0.2))
    centroids = mesh.vertices[mesh.triangles].mean(axis=1)
    assert np.all((mesh.face_normals * centroids).sum(axis=1) > 0.0)
    assert np.allclose(np.linalg.norm(mesh.face_normals, axis=1), 1.0)


def test_box_volume_by_divergence():
    extents = (0.3, 0.25, 0.11)
    mesh = box_mesh(extents)
    tri = mesh.vertices[mesh.triangles]
    volume = float(np.einsum("ij,ij->i", tri[:, 0],
                             np.cross(tri[:, 1], tri[:, 2])).sum()) / 6.0
    assert np.isclose(volume, np.prod(extents), rtol=1e-12)


def test_icosphere_vertices_on_radius():
    mesh = icosphere(0.07, subdivisions=2)
    assert np.allclose(np.linalg.norm(mesh.vertices, axis=1), 0.07, atol=1e-9)


def test_icosphere_watertight_euler():
    mesh = icosphere(1.0, subdivisions=1)
    edges = {tuple(sorted(e)) for t in mesh.triangles
             for e in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0]))}
    assert len(mesh.vertices) - len(edges) + len(mesh.triangles) == 2


def test_cylinder_dimensions():
    mesh = cylinder_mesh(0.05, 0.3, segments=24)
    z = mesh.vertices[:, 2]
    assert np.isclose(z.max(), 0.15) and np.isclose(z.min(), -0.15)
    r = np.linalg.norm(mesh.vertices[:, :2], axis=1)
    assert r.max() <= 0.05 + 1e-12


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 2]]))


def test_faces_whose_area_overflows_are_refused():
    # finite corners whose cross product or its norm overflows: the face is
    # named, and no numpy warning escapes.  A huge translation collapses a
    # small mesh's corners onto each other, so every face is degenerate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^triangle 0: area not finite$"):
            TriangleMesh([[0, 0, 0], [1e200, 0, 0], [0, 1e200, 0]], [[0, 1, 2]])
        with pytest.raises(ValueError, match=r"^triangle 1: area not finite$"):
            TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1e100, 0, 0], [0, 1e100, 0]],
                         [[0, 1, 2], [0, 3, 4]])
        with pytest.raises(ValueError, match=r"^triangle 0: degenerate \(zero area\); "
                                             r"triangle 1: degenerate"):
            transform_mesh(box_mesh(), pose_from_rotvec((0.0, 0.0, 0.0), (1e200, 1e200, 1e200)))


def test_triangle_index_out_of_range():
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 3]]))


# ---------------------------------------------------------------------------
# nearest point and signed distance
# ---------------------------------------------------------------------------

MUG_OBJ = Path(__file__).resolve().parents[1] / "scenes" / "mug-01" / "object.obj"
# all convex; the tetrahedron's face normals are 109 degrees apart, so
# outside its edges and corners a face normal alone can give the wrong sign
SURFACE_MESHES = {
    "box": lambda: box_mesh((0.2, 0.3, 0.15)),
    "sphere": lambda: icosphere(0.1, subdivisions=1),
    "mug": lambda: load_obj(MUG_OBJ),
    "tetra": lambda: TriangleMesh(
        0.1 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]),
        np.array([[0, 1, 2], [0, 3, 1], [0, 2, 3], [1, 3, 2]])),
}


def _points_around(mesh, n, seed):
    """Random points in the mesh's bounding box grown by half its size."""
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    pad = 0.5 * (hi - lo)
    return np.random.default_rng(seed).uniform(lo - pad, hi + pad, size=(n, 3))


@pytest.mark.parametrize("name", list(SURFACE_MESHES))
def test_nearest_point_matches_brute_force(name):
    mesh = SURFACE_MESHES[name]()
    points = _points_around(mesh, 40, 3)
    hits = surface_query(mesh, points)
    assert np.allclose(hits.sq_distance,
                       oracles.mesh_sqdist(mesh.vertices, mesh.triangles, points),
                       rtol=0.0, atol=1e-15)
    assert np.array_equal(np.sign(hits.distance),
                          oracles.convex_side(mesh.vertices, mesh.triangles, points))
    for i, point in enumerate(points):
        d_ref, q_ref = oracles.mesh_closest_point(mesh.vertices, mesh.triangles, point)
        assert abs(abs(hits.distance[i]) - d_ref) < 1e-9
        assert np.isclose(np.linalg.norm(point - hits.point[i]), d_ref, atol=1e-9)
        assert np.linalg.norm(hits.point[i] - q_ref) < 1e-6 or np.isclose(
            np.linalg.norm(point - q_ref), d_ref, atol=1e-9)


def test_surface_distance_matches_analytic_box():
    extents = np.array([0.2, 0.3, 0.15])
    mesh = box_mesh(extents)
    rng = np.random.default_rng(11)
    # corners and edge midpoints, pushed a little in and out: outside, the
    # nearest feature is a vertex or an edge rather than a face
    corners = 0.5 * extents * np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    edges = np.array([0.5 * (a + b) for i, a in enumerate(corners) for b in corners[i + 1:]
                      if np.count_nonzero(a != b) == 1])
    features = np.vstack([corners, edges])
    near = np.vstack([features * scale for scale in (0.98, 1.0 + 1e-9, 1.02)]
                     + [features + rng.normal(scale=2e-3, size=features.shape)])
    points = np.vstack([rng.uniform(-0.25, 0.25, size=(60, 3)), near])
    expected = [oracles.box_sdf(extents, p) for p in points]
    assert np.allclose(surface_query(mesh, points).distance, expected, atol=1e-9)


def test_surface_distance_sign_inside_sphere():
    mesh = icosphere(0.1, subdivisions=2)
    distance = surface_query(mesh, [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0)]).distance
    assert distance[0] < 0.0 < distance[1]


def test_surface_normal_is_unit():
    mesh = box_mesh((0.1, 0.1, 0.1))
    hits = surface_query(mesh, (0.0, 0.0, 0.3))
    assert hits.normal.shape == (1, 3)
    assert np.isclose(np.linalg.norm(hits.normal[0]), 1.0)
    assert np.allclose(hits.normal[0], [0.0, 0.0, 1.0], atol=1e-12)


def test_empty_mesh_rejected():
    empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int))
    for points in ((0.0, 0.0, 0.0), np.zeros((4, 3))):
        with pytest.raises(EmptyMesh):
            surface_query(empty, points)


def test_non_finite_query_points_rejected():
    mesh = box_mesh((0.1, 0.1, 0.1))
    for bad in (np.nan, np.inf, -np.inf):
        points = np.zeros((3, 3))
        points[1, 2] = bad
        with pytest.raises(ValueError, match="must be finite"):
            surface_query(mesh, points)
        with pytest.raises(ValueError, match="must be finite"):
            surface_query(mesh, (0.0, bad, 0.0))


def test_empty_point_batch_has_zero_rows():
    # on a mesh of at most _FIRST_WALK triangles, a flat one and a leaf one
    for mesh in (SURFACE_MESHES["tetra"](), box_mesh((0.1, 0.1, 0.1)), icosphere(subdivisions=4)):
        hits = surface_query(mesh, np.zeros((0, 3)))
        for field, shape in (("sq_distance", (0,)), ("triangle", (0,)), ("point", (0, 3)),
                             ("normal", (0, 3)), ("distance", (0,))):
            assert getattr(hits, field).shape == shape, field


def test_squared_distances_match_nearest_point():
    for name, make in SURFACE_MESHES.items():
        mesh = make()
        pts = _points_around(mesh, 25, 5)
        batch = surface_query(mesh, pts)
        # distances alone never build the corner index of the pseudonormals
        assert batch.sq_distance.shape == (25,)
        assert "corners" not in mesh._cache, name
        for i, p in enumerate(pts):
            one = surface_query(mesh, p)
            # rows are independent: a batch agrees with single queries bit for bit
            assert one.sq_distance[0] == batch.sq_distance[i], name
            assert one.triangle[0] == batch.triangle[i], name
            assert np.array_equal(one.point[0], batch.point[i]), name
            assert np.array_equal(one.normal[0], batch.normal[i]), name
            assert one.distance[0] == batch.distance[i], name
            assert np.isclose(batch.sq_distance[i], batch.distance[i] ** 2, atol=1e-12)


def _first_triangles(mesh, m):
    return TriangleMesh(mesh.vertices, mesh.triangles[:m])


BUNDLED_OBJS = sorted((Path(__file__).resolve().parents[1] / "scenes").rglob("object.obj"))
# the query's bound cull and the pseudonormal frames are checked bit for bit
# against full scans on these, plus every bundled object mesh
EXACT_MESHES = {
    "icosphere-4": lambda: icosphere(subdivisions=4),
    "box": SURFACE_MESHES["box"],
    "tetra": SURFACE_MESHES["tetra"],
    # far from the origin, coordinates round at a larger magnitude than the
    # mesh's own size
    "mug-far": lambda: transform_mesh(load_obj(MUG_OBJ),
                                      pose_from_rotvec((0.3, 0.2, -0.1), (3.0, -4.0, 2.0))),
    # the dense-mesh benchmark object: 3072 triangles on the mug's surface
    "mug-dense": lambda: subdivide(load_obj(MUG_OBJ), 2),
    # the mug subdivided once: 768 triangles, 24 leaves
    "mug-768": lambda: subdivide(load_obj(MUG_OBJ), 1),
    # 200 triangles: 7 leaves, the last one padded
    "cylinder-50": lambda: cylinder_mesh(0.05, 0.2, segments=50),
    # 196 triangles: 7 leaves, the fewest a mesh with a leaf level gets
    "cylinder-49": lambda: cylinder_mesh(0.05, 0.2, segments=49),
    # its first 193 triangles, the fewest that get a leaf level
    "cylinder-193": lambda: _first_triangles(cylinder_mesh(0.05, 0.2, segments=49), 193),
    # zero extent along z, where every centroid has the same Morton cell
    "flat-grid": lambda: grid_mesh(0.2, cells=12),
    **{f"obj-{path.parent.name}": (lambda path=path: load_obj(path)) for path in BUNDLED_OBJS},
}
LEAF_MESHES = ("icosphere-4", "mug-dense", "mug-768", "cylinder-50", "cylinder-49",
               "cylinder-193", "flat-grid")


def _feature_points(mesh, per_kind=300, seed=0):
    """Vertices, edge midpoints and face centroids (at most `per_kind` each),
    the same pushed 1e-12 along random directions, far points, and the
    centre, where a closed mesh's triangles (nearly) all tie."""
    rng = np.random.default_rng(seed)
    v, f = mesh.vertices, mesh.triangles
    edges = np.unique(np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1),
                      axis=0)
    kinds = [v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]]), v[f].mean(axis=1)]
    features = np.vstack([pts[rng.permutation(len(pts))[:per_kind]] for pts in kinds])
    unit = rng.normal(size=features.shape)
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    lo, hi = v.min(axis=0), v.max(axis=0)
    centre = 0.5 * (lo + hi)
    far = centre + 20.0 * np.linalg.norm(hi - lo) * unit[:50]
    return np.vstack([features, features + 1e-12 * unit, far, centre])


# the query paths each mesh's feature points take: "all" when the mesh has at
# most _FIRST_WALK triangles and each point walks every one, "one walk" for a
# point settled by its _FIRST_WALK lowest bounds, "second cull" for one whose
# next bound is within the cull limit (the centre of a closed mesh, which
# ties nearly every triangle), and "leaf walk" and "leaf cull" for the same
# two on a mesh with a leaf level.  On the open flat grid, whose leaf boxes
# overlap, a point in the plane can lie in more than _NEAR_LEAVES of them
QUERY_PATHS = {"tetra": {"all"}, "box": {"one walk"},
               **{name: {"leaf walk", "leaf cull"} for name in LEAF_MESHES}}


@pytest.mark.parametrize("name", list(EXACT_MESHES))
def test_query_matches_full_scan_bit_for_bit(name, monkeypatch):
    mesh = EXACT_MESHES[name]()
    points = _feature_points(mesh)
    culled = set()
    walk_rows = geometry._walk_rows

    def recorded(tri, pts, row, cand, out):
        culled.update(row.tolist())
        return walk_rows(tri, pts, row, cand, out)

    monkeypatch.setattr(geometry, "_walk_rows", recorded)
    hits = surface_query(mesh, points)
    d2, tri, q = oracles.mesh_closest(mesh.vertices, mesh.triangles, points)
    assert np.array_equal(hits.sq_distance, d2)
    assert np.array_equal(hits.triangle, tri)
    assert np.array_equal(hits.point, q)
    # the leaf level is built only for a mesh of more than 192 triangles
    leaves = "leaf_bounds" in mesh._cache
    assert leaves == (len(mesh.triangles) > 192)
    first = ("all" if len(mesh.triangles) <= geometry._FIRST_WALK
             else "leaf walk" if leaves else "one walk")
    paths = {first} if len(culled) < len(points) else set()
    paths |= {"leaf cull" if leaves else "second cull"} if culled else set()
    assert paths == QUERY_PATHS.get(name, {"one walk", "second cull"})


def test_morton_codes_interleave_ten_bits_per_axis():
    # cells span each axis's extent in 1023 steps; x's bits sit above y's
    # above z's, and an axis of zero extent puts every point in cell 0.  The
    # points are axis-major (3, n), as the leaf level stores its centroids
    pts = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [2, 0, 0],
                    [1023, 1023, 1023]], dtype=float).T.copy()
    with np.errstate(all="raise"):
        assert geometry._morton_codes(pts).tolist() == [0, 4, 2, 1, 32, 2**30 - 1]
        flat = pts.copy()
        flat[2] = 0.5
        assert geometry._morton_codes(flat).tolist() == [0, 4, 2, 0, 32, 2**30 - 1 - 0x9249249]


@pytest.mark.parametrize("name", ["mug-far", *LEAF_MESHES])
def test_leaf_bound_never_exceeds_its_triangles_bounds(name):
    mesh = EXACT_MESHES[name]()
    points = _feature_points(mesh)
    _, lo, hi, _ = geometry._triangle_bounds(mesh)
    leaf_lo, leaf_hi, members = geometry._leaf_bounds(mesh)
    m = len(mesh.triangles)
    # the first pass takes each point's (_NEAR_LEAVES + 1)-th lowest leaf
    # bound, so a mesh with a leaf level needs more leaves than that
    assert len(members) > geometry._NEAR_LEAVES
    # every triangle in exactly one leaf; the last leaf padded with its last
    assert sorted(members.ravel()[:m].tolist()) == list(range(m))
    assert np.all(members.ravel()[m:] == members.ravel()[m - 1])
    assert np.array_equal(leaf_lo, lo[:, members].min(axis=2))
    assert np.array_equal(leaf_hi, hi[:, members].max(axis=2))
    leaf_bound = geometry._box_bounds(leaf_lo, leaf_hi, points)
    tri_bound = geometry._box_bounds(lo, hi, points)
    assert np.all(leaf_bound[:, :, None] <= tri_bound[:, members])


# the depth search's meshes, and two whose coordinates reach errors.MAX_LENGTH,
# where the cull slack is largest
FLOOR_MESHES = {
    "box": SURFACE_MESHES["box"],
    "sphere": lambda: icosphere(0.08, subdivisions=2),
    "mug": SURFACE_MESHES["mug"],
    "mug-dense": EXACT_MESHES["mug-dense"],
    "box-max": lambda: box_mesh((2.0 * MAX_LENGTH,) * 3),
    "mug-max": lambda: transform_mesh(load_obj(MUG_OBJ), pose_from_rotvec(
        (0.3, 0.2, -0.1), (MAX_LENGTH - 0.2, 0.2 - MAX_LENGTH, MAX_LENGTH - 0.2))),
}


@functools.lru_cache(maxsize=None)
def _floor_mesh(name):
    return FLOOR_MESHES[name]()


@st.composite
def floor_batches(draw):
    """(mesh name, points, rows of the far points): exact vertices, points
    along edges, points on faces or pushed off either side, points between
    the centre and a vertex, and points at least the mesh's size from its
    centre, which lie outside its bounding box."""
    name = draw(st.sampled_from(list(FLOOR_MESHES)))
    mesh = _floor_mesh(name)
    v, f = mesh.vertices, mesh.triangles
    centre = 0.5 * (v.min(axis=0) + v.max(axis=0))
    size = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
    direction = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda d: sum(x * x for x in d) > 0.01).map(lambda d: np.array(d) / np.linalg.norm(d))
    rows, far = [], []
    for _ in range(draw(st.integers(1, 8))):
        t, k = draw(st.integers(0, len(f) - 1)), draw(st.integers(0, 2))
        a, b, c = v[f[t, k]], v[f[t, (k + 1) % 3]], v[f[t, (k + 2) % 3]]
        kind = draw(st.sampled_from(["vertex", "edge", "face", "inside", "far"]))
        if kind == "vertex":
            rows.append(a)
        elif kind == "edge":
            rows.append(a + draw(st.just(0.5) | st.floats(0.0, 1.0)) * (b - a))
        elif kind == "face":
            u = draw(st.floats(0.0, 1.0))
            w = draw(st.floats(0.0, 1.0 - u))
            off = draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-9, 1e-6]) | st.floats(-0.01, 0.01))
            rows.append(a + u * (b - a) + w * (c - a) + off * mesh.face_normals[t])
        elif kind == "inside":
            rows.append(centre + draw(st.floats(0.0, 1.0)) * (a - centre))
        else:
            far.append(len(rows))
            rows.append(centre + draw(st.floats(1.0, 1e3)) * size * draw(direction))
    return name, np.array(rows), np.array(far, dtype=int)


@seed(2302)
@settings(max_examples=200, deadline=None)
@given(floor_batches())
def test_distance_floor_never_exceeds_the_squared_distance(batch):
    name, points, far = batch
    mesh = _floor_mesh(name)
    floor = sq_distance_floor(mesh, points)
    assert np.all(floor >= 0.0)
    assert np.all(floor <= surface_query(mesh, points).sq_distance)
    # far outside the bounding box the floor rules something out
    assert np.all(floor[far] > 0.0)


@pytest.mark.parametrize("name", ["icosphere-4", "mug-dense"]
                         + [f"obj-{p.parent.name}" for p in BUNDLED_OBJS])
def test_surface_frames_match_per_triangle_loop(name):
    # every vertex, and every edge with its ends in both orders
    mesh = EXACT_MESHES[name]()
    want_vertex, want_edge = oracles.pseudonormal_frames(mesh.vertices, mesh.triangles)
    at = np.arange(len(mesh.vertices))
    assert np.array_equal(geometry._pseudonormals(mesh, at), want_vertex)
    i, j = np.array(list(want_edge)).T
    want = np.array(list(want_edge.values()))
    assert np.array_equal(geometry._pseudonormals(mesh, i, j), want)
    assert np.array_equal(geometry._pseudonormals(mesh, j, i), want)


@functools.lru_cache(maxsize=None)
def _frames(name):
    mesh = EXACT_MESHES[name]()
    return mesh, oracles.pseudonormal_frames(mesh.vertices, mesh.triangles)


@st.composite
def feature_batches(draw):
    """(mesh name, points, their triangles, the oracle's normals): exact
    vertex positions and points along edges, each feature repeated 1-3
    times, a repeat on an edge at its own fraction.  On the box, whose edge
    midpoints have zero coordinates, those zeros may be signed."""
    name = draw(st.sampled_from(["mug-dense", "box"]))
    mesh, (want_vertex, want_edge) = _frames(name)
    v, f = mesh.vertices, mesh.triangles
    signed = name == "box" and draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        t, k = draw(st.integers(0, len(f) - 1)), draw(st.integers(0, 2))
        i, j = int(f[t, k]), int(f[t, (k + 1) % 3])
        on_vertex = draw(st.booleans())
        for _ in range(draw(st.integers(1, 3))):
            if on_vertex:
                rows.append((v[i], t, want_vertex[i]))
                continue
            frac = draw(st.just(0.5) | st.floats(1e-3, 1.0 - 1e-3))
            q = v[i] + frac * (v[j] - v[i])
            rows.append((np.where(q == 0.0, -0.0, q) if signed else q, t,
                         want_edge[min(i, j), max(i, j)]))
    points, tri, want = (np.array(c) for c in zip(*rows))
    return name, points, tri, want


@seed(2101)
@settings(max_examples=60, deadline=None)
@given(feature_batches())
def test_feature_normals_match_the_oracle_bit_for_bit(batch):
    name, points, tri, want = batch
    got = geometry._feature_normals(_frames(name)[0], tri, points)
    assert got.tobytes() == want.tobytes()


def test_transform_mesh_is_isometry():
    mesh = box_mesh((0.2, 0.1, 0.3))
    pose = pose_from_rotvec((0.4, -0.1, 0.9), (0.5, -0.2, 0.1))
    moved = transform_mesh(mesh, pose)
    pts = np.random.default_rng(8).uniform(-0.3, 0.3, size=(20, 3))
    assert np.allclose(surface_query(mesh, pts).distance,
                       surface_query(moved, transform_points(pose, pts)).distance,
                       atol=1e-9)


# ---------------------------------------------------------------------------
# OBJ input and output
# ---------------------------------------------------------------------------

def test_obj_roundtrip(tmp_path):
    mesh = icosphere(0.05, subdivisions=1)
    path = tmp_path / "ball.obj"
    save_obj(path, mesh)
    back = load_obj(path)
    assert np.allclose(back.vertices, mesh.vertices, atol=1e-8)
    assert np.array_equal(back.triangles, mesh.triangles)


def test_load_obj_scale(tmp_path):
    path = tmp_path / "cube.obj"
    save_obj(path, box_mesh((1.0, 1.0, 1.0)))
    scaled = load_obj(path, scale=0.2)
    assert np.isclose(np.abs(scaled.vertices).max(), 0.1)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError, match="mesh scale must be positive"):
            load_obj(path, scale=bad)


def test_load_obj_collects_all_violations(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0\n"                  # wrong arity
        "v 0 0 zero\n"             # not a number
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "f 1 2 3 4\n"              # quad
        "f 1 2 9\n",               # out of range
        encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_obj(path)
    text = "\n".join(err.value.violations)
    assert "out of range" in text
    assert "only triangles" in text
    assert len(err.value.violations) == 4


def test_load_obj_violations_in_file_order(tmp_path):
    # line violations in line order, a face counted only once it parsed,
    # then index ranges face by face (one index past int64 included)
    path = tmp_path / "bad.obj"
    path.write_text(
        "v 0 0\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "# f 1 2 3 4\n"
        "f 1/1/1 2//2 3/3\n"
        "f 1 x 0\n"
        "f 0 x 1\n"
        "f 1 2 3 4\n"
        "f 1 2 99999999999999999999999\n"
        "f 5 1 2\n",
        encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_obj(path)
    assert err.value.violations == [
        "bad.obj: line 1: vertex needs 3 coordinates",
        "bad.obj: line 7: face index 'x' not an integer",
        "bad.obj: line 8: face index 0 must be positive (1-based)",
        "bad.obj: line 9: face 2 has 4 vertices; only triangles supported",
        "bad.obj: face 2: vertex index 99999999999999999999999 out of range (3 vertices)",
        "bad.obj: face 3: vertex index 5 out of range (3 vertices)",
    ]


def test_load_obj_refuses_non_finite_vertices(tmp_path):
    # a coordinate that is not finite, or beyond the length bound, read or
    # made by the scale, is named by its line
    path = tmp_path / "far.obj"
    path.write_text("v 0 0 0\nv nan 0 0\nv 0 -inf 0\nv 0 0 1e150\nv 100 0 0\nv 0 1 0\n"
                    "f 1 5 6\n", encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_obj(path)
    assert err.value.violations == [f"far.obj: line {n}: vertex coordinates not within +-100 m"
                                    for n in (2, 3, 4)]
    path.write_text("v 0 0 0\nv 10 0 0\nv 0 1e-307 0\nf 1 2 3\n", encoding="utf-8")
    for scale in (20.0, 1e308):     # past the bound, and 10 * 1e308 overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SchemaError) as err:
                load_obj(path, scale=scale)
        assert err.value.violations == [
            "far.obj: line 2: vertex coordinates not within +-100 m after mesh_scale"]


def test_load_obj_degenerate_face(tmp_path):
    # zero-area faces are only measurable once the indexing is clean
    path = tmp_path / "flat.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 1 2 2\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="degenerate"):
        load_obj(path)


def test_load_obj_refuses_faces_whose_area_overflows(tmp_path):
    # finite corners huge enough to overflow the area are beyond the length
    # bound: they are named by their lines before any face is measured, and
    # no numpy warning escapes
    path = tmp_path / "huge.obj"
    path.write_text("v 0 0 0\nv 1e200 0 0\nv 0 1e200 0\nv 0 1 0\n"
                    "f 1 2 3\nf 1 2 2\nf 1 2 4\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError) as err:
            load_obj(path)
    assert err.value.violations == ["huge.obj: line 2: vertex coordinates not within +-100 m",
                                    "huge.obj: line 3: vertex coordinates not within +-100 m"]


def test_load_obj_names_a_bad_byte_by_its_offset_in_the_file(tmp_path):
    path = tmp_path / "late.obj"
    path.write_bytes(b"v 0 0 0\n" * 2000 + b"\xff\n")
    with pytest.raises(SchemaError) as err:
        load_obj(path)
    assert err.value.violations == ["late.obj: not UTF-8 text (byte 16000: invalid start byte)"]


def test_load_obj_requires_faces(tmp_path):
    path = tmp_path / "points.obj"
    path.write_text("v 0 0 0\nv 1 0 0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="no faces"):
        load_obj(path)


# OBJ texts for the line reader oracle: plain files (vertices, then faces,
# one space, "\n"), some one step off that layout, and files in any other
# layout: comments, blank lines, CRLF, tabs, leading spaces, v/vt/vn
# corners, extra vertex tokens, quads, interleaved records.  Plain
# coordinates are valid indices too, so a misaligned read of a plain-looking
# file would make a mesh rather than fail
_PLAIN_COORDS = st.integers(1, 3).map(str)
_ODD_COORDS = st.sampled_from(["0.5", "-1.25", "1e-3", "nan", "-inf", "inf", "1e150",
                               "1e200", "1_0", "abc", "1e-320", "+2", "0x1", "v", "f"])
_ODD_INDEX = st.sampled_from(["0", "-1", "9", "99999999999999999999999", "x", "1/1/1",
                              "2//2", "3/3", "1_0", "+1", "/1", "1.0", "f", "v"])
_OTHER_LINES = st.sampled_from(["# a comment", "#", "", "   ", "vn 0 0 1", "vt 0.5 0.5",
                                "o mug", "v 1 2", "f 1 2", "f 1 2 3 4", "v 1 2 3 1"])
_SCALES = st.sampled_from([1.0, 0.5, 20.0, 1e-3, 1e-8, 1e200, 1e308])
# a tetrahedron whose faces (zero-based corners) wind outward: the closed
# mesh of the texts, so that a file can load
_TETRA = (("1", "1", "1"), ("3", "1", "1"), ("1", "3", "1"), ("1", "1", "3"))
_TETRA_FACES = ((0, 2, 1), (0, 1, 3), (0, 3, 2), (1, 2, 3))
_TETRA_V = "".join(f"v {' '.join(corner)}\n" for corner in _TETRA)


@st.composite
def obj_texts(draw):
    plain = draw(st.booleans())
    if draw(st.integers(0, 2)):
        # the tetrahedron: its vertices in any order, each face from any
        # corner, the faces in any order, wound outward, inward, or outward
        # but for one face
        order = draw(st.permutations(range(4)))
        winding = draw(st.sampled_from(["out", "out", "in", "one in"]))
        vertices = [["v", *_TETRA[i]] for i in order]
        faces = []
        for k, face in enumerate(_TETRA_FACES):
            turn = draw(st.integers(0, 2))
            face = [str(order.index(i) + 1) for i in face[turn:] + face[:turn]]
            inward = winding == "in" or (winding == "one in" and k == 0)
            faces.append(["f", *(face[::-1] if inward else face)])
        faces = draw(st.permutations(faces))
    else:
        # an open mesh: a plain file has three vertices and a face, so that
        # one step off the layout mostly turns findings into other findings
        nv = draw(st.integers(3 if plain else 0, 6))
        coords = _PLAIN_COORDS if plain else st.integers(-3, 3).map(str)
        vertices = [["v", *draw(st.lists(coords, min_size=3, max_size=3))] for _ in range(nv)]
        # distinct corners in range, where there are three vertices to pick
        corners = st.lists(st.integers(1, max(nv, 3)).map(str), min_size=3, max_size=3,
                           unique=True)
        faces = [["f", *draw(corners)] for _ in range(draw(st.integers(1 if plain else 0, 4)))]
    nv, records = len(vertices), vertices + faces

    def spoil(record):
        record[draw(st.integers(1, 3))] = draw(_ODD_COORDS if record[0] == "v" else _ODD_INDEX)

    if plain:
        # the plain layout, or one step off it: a token spoiled, a corner
        # just out of range, two records swapped, two lines joined, or a line
        # break moved to another space (each defeats one of the bulk pass's
        # checks)
        step = draw(st.sampled_from(["none", "token", "index", "swap", "join", "move"]))
        if step == "token":
            spoil(draw(st.sampled_from(records)))
        if step == "index":
            draw(st.sampled_from(faces))[draw(st.integers(1, 3))] = draw(
                st.sampled_from(["0", str(nv + 1)]))
        if step == "swap":
            i, j = draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2,
                                 unique=True))
            records[i], records[j] = records[j], records[i]
        text = list("".join(" ".join(r) + "\n" for r in records))
        breaks = [k for k, c in enumerate(text[:-1]) if c == "\n"]
        if step in ("join", "move"):
            text[draw(st.sampled_from(breaks))] = " "
        if step == "move":
            spaces = [k for k, c in enumerate(text) if c == " "]
            text[draw(st.sampled_from(spaces))] = "\n"
        return "".join(text)
    for record in records:
        if draw(st.integers(0, 5)) == 0:
            spoil(record)
    lines = [" ".join(r) for r in records] + draw(st.lists(_OTHER_LINES, max_size=3))
    out = []
    for line in draw(st.permutations(lines)):
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        sep = draw(st.sampled_from([" ", " ", "\t", "  "]))
        end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
        out.append(lead + line.replace(" ", sep) + end)
    text = "".join(out)
    return text.rstrip("\n") if draw(st.booleans()) else text


def _reads_like_the_line_reader(path, scale=1.0):
    # the same arrays, bit for bit, or the same findings in the same order,
    # whichever way load_obj reads the file, and no numpy warning
    want_v, want_f, findings = oracles.obj_arrays(path, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if findings:
            with pytest.raises(SchemaError) as err:
                load_obj(path, scale)
            assert err.value.violations == findings
            return
        mesh = load_obj(path, scale)
    assert mesh.vertices.dtype == want_v.dtype and mesh.triangles.dtype == want_f.dtype
    assert mesh.vertices.tobytes() == want_v.tobytes()
    assert mesh.triangles.tobytes() == want_f.tobytes()


@seed(2001)
@settings(max_examples=300, deadline=None)
@given(text=obj_texts(), scale=_SCALES)
def test_load_obj_matches_the_line_reader_oracle(text, scale, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "fuzz.obj"
    path.write_bytes(text.encode("utf-8"))
    _reads_like_the_line_reader(path, scale)


# a plain file, and the same one step off the plain layout: each step passes
# every check of the bulk pass but one
OFF_PLAIN = {
    "plain": _TETRA_V + "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    "corner-0": _TETRA_V + "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 0\n",
    "corner-past": _TETRA_V + "f 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 5\n",
    "interleaved": "v 1 1 1\nv 3 1 1\nv 1 3 1\nf 1 3 2\nv 1 1 3\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    "joined": "v 1 1 1\nv 3 1 1 v 1 3 1\nv 1 1 3\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
    "moved-break": "v 1 1 1\nv 3 1\n1 v 1 3 1\nv 1 1 3\nf 1 3 2\nf 1 2 4\nf 1 4 3\nf 2 3 4\n",
}


@pytest.mark.parametrize("name", list(OFF_PLAIN))
def test_one_step_off_the_plain_layout_reads_like_the_line_reader(name, tmp_path):
    path = tmp_path / "step.obj"
    path.write_text(OFF_PLAIN[name], encoding="utf-8")
    _reads_like_the_line_reader(path)


# the objects of the benchmark's dense inputs, each subdivided to 3072 triangles
DENSE_OBJS = {"mug-dense": MUG_OBJ, **{f"{path.parent.name}-dense": path for path in BUNDLED_OBJS
                                       if path.parent.name in ("fragile-06", "fragile-10")}}


def _no_line_reader(path, monkeypatch):
    def line_reader(*args):
        raise AssertionError(f"{path} was read line by line")

    monkeypatch.setattr(geometry, "_read_lines", line_reader)


@pytest.mark.parametrize("path", [*BUNDLED_OBJS, *DENSE_OBJS],
                         ids=[*(p.parent.name for p in BUNDLED_OBJS), *DENSE_OBJS])
def test_plain_files_are_read_in_bulk(path, tmp_path, monkeypatch):
    # every bundled object and every dense one skip the line reader, and the
    # bulk read gives the line reader's arrays bit for bit
    if path in DENSE_OBJS:
        dense, path = DENSE_OBJS[path], tmp_path / "object.obj"
        save_obj(path, subdivide(load_obj(dense), 2))

    _no_line_reader(path, monkeypatch)
    mesh = load_obj(path)
    want_v, want_f, findings = oracles.obj_arrays(path)
    assert findings == []
    assert mesh.vertices.tobytes() == want_v.tobytes()
    assert mesh.triangles.tobytes() == want_f.tobytes()


# plain files with one finding each, on the arrays rather than on a line
PLAIN_FINDINGS = {
    "far-vertex": (OFF_PLAIN["plain"].replace("v 1 1 3", "v 1 1 1e3"),
                   "line 4: vertex coordinates not within +-100 m"),
    "index-past": (OFF_PLAIN["corner-past"], "face 4: vertex index 5 out of range (4 vertices)"),
    "no-faces": (_TETRA_V, "no faces: mesh must contain at least one triangle"),
}


@pytest.mark.parametrize("name", list(PLAIN_FINDINGS))
def test_findings_of_a_plain_file_come_from_its_bulk_read(name, tmp_path, monkeypatch):
    text, finding = PLAIN_FINDINGS[name]
    path = tmp_path / "one.obj"
    path.write_text(text, encoding="utf-8")
    assert oracles.obj_arrays(path)[2] == [f"one.obj: {finding}"]
    _no_line_reader(path, monkeypatch)
    _reads_like_the_line_reader(path)


@pytest.mark.parametrize("how, finding", [
    ("open", "96 edges belong to one face"),
    ("mixed", "96 edges are walked the same way by two faces"),
    ("inward", "faces wind inward (signed volume <= 0)"),
])
def test_load_obj_refuses_a_surface_with_no_inside(how, finding, tmp_path):
    # a mesh whose every edge is not walked once each way has no inside for
    # the surface query's sign, and one turned inside out has it outside;
    # TriangleMesh still takes each
    path = tmp_path / "mug.obj"
    if how == "inward":
        mesh = load_obj(MUG_OBJ)
        save_obj(path, TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1]))
    else:
        path.write_text(break_obj(MUG_OBJ.read_text(), how), encoding="utf-8")
    v, f, findings = oracles.obj_arrays(path)
    assert findings == [f"mug.obj: {finding}"]
    TriangleMesh(v, f)
    _reads_like_the_line_reader(path)


def test_load_obj_refuses_an_edge_of_four_faces(tmp_path):
    # two closed tetrahedra sharing one edge: every directed edge has its
    # reverse, so only the shared edge walked twice each way, by four
    # faces, tells that the surface has no inside
    path = tmp_path / "pair.obj"
    corners = ["0 0 0", "0 0 1", "1 0 0", "0 1 0", "-1 0 0", "0 -1 0"]
    faces = ["1 3 2", "1 2 4", "1 4 3", "2 3 4", "1 5 2", "1 2 6", "1 6 5", "2 5 6"]
    path.write_text("".join([f"v {v}\n" for v in corners] + [f"f {f}\n" for f in faces]),
                    encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_obj(path)
    assert err.value.violations == ["pair.obj: 2 edges are walked the same way by two faces"]
    _reads_like_the_line_reader(path)
    # either tetrahedron alone is closed and consistently wound
    for tet in (faces[:4], faces[4:]):
        path.write_text("".join([f"v {v}\n" for v in corners] + [f"f {f}\n" for f in tet]),
                        encoding="utf-8")
        assert geometry._unclosed(load_obj(path)) == []


def test_save_points_obj(tmp_path):
    path = tmp_path / "tips.obj"
    save_points_obj(path, np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    lines = [l for l in path.read_text().splitlines() if l.startswith("v ")]
    assert len(lines) == 2
    assert lines[0].split()[1:] == ["1", "2", "3"]
