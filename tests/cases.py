"""Shared synthetic constructions used by module and acceptance tests.

Primitive meshes, pose helpers and the rest configuration of a hand live
here rather than in the package, which never builds them; then the grasp
and depth-alignment fixtures built from them.
"""

import math

import numpy as np
from hypothesis import strategies as st

from dextra.geometry import (
    SE3Pose,
    TriangleMesh,
    identity_pose,
    pose_from_rotvec,
    surface_query,
)
from dextra.kinematics import HandConfiguration, clamp_to_limits, fingertip_positions
from dextra.reconstruction import SceneFixture, build_prompt, gather_reconstruction
from dextra.retarget import refine_retarget


# ---------------------------------------------------------------------------
# poses and hand configurations
# ---------------------------------------------------------------------------

def pose_from_axis_angle(axis, angle, translation=(0.0, 0.0, 0.0)) -> SE3Pose:
    axis = np.asarray(axis, dtype=float)
    half = 0.5 * float(angle)
    return SE3Pose(np.r_[math.cos(half), math.sin(half) * axis / np.linalg.norm(axis)],
                   translation)


def pose_to_matrix(t: SE3Pose) -> np.ndarray:
    w, x, y, z = t.rotation
    m = np.eye(4)
    m[:3, :3] = [
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ]
    m[:3, 3] = t.translation
    return m


def rotation_angle(a: SE3Pose, b: SE3Pose) -> float:
    """Geodesic angle (rad) between the rotation parts."""
    d = abs(float(a.rotation @ b.rotation))
    return 2.0 * math.acos(min(1.0, d))


def rest_configuration(model) -> HandConfiguration:
    return HandConfiguration(identity_pose(),
                             np.array([j.rest for j in model.joints]))


def bitwise_configurations(model, rng, count):
    """Configurations for checks that compare bits: the degenerate ones first
    (identity root at rest, zero angles and either limit; a quarter turn of
    the root about each frame axis at rest), then `count` random ones."""
    rest = rest_configuration(model).joint_angles
    configs = [HandConfiguration(identity_pose(), angles)
               for angles in (rest, np.zeros(model.dof), model.lower_limits, model.upper_limits)]
    for axis in np.eye(3):
        configs.append(HandConfiguration(pose_from_rotvec(0.5 * np.pi * axis, (0.01, -0.02, 0.03)), rest))
    for _ in range(count):
        configs.append(HandConfiguration(
            pose_from_rotvec(rng.normal(0.0, 1.0, 3), rng.normal(0.0, 0.1, 3)),
            rng.uniform(model.lower_limits, model.upper_limits)))
    return configs


# ---------------------------------------------------------------------------
# generated hand model documents
# ---------------------------------------------------------------------------

_LENGTH = st.one_of(st.just(0.0), st.floats(-0.04, 0.04))
_TURN = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: math.hypot(*q) >= 0.1)


@st.composite
def hand_documents(draw):
    """A hand model document for `load_hand_model`: 2-5 fingers of 1-4
    revolute joints each, on a palm or on a shared wrist joint, with 0-2
    mimics among the finger joints.

    Each joint axis is a frame axis, a negated one, or oblique; each link
    offset rotation is the identity or turned, and offset translations have
    exact zero components too.  The mimics may be ones the loader refuses
    (a joint mimicked twice, a mimic chain, a driver that moves another
    finger's tip).  Every finger's first joint drives it.
    """
    def offset():
        rotation = draw(st.one_of(st.just([1.0, 0.0, 0.0, 0.0]), _TURN))
        return {"rotation": rotation, "translation": [draw(_LENGTH) for _ in range(3)]}

    def axis():
        k = draw(st.integers(0, 2))
        frame = [0.0, 0.0, 0.0]
        frame[k] = 1.0
        negated = [0.0, 0.0, 0.0]
        negated[k] = -1.0
        oblique = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda v: math.hypot(*v) >= 0.1)
        return draw(st.one_of(st.just(frame), st.just(negated), oblique))

    links = [{"name": "palm", "parent": -1, "offset": offset()}]
    joints = []

    def joint(name, child):
        lo, hi = draw(st.floats(-1.5, 0.0)), draw(st.floats(0.0, 1.5))
        rest = lo + draw(st.floats(0.0, 1.0)) * (hi - lo)
        joints.append({"name": name, "child_link": child, "axis": axis(),
                       "limits": [lo, hi], "rest": min(max(rest, lo), hi)})

    base = 0
    if draw(st.booleans()):
        links.append({"name": "wrist", "parent": 0, "offset": offset()})
        joint("wrist_tilt", "wrist")
        base = 1
    tips, drivers, finger_joints = [], [], []
    for f in range(draw(st.integers(2, 5))):
        parent = base
        for m in range(draw(st.integers(1, 4))):
            links.append({"name": f"f{f}_l{m}", "parent": parent, "offset": offset()})
            joint(f"f{f}_j{m}", f"f{f}_l{m}")
            finger_joints.append(f"f{f}_j{m}")
            parent = len(links) - 1
        links.append({"name": f"f{f}_tip", "parent": parent, "offset": offset()})
        tips.append(f"f{f}_tip")
        drivers.append(f"f{f}_j0")
    mimics = [{"joint": draw(st.sampled_from(finger_joints)),
               "driver": draw(st.sampled_from(finger_joints)),
               "ratio": draw(st.floats(-1.5, 1.5))}
              for _ in range(draw(st.integers(0, 2)))]
    return {"name": "generated", "links": links, "joints": joints, "mimics": mimics,
            "fingertip_links": tips, "finger_drivers": drivers}


# ---------------------------------------------------------------------------
# primitive meshes
# ---------------------------------------------------------------------------

def box_mesh(extents=(1.0, 1.0, 1.0)) -> TriangleMesh:
    """Axis-aligned box centered at the origin; extents are full side lengths."""
    hx, hy, hz = (0.5 * float(e) for e in extents)
    v = np.array([
        [-hx, -hy, -hz], [hx, -hy, -hz], [hx, hy, -hz], [-hx, hy, -hz],
        [-hx, -hy, hz], [hx, -hy, hz], [hx, hy, hz], [-hx, hy, hz],
    ])
    f = np.array([
        [0, 2, 1], [0, 3, 2],          # bottom (-z)
        [4, 5, 6], [4, 6, 7],          # top (+z)
        [0, 1, 5], [0, 5, 4],          # -y
        [1, 2, 6], [1, 6, 5],          # +x
        [2, 3, 7], [2, 7, 6],          # +y
        [3, 0, 4], [3, 4, 7],          # -x
    ])
    return TriangleMesh(v, f)


def icosphere(radius: float = 1.0, subdivisions: int = 1) -> TriangleMesh:
    """Subdivided icosahedron projected to the sphere of given radius."""
    t = (1.0 + math.sqrt(5.0)) / 2.0
    verts = [
        (-1, t, 0), (1, t, 0), (-1, -t, 0), (1, -t, 0),
        (0, -1, t), (0, 1, t), (0, -1, -t), (0, 1, -t),
        (t, 0, -1), (t, 0, 1), (-t, 0, -1), (-t, 0, 1),
    ]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [np.asarray(v, dtype=float) for v in verts]
    for _ in range(subdivisions):
        midpoint: dict = {}

        def mid(i, j):
            key = (min(i, j), max(i, j))
            if key not in midpoint:
                verts.append(0.5 * (verts[i] + verts[j]))
                midpoint[key] = len(verts) - 1
            return midpoint[key]

        new_faces = []
        for (i, j, k) in faces:
            a, b, c = mid(i, j), mid(j, k), mid(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    v = np.array(verts)
    v = v / np.linalg.norm(v, axis=1, keepdims=True) * float(radius)
    return TriangleMesh(v, np.asarray(faces, dtype=np.int64))


def cylinder_mesh(radius: float = 1.0, height: float = 1.0, segments: int = 24) -> TriangleMesh:
    """Closed cylinder along z, centered at the origin."""
    hz = 0.5 * float(height)
    ang = np.linspace(0.0, 2.0 * math.pi, segments, endpoint=False)
    ring = np.stack([radius * np.cos(ang), radius * np.sin(ang)], axis=1)
    bottom = np.column_stack([ring, np.full(segments, -hz)])
    top = np.column_stack([ring, np.full(segments, hz)])
    v = np.vstack([bottom, top, [[0.0, 0.0, -hz]], [[0.0, 0.0, hz]]])
    cb, ct = 2 * segments, 2 * segments + 1
    f = []
    for i in range(segments):
        j = (i + 1) % segments
        f.append([i, j, segments + i])            # side lower
        f.append([j, segments + j, segments + i])  # side upper
        f.append([cb, j, i])                       # bottom cap, normal -z
        f.append([ct, segments + i, segments + j])  # top cap, normal +z
    return TriangleMesh(v, np.asarray(f, dtype=np.int64))


def grid_mesh(size: float = 0.2, cells: int = 12) -> TriangleMesh:
    """Flat square of cells x cells squares, two triangles each, in z = 0.

    Open and of zero extent along z."""
    ticks = np.linspace(-0.5 * size, 0.5 * size, cells + 1)
    x, y = np.meshgrid(ticks, ticks, indexing="ij")
    v = np.column_stack([x.ravel(), y.ravel(), np.zeros(x.size)])
    corner = (np.arange(cells)[:, None] * (cells + 1) + np.arange(cells)[None, :]).ravel()
    a, b, c, d = corner, corner + cells + 1, corner + cells + 2, corner + 1
    f = np.concatenate([np.stack([a, b, c], axis=1), np.stack([a, c, d], axis=1)])
    return TriangleMesh(v, f)


def subdivide(mesh: TriangleMesh, levels: int = 1) -> TriangleMesh:
    """Midpoint subdivision: each level splits every triangle into four.

    The midpoint of an edge is shared by the triangles on both sides, so a
    watertight mesh stays watertight.  Triangle t's children are rows 4t to
    4t + 3, in its winding; the new vertices follow the old ones, one per
    edge in sorted (low, high) vertex order.
    """
    v, f = mesh.vertices, mesh.triangles
    for _ in range(levels):
        edges = np.sort(np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1)
                        .reshape(-1, 2), axis=1)
        unique, inverse = np.unique(edges, axis=0, return_inverse=True)
        ab, bc, ca = (len(v) + inverse.reshape(-1, 3)).T
        a, b, c = f.T
        v = np.vstack([v, 0.5 * (v[unique[:, 0]] + v[unique[:, 1]])])
        f = np.stack([np.stack(corners, axis=1) for corners in
                      ((a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca))],
                     axis=1).reshape(-1, 3)
    return TriangleMesh(v, f)


# ---------------------------------------------------------------------------
# grasp and depth-alignment fixtures
# ---------------------------------------------------------------------------

# the wrap-grasp fixture: a hand reaching over the top edge of a tall box,
# fingers draped down its -y side wall so every fingertip presses a flat
# vertical face.  This leaves each finger free to extend away from the wall,
# which a tabletop palm-down grasp does not.
WRAP_BOX_EXTENTS = (0.3, 0.12, 0.3)
WRAP_FACE_Y = -0.06


def wrap_box_mesh():
    return box_mesh(WRAP_BOX_EXTENTS)


def wrap_grasp(model, mesh, rng):
    """One randomized wall-contact grasp with all five fingertips engaged.

    Joint posture and wrist pose are jittered, then the fingertips are
    drawn onto the wall by the solver with the wrist free, so every run
    starts from a slightly different but honest contact configuration.
    """
    ji = model.joint_index
    angles = np.zeros(model.dof)
    angles[ji["thumb_mcp_abd"]] = 0.9 + rng.normal(0.0, 0.02)
    angles[ji["thumb_mcp_flex"]] = 1.05 + rng.normal(0.0, 0.02)
    angles[ji["thumb_pip"]] = 1.05 + rng.normal(0.0, 0.02)
    angles[ji["thumb_dip"]] = 0.95 + rng.normal(0.0, 0.02)
    for finger in ("index", "middle", "ring", "pinky"):
        angles[ji[finger + "_mcp_flex"]] = 1.45 + rng.normal(0.0, 0.02)
        angles[ji[finger + "_pip"]] = 0.7 + rng.normal(0.0, 0.02)
        angles[ji[finger + "_dip"]] = 0.35 + rng.normal(0.0, 0.02)
    angles = clamp_to_limits(model, angles)
    root = pose_from_rotvec(
        np.array([math.pi, 0.0, 0.0]) + rng.normal(0.0, 0.02, 3),
        [rng.normal(0.0, 0.02),
         0.02 + rng.normal(0.0, 0.008),
         0.17 + rng.normal(0.0, 0.008)])
    config = HandConfiguration(root, angles)
    targets = fingertip_positions(model, config).copy()
    targets[:, 1] = WRAP_FACE_Y
    return refine_retarget(config, targets, model, wrist_free=True)


# depth-alignment fixtures: fingertips resting on a surface patch whose
# distance changes when the whole hand slides along z, with the opposite
# parallel face kept outside the search range
def depth_fixture(name):
    """(mesh, fingertip points on its surface) for one fixture shape."""
    if name == "box":
        mesh = box_mesh((0.2, 0.16, 0.4))
        pts = np.array([[x, y, 0.2] for x, y in
                        [(-0.05, -0.04), (-0.02, 0.03), (0.0, -0.02),
                         (0.03, 0.04), (0.06, 0.0)]])
    elif name == "sphere":
        mesh = icosphere(0.08, subdivisions=2)
        dirs = np.array([[0.2, 0.1, 1.0], [-0.3, 0.2, 1.0], [0.1, -0.4, 1.0],
                         [0.4, 0.3, 0.9], [-0.2, -0.2, 1.1]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = surface_query(mesh, 0.08 * dirs).point
    elif name == "cylinder":
        mesh = cylinder_mesh(0.05, 0.5)
        pts = np.array([[x, y, 0.25] for x, y in
                        [(-0.03, 0.0), (0.0, 0.03), (0.02, -0.02),
                         (0.03, 0.02), (-0.01, -0.03)]])
    else:
        raise ValueError(name)
    return mesh, pts


DEPTH_FIXTURES = ("box", "sphere", "cylinder")


# ---------------------------------------------------------------------------
# scene replay
# ---------------------------------------------------------------------------

def replay_scene(scene_dir):
    """`gather_reconstruction` of a scene directory, with the arguments the
    providers stage passes."""
    scene = SceneFixture(scene_dir)
    prompt = build_prompt(scene.object_name, scene.intent, scene.prompt_kind,
                          scene.observation_ref, scene.region_ref, scene.demo_ref)
    return gather_reconstruction(
        prompt, scene.scene_dir / "hand_estimate.json", scene.scene_dir / "object.obj",
        scene.scene_dir / "poses.json", scene.mesh_scale, scene.contact_fingers,
        scene.predict_force(scene.object_name))
