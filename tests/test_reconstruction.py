import contextlib
import functools
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from cases import box_mesh, depth_fixture, pose_to_matrix, replay_scene, subdivide
from dextra import reconstruction
from dextra.errors import (
    DimensionMismatch,
    EmptyContactSet,
    FixtureMissing,
    MissingField,
    NoConvergence,
    SchemaError,
)
from dextra.geometry import (
    identity_pose,
    invert,
    load_obj,
    pose_from_rotvec,
    surface_query,
    transform_mesh,
    transform_points,
)
from dextra.kinematics import HandConfiguration, HandPoseEstimate, fingertip_positions
from dextra.reconstruction import (
    PROMPT_KINDS,
    SceneFixture,
    align_depth,
    build_prompt,
    check_scene,
    read_poses,
    to_object_frame,
)

CORE_SENTENCE = "generate a image of a human right hand grasping the object"
MUG_OBJ = Path(__file__).resolve().parents[1] / "scenes" / "mug-01" / "object.obj"


def _estimate(tips, root=None, skeleton="human-20dof"):
    return HandPoseEstimate(
        config=HandConfiguration(root or identity_pose(), np.zeros(20)),
        fingertip_points=np.asarray(tips, dtype=float),
        skeleton=skeleton)


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

def test_language_prompt_content():
    p = build_prompt("mug", "pick it up by the handle", observation_ref="obs.png")
    assert p.kind == "language"
    assert p.positive.startswith("Object: mug. Intention: pick it up by the handle.")
    assert CORE_SENTENCE in p.positive
    assert "Camera fixed, hand enters from bottom-right" in p.positive
    assert "extra fingers" in p.negative and "fused fingers" in p.negative
    assert p.attachments == (("observation", "obs.png"),)


def test_language_prompt_requires_name_and_intent():
    with pytest.raises(MissingField, match="object name"):
        build_prompt("", "pick it up")
    with pytest.raises(MissingField, match="intent"):
        build_prompt("mug", "")


def test_region_prompt():
    p = build_prompt("bottle", "", kind="visual-region",
                     observation_ref="obs.png", region_ref="mask.png")
    assert "Grasp the object at the highlighted region." in p.positive
    assert p.attachments == (("observation", "obs.png"), ("region_mask", "mask.png"))


def test_region_prompt_requires_mask():
    with pytest.raises(MissingField, match="region mask"):
        build_prompt("bottle", "grab", kind="visual-region")


def test_demo_prompt():
    p = build_prompt("", "", kind="demo-image", demo_ref="demo.png")
    assert "Follow the grasp shown in the demonstration image." in p.positive
    assert ("demo_image", "demo.png") in p.attachments


def test_demo_prompt_requires_reference():
    with pytest.raises(MissingField, match="demonstration image"):
        build_prompt("cup", "lift", kind="demo-image")


def test_unknown_prompt_kind():
    with pytest.raises(MissingField, match="unknown prompt kind"):
        build_prompt("mug", "lift", kind="telepathy")
    assert "telepathy" not in PROMPT_KINDS


# ---------------------------------------------------------------------------
# scene fixtures
# ---------------------------------------------------------------------------

def test_fixture_replays_scene(mug_scene):
    bundle = replay_scene(mug_scene)
    assert bundle.hand.skeleton == "human-20dof"
    assert bundle.f_target > 0.0
    assert bundle.mesh.triangles.shape[1] == 3
    # all three recorded poses come from poses.json as they are
    for key, pose in read_poses(mug_scene / "poses.json").items():
        assert np.array_equal(getattr(bundle, key).rotation, pose.rotation), key
        assert np.array_equal(getattr(bundle, key).translation, pose.translation), key


def test_fixture_missing_file(tmp_path):
    scene_dir = tmp_path / "empty-scene"
    scene_dir.mkdir()
    with pytest.raises(FixtureMissing, match="fixture file missing"):
        SceneFixture(scene_dir)


def test_fixture_requires_object_name(tmp_path):
    scene_dir = tmp_path / "anon"
    scene_dir.mkdir()
    (scene_dir / "scene.json").write_text('{"intent": "grab"}', encoding="utf-8")
    with pytest.raises(SchemaError, match="scene.json: missing 'object_name'") as err:
        SceneFixture(scene_dir)
    assert type(err.value) is SchemaError


@pytest.mark.parametrize("name, edit, finding", [
    ("scene.json", {"hand_model": ["leap-like-16dof"]},
     "scene.json: hand_model must name a bundled hand model"),
    ("scene.json", {"hand_model": "octopus"},
     "scene.json: hand_model must name a bundled hand model"),
    ("scene.json", {"hand_model": "force_table"},
     "scene.json: hand_model must name a bundled hand model"),
    ("scene.json", {"hand_model": "human-20dof"},
     "scene.json: hand_model must name a bundled hand model that has a human_joint_map"),
    ("scene.json", {"force_table": {"mug": -2.0}},
     "scene.json: force_table must map object names to positive forces (N)"),
    ("scene.json", {"region_mask": "mask.png"},
     "scene.json: region_mask only applies to a visual-region prompt"),
    ("scene.json", {"mesh_scale": True}, "scene.json: mesh_scale must be a positive number"),
    ("scene.json", {"generated_image": "generated.png"},
     "scene.json: unknown key 'generated_image'"),
    ("hand_estimate.json", {"keypoints_independent": True},
     "hand_estimate.json: unknown key 'keypoints_independent'"),
    ("poses.json", {"hand_eye": {"rotation": [0, 0, 0, 0], "translation": [0, 0, 0]}},
     "poses.json: hand_eye must be a pose"),
    ("contact.json", {"engagement": "manual"}, "contact.json: engagement must be 'auto'"),
    ("scene.json", [], "scene.json: the document must be a JSON object"),
    ("hand_estimate.json", [], "hand_estimate.json: the document must be a JSON object"),
], ids=["hand-model-list", "hand-model-unknown", "hand-model-force-table", "hand-model-human",
        "negative-force",
        "stray-region-mask", "boolean-scale", "generated-image-key", "independent-keypoints-key",
        "zero-quaternion",
        "engagement-word", "scene-json-list", "estimate-json-list"])
def test_check_scene_names_each_violation(mug_scene, tmp_path, name, edit, finding):
    scene_dir = tmp_path / "mug-01"
    shutil.copytree(mug_scene, scene_dir)
    doc = json.loads((scene_dir / name).read_text())
    if isinstance(edit, list):
        doc = edit
    elif isinstance(edit, dict):
        doc.update(edit)
    else:
        edit(doc)
    (scene_dir / name).write_text(json.dumps(doc), encoding="utf-8")
    findings = check_scene(scene_dir)
    assert len(findings) == 1 and findings[0].startswith(finding), findings


def test_force_prediction_table(mug_scene):
    scene = SceneFixture(mug_scene)
    assert scene.predict_force("mug") > 0.0
    assert scene.predict_force(" MUG ") == scene.predict_force("mug")
    with pytest.raises(FixtureMissing, match="no target force"):
        scene.predict_force("anvil")


def test_force_table_scene_override(tmp_path, mug_scene):
    scene_dir = tmp_path / "mug-override"
    shutil.copytree(mug_scene, scene_dir)
    doc = json.loads((scene_dir / "scene.json").read_text())
    doc["force_table"] = {"mug": 9.5}
    (scene_dir / "scene.json").write_text(json.dumps(doc), encoding="utf-8")
    assert SceneFixture(scene_dir).predict_force("mug") == 9.5


def test_estimate_hand_fk_fallback(tmp_path, mug_scene, human_model):
    # with no recorded keypoints the fingertips come from the skeleton chain
    scene_dir = tmp_path / "mug-fk"
    shutil.copytree(mug_scene, scene_dir)
    doc = json.loads((scene_dir / "hand_estimate.json").read_text())
    doc.pop("fingertip_points")
    (scene_dir / "hand_estimate.json").write_text(json.dumps(doc), encoding="utf-8")
    hand = replay_scene(scene_dir).hand
    expected = fingertip_positions(human_model, hand.config)
    assert np.allclose(hand.fingertip_points, expected, atol=1e-12)


# ---------------------------------------------------------------------------
# contact selection and depth alignment
# ---------------------------------------------------------------------------

def test_align_depth_picks_contact_fingers_within_the_radius(monkeypatch):
    mesh = box_mesh((0.1, 0.1, 0.1))
    tips = np.array([
        [0.0, 0.0, 0.051],   # 1 mm above the top face
        [0.0, 0.0, 0.074],   # 24 mm above
        [0.0, 0.0, 0.2],     # far away
        [0.0, 0.0, 0.049],   # 1 mm below the surface: still near it
        [0.0, 0.0, 0.0],     # dead center: 50 mm from every face
    ])
    hand = _estimate(tips)
    # with no contact fingers named, align_depth picks them at the input shift
    assert align_depth(hand, mesh, None, identity_pose())[2] == (0, 1, 3)
    monkeypatch.setattr(reconstruction, "CONTACT_SELECT_RADIUS", 0.002)
    assert align_depth(hand, mesh, None, identity_pose())[2] == (0, 3)


def test_align_depth_recovers_non_grid_shift():
    mesh, pts = depth_fixture("sphere")
    true_shift = 0.0173
    hand = _estimate(pts + [0.0, 0.0, true_shift])
    out, applied, fingers = align_depth(hand, mesh, contact_fingers=(0, 1, 2, 3, 4),
                                        pose=identity_pose())
    assert fingers == (0, 1, 2, 3, 4)
    assert applied == out.config.root_pose.translation[2] - hand.config.root_pose.translation[2]
    assert abs(applied + true_shift) < 1e-4
    # the whole hand moves together
    assert np.allclose(out.fingertip_points - hand.fingertip_points,
                       [0.0, 0.0, applied], atol=1e-12)
    assert np.array_equal(out.config.root_pose.translation[:2],
                          hand.config.root_pose.translation[:2])
    assert np.array_equal(out.config.joint_angles, hand.config.joint_angles)


def test_align_depth_never_increases_objective():
    mesh, pts = depth_fixture("box")
    rng = np.random.default_rng(9)
    for _ in range(12):
        shift = rng.uniform(-0.12, 0.12)
        hand = _estimate(pts + [0.0, 0.0, shift])
        out = align_depth(hand, mesh, contact_fingers=(0, 1, 2, 3, 4),
                          pose=identity_pose())[0]
        before = oracles.mesh_sqdist(mesh.vertices, mesh.triangles,
                                     hand.fingertip_points).sum()
        after = oracles.mesh_sqdist(mesh.vertices, mesh.triangles,
                                    out.fingertip_points).sum()
        assert after <= before + 1e-15


def test_align_depth_asks_the_object_frame_mesh_through_its_pose():
    # the fixture surface posed in the camera: asked in its own frame through
    # that pose, or as a copy moved into the camera, it picks the same
    # fingers and the same shift
    mesh, pts = depth_fixture("sphere")
    pose = pose_from_rotvec((0.3, -0.2, 0.5), (0.1, -0.05, 0.6))
    hand = _estimate(transform_points(pose, pts) + [0.0, 0.0, 0.0173])
    moved = transform_mesh(mesh, pose)
    got, shift, fingers = align_depth(hand, mesh, None, pose)
    want, _, moved_fingers = align_depth(hand, moved, None, identity_pose())
    assert fingers == moved_fingers != ()
    assert abs(shift + 0.0173) < 1e-4
    assert np.allclose(got.fingertip_points, want.fingertip_points, atol=1e-9)


def _nested_grid_shift(hand, mesh, contact_fingers, pose):
    """The shift the nested grids of earlier releases settle on when every
    shift of every grid is asked, or None where they find the objective flat."""
    pts, to_mesh = hand.fingertip_points[list(contact_fingers)], invert(pose)
    return oracles.nested_depth_grid(
        lambda deltas: reconstruction._depth_objective(mesh, pts, deltas, to_mesh))


def _surface_objective(mesh, tips, pose):
    return float(surface_query(mesh, transform_points(invert(pose), tips)).sq_distance.sum())


def _assert_aligns_exactly(hand, mesh, contact_fingers, pose):
    # the shift the brute-force line search finds, within 1e-9 m, or one of
    # the same objective where the minimum is not unique (a fingertip
    # sliding along a face parallel to the depth axis); NoConvergence
    # exactly where its first grid finds the objective flat.  The objective
    # there is never above the nested grids' beyond rounding where they stay
    # within the search range.  Squared distances below 1e-30 m^2 are
    # rounding on a fingertip that lies on the surface
    to_mesh = np.linalg.inv(pose_to_matrix(pose))
    tips = hand.fingertip_points[list(contact_fingers)]
    at_zero, direction = tips @ to_mesh[:3, :3].T + to_mesh[:3, 3], to_mesh[:3, 2]
    want = oracles.depth_line_argmin(mesh.vertices, mesh.triangles, at_zero, direction)
    if want is None:
        with pytest.raises(NoConvergence, match="flat"):
            align_depth(hand, mesh, contact_fingers, pose)
        return
    got = align_depth(hand, mesh, contact_fingers, pose)[0]
    shift = got.fingertip_points[:, 2] - hand.fingertip_points[:, 2]
    assert np.array_equal(got.fingertip_points[:, :2], hand.fingertip_points[:, :2])
    if np.abs(shift - want).max() > 1e-9:
        def brute(s):
            return oracles.mesh_sqdist(mesh.vertices, mesh.triangles, at_zero + s * direction).sum()

        assert brute(shift[0]) <= brute(want) * (1.0 + 1e-12) + 1e-30
    # the nested grids could step up to 5.5 mm past the search range
    nested = _nested_grid_shift(hand, mesh, contact_fingers, pose)
    if abs(nested) <= reconstruction.DEPTH_SEARCH_HALF_RANGE:
        grids = _surface_objective(mesh, tips + [0.0, 0.0, nested], pose)
        assert _surface_objective(mesh, got.fingertip_points[list(contact_fingers)], pose) <= (
            grids * (1.0 + 1e-12) + 1e-30)


def _scene_alignment(scene_dir):
    """(hand, mesh, contact fingers, object pose) as a run of the scene
    passes them to align_depth, with the fingers align_depth picks where the
    scene names none."""
    bundle = replay_scene(scene_dir)
    pose = bundle.object_pose_generated
    fingers = (SceneFixture(scene_dir).contact_fingers
               or align_depth(bundle.hand, bundle.mesh, None, pose)[2])
    return bundle.hand, bundle.mesh, fingers, pose


SCENE_DIRS = sorted(p.parent for p in (MUG_OBJ.parents[1]).rglob("scene.json"))


@pytest.mark.parametrize("scene_dir", SCENE_DIRS, ids=lambda p: p.name)
def test_align_depth_takes_the_exact_minimum_on_bundled_scenes(scene_dir):
    _assert_aligns_exactly(*_scene_alignment(scene_dir))


@pytest.mark.parametrize("scene_dir", SCENE_DIRS, ids=lambda p: p.name)
def test_align_depth_finds_no_lower_shift_over_the_whole_range(scene_dir):
    # the search visits only the window around the first grid's best shift:
    # no shift of a dense brute-force scan of the whole range is lower, up
    # to rounding, so no basin the grid's bounds leave is missed
    hand, mesh, fingers, pose = _scene_alignment(scene_dir)
    shift = align_depth(hand, mesh, fingers, pose)[1]
    to_mesh = np.linalg.inv(pose_to_matrix(pose))
    tips = hand.fingertip_points[list(fingers)] @ to_mesh[:3, :3].T + to_mesh[:3, 3]
    half = reconstruction.DEPTH_SEARCH_HALF_RANGE
    shifts = np.append(np.linspace(-half, half, 601), shift)
    moved = tips[None] + shifts[:, None, None] * to_mesh[:3, 2]
    objs = oracles.mesh_sqdist(mesh.vertices, mesh.triangles, moved.reshape(-1, 3))
    objs = objs.reshape(len(shifts), len(tips)).sum(axis=1)
    assert objs[-1] <= objs[:-1].min() * (1.0 + 1e-12) + 1e-30


@pytest.mark.parametrize("levels", [2, 3])
def test_align_depth_takes_the_exact_minimum_on_subdivided_mug(levels):
    # 3072 and 12288 triangles: the mesh takes the surface query's leaf level
    hand, mesh, fingers, pose = _scene_alignment(MUG_OBJ.parent)
    _assert_aligns_exactly(hand, subdivide(mesh, levels), fingers, pose)


@pytest.mark.parametrize("scene_dir", SCENE_DIRS, ids=lambda p: p.name)
def test_align_depth_undoes_a_depth_error(scene_dir):
    # the estimate slid along camera z by an error off the first grid's
    # lattice aligns to the same fingertips: the search takes the minimum,
    # not a grid point near it
    hand, mesh, fingers, pose = _scene_alignment(scene_dir)
    want = align_depth(hand, mesh, fingers, pose)[0].fingertip_points
    for error in (-0.02713579, -0.00931113, 0.01234567, 0.02876543):
        moved = replace(hand, fingertip_points=hand.fingertip_points + [0.0, 0.0, error])
        got = align_depth(moved, mesh, fingers, pose)[0].fingertip_points
        assert np.abs(got - want).max() <= 1e-12


def test_align_depth_inverts_the_pose_once(monkeypatch):
    # every depth evaluation maps through one inverse pose, and the shifts
    # stay the objective's third positional argument.  The surface is asked
    # three times: every fingertip at the input shift, whose contact-finger
    # distances are that shift's objective and bound the first grid; the
    # other grid shifts that bound leaves, fewer than 60; and the one shift
    # that confirms the line search
    mesh, pts = depth_fixture("sphere")
    pose = pose_from_rotvec((0.3, -0.2, 0.5), (0.1, -0.05, 0.6))
    hand = _estimate(transform_points(pose, pts) + [0.0, 0.0, 0.0173])
    first = reconstruction.DEPTH_SEARCH_HALF_RANGE / 30 * np.arange(-30, 31)
    inverted, asked, queried = [], [], []
    invert, objective = reconstruction.invert, reconstruction._depth_objective
    query = reconstruction.surface_query

    def counted_invert(p):
        inverted.append(p)
        return invert(p)

    def counted_objective(*args):
        asked.append(args[2])
        return objective(*args)

    def counted_query(mesh, points):
        queried.append(len(points))
        return query(mesh, points)

    monkeypatch.setattr(reconstruction, "invert", counted_invert)
    monkeypatch.setattr(reconstruction, "_depth_objective", counted_objective)
    monkeypatch.setattr(reconstruction, "surface_query", counted_query)
    got, shift, fingers = align_depth(hand, mesh, (0, 2, 4), pose)
    assert inverted == [pose] and fingers == (0, 2, 4)
    assert [len(shifts) for shifts in asked] == [len(asked[0]), 1]
    assert 0 < len(asked[0]) < 60 and np.isin(asked[0], first).all()
    assert 0.0 not in asked[0]
    assert queried == [5, 3 * len(asked[0]), 3]
    assert shift == pytest.approx(asked[1][0], abs=1e-15)
    assert np.array_equal(got.fingertip_points - [0.0, 0.0, shift], hand.fingertip_points)


@functools.lru_cache(maxsize=None)
def _depth_mesh(name):
    if name in ("box", "sphere"):
        return depth_fixture(name)[0]
    mug = load_obj(MUG_OBJ)
    return {"mug": mug, "mug-dense": subdivide(mug, 2), "wall": box_mesh((0.01, 10.0, 10.0))}[name]


@st.composite
def depth_cases(draw):
    """(hand, mesh, contact fingers, object pose): five fingertips on the
    surface, or near it, posed in the camera and slid along camera z.

    The box and sphere fixtures keep their own fingertips; on the mugs each
    lands on a drawn triangle; on the wall, a plane along camera z that the
    pose only turns about z, the objective is flat.
    """
    name = draw(st.sampled_from(["box", "sphere", "mug", "mug-dense", "wall"]))
    mesh = _depth_mesh(name)
    if name in ("box", "sphere"):
        tips = depth_fixture(name)[1]
    elif name == "wall":
        tips = np.array([[0.055, y, 0.0] for y in (-0.02, -0.01, 0.0, 0.01, 0.02)])
    else:
        corners = mesh.vertices[mesh.triangles[draw(st.lists(
            st.integers(0, len(mesh.triangles) - 1), min_size=5, max_size=5))]]
        u, v = (np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5)))[:, None]
                for _ in range(2))
        # barycentric weights with u + v <= 1: a point on each triangle
        ab, ac = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
        tips = corners[:, 0] + np.minimum(u, 1.0 - v) * ab + v * ac
    tips = tips + np.array(draw(st.lists(st.floats(-0.005, 0.005), min_size=15,
                                         max_size=15))).reshape(5, 3)
    angle = st.floats(-3.0, 3.0)
    rotvec = (0.0, 0.0, draw(angle)) if name == "wall" else draw(st.tuples(angle, angle, angle))
    pose = pose_from_rotvec(rotvec, draw(st.tuples(*[st.floats(-0.3, 0.3)] * 2,
                                                     st.floats(0.3, 0.9))))
    # true shifts within the search range and beyond it
    shift = draw(st.floats(-0.3, 0.3))
    hand = _estimate(transform_points(pose, tips) + [0.0, 0.0, shift])
    fingers = tuple(sorted(draw(st.sets(st.integers(0, 4), min_size=1))))
    return hand, mesh, fingers, pose


@seed(2301)
@settings(max_examples=120, deadline=None)
@given(depth_cases())
def test_align_depth_takes_the_exact_minimum(case):
    _assert_aligns_exactly(*case)


@pytest.mark.parametrize("tilt, flat", [(1e-10, True), (5e-10, False)])
def test_align_depth_near_flat_objective(tilt, flat, monkeypatch):
    # a wall tilted by `tilt` rad towards camera z, one fingertip 1 cm off it:
    # over the first grid the objective varies by 0.6e-12 (flat) or 3e-12.
    # At 3e-12 the floor rules out the shifts farthest below the input
    # shift, which sits mid-range, and that proves the objective is not
    # flat; the search takes the minimum the brute-force line search finds.
    # Flat, the first grid asks its 60 shifts other than the input shift
    mesh = box_mesh((0.01, 0.04, 0.4))
    pose = pose_from_rotvec((0.0, tilt, 0.0))
    hand = _estimate(transform_points(pose, np.tile([0.015, 0.0, 0.0], (5, 1))))
    deltas = reconstruction.DEPTH_SEARCH_HALF_RANGE / 30 * np.arange(-30, 31)
    objs = reconstruction._depth_objective(mesh, hand.fingertip_points[:1], deltas, invert(pose))
    assert (objs.max() - objs.min() < 1e-12) == flat
    assert 0.5e-12 < objs.max() - objs.min() < 4e-12
    _assert_aligns_exactly(hand, mesh, (0,), pose)
    asked, objective = [], reconstruction._depth_objective

    def counted_objective(*args):
        asked.append(len(args[2]))
        return objective(*args)

    monkeypatch.setattr(reconstruction, "_depth_objective", counted_objective)
    with contextlib.suppress(NoConvergence):
        align_depth(hand, mesh, (0,), pose)
    assert (asked[0] < 60) == (not flat)


def test_align_depth_needs_contacts():
    mesh = box_mesh((0.1, 0.1, 0.1))
    hand = _estimate(np.full((5, 3), 5.0))  # nowhere near the box
    for fingers in (None, ()):
        with pytest.raises(EmptyContactSet):
            align_depth(hand, mesh, fingers, identity_pose())


def test_align_depth_rejects_bad_finger_index():
    mesh = box_mesh((0.1, 0.1, 0.1))
    hand = _estimate(np.zeros((5, 3)))
    with pytest.raises(DimensionMismatch):
        align_depth(hand, mesh, contact_fingers=(0, 7), pose=identity_pose())


def test_align_depth_flat_objective():
    # a wall parallel to the search axis: sliding in z changes nothing
    mesh = box_mesh((0.01, 10.0, 10.0))
    tips = np.array([[0.055, y, 0.0] for y in (-0.02, -0.01, 0.0, 0.01, 0.02)])
    hand = _estimate(tips)
    with pytest.raises(NoConvergence, match="flat"):
        align_depth(hand, mesh, contact_fingers=(0, 1, 2, 3, 4),
                    pose=identity_pose())


# ---------------------------------------------------------------------------
# object frame transfer
# ---------------------------------------------------------------------------

def test_to_object_frame_matrix_oracle():
    root = pose_from_rotvec((0.2, -0.1, 0.4), (0.3, 0.1, 0.8))
    tips = np.array([[0.3, 0.1, 0.75], [0.28, 0.12, 0.8],
                     [0.33, 0.08, 0.82], [0.3, 0.15, 0.78], [0.27, 0.1, 0.83]])
    hand = _estimate(tips, root=root)
    t_o_gen = pose_from_rotvec((0.0, 0.5, -0.2), (0.25, 0.05, 0.7))
    out = to_object_frame(t_o_gen, hand)
    m = np.linalg.inv(pose_to_matrix(t_o_gen)) @ pose_to_matrix(root)
    assert np.allclose(pose_to_matrix(out.config.root_pose), m, atol=1e-12)
    assert np.allclose(out.fingertip_points,
                       transform_points(invert(t_o_gen), tips), atol=1e-12)


def test_to_object_frame_preserves_hand_shape():
    root = pose_from_rotvec((0.1, 0.2, 0.3), (1.0, -0.5, 2.0))
    tips = np.array([[1.0, -0.5, 1.9], [1.02, -0.48, 1.93], [0.98, -0.52, 1.95],
                     [1.05, -0.46, 1.88], [0.96, -0.55, 1.91]])
    hand = _estimate(tips, root=root)
    t_o_gen = pose_from_rotvec((0.7, -0.2, 0.1), (0.9, -0.4, 1.8))
    out = to_object_frame(t_o_gen, hand)
    before = tips - root.translation
    after = out.fingertip_points - out.config.root_pose.translation
    assert np.allclose(np.linalg.norm(before, axis=1),
                       np.linalg.norm(after, axis=1), atol=1e-12)
    assert np.array_equal(out.config.joint_angles, hand.config.joint_angles)
    assert out.skeleton == hand.skeleton
