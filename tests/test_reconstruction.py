import json
import shutil

import numpy as np
import pytest

import oracles
from cases import box_mesh, depth_fixture, pose_to_matrix, replay_scene
from dextra import reconstruction
from dextra.errors import (
    DimensionMismatch,
    EmptyContactSet,
    FixtureMissing,
    MissingField,
    NoConvergence,
)
from dextra.geometry import (
    identity_pose,
    invert,
    pose_from_rotvec,
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
    select_contact_fingers,
    to_object_frame,
)

CORE_SENTENCE = "generate a image of a human right hand grasping the object"


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
    with pytest.raises(MissingField, match="object_name"):
        SceneFixture(scene_dir)


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

def test_select_contact_fingers_radius(monkeypatch):
    mesh = box_mesh((0.1, 0.1, 0.1))
    tips = np.array([
        [0.0, 0.0, 0.051],   # 1 mm above the top face
        [0.0, 0.0, 0.074],   # 24 mm above
        [0.0, 0.0, 0.2],     # far away
        [0.0, 0.0, 0.049],   # 1 mm below the surface: still near it
        [0.0, 0.0, 0.0],     # dead center: 50 mm from every face
    ])
    hand = _estimate(tips)
    assert select_contact_fingers(hand, mesh, identity_pose()) == (0, 1, 3)
    monkeypatch.setattr(reconstruction, "CONTACT_SELECT_RADIUS", 0.002)
    assert select_contact_fingers(hand, mesh, identity_pose()) == (0, 3)


def test_align_depth_recovers_non_grid_shift():
    mesh, pts = depth_fixture("sphere")
    true_shift = 0.0173
    hand = _estimate(pts + [0.0, 0.0, true_shift])
    out = align_depth(hand, mesh, contact_fingers=(0, 1, 2, 3, 4),
                      pose=identity_pose())
    applied = float(out.config.root_pose.translation[2]
                    - hand.config.root_pose.translation[2])
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
                          pose=identity_pose())
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
    fingers = select_contact_fingers(hand, mesh, pose)
    assert fingers == select_contact_fingers(hand, moved, identity_pose()) != ()
    got = align_depth(hand, mesh, fingers, pose)
    want = align_depth(hand, moved, fingers, identity_pose())
    shift = got.config.root_pose.translation[2] - hand.config.root_pose.translation[2]
    assert abs(shift + 0.0173) < 1e-4
    assert np.allclose(got.fingertip_points, want.fingertip_points, atol=1e-9)


def test_align_depth_inverts_the_pose_once(monkeypatch):
    # every depth evaluation maps through one inverse pose; the shifts stay
    # the objective's third positional argument, one batch per grid level
    mesh, pts = depth_fixture("sphere")
    pose = pose_from_rotvec((0.3, -0.2, 0.5), (0.1, -0.05, 0.6))
    hand = _estimate(transform_points(pose, pts) + [0.0, 0.0, 0.0173])
    inverted, shifts = [], []
    invert, objective = reconstruction.invert, reconstruction._depth_objective

    def counted_invert(p):
        inverted.append(p)
        return invert(p)

    def counted_objective(*args):
        shifts.append(len(args[2]))
        return objective(*args)

    monkeypatch.setattr(reconstruction, "invert", counted_invert)
    monkeypatch.setattr(reconstruction, "_depth_objective", counted_objective)
    align_depth(hand, mesh, (0, 1, 2, 3, 4), pose)
    assert inverted == [pose]
    assert shifts == [61, 21, 21, 21]


def test_align_depth_needs_contacts():
    mesh = box_mesh((0.1, 0.1, 0.1))
    hand = _estimate(np.full((5, 3), 5.0))  # nowhere near the box
    fingers = select_contact_fingers(hand, mesh, identity_pose())
    assert fingers == ()
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
