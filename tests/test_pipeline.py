import dataclasses
import hashlib
import json
import shutil

import numpy as np
import pytest

from dextra.errors import (
    EmptyTrajectory,
    FixtureMissing,
    SchemaError,
    StageError,
    WrongFrame,
)
from dextra.geometry import (
    box_mesh,
    compose,
    identity_pose,
    pose_from_rotvec,
    pose_to_matrix,
    transform_mesh,
)
from dextra.graspctl import GraspGains
from dextra.kinematics import (
    HandConfiguration,
    fingertip_positions,
    rest_configuration,
)
from dextra.pipeline import (
    STAGE_NAMES,
    ObjectTrajectory,
    PipelineSettings,
    _SETTINGS_RULES,
    canonical,
    canonical_json,
    content_digest,
    derive_engagement,
    grasp_record,
    manipulation_trajectory,
    run_pipeline,
    settings_from_dict,
)
from dextra.reconstruction import SceneFixture, build_prompt, gather_reconstruction
from dextra.retarget import FRAME_OBJECT, FRAME_ROBOT, GraspAction
from dextra.geometry import surface_query


def _mug_bundle(mug_scene):
    scene = SceneFixture(mug_scene)
    prompt = build_prompt(scene.object_name, scene.intent, scene.prompt_kind,
                          observation_ref=scene.observation.image_ref)
    return scene, gather_reconstruction(scene, prompt)


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_scalars_and_containers():
    assert canonical(None) is None
    assert canonical("x") == "x"
    assert canonical(np.bool_(True)) is True
    assert canonical(np.int64(7)) == 7
    assert canonical(np.float64(2.5)) == 2.5
    assert canonical(float("nan")) == "nan"
    assert canonical(float("-inf")) == "-inf"
    assert canonical({1: float("inf")}) == {"1": "inf"}
    assert canonical((1, "a", None)) == [1, "a", None]
    assert canonical(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]


def test_canonical_domain_objects(robot_model):
    pose = pose_from_rotvec((0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
    rec = canonical(pose)
    assert set(rec) == {"rotation", "translation"}
    assert rec["translation"] == [1.0, 2.0, 3.0]

    grasp = GraspAction(hand_model=robot_model.name,
                        config=rest_configuration(robot_model),
                        frame=FRAME_OBJECT, residual=np.zeros(5))
    assert canonical(grasp) == grasp_record(grasp)
    assert set(grasp_record(grasp)) == {"hand_model", "frame", "root_pose",
                                        "joint_angles", "residual"}

    mesh = box_mesh((0.1, 0.2, 0.3))
    summary = canonical(mesh)
    assert summary["vertex_count"] == 8
    assert summary["triangle_count"] == 12
    assert len(summary["content"]) == 64
    assert canonical(box_mesh((0.1, 0.2, 0.3)))["content"] == summary["content"]

    assert canonical(GraspGains()) == {"kp": 5.0, "kd": 0.1}


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical(object())


def test_canonical_json_and_digest():
    text = canonical_json({"b": 1, "a": float("nan")})
    assert text == '{"a":"nan","b":1}'
    want = hashlib.sha256(text.encode()).hexdigest()
    assert content_digest({"b": 1, "a": float("nan")}) == want


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def test_settings_from_dict_defaults_and_nested():
    assert settings_from_dict({}) == PipelineSettings()
    s = settings_from_dict({
        "hand_model": "leap-like-16dof",
        "optimizer": {"max_iterations": 50},
        "gains": {"kp": 3.0},
        "stability_band": [0.8, 1.2],
        "transfer": False,
    })
    assert s.hand_model == "leap-like-16dof"
    assert s.optimizer.max_iterations == 50
    assert s.optimizer.damping_init == 1e-3
    assert s.gains.kp == 3.0
    assert s.stability_band == (0.8, 1.2)
    assert s.transfer is False


def test_settings_from_dict_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown settings key 'frobnicate'"):
        settings_from_dict({"frobnicate": 1})
    with pytest.raises(SchemaError, match="unknown optimizer key 'momentum'"):
        settings_from_dict({"optimizer": {"momentum": 0.9}})
    with pytest.raises(SchemaError, match="unknown gains key 'ki'"):
        settings_from_dict({"gains": {"ki": 1.0}})
    with pytest.raises(SchemaError, match="section 'optimizer' must be an object"):
        settings_from_dict({"optimizer": 5})


@pytest.mark.parametrize("doc, keys", [
    ({"stability_band": 5}, ["stability_band"]),
    ({"stability_band": [0.9, "1.1"]}, ["stability_band"]),
    ({"dt": 0}, ["dt"]),
    ({"standoff": -0.05}, ["standoff"]),
    ({"max_steps": 2.5}, ["max_steps"]),
    ({"min_stable_fingers": 0}, ["min_stable_fingers"]),
    ({"transfer": "no"}, ["transfer"]),
    ({"force_lock": 1}, ["force_lock"]),
    ({"seed": True}, ["seed"]),
    ({"noise_sigma": -0.1}, ["noise_sigma"]),
    ({"optimizer": {"max_iterations": "50"}, "gains": {"kp": None}},
     ["max_iterations", "kp"]),
    ({"dt": "fast", "seed": 1.5, "noise_sigma": "low", "frobnicate": 1},
     ["dt", "seed", "noise_sigma", "frobnicate"]),
])
def test_settings_from_dict_rejects_bad_values(doc, keys):
    with pytest.raises(SchemaError) as err:
        settings_from_dict(doc)
    # one error naming every bad key, in document order
    assert len(err.value.violations) == len(keys)
    for key, violation in zip(keys, err.value.violations):
        assert f"key '{key}'" in violation


def test_every_setting_has_a_value_rule():
    assert set(_SETTINGS_RULES) == {f.name for f in dataclasses.fields(PipelineSettings)}
    doc = {"hand_model": None, "dt": 0.005, "max_steps": 10, "stability_band": [0.8, 1.2],
           "transfer": False, "seed": 3, "noise_sigma": None,
           "optimizer": {"max_iterations": 5, "damping_init": 1}, "gains": {"kd": 0}}
    assert settings_from_dict(doc).optimizer.max_iterations == 5


# ---------------------------------------------------------------------------
# full runs on the bundled scene
# ---------------------------------------------------------------------------

def test_pipeline_runs_every_stage_in_order(mug_scene):
    report = run_pipeline(mug_scene)
    assert tuple(r["name"] for r in report.stages) == STAGE_NAMES
    for record in report.stages:
        assert len(record["input"]) == 64
        assert len(record["output"]) == 64
    assert report.scene == "mug-01"
    assert report.object_name == "mug"
    assert report.hand_model == "inspire-like-6dof"
    assert report.verdict == "stable"
    assert report.f_target > 0.0


def test_pipeline_report_is_reproducible(mug_scene):
    a = run_pipeline(mug_scene)
    b = run_pipeline(mug_scene)
    assert a.to_json() == b.to_json()
    assert a.as_dict() == b.as_dict()
    assert "timings" not in a.as_dict()
    # timings ride along but stay out of the digested content
    assert set(a.timings) == set(STAGE_NAMES)
    assert "timings" in a.as_dict(include_timings=True)
    assert [r["output"] for r in a.stages] == [r["output"] for r in b.stages]


def test_pipeline_engagement_is_geometric(mug_scene, robot_model):
    report = run_pipeline(mug_scene)
    scene, bundle = _mug_bundle(mug_scene)
    mesh_exec = transform_mesh(bundle.mesh,
                               compose(scene.hand_eye(), bundle.object_pose_observed))
    engagement = report.execution["engagement"]
    drivers = [robot_model.joint_index[n] for n in robot_model.finger_drivers]
    pre = report.actions["pre_executed"]
    squeeze = report.actions["squeeze_executed"]

    assert not np.isfinite(engagement[0])      # thumb never reaches the body
    assert np.isfinite(engagement[1:]).all()
    for k, j in enumerate(drivers):
        if not np.isfinite(engagement[k]):
            continue
        lo = pre.config.joint_angles[j]
        hi = squeeze.config.joint_angles[j]
        assert lo - 1e-9 <= engagement[k] <= hi + 1e-9
        angles = np.array(squeeze.config.joint_angles)
        angles[j] = engagement[k]
        tips = fingertip_positions(
            robot_model, HandConfiguration(squeeze.config.root_pose, angles))
        assert abs(surface_query(mesh_exec, tips[k]).distance[0]) < 5e-5


def test_pipeline_engagement_rejects_frame_mismatch(robot_model):
    obj = GraspAction(hand_model=robot_model.name,
                      config=rest_configuration(robot_model),
                      frame=FRAME_OBJECT, residual=np.zeros(5))
    rob = GraspAction(hand_model=robot_model.name,
                      config=rest_configuration(robot_model),
                      frame=FRAME_ROBOT, residual=np.zeros(5))
    with pytest.raises(SchemaError, match="pre grasp is in"):
        derive_engagement(robot_model, obj, rob, box_mesh((0.1, 0.1, 0.1)))


def test_pipeline_without_transfer_uses_generated_pose(mug_scene):
    report = run_pipeline(mug_scene, PipelineSettings(transfer=False))
    assert report.execution["transfer"] is False
    assert report.verdict == "unstable"
    _, bundle = _mug_bundle(mug_scene)
    for name in ("pre", "squeeze"):
        executed = report.actions[f"{name}_executed"]
        in_object = report.actions[f"{name}_object"]
        want = compose(bundle.object_pose_generated, in_object.config.root_pose)
        assert np.allclose(pose_to_matrix(executed.config.root_pose),
                           pose_to_matrix(want), atol=1e-12)
        assert np.array_equal(executed.config.joint_angles,
                              in_object.config.joint_angles)


def test_pipeline_without_force_lock_flag(mug_scene):
    report = run_pipeline(mug_scene, PipelineSettings(force_lock=False))
    assert report.execution["force_lock"] is False
    assert not report.result.locked.any()


def test_pipeline_stage_errors_name_their_stage(mug_scene, tmp_path):
    broken = tmp_path / "mug-broken"
    shutil.copytree(mug_scene, broken)
    doc = json.loads((broken / "hand_estimate.json").read_text())
    doc["joint_angles"] = "bogus"
    (broken / "hand_estimate.json").write_text(json.dumps(doc))
    with pytest.raises(StageError) as err:
        run_pipeline(broken)
    assert err.value.stage == "providers"

    nocontact = tmp_path / "mug-nocontact"
    shutil.copytree(mug_scene, nocontact)
    (nocontact / "contact.json").unlink()
    with pytest.raises(FixtureMissing) as err:
        run_pipeline(nocontact)
    assert err.value.stage == "execute"


def test_pipeline_export_writes_stage_geometry(mug_scene, tmp_path):
    out = tmp_path / "geom"
    run_pipeline(mug_scene, export_dir=out)
    expected = {"object_frame.obj", "executed_frame.obj"} | {
        f"tips_{name}.obj"
        for name in ("object", "pre_object", "squeeze_object", "pre_executed",
                     "squeeze_executed", "plan_standoff", "plan_final")}
    assert {p.name for p in out.iterdir()} == expected
    for p in out.iterdir():
        assert p.read_text().lstrip().startswith("v ")


# ---------------------------------------------------------------------------
# manipulation along an object trajectory
# ---------------------------------------------------------------------------

def _object_grasp(model):
    root = pose_from_rotvec((0.2, -0.1, 0.4), (0.02, 0.05, 0.1))
    cfg = HandConfiguration(root, rest_configuration(model).joint_angles)
    return GraspAction(hand_model=model.name, config=cfg,
                       frame=FRAME_OBJECT, residual=np.zeros(5))


def test_object_trajectory_validation():
    poses = (identity_pose(), identity_pose())
    with pytest.raises(SchemaError, match="disagree in length"):
        ObjectTrajectory(times=[0.0], poses=poses)
    with pytest.raises(SchemaError, match="strictly increasing"):
        ObjectTrajectory(times=[0.0, 0.0], poses=poses)
    records = [
        {"t": 0.0, "pose": {"rotation": [1, 0, 0, 0], "translation": [0, 0, 0]}},
        {"t": 0.5, "pose": {"rotation": [1, 0, 0, 0], "translation": [0, 0, 0.1]}},
    ]
    traj = ObjectTrajectory.from_records(records)
    assert len(traj) == 2
    assert np.allclose(traj.poses[1].translation, [0.0, 0.0, 0.1])


def test_manipulation_keeps_grasp_rigidly_attached(robot_model):
    rng = np.random.default_rng(21)
    poses = tuple(
        pose_from_rotvec(rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.3, 3))
        for _ in range(4))
    traj = ObjectTrajectory(times=np.arange(4, dtype=float), poses=poses)
    hand_eye = pose_from_rotvec((0.1, 0.0, -0.2), (0.3, -0.1, 0.2))
    grasp = _object_grasp(robot_model)
    wrists = manipulation_trajectory(grasp, traj, hand_eye)
    assert len(wrists) == 4
    for pose, out in zip(poses, wrists):
        assert out.frame == FRAME_ROBOT
        want = (pose_to_matrix(hand_eye) @ pose_to_matrix(pose)
                @ pose_to_matrix(grasp.config.root_pose))
        assert np.allclose(pose_to_matrix(out.config.root_pose), want, atol=1e-12)
        assert np.array_equal(out.config.joint_angles, grasp.config.joint_angles)


def test_manipulation_rejects_empty_or_wrong_frame(robot_model):
    grasp = _object_grasp(robot_model)
    hand_eye = identity_pose()
    with pytest.raises(EmptyTrajectory, match="no samples"):
        manipulation_trajectory(grasp, ObjectTrajectory(times=[], poses=()),
                                hand_eye)
    robot_grasp = GraspAction(hand_model=robot_model.name, config=grasp.config,
                              frame=FRAME_ROBOT, residual=np.zeros(5))
    traj = ObjectTrajectory(times=[0.0], poses=(identity_pose(),))
    with pytest.raises(WrongFrame):
        manipulation_trajectory(robot_grasp, traj, hand_eye)
