#!/usr/bin/env python3
"""Author the scene fixtures under scenes/ and check them end to end.

Each scene is designed backwards from a known-good robot grasp: flex the
robot hand around a cylinder fitted to its own fingertips, refine the
fingertips onto the actual mesh wall, then express everything in the
object frame.  The recorded hand estimate is that grasp re-expressed in a
synthetic generated-camera frame with a deliberate depth error, so the
full pipeline has real work to do and a known-correct answer.

Every scene is validated by running the pipeline three ways before it is
accepted: defaults must come out stable, skipping the frame transfer must
not, and (for fragile objects) disabling the force latch must damage it.

The checked-in fixtures under scenes/ are authoritative.  Rerunning this
script does not reproduce them bit for bit: its `hand_estimate.json` differs
by ~1e-10 even with the code that wrote them, and since the script refines
its grasps with `refine_retarget`, its output also moves whenever the
fingertip jacobian's last bits do.  Regenerating the fixtures moves every
stage digest in tests/golden/digests.json.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from dextra.geometry import (  # noqa: E402
    compose,
    identity_pose,
    pose_from_axis_angle,
    pose_from_rotvec,
    pose_to_record,
    save_obj,
    surface_query,
    transform_points,
    cylinder_mesh,
)
from dextra.kinematics import (  # noqa: E402
    HandConfiguration,
    bundled_model,
    clamp_to_limits,
    fingertip_positions,
    rest_configuration,
)
from dextra.pipeline import PipelineSettings, derive_engagement, run_pipeline  # noqa: E402
from dextra.retarget import (  # noqa: E402
    FRAME_OBJECT,
    GraspAction,
    make_pregrasp,
    make_squeeze,
    refine_retarget,
)

SCENES_DIR = REPO / "scenes"
ROBOT_MODEL = "inspire-like-6dof"
HUMAN_MODEL = "human-20dof"

# realized squeeze force as a multiple of the target force: high enough to
# guarantee the latch fires, low enough to keep the locked overshoot small
SQUEEZE_FORCE_RATIO = 2.5


def design_grasp(model, yaw: float, flex: np.ndarray):
    """A robot grasp around a cylinder fitted to the flexed fingertips.

    Returns (grasp in object frame, mesh, fitted radius).  The cylinder
    axis is the fingertip row direction (the hand's x), mapped to the
    object frame's z.
    """
    cfg0 = rest_configuration(model)
    angles = np.array(cfg0.joint_angles)
    angles[model.joint_index["thumb_yaw"]] = yaw
    for name, a in zip(model.finger_drivers, flex):
        angles[model.joint_index[name]] = float(a)
    angles = clamp_to_limits(model, angles)
    tips = fingertip_positions(model, HandConfiguration(identity_pose(), angles))

    # least-squares circle through the fingertips in the y-z plane
    y, z = tips[:, 1], tips[:, 2]
    a_mat = np.column_stack([2.0 * y, 2.0 * z, np.ones(len(tips))])
    sol, *_ = np.linalg.lstsq(a_mat, y * y + z * z, rcond=None)
    cy, cz, k = sol
    radius = math.sqrt(k + cy * cy + cz * cz)
    if not 0.024 <= radius <= 0.09:
        raise ValueError(f"fitted radius {radius:.3f} m is outside a graspable range")

    cx = 0.5 * (tips[:, 0].max() + tips[:, 0].min())
    half_height = float(np.abs(tips[:, 0] - cx).max()) + 0.03
    # hand x (the row direction) becomes the object frame's z axis
    to_object = compose(pose_from_axis_angle((0.0, 1.0, 0.0), -math.pi / 2.0),
                        pose_from_axis_angle((1.0, 0.0, 0.0), 0.0,
                                             (-cx, -cy, -cz)))
    mesh = cylinder_mesh(radius, 2.0 * half_height, segments=48)

    tips_obj = transform_points(to_object, tips)
    targets = surface_query(mesh, tips_obj).point
    initial = GraspAction(
        hand_model=model.name,
        config=HandConfiguration(to_object, angles),
        frame=FRAME_OBJECT,
        residual=np.linalg.norm(tips_obj - targets, axis=1))
    grasp = refine_retarget(initial, targets, model, wrist_free=True)
    if float(grasp.residual.max()) > 2e-3:
        raise ValueError(f"design residual {grasp.residual.max():.4f} m is too loose")
    return grasp, mesh, radius


def pick_stiffness(model, grasp, mesh, f_target: float):
    """Stiffness making the full squeeze reach SQUEEZE_FORCE_RATIO * target."""
    pre = make_pregrasp(grasp, mesh, model)
    squeeze = make_squeeze(grasp, mesh, model)
    engagement = derive_engagement(model, pre, squeeze, mesh)
    drivers = [model.joint_index[n] for n in model.finger_drivers]
    closing = np.asarray(squeeze.config.joint_angles)[drivers] - engagement
    finite = np.isfinite(closing) & (closing > 0.0)
    if int(finite.sum()) < 3:
        raise ValueError("fewer than three fingers ever reach the surface")
    stiffness = round(SQUEEZE_FORCE_RATIO * f_target / float(np.median(closing[finite])), 1)
    reachable = stiffness * closing[finite]
    if int((reachable >= 1.15 * f_target).sum()) < 3:
        raise ValueError("fewer than three fingers can reach the target force")
    return stiffness, float(reachable.max())


def random_pose(rng, rot_scale: float, base, jitter: float):
    rotvec = rng.uniform(-1.0, 1.0, 3) * rot_scale
    trans = np.asarray(base, dtype=float) + rng.uniform(-1.0, 1.0, 3) * jitter
    return pose_from_rotvec(rotvec, trans)


def human_estimate(robot_model, human_model, grasp, depth_error: float, t_gen):
    """The authored grasp disguised as a monocular human hand estimate.

    Joint angles come from inverting the structural joint map, the wrist is
    shared, the fingertip keypoints are the robot's achieved contacts, and
    the whole thing is expressed in the generated camera with a deliberate
    depth offset that the pipeline must recover.
    """
    h_angles = np.array([j.rest for j in human_model.joints])
    for hname, mname in robot_model.human_joint_map:
        idx = human_model.joint_index[hname]
        val = float(grasp.config.joint_angles[robot_model.joint_index[mname]])
        lo, hi = human_model.joints[idx].limits
        h_angles[idx] = min(max(val, lo), hi)
    tips_obj = fingertip_positions(robot_model, grasp.config)

    shift = np.array([0.0, 0.0, depth_error])
    root = compose(t_gen, grasp.config.root_pose)
    root_gen = replace_translation(root, root.translation + shift)
    tips_gen = transform_points(t_gen, tips_obj) + shift
    return {
        "skeleton": human_model.name,
        "root_pose": pose_to_record(root_gen),
        "joint_angles": [float(a) for a in h_angles],
        "fingertip_points": [[float(v) for v in p] for p in tips_gen],
        "keypoints_independent": True,
    }


def replace_translation(pose, translation):
    from dextra.geometry import SE3Pose
    return SE3Pose(pose.rotation, np.asarray(translation, dtype=float))


def write_scene(name: str, object_name: str, intent: str, rng,
                yaw: float, flex: np.ndarray, depth_error: float,
                fragile: bool) -> Path:
    robot = bundled_model(ROBOT_MODEL)
    human = bundled_model(HUMAN_MODEL)
    grasp, mesh, radius = design_grasp(robot, yaw, flex)

    f_target = bundled_force(object_name)
    stiffness, max_force = pick_stiffness(robot, grasp, mesh, f_target)
    yield_force = 2.0 * f_target if fragile else None
    if fragile and max_force < 1.1 * yield_force:
        raise ValueError(f"{name}: unchecked squeeze only reaches {max_force:.2f} N, "
                         f"not enough to exceed the {yield_force:.2f} N yield")

    t_gen = random_pose(rng, 0.35, (0.02, -0.03, 0.55), 0.04)
    t_obs = random_pose(rng, 0.35, (-0.04, 0.05, 0.62), 0.04)
    hand_eye = random_pose(rng, 0.3, (0.25, -0.12, 0.18), 0.05)

    scene_dir = (SCENES_DIR / "fragile" / name) if fragile else (SCENES_DIR / name)
    scene_dir.mkdir(parents=True, exist_ok=True)

    save_obj(scene_dir / "object.obj", mesh)
    (scene_dir / "scene.json").write_text(json.dumps({
        "name": name,
        "object_name": object_name,
        "intent": intent,
        "prompt_kind": "language",
        "hand_model": ROBOT_MODEL,
    }, indent=2) + "\n", encoding="utf-8")
    (scene_dir / "hand_estimate.json").write_text(json.dumps(
        human_estimate(robot, human, grasp, depth_error, t_gen),
        indent=2) + "\n", encoding="utf-8")
    (scene_dir / "poses.json").write_text(json.dumps({
        "object_pose_generated": pose_to_record(t_gen),
        "object_pose_observed": pose_to_record(t_obs),
        "hand_eye": pose_to_record(hand_eye),
    }, indent=2) + "\n", encoding="utf-8")
    (scene_dir / "contact.json").write_text(json.dumps({
        "stiffness": stiffness,
        "engagement": "auto",
        "yield_force": yield_force,
        "noise_sigma": 0.0,
    }, indent=2) + "\n", encoding="utf-8")
    return scene_dir


def bundled_force(object_name: str) -> float:
    from dextra.reconstruction import _load_force_table
    return _load_force_table()[object_name]


def check_scene(scene_dir: Path, depth_error: float, fragile: bool) -> str:
    base = PipelineSettings()
    report = run_pipeline(scene_dir, base)
    assert report.verdict == "stable", f"{scene_dir.name}: default run is {report.verdict}"
    shift = report.alignment["depth_shift"]
    assert abs(shift + depth_error) < 1e-3, (
        f"{scene_dir.name}: recovered depth {shift:+.4f}, injected {depth_error:+.4f}")
    assert max(report.retarget["residual"]) < 2e-3, f"{scene_dir.name}: sloppy retarget"

    no_transfer = run_pipeline(scene_dir, replace(base, transfer=False))
    assert no_transfer.verdict != "stable", (
        f"{scene_dir.name}: still {no_transfer.verdict} without the frame transfer")

    line = (f"{scene_dir.name}: stable, depth {shift:+.4f}, "
            f"no-transfer {no_transfer.verdict}")
    if fragile:
        no_lock = run_pipeline(scene_dir, replace(base, force_lock=False))
        assert no_lock.verdict == "damaged", (
            f"{scene_dir.name}: {no_lock.verdict} without the force latch")
        line += f", no-lock {no_lock.verdict}"
    return line


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--skip-checks", action="store_true",
                        help="write fixtures without running the pipeline checks")
    args = parser.parse_args()

    if SCENES_DIR.exists():
        shutil.rmtree(SCENES_DIR)

    rng = np.random.default_rng(20260819)
    jobs = []
    jobs.append(("mug-01", "mug", "pick up the mug by the body", 0.35,
                 np.array([0.52, 0.55, 0.57, 0.55, 0.53]), 0.02, False))
    for i in range(1, 11):
        fragile_name = f"fragile-{i:02d}"
        object_name = "paper cup" if i % 2 == 1 else "glass bottle"
        intent = ("hand me the cup without crushing it" if i % 2 == 1
                  else "lift the bottle gently")
        yaw = 0.3 + 0.4 * rng.random()
        flex = 0.45 + 0.23 * rng.random() + rng.uniform(-0.02, 0.02, 5)
        depth_error = float(rng.choice([-0.018, -0.012, 0.012, 0.018]))
        jobs.append((fragile_name, object_name, intent, yaw, flex,
                     depth_error, True))

    for name, object_name, intent, yaw, flex, depth_error, fragile in jobs:
        scene_dir = write_scene(name, object_name, intent, rng, yaw,
                                np.asarray(flex, dtype=float), depth_error, fragile)
        if args.skip_checks:
            print(f"{name}: written (checks skipped)")
        else:
            print(check_scene(scene_dir, depth_error, fragile))
    print(f"wrote {len(jobs)} scenes under {SCENES_DIR}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
