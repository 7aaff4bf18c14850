"""Acceptance gate: one test per shipping criterion, each printing a PASS line.

Every criterion is checked against an independent oracle or a frozen
construction from `oracles`/`cases`, never against the package's own
arithmetic.  Run with `pytest tests/test_acceptance.py -v -s` to see the
measured numbers.
"""

import json
import time

import numpy as np
import pytest

import cases
import oracles
from conftest import MODELS_DIR, SCENES_DIR
from cases import pose_to_matrix
from dextra.cli import main as cli_main
from dextra.errors import WrongFrame
from dextra.geometry import identity_pose, pose_from_rotvec, rotate_vector, surface_query
from dextra.kinematics import (
    HandConfiguration,
    HandPoseEstimate,
    bundled_model,
    clamp_to_limits,
    fingertip_positions,
    perturb_root,
)
from dextra.pipeline import run_pipeline
from dextra.reconstruction import align_depth
from dextra.retarget import (
    ENGAGE_THRESHOLD,
    FRAME_OBJECT,
    GraspAction,
    make_pregrasp_and_squeeze,
    refine_retarget,
    to_robot_frame,
)

BUNDLED_MODELS = ("human-20dof", "inspire-like-6dof", "leap-like-16dof",
                  "shadow-like-22dof")
MUG_DIR = SCENES_DIR / "mug-01"
FRAGILE_DIR = SCENES_DIR / "fragile"


@pytest.fixture(scope="module")
def mug_report():
    return run_pipeline(MUG_DIR)


@pytest.fixture(scope="module")
def fragile_batches(tmp_path_factory):
    """Four CLI batch runs over the fragile scenes: two default, two ablated."""
    root = tmp_path_factory.mktemp("fragile-batches")
    runs = {}
    for label, flags in (("default", ()), ("repeat", ()),
                         ("no_lock", ("--no-force-lock",)),
                         ("no_transfer", ("--no-transfer",))):
        out = root / label
        code = cli_main(["batch", str(FRAGILE_DIR), "--out", str(out), *flags])
        doc = json.loads((out / "summary.json").read_text())
        runs[label] = {"code": code, "out": out, "doc": doc}
    return runs


def _verdict_counts(doc):
    counts = {"stable": 0, "unstable": 0, "damaged": 0}
    for row in doc["scenes"]:
        counts[row["verdict"]] += 1
    return counts


def test_criterion_1_fk_matches_matrix_chain_oracle():
    rng = np.random.default_rng(3)
    per_model = 100
    worst = 0.0
    fk_seconds = 0.0
    for name in BUNDLED_MODELS:
        model = bundled_model(name)
        doc = json.loads((MODELS_DIR / f"{name}.json").read_text())
        for _ in range(per_model):
            angles = rng.uniform(model.lower_limits, model.upper_limits)
            root = pose_from_rotvec(rng.normal(0.0, 0.6, 3),
                                    rng.normal(0.0, 0.2, 3))
            config = HandConfiguration(root, angles)
            start = time.perf_counter()
            tips = fingertip_positions(model, config)
            fk_seconds += time.perf_counter() - start
            want = oracles.chain_fingertips(doc, pose_to_matrix(root), angles)
            worst = max(worst, float(np.abs(tips - want).max()))
    assert worst < 1e-9
    assert fk_seconds < 1.0
    print(f"PASS criterion 1: {per_model} configs x {len(BUNDLED_MODELS)} models, "
          f"max fingertip error {worst:.3e} m < 1e-9, FK time {fk_seconds:.3f} s < 1 s")


def test_criterion_2_retarget_recovers_reachable_targets(robot_model):
    rng = np.random.default_rng(7)
    trials = 100
    recovered = 0
    residuals = []
    start = time.perf_counter()
    for _ in range(trials):
        angles = rng.uniform(robot_model.lower_limits, robot_model.upper_limits)
        root = pose_from_rotvec(rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.05, 3))
        targets = fingertip_positions(robot_model, HandConfiguration(root, angles))
        seed_angles = clamp_to_limits(
            robot_model, angles + rng.uniform(-0.2, 0.2, robot_model.dof))
        seed_root = perturb_root(
            root, np.concatenate([np.zeros(3), rng.uniform(-0.02, 0.02, 3)]))
        out = refine_retarget(HandConfiguration(seed_root, seed_angles), targets,
                              robot_model, wrist_free=True)
        residuals.append(float(out.residual.max()))
        recovered += residuals[-1] < 1e-3
    elapsed = time.perf_counter() - start
    assert recovered >= 95
    assert elapsed < 30.0
    print(f"PASS criterion 2: {recovered}/{trials} targets recovered below "
          f"1e-3 m (median residual {np.median(residuals):.2e} m) "
          f"in {elapsed:.1f} s < 30 s")


def test_criterion_3_frame_transfer_matches_matrix_products(robot_model):
    rng = np.random.default_rng(11)
    trials = 1000
    worst = 0.0
    rejected = 0
    for _ in range(trials):
        root = pose_from_rotvec(rng.normal(0.0, 0.8, 3), rng.normal(0.0, 0.4, 3))
        angles = rng.uniform(robot_model.lower_limits, robot_model.upper_limits)
        grasp = GraspAction(hand_model=robot_model.name,
                            config=HandConfiguration(root, angles),
                            frame=FRAME_OBJECT,
                            residual=np.zeros(robot_model.fingertip_count))
        t_obs = pose_from_rotvec(rng.normal(0.0, 0.8, 3), rng.normal(0.0, 0.4, 3))
        hand_eye = pose_from_rotvec(rng.normal(0.0, 0.8, 3), rng.normal(0.0, 0.4, 3))
        out = to_robot_frame(grasp, t_obs, hand_eye)
        want = (pose_to_matrix(hand_eye) @ pose_to_matrix(t_obs)
                @ pose_to_matrix(root))
        worst = max(worst, float(np.abs(pose_to_matrix(out.config.root_pose)
                                        - want).max()))
        with pytest.raises(WrongFrame):
            to_robot_frame(out, t_obs, hand_eye)
        rejected += 1
    assert worst < 1e-9
    assert rejected == trials
    print(f"PASS criterion 3: {trials} random transfer triples, max deviation "
          f"from the matrix product {worst:.3e} < 1e-9; double application "
          f"rejected {rejected}/{trials}")


def test_criterion_4_depth_alignment_recovers_synthetic_shifts():
    shifts = (-0.08, -0.03, -0.01, 0.01, 0.03, 0.08)
    worst_recovery = 0.0
    worst_vs_grid = 0.0
    checked = 0
    for name in cases.DEPTH_FIXTURES:
        mesh, pts = cases.depth_fixture(name)
        for shift in shifts:
            shifted = pts + [0.0, 0.0, shift]
            hand = HandPoseEstimate(
                config=HandConfiguration(pose_from_rotvec((0, 0, 0), (0, 0, 0)),
                                         np.zeros(20)),
                fingertip_points=shifted, skeleton="human-20dof")
            out = align_depth(hand, mesh, contact_fingers=(0, 1, 2, 3, 4),
                              pose=identity_pose())
            applied = float(out.config.root_pose.translation[2]
                            - hand.config.root_pose.translation[2])
            grid = oracles.depth_grid_argmin(mesh.vertices, mesh.triangles,
                                             shifted)
            worst_recovery = max(worst_recovery, abs(applied + shift))
            worst_vs_grid = max(worst_vs_grid, abs(applied - grid))
            checked += 1
    assert worst_recovery <= 1e-3
    assert worst_vs_grid <= 2e-5
    print(f"PASS criterion 4: {checked} shift/mesh pairs, worst recovery error "
          f"{worst_recovery:.2e} m <= 1e-3, worst gap to the 1e-5 grid oracle "
          f"{worst_vs_grid:.2e} m <= 2e-5")


def test_criterion_5_grasp_offsets_on_flat_faces(human_model):
    rng = np.random.default_rng(42)
    mesh = cases.wrap_box_mesh()
    trials = 100
    wrist_fixed = 0
    worst_pre = 0.0
    worst_squeeze = 0.0
    for _ in range(trials):
        grasp = cases.wrap_grasp(human_model, mesh, rng)
        contacts = surface_query(mesh, fingertip_positions(human_model, grasp.config))
        assert np.all(contacts.distance <= ENGAGE_THRESHOLD)
        pre, _ = make_pregrasp_and_squeeze(grasp, mesh, human_model)
        heights = surface_query(mesh, fingertip_positions(human_model, pre.config)).distance
        worst_pre = max(worst_pre, float(np.abs(heights - 0.05).max()))
        targets = contacts.point - 0.01 * contacts.normal
        depths = surface_query(mesh, targets).distance
        worst_squeeze = max(worst_squeeze, float(np.abs(depths + 0.01).max()))
        wrist_fixed += pre.config.root_pose is grasp.config.root_pose
    assert worst_pre <= 2e-3
    assert worst_squeeze <= 1e-9
    assert wrist_fixed == trials
    print(f"PASS criterion 5: {trials} draped grasps, pre-grasp tips "
          f"0.05 m outside within {worst_pre:.2e} m, squeeze targets 0.01 m "
          f"inside within {worst_squeeze:.2e} m, wrist bitwise unchanged "
          f"{wrist_fixed}/{trials}")


def test_criterion_6_force_controller_locks_at_target(mug_report, robot_model):
    execution = mug_report.execution
    engagement = execution["engagement"]
    engaged = np.isfinite(engagement)
    assert engaged.sum() >= 3

    result = mug_report.result
    f_target = mug_report.f_target
    assert result.locked[engaged].all()
    assert np.all(result.final_forces[engaged] >= 0.9 * f_target)
    assert np.all(result.final_forces[engaged] <= 1.1 * f_target)
    one_step = execution["stiffness"] * result.peak_commands * execution["dt"]
    assert np.all(result.peak_forces[engaged]
                  <= f_target + one_step[engaged] + 1e-12)

    drivers = [robot_model.joint_index[n] for n in robot_model.finger_drivers]
    pre = mug_report.actions["pre_executed"].config.joint_angles[drivers]
    squeeze = mug_report.actions["squeeze_executed"].config.joint_angles[drivers]
    oracle = oracles.pd_spring_episode(
        start=pre, squeeze=squeeze, stiffness=execution["stiffness"],
        engagement=engagement, f_target=f_target, dt=execution["dt"])
    trace = result.trace
    assert trace.positions.shape == oracle["positions"].shape
    gap = max(float(np.abs(trace.positions - oracle["positions"]).max()),
              float(np.abs(trace.forces - oracle["forces"]).max()),
              float(np.abs(trace.commands - oracle["commands"]).max()))
    assert gap < 1e-6
    assert np.array_equal(trace.locked, oracle["locked"])
    assert np.abs(result.final_forces - oracle["final_forces"]).max() < 1e-6
    assert mug_report.timings["execute"] < 1.0
    print(f"PASS criterion 6: {int(engaged.sum())} engaged fingers locked with "
          f"final forces in [0.9, 1.1] x {f_target:g} N, peaks within the "
          f"one-step bound, trace matches the scalar recursion within "
          f"{gap:.2e} < 1e-6 over {result.steps} steps, "
          f"{mug_report.timings['execute'] * 1e3:.0f} ms < 1 s")


def test_criterion_7_ablations_move_verdicts_the_right_way(fragile_batches):
    default = _verdict_counts(fragile_batches["default"]["doc"])
    no_lock = _verdict_counts(fragile_batches["no_lock"]["doc"])
    no_transfer = _verdict_counts(fragile_batches["no_transfer"]["doc"])
    assert fragile_batches["default"]["code"] == 0
    failed_default = default["damaged"] + default["unstable"]
    failed_no_lock = no_lock["damaged"] + no_lock["unstable"]
    assert failed_no_lock > failed_default
    assert no_transfer["unstable"] > default["unstable"]
    print(f"PASS criterion 7: default {default}, without the force lock "
          f"{no_lock} (damaged+unstable {failed_no_lock} > {failed_default}), "
          f"without the frame transfer {no_transfer} (unstable "
          f"{no_transfer['unstable']} > {default['unstable']})")


def test_criterion_8_two_stage_standoff_separation(mug_report, robot_model):
    standoff = mug_report.actions["plan_standoff"]
    final = mug_report.actions["plan_final"]
    gap = (final.config.root_pose.translation
           - standoff.config.root_pose.translation)
    want = 0.1 * rotate_vector(final.config.root_pose,
                               robot_model.approach_axis)
    separation = float(np.linalg.norm(gap))
    deviation = float(np.abs(gap - want).max())
    assert abs(separation - 0.1) <= 1e-9
    assert deviation <= 1e-9
    assert np.array_equal(standoff.config.root_pose.rotation,
                          final.config.root_pose.rotation)
    print(f"PASS criterion 8: stages separated by {separation:.12f} m along "
          f"the approach axis (axis deviation {deviation:.2e} <= 1e-9)")


def test_criterion_9_same_seed_batches_are_byte_identical(fragile_batches):
    a = fragile_batches["default"]
    b = fragile_batches["repeat"]
    summary_a = (a["out"] / "summary.json").read_bytes()
    summary_b = (b["out"] / "summary.json").read_bytes()
    csv_a = (a["out"] / "summary.csv").read_bytes()
    csv_b = (b["out"] / "summary.csv").read_bytes()
    assert summary_a == summary_b
    assert csv_a == csv_b
    print(f"PASS criterion 9: repeated seed-{a['doc']['seed']} batches agree "
          f"byte for byte ({len(summary_a)} bytes of summary.json, "
          f"{len(csv_a)} bytes of summary.csv)")
