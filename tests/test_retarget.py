import numpy as np
import pytest

import cases
from cases import box_mesh, pose_to_matrix, rest_configuration
from dextra import geometry, kinematics, retarget
from dextra.errors import (
    DimensionMismatch,
    MissingJointMap,
    NoConvergence,
    WrongFrame,
)
from dextra.geometry import (
    identity_pose,
    pose_from_rotvec,
    rotate_vector,
    surface_query,
)
from dextra.kinematics import (
    HandConfiguration,
    HandPoseEstimate,
    bundled_model,
    clamp_to_limits,
    fingertip_positions,
    perturb_root,
)
from dextra.retarget import (
    ENGAGE_THRESHOLD,
    FRAME_OBJECT,
    FRAME_ROBOT,
    GraspAction,
    human_fingertip_targets,
    initialize_retarget,
    make_pregrasp_and_squeeze,
    plan_two_stage,
    refine_retarget,
    to_robot_frame,
)


def _object_grasp(model, config, residual=None):
    if residual is None:
        residual = np.zeros(model.fingertip_count)
    return GraspAction(hand_model=model.name, config=config,
                       frame=FRAME_OBJECT, residual=residual)


# ---------------------------------------------------------------------------
# grasp actions
# ---------------------------------------------------------------------------

def test_unknown_frame_rejected(robot_model):
    with pytest.raises(WrongFrame, match="unknown frame tag"):
        GraspAction(hand_model=robot_model.name,
                    config=rest_configuration(robot_model),
                    frame="moon", residual=np.zeros(5))


def test_negative_residual_rejected(robot_model):
    with pytest.raises(ValueError, match="cannot be negative"):
        _object_grasp(robot_model, rest_configuration(robot_model),
                      residual=np.array([0.1, -0.1, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# initialization from the human estimate
# ---------------------------------------------------------------------------

def test_initialize_transplants_mapped_joints(robot_model, human_model):
    rng = np.random.default_rng(4)
    human_angles = rng.uniform(human_model.lower_limits, human_model.upper_limits)
    root = pose_from_rotvec((0.1, 0.0, -0.2), (0.05, 0.02, 0.0))
    hand = HandPoseEstimate(
        config=HandConfiguration(root, human_angles),
        fingertip_points=np.zeros((5, 3)), skeleton=human_model.name)
    seed = initialize_retarget(hand, robot_model, human_model)

    assert seed.root_pose is root
    mapped = dict(robot_model.human_joint_map)
    for hname, mname in mapped.items():
        j = robot_model.joint_index[mname]
        lo, hi = robot_model.joints[j].limits
        want = np.clip(human_angles[human_model.joint_index[hname]], lo, hi)
        assert np.isclose(seed.joint_angles[j], want)
    for j, joint in enumerate(robot_model.joints):
        if joint.name not in mapped.values():
            assert seed.joint_angles[j] == joint.rest


def test_initialize_requires_joint_map(human_model, robot_model):
    hand = HandPoseEstimate(
        config=rest_configuration(human_model),
        fingertip_points=np.zeros((5, 3)), skeleton=human_model.name)
    # the robot model's human joint names do not exist in another robot model
    with pytest.raises(MissingJointMap, match="not present in skeleton"):
        initialize_retarget(hand, robot_model, robot_model)


def test_human_targets_need_enough_keypoints(robot_model, human_model):
    hand = HandPoseEstimate(
        config=rest_configuration(human_model),
        fingertip_points=np.zeros((3, 3)), skeleton=human_model.name)
    with pytest.raises(DimensionMismatch):
        human_fingertip_targets(hand, robot_model)


# ---------------------------------------------------------------------------
# damped least squares refinement
# ---------------------------------------------------------------------------

def test_refine_recovers_reachable_targets(robot_model):
    rng = np.random.default_rng(13)
    for _ in range(10):
        angles = rng.uniform(robot_model.lower_limits, robot_model.upper_limits)
        root = pose_from_rotvec(rng.normal(0.0, 0.3, 3), rng.normal(0.0, 0.05, 3))
        targets = fingertip_positions(robot_model, HandConfiguration(root, angles))
        start_angles = clamp_to_limits(
            robot_model, angles + rng.uniform(-0.2, 0.2, robot_model.dof))
        start_root = perturb_root(
            root, np.concatenate([np.zeros(3), rng.uniform(-0.02, 0.02, 3)]))
        out = refine_retarget(HandConfiguration(start_root, start_angles), targets,
                              robot_model, wrist_free=True)
        assert out.frame == FRAME_OBJECT
        assert out.residual.max() < 1e-3


def test_refine_trace_strictly_decreasing(robot_model):
    rng = np.random.default_rng(1)
    angles = rng.uniform(robot_model.lower_limits, robot_model.upper_limits)
    targets = fingertip_positions(
        robot_model, HandConfiguration(identity_pose(), angles))
    out = refine_retarget(rest_configuration(robot_model), targets, robot_model)
    trace = np.asarray(out.objective_trace)
    assert len(trace) >= 2
    assert np.all(np.diff(trace) < 0.0)


def test_refine_frozen_wrist_keeps_root_bitwise(robot_model):
    root = pose_from_rotvec((0.3, -0.2, 0.1), (0.01, 0.02, 0.03))
    seed = HandConfiguration(root, rest_configuration(robot_model).joint_angles)
    targets = fingertip_positions(robot_model, seed) + 0.02
    out = refine_retarget(seed, targets, robot_model, wrist_free=False)
    assert out.config.root_pose is root


@pytest.mark.parametrize("wrist_free", (True, False))
@pytest.mark.parametrize("name", ("leap-like-16dof", "shadow-like-22dof"))
def test_refine_sweeps_no_configuration_twice(name, wrist_free, monkeypatch):
    # an accepted candidate's jacobian comes from the sweep that scored it
    model = bundled_model(name)
    rng = np.random.default_rng(17)
    root = pose_from_rotvec((0.2, -0.1, 0.3), (0.01, 0.0, 0.02))
    goal = HandConfiguration(root, rng.uniform(model.lower_limits, model.upper_limits))
    targets = fingertip_positions(model, goal) + rng.normal(0.0, 0.005, (model.fingertip_count, 3))
    seed = HandConfiguration(root, rest_configuration(model).joint_angles)
    swept = []
    raw_fk = kinematics._raw_fk

    def recorded(model, root_q, root_t, angles):
        # recorded after the sweep, which sets the mimic entries of `angles`
        result = raw_fk(model, root_q, root_t, angles)
        swept.append(np.concatenate([root_q, root_t, angles]).tobytes())
        return result

    monkeypatch.setattr(kinematics, "_raw_fk", recorded)
    out = refine_retarget(seed, targets, model, wrist_free=wrist_free)
    assert len(out.objective_trace) > 5
    repeats = len(swept) - len(set(swept))
    assert repeats == 0, f"{repeats} of {len(swept)} sweeps repeat a configuration"


def test_refine_rejects_wrong_target_shape(robot_model):
    with pytest.raises(DimensionMismatch):
        refine_retarget(rest_configuration(robot_model), np.zeros((3, 3)), robot_model)


def test_refine_already_optimal_is_a_fixed_point(robot_model):
    cfg = rest_configuration(robot_model)
    targets = fingertip_positions(robot_model, cfg)
    out = refine_retarget(cfg, targets, robot_model, wrist_free=False)
    assert out.objective_trace == (0.0,)
    assert np.array_equal(out.config.joint_angles, cfg.joint_angles)


def test_refine_raises_on_non_finite_objective(robot_model):
    with pytest.raises(NoConvergence, match="non-finite"):
        refine_retarget(rest_configuration(robot_model), np.full((5, 3), np.nan), robot_model)


# ---------------------------------------------------------------------------
# pre-grasp and squeeze
# ---------------------------------------------------------------------------

def _wall_contacts(model, mesh, grasp):
    """The surface query of the grasp's fingertips, checked to hold every
    fingertip on the wrap box's -y wall."""
    hits = surface_query(mesh, fingertip_positions(model, grasp.config))
    assert np.all(hits.distance <= ENGAGE_THRESHOLD)
    assert np.all(np.abs(hits.distance) <= 0.01)
    assert np.allclose(hits.normal, [0.0, -1.0, 0.0], atol=1e-12)
    assert np.allclose(hits.point[:, 1], cases.WRAP_FACE_Y, atol=1e-12)
    return hits


def test_pregrasp_and_squeeze_require_object_frame(robot_model):
    grasp = GraspAction(hand_model=robot_model.name,
                        config=rest_configuration(robot_model),
                        frame=FRAME_ROBOT, residual=np.zeros(5))
    with pytest.raises(WrongFrame, match="object frame"):
        make_pregrasp_and_squeeze(grasp, box_mesh((0.1, 0.1, 0.1)), robot_model)


def test_offsets_no_engaged_fingers_is_identity(robot_model):
    # hand far away from the object: nothing to open or tighten
    root = pose_from_rotvec((0.0, 0.0, 0.0), (5.0, 5.0, 5.0))
    cfg = HandConfiguration(root, rest_configuration(robot_model).joint_angles)
    grasp = _object_grasp(robot_model, cfg)
    mesh = box_mesh((0.1, 0.1, 0.1))
    pre, squeeze = make_pregrasp_and_squeeze(grasp, mesh, robot_model)
    assert pre.config is grasp.config
    assert np.array_equal(pre.residual, grasp.residual)
    assert squeeze.config is grasp.config


def test_pregrasp_lifts_tips_off_flat_face(human_model):
    mesh = cases.wrap_box_mesh()
    grasp = cases.wrap_grasp(human_model, mesh, np.random.default_rng(6))
    _wall_contacts(human_model, mesh, grasp)

    pre, _ = make_pregrasp_and_squeeze(grasp, mesh, human_model)
    tips = fingertip_positions(human_model, pre.config)
    heights = surface_query(mesh, tips).distance
    assert np.all(np.abs(heights - 0.05) <= 2e-3)
    # the wrist never moves during the offset solve
    assert pre.config.root_pose is grasp.config.root_pose


def test_squeeze_targets_press_into_flat_face(human_model):
    mesh = cases.wrap_box_mesh()
    grasp = cases.wrap_grasp(human_model, mesh, np.random.default_rng(8))
    contacts = _wall_contacts(human_model, mesh, grasp)
    targets = contacts.point - 0.01 * contacts.normal
    depths = surface_query(mesh, targets).distance
    assert np.allclose(depths, -0.01, atol=1e-9)

    _, squeeze = make_pregrasp_and_squeeze(grasp, mesh, human_model)
    assert squeeze.config.root_pose is grasp.config.root_pose
    tips = fingertip_positions(human_model, squeeze.config)
    depths = surface_query(mesh, tips).distance
    assert np.all((depths < 0.0) | (squeeze.residual > 0.0))


def test_pregrasp_and_squeeze_share_one_contact_query(human_model, monkeypatch):
    # the pre-squeeze stage's whole body: both offset solves start from one query
    mesh = cases.wrap_box_mesh()
    grasp = cases.wrap_grasp(human_model, mesh, np.random.default_rng(6))
    asked = []
    closest = geometry._closest_points

    def counted(mesh, points):
        asked.append(len(points))
        return closest(mesh, points)

    monkeypatch.setattr(geometry, "_closest_points", counted)
    make_pregrasp_and_squeeze(grasp, mesh, human_model)
    assert asked == [5]


def test_pregrasp_and_squeeze_reuse_the_contact_query_fingertips(human_model, monkeypatch):
    # with both offset solves stubbed out, the stage runs FK once: the
    # fingertips of the contact query also anchor the disengaged fingers
    mesh = cases.wrap_box_mesh()
    grasp = cases.wrap_grasp(human_model, mesh, np.random.default_rng(6))
    swept, solved = [], []
    fk = retarget.fingertip_positions

    def counted(model, config):
        swept.append(config)
        return fk(model, config)

    def stub(start, targets, model, wrist_free):
        assert start is grasp.config
        solved.append(targets)
        return grasp

    monkeypatch.setattr(retarget, "fingertip_positions", counted)
    monkeypatch.setattr(retarget, "refine_retarget", stub)
    make_pregrasp_and_squeeze(grasp, mesh, human_model)
    assert len(swept) == 1 and swept[0] is grasp.config
    assert len(solved) == 2


# ---------------------------------------------------------------------------
# robot frame transfer and the two-stage plan
# ---------------------------------------------------------------------------

def test_to_robot_frame_matches_matrix_oracle(robot_model):
    root = pose_from_rotvec((0.2, 0.1, -0.3), (0.05, -0.02, 0.1))
    grasp = _object_grasp(robot_model,
                          HandConfiguration(root, rest_configuration(robot_model).joint_angles))
    t_o_obs = pose_from_rotvec((0.4, -0.5, 0.1), (0.6, 0.1, 0.9))
    hand_eye = pose_from_rotvec((-0.1, 0.2, 0.8), (0.1, -0.7, 0.4))
    out = to_robot_frame(grasp, t_o_obs, hand_eye)
    assert out.frame == FRAME_ROBOT
    expected = (pose_to_matrix(hand_eye) @ pose_to_matrix(t_o_obs)
                @ pose_to_matrix(root))
    assert np.allclose(pose_to_matrix(out.config.root_pose), expected, atol=1e-12)
    assert np.array_equal(out.config.joint_angles, grasp.config.joint_angles)


def test_to_robot_frame_rejects_double_application(robot_model):
    grasp = _object_grasp(robot_model, rest_configuration(robot_model))
    once = to_robot_frame(grasp, identity_pose(), identity_pose())
    with pytest.raises(WrongFrame, match="already in the robot frame"):
        to_robot_frame(once, identity_pose(), identity_pose())


def test_two_stage_standoff_along_approach_axis(robot_model):
    rng = np.random.default_rng(30)
    for _ in range(5):
        root = pose_from_rotvec(rng.normal(0.0, 0.8, 3), rng.normal(0.0, 0.4, 3))
        grasp = GraspAction(
            hand_model=robot_model.name,
            config=HandConfiguration(root, rest_configuration(robot_model).joint_angles),
            frame=FRAME_ROBOT, residual=np.zeros(5))
        stage1, stage2 = plan_two_stage(grasp, robot_model)
        gap = stage2.config.root_pose.translation - stage1.config.root_pose.translation
        assert np.isclose(np.linalg.norm(gap), 0.1, atol=1e-12)
        direction = rotate_vector(root, robot_model.approach_axis)
        assert np.allclose(gap, 0.1 * direction, atol=1e-12)
        assert np.array_equal(stage1.config.root_pose.rotation, root.rotation)
        assert np.array_equal(stage1.config.joint_angles, grasp.config.joint_angles)
        assert stage2.config is grasp.config


def test_two_stage_requires_robot_frame(robot_model):
    grasp = _object_grasp(robot_model, rest_configuration(robot_model))
    with pytest.raises(WrongFrame):
        plan_two_stage(grasp, robot_model)
