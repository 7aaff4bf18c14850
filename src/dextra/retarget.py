"""Mapping a human grasp onto a dexterous hand and staging it for a robot.

The transfer runs in the object frame: initialize the robot hand from the
human wrist pose and structurally similar joints, then refine wrist and
fingers so the robot fingertips land on the human fingertip keypoints, by
damped least squares whose damping follows the gain ratio (Nielsen 1999;
Madsen, Nielsen & Tingleff 2004, sec. 3.2).  Pre-grasp and squeeze variants
are synthesized by sliding the fingertip targets along the local surface
normals while the wrist stays fixed.

Every grasp carries a frame tag, object or robot, and the operations that
change or need a frame refuse a grasp in the wrong one, so a transform can
never be applied twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionMismatch,
    MissingJointMap,
    NoConvergence,
    WrongFrame,
)
from .geometry import (
    SE3Pose,
    TriangleMesh,
    compose,
    rotate_vector,
    surface_query,
)
from .kinematics import (
    ROOT_DOF,
    HandConfiguration,
    HandPoseEstimate,
    KinematicHandModel,
    clamp_to_limits,
    fingertip_jacobian,
    fingertip_positions,
    forward_kinematics,
    perturb_root,
)

FRAME_OBJECT = "object"
FRAME_ROBOT = "robot"
FRAMES = (FRAME_OBJECT, FRAME_ROBOT)

PREGRASP_OFFSET = 0.05    # m outward along the contact normal
SQUEEZE_OFFSET = -0.01    # m inward along the contact normal
ENGAGE_THRESHOLD = 0.01   # m; fingertips this close to the surface engage
TWO_STAGE_STANDOFF = 0.10  # m retreat along the approach axis

# start and stopping rules of the damped least-squares fingertip refinement
MAX_ITERATIONS = 200
DAMPING_INIT = 1e-3
MIN_IMPROVEMENT = 1e-10   # m^2 between accepted steps


@dataclass(frozen=True, eq=False)
class GraspAction:
    """A hand configuration bound to a model and a coordinate frame."""

    hand_model: str
    config: HandConfiguration
    frame: str
    residual: np.ndarray          # per-finger fingertip error (m)
    objective_trace: tuple = ()   # objective after each accepted solver step

    def __post_init__(self):
        if self.frame not in FRAMES:
            raise WrongFrame(f"unknown frame tag '{self.frame}'")
        r = np.asarray(self.residual, dtype=float).reshape(-1).copy()
        if r.size and float(r.min()) < 0.0:
            raise ValueError("residuals are distances and cannot be negative")
        r.setflags(write=False)
        object.__setattr__(self, "residual", r)
        object.__setattr__(self, "objective_trace", tuple(self.objective_trace))


def human_fingertip_targets(human: HandPoseEstimate, model: KinematicHandModel) -> np.ndarray:
    """Pick the human fingertip keypoints this hand's fingertips track."""
    idx = list(model.human_fingertip_indices)
    if any(i >= len(human.fingertip_points) for i in idx):
        raise DimensionMismatch(
            f"model '{model.name}' expects human fingertips {idx}, "
            f"estimate has {len(human.fingertip_points)}")
    return np.array(human.fingertip_points[idx])


def initialize_retarget(human: HandPoseEstimate, model: KinematicHandModel,
                        human_model: KinematicHandModel) -> HandConfiguration:
    """Seed the robot hand from the human estimate.

    Copies the wrist pose verbatim and transplants the angles of joints the
    model declares structurally similar, clamped into the model's limits;
    everything else starts at rest.
    """
    if not model.human_joint_map:
        raise MissingJointMap(f"model '{model.name}' declares no human joint map")
    angles = np.array([j.rest for j in model.joints])
    for hname, mname in model.human_joint_map:
        if hname not in human_model.joint_index:
            raise MissingJointMap(
                f"human joint '{hname}' not present in skeleton '{human_model.name}'")
        angles[model.joint_index[mname]] = human.config.joint_angles[
            human_model.joint_index[hname]]
    return HandConfiguration(human.config.root_pose, clamp_to_limits(model, angles))


def refine_retarget(start: HandConfiguration, targets: np.ndarray,
                    model: KinematicHandModel, wrist_free: bool = True) -> GraspAction:
    """The object-frame grasp whose fingertips best reach `targets`, from `start`.

    Damped least squares minimizes the summed squared fingertip-to-target
    distance |r|^2 over the joint angles, plus the wrist twist when
    `wrist_free`.  Each step h solves (J^T J + lam I) h = -g with g = J^T r.
    A step that lowers the objective is taken, and lam follows the gain
    ratio rho of the actual to the predicted reduction h^T (lam h - g):
    lam *= max(1/3, 1 - (2 rho - 1)^3) and nu = 2.  A step that does not is refused and lam *= nu, nu *= 2
    (Nielsen 1999; Madsen, Nielsen & Tingleff 2004, sec. 3.2).  The search
    stops once an accepted step gains less than MIN_IMPROVEMENT, lam
    passes 1e12, or MAX_ITERATIONS candidates have been tried.  Joint
    angles are clamped into their limits after every step; the recorded
    objective trace is strictly decreasing.  With the wrist frozen the root
    pose of the result is bitwise identical to `start`'s.  Each candidate
    is swept once by `forward_kinematics`, and an accepted candidate's
    jacobian is built from that same sweep: all 6 + J columns with the
    wrist free, the J joint columns alone with it frozen.
    """
    targets = np.asarray(targets, dtype=float)
    k = model.fingertip_count
    if targets.shape != (k, 3):
        raise DimensionMismatch(
            f"targets shape {targets.shape} does not match {k} fingertips")

    cfg = HandConfiguration(start.root_pose, clamp_to_limits(model, start.joint_angles))
    sweep = forward_kinematics(model, cfg)
    res_vec = (sweep[0] - targets).ravel()
    objective = float(res_vec @ res_vec)
    trace = [objective]
    lam, nu = DAMPING_INIT, 2.0
    gram = grad = None
    eye = np.eye(ROOT_DOF + model.dof if wrist_free else model.dof)
    lower, upper = model.lower_limits, model.upper_limits
    iterations = 0
    while iterations < MAX_ITERATIONS:
        iterations += 1
        if gram is None:
            jac = fingertip_jacobian(model, cfg, sweep, wrist_free=wrist_free)
            gram = jac.T @ jac
            grad = jac.T @ res_vec
        step = np.linalg.solve(gram + lam * eye, -grad)
        if wrist_free:
            root_c = perturb_root(cfg.root_pose, step[:ROOT_DOF])
            ang_c = (cfg.joint_angles + step[ROOT_DOF:]).clip(lower, upper)
        else:
            root_c = cfg.root_pose
            ang_c = (cfg.joint_angles + step).clip(lower, upper)
        cand = HandConfiguration(root_c, ang_c)
        sweep_c = forward_kinematics(model, cand)
        res_c = (sweep_c[0] - targets).ravel()
        obj_c = float(res_c @ res_c)
        if not math.isfinite(obj_c):
            raise NoConvergence("fingertip objective became non-finite")
        if obj_c < objective:
            improvement = objective - obj_c
            cfg, sweep, res_vec, objective = cand, sweep_c, res_c, obj_c
            trace.append(objective)
            if improvement < MIN_IMPROVEMENT:
                break
            # gain ratio: actual over predicted reduction of |r|^2
            rho = improvement / float(step @ (lam * step - grad))
            lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 1e-12)
            nu = 2.0
            gram = grad = None
        else:
            lam *= nu
            nu *= 2.0
            if lam > 1e12:
                break  # step size is down in the noise; nothing left to gain

    residual = np.linalg.norm(sweep[0] - targets, axis=1)
    return GraspAction(hand_model=model.name, config=cfg, frame=FRAME_OBJECT,
                       residual=residual, objective_trace=tuple(trace))


def make_pregrasp_and_squeeze(grasp: GraspAction, mesh: TriangleMesh,
                              model: KinematicHandModel) -> tuple:
    """The pre-grasp and the squeeze of an object-frame grasp, from one surface query.

    Fingertips within ENGAGE_THRESHOLD of the surface engage.  Pre-grasp:
    they retreat PREGRASP_OFFSET along their contact normals; squeeze: they
    press past the surface by SQUEEZE_OFFSET.  Each is one solve from the
    grasp's configuration with the root pose frozen and the disengaged
    fingertips anchored where they are; joints that several fingertips
    share, such as a wrist joint, still move.  With no engaged finger both
    are the grasp as-is.
    """
    if grasp.frame != FRAME_OBJECT:
        raise WrongFrame(f"contacts are defined in the object frame, got '{grasp.frame}'")
    tips = fingertip_positions(model, grasp.config)
    hits = surface_query(mesh, tips)
    engaged = (hits.distance <= ENGAGE_THRESHOLD)[:, None]
    if not engaged.any():
        return replace(grasp), replace(grasp)
    return tuple(refine_retarget(grasp.config,
                                 np.where(engaged, hits.point + offset * hits.normal, tips),
                                 model, wrist_free=False)
                 for offset in (PREGRASP_OFFSET, SQUEEZE_OFFSET))


def to_robot_frame(grasp: GraspAction, t_o_obs: SE3Pose, hand_eye: SE3Pose) -> GraspAction:
    """Carry an object-frame grasp into robot coordinates.

    Chains the object's observed pose in the real camera with the
    camera-to-robot extrinsics.  Joint angles are untouched; applying this
    to a grasp already in the robot frame raises WrongFrame.
    """
    if grasp.frame == FRAME_ROBOT:
        raise WrongFrame("grasp is already in the robot frame")
    root = compose(hand_eye, compose(t_o_obs, grasp.config.root_pose))
    return replace(grasp, config=HandConfiguration(root, grasp.config.joint_angles),
                   frame=FRAME_ROBOT)


def plan_two_stage(grasp: GraspAction, model: KinematicHandModel) -> tuple:
    """Approach plan: a standoff pose along the approach axis, then the grasp.

    Stage one pulls the wrist back TWO_STAGE_STANDOFF meters along the hand's
    declared approach direction with identical rotation and fingers; stage
    two is the input grasp unchanged.
    """
    if grasp.frame != FRAME_ROBOT:
        raise WrongFrame(f"two-stage plans are executed in the robot frame, got '{grasp.frame}'")
    root = grasp.config.root_pose
    direction = rotate_vector(root, model.approach_axis)
    back = SE3Pose(root.rotation, root.translation - TWO_STAGE_STANDOFF * direction)
    stage1 = replace(grasp, config=HandConfiguration(back, grasp.config.joint_angles))
    return (stage1, replace(grasp))
