"""Human-demonstrated grasps, retargeted to robot hands and executed
under per-finger force limits against compliant contact fixtures."""

from .errors import (
    BadLimits,
    CyclicTree,
    DextraError,
    DimensionMismatch,
    EmptyContactSet,
    EmptyMesh,
    FixtureMissing,
    MissingField,
    MissingJointMap,
    NoConvergence,
    NonPositiveDt,
    SchemaError,
    StageError,
    UnknownFingertipLink,
    WrongFrame,
)
from .geometry import (
    SE3Pose,
    TriangleMesh,
    box_mesh,
    compose,
    cylinder_mesh,
    icosphere,
    identity_pose,
    invert,
    load_obj,
    pose_from_axis_angle,
    pose_from_record,
    pose_from_rotvec,
    pose_to_matrix,
    pose_to_record,
    rotate_vector,
    rotation_angle,
    save_obj,
    surface_query,
    transform_mesh,
    transform_point,
    transform_points,
)
from .graspctl import (
    ContactModel,
    ExecutionTrace,
    GraspExecutionResult,
    GraspGains,
    controller_step,
    run_grasp,
    sense_force,
    trace_csv,
)
from .kinematics import (
    HandConfiguration,
    HandPoseEstimate,
    KinematicHandModel,
    bundled_model,
    clamp_to_limits,
    fingertip_jacobian,
    fingertip_positions,
    load_hand_model,
    load_hand_model_file,
    rest_configuration,
)
from .pipeline import (
    PipelineReport,
    PipelineSettings,
    derive_engagement,
    run_pipeline,
    settings_from_file,
)
from .reconstruction import (
    PromptBundle,
    ReconstructionBundle,
    SceneFixture,
    align_depth,
    build_prompt,
    gather_reconstruction,
    select_contact_fingers,
    to_object_frame,
)
from .retarget import (
    ContactSet,
    GraspAction,
    OptimizerSettings,
    compute_contacts,
    human_fingertip_targets,
    initialize_retarget,
    make_pregrasp,
    make_squeeze,
    plan_two_stage,
    refine_retarget,
    to_robot_frame,
)

__version__ = "0.1.0"
