"""One scene end to end: observation to grasp verdict.

The pipeline runs a fixed sequence of stages (prompt, providers, depth
alignment, object-frame transfer, retargeting, pre/squeeze synthesis,
robot-frame transfer, approach planning, execution) and records a content
digest of every stage's inputs and outputs.  Given the same scene fixture,
settings, and seed, every digest and the final report are reproducible
bit for bit; wall-clock timings are collected alongside but deliberately
kept out of the digested content.

Two ablation switches change what gets executed, never how it is scored:
`transfer=False` skips the frame correction and drives the hand to the
generated-camera pose as if it were robot coordinates, and
`force_lock=False` lets the controller squeeze without the force latch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    DextraError,
    MissingField,
    StageError,
    WrongFrame,
    check_document,
    number,
    raise_schema,
    read_json,
)
from .geometry import (
    SE3Pose,
    TriangleMesh,
    compose,
    invert,
    pose_to_record,
    save_obj,
    save_points_obj,
    sq_distance_floor,
    surface_query,
    transform_mesh,
)
from .graspctl import (
    DEFAULT_DT,
    ContactModel,
    ExecutionTrace,
    GraspExecutionResult,
    run_grasp,
)
from .kinematics import (
    HandConfiguration,
    KinematicHandModel,
    bundled_model,
    fingertip_positions,
    is_robot_hand,
)
from .reconstruction import (
    ROBOT_HAND_RULE,
    PromptBundle,
    ReconstructionBundle,
    SceneFixture,
    align_depth,
    build_prompt,
    gather_reconstruction,
    read_contact,
    select_contact_fingers,
    to_object_frame,
)
from .retarget import (
    FRAME_ROBOT,
    TWO_STAGE_STANDOFF,
    GraspAction,
    human_fingertip_targets,
    initialize_retarget,
    make_pregrasp_and_squeeze,
    plan_two_stage,
    refine_retarget,
    to_robot_frame,
)

STAGE_NAMES = (
    "prompt",
    "providers",
    "align-depth",
    "object-frame",
    "retarget",
    "pre-squeeze",
    "robot-frame",
    "two-stage",
    "execute",
)

# final bracket width (rad) of the geometric contact-onset search; the onset
# is the bracket's midpoint, so within ENGAGEMENT_TOL / 2 of a crossing
ENGAGEMENT_TOL = 1e-6
_ENGAGEMENT_SAMPLES = 33
# ITP truncation: a step in bracket [a, b] of grid bracket [a0, b0] moves
# toward the midpoint by _ITP_KAPPA * (b - a)**2 / (b0 - a0)
_ITP_KAPPA = 0.02


@dataclass(frozen=True)
class PipelineSettings:
    """What a run varies besides the scene fixture itself.

    The tuning parameters of the stages are module constants, not settings.
    """

    hand_model: str | None = None  # None: the scene's hand, else DEFAULT_HAND_MODEL
    transfer: bool = True         # False: execute at the generated-camera pose
    force_lock: bool = True       # False: ignore force feedback while closing
    seed: int = 0
    noise_sigma: float | None = None  # None: take the scene's sensor noise

    def __post_init__(self):
        # an integer sigma would reach the digests and the report as an int,
        # so {"noise_sigma": 0} would not run like 0.0 or the default
        if self.noise_sigma is not None:
            object.__setattr__(self, "noise_sigma", float(self.noise_sigma))


_FLAG = (lambda v: isinstance(v, bool), "must be true or false")
# settings key -> rule entry
_SETTINGS_RULES = {
    "hand_model": (lambda v: v is None or is_robot_hand(v), f"{ROBOT_HAND_RULE}, or be null"),
    "transfer": _FLAG,
    "force_lock": _FLAG,
    "seed": (lambda v: type(v) is int and v >= 0, "must be a non-negative integer"),
    "noise_sigma": (lambda v: v is None or (number(v) and v >= 0),
                    "must be a non-negative number or null"),
}


def settings_from_dict(doc: dict, where: str = "settings") -> PipelineSettings:
    """Settings from a plain dict; unknown keys and bad values are refused."""
    raise_schema(check_document(doc, _SETTINGS_RULES)[1], where)
    return PipelineSettings(**doc)


def settings_from_file(path) -> PipelineSettings:
    path = Path(path)
    return settings_from_dict(read_json(path), path.name)


def override_settings(settings: PipelineSettings, **changes) -> PipelineSettings:
    """`settings` with `changes`, each checked like a file value."""
    raise_schema(check_document(changes, _SETTINGS_RULES)[1], "settings")
    return replace(settings, **changes)


# ---------------------------------------------------------------------------
# canonical serialization and digests
# ---------------------------------------------------------------------------

def canonical(obj):
    """Reduce a result object to plain JSON types, deterministically.

    Arrays become nested float lists, poses become records, meshes and
    execution traces are summarized by content hash (their values would
    swamp the report), a file path by its bytes' sha256 (None if missing), a
    hand model by name and document sha256, and non-finite floats become
    strings so the output stays strict JSON.
    """
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else repr(f)
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()     # already plain floats, no strings needed
        return canonical(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, Path):
        # a file by its bytes; a missing one is left for its reader to refuse
        return hashlib.sha256(obj.read_bytes()).hexdigest() if obj.is_file() else None
    if isinstance(obj, KinematicHandModel):
        return {"name": obj.name, "sha256": obj.document_sha256}
    if isinstance(obj, SE3Pose):
        return canonical(pose_to_record(obj))
    if isinstance(obj, GraspAction):
        return grasp_record(obj)
    if isinstance(obj, ExecutionTrace):
        # trace.csv carries the values; thousands of them would swamp the digest
        h = hashlib.sha256()
        for f in dataclasses.fields(obj):
            a = getattr(obj, f.name)
            h.update(f"{f.name} {a.dtype.str} {a.shape}\n".encode("ascii"))
            h.update(a.tobytes())
        return {"steps": int(len(obj.positions)), "content": h.hexdigest()}
    if isinstance(obj, TriangleMesh):
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(obj.vertices).tobytes())
        h.update(np.ascontiguousarray(obj.triangles).tobytes())
        return {"vertex_count": int(len(obj.vertices)),
                "triangle_count": int(len(obj.triangles)),
                "content": h.hexdigest()}
    if dataclasses.is_dataclass(obj):
        return {f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def content_digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def grasp_record(g: GraspAction) -> dict:
    return {
        "hand_model": g.hand_model,
        "frame": g.frame,
        "root_pose": canonical(pose_to_record(g.config.root_pose)),
        "joint_angles": [float(a) for a in g.config.joint_angles],
        "residual": [float(r) for r in g.residual],
    }


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PipelineReport:
    """Deterministic run record plus the live result objects.

    `as_dict` is the serialized face of the run; timings ride along in a
    separate field so two runs of the same scene agree byte for byte on
    everything that matters.
    """

    scene: str
    object_name: str
    hand_model: str
    hand_source: str    # where hand_model came from: settings, scene or default
    seed: int
    verdict: str
    f_target: float
    prompt: PromptBundle
    alignment: dict
    retarget: dict
    grasps: dict
    plan: dict
    execution: dict
    stages: tuple
    timings: dict
    result: GraspExecutionResult = field(repr=False)
    actions: dict = field(repr=False)

    def as_dict(self, include_timings: bool = False) -> dict:
        live = {"result", "actions"} | (set() if include_timings else {"timings"})
        return canonical({f.name: getattr(self, f.name)
                          for f in dataclasses.fields(self) if f.name not in live})

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.as_dict(include_timings), indent=2,
                          sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# the closing path and its contact onset
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ClosingPath:
    """How each finger closes: its driver joint, with its mimics, moves from
    `start` toward `end` while every other joint holds `squeeze`.  A finger
    that does not close (or closes the wrong way for a one-sided spring)
    stays at its start."""

    drivers: list                 # (K,) joint index of each finger's driver
    start: np.ndarray             # (K,) closing coordinates at the pre-grasp
    end: np.ndarray               # (K,) closing coordinates at the squeeze
    closes: np.ndarray            # (K,) end > start + 1e-12
    squeeze: HandConfiguration

    def joint_angles(self, coords) -> np.ndarray:
        """The full joint vector with the drivers at (K,) closing coordinates."""
        angles = np.array(self.squeeze.joint_angles)
        angles[self.drivers] = coords
        return angles


def closing_path(model: KinematicHandModel, pre: GraspAction,
                 squeeze: GraspAction) -> ClosingPath:
    """Each finger's closing path from `pre` to `squeeze`, grasps in one frame."""
    if pre.frame != squeeze.frame:
        raise WrongFrame(f"pre grasp is in '{pre.frame}', squeeze in '{squeeze.frame}'")
    if not model.finger_drivers:
        raise MissingField(f"model '{model.name}' declares no finger_drivers")
    drivers = [model.joint_index[n] for n in model.finger_drivers]
    start, end = (g.config.joint_angles[drivers] for g in (pre, squeeze))
    return ClosingPath(drivers, start, end, end > start + 1e-12, squeeze.config)


def derive_engagement(model: KinematicHandModel, path: ClosingPath,
                      mesh: TriangleMesh, pose: SE3Pose) -> np.ndarray:
    """Closing coordinate at which each fingertip first meets the surface.

    Every finger moves along `path`.  The first of _ENGAGEMENT_SAMPLES grid
    samples whose fingertip is inside the surface brackets the onset with
    the sample before it; ITP steps (Oliveira & Takahashi, ACM TOMS 47(1),
    2020) on the signed distance close the bracket to at most
    ENGAGEMENT_TOL, and its midpoint, within ENGAGEMENT_TOL / 2 of a surface
    crossing in the grid bracket, is that finger's contact onset.  A step
    takes the regula-falsi point, truncates it toward the midpoint and
    projects it into a radius around the midpoint that halves with every
    step, so a finger takes at most one step more than bisection would
    (about 4 instead of 15 on the bundled scenes).  A finger that does not
    close counts only a touch already at its start, and a fingertip that
    never reaches the surface gets +inf, which the spring model reads as
    free air.

    `mesh` is the object-frame mesh and `pose` its pose in the grasps' frame.
    The inverse of `pose` is composed into the squeeze root once, so every
    FK sweep already lands in the object frame and the grasps keep their
    own frame.

    All fingers are searched in lockstep: each grid sample is one FK sweep
    with every driver at its own angle, the grid is one surface query, and
    every ITP step is one FK sweep and one query for the fingers still open.
    `load_hand_model` guarantees that a driver, with its mimic joints,
    moves its own fingertip alone, and every finger is open from the first
    step until its bracket closes, so each fingertip gets the same bits as
    in a search that moves only its own finger.

    The grid query asks only the samples whose distance the answer reads:
    those the mesh's bounding box cannot rule out (`sq_distance_floor` is
    0), the sample before each of them, and a finger that does not close at
    its start alone.  Every other sample lies outside the box of a closed
    mesh, so outside the mesh, and the onsets keep the bits of a query of
    the whole grid.
    """
    root = compose(invert(pose), path.squeeze.root_pose)

    def tips_at(coords) -> np.ndarray:
        """(K, 3) fingertips with each finger at its own closing coordinate."""
        return fingertip_positions(model, HandConfiguration(root, path.joint_angles(coords)))

    grid = np.array([np.linspace(a, b, _ENGAGEMENT_SAMPLES) if c
                     else np.full(_ENGAGEMENT_SAMPLES, a)
                     for a, b, c in zip(path.start, path.end, path.closes)]).T
    tips = np.array([tips_at(row) for row in grid])
    # ask the in-box samples, the sample before each (a bracket's outer end)
    # and a finger that does not close in row 0 alone, as its tip is the
    # same in every row; every other sample reads +inf
    in_box = (sq_distance_floor(mesh, tips.reshape(-1, 3)) == 0.0).reshape(grid.shape)
    asked = in_box.copy()
    asked[:-1] |= in_box[1:]
    asked[1:, ~path.closes] = False
    depths = np.full(grid.shape, np.inf)
    depths[asked] = surface_query(mesh, tips[asked]).distance
    inside = depths <= 0.0

    out = np.where(inside[0], path.start, np.inf)
    # the fingers that start outside and cross, each with its grid bracket
    # [a, b] and signed distances fa > 0 >= fb at its ends
    crossing = inside.argmax(axis=0)
    k = np.flatnonzero(~inside[0] & inside.any(axis=0) & path.closes)
    a, b = grid[crossing[k] - 1, k], grid[crossing[k], k]
    fa, fb = depths[crossing[k] - 1, k], depths[crossing[k], k]
    # ITP with kappa2 = 2 and n0 = 1: step j lands within `radius` of the
    # midpoint, so it leaves a bracket at most `bound` = eps * 2**(n_max - j)
    # wide, and step n_max - 1 one at most 2 * eps, where n_max =
    # ceil(log2((b - a) / ENGAGEMENT_TOL)) + 1.  eps is a hair under half the
    # tol, so that the rounding of that step cannot leave a bracket an ulp
    # wider.
    eps = 0.5 * ENGAGEMENT_TOL * (1.0 - 2.0 ** -20)
    bound = eps * 2.0 ** (np.ceil(np.log2((b - a) / ENGAGEMENT_TOL)) + 1.0)
    kappa = _ITP_KAPPA / (b - a)
    driver_angles = path.start.copy()
    while (open_ := (b - a) > ENGAGEMENT_TOL).any():
        mid = 0.5 * (a + b)
        falsi = (b * fa - a * fb) / (fa - fb)
        toward = np.sign(mid - falsi)
        shift = kappa * (b - a) ** 2
        step = np.where(shift <= np.abs(mid - falsi), falsi + toward * shift, mid)
        radius = bound - 0.5 * (b - a)
        step = np.where(np.abs(step - mid) <= radius, step, mid - toward * radius)
        driver_angles[k] = step
        d = surface_query(mesh, tips_at(driver_angles)[k[open_]]).distance
        searched, inner = np.flatnonzero(open_), d <= 0.0
        hit, miss = searched[inner], searched[~inner]
        b[hit], fb[hit] = step[hit], d[inner]
        a[miss], fa[miss] = step[miss], d[~inner]
        bound = 0.5 * bound
    out[k] = 0.5 * (a + b)
    return out


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------

def _align(hand, mesh: TriangleMesh, pose: SE3Pose, contact_fingers) -> tuple:
    """Depth-align on `contact_fingers` (None: those near the surface); returns
    the aligned estimate, its depth shift and the fingers."""
    if contact_fingers is None:
        contact_fingers = select_contact_fingers(hand, mesh, pose)
    aligned = align_depth(hand, mesh, contact_fingers, pose)
    shift = float(aligned.config.root_pose.translation[2] - hand.config.root_pose.translation[2])
    return aligned, shift, contact_fingers


def _retarget(hand, model: KinematicHandModel, human_model) -> GraspAction:
    return refine_retarget(initialize_retarget(hand, model, human_model),
                           human_fingertip_targets(hand, model), model, wrist_free=True)


def _robot_frame(pre, squeeze, transfer: bool, observed, generated, hand_eye) -> tuple:
    """Both grasps in robot coordinates, or (ablation) at the generated-camera pose."""
    if transfer:
        return tuple(to_robot_frame(g, observed, hand_eye) for g in (pre, squeeze))
    return tuple(replace(g, frame=FRAME_ROBOT, config=HandConfiguration(
        compose(generated, g.config.root_pose), g.config.joint_angles)) for g in (pre, squeeze))


def _execute(pre, squeeze, mesh, mesh_pose, contact: dict, noise_sigma: float,
             f_target: float, model: KinematicHandModel, force_lock: bool, seed: int) -> tuple:
    """Close the hand along its closing path; 'auto' engagement is geometric."""
    path = closing_path(model, pre, squeeze)
    engagement = contact["engagement"]
    if engagement is None:
        engagement = derive_engagement(model, path, mesh, mesh_pose)
    springs = ContactModel(stiffness=contact["stiffness"], engagement=engagement,
                           yield_force=contact["yield_force"], noise_sigma=noise_sigma)
    result = run_grasp(path.start, path.end, springs, f_target, force_lock, seed)
    return result, springs, DEFAULT_DT


def run_pipeline(scene, settings: PipelineSettings | None = None,
                 export_dir=None) -> PipelineReport:
    """Run every stage on one scene and return the report.

    `scene` is a fixture directory path or an already-built SceneFixture.
    A stage calls a module-level function with keyword arguments and digests
    them as its input, an earlier stage's output (or a tuple element or
    dataclass field of one) as a reference to that output's digest.  Errors
    raised by a stage carry a `stage` attribute naming it: a DextraError
    carries it itself, and any other exception is wrapped in StageError,
    with the cause chained.
    """
    if not isinstance(scene, SceneFixture):
        scene = SceneFixture(scene)
    if settings is None:
        settings = PipelineSettings()
    hand_name, hand_source = scene.effective_hand(settings.hand_model)
    model = bundled_model(hand_name)

    # produced: id -> (reference, object) of every earlier output part;
    # holding the object keeps its id from being reused within the run
    records, timings, produced = [], {}, {}

    def attributed(name, fn, *args, **kwargs):
        """fn(*args, **kwargs), with any error it raises naming stage `name`."""
        try:
            return fn(*args, **kwargs)
        except DextraError as exc:
            if getattr(exc, "stage", None) is None:
                exc.stage = name
            raise
        except Exception as exc:
            raise StageError(name, exc) from exc

    # contact.json is read before any stage runs, so a broken file costs no
    # stage work; its errors still name the stage that uses it
    contact_spec = attributed("execute", read_contact, scene.scene_dir / "contact.json",
                              len(model.finger_drivers))

    def stage(name, fn, **inputs):
        """fn(**inputs), recorded with its input and output digests."""
        code = getattr(inspect.unwrap(fn), "__code__", None)
        if code is None or code.co_freevars:
            raise TypeError(f"stage '{name}': {fn!r} reads more than its arguments "
                            f"({', '.join(code.co_freevars) if code else 'not a function'})")
        digest_in = content_digest({k: produced[id(v)][0] if id(v) in produced else v
                                    for k, v in inputs.items()})
        start = time.perf_counter()
        out = attributed(name, fn, **inputs)
        timings[name] = time.perf_counter() - start
        digest_out = content_digest(out)
        records.append({"name": name, "input": digest_in, "output": digest_out})
        fields = dataclasses.fields(out) if dataclasses.is_dataclass(out) else ()
        parts = enumerate(out) if isinstance(out, tuple) else [
            (f.name, getattr(out, f.name)) for f in fields]
        for suffix, part in [("", out), *((f":{k}", v) for k, v in parts)]:
            # unrelated values may share the identity of a scalar or a tuple
            # (None, small ints, interned strings, ()), never of these
            if dataclasses.is_dataclass(part) or isinstance(part, np.ndarray):
                produced.setdefault(id(part), (f"{name}:{digest_out}{suffix}", part))
        return out

    prompt = stage("prompt", build_prompt, object_name=scene.object_name,
                   intent=scene.intent, kind=scene.prompt_kind,
                   observation_ref=scene.observation_ref, region_ref=scene.region_ref,
                   demo_ref=scene.demo_ref)

    bundle: ReconstructionBundle = stage(
        "providers", gather_reconstruction, prompt=prompt,
        hand_estimate=scene.scene_dir / "hand_estimate.json",
        object_obj=scene.scene_dir / "object.obj", poses=scene.scene_dir / "poses.json",
        mesh_scale=scene.mesh_scale, contact_fingers=scene.contact_fingers,
        f_target=scene.predict_force(scene.object_name))

    # the one mesh of the run is in the object frame; each stage that asks
    # the surface maps its points there through one of the bundle's poses
    mesh, t_gen = bundle.mesh, bundle.object_pose_generated
    hand_aligned, depth_shift, contact_fingers = stage(
        "align-depth", _align, hand=bundle.hand, mesh=mesh, pose=t_gen,
        contact_fingers=scene.contact_fingers)

    hand_obj = stage("object-frame", to_object_frame, t_o_gen=t_gen, hand=hand_aligned)

    grasp_obj = stage("retarget", _retarget, hand=hand_obj, model=model,
                      human_model=bundled_model(hand_obj.skeleton))

    pre_obj, squeeze_obj = stage("pre-squeeze", make_pregrasp_and_squeeze,
                                 grasp=grasp_obj, mesh=mesh, model=model)

    pre_exec, squeeze_exec = stage(
        "robot-frame", _robot_frame, pre=pre_obj, squeeze=squeeze_obj,
        transfer=settings.transfer, observed=bundle.object_pose_observed, generated=t_gen,
        hand_eye=bundle.hand_eye)

    plan = stage("two-stage", plan_two_stage, grasp=pre_exec, model=model)

    # the physical surface the fingers actually meet: the observed object
    # carried through the camera-to-robot extrinsics, in both ablations
    mesh_pose = compose(bundle.hand_eye, bundle.object_pose_observed)
    noise_sigma = (contact_spec["noise_sigma"] if settings.noise_sigma is None
                   else settings.noise_sigma)

    result, contact, dt = stage(
        "execute", _execute, pre=pre_exec, squeeze=squeeze_exec, mesh=mesh,
        mesh_pose=mesh_pose, contact=contact_spec, noise_sigma=noise_sigma,
        f_target=bundle.f_target, model=model, force_lock=settings.force_lock,
        seed=settings.seed)

    actions = {
        "object": grasp_obj,
        "pre_object": pre_obj,
        "squeeze_object": squeeze_obj,
        "pre_executed": pre_exec,
        "squeeze_executed": squeeze_exec,
        "plan_standoff": plan[0],
        "plan_final": plan[1],
    }
    trace_obj = grasp_obj.objective_trace
    report = PipelineReport(
        scene=scene.name,
        object_name=scene.object_name,
        hand_model=model.name,
        hand_source=hand_source,
        seed=settings.seed,
        verdict=result.verdict,
        f_target=float(bundle.f_target),
        prompt=prompt,
        alignment={"depth_shift": depth_shift,
                   "contact_fingers": list(contact_fingers)},
        retarget={"residual": [float(r) for r in grasp_obj.residual],
                  "objective_first": float(trace_obj[0]),
                  "objective_final": float(trace_obj[-1]),
                  "accepted_steps": len(trace_obj) - 1},
        grasps={name: grasp_record(g) for name, g in actions.items()},
        plan={"standoff_distance": TWO_STAGE_STANDOFF},
        execution={
            "verdict": result.verdict,
            "f_target": float(result.f_target),
            "final_forces": result.final_forces,
            "peak_forces": result.peak_forces,
            "peak_commands": result.peak_commands,
            "locked": result.locked,
            "steps": int(result.steps),
            "dt": float(dt),
            "engagement": contact.engagement,
            "stiffness": contact.stiffness,
            "yield_force": contact.yield_force,
            "noise_sigma": float(contact.noise_sigma),
            "force_lock": settings.force_lock,
            "transfer": settings.transfer,
        },
        stages=tuple(records),
        timings=timings,
        result=result,
        actions=actions,
    )
    if export_dir is not None:
        export_scene_geometry(export_dir, mesh, mesh_pose, model, actions)
    return report


def export_scene_geometry(out_dir, mesh: TriangleMesh, mesh_pose: SE3Pose,
                          model: KinematicHandModel, actions: dict) -> list:
    """Dump per-stage geometry as OBJ files for external inspection.

    The object-frame `mesh` is written as is and, moved by `mesh_pose`, in
    the frame the executed grasps live in.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [out / "object_frame.obj", out / "executed_frame.obj"]
    save_obj(written[0], mesh)
    save_obj(written[1], transform_mesh(mesh, mesh_pose))
    for name, action in actions.items():
        written.append(out / f"tips_{name}.obj")
        save_points_obj(written[-1], fingertip_positions(model, action.config))
    return written
