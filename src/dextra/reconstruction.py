"""From an observation to an object-frame human grasp.

This module covers the perception-facing half of the transfer: building the
generation prompt, replaying recorded perception results from scene fixture
directories, correcting the depth ambiguity of a monocular hand estimate
against the object mesh (on the contact fingers a scene names, or else on
those near the surface at the estimate's own depth), and re-expressing the
estimate in the object frame.

Generative models and pose estimators are external services; a scene
fixture records their results, and `gather_reconstruction`, given the paths
of those files, replays them, so runs are reproducible.  Every scene fixture
file has one reader (object.obj's is `load_obj`), shared by `run` and
`validate`; see `check_scene`.  A JSON fixture file is checked against its
rule table by `errors.check_document`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    MAX_LENGTH,
    POSE,
    REQUIRED,
    TEXT,
    DimensionMismatch,
    EmptyContactSet,
    FixtureMissing,
    MissingField,
    NoConvergence,
    SchemaError,
    check_document,
    length,
    number,
    numbers,
    positive,
    raise_schema,
    read_json,
)
from .geometry import (
    SE3Pose,
    TriangleMesh,
    compose,
    invert,
    line_sq_distance_argmin,
    load_obj,
    pose_from_record,
    rotate_vector,
    sq_distance_floor,
    surface_query,
    transform_points,
)
from .kinematics import (
    HandConfiguration,
    HandPoseEstimate,
    bundled_model,
    fingertip_positions,
    is_bundled_hand,
    is_robot_hand,
)

# prompt templates used to condition the hand-image generator
PROMPT_KINDS = ("language", "visual-region", "demo-image")

_PROMPT_CORE = (
    "Based on the input image and grasp intention, generate a image of a "
    "human right hand grasping the object. Camera fixed, hand enters from "
    "bottom-right, grasps the object, then stays still. Realistic style, "
    "uniform lighting, clear details."
)
_PROMPT_NEGATIVE = (
    "Overly saturated colors, overexposed, blurry details, grayish tone, "
    "worst quality, low quality, artifacts, ugly, incomplete, extra fingers, "
    "poorly rendered hands, deformed, disfigured, malformed limbs, fused fingers"
)
_REGION_DIRECTIVE = "Grasp the object at the highlighted region."
_DEMO_DIRECTIVE = "Follow the grasp shown in the demonstration image."

# the hand a run uses when neither the settings nor the scene name one
DEFAULT_HAND_MODEL = "inspire-like-6dof"

# where no contact fingers are named, align_depth picks the fingertips this
# close to the surface (m) at the input shift, from the one query whose
# contact-finger distances also bound its first grid
CONTACT_SELECT_RADIUS = 0.03
# depth alignment searches shifts within +-DEPTH_SEARCH_HALF_RANGE (m): a
# first grid of 61 shifts picks the basin, and the minimum along the depth
# line within it is taken exactly, in closed form (see align_depth)
DEPTH_SEARCH_HALF_RANGE = 0.15
# the first grid's objective is flat when it varies by less than this; it is
# also the margin above the bound within which a first-grid shift is asked
_FLAT = 1e-12


@dataclass(frozen=True)
class PromptBundle:
    positive: str
    negative: str
    kind: str
    attachments: tuple  # (name, reference) pairs


@dataclass(frozen=True, eq=False)
class ReconstructionBundle:
    """Everything the transfer stage needs, replayed from the scene's files."""

    hand: HandPoseEstimate
    mesh: TriangleMesh
    object_pose_generated: SE3Pose   # object in the generated-image camera
    object_pose_observed: SE3Pose    # object in the real observation camera
    hand_eye: SE3Pose                # camera-to-robot extrinsics
    f_target: float                  # predicted grasp force (N)


def build_prompt(object_name: str, intent: str, kind: str = "language",
                 observation_ref: str | None = None,
                 region_ref: str | None = None,
                 demo_ref: str | None = None) -> PromptBundle:
    """Compose the generation prompt for one grasp intention.

    The language kind requires both the object name and the intent; the
    other kinds may leave either empty and lean on their attachment.
    """
    if kind not in PROMPT_KINDS:
        raise MissingField(f"unknown prompt kind '{kind}'")
    if kind == "language":
        if not object_name:
            raise MissingField("language prompt needs a non-empty object name")
        if not intent:
            raise MissingField("language prompt needs a non-empty intent")
    parts = []
    if object_name:
        parts.append(f"Object: {object_name}.")
    if intent:
        parts.append(f"Intention: {intent}.")
    parts.append(_PROMPT_CORE)
    attachments = []
    if observation_ref:
        attachments.append(("observation", observation_ref))
    if kind == "visual-region":
        if not region_ref:
            raise MissingField("visual-region prompt needs a region mask reference")
        parts.append(_REGION_DIRECTIVE)
        attachments.append(("region_mask", region_ref))
    elif kind == "demo-image":
        if not demo_ref:
            raise MissingField("demo-image prompt needs a demonstration image reference")
        parts.append(_DEMO_DIRECTIVE)
        attachments.append(("demo_image", demo_ref))
    return PromptBundle(positive=" ".join(parts), negative=_PROMPT_NEGATIVE,
                        kind=kind, attachments=tuple(attachments))


# ---------------------------------------------------------------------------
# scene fixture files: one reader per file
# ---------------------------------------------------------------------------

# the hand a run drives must map the human hand's joints
ROBOT_HAND_RULE = "must name a bundled hand model that has a human_joint_map"
_FORCE_TABLE = (lambda t: isinstance(t, dict) and all(map(positive, t.values())),
                "must map object names to positive forces (N)")


def _fold_names(table: dict) -> dict:
    """Force table keys as `predict_force` looks them up."""
    return {k.strip().lower(): float(f) for k, f in table.items()}


def read_force_table(path) -> dict:
    """A force table file (the bundled models/force_table.json), checked by
    the rule scene.json's `force_table` override follows."""
    accepts, rule = _FORCE_TABLE
    table = read_json(path)
    if not accepts(table):
        raise_schema([f"the force table {rule}"], path.name)
    return _fold_names(table)


def read_hand_estimate(path: Path, contact_fingers=None) -> HandPoseEstimate:
    """hand_estimate.json; scene.json's `contact_fingers` must index its tips,
    and every joint angle must lie within its skeleton joint's limits.

    Without recorded fingertip_points the tips come from the skeleton's FK.
    """
    v, bad = check_document(read_json(path), {
        "skeleton": (lambda v: is_bundled_hand(v) and not is_robot_hand(v),
                     "must name a bundled human hand model: one with no human_joint_map", REQUIRED),
        "root_pose": (*POSE, REQUIRED),
        "joint_angles": (numbers, "must be a list of numbers", REQUIRED),
        "fingertip_points": (lambda t: numbers(t, valid=lambda p: numbers(p, 3, length)),
                             f"must be a list of 3-number points within +-{MAX_LENGTH:g} m"),
    })
    angles, tips = v["joint_angles"], v["fingertip_points"]
    human = v["skeleton"] and bundled_model(v["skeleton"])
    if human:
        k = human.fingertip_count
        for key, got, want in (("joint_angles", angles, human.dof), ("fingertip_points", tips, k)):
            if got is not None and len(got) != want:
                bad.append(f"{key} needs {want} entries for '{human.name}'")
        if angles is not None and len(angles) == human.dof:
            bad += [f"joint_angles[{i}]: joint '{joint.name}' at {angle!r} "
                    f"outside [{joint.limits[0]}, {joint.limits[1]}]"
                    for i, (angle, joint) in enumerate(zip(angles, human.joints))
                    if not joint.limits[0] <= angle <= joint.limits[1]]
        bad += [f"scene.json contact_fingers names finger {i}, "
                f"but the estimate has {k} fingertips"
                for i in contact_fingers or () if i >= k]
    raise_schema(bad, path.name)
    config = HandConfiguration(pose_from_record(v["root_pose"]), np.asarray(angles, dtype=float))
    return HandPoseEstimate(
        config=config, skeleton=v["skeleton"],
        fingertip_points=(fingertip_positions(human, config) if tips is None
                          else np.asarray(tips, dtype=float)))


def read_poses(path: Path) -> dict:
    """poses.json: both object poses and the hand-eye extrinsics, as SE3Pose."""
    keys = ("object_pose_generated", "object_pose_observed", "hand_eye")
    v, bad = check_document(read_json(path), dict.fromkeys(keys, (*POSE, REQUIRED)))
    raise_schema(bad, path.name)
    return {key: pose_from_record(v[key]) for key in keys}


def read_contact(path: Path, fingers: int | None) -> dict:
    """contact.json for a hand with `fingers` fingers (None: count unchecked).

    Per-finger `stiffness`, `engagement` (None: derive it from the
    geometry), `yield_force` and `noise_sigma`.
    """
    count = "one per finger" if fingers is None else fingers
    v, bad = check_document(read_json(path), {
        "stiffness": (lambda s: positive(s) or numbers(s, fingers, positive),
                      f"must be a positive number or a list of {count} of them", REQUIRED),
        "engagement": (lambda e: e == "auto" or numbers(
                           e, fingers, lambda x: number(x) or x == math.inf),
                       f"must be 'auto' or a list of {count} numbers", "auto"),
        "yield_force": (lambda y: y is None or positive(y), "must be a positive number or null"),
        "noise_sigma": (lambda n: number(n) and n >= 0, "must be a non-negative number", 0.0),
    })
    raise_schema(bad, path.name)
    stiffness = np.asarray(v["stiffness"], dtype=float)
    return {
        "stiffness": stiffness if fingers is None else np.broadcast_to(stiffness, (fingers,)),
        "engagement": None if v["engagement"] == "auto" else np.asarray(v["engagement"], float),
        "yield_force": None if v["yield_force"] is None else float(v["yield_force"]),
        "noise_sigma": float(v["noise_sigma"]),
    }


class SceneFixture:
    """One scene directory and its scene.json, checked when built.

    The pipeline reads contact.json (`read_contact`) before the first stage
    runs, and passes the paths of hand_estimate.json, object.obj and
    poses.json, with `mesh_scale`, `contact_fingers` and the predicted
    force, to `gather_reconstruction`, which replays them.
    """

    def __init__(self, scene_dir):
        self.scene_dir = Path(scene_dir)
        path = self.scene_dir / "scene.json"
        v, bad = check_document(read_json(path), {
            # run and batch write to --out/<name>, so it is one path component
            "name": (lambda n: TEXT[0](n) and n not in (".", "..") and not {"/", "\\"} & set(n),
                     "must be one path component: not empty, '.' or '..', and no '/' or '\\'",
                     self.scene_dir.resolve().name),
            "object_name": (*TEXT, REQUIRED),
            "intent": (lambda i: isinstance(i, str), "must be a string", ""),
            "prompt_kind": (PROMPT_KINDS.__contains__,
                            f"must be one of {', '.join(PROMPT_KINDS)}", "language"),
            "observation_image": (*TEXT, "observation.png"),
            "region_mask": TEXT,
            "demo_image": TEXT,
            "mesh_scale": (positive, "must be a positive number", 1.0),
            "contact_fingers": (lambda f: numbers(f, valid=lambda i: type(i) is int and i >= 0)
                                and 0 < len(f) == len(set(f)), "must list distinct finger indices"),
            "hand_model": (is_robot_hand, ROBOT_HAND_RULE),
            "force_table": (*_FORCE_TABLE, {}),
        })
        self.name, self.object_name, self.intent = v["name"], v["object_name"], v["intent"]
        self.prompt_kind, self.hand_model = v["prompt_kind"], v["hand_model"]
        self.observation_ref, self.region_ref = v["observation_image"], v["region_mask"]
        self.demo_ref, self.mesh_scale = v["demo_image"], float(v["mesh_scale"])
        self.contact_fingers = v["contact_fingers"] and tuple(v["contact_fingers"])
        self._force_table = {**_load_force_table(), **_fold_names(v["force_table"])}
        for key, kind in (("region_mask", "visual-region"), ("demo_image", "demo-image")):
            if v[key] is not None and self.prompt_kind != kind:
                bad.append(f"{key} only applies to a {kind} prompt")
        if not bad:
            try:  # the prompt's own requirements, before any stage runs
                build_prompt(self.object_name, self.intent, self.prompt_kind,
                             region_ref=self.region_ref, demo_ref=self.demo_ref)
                self.predict_force(self.object_name)
            except (MissingField, FixtureMissing) as exc:
                bad.append(str(exc))
        raise_schema(bad, path.name)

    def effective_hand(self, setting: str | None) -> tuple:
        """The hand model a run drives, and where its name came from."""
        if setting:
            return setting, "settings"
        return (self.hand_model, "scene") if self.hand_model else (DEFAULT_HAND_MODEL, "default")

    def predict_force(self, object_description: str) -> float:
        key = object_description.strip().lower()
        if key not in self._force_table:
            raise FixtureMissing(f"no target force recorded for object '{object_description}'")
        return self._force_table[key]


def check_scene(scene_dir, hand_model=None) -> list:
    """Every violation a run would meet in one scene's fixture files.

    Each file goes through the reader a run uses, and contact.json is
    checked against the hand the run drives: `hand_model`, a settings
    file's, else the scene's own; a bad file does not stop the rest.
    """
    scene_dir, findings = Path(scene_dir), []

    def read(reader, *args):
        try:
            return reader(*args)
        except (SchemaError, FixtureMissing) as exc:
            findings.extend(getattr(exc, "violations", [str(exc)]))

    scene = read(SceneFixture, scene_dir)
    hand = scene and bundled_model(scene.effective_hand(hand_model)[0])
    read(load_obj, scene_dir / "object.obj", scene.mesh_scale if scene else 1.0)
    read(read_hand_estimate, scene_dir / "hand_estimate.json", scene and scene.contact_fingers)
    read(read_poses, scene_dir / "poses.json")
    read(read_contact, scene_dir / "contact.json", hand and len(hand.finger_drivers))
    return findings


@lru_cache(maxsize=None)
def _load_force_table() -> dict:
    return read_force_table(resources.files("dextra") / "models" / "force_table.json")


def gather_reconstruction(prompt: PromptBundle, hand_estimate: Path, object_obj: Path,
                          poses: Path, mesh_scale: float, contact_fingers,
                          f_target: float) -> ReconstructionBundle:
    """Replay the providers' recorded answer to `prompt`, reading each file once.

    The files stand in for the external services' results for that prompt:
    the hand estimate (checked against `contact_fingers`), the object mesh,
    scaled by `mesh_scale`, and poses.json.  `prompt` is not read here; it
    names what the recorded files answer.
    """
    mesh = load_obj(object_obj, mesh_scale)
    hand = read_hand_estimate(hand_estimate, contact_fingers)
    return ReconstructionBundle(hand=hand, mesh=mesh, **read_poses(poses), f_target=f_target)


# ---------------------------------------------------------------------------
# depth alignment and frame transfer
# ---------------------------------------------------------------------------

def _mesh_frame_tips(pts: np.ndarray, deltas: np.ndarray, to_mesh: SE3Pose) -> np.ndarray:
    """The camera-frame fingertips `pts` (k, 3) moved along camera z by each
    shift in `deltas`, then mapped by `to_mesh`: k rows per shift, in order."""
    shifted = np.repeat(pts[None, :, :], len(deltas), axis=0)
    shifted[:, :, 2] += deltas[:, None]
    return transform_points(to_mesh, shifted)


def _depth_objective(mesh: TriangleMesh, pts: np.ndarray, deltas: np.ndarray,
                     to_mesh: SE3Pose) -> np.ndarray:
    """Sum of squared surface distances for every depth shift in `deltas`.

    `pts` are camera-frame fingertips; each shift moves them along camera z,
    then `to_mesh` (the inverse of the object's pose in the camera) maps
    them into the frame of the object-frame `mesh`.
    """
    d2 = surface_query(mesh, _mesh_frame_tips(pts, deltas, to_mesh)).sq_distance
    return d2.reshape(len(deltas), len(pts)).sum(axis=1)


def align_depth(hand: HandPoseEstimate, mesh: TriangleMesh, contact_fingers,
                pose: SE3Pose) -> tuple:
    """Correct the depth ambiguity of a monocular hand estimate.

    Slides the whole hand along the camera depth axis (z of the estimate's
    frame) within +-DEPTH_SEARCH_HALF_RANGE and keeps the shift that
    minimizes the sum of squared fingertip-to-surface distances over the
    `contact_fingers`: the exact minimum, up to rounding, in the basin of
    the best of a first grid of 61 shifts over the range.  `mesh` is the
    object-frame mesh and `pose` the object's pose in the estimate's
    camera: the shifted fingertips are mapped into the object frame, and no
    surface is built in the camera frame.  Returns the aligned estimate,
    its depth shift (root z after minus before) and the contact fingers.

    Every fingertip is asked once, at the input shift 0.  Where
    `contact_fingers` is None, that answer picks them: the fingertips
    within CONTACT_SELECT_RADIUS of the surface.  The contact fingers'
    summed squared distances there are the input shift's objective on the
    first grid, and its bound: the grid asks the surface only for the
    shifts it cannot rule out.  A shift's floor, from the mesh's bounding
    box, is at most its objective, and every other shift whose floor is
    within the bound plus a margin of `_FLAT` is asked in one batched
    query.  Any other can neither win nor tie, since the grid's minimum is
    at most the input shift's objective, so it reads +inf and the best
    shift, first on a tie, is the one a query of every shift finds.  A
    shift ruled out also proves the objective varies by more than `_FLAT`,
    so the flatness test agrees with asking every shift too.

    The grid's best objective U bounds the minimum.  Each fingertip's
    distance is 1-Lipschitz in the shift, so the square root of the
    objective is sqrt(k)-Lipschitz over k fingers, and a first-grid shift g
    rules out every shift within (sqrt F(g) - sqrt U) / sqrt k of it, F(g)
    its objective, or its floor where it was not asked.  The window is the
    interval these leave around the best shift, clipped to the range.  On
    it each fingertip moves along one line in the object frame, and its
    squared distance is the lower envelope of quadratics in the shift, one
    for each corner, edge and face that can come within U, each on the
    interval where its foot lies on the triangle (`line_sq_distance_argmin`).
    Between the envelopes' breaks the objective is one quadratic, so its
    minimum over the window is found in closed form: no grid spacing limits
    it.  One query at that shift confirms it, and it replaces the grid's
    best only if its objective is no higher, so the returned estimate is
    never worse than the first grid's best, nor than the input, whose
    shift 0 is on that grid.  Only the root translation z changes.
    """
    k = hand.fingertip_points.shape[0]
    if contact_fingers is not None:
        contact_fingers = tuple(int(i) for i in contact_fingers)
        if any(i < 0 or i >= k for i in contact_fingers):
            raise DimensionMismatch(f"contact finger index outside 0..{k - 1}")
    to_mesh = invert(pose)
    d2 = surface_query(mesh, transform_points(to_mesh, hand.fingertip_points)).sq_distance
    if contact_fingers is None:
        contact_fingers = tuple(int(i) for i in np.nonzero(d2 <= CONTACT_SELECT_RADIUS ** 2)[0])
    if len(contact_fingers) == 0:
        raise EmptyContactSet("depth alignment needs at least one contact finger")
    pts = hand.fingertip_points[list(contact_fingers)]

    step = DEPTH_SEARCH_HALF_RANGE / 30
    deltas = step * np.arange(-30, 31)
    # a row's floor is at most its squared distance and rows sum in the
    # objective's order; rounding is monotone, so no floor tops its objective
    floors = sq_distance_floor(mesh, _mesh_frame_tips(pts, deltas, to_mesh))
    floors = floors.reshape(len(deltas), len(pts)).sum(axis=1)
    objs = np.full(len(deltas), np.inf)
    # shift 0, the input: the pick's rows, summed in the objective's order
    objs[30] = d2[list(contact_fingers)].sum()
    ask = floors <= objs[30] + _FLAT
    ask[30] = False
    objs[ask] = _depth_objective(mesh, pts, deltas[ask], to_mesh)
    if float(objs.max() - objs.min()) < _FLAT:
        raise NoConvergence("depth objective is flat over the search range")
    best = int(np.argmin(objs))
    bound, delta = float(objs[best]), float(deltas[best])
    # the window around the best shift: shift g rules out every s with
    # |s - g| < (sqrt F(g) - sqrt bound) / sqrt k
    known = np.where(np.isfinite(objs), objs, floors)
    reach = (np.sqrt(known) - math.sqrt(bound)) / math.sqrt(len(pts))
    lo = max(-DEPTH_SEARCH_HALF_RANGE, min(delta, (deltas + reach)[:best].max(initial=-np.inf)))
    hi = min(DEPTH_SEARCH_HALF_RANGE, max(delta, (deltas - reach)[best + 1:].min(initial=np.inf)))
    found = line_sq_distance_argmin(mesh, transform_points(to_mesh, pts),
                                    rotate_vector(to_mesh, (0.0, 0.0, 1.0)), lo, hi, bound)
    if found is not None and _depth_objective(mesh, pts, np.array([found]), to_mesh)[0] <= bound:
        delta = found

    root = hand.config.root_pose
    new_root = SE3Pose(root.rotation, root.translation + np.array([0.0, 0.0, delta]))
    aligned = replace(hand, config=HandConfiguration(new_root, hand.config.joint_angles),
                      fingertip_points=hand.fingertip_points + np.array([0.0, 0.0, delta]))
    return aligned, float(new_root.translation[2] - root.translation[2]), contact_fingers


def to_object_frame(t_o_gen: SE3Pose, hand: HandPoseEstimate) -> HandPoseEstimate:
    """Re-express a camera-frame hand estimate in the object's own frame.

    Applies the inverse of the object's pose in that camera to the root and
    the fingertip keypoints alike, so hand-object geometry is preserved
    exactly, including keypoints that did not come from the kinematic chain.
    """
    inv = invert(t_o_gen)
    config = HandConfiguration(compose(inv, hand.config.root_pose), hand.config.joint_angles)
    return replace(hand, config=config,
                   fingertip_points=transform_points(inv, hand.fingertip_points))
