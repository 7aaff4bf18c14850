"""From an observation to an object-frame human grasp.

This module covers the perception-facing half of the transfer: building the
generation prompt, replaying recorded perception results from scene fixture
directories, correcting the depth ambiguity of a monocular hand estimate
against the object mesh, and re-expressing the estimate in the object frame.

Generative models and pose estimators are external services; the shipped
providers replay recorded fixtures so every downstream result is
reproducible.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyContactSet,
    FixtureMissing,
    MissingField,
    NoConvergence,
)
from .geometry import (
    SE3Pose,
    TriangleMesh,
    compose,
    invert,
    load_obj,
    pose_from_record,
    surface_query,
    transform_points,
)
from .kinematics import HandConfiguration, HandPoseEstimate, bundled_model, fingertip_positions

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

# fingers this close to the surface (m) count as intended contacts
CONTACT_SELECT_RADIUS = 0.03
DEPTH_SEARCH_HALF_RANGE = 0.15
DEPTH_SEARCH_TOL = 1e-5
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SceneObservation:
    """One captured scene: image reference and object description."""

    image_ref: str
    object_name: str
    intent: str = ""


@dataclass(frozen=True)
class PromptBundle:
    positive: str
    negative: str
    kind: str
    attachments: tuple  # (name, reference) pairs


@dataclass(frozen=True, eq=False)
class ReconstructionBundle:
    """Everything the transfer stage needs, gathered from the providers."""

    hand: HandPoseEstimate
    mesh: TriangleMesh
    object_pose_generated: SE3Pose   # object in the generated-image camera
    object_pose_observed: SE3Pose    # object in the real observation camera
    generated_image: str
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
# fixture-backed providers
# ---------------------------------------------------------------------------

def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise FixtureMissing(f"fixture file missing: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise MissingField(f"{where}: missing '{key}'")
    return doc[key]


class SceneFixture:
    """Deterministic providers backed by one scene directory.

    Layout: scene.json, object.obj, hand_estimate.json, poses.json, and
    contact.json for the execution stage.  All provider calls replay these
    files, so identical inputs always yield identical outputs.
    """

    def __init__(self, scene_dir):
        self.scene_dir = Path(scene_dir)
        doc = _load_json(self.scene_dir / "scene.json")
        self.name = doc.get("name", self.scene_dir.name)
        self.object_name = _require(doc, "object_name", "scene.json")
        self.intent = doc.get("intent", "")
        self.prompt_kind = doc.get("prompt_kind", "language")
        self.observation = SceneObservation(
            image_ref=doc.get("observation_image", "observation.png"),
            object_name=self.object_name,
            intent=self.intent)
        self.generated_ref = doc.get("generated_image", "generated.png")
        self.region_ref = doc.get("region_mask")
        self.demo_ref = doc.get("demo_image")
        self.mesh_scale = float(doc.get("mesh_scale", 1.0))
        self.contact_fingers = doc.get("contact_fingers")
        self.hand_model = doc.get("hand_model")
        self._force_table = dict(_load_force_table())
        for key, val in doc.get("force_table", {}).items():
            self._force_table[key.strip().lower()] = float(val)
        self._poses = None

    # -- providers --

    def grasp_image(self, observation: SceneObservation, prompt: PromptBundle) -> str:
        return self.generated_ref

    def estimate_hand(self, image_ref: str) -> HandPoseEstimate:
        if image_ref != self.generated_ref:
            raise FixtureMissing(f"no hand estimate recorded for image '{image_ref}'")
        doc = _load_json(self.scene_dir / "hand_estimate.json")
        skeleton = _require(doc, "skeleton", "hand_estimate.json")
        config = HandConfiguration(
            pose_from_record(_require(doc, "root_pose", "hand_estimate.json")),
            np.asarray(_require(doc, "joint_angles", "hand_estimate.json"), dtype=float))
        if "fingertip_points" in doc:
            tips = np.asarray(doc["fingertip_points"], dtype=float)
            independent = bool(doc.get("keypoints_independent", False))
        else:
            tips = fingertip_positions(bundled_model(skeleton), config)
            independent = False
        return HandPoseEstimate(config=config, fingertip_points=tips,
                                skeleton=skeleton, keypoints_independent=independent)

    def _pose_records(self) -> dict:
        if self._poses is None:
            self._poses = _load_json(self.scene_dir / "poses.json")
        return self._poses

    def estimate_object_pose(self, image_ref: str, mesh: TriangleMesh) -> SE3Pose:
        poses = self._pose_records()
        if image_ref == self.generated_ref:
            return pose_from_record(_require(poses, "object_pose_generated", "poses.json"))
        if image_ref == self.observation.image_ref:
            return pose_from_record(_require(poses, "object_pose_observed", "poses.json"))
        raise FixtureMissing(f"no object pose recorded for image '{image_ref}'")

    def object_mesh(self, image_ref: str) -> TriangleMesh:
        path = self.scene_dir / "object.obj"
        if not path.is_file():
            raise FixtureMissing(f"fixture file missing: {path}")
        return load_obj(path, scale=self.mesh_scale)

    def predict_force(self, object_description: str) -> float:
        key = object_description.strip().lower()
        if key not in self._force_table:
            raise FixtureMissing(f"no target force recorded for object '{object_description}'")
        return self._force_table[key]

    # -- execution-stage fixture --

    def hand_eye(self) -> SE3Pose:
        return pose_from_record(_require(self._pose_records(), "hand_eye", "poses.json"))

    def contact_spec(self) -> dict:
        return _load_json(self.scene_dir / "contact.json")


_FORCE_TABLE_CACHE: dict | None = None


def _load_force_table() -> dict:
    global _FORCE_TABLE_CACHE
    if _FORCE_TABLE_CACHE is None:
        from importlib import resources
        ref = resources.files("dextra").joinpath("models/force_table.json")
        raw = json.loads(ref.read_text(encoding="utf-8"))
        _FORCE_TABLE_CACHE = {k.strip().lower(): float(v) for k, v in raw.items()}
    return _FORCE_TABLE_CACHE


def gather_reconstruction(scene: SceneFixture, prompt: PromptBundle) -> ReconstructionBundle:
    """Run every provider once and bundle the results."""
    generated = scene.grasp_image(scene.observation, prompt)
    mesh = scene.object_mesh(scene.observation.image_ref)
    return ReconstructionBundle(
        hand=scene.estimate_hand(generated),
        mesh=mesh,
        object_pose_generated=scene.estimate_object_pose(generated, mesh),
        object_pose_observed=scene.estimate_object_pose(scene.observation.image_ref, mesh),
        generated_image=generated,
        f_target=scene.predict_force(scene.object_name),
    )


# ---------------------------------------------------------------------------
# depth alignment and frame transfer
# ---------------------------------------------------------------------------

def select_contact_fingers(hand: HandPoseEstimate, mesh: TriangleMesh,
                           radius: float = CONTACT_SELECT_RADIUS) -> tuple:
    """Fingertips within `radius` of the surface: the intended contacts."""
    d2 = surface_query(mesh, hand.fingertip_points).sq_distance
    return tuple(int(i) for i in np.nonzero(d2 <= radius * radius)[0])


def _depth_objective(mesh: TriangleMesh, pts: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Sum of squared surface distances for every depth shift in `deltas`."""
    k = len(pts)
    shifted = np.repeat(pts[None, :, :], len(deltas), axis=0)
    shifted[:, :, 2] += deltas[:, None]
    d2 = surface_query(mesh, shifted).sq_distance
    return d2.reshape(len(deltas), k).sum(axis=1)


def align_depth(hand: HandPoseEstimate, mesh: TriangleMesh,
                contact_fingers=None,
                half_range: float = DEPTH_SEARCH_HALF_RANGE,
                tol: float = DEPTH_SEARCH_TOL) -> HandPoseEstimate:
    """Correct the depth ambiguity of a monocular hand estimate.

    Slides the whole hand along the camera depth axis (z of the estimate's
    frame) within +-half_range and keeps the shift that minimizes the sum
    of squared fingertip-to-surface distances over the contact fingers.
    Only the root translation z changes; the returned estimate never has a
    worse objective than the input.
    """
    if contact_fingers is None:
        contact_fingers = select_contact_fingers(hand, mesh)
    contact_fingers = tuple(int(i) for i in contact_fingers)
    if len(contact_fingers) == 0:
        raise EmptyContactSet("depth alignment needs at least one contact finger")
    k = hand.fingertip_points.shape[0]
    if any(i < 0 or i >= k for i in contact_fingers):
        raise DimensionMismatch(f"contact finger index outside 0..{k - 1}")
    pts = hand.fingertip_points[list(contact_fingers)]

    # coarse bracket first: the objective is only piecewise-smooth, so pin
    # down the basin before the golden-section polish
    coarse = np.linspace(-half_range, half_range, 61)
    coarse_obj = _depth_objective(mesh, pts, coarse)
    if float(coarse_obj.max() - coarse_obj.min()) < 1e-12:
        raise NoConvergence("depth objective is flat over the search range")
    best = int(np.argmin(coarse_obj))
    lo = coarse[max(best - 1, 0)]
    hi = coarse[min(best + 1, len(coarse) - 1)]

    def f(delta: float) -> float:
        return float(_depth_objective(mesh, pts, np.array([delta]))[0])

    a, b = float(lo), float(hi)
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = f(x1), f(x2)
    while (b - a) > tol:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = f(x2)
    polished = 0.5 * (a + b)

    # the input depth is always a candidate, making the step non-increasing
    candidates = [0.0, polished, float(coarse[best])]
    objs = [f(c) for c in candidates]
    delta = candidates[int(np.argmin(objs))]

    root = hand.config.root_pose
    new_root = SE3Pose(root.rotation, root.translation + np.array([0.0, 0.0, delta]))
    new_tips = hand.fingertip_points + np.array([0.0, 0.0, delta])
    return HandPoseEstimate(
        config=HandConfiguration(new_root, hand.config.joint_angles),
        fingertip_points=new_tips,
        skeleton=hand.skeleton,
        keypoints_independent=hand.keypoints_independent)


def to_object_frame(t_o_gen: SE3Pose, hand: HandPoseEstimate) -> HandPoseEstimate:
    """Re-express a camera-frame hand estimate in the object's own frame.

    Applies the inverse of the object's pose in that camera to the root and
    the fingertip keypoints alike, so hand-object geometry is preserved
    exactly, including keypoints that did not come from the kinematic chain.
    """
    inv = invert(t_o_gen)
    config = HandConfiguration(compose(inv, hand.config.root_pose),
                               hand.config.joint_angles)
    return HandPoseEstimate(
        config=config,
        fingertip_points=transform_points(inv, hand.fingertip_points),
        skeleton=hand.skeleton,
        keypoints_independent=hand.keypoints_independent)
