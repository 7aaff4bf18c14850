"""Articulated hand models: schema loading, forward kinematics, jacobians.

A hand is a tree of links rooted at the wrist.  Every link carries a fixed
offset pose relative to its parent; a revolute joint, when present, rotates
the link about a unit axis expressed in the link's own frame after the
offset.  Linkage-coupled fingers are modeled with mimic joints whose angle
is a fixed ratio of a driver joint; the FK sweep sets each mimic entry of
the joint list it is given from its driver before it sweeps, so whatever a
configuration vector holds there is ignored.

A hand model document is checked against `_HAND_RULES` by
`errors.check_document`, then for what relates one entry to another.  Each
bundled model is loaded once per process and shared, so its arrays are read-only.

FK sweeps the links in Python floats from per-link tables built once per
model.  The tables mark a link whose offset rotation is exactly the identity
and a joint whose axis is exactly e_x or e_z, and the sweep skips the
products with their exact zeros: every bundled hand has only such joints,
and every link but the thumb base has an identity offset.  Each remaining
sum keeps the order of the general product.  Dropping an exact zero term
can change a sum only when the sum is itself zero, and then only in its
sign: with exact-zero root rotation components and angles past +-pi, or
with -0.0 inputs, a link rotation can hold -0.0 where the general products
give +0.0, or the reverse.  So link rotations keep their values up to the
sign of zero, and the fingertips, the link translations and the jacobian
keep the bits of the general products; the tests check them on every
bundled hand and on generated ones.

The root pose is optimized as a 6-vector twist (rotation vector then
translation) applied on the body side of the current pose, which stays
singularity-free for the small increments a solver takes.  The fingertip
jacobian is geometric: its columns are read off the one FK sweep in closed
form (Murray, Li & Sastry 1994, ch. 3), with no finite-difference step; the
sweep keeps the root pose at index -1, the root link's parent index.  A
solve that holds the wrist still asks for the joint columns alone.

`fingertip_rows` sweeps many joint rows under one root pose, and
`tip_speed_bounds` bounds how fast each fingertip moves per radian of its
finger's driver, which lets the contact-onset search skip the rows whose
fingertips cannot reach the object.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    POSE,
    REQUIRED,
    TEXT,
    DimensionMismatch,
    FixtureMissing,
    check_document,
    number,
    numbers,
    raise_schema,
    read_json,
)
from .geometry import (
    SE3Pose,
    pose_from_record,
    pose_from_rotvec,
    compose,
)

ROOT_DOF = 6


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Link:
    name: str
    parent: int            # index into links; -1 for the root
    offset: SE3Pose        # fixed pose relative to the parent link


@dataclass(frozen=True, eq=False)
class Joint:
    name: str
    child_link: int        # index of the link this joint rotates
    axis: np.ndarray       # unit axis in the child link frame
    limits: tuple          # (lo, hi) radians
    rest: float


@dataclass(frozen=True, eq=False)
class KinematicHandModel:
    """Validated hand description plus derived lookup tables."""

    name: str
    links: tuple
    joints: tuple
    fingertip_links: tuple          # link names, distal to leaf links
    mimics: dict                    # joint index -> (driver index, ratio)
    human_joint_map: tuple          # (human joint name, model joint name)
    approach_axis: np.ndarray       # unit vector in the wrist frame
    finger_drivers: tuple           # one driver joint name per fingertip
    human_fingertip_indices: tuple  # which human fingertip each tip tracks

    # derived, filled by load_hand_model
    joint_index: dict
    joint_of_link: tuple            # joint index per link, -1 if welded
    fingertip_link_ids: tuple
    topo_order: tuple
    lower_limits: np.ndarray
    upper_limits: np.ndarray
    document_sha256: str            # of the checked document; digests name the model by it

    def __post_init__(self):
        object.__setattr__(self, "_cache", {})

    @property
    def dof(self) -> int:
        return len(self.joints)

    @property
    def fingertip_count(self) -> int:
        return len(self.fingertip_links)


@dataclass(frozen=True, eq=False)
class HandConfiguration:
    """Root pose plus one angle per joint, model order (radians)."""

    root_pose: SE3Pose
    joint_angles: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.joint_angles, dtype=float).reshape(-1).copy()
        object.__setattr__(self, "joint_angles", _frozen(a))


@dataclass(frozen=True, eq=False)
class HandPoseEstimate:
    """Reconstructed human hand: skeleton config plus fingertip keypoints.

    `fingertip_points` may come from the same kinematic chain or from an
    independent keypoint head.
    """

    config: HandConfiguration
    fingertip_points: np.ndarray    # (K, 3) in the estimate's camera frame
    skeleton: str                   # bundled human model name

    def __post_init__(self):
        pts = np.asarray(self.fingertip_points, dtype=float).reshape(-1, 3).copy()
        object.__setattr__(self, "fingertip_points", _frozen(pts))


# ---------------------------------------------------------------------------
# document loading and validation
# ---------------------------------------------------------------------------

def _unit(v) -> np.ndarray:
    a = np.array(v, dtype=float)
    return _frozen(a / np.linalg.norm(a))


_NONZERO_3 = (lambda v: numbers(v, 3) and math.hypot(*v) >= 1e-12, "must be a nonzero 3-vector")
_NAMES = (lambda v: numbers(v, valid=TEXT[0]), "must be a list of non-empty names")
# the shape, type and default of every key; load_hand_model checks the rest
_HAND_RULES = {
    "name": (*TEXT, REQUIRED),
    "links": ([{
        "name": (*TEXT, REQUIRED),
        "parent": (lambda p: type(p) is int and p >= -1, "must be a link index or -1", REQUIRED),
        "offset": (*POSE, {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}),
    }], "must be a list of links", REQUIRED),
    "joints": ([{
        "name": (*TEXT, REQUIRED),
        "type": (lambda t: t == "revolute", "must be 'revolute'", "revolute"),
        "child_link": (*TEXT, REQUIRED),
        "axis": (*_NONZERO_3, REQUIRED),
        "limits": (lambda v: numbers(v, 2), "must be two numbers", [0.0, 0.0]),
        "rest": (number, "must be a number", 0.0),
    }], "must be a list of joints", REQUIRED),
    "fingertip_links": (*_NAMES, REQUIRED),
    "mimics": ([{
        "joint": (*TEXT, REQUIRED),
        "driver": (*TEXT, REQUIRED),
        "ratio": (number, "must be a number", 1.0),
    }], "must be a list of mimics", []),
    "human_joint_map": (lambda m: numbers(m, valid=lambda p: numbers(p, 2, TEXT[0])),
                        "must be a list of [human joint, model joint] name pairs", []),
    "approach_axis": (*_NONZERO_3, [0.0, 0.0, 1.0]),
    "finger_drivers": (*_NAMES, []),
    "human_fingertip_indices": (lambda v: numbers(v, valid=lambda i: type(i) is int and i >= 0),
                                "must be a list of non-negative indices"),
}


def load_hand_model(doc: dict, where: str = "hand model") -> KinematicHandModel:
    """Build a validated model from a schema document.

    `_HAND_RULES` reads every key; the checks here relate one entry to
    another.  Every violation is raised at once, prefixed with `where`.
    """
    doc, bad = check_document(doc, _HAND_RULES)
    raise_schema(bad, where)
    links_doc, joints_doc = doc["links"], doc["joints"]
    link_names = [ld["name"] for ld in links_doc]
    joint_names = [jd["name"] for jd in joints_doc]
    link_index = {n: i for i, n in enumerate(link_names)}
    joint_index = {n: j for j, n in enumerate(joint_names)}
    for kind, names, index in (("link", link_names, link_index), ("joint", joint_names, joint_index)):
        if len(index) != len(names):
            bad.append(f"duplicate {kind} names")

    parents = [ld["parent"] for ld in links_doc]
    for i, p in enumerate(parents):
        if p >= len(links_doc):
            bad.append(f"link '{link_names[i]}': bad parent index {p}")
    roots = [i for i, p in enumerate(parents) if p == -1]
    # breadth first from the root: a link on a cycle (its own parent, say), or
    # below one, is never reached
    topo = list(roots) if len(roots) == 1 else []
    for i in topo:
        topo += [c for c, p in enumerate(parents) if p == i]
    if len(roots) != 1:
        bad.append(f"tree must have exactly one root, found {len(roots)}")
    elif len(topo) != len(links_doc):
        bad.append("links unreachable from the root (cycle or orphan): "
                   + ", ".join(n for i, n in enumerate(link_names) if i not in topo))

    joints = []
    joint_of_link = [-1] * len(links_doc)
    for j, jd in enumerate(joints_doc):
        name, child = jd["name"], jd["child_link"]
        child_id = link_index.get(child, -1)
        if child_id < 0:
            bad.append(f"joint '{name}': unknown child link '{child}'")
        elif roots and child_id == roots[0]:
            bad.append(f"joint '{name}': cannot actuate the root link")
        elif joint_of_link[child_id] != -1:
            bad.append(f"link '{child}': more than one joint attached")
        else:
            joint_of_link[child_id] = j
        lo, hi = (float(v) for v in jd["limits"])
        rest = float(jd["rest"])
        if lo > hi:
            bad.append(f"joint '{name}': limits inverted ({lo} > {hi})")
        elif not (lo <= rest <= hi):
            bad.append(f"joint '{name}': rest {rest} outside [{lo}, {hi}]")
        joints.append(Joint(name=name, child_link=max(child_id, 0),
                            axis=_unit(jd["axis"]), limits=(lo, hi), rest=rest))

    mimics = {}
    for md in doc["mimics"]:
        jn, dn = md["joint"], md["driver"]
        if jn not in joint_index or dn not in joint_index:
            bad.append(f"mimic '{jn}' of '{dn}': unknown joint")
        elif jn == dn:
            bad.append(f"mimic '{jn}' cannot drive itself")
        elif joint_index[jn] in mimics:
            bad.append(f"joint '{jn}' mimicked twice")
        else:
            mimics[joint_index[jn]] = (joint_index[dn], float(md["ratio"]))
    for d, _ in mimics.values():
        if d in mimics:
            bad.append(f"mimic chain: driver '{joint_names[d]}' is itself a mimic")

    tips = tuple(doc["fingertip_links"])
    if not (2 <= len(tips) <= 5):
        bad.append(f"fingertip count {len(tips)} outside 2..5")
    for t in tips:
        if t not in link_index:
            bad.append(f"fingertip link '{t}' does not exist")
        elif link_index[t] in parents:
            bad.append(f"fingertip link '{t}' is not a leaf")

    jmap = []
    for hname, mname in doc["human_joint_map"]:
        if mname not in joint_index:
            bad.append(f"human_joint_map: unknown model joint '{mname}'")
        elif hname in (h for h, _ in jmap):
            bad.append(f"human_joint_map: '{hname}' mapped twice")
        else:
            jmap.append((hname, mname))

    drivers = tuple(doc["finger_drivers"])
    if drivers and len(drivers) != len(tips):
        bad.append("finger_drivers must list one joint per fingertip")
    for dn in drivers:
        if dn not in joint_index:
            bad.append(f"finger_drivers: unknown joint '{dn}'")

    human_tips = doc["human_fingertip_indices"]
    human_tips = tuple(range(len(tips)) if human_tips is None else human_tips)
    if len(human_tips) != len(tips):
        bad.append("human_fingertip_indices must give one index per fingertip")

    raise_schema(bad, where)
    model = KinematicHandModel(
        name=doc["name"],
        links=tuple(Link(name=ld["name"], parent=p, offset=pose_from_record(ld["offset"]))
                    for ld, p in zip(links_doc, parents)),
        joints=tuple(joints),
        fingertip_links=tips,
        mimics=mimics,
        human_joint_map=tuple(jmap),
        approach_axis=_unit(doc["approach_axis"]),
        finger_drivers=drivers,
        human_fingertip_indices=human_tips,
        joint_index=joint_index,
        joint_of_link=tuple(joint_of_link),
        fingertip_link_ids=tuple(link_index[t] for t in tips),
        topo_order=tuple(topo),
        lower_limits=_frozen(np.array([j.limits[0] for j in joints])),
        upper_limits=_frozen(np.array([j.limits[1] for j in joints])),
        document_sha256=hashlib.sha256(json.dumps(
            doc, sort_keys=True, separators=(",", ":")).encode("utf-8")).hexdigest(),
    )
    # the contact-onset search sweeps every finger in one FK pass, which is
    # exact only while each driver (with its mimics) moves its own tip alone
    columns, _, _, fold = _jacobian_tables(model)
    for k, dn in enumerate(drivers):
        # the tips of the driver's column and of every mimic folded onto it
        moved = {t for j in np.flatnonzero(fold[:, joint_index[dn]]) for t in columns[3 + j][2]}
        for t in sorted(moved - {k}):
            bad.append(f"finger driver '{dn}' of '{tips[k]}' also moves fingertip '{tips[t]}'")
    raise_schema(bad, where)
    return model


def load_hand_model_file(path) -> KinematicHandModel:
    """A hand model JSON file; every violation is prefixed with its name."""
    path = Path(path)
    return load_hand_model(read_json(path), path.name)


_MODELS = resources.files("dextra") / "models"
# every bundled JSON file but the force table is a hand model
_HAND_MODELS = frozenset(p.name.removesuffix(".json") for p in _MODELS.iterdir()) - {"force_table"}


def is_bundled_hand(name) -> bool:
    """Whether `name` names one of the hand models shipped with the package."""
    return isinstance(name, str) and name in _HAND_MODELS


def is_robot_hand(name) -> bool:
    """Whether `name` names a bundled hand a run can drive: one whose model
    maps the human hand's joints (`human_joint_map`)."""
    return is_bundled_hand(name) and bool(bundled_model(name).human_joint_map)


@lru_cache(maxsize=None)
def bundled_model(name: str) -> KinematicHandModel:
    """One of the hand models shipped with the package, loaded once per process.

    Runs share the returned model, so its arrays are read-only.
    """
    if name not in _HAND_MODELS:
        raise FixtureMissing(f"no bundled hand model named '{name}'")
    return load_hand_model(read_json(_MODELS / f"{name}.json"), f"{name}.json")


# ---------------------------------------------------------------------------
# kinematics
# ---------------------------------------------------------------------------

def _check_dof(model: KinematicHandModel, angles: np.ndarray) -> None:
    """`angles` is one joint vector, or one per row."""
    if angles.ndim not in (1, 2) or angles.shape[-1:] != (model.dof,):
        raise DimensionMismatch(
            f"model '{model.name}' has {model.dof} joints, got {angles.shape}")


def _fk_tables(model: KinematicHandModel):
    """Per-link scalar tables in topo order; the python-float FK hot path
    avoids per-link numpy array construction, which dominates otherwise.

    Each row is (link, parent, offset rotation, offset translation, joint
    or -1, axis kind, axis).  The rotation is None when it is exactly
    (1, 0, 0, 0), and the axis kind is 0 or 2 when the joint's unit axis is
    exactly e_x or e_z, the axes every bundled joint turns about, and 3 for
    any other axis: `_raw_fk` skips the products of those exact zeros.
    """
    cache = model._cache
    if "fk" not in cache:
        identity = np.eye(4)[0].tobytes()
        frame_axes = {np.eye(3)[k].tobytes(): k for k in (0, 2)}
        rows = []
        for i in model.topo_order:
            link = model.links[i]
            j = model.joint_of_link[i]
            axis = model.joints[j].axis if j >= 0 else np.zeros(3)
            rotation = link.offset.rotation
            rows.append((
                i,
                link.parent,
                None if rotation.tobytes() == identity else tuple(rotation.tolist()),
                tuple(link.offset.translation.tolist()),
                j,
                frame_axes.get(axis.tobytes(), 3),
                tuple(axis.tolist()),
            ))
        cache["fk"] = tuple(rows)
    return cache["fk"]


def _raw_fk(model: KinematicHandModel, root_q, root_t, angles: list):
    """Quaternion/translation tuples per link, then the root's at index -1,
    from `angles`, a list of floats whose mimic entries it first sets.

    A link with an identity offset rotation takes its parent's rotation as
    is, and a joint about e_x or e_z multiplies by (c, s e_k) with only the
    eight products that are not exact zeros, each sum in the order of the
    general product; any other link runs the general products.
    """
    for j, (driver, ratio) in model.mimics.items():
        angles[j] = ratio * angles[driver]
    sin, cos = math.sin, math.cos
    # the root's parent index, -1, reads the root pose from the end of the lists
    qs = [None] * len(model.links) + [tuple(map(float, root_q))]
    ts = [None] * len(model.links) + [tuple(map(float, root_t))]
    for i, parent, off_q, off_t, j, kind, axis in _fk_tables(model):
        pw, px, py, pz = qs[parent]
        tx, ty, tz = ts[parent]
        vx, vy, vz = off_t
        # rotate the offset translation by the parent quaternion
        cx = 2.0 * (py * vz - pz * vy)
        cy = 2.0 * (pz * vx - px * vz)
        cz = 2.0 * (px * vy - py * vx)
        ts[i] = (tx + vx + pw * cx + py * cz - pz * cy,
                 ty + vy + pw * cy + pz * cx - px * cz,
                 tz + vz + pw * cz + px * cy - py * cx)
        # parent rotation times offset rotation
        if off_q is None:
            qw, qx, qy, qz = pw, px, py, pz
        else:
            ow, ox, oy, oz = off_q
            qw = pw * ow - px * ox - py * oy - pz * oz
            qx = pw * ox + px * ow + py * oz - pz * oy
            qy = pw * oy - px * oz + py * ow + pz * ox
            qz = pw * oz + px * oy - py * ox + pz * ow
        if j < 0:
            qs[i] = (qw, qx, qy, qz)
            continue
        half = 0.5 * angles[j]
        s = sin(half)
        c = cos(half)
        if kind == 0:
            qs[i] = (qw * c - qx * s, qw * s + qx * c, qy * c + qz * s, qz * c - qy * s)
        elif kind == 2:
            qs[i] = (qw * c - qz * s, qx * c + qy * s, qy * c - qx * s, qw * s + qz * c)
        else:
            jx, jy, jz = s * axis[0], s * axis[1], s * axis[2]
            qs[i] = (qw * c - qx * jx - qy * jy - qz * jz,
                     qw * jx + qx * c + qy * jz - qz * jy,
                     qw * jy - qx * jz + qy * c + qz * jx,
                     qw * jz + qx * jy - qy * jx + qz * c)
    return qs, ts


def forward_kinematics(model: KinematicHandModel, config: HandConfiguration) -> tuple:
    """One FK sweep: the (K, 3) fingertip positions, then every link's world
    quaternion and translation as float tuples, in link order, each list
    closed by the root pose's at index -1.

    The model's one forward-kinematics entry point.  A caller that keeps the
    sweep hands it to `fingertip_jacobian`, which does not sweep.  On
    degenerate inputs (a root rotation with exact-zero components, -0.0
    angles) a link rotation can differ from the general per-link product in
    the sign of a zero component; no caller reads the link rotations.
    """
    _check_dof(model, config.joint_angles)
    root = config.root_pose
    qs, ts = _raw_fk(model, root.rotation.tolist(), root.translation.tolist(),
                     config.joint_angles.tolist())
    return np.array([ts[i] for i in model.fingertip_link_ids]), qs, ts


def fingertip_rows(model: KinematicHandModel, root_pose: SE3Pose, joint_rows) -> np.ndarray:
    """(R, K, 3) fingertip positions of (R, J) joint vectors, or of one (J,)
    vector as one row, under one root pose: one FK sweep per row, which
    resolves the row's mimics as `forward_kinematics` does, with no
    `HandConfiguration` per row."""
    rows = np.asarray(joint_rows, dtype=float)
    _check_dof(model, rows)
    root_q, root_t = root_pose.rotation.tolist(), root_pose.translation.tolist()
    tip_ids = model.fingertip_link_ids
    tips = []
    for angles in rows.reshape(-1, model.dof).tolist():
        ts = _raw_fk(model, root_q, root_t, angles)[1]
        tips += [ts[i] for i in tip_ids]
    return np.array(tips).reshape(-1, len(tip_ids), 3)


def fingertip_positions(model: KinematicHandModel, config: HandConfiguration) -> np.ndarray:
    """(K, 3) fingertip positions of `config`: `fingertip_rows` of one row."""
    return fingertip_rows(model, config.root_pose, config.joint_angles)[0]


def tip_speed_bounds(model: KinematicHandModel) -> np.ndarray:
    """(K,) bound on each fingertip's speed, in length per radian of its
    finger's driver, while the driver and its mimics move and every other
    joint holds still; built once per model.

    A joint turning at rate w about a unit axis through its child link's
    origin moves the tip at |w| times the tip's distance from that origin,
    which is at most the summed offset-translation norms of the links below
    the child link down to the tip.  The bound sums that length times
    |ratio| over the driver (ratio 1) and its mimics (conservative
    advancement, Mirtich 1996).
    """
    cache = model._cache
    if "speed" not in cache:
        bounds = []
        for tip, name in zip(model.fingertip_link_ids, model.finger_drivers):
            driver = model.joint_index[name]
            ratios = {driver: 1.0} | {j: r for j, (d, r) in model.mimics.items() if d == driver}
            # walk up from the tip: `below` is the chain length from link i's
            # origin down to the tip
            below, bound, i = 0.0, 0.0, tip
            while i >= 0:
                j = model.joint_of_link[i]
                if j in ratios:
                    bound += abs(ratios[j]) * below
                below += math.hypot(*model.links[i].offset.translation.tolist())
                i = model.links[i].parent
            bounds.append(bound)
        cache["speed"] = _frozen(np.array(bounds))
    return cache["speed"]


def perturb_root(pose: SE3Pose, twist: np.ndarray) -> SE3Pose:
    """Apply a body-frame twist (rotvec[3], translation[3]) to a root pose."""
    twist = np.asarray(twist, dtype=float).reshape(ROOT_DOF)
    return compose(pose, pose_from_rotvec(twist[:3], twist[3:]))


def _jacobian_tables(model: KinematicHandModel):
    """Rotation axes of the jacobian, the root's three first, each as (the link
    whose frame holds it, -1 for the root; the axis in that frame as floats;
    the fingertips it moves); the flat positions in the (3K, 6 + J) jacobian
    of the root columns' values and in the (3K, J) joint block of the joint
    columns' values, each in the order `fingertip_jacobian` computes them;
    and the (J, J) fold of mimic columns onto drivers."""
    cache = model._cache
    if "jac" not in cache:
        moved = [[] for _ in model.joints]
        for k, i in enumerate(model.fingertip_link_ids):
            while i >= 0:
                if model.joint_of_link[i] >= 0:
                    moved[model.joint_of_link[i]].append(k)
                i = model.links[i].parent
        every = tuple(range(model.fingertip_count))
        columns = [(-1, axis, every) for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))]
        columns += [(jt.child_link, tuple(jt.axis.tolist()), tuple(moved[j]))
                    for j, jt in enumerate(model.joints)]
        # each root rotation column, then the root translation column along
        # the same axis
        rows = range(3 * model.fingertip_count)
        root_at = [r * (ROOT_DOF + model.dof) + a + shift
                   for a in range(3) for shift in (0, 3) for r in rows]
        joint_at = [(3 * k + c) * model.dof + j
                    for j, tips in enumerate(moved) for k in tips for c in range(3)]
        fold = np.eye(model.dof)
        for j, (driver, ratio) in model.mimics.items():
            fold[j, j] = 0.0
            fold[j, driver] = ratio
        cache["jac"] = (tuple(columns), _frozen(np.array(root_at)),
                        _frozen(np.array(joint_at, dtype=int)), _frozen(fold))
    return cache["jac"]


def fingertip_jacobian(model: KinematicHandModel, sweep: tuple,
                       wrist_free: bool = True) -> np.ndarray:
    """Geometric jacobian of stacked fingertip positions from one FK sweep.

    Columns are ordered [root twist (6), joint angles (J)]; rows stack the
    fingertips as (x0, y0, z0, x1, ...).  A rotation column is
    axis x (tip - axis origin) in world coordinates, for the tips the axis
    moves, and +0.0 for the others; a root translation column is the wrist
    axis itself.  Mimic joints contribute zero columns because kinematics
    resolves them from their drivers.  With `wrist_free` False only the
    (3K, J) joint columns are built, the same bits as the full jacobian's
    `[:, ROOT_DOF:]`.

    `sweep` is `forward_kinematics(model, config)`, root pose included.
    The columns are assembled in Python floats, so the fold of mimic columns
    onto their drivers (`rows @ fold`) is the only step that goes through
    BLAS, and the only one whose bits can depend on the BLAS kernel.
    """
    columns, root_at, joint_at, fold = _jacobian_tables(model)
    _, qs, ts = sweep
    tips = [ts[i] for i in model.fingertip_link_ids]
    if not wrist_free:
        columns = columns[3:]
    vals = []
    for frame, (ax, ay, az), moved in columns:
        w, x, y, z = qs[frame]
        ox, oy, oz = ts[frame]
        # rotate the axis into the world: v + 2w (u x v) + 2u x (u x v)
        tx = 2.0 * (y * az - z * ay)
        ty = 2.0 * (z * ax - x * az)
        tz = 2.0 * (x * ay - y * ax)
        wx = ax + w * tx + (y * tz - z * ty)
        wy = ay + w * ty + (z * tx - x * tz)
        wz = az + w * tz + (x * ty - y * tx)
        for k in moved:
            px, py, pz = tips[k]
            dx, dy, dz = px - ox, py - oy, pz - oz
            vals += (wy * dz - wz * dy, wz * dx - wx * dz, wx * dy - wy * dx)
        if frame < 0:
            vals += (wx, wy, wz) * len(tips)
    root_n = len(vals) - len(joint_at)
    joint = np.zeros((3 * len(tips), model.dof))
    joint.flat[joint_at] = vals[root_n:]
    # Keep the fold on every hand, mimic-free ones included: its sums turn a
    # joint column's -0.0 into the +0.0 of the general products, and so keep
    # the zero signs that FK's skipped products can leave in the link
    # rotations out of the jacobian and the solver
    joint = joint @ fold
    if not wrist_free:
        return joint
    jac = np.zeros((3 * len(tips), ROOT_DOF + model.dof))
    jac.flat[root_at] = vals[:root_n]
    jac[:, ROOT_DOF:] = joint
    return jac


def clamp_to_limits(model: KinematicHandModel, joint_angles: np.ndarray) -> np.ndarray:
    """Clip every angle into its joint's limit interval (idempotent)."""
    angles = np.asarray(joint_angles, dtype=float).reshape(-1)
    _check_dof(model, angles)
    return np.clip(angles, model.lower_limits, model.upper_limits)
