"""Shared synthetic grasp constructions used by module and acceptance tests."""

import math

import numpy as np

from dextra.geometry import (
    box_mesh,
    cylinder_mesh,
    icosphere,
    pose_from_rotvec,
    surface_query,
)
from dextra.kinematics import HandConfiguration, clamp_to_limits, fingertip_positions
from dextra.retarget import FRAME_OBJECT, GraspAction, refine_retarget

# the wrap-grasp fixture: a hand reaching over the top edge of a tall box,
# fingers draped down its -y side wall so every fingertip presses a flat
# vertical face.  This leaves each finger free to extend away from the wall,
# which a tabletop palm-down grasp does not.
WRAP_BOX_EXTENTS = (0.3, 0.12, 0.3)
WRAP_FACE_Y = -0.06


def wrap_box_mesh():
    return box_mesh(WRAP_BOX_EXTENTS)


def wrap_grasp(model, mesh, rng):
    """One randomized wall-contact grasp with all five fingertips engaged.

    Joint posture and wrist pose are jittered, then the fingertips are
    drawn onto the wall by the solver with the wrist free, so every run
    starts from a slightly different but honest contact configuration.
    """
    ji = model.joint_index
    angles = np.zeros(model.dof)
    angles[ji["thumb_mcp_abd"]] = 0.9 + rng.normal(0.0, 0.02)
    angles[ji["thumb_mcp_flex"]] = 1.05 + rng.normal(0.0, 0.02)
    angles[ji["thumb_pip"]] = 1.05 + rng.normal(0.0, 0.02)
    angles[ji["thumb_dip"]] = 0.95 + rng.normal(0.0, 0.02)
    for finger in ("index", "middle", "ring", "pinky"):
        angles[ji[finger + "_mcp_flex"]] = 1.45 + rng.normal(0.0, 0.02)
        angles[ji[finger + "_pip"]] = 0.7 + rng.normal(0.0, 0.02)
        angles[ji[finger + "_dip"]] = 0.35 + rng.normal(0.0, 0.02)
    angles = clamp_to_limits(model, angles)
    root = pose_from_rotvec(
        np.array([math.pi, 0.0, 0.0]) + rng.normal(0.0, 0.02, 3),
        [rng.normal(0.0, 0.02),
         0.02 + rng.normal(0.0, 0.008),
         0.17 + rng.normal(0.0, 0.008)])
    config = HandConfiguration(root, angles)
    targets = fingertip_positions(model, config).copy()
    targets[:, 1] = WRAP_FACE_Y
    seed = GraspAction(hand_model=model.name, config=config, frame=FRAME_OBJECT,
                       residual=np.zeros(len(targets)))
    return refine_retarget(seed, targets, model, wrist_free=True)


# depth-alignment fixtures: fingertips resting on a surface patch whose
# distance changes when the whole hand slides along z, with the opposite
# parallel face kept outside the search range
def depth_fixture(name):
    """(mesh, fingertip points on its surface) for one fixture shape."""
    if name == "box":
        mesh = box_mesh((0.2, 0.16, 0.4))
        pts = np.array([[x, y, 0.2] for x, y in
                        [(-0.05, -0.04), (-0.02, 0.03), (0.0, -0.02),
                         (0.03, 0.04), (0.06, 0.0)]])
    elif name == "sphere":
        mesh = icosphere(0.08, subdivisions=2)
        dirs = np.array([[0.2, 0.1, 1.0], [-0.3, 0.2, 1.0], [0.1, -0.4, 1.0],
                         [0.4, 0.3, 0.9], [-0.2, -0.2, 1.1]])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        pts = surface_query(mesh, 0.08 * dirs).point
    elif name == "cylinder":
        mesh = cylinder_mesh(0.05, 0.5)
        pts = np.array([[x, y, 0.25] for x, y in
                        [(-0.03, 0.0), (0.0, 0.03), (0.02, -0.02),
                         (0.03, 0.02), (-0.01, -0.03)]])
    else:
        raise ValueError(name)
    return mesh, pts


DEPTH_FIXTURES = ("box", "sphere", "cylinder")
