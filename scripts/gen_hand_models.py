"""Regenerate the bundled hand model documents under src/dextra/models/.

Run from the repository root:  python3 scripts/gen_hand_models.py
"""

import json
import math
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from dextra.kinematics import load_hand_model

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "dextra" / "models"


def rot_z(angle):
    return [math.cos(0.5 * angle), 0.0, 0.0, math.sin(0.5 * angle)]


IDENT = [1.0, 0.0, 0.0, 0.0]


def link(name, parent, translation=(0.0, 0.0, 0.0), rotation=IDENT):
    return {"name": name, "parent": parent,
            "offset": {"rotation": list(rotation), "translation": list(translation)}}


def joint(name, child, axis, limits, rest=0.0):
    return {"name": name, "child_link": child, "axis": list(axis),
            "type": "revolute", "limits": list(limits), "rest": rest}


X, Z = (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)
# a finger chain's joints in knuckle-to-tip order, as the human skeleton and
# the leap and shadow hands name them
HUMAN_JOINTS = ("mcp_abd", "mcp_flex", "pip", "dip")
ROBOT_JOINTS = ("abd", "mcp", "pip", "dip")


def finger_chain(links, finger, spec, parent, joint_names):
    """Append one finger's five links below link `parent`; return its four joints.

    The links are knuckle, proximal, middle, distal and tip.  The joints
    abduct about z at the knuckle and flex about x at the next three, with
    the (limits, rest) of `spec`'s abd, mcp, pip and dip.
    """
    l1, l2, l3 = spec["lengths"]
    base = len(links)
    links += [
        link(f"{finger}_knuckle", parent, spec["base"], spec["rot"]),
        link(f"{finger}_prox", base),
        link(f"{finger}_mid", base + 1, (0.0, l1, 0.0)),
        link(f"{finger}_dist", base + 2, (0.0, l2, 0.0)),
        link(f"{finger}_tip", base + 3, (0.0, l3, 0.0)),
    ]
    return [joint(f"{finger}_{name}", f"{finger}_{child}", axis, *spec[key])
            for name, child, axis, key in zip(joint_names, ("knuckle", "prox", "mid", "dist"),
                                              (Z, X, X, X), ("abd", "mcp", "pip", "dip"))]


def human_joint_map(fingers):
    return [[f"{f}_{h}", f"{f}_{r}"] for f in fingers
            for h, r in zip(HUMAN_JOINTS, ROBOT_JOINTS)]


def human_20dof():
    # palm frame: +y distal, +x thumb side (right hand), +z palm normal
    fingers = {
        "thumb": dict(base=(0.035, 0.030, 0.0), rot=rot_z(-1.0),
                      lengths=(0.034, 0.029, 0.026),
                      abd=((-0.3, 1.3), 0.3), mcp=((-0.3, 1.1), 0.2),
                      pip=((-0.2, 1.2), 0.15), dip=((-0.2, 1.1), 0.1)),
        "index": dict(base=(0.025, 0.080, 0.0), rot=IDENT,
                      lengths=(0.035, 0.023, 0.022),
                      abd=((-0.45, 0.45), 0.0), mcp=((-0.3, 1.7), 0.15),
                      pip=((-0.15, 1.9), 0.2), dip=((-0.15, 1.5), 0.1)),
        "middle": dict(base=(0.008, 0.084, 0.0), rot=IDENT,
                       lengths=(0.042, 0.026, 0.025),
                       abd=((-0.45, 0.45), 0.0), mcp=((-0.3, 1.7), 0.15),
                       pip=((-0.15, 1.9), 0.2), dip=((-0.15, 1.5), 0.1)),
        "ring": dict(base=(-0.009, 0.080, 0.0), rot=IDENT,
                     lengths=(0.040, 0.024, 0.023),
                     abd=((-0.45, 0.45), 0.0), mcp=((-0.3, 1.7), 0.15),
                     pip=((-0.15, 1.9), 0.2), dip=((-0.15, 1.5), 0.1)),
        "pinky": dict(base=(-0.026, 0.072, 0.0), rot=IDENT,
                      lengths=(0.028, 0.020, 0.020),
                      abd=((-0.45, 0.45), 0.0), mcp=((-0.3, 1.7), 0.15),
                      pip=((-0.15, 1.9), 0.2), dip=((-0.15, 1.5), 0.1)),
    }
    links = [link("palm", -1)]
    joints = []
    for f, p in fingers.items():
        joints += finger_chain(links, f, p, 0, HUMAN_JOINTS)
    return {
        "name": "human-20dof",
        "links": links,
        "joints": joints,
        "fingertip_links": [f"{f}_tip" for f in fingers],
        "mimics": [],
        "human_joint_map": [],
        "approach_axis": [0.0, 0.0, 1.0],
        "finger_drivers": [f"{f}_mcp_flex" for f in fingers],
    }


def inspire_like_6dof():
    # two thumb drivers plus one driver per finger; distal segments are
    # linkage-coupled and modeled as mimics
    links = [
        link("palm", -1),
        link("thumb_base", 0, (0.030, 0.020, 0.0), rot_z(-1.0)),
        link("thumb_prox", 1, (0.0, 0.045, 0.0)),
        link("thumb_inter", 2, (0.0, 0.035, 0.0)),
        link("thumb_distal", 3, (0.0, 0.030, 0.0)),
        link("thumb_tip", 4, (0.0, 0.028, 0.0)),
    ]
    joints = [
        joint("thumb_yaw", "thumb_base", Z, (-0.1, 1.3), rest=0.1),
        joint("thumb_bend", "thumb_prox", X, (-0.1, 0.6), rest=0.0),
        joint("thumb_inter_bend", "thumb_inter", X, (-0.133, 0.798), rest=0.0),
        joint("thumb_distal_bend", "thumb_distal", X, (-0.066, 0.396), rest=0.0),
    ]
    fingers = {
        "index": dict(base=(0.026, 0.095, 0.0), l1=0.035, tip=0.045),
        "middle": dict(base=(0.009, 0.100, 0.0), l1=0.042, tip=0.050),
        "ring": dict(base=(-0.009, 0.095, 0.0), l1=0.040, tip=0.046),
        "pinky": dict(base=(-0.026, 0.085, 0.0), l1=0.028, tip=0.042),
    }
    for f, p in fingers.items():
        base = len(links)
        links += [
            link(f"{f}_prox", 0, p["base"]),
            link(f"{f}_inter", base, (0.0, p["l1"], 0.0)),
            link(f"{f}_tip", base + 1, (0.0, p["tip"], 0.0)),
        ]
        joints += [
            joint(f"{f}_bend", f"{f}_prox", X, (-0.05, 1.6), rest=0.1),
            joint(f"{f}_inter_bend", f"{f}_inter", X, (-0.055, 1.76), rest=0.11),
        ]
    return {
        "name": "inspire-like-6dof",
        "links": links,
        "joints": joints,
        "fingertip_links": ["thumb_tip"] + [f"{f}_tip" for f in fingers],
        "mimics": [
            {"joint": "thumb_inter_bend", "driver": "thumb_bend", "ratio": 1.33},
            {"joint": "thumb_distal_bend", "driver": "thumb_bend", "ratio": 0.66},
        ] + [{"joint": f"{f}_inter_bend", "driver": f"{f}_bend", "ratio": 1.1}
             for f in fingers],
        "human_joint_map": [
            ["thumb_mcp_abd", "thumb_yaw"],
            ["thumb_mcp_flex", "thumb_bend"],
            ["index_mcp_flex", "index_bend"],
            ["middle_mcp_flex", "middle_bend"],
            ["ring_mcp_flex", "ring_bend"],
            ["pinky_mcp_flex", "pinky_bend"],
        ],
        "approach_axis": [0.0, 0.0, 1.0],
        "finger_drivers": ["thumb_bend", "index_bend", "middle_bend",
                           "ring_bend", "pinky_bend"],
        "human_fingertip_indices": [0, 1, 2, 3, 4],
    }


def leap_like_16dof():
    fingers = {
        "thumb": dict(base=(0.032, 0.024, 0.0), rot=rot_z(-1.0),
                      lengths=(0.046, 0.034, 0.030),
                      abd=((-0.35, 1.4), 0.25), mcp=((-0.3, 1.3), 0.1)),
        "index": dict(base=(0.026, 0.090, 0.0), rot=IDENT,
                      lengths=(0.050, 0.034, 0.028),
                      abd=((-0.47, 0.47), 0.0), mcp=((-0.3, 1.9), 0.15)),
        "middle": dict(base=(0.0, 0.094, 0.0), rot=IDENT,
                       lengths=(0.050, 0.034, 0.028),
                       abd=((-0.47, 0.47), 0.0), mcp=((-0.3, 1.9), 0.15)),
        "ring": dict(base=(-0.026, 0.090, 0.0), rot=IDENT,
                     lengths=(0.050, 0.034, 0.028),
                     abd=((-0.47, 0.47), 0.0), mcp=((-0.3, 1.9), 0.15)),
    }
    links = [link("palm", -1)]
    joints = []
    for f, p in fingers.items():
        # every leap finger's pip and dip joints share their limits and rest
        spec = {**p, "pip": ((-0.2, 1.9), 0.2), "dip": ((-0.2, 1.6), 0.1)}
        joints += finger_chain(links, f, spec, 0, ROBOT_JOINTS)
    return {
        "name": "leap-like-16dof",
        "links": links,
        "joints": joints,
        "fingertip_links": [f"{f}_tip" for f in fingers],
        "mimics": [],
        "human_joint_map": human_joint_map(fingers),
        "approach_axis": [0.0, 0.0, 1.0],
        "finger_drivers": [f"{f}_mcp" for f in fingers],
        "human_fingertip_indices": [0, 1, 2, 3],
    }


def shadow_like_22dof():
    links = [
        link("forearm", -1),
        link("wrist_link", 0, (0.0, 0.034, 0.0)),
        link("palm", 1, (0.0, 0.034, 0.0)),
    ]
    joints = [
        joint("wrist_bend", "wrist_link", X, (-0.49, 0.49), rest=0.0),
        joint("wrist_tilt", "palm", Z, (-0.7, 0.5), rest=0.0),
    ]
    fingers = {
        "thumb": dict(base=(0.033, 0.020, 0.0), rot=rot_z(-1.0),
                      lengths=(0.038, 0.032, 0.027),
                      abd=((-0.3, 1.2), 0.25), mcp=((-0.3, 1.0), 0.1),
                      pip=((-0.21, 1.0), 0.1), dip=((-0.26, 0.9), 0.05)),
        "index": dict(base=(0.024, 0.086, 0.0), rot=IDENT,
                      lengths=(0.045, 0.025, 0.026),
                      abd=((-0.35, 0.35), 0.0), mcp=((-0.26, 1.57), 0.1),
                      pip=((-0.1, 1.9), 0.2), dip=((-0.1, 1.57), 0.1)),
        "middle": dict(base=(0.008, 0.090, 0.0), rot=IDENT,
                       lengths=(0.045, 0.025, 0.026),
                       abd=((-0.35, 0.35), 0.0), mcp=((-0.26, 1.57), 0.1),
                       pip=((-0.1, 1.9), 0.2), dip=((-0.1, 1.57), 0.1)),
        "ring": dict(base=(-0.008, 0.086, 0.0), rot=IDENT,
                     lengths=(0.045, 0.025, 0.026),
                     abd=((-0.35, 0.35), 0.0), mcp=((-0.26, 1.57), 0.1),
                     pip=((-0.1, 1.9), 0.2), dip=((-0.1, 1.57), 0.1)),
        "pinky": dict(base=(-0.024, 0.078, 0.0), rot=IDENT,
                      lengths=(0.038, 0.022, 0.024),
                      abd=((-0.35, 0.35), 0.0), mcp=((-0.26, 1.57), 0.1),
                      pip=((-0.1, 1.9), 0.2), dip=((-0.1, 1.57), 0.1)),
    }
    for f, p in fingers.items():
        joints += finger_chain(links, f, p, 2, ROBOT_JOINTS)
    return {
        "name": "shadow-like-22dof",
        "links": links,
        "joints": joints,
        "fingertip_links": [f"{f}_tip" for f in fingers],
        "mimics": [],
        "human_joint_map": human_joint_map(fingers),
        "approach_axis": [0.0, 0.0, 1.0],
        "finger_drivers": [f"{f}_mcp" for f in fingers],
        "human_fingertip_indices": [0, 1, 2, 3, 4],
    }


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    for builder in (human_20dof, inspire_like_6dof, leap_like_16dof, shadow_like_22dof):
        doc = builder()
        load_hand_model(doc)   # reject a malformed document before writing it
        path = OUT / f"{doc['name']}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}  links={len(doc['links'])} joints={len(doc['joints'])} "
              f"tips={len(doc['fingertip_links'])}")


if __name__ == "__main__":
    main()
