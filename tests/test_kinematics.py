import json
import re

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import oracles
from conftest import MODELS_DIR
from cases import bitwise_configurations, hand_documents, pose_to_matrix, rest_configuration
from dextra import geometry, kinematics
from dextra.errors import FixtureMissing, SchemaError
from dextra.geometry import (
    SE3Pose,
    compose,
    identity_pose,
    pose_from_rotvec,
    transform_points,
)
from dextra.kinematics import (
    ROOT_DOF,
    HandConfiguration,
    bundled_model,
    clamp_to_limits,
    fingertip_jacobian,
    fingertip_positions,
    fingertip_rows,
    forward_kinematics,
    load_hand_model,
    load_hand_model_file,
    perturb_root,
    tip_speed_bounds,
)

BUNDLED = ("human-20dof", "inspire-like-6dof", "leap-like-16dof", "shadow-like-22dof")

_IDENTITY_OFFSET = {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, 0.0]}


def _offset(t):
    return {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": list(t)}


def tiny_doc():
    """Smallest valid document: a palm with two one-joint fingers."""
    return {
        "name": "tiny",
        "links": [
            {"name": "palm", "parent": -1, "offset": _IDENTITY_OFFSET},
            {"name": "f1_prox", "parent": 0, "offset": _offset((0.02, 0.0, 0.0))},
            {"name": "f1_tip", "parent": 1, "offset": _offset((0.0, 0.03, 0.0))},
            {"name": "f2_prox", "parent": 0, "offset": _offset((-0.02, 0.0, 0.0))},
            {"name": "f2_tip", "parent": 3, "offset": _offset((0.0, 0.03, 0.0))},
        ],
        "joints": [
            {"name": "f1_bend", "child_link": "f1_prox", "axis": [1.0, 0.0, 0.0],
             "type": "revolute", "limits": [-0.5, 1.5], "rest": 0.0},
            {"name": "f2_bend", "child_link": "f2_prox", "axis": [1.0, 0.0, 0.0],
             "type": "revolute", "limits": [-0.5, 1.5], "rest": 0.0},
        ],
        "mimics": [],
        "fingertip_links": ["f1_tip", "f2_tip"],
        "human_joint_map": [["index_mcp_flex", "f1_bend"],
                            ["middle_mcp_flex", "f2_bend"]],
        "approach_axis": [0.0, 0.0, 1.0],
        "finger_drivers": ["f1_bend", "f2_bend"],
        "human_fingertip_indices": [1, 2],
    }


def oblique_doc():
    """Two fingers on a turned wrist joint, one with a mimic: no axis lies
    along a frame axis, so no term of the jacobian's arithmetic vanishes."""
    def link(name, parent, t, q=(1.0, 0.0, 0.0, 0.0)):
        return {"name": name, "parent": parent,
                "offset": {"rotation": list(q), "translation": list(t)}}

    def joint(name, child, axis):
        return {"name": name, "child_link": child, "axis": list(axis),
                "type": "revolute", "limits": [-1.0, 1.5], "rest": 0.1}

    return {
        "name": "oblique",
        "links": [
            link("palm", -1, (0.0, 0.0, 0.0)),
            link("wrist", 0, (0.01, -0.02, 0.03), (0.9, 0.1, -0.3, 0.2)),
            link("f1_prox", 1, (0.02, 0.01, 0.0), (0.7, -0.2, 0.1, 0.4)),
            link("f1_tip", 2, (0.003, 0.031, -0.002)),
            link("f2_prox", 1, (-0.02, 0.005, 0.01)),
            link("f2_mid", 4, (0.001, 0.027, 0.004)),
            link("f2_tip", 5, (-0.002, 0.022, 0.003)),
        ],
        "joints": [
            joint("wrist_tilt", "wrist", (0.3, -0.5, 0.8)),
            joint("f1_bend", "f1_prox", (1.0, 2.0, 3.0)),
            joint("f2_bend", "f2_prox", (-2.0, 1.0, 0.5)),
            joint("f2_curl", "f2_mid", (0.4, 0.4, -1.0)),
        ],
        "mimics": [{"joint": "f2_curl", "driver": "f2_bend", "ratio": 0.7}],
        "fingertip_links": ["f1_tip", "f2_tip"],
        "finger_drivers": ["f1_bend", "f2_bend"],
    }


# ---------------------------------------------------------------------------
# forward kinematics against the matrix-chain oracle
# ---------------------------------------------------------------------------

def bundled_doc(name):
    with open(MODELS_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", BUNDLED)
def test_fk_matches_matrix_chain(name):
    model = bundled_model(name)
    doc = bundled_doc(name)
    rng = np.random.default_rng(17)
    for _ in range(10):
        angles = rng.uniform(model.lower_limits, model.upper_limits)
        root = pose_from_rotvec(rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.1, 3))
        tips = fingertip_positions(model, HandConfiguration(root, angles))
        expected = oracles.chain_fingertips(doc, pose_to_matrix(root), angles)
        assert np.allclose(tips, expected, atol=1e-9)


def test_rest_configuration(robot_model):
    cfg = rest_configuration(robot_model)
    assert np.allclose(cfg.root_pose.rotation, identity_pose().rotation)
    assert np.allclose(cfg.root_pose.translation, 0.0)
    assert np.array_equal(cfg.joint_angles,
                          [j.rest for j in robot_model.joints])


def test_effective_angles_resolve_mimics(robot_model):
    angles = np.zeros(robot_model.dof)
    i_driver = robot_model.joint_index["index_bend"]
    i_mimic = robot_model.joint_index["index_inter_bend"]
    angles[i_driver] = 0.4
    angles[i_mimic] = 9.9  # ignored: the driver owns this joint
    eff = kinematics._effective(robot_model, angles)
    assert np.isclose(eff[i_mimic], 1.1 * 0.4)
    assert np.isclose(eff[i_driver], 0.4)


def test_fk_does_not_clamp(robot_model, robot_doc):
    # out-of-limit angles are evaluated as given; clamping is the caller's job
    angles = robot_model.upper_limits + 0.7
    root = identity_pose()
    tips = fingertip_positions(robot_model, HandConfiguration(root, angles))
    expected = oracles.chain_fingertips(robot_doc, np.eye(4), angles)
    assert np.allclose(tips, expected, atol=1e-9)
    clamped = fingertip_positions(
        robot_model, HandConfiguration(root, clamp_to_limits(robot_model, angles)))
    assert not np.allclose(tips, clamped, atol=1e-6)


def test_root_equivariance(robot_model):
    rng = np.random.default_rng(2)
    angles = rng.uniform(robot_model.lower_limits, robot_model.upper_limits)
    base = pose_from_rotvec((0.1, 0.2, -0.3), (0.05, 0.0, 0.02))
    move = pose_from_rotvec((-0.4, 0.9, 0.1), (0.2, -0.1, 0.3))
    tips = fingertip_positions(robot_model, HandConfiguration(base, angles))
    moved = fingertip_positions(
        robot_model, HandConfiguration(compose(move, base), angles))
    assert np.allclose(moved, transform_points(move, tips), atol=1e-12)


def test_perturb_root_zero_twist():
    pose = pose_from_rotvec((0.3, 0.1, 0.2), (1.0, 2.0, 3.0))
    out = perturb_root(pose, np.zeros(6))
    assert np.allclose(out.rotation, pose.rotation, atol=1e-15)
    assert np.allclose(out.translation, pose.translation, atol=1e-15)


def test_perturb_root_body_frame_translation():
    # the twist lives in the wrist frame, so translation is rotated
    pose = pose_from_rotvec((0.0, 0.0, np.pi / 2), (0.0, 0.0, 0.0))
    out = perturb_root(pose, np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(out.translation, [0.0, 1.0, 0.0], atol=1e-12)


# ---------------------------------------------------------------------------
# jacobian
# ---------------------------------------------------------------------------

def test_jacobian_directional_derivative(robot_model):
    rng = np.random.default_rng(21)
    angles = clamp_to_limits(
        robot_model,
        rng.uniform(robot_model.lower_limits + 0.1, robot_model.upper_limits - 0.1))
    root = pose_from_rotvec((0.1, -0.2, 0.3), (0.02, 0.0, -0.01))
    cfg = HandConfiguration(root, angles)
    jac = fingertip_jacobian(robot_model, cfg, forward_kinematics(robot_model, cfg))
    assert jac.shape == (3 * robot_model.fingertip_count, 6 + robot_model.dof)

    h = 1e-5
    for _ in range(3):
        delta = rng.normal(0.0, 1.0, 6 + robot_model.dof)
        delta /= np.linalg.norm(delta)

        def at(s):
            r = perturb_root(root, s * delta[:6])
            a = angles + s * delta[6:]
            return fingertip_positions(robot_model, HandConfiguration(r, a)).ravel()

        fd = (at(h) - at(-h)) / (2.0 * h)
        assert np.allclose(jac @ delta, fd, atol=1e-6)


@pytest.mark.parametrize("name", BUNDLED)
def test_jacobian_matches_central_difference_oracle(name):
    model = bundled_model(name)
    doc = bundled_doc(name)
    rng = np.random.default_rng(23)
    for _ in range(10):
        angles = rng.uniform(model.lower_limits, model.upper_limits)
        root = pose_from_rotvec(rng.normal(0.0, 0.5, 3), rng.normal(0.0, 0.1, 3))
        cfg = HandConfiguration(root, angles)
        jac = fingertip_jacobian(model, cfg, forward_kinematics(model, cfg))
        expected = oracles.chain_jacobian(doc, pose_to_matrix(root), angles)
        assert np.abs(jac - expected).max() <= 1e-8


def test_jacobian_is_one_fk_sweep(monkeypatch):
    # the jacobian reads the sweep it is handed and sweeps nothing itself
    model = bundled_model("shadow-like-22dof")
    cfg = rest_configuration(model)
    sweep = forward_kinematics(model, cfg)
    sweeps = []
    raw_fk = kinematics._raw_fk

    def counted(*args):
        sweeps.append(1)
        return raw_fk(*args)

    monkeypatch.setattr(kinematics, "_raw_fk", counted)
    fingertip_jacobian(model, cfg, sweep)
    fingertip_jacobian(model, cfg, sweep)
    assert sweeps == []


def _same_bits(got, want) -> bool:
    # tobytes, not np.array_equal: the sign of every exact zero counts
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_fk_matches_the_oracle(doc, model, cfg) -> tuple:
    """The sweep of `cfg`, after checking that it equals `oracles.sweep_fk`
    bit for bit: the fingertips and every link's quaternion and translation."""
    sweep = forward_kinematics(model, cfg)
    want = oracles.sweep_fk(doc, cfg.root_pose.rotation, cfg.root_pose.translation,
                            cfg.joint_angles)
    for got, expected in zip(sweep, want):
        assert _same_bits(got, expected)
    return sweep


def assert_jacobians_match_the_oracle(doc, model, cfg, sweep):
    """The full jacobian equals `oracles.sweep_jacobian` bit for bit, and the
    joint-only one the full one's joint columns."""
    full = fingertip_jacobian(model, cfg, sweep)
    assert _same_bits(full, oracles.sweep_jacobian(
        doc, cfg.root_pose.rotation, cfg.root_pose.translation, sweep[1], sweep[2]))
    assert _same_bits(fingertip_jacobian(model, cfg, sweep, wrist_free=False), full[:, ROOT_DOF:])


def assert_rows_and_tip_speeds(model, configs):
    """`fingertip_rows` gives every row the fingertips of its own FK sweep,
    bit for bit, and no central difference of a fingertip along its
    finger's driver, with the driver's mimics following, is faster than
    `tip_speed_bounds`."""
    root = configs[-1].root_pose
    rows = np.array([cfg.joint_angles for cfg in configs])
    tips = fingertip_rows(model, root, rows)
    assert tips.shape == (len(rows), model.fingertip_count, 3)
    for got, angles in zip(tips, rows):
        assert _same_bits(got, forward_kinematics(model, HandConfiguration(root, angles))[0])
    bounds = tip_speed_bounds(model)
    assert bounds.shape == (len(model.finger_drivers),)
    h = 1e-4
    for k, name in enumerate(model.finger_drivers):
        step = np.zeros(model.dof)
        step[model.joint_index[name]] = h
        moved = fingertip_rows(model, root, rows + step) - fingertip_rows(model, root, rows - step)
        speed = np.linalg.norm(moved[:, k], axis=1) / (2.0 * h)
        assert (speed <= bounds[k] + 1e-9).all(), (name, speed.max(), bounds[k])


@pytest.mark.parametrize("name", BUNDLED)
def test_fingertip_rows_and_tip_speed_bounds(name):
    model = bundled_model(name)
    assert_rows_and_tip_speeds(model, bitwise_configurations(model, np.random.default_rng(37), 40))
    assert fingertip_rows(model, identity_pose(), np.zeros((0, model.dof))).shape == (
        0, model.fingertip_count, 3)


# The bundled hands' axes all lie along e_x or e_z, and all their links but
# the thumb base have an identity offset rotation, which FK skips the zero
# products of; the oblique hand has neither, so a change in the order of
# operations shows in its bits
@pytest.mark.parametrize("name", (*BUNDLED, "oblique"))
def test_fk_matches_the_per_link_oracle_bit_for_bit(name):
    doc = oblique_doc() if name == "oblique" else bundled_doc(name)
    model = load_hand_model(doc)
    for cfg in bitwise_configurations(model, np.random.default_rng(31), 40):
        assert_fk_matches_the_oracle(doc, model, cfg)


@pytest.mark.parametrize("name", (*BUNDLED, "oblique"))
def test_jacobian_matches_numpy_assembly_bit_for_bit(name):
    doc = oblique_doc() if name == "oblique" else bundled_doc(name)
    model = load_hand_model(doc)
    for cfg in bitwise_configurations(model, np.random.default_rng(31), 40):
        assert_jacobians_match_the_oracle(doc, model, cfg, forward_kinematics(model, cfg))


@pytest.mark.parametrize("name", BUNDLED)
def test_fk_zero_signs_move_only_inside_link_rotations(name):
    # Exact-zero root rotation components with angles past +-pi, or -0.0
    # inputs, make link rotation components exact zeros, and a dropped
    # exact-zero product can flip the sign of such a zero.  The rotations
    # keep their values; the fingertips, the link translations and the
    # jacobian keep the bits of the general products
    doc = bundled_doc(name)
    model = load_hand_model(doc)
    rng = np.random.default_rng(37)
    angles = np.array([0.0, -0.0, 0.5, 3.0, -3.0, 4.0, -5.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi])
    roots = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [-1.0, 0.0, 0.0, 0.0], [1.0, -0.0, 0.0, 0.0],
                      [-0.0, 1.0, -0.0, 0.0], [0.6, 0.0, 0.8, 0.0]])
    for _ in range(200):
        cfg = HandConfiguration(SE3Pose(roots[rng.integers(len(roots))], np.zeros(3)),
                                angles[rng.integers(len(angles), size=model.dof)])
        sweep = forward_kinematics(model, cfg)
        tips, quats, trans = oracles.sweep_fk(doc, cfg.root_pose.rotation,
                                              cfg.root_pose.translation, cfg.joint_angles)
        assert _same_bits(sweep[0], tips) and _same_bits(sweep[2], trans)
        assert np.array_equal(sweep[1], quats)
        assert _same_bits(fingertip_jacobian(model, cfg, sweep), oracles.sweep_jacobian(
            doc, cfg.root_pose.rotation, cfg.root_pose.translation, quats, trans))


def test_fk_tables_mark_identity_offsets_and_frame_axes():
    # every bundled joint turns about e_x or e_z, and every link but the
    # thumb base has an identity offset rotation, so FK skips their zero
    # products; the oblique hand has neither
    for name in BUNDLED:
        model = bundled_model(name)
        rows = kinematics._fk_tables(model)
        turned = [model.links[row[0]].name for row in rows if row[2] is not None]
        assert len(turned) == 1 and turned[0].startswith("thumb_"), turned
        assert all(kind in (0, 2) for _, _, _, _, j, kind, _ in rows if j >= 0)
    rows = kinematics._fk_tables(load_hand_model(oblique_doc()))
    assert all(kind == 3 for _, _, _, _, j, kind, _ in rows if j >= 0)
    assert sum(row[2] is None for row in rows) == 5


# what the loader names when a generated document's mimics are invalid
_MIMIC_FINDINGS = re.compile(r"hand model: (mimic '.*' cannot drive itself|joint '.*' mimicked twice"
                             r"|mimic chain: driver '.*' is itself a mimic"
                             r"|finger driver '.*' of '.*' also moves fingertip '.*')$")


@seed(3001)
@settings(max_examples=120)
@given(doc=hand_documents(), config_seed=st.integers(0, 2**32 - 1))
def test_generated_hands_load_and_match_the_oracles_bit_for_bit(doc, config_seed):
    try:
        model = load_hand_model(doc)
    except SchemaError as err:
        # only the mimics can make a generated document invalid
        assert doc["mimics"] and err.violations
        assert all(_MIMIC_FINDINGS.match(v) for v in err.violations), err.violations
        return
    configs = bitwise_configurations(model, np.random.default_rng(config_seed), 3)
    for cfg in configs:
        assert_jacobians_match_the_oracle(doc, model, cfg, assert_fk_matches_the_oracle(doc, model, cfg))
        chain = oracles.chain_fingertips(doc, pose_to_matrix(cfg.root_pose), cfg.joint_angles)
        assert np.allclose(fingertip_positions(model, cfg), chain, rtol=0.0, atol=1e-12)
    assert_rows_and_tip_speeds(model, configs)
    # the closed-form columns against central differences of the chain, at
    # the last (random) configuration
    jac = fingertip_jacobian(model, cfg, forward_kinematics(model, cfg))
    expected = oracles.chain_jacobian(doc, pose_to_matrix(cfg.root_pose), cfg.joint_angles)
    assert np.abs(jac - expected).max() <= 1e-8
    # a finger driver, with its mimics, moves its own fingertip alone: the
    # loader refuses a hand where it does not
    tips = fingertip_positions(model, cfg)
    for k, driver in enumerate(model.finger_drivers):
        angles = cfg.joint_angles.copy()
        angles[model.joint_index[driver]] += 0.1
        moved = fingertip_positions(model, HandConfiguration(cfg.root_pose, angles))
        others = np.arange(model.fingertip_count) != k
        assert _same_bits(moved[others], tips[others]), driver


def test_private_cross_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(29)
    a, b = rng.normal(size=(2, 40, 3)) * rng.uniform(1e-3, 1e3, (2, 40, 1))
    # signed zeros too: np.array_equal would not tell -0.0 from 0.0
    a[:4] = [[0.0, -0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]]
    b[:4] = [[-0.0, 0.0, 2.0], [1.0, -1.0, 0.0], [0.0, -0.0, 1.0], [0.0, 0.0, -1.0]]
    axes, tips = rng.normal(size=(28, 3)), rng.normal(size=(5, 28, 3))
    origins, points = rng.normal(size=(28, 3)), rng.normal(size=(5, 1, 3))
    pairs = [
        (a, b),
        # (3,) with (3,), as the pose helpers rotate one translation
        *((a[i], b[i]) for i in range(6)),
        # (1, 3) or (3,) against (n, 3), as `transform_points` rotates a batch
        (a[:1], b), (b, a[:1]), (a[0], b),
        # higher-rank broadcasts, (A, 3) against (K, A, 3) and (A, 3) against
        # (K, 1, 3): the shapes of the whole-array jacobian in
        # `oracles.sweep_jacobian`, which the package no longer assembles
        (axes, tips), (tips, axes), (origins, points - origins),
    ]
    for x, y in pairs:
        # the helper takes its vectors along the first axis, as the surface
        # query stores them: (3,), (3, n), (3, K, A)
        got = geometry._cross(np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0))
        want = np.moveaxis(np.cross(x, y), -1, 0)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_jacobian_mimic_columns_zero(robot_model):
    cfg = rest_configuration(robot_model)
    jac = fingertip_jacobian(robot_model, cfg, forward_kinematics(robot_model, cfg))
    for mimic_idx in robot_model.mimics:
        assert np.array_equal(jac[:, 6 + mimic_idx], np.zeros(jac.shape[0]))


# ---------------------------------------------------------------------------
# limits
# ---------------------------------------------------------------------------

@given(scale=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
def test_clamp_is_idempotent(scale):
    model = bundled_model("inspire-like-6dof")
    angles = model.upper_limits * scale - 0.3
    once = clamp_to_limits(model, angles)
    assert np.array_equal(clamp_to_limits(model, once), once)
    assert np.all(once >= model.lower_limits) and np.all(once <= model.upper_limits)


def test_clamp_keeps_in_limit_angles(robot_model):
    mid = 0.5 * (robot_model.lower_limits + robot_model.upper_limits)
    assert np.array_equal(clamp_to_limits(robot_model, mid), mid)


# ---------------------------------------------------------------------------
# document validation
# ---------------------------------------------------------------------------

def test_tiny_doc_loads():
    model = load_hand_model(tiny_doc())
    assert model.dof == 2
    assert model.fingertip_count == 2
    tips = fingertip_positions(model, rest_configuration(model))
    assert np.allclose(tips, [[0.02, 0.03, 0.0], [-0.02, 0.03, 0.0]], atol=1e-12)


def test_missing_required_key():
    doc = tiny_doc()
    del doc["fingertip_links"]
    with pytest.raises(SchemaError, match="fingertip_links"):
        load_hand_model(doc)


def _mutated(**changes):
    doc = tiny_doc()
    doc.update(changes)
    return doc


def test_duplicate_link_names():
    doc = tiny_doc()
    doc["links"][3]["name"] = "f1_prox"
    with pytest.raises(SchemaError, match="duplicate link names"):
        load_hand_model(doc)


def test_bad_parent_index():
    doc = tiny_doc()
    doc["links"][1]["parent"] = 99
    with pytest.raises(SchemaError, match="bad parent index"):
        load_hand_model(doc)


def test_own_parent_cycle():
    doc = tiny_doc()
    doc["links"][1]["parent"] = 1
    with pytest.raises(SchemaError, match="unreachable") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_two_roots():
    doc = tiny_doc()
    doc["links"][1]["parent"] = -1
    with pytest.raises(SchemaError, match="exactly one root") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_unreachable_link_cycle():
    doc = tiny_doc()
    # f1_prox and f1_tip point at each other; the tip also stops being a
    # leaf, and one SchemaError names both
    doc["links"][1]["parent"] = 2
    with pytest.raises(SchemaError, match="unreachable") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_duplicate_joint_names():
    doc = tiny_doc()
    doc["joints"][1]["name"] = "f1_bend"
    with pytest.raises(SchemaError, match="duplicate joint names"):
        load_hand_model(doc)


def test_non_revolute_joint():
    doc = tiny_doc()
    doc["joints"][0]["type"] = "prismatic"
    with pytest.raises(SchemaError, match=r"joints\[0\]\.type must be 'revolute'"):
        load_hand_model(doc)


def test_unknown_child_link():
    doc = tiny_doc()
    doc["joints"][0]["child_link"] = "nowhere"
    with pytest.raises(SchemaError, match="unknown child link"):
        load_hand_model(doc)


def test_joint_on_root_link():
    doc = tiny_doc()
    doc["joints"][0]["child_link"] = "palm"
    with pytest.raises(SchemaError, match="cannot actuate the root"):
        load_hand_model(doc)


def test_two_joints_on_one_link():
    doc = tiny_doc()
    doc["joints"][1]["child_link"] = "f1_prox"
    with pytest.raises(SchemaError, match="more than one joint"):
        load_hand_model(doc)


def test_zero_axis():
    doc = tiny_doc()
    doc["joints"][0]["axis"] = [0.0, 0.0, 0.0]
    with pytest.raises(SchemaError, match="nonzero 3-vector"):
        load_hand_model(doc)


def test_inverted_limits():
    doc = tiny_doc()
    doc["joints"][0]["limits"] = [1.0, -1.0]
    with pytest.raises(SchemaError, match="inverted") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_rest_outside_limits():
    doc = tiny_doc()
    doc["joints"][0]["rest"] = 7.0
    with pytest.raises(SchemaError, match="rest") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_mimic_unknown_joint():
    doc = _mutated(mimics=[{"joint": "ghost", "driver": "f1_bend", "ratio": 1.0}])
    with pytest.raises(SchemaError, match="unknown joint"):
        load_hand_model(doc)


def test_mimic_of_itself():
    doc = _mutated(mimics=[{"joint": "f1_bend", "driver": "f1_bend", "ratio": 1.0}])
    with pytest.raises(SchemaError, match="cannot drive itself"):
        load_hand_model(doc)


def test_mimic_twice():
    doc = _mutated(mimics=[
        {"joint": "f1_bend", "driver": "f2_bend", "ratio": 1.0},
        {"joint": "f1_bend", "driver": "f2_bend", "ratio": 2.0},
    ])
    with pytest.raises(SchemaError, match="mimicked twice"):
        load_hand_model(doc)


def test_mimic_chain_rejected():
    # three joints so a mimic can drive a mimic
    doc = tiny_doc()
    doc["links"].append({"name": "f2_mid", "parent": 4,
                         "offset": _offset((0.0, 0.01, 0.0))})
    doc["links"].append({"name": "f2_end", "parent": 5,
                         "offset": _offset((0.0, 0.01, 0.0))})
    doc["joints"].append({"name": "f2_curl", "child_link": "f2_mid",
                          "axis": [1.0, 0.0, 0.0], "type": "revolute",
                          "limits": [-1.0, 1.0], "rest": 0.0})
    doc["fingertip_links"] = ["f1_tip", "f2_end"]
    doc["mimics"] = [
        {"joint": "f2_curl", "driver": "f2_bend", "ratio": 1.0},
        {"joint": "f2_bend", "driver": "f1_bend", "ratio": 1.0},
    ]
    with pytest.raises(SchemaError, match="itself a mimic"):
        load_hand_model(doc)


def test_fingertip_count_bounds():
    doc = _mutated(fingertip_links=["f1_tip"], finger_drivers=["f1_bend"],
                   human_fingertip_indices=[1])
    with pytest.raises(SchemaError, match="outside 2..5"):
        load_hand_model(doc)


def test_unknown_fingertip_link():
    doc = _mutated(fingertip_links=["f1_tip", "ghost_tip"])
    with pytest.raises(SchemaError, match="does not exist") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_fingertip_must_be_leaf():
    doc = _mutated(fingertip_links=["f1_prox", "f2_tip"])
    with pytest.raises(SchemaError, match="not a leaf") as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError


def test_human_map_unknown_model_joint():
    doc = _mutated(human_joint_map=[["index_mcp_flex", "ghost"]])
    with pytest.raises(SchemaError, match="unknown model joint"):
        load_hand_model(doc)


def test_human_map_duplicate_human_joint():
    doc = _mutated(human_joint_map=[["index_mcp_flex", "f1_bend"],
                                    ["index_mcp_flex", "f2_bend"]])
    with pytest.raises(SchemaError, match="mapped twice"):
        load_hand_model(doc)


def test_finger_drivers_count():
    doc = _mutated(finger_drivers=["f1_bend"])
    with pytest.raises(SchemaError, match="one joint per fingertip"):
        load_hand_model(doc)


def test_finger_drivers_unknown_joint():
    doc = _mutated(finger_drivers=["f1_bend", "ghost"])
    with pytest.raises(SchemaError, match="unknown joint 'ghost'"):
        load_hand_model(doc)


def test_finger_driver_moving_another_tip_is_refused():
    # f2 hangs off f1's proximal link, so f1_bend swings both fingertips
    doc = tiny_doc()
    doc["links"][3]["parent"] = 1
    with pytest.raises(SchemaError, match="'f1_bend' of 'f1_tip' also moves fingertip 'f2_tip'"):
        load_hand_model(doc)
    # a mimic joint on the other finger counts as its driver's own motion
    doc = tiny_doc()
    doc["links"].insert(5, {"name": "f2_end", "parent": 4,
                            "offset": _offset((0.0, 0.01, 0.0))})
    doc["joints"].append({"name": "f2_curl", "child_link": "f2_tip",
                          "axis": [1.0, 0.0, 0.0], "type": "revolute",
                          "limits": [-1.0, 1.0], "rest": 0.0})
    doc["fingertip_links"] = ["f1_tip", "f2_end"]
    assert load_hand_model(doc).fingertip_count == 2
    doc["mimics"] = [{"joint": "f2_curl", "driver": "f1_bend", "ratio": 0.5}]
    with pytest.raises(SchemaError, match="'f1_bend' of 'f1_tip' also moves fingertip 'f2_end'"):
        load_hand_model(doc)


def test_zero_approach_axis():
    doc = _mutated(approach_axis=[0.0, 0.0, 0.0])
    with pytest.raises(SchemaError, match="approach_axis"):
        load_hand_model(doc)


def test_bad_human_fingertip_indices():
    doc = _mutated(human_fingertip_indices=[0])
    with pytest.raises(SchemaError, match="one index per fingertip"):
        load_hand_model(doc)


def test_mixed_violations_collected():
    doc = tiny_doc()
    doc["joints"][0]["limits"] = [1.0, -1.0]
    doc["fingertip_links"] = ["f1_tip", "ghost"]
    with pytest.raises(SchemaError) as err:
        load_hand_model(doc)
    assert type(err.value) is SchemaError
    assert len(err.value.violations) == 2
    # in the order the loader checks them: joints, then fingertips
    assert err.value.violations == ["hand model: joint 'f1_bend': limits inverted (1.0 > -1.0)",
                                    "hand model: fingertip link 'ghost' does not exist"]


def test_bundled_model_unknown_name():
    # force_table.json sits among the models but is not a hand
    for name in ("left-handed-42dof", "force_table"):
        with pytest.raises(FixtureMissing, match=f"no bundled hand model named '{name}'"):
            bundled_model(name)


def test_bundled_model_loads_once_with_read_only_arrays():
    model = bundled_model("inspire-like-6dof")
    assert bundled_model("inspire-like-6dof") is model
    cfg = rest_configuration(model)
    fingertip_jacobian(model, cfg, forward_kinematics(model, cfg))    # fills the cached tables
    columns, root_at, joint_at, fold = model._cache["jac"]
    arrays = [model.approach_axis, model.lower_limits, model.upper_limits,
              *(j.axis for j in model.joints), root_at, joint_at, fold]
    assert not any(a.flags.writeable for a in arrays)
    # the per-column table is nested tuples of numbers, so nothing in it is writable
    assert type(columns) is tuple and len(columns) == 3 + model.dof
    for frame, axis, tips in columns:
        assert type(frame) is int and type(axis) is tuple and type(tips) is tuple
        assert all(type(v) is float for v in axis) and all(type(k) is int for k in tips)


def test_load_hand_model_file(tmp_path):
    import json
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(tiny_doc()), encoding="utf-8")
    model = load_hand_model_file(path)
    assert model.name == "tiny"


def test_bundled_models_all_load():
    for name in BUNDLED:
        model = bundled_model(name)
        assert 2 <= model.fingertip_count <= 5
        assert np.isclose(np.linalg.norm(model.approach_axis), 1.0)
        assert len(model.finger_drivers) == model.fingertip_count
