import dataclasses
import json

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR
from cases import rest_configuration
from dextra import graspctl
from dextra.errors import DimensionMismatch, MissingField
from dextra.graspctl import (
    DEFAULT_KP,
    MIN_STABLE_FINGERS,
    ContactModel,
    run_grasp,
    trace_csv,
)
from dextra.kinematics import (
    HandConfiguration,
    load_hand_model,
)
from dextra.pipeline import PipelineSettings, content_digest, run_pipeline
from dextra.retarget import FRAME_ROBOT, GraspAction

# stiffness sized so the latch overshoot (one step of spring compression)
# stays well inside the stability band around the target force
STIFF = 20.0
ENGAGE = 0.3
F_TARGET = 2.0


def _driver_grasp(model, value):
    """Grasp action whose driver joints all sit at `value`."""
    cfg = rest_configuration(model)
    angles = cfg.joint_angles.copy()
    for name in model.finger_drivers:
        angles[model.joint_index[name]] = value
    return GraspAction(hand_model=model.name,
                       config=HandConfiguration(cfg.root_pose, angles),
                       frame=FRAME_ROBOT,
                       residual=np.zeros(model.fingertip_count))


def _uniform_contact(k, **kw):
    return ContactModel(stiffness=np.full(k, STIFF),
                        engagement=np.full(k, ENGAGE), **kw)


def _bits(a):
    """dtype, shape and bytes: equal only for bit-identical arrays, so -0.0 != 0.0."""
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


# ---------------------------------------------------------------------------
# contact model
# ---------------------------------------------------------------------------

def test_contact_model_rejects_nonpositive_stiffness():
    # NaN compares false both ways, so the spring, the latch and the settle
    # test would each read a NaN input differently: it is refused up front
    for stiffness in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="stiffness must be positive"):
            ContactModel(stiffness=np.array([1.0, stiffness]), engagement=np.zeros(2))
    for engagement in (np.nan, -np.inf):
        with pytest.raises(ValueError, match="engagement must be a number or"):
            ContactModel(stiffness=np.ones(2), engagement=np.array([0.3, engagement]))
    # +inf is the finger that never touches
    contact = ContactModel(stiffness=np.ones(2), engagement=np.array([0.3, np.inf]))
    assert contact.engagement[1] == np.inf


def test_contact_model_rejects_bad_noise_and_yield_force():
    for noise_sigma in (np.nan, np.inf, -0.1):
        with pytest.raises(ValueError, match="sensor noise must be non-negative"):
            _uniform_contact(2, noise_sigma=noise_sigma)
    for yield_force in (np.nan, 0.0):
        with pytest.raises(ValueError, match="yield force must be positive"):
            _uniform_contact(2, yield_force=yield_force)


def test_contact_model_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        ContactModel(stiffness=np.ones(3), engagement=np.zeros(2))


# ---------------------------------------------------------------------------
# full episodes
# ---------------------------------------------------------------------------

def test_run_grasp_locks_every_finger_near_target(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    result = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model)
    assert result.verdict == "stable"
    assert result.locked.all()
    assert result.steps < 1000
    assert np.all(result.final_forces >= 0.9 * F_TARGET)
    assert np.all(result.final_forces <= 1.1 * F_TARGET)
    # the latch can overshoot by at most one step of spring compression
    bound = F_TARGET + STIFF * result.peak_commands * 0.01
    assert np.all(result.peak_forces <= bound + 1e-12)
    assert float(np.abs(result.trace.commands[-1]).max()) < 1e-9


@pytest.mark.parametrize("engagement", [np.full(5, ENGAGE), np.array([np.inf] + [ENGAGE] * 4)],
                         ids=["all-engage", "one-never-engages"])
@pytest.mark.parametrize("noise_sigma", [0.0, 0.5], ids=["quiet", "noisy"])
@pytest.mark.parametrize("lock_enabled", [True, False], ids=["lock", "no-lock"])
def test_run_grasp_matches_scalar_replay(robot_model, lock_enabled, noise_sigma, engagement):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = ContactModel(stiffness=np.full(5, STIFF), engagement=engagement,
                           noise_sigma=noise_sigma)
    result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model,
                       lock_enabled=lock_enabled, seed=7)
    oracle = oracles.pd_spring_episode(
        start=np.full(5, 0.1), squeeze=np.full(5, 0.55),
        stiffness=np.full(5, STIFF), engagement=engagement,
        f_target=F_TARGET, lock_enabled=lock_enabled,
        noise_sigma=noise_sigma, seed=7)
    assert result.steps == len(oracle["commands"])
    for field in ("positions", "forces", "commands", "locked"):
        assert _bits(getattr(result.trace, field)) == _bits(oracle[field]), field
    assert _bits(result.final_positions) == _bits(oracle["final_positions"])
    assert _bits(result.final_forces) == _bits(oracle["final_forces"])


def test_run_grasp_stopped_at_the_step_cap_matches_scalar_replay(monkeypatch, robot_model):
    # a cap of 50 stops the episode before the commands settle; the final
    # reading is then reading 50, the last row of the noise draws
    monkeypatch.setattr(graspctl, "DEFAULT_MAX_STEPS", 50)
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = _uniform_contact(5, noise_sigma=0.5)
    result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=7)
    oracle = oracles.pd_spring_episode(
        start=np.full(5, 0.1), squeeze=np.full(5, 0.55),
        stiffness=np.full(5, STIFF), engagement=np.full(5, ENGAGE),
        f_target=F_TARGET, max_steps=50, noise_sigma=0.5, seed=7)
    assert result.steps == len(oracle["commands"]) == 50
    assert np.abs(result.trace.commands[-1]).max() >= 1e-9
    assert result.locked.any()
    for field in ("positions", "forces", "commands", "locked"):
        assert _bits(getattr(result.trace, field)) == _bits(oracle[field]), field
    assert _bits(result.final_positions) == _bits(oracle["final_positions"])
    assert _bits(result.final_forces) == _bits(oracle["final_forces"])


@pytest.mark.parametrize(("start", "goal"), [(0.1, 0.55), (0.0, -0.0)],
                         ids=["closing", "signed-zero"])
def test_run_grasp_first_command_is_pure_proportional(robot_model, start, goal):
    pre = _driver_grasp(robot_model, start)
    squeeze = _driver_grasp(robot_model, goal)
    result = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model)
    drivers = [robot_model.joint_index[n] for n in robot_model.finger_drivers]
    expected = DEFAULT_KP * (squeeze.config.joint_angles[drivers]
                             - pre.config.joint_angles[drivers])
    assert np.array_equal(result.trace.commands[0], expected)
    assert not result.trace.locked[0].any()
    # the zero derivative is still added, so a -0.0 error commands +0.0
    assert not np.signbit(result.trace.commands[0]).any()


def test_run_grasp_latch_never_releases_under_noise(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = _uniform_contact(5, noise_sigma=0.5)
    t = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=3).trace
    assert t.locked[-1].all()
    assert np.all(np.diff(t.locked.astype(int), axis=0) >= 0)
    # the noisy reading falls back below target after the latch on some
    # finger, and the latch holds anyway
    first = t.locked.argmax(axis=0)
    assert any((t.forces[first[i] + 1:, i] < F_TARGET).any() for i in range(5))


def test_run_grasp_noisy_forces_are_clipped_at_zero(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = _uniform_contact(5, noise_sigma=0.5)
    result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=3)
    # before engagement the spring reads 0, so half the noisy readings clip
    assert result.trace.forces.min() >= 0.0
    assert (result.trace.forces == 0.0).any()
    assert result.final_forces.min() >= 0.0


def test_run_grasp_without_lock_drives_to_squeeze(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    result = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET,
                       robot_model, lock_enabled=False)
    assert not result.locked.any()
    assert np.allclose(result.final_positions, 0.55, atol=1e-6)
    assert np.allclose(result.final_forces, STIFF * (0.55 - ENGAGE), atol=1e-4)


def test_run_grasp_unengaged_finger_never_locks(robot_model):
    contact = ContactModel(stiffness=np.full(5, STIFF),
                           engagement=np.array([np.inf, ENGAGE, ENGAGE,
                                                ENGAGE, ENGAGE]))
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model)
    assert not result.locked[0]
    assert result.locked[1:].all()
    assert result.final_forces[0] == 0.0
    assert result.final_positions[0] == pytest.approx(0.55, abs=1e-6)
    assert result.verdict == "stable"


def test_run_grasp_damaged_when_peak_exceeds_yield(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = _uniform_contact(5, yield_force=1.0)
    result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model)
    assert result.verdict == "damaged"
    assert float(result.peak_forces.max()) > 1.0


def test_run_grasp_unstable_when_nothing_engages(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.2)   # stops short of engagement
    result = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model)
    assert result.verdict == "unstable"
    assert np.allclose(result.final_forces, 0.0)


def test_run_grasp_min_stable_fingers_threshold(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    # one finger short of the threshold is unstable, the threshold is stable
    for engaging, verdict in ((MIN_STABLE_FINGERS - 1, "unstable"),
                              (MIN_STABLE_FINGERS, "stable")):
        engagement = np.where(np.arange(5) < engaging, ENGAGE, np.inf)
        contact = ContactModel(stiffness=np.full(5, STIFF), engagement=engagement)
        result = run_grasp(pre, squeeze, contact, F_TARGET, robot_model)
        assert int(result.locked.sum()) == engaging
        assert result.verdict == verdict


def test_run_grasp_rejects_bad_scalars(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    for f_target in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="target force must be positive"):
            run_grasp(pre, squeeze, _uniform_contact(5), f_target, robot_model)
    with pytest.raises(DimensionMismatch, match="contact model covers"):
        run_grasp(pre, squeeze, _uniform_contact(3), F_TARGET, robot_model)


def test_run_grasp_noise_is_reproducible_per_seed(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    contact = _uniform_contact(5, noise_sigma=0.05)
    a = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=3)
    b = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=3)
    c = run_grasp(pre, squeeze, contact, F_TARGET, robot_model, seed=4)
    assert np.array_equal(a.trace.forces, b.trace.forces)
    assert np.array_equal(a.final_positions, b.final_positions)
    assert not np.array_equal(a.trace.forces, c.trace.forces)


def test_run_grasp_needs_declared_drivers():
    doc = json.loads((MODELS_DIR / "human-20dof.json").read_text())
    doc.pop("finger_drivers")
    doc["name"] = "driverless"
    model = load_hand_model(doc)
    pre = GraspAction(hand_model=model.name, config=rest_configuration(model),
                      frame=FRAME_ROBOT, residual=np.zeros(5))
    with pytest.raises(MissingField, match="declares no finger_drivers"):
        run_grasp(pre, pre, _uniform_contact(5), F_TARGET, model)


def test_trace_csv(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    result = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model)
    text = trace_csv(result)
    assert text.endswith("\n")
    lines = text.splitlines()
    k = 5
    head = (["step"] + [f"position_{i}" for i in range(k)]
            + [f"force_{i}" for i in range(k)]
            + [f"command_{i}" for i in range(k)]
            + [f"locked_{i}" for i in range(k)])
    assert lines[0] == ",".join(head)
    assert len(lines) == 1 + result.steps
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(0.1)
    assert first[1 + 3 * k] in ("0", "1")


def test_trace_digest_sees_every_bit(robot_model):
    pre = _driver_grasp(robot_model, 0.1)
    squeeze = _driver_grasp(robot_model, 0.55)
    trace = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model).trace
    again = run_grasp(pre, squeeze, _uniform_contact(5), F_TARGET, robot_model).trace
    assert content_digest(again) == content_digest(trace)

    def edited(t, field, index, value):
        values = getattr(t, field).copy()
        values[index] = value
        return dataclasses.replace(t, **{field: values})

    zeroed = edited(trace, "commands", (5, 2), 0.0)
    assert content_digest(edited(zeroed, "commands", (5, 2), -0.0)) != content_digest(zeroed)
    flipped = edited(trace, "locked", (3, 1), not trace.locked[3, 1])
    assert content_digest(flipped) != content_digest(trace)
    dropped = dataclasses.replace(trace, **{f.name: getattr(trace, f.name)[:-1]
                                            for f in dataclasses.fields(trace)})
    assert content_digest(dropped) != content_digest(trace)


@pytest.mark.parametrize("settings", [{}, {"noise_sigma": 0.05, "seed": 3},
                                      {"force_lock": False}],
                         ids=["default", "noisy", "no-lock"])
def test_trace_csv_matches_per_value_formatting(mug_scene, settings):
    result = run_pipeline(mug_scene, PipelineSettings(**settings)).result
    assert trace_csv(result) == oracles.trace_csv_per_value(result.trace)
