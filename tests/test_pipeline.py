import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import shutil

import numpy as np
import pytest

import oracles
from conftest import MODELS_DIR, SCENES_DIR
from cases import box_mesh, pose_to_matrix, replay_scene, rest_configuration
from dextra import cli, geometry, pipeline
from dextra.errors import (
    DimensionMismatch,
    FixtureMissing,
    MissingField,
    SchemaError,
    StageError,
    WrongFrame,
)
from dextra.geometry import (
    TriangleMesh,
    compose,
    identity_pose,
    invert,
    pose_from_rotvec,
    transform_mesh,
)
from dextra.graspctl import ContactModel, run_grasp
from dextra.kinematics import (
    HandConfiguration,
    fingertip_positions,
    load_hand_model,
    tip_speed_bounds,
)
from dextra.pipeline import (
    ENGAGEMENT_TOL,
    STAGE_NAMES,
    PipelineSettings,
    _ENGAGEMENT_SAMPLES,
    _SETTINGS_RULES,
    canonical,
    canonical_json,
    closing_path,
    content_digest,
    derive_engagement,
    grasp_record,
    run_pipeline,
    settings_from_dict,
)
from dextra.reconstruction import read_contact
from dextra.retarget import FRAME_OBJECT, FRAME_ROBOT, GraspAction
from dextra.geometry import surface_query

BUNDLED_SCENES = sorted(p.parent for p in SCENES_DIR.rglob("scene.json"))


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_scalars_and_containers():
    assert canonical(None) is None
    assert canonical("x") == "x"
    assert canonical(np.bool_(True)) is True
    assert canonical(np.int64(7)) == 7
    assert canonical(np.float64(2.5)) == 2.5
    assert canonical(float("nan")) == "nan"
    assert canonical(float("-inf")) == "-inf"
    assert canonical({1: float("inf")}) == {"1": "inf"}
    assert canonical((1, "a", None)) == [1, "a", None]
    assert canonical(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]


def test_canonical_arrays_keep_strings_ints_and_bools():
    assert canonical(np.array([1.0, np.nan, -np.inf])) == [1.0, "nan", "-inf"]
    assert canonical(np.array([[np.inf], [2.0]])) == [["inf"], [2.0]]
    assert canonical(np.float64(np.nan)) == "nan"
    ints = canonical(np.arange(3, dtype=np.int32))
    assert ints == [0, 1, 2] and all(type(v) is int for v in ints)
    flags = canonical(np.array([[True], [False]]))
    assert flags == [[True], [False]] and all(type(r[0]) is bool for r in flags)
    floats = canonical(np.array([0.1, -0.0, 1e300], dtype=np.float64))
    assert all(type(v) is float for v in floats)
    assert canonical(np.array(2.5)) == 2.5


def test_canonical_json_of_arrays_matches_nested_lists():
    rng = np.random.default_rng(5)
    doc = {"a": rng.normal(size=(3, 4)), "b": {"c": np.array([1.5, np.inf]),
                                               "d": [np.arange(4), np.zeros(0)]},
           "e": np.array([True, False]), "f": (rng.normal(size=2), "x", None),
           "g": np.float32([0.1, 2.0]), "h": rng.normal(size=(2, 0, 3))}

    def as_lists(obj):
        # every array through the element-by-element path
        if isinstance(obj, np.ndarray):
            return [as_lists(v) for v in obj] if obj.ndim else obj.item()
        if isinstance(obj, dict):
            return {k: as_lists(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [as_lists(v) for v in obj]
        return obj

    assert canonical_json(doc) == canonical_json(as_lists(doc))
    assert content_digest(doc) == content_digest(as_lists(doc))


def test_canonical_domain_objects(robot_model):
    pose = pose_from_rotvec((0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
    rec = canonical(pose)
    assert set(rec) == {"rotation", "translation"}
    assert rec["translation"] == [1.0, 2.0, 3.0]

    grasp = GraspAction(hand_model=robot_model.name,
                        config=rest_configuration(robot_model),
                        frame=FRAME_OBJECT, residual=np.zeros(5))
    assert canonical(grasp) == grasp_record(grasp)
    assert set(grasp_record(grasp)) == {"hand_model", "frame", "root_pose",
                                        "joint_angles", "residual"}

    mesh = box_mesh((0.1, 0.2, 0.3))
    summary = canonical(mesh)
    assert summary["vertex_count"] == 8
    assert summary["triangle_count"] == 12
    assert len(summary["content"]) == 64
    assert canonical(box_mesh((0.1, 0.2, 0.3)))["content"] == summary["content"]

    @dataclasses.dataclass(frozen=True)
    class Gains:
        kp: float = 5.0
        kd: float = 0.1

    assert canonical(Gains()) == {"kp": 5.0, "kd": 0.1}


def test_canonical_rejects_unknown_types():
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical(object())


def test_canonical_json_and_digest():
    text = canonical_json({"b": 1, "a": float("nan")})
    assert text == '{"a":"nan","b":1}'
    want = hashlib.sha256(text.encode()).hexdigest()
    assert content_digest({"b": 1, "a": float("nan")}) == want


# ---------------------------------------------------------------------------
# settings
# ---------------------------------------------------------------------------

def test_settings_from_dict_defaults_and_nested():
    assert settings_from_dict({}) == PipelineSettings()
    s = settings_from_dict({
        "hand_model": "leap-like-16dof",
        "transfer": False,
        "force_lock": False,
        "seed": 3,
        "noise_sigma": 0.05,
    })
    assert s == PipelineSettings("leap-like-16dof", transfer=False, force_lock=False,
                                 seed=3, noise_sigma=0.05)


# tuning parameters that are module constants, so a settings file may not name them
REMOVED_SETTINGS = ("engage_threshold", "contact_radius", "pregrasp_offset",
                    "squeeze_offset", "standoff", "optimizer", "gains", "dt",
                    "max_steps", "stability_band", "min_stable_fingers")


def test_settings_from_dict_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="settings: unknown key 'frobnicate'"):
        settings_from_dict({"frobnicate": 1})
    # a removed knob is refused, whether or not its value was once valid
    for key, value in [("optimizer", {"max_iterations": 50}), ("gains", {"kp": 3.0}),
                       ("optimizer", 5), ("stability_band", [1.1, 0.7]),
                       ("min_stable_fingers", 9), ("dt", 0.005)]:
        with pytest.raises(SchemaError) as err:
            settings_from_dict({key: value})
        assert err.value.violations == [f"settings: unknown key '{key}'"]
    with pytest.raises(SchemaError) as err:
        settings_from_dict(dict.fromkeys(REMOVED_SETTINGS, 1))
    assert err.value.violations == [f"settings: unknown key '{key}'"
                                    for key in REMOVED_SETTINGS]


@pytest.mark.parametrize("doc, keys", [
    ({"hand_model": "nope"}, ["hand_model"]),
    ({"hand_model": ""}, ["hand_model"]),
    ({"hand_model": "force_table"}, ["hand_model"]),
    ({"hand_model": "human-20dof"}, ["hand_model"]),
    ({"hand_model": 5}, ["hand_model"]),
    ({"transfer": "no"}, ["transfer"]),
    ({"transfer": None}, ["transfer"]),
    ({"force_lock": 1}, ["force_lock"]),
    ({"seed": True}, ["seed"]),
    ({"seed": -1}, ["seed"]),
    ({"noise_sigma": -0.1}, ["noise_sigma"]),
    ({"noise_sigma": "low", "seed": 1.5}, ["noise_sigma", "seed"]),
    ({"hand_model": "nope", "seed": 1.5, "noise_sigma": "low", "frobnicate": 1},
     ["hand_model", "seed", "noise_sigma", "frobnicate"]),
])
def test_settings_from_dict_rejects_bad_values(doc, keys):
    with pytest.raises(SchemaError) as err:
        settings_from_dict(doc)
    # one error naming every bad key by its path, in document order
    assert len(err.value.violations) == len(keys)
    for key, violation in zip(keys, err.value.violations):
        assert (violation.startswith(f"settings: {key} must ")
                or violation == f"settings: unknown key '{key}'"), violation


def test_every_setting_has_a_value_rule():
    assert set(_SETTINGS_RULES) == {f.name for f in dataclasses.fields(PipelineSettings)}
    assert set(_SETTINGS_RULES) == {"hand_model", "transfer", "force_lock", "seed",
                                    "noise_sigma"}
    doc = {"hand_model": None, "transfer": False, "force_lock": True, "seed": 3,
           "noise_sigma": None}
    assert settings_from_dict(doc) == PipelineSettings(transfer=False, seed=3)


# ---------------------------------------------------------------------------
# full runs on the bundled scene
# ---------------------------------------------------------------------------

def test_pipeline_runs_every_stage_in_order(mug_scene):
    report = run_pipeline(mug_scene)
    assert tuple(r["name"] for r in report.stages) == STAGE_NAMES
    for record in report.stages:
        assert len(record["input"]) == 64
        assert len(record["output"]) == 64
    assert report.scene == "mug-01"
    assert report.object_name == "mug"
    assert report.hand_model == "inspire-like-6dof"
    assert report.verdict == "stable"
    assert report.f_target > 0.0


def test_pipeline_report_is_reproducible(mug_scene):
    a = run_pipeline(mug_scene)
    b = run_pipeline(mug_scene)
    assert a.to_json() == b.to_json()
    assert a.as_dict() == b.as_dict()
    assert "timings" not in a.as_dict()
    # timings ride along but stay out of the digested content
    assert set(a.timings) == set(STAGE_NAMES)
    assert "timings" in a.as_dict(include_timings=True)
    assert [r["output"] for r in a.stages] == [r["output"] for r in b.stages]


def test_integer_noise_sigma_runs_like_the_float_and_the_default(mug_scene):
    # mug-01's contact.json has noise_sigma 0.0
    a, b, c = (run_pipeline(mug_scene, settings_from_dict(doc)).to_json()
               for doc in ({}, {"noise_sigma": 0}, {"noise_sigma": 0.0}))
    assert a == b == c
    assert type(settings_from_dict({"noise_sigma": 0}).noise_sigma) is float


def _nudge_translation(key, dz):
    def edit(doc):
        doc[key]["translation"][2] += dz
    return edit


def _nudge_joint_angle(doc):
    doc["joint_angles"][3] += 0.01


def _nudge_first_vertex(text):
    # object.obj is text: move the first vertex 1 mm along x
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("v "))
    x, y, z = map(float, lines[i].split()[1:4])
    lines[i] = f"v {x + 0.001!r} {y!r} {z!r}\n"
    return "".join(lines)


# one value changed at a time: (settings, {fixture file: edit}); the last two
# differ from each other in the generated pose alone
MUG_PERTURBATIONS = {
    "default": ({}, {}),
    "seed": ({"seed": 3}, {}),
    "noise-setting": ({"noise_sigma": 0.05}, {}),
    "no-force-lock": ({"force_lock": False}, {}),
    "leap": ({"hand_model": "leap-like-16dof"}, {}),
    "contact-noise": ({}, {"contact.json": {"noise_sigma": 0.05}}),
    "contact-stiffness": ({}, {"contact.json": {"stiffness": 120.0}}),
    "contact-yield": ({}, {"contact.json": {"yield_force": 2.0}}),
    "contact-fingers": ({}, {"scene.json": {"contact_fingers": [1, 2, 3, 4]}}),
    "observation-ref": ({}, {"scene.json": {"observation_image": "observation-2.png"}}),
    "intent": ({}, {"scene.json": {"intent": "lift the mug"}}),
    "hand-eye": ({}, {"poses.json": _nudge_translation("hand_eye", 0.002)}),
    "observed-pose": ({}, {"poses.json": _nudge_translation("object_pose_observed", 0.002)}),
    "joint-angle": ({}, {"hand_estimate.json": _nudge_joint_angle}),
    "mesh-vertex": ({}, {"object.obj": _nudge_first_vertex}),
    "no-transfer": ({"transfer": False}, {}),
    "no-transfer-generated-pose": (
        {"transfer": False}, {"poses.json": _nudge_translation("object_pose_generated", 0.002)}),
}


@pytest.fixture(scope="module")
def perturbed_mug_runs(tmp_path_factory):
    """Stage (input, output) digests of each MUG_PERTURBATIONS run, by stage name."""
    runs = {}
    for name, (settings, edits) in MUG_PERTURBATIONS.items():
        scene = tmp_path_factory.mktemp(name) / "mug-01"
        shutil.copytree(SCENES_DIR / "mug-01", scene)
        for file, edit in edits.items():
            text = (scene / file).read_text()
            if file.endswith(".obj"):
                text = edit(text)
            else:
                doc = json.loads(text)
                if isinstance(edit, dict):
                    doc.update(edit)
                else:
                    edit(doc)
                text = json.dumps(doc)
            (scene / file).write_text(text)
        report = run_pipeline(scene, PipelineSettings(**settings))
        runs[name] = {r["name"]: (r["input"], r["output"]) for r in report.stages}
    return runs


def test_a_stage_whose_input_digest_holds_keeps_its_output_digest(perturbed_mug_runs):
    runs = perturbed_mug_runs
    same_input = 0
    for a, b in itertools.combinations(runs, 2):
        for stage in STAGE_NAMES:
            (in_a, out_a), (in_b, out_b) = runs[a][stage], runs[b][stage]
            if in_a == in_b:
                same_input += 1
                assert out_a == out_b, (stage, a, b)
    # every perturbation moves some stage's output
    for name, digests in runs.items():
        if name != "default":
            assert digests != runs["default"], name
    assert same_input > len(runs)


def test_providers_input_digest_moves_with_every_replayed_file(perturbed_mug_runs):
    # an edit to any file but contact.json reaches the providers input (the
    # scene.json ones through the prompt or contact_fingers); a setting or a
    # contact.json edit does not
    default = perturbed_mug_runs["default"]["providers"][0]
    for name, (_, edits) in MUG_PERTURBATIONS.items():
        moved = perturbed_mug_runs[name]["providers"][0] != default
        assert moved == bool(set(edits) - {"contact.json"}), name


def test_a_hand_model_digests_by_name_and_document(robot_doc):
    model = load_hand_model(robot_doc)
    assert canonical(model) == {"name": "inspire-like-6dof", "sha256": model.document_sha256}
    assert load_hand_model(json.loads(json.dumps(robot_doc))).document_sha256 \
        == model.document_sha256
    nudged = json.loads(json.dumps(robot_doc))
    nudged["links"][-1]["offset"]["translation"][0] += 0.001
    assert load_hand_model(nudged).document_sha256 != model.document_sha256


def test_every_stage_that_reads_the_hand_model_digests_it(monkeypatch, mug_scene,
                                                          robot_doc):
    # the scene hand with one fingertip link moved 1 mm: the stages that read
    # the model see a new input, the ones before retargeting do not
    doc = json.loads(json.dumps(robot_doc))
    doc["links"][-1]["offset"]["translation"][0] += 0.001
    nudged, bundled = load_hand_model(doc), pipeline.bundled_model
    before = {r["name"]: r["input"] for r in run_pipeline(mug_scene).stages}
    monkeypatch.setattr(pipeline, "bundled_model",
                        lambda name: nudged if name == nudged.name else bundled(name))
    after = {r["name"]: r["input"] for r in run_pipeline(mug_scene).stages}
    moved = {name for name in STAGE_NAMES if before[name] != after[name]}
    assert {"retarget", "pre-squeeze", "two-stage", "execute"} <= moved
    assert not moved & {"prompt", "providers", "align-depth", "object-frame"}


def test_no_stage_function_reads_more_than_its_arguments(mug_scene):
    # every function a mug-01 run hands to a stage, as the stage checks it
    fns, unwrap = [], inspect.unwrap

    def recording(fn, **kwargs):
        fns.append(unwrap(fn, **kwargs))
        return fns[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(inspect, "unwrap", recording)
        run_pipeline(mug_scene)
    assert len(fns) == len(STAGE_NAMES)
    for fn in fns:
        assert fn.__code__.co_freevars == (), fn
        assert fn.__module__.startswith("dextra.") and "<locals>" not in fn.__qualname__, fn


def test_a_stage_function_with_a_free_variable_is_refused(monkeypatch, mug_scene):
    shift = np.array([0.0, 0.0, 0.01])    # read by the closure, never passed to it
    to_object_frame = pipeline.to_object_frame

    def shifted(t_o_gen, hand):
        moved = to_object_frame(t_o_gen, hand)
        return dataclasses.replace(moved, fingertip_points=moved.fingertip_points + shift)

    monkeypatch.setattr(pipeline, "to_object_frame", shifted)
    with pytest.raises(TypeError, match="stage 'object-frame'.*shift"):
        run_pipeline(mug_scene)


def test_a_wrapper_is_checked_through_its_wrapped_function(monkeypatch, mug_scene):
    # a timing wrapper (a closure over the function it wraps) passes the
    # check when it names that function in __wrapped__; without it, it is refused
    calls = []
    gather = pipeline.gather_reconstruction

    @functools.wraps(gather)
    def timed(**inputs):
        calls.append(sorted(inputs))
        return gather(**inputs)

    monkeypatch.setattr(pipeline, "gather_reconstruction", timed)
    assert run_pipeline(mug_scene).verdict == "stable"
    assert calls == [["contact_fingers", "f_target", "hand_estimate", "mesh_scale",
                      "object_obj", "poses", "prompt"]]
    del timed.__wrapped__
    with pytest.raises(TypeError, match="providers"):
        run_pipeline(mug_scene)


def test_pipeline_engagement_is_geometric(mug_scene, robot_model):
    report = run_pipeline(mug_scene)
    bundle = replay_scene(mug_scene)
    mesh_exec = transform_mesh(bundle.mesh,
                               compose(bundle.hand_eye, bundle.object_pose_observed))
    engagement = report.execution["engagement"]
    drivers = [robot_model.joint_index[n] for n in robot_model.finger_drivers]
    pre = report.actions["pre_executed"]
    squeeze = report.actions["squeeze_executed"]

    assert not np.isfinite(engagement[0])      # thumb never reaches the body
    assert np.isfinite(engagement[1:]).all()
    for k, j in enumerate(drivers):
        if not np.isfinite(engagement[k]):
            continue
        lo = pre.config.joint_angles[j]
        hi = squeeze.config.joint_angles[j]
        assert lo - 1e-9 <= engagement[k] <= hi + 1e-9
        angles = np.array(squeeze.config.joint_angles)
        angles[j] = engagement[k]
        tips = fingertip_positions(
            robot_model, HandConfiguration(squeeze.config.root_pose, angles))
        assert abs(surface_query(mesh_exec, tips[k]).distance[0]) < 5e-5


def test_closing_path_rejects_frame_mismatch(robot_model):
    obj = GraspAction(hand_model=robot_model.name,
                      config=rest_configuration(robot_model),
                      frame=FRAME_OBJECT, residual=np.zeros(5))
    rob = GraspAction(hand_model=robot_model.name,
                      config=rest_configuration(robot_model),
                      frame=FRAME_ROBOT, residual=np.zeros(5))
    for pre, squeeze in ((obj, rob), (rob, obj)):
        with pytest.raises(WrongFrame, match="pre grasp is in"):
            closing_path(robot_model, pre, squeeze)


def test_closing_path_needs_declared_drivers():
    # neither the onset search nor the controller has a path to close along
    doc = json.loads((MODELS_DIR / "leap-like-16dof.json").read_text(encoding="utf-8"))
    del doc["finger_drivers"]
    doc["name"] = "driverless"
    model = load_hand_model(doc)
    grasp = GraspAction(hand_model=model.name, config=rest_configuration(model),
                        frame=FRAME_ROBOT, residual=np.zeros(model.fingertip_count))
    with pytest.raises(MissingField, match="'driverless' declares no finger_drivers"):
        closing_path(model, grasp, grasp)


@pytest.mark.parametrize("engagement", ["auto", "contact.json"])
def test_execute_refuses_grasps_in_mixed_frames(mug_scene, robot_model, engagement):
    # the closing path is built whether the onsets are derived or given, so
    # a given engagement does not let an object-frame pre-grasp through
    report = run_pipeline(mug_scene)
    spec = read_contact(mug_scene / "contact.json", robot_model.fingertip_count)
    if engagement != "auto":
        spec = dict(spec, engagement=report.execution["engagement"])
    bundle = replay_scene(mug_scene)
    mesh_pose = compose(bundle.hand_eye, bundle.object_pose_observed)
    inputs = dict(squeeze=report.actions["squeeze_executed"], mesh=bundle.mesh,
                  mesh_pose=mesh_pose, contact=spec, noise_sigma=0.0,
                  f_target=report.f_target, model=robot_model, force_lock=True, seed=0)
    result, _, _ = pipeline._execute(pre=report.actions["pre_executed"], **inputs)
    assert result.verdict == report.verdict == "stable"
    with pytest.raises(WrongFrame, match="pre grasp is in 'object'"):
        pipeline._execute(pre=report.actions["pre_object"], **inputs)


def _engagement_inputs(monkeypatch, scene_dir, **settings):
    """(model, pre, squeeze, mesh, pose) and the engagement the execute stage
    derived along the closing path it built from `pre` to `squeeze`."""
    paths, calls = [], []

    def built(*args):
        paths.append((args, closing_path(*args)))
        return paths[-1][1]

    def recording(*args):
        calls.append((args, derive_engagement(*args)))
        return calls[-1][1]

    monkeypatch.setattr(pipeline, "closing_path", built)
    monkeypatch.setattr(pipeline, "derive_engagement", recording)
    report = run_pipeline(scene_dir, PipelineSettings(**settings))
    assert len(paths) == len(calls) == 1
    (model, pre, squeeze), path = paths[0]
    (searched_model, searched_path, mesh, pose), engagement = calls[0]
    assert searched_model is model and searched_path is path
    assert np.array_equal(report.execution["engagement"], engagement)
    return (model, pre, squeeze, mesh, pose), engagement


def _onset(model, pre, squeeze, mesh, pose):
    """derive_engagement along the closing path from `pre` to `squeeze`."""
    return derive_engagement(model, closing_path(model, pre, squeeze), mesh, pose)


def _drivers(model):
    return [model.joint_index[n] for n in model.finger_drivers]


@pytest.mark.parametrize("hand", [None, "leap-like-16dof", "shadow-like-22dof"])
@pytest.mark.parametrize("scene_dir", BUNDLED_SCENES, ids=lambda p: p.name)
def test_closing_path_ends_are_the_grasps(monkeypatch, scene_dir, hand):
    (model, pre, squeeze, _, _), _ = _engagement_inputs(monkeypatch, scene_dir,
                                                        hand_model=hand)
    path = closing_path(model, pre, squeeze)
    # the end is the squeeze, bit for bit; the start is the squeeze with
    # each finger's driver at its pre-grasp angle
    assert path.joint_angles(path.end).tobytes() == squeeze.config.joint_angles.tobytes()
    want = np.array(squeeze.config.joint_angles)
    want[_drivers(model)] = pre.config.joint_angles[_drivers(model)]
    assert path.joint_angles(path.start).tobytes() == want.tobytes()
    k = len(model.finger_drivers)
    springs = ContactModel(stiffness=np.ones(k), engagement=np.zeros(k))
    with pytest.raises(DimensionMismatch, match="start has shape"):
        run_grasp(path.start, path.end[:-1], springs, 1.0)


def _oracle_engagement(model, pre, squeeze, mesh, pose):
    drivers = _drivers(model)
    # the squeeze root as seen from the object frame, where `mesh` lives
    root = compose(invert(pose), squeeze.config.root_pose)

    def fingertip(k, angle):
        angles = np.array(squeeze.config.joint_angles)
        angles[drivers[k]] = angle
        config = HandConfiguration(root, angles)
        return fingertip_positions(model, config)[k]

    return oracles.engagement_per_finger(
        fingertip, lambda point: surface_query(mesh, point).distance[0],
        pre.config.joint_angles[drivers], squeeze.config.joint_angles[drivers],
        samples=_ENGAGEMENT_SAMPLES, tol=ENGAGEMENT_TOL)


def _assert_onsets_agree(got, want, pre, model):
    """The same fingers at their pre-grasp angle or +inf, exactly; every
    other onset within ENGAGEMENT_TOL of `want`'s (each is within half of it
    of a crossing in the same grid bracket)."""
    lo = pre.config.joint_angles[_drivers(model)]
    edge = (want == lo) | np.isinf(want)
    assert np.array_equal((got == lo) | np.isinf(got), edge), (got, want)
    assert np.array_equal(got[edge], want[edge]), (got, want)
    assert np.abs(got[~edge] - want[~edge]).max(initial=0.0) <= ENGAGEMENT_TOL, (got, want)


def _searched(model, pre, squeeze, mesh, pose):
    """derive_engagement's onsets and the number of fingers each of its ITP
    rounds queried, counted through its `surface_query` binding."""
    sizes, query = [], pipeline.surface_query

    def counted(mesh, points):
        sizes.append(len(points))
        return query(mesh, points)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "surface_query", counted)
        onset = _onset(model, pre, squeeze, mesh, pose)
    return onset, sizes[1:]


def _assert_rounds_within_n_max(rounds, onset, model, pre, squeeze):
    """Every finger closes its grid bracket [a0, b0] within n_max =
    ceil(log2((b0 - a0) / ENGAGEMENT_TOL)) + 1 rounds: a round queries no
    more fingers than have an n_max above its index."""
    drivers = _drivers(model)
    lo, hi = pre.config.joint_angles[drivers], squeeze.config.joint_angles[drivers]
    bracketed = np.isfinite(onset) & (onset != lo)
    widths = [np.diff(np.linspace(a, b, _ENGAGEMENT_SAMPLES)).max()
              for a, b in zip(lo[bracketed], hi[bracketed])]
    n_max = np.ceil(np.log2(np.array(widths) / ENGAGEMENT_TOL)) + 1
    assert all(count <= (n_max > i).sum() for i, count in enumerate(rounds)), (rounds, n_max)


@pytest.mark.parametrize("hand", [None, "leap-like-16dof", "shadow-like-22dof"])
@pytest.mark.parametrize("scene_dir", BUNDLED_SCENES, ids=lambda p: p.name)
def test_engagement_matches_per_finger_oracle(monkeypatch, scene_dir, hand):
    args, engagement = _engagement_inputs(monkeypatch, scene_dir, hand_model=hand)
    model, pre, squeeze = args[:3]
    _assert_onsets_agree(engagement, _oracle_engagement(*args), pre, model)
    onset, rounds = _searched(*args)
    assert onset.tobytes() == engagement.tobytes()
    _assert_rounds_within_n_max(rounds, onset, model, pre, squeeze)


def _grid_queries(args, floor=None):
    """derive_engagement's onsets; the fingertips its grid swept and their
    box floors, (S, K, 3) and (S, K), NaN in the rows it skipped; and the
    points its grid query asked.  `floor` stands in for `sq_distance_floor`
    if given."""
    seen, asked, query = [], [], pipeline.surface_query
    floor = floor or pipeline.sq_distance_floor

    def floored(mesh, points):
        seen.append((points, floor(mesh, points)))
        return seen[-1][1]

    def recorded(mesh, points):
        asked.append(points)
        return query(mesh, points)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "sq_distance_floor", floored)
        m.setattr(pipeline, "surface_query", recorded)
        onset = _onset(*args)
    # row 0's floors, then, unless every row after it was skipped, those of
    # the rows from the first one swept after it to the last
    k = len(args[0].finger_drivers)
    assert 1 <= len(seen) <= 2 and len(seen[0][0]) == k
    tips = np.full((_ENGAGEMENT_SAMPLES, k, 3), np.nan)
    floors = np.full((_ENGAGEMENT_SAMPLES, k), np.nan)
    first = _ENGAGEMENT_SAMPLES - sum(len(points) for points, _ in seen[1:]) // k
    for rows, (points, values) in zip((slice(0, 1), slice(first, None)), seen):
        tips[rows], floors[rows] = points.reshape(-1, k, 3), values.reshape(-1, k)
    return onset, tips, floors, asked[0]


def _no_floor(mesh, points):
    """A zero floor rules nothing out: the grid sweeps every row and asks
    every sample."""
    return np.zeros(len(points))


@pytest.mark.parametrize("hand", [None, "leap-like-16dof", "shadow-like-22dof"])
@pytest.mark.parametrize("scene_dir", BUNDLED_SCENES, ids=lambda p: p.name)
def test_engagement_grid_asks_only_in_box_samples_and_keeps_full_grid_bits(
        monkeypatch, scene_dir, hand):
    args, engagement = _engagement_inputs(monkeypatch, scene_dir, hand_model=hand)
    model, pre, squeeze, mesh = args[:4]
    full, grid_tips, _, every = _grid_queries(args, floor=_no_floor)
    assert full.tobytes() == engagement.tobytes()
    assert not np.isnan(grid_tips).any()
    onset, tips, floors, points = _grid_queries(args)
    assert onset.tobytes() == engagement.tobytes()
    # the rows it swept have the whole grid's fingertips, and it skipped
    # rows 1.. of a prefix alone
    swept = ~np.isnan(floors[:, 0])
    assert tips[swept].tobytes() == grid_tips[swept].tobytes()
    assert swept[0] and not (swept[1:-1] & ~swept[2:]).any()
    drivers = _drivers(model)
    closes = squeeze.config.joint_angles[drivers] > pre.config.joint_angles[drivers] + 1e-12
    in_box = (pipeline.sq_distance_floor(mesh, grid_tips.reshape(-1, 3)) == 0.0).reshape(
        floors.shape)
    assert np.array_equal(floors[swept] == 0.0, in_box[swept])
    # no closing tip of a skipped row, or of the row after it, is in the box
    skipped = ~swept
    assert not in_box[skipped][:, closes].any()
    assert not in_box[1:][skipped[:-1]][:, closes].any()
    # a closing finger: its in-box samples and one outer end per in-box run
    # that does not start at row 0; a finger that does not close: row 0 alone
    runs = in_box & ~np.vstack([np.ones_like(in_box[:1]), in_box[:-1]])
    want = np.where(closes, in_box.sum(axis=0) + runs[1:].sum(axis=0), in_box[0])
    ask = in_box.copy()
    ask[:-1] |= in_box[1:]
    ask[1:, ~closes] = False
    assert np.array_equal(ask.sum(axis=0), want)
    assert points.tobytes() == grid_tips[ask].tobytes()
    assert len(every) == closes.sum() * _ENGAGEMENT_SAMPLES + (~closes).sum()


def test_engagement_with_the_mesh_out_of_reach_asks_no_point(monkeypatch, mug_scene):
    (model, pre, squeeze, mesh, pose), _ = _engagement_inputs(monkeypatch, mug_scene)
    away = compose(pose_from_rotvec(np.zeros(3), (1.0, 0.0, 0.0)), pose)
    onset, _, floors, points = _grid_queries((model, pre, squeeze, mesh, away))
    # no tip can reach the box a metre away: row 0 is the only row swept
    assert (floors[0] > 0.0).all() and np.isnan(floors[1:]).all()
    assert onset.tolist() == [np.inf] * len(model.finger_drivers)
    assert points.shape == (0, 3)


def _one_joint_hand():
    """Two fingers of one joint about e_z each, the tip 0.1 m out along e_x:
    each tip turns on a circle at exactly its speed bound."""
    turned = {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.1, 0.0, 0.0]}
    links, joints = [{"name": "palm", "parent": -1}], []
    for f, z in enumerate((0.0, 0.5)):
        links.append({"name": f"base{f}", "parent": 0,
                      "offset": {"rotation": [1.0, 0.0, 0.0, 0.0], "translation": [0.0, 0.0, z]}})
        joints.append({"name": f"j{f}", "child_link": f"base{f}", "axis": [0.0, 0.0, 1.0],
                       "limits": [-1.0, 1.0]})
        links.append({"name": f"tip{f}", "parent": len(links) - 1, "offset": turned})
    return load_hand_model({"name": "one-joint", "links": links, "joints": joints,
                            "fingertip_links": ["tip0", "tip1"], "finger_drivers": ["j0", "j1"]})


@pytest.mark.parametrize("short", [5e-7, 5e-8])
def test_engagement_keeps_the_row_a_tip_stops_short_of_the_box(short):
    # finger 0's tip moves 0.2 mm per row, almost straight along +y, and a
    # box starts `short` (under 1 um) past its row 2 tip.  Row 0's box gap
    # certifies rows 1 and 2 outside the box when `short` is beyond the
    # floor's slack, and row 1 alone when it is not, as row 2 then reads in
    # the box; either way the rows whose successor may be in the box are
    # swept, and the onset keeps the bits of the whole grid's
    model = _one_joint_hand()
    assert tip_speed_bounds(model).tolist() == [0.1, 0.1]
    h = 1e-3

    def grasp(angle):
        return GraspAction(hand_model=model.name, frame=FRAME_ROBOT, residual=np.zeros(2),
                           config=HandConfiguration(identity_pose(), np.array([angle, 0.0])))

    pre, squeeze = grasp(-h), grasp(63 * h)
    grid = np.linspace(-h, 63 * h, _ENGAGEMENT_SAMPLES)
    y2 = fingertip_positions(model, grasp(grid[2]).config)[0, 1]
    box = box_mesh((0.1, 0.02, 0.02))
    mesh = TriangleMesh(box.vertices + [0.1, y2 + short + 0.01, 0.0], box.triangles)
    assert mesh.vertices[:, 1].min() - y2 == pytest.approx(short, rel=1e-6)
    args = (model, pre, squeeze, mesh, identity_pose())
    full, _, _, _ = _grid_queries(args, floor=_no_floor)
    onset, _, floors, _ = _grid_queries(args)
    assert onset.tobytes() == full.tobytes()
    assert grid[2] < onset[0] < grid[3] and onset[1] == np.inf
    slack = geometry.floor_slack(mesh)
    assert (floors[2, 0] == 0.0) == (short ** 2 <= slack)
    swept = ~np.isnan(floors[:, 0])
    assert swept[:3].tolist() == ([True, False, True] if short ** 2 > slack else [True] * 3)
    assert swept[3:].all()


def _with_drivers(grasp, model, changes):
    angles = np.array(grasp.config.joint_angles)
    for k, angle in changes.items():
        angles[_drivers(model)[k]] = angle
    return dataclasses.replace(grasp, config=HandConfiguration(grasp.config.root_pose, angles))


def test_engagement_cases_match_per_finger_oracle(monkeypatch, mug_scene):
    (model, pre, squeeze, mesh, pose), onset = _engagement_inputs(monkeypatch, mug_scene)
    drivers = _drivers(model)
    lo = pre.config.joint_angles[drivers]
    hi = squeeze.config.joint_angles[drivers]
    assert onset[0] == np.inf and np.isfinite(onset[1:]).all()
    past = 0.5 * (onset + hi)       # a driver angle already inside the body
    # finger 0 never reaches the body; 1 starts inside; 2 does not close and
    # stays outside; 3 does not close but starts inside; 4 is searched
    pre = _with_drivers(pre, model, {1: past[1], 3: past[3]})
    squeeze = _with_drivers(squeeze, model, {2: lo[2] - 0.1, 3: past[3] - 0.05})
    got = _onset(model, pre, squeeze, mesh, pose)
    _assert_onsets_agree(got, _oracle_engagement(model, pre, squeeze, mesh, pose), pre, model)
    assert got[:4].tolist() == [np.inf, past[1], np.inf, past[3]]
    assert lo[4] < got[4] < hi[4] and got[4] == onset[4]


def test_engagement_searches_every_finger_in_lockstep(monkeypatch, mug_scene):
    (model, pre, squeeze, mesh, pose), onset = _engagement_inputs(monkeypatch, mug_scene)
    sweeps, queries, sweep, query = [], [], pipeline.fingertip_rows, pipeline.surface_query

    def swept(model, root, rows):
        sweeps.append(len(rows))
        return sweep(model, root, rows)

    def queried(mesh, points):
        queries.append(len(points))
        return query(mesh, points)

    monkeypatch.setattr(pipeline, "fingertip_rows", swept)
    monkeypatch.setattr(pipeline, "surface_query", queried)
    assert _onset(model, pre, squeeze, mesh, pose).tobytes() == onset.tobytes()
    steps = len(queries) - 1
    # row 0, then the grid rows left after the skipped ones in one call, then
    # one FK sweep per ITP step for the whole hand; four fingers are
    # searched, each alone would take about as many steps
    assert sweeps[0] == 1 and 1 <= sweeps[1] < _ENGAGEMENT_SAMPLES - 1
    assert sweeps[2:] == [1] * steps
    assert 1 <= steps <= 6


def test_engagement_closes_a_grazing_edge_within_n_max(robot_model):
    # the index fingertip enters a box head-on through one face, just under
    # the edge with the next: outside, the signed distance falls as fast as
    # the tip moves; inside, the near face is the one it grazes, so the
    # distance stays flat.  Regula falsi then keeps the outer end and creeps
    # in from the inner one; ITP still closes within n_max rounds.
    k, lo, hi = 1, 0.0, 1.6
    driver = _drivers(robot_model)[k]
    rest = rest_configuration(robot_model)

    def grasp(angle):
        angles = np.array(rest.joint_angles)
        angles[driver] = angle
        return GraspAction(hand_model=robot_model.name,
                           config=HandConfiguration(rest.root_pose, angles),
                           frame=FRAME_ROBOT, residual=np.zeros(5))

    def tip(angle):
        return fingertip_positions(robot_model, grasp(angle).config)[k]

    grid = np.linspace(lo, hi, _ENGAGEMENT_SAMPLES)
    onset_at, dt, depth = grid[16] + 0.37 * (grid[17] - grid[16]), 1e-4, 1e-5
    p0 = tip(onset_at)
    ahead = tip(onset_at + dt) - tip(onset_at - dt)
    ahead /= np.linalg.norm(ahead)
    bend = tip(onset_at + dt) - 2 * p0 + tip(onset_at - dt)
    up = (bend @ ahead) * ahead - bend     # away from the arc's centre
    up /= np.linalg.norm(up)
    frame = np.column_stack([ahead, np.cross(up, ahead), up])
    box = box_mesh((0.02, 0.02, 0.01))
    # entry face through p0 facing the tip, top face `depth` above its path
    mesh = TriangleMesh(p0 + (box.vertices + [0.01, 0.0, depth - 0.005]) @ frame.T,
                        box.triangles)

    def f(angle):
        return surface_query(mesh, tip(angle)).distance[0]

    a, b = grid[16], grid[17]
    fa, fb = f(a), f(b)
    assert fa > 0.0 >= fb
    n_max = int(np.ceil(np.log2((b - a) / ENGAGEMENT_TOL))) + 1
    for _ in range(n_max):
        x = (b * fa - a * fb) / (fa - fb)
        if (fx := f(x)) <= 0.0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    assert b - a > 1e4 * ENGAGEMENT_TOL        # regula falsi has not closed

    pre, squeeze = grasp(lo), grasp(hi)
    onset, rounds = _searched(robot_model, pre, squeeze, mesh, identity_pose())
    want = _oracle_engagement(robot_model, pre, squeeze, mesh, identity_pose())
    assert np.isfinite(onset).tolist() == [False, True, False, False, False]
    _assert_onsets_agree(onset, want, pre, robot_model)
    assert abs(onset[k] - onset_at) <= ENGAGEMENT_TOL
    assert rounds == [1] * len(rounds) and len(rounds) <= n_max
    _assert_rounds_within_n_max(rounds, onset, robot_model, pre, squeeze)


@pytest.mark.parametrize("transfer", [True, False])
def test_engagement_in_the_object_frame_matches_a_moved_mesh(monkeypatch, mug_scene,
                                                             transfer):
    # the executed grasps live in the robot frame in both ablations; asking
    # the object-frame mesh through its pose finds the onsets a copy of the
    # mesh moved into the robot frame finds, up to ENGAGEMENT_TOL: the moved
    # mesh's distances differ in their last bits, and ITP reads their values
    (model, pre, squeeze, mesh, pose), onset = _engagement_inputs(
        monkeypatch, mug_scene, transfer=transfer)
    moved = _onset(model, pre, squeeze, transform_mesh(mesh, pose), identity_pose())
    _assert_onsets_agree(moved, onset, pre, model)


@pytest.mark.parametrize("transfer", [True, False])
def test_a_run_builds_one_mesh_and_its_bounds_once(monkeypatch, mug_scene, transfer):
    meshes, bound_builds = [], []
    init, bounds = TriangleMesh.__post_init__, geometry._triangle_bounds

    def counted_init(mesh):
        init(mesh)
        meshes.append(mesh)

    def counted_bounds(mesh):
        if "triangle_bounds" not in mesh._cache:
            bound_builds.append(mesh)
        return bounds(mesh)

    monkeypatch.setattr(TriangleMesh, "__post_init__", counted_init)
    monkeypatch.setattr(geometry, "_triangle_bounds", counted_bounds)
    run_pipeline(mug_scene, PipelineSettings(transfer=transfer))
    assert len(meshes) == 1
    assert bound_builds == meshes


def test_pipeline_without_transfer_uses_generated_pose(mug_scene):
    report = run_pipeline(mug_scene, PipelineSettings(transfer=False))
    assert report.execution["transfer"] is False
    assert report.verdict == "unstable"
    bundle = replay_scene(mug_scene)
    for name in ("pre", "squeeze"):
        executed = report.actions[f"{name}_executed"]
        in_object = report.actions[f"{name}_object"]
        want = compose(bundle.object_pose_generated, in_object.config.root_pose)
        assert np.allclose(pose_to_matrix(executed.config.root_pose),
                           pose_to_matrix(want), atol=1e-12)
        assert np.array_equal(executed.config.joint_angles,
                              in_object.config.joint_angles)


def test_pipeline_without_force_lock_flag(mug_scene):
    report = run_pipeline(mug_scene, PipelineSettings(force_lock=False))
    assert report.execution["force_lock"] is False
    assert not report.result.locked.any()


def test_pipeline_stage_errors_name_their_stage(mug_scene, tmp_path):
    broken = tmp_path / "mug-broken"
    shutil.copytree(mug_scene, broken)
    doc = json.loads((broken / "hand_estimate.json").read_text())
    doc["joint_angles"] = "bogus"
    (broken / "hand_estimate.json").write_text(json.dumps(doc))
    # a package error carries its stage itself: StageError wraps only others
    with pytest.raises(SchemaError, match="hand_estimate.json: joint_angles") as err:
        run_pipeline(broken)
    assert type(err.value) is SchemaError
    assert err.value.stage == "providers"

    # the providers input digest hashes the replayed files, but leaves a
    # missing one for the stage's reader to refuse
    noposes = tmp_path / "mug-noposes"
    shutil.copytree(mug_scene, noposes)
    (noposes / "poses.json").unlink()
    with pytest.raises(FixtureMissing, match="poses.json") as err:
        run_pipeline(noposes)
    assert err.value.stage == "providers"

    nocontact = tmp_path / "mug-nocontact"
    shutil.copytree(mug_scene, nocontact)
    (nocontact / "contact.json").unlink()
    with pytest.raises(FixtureMissing) as err:
        run_pipeline(nocontact)
    assert err.value.stage == "execute"


def _two_stage_that_fails(grasp, model):
    # a stage function that fails with an exception from outside the package
    raise ValueError("no plan for this grasp")


def test_foreign_stage_errors_are_wrapped_in_a_stage_error(mug_scene, tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.setattr(pipeline, "plan_two_stage", _two_stage_that_fails)
    with pytest.raises(StageError) as err:
        run_pipeline(mug_scene)
    assert err.value.stage == "two-stage"
    assert type(err.value.__cause__) is ValueError
    assert str(err.value.__cause__) == "no plan for this grasp"

    code = cli.main(["run", str(mug_scene), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: stage 'two-stage': no plan for this grasp\n"


def test_pipeline_export_writes_stage_geometry(mug_scene, tmp_path):
    out = tmp_path / "geom"
    run_pipeline(mug_scene, export_dir=out)
    expected = {"object_frame.obj", "executed_frame.obj"} | {
        f"tips_{name}.obj"
        for name in ("object", "pre_object", "squeeze_object", "pre_executed",
                     "squeeze_executed", "plan_standoff", "plan_final")}
    assert {p.name for p in out.iterdir()} == expected
    for p in out.iterdir():
        assert p.read_text().lstrip().startswith("v ")
