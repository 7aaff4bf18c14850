import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from functools import reduce
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from cases import break_obj
from conftest import MODELS_DIR, SCENES_DIR
from dextra import cli, pipeline
from dextra.cli import main
from dextra.errors import DextraError, SchemaError, StageError
from dextra.kinematics import load_hand_model, load_hand_model_file


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_writes_report_and_trace(mug_scene, tmp_path, capsys):
    out = tmp_path / "runs"
    code, stdout, _ = _run(capsys, "run", str(mug_scene), "--out", str(out))
    assert code == 0
    assert "mug-01: stable" in stdout
    report = json.loads((out / "mug-01" / "report.json").read_text())
    assert report["verdict"] == "stable"
    assert report["scene"] == "mug-01"
    assert "timings" in report
    trace = (out / "mug-01" / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,position_0")
    assert len(trace) == 1 + report["execution"]["steps"]


def test_run_missing_scene_is_usage_error(tmp_path, capsys):
    code, _, stderr = _run(capsys, "run", str(tmp_path / "nope"),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "no scene at" in stderr


def test_run_no_force_lock_damages_fragile_scene(fragile_dir, tmp_path, capsys):
    scene = fragile_dir / "fragile-01"
    code, stdout, _ = _run(capsys, "run", str(scene), "--no-force-lock",
                           "--out", str(tmp_path / "runs"))
    assert code == 1
    assert "fragile-01: damaged" in stdout


def test_run_export_obj_writes_geometry(mug_scene, tmp_path, capsys):
    out = tmp_path / "runs"
    code, _, _ = _run(capsys, "run", str(mug_scene), "--out", str(out),
                      "--export-obj")
    assert code == 0
    geometry = out / "mug-01" / "geometry"
    assert (geometry / "object_frame.obj").is_file()
    assert (geometry / "executed_frame.obj").is_file()
    assert (geometry / "tips_plan_final.obj").is_file()


def test_run_seed_flag_lands_in_report(mug_scene, tmp_path, capsys):
    out = tmp_path / "runs"
    code, _, _ = _run(capsys, "run", str(mug_scene), "--out", str(out),
                      "--seed", "17")
    assert code == 0
    report = json.loads((out / "mug-01" / "report.json").read_text())
    assert report["seed"] == 17


def test_run_bad_settings_file_is_usage_error(mug_scene, tmp_path, capsys):
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"frobnicate": 1}))
    code, _, stderr = _run(capsys, "run", str(mug_scene),
                           "--settings", str(settings),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "settings.json: unknown key 'frobnicate'" in stderr


def test_run_bad_settings_value_is_usage_error(mug_scene, tmp_path, capsys):
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"transfer": "no", "noise_sigma": -1}))
    code, _, stderr = _run(capsys, "run", str(mug_scene),
                           "--settings", str(settings),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "settings.json: transfer must be true or false" in stderr
    assert "settings.json: noise_sigma must be a non-negative number or null" in stderr


@pytest.mark.parametrize("doc", [{"stability_band": [1.1, 0.7]}, {"min_stable_fingers": 9}],
                         ids=["inverted-band", "more-fingers-than-the-hand"])
def test_removed_tuning_knob_is_an_unknown_key(mug_scene, tmp_path, capsys, doc):
    # the verdict rule is fixed in graspctl: a settings file cannot change it
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps(doc))
    key = next(iter(doc))
    code, stdout, stderr = _run(capsys, "run", str(mug_scene), "--settings", str(settings),
                                "--out", str(tmp_path / "runs"))
    assert code == 2, stdout
    assert f"settings.json: unknown key '{key}'" in stderr
    assert not (tmp_path / "runs").exists()
    code, stdout, _ = _run(capsys, "validate", "--settings", str(settings))
    assert code == 1
    assert stdout.splitlines() == [f"settings.json: unknown key '{key}'", "1 problem(s) found"]


@pytest.mark.parametrize("how", ["flag", "settings"])
def test_run_negative_seed_is_refused_before_any_stage(mug_scene, tmp_path, capsys,
                                                       monkeypatch, how):
    def run_pipeline(*args, **kwargs):
        raise AssertionError("a stage ran with a bad seed")

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"seed": -1}))
    seed = ["--seed", "-1"] if how == "flag" else ["--settings", str(settings)]
    for command in ("run", "batch"):
        code, _, stderr = _run(capsys, command, str(mug_scene), *seed,
                               "--out", str(tmp_path / "runs"))
        assert code == 2
        where = "settings" if how == "flag" else "settings.json"
        assert f"{where}: seed must be a non-negative integer" in stderr
    assert not (tmp_path / "runs").exists()


def test_run_replaces_trace_csv_atomically(mug_scene, tmp_path, capsys):
    # an earlier trace.csv hard-linked elsewhere keeps its bytes: the new
    # trace is written beside it and moved into place, not rewritten in place
    scene_out = tmp_path / "runs" / "mug-01"
    scene_out.mkdir(parents=True)
    earlier = tmp_path / "earlier.csv"
    earlier.write_text("step\n0\n")
    os.link(earlier, scene_out / "trace.csv")
    code, _, _ = _run(capsys, "run", str(mug_scene), "--out", str(tmp_path / "runs"))
    assert code == 0
    assert earlier.read_text() == "step\n0\n"
    assert (scene_out / "trace.csv").read_text().startswith("step,position_0")
    assert sorted(p.name for p in scene_out.iterdir()) == ["report.json", "trace.csv"]


@pytest.mark.parametrize("settings, scene_hand, source, hand", [
    ({"hand_model": "leap-like-16dof"}, True, "settings", "leap-like-16dof"),
    ({}, True, "scene", "inspire-like-6dof"),
    ({}, False, "default", "inspire-like-6dof"),
], ids=["settings", "scene", "default"])
def test_report_records_hand_source(mug_scene, tmp_path, capsys,
                                    settings, scene_hand, source, hand):
    scene = tmp_path / "mug-01"
    shutil.copytree(mug_scene, scene)
    if not scene_hand:
        doc = json.loads((scene / "scene.json").read_text())
        del doc["hand_model"]
        (scene / "scene.json").write_text(json.dumps(doc))
    settings_path = tmp_path / "settings.json"
    settings_path.write_text(json.dumps(settings))
    out = tmp_path / "runs"
    _run(capsys, "run", str(scene), "--settings", str(settings_path), "--out", str(out))
    report = json.loads((out / "mug-01" / "report.json").read_text())
    assert report["hand_source"] == source
    assert report["hand_model"] == hand


def test_run_refuses_force_table_as_hand_model(mug_scene, tmp_path, capsys):
    # `validate` and `run` refuse a hand_model that names no bundled robot
    # hand alike; the human hand maps no human joints, so it cannot be driven
    settings = tmp_path / "settings.json"
    finding = ("settings.json: hand_model must name a bundled hand model that has a "
               "human_joint_map, or be null")
    for name in ("force_table", "nope", "", "human-20dof"):
        settings.write_text(json.dumps({"hand_model": name}))
        code, _, stderr = _run(capsys, "run", str(mug_scene), "--settings", str(settings),
                               "--out", str(tmp_path / "runs"))
        assert code == 2, name
        assert finding in stderr
        code, stdout, _ = _run(capsys, "validate", "--settings", str(settings))
        assert (code, stdout.splitlines()[0]) == (1, finding), name
    assert not (tmp_path / "runs").exists()


def test_run_hand_model_setting_overrides_scene(mug_scene, tmp_path, capsys):
    # mug-01's scene.json names the inspire hand; the explicit setting wins
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps({"hand_model": "leap-like-16dof"}))
    out = tmp_path / "runs"
    _run(capsys, "run", str(mug_scene), "--settings", str(settings), "--out", str(out))
    report = json.loads((out / "mug-01" / "report.json").read_text())
    assert report["hand_model"] == "leap-like-16dof"
    assert {g["hand_model"] for g in report["grasps"].values()} == {"leap-like-16dof"}


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def test_batch_summarizes_every_scene(fragile_dir, tmp_path, capsys):
    out = tmp_path / "batch"
    code, stdout, _ = _run(capsys, "batch", str(fragile_dir), "--out", str(out))
    assert code == 0
    doc = json.loads((out / "summary.json").read_text())
    assert doc["scene_count"] == 10
    assert doc["stable_count"] == 10
    assert doc["success_rate"] == 1.0
    assert doc["seed"] == 0
    assert [r["scene"] for r in doc["scenes"]] == sorted(r["scene"] for r in doc["scenes"])
    assert stdout.count("stable") >= 10

    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == ("scene,object_name,verdict,f_target,depth_shift,"
                       "steps,max_residual,final_forces")
    assert len(rows) == 11
    for name in (r["scene"] for r in doc["scenes"]):
        assert (out / name / "report.json").is_file()
        assert (out / name / "trace.csv").is_file()


def test_batch_same_seed_is_byte_identical(fragile_dir, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(capsys, "batch", str(fragile_dir), "--out", str(a))[0] == 0
    assert _run(capsys, "batch", str(fragile_dir), "--out", str(b))[0] == 0
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batch_records_a_broken_scene_and_runs_the_rest(fragile_dir, tmp_path, capsys):
    # fragile-03 with half its faces gone fails in the providers stage; the
    # other nine run, and their rows are those of the intact batch
    root = tmp_path / "scenes"
    shutil.copytree(fragile_dir, root)
    obj = root / "fragile-03" / "object.obj"
    obj.write_text(break_obj(obj.read_text(), "open"))
    out, intact = tmp_path / "batch", tmp_path / "intact"
    code, stdout, _ = _run(capsys, "batch", str(root), "--out", str(out))
    assert code == 1
    message = "object.obj: 96 edges belong to one face"
    assert f"fragile-03: error: stage 'providers': {message}\n" in stdout
    assert sorted(p.parent.name for p in out.glob("*/report.json")) == [
        f"fragile-{k:02d}" for k in range(1, 11) if k != 3]

    assert _run(capsys, "batch", str(fragile_dir), "--out", str(intact))[0] == 0
    doc, want = (json.loads((d / "summary.json").read_text()) for d in (out, intact))
    error = {"scene": "fragile-03", "stage": "providers", "error": "SchemaError",
             "message": message}
    assert doc["scenes"] == [error if r["scene"] == "fragile-03" else r for r in want["scenes"]]
    assert (doc["scene_count"], doc["stable_count"]) == (10, 9)
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[0] == ("scene,object_name,verdict,f_target,depth_shift,"
                       "steps,max_residual,final_forces,stage,error,message")
    assert rows[3] == f"fragile-03,,,,,,,,providers,SchemaError,{message}"
    assert rows[1:3] + rows[4:] == [
        row + ",,," for row in (intact / "summary.csv").read_text().splitlines()[1:] if
        not row.startswith("fragile-03,")]

    # a batch whose every scene fails still writes its summaries
    shutil.copytree(root / "fragile-03", tmp_path / "alone" / "fragile-03")
    code, _, _ = _run(capsys, "batch", str(tmp_path / "alone"), "--out", str(tmp_path / "a"))
    doc = json.loads((tmp_path / "a" / "summary.json").read_text())
    assert (code, doc["stable_count"], doc["mean_residual"], doc["scenes"]) == (1, 0, None,
                                                                               [error])


def test_batch_rejects_duplicate_scene_names(fragile_dir, tmp_path, capsys):
    root = tmp_path / "scenes"
    shutil.copytree(fragile_dir / "fragile-01", root / "fragile-01")
    shutil.copytree(fragile_dir / "fragile-01", root / "nested" / "fragile-01")
    code, _, stderr = _run(capsys, "batch", str(root),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "duplicate scene names: fragile-01" in stderr

    # distinct directories whose scene.json carry one name would share
    # out/<name>/: refused before any scene runs
    root = tmp_path / "renamed"
    shutil.copytree(fragile_dir / "fragile-01", root / "a")
    shutil.copytree(fragile_dir / "fragile-02", root / "b")
    doc = json.loads((root / "b" / "scene.json").read_text())
    (root / "b" / "scene.json").write_text(json.dumps({**doc, "name": "fragile-01"}))
    code, stdout, stderr = _run(capsys, "batch", str(root), "--out", str(tmp_path / "out"))
    assert code == 2, stdout
    assert "duplicate scene names: fragile-01" in stderr
    assert stdout == ""
    assert not (tmp_path / "out").exists()


def test_run_and_batch_write_a_scene_under_its_scene_json_name(fragile_dir, tmp_path,
                                                               capsys):
    root = tmp_path / "scenes"
    scene = root / "b"
    shutil.copytree(fragile_dir / "fragile-02", scene)
    doc = json.loads((scene / "scene.json").read_text())
    (scene / "scene.json").write_text(json.dumps({**doc, "name": "other"}))
    for command, target in (("run", scene), ("batch", root)):
        out = tmp_path / command
        code, stdout, stderr = _run(capsys, command, str(target), "--out", str(out))
        assert code in (0, 1), stdout + stderr
        assert (out / "other" / "report.json").is_file(), command
        assert not (out / "b").exists(), command
    reports = [json.loads((tmp_path / command / "other" / "report.json").read_text())
               for command in ("run", "batch")]
    for report in reports:
        del report["timings"]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["", ".", "..", "../escaped", "a/b", "a\\b", "ABS"])
def test_a_scene_name_that_is_not_one_path_component_is_refused(fragile_dir, tmp_path,
                                                                capsys, name):
    # run and batch write to --out/<name>: a name with a separator, '.' or '..'
    # would write beside or above --out, an absolute one anywhere
    name = str(tmp_path / "escaped") if name == "ABS" else name
    root = tmp_path / "scenes"
    shutil.copytree(fragile_dir / "fragile-01", root / "s")
    doc = json.loads((root / "s" / "scene.json").read_text())
    (root / "s" / "scene.json").write_text(json.dumps({**doc, "name": name}))
    code, stdout, _ = _run(capsys, "validate", str(root / "s"))
    assert code == 1
    assert "scene.json: name must be one path component" in stdout
    out = tmp_path / "runs" / "out"
    code, stdout, stderr = _run(capsys, "run", str(root / "s"), "--out", str(out))
    assert code == 2, stdout + stderr
    assert "name must be one path component" in stderr
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenes"]
    # batch makes the refused scene.json its directory's error row, and
    # writes its summaries only
    code, stdout, stderr = _run(capsys, "batch", str(root), "--out", str(out))
    assert code == 1, stdout + stderr
    assert stdout.startswith("s: error: scene.json: name must be one path component")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["runs", "scenes"]
    written = sorted(p.relative_to(tmp_path).as_posix() for p in (tmp_path / "runs").rglob("*"))
    assert written == ["runs/out", "runs/out/summary.csv", "runs/out/summary.json"]


def test_a_scene_without_a_name_is_named_by_its_resolved_directory(fragile_dir, tmp_path,
                                                                    capsys, monkeypatch):
    scene = tmp_path / "fragile-unnamed"
    shutil.copytree(fragile_dir / "fragile-01", scene)
    doc = json.loads((scene / "scene.json").read_text())
    del doc["name"]
    (scene / "scene.json").write_text(json.dumps(doc))
    monkeypatch.chdir(scene)
    out = tmp_path / "out"
    code, stdout, stderr = _run(capsys, "run", ".", "--out", str(out))
    assert code in (0, 1), stdout + stderr
    assert stdout.startswith("fragile-unnamed: ")
    assert sorted(p.name for p in out.iterdir()) == ["fragile-unnamed"]


def test_batch_records_a_scene_json_that_is_not_an_object(fragile_dir, tmp_path, capsys):
    # the refused scene.json is its directory's error row, with no stage, and
    # the other scenes run
    root = tmp_path / "scenes"
    for name in ("fragile-01", "fragile-02", "fragile-03"):
        shutil.copytree(fragile_dir / name, root / name)
    (root / "fragile-02" / "scene.json").write_text("[]")
    out = tmp_path / "out"
    code, stdout, stderr = _run(capsys, "batch", str(root), "--out", str(out))
    assert code == 1, stderr
    message = "scene.json: the document must be a JSON object"
    assert stdout.splitlines()[:3] == ["fragile-01: stable", f"fragile-02: error: {message}",
                                       "fragile-03: stable"]
    assert sorted(p.parent.name for p in out.glob("*/report.json")) == ["fragile-01",
                                                                         "fragile-03"]
    doc = json.loads((out / "summary.json").read_text())
    assert doc["scenes"][1] == {"scene": "fragile-02", "stage": None, "error": "SchemaError",
                                "message": message}
    assert (doc["scene_count"], doc["stable_count"]) == (3, 2)
    rows = (out / "summary.csv").read_text().splitlines()
    assert rows[2] == f"fragile-02,,,,,,,,,SchemaError,{message}"

    # repeated names are refused before any scene runs, over the scenes
    # whose scene.json loads
    shutil.copytree(fragile_dir / "fragile-01", root / "nested" / "fragile-01")
    code, stdout, stderr = _run(capsys, "batch", str(root), "--out", str(tmp_path / "dup"))
    assert (code, stdout) == (2, ""), stderr
    assert "duplicate scene names: fragile-01" in stderr
    assert not (tmp_path / "dup").exists()


def test_batch_order_does_not_depend_on_the_filesystem(tmp_path, monkeypatch):
    # two directories named cup under different parents: ordered by path
    found = [tmp_path / "b" / "cup" / "scene.json", tmp_path / "mug" / "scene.json",
             tmp_path / "a" / "cup" / "scene.json"]
    orders = []
    for listing in (found, found[::-1]):
        monkeypatch.setattr(Path, "rglob", lambda self, pattern: iter(listing))
        orders.append(cli._discover_scenes(tmp_path))
    assert orders[0] == orders[1] == [tmp_path / "a" / "cup", tmp_path / "b" / "cup",
                                      tmp_path / "mug"]


def test_batch_empty_or_missing_roots_are_usage_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, stderr = _run(capsys, "batch", str(empty),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "no scenes under" in stderr
    code, _, stderr = _run(capsys, "batch", str(tmp_path / "missing"),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "no scene directory" in stderr


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_clean_scene(mug_scene, capsys):
    code, stdout, _ = _run(capsys, "validate", str(mug_scene))
    assert code == 0
    assert stdout.strip() == "ok"


def test_validate_every_bundled_scene(scenes_dir, capsys):
    scene_dirs = sorted(p.parent for p in scenes_dir.rglob("scene.json"))
    assert len(scene_dirs) == 11
    for scene in scene_dirs:
        code, stdout, _ = _run(capsys, "validate", str(scene))
        assert (code, stdout) == (0, "ok\n"), scene.name


def _drop_last_joint_angle(doc):
    doc["joint_angles"].pop()


def _first_joint_angle_reads(value):
    def edit(doc):
        doc["joint_angles"][0] = value
    return edit


def _sets(*keys, value):
    def edit(doc):
        reduce(lambda d, k: d[k], keys[:-1], doc)[keys[-1]] = value
    return edit


def _misspell_stiffness(doc):
    doc["stifness"] = doc.pop("stiffness")


def _first_vertex_reads(value):
    def edit(text):
        lines = text.splitlines(keepends=True)
        i = next(i for i, line in enumerate(lines) if line.startswith("v "))
        lines[i] = f"v {value} {' '.join(lines[i].split()[2:])}\n"
        return "".join(lines)
    return edit


# one field of fragile-01 changed per case: `validate` must report it and
# `run` must refuse the scene with the same finding, without a numpy warning
BROKEN_FIXTURES = [
    pytest.param("contact.json", {"noise_sigma": -0.5}, id="negative-noise"),
    pytest.param("hand_estimate.json", _drop_last_joint_angle, id="joint-angles-short"),
    pytest.param("hand_estimate.json", _first_joint_angle_reads(1e308),
                 id="joint-angle-past-limit"),
    pytest.param("contact.json", {"yield_force": -1}, id="negative-yield-force"),
    pytest.param("contact.json", {"dt": 0}, id="contact-dt"),
    pytest.param("contact.json", {"stiffness": [50.0, 50.0]}, id="two-stiffnesses"),
    pytest.param("scene.json", {"mesh_scale": 0}, id="zero-mesh-scale"),
    pytest.param("scene.json", {"hand_model": "human-20dof"}, id="human-hand-model"),
    pytest.param("scene.json", {"contact_fingers": [9]}, id="contact-finger-out-of-range"),
    pytest.param("hand_estimate.json", {"fingertip_points": [[0.0, 0.0, 0.5]] * 2},
                 id="two-fingertip-points"),
    pytest.param("scene.json", {"prompt_kind": "visual-region"}, id="region-without-mask"),
    pytest.param("contact.json", {"gains": {"kp": 1.0, "kd": 0.0}}, id="contact-gains"),
    pytest.param("contact.json", {"max_steps": 5}, id="contact-max-steps"),
    pytest.param("contact.json", _misspell_stiffness, id="misspelt-key"),
    pytest.param("scene.json", lambda doc: doc.pop("object_name"), id="no-object-name"),
    pytest.param("object.obj", b"\xff\xfe\x00", id="obj-not-utf8"),
    pytest.param("object.obj", _first_vertex_reads("nan"), id="obj-nan-vertex"),
    pytest.param("object.obj", _first_vertex_reads("inf"), id="obj-inf-vertex"),
    pytest.param("object.obj", _first_vertex_reads("1e200"), id="obj-huge-vertex"),
    # numbers past the length bound, or a rotation whose squared norm
    # overflows, once validated ok and then overflowed in a stage
    pytest.param("object.obj", _first_vertex_reads("1e150"), id="obj-vertex-past-length-bound"),
    pytest.param("poses.json", _sets("object_pose_generated", "translation", 0, value=1e160),
                 id="pose-translation-past-length-bound"),
    pytest.param("poses.json",
                 _sets("object_pose_generated", "rotation", value=[1e308, 1e308, 0, 0]),
                 id="pose-rotation-norm-overflows"),
    # a subnormal squared norm: dividing by the norm leaves no unit quaternion
    pytest.param("poses.json", _sets("hand_eye", "rotation", value=[3e-162, 3e-162, 0, 0]),
                 id="pose-rotation-norm-subnormal"),
    pytest.param("scene.json", b"[]", id="scene-json-list"),
    pytest.param("hand_estimate.json", b"[]", id="estimate-json-list"),
    # keys that no stage acts on are refused, not ignored
    pytest.param("scene.json", {"generated_image": "generated.png"}, id="generated-image-key"),
    pytest.param("hand_estimate.json", {"keypoints_independent": True},
                 id="independent-keypoints-key"),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, edit", BROKEN_FIXTURES)
def test_broken_fixture_fails_validate_and_run_alike(fragile_dir, tmp_path, capsys,
                                                     name, edit):
    scene = tmp_path / "fragile-01"
    shutil.copytree(fragile_dir / "fragile-01", scene)
    if isinstance(edit, bytes):
        (scene / name).write_bytes(edit)
    elif name.endswith(".obj"):
        (scene / name).write_text(edit((scene / name).read_text()))
    else:
        doc = json.loads((scene / name).read_text())
        if isinstance(edit, dict):
            doc.update(edit)
        else:
            edit(doc)
        (scene / name).write_text(json.dumps(doc))

    code, stdout, _ = _run(capsys, "validate", str(scene))
    findings = stdout.splitlines()[:-1]
    assert code == 1
    assert stdout.splitlines()[-1] == f"{len(findings)} problem(s) found"
    assert findings and all(name in f for f in findings), findings

    code, stdout, stderr = _run(capsys, "run", str(scene), "--out", str(tmp_path / "runs"))
    assert code == 2, stdout + stderr
    assert all(f in stderr for f in findings), (findings, stderr)
    assert not (tmp_path / "runs").exists()


FRAGILE_01 = SCENES_DIR / "fragile" / "fragile-01"
VERTICES = sum(line.startswith("v ") for line in
               (FRAGILE_01 / "object.obj").read_text().splitlines())
POSE_NAMES = ("object_pose_generated", "object_pose_observed", "hand_eye")
# edges of the float range, and numbers a length or a rotation may not take
EDGE_NUMBERS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e150, -1e150, 0.0, -1.0, 5e-324)


@st.composite
def fixture_numbers(draw):
    """(file, where, value): one object.obj vertex coordinate, poses.json
    pose component, or hand_estimate.json root translation or fingertip
    coordinate of fragile-01, and the value it is set to."""
    name = draw(st.sampled_from(["object.obj", "poses.json", "hand_estimate.json"]))
    if name == "object.obj":
        where = (draw(st.integers(0, VERTICES - 1)), draw(st.integers(0, 2)))
    elif name == "poses.json":
        part = draw(st.sampled_from(["rotation", "translation"]))
        where = (draw(st.sampled_from(POSE_NAMES)), part,
                 draw(st.integers(0, 3 if part == "rotation" else 2)))
    else:
        tip = draw(st.integers(-1, 4))     # -1: the root translation
        where = (("root_pose", "translation") if tip < 0 else ("fingertip_points", tip)) \
            + (draw(st.integers(0, 2)),)
    return name, where, draw(st.sampled_from(EDGE_NUMBERS))


def _captured(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _non_finite(doc, path=""):
    """Where a report spells a non-finite number, apart from the documented
    "inf" engagement of a finger that never touches."""
    if isinstance(doc, dict):
        return [p for k, v in doc.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(doc, list):
        return [p for i, v in enumerate(doc) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(doc, str) and doc in ("nan", "inf", "-inf"):
        return [] if doc == "inf" and path.startswith(".execution.engagement[") else [path]
    return []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@seed(1901)
@settings(max_examples=50)
@given(fixture_numbers())
def test_fixture_numbers_are_refused_alike_or_run_to_a_finite_report(edit):
    # `validate` and `run` refuse the file with the same findings; or the scene
    # is well formed and `run` ends in a verdict with an all-finite report, or
    # stops on a package error naming its stage (an object moved away from
    # every fingertip leaves no contact finger).  No numpy warning either way
    name, where, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "fragile-01"
        shutil.copytree(FRAGILE_01, scene)
        path = scene / name
        if name == "object.obj":
            lines = path.read_text().splitlines(keepends=True)
            i = [k for k, line in enumerate(lines) if line.startswith("v ")][where[0]]
            coords = lines[i].split()
            coords[1 + where[1]] = repr(value)
            lines[i] = " ".join(coords) + "\n"
            path.write_text("".join(lines))
        else:
            doc = json.loads(path.read_text())
            _sets(*where, value=value)(doc)
            path.write_text(json.dumps(doc))

        code, stdout, _ = _captured("validate", str(scene))
        raised = []

        def run_pipeline(*args, **kwargs):
            try:
                return pipeline.run_pipeline(*args, **kwargs)
            except Exception as exc:
                raised.append(exc)
                raise

        with mock.patch.object(cli, "run_pipeline", run_pipeline):
            run_code, _, stderr = _captured("run", str(scene), "--out", f"{tmp}/runs")
        findings = stdout.splitlines()[:-1]
        if code == 1:
            assert findings and all(name in f for f in findings), findings
            assert run_code == 2 and all(f in stderr for f in findings), (findings, stderr)
        elif raised:
            assert (code, stdout) == (0, "ok\n")
            assert run_code == 1 and isinstance(raised[0], DextraError), stderr
            assert not isinstance(raised[0], StageError), stderr
        else:
            assert (code, stdout) == (0, "ok\n") and run_code in (0, 1)
            report = json.loads((scene.parent / "runs" / "fragile-01" / "report.json").read_text())
            assert _non_finite(report) == []


# fragile-01's JSON fixtures, and a settings file with every setting at its
# default, which runs like no settings file
SHAPED_DOCS = {
    **{name: json.loads((FRAGILE_01 / name).read_text())
       for name in ("scene.json", "contact.json", "hand_estimate.json", "poses.json")},
    "settings.json": {"hand_model": None, "transfer": True, "force_lock": True, "seed": 0,
                      "noise_sigma": None},
}


def _key_paths(doc, path=()):
    """The path of every object key and list index in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    return [p for k, v in items for p in ((*path, k), *_key_paths(v, (*path, k)))]


@st.composite
def fixture_shapes(draw):
    """(file, key path, value): one key of a file in `SHAPED_DOCS` set to a
    value of another type, a list one item short or long, an empty list or
    object, or null."""
    name = draw(st.sampled_from(sorted(SHAPED_DOCS)))
    doc = SHAPED_DOCS[name]
    where = draw(st.sampled_from(_key_paths(doc)))
    old = reduce(lambda d, k: d[k], where, doc)
    lengths = [old[:-1], old + old[-1:]] if isinstance(old, list) and old else []
    return name, where, draw(st.sampled_from([None, [], {}, "text", 0.5, 7, True, *lengths]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@seed(2102)
@settings(max_examples=80)
@given(fixture_shapes())
def test_fixture_shapes_are_refused_alike_or_run_to_a_verdict(edit):
    # `validate` and `run` refuse the file with the same findings, or the
    # scene is well formed and `run` writes a report with its verdict
    name, where, value = edit
    with tempfile.TemporaryDirectory() as tmp:
        scene = Path(tmp) / "fragile-01"
        shutil.copytree(FRAGILE_01, scene)
        settings_file = Path(tmp) / "settings.json"
        settings_file.write_text(json.dumps(SHAPED_DOCS["settings.json"]))
        doc = json.loads(json.dumps(SHAPED_DOCS[name]))
        _sets(*where, value=value)(doc)
        (settings_file if name == "settings.json" else scene / name).write_text(json.dumps(doc))

        flags = ("--settings", str(settings_file))
        code, stdout, _ = _captured("validate", str(scene), *flags)
        run_code, _, stderr = _captured("run", str(scene), *flags, "--out", f"{tmp}/runs")
        findings = stdout.splitlines()[:-1]
        if code == 1:
            assert findings and all(name in f for f in findings), findings
            assert run_code == 2 and all(f in stderr for f in findings), (findings, stderr)
        else:
            assert (code, stdout) == (0, "ok\n") and run_code in (0, 1), stderr
            assert list(Path(tmp).glob("runs/*/report.json")), stderr


def test_broken_contact_is_refused_before_any_stage_work(fragile_dir, tmp_path, capsys,
                                                        monkeypatch):
    scene = tmp_path / "fragile-01"
    shutil.copytree(fragile_dir / "fragile-01", scene)
    doc = json.loads((scene / "contact.json").read_text())
    (scene / "contact.json").write_text(json.dumps({**doc, "dt": 0}))

    def align_depth(*args, **kwargs):
        raise AssertionError("align-depth ran before contact.json was read")

    monkeypatch.setattr(pipeline, "align_depth", align_depth)
    code, stdout, stderr = _run(capsys, "run", str(scene), "--out", str(tmp_path / "runs"))
    assert code == 2, stdout + stderr
    assert "contact.json: unknown key 'dt'" in stderr


def test_validate_reads_every_file_past_a_broken_one(mug_scene, tmp_path, capsys):
    broken = tmp_path / "mug-broken"
    shutil.copytree(mug_scene, broken)
    (broken / "scene.json").write_text("{not json")
    (broken / "poses.json").write_text(json.dumps({"hand_eye": {}}))
    code, stdout, _ = _run(capsys, "validate", str(broken))
    assert code == 1
    assert "scene.json: not valid JSON" in stdout
    assert "poses.json: missing 'object_pose_generated'" in stdout
    assert "poses.json: hand_eye must be a pose" in stdout
    assert "4 problem(s) found" in stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("how, finding", [
    ("open", "object.obj: 96 edges belong to one face"),
    ("mixed", "object.obj: 96 edges are walked the same way by two faces"),
])
def test_a_mug_with_no_inside_is_refused(mug_scene, tmp_path, capsys, how, finding):
    # half the faces dropped, or every other face flipped, which would run
    # into a numpy warning in the onset search
    broken = tmp_path / "mug-01"
    shutil.copytree(mug_scene, broken)
    (broken / "object.obj").write_text(break_obj((mug_scene / "object.obj").read_text(), how))
    code, stdout, _ = _run(capsys, "validate", str(broken))
    assert (code, stdout) == (1, f"{finding}\n1 problem(s) found\n")
    code, _, stderr = _run(capsys, "run", str(broken), "--out", str(tmp_path / "runs"))
    assert (code, stderr) == (2, f"error: stage 'providers': {finding}\n")


def test_validate_reports_broken_mesh(mug_scene, tmp_path, capsys):
    broken = tmp_path / "mug-broken"
    shutil.copytree(mug_scene, broken)
    (broken / "object.obj").write_text("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    code, stdout, _ = _run(capsys, "validate", str(broken))
    assert code == 1
    assert "object.obj" in stdout
    assert "problem(s) found" in stdout


def test_validate_hand_model_and_mesh_files(mug_scene, tmp_path, capsys):
    code, stdout, _ = _run(capsys, "validate",
                           str(MODELS_DIR / "inspire-like-6dof.json"))
    assert code == 0 and stdout.strip() == "ok"

    code, stdout, _ = _run(capsys, "validate", str(mug_scene / "object.obj"))
    assert code == 0 and stdout.strip() == "ok"

    bad = tmp_path / "model.json"
    bad.write_text(json.dumps({"name": "x", "links": [], "joints": [],
                               "fingertip_links": []}))
    code, stdout, _ = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "problem(s) found" in stdout


def test_validate_force_table(tmp_path, capsys):
    code, stdout, _ = _run(capsys, "validate", str(MODELS_DIR / "force_table.json"))
    assert code == 0 and stdout.strip() == "ok"

    bad = tmp_path / "force_table.json"
    bad.write_text(json.dumps({"mug": 0}))
    code, stdout, _ = _run(capsys, "validate", str(bad))
    assert code == 1
    assert stdout.splitlines() == [
        "force_table.json: the force table must map object names to positive forces (N)",
        "1 problem(s) found"]


def test_validate_unknown_inputs(tmp_path, capsys):
    code, _, stderr = _run(capsys, "validate", str(tmp_path / "ghost"))
    assert code == 2
    assert "no fixture at" in stderr

    stray = tmp_path / "notes.txt"
    stray.write_text("hello")
    code, stdout, _ = _run(capsys, "validate", str(stray))
    assert code == 1
    assert "not a scene directory, hand model JSON, or OBJ mesh" in stdout


def test_validate_settings_file(mug_scene, tmp_path, capsys):
    settings = tmp_path / "settings.json"
    # the optimizer and gains sections are gone: their values are constants
    settings.write_text(json.dumps({"optimizer": {"max_iterations": 50}, "gains": {"kp": 3.0},
                                    "seed": 3}))
    code, stdout, _ = _run(capsys, "validate", "--settings", str(settings))
    assert code == 1
    assert stdout.splitlines() == ["settings.json: unknown key 'optimizer'",
                                   "settings.json: unknown key 'gains'",
                                   "2 problem(s) found"]
    # `run` refuses the same file before any stage
    code, _, stderr = _run(capsys, "run", str(mug_scene), "--settings", str(settings),
                           "--out", str(tmp_path / "runs"))
    assert code == 2
    assert "settings.json: unknown key 'optimizer'" in stderr

    settings.write_text(json.dumps({"hand_model": "leap-like-16dof", "transfer": True,
                                    "force_lock": False, "seed": 3, "noise_sigma": 0.05}))
    code, stdout, _ = _run(capsys, "validate", "--settings", str(settings))
    assert (code, stdout) == (0, "ok\n")
    code, stdout, _ = _run(capsys, "validate", str(mug_scene), "--settings", str(settings))
    assert (code, stdout) == (0, "ok\n")


def test_validate_without_a_fixture_or_settings_is_usage_error(tmp_path, capsys):
    code, _, stderr = _run(capsys, "validate")
    assert code == 2
    assert "nothing to validate" in stderr
    code, _, stderr = _run(capsys, "validate", "--settings", str(tmp_path / "ghost.json"))
    assert code == 2
    assert "no settings file at" in stderr


# each case edits the inspire hand (which has a mimic) or replaces the file text
_BROKEN_MODELS = {
    "misspelt-key": (lambda d: d.update(approach_axes=[0, 0, 1]),
                     "unknown key 'approach_axes'"),
    "misspelt-joint-key": (lambda d: d["joints"][0].update(rset=0.0),
                           "unknown key 'joints[0].rset'"),
    "unknown-link-key": (lambda d: d["links"][1].update(mass=0.01),
                         "unknown key 'links[1].mass'"),
    "unknown-mimic-key": (lambda d: d["mimics"][0].update(offset=0.0),
                          "unknown key 'mimics[0].offset'"),
    "text-limit": (lambda d: d["joints"][0].update(limits=["a", 1]),
                   "joints[0].limits must be two numbers"),
    "one-limit": (lambda d: d["joints"][0].update(limits=[0.5]),
                  "joints[0].limits must be two numbers"),
    "zero-quaternion": (lambda d: d["links"][1]["offset"].update(rotation=[0, 0, 0, 0]),
                        "links[1].offset must be a pose"),
    "links-number": (lambda d: d.update(links=5), "links must be a list of links"),
    "text-rest": (lambda d: d["joints"][0].update(rest="zero"),
                  "joints[0].rest must be a number"),
    "huge-rest": (lambda d: d["joints"][0].update(rest=10 ** 400),
                  "joints[0].rest must be a number"),
    "half-map-pair": (lambda d: d["human_joint_map"][0].pop(),
                      "human_joint_map must be a list of [human joint, model joint] name pairs"),
    "text-ratio": (lambda d: d["mimics"][0].update(ratio="half"),
                   "mimics[0].ratio must be a number"),
    "not-json": ("{not json", "not valid JSON"),
    "json-list": ("[]", "the document must be a JSON object"),
}


@pytest.mark.parametrize("case", list(_BROKEN_MODELS))
def test_validate_reports_broken_hand_model(tmp_path, capsys, case):
    edit, finding = _BROKEN_MODELS[case]
    path = tmp_path / "model.json"
    doc = None
    if isinstance(edit, str):
        path.write_text(edit)
    else:
        doc = json.loads((MODELS_DIR / "inspire-like-6dof.json").read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
    # an uncaught error would surface here as a raised exception, not exit 1
    code, stdout, stderr = _run(capsys, "validate", str(path))
    *findings, summary = stdout.splitlines()
    assert code == 1 and not stderr
    assert summary == f"{len(findings)} problem(s) found"
    assert all(f.startswith("model.json: ") for f in findings), findings
    assert any(f.startswith(f"model.json: {finding}") for f in findings), findings
    with pytest.raises(SchemaError):
        load_hand_model(doc) if doc is not None else load_hand_model_file(path)
