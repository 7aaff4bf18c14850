import json
import shutil

import pytest

from dextra.cli import main


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
    assert "unknown settings key" in stderr


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


def test_batch_rejects_duplicate_scene_names(fragile_dir, tmp_path, capsys):
    root = tmp_path / "scenes"
    shutil.copytree(fragile_dir / "fragile-01", root / "fragile-01")
    shutil.copytree(fragile_dir / "fragile-01", root / "nested" / "fragile-01")
    code, _, stderr = _run(capsys, "batch", str(root),
                           "--out", str(tmp_path / "out"))
    assert code == 2
    assert "duplicate scene names: fragile-01" in stderr


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


def test_validate_reports_broken_mesh(mug_scene, tmp_path, capsys):
    broken = tmp_path / "mug-broken"
    shutil.copytree(mug_scene, broken)
    (broken / "object.obj").write_text("v 0 0 0\nv 1 0 0\nf 1 2 9\n")
    code, stdout, _ = _run(capsys, "validate", str(broken))
    assert code == 1
    assert "object.obj" in stdout
    assert "problem(s) found" in stdout


def test_validate_hand_model_and_mesh_files(mug_scene, tmp_path, capsys):
    from conftest import MODELS_DIR
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


def test_validate_unknown_inputs(tmp_path, capsys):
    code, _, stderr = _run(capsys, "validate", str(tmp_path / "ghost"))
    assert code == 2
    assert "no fixture at" in stderr

    stray = tmp_path / "notes.txt"
    stray.write_text("hello")
    code, stdout, _ = _run(capsys, "validate", str(stray))
    assert code == 1
    assert "not a scene directory, hand model JSON, or OBJ mesh" in stdout
