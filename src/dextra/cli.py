"""Command line front end: run one scene, evaluate a batch, validate fixtures.

Exit codes follow one contract everywhere: 0 means success (a stable grasp,
a fully stable batch, a clean fixture), 1 means the work ran but failed
(unstable or damaged verdicts, validation findings), and 2 means the
request itself was unusable (bad arguments, missing or malformed fixtures).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import DextraError, FixtureMissing, SchemaError
from .graspctl import write_trace_csv
from .kinematics import bundled_model, load_hand_model_file
from .pipeline import (
    DEFAULT_HAND_MODEL,
    PipelineSettings,
    canonical,
    run_pipeline,
    settings_from_file,
)
from .reconstruction import PROMPT_KINDS, SceneFixture

_USAGE_ERROR = 2
_RUN_FAILED = 1


def _load_settings(args) -> PipelineSettings:
    settings = settings_from_file(args.settings) if args.settings else PipelineSettings()
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    if getattr(args, "no_force_lock", False):
        settings = replace(settings, force_lock=False)
    if getattr(args, "no_transfer", False):
        settings = replace(settings, transfer=False)
    return settings


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _error_exit(exc: DextraError) -> int:
    stage = getattr(exc, "stage", None)
    prefix = f"stage '{stage}': " if stage else ""
    code = _USAGE_ERROR if isinstance(exc, (FixtureMissing, SchemaError)) else _RUN_FAILED
    return _fail(f"error: {prefix}{exc}", code)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _emit_scene(out_dir: Path, report) -> None:
    _write_text(out_dir / "report.json", report.to_json(include_timings=True))
    trace_path = out_dir / "trace.csv"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(trace_path, report.result)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    scene_dir = Path(args.scene)
    if not (scene_dir / "scene.json").is_file():
        return _fail(f"error: no scene at {scene_dir}", _USAGE_ERROR)
    try:
        settings = _load_settings(args)
        export = None
        out_dir = Path(args.out) / scene_dir.name
        if args.export_obj:
            export = out_dir / "geometry"
        report = run_pipeline(scene_dir, settings, export_dir=export)
    except DextraError as exc:
        return _error_exit(exc)
    _emit_scene(out_dir, report)
    forces = " ".join(f"{f:.3f}" for f in report.result.final_forces)
    print(f"{report.scene}: {report.verdict} "
          f"(target {report.f_target:g} N, final [{forces}] N, "
          f"{report.result.steps} steps) -> {out_dir / 'report.json'}")
    return 0 if report.verdict == "stable" else _RUN_FAILED


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def _discover_scenes(root: Path) -> list:
    return sorted((p.parent for p in root.rglob("scene.json")),
                  key=lambda p: p.name)


def _summary_rows(reports) -> list:
    rows = []
    for report in reports:
        rows.append({
            "scene": report.scene,
            "object_name": report.object_name,
            "verdict": report.verdict,
            "f_target": report.f_target,
            "final_forces": [float(f) for f in report.result.final_forces],
            "residual": report.retarget["residual"],
            "depth_shift": report.alignment["depth_shift"],
            "steps": report.result.steps,
        })
    return rows


def _summary_doc(rows, seed: int) -> dict:
    stable = sum(1 for r in rows if r["verdict"] == "stable")
    residuals = [v for r in rows for v in r["residual"]]
    return canonical({
        "scene_count": len(rows),
        "stable_count": stable,
        "success_rate": stable / len(rows),
        "mean_residual": float(np.mean(residuals)),
        "seed": seed,
        "scenes": rows,
    })


def _summary_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scene", "object_name", "verdict", "f_target",
                     "depth_shift", "steps", "max_residual", "final_forces"])
    for r in rows:
        writer.writerow([
            r["scene"], r["object_name"], r["verdict"], f"{r['f_target']:.9g}",
            f"{r['depth_shift']:.9g}", r["steps"],
            f"{max(r['residual']):.9g}",
            " ".join(f"{f:.9g}" for f in r["final_forces"]),
        ])
    return buf.getvalue()


def cmd_batch(args) -> int:
    root = Path(args.scenes)
    if not root.is_dir():
        return _fail(f"error: no scene directory at {root}", _USAGE_ERROR)
    scene_dirs = _discover_scenes(root)
    if not scene_dirs:
        return _fail(f"error: no scenes under {root}", _USAGE_ERROR)
    names = [d.name for d in scene_dirs]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        return _fail(f"error: duplicate scene names: {', '.join(dupes)}", _USAGE_ERROR)

    try:
        settings = _load_settings(args)
    except (DextraError, OSError, ValueError) as exc:
        return _fail(f"error: {exc}", _USAGE_ERROR)

    out = Path(args.out)
    reports = []
    for scene_dir in scene_dirs:
        try:
            report = run_pipeline(scene_dir, settings)
        except DextraError as exc:
            return _error_exit(exc)
        _emit_scene(out / report.scene, report)
        print(f"{report.scene}: {report.verdict}")
        reports.append(report)

    rows = _summary_rows(reports)
    doc = _summary_doc(rows, settings.seed)
    _write_text(out / "summary.json",
                json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    _write_text(out / "summary.csv", _summary_csv(rows))
    print(f"{doc['stable_count']}/{doc['scene_count']} stable "
          f"(success rate {doc['success_rate']:.3f}) -> {out / 'summary.json'}")
    return 0 if doc["stable_count"] == doc["scene_count"] else _RUN_FAILED


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check_json(path: Path, findings: list) -> dict | None:
    if not path.is_file():
        findings.append(f"{path.name}: missing")
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        findings.append(f"{path.name}: not valid JSON ({exc})")
        return None


def _check_pose_record(doc: dict, key: str, label: str, findings: list) -> None:
    rec = doc.get(key)
    if not isinstance(rec, dict):
        findings.append(f"{label}: missing pose '{key}'")
        return
    rot = rec.get("rotation")
    trans = rec.get("translation")
    if not (isinstance(rot, list) and len(rot) == 4):
        findings.append(f"{label}: pose '{key}' needs a 4-element rotation")
    if not (isinstance(trans, list) and len(trans) == 3):
        findings.append(f"{label}: pose '{key}' needs a 3-element translation")


def _validate_scene(scene_dir: Path) -> list:
    findings = []
    scene = _check_json(scene_dir / "scene.json", findings)
    model = None
    if scene is not None:
        if not scene.get("object_name"):
            findings.append("scene.json: missing object_name")
        kind = scene.get("prompt_kind", "language")
        if kind not in PROMPT_KINDS:
            findings.append(f"scene.json: unknown prompt_kind '{kind}'")
        model_name = scene.get("hand_model", DEFAULT_HAND_MODEL)
        try:
            model = bundled_model(model_name)
        except DextraError as exc:
            findings.append(f"scene.json: hand model '{model_name}': {exc}")
        if scene.get("object_name"):
            try:
                SceneFixture(scene_dir).predict_force(scene["object_name"])
            except DextraError as exc:
                findings.append(f"scene.json: {exc}")

    obj_path = scene_dir / "object.obj"
    if obj_path.is_file():
        try:
            from .geometry import load_obj
            load_obj(obj_path)
        except SchemaError as exc:
            findings.extend(f"object.obj: {v}" for v in exc.violations)
    else:
        findings.append("object.obj: missing")

    est = _check_json(scene_dir / "hand_estimate.json", findings)
    if est is not None:
        skeleton = est.get("skeleton")
        if not skeleton:
            findings.append("hand_estimate.json: missing skeleton")
        else:
            try:
                human = bundled_model(skeleton)
                angles = est.get("joint_angles")
                if not isinstance(angles, list) or len(angles) != human.dof:
                    findings.append(
                        f"hand_estimate.json: joint_angles must list "
                        f"{human.dof} values for '{skeleton}'")
            except DextraError as exc:
                findings.append(f"hand_estimate.json: skeleton '{skeleton}': {exc}")
        _check_pose_record(est, "root_pose", "hand_estimate.json", findings)
        tips = est.get("fingertip_points")
        if tips is not None and (
                not isinstance(tips, list)
                or any(not isinstance(p, list) or len(p) != 3 for p in tips)):
            findings.append("hand_estimate.json: fingertip_points must be Kx3")

    poses = _check_json(scene_dir / "poses.json", findings)
    if poses is not None:
        for key in ("object_pose_generated", "object_pose_observed", "hand_eye"):
            _check_pose_record(poses, key, "poses.json", findings)

    contact = _check_json(scene_dir / "contact.json", findings)
    if contact is not None:
        stiffness = contact.get("stiffness")
        values = stiffness if isinstance(stiffness, list) else [stiffness]
        if stiffness is None or any(
                not isinstance(v, (int, float)) or v <= 0 for v in values):
            findings.append("contact.json: stiffness must be positive")
        engagement = contact.get("engagement", "auto")
        if isinstance(engagement, str):
            if engagement != "auto":
                findings.append("contact.json: engagement must be 'auto' or a list")
        elif not isinstance(engagement, list):
            findings.append("contact.json: engagement must be 'auto' or a list")
        elif model is not None and len(engagement) != len(model.finger_drivers):
            findings.append(
                f"contact.json: engagement lists {len(engagement)} fingers, "
                f"hand drives {len(model.finger_drivers)}")
        yield_force = contact.get("yield_force")
        if yield_force is not None and (
                not isinstance(yield_force, (int, float)) or yield_force <= 0):
            findings.append("contact.json: yield_force must be positive or null")
        noise = contact.get("noise_sigma", 0.0)
        if not isinstance(noise, (int, float)) or noise < 0:
            findings.append("contact.json: noise_sigma must be non-negative")
    return findings


def _validate_file(path: Path) -> list:
    if path.suffix == ".obj":
        from .geometry import load_obj
        try:
            load_obj(path)
        except SchemaError as exc:
            return [f"{path.name}: {v}" for v in exc.violations]
        return []
    if path.suffix == ".json":
        try:
            load_hand_model_file(path)
        except SchemaError as exc:
            violations = getattr(exc, "violations", None) or [str(exc)]
            return [f"{path.name}: {v}" for v in violations]
        except DextraError as exc:
            return [f"{path.name}: {exc}"]
        return []
    return [f"{path.name}: not a scene directory, hand model JSON, or OBJ mesh"]


def cmd_validate(args) -> int:
    path = Path(args.fixture)
    if path.is_dir():
        findings = _validate_scene(path)
    elif path.is_file():
        findings = _validate_file(path)
    else:
        return _fail(f"error: no fixture at {path}", _USAGE_ERROR)
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} problem(s) found")
        return _RUN_FAILED
    print("ok")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_run_flags(parser, ablations: bool = True) -> None:
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--settings", help="JSON file overriding pipeline settings")
    parser.add_argument("--seed", type=int, default=None, help="controller noise seed")
    if ablations:
        parser.add_argument("--no-force-lock", action="store_true",
                            help="disable the force latch while closing")
        parser.add_argument("--no-transfer", action="store_true",
                            help="execute the generated-camera pose without "
                                 "the frame correction")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dextra",
        description="Grasp transfer and force-limited execution on scene fixtures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scene end to end")
    p_run.add_argument("scene", help="scene fixture directory")
    _add_run_flags(p_run)
    p_run.add_argument("--export-obj", action="store_true",
                       help="write per-stage geometry OBJ files")
    p_run.set_defaults(fn=cmd_run)

    p_batch = sub.add_parser("batch", help="run every scene under a directory")
    p_batch.add_argument("scenes", help="directory containing scene fixtures")
    _add_run_flags(p_batch)
    p_batch.set_defaults(fn=cmd_batch)

    p_val = sub.add_parser("validate",
                           help="check a scene directory, hand model, or mesh")
    p_val.add_argument("fixture", help="scene directory, model JSON, or OBJ file")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
