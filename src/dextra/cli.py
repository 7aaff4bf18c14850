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
from pathlib import Path

import numpy as np

from .errors import DextraError, FixtureMissing, SchemaError, StageError
from .geometry import load_obj
from .graspctl import trace_csv
from .kinematics import load_hand_model_file
from .pipeline import (
    PipelineSettings,
    canonical,
    override_settings,
    run_pipeline,
    settings_from_file,
)
from .reconstruction import SceneFixture, check_scene, read_force_table

_USAGE_ERROR = 2
_RUN_FAILED = 1


def _load_settings(args) -> PipelineSettings:
    """The settings file, then the flags, checked by the same rules."""
    settings = settings_from_file(args.settings) if args.settings else PipelineSettings()
    flags = {}
    if args.seed is not None:
        flags["seed"] = args.seed
    if args.no_force_lock:
        flags["force_lock"] = False
    if args.no_transfer:
        flags["transfer"] = False
    return override_settings(settings, **flags)


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _unwrapped(exc: DextraError) -> tuple:
    """The stage an error names, or None, and the error a StageError wraps."""
    return getattr(exc, "stage", None), exc.__cause__ if isinstance(exc, StageError) else exc


def _error_text(stage, exc) -> str:
    return f"error: stage '{stage}': {exc}" if stage else f"error: {exc}"


def _error_exit(exc: DextraError) -> int:
    stage, exc = _unwrapped(exc)
    code = _USAGE_ERROR if isinstance(exc, (FixtureMissing, SchemaError)) else _RUN_FAILED
    return _fail(_error_text(stage, exc), code)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _emit_scene(out_dir: Path, report) -> None:
    _write_text(out_dir / "report.json", report.to_json(include_timings=True))
    _write_text(out_dir / "trace.csv", trace_csv(report.result))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args) -> int:
    scene_dir = Path(args.scene)
    if not (scene_dir / "scene.json").is_file():
        return _fail(f"error: no scene at {scene_dir}", _USAGE_ERROR)
    try:
        settings = _load_settings(args)
        scene = SceneFixture(scene_dir)
        # --out/<scene.json name>, where `batch` writes the same scene
        out_dir = Path(args.out) / scene.name
        export = out_dir / "geometry" if args.export_obj else None
        report = run_pipeline(scene, settings, export_dir=export)
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
    """Scene directories by name, then by path, so rglob's order never shows."""
    return sorted((p.parent for p in root.rglob("scene.json")),
                  key=lambda p: (p.name, p))


def _summary_row(report) -> dict:
    return {
        "scene": report.scene,
        "object_name": report.object_name,
        "verdict": report.verdict,
        "f_target": report.f_target,
        "final_forces": [float(f) for f in report.result.final_forces],
        "residual": report.retarget["residual"],
        "depth_shift": report.alignment["depth_shift"],
        "steps": report.result.steps,
    }


def _summary_doc(rows, seed: int) -> dict:
    """Counts over every scene; the mean residual over the scenes that ran."""
    stable = sum(1 for r in rows if r.get("verdict") == "stable")
    residuals = [v for r in rows for v in r.get("residual", ())]
    return canonical({
        "scene_count": len(rows),
        "stable_count": stable,
        "success_rate": stable / len(rows),
        "mean_residual": float(np.mean(residuals)) if residuals else None,
        "seed": seed,
        "scenes": rows,
    })


def _summary_csv(rows) -> str:
    """One line per scene.  A batch with an error row has three more
    columns, stage, error and message, which only error rows fill."""
    errors = ["stage", "error", "message"] if any("error" in r for r in rows) else []
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scene", "object_name", "verdict", "f_target",
                     "depth_shift", "steps", "max_residual", "final_forces"] + errors)
    for r in rows:
        if "error" in r:
            writer.writerow([r["scene"], *[""] * 7, r["stage"] or "", r["error"], r["message"]])
            continue
        writer.writerow([
            r["scene"], r["object_name"], r["verdict"], f"{r['f_target']:.9g}",
            f"{r['depth_shift']:.9g}", r["steps"],
            f"{max(r['residual']):.9g}",
            " ".join(f"{f:.9g}" for f in r["final_forces"]),
            *[""] * len(errors),
        ])
    return buf.getvalue()


def cmd_batch(args) -> int:
    root = Path(args.scenes)
    if not root.is_dir():
        return _fail(f"error: no scene directory at {root}", _USAGE_ERROR)
    scene_dirs = _discover_scenes(root)
    if not scene_dirs:
        return _fail(f"error: no scenes under {root}", _USAGE_ERROR)
    # a scene.json that is refused is an error row named by its directory's
    # path under the batch root, which is its name in a flat batch
    scenes = []
    for scene_dir in scene_dirs:
        try:
            scenes.append(SceneFixture(scene_dir))
        except DextraError as exc:
            where = scene_dir.relative_to(root).as_posix() if scene_dir != root else root.name
            scenes.append((where, exc))
    # each scene writes to --out/<its scene.json name>, and each row names
    # one scene, so names must not repeat
    names = [scene.name if isinstance(scene, SceneFixture) else scene[0] for scene in scenes]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        return _fail(f"error: duplicate scene names: {', '.join(dupes)}", _USAGE_ERROR)

    try:
        settings = _load_settings(args)
    except DextraError as exc:
        return _fail(f"error: {exc}", _USAGE_ERROR)

    def error_row(name, exc):
        stage, cause = _unwrapped(exc)
        print(f"{name}: {_error_text(stage, cause)}")
        return {"scene": name, "stage": stage, "error": type(cause).__name__,
                "message": str(cause)}

    # a scene that raises is an error row, and the batch goes on
    out = Path(args.out)
    rows = []
    for scene in scenes:
        if not isinstance(scene, SceneFixture):
            rows.append(error_row(*scene))
            continue
        try:
            report = run_pipeline(scene, settings)
        except DextraError as exc:
            rows.append(error_row(scene.name, exc))
            continue
        _emit_scene(out / report.scene, report)
        print(f"{report.scene}: {report.verdict}")
        rows.append(_summary_row(report))

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

def _findings(read, path: Path) -> tuple:
    """What `read(path)` returns, or None, and every violation it raised."""
    try:
        return read(path), []
    except DextraError as exc:
        return None, getattr(exc, "violations", [str(exc)])


def _validate_file(path: Path) -> list:
    readers = {".obj": load_obj, ".json": load_hand_model_file}
    if path.suffix not in readers:
        return [f"{path.name}: not a scene directory, hand model JSON, or OBJ mesh"]
    # the bundled models directory holds the hand models and the force table
    read = read_force_table if path.name == "force_table.json" else readers[path.suffix]
    return _findings(read, path)[1]


def cmd_validate(args) -> int:
    if args.fixture is None and args.settings is None:
        return _fail("error: nothing to validate: give a fixture, --settings FILE, or both",
                     _USAGE_ERROR)
    settings, findings = None, []
    if args.settings is not None:
        path = Path(args.settings)
        if not path.is_file():
            return _fail(f"error: no settings file at {path}", _USAGE_ERROR)
        settings, findings = _findings(settings_from_file, path)
    if args.fixture is not None:
        path = Path(args.fixture)
        if path.is_dir():
            findings += check_scene(path, settings and settings.hand_model)
        elif path.is_file():
            findings += _validate_file(path)
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

def _add_run_flags(parser) -> None:
    parser.add_argument("--out", default="runs", help="output directory")
    parser.add_argument("--settings", help="JSON file overriding pipeline settings")
    parser.add_argument("--seed", type=int, default=None, help="controller noise seed")
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
                           help="check a scene directory, hand model, mesh, or settings file")
    p_val.add_argument("fixture", nargs="?", help="scene directory, model JSON, or OBJ file")
    p_val.add_argument("--settings", help="JSON settings file, checked as `run` reads it")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
