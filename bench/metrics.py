"""Metric definitions: the tail rule, the traced spans and the per-layer table.

Modules are the layers.  Every per-layer metric is a mean per traced scene
run unless its name says it is a ratio.  A metric whose spans wrap no name the
program still binds is dropped from the table with a printed note, so a
later rename in the program does not break a traced run.
"""

from __future__ import annotations

import math

import numpy as np

from tracer import SpanSpec, Tracer

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10
MIN_TAIL_SAMPLES = 2 * MIN_BEYOND     # enough for the lowest rung, p50


def tail_percentile(samples):
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it.

    Returns ``(percentile, value, samples_beyond)`` using nearest-rank
    percentiles, or None when there are too few samples for even p50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(round(p * n / 100.0, 6))   # round: 99.9 * n is inexact
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (p, ordered[rank - 1], n - rank)
    return best


# ---------------------------------------------------------------------------
# spans of the traced run
# ---------------------------------------------------------------------------

def _points(args, kwargs, result) -> int:
    points = args[1] if len(args) > 1 else kwargs.get("points", kwargs.get("point"))
    return np.size(points) // 3


def _depth_shifts(args, kwargs, result) -> int:
    return len(args[2] if len(args) > 2 else kwargs["deltas"])


def _accepted_steps(args, kwargs, result) -> int:
    return len(result.objective_trace) - 1


def _controller_steps(args, kwargs, result) -> int:
    return int(result.steps)


SPANS = (
    # every surface-query entry point, including the batched one ROADMAP
    # item 2 merges them into, so the sum keeps its meaning across that merge
    SpanSpec("geometry.surface", ("signed_distance", "nearest_surface_point",
                                  "squared_surface_distances", "surface_query"),
             _points),
    SpanSpec("kinematics.fk", ("fingertip_positions", "forward_kinematics")),
    SpanSpec("kinematics.jacobian", ("fingertip_jacobian",)),
    SpanSpec("pipeline.digest", ("content_digest",)),
    SpanSpec("pipeline.engagement", ("derive_engagement",)),
    SpanSpec("reconstruction.providers", ("gather_reconstruction",)),
    SpanSpec("reconstruction.align", ("align_depth",)),
    SpanSpec("reconstruction.depth_objective", ("_depth_objective",), _depth_shifts),
    SpanSpec("retarget.refine", ("refine_retarget",), _accepted_steps),
    SpanSpec("graspctl.run_grasp", ("run_grasp",), _controller_steps),
    SpanSpec("cli.emit", ("_emit_scene", "_write_text")),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, scenes: int, bound: dict, stage_means: dict,
                  bytes_per_scene: float, overhead_frac: float):
    """Per-layer metrics of a traced run and notes on any that dropped out.

    ``bound`` maps each span key to the names the program still binds;
    ``stage_means`` maps stage name to its mean ``report.timings`` seconds.
    Returns ``(metrics, notes)`` with metrics as name -> (value, unit).
    """
    st = tracer.stat
    nested = tracer.nested
    per = lambda x: x / scenes  # noqa: E731
    rows = [
        ("pipeline.digest_calls", "count", ("pipeline.digest",),
         lambda: per(st("pipeline.digest").count)),
        ("pipeline.digest_s", "s", ("pipeline.digest",),
         lambda: per(st("pipeline.digest").busy)),
        ("pipeline.engagement_s", "s", ("pipeline.engagement",),
         lambda: per(st("pipeline.engagement").self_time)),
        ("pipeline.engagement_queries", "count",
         ("pipeline.engagement", "geometry.surface"),
         lambda: per(nested["pipeline.engagement", "geometry.surface"])),
        ("geometry.surface_calls", "count", ("geometry.surface",),
         lambda: per(st("geometry.surface").count)),
        ("geometry.surface_points", "count", ("geometry.surface",),
         lambda: per(st("geometry.surface").work)),
        ("geometry.surface_s", "s", ("geometry.surface",),
         lambda: per(st("geometry.surface").busy)),
        ("geometry.surface_us_per_point", "us", ("geometry.surface",),
         lambda: 1e6 * _ratio(st("geometry.surface").busy, st("geometry.surface").work)),
        ("kinematics.fk_calls", "count", ("kinematics.fk",),
         lambda: per(st("kinematics.fk").count)),
        ("kinematics.fk_s", "s", ("kinematics.fk",),
         lambda: per(st("kinematics.fk").busy)),
        ("kinematics.jacobian_calls", "count", ("kinematics.jacobian",),
         lambda: per(st("kinematics.jacobian").count)),
        ("kinematics.jacobian_s", "s", ("kinematics.jacobian",),
         lambda: per(st("kinematics.jacobian").busy)),
        ("reconstruction.providers_s", "s", ("reconstruction.providers",),
         lambda: per(st("reconstruction.providers").busy)),
        ("reconstruction.align_s", "s", ("reconstruction.align",),
         lambda: per(st("reconstruction.align").busy)),
        ("reconstruction.depth_evals", "count", ("reconstruction.depth_objective",),
         lambda: per(st("reconstruction.depth_objective").work)),
        ("retarget.refine_calls", "count", ("retarget.refine",),
         lambda: per(st("retarget.refine").count)),
        ("retarget.refine_s", "s", ("retarget.refine",),
         lambda: per(st("retarget.refine").busy)),
        ("retarget.lm_steps_accepted", "count", ("retarget.refine",),
         lambda: per(st("retarget.refine").work)),
        # every LM iteration evaluates one candidate with one FK call; the
        # first FK call of each refinement scores the starting point
        ("retarget.lm_accept_ratio", "ratio", ("retarget.refine", "kinematics.fk"),
         lambda: _ratio(st("retarget.refine").work,
                        nested["retarget.refine", "kinematics.fk"]
                        - st("retarget.refine").count)),
        ("graspctl.run_grasp_s", "s", ("graspctl.run_grasp",),
         lambda: per(st("graspctl.run_grasp").busy)),
        ("graspctl.controller_steps", "count", ("graspctl.run_grasp",),
         lambda: per(st("graspctl.run_grasp").work)),
        ("graspctl.us_per_step", "us", ("graspctl.run_grasp",),
         lambda: 1e6 * _ratio(st("graspctl.run_grasp").busy, st("graspctl.run_grasp").work)),
        ("cli.emit_s", "s", ("cli.emit",),
         lambda: per(st("cli.emit").busy)),
    ]
    metrics = {f"pipeline.stage.{name}_s": (seconds, "s")
               for name, seconds in stage_means.items()}
    notes = []
    for name, unit, keys, value in rows:
        missing = [k for k in keys if not bound.get(k)]
        if missing:
            notes.append(f"{name} dropped: the program binds none of "
                         + ", ".join(n for k in missing for n in _names(k)))
            continue
        metrics[name] = (float(value()), unit)
    metrics["cli.bytes_written"] = (bytes_per_scene, "bytes")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics, notes


def _names(key: str) -> tuple:
    return next(spec.names for spec in SPANS if spec.key == key)
