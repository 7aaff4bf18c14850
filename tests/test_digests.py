"""Stage digests of every bundled scene, pinned against a checked-in golden file.

A refactor is proven by unchanged digests: the verdict and the input and
output digest of all nine stages must match `golden/digests.json` on every
bundled scene at seed 0, and `golden/sweep_digests.json` for the same scenes
on each sweep hand.  A change that moves digests on purpose regenerates both
files and says why:

    PYTHONPATH=src python3 tests/test_digests.py

The sweep hands' verdicts are pinned here as well, and every run on every
hand shows that the fingertip refinements converge rather than stop at the
iteration cap, and that the retarget stage sweeps no configuration twice.
"""

import functools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS_DIR = Path(__file__).resolve().parent
SCENES_DIR = TESTS_DIR.parent / "scenes"
GOLDEN = TESTS_DIR / "golden" / "digests.json"
SWEEP_GOLDEN = TESTS_DIR / "golden" / "sweep_digests.json"


def bundled_scenes():
    return sorted(p.parent for p in SCENES_DIR.rglob("scene.json"))


def scene_digests(scene_dir, **settings) -> dict:
    from dextra.pipeline import PipelineSettings, run_pipeline

    report = run_pipeline(scene_dir, PipelineSettings(seed=0, **settings))
    return {"verdict": report.verdict,
            "stages": {r["name"]: {"input": r["input"], "output": r["output"]}
                       for r in report.stages}}


# The golden file runs each scene on its own hand only.  These hands take tens
# of LM steps per refinement, so their runs have a golden file of their own,
# keyed by `sweep_key`, and their verdicts are pinned here as well.
SWEEP_HANDS = ("leap-like-16dof", "shadow-like-22dof")
SWEEP_VERDICTS = {
    ("mug-01", "leap-like-16dof"): "unstable",
    ("fragile-06", "leap-like-16dof"): "unstable",
    ("fragile-10", "leap-like-16dof"): "stable",
    ("mug-01", "shadow-like-22dof"): "stable",
    ("fragile-06", "shadow-like-22dof"): "unstable",
    ("fragile-10", "shadow-like-22dof"): "stable",
    ("fragile-01", "leap-like-16dof"): "unstable",
    ("fragile-02", "leap-like-16dof"): "unstable",
    ("fragile-03", "leap-like-16dof"): "unstable",
    ("fragile-04", "leap-like-16dof"): "unstable",
    ("fragile-05", "leap-like-16dof"): "unstable",
    ("fragile-07", "leap-like-16dof"): "unstable",
    ("fragile-08", "leap-like-16dof"): "unstable",
    ("fragile-09", "leap-like-16dof"): "unstable",
    ("fragile-01", "shadow-like-22dof"): "unstable",
    ("fragile-02", "shadow-like-22dof"): "stable",
    ("fragile-03", "shadow-like-22dof"): "unstable",
    ("fragile-04", "shadow-like-22dof"): "stable",
    ("fragile-05", "shadow-like-22dof"): "stable",
    ("fragile-07", "shadow-like-22dof"): "stable",
    ("fragile-08", "shadow-like-22dof"): "stable",
    ("fragile-09", "shadow-like-22dof"): "stable",
}


def sweep_key(scene: str, hand: str) -> str:
    return f"{scene}@{hand}"


def sweep_digests() -> dict:
    """`scene_digests` of every bundled scene on every sweep hand, by `sweep_key`."""
    return {sweep_key(p.name, hand): scene_digests(p, hand_model=hand)
            for p in bundled_scenes() for hand in SWEEP_HANDS}


def recorded_run(scene_dir, hand) -> dict:
    """`scene_digests` of one run on `hand` (None: the scene's own), plus
    every `refine_retarget` call in it as (wrist_free, candidates tried,
    objective trace), counted through the solver's FK binding, and the
    configurations the retarget stage swept, as bytes."""
    from dextra import kinematics, pipeline, retarget

    evaluations, refinements, retarget_sweeps = [0], [], []
    in_retarget = [False]
    fk, refine = retarget.forward_kinematics, retarget.refine_retarget
    raw_fk, stage = kinematics._raw_fk, pipeline._retarget

    def counted_fk(*args):
        evaluations[0] += 1
        return fk(*args)

    def recorded_refine(*args, **kwargs):
        before = evaluations[0]
        grasp = refine(*args, **kwargs)
        # one evaluation at the start, then one per candidate step
        refinements.append((kwargs.get("wrist_free", True), evaluations[0] - before - 1,
                            grasp.objective_trace))
        return grasp

    def recorded_raw_fk(model, root_q, root_t, angles):
        # recorded after the sweep, which sets the mimic entries of `angles`
        swept = raw_fk(model, root_q, root_t, angles)
        if in_retarget[0]:
            retarget_sweeps.append(np.concatenate([root_q, root_t, angles]).tobytes())
        return swept

    # the pipeline checks a stage's function by its unwrapped code
    @functools.wraps(stage)
    def recorded_stage(**kwargs):
        in_retarget[0] = True
        try:
            return stage(**kwargs)
        finally:
            in_retarget[0] = False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retarget, "forward_kinematics", counted_fk)
        mp.setattr(retarget, "refine_retarget", recorded_refine)
        mp.setattr(pipeline, "refine_retarget", recorded_refine)
        mp.setattr(kinematics, "_raw_fk", recorded_raw_fk)
        mp.setattr(pipeline, "_retarget", recorded_stage)
        digests = scene_digests(scene_dir, hand_model=hand)
    return {"digests": digests, "refinements": refinements,
            "retarget_sweeps": retarget_sweeps}


@pytest.fixture(scope="module")
def sweep():
    """Every bundled scene on its own hand and on each sweep hand."""
    return {(p.name, hand): recorded_run(p, hand)
            for p in bundled_scenes() for hand in (None, *SWEEP_HANDS)}


def test_golden_covers_every_bundled_scene():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(p.name for p in bundled_scenes())
    assert len(golden) == 11


@pytest.mark.parametrize("scene_dir", bundled_scenes(), ids=lambda p: p.name)
def test_stage_digests_match_golden(scene_dir):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[scene_dir.name]
    assert scene_digests(scene_dir) == golden


@pytest.mark.parametrize(("scene", "hand"), SWEEP_VERDICTS,
                         ids=["/".join(k) for k in SWEEP_VERDICTS])
def test_sweep_hand_verdicts_are_pinned(scene, hand, sweep):
    assert sweep[scene, hand]["digests"]["verdict"] == SWEEP_VERDICTS[scene, hand]


def test_sweep_verdicts_cover_every_scene_on_every_sweep_hand():
    names = [p.name for p in bundled_scenes()]
    assert sorted(SWEEP_VERDICTS) == sorted((n, h) for n in names for h in SWEEP_HANDS)


def test_sweep_golden_covers_every_sweep_run():
    golden = json.loads(SWEEP_GOLDEN.read_text(encoding="utf-8"))
    assert sorted(golden) == sorted(sweep_key(*run) for run in SWEEP_VERDICTS)
    assert {run: golden[sweep_key(*run)]["verdict"] for run in SWEEP_VERDICTS} == SWEEP_VERDICTS


@pytest.mark.parametrize(("scene", "hand"), SWEEP_VERDICTS,
                         ids=["/".join(k) for k in SWEEP_VERDICTS])
def test_sweep_hand_stage_digests_match_golden(scene, hand, sweep):
    golden = json.loads(SWEEP_GOLDEN.read_text(encoding="utf-8"))[sweep_key(scene, hand)]
    assert sweep[scene, hand]["digests"] == golden


def test_no_refinement_runs_out_of_iterations(sweep):
    from dextra.retarget import MAX_ITERATIONS

    assert len(sweep) == 33
    tried = {f"{scene}@{hand}": [(n, len(trace) - 1) for _, n, trace in run["refinements"]]
             for (scene, hand), run in sweep.items()}
    # a candidate is tried before it is accepted, so a counter that reads
    # fewer tries than accepted steps has stopped counting
    assert all(accepted <= n < MAX_ITERATIONS
               for runs in tried.values() for n, accepted in runs), tried


def test_retarget_stage_sweeps_no_configuration_twice(sweep):
    # the solver starts from the seed it is given, and the seed is not
    # swept before the solve
    swept = {f"{scene}@{hand}": run["retarget_sweeps"] for (scene, hand), run in sweep.items()}
    repeats = {run: len(configs) - len(set(configs)) for run, configs in swept.items()}
    assert len(repeats) == 33 and all(swept.values())
    assert not any(repeats.values()), repeats


def test_doubling_the_iteration_cap_moves_no_digest(sweep, monkeypatch):
    from dextra import retarget

    monkeypatch.setattr(retarget, "MAX_ITERATIONS", 2 * retarget.MAX_ITERATIONS)
    for p in bundled_scenes():
        for hand in (None, *SWEEP_HANDS):
            digests = scene_digests(p, hand_model=hand)
            assert digests == sweep[p.name, hand]["digests"], (p.name, hand)


def test_shadow_pre_squeeze_refinements_converge_early(sweep):
    # the pregrasp and squeeze refinements hold the wrist still
    traces = [trace for wrist_free, _, trace in sweep["mug-01", "shadow-like-22dof"]["refinements"]
              if not wrist_free]
    assert len(traces) == 2
    for trace in traces:
        assert len(trace) - 1 < 60
        assert all(later < earlier for earlier, later in zip(trace, trace[1:]))


def _at(doc: dict, *path):
    for key in path:
        doc = doc.get(key, {})
    return doc


def moved_report(old: dict, new: dict, unit: str = "scenes") -> list:
    """Lines saying what moved from golden file `old` to `new`.

    Per stage, in pipeline order, the number of entries (scenes, or runs in
    the sweep file) whose input digest and whose output digest moved; then
    every verdict that moved.  An entry in only one of the two files counts
    as moved everywhere.
    """
    from dextra.pipeline import STAGE_NAMES

    scenes = sorted(set(old) | set(new))

    def moved(*path):
        return [s for s in scenes if _at(old, s, *path) != _at(new, s, *path)]

    width = max(map(len, STAGE_NAMES))
    lines = [f"{'stage':<{width}}  input moved  output moved  (of {len(scenes)} {unit})"]
    for stage in STAGE_NAMES:
        lines.append(f"{stage:<{width}}  {len(moved('stages', stage, 'input')):>11}"
                     f"  {len(moved('stages', stage, 'output')):>12}")
    verdicts = [f"{s}: {_at(old, s, 'verdict') or None} -> {_at(new, s, 'verdict') or None}"
                for s in moved("verdict")]
    lines.append("verdicts moved: " + (", ".join(verdicts) or "none"))
    return lines


def test_moved_report_counts_scenes_per_stage_and_names_moved_verdicts():
    from dextra.pipeline import STAGE_NAMES

    def golden(verdict, **digests):
        return {"verdict": verdict,
                "stages": {n: {"input": digests.get(n, "i"), "output": "o"}
                           for n in STAGE_NAMES}}

    old = {"a": golden("stable"), "b": golden("stable"), "c": golden("unstable")}
    new = {"a": golden("stable", execute="x"), "b": golden("damaged", prompt="y"),
           "d": golden("stable")}
    lines = moved_report(old, new)
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:-1]}
    # c and d are in one file only, so they moved everywhere
    assert rows["prompt"] == ["3", "2"]
    assert rows["execute"] == ["3", "2"]
    assert rows["retarget"] == ["2", "2"]
    assert "(of 4 scenes)" in lines[0]
    assert lines[-1] == ("verdicts moved: b: stable -> damaged, c: unstable -> None, "
                         "d: None -> stable")
    assert moved_report(old, old)[-1] == "verdicts moved: none"
    assert "(of 4 runs)" in moved_report(old, new, "runs")[0]


if __name__ == "__main__":
    for path, unit, build in ((GOLDEN, "scenes", lambda: {p.name: scene_digests(p)
                                                          for p in bundled_scenes()}),
                              (SWEEP_GOLDEN, "runs", sweep_digests)):
        old = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        doc = build()
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        sys.stdout.write(f"wrote {path} ({len(doc)} {unit}); moved from the file it replaces:\n")
        sys.stdout.write("\n".join(moved_report(old, doc, unit)) + "\n")
