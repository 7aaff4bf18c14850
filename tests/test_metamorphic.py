"""Metamorphic relations: a run does not depend on how the scene is written down.

Each relation rewrites a copy of a bundled scene's object.obj as another
file for the same surface, runs the copy on the scene's own hand and
compares it with the run of the scene as bundled (Chen, Cheung & Yiu,
HKUST-CS98-01, 1998).  Runs are compared within tolerances, not bits, so
the relations hold on every BLAS kernel.
"""

import functools
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import SCENES_DIR
from dextra.pipeline import run_pipeline

BUNDLED_SCENES = sorted(p.parent for p in SCENES_DIR.rglob("scene.json"))
FORCE_TOL = 1e-9    # N
ANGLE_TOL = 1e-9    # rad


def _outcome(scene_dir):
    """The verdict, final forces and the joint angles of the object-frame
    grasp, pre-grasp and squeeze of a run."""
    report = run_pipeline(scene_dir)
    angles = [report.actions[name].config.joint_angles
              for name in ("object", "pre_object", "squeeze_object")]
    return report.verdict, report.result.final_forces, np.concatenate(angles)


@functools.lru_cache(maxsize=None)
def _bundled(scene_dir):
    """The scene as bundled: its run, object.obj's vertex lines as written
    and its faces as 0-based index rows."""
    lines = (scene_dir / "object.obj").read_text().splitlines()
    vertices = [line for line in lines if line.startswith("v ")]
    faces = np.array([[int(i) - 1 for i in line.split()[1:]]
                      for line in lines if line.startswith("f ")])
    return _outcome(scene_dir), vertices, faces


def _assert_same_run(scene_dir, vertices, faces):
    """The scene with object.obj written as `vertices` and `faces` runs as bundled."""
    want = _bundled(scene_dir)[0]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / scene_dir.name
        shutil.copytree(scene_dir, copy)
        (copy / "object.obj").write_text("\n".join(
            [*vertices, *(f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces)]) + "\n")
        got = _outcome(copy)
    assert got[0] == want[0]
    assert np.abs(got[1] - want[1]).max() <= FORCE_TOL
    assert np.abs(got[2] - want[2]).max() <= ANGLE_TOL


@pytest.mark.parametrize("scene_dir", BUNDLED_SCENES, ids=lambda p: p.name)
@seed(3701)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_vertices_renumbered(scene_dir, data):
    # vertex i is written at line new[i], and every face names it there
    _, vertices, faces = _bundled(scene_dir)
    order = np.array(data.draw(st.permutations(range(len(vertices)))))
    new = np.argsort(order)
    _assert_same_run(scene_dir, [vertices[i] for i in order], new[faces])


@pytest.mark.parametrize("scene_dir", BUNDLED_SCENES, ids=lambda p: p.name)
@seed(3702)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_faces_permuted_and_corners_rotated(scene_dir, data):
    # the faces in another order, each starting at another of its corners:
    # the same triangles, wound the same way
    _, vertices, faces = _bundled(scene_dir)
    order = data.draw(st.permutations(range(len(faces))))
    turns = data.draw(st.lists(st.integers(0, 2), min_size=len(faces), max_size=len(faces)))
    _assert_same_run(scene_dir, vertices,
                     [np.roll(faces[f], -turns[f]) for f in order])
