"""Benchmark inputs, generated from the bundled scene fixtures.

Every workload copies bundled scenes into a scratch directory and, where the
workload asks for it, rewrites one fixture file:

- ``fragile-batch``: the ten ``scenes/fragile`` scenes, unchanged, laid out
  as one batch root.  Directory names carry a seeded prefix so the seed
  decides the order ``dextra batch`` walks them in.
- ``dense-mesh``: the ``BASE_SCENES`` with ``object.obj`` midpoint-subdivided
  twice (192 triangles become 3072 on the same surface).
- ``hand-sweep``: the ``BASE_SCENES`` with ``scene.json`` ``hand_model``
  rewritten to each hand in ``SWEEP_HANDS``.

``BASE_SCENES`` is a fixed few scenes rather than every bundled one: a timed
run then repeats each input several times, and the end-to-end times are
medians over those repeats.

Only the standard library and numpy are used here: the benchmark reaches the
program through ``run_pipeline`` and ``cli.main`` alone.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("fragile-batch", "dense-mesh", "hand-sweep")
SWEEP_HANDS = ("leap-like-16dof", "shadow-like-22dof")
# on the sweep hands these give both verdicts: leap u/u/s, shadow s/u/s
BASE_SCENES = ("mug-01", "fragile/fragile-06", "fragile/fragile-10")
SUBDIVISIONS = 2


@dataclass(frozen=True)
class Input:
    """One generated scene: its key in ``expected.json`` and where it lives."""

    key: str
    scene_dir: Path
    triangles: int
    hand_model: str


# ---------------------------------------------------------------------------
# OBJ files and midpoint subdivision
# ---------------------------------------------------------------------------

def read_obj(path) -> tuple:
    """Vertices (n, 3) and 0-based triangles (m, 3) of a triangle-only OBJ."""
    vertices, triangles = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "v":
            vertices.append([float(t) for t in tokens[1:4]])
        elif tokens[0] == "f":
            triangles.append([int(t.split("/")[0]) - 1 for t in tokens[1:4]])
    return np.array(vertices, dtype=float), np.array(triangles, dtype=np.int64)


def write_obj(path, vertices, triangles) -> None:
    # repr-exact coordinates: a midpoint must stay on its parent triangle
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in vertices.tolist()]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles.tolist()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def subdivide(vertices, triangles) -> tuple:
    """One level of midpoint subdivision; every triangle becomes four.

    Midpoints are shared between the two triangles of an edge, so a
    watertight mesh stays watertight.  The children of triangle ``t`` are
    rows ``4t .. 4t+3`` and keep its winding.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(triangles, dtype=np.int64)
    edges = np.stack([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=1).reshape(-1, 2)
    unique, inverse = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
    mid = len(v) + inverse.reshape(-1, 3)          # midpoint ids of ab, bc, ca
    new_v = np.vstack([v, 0.5 * (v[unique[:, 0]] + v[unique[:, 1]])])
    a, b, c = f[:, 0], f[:, 1], f[:, 2]
    ab, bc, ca = mid[:, 0], mid[:, 1], mid[:, 2]
    children = np.stack([
        np.stack([a, ab, ca], axis=1),
        np.stack([ab, b, bc], axis=1),
        np.stack([ca, bc, c], axis=1),
        np.stack([ab, bc, ca], axis=1),
    ], axis=1).reshape(-1, 3)
    return new_v, children


# ---------------------------------------------------------------------------
# workload inputs
# ---------------------------------------------------------------------------

def _base_scenes(scenes_root: Path) -> list:
    return [scenes_root / name for name in BASE_SCENES]


def _scene_doc(scene_dir: Path) -> dict:
    return json.loads((scene_dir / "scene.json").read_text(encoding="utf-8"))


def _triangle_count(scene_dir: Path) -> int:
    text = (scene_dir / "object.obj").read_text(encoding="utf-8")
    return sum(1 for line in text.splitlines() if line.startswith("f "))


def _input(key: str, scene_dir: Path) -> Input:
    return Input(key=key, scene_dir=scene_dir, triangles=_triangle_count(scene_dir),
                 hand_model=_scene_doc(scene_dir)["hand_model"])


def build_inputs(workload: str, scenes_root: Path, work_dir: Path, seed: int) -> list:
    """Write the workload's scenes under ``work_dir`` and describe them.

    For ``fragile-batch`` the inputs come back in the order ``dextra batch``
    runs them, and their common parent is the batch root.
    """
    scenes_root = Path(scenes_root)
    work_dir = Path(work_dir)
    if workload == "fragile-batch":
        sources = sorted((scenes_root / "fragile").glob("fragile-*"))
        order = list(range(len(sources)))
        random.Random(seed).shuffle(order)
        inputs = []
        for rank, src in zip(order, sources):
            dst = work_dir / "fragile" / f"{rank:02d}-{src.name}"
            shutil.copytree(src, dst)
            inputs.append((rank, _input(src.name, dst)))
        return [inp for _, inp in sorted(inputs, key=lambda pair: pair[0])]
    if workload == "dense-mesh":
        inputs = []
        for src in _base_scenes(scenes_root):
            dst = work_dir / src.name
            shutil.copytree(src, dst)
            v, f = read_obj(dst / "object.obj")
            for _ in range(SUBDIVISIONS):
                v, f = subdivide(v, f)
            write_obj(dst / "object.obj", v, f)
            inputs.append(_input(src.name, dst))
        return inputs
    if workload == "hand-sweep":
        inputs = []
        for hand in SWEEP_HANDS:
            for src in _base_scenes(scenes_root):
                dst = work_dir / f"{src.name}--{hand}"
                shutil.copytree(src, dst)
                doc = _scene_doc(dst)
                doc["hand_model"] = hand
                (dst / "scene.json").write_text(json.dumps(doc, indent=2) + "\n",
                                                encoding="utf-8")
                inputs.append(_input(f"{src.name}@{hand}", dst))
        return inputs
    raise ValueError(f"unknown workload '{workload}'")
