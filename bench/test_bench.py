"""Tests for the benchmark's own logic: tail rule, span timing, scene cost, subdivision."""

import random
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from metrics import SPANS, layer_metrics, tail_percentile
from run import Passes, PassResult, Reference
from tracer import SpanSpec, Tracer, bound_names, installed
from workloads import build_inputs, read_obj, subdivide

ROOT = Path(__file__).resolve().parents[1]
MUG = ROOT / "scenes" / "mug-01"


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, percentile", [
    (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_highest_rung_with_ten_samples_beyond(n, percentile):
    samples = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(samples)
    p, value, beyond = tail_percentile(samples)
    assert p == percentile
    assert beyond >= 10
    assert beyond == sum(1 for s in samples if s > value)
    assert value == float(n - beyond)


def test_tail_needs_twenty_samples():
    assert tail_percentile([1.0] * 19) is None


# ---------------------------------------------------------------------------
# spans: busy time, self time, nesting
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_module(tracer_clock):
    mod = types.ModuleType("fake_layer")

    def inner(x):
        tracer_clock.now += 2.0
        return x

    def outer(x):
        tracer_clock.now += 1.0
        mod.inner(x)
        mod.inner(x)
        tracer_clock.now += 3.0
        return x

    def same_key_outer():
        tracer_clock.now += 1.0
        return mod.same_key_inner()

    def same_key_inner():
        tracer_clock.now += 5.0
        return 7

    mod.inner, mod.outer = inner, outer
    mod.same_key_outer, mod.same_key_inner = same_key_outer, same_key_inner
    return mod


def test_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    mod = _fake_module(clock)
    original = mod.inner
    tracer = Tracer(clock=clock)
    specs = [SpanSpec("outer", ("outer",)),
             SpanSpec("inner", ("inner",), work=lambda a, k, r: a[0])]
    with installed(tracer, [mod], specs):
        assert mod.outer(4) == 4
    outer, inner = tracer.stat("outer"), tracer.stat("inner")
    assert (outer.count, outer.busy, outer.self_time) == (1, 8.0, 4.0)
    assert (inner.count, inner.busy, inner.self_time, inner.work) == (2, 4.0, 4.0, 8)
    assert tracer.nested == Counter({("outer", "inner"): 2})
    assert mod.inner is original


def test_same_key_nesting_counts_the_outermost_call_once():
    clock = FakeClock()
    mod = _fake_module(clock)
    tracer = Tracer(clock=clock)
    spec = SpanSpec("q", ("same_key_outer", "same_key_inner"))
    with installed(tracer, [mod], [spec]):
        assert mod.same_key_outer() == 7
    q = tracer.stat("q")
    assert (q.count, q.busy, q.self_time) == (1, 6.0, 6.0)


def test_missing_names_drop_their_metrics_with_a_note():
    mod = types.ModuleType("fake_program")
    mod.fingertip_positions = lambda model, config: None
    bound = bound_names([mod], SPANS)
    assert bound["kinematics.fk"] == ("fingertip_positions",)
    assert bound["kinematics.jacobian"] == ()
    metrics, notes = layer_metrics(Tracer(), 1, bound, {}, 0.0, 0.0)
    assert "kinematics.fk_calls" in metrics
    assert "kinematics.jacobian_s" not in metrics
    assert any("kinematics.jacobian_s" in n and "fingertip_jacobian" in n for n in notes)


# ---------------------------------------------------------------------------
# scene cost
# ---------------------------------------------------------------------------

def test_cost_takes_the_reference_times_around_each_scene(monkeypatch):
    times = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(Reference, "measure", lambda self: next(times))
    ref = Reference()
    assert ref.scale() == pytest.approx(0.03)
    assert ref.scale() == pytest.approx(0.05)


def test_a_host_slowdown_cancels_out_of_the_input_costs():
    passes = Passes()
    for slowdown in (1.0, 1.8, 1.0, 1.3, 1.0):
        res = PassResult()
        for key, secs in (("a", 0.5), ("b", 2.0)):
            res.times[key] = secs * slowdown
            res.costs[key] = res.times[key] / (0.01 * slowdown)
        passes.add(res)
    assert passes.input_costs() == pytest.approx([50.0, 200.0])
    assert passes.best == pytest.approx({"a": 0.5, "b": 2.0})


# ---------------------------------------------------------------------------
# midpoint subdivision
# ---------------------------------------------------------------------------

def _barycentric(tri, p):
    a, b, c = tri
    ab, ac, ap = b - a, c - a, p - a
    d00, d01, d11 = ab @ ab, ab @ ac, ac @ ac
    d20, d21 = ap @ ab, ap @ ac
    den = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / den
    w = (d00 * d21 - d01 * d20) / den
    return np.array([1.0 - v - w, v, w])


def test_subdivision_keeps_the_surface():
    v0, f0 = read_obj(MUG / "object.obj")
    v, f = subdivide(*subdivide(v0, f0))
    assert len(f) == 16 * len(f0)
    scale = np.abs(v0).max()
    for t, child in enumerate(f):
        parent = v0[f0[t // 16]]
        normal = np.cross(parent[1] - parent[0], parent[2] - parent[0])
        normal /= np.linalg.norm(normal)
        for p in v[child]:
            assert abs((p - parent[0]) @ normal) <= 1e-12 * scale
            assert (_barycentric(parent, p) >= -1e-12).all()
    # shared midpoints: still watertight, every edge on exactly two triangles
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]), axis=1)
    _, uses = np.unique(edges, axis=0, return_counts=True)
    assert set(uses.tolist()) == {2}


def test_subdivided_mug_keeps_its_verdict(tmp_path):
    from dextra.pipeline import run_pipeline

    dense = {inp.key: inp for inp in build_inputs("dense-mesh", ROOT / "scenes", tmp_path, 0)}
    assert dense["mug-01"].triangles == 16 * len(read_obj(MUG / "object.obj")[1])
    assert run_pipeline(dense["mug-01"].scene_dir).verdict == run_pipeline(MUG).verdict
