#!/usr/bin/env python3
"""dextra benchmark: one workload, end-to-end metrics or a traced per-layer run.

Run from the repository root:

    python3 bench/run.py --workload dense-mesh --seed 1 --seconds 20 --trace 0

Each workload runs closed-loop: one client, one scene at a time, in this one
single-threaded process.  The seed shuffles scene order and sets
``PipelineSettings.seed``.  Set-up is a fresh-process ``import dextra.cli``
(median of several) plus one warm-up pass over every input, which fills caches
before the scene timing starts.  Then passes over the inputs are timed until
``--seconds`` have gone by.  End-to-end times are given at reference speed:
wall time over the time of fixed reference work timed around it
(``Reference``), times ``REF_SECONDS``, which host speed swings cancel out of.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  Every scene
run is checked against ``expected.json``; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread; numpy reads these when it is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from metrics import MIN_TAIL_SAMPLES, SPANS, layer_metrics, tail_percentile  # noqa: E402
from tracer import Tracer, bound_names, installed, package_modules  # noqa: E402
from workloads import WORKLOADS, build_inputs  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
EXPECTED = BENCH_DIR / "expected.json"
IMPORT_REPEATS = 5
REF_LOOP = 200_000          # Python iterations in the reference work
REF_ROWS = 50_000           # rows of the reference arrays
REF_NUMPY_REPEATS = 16
# the reference work's time at reference speed, about its median on the
# 2-vCPU Xeon host the benchmark was built on; it only sets the scale
REF_SECONDS = 0.03
_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, {src!r}); "
                 "start = time.perf_counter(); import dextra.cli; "
                 "print(time.perf_counter() - start)")


def log(message: str) -> None:
    print(message, flush=True)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

class Checker:
    """Checks each scene run against the recorded outputs.

    A run fails when its verdict differs from ``expected.json`` or its stage
    digests differ from the first run of the same input in this process.
    Output digests that differ from the recorded ones are only counted: a
    change may move digests, never verdicts.
    """

    def __init__(self, expected: dict):
        self.expected = expected
        self.first = {}
        self.drifted = {}       # key -> first stage whose output digest moved

    def problems(self, key: str, verdict: str, stages: list) -> list:
        want = self.expected.get(key)
        if want is None:
            return [f"{key}: no recorded verdict"]
        out = []
        if verdict != want["verdict"]:
            out.append(f"{key}: verdict {verdict}, recorded {want['verdict']}")
        first = self.first.setdefault(key, stages)
        if stages != first:
            out.append(f"{key}: stage digests differ between runs of one input")
        if key not in self.drifted:
            outputs = {s["name"]: s["output"] for s in stages}
            moved = [n for n, d in want["stages"].items() if outputs.get(n) != d]
            self.drifted[key] = moved[0] if moved else None
        return out


class Reference:
    """A fixed piece of Python and numpy work, timed between scene runs.

    The host this runs on changes speed by up to 1.8x for seconds to a minute
    at a time, and the reference work slows with the program.  A scene's cost
    is its wall time over the mean of the reference times just before and
    just after it, so those swings cancel out of it; ``REF_SECONDS`` times a
    cost is the scene's time at reference speed.  The reference does not
    touch dextra, so no change to the program moves it.  It allocates nothing
    while timed: whether a fresh array comes from the heap or from new pages
    differs between processes and changed its time by up to 1.5x.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.a = rng.random((REF_ROWS, 3))
        self.b = rng.random((REF_ROWS, 3))
        self.diff = np.empty_like(self.a)
        self.total = np.empty_like(self.a)
        self.dots = np.empty(REF_ROWS)
        self.seconds = []       # every reference time of the run
        self.last = self.measure()

    def measure(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(REF_LOOP):
            x += i * i
        for _ in range(REF_NUMPY_REPEATS):
            np.subtract(self.a, self.b, out=self.diff)
            np.add(self.a, self.b, out=self.total)
            np.einsum("ij,ij->i", self.diff, self.total, out=self.dots).argmin()
        secs = time.perf_counter() - start
        self.seconds.append(secs)
        return secs

    def scale(self) -> float:
        """Mean reference time over the stretch since the previous call."""
        before, self.last = self.last, self.measure()
        return 0.5 * (before + self.last)


@dataclass
class PassResult:
    """One pass over every input of a workload."""

    times: dict = field(default_factory=dict)   # input key -> seconds, completed scenes
    costs: dict = field(default_factory=dict)   # input key -> seconds over reference seconds
    wall: float = 0.0                           # timed program wall time
    attempted: int = 0
    failed: int = 0
    timings: list = field(default_factory=list)  # report.timings per scene
    bytes_written: int = 0


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

class SceneRunner:
    """dense-mesh and hand-sweep: ``run_pipeline`` on each input in turn."""

    def __init__(self, pipeline, inputs, seed: int, checker: Checker, ref: Reference):
        self.pipeline = pipeline
        self.ref = ref
        self.inputs = list(inputs)
        self.settings = pipeline.PipelineSettings(seed=seed)
        self.checker = checker
        self.rng = random.Random(seed)

    def run_pass(self, deadline=None) -> PassResult:
        """Run every input once, or stop starting scenes once ``deadline`` is past."""
        order = list(self.inputs)
        self.rng.shuffle(order)
        res = PassResult()
        for inp in order:
            start = time.perf_counter()
            if deadline is not None and start >= deadline:
                break
            res.attempted += 1
            try:
                report = self.pipeline.run_pipeline(inp.scene_dir, self.settings)
            except Exception:  # a scene that raises is a failed operation
                res.failed += 1
                log(f"failed {inp.key}: {traceback.format_exc()}")
                continue
            elapsed = time.perf_counter() - start
            res.times[inp.key] = elapsed
            res.costs[inp.key] = elapsed / self.ref.scale()
            res.wall += elapsed
            res.timings.append(dict(report.timings))
            problems = self.checker.problems(
                inp.key, report.verdict, [dict(s) for s in report.stages])
            if problems:
                res.failed += 1
                for p in problems:
                    log(f"failed {p}")
        return res


class LineClock(io.TextIOBase):
    """A stand-in for stdout that timestamps every completed line."""

    def __init__(self):
        super().__init__()
        self.lines = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        now = time.perf_counter()
        *done, self._partial = (self._partial + text).split("\n")
        self.lines.extend((now, line) for line in done)
        return len(text)


class BatchRunner:
    """fragile-batch: ``dextra batch`` in process through ``cli.main``.

    Each pass writes into an emptied output directory.  A scene's time is the
    gap between the lines the batch prints that start with its name, so it
    covers the scene's pipeline run and its output files.  Its cost takes the
    reference times just before and after the whole batch.
    """

    def __init__(self, cli, inputs, seed: int, out_dir: Path, checker: Checker,
                 ref: Reference):
        self.cli = cli
        self.ref = ref
        self.names = [inp.key for inp in inputs]
        self.out = out_dir
        self.argv = ["batch", str(inputs[0].scene_dir.parent), "--out", str(out_dir),
                     "--seed", str(seed)]
        self.checker = checker
        self.summary = None

    def run_pass(self, deadline=None) -> PassResult:
        """Run the whole batch once; a batch is short, so ``deadline`` is not used."""
        shutil.rmtree(self.out, ignore_errors=True)
        clock = LineClock()
        raised = None
        start = time.perf_counter()
        with redirect_stdout(clock), redirect_stderr(clock):
            try:
                self.cli.main(self.argv)
            except Exception:  # its scenes write no report: counted below
                raised = traceback.format_exc()
        res = PassResult(wall=time.perf_counter() - start, attempted=len(self.names))
        scale = self.ref.scale()
        if raised:
            log(f"batch raised: {raised}")
        prev = start
        for stamp, line in clock.lines:
            name = line.partition(":")[0]
            if name in self.names and name not in res.times:
                res.times[name] = stamp - prev
                res.costs[name] = res.times[name] / scale
                prev = stamp
            elif line.startswith("error"):
                log(f"batch: {line}")

        summary = self._read(self.out / "summary.json")
        if self.summary is None:
            self.summary = summary
        summary_ok = summary is not None and summary == self.summary
        if not summary_ok:
            log("failed: summary.json missing or not byte-identical to the first pass")
        for name in self.names:
            report = self._report(name)
            if report is None:
                problems = [f"{name}: wrote no report.json"]
            else:
                res.timings.append(report.get("timings", {}))
                problems = self.checker.problems(name, report["verdict"], report["stages"])
            if problems or not summary_ok:
                res.failed += 1
                for p in problems:
                    log(f"failed {p}")
        res.bytes_written = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        return res

    @staticmethod
    def _read(path: Path):
        try:
            return path.read_bytes()
        except OSError:
            return None

    def _report(self, name: str):
        raw = self._read(self.out / name / "report.json")
        return None if raw is None else json.loads(raw)


# ---------------------------------------------------------------------------
# set-up, measurement, output
# ---------------------------------------------------------------------------

def fresh_import_seconds() -> float:
    """Seconds to ``import dextra.cli`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE.format(src=str(SRC))],
                          capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


def environment(inputs, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": workload,
        "seed": seed,
        "inputs": len(inputs),
        "triangles": dict(Counter(inp.triangles for inp in inputs)),
        "hand_models": dict(Counter(inp.hand_model for inp in inputs)),
    }


def load_program():
    """Import dextra from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "dextra" / "__init__.py").is_file() or not SCENES.is_dir():
        raise SystemExit(f"error: no dextra sources under {SRC} or no scenes under {SCENES}")
    sys.path.insert(0, str(SRC))
    pipeline = importlib.import_module("dextra.pipeline")
    cli = importlib.import_module("dextra.cli")
    if Path(pipeline.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"error: dextra imported from {pipeline.__file__}, not {SRC}")
    return pipeline, cli


@dataclass
class Passes:
    """The timed passes of one kind, untraced or traced, in a run."""

    samples: list = field(default_factory=list)  # seconds of every completed scene run
    best: dict = field(default_factory=dict)     # input key -> its fastest run
    costs: dict = field(default_factory=dict)    # input key -> cost of each of its runs
    attempted: int = 0
    failed: int = 0
    timings: list = field(default_factory=list)
    bytes_written: int = 0

    def add(self, res: PassResult) -> None:
        self.samples += res.times.values()
        for key, secs in res.times.items():
            self.best[key] = min(secs, self.best.get(key, secs))
        for key, cost in res.costs.items():
            self.costs.setdefault(key, []).append(cost)
        self.attempted += res.attempted
        self.failed += res.failed
        self.timings += res.timings
        self.bytes_written += res.bytes_written

    def input_costs(self) -> list:
        """Each input's median cost over its runs."""
        return [statistics.median(c) for c in self.costs.values()]


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    pipeline, cli = load_program()
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[workload]
    inputs = build_inputs(workload, SCENES, work / "inputs", seed)
    checker = Checker(expected)
    ref = Reference()
    if workload == "fragile-batch":
        runner = BatchRunner(cli, inputs, seed, work / "out", checker, ref)
    else:
        runner = SceneRunner(pipeline, inputs, seed, checker, ref)
    log("env " + json.dumps(environment(inputs, workload, seed), sort_keys=True))

    import_s = statistics.median(fresh_import_seconds() for _ in range(IMPORT_REPEATS))
    import_cost = import_s / ref.scale()
    first = len(ref.seconds) - 1            # the reference just before the warm-up pass
    warm = runner.run_pass()
    setup_s = REF_SECONDS * (import_cost + warm.wall / statistics.fmean(ref.seconds[first:]))
    log(f"set-up: import dextra.cli {import_s:.4f} s (median of {IMPORT_REPEATS} fresh "
        f"processes) + warm-up pass {warm.wall:.4f} s of wall time; {setup_s:.4f} s "
        f"at reference speed")

    modules = package_modules("dextra")
    bound = bound_names(modules, SPANS)
    tracer = Tracer()
    plain, traced = Passes(), Passes()
    start = time.perf_counter()
    while True:
        # an untraced run stops at the deadline once the tail has its samples;
        # a traced run pairs whole passes
        enough = plain.attempted >= MIN_TAIL_SAMPLES
        plain.add(runner.run_pass(start + seconds if enough and not trace else None))
        if trace:
            with installed(tracer, modules, SPANS):
                traced.add(runner.run_pass())
        if time.perf_counter() - start >= seconds and (
                trace or plain.attempted >= MIN_TAIL_SAMPLES):
            break

    attempted = warm.attempted + plain.attempted + traced.attempted
    failed = warm.failed + plain.failed + traced.failed
    drifted = {k: s for k, s in checker.drifted.items() if s is not None}
    log(f"failed_frac {failed / attempted:.4f} ({failed}/{attempted} scene runs)")
    log(f"stage-digest drift: {len(drifted)} of {len(inputs)} inputs differ from "
        f"expected.json" + (f" (first moved stage: {drifted})" if drifted else ""))
    if not plain.samples or (trace and not traced.samples):
        raise SystemExit("error: no scene run finished")

    if not trace:
        # only failed scene runs leave too few samples for p50; take the max
        tail = tail_percentile(plain.samples) or (100.0, max(plain.samples), 0)
        log(f"scene_s_tail {tail[1]:.6g} s is p{tail[0]:g} of {len(plain.samples)} "
            f"scene runs, {tail[2]} beyond it (printed, not gated)")
        log(f"wall time, each input at its fastest run (printed, not gated): scene_s_p50 "
            f"{statistics.median(plain.best.values()):.6g} s, scenes_per_s "
            f"{len(plain.best) / sum(plain.best.values()):.6g} 1/s")
        log(f"reference work: median {statistics.median(ref.seconds):.6g} s, "
            f"{min(ref.seconds):.6g} to {max(ref.seconds):.6g} s over {len(ref.seconds)} runs")
        scene_s = [REF_SECONDS * cost for cost in plain.input_costs()]
        metrics = {
            "setup_s": (setup_s, "s"),
            "scene_s_p50": (statistics.median(scene_s), "s"),
            "scenes_per_s": (len(scene_s) / sum(scene_s), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        scenes = len(traced.samples)
        stage_means = {}
        for timing in traced.timings:
            for name, secs in timing.items():
                stage_means[name] = stage_means.get(name, 0.0) + secs / len(traced.timings)
        metrics, notes = layer_metrics(
            tracer, scenes, bound, stage_means,
            bytes_per_scene=traced.bytes_written / scenes,
            overhead_frac=(statistics.median(traced.input_costs())
                           / statistics.median(plain.input_costs()) - 1.0))
        for note in notes:
            log(f"note: {note}")
        mean_scene = statistics.fmean(traced.samples)
        shares = {k: metrics[k][0] / mean_scene for k in
                  ("geometry.surface_s", "kinematics.jacobian_s", "kinematics.fk_s",
                   "pipeline.digest_s", "cli.emit_s", "graspctl.run_grasp_s")
                  if k in metrics}
        log(f"traced: {scenes} scene runs, mean {mean_scene:.4f} s; share of scene time "
            + json.dumps({k: round(v, 4) for k, v in shares.items()}))
    for name, (value, unit) in metrics.items():
        log(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass    # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
