#!/usr/bin/env python3
"""Record the expected verdict and stage output digests of every benchmark input.

Run from the repository root, at a commit whose verdicts are known good:

    python3 bench/record.py

It rewrites ``bench/expected.json``.  Output digests do not depend on the
seed (scene noise is zero), so seed 0 stands for every seed.
"""

import json
import shutil
import tempfile
from pathlib import Path

from run import EXPECTED, ROOT, SCENES, load_program
from workloads import WORKLOADS, build_inputs


def main() -> int:
    pipeline, _ = load_program()
    settings = pipeline.PipelineSettings(seed=0)
    doc = {}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=scratch))
    try:
        for workload in WORKLOADS:
            doc[workload] = {}
            for inp in build_inputs(workload, SCENES, work / workload, seed=0):
                report = pipeline.run_pipeline(inp.scene_dir, settings)
                doc[workload][inp.key] = {
                    "verdict": report.verdict,
                    "stages": {s["name"]: s["output"] for s in report.stages},
                }
                print(f"{workload} {inp.key}: {report.verdict}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
