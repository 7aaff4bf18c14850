"""Check that two runs wrote the same report.json files, timings apart.

Run from the repository root:  python3 scripts/same_reports.py A B COUNT

Every report.json one level under directory A is compared with the file at
the same place under B, each without its "timings"; report.json holds every
stage digest, so only the timings may differ between two runs of one scene.
Exits non-zero if a pair differs, B lacks a file, or A does not hold COUNT.
"""

import json
import pathlib
import sys


def load(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    del doc["timings"]
    return doc


def main(argv):
    a, b, count = pathlib.Path(argv[0]), pathlib.Path(argv[1]), int(argv[2])
    reports = sorted(a.glob("*/report.json"))
    for path in reports:
        if load(path) != load(b / path.relative_to(a)):
            return f"{path}: differs outside timings"
    if len(reports) != count:
        return f"{len(reports)} report.json files under {a}, expected {count}"
    print(f"{count} report.json files identical outside timings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
