"""Check that two runs wrote the same report.json files, timings apart.

Run from the repository root:  python3 scripts/same_reports.py A B COUNT

The report.json files one level under directories A and B must sit at the
same places, COUNT of them, and each pair must match without its
"timings"; report.json holds every stage digest, so only the timings may
differ between two runs of one scene.  Exits non-zero with a one-line
message if a pair differs, a report is under only one of A and B, or A does
not hold COUNT.
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
    found = [{p.relative_to(d) for p in d.glob("*/report.json")} for d in (a, b)]
    for here, there, only_here in ((a, b, found[0] - found[1]), (b, a, found[1] - found[0])):
        if only_here:
            return f"{here / min(only_here)}: no report at the same place under {there}"
    reports = sorted(found[0])
    for path in reports:
        if load(a / path) != load(b / path):
            return f"{a / path}: differs outside timings"
    if len(reports) != count:
        return f"{len(reports)} report.json files under {a}, expected {count}"
    print(f"{count} report.json files identical outside timings")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
