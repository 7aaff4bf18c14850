import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT


def _write(root, scene, timings=0.1, verdict="stable"):
    path = root / scene / "report.json"
    path.parent.mkdir(parents=True)
    path.write_text(json.dumps({"verdict": verdict, "timings": {"execute": timings}}))


def _same_reports(a, b, count):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "same_reports.py"), str(a), str(b),
         str(count)], capture_output=True, text=True)


@pytest.fixture()
def runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for scene in ("s1", "s2"):
        _write(a, scene)
        _write(b, scene, timings=0.2)
    return a, b


def test_reports_that_differ_in_timings_alone_pass(runs):
    done = _same_reports(*runs, 2)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2 report.json files identical outside timings\n"


@pytest.mark.parametrize("only_in", ["a", "b"])
def test_a_report_under_one_directory_alone_fails_in_one_line(runs, only_in):
    a, b = runs
    _write(a if only_in == "a" else b, "s3")
    done = _same_reports(a, b, 2)
    here, there = (a, b) if only_in == "a" else (b, a)
    assert done.returncode == 1
    want = f"{here / 's3' / 'report.json'}: no report at the same place under {there}\n"
    assert done.stderr == want


def test_a_report_that_differs_outside_timings_fails(runs):
    a, b = runs
    _write(b, "s3", verdict="unstable")
    _write(a, "s3")
    done = _same_reports(a, b, 3)
    assert done.returncode == 1
    assert done.stderr == f"{a / 's3' / 'report.json'}: differs outside timings\n"


def test_a_wrong_count_fails(runs):
    done = _same_reports(*runs, 3)
    assert done.returncode == 1
    assert done.stderr.startswith("2 report.json files under")
