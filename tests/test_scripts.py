"""Smoke tests of scripts/: each runs in a subprocess on the checkout's src/,
and only output that does not depend on timing is compared."""

import hashlib
import json
import os
import subprocess
import sys

from conftest import SCRIPTS

SRC = SCRIPTS.parent / "src"

# sha256 over the sorted relative paths and bytes of every file
# snapshot_outputs.py writes; any change to a CLI, JSON, CSV or BGF byte moves it
SNAPSHOT_FILES = 266
SNAPSHOT_SHA256 = "6fc4626715800fdfce7f5142181aeef850c18c13ab56e15209a790fdd165d889"


def run_script(name, *args, cwd=None):
    """The stdout lines of scripts/<name>.py run with src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *map(str, args)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def tree_digest(root):
    files = sorted(p for p in root.rglob("*") if p.is_file())
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return len(files), digest.hexdigest()


def test_cli_snapshot_digest(tmp_path):
    run_script("snapshot_outputs", tmp_path / "snap", cwd=tmp_path)
    assert tree_digest(tmp_path / "snap") == (SNAPSHOT_FILES, SNAPSHOT_SHA256)


def test_family_census():
    assert run_script("family_census", "--k", 3, "--n", 7, "--n-max", 9) == [
        "n=7: 1 families, sizes 2x1, one-flip connected member pairs: 2/2",
        "n=8: 2 families, sizes 2x2, one-flip connected member pairs: 4/4",
        "n=9: 5 families, sizes 2x5, one-flip connected member pairs: 10/10",
    ]


def test_count_candidates():
    totals = json.loads(run_script("count_candidates", 3, 8)[-1])
    del totals["wall_s"]
    assert totals == {"k": 3, "n_max": 8, "parents": 74, "candidates": 304, "fail_check": 155,
                      "blocked": 32, "reused": 57, "built": 60, "tests": 49, "classes": 117}


def test_build_fixtures(tmp_path):
    assert run_script("build_fixtures", tmp_path)[-1] == "all pairs verified Sunada isospectral"


def test_time_k5_display():
    report = json.loads(run_script("time_k5_display", 20, 1)[-1])
    assert report["random"]["sha256"] == \
        "ab5e7ca31c6c6b6ab8b96ebdc5bb5190ca6dd387162fc3e31d77336f297289d1"
