#!/usr/bin/env python3
"""Write a snapshot of the CLI's outputs into a directory, one file each.

Runs flatiso.cli.run in process over a fixed set of commands: the example
BGF files of build_fixtures.py, verify on the fixture pairs and on groups
that are not torsion-free, analyze and flip at k = 3 and 4, analyze at
k = 6 on the all-ones representation (refused by the degree >= 7 circuit
budget), compare-rings, build-main plus verify at k = 3..6 (k = 6 walks the
degree >= 7 circuits), build-24 for j = 1 and 8, find-translations at
k = 3..5 (at k = 5 three inputs without a solution and seeded random ones),
the three reference tables and enumerate as table, JSON and CSV.  Each file
holds the stdout, the stderr and the exit status of one command; BGF files
written by a command sit next to it.  All paths are relative to the output directory,
so two snapshots of different checkouts compare with

    python3 scripts/snapshot_outputs.py OLD
    python3 scripts/snapshot_outputs.py NEW     # after the change
    diff -r OLD NEW

Usage: python3 scripts/snapshot_outputs.py OUTDIR
"""

import contextlib
import importlib.util
import io
import os
import random
import sys
from pathlib import Path

from flatiso import bieberbach, cli
from flatiso.bieberbach import BieberbachGroup
from flatiso.diagrep import DiagonalRep, format_rep

K3_REPS = ("3,1,1,1,0,1,0", "2,2,2,0,0,2,0", "3,1,2,0,1,1,0", "1,1,1,1,1,1,1",
           "4,0,0,0,0,0,0", "2,2,2,2,2,2,2")
K4_REPS = ("2,1,1,1,0,0,0,1,1,0,0,0,0,0,0", "2,1,1,1,1,0,0,0,0,0,0,0,0,1,0",
           "1,1,1,1,1,1,1,1,1,1,1,1,1,1,1", "4,2,2,2,0,0,0,0,0,0,0,0,0,0,0")
FLIP_PAIRS = (None, "1,3", "2,1", "12,3")
SEED, RANDOM_REPS = 20240811, 6
# k = 5, one coordinate at each mask: no -Id and no torsion-free translations
K5_NO_SOLUTION = ((4, 19, 20, 23, 30), (8, 11, 20, 23, 28), (11, 12, 22, 26, 29))
K5_RANDOM_REPS = 20


def _random_reps(k, count):
    rng = random.Random(SEED + k)
    reps = []
    for _ in range(count):
        q = [0] * (1 << k)
        for _ in range(rng.randrange(k + 1, 4 * k + 4)):
            q[rng.randrange(1, 1 << k)] += 1
        reps.append(format_rep(DiagonalRep(k, tuple(q))))
    return reps


def _run(name, argv):
    out, err = io.StringIO(), io.StringIO()
    status = cli.run(argv, stdout=out, stderr=err)
    Path(f"{name}.txt").write_text(
        f"$ flatiso {' '.join(argv)}\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        f"--- exit {status}\n", encoding="utf-8")


def _build_fixtures(directory):
    path = Path(__file__).with_name("build_fixtures.py")
    spec = importlib.util.spec_from_file_location("build_fixtures", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv, sys.argv = sys.argv, [str(path), directory]
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            status = module.main()
    finally:
        sys.argv = argv
    Path("build_fixtures.txt").write_text(f"{out.getvalue()}--- exit {status}\n", encoding="utf-8")


def _not_torsion_free():
    """Two groups that fail torsion-freeness: the 8-dimensional Gamma with
    its third translation removed, and the same holonomy with none at all."""
    gamma, _ = bieberbach.construct_main_pair(3, 8)
    partial = BieberbachGroup(3, gamma.coord_chars, tuple(t & 0b011 for t in gamma.tags))
    bare = BieberbachGroup(3, gamma.coord_chars, (0,) * gamma.n)
    for name, group in (("partial", partial), ("bare", bare)):
        bieberbach.write_bgf(group, f"fixtures/{name}.bgf")


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit("usage: snapshot_outputs.py OUTDIR")
    outdir = Path(sys.argv[1])
    outdir.mkdir(parents=True, exist_ok=True)
    os.chdir(outdir)

    _build_fixtures("fixtures")
    _not_torsion_free()
    verify_pairs = [("dim8-gamma", "dim8-gammaprime"), ("dim7-gamma", "dim7-gammaprime"),
                    ("dim24-gamma1", "dim24-gamma8"), ("dim24-gamma3", "dim24-gamma5"),
                    ("partial", "dim8-gamma"), ("bare", "partial"), ("dim8-gamma", "dim7-gamma")]
    for a, b in verify_pairs:
        _run(f"verify-{a}-{b}", ["verify", "--a", f"fixtures/{a}.bgf", "--b", f"fixtures/{b}.bgf"])

    reps = {3: [*K3_REPS, *_random_reps(3, RANDOM_REPS)],
            4: [*K4_REPS, *_random_reps(4, RANDOM_REPS)]}
    for k, listed in reps.items():
        for i, rep in enumerate(listed):
            _run(f"analyze-k{k}-{i}", ["analyze", "--k", str(k), "--rep", rep])
            for pair in FLIP_PAIRS:
                extra = ["--pair", pair] if pair else []
                label = pair.replace(",", "_") if pair else "default"
                _run(f"flip-k{k}-{i}-{label}", ["flip", "--k", str(k), "--rep", rep, *extra])
            _run(f"find-translations-k{k}-{i}",
                 ["find-translations", "--k", str(k), "--rep", rep, "--out", f"found-k{k}-{i}.bgf"])
    k5 = [format_rep(DiagonalRep(5, tuple(int(m in masks) for m in range(32))))
          for masks in K5_NO_SOLUTION]
    for i, rep in enumerate([*k5, *_random_reps(5, K5_RANDOM_REPS)]):
        _run(f"find-translations-k5-{i}",
             ["find-translations", "--k", "5", "--rep", rep, "--out", f"found-k5-{i}.bgf"])
    _run("analyze-q0", ["analyze", "--k", "3", "--rep", "1,2,2,2,0,0,2,0", "--with-q0"])
    _run("analyze-k6-ones", ["analyze", "--k", "6", "--rep", ",".join(["1"] * 63)])

    for a, b in (("2,2,2,0,0,2,0", "3,1,2,0,1,1,0"), ("3,1,1,1,0,1,0", "2,2,2,0,0,2,0"),
                 ("10,6,3,2,1,1,1", "8,6,6,4,0,0,0")):
        _run(f"compare-rings-{a}-{b}", ["compare-rings", "--k", "3", "--rep-a", a, "--rep-b", b])

    for k in (3, 4, 5, 6):
        low = 3 * (1 << (k - 2)) + 1
        for n in (low, low + 3):
            prefix = f"main-k{k}-n{n}"
            _run(f"build-{prefix}", ["build-main", "--k", str(k), "--n", str(n), "--out", prefix])
            _run(f"verify-{prefix}", ["verify", "--a", f"{prefix}-gamma.bgf",
                                      "--b", f"{prefix}-gammaprime.bgf"])
    _run("build-main-too-small", ["build-main", "--k", "4", "--n", "12", "--out", "small"])
    for j in (1, 8):
        _run(f"build-24-j{j}", ["build-24", "--j", str(j), "--out", f"family24-j{j}.bgf"])

    for table in (1, 2, 3):
        _run(f"tables-{table}", ["tables", "--id", str(table)])
    for fmt in ("table", "json", "csv"):
        _run(f"enumerate-k3-{fmt}", ["enumerate", "--k", "3", "--n", "12", "--n-max", "14",
                                    "--format", fmt])
        _run(f"enumerate-k4-{fmt}", ["enumerate", "--k", "4", "--n", "8", "--format", fmt])
    return 0


if __name__ == "__main__":
    sys.exit(main())
