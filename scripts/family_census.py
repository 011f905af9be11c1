#!/usr/bin/env python3
"""Census of almost-conjugate families over a dimension range.

Prints, per dimension: number of families, size distribution, and how many
ordered member pairs are connected by a single flip.  The flip-coverage
functions live here, not in the library: no CLI command needs them.

Usage: python3 scripts/family_census.py --k 3 --n 7 --n-max 12
"""

import argparse
import sys
from collections import Counter

from flatiso import diagrep, flip as flip_mod
from flatiso.diagrep import DiagonalRep
from flatiso.search import SearchConfig, enumerate_families


def one_flip_reachable(a: DiagonalRep, b: DiagonalRep) -> bool:
    """Whether some single flip of a lands in the equivalence class of b."""
    size = 1 << a.k
    for g1 in range(1, size):
        for g2 in range(g1 + 1, size):
            outcome = flip_mod.apply_flip(a, flip_mod.FlipSpec(g1, g2))
            if outcome.applicable and diagrep.are_equivalent(outcome.rep, b):
                return True
    return False


def flip_coverage_report(families) -> list[dict[tuple[int, int], bool]]:
    """Per family: for each ordered member pair (i, j), whether one flip maps
    member i into the class of member j.  Single flips are involutive, so the
    relation is symmetric; both directions are reported anyway."""
    out = []
    for fam in families:
        reps = [diagrep.DiagonalRep.from_display(fam.k, m.display_q) for m in fam.members]
        flags = {}
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                if i != j:
                    flags[(i, j)] = one_flip_reachable(a, b)
        out.append(flags)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--n", type=int, default=7)
    parser.add_argument("--n-max", type=int, default=None)
    parser.add_argument("--skip-flips", action="store_true")
    args = parser.parse_args()

    cfg = SearchConfig(k=args.k, n=args.n, n_max=args.n_max)
    families = enumerate_families(cfg)
    for n in cfg.dimensions:
        fams = [f for f in families if f.n == n]
        sizes = Counter(f.size for f in fams)
        line = f"n={n}: {len(fams)} families, sizes " + \
            " ".join(f"{s}x{c}" for s, c in sorted(sizes.items()))
        if not args.skip_flips and fams:
            reports = flip_coverage_report(fams)
            connected = sum(sum(v.values()) for v in reports)
            total = sum(len(v) for v in reports)
            line += f", one-flip connected member pairs: {connected}/{total}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
