#!/usr/bin/env python3
"""Census of almost-conjugate families over a dimension range.

Prints, per dimension: number of families, size distribution, and how many
ordered member pairs are connected by a single flip.

Usage: python3 scripts/family_census.py --k 3 --n 7 --n-max 12
"""

import argparse
import sys
from collections import Counter

from flatiso.search import SearchConfig, enumerate_families, flip_coverage_report


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
