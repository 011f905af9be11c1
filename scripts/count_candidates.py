#!/usr/bin/env python3
"""Count, per level, the work search.class_levels(K, N) does.

For each dimension n = 1..N it prints

  parents     classes of dimension n - 1
  candidates  vectors x + e_c, c at or after the parent's last nonzero
              display position (position 1 for the zero vector)
  fail_check  candidates without greedy singletons (some q[2^j] below
              max(q[2^j:])), which search._keeps_singletons rejects before
              the child is built
  blocked     candidates with greedy singletons missing from the candidate
              list of the parent's order type, which its automorphisms block
  reused      listed candidates settled by a transition stored earlier in
              the call: no order type computed
  built       listed candidates whose order type is computed
              (diagrep.order_type), one per transition computed
  tests       canonicity tests run (diagrep.display_automorphisms)
  classes     classes of dimension n
  wall_s      seconds the level took in a separate run without the counters

candidates and fail_check are computed here from the parents, so they do
not depend on the code measured.  blocked and reused read the candidate
lists (cands) of the per-type records search._children receives, and built
and tests are counted by wrapping the two diagrep functions, all from
outside the package.  Run it with the checkout's src/ on the path, once
per checkout, to compare two versions (a checkout without per-type
candidate lists needs its own copy of this script):

    PYTHONPATH=src python3 scripts/count_candidates.py 3 18
"""

import json
import sys
import time

from flatiso import diagrep, search
from flatiso.chargroup import display_order

COLUMNS = ("n", "parents", "candidates", "fail_check", "blocked", "reused", "built", "tests",
           "classes", "wall_s")


def _level_times(k, n_max):
    times, start = [], time.perf_counter()
    for _ in search.class_levels(k, n_max):
        now = time.perf_counter()
        times.append(now - start)
        start = now
    return times


def _fails_check(k, y):
    return any(y[1 << j] < max(y[1 << j:]) for j in range(k))


def count(k, n_max):
    """One dict per level with the COLUMNS, and the whole call's wall time
    measured without the counters."""
    times = _level_times(k, n_max)
    calls = {"built": 0, "tests": 0}
    order_type, test, children = diagrep.order_type, diagrep.display_automorphisms, search._children
    parent_types = []

    def counted_order_type(q):
        calls["built"] += 1
        return order_type(q)

    def counted_test(rank, q, seeds=()):
        calls["tests"] += 1
        return test(rank, q, seeds)

    def kept_children(rank, parents, types, memo):
        parent_types.append(types)
        return children(rank, parents, types, memo)

    diagrep.order_type, diagrep.display_automorphisms = counted_order_type, counted_test
    search._children = kept_children
    order = display_order(k)
    rows, parents = [], [(0,) * (1 << k)]
    try:
        for (n, level), wall, types in zip(search.class_levels(k, n_max), times, parent_types):
            candidates = fail = blocked = listed = 0
            for x, t in zip(parents, types):
                last = max((i for i, m in enumerate(order) if x[m]), default=1)
                listed += len(t.cands)
                for c in order[last:]:
                    candidates += 1
                    if _fails_check(k, x[:c] + (x[c] + 1,) + x[c + 1:]):
                        fail += 1
                    elif c not in t.cands:
                        blocked += 1
            rows.append(dict(n=n, parents=len(parents), candidates=candidates,
                             fail_check=fail, blocked=blocked, reused=listed - calls["built"],
                             built=calls["built"], tests=calls["tests"],
                             classes=len(level), wall_s=round(wall, 4)))
            calls.update(built=0, tests=0)
            parents = level
    finally:
        diagrep.order_type, diagrep.display_automorphisms = order_type, test
        search._children = children
    return rows, round(sum(times), 4)


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: count_candidates.py K N")
    k, n_max = map(int, argv)
    rows, wall = count(k, n_max)
    print(" ".join(f"{c:>10}" for c in COLUMNS))
    for row in rows:
        print(" ".join(f"{row[c]:>10}" for c in COLUMNS))
    totals = {c: sum(row[c] for row in rows) for c in COLUMNS[1:-1]}
    print(json.dumps(dict(k=k, n_max=n_max, **totals, wall_s=wall)))


if __name__ == "__main__":
    main(sys.argv[1:])
