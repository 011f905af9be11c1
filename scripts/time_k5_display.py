#!/usr/bin/env python3
"""Time diagrep.display_representative on k = 5 inputs.

Prints one JSON object with

  pinned   per slow input (named below): min and max of 3 runs, in seconds,
           and the representative's display vector
  random   the count, the seed, the total time, the largest time and its
           vector over COUNT random 0/1 vectors of length 32 (q_0 drawn too,
           all-zero vectors redrawn), each timed once, and the sha256 of
           their representatives' display vectors, one line each in draw
           order

Which vector is slowest depends on timing noise; the digest does not, so
two checkouts that agree on it return the same representatives.

Run it with a checkout's src/ on the path, once per checkout, to compare
two versions on the same inputs:

    PYTHONPATH=src python3 scripts/time_k5_display.py 3000 1
"""

import hashlib
import json
import random
import sys
import time

from flatiso.diagrep import DiagonalRep, display_representative

# 0/1 vectors with few zeros and no symmetry, and the nonzero masks of a
# 4-dimensional subspace: the two slowest display inputs found by timing
PINNED = {
    "few_zeros": (1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1,
                  1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1),
    "subspace": tuple(int(1 <= m <= 15) for m in range(32)),
}


def timed(q):
    start = time.perf_counter()
    form = display_representative(DiagonalRep(5, q))
    return time.perf_counter() - start, form


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: time_k5_display.py COUNT SEED")
    count, seed = map(int, argv)
    pinned = {}
    for name, q in PINNED.items():
        runs = [timed(q) for _ in range(3)]
        seconds = [s for s, _ in runs]
        pinned[name] = dict(min_s=round(min(seconds), 4), max_s=round(max(seconds), 4),
                            display=",".join(map(str, runs[0][1].to_display())))
    rng = random.Random(seed)
    worst, total, digest = (0.0, None), 0.0, hashlib.sha256()
    for _ in range(count):
        q = (0,) * 32
        while not any(q):
            q = tuple(rng.randrange(2) for _ in range(32))
        seconds, form = timed(q)
        worst = max(worst, (seconds, q))
        total += seconds
        digest.update((",".join(map(str, form.to_display())) + "\n").encode())
    random_part = dict(count=count, seed=seed, total_s=round(total, 4), max_s=round(worst[0], 4),
                       max_q="".join(map(str, worst[1])), sha256=digest.hexdigest())
    print(json.dumps(dict(pinned=pinned, random=random_part)))


if __name__ == "__main__":
    main(sys.argv[1:])
