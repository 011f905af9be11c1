"""The benchmark's four workloads, their inputs and their output checks.

enum-k4      the k=4 reference table (n = 7..9), one process.  Orbit
             deduplication dominates: np.unique over 20160-row orbit
             matrices, then display_representative on every member.
enum-k4-w2   the same table with workers=2: the only workload that runs the
             process-pool split and merge.  Its text must equal enum-k4's.
enum-k3      all k=3 families for n = 12..18.  Orbits have 168 rows, so
             composition generation, the support filter, the seen-set and
             Betti/P per member dominate; n >= 16 uses the 8-bit key packing.
             The job takes about 2 s, so a 30 s run holds 10 to 15 jobs.
certify      closed loop, one client: seeded requests, each a faithful
             representation and an applicable nontrivial flip of it, run
             through the certification chain.  It never calls search.

The enumeration inputs are fixed by the tables they reproduce, so the seed
does not change them.  Each enum-* operation is one dimension n; each
certify operation is one request.  Every output is checked after the timed
part, against digests fixed at the commit that introduced the benchmark
(expected.json) or against identities computed here without the package.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import signal
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from flatiso import bieberbach, cohomology, diagrep, flip, search
from flatiso.diagrep import DiagonalRep

HERE = os.path.dirname(os.path.abspath(__file__))

# A certify request is abandoned once it runs this long.  That is about twice
# the slowest request that completes at the commit that introduced the
# benchmark (a k=4 pair that needs canonical_form, 0.1-0.25 s on a 2-core
# machine) and far below the k=5 exhaustive canonical_form scan (9.9M maps,
# minutes).  It also lands inside the Python part of that scan's first
# chunk (0.5-0.7 s to build 65536 maps, then about 1 s of np.unique that a
# signal cannot interrupt).  So an abandoned k=5 request stops at the
# deadline, and peak memory does not depend on whether np.unique began.
DEADLINE_S = 0.4
N_SPAN = 4          # dimensions per rank: n_min(k) .. n_min(k) + 3

# Requests per rank in one batch.  k=3 requests take 1-2 ms, so many of them
# put the median inside one dense cluster of latencies; k=4 has enough for
# the 90th percentile to fall among its canonical_form pairs (0.15-0.2 s);
# k=5 is smallest because each of its pairs that reaches the exhaustive
# canonical_form scan costs a full deadline.  A batch takes about 8 s, so a
# 30 s run holds three batches; 64 is the smallest k=4 quota near that size
# whose rounding still seats one request with -Id.
QUOTA = {3: 150, 4: 64, 5: 10}

# Share of each stratum (cheap equivalence key matches, some member has -Id)
# among the generator's draws, measured once over 20,000 draws per rank.
# These are two known slow paths; fixing their counts per batch at the
# natural rate keeps every seed's batch equally hard.  -Id is rare at k >= 4
# (1% at k=4, none in 20,000 draws at k=5): rounding gives a k=4 batch one
# such request and a k=5 batch none.  A third slow path, translation
# searches at k=4 that backtrack for seconds without -Id, cannot be told
# apart without running the search and keeps its natural, seed-dependent
# count (about 2% of k=4 requests).
STRATUM_RATES = {
    3: {(True, False): 0.67035, (False, False): 0.0996,
        (True, True): 0.20915, (False, True): 0.0209},
    4: {(True, False): 0.54665, (False, False): 0.44305,
        (True, True): 0.00415, (False, True): 0.00615},
    5: {(True, False): 0.3042, (False, False): 0.6958},
}


@dataclass
class Op:
    """One operation (a dimension or a request): its latency when it
    completed, else why it did not."""

    tag: str
    latency: float | None = None
    error: str | None = None       # exception or wrong output: a failure
    abandoned: bool = False        # passed the deadline

    @property
    def ok(self) -> bool:
        return self.latency is not None and self.error is None and not self.abandoned


@dataclass
class Job:
    wall: float
    ops: list[Op]
    latencies: list[float]         # of the user requests that completed correctly
    families: int = 0
    members: int = 0


def _span(tracer, name, tag=None):
    return tracer.span(name, tag) if tracer is not None else nullcontext()


# -- enumeration -------------------------------------------------------------

@dataclass(frozen=True)
class EnumSpec:
    k: int
    dims: range
    workers: int
    expected: str      # key into expected.json
    setup_n: int       # smallest n whose search fills every lazy table of rank k


ENUM_SPECS = {
    "enum-k4": EnumSpec(4, range(7, 10), 1, "k4-n7-9", 5),
    "enum-k4-w2": EnumSpec(4, range(7, 10), 2, "k4-n7-9", 5),
    "enum-k3": EnumSpec(3, range(12, 19), 1, "k3-n12-18", 4),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class EnumWorkload:
    def __init__(self, name: str):
        self.spec = spec = ENUM_SPECS[name]
        with open(os.path.join(HERE, "expected.json"), encoding="ascii") as fh:
            self.expected = json.load(fh)[spec.expected]
        free = (1 << spec.k) - 1
        # compositions of n over the nonzero characters: the search space
        self.compositions = sum(comb(n + free - 1, free - 1) for n in spec.dims)

    def job(self, tracer=None) -> Job:
        spec = self.spec
        ops, by_n, families = [], {}, []
        with _span(tracer, "bench.job"):
            t0 = time.perf_counter()
            for n in spec.dims:
                op = Op(f"n={n}")
                ops.append(op)
                start = time.perf_counter()
                try:
                    found = search.enumerate_families(
                        search.SearchConfig(k=spec.k, n=n, workers=spec.workers))
                except Exception as exc:  # a dimension that raises is a failed operation
                    op.error = f"{type(exc).__name__}: {exc}"
                    continue
                op.latency = time.perf_counter() - start
                by_n[n] = found
                families.extend(found)
            text = search.families_to_text(families)
            wall = time.perf_counter() - t0
        self._check(ops, by_n, text)
        # a user asks for the whole table, so the job is the request
        latencies = [wall] if all(op.ok for op in ops) else []
        return Job(wall, ops, latencies, len(families), sum(f.size for f in families))

    def _check(self, ops, by_n, text) -> None:
        whole_ok = _digest(text) == self.expected["sha256"]
        for op, n in zip(ops, self.spec.dims):
            if op.error:
                continue
            want = self.expected["dims"][str(n)]
            found = by_n[n]
            got = {"families": len(found), "members": sum(f.size for f in found),
                   "sha256": _digest(search.families_to_text(found))}
            if got != want:
                op.error = f"n={n}: got {got}, expected {want}"
            elif not whole_ok:
                op.error = "rendered table text differs from the expected digest"


# -- certification -------------------------------------------------------------

def n_min(k: int) -> int:
    """Smallest dimension of the generic isospectral pair construction."""
    return 3 * (1 << (k - 2)) + 1


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _rank(masks) -> int:
    basis: dict[int, int] = {}
    for m in masks:
        while m:
            h = m.bit_length() - 1
            if h not in basis:
                basis[h] = m
                break
            m ^= basis[h]
    return len(basis)


@lru_cache(maxsize=None)
def _flip_table(k: int):
    """Every flip pair g1 < g2 of rank k, and per pair the direction each
    multiplicity moves in.  Written from the definition, independently of
    flatiso's flip module."""
    pairs = list(itertools.combinations(range(1, 1 << k), 2))
    # +1 where chi(g1) = -1 and chi(g2) = +1, -1 on the opposite class, else 0
    delta = np.array([[_parity(m & g1) - _parity(m & g2) for m in range(1 << k)]
                      for g1, g2 in pairs], dtype=np.int64)
    return pairs, delta


def _fixed_dims(q, k):
    return [sum(v for m, v in enumerate(q) if not _parity(m & f)) for f in range(1 << k)]


def _pattern(q, k):
    return tuple(sorted(Counter(_fixed_dims(q, k)).items()))


def _has_minus_id(q, k) -> bool:
    return 0 in _fixed_dims(q, k)[1:]


def _orientable(q, k) -> bool:
    return all(sum(v for m, v in enumerate(q) if m >> j & 1) % 2 == 0 for j in range(k))


def _element_translations(group):
    out = [(0,) * group.n]
    for mask in range(1, 1 << group.k):
        low = mask & -mask
        gen = group.gen_translations[low.bit_length() - 1]
        out.append(tuple(a ^ b for a, b in zip(out[mask ^ low], gen)))
    return out


def _sunada(group) -> Counter:
    table: Counter = Counter()
    for mask, b in enumerate(_element_translations(group)):
        fixed = [j for j, c in enumerate(group.coord_chars) if not _parity(c & mask)]
        table[(len(fixed), sum(b[j] for j in fixed))] += 1
    return table


def _torsion_free(group) -> bool:
    return all(any(b[j] and not _parity(c & mask) for j, c in enumerate(group.coord_chars))
               for mask, b in enumerate(_element_translations(group)) if mask)


@dataclass(frozen=True)
class Request:
    k: int
    q: tuple[int, ...]            # multiplicities by character mask, q_0 = 0
    pair: tuple[int, int]         # flip elements (g1, g2)
    flipped: tuple[int, ...]      # the flip, computed by the generator
    stratum: tuple[bool, bool]    # (cheap equivalence key matches, some member has -Id)


def _draw(rng: random.Random, k: int, n: int) -> Request:
    """A faithful representation, uniform over the compositions of n over the
    nonzero characters (the enumeration's search space) that have an
    applicable flip moving q, and a flip drawn uniformly among those."""
    size = 1 << k
    pairs, delta = _flip_table(k)
    while True:
        bars = sorted(rng.sample(range(n + size - 2), size - 2))
        cuts = [-1, *bars, n + size - 2]
        q = (0, *(cuts[i + 1] - cuts[i] - 1 for i in range(size - 1)))
        if _rank(m for m in range(1, size) if q[m]) != k:
            continue
        shift, rest = np.divmod(-(delta @ np.array(q)), 1 << (k - 2))
        moved = np.array(q) + shift[:, None] * delta
        ok = np.flatnonzero((shift != 0) & (rest == 0) & (moved.min(axis=1) >= 0))
        if not len(ok):
            continue
        pick = int(ok[rng.randrange(len(ok))])
        flipped = tuple(int(v) for v in moved[pick])
        stratum = (sorted(q) == sorted(flipped),
                   _has_minus_id(q, k) or _has_minus_id(flipped, k))
        return Request(k, q, pairs[pick], flipped, stratum)


def _seats(quota: int, rates: dict) -> dict:
    """Requests per stratum: quota split by rate, largest remainders rounded up."""
    exact = {s: quota * r for s, r in rates.items()}
    seats = {s: int(x) for s, x in exact.items()}
    for s in sorted(exact, key=lambda s: seats[s] - exact[s])[:quota - sum(seats.values())]:
        seats[s] += 1
    return seats


def make_requests(seed: int) -> list[Request]:
    """The seed's batch: draws are kept while their stratum has seats left."""
    rng = random.Random(seed)
    batch = []
    for k, quota in QUOTA.items():
        seats = _seats(quota, STRATUM_RATES[k])
        draws = 0
        while any(seats.values()):
            req = _draw(rng, k, n_min(k) + draws % N_SPAN)
            draws += 1
            if seats.get(req.stratum):
                seats[req.stratum] -= 1
                batch.append(req)
    rng.shuffle(batch)
    return batch


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside a request that ran too long.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Outcome:
    flipped: DiagonalRep | None
    groups: tuple = ()
    torsion_free: tuple = ()
    isospectral: bool | None = None
    equivalent: bool | None = None
    betti: tuple = ()
    prim: tuple = ()
    generators: tuple = ()
    verdict: str = ""


def certify(req: Request) -> Outcome:
    """The certification chain for the pair (rho, flip of rho)."""
    rho = DiagonalRep(req.k, req.q)
    rho2 = flip.apply_flip(rho, flip.FlipSpec(*req.pair)).rep
    if rho2 is None:
        return Outcome(None)
    reps = (rho, rho2)
    groups = tuple(bieberbach.find_translations(r) for r in reps)
    torsion_free = tuple(g is not None and bieberbach.is_torsion_free(g).ok for g in groups)
    isospectral = None if None in groups else bieberbach.is_sunada_isospectral(*groups)
    equivalent = diagrep.are_equivalent(rho, rho2)
    betti = tuple(cohomology.betti_numbers(r) for r in reps)
    prim = tuple(cohomology.primitive_counts(r) for r in reps)
    generators = tuple(cohomology.minimal_generator_count(r) for r in reps)
    if generators[0] != generators[1]:
        verdict = "not isomorphic"
    elif prim[0] != prim[1]:
        verdict = "not isomorphic as graded algebras"
    else:
        verdict = "indistinguishable by P-counts"
    return Outcome(rho2, groups, torsion_free, isospectral, equivalent, betti, prim,
                   generators, verdict)


def check_outcome(req: Request, out: Outcome) -> str | None:
    """The first identity the outcome breaks, or None."""
    k = req.k
    if out.flipped is None or out.flipped.q != req.flipped:
        return f"flip gave {out.flipped}, expected {req.flipped}"
    if _pattern(req.q, k) != _pattern(req.flipped, k):
        return "flip changed the pattern"
    for q, g, tf in zip((req.q, req.flipped), out.groups, out.torsion_free):
        if g is None:
            continue
        holonomy = [0] * (1 << k)
        for c in g.coord_chars:
            holonomy[c] += 1
        if g.k != k or tuple(holonomy) != q:
            return "translation search changed the holonomy"
        if not (tf and _torsion_free(g)):
            return "translation search returned a group with torsion"
    if None not in out.groups and out.isospectral != (_sunada(out.groups[0]) == _sunada(out.groups[1])):
        return "Sunada comparison disagrees with the recomputed tables"
    n = sum(req.q)
    for q, betti, prim, gens in zip((req.q, req.flipped), out.betti, out.prim, out.generators):
        if len(betti) != n + 1 or sum(betti) != 1 << (n - k):
            return f"sum of Betti numbers {sum(betti)} != 2^(n-k)"
        if _orientable(q, k) and betti != betti[::-1]:
            return "Betti numbers of an orientable representation are not palindromic"
        if gens != sum(prim):
            return "minimal_generator_count != sum of P"
    if out.equivalent:
        if not req.stratum[0]:
            return "equivalent although the multiplicity multisets differ"
        if out.betti[0] != out.betti[1] or out.prim[0] != out.prim[1]:
            return "equivalent representations with different invariants"
    return None


class CertifyWorkload:
    compositions = 0

    def __init__(self, seed: int):
        self.requests = make_requests(seed)

    def job(self, tracer=None) -> Job:
        ops, outcomes = [], []
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            with _span(tracer, "bench.job"):
                t0 = time.perf_counter()
                for req in self.requests:
                    op, out = Op(f"k{req.k}"), None
                    start = time.perf_counter()
                    try:
                        with _span(tracer, "bench.request", op.tag):
                            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                            try:
                                out = certify(req)
                            finally:
                                signal.setitimer(signal.ITIMER_REAL, 0)
                        op.latency = time.perf_counter() - start
                    except DeadlineExceeded:
                        op.abandoned = True
                    except Exception as exc:  # a request that raises is a failed operation
                        op.error = f"{type(exc).__name__}: {exc}"
                    ops.append(op)
                    outcomes.append(out)
                wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for op, req, out in zip(ops, self.requests, outcomes):
            if out is not None:
                op.error = check_outcome(req, out)
        return Job(wall, ops, [op.latency for op in ops if op.ok])


def make(name: str, seed: int):
    if name == "certify":
        return CertifyWorkload(seed)
    if name in ENUM_SPECS:
        return EnumWorkload(name)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join([*ENUM_SPECS, 'certify'])}")


def setup(name: str) -> None:
    """The minimal call that fills the lazy tables a workload uses: the
    support and automorphism tables of its rank for enum-*, the materialized
    automorphism tables (k <= 4) for certify."""
    if name == "certify":
        for k in (3, 4):
            diagrep.canonical_form(DiagonalRep(k, (0,) + (1,) * ((1 << k) - 1)))
    else:
        spec = ENUM_SPECS[name]
        search.enumerate_families(search.SearchConfig(k=spec.k, n=spec.setup_n))
