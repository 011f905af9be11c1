"""Exhaustive enumeration of almost-conjugate families of diagonal representations.

For fixed rank k and dimension n, run over all multiplicity vectors with
q_0 = 0 (compositions of n over the nonzero characters), keep the faithful
ones without -Id, deduplicate up to character relabeling, and group the
survivors by pattern: two representations land in the same family exactly
when they are almost-conjugate.

The filter is checked per row on the support bitmask s (bit m-1 set iff
q_m > 0) against the negative set neg_f of each nonzero element f (bit m-1
set iff chi_m(f) = -1): the row is faithful iff s meets every neg_f, and f
acts as -Id iff s lies inside neg_f.  Together: every nonzero element has
0 < n_f < n.

The costly part is the dedup.  Every multiplicity vector in an automorphism
orbit appears somewhere in the enumeration (the filters are orbit-invariant),
so it suffices to keep one "seen" set of vectors, held as byte keys: each
vector is written as big-endian unsigned bytes, so byte order is
lexicographic order.  The first time an orbit is met, diagrep.orbit_scan
sorts the distinct keys of all its relabellings; they are marked seen, and
the least one, the lexicographically least vector in numeric character
order, is kept as the canonical class representative.  Everything
downstream (patterns, member annotations, sorting) runs on the class
representatives only.  Members are printed via
diagrep.display_representative, the display-order lexicographic maximum of
the orbit, which is the representative the reference tables use.

The enumeration is an embarrassingly parallel map over the value of q_1;
the merge is a set union of canonical forms, so the output is
byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from . import diagrep, flip as flip_mod
from .chargroup import evaluate
from .diagrep import DiagonalRep
from .cohomology import betti_numbers, primitive_counts
from .errors import CapabilityError

COMPOSITION_BUDGET = 100_000_000
MAX_SEARCH_RANK = 4


@dataclass(frozen=True)
class SearchConfig:
    k: int
    n: int
    n_max: int | None = None
    min_family_size: int = 2
    workers: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.k > MAX_SEARCH_RANK:
            raise CapabilityError(f"enumeration is limited to k <= {MAX_SEARCH_RANK}")
        if self.n < self.k:
            raise ValueError("need n >= k: no faithful diagonal representation below that")
        if self.n_max is not None and self.n_max < self.n:
            raise ValueError("n_max must be >= n")
        if self.min_family_size < 1:
            raise ValueError("min_family_size must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    @property
    def dimensions(self) -> range:
        return range(self.n, (self.n_max if self.n_max is not None else self.n) + 1)

    def filters_dict(self) -> dict:
        return {
            "require_faithful": True,
            "forbid_minus_id": True,
            "require_q0_zero": True,
            "min_family_size": self.min_family_size,
        }


@dataclass(frozen=True)
class FamilyMember:
    display_q: tuple[int, ...]
    canonical: DiagonalRep
    prim: tuple[int, ...]
    betti: tuple[int, ...]


@dataclass(frozen=True)
class Family:
    k: int
    n: int
    pattern: tuple[int, ...]
    members: tuple[FamilyMember, ...]

    @property
    def size(self) -> int:
        return len(self.members)


# -- composition scan -----------------------------------------------------------


def admissible_rows(k: int, rows: np.ndarray) -> np.ndarray:
    """Which rows (multiplicity vectors with q_0 = 0, shape (B, 2^k)) are
    faithful and free of -Id: per nonzero element f, the support must meet
    both the negative set and the positive set of f."""
    size = 1 << k
    nonzero = (1 << (size - 1)) - 1
    # one bit per nonzero character: 15 bits at k = MAX_SEARCH_RANK
    bits = np.left_shift(np.uint16(1), np.arange(size - 1, dtype=np.uint16))
    support = ((rows[:, 1:] > 0) * bits).sum(axis=1, dtype=np.uint16)
    keep = np.ones(len(rows), dtype=bool)
    for f in range(1, size):
        neg = sum(1 << (m - 1) for m in range(1, size) if evaluate(m, f) == -1)
        keep &= (support & np.uint16(neg)) != 0
        keep &= (support & np.uint16(nonzero & ~neg)) != 0
    return keep


def _compositions(total: int, parts: int, chunk: int = 131072):
    """Yield (B, parts) int16 arrays of nonnegative compositions of total."""
    if parts == 0:
        if total == 0:
            yield np.zeros((1, 0), dtype=np.int16)
        return
    if parts == 1:
        yield np.array([[total]], dtype=np.int16)
        return
    slots = total + parts - 1
    it = itertools.combinations(range(slots), parts - 1)
    while True:
        block = list(itertools.islice(it, chunk))
        if not block:
            return
        pos = np.asarray(block, dtype=np.int64)
        ext = np.empty((pos.shape[0], parts + 1), dtype=np.int64)
        ext[:, 0] = -1
        ext[:, 1:-1] = pos
        ext[:, -1] = slots
        yield (np.diff(ext, axis=1) - 1).astype(np.int16)


def _enumerate_classes(k: int, n: int, first_values) -> list[tuple[int, ...]]:
    """Canonical class representatives among vectors whose q_1 lies in
    first_values.  Top-level function so that worker processes can receive
    it."""
    size = 1 << k
    seen: set = set()
    classes: list[tuple[int, ...]] = []
    for v in first_values:
        rest = n - v
        if rest < 0:
            continue
        for batch in _compositions(rest, size - 2):
            full = np.zeros((batch.shape[0], size), dtype=np.int16)
            full[:, 1] = v
            full[:, 2:] = batch
            rows = full[admissible_rows(k, full)]
            if not len(rows):
                continue
            for i, key in enumerate(diagrep.key_rows(rows, n).tolist()):
                if key in seen:
                    continue
                orbit = diagrep.orbit_scan(k, rows[i], n).tolist()
                seen.update(orbit)
                classes.append(diagrep.unkey(orbit[0], n))
    return classes


def _run_single_dimension(cfg: SearchConfig, n: int) -> list[Family]:
    free = (1 << cfg.k) - 1
    count = comb(n + free - 1, free - 1)
    if count > COMPOSITION_BUDGET:
        raise CapabilityError(
            f"enumeration would scan {count} compositions "
            f"(> budget {COMPOSITION_BUDGET})")

    if cfg.workers == 1:
        classes = _enumerate_classes(cfg.k, n, range(n + 1))
    else:
        slices = [range(w, n + 1, cfg.workers) for w in range(cfg.workers)]
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            parts = pool.map(_enumerate_classes, [cfg.k] * len(slices),
                             [n] * len(slices), slices)
            merged: set[tuple[int, ...]] = set()
            classes = []
            for part in parts:
                for row in part:
                    if row not in merged:
                        merged.add(row)
                        classes.append(row)

    # group canonical representatives by pattern
    groups: dict[tuple[int, ...], list[DiagonalRep]] = {}
    for row in classes:
        canon = DiagonalRep(cfg.k, row)
        groups.setdefault(diagrep.pattern(canon), []).append(canon)

    families = []
    for patt, reps in groups.items():
        if len(reps) < cfg.min_family_size:
            continue
        members = []
        for canon in reps:
            disp = diagrep.display_representative(canon)
            members.append(FamilyMember(
                display_q=disp.to_display(),
                canonical=canon,
                prim=primitive_counts(disp),
                betti=betti_numbers(disp),
            ))
        members.sort(key=lambda m: m.display_q, reverse=True)
        families.append(Family(cfg.k, n, patt, tuple(members)))
    families.sort(key=lambda f: f.members[0].display_q, reverse=True)
    return families


def enumerate_families(cfg: SearchConfig) -> list[Family]:
    """All families (pattern classes with >= min_family_size inequivalent
    members) for every dimension in the configured range, deterministically
    ordered: ascending dimension, then descending leading member."""
    out = []
    for n in cfg.dimensions:
        out.extend(_run_single_dimension(cfg, n))
    return out


# -- flip coverage --------------------------------------------------------------


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


# -- output remapping -------------------------------------------------------------


def families_to_json(cfg: SearchConfig, families) -> str:
    runs = []
    for n in cfg.dimensions:
        runs.append({
            "k": cfg.k,
            "n": n,
            "filters": cfg.filters_dict(),
            "families": [
                {
                    "pattern": list(f.pattern),
                    "members": [
                        {"q": list(m.display_q), "prim": list(m.prim), "betti": list(m.betti)}
                        for m in f.members
                    ],
                }
                for f in families if f.n == n
            ],
        })
    payload = runs[0] if cfg.n_max is None else runs
    return json.dumps(payload, indent=1)


def families_from_json(text: str) -> list[Family]:
    data = json.loads(text)
    runs = data if isinstance(data, list) else [data]
    out = []
    for run in runs:
        k = run["k"]
        for fam in run["families"]:
            members = []
            for m in fam["members"]:
                disp = tuple(m["q"])
                rep = DiagonalRep.from_display(k, disp)
                members.append(FamilyMember(
                    display_q=disp,
                    canonical=diagrep.canonical_form(rep),
                    prim=tuple(m["prim"]),
                    betti=tuple(m["betti"]),
                ))
            out.append(Family(k, run["n"], tuple(fam["pattern"]), tuple(members)))
    return out


def families_to_csv(families) -> str:
    buf = io.StringIO()
    if not families:
        return ""
    k = families[0].k
    plabels = [f"P{p}" for p in range(2, k + 2)]
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "family", "q", *plabels, "betti"])
    for idx, fam in enumerate(families, start=1):
        fid = f"F[{fam.k},{fam.n}]_{idx}"
        for m in fam.members:
            writer.writerow([
                fam.k, fam.n, fid,
                ",".join(str(v) for v in m.display_q),
                *[m.prim[p] if p < len(m.prim) else 0 for p in range(2, k + 2)],
                ",".join(str(v) for v in m.betti),
            ])
    return buf.getvalue()


def families_to_text(families, show_p5: bool | None = None) -> str:
    """Human-readable table: one block per dimension, families numbered inside."""
    lines = []
    current_n = None
    idx = 0
    for fam in families:
        if fam.n != current_n:
            current_n = fam.n
            idx = 0
            lines.append(f"n = {fam.n}")
        idx += 1
        p5 = fam.k >= 4 if show_p5 is None else show_p5
        lines.append(f"  F[{fam.k},{fam.n}]_{idx}")
        for m in fam.members:
            q = "[" + ",".join(str(v) for v in m.display_q) + "]"
            cols = f"P4={m.prim[4] if len(m.prim) > 4 else 0}"
            if p5:
                cols += f"  P5={m.prim[5] if len(m.prim) > 5 else 0}"
            lines.append(f"    {q}  {cols}")
    return "\n".join(lines)


# -- reference table reproduction ---------------------------------------------


TABLE_SPECS = {
    1: dict(k=3, n=7, n_max=11, min_family_size=2),
    2: dict(k=3, n=12, n_max=15, min_family_size=3),
    3: dict(k=4, n=7, n_max=9, min_family_size=2),
}


def reproduce_table(table_id: int, workers: int = 1) -> tuple[str, list[Family]]:
    """Families of the three reference tables: (1) all k=3 families for
    n = 7..11; (2) k=3 families with at least three members, n = 12..15;
    (3) all k=4 families for n = 7..9.  Returns rendered text and the data."""
    if table_id not in TABLE_SPECS:
        raise ValueError("table id must be 1, 2 or 3")
    cfg = SearchConfig(workers=workers, **TABLE_SPECS[table_id])
    families = enumerate_families(cfg)
    return families_to_text(families), families
