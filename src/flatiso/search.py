"""Exhaustive enumeration of almost-conjugate families of diagonal representations.

For fixed rank k and dimension n, run over the classes of multiplicity
vectors with q_0 = 0 up to character relabeling, keep the faithful ones
without -Id, and group them by pattern: two representations land in the
same family exactly when they are almost-conjugate.

The classes are generated in order (R. C. Read, "Every one a winner", Ann.
Discrete Math. 2, 1978), one level per dimension, each class held as its
diagrep.display_representative, the display-order lexicographic maximum of
its orbit.  Level 0 is the zero vector.  The children of a class x are the
vectors x + e_c that are their own display representative, for every
nonzero character c whose display position is at or after the last nonzero
display position of x.

This reaches every class exactly once.  If y is the display-order maximum
of its orbit, so is its parent y - e_L, L its last nonzero display position.
Else some relabelling reads y - e_L larger, first at a position p.  If
p < L, it reads y larger too: the unit it adds lands either before p, where
y and y - e_L agree, or at or after p, leaving it ahead at p.  If p >= L,
both readings agree before L, so they hold the same total from L on, and
y - e_L holds all of it at L: no reading is larger there.  And y determines
its parent, while a child x + e_c has its last nonzero display position at
that of c, so y comes only from y - e_L with c = L.  No set of seen vectors
is needed.

A candidate must first have greedy singletons, x[2^j] >= max(x[2^j:]) for
every j, and that is decided from the parent before the child is built.  x has
them, so x[1] >= x[2] >= x[4] >= ..., and y = x + e_c can fail only at
singletons 2^j < c, where it needs x[c] < x[2^j], and x[2^j] is least at t,
the largest singleton below c: so y passes iff c = 1 or x[c] < x[t].  That
drops 2,030 of the 7,281 candidates of class_levels(3, 18) (these counts
and those below from scripts/count_candidates.py 3 18).

A candidate is also dropped from its parent's automorphisms (the orbit
pruning of augmentations: McKay, "Isomorph-free exhaustive generation",
J. Algorithms 26, 1998).  Let g be a relabelling that fixes x, x[g[m]] =
x[m] for every m.  Then (x + e_c)[g[m]] = x[m] + [g[m] = c], so the
relabelling g reads x + e_c as x + e_d, d = g^-1(c), and as g runs over
a group G of relabellings fixing x, d runs over the orbit of c under G.  If
d sits at an earlier display position than c, that reading is larger: it
agrees with x + e_c before d and holds one more unit at d.  So x + e_c is
not its own display representative whenever the orbit of c under some
such G holds a mask at an earlier display position.  The canonicity test
returns the automorphisms its search knew (diagrep.display_automorphisms);
they need not generate the whole stabilizer of x, since any subgroup will
do.  The masks so blocked (_blocked) drop 863 more of the candidates
above.

The same automorphisms seed the child's canonicity test.  If g fixes x and
g[c] = c, then g fixes y = x + e_c: y[g[m]] = x[m] + [g[m] = c] = x[m] +
[m = c] = y[m], since g is a bijection.  So the parent's automorphisms
that fix c (_seeds) are automorphisms of y, and the display search of y
starts with them: it skips the columns they map onto explored ones, finds
fewer tied leaves, and returns the seeds with the automorphisms it found,
which together generate a subgroup of the stabilizer of y, all the
blocking needs.  The verdict does not depend on the seeds.

The rest go to the canonicity test, whose verdict depends only on the
child's order type, the dense ranks of its entries (diagrep.order_type):
the 4,388 kept candidates have 419 order types.  One class_levels call keeps
a record per accepted order type (_Type) and a memo from order type to
record, None for a rejected one; there is none across calls.  The record's
automorphisms fix every vector of the type, whichever vector's test found
them with whichever seeds: q[g[m]] = q[m] for every m iff the same holds for
the ranks of q.  So every class of the type blocks and seeds with them, and
its candidate list is a function of its order type, since the singleton
check and the stop at x[c] != 0 compare entries of x (x[c] != x[0], q_0 = 0).
And y = x + e_c differs from x only at c: y[m] < y[c] iff x[m] <= x[c], and
y[m] = y[c] iff x[m] = x[c] + 1, which holds exactly at the rank above
x[c]'s if x holds x[c] + 1 (merge), else nowhere.  So x's order type, c and
merge fix y's order type and verdict: each record keeps these transitions,
and 593 of them settle the 4,388 candidates.

Enumeration refuses up front, before any level is built, when its top
level must hold more than CLASS_BUDGET classes: each orbit holds at most
|GL(k, 2)| of the C(n + 2^k - 2, 2^k - 2) vectors of dimension n, so their
quotient is at most the number of classes built there.

Faithfulness and freedom from -Id are not inherited by parents, so they
apply at the requested dimensions only, read off each class's
diagrep.pattern patt: it is kept iff patt[n] == 1 and not patt[0], and the
kept classes are grouped by patt.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from math import comb, prod

from . import diagrep
from .chargroup import display_order
from .diagrep import DiagonalRep
from .cohomology import betti_from_pattern, primitive_counts
from .errors import CapabilityError

CLASS_BUDGET = 100_000
MAX_SEARCH_RANK = 4


@dataclass(frozen=True)
class SearchConfig:
    k: int
    n: int
    n_max: int | None = None
    min_family_size: int = 2
    workers: int = 1  # has no effect: enumeration runs in one process

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


@dataclass(frozen=True)
class FamilyMember:
    display_q: tuple[int, ...]
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


# -- orderly generation ------------------------------------------------------


def _keeps_singletons(x, c: int) -> bool:
    """Whether x + e_c has greedy singletons, given x has them (proof in the module docstring)."""
    return c == 1 or x[c] < x[1 << ((c - 1).bit_length() - 1)]


def _blocked(k: int, autos) -> int:
    """The bitmask of the masks c that some relabelling in the group autos
    generate sends to an earlier display position: x + e_c is then rejected,
    x the vector autos fix (proof in the module docstring)."""
    if not autos:
        return 0
    earlier, blocked = 0, 0
    for c in display_order(k):
        if diagrep._reaches(c, earlier, autos):
            blocked |= 1 << c
        earlier |= 1 << c
    return blocked


def _seeds(autos: bytes, c: int, size: int) -> list[bytes]:
    """The automorphisms in a type's bytes string that fix the mask c, so
    fix x + e_c too, x a class of the type (proof in the module docstring)."""
    return [autos[i:i + size] for i in range(0, len(autos), size) if autos[i + c] == c]


class _Type:
    """An accepted order type: its automorphisms laid end to end in bytes; once
    a class of it is a parent, its candidates c and transitions, slot 2i + merge
    to the i-th child's _Type, None if rejected, False until computed."""
    __slots__ = ("autos", "cands", "steps")

    def __init__(self, autos):
        self.autos, self.cands, self.steps = b"".join(map(bytes, autos)), None, None


def _children(k: int, parents, types, memo: dict) -> tuple[list[tuple[int, ...]], list]:
    """The classes one unit above parents, in parent order, as display
    representatives and their _Types, two lists like parents and types;
    memo maps an order type to its _Type, or to None."""
    scan = display_order(k)[:0:-1]
    ys, y_types = [], []
    for x, t in zip(parents, types):
        if t.cands is None:
            # x's candidates, a function of its order type; every automorphism fixes 0
            blocked, found = _blocked(k, _seeds(t.autos, 0, len(x))), []
            for c in scan:
                if not blocked >> c & 1 and _keeps_singletons(x, c):
                    found.append(c)
                if x[c]:
                    break
            t.cands, t.steps = tuple(found[::-1]), [False] * (2 * len(found))
        steps = t.steps
        for i, c in enumerate(t.cands):
            v = x[c] + 1
            step = 2 * i + (v in x)     # v in x: the merge flag
            child = steps[step]
            if child is False:
                y = x[:c] + (v,) + x[c + 1:]
                key = diagrep.order_type(y)
                if key not in memo:
                    got = diagrep.display_automorphisms(k, y, _seeds(t.autos, c, len(x)))
                    memo[key] = None if got is None else _Type(got)
                child = steps[step] = memo[key]
            if child is not None:
                ys.append(x[:c] + (v,) + x[c + 1:])
                y_types.append(child)
    return ys, y_types


def class_levels(k: int, n_max: int):
    """Yield (n, classes) for n = 1..n_max: every relabeling class of
    multiplicity vectors with q_0 = 0 and dimension n, unfiltered, each as
    its display representative (a q tuple in numeric character order).

    Each level is yielded as soon as it is built.  Canonicity verdicts,
    automorphisms, candidates and transitions are kept per order type for
    the whole call (_Type); each level's types sit in a list beside it."""
    memo: dict = {}
    # the zero vector: no automorphisms to block or seed with
    level, types = [(0,) * (1 << k)], [_Type([])]
    for n in range(1, n_max + 1):
        level, types = _children(k, level, types, memo)
        yield n, level


def _least_class_count(k: int, n: int) -> int:
    """A lower bound on the classes class_levels builds at dimension n: the
    C(n + 2^k - 2, 2^k - 2) vectors with q_0 = 0 fall into orbits of at most
    |GL(k, 2)| vectors each."""
    free = (1 << k) - 2
    group = prod((1 << k) - (1 << i) for i in range(k))
    return -(-comb(n + free, free) // group)


def _families(cfg: SearchConfig, n: int, classes) -> list[Family]:
    # keep the faithful classes without -Id and group them by pattern
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for q in classes:
        patt = diagrep.pattern(q)
        if patt[n] == 1 and not patt[0]:
            groups.setdefault(patt, []).append(q)

    families = []
    for patt, qs in groups.items():
        if len(qs) < cfg.min_family_size:
            continue
        reps = [DiagonalRep(cfg.k, q) for q in qs]
        betti = betti_from_pattern(patt, cfg.k)
        members = [FamilyMember(display_q=rep.to_display(), prim=primitive_counts(rep),
                                betti=betti) for rep in reps]
        members.sort(key=lambda m: m.display_q, reverse=True)
        families.append(Family(cfg.k, n, patt, tuple(members)))
    families.sort(key=lambda f: f.members[0].display_q, reverse=True)
    return families


def enumerate_families(cfg: SearchConfig) -> list[Family]:
    """All families (pattern classes with >= min_family_size inequivalent
    members) for every dimension in the configured range, deterministically
    ordered: ascending dimension, then descending leading member."""
    n_max = cfg.dimensions[-1]
    least = _least_class_count(cfg.k, n_max)
    if least > CLASS_BUDGET:
        raise CapabilityError(f"enumeration at k={cfg.k} up to n={n_max} builds at least "
                              f"{least} classes in its top level (> budget {CLASS_BUDGET})")
    out = []
    for n, classes in class_levels(cfg.k, n_max):
        if n >= cfg.n:
            out.extend(_families(cfg, n, classes))
    return out


# -- output remapping -------------------------------------------------------------


def families_to_json(cfg: SearchConfig, families) -> str:
    runs = []
    for n in cfg.dimensions:
        runs.append({
            "k": cfg.k,
            "n": n,
            "filters": {"require_faithful": True, "forbid_minus_id": True,
                        "require_q0_zero": True, "min_family_size": cfg.min_family_size},
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


def families_to_text(families) -> str:
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
        p5 = fam.k >= 4
        lines.append(f"  F[{fam.k},{fam.n}]_{idx}")
        for m in fam.members:
            q = "[" + ",".join(str(v) for v in m.display_q) + "]"
            cols = f"P4={m.prim[4] if len(m.prim) > 4 else 0}"
            if p5:
                cols += f"  P5={m.prim[5] if len(m.prim) > 5 else 0}"
            lines.append(f"    {q}  {cols}")
    return "\n".join(lines)


# -- reference tables ----------------------------------------------------------

# (1) all k=3 families for n = 7..11; (2) k=3 families with at least three
# members, n = 12..15; (3) all k=4 families for n = 7..9
TABLE_SPECS = {
    1: dict(k=3, n=7, n_max=11, min_family_size=2),
    2: dict(k=3, n=12, n_max=15, min_family_size=3),
    3: dict(k=4, n=7, n_max=9, min_family_size=2),
}
