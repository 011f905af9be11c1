"""Diagonal integral representations of Z_2^k as multiplicity vectors.

A diagonal representation rho = sum_I q_I chi_I is stored as the vector of
multiplicities q indexed by character mask in numeric order (q[0] = q_0,
the multiplicity of the trivial character).  The human-facing text form
uses the bracket convention [q_1, q_2, ..., q_3, q_12, ...]: singletons
first, then pairs, and so on, with q_0 left out unless asked for.

Two representations are equivalent iff the corresponding diagonal subgroups
of O(n) are conjugate, which for diagonal groups amounts to relabeling the
characters by a group automorphism.  The canonical form is the display
representative, the orbit member that reads greatest in display order, and
two representations are equivalent iff their display representatives agree;
both come from one search over GL(k, 2) acting on masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import chargroup
from .chargroup import check_rank, display_order
from .errors import CapabilityError

MAX_DISPLAY_RANK = 5    # the largest k the display search accepts

KAHLER_NONE = "none"
KAHLER = "kahler"
HYPERKAHLER = "hyperkahler"


@dataclass(frozen=True)
class DiagonalRep:
    """Multiplicity vector of a diagonal representation of Z_2^k.

    q has length 2^k, indexed by character mask; all entries nonnegative.
    """

    k: int
    q: tuple[int, ...]

    def __post_init__(self):
        check_rank(self.k)
        if len(self.q) != 1 << self.k:
            raise ValueError(f"expected {1 << self.k} multiplicities, got {len(self.q)}")
        if any(v < 0 for v in self.q):
            raise ValueError("multiplicities must be nonnegative")
        if self.n < 1:
            raise ValueError("representation dimension must be >= 1")

    @property
    def n(self) -> int:
        return sum(self.q)

    @classmethod
    def from_display(cls, k: int, values, q0: int = 0) -> "DiagonalRep":
        """Build from the bracket convention [q_1, q_2, ..., q_12, ...] (q_0 separate)."""
        values = tuple(values)
        order = display_order(k)
        if len(values) != len(order) - 1:
            raise ValueError(f"expected {len(order) - 1} multiplicities for k={k}, got {len(values)}")
        q = [0] * (1 << k)
        q[0] = q0
        for mask, v in zip(order[1:], values):
            q[mask] = v
        return cls(k, tuple(q))

    def to_display(self) -> tuple[int, ...]:
        """Multiplicities of the nontrivial characters in display order."""
        return tuple(self.q[m] for m in display_order(self.k)[1:])

    def support(self) -> tuple[int, ...]:
        return tuple(m for m in range(1 << self.k) if self.q[m] > 0)


def parse_rep(text: str, k: int, with_q0: bool = False) -> DiagonalRep:
    """Parse the comma-separated text form, display order (e.g. "3,1,1,1,0,1,0")."""
    try:
        values = [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"malformed multiplicity list: {text!r}") from None
    if with_q0:
        check_rank(k)
        if len(values) != 1 << k:
            raise ValueError(f"expected {1 << k} multiplicities (q_0 first) for k={k}, "
                             f"got {len(values)}")
        return DiagonalRep.from_display(k, values[1:], q0=values[0])
    return DiagonalRep.from_display(k, values)


def format_rep(rep: DiagonalRep) -> str:
    return ",".join(str(v) for v in rep.to_display())


def fixed_dims(rep: DiagonalRep) -> tuple[int, ...]:
    """Dimension of the fixed space of rho(f) for every element f: the sum of
    q_J over chi_J(f) = +1, that is (n + sum_J q_J chi_J(f)) / 2, read off
    one Walsh-Hadamard transform of q."""
    n = rep.n
    return tuple((n + w) >> 1 for w in chargroup.walsh(rep.q))


def pattern(q) -> tuple[int, ...]:
    """Histogram (c_0, .., c_n) of fixed-space dimensions over all 2^k
    elements, for a multiplicity vector q (length 2^k, n = sum q >= 1).

    Element f fixes (n + w[f]) / 2 coordinates, w one Walsh-Hadamard
    transform of q (fixed_dims).  Two representations are almost-conjugate
    iff their patterns agree.  c_n = 1 iff the representation is faithful:
    only the identity fixes everything.  c_0 > 0 iff some element acts as
    -Id: the identity fixes n >= 1 coordinates, so an element fixing none
    is nonzero.
    """
    n = sum(q)
    counts = [0] * (n + 1)
    for w in chargroup.walsh(q):
        counts[(n + w) >> 1] += 1
    return tuple(counts)


def is_faithful(rep: DiagonalRep) -> bool:
    """True iff the supported characters span the full dual group: c_n = 1
    in the pattern."""
    return pattern(rep.q)[rep.n] == 1


def contains_minus_identity(rep: DiagonalRep) -> bool:
    """True iff some nonzero element acts as -Id, i.e. fixes nothing: c_0 > 0
    in the pattern."""
    return pattern(rep.q)[0] > 0


def is_orientable(rep: DiagonalRep) -> bool:
    """True iff every generator f_j has determinant +1, that is negates an
    even number n - n_B(f_j) of coordinates."""
    fixed = fixed_dims(rep)
    return all((rep.n - fixed[1 << j]) % 2 == 0 for j in range(rep.k))


def kahler_class(rep: DiagonalRep) -> str:
    """Classification by parity: "hyperkahler" if every q_I is divisible by 4,
    "kahler" if every q_I is even, else "none".

    "none" is the top-wedge obstruction, so it rules out any Kaehler
    structure.  Invariant 2-monomials pair coordinates within one character
    block, so the (n/2)-fold wedge of the invariant 2-forms is nonzero iff
    the coordinates split into within-block pairs, that is iff every q_I is
    even (odd n has no such pairing at all).
    """
    if all(v % 4 == 0 for v in rep.q):
        return HYPERKAHLER
    if all(v % 2 == 0 for v in rep.q):
        return KAHLER
    return KAHLER_NONE


# -- equivalence up to character relabeling ---------------------------------

# display_representative picks the relabelling of q whose display reading is
# greatest, without visiting the orbit.  A relabelling is an ordered basis
# c_0..c_{k-1} (c_j = img(2^j)) and maps q to q[img].  The search fixes the
# columns one at a time and prunes on what is known (Linton, "Finding the
# smallest image of a set", ISSAC 2004, here for the greatest image).  It
# yields each leaf that improves on the ones before it; display_automorphisms
# stops at the second such leaf, or at a first one that is not the identity,
# since either reads q larger.

@lru_cache(maxsize=None)
def _reading(k: int) -> tuple[int, ...]:
    """The masks a search key reads, in display order: all but 0 and the
    singletons.  Display order opens with the k singletons, and the columns
    kept are those with the greatest value (a greedy basis, so every kept
    path carries the same singleton values); the key starts after them with
    the pairs {1, j+1}, known at level j.
    """
    return tuple(m for m in display_order(k) if m.bit_count() > 1)


@lru_cache(maxsize=None)
def _levels(k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Per level j, what a node there knows of the key: the first key
    position whose mask is not below 2^j, and the masks below 2^j that sit
    at or after it."""
    keys = _reading(k)
    out = []
    for j in range(k):
        head = next((i for i, m in enumerate(keys) if m >> j), len(keys))
        out.append((head, tuple(m for m in keys[head:] if not m >> j)))
    return tuple(out)


def _greatest_image(k: int, q, seeds=()):
    """Yield, in search order, every automorphism img (img[m] for every mask
    m) whose key [q[img[m]] for m in keys] is lexicographically greater than
    the keys of all leaves before it, keys from _reading(k).  The last one
    yielded reads the greatest key.  The generator returns the automorphisms
    g of q it knew (q[g[m]] = q[m] for every m): the seeds, which must be
    automorphisms of q, then those it found, each as the sequence of images
    g[m].

    Level j picks the column c_j outside the span of c_0..c_{j-1}; the masks
    below 2^(j+1) are then known.  Of the columns, only those with the
    greatest pair (q[c], q[c ^ c_0]) are kept (q[c] alone at level 0).  A
    node is cut when its known key values, the unknown positions filled
    with the values left over in descending order, cannot reach the best key
    found; a node that can still tie it is explored.  Two leaves with equal
    keys give an automorphism of q fixing the columns they share: the later
    subtree at the level they part is abandoned, and a column in one orbit
    with an explored one, under the automorphisms known that fix the
    columns above it, is skipped.

    A node keeps the list of those fixing automorphisms.  It takes its
    parent's that fix its own last column, and appends every automorphism
    found while it is open, since that one fixes the columns its two leaves
    share, which include the node's, or else the search unwinds past it.

    Columns are tried in ascending order, and the identity's column 2^j is
    the least mask outside the span 0..2^j - 1, so the first leaf is the
    identity unless a column filter drops it.  A caller that only asks
    whether the identity is greatest stops at the second leaf yielded.
    """
    keys, levels = _reading(k), _levels(k)
    size = 1 << k
    best = None             # greatest key and its img
    autos = list(seeds)
    # the nonzero masks by descending q, ascending among equal values
    ranked = sorted(range(1, size), key=q.__getitem__, reverse=True)

    def node(j: int, span: list[int], fixing: list):
        # yields improving leaves; returns a level to unwind to, or None
        nonlocal best
        top = len(span)
        known = [q[s] for s in span]    # the values q reads at the masks below top
        if best is not None:
            most = best[0]
            head, later = levels[j]
            for i in range(head):
                v = known[keys[i]]
                if v != most[i]:
                    if v < most[i]:
                        return None
                    break
            else:
                # past the equal head: known values kept, the others greatest first
                tail = sorted(most[head:], reverse=True)
                for m in later:
                    tail.remove(known[m])
                fill = iter(tail)
                for i in range(head, len(keys)):
                    m = keys[i]
                    v = known[m] if m < top else next(fill)
                    if v != most[i]:
                        if v < most[i]:
                            return None
                        break
        # the columns outside the span with the greatest q[c], in ascending
        # order, and from level 1 on of those the greatest q[c ^ c_0]
        inside = set(span)
        cands, high = [], None
        for c in ranked:
            if c in inside:
                continue
            if high is None:
                high = q[c]
            elif q[c] < high:
                break
            cands.append(c)
        if j and len(cands) > 1:
            c0, kept, high = span[1], [], -1
            for c in cands:
                w = q[c ^ c0]
                if w > high:
                    kept, high = [c], w
                elif w == high:
                    kept.append(c)
            cands = kept
        explored, used = 0, len(autos)
        for c in cands:
            if len(autos) > used:
                fixing += autos[used:]
                used = len(autos)
            # an orbit-mate of an explored column roots an equal subtree
            if explored and fixing and _reaches(c, explored, fixing):
                continue
            explored |= 1 << c
            if j + 1 < k:
                back = yield from node(j + 1, span + [c ^ s for s in span],
                                       [g for g in fixing if g[c] == c])
                if back is not None and back < j:
                    return back
                continue
            key = list(map((known + [q[c ^ s] for s in span]).__getitem__, keys))
            if best is None or key > best[0]:
                img = span + [c ^ s for s in span]
                best = (key, img)
                yield img
            elif key == best[0]:
                img = span + [c ^ s for s in span]
                g = [0] * size
                for m, x in enumerate(best[1]):
                    g[x] = img[m]
                autos.append(g)
                d = 0
                while img[1 << d] == best[1][1 << d]:
                    d += 1
                if d < j:
                    return d
        return None

    yield from node(0, [0], list(autos))
    return autos


def _reaches(c: int, targets: int, gens) -> bool:
    """Whether the orbit of c under the group gens generate holds a mask in
    the bitmask targets; the walk stops at the first one."""
    seen, stack = 1 << c, [c]
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if not seen >> y & 1:
                if targets >> y & 1:
                    return True
                seen |= 1 << y
                stack.append(y)
    return False


def _check_search_rank(k: int) -> None:
    if k > MAX_DISPLAY_RANK:
        raise CapabilityError(f"canonical forms and equivalence tests are limited to "
                              f"k <= {MAX_DISPLAY_RANK}")


def display_representative(rep: DiagonalRep) -> DiagonalRep:
    """The canonical form: the orbit member whose display-order vector is
    lexicographically maximal.

    This is the representative the reference tables print (largest
    multiplicities pushed onto the earliest display slots) and the class
    representative enumeration generates.  Found by a pruned search over
    ordered bases, limited to k <= MAX_DISPLAY_RANK.
    """
    _check_search_rank(rep.k)
    return DiagonalRep(rep.k, _display_image(rep.k, rep.q))


# the name the benchmark's certify set-up calls; a def, not an alias, so a
# tracer that wraps every attribute holding a function wraps this one apart
def canonical_form(rep: DiagonalRep) -> DiagonalRep: return display_representative(rep)


def _display_image(k: int, q: tuple[int, ...]) -> tuple[int, ...]:
    *_, img = _greatest_image(k, q)
    return tuple(q[m] for m in img)


def order_type(q) -> bytes:
    """The dense rank of each entry of q among its distinct values, as bytes.

    display_automorphisms depends on q through its order type alone.  The
    singleton check and every step of the display search compare entries
    with each other, never with a constant, so a strictly increasing
    relabelling of the values leaves the verdict and, for the same seeds,
    the automorphisms found as they are.  As bytes (ranks < 2^k <= 32) it is a third of a tuple's
    size, and the memo of search.class_levels holds one per order type met:
    90,637 at k = 4, n <= 20.
    """
    s = sorted(set(q))
    return bytes(map(s.index, q))


def display_automorphisms(k: int, q: tuple[int, ...], seeds=()) -> list | None:
    """None unless the multiplicity vector q (length 2^k) is its own
    display_representative; else the seeds followed by the automorphisms of q
    the display search found, each as the sequence of images g[m], with
    q[g[m]] = q[m] for every m.  The seeds must be automorphisms of q; the
    search starts with them, so it skips the columns they map onto explored
    ones, and the verdict does not depend on them.  The list generates a
    subgroup of the stabilizer of q; that it is all of it is checked at
    k <= 4, n <= 10, with and without the seeds search.class_levels passes,
    not proved.  Same limit as display_representative.

    The display search runs until it decides: q is its own representative
    iff the first leaf is the identity and no later leaf reads larger.  A q
    without greedy singletons, q[2^j] < max(q[2^j:]) for some j, fails at
    the first leaf: the value filter at level j drops column 2^j.
    """
    _check_search_rank(k)
    leaves = _greatest_image(k, q, seeds)
    if next(leaves) != list(range(1 << k)):
        return None
    try:
        next(leaves)    # a later improving leaf reads q larger
    except StopIteration as done:
        return done.value
    return None


def _cheap_key(rep: DiagonalRep):
    # orbit invariants: multiplicity multiset and q_0
    return (tuple(sorted(rep.q)), rep.q[0])


def are_equivalent(a: DiagonalRep, b: DiagonalRep) -> bool:
    """True iff some automorphism relabeling carries the q-vector of a to b's:
    iff both have the same display representative."""
    if a.k != b.k or a.n != b.n:
        raise ValueError("representations must share rank and dimension")
    _check_search_rank(a.k)
    if a.q == b.q:
        return True
    if _cheap_key(a) != _cheap_key(b):
        return False
    return _display_image(a.k, a.q) == _display_image(b.k, b.q)
