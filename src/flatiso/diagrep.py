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
        if not values:
            raise ValueError("empty multiplicity list")
        return DiagonalRep.from_display(k, values[1:], q0=values[0])
    return DiagonalRep.from_display(k, values)


def format_rep(rep: DiagonalRep, with_q0: bool = False) -> str:
    vals = rep.to_display()
    if with_q0:
        vals = (rep.q[0],) + vals
    return ",".join(str(v) for v in vals)


def coordinate_characters(rep: DiagonalRep, order=None) -> tuple[int, ...]:
    """Character psi_j of each coordinate 1..n, laid out in blocks.

    ``order`` is the block order as a sequence of masks covering the support;
    defaults to display order.
    """
    if order is None:
        order = display_order(rep.k)
    else:
        seen = set()
        for m in order:
            chargroup.check_mask(m, rep.k)
            if m in seen:
                raise ValueError("duplicate character in block order")
            seen.add(m)
        missing = [m for m in rep.support() if m not in seen]
        if missing:
            raise ValueError(f"block order misses supported characters {missing}")
    out = []
    for m in order:
        out.extend([m] * rep.q[m])
    return tuple(out)


def fixed_dims(rep: DiagonalRep) -> tuple[int, ...]:
    """Dimension of the fixed space of rho(f) for every element f: the sum of
    q_J over chi_J(f) = +1, that is (n + sum_J q_J chi_J(f)) / 2, read off
    one Walsh-Hadamard transform of q."""
    n = rep.n
    return tuple((n + w) >> 1 for w in chargroup.walsh(rep.q))


def pattern(rep: DiagonalRep) -> tuple[int, ...]:
    """Histogram (c_0, .., c_n) of fixed-space dimensions over all 2^k elements."""
    counts = [0] * (rep.n + 1)
    for d in fixed_dims(rep):
        counts[d] += 1
    return tuple(counts)


def is_faithful(rep: DiagonalRep) -> bool:
    """True iff the supported characters span the full dual group."""
    return chargroup.f2_rank(rep.support()) == rep.k


def contains_minus_identity(rep: DiagonalRep) -> bool:
    """True iff some nonzero element acts as -Id, i.e. fixes nothing."""
    return 0 in fixed_dims(rep)[1:]


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
def _reading(k: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The masks a search key reads, in display order, and per level j the
    offsets m of the masks 2^j | m that decide between the columns of level j.

    Display order opens with the k singletons.  The columns kept are those
    with the greatest value (a greedy basis, so every kept path carries the
    same singleton values), and the key starts after the singletons with the
    pairs {1, j+1}, known at level j.
    """
    return (tuple(m for m in display_order(k) if m.bit_count() > 1),
            ((0,),) + ((0, 1),) * (k - 1))


def _orbit_labels(size: int, gens) -> list[int]:
    """A label per point, equal for points in one orbit of the group that
    the permutations gens generate."""
    root = list(range(size))
    for g in gens:
        for x in range(size):
            a, b = x, g[x]
            while root[a] != a:
                a = root[a]
            while root[b] != b:
                b = root[b]
            root[a] = b
    for x in range(size):
        while root[root[x]] != root[x]:
            root[x] = root[root[x]]
    return root


def _greatest_image(k: int, q):
    """Yield, in search order, every automorphism img (img[m] for every mask
    m) whose key [q[img[m]] for m in keys] is lexicographically greater than
    the keys of all leaves before it, keys and offsets from _reading(k).  The
    last one yielded reads the greatest key.  The generator returns the
    automorphisms g of q it found (q[g[m]] = q[m] for every m), each as the
    list of images g[m].

    Level j picks the column c_j outside the span of c_0..c_{j-1}; the masks
    below 2^(j+1) are then known.  Of the columns, only those with the
    greatest values at the masks 2^j | m, m in offsets[j], are kept.  A node
    is cut when its known key values, the unknown positions filled with the
    values left over in descending order, cannot reach the best key found; a
    node that can still tie it is explored.  Two leaves with equal keys give
    an automorphism of q fixing the columns they share: the later subtree at
    the level they part is abandoned, and a column in one orbit with an
    explored one, under the automorphisms found that fix the columns above
    it, is skipped.

    Columns are tried in ascending order, and the identity's column 2^j is
    the least mask outside the span 0..2^j - 1, so the first leaf is the
    identity unless a column filter drops it.  A caller that only asks
    whether the identity is greatest stops at the second leaf yielded.
    """
    keys, offsets = _reading(k)
    size = 1 << k
    best = None             # greatest key and its img
    autos: list[list[int]] = []

    def node(j: int, span: list[int]):
        # yields improving leaves; returns a level to unwind to, or None
        nonlocal best
        if best is not None:
            top, most = len(span), best[0]
            known = [q[span[m]] if m < top else None for m in keys]
            i = 0   # the full mask is a key and still unknown, so this stops
            while known[i] == most[i]:
                i += 1
            if known[i] is not None:
                if known[i] < most[i]:
                    return None
            else:
                # past the equal head: known values kept, the others greatest first
                tail = sorted(most[i:], reverse=True)
                for v in known[i:]:
                    if v is not None:
                        tail.remove(v)
                fill = iter(tail)
                if [next(fill) if v is None else v for v in known[i:]] < most[i:]:
                    return None
        inside = set(span)
        cands = [c for c in range(1, size) if c not in inside]
        for m in offsets[j]:
            if len(cands) == 1:
                break
            s, kept, high = span[m], [], None
            for c in cands:
                v = q[c ^ s]
                if high is None or v > high:
                    kept, high = [c], v
                elif v == high:
                    kept.append(c)
            cands = kept
        explored: list[int] = []
        used, labels = 0, None
        for c in cands:
            if explored and len(autos) > used:
                used, cols = len(autos), [span[1 << i] for i in range(j)]
                fixing = [g for g in autos if all(g[x] == x for x in cols)]
                labels = _orbit_labels(size, fixing) if fixing else None
            # an orbit-mate of an explored column roots an equal subtree
            if labels is not None and labels[c] in {labels[e] for e in explored}:
                continue
            explored.append(c)
            img = span + [c ^ s for s in span]
            if j + 1 < k:
                back = yield from node(j + 1, img)
                if back is not None and back < j:
                    return back
                continue
            key = [q[img[m]] for m in keys]
            if best is None or key > best[0]:
                best = (key, img)
                yield img
            elif key == best[0]:
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

    yield from node(0, [0])
    return autos


def _check_search_rank(k: int) -> None:
    if k > chargroup.MAX_EXHAUSTIVE_AUT_RANK:
        raise CapabilityError(f"canonical forms and equivalence tests are limited to "
                              f"k <= {chargroup.MAX_EXHAUSTIVE_AUT_RANK}")


def display_representative(rep: DiagonalRep) -> DiagonalRep:
    """The canonical form: the orbit member whose display-order vector is
    lexicographically maximal.

    This is the representative the reference tables print (largest
    multiplicities pushed onto the earliest display slots) and the class
    representative enumeration generates.  Found by a pruned search over
    ordered bases, limited to k <= chargroup.MAX_EXHAUSTIVE_AUT_RANK.
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
    relabelling of the values leaves the verdict and the automorphisms found
    as they are.  As bytes (ranks < 2^k <= 32) it is a third of a tuple's
    size, and the memo of search.class_levels holds one per order type met:
    90,637 at k = 4, n <= 20.
    """
    s = sorted(set(q))
    return bytes(map(s.index, q))


def display_automorphisms(k: int, q: tuple[int, ...]) -> list[list[int]] | None:
    """None unless the multiplicity vector q (length 2^k) is its own
    display_representative; else the automorphisms of q the display search
    met, each as the list of images g[m], with q[g[m]] = q[m] for every m.
    They generate a subgroup of the stabilizer of q; that it is all of it is
    checked at k <= 4, n <= 10, not proved.  Same limit as
    display_representative.

    A necessary check runs first: the display representative's singletons
    are greedy, so q[2^j] is the largest value at the masks outside the span
    of the singletons before it, which are the masks >= 2^j.  Then the
    display search runs until it decides: q is its own representative iff
    the first leaf is the identity and no later leaf reads larger.
    """
    _check_search_rank(k)
    if any(q[1 << j] < max(q[1 << j:]) for j in range(k)):
        return None
    leaves = _greatest_image(k, q)
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
