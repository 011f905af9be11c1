"""Independent reference implementations used only to cross-check results.

These deliberately avoid the library's computation paths: Betti numbers by
walking all 2^n coordinate subsets, by the dynamic program over character
blocks or by Molien's formula over the pattern (the formula the library
uses, so it is no independent check of it), primitive counts as sums over
the circuits inside the support at every degree, the Kaehler pairing test by
exhaustive matching, Sunada tables straight from column data with index-set
arithmetic, character relabelings by listing every automorphism of Z_2^k,
and the translation search as the plain element-by-element backtracking,
without the library's bitmask cuts, or by trying every translation matrix
at tiny ranks and dimensions.  The orderly class generator is also kept
here in its plain form, one canonicity test per candidate child and no
memo.

The circuits of each degree over all nonzero characters live here too: the
library only enumerates circuits inside a support (circuits_within), and
the tests check that enumerator against these complete lists.

So do the monomial listers the library's counts replaced: invariant_basis,
primitive_basis and decomposition_check list the invariant, primitive and
decomposable degree-p monomials, invariant_span and wedge_span build
monomial spans as {degree: frozenset} dicts with empty degrees dropped, and
lefschetz_operator_multiplicities recomputes the sl2 multiplicities from
exact ranks of the Lefschetz operator.  Each takes a group, laid out by its
own coord_chars, or a representation, laid out by coordinate_characters.
The closed-form sl2 multiplicities from a Betti vector
(lefschetz_multiplicities) sit next to that operator check.

The character pairing as a sign (evaluate), the coordinate layout of a
representation (coordinate_characters), the JSON reader of enumeration
output (families_from_json), BGF text as a string (bgf_text) and the
canonicity verdict as a bool (is_display_representative) are here too: only
the tests use them.

So is the display search as it was before it took seeds, walked orbits and
read its nodes more cheaply (greatest_image_reference, with the union-find
_orbit_labels it rebuilds in each node): without seeds, the library's search
must yield the same leaves in the same order and return the same
automorphisms.
"""

import io
import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, prod
from typing import Iterator

import numpy as np

from flatiso.bieberbach import BieberbachGroup, is_torsion_free, write_bgf
from flatiso.chargroup import check_mask, check_rank, circuits_within, display_order, product
from flatiso.diagrep import DiagonalRep, _reading, display_automorphisms
from flatiso.errors import CapabilityError
from flatiso.search import Family, FamilyMember

# the largest rank whose GL(k, 2) automorphisms are iterated one by one
MAX_EXHAUSTIVE_AUT_RANK = 5


def evaluate(chi: int, f: int) -> int:
    """Pairing chi(f) in {+1, -1}: parity of the intersection of the index sets."""
    return -1 if (chi & f).bit_count() & 1 else 1


def coordinate_characters(rep: DiagonalRep) -> tuple[int, ...]:
    """Character psi_j of each coordinate 1..n, laid out in blocks in display order."""
    out = []
    for m in display_order(rep.k):
        out.extend([m] * rep.q[m])
    return tuple(out)


def brute_betti(rep):
    """Invariant-monomial counts by enumerating every coordinate subset."""
    psi = coordinate_characters(rep)
    n = rep.n
    chars = [0] * (1 << n)
    counts = [0] * (n + 1)
    counts[0] = 1
    for s in range(1, 1 << n):
        low = s & -s
        chars[s] = chars[s ^ low] ^ psi[low.bit_length() - 1]
        if chars[s] == 0:
            counts[s.bit_count()] += 1
    return tuple(counts)


def block_dp_betti(rep):
    """Invariant-monomial counts by a dynamic program over the 2^k character
    blocks with state (accumulated character, degree); choosing j of the q_I
    coordinates in block I multiplies by binomial(q_I, j) and twists the
    character by I^j."""
    n = rep.n
    size = 1 << rep.k
    dp = [[0] * (n + 1) for _ in range(size)]
    dp[0][0] = 1
    for block, qi in enumerate(rep.q):
        if qi == 0:
            continue
        binom = [comb(qi, j) for j in range(qi + 1)]
        new = [[0] * (n + 1) for _ in range(size)]
        for c in range(size):
            row = dp[c]
            for d in range(n + 1):
                v = row[d]
                if not v:
                    continue
                for j in range(min(qi, n - d) + 1):
                    tc = c ^ block if j & 1 else c
                    new[tc][d + j] += v * binom[j]
        dp = new
    return tuple(dp[0])


def circuit_sum_primitive_counts(rep):
    """(P_0, .., P_n) with P_p for p >= 3 the sum over the degree-p circuits
    inside the support of the products of the member multiplicities."""
    n = rep.n
    support = tuple(m for m in range(1, 1 << rep.k) if rep.q[m])
    out = [0] * (n + 1)
    out[0] = 1
    if n >= 1:
        out[1] = rep.q[0]
    if n >= 2:
        out[2] = sum(comb(rep.q[m], 2) for m in support)
    for p in range(3, min(rep.k + 1, n) + 1):
        out[p] = sum(prod(rep.q[m] for m in c) for c in circuits_within(support, p))
    return tuple(out)


def molien_betti(patt, k):
    """Betti numbers from the pattern alone, by Molien's formula:
    beta_p = 2^-k sum_f [t^p] (1+t)^{n_f} (1-t)^{n-n_f}, where pattern entry
    c_s counts the elements f with n_f = s."""
    n = len(patt) - 1
    out = []
    for p in range(n + 1):
        total = sum(c * comb(s, j) * comb(n - s, p - j) * (-1) ** (p - j)
                    for s, c in enumerate(patt) for j in range(p + 1))
        assert total % (1 << k) == 0
        out.append(total >> k)
    return tuple(out)


def primitive_count_p4_k3(rep):
    """Closed form for P_4 at k = 3: the seven degree-4 circuit terms."""
    if rep.k != 3:
        raise ValueError("closed form only defined for k = 3")
    q1, q2, q3 = rep.q[0b001], rep.q[0b010], rep.q[0b100]
    q12, q13, q23, q123 = rep.q[0b011], rep.q[0b101], rep.q[0b110], rep.q[0b111]
    return (q1 * q2 * q3 * q123
            + q1 * q2 * q13 * q23
            + q1 * q3 * q12 * q23
            + q1 * q12 * q13 * q123
            + q2 * q3 * q12 * q13
            + q2 * q12 * q23 * q123
            + q3 * q13 * q23 * q123)


@lru_cache(maxsize=8)
def derive_element_translations(group: BieberbachGroup) -> tuple[tuple[int, ...], ...]:
    """Numerators of b_I for every element mask I (mod-1 sums, i.e. XOR),
    indexed by mask.  Cached, so that half_fixed_count over every element
    of a large group derives them once."""
    out = [(0,) * group.n]
    for mask in range(1, 1 << group.k):
        low = mask & -mask
        gen = group.gen_translations[low.bit_length() - 1]
        out.append(tuple(a ^ b for a, b in zip(out[mask ^ low], gen)))
    return tuple(out)


def element_translation(group, mask):
    """Numerators of b_I for one element mask I."""
    check_mask(mask, group.k)
    return derive_element_translations(group)[mask]


def half_fixed_count(group, mask):
    """Number of coordinates fixed by B_I whose b_I entry is 1/2."""
    b = element_translation(group, mask)
    return sum(1 for c, v in zip(group.coord_chars, b) if v and evaluate(c, mask) == 1)


def brute_block_matching(rep):
    """Whether the coordinates split into pairs with equal characters."""
    psi = list(coordinate_characters(rep))

    def match(coords):
        if not coords:
            return True
        first, rest = coords[0], coords[1:]
        for i, other in enumerate(rest):
            if psi[first] == psi[other] and match(rest[:i] + rest[i + 1:]):
                return True
        return False

    return match(list(range(rep.n)))


def sunada_from_columns(char_indices, half_rows, k):
    """(n_B, n_{B,1/2}) histogram computed with plain index-set arithmetic.

    char_indices: per coordinate, the set of generators negating it;
    half_rows: per generator, the set of 1-based coordinates carrying 1/2.
    """
    from collections import Counter
    from itertools import combinations

    n = len(char_indices)
    counts = Counter()
    for r in range(k + 1):
        for element in combinations(range(1, k + 1), r):
            elem = set(element)
            halves = set()
            for i in element:
                halves ^= {j for j in half_rows[i - 1]}
            s = t = 0
            for j in range(1, n + 1):
                if len(set(char_indices[j - 1]) & elem) % 2 == 0:
                    s += 1
                    if j in halves:
                        t += 1
            counts[(s, t)] += 1
    return dict(counts)


# -- monomials of the invariant exterior algebra -----------------------------


def _characters(source) -> tuple[int, ...]:
    if isinstance(source, BieberbachGroup):
        return source.coord_chars
    return coordinate_characters(source)


def invariant_basis(source, p):
    """The invariant degree-p monomials as sorted tuples of 1-based
    coordinates, in lexicographic order."""
    psi = _characters(source)
    return [tuple(j + 1 for j in combo) for combo in combinations(range(len(psi)), p)
            if product(psi[j] for j in combo) == 0]


def _splits(mono, psi) -> bool:
    # an invariant proper sub-monomial exists iff one of degree <= p/2 does
    return any(product(psi[j - 1] for j in sub) == 0
               for r in range(1, len(mono) // 2 + 1) for sub in combinations(mono, r))


def primitive_basis(source, p):
    """Invariant degree-p monomials with no invariant proper sub-monomial."""
    psi = _characters(source)
    return [mono for mono in invariant_basis(source, p) if not _splits(mono, psi)]


def decomposition_check(source, p) -> int:
    """Number of invariant degree-p monomials that split off an invariant
    sub-monomial: beta_p - P_p."""
    psi = _characters(source)
    return sum(_splits(mono, psi) for mono in invariant_basis(source, p))


def invariant_span(source, degrees) -> dict[int, frozenset]:
    """The invariant monomials of the given degrees, by degree."""
    spans = {p: frozenset(invariant_basis(source, p)) for p in degrees}
    return {p: span for p, span in spans.items() if span}


def wedge_span(a, b) -> dict[int, frozenset]:
    """Monomial span of the wedge product: the disjoint unions of index sets."""
    acc: dict[int, set] = {}
    for da, sa in a.items():
        for db, sb in b.items():
            acc.setdefault(da + db, set()).update(
                tuple(sorted(m1 + m2)) for m1 in sa for m2 in sb if set(m1).isdisjoint(m2))
    return {d: frozenset(s) for d, s in acc.items() if s}


def _exact_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pr = m[rank]
        for i in range(rank + 1, len(m)):
            if m[i][col]:
                a, b = pr[col], m[i][col]
                m[i] = [a * x - b * y for x, y in zip(m[i], pr)]
        rank += 1
    return rank


def lefschetz_operator_multiplicities(source) -> dict[int, int]:
    """The sl2 multiplicities from exact ranks of L, the wedge with the
    Kaehler form sum e_j ^ e_{j+1} over the coordinate pairs (1, 2), (3, 4),
    ..., which must each lie in one character block: the module of dimension
    n/2 - p + 1 occurs dim H^p - rank(L: H^(p-2) -> H^p) times."""
    psi = _characters(source)
    n = len(psi)
    pairs = [(j, j + 1) for j in range(1, n + 1, 2)]
    assert n % 2 == 0 and all(psi[a - 1] == psi[b - 1] for a, b in pairs)
    bases = {p: invariant_basis(source, p) for p in range(n + 1)}
    index = {p: {mono: i for i, mono in enumerate(bases[p])} for p in bases}

    def l_matrix(p):
        rows = []
        for mono in bases[p]:
            row = [0] * len(bases[p + 2])
            for a, b in pairs:
                if a not in mono and b not in mono:
                    sign = (-1) ** (sum(x < a for x in mono) + sum(x < b for x in mono))
                    row[index[p + 2][tuple(sorted(mono + (a, b)))]] += sign
            rows.append(row)
        return rows

    out = {}
    for p in range(n // 2 + 1):
        below = _exact_rank(l_matrix(p - 2)) if p >= 2 else 0
        if prim := len(bases[p]) - below:
            out[n // 2 - p + 1] = prim
    return out


def lefschetz_multiplicities(betti, n: int) -> dict[int, int]:
    """Multiplicities of the irreducible sl2-modules on the cohomology of a
    Kaehler manifold: the module of dimension d = n/2 - p + 1 occurs
    beta_p - beta_{p-2} times (0 <= p <= n/2).  Zero entries are omitted.

    Raises if the Betti vector is not symmetric (no Poincare duality) or if
    some difference is negative (hard Lefschetz fails: the input cannot come
    from a Kaehler manifold).
    """
    betti = tuple(betti)
    if n % 2 or len(betti) != n + 1:
        raise ValueError("need even n and a Betti vector of length n+1")
    if any(betti[p] != betti[n - p] for p in range(n + 1)):
        raise ValueError("Betti vector is not Poincare symmetric")
    out = {}
    for p in range(n // 2 + 1):
        m = betti[p] - (betti[p - 2] if p >= 2 else 0)
        if m < 0:
            raise ValueError(f"hard Lefschetz fails at degree {p}: "
                             f"beta_{p} < beta_{p - 2} (non-Kaehler input)")
        if m:
            out[n // 2 - p + 1] = m
    return out


# -- circuits of the character group ----------------------------------------


@dataclass(frozen=True)
class Circuit:
    """Minimal dependent set of nonzero characters.

    ``members`` is a strictly increasing tuple of masks whose XOR vanishes
    with no proper nonempty sub-XOR vanishing.  Degree 2 is the boundary
    case {I, I}: it is stored as the single mask with ``doubled`` set.
    """

    members: tuple[int, ...]
    degree: int
    doubled: bool = False

    def __post_init__(self):
        if self.doubled:
            assert self.degree == 2 and len(self.members) == 1
        else:
            assert self.degree == len(self.members)


@lru_cache(maxsize=None)
def circuits(k: int, p: int) -> tuple[Circuit, ...]:
    """All degree-p circuits among the nonzero characters of Z_2^k, in
    lexicographic order of their sorted member tuples.

    Empty for p > k+1 (any p-1 of the members must be linearly independent).
    """
    check_rank(k)
    if p < 2:
        raise ValueError(f"circuit degree must be >= 2, got {p}")
    if p > k + 1:
        return ()
    nonzero = tuple(range(1, 1 << k))
    if p == 2:
        return tuple(Circuit((m,), 2, doubled=True) for m in nonzero)
    return tuple(Circuit(full, p) for full in circuits_within(nonzero, p))


# -- automorphisms of the character group ----------------------------------


def _invertible_matrices(k: int) -> Iterator[tuple[int, ...]]:
    """Yield every invertible k x k matrix over GF(2) as a tuple of column masks."""
    cols: list[int] = []
    span = {0}

    def rec():
        if len(cols) == k:
            yield tuple(cols)
            return
        for c in range(1, 1 << k):
            if c in span:
                continue
            cols.append(c)
            added = [s ^ c for s in span]
            span.update(added)
            yield from rec()
            span.difference_update(added)
            cols.pop()

    yield from rec()


def _mask_images(cols: tuple[int, ...], k: int) -> tuple[int, ...]:
    img = [0] * (1 << k)
    for m in range(1, 1 << k):
        low = m & -m
        img[m] = img[m ^ low] ^ cols[low.bit_length() - 1]
    return tuple(img)


def automorphisms(k: int) -> Iterator[tuple[int, ...]]:
    """Iterate over the dual automorphisms of Z_2^k.

    Each item is a permutation of the 2^k masks given as a lookup tuple
    ``img`` with ``img[m]`` the image of mask ``m``; the maps are exactly
    the bit-linear bijections, prod_{i<k}(2^k - 2^i) of them.  Capped at
    k = 5 (~9.9M maps); beyond that use pairwise invariants instead of
    exhaustive iteration.
    """
    check_rank(k)
    if k > MAX_EXHAUSTIVE_AUT_RANK:
        raise CapabilityError(
            f"exhaustive automorphism iteration is limited to k <= {MAX_EXHAUSTIVE_AUT_RANK}; "
            "use invariant pre-filters plus pairwise orbit search for larger ranks"
        )
    for cols in _invertible_matrices(k):
        yield _mask_images(cols, k)


def automorphism_count(k: int) -> int:
    """Order of GL(k, 2)."""
    n = 1
    for i in range(k):
        n *= (1 << k) - (1 << i)
    return n


# largest number of automorphism maps automorphism_table materializes
AUT_BLOCK = 65536


@lru_cache(maxsize=None)
def automorphism_table(k: int) -> np.ndarray:
    """All automorphisms of Z_2^k as one cached (|GL(k,2)|, 2^k) uint8 array.

    Materialized only while |GL(k,2)| <= AUT_BLOCK (k <= 4; 20160 x 16 at
    k = 4).
    """
    check_rank(k)
    if automorphism_count(k) > AUT_BLOCK:
        raise CapabilityError(f"automorphism_table is materialized only for "
                              f"at most {AUT_BLOCK} maps")
    return np.array(list(automorphisms(k)), dtype=np.uint8)


# -- the display search before seeding and orbit walks ----------------------


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


def greatest_image_reference(k: int, q):
    """Yield, in search order, every automorphism img (img[m] for every mask
    m) whose key [q[img[m]] for m in keys] is lexicographically greater than
    the keys of all leaves before it, keys from _reading(k).  The last one
    yielded reads the greatest key.  The generator returns the automorphisms
    g of q it found (q[g[m]] = q[m] for every m), each as the list of images
    g[m].

    Level j picks the column c_j outside the span of c_0..c_{j-1}; the masks
    below 2^(j+1) are then known.  Of the columns, only those with the
    greatest values at the mask 2^j and then, from level 1 on, at 2^j | 1
    are kept.  A node is cut when its known key values, the unknown
    positions filled with the values left over in descending order, cannot
    reach the best key found; a node that can still tie it is explored.  Two
    leaves with equal keys give an automorphism of q fixing the columns they
    share: the later subtree at the level they part is abandoned, and a
    column in one orbit with an explored one, under the automorphisms found
    that fix the columns above it, is skipped.

    Columns are tried in ascending order, and the identity's column 2^j is
    the least mask outside the span 0..2^j - 1, so the first leaf is the
    identity unless a column filter drops it.  A caller that only asks
    whether the identity is greatest stops at the second leaf yielded.
    """
    keys = _reading(k)
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
        for s in span[:2]:
            if len(cands) == 1:
                break
            kept, high = [], None
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


# -- translation search ------------------------------------------------------


def find_translations_reference(rep: DiagonalRep, wide_search: bool = False):
    """Deterministic backtracking search for translation vectors making the
    representation the holonomy of a Bieberbach group; None when the search
    space is exhausted.

    Each coordinate of a block carries a "tag" in {0..2^k-1}: bit i-1 set
    means generator i has a half entry there.  Element I is torsion-killed
    by a coordinate in block J with tag m iff chi_J(I) = +1 and chi_m(I) = -1.
    The search assigns, element by element (ascending mask order), a killing
    (block, tag) pair, reusing already-placed coordinates first and
    respecting block capacities; by default each generator uses at most two
    half entries per block (the shape of all the fixed constructions), which
    wide_search lifts.
    """
    k = rep.k
    size = 1 << k
    blocks = [m for m in display_order(k) if rep.q[m] > 0]
    capacity = {m: rep.q[m] for m in blocks}
    per_gen_cap = rep.n if wide_search else 2

    placed: dict[int, list[int]] = {m: [] for m in blocks}  # block -> tags in use

    def kills(block, tag, element):
        return evaluate(block, element) == 1 and evaluate(tag, element) == -1

    def gen_count(block, i):
        return sum(1 for t in placed[block] if t >> i & 1)

    def fresh_candidates(element):
        # a new tagged coordinate, tried in (block order, ascending tag) order
        for block in blocks:
            if len(placed[block]) >= capacity[block]:
                continue
            for tag in range(1, size):
                if not kills(block, tag, element):
                    continue
                if any(tag >> i & 1 and gen_count(block, i) >= per_gen_cap for i in range(k)):
                    continue
                yield (block, tag)

    def solve(element):
        if element == size:
            return True
        if any(kills(b, t, element) for b in blocks for t in placed[b]):
            return solve(element + 1)
        for block, tag in fresh_candidates(element):
            placed[block].append(tag)
            if solve(element + 1):
                return True
            placed[block].pop()
        return False

    if all(v == 0 for m, v in enumerate(rep.q) if m):
        raise ValueError("trivial holonomy: no generators to solve for")
    if not solve(1):
        return None

    tags = []
    for m in display_order(k):
        head = placed.get(m, [])
        tags += [*head, *[0] * (rep.q[m] - len(head))]
    group = BieberbachGroup(k, coordinate_characters(rep), tuple(tags))
    assert is_torsion_free(group).ok
    return group


def torsion_free_translations_exist(rep: DiagonalRep) -> bool:
    """Whether any choice of translation numerators in {0, 1}^(k x n) makes a
    torsion-free group, by trying all 2^(kn) of them, n tags of k bits each."""
    k, n = rep.k, rep.n
    chars = coordinate_characters(rep)
    for bits in range(1 << (k * n)):
        tags = tuple(bits >> (j * k) & ((1 << k) - 1) for j in range(n))
        if is_torsion_free(BieberbachGroup(k, chars, tags)).ok:
            return True
    return False


# -- orderly class generation ------------------------------------------------


def is_display_representative(k: int, q: tuple[int, ...]) -> bool:
    """Whether q is its own display_representative (display_automorphisms)."""
    return display_automorphisms(k, q) is not None


def class_levels_reference(k: int, n_max: int) -> list[list[tuple[int, ...]]]:
    """The levels n = 1..n_max of search.class_levels, each candidate child
    x + e_c tested on its own, with no memo."""
    order = display_order(k)
    levels, level = [], [(0,) * (1 << k)]
    for _ in range(n_max):
        children = []
        for x in level:
            last = max((i for i, m in enumerate(order) if x[m]), default=1)
            for c in order[last:]:
                y = x[:c] + (x[c] + 1,) + x[c + 1:]
                if is_display_representative(k, y):
                    children.append(y)
        levels.append(children)
        level = children
    return levels


# -- output readers and writers ----------------------------------------------


def families_from_json(text: str) -> list[Family]:
    """The families of search.families_to_json output, one run or a list."""
    data = json.loads(text)
    runs = data if isinstance(data, list) else [data]
    return [Family(run["k"], run["n"], tuple(fam["pattern"]),
                   tuple(FamilyMember(tuple(m["q"]), tuple(m["prim"]), tuple(m["betti"]))
                         for m in fam["members"]))
            for run in runs for fam in run["families"]]


def bgf_text(group: BieberbachGroup) -> str:
    """The BGF text write_bgf writes for the group."""
    buf = io.StringIO()
    write_bgf(group, buf)
    return buf.getvalue()
