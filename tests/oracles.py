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
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, prod
from typing import Iterator

import numpy as np

from flatiso.bieberbach import BieberbachGroup, is_torsion_free
from flatiso.chargroup import (MAX_EXHAUSTIVE_AUT_RANK, check_mask, check_rank,
                               circuits_within, display_order, evaluate)
from flatiso.diagrep import DiagonalRep, coordinate_characters, is_display_representative
from flatiso.errors import CapabilityError


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


def derive_element_translations(group: BieberbachGroup) -> dict[int, tuple[int, ...]]:
    """Numerators of b_I for every element mask I (mod-1 sums, i.e. XOR)."""
    n = group.n
    out = {0: (0,) * n}
    for mask in range(1, 1 << group.k):
        low = mask & -mask
        prev = out[mask ^ low]
        gen = group.gen_translations[low.bit_length() - 1]
        out[mask] = tuple(a ^ b for a, b in zip(prev, gen))
    return out


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


# -- translation search ------------------------------------------------------


def find_translations_reference(rep: DiagonalRep, wide_search: bool = False, order=None):
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
    blocks = [m for m in (order if order is not None else display_order(k)) if rep.q[m] > 0]
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

    rows = [[0] * rep.n for _ in range(k)]
    chars = coordinate_characters(rep, order)
    offset = {}
    pos = 0
    for m in (order if order is not None else display_order(k)):
        offset[m] = pos
        pos += rep.q[m]
    for block in blocks:
        for slot, tag in enumerate(placed[block]):
            j = offset[block] + slot
            for i in range(k):
                if tag >> i & 1:
                    rows[i][j] = 1
    group = BieberbachGroup(k, chars, tuple(tuple(r) for r in rows))
    assert is_torsion_free(group).ok
    return group


def torsion_free_translations_exist(rep: DiagonalRep) -> bool:
    """Whether any choice of translation numerators in {0, 1}^(k x n) makes a
    torsion-free group, by trying all 2^(kn) of them."""
    k, n = rep.k, rep.n
    chars = coordinate_characters(rep)
    for bits in range(1 << (k * n)):
        rows = tuple(tuple(bits >> (i * n + j) & 1 for j in range(n)) for i in range(k))
        if is_torsion_free(BieberbachGroup(k, chars, rows)).ok:
            return True
    return False


# -- orderly class generation ------------------------------------------------


def class_levels_reference(k: int, n_max: int) -> list[list[tuple[int, ...]]]:
    """The levels n = 1..n_max of search.class_levels, each candidate child
    x + e_c tested on its own, with no memo and no worker split."""
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
