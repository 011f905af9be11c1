"""Independent reference implementations used only to cross-check results.

These deliberately avoid the library's computation paths: Betti numbers by
walking all 2^n coordinate subsets, the Kaehler pairing test by exhaustive
matching, Sunada tables straight from column data with index-set arithmetic,
character relabelings by listing every automorphism of Z_2^k.
"""

from functools import lru_cache
from typing import Iterator

import numpy as np

from flatiso.bieberbach import derive_element_translations
from flatiso.chargroup import MAX_EXHAUSTIVE_AUT_RANK, check_mask, check_rank, evaluate
from flatiso.diagrep import coordinate_characters
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
