"""Characters of Z_2^k as bitmasks.

A character chi_I of Z_2^k = <f_1,...,f_k> is identified with the subset
I of {1..k} on which it takes the value -1; the subset is encoded as a
k-bit integer (bit i-1 set  <=>  i in I).  Group elements f_I are encoded
the same way, so a single mask type serves both sides of the pairing

    chi_J(f_I) = (-1)^popcount(J & I).

Products of characters are symmetric differences, i.e. XOR.  The trivial
character is mask 0.

The module also computes the Walsh-Hadamard transform of a function on
the masks, and enumerates, inside a given set of nonzero characters, the
minimal dependent sets ("circuits"): sets whose product is trivial while
no proper nonempty subproduct is.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator


MAX_RANK = 16


def check_rank(k: int) -> None:
    if not 1 <= k <= MAX_RANK:
        raise ValueError(f"rank k={k} outside supported range 1..{MAX_RANK}")


def check_mask(mask: int, k: int) -> None:
    if not 0 <= mask < (1 << k):
        raise ValueError(f"mask {mask} is not a {k}-bit character mask")


def product(chis: Iterable[int]) -> int:
    """Product of characters = XOR of masks; empty product is the trivial character."""
    out = 0
    for c in chis:
        out ^= c
    return out


def walsh(values) -> list[int]:
    """Walsh-Hadamard transform: entry f is sum_m values[m] * chi_m(f), for
    a sequence of 2^k integers indexed by mask.

    k butterfly passes of O(2^k) each.  Every pass pairs the entries 2j and
    2j+1 and writes their sum to j and their difference to j + 2^(k-1), so
    the bit it combines moves to the top; after k passes every bit is back
    in place (the constant-geometry form of the fast transform).
    """
    out = list(values)
    for _ in range(len(out).bit_length() - 1):
        even, odd = out[0::2], out[1::2]
        out = [*map(add, even, odd), *map(sub, even, odd)]
    return out


def mask_from_indices(indices: Iterable[int], k: int) -> int:
    """Mask of the subset {i : i in indices} of {1..k}."""
    m = 0
    for i in indices:
        if not 1 <= i <= k:
            raise ValueError(f"index {i} outside 1..{k}")
        m |= 1 << (i - 1)
    return m


def indices_from_mask(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def display_order(k: int) -> tuple[int, ...]:
    """All 2^k masks ordered for display: empty set first, then by size, then
    lexicographically on index tuples (singletons 1..k, pairs 12,13,...,23,..., ...).
    """
    check_rank(k)
    return tuple(sorted(range(1 << k), key=lambda m: (m.bit_count(), indices_from_mask(m))))


def circuits_within(masks: tuple[int, ...], p: int) -> Iterator[tuple[int, ...]]:
    """Member tuples of the degree-p circuits (p >= 3) whose members all lie
    in ``masks``, an increasing tuple of nonzero masks, in lexicographic order.

    A circuit is its p-1 smallest members plus their product; it is minimal
    exactly when those p-1 members are linearly independent.
    """
    allowed = set(masks)
    for head in itertools.combinations(masks, p - 1):
        last = product(head)
        if last <= head[-1] or last not in allowed:  # distinct, increasing, inside masks
            continue
        if f2_rank(head) == p - 1:
            yield head + (last,)


def f2_rank(masks: Iterable[int]) -> int:
    """Rank over GF(2) of a collection of masks."""
    basis: dict[int, int] = {}
    for m in masks:
        while m:
            h = m.bit_length() - 1
            if h in basis:
                m ^= basis[h]
            else:
                basis[h] = m
                break
    return len(basis)
