"""Diagonal integral representations of Z_2^k as multiplicity vectors.

A diagonal representation rho = sum_I q_I chi_I is stored as the vector of
multiplicities q indexed by character mask in numeric order (q[0] = q_0,
the multiplicity of the trivial character).  The human-facing text form
uses the bracket convention [q_1, q_2, ..., q_3, q_12, ...]: singletons
first, then pairs, and so on, with q_0 left out unless asked for.

Two representations are equivalent iff the corresponding diagonal subgroups
of O(n) are conjugate, which for diagonal groups amounts to relabeling the
characters by a group automorphism.  Equivalence testing and canonical forms
therefore reduce to orbit computations under GL(k, 2) acting on masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import chargroup
from .chargroup import check_rank, display_order, evaluate

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


def fixed_dim(rep: DiagonalRep, f: int) -> int:
    """Dimension of the fixed space of rho(f): sum of q_J over chi_J(f) = +1."""
    chargroup.check_mask(f, rep.k)
    return sum(v for m, v in enumerate(rep.q) if v and evaluate(m, f) == 1)


def pattern(rep: DiagonalRep) -> tuple[int, ...]:
    """Histogram (c_0, .., c_n) of fixed-space dimensions over all 2^k elements."""
    n = rep.n
    counts = [0] * (n + 1)
    for f in range(1 << rep.k):
        counts[fixed_dim(rep, f)] += 1
    return tuple(counts)


def is_faithful(rep: DiagonalRep) -> bool:
    """True iff the supported characters span the full dual group."""
    return chargroup.f2_rank(rep.support()) == rep.k


def contains_minus_identity(rep: DiagonalRep) -> bool:
    """True iff some nonzero element acts as -Id, i.e. fixes nothing."""
    return any(fixed_dim(rep, f) == 0 for f in range(1, 1 << rep.k))


def is_orientable(rep: DiagonalRep) -> bool:
    """True iff every generator has determinant +1: sum_{I containing j} q_I even."""
    for j in range(rep.k):
        if sum(v for m, v in enumerate(rep.q) if m >> j & 1) % 2:
            return False
    return True


def kahler_class(rep: DiagonalRep) -> str:
    """Sufficient-condition classification: "hyperkahler" if every q_I is divisible
    by 4, "kahler" if every q_I is even, else "none".

    "none" is not a proof of non-Kaehlerness by itself; the top-wedge
    obstruction (cohomology.kahler_obstruction) is the definitive certificate.
    """
    if all(v % 4 == 0 for v in rep.q):
        return HYPERKAHLER
    if all(v % 2 == 0 for v in rep.q):
        return KAHLER
    return KAHLER_NONE


# -- equivalence up to character relabeling ---------------------------------

@lru_cache(maxsize=None)
def _display_perm(k: int) -> np.ndarray:
    # column permutation sending internal numeric order to display order, q_0 last
    order = display_order(k)
    return np.array(order[1:] + (0,), dtype=np.intp)


# A q-vector with entries in 0..n is keyed by its entries as big-endian
# unsigned bytes of the narrowest width that holds n, viewed as one np.void
# item.  Comparing keys bytewise then compares the vectors lexicographically,
# at any entry width.  The orbit scan keys q relabelled by every automorphism
# and sorts the distinct keys, one block of maps at a time.

def _key_dtype(n: int) -> np.dtype:
    return np.dtype(np.min_scalar_type(n)).newbyteorder(">")


def key_rows(rows, n: int) -> np.ndarray:
    """One np.void key per row of a 2-D array with entries in 0..n."""
    rows = np.ascontiguousarray(rows, dtype=_key_dtype(n))
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def unkey(key: bytes, n: int) -> tuple[int, ...]:
    """The vector a key_rows key was made from."""
    return tuple(int(v) for v in np.frombuffer(key, dtype=_key_dtype(n)))


def orbit_scan(k: int, q, n: int, column_perm=None) -> Iterator[np.ndarray]:
    """Sorted distinct keys of q[img] over the automorphisms img of Z_2^k
    (columns then reordered by column_perm), one array per block of
    chargroup.automorphism_chunks.  Blocks may share keys."""
    q = np.asarray(q, dtype=_key_dtype(n))
    for perms in chargroup.automorphism_chunks(k):
        if column_perm is not None:
            perms = perms[:, column_perm]
        yield np.unique(key_rows(q[perms], n))


def canonical_form(rep: DiagonalRep) -> DiagonalRep:
    """Lexicographically minimal multiplicity vector (numeric character order)
    over the automorphism orbit.  Exhaustive scan, hence capped at k <= 5.
    """
    least = min(keys[0].tobytes() for keys in orbit_scan(rep.k, rep.q, rep.n))
    return DiagonalRep(rep.k, unkey(least, rep.n))


def display_representative(rep: DiagonalRep) -> DiagonalRep:
    """Orbit member whose display-order vector is lexicographically maximal.

    This is the representative the reference tables print (largest
    multiplicities pushed onto the earliest display slots), as opposed to
    the numeric-order minimum used as the dedup key.
    """
    perm = _display_perm(rep.k)
    greatest = max(keys[-1].tobytes() for keys in orbit_scan(rep.k, rep.q, rep.n, perm))
    q = [0] * len(perm)
    for m, v in zip(perm, unkey(greatest, rep.n)):
        q[m] = v
    return DiagonalRep(rep.k, tuple(q))


def _cheap_key(rep: DiagonalRep):
    # orbit invariants: multiplicity multiset and pattern
    return (tuple(sorted(rep.q)), rep.q[0], pattern(rep))


def are_equivalent(a: DiagonalRep, b: DiagonalRep) -> bool:
    """True iff some automorphism relabeling carries the q-vector of a to b's."""
    if a.k != b.k or a.n != b.n:
        raise ValueError("representations must share rank and dimension")
    if a.q == b.q:
        return True
    if _cheap_key(a) != _cheap_key(b):
        return False
    return canonical_form(a).q == canonical_form(b).q
