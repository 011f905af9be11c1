"""Invariant exterior algebra of a diagonal representation.

The rational cohomology of a flat manifold with diagonal holonomy F is the
ring of F-invariants in the exterior algebra of Q^n.  The group acts on each
coordinate e_j by a character psi_j, so every relevant subspace is spanned
by monomials e_S = e_{s_1} ^ ... ^ e_{s_p}, and all the ring arithmetic here
is exact combinatorics on index sets:

  * e_S is invariant        iff  prod_{j in S} psi_j = 1;
  * e_S is primitive        iff  it is invariant and no proper nonempty
                                 subset of S carries an invariant monomial
                                 (equivalently it is not a wedge of
                                 lower-degree invariants);
  * beta_p = #(invariant degree-p monomials), counted by a dynamic program
    over character blocks, never by listing monomials;
  * P_p    = #(primitive degree-p monomials), a polynomial in the
    multiplicities through the circuit sets of degree p.

The primitive counts are ring invariants: a minimal generating set of the
invariant algebra has exactly sum_p P_p elements, so differing sums certify
non-isomorphic cohomology rings.

Coordinates are assigned to characters in blocks.  The default block order
is the display order of the characters; constructions that fix their own
coordinate layout pass it via the ``order`` argument so that printed
monomials match the reference tables digit for digit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb, prod

from .chargroup import circuits_within, product
from .diagrep import DiagonalRep, coordinate_characters
from .errors import CapabilityError

ENUMERATION_BUDGET = 10_000_000


def betti_numbers(rep: DiagonalRep) -> tuple[int, ...]:
    """(beta_0, .., beta_n): invariant-monomial counts per degree.

    Dynamic program over the 2^k character blocks with state (accumulated
    character, degree); choosing j of the q_I coordinates in block I
    multiplies by binomial(q_I, j) and twists the character by I^j.
    """
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


def primitive_counts(rep: DiagonalRep) -> tuple[int, ...]:
    """(P_0, .., P_n): primitive-monomial counts per degree.

    P_0 = 1, P_1 = q_0, P_2 = sum binom(q_I, 2) over nonzero I, and for
    3 <= p <= k+1 the sum over degree-p circuits of the products of the
    member multiplicities; zero beyond k+1.  Only supported characters
    contribute, so circuits are enumerated within the support.
    """
    n = rep.n
    support = tuple(m for m in range(1, 1 << rep.k) if rep.q[m] > 0)
    out = [0] * (n + 1)
    out[0] = 1
    if n >= 1:
        out[1] = rep.q[0]
    if n >= 2:
        out[2] = sum(comb(rep.q[m], 2) for m in support)
    for p in range(3, min(rep.k + 1, n) + 1):
        out[p] = sum(prod(rep.q[m] for m in c) for c in circuits_within(support, p))
    return tuple(out)


def minimal_generator_count(rep: DiagonalRep) -> int:
    """Cardinality of a minimal generating set of the invariant algebra."""
    return sum(primitive_counts(rep))


# -- explicit monomial bases -------------------------------------------------

def _check_budget(n: int, p: int) -> None:
    if comb(n, p) > ENUMERATION_BUDGET:
        raise CapabilityError(
            f"listing degree-{p} monomials in dimension {n} needs {comb(n, p)} candidates "
            f"(> budget {ENUMERATION_BUDGET}); use the count-only interfaces"
        )


def invariant_basis(rep, p, order=None):
    """All invariant degree-p monomials (sets of 1-based coordinates), sorted."""
    n = rep.n
    if not 0 <= p <= n:
        raise ValueError(f"degree {p} outside 0..{n}")
    _check_budget(n, p)
    psi = coordinate_characters(rep, order)
    out = []
    for combo in combinations(range(n), p):
        if product(psi[j] for j in combo) == 0:
            out.append(tuple(j + 1 for j in combo))
    return out


def _has_invariant_submonomial(indices, psi) -> bool:
    p = len(indices)
    # an invariant proper subset exists iff one of size <= p//2 does
    for r in range(1, p // 2 + 1):
        for sub in combinations(indices, r):
            if product(psi[j - 1] for j in sub) == 0:
                return True
    return False


def primitive_basis(rep, p, order=None):
    """Invariant degree-p monomials with no invariant proper sub-monomial."""
    if p == 0:
        return [()]
    if p > rep.k + 1:
        return []
    psi = coordinate_characters(rep, order)
    return [mono for mono in invariant_basis(rep, p, order)
            if not _has_invariant_submonomial(mono, psi)]


def decomposition_check(rep, p, order=None) -> int:
    """Dimension of the decomposable part of degree p: invariant monomials
    that do split off an invariant sub-monomial.  Equals beta_p - P_p.
    """
    if p == 0:
        return 0
    psi = coordinate_characters(rep, order)
    return sum(1 for mono in invariant_basis(rep, p, order)
               if _has_invariant_submonomial(mono, psi))


@dataclass
class GradedSpan:
    """Degree-indexed monomial spans inside the invariant algebra."""

    by_degree: dict[int, frozenset[tuple[int, ...]]] = field(default_factory=dict)

    @classmethod
    def from_monomials(cls, monomials) -> "GradedSpan":
        acc: dict[int, set] = {}
        for mono in monomials:
            acc.setdefault(len(mono), set()).add(tuple(mono))
        return cls({d: frozenset(s) for d, s in acc.items()})

    def degree(self, p: int) -> frozenset[tuple[int, ...]]:
        return self.by_degree.get(p, frozenset())

    def is_zero(self) -> bool:
        return not any(self.by_degree.values())

    def __eq__(self, other):
        if not isinstance(other, GradedSpan):
            return NotImplemented
        keys = set(self.by_degree) | set(other.by_degree)
        return all(self.degree(d) == other.degree(d) for d in keys)


def invariant_span(rep, degrees, order=None) -> GradedSpan:
    """Invariant monomial span in the given degrees."""
    monos = []
    for p in degrees:
        monos.extend(invariant_basis(rep, p, order))
    return GradedSpan.from_monomials(monos)


def wedge_span(a: GradedSpan, b: GradedSpan) -> GradedSpan:
    """Monomial span of the wedge product: disjoint unions of index sets."""
    acc: dict[int, set] = {}
    for da, sa in a.by_degree.items():
        for db, sb in b.by_degree.items():
            bucket = acc.setdefault(da + db, set())
            for m1 in sa:
                s1 = set(m1)
                for m2 in sb:
                    if s1.isdisjoint(m2):
                        bucket.add(tuple(sorted(m1 + m2)))
    return GradedSpan({d: frozenset(s) for d, s in acc.items() if s})


def kahler_obstruction(rep: DiagonalRep) -> bool:
    """True iff the (n/2)-fold wedge of the invariant 2-forms vanishes, which
    rules out any Kaehler structure.

    Invariant 2-monomials pair coordinates within one character block, so a
    top-degree product needs a perfect within-block matching: it exists iff
    every q_I is even.  Obstructed therefore means some q_I is odd.
    """
    if rep.n % 2:
        raise ValueError("Kaehler obstruction is only defined in even dimensions")
    return any(v % 2 for v in rep.q)


# -- Lefschetz structure -----------------------------------------------------

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


def _exact_rank(rows) -> int:
    """Rank of a small integer matrix by fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
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


def lefschetz_operator_multiplicities(rep, order=None) -> dict[int, int]:
    """Recompute the sl2 multiplicities from explicit ranks of the operator
    L = (wedge with the standard Kaehler 2-form) on invariant monomials.

    Verification path for lefschetz_multiplicities; exact integer linear
    algebra, so restricted to n <= 10.  Requires every q_I even (otherwise
    there is no invariant Kaehler form of this shape).
    """
    n = rep.n
    if n % 2 or any(v % 2 for v in rep.q):
        raise ValueError("needs even multiplicities (invariant Kaehler form)")
    if n > 10:
        raise CapabilityError("explicit Lefschetz ranks are limited to n <= 10")
    pairs = [(j, j + 1) for j in range(1, n + 1, 2)]  # consecutive in-block pairs

    bases = {p: invariant_basis(rep, p, order) for p in range(n + 1)}
    index = {p: {mono: i for i, mono in enumerate(bases[p])} for p in bases}

    def l_matrix(p):
        rows = []
        for mono in bases[p]:
            row = [0] * len(bases[p + 2])
            s = set(mono)
            for a, b in pairs:
                if a in s or b in s:
                    continue
                sign = (-1) ** (sum(1 for x in mono if x < a) + sum(1 for x in mono if x < b))
                row[index[p + 2][tuple(sorted(mono + (a, b)))]] += sign
            rows.append(row)
        return rows

    out = {}
    for p in range(n // 2 + 1):
        below = _exact_rank(l_matrix(p - 2)) if p >= 2 and bases[p - 2] else 0
        prim = len(bases[p]) - below
        if prim:
            out[n // 2 - p + 1] = prim
    return out


def format_monomial(mono, n: int) -> str:
    """'346' for n <= 9, '3,4,6' above; '1' (empty product) for the unit."""
    if not mono:
        return "1"
    sep = "" if n <= 9 else ","
    return sep.join(str(i) for i in mono)
