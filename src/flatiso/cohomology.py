"""Invariant exterior algebra of a diagonal representation.

The rational cohomology of a flat manifold with diagonal holonomy F is the
ring of F-invariants in the exterior algebra of Q^n.  The group acts on each
coordinate e_j by a character psi_j, so every relevant subspace is spanned
by monomials e_S = e_{s_1} ^ ... ^ e_{s_p}, and every count here is exact
integer arithmetic that never lists a monomial:

  * e_S is invariant        iff  prod_{j in S} psi_j = 1;
  * e_S is primitive        iff  it is invariant and no proper nonempty
                                 subset of S carries an invariant monomial
                                 (equivalently it is not a wedge of
                                 lower-degree invariants);
  * beta_p = #(invariant degree-p monomials), counted by Molien's formula
    over the pattern (the fixed dimensions, one Walsh-Hadamard transform of
    the multiplicities), never by listing monomials;
  * P_p    = #(primitive degree-p monomials), a polynomial in the
    multiplicities: for p <= 6 a weighted count of zero-product character
    sets from Newton's identities over Walsh-Hadamard transforms of q and
    q^3, less the pairs of disjoint 3-circuits at p = 6; for p >= 7 (k >= 6
    only) a sum over the circuits of degree p inside the support.

The primitive counts are ring invariants: a minimal generating set of the
invariant algebra has exactly sum_p P_p elements, so differing sums certify
non-isomorphic cohomology rings.  Brute-force monomial listers, kept as
references for these counts, live in tests/oracles.py.
"""

from __future__ import annotations

from math import comb, prod
from operator import mul

from .chargroup import circuits_within, walsh
from .diagrep import DiagonalRep, pattern
from .errors import CapabilityError

ENUMERATION_BUDGET = 10_000_000


def betti_numbers(rep: DiagonalRep) -> tuple[int, ...]:
    """(beta_0, .., beta_n): invariant-monomial counts per degree."""
    return betti_from_pattern(pattern(rep.q), rep.k)


def betti_from_pattern(patt, k: int) -> tuple[int, ...]:
    """(beta_0, .., beta_n) of any representation of Z_2^k with pattern patt.

    Molien's formula over the pattern: an element fixing a of the n
    coordinates acts on the exterior algebra with graded trace
    (1+t)^a (1-t)^(n-a), so beta_p = 2^-k sum_a c_a [t^p] (1+t)^a (1-t)^(n-a),
    where c_a counts the elements with an a-dimensional fixed space.  The
    coefficients g_p of one row satisfy (1 - t^2) G' = ((2a - n) - n t) G,
    that is (p+1) g_{p+1} = (2a - n) g_p - (n - p + 1) g_{p-1}, so each value
    of a that occurs costs O(n) exact integer steps.
    """
    n = len(patt) - 1
    total = [0] * (n + 1)
    for a, c in enumerate(patt):
        if not c:
            continue
        prev, g = 0, c
        for p in range(n + 1):
            total[p] += g
            prev, g = g, ((2 * a - n) * g - (n - p + 1) * prev) // (p + 1)
    return tuple(v >> k for v in total)


def primitive_counts(rep: DiagonalRep) -> tuple[int, ...]:
    """(P_0, .., P_n): primitive-monomial counts per degree.

    P_0 = 1, P_1 = q_0, P_2 = sum binom(q_I, 2) over nonzero I, and for
    3 <= p <= k+1 the sum over degree-p circuits of the products of the
    member multiplicities; zero beyond k+1.  Only supported characters
    contribute, so no degree exceeds the support size either.

    Degrees 3..6 come from Walsh-Hadamard transforms of q and q^3
    (_zero_sum_weights).  A set of distinct nonzero characters with trivial
    product that is not a circuit splits into two such sets of size >= 3,
    so P_p is the weighted count Z_p of all those p-sets for p <= 5.  At
    p = 6, Z_6 also counts each disjoint union of two supported 3-circuits
    once (_line_pairs).  Degrees >= 7 occur only for k >= 6, where such a
    set can split in more than one way (3 + 4 in two), so they stay sums
    over circuits_within, which walks C(s, p-1) heads for a support of s
    characters; past ENUMERATION_BUDGET heads in all it raises
    CapabilityError before the walk.
    """
    n, q = rep.n, rep.q
    support = tuple(m for m in range(1, 1 << rep.k) if q[m] > 0)
    out = [0] * (n + 1)
    out[0] = 1
    if n >= 1:
        out[1] = q[0]
    if n >= 2:
        out[2] = sum(comb(q[m], 2) for m in support)
    top = min(rep.k + 1, len(support))
    if top >= 3:
        out[3:min(top, 6) + 1] = _zero_sum_weights(q, min(top, 6))
    if top >= 6:
        out[6] -= _line_pairs(q, support)
    heads = sum(comb(len(support), p - 1) for p in range(7, top + 1))
    if heads > ENUMERATION_BUDGET:
        raise CapabilityError(f"primitive counts of degree >= 7 walk {heads} circuit heads "
                              f"over {len(support)} characters (> budget {ENUMERATION_BUDGET})")
    for p in range(7, top + 1):
        out[p] = sum(prod(q[m] for m in c) for c in circuits_within(support, p))
    return tuple(out)


def _zero_sum_weights(q, top: int) -> list[int]:
    """[Z_3, .., Z_top] for top <= 6: Z_p, the sum of prod q_m over the
    p-sets of distinct nonzero masks with XOR 0, is 2^-k sum_f e_p(f), where
    e_p(f) is the elementary symmetric function of the q_m chi_m(f), m != 0.

    Newton's identities, solved for p <= 6, write p! e_p over the power sums
    s_j(f) = sum_m q_m^j chi_m(f)^j: s_j = walsh(q^j) for odd j and the
    constant S_j = sum q_m^j for even j.  Summed over f, every walsh(v) with
    v_0 = 0 gives 0, and a product of two gives 2^k sum_m v_m v'_m (Parseval),
    so with M_a = sum_f s_1^a and M_a3 = sum_f s_1^a s_3 what is left is

        6 N Z_3   = M_3
        24 N Z_4  = M_4 - 3 N S_2^2 + 2 N S_4
        120 N Z_5 = M_5 - 10 S_2 M_3 + 20 M_23
        720 N Z_6 = M_6 - 15 S_2 M_4 + 40 M_33
                    + N (30 S_2^3 - 120 S_2 S_4 + 64 S_6),   N = 2^k,

    each an exact division.
    """
    size = len(q)
    nonzero = q[1:]
    square = [*map(mul, nonzero, nonzero)]
    s2, s4 = sum(square), sum(map(mul, square, square))
    w1 = walsh([0, *nonzero])
    w1sq = [*map(mul, w1, w1)]
    m3, m4 = sum(map(mul, w1sq, w1)), sum(map(mul, w1sq, w1sq))
    out = [m3 // (6 * size), (m4 - 3 * size * s2 * s2 + 2 * size * s4) // (24 * size)]
    if top >= 5:
        w3 = walsh([0, *map(mul, square, nonzero)])
        w1cube = [*map(mul, w1sq, w1)]
        m5, m23 = sum(map(mul, w1cube, w1sq)), sum(map(mul, w1sq, w3))
        out.append((m5 - 10 * s2 * m3 + 20 * m23) // (120 * size))
        if top >= 6:
            m6, m33 = sum(map(mul, w1cube, w1cube)), sum(map(mul, w1cube, w3))
            s6 = sum(map(mul, square, map(mul, square, square)))
            out.append((m6 - 15 * s2 * m4 + 40 * m33
                        + size * (30 * s2 ** 3 - 120 * s2 * s4 + 64 * s6)) // (720 * size))
    return out[:top - 2]


def _line_pairs(q, support) -> int:
    """Weight of the 6-sets that are disjoint unions of two supported lines
    {a, b, a^b}: (W^2 - sum_C w_C^2 - sum_x (L_x^2 - sum_{C through x} w_C^2)) / 2,
    with w_C = prod q over line C, W = sum w_C and L_x the weight of the lines
    through x.  Two distinct lines meet in at most one point."""
    through = [0] * len(q)
    total = squares = 0
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            c = a ^ b
            if c > b and q[c]:
                w = q[a] * q[b] * q[c]
                total += w
                squares += w * w
                through[a] += w
                through[b] += w
                through[c] += w
    meeting = sum(x * x for x in through) - 3 * squares
    return (total * total - squares - meeting) // 2


def minimal_generator_count(rep: DiagonalRep) -> int:
    """Cardinality of a minimal generating set of the invariant algebra."""
    return sum(primitive_counts(rep))
