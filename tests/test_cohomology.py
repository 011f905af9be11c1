import time

import pytest
from hypothesis import given, settings, strategies as st

import goldens
from conftest import random_rep
from oracles import (automorphism_table, block_dp_betti, brute_betti, brute_block_matching,
                     circuit_sum_primitive_counts, coordinate_characters, decomposition_check,
                     invariant_basis, invariant_span, lefschetz_multiplicities,
                     lefschetz_operator_multiplicities, molien_betti, primitive_basis,
                     primitive_count_p4_k3, wedge_span)
from flatiso import bieberbach
from flatiso.cohomology import betti_numbers, minimal_generator_count, primitive_counts
from flatiso.diagrep import DiagonalRep, fixed_dims, is_orientable, kahler_class, pattern
from flatiso.errors import CapabilityError


def rep3(*vals):
    return DiagonalRep.from_display(3, vals)


DIM8 = bieberbach.construct_main_pair(3, 8)
DIM7 = bieberbach.construct_dim7_pair()


def test_betti_examples():
    assert betti_numbers(DIM8[0].rep) == (1, 0, 4, 8, 6, 8, 4, 0, 1)
    assert betti_numbers(DIM8[1].rep) == (1, 0, 4, 8, 6, 8, 4, 0, 1)
    assert betti_numbers(DIM7[0].rep) == (1, 0, 1, 2, 1, 2, 1, 0)
    assert betti_numbers(DIM7[1].rep) == (1, 0, 1, 2, 1, 2, 1, 0)


def test_betti_total_is_power_of_two_for_faithful(rng):
    for _ in range(25):
        rep = random_rep(rng, rng.choice((2, 3, 4)), rng.randrange(5, 13), faithful=True)
        assert sum(betti_numbers(rep)) == 1 << (rep.n - rep.k)


def test_betti_matches_brute_force(rng):
    for _ in range(25):
        rep = random_rep(rng, rng.choice((1, 2, 3, 4)), rng.randrange(2, 11),
                         q0_zero=False)
        assert betti_numbers(rep) == brute_betti(rep)


def test_betti_is_molien_sum_over_pattern(rng):
    # the Betti numbers depend on the pattern only, so a family can share one vector
    for _ in range(60):
        rep = random_rep(rng, rng.randrange(1, 6), rng.randrange(1, 17), q0_zero=False)
        betti = betti_numbers(rep)
        assert betti == molien_betti(pattern(rep.q), rep.k)
        if rep.n <= 10:
            assert betti == brute_betti(rep)


@st.composite
def supported_reps(draw, max_k=5, max_n=29):
    """Dense (every nonzero mask may be drawn) or sparse (a few drawn masks)
    supports, sometimes with a trivial block."""
    k = draw(st.integers(1, max_k))
    size = 1 << k
    masks = range(1, size)
    if draw(st.booleans()):
        masks = draw(st.lists(st.sampled_from(masks), min_size=1, max_size=8, unique=True))
    q = [0] * size
    q[0] = draw(st.sampled_from((0, 0, 1, 3)))
    for _ in range(draw(st.integers(1, max_n - q[0]))):
        q[draw(st.sampled_from(masks))] += 1
    return DiagonalRep(k, tuple(q))


@given(supported_reps())
@settings(max_examples=200)
def test_betti_matches_block_dp(rep):
    betti = betti_numbers(rep)
    assert betti == block_dp_betti(rep)
    if rep.n <= 12:
        assert betti == brute_betti(rep)


@given(supported_reps())
@settings(max_examples=200)
def test_primitive_counts_match_circuit_sums(rep):
    assert primitive_counts(rep) == circuit_sum_primitive_counts(rep)


def test_primitive_counts_k6_degree7_circuit_sum():
    # P_7 keeps the circuits_within sum; the six singletons and their product
    # form a 7-circuit, and the lines among the other masks feed the N_6 term
    q = [0] * 64
    for m, v in ((1, 2), (2, 1), (4, 3), (8, 1), (16, 2), (32, 1), (63, 2),
                 (3, 1), (5, 2), (6, 1), (12, 1), (48, 2), (60, 1), (15, 1)):
        q[m] = v
    rep = DiagonalRep(6, tuple(q))
    p = primitive_counts(rep)
    assert p[7] > 0 and p[6] > 0
    assert p == circuit_sum_primitive_counts(rep)


def test_primitive_counts_k6_dense_support_refuses_up_front():
    # all 63 characters: the degree-7 walk would visit C(63, 6) heads
    start = time.perf_counter()
    with pytest.raises(CapabilityError, match="circuit heads"):
        primitive_counts(DiagonalRep(6, (0,) + (1,) * 63))
    assert time.perf_counter() - start < 0.5


def test_primitive_counts_full_support_pins():
    # all-ones on every nonzero character: circuits of PG(k-1, 2) by degree
    p4 = primitive_counts(DiagonalRep(4, (0,) + (1,) * 15))
    assert p4[3:6] == (35, 105, 168) and not any(p4[6:])
    # Z_6 = 22,568 counts the 8,680 disjoint line pairs on top of the 6-circuits
    p5 = primitive_counts(DiagonalRep(5, (0,) + (1,) * 31))
    assert p5[3:7] == (155, 1085, 5208, 13888) and not any(p5[7:])


def test_primitive_count_examples():
    assert primitive_counts(rep3(10, 6, 3, 2, 1, 1, 1))[4] == 371
    r8 = rep3(8, 6, 6, 4, 0, 0, 0)
    p = primitive_counts(r8)
    assert p[2] == 64 and p[3] == 192 and p[4] == 0
    assert primitive_counts(rep3(3, 1, 1, 1, 0, 1, 0))[4] == 3


def test_primitive_p4_closed_form():
    assert primitive_count_p4_k3(rep3(2, 2, 2, 0, 0, 2, 0)) == 0
    assert primitive_count_p4_k3(rep3(3, 1, 2, 0, 1, 1, 0)) == 3
    assert primitive_count_p4_k3(rep3(10, 6, 3, 2, 1, 1, 1)) == 371
    with pytest.raises(ValueError):
        primitive_count_p4_k3(DiagonalRep(2, (0, 1, 1, 0)))


def test_primitive_p4_closed_form_matches_circuit_sum(rng):
    for _ in range(50):
        rep = random_rep(rng, 3, rng.randrange(4, 14), q0_zero=False)
        assert primitive_count_p4_k3(rep) == primitive_counts(rep)[4]


def test_primitive_counts_vanish_beyond_rank_bound(rng):
    for _ in range(20):
        rep = random_rep(rng, rng.choice((2, 3)), rng.randrange(6, 12), q0_zero=False)
        p = primitive_counts(rep)
        assert all(v == 0 for v in p[rep.k + 2:])


def test_invariant_basis_examples():
    gamma, gamma_p = DIM8
    assert set(invariant_basis(gamma, 2)) == goldens.DIM8_GAMMA_INVARIANTS[2]
    assert set(invariant_basis(DIM7[0].rep, 3)) == {(3, 4, 6), (3, 5, 7)}
    assert invariant_basis(gamma, 0) == [()]


def test_dim8_full_invariant_tables():
    gamma, gamma_p = DIM8
    for p, want in goldens.DIM8_GAMMA_INVARIANTS.items():
        assert set(invariant_basis(gamma, p)) == want
    for p, want in goldens.DIM8_GAMMAP_INVARIANTS.items():
        assert set(invariant_basis(gamma_p, p)) == want
    for p, want in goldens.DIM8_GAMMA_PRIMITIVE.items():
        assert set(primitive_basis(gamma, p)) == want
    for p, want in goldens.DIM8_GAMMAP_PRIMITIVE.items():
        assert set(primitive_basis(gamma_p, p)) == want


def test_dim7_full_invariant_tables():
    f, fp = DIM7
    for p, want in goldens.DIM7_F_INVARIANTS.items():
        assert set(invariant_basis(f.rep, p)) == want
    for p, want in goldens.DIM7_FP_INVARIANTS.items():
        assert set(invariant_basis(fp.rep, p)) == want
    for p, want in goldens.DIM7_F_PRIMITIVE.items():
        assert set(primitive_basis(f.rep, p)) == want
    for p, want in goldens.DIM7_FP_PRIMITIVE.items():
        assert set(primitive_basis(fp.rep, p)) == want


def test_primitive_basis_counts_agree_with_formula(rng):
    for _ in range(20):
        rep = random_rep(rng, rng.choice((2, 3, 4)), rng.randrange(3, 10), q0_zero=False)
        p_counts = primitive_counts(rep)
        for p in range(0, min(rep.n, rep.k + 1) + 1):
            assert len(primitive_basis(rep, p)) == p_counts[p]


def test_wedge_span_dim8():
    gamma, gamma_p = DIM8
    l2 = invariant_span(gamma, [2])
    l4 = invariant_span(gamma, [4])
    assert wedge_span(l2, l2) == l4
    l2p = invariant_span(gamma_p, [2])
    sq = wedge_span(l2p, l2p)
    assert sq[4] == {(1, 2, 7, 8), (1, 3, 7, 8), (2, 3, 7, 8)}
    assert wedge_span(sq, l2p) == {}
    # quadruple wedge of the first member fills the top degree
    l8 = wedge_span(wedge_span(l2, l2), wedge_span(l2, l2))
    assert l8[8] == {(1, 2, 3, 4, 5, 6, 7, 8)}


def test_wedge_span_dim7():
    f, fp = DIM7
    l2 = invariant_span(f.rep, [2])
    l3 = invariant_span(f.rep, [3])
    assert wedge_span(l2, l3) == invariant_span(f.rep, [5])
    l2p = invariant_span(fp.rep, [2])
    l3p = invariant_span(fp.rep, [3])
    assert wedge_span(l2p, l3p) == {}


def test_kahler_obstruction():
    assert kahler_class(rep3(3, 1, 2, 0, 1, 1, 0)) == "none"
    assert kahler_class(rep3(2, 2, 2, 0, 0, 2, 0)) == "kahler"
    assert kahler_class(DiagonalRep(1, (0, 2))) == "kahler"


def test_kahler_obstruction_matches_pair_matching(rng):
    for _ in range(60):
        n = rng.randrange(1, 7) * 2
        rep = random_rep(rng, rng.choice((2, 3)), n, q0_zero=False)
        assert (kahler_class(rep) == "none") == (not brute_block_matching(rep))


def test_minimal_generator_count():
    assert minimal_generator_count(DIM7[0].rep) == 5
    assert minimal_generator_count(DIM7[1].rep) == 7
    assert minimal_generator_count(DIM8[0].rep) == 13
    trivial = DiagonalRep(2, (5, 0, 0, 0))
    assert minimal_generator_count(trivial) == 1 + 5


def test_decomposition_check():
    gamma, gamma_p = DIM8
    assert decomposition_check(gamma.rep, 4) == 6
    assert decomposition_check(gamma_p.rep, 4) == 3
    assert decomposition_check(gamma.rep, 1) == 0


def test_decomposition_check_complements_primitives(rng):
    for _ in range(15):
        rep = random_rep(rng, 3, rng.randrange(3, 9), q0_zero=False)
        b = betti_numbers(rep)
        p = primitive_counts(rep)
        for deg in range(rep.n + 1):
            assert decomposition_check(rep, deg) == b[deg] - p[deg]


def test_betti_table_invariants(rng):
    for _ in range(20):
        rep = random_rep(rng, rng.choice((2, 3, 4)), rng.randrange(4, 10), q0_zero=False)
        betti, prim = betti_numbers(rep), primitive_counts(rep)
        assert betti[0] == 1
        assert all(pc <= bc for pc, bc in zip(prim, betti))


def test_poincare_duality_when_orientable(rng):
    found = 0
    while found < 25:
        rep = random_rep(rng, rng.choice((2, 3)), rng.randrange(3, 11), q0_zero=False)
        if not is_orientable(rep):
            continue
        found += 1
        b = betti_numbers(rep)
        assert b == b[::-1]


def test_euler_characteristic_vanishes_without_free_action_obstruction(rng):
    for _ in range(25):
        rep = random_rep(rng, rng.choice((2, 3)), rng.randrange(3, 11), q0_zero=False)
        if min(fixed_dims(rep)) >= 1:
            b = betti_numbers(rep)
            assert sum((-1) ** p * v for p, v in enumerate(b)) == 0


def test_equivalent_reps_share_betti_tables(rng):
    perms = automorphism_table(3)
    for _ in range(20):
        rep = random_rep(rng, 3, rng.randrange(3, 10), q0_zero=False)
        img = perms[rng.randrange(len(perms))]
        other = DiagonalRep(3, tuple(rep.q[img[m]] for m in range(8)))
        assert betti_numbers(rep) == betti_numbers(other)
        assert primitive_counts(rep) == primitive_counts(other)


def test_lefschetz_multiplicities_examples():
    assert lefschetz_multiplicities((1, 0, 4, 8, 6, 8, 4, 0, 1), 8) == \
        {5: 1, 3: 3, 2: 8, 1: 2}
    assert lefschetz_multiplicities((1, 2, 1), 2) == {2: 1, 1: 2}
    # zero differences are omitted
    assert 4 not in lefschetz_multiplicities((1, 0, 4, 8, 6, 8, 4, 0, 1), 8)


def test_lefschetz_multiplicities_errors():
    with pytest.raises(ValueError):
        lefschetz_multiplicities((1, 0, 4, 8, 6, 8, 4, 1, 1), 8)  # asymmetric
    with pytest.raises(ValueError):
        lefschetz_multiplicities((1, 0, 0, 0, 1), 4)  # hard Lefschetz fails
    with pytest.raises(ValueError):
        lefschetz_multiplicities((1, 2, 1), 3)


def test_lefschetz_sl2_reconstruction():
    # multiplicities rebuild the Betti vector through the sl2 weight strings
    for betti, n in (((1, 0, 4, 8, 6, 8, 4, 0, 1), 8), ((1, 2, 1), 2)):
        mult = lefschetz_multiplicities(betti, n)
        rebuilt = [0] * (n + 1)
        for d, m in mult.items():
            top = n // 2 + d - 1
            for p in range(n // 2 - d + 1, top + 1, 2):
                rebuilt[p] += m
        assert tuple(rebuilt) == betti


def test_lefschetz_operator_ranks_match_formula():
    gamma = DIM8[0]
    b = betti_numbers(gamma.rep)
    assert lefschetz_operator_multiplicities(gamma) == \
        lefschetz_multiplicities(b, 8)
    small = DiagonalRep(2, (0, 2, 2, 2))
    assert lefschetz_operator_multiplicities(small) == \
        lefschetz_multiplicities(betti_numbers(small), 6)


def test_coordinate_characters_orders():
    rep = rep3(2, 1, 1, 0, 0, 1, 0)
    assert coordinate_characters(rep) == (1, 1, 2, 4, 6)
    from_tags = bieberbach.BieberbachGroup.from_tags
    assert from_tags(rep, {}, order=(6, 4, 2, 1, 0)).coord_chars == (6, 4, 2, 1, 1)
    with pytest.raises(ValueError):
        from_tags(rep, {}, order=(0, 1, 2))  # misses support
    with pytest.raises(ValueError):
        from_tags(rep, {}, order=(0, 1, 1, 2, 4, 6))  # duplicate
    with pytest.raises(ValueError):
        from_tags(rep, {}, order=(0, 1, 2, 4, 6, 8))  # not a 3-bit mask
