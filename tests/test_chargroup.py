import itertools
import random

import pytest
from hypothesis import given, strategies as st

from flatiso import chargroup
from flatiso.chargroup import circuits_within, f2_rank, mask_from_indices, product, walsh
from flatiso.errors import CapabilityError
from oracles import automorphism_count, automorphism_table, automorphisms, circuits, evaluate


def mask(*indices, k=3):
    return mask_from_indices(indices, k)


def test_evaluate_examples():
    assert evaluate(0, mask(1, 2)) == 1
    assert evaluate(0, 0) == 1
    assert evaluate(mask(2, 3), mask(1, 2)) == -1
    assert evaluate(mask(1, 2), mask(1, 2)) == 1


def test_product_examples():
    assert product([mask(1), mask(2)]) == mask(1, 2)
    assert product([]) == 0
    assert product([mask(1, 3), mask(1, 3)]) == 0


@given(st.integers(1, 8), st.data())
def test_evaluate_is_multiplicative(k, data):
    top = (1 << k) - 1
    a = data.draw(st.integers(0, top))
    b = data.draw(st.integers(0, top))
    f = data.draw(st.integers(0, top))
    assert evaluate(product([a, b]), f) == evaluate(a, f) * evaluate(b, f)


@given(st.integers(0, 6).flatmap(
    lambda k: st.lists(st.integers(-50, 50), min_size=1 << k, max_size=1 << k)))
def test_walsh_is_character_sum(values):
    size = len(values)
    assert walsh(values) == [sum(v * evaluate(m, f) for m, v in enumerate(values))
                             for f in range(size)]


def test_circuit_counts_k3():
    assert len(circuits(3, 2)) == 7
    assert len(circuits(3, 3)) == 7
    assert len(circuits(3, 4)) == 7


def test_circuits_degree4_members():
    members = {c.members for c in circuits(3, 4)}
    assert (mask(1), mask(2), mask(3), mask(1, 2, 3)) in members
    assert (mask(1), mask(2), mask(1, 3), mask(2, 3)) in members


def test_circuit_counts_match_subspace_formula():
    # p-circuits of rank p-1 are counted by prod_{i<p-1}(2^k - 2^i) / p!
    import math
    for k in (3, 4, 5):
        for p in range(3, k + 2):
            expect = 1
            for i in range(p - 1):
                expect *= (1 << k) - (1 << i)
            assert len(circuits(k, p)) == expect // math.factorial(p)


def test_circuits_empty_beyond_rank_bound():
    assert circuits(3, 5) == ()
    assert circuits(4, 7) == ()


def test_circuits_degree_below_two_rejected():
    with pytest.raises(ValueError):
        circuits(3, 1)


def test_circuit_minimality():
    for k in (3, 4):
        for p in range(3, k + 2):
            for circ in circuits(k, p):
                assert len(set(circ.members)) == p
                assert all(m for m in circ.members)
                assert product(circ.members) == 0
                for r in range(1, p):
                    for sub in itertools.combinations(circ.members, r):
                        assert product(sub) != 0


def test_circuits_within_is_circuits_inside_the_masks():
    rng = random.Random(7)
    for k in (3, 4, 5):
        for _ in range(10):
            masks = tuple(sorted(rng.sample(range(1, 1 << k), rng.randrange(2, 1 << k))))
            for p in range(3, k + 2):
                inside = [c.members for c in circuits(k, p) if set(c.members) <= set(masks)]
                assert list(circuits_within(masks, p)) == inside


def test_doubled_degree_two_circuits():
    for circ in circuits(4, 2):
        assert circ.doubled and circ.degree == 2 and len(circ.members) == 1


def test_automorphism_counts():
    assert automorphism_count(1) == 1
    assert automorphism_count(2) == 6
    assert automorphism_count(3) == 168
    for k in (1, 2, 3):
        assert sum(1 for _ in automorphisms(k)) == automorphism_count(k)


def test_automorphisms_are_bijections_fixing_zero():
    for img in automorphisms(3):
        assert img[0] == 0
        assert sorted(img) == list(range(8))


def test_automorphism_exhaustive_cap():
    with pytest.raises(CapabilityError):
        next(automorphisms(6))
    with pytest.raises(CapabilityError):
        automorphism_table(5)


def test_automorphism_table_matches_iterator():
    tab = automorphism_table(2)
    assert tab.shape == (6, 4)
    assert [tuple(r) for r in tab] == list(automorphisms(2))


def test_f2_rank():
    assert f2_rank([]) == 0
    assert f2_rank([1, 2, 4]) == 3
    assert f2_rank([1, 2, 3]) == 2
    assert f2_rank([7, 7, 7]) == 1


def test_mask_helpers():
    assert mask_from_indices([2, 3], 3) == 6
    assert chargroup.indices_from_mask(6) == (2, 3)
    with pytest.raises(ValueError):
        mask_from_indices([4], 3)


def test_display_order_k3():
    order = chargroup.display_order(3)
    assert order == (0, 1, 2, 4, 3, 5, 6, 7)
