import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings

from conftest import diagonal_reps, random_rep
from oracles import evaluate
from flatiso import diagrep
from flatiso.diagrep import DiagonalRep, fixed_dims, pattern
from flatiso.flip import FlipSpec, NEGATIVE_MULTIPLICITY, NON_INTEGER_SHIFT, apply_flip, flip_shift


def rep3(*vals):
    return DiagonalRep.from_display(3, vals)


def test_flip_shift_examples():
    assert flip_shift(rep3(2, 2, 2, 0, 0, 2, 0)) == 1
    assert flip_shift(rep3(3, 1, 1, 1, 0, 1, 0)) == Fraction(-1, 2)
    assert flip_shift(rep3(3, 1, 1, 1, 0, 1, 0), FlipSpec(1, 4)) == -1


def _class_sum_shift(rep, spec):
    """u from the sign classes: the (+1 at g1, -1 at g2) class less the
    (-1 at g1, +1 at g2) class, over 2^(k-2)."""
    signs = [(evaluate(m, spec.g1), evaluate(m, spec.g2)) for m in range(1 << rep.k)]
    minus = sum(v for v, sign in zip(rep.q, signs) if sign == (1, -1))
    plus = sum(v for v, sign in zip(rep.q, signs) if sign == (-1, 1))
    return Fraction(minus - plus, 1 << (rep.k - 2))


@given(diagonal_reps(max_k=5, max_n=20).filter(lambda rep: rep.k >= 2))
@settings(max_examples=60)
def test_flip_shift_is_the_sign_class_sum(rep):
    # q_0 is free here, and every ordered pair of distinct nonzero elements is a spec
    for g1, g2 in itertools.permutations(range(1, 1 << rep.k), 2):
        spec = FlipSpec(g1, g2)
        assert flip_shift(rep, spec) == _class_sum_shift(rep, spec)


def test_apply_flip_dim8_pair():
    out = apply_flip(rep3(2, 2, 2, 0, 0, 2, 0))
    assert out.applicable and out.shift == 1
    assert out.rep.to_display() == (3, 1, 2, 0, 1, 1, 0)


def test_apply_flip_can_return_equivalent_rep():
    out = apply_flip(rep3(1, 2, 1, 1, 0, 1, 0))
    assert out.applicable
    assert out.rep.to_display() == (2, 1, 1, 1, 1, 0, 0)
    assert diagrep.are_equivalent(out.rep, rep3(1, 2, 1, 1, 0, 1, 0))


def test_apply_flip_non_integer_shift():
    out = apply_flip(rep3(3, 1, 1, 1, 0, 1, 0))
    assert not out.applicable
    assert out.reason == NON_INTEGER_SHIFT
    assert out.shift == Fraction(-1, 2)
    assert out.rep is None


def test_apply_flip_negative_multiplicity():
    out = apply_flip(rep3(4, 2, 0, 0, 0, 0, 0))
    assert not out.applicable
    assert out.reason == NEGATIVE_MULTIPLICITY and out.shift == -1


def test_flip_spec_validation():
    with pytest.raises(ValueError):
        FlipSpec(0, 1)
    with pytest.raises(ValueError):
        FlipSpec(3, 3)


def test_zero_shift_means_fixed_point():
    r = rep3(1, 1, 1, 1, 1, 1, 1)
    out = apply_flip(r)
    assert out.shift == 0 and out.rep == r


def test_verify_almost_conjugate():
    a, b = rep3(2, 2, 2, 0, 0, 2, 0), rep3(3, 1, 2, 0, 1, 1, 0)
    assert pattern(a.q) == pattern(b.q)
    # different dimensions give patterns of different lengths
    assert pattern(rep3(3, 1, 1, 1, 0, 1, 0).q) != pattern(rep3(3, 2, 1, 1, 0, 1, 0).q)


def all_specs(k):
    size = 1 << k
    return [FlipSpec(g1, g2) for g1 in range(1, size) for g2 in range(g1 + 1, size)]


def test_swap_identity_over_random_flips(rng):
    # the flip swaps the fixed dimensions at g1, g2 and preserves the rest
    done = 0
    while done < 400:
        k = rng.choice((2, 3, 4))
        rep = random_rep(rng, k, rng.randrange(k, 11), q0_zero=False)
        spec = rng.choice(all_specs(k))
        out = apply_flip(rep, spec)
        if not out.applicable:
            continue
        done += 1
        before, after = fixed_dims(rep), fixed_dims(out.rep)
        assert after[spec.g1] == before[spec.g2]
        assert after[spec.g2] == before[spec.g1]
        for g in range(1 << k):
            if g not in (spec.g1, spec.g2):
                assert after[g] == before[g]
        assert out.rep.n == rep.n
        assert pattern(out.rep.q) == pattern(rep.q)


def test_double_flip_is_identity(rng):
    done = 0
    while done < 200:
        k = rng.choice((2, 3))
        rep = random_rep(rng, k, rng.randrange(k, 10), q0_zero=False)
        spec = rng.choice(all_specs(k))
        out = apply_flip(rep, spec)
        if not out.applicable:
            continue
        done += 1
        back = apply_flip(out.rep, spec)
        assert back.applicable
        assert back.shift == -out.shift
        assert back.rep == rep
