import functools
import random
import time
from operator import itemgetter

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import diagonal_reps, random_rep
from oracles import (_mask_images, automorphism_table, automorphisms, evaluate,
                     is_display_representative)
from flatiso import chargroup, diagrep
from flatiso.diagrep import (DiagonalRep, are_equivalent, canonical_form,
                             contains_minus_identity, display_representative,
                             fixed_dims, format_rep, is_faithful, is_orientable,
                             kahler_class, order_type, parse_rep, pattern)
from flatiso.errors import CapabilityError


def rep3(*vals):
    return DiagonalRep.from_display(3, vals)


TABLE1_PAIR = (rep3(3, 1, 1, 1, 0, 1, 0), rep3(2, 2, 2, 1, 0, 0, 0))


def test_fixed_dim_examples():
    r = TABLE1_PAIR[0]
    assert fixed_dims(r)[chargroup.mask_from_indices([1], 3)] == 3
    assert fixed_dims(r)[chargroup.mask_from_indices([1, 3], 3)] == 1
    assert fixed_dims(r)[0] == r.n == 7


def test_fixed_dim_multiset():
    dims = sorted(fixed_dims(TABLE1_PAIR[0]))
    assert dims == sorted([7, 3, 4, 5, 2, 1, 4, 2])


def test_pattern_examples():
    p = pattern(TABLE1_PAIR[0])
    nonzero = {s: c for s, c in enumerate(p) if c}
    assert nonzero == {1: 1, 2: 2, 3: 1, 4: 2, 5: 1, 7: 1}
    assert pattern(TABLE1_PAIR[1]) == p
    assert pattern(DiagonalRep(1, (0, 1))) == (1, 1)


def test_is_faithful():
    assert is_faithful(rep3(1, 1, 1, 0, 0, 0, 0))
    assert not is_faithful(rep3(1, 1, 0, 1, 0, 0, 0))
    first_row_47 = DiagonalRep.from_display(
        4, [2, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0])
    assert is_faithful(first_row_47)


def test_contains_minus_identity():
    assert contains_minus_identity(DiagonalRep(1, (0, 3)))
    assert not contains_minus_identity(rep3(2, 2, 2, 1, 0, 0, 0))
    assert not contains_minus_identity(DiagonalRep(2, (0, 1, 1, 1)))


def test_is_orientable():
    assert is_orientable(rep3(2, 2, 2, 0, 0, 2, 0))
    assert not is_orientable(rep3(3, 1, 1, 1, 0, 1, 0))
    assert is_orientable(DiagonalRep(2, (5, 0, 0, 0)))


@given(diagonal_reps(max_k=5, max_n=20))
def test_is_orientable_is_generator_parity(rep):
    # generator f_j has determinant (-1)^(sum of q_I over the I containing j)
    assert is_orientable(rep) == all(
        sum(v for m, v in enumerate(rep.q) if m >> j & 1) % 2 == 0 for j in range(rep.k))


def test_kahler_class():
    assert kahler_class(rep3(2, 2, 2, 0, 0, 2, 0)) == "kahler"
    assert kahler_class(rep3(4, 4, 4, 0, 0, 4, 0)) == "hyperkahler"
    assert kahler_class(rep3(3, 1, 2, 0, 1, 1, 0)) == "none"


def test_are_equivalent_examples():
    a = rep3(2, 1, 0, 1, 0, 0, 0)   # 2 chi_1 + chi_2 + chi_12
    b = rep3(1, 2, 0, 1, 0, 0, 0)   # chi_1 + 2 chi_2 + chi_12
    assert are_equivalent(a, b)
    assert not are_equivalent(*TABLE1_PAIR)
    assert are_equivalent(a, a)


def test_are_equivalent_needs_matching_shape():
    with pytest.raises(ValueError):
        are_equivalent(TABLE1_PAIR[0], rep3(3, 2, 1, 1, 0, 1, 0))


def test_canonical_form_examples():
    a = rep3(2, 1, 0, 1, 0, 0, 0)
    b = rep3(1, 2, 0, 1, 0, 0, 0)
    assert display_representative(a) == display_representative(b)
    assert display_representative(rep3(2, 1, 2, 0, 0, 2, 0)) == \
        display_representative(rep3(2, 2, 2, 1, 0, 0, 0))
    c = display_representative(TABLE1_PAIR[0])
    assert display_representative(c) == c


def test_canonical_form_is_orbit_member():
    r = rep3(1, 3, 1, 1, 0, 1, 0)
    c = display_representative(r)
    assert c != r and are_equivalent(r, c)


def test_display_representative():
    r = rep3(2, 1, 2, 0, 0, 2, 0)
    assert display_representative(r).to_display() == (2, 2, 2, 1, 0, 0, 0)
    d = display_representative(TABLE1_PAIR[0])
    assert d.to_display() == (3, 1, 1, 1, 0, 1, 0)


def test_parse_and_format():
    r = parse_rep("3,1,1,1,0,1,0", 3)
    assert r == TABLE1_PAIR[0]
    assert format_rep(r) == "3,1,1,1,0,1,0"
    with_q0 = parse_rep("2,3,1,1,1,0,1,0", 3, with_q0=True)
    assert with_q0.q[0] == 2 and with_q0.n == 9
    assert format_rep(with_q0, with_q0=True) == "2,3,1,1,1,0,1,0"
    with pytest.raises(ValueError):
        parse_rep("1,2", 3)
    with pytest.raises(ValueError):
        parse_rep("1,2,x,0,0,0,0", 3)


def test_rep_validation():
    with pytest.raises(ValueError):
        DiagonalRep(3, (0,) * 7)
    with pytest.raises(ValueError):
        DiagonalRep(3, (0, -1, 2, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        DiagonalRep(3, (0,) * 8)  # dimension zero


@given(diagonal_reps(max_k=5, max_n=20))
def test_fixed_dims_are_fixed_character_sums(rep):
    assert fixed_dims(rep) == tuple(
        sum(v for m, v in enumerate(rep.q) if evaluate(m, f) == 1)
        for f in range(1 << rep.k))


@given(diagonal_reps())
def test_pattern_counts_all_elements(rep):
    assert sum(pattern(rep)) == 1 << rep.k
    assert pattern(rep)[rep.n] >= 1


@given(diagonal_reps(max_k=3, max_n=9))
@settings(max_examples=60)
def test_equivalence_preserves_pattern(rep):
    rng = random.Random(hash(rep.q) & 0xFFFF)
    perms = automorphism_table(rep.k)
    img = perms[rng.randrange(len(perms))]
    other = DiagonalRep(rep.k, tuple(rep.q[img[m]] for m in range(1 << rep.k)))
    assert are_equivalent(rep, other)
    assert pattern(rep) == pattern(other)
    assert display_representative(rep) == display_representative(other)


def test_equivalence_is_equivalence_relation(rng):
    perms = automorphism_table(3)
    for _ in range(40):
        a = random_rep(rng, 3, rng.randrange(3, 9), q0_zero=False)
        img = perms[rng.randrange(len(perms))]
        b = DiagonalRep(3, tuple(a.q[img[m]] for m in range(8)))
        img2 = perms[rng.randrange(len(perms))]
        c = DiagonalRep(3, tuple(b.q[img2[m]] for m in range(8)))
        assert are_equivalent(a, a)
        assert are_equivalent(a, b) == are_equivalent(b, a)
        assert are_equivalent(a, b) and are_equivalent(b, c)
        assert are_equivalent(a, c)


def test_faithful_reps_have_positive_fixed_dims_only_at_identity(rng):
    # only the identity fixes everything
    for _ in range(30):
        rep = random_rep(rng, 3, 8, faithful=True)
        full = [f for f, d in enumerate(fixed_dims(rep)) if d == rep.n]
        assert full == [0]


@st.composite
def wide_reps(draw, max_k=4):
    """Reps whose entries reach past 255 and 65535 as well as small ones."""
    k = draw(st.integers(1, max_k))
    entry = st.one_of(st.integers(0, 3), st.integers(250, 260), st.integers(65530, 65540))
    q = draw(st.lists(entry, min_size=1 << k, max_size=1 << k).filter(any))
    return DiagonalRep(k, tuple(q))


@functools.cache
def orbit_readers(k):
    """Per automorphism img, readers of q[img] in numeric and in display order."""
    order = chargroup.display_order(k)[1:] + (0,)
    maps = list(automorphisms(k))
    return ([itemgetter(*img) for img in maps],
            [itemgetter(*(img[m] for m in order)) for img in maps], order)


@given(wide_reps())
@example(DiagonalRep(4, (0, 3, 1, 0, 2, 0, 0, 1, 1, 0, 0, 2, 0, 1, 0, 0)))
@example(DiagonalRep(4, (1, 300, 0, 2, 70000, 0, 0, 1, 0, 0, 5, 0, 0, 256, 0, 0)))
@example(DiagonalRep(4, (0,) * 15 + (65536,)))
@example(DiagonalRep(2, (0, 2 ** 32, 1, 0)))
# searches that tie leaves, abandon subtrees, skip columns in an orbit and cut
# on the bound
@example(DiagonalRep(4, (1,) * 16))
@example(DiagonalRep(4, (0, 1, 1, 1) + (0,) * 12))
@example(DiagonalRep(4, (0,) + (1,) * 7 + (0,) * 8))
@example(DiagonalRep(4, tuple(m.bit_count() for m in range(16))))
@example(DiagonalRep(4, (0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1)))
@settings(max_examples=80)
def test_orbit_extremes_match_brute_force(rep):
    # the display-greatest q over the orbit, one automorphism at a time,
    # against the pruned search; the display-greatest member is the only one
    # that is its own display representative
    numeric, display, order = orbit_readers(rep.k)
    greatest = max(read(rep.q) for read in display)
    assert tuple(display_representative(rep).q[m] for m in order) == greatest
    members = {num(rep.q): disp(rep.q) for num, disp in zip(numeric, display)}
    for member, reading in members.items():
        assert is_display_representative(rep.k, member) == (reading == greatest)


@st.composite
def shuffled_pairs(draw, max_k=4):
    """A rep and a copy whose nonzero masks carry its multiplicities in an
    arbitrary order, not necessarily a relabelling: the two share q_0 and
    the multiset, so are_equivalent has to run the search."""
    rep = draw(diagonal_reps(max_k=max_k, max_n=10))
    masks = range(1, 1 << rep.k)
    q = [rep.q[0]] + [0] * len(masks)
    for m, image in zip(masks, draw(st.permutations(masks))):
        q[image] = rep.q[m]
    return rep, DiagonalRep(rep.k, tuple(q))


# the k = 4, n = 7 almost-conjugate pair: equal patterns and multisets
K4_N7_PAIR = (DiagonalRep.from_display(4, (2, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)),
              DiagonalRep.from_display(4, (2, 1, 1, 1, 0, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0)))


@given(shuffled_pairs())
@example(K4_N7_PAIR)
@example((rep3(2, 1, 0, 1, 0, 0, 0), rep3(1, 2, 0, 1, 0, 0, 0)))
@example((DiagonalRep(4, (1,) * 16), DiagonalRep(4, (1,) * 16)))
@settings(max_examples=80)
def test_are_equivalent_matches_brute_force_orbit(pair):
    a, b = pair
    numeric, _, _ = orbit_readers(a.k)
    assert are_equivalent(a, b) == (b.q in {read(a.q) for read in numeric})


def test_are_equivalent_tells_k5_almost_conjugate_pair_apart():
    # equal patterns, multisets and q_0, so only the search decides; a
    # relabelling keeps the relations among the supported characters, and
    # the doubled character 1 lies in the relation 1 ^ 2 ^ 3 = 0 in the
    # support of a but in no relation in the support of b
    a, b = (DiagonalRep(5, tuple(q.get(m, 0) for m in range(32))) for q in (
        {1: 2, 2: 1, 3: 1, 4: 1, 8: 1, 14: 1}, {1: 2, 2: 1, 4: 1, 6: 1, 8: 1, 10: 1}))
    assert pattern(a) == pattern(b) and sorted(a.q) == sorted(b.q)
    assert not are_equivalent(a, b) and not are_equivalent(b, a)


def test_canonical_form_is_display_representative():
    for rep in (*TABLE1_PAIR, rep3(1, 3, 1, 1, 0, 1, 0), *K4_N7_PAIR,
                DiagonalRep(5, tuple(int(m not in (0, 3)) for m in range(32)))):
        assert canonical_form(rep) == display_representative(rep)


@st.composite
def relabelled_k5(draw):
    """A k = 5 rep and its image under a random invertible matrix, built
    column by column from random columns outside the span so far."""
    q = draw(st.lists(st.integers(0, 3), min_size=32, max_size=32).filter(any))
    cols, span = (), {0}
    while len(cols) < 5:
        c = draw(st.integers(1, 31).filter(lambda c, span=frozenset(span): c not in span))
        cols += (c,)
        span |= {s ^ c for s in span}
    img = _mask_images(cols, 5)
    return DiagonalRep(5, tuple(q)), DiagonalRep(5, tuple(q[img[m]] for m in range(32)))


@given(relabelled_k5())
@example((DiagonalRep(5, (0, 1, 1) + (0,) * 29), DiagonalRep(5, (0,) * 30 + (1, 1))))
@settings(max_examples=40)
def test_k5_extremes_are_relabelling_invariant(pair):
    rep, other = pair
    form = display_representative(rep)
    assert display_representative(other) == form
    assert display_representative(form) == form
    assert pattern(form) == pattern(rep)
    assert sorted(form.q) == sorted(rep.q) and form.q[0] == rep.q[0]
    assert are_equivalent(rep, other)


# q = 1 at the masks 1, 2, 3, 4, 8, 12, 13, 16: the singleton check passes,
# but on the identity's path the pair filter at level 2 keeps only the
# columns 12 and 13, whose pairs with column 1 (13 and 12) read 1, and drops
# the identity's column 4, whose pair 5 reads 0
PAIR_FILTER_DROPS_IDENTITY = DiagonalRep(5, tuple(
    int(m in (1, 2, 3, 4, 8, 12, 13, 16)) for m in range(32)))


@given(relabelled_k5())
@example((PAIR_FILTER_DROPS_IDENTITY, PAIR_FILTER_DROPS_IDENTITY))
@settings(max_examples=25)
def test_k5_canonicity_test_matches_display_search(pair):
    # the early-exit test against the full display search, on a rep, a
    # relabelling of it, their common display representative and the
    # vectors one unit above it, which mostly pass the singleton check
    rep, other = pair
    form = display_representative(rep).q
    above = [form[:c] + (form[c] + 1,) + form[c + 1:] for c in range(1, 32)]
    for v in (rep.q, other.q, form, *above):
        assert is_display_representative(5, v) == (display_representative(DiagonalRep(5, v)).q == v)


def display_image(k, q):
    """The relabelling display_representative reads q through: the display
    search's last leaf."""
    *_, img = diagrep._greatest_image(k, q)
    return img


@st.composite
def monotone_maps(draw, q):
    """A strictly increasing map of the distinct values of q, as a dict, that
    sends some value above 0."""
    values = sorted(set(q))
    image = draw(st.sets(st.integers(0, 70000), min_size=len(values),
                         max_size=len(values)).filter(any))
    return dict(zip(values, sorted(image)))


@st.composite
def remapped_reps(draw, max_k=4):
    """A vector q with q_0 in {0, 1} and a strictly increasing map of its values."""
    k = draw(st.integers(1, max_k))
    q0 = draw(st.integers(0, 1))
    rest = draw(st.lists(st.integers(0, 4), min_size=(1 << k) - 1, max_size=(1 << k) - 1))
    q = (q0, *rest)
    if not any(q):
        q = (1, *rest)
    return DiagonalRep(k, q), draw(monotone_maps(q))


@given(remapped_reps())
@example((DiagonalRep(4, (1,) * 16), {1: 9}))
@example((DiagonalRep(4, (0, 0, 1, 0, 0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 0, 1)), {0: 5, 1: 6}))
@example((DiagonalRep(3, (1, 2, 2, 0, 1, 0, 3, 0)), {0: 0, 1: 1, 2: 300, 3: 301}))
@settings(max_examples=80)
def test_canonicity_depends_on_order_type_alone(case):
    # q and its display representative, each against its image under a
    # strictly increasing map of values: same verdict, same relabelling, and
    # the image's verdict and extreme agree with the whole orbit
    rep, remap = case
    k = rep.k
    _, display, order = orbit_readers(k)
    for q in (rep.q, display_representative(rep).q):
        image = tuple(remap[v] for v in q)
        ranks = order_type(q)
        assert order_type(image) == ranks and set(ranks) == set(range(len(set(q))))
        assert all((a < b) == (x < y) for a, x in zip(q, ranks) for b, y in zip(q, ranks))
        verdict = is_display_representative(k, image)
        assert verdict == is_display_representative(k, q)
        assert display_image(k, image) == display_image(k, q)
        greatest = max(read(image) for read in display)
        form = display_representative(DiagonalRep(k, image))
        assert tuple(form.q[m] for m in order) == greatest
        assert verdict == (tuple(image[m] for m in order) == greatest)


@st.composite
def remapped_k5(draw):
    rep, other = draw(relabelled_k5())
    return rep, other, draw(monotone_maps(rep.q))


@given(remapped_k5())
@example((PAIR_FILTER_DROPS_IDENTITY, PAIR_FILTER_DROPS_IDENTITY, {0: 2, 1: 7}))
@example((DiagonalRep(5, (0, 1, 1) + (0,) * 29), DiagonalRep(5, (0,) * 30 + (1, 1)),
          {0: 0, 1: 40}))
@settings(max_examples=15)
def test_k5_canonicity_depends_on_order_type_alone(case):
    # no orbit listing at k = 5: a relabelled partner stands in for it
    rep, other, remap = case
    form = display_representative(rep).q
    for q in (rep.q, other.q, form):
        image = tuple(remap[v] for v in q)
        assert is_display_representative(5, image) == is_display_representative(5, q)
        assert display_image(5, image) == display_image(5, q)
    images = [DiagonalRep(5, tuple(remap[v] for v in q)) for q in (rep.q, other.q, form)]
    assert {display_representative(r) for r in images} == {images[2]}


def test_pair_filter_drops_identity():
    q = PAIR_FILTER_DROPS_IDENTITY.q
    assert all(q[1 << j] == max(q[1 << j:]) for j in range(5))
    leaves = diagrep._greatest_image(5, q)
    assert next(leaves) != list(range(32))
    assert not is_display_representative(5, q)


def test_all_ones_k5_is_its_own_extreme():
    for q0 in (0, 1):
        rep = DiagonalRep(5, (q0,) + (1,) * 31)
        assert display_representative(rep) == rep


def test_orbit_skip_keeps_symmetric_k5_search_small():
    # q = 1 at every mask but 0 and 3: the stabilizer of one nonzero mask is
    # large, and the tied leaves give automorphisms that skip the orbit-mates
    # of explored columns; the search takes about 3 ms, and 0.18 s without
    # the skip (min of 3 runs, 2 cores)
    rep = DiagonalRep(5, tuple(int(m not in (0, 3)) for m in range(32)))
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        form = display_representative(rep)
        seconds.append(time.perf_counter() - start)
    assert [m for m, v in enumerate(form.q) if not v] == [0, 31]
    assert min(seconds) < 0.03


@pytest.mark.parametrize("q, display", [
    # few zeros and no symmetry: the zeros sit at masks known only at the last level
    ((1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1, 1,
      1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1),
     (1,) * 24 + (0, 1, 0, 0, 0, 0, 0)),
    # the nonzero masks of a 4-dimensional subspace
    (tuple(int(1 <= m <= 15) for m in range(32)),
     (1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
], ids=["few-zeros", "subspace"])
def test_slow_k5_display_inputs_stay_fast(q, display):
    # the display search explores nodes that can tie the best leaf, so the
    # tied leaves give automorphisms that skip orbit-mates; with a cut at
    # ties these took 0.5-0.8 s and 0.3-0.4 s
    rep = DiagonalRep(5, q)
    seconds = []
    for _ in range(3):
        start = time.perf_counter()
        form = display_representative(rep)
        seconds.append(time.perf_counter() - start)
    assert form.to_display() == display
    assert min(seconds) < 0.2


@given(diagonal_reps(max_k=5, max_n=12))
@example(DiagonalRep(5, (0,) + (1,) * 31))
@example(DiagonalRep(5, tuple(int(m.bit_count() == 1) for m in range(32))))
@example(DiagonalRep(5, tuple(int(1 <= m <= 15) for m in range(32))))
@example(DiagonalRep(4, (0, 1, 1, 1) + (0,) * 12))
@settings(max_examples=60)
def test_display_automorphisms_fix_q_and_are_linear(rep):
    # accepted: the display representative, whose automorphisms are
    # relabellings that fix it; any other orbit member is rejected
    k, size = rep.k, 1 << rep.k
    q = display_representative(rep).q
    autos = diagrep.display_automorphisms(k, q)
    assert autos is not None
    for g in autos:
        assert sorted(g) == list(range(size))
        assert all(q[g[m]] == q[m] for m in range(size))
        assert all(g[a ^ b] == g[a] ^ g[b] for a in range(size) for b in range(size))
    if rep.q != q:
        assert diagrep.display_automorphisms(k, rep.q) is None


def test_relabelling_search_rank_cap():
    rep = DiagonalRep(6, (0,) + (1,) * 63)
    for call in (display_representative, lambda r: are_equivalent(r, r),
                 lambda r: diagrep.display_automorphisms(r.k, r.q)):
        with pytest.raises(CapabilityError, match="k <= 5"):
            call(rep)
