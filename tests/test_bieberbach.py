import hashlib
import io
import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import goldens
from conftest import diagonal_reps, random_rep
from oracles import (bgf_text, derive_element_translations, element_translation,
                     find_translations_reference, half_fixed_count, sunada_from_columns,
                     torsion_free_translations_exist)
from flatiso import bieberbach
from flatiso.bieberbach import (BieberbachGroup, construct_dim7_pair,
                                construct_family24, construct_main_pair, find_translations,
                                is_sunada_isospectral, is_torsion_free, read_bgf,
                                sunada_table, sunada_table_text)
from flatiso.chargroup import display_order, indices_from_mask
from flatiso.cohomology import primitive_counts
from flatiso.diagrep import (DiagonalRep, contains_minus_identity, fixed_dims, kahler_class,
                             pattern)
from flatiso.errors import CapabilityError


def test_element_translations_are_mod1_sums():
    g = BieberbachGroup(2, (1, 2), (0b11, 0b10))
    trans = derive_element_translations(g)
    assert trans[0] == (0, 0)
    assert trans[0b11] == (0, 1)


def test_element_translations_family24_checks():
    g = construct_family24(1)
    starts = {}
    for j, c in enumerate(g.coord_chars):
        starts.setdefault(c, j)
    chi3, chi12 = 4, 3
    b12 = element_translation(g, 0b011)
    assert b12[starts[chi12]] == 1      # half survives: b_1 carries it, b_2 does not
    assert b12[starts[chi3]] == 0       # halves of b_1 and b_2 cancel mod 1


def test_translation_map_is_homomorphism(rng):
    g = construct_family24(3)
    trans = derive_element_translations(g)
    for _ in range(40):
        a, b = rng.randrange(8), rng.randrange(8)
        assert trans[a ^ b] == tuple(x ^ y for x, y in zip(trans[a], trans[b]))


def test_half_fixed_count_examples():
    g, _ = construct_main_pair(3, 8)
    assert half_fixed_count(g, 0) == 0
    assert half_fixed_count(g, 0b001) == 1
    assert half_fixed_count(g, 0b100) == 1  # third generator fixes its half at chi_1
    g13, _ = construct_main_pair(4, 13)
    assert half_fixed_count(g13, 0b0001) == 1
    assert half_fixed_count(g13, 0b0010) == 1


def test_is_torsion_free():
    ga, gb = construct_dim7_pair()
    assert is_torsion_free(ga).ok and is_torsion_free(gb).ok
    flat = BieberbachGroup(2, (1, 2, 3), (0, 0, 0))
    check = is_torsion_free(flat)
    assert not check.ok and check.witness in (1, 2, 3)
    for j in range(1, 9):
        assert is_torsion_free(construct_family24(j)).ok


def test_torsion_free_needs_positive_fixed_dims(rng):
    # whenever the check passes, every element fixes something
    for _ in range(30):
        rep = random_rep(rng, 3, rng.randrange(3, 9))
        group = find_translations(rep)
        if group is not None:
            assert min(fixed_dims(rep)) >= 1


def test_sunada_table_marginal_is_pattern():
    for g in (*construct_dim7_pair(), construct_family24(5), *construct_main_pair(3, 9)):
        table = sunada_table(g)
        patt = [0] * (g.n + 1)
        for (s, _t), c in table.items():
            patt[s] += c
        assert tuple(patt) == pattern(g.rep.q)


def test_dim7_sunada_tables():
    ga, gb = construct_dim7_pair()
    assert sunada_table(ga) == goldens.DIM7_SUNADA
    assert sunada_table(gb) == goldens.DIM7_SUNADA
    assert is_sunada_isospectral(ga, gb)


@st.composite
def groups(draw, max_k=4, max_n=10):
    """Random characters in any coordinate order and sparse random numerators."""
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(1, max_n))
    chars = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n, max_size=n))
    halves = draw(st.sets(st.tuples(st.integers(0, k - 1), st.integers(0, n - 1)), max_size=2 * k))
    tags = tuple(sum(1 << i for i, h in halves if h == j) for j in range(n))
    return BieberbachGroup(k, tuple(chars), tags)


def _large_group(seed):
    """A group at k = 12, n = 30, far past groups(): random characters (the
    trivial one included) and a random tag per coordinate.  Seed 0 gives a
    torsion-free group, seed 3 one whose least witness is 1322."""
    rng = random.Random(seed)
    k, n = 12, 30
    chars = tuple(rng.randrange(1 << k) for _ in range(n))
    tags = [rng.randrange(1 << k) for _ in range(n)]
    return BieberbachGroup(k, chars, tuple(tags))


def _heads(group):
    """Per block, the tags of its coordinates in order, without trailing zeros."""
    heads = {}
    for c, tag in zip(group.coord_chars, group.tags):
        heads.setdefault(c, []).append(tag)
    for head in heads.values():
        while head and not head[-1]:
            head.pop()
    return heads


@given(groups())
@example(_large_group(0))
@example(_large_group(3))
@settings(max_examples=300)
def test_tag_pairs_match_xor_reference(g):
    # the Sunada table and torsion check read off (character, tag) pairs, against
    # element translations built by XOR and index-set arithmetic
    halves = [[j + 1 for j in range(g.n) if b[j]] for b in g.gen_translations]
    assert sunada_table(g) == sunada_from_columns(
        [indices_from_mask(c) for c in g.coord_chars], halves, g.k)
    uncovered = [m for m in range(1, 1 << g.k) if half_fixed_count(g, m) == 0]
    assert is_torsion_free(g) == (not uncovered, min(uncovered, default=None))
    # from_tags lays the same blocks out in display order, opening with these tags
    heads = _heads(g)
    built = BieberbachGroup.from_tags(g.rep, heads)
    assert _heads(built) == heads and built.rep == g.rep
    assert built.coord_chars == tuple(sorted(g.coord_chars, key=display_order(g.k).index))
    assert sunada_table(built) == sunada_table(g)


def test_family24_sunada_tables():
    tables = [sunada_table(construct_family24(j)) for j in range(1, 9)]
    expected = dict(goldens.FAMILY24_SUNADA_NONID)
    expected[(24, 0)] = 1
    for t in tables:
        assert t == expected


def test_family24_fixed_dims_and_pattern():
    patterns = set()
    for j in range(1, 9):
        g = construct_family24(j)
        dims = fixed_dims(g.rep)
        row = tuple(dims[m] for m in (1, 2, 4, 3, 5, 6, 7))
        assert row == goldens.FAMILY24_FIXED_DIMS[j]
        assert sorted(row) == [4, 6, 8, 10, 12, 14, 18]
        patterns.add(pattern(g.rep.q))
    assert len(patterns) == 1
    nonzero = {s: c for s, c in enumerate(patterns.pop()) if c}
    assert nonzero == {4: 1, 6: 1, 8: 1, 10: 1, 12: 1, 14: 1, 18: 1, 24: 1}


def test_family24_rep_rows():
    assert construct_family24(1).rep.to_display() == (10, 6, 3, 2, 1, 1, 1)
    assert construct_family24(8).rep.to_display() == (8, 6, 6, 4, 0, 0, 0)
    with pytest.raises(ValueError):
        construct_family24(9)


def test_is_sunada_isospectral():
    ga, gb = construct_main_pair(3, 8)
    assert is_sunada_isospectral(ga, gb)
    assert is_sunada_isospectral(ga, ga)
    groups = [construct_family24(j) for j in range(1, 9)]
    for i in range(8):
        for j in range(i + 1, 8):
            assert is_sunada_isospectral(groups[i], groups[j])
    with pytest.raises(ValueError):
        is_sunada_isospectral(ga, construct_dim7_pair()[0])


def column_notation(group):
    """Per-coordinate rows of generator signs, with a half entry marked by
    '½', for eyeball comparison with printed tables."""
    rows = [["block", "coord"] + [f"B{i + 1}" for i in range(group.k)]]
    for j, c in enumerate(group.coord_chars):
        label = "chi_" + ("".join(map(str, indices_from_mask(c))) or "0")
        rows.append([label, str(j + 1)] + [("-1" if c >> i & 1 else " 1")
                                           + ("½" if group.gen_translations[i][j] else " ")
                                           for i in range(group.k)])
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in rows)


DIM8_GAMMA_TEXT = """\
block   coord  B1   B2   B3
chi_1   1      -1    1    1½
chi_1   2      -1    1    1
chi_2   3       1½  -1    1
chi_2   4       1   -1    1
chi_23  5       1   -1½  -1
chi_23  6       1   -1   -1
chi_3   7       1    1½  -1
chi_3   8       1    1   -1"""


def test_main_pair_dim8_matches_fixed_column_data():
    gamma, gamma_p = construct_main_pair(3, 8)
    assert gamma.rep.to_display() == (2, 2, 2, 0, 0, 2, 0)
    assert gamma_p.rep.to_display() == (3, 1, 2, 0, 1, 1, 0)
    # coordinate blocks chi_1 | chi_2 | chi_23 | chi_3 and chi_1 | chi_13 | chi_2 | chi_23 | chi_3
    assert gamma.coord_chars == (1, 1, 2, 2, 6, 6, 4, 4)
    assert gamma_p.coord_chars == (1, 1, 1, 5, 2, 6, 4, 4)
    assert gamma.gen_translations == (
        (0, 0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 1, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
    )
    assert gamma_p.gen_translations == (
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0),
        (1, 0, 0, 0, 0, 0, 0, 0),
    )
    assert column_notation(gamma) == DIM8_GAMMA_TEXT


def test_main_pair_small_cases():
    gamma, gamma_p = construct_main_pair(3, 7)
    assert gamma.rep.to_display() == (2, 2, 1, 0, 0, 2, 0)
    assert gamma_p.rep.to_display() == (3, 1, 1, 0, 1, 1, 0)
    assert is_torsion_free(gamma).ok and is_torsion_free(gamma_p).ok
    assert is_sunada_isospectral(gamma, gamma_p)


def test_main_pair_parameter_validation():
    with pytest.raises(ValueError):
        construct_main_pair(3, 6)
    with pytest.raises(ValueError):
        construct_main_pair(2, 10)


def peak_bytes(call):
    """Peak traced allocation while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_main_pair_checks_rank_before_allocating():
    def build():
        with pytest.raises(ValueError, match=r"rank k=20 outside supported range 1\.\.16"):
            construct_main_pair(20, 3 * 2 ** 18 + 1)
    assert peak_bytes(build) < 1 << 20


def test_main_pair_k4():
    gamma, gamma_p = construct_main_pair(4, 13)
    p, pp = primitive_counts(gamma.rep), primitive_counts(gamma_p.rep)
    assert p[4] == 16  # 2^4 * 4*3*2 / 4!
    assert pp[4] > p[4]
    assert pp[5] > p[5]
    assert p[5] == 0 and pp[5] > 0
    assert is_sunada_isospectral(gamma, gamma_p)


@pytest.mark.parametrize("k,q_mult", [(3, 2), (4, 1), (5, 1), (6, 2)])
def test_main_pair_closed_forms(k, q_mult):
    # P_4 and P_5 of the unflipped member against the counting closed forms
    n = 3 * (1 << (k - 2)) + q_mult
    gamma, _ = construct_main_pair(k, n)
    p = primitive_counts(gamma.rep)
    h = 1 << (k - 2)
    assert p[4] == 16 * h * (h - 1) * (h - 2) // 24
    assert p[5] == 16 * q_mult * h * (h - 2) * (h - 4) // 24


def test_find_translations():
    rep = DiagonalRep.from_display(3, (2, 2, 2, 0, 0, 2, 0))
    group = find_translations(rep)
    assert group is not None
    assert is_torsion_free(group).ok
    assert group.rep == rep

    assert find_translations(DiagonalRep(1, (0, 2))) is None
    with pytest.raises(ValueError):
        find_translations(DiagonalRep(2, (4, 0, 0, 0)))


def test_find_translations_rank_cap_raises_before_tables():
    before = bieberbach._negations.cache_info()
    q = [0] * (1 << 12)
    for i in range(12):
        q[1 << i] = 1
    with pytest.raises(CapabilityError, match="k <= 10"):
        find_translations(DiagonalRep(12, tuple(q)))
    assert bieberbach._negations.cache_info() == before


def test_find_translations_deterministic():
    rep = DiagonalRep.from_display(3, (3, 1, 1, 1, 0, 1, 0))
    assert find_translations(rep) == find_translations(rep)


def _search_text(search, rep):
    try:
        group = search(rep)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return None if group is None else bgf_text(group)


@given(diagonal_reps(max_k=3, max_n=10))
@settings(max_examples=150)
def test_find_translations_matches_reference(rep):
    # the cuts drop only dead subtrees: same first solution, same None
    assert (_search_text(find_translations, rep)
            == _search_text(partial(find_translations_reference, wide_search=True), rep))


@given(diagonal_reps(max_k=3, max_n=4))
@settings(max_examples=100)
def test_find_translations_is_complete(rep):
    # None only when no translation numerators at all give a torsion-free group
    assume(any(rep.q[1:]))
    assert (find_translations(rep) is not None) == torsion_free_translations_exist(rep)


def _pinned_inputs():
    """Faithful k=4 and k=5 representations without -Id, from a fixed seed."""
    rng = random.Random(7)
    out = []
    for k, count in ((4, 40), (5, 20)):
        while sum(r.k == k for r in out) < count:
            rep = random_rep(rng, k, rng.randrange(k + 2, k + 10), faithful=True)
            if not contains_minus_identity(rep):
                out.append(rep)
    return out


def test_find_translations_pinned_digest():
    # captured with the plain element-by-element search, which takes up to 13 s
    # on one of these inputs (find_translations_reference)
    digest = hashlib.sha256()
    for rep in _pinned_inputs():
        text = _search_text(find_translations, rep)
        # each input is hashed twice, once for each of the two search spaces the
        # digest was captured over; both gave the same text on every input
        for _ in range(2):
            digest.update(b"None\n" if text is None else text.encode())
    assert digest.hexdigest() == (
        "34b6c70fa56fdbde6ca1e65f4ed7d114e6fe055f9999116625e32c03ef5b6ed8")


def _timed_search(rep):
    start = time.perf_counter()
    group = find_translations(rep)
    return group, time.perf_counter() - start


@pytest.mark.parametrize("rep", [
    DiagonalRep.from_display(5, (1,) * 5 + (0,) * 26),
    DiagonalRep.from_display(5, (2,) * 5 + (0,) * 26),
    DiagonalRep(4, (0, 0, 0, 0, 0, 0, 0, 0, 2, 3, 2, 2, 1, 4, 0, 2)),
], ids=["k5-singletons-1", "k5-singletons-2", "k4-minus-id"])
def test_find_translations_minus_identity_ends(rep):
    # the plain search ran past 20 s (k=5) and for about 3 minutes (k=4) on these; the
    # forward check rejects -Id at the root
    assert contains_minus_identity(rep)
    group, seconds = _timed_search(rep)
    assert group is None and seconds < 1


@pytest.mark.parametrize("masks", [(4, 19, 20, 23, 30), (8, 11, 20, 23, 28),
                                   (11, 12, 22, 26, 29)], ids=lambda m: "-".join(map(str, m)))
def test_find_translations_no_solution_ends(masks):
    # no -Id, so neither cut fires at the root; trying both tags m and m ^ J of a
    # block J took 0.19-0.48 s on these, one tag per class about 0.03 s
    q = [0] * 32
    for mask in masks:
        q[mask] = 1
    rep = DiagonalRep(5, tuple(q))
    assert not contains_minus_identity(rep)
    group, seconds = _timed_search(rep)
    assert group is None and seconds < 0.15


K4_SLOW_BGF = """BGF1
k=4 n=13
B1 + + + + + + + + - - + - +
b1 1 0 0 0 0 0 0 0 1 0 0 0 0
B2 - + + + + + + + + + + - -
b2 0 1 0 0 0 0 0 0 0 0 0 1 0
B3 + - + + + + + + + + - + -
b3 0 0 1 0 0 0 0 0 0 0 1 0 0
B4 + + - - - - - - - - - - -
b4 0 1 0 0 0 0 0 0 0 0 0 0 0
"""


def test_find_translations_slow_solution_is_kept():
    # about 1 s in the plain search, which found this group
    group, seconds = _timed_search(DiagonalRep(4, (0, 0, 1, 0, 1, 0, 0, 0, 6, 2, 0, 1, 1, 0, 1, 0)))
    assert bgf_text(group) == K4_SLOW_BGF and seconds < 1


# a block of three coordinates: the only inputs seen where capping each generator at
# two half entries per block rejected candidates (64 here, all in subtrees without a
# solution); the capped search returned this group too
K5_BLOCK3_BGF = """BGF1
k=5 n=7
B1 + + + - - - -
b1 1 0 0 0 1 1 0
B2 - - - + - + -
b2 0 0 0 1 0 0 1
B3 + + + - - - -
b3 0 1 0 0 0 1 0
B4 + + + + + - -
b4 0 1 0 0 0 0 0
B5 + + + + - - -
b5 0 0 1 0 0 0 0
"""


def test_find_translations_block_of_three():
    q = [0] * 32
    q[2] = 3
    for mask in (5, 23, 29, 31):
        q[mask] = 1
    group = find_translations(DiagonalRep(5, tuple(q)))
    assert bgf_text(group) == K5_BLOCK3_BGF


def test_bgf_roundtrip():
    for group in (*construct_main_pair(3, 8), construct_family24(2), *construct_dim7_pair(),
                  _large_group(0), _large_group(3)):
        text = bgf_text(group)
        back = read_bgf(io.StringIO(text))
        assert back == group
        assert sunada_table(back) == sunada_table(group)
    # the BGF rows are a view of the tags
    big = _large_group(0)
    assert all(big.gen_translations[i][j] == big.tags[j] >> i & 1
               for i in range(big.k) for j in range(big.n))


def test_bgf_exact_format():
    gamma, _ = construct_main_pair(3, 8)
    lines = bgf_text(gamma).splitlines()
    assert lines[0] == "BGF1"
    assert lines[1] == "k=3 n=8"
    assert lines[2] == "B1 - - + + + + + +"
    assert lines[3] == "b1 0 0 1 0 0 0 0 0"
    assert len(lines) == 2 + 2 * 3


def test_bgf_accepts_trailing_comments():
    gamma, _ = construct_main_pair(3, 8)
    text = bgf_text(gamma) + "# a remark\n\n# another\n"
    assert read_bgf(io.StringIO(text)) == gamma


@pytest.mark.parametrize("mangle", [
    lambda t: t.replace("BGF1", "BGF2"),
    lambda t: t.replace("k=3", "k=x"),
    lambda t: t.replace("B1", "B9", 1),
    lambda t: t.replace("+", "?", 1),
    lambda t: t.replace("b1 0", "b1 2", 1),
    lambda t: t + "stray line\n",
    lambda t: "\n".join(t.splitlines()[:4]) + "\n",
])
def test_bgf_rejects_malformed(mangle):
    gamma, _ = construct_main_pair(3, 8)
    with pytest.raises(ValueError):
        read_bgf(io.StringIO(mangle(bgf_text(gamma))))


def test_bgf_checks_lines_before_allocating():
    # the header claims a million coordinates, the lines hold one
    def read():
        with pytest.raises(ValueError, match="malformed BGF generator line"):
            read_bgf(io.StringIO("BGF1\nk=1 n=1000000\nB1 -\nb1 1\n"))
    assert peak_bytes(read) < 1 << 20


def test_sunada_table_text_suppresses_identity():
    g, _ = construct_main_pair(3, 8)
    text = sunada_table_text(sunada_table(g), g.n)
    assert "c[8,0]" not in text
    assert "c[6,1] = 1" in text


def test_group_validation():
    with pytest.raises(ValueError):
        BieberbachGroup(2, (1, 4), (0, 0))             # character out of range
    with pytest.raises(ValueError):
        BieberbachGroup(2, (1, 2), (0,))               # one tag for two coordinates
    with pytest.raises(ValueError):
        BieberbachGroup(2, (1, 2), (0, 4))             # not a 2-bit tag
    rep = DiagonalRep(2, (0, 1, 1, 0))
    with pytest.raises(ValueError):
        BieberbachGroup.from_tags(rep, {1: [1, 2]})    # two head tags for one coordinate
    with pytest.raises(ValueError):
        BieberbachGroup.from_tags(rep, {2: [4]})       # not a 2-bit tag


def test_kahler_split_of_main_pair():
    for k, n in ((3, 8), (3, 10), (4, 14)):
        gamma, gamma_p = construct_main_pair(k, n)
        assert kahler_class(gamma.rep) == "kahler"
        assert kahler_class(gamma_p.rep) == "none"
