"""Acceptance suite: the package's exit criteria.

One test per criterion, each asserting the exact expected values (tolerance
is exact everywhere) and the stated runtime budget.  Run with

    pytest tests/test_acceptance.py -v -s

to get one pass/fail line per criterion plus the summary prints.
"""

import itertools
import random
import time

import goldens
from conftest import random_rep
from oracles import (automorphism_table, brute_betti, brute_block_matching, invariant_span,
                     lefschetz_multiplicities, primitive_basis, sunada_from_columns,
                     wedge_span)
from flatiso import bieberbach, search
from flatiso.cohomology import betti_numbers, minimal_generator_count, primitive_counts
from flatiso.diagrep import (DiagonalRep, are_equivalent, fixed_dims, is_faithful,
                             is_orientable, kahler_class, pattern)
from flatiso.flip import FlipSpec, apply_flip
from flatiso.search import SearchConfig, enumerate_families


def _rows(families, with_p5=False):
    out = []
    for f in families:
        rows = []
        for m in f.members:
            row = (list(m.display_q), m.prim[4]) if not with_p5 else \
                (list(m.display_q), m.prim[4], m.prim[5])
            rows.append(row)
        out.append(rows)
    return out


def _passed(criterion, detail):
    print(f"criterion {criterion}: PASS  ({detail})")


def test_criterion_1_table1_reproduction():
    t0 = time.monotonic()
    by_n = {}
    for n in range(7, 12):
        by_n[n] = enumerate_families(SearchConfig(k=3, n=n))
    elapsed = time.monotonic() - t0
    assert [len(by_n[n]) for n in range(7, 12)] == [1, 2, 5, 8, 16]
    for n in range(7, 12):
        assert all(f.size == 2 for f in by_n[n])
        assert goldens.normalized(_rows(by_n[n])) == goldens.normalized(goldens.TABLE1[n])
    assert elapsed < 5.0
    _passed(1, f"k=3 n=7..11 cell-identical in {elapsed:.2f}s")


def test_criterion_2_table2_reproduction():
    t0 = time.monotonic()
    by_n = {n: enumerate_families(SearchConfig(k=3, n=n, min_family_size=3))
            for n in range(12, 16)}
    elapsed = time.monotonic() - t0
    for n in range(12, 16):
        assert goldens.normalized(_rows(by_n[n])) == goldens.normalized(goldens.TABLE2[n])
    assert sorted((f.size for f in by_n[13]), reverse=True) == [4, 3, 3]
    assert elapsed < 30.0
    _passed(2, f"k=3 n=12..15 large families cell-identical in {elapsed:.2f}s")


def test_criterion_3_table3_reproduction():
    t0 = time.monotonic()
    counts = {}
    for n in (7, 8, 9):
        fams = enumerate_families(SearchConfig(k=4, n=n))
        counts[n] = len(fams)
        # match each reference family: same size, same sorted (P4, P5) columns,
        # every published row equivalent to an enumerated member
        used = set()
        for ref in goldens.TABLE3[n]:
            ref_p = sorted((p4, p5) for _, p4, p5 in ref)
            hit = None
            for i, fam in enumerate(fams):
                if i in used or fam.size != len(ref):
                    continue
                if sorted((m.prim[4], m.prim[5]) for m in fam.members) != ref_p:
                    continue
                members = [DiagonalRep.from_display(4, m.display_q) for m in fam.members]
                if all(any(are_equivalent(DiagonalRep.from_display(4, q), mr)
                           for mr in members) for q, _, _ in ref):
                    hit = i
                    break
            assert hit is not None, f"unmatched reference family at n={n}: {ref}"
            used.add(hit)
        assert len(used) == len(fams)
    assert counts == {7: 1, 8: 3, 9: 14}
    fams10 = enumerate_families(SearchConfig(k=4, n=10))
    assert len(fams10) == 32
    assert sum(1 for f in fams10 if f.size == 6) == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _passed(3, f"k=4 n=7..10 families 1/3/14/32 (one sextuple) in {elapsed:.1f}s; "
               "two published P5 cells corrected to the computed 0 (see goldens)")


def test_criterion_4_n12_census():
    fams = enumerate_families(SearchConfig(k=3, n=12))
    assert len(fams) == 19
    assert sum(1 for f in fams if f.size == 2) == 16
    _passed(4, "k=3 n=12: 19 families, 16 pairs")


def test_criterion_5_dim8_example():
    t0 = time.monotonic()
    gamma, gamma_p = bieberbach.construct_main_pair(3, 8)
    assert betti_numbers(gamma.rep) == (1, 0, 4, 8, 6, 8, 4, 0, 1)
    assert betti_numbers(gamma_p.rep) == (1, 0, 4, 8, 6, 8, 4, 0, 1)
    assert primitive_counts(gamma.rep) == (1, 0, 4, 8, 0, 0, 0, 0, 0)
    assert primitive_counts(gamma_p.rep) == (1, 0, 4, 8, 3, 0, 0, 0, 0)

    l2 = invariant_span(gamma, [2])
    assert wedge_span(l2, l2) == invariant_span(gamma, [4])
    l2p = invariant_span(gamma_p, [2])
    square = wedge_span(l2p, l2p)
    assert square[4] == {(1, 2, 7, 8), (1, 3, 7, 8), (2, 3, 7, 8)}
    assert wedge_span(square, l2p) == {}

    assert lefschetz_multiplicities(betti_numbers(gamma.rep), 8) == \
        {5: 1, 3: 3, 2: 8, 1: 2}
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(5, f"8-dimensional pair invariants exact in {elapsed:.3f}s")


def test_criterion_6_dim7_example():
    t0 = time.monotonic()
    f, fp = bieberbach.construct_dim7_pair()
    assert betti_numbers(f.rep) == (1, 0, 1, 2, 1, 2, 1, 0)
    assert betti_numbers(fp.rep) == (1, 0, 1, 2, 1, 2, 1, 0)
    for p, want in goldens.DIM7_F_PRIMITIVE.items():
        assert set(primitive_basis(f.rep, p)) == want
    for p, want in goldens.DIM7_FP_PRIMITIVE.items():
        assert set(primitive_basis(fp.rep, p)) == want
    assert minimal_generator_count(f.rep) == 5
    assert minimal_generator_count(fp.rep) == 7

    assert bieberbach.is_sunada_isospectral(f, fp)
    # ground truth for the ambiguous published c[3,1] line: the tables computed
    # from the column data (two independent routes agree; c[3,2] = 1, c[3,1] = 2)
    halves = [(3, 5), (4, 5), (1, 5), (6,)]
    gamma_cols = ((1,), (1,), (2,), (3,), (4,), (2, 3), (2, 4))
    gammap_cols = ((1,), (1,), (2,), (3,), (4,), (1, 2), (2, 3, 4))
    assert sunada_from_columns(gamma_cols, halves, 4) == goldens.DIM7_SUNADA
    assert sunada_from_columns(gammap_cols, halves, 4) == goldens.DIM7_SUNADA
    assert bieberbach.sunada_table(f) == goldens.DIM7_SUNADA
    assert bieberbach.sunada_table(fp) == goldens.DIM7_SUNADA
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(6, f"7-dimensional pair exact in {elapsed:.3f}s; ambiguous published "
               "c[3,1] line resolved by the computed table (c[3,2]=1, c[3,1]=2)")


def test_criterion_7_family24():
    t0 = time.monotonic()
    groups = [bieberbach.construct_family24(j) for j in range(1, 9)]
    for g in groups:
        assert bieberbach.is_torsion_free(g).ok

    patterns = {pattern(g.rep.q) for g in groups}
    assert len(patterns) == 1
    nonzero = {s: c for s, c in enumerate(patterns.pop()) if c and s != 24}
    assert nonzero == {4: 1, 6: 1, 8: 1, 10: 1, 12: 1, 14: 1, 18: 1}

    # Published nonzero Sunada entries list t = 2 at s = 10 and s = 12, which
    # is unrealizable under the family's own fixed translation scheme (the
    # element carrying s = 10 varies with the member while t is per-element
    # constant); the computed entries put t = 2 at s = 18 only.
    expected = dict(goldens.FAMILY24_SUNADA_NONID)
    expected[(24, 0)] = 1
    for g in groups:
        assert bieberbach.sunada_table(g) == expected
    for a, b in itertools.combinations(groups, 2):
        assert bieberbach.is_sunada_isospectral(a, b)

    p4 = []
    for g in groups:
        p = primitive_counts(g.rep)
        assert p[2] == 64 and p[3] == 192
        p4.append(p[4])
    assert tuple(p4) == goldens.FAMILY24_P4

    classes = [kahler_class(g.rep) for g in groups]
    for j in (2, 4, 7, 8):
        assert classes[j - 1] == "kahler"
    for j in (1, 3, 5, 6):
        assert classes[j - 1] == "none"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passed(7, f"24-dimensional family exact in {elapsed:.3f}s; published "
               "c[10,2]/c[12,2] corrected to the computed c[10,1]/c[12,1]")


def test_criterion_8_pair_construction_sweep():
    t0 = time.monotonic()
    for k in (3, 4, 5):
        n_min = 3 * (1 << (k - 2)) + 1
        for n in range(n_min, n_min + 5):
            gamma, gamma_p = bieberbach.construct_main_pair(k, n)
            assert bieberbach.is_torsion_free(gamma).ok
            assert bieberbach.is_torsion_free(gamma_p).ok
            assert bieberbach.is_sunada_isospectral(gamma, gamma_p)

            p, pp = primitive_counts(gamma.rep), primitive_counts(gamma_p.rep)
            h = 1 << (k - 2)
            assert p[4] == 16 * h * (h - 1) * (h - 2) // 24
            assert pp[4] > p[4]
            if k > 3:
                assert pp[5] > p[5]
            assert p[k + 1] == 0
            assert pp[k + 1] > 0
            if n % 2 == 0:
                assert kahler_class(gamma.rep) == "kahler"
                assert kahler_class(gamma_p.rep) == "none"
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _passed(8, f"pair construction sweep k=3,4,5 x 5 dimensions in {elapsed:.2f}s")


# -- criterion 9: oracle-scale property suites ---------------------------------


def test_criterion_9a_betti_against_brute_force():
    rng = random.Random(901)
    for _ in range(500):
        k = rng.choice((1, 2, 3, 4))
        n = rng.randrange(max(k, 2), 15 - k)
        rep = random_rep(rng, k, n, q0_zero=False, faithful=True)
        assert betti_numbers(rep) == brute_betti(rep)
    _passed("9a", "betti DP == brute-force monomial count on 500 faithful reps")


def test_criterion_9b_flip_fuzz():
    rng = random.Random(902)
    done = tried = 0
    while done < 10_000:
        tried += 1
        k = rng.choice((2, 3, 4))
        size = 1 << k
        rep = random_rep(rng, k, rng.randrange(k, 12), q0_zero=False)
        g1 = rng.randrange(1, size)
        g2 = rng.randrange(1, size)
        if g1 == g2:
            continue
        out = apply_flip(rep, FlipSpec(g1, g2))
        if not out.applicable:
            continue
        done += 1
        before, after = fixed_dims(rep), fixed_dims(out.rep)
        assert after[g1] == before[g2]
        assert after[g2] == before[g1]
        for g in range(size):
            if g not in (g1, g2):
                assert after[g] == before[g]
        assert pattern(out.rep.q) == pattern(rep.q)
    _passed("9b", f"flip swap identity and pattern preservation on 10^4 "
                  f"applicable cases ({tried} sampled)")


def test_criterion_9c_betti_identities():
    rng = random.Random(903)
    checked_total = checked_euler = checked_dual = 0
    for _ in range(10_000):
        k = rng.choice((1, 2, 3))
        n = rng.randrange(max(k, 1), 15 - k)
        rep = random_rep(rng, k, n, q0_zero=rng.random() < 0.5)
        b = betti_numbers(rep)
        if is_faithful(rep):
            checked_total += 1
            assert sum(b) == 1 << (rep.n - rep.k)
        if min(fixed_dims(rep)) >= 1:
            checked_euler += 1
            assert sum((-1) ** p * v for p, v in enumerate(b)) == 0
        if is_orientable(rep):
            checked_dual += 1
            assert b == b[::-1]
    assert min(checked_total, checked_euler, checked_dual) > 500
    _passed("9c", f"sum/alternating-sum/duality on 10^4 reps "
                  f"({checked_total}/{checked_euler}/{checked_dual} applicable)")


def test_criterion_9d_kahler_obstruction_oracle():
    rng = random.Random(904)
    for _ in range(1_000):
        n = 2 * rng.randrange(1, 7)
        rep = random_rep(rng, rng.choice((1, 2, 3)), n, q0_zero=False)
        assert (kahler_class(rep) == "none") == (not brute_block_matching(rep))
    _passed("9d", "parity rule == exhaustive pair matching on 10^3 reps, n <= 12")


def test_criterion_9e_equivalence_invariants():
    rng = random.Random(905)
    for _ in range(500):
        k = rng.choice((2, 3, 4))
        rep = random_rep(rng, k, rng.randrange(k, 11), q0_zero=False)
        perms = automorphism_table(k)
        img = perms[rng.randrange(len(perms))]
        other = DiagonalRep(k, tuple(rep.q[img[m]] for m in range(1 << k)))
        assert are_equivalent(rep, other)
        assert pattern(rep.q) == pattern(other.q)
        assert betti_numbers(rep) == betti_numbers(other)
        assert primitive_counts(rep) == primitive_counts(other)
    _passed("9e", "automorphism images preserve pattern/Betti/P on 500 reps")


def test_criterion_9f_worker_determinism():
    results = {}
    for workers in (1, 4, 16):
        cfg = SearchConfig(k=3, n=10, workers=workers)
        fams = enumerate_families(cfg)
        results[workers] = (search.families_to_json(cfg, fams),
                            search.families_to_csv(fams),
                            search.families_to_text(fams))
    assert results[1] == results[4] == results[16]
    _passed("9f", "enumerate output byte-identical across workers {1, 4, 16}")
