import functools
import io
import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import goldens
from conftest import diagonal_reps, load_script
from oracles import (automorphism_table, class_levels_reference, families_from_json,
                     molien_betti)
from flatiso import diagrep, search
from flatiso.chargroup import display_order
from flatiso.cohomology import betti_numbers
from flatiso.diagrep import DiagonalRep, display_representative
from flatiso.errors import CapabilityError
from flatiso.cli import run
from flatiso.search import (TABLE_SPECS, SearchConfig, enumerate_families,
                            families_to_csv, families_to_json, families_to_text)


def families_as_rows(families, with_p5=False):
    out = []
    for f in families:
        rows = []
        for m in f.members:
            if with_p5:
                rows.append((list(m.display_q), m.prim[4], m.prim[5]))
            else:
                rows.append((list(m.display_q), m.prim[4]))
        out.append(rows)
    return out


def test_smallest_family():
    fams = enumerate_families(SearchConfig(k=3, n=7))
    assert len(fams) == 1
    assert [m.display_q for m in fams[0].members] == \
        [(3, 1, 1, 1, 0, 1, 0), (2, 2, 2, 1, 0, 0, 0)]
    assert [m.prim[4] for m in fams[0].members] == [3, 0]


@pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
def test_table1_exact(n):
    fams = enumerate_families(SearchConfig(k=3, n=n))
    got = goldens.normalized(families_as_rows(fams))
    assert got == goldens.normalized(goldens.TABLE1[n])


@pytest.mark.parametrize("n", [12, 13, 14, 15])
def test_table2_exact(n):
    fams = enumerate_families(SearchConfig(k=3, n=n, min_family_size=3))
    got = goldens.normalized(families_as_rows(fams))
    assert got == goldens.normalized(goldens.TABLE2[n])


def test_n12_family_census():
    fams = enumerate_families(SearchConfig(k=3, n=12))
    assert len(fams) == 19
    assert sum(1 for f in fams if f.size == 2) == 16


def test_family_members_pass_filters():
    for f in enumerate_families(SearchConfig(k=3, n=9)):
        for m in f.members:
            rep = DiagonalRep.from_display(3, m.display_q)
            assert rep.q[0] == 0
            assert diagrep.is_faithful(rep)
            assert not diagrep.contains_minus_identity(rep)


def test_family_members_pairwise_almost_conjugate_inequivalent():
    for f in enumerate_families(SearchConfig(k=3, n=10)):
        reps = [DiagonalRep.from_display(3, m.display_q) for m in f.members]
        for a, b in itertools.combinations(reps, 2):
            assert diagrep.pattern(a.q) == diagrep.pattern(b.q)
            assert not diagrep.are_equivalent(a, b)
        assert all(tuple(f.pattern) == diagrep.pattern(r.q) for r in reps)


def test_patterns_differ_across_families():
    fams = enumerate_families(SearchConfig(k=3, n=11))
    patterns = [f.pattern for f in fams]
    assert len(patterns) == len(set(patterns))


def q0_zero_vectors(k, n):
    """Every multiplicity vector of dimension n with q_0 = 0, by stars and bars."""
    size = 1 << k
    for combo in itertools.combinations(range(n + size - 2), size - 2):
        parts = [0]
        prev = -1
        for c in combo + (n + size - 2,):
            parts.append(c - prev - 1)
            prev = c
        yield tuple(parts)


def class_count_oracle(k, n):
    """Independent tally: every vector with q_0 = 0, deduplicated by marking
    its whole orbit from the full automorphism table, then filtered."""
    perms = automorphism_table(k)
    seen = set()
    count = 0
    for q in q0_zero_vectors(k, n):
        if q in seen:
            continue
        seen.update(map(tuple, np.array(q)[perms].tolist()))
        rep = DiagonalRep(k, q)
        count += diagrep.is_faithful(rep) and not diagrep.contains_minus_identity(rep)
    return count


@pytest.mark.parametrize("k, n", [pytest.param(3, n, id=str(n)) for n in (8, 9, 10)]
                         + [pytest.param(4, n, id=f"k4-{n}") for n in (6, 7)])
def test_class_count_matches_direct_tally(k, n):
    fams = enumerate_families(SearchConfig(k=k, n=n, min_family_size=1))
    assert sum(f.size for f in fams) == class_count_oracle(k, n)


def burnside_class_counts(k, n_max):
    """Orbit counts of relabeling on the vectors with q_0 = 0, for dimensions
    1..n_max, by Burnside's lemma over the cycle index of the full
    automorphism table: a map fixes the vectors constant on its cycles."""
    perms = automorphism_table(k).tolist()
    cycle_types = Counter()
    for img in perms:
        lengths, done = [], {0}
        for m in range(1, 1 << k):
            size = 0
            while m not in done:
                done.add(m)
                m, size = img[m], size + 1
            if size:
                lengths.append(size)
        cycle_types[tuple(sorted(lengths))] += 1
    total = [0] * (n_max + 1)
    for lengths, count in cycle_types.items():
        fixed = [1] + [0] * n_max       # series of prod 1 / (1 - t^l)
        for length in lengths:
            for i in range(length, n_max + 1):
                fixed[i] += fixed[i - length]
        total = [t + count * f for t, f in zip(total, fixed)]
    assert all(t % len(perms) == 0 for t in total)
    return [t // len(perms) for t in total[1:]]


@pytest.mark.parametrize("k, n_max", [(3, 12), (4, 10)])
def test_class_levels_match_burnside_counts(k, n_max):
    got = [len(classes) for _, classes in search.class_levels(k, n_max)]
    assert got == burnside_class_counts(k, n_max)
    if k == 4:
        assert got[8:] == [200, 372]


def test_worker_counts_do_not_change_output():
    for k, n, workers in ((3, 10, 4), (4, 9, 2)):
        cfg1 = SearchConfig(k=k, n=n, workers=1)
        cfgw = SearchConfig(k=k, n=n, workers=workers)
        f1, fw = enumerate_families(cfg1), enumerate_families(cfgw)
        assert f1 == fw
        assert families_to_json(cfg1, f1) == families_to_json(cfgw, fw)


@functools.lru_cache(maxsize=None)
def reference_levels(k, n_max):
    return class_levels_reference(k, n_max)


@pytest.mark.parametrize("k, n_max", [(3, 14), (4, 10), (5, 9)])
def test_class_levels_match_memo_free_reference(k, n_max):
    # every level, with verdicts memoized by order type, against one
    # canonicity test per candidate; k = 5 checks the parent-side singleton
    # check's bit arithmetic on 5-bit masks
    want = reference_levels(k, n_max)
    got = list(search.class_levels(k, n_max))
    assert [n for n, _ in got] == list(range(1, n_max + 1))
    assert [level for _, level in got] == want


def greedy_singletons(k, y):
    return not any(y[1 << j] < max(y[1 << j:]) for j in range(k))


@given(diagonal_reps(max_k=5, max_n=12, q0_zero=True))
@settings(max_examples=60)
def test_parent_side_singleton_check_matches_child_check(rep):
    # every candidate of a display representative x, from its last nonzero
    # display position on: the check read off x agrees with the child's own
    k, x = rep.k, display_representative(rep).q
    order = display_order(k)
    last = max(i for i, m in enumerate(order) if x[m])
    for c in order[last:]:
        y = x[:c] + (x[c] + 1,) + x[c + 1:]
        assert search._keeps_singletons(x, c) == greedy_singletons(k, y)


@pytest.mark.parametrize("k, n_max, classes, tests", [(3, 18, 4296, 419), (4, 9, 423, 246)])
def test_canonicity_tests_only_see_greedy_singletons(monkeypatch, k, n_max, classes, tests):
    # the parent-side check leaves the canonicity test no candidate it would
    # reject at its own first check; the counts pin the tests one call runs
    seen = []
    test = diagrep.display_automorphisms

    def counted(rank, y, seeds=()):
        seen.append(y)
        return test(rank, y, seeds)

    monkeypatch.setattr(diagrep, "display_automorphisms", counted)
    assert sum(len(level) for _, level in search.class_levels(k, n_max)) == classes
    assert len(seen) == tests
    assert all(greedy_singletons(k, y) for y in seen)


def generated_group(gens, size):
    """Every product of the permutations gens, each a list of images."""
    identity = tuple(range(size))
    group, frontier = {identity}, [identity]
    while frontier:
        h = frontier.pop()
        for g in gens:
            gh = tuple(g[m] for m in h)
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    return group


@pytest.mark.parametrize("k", [2, 3, 4])
def test_display_automorphisms_generate_the_stabilizer(k):
    # every class of dimension <= 10: the automorphisms the canonicity test
    # returns generate every relabelling that fixes q, found by brute force
    table = automorphism_table(k)
    for level in reference_levels(k, 10):
        for q in level:
            fixing = table[(np.array(q)[table] == q).all(axis=1)]
            assert generated_group(diagrep.display_automorphisms(k, q), 1 << k) == \
                set(map(tuple, fixing.tolist()))


@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 10), (4, 10), (5, 8)])
def test_seeded_canonicity_tests_match_unseeded(k, n_max):
    # every candidate child y = x + e_c of every class x, seeded as
    # class_levels seeds it, from the automorphisms x's own seeded test
    # returned: the verdict is the unseeded one, and at k <= 4 the seeds and
    # the automorphisms found still generate the whole stabilizer of y
    table = automorphism_table(k) if k <= 4 else None
    order, size = display_order(k), 1 << k
    types = {(0,) * size: search._Type([])}
    for level in reference_levels(k, n_max):
        for y in level:
            x, c = next((y[:c] + (y[c] - 1,) + y[c + 1:], c)
                        for c in reversed(order) if y[c])
            got = diagrep.display_automorphisms(k, y, search._seeds(types[x].autos, c, size))
            assert got is not None
            types[y] = search._Type(got)
            if table is not None:
                fixing = table[(np.array(y)[table] == y).all(axis=1)]
                assert generated_group(got, size) == set(map(tuple, fixing.tolist()))
        for x in level:
            last = max(i for i, m in enumerate(order) if x[m])
            for c in order[last:]:
                y = x[:c] + (x[c] + 1,) + x[c + 1:]
                seeded = diagrep.display_automorphisms(k, y, search._seeds(types[x].autos, c, size))
                assert (seeded is None) == (diagrep.display_automorphisms(k, y) is None)


@pytest.mark.parametrize("k, n_max", [(3, 14), (4, 10), (5, 9)])
def test_children_blocked_by_the_parent_are_rejected(k, n_max):
    # every child x + e_c, for any c, that the parent's automorphisms block
    # is rejected by the canonicity test; and blocking does drop some
    dropped = 0
    for level in reference_levels(k, n_max):
        for x in level:
            blocked = search._blocked(k, diagrep.display_automorphisms(k, x))
            for c in range(1, 1 << k):
                if blocked >> c & 1:
                    dropped += 1
                    y = x[:c] + (x[c] + 1,) + x[c + 1:]
                    assert diagrep.display_automorphisms(k, y) is None
    assert dropped > 0


@pytest.mark.parametrize("k, n_max", [(2, 10), (3, 10), (4, 10), (5, 8)])
def test_order_type_transitions_are_functions(k, n_max):
    # every candidate x + e_c of every class x, the zero vector included:
    # the child's order type is one value per (order type of x, c, merge),
    # and x's candidate list, from the singleton check on each child and
    # the blocking by x's automorphisms, one value per order type of x
    order = display_order(k)
    steps, lists, candidates = {}, {}, 0
    for level in [[(0,) * (1 << k)]] + reference_levels(k, n_max)[:-1]:
        for x in level:
            key = diagrep.order_type(x)
            blocked = search._blocked(k, diagrep.display_automorphisms(k, x))
            last = max((i for i, m in enumerate(order) if x[m]), default=1)
            cands = []
            for c in order[last:]:
                y = x[:c] + (x[c] + 1,) + x[c + 1:]
                got = diagrep.order_type(y)
                assert steps.setdefault((key, c, x[c] + 1 in x), got) == got
                if greedy_singletons(k, y) and not blocked >> c & 1:
                    cands.append(c)
            assert lists.setdefault(key, cands) == cands
            candidates += len(order) - last
    assert len(steps) < candidates


@pytest.mark.parametrize("k, dims", [(3, range(7, 15)), (4, range(7, 10))])
def test_family_members_carry_their_own_pattern_and_betti(k, dims):
    # min_family_size=1 keeps every class the Walsh filter passes: exactly
    # the faithful classes without -Id, each with its own pattern and the
    # Betti numbers of that pattern
    levels = dict(search.class_levels(k, dims[-1]))
    for n in dims:
        fams = enumerate_families(SearchConfig(k=k, n=n, min_family_size=1))
        reps = {m.display_q: (f, m) for f in fams for m in f.members}
        kept = [DiagonalRep(k, q) for q in levels[n]]
        kept = [rep for rep in kept
                if diagrep.is_faithful(rep) and not diagrep.contains_minus_identity(rep)]
        assert sorted(reps) == sorted(rep.to_display() for rep in kept)
        for rep in kept:
            fam, member = reps[rep.to_display()]
            assert fam.pattern == diagrep.pattern(rep.q)
            assert member.betti == betti_numbers(rep) == molien_betti(fam.pattern, k)


def test_json_round_trip():
    cfg = SearchConfig(k=3, n=9)
    fams = enumerate_families(cfg)
    assert families_from_json(families_to_json(cfg, fams)) == fams


def test_json_range_payload():
    cfg = SearchConfig(k=3, n=7, n_max=8)
    fams = enumerate_families(cfg)
    text = families_to_json(cfg, fams)
    assert text.lstrip().startswith("[")
    assert families_from_json(text) == fams


def test_csv_output():
    fams = enumerate_families(SearchConfig(k=3, n=7))
    lines = families_to_csv(fams).splitlines()
    assert lines[0] == "k,n,family,q,P2,P3,P4,betti"
    assert len(lines) == 3
    assert '"3,1,1,1,0,1,0"' in lines[1]


def test_text_output_contains_p_columns():
    fams = enumerate_families(SearchConfig(k=3, n=7))
    text = families_to_text(fams)
    assert "n = 7" in text and "P4=3" in text
    fams4 = enumerate_families(SearchConfig(k=4, n=7))
    assert "P5=2" in families_to_text(fams4)


def test_reproduce_table_1():
    fams = enumerate_families(SearchConfig(**TABLE_SPECS[1]))
    text = families_to_text(fams)
    assert {f.n for f in fams} == set(range(7, 12))
    assert "n = 11" in text
    by_n = {n: [f for f in fams if f.n == n] for n in range(7, 12)}
    assert [len(by_n[n]) for n in range(7, 12)] == [1, 2, 5, 8, 16]


def test_reproduce_table_bad_id():
    out, err = io.StringIO(), io.StringIO()
    assert run(["tables", "--id", "4"], stdout=out, stderr=err) == 2
    assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_flip_coverage_table1_pairs_connected():
    census = load_script("family_census")
    fams = enumerate_families(SearchConfig(k=3, n=7, n_max=9))
    for flags in census.flip_coverage_report(fams):
        assert all(flags.values())


def test_flip_coverage_counterexamples():
    one_flip_reachable = load_script("family_census").one_flip_reachable
    a = DiagonalRep.from_display(3, (5, 3, 1, 1, 1, 1, 0))
    b = DiagonalRep.from_display(3, (4, 3, 3, 2, 0, 0, 0))
    assert diagrep.pattern(a.q) == diagrep.pattern(b.q)
    assert not one_flip_reachable(a, b)
    c = DiagonalRep.from_display(4, goldens.TABLE3[7][0][0][0])
    d = DiagonalRep.from_display(4, goldens.TABLE3[7][0][1][0])
    assert not one_flip_reachable(c, d)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(k=0, n=5)
    with pytest.raises(ValueError):
        SearchConfig(k=3, n=2)
    with pytest.raises(ValueError):
        SearchConfig(k=3, n=9, n_max=8)
    with pytest.raises(ValueError):
        SearchConfig(k=3, n=9, workers=0)
    with pytest.raises(CapabilityError):
        SearchConfig(k=6, n=50)
    with pytest.raises(CapabilityError):
        SearchConfig(k=5, n=10)


def test_composition_budget(monkeypatch):
    monkeypatch.setattr(search, "CLASS_BUDGET", 10)
    with pytest.raises(CapabilityError):
        enumerate_families(SearchConfig(k=3, n=9))


def test_class_budget_is_a_floor_the_generator_meets():
    for k, n_max in ((3, 12), (4, 10)):
        counts = burnside_class_counts(k, n_max)
        assert all(search._least_class_count(k, n) <= c for n, c in enumerate(counts, 1))
    assert search._least_class_count(4, 16) <= search.CLASS_BUDGET
    with pytest.raises(CapabilityError, match="budget"):
        enumerate_families(SearchConfig(k=4, n=21))


def test_families_sorted_within_dimension():
    fams = enumerate_families(SearchConfig(k=3, n=9, n_max=10))
    for n in (9, 10):
        leads = [f.members[0].display_q for f in fams if f.n == n]
        assert leads == sorted(leads, reverse=True)
    assert [f.n for f in fams] == sorted(f.n for f in fams)
