import functools
import itertools
import random

import pytest

from schreier import ordinals as o
from schreier.families import (Compose, EmptyFamily, EmptySetOnly,
                               Family, Image, LazySet, Preimage, ProbeLimitError,
                               UnionFamily, adm_family, cb_probe_rank,
                               cb_symbolic, check_finset, check_limit_inclusion,
                               check_regularity, enumerate_restriction,
                               enumerate_within, family_from_spec,
                               feasible_depth, is_maximal, is_member,
                               max_initial_segment, max_member_sum, partition,
                               partition_blocks, partition_indices,
                               schreier_family, set_from_spec,
                               truncation_maximal)

from conftest import CURSOR_STAGES, sample_lazy_sets
from oracles import (brute_compose_member, brute_ordinal_member,
                     brute_schreier_member)

S0 = schreier_family(o.ZERO)
S1 = schreier_family(o.ONE)
S2 = schreier_family(o.from_int(2))


def all_subsets(n):
    base = range(1, n + 1)
    for r in range(n + 1):
        yield from itertools.combinations(base, r)


# -- membership --------------------------------------------------------------


def test_membership_examples():
    assert is_member((2, 4), S1)
    assert is_member((), EmptySetOnly())
    assert is_member((), S2)
    assert is_member((3, 4, 5), S2)
    assert not is_member((1, 2), S1)
    assert not is_member((), EmptyFamily())
    # |E| <= min E splits into singleton blocks at the first successor
    # step, so E is a member at every stage >= 1; the walk down these
    # fundamental sequences stays off the recursion limit
    for xi, e in (("w+1", (30, 31, 33)), ("w*2", (40, 45, 50, 60)),
                  ("w^2", (60, 61, 62))):
        assert is_member(e, schreier_family(o.parse(xi))), (xi, e)


def test_stage_zero_is_singletons():
    for e in all_subsets(6):
        assert S0.contains(e) == (len(e) <= 1)
        assert S0.contains(e) == adm_family(1).contains(e)


def test_greedy_matches_bruteforce_decomposition():
    for level, fam in ((0, S0), (1, S1), (2, S2)):
        for e in all_subsets(12):
            assert fam.contains(e) == brute_schreier_member(level, e), \
                (level, e)


def _fold(fam, e):
    """(elements consumed before the cursor closed, final state)."""
    state, count = fam.start(), 0
    for v in e:
        if state is None:
            break
        state = fam.step(state, v)
        count += 1
    return count, state


def test_cursor_fold_matches_bruteforce_decomposition():
    for xi in CURSOR_STAGES:
        stage = o.parse(xi)
        fam = schreier_family(stage)
        for e in all_subsets(10):
            member = _fold(fam, e)[0] == len(e)
            assert member == brute_ordinal_member(stage, e), (xi, e)


def test_cursor_state_decides_one_point_extensions():
    """A member's state is closed exactly when no one-point extension
    within {1..12} is a member (membership read from the fold)."""
    for xi in CURSOR_STAGES:
        fam = schreier_family(o.parse(xi))
        for e in all_subsets(12):
            count, state = _fold(fam, e)
            if count != len(e) or (e and e[-1] == 12):
                continue
            extends = any(_fold(fam, e + (v,))[0] == len(e) + 1
                          for v in range(e[-1] + 1 if e else 1, 13))
            assert (state is not None) == extends, (xi, e)


def test_finset_validation():
    with pytest.raises(ValueError):
        check_finset((3, 3))
    with pytest.raises(ValueError):
        check_finset((0, 1))
    with pytest.raises(ValueError):
        check_finset((2, 1))


# -- maximality and partitions ------------------------------------------------


def test_maximality_examples():
    assert is_maximal((2, 4), S1)
    assert not is_maximal((2,), S1)
    assert is_maximal((1,), S1)
    with pytest.raises(ValueError):
        is_maximal((1, 2), S1)
    with pytest.raises(ValueError):
        is_maximal((), S1)


def test_max_initial_segment_examples():
    assert max_initial_segment(LazySet.arithmetic(2, 2), S1) == (2, 4)
    assert max_initial_segment(LazySet.naturals(), adm_family(3)) == (1, 2, 3)
    assert max_initial_segment(LazySet.arithmetic(1, 4), S1) == (1,)


def test_max_initial_segment_rejects_non_nice():
    with pytest.raises(ValueError):
        max_initial_segment(LazySet.naturals(), EmptySetOnly())


def test_partition_examples():
    assert partition(LazySet.arithmetic(2, 2), S1, 2) == (6, 8, 10, 12, 14, 16)
    for n in range(1, 6):
        assert partition(LazySet.naturals(), S0, n) == (n,)
    assert partition(LazySet.naturals(), adm_family(2), 2) == (3, 4)
    assert partition_indices(LazySet.arithmetic(2, 2), S1, 2) == (3, 4, 5, 6, 7, 8)


def test_partition_blocks_cover_prefix():
    for m in sample_lazy_sets(8):
        for fam in (S1, adm_family(3)):
            count = feasible_depth(m, fam, 6, budget=200)
            if count == 0:
                continue
            blocks = partition_blocks(m, fam, count)
            flat = [v for b in blocks for v in b]
            assert flat == list(m.prefix(len(flat)))
            for b in blocks:
                assert is_maximal(b, fam)
            for a, b in zip(blocks, blocks[1:]):
                assert a[-1] < b[0]


def test_probe_limit_is_enforced():
    with pytest.raises(ProbeLimitError):
        partition(LazySet.naturals(), S2, 5, probe_limit=100)


def test_feasible_depth_caps_hyperexponential_blocks():
    assert feasible_depth(LazySet.naturals(), S1, 5, budget=2000) == 5
    d = feasible_depth(LazySet.naturals(), S2, 5, budget=2500)
    assert d == 3  # blocks {1},{2..7},{8..2047}; the fourth needs ~2048*2^2048
    assert feasible_depth(LazySet.naturals(),
                          schreier_family(o.parse("w^2")), 5, budget=2000) == 1
    # blocks {1},{2..2047}; the third starts at 2048 at stage 2049
    assert feasible_depth(LazySet.naturals(), schreier_family(o.OMEGA), 8,
                          budget=5000) == 2


# -- composition, image, preimage ---------------------------------------------


def test_compose_matches_cardinality_product():
    c = Compose(adm_family(2), adm_family(3))
    a6 = adm_family(6)
    for e in all_subsets(10):
        assert c.contains(e) == a6.contains(e), e


def test_compose_identity_and_empty():
    c = Compose(adm_family(4), adm_family(1))
    for e in all_subsets(10):
        assert c.contains(e) == adm_family(4).contains(e)
    for side in (Compose(EmptyFamily(), S1), Compose(S1, EmptyFamily())):
        assert not side.contains(())
        assert not side.contains((1,))


def _cached(pred):
    return functools.lru_cache(maxsize=None)(pred)


def _stage_pred(xi):
    return _cached(lambda e: brute_ordinal_member(xi, e))


def _adm_pred(n):
    return lambda e: len(e) <= n


def _union_pred(a, b):
    return lambda e: a(e) or b(e)


def _preimage_pred(f, fn):
    return _cached(lambda e: f(tuple(fn(i) for i in e)))


def _image_pred(f, fn):
    index = {fn(i): i for i in range(1, 64)}
    return _cached(lambda e: all(v in index for v in e)
                   and f(tuple(index[v] for v in e)))


def _compose_pred(a, b):
    return _cached(lambda e: brute_compose_member(a, b, e))


def _double(i):
    return 2 * i


def _odd_from_three(i):
    return 2 * i + 1


def _composition_cases():
    """(library family, independent membership predicate) pairs."""
    s1, s2, sw = _stage_pred(o.ONE), _stage_pred(o.from_int(2)), \
        _stage_pred(o.OMEGA)
    empty, only_empty = (lambda e: False), (lambda e: not e)
    evens, odds = LazySet.arithmetic(2, 2), LazySet.arithmetic(3, 2)
    c22 = _compose_pred(_adm_pred(2), s1)
    return [
        (Compose(adm_family(2), adm_family(3)),
         _compose_pred(_adm_pred(2), _adm_pred(3))),
        (Compose(S1, S1), _compose_pred(s1, s1)),
        (Compose(S1, adm_family(2)), _compose_pred(s1, _adm_pred(2))),
        (Compose(S0, S2), _compose_pred(_stage_pred(o.ZERO), s2)),
        (Compose(schreier_family(o.OMEGA), adm_family(2)),
         _compose_pred(sw, _adm_pred(2))),
        (Compose(adm_family(2), Compose(adm_family(2), S1)),
         _compose_pred(_adm_pred(2), c22)),
        (Compose(Compose(S1, adm_family(1)), S1),
         _compose_pred(_compose_pred(s1, _adm_pred(1)), s1)),
        (Compose(UnionFamily(S1, adm_family(3)), adm_family(2)),
         _compose_pred(_union_pred(s1, _adm_pred(3)), _adm_pred(2))),
        (Compose(adm_family(2), UnionFamily(S1, adm_family(3))),
         _compose_pred(_adm_pred(2), _union_pred(s1, _adm_pred(3)))),
        (Compose(Preimage(S1, evens), adm_family(2)),
         _compose_pred(_preimage_pred(s1, _double), _adm_pred(2))),
        (Compose(adm_family(3), Preimage(S1, odds)),
         _compose_pred(_adm_pred(3), _preimage_pred(s1, _odd_from_three))),
        (Compose(Image(S1, evens), adm_family(2)),
         _compose_pred(_image_pred(s1, _double), _adm_pred(2))),
        (Compose(EmptyFamily(), S1), _compose_pred(empty, s1)),
        (Compose(S1, EmptyFamily()), _compose_pred(s1, empty)),
        (Compose(UnionFamily(EmptyFamily(), EmptyFamily()), S1),
         _compose_pred(_union_pred(empty, empty), s1)),
        (Compose(adm_family(2), EmptySetOnly()),
         _compose_pred(_adm_pred(2), only_empty)),
        (Compose(adm_family(0), S1), _compose_pred(_adm_pred(0), s1)),
    ]


def test_compose_matches_exhaustive_split_search():
    """The greedy cursor (and, under an image, the library's own split
    search) agrees with an exhaustive split search on every subset."""
    for fam, want in _composition_cases():
        for e in all_subsets(12):
            assert fam.contains(e) == want(e), (fam.spec(), e)


def test_image_preimage_examples():
    evens = LazySet.arithmetic(2, 2)
    img = Image(S1, evens)
    assert img.contains((4, 8))       # preindices (2, 4)
    assert not img.contains((3, 4))   # 3 is not in the stream
    ident = Image(S1, LazySet.naturals())
    for e in all_subsets(8):
        assert ident.contains(e) == S1.contains(e)
    pre = Preimage(S1, evens)
    for e in all_subsets(8):
        assert pre.contains(e) == S1.contains(tuple(2 * v for v in e))


def test_image_then_preimage_roundtrip_keeps_membership():
    m = LazySet.arithmetic(3, 3)
    img = Image(S1, m)
    pre = Preimage(img, m)
    for e in all_subsets(8):
        if S1.contains(e):
            assert pre.contains(e)


def test_preimage_partition_uses_fast_path():
    pre = Preimage(S1, LazySet.arithmetic(2, 2))
    # translated minima double, so block lengths follow the doubled values
    assert max_initial_segment(LazySet.naturals(), pre) == (1, 2)


# -- enumeration and regularity -----------------------------------------------


def test_enumerate_restriction_examples():
    got = enumerate_restriction(S1, 4)
    assert got == [(), (1,), (2,), (3,), (2, 3), (4,), (2, 4), (3, 4)]
    assert enumerate_restriction(adm_family(1), 3) == [(), (1,), (2,), (3,)]
    assert enumerate_restriction(EmptyFamily(), 5) == []


def test_enumerate_restriction_matches_filter():
    for fam in (S1, S2, adm_family(3), Compose(adm_family(2), S1)):
        got = set(enumerate_restriction(fam, 9))
        want = {e for e in all_subsets(9) if fam.contains(e)}
        assert got == want


def test_enumerate_within():
    got = set(enumerate_within(S1, (4, 8, 15, 16)))
    want = {e for r in range(5) for e in
            itertools.combinations((4, 8, 15, 16), r) if S1.contains(e)}
    assert got == want


def test_truncation_maximal():
    sets = truncation_maximal(S1, 5)
    assert (1,) in sets
    assert (2, 3) in sets
    assert (5,) in sets  # nothing above 5 remains in range
    assert (4, 5) in sets
    assert (2,) not in sets  # extends to (2, 3)


def test_check_regularity_grammar_families():
    for fam in (S1, S2, adm_family(2), Compose(adm_family(2), S1),
                UnionFamily(S1, adm_family(3)),
                Preimage(S1, LazySet.arithmetic(2, 2))):
        report = check_regularity(fam, 10)
        assert report.ok, (fam, report.hereditary_counterexamples,
                           report.spreading_counterexamples)
        assert report.compactness == "not checked"


class RawSet(Family):
    """A non-closed family used to exercise counterexample reporting."""

    def __init__(self, members):
        super().__init__()
        self.members = {tuple(m) for m in members}

    def _contains(self, e):
        return tuple(e) in self.members


def test_check_regularity_counterexamples():
    report = check_regularity(RawSet([(), (1,)]), 5)
    assert not report.spreading
    assert ((1,), (2,)) in report.spreading_counterexamples
    report2 = check_regularity(RawSet([(), (1, 2), (1,)]), 5)
    assert not report2.hereditary  # (2,) is missing


def test_image_families_are_not_spreading():
    img = Image(S1, LazySet.arithmetic(2, 2))
    report = check_regularity(img, 8)
    assert not report.spreading


# -- ranks ---------------------------------------------------------------------


def test_cb_symbolic_examples():
    assert cb_symbolic(adm_family(4)).value == o.from_int(5)
    assert cb_symbolic(S2).value == o.parse("w^2+1")
    c = Compose(adm_family(2), adm_family(3))
    assert cb_symbolic(c).value == o.from_int(7)
    assert cb_symbolic(EmptyFamily()).value == o.ZERO
    assert cb_symbolic(EmptySetOnly()).value == o.ONE
    assert cb_symbolic(schreier_family(o.ZERO)).value == o.parse("w^0+1")
    sym = cb_symbolic(Compose(S1, S2))
    assert sym.value == o.parse("w^(2+1)+1") == o.parse("w^3+1")


def test_cb_symbolic_preimage_exact_image_bound():
    evens = LazySet.arithmetic(2, 2)
    pre = cb_symbolic(Preimage(S1, evens))
    assert pre.exact and pre.value == o.parse("w+1")
    img = cb_symbolic(Image(S1, evens))
    assert not img.exact and img.value == o.parse("w+1")
    assert cb_symbolic(UnionFamily(S1, adm_family(3))).value == o.parse("w+1")


def test_cb_probe_examples():
    assert cb_probe_rank((), adm_family(3), 10) == 3
    assert cb_probe_rank((5,), S1, 50) == 4
    assert cb_probe_rank((2, 4), S1, 50) == 0  # maximal member
    with pytest.raises(ValueError):
        cb_probe_rank((1, 2), S1, 10)


def test_cb_probe_matches_extension_recursion():
    """The quadratic scan equals the literal extension recursion."""
    def recursive_rank(e, fam, n):
        best = -1
        for m in range(e[-1] + 1 if e else 1, n + 1):
            ext = e + (m,)
            if fam.contains(ext):
                best = max(best, recursive_rank(ext, fam, n))
        return best + 1

    fams = [S1, adm_family(3), Compose(adm_family(2), adm_family(2))]
    for fam in fams:
        for e in all_subsets(5):
            if fam.contains(e):
                assert cb_probe_rank(e, fam, 9) == recursive_rank(e, fam, 9)


def test_limit_stage_inclusions_hold_on_truncations():
    for lam, n in ((o.OMEGA, 1), (o.OMEGA, 2), (o.parse("w^2"), 1),
                   (o.parse("w^2"), 2), (o.parse("w*2"), 1)):
        assert check_limit_inclusion(lam, n, 10) == []


# -- specs ----------------------------------------------------------------------


def test_family_spec_roundtrip():
    specs = [
        {"type": "schreier", "xi": "w^2"},
        {"type": "adm", "n": 3},
        {"type": "compose", "outer": {"type": "adm", "n": 2},
         "inner": {"type": "schreier", "xi": "1"}},
        {"type": "preimage", "family": {"type": "schreier", "xi": "1"},
         "set": {"kind": "arith", "start": 2, "step": 2}},
        {"type": "union", "left": {"type": "adm", "n": 1},
         "right": {"type": "singleton-empty"}},
        {"type": "empty"},
    ]
    for spec in specs:
        fam = family_from_spec(spec)
        assert isinstance(fam, Family)
    with pytest.raises(ValueError):
        family_from_spec({"type": "nope"})


def test_set_spec_kinds():
    s = set_from_spec({"kind": "arith", "start": 2, "step": 2})
    assert s.prefix(3) == (2, 4, 6)
    s = set_from_spec({"kind": "list-prefix", "prefix": [1, 5, 9],
                       "tail_step": 2})
    assert s.prefix(5) == (1, 5, 9, 11, 13)
    s = set_from_spec({"kind": "geom", "base": 4})
    assert s.prefix(3) == (4, 16, 64)


def test_lazyset_contracts():
    s = LazySet.naturals()
    assert s.value(5) == 5 and s.consumed == 5
    assert s.contains(3) and not LazySet.arithmetic(2, 2).contains(3)
    assert s.index_of(4) == 4
    r = s.remove_finite({2, 4})
    assert r.prefix(4) == (1, 3, 5, 6)
    with pytest.raises(ValueError):
        LazySet(iter([3, 2]), "bad").prefix(2)


@pytest.mark.parametrize("spec", [
    {"kind": "arith", "start": 3, "step": 4},
    {"kind": "list-prefix", "prefix": [2, 3, 7, 20], "tail_step": 3},
    {"kind": "geom", "base": 3}])
def test_lazyset_index_of_matches_the_prefix_position(spec):
    # queried out of order, so some answers come from an already cached
    # prefix and some extend it
    s = set_from_spec(spec)
    values = s.prefix(12)
    fresh = set_from_spec(spec)
    queries = set(range(1, 30)) | {v + d for v in values for d in (-1, 0, 1)}
    for v in sorted(queries, key=lambda v: (v * 7919) % 101):
        want = values.index(v) + 1 if v in values else None
        assert fresh.index_of(v) == want, (spec, v)
        assert fresh.contains(v) == (want is not None), (spec, v)
    assert fresh.consumed == 13


def test_lazyset_views_are_freed_without_the_cycle_collector():
    import gc
    import weakref
    gc.disable()
    try:
        s = LazySet.arithmetic(2, 3)
        d = s.remove_finite({2, 5}).remove_finite({8})
        assert d.prefix(3) == (11, 14, 17) and d.root is s and s.root is s
        refs = [weakref.ref(s), weakref.ref(d)]
        del s, d
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_fast_max_segment_agrees_with_generic_probe():
    """Spot-check of composite niceness: the cursor-stepped segment
    matches one-point grow-and-test on stream prefixes."""
    def generic(m, fam):
        k = 1
        while True:
            e = m.prefix(k)
            assert fam.contains(e), "family not nice on this stream"
            if not fam.contains(e + (m.value(k + 1),)):
                return e
            k += 1

    fams = [S1, S2, schreier_family(o.OMEGA), adm_family(3),
            Compose(adm_family(2), S1), Compose(S1, S1),
            Compose(adm_family(2), Compose(adm_family(2), S1)),
            Preimage(S1, LazySet.arithmetic(2, 2)),
            UnionFamily(S1, adm_family(3)),
            UnionFamily(adm_family(2), EmptySetOnly()),
            Compose(UnionFamily(S1, adm_family(3)), adm_family(2)),
            Compose(S1, UnionFamily(adm_family(1), S1)),
            Compose(Preimage(S1, LazySet.arithmetic(2, 2)), S1),
            Compose(adm_family(2), Preimage(S1, LazySet.arithmetic(3, 2)))]
    for fam in fams:
        for m in sample_lazy_sets(8):
            if feasible_depth(m, fam, 1, budget=400) == 0:
                continue
            assert max_initial_segment(m, fam) == generic(m, fam), \
                (fam.spec(), m.describe)


def _preorder_best(fam, keys, masses):
    """The include-first preorder's first member of largest mass, by
    visiting every subset of keys."""
    best, best_set = 0, ()

    def visit(i, chosen, total):
        nonlocal best, best_set
        if fam.contains(chosen) and total > best:
            best, best_set = total, chosen
        for j in range(i, len(keys)):
            visit(j + 1, chosen + (keys[j],), total + masses[j])

    visit(0, (), 0)
    return best, best_set


def test_max_member_sum_matches_brute_enumeration():
    rng = random.Random(13)
    fams = [adm_family(0), adm_family(3), S1, S2,
            Compose(adm_family(2), S1), Compose(S1, adm_family(2)),
            Compose(adm_family(2), UnionFamily(S1, adm_family(3))),
            UnionFamily(S1, adm_family(3)),
            UnionFamily(EmptyFamily(), adm_family(2)),
            Preimage(S1, LazySet.arithmetic(2, 2)), EmptyFamily(),
            EmptySetOnly()]
    for trial in range(60):
        keys = tuple(sorted(rng.sample(range(1, 40), rng.randint(0, 10))))
        # small masses make ties common, so the tie rule is exercised
        masses = [rng.randint(1, 4) for _ in keys]
        for fam in fams:
            got = max_member_sum(fam, keys, masses)
            assert got == _preorder_best(fam, keys, masses), \
                (fam.spec(), keys, masses)


def test_limit_stage_membership_matches_finite_delegation():
    """Limit stages delegate to the finite stage picked by the minimum."""
    s_omega = schreier_family(o.OMEGA)
    for e in all_subsets(9):
        if not e:
            assert s_omega.contains(e)
            continue
        assert s_omega.contains(e) == brute_schreier_member(e[0] + 1, e), e
    for xi in ("w+1", "w*2", "w^2"):
        stage = o.parse(xi)
        fam = schreier_family(stage)
        for e in all_subsets(9):
            assert fam.contains(e) == brute_ordinal_member(stage, e), (xi, e)


def test_lazyset_concurrent_readers():
    import threading
    s = LazySet.naturals()
    results = []

    def worker():
        results.append(s.prefix(500))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == tuple(range(1, 501)) for r in results)


def test_cb_probe_on_image_families_uses_literal_recursion():
    # images are not spreading; the right-packed scan would undercount
    img = Image(adm_family(3), LazySet.arithmetic(2, 2))
    assert not img.is_spreading_by_construction()
    assert cb_probe_rank((), img, 10) == 3  # chain {2} -> {2,4} -> {2,4,6}
    assert cb_probe_rank((2, 4), img, 10) == 1
    pre = Preimage(adm_family(3), LazySet.arithmetic(2, 2))
    assert pre.is_spreading_by_construction()
    assert cb_probe_rank((), pre, 10) == 3
