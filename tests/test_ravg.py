import itertools
import random
from fractions import Fraction

import pytest

from schreier import ordinals as o
from schreier.families import (Compose, EmptySetOnly, Image, LazySet,
                               ProbeLimitError, UnionFamily, adm_family,
                               feasible_depth, partition_blocks,
                               schreier_family)
from schreier.ravg import (Measure, ProbBlock, block_validate, canonical_block,
                           convolve, fastgrow_check, ravg_measure,
                           ravg_total_restricted, sufficiency_sup)

from conftest import CURSOR_STAGES, sample_lazy_sets
from oracles import (brute_compose_member, brute_ordinal_member,
                     brute_ravg_measure)

HALF = Fraction(1, 2)


def test_measure_value_object():
    mu = Measure.from_dict({3: HALF, 1: HALF})
    assert mu.support == (1, 3)
    assert mu.mass == 1
    assert mu(3) == HALF and mu(2) == 0
    assert mu.mass_of((1, 2)) == HALF
    assert mu.max_weight() == HALF
    assert Measure.from_json(mu.to_json()) == mu


def test_stage_zero_is_dirac():
    m = LazySet.arithmetic(5, 3)
    for n in range(1, 6):
        mu = ravg_measure(o.ZERO, m, n)
        assert mu == Measure.dirac(m.value(n))


def test_stage_one_uniform_average():
    mu = ravg_measure(o.ONE, LazySet.arithmetic(3, 2), 1)
    assert mu.weights == ((3, Fraction(1, 3)), (5, Fraction(1, 3)),
                          (7, Fraction(1, 3)))


def test_stage_two_on_naturals_collapses_to_dirac():
    assert ravg_measure(o.from_int(2), LazySet.naturals(), 1) == \
        Measure.dirac(1)


def test_support_equals_partition_block():
    stages = [o.ZERO, o.ONE, o.from_int(2), o.from_int(3), o.OMEGA,
              o.parse("w+1"), o.parse("w^2")]
    for xi in stages:
        fam = schreier_family(xi)
        for m in sample_lazy_sets(20):
            depth = min(5, feasible_depth(m, fam, 5, budget=1500))
            if depth == 0:
                continue
            blocks = partition_blocks(m, fam, depth)
            for n in range(1, depth + 1):
                mu = ravg_measure(xi, m, n)
                assert mu.mass == 1
                assert mu.support == blocks[n - 1], (o.fmt(xi), m.describe, n)


def test_shift_axiom_exact():
    xi = o.from_int(2)
    m = LazySet.naturals()
    mus = [ravg_measure(xi, m, r) for r in (1, 2, 3)]
    for r in (2, 3):
        removed = {v for mu in mus[:r - 1] for v in mu.support}
        assert ravg_measure(xi, m.remove_finite(removed), 1) == mus[r - 1]


def test_block_validate_passes_canonical():
    report = block_validate(canonical_block(o.ONE),
                            [(m, 3) for m in sample_lazy_sets(6)])
    assert report.ok and report.checked == 18


def test_block_validate_flags_scaled_rule():
    b = canonical_block(o.ONE)
    bad = ProbBlock(b.family, lambda m, n: Measure.from_dict(
        {k: v * Fraction(9, 10) for k, v in b.measure(m, n).weights}),
        "scaled")
    report = block_validate(bad, [(LazySet.naturals(), 2)])
    assert any(v["kind"] == "mass" for v in report.violations)


def test_block_validate_flags_shifted_support():
    b = canonical_block(o.ONE)
    bad = ProbBlock(b.family, lambda m, n: Measure.from_dict(
        {k + 1: v for k, v in b.measure(m, n).weights}), "shifted")
    report = block_validate(bad, [(LazySet.naturals(), 2)])
    assert any(v["kind"] == "support" for v in report.violations)


def test_convolve_with_dirac_left_is_identity():
    for xi in (o.ZERO, o.ONE, o.from_int(2)):
        conv = convolve(canonical_block(o.ZERO), canonical_block(xi))
        for m in sample_lazy_sets(6):
            fam = schreier_family(xi)
            depth = min(3, feasible_depth(m, fam, 3, budget=800))
            for n in range(1, depth + 1):
                assert conv.measure(m, n) == ravg_measure(xi, m, n)


def test_convolve_with_dirac_right_averages_uniformly():
    conv = convolve(canonical_block(o.ONE), canonical_block(o.ZERO))
    m = LazySet.arithmetic(3, 2)
    mu = conv.measure(m, 1)
    assert mu == ravg_measure(o.ONE, m, 1)


def test_convolution_mass_is_exactly_one():
    conv = convolve(canonical_block(o.ONE), canonical_block(o.ONE))
    for m in sample_lazy_sets(4):
        depth = min(2, feasible_depth(m, conv.family, 2, budget=800))
        for n in range(1, depth + 1):
            assert conv.measure(m, n).mass == 1


def test_convolution_block_axioms():
    conv = convolve(canonical_block(o.from_int(2)), canonical_block(o.ONE))
    samples = []
    for m in sample_lazy_sets(5):
        depth = min(2, feasible_depth(m, conv.family, 2, budget=600))
        if depth:
            samples.append((m, depth))
    assert samples
    assert block_validate(conv, samples).ok


def test_sufficiency_examples():
    v, witness = sufficiency_sup(canonical_block(o.ONE), adm_family(3),
                                 LazySet.arithmetic(10, 10))
    assert v == Fraction(3, 10) and len(witness) == 3
    v, _ = sufficiency_sup(canonical_block(o.ZERO), adm_family(1),
                           LazySet.naturals())
    assert v == 1
    v, witness = sufficiency_sup(canonical_block(o.ONE), EmptySetOnly(),
                                 LazySet.naturals())
    assert v == 0 and witness == ()


def test_sufficiency_sup_matches_member_enumeration():
    # membership by exhaustive decomposition, independent of the cursor
    def stage(text):
        xi = o.parse(text)
        return schreier_family(xi), lambda e: brute_ordinal_member(xi, e)

    (s0, in_s0), (s1, in_s1), (s2, in_s2), (sw, in_sw) = map(
        stage, ("0", "1", "2", "w"))
    cases = [(adm_family(3), lambda e: len(e) <= 3), (s0, in_s0),
             (s1, in_s1), (s2, in_s2), (sw, in_sw),
             (UnionFamily(adm_family(2), s1),
              lambda e: len(e) <= 2 or in_s1(e)),
             (Compose(adm_family(2), s0),
              lambda e: brute_compose_member(lambda m: len(m) <= 2, in_s0,
                                             e))]
    rng = random.Random(20261020)
    for _ in range(30):
        # supports of at most 9 points: a stage-1 measure from p has p
        # points, and a stage-2 one from 2 has 2 plus the third value
        level = rng.choice((0, 1, 1, 2))
        first = 2 if level == 2 else rng.randint(1, 9)
        prefix = [first] + sorted(rng.sample(range(first + 1, first + 6), 3))
        stream = LazySet.from_prefix(prefix, rng.randint(1, 3))
        xi = o.from_int(level)
        mu = canonical_block(xi).measure(stream, 1)
        support = mu.support
        for fam, member in cases:
            want = max(mu.mass_of(e) for r in range(len(support) + 1)
                       for e in itertools.combinations(support, r)
                       if member(e))
            v, witness = sufficiency_sup(canonical_block(xi), fam, stream)
            assert v == want, (fam, prefix)
            assert member(witness) and mu.mass_of(witness) == v
    with pytest.raises(ValueError, match="no membership cursor"):
        sufficiency_sup(canonical_block(o.ONE),
                        Image(s1, LazySet.arithmetic(1, 2)),
                        LazySet.naturals())


def test_max_weight_bounded_by_min():
    checked = 0
    for xi in (o.ONE, o.from_int(2), o.OMEGA):
        fam = schreier_family(xi)
        for m in sample_lazy_sets(10):
            if feasible_depth(m, fam, 1, budget=1500) == 0:
                continue
            mu = ravg_measure(xi, m, 1)
            assert mu.max_weight() <= Fraction(1, m.value(1))
            checked += 1
    assert checked >= 19


def test_restricted_totals_match_full_measures():
    xi = o.ONE
    m = LazySet.arithmetic(2, 2)
    totals = ravg_total_restricted(xi, m, 30)
    expect = {}
    for n in range(1, 5):
        for k, v in ravg_measure(xi, m, n).weights:
            if k <= 30:
                expect[k] = expect.get(k, Fraction(0)) + v
    assert totals == expect


def test_fastgrow_desk_example():
    r = fastgrow_check(o.ONE, LazySet.naturals(), LazySet.geometric(4),
                       Fraction(1), 60)
    assert r.condition_holds and r.strict_condition_holds
    assert r.max_sum == HALF and r.bound_ok
    assert r.witness == (4, 16)


def test_fastgrow_empty_contribution_is_zero():
    r = fastgrow_check(o.ONE, LazySet.naturals(), LazySet.geometric(4),
                       Fraction(1), 3)
    assert r.max_sum == 0 and r.bound_ok


def test_fastgrow_single_measure_mass_bound():
    # any admissible set inside one support carries at most mass one
    r = fastgrow_check(o.ONE, LazySet.naturals(),
                       LazySet.arithmetic(4, 4), Fraction(1, 2), 16)
    assert r.max_sum <= 1


def test_fastgrow_strictness_boundary():
    # at eps = 1/2 the growth comparison for 4^n is an equality
    r = fastgrow_check(o.ONE, LazySet.naturals(), LazySet.geometric(4),
                       HALF, 60)
    assert r.condition_holds and not r.strict_condition_holds


def test_fastgrow_max_sum_matches_subset_enumeration():
    """Sixteen weighted points: the admissible-sum search equals the best
    of all 2^16 subsets, with S_1 read off its definition |E| <= min E."""
    k = LazySet.arithmetic(2, 3)
    r = fastgrow_check(o.ONE, k, LazySet.arithmetic(3, 1), HALF, 18)
    totals = ravg_total_restricted(o.ONE, LazySet.arithmetic(3, 1), 18)
    points = sorted(p for p, v in totals.items() if v > 0)
    assert len(points) == 16

    def admissible(e):
        return len(e) <= k.value(e[0])

    best = max(sum(totals[p] for p in e)
               for size in range(1, len(points) + 1)
               for e in itertools.combinations(points, size)
               if admissible(e))
    assert r.max_sum == best > 1
    assert admissible(r.witness)
    assert sum(totals[p] for p in r.witness) == best


def test_measure_errors():
    with pytest.raises(ValueError):
        ravg_measure(o.ONE, LazySet.naturals(), 0)


def test_convolve_hand_computed_second_measure():
    # blocks of the naturals at stage 1: {1}, {2,3}, {4..7}, {8..15}, ...
    # mixing weights for the second convolved measure are uniform on the
    # first two minima of the shifted minima stream
    conv = convolve(canonical_block(o.ONE), canonical_block(o.ONE))
    mu = conv.measure(LazySet.naturals(), 2)
    assert mu == Measure.from_dict({
        2: Fraction(1, 4), 3: Fraction(1, 4),
        4: Fraction(1, 8), 5: Fraction(1, 8),
        6: Fraction(1, 8), 7: Fraction(1, 8)})


def test_convolve_composite_family_rank():
    conv = convolve(canonical_block(o.ONE), canonical_block(o.ONE))
    assert conv.family.cb_index().value == o.parse("w^2+1")


def test_restricted_totals_at_limit_stage():
    totals = ravg_total_restricted(o.OMEGA, LazySet.naturals(), 20)
    expect = {}
    for n in (1, 2):
        for k, v in ravg_measure(o.OMEGA, LazySet.naturals(), n).weights:
            if k <= 20:
                expect[k] = expect.get(k, Fraction(0)) + v
    assert totals == expect


# values of each stream handed to the recursive oracle
ORACLE_VALUES = 200


def _oracle_streams():
    """Fresh copies of the sample streams plus list streams from 1."""
    return sample_lazy_sets() + [
        LazySet.from_prefix(prefix, step) for prefix, step in (
            ((1,), 2), ((1, 2), 3), ((1, 3, 4, 8), 1), ((1, 6, 7), 5))]


def test_measures_match_recursive_definition():
    """The cursor's weights equal the recursive definition's, and the
    stream runs out under a probe limit exactly when the list does."""
    compared = 0
    for xi in CURSOR_STAGES:
        stage = o.parse(xi)
        for i, m in enumerate(_oracle_streams()):
            values = m.prefix(ORACLE_VALUES)
            for n in (1, 2, 3):
                try:
                    expect = brute_ravg_measure(stage, values, n)
                except IndexError:
                    with pytest.raises(ProbeLimitError):
                        ravg_measure(stage, _oracle_streams()[i], n,
                                     ORACLE_VALUES)
                    continue
                assert ravg_measure(stage, m, n) == \
                    Measure.from_dict(expect), (xi, m.describe, n)
                compared += 1
    # deeper blocks at limit stages outgrow the list
    assert compared >= 230


def _brute_totals(stage, values, cutoff: int) -> dict:
    """Weights of every point <= cutoff, one recursive measure per block."""
    totals, pos, n = {}, 0, 1
    while values[pos] <= cutoff:
        mu = brute_ravg_measure(stage, values, n)
        totals.update((k, w) for k, w in mu.items() if k <= cutoff)
        pos, n = pos + len(mu), n + 1
    return totals


def test_restricted_totals_match_recursive_definition():
    compared = 0
    for xi in CURSOR_STAGES:
        stage = o.parse(xi)
        for m in _oracle_streams():
            values = m.prefix(ORACLE_VALUES)
            for cutoff in (10, 40, 200):
                try:
                    expect = _brute_totals(stage, values, cutoff)
                except IndexError:
                    continue
                assert ravg_total_restricted(stage, m, cutoff) == expect, \
                    (xi, m.describe, cutoff)
                compared += 1
    assert compared >= 152
