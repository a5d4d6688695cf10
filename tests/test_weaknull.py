import collections
import itertools
import random
from fractions import Fraction

import pytest

import oracles
from schreier import ordinals as o
from schreier import simplex, weaknull
from schreier.families import LazySet
from schreier.spaces import (ExEngine, L1Engine, MixedEngine, SchreierEngine,
                             SupEngine, Vector, ZEngine, combine)
from schreier.weaknull import (Instance, dichotomy_search, f_membership,
                               min_convex, ravg_null_test,
                               spreading_certificate)

from conftest import random_vector
from oracles import (full_dual_min_convex, grid_min,
                     reference_cutting_plane_min_convex,
                     reference_lex_min_convex)

HALF = Fraction(1, 2)
S1E = SchreierEngine(o.ONE)


def basis_instance(engine, n=12):
    return Instance(engine, tuple(Vector.basis(k) for k in range(1, n + 1)))


def small_instances(rng):
    """Engines x vector families for the brute-force battery."""
    out = []
    for engine in (L1Engine(), SupEngine(), S1E):
        out.append(Instance(engine, tuple(Vector.basis(k)
                                          for k in range(1, 6))))
        vecs = tuple(random_vector(rng, range(1, 7), max_support=3)
                     for _ in range(5))
        out.append(Instance(engine, vecs))
    return out


# -- min_convex ---------------------------------------------------------------


def test_min_convex_examples():
    inst = basis_instance(S1E)
    r = min_convex(inst, (2, 3))
    assert r.value == 1 and r.exact
    assert min_convex(inst, (1, 2)).value == HALF
    assert min_convex(inst, (1, 2)).coefficients == (HALF, HALF)
    assert min_convex(inst, (7,)).value == 1


def test_min_convex_input_validation():
    inst = basis_instance(S1E)
    with pytest.raises(ValueError):
        min_convex(inst, ())
    with pytest.raises(ValueError):
        min_convex(inst, (99,))
    with pytest.raises(ValueError):
        min_convex(inst, (1, 2), signs=(1,))


def test_min_convex_matches_full_dual_oracle(rng):
    for inst in small_instances(rng):
        for f in itertools.chain(itertools.combinations(range(1, 6), 2),
                                 itertools.combinations(range(1, 6), 4)):
            got = min_convex(inst, f)
            want = full_dual_min_convex(inst.engine, inst.vectors, f)
            assert got.value == want, (inst.engine.spec(), f)


def test_min_convex_coefficients_are_lex_min(rng):
    for inst in small_instances(rng):
        for f in itertools.chain(itertools.combinations(range(1, 6), 2),
                                 itertools.combinations(range(1, 6), 3)):
            for signs in (None, tuple((-1) ** i for i in range(len(f)))):
                got = min_convex(inst, f, signs).coefficients
                want = reference_lex_min_convex(inst.engine, inst.vectors,
                                                f, signs)
                assert got == want, (inst.engine.spec(), f, signs)


def test_min_convex_below_grid_and_matches_vertices(rng):
    for inst in small_instances(rng):
        for f in itertools.combinations(range(1, 6), 3):
            got = min_convex(inst, f).value
            assert got <= grid_min(inst.engine, inst.vectors, f)
            for i in f:
                assert got <= inst.engine.value(inst.vectors[i - 1])


def test_min_convex_signed_oracle(rng):
    inst = Instance(SupEngine(), tuple(random_vector(rng, range(1, 6), 3)
                                       for _ in range(4)))
    for f in itertools.combinations(range(1, 5), 2):
        for signs in ((1, 1), (1, -1)):
            got = min_convex(inst, f, signs=signs)
            want = full_dual_min_convex(inst.engine, inst.vectors, f, signs)
            assert got.value == want


def test_min_convex_monotone_under_restriction(rng):
    for inst in small_instances(rng)[:3]:
        big = (1, 2, 3, 4)
        small = (2, 4)
        assert min_convex(inst, small).value >= min_convex(inst, big).value


def test_min_convex_argmin_reevaluates(rng):
    for inst in small_instances(rng):
        f = (1, 3, 4)
        r = min_convex(inst, f)
        y = combine([inst.vectors[i - 1] for i in f], r.coefficients)
        assert inst.engine.value(y) == r.value
        assert sum(r.coefficients) == 1


def cutting_plane_battery():
    """(engine, vectors, f, signs) on six exact engines, two of whose
    certificates have only a coefficient function; every sequence holds a
    zero vector, and every set is tried with plain and alternating signs."""
    rng = random.Random(20261019)
    classes = [LazySet.arithmetic(i, 3) for i in range(1, 4)]
    engines = (L1Engine(), SupEngine(), S1E,
               MixedEngine([o.ONE, o.from_int(2)]),
               ExEngine(L1Engine(), classes), ExEngine(S1E, classes))
    for engine in engines:
        vecs = [random_vector(rng, range(1, 8), 3) for _ in range(5)]
        vecs.insert(rng.randrange(6), Vector.zero())
        for r in (2, 3):
            for f in itertools.combinations(range(1, 7), r):
                for signs in (None, tuple((-1) ** i for i in range(r))):
                    yield engine, vecs, f, signs


def test_min_convex_matches_the_cold_cutting_plane_loop():
    for engine, vecs, f, signs in cutting_plane_battery():
        got = min_convex(Instance(engine, vecs), f, signs)
        want = reference_cutting_plane_min_convex(engine, vecs, f, signs)
        assert (got.value, got.coefficients, got.rounds) == want, \
            (engine.spec(), vecs, f, signs)


def test_min_convex_makes_one_lp_and_fewer_pivots(monkeypatch):
    # the reference loop's Fraction tableau makes the pivots the integer
    # tableau made when every round was solved cold
    counts = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weaknull, "solve_lp",
                        counting("lp", weaknull.solve_lp))
    monkeypatch.setattr(simplex, "_pivot", counting("pivot", simplex._pivot))
    monkeypatch.setattr(oracles, "_fraction_pivot",
                        counting("cold pivot", oracles._fraction_pivot))
    calls = 0
    for engine, vecs, f, signs in cutting_plane_battery():
        got = min_convex(Instance(engine, vecs), f, signs)
        _, _, rounds = reference_cutting_plane_min_convex(engine, vecs, f,
                                                          signs)
        calls += 1
        assert counts["lp"] == calls and got.rounds == rounds
    assert counts["pivot"] < counts["cold pivot"], counts
    # the pivot count does not depend on the machine, so this bound catches
    # extra pivot work anywhere
    assert counts["pivot"] <= 1802, counts


def test_min_convex_z_engine_reports_gap():
    engine = ZEngine(o.ONE, SupEngine(), tolerance=1e-10)
    inst = basis_instance(engine, 4)
    r = min_convex(inst, (2, 3))
    assert not r.exact and r.gap_bound > 0
    assert r.value <= 1.0 + 1e-9


# -- membership variants --------------------------------------------------------


def test_membership_examples():
    instX1 = basis_instance(S1E)
    instSup = basis_instance(SupEngine())
    assert f_membership(instX1, (), 1, "sigma")
    assert f_membership(instX1, (2, 3), 1, "plain")
    assert not f_membership(instSup, (2, 3), 1, "sigma")
    assert f_membership(instSup, (2, 3), HALF, "sigma")


def test_variant_ordering(rng):
    insts = [basis_instance(SupEngine(), 6),
             Instance(S1E, tuple(random_vector(rng, range(1, 7), 3)
                                 for _ in range(6)))]
    for inst in insts:
        for f in itertools.combinations(range(1, 6), 2):
            for eps in (Fraction(1, 4), HALF, 1):
                sigma = f_membership(inst, f, eps, "sigma")
                plain = f_membership(inst, f, eps, "plain")
                a = f_membership(inst, f, eps, "a")
                assert (not sigma or plain) and (not plain or a)


def test_membership_hereditary(rng):
    inst = Instance(S1E, tuple(random_vector(rng, range(1, 8), 3)
                               for _ in range(6)))
    for f in ((2, 3, 5), (1, 4, 6)):
        for variant in ("plain", "a", "sigma"):
            if f_membership(inst, f, HALF, variant):
                for r in range(len(f)):
                    for sub in itertools.combinations(f, r):
                        assert f_membership(inst, sub, HALF, variant), \
                            (f, sub, variant)


# -- spreading certificates -------------------------------------------------------


def test_spreading_certificate_pass_and_fail():
    rep = spreading_certificate(basis_instance(S1E), o.ONE, 1, 8)
    assert rep.passed and rep.worst_margin == 0
    rep = spreading_certificate(basis_instance(SupEngine()), o.ONE, 1, 8)
    assert not rep.passed
    assert len(rep.worst_set) >= 2
    assert rep.worst_margin < 0
    report_json = rep.to_json()
    assert report_json["passed"] is False


def test_spreading_stage_zero_margin():
    vecs = tuple(Vector.basis(k).scale(Fraction(k, k + 1)) for k in range(1, 7))
    rep = spreading_certificate(Instance(SupEngine(), vecs), o.ZERO, HALF, 6,
                                variant="plain")
    assert rep.worst_margin == Fraction(1, 2) - HALF  # min norm is 1/2
    assert rep.worst_set == (1,)


def test_spreading_variant_a_takes_each_sets_best_sign_pattern():
    # x1 = x2 = e1 and x3 = -e1: x2 + x3 cancels but x2 - x3 does not, so
    # (2, 3) is an a-member at 1/2 and the certificate passes
    e1 = Vector.basis(1)
    inst = Instance(L1Engine(), (e1, e1, e1.scale(-1)))
    assert f_membership(inst, (2, 3), HALF, "a")
    rep = spreading_certificate(inst, o.ONE, HALF, 3, variant="a")
    assert rep.passed and rep.worst_margin == HALF
    assert rep.margins == [((1,), (1,), HALF), ((3,), (1,), HALF),
                           ((2, 3), (1, -1), HALF)]
    assert rep.sets_checked == 4  # one min_convex call per sign pattern
    plain = spreading_certificate(inst, o.ONE, HALF, 3, variant="plain")
    assert not plain.passed and plain.worst_margin == -HALF
    # a tie between the patterns of a set goes to the first
    rep = spreading_certificate(basis_instance(L1Engine(), 3), o.ONE, HALF,
                                3, variant="a")
    assert rep.margins[-1][:2] == ((2, 3), (1, 1))
    with pytest.raises(ValueError, match="unknown variant"):
        spreading_certificate(inst, o.ONE, HALF, 3, variant="b")


def test_spreading_certificate_bounds():
    with pytest.raises(ValueError):
        spreading_certificate(basis_instance(S1E, 4), o.ONE, 1, 9)


# -- repeated-averages nullity -----------------------------------------------------


def test_ravg_null_separates_bases():
    big = 130
    sup_inst = Instance(SupEngine(),
                        tuple(Vector.basis(k) for k in range(1, big)))
    x1_inst = Instance(S1E, tuple(Vector.basis(k) for k in range(1, big)))
    m = LazySet.arithmetic(3, 1)
    assert ravg_null_test(sup_inst, o.ONE, m, depth=2).passed
    rep = ravg_null_test(x1_inst, o.ONE, m, depth=1)
    assert not rep.passed
    first = rep.first_failure()
    assert first.n == 1 and first.value == 1


def test_ravg_null_zero_vectors_pass():
    inst = Instance(S1E, tuple(Vector.zero() for _ in range(130)))
    assert ravg_null_test(inst, o.ONE, LazySet.arithmetic(3, 1),
                          depth=2).passed


def test_ravg_null_requires_enough_vectors():
    inst = Instance(S1E, tuple(Vector.basis(k) for k in range(1, 5)))
    with pytest.raises(ValueError) as err:
        ravg_null_test(inst, o.ONE, LazySet.arithmetic(10, 1), depth=1)
    assert "index" in str(err.value)


def test_ravg_null_custom_deltas():
    inst = Instance(SupEngine(), tuple(Vector.basis(k) for k in range(1, 130)))
    rep = ravg_null_test(inst, o.ONE, LazySet.arithmetic(3, 1),
                         deltas=[Fraction(1, 100), Fraction(1, 100)], depth=2)
    assert not rep.passed  # weights 1/3 exceed 1/100


# -- dichotomy ----------------------------------------------------------------------


def test_dichotomy_examples():
    r = dichotomy_search(basis_instance(S1E), o.ONE, HALF, depth=12)
    assert r.kind == "certificate_i" and r.eps1 == 1
    r = dichotomy_search(basis_instance(SupEngine()), o.ONE, HALF, depth=12)
    assert r.kind == "certificate_ii" and r.value <= Fraction(1, 3)
    zero = Instance(S1E, tuple(Vector.zero() for _ in range(12)))
    r = dichotomy_search(zero, o.ONE, HALF)
    assert r.kind == "certificate_ii" and r.value == 0


def test_dichotomy_never_returns_both_certificates():
    for inst in (basis_instance(S1E), basis_instance(SupEngine()),
                 basis_instance(L1Engine())):
        for eps in (Fraction(1, 4), HALF):
            r = dichotomy_search(inst, o.ONE, eps, depth=10)
            assert r.kind != "certificate_i" or not r.found_ii
            assert r.kind != "certificate_ii" or not r.found_i
            if r.found_i and r.found_ii:
                # conflicting shallow evidence must stay undecided
                assert r.kind == "inconclusive"


def test_dichotomy_inconclusive_is_legal():
    # norms sit exactly at the threshold: neither certificate fires
    inst = basis_instance(SupEngine(), 6)
    r = dichotomy_search(inst, o.ONE, Fraction(1, 7), depth=6)
    assert r.kind in ("certificate_i", "certificate_ii", "inconclusive")
