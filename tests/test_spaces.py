import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schreier import ordinals as o
from schreier.families import LazySet
from schreier.spaces import (ExEngine, L1Engine, MixedEngine, SchreierEngine,
                             SupEngine, TreeEngine, Vector, ZEngine, combine,
                             engine_from_spec, lower_l1_margin)

from conftest import random_vector
from oracles import brute_schreier_norm, brute_stage_norm, brute_tree_norm

L1, SUP = L1Engine(), SupEngine()
S1E = SchreierEngine(o.ONE)


def mod_classes(k):
    return [LazySet.arithmetic(i, k) for i in range(1, k + 1)]


def exact_engines():
    return [L1Engine(), SupEngine(), SchreierEngine(o.ONE),
            SchreierEngine(o.from_int(2)),
            MixedEngine([o.ZERO, o.ONE]),
            ExEngine(SupEngine(), mod_classes(3)),
            ExEngine(SchreierEngine(o.ONE), mod_classes(4))]


# -- vectors -------------------------------------------------------------------


def test_vector_basics():
    x = Vector.from_dict({3: Fraction(1, 2), 1: Fraction(-2), 5: 0})
    assert x.support == (1, 3)
    assert x[1] == -2 and x[4] == 0
    assert x.l1() == Fraction(5, 2)
    assert x.scale(2)[3] == 1
    assert x.add(Vector.basis(1))[1] == -1
    assert Vector.from_json(x.to_json()) == x
    t = Vector.from_dict({(1, 2): Fraction(1, 3)})
    assert Vector.from_json(t.to_json()) == t


def test_combine_exact():
    y = combine([Vector.basis(1), Vector.basis(2)],
                [Fraction(1, 3), Fraction(2, 3)])
    assert y == Vector.from_dict({1: Fraction(1, 3), 2: Fraction(2, 3)})


# -- example values ------------------------------------------------------------


def test_schreier_one_example():
    x = Vector.from_dict({1: 1, 2: 1, 3: 1})
    value, cert = S1E.norm(x)
    assert value == 2
    assert cert.meta["set"] == (2, 3)
    assert cert.evaluate(x) == value


def test_basis_vectors_are_normalized_everywhere():
    engines = exact_engines() + [ZEngine(o.ONE, SupEngine())]
    for engine in engines:
        for k in (1, 2, 7):
            v = engine.value(Vector.basis(k))
            if engine.exact:
                assert v == 1, engine.spec()
            else:
                assert abs(v - 1.0) <= 1e-12


def test_tree_examples():
    engine = TreeEngine([(1,), (1, 1), (1, 2)])
    assert engine.value(Vector.from_dict({(1, 1): 1, (1, 2): 1})) == 2
    assert engine.value(Vector.from_dict({(1,): 1, (1, 1): 1})) == 1


def test_tree_antichain_and_chain():
    engine = TreeEngine([(1,), (2,), (3,)])
    x = Vector.from_dict({(1,): 1, (2,): Fraction(-1, 2), (3,): 2})
    assert engine.value(x) == Fraction(7, 2)  # antichain sums absolutes
    chain = TreeEngine([(1,), (1, 1), (1, 1, 1)])
    y = Vector.from_dict({(1,): 1, (1, 1): Fraction(-3), (1, 1, 1): 2})
    assert chain.value(y) == 3  # a chain only sees its largest entry


def test_tree_validation():
    with pytest.raises(ValueError):
        TreeEngine([(1, 1)])  # not prefix closed
    engine = TreeEngine([(1,)])
    with pytest.raises(ValueError):
        engine.norm(Vector.from_dict({(2,): 1}))


# -- oracle agreement -----------------------------------------------------------


def test_schreier_norm_matches_bruteforce(rng):
    for _ in range(120):
        x = random_vector(rng, range(1, 16), max_support=7)
        assert S1E.value(x) == brute_schreier_norm(S1E.family, x)


def test_schreier_two_matches_bruteforce(rng):
    s2 = SchreierEngine(o.from_int(2))
    for _ in range(40):
        x = random_vector(rng, range(1, 13), max_support=6)
        assert s2.value(x) == brute_schreier_norm(s2.family, x)


def test_schreier_norm_matches_decomposition_oracle(rng):
    """Against an oracle whose membership is exhaustive decomposition
    search, not the cursor the engine steps."""
    # the oracle recurses once per stage it passes through, so limit
    # stages keep their keys (which pick the stage) small
    for xi, top in (("0", 18), ("3", 18), ("w", 12), ("w+1", 12),
                    ("w^2", 12)):
        engine = SchreierEngine(o.parse(xi))
        cases = [Vector.zero(), Vector.from_dict({5: Fraction(-3, 7)})]
        cases += [random_vector(rng, range(1, top + 1), max_support=8,
                                denom=7) for _ in range(30)]
        for x in cases:
            assert engine.value(x) == brute_stage_norm(engine.xi, x), \
                (xi, x.coords)


def test_mixed_norm_matches_weighted_level_oracle(rng):
    engine = MixedEngine([o.ONE, o.from_int(2)])
    cases = [Vector.zero(), Vector.from_dict({5: Fraction(-3, 7)})]
    cases += [random_vector(rng, range(1, 19), max_support=8, denom=7)
              for _ in range(30)]
    for x in cases:
        want = Fraction(1, 2) * brute_stage_norm(o.ONE, x) + \
            Fraction(1, 2) * brute_stage_norm(o.from_int(2), x)
        assert engine.value(x) == want, x.coords


def _seeded_vector(rng, keys, num: int, den: int) -> Vector:
    return Vector.from_dict({k: Fraction(rng.choice((-1, 1)) *
                                         rng.randint(1, num),
                                         rng.randint(1, den)) for k in keys})


@pytest.mark.parametrize("xi, keys, expect", [
    ("0", range(1, 1201), "sup"),
    ("1", range(2000, 3200), "l1"),
    ("w", range(2000, 3200), "l1"),
])
def test_norm_on_a_long_support_stays_off_the_recursion_limit(xi, keys,
                                                              expect):
    # |E| <= min E makes the whole support admissible at stages >= 1
    x = _seeded_vector(random.Random(11), keys, 9, 7)
    value, cert = SchreierEngine(o.parse(xi)).norm(x)
    if expect == "sup":
        assert value == max(abs(v) for _, v in x.coords)
        assert len(cert.meta["set"]) == 1
    else:
        assert value == x.l1()
        assert cert.meta["set"] == x.support
    assert cert.evaluate(x) == value


def test_certificate_sets_are_pinned_among_ties():
    """Several admissible sets attain these maxima; the include-first
    search order picks the certificate set."""
    rng = random.Random(6)
    x = _seeded_vector(rng, rng.sample(range(3, 37), 17), 4, 3)
    value, cert = S1E.norm(x)
    assert value == 10
    assert cert.meta["set"] == (11, 13, 14, 18, 19, 21, 24, 27, 28, 32, 34)
    rng = random.Random(102)
    y = _seeded_vector(rng, rng.sample(range(2, 34), 16), 4, 3)
    value, cert = MixedEngine([o.ONE, o.from_int(2)]).norm(y)
    assert value == Fraction(83, 3)
    assert [(lv["xi"], lv["set"]) for lv in cert.meta["levels"]] == [
        ("1", (11, 13, 14, 15, 18, 19, 23, 25, 29, 31, 32)),
        ("2", (3, 7, 11, 13, 14, 15, 18, 19, 21, 23, 24, 25, 29, 31, 32,
               33))]


def test_tree_norm_matches_bruteforce(rng):
    nodes = [(1,), (1, 1), (1, 2), (1, 1, 1), (2,), (2, 1)]
    engine = TreeEngine(nodes)
    for _ in range(60):
        x = random_vector(rng, nodes, max_support=5)
        assert engine.value(x) == brute_tree_norm(nodes, x)


# -- norm axioms and structure ---------------------------------------------------


def test_norm_axioms_exact_engines(rng):
    for engine in exact_engines():
        for _ in range(500):
            x = random_vector(rng, range(1, 13), max_support=5)
            y = random_vector(rng, range(1, 13), max_support=5)
            nx, ny = engine.value(x), engine.value(y)
            assert engine.value(x.add(y)) <= nx + ny
            assert engine.value(x.scale(Fraction(-3, 2))) == Fraction(3, 2) * nx
            assert nx > 0
    assert all(engine.value(Vector.zero()) == 0 for engine in exact_engines())


def test_norm_axioms_z_engine(rng):
    engine = ZEngine(o.ONE, SupEngine(), tolerance=1e-10)
    for _ in range(12):
        x = random_vector(rng, range(1, 10), max_support=4)
        y = random_vector(rng, range(1, 10), max_support=4)
        nx, ny = engine.value(x), engine.value(y)
        assert engine.value(x.add(y)) <= nx + ny + 2e-10
        assert abs(engine.value(x.scale(-2)) - 2 * nx) <= 1e-9
        assert nx > 0


def test_bimonotone_interval_projections(rng):
    engines = exact_engines()
    for engine in engines:
        for _ in range(40):
            x = random_vector(rng, range(1, 13), max_support=6)
            supp = x.support
            a = rng.randint(0, len(supp) - 1)
            b = rng.randint(a, len(supp) - 1)
            proj = x.restrict(supp[a:b + 1])
            assert engine.value(proj) <= engine.value(x), engine.spec()


def test_certificates_reproduce_values(rng):
    for engine in exact_engines():
        for _ in range(30):
            x = random_vector(rng, range(1, 13), max_support=5)
            value, cert = engine.norm(x)
            assert cert.evaluate(x) == value


@given(st.lists(st.tuples(st.integers(1, 12),
                          st.fractions(min_value=-3, max_value=3,
                                       max_denominator=6)),
                min_size=0, max_size=5))
@settings(max_examples=120, deadline=None)
def test_triangle_inequality_schreier_hypothesis(items):
    x = Vector.from_dict({k: v for k, v in items})
    shifted = Vector.from_dict({k + 1: v for k, v in x.coords})
    assert S1E.value(x.add(shifted)) <= S1E.value(x) + S1E.value(shifted)


# -- the interval-quotient engine -------------------------------------------------


def test_quotient_examples():
    engine = ExEngine(L1Engine(), mod_classes(3))
    assert engine.quotient_apply(Vector.basis(7)) == Vector.basis(1)
    assert engine.quotient_apply(Vector.zero()) == Vector.zero()
    x = Vector.from_dict({1: 1, 4: 1})  # both in class 1
    assert engine.quotient_apply(x) == Vector.from_dict({1: 2})


def test_quotient_rejects_uncovered():
    engine = ExEngine(L1Engine(), [LazySet.arithmetic(1, 2)])
    with pytest.raises(ValueError):
        engine.quotient_apply(Vector.basis(2))


def test_quotient_contracts_under_envelope_norm(rng):
    engine = ExEngine(SchreierEngine(o.ONE), mod_classes(3))
    for _ in range(40):
        x = random_vector(rng, range(1, 13), max_support=5)
        assert engine.base.value(engine.quotient_apply(x)) <= engine.value(x)


def test_diagonal_isometry(rng):
    k = 4
    for base in (L1Engine(), SupEngine(), SchreierEngine(o.ONE)):
        engine = ExEngine(base, mod_classes(k))
        for _ in range(40):
            d = rng.randint(1, k)
            rs = sorted(rng.sample(range(0, 30), d))
            diag = [i + k * r for i, r in zip(range(1, d + 1), rs)]
            coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for _ in range(d)]
            x = Vector.from_dict(dict(zip(diag, coeffs)))
            y = Vector.from_dict(dict(zip(range(1, d + 1), coeffs)))
            assert engine.value(x) == base.value(y)


# -- the mixed engine --------------------------------------------------------------


def test_mixed_weights_sum_to_one():
    for xis in ([o.ZERO], [o.ZERO, o.ONE], [o.ZERO, o.ONE, o.from_int(2)]):
        engine = MixedEngine(xis)
        assert sum(engine.weights) == 1


def test_mixed_single_level_is_plain_schreier(rng):
    engine = MixedEngine([o.ONE])
    for _ in range(20):
        x = random_vector(rng, range(1, 12), max_support=5)
        assert engine.value(x) == S1E.value(x)


# -- the implicit-norm engine --------------------------------------------------------


def test_z_basis_is_one_with_certified_error():
    for xi in (o.ONE, o.from_int(2)):
        engine = ZEngine(xi, SupEngine())
        for k in (1, 2, 5):
            value, cert = engine.norm(Vector.basis(k))
            assert abs(value - 1.0) <= 1e-12
            assert cert.error_bound <= 1e-12


def test_z_iterates_monotone_contracting(rng):
    from schreier.spaces import _z_fixed_step
    engine = ZEngine(o.ONE, SupEngine(), tolerance=1e-12)
    q = float(engine.vartheta) / math.sqrt(3)
    for _ in range(25):
        x = random_vector(rng, range(1, 12), max_support=6)
        detail = engine.norm_detail(x)
        it = detail["iterates"]
        assert all(b >= a for a, b in zip(it, it[1:]))
        gaps = [b - a for a, b in zip(it, it[1:]) if b - a > 0]
        for g1, g2 in zip(gaps, gaps[1:]):
            assert g2 / g1 <= q + 1e-6
        # the iteration map itself contracts with modulus at most q
        t = it[-1]
        for delta in (0.25, 1.0, 4.0):
            lo = _z_fixed_step(detail["c0"], detail["weights2"],
                               detail["levels"], t)
            hi = _z_fixed_step(detail["c0"], detail["weights2"],
                               detail["levels"], t + delta)
            assert hi - lo <= q * delta + 1e-6


def test_z_certificate_reevaluates(rng):
    engine = ZEngine(o.ONE, SupEngine(), tolerance=1e-10)
    for _ in range(10):
        x = random_vector(rng, range(1, 10), max_support=5)
        value, cert = engine.norm(x)
        assert abs(cert.reevaluate() - value) <= 1e-9


def test_z_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ZEngine(o.ONE, SupEngine(), vartheta=Fraction(3, 2))
    with pytest.raises(ValueError):
        ZEngine(o.ZERO, SupEngine())


def _normalized_block(engine, rng, lo, hi):
    x = random_vector(rng, range(lo, hi), max_support=min(3, hi - lo))
    s = Fraction(1 / engine.value(x)).limit_denominator(1 << 50)
    return x.scale(s)


def test_lower_margin_examples(rng):
    engine = ZEngine(o.ONE, SupEngine(), tolerance=1e-12)
    blocks = [Vector.basis(1), _normalized_block(engine, rng, 2, 5),
              _normalized_block(engine, rng, 5, 9)]
    margin = lower_l1_margin(engine, blocks, 1, (2, 3),
                             [Fraction(1, 2), Fraction(1, 2)])
    assert margin >= -1e-9
    single = lower_l1_margin(engine, blocks, 2, (2,), [Fraction(1)])
    assert single >= -1e-9
    assert lower_l1_margin(engine, blocks, 1, (2, 3), [0, 0]) == 0


def test_lower_margin_rejects_bad_blocks(rng):
    engine = ZEngine(o.ONE, SupEngine())
    overlapping = [Vector.from_dict({1: 1, 3: 1}), Vector.basis(2)]
    with pytest.raises(ValueError):
        lower_l1_margin(engine, overlapping, 1, (1, 2), [1, 1])
    with pytest.raises(ValueError):
        lower_l1_margin(engine, [Vector.basis(1), Vector.basis(2)], 1,
                        (1, 2), [1, 1])  # {1,2} inadmissible at stage 1


# -- serialization ------------------------------------------------------------------


def test_engine_spec_roundtrip(rng):
    specs = [
        {"kind": "ell1"},
        {"kind": "sup"},
        {"kind": "schreier", "xi": "w"},
        {"kind": "mixed", "xis": ["0", "1", "2"]},
        {"kind": "ex", "base": {"kind": "sup"},
         "partition": [{"kind": "arith", "start": 1, "step": 2},
                       {"kind": "arith", "start": 2, "step": 2}]},
        {"kind": "z", "xi": "1", "base": {"kind": "sup"}, "vartheta": "1/2"},
        {"kind": "tree", "nodes": [[1], [1, 1]]},
    ]
    for spec in specs:
        engine = engine_from_spec(spec)
        assert engine.spec()["kind"] == spec["kind"]
    with pytest.raises(ValueError):
        engine_from_spec({"kind": "nope"})


def test_z_norm_matches_literal_interval_oracle(rng):
    from oracles import brute_z_norm
    for xi in (o.ONE, o.from_int(2)):
        engine = ZEngine(xi, SupEngine(), tolerance=1e-10)
        for _ in range(12):
            x = random_vector(rng, range(1, 9), max_support=3)
            got = engine.value(x)
            want = brute_z_norm(engine, x)
            assert abs(got - want) <= 1e-8, (o.fmt(xi), x.coords, got, want)
    # vartheta changes the contraction and the level weights
    engine = ZEngine(o.ONE, SupEngine(), vartheta=Fraction(4, 5),
                     tolerance=1e-10)
    for _ in range(6):
        x = random_vector(rng, range(1, 8), max_support=3)
        assert abs(engine.value(x) - brute_z_norm(engine, x)) <= 1e-8
