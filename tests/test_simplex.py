import random
from fractions import Fraction
from math import gcd

import pytest

from schreier import simplex
from schreier.simplex import LPError, solve_lp

from oracles import (reference_dual_bland_pivots, reference_sequential_lex,
                     reference_solve_lp)

F = Fraction


def _dual(c, a_ub, b_ub):
    """The LP dual of min c.x, a_ub x <= b_ub, x >= 0 with b_ub >= 0:
    min b_ub.u subject to -a_ub^T u <= c and u >= 0.  Its costs are
    nonnegative, its rows have either sign, and by strong duality its value
    is minus the primal optimum."""
    return (list(b_ub),
            [[-row[j] for row in a_ub] for j in range(len(c))], list(c))


def _outcome(solver, lp, **kwargs):
    try:
        return solver(*lp, **kwargs)
    except LPError:
        return None


def _assert_feasible(x, lp):
    _, a_ub, b_ub = lp
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) <= b
               for row, b in zip(a_ub, b_ub))


def _assert_dual_matches(lp):
    """Solving the dual of the primal lp gives minus its reference optimum,
    and raises exactly when the primal is unbounded."""
    got = _outcome(solve_lp, _dual(*lp))
    want = _outcome(reference_solve_lp, lp)
    assert (got is None) == (want is None), lp
    if got is not None:
        u, value = got
        assert value == -want[1], lp
        _assert_feasible(u, _dual(*lp))
        assert sum(a * v for a, v in zip(lp[2], u)) == value
    return got is not None


def _reference(c, lp, tiebreak=()):
    """(x, values) of the objectives c, *tiebreak minimized in turn over all
    of lp's rows, or None when the program is infeasible or an objective
    is unbounded.

    A row with a negative right-hand side becomes an equality row with a
    surplus variable of its own, which the reference solvers accept."""
    _, a_ub, b_ub = lp
    n = len(c)
    neg = [(a, b) for a, b in zip(a_ub, b_ub) if b < 0]
    pad = lambda row: list(row) + [0] * len(neg)
    rows = [(pad(a), b) for a, b in zip(a_ub, b_ub) if b >= 0]
    a_eq = [list(a) + [int(i == j) for j in range(len(neg))]
            for i, (a, _) in enumerate(neg)]
    try:
        x, values = reference_sequential_lex(
            [pad(c)] + [pad(t) for t in tiebreak], [a for a, _ in rows],
            [b for _, b in rows], a_eq, [b for _, b in neg])
    except LPError:
        return None
    return x[:n], values


def _units(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _unique_optimum(lp):
    """Whether the optimal face is one point: its lexicographically
    smallest and largest points agree, and the largest exists."""
    c, n = lp[0], len(lp[0])
    lo = _reference(c, lp, _units(n))
    hi = _reference(c, lp, [[-v for v in u] for u in _units(n)])
    return hi is not None and lo[0] == hi[0]


def _lex_nonnegative(costs):
    """costs with every column whose first nonzero entry is negative
    negated, so each column's cost vector is lexicographically >= 0."""
    for j in range(len(costs[0])):
        first = next((row[j] for row in costs if row[j]), 0)
        if first < 0:
            for row in costs:
                row[j] = -row[j]
    return costs


def _random_lp(rng, draw=lambda rng: F(rng.randint(-3, 3))):
    """Nonnegative costs and rows with right-hand sides of either sign."""
    n = rng.randint(1, 4)
    a_ub = [[draw(rng) for _ in range(n)] for _ in range(rng.randint(0, 4))]
    return ([abs(draw(rng)) for _ in range(n)], a_ub,
            [draw(rng) for _ in a_ub])


def _random_primal(rng, draw=lambda rng: F(rng.randint(-3, 3))):
    """A primal LP of the classical shape: costs of either sign and
    nonnegative right-hand sides, so x = 0 is feasible."""
    n = rng.randint(1, 4)
    a_ub = [[draw(rng) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    return ([draw(rng) for _ in range(n)], a_ub,
            [abs(draw(rng)) for _ in a_ub])


def test_basic_minimization():
    primal = ([F(-1), F(-2)], [[1, 1], [1, 0]], [4, 2])
    assert reference_solve_lp(*primal) == ([F(0), F(4)], -8)
    # min 4 u1 + 2 u2 subject to u1 + u2 >= 1 and u1 >= 2
    assert solve_lp(*_dual(*primal)) == ([F(2), F(0)], 8)


def test_equality_constraints():
    # x1 + 2 x2 = 3 as the pair of rows x1 + 2 x2 <= 3 and -x1 - 2 x2 <= -3
    x, v = solve_lp([F(1), F(1)], [[1, 2], [-1, -2]], [F(3), F(-3)])
    assert v == F(3, 2) and x == [F(0), F(3, 2)]


def test_degenerate_does_not_cycle():
    # Beale's example cycles under the textbook primal rule; its dual has
    # zero costs and ties in the dual ratio test, so the dual Bland rule
    # must terminate on it
    primal = ([F(-3, 4), F(150), F(-1, 50), F(6)],
              [[F(1, 4), -60, F(-1, 25), 9],
               [F(1, 2), -90, F(-1, 50), 3],
               [0, 0, 1, 0]],
              [0, 0, 1])
    assert reference_solve_lp(*primal)[1] == F(-1, 20)
    dual = _dual(*primal)
    assert solve_lp(*dual)[1] == F(1, 20)
    x, value = solve_lp(*dual, tiebreak=_units(3))
    assert value == F(1, 20) and x == _reference(dual[0], dual, _units(3))[0]


def test_infeasible():
    with pytest.raises(LPError, match="infeasible"):
        solve_lp([F(0)], [[1], [-1]], [F(1, 2), -2])


def test_unbounded():
    # min -x over x >= 0 is unbounded; a negative cost is rejected, so no
    # program that solve_lp accepts is unbounded
    with pytest.raises(LPError):
        solve_lp([F(-1)], [], [])


def test_lexicographically_negative_cost_vectors_are_rejected():
    # column 0's cost vector is (0, -1): zero cost, negative tie-break
    with pytest.raises(LPError, match="column 0 .* lexicographically"):
        solve_lp([0, 1], [[-1, -1]], [-1], tiebreak=[[-1, 0]])
    with pytest.raises(LPError, match="column 1 .* lexicographically"):
        solve_lp([0, 0], [[-1, -1]], [-1], tiebreak=[[1, 0], [0, -1]])
    # a negative entry after a positive one, and an all-zero column, pass
    assert solve_lp([0, 1, 0], [[-1, -1, 0]], [-1],
                    tiebreak=[[1, -5, 0]]) == ([F(1), F(0), F(0)], 0)


def test_random_lps_match_reference():
    rng = random.Random(20261018)
    outcomes = set()
    for _ in range(400):
        outcomes.add(_assert_dual_matches(_random_primal(rng)))
        lp = _random_lp(rng)
        got = _outcome(solve_lp, lp)
        want = _reference(lp[0], lp)
        assert (got is None) == (want is None), lp
        outcomes.add(got is not None)
        if got is not None:
            x, value = got
            assert value == want[1][0], lp
            _assert_feasible(x, lp)
            assert sum(a * v for a, v in zip(lp[0], x)) == value
            if _unique_optimum(lp):
                assert x == want[0], lp
    assert outcomes == {True, False}


def test_tiebreak_matches_sequential_fixing():
    rng = random.Random(42)
    for _ in range(300):
        lp = _random_lp(rng)
        units = _units(len(lp[0]))
        got = _outcome(solve_lp, lp, tiebreak=units)
        want = _reference(lp[0], lp, units)
        assert (got is None) == (want is None), lp
        if got is not None:
            assert got[0] == want[0] and got[1] == want[1][0], lp


def test_tiebreak_selects_lex_min_vertex_of_optimal_edge():
    # every point between (1/2, 3/2) and (3/2, 1/2) minimizes x1 + x2
    lp = ([F(1), F(1)], [[-1, -1], [1, 0], [0, 1]], [-2, F(3, 2), F(3, 2)])
    x, value = solve_lp(*lp)
    assert value == 2 and x in ([F(1, 2), F(3, 2)], [F(3, 2), F(1, 2)])
    e1, e2 = [1, 0], [0, 1]
    assert solve_lp(*lp, tiebreak=[e1, e2]) == ([F(1, 2), F(3, 2)], 2)
    assert solve_lp(*lp, tiebreak=[e2, e1]) == ([F(3, 2), F(1, 2)], 2)
    x, values = _reference(lp[0], lp, [e1, e2])
    assert x == [F(1, 2), F(3, 2)] and values[0] == 2


def test_infeasible_with_tiebreak():
    with pytest.raises(LPError, match="infeasible"):
        solve_lp([F(0)], [[1], [-1]], [F(1, 2), -2], tiebreak=[[F(1)]])


def _small_fraction(rng):
    return F(rng.randint(-6, 6), rng.randint(1, 12))


def _huge_fraction(rng):
    return F(rng.randint(-10 ** 12, 10 ** 12),
             rng.randint(10 ** 12 - 10 ** 6, 10 ** 12))


def _assert_same_solution(got, want, lp):
    assert (got is None) == (want is None), lp
    if got is not None:
        assert got == want, lp
        assert all(type(v) is Fraction for v in got[0])
        assert type(got[1]) is Fraction


def test_fraction_lps_match_the_reference():
    rng = random.Random(11)
    outcomes = set()
    for draw in [_small_fraction] * 200 + [_huge_fraction] * 20:
        outcomes.add(_assert_dual_matches(_random_primal(rng, draw)))
        lp = _random_lp(rng, draw)
        units = _units(len(lp[0]))
        got = _outcome(solve_lp, lp, tiebreak=units)
        want = _reference(lp[0], lp, units)
        _assert_same_solution(got, want and (want[0], want[1][0]), lp)
        outcomes.add(got is not None)
    assert outcomes == {True, False}


def test_degenerate_ratio_ties_match_the_reference():
    # small coefficients and right-hand sides in -2..2 make many ties in
    # the dual ratio test and among the rows that may leave; the unit
    # tie-breaks pin the returned optimum
    rng = random.Random(0)
    for _ in range(1500):
        n = rng.randint(2, 4)
        a_ub = [[F(rng.randint(-1, 2)) for _ in range(n)]
                for _ in range(rng.randint(2, 5))]
        lp = ([F(rng.randint(0, 2)) for _ in range(n)], a_ub,
              [F(rng.randint(-2, 2)) for _ in a_ub])
        got = _outcome(solve_lp, lp, tiebreak=_units(n))
        want = _reference(lp[0], lp, _units(n))
        _assert_same_solution(got, want and (want[0], want[1][0]), lp)


def test_pivots_follow_the_dual_bland_rules(monkeypatch):
    # any valid pivot reaches the unique lex-min optimum, so only the pivot
    # sequence shows which row leaves and which column enters on a tie
    made = []
    pivot = simplex._pivot

    def recording(rows, dens, basis, row, col):
        made.append((row, col))
        pivot(rows, dens, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", recording)
    beale = _dual([F(-3, 4), F(150), F(-1, 50), F(6)],
                  [[F(1, 4), -60, F(-1, 25), 9],
                   [F(1, 2), -90, F(-1, 50), 3],
                   [0, 0, 1, 0]],
                  [0, 0, 1])
    lps = [(beale, ()), (beale, _units(3))]
    rng = random.Random(20261020)
    for _ in range(300):
        n = rng.randint(2, 4)
        a_ub = [[F(rng.randint(-1, 1)) for _ in range(n)]
                for _ in range(rng.randint(2, 5))]
        lps.append((([F(rng.randint(0, 1)) for _ in range(n)], a_ub,
                     [F(rng.randint(-1, 1)) for _ in a_ub]), _units(n)))
    outcomes = set()
    for lp, tiebreak in lps:
        pivots, x, value = reference_dual_bland_pivots(*lp, tiebreak=tiebreak)
        made.clear()
        got = _outcome(solve_lp, lp, tiebreak=tiebreak)
        assert made == pivots, lp
        assert got == (None if x is None else (x, value)), lp
        outcomes.add((got is not None, len(pivots) > 1))
    assert outcomes == {(True, True), (True, False), (False, True),
                        (False, False)}


def test_fraction_tiebreaks_match_sequential_fixing():
    rng = random.Random(12)
    for i in range(300):
        draw = _huge_fraction if i % 10 == 0 else _small_fraction
        c, a_ub, b_ub = _random_lp(rng, draw)
        n = len(c)
        costs = _lex_nonnegative(
            [c] + [[_small_fraction(rng) for _ in range(n)]
                   for _ in range(rng.randint(1, 3))])
        lp = (costs[0], a_ub, b_ub)
        got = _outcome(solve_lp, lp, tiebreak=costs[1:])
        want = _reference(costs[0], lp, costs[1:])
        assert (got is None) == (want is None), lp
        if got is not None:
            x, value = got
            _assert_feasible(x, lp)
            assert value == want[1][0], lp
            assert [sum(a * v for a, v in zip(cost, x))
                    for cost in costs] == want[1], lp


def test_int_fraction_and_mixed_inputs_agree():
    rng = random.Random(13)
    for _ in range(200):
        c, a_ub, b_ub = lp = _random_lp(rng)
        as_int = ([int(v) for v in c], [[int(v) for v in row] for row in a_ub],
                  [int(v) for v in b_ub])
        mixed = ([v if j % 2 else int(v) for j, v in enumerate(c)], a_ub,
                 [v if j % 2 else int(v) for j, v in enumerate(b_ub)])
        want = _outcome(solve_lp, lp, tiebreak=_units(len(c)))
        reference = _reference(c, lp, _units(len(c)))
        _assert_same_solution(want, reference and (reference[0],
                                                   reference[1][0]), lp)
        for variant in (as_int, mixed):
            _assert_same_solution(
                _outcome(solve_lp, variant, tiebreak=_units(len(c))),
                want, lp)


def test_errors_on_fraction_and_huge_inputs():
    big = F(10 ** 12 + 1, 10 ** 12 - 1)
    with pytest.raises(LPError, match="lexicographically negative"):
        solve_lp([-big, F(1, 7)], [[F(-1, 3), big]], [big])
    with pytest.raises(LPError, match="infeasible"):
        solve_lp([F(0)], [[big], [-big]], [big, -2 * big])
    # a negative right-hand side is part of the contract
    assert solve_lp([F(1)], [[-big]], [-big]) == ([F(1)], F(1))
    assert solve_lp([big], [[-1]], [-big]) == ([big], big * big)


def test_pivot_keeps_rows_reduced_and_exact():
    rng = random.Random(14)
    for _ in range(200):
        m, ncols = rng.randint(2, 5), rng.randint(2, 6)
        fracs = [[F(rng.randint(-9, 9), rng.randint(1, 12))
                  for _ in range(ncols + 1)] for _ in range(m)]
        rows, dens = map(list, zip(*(simplex._scaled(r) for r in fracs)))
        basis = list(range(m))
        for _ in range(3):
            row, col = rng.randrange(m), rng.randrange(ncols)
            if not rows[row][col]:
                continue
            simplex._pivot(rows, dens, basis, row, col)
            piv = fracs[row][col]
            fracs[row] = [v / piv for v in fracs[row]]
            for r in range(m):
                if r != row:
                    factor = fracs[r][col]
                    fracs[r] = [a - factor * b
                                for a, b in zip(fracs[r], fracs[row])]
            for r in range(m):
                assert dens[r] > 0 and gcd(dens[r], *rows[r]) == 1
                assert [F(v, dens[r]) for v in rows[r]] == fracs[r]


def _cut_lp(rng):
    """A bounded LP split into initial rows and a hidden pool of rows."""
    n = rng.randint(2, 4)
    row = lambda: [rng.randint(-3, 3) for _ in range(n)]
    bound = rng.randint(1, 6)
    ub = [([1] * n, bound)] + [(row(), rng.randint(-2, 4))
                               for _ in range(rng.randint(0, 2))]
    pool = [(row(), rng.randint(-3, 5)) for _ in range(rng.randint(1, 6))]
    return [rng.randint(0, 3) for _ in range(n)], ub, pool, bound


def test_separate_matches_a_cold_solve_of_all_the_rows(monkeypatch):
    seen = {"pivots after a cut": 0, "one row": 0, "several rows": 0,
            "degenerate": 0, "infeasible cut": 0, "infeasible start": 0,
            "solved": 0}
    released = [False]
    pivot = simplex._pivot

    def checked_pivot(rows, dens, basis, row, col):
        pivot(rows, dens, basis, row, col)
        seen["pivots after a cut"] += released[0]
        for line, den in zip(rows, dens):
            assert den > 0 and gcd(den, *line) == 1
        for r, b in enumerate(basis):
            assert [line[b] for line in rows] == \
                [dens[r] if i == r else 0 for i in range(len(rows))]

    monkeypatch.setattr(simplex, "_pivot", checked_pivot)
    rng = random.Random(20261019)
    for trial in range(200):
        c, ub, pool, bound = _cut_lp(rng)
        n = len(c)
        tiebreak = _units(n) if trial % 2 else []
        infeasible_at = rng.randint(1, 3) if rng.random() < 0.2 else 0
        rows = list(ub)
        calls = [0]
        last = []

        def lp():
            return c, [a for a, _ in rows], [b for _, b in rows]

        def separate(x, value):
            want = _reference(c, lp(), tiebreak)
            assert want is not None and value == want[1][0], lp()
            if tiebreak or _unique_optimum(lp()):
                assert x == want[0], lp()
            _assert_feasible(x, lp())
            calls[0] += 1
            last[:] = x, value
            released[0] = True
            new = [pool.pop() for _ in range(min(len(pool),
                                                 rng.randint(1, 3)))]
            if rng.random() < 0.3:
                a = [rng.randint(-3, 3) for _ in range(n)]
                new.append((a, sum(v * w for v, w in zip(a, x))))
                seen["degenerate"] += 1
            if calls[0] == infeasible_at:
                new.append(([-1] * n, -bound - 1))
            seen["one row"] += len(new) == 1
            seen["several rows"] += len(new) > 1
            rows.extend(new)
            return new

        released[0] = False
        a_ub = [a for a, _ in ub]
        try:
            got = solve_lp(c, a_ub, [b for _, b in ub], tiebreak=tiebreak,
                           separate=separate)
        except LPError:
            assert _reference(c, lp(), tiebreak) is None
            seen["infeasible cut" if calls[0] else "infeasible start"] += 1
            continue
        assert not pool and list(got) == last
        assert a_ub == [a for a, _ in ub]  # the cuts never join the input
        seen["solved"] += 1
    assert all(seen.values()), seen
