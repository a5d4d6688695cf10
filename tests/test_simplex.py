import random
from fractions import Fraction
from math import gcd

import pytest

from schreier import simplex
from schreier.simplex import LPError, solve_lp

from oracles import (reference_sequential_lex, reference_solve_lp,
                     reference_tableau_solve_lp)

F = Fraction


def test_basic_minimization():
    x, v = solve_lp([F(-1), F(-2)], [[1, 1], [1, 0]], [4, 2])
    assert v == -8 and x == [F(0), F(4)]


def test_equality_constraints():
    x, v = solve_lp([F(1), F(1)], [], [], [[1, 2]], [F(3)])
    assert v == F(3, 2) and x == [F(0), F(3, 2)]


def test_degenerate_does_not_cycle():
    # multiple ties in the ratio test; Bland's rule must terminate
    x, v = solve_lp([F(-3, 4), F(150), F(-1, 50), F(6)],
                    [[F(1, 4), -60, F(-1, 25), 9],
                     [F(1, 2), -90, F(-1, 50), 3],
                     [0, 0, 1, 0]],
                    [0, 0, 1])
    assert v == F(-1, 20)


def test_infeasible():
    with pytest.raises(LPError):
        solve_lp([F(0)], [[1]], [F(1, 2)], [[1]], [2])


def test_unbounded():
    with pytest.raises(LPError):
        solve_lp([F(-1)], [], [])


def test_negative_rhs_rejected_for_inequalities():
    with pytest.raises(LPError):
        solve_lp([F(1)], [[1]], [-1])


def _random_lp(rng):
    n = rng.randint(1, 4)
    row = lambda: [F(rng.randint(-3, 3)) for _ in range(n)]
    a_ub = [row() for _ in range(rng.randint(0, 3))]
    a_eq = [row() for _ in range(rng.randint(0, 2))]
    return (row(), a_ub, [F(rng.randint(0, 4)) for _ in a_ub],
            a_eq, [F(rng.randint(-3, 3)) for _ in a_eq])


def _outcome(solver, lp, **kwargs):
    try:
        return solver(*lp, **kwargs)
    except LPError:
        return None


def _assert_feasible(x, lp):
    _, a_ub, b_ub, a_eq, b_eq = lp
    dot = lambda row: sum(a * v for a, v in zip(row, x))
    assert all(v >= 0 for v in x)
    assert all(dot(row) <= b for row, b in zip(a_ub, b_ub))
    assert all(dot(row) == b for row, b in zip(a_eq, b_eq))


def test_random_lps_match_reference():
    rng = random.Random(20261018)
    solved = failed = 0
    for _ in range(400):
        lp = _random_lp(rng)
        got = _outcome(solve_lp, lp)
        want = _outcome(reference_solve_lp, lp)
        assert (got is None) == (want is None), lp
        if got is None:
            failed += 1
            continue
        solved += 1
        x, value = got
        assert value == want[1] and x == want[0], lp
        _assert_feasible(x, lp)
        assert sum(a * v for a, v in zip(lp[0], x)) == value
    assert solved > 50 and failed > 50


def test_tiebreak_matches_sequential_fixing():
    rng = random.Random(42)
    for _ in range(300):
        lp = _random_lp(rng)
        n = len(lp[0])
        units = [[F(int(i == j)) for j in range(n)] for i in range(n)]
        got = _outcome(solve_lp, lp, tiebreak=units)
        want = _outcome(reference_sequential_lex, ([lp[0]] + units,) + lp[1:])
        assert (got is None) == (want is None), lp
        if got is not None:
            assert got[0] == want[0] and got[1] == want[1][0], lp


def test_tiebreak_selects_lex_min_vertex_of_optimal_edge():
    # every point between (1/2, 3/2) and (3/2, 1/2) minimizes -x1 - x2
    lp = ([F(-1), F(-1)], [[1, 1], [1, 0], [0, 1]], [2, F(3, 2), F(3, 2)])
    assert solve_lp(*lp) == ([F(3, 2), F(1, 2)], -2)
    e1, e2 = [1, 0], [0, 1]
    assert solve_lp(*lp, tiebreak=[e1, e2]) == ([F(1, 2), F(3, 2)], -2)
    assert solve_lp(*lp, tiebreak=[e2, e1]) == ([F(3, 2), F(1, 2)], -2)
    x, values = reference_sequential_lex([lp[0], e1, e2], *lp[1:])
    assert x == [F(1, 2), F(3, 2)] and values[0] == -2


def test_infeasible_with_tiebreak():
    with pytest.raises(LPError):
        solve_lp([F(0)], [[1]], [F(1, 2)], [[1]], [2], tiebreak=[[F(1)]])


def _fraction_lp(rng, draw):
    n = rng.randint(1, 4)
    row = lambda: [draw() for _ in range(n)]
    a_ub = [row() for _ in range(rng.randint(0, 3))]
    a_eq = [row() for _ in range(rng.randint(0, 2))]
    return (row(), a_ub, [abs(draw()) for _ in a_ub],
            a_eq, [draw() for _ in a_eq])


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


def test_fraction_lps_make_the_reference_pivots():
    # the optimum need not be unique, so equal x means equal pivots
    rng = random.Random(11)
    outcomes = set()
    for draw in [_small_fraction] * 400 + [_huge_fraction] * 40:
        lp = _fraction_lp(rng, lambda: draw(rng))
        got = _outcome(solve_lp, lp)
        _assert_same_solution(got, _outcome(reference_solve_lp, lp), lp)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_degenerate_ratio_ties_make_the_reference_pivots():
    # small coefficients and rhs in 0..2 make many ratio-test ties; in a few
    # of these LPs the lower-basis-index rule decides which optimal vertex
    # is returned
    rng = random.Random(0)
    for _ in range(3000):
        n = rng.randint(2, 4)
        row = lambda: [F(rng.randint(-1, 2)) for _ in range(n)]
        a_ub = [row() for _ in range(rng.randint(2, 5))]
        a_eq = [row() for _ in range(rng.randint(0, 1))]
        lp = ([F(rng.randint(-2, 1)) for _ in range(n)],
              a_ub, [F(rng.randint(0, 2)) for _ in a_ub],
              a_eq, [F(rng.randint(0, 2)) for _ in a_eq])
        _assert_same_solution(_outcome(solve_lp, lp),
                              _outcome(reference_solve_lp, lp), lp)


def test_tiebreak_stages_make_the_fraction_tableau_pivots():
    rng = random.Random(12)
    for i in range(300):
        draw = _huge_fraction if i % 10 == 0 else _small_fraction
        lp = _fraction_lp(rng, lambda: draw(rng))
        n = len(lp[0])
        tiebreak = [[_small_fraction(rng) for _ in range(n)]
                    for _ in range(rng.randint(1, 3))]
        _assert_same_solution(
            _outcome(solve_lp, lp, tiebreak=tiebreak),
            _outcome(reference_tableau_solve_lp, lp, tiebreak=tiebreak), lp)


def test_int_fraction_and_mixed_inputs_agree():
    rng = random.Random(13)
    for _ in range(200):
        lp = _random_lp(rng)
        as_int = [[int(v) for v in lp[0]]] + [
            [[int(v) for v in row] for row in part] if i % 2 == 0
            else [int(v) for v in part]
            for i, part in enumerate(lp[1:])]
        mixed = [[v if j % 2 else int(v) for j, v in enumerate(lp[0])]] + \
            list(lp[1:])
        want = _outcome(reference_solve_lp, lp)
        for variant in (lp, as_int, mixed):
            _assert_same_solution(_outcome(solve_lp, variant), want, lp)


def test_errors_on_fraction_and_huge_inputs():
    big = F(10 ** 12 + 1, 10 ** 12 - 1)
    with pytest.raises(LPError, match="normalized"):
        solve_lp([F(1)], [[big]], [-big])
    with pytest.raises(LPError, match="infeasible"):
        solve_lp([F(0)], [[big]], [big], [[big]], [2 * big])
    with pytest.raises(LPError, match="unbounded"):
        solve_lp([-big, F(1, 7)], [[F(-1, 3), big]], [big])
    # a negative equality right-hand side is negated, not rejected
    assert solve_lp([F(1)], [], [], [[-big]], [-big]) == ([F(1)], F(1))


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


def _reference_with_cuts(c, ub, eq, tiebreak):
    """(x, value) of a cold solve of all the rows, or None when it raises.

    A <= row with a negative right-hand side becomes an equality row with a
    surplus variable of its own, which the reference solvers accept."""
    n = len(c)
    neg = [(a, b) for a, b in ub if b < 0]
    pad = lambda row: list(row) + [0] * len(neg)
    a_ub = [pad(a) for a, b in ub if b >= 0]
    b_ub = [b for _, b in ub if b >= 0]
    a_eq = [pad(a) for a, _ in eq] + [
        list(a) + [int(i == j) for j in range(len(neg))]
        for i, (a, _) in enumerate(neg)]
    b_eq = [b for _, b in eq] + [b for _, b in neg]
    try:
        if tiebreak:
            x, values = reference_sequential_lex(
                [pad(c)] + [pad(t) for t in tiebreak], a_ub, b_ub, a_eq, b_eq)
            return x[:n], values[0]
        x, value = reference_solve_lp(pad(c), a_ub, b_ub, a_eq, b_eq)
        return x[:n], value
    except LPError:
        return None


def _unique_optimum(c, ub, eq):
    """Whether the optimal face is one point: its lexicographically
    smallest and largest points agree."""
    n = len(c)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    lo = _reference_with_cuts(c, ub, eq, units)
    hi = _reference_with_cuts(c, ub, eq, [[-v for v in u] for u in units])
    return lo == hi


def _cut_lp(rng):
    """A bounded LP split into initial rows and a hidden pool of rows."""
    n = rng.randint(2, 4)
    row = lambda: [rng.randint(-3, 3) for _ in range(n)]
    bound = rng.randint(1, 6)
    ub = [([1] * n, bound)] + [(row(), rng.randint(0, 4))
                               for _ in range(rng.randint(0, 2))]
    eq = [([rng.randint(0, 2) for _ in range(n)], rng.randint(0, 3))
          for _ in range(rng.random() < 0.3)]
    pool = [(row(), rng.randint(-1, 5)) for _ in range(rng.randint(1, 6))]
    return [rng.randint(-3, 3) for _ in range(n)], ub, eq, pool, bound


def test_separate_matches_a_cold_solve_of_all_the_rows(monkeypatch):
    seen = {"dual pivots": 0, "one row": 0, "several rows": 0,
            "degenerate": 0, "infeasible cut": 0, "infeasible start": 0,
            "solved": 0}
    released = [False]
    pivot = simplex._pivot

    def checked_pivot(rows, dens, basis, row, col):
        pivot(rows, dens, basis, row, col)
        seen["dual pivots"] += released[0]
        for line, den in zip(rows, dens):
            assert den > 0 and gcd(den, *line) == 1
        for r, b in enumerate(basis):
            assert [line[b] for line in rows] == \
                [dens[r] if i == r else 0 for i in range(len(rows))]

    monkeypatch.setattr(simplex, "_pivot", checked_pivot)
    rng = random.Random(20261019)
    for trial in range(200):
        c, ub, eq, pool, bound = _cut_lp(rng)
        n = len(c)
        tiebreak = [[int(i == j) for j in range(n)] for i in range(n)] \
            if trial % 2 else []
        infeasible_at = rng.randint(1, 3) if rng.random() < 0.2 else 0
        rows = list(ub)
        calls = [0]
        last = []

        def separate(x, value):
            want = _reference_with_cuts(c, rows, eq, tiebreak)
            assert want is not None and value == want[1], (c, rows, eq)
            if tiebreak or _unique_optimum(c, rows, eq):
                assert x == want[0], (c, rows, eq)
            _assert_feasible(x, (c, [a for a, _ in rows],
                                 [b for _, b in rows],
                                 [a for a, _ in eq], [b for _, b in eq]))
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
            got = solve_lp(c, a_ub, [b for _, b in ub],
                           [a for a, _ in eq], [b for _, b in eq],
                           tiebreak=tiebreak, separate=separate)
        except LPError:
            assert _reference_with_cuts(c, rows, eq, tiebreak) is None
            seen["infeasible cut" if calls[0] else "infeasible start"] += 1
            continue
        assert not pool and list(got) == last
        assert a_ub == [a for a, _ in ub]  # the cuts never join the input
        seen["solved"] += 1
    assert all(seen.values()), seen
