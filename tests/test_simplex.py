import random
from fractions import Fraction

import pytest

from schreier.simplex import LPError, solve_lp

from oracles import reference_sequential_lex, reference_solve_lp

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
        assert value == want[1], lp
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
