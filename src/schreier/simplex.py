"""Exact-rational two-phase simplex for small dense linear programs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  with
Fraction arithmetic and Bland's rule, so there is no cycling and no
rounding.  Problem sizes here are tiny (tens of rows), so a dense tableau
is the right tool.

The objective's reduced costs are carried as one extra tableau row that
every pivot updates like a constraint row, so an iteration prices the
columns without recomputing them from the basis.  A pivot divides only the
nonzero entries of the pivot row and updates only the columns where that
row is nonzero.

Optional tie-breaking objectives are minimized in turn over the optimal
face of the objectives before them, in the same tableau: once an objective
is optimal, every column with a positive reduced cost is zero on all of
its optima and is barred from entering, and the next objective starts from
the current basis.
"""

from __future__ import annotations

from fractions import Fraction


class LPError(RuntimeError):
    pass


def _pivot(tableau, basis, row: int, col: int):
    line = tableau[row]
    piv = line[col]
    nonzero = [j for j, v in enumerate(line) if v]
    if piv != 1:
        for j in nonzero:
            line[j] /= piv
    for r, other in enumerate(tableau):
        factor = other[col]
        if r != row and factor:
            for j in nonzero:
                other[j] -= factor * line[j]
    basis[row] = col


def _objective_row(tableau, basis, cost):
    """Reduced costs of cost under the current basis, then minus its value."""
    row = list(cost) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, v in enumerate(tableau[r]):
                if v:
                    row[j] -= cb * v
    return row


def _run(tableau, basis, allowed):
    """Optimize in place the objective held in the last tableau row."""
    m = len(basis)
    objective = tableau[m]
    ncols = len(objective) - 1
    while True:
        enter = -1
        for j in range(ncols):
            if allowed[j] and objective[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave, best = -1, None
        for r in range(m):
            coef = tableau[r][enter]
            if coef > 0:
                ratio = tableau[r][ncols] / coef
                if best is None or ratio < best or \
                        (ratio == best and basis[r] < basis[leave]):
                    leave, best = r, ratio
        if leave < 0:
            raise LPError("linear program is unbounded")
        _pivot(tableau, basis, leave, enter)


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), tiebreak=()):
    """Returns (x, value) minimizing c.x, where value is c.x.

    Each objective in tiebreak is then minimized over the optimal face of c
    and the tiebreak objectives before it, so unit objectives e_1, e_2, ...
    select the lexicographically smallest optimum.  Raises LPError when the
    program is infeasible or unbounded, or when an inequality row has a
    negative right-hand side.
    """
    n = len(c)
    m1, m2 = len(a_ub), len(a_eq)
    ncols = n + m1 + m2
    tableau = []
    basis = []
    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        b = Fraction(b)
        if b < 0:
            raise LPError("rows must be normalized to nonnegative rhs")
        line = [Fraction(v) for v in row] + [Fraction(0)] * (m1 + m2)
        line[n + i] = Fraction(1)
        line.append(b)
        tableau.append(line)
        basis.append(n + i)
    for i, (row, b) in enumerate(zip(a_eq, b_eq)):
        b = Fraction(b)
        if b < 0:
            row = [-Fraction(v) for v in row]
            b = -b
        line = [Fraction(v) for v in row] + [Fraction(0)] * (m1 + m2)
        line[n + m1 + i] = Fraction(1)
        line.append(b)
        tableau.append(line)
        basis.append(n + m1 + i)

    allowed = [True] * ncols
    if m2:
        phase1 = [Fraction(0)] * (n + m1) + [Fraction(1)] * m2
        tableau.append(_objective_row(tableau, basis, phase1))
        _run(tableau, basis, allowed)
        if tableau.pop()[ncols] != 0:
            raise LPError("linear program is infeasible")
        # pivot surviving artificials out or leave them at zero, but never
        # let them re-enter
        for j in range(n + m1, ncols):
            allowed[j] = False
        for r in range(len(basis)):
            if basis[r] >= n + m1:
                for j in range(n + m1):
                    if tableau[r][j]:
                        _pivot(tableau, basis, r, j)
                        break

    value = None
    for objective in (c, *tiebreak):
        cost = [Fraction(v) for v in objective] + [Fraction(0)] * (m1 + m2)
        tableau.append(_objective_row(tableau, basis, cost))
        _run(tableau, basis, allowed)
        reduced = tableau.pop()
        if value is None:
            value = -reduced[ncols]
        for j in range(ncols):
            if reduced[j] > 0:
                allowed[j] = False
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][ncols]
    return x, value
