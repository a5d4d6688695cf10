"""Exact lexicographic dual simplex on integer rows for small dense linear
programs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  x >= 0  exactly, where b_ub may have
either sign.  Optional tie-breaking objectives are minimized in turn over
the optimal face of c and the objectives before them.  Problem sizes here
are tiny (tens of rows), so a dense tableau is the right tool.

There is one method.  The tableau starts as the rows of c and of every
tie-breaking objective, with no constraint row: at this slack basis each
column's reduced costs are its costs, and every objective's value is 0.
Each column's cost vector (c_j, tiebreak_1[j], ...) must be zero or have a
positive first nonzero entry, so the start is lexicographically dual
feasible.  As c >= 0 and x >= 0, the program is never unbounded.

There is one row path.  Every row, whether passed in or returned by the
cutting-plane callback, enters the same way: every tableau row gains a zero
slack column before its right-hand side, the new row is written in terms of
the current basis with its own slack basic, and it goes in above the
objective rows.  The basis stays lexicographically dual feasible, and the
lexicographic dual simplex restores primal feasibility.  The leaving row is
the one with the lowest basis index among those with a negative right-hand
side.  The entering column is, among the columns with a negative entry in
that row, the one whose reduced-cost vector over |entry| is
lexicographically smallest; ties go to the lower column.  That is the dual
Bland rule on the objective c + eps*tiebreak_1 + eps^2*tiebreak_2 + ... for
small eps, so it terminates, and the basis it reaches is optimal for every
objective in turn.  A leaving row with no negative entry proves the program
infeasible.

Every tableau row is a list of ints with one positive denominator of its
own: entry j of row r stands for row[j] / den[r].  An input row is scaled
once by the lcm of its denominators, and its slack column holds den[r],
which still means coefficient 1.  A pivot is fraction-free in the manner of
Bareiss and Edmonds: the pivot row becomes (line, piv) with a positive
pivot, every other row becomes (other*pden - factor*line, den*pden), and
each changed row is divided by the gcd of its denominator and entries, so
the ints stay as small as the reduced fractions they stand for.  The dual
rule needs no division: a right-hand side's sign is its numerator's sign,
and the ratio test cross-multiplies, since each row's denominator cancels
within its ratio.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class LPError(RuntimeError):
    pass


def _reduce(row, den):
    g = gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _scaled(values):
    """(ints, den): the values as ints over the lcm of their denominators."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _pivot(rows, dens, basis, row: int, col: int):
    line, piv = rows[row], rows[row][col]
    if piv < 0:
        line, piv = [-v for v in line], -piv
    line, pden = _reduce(line, piv)
    rows[row], dens[row] = line, pden
    for r, other in enumerate(rows):
        factor = other[col]
        if r != row and factor:
            rows[r], dens[r] = _reduce(
                [a * pden - factor * b for a, b in zip(other, line)],
                dens[r] * pden)
    basis[row] = col


def _in_basis(rows, dens, basis, line, den):
    """The row line / den with every basic column eliminated against its
    unit row, as one reduced int row and its denominator: a new constraint
    in terms of the basis."""
    terms = [(line[b], r) for r, b in enumerate(basis) if line[b]]
    scale = lcm(*(dens[r] for _, r in terms))
    if scale > 1:
        line = [v * scale for v in line]
    for cb, r in terms:
        f = cb * (scale // dens[r])
        line = [a - f * b for a, b in zip(line, rows[r])]
    return _reduce(line, den * scale)


def _dual(rows, dens, basis):
    """Restore nonnegative right-hand sides in place by the lexicographic
    dual simplex; the objective rows follow the constraint rows."""
    m = len(basis)
    ncols = len(rows[0]) - 1
    while True:
        leave = -1
        for r in range(m):
            if rows[r][ncols] < 0 and (leave < 0 or basis[r] < basis[leave]):
                leave = r
        if leave < 0:
            return
        line, objectives = rows[leave], rows[m:]
        enter = -1
        for j in range(ncols):
            size = -line[j]
            if size <= 0:
                continue
            if enter >= 0:
                for objective in objectives:
                    lhs, rhs = objective[j] * best, objective[enter] * size
                    if lhs != rhs:
                        break
                if lhs >= rhs:
                    continue
            enter, best = j, size
        if enter < 0:
            raise LPError("linear program is infeasible")
        _pivot(rows, dens, basis, leave, enter)


def solve_lp(c, a_ub=(), b_ub=(), tiebreak=(), separate=None):
    """Returns (x, value) minimizing c.x subject to a_ub.x <= b_ub and
    x >= 0, where value is c.x; b_ub may have either sign.

    Coefficients are ints or Fractions.  Each objective in tiebreak is then
    minimized over the optimal face of c and the tiebreak objectives before
    it, so unit objectives e_1, e_2, ... select the lexicographically
    smallest optimum.  Every column's cost vector (c_j, tiebreak_1[j], ...)
    must be zero or have a positive first nonzero entry.  Raises LPError
    when it does not, or when the program is infeasible.

    separate, if given, is called as separate(x, value) after each optimum
    and returns further inequality rows as (coefficients, rhs) pairs, whose
    rhs may have either sign; they join the live tableau, which the dual
    simplex re-optimizes.  The program with those rows added is solved to
    the same (x, value) a cold solve of all the rows would return whenever
    the tie-breaking objectives make its optimum unique.  The loop ends when
    separate returns no row; the rows passed in are never appended to.
    """
    n = len(c)
    rows, dens, basis = [], [], []
    for cost in (c, *tiebreak):
        line, den = _scaled([*cost, 0])
        rows.append(line)
        dens.append(den)
    for j in range(n):
        if next((row[j] for row in rows if row[j]), 0) < 0:
            raise LPError(f"column {j} has a lexicographically negative "
                          f"cost vector")

    new = zip(a_ub, b_ub)
    while True:
        for coeffs, b in new:
            ints, den = _scaled([*coeffs, b])
            for row in rows:
                row.insert(-1, 0)
            slack = len(rows[0]) - 2
            line = ints[:n] + [0] * (slack - n) + [den, ints[n]]
            line, den = _in_basis(rows, dens, basis, line, den)
            rows.insert(len(basis), line)
            dens.insert(len(basis), den)
            basis.append(slack)
        _dual(rows, dens, basis)
        x = [Fraction(0)] * n
        for r, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(rows[r][-1], dens[r])
        m = len(basis)  # the row of c follows the constraint rows
        value = Fraction(-rows[m][-1], dens[m])
        new = separate(x, value) if separate is not None else ()
        if not new:
            return x, value
