"""Exact two-phase simplex on integer rows for small dense linear programs.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  exactly,
with Bland's rule, so there is no cycling and no rounding.  Problem sizes
here are tiny (tens of rows), so a dense tableau is the right tool.

Every tableau row is a list of ints with one positive denominator of its
own: entry j of row r stands for row[j] / den[r].  An input row is scaled
once by the lcm of its denominators, and its slack or artificial column
holds den[r], which still means coefficient 1.  A pivot is fraction-free
in the manner of Bareiss and Edmonds: the pivot row becomes (line, piv)
with a positive pivot, every other row becomes
(other*pden - factor*line, den*pden), and each changed row is divided by
the gcd of its denominator and entries, so the ints stay as small as the
reduced fractions they stand for.

Bland's decisions need no division.  A reduced cost's sign is its
numerator's sign; the ratio test compares rhs_r / coef_r across rows by
cross-multiplying, since each row's denominator cancels within its ratio;
ties go to the lower basis index.  The pivots are therefore exactly those
of a Fraction tableau.

The objective's reduced costs are carried as one extra row that every
pivot updates like a constraint row, so an iteration prices the columns
without recomputing them from the basis.  Optional tie-breaking objectives
are minimized in turn over the optimal face of the objectives before them,
in the same tableau: once an objective is optimal, every column with a
positive reduced cost is zero on all of its optima and is barred from
entering, and the next objective starts from the current basis.
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


def _objective_row(rows, dens, basis, cost, width):
    """Reduced costs of cost (padded with width zeros for the slack and
    artificial columns) under the current basis, then minus its value, as
    one int row and its denominator."""
    terms = [(cost[b], r) for r, b in enumerate(basis)
             if b < len(cost) and cost[b]]
    den = lcm(*(v.denominator for v in cost),
              *(cb.denominator * dens[r] for cb, r in terms))
    row = [v.numerator * (den // v.denominator) for v in cost]
    row += [0] * (width + 1)
    for cb, r in terms:
        f = cb.numerator * (den // (cb.denominator * dens[r]))
        row = [a - f * b for a, b in zip(row, rows[r])]
    return _reduce(row, den)


def _run(rows, dens, basis, allowed):
    """Optimize in place the objective held in the last tableau row."""
    m = len(basis)
    ncols = len(rows[m]) - 1
    while True:
        objective = rows[m]
        enter = -1
        for j in range(ncols):
            if allowed[j] and objective[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        for r in range(m):
            coef = rows[r][enter]
            if coef > 0:
                rhs = rows[r][ncols]
                if leave < 0:
                    leave, best_rhs, best_coef = r, rhs, coef
                    continue
                lhs, cut = rhs * best_coef, best_rhs * coef
                if lhs < cut or (lhs == cut and basis[r] < basis[leave]):
                    leave, best_rhs, best_coef = r, rhs, coef
        if leave < 0:
            raise LPError("linear program is unbounded")
        _pivot(rows, dens, basis, leave, enter)


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), tiebreak=()):
    """Returns (x, value) minimizing c.x, where value is c.x.

    Coefficients are ints or Fractions.  Each objective in tiebreak is then
    minimized over the optimal face of c and the tiebreak objectives before
    it, so unit objectives e_1, e_2, ... select the lexicographically
    smallest optimum.  Raises LPError when the program is infeasible or
    unbounded, or when an inequality row has a negative right-hand side.
    """
    n = len(c)
    m1, m2 = len(a_ub), len(a_eq)
    ncols = n + m1 + m2
    rows, dens, basis = [], [], []

    def add_row(coeffs, b, col, sign):
        ints, den = _scaled([*coeffs, b])
        line = [sign * v for v in ints[:n]] + [0] * (m1 + m2)
        line[col] = den
        line.append(sign * ints[n])
        rows.append(line)
        dens.append(den)
        basis.append(col)

    for i, (row, b) in enumerate(zip(a_ub, b_ub)):
        if b < 0:
            raise LPError("rows must be normalized to nonnegative rhs")
        add_row(row, b, n + i, 1)
    for i, (row, b) in enumerate(zip(a_eq, b_eq)):
        add_row(row, b, n + m1 + i, -1 if b < 0 else 1)

    def optimize(cost, width):
        """Run the objective cost, padded with width zero costs, from the
        current basis; returns its final reduced-cost row and that row's
        denominator."""
        row, den = _objective_row(rows, dens, basis, cost, width)
        rows.append(row)
        dens.append(den)
        _run(rows, dens, basis, allowed)
        return rows.pop(), dens.pop()

    allowed = [True] * ncols
    if m2:
        if optimize([0] * (n + m1) + [1] * m2, 0)[0][ncols] != 0:
            raise LPError("linear program is infeasible")
        # pivot surviving artificials out or leave them at zero, but never
        # let them re-enter
        for j in range(n + m1, ncols):
            allowed[j] = False
        for r in range(len(basis)):
            if basis[r] >= n + m1:
                for j in range(n + m1):
                    if rows[r][j]:
                        _pivot(rows, dens, basis, r, j)
                        break

    value = None
    for objective in (c, *tiebreak):
        reduced, den = optimize(objective, m1 + m2)
        if value is None:
            value = Fraction(-reduced[ncols], den)
        for j in range(ncols):
            if reduced[j] > 0:
                allowed[j] = False
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(rows[r][ncols], dens[r])
    return x, value
