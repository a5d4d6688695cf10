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

Each objective's reduced costs are carried as one row below the
constraint rows that every pivot updates like a constraint row, so an
iteration prices the columns without recomputing them from the basis.
Optional tie-breaking objectives are minimized in turn over the optimal
face of the objectives before them, in the same tableau: once an objective
is optimal, every column with a positive reduced cost is zero on all of
its optima and is barred from entering, and the next objective's row is
appended and run from the current basis.  The rows of c and of every
tie-breaking objective stay in the tableau.  A later stage enters only
columns whose earlier reduced costs are zero, so its pivots leave the
earlier rows unchanged, and at the end every column's vector of reduced
costs (c, tiebreak_1, ...) is zero or has a positive first nonzero entry:
the basis is lexicographically dual feasible.

That is what a cutting-plane loop needs.  After each optimum an optional
callback may return further <= rows.  Each is written in terms of the
current basis with its own slack basic (every row gains a zero column
before its right-hand side), which keeps the basis lexicographically dual
feasible, and a lexicographic dual simplex restores feasibility: the
leaving row is the one with the lowest basis index among those with a
negative right-hand side, and the entering column is, among non-artificial
columns with a negative entry in that row, the one whose reduced-cost
vector over |entry| is lexicographically smallest (cross-multiplied; ties
go to the lower column).  That is the dual Bland rule on the objective
c + eps*tiebreak_1 + eps^2*tiebreak_2 + ... for small eps, so it
terminates, and the basis it reaches is optimal for every objective in
turn, as a cold solve of all the rows would be.
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
    unit row, as one reduced int row and its denominator: a cost's reduced
    costs and minus its value, or a new constraint in terms of the basis."""
    terms = [(line[b], r) for r, b in enumerate(basis) if line[b]]
    scale = lcm(*(dens[r] for _, r in terms))
    if scale > 1:
        line = [v * scale for v in line]
    for cb, r in terms:
        f = cb * (scale // dens[r])
        line = [a - f * b for a, b in zip(line, rows[r])]
    return _reduce(line, den * scale)


def _run(rows, dens, basis, allowed):
    """Optimize in place the objective held in the last tableau row."""
    m = len(basis)
    ncols = len(rows[-1]) - 1
    while True:
        objective = rows[-1]
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


def _dual(rows, dens, basis, artificial):
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
            if size <= 0 or j in artificial:
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


def solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(), tiebreak=(),
             separate=None):
    """Returns (x, value) minimizing c.x, where value is c.x.

    Coefficients are ints or Fractions.  Each objective in tiebreak is then
    minimized over the optimal face of c and the tiebreak objectives before
    it, so unit objectives e_1, e_2, ... select the lexicographically
    smallest optimum.  Raises LPError when the program is infeasible or
    unbounded, or when an inequality row of a_ub has a negative right-hand
    side.

    separate, if given, is called as separate(x, value) after each optimum
    and returns further inequality rows as (coefficients, rhs) pairs, whose
    rhs may have either sign; they join the live tableau, which the dual
    simplex re-optimizes.  The program with those rows added is solved to
    the same (x, value) a cold solve of all the rows would return whenever
    the tie-breaking objectives make its optimum unique.  The loop ends when
    separate returns no row; the rows passed in are never appended to.
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

    def push_objective(cost):
        """Append the row of cost, padded with zero costs to every column,
        under the current basis and optimize it."""
        ints, den = _scaled(cost)
        row, den = _in_basis(rows, dens, basis,
                             ints + [0] * (ncols + 1 - len(cost)), den)
        rows.append(row)
        dens.append(den)
        _run(rows, dens, basis, allowed)

    allowed = [True] * ncols
    if m2:
        push_objective([0] * (n + m1) + [1] * m2)
        dens.pop()
        if rows.pop()[ncols] != 0:
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

    for objective in (c, *tiebreak):
        push_objective(objective)
        reduced = rows[-1]
        for j in range(ncols):
            if reduced[j] > 0:
                allowed[j] = False

    artificial = range(n + m1, ncols)
    while True:
        x = [Fraction(0)] * n
        for r, b in enumerate(basis):
            if b < n:
                x[b] = Fraction(rows[r][-1], dens[r])
        m = len(basis)  # the row of c follows the constraint rows
        value = Fraction(-rows[m][-1], dens[m])
        cuts = separate(x, value) if separate is not None else ()
        if not cuts:
            return x, value
        for coeffs, b in cuts:
            ints, den = _scaled([*coeffs, b])
            for row in rows:
                row.insert(-1, 0)
            slack = len(rows[0]) - 2
            line = ints[:n] + [0] * (slack - n) + [den, ints[n]]
            line, den = _in_basis(rows, dens, basis, line, den)
            rows.insert(len(basis), line)
            dens.insert(len(basis), den)
            basis.append(slack)
        _dual(rows, dens, basis, artificial)
