"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's optimized paths: decompositions are
searched exhaustively, norms are maximized by full enumeration, and convex
minima come from a one-shot LP over the complete dual description plus
grid search, solved by a dense tableau of its own that recomputes every
reduced cost and updates every entry.  Slow and simple on purpose.  The
library's earlier Fraction tableau is kept as well, to pin the pivots of
the integer-row tableau that replaced it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from schreier import ordinals
from schreier.simplex import LPError
from schreier.spaces import combine


def _consecutive_splits(e: tuple):
    """Every split of a nonempty e into consecutive nonempty blocks."""
    n = len(e)
    for cuts in itertools.product((0, 1), repeat=n - 1):
        blocks = []
        start = 0
        for i, c in enumerate(cuts, start=1):
            if c:
                blocks.append(e[start:i])
                start = i
        blocks.append(e[start:])
        yield blocks


def brute_ordinal_member(xi, e: tuple, _memo={}) -> bool:
    """Membership at any ordinal stage by exhaustive decomposition search.

    A limit stage delegates to fs(xi, min E) + 1; a successor stage tries
    every split into at most min E consecutive previous-stage blocks.
    """
    key = (xi, e)
    if key in _memo:
        return _memo[key]
    if not e:
        result = True
    elif xi.is_zero:
        result = len(e) <= 1
    elif xi.is_limit:
        result = brute_ordinal_member(
            ordinals.add(ordinals.fund_seq(xi, e[0]), ordinals.ONE), e)
    else:
        child = ordinals.successor_part(xi)
        result = any(len(blocks) <= e[0] and
                     all(brute_ordinal_member(child, b) for b in blocks)
                     for blocks in _consecutive_splits(e))
    _memo[key] = result
    return result


def brute_schreier_member(level: int, e: tuple) -> bool:
    """Finite-stage membership by exhaustive decomposition search."""
    return brute_ordinal_member(ordinals.from_int(level), e)


def brute_compose_member(outer, inner, e: tuple) -> bool:
    """Membership in F[G] by exhaustive split search.

    ``outer`` and ``inner`` are membership predicates for F and G.  Every
    split of e into consecutive G-blocks is tried, and F is asked only
    about the complete minima set, so nothing assumes that F or G is
    hereditary or spreading.  The empty set is a member iff both F and G
    contain it.
    """
    e = tuple(e)
    if not e:
        return outer(()) and inner(())

    def splits(rest: tuple, mins: tuple) -> bool:
        if not rest:
            return outer(mins)
        return any(inner(rest[:j]) and splits(rest[j:], mins + (rest[0],))
                   for j in range(1, len(rest) + 1))

    return splits(e, ())


def brute_schreier_norm(fam, x) -> Fraction:
    """Max of restricted absolute sums over every admissible subset."""
    items = [(k, abs(v)) for k, v in x.coords]
    best = Fraction(0)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            e = tuple(k for k, _ in combo)
            if fam.contains(e):
                best = max(best, sum((w for _, w in combo), Fraction(0)))
    return best


def brute_stage_norm(xi, x) -> Fraction:
    """The S_xi norm by full enumeration, with membership decided by
    exhaustive decomposition search instead of the library's walk."""
    items = [(k, abs(v)) for k, v in x.coords]
    best = Fraction(0)
    for r in range(len(items) + 1):
        for combo in itertools.combinations(items, r):
            if brute_ordinal_member(xi, tuple(k for k, _ in combo)):
                best = max(best, sum((w for _, w in combo), Fraction(0)))
    return best


def _brute_ravg_block(xi, values, start: int) -> tuple[dict, int]:
    """(weights, next position) of the stage-xi measure whose support
    starts at values[start]."""
    if start >= len(values):
        raise IndexError(f"the list ran out after {len(values)} values")
    p = values[start]
    if xi.is_zero:
        return {p: Fraction(1)}, start + 1
    if xi.is_limit:
        return _brute_ravg_block(
            ordinals.add(ordinals.fund_seq(xi, p), ordinals.ONE), values, start)
    # p successive child measures take at least one value each
    if start + p > len(values):
        raise IndexError(f"the list ran out after {len(values)} values")
    child = ordinals.successor_part(xi)
    weights, pos = {}, start
    for _ in range(p):
        block, pos = _brute_ravg_block(child, values, pos)
        for k, w in block.items():
            weights[k] = w / p
    return weights, pos


def brute_ravg_measure(xi, values, n: int) -> dict:
    """The n-th stage-xi repeated-averages measure on a finite increasing
    list, as {point: weight}, straight from the recursive definition.

    Stage 0 is the Dirac measure at the first value; stage zeta+1 averages
    the p successive stage-zeta measures that start at the first value p;
    a limit stage lam is stage fs(lam, p) + 1.  Raises IndexError once the
    list runs out.
    """
    pos = 0
    for _ in range(n):
        weights, pos = _brute_ravg_block(xi, values, pos)
    return weights


def tree_segments(nodes) -> list[tuple]:
    """All (top, bottom) chains in a prefix-closed node set."""
    nodes = sorted(nodes)
    return [(u, v) for u in nodes for v in nodes
            if len(u) <= len(v) and v[:len(u)] == u]


def _segment_nodes(seg) -> list[tuple]:
    top, bottom = seg
    return [bottom[:k] for k in range(len(top), len(bottom) + 1)]


def _segments_incomparable(a, b) -> bool:
    for u in _segment_nodes(a):
        for v in _segment_nodes(b):
            if u[:len(v)] == v or v[:len(u)] == u:
                return False
    return True


_ANTICHAIN_CACHE: dict = {}


def tree_antichain_families(nodes):
    """All maximal families of pairwise incomparable segments.

    Maximal antichains are the maximal cliques of the compatibility graph,
    enumerated once per tree by Bron-Kerbosch; segment values are
    nonnegative, so maximal families dominate the norm maximum.
    """
    key = tuple(sorted(nodes))
    hit = _ANTICHAIN_CACHE.get(key)
    if hit is not None:
        return hit
    segs = tree_segments(nodes)
    n = len(segs)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if _segments_incomparable(segs[i], segs[j]):
                adj[i].add(j)
                adj[j].add(i)
    cliques = []

    def bk(r, p, x):
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = max(p | x, key=lambda v: len(adj[v]))
        for v in sorted(p - adj[pivot]):
            bk(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    bk(set(), set(range(n)), set())
    families = [[_segment_nodes(segs[i]) for i in clique]
                for clique in cliques]
    _ANTICHAIN_CACHE[key] = families
    return families


def brute_tree_norm(nodes, x) -> Fraction:
    """Max over families of pairwise incomparable segments."""
    vals = dict(x.coords)
    best = Fraction(0)
    for family in tree_antichain_families(nodes):
        total = Fraction(0)
        for seg_nodes in family:
            total += max(abs(vals.get(u, Fraction(0))) for u in seg_nodes)
        if total > best:
            best = total
    return best


def _forest_shape(forest, site=()):
    kids = sorted(t for t in forest
                  if len(t) == len(site) + 1 and t[:len(site)] == site)
    return tuple(sorted(_forest_shape(forest, k) for k in kids))


def all_forests(max_nodes: int):
    """Prefix-closed node sets with <= max_nodes nodes, one per shape.

    The segment norm only sees the comparability structure, so forests are
    deduplicated up to order-preserving relabeling.
    """
    shapes = {0: [frozenset()]}

    def extend(forest):
        out = []
        sites = [()] + sorted(forest)
        for site in sites:
            k = 1 + sum(1 for t in forest
                        if len(t) == len(site) + 1 and t[:len(site)] == site)
            out.append(forest | {site + (k,)})
        return out

    result = []
    for n in range(1, max_nodes + 1):
        seen = {}
        for f in shapes[n - 1]:
            for g in extend(f):
                seen.setdefault(_forest_shape(g), g)
        shapes[n] = sorted(seen.values(), key=sorted)
        result.extend(shapes[n])
    return result


def _reference_pivot(tableau, basis, row: int, col: int):
    piv = tableau[row][col]
    tableau[row] = [v / piv for v in tableau[row]]
    for r, line in enumerate(tableau):
        if r != row and line[col]:
            factor = line[col]
            tableau[r] = [v - factor * w for v, w in zip(line, tableau[row])]
    basis[row] = col


def _reference_run(tableau, basis, cost, allowed, ncols):
    """Optimize the tableau in place; cost is indexed by column."""
    m = len(basis)
    while True:
        # reduced costs under the current basis
        reduced = list(cost)
        for r in range(m):
            cb = cost[basis[r]]
            if cb:
                row = tableau[r]
                for j in range(ncols):
                    reduced[j] -= cb * row[j]
        enter = -1
        for j in range(ncols):
            if allowed[j] and reduced[j] < 0:
                enter = j
                break
        if enter < 0:
            value = Fraction(0)
            for r in range(m):
                value += cost[basis[r]] * tableau[r][ncols]
            return value
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
        _reference_pivot(tableau, basis, leave, enter)


def reference_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Two-phase dense Bland simplex: (x, value) minimizing c.x.

    Raises LPError when the program is infeasible or unbounded, or when an
    inequality row has a negative right-hand side.
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
        phase1 = [Fraction(0)] * ncols
        for j in range(n + m1, ncols):
            phase1[j] = Fraction(1)
        value = _reference_run(tableau, basis, phase1, allowed, ncols)
        if value != 0:
            raise LPError("linear program is infeasible")
        # pivot surviving artificials out or leave them at zero, but never
        # let them re-enter
        for j in range(n + m1, ncols):
            allowed[j] = False
        for r in range(len(basis)):
            if basis[r] >= n + m1:
                for j in range(n + m1):
                    if tableau[r][j]:
                        _reference_pivot(tableau, basis, r, j)
                        break

    cost = [Fraction(v) for v in c] + [Fraction(0)] * (m1 + m2)
    value = _reference_run(tableau, basis, cost, allowed, ncols)
    x = [Fraction(0)] * n
    for r, b in enumerate(basis):
        if b < n:
            x[b] = tableau[r][ncols]
    return x, value


def _fraction_pivot(tableau, basis, row: int, col: int):
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


def _fraction_objective_row(tableau, basis, cost):
    row = list(cost) + [Fraction(0)]
    for r, b in enumerate(basis):
        cb = cost[b]
        if cb:
            for j, v in enumerate(tableau[r]):
                if v:
                    row[j] -= cb * v
    return row


def _fraction_run(tableau, basis, allowed):
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
        _fraction_pivot(tableau, basis, leave, enter)


def reference_tableau_solve_lp(c, a_ub=(), b_ub=(), a_eq=(), b_eq=(),
                               tiebreak=()):
    """The library's earlier Fraction tableau, kept verbatim: the carried
    reduced-cost row and the in-tableau tie-breaking stages of
    ``solve_lp``, with every entry a Fraction.  Its pivots are the ones the
    integer-row tableau must make, tie-breaking stages included."""
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
        tableau.append(_fraction_objective_row(tableau, basis, phase1))
        _fraction_run(tableau, basis, allowed)
        if tableau.pop()[ncols] != 0:
            raise LPError("linear program is infeasible")
        for j in range(n + m1, ncols):
            allowed[j] = False
        for r in range(len(basis)):
            if basis[r] >= n + m1:
                for j in range(n + m1):
                    if tableau[r][j]:
                        _fraction_pivot(tableau, basis, r, j)
                        break

    value = None
    for objective in (c, *tiebreak):
        cost = [Fraction(v) for v in objective] + [Fraction(0)] * (m1 + m2)
        tableau.append(_fraction_objective_row(tableau, basis, cost))
        _fraction_run(tableau, basis, allowed)
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


def reference_sequential_lex(objectives, a_ub=(), b_ub=(), a_eq=(), b_eq=()):
    """Minimize each objective in turn, fixing the optimal values of the
    objectives before it by equality rows; returns (x, values)."""
    a_eq, b_eq = list(a_eq), list(b_eq)
    values = []
    x = None
    for objective in objectives:
        x, value = reference_solve_lp(objective, a_ub, b_ub, a_eq, b_eq)
        values.append(value)
        a_eq.append(list(objective))
        b_eq.append(value)
    return x, values


def _full_dual_rows(engine, vecs) -> list:
    """Every admissible-set-and-sign functional of the engine, evaluated on
    vecs, over their combined support."""
    support = sorted({k for v in vecs for k in v.support})
    rows = []
    kind = engine.spec()["kind"]
    if kind == "ell1":
        admissible = [support]
    elif kind == "sup":
        admissible = [[k] for k in support]
    elif kind == "schreier":
        admissible = [list(c) for r in range(1, len(support) + 1)
                      for c in itertools.combinations(support, r)
                      if engine.family.contains(c)]
    else:
        raise ValueError(f"no full dual description for {kind}")
    for e in admissible:
        for sgn_pattern in itertools.product((1, -1), repeat=len(e)):
            functional = dict(zip(e, sgn_pattern))
            rows.append([sum(Fraction(functional.get(k, 0)) * v[k]
                             for k in e) for v in vecs])
    return rows


def _signed(vectors, f, signs) -> list:
    signs = signs or (1,) * len(f)
    return [vectors[i - 1].scale(s) for i, s in zip(f, signs)]


def _full_dual_value(rows, k: int) -> Fraction:
    a_ub = [row + [Fraction(-1)] for row in rows]
    b_ub = [Fraction(0)] * len(rows)
    a_eq = [[Fraction(1)] * k + [Fraction(0)]]
    _, value = reference_solve_lp([Fraction(0)] * k + [Fraction(1)],
                                  a_ub, b_ub, a_eq, [Fraction(1)])
    return value


def full_dual_min_convex(engine, vectors, f, signs=None) -> Fraction:
    """Exact convex minimum via one LP over the complete dual description.

    Enumerates every admissible-set-and-sign functional of the engine on
    the combined support, so no cutting loop is involved.
    """
    return _full_dual_value(_full_dual_rows(engine, _signed(vectors, f, signs)),
                            len(f))


def reference_lex_min_convex(engine, vectors, f, signs=None) -> tuple:
    """Lexicographically smallest minimizer of the convex minimum.

    Over the complete dual description capped at the optimal value v*,
    minimizes each coefficient in turn by its own LP, with equality rows
    fixing the coefficients before it.
    """
    rows = _full_dual_rows(engine, _signed(vectors, f, signs))
    k = len(f)
    v_star = _full_dual_value(rows, k)
    units = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    x, _ = reference_sequential_lex(units, rows, [v_star] * len(rows),
                                    [[Fraction(1)] * k], [Fraction(1)])
    return tuple(x)


def reference_cutting_plane_min_convex(engine, vectors, f,
                                       signs=None) -> tuple:
    """The library's earlier cutting-plane loop, kept verbatim: every round
    solves its relaxation cold with ``reference_tableau_solve_lp`` and
    e_1, ..., e_k as tie-breaking objectives, and a certificate is told
    apart from the ones before it by its coefficients on the support.
    Returns (value, coefficients, rounds)."""
    vecs = _signed(vectors, f, signs)
    support = sorted({k for v in vecs for k in v.support})
    k = len(f)
    rows: list[list[Fraction]] = []
    fingerprints: set[tuple] = set()

    def add_cert(cert) -> bool:
        added = False
        base = [cert.coefficient(key) for key in support]
        values = None
        for sgn in (1, -1):
            fp = tuple(sgn * c for c in base)
            if fp in fingerprints:
                continue
            fingerprints.add(fp)
            if values is None:
                values = [cert.evaluate(v) for v in vecs]
            rows.append([sgn * v for v in values])
            added = True
        return added

    for v in vecs:
        add_cert(engine.norm(v)[1])
    units = [[Fraction(int(i == j)) for j in range(k + 1)] for i in range(k)]

    rounds = 0
    while True:
        rounds += 1
        if rounds > 500:
            raise RuntimeError("cutting plane loop exceeded its round limit")
        a_ub = [row + [Fraction(-1)] for row in rows]
        b_ub = [Fraction(0)] * len(a_ub)
        a_eq = [[Fraction(1)] * k + [Fraction(0)]]
        x, t_star = reference_tableau_solve_lp(
            [Fraction(0)] * k + [Fraction(1)], a_ub, b_ub, a_eq,
            [Fraction(1)], tiebreak=units)
        coeffs = tuple(x[:k])
        y = combine(vecs, coeffs)
        value, cert = engine.norm(y)
        if value <= t_star:
            break
        if not add_cert(cert):
            raise RuntimeError("stalled cut: certificate already present "
                               "but the bound did not close")
    return value, coeffs, rounds


def grid_min(engine, vectors, f, signs=None, max_denominator=6) -> Fraction:
    """Minimum over simplex points with small denominators and vertices."""
    signs = signs or (1,) * len(f)
    vecs = [vectors[i - 1].scale(s) for i, s in zip(f, signs)]
    k = len(f)
    best = None
    for q in range(1, max_denominator + 1):
        for comp in itertools.product(range(q + 1), repeat=k):
            if sum(comp) != q:
                continue
            coeffs = [Fraction(c, q) for c in comp]
            val = engine.value(combine(vecs, coeffs))
            if best is None or val < best:
                best = val
    return best


def ordinals_up_to_weight(w: int):
    """All CNF ordinals of total weight <= w, where weight sums each term's
    coefficient plus its exponent's weight.  A small exhaustive universe."""
    if w <= 0:
        return [ordinals.ZERO]
    exps = sorted(ordinals_up_to_weight(w - 1), reverse=True)
    results = set()

    def build(i, budget, terms):
        results.add(ordinals.Ordinal(tuple(terms)))
        for j in range(i, len(exps)):
            e = exps[j]
            ew = _weight(e)
            for c in range(1, budget - ew + 1):
                build(j + 1, budget - ew - c, terms + [(e, c)])

    build(0, w, [])
    return sorted(results)


def _weight(o) -> int:
    if o.is_zero:
        return 0
    return sum(c + _weight(e) for e, c in o.terms)


def pair_add(a: tuple, b: tuple) -> tuple:
    """Ordinal addition below w^2 with ordinals encoded as (a, b) ~ w*a+b."""
    if b[0] > 0:
        return (a[0] + b[0], b[1])
    return (a[0], a[1] + b[1]) if b[1] else a


def pair_encode(o) -> tuple | None:
    """Encode an ordinal below w^2 as (coefficient of w, finite part)."""
    a = b = 0
    for exp, coeff in o.terms:
        if exp == ordinals.ONE:
            a = coeff
        elif exp.is_zero:
            b = coeff
        else:
            return None
    return (a, b)


def brute_z_norm(engine, x, iters=200):
    """Implicit-norm oracle by literal interval enumeration.

    Enumerates every family of disjoint ordered integer intervals that all
    meet the support (endpoints chosen from the support range, minima taken
    literally, no run-reduction or minima optimization), classifies the
    single full-cover interval as the self-referential term, and solves the
    scalar fixed point by plain iteration.  Exponential; supports <= 4.
    """
    pts = x.support
    if not pts:
        return 0.0
    lo_all, hi_all = pts[0], pts[-1]
    intervals = [(lo, hi) for lo in range(1, hi_all + 1)
                 for hi in range(lo, hi_all + 1)
                 if any(lo <= p <= hi for p in pts)]

    def families_from(start_idx, used_hi):
        yield ()
        for idx in range(len(intervals)):
            lo, hi = intervals[idx]
            if lo <= used_hi:
                continue
            for rest in families_from(idx, hi):
                yield ((lo, hi),) + rest

    all_families = [f for f in families_from(0, 0) if f]
    levels = max(12, engine._levels_for(float(x.l1())))
    theta = float(engine.vartheta)
    weights2 = [(theta / 2 ** n) ** 2 for n in range(1, levels + 1)]

    sub_norms = {}

    def sub_norm(cover):
        if cover not in sub_norms:
            sub_norms[cover] = brute_z_norm(engine, x.restrict(cover), iters)
        return sub_norms[cover]

    level_vals = []
    for n in range(1, levels + 1):
        fam = engine.level_family(n)
        best = 0.0
        for family in all_families:
            minima = tuple(lo for lo, _ in family)
            if not fam.contains(minima):
                continue
            covers = [tuple(p for p in pts if lo <= p <= hi)
                      for lo, hi in family]
            if len(family) == 1 and covers[0] == pts:
                continue  # the self term, handled by the fixed point
            value = sum(sub_norm(c) for c in covers)
            if value > best:
                best = value
        level_vals.append(best)

    c0 = float(engine.base.value(x))
    t = 0.0
    for _ in range(iters):
        s = sum(w * max(t, v) ** 2 for w, v in zip(weights2, level_vals))
        t = max(c0, s ** 0.5)
    return t


def _artifact_key(k):
    return tuple(k) if isinstance(k, list) else k


def check_norm_artifact(spec: dict, coords: list, result: dict):
    """Checks a `norm eval` artifact from its JSON alone; None when it holds.

    For exact kinds that carry a functional, the functional must evaluate to
    the reported value on the input vector.  For `ell1` it must be the sign
    pattern of x on its support; for `sup`, `schreier` and `mixed`, the
    (weighted) sign pattern of x on sets that the exhaustive decomposition
    search admits at the stage (0 for `sup`).  Approximate values must lie
    within their error bound of a fresh evaluation.
    """
    from schreier.spaces import Vector, engine_from_spec
    x = {_artifact_key(k): Fraction(v) for k, v in coords}
    value, cert = result["value"], result["certificate"]
    fresh = lambda: engine_from_spec(spec).value(
        Vector.from_json({"coords": coords}))
    if "approx" in value:
        if abs(float(value["approx"]) - float(fresh())) > \
                float(value["error_bound"]) + 1e-15:
            return "approximate value outside its error bound"
        return None
    exact = Fraction(value["exact"])
    if "functional" not in cert:
        return None if fresh() == exact else "value differs from a fresh one"
    functional = {_artifact_key(k): Fraction(c) for k, c in cert["functional"]}
    if sum(c * x.get(k, 0) for k, c in functional.items()) != exact:
        return "functional does not evaluate to the value"
    sign = lambda k: Fraction((x[k] > 0) - (x[k] < 0))
    levels = []
    if spec["kind"] == "ell1":
        levels = [(None, Fraction(1), [k for k in x if x[k]])]
    elif spec["kind"] == "sup":
        levels = [("0", Fraction(1), list(functional))]
    elif spec["kind"] == "schreier":
        levels = [(spec["xi"], Fraction(1), cert["set"])]
    elif spec["kind"] == "mixed":
        levels = [(lv["xi"], Fraction(lv["weight"]), lv["set"])
                  for lv in cert["levels"]]
    if levels:
        want: dict = {}
        for xi, weight, e in levels:
            if xi is not None and \
                    not brute_ordinal_member(ordinals.parse(xi), tuple(e)):
                return f"set {e} is not admissible at stage {xi}"
            for k in e:
                want[k] = want.get(k, Fraction(0)) + weight * sign(k)
        if {k: c for k, c in want.items() if c} != functional:
            return "functional is not the sign pattern of its sets"
    return None
