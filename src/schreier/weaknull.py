"""Convex-minimization certificates over finite vector sequences.

The central operation minimizes the norm over the convex hull of signed
sequence members by cutting planes: dual certificates collected from norm
evaluations bound the norm from below through an exact linear program, and
the true norm at the candidate either matches the bound (optimality
certificate) or contributes a new cut.  On top of it sit the signed-family
membership tests, admissible-set spreading certificates, repeated-averages
nullity tests, and the bounded-depth dichotomy search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from . import families, ordinals, ravg
from .families import FinSet, LazySet, check_finset, schreier_family
from .jsonio import frac_str
from .ordinals import Ordinal
from .simplex import solve_lp
from .spaces import NormEngine, Vector, combine

# cutting-plane rounds before min_convex gives up
MAX_ROUNDS = 500
# the grid step 1/GRID_DENOMINATOR of min_convex on a non-exact engine
GRID_DENOMINATOR = 12


@dataclass(frozen=True)
class Instance:
    """A norm engine together with a finite prefix of a vector sequence."""

    engine: NormEngine
    vectors: tuple

    def __post_init__(self):
        object.__setattr__(self, "vectors", tuple(self.vectors))

    @property
    def size(self) -> int:
        return len(self.vectors)

    def signed(self, f: FinSet, signs) -> list[Vector]:
        return [self.vectors[i - 1].scale(s) for i, s in zip(f, signs)]


@dataclass
class MinConvexResult:
    value: Fraction | float
    coefficients: tuple
    exact: bool
    gap_bound: float = 0.0
    rounds: int = 0


def _norm_signs(f: FinSet, signs) -> tuple:
    if signs is None:
        return (1,) * len(f)
    signs = tuple(signs)
    if len(signs) != len(f) or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a +-1 pattern matching the set")
    return signs


def min_convex(inst: Instance, f, signs=None) -> MinConvexResult:
    """Minimize the norm over the simplex of signed members indexed by f.

    Exact engines: cutting planes on one exact LP; terminates because the
    engine draws certificates from finitely many admissible configurations
    on a fixed support and each round adds a violated one.  The relaxation
    is solved with e_1, ..., e_k as tie-breaking objectives, so its
    candidate is the lexicographically smallest of its optima.  Cuts are
    valid lower bounds, so each relaxation's optima contain the true ones;
    when the bound closes, the candidate is a true optimum and hence the
    lexicographically smallest minimizer, which is returned without a
    separate refinement.

    There is one ``solve_lp`` call, a lexicographic dual simplex from the
    slack basis: the costs t and e_1, ..., e_k are nonnegative, so that
    basis is dual feasible, and sum x = 1 enters as the row -sum x <= -1
    beside the initial cuts.  The separation step (combine, engine norm, new
    cuts) is its callback, and each round's cuts join the live tableau
    through the same row path, so the dual simplex re-optimizes instead of
    solving the relaxation again from scratch.  Cuts are int rows: the
    signed vectors are scaled once over one common denominator and each
    certificate's coefficients over their own, so a certificate f gives the
    gcd-reduced row (f(v_1), ..., f(v_k), -den) of sum_i f(v_i) x_i <= t,
    and its negation by symmetry of the norm.  A row already present is
    dropped; the violated cut of a round is never one of them, as it exceeds
    the bound at the candidate, where every present row is within it.  A
    loop of more than ``MAX_ROUNDS`` rounds raises RuntimeError.
    Non-exact engines fall back to a search of the grid of step
    1/``GRID_DENOMINATOR`` with a reported gap bound.
    """
    f = check_finset(f)
    if not f:
        raise ValueError("the index set must be nonempty")
    if any(i > inst.size for i in f):
        raise ValueError(f"index set {f} exceeds the {inst.size} vectors")
    signs = _norm_signs(f, signs)
    vecs = inst.signed(f, signs)
    if not inst.engine.exact:
        return _min_convex_grid(inst, vecs)

    support = sorted({k for v in vecs for k in v.support})
    position = {key: p for p, key in enumerate(support)}
    den = lcm(*(c.denominator for v in vecs for _, c in v.coords))
    scaled = [[(position[key], c.numerator * (den // c.denominator))
               for key, c in v.coords] for v in vecs]
    k = len(f)
    present: set[tuple] = set()

    def cuts(cert) -> list:
        """The rows of the certificate's cut and of its negation, those
        not yet present."""
        base = [cert.coefficient(key) for key in support]
        cden = lcm(*(c.denominator for c in base))
        coef = [c.numerator * (cden // c.denominator) for c in base]
        row = [sum(coef[p] * c for p, c in v) for v in scaled]
        row.append(-cden * den)
        g = gcd(*row)
        row = [v // g for v in row]
        out = []
        for line in (row, [-v for v in row[:k]] + row[k:]):
            key = tuple(line)
            if key not in present:
                present.add(key)
                out.append(line)
        return out

    initial = []
    for v in vecs:
        initial += cuts(inst.engine.norm(v)[1])

    rounds = 0
    closed = None

    def separate(x, t_star):
        nonlocal rounds, closed
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError("cutting plane loop exceeded its round limit")
        coeffs = tuple(x[:k])
        value, cert = inst.engine.norm(combine(vecs, coeffs))
        if value <= t_star:
            closed = value, coeffs
            return ()
        new = cuts(cert)
        if not new:
            raise RuntimeError("stalled cut: certificate already present "
                               "but the bound did not close")
        return [(line, 0) for line in new]

    # sum x = 1 enters as -sum x <= -1.  Every other row has rhs 0, so if a
    # lex-min (x, t) had sum x = s > 1, then (x/s, t/s) would be feasible and
    # lexicographically smaller: t/s < t if t > 0, and otherwise the first
    # nonzero x_i shrinks.  The lex-min therefore has sum x = 1.
    solve_lp([0] * k + [1], initial + [[-1] * k + [0]],
             [0] * len(initial) + [-1],
             tiebreak=[[int(i == j) for j in range(k + 1)] for i in range(k)],
             separate=separate)
    value, coeffs = closed
    return MinConvexResult(value=value, coefficients=coeffs, exact=True,
                           rounds=rounds)


def _min_convex_grid(inst, vecs) -> MinConvexResult:
    k = len(vecs)
    best = None
    for comp in _compositions(GRID_DENOMINATOR, k):
        coeffs = tuple(Fraction(c, GRID_DENOMINATOR) for c in comp)
        value = inst.engine.value(combine(vecs, coeffs))
        if best is None or value < best[0]:
            best = (value, coeffs)
    scale = max(float(inst.engine.value(v)) for v in vecs)
    gap = 2.0 * scale * k / GRID_DENOMINATOR + \
        getattr(inst.engine, "tolerance", 0.0)
    return MinConvexResult(value=best[0], coefficients=best[1], exact=False,
                           gap_bound=gap)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


# ---------------------------------------------------------------------------
# Signed-family membership


def _sign_patterns(length: int):
    """All +-1 patterns modulo the global flip (the norm is symmetric)."""
    if length == 0:
        yield ()
        return
    for rest in itertools.product((1, -1), repeat=length - 1):
        yield (1,) + rest


def f_membership(inst: Instance, f, eps, variant: str = "plain") -> bool:
    """Signed convex lower-bound membership at threshold eps.

    plain: the unsigned minimum clears eps; a: some sign pattern does;
    sigma: every sign pattern does.  The empty set belongs to all three.
    """
    f = check_finset(f)
    eps = Fraction(eps)
    if not f:
        return True
    if variant == "plain":
        return min_convex(inst, f).value >= eps
    if variant == "a":
        return any(min_convex(inst, f, signs).value >= eps
                   for signs in _sign_patterns(len(f)))
    if variant == "sigma":
        return all(min_convex(inst, f, signs).value >= eps
                   for signs in _sign_patterns(len(f)))
    raise ValueError(f"unknown variant {variant!r}")


@dataclass
class CertReport:
    family: str
    epsilon: Fraction
    variant: str
    passed: bool
    worst_set: FinSet
    worst_signs: tuple
    worst_margin: Fraction
    argmin_coefficients: tuple
    sets_checked: int = 0
    margins: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "epsilon": frac_str(self.epsilon),
            "variant": self.variant,
            "passed": self.passed,
            "worst_set": list(self.worst_set),
            "worst_signs": list(self.worst_signs),
            "worst_margin": frac_str(self.worst_margin),
            "argmin_coefficients": [frac_str(c) for c in self.argmin_coefficients],
            "sets_checked": self.sets_checked,
        }

    def margin_rows(self) -> list:
        rows = [["set", "signs", "margin"]]
        for e, signs, margin in self.margins:
            rows.append([" ".join(map(str, e)),
                         " ".join(map(str, signs)), frac_str(margin)])
        return rows


def spreading_certificate(inst: Instance, xi: Ordinal, eps, bound: int,
                          variant: str = "sigma") -> CertReport:
    """Check that every admissible set in the truncation clears eps.

    The variant is read as in ``f_membership``: plain evaluates the all-plus
    pattern of a set, sigma every sign pattern, and a every sign pattern,
    of which the set enters with its best one (the largest minimum, the
    first among ties), so ``margins`` has one row per set.  Only
    truncation-maximal sets are evaluated: each pattern's signed minimum,
    and so a set's best one, can only grow when passing to subsets, so they
    witness the worst margin.  ``sets_checked`` counts ``min_convex``
    calls.
    """
    if variant not in ("plain", "a", "sigma"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = Fraction(eps)
    if bound > inst.size:
        raise ValueError(f"truncation bound {bound} exceeds the "
                         f"{inst.size} available vectors")
    fam = schreier_family(xi)
    worst = None
    checked = 0
    margins = []
    for e in families.truncation_maximal(fam, bound):
        patterns = [(1,) * len(e)] if variant == "plain" \
            else _sign_patterns(len(e))
        results = []
        for signs in patterns:
            res = min_convex(inst, e, signs)
            checked += 1
            results.append((res.value, signs, res.coefficients))
        if variant == "a":
            results = [max(results, key=lambda r: r[0])]
        for value, signs, coeffs in results:
            margins.append((e, signs, value - eps))
            if worst is None or value < worst[0]:
                worst = (value, e, signs, coeffs)
    if worst is None:
        raise ValueError("no admissible sets inside the truncation")
    value, e, signs, coeffs = worst
    margin = value - eps
    return CertReport(family=f"schreier({ordinals.fmt(xi)})", epsilon=eps,
                      variant=variant, passed=margin >= 0, worst_set=e,
                      worst_signs=signs, worst_margin=margin,
                      argmin_coefficients=coeffs, sets_checked=checked,
                      margins=margins)


# ---------------------------------------------------------------------------
# Repeated-averages nullity


@dataclass
class RavgNullRow:
    sample: str
    n: int
    value: Fraction | float
    delta: Fraction
    ok: bool


@dataclass
class RavgNullReport:
    rows: list[RavgNullRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.rows)

    def first_failure(self) -> RavgNullRow | None:
        for r in self.rows:
            if not r.ok:
                return r
        return None


def _prefix_subsets(m: LazySet, prefix_len: int, max_samples: int):
    """The stream itself, then streams keeping subsets of its prefix."""
    yield m
    count = 0
    head = m.prefix(prefix_len)
    for mask in range((1 << prefix_len) - 2, -1, -1):
        kept = [head[b] for b in range(prefix_len) if mask >> b & 1]
        count += 1
        if count > max_samples:
            return
        removed = set(head) - set(kept)
        yield m.remove_finite(removed)


def _average_norm(inst: Instance, mu: ravg.Measure):
    """Norm of the mu-weighted combination of the instance vectors; mu's
    support must lie within the prefix."""
    y = combine([inst.vectors[i - 1] for i, _ in mu.weights],
                [w for _, w in mu.weights])
    return inst.engine.value(y)


def ravg_null_test(inst: Instance, xi: Ordinal, m: LazySet, deltas=None,
                   depth: int = 3, prefix_len: int = 4,
                   max_samples: int = 12,
                   probe_limit: int = families.DEFAULT_PROBE_LIMIT
                   ) -> RavgNullReport:
    """Compare averaged-combination norms against a decay schedule.

    For sampled substreams and block indices n, the stage-xi average of the
    instance vectors must have norm strictly below delta_n (default 1/n).
    Each average's measure may materialize at most probe_limit elements of
    its substream.
    """
    if deltas is None:
        deltas = lambda n: Fraction(1, n)
    elif not callable(deltas):
        seq = list(deltas)
        deltas = lambda n: Fraction(seq[n - 1])
    report = RavgNullReport()
    for sample in _prefix_subsets(m, prefix_len, max_samples):
        for n in range(1, depth + 1):
            mu = ravg.ravg_measure(xi, sample, n, probe_limit=probe_limit)
            if mu.support and mu.support[-1] > inst.size:
                raise ValueError(
                    f"prefix too short: averages need vectors up to index "
                    f"{mu.support[-1]}, have {inst.size}")
            value = _average_norm(inst, mu)
            delta = deltas(n)
            report.rows.append(RavgNullRow(sample=sample.describe, n=n,
                                           value=value, delta=delta,
                                           ok=value < delta))
    return report


# ---------------------------------------------------------------------------
# Bounded-depth dichotomy


@dataclass
class DichotomyResult:
    kind: str  # "certificate_i" | "certificate_ii" | "inconclusive"
    eps: Fraction
    eps1: Fraction | None = None
    m_prefix: FinSet | None = None
    value: Fraction | float | None = None
    n_prefix: FinSet | None = None
    found_i: bool = False
    found_ii: bool = False
    detail: dict = field(default_factory=dict)


def _index_candidates(size: int, depth: int):
    out = [tuple(range(1, size + 1))]
    for t in range(2, min(max(2, depth // 2), size - 1) + 1):
        out.append(tuple(range(t, size + 1)))
    evens = tuple(v for v in range(2, size + 1, 2))
    odds = tuple(v for v in range(1, size + 1, 2))
    for cand in (evens, odds):
        if len(cand) >= 2 and cand not in out:
            out.append(cand)
    return out


def dichotomy_search(inst: Instance, xi: Ordinal, eps,
                     depth: int = 12) -> DichotomyResult:
    """Search for a uniform lower certificate or a small-average witness.

    (i) looks for an index subsequence whose admissible truncation keeps
    all convex minima strictly above eps; (ii) looks for a substream whose
    first averaged combination has norm at most eps.  Finite search cannot
    decide the alternative, so "inconclusive" is a first-class outcome.
    """
    eps = Fraction(eps)
    fam = schreier_family(xi)
    result = DichotomyResult(kind="inconclusive", eps=eps)

    best_i = None
    reference = families.truncation_maximal(fam, min(inst.size, depth))
    rich = any(len(e) >= 2 for e in reference)
    for cand in _index_candidates(inst.size, depth):
        bound = min(len(cand), depth)
        sets = families.truncation_maximal(fam, bound)
        # a candidate too short to contain multi-element admissible sets
        # certifies nothing when the family has them
        if rich and not any(len(e) >= 2 for e in sets):
            continue
        margin = None
        for e in sets:
            mapped = tuple(cand[i - 1] for i in e)
            value = min_convex(inst, mapped).value
            if margin is None or value < margin:
                margin = value
        if margin is not None and margin > eps:
            result.found_i = True
            best_i = (margin, cand)
            break

    best_ii = None
    for cand in _index_candidates(inst.size, depth):
        stream = LazySet.from_prefix(cand, tail_step=1)
        mu = ravg.ravg_measure(xi, stream, 1)
        if mu.support and mu.support[-1] > inst.size:
            continue
        value = _average_norm(inst, mu)
        if best_ii is None or value < best_ii[0]:
            best_ii = (value, cand)
    if best_ii is not None and best_ii[0] <= eps:
        result.found_ii = True

    # conflicting shallow evidence stays inconclusive rather than guessed
    if result.found_i and not result.found_ii:
        result.kind = "certificate_i"
        result.eps1, result.m_prefix = best_i
    elif result.found_ii and not result.found_i:
        result.kind = "certificate_ii"
        result.value, result.n_prefix = best_ii
    result.detail["best_average"] = None if best_ii is None else \
        {"value": best_ii[0], "prefix": best_ii[1]}
    return result
