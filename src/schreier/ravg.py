"""The repeated-averages probability hierarchy with exact rationals.

Measures are finite-support probability measures on N with Fraction
weights.  A probability block pairs a nice family with a rule assigning a
measure to (stream, block index); the canonical block at ordinal stage xi
averages the previous stage uniformly, with support equal to the stage's
partition block.  Convolution mixes one block's measures with another's
weights along the minima sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import families, ordinals
from .families import (Family, FinSet, LazySet, DEFAULT_PROBE_LIMIT,
                       EnumerationLimitError, _max_segment, _stream_at,
                       partition_blocks, partition_indices, schreier_family)
from .ordinals import Ordinal


@dataclass(frozen=True)
class Measure:
    """A finite-support probability measure on N with exact weights."""

    weights: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_dict(d: dict[int, Fraction]) -> "Measure":
        items = tuple(sorted((k, Fraction(v)) for k, v in d.items() if v))
        return Measure(items)

    @staticmethod
    def dirac(n: int) -> "Measure":
        return Measure(((n, Fraction(1)),))

    @property
    def support(self) -> FinSet:
        return tuple(k for k, _ in self.weights)

    @property
    def mass(self) -> Fraction:
        return sum((v for _, v in self.weights), Fraction(0))

    def __call__(self, point: int) -> Fraction:
        for k, v in self.weights:
            if k == point:
                return v
        return Fraction(0)

    def mass_of(self, points) -> Fraction:
        pts = set(points)
        return sum((v for k, v in self.weights if k in pts), Fraction(0))

    def max_weight(self) -> Fraction:
        return max((v for _, v in self.weights), default=Fraction(0))

    def to_json(self) -> dict:
        return {"weights": [[k, f"{v.numerator}/{v.denominator}"]
                            for k, v in self.weights]}

    @staticmethod
    def from_json(data: dict) -> "Measure":
        return Measure.from_dict(
            {int(k): Fraction(s) for k, s in data["weights"]})


def ravg_measure(xi: Ordinal, m: LazySet, n: int,
                 probe_limit: int = DEFAULT_PROBE_LIMIT) -> Measure:
    """The n-th repeated-averages measure of stage xi on m.

    The support is the n-th stage-xi partition block, and each successor
    stage averages its child blocks uniformly, so skipping the earlier
    blocks realizes the shift axiom by construction.  m.consumed reports
    the materialized prefix afterwards.
    """
    if n < 1:
        raise ValueError("measure index must be >= 1")
    fam = schreier_family(xi)
    with m.probe_guard(probe_limit):
        start = 0
        for _ in range(n - 1):
            start += len(_max_segment(m, fam, start))
        weights: dict[int, Fraction] = {}
        fam.segment_weights(_stream_at(m), start, weights)
        return Measure.from_dict(weights)


def ravg_total_restricted(xi: Ordinal, m: LazySet, cutoff: int,
                          probe_limit: int = DEFAULT_PROBE_LIMIT) -> dict[int, Fraction]:
    """Pointwise sum over all block indices of stage-xi weights <= cutoff.

    Blocks are disjoint, so the sum collects each block's weights; the walk
    stops at the first value above the cutoff, since every later point's
    weight vanishes under restriction.
    """
    fam, totals = schreier_family(xi), {}
    with m.probe_guard(probe_limit):
        at, start = _stream_at(m), 0
        while True:
            length, closed = fam.segment_weights(at, start, totals, cutoff)
            if not closed:
                return totals
            start += length


# ---------------------------------------------------------------------------
# Probability blocks


@dataclass
class ProbBlock:
    """A nice family together with a measure rule on (stream, index)."""

    family: Family
    rule: Callable[[LazySet, int], Measure]
    name: str = "block"

    def measure(self, m: LazySet, n: int) -> Measure:
        return self.rule(m, n)


def canonical_block(xi: Ordinal,
                    probe_limit: int = DEFAULT_PROBE_LIMIT) -> ProbBlock:
    """The repeated-averages block at stage xi."""
    return ProbBlock(
        family=schreier_family(xi),
        rule=lambda m, n: ravg_measure(xi, m, n, probe_limit),
        name=f"ravg({ordinals.fmt(xi)})")


def convolve(q_block: ProbBlock, p_block: ProbBlock,
             probe_limit: int = DEFAULT_PROBE_LIMIT) -> ProbBlock:
    """Mix p-measures with q-weights taken along the minima sequence.

    The n-th convolved measure expands the q-measure of the minima stream
    against the corresponding run of p-measures; the composite family is
    the outer family applied to inner blocks.
    """
    fam = families.Compose(q_block.family, p_block.family)

    def rule(m: LazySet, n: int) -> Measure:
        def minima():
            i = 1
            while True:
                yield p_block.measure(m, i).support[0]
                i += 1

        mins = LazySet(minima(), "p-block-minima", root=m.root)
        with m.probe_guard(probe_limit):
            q_meas = q_block.measure(mins, n)
            idx = partition_indices(mins, q_block.family, n)
            acc: dict[int, Fraction] = {}
            for i in idx:
                w = q_meas(mins.value(i))
                if not w:
                    continue
                for k, v in p_block.measure(m, i).weights:
                    acc[k] = acc.get(k, Fraction(0)) + w * v
        return Measure.from_dict(acc)

    return ProbBlock(family=fam, rule=rule,
                     name=f"{q_block.name}*{p_block.name}")


@dataclass
class BlockReport:
    violations: list = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations


def block_validate(block: ProbBlock, samples,
                   probe_limit: int = DEFAULT_PROBE_LIMIT) -> BlockReport:
    """Check exact mass, support-partition agreement, and shift consistency.

    ``samples`` is a list of (LazySet, depth) pairs.  Violations are data,
    not errors; probe exhaustion propagates.
    """
    report = BlockReport()
    for m, depth in samples:
        supports: list[FinSet] = []
        for r in range(1, depth + 1):
            mu = block.measure(m, r)
            report.checked += 1
            if mu.mass != 1:
                report.violations.append(
                    {"sample": m.describe, "n": r, "kind": "mass",
                     "detail": str(mu.mass)})
            expected = partition_blocks(m, block.family, r, probe_limit)[-1]
            if mu.support != expected:
                report.violations.append(
                    {"sample": m.describe, "n": r, "kind": "support",
                     "detail": f"{mu.support} != {expected}"})
            shifted = m.remove_finite(
                {v for s in supports for v in s}) if supports else m
            if block.measure(shifted, 1) != mu:
                report.violations.append(
                    {"sample": m.describe, "n": r, "kind": "shift",
                     "detail": "first measure after deleting earlier "
                               "supports differs"})
            supports.append(mu.support)
    return report


def sufficiency_sup(block: ProbBlock, g: Family, nset: LazySet,
                    bound: int = 10 ** 5,
                    probe_limit: int = DEFAULT_PROBE_LIMIT):
    """Largest g-member mass of the first block measure on nset.

    Only members inside the support can carry mass, so this is a finite
    maximization.  Returns (value, witness set).
    """
    mu = block.measure(nset, 1)
    best = Fraction(0)
    witness: FinSet = ()
    for e in families.enumerate_within(g, mu.support, bound):
        v = mu.mass_of(e)
        if v > best:
            best, witness = v, e
    return best, witness


@dataclass
class FastGrowReport:
    condition_holds: bool
    strict_condition_holds: bool
    checked_pairs: list
    max_sum: Fraction
    witness: FinSet
    bound: Fraction
    bound_ok: bool


def fastgrow_check(xi: Ordinal, kset: LazySet, lset: LazySet, eps: Fraction,
                   n: int, subset_cap: int = 20,
                   probe_limit: int = DEFAULT_PROBE_LIMIT) -> FastGrowReport:
    """Desk-scale check of the fast-growing comparison.

    Verifies k(l_i) * (1 + 2 eps) <= l_{i+1} * eps for indices with
    l_i <= n (strict comparison reported separately), then maximizes the
    accumulated stage-xi mass over all E within {1..n} whose image under
    the k-stream is admissible at stage xi, by ``max_member_sum`` on the
    images of the weighted points.
    """
    eps = Fraction(eps)
    checked = []
    nonstrict = strict = True
    with lset.probe_guard(probe_limit), kset.probe_guard(probe_limit):
        i = 1
        while lset.value(i) <= n:
            li, lnext = lset.value(i), lset.value(i + 1)
            k_li = kset.value(li)
            lhs, rhs = k_li * (1 + 2 * eps), lnext * eps
            checked.append({"i": i, "l_i": li, "l_next": lnext, "k": k_li,
                            "lhs": lhs, "rhs": rhs})
            nonstrict = nonstrict and lhs <= rhs
            strict = strict and lhs < rhs
            i += 1

    totals = ravg_total_restricted(xi, lset, n, probe_limit)
    points = tuple(sorted(k for k, v in totals.items() if v > 0))
    if len(points) > subset_cap:
        raise EnumerationLimitError(
            f"{len(points)} weighted points exceed subset cap {subset_cap}")
    with kset.probe_guard(probe_limit):
        images = [kset.value(p) for p in points]
    weights = [totals[p] for p in points]
    scale = math.lcm(*(w.denominator for w in weights))
    best, chosen = families.max_member_sum(
        schreier_family(xi), images,
        [w.numerator * (scale // w.denominator) for w in weights])
    point_of = dict(zip(images, points))
    witness = tuple(point_of[v] for v in chosen)
    best = Fraction(best, scale)
    bound = 1 + eps
    return FastGrowReport(condition_holds=nonstrict,
                          strict_condition_holds=strict,
                          checked_pairs=checked, max_sum=best,
                          witness=witness, bound=bound,
                          bound_ok=best <= bound)
