"""Independent reference computations used to check the library's outputs.

Nothing here imports the library.  Stages below w^3 are triples
(a2, a1, a0) meaning w^2*a2 + w*a1 + a0, with the canonical fundamental
sequences (b + w^(a+1))[n] = b + w^a * n.  Membership of small sets is
decided by a minimum-block-count search over every split point (not the
greedy rule the library uses); larger sets and stream blocks follow the
definition of the maximal initial segment; norms are maximized over every
admissible subset.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction

STAGES = {"0": (0, 0, 0), "1": (0, 0, 1), "2": (0, 0, 2), "3": (0, 0, 3),
          "w": (0, 1, 0), "w+1": (0, 1, 1), "w*2": (0, 2, 0),
          "w^2": (1, 0, 0)}


def is_limit(xi) -> bool:
    return xi[2] == 0 and xi != (0, 0, 0)


def fund(xi, n: int):
    a2, a1, _ = xi
    if a1:
        return (a2, a1 - 1, n)
    return (a2 - 1, n, 0)


def pred(xi):
    return (xi[0], xi[1], xi[2] - 1)


def child_stage(xi, first: int):
    """The stage a set with minimum ``first`` is tested against one level
    down: the predecessor, or fund(lam, first) + 1 at a limit."""
    if is_limit(xi):
        a2, a1, a0 = fund(xi, first)
        return (a2, a1, a0 + 1)
    return pred(xi)


@contextmanager
def deep_recursion(limit: int = 200000):
    """Raise the recursion limit for the pure-Python recursions below.

    They call only Python functions, which do not grow the C stack on
    CPython 3.11+.  The old limit is restored before any library call.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


class Membership:
    """S_xi membership, memoized per instance.

    Sets of up to EXHAUSTIVE_MAX points are decided by exhaustive
    decomposition; larger ones (certificate sets of dense supports) by the
    maximal-initial-segment rule, which is linear in the set's size.  The
    memo is emptied when it reaches MEMO_CAP entries, so that the checks
    add little to the resident memory the benchmark reports.
    """

    EXHAUSTIVE_MAX = 10
    MEMO_CAP = 50000

    def __init__(self):
        self.memo: dict = {}

    def __call__(self, xi, e: tuple) -> bool:
        if not e:
            return True
        if xi == (0, 0, 0):
            return len(e) <= 1
        if len(e) > self.EXHAUSTIVE_MAX:
            try:
                return segment(xi, list(e), 0) >= len(e)
            except Exhausted:
                return True
        key = (xi, e)
        hit = self.memo.get(key)
        if hit is None:
            if len(self.memo) >= self.MEMO_CAP:
                self.memo.clear()
            hit = self.memo[key] = self._decide(xi, e)
        return hit

    def _decide(self, xi, e: tuple) -> bool:
        if is_limit(xi):
            return self(child_stage(xi, e[0]), e)
        child = pred(xi)
        n = len(e)
        # fewest consecutive child blocks covering e[i:]
        need = [0] * (n + 1)
        for i in range(n - 1, -1, -1):
            best = None
            for j in range(i + 1, n + 1):
                if need[j] is not None and self(child, e[i:j]):
                    cand = 1 + need[j]
                    if best is None or cand < best:
                        best = cand
            need[i] = best
        return need[0] is not None and need[0] <= e[0]


# -- streams -----------------------------------------------------------------


def stream_values(spec: str, count: int) -> list[int]:
    """The first ``count`` values of a compact stream description."""
    parts = spec.split(":")
    if parts[0] == "arith":
        start, step = int(parts[1]), int(parts[2])
        return [start + i * step for i in range(count)]
    if parts[0] == "geom":
        base = int(parts[1])
        scale = int(parts[2]) if len(parts) == 3 else 1
        return [scale * base ** (i + 1) for i in range(count)]
    if parts[0] == "list":
        out = [int(v) for v in parts[1].split(",")][:count]
        step = int(parts[2]) if len(parts) == 3 else 1
        while len(out) < count:
            out.append(out[-1] + step)
        return out
    raise ValueError(spec)


class Exhausted(Exception):
    """A block needs more stream elements than the reference holds."""


def segment(xi, values: list[int], i: int) -> int:
    """Length of the maximal S_xi initial segment of values[i:]."""
    if i >= len(values):
        raise Exhausted
    if xi == (0, 0, 0):
        return 1
    stage = child_stage(xi, values[i])
    if is_limit(xi):
        return segment(stage, values, i)
    total = 0
    for _ in range(values[i]):
        total += segment(stage, values, i + total)
    return total


def _first_measure(xi, values: list[int], i: int):
    """(weights, length) of the stage-xi average starting at values[i]."""
    if i >= len(values):
        raise Exhausted
    if xi == (0, 0, 0):
        return {values[i]: Fraction(1)}, 1
    stage = child_stage(xi, values[i])
    if is_limit(xi):
        return _first_measure(stage, values, i)
    p = values[i]
    acc: dict = {}
    pos = i
    for _ in range(p):
        w, n = _first_measure(stage, values, pos)
        for k, v in w.items():
            acc[k] = acc.get(k, Fraction(0)) + v / p
        pos += n
    return acc, pos - i


def measure(xi, values: list[int], n: int) -> dict:
    """Weights of the n-th repeated-averages measure; raises Exhausted when
    its support does not fit inside ``values``."""
    with deep_recursion():
        pos = 0
        for _ in range(n - 1):
            pos += segment(xi, values, pos)
        return _first_measure(xi, values, pos)[0]


def first_blocks(xi, values: list[int], count: int) -> list[tuple]:
    """The leading partition blocks that fit inside ``values``, at most
    ``count`` of them."""
    out, pos = [], 0
    with deep_recursion():
        for _ in range(count):
            try:
                n = segment(xi, values, pos)
            except Exhausted:
                break
            out.append(tuple(values[pos:pos + n]))
            pos += n
    return out


# -- norms -------------------------------------------------------------------


def admissible_subsets(member, xi, keys: tuple):
    """Every S_xi member inside ``keys`` (hereditary, so grow members only)."""
    out = [()]
    stack = [()]
    while stack:
        e = stack.pop()
        start = keys.index(e[-1]) + 1 if e else 0
        for k in keys[start:]:
            ext = e + (k,)
            if member(xi, ext):
                out.append(ext)
                stack.append(ext)
    return out


def schreier_norm(member, xi, coords: dict) -> Fraction:
    keys = tuple(sorted(coords))
    best = Fraction(0)
    with deep_recursion():
        for e in admissible_subsets(member, xi, keys):
            s = sum((abs(coords[k]) for k in e), Fraction(0))
            if s > best:
                best = s
    return best


def mixed_norm(member, xis, coords: dict) -> Fraction:
    n = len(xis)
    weights = [Fraction(1, 2 ** (i + 1)) for i in range(n - 1)]
    weights.append(Fraction(1, 2 ** (n - 1)))
    return sum((w * schreier_norm(member, xi, coords)
                for w, xi in zip(weights, xis)), Fraction(0))


def engine_norm(member, spec: dict, coords: dict) -> Fraction:
    """Reference norm for the ell1, sup, schreier, mixed and ex specs."""
    kind = spec["kind"]
    if kind == "ell1":
        return sum((abs(v) for v in coords.values()), Fraction(0))
    if kind == "sup":
        return max((abs(v) for v in coords.values()), default=Fraction(0))
    if kind == "schreier":
        return schreier_norm(member, STAGES[spec["xi"]], coords)
    if kind == "mixed":
        return mixed_norm(member, [STAGES[s] for s in spec["xis"]], coords)
    if kind == "ex":
        return ex_norm(member, spec, coords)
    raise ValueError(kind)


def ex_norm(member, spec: dict, coords: dict) -> Fraction:
    """Sup over intervals of the base norm of the class-folded restriction."""
    classes = spec["partition"]

    def class_of(n: int) -> int:
        for i, c in enumerate(classes):
            if n >= c["start"] and (n - c["start"]) % c["step"] == 0:
                return i + 1
        raise ValueError(n)

    keys = sorted(coords)
    best = Fraction(0)
    for i in range(len(keys)):
        for j in range(i, len(keys)):
            folded: dict = {}
            for k in keys[i:j + 1]:
                c = class_of(k)
                folded[c] = folded.get(c, Fraction(0)) + coords[k]
            folded = {k: v for k, v in folded.items() if v}
            v = engine_norm(member, spec["base"], folded)
            if v > best:
                best = v
    return best


def tree_norm(coords: dict) -> Fraction:
    """Max over sets of pairwise incomparable segments of the segment max.

    Exhaustive: every segment is a (top, bottom) chain through nodes that
    carry the vector; segments are chosen or skipped one by one.
    """
    nodes = sorted(coords)
    all_nodes = sorted({k[:d] for k in nodes for d in range(1, len(k) + 1)})
    segs = []
    for top in all_nodes:
        for bottom in all_nodes:
            if bottom[:len(top)] == top:
                chain = [bottom[:d] for d in range(len(top), len(bottom) + 1)]
                value = max(abs(coords.get(u, Fraction(0))) for u in chain)
                segs.append((chain, value))

    def comparable(a, b) -> bool:
        return any(u[:len(v)] == v or v[:len(u)] == u for u in a for v in b)

    best = Fraction(0)

    def rec(i: int, chosen: list, cur: Fraction):
        nonlocal best
        if cur > best:
            best = cur
        for j in range(i, len(segs)):
            chain, value = segs[j]
            if value and not any(comparable(chain, c) for c in chosen):
                chosen.append(chain)
                rec(j + 1, chosen, cur + value)
                chosen.pop()

    rec(0, [], Fraction(0))
    return best
