"""Seeded operations for the in-process workloads: certify, norms, streams.

A workload is an endless sequence of rounds.  Every round has the same
composition of operation kinds; the seed only changes the inputs, so runs
with different seeds measure the same mix.  Each operation carries the
library call that is timed and a check of its output against the
independent references in ``oracle``.  No input repeats within a process.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle
from schreier import families, ordinals, ravg, spaces, weaknull


@dataclass
class Op:
    """One timed library call and the check of what it returned.

    ``check`` returns None when the output is right, else a reason.
    ``on_limit`` decides a ProbeLimitError the same way: None when the
    reference agrees that the budget cannot hold the answer.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    on_limit: Callable[[], str | None] = lambda: "unexpected probe limit"
    streams: list = field(default_factory=list)


def _nonzero(rng: random.Random, denom: int = 6) -> Fraction:
    num = rng.randint(1, denom) * rng.choice((1, -1))
    return Fraction(num, rng.randint(1, denom))


def _coords(rng: random.Random, keys) -> dict:
    return {k: _nonzero(rng) for k in keys}


def _vector(coords: dict):
    return spaces.Vector.from_dict(coords)


def _lincomb(vectors, weights) -> dict:
    acc: dict = {}
    for w, x in zip(weights, vectors):
        for k, v in x.items():
            acc[k] = acc.get(k, Fraction(0)) + w * v
    return {k: v for k, v in acc.items() if v}


def _reevaluate(coeffs: dict, x: dict) -> Fraction:
    return sum((coeffs.get(k, Fraction(0)) * v for k, v in x.items()),
               Fraction(0))


class Unique:
    """Rejects an input already handed out in this process."""

    def __init__(self):
        self.seen: set = set()

    def fresh(self, key) -> bool:
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


def _freeze(coords: dict) -> tuple:
    return tuple(sorted(coords.items()))


def _label(spec: dict) -> str:
    """Short engine name, e.g. schreier(w+1) or mixed(1,2)."""
    if spec["kind"] == "schreier":
        return f"schreier({spec['xi']})"
    if spec["kind"] == "mixed":
        return f"mixed({','.join(spec['xis'])})"
    return spec["kind"]


# ---------------------------------------------------------------------------
# certify: exact LP and cutting planes over small vector sequences

CERT_ENGINES = ({"kind": "ell1"}, {"kind": "sup"},
                {"kind": "schreier", "xi": "1"},
                {"kind": "mixed", "xis": ["1", "2"]})


class Certify:
    """Spreading certificates, dichotomy search, ravg-null tests and direct
    signed min_convex calls on sequences of 5-7 vectors."""

    name = "certify"

    def __init__(self, seed: int):
        self.rng = random.Random(f"certify:{seed}")
        self.unique = Unique()
        self.member = oracle.Membership()

    def _sequence(self, k: int) -> list[dict]:
        """Mostly non-basis vectors with overlapping supports in 1..10;
        one sequence in four is a block of basis vectors."""
        rng = self.rng
        while True:
            if rng.random() < 0.25:
                keys = sorted(rng.sample(range(1, 13), k))
                seq = [{key: Fraction(1)} for key in keys]
            else:
                seq = [_coords(rng, rng.sample(range(1, 11), rng.randint(2, 4)))
                       for _ in range(k)]
            if self.unique.fresh(tuple(_freeze(c) for c in seq)):
                return seq

    def _instance(self, spec: dict, seq):
        return weaknull.Instance(spaces.engine_from_spec(spec),
                                 [_vector(c) for c in seq])

    def _norm(self, spec, coords) -> Fraction:
        return oracle.engine_norm(self.member, spec, coords)

    def round(self, r: int) -> list[Op]:
        spec = CERT_ENGINES[r % len(CERT_ENGINES)]
        ops = [self._spreading(spec, "sigma", 4),
               self._spreading(spec, "plain", 5),
               self._dichotomy(spec),
               self._ravg_null(spec)]
        ops += [self._min_convex(spec) for _ in range(5)]
        return ops

    def _spreading(self, spec, variant: str, bound: int) -> Op:
        """A certificate over the S_1 truncation {1..bound} of 5 vectors."""
        seq = self._sequence(5)
        inst = self._instance(spec, seq)
        eps = Fraction(1, 8)
        xi = ordinals.parse("1")

        def run():
            return weaknull.spreading_certificate(inst, xi, eps, bound,
                                                  variant)

        def check(rep):
            maximal = self._truncation_maximal(bound)
            expected = sum(2 ** (len(e) - 1) if variant == "sigma" else 1
                           for e in maximal)
            if rep.sets_checked != expected or len(rep.margins) != expected:
                return f"checked {rep.sets_checked} sets, expected {expected}"
            if any(e not in maximal for e, _, _ in rep.margins):
                return "margin reported for a non-maximal set"
            worst = min(m for _, _, m in rep.margins)
            if rep.worst_margin != worst or rep.passed != (worst >= 0):
                return "worst margin or verdict inconsistent"
            return self._check_argmin(spec, seq, rep.worst_set,
                                      rep.worst_signs,
                                      rep.argmin_coefficients,
                                      rep.worst_margin + eps)

        return Op(f"spreading_{variant}/{_label(spec)}", run, check)

    def _truncation_maximal(self, bound: int) -> list[tuple]:
        one = oracle.STAGES["1"]
        keys = tuple(range(1, bound + 1))
        sets = oracle.admissible_subsets(self.member, one, keys)
        return [e for e in sets if e and not any(
            self.member(one, e + (v,)) for v in range(e[-1] + 1, bound + 1))]

    def _check_argmin(self, spec, seq, f, signs, coeffs, value):
        if len(coeffs) != len(f) or any(c < 0 for c in coeffs) \
                or sum(coeffs) != 1:
            return "coefficients are not a probability vector"
        members = [{k: s * v for k, v in seq[i - 1].items()}
                   for i, s in zip(f, signs)]
        if self._norm(spec, _lincomb(members, coeffs)) != value:
            return "value differs from the norm of the combination"
        if any(value > self._norm(spec, x) for x in members):
            return "value exceeds the norm of a member"
        return None

    def _min_convex(self, spec) -> Op:
        rng = self.rng
        seq = self._sequence(5)
        inst = self._instance(spec, seq)
        f = tuple(sorted(rng.sample(range(1, 6), rng.randint(2, 3))))
        signs = tuple(rng.choice((1, -1)) for _ in f)

        def run():
            return weaknull.min_convex(inst, f, signs)

        def check(res):
            return self._check_argmin(spec, seq, f, signs, res.coefficients,
                                      res.value)

        return Op(f"min_convex/{_label(spec)}", run, check)

    def _dichotomy(self, spec) -> Op:
        seq = self._sequence(5)
        inst = self._instance(spec, seq)
        eps = Fraction(1, 4)
        xi = ordinals.parse("1")

        def run():
            return weaknull.dichotomy_search(inst, xi, eps, depth=5)

        def check(res):
            if res.kind == "certificate_i":
                if not res.found_i or res.found_ii or not res.eps1 > eps:
                    return "certificate (i) inconsistent"
            elif res.kind == "certificate_ii":
                if not res.found_ii or res.found_i or not res.value <= eps:
                    return "certificate (ii) inconsistent"
            elif res.kind != "inconclusive" or res.found_i != res.found_ii:
                return f"outcome {res.kind} inconsistent"
            avg = res.detail.get("best_average")
            if avg is not None:
                prefix = list(avg["prefix"])
                block = prefix[:prefix[0]]
                while len(block) < prefix[0]:
                    block.append(block[-1] + 1)
                y = _lincomb([seq[i - 1] for i in block],
                             [Fraction(1, prefix[0])] * len(block))
                if self._norm(spec, y) != avg["value"]:
                    return "best average differs from the reference"
            return None

        return Op(f"dichotomy/{_label(spec)}", run, check)

    def _ravg_null(self, spec) -> Op:
        seq = self._sequence(7)
        inst = self._instance(spec, seq)
        xi = ordinals.parse("1")
        depth, prefix_len, max_samples = 1, 2, 3

        def run():
            return weaknull.ravg_null_test(
                inst, xi, families.set_from_cli("arith:2:1"), depth=depth,
                prefix_len=prefix_len, max_samples=max_samples)

        def check(rep):
            values = oracle.stream_values("arith:2:1", 16)
            head = values[:prefix_len]
            samples = [values]
            for mask in range((1 << prefix_len) - 2, -1, -1):
                if len(samples) > max_samples:
                    break
                removed = {head[b] for b in range(prefix_len)
                           if not mask >> b & 1}
                samples.append([v for v in values if v not in removed])
            expected = []
            for vals in samples:
                for n in range(1, depth + 1):
                    mu = oracle.measure(oracle.STAGES["1"], vals, n)
                    y = _lincomb([seq[i - 1] for i in mu], list(mu.values()))
                    expected.append((n, self._norm(spec, y)))
            got = [(row.n, row.value) for row in rep.rows]
            if sorted(got) != sorted(expected):
                return "averaged norms differ from the reference"
            if any(row.ok != (row.value < Fraction(1, row.n))
                   for row in rep.rows):
                return "row verdict inconsistent"
            return None

        return Op(f"ravg_null/{_label(spec)}", run, check)


# ---------------------------------------------------------------------------
# norms: every engine, small spread supports and dense large supports

SMALL_SPECS = (
    {"kind": "ell1"}, {"kind": "sup"},
    {"kind": "schreier", "xi": "1"}, {"kind": "schreier", "xi": "2"},
    {"kind": "schreier", "xi": "3"}, {"kind": "schreier", "xi": "w"},
    {"kind": "schreier", "xi": "w+1"}, {"kind": "schreier", "xi": "w^2"},
    {"kind": "mixed", "xis": ["1", "2"]})

# (spec, support size, lowest keys, window width per key).  Each round runs
# every row once, at the lowest key given by the round (the lowest key
# drives the cost of branch and bound, so it is stratified rather than
# drawn).  Stage 1 on a dense window is where branch and bound is
# exponential; the stage-2 row starting at key 1 is the heavy tail (its
# size is recorded in NOTES).
LARGE_ROWS = (
    ({"kind": "schreier", "xi": "1"}, 16, (2, 4, 6, 8), 2),
    ({"kind": "schreier", "xi": "1"}, 17, (3, 5, 7, 9), 2),
    ({"kind": "mixed", "xis": ["1", "2"]}, 16, (2, 4, 6, 8), 2),
    ({"kind": "schreier", "xi": "2"}, 16, (1,), 2),
    ({"kind": "schreier", "xi": "3"}, 20, (1, 4, 7, 10), 2),
    ({"kind": "schreier", "xi": "w"}, 20, (1, 4, 7, 10), 2),
    ({"kind": "schreier", "xi": "w+1"}, 20, (1, 4, 7, 10), 2),
    ({"kind": "schreier", "xi": "w^2"}, 24, (1, 3, 5), 2),
)

# stage w^2 membership can recurse past the interpreter limit once min E is
# about 23 or more (see NOTES); ordinary small-band w^2 keys stay below, the
# ledger probes go above
W2_KEY_CEILING = 20


class Norms:
    """``norm`` on every engine kind over a small and a dense large band."""

    name = "norms"

    def __init__(self, seed: int):
        self.rng = random.Random(f"norms:{seed}")
        self.unique = Unique()
        self.member = oracle.Membership()

    def round(self, r: int) -> list[Op]:
        """Small-band support sizes (3-8) rotate with the round, like the
        lowest keys of the large band, so every run has the same mix."""
        ops = [self._small(spec, 3 + (r + j) % 6)
               for j, spec in enumerate(SMALL_SPECS)]
        ops += [self._ex(), self._tree(), self._z()]
        for spec, n, lows, width in LARGE_ROWS:
            ops.append(self._large(spec, n, lows[r % len(lows)], width))
        return ops

    def _fresh(self, tag, draw) -> dict:
        while True:
            coords = draw()
            if self.unique.fresh((tag, _freeze(coords))):
                return coords

    def _small(self, spec, size: int) -> Op:
        rng = self.rng
        top = W2_KEY_CEILING if spec.get("xi") == "w^2" else 60
        coords = self._fresh(repr(spec), lambda: _coords(
            rng, rng.sample(range(1, top + 1), size)))
        return self._norm_op("small", spec, coords, brute=True)

    def _large(self, spec, n: int, lo: int, width: int) -> Op:
        rng = self.rng

        def draw():
            return _coords(rng, rng.sample(range(lo, lo + width * n), n))

        coords = self._fresh(repr(spec), draw)
        return self._norm_op("large", spec, coords, brute=False)

    def _norm_op(self, band: str, spec: dict, coords: dict, brute: bool) -> Op:
        engine = spaces.engine_from_spec(spec)
        x = _vector(coords)

        def run():
            return engine.norm(x)

        def check(out):
            value, cert = out
            if _reevaluate(cert.coeffs, coords) != value:
                return "certificate does not re-evaluate to the value"
            reason = self._check_sets(spec, cert, coords, value)
            if reason is None and brute and \
                    oracle.engine_norm(self.member, spec, coords) != value:
                reason = "value differs from brute-force enumeration"
            return reason

        return Op(f"{band}/{_label(spec)}/{len(coords)}", run, check)

    def _check_sets(self, spec, cert, coords, value):
        """The certificate's sets are family members carrying the value."""
        if spec["kind"] == "schreier":
            levels = [(spec["xi"], Fraction(1), cert.meta["set"])]
        elif spec["kind"] == "mixed":
            levels = [(lv["xi"], lv["weight"], lv["set"])
                      for lv in cert.meta["levels"]]
        else:
            return None
        total = Fraction(0)
        with oracle.deep_recursion():
            for xi, weight, e in levels:
                if not self.member(oracle.STAGES[xi], tuple(e)):
                    return f"certificate set {e} is not in S_{xi}"
                total += weight * sum((abs(coords[k]) for k in e),
                                      Fraction(0))
        return None if total == value else "set sums differ from the value"

    def _ex(self) -> Op:
        rng = self.rng
        step = rng.choice((2, 3))
        base = rng.choice(({"kind": "ell1"}, {"kind": "sup"},
                           {"kind": "schreier", "xi": "1"}))
        spec = {"kind": "ex", "base": base,
                "partition": [{"kind": "arith", "start": s, "step": step}
                              for s in range(1, step + 1)]}
        coords = self._fresh(repr(spec), lambda: _coords(
            rng, rng.sample(range(1, 61), rng.randint(3, 7))))
        engine = spaces.engine_from_spec(spec)
        x = _vector(coords)

        def check(out):
            value, cert = out
            if cert.evaluate(x) != value:
                return "certificate does not re-evaluate to the value"
            if oracle.engine_norm(self.member, spec, coords) != value:
                return "value differs from brute-force enumeration"
            return None

        return Op(f"small/ex({_label(base)})", lambda: engine.norm(x), check)

    def _tree(self) -> Op:
        rng = self.rng

        def draw():
            nodes = [(1,)]
            while len(nodes) < 10:
                parent = rng.choice(nodes)
                if len(parent) < 3:
                    child = parent + (rng.randint(1, 3),)
                    if child not in nodes:
                        nodes.append(child)
            return _coords(rng, rng.sample(nodes, rng.randint(3, 7)))

        coords = self._fresh("tree", draw)
        nodes = sorted({k[:d] for k in coords for d in range(1, len(k) + 1)})
        engine = spaces.TreeEngine(nodes)
        x = _vector(coords)

        def check(out):
            value, cert = out
            if _reevaluate(cert.coeffs, coords) != value:
                return "certificate does not re-evaluate to the value"
            tops = [tuple(s["top"]) for s in cert.meta["segments"]]
            if any(a != b and (a[:len(b)] == b or b[:len(a)] == a)
                   for a in tops for b in tops):
                return "certificate segments are comparable"
            if oracle.tree_norm(coords) != value:
                return "value differs from brute-force enumeration"
            return None

        return Op("small/tree", lambda: engine.norm(x), check)

    def _z(self) -> Op:
        rng = self.rng
        base = rng.choice(({"kind": "sup"}, {"kind": "ell1"}))
        spec = {"kind": "z", "xi": "1", "base": base}
        coords = self._fresh(repr(spec), lambda: _coords(
            rng, rng.sample(range(1, 41), rng.randint(3, 6))))
        engine = spaces.engine_from_spec(spec)
        x = _vector(coords)

        def check(out):
            value, cert = out
            if abs(cert.reevaluate() - value) > cert.error_bound:
                return "fixed point does not re-evaluate within its bound"
            return None

        return Op(f"small/z({_label(base)})", lambda: engine.norm(x), check)

    def ledger(self) -> Op:
        """Known defect: stage w^2 membership with min E >= 30."""
        rng = self.rng
        spec = {"kind": "schreier", "xi": "w^2"}
        coords = self._fresh("ledger", lambda: _coords(
            rng, rng.sample(range(30, 61), rng.randint(3, 5))))
        return self._norm_op("ledger", spec, coords, brute=True)


# ---------------------------------------------------------------------------
# streams: partitions, repeated averages and enumeration on lazy streams

STREAM_STAGES = ("1", "2", "3", "w", "w+1", "w*2", "w^2")
# (candidate count, candidates drawn from 1..range) per stage; w^2 stays
# below its recursion ceiling
ENUM_SIZE = {"1": (16, 32), "2": (13, 26), "3": (13, 26), "w": (12, 24),
             "w+1": (12, 24), "w*2": (11, 22), "w^2": (10, 16)}
LIMIT_STAGES = ("w", "w+1", "w*2", "w^2")
STREAM_KINDS = ("arith", "list", "geom")


class Streams:
    """Partition walks under probe budgets, measures, validation,
    convolution, truncated enumeration and the fast-growing check."""

    name = "streams"

    def __init__(self, seed: int):
        self.rng = random.Random(f"streams:{seed}")
        self.unique = Unique()
        self.member = oracle.Membership()

    def _stream(self, kind: str) -> str:
        rng = self.rng
        if kind == "arith":
            return f"arith:{rng.randint(1, 5)}:{rng.randint(1, 3)}"
        if kind == "geom":
            # first value base * scale stays at 12 or less: from 16 on,
            # stage w^2 recurses too deep (see NOTES)
            base = rng.randint(2, 4)
            return f"geom:{base}:{rng.randint(1, 12 // base)}"
        vals = [rng.randint(1, 4)]
        for _ in range(rng.randint(4, 10)):
            vals.append(vals[-1] + rng.randint(1, 4))
        return f"list:{','.join(map(str, vals))}:{rng.randint(1, 3)}"

    def _input(self, tag: str, stage: str, kind: str) -> tuple:
        """A fresh stream and its probe budget.  Budgets vary by 5% around
        a fixed value per class, so an operation that exhausts one costs
        about the same whatever the seed: finite stages on arithmetic and
        list streams walk up to 4500 elements; limit stages 1400, below the
        budgets where the limit-stage walk recurses too deep (see NOTES);
        geometric streams (huge integers) 350."""
        if kind == "geom":
            budget = 350
        elif stage in LIMIT_STAGES:
            budget = 1400
        else:
            budget = 4500
        while True:
            spec = self._stream(kind)
            jittered = self.rng.randint(budget * 19 // 20, budget * 21 // 20)
            if self.unique.fresh((tag, stage, spec, jittered)):
                return spec, jittered

    def round(self, r: int) -> list[Op]:
        """Stages and stream kinds rotate with the round, so every 21 rounds
        each operation meets every (stage, stream kind) pair once; block
        counts (2-3) and measure indices (1-3) rotate too."""
        n, k = len(STREAM_STAGES), len(STREAM_KINDS)
        stage = [STREAM_STAGES[(r + j) % n] for j in range(5)]
        kind = [STREAM_KINDS[(r + j) % k] for j in range(5)]
        return [self._partition(stage[0], kind[0], 2 + r % 2),
                self._depth(stage[1], kind[1]),
                self._measure(stage[2], kind[2], 1 + r // k % 3),
                self._validate(stage[3], kind[3]),
                self._enumerate(stage[4]),
                self._convolve(r, STREAM_KINDS[r % k]),
                self._fastgrow(r)]

    def _partition(self, stage: str, kind: str, count: int) -> Op:
        spec, budget = self._input("partition", stage, kind)
        made: list = []

        def run():
            m = families.set_from_cli(spec)
            made.append(m)
            return families.partition_blocks(
                m, families.schreier_family(ordinals.parse(stage)), count,
                probe_limit=budget)

        def reference():
            return oracle.first_blocks(oracle.STAGES[stage],
                                       oracle.stream_values(spec, budget),
                                       count)

        def check(got):
            want = reference()
            if len(want) < count:
                return "returned blocks the reference cannot fit"
            if [tuple(b) for b in got] != want:
                return "partition blocks differ from the reference"
            return self._check_maximal(stage, want, spec, budget)

        def on_limit():
            return None if len(reference()) < count else \
                "probe limit hit although the blocks fit"

        return Op(f"partition/{stage}", run, check, on_limit, made)

    def _check_maximal(self, stage, blocks, spec, budget):
        """Small blocks are members that no next element extends."""
        values = oracle.stream_values(spec, budget + 1)
        pos = 0
        xi = oracle.STAGES[stage]
        with oracle.deep_recursion():
            for b in blocks:
                pos += len(b)
                if len(b) <= 12 and (not self.member(xi, b) or self.member(
                        xi, b + (values[pos],))):
                    return f"block {b} is not a maximal member"
        return None

    def _depth(self, stage: str, kind: str) -> Op:
        spec, budget = self._input("depth", stage, kind)
        made: list = []

        def run():
            m = families.set_from_cli(spec)
            made.append(m)
            return families.feasible_depth(
                m, families.schreier_family(ordinals.parse(stage)), 8, budget)

        def check(got):
            want = len(oracle.first_blocks(
                oracle.STAGES[stage], oracle.stream_values(spec, budget), 8))
            return None if got == want else f"depth {got}, reference {want}"

        return Op(f"feasible_depth/{stage}", run, check, streams=made)

    def _measure(self, stage: str, kind: str, n: int) -> Op:
        spec, budget = self._input("measure", stage, kind)
        made: list = []

        def run():
            m = families.set_from_cli(spec)
            made.append(m)
            return ravg.ravg_measure(ordinals.parse(stage), m, n,
                                     probe_limit=budget)

        def reference():
            try:
                return oracle.measure(oracle.STAGES[stage],
                                      oracle.stream_values(spec, budget), n)
            except oracle.Exhausted:
                return None

        def check(mu):
            want = reference()
            if want is None:
                return "returned a measure the reference cannot fit"
            if dict(mu.weights) != want or mu.mass != 1:
                return "measure differs from the reference"
            blocks = oracle.first_blocks(oracle.STAGES[stage],
                                         oracle.stream_values(spec, budget), n)
            if mu.support != blocks[-1]:
                return "support is not the partition block"
            return None

        def on_limit():
            return None if reference() is None else \
                "probe limit hit although the measure fits"

        return Op(f"measure/{stage}", run, check, on_limit, made)

    def _validate(self, stage: str, kind: str) -> Op:
        spec, budget = self._input("validate", stage, kind)
        made: list = []
        depth = 2

        def run():
            m = families.set_from_cli(spec)
            made.append(m)
            block = ravg.canonical_block(ordinals.parse(stage), budget)
            return ravg.block_validate(block, [(m, depth)], budget)

        def fits():
            return len(oracle.first_blocks(
                oracle.STAGES[stage], oracle.stream_values(spec, budget),
                depth)) == depth

        def check(rep):
            if not fits():
                return "validated blocks the reference cannot fit"
            if not rep.ok or rep.checked != depth:
                return f"validation reported {rep.violations}"
            return None

        def on_limit():
            return None if not fits() else \
                "probe limit hit although the blocks fit"

        return Op(f"validate/{stage}", run, check, on_limit, made)

    def _convolve(self, r: int, kind: str) -> Op:
        zeta, xi = (("0", "1"), ("1", "0"), ("1", "1"))[r % 3]
        spec, budget = self._input(f"convolve{zeta}", xi, kind)
        made: list = []

        def run():
            m = families.set_from_cli(spec)
            made.append(m)
            block = ravg.convolve(
                ravg.canonical_block(ordinals.parse(zeta), budget),
                ravg.canonical_block(ordinals.parse(xi), budget),
                probe_limit=budget)
            return block.measure(m, 1)

        def reference():
            values = oracle.stream_values(spec, budget)
            inner = oracle.first_blocks(oracle.STAGES[xi], values, 64)
            minima = [b[0] for b in inner]
            try:
                q = oracle.measure(oracle.STAGES[zeta], minima, 1)
                used = oracle.first_blocks(oracle.STAGES[zeta], minima, 1)[0]
            except (oracle.Exhausted, IndexError):
                return None
            acc: dict = {}
            for i, b in enumerate(inner[:len(used)]):
                p = oracle.measure(oracle.STAGES[xi], values[sum(
                    len(c) for c in inner[:i]):], 1)
                for k, v in p.items():
                    acc[k] = acc.get(k, Fraction(0)) + q[b[0]] * v
            return acc

        def check(mu):
            want = reference()
            if want is None:
                return "returned a measure the reference cannot fit"
            if dict(mu.weights) != want or mu.mass != 1:
                return "convolved measure differs from the reference"
            return None

        def on_limit():
            return None if reference() is None else \
                "probe limit hit although the measure fits"

        return Op(f"convolve/{zeta}*{xi}", run, check, on_limit, made)

    def _enumerate(self, stage: str) -> Op:
        """Members of S_stage inside a seeded candidate set of 10-16 points
        (about 0.1 s each at the seed commit).  The least candidate is
        fixed at 3: it decides most of the member count."""
        rng = self.rng
        n, top = ENUM_SIZE[stage]
        while True:
            candidates = (3,) + tuple(sorted(rng.sample(range(4, top + 2),
                                                        n - 1)))
            if self.unique.fresh(("enumerate", stage, candidates)):
                break
        probe_rng = random.Random(rng.random())

        def run():
            return families.enumerate_within(
                families.schreier_family(ordinals.parse(stage)), candidates)

        def check(members):
            got = set(members)
            if len(got) != len(members) or any(
                    not set(e) <= set(candidates) for e in members):
                return "members repeat or leave the candidate set"
            xi = oracle.STAGES[stage]
            probes = [tuple(sorted(probe_rng.sample(candidates,
                                                    probe_rng.randint(1, n))))
                      for _ in range(40)]
            probes += probe_rng.sample(members, min(20, len(members)))
            with oracle.deep_recursion():
                for e in probes:
                    if (e in got) != self.member(xi, e):
                        return f"membership of {e} differs from the reference"
            return None

        return Op(f"enumerate/{stage}", run, check)

    def _fastgrow(self, r: int) -> Op:
        rng = self.rng
        xi = ("1", "2")[r % 2]
        while True:
            base, n = rng.randint(3, 5), rng.randint(30, 80)
            if self.unique.fresh(("fastgrow", xi, base, n)):
                break
        kspec, lspec = "arith:1:1", f"geom:{base}"
        eps = Fraction(1, 2)
        made: list = []

        def run():
            k, l = families.set_from_cli(kspec), families.set_from_cli(lspec)
            made.extend((k, l))
            return ravg.fastgrow_check(ordinals.parse(xi), k, l, eps, n)

        def check(rep):
            if rep.bound != 1 + eps or rep.bound_ok != (rep.max_sum <= rep.bound):
                return "bound verdict inconsistent"
            for p in rep.checked_pairs:
                if p["lhs"] != p["k"] * (1 + 2 * eps) or \
                        p["rhs"] != p["l_next"] * eps:
                    return "checked pair arithmetic is wrong"
            if rep.condition_holds != all(p["lhs"] <= p["rhs"]
                                          for p in rep.checked_pairs):
                return "condition verdict inconsistent"
            if rep.witness and not self.member(oracle.STAGES[xi],
                                               tuple(rep.witness)):
                return "witness is not admissible"
            return None

        return Op(f"fastgrow/{xi}", run, check, streams=made)

    def ledger(self) -> Op:
        """Known defect: feasible_depth at stage w on arith:1:1, budget 5000."""
        made: list = []

        def run():
            m = families.set_from_cli("arith:1:1")
            made.append(m)
            return families.feasible_depth(
                m, families.schreier_family(ordinals.parse("w")), 8, 5000)

        def check(got):
            want = len(oracle.first_blocks(
                oracle.STAGES["w"], oracle.stream_values("arith:1:1", 5000),
                8))
            return None if got == want else f"depth {got}, reference {want}"

        return Op("ledger/feasible_depth/w", run, check, streams=made)


IN_PROCESS = {"certify": Certify, "norms": Norms, "streams": Streams}
