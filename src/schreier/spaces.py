"""Norm engines on finitely supported rational vectors.

Every engine evaluates one norm and returns the value together with a dual
certificate that re-evaluates to the same number.  All kinds except the
implicit fixed-point norm are maxima of finitely many rational linear
functionals and are computed exactly; the fixed-point norm is evaluated in
floating point with a certified error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import families, ordinals
from .families import LazySet, Schreier, schreier_family, set_from_spec
from .ordinals import Ordinal, ONE


@dataclass(frozen=True)
class Vector:
    """A finitely supported vector with exact rational coordinates.

    Keys are positive integers, or integer tuples for tree coordinates.
    Zero coordinates are dropped.
    """

    coords: tuple

    @staticmethod
    def from_dict(d: dict) -> "Vector":
        return Vector(tuple(sorted((k, x) for k, v in d.items()
                                   if (x := Fraction(v)))))

    @staticmethod
    def basis(key) -> "Vector":
        return Vector(((key, Fraction(1)),))

    @staticmethod
    def zero() -> "Vector":
        return Vector(())

    def as_dict(self) -> dict:
        return dict(self.coords)

    @property
    def support(self) -> tuple:
        return tuple(k for k, _ in self.coords)

    def __getitem__(self, key) -> Fraction:
        for k, v in self.coords:
            if k == key:
                return v
        return Fraction(0)

    def scale(self, c) -> "Vector":
        c = Fraction(c)
        return Vector.from_dict({k: c * v for k, v in self.coords})

    def add(self, other: "Vector") -> "Vector":
        out = dict(self.coords)
        for k, v in other.coords:
            out[k] = out.get(k, Fraction(0)) + v
        return Vector.from_dict(out)

    def restrict(self, keys) -> "Vector":
        keys = set(keys)
        return Vector(tuple((k, v) for k, v in self.coords if k in keys))

    def l1(self) -> Fraction:
        return sum((abs(v) for _, v in self.coords), Fraction(0))

    def to_json(self) -> dict:
        return {"coords": [[list(k) if isinstance(k, tuple) else k,
                            f"{v.numerator}/{v.denominator}"]
                           for k, v in self.coords]}

    @staticmethod
    def from_json(data: dict) -> "Vector":
        out = {}
        for k, s in data["coords"]:
            key = tuple(k) if isinstance(k, list) else int(k)
            out[key] = Fraction(s)
        return Vector.from_dict(out)


def combine(vectors, weights) -> Vector:
    """Exact linear combination sum(w_i * x_i)."""
    acc: dict = {}
    for w, x in zip(weights, vectors):
        w = Fraction(w)
        if not w:
            continue
        for k, v in x.coords:
            acc[k] = acc.get(k, Fraction(0)) + w * v
    return Vector.from_dict(acc)


class DualCert:
    """A functional of dual norm at most one, with a witness description.

    ``coeffs`` gives explicit coefficients; engines whose functionals have
    infinite support (the interval-quotient kind) supply ``coeff_fn``
    instead, which is total on vector keys.
    """

    def __init__(self, coeffs: dict | None = None, coeff_fn=None,
                 meta: dict | None = None):
        self.coeffs = coeffs
        self.coeff_fn = coeff_fn
        self.meta = meta or {}

    def coefficient(self, key) -> Fraction:
        if self.coeffs is not None:
            return self.coeffs.get(key, Fraction(0))
        return self.coeff_fn(key)

    def evaluate(self, x: Vector) -> Fraction:
        return sum((self.coefficient(k) * v for k, v in x.coords),
                   Fraction(0))

    def describe(self) -> dict:
        return self.meta


class NormEngine:
    """Base class: ``norm`` returns (value, certificate)."""

    kind = "abstract"
    exact = True

    def norm(self, x: Vector):
        raise NotImplementedError

    def value(self, x: Vector):
        return self.norm(x)[0]

    def spec(self) -> dict:
        raise NotImplementedError

    def _check_keys(self, x: Vector):
        for k, _ in x.coords:
            if not isinstance(k, int) or k < 1:
                raise ValueError(f"engine {self.kind} needs positive integer "
                                 f"coordinates, got {k!r}")


def _sign(v: Fraction) -> Fraction:
    return Fraction(1) if v >= 0 else Fraction(-1)


class L1Engine(NormEngine):
    kind = "ell1"

    def norm(self, x: Vector):
        self._check_keys(x)
        coeffs = {k: _sign(v) for k, v in x.coords}
        value = sum((abs(v) for _, v in x.coords), Fraction(0))
        return value, DualCert(coeffs, meta={"kind": self.kind,
                                             "set": x.support})

    def spec(self) -> dict:
        return {"kind": "ell1"}


class SupEngine(NormEngine):
    kind = "sup"

    def norm(self, x: Vector):
        self._check_keys(x)
        if not x.coords:
            return Fraction(0), DualCert({}, meta={"kind": self.kind})
        key, val = max(x.coords, key=lambda kv: (abs(kv[1]), -kv[0]))
        return abs(val), DualCert({key: _sign(val)},
                                  meta={"kind": self.kind, "argmax": key})

    def spec(self) -> dict:
        return {"kind": "sup"}


class SchreierEngine(NormEngine):
    """Max over admissible sets of the restricted absolute sum.

    Masses |x_k| are scaled by the lcm of their denominators and handed to
    ``families.max_member_sum``, whose tie rule decides which set the
    certificate names when several attain the maximum.
    """

    kind = "schreier"

    def __init__(self, xi: Ordinal):
        self.xi = xi
        self.family = schreier_family(xi)

    def norm(self, x: Vector):
        self._check_keys(x)
        scale = math.lcm(*(v.denominator for _, v in x.coords))
        best, best_set = families.max_member_sum(
            self.family, x.support,
            [abs(v.numerator) * (scale // v.denominator) for _, v in x.coords])
        vals = dict(x.coords)
        coeffs = {k: _sign(vals[k]) for k in best_set}
        return Fraction(best, scale), DualCert(
            coeffs, meta={"kind": self.kind, "set": best_set})

    def spec(self) -> dict:
        return {"kind": "schreier", "xi": ordinals.fmt(self.xi)}


class MixedEngine(NormEngine):
    """Weighted sum of admissible-set norms with dyadic weights.

    Weight 2^-n goes to the n-th level; the last listed level also absorbs
    the dyadic tail so that basis vectors have norm exactly one (the
    infinite construction repeats levels cofinally).
    """

    kind = "mixed"

    def __init__(self, xis):
        if not xis:
            raise ValueError("need at least one level")
        self.xis = tuple(xis)
        self.levels = [SchreierEngine(xi) for xi in self.xis]
        n = len(self.levels)
        self.weights = [Fraction(1, 2 ** (i + 1)) for i in range(n - 1)]
        self.weights.append(Fraction(1, 2 ** (n - 1)))

    def norm(self, x: Vector):
        self._check_keys(x)
        total = Fraction(0)
        parts = []
        coeffs: dict = {}
        for w, engine in zip(self.weights, self.levels):
            v, cert = engine.norm(x)
            total += w * v
            parts.append({"xi": ordinals.fmt(engine.xi), "weight": w,
                          "set": cert.meta.get("set", ())})
            for k, c in (cert.coeffs or {}).items():
                coeffs[k] = coeffs.get(k, Fraction(0)) + w * c
        return total, DualCert(coeffs, meta={"kind": self.kind,
                                             "levels": parts})

    def spec(self) -> dict:
        return {"kind": "mixed", "xis": [ordinals.fmt(xi) for xi in self.xis]}


class ExEngine(NormEngine):
    """Interval-quotient envelope of a base norm.

    Coordinates are folded onto base coordinates through a list of disjoint
    index classes; the norm is the sup of the base norm of the folded
    restriction over all intervals.
    """

    kind = "ex"

    def __init__(self, base: NormEngine, classes: list[LazySet],
                 probe_limit: int = families.DEFAULT_PROBE_LIMIT):
        self.base = base
        self.classes = list(classes)
        self.probe_limit = probe_limit

    def class_of(self, n: int) -> int | None:
        """1-based class index containing n, or None."""
        for i, cls in enumerate(self.classes):
            with cls.probe_guard(self.probe_limit):
                if cls.contains(n):
                    return i + 1
        return None

    def _fold(self, items) -> Vector:
        acc: dict[int, Fraction] = {}
        for n, v in items:
            i = self.class_of(n)
            if i is None:
                raise ValueError(f"coordinate {n} lies in no partition class")
            acc[i] = acc.get(i, Fraction(0)) + v
        return Vector.from_dict(acc)

    def quotient_apply(self, x: Vector) -> Vector:
        """Image of x under the class identification."""
        self._check_keys(x)
        return self._fold(x.coords)

    def norm(self, x: Vector):
        self._check_keys(x)
        if not x.coords:
            return Fraction(0), DualCert({}, meta={"kind": self.kind})
        items = list(x.coords)
        best = None
        for i in range(len(items)):
            for j in range(i, len(items)):
                folded = self._fold(items[i:j + 1])
                v, base_cert = self.base.norm(folded)
                if best is None or v > best[0]:
                    interval = (items[i][0], items[j][0])
                    best = (v, interval, base_cert)
        value, interval, base_cert = best
        lo, hi = interval

        def coeff(n):
            if not isinstance(n, int) or n < lo or n > hi:
                return Fraction(0)
            i = self.class_of(n)
            return Fraction(0) if i is None else base_cert.coefficient(i)

        return value, DualCert(coeff_fn=coeff,
                               meta={"kind": self.kind, "interval": interval,
                                     "base": base_cert.meta})

    def spec(self) -> dict:
        return {"kind": "ex", "base": self.base.spec(),
                "partition": [{"kind": "opaque", "describe": c.describe}
                              for c in self.classes]}


class TreeEngine(NormEngine):
    """Sum over pairwise incomparable segments of the segment max.

    A segment is a chain from a node down to a descendant; a family is
    admissible when no node of one segment is comparable with a node of
    another.  The optimum is computed by one pass over the tree: below any
    node, either the children subtrees contribute independently or a single
    segment through the node swallows the whole subtree.
    """

    kind = "tree"

    def __init__(self, nodes):
        self.nodes = frozenset(tuple(t) for t in nodes)
        for t in self.nodes:
            if not t or any(not isinstance(v, int) or v < 1 for v in t):
                raise ValueError(f"bad tree node {t!r}")
            if len(t) > 1 and t[:-1] not in self.nodes:
                raise ValueError(f"tree is not prefix closed at {t!r}")

    def _check_keys(self, x: Vector):
        for k, _ in x.coords:
            if not isinstance(k, tuple) or k not in self.nodes:
                raise ValueError(f"coordinate {k!r} is not a tree node")

    def norm(self, x: Vector):
        self._check_keys(x)
        children: dict[tuple, list] = {(): []}
        for t in sorted(self.nodes):
            children[t] = []
        for t in sorted(self.nodes):
            children[t[:-1]].append(t)

        vals = dict(x.coords)

        def walk(u):
            """Returns (best, picks, subtree_max, argmax_node)."""
            sub_best = Fraction(0)
            sub_picks = []
            m_val, m_node = abs(vals.get(u, Fraction(0))), u
            for c in children.get(u, ()):
                b, p, mv, mn = walk(c)
                sub_best += b
                sub_picks.extend(p)
                if mv > m_val:
                    m_val, m_node = mv, mn
            if u == ():
                return sub_best, sub_picks, m_val, m_node
            if m_val > sub_best:
                return m_val, [(u, m_node)], m_val, m_node
            return sub_best, sub_picks, m_val, m_node

        value, picks, _, _ = walk(())
        picks = [(top, node) for top, node in picks
                 if vals.get(node, Fraction(0)) != 0]
        coeffs = {node: _sign(vals[node]) for _, node in picks}
        segments = [{"top": list(top), "argmax": list(node)}
                    for top, node in picks]
        return value, DualCert(coeffs, meta={"kind": self.kind,
                                             "segments": segments})

    def spec(self) -> dict:
        return {"kind": "tree", "nodes": [list(t) for t in sorted(self.nodes)]}


@dataclass
class ZCert:
    """Recursion trace of the implicit norm: re-running the scalar fixed
    point from the recorded level values reproduces the result."""

    value: float
    error_bound: float
    c0: float
    level_values: list[float]
    level_weights: list[float]
    iterates: list[float]
    meta: dict

    def reevaluate(self) -> float:
        t = 0.0
        for _ in range(10 * len(self.iterates) + 200):
            nxt = _z_fixed_step(self.c0, self.level_weights,
                                self.level_values, t)
            if nxt - t <= 1e-17 + 1e-16 * nxt:
                return nxt
            t = nxt
        return t


def _z_fixed_step(c0: float, weights2, level_vals, t: float) -> float:
    s = 0.0
    for w2, v in zip(weights2, level_vals):
        m = t if t > v else v
        s += w2 * m * m
    return max(c0, math.sqrt(s))


class ZEngine(NormEngine):
    """The implicit norm mixing a base norm with square-summed weighted
    admissible interval splittings.

    The single full-cover interval makes the defining equation
    self-referential; on a fixed support it reduces to a scalar fixed point
    t = max(c0, sqrt(sum_n max(theta_n t, theta_n V_n)^2)) with contraction
    factor at most vartheta / sqrt(3), solved by monotone iteration.  Values
    carry a certified absolute error bound.
    """

    kind = "z"
    exact = False

    def __init__(self, xi: Ordinal, base: NormEngine,
                 vartheta: Fraction = Fraction(1, 2),
                 tolerance: float = 1e-12, max_iter: int = 500):
        vartheta = Fraction(vartheta)
        if not (0 < vartheta < 1):
            raise ValueError("vartheta must lie in (0, 1)")
        if xi.is_zero:
            raise ValueError("the implicit norm needs stage >= 1")
        self.xi = xi
        self.base = base
        self.vartheta = vartheta
        self.tolerance = tolerance
        self.max_iter = max_iter
        self._omega_xi = ordinals.omega_pow(xi)
        self._level_cache: dict[int, Schreier] = {}

    def level_family(self, n: int) -> Schreier:
        fam = self._level_cache.get(n)
        if fam is None:
            stage = ordinals.add(ordinals.fund_seq(self._omega_xi, n), ONE)
            fam = self._level_cache[n] = schreier_family(stage)
        return fam

    def level_weight(self, n: int) -> Fraction:
        return self.vartheta / 2 ** n

    def _levels_for(self, u: float) -> int:
        # tail of the square sum below (tolerance / 8)^2
        if u <= 0:
            return 8
        target = self.tolerance / 8
        lvl = 8
        while float(self.vartheta) * u / (math.sqrt(3) * 2 ** lvl) > target:
            lvl += 1
        return lvl

    def norm(self, x: Vector):
        self._check_keys(x)
        info = self.norm_detail(x)
        cert = ZCert(value=info["t"], error_bound=info["err"],
                     c0=info["c0"], level_values=info["levels"],
                     level_weights=info["weights2"],
                     iterates=info["iterates"],
                     meta={"kind": self.kind, "support": x.support,
                           "splits": info["splits"]})
        return info["t"], cert

    def spec(self) -> dict:
        return {"kind": "z", "xi": ordinals.fmt(self.xi),
                "base": self.base.spec(),
                "vartheta": f"{self.vartheta.numerator}/"
                            f"{self.vartheta.denominator}",
                "tolerance": self.tolerance}

    def norm_detail(self, x: Vector) -> dict:
        """The evaluation behind ``norm``: value, error bound, level values
        and weights, iterates and splits."""
        positions = x.support
        levels = self._levels_for(float(x.l1()))
        memo: dict = {}
        info = self._eval_run(x, positions, 0, len(positions) - 1,
                              levels, memo) if positions else None
        if info is None:
            return {"t": 0.0, "err": 0.0, "c0": 0.0, "levels": [],
                    "weights2": [], "iterates": [0.0], "splits": []}
        return info

    def _eval_run(self, x: Vector, positions, i: int, j: int,
                  levels: int, memo: dict) -> dict:
        key = (i, j)
        hit = memo.get(key)
        if hit is not None:
            return hit
        keys = positions[i:j + 1]
        sub = x.restrict(keys)
        c0_frac = self.base.value(sub)
        c0 = float(c0_frac)
        weights2 = [float(self.level_weight(n)) ** 2
                    for n in range(1, levels + 1)]
        free = self._free_split(x, positions, i, j, levels, memo)
        level_vals: list[float] = []
        level_errs: list[float] = []
        level_splits: list[list] = []
        for n in range(1, levels + 1):
            fam = self.level_family(n)
            if fam.contains(free["minima"]):
                v, e, parts = free["value"], free["err"], free["parts"]
            else:
                v, e, parts = self._best_split(x, positions, i, j, fam,
                                               free["bound"], levels, memo)
            level_vals.append(v)
            level_errs.append(e)
            level_splits.append(parts)

        q = math.sqrt(sum(weights2))
        stop = self.tolerance / 16
        t = _z_fixed_step(c0, weights2, level_vals, 0.0)
        iterates = [t]
        for _ in range(self.max_iter):
            nxt = _z_fixed_step(c0, weights2, level_vals, t)
            iterates.append(nxt)
            if nxt - t <= stop:
                t = nxt
                break
            t = nxt
        else:
            raise RuntimeError("fixed point iteration did not converge; "
                               f"last increment {iterates[-1] - iterates[-2]}")
        resid = iterates[-1] - iterates[-2] if len(iterates) > 1 else 0.0
        hi_vals = [v + e for v, e in zip(level_vals, level_errs)]
        prop = _z_fixed_step(c0, weights2, hi_vals, t) - \
            _z_fixed_step(c0, weights2, level_vals, t)
        tail = float(self.vartheta) * float(x.l1()) / \
            (math.sqrt(3) * 2 ** levels)
        err = (resid + prop) / (1 - q) + tail + 1e-15 * (1 + t)
        out = {"t": t, "err": err, "c0": c0, "levels": level_vals,
               "weights2": weights2, "iterates": iterates,
               "splits": level_splits}
        memo[key] = out
        return out

    def _free_split(self, x: Vector, positions, i: int, j: int,
                    levels: int, memo: dict) -> dict:
        """Best splitting into strict subruns ignoring admissibility.

        Level-independent, so it is computed once per run: it provides the
        shortcut value when its minima happen to be admissible and an upper
        bound for pruning the constrained search otherwise.
        """
        length = j - i + 1
        best = [(0.0, 0.0, (), []) for _ in range(length + 1)]
        for pos in range(j, i - 1, -1):
            cand = best[pos - i + 1]
            for b in range(pos, j + 1):
                if pos == i and b == j:
                    continue
                child = self._eval_run(x, positions, pos, b, levels, memo)
                rest = best[b - i + 1]
                v = child["t"] + rest[0]
                if v > cand[0]:
                    cand = (v, child["err"] + rest[1],
                            (positions[pos],) + rest[2],
                            [(pos, b)] + rest[3])
            best[pos - i] = cand
        top = best[0]
        return {"value": top[0], "err": top[1], "minima": top[2],
                "parts": top[3], "bound": [b[0] for b in best]}

    def _best_split(self, x: Vector, positions, i: int, j: int, fam: Schreier,
                    bound, levels: int, memo: dict):
        """Best admissible splitting into strict subruns.

        Parts are runs of consecutive support points; the part minima must
        form a stage set.  The full single run is excluded (it is the
        self-referential term of the fixed point).  Depth-first search with
        the unconstrained optimum as pruning bound; the part minima are
        carried as the stage family's membership cursor.
        """
        best = [0.0, 0.0, []]
        step = fam.step

        def rec(pos: int, state, cur: float, err: float, parts: list):
            if cur > best[0]:
                best[0], best[1], best[2] = cur, err, list(parts)
            if pos > j or cur + bound[pos - i] <= best[0]:
                return
            if state is not None:
                new_state = step(state, positions[pos])
                for b in range(pos, j + 1):
                    if pos == i and b == j:
                        continue
                    child = self._eval_run(x, positions, pos, b, levels, memo)
                    parts.append((pos, b))
                    rec(b + 1, new_state, cur + child["t"],
                        err + child["err"], parts)
                    parts.pop()
            rec(pos + 1, state, cur, err, parts)

        rec(i, fam.start(), 0.0, 0.0, [])
        return best[0], best[1], best[2]


def lower_l1_margin(engine: ZEngine, blocks, n: int, f_set, coeffs,
                    block_norm_tol: float = 1e-6):
    """Norm of the combination minus the weighted absolute-sum floor.

    ``blocks`` must be successive normalized vectors; ``f_set`` indexes
    them and must be admissible at stage n.  Nonnegative up to tolerances.
    """
    if not isinstance(engine, ZEngine):
        raise ValueError("the lower bound is specific to the implicit norm")
    f_set = families.check_finset(f_set)
    if len(coeffs) != len(f_set):
        raise ValueError("one coefficient per index required")
    last_max = 0
    for b in blocks:
        supp = b.support
        if not supp or supp[0] <= last_max:
            raise ValueError("blocks must be successive with disjoint, "
                             "increasing supports")
        last_max = supp[-1]
    if any(i < 1 or i > len(blocks) for i in f_set):
        raise ValueError("index set out of range")
    for i in f_set:
        v = engine.value(blocks[i - 1])
        if abs(v - 1.0) > block_norm_tol:
            raise ValueError(f"block {i} has norm {v}, not 1")
    if not engine.level_family(n).contains(f_set):
        raise ValueError(f"{f_set} is not admissible at stage {n}")
    y = combine([blocks[i - 1] for i in f_set], coeffs)
    total = sum((abs(Fraction(c)) for c in coeffs), Fraction(0))
    return engine.value(y) - float(engine.level_weight(n)) * float(total)


def engine_from_spec(spec: dict) -> NormEngine:
    """Build a norm engine from its JSON description."""
    kind = spec.get("kind")
    if kind == "ell1":
        return L1Engine()
    if kind == "sup":
        return SupEngine()
    if kind == "schreier":
        return SchreierEngine(ordinals.parse(spec["xi"]))
    if kind == "mixed":
        return MixedEngine([ordinals.parse(s) for s in spec["xis"]])
    if kind == "ex":
        return ExEngine(engine_from_spec(spec["base"]),
                        [set_from_spec(s) for s in spec["partition"]])
    if kind == "z":
        return ZEngine(ordinals.parse(spec["xi"]),
                       engine_from_spec(spec["base"]),
                       Fraction(spec.get("vartheta", "1/2")),
                       float(spec.get("tolerance", 1e-12)))
    if kind == "tree":
        return TreeEngine(spec["nodes"])
    raise ValueError(f"unknown engine kind: {kind!r}")
