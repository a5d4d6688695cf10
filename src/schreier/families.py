"""Regular families of finite subsets of N.

Finite sets are tuples of strictly increasing positive integers.  Infinite
sets are LazySet streams.  A Family is a grammar node (bounded-cardinality
sets, the transfinite admissible hierarchy, composition, image, preimage,
union) exposing membership, maximal initial segments, partitions,
largest admissible sums, truncated enumeration, and both symbolic and
probe rank computation.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator

from . import ordinals
from .ordinals import Ordinal, ZERO, ONE, from_int

FinSet = tuple[int, ...]

DEFAULT_PROBE_LIMIT = 10 ** 6
DEFAULT_ENUM_LIMIT = 24


class ProbeLimitError(RuntimeError):
    """A stream operation would materialize more elements than allowed."""

    def __init__(self, message: str, consumed: int):
        super().__init__(f"{message} (consumed {consumed} stream elements)")
        self.consumed = consumed


class EnumerationLimitError(RuntimeError):
    """A truncated enumeration exceeded its configured bound."""


def check_finset(e) -> FinSet:
    e = tuple(e)
    prev = 0
    for v in e:
        if not isinstance(v, int) or v <= prev:
            raise ValueError(f"not a strictly increasing positive sequence: {e}")
        prev = v
    return e


# ---------------------------------------------------------------------------
# Lazy infinite strictly increasing sets


class LazySet:
    """A strictly increasing infinite subset of N, memoized by prefix.

    Elements are pulled one at a time and cached; ``consumed`` reports how
    much of the stream has been materialized.  Stream operations read by
    position through ``value``; a derived stream (``remove_finite``) reads
    through its parent, so a probe guard placed on the root bounds every
    view of it.  The cache is lock-guarded.
    """

    def __init__(self, it: Iterator[int], describe: str = "stream",
                 root: "LazySet | None" = None):
        self._it = it
        self._cache: list[int] = []
        self._lock = threading.Lock()
        self._cap: int | None = None
        self.describe = describe
        # None for a root stream: a reference to itself would make every
        # root a reference cycle that only the cyclic collector frees
        self._root = root

    # construction ----------------------------------------------------------

    @staticmethod
    def from_function(fn: Callable[[int], int], describe: str = "stream") -> "LazySet":
        def gen():
            i = 1
            while True:
                yield fn(i)
                i += 1
        return LazySet(gen(), describe)

    @staticmethod
    def naturals() -> "LazySet":
        return LazySet.from_function(lambda i: i, "arith:1:1")

    @staticmethod
    def arithmetic(start: int, step: int) -> "LazySet":
        if start < 1 or step < 1:
            raise ValueError("start and step must be positive")
        return LazySet.from_function(
            lambda i: start + (i - 1) * step, f"arith:{start}:{step}")

    @staticmethod
    def geometric(base: int, scale: int = 1) -> "LazySet":
        if base < 2 or scale < 1:
            raise ValueError("need base >= 2 and scale >= 1")
        return LazySet.from_function(
            lambda i: scale * base ** i, f"geom:{base}:{scale}")

    @staticmethod
    def from_prefix(prefix, tail_step: int = 1) -> "LazySet":
        prefix = check_finset(prefix)
        if not prefix:
            raise ValueError("prefix must be nonempty")
        if tail_step < 1:
            raise ValueError("tail step must be positive")

        def gen():
            yield from prefix
            v = prefix[-1]
            while True:
                v += tail_step
                yield v
        return LazySet(gen(), f"list-prefix:{list(prefix)}:+{tail_step}")

    # access ----------------------------------------------------------------

    @property
    def root(self) -> "LazySet":
        """The stream whose probe budget bounds this one."""
        return self if self._root is None else self._root

    @property
    def consumed(self) -> int:
        """High-water mark of materialized elements (per stream object)."""
        return len(self._cache)

    @contextmanager
    def probe_guard(self, limit: int | None):
        """Bound how far the root stream may materialize inside the block."""
        root = self.root
        old = root._cap
        if limit is not None:
            root._cap = limit if old is None else min(old, limit)
        try:
            yield
        finally:
            root._cap = old

    def _ensure(self, n: int):
        with self._lock:
            while len(self._cache) < n:
                if self._root is None and self._cap is not None \
                        and len(self._cache) >= self._cap:
                    raise ProbeLimitError(
                        f"probe limit {self._cap} exceeded on {self.describe}",
                        len(self._cache))
                v = next(self._it)
                if self._cache and v <= self._cache[-1]:
                    raise ValueError(
                        f"stream {self.describe} is not strictly increasing")
                self._cache.append(v)

    def value(self, i: int) -> int:
        """1-based element access."""
        if i < 1:
            raise IndexError("indices are 1-based")
        self._ensure(i)
        return self._cache[i - 1]

    def prefix(self, n: int) -> FinSet:
        self._ensure(n)
        return tuple(self._cache[:n])

    def _locate(self, v: int) -> int:
        """0-based cache position of the first element >= v, materializing
        the stream up to that element."""
        i = len(self._cache)
        while not self._cache or self._cache[-1] < v:
            i += 1
            self._ensure(i)
        return bisect_left(self._cache, v)

    def contains(self, v: int) -> bool:
        return self._cache[self._locate(v)] == v

    def index_of(self, v: int) -> int | None:
        """1-based position of value v, or None if absent."""
        i = self._locate(v)
        return i + 1 if self._cache[i] == v else None

    # derived streams -------------------------------------------------------

    def remove_finite(self, values) -> "LazySet":
        """The stream minus a finite set of values (reads through this one)."""
        parent = self
        dropped = frozenset(values)

        def gen():
            i = 0
            while True:
                i += 1
                v = parent.value(i)
                if v not in dropped:
                    yield v
        return LazySet(gen(), f"{self.describe}\\{sorted(dropped)}",
                       root=self.root)


def set_from_spec(spec: dict) -> LazySet:
    """Build a LazySet from its JSON description."""
    kind = spec.get("kind")
    if kind == "arith":
        return LazySet.arithmetic(int(spec["start"]), int(spec["step"]))
    if kind == "list-prefix":
        return LazySet.from_prefix(spec["prefix"], int(spec.get("tail_step", 1)))
    if kind == "geom":
        return LazySet.geometric(int(spec["base"]), int(spec.get("scale", 1)))
    raise ValueError(f"unknown set spec kind: {kind!r}")


def set_from_cli(text: str) -> LazySet:
    """Build a LazySet from a compact CLI form like ``arith:3:2``."""
    if text == "all":
        return LazySet.naturals()
    parts = text.split(":")
    if parts[0] == "arith" and len(parts) == 3:
        return LazySet.arithmetic(int(parts[1]), int(parts[2]))
    if parts[0] == "geom" and len(parts) in (2, 3):
        scale = int(parts[2]) if len(parts) == 3 else 1
        return LazySet.geometric(int(parts[1]), scale)
    if parts[0] == "list" and len(parts) in (2, 3):
        prefix = [int(v) for v in parts[1].split(",")]
        step = int(parts[2]) if len(parts) == 3 else 1
        return LazySet.from_prefix(prefix, step)
    raise ValueError(f"cannot parse set description {text!r}")


# ---------------------------------------------------------------------------
# Family grammar


class Family:
    """A hereditary family given by a grammar node.

    ``contains`` is the single membership entry point; node types implement
    ``_contains``.  Nodes are immutable.

    A node that is spreading by construction exposes membership as a
    persistent cursor, and only such a node does: ``start()`` is the state
    of the empty set and ``step(state, v)`` the state after appending
    v > max E to a member E, or None when that extension closes (is
    maximal).  A member E extends by any v > max E iff its state is not
    None, so a ``start()`` of None means no nonempty set is a member.
    States are immutable, so a search branch shares its parent's state,
    and opaque: only the node that made a state reads it (a ``Schreier``
    state is its top frame, whose depth locates a point's weight).  By
    default ``_contains`` folds the cursor; maximal stream segments and
    ``max_member_sum`` step it.
    """

    def contains(self, e: FinSet) -> bool:
        return self._contains(tuple(e))

    def __contains__(self, e) -> bool:
        return self.contains(tuple(e))

    def _contains(self, e: FinSet) -> bool:
        state, step = self.start(), self.step
        for v in e:
            if state is None:
                return False
            state = step(state, v)
        return True

    def start(self):
        """The cursor state of the empty set."""
        raise NotImplementedError

    def step(self, state, v: int):
        """The cursor state after appending v; None once the set closes."""
        raise NotImplementedError

    def cb_index(self) -> "CBIndex":
        raise NotImplementedError

    def spec(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<Family {self.spec()}>"

    # Whether the node type guarantees closure under spreads (images and
    # ad hoc subclasses do not); true exactly for nodes with a cursor.
    def is_spreading_by_construction(self) -> bool:
        return False


@dataclass(frozen=True)
class CBIndex:
    """A derivative-rank value; ``exact`` is False for upper bounds only."""
    value: Ordinal
    exact: bool = True

    def __str__(self):
        prefix = "" if self.exact else "<="
        return prefix + ordinals.fmt(self.value)


class EmptyFamily(Family):
    """The empty family (contains nothing, not even the empty set)."""

    def is_spreading_by_construction(self) -> bool:
        return True

    def start(self) -> None:
        return None

    def _contains(self, e: FinSet) -> bool:
        return False

    def cb_index(self) -> CBIndex:
        return CBIndex(ZERO)

    def spec(self) -> dict:
        return {"type": "empty"}


class EmptySetOnly(Family):
    """The family whose single member is the empty set."""

    def is_spreading_by_construction(self) -> bool:
        return True

    def start(self) -> None:
        return None

    def cb_index(self) -> CBIndex:
        return CBIndex(ONE)

    def spec(self) -> dict:
        return {"type": "singleton-empty"}


class Adm(Family):
    """Sets of cardinality at most n; the cursor state is the number of
    slots left."""

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("cardinality bound must be >= 0")
        self.n = n

    def is_spreading_by_construction(self) -> bool:
        return True

    def start(self) -> int | None:
        return self.n or None

    def step(self, state: int, v: int) -> int | None:
        return state - 1 or None

    def cb_index(self) -> CBIndex:
        return CBIndex(from_int(self.n + 1))

    def spec(self) -> dict:
        return {"type": "adm", "n": self.n}


def _stage_parts(xi: Ordinal) -> tuple[Ordinal | None, int]:
    """xi as (limit part, finite part); the limit part of a finite stage is
    None, so finite stages are carried as plain ints."""
    terms = xi.terms
    if terms and terms[-1][0].is_zero:
        return (Ordinal(terms[:-1]) if len(terms) > 1 else None), terms[-1][1]
    return (xi if terms else None), 0


def _stream_at(m: LazySet) -> Callable[[int], int]:
    """0-based reader over m that serves materialized elements directly."""
    cache, value = m._cache, m.value

    def at(i: int) -> int:
        return cache[i] if i < len(cache) else value(i + 1)
    return at


class Schreier(Family):
    """The transfinite admissible hierarchy indexed by an ordinal.

    Level 0 is the singletons-or-empty family.  At a successor stage a set
    belongs iff it splits into at most min(E) consecutive blocks from the
    previous stage; membership strips greedy maximal prefixes, which agrees
    with exhaustive decomposition search on these spreading levels.  At a
    limit the stage delegates to fs(lam, min E) + 1 along the canonical
    fundamental sequence.

    The cursor is the greedy walk one point at a time, and a state is its
    top frame (limit part, finite part, blocks left, depth, rest): the
    stage of the block being filled, how many blocks of that stage remain
    (the open one included), how many frames lie below it, and the frame
    below it.  ``start()`` is the root frame (xi's parts, 1, 0, None).  A
    point at a stage with finite part k >= 1 opens its first child block:
    it pushes (lam, k - 1, v, depth + 1, frame), so the frame holds v
    blocks.  A step costs O(1) amortized, and ``step`` is the one place
    that descends a stage; ``segment_weights`` reads the repeated-averages
    weights off it.
    """

    def __init__(self, xi: Ordinal):
        self.xi = xi

    def is_spreading_by_construction(self) -> bool:
        return True

    def start(self) -> tuple:
        lam, k = _stage_parts(self.xi)
        return lam, k, 1, 0, None

    @staticmethod
    def step(frame: tuple, v: int) -> tuple | None:
        lam, k = frame[0], frame[1]
        while True:
            if k:
                # the first child block starts at v
                k -= 1
                frame = (lam, k, v, frame[3] + 1, frame)
            elif lam is not None:
                # delegate to fs(lam, v) + 1
                lam, k = _stage_parts(ordinals.fund_seq(lam, v))
                k += 1
            else:
                break
        while frame is not None:
            lam, k, left, depth, rest = frame
            if left > 1:
                return lam, k, left - 1, depth, rest
            frame = rest
        return None

    def segment_weights(self, at: Callable[[int], int], start: int,
                        weights: dict[int, Fraction],
                        cutoff: int | None = None) -> tuple[int, bool]:
        """Walk the greedy segment from position start, mapping each point
        to its repeated-averages weight.

        ``at(i)`` is the stream's element at 0-based position i.  Returns
        (length, closed): ``closed`` means the segment is maximal;
        otherwise the next value exceeded ``cutoff`` after ``length``
        points.  A point weighs one over the product of the block counts of
        the frames it lies in, and ``dens[d]`` is that product down to
        depth d.  If v's step lands deeper than its state, v opened that
        many frames of v blocks each; otherwise v lies at its state's depth,
        since a frame opened with v >= 2 blocks outlives the step that
        opened it and one opened with a single block divides by 1.
        """
        state, step = self.start(), self.step
        dens, weight, pos = [1], Fraction(1), start
        while state is not None:
            v = at(pos)
            if cutoff is not None and v > cutoff:
                return pos - start, False
            depth = state[3]
            state = step(state, v)
            if state is not None and state[3] > depth:
                del dens[depth + 1:]
                for _ in range(state[3] - depth):
                    dens.append(dens[-1] * v)
                depth = state[3]
            if dens[depth] != weight.denominator:
                weight = Fraction(1, dens[depth])
            weights[v] = weight
            pos += 1
        return pos - start, True

    def cb_index(self) -> CBIndex:
        return CBIndex(ordinals.add(ordinals.omega_pow(self.xi), ONE))

    def spec(self) -> dict:
        return {"type": "schreier", "xi": ordinals.fmt(self.xi)}


def schreier_family(xi: Ordinal) -> Schreier:
    """The hierarchy node at stage xi."""
    return Schreier(xi)


def adm_family(n: int) -> Adm:
    return Adm(n)


class Compose(Family):
    """F[G]: unions of consecutive G-blocks whose minima form an F-set.

    The empty set is a member iff both F and G contain it, so F[G] is empty
    when F or G is.  Over spreading children the cursor is greedy: the
    current G-block grows while its state is open, and otherwise v opens a
    new block and steps the minima's F-state.  The greedy blocks start no
    earlier than the blocks of any split, so their minima spread a subset
    of that split's minima and the greedy split decides membership.  A
    state is (F-state, open block's G-state or None).  Other children take
    an exhaustive split search.
    """

    def __init__(self, outer: Family, inner: Family):
        self.outer = outer
        self.inner = inner

    def is_spreading_by_construction(self) -> bool:
        return self.outer.is_spreading_by_construction() and \
            self.inner.is_spreading_by_construction()

    def start(self) -> tuple | None:
        outer = self.outer.start()
        if outer is None or self.inner.start() is None:
            return None
        return outer, None

    def step(self, state: tuple, v: int) -> tuple | None:
        outer, block = state
        if block is not None:
            block = self.inner.step(block, v)
        else:
            outer = self.outer.step(outer, v)
            block = self.inner.step(self.inner.start(), v)
        return None if outer is None and block is None else (outer, block)

    def _contains(self, e: FinSet) -> bool:
        if not e:
            return self.outer.contains(()) and self.inner.contains(())
        if self.is_spreading_by_construction():
            return super()._contains(e)
        return self._search(e)

    def _search(self, e: FinSet) -> bool:
        outer, inner = self.outer, self.inner
        n = len(e)

        def rec(i: int, mins: FinSet) -> bool:
            mins = mins + (e[i],)
            # minima prefixes of a member are members: prune early
            if not outer.contains(mins):
                return False
            j = i + 1
            while True:
                if not inner.contains(e[i:j]):
                    return False
                if j == n:
                    return True
                if rec(j, mins):
                    return True
                j += 1

        return rec(0, ())

    def cb_index(self) -> CBIndex:
        co, ci = self.outer.cb_index(), self.inner.cb_index()
        if co.value.is_zero or ci.value.is_zero:
            return CBIndex(ZERO, co.exact and ci.exact)
        beta = ordinals.successor_part(co.value)
        alpha = ordinals.successor_part(ci.value)
        return CBIndex(ordinals.add(ordinals.mul(alpha, beta), ONE),
                       co.exact and ci.exact)

    def spec(self) -> dict:
        return {"type": "compose", "outer": self.outer.spec(),
                "inner": self.inner.spec()}


class Image(Family):
    """F(M): members of F pushed through the increasing enumeration of M."""

    def __init__(self, fam: Family, mset: LazySet,
                 probe_limit: int = DEFAULT_PROBE_LIMIT):
        self.fam = fam
        self.mset = mset
        self.probe_limit = probe_limit

    def _contains(self, e: FinSet) -> bool:
        if not e:
            return self.fam.contains(())
        idx = []
        with self.mset.probe_guard(self.probe_limit):
            for v in e:
                i = self.mset.index_of(v)
                if i is None:
                    return False
                idx.append(i)
        return self.fam.contains(tuple(idx))

    def cb_index(self) -> CBIndex:
        return CBIndex(self.fam.cb_index().value, exact=False)

    def spec(self) -> dict:
        return {"type": "image", "family": self.fam.spec(),
                "set": {"kind": "opaque", "describe": self.mset.describe}}


class Preimage(Family):
    """F(M^-1): index sets whose image under M's enumeration lies in F.

    The cursor steps F's cursor with the image of each index.  Membership
    pushes the whole set through M and asks F, for any F.
    """

    def __init__(self, fam: Family, mset: LazySet,
                 probe_limit: int = DEFAULT_PROBE_LIMIT):
        self.fam = fam
        self.mset = mset
        self.probe_limit = probe_limit

    def is_spreading_by_construction(self) -> bool:
        return self.fam.is_spreading_by_construction()

    def start(self):
        return self.fam.start()

    def step(self, state, i: int):
        with self.mset.probe_guard(self.probe_limit):
            v = self.mset.value(i)
        return self.fam.step(state, v)

    def _contains(self, e: FinSet) -> bool:
        with self.mset.probe_guard(self.probe_limit):
            image = tuple(self.mset.value(i) for i in e)
        return self.fam.contains(image)

    def cb_index(self) -> CBIndex:
        inner = self.fam.cb_index()
        return CBIndex(inner.value, inner.exact)

    def spec(self) -> dict:
        return {"type": "preimage", "family": self.fam.spec(),
                "set": {"kind": "opaque", "describe": self.mset.describe}}


class UnionFamily(Family):
    """Union of two families.

    The cursor state is the pair of child states; a child whose state is
    None has closed or left, and the pair closes when both have.
    Membership asks the children, for any children.
    """

    def __init__(self, left: Family, right: Family):
        self.left = left
        self.right = right

    def is_spreading_by_construction(self) -> bool:
        return self.left.is_spreading_by_construction() and \
            self.right.is_spreading_by_construction()

    def start(self) -> tuple | None:
        return _either(self.left.start(), self.right.start())

    def step(self, state: tuple, v: int) -> tuple | None:
        left, right = state
        return _either(None if left is None else self.left.step(left, v),
                       None if right is None else self.right.step(right, v))

    def _contains(self, e: FinSet) -> bool:
        return self.left.contains(e) or self.right.contains(e)

    def cb_index(self) -> CBIndex:
        cl, cr = self.left.cb_index(), self.right.cb_index()
        value = cl.value if cl.value >= cr.value else cr.value
        return CBIndex(value, cl.exact and cr.exact)

    def spec(self) -> dict:
        return {"type": "union", "left": self.left.spec(),
                "right": self.right.spec()}


def _either(left, right) -> tuple | None:
    return None if left is None and right is None else (left, right)


def family_from_spec(spec: dict,
                     probe_limit: int = DEFAULT_PROBE_LIMIT) -> Family:
    """Build a Family from its JSON description.

    Every ``image`` and ``preimage`` node in it reads its set under the
    probe budget ``probe_limit``.
    """
    kind = spec.get("type")
    if kind == "schreier":
        return schreier_family(ordinals.parse(spec["xi"]))
    if kind == "adm":
        return adm_family(int(spec["n"]))
    if kind == "compose":
        return Compose(family_from_spec(spec["outer"], probe_limit),
                       family_from_spec(spec["inner"], probe_limit))
    if kind == "image":
        return Image(family_from_spec(spec["family"], probe_limit),
                     set_from_spec(spec["set"]), probe_limit)
    if kind == "preimage":
        return Preimage(family_from_spec(spec["family"], probe_limit),
                        set_from_spec(spec["set"]), probe_limit)
    if kind == "union":
        return UnionFamily(family_from_spec(spec["left"], probe_limit),
                           family_from_spec(spec["right"], probe_limit))
    if kind == "empty":
        return EmptyFamily()
    if kind == "singleton-empty":
        return EmptySetOnly()
    raise ValueError(f"unknown family spec type: {kind!r}")


# ---------------------------------------------------------------------------
# Operations


def is_member(e, fam: Family) -> bool:
    return fam.contains(check_finset(e))


def is_maximal(e, fam: Family) -> bool:
    """True iff e extends by no next integer; e must be a nonempty member.

    Equivalent to true maximality exactly for nice families, where every
    non-maximal member extends by the successor of its maximum.
    """
    e = check_finset(e)
    if not e:
        raise ValueError("maximality is only defined for nonempty sets")
    if not fam.contains(e):
        raise ValueError(f"{e} is not a member")
    return not fam.contains(e + (e[-1] + 1,))


def max_member_sum(fam: Family, keys, masses) -> tuple[int, FinSet]:
    """The largest total mass of a member of fam within keys, and a member
    that attains it.

    ``keys`` is strictly increasing and ``masses`` holds one nonnegative
    int per key; fam needs a cursor.  Branch and bound over subsets in key
    order, pruning by the optimistic remaining-mass bound.  Each node
    carries the cursor state of its chosen set, so a closed set ends its
    branch.  An explicit stack of nodes bounds depth by memory, not by the
    recursion limit; each node pushes its exclude child and then its
    include child, so the include branch is searched first.  That order
    decides which member is returned when several attain the maximum: the
    first to strictly improve the running best.
    """
    n = len(keys)
    tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] + masses[i]
    best = 0
    best_chosen = None
    step = fam.step
    # nodes: (next index, cursor state, sum, chosen keys as a linked list)
    stack = [(0, fam.start(), 0, None)]
    while stack:
        i, state, cur, chosen = stack.pop()
        if cur > best:
            best, best_chosen = cur, chosen
        # a closed set only excludes from here on, so its sum stays put
        if state is None or i == n or cur + tail[i] <= best:
            continue
        stack.append((i + 1, state, cur, chosen))
        stack.append((i + 1, step(state, keys[i]), cur + masses[i],
                      (keys[i], chosen)))
    picked = []
    while best_chosen is not None:
        k, best_chosen = best_chosen
        picked.append(k)
    return best, tuple(reversed(picked))


def _max_segment(m: LazySet, fam: Family, start: int = 0) -> FinSet:
    """The maximal initial segment of m's elements from position start on.

    A node with a cursor steps it until the segment closes; other nodes
    grow the segment one point at a time and test membership.  Callers hold
    the probe guard.
    """
    if fam.is_spreading_by_construction():
        state, step, at, pos = fam.start(), fam.step, _stream_at(m), start
        if state is None:
            raise ValueError("family has no nonempty members")
        while state is not None:
            state = step(state, at(pos))
            pos += 1
        return m.prefix(pos)[start:]
    k = 1
    while True:
        e = m.prefix(start + k)[start:]
        if not fam.contains(e):
            raise ValueError(
                f"prefix {e} left the family before a maximal initial "
                "segment was found; the family is not nice on this range")
        if not fam.contains(e + (m.value(start + k + 1),)):
            return e
        k += 1


def max_initial_segment(m: LazySet, fam: Family,
                        probe_limit: int = DEFAULT_PROBE_LIMIT) -> FinSet:
    """The unique maximal initial segment of m lying in fam.

    Exists, is finite and nonempty for nice families.  Raises
    ProbeLimitError if the segment does not close within the probe limit.
    """
    with m.probe_guard(probe_limit):
        return _max_segment(m, fam)


def partition_blocks(m: LazySet, fam: Family, count: int,
                     probe_limit: int = DEFAULT_PROBE_LIMIT) -> list[FinSet]:
    """First ``count`` blocks of the partition of m into maximal members."""
    blocks = []
    consumed = 0
    with m.probe_guard(probe_limit):
        for _ in range(count):
            block = _max_segment(m, fam, consumed)
            blocks.append(block)
            consumed += len(block)
    return blocks


def partition(m: LazySet, fam: Family, n: int,
              probe_limit: int = DEFAULT_PROBE_LIMIT) -> FinSet:
    """The n-th block of the partition of m into maximal members of fam."""
    if n < 1:
        raise ValueError("block index must be >= 1")
    return partition_blocks(m, fam, n, probe_limit)[-1]


def partition_indices(m: LazySet, fam: Family, n: int,
                      probe_limit: int = DEFAULT_PROBE_LIMIT) -> FinSet:
    """1-based positions within m of the n-th partition block."""
    blocks = partition_blocks(m, fam, n, probe_limit)
    start = sum(len(b) for b in blocks[:-1])
    return tuple(range(start + 1, start + len(blocks[-1]) + 1))


def feasible_depth(m: LazySet, fam: Family, max_depth: int,
                   budget: int) -> int:
    """How many partition blocks of m fit within a stream budget.

    Blocks of transfinite families grow hyper-exponentially with the values
    of m, so desk-scale sampling must cap depth by materialized prefix.
    """
    consumed = 0
    with m.probe_guard(budget):
        for r in range(max_depth):
            try:
                block = _max_segment(m, fam, consumed)
            except ProbeLimitError:
                return r
            consumed += len(block)
            if consumed > budget:
                return r
    return max_depth


def enumerate_restriction(fam: Family, n: int) -> list[FinSet]:
    """All members within {1..n}, in colex order.

    Complete for hereditary families: every member is reached from the
    empty set by adding elements in increasing order.  Raises
    EnumerationLimitError when n exceeds ``DEFAULT_ENUM_LIMIT``.
    """
    if n > DEFAULT_ENUM_LIMIT:
        raise EnumerationLimitError(
            f"restriction bound {n} exceeds enumeration limit "
            f"{DEFAULT_ENUM_LIMIT}")
    out = enumerate_within(fam, range(1, n + 1), 2 ** n)
    out.sort(key=lambda e: tuple(reversed(e)))
    return out


def enumerate_within(fam: Family, candidates, limit: int = 10 ** 5) -> list[FinSet]:
    """All members that are subsets of a given finite candidate set."""
    candidates = check_finset(sorted(set(candidates)))
    out: list[FinSet] = []
    if fam.contains(()):
        out.append(())
    stack = [((v,), i) for i, v in enumerate(candidates) if fam.contains((v,))]
    while stack:
        e, i = stack.pop()
        out.append(e)
        if len(out) > limit:
            raise EnumerationLimitError(
                f"more than {limit} member subsets of {candidates}")
        for j in range(i + 1, len(candidates)):
            ext = e + (candidates[j],)
            if fam.contains(ext):
                stack.append((ext, j))
    return out


def truncation_maximal(fam: Family, n: int) -> list[FinSet]:
    """Nonempty members of the {1..n} truncation with no extension in
    range, in colex order; n is bounded as in ``enumerate_restriction``."""
    members = enumerate_restriction(fam, n)
    out = []
    for e in members:
        if not e:
            continue
        if all(not fam.contains(e + (v,)) for v in range(e[-1] + 1, n + 1)):
            out.append(e)
    return out


@dataclass
class RegularityReport:
    hereditary: bool
    spreading: bool
    compactness: str = "not checked"
    hereditary_counterexamples: list = field(default_factory=list)
    spreading_counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.hereditary and self.spreading


def check_regularity(fam: Family, n: int) -> RegularityReport:
    """Verify hereditariness and spreading on the {1..n} truncation.

    Drop-one subsets witness hereditariness; single +1 increments witness
    spreading, since any in-range spread is a chain of such increments.
    Compactness is not decidable from a truncation.  n is bounded as in
    ``enumerate_restriction``.
    """
    members = enumerate_restriction(fam, n)
    report = RegularityReport(hereditary=True, spreading=True)
    for e in members:
        for i in range(len(e)):
            sub = e[:i] + e[i + 1:]
            if not fam.contains(sub):
                report.hereditary = False
                report.hereditary_counterexamples.append((e, sub))
        for i in range(len(e)):
            ceiling = e[i + 1] if i + 1 < len(e) else n + 1
            if e[i] + 1 < ceiling:
                spread = e[:i] + (e[i] + 1,) + e[i + 1:]
                if not fam.contains(spread):
                    report.spreading = False
                    report.spreading_counterexamples.append((e, spread))
    return report


def cb_symbolic(fam: Family) -> CBIndex:
    """Compositional derivative index of a grammar family."""
    return fam.cb_index()


def cb_probe_rank(e, fam: Family, n: int) -> int:
    """Bounded probe rank of e inside the {1..n} truncation.

    For a hereditary family the extension recursion's value equals the size
    of the largest extension set.  For a spreading family that maximum is
    attained by a block of consecutive integers ending at n: any extension
    spreads to one, since a block ending before n moves right.  Dropping a
    block's first point keeps it admissible by hereditariness, so the
    admissible lengths are an initial segment, and one scan over the
    lengths makes O(n) membership calls.  Families not spreading by
    construction (images, ad hoc sets) fall back to the literal recursion.
    """
    e = check_finset(e)
    if not fam.contains(e):
        raise ValueError(f"{e} is not a member")
    if e and n < e[-1]:
        raise ValueError("probe ceiling below max of the set")
    floor = e[-1] if e else 0
    if not fam.is_spreading_by_construction():
        memo: dict[FinSet, int] = {}

        def rank(cur: FinSet) -> int:
            got = memo.get(cur)
            if got is None:
                start = cur[-1] + 1 if cur else 1
                got = memo[cur] = 1 + max(
                    (rank(cur + (m,)) for m in range(start, n + 1)
                     if fam.contains(cur + (m,))), default=-1)
            return got

        return rank(e)
    best = 0
    while n - best > floor and \
            fam.contains(e + tuple(range(n - best, n + 1))):
        best += 1
    return best


def check_limit_inclusion(lam: Ordinal, n: int, bound: int) -> list[FinSet]:
    """Counterexamples to stage(n)+1 <= stage(n+1) nesting on a truncation.

    The limit levels are built from the canonical fundamental sequence;
    whether consecutive stages nest is probed, not assumed.  The
    truncation {1..bound} is bounded as in ``enumerate_restriction``.
    """
    stage_n = schreier_family(ordinals.add(ordinals.fund_seq(lam, n), ONE))
    stage_next = schreier_family(ordinals.fund_seq(lam, n + 1))
    return [e for e in enumerate_restriction(stage_n, bound)
            if not stage_next.contains(e)]
