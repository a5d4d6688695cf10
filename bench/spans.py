"""Run-time spans around the library's public entry points.

The tracer replaces each entry point with a timing wrapper wherever its
name is looked up: in the defining module, in every ``schreier`` module
that imported it by name, or on the defining class for methods.  A span is
recorded when an entry point is entered from outside itself; a call made
while the same entry point is the innermost open span (recursion, as in
``Family.contains``) runs unwrapped.  Self time is a span's duration minus
the time of the spans it opened.  Work counters are read from arguments
and results at the same boundaries.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> [(owner path, attribute)], owners relative to ``schreier``
ENTRY_POINTS = {
    "simplex.solve_lp": [("simplex", "solve_lp")],
    "weaknull.min_convex": [("weaknull", "min_convex")],
    "weaknull.spreading": [("weaknull", "spreading_certificate")],
    "weaknull.dichotomy": [("weaknull", "dichotomy_search")],
    "weaknull.ravg_null": [("weaknull", "ravg_null_test")],
    "spaces.ell1.norm": [("spaces.L1Engine", "norm")],
    "spaces.sup.norm": [("spaces.SupEngine", "norm")],
    "spaces.schreier.norm": [("spaces.SchreierEngine", "norm")],
    "spaces.mixed.norm": [("spaces.MixedEngine", "norm")],
    "spaces.ex.norm": [("spaces.ExEngine", "norm")],
    "spaces.tree.norm": [("spaces.TreeEngine", "norm")],
    "spaces.z.norm": [("spaces.ZEngine", "norm")],
    "spaces.combine": [("spaces", "combine")],
    "families.contains": [("families.Family", "contains")],
    "families.segment": [("families", name) for name in (
        "max_initial_segment", "partition_blocks", "partition",
        "partition_indices", "feasible_depth")],
    "families.enumerate": [("families", name) for name in (
        "enumerate_restriction", "enumerate_within", "truncation_maximal")],
    "ravg.measure": [("ravg", "ravg_measure")],
    "ravg.validate": [("ravg", "block_validate")],
    "ravg.fastgrow": [("ravg", "fastgrow_check")],
    "ordinals": [("ordinals", name) for name in (
        "from_int", "compare", "depth", "add", "mul", "omega_pow",
        "successor_part", "fund_seq", "fmt", "parse")],
    "cli.command": [("cli", "main")],
    "jsonio.canonical": [("jsonio", "canonical")],
}


def _solve_lp_rows(counts, args, kwargs, result):
    a_ub = args[1] if len(args) > 1 else kwargs.get("a_ub", ())
    a_eq = args[3] if len(args) > 3 else kwargs.get("a_eq", ())
    counts["simplex.solve_lp.rows"] += len(a_ub) + len(a_eq)


def _min_convex_rounds(counts, args, kwargs, result):
    counts["weaknull.min_convex.rounds"] += result.rounds


def _dichotomy_conclusive(counts, args, kwargs, result):
    counts["weaknull.dichotomy.conclusive"] += result.kind != "inconclusive"


def _measure_points(counts, args, kwargs, result):
    counts["ravg.measure.support_points"] += len(result.support)


def _enumerated(counts, args, kwargs, result):
    counts["families.enumerate.members"] += len(result)


INSPECTORS = {
    "simplex.solve_lp": _solve_lp_rows,
    "weaknull.min_convex": _min_convex_rounds,
    "weaknull.dichotomy": _dichotomy_conclusive,
    "ravg.measure": _measure_points,
    "families.enumerate": _enumerated,
}


class Tracer:
    """Collects per-layer call counts, self time and work counters."""

    def __init__(self):
        self.stack: list[list] = []   # open spans: [layer, child seconds]
        self.calls = {layer: 0 for layer in ENTRY_POINTS}
        self.self_s = {layer: 0.0 for layer in ENTRY_POINTS}
        self.total_s = {layer: [] for layer in ENTRY_POINTS}
        self.counts = {name: 0 for name in (
            "simplex.solve_lp.rows", "weaknull.min_convex.rounds",
            "weaknull.dichotomy.conclusive", "ravg.measure.support_points",
            "families.enumerate.members", "families.stream_elements",
            "families.probe_limit_hits")}
        self._undo: list = []

    def _wrap(self, layer: str, fn):
        inspect = INSPECTORS.get(layer)
        stack, calls, self_s = self.stack, self.calls, self.self_s
        total_s, counts = self.total_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[layer] += 1
                self_s[layer] += dt - frame[1]
                total_s[layer].append(dt)
                if stack:
                    stack[-1][1] += dt
            if inspect is not None:
                inspect(counts, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every entry point; raises if one no longer exists."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "schreier" or name.startswith("schreier.")]
        for layer, points in ENTRY_POINTS.items():
            for owner_path, attr in points:
                owner = _resolve(owner_path)
                original = owner.__dict__[attr]
                wrapped = self._wrap(layer, original)
                if isinstance(owner, type):
                    self._set(owner, attr, wrapped)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, name, wrapped)
        probe_error = _resolve("families").ProbeLimitError
        original_init = probe_error.__init__
        counts = self.counts

        def counting_init(exc, *args, **kwargs):
            counts["families.probe_limit_hits"] += 1
            original_init(exc, *args, **kwargs)

        self._set(probe_error, "__init__", counting_init)

    def _set(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _resolve(path: str):
    module_path, _, cls = path.partition(".")
    module = sys.modules["schreier." + module_path]
    return getattr(module, cls) if cls else module
