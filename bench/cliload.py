"""The ``cli`` workload: README commands and seeded heavier commands.

Each pass runs the README examples plus one heavier seeded command, in
rotation: a spreading certificate and a dichotomy search on seeded vector
files, the S_w enumeration at n=16, and a ravg measure whose explicit probe
limit is meant to run out (exit code 3).  Every command runs in its own
interpreter, one at a time, so each pays start-up, import and empty memo
tables as a CLI user does.  Output of a repeated command must be byte
identical to its first run.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import oracle
from workloads import Op, _coords

FAMILY_CHECK_SPEC = ('{"type":"compose","outer":{"type":"adm","n":2},'
                     '"inner":{"type":"schreier","xi":"1"}}')
QUOTIENT_ENGINE = ('{"kind":"ex","base":{"kind":"ell1"},"partition":['
                   '{"kind":"arith","start":1,"step":2},'
                   '{"kind":"arith","start":2,"step":2}]}')
S1_ENGINE = '{"kind":"schreier","xi":"1"}'

# (argv, allowed exit codes)
README = (
    (["family", "cb", "--spec", '{"type":"adm","n":4}'], {0}),
    (["family", "cb", "--spec", '{"type":"schreier","xi":"w^2"}'], {0}),
    (["family", "enum", "--spec", '{"type":"schreier","xi":"1"}', "--n", "4"],
     {0}),
    (["family", "check", "--spec", FAMILY_CHECK_SPEC, "--n", "8"], {0}),
    (["ravg", "measure", "--xi", "1", "--set", "arith:3:2", "--n", "1"], {0}),
    (["ravg", "validate", "--xi", "1", "--sets", "all", "arith:2:2",
      "--depth", "3"], {0}),
    (["ravg", "convolve", "--zeta", "0", "--xi", "1", "--set", "arith:3:2",
      "--n", "1"], {0}),
    (["ravg", "fastgrow", "--xi", "2", "--k", "all", "--l", "geom:4",
      "--eps", "1/2", "--n", "60"], {0}),
    (["norm", "eval", "--engine", S1_ENGINE,
      "--vector", '{"coords":[[1,"1"],[2,"1"],[3,"1"]]}'], {0}),
    (["norm", "quotient", "--engine", QUOTIENT_ENGINE,
      "--vector", '{"coords":[[4,"1/2"]]}'], {0}),
    (["certify", "spreading", "--engine", S1_ENGINE, "--vectors",
      '[{"coords":[[1,"1"]]},{"coords":[[2,"1"]]},{"coords":[[3,"1"]]}]',
      "--xi", "1", "--eps", "1", "--n", "3"], {0}),
)

LEDGER_ARGV = ["norm", "eval", "--engine", '{"kind":"schreier","xi":"w^2"}',
               "--vector", '{"coords":[[30,"1"],[31,"1"],[33,"1"]]}']


class Cli:
    """Runs commands through ``runner(argv) -> (exit code, stdout, stderr)``."""

    name = "cli"

    def __init__(self, seed: int, runner, tmpdir):
        rng = random.Random(f"cli:{seed}")
        self.runner = runner
        self.first: dict = {}
        self.member = oracle.Membership()
        files = []
        for tag in ("spreading", "dichotomy"):
            seq = [_coords(rng, rng.sample(range(1, 11), rng.randint(2, 4)))
                   for _ in range(5)]
            path = tmpdir / f"vectors-{tag}.json"
            path.write_text(json.dumps([
                {"coords": [[k, f"{v.numerator}/{v.denominator}"]
                            for k, v in sorted(c.items())]} for c in seq]))
            files.append("@" + str(path))
        spreading, dichotomy = files
        self.readme = list(README) + [(
            ["certify", "dichotomy", "--engine", '{"kind":"sup"}',
             "--vectors", dichotomy, "--xi", "1", "--eps", "1/2"], {0})]
        self.heavy = [
            (["certify", "spreading", "--engine", S1_ENGINE, "--vectors",
              spreading, "--xi", "1", "--eps", "1/8", "--n", "4"], {0, 2}),
            (["certify", "dichotomy", "--engine", S1_ENGINE, "--vectors",
              dichotomy, "--xi", "1", "--eps", "1/4", "--depth", "5"], {0}),
            (["family", "enum", "--spec", '{"type":"schreier","xi":"w"}',
              "--n", "16"], {0}),
            (["ravg", "measure", "--xi", "w", "--set", "geom:4", "--n", "2",
              "--probe-limit", "2000"], {3}),
        ]
        # one pass's share of each command, for the throughput of a full
        # cycle of passes whatever pass the timed loop stopped in
        self.kind_weights = {" ".join(argv): 1.0 for argv, _ in self.readme}
        self.kind_weights.update({" ".join(argv): 1 / len(self.heavy)
                                  for argv, _ in self.heavy})

    def round(self, r: int) -> list[Op]:
        cmds = self.readme + [self.heavy[r % len(self.heavy)]]
        return [self._op(argv, codes) for argv, codes in cmds]

    def _op(self, argv, codes) -> Op:
        def check(out):
            code, stdout, stderr = out
            if code not in codes:
                return f"exit {code}: {stderr[-300:]!r}"
            key = tuple(argv)
            first = self.first.setdefault(key, stdout)
            if stdout != first:
                return "artifact differs from the first invocation"
            if code == 3:
                return None if b"bound exhausted" in stderr else \
                    "exit 3 without a budget message"
            return self._semantic(argv, code, json.loads(stdout))

        return Op(" ".join(argv), lambda: self.runner(argv), check)

    def _semantic(self, argv, code, artifact):
        result = artifact["result"]
        if argv[:2] == ["family", "enum"]:
            spec = json.loads(argv[3])
            members = [tuple(e) for e in result["members"]]
            if result["count"] != len(members):
                return "member count differs from the member list"
            rng = random.Random(len(members))
            xi = oracle.STAGES[spec["xi"]]
            with oracle.deep_recursion():
                for e in rng.sample(members, min(30, len(members))):
                    if not self.member(xi, e):
                        return f"enumerated {e} is not a member"
        elif argv[:2] == ["norm", "eval"]:
            spec = json.loads(argv[3])
            coords = {k: Fraction(v) for k, v in
                      json.loads(argv[5])["coords"]}
            want = oracle.engine_norm(self.member, spec, coords)
            if Fraction(result["value"]["exact"]) != want:
                return "norm differs from brute-force enumeration"
        elif argv[:2] == ["ravg", "measure"]:
            n = int(argv[argv.index("--n") + 1])
            want = oracle.measure(oracle.STAGES[argv[3]],
                                  oracle.stream_values(argv[5], 4096), n)
            got = {k: Fraction(v) for k, v in result["weights"]}
            if got != want:
                return "measure differs from the reference"
        elif argv[:2] == ["certify", "spreading"]:
            if result["passed"] != (code == 0):
                return "exit code disagrees with the verdict"
        return None

    def ledger(self) -> Op:
        """Known defect: stage w^2 membership with min E >= 30 (exit 1)."""
        return self._op(LEDGER_ARGV, {0})
