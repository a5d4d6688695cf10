"""Command-line front end.

Subcommands mirror the library surface: family enumeration/checks/rank,
measure computation and validation, norm evaluation, and certificate
searches.  Artifacts are deterministic JSON (or CSV) embedding the config
and library version.  Exit codes: 0 success, 1 usage error, 2 a checked
property was violated, 3 a probe or enumeration bound was exhausted.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from fractions import Fraction

from . import __version__, families, ordinals, ravg, spaces, weaknull
from .families import (EnumerationLimitError, ProbeLimitError,
                       family_from_spec, set_from_cli)
from .jsonio import canonical, frac_str, parse_arg_json, value_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(args, artifact: dict, csv_rows=None) -> None:
    if getattr(args, "format", "json") == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = canonical(artifact)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _artifact(args, command: str, result) -> dict:
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out") and v is not None}
    return {"command": command, "config": config,
            "version": __version__, "result": result}


def _vectors_arg(text: str):
    data = parse_arg_json(text)
    if isinstance(data, dict) and "vectors" in data:
        data = data["vectors"]
    return tuple(spaces.Vector.from_json(v) for v in data)


# -- family ------------------------------------------------------------------


def cmd_family_enum(args):
    fam = family_from_spec(parse_arg_json(args.spec))
    members = families.enumerate_restriction(fam, args.n)
    result = {"count": len(members), "members": [list(e) for e in members]}
    rows = [["set"]] + [[" ".join(map(str, e))] for e in members]
    _emit(args, _artifact(args, "family enum", result), rows)
    return 0


def cmd_family_check(args):
    fam = family_from_spec(parse_arg_json(args.spec))
    report = families.check_regularity(fam, args.n)
    result = {
        "hereditary": report.hereditary,
        "spreading": report.spreading,
        "compactness": report.compactness,
        "hereditary_counterexamples":
            [[list(a), list(b)] for a, b in report.hereditary_counterexamples],
        "spreading_counterexamples":
            [[list(a), list(b)] for a, b in report.spreading_counterexamples],
    }
    _emit(args, _artifact(args, "family check", result))
    return 0 if report.ok else 2


def cmd_family_cb(args):
    fam = family_from_spec(parse_arg_json(args.spec))
    cb = fam.cb_index()
    result = {"index": ordinals.fmt(cb.value), "exact": cb.exact}
    natural = cb.value.natural()
    if natural is not None:
        result["as_integer"] = natural
    _emit(args, _artifact(args, "family cb", result))
    return 0


# -- ravg --------------------------------------------------------------------


def cmd_ravg_measure(args):
    xi = ordinals.parse(args.xi)
    m = set_from_cli(args.set)
    mu = ravg.ravg_measure(xi, m, args.n, probe_limit=args.probe_limit)
    result = mu.to_json()
    result["consumed"] = m.consumed
    rows = [["index", "weight"]] + [[k, frac_str(v)] for k, v in mu.weights]
    _emit(args, _artifact(args, "ravg measure", result), rows)
    return 0


def cmd_ravg_validate(args):
    xi = ordinals.parse(args.xi)
    block = ravg.canonical_block(xi, probe_limit=args.probe_limit)
    samples = [(set_from_cli(s), args.depth) for s in args.sets]
    report = ravg.block_validate(block, samples, probe_limit=args.probe_limit)
    result = {"checked": report.checked, "ok": report.ok,
              "violations": report.violations}
    _emit(args, _artifact(args, "ravg validate", result))
    return 0 if report.ok else 2


def cmd_ravg_convolve(args):
    zeta, xi = ordinals.parse(args.zeta), ordinals.parse(args.xi)
    block = ravg.convolve(ravg.canonical_block(zeta, args.probe_limit),
                          ravg.canonical_block(xi, args.probe_limit),
                          probe_limit=args.probe_limit)
    m = set_from_cli(args.set)
    mu = block.measure(m, args.n)
    result = mu.to_json()
    result["family"] = block.family.spec()
    rows = [["index", "weight"]] + [[k, frac_str(v)] for k, v in mu.weights]
    _emit(args, _artifact(args, "ravg convolve", result), rows)
    return 0


def cmd_ravg_fastgrow(args):
    xi = ordinals.parse(args.xi)
    report = ravg.fastgrow_check(xi, set_from_cli(args.k), set_from_cli(args.l),
                                 Fraction(args.eps), args.n,
                                 probe_limit=args.probe_limit)
    result = {
        "condition_holds": report.condition_holds,
        "strict_condition_holds": report.strict_condition_holds,
        "max_sum": frac_str(report.max_sum),
        "bound": frac_str(report.bound),
        "bound_ok": report.bound_ok,
        "witness": list(report.witness),
        "checked_pairs": [
            {"i": p["i"], "l_i": p["l_i"], "l_next": p["l_next"],
             "k": p["k"], "lhs": frac_str(p["lhs"]), "rhs": frac_str(p["rhs"])}
            for p in report.checked_pairs],
    }
    _emit(args, _artifact(args, "ravg fastgrow", result))
    return 0 if report.condition_holds and report.bound_ok else 2


# -- norm --------------------------------------------------------------------


def cmd_norm_eval(args):
    engine = spaces.engine_from_spec(parse_arg_json(args.engine))
    x = spaces.Vector.from_json(parse_arg_json(args.vector))
    value, cert = engine.norm(x)
    if engine.exact:
        result = {"value": value_json(value), "certificate": _cert_json(cert)}
    else:
        result = {"value": value_json(value, cert.error_bound),
                  "certificate": {"kind": "fixed-point-trace",
                                  "iterates": [repr(t) for t in cert.iterates]}}
    _emit(args, _artifact(args, "norm eval", result))
    return 0


def _meta_json(obj):
    """Certificate meta as JSON values: rationals as "p/q", tuples as lists,
    through nested levels (mixed) and base certificates (ex)."""
    if isinstance(obj, Fraction):
        return frac_str(obj)
    if isinstance(obj, dict):
        return {k: _meta_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_meta_json(v) for v in obj]
    return obj


def _cert_json(cert) -> dict:
    meta = _meta_json(cert.describe())
    if cert.coeffs is not None:
        meta["functional"] = [[list(k) if isinstance(k, tuple) else k,
                               frac_str(v)] for k, v in sorted(
                                   cert.coeffs.items(),
                                   key=lambda kv: str(kv[0]))]
    return meta


def cmd_norm_quotient(args):
    engine = spaces.engine_from_spec(parse_arg_json(args.engine))
    if not isinstance(engine, spaces.ExEngine):
        raise UsageError("quotient requires an interval-quotient engine")
    x = spaces.Vector.from_json(parse_arg_json(args.vector))
    y = engine.quotient_apply(x)
    _emit(args, _artifact(args, "norm quotient", y.to_json()))
    return 0


# -- certify -----------------------------------------------------------------


def _instance(args) -> weaknull.Instance:
    engine = spaces.engine_from_spec(parse_arg_json(args.engine))
    vectors = _vectors_arg(args.vectors)
    return weaknull.Instance(engine=engine, vectors=vectors)


def cmd_certify_spreading(args):
    inst = _instance(args)
    xi = ordinals.parse(args.xi)
    report = weaknull.spreading_certificate(inst, xi, Fraction(args.eps),
                                            args.n, variant=args.variant)
    _emit(args, _artifact(args, "certify spreading", report.to_json()),
          report.margin_rows())
    return 0 if report.passed else 2


def cmd_certify_ravg(args):
    inst = _instance(args)
    xi = ordinals.parse(args.xi)
    report = weaknull.ravg_null_test(inst, xi, set_from_cli(args.set),
                                     depth=args.depth)
    rows = [["sample", "n", "value", "delta", "ok"]]
    result_rows = []
    for r in report.rows:
        val = frac_str(r.value) if isinstance(r.value, (Fraction, int)) \
            else repr(float(r.value))
        rows.append([r.sample, r.n, val, frac_str(r.delta), r.ok])
        result_rows.append({"sample": r.sample, "n": r.n, "value": val,
                            "delta": frac_str(r.delta), "ok": r.ok})
    result = {"passed": report.passed, "rows": result_rows}
    _emit(args, _artifact(args, "certify ravg", result), rows)
    return 0 if report.passed else 2


def cmd_certify_dichotomy(args):
    inst = _instance(args)
    xi = ordinals.parse(args.xi)
    res = weaknull.dichotomy_search(inst, xi, Fraction(args.eps),
                                    depth=args.depth)
    result = {"kind": res.kind, "eps": frac_str(res.eps),
              "found_i": res.found_i, "found_ii": res.found_ii}
    if res.eps1 is not None:
        result["eps1"] = frac_str(res.eps1)
        result["m_prefix"] = list(res.m_prefix)
    if res.value is not None:
        result["value"] = frac_str(res.value) if isinstance(
            res.value, (Fraction, int)) else repr(float(res.value))
        result["n_prefix"] = list(res.n_prefix)
    _emit(args, _artifact(args, "certify dichotomy", result))
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="schreier",
                description="Ordinal-indexed family combinatorics, repeated "
                            "averages, norms, and certificates.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(q):
        q.add_argument("--out", help="write the artifact to this path")
        q.add_argument("--format", choices=("json", "csv"), default="json")
        q.add_argument("--probe-limit", type=int,
                       default=families.DEFAULT_PROBE_LIMIT)

    fam = sub.add_parser("family").add_subparsers(dest="sub", required=True)
    q = fam.add_parser("enum")
    q.add_argument("--spec", required=True)
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(func=cmd_family_enum)
    q = fam.add_parser("check")
    q.add_argument("--spec", required=True)
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(func=cmd_family_check)
    q = fam.add_parser("cb")
    q.add_argument("--spec", required=True)
    common(q)
    q.set_defaults(func=cmd_family_cb)

    rv = sub.add_parser("ravg").add_subparsers(dest="sub", required=True)
    q = rv.add_parser("measure")
    q.add_argument("--xi", required=True)
    q.add_argument("--set", required=True)
    q.add_argument("--n", type=int, default=1)
    common(q)
    q.set_defaults(func=cmd_ravg_measure)
    q = rv.add_parser("validate")
    q.add_argument("--xi", required=True)
    q.add_argument("--sets", nargs="+", required=True)
    q.add_argument("--depth", type=int, default=3)
    common(q)
    q.set_defaults(func=cmd_ravg_validate)
    q = rv.add_parser("convolve")
    q.add_argument("--zeta", required=True)
    q.add_argument("--xi", required=True)
    q.add_argument("--set", required=True)
    q.add_argument("--n", type=int, default=1)
    common(q)
    q.set_defaults(func=cmd_ravg_convolve)
    q = rv.add_parser("fastgrow")
    q.add_argument("--xi", required=True)
    q.add_argument("--k", required=True)
    q.add_argument("--l", required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--n", type=int, default=60)
    common(q)
    q.set_defaults(func=cmd_ravg_fastgrow)

    nm = sub.add_parser("norm").add_subparsers(dest="sub", required=True)
    q = nm.add_parser("eval")
    q.add_argument("--engine", required=True)
    q.add_argument("--vector", required=True)
    common(q)
    q.set_defaults(func=cmd_norm_eval)
    q = nm.add_parser("quotient")
    q.add_argument("--engine", required=True)
    q.add_argument("--vector", required=True)
    common(q)
    q.set_defaults(func=cmd_norm_quotient)

    ct = sub.add_parser("certify").add_subparsers(dest="sub", required=True)
    q = ct.add_parser("spreading")
    q.add_argument("--engine", required=True)
    q.add_argument("--vectors", required=True)
    q.add_argument("--xi", required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--variant", choices=("plain", "a", "sigma"),
                   default="sigma")
    common(q)
    q.set_defaults(func=cmd_certify_spreading)
    q = ct.add_parser("ravg")
    q.add_argument("--engine", required=True)
    q.add_argument("--vectors", required=True)
    q.add_argument("--xi", required=True)
    q.add_argument("--set", required=True)
    q.add_argument("--depth", type=int, default=2)
    common(q)
    q.set_defaults(func=cmd_certify_ravg)
    q = ct.add_parser("dichotomy")
    q.add_argument("--engine", required=True)
    q.add_argument("--vectors", required=True)
    q.add_argument("--xi", required=True)
    q.add_argument("--eps", required=True)
    q.add_argument("--depth", type=int, default=12)
    common(q)
    q.set_defaults(func=cmd_certify_dichotomy)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ordinals.OrdinalError, ValueError, KeyError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ProbeLimitError, EnumerationLimitError) as exc:
        print(f"bound exhausted: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
