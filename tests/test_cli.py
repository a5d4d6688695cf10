import hashlib
import json

import pytest

from schreier.cli import main

from oracles import check_norm_artifact


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def artifact(text):
    data = json.loads(text)
    assert set(data) == {"command", "config", "version", "result"}
    return data["result"]


def test_family_cb(capsys):
    code, out, _ = run(capsys, "family", "cb", "--spec",
                       '{"type":"adm","n":4}')
    assert code == 0
    result = artifact(out)
    assert result["index"] == "5" and result["as_integer"] == 5
    code, out, _ = run(capsys, "family", "cb", "--spec",
                       '{"type":"schreier","xi":"w^2"}')
    assert artifact(out)["index"] == "w^w^2+1"  # right-assoc chain


def test_family_enum_and_check(capsys):
    code, out, _ = run(capsys, "family", "enum", "--spec",
                       '{"type":"schreier","xi":"1"}', "--n", "4")
    assert code == 0
    assert artifact(out)["count"] == 8
    code, _, _ = run(capsys, "family", "check", "--spec",
                     '{"type":"schreier","xi":"1"}', "--n", "8")
    assert code == 0
    # image families fail spreading, which is a reportable violation
    code, out, _ = run(capsys, "family", "check", "--spec",
                       '{"type":"image","family":{"type":"schreier","xi":"1"},'
                       '"set":{"kind":"arith","start":2,"step":2}}',
                       "--n", "6")
    assert code == 2
    assert not artifact(out)["spreading"]


def test_ravg_measure(capsys):
    code, out, _ = run(capsys, "ravg", "measure", "--xi", "1",
                       "--set", "arith:3:2", "--n", "1")
    assert code == 0
    assert artifact(out)["weights"] == [[3, "1/3"], [5, "1/3"], [7, "1/3"]]


def test_ravg_validate_and_fastgrow(capsys):
    code, _, _ = run(capsys, "ravg", "validate", "--xi", "1",
                     "--sets", "arith:2:2", "all", "--depth", "3")
    assert code == 0
    code, out, _ = run(capsys, "ravg", "fastgrow", "--xi", "1",
                       "--k", "all", "--l", "geom:4", "--eps", "1",
                       "--n", "60")
    assert code == 0
    result = artifact(out)
    assert result["condition_holds"] and result["max_sum"] == "1/2"


def test_ravg_convolve(capsys):
    code, out, _ = run(capsys, "ravg", "convolve", "--zeta", "0",
                       "--xi", "1", "--set", "arith:3:2", "--n", "1")
    assert code == 0
    assert artifact(out)["weights"] == [[3, "1/3"], [5, "1/3"], [7, "1/3"]]


def test_norm_eval_and_quotient(capsys):
    code, out, _ = run(capsys, "norm", "eval", "--engine",
                       '{"kind":"schreier","xi":"1"}', "--vector",
                       '{"coords":[[1,"1"],[2,"1"],[3,"1"]]}')
    assert code == 0
    result = artifact(out)
    assert result["value"]["exact"] == "2/1"
    # stage w^2 with min E = 30 used to overflow the recursion limit
    code, out, _ = run(capsys, "norm", "eval", "--engine",
                       '{"kind":"schreier","xi":"w^2"}', "--vector",
                       '{"coords":[[30,"1"],[31,"1"],[33,"1"]]}')
    assert code == 0
    assert artifact(out)["value"]["exact"] == "3/1"
    code, out, _ = run(capsys, "norm", "eval", "--engine", '{"kind":"ell1"}',
                       "--vector", '{"coords":[]}')
    assert artifact(out)["value"]["exact"] == "0/1"
    engine = json.dumps({
        "kind": "ex", "base": {"kind": "ell1"},
        "partition": [{"kind": "arith", "start": 1, "step": 2},
                      {"kind": "arith", "start": 2, "step": 2}]})
    code, out, _ = run(capsys, "norm", "quotient", "--engine", engine,
                       "--vector", '{"coords":[[4,"1/2"]]}')
    assert code == 0
    assert artifact(out)["coords"] == [[2, "1/2"]]


def test_certify_spreading_exit_codes(capsys):
    vectors = json.dumps([{"coords": [[k, "1"]]} for k in range(1, 9)])
    code, out, _ = run(capsys, "certify", "spreading", "--engine",
                       '{"kind":"schreier","xi":"1"}', "--vectors", vectors,
                       "--xi", "1", "--eps", "1", "--n", "8")
    assert code == 0
    assert artifact(out)["passed"]
    code, out, _ = run(capsys, "certify", "spreading", "--engine",
                       '{"kind":"sup"}', "--vectors", vectors,
                       "--xi", "1", "--eps", "1", "--n", "8")
    assert code == 2
    assert not artifact(out)["passed"]


def test_certify_spreading_pins_lex_min_argmin(capsys):
    # overlapping supports; the worst set has more than one minimizer, and
    # the artifact reports the lexicographically smallest
    vectors = json.dumps([
        {"coords": [[3, "-2"], [5, "-3"], [6, "-1"]]},
        {"coords": [[1, "-2"], [3, "-3"], [4, "-1"]]},
        {"coords": [[2, "1"], [4, "1"], [6, "-1"]]},
        {"coords": [[4, "-1"], [5, "-1"], [7, "-1"]]},
        {"coords": [[2, "1"], [3, "-1"], [7, "-2"]]},
        {"coords": [[1, "1"], [3, "-2"], [7, "-2"]]}])
    code, out, _ = run(capsys, "certify", "spreading", "--engine",
                       '{"kind":"schreier","xi":"1"}', "--vectors", vectors,
                       "--xi", "1", "--eps", "1/2", "--n", "5")
    assert code == 0
    result = artifact(out)
    assert result["worst_set"] == [3, 4, 5]
    assert result["worst_signs"] == [1, 1, -1]
    assert result["worst_margin"] == "1/2"
    assert result["argmin_coefficients"] == ["1/4", "1/2", "1/4"]


def test_certify_dichotomy(capsys):
    vectors = json.dumps([{"coords": [[k, "1"]]} for k in range(1, 13)])
    code, out, _ = run(capsys, "certify", "dichotomy", "--engine",
                       '{"kind":"schreier","xi":"1"}', "--vectors", vectors,
                       "--xi", "1", "--eps", "1/2")
    assert code == 0
    assert artifact(out)["kind"] == "certificate_i"


def test_certify_ravg(capsys):
    vectors = json.dumps([{"coords": [[k, "1"]]} for k in range(1, 130)])
    code, out, _ = run(capsys, "certify", "ravg", "--engine", '{"kind":"sup"}',
                       "--vectors", vectors, "--xi", "1", "--set", "arith:3:1",
                       "--depth", "2")
    assert code == 0
    assert artifact(out)["passed"]


def test_certify_ravg_honours_the_probe_limit(capsys):
    vectors = json.dumps([{"coords": [[k, "1"]]} for k in range(1, 12)])
    argv = ["certify", "ravg", "--engine", '{"kind":"sup"}', "--vectors",
            vectors, "--xi", "1", "--set", "arith:3:1", "--depth", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    result = artifact(out)
    assert result["passed"]
    assert [row["value"] for row in result["rows"]] == [
        "1/3", "1/4", "1/3", "1/5", "1/3", "1/4", "1/3", "1/6", "1/3", "1/4",
        "1/3", "1/5", "1/3"]
    # the default budget is the one the option names
    assert run(capsys, *argv, "--probe-limit", "1000000") == (code, out, "")
    code, _, err = run(capsys, *argv, "--probe-limit", "1")
    assert code == 3 and "bound exhausted" in err


def test_usage_and_bound_errors(capsys):
    code, _, err = run(capsys, "family", "cb", "--spec", '{"type":"nope"}')
    assert code == 1 and "error" in err
    code, _, err = run(capsys, "ravg", "measure", "--xi", "not-an-ordinal",
                       "--set", "all")
    assert code == 1
    code, _, err = run(capsys, "ravg", "measure", "--xi", "2", "--set",
                       "arith:10:10", "--n", "1", "--probe-limit", "50")
    assert code == 3 and "bound exhausted" in err
    assert main(["family"]) == 1  # missing subcommand is a usage error


def test_artifacts_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(["ravg", "measure", "--xi", "w", "--set", "all",
                     "--n", "1", "--out", str(p)])
        assert code == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_csv_output(tmp_path):
    out = tmp_path / "measure.csv"
    main(["ravg", "measure", "--xi", "1", "--set", "arith:3:2",
          "--n", "1", "--format", "csv", "--out", str(out)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "index,weight"
    assert lines[1] == "3,1/3"


def test_vectors_from_file(tmp_path, capsys):
    path = tmp_path / "vectors.json"
    path.write_text(json.dumps(
        {"vectors": [{"coords": [[k, "1"]]} for k in range(1, 9)]}))
    code, out, _ = run(capsys, "certify", "spreading", "--engine",
                       '{"kind":"schreier","xi":"1"}', "--vectors",
                       "@" + str(path), "--xi", "1", "--eps", "1", "--n", "8")
    assert code == 0


def test_norm_eval_z_engine_reports_error_bound(capsys):
    engine = json.dumps({"kind": "z", "xi": "1", "base": {"kind": "sup"}})
    code, out, _ = run(capsys, "norm", "eval", "--engine", engine,
                       "--vector", '{"coords":[[3,"1"]]}')
    assert code == 0
    value = artifact(out)["value"]
    assert abs(float(value["approx"]) - 1.0) <= 1e-12
    assert float(value["error_bound"]) <= 1e-12


def test_certify_spreading_csv_margin_table(tmp_path):
    out = tmp_path / "margins.csv"
    vectors = json.dumps([{"coords": [[k, "1"]]} for k in range(1, 7)])
    code = main(["certify", "spreading", "--engine", '{"kind":"sup"}',
                 "--vectors", vectors, "--xi", "1", "--eps", "1",
                 "--n", "6", "--format", "csv", "--out", str(out)])
    assert code == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "set,signs,margin"
    assert len(lines) > 3


def test_enumeration_bound_exit_code(capsys):
    code, _, err = run(capsys, "family", "enum", "--spec",
                       '{"type":"adm","n":1}', "--n", "25")
    assert code == 3 and "bound exhausted" in err


_LINE = [[1, "1"], [2, "-1/2"], [3, "1"], [5, "2/3"], [8, "-3/4"], [9, "1/5"]]
_PARITY = [{"kind": "arith", "start": 1, "step": 2},
           {"kind": "arith", "start": 2, "step": 2}]


@pytest.mark.parametrize("spec, coords", [
    ({"kind": "ell1"}, _LINE),
    ({"kind": "sup"}, _LINE),
    ({"kind": "schreier", "xi": "1"}, _LINE),
    ({"kind": "schreier", "xi": "w"}, _LINE),
    ({"kind": "mixed", "xis": ["1", "2"]}, _LINE),
    ({"kind": "mixed", "xis": ["0", "w", "w^2"]}, _LINE),
    ({"kind": "ex", "base": {"kind": "ell1"}, "partition": _PARITY}, _LINE),
    ({"kind": "ex", "base": {"kind": "mixed", "xis": ["1", "2"]},
      "partition": _PARITY}, _LINE),
    ({"kind": "tree", "nodes": [[1], [1, 1], [1, 2], [2]]},
     [[[1], "1"], [[1, 1], "-2"], [[1, 2], "1/3"], [[2], "1/2"]]),
    ({"kind": "z", "xi": "1", "base": {"kind": "sup"}}, _LINE),
], ids=lambda v: v["kind"] if isinstance(v, dict) else "")
def test_norm_eval_artifact_checks_for_every_engine_kind(capsys, spec,
                                                         coords):
    code, out, _ = run(capsys, "norm", "eval", "--engine", json.dumps(spec),
                       "--vector", json.dumps({"coords": coords}))
    assert code == 0
    result = artifact(out)
    assert result["certificate"]["kind"] in (spec["kind"],
                                             "fixed-point-trace")
    assert check_norm_artifact(spec, coords, result) is None


def test_norm_quotient_of_an_ex_engine_with_a_mixed_base(capsys):
    engine = json.dumps({"kind": "ex", "partition": _PARITY,
                         "base": {"kind": "mixed", "xis": ["1", "2"]}})
    code, out, _ = run(capsys, "norm", "quotient", "--engine", engine,
                       "--vector", json.dumps({"coords": _LINE}))
    assert code == 0
    # odd keys fold onto class 1 and even keys onto class 2
    assert artifact(out)["coords"] == [[1, "43/15"], [2, "-5/4"]]


_PREIMAGE = ('{"type":"preimage","family":{"type":"schreier","xi":"1"},'
             '"set":{"kind":"geom","base":2}}')
_EX = ('{"kind":"ex","base":{"kind":"ell1"},"partition":['
       '{"kind":"arith","start":1,"step":2},'
       '{"kind":"arith","start":2,"step":2}]}')


# each digest is the sha256 of the artifact the command wrote before the
# budget reached image/preimage specs and ex engines, so the default output
# is pinned byte for byte
@pytest.mark.parametrize("argv, digest", [
    (["family", "enum", "--spec", _PREIMAGE, "--n", "6"],
     "d8dfd74864007f79e44b44605a0686f28321414c2d72d1c5329fc125219598bf"),
    (["norm", "eval", "--engine", _EX,
      "--vector", '{"coords":[[9,"1"],[30,"2"]]}'],
     "5343ea62779abe119047deb734fd8934249e33732fab470c57c1fc32e390608e"),
    (["certify", "spreading", "--engine", _EX, "--vectors",
      '[{"coords":[[9,"1"]]},{"coords":[[30,"2"]]}]',
      "--xi", "0", "--eps", "1", "--n", "2"],
     "691f39223b706a3daa851c34260f8170fafc466616ce9d84d2af85200fea6dc4"),
], ids=["preimage", "ex", "certify-ex"])
def test_probe_limit_bounds_preimage_sets_and_ex_partitions(capsys, argv,
                                                            digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    code, out, err = run(capsys, *argv, "--probe-limit", "1")
    assert code == 3 and out == "" and "bound exhausted" in err


@pytest.mark.parametrize("argv", [
    ["family", "check", "--spec", "{}", "--n", "4"],
    ["family", "cb", "--spec", '{"type":"adm","n":4}'],
    ["ravg", "validate", "--xi", "1", "--sets", "all"],
    ["ravg", "fastgrow", "--xi", "1", "--k", "all", "--l", "all",
     "--eps", "1"],
    ["norm", "eval", "--engine", "{}", "--vector", "{}"],
    ["norm", "quotient", "--engine", "{}", "--vector", "{}"],
    ["certify", "dichotomy", "--engine", "{}", "--vectors", "[]",
     "--xi", "1", "--eps", "1"],
], ids=lambda argv: " ".join(argv[:2]))
def test_csv_is_a_usage_error_on_commands_without_table_rows(capsys, argv):
    # rejected while parsing: the malformed specs are never read
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 1 and out == ""
    assert err.startswith("usage error:") and "--format" in err


def test_family_cb_artifact_is_unchanged(capsys):
    code, out, _ = run(capsys, "family", "cb", "--spec",
                       '{"type":"adm","n":4}')
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == \
        "634ad6af77f864caa0c04838eaf139743584f041a002137f00d6d3f6167ae5d1"
