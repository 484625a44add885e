import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup_rigidity.cli import UsageError, load_config, main
from blowup_rigidity.errors import BlowupError
from blowup_rigidity.fieldgeom import Config

C0_RAW = {"n": 2, "r": 2, "s": [2, 3], "q": 13, "base": [[1, 2], [3, 4, 5]]}


@pytest.fixture
def c0_file(tmp_path):
    path = tmp_path / "c0.json"
    path.write_text(json.dumps(C0_RAW))
    return str(path)


def test_gen_config_round_trip(tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main(["gen-config", "--n", "2", "--r", "2", "--s", "2,3",
                 "--q", "13", "--seed", "1", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["n"] == 2 and len(data["base"]) == 2
    code = main(["verify", "--config", str(out), "--draws", "50"])
    assert code == 0
    capsys.readouterr()


def test_gen_config_bad_s_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gen-config", "--n", "2", "--r", "2", "--s", "2,x", "--q", "13"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "expected comma-separated integers, got '2,x'" in captured.err


def test_verify_json_deterministic(c0_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["verify", "--config", c0_file, "--draws", "100",
                 "--out", str(out1)]) == 0
    assert main(["verify", "--config", c0_file, "--draws", "100",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["summary"] == {"PASS": 25, "FAIL": 0, "WARN": 1}


def test_verify_md_format(c0_file, capsys):
    assert main(["verify", "--config", c0_file, "--draws", "50",
                 "--format", "md"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# Verification report")


def test_verify_q_extra(c0_file, capsys):
    assert main(["verify", "--config", c0_file, "--draws", "50",
                 "--q-extra", "17"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [c["check_id"] for c in payload["checks"]]
    assert "vectorfields.kernel_extra" in ids


# q = 1000003 is far beyond any generated field; 999996 = q - 7 lies in the
# scaling orbit {7, -7} of the entry before it
@pytest.mark.parametrize("axis_1, status", [
    ([7, 999996], {"config.structure": "PASS", "config.delta": "FAIL"}),
    ([7, 8], {"config.structure": "PASS", "config.delta": "PASS",
              "config.action": "PASS", "config.genericity": "PASS"}),
])
def test_verify_at_a_large_prime_builds_no_orbit_table(axis_1, status, tmp_path, capsys,
                                                       count_calls):
    # a hand-written base is checked orbit by orbit, never through the
    # O(q) table of orbit labels
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 2, "r": 2, "s": [2, 3], "q": 1000003,
                                "base": [axis_1, [3, 4, 5]]}))
    calls = count_calls("orbit_labels")
    code = main(["verify", "--config", str(path), "--draws", "20"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c["check_id"]: c["status"] for c in checks
            if c["check_id"].startswith("config.")} == status
    assert code == (1 if "FAIL" in status.values() else 0)
    if code:
        assert checks[1]["computed"].startswith("OrbitCollision: axis 1: base 999996")
    assert calls == {"orbit_labels": 0}


@pytest.mark.parametrize("q_extra, error", [
    ("15", "NotPrime"),
    ("2", "NDoesNotDivide"),
    ("5", "TooSmallField"),
])
def test_verify_bad_q_extra_exits_2(q_extra, error, c0_file, capsys):
    assert main(["verify", "--config", c0_file, "--q-extra", q_extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}: ")
    assert captured.err.count("\n") == 1


def test_verify_invalid_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 2, "r": 2, "s": [2, 2], "q": 13,
                                "base": [[1, 2], [3, 4]]}))
    assert main(["verify", "--config", str(path)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0]["status"] == "FAIL"


def test_missing_file_exits_2(capsys):
    assert main(["verify", "--config", "/nonexistent.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["verify", "--config", str(path)]) == 2
    capsys.readouterr()


def test_missing_key_exits_2(tmp_path, capsys):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"n": 2, "r": 2}))
    assert main(["verify", "--config", str(path)]) == 2
    assert "missing key" in capsys.readouterr().err


BAD_CONFIGS = {
    "zero_base": {**C0_RAW, "base": [[1, 0], [3, 4, 5]]},
    "composite_q": {**C0_RAW, "q": 15, "zeta": 14, "base": [[1, 2], [3, 4, 7]]},
    "s_entry_str": {"n": 2, "r": 2, "s": [2, "3"], "q": 13},
    "n_str": {**C0_RAW, "n": "2"},
    "base_flat": {**C0_RAW, "base": [1, 2, 3]},
    "seed_float": {**C0_RAW, "seed": 1.5},
    "not_object": [2, 2, 13],
}
SUBCOMMANDS = ["verify", "pairing-table", "extremal", "graph", "rigidity",
               "vector-fields"]
# verify reports well-typed invalid values as FAIL records instead (below)
BAD_INPUTS = [(bad, command) for bad in sorted(BAD_CONFIGS) for command in SUBCOMMANDS
              if command != "verify" or bad not in ("zero_base", "composite_q")]


@pytest.mark.parametrize("bad,command", BAD_INPUTS)
def test_bad_config_exits_2_with_one_line(bad, command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIGS[bad]))
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("bad,check_id", [("zero_base", "config.delta"),
                                          ("composite_q", "config.structure")])
def test_verify_reports_invalid_values_as_failed_checks(bad, check_id, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_CONFIGS[bad]))
    assert main(["verify", "--config", str(path)]) == 1
    last = json.loads(capsys.readouterr().out)["checks"][-1]
    assert (last["check_id"], last["status"]) == (check_id, "FAIL")


@pytest.mark.parametrize("n, q, message", [(2, 15, "15 is not prime"),
                                           (3, 11, "3 does not divide 10")])
def test_config_without_zeta_and_no_root_exits_2(n, q, message, tmp_path, capsys):
    # the default zeta comes from Config.from_dict; its error is a usage error
    path = tmp_path / "no_zeta.json"
    path.write_text(json.dumps({"n": n, "r": 2, "s": [2, 3], "q": q,
                                "base": [[1, 2], [3, 4, 5]]}))
    assert main(["verify", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_vector_fields_builds_marked_set_once(c0_file, tmp_path, capsys, count_calls):
    calls = count_calls("build_delta")
    matrix = tmp_path / "matrix.json"
    assert main(["vector-fields", "--config", c0_file, "--matrix", str(matrix)]) == 0
    capsys.readouterr()
    assert calls == {"build_delta": 1}


def test_vector_fields_assembles_system_once(c0_file, capsys, count_calls):
    # the records and the `system` block come from one kernel
    calls = count_calls("vectorfields.assemble_system", "vectorfields.kernel_of_rows")
    assert main(["vector-fields", "--config", c0_file]) == 0
    capsys.readouterr()
    assert calls == {"vectorfields.assemble_system": 1, "vectorfields.kernel_of_rows": 1}


def test_pairing_table(c0_file, capsys):
    assert main(["pairing-table", "--config", c0_file]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("curve/divisor,piH1,piH2")
    assert len(lines) == 13


def test_extremal_table_and_json(c0_file, capsys):
    assert main(["extremal", "--config", c0_file]) == 0
    table = capsys.readouterr().out
    assert "lt1" in table and "yes" in table
    assert main(["extremal", "--config", c0_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data) == 22


def test_graph_outputs(c0_file, tmp_path, capsys):
    dot = tmp_path / "g.dot"
    assert main(["graph", "--config", c0_file, "--dot", str(dot)]) == 0
    adj = json.loads(capsys.readouterr().out)
    assert len(adj) == 22
    text = dot.read_text()
    assert text.startswith("graph incidence {")


def test_rigidity_emits_group_matrices(c0_file, capsys):
    assert main(["rigidity", "--config", c0_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [c["check_id"] for c in payload["checks"]]
    assert "rigidity.automorphisms" in ids
    assert len(payload["group"]) == 4
    assert [[1, 0, 0, 1], [1, 0, 0, 1]] in payload["group"]
    assert [[1, 0, 0, 12], [1, 0, 0, 12]] in payload["group"]


def test_vector_fields_system_and_matrix(c0_file, tmp_path, capsys):
    matrix_path = tmp_path / "matrix.json"
    assert main(["vector-fields", "--config", c0_file,
                 "--matrix", str(matrix_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][-1]["computed"]["dimension"] == 2
    system = payload["system"]
    assert system["rows"] == 20 and system["rank"] == 6
    assert [[1, 0, 0, 1], [0, 0, 0, 0]] in system["kernel_basis"]
    matrix = json.loads(matrix_path.read_text())
    assert matrix["q"] == 13 and matrix["columns"] == 8
    assert len(matrix["rows"]) == 20
    assert all(len(row["coeffs"]) == 8 for row in matrix["rows"])


def test_sweep_with_cases_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "cases": [
            {"n": 2, "r": 2, "s": [2, 3], "q": 13},
            {"n": 3, "r": 2, "s": [1, 2]},
        ],
        "seed": 1,
    }))
    assert main(["sweep", "--spec", str(spec), "--jobs", "1",
                 "--draws", "50"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["cases"] == 2
    assert payload["aggregate"]["errors"] == 0


def test_sweep_with_product_spec(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": [2], "r": [2], "seed": 1}))
    assert main(["sweep", "--spec", str(spec), "--jobs", "1",
                 "--draws", "30"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["aggregate"]["cases"] == 1


def test_sweep_bad_spec_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"something": 1}))
    assert main(["sweep", "--spec", str(spec)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec, message", [
    ({"cases": [{"n": 2}]}, "case 0 is missing key 'r'"),
    ({"cases": [{"n": 2, "r": 2, "s": [2, 3]}, {"r": 2, "s": [1, 2]}]},
     "case 1 is missing key 'n'"),
    ({"cases": [{"n": 2, "r": 2, "s": "2,3"}]}, "case 0 has a mistyped 's'"),
    ({"cases": [{"n": 2, "r": 2, "s": [2, 3], "q": "13"}]},
     "case 0 has a mistyped 'q'"),
    ({"cases": [2]}, "case 0 is not a JSON object"),
    ({"cases": {"n": 2}}, "'cases' must be a list"),
    ({"n": 2, "r": [2]}, "the spec has a mistyped 'n'"),
    ({"n": [2], "r": [2], "seed": "1"}, "the spec has a mistyped 'seed'"),
    ([1, 2], "sweep spec is not a JSON object"),
    ({"seed": 0, "cases": [{"n": 2, "r": 2, "s": [2, 3], "q": 13},
                           {"n": 3, "r": 2, "s": [1, 2]},
                           {"n": 2, "r": 2, "s": [2, 3], "q": 13, "seed": 0}]},
     "sweep case 2 repeats case 0"),
])
def test_sweep_malformed_spec_exits_2(spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("spec, message", [
    ({"n": [2], "r": [2], "variants": 0}, "'variants' is 0"),
    ({"n": [2], "r": [2], "variants": -3}, "'variants' is -3"),
    ({"n": [], "r": [2]}, "'n' is empty"),
    ({"cases": []}, "'cases' is empty"),
])
def test_sweep_spec_selecting_no_case_exits_2(spec, message, tmp_path, capsys):
    # a sweep that checks nothing must not report success
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["sweep", "--spec", str(path), "--jobs", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "no case would run" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--draws", "0"],
    ["verify", "--draws", "-5"],
    ["verify", "--draws", "x"],
    ["sweep", "--draws", "-1"],
    ["sweep", "--draws", "0"],
    ["sweep", "--jobs", "0"],
    ["sweep", "--jobs", "-1"],
    ["sweep", "--jobs", "two"],
])
def test_nonpositive_counts_exit_2(argv, c0_file, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n": [2], "r": [2], "seed": 1}))
    where = ["--config", c0_file] if argv[0] == "verify" else ["--spec", str(spec)]
    with pytest.raises(SystemExit) as info:
        main([argv[0], *where, *argv[1:]])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"expected a positive integer, got '{argv[-1]}'" in captured.err


# small ints around the edge cases (zero, negative, one), primes and
# composites for q, and values of the wrong type
_SMALL = st.integers(-2, 8)
_Q = st.sampled_from([-7, 0, 1, 2, 4, 7, 9, 13, 15, 17, 19])
_WRONG = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False, width=16),
                   st.text(max_size=2), st.just([]), st.just({}))
_INT_LIST = st.lists(_SMALL, max_size=4)
_ANY = st.one_of(_SMALL, _WRONG, st.lists(st.one_of(_SMALL, _WRONG), max_size=3))
# well typed, so that the values themselves are what is wrong
_TYPED = st.fixed_dictionaries(
    {"n": _SMALL, "r": st.integers(-1, 4), "s": _INT_LIST, "q": _Q},
    optional={"seed": _SMALL, "zeta": _SMALL, "base": st.lists(_INT_LIST, max_size=4)},
)
# any key may hold any type
_UNTYPED = st.fixed_dictionaries(
    {}, optional={key: _ANY for key in ("n", "r", "s", "q", "seed", "zeta", "base")}
)


@settings(max_examples=400, deadline=None)
@given(raw=st.one_of(_TYPED, _UNTYPED, _ANY))
def test_load_config_returns_config_or_raises_usage_error(raw):
    # main turns these two into exit 2; anything else prints a traceback
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        try:
            config = load_config(path)
        except (UsageError, BlowupError):
            return
    assert isinstance(config, Config)


def test_cli_import_skips_process_pool(tmp_path):
    # only `sweep` with more than one job uses the pool, only `pairing-table`
    # writes CSV, and no class is a dataclass (which imports inspect); a
    # `verify` run loads neither the fork pool nor `select`, and its draw
    # seeds are hashed in-package, without hashlib and OpenSSL
    config = tmp_path / "c0.json"
    config.write_text(json.dumps(C0_RAW))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, blowup_rigidity.cli; "
            "loaded = lambda: [m for m in ('concurrent.futures.process', 'multiprocessing', "
            "'dataclasses', 'inspect', 'csv', 'blowup_rigidity.forkpool', 'select', "
            "'hashlib', '_hashlib') "
            "if m in sys.modules]; print(loaded()); "
            f"code = blowup_rigidity.cli.main(['verify', '--config', {str(config)!r}, "
            "'--out', sys.argv[1]]); print(code, loaded())")
    out = tmp_path / "report.json"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.splitlines() == ["[]", "0 []"]
    assert json.loads(out.read_text())["summary"]["FAIL"] == 0


def test_parallel_sweep_imports_no_process_pool(tmp_path):
    # forked sweep workers need neither the executor nor pickled messages,
    # and their draw seeds need neither hashlib nor OpenSSL
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"cases": [{"n": 2, "r": 2, "s": [2, 3], "q": 13},
                                          {"n": 3, "r": 2, "s": [1, 2], "q": 13}]}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from blowup_rigidity.cli import main; "
            f"code = main(['sweep', '--spec', {str(spec)!r}, '--draws', '10', "
            "'--jobs', '2', '--out', sys.argv[1]]); "
            "print(code, [m for m in ('concurrent.futures', 'multiprocessing', 'pickle', "
            "'hashlib', '_hashlib') "
            "if m in sys.modules], 'blowup_rigidity.forkpool' in sys.modules)")
    out = tmp_path / "sweep.json"
    proc = subprocess.run([sys.executable, "-c", code, str(out)], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.strip() == "0 [] True"
    assert len(json.loads(out.read_text())["rows"]) == 2
