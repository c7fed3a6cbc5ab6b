"""CLI subcommands: pinned outputs, determinism, and error JSON."""

import json

import pytest

from uhfkron.cli import cli_run


def run(capsys, *argv):
    code = cli_run(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_tensor_state_witness_pinned(capsys):
    code, out = run(
        capsys, "tensor-state", "--a", "2", "--b", "2",
        "--T", "diag(1,0)", "--R", "diag(0,1)",
        "--expr", "E[4](2,2)-E[4](3,3)",
    )
    assert code == 0
    assert out == '{"value":{"re":1.0,"im":0.0}}\n'


def test_tensor_state_swapped(capsys):
    code, payload = run_json(
        capsys, "tensor-state", "--a", "2", "--b", "2",
        "--T", "diag(0,1)", "--R", "diag(1,0)",
        "--expr", "E[4](2,2)-E[4](3,3)",
    )
    assert code == 0
    assert payload == {"value": {"re": -1.0, "im": 0.0}}


def test_atom_product_pinned(capsys):
    code, out = run(
        capsys, "atom-product", "--n", "2", "--m", "2",
        "--J", "1,1,1", "--K", "2,2,2",
    )
    assert code == 0
    assert out == '{"base":4,"label":[2,2,2]}\n'


def test_check_pinned_shape(capsys):
    code, payload = run_json(
        capsys, "check", "--suite", "coassociativity",
        "--dims", "2,3,2", "--level", "1",
    )
    assert code == 0
    assert payload == {"passed": 144, "failed": 0}


def test_check_all_suites_pass(capsys):
    cases = [
        ("coassociativity", "2,2,2", "1"),
        ("compatibility", "2,2", "1"),
        ("star-isomorphism", "2,3", "1"),
        ("tensor-formula", "2,3", "1"),
        ("nonsymmetry", "", "2"),
        ("atom-semigroup", "2,2", "2"),
        ("state-associativity", "2,2,2", "1"),
    ]
    for suite, dims, level in cases:
        argv = ["check", "--suite", suite, "--level", level]
        if dims:
            argv += ["--dims", dims]
        code, payload = run_json(capsys, *argv)
        assert code == 0, (suite, payload)
        assert payload["failed"] == 0
        assert payload["passed"] > 0


def test_check_unknown_suite(capsys):
    code, payload = run_json(capsys, "check", "--suite", "nope")
    assert code == 1
    assert payload["error"]["code"] == "validation"


def test_eval(capsys):
    code, payload = run_json(
        capsys, "eval", "--state", "diag(0.25,0.75)",
        "--expr", "E[2](2,2)",
    )
    assert code == 0
    assert payload == {"value": {"re": 0.75, "im": 0.0}}


def test_eval_overflowing_modulus(capsys):
    code, out = run(capsys, "eval", "--state", "diag(1,0)",
                    "--expr", "(1.5e308,1.5e308)*E[2](1,1)")
    assert code == 0
    assert out == '{"value":{"re":1.5e+308,"im":1.5e+308}}\n'


def test_coproduct_overflowing_modulus(capsys):
    code, payload = run_json(capsys, "coproduct", "--a", "2", "--b", "2",
                             "--expr", "(1.5e308,1.5e308)*E[4](1,1)")
    assert code == 0
    assert payload == {"sig": [2, 2], "terms": [
        {"rows": [1, 1], "cols": [1, 1],
         "value": {"re": 1.5e308, "im": 1.5e308}}]}


def test_coproduct_terms_sorted(capsys):
    code, payload = run_json(
        capsys, "coproduct", "--a", "2", "--b", "2",
        "--expr", "E[4](3,3) + E[4](2,2)",
    )
    assert code == 0
    assert payload["sig"] == [2, 2]
    assert payload["terms"] == [
        {"rows": [1, 2], "cols": [1, 2], "value": {"re": 1.0, "im": 0.0}},
        {"rows": [2, 1], "cols": [2, 1], "value": {"re": 1.0, "im": 0.0}},
    ]


def test_boxtimes(capsys):
    code, payload = run_json(
        capsys, "boxtimes", "--T", "diag(1,0)", "--R", "diag(0,1)"
    )
    assert code == 0
    assert payload["sig"] == [4]
    diag = [payload["factors"][0][i][i]["re"] for i in range(4)]
    assert diag == [0.0, 1.0, 0.0, 0.0]


def test_gns_pure_and_trace(capsys):
    code, payload = run_json(capsys, "gns", "--state", "diag(1,0);diag(0,1)")
    assert code == 0
    assert payload["space_dim"] == 4
    assert payload["commutant_dim"] == 1
    assert payload["expectation"]["failed"] == 0

    code, payload = run_json(capsys, "gns", "--state", "diag(0.5,0.5)")
    assert code == 0
    assert payload["space_dim"] == 4
    assert payload["commutant_dim"] == 4
    assert payload["cyclic_norm"] == pytest.approx(1.0)


@pytest.mark.parametrize("state, commutant", [
    ("diag(0.5,0.5);diag(0.3,0.7);diag(0.4,0.6)", 64),
    ("diag(0.2,0.8);diag(0.1,0.3,0.6)", 36),
    ("diag(1,0,0,0);diag(1,0,0,0);diag(1,0,0,0)", 1),
], ids=["full-rank-2x2x2", "full-rank-2x3", "pure-4x4x4"])
def test_gns_commutant_within_the_guard(capsys, state, commutant):
    # D = 64 or 36, so D^2 is within the guard and a number is due
    code, payload = run_json(capsys, "gns", "--state", state)
    assert code == 0
    assert payload["commutant_dim"] == commutant
    assert payload["expectation"]["failed"] == 0


def test_distance_witness(capsys):
    code, payload = run_json(
        capsys, "distance",
        "--T", "diag(0,1,0,0);diag(0,1,0,0)",
        "--R", "diag(0,0,1,0);diag(0,0,1,0)",
    )
    assert code == 0
    assert payload["distance"] == pytest.approx(2.0, abs=1e-12)


def test_determinism_byte_identical(capsys):
    argv = ("coproduct", "--a", "2,2", "--b", "2,2",
            "--expr", "E[4](2,3) (x) E[4](1,4)")
    _, first = run(capsys, *argv)
    _, second = run(capsys, *argv)
    assert first == second


def test_error_parse(capsys):
    code, payload = run_json(capsys, "eval", "--state", "diag(1,0)",
                             "--expr", "E[2](3,1)")
    assert code == 1
    assert payload["error"]["code"] == "parse-error"
    assert "row index 3" in payload["error"]["message"]


def test_error_state_validation(capsys):
    code, payload = run_json(capsys, "eval", "--state", "diag(0.5,0.6)",
                             "--expr", "E[2](1,1)")
    assert code == 1
    assert payload["error"]["code"] == "validation"


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("state,expr", [
    ("diag(nan,nan)", "E[2](1,1)"),
    ("diag(1,0)", "1e400*E[2](1,1)"),
])
def test_error_non_finite_is_strict_json(capsys, state, expr):
    code, out = run(capsys, "eval", "--state", state, "--expr", expr)
    assert code == 1
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=pytest.fail)
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == "validation"


def test_error_signature_mismatch(capsys):
    code, payload = run_json(
        capsys, "tensor-state", "--a", "3", "--b", "2",
        "--T", "diag(1,0)", "--R", "diag(0,1)", "--expr", "E[4](1,1)",
    )
    assert code == 1
    assert payload["error"]["code"] == "signature-mismatch"


@pytest.mark.parametrize("a,expr,code,message", [
    # the dimension is refused where the --a list becomes a signature ...
    ("2,100000000000000000000", "E[4](1,1) (x) E[4](1,1)",
     "signature-mismatch",
     "factor dimension 100000000000000000000 at position 2 is >= 2**62"),
    # ... and where the parser meets the atom, with its place in the text
    ("2,100000000000000000000", "E[4](1,1) (x) E[200000000000000000000](1,1)",
     "parse-error",
     "factor dimension 200000000000000000000 at position 1 is >= 2**62 "
     "(line 1, column 15)"),
])
def test_error_factor_dimension_past_int64_indices(capsys, a, expr, code,
                                                   message):
    status, out = run(capsys, "coproduct", "--a", a, "--b", "2,2",
                      "--expr", expr)
    assert status == 1
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=pytest.fail)
    assert payload == {"error": {"code": code, "message": message}}


def test_error_resource_guard(capsys):
    state = ";".join(["diag(0.5,0.5)"] * 13)
    code, payload = run_json(capsys, "distance", "--T", state, "--R", state)
    assert code == 1
    assert payload["error"]["code"] == "resource-guard"


def test_error_missing_file(capsys):
    code, payload = run_json(capsys, "eval", "--state", "file:/no/such.json",
                             "--expr", "E[2](1,1)")
    assert code == 1
    assert payload["error"]["code"] == "io-error"


@pytest.mark.parametrize("env,argv,code", [
    ({}, ["check", "--suite", "coassociativity", "--dims", "2,3,2",
          "--level", "6"], "resource-guard"),
    ({}, ["check", "--suite", "atom-semigroup", "--dims", "2,2",
          "--level", "999999999"], "resource-guard"),
    ({}, ["--tol", "-1", "check", "--suite", "coassociativity",
          "--dims", "2,2,2"], "validation"),
    ({"UHFKRON_TOL": "nan"}, ["check", "--suite", "tensor-formula",
                              "--dims", "2,2"], "validation"),
    ({}, ["gns", "--state", "diag(1,0)", "--cutoff", "-1"], "validation"),
    ({}, ["eval", "--state", "file:{number}", "--expr", "E[2](1,1)"],
     "parse-error"),
    ({}, ["eval", "--state", "file:{ragged}", "--expr", "E[2](1,1)"],
     "parse-error"),
    ({}, ["eval", "--state", "diag(1,0)", "--expr",
          "(" * 2000 + "E[2](1,1)" + ")" * 2000], "parse-error"),
    ({}, ["check", "--suite", "coassociativity", "--level", "x"], "usage"),
    ({}, ["eval", "--state", "diag(1,0)"], "usage"),
    ({}, ["check", "--suite", "star-isomorphism", "--dims", "2,2",
          "--seed", "-1"], "validation"),
    ({}, ["check", "--suite", "state-associativity", "--dims", "2,2,2",
          "--seed", "-5"], "validation"),
    ({}, ["check", "--suite", "tensor-formula", "--dims", "2,2",
          "--seed", "-2"], "validation"),
    ({}, ["check", "--suite", "nonsymmetry", "--level", "0"], "validation"),
    ({}, ["check", "--suite", "nonsymmetry", "--level", "-3"], "validation"),
])
def test_error_cases_are_one_strict_json_object(capsys, monkeypatch,
                                                tmp_path, env, argv, code):
    files = {"number": [1], "ragged": [[[1, 0], [0]]]}
    for name, data in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    paths = {name: tmp_path / f"{name}.json" for name in files}
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    status, out = run(capsys, *(a.format(**paths) for a in argv))
    assert status == 1
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=pytest.fail)
    assert set(payload) == {"error"}
    assert payload["error"]["code"] == code


def test_tol_env_and_flag(capsys, monkeypatch):
    monkeypatch.setenv("UHFKRON_TOL", "1e-9")
    code, payload = run_json(
        capsys, "check", "--suite", "tensor-formula", "--dims", "2,3",
        "--level", "1",
    )
    assert code == 0 and payload["failed"] == 0

    monkeypatch.setenv("UHFKRON_TOL", "not-a-number")
    code, payload = run_json(capsys, "eval", "--state", "diag(1,0)",
                             "--expr", "E[2](1,1)")
    assert code == 1
    assert payload["error"]["code"] == "validation"

    # an explicit flag wins over the (broken) environment value
    code, payload = run_json(
        capsys, "--tol", "1e-12", "eval", "--state", "diag(1,0)",
        "--expr", "E[2](1,1)",
    )
    assert code == 0
    assert payload == {"value": {"re": 1.0, "im": 0.0}}


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "uhfkron", "atom-product", "--n", "2",
         "--m", "3", "--J", "2", "--K", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"base": 6, "label": [4]}
