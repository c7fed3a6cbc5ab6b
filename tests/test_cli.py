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


def _gns_deviations(state):
    # each unit's modulus |<x> in the GNS space - S(x)|, one unit at a time
    import numpy as np

    from uhfkron.algebra import _moduli, matrix_unit
    from uhfkron.gns import gns_build
    from uhfkron.parser import parse_state
    from uhfkron.states import state_evaluate
    from uhfkron.sweeps import all_matrix_units

    S = parse_state(state)
    G = gns_build(S)
    units = [matrix_unit(S.sig, *idx) for idx in all_matrix_units(S.sig)]
    return _moduli(np.array([G.expectation(x) - state_evaluate(S, x)
                             for x in units]))


def test_gns_judges_every_unit_at_tol(capsys):
    # --tol is the only tolerance: below the largest rounding error some
    # units fail, and the verdict agrees with the printed max_error
    state = "diag(0.3,0.7);diag(0.1,0.2,0.7)"
    err = _gns_deviations(state)
    code, payload = run_json(capsys, "--tol", "1e-17", "gns",
                             "--state", state)
    assert code == 1
    assert payload["expectation"] == {
        "passed": 34, "failed": 2, "max_error": float(err.max())}
    assert int((err > 1e-17).sum()) == 2
    code, payload = run_json(capsys, "--tol", str(err.max()), "gns",
                             "--state", state)
    assert code == 0 and payload["expectation"]["failed"] == 0


def test_gns_refuses_the_eigenvalue_gns_would_drop(capsys):
    # -5e-11 is below -GNS_EIG_CUTOFF: validation refuses it, since GNS
    # keeps only the eigenvalues above the cutoff and would read E(2,2) as
    # 0, not -5e-11
    code, payload = run_json(capsys, "gns", "--state",
                             "diag(1.00000000005,-0.00000000005)")
    assert code == 1
    assert payload == {"error": {"code": "validation", "message":
                                 "matrix is not positive semidefinite "
                                 "(min eigenvalue -5.000e-11)"}}


# one factor per case, with its smallest eigenvalue, Hermitian defect or
# trace defect at 0.9 and 1.1 times its bound (GNS_EIG_CUTOFF for the
# first two, DENSITY_VALIDATE_TOL for the trace), and the refusal the
# outside one gets
_BOUNDARY = {
    "eigenvalue-inside": ([[1 + 0.9e-12, 0], [0, -0.9e-12]], None),
    "eigenvalue-outside": ([[1 + 1.1e-12, 0], [0, -1.1e-12]],
                           "matrix is not positive semidefinite "
                           "(min eigenvalue -1.100e-12)"),
    "hermitian-inside": ([[0.5, 0.9e-12], [0, 0.5]], None),
    "hermitian-outside": ([[0.5, 1.1e-12], [0, 0.5]],
                          "matrix is not Hermitian (defect 1.100e-12 > "
                          "1e-12)"),
    "trace-inside": ([[0.5 + 0.9e-10, 0], [0, 0.5]], None),
    "trace-outside": ([[0.5 + 1.1e-10, 0], [0, 0.5]],
                      "trace differs from 1 by 1.100e-10 (> 1e-10)"),
}


@pytest.mark.parametrize("case", _BOUNDARY)
def test_validation_bounds_hold_at_their_values(capsys, tmp_path, case):
    # the same verdict from DensityFactor, parse_state, CLI eval and CLI
    # gns: accepted just inside each bound, where gns passes every unit
    # at the default --tol, and refused just outside it
    from uhfkron.errors import ValidationError
    from uhfkron.parser import parse_state
    from uhfkron.states import DensityFactor

    matrix, refusal = _BOUNDARY[case]
    path = tmp_path / "factor.json"
    path.write_text(json.dumps([matrix]))
    state = f"file:{path}"
    calls = [lambda: DensityFactor(matrix), lambda: parse_state(state)]
    requests = [["eval", "--state", state, "--expr", "E[2](1,1)"],
                ["gns", "--state", state]]
    if refusal is None:
        for call in calls:
            call()
        code, payload = run_json(capsys, *requests[0])
        assert code == 0 and payload["value"]["re"] == matrix[0][0]
        code, payload = run_json(capsys, *requests[1])
        assert code == 0 and payload["expectation"]["failed"] == 0
    else:
        for call in calls:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == refusal
        for argv in requests:
            code, payload = run_json(capsys, *argv)
            assert code == 1
            assert payload == {"error": {"code": "validation",
                                         "message": refusal}}


@pytest.mark.parametrize("spectrum", [
    (1 + 0.9e-12, -0.9e-12),
    (0.5, 0.5 + 0.9e-12, -0.9e-12),
], ids=["rank-1-of-2", "rank-2-of-3"])
@pytest.mark.parametrize("seed", range(3))
def test_gns_reproduces_factors_at_the_eigenvalue_bound(capsys, tmp_path,
                                                        spectrum, seed):
    # a rotated factor with smallest eigenvalue -0.9e-12 is accepted, and
    # its GNS drops that eigenvalue: each unit then reads within the
    # cutoff, so every unit passes at the default --tol
    import numpy as np

    from uhfkron.states import DensityFactor, GNS_EIG_CUTOFF

    rng = np.random.default_rng(seed)
    d = len(spectrum)
    Q, _ = np.linalg.qr(rng.standard_normal((d, d))
                        + 1j * rng.standard_normal((d, d)))
    m = (Q * np.array(spectrum)) @ Q.conj().T
    m = (m + m.conj().T) / 2
    T = DensityFactor(m)
    assert abs(np.linalg.eigvalsh(T.matrix)[0] + 0.9e-12) < 1e-15
    rows = [[[z.real, z.imag] for z in row] for row in m]
    path = tmp_path / "factor.json"
    path.write_text(json.dumps([rows]))
    state = f"file:{path}"
    err = _gns_deviations(state)
    assert 0 < err.max() <= GNS_EIG_CUTOFF
    code, payload = run_json(capsys, "gns", "--state", state)
    assert code == 0
    assert payload["expectation"] == {"passed": d * d, "failed": 0,
                                      "max_error": float(err.max())}


@pytest.mark.parametrize("state, commutant", [
    ("diag(0.5,0.5);diag(0.3,0.7);diag(0.4,0.6)", 64),
    ("diag(0.2,0.8);diag(0.1,0.3,0.6)", 36),
    ("diag(1,0,0,0);diag(1,0,0,0);diag(1,0,0,0)", 1),
    (";".join(["diag(1,0,0,0)"] * 4), 1),
    (";".join(["diag(0.5,0.5)"] * 4), 256),
    ("diag(0.2,0.3,0.5);diag(0.2,0.3,0.5)", 81),
], ids=["full-rank-2x2x2", "full-rank-2x3", "pure-4x4x4", "pure-4x4x4x4",
        "full-rank-2x2x2x2", "full-rank-3x3"])
def test_gns_commutant_within_the_guard(capsys, state, commutant):
    # D is within gns_build's guard of 4096, so a number is due
    code, payload = run_json(capsys, "gns", "--state", state)
    assert code == 0
    assert payload["commutant_dim"] == commutant
    assert payload["expectation"]["failed"] == 0


def test_gns_makes_no_element_per_unit(capsys, monkeypatch):
    # the expectations are checked one tagged chunk of units at a time, so
    # 16 and 256 units (one chunk each) make the same number of elements
    from uhfkron import algebra

    made = []
    element = algebra._element
    monkeypatch.setattr(algebra, "_element",
                        lambda *args: made.append(args) or element(*args))
    counts = []
    for state, units in (("diag(0.5,0.5);diag(0.3,0.7)", 16),
                         (";".join(["diag(0.5,0.5)"] * 4), 256)):
        made.clear()
        code, payload = run_json(capsys, "gns", "--state", state)
        assert code == 0
        assert payload["expectation"]["passed"] == units
        counts.append(len(made))
    assert counts[0] == counts[1]


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


@pytest.mark.parametrize("argv,usage", [
    (["-h"], "usage: uhfkron [-h]"),
    (["eval", "-h"], "usage: uhfkron eval [-h]"),
    (["--he"], "usage: uhfkron [-h]"),  # an abbreviation of --help
], ids=["top", "subcommand", "abbreviated"])
def test_help_is_one_strict_json_object(capsys, monkeypatch, argv, usage):
    outs = []
    for columns in ("30", "200"):  # the terminal width changes no byte
        monkeypatch.setenv("COLUMNS", columns)
        code, out = run(capsys, *argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert out.count("\n") == 1
    payload = json.loads(out, parse_constant=pytest.fail)
    assert set(payload) == {"help"}
    assert payload["help"].startswith(usage)


@pytest.mark.parametrize("argv", [
    ["coproduct", "--a", "2_0", "--b", "2", "--expr", "E[4](1,1)"],
    ["coproduct", "--a", "\u0663", "--b", "2", "--expr", "E[6](1,1)"],
    ["tensor-state", "--a", "2", "--b", "\uff12", "--T", "diag(1,0)",
     "--R", "diag(0,1)", "--expr", "E[4](1,1)"],
    ["atom-product", "--n", "2", "--m", "20", "--J", "1", "--K", "1_2"],
    ["atom-product", "--n", "2", "--m", "3", "--J", "\u0661", "--K", "1"],
    ["check", "--suite", "coassociativity", "--dims", "2,2_0,2"],
    ["check", "--suite", "coassociativity", "--dims", "2,\u0968,2"],
], ids=["underscore", "arabic-indic", "fullwidth", "label-underscore",
        "label-arabic-indic", "dims-underscore", "dims-devanagari"])
def test_integer_lists_are_ascii_decimal(capsys, argv):
    code, payload = run_json(capsys, *argv)
    text = next(arg for arg in argv if "_" in arg or not arg.isascii())
    assert code == 1
    assert payload == {"error": {
        "code": "validation",
        "message": f"expected comma-separated integers, got {text!r}"}}


@pytest.mark.parametrize("flag, argv", [
    ("--n", ["atom-product", "--n", "1_0", "--m", "3", "--J", "1", "--K",
             "1"]),
    ("--m", ["atom-product", "--n", "2", "--m", "\u0663", "--J", "1", "--K",
             "1"]),
    ("--level", ["check", "--suite", "coassociativity", "--level", "1_0"]),
    ("--seed", ["check", "--suite", "coassociativity", "--seed", "\uff10"]),
], ids=["n-underscore", "m-arabic-indic", "level-underscore",
        "seed-fullwidth"])
def test_integer_flags_are_ascii_decimal(capsys, flag, argv):
    code, payload = run_json(capsys, *argv)
    text = argv[argv.index(flag) + 1]
    assert code == 1
    assert payload == {"error": {
        "code": "usage",
        "message": f"argument {flag}: invalid int value: {text!r}"}}


def test_integer_flags_keep_signs_and_surrounding_spaces(capsys):
    pinned = run(capsys, "atom-product", "--n", "2", "--m", "3", "--J", "2",
                 "--K", "1")
    assert run(capsys, "atom-product", "--n", " +2", "--m", "3 ", "--J",
               "+2", "--K", " 1") == pinned


@pytest.mark.parametrize("a, b", [(" +2", "2 "), ("\t2", "+2"), ("02", "2")])
def test_integer_lists_keep_signs_and_surrounding_spaces(capsys, a, b):
    expr = "E[4](2,3) (x) E[4](1,4)"
    pinned = run(capsys, "coproduct", "--a", "2,2", "--b", "2,2",
                 "--expr", expr)
    assert run(capsys, "coproduct", "--a", f"{a},2", "--b", f"2,{b}",
               "--expr", expr) == pinned


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
    # a valid tolerance in the environment does not stand in for the flag
    ({"UHFKRON_TOL": "1e-9"}, ["--tol", "nan", "check", "--suite",
                               "tensor-formula", "--dims", "2,2"],
     "validation"),
    ({}, ["gns", "--state", "diag(0.5,0.6)"], "validation"),
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
    ({}, ["check", "--suite", "coassociativity", "--dims", "2,3,2",
          "--level", "0"], "validation"),
    ({}, ["check", "--suite", "nonsymmetry", "--level", "-3"], "validation"),
    ({}, ["check", "--suite", "atom-semigroup", "--dims", "0,2",
          "--level", "1"], "validation"),
    ({}, ["check", "--suite", "atom-semigroup", "--dims", "2,0",
          "--level", "1"], "validation"),
    ({}, ["check", "--suite", "atom-semigroup", "--dims=-3,2",
          "--level", "1"], "validation"),
    ({}, ["eval", "--state", "file:{huge_int}", "--expr", "E[2](1,1)"],
     "parse-error"),
    ({}, ["eval", "--state", "file:{huge_pair}", "--expr", "E[2](1,1)"],
     "parse-error"),
    ({}, ["eval", "--state", "file:{boolean}", "--expr", "E[2](1,1)"],
     "parse-error"),
])
def test_error_cases_are_one_strict_json_object(capsys, monkeypatch,
                                                tmp_path, env, argv, code):
    files = {"number": [1], "ragged": [[[1, 0], [0]]],
             # an integer past float range, bare and as a real part
             "huge_int": [[[10 ** 400, 0], [0, 0]]],
             "huge_pair": [[[[10 ** 400, 0], 0], [0, 0]]],
             "boolean": [[[True, False], [False, False]]]}
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


def test_tol_flag(capsys):
    code, payload = run_json(
        capsys, "--tol", "1e-9", "check", "--suite", "tensor-formula",
        "--dims", "2,3", "--level", "1",
    )
    assert code == 0 and payload["failed"] == 0

    code, payload = run_json(capsys, "--tol=-1e-9", "eval", "--state",
                             "diag(1,0)", "--expr", "E[2](1,1)")
    assert code == 1
    assert payload == {"error": {"code": "validation", "message":
                                 "--tol -1e-09 is not a finite number >= 0"}}

    code, payload = run_json(
        capsys, "--tol", "1e-12", "eval", "--state", "diag(1,0)",
        "--expr", "E[2](1,1)",
    )
    assert code == 0
    assert payload == {"value": {"re": 1.0, "im": 0.0}}


def test_gns_rank_and_tolerance_have_one_source(capsys, monkeypatch):
    # the rank is always taken at GNS_EIG_CUTOFF: no --cutoff option
    code, payload = run_json(capsys, "gns", "--state", "diag(0.5,0.5)",
                             "--cutoff", "1e-12")
    assert code == 1
    assert payload == {"error": {"code": "usage", "message":
                                 "unrecognized arguments: --cutoff 1e-12"}}
    # and no environment variable is read, so none can fail a request
    monkeypatch.setenv("UHFKRON_TOL", "junk")
    code, payload = run_json(capsys, "eval", "--state", "diag(1,0)",
                             "--expr", "E[2](1,1)")
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


def test_density_near_the_float_limit_prints_no_warning():
    # the trace of diag(1e308,1e308) overflows; the request reports a
    # validation error on stdout and writes nothing to stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    proc = subprocess.run(
        [sys.executable, "-m", "uhfkron", "eval", "--state",
         "diag(1e308,1e308)", "--expr", "E[2](1,1)"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": {
        "code": "validation",
        "message": "trace differs from 1 by inf (> 1e-10)"}}
    assert proc.stderr == ""


# ---------------------------------------------------------------------------
# the process entry point: main runs its one request without the cyclic
# collector and freezes the heap before exit; cli_run changes neither
# ---------------------------------------------------------------------------

def _python(*args, **options):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.Popen([sys.executable, *args],
                            env=dict(os.environ, PYTHONPATH=src), **options)


def _child_json(code: str, *argv):
    import subprocess

    proc = _python("-c", code, *argv, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0 and err == "", err
    return json.loads(out.splitlines()[-1])


def test_a_closed_pipe_ends_main_quietly():
    # the reader takes one byte of a ~150 kB term list and closes the
    # pipe: no BrokenPipeError traceback, exit code 1, nothing on stderr
    import subprocess

    expr = " + ".join(f"E[64]({i},{j})" for i in range(1, 65)
                      for j in range(1, 65))
    proc = _python("-m", "uhfkron", "coproduct", "--a", "8", "--b", "8",
                   "--expr", expr, stdout=subprocess.PIPE,
                   stderr=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_cli_run_leaves_the_collector_as_it_was():
    import gc

    before = gc.isenabled(), gc.get_freeze_count()
    assert cli_run(["eval", "--state", "diag(1,0)", "--expr", "E[2](1,1)"]) == 0
    assert cli_run(["nope"]) == 1
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_main_runs_without_the_collector_and_returns_it_enabled():
    report = _child_json(
        "import gc, json, sys\n"
        "import uhfkron.cli as cli\n"
        "real, during = cli.cli_run, []\n"
        "def spy(argv):\n"
        "    during.append(gc.isenabled())\n"
        "    return real(argv)\n"
        "cli.cli_run = spy\n"
        "sys.argv = ['uhfkron', *sys.argv[1:]]\n"
        "try:\n"
        "    cli.main()\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, during, gc.isenabled(),\n"
        "                  gc.get_freeze_count() > 0]))\n",
        "gns", "--state", "diag(0.25,0.75)")
    assert report == [0, [False], True, True]


def test_collector_off_leaves_the_same_garbage_at_every_size():
    # with the collector off, what a warmed request leaves behind (its
    # argument parser) does not grow with the request's size
    state = "diag(" + ",".join(["0.015625"] * 64) + ")"
    units = [f"E[64]({i},{j})" for i in range(1, 65) for j in range(1, 65)]
    atoms = ["check", "--suite", "atom-semigroup", "--dims", "2,2",
             "--level"]
    pairs = [
        (["eval", "--state", state, "--expr", units[0]],
         ["eval", "--state", state, "--expr", " + ".join(units[:1500])]),
        ([*atoms, "1"], [*atoms, "3"]),
        (["gns", "--state", "diag(0.25,0.75)"],
         ["gns", "--state", ";".join(["diag(0.25,0.75)"] * 5)]),
    ]
    counts = _child_json(
        "import contextlib, gc, io, json, sys\n"
        "from uhfkron.cli import cli_run\n"
        "gc.disable()\n"
        "def left(argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli_run(argv) == 0\n"
        "    return gc.collect()\n"
        "out = []\n"
        "for small, large in json.loads(sys.argv[1]):\n"
        "    left(small), left(large)\n"
        "    out.append([left(small), left(large)])\n"
        "print(json.dumps(out))\n",
        json.dumps(pairs))
    for (small, large), (argv, _) in zip(counts, pairs):
        assert small == large > 0, argv[0]
