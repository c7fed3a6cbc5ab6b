"""CLI contract under generated input: every invocation prints exactly one
strict-JSON object on stdout and returns 0 or 1.

Arguments are drawn per subcommand from well-formed, malformed and
out-of-range values, plus free token lists; expressions are free text over
the grammar's alphabet.  Sizes stay small enough that each run is cheap.
"""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uhfkron.checks import SUITES
from uhfkron.cli import cli_run

EXPR_ALPHABET = "E[]()0123456789,.+-*xe \n"

exprs = st.one_of(
    st.text(EXPR_ALPHABET, max_size=40),
    st.sampled_from([
        "E[2](1,1)", "E[4](2,2)-E[4](3,3)", "E[2](1,2) (x) E[3](3,1)",
        "(0.0,1.0)*E[4](1,4)", "1e400*E[4](1,1)", "E[2](3,1)",
        "(" * 300 + "E[2](1,1)" + ")" * 300, "(1.5e308,1.5e308)*E[2](1,1)",
    ]),
)
numbers = st.sampled_from(
    ["0", "1", "0.5", "0.25", "-1", "nan", "inf", "1e-12", "2", "x", ""])
diag = st.lists(numbers, min_size=1, max_size=3).map(
    lambda vs: f"diag({','.join(vs)})")
states = st.one_of(
    st.lists(diag, min_size=1, max_size=2).map(";".join),
    st.sampled_from(["diag(1,0)", "diag(0.5,0.5);diag(0,1)",
                     "diag(0.25,0.25,0.5)", "file:/no/such.json", ";", ""]),
    st.text("diag(),.01;-", max_size=12),
)
dims = st.one_of(
    st.lists(st.integers(-1, 3), min_size=0, max_size=3).map(
        lambda ds: ",".join(map(str, ds))),
    st.sampled_from(["2,2", "2,3", "2,3,2", "x", "2,,2", "99999999999,2"]),
)
levels = st.sampled_from(["-1", "0", "1", "40", "999999999999", "x"])
flag_values = st.sampled_from(["1e-12", "0", "-1", "nan", "inf", "1e-9", "x"])


def _argv(*pairs):
    out = []
    for flag, value in pairs:
        if value is not None:
            out += [flag, value]
    return out


def _maybe(strategy):
    return st.one_of(st.none(), strategy)


subcommands = st.one_of(
    st.tuples(st.just("eval"), _maybe(states), _maybe(exprs)).map(
        lambda t: [t[0]] + _argv(("--state", t[1]), ("--expr", t[2]))),
    st.tuples(st.just("coproduct"), dims, dims, exprs).map(
        lambda t: [t[0]] + _argv(("--a", t[1]), ("--b", t[2]),
                                 ("--expr", t[3]))),
    st.tuples(st.just("tensor-state"), dims, dims, states, states,
              exprs).map(
        lambda t: [t[0]] + _argv(("--a", t[1]), ("--b", t[2]),
                                 ("--T", t[3]), ("--R", t[4]),
                                 ("--expr", t[5]))),
    st.tuples(st.sampled_from(["boxtimes", "distance"]), states,
              states).map(
        lambda t: [t[0]] + _argv(("--T", t[1]), ("--R", t[2]))),
    st.tuples(st.just("atom-product"), st.sampled_from(["1", "2", "3", "x"]),
              st.sampled_from(["2", "3"]), dims, dims).map(
        lambda t: [t[0]] + _argv(("--n", t[1]), ("--m", t[2]),
                                 ("--J", t[3]), ("--K", t[4]))),
    st.tuples(st.just("gns"), states).map(
        lambda t: [t[0]] + _argv(("--state", t[1]))),
    st.tuples(st.just("check"),
              st.sampled_from(sorted(SUITES) + ["nope"]),
              _maybe(dims), levels,
              _maybe(st.sampled_from(["0", "3", "-1", "x"]))).map(
        lambda t: [t[0]] + _argv(("--suite", t[1]), ("--dims", t[2]),
                                 ("--level", t[3]), ("--seed", t[4]))),
    # free tokens; '-h'/'--h...' would ask argparse for the help text
    st.lists(st.text("abcdehklnrstuv-=,. 0123456789", max_size=10).filter(
        lambda tok: not tok.startswith(("-h", "--h"))), max_size=4),
)
argvs = st.tuples(_maybe(flag_values), subcommands).map(
    lambda t: _argv(("--tol", t[0])) + t[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs)
def test_cli_prints_one_strict_json_object(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli_run(argv)
    out = buffer.getvalue()
    assert code in (0, 1), argv
    assert out.endswith("\n") and out.count("\n") == 1, argv
    payload = json.loads(out, parse_constant=pytest.fail)
    assert isinstance(payload, dict), argv
    if code == 1 and "error" in payload:
        assert set(payload) == {"error"}
        assert set(payload["error"]) == {"code", "message"}
