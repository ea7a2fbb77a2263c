"""End-to-end command-line behavior: exit codes, JSON schema, rendering."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genpos.cli import main, parse_vertex_set, render_human
from genpos.graphs import FactorGraph, FactorSpec, parse_spec
from genpos.randomized import p_exact

FIG5 = "(0,1);(1,4);(2,0);(3,3);(4,6);(5,2);(6,5)"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    return code, json.loads(out), err


# ----------------------------------------------------------------------
# literals

def test_parse_vertex_set():
    assert parse_vertex_set("(0,1);(1,4)") == [(0, 1), (1, 4)]
    assert parse_vertex_set("(0); (2) ;(4)") == [(0,), (2,), (4,)]
    from genpos.cli import UsageError

    with pytest.raises(UsageError):
        parse_vertex_set("0,1;1,4")
    with pytest.raises(UsageError):
        parse_vertex_set("(a,b)")


# ----------------------------------------------------------------------
# subcommands

def test_gp_human_and_json(capsys):
    code, payload, _ = run_json(capsys, ["gp", "P5xC7"])
    assert code == 0
    assert list(payload) == ["tool_version", "command", "spec", "result", "elapsed_ms"]
    assert payload["spec"] == "P5xC7"
    assert payload["result"]["gp"] == 5
    assert payload["result"]["witness"] == [[0, 0], [1, 2], [2, 4], [3, 6], [4, 1]]
    assert payload["result"]["complete"] is True

    code, out, _ = run_cli(capsys, ["gp", "P5xC7"])
    assert code == 0
    assert "gp(P5xC7) = 5" in out
    # the human view is a pure function of the JSON payload
    assert render_human(payload) == out.rstrip("\n")


def test_check_yes_and_no(capsys):
    code, out, _ = run_cli(capsys, ["check", "C7xC7", FIG5])
    assert code == 0 and "general position: yes" in out

    code, out, _ = run_cli(capsys, ["check", "P3xP3", "(0,0);(1,1);(2,2)"])
    assert code == 1
    assert "general position: no" in out
    assert "lies between" in out

    code, payload, _ = run_json(capsys, ["check", "P3xP3", "(0,0);(1,1);(2,2)"])
    assert code == 1
    assert payload["result"]["violating_triple"] == [[1, 1], [0, 0], [2, 2]]


def test_count(capsys):
    code, payload, _ = run_json(capsys, ["count", "P2xP2"])
    assert code == 0 and payload["result"] == {"gp": 2, "count": 6}


def test_formula_subcommands(capsys):
    code, payload, _ = run_json(capsys, ["formula", "grid-count", "2", "2"])
    assert code == 0 and payload["result"]["value"] == 6

    code, payload, _ = run_json(capsys, ["formula", "cylinder", "5", "7"])
    assert code == 0 and payload["result"]["value"] == 5

    code, payload, _ = run_json(capsys, ["formula", "torus", "5", "3"])
    assert code == 0
    assert payload["result"]["lower"] is None and payload["result"]["upper"] == 7
    code, out, _ = run_cli(capsys, ["formula", "torus", "5", "3"])
    assert "not claimed" in out

    code, payload, _ = run_json(capsys, ["formula", "hamming", "3", "4"])
    assert code == 0 and payload["result"]["value"] == 5


def test_construct_subcommands(capsys):
    code, payload, _ = run_json(capsys, ["construct", "cycle", "7"])
    assert code == 0 and payload["result"]["witness"] == [[0], [2], [4]]

    code, payload, _ = run_json(capsys, ["construct", "torus7"])
    assert code == 0 and payload["result"]["size"] == 7
    assert payload["spec"] == "C7^2"

    code, payload, _ = run_json(capsys, ["construct", "cylinder", "5", "7"])
    assert payload["result"]["witness"] == [[0, 0], [1, 2], [2, 4], [3, 6], [4, 1]]

    # hypotheses violated: a domain error, not a usage error
    code, _, err = run_cli(capsys, ["construct", "torus6", "6", "4"])
    assert code == 1 and "excluded" in err


def test_probability(capsys):
    code, payload, _ = run_json(capsys, ["p", "K2"])
    assert code == 0
    assert payload["result"] == {"num": 3, "den": 4, "decimal": 0.75}
    code, payload, _ = run_json(capsys, ["p", "S2"])
    assert payload["result"]["num"] == 17 and payload["result"]["den"] == 27
    code, payload, _ = run_json(capsys, ["p", "K2^10"])
    assert payload["result"]["num"] == 3**10 and payload["result"]["den"] == 4**10


def test_probability_of_a_product_over_the_vertex_cap(capsys):
    # p multiplies factor probabilities, so 2^30 product vertices are no obstacle
    code, payload, _ = run_json(capsys, ["p", "Q30"])
    assert code == 0
    p = p_exact(FactorGraph.complete(2)) ** 30
    assert (payload["result"]["num"], payload["result"]["den"]) == (p.numerator, p.denominator)
    # products of repeated factors multiply each factor's p
    _, payload, _ = run_json(capsys, ["p", "C5xP3xC5"])
    p = p_exact(FactorGraph.cycle(5)) ** 2 * p_exact(FactorGraph.path(3))
    assert (payload["result"]["num"], payload["result"]["den"]) == (p.numerator, p.denominator)
    # the factor cap still prints
    code, out, _ = run_cli(capsys, ["p", "Q256"])
    assert code == 0 and out.startswith("p(K2^256) = ")


@pytest.mark.parametrize("spec", ["Q257", "Q7200", "Q400000", "K2^1000000000000"])
def test_probability_refuses_too_many_factors(capsys, spec):
    # more factors could give a fraction too long to print
    code, out, err = run_cli(capsys, ["p", spec, "--json"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "factors, above the limit of 256" in err


@pytest.mark.parametrize(
    "spec,shown,factors",
    [
        ("K2^10", "K2^10", [("complete", 2)] * 10),
        ("Q256", "K2^256", [("complete", 2)] * 256),
        ("P3xC5xS3", "P3xC5xS3", [("path", 3), ("cycle", 5), ("star", 3)]),
        ("C7xC7", "C7^2", [("cycle", 7)] * 2),
        ("Q200xQ56", "K2^256", [("complete", 2)] * 256),
        ("K2xK2xP3", "K2xK2xP3", [("complete", 2)] * 2 + [("path", 3)]),
        ("S1^4", "S1^4", [("star", 1)] * 4),
        ("C300^256", "C300^256", [("cycle", 300)] * 256),
        ("P3x" + "x".join(["C5"] * 255), "P3x" + "x".join(["C5"] * 255), [("path", 3)] + [("cycle", 5)] * 255),
    ],
    ids=["K2^10", "Q256", "P3xC5xS3", "C7xC7", "Q200xQ56", "K2xK2xP3", "S1^4", "C300^256", "P3xC5^255"],
)
def test_probability_is_the_product_over_every_factor(capsys, spec, shown, factors):
    # each position's factor probability, multiplied one by one
    each = {f: p_exact(getattr(FactorGraph, f[0])(f[1])) for f in set(factors)}
    p = 1
    for f in factors:
        p *= each[f]
    code, payload, _ = run_json(capsys, ["p", spec])
    assert code == 0
    assert (payload["spec"], payload["result"]["num"], payload["result"]["den"]) == (shown, p.numerator, p.denominator)


@pytest.mark.parametrize("spec", ["Q300", "K2^300", "Q300xP2", "Q200xQ57", "x".join(["C5"] * 257),
                                  "Q3000000xP2", "K2^1000000000"],
                         ids=lambda spec: spec if len(spec) < 20 else "C5x257")
def test_too_many_factors_exit_1_in_every_spelling(capsys, spec):
    code, out, err = run_cli(capsys, ["gp", spec])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert err.endswith(" factors, above the limit of 256\n")


def _refuse_factor_graphs(monkeypatch):
    monkeypatch.setattr(FactorGraph, "__init__", lambda self, *a, **k: pytest.fail("a factor graph was built"))


def test_probability_refuses_a_large_factor_before_building_it(capsys, monkeypatch):
    _refuse_factor_graphs(monkeypatch)
    for spec in ("P2000000", "K20000", "C2001", "S2000"):  # S2000 has 2001 vertices
        code, out, err = run_cli(capsys, ["p", spec])
        assert code == 1 and out == ""
        assert err == f"error: {spec} has {parse_spec(spec).vertex_count()} vertices, above the limit of 2000\n"


def test_power_sample_refuses_a_large_factor_before_building_it(capsys, monkeypatch):
    _refuse_factor_graphs(monkeypatch)
    code, out, err = run_cli(capsys, ["power-sample", "K20000", "2", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == "error: K20000 has 20000 vertices, above the limit of 2000\n"


@pytest.mark.parametrize(
    "argv,message",
    [(["gp", "K2000"], "K2000 has 2000 vertices, above the cap of 200"),
     (["gp", "K2^8", "--cap", "100"], "K2^8 has 256 vertices, above the cap of 100"),
     (["count", "K100"], "K100 has 100 vertices, above the cap of 64"),
     (["count", "C9xC9", "--cap", "80"], "C9^2 has 81 vertices, above the cap of 80")],
    ids=["gp", "gp-cap", "count", "count-cap"],
)
def test_gp_and_count_refuse_a_host_over_their_cap_before_building_it(capsys, monkeypatch, argv, message):
    # the host is built under the operation's own cap; building K2000 first
    # took 2.3 s and 447 MB (2-core VM) before the search cap refused it
    monkeypatch.setattr(FactorSpec, "build", lambda self: pytest.fail(f"built {self.token}"))
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_power_sample(capsys):
    code, payload, _ = run_json(capsys, ["power-sample", "K2", "10", "--seed", "1"])
    assert code == 0
    assert payload["seed"] == 1
    assert payload["spec"] == "K2^10"
    assert payload["result"]["M"] == 5
    assert payload["result"]["target"] == 3
    assert payload["result"]["size"] >= 1
    # reproducible across invocations
    _, payload2, _ = run_json(capsys, ["power-sample", "K2", "10", "--seed", "1"])
    assert payload2["result"]["witness"] == payload["result"]["witness"]

    code, _, err = run_cli(capsys, ["power-sample", "P3xP3", "2", "--seed", "0"])
    assert code == 2  # multi-factor argument is a usage error


@pytest.mark.parametrize("factor", ["K1", "P1"])
def test_power_sample_refuses_a_one_vertex_factor(capsys, factor):
    code, out, err = run_cli(capsys, ["power-sample", factor, "3", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == "error: the factor has one vertex, so its power has one vertex and nothing to sample\n"


def test_power_sample_refuses_an_oversized_sample(capsys):
    # choose_M gives M = 1,484,696 for C7^30; the cubic triple scan would never end
    code, out, err = run_cli(capsys, ["power-sample", "C7", "30", "--seed", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "M = 1484696 is above the cap" in err
    assert "Traceback" not in err
    # an M too long to print is still reported as over the cap
    code, out, err = run_cli(capsys, ["power-sample", "C7", "100000", "--seed", "1"])
    assert code == 1 and "is above the cap" in err
    # a huge power is refused from a logarithm, without the exact p^-n
    started = time.monotonic()
    code, out, err = run_cli(capsys, ["power-sample", "C7", "10000000", "--seed", "1"])
    assert time.monotonic() - started < 1.0
    assert code == 1 and out == ""
    assert "M = 2^6833911 or more is above the cap of 500" in err


@pytest.mark.parametrize(
    "spec,shown",
    [("P3", "3 vertices"), ("P3xC5", "15 vertices"), ("K2^2", "4 vertices"),
     ("K2^100", "2^100 or more vertices")],
)
def test_a_zero_cap_shows_a_power_of_two_bound_only_for_a_true_power(capsys, spec, shown):
    # a count of at most 64 bits is shown exactly, a longer one by its power of two
    code, out, err = run_cli(capsys, ["gp", spec, "--cap", "0"])
    assert code == 1 and out == ""
    assert err == f"error: {spec} has {shown}, above the cap of 0\n"


# ----------------------------------------------------------------------
# exit codes and budgets

def test_parse_errors_exit_2(capsys):
    assert run_cli(capsys, ["gp", "C2"])[0] == 2
    assert run_cli(capsys, ["check", "P3xP3", "0,0"])[0] == 2
    assert run_cli(capsys, ["formula", "grid-count", "two", "2"])[0] == 2


def test_domain_errors_exit_1(capsys):
    code, _, err = run_cli(capsys, ["formula", "grid-count", "1", "2"])
    assert code == 1 and "r, s >= 2" in err
    code, _, err = run_cli(capsys, ["gp", "K2^12"])  # over the search cap
    assert code == 1
    code, _, err = run_cli(capsys, ["gp", "P1^100000"])  # one vertex, too many factors
    assert code == 1 and "100000 factors, above the limit of 256" in err


def test_budget_exhaustion_is_not_failure_unless_strict(capsys):
    code, payload, _ = run_json(capsys, ["gp", "C7xC7", "--time-limit", "0.0001"])
    assert code == 0
    assert payload["result"]["complete"] is False
    assert payload["result"]["status"] == "skipped-budget"

    code, _, _ = run_cli(capsys, ["gp", "C7xC7", "--time-limit", "0.0001", "--strict"])
    assert code == 1


@pytest.mark.parametrize("value", ["-1", "-0.5", "nan", "soon"])
def test_a_negative_or_nan_time_limit_is_a_usage_error(capsys, value):
    code, out, err = run_cli(capsys, ["gp", "C9xC9", "--time-limit", value])
    assert code == 2 and out == ""
    assert "error: argument --time-limit: expected a number of seconds >= 0" in err


@pytest.mark.parametrize(
    "argv,option",
    [(["gp", "P3", "--cap", "-1"], "--cap"),
     (["power-sample", "K2", "0", "--seed", "1"], "n"),
     (["power-sample", "K2", "5", "--seed", "1", "--retries", "-1"], "--retries")],
    ids=["negative-cap", "zero-power", "negative-retries"],
)
def test_an_out_of_range_integer_is_a_usage_error(capsys, argv, option):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert f"error: argument {option}: expected an integer >= " in err
    assert "Traceback" not in err


def test_count_budget_exhaustion_exits_1(capsys):
    code, out, err = run_cli(capsys, ["count", "K4^3", "--time-limit", "0.001"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "budget exhausted" in err
    assert "Traceback" not in err


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, ["gp", "P3xP3", "--json", "--out", str(target)])
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["result"]["gp"] == 4


@pytest.mark.parametrize(
    "where,reason",
    [("missing/result.json", "No such file or directory"), ("", "Is a directory")],
    ids=["missing-directory", "directory"],
)
def test_an_unwritable_out_path_exits_1_without_a_traceback(tmp_path, capsys, where, reason):
    target = str(tmp_path / where) if where else str(tmp_path)
    code, out, err = run_cli(capsys, ["gp", "P3", "--out", target])
    assert code == 1 and out == ""
    assert err == f"error: cannot write {target}: {reason}\n"


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


# ----------------------------------------------------------------------
# verification report

@pytest.fixture(scope="module")
def quick_report():
    """Exit code and payload of one ``verify-paper --quick --json`` run,
    shared by the tests that read it: the registry takes seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify-paper", "--quick", "--json"])
    return code, json.loads(out.getvalue())


def test_verify_paper_quick(capsys, quick_report):
    code, payload = quick_report
    assert code == 0
    claims = {r["id"]: r for r in payload["result"]["claims"]}
    # every registry id exactly once
    assert len(claims) == len(payload["result"]["claims"]) == 15
    assert claims["torus-gp-7x7"]["status"] == "skipped-budget"
    assert claims["torus-gp-8x7"]["status"] == "skipped-budget"
    # --quick skips exactly the two torus searches
    skipped = {cid for cid, r in claims.items() if r["status"] == "skipped-budget"}
    assert skipped == {"torus-gp-7x7", "torus-gp-8x7"}
    assert claims["star-formula-discrepancy"]["status"] == "discrepancy-documented"
    assert claims["grid-count-formula"]["status"] == "discrepancy-documented"
    assert claims["grid-gp-values"]["status"] == "pass"
    # both deciders ran on every subset of the corpus and agreed
    assert claims["checker-equivalence"]["status"] == "pass"
    assert claims["checker-equivalence"]["computed"] == {"subsets_tested": 209230, "mismatches": 0}
    assert payload["result"]["overall"] == "pass"

    # --strict turns the skipped torus searches into a failure exit
    code2, _, _ = run_cli(capsys, ["verify-paper", "--quick", "--strict"])
    assert code2 == 1


def test_verify_paper_human_rendering_matches_payload(quick_report):
    _, payload = quick_report
    text = render_human(payload)
    for record in payload["result"]["claims"]:
        assert record["id"] in text
    assert "overall: pass" in text


# ----------------------------------------------------------------------
# module entry point

def test_python_dash_m_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "genpos", "formula", "grid-count", "2", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["value"] == 6



class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


def test_closed_stdout_exits_1_without_a_traceback(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["p", "C5"]) == 1
    # stdout now points at the null device, so the flush at exit is harmless
    assert sys.stdout.name == os.devnull
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_closed_pipe_in_a_real_process():
    proc = subprocess.Popen(
        [sys.executable, "-m", "genpos", "p", "C5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader leaves before genpos has imported
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


# ----------------------------------------------------------------------
# exit-code contract on random argv

_family = st.sampled_from("PCKSQZ")
_small_spec = st.one_of(
    st.lists(st.tuples(_family, st.integers(0, 6)), min_size=1, max_size=2).map(
        lambda fs: "x".join(f"{f}{n}" for f, n in fs)
    ),
    st.tuples(_family, st.integers(0, 3), st.integers(0, 3)).map(lambda t: f"{t[0]}{t[1]}^{t[2]}"),
    # digit-free noise, so no size is large enough to start a long build
    st.text(alphabet="PCKSQx^(),;- ", max_size=6),
)
_number = st.one_of(st.integers(-3, 30).map(str), st.sampled_from(["", "x", "1.5", "1e9"]))
_set_literal = st.one_of(
    st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=4).map(
        lambda vs: ";".join("(" + ",".join(map(str, v)) + ")" for v in vs)
    ),
    st.text(alphabet="(),;0123 ", max_size=8),
)
_flags = st.lists(
    st.one_of(
        st.just(["--json"]),
        st.just(["--strict"]),
        st.just(["--bogus"]),
        st.tuples(st.just("--cap"), _number).map(list),
    ),
    max_size=2,
).map(lambda groups: [tok for g in groups for tok in g])
# every search and count is time-limited, so no case runs long
_LIMIT = ["--time-limit", "0.5"]
_argv = st.one_of(
    st.tuples(st.sampled_from(["gp", "count", "p"]), _small_spec).map(list),
    st.tuples(st.just("check"), _small_spec, _set_literal).map(list),
    st.tuples(
        st.just("formula"),
        st.sampled_from(["grid-count", "cylinder", "torus", "hamming", "bogus"]),
        _number,
        _number,
    ).map(list),
    st.tuples(
        st.just("construct"),
        st.sampled_from(["cycle", "cylinder", "torus6", "torus7", "bogus"]),
        _number,
        _number,
    ).map(list),
    st.tuples(
        st.just("power-sample"),
        st.sampled_from(["C5", "K2", "P3", "S2", "Q2", "C2", "x"]),
        st.integers(-1, 5).map(str),
        st.sampled_from([[], ["--seed", "3"], ["--seed", "x"], ["--seed", "1", "--retries", "0"]]),
    ).map(lambda t: [t[0], t[1], t[2], *t[3]]),
    st.lists(st.sampled_from(["gp", "verify-paper", "--version", "-h", "bogus", "K3"]), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(_argv, _flags)
def test_random_argv_exits_0_1_or_2_without_a_traceback(argv, flags):
    argv = argv + flags
    if argv[:1] == ["verify-paper"]:
        argv.append("--bogus")  # stop at the parser: the registry takes seconds
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + _LIMIT)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
