import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from certreal.approx import SawtoothSeries
from certreal.cli import main, parse_polynomial, resolve_function
from fractions import Fraction as F
from conftest import fractions_built


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_polynomial():
    assert parse_polynomial("6x-x^2") == (0, 6, -1)
    assert parse_polynomial("x^2") == (0, 0, 1)
    assert parse_polynomial("1/2x^3+2") == (2, 0, 0, F(1, 2))
    assert parse_polynomial("-x") == (0, -1)
    with pytest.raises(Exception):
        parse_polynomial("sin(x)")


def test_resolve_function_specs():
    assert resolve_function("poly:x^2").value_at(3) == 9
    assert resolve_function("gallery:step5").step_pieces is not None
    assert resolve_function("x^-2").value_at(2) == F(1, 4)
    with pytest.raises(Exception):
        resolve_function("mystery:thing")


def test_converge_command(capsys):
    code, out, _ = run(capsys, "converge", "p-series", "--p", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Converges"
    assert payload["certificate"]["test"] == "p_series"


def test_integrate_command(capsys):
    code, out, _ = run(capsys, "integrate", "poly:x^2", "1", "4", "--width", "1e-3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["enclosure"]["lo_exact"] == "21/1"


def test_exit_code_contract(capsys):
    matrix = [
        (0, ["converge", "p-series", "--p", "2"]),
        (0, ["converge", "p-series", "--p", "1/2"]),
        (0, ["converge", "geometric", "--r", "1"]),
        (0, ["converge", "geometric", "--r", "2/3", "--a", "2/3"]),
        (0, ["converge", "alt-harmonic"]),
        (0, ["integrate", "poly:x^2", "1", "4", "--width", "1e-3"]),
        (0, ["integrate", "gallery:step5", "0", "5"]),
        (0, ["integrate", "x^-2", "1", "inf", "--improper"]),
        (2, ["integrate", "gallery:dirichlet", "0", "1", "--width", "1e-3"]),
        (0, ["constants", "e", "--terms", "20"]),
        (0, ["taylor", "sin", "--order", "3", "--x", "1/2"]),
        (0, ["bernstein", "poly:x^2", "--degree", "12", "--x", "1/3"]),
        (0, ["rearrange", "alt-harmonic", "--pattern", "2,1", "--steps", "99"]),
        (1, ["converge", "mystery-family"]),
        (1, ["integrate", "poly:x^2", "4", "1"]),
        (1, ["converge", "harmonic", "--horizon", "0"]),
    ]
    assert len(matrix) == 16
    for expected, argv in matrix:
        code, _, _ = run(capsys, *argv)
        assert code == expected, argv


def test_integrate_tiny_width_counts_digits_exactly(capsys):
    # 1e-400 underflows a float; the digit count must not go through one
    code, out, _ = run(capsys, "integrate", "poly:x^2", "0", "1", "--width", "1e-400", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "antiderivative"
    assert (payload["enclosure"]["lo_exact"], payload["enclosure"]["hi_exact"]) == ("1/3", "1/3")


def test_integrate_power_from_zero(capsys):
    # the antiderivative x^(3/2)/(3/2) is evaluated at the endpoint 0
    code, out, _ = run(capsys, "integrate", "x^1/2", "0", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["enclosure"]["lo_exact"], payload["enclosure"]["hi_exact"]) == ("16/3", "16/3")


def test_json_byte_identical(capsys):
    commands = [
        ["converge", "alt-harmonic", "--json"],
        ["integrate", "poly:6x-x^2", "0", "6", "--width", "1e-3", "--json"],
        ["constants", "ln2", "--terms", "1000", "--json"],
        ["taylor", "sin", "--order", "3", "--x", "1/2", "--deriv-range", "0,1", "--json"],
    ]
    for argv in commands:
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0


def test_json_round_trip(capsys):
    _, out, _ = run(capsys, "converge", "geometric", "--r", "2/3", "--json")
    payload = json.loads(out)
    assert json.loads(json.dumps(payload, sort_keys=True)) == payload
    assert payload["enclosure"]["lo_exact"] == "2/1"


def test_taylor_excludes_below_polynomial(capsys):
    code, out, _ = run(capsys, "taylor", "sin", "--order", "3", "--x", "1/2",
                       "--deriv-range", "0,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["enclosure"]["lo_exact"] == "23/48"  # 1/2 - 1/48


def test_sample_csv(capsys):
    code, out, _ = run(capsys, "sample", "gallery:sawtooth:6", "--grid", "4", "--digits", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 6
    assert lines[1] == "0.000000,0.000000"


def _reference_decimal(value, digits):
    """The Fraction `decimal_string` that the integer rendering replaced."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    whole, frac = divmod(value.numerator * 10**digits // value.denominator, 10**digits)
    return f"{sign}{whole}" if digits == 0 else f"{sign}{whole}.{str(frac).zfill(digits)}"


def _reference_sample(spec, a, b, grid, digits, per_layer=False):
    """The Fraction loop of `cmd_sample` before its grid and values went
    integer, kept as the reference for its CSV."""
    f = resolve_function(spec)
    xs = [a + (b - a) * F(i, grid) for i in range(grid + 1)]
    if per_layer:
        levels = int(spec.split(":")[2])
        series = SawtoothSeries(levels)
        return "\n".join(["x,value,layer"] + [
            f"{_reference_decimal(x, digits)},"
            f"{_reference_decimal(series.layer_value(level, x), digits)},{level}"
            for x in xs for level in range(levels + 1)])
    lines = ["x,value"]
    for x in xs:
        enc = f.enclosure_at(x, digits + 4)
        lines.append(f"{_reference_decimal(x, digits)},{_reference_decimal(enc.midpoint(), digits)}")
    return "\n".join(lines)


def _quiet(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _poly_spec(coeffs):
    return "poly:" + "".join(
        f"{'-' if c < 0 else '+'}{abs(c.numerator)}/{c.denominator}x^{i}"
        for i, c in enumerate(coeffs))


def _sample_argv(spec, a, b, grid, digits):
    return ("sample", spec, f"--from={a}", f"--to={b}", "--grid", str(grid), "--digits", str(digits))


small = st.fractions(min_value=-2, max_value=2, max_denominator=10**7)
spans = st.fractions(min_value=F(1, 10**5), max_value=3, max_denominator=10**5)
specs = st.one_of(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
             min_size=1, max_size=5).map(_poly_spec),
    st.integers(0, 10).map(lambda levels: f"gallery:sawtooth:{levels}"),
    st.tuples(small, st.fractions(min_value=F(1, 8), max_value=3, max_denominator=100)).map(
        lambda t: f"gallery:smoothstep:{t[0]}:{t[0] + t[1]}"),
    st.just("gallery:bump"),
)


@settings(deadline=None, max_examples=150)
@given(specs, small, spans, st.integers(1, 64), st.integers(0, 20))
def test_sample_csv_equals_the_fraction_loop(spec, a, span, grid, digits):
    b = a + span
    code, out = _quiet(*_sample_argv(spec, a, b, grid, digits))
    assert code == 0
    assert out == _reference_sample(spec, a, b, grid, digits) + "\n"


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 8), small, spans, st.integers(1, 32), st.integers(0, 20))
def test_sample_per_layer_equals_the_fraction_loop(levels, a, span, grid, digits):
    spec = f"gallery:sawtooth:{levels}"
    code, out = _quiet(*_sample_argv(spec, a, a + span, grid, digits), "--per-layer")
    assert code == 0
    assert out == _reference_sample(spec, a, a + span, grid, digits, per_layer=True) + "\n"


def test_sample_renders_tiny_negatives_as_minus_zero():
    a, b = F(-1, 10**11), F(1)
    code, out = _quiet(*_sample_argv("poly:x-1/1000000000", a, b, 2, 3))
    assert code == 0
    assert out.splitlines()[1] == "-0.000,-0.000"
    assert out == _reference_sample("poly:x-1/1000000000", a, b, 2, 3) + "\n"


def _fractions_built(*argv):
    _quiet(*argv)  # the parser is built on the first call
    with fractions_built() as built:
        code, _ = _quiet(*argv)
    assert code == 0
    return built.count


def test_polynomial_sample_builds_fractions_for_the_spec_only():
    # a machine-independent counter: the grid rows of a polynomial come from
    # an integer forward-difference table, so the Fractions built are those
    # of parsing the spec and its descriptor, whatever the grid size (the
    # Fraction loop built about 17 per row).  78 on Python 3.10 and 3.11;
    # 120 from 3.12 on, where Fraction-int arithmetic builds a Fraction for
    # the int as well as one for the result, so the bound follows the
    # interpreter.
    def built(grid):
        return _fractions_built(*_sample_argv("poly:1/2x^3-3/4x^2-1/8x+3/5", F(-1, 4), F(7, 4),
                                              grid, 12), "--json")

    assert built(1) == built(16) == built(512) <= (100 if sys.version_info < (3, 12) else 128)


@pytest.mark.parametrize("spec", ["gallery:sawtooth:10", "gallery:unit-step", "x^3"])
def test_exact_oracle_sample_builds_at_most_three_fractions_per_row(spec):
    def built(grid):
        return _fractions_built(*_sample_argv(spec, F(-3, 8), F(11, 8), grid, 12), "--json")

    assert built(256) - built(128) <= 3 * 128


def test_negative_digits_is_a_usage_error(capsys):
    for argv in (["sample", "poly:x^2", "--digits", "-1"],
                 ["constants", "e", "--terms", "5", "--digits", "-1"],
                 ["integrate", "poly:x^2", "0", "1", "--digits", "-3", "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "usage error: --digits must be >= 0" in err


@pytest.mark.parametrize("argv,message", [
    (["bernstein", "x^2", "--degree", "0", "--x", "1/2"], "--degree must be >= 1"),
    (["bernstein", "x^2", "--degree", "3", "--x", "1/2", "--interval", "1"],
     "--interval needs two comma-separated rationals, got '1'"),
    (["bernstein", "x^2", "--degree", "3", "--x", "1/2", "--interval", "0,a"],
     "--interval needs two comma-separated rationals, got '0,a'"),
    (["rearrange", "alt-harmonic", "--pattern", "1"],
     "--pattern needs two comma-separated integers, got '1'"),
    (["rearrange", "alt-harmonic", "--pattern", "a,b"],
     "--pattern needs two comma-separated integers, got 'a,b'"),
    (["rearrange", "alt-harmonic", "--pattern", "1,2,3"],
     "--pattern needs two comma-separated integers, got '1,2,3'"),
    (["taylor", "exp", "--order", "3", "--x", "1/2", "--deriv-range", "1"],
     "--deriv-range needs two comma-separated rationals, got '1'"),
    (["taylor", "exp", "--order", "3", "--x", "1/2", "--deriv-range", "1,2,3"],
     "--deriv-range needs two comma-separated rationals, got '1,2,3'"),
    (["taylor", "exp", "--order", "-1", "--x", "1/2"], "--order must be >= 0"),
    (["taylor", "exp", "--order", "3", "--x", "1/2", "--radius", "0"],
     "--radius must be positive"),
    (["constants", "ln2", "--terms", "0"], "--terms must be >= 1"),
    (["rearrange", "alt-harmonic", "--pattern", "2,1", "--steps", "0"],
     "--steps must be >= 1"),
    (["integrate", "poly:x^2", "0", "1", "--width", "0"], "--width must be positive"),
    (["integrate", "x^-2", "1", "inf", "--improper", "--width", "-1"],
     "--width must be positive"),
    (["rearrange", "alt-harmonic", "--pattern", "0,1"], "--pattern counts must be >= 1"),
    (["bernstein", "x^2", "--degree", "3", "--x", "1/2", "--interval", "1,0"],
     "--interval needs a < b"),
    (["taylor", "exp", "--order", "3", "--x", "1/2", "--deriv-range", "2,1"],
     "--deriv-range needs lo <= hi"),
    (["converge", "alt-harmonic", "--policy", "bogus"], "--policy names unknown test 'bogus'"),
    (["taylor", "bogus", "--order", "3", "--x", "1/2"],
     "unknown Taylor tag 'bogus': use exp, sin, cos or poly:<polynomial>"),
    (["taylor", "poly", "--order", "2", "--x", "1"],
     "tag 'poly' needs its polynomial: poly:<polynomial>"),
    (["taylor", "sin", "--order", "3", "--x", "1/2", "--at", "1"],
     "tag 'sin' ships exact coefficients at --at 0 only"),
    (["taylor", "exp", "--order", "3", "--x", "5"],
     "--x 5 lies farther than --radius 4 from --at 0"),
])
def test_malformed_flag_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


def test_rearrange_greedy_summary(capsys):
    code, out, _ = run(capsys, "rearrange", "alt-harmonic", "--target", "1/4",
                       "--steps", "500", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["flips"] > 0


def test_usage_error_message(capsys):
    code, _, err = run(capsys, "converge", "geometric")
    assert code == 1
    assert "needs --r" in err


def test_improper_without_metadata_reports_error_item(capsys):
    # the step pieces of step5 cover [0, 5] only, so the first window
    # [-1, 2] of the trace-only schedule has no metadata; its ("error",
    # message) trace item is rendered, not unpacked as a window
    code, out, _ = run(capsys, "integrate", "gallery:step5", "-1", "inf", "--improper",
                       "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "Inconclusive"
    assert payload["enclosure"] is None
    assert len(payload["trace"]) == 1
    assert "do not cover [-1, 2]" in payload["trace"][0]["error"]


def test_sawtooth_integral_is_certified(capsys):
    # the exact antiderivative: layer n adds 4^-n / 2 over [0, 1]
    code, out, _ = run(capsys, "integrate", "gallery:sawtooth:8", "0", "1", "--json")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "Converges"
    value = sum(F(1, 2 * 4**n) for n in range(9))
    assert payload["enclosure"]["lo_exact"] == payload["enclosure"]["hi_exact"] == str(value)
    # without a partner the improper form reports its trace-only windows
    code, out, _ = run(capsys, "integrate", "gallery:sawtooth:8", "0", "inf", "--improper",
                       "--json")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "Inconclusive"
    assert [item["window"] for item in payload["trace"]] == [
        ["0", str(2**j)] for j in range(1, 9)
    ]


def test_power_singular_at_zero_diverges(capsys):
    # x^p >= t^p on (0, 1] with p <= -1: a head minorant whose integral is
    # unbounded; p = -1/2 still converges, and [0, 0] is a usage error
    for fn in ("x^-2", "x^-1", "x^-3/2"):
        code, out, _ = run(capsys, "integrate", fn, "0", "1", "--improper", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "Diverges", fn
        assert payload["certificate"]["test"] == "comparison_minorant"
        assert payload["trace"] == []
    code, out, _ = run(capsys, "integrate", "x^-1/2", "0", "1", "--improper", "--json")
    assert code == 0 and json.loads(out)["status"] == "Converges"
    code, _, err = run(capsys, "integrate", "x^-2", "0", "0", "--improper")
    assert code == 1 and "need a < b for an improper integral" in err


@pytest.mark.parametrize("argv,need", [
    (["poly:x^2", "4", "1"], "a <= b"),
    (["x^-2", "1", "0"], "a <= b"),
    (["x^-2", "--improper", "--", "0", "0"], "a < b for an improper integral"),
])
def test_reversed_or_empty_span_is_a_usage_error(capsys, argv, need):
    # these printed the library's "error: need a <= b"
    code, out, err = run(capsys, "integrate", *argv)
    a, b = argv[-2:]
    assert (code, out) == (1, "")
    assert err == f"usage error: positionals a = {a} and b = {b}: need {need}\n"


def test_power_function_refuses_negative_intervals(capsys):
    # a non-integer power lives on [0, inf), and a negative power is unbounded
    # at 0: a usage error, not an internal "base must be positive" or
    # division by zero from deep inside the integral
    for argv, reason in (
        (["x^1/2", "-1", "1"], "lives on [0, inf)"),
        (["x^-1/2", "--improper", "--", "-inf", "-1"], "lives on [0, inf)"),
        (["x^-2", "-1", "1"], "unbounded at 0"),
        (["x^-3", "0", "1"], "unbounded at 0"),
        (["x^-1/2", "0", "1"], "x^-1/2 is unbounded at 0; [0, 1] contains 0"),
    ):
        code, out, err = run(capsys, "integrate", *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and reason in err, argv


@pytest.mark.parametrize("argv,message", [
    (["x^-1", "--from=-1", "--to", "1"],
     "x^-1 is unbounded at 0; the grid of --from/--to [-1, 1] contains 0"),
    (["x^-2", "--from=-1", "--to", "1"],
     "x^-2 is unbounded at 0; the grid of --from/--to [-1, 1] contains 0"),
    (["x^-1/2", "--from", "0", "--to", "1"],
     "x^-1/2 is unbounded at 0; the grid of --from/--to [0, 1] contains 0"),
    (["x^1/2", "--from=-1", "--to", "1"],
     "x^1/2 lives on [0, inf); --from/--to [-1, 1] reaches below 0"),
    (["gallery:sawtooth:abc"],
     "'gallery:sawtooth:abc': use gallery:sawtooth[:<levels>] with levels >= 0"),
    (["gallery:sawtooth:-1"],
     "'gallery:sawtooth:-1': use gallery:sawtooth[:<levels>] with levels >= 0"),
    (["gallery:smoothstep:1:0"],
     "'gallery:smoothstep:1:0': use gallery:smoothstep:<a>:<b> with a < b"),
    (["gallery:smoothstep:1"],
     "'gallery:smoothstep:1': use gallery:smoothstep:<a>:<b> with a < b"),
])
def test_sample_outside_the_domain_is_a_usage_error(capsys, argv, message):
    # not "error: Fraction(1, 0)", the library's "need a < b" or a bare int() message
    code, out, err = run(capsys, "sample", *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["x^-2", "--degree", "2"],
     "x^-2 is unbounded at 0; the grid of --interval [0, 1] contains 0"),
    (["x^-1", "--degree", "2", "--interval=-1,1"],
     "x^-1 is unbounded at 0; the grid of --interval [-1, 1] contains 0"),
    (["x^1/2", "--degree", "3", "--interval=-1,1"],
     "x^1/2 lives on [0, inf); --interval [-1, 1] reaches below 0"),
])
def test_bernstein_nodes_outside_the_domain_are_a_usage_error(capsys, argv, message):
    # the nodes a + k (b - a)/n are checked as `sample` checks its grid: the
    # first two printed "error: Fraction(1, 0)"
    code, out, err = run(capsys, "bernstein", *argv, "--x", "1/2")
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"
    # nodes that step over 0 are evaluated
    code, out, _ = run(capsys, "bernstein", "x^-1", "--degree", "3", "--x", "1/2",
                       "--interval=-1,1", "--json")
    assert code == 0 and json.loads(out)["status"] == "Converges"


def test_sample_power_at_zero(capsys):
    # x^(1/2) = 0 at 0; x^-1 is sampled where the grid steps over 0
    code, out, _ = run(capsys, "sample", "x^1/2", "--from", "0", "--to", "1", "--grid", "4",
                       "--digits", "3")
    assert code == 0
    assert out.splitlines()[:3] == ["x,value", "0.000,0.000", "0.250,0.500"]
    code, out, _ = run(capsys, "sample", "x^-1", "--from=-1", "--to", "2", "--grid", "2",
                       "--digits", "1")
    assert (code, out.splitlines()) == (0, ["x,value", "-1.0,-1.0", "0.5,2.0", "2.0,0.5"])
    with pytest.raises(ValueError, match="undefined at 0"):
        resolve_function("x^-1/2").enclosure_at(F(0), 10)


@pytest.mark.parametrize("policy,note", [
    ("cauchy_criterion", "cauchy criterion needs exact partial sums"),
    ("abs_convergence", "absolute convergence needs exact terms"),
])
def test_tests_on_enclosure_terms_are_inconclusive(capsys, policy, note):
    # p = 3/2 has irrational terms: the test declines instead of a TypeError
    code, out, _ = run(capsys, "converge", "p-series", "--p", "3/2", "--policy", policy,
                       "--horizon", "16", "--json")
    assert code == 2
    assert json.loads(out)["trace"] == [[policy, note]]


def test_readme_examples_run(capsys):
    # each `certreal` line of the README exits 0, and the Python example prints its enclosure
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"```(\w+)\n(.*?)```", readme, re.S)
    lines = [line for lang, body in blocks if lang == "sh"
             for line in body.splitlines() if line.startswith("certreal ")]
    assert len(lines) >= 10
    for line in lines:
        argv = shlex.split(line.split(" > ")[0])[1:]
        assert run(capsys, *argv)[0] == 0, line
    [example] = [body for lang, body in blocks if lang == "python"]
    exec(example, {})
    assert capsys.readouterr().out == "[35.999999500, 36.000000499]\n"


def test_even_power_diverges_at_a_singular_upper_end_zero(capsys):
    # x^p = |x|^p = t^p on [lo, 0) for an even p <= -2, with t the distance
    # to 0: the head minorant certifies divergence, also with lo = -inf.  An
    # odd power is negative there and has no minorant: its singular end is
    # undecided (trace-only windows, no certificate).  A proper integral
    # stays an error; x^2 on [-1, 0] has no singular end and converges
    for fn, lo in (("x^-2", "-1"), ("x^-4", "-1/2"), ("x^-2", "-inf")):
        code, out, _ = run(capsys, "integrate", fn, "--improper", "--json", "--", lo, "0")
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "Diverges", fn
        assert payload["certificate"]["witnesses"]["minorant"] == (
            f"1 * t^{fn[2:]} at distance t from the singular end")
    code, out, _ = run(capsys, "integrate", "x^-3", "--improper", "--json", "--", "-1", "0")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "Inconclusive"
    assert payload["certificate"] is None and payload["enclosure"] is None
    assert [item["window"] for item in payload["trace"]] == [
        ["-1", f"-1/{2**j}"] for j in range(1, 9)
    ]
    code, out, err = run(capsys, "integrate", "x^-2", "--", "-1", "0")
    assert code == 1 and out == "" and "unbounded at 0" in err
    code, out, _ = run(capsys, "integrate", "x^2", "--improper", "--json", "--", "-1", "0")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "Converges"
    assert F(payload["enclosure"]["lo_exact"]) <= F(1, 3) <= F(payload["enclosure"]["hi_exact"])


def test_reciprocal_below_zero_takes_ln_abs(capsys):
    # x^-1 is defined below 0, where its antiderivative is ln|x|: the
    # integral over [-2, -1] is -ln 2 (it was refused as "lives on [0, inf)")
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run(capsys, "integrate", "x^-1", "--json", "--", "-2", "-1")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "Converges"
    lo, hi = F(payload["enclosure"]["lo_exact"]), F(payload["enclosure"]["hi_exact"])
    with mpmath.workdps(40):
        value = F(mpmath.nstr(-mpmath.log(2), 35))
    assert lo <= value - F(1, 10**33) and value + F(1, 10**33) <= hi
    assert hi - lo <= F(1, 10**6)
    # its -inf end diverges to -inf, which no registered partner certifies
    code, out, _ = run(capsys, "integrate", "x^-1", "--improper", "--json", "--", "-inf", "-1")
    payload = json.loads(out)
    assert code == 2 and payload["status"] == "Inconclusive"
    assert payload["certificate"] is None and len(payload["trace"]) == 8


@pytest.mark.parametrize("fn", ["x^-1", "x^-3", "x^-5", "x^1", "x^3"])
@pytest.mark.parametrize("lo,hi", [("-1", "0"), ("-1/2", "0"), ("-inf", "-1"), ("-inf", "0")])
def test_no_minorant_where_the_power_is_negative(capsys, fn, lo, hi):
    # an odd power is negative below 0: a minorant c t^-q > 0 there would be
    # a false witness of divergence to +inf
    code, out, _ = run(capsys, "integrate", fn, "--improper", "--json", "--width", "1e-3",
                       "--", lo, hi)
    payload = json.loads(out)
    assert code in (0, 2), (fn, lo, hi)
    assert payload["status"] != "Diverges", (fn, lo, hi)
    certificate = payload["certificate"]
    assert certificate is None or certificate["test"] != "comparison_minorant", (fn, lo, hi)


@pytest.mark.parametrize("argv,message", [
    (["sample", "gallery:step5"],
     "gallery:step5: step5 is darboux-only; no point oracle"),
    (["bernstein", "gallery:bump", "--degree", "2", "--x", "1/2"],
     "gallery:bump: flat_bump has no exact rational oracle"),
    (["integrate", "gallery:step5", "--", "-1", "1"],
     "gallery:step5: step5: step pieces do not cover [-1, 1]"),
])
def test_missing_metadata_is_a_usage_error_that_quotes_the_spec(capsys, argv, message):
    # the spec lacks the oracle or metadata the command needs; these printed
    # the library's message behind "error: ", without the spec
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"usage error: {message}\n"


_WALK_SPECS = (
    ["poly:x^2-1", "gallery:step5", "gallery:dirichlet", "gallery:bump",
     "gallery:smoothstep:0:1", "gallery:sawtooth:4", "gallery:unit-step"]
    + [f"x^{p}" for p in ("2", "3", "-1", "-2", "-3", "1/2", "-1/2", "-3/2")]
)
_FINITE = ((F(-2), F(-1)), (F(-1), F(0)), (F(0), F(1)), (F(-1), F(1)))
_INFINITE = ((None, F(-1)), (F(1), None), (None, F(0)), (F(0), None))
# the trace-only windows of a function that does not decay, each integrated
# to 1/1000 up to [0, 256], take 8-16 s per call: they evaluate, but stay out
# of a walk that must be quick
_SLOW = {("gallery:bump", span) for span in _INFINITE} | {
    ("gallery:smoothstep:0:1", (F(0), None))}


def _walk_calls():
    """(argv, span, where, needs) for every call of the walk: `where` is
    "open" for an improper integral (a singular end is a limit), "closed"
    for a proper one, or the points a grid evaluates; `needs` names what the
    command asks of the spec beyond its domain."""
    for spec in _WALK_SPECS:
        for lo, hi in _FINITE + _INFINITE:
            if (spec, (lo, hi)) in _SLOW:
                continue
            a, b = "-inf" if lo is None else str(lo), "inf" if hi is None else str(hi)
            finite = lo is not None and hi is not None
            improper = ["integrate", spec, "--improper", "--width", "1e-3", "--", a, b]
            yield improper, (lo, hi), "open", {"pieces"} if finite else set()
            if not finite:
                continue  # a proper integral, a grid and Bernstein nodes take finite ends
            grid = [lo + (hi - lo) * i / 4 for i in range(5)]
            yield ["integrate", spec, "--width", "1e-3", "--", a, b], (lo, hi), "closed", {"pieces"}
            yield ["sample", spec, f"--from={a}", f"--to={b}", "--grid", "4"], (lo, hi), grid, {
                "point"}
            yield (["bernstein", spec, "--degree", "4", "--x", "1/2", f"--interval={a},{b}"],
                   (lo, hi), grid, {"exact"})


def _predicted_usage_error(f, span, where, needs) -> bool:
    """Whether the descriptor says the call asks for more than the spec
    offers: the span reaches below its domain, a point the call evaluates
    is singular, or the command needs an exact oracle, a point oracle or
    step pieces over the whole span, and the spec lacks it."""
    lo, hi = span
    if f.domain_lo is not None and (lo is None or lo < f.domain_lo):
        return True
    for x in f.singular:
        if where == "open":
            hit = (lo is None or lo < x) and (hi is None or x < hi)
        else:
            hit = lo <= x <= hi if where == "closed" else x in where
        if hit:
            return True
    pieces = f.step_pieces
    return ("exact" in needs and f.eval_rat is None
            or "point" in needs and f.eval_rat is None and f.eval_enc is None
            and f.eval_grid is None
            or "pieces" in needs and pieces is not None
            and not pieces[0][0] <= lo <= hi <= pieces[-1][1])


def test_domain_walk_predicts_every_usage_error(capsys):
    # every spec family over spans with 0, a negative number or inf at either
    # end, through integrate (proper and improper), sample and bernstein: a
    # call either evaluates (a verdict on stdout, nothing on stderr) or is a
    # usage error that names a flag or quotes the spec, and the descriptor's
    # domain, singular points, oracles and step pieces say which
    calls = list(_walk_calls())
    assert len(calls) == 15 * 4 * 4 + 15 * 4 - len(_SLOW)
    for argv, span, where, needs in calls:
        code, out, err = run(capsys, *argv)
        if _predicted_usage_error(resolve_function(argv[1]), span, where, needs):
            assert (code, out) == (1, ""), argv
            assert err.startswith("usage error: ") and err.count("\n") == 1, argv
            assert argv[1] in err or "--from/--to" in err or "--interval" in err, argv
        else:
            assert code in (0, 2) and out and err == "", (argv, err)


_STDLIB_ONLY_ARGVS = [
    ["integrate", "x^1/97", "1", "2", "--width", "1e-3"],  # x^p as exp(p ln x)
    ["integrate", "gallery:smoothstep:0:1", "0", "1", "--width", "1e-2"],
    ["sample", "gallery:bump"],
    ["constants", "euler-gamma"],
    ["taylor", "sin", "--order", "3", "--x", "1/2"],
    ["bernstein", "poly:x^2", "--degree", "12", "--x", "1/3"],
    ["rearrange", "alt-harmonic", "--pattern", "2,1", "--steps", "99"],
    ["converge", "p-series", "--p", "2"],
]


def test_every_subcommand_runs_on_the_standard_library_alone():
    # `python -S` leaves site-packages off the path, so an import of a
    # test-time tool (mpmath, hypothesis) on any of these paths, the lazy
    # imports included, fails here
    import os
    import subprocess

    import certreal

    env = dict(os.environ, PYTHONPATH=str(Path(certreal.__file__).resolve().parents[1]))

    def run_bare(*args):
        return subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                              env=env, timeout=120)

    if run_bare("-c", "import mpmath").returncode == 0:
        pytest.skip("mpmath imports without site-packages: the runtime is not isolated")
    for argv in _STDLIB_ONLY_ARGVS:
        done = run_bare("-m", "certreal.cli", *argv)
        assert done.returncode in (0, 2) and done.stderr == "", (argv, done.stderr)


def test_closed_stdout_ends_quietly():
    # a reader that closes at once (`certreal ... | head -0`): the report
    # cannot be written, and the exit is the verdict's, with no traceback
    import os
    import subprocess
    import sys

    import certreal

    read, write = os.pipe()
    os.close(read)
    env = dict(os.environ, PYTHONPATH=str(Path(certreal.__file__).resolve().parents[1]))
    try:
        done = subprocess.run([sys.executable, "-m", "certreal.cli", "integrate", "x^-2", "1",
                               "inf", "--improper"], stdout=write, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (0, b"")


@pytest.mark.parametrize("argv,width,square", [
    # the enclosure [lo, hi] with lo >= 0 holds v iff lo^2 <= v^2 <= hi^2
    (["x^-1/2", "0", "1"], "1e-9", F(4)),  # 2 sqrt(b)
    (["x^-1/2", "0", "3"], "1e-30", F(12)),
    (["x^-1/2", "0", "7/4"], "1e-100", F(7)),
    (["x^-3/2", "1", "inf"], "1e-9", F(4)),  # 2 a^-1/2
    (["x^-3/2", "5/2", "inf"], "1e-30", F(8, 5)),
    (["x^-3/2", "3", "inf"], "1e-100", F(4, 3)),
    (["x^-5/4", "1", "inf"], "1e-6", F(16)),  # 4
    (["x^-5/4", "1", "inf"], "1e-12", F(16)),
    (["x^-2/3", "0", "1"], "1e-6", F(9)),  # 3
])
def test_power_integrals_certify_at_tight_widths(monkeypatch, capsys, argv, width, square):
    from certreal import integration

    windows = []
    integrate = integration.integrate_enclosure
    monkeypatch.setattr(integration, "integrate_enclosure", lambda f, a, b, *args, **kwargs:
                        windows.append((a, b)) or integrate(f, a, b, *args, **kwargs))
    # the first fitting step lies beyond step 60 in each case
    code, out, _ = run(capsys, "integrate", *argv, "--improper", "--width", width, "--json")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "Converges", argv
    lo, hi = F(payload["enclosure"]["lo_exact"]), F(payload["enclosure"]["hi_exact"])
    assert 0 <= lo and lo * lo <= square <= hi * hi and hi - lo <= F(width), argv
    # one window, whose T or 1/eps has O(log(1/width)) bits: at most 700 at 1e-100
    [(a, b)] = windows
    assert (b if argv[2] == "inf" else 1 / a).numerator.bit_length() <= 700, argv


def test_integer_powers_below_zero(capsys):
    for argv, value, exact in (
        (["x^-2", "--improper", "--", "-inf", "-1"], F(1), False),
        # x^-3 < 0: the tail enters signed, as [-rest, rest]; a [0, rest]
        # tail would exclude the value
        (["x^-3", "--improper", "--", "-inf", "-1"], F(-1, 2), False),
        # proper integrals take the exact antiderivative x^(p+1)/(p+1)
        (["x^2", "-1", "1"], F(2, 3), True),
        (["x^-3", "-2", "-1"], F(-3, 8), True),
    ):
        code, out, _ = run(capsys, "integrate", "--json", *argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["status"] == "Converges"
        lo, hi = F(payload["enclosure"]["lo_exact"]), F(payload["enclosure"]["hi_exact"])
        assert lo <= value <= hi and hi - lo <= F(1, 10**6), argv
        assert (lo == hi) is exact, argv


def test_even_power_to_minus_infinity_diverges(capsys):
    # x^2 >= |x|^2 below 0 is a minorant for the -inf end; x^3 < 0 there,
    # and a minorant needs f >= 0, so it stays undecided
    code, out, _ = run(capsys, "integrate", "x^2", "--json", "--improper", "--", "-inf", "0")
    payload = json.loads(out)
    assert code == 0 and payload["status"] == "Diverges"
    assert payload["certificate"]["witnesses"]["minorant"] == "1 * x^2 for |x| >= 1"
    code, out, _ = run(capsys, "integrate", "x^3", "--json", "--improper", "--", "-inf", "0")
    assert code == 2 and json.loads(out)["status"] == "Inconclusive"
    # a minorant bounds only an infinite end: with two finite ends an even
    # power converges, at a regular or at a singular end 0 (whose head bound
    # reaches 1e-6 only after more halvings than the schedule takes); x^-0 and
    # x^-0/2 are x^0, with no singular end
    for argv, value in ((["x^2", "0", "1"], F(1, 3)), (["x^0", "0", "1"], F(1)),
                        (["x^-0", "0", "1"], F(1)), (["x^-0/2", "0", "1"], F(1)),
                        (["x^-2/3", "0", "1", "--width", "1e-3"], F(3))):
        code, out, _ = run(capsys, "integrate", "--json", "--improper", *argv)
        payload = json.loads(out)
        assert code == 0 and payload["status"] == "Converges", argv
        lo, hi = F(payload["enclosure"]["lo_exact"]), F(payload["enclosure"]["hi_exact"])
        assert lo <= value <= hi, argv


def test_negative_rational_endpoints_are_positionals(capsys):
    for a in ("-1/4", "-0.25", "-25e-2", "-2.5E-1"):
        code, out, _ = run(capsys, "integrate", "poly:x^2", a, "1", "--json")
        assert code == 0, a
        enclosure = json.loads(out)["enclosure"]
        assert enclosure["lo_exact"] == enclosure["hi_exact"] == "65/192"  # (1 + 1/64) / 3
    code, out, _ = run(capsys, "sample", "poly:x^2", "--from", "-1/2", "--to", "1/2",
                       "--grid", "2")
    assert code == 0
    assert out.splitlines()[1] == "-0.500000000000,0.250000000000"
    # what is not a rational still reads as an option
    code, _, _ = run(capsys, "integrate", "poly:x^2", "-x", "1")
    assert code == 1


def test_bump_from_its_flat_point_certifies(capsys):
    # ran over 2 min: exp(-1/x^2) near 0 summed the series of exp(1/x^2)
    code, out, _ = run(capsys, "integrate", "gallery:bump", "0", "1", "--width", "1e-3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Converges"
    assert F(payload["enclosure"]["hi_exact"]) - F(payload["enclosure"]["lo_exact"]) <= F(1, 1000)


def test_one_parser_serves_every_call(capsys, monkeypatch):
    from certreal import cli

    argvs = [
        ["integrate", "--json", "poly:x^2", "1", "4", "--width", "1e-3"],
        ["integrate", "poly:x^2", "1", "4", "--bogus"],
        ["sample", "gallery:sawtooth:6", "--grid", "4", "--digits", "6"],
        ["converge", "--json", "p-series", "--p", "2"],
    ]
    fresh = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_parser", None)  # each run builds its own parser
        fresh.append(run(capsys, *argv))
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    shared = [run(capsys, *argv) for argv in argvs]
    assert len(builds) == 1
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]


def test_import_builds_no_parser():
    import subprocess
    import sys
    from pathlib import Path

    import certreal

    # count every ArgumentParser made while the module is imported
    src = str(Path(certreal.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import argparse\n"
        "made = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counted(self, *args, **kwargs):\n"
        "    made.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counted\n"
        "import certreal.cli\n"
        "print(len(made), certreal.cli._parser)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["0", "None"]


@pytest.mark.parametrize("argv, module, name", [
    (["constants", "e"], "powerseries", "constants"),
    (["converge", "p-series", "--p", "2"], "series", "classify"),
    (["taylor", "exp", "--order", "4", "--x", "1/2"], "powerseries", "remainder_enclosure"),
    (["bernstein", "poly:x^2", "--degree", "4", "--x", "1/3"], "approx.BernsteinOperator",
     "from_function"),
])
def test_text_elapsed_counts_the_work(capsys, monkeypatch, argv, module, name):
    # a fake clock that the library call moves on by 2 s: the text report's
    # elapsed line must include it, whenever the command builds its report
    from types import SimpleNamespace

    from certreal import cli

    clock = [100.0]
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
    owner = cli
    for part in module.split("."):
        owner = getattr(owner, part)
    work = getattr(owner, name)

    def slow(*args, **kwargs):
        clock[0] += 2
        return work(*args, **kwargs)

    monkeypatch.setattr(owner, name, slow)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.splitlines()[-1] == "elapsed: 2.000s"


def test_import_footprint_leaves_out_heavy_modules():
    # importing hashlib alone raised a run's peak RSS by about 16%, and
    # every import adds to the start-up time of each CLI process
    import subprocess
    import sys
    from pathlib import Path

    import certreal

    src = str(Path(certreal.__file__).resolve().parents[1])
    heavy = ("hashlib", "_hashlib", "ssl", "subprocess", "mpmath", "hypothesis")
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "import certreal.cli\n"
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"
