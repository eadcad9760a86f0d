import json

import pytest

from certreal.cli import main, parse_polynomial, resolve_function
from fractions import Fraction as F


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
    # the first window of the trace-only schedule has no Darboux metadata;
    # its ("error", message) trace item is rendered, not unpacked as a window
    code, out, _ = run(capsys, "integrate", "gallery:sawtooth:8", "0", "inf", "--improper",
                       "--json")
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "Inconclusive"
    assert payload["enclosure"] is None
    assert len(payload["trace"]) == 1
    assert "Darboux bounds" in payload["trace"][0]["error"]


def test_power_function_refuses_negative_intervals(capsys):
    # a non-integer power and x^-1 live on [0, inf), and a negative integer
    # power is unbounded at 0: a usage error, not an internal "base must be
    # positive" or division by zero from deep inside the integral
    for argv, reason in (
        (["x^1/2", "-1", "1"], "lives on [0, inf)"),
        (["x^-1/2", "--improper", "--", "-inf", "-1"], "lives on [0, inf)"),
        (["x^-1", "-2", "-1"], "lives on [0, inf)"),
        (["x^-2", "-1", "1"], "unbounded at 0"),
        (["x^-3", "0", "1"], "unbounded at 0"),
        (["x^-2", "--improper", "--", "-inf", "0"], "unbounded at 0"),
    ):
        code, out, err = run(capsys, "integrate", *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error: ") and reason in err, argv


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
    # reaches 1e-6 only after more halvings than the schedule takes)
    for argv, value in ((["x^2", "0", "1"], F(1, 3)), (["x^0", "0", "1"], F(1)),
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
