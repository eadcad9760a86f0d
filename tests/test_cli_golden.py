"""Golden byte-identity check of the CLI's stdout.

`data/cli_golden.json` stores, for every argv below run once with `--json`
and once in text mode, the exit code and the sha256 of stdout, and the
sha256 of stderr when the run wrote any (error texts are pinned too).
Text output drops its `elapsed:` line, the only part that depends on
timing.
The argvs cover every subcommand, every `integrate` path the CLI can
reach (antiderivative, step, monotone Darboux, range rule, breakpoint
split, improper with each comparison kind the CLI builds) and `sample`
with and without `--per-layer`.  The CLI never reaches the closed-form
polynomial Darboux path (every polynomial has an exact antiderivative) or
the `exp_at_inf` comparison, so `LIBRARY` pins those through the library:
the sha256 of the result's repr.

Regenerate the data file only when an output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py
    PYTHONPATH=src python tests/test_cli_golden.py --only "json integrate x^3 1 2" ...

`--only` rewrites just the named keys and prints every other key whose
output moved; it exits non-zero if one did, and then writes nothing.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from certreal.calculus import count_roots_report
from certreal.cli import main
from certreal.core import FnDescriptor, poly_descriptor
from certreal.integration import Comparison, ImproperSpec, improper_integral, integrate_enclosure
from certreal.powerseries import exp_enclosure

DATA = Path(__file__).parent / "data" / "cli_golden.json"

ARGVS = [
    ["converge", "p-series", "--p", "2"],
    ["converge", "p-series", "--p", "1/2"],
    ["converge", "geometric", "--r", "2/3", "--a", "2/3"],
    ["converge", "geometric", "--r", "1"],
    ["converge", "alt-harmonic"],
    ["converge", "harmonic", "--horizon", "64"],
    ["converge", "newton-gregory", "--horizon", "64"],
    ["converge", "factorial-power", "--x", "1/2", "--horizon", "32"],
    ["converge", "exp-terms", "--x", "1/2", "--horizon", "32"],
    ["converge", "two-pow-over-three-pow-minus-one", "--horizon", "64"],
    ["converge", "alt-inv-square", "--policy", "abs_convergence", "--horizon", "64"],
    ["converge", "inv-square", "--policy", "cauchy_criterion,ratio", "--horizon", "64"],
    ["converge", "alt-harmonic", "--horizon", "32", "--policy",
     "comparison,limit_comparison,integral,nth_term,geometric,p_series,ratio,root,alternating"],
    ["converge", "alt-harmonic", "--policy", "bogus"],
    ["converge", "mystery-family"],
    ["converge", "p-series"],
    ["converge", "exp-terms"],
    ["converge", "factorial-power"],
    ["converge", "geometric", "--a", "1/2"],
    ["rearrange", "geometric", "--pattern", "2,1"],
    ["converge", "geometric", "--r", "oops", "--a", "worse"],
    ["converge", "p-series", "--p", "x"],
    ["converge", "custom"],
    ["integrate", "poly:x^2", "1", "4", "--width", "1e-3"],
    ["integrate", "poly:6x-x^2", "0", "6", "--width", "1e-3"],
    ["integrate", "gallery:step5", "0", "5"],
    ["integrate", "gallery:step5", "1/2", "3"],
    ["integrate", "gallery:dirichlet", "0", "1", "--width", "1e-3"],
    ["integrate", "gallery:bump", "0", "1", "--width", "1/10"],
    ["integrate", "gallery:bump", "-1", "1", "--width", "1e-3"],
    ["integrate", "gallery:smoothstep:0:1", "0", "1", "--width", "1e-2"],
    ["integrate", "gallery:smoothstep:0:1", "-1", "2", "--width", "1e-2"],
    ["integrate", "gallery:unit-step", "-1", "1", "--width", "1e-2"],
    ["integrate", "gallery:sawtooth:8", "0", "1"],
    ["integrate", "x^-1", "1", "2"],
    ["integrate", "x^1/2", "1", "4"],
    ["integrate", "x^3", "1", "2"],
    ["integrate", "x^-2", "1", "inf", "--improper"],
    ["integrate", "x^-1/2", "0", "1", "--improper", "--width", "1e-3"],
    ["integrate", "x^-1", "1", "inf", "--improper"],
    ["integrate", "improper:x^-3", "2", "inf"],
    ["integrate", "poly:x^2", "0", "inf", "--improper"],
    ["integrate", "gallery:sawtooth:8", "0", "inf", "--improper"],
    ["integrate", "x^-2", "--improper", "--", "-inf", "-1"],
    ["integrate", "x^-2", "--improper", "--", "-1", "0"],
    ["integrate", "x^-2", "0", "1", "--improper"],
    ["integrate", "x^-1", "0", "1", "--improper"],
    ["integrate", "x^-2/3", "0", "1", "--improper"],
    ["integrate", "x^-5/4", "1", "inf", "--improper"],
    ["integrate", "x^-1/2", "0", "1", "--improper", "--width", "1e-30"],
    ["integrate", "x^-3/2", "1", "inf", "--improper", "--width", "1e-100"],
    ["integrate", "x^-2", "--improper", "--", "-inf", "0"],
    ["integrate", "x^-1", "--", "-2", "-1"],
    ["integrate", "x^-1", "--improper", "--", "-inf", "-1"],
    ["integrate", "x^-1", "--improper", "--", "-1", "0"],
    ["integrate", "x^-3", "--improper", "--", "-1", "0"],
    ["integrate", "x^-1/2", "0", "1"],
    ["integrate", "poly:x^2", "4", "1"],
    ["constants", "e", "--terms", "20"],
    ["constants", "ln2", "--terms", "1000"],
    ["constants", "pi-over-4", "--terms", "1000"],
    ["constants", "euler-gamma", "--terms", "1000"],
    ["constants", "bogus"],
    ["constants", "e", "--terms", "5", "--digits", "-1"],
    ["taylor", "sin", "--order", "3", "--x", "1/2", "--deriv-range", "0,1"],
    ["taylor", "exp", "--order", "5", "--x", "1/3"],
    ["taylor", "cos", "--order", "4", "--x", "1"],
    ["taylor", "poly:x^3-2x", "--order", "2", "--at", "1", "--x", "3/2"],
    ["taylor", "bogus", "--order", "3", "--x", "1/2"],
    ["taylor", "poly", "--order", "2", "--x", "1"],
    ["taylor", "sin", "--order", "3", "--x", "1/2", "--at", "1"],
    ["taylor", "exp", "--order", "3", "--x", "5"],
    ["bernstein", "poly:x^2", "--degree", "12", "--x", "1/3"],
    ["bernstein", "poly:x^3", "--degree", "8", "--x", "1/2", "--interval", "0,2",
     "--bound", "8", "--delta", "1/10", "--eps", "1/100"],
    ["rearrange", "alt-harmonic", "--pattern", "2,1", "--steps", "99"],
    ["rearrange", "alt-harmonic", "--target", "1/4", "--steps", "500"],
    ["rearrange", "alt-harmonic"],
    ["bernstein", "x^2", "--degree", "0", "--x", "1/2"],
    ["bernstein", "x^2", "--degree", "3", "--x", "1/2", "--interval", "1"],
    ["rearrange", "alt-harmonic", "--pattern", "1"],
    ["rearrange", "alt-harmonic", "--pattern", "a,b"],
    ["sample", "gallery:sawtooth:6", "--grid", "4", "--digits", "6"],
    ["sample", "gallery:sawtooth:4", "--grid", "8", "--per-layer"],
    ["sample", "gallery:smoothstep:0:1", "--grid", "16"],
    ["sample", "poly:x^2-1", "--from=-1", "--to", "2", "--grid", "12"],
    ["sample", "gallery:dirichlet", "--grid", "4"],
    ["sample", "x^1/2", "--from", "1", "--to", "2", "--grid", "4"],
    ["sample", "gallery:bump", "--per-layer"],
    ["sample", "poly:x^2", "--digits", "-1"],
]


_EXP_NEG = FnDescriptor(
    name="e^-x",
    eval_enc=lambda x, d: exp_enclosure(-x, d),
    monotone="decreasing",
)

LIBRARY = {
    "closed-form 6x-x^2": lambda: integrate_enclosure(
        poly_descriptor([0, 6, -1]), 0, 6, F(1, 10**6), method="darboux"),
    "closed-form x^5+x+32": lambda: integrate_enclosure(
        poly_descriptor([32, 1, 0, 0, 0, 1]), -2, 1, F(1, 10**4), method="darboux"),
    "closed-form x^3-3x": lambda: integrate_enclosure(
        poly_descriptor([0, -3, 0, 1]), F(-3, 2), 2, F(1, 1000), method="darboux"),
    "darboux e^-x": lambda: integrate_enclosure(_EXP_NEG, 0, 1, F(1, 100)),
    "exp_at_inf": lambda: improper_integral(
        ImproperSpec(_EXP_NEG, F(0), None, comparisons=(Comparison("exp_at_inf", p=F(1)),),
                     nonnegative=True), F(1, 10)),
    "roots x^3-3x": lambda: count_roots_report(poly_descriptor([0, -3, 0, 1]), -3, 3, 20),
}


def _run(argv: list[str], json_mode: bool) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], "--json", *argv[1:]] if json_mode else list(argv))
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def capture(argv: list[str], json_mode: bool) -> dict:
    """Exit code and sha256 of stdout for one run of the CLI, and of stderr
    when it is not empty."""
    code, out, err = _run(argv, json_mode)
    lines = out.splitlines(keepends=True)
    kept = "".join(line for line in lines if not line.startswith("elapsed: "))
    result = {"code": code, "sha256": _sha256(kept)}
    if err:
        result["stderr"] = _sha256(err)
    return result


def _key(argv: list[str], json_mode: bool) -> str:
    return ("json " if json_mode else "text ") + " ".join(argv)


CASES = [(argv, mode) for argv in ARGVS for mode in (True, False)]


def _library_hash(name: str) -> str:
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the reprs hold integers of many digits
    try:
        text = repr(LIBRARY[name]())
    finally:
        sys.set_int_max_str_digits(previous)
    return _sha256(text)


@pytest.mark.parametrize("argv,json_mode", CASES, ids=[_key(*case) for case in CASES])
def test_cli_output_matches_golden(argv, json_mode):
    expected = json.loads(DATA.read_text())[_key(argv, json_mode)]
    assert capture(argv, json_mode) == expected


@pytest.mark.parametrize("name", sorted(LIBRARY))
def test_library_result_matches_golden(name):
    assert _library_hash(name) == json.loads(DATA.read_text())["lib " + name]


def test_golden_keys_are_exactly_the_cases():
    # a stale key, or an argv or library case added without its data, fails by name
    stored = set(json.loads(DATA.read_text()))
    expected = {_key(*case) for case in CASES} | {"lib " + name for name in LIBRARY}
    assert sorted(stored - expected) == [] and sorted(expected - stored) == []


def test_cli_certificates_share_one_shape():
    # every verdict's certificate renders the same fields, whichever module made it
    fields = {"test", "witnesses", "machine_checked", "asserted", "detail"}
    tests = set()
    for argv in ARGVS:
        _, out, _ = _run(argv, True)
        cert = json.loads(out)["certificate"] if out else None
        if cert is not None:
            assert {"test", "witnesses", "machine_checked"} <= set(cert) <= fields, argv
            tests.add(cert["test"])
    assert {"comparison_majorant", "comparison_minorant", "p_series", "abs_convergence"} <= tests


def _regenerate(only: list[str]) -> int:
    golden = {_key(argv, mode): capture(argv, mode) for argv, mode in CASES}
    golden.update({"lib " + name: _library_hash(name) for name in LIBRARY})
    if only:
        unknown = sorted(set(only) - set(golden))
        if unknown:
            print("unknown keys:", *unknown, sep="\n  ", file=sys.stderr)
            return 2
        stored = json.loads(DATA.read_text())
        moved = sorted(k for k in golden if k not in only and stored.get(k) != golden[k])
        if moved:
            print("moved outside --only:", *moved, sep="\n  ", file=sys.stderr)
            return 1
        golden = {**stored, **{k: golden[k] for k in only}}
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    cli = argparse.ArgumentParser(description="regenerate " + DATA.name)
    cli.add_argument("--only", nargs="+", default=[], metavar="KEY",
                     help="rewrite just these keys; fail if any other key moved")
    sys.exit(_regenerate(cli.parse_args().only))
