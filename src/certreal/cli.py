"""Batch command-line surface.

Subcommands wrap the library: converge (series classification), integrate
(definite and improper enclosures), constants, taylor, bernstein,
rearrange, and sample (CSV grids for external plotters).

Function specs use a deliberately small grammar: named families and
rational-coefficient polynomials only, because certified integration needs
structural metadata, not parsing power.  Reports are deterministic: JSON
output carries no timing and serializes with sorted keys, so identical
flags produce byte-identical bytes.

Exit codes: 0 decisive verdict / target met, 2 inconclusive, 1 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from certreal import approx, integration, powerseries, series
from certreal.core import (
    Certificate,
    Enclosure,
    FnDescriptor,
    MissingMetadataError,
    Status,
    _ceil_log10,
    _decimal,
    _grid,
    _grid_ends,
    _poly_table,
    _table_rows,
    decimal_string,
    poly_descriptor,
    rational_power_enclosure,
)
from certreal.integration import Comparison

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only -7 and -0.25 for negative numbers and reads
        # -1/4 or -1e-3 as an unknown option; accept every negative
        # rational that `Fraction` reads (no option here looks like one).
        self._negative_number_matcher = re.compile(
            r"^-(\d+/\d+|(\d+\.?\d*|\.\d+)(e[-+]?\d+)?)$", re.IGNORECASE
        )

    def error(self, message: str):  # argparse defaults to exit code 2
        raise UsageError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational: {text!r} ({exc})")


def _pair(flag: str, text: str, convert: Callable[[str], object], kind: str) -> tuple:
    """The two comma-separated values of a flag such as --interval A,B."""
    parts = text.split(",")
    if len(parts) == 2:
        try:
            return convert(parts[0]), convert(parts[1])
        except ValueError:  # UsageError included
            pass
    raise UsageError(f"{flag} needs two comma-separated {kind}, got {text!r}")


_TERM_RE = re.compile(
    r"(?P<sign>[+-]?)\s*(?P<coeff>\d+(?:/\d+)?|\d*\.\d+)?\s*"
    r"(?P<var>x)?(?:\^(?P<power>\d+))?"
)


def parse_polynomial(text: str) -> tuple[Fraction, ...]:
    """Parse '6x-x^2', '1/2x^3+2', ... into ascending coefficients."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise UsageError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(stripped):
        match = _TERM_RE.match(stripped, pos)
        if match is None or match.end() == pos:
            raise UsageError(f"polynomial parse error at position {pos} in {text!r}")
        sign = -1 if match.group("sign") == "-" else 1
        coeff_text = match.group("coeff")
        var = match.group("var")
        power_text = match.group("power")
        if coeff_text is None and var is None:
            raise UsageError(f"polynomial parse error at position {pos} in {text!r}")
        coeff = _fraction(coeff_text) if coeff_text else Fraction(1)
        if var is None:
            power = 0
        else:
            power = int(power_text) if power_text else 1
        coeffs[power] = coeffs.get(power, Fraction(0)) + sign * coeff
        pos = match.end()
    top = max(coeffs)
    return tuple(coeffs.get(i, Fraction(0)) for i in range(top + 1))


_STEP5 = FnDescriptor(
    name="step5",
    step_pieces=(
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(5, 4), Fraction(4)),
        (Fraction(5, 4), Fraction(5, 3), Fraction(3)),
        (Fraction(5, 3), Fraction(5, 2), Fraction(2)),
        (Fraction(5, 2), Fraction(5), Fraction(1)),
    ),
    point_values=(
        (Fraction(0), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(5, 4), Fraction(4)),
        (Fraction(5, 3), Fraction(3)),
        (Fraction(5, 2), Fraction(2)),
        (Fraction(5), Fraction(1)),
    ),
    darboux_only=True,
)


def resolve_function(spec: str) -> FnDescriptor:
    """Resolve a mini-grammar function spec to a descriptor with metadata.

    Forms: "poly:<polynomial>", "gallery:<name>[:params]" with names
    step5, dirichlet, bump, smoothstep:<a>:<b>, sawtooth[:<levels>],
    unit-step, and "x^<p>" for rational p.  The descriptor carries the
    spec's domain (`domain_lo`, `singular`) for `_check_domain` to read;
    x^-1 integrates to ln|x|.
    """
    if spec.startswith("poly:"):
        return poly_descriptor(parse_polynomial(spec[5:]), name=spec[5:])
    if spec.startswith("gallery:"):
        parts = spec.split(":")[1:]
        name = parts[0]
        if name == "step5":
            return _STEP5
        if name == "dirichlet":
            return approx.gallery("rational_indicator")
        if name == "bump":
            return approx.gallery("flat_bump")
        if name == "smoothstep":
            ends = [_fraction(part) for part in parts[1:]]
            if len(ends) != 2 or ends[0] >= ends[1]:
                raise UsageError(f"{spec!r}: use gallery:smoothstep:<a>:<b> with a < b")
            return approx.gallery("smooth_step", a=ends[0], b=ends[1])
        if name == "sawtooth":
            levels = _sawtooth_levels(spec)
            if levels is None:
                raise UsageError(f"{spec!r}: use gallery:sawtooth[:<levels>] with levels >= 0")
            return approx.gallery("sawtooth", levels=levels)
        if name == "unit-step":
            return approx.gallery("unit_step")
        raise UsageError(f"unknown gallery function {name!r}")
    exponent = _power_exponent(spec)
    if exponent is not None:
        return _power_function(exponent)
    raise UsageError(f"cannot resolve function spec {spec!r}")


def _power_exponent(spec: str) -> Optional[Fraction]:
    """p for a spec "x^<p>", else None."""
    match = re.fullmatch(r"x\^(-?\d+(?:/\d+)?)", spec)
    return _fraction(match.group(1)) if match else None


def _check_domain(spec: str, f: FnDescriptor, lo: Optional[Fraction], hi: Optional[Fraction],
                  span: str, grid: Optional[int] = None, ends: tuple = ()) -> None:
    """A usage error that quotes `spec` and `span` where [lo, hi] (None: an
    infinite end) leaves f's domain: it reaches below `f.domain_lo`, or it
    holds a singular point other than the improper `ends` (with `grid` = n:
    one of the points lo + (hi - lo)·i/n, i = 0, ..., n)."""
    bottom = f.domain_lo
    if bottom is not None and (lo is None or lo < bottom):
        raise UsageError(f"{spec} lives on [{bottom}, inf); {span} reaches below {bottom}")
    for x in f.singular:
        if x in ends or (lo is not None and x < lo) or (hi is not None and x > hi):
            continue
        if grid is None or ((x - lo) * grid / (hi - lo)).denominator == 1:
            where = span if grid is None else f"the grid of {span}"
            raise UsageError(f"{spec} is unbounded at {x}; {where} contains {x}")


def _sawtooth_levels(spec: str) -> Optional[int]:
    """The level cap of a spec "gallery:sawtooth[:<levels>]" (12 if absent), else None."""
    match = re.fullmatch(r"gallery:sawtooth(?::(\d+))?", spec)
    return (int(match.group(1)) if match.group(1) else 12) if match else None


def _power_function(exponent: Fraction) -> FnDescriptor:
    """x**exponent with its domain, antiderivative and monotone metadata.

    A negative power is unbounded at 0, and a non-integer one lives on
    [0, inf).  An integer power p is exact, with monotone pieces on either
    side of 0 read off the parity of p and the exact antiderivative
    x**(p+1)/(p+1) (ln|x| for p = -1).
    """
    singular = (Fraction(0),) if exponent < 0 else ()
    if exponent.denominator == 1:
        p = int(exponent)
        if p == -1:
            def ln_grid(n: int, m: int, d: int) -> tuple[int, int]:
                enc = powerseries.ln_enclosure(Fraction(abs(n), m), d)
                return _grid_ends(enc.lo, enc.hi, 10**d)

            anti = FnDescriptor(name="ln|x|", eval_grid=ln_grid)
        else:
            n = p + 1
            anti = FnDescriptor(name=f"x^{n}/{n}", eval_rat=lambda x: x**n / n)
        # below 0, x^p rises iff p > 0 is odd or p < 0 is even (x^0 is constant)
        left = "increasing" if (p > 0) == (p % 2 == 1) else "decreasing"
        return FnDescriptor(
            name=f"x^{p}",
            eval_rat=lambda x: x**p,
            monotone_pieces=(
                (None, Fraction(0), left),
                (Fraction(0), None, "increasing" if p > 0 else "decreasing"),
            ),
            antiderivative=anti,
            singular=singular,
        )

    # x^p and x^c/c keep enclosure oracles: a grid oracle cannot return an
    # exact value off the grid, such as 4^(3/2)/(3/2) = 16/3.
    next_e = exponent + 1
    # x^c/c at 10^-d needs x^c at 10^-(d+k), with 10^k >= |1/c|
    extra = _ceil_log10(-(-next_e.denominator // abs(next_e.numerator)))

    def anti_eval(x: Fraction, d: int) -> Enclosure:
        return rational_power_enclosure(x, next_e, d + extra).scale(1 / next_e)

    def eval_enc(x: Fraction, d: int) -> Enclosure:
        if x < 0 or (x == 0 and exponent < 0):
            raise ValueError(f"x^{exponent} is undefined at {x}")
        return Enclosure.point(0) if x == 0 else rational_power_enclosure(x, exponent, d)

    return FnDescriptor(
        name=f"x^{exponent}",
        eval_enc=eval_enc,
        monotone="increasing" if exponent > 0 else "decreasing",
        antiderivative=FnDescriptor(name=f"x^{next_e}/{next_e}", eval_enc=anti_eval),
        domain_lo=Fraction(0),
        singular=singular,
    )


def _series_from_flags(family: str, args) -> series.SeriesHandle:
    name = family.replace("-", "_")
    if name not in series._FAMILIES:
        raise UsageError(f"unknown series family {family!r}")
    values: dict = {}
    for key in series._FAMILIES[name].params:
        text = getattr(args, key)
        if text is not None:
            values[key] = _fraction(text)
        elif key == "a":  # --a defaults to --r, which is parsed first
            values[key] = values["r"]
        else:
            raise UsageError(f"{name.replace('_', '-')} needs --{key}")
    return series.make_series(name, **values)


# --- report plumbing ----------------------------------------------------------

def _enclosure_payload(enc: Enclosure, digits: int) -> dict:
    return {
        "lo": decimal_string(enc.lo, digits),
        "hi": decimal_string(enc.hi, digits),
        "lo_exact": f"{enc.lo.numerator}/{enc.lo.denominator}",
        "hi_exact": f"{enc.hi.numerator}/{enc.hi.denominator}",
    }


def _jsonable(value, digits: int):
    if isinstance(value, Enclosure):
        return _enclosure_payload(value, digits)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, Status):
        return value.value
    if isinstance(value, dict):
        return {str(k): _jsonable(v, digits) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v, digits) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return str(value)


def _certificate_payload(cert: Optional[Certificate], digits: int) -> Optional[dict]:
    """The certificate's five fields; an empty `asserted` or `detail` is left out."""
    if cert is None:
        return None
    payload = {
        "test": cert.test,
        "witnesses": _jsonable(cert.witnesses, digits),
        "machine_checked": cert.machine_checked,
    }
    if cert.asserted:
        payload["asserted"] = list(cert.asserted)
    if cert.detail:
        payload["detail"] = cert.detail
    return payload


class Report:
    """Deterministic command report; JSON omits timing by design."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.status: Optional[str] = None
        self.enclosure: Optional[Enclosure] = None
        self.certificate: Optional[Certificate] = None
        self.trace: list = []
        self.extras: dict = {}

    def payload(self, digits: int) -> dict:
        out = {
            "command": self.command,
            "inputs": _jsonable(self.inputs, digits),
            "status": self.status,
            "certificate": _certificate_payload(self.certificate, digits),
            "enclosure": None
            if self.enclosure is None
            else _enclosure_payload(self.enclosure, digits),
            "trace": _jsonable(self.trace, digits),
        }
        out.update(_jsonable(self.extras, digits))
        return out

    def render(self, json_mode: bool, digits: int, started: float) -> str:
        """JSON, or text ending in the wall time since `started`
        (a `time.perf_counter()` reading taken before the work)."""
        if json_mode:
            return json.dumps(self.payload(digits), sort_keys=True)
        lines = [f"command: {self.command}"]
        for key, value in self.inputs.items():
            lines.append(f"  {key}: {value}")
        if self.status is not None:
            lines.append(f"status: {self.status}")
        if self.enclosure is not None:
            lines.append(f"enclosure: {self.enclosure.decimal(digits)}")
        cert = _certificate_payload(self.certificate, digits)
        if cert:
            lines.append(f"certificate: {json.dumps(cert, sort_keys=True)}")
        for item in self.trace:
            lines.append(f"trace: {_jsonable(item, digits)}")
        for key, value in self.extras.items():
            lines.append(f"{key}: {_jsonable(value, digits)}")
        lines.append(f"elapsed: {time.perf_counter() - started:.3f}s")
        return "\n".join(lines)


class _CsvReport(Report):
    """Sample report: text mode prints only the CSV, for external plotters."""

    def render(self, json_mode: bool, digits: int, started: float) -> str:
        return super().render(json_mode, digits, started) if json_mode else self.extras["csv"]


def _verdict_exit(status: Status) -> int:
    return EXIT_OK if status in (Status.CONVERGES, Status.DIVERGES) else EXIT_INCONCLUSIVE


# --- subcommands ---------------------------------------------------------------

def cmd_converge(args) -> tuple[Report, int]:
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    handle = _series_from_flags(args.family, args)
    policy = tuple(args.policy.split(",")) if args.policy else series.DEFAULT_POLICY
    for name in policy:
        if name not in series._TESTS:
            raise UsageError(f"--policy names unknown test {name!r}")
    verdict = series.classify(handle, policy, args.horizon)
    report = Report(
        "converge",
        {"family": args.family, "horizon": args.horizon, "policy": ",".join(policy)},
    )
    report.status = verdict.status.value
    report.certificate = verdict.certificate
    report.enclosure = verdict.value
    report.trace = list(verdict.trace)
    first = handle.partial_sum(handle.n0)
    last = handle.partial_sum(handle.n0 + min(args.horizon, 64) - 1)
    report.extras["partial_sums"] = {"first": first, "last": last}
    return report, _verdict_exit(verdict.status)


def cmd_integrate(args) -> tuple[Report, int]:
    if args.fn.startswith("improper:"):
        args.fn = args.fn[len("improper:"):]
        args.improper = True
    f = resolve_function(args.fn)
    width = _fraction(args.width)
    if width <= 0:
        raise UsageError("--width must be positive")
    report = Report(
        "integrate",
        {"fn": args.fn, "a": args.a, "b": args.b, "width": args.width,
         "improper": bool(args.improper)},
    )
    exponent = _power_exponent(args.fn)
    power = exponent is not None
    lo = None if args.a == "-inf" else _fraction(args.a)
    hi = None if args.b == "inf" else _fraction(args.b)
    if lo is not None and hi is not None and (lo > hi or args.improper and lo == hi):
        need = "a < b for an improper integral" if args.improper else "a <= b"
        raise UsageError(f"positionals a = {args.a} and b = {args.b}: need {need}")
    _check_domain(args.fn, f, lo, hi, f"[{args.a}, {args.b}]",
                  ends=(lo, hi) if args.improper else ())
    if args.improper:
        # a finite end where f is unbounded is a singular end, outside every window
        singular_lo = lo in f.singular
        singular_hi = hi in f.singular
        comparisons = []
        if power:
            q, even = -exponent, exponent.numerator % 2 == 0  # x^p = |x|^-q if x >= 0 or even
            if (lo is None or hi is None) and q > 1:
                comparisons.append(Comparison("p_at_inf", q, from_x=lo if hi is None else -hi))
            # the minorant |x|^-q bounds an infinite end; at -inf it needs x^p >= 0
            if q <= 1 and (hi is None or (lo is None and even)):
                comparisons.append(Comparison("minorant_p_at_inf", q))
            if (singular_lo or singular_hi) and 0 < q < 1:
                comparisons.append(Comparison("p_at_zero", q))
            # the minorant t^-q at distance t from a singular end 0 needs x^p >= 0
            # beside it: below 0 only for even p
            if q >= 1 and (singular_lo or (singular_hi and even)):
                comparisons.append(Comparison("minorant_p_at_zero", q))
        spec = integration.ImproperSpec(
            f, lo, hi,
            singular_lo=singular_lo,
            singular_hi=singular_hi,
            comparisons=tuple(comparisons),
            # x^p >= 0 unless p is odd and the interval reaches below 0
            nonnegative=power and (exponent.numerator % 2 == 0 or lo is not None and lo >= 0),
        )
        verdict = integration.improper_integral(spec, width)
        report.status = verdict.status.value
        report.certificate = verdict.certificate
        report.enclosure = verdict.value
        # items are ("window", (lo, hi), enclosure) or ("error", message)
        report.trace = [
            {"window": list(item[1]), "enclosure": item[2]} if item[0] == "window"
            else {"error": item[1]}
            for item in verdict.trace
        ]
        return report, _verdict_exit(verdict.status)
    result = integration.integrate_enclosure(f, _fraction(args.a), _fraction(args.b), width)
    report.status = result.status.value
    report.enclosure = result.enclosure
    report.extras["subintervals"] = result.subintervals
    report.extras["method"] = result.method
    report.extras["outer_bounds"] = result.outer
    return report, _verdict_exit(result.status)


def cmd_constants(args) -> tuple[Report, int]:
    which = args.name.replace("-", "_")
    terms = args.terms
    if terms is not None and terms < 1:
        raise UsageError("--terms must be >= 1")
    if terms is None:
        defaults = {"e": 25, "ln2": 10**4, "pi_over_4": 10**4, "euler_gamma": 10**6}
        if which not in defaults:
            raise UsageError(f"unknown constant {args.name!r}")
        terms = defaults[which]
    enclosure = powerseries.constants(which, terms)
    report = Report("constants", {"name": args.name, "terms": terms})
    report.status = Status.CONVERGES.value
    report.enclosure = enclosure
    return report, EXIT_OK


def cmd_taylor(args) -> tuple[Report, int]:
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    radius = _fraction(args.radius)
    if radius <= 0:
        raise UsageError("--radius must be positive")
    deriv_range = None
    if args.deriv_range:
        deriv_range = _pair("--deriv-range", args.deriv_range, _fraction, "rationals")
        if deriv_range[0] > deriv_range[1]:
            raise UsageError("--deriv-range needs lo <= hi")
    tag, poly_coeffs, at, x = args.tag, None, _fraction(args.at), _fraction(args.x)
    if tag.startswith("poly:"):
        tag, poly_coeffs = "poly", parse_polynomial(tag[5:])
    elif tag == "poly":
        raise UsageError("tag 'poly' needs its polynomial: poly:<polynomial>")
    elif tag not in powerseries._TAYLOR_BOUNDS:
        known = ", ".join(t for t in powerseries._TAYLOR_BOUNDS if t != "poly")
        raise UsageError(f"unknown Taylor tag {tag!r}: use {known} or poly:<polynomial>")
    elif at != 0:
        raise UsageError(f"tag {tag!r} ships exact coefficients at --at 0 only")
    if abs(x - at) > radius:
        raise UsageError(f"--x {args.x} lies farther than --radius {args.radius} from --at {args.at}")
    approximation = powerseries.taylor_poly(
        tag, at, args.order, radius=radius, deriv_range=deriv_range, coeffs=poly_coeffs)
    enclosure = powerseries.remainder_enclosure(approximation, x)
    report = Report(
        "taylor",
        {"tag": args.tag, "order": args.order, "at": args.at, "x": args.x,
         "radius": args.radius, "deriv_range": args.deriv_range},
    )
    report.status = Status.CONVERGES.value
    report.enclosure = enclosure
    report.extras["polynomial_value"] = approximation.poly_value(x)
    return report, EXIT_OK


def cmd_bernstein(args) -> tuple[Report, int]:
    f = resolve_function(args.fn)
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    a, b = Fraction(0), Fraction(1)
    if args.interval:
        a, b = _pair("--interval", args.interval, _fraction, "rationals")
        if a >= b:
            raise UsageError("--interval needs a < b")
    _check_domain(args.fn, f, a, b, f"--interval [{a}, {b}]", grid=args.degree)  # the nodes
    op = approx.BernsteinOperator.from_function(f, args.degree, (a, b))
    report = Report("bernstein", {"fn": args.fn, "degree": args.degree, "interval": f"{a},{b}"})
    x = _fraction(args.x)
    report.status = Status.CONVERGES.value
    value = approx.bernstein_apply(op, x)
    report.extras["value"] = value
    report.enclosure = Enclosure.point(value)
    if args.bound and args.delta and args.eps:
        report.extras["error_bound"] = approx.bernstein_error_bound(
            _fraction(args.bound), _fraction(args.delta), _fraction(args.eps), args.degree
        )
    return report, EXIT_OK


def cmd_rearrange(args) -> tuple[Report, int]:
    if args.steps < 1:
        raise UsageError("--steps must be >= 1")
    handle = _series_from_flags(args.family, args)
    report = Report(
        "rearrange",
        {"family": args.family, "steps": args.steps,
         "pattern": args.pattern, "target": args.target},
    )
    if args.pattern:
        p, q = _pair("--pattern", args.pattern, int, "integers")
        if min(p, q) < 1:
            raise UsageError("--pattern counts must be >= 1")
        result = series.rearrange_pattern(handle, p, q, args.steps)
    elif args.target is not None:
        result = series.rearrange_riemann(handle, _fraction(args.target), args.steps)
        report.extras["flips"] = result.flip_count
    else:
        raise UsageError("rearrange needs --pattern P,Q or --target T")
    report.extras["last_partial_sums"] = [decimal_string(v, 12) for v in result.last_sums]
    if result.max_flip_distance is not None:
        report.extras["max_flip_distance"] = decimal_string(result.max_flip_distance, 12)
    report.status = "Converges"
    return report, EXIT_OK


def cmd_sample(args) -> tuple[Report, int]:
    f = resolve_function(args.fn)
    a, b = _fraction(getattr(args, "from")), _fraction(args.to)
    if a >= b or args.grid < 1:
        raise UsageError("need from < to and grid >= 1")
    digits = args.digits
    first, step, den = _grid(a, b, args.grid)
    xs = [first + i * step for i in range(args.grid + 1)]  # x = xs[i]/den
    _check_domain(args.fn, f, a, b, f"--from/--to [{a}, {b}]", grid=args.grid)
    if args.per_layer:
        levels = _sawtooth_levels(args.fn)
        if levels is None:
            raise UsageError("--per-layer applies to gallery:sawtooth specs only")
        layers = approx.SawtoothSeries(levels).layer_numerators
        lines = ["x,value,layer"]
        for x in xs:
            x_text = _decimal(x, den, digits)
            for level, r in enumerate(layers(x, den, levels)):
                lines.append(f"{x_text},{_decimal(r, den * 4**level, digits)},{level}")
    else:
        if f.poly_coeffs is not None:
            table, m = _poly_table(f.poly_coeffs, first, step, den)
            values = (_decimal(n, m, digits) for n in _table_rows(table))
        elif f.eval_rat is not None:
            values = (decimal_string(f.value_at(Fraction(x, den)), digits) for x in xs)
        else:
            values = (decimal_string(f.enclosure_at(Fraction(x, den), digits + 4).midpoint(),
                                     digits) for x in xs)
        lines = ["x,value", *(f"{_decimal(x, den, digits)},{v}" for x, v in zip(xs, values))]
    report = _CsvReport("sample", {"fn": args.fn, "from": str(a), "to": str(b), "grid": args.grid})
    report.status = "Converges"
    report.extras["rows"] = len(lines) - 1
    report.extras["csv"] = "\n".join(lines)
    return report, EXIT_OK


def _add_family_flags(command) -> None:
    """One flag per series family parameter, in order of first appearance."""
    for key in dict.fromkeys(k for spec in series._FAMILIES.values() for k in spec.params):
        command.add_argument("--" + key)


def build_parser() -> _Parser:
    parser = _Parser(prog="certreal", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="deterministic JSON output")
    common.add_argument("--digits", type=int, default=12, help="display digits")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    converge = sub.add_parser("converge", help="classify a series", parents=[common])
    converge.add_argument("family")
    _add_family_flags(converge)
    converge.add_argument("--horizon", type=int, default=128)
    converge.add_argument("--policy")

    integrate = sub.add_parser("integrate", parents=[common], help="integral enclosure")
    integrate.add_argument("fn")
    integrate.add_argument("a")
    integrate.add_argument("b")
    integrate.add_argument("--width", default="1e-6")
    integrate.add_argument("--improper", action="store_true")

    constants = sub.add_parser("constants", parents=[common], help="certified constants")
    constants.add_argument("name")
    constants.add_argument("--terms", type=int)

    taylor = sub.add_parser("taylor", parents=[common], help="Taylor value with certified remainder")
    taylor.add_argument("tag")
    taylor.add_argument("--order", type=int, required=True)
    taylor.add_argument("--at", default="0")
    taylor.add_argument("--x", required=True)
    taylor.add_argument("--radius", default="4")
    taylor.add_argument("--deriv-range", dest="deriv_range")

    bernstein = sub.add_parser("bernstein", parents=[common], help="Bernstein approximant value")
    bernstein.add_argument("fn")
    bernstein.add_argument("--degree", type=int, required=True)
    bernstein.add_argument("--x", required=True)
    bernstein.add_argument("--interval")
    bernstein.add_argument("--bound")
    bernstein.add_argument("--delta")
    bernstein.add_argument("--eps")

    rearrange = sub.add_parser("rearrange", parents=[common], help="rearranged series traces")
    rearrange.add_argument("family")
    rearrange.add_argument("--pattern")
    rearrange.add_argument("--target")
    rearrange.add_argument("--steps", type=int, default=9999)
    _add_family_flags(rearrange)

    sample = sub.add_parser("sample", parents=[common], help="CSV sample grid")
    sample.add_argument("fn")
    sample.add_argument("--from", dest="from", default="0")
    sample.add_argument("--to", default="1")
    sample.add_argument("--grid", type=int, default=64)
    sample.add_argument("--per-layer", dest="per_layer", action="store_true",
                        help="emit x,value,layer rows (sawtooth specs)")

    return parser


_HANDLERS = {
    "converge": cmd_converge,
    "integrate": cmd_integrate,
    "constants": cmd_constants,
    "taylor": cmd_taylor,
    "bernstein": cmd_bernstein,
    "rearrange": cmd_rearrange,
    "sample": cmd_sample,
}


_parser: Optional[_Parser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    # Exact rationals can exceed the default int->str conversion cap.
    sys.set_int_max_str_digits(2_000_000)
    if _parser is None:
        # Built on the first call, not at import, and reused: parse_args
        # keeps no state, and building costs about as much as a small query.
        _parser = build_parser()
    started = time.perf_counter()
    try:
        args = _parser.parse_args(argv)
        if args.digits < 0:
            raise UsageError("--digits must be >= 0")
        report, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingMetadataError as exc:  # the spec args.fn lacks what its command needs
        print(f"usage error: {args.fn}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(report.render(args.json, args.digits, started))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: let the flush at interpreter exit write to
        # os.devnull instead of printing a second BrokenPipeError
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
