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
import re
import sys
import time
from fractions import Fraction
from typing import Optional

from certreal import approx, integration, powerseries, series
from certreal.core import (
    Enclosure,
    FnDescriptor,
    Status,
    decimal_string,
    poly_descriptor,
    rational_power_enclosure,
)

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
    step5, dirichlet, bump, smoothstep:<a>:<b>, sawtooth:<levels>,
    unit-step, and "x^<rational>" for power functions on (0, inf).
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
            if len(parts) != 3:
                raise UsageError("smoothstep needs gallery:smoothstep:<a>:<b>")
            return approx.gallery("smooth_step", a=_fraction(parts[1]), b=_fraction(parts[2]))
        if name == "sawtooth":
            levels = int(parts[1]) if len(parts) > 1 else 12
            return approx.gallery("sawtooth", levels=levels)
        if name == "unit-step":
            return approx.gallery("unit_step")
        raise UsageError(f"unknown gallery function {name!r}")
    power_match = re.fullmatch(r"x\^(-?\d+(?:/\d+)?)", spec)
    if power_match:
        exponent = _fraction(power_match.group(1))
        return _power_function(exponent)
    raise UsageError(f"cannot resolve function spec {spec!r}")


def _power_function(exponent: Fraction) -> FnDescriptor:
    """x**exponent with antiderivative and monotone metadata.

    An integer power p is exact wherever it is defined (p < 0: away from
    0), with monotone pieces on either side of 0 read off the parity of p
    and the exact antiderivative x**(p+1)/(p+1) (ln x, on (0, inf), for
    p = -1).  A non-integer power lives on [0, inf).
    """
    if exponent.denominator == 1:
        p = int(exponent)
        if p == -1:
            anti = FnDescriptor(name="ln", eval_enc=lambda x, d: powerseries.ln_enclosure(x, d))
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
        )

    next_e = exponent + 1

    def anti_eval(x: Fraction, d: int) -> Enclosure:
        return rational_power_enclosure(x, next_e, d).scale(1 / next_e)

    def eval_enc(x: Fraction, d: int) -> Enclosure:
        if x <= 0:
            raise ValueError("power functions here live on (0, inf)")
        return rational_power_enclosure(x, exponent, d)

    return FnDescriptor(
        name=f"x^{exponent}",
        eval_enc=eval_enc,
        monotone="increasing" if exponent > 0 else "decreasing",
        antiderivative=FnDescriptor(name=f"x^{next_e}/{next_e}", eval_enc=anti_eval),
    )


def _series_from_flags(family: str, args) -> series.SeriesHandle:
    name = family.replace("-", "_")
    if name == "p_series":
        if args.p is None:
            raise UsageError("p-series needs --p")
        return series.make_series("p_series", p=_fraction(args.p))
    if name == "geometric":
        if args.r is None:
            raise UsageError("geometric needs --r")
        r = _fraction(args.r)
        a = _fraction(args.a) if args.a is not None else r
        return series.make_series("geometric", a=a, r=r)
    if name in ("harmonic", "alt_harmonic", "newton_gregory", "alt_inv_square",
                "inv_square", "two_pow_over_three_pow_minus_one"):
        return series.make_series(name)
    if name in ("factorial_power", "exp_terms"):
        if args.x is None:
            raise UsageError(f"{name.replace('_', '-')} needs --x")
        return series.make_series(name, x=_fraction(args.x))
    raise UsageError(f"unknown series family {family!r}")


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


def _certificate_payload(cert, digits: int) -> Optional[dict]:
    if cert is None:
        return None
    payload = {"test": getattr(cert, "test", getattr(cert, "kind", "registered"))}
    payload["witnesses"] = _jsonable(getattr(cert, "witnesses", {}), digits)
    if hasattr(cert, "machine_checked"):
        payload["machine_checked"] = cert.machine_checked
    if getattr(cert, "asserted", ()):
        payload["asserted"] = list(cert.asserted)
    if getattr(cert, "detail", ""):
        payload["detail"] = cert.detail
    return payload


class Report:
    """Deterministic command report; JSON omits timing by design."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
        self.status: Optional[str] = None
        self.enclosure: Optional[Enclosure] = None
        self.certificate = None
        self.trace: list = []
        self.extras: dict = {}
        self.started = time.perf_counter()

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

    def render(self, json_mode: bool, digits: int) -> str:
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
        lines.append(f"elapsed: {time.perf_counter() - self.started:.3f}s")
        return "\n".join(lines)


class _CsvReport(Report):
    """Sample report: text mode prints only the CSV, for external plotters."""

    def render(self, json_mode: bool, digits: int) -> str:
        return super().render(json_mode, digits) if json_mode else self.extras["csv"]


def _verdict_exit(status: Status) -> int:
    return EXIT_OK if status in (Status.CONVERGES, Status.DIVERGES) else EXIT_INCONCLUSIVE


# --- subcommands ---------------------------------------------------------------

def cmd_converge(args) -> tuple[Report, int]:
    if args.horizon < 1:
        raise UsageError("--horizon must be at least 1")
    handle = _series_from_flags(args.family, args)
    policy = tuple(args.policy.split(",")) if args.policy else series.DEFAULT_POLICY
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
    report = Report(
        "integrate",
        {"fn": args.fn, "a": args.a, "b": args.b, "width": args.width,
         "improper": bool(args.improper)},
    )
    power = re.fullmatch(r"x\^(-?\d+(?:/\d+)?)", args.fn)
    exponent = _fraction(power.group(1)) if power else None
    lo = None if args.a == "-inf" else _fraction(args.a)
    hi = None if args.b == "inf" else _fraction(args.b)
    below = lo is None or lo < 0
    if power and below and (exponent.denominator != 1 or exponent == -1):
        raise UsageError(f"{args.fn} lives on [0, inf); [{args.a}, {args.b}] reaches below 0")
    # an improper integral's finite end at 0 is a singular end, outside every window
    at_zero = (below or (lo == 0 and not args.improper)) and (hi is None or hi >= 0)
    if power and exponent.denominator == 1 and exponent < 0 and at_zero:
        raise UsageError(f"{args.fn} is unbounded at 0; [{args.a}, {args.b}] contains 0")
    if args.improper:
        comparisons = []
        if power:
            if (lo is None or hi is None) and -exponent > 1:
                comparisons.append(
                    integration.Comparison("p_at_inf", p=-exponent, const=Fraction(1),
                                           from_x=lo if hi is None else -hi)
                )
            # the minorant |x|^p bounds an infinite end; at a -inf end it needs
            # x^p = |x|^p, which holds below 0 only for even p
            if -exponent <= 1 and (hi is None or (lo is None and exponent.numerator % 2 == 0)):
                comparisons.append(
                    integration.Comparison("minorant_p_at_inf", p=-exponent,
                                           const=Fraction(1), from_x=Fraction(1))
                )
            if lo == 0 and 0 < -exponent < 1:
                comparisons.append(
                    integration.Comparison("p_at_zero", p=-exponent, const=Fraction(1))
                )
        spec = integration.ImproperSpec(
            f, lo, hi,
            singular_lo=(lo == 0 and args.fn.startswith("x^-")),
            comparisons=tuple(comparisons),
            # x^p >= 0 unless p is odd and the interval reaches below 0
            nonnegative=power is not None and (exponent.numerator % 2 == 0 or not below),
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
    deriv_range = None
    if args.deriv_range:
        lo_text, hi_text = args.deriv_range.split(",")
        deriv_range = (_fraction(lo_text), _fraction(hi_text))
    poly_coeffs = None
    tag = args.tag
    if tag.startswith("poly:"):
        poly_coeffs = parse_polynomial(tag[5:])
        tag = "poly"
    approximation = powerseries.taylor_poly(
        tag,
        _fraction(args.at),
        args.order,
        radius=_fraction(args.radius),
        deriv_range=deriv_range,
        coeffs=poly_coeffs,
    )
    x = _fraction(args.x)
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
    interval = (Fraction(0), Fraction(1))
    if args.interval:
        a_text, b_text = args.interval.split(",")
        interval = (_fraction(a_text), _fraction(b_text))
    op = approx.BernsteinOperator.from_function(f, args.degree, interval)
    report = Report(
        "bernstein",
        {"fn": args.fn, "degree": args.degree, "interval": f"{interval[0]},{interval[1]}"},
    )
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
    handle = _series_from_flags(args.family, args)
    report = Report(
        "rearrange",
        {"family": args.family, "steps": args.steps,
         "pattern": args.pattern, "target": args.target},
    )
    if args.pattern:
        p_text, q_text = args.pattern.split(",")
        result = series.rearrange_pattern(handle, int(p_text), int(q_text), args.steps)
        report.extras["last_partial_sums"] = [
            decimal_string(v, 12) for v in result.partial_sums[-3:]
        ]
    elif args.target is not None:
        result = series.rearrange_riemann(handle, _fraction(args.target), args.steps)
        report.extras["flips"] = len(result.flips)
        report.extras["last_partial_sums"] = [
            decimal_string(v, 12) for v in result.partial_sums[-3:]
        ]
        if result.flips:
            worst = max(f.distance_to_target for f in result.flips)
            report.extras["max_flip_distance"] = decimal_string(worst, 12)
    else:
        raise UsageError("rearrange needs --pattern P,Q or --target T")
    report.status = "Converges"
    return report, EXIT_OK


def cmd_sample(args) -> tuple[Report, int]:
    f = resolve_function(args.fn)
    a, b = _fraction(getattr(args, "from")), _fraction(args.to)
    if a >= b or args.grid < 1:
        raise UsageError("need from < to and grid >= 1")
    xs = [a + (b - a) * Fraction(i, args.grid) for i in range(args.grid + 1)]
    if args.per_layer:
        match = re.fullmatch(r"gallery:sawtooth(?::(\d+))?", args.fn)
        if not match:
            raise UsageError("--per-layer applies to gallery:sawtooth specs only")
        levels = int(match.group(1)) if match.group(1) else 12
        series = approx.SawtoothSeries(levels)
        lines = ["x,value,layer"]
        for x in xs:
            for level in range(levels + 1):
                value = series.layer_value(level, x)
                lines.append(
                    f"{decimal_string(x, args.digits)},"
                    f"{decimal_string(value, args.digits)},{level}"
                )
    else:
        lines = ["x,value"]
        for x in xs:
            enc = f.enclosure_at(x, args.digits + 4)
            lines.append(
                f"{decimal_string(x, args.digits)},"
                f"{decimal_string(enc.midpoint(), args.digits)}"
            )
    report = _CsvReport("sample", {"fn": args.fn, "from": str(a), "to": str(b), "grid": args.grid})
    report.status = "Converges"
    report.extras["rows"] = len(lines) - 1
    report.extras["csv"] = "\n".join(lines)
    return report, EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="certreal", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="deterministic JSON output")
    common.add_argument("--digits", type=int, default=12, help="display digits")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    converge = sub.add_parser("converge", help="classify a series", parents=[common])
    converge.add_argument("family")
    converge.add_argument("--p")
    converge.add_argument("--r")
    converge.add_argument("--a")
    converge.add_argument("--x")
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
    rearrange.add_argument("--p")
    rearrange.add_argument("--r")
    rearrange.add_argument("--a")
    rearrange.add_argument("--x")

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
    try:
        args = _parser.parse_args(argv)
        report, code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(report.render(args.json, args.digits))
    return code


if __name__ == "__main__":
    sys.exit(main())
