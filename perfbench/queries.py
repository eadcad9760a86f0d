"""Run benchmark queries against certreal and extract their answers.

`execute` is the timed part: exactly the calls a user of the library or
of the CLI would make for the query.  `answer` runs afterwards, outside
the timed region, and reduces the raw result to the plain values that
`oracle.check` compares with the reference.

certreal must be importable when this module is imported; `run.py` puts
the checkout's `src/` on the path first.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction as F
from math import factorial

from certreal import approx, calculus, cli, core, integration, powerseries, sequences, series
from certreal.core import FnDescriptor


def _identity(descriptor: FnDescriptor) -> FnDescriptor:
    return descriptor


def execute(query, wrap_descriptor=_identity):
    """Make the query's calls into certreal and return the raw result.

    `wrap_descriptor` is applied to every descriptor the benchmark builds
    itself, so a traced run can count the calls to its oracles.
    """
    op, args = query.op, query.args
    if op == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args[0]))
        return code, out.getvalue(), err.getvalue()
    if op == "classify":
        family, params, horizon = args
        return series.classify(series.make_series(family, **dict(params)), horizon=horizon)
    if op == "scan":
        family, params, horizon = args
        return series.ratio_root_scan(series.make_series(family, **dict(params)), horizon)
    if op == "pattern":
        p, q, steps = args
        return series.rearrange_pattern(series.make_series("alt_harmonic"), p, q, steps)
    if op == "riemann":
        target, steps = args
        return series.rearrange_riemann(series.make_series("alt_harmonic"), target, steps)
    if op == "product":
        family, horizon, route = args
        product = series.make_product(family)
        if route == "log":
            return series.product_log_series_verdict(product, horizon)
        return series.product_converges(product, horizon)
    if op == "altsum":
        magnitude, n = args
        return series.alternating_sum_with_bound(sequences.TermStream(_MAGNITUDES[magnitude], 1), n)
    if op == "detect":
        family, mode, horizon = args
        stream = sequences.make_named(family)
        if mode == "cauchy_window":
            return sequences.detect_limit(stream, mode, horizon, eps=F(1, 10))
        bound = 2 if family == "recursive_sqrt2" else 3
        return sequences.detect_limit(stream, mode, horizon, bound=bound, monotone="increasing")
    if op == "mtest":
        r, horizon = args
        return approx.weierstrass_m_test(sequences.TermStream(lambda k: r**k, 1), horizon)
    if op == "bisect":
        fn, a, b, iterations = args
        if fn[0] == "cos":
            f = wrap_descriptor(FnDescriptor(name="cos", eval_enc=powerseries.cos_enclosure))
        else:
            f = core.poly_descriptor(fn[1])
        return calculus.bisect(calculus.Bracket(f, a, b), iterations)
    if op == "roots":
        coeffs, lo, hi, iterations = args
        return calculus.count_roots_report(core.poly_descriptor(coeffs), lo, hi, iterations)
    if op in _ENCLOSURES:
        module, name = _ENCLOSURES[op]
        return getattr(module, name)(*args)
    if op == "constants":
        return powerseries.constants(*args)
    if op == "taylor":
        tag, order, radius, x = args
        return powerseries.remainder_enclosure(powerseries.taylor_poly(tag, 0, order, radius=radius), x)
    raise ValueError(f"unknown query op {op!r}")


_MAGNITUDES = {
    "inv": lambda k: F(1, k),
    "inv_odd": lambda k: F(1, 2 * k - 1),
    "inv_sq": lambda k: F(1, k * k),
    "inv_fact": lambda k: F(1, factorial(k)),
}

# Looked up by name at call time, so a traced run sees its wrappers.
_ENCLOSURES = {
    "exp": (powerseries, "exp_enclosure"),
    "ln": (powerseries, "ln_enclosure"),
    "sin": (powerseries, "sin_enclosure"),
    "cos": (powerseries, "cos_enclosure"),
    "pi": (powerseries, "pi_enclosure"),
    "sqrt": (core, "sqrt_enclosure"),
    "nth_root": (core, "nth_root_enclosure"),
    "gamma": (integration, "gamma"),
    "harmonic": (powerseries, "harmonic_number_enclosure"),
    "euler_gamma_window": (powerseries, "euler_gamma_window"),
}


def _enc(value) -> tuple[F, F] | None:
    return None if value is None else (value.lo, value.hi)


def answer(query, raw) -> dict:
    """Plain values of a raw result: status, enclosure, and op extras."""
    op = query.op
    if op == "cli":
        code, out, err = raw
        result = {"code": code, "stderr": err.strip()[-200:]}
        if code == cli.EXIT_USAGE:
            return result
        payload = json.loads(out)
        result["status"] = payload["status"].lower()
        enclosure = payload.get("enclosure")
        if enclosure is not None:
            result["enc"] = (F(enclosure["lo_exact"]), F(enclosure["hi_exact"]))
        if "csv" in payload:
            result["rows"] = [tuple(line.split(",")) for line in payload["csv"].splitlines()[1:]]
        return result
    if op in ("classify", "product", "detect", "mtest"):
        return {"status": raw.status.value.lower(), "enc": _enc(raw.value)}
    if op == "scan":
        return {"range": raw["scan_range"], "ratio": _enc(raw["ratio_window"]),
                "root": _enc(raw["root_window"])}
    if op in ("pattern", "riemann"):
        return {"terms": len(raw.indices), "last": raw.partial_sums[-1], "flips": len(raw.flips)}
    if op == "bisect":
        return {"enc": _enc(raw.enclosure), "perturbed": raw.perturbed_midpoints}
    if op == "roots":
        return {"count": raw.count, "roots": [_enc(r) for r in raw.roots]}
    return {"enc": _enc(raw)}
