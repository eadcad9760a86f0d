"""Independent reference answers for benchmark queries.

This module never imports certreal.  Expected values come from mpmath
(computed at twice the requested digits plus a margin) or from exact
Fraction arithmetic written out here from the mathematical definitions.
Each reference carries its own error bound, and an enclosure passes when
the reference widened by that error meets it.

`check(query, answer)` returns (verdict, detail) with verdict one of

- "ok": the answer is right and, where a width was requested, meets it;
- "uncertified": Inconclusive although the answer is certifiable;
- "width_missed": a certified enclosure wider than requested;
- "wrong": an enclosure that misses the reference, or a decisive verdict
  that contradicts it.  That is a correctness failure, not a slow answer.
"""

from __future__ import annotations

from fractions import Fraction as F

import mpmath

OK, UNCERTIFIED, WIDTH_MISSED, WRONG = "ok", "uncertified", "width_missed", "wrong"


class Ref:
    """A reference value with an absolute error bound, both exact rationals."""

    def __init__(self, value, err=F(0)):
        self.value = _frac(value) if isinstance(value, mpmath.mpf) else F(value)
        self.err = F(err)

    def met_by(self, enc) -> bool:
        lo, hi = enc
        return lo - self.err <= self.value <= hi + self.err


def _frac(x: mpmath.mpf) -> F:
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"non-finite reference value {x}")
    value = F(man) * F(2) ** exp
    return -value if sign else value


def _mp(fn, dps: int) -> Ref:
    """Evaluate fn() at `dps` digits; the error bound is ten units in the
    last place that mpmath guarantees, relative to the value."""
    with mpmath.workdps(dps):
        value = mpmath.mpf(fn())
    return Ref(value, (abs(_frac(value)) + 1) * F(1, 10 ** (dps - 5)))


def _quad(f, points, dps: int) -> Ref:
    with mpmath.workdps(dps):
        value, err = mpmath.quad(f, [mpmath.mpf(p.numerator) / p.denominator for p in points],
                                 error=True)
    return Ref(value, 10 * _frac(mpmath.mpf(err)) + F(1, 10 ** (dps - 5)))


def _digits(width: F) -> int:
    """Smallest d with 10**-d <= width."""
    d = 0
    while F(1, 10**d) > width:
        d += 1
    return d


def _mpq(q: F):
    return mpmath.mpf(q.numerator) / q.denominator


# --- functions named in the CLI function specs -------------------------------

_STEP5 = ((F(0), F(1), F(1)), (F(1), F(5, 4), F(4)), (F(5, 4), F(5, 3), F(3)),
          (F(5, 3), F(5, 2), F(2)), (F(5, 2), F(5), F(1)))


def _poly_value(coeffs, x: F) -> F:
    return sum((c * x**i for i, c in enumerate(coeffs)), F(0))


def _sawtooth_value(levels: int, x: F) -> F:
    total = F(0)
    for n in range(levels + 1):
        m = F(1, 4**n)
        t = x % (2 * m)
        total += min(t, 2 * m - t)
    return total


def _sawtooth_integral(levels: int, a: F, b: F) -> F:
    def layer_area(m: F, x: F) -> F:
        # area under the triangle wave of period 2m and height m on [0, x]
        periods, t = divmod(x, 2 * m)
        part = t * t / 2 if t <= m else m * m - (2 * m - t) ** 2 / 2
        return periods * m * m + part

    return sum((layer_area(F(1, 4**n), b) - layer_area(F(1, 4**n), a)
                for n in range(levels + 1)), F(0))


def _smoothstep(lo: F, hi: F):
    lo_mp, hi_mp = _mpq(lo), _mpq(hi)

    def f(x):
        if x <= lo_mp:
            return mpmath.mpf(0)
        if x >= hi_mp:
            return mpmath.mpf(1)
        rise, fall = mpmath.exp(-1 / (x - lo_mp)), mpmath.exp(-1 / (hi_mp - x))
        return rise / (rise + fall)

    return f


def _bump(x):
    return mpmath.mpf(0) if x == 0 else mpmath.exp(-1 / (x * x))


def _point_value(fn: tuple, x: F, dps: int) -> Ref:
    kind = fn[0]
    if kind == "poly":
        return Ref(_poly_value(fn[1], x))
    if kind == "sawtooth":
        return Ref(_sawtooth_value(fn[1], x))
    if kind == "smoothstep":
        return _mp(lambda: _smoothstep(fn[1], fn[2])(_mpq(x)), dps)
    if kind == "bump":
        return _mp(lambda: _bump(_mpq(x)), dps)
    raise ValueError(f"no point reference for {kind}")


def _integral(fn: tuple, a: F, b: F, dps: int):
    """Reference for the integral over [a, b], or None if none exists."""
    kind = fn[0]
    if kind == "poly":
        return Ref(sum((c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                        for i, c in enumerate(fn[1])), F(0)))
    if kind == "power":
        p = fn[1]
        if p == -1:
            return _mp(lambda: mpmath.log(_mpq(b) / _mpq(a)), dps)
        return _mp(lambda: (mpmath.power(_mpq(b), _mpq(p + 1))
                            - mpmath.power(_mpq(a), _mpq(p + 1))) / _mpq(p + 1), dps)
    if kind == "unit_step":
        return Ref(max(F(0), b - max(a, F(0))))
    if kind == "step5":
        return Ref(sum((c * max(F(0), min(hi, b) - max(lo, a)) for lo, hi, c in _STEP5), F(0)))
    if kind == "sawtooth":
        return Ref(_sawtooth_integral(fn[1], a, b))
    if kind == "smoothstep":
        cuts = sorted({a, b} | {p for p in fn[1:] if a < p < b})
        return _quad(_smoothstep(fn[1], fn[2]), cuts, dps)
    if kind == "bump":
        return _quad(_bump, sorted({a, b} | ({F(0)} if a < 0 < b else set())), dps)
    if kind == "dirichlet":
        return None  # not Riemann integrable: no certified value exists
    raise ValueError(f"no integral reference for {kind}")


def _improper(fn: tuple, a: F, b):
    """(status, reference) for x^p on [a, inf) or (0, b]."""
    p = fn[1]
    dps = 40
    if b is None:
        if p >= -1:
            return "diverges", None
        return "converges", _mp(lambda: mpmath.power(_mpq(a), _mpq(p + 1)) / _mpq(-(p + 1)), dps)
    if p <= -1:
        return "diverges", None
    return "converges", _mp(lambda: mpmath.power(_mpq(b), _mpq(p + 1)) / _mpq(p + 1), dps)


def _check_enclosure(ans: dict, ref: Ref, width=None):
    enc = ans.get("enc")
    if enc is None:
        return WRONG, "no enclosure returned"
    if not ref.met_by(enc):
        return WRONG, f"enclosure [{float(enc[0])}, {float(enc[1])}] misses reference {float(ref.value)}"
    if width is not None and enc[1] - enc[0] > width:
        return WIDTH_MISSED, f"width {float(enc[1] - enc[0]):.3e} > {float(width):.3e}"
    return OK, ""


def _check_status(status: str, expected: str):
    if status == "inconclusive" and expected != "inconclusive":
        return UNCERTIFIED, f"Inconclusive; expected {expected}"
    if status != expected:
        return WRONG, f"status {status}; expected {expected}"
    return OK, ""


def _check_cli(query, ans: dict):
    _argv, fn, task = query.args
    if task[0] == "sample":
        return _check_sample(fn, task, ans)
    status = ans["status"]
    if task[0] == "improper":
        _, a, b, width = task
        expected, ref = _improper(fn, a, b)
        verdict = _check_status(status, expected)
        if verdict[0] != OK or ref is None:
            return verdict
        return _check_enclosure(ans, ref, width)
    _, a, b, width = task
    ref = _integral(fn, a, b, max(30, 2 * _digits(width) + 10))
    if ref is None:
        return _check_status(status, "inconclusive")
    if status == "inconclusive":
        if "enc" in ans and not ref.met_by(ans["enc"]):
            return WRONG, "Inconclusive enclosure misses the reference"
        return UNCERTIFIED, "Inconclusive; the integral is certifiable"
    return _check_enclosure(ans, ref, width)


def _check_sample(fn: tuple, task: tuple, ans: dict):
    _, a, b, grid, digits = task
    rows = ans.get("rows", [])
    if len(rows) != grid + 1:
        return WRONG, f"{len(rows)} rows; expected {grid + 1}"
    tolerance = F(2, 10**digits)
    for i, (_x_text, value_text) in enumerate(rows):
        x = a + (b - a) * F(i, grid)
        ref = _point_value(fn, x, 40)
        if abs(F(value_text) - ref.value) > tolerance + ref.err:
            return WRONG, f"row {i}: {value_text} vs reference {float(ref.value)}"
    return OK, ""


# --- series and sequences -----------------------------------------------------

def _series_truth(family: str, params: dict):
    """(status, reference or None) for a named series family."""
    dps = 40
    if family == "geometric":
        a, r = params["a"], params["r"]
        if abs(r) < 1:
            return "converges", Ref(a / (1 - r))
        return ("converges", Ref(0)) if a == 0 else ("diverges", None)
    if family == "p_series":
        p = params["p"]
        if p > 1:
            return "converges", _mp(lambda: mpmath.zeta(_mpq(p)), dps)
        return "diverges", None
    if family == "harmonic":
        return "diverges", None
    if family == "alt_harmonic":
        return "converges", _mp(lambda: mpmath.log(2), dps)
    if family == "newton_gregory":
        return "converges", _mp(lambda: mpmath.pi / 4, dps)
    if family == "inv_square":
        return "converges", _mp(lambda: mpmath.pi**2 / 6, dps)
    if family == "alt_inv_square":
        return "converges", _mp(lambda: mpmath.pi**2 / 12, dps)
    if family == "exp_terms":
        return "converges", _mp(lambda: mpmath.exp(_mpq(params["x"])), dps)
    if family == "factorial_power":
        return ("converges", Ref(1)) if params["x"] == 0 else ("diverges", None)
    if family == "two_pow_over_three_pow_minus_one":
        return "converges", _mp(lambda: mpmath.nsum(lambda n: 2**n / (3**n - 1), [1, mpmath.inf]), dps)
    raise ValueError(f"no reference for series family {family!r}")


def _series_term(family: str, params: dict, n: int) -> F:
    if family == "geometric":
        return params["a"] * params["r"] ** (n - 1)
    if family == "inv_square":
        return F(1, n * n)
    if family == "two_pow_over_three_pow_minus_one":
        return F(2**n, 3**n - 1)
    raise ValueError(f"no term reference for series family {family!r}")


def _check_scan(query, ans: dict):
    family, params, horizon = query.args
    params = dict(params)
    lo = max(1, horizon // 2)
    if tuple(ans["range"]) != (lo, horizon):
        return WRONG, f"scan range {ans['range']}; expected {(lo, horizon)}"
    terms = {n: abs(_series_term(family, params, n)) for n in range(lo, horizon + 1)}
    ratios = [terms[n + 1] / terms[n] for n in range(lo, horizon)]
    if ans["ratio"] != (min(ratios), max(ratios)):
        return WRONG, "ratio window is not the exact min/max of the scanned ratios"
    roots = [_mp(lambda n=n: mpmath.root(_mpq(terms[n]), n), 40) for n in range(lo, horizon + 1)]
    for ref in roots:
        if not ref.met_by(ans["root"]):
            return WRONG, f"root window misses |a_n|^(1/n) = {float(ref.value)}"
    return OK, ""


def _alt_harmonic_rearranged(p: int, q: int, steps: int) -> F:
    total, taken, odd, even = F(0), 0, 1, 2
    while taken < steps:
        if taken % (p + q) < p:
            total += F(1, odd)
            odd += 2
        else:
            total -= F(1, even)
            even += 2
        taken += 1
    return total


def _check_pattern(query, ans: dict):
    p, q, steps = query.args
    expected = _alt_harmonic_rearranged(p, q, steps)
    if ans["terms"] != steps or ans["last"] != expected:
        return WRONG, "rearranged partial sum differs from the exact reference"
    # Limit of the p,q rearrangement: ln 2 + ln(p/q)/2 (3/2 ln 2 for 2,1).
    limit = _mp(lambda: mpmath.log(2) + mpmath.log(mpmath.mpf(p) / q) / 2, 40)
    if abs(ans["last"] - limit.value) > F(2 * (p + q), steps):
        return WRONG, f"partial sum {float(ans['last'])} is far from the limit {float(limit.value)}"
    return OK, ""


def _check_riemann(query, ans: dict):
    target, steps = query.args
    total, odd, even, positive, flips = F(0), 1, 2, True, 0
    for _ in range(steps):
        if positive:
            total += F(1, odd)
            odd += 2
        else:
            total -= F(1, even)
            even += 2
        if (total > target) if positive else (total < target):
            flips += 1
            positive = not positive
    if ans["last"] != total or ans["flips"] != flips:
        return WRONG, "greedy rearrangement differs from the exact reference"
    return OK, ""


_PRODUCTS = {
    "one_minus_inv_sq": ("converges", lambda: Ref(F(1, 2))),
    "one_plus_inv": ("diverges", None),
    "one_minus_inv": ("diverges", None),
    "one_plus_inv_exp": ("converges", lambda: _mp(lambda: mpmath.exp(-mpmath.euler), 40)),
}

_ALTERNATING = {
    "inv": lambda: mpmath.log(2),
    "inv_odd": lambda: mpmath.pi / 4,
    "inv_sq": lambda: mpmath.pi**2 / 12,
    "inv_fact": lambda: 1 - mpmath.exp(-1),
}


def _with_value(ans: dict, expected: str, ref):
    verdict = _check_status(ans["status"], expected)
    if verdict[0] != OK or ref is None or ans.get("enc") is None:
        return verdict
    return _check_enclosure(ans, ref)


def _check_bisect(query, ans: dict):
    fn, a, b, iterations = query.args
    if fn[0] == "cos":
        ref = _mp(lambda: mpmath.pi / 2, 60)
    else:
        ref = _mp(lambda: mpmath.sqrt(_mpq(-fn[1][0])), 60)
    shrink = F(1, 2) if ans["perturbed"] == 0 else F(5, 8)
    return _check_enclosure(ans, ref, (b - a) * shrink**iterations)


def _check_roots(query, ans: dict):
    coeffs, lo, hi, _ = query.args
    with mpmath.workdps(60):
        found = mpmath.polyroots([_mpq(c) for c in reversed(coeffs)], maxsteps=200, extraprec=200)
        real = [r for r in found if abs(mpmath.im(r)) < mpmath.mpf(10) ** -40]
        refs = [Ref(mpmath.re(r), F(1, 10**40)) for r in real]
    refs = [r for r in refs if lo <= r.value <= hi]
    if ans["count"] != len(refs):
        return WRONG, f"{ans['count']} roots; expected {len(refs)}"
    for ref in refs:
        if not any(ref.met_by(enc) for enc in ans["roots"]):
            return WRONG, f"no root enclosure contains {float(ref.value)}"
    return OK, ""


# --- elementary enclosures and constants --------------------------------------

def _ladder(query, ans: dict):
    op, args = query.op, query.args
    if op == "pi":
        (d,) = args
        return _check_enclosure(ans, _mp(lambda: mpmath.pi, 2 * d + 10), F(1, 10**d))
    if op in ("exp", "ln", "sin", "cos", "sqrt"):
        q, d = args
        fn = {"exp": mpmath.exp, "ln": mpmath.log, "sin": mpmath.sin, "cos": mpmath.cos,
              "sqrt": mpmath.sqrt}[op]
        return _check_enclosure(ans, _mp(lambda: fn(_mpq(q)), 2 * d + 10), F(1, 10**d))
    if op == "nth_root":
        q, n, d = args
        return _check_enclosure(ans, _mp(lambda: mpmath.root(_mpq(q), n), 2 * d + 10), F(1, 10**d))
    if op == "gamma":
        s, d = args
        return _check_enclosure(ans, _mp(lambda: mpmath.gamma(_mpq(s)), 2 * d + 10), F(1, 10**d))
    if op == "harmonic":
        n, d = args
        exact = sum((F(1, k) for k in range(1, n + 1)), F(0))
        return _check_enclosure(ans, Ref(exact), F(n, 10**d))
    if op == "euler_gamma_window":
        n, d = args
        return _check_enclosure(ans, _mp(lambda: mpmath.euler, 2 * d + 10))
    if op == "constants":
        which, n = args
        value = {
            "e": lambda: mpmath.e,
            "ln2": lambda: mpmath.log(2),
            "pi_over_4": lambda: mpmath.pi / 4,
            # the estimate c_n = H_n - ln n, not gamma itself
            "euler_gamma": lambda: mpmath.harmonic(n) - mpmath.log(n),
        }[which]
        return _check_enclosure(ans, _mp(value, 60))
    if op == "taylor":
        tag, _order, _radius, x = args
        fn = {"exp": mpmath.exp, "sin": mpmath.sin, "cos": mpmath.cos}[tag]
        return _check_enclosure(ans, _mp(lambda: fn(_mpq(x)), 60))
    raise ValueError(f"no reference for op {op!r}")


def check(query, ans: dict) -> tuple[str, str]:
    """Compare one answer with the reference; see the module docstring."""
    op, args = query.op, query.args
    if op == "cli":
        return _check_cli(query, ans)
    if op == "classify":
        family, params, _ = args
        return _with_value(ans, *_series_truth(family, dict(params)))
    if op == "scan":
        return _check_scan(query, ans)
    if op == "pattern":
        return _check_pattern(query, ans)
    if op == "riemann":
        return _check_riemann(query, ans)
    if op == "product":
        expected, ref = _PRODUCTS[args[0]]
        return _with_value(ans, expected, ref and ref())
    if op == "altsum":
        return _check_enclosure(ans, _mp(_ALTERNATING[args[0]], 40))
    if op == "detect":
        family = args[0]
        ref = {"recursive_sqrt2": lambda: _mp(lambda: mpmath.sqrt(2), 40),
               "euler_pow": lambda: _mp(lambda: mpmath.e, 40),
               "harmonic": lambda: Ref(0)}[family]()
        return _with_value(ans, "converges", ref)
    if op == "mtest":
        return _check_status(ans["status"], "converges")
    if op == "bisect":
        return _check_bisect(query, ans)
    if op == "roots":
        return _check_roots(query, ans)
    return _ladder(query, ans)

