"""Partial sums, convergence tests with certificates, rearrangement, products.

The classifier runs an ordered policy of tests and stops at the first
decisive verdict; the full trace of fired and inconclusive tests is kept on
the verdict.  Each certificate records which witnesses were machine-checked
on the scanned prefix and which claims remain caller-asserted (a finite
scan can never certify a statement about the whole tail by itself).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, factorial, gcd
from typing import Callable, NamedTuple, Optional, Union

from certreal.core import (
    Certificate,
    Enclosure,
    RationalLike,
    Status,
    Verdict,
    integer_nth_root,
    nth_root_enclosure,  # noqa: F401  (callers reach it as series.nth_root_enclosure)
    rational_power_enclosure,
    to_rational,
)
from certreal.sequences import TermStream, partial_sum_stream

# Partner-free tests in the practical checking order: vanishing terms
# first, then the named structural families, then alternating, then the
# root/ratio pair.
DEFAULT_POLICY = ("nth_term", "geometric", "p_series", "alternating", "root", "ratio")


@dataclass
class SeriesHandle:
    """A series: its term stream plus a lazily built prefix-sum stream."""

    terms: TermStream
    family: Optional[str] = None
    params: dict = field(default_factory=dict)
    _sums: Optional[TermStream] = field(default=None, repr=False, compare=False)

    @property
    def n0(self) -> int:
        return self.terms.n0

    def term(self, n: int):
        return self.terms.term(n)

    def partial_sum(self, n: int) -> Fraction:
        """Exact sum of terms from the start index through n."""
        if self._sums is None:
            self._sums = partial_sum_stream(self.terms)
        return self._sums.term(n)


def _pseries_term(p: Fraction, n: int):
    if p.denominator == 1:
        return Fraction(1, n**p.numerator) if p >= 0 else Fraction(n ** (-p.numerator))
    return rational_power_enclosure(Fraction(n), -p, 30)


class _Family(NamedTuple):
    params: tuple[str, ...]
    n0: int
    term: Callable  # term(*params) returns n -> a_n, so a stream makes one call per term
    registered: Optional[tuple[str, dict]] = None  # (tag, params), when not (name, params)
    label: Optional[str] = None  # stream name, when not the family name
    vanishes: bool = False  # a_n -> 0 certifiably, for every parameter value
    abs_family: Optional[str] = None  # the family of |a_n|, when it is one


# The named families of `make_series`: a_n = term(*params)(n) from n = n0.
# The CLI has one flag per parameter name, in order of first appearance
# here, and parses a family's flags in the order of its params.
_FAMILIES = {
    "p_series": _Family(("p",), 1, lambda p: lambda n: _pseries_term(p, n)),
    "geometric": _Family(("r", "a"), 1, lambda r, a: lambda n: a * r ** (n - 1)),
    "harmonic": _Family((), 1, lambda: lambda n: Fraction(1, n), ("p_series", {"p": Fraction(1)})),
    "alt_harmonic": _Family((), 1, lambda: lambda n: Fraction((-1) ** (n - 1), n),
                            vanishes=True, abs_family="harmonic"),
    "newton_gregory": _Family((), 1, lambda: lambda n: Fraction((-1) ** (n - 1), 2 * n - 1),
                              vanishes=True),
    "exp_terms": _Family(("x",), 0, lambda x: lambda n: x**n / Fraction(factorial(n)),
                         vanishes=True),
    "factorial_power": _Family(("x",), 0, lambda x: lambda n: Fraction(factorial(n)) * x**n),
    "two_pow_over_three_pow_minus_one": _Family(
        (), 1, lambda: lambda n: Fraction(2**n, 3**n - 1), label="2^n/(3^n-1)", vanishes=True),
    "inv_square": _Family((), 1, lambda: lambda n: Fraction(1, n * n),
                          ("p_series", {"p": Fraction(2)})),
    "alt_inv_square": _Family((), 1, lambda: lambda n: Fraction((-1) ** (n - 1), n * n),
                              vanishes=True, abs_family="inv_square"),
}


def make_series(family: str, **params) -> SeriesHandle:
    """A series of a named family of `_FAMILIES` (p_series terms are
    enclosures when p is not an integer), or custom(gen, n0, name)."""
    if family == "custom":
        stream = TermStream(params["gen"], params.get("n0", 1), params.get("name", "custom"))
        return SeriesHandle(stream, None, {})
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    spec = _FAMILIES[family]
    values = {key: to_rational(params[key]) for key in spec.params}
    name = spec.label or family
    if values:  # parameters appear in the stream name in alphabetical order
        name += "(" + ",".join(f"{key}={values[key]}" for key in sorted(values)) + ")"
    stream = TermStream(spec.term(*values.values()), spec.n0, name)
    tag, tag_params = spec.registered or (family, values)
    return SeriesHandle(stream, tag, dict(tag_params))


# --- individual tests ------------------------------------------------------

def _test_nth_term(s: SeriesHandle, horizon: int, ctx: dict):
    fam, par = s.family, s.params
    if fam == "geometric":
        if abs(par["r"]) >= 1:
            if par["a"] == 0:
                return None, "terms identically zero"
            cert = Certificate(
                "nth_term",
                {"r": par["r"], "term_magnitude_lower_bound": abs(par["a"])},
                detail="|a_n| = |a| |r|^(n-1) >= |a| > 0 for |r| >= 1",
            )
            return Verdict(Status.DIVERGES, cert), "fired"
        return None, "terms -> 0 (registered: |r| < 1)"
    if fam == "p_series":
        if par["p"] <= 0:
            cert = Certificate(
                "nth_term",
                {"p": par["p"]},
                detail="n**-p >= 1 for p <= 0",
            )
            return Verdict(Status.DIVERGES, cert), "fired"
        return None, "terms -> 0 (registered: p > 0)"
    if fam == "factorial_power":
        x = par["x"]
        if x == 0:
            return None, "terms identically zero past n=0"
        threshold = abs(1 / x)
        start = int(threshold) + 1  # (n+1)|x| >= 1 from here on
        anchor = abs(s.term(start))
        cert = Certificate(
            "nth_term",
            {"N": start, "term_magnitude_lower_bound": anchor},
            detail="|a_{n+1}/a_n| = (n+1)|x| >= 1 for n >= N, so |a_n| >= |a_N| > 0",
        )
        return Verdict(Status.DIVERGES, cert), "fired"
    if fam in _FAMILIES and _FAMILIES[fam].vanishes:
        return None, "terms -> 0 (registered fact)"
    # Empirical scan: evidence of non-vanishing terms is reported as a
    # divergence verdict flagged not-machine-checked; apparent decay passes.
    lo = max(s.n0, horizon // 2)
    window = [s.term(n) for n in range(lo, horizon + 1)]
    if not all(isinstance(v, Fraction) for v in window):
        return None, "skipped (terms not exact)"
    magnitudes = [abs(v) for v in window]
    if min(magnitudes) > 0 and all(a <= b for a, b in zip(magnitudes, magnitudes[1:])):
        cert = Certificate(
            "nth_term",
            {"window": (lo, horizon), "term_magnitude_lower_bound": min(magnitudes)},
            machine_checked=False,
            asserted=("term magnitudes keep growing beyond the horizon",),
        )
        return Verdict(Status.DIVERGES, cert), "fired (empirical)"
    return None, "no evidence terms stay away from 0"


def _test_geometric(s: SeriesHandle, horizon: int, ctx: dict):
    if s.family != "geometric":
        return None, "not a registered geometric series"
    a, r = s.params["a"], s.params["r"]
    if abs(r) < 1:
        total = a / (1 - r)
        cert = Certificate(
            "geometric",
            {
                "a": a,
                "r": r,
                "sum": total,
                "N": horizon,
                "tail_bound": abs(a * r**horizon / (1 - r)),
            },
            detail="geometric series converges iff |r| < 1; sum a/(1-r)",
        )
        return Verdict(Status.CONVERGES, cert, Enclosure.point(total)), "fired"
    cert = Certificate("geometric", {"a": a, "r": r}, detail="|r| >= 1")
    if a == 0:
        cert = Certificate("geometric", {"a": a, "r": r, "sum": Fraction(0)})
        return Verdict(Status.CONVERGES, cert, Enclosure.point(0)), "fired"
    return Verdict(Status.DIVERGES, cert), "fired"


def _test_p_series(s: SeriesHandle, horizon: int, ctx: dict):
    if s.family != "p_series":
        return None, "not a registered p-series"
    p = s.params["p"]
    if p > 1:
        # Integral-test bracket: integral <= sum <= integral + first term.
        integral = 1 / (p - 1)
        value = Enclosure(integral, integral + 1)
        cert = Certificate(
            "p_series",
            {"p": p, "integral_lower": 1 / (p - 1)},
            detail="p-series converges iff p > 1; bracket from the integral test",
        )
        return Verdict(Status.CONVERGES, cert, value), "fired"
    cert = Certificate("p_series", {"p": p}, detail="p <= 1")
    return Verdict(Status.DIVERGES, cert), "fired"


def _alternating_structure(s: SeriesHandle, horizon: int):
    """Return the magnitude prefix if the prefix looks like (-1)**(n-1) b_n."""
    values = [s.term(n) for n in range(s.n0, horizon + 1)]
    if not all(isinstance(v, Fraction) and v != 0 and (v > 0) == (i % 2 == 0)
               for i, v in enumerate(values)):
        return None
    mags = [abs(v) for v in values]
    return mags if all(a >= b for a, b in zip(mags, mags[1:])) else None


def _test_alternating(s: SeriesHandle, horizon: int, ctx: dict):
    mags = _alternating_structure(s, horizon)
    if not mags:
        return None, "prefix is not an alternating series with decreasing magnitudes"
    # the bracket needs term horizon+1 to keep the sign pattern and the decrease
    nxt = s.term(horizon + 1)
    if not isinstance(nxt, Fraction):
        return None, f"term {horizon + 1} is not an exact rational"
    if nxt != 0 and (nxt > 0) != (len(mags) % 2 == 0):
        return None, f"term {horizon + 1} = {nxt} breaks the sign pattern"
    if abs(nxt) > mags[-1]:
        return None, f"term {horizon + 1} = {nxt} is larger in magnitude than term {horizon}"
    enclosure = _alternating_bracket([m.numerator for m in mags],
                                     [m.denominator for m in mags], abs(nxt))
    cert = Certificate(
        "alternating",
        {
            "horizon": horizon,
            "tail_bound": mags[-1],
            "enclosure": enclosure,
        },
        asserted=("magnitudes keep decreasing to 0 beyond the horizon",),
        detail="alternating series test; |s - s_n| <= b_{n+1}",
    )
    return Verdict(Status.CONVERGES, cert, enclosure), "fired"


def _certify_window(test: str, scan_range: tuple[int, int], values_lo: list[Fraction],
                    values_hi: list[Fraction], delta: Fraction):
    """(verdict, note) for the scanned window [min values_lo, max values_hi]."""
    window = Enclosure(min(values_lo), max(values_hi))
    half = len(values_hi) // 2
    if half and max(values_hi[half:]) > max(values_hi[:half]):
        trend = "rising"
    elif half and min(values_lo[half:]) < min(values_lo[:half]):
        trend = "falling"
    else:
        trend = "flat"
    # The trend guard refuses certification when the scanned values drift
    # toward 1: a window below 1 - delta proves nothing about the limsup if
    # the values are still climbing (the harmonic series is the cautionary
    # case for the root test).
    if window.hi <= 1 - delta and trend != "rising":
        status, detail = Status.CONVERGES, "window entirely below 1 - delta"
    elif window.lo >= 1 + delta and trend != "falling":
        status, detail = Status.DIVERGES, "window entirely above 1 + delta"
    else:
        return None, f"{test} window {window} not decisive (trend {trend})"
    cert = Certificate(
        test,
        {"window": window, "delta": delta, "trend": trend, "scan_range": scan_range},
        asserted=(f"{test} values stay inside the scanned window beyond the horizon",),
        detail=detail,
    )
    return Verdict(status, cert), "fired"


def _test_ratio(s: SeriesHandle, horizon: int, ctx: dict):
    try:
        scan_range, ratios = _ratio_scan(s, horizon)
    except (ZeroDivisionError, ValueError) as exc:
        return None, f"ratio scan failed: {exc}"
    return _certify_window("ratio", scan_range, ratios, ratios, ctx["delta"])


def _test_root(s: SeriesHandle, horizon: int, ctx: dict):
    try:
        scan_range, brackets = _root_scan(s, horizon, 12)
    except ValueError as exc:
        return None, f"root scan failed: {exc}"
    return _certify_window("root", scan_range, [b.lo for b in brackets],
                           [b.hi for b in brackets], ctx["delta"])


def _test_comparison(s: SeriesHandle, horizon: int, ctx: dict):
    partner, partner_verdict = ctx["partner"], ctx["partner_verdict"]
    if partner is None or partner_verdict is None:
        return None, "no comparison partner supplied"
    lo_idx = max(s.n0, partner.n0)  # a_n is paired with b_n, as the certificate reads
    if lo_idx > horizon:
        return None, f"partner starts at {partner.n0}, past the horizon {horizon}"
    ours = [s.term(n) for n in range(lo_idx, horizon + 1)]
    theirs = [partner.term(n) for n in range(lo_idx, horizon + 1)]
    if not all(isinstance(v, Fraction) for v in ours + theirs):
        return None, "comparison needs exact terms"
    if any(v < 0 for v in ours) or any(v < 0 for v in theirs):
        return None, "comparison test needs nonnegative terms"
    below = all(a <= b for a, b in zip(ours, theirs))
    above = all(a >= b for a, b in zip(ours, theirs))
    if below and partner_verdict.status is Status.CONVERGES:
        cert = Certificate(
            "comparison",
            {"partner": partner.terms.name, "direction": "below"},
            asserted=("0 <= a_n <= b_n persists beyond the horizon",),
        )
        return Verdict(Status.CONVERGES, cert), "fired"
    if above and partner_verdict.status is Status.DIVERGES:
        cert = Certificate(
            "comparison",
            {"partner": partner.terms.name, "direction": "above"},
            asserted=("a_n >= b_n >= 0 persists beyond the horizon",),
        )
        return Verdict(Status.DIVERGES, cert), "fired"
    return None, "prefix comparison direction does not match partner verdict"


def _test_limit_comparison(s: SeriesHandle, horizon: int, ctx: dict):
    partner, partner_verdict = ctx["partner"], ctx["partner_verdict"]
    if partner is None or partner_verdict is None:
        return None, "no comparison partner supplied"
    lo_idx = max(s.n0, partner.n0, horizon // 2)
    if lo_idx > horizon:
        return None, f"partner starts at {partner.n0}, past the horizon {horizon}"
    ratios = []
    for n in range(lo_idx, horizon + 1):
        ours, theirs = s.term(n), partner.term(n)
        if not isinstance(ours, Fraction) or not isinstance(theirs, Fraction) or theirs <= 0:
            return None, "limit comparison needs exact positive partner terms"
        ratios.append(abs(ours) / theirs)
    window = Enclosure(min(ratios), max(ratios))
    if partner_verdict.status is Status.CONVERGES:
        cert = Certificate(
            "limit_comparison",
            {"partner": partner.terms.name, "ratio_window": window},
            machine_checked=False,
            asserted=("|a_n|/b_n stays bounded beyond the horizon",),
        )
        return Verdict(Status.CONVERGES, cert), "fired (empirical)"
    if partner_verdict.status is Status.DIVERGES and window.lo > 0:
        cert = Certificate(
            "limit_comparison",
            {"partner": partner.terms.name, "ratio_window": window},
            machine_checked=False,
            asserted=("a_n/b_n stays bounded away from 0 beyond the horizon",),
        )
        return Verdict(Status.DIVERGES, cert), "fired (empirical)"
    return None, "partner verdict not decisive"


def _test_integral(s: SeriesHandle, horizon: int, ctx: dict):
    integral_spec = ctx["integral_spec"]
    if integral_spec is None:
        return None, "no integral-test partner supplied"
    f = integral_spec.integrand
    # machine-check f(n) = a_n on a prefix sample (at least one n) from the
    # integral's lower end on; decreasing-positivity is the partner contract
    first = s.n0 if integral_spec.lo is None else max(s.n0, ceil(integral_spec.lo))
    for n in range(first, max(first, min(horizon, first + 16)) + 1):
        term = s.term(n)
        if not isinstance(term, Fraction):
            return None, "integral test needs exact terms"
        if not f.enclosure_at(Fraction(n), 20).contains(term):
            return None, f"f({n}) does not match the series term"
    from certreal import integration

    verdict = integration.improper_integral(integral_spec)
    if verdict.status is Status.INCONCLUSIVE:
        return None, "partner integral inconclusive"
    cert = Certificate(
        "integral",
        {"partner": f.name, "integral_status": verdict.status.value},
        asserted=("the integrand stays positive and decreasing to 0",),
        detail="series and improper integral of the matching integrand "
        "converge or diverge together",
    )
    return Verdict(verdict.status, cert), "fired"


def _test_cauchy_criterion(s: SeriesHandle, horizon: int, ctx: dict):
    eps = ctx["eps"]
    lo = max(s.n0, horizon // 2)
    sums = [s.partial_sum(n) for n in range(lo, horizon + 1)]
    if not all(isinstance(v, Fraction) for v in sums):
        return None, "cauchy criterion needs exact partial sums"
    oscillation = max(sums) - min(sums)
    if oscillation < eps:
        cert = Certificate(
            "cauchy_criterion",
            {"oscillation": oscillation, "eps": eps, "window": (lo, horizon)},
            machine_checked=False,
            asserted=("partial sums keep oscillating less than eps",),
        )
        return Verdict(Status.CONVERGES, cert), "fired (empirical)"
    return None, f"partial-sum oscillation {oscillation} >= eps"


def _test_abs_convergence(s: SeriesHandle, horizon: int, ctx: dict):
    if not isinstance(s.term(s.n0), Fraction):
        return None, "absolute convergence needs exact terms"
    # a registered family of |a_n| keeps the inner classification on the
    # certified structural path
    tag, tag_params = None, {}
    spec = _FAMILIES.get(s.family or "")
    if spec is not None and spec.abs_family is not None:
        tag, tag_params = _FAMILIES[spec.abs_family].registered or (spec.abs_family, {})
    inner = SeriesHandle(
        TermStream(lambda n: abs(s.term(n)), s.n0, f"|{s.terms.name}|"),
        tag,
        dict(tag_params),
    )
    sub_policy = tuple(t for t in DEFAULT_POLICY if t not in ("alternating",))
    inner_verdict = classify(inner, sub_policy, horizon, ctx["delta"])
    if inner_verdict.status is Status.CONVERGES:
        cert = Certificate.from_reduction(
            inner_verdict.certificate,
            "abs_convergence",
            {"inner_test": inner_verdict.certificate.test},
            detail="absolute convergence implies convergence",
        )
        return Verdict(Status.CONVERGES, cert), "fired"
    return None, "absolute-value series not shown convergent"


# Every test takes (series, horizon, ctx); ctx carries the classify
# arguments some tests need (delta, eps, partner, partner_verdict,
# integral_spec).
_TESTS = {
    "nth_term": _test_nth_term,
    "geometric": _test_geometric,
    "p_series": _test_p_series,
    "alternating": _test_alternating,
    "ratio": _test_ratio,
    "root": _test_root,
    "comparison": _test_comparison,
    "limit_comparison": _test_limit_comparison,
    "integral": _test_integral,
    "cauchy_criterion": _test_cauchy_criterion,
    "abs_convergence": _test_abs_convergence,
}


def classify(
    s: SeriesHandle,
    policy: tuple = DEFAULT_POLICY,
    horizon: int = 128,
    delta: RationalLike = Fraction(1, 100),
    partner: Optional[SeriesHandle] = None,
    partner_verdict: Optional[Verdict] = None,
    eps: RationalLike = Fraction(1, 1000),
    integral_spec=None,
) -> Verdict:
    """Run the ordered test policy; first decisive verdict wins.

    The trace of every attempted test (fired or not, with the reason) is
    retained on the returned verdict.
    """
    if not policy:
        raise ValueError("empty test policy")
    ctx = {
        "delta": to_rational(delta),
        "eps": to_rational(eps),
        "partner": partner,
        "partner_verdict": partner_verdict,
        "integral_spec": integral_spec,
    }
    trace: list = []
    for test in policy:
        if test not in _TESTS:
            raise ValueError(f"unknown test {test!r} in policy")
        verdict, note = _TESTS[test](s, horizon, ctx)
        trace.append((test, note))
        if verdict is not None:
            return Verdict(verdict.status, verdict.certificate, verdict.value, tuple(trace))
    return Verdict(Status.INCONCLUSIVE, None, None, tuple(trace))


def alternating_sum_with_bound(b: TermStream, n: int) -> Enclosure:
    """Enclosure of sum (-1)**(k-1) b_k from the alternating-series estimate.

    The prefix b_1 >= b_2 >= ... >= 0 is machine-checked (a violation is
    rejected with its index); the limit-to-zero tail claim is the caller's.
    The bracket |s - s_n| <= b_{n+1} is intersected with the even/odd
    partial-sum oscillation bracket.
    """
    # Integer cross-multiplication and `_signed_sum`: Fractions only for the
    # stream's own terms and the bracket, the same rationals as a Fraction loop.
    if n < 1:
        raise ValueError("need at least one term")
    previous = None
    nums, dens = [], []
    for k in range(1, n + 1):
        bk = b.term(b.n0 + k - 1)
        if not isinstance(bk, Fraction):
            raise ValueError("alternating bound needs exact rational magnitudes")
        a, d = bk.numerator, bk.denominator
        if a < 0:
            raise ValueError(f"magnitude term b_{k} = {bk} is negative")
        if previous is not None and a * previous.denominator > previous.numerator * d:
            raise ValueError(f"magnitudes increase at index {k}: {previous} -> {bk}")
        previous = bk
        nums.append(a)
        dens.append(d)
    tail = b.term(b.n0 + n)
    if not isinstance(tail, Fraction) or tail < 0 or tail > previous:
        raise ValueError("tail magnitude violates the decreasing contract")
    return _alternating_bracket(nums, dens, tail)


def _alternating_bracket(nums, dens, tail: Fraction) -> Enclosure:
    """S_n +- b_(n+1) intersected with [S_even, S_odd], S_(n-1) = S_n -+ b_n, for
    S_n = sum (-1)**(k-1) nums[k-1]/dens[k-1] with magnitudes that the caller
    has checked to decrease to the tail b_(n+1)."""
    n = len(nums)
    total = Fraction(*_signed_sum(nums, dens, 0, n))
    bracket = Enclosure(total - tail, total + tail)
    if n > 1:
        b_n = Fraction(nums[-1], dens[-1])
        last = total - b_n if n % 2 == 1 else total + b_n
        even, odd = (total, last) if n % 2 == 0 else (last, total)
        bracket = bracket.intersect(Enclosure(even, odd))
    return bracket


def _signed_sum(nums, dens, lo: int, hi: int) -> tuple[int, int]:
    """(N, D) with N/D = sum over lo <= i < hi of (-1)**i nums[i]/dens[i] and
    D = lcm(dens[lo:hi]), by binary splitting (Haible & Papanikolaou, 1998):
    the halves meet in one gcd, so the big products are balanced. Each call
    halves a finite range, so the depth is ceil(log2(hi - lo)); at most 16
    terms run the running-lcm loop.
    """
    if hi - lo <= 16:
        num, den = 0, 1
        for i in range(lo, hi):
            d = dens[i]
            g = gcd(den, d)
            term = nums[i] * (den // g)
            num, den = num * (d // g) + (term if i % 2 == 0 else -term), den * (d // g)
        return num, den
    mid = (lo + hi) // 2
    n1, d1 = _signed_sum(nums, dens, lo, mid)
    n2, d2 = _signed_sum(nums, dens, mid, hi)
    g = gcd(d1, d2)
    return n1 * (d2 // g) + n2 * (d1 // g), d1 // g * d2


def _scan_range(s: SeriesHandle, horizon: int) -> tuple[int, int]:
    """The back half [horizon/2, horizon] of the horizon, from the first index on."""
    lo = max(s.n0, horizon // 2)
    if horizon <= lo:
        raise ValueError("horizon too small for a scan window")
    return lo, horizon


def _ratio_scan(s: SeriesHandle, horizon: int) -> tuple[tuple[int, int], list[Fraction]]:
    """(scan range, exact |a_(n+1)/a_n| for n from its start up to horizon - 1).

    A zero term raises ZeroDivisionError with its index; a term that is not
    an exact rational raises ValueError.
    """
    lo, hi = _scan_range(s, horizon)
    ratios = []
    for n in range(lo, hi):
        a_n, a_next = s.term(n), s.term(n + 1)
        if not isinstance(a_n, Fraction) or not isinstance(a_next, Fraction):
            raise ValueError("ratio scan needs exact rational terms")
        if a_n == 0:
            raise ZeroDivisionError(f"zero term at index {n} in ratio scan")
        ratios.append(abs(a_next / a_n))
    return (lo, hi), ratios


def _root_scan(s: SeriesHandle, horizon: int,
               digits: int) -> tuple[tuple[int, int], list[Enclosure]]:
    """(scan range, an enclosure of |a_n|**(1/n) on the 10^-digits grid for
    each n >= 1 in it).  A term that is not an exact rational raises
    ValueError.

    With S = 10^digits and |a_n| = p/q, r = floor(z^(1/n)) for z = p·S^n/q,
    and floor(z^(1/n)) is the integer n-th root of floor(z).  So r/S <=
    |a_n|^(1/n) < (r + 1)/S: the bracket is 10^-digits wide, or the point
    r/S when r^n·q = p·S^n.  The radicand floor(z) has at most
    n·digits·log2(10) + log2|a_n| + 1 bits, whatever the size of q.
    """
    lo, hi = _scan_range(s, horizon)
    scale = 10**digits
    brackets = []
    for n in range(max(lo, 1), hi + 1):
        a_n = s.term(n)
        if not isinstance(a_n, Fraction):
            raise ValueError("root scan needs exact rational terms")
        num, den = abs(a_n.numerator) * scale**n, a_n.denominator
        r = integer_nth_root(num // den, n)
        if r**n * den == num:
            brackets.append(Enclosure.point(Fraction(r, scale)))
        else:
            brackets.append(Enclosure(Fraction(r, scale), Fraction(r + 1, scale)))
    return (lo, hi), brackets


def ratio_root_scan(s: SeriesHandle, horizon: int, digits: int = 12) -> dict:
    """Exact min/max of |a_{n+1}/a_n| and enclosure window of |a_n|**(1/n)
    over the back half of the horizon [horizon/2, horizon].

    These are windows, not limits; certification is the caller's business
    (see `classify`).  A zero term in the ratio scan is reported with its
    index.  The result keeps the two windows and the scan range only, not
    the per-index values they are taken over.
    """
    scan_range, ratios = _ratio_scan(s, horizon)
    _, brackets = _root_scan(s, horizon, digits)
    return {
        "scan_range": scan_range,
        "ratio_window": Enclosure(min(ratios), max(ratios)),
        "root_window": Enclosure(min(b.lo for b in brackets), max(b.hi for b in brackets)),
    }


# --- rearrangement ----------------------------------------------------------

@dataclass(frozen=True)
class FlipRecord:
    step: int
    index: int
    term: Fraction
    partial_sum: Fraction
    distance_to_target: Fraction


@dataclass(frozen=True)
class RearrangeResult:
    """A rearrangement run: the values its callers read, and a recipe to
    replay the rest.

    Kept: the step count, the last three partial sums, the flip count and
    the largest flip distance (None for a pattern run; the distance is None
    too when no flip happened), the target, and the replay recipe: the term
    generator, the start index, the scan cap and the rule, which is the
    pattern (p, q) or the target.  The series' stream is not kept, as its
    memo holds every term drawn.

    Replayed: `indices`, `partial_sums` and `flips` re-run the rearrangement
    each time they are read, calling the term generator with no memo, and
    cache nothing.  The exact partial sums of alt_harmonic reach thousands
    of bits by step 1,500, so keeping one per step cost about a megabyte
    per result.
    """

    steps: int
    last_sums: tuple[Fraction, ...]
    flip_count: Optional[int]
    max_flip_distance: Optional[Fraction]
    target: Optional[Fraction]
    gen: Callable = field(repr=False, compare=False)
    n0: int
    scan_cap: int
    pattern: Optional[tuple[int, int]] = None

    def _walk(self) -> list:
        rule = self.target if self.pattern is None else self.pattern
        return list(_rearrange(self.gen, self.n0, self.steps, self.scan_cap, rule))

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(idx for idx, _, _, _ in self._walk())

    @property
    def partial_sums(self) -> tuple[Fraction, ...]:
        return tuple(total for _, _, total, _ in self._walk())

    @property
    def flips(self) -> tuple[FlipRecord, ...]:
        return tuple(
            FlipRecord(step, idx, term, total, abs(total - self.target))
            for step, (idx, term, total, flipped) in enumerate(self._walk(), 1) if flipped
        )


class SignClassExhausted(ValueError):
    """One sign class ran out while scanning; contradicts the hypothesis."""


def _sign_class_iter(term: Callable, n0: int, want_nonnegative: bool, scan_cap: int):
    n = n0
    while n <= scan_cap:
        v = term(n)
        if not isinstance(v, Fraction):
            raise ValueError("rearrangement needs exact rational terms")
        if (v.numerator >= 0) == want_nonnegative:  # an int compare; a Fraction one costs 4x
            yield n, v
        n += 1
    raise SignClassExhausted(
        f"{'nonnegative' if want_nonnegative else 'negative'} terms exhausted by index {scan_cap}"
    )


def _rearrange(term: Callable, n0: int, steps: int, scan_cap: int, rule):
    """Yield (index, term, partial sum, flipped) for `steps` terms
    a_n = term(n), n >= n0, each drawn in index order from the nonnegative
    or from the negative terms.

    The first term is nonnegative.  A pattern rule (p, q) takes p
    nonnegative terms, then q negative, cyclically.  A target rule takes
    terms of one sign until the partial sum passes the target, and then
    flips: `flipped` marks the step that passed it.  A sign class with no
    term left by index scan_cap raises SignClassExhausted.
    """
    classes = (_sign_class_iter(term, n0, False, scan_cap),
               _sign_class_iter(term, n0, True, scan_cap))
    pattern = isinstance(rule, tuple)
    total = Fraction(0)
    positive, flipped = True, False
    for step in range(1, steps + 1):
        idx, value = next(classes[positive])
        total += value
        if pattern:
            positive = step % (rule[0] + rule[1]) < rule[0]
        else:
            flipped = total > rule if positive else total < rule
            positive ^= flipped
        yield idx, value, total, flipped


def _rearrangement(s: SeriesHandle, steps: int, scan_cap: Optional[int],
                   rule) -> RearrangeResult:
    """Run the rearrangement once on s's own stream, keeping the last three
    partial sums and the flip summary.  The scan cap defaults to
    n0 + 100 * steps."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cap = scan_cap if scan_cap is not None else s.n0 + 100 * steps
    pattern = isinstance(rule, tuple)
    last: tuple[Fraction, ...] = ()
    flips, worst = 0, None
    for _, _, total, flipped in _rearrange(s.term, s.n0, steps, cap, rule):
        last = (*last[-2:], total)
        if flipped:
            flips += 1
            distance = abs(total - rule)
            if worst is None or distance > worst:
                worst = distance
    return RearrangeResult(
        steps, last, None if pattern else flips, worst, None if pattern else rule,
        s.terms.gen, s.n0, cap, rule if pattern else None,
    )


def rearrange_riemann(
    s: SeriesHandle,
    target: RationalLike,
    steps: int,
    scan_cap: Optional[int] = None,
) -> RearrangeResult:
    """Greedy rearrangement of a conditionally convergent series toward target.

    Alternately consumes nonnegative terms (in order) until the partial sum
    exceeds the target, then negative terms until it drops below.  After
    each direction flip the distance to the target is at most the magnitude
    of the term consumed at the flip; that record is emitted per flip.

    Conditional convergence is the caller's assertion (both sign classes
    diverging is checked only in the weak sense that neither may run out
    within the scan cap).
    """
    return _rearrangement(s, steps, scan_cap, to_rational(target))


def rearrange_pattern(s: SeriesHandle, p: int, q: int, steps: int,
                      scan_cap: Optional[int] = None) -> RearrangeResult:
    """Fixed-pattern rearrangement: p nonnegative terms, then q negative, cyclically."""
    if p < 1 or q < 1:
        raise ValueError("pattern counts must be >= 1")
    return _rearrangement(s, steps, scan_cap, (p, q))


# --- infinite products -------------------------------------------------------

@dataclass
class ProductHandle:
    """Infinite product of factors u_n from `start` on.

    Registered structure (factors of the form 1 +/- a_n) and closed forms
    enable certified verdicts and limit enclosures.
    """

    factors: Optional[TermStream]
    family: Optional[str] = None
    # Registered: ('one_plus' | 'one_minus', deltas handle) meaning u_n = 1 +/- a_n.
    delta_form: Optional[tuple[str, SeriesHandle]] = None
    closed_partial: Optional[Callable[[int], Union[Fraction, Enclosure]]] = None
    limit_enclosure: Optional[Callable[[int], Enclosure]] = None

    @property
    def start(self) -> int:
        return self.factors.n0 if self.factors is not None else 1

    def partial_product(self, n: int) -> Fraction:
        """Exact partial product over [start, n], skipping nothing."""
        if self.factors is None:
            raise ValueError("factors are not exactly rational; use closed_partial")
        total = Fraction(1)
        for k in range(self.start, n + 1):
            v = self.factors.term(k)
            if not isinstance(v, Fraction):
                raise ValueError("exact partial products need rational factors")
            total *= v
        return total


def _delta_product(family: str, form: str, deltas: SeriesHandle,
                   closed_partial=None, limit_enclosure=None) -> ProductHandle:
    """The product of the factors u_n = 1 + a_n (form 'one_plus') or
    1 - a_n ('one_minus'), built from the series `deltas` of the a_n."""
    sign = 1 if form == "one_plus" else -1
    factors = TermStream(lambda n: 1 + sign * deltas.term(n), deltas.n0,
                         f"1 {'+' if sign > 0 else '-'} {deltas.terms.name}")
    return ProductHandle(factors, family=family, delta_form=(form, deltas),
                         closed_partial=closed_partial, limit_enclosure=limit_enclosure)


# The fixed delta products, a_n = 1/n^p: family -> (form, first n, p,
# closed partial product over [first n, n], limit or None).
_DELTA_PRODUCTS = {
    "one_minus_inv_sq": ("one_minus", 2, 2, lambda n: Fraction(n + 1, 2 * n), Fraction(1, 2)),
    "one_plus_inv": ("one_plus", 1, 1, lambda n: Fraction(n + 1), None),
    "one_minus_inv": ("one_minus", 2, 1, lambda n: Fraction(1, n), None),
}


def make_product(family: str, **params) -> ProductHandle:
    """A product family: one of `_DELTA_PRODUCTS`, one_plus(deltas=SeriesHandle)
    or one_minus(deltas), or one_plus_inv_exp: prod (1 + 1/n) e^(-1/n)."""
    if family in _DELTA_PRODUCTS:
        form, n0, p, closed, limit = _DELTA_PRODUCTS[family]
        name = "1/n" if p == 1 else f"1/n^{p}"
        deltas = SeriesHandle(TermStream(lambda n: Fraction(1, n**p), n0, name),
                              "p_series", {"p": Fraction(p)})
        return _delta_product(family, form, deltas, closed,
                              None if limit is None else lambda digits: Enclosure.point(limit))
    if family in ("one_plus", "one_minus"):
        return _delta_product(family, family, params["deltas"])
    if family == "one_plus_inv_exp":
        # Factors (1 + 1/n) e^{-1/n} are irrational; the exact closed-form
        # partial product (n+1) e^{-H_n} is exposed as an enclosure.
        def closed(n: int) -> Enclosure:
            from certreal import powerseries as ps

            harmonic = ps.harmonic_number_enclosure(n, 25)
            e_neg = ps.exp_enclosure_over(-harmonic, 25)
            return e_neg.scale(n + 1)

        return ProductHandle(None, family=family, closed_partial=closed)
    raise ValueError(f"unknown product family {family!r}")


def _tail_start(deltas: SeriesHandle, horizon: int, inside: Callable[[Fraction], bool],
                range_text: str) -> int:
    """First checked index n with a_n inside the range; every later checked
    a_n must stay inside it.

    Convergence is unaffected by finitely many terms, so a product
    hypothesis on a_n only needs to hold from some tail index onward.
    """
    tail_start = None
    for n in range(deltas.n0, min(horizon, deltas.n0 + 512) + 1):
        a = deltas.term(n)
        ok = isinstance(a, Fraction) and inside(a)
        if tail_start is None:
            if ok:
                tail_start = n
        elif not ok:
            raise ValueError(f"a_{n} = {a} outside {range_text} after tail start {tail_start}")
    if tail_start is None:
        raise ValueError(f"no checked delta lies in {range_text}")
    return tail_start


def product_converges(p: ProductHandle, horizon: int, policy: tuple = DEFAULT_POLICY) -> Verdict:
    """Verdict for an infinite product.

    Factors registered as 1 +/- a_n with 0 < a_n < 1 (prefix-checked)
    delegate to the series classifier on sum a_n: the product converges iff
    the series does.  Raw partial products over the horizon are reported in
    the certificate; a registered closed form supplies the limit enclosure.
    """
    if p.delta_form is not None:
        kind, deltas = p.delta_form
        tail_start = _tail_start(deltas, horizon, lambda a: 0 < a < 1, "(0, 1)")
        series_verdict = classify(deltas, policy, horizon)
        witnesses = {
            "delta_series": deltas.terms.name,
            "form": kind,
            "tail_start": tail_start,
            "series_status": series_verdict.status.value,
        }
        if p.closed_partial is not None:
            witnesses["partial_product_at_horizon"] = p.closed_partial(horizon)
        if series_verdict.status is Status.INCONCLUSIVE:
            return Verdict(Status.INCONCLUSIVE, None, None, trace=series_verdict.trace)
        outcome = series_verdict.status.value.lower()  # "converges" or "diverges"
        cert = Certificate.from_reduction(
            series_verdict.certificate,
            "registered:product_delta_reduction",
            witnesses,
            asserted=("0 < a_n < 1 beyond the checked prefix",),
            detail=f"product of (1 +/- a_n) {outcome} iff sum a_n {outcome}",
        )
        value = None
        if series_verdict.status is Status.CONVERGES and p.limit_enclosure is not None:
            value = p.limit_enclosure(12)
        return Verdict(series_verdict.status, cert, value, trace=series_verdict.trace)
    if p.family == "one_plus_inv_exp":
        # Registered fact: log-factors ln(1+1/n) - 1/n are O(1/n^2); the
        # closed-form partial product (n+1) e^{-H_n} tends to e^{-gamma}.
        cert = Certificate(
            "registered:product_log_comparison",
            {
                "partial_product_at_horizon": p.closed_partial(horizon),
                "comparison": "|ln u_n| <= 1/n^2 (registered)",
            },
            detail="sum ln u_n converges absolutely by comparison with 1/n^2",
        )
        from certreal import powerseries as ps

        def limit(digits: int) -> Enclosure:
            gamma_window = ps.euler_gamma_window(200000, digits + 2)
            return ps.exp_enclosure_over(-gamma_window, digits + 2)

        return Verdict(Status.CONVERGES, cert, limit(8))
    trace = (("product", "no registered structure; raw partial products only"),)
    return Verdict(Status.INCONCLUSIVE, None, None, trace)


def product_log_series_verdict(p: ProductHandle, horizon: int) -> Verdict:
    """Independent route: bracket ln u_n by rationals and classify the sum.

    For u_n = 1 + a_n with 0 < a_n <= 1: a_n/2 <= ln u_n <= a_n.
    For u_n = 1 - a_n with 0 < a_n <= 1/2: a_n <= -ln u_n <= 2 a_n.
    Either way sum ln u_n converges iff sum a_n does, by two-sided
    comparison; the bracket hypotheses are machine-checked on the prefix.
    """
    if p.delta_form is None:
        raise ValueError("log-series route needs a registered 1 +/- a_n form")
    kind, deltas = p.delta_form
    limit_bound = Fraction(1) if kind == "one_plus" else Fraction(1, 2)
    _tail_start(deltas, horizon, lambda a: 0 < a <= limit_bound, f"(0, {limit_bound}]")
    series_verdict = classify(deltas, DEFAULT_POLICY, horizon)
    if series_verdict.status is Status.INCONCLUSIVE:
        return series_verdict
    cert = Certificate.from_reduction(
        series_verdict.certificate,
        "registered:product_log_bracket",
        {
            "form": kind,
            "bracket": "a_n/2 <= ln(1+a_n) <= a_n"
            if kind == "one_plus"
            else "a_n <= -ln(1-a_n) <= 2 a_n",
            "series_status": series_verdict.status.value,
        },
    )
    return Verdict(series_verdict.status, cert, trace=series_verdict.trace)
