"""Power series, radius of convergence, Taylor remainders, and constants.

Also home of the certified elementary enclosures (exp, ln, sin, cos, pi):
exp, ln and pi are partial sums of an exact rational series, and sin and
cos fixed-point sums on a 2^-B grid with an integer count of the rounding
error; each adds an explicit tail bound, so every returned interval really
contains the target value.
Coefficient generators are lazy and memoized; truncation orders are always
explicit in results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, comb, factorial
from typing import Callable, Optional

from certreal.core import (
    Enclosure,
    RationalLike,
    _ceil_log10,
    _check_digits,
    _poly_eval,
    sqrt_enclosure,
    to_rational,
)

# re-exported for callers that reach elementary enclosures through this module
__all__ = [
    "PowerSeries",
    "RadiusInfo",
    "TaylorApprox",
    "binomial_series",
    "constants",
    "cos_enclosure",
    "exp_enclosure",
    "exp_enclosure_over",
    "harmonic_number_enclosure",
    "euler_gamma_window",
    "ln_enclosure",
    "make_power_series",
    "ode_recurrence_sin",
    "pi_enclosure",
    "remainder_enclosure",
    "sin_enclosure",
    "sqrt_enclosure",
    "taylor_poly",
]


def _ratio_sum(num: int, den: int, p: tuple[int, int], q: tuple[int, int],
               first: int, scale: int) -> tuple[int, int, int, int, int]:
    """(N, D, M, T, E): N/D = M/E = t_0 + ... + t_k and T/E = t_(k+1) for
    the series t_0 = num/den, t_(j+1) = t_j p(j)/q(j) with p(j) = p0 + p1 j
    and q(j) = q0 + q1 j >= 1, where k is the first index >= `first`
    with scale |T| <= E; the fractions are not reduced."""
    # N/D is kept over D_j = den q(0)...q(j-1) and the next term's numerator
    # T over E = D_j q(j), so the loop runs in integers: N_(j+1) = N_j q(j) +
    # T_(j+1), and E becomes the next D.  bits(T) + bits(scale) <= bits(E) + 1
    # is necessary for scale |T| <= E and costs no multiplication.
    #
    # Termination: every caller's terms tend to 0, so scale |t_(k+1)| <= 1
    # holds from some k >= first on.
    p0, p1 = p
    q0, q1 = q
    bits = scale.bit_length()
    term, j = num, 0
    while True:
        step = q0 + q1 * j
        term *= p0 + p1 * j
        nxt_den = den * step
        if (j >= first and term.bit_length() + bits <= nxt_den.bit_length() + 1
                and scale * abs(term) <= nxt_den):
            return num, den, num * step, term, nxt_den
        num, den, j = num * step + term, nxt_den, j + 1


def _exp_series(a: int, b: int, digits: int) -> tuple[int, int, int, int]:
    """(N, D, H, G) with N/D <= e^(a/b) <= H/G and H/G - N/D <= 10^-digits,
    for integers a > 0 < b; the fractions are not reduced."""
    # Terms q^k/k! for q = a/b, ratio a/(b(k+1)).  From the first k >= 1 with
    # (k+1) b >= 2a the ratio is <= 1/2, so the tail after term k is at most
    # twice the next term.
    first = max(1, -(-2 * a // b) - 1)  # the least k >= 1 with (k+1) b >= 2a
    num, den, mid, term, nxt_den = _ratio_sum(1, 1, (a, 0), (b, b), first, 2 * 10**digits)
    return num, den, mid + 2 * term, nxt_den


def _exp_negative_shift(a: int, b: int, digits: int) -> Optional[int]:
    """m with e^(-a/b) <= 2^-m <= 10^-digits and m = O(digits), when
    e^(-a/b) is that small (a, b > 0); otherwise None."""
    # e^(-a/b) <= 2^-m for m = floor(1.442 a/b), as 1.442 < log2(e).
    # Once 2^-m <= 10^-digits, [0, 2^-m'] is narrow enough; m' = min(m, cap)
    # keeps the endpoint at O(digits) bits (2^-m' >= 2^-m still bounds
    # e^(-a/b), and 2^-cap < 10^-digits).
    cap = 4 * digits + 64
    m = 1442 * a // (1000 * b)
    if m >= cap or 1 << m >= 10**digits:
        return min(m, cap)
    return None


def _exp_negative(a: int, b: int, digits: int) -> tuple[int, int, int, int]:
    """(L, M, U, V) with L/M <= e^(-a/b) <= U/V and U/V - L/M <= 10^-digits,
    for integers a > 0 < b; the fractions are not reduced."""
    shift = _exp_negative_shift(a, b, digits)
    if shift is not None:
        return 0, 1, 1, 1 << shift
    # e^(-a/b) = 1/e^(a/b) in [G/H, D/N] from N/D <= e^(a/b) <= H/G.  Both
    # ends are at most 1, so D/N - G/H = (H/G - N/D)(D/N)(G/H) <= 10^-digits.
    num, den, hi_num, hi_den = _exp_series(a, b, digits)
    return hi_den, hi_num, den, num


def _exp_negative_grid(a: int, b: int, digits: int, p: int = 1, q: int = 1) -> tuple[int, int]:
    """Integers (lo, hi) with lo 10^-digits <= (p/q) e^(-a/b) <= hi 10^-digits
    and hi - lo <= 2, for integers a > 0 < b and q > 0.

    e^(-a/b) is bracketed at 10^-(digits+k) with 10^k >= |p/q|, so the
    product bracket is at most 10^-digits wide (its ends swap for p < 0),
    and each end is rounded outward once onto the grid.
    """
    lo_num, lo_den, hi_num, hi_den = _exp_negative(a, b, digits + _ceil_log10(-(-abs(p) // q)))
    if p < 0:
        lo_num, lo_den, hi_num, hi_den = hi_num, hi_den, lo_num, lo_den
    scale = 10**digits * p
    return lo_num * scale // (lo_den * q), -(-hi_num * scale // (hi_den * q))


def exp_enclosure(q: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of e**q of width <= 10**-digits."""
    _check_digits(digits)
    q = to_rational(q)
    if q == 0:
        return Enclosure.point(1)
    if q < 0:
        lo_num, lo_den, hi_num, hi_den = _exp_negative(-q.numerator, q.denominator, digits)
    else:
        lo_num, lo_den, hi_num, hi_den = _exp_series(q.numerator, q.denominator, digits)
    return Enclosure(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))


def exp_enclosure_over(x: Enclosure, digits: int = 12) -> Enclosure:
    """Enclosure of exp over an input enclosure (exp is increasing)."""
    lo = exp_enclosure(x.lo, digits)
    hi = exp_enclosure(x.hi, digits)
    return Enclosure(lo.lo, hi.hi)


# One entry each: it serves a run of calls at one digit count, where a
# cache per digit count would grow for the life of the process.
_LN2_CACHE: dict[int, Enclosure] = {}


def _atanh_small(z: Fraction, digits: int) -> Enclosure:
    # atanh(z) = sum z^(2j+1)/(2j+1) for |z| < 1; geometric tail bound.
    target = Fraction(1, 10**digits)
    z2 = z * z
    if z2 >= 1:
        raise ValueError("atanh argument out of range")
    total = Fraction(0)
    power = z
    j = 0
    # Termination: the bound shrinks by the factor z^2 < 1 per step.
    while True:
        total += power / (2 * j + 1)
        power *= z2
        j += 1
        bound = abs(power) / ((2 * j + 1) * (1 - z2))
        if bound <= target:
            return Enclosure(total - bound, total + bound)


def _ln2(digits: int) -> Enclosure:
    value = _LN2_CACHE.get(digits)
    if value is None:
        value = _atanh_small(Fraction(1, 3), digits).scale(2)
        _LN2_CACHE.clear()
        _LN2_CACHE[digits] = value
    return value


def ln_enclosure(q: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of ln(q) for rational q > 0, width <= 10**-digits.

    Range-reduces by powers of two, then sums the fast artanh series
    ln(m) = 2 artanh((m-1)/(m+1)) on m in [2/3, 4/3].
    """
    _check_digits(digits)
    q = to_rational(q)
    if q <= 0:
        raise ValueError("ln of a non-positive rational")
    if q == 1:
        return Enclosure.point(0)
    k = 0
    m = q
    while m > Fraction(4, 3):
        m /= 2
        k += 1
    while m < Fraction(2, 3):
        m *= 2
        k -= 1
    inner = digits + len(str(abs(k) + 1)) + 1
    main = _atanh_small((m - 1) / (m + 1), inner).scale(2)
    if k == 0:
        return main
    return main + _ln2(inner).scale(k)


def _sin_like(q: Fraction, digits: int, cosine: bool) -> Enclosure:
    """sin(q) or cos(q), q = a/b != 0, summed in fixed point on the grid
    2^-B, B = bits(10^digits) + guard; the endpoints are over 2^B whatever
    the size of b, and the width is at most 10^-digits.

    With x = |q| and n = 2j (cos) or 2j + 1 (sin), term j is x^n/n!, and
    the ratio from term j to j + 1 is a^2/(b^2 s_j) with s_j = (n+1)(n+2).
    T_j holds term j times 2^B, rounded down from the exact ratio each step
    (T_0 = 2^B for cos, floor(|a| 2^B / b) for sin), and e_j bounds its
    error in grid units: e_0 = 0 for cos and 1 for sin, e_(j+1) =
    ceil(e_j a^2/(b^2 s_j)) + 1.  So S = sum (-1)^j T_j over j <= k is off
    by at most E = e_0 + ... + e_k.  From the index `first`, where n >= 2x,
    the ratio is below 1/4, so the tail after term k is at most twice term
    k + 1, which is at most T_(k+1) + e_(k+1).  The loop stops at the first
    k >= first with 2E + 4(T_(k+1) + e_(k+1)) <= floor(2^B / 10^digits) and
    returns S -+ (E + 2(T_(k+1) + e_(k+1))) over 2^B, cut to [-1, 1].

    Guard and termination.  The ratios from term i to term j multiply to
    x^(2(j-i)) n_i!/n_j! <= x^(2(j-i))/(2(j-i))! <= e^x, so no term exceeds
    e^x, and unrolling e_(j+1) <= e_j r_j + 2 gives e_j <= (1 + 2j) e^x and
    E <= (k+1)^2 e^x.  Let X = ceil(1.443 a/b) >= x log2(e), m =
    ceil((X + bits(10^digits) + 2)/2) and K = first + m, so that 4^m >=
    4 e^x 10^digits.  At k = K the stop test's left side is then at most
    2(K+5)^2 e^x + 2^B/(4 10^digits), and the guard X + 2 bits(K+5) + 2
    bounds the first part by 2^guard/2 <= 2^B/(2 10^digits).  So the test
    holds by k = K, and B <= digits log2(10) + 1 + X + 2 bits(K+5) + 2.
    """
    a, b = abs(q.numerator), q.denominator
    a2, b2 = a * a, b * b
    if cosine:
        offset, first = 0, -(-a // b)  # the least j with 2j b >= 2a
    else:
        offset, first = 1, -(-(2 * a - b) // (2 * b))  # the least j with (2j+1) b >= 2a
    first = max(1, first)
    scale = 10**digits
    exp_bits = -(-1443 * a // (1000 * b))
    last = first + (exp_bits + scale.bit_length() + 3) // 2
    shift = scale.bit_length() + exp_bits + 2 * (last + 5).bit_length() + 2
    budget = (1 << shift) // scale
    budget_bits = budget.bit_length()
    if cosine:
        term, err = 1 << shift, 0
    else:
        term, err = (a << shift) // b, 1
    total, errs = term, err
    for j in range(last + 1):
        den = b2 * (2 * j + offset + 1) * (2 * j + offset + 2)
        term = term * a2 // den
        err = -(-err * a2 // den) + 1
        if (j >= first and term.bit_length() + 2 <= budget_bits
                and 2 * errs + 4 * (term + err) <= budget):
            break
        total = total - term if j % 2 == 0 else total + term
        errs += err
    else:  # the docstring shows the test holds by j = last
        raise RuntimeError(f"sin/cos series past its term bound {last}")
    if not cosine and q < 0:
        total = -total
    rad = errs + 2 * (term + err)
    return Enclosure(Fraction(total - rad, 1 << shift),
                     Fraction(total + rad, 1 << shift)).intersect(Enclosure(-1, 1))


def sin_enclosure(q: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of sin(q) of width <= 10**-digits (no argument reduction;
    intended for desk-scale |q|).  The Taylor series is summed in fixed
    point (`_sin_like`): the endpoints are dyadic over 2^B with B about
    digits log2(10) + 1.443|q| + 2 log2(terms), whatever q's denominator."""
    _check_digits(digits)
    q = to_rational(q)
    if q == 0:
        return Enclosure.point(0)
    return _sin_like(q, digits, cosine=False)


def cos_enclosure(q: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of cos(q) of width <= 10**-digits, summed in fixed point
    as sin_enclosure: dyadic endpoints over 2^B, B as there."""
    _check_digits(digits)
    q = to_rational(q)
    if q == 0:
        return Enclosure.point(1)
    return _sin_like(q, digits, cosine=True)


def _atan_inverse_integer(m: int, digits: int) -> Enclosure:
    # atan(1/m) = sum (-1)^j / ((2j+1) m^(2j+1)): an alternating series with
    # strictly decreasing terms, ratio -(2j+1)/((2j+3) m^2).  The consecutive
    # partial sums bracket the limit, and those brackets are nested as more
    # terms are taken, which keeps higher-precision enclosures inside
    # lower-precision ones.
    m2 = m * m
    num, den, mid, term, nxt_den = _ratio_sum(1, m, (-1, -2), (3 * m2, 2 * m2), 0, 10**digits)
    total, after = Fraction(num, den), Fraction(mid + term, nxt_den)
    return Enclosure(min(total, after), max(total, after))


_PI_CACHE: dict[int, Enclosure] = {}  # one entry, as _LN2_CACHE


def pi_enclosure(digits: int = 12) -> Enclosure:
    """Enclosure of pi of width <= 10**-digits (Machin's identity,
    with the alternating-series tail estimate on each arctangent).  Each
    arctangent series is summed in integers over one common denominator."""
    _check_digits(digits)
    value = _PI_CACHE.get(digits)
    if value is None:
        inner = digits + 2
        a = _atan_inverse_integer(5, inner)
        b = _atan_inverse_integer(239, inner)
        value = a.scale(16) - b.scale(4)
        _PI_CACHE.clear()
        _PI_CACHE[digits] = value
    return value


# --- power series data model -------------------------------------------------

@dataclass(frozen=True)
class RadiusInfo:
    """Radius of convergence: exact value, infinite, zero, or a scan window.

    `at_least` marks lower-bound-only knowledge (Cauchy products).
    Endpoint behavior is recorded only as registered per-family facts.
    """

    kind: str  # "exact" | "infinite" | "zero" | "window" | "unknown"
    value: Optional[Fraction] = None
    window: Optional[Enclosure] = None
    at_least: bool = False
    left_endpoint: Optional[str] = None
    right_endpoint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "infinite", "zero", "window", "unknown"):
            raise ValueError(f"bad radius kind {self.kind!r}")
        if self.kind == "exact" and self.value is None:
            raise ValueError("exact radius needs a value")
        if self.kind == "window" and self.window is None:
            raise ValueError("window radius needs a window")


def _radius_at_least(a: RadiusInfo, b: RadiusInfo) -> RadiusInfo:
    """A lower bound on the radius of a sum or Cauchy product of two series
    with radii a and b: zero if either is zero, else the smaller known
    radius; an unknown or window radius gives the window (0, 0)."""
    if "zero" in (a.kind, b.kind):
        return RadiusInfo("zero", at_least=True)
    if a.kind == b.kind == "infinite":
        return RadiusInfo("infinite", at_least=True)
    if {a.kind, b.kind} <= {"exact", "infinite"}:
        return RadiusInfo("exact", value=min(i.value for i in (a, b) if i.kind == "exact"),
                          at_least=True)
    return RadiusInfo("window", window=Enclosure(0, 0), at_least=True)


def _peak(ratio: Callable[[int], Fraction], start: RationalLike = 0) -> Fraction:
    """Exact max over n >= 0 of t_n = ratio(0) * ... * ratio(n-1) (t_0 = 1).

    Termination: the caller's ratio tends to a limit below 1, so some
    n > start has ratio(n-1) < 1; past `start` the ratio stays below 1 once
    it gets there, so no later t_n beats the computed ones.
    """
    best = term = Fraction(1)
    n = 0
    while True:
        step = ratio(n)
        term *= step
        n += 1
        if term > best:
            best = term
        if n > start and step < 1:
            return best


def _geo_poly_max(t: Fraction) -> Fraction:
    """Exact max over n >= 0 of (n+1) * t**n for 0 < t < 1."""
    return _peak(lambda n: Fraction(n + 2, n + 1) * t)


Domination = Callable[[Fraction], tuple[Fraction, Fraction]]


@dataclass
class PowerSeries:
    """sum c_n (x - center)^n with a lazy memoized coefficient generator.

    `domination(R1) -> (M, R2)` returns rationals with |c_n| R2**n <= M for
    all n and R2 > R1; it is the certificate that powers `eval_with_tail`.
    The memo is an append-only cache of a pure generator (identical values
    on concurrent fills), so last-write-wins is safe.
    """

    gen: Callable[[int], Fraction]
    center: Fraction = Fraction(0)
    radius_info: RadiusInfo = field(default_factory=lambda: RadiusInfo("unknown"))
    domination: Optional[Domination] = None
    name: str = ""
    _memo: dict = field(default_factory=dict, repr=False)

    def coeff(self, n: int) -> Fraction:
        if n < 0:
            raise IndexError("negative coefficient index")
        if n not in self._memo:
            self._memo[n] = to_rational(self.gen(n))
        return self._memo[n]

    def coeffs(self, upto: int) -> list[Fraction]:
        return [self.coeff(n) for n in range(upto + 1)]

    def partial_value(self, x: RationalLike, terms: int) -> Fraction:
        """Exact partial sum through order `terms` (empirical: no tail)."""
        return _poly_eval(self.coeffs(terms), to_rational(x) - self.center)

    def eval_with_tail(self, x: RationalLike, terms: int) -> Enclosure:
        """Certified evaluation: partial sum +- M r^(n+1)/(1-r), r = R1/R2.

        Requires registered domination data; without it, use
        `partial_value` (explicitly uncertified) instead.
        """
        x = to_rational(x)
        if self.domination is None:
            raise ValueError(
                f"{self.name or 'series'} has no domination data; "
                "eval_with_tail would be uncertified (use partial_value)"
            )
        r1 = abs(x - self.center)
        m, r2 = self.domination(r1)
        if r1 >= r2:
            raise ValueError("domination radius does not exceed |x - center|")
        ratio = r1 / r2
        tail = m * ratio ** (terms + 1) / (1 - ratio)
        return Enclosure.from_midrad(self.partial_value(x, terms), tail)

    # -- calculus and algebra --

    def derive(self) -> "PowerSeries":
        """Term-by-term derivative; the radius of convergence is preserved."""
        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            m, r2 = self.domination(r1)  # type: ignore[misc]
            r_mid = (r1 + r2) / 2
            return m / r2 * _geo_poly_max(r_mid / r2), r_mid

        return _derived(lambda n: (n + 1) * self.coeff(n + 1), dom,
                        f"derive({self.name})" if self.name else "", self)

    def integrate_termwise(self, constant: RationalLike = 0) -> "PowerSeries":
        """Term-by-term antiderivative with the given constant term."""
        constant = to_rational(constant)

        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            m, r2 = self.domination(r1)  # type: ignore[misc]
            return max(m * r2, abs(constant)), r2

        return _derived(lambda n: constant if n == 0 else self.coeff(n - 1) / n, dom,
                        f"integrate({self.name})" if self.name else "", self)

    def cauchy_product(self, other: "PowerSeries") -> "PowerSeries":
        """Coefficient convolution; radius >= min of the factor radii."""
        a, b = self, other

        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            ma, r2a = a.domination(r1)  # type: ignore[misc]
            mb, r2b = b.domination(r1)  # type: ignore[misc]
            r2 = min(r2a, r2b)
            r_mid = (r1 + r2) / 2
            return ma * mb * _geo_poly_max(r_mid / r2), r_mid

        return _derived(
            lambda n: sum((a.coeff(m) * b.coeff(n - m) for m in range(n + 1)), Fraction(0)),
            dom, f"({a.name})*({b.name})", a, b, op="Cauchy product")

    def add(self, other: "PowerSeries") -> "PowerSeries":
        a, b = self, other

        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            ma, r2a = a.domination(r1)  # type: ignore[misc]
            mb, r2b = b.domination(r1)  # type: ignore[misc]
            return ma + mb, min(r2a, r2b)

        return _derived(lambda n: a.coeff(n) + b.coeff(n), dom, f"({a.name})+({b.name})",
                        a, b, op="sum")

    def scale(self, k: RationalLike) -> "PowerSeries":
        k = to_rational(k)

        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            m, r2 = self.domination(r1)  # type: ignore[misc]
            return abs(k) * m, r2

        return _derived(lambda n: k * self.coeff(n), dom, f"{k}*({self.name})", self)


def _derived(gen: Callable[[int], Fraction], dom: Domination, name: str,
             *parents: PowerSeries, op: str = "") -> PowerSeries:
    """The series of coefficients gen(n) built from one parent or two that
    share a centre: it takes their centre, the parent's radius or a lower
    bound from both radii, and keeps `dom` only when every parent has
    domination data."""
    base = parents[0]
    radius_info = base.radius_info
    if len(parents) == 2:
        if base.center != parents[1].center:
            raise ValueError(f"{op} needs a shared center")
        radius_info = _radius_at_least(radius_info, parents[1].radius_info)
    keep = all(p.domination is not None for p in parents)
    return PowerSeries(gen, base.center, radius_info, dom if keep else None, name)


def radius(ps: PowerSeries, mode: str, horizon: int = 64) -> RadiusInfo:
    """Radius of convergence: registered closed form, or a ratio-scan window.

    The window mode returns the reciprocals of |c_{n+1}/c_n| over the back
    half of the scan as an enclosure; it is a diagnostic, not a limit.
    """
    if mode == "closed_form":
        if ps.radius_info.kind == "unknown":
            raise ValueError(f"{ps.name or 'series'} has no registered radius")
        return ps.radius_info
    if mode != "ratio_window":
        raise ValueError(f"unknown mode {mode!r}")
    lo = max(1, horizon // 2)
    recips = []
    for n in range(lo, horizon + 1):
        c_n, c_next = ps.coeff(n), ps.coeff(n + 1)
        if c_n == 0 or c_next == 0:
            continue
        recips.append(abs(c_n / c_next))
    if not recips:
        raise ValueError(
            "no consecutive nonzero coefficients in the scanned range; "
            "use closed_form for sparse series"
        )
    return RadiusInfo("window", window=Enclosure(min(recips), max(recips)))


# --- registered families ------------------------------------------------------

def _dom_factorial_like(r1: Fraction) -> tuple[Fraction, Fraction]:
    # |c_n| <= 1/n!: exact max of R2^n/n! over n.
    r2 = r1 + 1
    return _peak(lambda n: r2 / (n + 1)), r2


def _dom_unit_coeff(r1: Fraction) -> tuple[Fraction, Fraction]:
    # |c_n| <= 1 with radius 1.
    if r1 >= 1:
        raise ValueError("argument outside the unit disk")
    return Fraction(1), (r1 + 1) / 2


def _unit_disk(left: str, right: str) -> RadiusInfo:
    return RadiusInfo("exact", value=Fraction(1), left_endpoint=left, right_endpoint=right)


# The fixed families of `make_power_series`, each centred at 0 and named by
# the family: (c_n, radius, domination).
_POWER_FAMILIES: dict[str, tuple[Callable[[int], Fraction], RadiusInfo, Optional[Domination]]] = {
    "exp": (lambda n: Fraction(1, factorial(n)), RadiusInfo("infinite"), _dom_factorial_like),
    "geometric": (lambda n: Fraction(1), _unit_disk("diverges", "diverges"), _dom_unit_coeff),
    "log_neg": (lambda n: Fraction(0) if n == 0 else Fraction(1, n),
                _unit_disk("converges", "diverges"), _dom_unit_coeff),
    "p2": (lambda n: Fraction(0) if n == 0 else Fraction(1, n * n),
           _unit_disk("converges", "converges"), _dom_unit_coeff),
    "factorial": (lambda n: Fraction(factorial(n)), RadiusInfo("zero"), None),
    "zero": (lambda n: Fraction(0), RadiusInfo("infinite"), lambda r1: (Fraction(0), r1 + 1)),
}


def make_power_series(family: str, **params) -> PowerSeries:
    """Registered power-series families (all centered at 0).

    The fixed families are one table, `_POWER_FAMILIES`: exp; geometric
    (sum x^n, 1/(1-x)); log_neg (sum x^n/n, -ln(1-x)); p2 (sum x^n/n^2);
    factorial (sum n! x^n); zero.  sin and cos come from
    `ode_recurrence_sin`; binomial takes alpha, and polynomial takes
    coeffs (and optionally center and name).
    """
    if family in _POWER_FAMILIES:
        gen, radius_info, dom = _POWER_FAMILIES[family]
        return PowerSeries(gen, Fraction(0), radius_info, dom, family)
    if family in ("sin", "cos"):
        sin_ps, cos_ps = ode_recurrence_sin()
        return sin_ps if family == "sin" else cos_ps
    if family == "binomial":
        return binomial_series(params["alpha"])
    if family == "polynomial":
        coeffs = tuple(to_rational(c) for c in params["coeffs"])

        def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
            r2 = r1 + 1
            return sum((abs(c) * r2**i for i, c in enumerate(coeffs)), Fraction(0)), r2

        return PowerSeries(
            lambda n: coeffs[n] if n < len(coeffs) else Fraction(0),
            to_rational(params.get("center", 0)),
            RadiusInfo("infinite"),
            dom,
            params.get("name", "polynomial"),
        )
    raise ValueError(f"unknown family {family!r}")


def ode_recurrence_sin() -> tuple[PowerSeries, PowerSeries]:
    """Sine and cosine series from c_{n+2} = -c_n / ((n+1)(n+2)).

    Seeds c_0 = 0, c_1 = 1 (value and slope at 0); the cosine series is the
    term-by-term derivative.
    """
    memo: dict[int, Fraction] = {0: Fraction(0), 1: Fraction(1)}

    def gen(n: int) -> Fraction:
        if n not in memo:
            prev = gen(n - 2)
            memo[n] = -prev / ((n - 1) * n)
        return memo[n]

    sin_ps = PowerSeries(
        gen, Fraction(0), RadiusInfo("infinite"), _dom_factorial_like, "sin"
    )
    derived = sin_ps.derive()
    cos_ps = PowerSeries(
        derived.gen, Fraction(0), RadiusInfo("infinite"), _dom_factorial_like, "cos"
    )
    return sin_ps, cos_ps


def binomial_series(alpha: RationalLike) -> PowerSeries:
    """Generalized binomial series sum C(alpha, k) x^k.

    Terminates (the polynomial family) for nonnegative integer alpha;
    otherwise the radius of convergence is exactly 1.
    """
    alpha = to_rational(alpha)
    if alpha.denominator == 1 and alpha >= 0:
        top = int(alpha)
        return make_power_series("polynomial", coeffs=[comb(top, k) for k in range(top + 1)],
                                 name=f"binomial({alpha})")
    memo: dict[int, Fraction] = {0: Fraction(1)}

    def gen(k: int) -> Fraction:
        if k not in memo:
            prev = gen(k - 1)
            memo[k] = prev * (alpha - (k - 1)) / k
        return memo[k]

    def dom(r1: Fraction) -> tuple[Fraction, Fraction]:
        if r1 >= 1:
            raise ValueError("argument outside the unit disk")
        r2 = (r1 + 1) / 2
        # for k > |alpha| - 1 the ratio |alpha - k| r2 / (k+1) tends to
        # r2 < 1: below r2 throughout for alpha > -1, decreasing otherwise
        return _peak(lambda k: abs(alpha - k) * r2 / (k + 1), abs(alpha)), r2

    return PowerSeries(
        gen,
        Fraction(0),
        RadiusInfo("exact", value=Fraction(1)),
        dom,
        f"binomial({alpha})",
    )


# --- Taylor polynomials with certified remainders ----------------------------

# The registered Taylor tags, each with its default bound on |f^(order+1)|
# over [-r, r]: 3^max(1, ceil(r)) >= e^r for exp (e <= 3), 1 for sin and
# cos.  A "poly" bound comes from its coefficients (`taylor_poly`).
_TAYLOR_BOUNDS: dict[str, Optional[Callable[[Fraction], Fraction]]] = {
    "exp": lambda r: Fraction(3) ** max(1, ceil(r)),
    "sin": lambda r: Fraction(1),
    "cos": lambda r: Fraction(1),
    "poly": None,
}


@dataclass(frozen=True)
class TaylorApprox:
    """Taylor polynomial of a tagged base function with remainder data.

    deriv_bound B satisfies sup |f^(order+1)| <= B on the stated segment
    [center - radius, center + radius]; the optional deriv_range sharpens
    the Lagrange form to a one-sided bracket when the (order+1)-st
    derivative has known range on the segment.
    """

    tag: str
    center: Fraction
    order: int
    coeffs: tuple[Fraction, ...]
    radius: Fraction
    deriv_bound: Fraction
    deriv_range: Optional[tuple[Fraction, Fraction]] = None

    def poly_value(self, x: RationalLike) -> Fraction:
        return _poly_eval(self.coeffs, to_rational(x) - self.center)


def _recentre(coeffs: tuple[Fraction, ...], x0: Fraction) -> tuple[Fraction, ...]:
    """Rewrite sum a_i x^i as sum b_k (x - x0)^k: b_k = sum_(i>=k) a_i C(i, k) x0^(i-k)."""
    return tuple(
        sum((a * comb(i, k) * x0 ** (i - k) for i, a in enumerate(coeffs[k:], k)), Fraction(0))
        for k in range(len(coeffs))
    )


def taylor_poly(
    tag: str,
    x0: RationalLike,
    order: int,
    radius: RationalLike = 1,
    deriv_bound: Optional[RationalLike] = None,
    deriv_range: Optional[tuple[RationalLike, RationalLike]] = None,
    coeffs: Optional[tuple[RationalLike, ...]] = None,
) -> TaylorApprox:
    """Taylor polynomial of a registered base function at x0.

    Registered tags: "exp", "sin", "cos" (center 0 only, exact rational
    coefficients) and "poly" (any center, pass `coeffs` in the monomial
    basis).  The certified remainder needs a bound B >= sup |f^(order+1)|
    on [x0 - radius, x0 + radius]; defaults ship for the registered tags
    (e <= 3 powers the exponential bound), and a caller-supplied bound or
    derivative range always wins.
    """
    x0, radius = to_rational(x0), to_rational(radius)
    if order < 0 or radius <= 0:
        raise ValueError("need order >= 0 and radius > 0")
    if tag not in _TAYLOR_BOUNDS:
        raise ValueError(f"unknown Taylor tag {tag!r}")
    if tag == "poly":
        if coeffs is None:
            raise ValueError("poly tag needs coeffs")
        base = tuple(to_rational(c) for c in coeffs)
        shifted = _recentre(base, x0) if x0 != 0 else base
        use = shifted[: order + 1]
        if deriv_bound is None:
            # sup of |p^(order+1)| on the segment via coefficient bounds
            reach = abs(x0) + radius
            deriv_bound = Fraction(0)
            for i in range(order + 1, len(base)):
                fall = Fraction(factorial(i), factorial(i - order - 1))
                deriv_bound += abs(base[i]) * fall * reach ** (i - order - 1)
    else:
        if x0 != 0:
            raise ValueError(f"registered tag {tag!r} ships exact coefficients at 0 only")
        series = make_power_series(tag)
        use = tuple(series.coeff(k) for k in range(order + 1))
        if deriv_bound is None:
            deriv_bound = _TAYLOR_BOUNDS[tag](radius)  # type: ignore[misc]
    rng = None
    if deriv_range is not None:
        rng = (to_rational(deriv_range[0]), to_rational(deriv_range[1]))
        if rng[0] > rng[1]:
            raise ValueError("derivative range out of order")
    return TaylorApprox(
        tag, x0, order, tuple(use), radius, to_rational(deriv_bound), rng
    )


def remainder_enclosure(t: TaylorApprox, x: RationalLike) -> Enclosure:
    """Enclosure of f(x) = T_n(x) + remainder via the Lagrange form.

    With a derivative range (lo, hi) the bracket is one-sided sharp:
    remainder in [lo, hi] * (x-x0)^(n+1) / (n+1)!.
    """
    x = to_rational(x)
    if abs(x - t.center) > t.radius:
        raise ValueError("x outside the certified segment")
    base = t.poly_value(x)
    u = (x - t.center) ** (t.order + 1)
    fact = factorial(t.order + 1)
    if t.deriv_range is not None:
        lo, hi = t.deriv_range
        candidates = (lo * u / fact, hi * u / fact)
        return Enclosure(base + min(candidates), base + max(candidates))
    rad = t.deriv_bound * abs(u) / fact
    return Enclosure.from_midrad(base, rad)


# --- constants ---------------------------------------------------------------

def harmonic_number_enclosure(n: int, digits: int = 25) -> Enclosure:
    """H_n to fixed precision: each 1/k rounds down, so H_n is bracketed by
    [S, S + n] ulps of 10**-digits."""
    if n < 1:
        raise ValueError("n must be >= 1")
    scale = 10**digits
    low = sum(scale // k for k in range(1, n + 1))
    return Enclosure(Fraction(low, scale), Fraction(low + n, scale))


def euler_gamma_window(n: int, digits: int = 15) -> Enclosure:
    """Certified enclosure of the Euler-Mascheroni constant from c_n = H_n - ln n.

    gamma <= c_n (the sequence decreases), and c_n - gamma <= 1/n because
    c_k - c_{k+1} <= 1/(k(k+1)) telescopes; both bounds are exact.
    """
    c_n = harmonic_number_enclosure(n, digits) - ln_enclosure(Fraction(n), digits)
    return Enclosure(c_n.lo - Fraction(1, n), c_n.hi)


def constants(which: str, n: int) -> Enclosure:
    """Named constants with explicit truncation order n.

    e: sum of 1/k! through n, tail in (0, 3/(n+1)!]; ln2 and pi_over_4 via
    the alternating-series estimate at n terms of 1/k or 1/(2k - 1), which
    decrease by construction; euler_gamma: enclosure of the estimate
    c_n = H_n - ln n (the estimate exceeds gamma by roughly 1/(2n); see
    `euler_gamma_window` for an enclosure of gamma itself).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if which == "e":
        # Terms 1/k!, ratio 1/(k+1).  With scale 1 the kernel stops at
        # exactly k = n, since t_(n+1) = 1/(n+1)! <= 1.
        num, den, mid, term, nxt_den = _ratio_sum(1, 1, (1, 0), (1, 1), n, 1)
        return Enclosure(Fraction(num, den), Fraction(mid + 3 * term, nxt_den))
    if which in ("ln2", "pi_over_4"):
        from certreal.series import _alternating_bracket

        step = 1 if which == "ln2" else 2
        top = step * n + 1  # the tail 1/(n + 1) or 1/(2n + 1)
        return _alternating_bracket([1] * n, range(1, top, step), Fraction(1, top))
    if which == "euler_gamma":
        return harmonic_number_enclosure(n, 25) - ln_enclosure(Fraction(n), 25)
    raise ValueError(f"unknown constant {which!r}")
