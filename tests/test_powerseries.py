from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from certreal.core import (
    Enclosure,
    approx_real,
    nth_root_enclosure,
    rational_power_enclosure,
    sqrt_enclosure,
)
from certreal.integration import gamma
from certreal.powerseries import (
    PowerSeries,
    RadiusInfo,
    _atan_inverse_integer,
    _recentre,
    binomial_series,
    constants,
    cos_enclosure,
    euler_gamma_window,
    exp_enclosure,
    harmonic_number_enclosure,
    ln_enclosure,
    make_power_series,
    ode_recurrence_sin,
    pi_enclosure,
    radius,
    remainder_enclosure,
    sin_enclosure,
    taylor_poly,
)
from conftest import fractions_built


def test_radius_closed_forms():
    assert radius(make_power_series("exp"), "closed_form").kind == "infinite"
    assert radius(make_power_series("factorial"), "closed_form").kind == "zero"
    p2 = radius(make_power_series("p2"), "closed_form")
    assert p2.value == 1
    assert p2.left_endpoint == p2.right_endpoint == "converges"
    geo = radius(make_power_series("geometric"), "closed_form")
    assert geo.value == 1 and geo.right_endpoint == "diverges"


def test_radius_ratio_window():
    window = radius(make_power_series("geometric"), "ratio_window", 64).window
    assert window == Enclosure(1, 1)
    exp_window = radius(make_power_series("exp"), "ratio_window", 64).window
    assert exp_window.lo >= 33  # reciprocals of 1/(n+1) over the scan
    with pytest.raises(ValueError, match="closed_form"):
        radius(make_power_series("sin"), "ratio_window", 32)


def test_derived_series_radius_preserved():
    for family in ("geometric", "log_neg", "p2", "exp", "sin", "cos"):
        base = make_power_series(family)
        assert base.derive().radius_info == base.radius_info
        assert base.integrate_termwise().radius_info == base.radius_info


def test_eval_with_tail_geometric():
    geo = make_power_series("geometric")
    enc = geo.eval_with_tail(F(1, 2), 20)
    assert enc.contains(2)
    nested = geo.eval_with_tail(F(1, 2), 40)
    assert enc.contains(nested)  # enclosures nested in the truncation order
    assert enc.width() <= 2 * F(2, 3) ** 21 * 3


def test_eval_with_tail_exp_at_zero():
    assert make_power_series("exp").eval_with_tail(0, 5) == Enclosure.point(1)


def test_eval_with_tail_derived_geometric():
    # derivative of the geometric series has coefficients n+1: 1/(1-x)^2
    derived = make_power_series("geometric").derive()
    enc = derived.eval_with_tail(F(1, 2), 60)
    assert enc.contains(4)


def test_eval_requires_domination():
    bare = PowerSeries(lambda n: F(1, n + 1))
    with pytest.raises(ValueError, match="domination"):
        bare.eval_with_tail(F(1, 2), 10)
    assert bare.partial_value(F(1, 2), 2) == 1 + F(1, 4) + F(1, 12)


def test_derive_and_integrate_coefficients():
    geo = make_power_series("geometric")
    derived = geo.derive()
    assert derived.coeffs(5) == [n + 1 for n in range(6)]
    log_series = geo.integrate_termwise()
    assert log_series.coeffs(5) == [0] + [F(1, n) for n in range(1, 6)]
    zero = make_power_series("polynomial", coeffs=[F(3)]).derive()
    assert zero.coeffs(4) == [0] * 5


def test_cauchy_product_exp_sin():
    exp_ps, sin_ps = make_power_series("exp"), make_power_series("sin")
    product = exp_ps.cauchy_product(sin_ps)
    assert product.coeffs(5) == [0, 1, 1, F(1, 3), 0, F(-1, 30)]
    assert product.radius_info.kind == "infinite"
    assert product.radius_info.at_least


def test_cauchy_product_with_zero():
    anything = make_power_series("exp")
    zero = make_power_series("zero")
    assert anything.cauchy_product(zero).coeffs(6) == [0] * 7


def test_sum_and_product_radius_is_a_lower_bound():
    # add and cauchy_product share one rule: a zero radius wins, the smaller
    # known radius bounds the rest, and an unknown or window radius gives
    # the window (0, 0)
    geo, fact, exp_ps = (make_power_series(f) for f in ("geometric", "factorial", "exp"))
    unknown = PowerSeries(lambda n: F(1))
    window = RadiusInfo("window", window=Enclosure(0, 0), at_least=True)
    for combine in (PowerSeries.add, PowerSeries.cauchy_product):
        assert combine(geo, fact).radius_info == RadiusInfo("zero", at_least=True)
        assert combine(unknown, fact).radius_info.kind == "zero"
        assert combine(geo, exp_ps).radius_info == RadiusInfo("exact", F(1), at_least=True)
        assert combine(exp_ps, exp_ps).radius_info == RadiusInfo("infinite", at_least=True)
        assert combine(unknown, geo).radius_info == window
        assert combine(geo, combine(unknown, geo)).radius_info == window


def test_derived_series_keep_domination_only_from_dominated_parents():
    # one rule builds every derived series: without domination on a parent
    # the child has none, and a binary operation needs one shared centre
    bare, geo = PowerSeries(lambda n: F(1)), make_power_series("geometric")
    for child in (bare.derive(), bare.integrate_termwise(1), bare.scale(2),
                  bare.add(geo), geo.add(bare), bare.cauchy_product(geo), geo.cauchy_product(bare)):
        assert child.domination is None
    for child in (geo.derive(), geo.integrate_termwise(1), geo.scale(2), geo.add(geo),
                  geo.cauchy_product(geo)):
        assert child.domination is not None
    shifted = make_power_series("polynomial", coeffs=[1, 1], center=1)
    with pytest.raises(ValueError, match="^sum needs a shared center$"):
        geo.add(shifted)
    with pytest.raises(ValueError, match="^Cauchy product needs a shared center$"):
        geo.cauchy_product(shifted)


def test_cauchy_product_geometric_squared():
    geo = make_power_series("geometric")
    squared = geo.cauchy_product(geo)
    upto = 12
    brute = [
        sum(geo.coeff(m) * geo.coeff(n - m) for m in range(n + 1)) for n in range(upto + 1)
    ]
    assert squared.coeffs(upto) == brute == [n + 1 for n in range(upto + 1)]


def test_cauchy_product_bilinear_commutative():
    a, b = make_power_series("exp"), make_power_series("sin")
    ab, ba = a.cauchy_product(b), b.cauchy_product(a)
    assert ab.coeffs(9) == ba.coeffs(9)
    scaled = a.scale(F(3, 2)).cauchy_product(b)
    assert scaled.coeffs(7) == [F(3, 2) * c for c in ab.coeffs(7)]
    summed = a.add(b).cauchy_product(b)
    parts = [x + y for x, y in zip(ab.coeffs(7), b.cauchy_product(b).coeffs(7))]
    assert summed.coeffs(7) == parts


def test_ode_recurrence_sin_cos():
    sin_ps, cos_ps = ode_recurrence_sin()
    assert sin_ps.coeff(1) == 1
    assert sin_ps.coeff(3) == F(-1, 6)
    assert sin_ps.coeff(5) == F(1, 120)
    assert all(sin_ps.coeff(2 * n) == 0 for n in range(8))
    for n in range(1, 11):
        assert sin_ps.coeff(2 * n - 1) == F((-1) ** (n - 1), factorial(2 * n - 1))
    assert cos_ps.coeff(0) == 1 and cos_ps.coeff(2) == F(-1, 2)


def test_sin_cos_pythagorean_at_samples():
    sin_ps, cos_ps = ode_recurrence_sin()
    for x in (F(1, 3), F(1), F(7, 5)):
        s = sin_ps.eval_with_tail(x, 30)
        c = cos_ps.eval_with_tail(x, 30)
        s_sq = s.times(s)
        c_sq = c.times(c)
        assert (s_sq + c_sq).contains(1)


def test_taylor_exp_remainder_width():
    approximation = taylor_poly("exp", 0, 20, radius=1)
    enc = remainder_enclosure(approximation, 1)
    assert enc.width() <= F(3, factorial(21)) * 2  # +-B x^(n+1)/(n+1)! both sides
    assert enc.contains(exp_enclosure(1, 25))


def test_taylor_at_center_is_point():
    approximation = taylor_poly("sin", 0, 5)
    assert remainder_enclosure(approximation, 0) == Enclosure.point(0)


def test_taylor_sin_lower_bound_one_sided():
    # sin(x) - (x - x^3/6) lies in (0, x^4/24] on (0, pi): fourth derivative
    # ranges over [0, 1] there
    approximation = taylor_poly("sin", 0, 3, radius=4, deriv_range=(0, 1))
    for x in (F(1, 2), F(1), F(5, 2), F(3)):
        enc = remainder_enclosure(approximation, x)
        poly = x - x**3 / 6
        assert enc.lo == poly
        assert enc.hi == poly + x**4 / 24
        assert enc.contains(approx_real("sin", x, 20))


def test_taylor_poly_tag_recentre():
    approximation = taylor_poly("poly", 1, 2, radius=2, coeffs=(0, 0, 1))  # x^2 at x0=1
    assert approximation.coeffs == (1, 2, 1)
    assert remainder_enclosure(approximation, F(5, 2)) == Enclosure.point(F(25, 4))


def _reference_recentre(coeffs, x0):
    """Repeated synthetic division by (x - x0), which the binomial shift of
    `_recentre` replaced, kept as the reference for its coefficients."""
    work, out = list(coeffs), []
    while work:
        for i in range(len(work) - 2, -1, -1):
            work[i] += x0 * work[i + 1]
        out.append(work.pop(0))
    return tuple(out)


@given(st.lists(st.fractions(max_denominator=1000), max_size=9), st.fractions(max_denominator=100))
def test_recentre_equals_repeated_division(coeffs, x0):
    assert _recentre(tuple(coeffs), x0) == _reference_recentre(coeffs, x0)


def test_taylor_matches_derivatives_at_center():
    # T_n^(k)(x0) = f^(k)(x0): coefficients k! c_k match the series
    approximation = taylor_poly("exp", 0, 8, radius=2)
    series = make_power_series("exp")
    for k in range(9):
        assert approximation.coeffs[k] == series.coeff(k)


def test_taylor_order_of_approximation():
    # (f - T_n) / (x - x0)^n -> 0 along x0 +- 2^-j (finite surrogate)
    approximation = taylor_poly("exp", 0, 4, radius=1)
    previous = None
    for j in range(1, 9):
        x = F(1, 2**j)
        enc = remainder_enclosure(approximation, x)
        gap = max(abs(enc.hi - approximation.poly_value(x)),
                  abs(enc.lo - approximation.poly_value(x)))
        scaled = gap / x**4
        if previous is not None:
            assert scaled < previous
        previous = scaled


def test_binomial_series_values():
    square = binomial_series(2)
    assert square.coeffs(4) == [1, 2, 1, 0, 0]
    assert square.radius_info.kind == "infinite"
    # a terminating binomial is the polynomial family: sum |C(2, k)| R2^k
    # dominates it, with R2 = r1 + 1
    assert square.name == "binomial(2)"
    assert square.domination(F(1, 2)) == ((1 + F(3, 2)) ** 2, F(3, 2))
    half = binomial_series(F(1, 2))
    assert half.coeffs(3) == [1, F(1, 2), F(-1, 8), F(1, 16)]
    assert half.radius_info.value == 1
    negative = binomial_series(-1)
    assert negative.coeffs(6) == [(-1) ** k for k in range(7)]
    # convolution oracle: (1+x)^-1 * (1+x) = 1
    identity = negative.cauchy_product(binomial_series(1))
    assert identity.coeffs(8) == [1] + [0] * 8


def test_binomial_eval_with_tail():
    half = binomial_series(F(1, 2))
    enc = half.eval_with_tail(F(9, 16), 60)  # sqrt(25/16) = 5/4
    assert enc.contains(F(5, 4))


def test_constants_e():
    enc = constants("e", 20)
    assert enc.width() <= F(3, factorial(21))
    # the 15-decimal reference value agrees with the enclosure at one ulp
    reference = F("2.718281828459046")
    assert abs(enc.midpoint() - reference) <= F(1, 10**15)
    assert enc.contains(exp_enclosure(1, 25))


def test_constants_alternating():
    ln2 = constants("ln2", 10**4)
    assert ln2.width() <= F(2, 10**4 + 1)
    assert ln2.contains(ln_enclosure(2, 20))
    quarter_pi = constants("pi_over_4", 10**4)
    assert quarter_pi.contains(pi_enclosure(20).scale(F(1, 4)))
    assert quarter_pi.contains(F("0.785398"))


def test_constants_euler_gamma_estimate():
    reference = F("0.577215664901532")
    estimate = constants("euler_gamma", 20000)
    # c_n decreases to gamma with gap ~ 1/(2n)
    assert estimate.lo > reference
    assert estimate.midpoint() - reference < F(1, 10**4)
    window = euler_gamma_window(20000, 15)
    assert window.contains(reference)


def test_euler_gamma_monotone_decrease_and_residual():
    values = {n: constants("euler_gamma", n) for n in (100, 200, 400, 800)}
    for n in (100, 200, 400):
        assert values[n].lo > values[2 * n].hi  # strictly decreasing estimates
    # the doubling gap bounds the residual (empirical, as documented)
    reference = F("0.5772156649015328606")
    for n in (100, 200, 400):
        gap = values[n].midpoint() - values[2 * n].midpoint()
        residual = values[2 * n].midpoint() - reference
        assert residual <= gap * F(11, 10)


def test_factorial_e_identity():
    # 0 < n! e - n!(1 + 1 + 1/2! + ... + 1/n!) < 3/(n+1), exactly, against
    # the enclosure midpoint
    for n in (5, 10):
        enclosure = constants("e", 40)
        partial = sum(F(1, factorial(k)) for k in range(n + 1))
        gap = factorial(n) * enclosure.midpoint() - factorial(n) * partial
        assert 0 < gap < F(3, n + 1)


def test_harmonic_number_enclosure():
    exact = sum(F(1, k) for k in range(1, 101))
    enc = harmonic_number_enclosure(100, 20)
    assert enc.contains(exact)
    assert enc.width() <= F(100, 10**20)


def _reference_exp(q: F, digits: int) -> Enclosure:
    """exp_enclosure as a plain Fraction loop: one term and one reduction
    per step.  The integer kernel must return the same endpoints."""
    if q == 0:
        return Enclosure.point(1)
    x = abs(q)
    target = F(1, 10**digits)
    total = term = F(1)
    k = 0
    while True:
        k += 1
        term = term * x / k
        total += term
        nxt = term * x / (k + 1)
        if k + 1 >= 2 * x and 2 * nxt <= target:
            enc = Enclosure(total, total + 2 * nxt)
            return enc if q > 0 else enc.reciprocal()


_EXP_ARGS = st.fractions(min_value=-500, max_value=500, max_denominator=10**6)


@settings(deadline=None)
@given(_EXP_ARGS, st.integers(min_value=1, max_value=80))
def test_exp_enclosure_matches_fraction_loop(q, digits):
    enc = exp_enclosure(q, digits)
    m = 1442 * -q.numerator // (1000 * q.denominator)
    if q < 0 and 2**m >= 10**digits:
        # early exit: e^q <= 2^-m <= 10^-digits, endpoint capped at O(digits) bits
        assert (enc.lo, enc.hi) == (0, F(1, 2 ** min(m, 4 * digits + 64)))
    else:
        ref = _reference_exp(q, digits)
        assert (enc.lo, enc.hi) == (ref.lo, ref.hi)
    assert enc.width() <= F(1, 10**digits)


def test_exp_early_exit_keeps_decreasing():
    # the M-test's majorants e^-n at 8 digits must stay strictly decreasing
    # across the switch from the series to the early exit (n = 19)
    his = [exp_enclosure(-n, 8).hi for n in range(1, 65)]
    assert all(x > y for x, y in zip(his, his[1:]))
    assert exp_enclosure(-18, 8).lo > 0 and exp_enclosure(-19, 8).lo == 0
    assert exp_enclosure(-(10**6), 20).hi == F(1, 2**144)


def _reference_sin_like(q: F, digits: int, cosine: bool) -> Enclosure:
    """sin/cos as a plain Fraction loop, one reduction per term; the
    integer kernel must return the same endpoints."""
    target = F(1, 10**digits)
    total = term = F(1) if cosine else q
    k = 0 if cosine else 1
    while True:
        term = -term * q * q / ((k + 1) * (k + 2))
        k += 2
        total += term
        nxt = abs(term) * q * q / ((k + 1) * (k + 2))
        if k >= 2 * abs(q) and 4 * nxt <= target:
            return Enclosure(total - 2 * nxt, total + 2 * nxt).intersect(Enclosure(-1, 1))


@settings(deadline=None, max_examples=60)
@given(st.fractions(min_value=-24, max_value=24, max_denominator=10**4).filter(lambda q: q != 0),
       st.integers(min_value=1, max_value=120))
def test_sin_cos_enclosures_match_fraction_loop(q, digits):
    for enclosure, cosine in ((sin_enclosure, False), (cos_enclosure, True)):
        enc, ref = enclosure(q, digits), _reference_sin_like(q, digits, cosine)
        assert (enc.lo, enc.hi) == (ref.lo, ref.hi)


def _reference_atan_inverse_integer(m: int, digits: int) -> Enclosure:
    """atan(1/m) as a plain Fraction loop (the same endpoints as the kernel)."""
    target = F(1, 10**digits)
    x = F(1, m)
    total = F(0)
    power = x
    j = 0
    while True:
        total += power / (2 * j + 1) * (-1) ** j
        power *= x * x
        j += 1
        nxt = power / (2 * j + 1)
        if nxt <= target:
            follower = total + nxt * (-1) ** j
            return Enclosure(min(total, follower), max(total, follower))


@settings(deadline=None)
@given(st.one_of(st.sampled_from([5, 239]), st.integers(min_value=2, max_value=10**4)),
       st.integers(min_value=1, max_value=200))
def test_atan_inverse_integer_matches_fraction_loop(m, digits):
    enc, ref = _atan_inverse_integer(m, digits), _reference_atan_inverse_integer(m, digits)
    assert (enc.lo, enc.hi) == (ref.lo, ref.hi)


def test_ratio_series_match_the_fraction_loops_at_their_guards():
    # a deterministic grid through the guard boundaries, where the first
    # index the kernel may stop at decides the endpoints: it holds every
    # q = a/b on which (k+1) b = 2a (exp) or k b = 2|a| (sin/cos) has an
    # integer solution k, and the points between them.  At digits 0, 1 and
    # 4 the guard binds up to q = 3/2; past it the size test binds long after
    # the guard, so the grid stops at q = 4.
    for b in range(1, 13):
        for a in range(1, 4 * b + 1):
            for digits in (0, 1, 4):
                q = F(a, b)
                enc, ref = exp_enclosure(q, digits), _reference_exp(q, digits)
                assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (q, digits)
                for x in (q, -q):
                    for enclosure, cosine in ((sin_enclosure, False), (cos_enclosure, True)):
                        enc, ref = enclosure(x, digits), _reference_sin_like(x, digits, cosine)
                        assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (x, digits, cosine)


def test_atan_inverse_integer_matches_fraction_loop_on_a_grid():
    # atan(1) converges like 1/k, so m = 1 stops at 3 digits
    for m in range(1, 51):
        for digits in range(31 if m > 1 else 4):
            enc, ref = _atan_inverse_integer(m, digits), _reference_atan_inverse_integer(m, digits)
            assert (enc.lo, enc.hi) == (ref.lo, ref.hi), (m, digits)


def test_constants_e_matches_the_factorial_sum():
    for n in [*range(1, 80), 409, 420]:
        s = sum((F(1, factorial(k)) for k in range(n + 1)), F(0))
        assert constants("e", n) == Enclosure(s, s + F(3, factorial(n + 1)))


def _fractions_built(call) -> int:
    with fractions_built() as built:
        call()
    return built.count


def test_sin_cos_pi_build_a_constant_number_of_fractions():
    # a machine-independent counter: the series loops run in integers and
    # build Fractions only for the returned endpoints, so the count does not
    # grow with the number of terms (236 for sin(-11/8) at 1,000 digits,
    # 715 + 210 for pi's two arctangents).  The Fraction loops built 2,840
    # and 5,570 there.
    from certreal import powerseries

    def pi(digits):
        powerseries._PI_CACHE.clear()
        return pi_enclosure(digits)

    for call in (sin_enclosure, cos_enclosure):
        counts = [_fractions_built(lambda: call(F(-11, 8), digits)) for digits in (10, 1000)]
        assert counts[0] == counts[1] <= 6, counts
    counts = [_fractions_built(lambda: pi(digits)) for digits in (10, 1000)]
    assert counts[0] == counts[1] <= 16, counts


def _positive(bound, denominator):
    return st.fractions(min_value=0, max_value=bound, max_denominator=denominator).filter(
        lambda q: q > 0
    )


# name -> (argument strategy or None, largest digit count, guard digits
# covering the digits before the point and the error in q as an mpf,
# enclosure, mpmath reference)
_ORACLE_CASES = {
    "exp": (st.fractions(min_value=-2000, max_value=500, max_denominator=10**6), 80, 230,
            exp_enclosure, lambda mp, q: mp.exp(q)),
    "ln": (_positive(10**6, 10**6), 80, 10, ln_enclosure, lambda mp, q: mp.log(q)),
    "sin": (st.fractions(-20, 20, max_denominator=10**6), 80, 10, sin_enclosure,
            lambda mp, q: mp.sin(q)),
    "cos": (st.fractions(-20, 20, max_denominator=10**6), 80, 10, cos_enclosure,
            lambda mp, q: mp.cos(q)),
    "pi": (None, 80, 10, lambda _, digits: pi_enclosure(digits), lambda mp, _: mp.pi),
    "gamma": (_positive(4, 10**3), 25, 10, gamma, lambda mp, q: mp.gamma(q)),
    # the fixed-point series at up to 60 digits; gamma(16) has 13 digits
    # before the point
    "gamma_small_denominators": (_positive(16, 7), 60, 20, gamma, lambda mp, q: mp.gamma(q)),
    "sqrt": (_positive(10**6, 10**6), 80, 10, sqrt_enclosure, lambda mp, q: mp.sqrt(q)),
    # a tuple draw passes its tail as extra arguments: here the root order n
    "nth_root": (st.tuples(_positive(10**6, 10**6), st.integers(min_value=1, max_value=12)), 80,
                 10, nth_root_enclosure, lambda mp, q, n: mp.root(q, n)),
    # a root order q > digits + 16 goes through exp(s ln x)
    "rational_power_large_q": (
        st.tuples(_positive(10**6, 10**6),
                  st.integers(min_value=97, max_value=10**9).flatmap(
                      lambda q: st.integers(min_value=-3 * q, max_value=3 * q).map(
                          lambda p: F(p, q)))),
        80, 30, rational_power_enclosure,
        lambda mp, x, s: mp.power(x, mp.mpf(s.numerator) / s.denominator)),
    "harmonic_number": (st.integers(min_value=1, max_value=3000).map(F), 80, 10,
                        lambda n, digits: harmonic_number_enclosure(n.numerator, digits),
                        lambda mp, n: mp.harmonic(n)),
    "euler_gamma_window": (st.integers(min_value=1, max_value=3000).map(F), 80, 10,
                           lambda n, digits: euler_gamma_window(n.numerator, digits),
                           lambda mp, _: +mp.euler),
}

# name -> the width each enclosure guarantees, where it is not 10^-digits:
# n ulps for H_n, and gamma's window adds 1/n and the ln width
_ORACLE_WIDTHS = {
    "harmonic_number": lambda n, digits: n / 10**digits,
    "euler_gamma_window": lambda n, digits: (n + 1) / 10**digits + 1 / n,
}


def _assert_contains_mpmath(enc, reference, q, extra, digits, guard, width):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(2 * digits + guard):
        x = mpmath.mpf(q.numerator) / q.denominator
        sign, man, exp, _ = reference(mpmath, x, *extra)._mpf_
    value = F(-man if sign else man) * F(2) ** exp
    slack = F(1, 10 ** (2 * digits))
    assert enc.lo - slack <= value <= enc.hi + slack
    assert enc.width() <= width


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_enclosure_contains_mpmath(name, data):
    """An independent reference, mpmath at twice the requested digits,
    lies inside the enclosure, and the enclosure meets the width bound."""
    args, max_digits, guard, enclosure, reference = _ORACLE_CASES[name]
    drawn = data.draw(args) if args is not None else F(0)
    q, *extra = drawn if isinstance(drawn, tuple) else (drawn,)
    digits = data.draw(st.integers(min_value=1, max_value=max_digits))
    width = _ORACLE_WIDTHS.get(name, lambda _, digits: F(1, 10**digits))(q, digits)
    _assert_contains_mpmath(enclosure(q, *extra, digits), reference, q, extra, digits, guard,
                            width)


@pytest.mark.parametrize("digits", [500, 1000])
@pytest.mark.parametrize("name, q", [("sin", F(-11, 8)), ("sin", F(20)), ("cos", F(355, 113)),
                                     ("cos", F(-7, 3)), ("pi", F(0))])
def test_high_precision_contains_mpmath(name, q, digits):
    """The integer kernels at the precisions the hypothesis oracle does not
    reach: mpmath at twice the digits lies inside, and the width is met."""
    _, _, guard, enclosure, reference = _ORACLE_CASES[name]
    _assert_contains_mpmath(enclosure(q, digits), reference, q, (), digits, guard,
                            F(1, 10**digits))


def test_constant_caches_keep_one_entry():
    from certreal import powerseries

    first = pi_enclosure(21)
    for digits in (20, 21, 22):
        pi_enclosure(digits)
        ln_enclosure(F(10), digits)
        assert len(powerseries._PI_CACHE) == len(powerseries._LN2_CACHE) == 1
    # a recomputed entry is the same enclosure as the evicted one
    assert pi_enclosure(21) == first
