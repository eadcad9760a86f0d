from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from certreal.core import Enclosure, approx_real
from certreal.integration import gamma
from certreal.powerseries import (
    PowerSeries,
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
}


@pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
@settings(deadline=None, max_examples=50)
@given(data=st.data())
def test_enclosure_contains_mpmath(name, data):
    """An independent reference, mpmath at twice the requested digits,
    lies inside the enclosure, and the enclosure meets the width bound."""
    mpmath = pytest.importorskip("mpmath")
    args, max_digits, guard, enclosure, reference = _ORACLE_CASES[name]
    q = data.draw(args) if args is not None else F(0)
    digits = data.draw(st.integers(min_value=1, max_value=max_digits))
    enc = enclosure(q, digits)
    with mpmath.workdps(2 * digits + guard):
        sign, man, exp, _ = reference(mpmath, mpmath.mpf(q.numerator) / q.denominator)._mpf_
    value = F(-man if sign else man) * F(2) ** exp
    slack = F(1, 10 ** (2 * digits))
    assert enc.lo - slack <= value <= enc.hi + slack
    assert enc.width() <= F(1, 10**digits)


def test_constant_caches_keep_one_entry():
    from certreal import powerseries

    first = pi_enclosure(21)
    for digits in (20, 21, 22):
        pi_enclosure(digits)
        ln_enclosure(F(10), digits)
        assert len(powerseries._PI_CACHE) == len(powerseries._LN2_CACHE) == 1
    # a recomputed entry is the same enclosure as the evicted one
    assert pi_enclosure(21) == first
