"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints one PASS line on success (run with -s to see them all);
a failure shows up as an ordinary pytest failure for that criterion.
"""

import json
import math
import random
import time
from fractions import Fraction as F
from math import factorial

import pytest

from certreal.approx import (
    BernsteinOperator,
    SawtoothSeries,
    bernstein_apply,
    bernstein_basis,
    gallery,
    make_fn_sequence,
    nowhere_diff_quotients,
    uniform_deviation,
)
from certreal.calculus import Bracket, bisect, count_roots_report, mvt_witness
from certreal.cli import main as cli_main
from certreal.core import (
    Enclosure,
    FnDescriptor,
    Status,
    poly_descriptor,
    rational_power_enclosure,
    sqrt_enclosure,
)
from certreal.integration import (
    Partition,
    darboux,
    gamma,
    integrate_enclosure,
    regular_partition,
    riemann_sum,
)
from certreal.powerseries import (
    constants,
    exp_enclosure,
    ln_enclosure,
    make_power_series,
    ode_recurrence_sin,
    pi_enclosure,
    remainder_enclosure,
    sin_enclosure,
    taylor_poly,
)
from certreal.series import (
    classify,
    make_product,
    make_series,
    product_converges,
    product_log_series_verdict,
    rearrange_pattern,
    rearrange_riemann,
)

PARABOLA = poly_descriptor([0, 6, -1], name="6x-x^2")

STEP5 = FnDescriptor(
    name="step5",
    step_pieces=(
        (F(0), F(1), F(1)),
        (F(1), F(5, 4), F(4)),
        (F(5, 4), F(5, 3), F(3)),
        (F(5, 3), F(5, 2), F(2)),
        (F(5, 2), F(5), F(1)),
    ),
    point_values=(
        (F(0), F(1)), (F(1), F(1)), (F(5, 4), F(4)),
        (F(5, 3), F(3)), (F(5, 2), F(2)), (F(5), F(1)),
    ),
    darboux_only=True,
)


def _passed(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS - {name}")


def test_criterion_01_darboux_golden_table():
    partition = Partition((0, 2, 3, 5, 6))
    pair = darboux(PARABOLA, partition)
    assert pair.lower == 18  # exact, no tolerance
    assert pair.upper == 48
    assert riemann_sum(PARABOLA, partition, [1, 3, 4, 5]) == 40
    _passed(1, "Darboux golden table L=18, U=48, R=40")


def test_criterion_02_integral_golden_values():
    width = F(1, 10**6)
    square = poly_descriptor([0, 0, 1], name="x^2")
    first = integrate_enclosure(square, 1, 4, width, method="darboux")
    assert first.enclosure.contains(21) and first.width() <= width

    second = integrate_enclosure(PARABOLA, 0, 6, width, method="darboux")
    assert second.enclosure.contains(36) and second.width() <= width

    step = integrate_enclosure(STEP5, 0, 5, width)
    assert step.enclosure == Enclosure.point(F(89, 12))  # exact

    def eval_enc(x, d):
        return sqrt_enclosure(16 + x * x, d).times(Enclosure.point(x))

    def anti_enc(x, d):
        return rational_power_enclosure(16 + x * x, F(3, 2), d).scale(F(1, 3))

    rooted = FnDescriptor(
        name="x*sqrt(16+x^2)",
        eval_enc=eval_enc,
        monotone="increasing",
        antiderivative=FnDescriptor(name="anti", eval_enc=anti_enc),
    )
    result = integrate_enclosure(rooted, -2, 3, width)
    closed = (125 - sqrt_enclosure(20, 14).scale(20)).scale(F(1, 3))
    assert result.width() <= width
    assert abs(result.enclosure.midpoint() - closed.midpoint()) <= F(1, 10**6)
    assert result.enclosure.lo <= closed.hi and closed.lo <= result.enclosure.hi
    _passed(2, "integral golden values 21, 36, 89/12, (125-20*sqrt(20))/3")


def test_criterion_03_monotone_shrinkage_law():
    cases = [
        (poly_descriptor([0, 0, 1], name="x^2"), F(1), F(4)),
        (poly_descriptor([0, 0, 0, 1], name="x^3"), F(-1, 2), F(3)),
        (poly_descriptor([32, 1, 0, 0, 0, 1], name="x^5+x+32"), F(-2), F(1)),
        (gallery("unit_step"), F(-1), F(2)),
    ]
    for f, a, b in cases:
        swing = f.value_at(b) - f.value_at(a)
        for k in range(1, 65):
            pair = darboux(f, regular_partition(a, b, k))
            assert pair.width() == (b - a) * swing / k  # exact identity
    _passed(3, "monotone shrinkage law U-L = (b-a)(f(b)-f(a))/k, k=1..64")


def test_criterion_04_refinement_monotonicity_200_random():
    rng = random.Random(20260810)
    functions = [PARABOLA, STEP5, poly_descriptor([0, -3, 0, 1], name="x^3-3x"),
                 gallery("rational_indicator")]
    checked = 0
    while checked < 200:
        f = functions[checked % len(functions)]
        hi = 5 if f is STEP5 else 4
        base_points = sorted({F(0), F(hi)} | {
            F(rng.randrange(1, hi * 12), 12) for _ in range(rng.randrange(1, 4))
        })
        base_points = [p for p in base_points if 0 <= p <= hi]
        if len(base_points) < 2:
            continue
        base = Partition(tuple(base_points))
        extras = {F(rng.randrange(1, hi * 24), 24) for _ in range(rng.randrange(1, 5))}
        extras = [e for e in extras if base.a < e < base.b]
        refined = base.refine(extras)
        coarse, fine = darboux(f, base), darboux(f, refined)
        assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper  # exact
        checked += 1
    _passed(4, "refinement monotonicity on 200 random refinements")


def test_criterion_05_series_classification_table():
    geometric = classify(make_series("geometric", a=F(2, 3), r=F(2, 3)))
    assert geometric.status is Status.CONVERGES
    assert geometric.value == Enclosure.point(2)  # exact sum a/(1-r)
    for r in (F(1), F(-1), F(2)):
        assert classify(make_series("geometric", a=F(1), r=r)).status is Status.DIVERGES
    expected = {F(1, 2): Status.DIVERGES, F(1): Status.DIVERGES,
                F(2): Status.CONVERGES, F(3): Status.CONVERGES}
    for p, status in expected.items():
        assert classify(make_series("p_series", p=p)).status is status
    assert classify(make_series("factorial_power", x=F(1, 10))).status is Status.DIVERGES
    assert classify(make_series("two_pow_over_three_pow_minus_one")).status is Status.CONVERGES
    _passed(5, "series classification table matches the stated outcomes")


def test_criterion_06_constants():
    e_enc = constants("e", 20)
    assert e_enc.width() <= F(3, factorial(21))
    # the 15-decimal reference is itself a rounded literal: compare at one
    # unit in its own last place (the enclosure is ~1e-19 wide)
    assert abs(e_enc.midpoint() - F("2.718281828459046")) <= F(1, 10**15)
    assert e_enc.contains(exp_enclosure(1, 25))

    ln2 = constants("ln2", 10**4)
    assert ln2.width() <= F(2, 10**4)
    assert ln2.contains(F("0.693147"))

    quarter_pi = constants("pi_over_4", 10**4)
    assert quarter_pi.contains(F("0.785398"))

    started = time.perf_counter()
    gamma_estimate = constants("euler_gamma", 10**6)
    elapsed = time.perf_counter() - started
    assert elapsed <= 60
    assert abs(gamma_estimate.midpoint() - F("0.577215664901532")) <= F(1, 10**6)
    _passed(6, "constants e, ln2, pi/4, euler-mascheroni at stated widths")


def test_criterion_07_rearrangement():
    alt = make_series("alt_harmonic")
    pattern = rearrange_pattern(alt, 2, 1, 3 * 10**4)
    target = ln_enclosure(2, 20).scale(F(3, 2)).midpoint()
    assert abs(pattern.partial_sums[-1] - target) <= F(1, 1000)

    greedy = rearrange_riemann(make_series("alt_harmonic"), F(1, 4), 10**4)
    assert greedy.flips
    for flip in greedy.flips:
        assert flip.distance_to_target <= abs(flip.term)  # exact property
    _passed(7, "rearrangement: pattern 2,1 hits (3/2)ln2; greedy flips bounded")


def _registered_products():
    def p_case(p):
        deltas = make_series("custom", gen=lambda n, _p=p: F(1, n**_p), n0=2)
        deltas.family, deltas.params = "p_series", {"p": F(p)}
        return deltas

    def geo_case(r):
        deltas = make_series("custom", gen=lambda n, _r=F(r): _r**n, n0=1)
        deltas.family, deltas.params = "geometric", {"a": F(r), "r": F(r)}
        return deltas

    bases = [p_case(p) for p in (1, 2, 3, 4, 5)]
    bases += [geo_case(r) for r in (F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4))]
    return [(sign, deltas) for sign in ("one_plus", "one_minus") for deltas in bases]


def test_criterion_08_infinite_products():
    shrinking = make_product("one_minus_inv_sq")
    for n in (2, 3, 10, 100):
        assert shrinking.partial_product(n) == F(n + 1, 2 * n)  # exact
    growing = make_product("one_plus_inv")
    for n in (1, 5, 50):
        assert growing.partial_product(n) == n + 1  # exact

    cases = _registered_products()
    assert len(cases) == 20
    for sign, deltas in cases:
        product = make_product(sign, deltas=deltas)
        assert product_converges(product, 256).status == product_log_series_verdict(
            product, 256
        ).status
    _passed(8, "infinite products: closed partials exact; 20-case verdict agreement")


def test_criterion_09_power_series():
    product = make_power_series("exp").cauchy_product(make_power_series("sin"))
    assert product.coeffs(5) == [0, 1, 1, F(1, 3), 0, F(-1, 30)]  # exact

    sin_ps, _ = ode_recurrence_sin()
    for n in range(1, 11):
        assert sin_ps.coeff(2 * n - 1) == F((-1) ** (n - 1), factorial(2 * n - 1))
        assert sin_ps.coeff(2 * n) == 0

    for family in ("exp", "sin", "cos", "geometric", "log_neg", "p2"):
        base = make_power_series(family)
        assert base.derive().radius_info == base.radius_info
    _passed(9, "power series: exp*sin coefficients, sine recurrence, radius rules")


def test_criterion_10_taylor_bounds():
    lower_cut = taylor_poly("sin", 0, 3, radius=4, deriv_range=(0, 1))
    for k in range(1, 101):
        x = F(k, 32)  # 100 rational points inside (0, pi)
        enc = remainder_enclosure(lower_cut, x)
        poly = x - x**3 / 6
        assert enc.lo == poly and enc.hi == poly + x**4 / 24
        assert sin_enclosure(x, 25).lo > poly  # strict inequality, certified

    exp_taylor = taylor_poly("exp", 0, 20, radius=1, deriv_range=(0, 3))
    enc = remainder_enclosure(exp_taylor, 1)
    assert enc.width() <= F(3, factorial(21))
    assert enc.contains(exp_enclosure(1, 25))

    e_enc = constants("e", 40)
    for n in (5, 10):
        partial = sum(F(1, factorial(k)) for k in range(n + 1))
        low = factorial(n) * e_enc.lo - factorial(n) * partial
        high = factorial(n) * e_enc.hi - factorial(n) * partial
        assert 0 < low and high < F(3, n + 1)  # exact rationals throughout
    _passed(10, "Taylor bounds: strict sine cut, exp width, n! e inequality")


def test_criterion_11_bernstein():
    rng = random.Random(97)
    for n in range(1, 13):
        op = BernsteinOperator.from_function(lambda t: t * t, n)
        for _ in range(4):
            x = F(rng.randrange(0, 211), 211)
            assert bernstein_apply(op, x) == x * x + x * (1 - x) / n  # exact
        x = F(rng.randrange(0, 101), 101)
        assert sum(bernstein_basis(n, k, x) for k in range(n + 1)) == 1
        if n >= 2:
            assert sum(
                (x - F(k, n)) ** 2 * bernstein_basis(n, k, x) for k in range(n + 1)
            ) == x * (1 - x) / n
        deviation = bernstein_apply(op, F(1, 2)) - F(1, 4)
        assert deviation == F(1, 4 * n)  # sup of x(1-x)/n, attained at 1/2
    _passed(11, "Bernstein identities and 1/(4n) sup deviation, exact")


def test_criterion_12_uniform_convergence():
    power = make_fn_sequence("power")
    zero = FnDescriptor(name="0", eval_rat=lambda x: F(0))
    for n in range(1, 51):
        assert uniform_deviation(power, zero, n).value == 1

    xexp = make_fn_sequence("xexp")
    for n in (1, 3, 10, 40):
        enc = uniform_deviation(xexp, zero, n).value
        assert enc.width() <= F(1, 10**9)
        reference = math.exp(-0.5) / math.sqrt(2 * n)  # independent float oracle
        assert abs(float(enc.midpoint()) - reference) <= 1e-9
    _passed(12, "uniform deviation: M_n = 1 for x^n; xe^(-nx^2) formula to 1e-9")


def test_criterion_13_nowhere_differentiable_parity():
    series = SawtoothSeries(12)
    rng = random.Random(13)
    points = {F(rng.randrange(-2**7, 2**7), 2**rng.randrange(0, 7)) for _ in range(40)}
    points = sorted(points)[:20]
    assert len(points) == 20
    for x0 in points:
        records = nowhere_diff_quotients(series, x0, 12)
        assert {record.level for record in records} == set(range(13))
        for record in records:
            for quotient in record.quotients:
                assert quotient.denominator == 1  # integers, exactly
                assert (quotient.numerator % 2 == 1) == (record.level % 2 == 0)
    _passed(13, "sawtooth quotients: integers with alternating parity, 20 x 13 levels")


def test_criterion_14_bisection_roots_witnesses():
    sextic = poly_descriptor([1, 6, 0, 0, 0, 0, 1], name="x^6+6x+1")
    result = bisect(Bracket(sextic, -1, 0), 40)
    assert result.enclosure.width() == F(1, 2**40)  # exact halving, 40 times
    assert sextic.value_at(result.enclosure.lo) * sextic.value_at(result.enclosure.hi) < 0

    pieced = sextic.with_meta(
        monotone_pieces=((None, F(-1), "decreasing"), (F(-1), None, "increasing"))
    )
    assert count_roots_report(pieced, -2, 0).count == 2

    square = poly_descriptor([0, 0, 1], name="x^2")
    cubic = poly_descriptor([0, 0, -9, 1], name="x^3-9x^2")
    tolerance = F(1, 10**8)
    for enc, witness in (
        (mvt_witness(square, 1, 7, "lagrange"), F(4)),
        (mvt_witness(cubic, 1, 7, "lagrange"), F(5)),
        (mvt_witness(square, 1, 7, "cauchy", g=cubic), F(19, 4)),
    ):
        assert enc.contains(witness)
        assert enc.width() <= tolerance
    _passed(14, "bisection width 2^-40; two roots; witnesses 4, 5, 19/4 to 1e-8")


def test_criterion_15_gamma():
    width = F(1, 10**4)
    one = gamma(1, 5)
    assert one.contains(1) and one.width() <= width
    five = gamma(5, 5)
    assert five.contains(24) and five.width() <= width
    half = gamma(F(1, 2), 5)
    root_pi = sqrt_enclosure(pi_enclosure(20).midpoint(), 15)
    assert half.lo <= root_pi.lo and root_pi.hi <= half.hi
    assert half.width() <= width

    for s in (F(1, 2), F(3, 2)):
        left = gamma(s + 1, 7)
        right = gamma(s, 7).scale(s)
        assert right.widen(left.width() + right.width()).contains(left)
    _passed(15, "gamma at 1, 5, 1/2 within 1e-4; recursion containment")


def test_criterion_16_cli_determinism_and_exit_codes(capsys):
    json_commands = [
        ["converge", "p-series", "--p", "2", "--json"],
        ["integrate", "poly:x^2", "1", "4", "--width", "1e-3", "--json"],
        ["constants", "e", "--terms", "20", "--json"],
    ]
    for argv in json_commands:
        cli_main(argv)
        first = capsys.readouterr().out.encode()
        cli_main(argv)
        second = capsys.readouterr().out.encode()
        assert first == second  # byte-identical
        json.loads(first)

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
    ]
    assert len(matrix) == 15
    for expected, argv in matrix:
        assert cli_main(argv) == expected, argv
    capsys.readouterr()
    _passed(16, "CLI byte-identical JSON and 0/2/1 exit codes on 15 invocations")
