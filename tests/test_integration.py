import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from certreal.approx import gallery
from certreal.core import (
    Enclosure,
    FnDescriptor,
    Status,
    poly_descriptor,
    rational_power_enclosure,
    sqrt_enclosure,
)
from certreal import core
from certreal.integration import (
    Comparison,
    ImproperSpec,
    MissingMetadataError,
    Partition,
    _digits_for,
    _lower_incomplete_series,
    _running_darboux,
    darboux,
    gamma,
    improper_integral,
    integrate_enclosure,
    parts_check,
    regular_partition,
    riemann_sum,
    substitution_check,
)
from conftest import fractions_built

PARABOLA = poly_descriptor([0, 6, -1], name="6x-x^2")
GOLDEN_PARTITION = Partition((0, 2, 3, 5, 6))

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


def test_regular_partition_examples():
    p = regular_partition(0, 10, 5)
    assert p.points == (0, 2, 4, 6, 8, 10)
    assert p.gap() == 2
    assert regular_partition(0, 1, 1).points == (0, 1)
    assert regular_partition(1, 4, 3).points == (1, 2, 3, 4)
    with pytest.raises(ValueError):
        regular_partition(4, 1, 3)


def test_darboux_golden_table():
    pair = darboux(PARABOLA, GOLDEN_PARTITION)
    assert pair.lower == 18
    assert pair.upper == 48
    assert pair.per_interval == ((0, 8), (8, 9), (5, 9), (0, 5))
    assert not pair.outer


def test_darboux_constant():
    const = poly_descriptor([F(7, 2)], name="const")
    pair = darboux(const, Partition((0, 1, F(3, 2), 4)))
    assert pair.lower == pair.upper == F(7, 2) * 4


def test_darboux_rational_indicator():
    dirichlet = gallery("rational_indicator")
    for k in (1, 5, 40):
        pair = darboux(dirichlet, regular_partition(0, 1, k))
        assert pair.lower == 0 and pair.upper == 1


def test_darboux_refuses_bare_oracle():
    bare = FnDescriptor(name="bare", eval_rat=lambda x: x)
    with pytest.raises(MissingMetadataError):
        darboux(bare, regular_partition(0, 1, 4))


def test_riemann_sum_examples():
    assert riemann_sum(PARABOLA, GOLDEN_PARTITION, [1, 3, 4, 5]) == 40
    const = poly_descriptor([F(7, 2)])
    assert riemann_sum(const, GOLDEN_PARTITION, "midpoint") == F(7, 2) * 6
    for n in (2, 5, 9, 31):
        value = riemann_sum(PARABOLA, regular_partition(0, 6, n), "right")
        assert value == F(36 * (n * n - 1), n * n)
    with pytest.raises(ValueError):
        riemann_sum(PARABOLA, GOLDEN_PARTITION, [1, 3, 4, 7])


def test_riemann_between_darboux():
    pair = darboux(PARABOLA, GOLDEN_PARTITION)
    for pick in ("left", "right", "midpoint"):
        value = riemann_sum(PARABOLA, GOLDEN_PARTITION, pick)
        assert pair.lower <= value <= pair.upper


def test_refinement_monotonicity_random():
    rng = random.Random(1234)
    for f in (PARABOLA, STEP5, poly_descriptor([1, 2, 0, 1], name="cubic")):
        hi = 5 if f is STEP5 else 6
        base = regular_partition(0, hi, 3)
        for _ in range(25):
            extras = sorted({F(rng.randrange(1, 10 * hi), 10) for _ in range(4)})
            extras = [e for e in extras if 0 < e < hi]
            refined = base.refine(extras)
            coarse, fine = darboux(f, base), darboux(f, refined)
            assert coarse.lower <= fine.lower <= fine.upper <= coarse.upper


def test_monotone_shrinkage_law():
    cube = poly_descriptor([0, 0, 0, 1], name="x^3")
    a, b = F(1, 2), F(7, 2)
    swing = cube.value_at(b) - cube.value_at(a)
    for k in range(1, 65):
        pair = darboux(cube, regular_partition(a, b, k))
        assert pair.width() == (b - a) * swing / k


def test_integral_golden_values():
    square = poly_descriptor([0, 0, 1], name="x^2")
    result = integrate_enclosure(square, 1, 4, F(1, 10**6), method="darboux")
    assert result.status is Status.CONVERGES
    assert result.width() <= F(1, 10**6)
    assert result.enclosure.contains(21)

    result = integrate_enclosure(PARABOLA, 0, 6, F(1, 10**6), method="darboux")
    assert result.enclosure.contains(36)
    assert result.width() <= F(1, 10**6)

    result = integrate_enclosure(STEP5, 0, 5, F(1, 1000))
    assert result.enclosure == Enclosure.point(F(89, 12))


def test_integral_additivity():
    square = poly_descriptor([0, 0, 1])
    whole = integrate_enclosure(square, 0, 4, F(1, 1000), method="darboux").enclosure
    left = integrate_enclosure(square, 0, 1, F(1, 2000), method="darboux").enclosure
    right = integrate_enclosure(square, 1, 4, F(1, 2000), method="darboux").enclosure
    combined = left + right
    assert combined.lo <= whole.hi and whole.lo <= combined.hi
    assert (left + right).contains(F(64, 3))


def test_lipschitz_mode_outer_flag():
    wiggle = FnDescriptor(name="lip", eval_rat=lambda x: abs(x - F(1, 3)), lipschitz=F(1))
    pair = darboux(wiggle, regular_partition(0, 1, 8))
    assert pair.outer
    # valid outer bracket around the true integral 5/18... check containment
    true_value = F(1, 2) * (F(1, 3) ** 2 + F(2, 3) ** 2)
    assert pair.lower <= true_value <= pair.upper
    # the outward snap onto the 10^-30 grid, pinned endpoint by endpoint
    assert pair.lower == F(1708333333333333333333333333329, 8 * 10**30)
    assert pair.upper == F(2708333333333333333333333333337, 8 * 10**30)
    result = integrate_enclosure(wiggle, 0, 1, F(1, 100))
    assert result.outer and result.enclosure.contains(true_value)


def test_improper_p_integral_at_infinity():
    f = FnDescriptor(
        name="x^-2",
        eval_rat=lambda x: 1 / (x * x),
        monotone="decreasing",
        antiderivative=FnDescriptor(name="-1/x", eval_rat=lambda x: -1 / x),
    )
    spec = ImproperSpec(
        f, F(1), None,
        comparisons=(Comparison("p_at_inf", p=F(2), const=F(1), from_x=F(1)),),
        nonnegative=True,
    )
    verdict = improper_integral(spec)
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(1)
    assert verdict.value.width() <= F(1, 10**6)
    # T = 2^20 is the first T = 2, 4, ... with a tail bound 1/T <= 10^-6, and
    # the only window whose core is integrated
    assert [item[1] for item in verdict.trace] == [("1", "1048576")]


def test_improper_inverse_sqrt_at_zero():
    f = FnDescriptor(
        name="x^-1/2",
        eval_enc=lambda x, d: rational_power_enclosure(x, F(-1, 2), d),
        monotone="decreasing",
        antiderivative=FnDescriptor(
            name="2sqrt", eval_enc=lambda x, d: sqrt_enclosure(x, d).scale(2)
        ),
    )
    spec = ImproperSpec(
        f, F(0), F(1), singular_lo=True,
        comparisons=(Comparison("p_at_zero", p=F(1, 2), const=F(1)),),
        nonnegative=True,
    )
    verdict = improper_integral(spec)
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(2)
    # dual route: plain Darboux on [1/4, 1] must bracket 2 sqrt(1) - 2 sqrt(1/4) = 1
    core = integrate_enclosure(f, F(1, 4), 1, F(1, 100), method="darboux")
    assert core.enclosure.contains(1)


def test_improper_singular_upper_endpoint_reflected():
    # integrand blows up at the upper endpoint: the window moves hi inward
    f = FnDescriptor(
        name="(1-x)^-1/2",
        eval_enc=lambda x, d: rational_power_enclosure(1 - x, F(-1, 2), d),
        monotone="increasing",
        antiderivative=FnDescriptor(
            name="-2sqrt(1-x)", eval_enc=lambda x, d: sqrt_enclosure(1 - x, d).scale(-2)
        ),
    )
    spec = ImproperSpec(
        f, F(0), F(1), singular_hi=True,
        comparisons=(Comparison("p_at_zero", p=F(1, 2), const=F(1)),),
        nonnegative=True,
    )
    verdict = improper_integral(spec, F(1, 10**4))
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(2)


def test_improper_unbounded_below_reflected():
    from certreal.powerseries import exp_enclosure

    growth = FnDescriptor(
        name="e^x",
        eval_enc=lambda x, d: exp_enclosure(x, d),
        monotone="increasing",
        antiderivative=FnDescriptor(name="e^x", eval_enc=lambda x, d: exp_enclosure(x, d)),
    )
    spec = ImproperSpec(
        growth, None, F(0),
        comparisons=(Comparison("exp_at_inf", p=F(1), const=F(1), from_x=F(0)),),
        nonnegative=True,
    )
    verdict = improper_integral(spec, F(1, 10**4))
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(1)


def test_improper_range_rule_unbounded_below():
    # only a range rule: no point oracle, so every field of the descriptor
    # must reach the finite core unchanged
    from certreal.powerseries import exp_enclosure

    growth = FnDescriptor(
        name="e^x",
        range_rule=lambda lo, hi: (exp_enclosure(lo, 12).lo, exp_enclosure(hi, 12).hi),
        darboux_only=True,
    )
    spec = ImproperSpec(
        growth, None, F(0),
        comparisons=(Comparison("exp_at_inf", p=F(1), from_x=F(0)),),
        nonnegative=True,
    )
    verdict = improper_integral(spec, F(1, 20))
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(1)
    assert verdict.value.width() <= F(1, 20)


def test_improper_unbounded_below_windows():
    from certreal.powerseries import exp_enclosure

    growth = FnDescriptor(
        name="e^x",
        eval_enc=lambda x, d: exp_enclosure(x, d),
        monotone="increasing",
        antiderivative=FnDescriptor(name="e^x", eval_enc=lambda x, d: exp_enclosure(x, d)),
    )
    partner = (Comparison("exp_at_inf", p=F(1), from_x=F(0)),)
    certified = improper_integral(ImproperSpec(growth, None, F(-1), comparisons=partner),
                                  F(1, 100))
    # a signed integrand: the tail enters as [-e^-T, e^-T], which first fits
    # 1/100 at T = 8 (2 e^-4 > 1/25)
    assert certified.status is Status.CONVERGES
    assert [item[1] for item in certified.trace] == [("-8", "-1")]
    traced = improper_integral(ImproperSpec(growth, None, F(-1)), F(1, 100))
    windows = [item[1] for item in traced.trace]
    assert windows[:3] == [("-2", "-1"), ("-4", "-1"), ("-8", "-1")]
    assert all(hi == "-1" for _, hi in windows)


def test_improper_rejects_ends_one_window_cannot_bound():
    f = FnDescriptor(name="one", eval_rat=lambda x: F(1), monotone="constant")
    head = (Comparison("p_at_zero", p=F(1, 2)),)
    for spec in (
        ImproperSpec(f, F(0), F(1), singular_lo=True, singular_hi=True, comparisons=head),
        ImproperSpec(f, F(0), None, singular_hi=True, comparisons=head),
        ImproperSpec(f, None, F(0), singular_lo=True, comparisons=head),
    ):
        with pytest.raises(ValueError, match="at a finite point first"):
            improper_integral(spec)
    with pytest.raises(ValueError, match="two-sided"):
        improper_integral(ImproperSpec(f, None, None))


def test_improper_divergence_by_minorant():
    f = FnDescriptor(name="x/(x^2+1)", eval_rat=lambda x: x / (x * x + 1))
    spec = ImproperSpec(
        f, F(0), None,
        comparisons=(Comparison("minorant_p_at_inf", p=F(1), const=F(1, 2), from_x=F(1)),),
    )
    verdict = improper_integral(spec)
    assert verdict.status is Status.DIVERGES
    assert "unbounded" in verdict.certificate.witnesses["reason"]
    finite = ImproperSpec(f, F(0), F(1), comparisons=spec.comparisons)
    with pytest.raises(ValueError, match="infinite end"):
        improper_integral(finite)


def test_improper_without_partner_inconclusive():
    f = FnDescriptor(name="x^-2", eval_rat=lambda x: 1 / (x * x), monotone="decreasing",
                     antiderivative=FnDescriptor(name="-1/x", eval_rat=lambda x: -1 / x))
    spec = ImproperSpec(f, F(1), None)
    verdict = improper_integral(spec)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.trace


def test_gamma_values():
    one = gamma(1, 6)
    assert one.contains(1) and one.width() <= F(1, 10**4)
    five = gamma(5, 6)
    assert five.contains(24) and five.width() <= F(1, 10**4)
    half = gamma(F(1, 2), 6)
    # sqrt(pi) reference from the library's own pi enclosure, then a square
    # root bracket of its midpoint (width far below the gamma width)
    from certreal.powerseries import pi_enclosure

    root_pi = sqrt_enclosure(pi_enclosure(20).midpoint(), 15)
    assert half.lo <= root_pi.lo and root_pi.hi <= half.hi
    assert half.width() <= F(1, 10**4)


def test_gamma_recursion_containment():
    for s in (F(1, 2), F(3, 2)):
        left = gamma(s + 1, 8)
        right = gamma(s, 8).scale(s)
        slack = left.width() + right.width()
        assert right.widen(slack).contains(left)


def test_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        gamma(0)


def _reference_lower_incomplete_series(s, x, budget, digits):
    """The Fraction loop that the fixed-point `_lower_incomplete_series`
    replaced, kept as the reference for its enclosures."""
    x = F(x)
    total = F(0)
    k = 0
    power = F(1)  # (-x)^k / k!
    while True:
        total += power / (s + k)
        k += 1
        power = power * (-x) / k
        bound = 2 * abs(power) / (s + k)
        if k + 1 >= 2 * x and bound <= budget / (2 * x):
            series = Enclosure.from_midrad(total, bound)
            break
    return rational_power_enclosure(x, s, digits).times(series)


@settings(deadline=None, max_examples=60)
@given(st.fractions(min_value=0, max_value=1, max_denominator=50).filter(lambda s: s > 0),
       st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=40))
def test_lower_incomplete_series_contains_the_fraction_loop(s, log_x, digits):
    x, budget = 2**log_x, F(1, 2 * 10**digits)
    enc = _lower_incomplete_series(s, x, budget, digits + 4)
    ref = _reference_lower_incomplete_series(s, x, budget, digits + 4)
    assert enc.contains(ref)
    # the fixed-point rounding adds at most budget/4
    assert enc.width() <= ref.width() + budget / 4


def _endpoint_bits(enc):
    return max(v.bit_length() for v in (enc.lo.numerator, enc.lo.denominator,
                                         enc.hi.numerator, enc.hi.denominator))


@pytest.mark.parametrize("s", [F(1, 4), F(7, 4), F(15, 4), F(1, 2), F(13, 7), F(1, 1000)])
@pytest.mark.parametrize("digits", [1, 6, 20, 45, 60])
def test_gamma_endpoints_are_digit_sized(s, digits):
    # the Fraction series returned 8,183-bit endpoints for gamma(1/4) at
    # 45 digits; the result sits on the 10^-(digits+2) grid
    enc = gamma(s, digits)
    assert enc.width() <= F(1, 10**digits)
    assert _endpoint_bits(enc) <= 8 * digits + 256, _endpoint_bits(enc)


def test_gamma_builds_few_fractions():
    # a machine-independent counter: the Fraction series built 9,366
    with fractions_built() as built:
        gamma(F(1, 4), 45)
    assert built.count <= 150, built.count


def test_gamma_at_a_positive_integer_is_the_exact_factorial():
    assert gamma(1, 3) == Enclosure.point(1)
    assert gamma(5) == Enclosure.point(24)
    with fractions_built() as built:
        assert gamma(1000, 6) == Enclosure.point(math.factorial(999))
    assert built.count <= 8


def test_gamma_at_a_large_root_order_builds_no_large_radicand(monkeypatch):
    # a machine-independent counter: the bits of the radicand
    # num * den^(n-1) * 10^(digits n) that nth_root_enclosure would hand to
    # integer_nth_root, checked before it is built.  gamma(1/10^9) took
    # the 10^9-th root of 2^T * 10^(digits 10^9).
    root = core.nth_root_enclosure
    radicand_bits = []

    def counted(q, n, digits=12):
        q = F(q)
        radicand_bits.append(q.numerator.bit_length() + (n - 1) * q.denominator.bit_length()
                             + math.ceil(n * digits * math.log2(10)))
        assert radicand_bits[-1] <= 10**5, radicand_bits[-1]
        return root(q, n, digits)

    monkeypatch.setattr(core, "nth_root_enclosure", counted)
    mpmath = pytest.importorskip("mpmath")
    for s, digits in ((F(1, 10**9), 6), (F(10**9 + 1, 10**9), 6), (F(1, 97), 30), (F(3, 7), 20)):
        enc = gamma(s, digits)
        with mpmath.workdps(digits + 40):
            value = mpmath.gamma(mpmath.mpf(s.numerator) / s.denominator)
            assert enc.lo <= F(mpmath.nstr(value, digits + 30)) <= enc.hi
        assert enc.width() <= F(1, 10**digits)
    assert max(radicand_bits) <= 10**4, radicand_bits


def test_substitution_check_closed_form():
    # integral of x sqrt(16+x^2) over [-2, 3] against (125 - 20 sqrt(20))/3
    def eval_enc(x, d):
        return sqrt_enclosure(16 + x * x, d).times(Enclosure.point(x))

    def anti_enc(x, d):
        return rational_power_enclosure(16 + x * x, F(3, 2), d).scale(F(1, 3))

    f = FnDescriptor(
        name="x*sqrt(16+x^2)",
        eval_enc=eval_enc,
        monotone="increasing",
        antiderivative=FnDescriptor(name="(16+x^2)^(3/2)/3", eval_enc=anti_enc),
    )
    closed = (125 - sqrt_enclosure(20, 12).scale(20)).scale(F(1, 3))
    report = substitution_check(f, -2, 3, closed, target_width=F(1, 10**6))
    assert report.agree
    assert abs(report.left.midpoint() - closed.midpoint()) <= F(1, 10**6)
    # independent Darboux route at its feasible width must also agree
    lipschitz = f.with_meta(monotone=None, lipschitz=F(7), antiderivative=None)
    coarse = integrate_enclosure(lipschitz, -2, 3, F(1, 10), method="darboux")
    assert coarse.enclosure.lo <= closed.hi and closed.lo <= coarse.enclosure.hi


def test_substitution_check_odd_function():
    cube = poly_descriptor([0, 0, 0, 1], name="x^3")
    report = substitution_check(cube, -2, 2, Enclosure.point(0), target_width=F(1, 1000))
    assert report.agree and report.left.contains(0)


def test_substitution_check_even_function():
    square = poly_descriptor([0, 0, 1], name="x^2")
    half = integrate_enclosure(square, 0, 1, F(1, 10**7)).enclosure
    report = substitution_check(square, -1, 1, half.scale(2), target_width=F(1, 10**6))
    assert report.agree


def test_parts_check_polynomials():
    u = poly_descriptor([0, 1], name="x")
    v = poly_descriptor([0, 0, 1], name="x^2")
    report = parts_check(u, v, 0, 2)
    assert report.agree
    assert report.right.contains(u.value_at(2) * v.value_at(2))


def test_darboux_doubling_evaluates_each_point_once():
    # the end values predict k = 167 on [0, 1]: 168 distinct grid points.
    # Doubling to 256 took 257, and without the memo every subinterval
    # evaluated both endpoints at every doubling (1,022 oracle calls).
    f = gallery("smooth_step", a=0, b=1)
    calls = []

    def counted(n, m, digits):
        calls.append(F(n, m))
        return f.eval_grid(n, m, digits)

    result = integrate_enclosure(f.with_meta(eval_grid=counted), 0, 1, F(3, 500))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 167
    assert len(calls) == len(set(calls)) == 168
    assert result.enclosure == integrate_enclosure(f, 0, 1, F(3, 500)).enclosure


def test_lipschitz_refines_each_point_once():
    # |x - 1/3| with L = 1: the sums take the 102 points of the predicted
    # 101-partition once each, where doubling took the 129 points of the
    # 128-partition and `darboux` on every doubling evaluated the
    # 1 + 2 + ... + 128 = 255 cell midpoints
    calls = []

    def counted(x):
        calls.append(x)
        return abs(x - F(1, 3))

    wiggle = FnDescriptor(name="lip", eval_rat=counted, lipschitz=F(1))
    result = integrate_enclosure(wiggle, 0, 1, F(1, 100))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 101
    assert len(calls) == len(set(calls)) == 102
    assert result.outer and result.enclosure.contains(F(5, 18))


def test_tight_smoothstep_refines_each_point_once():
    # 1e-4 on [0, 1]: the end values 0 and 1 predict k = 10,001, and the
    # sums evaluate its 10,002 grid points once each.  Doubling took
    # k = 16,384, and re-summing every doubling ran past 120 s
    f = gallery("smooth_step", a=0, b=1)
    calls = []

    def counted(n, m, digits):
        calls.append(F(n, m))
        return f.eval_grid(n, m, digits)

    result = integrate_enclosure(f.with_meta(eval_grid=counted), 0, 1, F(1, 10**4))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 10001
    assert len(calls) == len(set(calls)) == 10002
    assert result.enclosure.contains(F(1, 2))  # smooth_step(x) + smooth_step(1-x) = 1
    assert result.width() <= F(1, 10**4)


def test_unreachable_share_costs_two_oracle_calls():
    # 1e-9 on [0, 1] would need k ~ 10^9 > 2^24 cells, and a share of 1e-4
    # at digits 4 lies within the rounding allowance 3 10^-4: either piece
    # stops at once, Inconclusive with its k = 1 pair after its two end
    # values.  Doubling evaluated 2^24 + 1 points before it gave up
    from certreal.integration import _capped_k

    f = gallery("smooth_step", a=0, b=1)
    calls = []

    def counted(n, m, digits):
        calls.append(F(n, m))
        return f.eval_grid(n, m, digits)

    for width, digits in ((F(1, 10**9), None), (F(1, 10**4), 4)):
        calls.clear()
        result = integrate_enclosure(f.with_meta(eval_grid=counted), 0, 1, width, digits=digits)
        assert result.status is Status.INCONCLUSIVE and result.subintervals == 1
        assert sorted(calls) == [0, 1] and result.enclosure.contains(F(1, 2))
    assert _capped_k(F(2**24 - 1), F(1)) == 2**24 and _capped_k(F(2**24), F(1)) == 1
    assert _capped_k(F(1), F(0)) == 1


def test_smoothstep_point_loop_builds_no_fraction_per_point():
    # a machine-independent counter: every Fraction built while smooth_step
    # [0, 1] is integrated to 1e-4 (k = 10,001) and to 1e-3 (k = 1,001),
    # and flat_bump [-1, 1], two monotone pieces, to the same widths.
    # The grid oracle takes each point as integers and returns integers, so
    # the interior points build none and both counts are the per-bracket
    # Fractions alone.  The loop built 3 per point when the oracle took and
    # returned Fractions, and 20 when the midpoints, the exp argument, the
    # outward rounding and the running sums were Fraction arithmetic
    cases = [
        (gallery("smooth_step", a=0, b=1), 0, 1, 1002, 10002,
         Enclosure(F(49999999994993, 100010000000000), F(50010000005007, 100010000000000))),
        (gallery("flat_bump"), -1, 1, 1474, 14718,
         Enclosure(F(7875258413, 44218750000), F(6555893801391, 36790000000000))),
    ]
    for f, a, b, coarse_points, fine_points, enclosure in cases:
        points = []

        def counted(n, m, digits):
            points.append((n, m))
            return f.eval_grid(n, m, digits)

        counted_f = f.with_meta(eval_grid=counted)
        integrate_enclosure(f, a, b, F(1, 10))  # the oracle's first call imports powerseries
        with fractions_built() as coarse:
            integrate_enclosure(counted_f, a, b, F(1, 10**3))
        assert len(points) == coarse_points
        points.clear()
        with fractions_built() as built:
            result = integrate_enclosure(counted_f, a, b, F(1, 10**4))
        assert len(points) == fine_points
        assert built.count == coarse.count, (f.name, built.count, coarse.count)
        assert result.enclosure == enclosure


def _fraction_round_out(lo, hi, scale):
    return F(math.floor(lo * scale)) / scale, F(math.ceil(hi * scale)) / scale


def _reference_running_darboux(f, u, v, kind, digits, k):
    """The Fraction-arithmetic running sums that the integer loop of
    `_running_darboux` replaced, at one k, kept as the reference for its
    bracket: (spread, (k, L, U, outer))."""
    scale = 10**digits
    outer = kind == "lipschitz"

    def bounds(x):
        nonlocal outer
        enc = f.enclosure_at(x, digits)
        lo, hi = enc.lo, enc.hi
        if lo == hi:
            return lo, hi
        outer = True
        return _fraction_round_out(lo, hi, scale)

    u_lo, u_hi = bounds(u)
    v_lo, v_hi = bounds(v)
    swing = F(0)
    if kind == "lipschitz":
        end_lo, end_hi = (u_lo + v_lo) / 2, (u_hi + v_hi) / 2
        swing = f.lipschitz * (v - u) / 2
    elif kind == "decreasing":
        end_lo, end_hi = v_lo, u_hi
    else:
        end_lo, end_hi = u_lo, v_hi
    sum_lo = sum_hi = F(0)
    h = (v - u) / k
    for i in range(1, k):
        lo, hi = bounds(u + i * h)
        sum_lo += lo
        sum_hi += hi
        if sum_lo.denominator > scale or sum_hi.denominator > scale:
            sum_lo, sum_hi = _fraction_round_out(sum_lo, sum_hi, scale)
            outer = True
    spread = (v - u) * (end_hi - end_lo + 2 * swing)
    return spread, (k, h * (end_lo + sum_lo - swing), h * (end_hi + sum_hi + swing), outer)


def _mixed_oracle(x, digits):
    # x/3, exact (off the decimal grid) where x has an odd denominator or a
    # numerator divisible by 3, and otherwise a 10^-(digits+2) enclosure
    value = x / 3
    if x.denominator % 2 or x.numerator % 3 == 0:
        return Enclosure.point(value)
    scale = 10 ** (digits + 2)
    return Enclosure(*_fraction_round_out(value, value, scale))


_REFERENCE_CASES = {
    "smooth_step": lambda a, b, u: (gallery("smooth_step", a=a, b=b), "increasing"),
    "flat_bump": lambda a, b, u: (gallery("flat_bump"), "increasing" if u >= 0 else "decreasing"),
    "1/x^2": lambda a, b, u: (_INV_SQUARE_EXACT, "decreasing"),
    "dyadic x^2": lambda a, b, u: (poly_descriptor([0, 0, 1]).with_meta(poly_coeffs=None),
                                   "increasing"),
    "exact 3x/20": lambda a, b, u: (FnDescriptor(name="3x/20", eval_rat=lambda x: 3 * x / 20),
                                    "increasing"),
    "mixed x/3": lambda a, b, u: (FnDescriptor(name="mixed", eval_enc=_mixed_oracle,
                                               monotone="increasing"), "increasing"),
    "lipschitz |x - 1/3|": lambda a, b, u: (
        FnDescriptor(name="lip", eval_rat=lambda x: abs(x - F(1, 3)), lipschitz=F(1)),
        "lipschitz"),
}


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_running_darboux_matches_the_fraction_reference(data):
    """At any k, powers of two or not, the bracket (k, L, U, outer) of the
    integer loop equals that of the Fraction running sums, on every kind of
    oracle value: grid-rounded enclosures, exact values on and off the
    decimal grid (3x/20: sums that leave the grid and come back to it), both
    mixed, Lipschitz pieces, and increasing and decreasing pieces.  The
    spread handed to `cells` is the reference's, and the width stays below
    spread/k + 3 (v - u) 10^-digits, the bound the predicted k rests on."""
    name = data.draw(st.sampled_from(sorted(_REFERENCE_CASES)))
    fractions = st.fractions(min_value=-2, max_value=2, max_denominator=64)
    if name == "1/x^2":
        fractions = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=64)
    elif name == "dyadic x^2":
        fractions = st.integers(-64, 64).map(lambda n: F(n, 16))
    elif name == "flat_bump":
        sign = data.draw(st.sampled_from([1, -1]))
        fractions = st.fractions(min_value=0, max_value=2, max_denominator=64).map(
            lambda x: sign * x)
    u, v = data.draw(st.lists(fractions, min_size=2, max_size=2, unique=True).map(sorted))
    a, b = data.draw(st.lists(st.fractions(-2, 2, max_denominator=16), min_size=2,
                              max_size=2, unique=True).map(sorted))
    f, kind = _REFERENCE_CASES[name](a, b, u)
    digits = data.draw(st.integers(1, 12))
    k = data.draw(st.integers(1, 600))
    spread, expected = _reference_running_darboux(f, u, v, kind, digits, k)
    spreads = []
    bracket = _running_darboux(f, u, v, kind, digits, lambda s: spreads.append(s) or k)
    assert bracket == expected and spreads == [spread]
    _, lower, upper, _ = bracket
    assert upper - lower < spread / k + 3 * (v - u) / 10**digits


def test_flat_bump_certifies_across_its_flat_point():
    # each monotone piece of exp(-1/x^2) refines on its own, so the cut at
    # 0 no longer reads as a stall after one doubling
    result = integrate_enclosure(gallery("flat_bump"), -1, 1, F(1, 1000))
    assert result.status is Status.CONVERGES
    assert result.width() <= F(1, 1000)
    # 2 (1/e - sqrt(pi) erfc(1)) = 0.1781477...
    assert result.enclosure.contains(F(1781477, 10**7))


def test_darboux_sums_stay_on_the_digit_grid():
    # grid-rounded point enclosures keep the sums at O(digits) bits (the
    # unrounded exp endpoints summed to 114,518 bits at k = 256)
    result = integrate_enclosure(gallery("smooth_step", a=0, b=1), 0, 1, F(3, 500))
    assert result.outer
    assert max(x.denominator.bit_length() for x in (result.enclosure.lo, result.enclosure.hi)) < 100
    exact = integrate_enclosure(poly_descriptor([0, 0, 1]).with_meta(poly_coeffs=None,
                                                                     antiderivative=None),
                                0, 1, F(1, 100))
    assert not exact.outer and exact.enclosure.contains(F(1, 3))


def test_narrow_smoothstep_where_both_exps_exit_early():
    # on [0, 1/12] both e^(-1/(x-a)) and e^(-1/(b-x)) fall below 10^-10 at
    # x = 1/24; their early-exit enclosures [0, 2^-34] may not be divided
    # by their sum, which touches 0
    f = gallery("smooth_step", a=0, b=F(1, 12))
    assert f.enclosure_at(F(1, 24), 8).contains(F(1, 2))
    result = integrate_enclosure(f, 0, 1, F(1, 10))
    assert result.status is Status.CONVERGES
    assert result.enclosure.contains(F(23, 24))  # 1/24 on the step, 11/12 after it


_X_INV_SQUARE = FnDescriptor(
    name="x^-2",
    eval_rat=lambda x: 1 / (x * x),
    monotone_pieces=((None, F(0), "increasing"), (F(0), None, "decreasing")),
    antiderivative=FnDescriptor(name="-1/x", eval_rat=lambda x: -1 / x),
)


def test_improper_window_starts_at_the_finite_end(capsys):
    from certreal.cli import main

    partner = (Comparison("p_at_inf", p=F(2), const=F(1), from_x=F(1)),)
    for lo, hi, value, window in ((F(10), None, F(1, 10), ("10", "160")),
                                  (None, F(-3), F(1, 3), ("-192", "-3"))):
        end = str(lo if hi is None else hi)
        certified, traced = (
            improper_integral(ImproperSpec(_X_INV_SQUARE, lo, hi, comparisons=comparisons,
                                           nonnegative=True), F(1, 100))
            for comparisons in (partner, ())
        )
        # the schedule starts at T = |end| (an empty window) and doubles;
        # the tail bound 1/T first fits 1/100 at T = 160 and T = 192
        assert [item[1] for item in certified.trace] == [window]
        assert certified.status is Status.CONVERGES
        assert certified.value.contains(value)
        # the first window is empty, then grows away from the finite end
        assert traced.trace[0][1] == (end, end)
        assert all(F(a) <= F(b) for _, (a, b), _ in traced.trace)
        assert traced.status is Status.INCONCLUSIVE
    # the CLI ran into "need a <= b" (exit 1) here
    assert main(["integrate", "poly:x^2", "5", "inf", "--improper", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "Inconclusive"
    assert payload["trace"][0]["window"] == ["5", "5"]
    assert payload["trace"][1]["window"] == ["5", "10"]


_ENDS = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=64),
                 min_size=2, max_size=2, unique=True).map(sorted)


def _mpmath_integral(mpmath, name, lo, hi, params):
    if name.startswith("flat_bump"):
        cuts = [F(0)]

        def f(x):
            return mpmath.exp(-1 / x**2) if x != 0 else mpmath.mpf(0)
    else:
        a, b = params["a"], params["b"]
        cuts = [a, b]
        ma, mb = mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(b.numerator) / b.denominator

        def f(x):
            if x <= ma:
                return mpmath.mpf(0)
            if x >= mb:
                return mpmath.mpf(1)
            rise, fall = mpmath.exp(-1 / (x - ma)), mpmath.exp(-1 / (mb - x))
            return rise / (rise + fall)
    points = [lo] + sorted(c for c in cuts if lo < c < hi) + [hi]
    return mpmath.quad(f, [mpmath.mpf(p.numerator) / p.denominator for p in points],
                       error=True)


@settings(deadline=None, max_examples=25)
@given(data=st.data())
def test_integral_contains_mpmath(data):
    """mpmath.quad at twice the working digits, an independent reference,
    lies inside the Darboux enclosure, and the enclosure meets its width."""
    mpmath = pytest.importorskip("mpmath")
    name = data.draw(st.sampled_from(["flat_bump", "flat_bump_lipschitz", "smooth_step"]))
    params = dict(zip("ab", data.draw(_ENDS))) if name == "smooth_step" else {}
    lo, hi = data.draw(_ENDS)
    target = F(1, data.draw(st.sampled_from([10, 100, 1000])))
    if name == "flat_bump_lipschitz":
        # |f'(x)| = 2 e^(-1/x^2) / |x|^3 peaks at x^2 = 2/3, at 2 (3/2)^(3/2) e^(-3/2) < 0.82
        f = gallery("flat_bump").with_meta(monotone_pieces=None, lipschitz=F(1))
    else:
        f = gallery(name, **params)
    result = integrate_enclosure(f, lo, hi, target)
    assert result.status is Status.CONVERGES
    assert result.width() <= target
    digits = 2 * _digits_for(target, 6)
    with mpmath.workdps(digits):
        value, error = _mpmath_integral(mpmath, name, lo, hi, params)
        assert error < mpmath.mpf(10) ** (-digits // 2)
        sign, man, exp, _ = value._mpf_
    reference = F(-man if sign else man) * F(2) ** exp
    slack = F(1, 10**digits)
    assert result.enclosure.lo - slack <= reference <= result.enclosure.hi + slack


@settings(deadline=None, max_examples=60)
@given(coeffs=st.lists(st.fractions(-4, 4, max_denominator=6), min_size=1, max_size=4),
       ends=_ENDS, m=st.integers(1, 255))
def test_polynomial_darboux_sums_are_plain_sums(coeffs, ends, m):
    """The forward-difference sums of a monotone polynomial piece equal h
    times its per-point left and right sums on the regular k-partition."""
    f = poly_descriptor(coeffs)
    assume(f.monotone_pieces is not None)
    for u, v, _ in f.monotone_split(*ends):
        swing = abs(f.value_at(v) - f.value_at(u))
        target = swing * (v - u) / m if swing else F(1)  # k = m + 1, or 1
        result = integrate_enclosure(f, u, v, target, method="darboux")
        k = result.subintervals
        assert 1 <= k <= 256
        h = (v - u) / k
        left = h * sum(f.value_at(u + i * h) for i in range(k))
        right = h * sum(f.value_at(u + i * h) for i in range(1, k + 1))
        assert result.enclosure == Enclosure(min(left, right), max(left, right))


_INV_SQUARE_EXACT = FnDescriptor(
    name="1/x^2",
    eval_rat=lambda x: 1 / (x * x),
    monotone_pieces=((None, F(0), "increasing"), (F(0), None, "decreasing")),
)


def _bits(result):
    return max(max(x.numerator.bit_length(), x.denominator.bit_length())
               for x in (result.enclosure.lo, result.enclosure.hi))


def test_integral_endpoints_have_digit_sized_bits():
    # every result of the corpus has at most 8 d + 256 bits per endpoint,
    # d = -floor(log10(width)); summing exact 1/x^2 values unrounded gave
    # 5,875 bits at 1e-3 and 47,330 bits at 1e-4
    from certreal.cli import resolve_function

    wiggle = FnDescriptor(name="lip", eval_rat=lambda x: abs(x - F(1, 3)), lipschitz=F(1))
    square = poly_descriptor([0, 0, 1]).with_meta(poly_coeffs=None, antiderivative=None)
    corpus = [
        (gallery("smooth_step", a=0, b=1), 0, 1, 2, {}),
        (gallery("flat_bump"), -1, 1, 3, {}),
        (gallery("unit_step"), F(-1, 2), F(7, 4), 3, {}),
        (gallery("rational_indicator"), 0, 1, 3, {}),
        (wiggle, 0, 1, 2, {}),
        (square, 0, 1, 3, {}),
        (PARABOLA, 0, 6, 6, {"method": "darboux"}),
        (poly_descriptor([32, 1, 0, 0, 0, 1]), -2, 1, 4, {"method": "darboux"}),
        (poly_descriptor([0, -3, 0, 1]), F(-3, 2), 2, 3, {"method": "darboux"}),
        (STEP5, 0, 5, 1, {}),
        (STEP5, 0, 5, 1, {"method": "darboux"}),
        (resolve_function("x^-1"), 1, 4, 6, {}),
        (resolve_function("x^1/2"), 0, 4, 6, {}),
        (resolve_function("x^-2"), 1, 10, 6, {}),
        (_INV_SQUARE_EXACT, 1, 2, 3, {}),
        (_INV_SQUARE_EXACT, 1, 2, 4, {}),
    ]
    for f, a, b, d, options in corpus:
        result = integrate_enclosure(f, a, b, F(1, 10**d), **options)
        assert _bits(result) <= 8 * d + 256, (f.name, a, b, d, _bits(result))


def test_exact_oracle_sums_round_outward_on_the_digit_grid():
    result = integrate_enclosure(_INV_SQUARE_EXACT, 1, 2, F(1, 10**4))
    assert result.status is Status.CONVERGES and result.subintervals == 7501
    assert result.enclosure.contains(F(1, 2)) and result.width() <= F(1, 10**4)
    assert result.outer  # the exact sums were rounded
    # a sum whose denominator stays within 10^digits is kept exact
    small = integrate_enclosure(_INV_SQUARE_EXACT, 1, 2, F(1, 2))
    assert small.subintervals == 2 and not small.outer
    assert small.enclosure == Enclosure(F(1, 2) * (F(1, 4) + F(4, 9)), F(1, 2) * (F(4, 9) + 1))


def test_improper_trace_only_windows_have_digit_sized_bits():
    # no antiderivative and no partner: eight trace-only windows, the last
    # [-384, -3] at k = 65,536 exact values of 1/x^2
    verdict = improper_integral(ImproperSpec(_INV_SQUARE_EXACT, None, F(-3)))
    assert verdict.status is Status.INCONCLUSIVE
    assert len(verdict.trace) == 8
    for kind, (lo, hi), enclosure in verdict.trace:
        assert kind == "window"
        assert enclosure.contains(1 / F(lo) - 1 / F(hi)) and enclosure.width() <= F(1, 1000)
        assert max(x.denominator.bit_length() for x in (enclosure.lo, enclosure.hi)) <= 8 * 3 + 256


def test_darboux_method_on_step_pieces():
    result = integrate_enclosure(STEP5, 0, 5, F(1, 10), method="darboux")
    assert result.status is Status.CONVERGES
    assert result.subintervals == 512
    assert result.enclosure == Enclosure(F(3785, 512), F(3815, 512))
    assert result.enclosure.contains(F(89, 12)) and not result.outer


def test_integrate_method_is_auto_or_darboux():
    for method in ("antiderivative", "step", "midpoint"):
        with pytest.raises(ValueError, match="unknown method"):
            integrate_enclosure(PARABOLA, 0, 6, F(1, 100), method=method)


def test_refinement_pulls_no_bracket_past_the_cap():
    from certreal.integration import _MAX_DOUBLINGS, _refine

    pulled = []

    def brackets():
        k = 1
        while True:
            pulled.append(k)
            yield k, F(0), F(1, k), False  # shrinks forever, never meets 0
            k *= 2

    result = _refine(brackets(), F(1, 2**40))
    assert len(pulled) == _MAX_DOUBLINGS + 1 == 25
    assert result.status is Status.INCONCLUSIVE and result.subintervals == 2**24
    assert result.enclosure == Enclosure(F(0), F(1, 2**24))


def _full_schedule(spec, target, steps=60):
    """The improper schedule as it ran before windows were skipped: the core
    of every window of the first `steps` is integrated.  Returns the
    verdict and, per step, the width of the partner interval the bounds
    give."""
    from certreal.core import Certificate, Verdict
    from certreal.integration import _first_t, _window

    digits = _digits_for(target, 4)
    tail_comp = next((c for c in spec.comparisons if c.kind in ("p_at_inf", "exp_at_inf")), None)
    head_comp = next((c for c in spec.comparisons if c.kind == "p_at_zero"), None)
    unbounded = spec.lo is None or spec.hi is None
    singular = spec.singular_lo or spec.singular_hi
    big_t = _first_t(spec, max(F(2), tail_comp.from_x) if tail_comp else F(2))
    eps = F(1, 2)
    trace, widths = [], []
    for _ in range(steps):
        lo, hi = _window(spec, big_t, eps)
        core = integrate_enclosure(spec.integrand, lo, hi, target / 2, digits=digits)
        rest = tail_comp.tail_bound(big_t, digits) if unbounded else F(0)
        if singular:
            rest += head_comp.head_bound(eps, digits)
        enclosure = core.enclosure + Enclosure(F(0) if spec.nonnegative else -rest, rest)
        trace.append(("window", (str(lo), str(hi)), enclosure))
        widths.append(rest if spec.nonnegative else 2 * rest)
        if core.status is Status.CONVERGES and enclosure.width() <= target:
            cert = Certificate(
                "comparison_majorant",
                {
                    "tail": f"<= {tail_comp.const} * partner at T={big_t}" if unbounded else None,
                    "head": f"<= head bound at eps={eps}" if singular else None,
                    "core_method": core.method,
                },
                asserted=("the comparison inequalities hold beyond the checked range",),
            )
            return Verdict(Status.CONVERGES, cert, enclosure, trace=tuple(trace)), widths
        if unbounded:
            big_t *= 2
        if singular:
            eps /= 2
    return Verdict(Status.INCONCLUSIVE, None, None, trace=tuple(trace)), widths


def _exp_descriptor(sign):
    """e^(sign x), monotone, with its antiderivative e^(sign x) / sign."""
    from certreal.powerseries import exp_enclosure

    return FnDescriptor(
        name=f"e^({sign}x)",
        eval_enc=lambda x, d: exp_enclosure(sign * x, d),
        monotone="increasing" if sign > 0 else "decreasing",
        antiderivative=FnDescriptor(
            name="anti", eval_enc=lambda x, d: exp_enclosure(sign * x, d).scale(sign)),
    )


def _head_and_tail_descriptor():
    """x^-2 on (-inf, -1] and |x|^-1/2 on (-1, 0): increasing, with both an
    infinite and a singular end; the integral over (-inf, 0) is 1 + 2."""
    half = F(1, 2)

    def anti(x, d):
        if x <= -1:
            return Enclosure.point(-1 / x)
        return 3 - rational_power_enclosure(-x, half, d).scale(2)

    return FnDescriptor(
        name="x^-2 | |x|^-1/2",
        eval_enc=lambda x, d: (Enclosure.point(1 / (x * x)) if x <= -1
                               else rational_power_enclosure(-x, -half, d)),
        monotone="increasing",
        antiderivative=FnDescriptor(name="anti", eval_enc=anti),
    )


def _partnered_cases():
    """(integrand, lo, hi, singular_lo, singular_hi, partners, integrand >= 0)."""
    from certreal.cli import resolve_function

    def at_inf(p, from_x, const=1):
        return Comparison("p_at_inf", p=F(p), const=F(const), from_x=F(from_x))

    def at_zero(p):
        return Comparison("p_at_zero", p=F(p), const=F(1))

    exp_tail = Comparison("exp_at_inf", p=F(1), const=F(1), from_x=F(0))
    return [
        (resolve_function("x^-2"), F(1), None, False, False, (at_inf(2, 1),), True),
        (resolve_function("x^-3/2"), F(5, 2), None, False, False,
         (at_inf(F(3, 2), F(5, 2)),), True),
        (resolve_function("x^-5/4"), F(1), None, False, False, (at_inf(F(5, 4), 1),), True),
        (resolve_function("x^-3"), F(1), None, False, False, (at_inf(2, 1, F(5, 2)),), True),
        (resolve_function("x^-2"), None, F(-1, 2), False, False, (at_inf(2, F(1, 2)),), True),
        (resolve_function("x^-3"), None, F(-1), False, False, (at_inf(3, 1),), False),
        (resolve_function("x^-1/2"), F(0), F(7, 4), True, False, (at_zero(F(1, 2)),), True),
        (resolve_function("x^-1/3"), F(0), F(1), True, False, (at_zero(F(1, 3)),), True),
        (_head_and_tail_descriptor(), None, F(0), False, True,
         (at_inf(2, 1), at_zero(F(1, 2))), True),
        (_exp_descriptor(-1), F(0), None, False, False, (exp_tail,), True),
        (_exp_descriptor(1), None, F(1), False, False, (exp_tail,), True),
    ]


@settings(deadline=None, max_examples=100)
@given(case=st.sampled_from(_partnered_cases()), exponent=st.integers(2, 8),
       mantissa=st.integers(1, 9), claim_sign=st.booleans())
def test_skipped_windows_leave_the_answer_unchanged(case, exponent, mantissa, claim_sign):
    """Wherever the full schedule certifies within its 60 steps: the same
    status, value and certificate, and the trace is the full trace
    filtered by partner width <= target.  Where it runs out of steps (the
    x^-5/4 tail at 1e-4 and below), the uncapped walk still certifies."""
    f, lo, hi, singular_lo, singular_hi, partners, nonnegative_f = case
    spec = ImproperSpec(f, lo, hi, singular_lo=singular_lo, singular_hi=singular_hi,
                        comparisons=partners, nonnegative=claim_sign and nonnegative_f)
    target = F(mantissa, 10**exponent)
    expected, widths = _full_schedule(spec, target)
    verdict = improper_integral(spec, target)
    if expected.status is not Status.CONVERGES:
        assert verdict.status is Status.CONVERGES and verdict.value.width() <= target
        return
    assert verdict.status is expected.status
    assert verdict.value == expected.value
    assert verdict.certificate == expected.certificate
    kept = tuple(item for item, width in zip(expected.trace, widths) if width <= target)
    assert verdict.trace == kept


def test_improper_jumps_to_the_first_window_that_can_certify(monkeypatch):
    """The power-law partner bounds are compared exactly before the loop, so
    the loop computes one outward-rounded bound where it walked 42 steps."""
    from certreal.cli import resolve_function

    calls = []
    for name in ("tail_bound", "head_bound"):
        bound = getattr(Comparison, name)
        monkeypatch.setattr(Comparison, name,
                            lambda self, at, digits, _bound=bound: calls.append(at)
                            or _bound(self, at, digits))
    for fn, lo, hi, partner in (
        ("x^-1/2", F(0), F(7, 4), Comparison("p_at_zero", p=F(1, 2))),
        ("x^-3/2", F(2), None, Comparison("p_at_inf", p=F(3, 2), from_x=F(2))),
    ):
        calls.clear()
        spec = ImproperSpec(resolve_function(fn), lo, hi, singular_lo=lo == 0,
                            comparisons=(partner,), nonnegative=True)
        verdict = improper_integral(spec, F(1, 10**6))
        assert verdict.status is Status.CONVERGES, fn
        assert len(calls) <= 2, (fn, calls)


def test_improper_integrates_only_windows_that_can_certify(monkeypatch):
    from certreal import integration
    from certreal.cli import resolve_function

    windows = []
    integrate = integration.integrate_enclosure

    def counted(f, a, b, *args, **kwargs):
        windows.append((a, b))
        return integrate(f, a, b, *args, **kwargs)

    monkeypatch.setattr(integration, "integrate_enclosure", counted)
    spec = ImproperSpec(resolve_function("x^-1/2"), F(0), F(7, 4), singular_lo=True,
                        comparisons=(Comparison("p_at_zero", p=F(1, 2), const=F(1)),),
                        nonnegative=True)
    verdict = improper_integral(spec, F(1, 10**6))
    assert verdict.status is Status.CONVERGES
    lo, hi = verdict.value.lo, verdict.value.hi
    assert lo * lo <= 7 <= hi * hi  # the integral is 2 sqrt(7/4)
    # the head bound 2 sqrt(eps) first fits 10^-6 at eps = 2^-42, the 42nd
    # step: the full schedule integrated the core of all 42 windows
    assert windows == [(F(1, 2**42), F(7, 4))]
    assert [item[1] for item in verdict.trace] == [(str(F(1, 2**42)), "7/4")]


def test_comparison_rejects_partners_whose_bound_fails():
    """No bound holds for these: a minorant with const <= 0 holds for f = 0,
    which converges; p = 1 (p = 0 for exp) divides by zero; a partner that
    grows has no tail bound; an unknown kind has no bound at all."""
    for kind, p, const in (
        ("minorant_p_at_inf", F(1), F(0)),
        ("minorant_p_at_inf", F(1), F(-1)),
        ("minorant_p_at_zero", F(2), F(0)),
        ("minorant_p_at_zero", F(2), F(-1)),
        ("p_at_inf", F(1), F(1)),
        ("exp_at_inf", F(0), F(1)),
        ("p_at_inf", F(1, 2), F(1)),
        ("exp_at_inf", F(-1), F(1)),
        ("p_at_zero", F(1), F(1)),
        ("p_at_zero", F(0), F(1)),
        ("minorant_p_at_inf", F(3, 2), F(1)),
        ("minorant_p_at_zero", F(1, 2), F(1)),
        ("p_at_inf", None, F(1)),
        ("p_at_inf", F(2), F(0)),
    ):
        with pytest.raises(ValueError, match=kind):
            Comparison(kind, p=p, const=const)
    with pytest.raises(ValueError, match="unknown comparison kind 'p_at_one'"):
        Comparison("p_at_one", p=F(2))
    # the edges of each range are kept
    for kind, p in (("minorant_p_at_inf", F(1)), ("minorant_p_at_zero", F(1)),
                    ("minorant_p_at_inf", F(-1))):
        assert Comparison(kind, p=p).p == p


def test_improper_walk_terminates_for_a_large_partner_constant():
    # e^-x <= 10^30 e^-x: at the target's 10 digits, exp_enclosure bounds
    # e^-T by 2^-104 for every T >= 73, so the rounded tail bound would stay
    # 10^30 2^-104 ~ 0.05 at every step; the power is taken 29 digits finer
    spec = ImproperSpec(_exp_descriptor(-1), F(0), None, comparisons=(
        Comparison("exp_at_inf", p=F(1), const=F(10**30), from_x=F(0)),), nonnegative=True)
    verdict = improper_integral(spec, F(1, 10**6))
    assert verdict.status is Status.CONVERGES
    assert verdict.value.contains(1) and verdict.value.width() <= F(1, 10**6)
    assert [item[1] for item in verdict.trace] == [("0", "128")]


_INV_SQRT_DARBOUX = FnDescriptor(
    name="x^-1/2, no antiderivative",
    eval_enc=lambda x, d: rational_power_enclosure(x, F(-1, 2), d),
    monotone="decreasing",
)


def test_improper_darboux_core_walks_to_a_second_window():
    # the head bound 2 sqrt(eps) first fits 1/10 at eps = 2^-9, but there it
    # takes more than half of the target, and the Darboux core (its k
    # predicted to fill 1/20) does not fit beside it: 0.088 + 0.050 at
    # 2^-9 and 0.063 + 0.050 at 2^-10, so the walk steps on to eps = 2^-11
    spec = ImproperSpec(_INV_SQRT_DARBOUX, F(0), F(1), singular_lo=True,
                        comparisons=(Comparison("p_at_zero", p=F(1, 2)),), nonnegative=True)
    verdict = improper_integral(spec, F(1, 10))
    assert verdict.status is Status.CONVERGES and verdict.value.contains(2)
    assert [item[1] for item in verdict.trace] == [("1/512", "1"), ("1/1024", "1"),
                                                  ("1/2048", "1")]
    assert verdict.trace[0][2].width() > F(1, 10) >= verdict.value.width()
    assert verdict.certificate.witnesses["core_method"] == "darboux"


def test_improper_core_that_never_converges_stops_the_walk():
    from certreal.cli import resolve_function

    # the rational indicator's Darboux pair stays [0, 1] per cell, so its
    # core never converges: the walk stops at its first window, Inconclusive
    spec = ImproperSpec(resolve_function("gallery:dirichlet"), F(1), None,
                        comparisons=(Comparison("p_at_inf", p=F(2)),), nonnegative=True)
    verdict = improper_integral(spec, F(1, 1000))
    assert verdict.status is Status.INCONCLUSIVE and verdict.value is None
    assert [item[1] for item in verdict.trace] == [("1", "1024")]


def test_benchmark_shaped_improper_queries_take_few_exact_tests(monkeypatch, capsys):
    from certreal import integration
    from certreal.cli import main

    calls = []
    exceeds = integration._bound_exceeds
    monkeypatch.setattr(integration, "_bound_exceeds",
                        lambda *args: calls.append(args) or exceeds(*args))
    for fn, a, b in ([("x^-1/2", "0", b) for b in ("7/4", "9/4", "3", "4")]
                     + [("x^-3/2", a, "inf") for a in ("1", "3/2", "2", "5/2", "3")]
                     + [("x^-2", a, "inf") for a in ("1", "3/2", "5/2", "3")]):
        calls.clear()
        assert main(["integrate", fn, a, b, "--improper", "--width", "1e-6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "Converges"
        assert 1 <= len(calls) <= 7, (fn, a, b, len(calls))
