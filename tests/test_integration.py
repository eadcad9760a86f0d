import json
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
from certreal.integration import (
    Comparison,
    ImproperSpec,
    MissingMetadataError,
    Partition,
    _digits_for,
    darboux,
    gamma,
    improper_integral,
    integrate_enclosure,
    parts_check,
    regular_partition,
    riemann_sum,
    substitution_check,
)

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
    # k doubles 1 -> 256 on [0, 1]: 257 distinct grid points.  Without the
    # memo every subinterval evaluates both endpoints at every doubling
    # (1,022 oracle calls).
    f = gallery("smooth_step", a=0, b=1)
    calls = []

    def counted(x, digits):
        calls.append(x)
        return f.eval_enc(x, digits)

    result = integrate_enclosure(f.with_meta(eval_enc=counted), 0, 1, F(3, 500))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 256
    assert len(calls) == len(set(calls)) == 257
    assert result.enclosure == integrate_enclosure(f, 0, 1, F(3, 500)).enclosure


def test_lipschitz_refines_each_point_once():
    # |x - 1/3| with L = 1: the running sums take the 129 points of the
    # 128-partition once each, where `darboux` on every doubling evaluated
    # the 1 + 2 + ... + 128 = 255 cell midpoints
    calls = []

    def counted(x):
        calls.append(x)
        return abs(x - F(1, 3))

    wiggle = FnDescriptor(name="lip", eval_rat=counted, lipschitz=F(1))
    result = integrate_enclosure(wiggle, 0, 1, F(1, 100))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 128
    assert len(calls) == len(set(calls)) == 129
    assert result.outer and result.enclosure.contains(F(5, 18))


def test_tight_smoothstep_refines_each_point_once():
    # 1e-4 on [0, 1] needs k = 16384: the running sums evaluate the 16,385
    # grid points once each, where re-summing every doubling ran past 120 s
    f = gallery("smooth_step", a=0, b=1)
    calls = []

    def counted(x, digits):
        calls.append(x)
        return f.eval_enc(x, digits)

    result = integrate_enclosure(f.with_meta(eval_enc=counted), 0, 1, F(1, 10**4))
    assert result.status is Status.CONVERGES
    assert result.subintervals == 16384
    assert len(calls) == len(set(calls)) == 16385
    assert result.enclosure.contains(F(1, 2))  # smooth_step(x) + smooth_step(1-x) = 1
    assert result.width() <= F(1, 10**4)


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
    assert result.status is Status.CONVERGES and result.subintervals == 8192
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


def _full_schedule(spec, target, max_steps):
    """The improper schedule as it ran before windows were skipped: the core
    of every window is integrated.  Returns the verdict and, per step, the
    width of the partner interval the bounds give."""
    from certreal.core import Verdict
    from certreal.integration import ImproperCertificate, _first_t, _window

    digits = _digits_for(target, 4)
    tail_comp = next((c for c in spec.comparisons if c.kind in ("p_at_inf", "exp_at_inf")), None)
    head_comp = next((c for c in spec.comparisons if c.kind == "p_at_zero"), None)
    unbounded = spec.lo is None or spec.hi is None
    singular = spec.singular_lo or spec.singular_hi
    big_t = _first_t(spec, max(F(2), tail_comp.from_x) if tail_comp else F(2))
    eps = F(1, 2)
    trace, widths = [], []
    for _ in range(max_steps):
        lo, hi = _window(spec, big_t, eps)
        core = integrate_enclosure(spec.integrand, lo, hi, target / 2, digits=digits)
        rest = tail_comp.tail_bound(big_t, digits) if unbounded else F(0)
        if singular:
            rest += head_comp.head_bound(eps, digits)
        enclosure = core.enclosure + Enclosure(F(0) if spec.nonnegative else -rest, rest)
        trace.append(("window", (str(lo), str(hi)), enclosure))
        widths.append(rest if spec.nonnegative else 2 * rest)
        if core.status is Status.CONVERGES and enclosure.width() <= target:
            cert = ImproperCertificate(
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


def _partnered_cases():
    """(integrand, lo, hi, singular_lo, partner, integrand >= 0)."""
    from certreal.cli import resolve_function

    def at_inf(p, from_x):
        return Comparison("p_at_inf", p=F(p), const=F(1), from_x=F(from_x))

    def at_zero(p):
        return Comparison("p_at_zero", p=F(p), const=F(1))

    exp_tail = Comparison("exp_at_inf", p=F(1), const=F(1), from_x=F(0))
    return [
        (resolve_function("x^-2"), F(1), None, False, at_inf(2, 1), True),
        (resolve_function("x^-3/2"), F(5, 2), None, False, at_inf(F(3, 2), F(5, 2)), True),
        (resolve_function("x^-2"), None, F(-1, 2), False, at_inf(2, F(1, 2)), True),
        (resolve_function("x^-3"), None, F(-1), False, at_inf(3, 1), False),
        (resolve_function("x^-1/2"), F(0), F(7, 4), True, at_zero(F(1, 2)), True),
        (resolve_function("x^-1/3"), F(0), F(1), True, at_zero(F(1, 3)), True),
        (_exp_descriptor(-1), F(0), None, False, exp_tail, True),
        (_exp_descriptor(1), None, F(1), False, exp_tail, True),
    ]


@settings(deadline=None, max_examples=100)
@given(case=st.sampled_from(_partnered_cases()), exponent=st.integers(2, 8),
       mantissa=st.integers(1, 9), claim_sign=st.booleans(), max_steps=st.sampled_from((3, 60)))
def test_skipped_windows_leave_the_answer_unchanged(case, exponent, mantissa, claim_sign,
                                                     max_steps):
    """Against the full schedule: the same status, value and certificate,
    and the trace is the full trace filtered by the skip rule."""
    f, lo, hi, singular_lo, partner, nonnegative_f = case
    spec = ImproperSpec(f, lo, hi, singular_lo=singular_lo, comparisons=(partner,),
                        nonnegative=claim_sign and nonnegative_f)
    target = F(mantissa, 10**exponent)
    expected, widths = _full_schedule(spec, target, max_steps)
    verdict = improper_integral(spec, target, max_steps)
    assert verdict.status is expected.status
    assert verdict.value == expected.value
    assert verdict.certificate == expected.certificate
    kept = tuple(item for step, (item, width) in enumerate(zip(expected.trace, widths))
                 if width <= target or step == max_steps - 1)
    assert verdict.trace == kept


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
