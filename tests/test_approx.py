import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from certreal.approx import (
    BernsteinOperator,
    SawtoothSeries,
    bernstein_apply,
    bernstein_basis,
    bernstein_error_bound,
    gallery,
    make_fn_sequence,
    nowhere_diff_quotients,
    uniform_deviation,
    weierstrass_m_test,
)
from certreal.core import Enclosure, FnDescriptor, Status, poly_descriptor
from certreal.integration import darboux, integrate_enclosure, regular_partition
from certreal.powerseries import exp_enclosure
from certreal.sequences import TermStream

ZERO = FnDescriptor(name="0", eval_rat=lambda x: F(0))


def test_uniform_deviation_power_family():
    power = make_fn_sequence("power")
    for n in (1, 7, 50):
        result = uniform_deviation(power, ZERO, n)
        assert result.exact and result.value == 1


def test_uniform_deviation_xexp_formula():
    xexp = make_fn_sequence("xexp")
    for n in (1, 4, 25):
        enc = uniform_deviation(xexp, ZERO, n).value
        reference = math.exp(-0.5) / math.sqrt(2 * n)
        assert float(enc.lo) <= reference <= float(enc.hi)
        assert enc.width() <= F(1, 10**9)


def test_uniform_deviation_constant_family():
    f = poly_descriptor([1, 1], name="1+x")
    constant = make_fn_sequence("constant", f=f)
    assert uniform_deviation(constant, f, 3).value == 0


def test_uniform_deviation_grid_lower_bound():
    power = make_fn_sequence("power")
    result = uniform_deviation(power, ZERO, 5, grid=16)
    assert result.kind == "grid_lower_bound"
    assert 0 < result.value <= 1  # a lower bound on the true supremum 1


def test_m_test_outcomes():
    assert weierstrass_m_test(TermStream(lambda n: F(1, 4**n), 0)).status is Status.CONVERGES
    decay = TermStream(lambda n: exp_enclosure(-n, 8).hi, 1)
    assert weierstrass_m_test(decay, horizon=64).status is Status.CONVERGES
    assert weierstrass_m_test(TermStream(lambda n: F(1, n), 1)).status is Status.INCONCLUSIVE
    with pytest.raises(ValueError, match="negative"):
        weierstrass_m_test(TermStream(lambda n: F(-1, n), 1))


def test_m_test_certificate_carries_uniformity():
    verdict = weierstrass_m_test(TermStream(lambda n: F(1, 4**n), 0), horizon=64)
    assert "uniformly" in verdict.certificate.detail


def test_bernstein_square_identity():
    rng = random.Random(7)
    for n in range(1, 13):
        op = BernsteinOperator.from_function(lambda t: t * t, n)
        for _ in range(6):
            x = F(rng.randrange(0, 97), 97)
            assert bernstein_apply(op, x) == x * x + x * (1 - x) / n


def test_bernstein_reproduces_constants_and_identity():
    const = BernsteinOperator.from_function(lambda t: F(5, 3), 9)
    line = BernsteinOperator.from_function(lambda t: t, 9)
    for x in (F(0), F(1, 7), F(1, 2), F(1)):
        assert bernstein_apply(const, x) == F(5, 3)
        assert bernstein_apply(line, x) == x


def test_partition_of_unity_and_second_moment():
    rng = random.Random(11)
    for n in range(1, 13):
        x = F(rng.randrange(0, 101), 101)
        assert sum(bernstein_basis(n, k, x) for k in range(n + 1)) == 1
        if n >= 2:
            second = sum((x - F(k, n)) ** 2 * bernstein_basis(n, k, x) for k in range(n + 1))
            assert second == x * (1 - x) / n


def test_bernstein_sup_deviation_square():
    # deviation x(1-x)/n peaks at x = 1/2 with value 1/(4n), decreasing in n
    previous = None
    for n in (1, 2, 5, 12):
        op = BernsteinOperator.from_function(lambda t: t * t, n)
        peak = bernstein_apply(op, F(1, 2)) - F(1, 4)
        assert peak == F(1, 4 * n)
        if previous is not None:
            assert peak < previous
        previous = peak


def test_bernstein_error_bound_formula():
    assert bernstein_error_bound(1, F(1, 10), F(1, 50), 200) == F(1, 100) + F(100, 400)
    assert bernstein_error_bound(F(3), F(1, 4), F(1, 10), 96) == F(1, 20) + F(3, 12)


def test_bernstein_affine_pullback():
    op = BernsteinOperator.from_function(lambda u: u * u, 6, interval=(2, 4))
    # sample k/6 maps to 2 + 2k/6; at t=0 and t=1 the endpoints come back
    assert op.samples[0] == 4 and op.samples[-1] == 16
    assert bernstein_apply(op, 0) == 4
    with pytest.raises(ValueError):
        bernstein_apply(op, F(3, 2))


def test_gallery_rational_indicator_darboux_only():
    dirichlet = gallery("rational_indicator")
    pair = darboux(dirichlet, regular_partition(0, 1, 16))
    assert pair.lower == 0 and pair.upper == 1


def test_gallery_unit_step():
    step = gallery("unit_step")
    assert step.value_at(-1) == 0 and step.value_at(0) == 1
    assert step.monotone == "increasing"


def test_unit_step_auto_integral_is_its_exact_antiderivative():
    step = gallery("unit_step")
    for a, b in ((F(-1), F(1)), (F(-3, 4), F(-1, 4)), (F(1, 3), F(7, 2)), (F(-5), F(2, 7))):
        result = integrate_enclosure(step, a, b, F(1, 10**6))
        assert result.method == "antiderivative" and result.subintervals == 0
        assert result.enclosure == Enclosure.point(max(b, 0) - max(a, 0))


def test_gallery_bump_values():
    bump = gallery("flat_bump")
    assert bump.enclosure_at(0, 10) == Enclosure.point(0)
    for x in (1, -1):
        assert bump.enclosure_at(F(x), 15).contains(exp_enclosure(-1, 20))


def test_gallery_smooth_step():
    step = gallery("smooth_step", a=F(0), b=F(1))
    assert step.enclosure_at(F(-3), 10) == Enclosure.point(0)
    assert step.enclosure_at(F(2), 10) == Enclosure.point(1)
    inside = step.enclosure_at(F(1, 3), 12)
    assert 0 < inside.lo and inside.hi < 1
    with pytest.raises(ValueError):
        gallery("smooth_step", a=1, b=0)


def _smooth_step_reference(a, b, x, d):
    """The smooth-step oracle in exact enclosure arithmetic on exp_enclosure:
    1/(1 + e^-|q|) and its complement, unrounded."""
    if x <= a:
        return Enclosure.point(0)
    if x >= b:
        return Enclosure.point(1)
    q = 1 / (x - a) - 1 / (b - x)
    larger = (1 + exp_enclosure(-abs(q), d + 1)).reciprocal()
    return larger if q <= 0 else 1 - larger


@settings(deadline=None, max_examples=150)
@given(a=st.fractions(-20, 20, max_denominator=12),
       span=st.fractions(F(1, 12), 30, max_denominator=12),
       t=st.fractions(F(-1, 10), F(11, 10), max_denominator=1000), d=st.integers(1, 30))
def test_smooth_step_is_the_reference_rounded_outward(a, span, t, d):
    """Each end is the exact reference end rounded outward onto the
    10^-(d+1) grid, and the enclosure meets the 10^-d contract."""
    b, x = a + span, a + span * t
    reference = _smooth_step_reference(a, b, x, d)
    enc = gallery("smooth_step", a=a, b=b).enclosure_at(x, d)
    scale = 10 ** (d + 1)
    assert enc.lo == F(math.floor(reference.lo * scale), scale)
    assert enc.hi == F(math.ceil(reference.hi * scale), scale)
    assert enc.width() <= F(1, 10**d)
    assert scale % enc.lo.denominator == 0 and scale % enc.hi.denominator == 0


def test_sawtooth_integer_sums_equal_the_layer_sums():
    rng = random.Random(11)
    for cap in (0, 1, 5, 12):
        series = SawtoothSeries(cap)
        for _ in range(60):
            x = F(rng.randrange(-10**6, 10**6), rng.randrange(1, 10**4))
            for upto in {0, cap // 2, cap}:
                layers = sum((series.layer_value(n, x) for n in range(upto + 1)), F(0))
                assert series.partial_value(x, upto) == layers


def test_sawtooth_layers_and_truncation():
    series = SawtoothSeries(10)
    assert series.partial_value(0) == 0
    rng = random.Random(3)
    for _ in range(40):
        x = F(rng.randrange(-400, 400), 256)
        for n in (0, 2, 5):
            assert 0 <= series.layer_value(n, x) <= F(1, 4**n)
    assert SawtoothSeries.truncation_error(4) == F(1, 3 * 256)
    # periodicity of each layer
    assert series.layer_value(2, F(3, 100)) == series.layer_value(2, F(3, 100) + F(2, 16))


def test_sawtooth_descriptor():
    f = gallery("sawtooth", levels=6)
    total = sum(SawtoothSeries(6).layer_value(n, F(1, 5)) for n in range(7))
    assert f.value_at(F(1, 5)) == total
    assert f.lipschitz == 7


def test_sawtooth_antiderivative_matches_the_trapezoid_rule():
    # the level-3 partial sum is linear between the points of the 1/64 grid
    # and at the end points, so the trapezoid rule on them is exact
    f = gallery("sawtooth", levels=3)
    rng = random.Random(7)
    for _ in range(20):
        a, b = sorted(F(rng.randrange(-300, 300), rng.choice((64, 100, 7))) for _ in range(2))
        points = [a] + [F(i, 64) for i in range(math.floor(a * 64), math.ceil(b * 64))
                        if a < F(i, 64) < b] + [b]
        trapezoid = sum((q - p) * (f.value_at(p) + f.value_at(q)) / 2
                        for p, q in zip(points, points[1:]))
        assert f.antiderivative.value_at(b) - f.antiderivative.value_at(a) == trapezoid


def test_nowhere_diff_quotients_level_zero():
    series = SawtoothSeries(12)
    record = nowhere_diff_quotients(series, 0, 0)[0]
    assert set(record.quotients) == {F(-1), F(1)}  # single layer, slope +-1


def test_nowhere_diff_parity_dyadic_grid():
    series = SawtoothSeries(12)
    rng = random.Random(5)
    points = [F(rng.randrange(-64, 64), 2**rng.randrange(0, 6)) for _ in range(20)]
    for x0 in points:
        for record in nowhere_diff_quotients(series, x0, 12):
            for quotient in record.quotients:
                assert quotient.denominator == 1  # integers, always
                expected_odd = record.level % 2 == 0
                assert (quotient.numerator % 2 == 1) == expected_odd


def test_nowhere_diff_ambiguity_reported_at_lattice():
    series = SawtoothSeries(8)
    records = nowhere_diff_quotients(series, 0, 3)
    assert all(record.sides == ("-", "+") for record in records)
