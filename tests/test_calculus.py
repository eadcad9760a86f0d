from fractions import Fraction as F

import pytest

from certreal.calculus import (
    Bracket,
    WitnessScanInconclusive,
    bisect,
    count_roots_report,
    mvt_witness,
)
from certreal.core import MissingMetadataError, poly_descriptor, sqrt_enclosure

SEXTIC = poly_descriptor([1, 6, 0, 0, 0, 0, 1], name="x^6+6x+1")
SEXTIC_PIECED = SEXTIC.with_meta(
    monotone_pieces=((None, F(-1), "decreasing"), (F(-1), None, "increasing"))
)


def test_bracket_validation():
    with pytest.raises(ValueError):
        Bracket(poly_descriptor([1, 0, 1]), -1, 1)  # x^2 + 1 never changes sign


def test_bisect_sextic_40_iterations():
    result = bisect(Bracket(SEXTIC, -1, 0), 40)
    enc = result.enclosure
    assert enc.width() == F(1, 2**40)
    assert SEXTIC.value_at(enc.lo) * SEXTIC.value_at(enc.hi) < 0


def test_bisect_invariants():
    result = bisect(Bracket(SEXTIC, -1, 0), 25)
    for (a1, b1), (a2, b2) in zip(result.trace, result.trace[1:]):
        assert (b2 - a2) * 2 == (b1 - a1)  # exact halving
        assert SEXTIC.value_at(a2) * SEXTIC.value_at(b2) <= 0
    # decreasing orientation (f(a) > 0 > f(b)) works through the same rule
    negated = poly_descriptor([-1, -6, 0, 0, 0, 0, -1])
    mirrored = bisect(Bracket(negated, -1, 0), 25)
    assert mirrored.enclosure == result.enclosure


def test_bisect_sqrt2():
    square_shift = poly_descriptor([-2, 0, 1], name="x^2-2")
    enc = bisect(Bracket(square_shift, 1, 2), 50).enclosure
    # both enclosures certify sqrt(2): they must overlap
    enc.intersect(sqrt_enclosure(2, 14))
    assert enc.lo * enc.lo < 2 < enc.hi * enc.hi


def test_bisect_exact_zero_midpoint():
    line = poly_descriptor([0, 1], name="x")
    result = bisect(Bracket(line, -1, 1), 30)
    assert result.exact_hit
    assert result.enclosure.lo == result.enclosure.hi == 0


def test_count_roots_sextic():
    report = count_roots_report(SEXTIC_PIECED, -2, 0)
    assert report.count == 2
    for enc in report.roots:
        assert SEXTIC.value_at(enc.lo) * SEXTIC.value_at(enc.hi) <= 0


def test_count_roots_refuses_gapped_pieces():
    # [-3/2, -1/2] is covered by no piece, so nothing says it holds one root
    gapped = SEXTIC.with_meta(
        monotone_pieces=((None, F(-3, 2), "decreasing"), (F(-1, 2), None, "increasing"))
    )
    with pytest.raises(MissingMetadataError, match="do not cover"):
        count_roots_report(gapped, -2, 0)


def test_count_roots_single_and_none():
    quintic = poly_descriptor([32, 1, 0, 0, 0, 1], name="x^5+x+32")
    assert count_roots_report(quintic, -3, 0).count == 1
    assert count_roots_report(poly_descriptor([1, 0, 1]), -1, 1).count == 0


def test_mvt_witness_values():
    square = poly_descriptor([0, 0, 1], name="x^2")
    cubic = poly_descriptor([0, 0, -9, 1], name="x^3-9x^2")
    c1 = mvt_witness(square, 1, 7, "lagrange")
    assert c1.contains(4) and c1.width() <= F(1, 10**8)
    c2 = mvt_witness(cubic, 1, 7, "lagrange")
    assert c2.contains(5) and c2.width() <= F(1, 10**8)
    c3 = mvt_witness(square, 1, 7, "cauchy", g=cubic)
    assert c3.contains(F(19, 4)) and c3.width() <= F(1, 10**8)


def test_mvt_witness_slope_agreement():
    # f'(c) must reproduce the secant slope within the derivative's local
    # stretch over the witness enclosure (f'' = 2 here, so slack 2*width).
    square = poly_descriptor([0, 0, 1])
    enc = mvt_witness(square, 1, 7, "lagrange")
    slope = (square.value_at(7) - square.value_at(1)) / 6
    mid_derivative = square.derivative.value_at(enc.midpoint())
    assert abs(mid_derivative - slope) <= 2 * enc.width()


def test_mvt_witness_scan_can_miss():
    # a 2-point grid has a single interior probe; when it is not a root the
    # scan cannot bracket and the miss is reported, not papered over
    cube = poly_descriptor([0, 0, 0, 1])
    with pytest.raises(WitnessScanInconclusive):
        mvt_witness(cube, 0, 2, "lagrange", grid=2)
