import ast
import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import certreal
from certreal.approx import gallery

from certreal.core import (
    Certificate,
    Enclosure,
    FnDescriptor,
    _grid_points,
    _poly_eval,
    _poly_table,
    _round_out,
    _table_rows,
    approx_real,
    MissingMetadataError,
    decimal_string,
    integer_nth_root,
    nth_root_enclosure,
    poly_descriptor,
    rational_power_enclosure,
    spot_check_metadata,
    to_rational,
)
from conftest import fractions_built

rationals = st.fractions(max_denominator=10**6)


def test_rat_ops_examples():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert to_rational(0) + F(7, 3) == F(7, 3)
    assert F(3, 4) * F(4, 3) == 1
    assert F(1, 3) < F(1, 2)
    assert to_rational("2/4") == F(1, 2)


def test_rationals_normalized():
    value = F(1, 6) + F(1, 6)
    assert value.numerator == 1 and value.denominator == 3
    assert to_rational("2/4").denominator == 2


def test_to_rational_returns_a_fraction_unchanged():
    value = F(22, 7)
    assert to_rational(value) is value
    for raw, expected in (("1e-3", F(1, 1000)), ("-2/4", F(-1, 2)), (3, F(3))):
        assert to_rational(raw) == expected and type(to_rational(raw)) is F

    class Tagged(F):
        pass

    coerced = to_rational(Tagged(3, 4))
    assert type(coerced) is F and coerced == F(3, 4)
    with pytest.raises(TypeError):
        to_rational(0.75)
    with pytest.raises(TypeError):
        Enclosure(0.25, 1)


@given(ends=st.lists(st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9),
                     min_size=2, max_size=2).map(sorted),
       shift=st.integers(-12, 12), odd=st.sampled_from([1, 3, 7]))
def test_round_out_is_the_floor_and_ceiling_on_the_grid(ends, shift, odd):
    # the integer floor/ceil division against the Fraction formula it
    # replaced, for int scales and for Fraction scales (shift < 0)
    lo, hi = ends
    for scale in (10**shift if shift >= 0 else F(1, 10**-shift), F(odd, 10**abs(shift))):
        expected = (F(math.floor(lo * scale)) / scale, F(math.ceil(hi * scale)) / scale)
        assert _round_out(lo, hi, scale) == expected


def test_float_rejected():
    with pytest.raises(TypeError):
        to_rational(0.1)


@given(rationals, rationals, rationals)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_enclosure_combine_examples():
    assert Enclosure(1, 2) + Enclosure(3, 4) == Enclosure(4, 6)
    assert Enclosure(0, 0) + Enclosure(F(1, 3), F(2, 3)) == Enclosure(F(1, 3), F(2, 3))
    assert Enclosure(1, 2) - Enclosure(3, 4) == Enclosure(-3, -1)
    assert Enclosure(1, 2).scale(3) == Enclosure(3, 6)


def test_enclosure_validation():
    with pytest.raises(ValueError):
        Enclosure(2, 1)


enclosures = st.tuples(rationals, st.fractions(min_value=0, max_denominator=1000)).map(
    lambda t: Enclosure(t[0], t[0] + t[1])
)


@given(enclosures, enclosures, st.fractions(min_value=0, max_denominator=100))
def test_combine_inclusion_monotone(a, b, pad):
    wider_a, wider_b = a.widen(pad), b.widen(pad)
    assert (wider_a + wider_b).contains(a + b)
    assert (wider_a - wider_b).contains(a - b)


@given(enclosures, enclosures)
def test_product_enclosure_sound(a, b):
    product = a.times(b)
    for x in (a.lo, a.hi, a.midpoint()):
        for y in (b.lo, b.hi, b.midpoint()):
            assert product.contains(x * y)


def test_sqrt2_truncation_digits():
    # lower endpoints reproduce the decimal truncations 1.4, 1.41, ...
    expected = ["1.4", "1.41", "1.414", "1.4142", "1.41421", "1.414213", "1.4142135"]
    for digits, text in enumerate(expected, start=1):
        enc = approx_real("sqrt", 2, digits)
        assert decimal_string(enc.lo, digits) == text
        assert enc.width() <= F(1, 10**digits)


def test_approx_real_examples():
    assert approx_real("exp", 0, 5) == Enclosure.point(1)
    pi6 = approx_real("pi", None, 6)
    assert pi6.width() <= F(1, 10**6)
    assert pi6.contains(F("3.141592653589793"))


def test_pi_cross_checked_against_alternating_quarter_series():
    # Independent bracket: the alternating series 1 - 1/3 + 1/5 - ... at
    # 10^4 terms brackets pi/4; the fast enclosure must agree.
    total = F(0)
    for k in range(1, 10001):
        total += F((-1) ** (k - 1), 2 * k - 1)
    bracket = Enclosure(total - F(1, 20001), total + F(1, 20001))
    pi_quarter = approx_real("pi", None, 8).scale(F(1, 4))
    assert bracket.lo <= pi_quarter.hi and pi_quarter.lo <= bracket.hi


@pytest.mark.parametrize("name,arg", [("sqrt", 2), ("exp", F(3, 2)), ("exp", F(-7, 2)),
                                      ("ln", 10), ("sin", F(5, 3)), ("cos", F(1, 7)),
                                      ("pi", None)])
def test_precision_nesting(name, arg):
    for digits in (3, 6, 9):
        coarse = approx_real(name, arg, digits)
        fine = approx_real(name, arg, digits + 1)
        assert coarse.contains(fine)
        assert coarse.width() <= F(1, 10**digits)


def test_integer_nth_root():
    assert integer_nth_root(2**100, 10) == 2**10
    assert integer_nth_root(80, 4) == 2
    assert nth_root_enclosure(F(1, 64), 3) == Enclosure.point(F(1, 4))
    enc = nth_root_enclosure(5, 3, 10)
    assert enc.lo**3 <= 5 <= enc.hi**3


def _nth_root_reference(x: int, n: int) -> int:
    """The Newton loop integer_nth_root ran before its float seed: from
    2^(bits/n + 1), testing r^n <= x < (r+1)^n at every step."""
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << (x.bit_length() // n + 1)
    while True:
        if r**n <= x < (r + 1) ** n:
            return r
        r = ((n - 1) * r + x // r ** (n - 1)) // n


@settings(deadline=None, max_examples=150)
@given(n=st.integers(1, 600), bits=st.integers(0, 10**5),
       near=st.sampled_from((None, -1, 0, 1)), rng=st.randoms(use_true_random=False))
@example(n=128, bits=5000, near=None, rng=random.Random(0))
@example(n=512, bits=10**5, near=0, rng=random.Random(0))
@example(n=3, bits=10**5, near=-1, rng=random.Random(0))
def test_integer_nth_root_equals_the_newton_reference(n, bits, near, rng):
    # near=None: x has up to `bits` random bits; else x = r^n + near, an
    # exact power or one of its neighbours
    if near is None:
        x = rng.getrandbits(bits)
    else:
        x = max((rng.getrandbits(bits // n) + 1) ** n + near, 0)
    assert integer_nth_root(x, n) == _nth_root_reference(x, n)


class _CountedInt(int):
    """An int that counts the floor divisions it is the dividend of."""

    divisions = 0

    def __floordiv__(self, other):
        _CountedInt.divisions += 1
        return int(self) // other


def test_integer_nth_root_takes_few_newton_divisions():
    # The float seed carries 38 or more correct bits for x up to 10^5
    # bits, and each Newton step about doubles them: one step to land at or above the root, a few to reach
    # it, one to see that r stops falling.  The reference loop's seed took
    # 88 divisions at 5,000 bits with n = 128.
    rng = random.Random(31)
    cases = [(5000, 128), (10**5, 512), (10**5, 3), (64, 3), (65, 600)]
    cases += [(rng.randint(1, 30000), rng.randint(3, 600)) for _ in range(200)]
    for bits, n in cases:
        x = rng.getrandbits(bits) | 1 << (bits - 1)
        _CountedInt.divisions = 0
        r = integer_nth_root(_CountedInt(x), n)
        assert r**n <= x < (r + 1) ** n
        assert _CountedInt.divisions <= 3 + (x.bit_length() // n).bit_length(), (bits, n)


def test_rational_power_at_zero():
    assert rational_power_enclosure(0, F(3, 2)) == Enclosure.point(0)
    for x, p in ((-1, F(1, 2)), (0, 0), (0, F(-1, 2))):
        with pytest.raises(ValueError):
            rational_power_enclosure(x, p)


def test_poly_descriptor_metadata():
    f = poly_descriptor([0, 6, -1], name="6x-x^2")
    assert f.value_at(2) == 8
    assert f.monotone_pieces == ((None, F(3), "increasing"), (F(3), None, "decreasing"))
    assert f.derivative.value_at(0) == 6
    assert f.antiderivative.value_at(3) == 3 * 9 - 9  # 3x^2 - x^3/3 at 3


def test_spot_check_flags_false_claims():
    increasing = poly_descriptor([0, 1]).with_meta(monotone="increasing")
    assert spot_check_metadata(increasing, 0, 1) == []
    lying = poly_descriptor([0, -1]).with_meta(monotone="increasing")
    assert spot_check_metadata(lying, 0, 1)


def test_spot_check_probes_monotone_pieces():
    bump = gallery("flat_bump")
    reversed_pieces = tuple(
        (lo, hi, "increasing" if d == "decreasing" else "decreasing")
        for lo, hi, d in bump.monotone_pieces
    )
    lying = bump.with_meta(monotone_pieces=reversed_pieces)
    # stay away from 0, where exp(-1/x^2) needs a huge argument
    for lo, hi in ((-2, F(-1, 4)), (F(1, 4), 2)):
        assert spot_check_metadata(bump, lo, hi) == []
        assert any("monotone" in problem for problem in spot_check_metadata(lying, lo, hi))


def test_spot_check_near_the_flat_point_of_the_bump():
    # samples at |x| ~ 1e-3 ask for exp(-1e6): the early exit answers at once
    assert spot_check_metadata(gallery("flat_bump"), F(-1, 100), F(1, 100)) == []


def test_monotone_split():
    f = poly_descriptor([0, 6, -1])
    assert f.monotone_split(F(0), F(6)) == [(0, 3, "increasing"), (3, 6, "decreasing")]
    assert f.monotone_split(F(4), F(5)) == [(4, 5, "decreasing")]
    global_claim = f.with_meta(monotone_pieces=None, monotone="decreasing")
    assert global_claim.monotone_split(F(0), F(1)) == [(0, 1, "decreasing")]
    gapped = f.with_meta(monotone_pieces=((None, 1, "increasing"), (2, None, "decreasing")))
    with pytest.raises(MissingMetadataError, match="do not cover"):
        gapped.monotone_split(F(0), F(3))
    with pytest.raises(MissingMetadataError):
        f.with_meta(monotone_pieces=None).monotone_split(F(0), F(1))


def test_decimal_string():
    assert decimal_string(F(89, 12), 4) == "7.4166"
    assert decimal_string(F(-1, 3), 3) == "-0.333"
    assert decimal_string(F(5), 0) == "5"
    assert decimal_string(F(-1, 10**9), 4) == "-0.0000"
    with pytest.raises(ValueError, match="digits must be >= 0"):
        decimal_string(F(1, 3), -1)


def _reference_poly_eval(coeffs, x):
    """The Fraction Horner loop that the integer `_poly_eval` replaced, kept
    as the reference for its values."""
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# zero, negative and large-denominator coefficients
coefficients = st.one_of(
    st.just(F(0)),
    st.fractions(max_denominator=10**3),
    st.builds(F, st.integers(-(10**30), 10**30), st.integers(1, 10**40)),
)
points = st.one_of(
    st.just(F(0)),
    st.fractions(max_denominator=10**4),
    st.builds(lambda n, k: F(n, 2**k), st.integers(-(10**60), 10**60), st.integers(0, 200)),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(coefficients, min_size=0, max_size=9), points)
def test_integer_horner_equals_the_fraction_loop(coeffs, x):
    value = _poly_eval(coeffs, x)
    assert type(value) is F
    assert value == _reference_poly_eval(coeffs, x)


@given(st.integers(0, 40), st.fractions(min_value=-3, max_value=3, max_denominator=1000))
def test_integer_horner_on_taylor_polynomials(order, x):
    coeffs = [F(1, math.factorial(k)) for k in range(order + 1)]
    alternating = [c * (-1) ** k for k, c in enumerate(coeffs)]
    for cs in (coeffs, alternating):
        assert _poly_eval(cs, x) == _reference_poly_eval(cs, x)


@settings(deadline=None, max_examples=200)
@given(st.lists(coefficients, min_size=1, max_size=9), st.integers(-(10**6), 10**6),
       st.integers(-(10**4), 10**4), st.integers(1, 10**6), st.integers(1, 40))
def test_forward_difference_rows_equal_direct_evaluation(coeffs, first, step, den, count):
    table, m = _poly_table(coeffs, first, step, den)
    assert len(table) == len(coeffs)
    rows = _table_rows(table)
    for i in range(count):
        assert F(next(rows), m) == _reference_poly_eval(coeffs, F(first + i * step, den))


@given(rationals, rationals, st.integers(1, 64))
def test_grid_points_are_the_regular_grid(a, b, n):
    assert _grid_points(a, b, n) == [a + (b - a) * F(i, n) for i in range(n + 1)]


def test_poly_eval_builds_one_fraction_per_call():
    coeffs = [F(3, 5), F(-1, 8), F(-3, 4), F(1, 2)]
    xs = [F(k, 2**175 + 1) for k in range(1, 21)]
    with fractions_built() as built:
        values = [_poly_eval(coeffs, x) for x in xs]
    assert built.count == len(xs)
    assert values == [_reference_poly_eval(coeffs, x) for x in xs]


def test_a_reduction_certificate_is_as_checked_as_its_inner_one():
    inner = Certificate("limit_comparison", {}, machine_checked=False, asserted=("inner",))
    cert = Certificate.from_reduction(inner, "registered:r", {"w": 1}, ("outer",), "why")
    assert cert == Certificate("registered:r", {"w": 1}, False, ("outer", "inner"), "why")
    assert Certificate.from_reduction(Certificate("p_series", {}), "abs_convergence", {}) == (
        Certificate("abs_convergence", {}))


def _grid_oracle(c):
    # c x on the 10^-d grid: its floor, less one step, and its ceil
    def grid(n, m, d):
        num, den = c.numerator * n * 10**d, c.denominator * m
        return num // den - 1, -(-num // den)
    return grid


_ORACLE_KINDS = {
    "exact": lambda c: FnDescriptor(eval_rat=lambda x: c * x),
    "enclosure": lambda c: FnDescriptor(
        eval_enc=lambda x, d: Enclosure(c * x - F(1, 3 * 10**d), c * x + F(1, 3 * 10**d))),
    "grid": lambda c: FnDescriptor(eval_grid=_grid_oracle(c)),
}


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(sorted(_ORACLE_KINDS)), rationals, rationals, st.integers(0, 12))
@example("exact", F(3, 20), F(2), 2)  # 3/10, on the 10^-2 grid
@example("exact", F(1, 3), F(1), 4)  # 1/3, off every decimal grid
@example("exact", F(0), F(1, 7), 0)
@example("grid", F(1, 4), F(1, 10), 1)  # 1/40: the oracle's [1, 3] 10^-2 is [0, 1] 10^-1
def test_grid_bounds_reads_enclosure_at_onto_the_grid(kind, c, x, digits):
    """(lo, hi, off) of `grid_bounds` against `enclosure_at`, for every
    oracle kind: an exact value on the 10^-digits grid gives lo = hi and
    off = 0, one off it comes back whole as off, an enclosure gives the
    floor and ceil of its ends, and a grid oracle's answer at digits + 1
    loses one digit by floor and ceil division and still contains
    `enclosure_at`."""
    f = _ORACLE_KINDS[kind](c)
    scale = 10**digits
    lo, hi, off = f.grid_bounds(x.numerator, x.denominator, digits)
    enc = f.enclosure_at(x, digits)
    if kind == "grid":
        grid_lo, grid_hi = f.eval_grid(x.numerator, x.denominator, digits + 1)
        assert (lo, hi, off) == (grid_lo // 10, -(-grid_hi // 10), 0)
        assert F(lo, scale) <= enc.lo and enc.hi <= F(hi, scale)
    elif enc.lo == enc.hi and (enc.lo * scale).denominator == 1:
        assert lo == hi == enc.lo * scale and off == 0
    elif enc.lo == enc.hi:
        assert (lo, hi, off) == (0, 0, enc.lo)
    else:
        assert (lo, hi, off) == (math.floor(enc.lo * scale), math.ceil(enc.hi * scale), 0)


def test_a_darboux_only_descriptor_has_no_grid_bounds():
    # as `enclosure_at` refuses it; a monotone claim does not make it point-evaluable
    from certreal.integration import integrate_enclosure

    f = FnDescriptor(name="f", darboux_only=True, monotone="increasing")
    with pytest.raises(MissingMetadataError, match="darboux-only"):
        f.grid_bounds(1, 2, 4)
    with pytest.raises(MissingMetadataError, match="darboux-only"):
        integrate_enclosure(f, 0, 1, F(1, 10))


def test_only_core_calls_the_oracles():
    # every point value is read through FnDescriptor's readers
    # (`value_at`, `enclosure_at`, `grid_bounds`); other modules may test
    # which oracle a descriptor has, but call none
    oracles = {"eval_rat", "eval_enc", "eval_grid"}
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(certreal.__file__).parent.glob("*.py")) if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in oracles
    ]
    assert calls == []
