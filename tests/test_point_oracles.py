"""One property over every point oracle the library builds.

At random rationals and 1-30 digits, `enclosure_at(x, d)` must contain
mpmath's value and be at most 10^-d wide, every `eval_grid` answer must
bracket the value with hi - lo <= 2, and the enclosure's endpoints must
keep O(d) bits: at most 8 d + 256 in numerator and denominator.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from certreal.approx import gallery, make_fn_sequence
from certreal.cli import _power_function

mpmath = pytest.importorskip("mpmath")

_POWERS = (F(1, 2), F(-1, 2), F(1, 3), F(-1, 3), F(-2, 3), F(3, 2), F(-3, 2), F(-5, 4))


def _sawtooth(levels):
    def value(x):
        total = mpmath.mpf(0)
        for n in range(levels + 1):
            period = mpmath.mpf(2) / 4**n
            t = x - period * mpmath.floor(x / period)
            total += min(t, period - t)
        return total

    return value


def _smooth_step(a, b):
    def value(x):  # a and b are converted at the working precision
        a_mp, b_mp = mpmath.mpf(a.numerator) / a.denominator, mpmath.mpf(b.numerator) / b.denominator
        if x <= a_mp:
            return mpmath.mpf(0)
        if x >= b_mp:
            return mpmath.mpf(1)
        rise, fall = mpmath.exp(-1 / (x - a_mp)), mpmath.exp(-1 / (b_mp - x))
        return rise / (rise + fall)

    return value


def _oracles():
    """name -> (descriptor, mpmath reference, domain): the domain is "all",
    "positive" (x > 0) or "nonzero"."""
    cases = {
        "flat_bump": (gallery("flat_bump"),
                      lambda x: mpmath.exp(-1 / (x * x)) if x else mpmath.mpf(0), "all"),
        "smooth_step": (gallery("smooth_step", a=F(-1, 3), b=2), _smooth_step(F(-1, 3), F(2)), "all"),
        "unit_step": (gallery("unit_step"), lambda x: mpmath.mpf(x >= 0), "all"),
        "sawtooth": (gallery("sawtooth", levels=8), _sawtooth(8), "all"),
        "ln|x|": (_power_function(F(-1)).antiderivative, lambda x: mpmath.log(abs(x)), "nonzero"),
    }
    for p in _POWERS:
        f, c = _power_function(p), p + 1
        cases[f"x^{p}"] = (f, lambda x, p=p: mpmath.power(x, p.numerator / mpmath.mpf(p.denominator)),
                           "positive")
        cases[f"antiderivative of x^{p}"] = (
            f.antiderivative,
            lambda x, c=c: mpmath.power(x, c.numerator / mpmath.mpf(c.denominator)) * c.denominator
            / c.numerator,
            "positive")
    xexp = make_fn_sequence("xexp")
    for n in (1, 2, 3):
        cases[f"xexp[{n}]"] = (xexp.at(n), lambda x, n=n: x * mpmath.exp(-n * x * x), "all")
    return cases


_ORACLES = _oracles()

# Moderate and large |x|, and points close to 0, where flat_bump and the
# negative powers are extreme.
_POINTS = st.one_of(
    st.builds(F, st.integers(-10**4, 10**4), st.integers(1, 10**3)),
    st.builds(F, st.integers(-3, 3), st.integers(1, 10**6)),
)


@pytest.mark.parametrize("name", sorted(_ORACLES))
@settings(deadline=None, max_examples=60)
@given(x=_POINTS, d=st.integers(1, 30), unreduced=st.integers(1, 5))
def test_every_point_oracle_meets_its_contract(name, x, d, unreduced):
    f, reference, domain = _ORACLES[name]
    if domain == "positive":
        x = abs(x)
    if domain != "all" and x == 0:
        return
    with mpmath.workdps(d + 40):
        ref = reference(mpmath.mpf(x.numerator) / x.denominator)
        err = (1 + abs(ref)) * mpmath.mpf(10) ** -(d + 30)

        def brackets(lo, hi):
            return (mpmath.mpf(lo.numerator) / lo.denominator - err <= ref
                    <= mpmath.mpf(hi.numerator) / hi.denominator + err)

        enc = f.enclosure_at(x, d)
        assert brackets(enc.lo, enc.hi), (name, x, d, enc)
        assert enc.width() <= F(1, 10**d), (name, x, d, enc.width())
        bits = max(v.bit_length() for q in (enc.lo, enc.hi) for v in (q.numerator, q.denominator))
        assert bits <= 8 * d + 256, (name, x, d, bits)
        if f.eval_grid is not None:
            lo, hi = f.eval_grid(x.numerator * unreduced, x.denominator * unreduced, d)
            assert 0 <= hi - lo <= 2, (name, x, d, lo, hi)
            assert brackets(F(lo, 10**d), F(hi, 10**d)), (name, x, d, lo, hi)
