"""Bisection root localization and mean-value witnesses.

The bisection follows the classic constructive intermediate-value proof
verbatim, including its asymmetric split rule: with the bracket oriented so
f(a) < 0 < f(b), a midpoint value below the threshold moves the left
endpoint, a value >= 0 moves the right endpoint, and an exact zero stops
immediately with a degenerate enclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from certreal.core import Enclosure, FnDescriptor, RationalLike, _grid_points, to_rational


class WitnessScanInconclusive(ValueError):
    """No sign change on the scan grid; a witness exists but may be tangential."""


class AmbiguousSign(ValueError):
    """The oracle's enclosure straddles zero even after refinement."""


# Digits past those of 1/(b - a) that a sign test at a point of [a, b] may
# ask for.  An enclosure that still straddles 0 there puts |f(x)| below
# (b - a)·10^-_SIGN_SLACK: for an f of moderate slope the probe sits within
# a tiny fraction of the bracket of a root, and a probe moved off it does not.
_SIGN_SLACK = 10


def _signed_value(f: FnDescriptor, x: Fraction, digits: int, a: Fraction, b: Fraction) -> Fraction:
    """A rational with the sign of f(x), for x in the bracket [a, b]: exact
    value, or any point of a zero-free enclosure.  An exact oracle is read
    by `value_at`, with no digit bound and no point Enclosure: through
    `enclosure_at` a 175-step bisection of x^2 - 3 took 1.7x as long on
    CPython 3.11.
    With D the decimal digits of 1/(b - a), the first enclosure is taken at
    max(digits, D) digits, where a probe of an f of moderate slope is
    usually zero-free already; while it straddles zero the digits double
    (Ziv's strategy), up to max(4·digits, D + _SIGN_SLACK).  AmbiguousSign
    is raised past that bound."""
    if f.eval_rat is not None:
        return f.value_at(x)
    width = b - a
    bits = width.denominator.bit_length() - width.numerator.bit_length()
    inverse_digits = bits * 30103 // 100000 + 1  # log10(2) ~ 0.30103
    top = max(4 * digits, inverse_digits + _SIGN_SLACK)
    d = max(digits, inverse_digits)
    while True:
        enc = f.enclosure_at(x, d)
        if enc.lo == enc.hi == 0:
            return Fraction(0)
        if enc.lo > 0:
            return enc.lo
        if enc.hi < 0:
            return enc.hi
        if d >= top:
            raise AmbiguousSign(f"enclosure of f({x}) straddles zero at {d} digits")
        d = min(2 * d, top)


@dataclass(frozen=True)
class Bracket:
    """[a, b] with f changing sign across it (continuity is the caller's
    contract).  Sign evaluation is exact for rational-valued f; enclosure
    oracles are refined until zero-free."""

    f: FnDescriptor
    a: Fraction
    b: Fraction
    digits: int = 20

    def __post_init__(self) -> None:
        a, b = to_rational(self.a), to_rational(self.b)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a >= b:
            raise ValueError("need a < b")
        fa = _signed_value(self.f, a, self.digits, a, b)
        fb = _signed_value(self.f, b, self.digits, a, b)
        if fa * fb > 0:
            raise ValueError(f"no sign change: f({a}) = {fa}, f({b}) = {fb}")


# One code per bisection step: the bit _KEPT_LEFT is set when the probe
# became the right end, _PERTURBED when the probe was the 3/8 point.
_KEPT_LEFT, _PERTURBED = 1, 2


@dataclass(frozen=True)
class BisectResult:
    """A bisection run: its start bracket, one code per step and its end.

    `trace` is not stored: it replays the start bracket through the step
    codes by exact arithmetic, with no oracle call, and equals the tuple of
    brackets the run visited, ending in (x, x) after an exact zero at x.
    An exact zero at an end of the bracket is kept as the degenerate start
    bracket (x, x) with no steps.
    """

    enclosure: Enclosure
    start: tuple[Fraction, Fraction]
    codes: bytes = b""
    exact_hit: bool = False

    @property
    def perturbed_midpoints(self) -> int:
        return sum(1 for code in self.codes if code & _PERTURBED)

    @property
    def trace(self) -> tuple[tuple[Fraction, Fraction], ...]:
        a, b = self.start
        visited = [(a, b)]
        for code in self.codes:
            mid = a + (b - a) * Fraction(3, 8) if code & _PERTURBED else (a + b) / 2
            if code & _KEPT_LEFT:
                b = mid
            else:
                a = mid
            visited.append((a, b))
        if self.exact_hit and self.codes:
            visited[-1] = (mid, mid)
        return tuple(visited)


def bisect(bracket: Bracket, iterations: int) -> BisectResult:
    """Halve the bracket `iterations` times; final width (b-a)/2**iterations.

    The sign invariant f(a_n) * f(b_n) <= 0 holds at every recorded step;
    an exact zero at a midpoint (or endpoint) returns the degenerate
    enclosure at once.  When an enclosure oracle straddles zero at a
    midpoint, the split point is perturbed (reported in the result); the
    step then shrinks the bracket by 3/8 instead of 1/2.  AmbiguousSign is
    raised when the 3/8 point straddles zero too.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    f = bracket.f
    a, b = bracket.a, bracket.b
    fa = _signed_value(f, a, bracket.digits, a, b)
    fb = _signed_value(f, b, bracket.digits, a, b)
    if fa == 0:
        return BisectResult(Enclosure.point(a), (a, a), exact_hit=True)
    if fb == 0:
        return BisectResult(Enclosure.point(b), (b, b), exact_hit=True)
    flip = fa > 0  # orient so the left value is below zero
    start = (a, b)
    codes = bytearray()
    for _ in range(iterations):
        mid = (a + b) / 2
        code = 0
        try:
            value = _signed_value(f, mid, bracket.digits, a, b)
        except AmbiguousSign:
            # perturbed midpoint: a zero-free probe cannot sit at the root
            code = _PERTURBED
            mid = a + (b - a) * Fraction(3, 8)
            try:
                value = _signed_value(f, mid, bracket.digits, a, b)
            except AmbiguousSign as exc:
                raise AmbiguousSign(
                    f"f straddles zero at the midpoint and the 3/8 point of [{a}, {b}]"
                ) from exc
        if flip:
            value = -value
        if value == 0:
            codes.append(code)
            return BisectResult(Enclosure.point(mid), start, bytes(codes), True)
        if value < 0:
            a = mid
        else:
            b = mid
            code |= _KEPT_LEFT
        codes.append(code)
    return BisectResult(Enclosure(a, b), start, bytes(codes))


@dataclass(frozen=True)
class RootReport:
    count: int
    roots: tuple[Enclosure, ...]
    pieces_scanned: int


def count_roots_report(
    f: FnDescriptor,
    lo: RationalLike,
    hi: RationalLike,
    iterations: int = 60,
) -> RootReport:
    """Count and localize roots on [lo, hi] from a registered monotone
    decomposition (e.g. the derivative's sign pattern).

    Each monotone piece contributes at most one root: a sign change across
    the clipped piece is bisected; an exact zero at a piece boundary is
    counted once.  Raises MissingMetadataError when the pieces leave part
    of [lo, hi] uncovered.
    """
    lo, hi = to_rational(lo), to_rational(hi)
    if lo >= hi:
        raise ValueError("need lo < hi")
    parts = f.monotone_split(lo, hi)
    roots: list[Enclosure] = []
    seen_zero_points: set[Fraction] = set()
    for u, v, _ in parts:
        fu, fv = f.value_at(u), f.value_at(v)
        if fu == 0 and u not in seen_zero_points:
            roots.append(Enclosure.point(u))
            seen_zero_points.add(u)
        if fv == 0 and v not in seen_zero_points:
            roots.append(Enclosure.point(v))
            seen_zero_points.add(v)
        if fu * fv < 0:
            roots.append(bisect(Bracket(f, u, v), iterations).enclosure)
    return RootReport(len(roots), tuple(roots), len(parts))


def mvt_witness(
    f: FnDescriptor,
    a: RationalLike,
    b: RationalLike,
    kind: str = "lagrange",
    g: Optional[FnDescriptor] = None,
    grid: int = 64,
    iterations: int = 60,
) -> Enclosure:
    """Enclosure of a mean-value witness c in (a, b).

    lagrange: locates a sign change of f'(x) - (f(b)-f(a))/(b-a).
    cauchy: uses the cross form f'(x)(g(b)-g(a)) - g'(x)(f(b)-f(a)), which
    avoids dividing by g'.  Exact rational derivative oracles are required.
    Raises WitnessScanInconclusive if no grid sign change is found (the
    witness exists by the theorem but may be tangential).
    """
    a, b = to_rational(a), to_rational(b)
    if a >= b:
        raise ValueError("need a < b")
    if f.derivative is None:
        raise ValueError("mvt_witness needs a registered derivative for f")
    df = f.derivative
    if kind == "lagrange":
        slope = (f.value_at(b) - f.value_at(a)) / (b - a)

        def h(x: Fraction) -> Fraction:
            return df.value_at(x) - slope

    elif kind == "cauchy":
        if g is None or g.derivative is None:
            raise ValueError("cauchy witness needs g with a registered derivative")
        dg = g.derivative
        df_span = f.value_at(b) - f.value_at(a)
        dg_span = g.value_at(b) - g.value_at(a)
        if dg_span == 0:
            raise ValueError("g(b) = g(a); the Cauchy form degenerates")

        def h(x: Fraction) -> Fraction:
            return df.value_at(x) * dg_span - dg.value_at(x) * df_span

    else:
        raise ValueError(f"unknown kind {kind!r}")

    xs = _grid_points(a, b, grid)[1:-1]
    values = [h(x) for x in xs]
    for x, value in zip(xs, values):
        if value == 0:
            return Enclosure.point(x)
    for (x1, v1), (x2, v2) in zip(zip(xs, values), zip(xs[1:], values[1:])):
        if v1 * v2 < 0:
            helper = FnDescriptor(name="mvt-slope-gap", eval_rat=h)
            return bisect(Bracket(helper, x1, x2), iterations).enclosure
    raise WitnessScanInconclusive(
        f"no sign change of the {kind} witness function on a {grid}-point grid"
    )
