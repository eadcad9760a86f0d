"""Partitions, Darboux/Riemann sums, certified integrals, improper integrals.

Per-interval infima/suprema are never estimated by sampling on certified
paths: they come from descriptor metadata (an exact range rule, step
pieces, monotone pieces) or, in Lipschitz mode, from conservative outer
bounds that are flagged as such.  The indicator-of-the-rationals descriptor
is the cautionary tale: sampling it anywhere yields nonsense, while its
registered range rule gives the honest pair L = 0, U = 1 forever.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import comb, factorial
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from certreal.core import (
    Certificate,
    Enclosure,
    FnDescriptor,
    MissingMetadataError,
    RationalLike,
    Status,
    Verdict,
    _cut_points,
    _grid,
    _grid_ends,
    _grid_points,
    _poly_table,
    _round_out,
    rational_power_enclosure,
    to_rational,
)


@dataclass(frozen=True)
class Partition:
    """Strictly increasing points x_0 < ... < x_k partitioning [x_0, x_k]."""

    points: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        pts = tuple(to_rational(p) for p in self.points)
        if len(pts) < 2:
            raise ValueError("a partition needs at least two points")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("partition points must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def a(self) -> Fraction:
        return self.points[0]

    @property
    def b(self) -> Fraction:
        return self.points[-1]

    def gap(self) -> Fraction:
        return max(q - p for p, q in zip(self.points, self.points[1:]))

    def intervals(self):
        return zip(self.points, self.points[1:])

    def refine(self, extra: Sequence[RationalLike]) -> "Partition":
        """Refinement by adding points (must lie inside [a, b])."""
        added = {to_rational(p) for p in extra}
        if any(p < self.a or p > self.b for p in added):
            raise ValueError("refinement points must lie inside the interval")
        return Partition(tuple(sorted(set(self.points) | added)))


def regular_partition(a: RationalLike, b: RationalLike, k: int) -> Partition:
    """Equal-gap partition of [a, b] into k subintervals."""
    a, b = to_rational(a), to_rational(b)
    if a >= b:
        raise ValueError("need a < b")
    if k < 1:
        raise ValueError("need k >= 1")
    return Partition(tuple(_grid_points(a, b, k)))


@dataclass(frozen=True)
class DarbouxPair:
    """Lower/upper Darboux sums with the per-interval (m_i, M_i) records.

    `outer` marks Lipschitz mode: the recorded bounds satisfy
    m_i <= inf f and sup f <= M_i but need not be attained, so
    lower <= true L <= integral <= true U <= upper still holds.
    """

    lower: Fraction
    upper: Fraction
    per_interval: tuple[tuple[Fraction, Fraction], ...]
    outer: bool = False

    def width(self) -> Fraction:
        return self.upper - self.lower


def _interval_bounds_monotone(
    f: FnDescriptor, lo: Fraction, hi: Fraction, digits: int
) -> tuple[Fraction, Fraction, bool]:
    """Exact inf/sup on [lo, hi] from (piecewise) monotone metadata."""
    los: list[Fraction] = []
    his: list[Fraction] = []
    exact = True
    for u, v, direction in f.monotone_split(lo, hi):
        at_u, at_v = f.enclosure_at(u, digits), f.enclosure_at(v, digits)
        exact = exact and at_u.lo == at_u.hi and at_v.lo == at_v.hi
        if direction == "increasing":
            los.append(at_u.lo)
            his.append(at_v.hi)
        elif direction == "decreasing":
            los.append(at_v.lo)
            his.append(at_u.hi)
        else:
            los.append(min(at_u.lo, at_v.lo))
            his.append(max(at_u.hi, at_v.hi))
    return min(los), max(his), exact


def _step_overlaps(f: FnDescriptor, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """(overlap length, value) of every step piece meeting [lo, hi]; the
    pieces must cover [lo, hi]."""
    overlaps = []
    for left, right, const in f.step_pieces:
        overlap = min(right, hi) - max(left, lo)
        if overlap > 0:
            overlaps.append((overlap, const))
    if sum(length for length, _ in overlaps) != hi - lo:
        raise MissingMetadataError(
            f"{f.name or 'step function'}: step pieces do not cover [{lo}, {hi}]"
        )
    return overlaps


def _interval_bounds_step(f: FnDescriptor, lo: Fraction, hi: Fraction):
    values = [const for _, const in _step_overlaps(f, lo, hi)]
    values += [v for x, v in f.point_values if lo <= x <= hi]
    return min(values), max(values)


def _bounds_kind(f: FnDescriptor) -> str:
    """The metadata that gives f's Darboux bounds, the first registered of:
    "range" rule, "step" pieces, "monotone" pieces, "lipschitz" constant."""
    if f.range_rule is not None:
        return "range"
    if f.step_pieces is not None:
        return "step"
    if f.monotone_pieces is not None or f.monotone is not None:
        return "monotone"
    if f.lipschitz is not None:
        return "lipschitz"
    raise MissingMetadataError(
        f"{f.name or 'function'}: need a range rule, step pieces, "
        "monotone metadata, or a Lipschitz constant for Darboux bounds"
    )


def darboux(f: FnDescriptor, partition: Partition, digits: int = 30) -> DarbouxPair:
    """Darboux lower/upper sums from structural metadata.

    Exact per-interval inf/sup for range-rule, step, and (piecewise)
    monotone descriptors; conservative outer bounds in Lipschitz mode,
    flagged by `outer=True`.  A descriptor with no usable metadata is
    refused: certified paths never fall back to sampling.
    """
    kind = _bounds_kind(f)
    lower = upper = Fraction(0)
    records: list[tuple[Fraction, Fraction]] = []
    outer = kind == "lipschitz"
    for lo, hi in partition.intervals():
        width = hi - lo
        if kind == "range":
            m, big_m = f.range_rule(lo, hi)
        elif kind == "step":
            m, big_m = _interval_bounds_step(f, lo, hi)
        elif kind == "monotone":
            m, big_m, exact = _interval_bounds_monotone(f, lo, hi, digits)
            outer = outer or not exact
        else:
            mid = f.enclosure_at((lo + hi) / 2, digits)
            # Snap outward to a shared decimal grid: still valid outer
            # bounds, and the exact fold over many intervals stays linear
            # (unrelated denominators would make it quadratic).
            half_swing = f.lipschitz * width / 2
            m, big_m = _round_out(mid.lo - half_swing, mid.hi + half_swing, 10**digits)
        records.append((m, big_m))
        lower += m * width
        upper += big_m * width
    return DarbouxPair(lower, upper, tuple(records), outer)


def riemann_sum(
    f: FnDescriptor,
    partition: Partition,
    pick: Union[str, Sequence[RationalLike]] = "left",
) -> Fraction:
    """Exact Riemann sum; pick is "left", "right", "midpoint", or explicit
    intermediate points (one per subinterval, each inside its interval)."""
    intervals = list(partition.intervals())
    if isinstance(pick, str):
        if pick == "left":
            points = [lo for lo, _ in intervals]
        elif pick == "right":
            points = [hi for _, hi in intervals]
        elif pick == "midpoint":
            points = [(lo + hi) / 2 for lo, hi in intervals]
        else:
            raise ValueError(f"unknown pick rule {pick!r}")
    else:
        points = [to_rational(p) for p in pick]
        if len(points) != len(intervals):
            raise ValueError("need exactly one intermediate point per subinterval")
        for (lo, hi), xi in zip(intervals, points):
            if not lo <= xi <= hi:
                raise ValueError(f"intermediate point {xi} outside [{lo}, {hi}]")
    return sum(
        (f.value_at(xi) * (hi - lo) for (lo, hi), xi in zip(intervals, points)),
        Fraction(0),
    )


@dataclass(frozen=True)
class IntegralResult:
    enclosure: Enclosure
    status: Status
    subintervals: int
    outer: bool = False
    method: str = "darboux"

    def width(self) -> Fraction:
        return self.enclosure.width()


def _step_integral(f: FnDescriptor, a: Fraction, b: Fraction) -> Fraction:
    """Exact integral of a step descriptor (finitely many points never
    change an integral)."""
    return sum((const * length for length, const in _step_overlaps(f, a, b)), Fraction(0))


_MAX_DOUBLINGS = 24  # k stops at 2^24 cells per piece


def integrate_enclosure(
    f: FnDescriptor,
    a: RationalLike,
    b: RationalLike,
    target_width: RationalLike,
    method: str = "auto",
    digits: Optional[int] = None,
) -> IntegralResult:
    """Two-sided integral enclosure on [a, b] with width <= target_width.

    "auto" returns the exact integral of a step descriptor, or the
    difference of a registered antiderivative at the endpoints when that
    meets the target; otherwise, and always for "darboux", it takes
    Darboux sums from the metadata `_bounds_kind` picks.  [a, b] is cut
    once, at the registered breakpoints and then at the monotone-piece
    boundaries, and each piece [u, v] gets the share target (v - u) / (b - a).
    A monotone or Lipschitz piece takes one Darboux pair at the k that the
    first-order law predicts from its two end values: exact
    forward-difference sums for a monotone polynomial (`_poly_darboux`),
    point sums on the 10^-digits grid otherwise (`_running_darboux`).
    Range-rule and step pieces, whose widths cannot be predicted, double k
    in `_refine`, reading `darboux`.  A piece that misses its share (a k
    past 2^24, a share within the rounding allowance, a pair that stops
    shrinking) makes the result Inconclusive with its best pair.
    """
    a, b, target = to_rational(a), to_rational(b), to_rational(target_width)
    if a == b:
        return IntegralResult(Enclosure.point(0), Status.CONVERGES, 0, method="exact")
    if a > b:
        raise ValueError("need a <= b")
    if target <= 0:
        raise ValueError("target width must be positive")
    if method not in ("auto", "darboux"):
        raise ValueError(f"unknown method {method!r}")

    if method == "auto" and f.step_pieces is not None:
        return IntegralResult(
            Enclosure.point(_step_integral(f, a, b)), Status.CONVERGES, 0, method="step"
        )
    if method == "auto" and f.antiderivative is not None:
        prec = digits if digits is not None else _digits_for(target, 4)
        upper = f.antiderivative.enclosure_at(b, prec)
        lower = f.antiderivative.enclosure_at(a, prec)
        enclosure = upper - lower
        if enclosure.width() <= target:
            return IntegralResult(enclosure, Status.CONVERGES, 0, method="antiderivative")

    cuts = _cut_points(a, b, f.breakpoints)
    prec = digits if digits is not None else _digits_for(target / (len(cuts) - 1), 6)
    kind = _bounds_kind(f)
    pieces: list[tuple[Fraction, Fraction, str]] = []
    for lo, hi in zip(cuts, cuts[1:]):
        pieces += f.monotone_split(lo, hi) if kind == "monotone" else [(lo, hi, kind)]

    total, converged, subintervals, outer = Enclosure.point(0), True, 0, False
    for u, v, kind in pieces:
        share = target * (v - u) / (b - a)
        if kind in ("range", "step"):
            piece = _refine(_darboux_brackets(f, u, v, prec), share)
        elif f.poly_coeffs is not None and kind != "lipschitz":
            piece = _poly_darboux(f, u, v, kind, share)
        else:
            room = share - 3 * (v - u) / 10**prec  # less `_running_darboux`'s rounding
            bracket = _running_darboux(f, u, v, kind, prec, lambda spread: _capped_k(spread, room))
            piece = _refine([bracket], share)
        total = total + piece.enclosure
        converged = converged and piece.status is Status.CONVERGES
        subintervals += piece.subintervals
        outer = outer or piece.outer
    status = Status.CONVERGES if converged else Status.INCONCLUSIVE
    return IntegralResult(total, status, subintervals, outer)


def _digits_for(target: Fraction, slack: int) -> int:
    """max(8, slack - floor(log10(target))), counted with exact rationals."""
    if target <= 0:
        return 30
    # A first guess from the bit lengths (log10(2) ~ 30103/100000) is off
    # by at most two; exact comparisons with powers of ten settle it.
    exponent = (target.numerator.bit_length() - target.denominator.bit_length()) * 30103 // 100000
    while Fraction(10) ** exponent > target:
        exponent -= 1
    while Fraction(10) ** (exponent + 1) <= target:
        exponent += 1
    return max(8, slack - exponent)


_Bracket = tuple[int, Fraction, Fraction, bool]  # (k, L, U, outer)


def _refine(brackets: Iterable[_Bracket], target: Fraction) -> IntegralResult:
    """The first bracket with U - L <= target, Converges.

    `brackets` yields Darboux pairs of growing k: those of the regular
    k-partitions for k = 1, 2, 4, ... (`_darboux_brackets`), or the one pair
    of `_running_darboux`.  At most _MAX_DOUBLINGS + 1 of them are pulled.
    When they run out, or a bracket is no narrower than the one before
    (point enclosures wider than the swing of f, or the rational-indicator
    descriptor, whose pair never shrinks), the narrowest bracket seen is
    returned Inconclusive.
    """
    best: Optional[IntegralResult] = None
    for k, lower, upper, outer in islice(brackets, _MAX_DOUBLINGS + 1):
        if upper - lower <= target:
            return IntegralResult(Enclosure(lower, upper), Status.CONVERGES, k, outer)
        if best is not None and upper - lower >= best.width():
            break
        best = IntegralResult(Enclosure(lower, upper), Status.INCONCLUSIVE, k, outer)
    return best


def _darboux_brackets(f: FnDescriptor, u: Fraction, v: Fraction, digits: int) -> Iterator[_Bracket]:
    """`darboux` on the regular k-partition of [u, v], k = 1, 2, 4, ...
    (range-rule and step pieces, which evaluate no point)."""
    k = 1
    while True:  # unbounded: `_refine` pulls at most _MAX_DOUBLINGS + 1
        pair = darboux(f, regular_partition(u, v, k), digits)
        yield k, pair.lower, pair.upper, pair.outer
        k *= 2


def _first_order_k(spread: Fraction, room: Fraction) -> int:
    """The least k >= 1 with spread/k < room, for room > 0: the k at which
    a first-order bracket, spread/k wide, fits room (k = 1 when spread <= 0)."""
    return int(spread / room) + 1 if spread > 0 else 1


def _capped_k(spread: Fraction, room: Fraction) -> int:
    """`_first_order_k`, or 1 when room <= 0 or that k exceeds 2^24: the piece
    then costs its two end values and is Inconclusive unless the k = 1
    pair already fits."""
    if room <= 0:
        return 1
    k = _first_order_k(spread, room)
    return k if k <= 2**_MAX_DOUBLINGS else 1


def _poly_darboux(
    f: FnDescriptor, u: Fraction, v: Fraction, direction: str, target: Fraction
) -> IntegralResult:
    """Exact Darboux sums of a polynomial p monotone on [u, v], at the k
    the (v-u)(p(v)-p(u))/k shrinkage law predicts for the target.

    Newton's formula p(u + ih) = sum_j C(i, j) D^j p(u), D the forward
    difference of step h = (v-u)/k, sums to the left sum
    sum_(i<k) p(u + ih) = sum_(j<=deg p) D^j p(u) C(k, j+1); the right sum
    drops p(u) and adds p(v).  The D^j p(u) come from `_poly_table`, as
    integers over one denominator.
    """
    p_u, p_v = f.value_at(u), f.value_at(v)
    k = _first_order_k(abs(p_v - p_u) * (v - u), target)
    h = (v - u) / k
    diffs, den = _poly_table(f.poly_coeffs, *_grid(u, v, k))
    left = Fraction(sum(d * comb(k, j + 1) for j, d in enumerate(diffs)), den)
    lower, upper = h * left, h * (left + p_v - p_u)
    if direction == "decreasing":
        lower, upper = upper, lower
    return IntegralResult(Enclosure(lower, upper), Status.CONVERGES, k)


def _running_darboux(
    f: FnDescriptor, u: Fraction, v: Fraction, kind: str, digits: int,
    cells: Callable[[Fraction], int],
) -> _Bracket:
    """The Darboux pair of the regular k-partition of [u, v] from point
    values, on a piece where f is monotone (`kind` is its direction) or
    L-Lipschitz (`kind` is "lipschitz"), at the k = cells(spread) that the
    two end values predict.

    With h = (v - u)/k and S the sum of f over the interior grid points,
    an increasing f has inf f(x_i) and sup f(x_(i+1)) on [x_i, x_(i+1)],
    so L = h (f(u) + S) and U = h (S + f(v)) (decreasing: u and v swap
    roles; a constant f may take either).  An L-Lipschitz f has
    f(t) >= f(x) - L (t - x) and f(t) >= f(x + h) - L (x + h - t) on
    [x, x + h], whose mean is f(t) >= (f(x) + f(x + h))/2 - L h/2, and
    likewise f(t) <= (f(x) + f(x + h))/2 + L h/2; summed over the cells,
    the integral lies in h ((f(u) + f(v))/2 + S -+ L (v - u)/2).  Both
    sums stay on the 10^-digits grid, at O(digits) bits whatever the
    oracle returns: a point enclosure that is not exact is rounded outward
    before it enters them, and a sum of exact values is rounded outward
    once its denominator exceeds 10^digits.  The two end values follow the
    rule of the interior points, read by the same `f.grid_bounds`: an exact
    value stays whole, any other (a grid oracle's always) is floored and
    ceiled onto the grid.  `outer` is set for a Lipschitz piece, and
    otherwise once anything was rounded.

    The width, telescoped as for a monotone f (Rudin, Thm 6.9): with
    f(u)^- and f(v)^+ the lower and upper end values after rounding, an
    increasing piece has U - L = h (f(v)^+ - f(u)^-) + h sum_i (hi_i - lo_i)
    over the k - 1 interior points (decreasing: u and v swap).  Each term
    is below 3 10^-digits: the oracle's width 10^-digits plus a floor and a
    ceil onto the grid (a grid oracle, asked at digits + 1, is at most two
    steps of 10^-(digits+1) wide before the floor and ceil), or, for an
    exact value off the grid, the one grid step its fold into the sum can
    add.  A Lipschitz piece has the end term
    h ((f(u)^+ - f(u)^-) + (f(v)^+ - f(v)^-))/2 and adds h L (v - u).
    With D = end_hi - end_lo, the end term over h, that is
    U - L < spread/k + 3 (v - u) 10^-digits for spread = (v - u)(D + L (v - u))
    (L = 0 on a monotone piece), and `cells` picks k from spread before any
    interior point is evaluated.  The loop walks i = 1, ..., k - 1 once,
    each point evaluated once, in O(1) memory, and ends.

    It runs in integers on the grid points (first + i step)/den of
    `_grid(u, v, k)`, each read through `f.grid_bounds`.  Each sum is
    G/10^digits + E: the integer G takes the rounded values and the exact
    ones on the grid, and E (one for both sums, as exact values enter both)
    the exact ones off it.  Rounding S outward adds floor(E 10^digits)
    (upper sum: ceil) to G, so the rule is checked only while E != 0, and
    each S is the rational that Fraction sums would hold.  An interior
    point of a grid oracle builds no Fraction; the other oracles take the
    point as one Fraction and return theirs.
    """
    scale = 10**digits
    ends = [f.grid_bounds(x.numerator, x.denominator, digits) for x in (u, v)]
    outer = kind == "lipschitz" or any(lo != hi for lo, hi, _ in ends)
    (u_lo, u_hi), (v_lo, v_hi) = [(Fraction(lo, scale) + off, Fraction(hi, scale) + off)
                                  for lo, hi, off in ends]

    def exceeds(g: int) -> bool:  # the rounding rule, for the sum g/scale + e
        return (Fraction(g, scale) + e).denominator > scale

    swing = Fraction(0)
    if kind == "lipschitz":
        end_lo, end_hi = (u_lo + v_lo) / 2, (u_hi + v_hi) / 2
        swing = f.lipschitz * (v - u) / 2
    elif kind == "decreasing":
        end_lo, end_hi = v_lo, u_hi
    else:
        end_lo, end_hi = u_lo, v_hi
    k = cells((v - u) * (end_hi - end_lo + 2 * swing))
    g_lo, g_hi, e = 0, 0, Fraction(0)
    x, step, den = _grid(u, v, k)
    for _ in range(k - 1):
        x += step
        lo, hi, off = f.grid_bounds(x, den, digits)
        if off:
            e += off  # exact, off the grid
        else:
            outer = outer or lo != hi
            g_lo, g_hi = g_lo + lo, g_hi + hi
        if e and (exceeds(g_lo) or exceeds(g_hi)):
            (lo, hi), e = _grid_ends(e, e, scale), Fraction(0)
            g_lo, g_hi, outer = g_lo + lo, g_hi + hi, True
    h = (v - u) / k
    s_lo, s_hi = Fraction(g_lo, scale) + e, Fraction(g_hi, scale) + e
    return k, h * (end_lo + s_lo - swing), h * (end_hi + s_hi + swing), outer


# --- improper integrals -----------------------------------------------------

_P_RANGES = {  # kind: (the p its bound holds for, as a test and as text)
    "p_at_inf": (lambda p: p > 1, "p > 1"),
    "exp_at_inf": (lambda p: p > 0, "p > 0"),
    "p_at_zero": (lambda p: 0 < p < 1, "0 < p < 1"),
    "minorant_p_at_inf": (lambda p: p <= 1, "p <= 1"),
    "minorant_p_at_zero": (lambda p: p >= 1, "p >= 1"),
}


@dataclass(frozen=True)
class Comparison:
    """Registered comparison partner for one improper end.

    kinds: "p_at_inf" (|f(x)| <= const |x|^-p for |x| >= from_x, p > 1),
    "exp_at_inf" (|f(x)| <= const e^(-p |x|) for |x| >= from_x, p > 0; the
    tail beyond T is then at most const/p e^(-p T)),
    "p_at_zero" (|f| <= const t^-p at distance t > 0 inward from the singular
    endpoint, for small t, 0 < p < 1),
    "minorant_p_at_inf" (f >= const |x|^-p >= 0 for |x| >= from_x, p <= 1:
    a certified divergence witness), "minorant_p_at_zero" (f >= const t^-p
    >= 0 at distance t > 0 inward from the singular endpoint, for small t,
    p >= 1: likewise).  The "_at_inf" kinds apply on whichever end is
    infinite, the "_at_zero" kinds on whichever end is singular.  Any other
    kind, a p outside its kind's range or a const <= 0 is a ValueError, so
    every upper bound falls to 0 along the schedule.
    """

    kind: str
    p: Optional[Fraction] = None
    const: Fraction = Fraction(1)
    from_x: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.kind not in _P_RANGES:
            raise ValueError(f"unknown comparison kind {self.kind!r}")
        holds, needs = _P_RANGES[self.kind]
        if self.p is None or not holds(self.p) or not self.const > 0:
            raise ValueError(f"{self.kind} needs {needs} and const > 0")

    def _power_digits(self, digits: int) -> int:
        """Digits for the power in a bound factor * power, factor = const/|1 - p|
        (const/p for "exp_at_inf").  The power is at most 10^-digits too
        high; a factor below 100 costs no extra digit, so the bound is at
        most 10^(2 - digits) above the true one whatever the factor."""
        factor = self.const / (self.p if self.kind == "exp_at_inf" else abs(1 - self.p))
        return digits + max(0, len(str(int(factor))) - 2)

    def tail_bound(self, big_t: Fraction, digits: int) -> Fraction:
        digits = self._power_digits(digits)
        if self.kind == "p_at_inf":
            power = rational_power_enclosure(big_t, 1 - self.p, digits).hi
            return self.const * power / (self.p - 1)
        if self.kind == "exp_at_inf":
            from certreal.powerseries import exp_enclosure

            return self.const / self.p * exp_enclosure(-self.p * big_t, digits).hi
        raise ValueError(f"{self.kind} has no upper tail bound")

    def head_bound(self, eps: Fraction, digits: int) -> Fraction:
        if self.kind != "p_at_zero":
            raise ValueError(f"{self.kind} has no head bound")
        power = rational_power_enclosure(eps, 1 - self.p, self._power_digits(digits)).hi
        return self.const * power / (1 - self.p)


@dataclass(frozen=True)
class ImproperSpec:
    """An improper integral: integrand, interval, singular ends, partners.

    lo=None / hi=None mean -inf / +inf; singular_lo / singular_hi mark an
    unbounded integrand at that finite endpoint (the integral is then taken
    as a shrinking-epsilon limit).  At most one end may be infinite and at
    most one singular, and a singular end is finite: split anything else
    at a finite point first.  The integrand must be bounded and integrable
    on every closed subinterval avoiding the singular ends (caller
    contract).  nonnegative=True sharpens tail enclosures to [0, bound].
    """

    integrand: FnDescriptor
    lo: Optional[Fraction]
    hi: Optional[Fraction]
    singular_lo: bool = False
    singular_hi: bool = False
    comparisons: tuple[Comparison, ...] = ()
    nonnegative: bool = False


def _window(spec: ImproperSpec, big_t: Fraction, eps: Fraction) -> tuple[Fraction, Fraction]:
    """The finite interval of one schedule step: an infinite end is cut at
    -big_t or big_t, a singular end is moved inward by eps."""
    lo = -big_t if spec.lo is None else spec.lo
    hi = big_t if spec.hi is None else spec.hi
    if spec.singular_lo:
        lo += eps
    if spec.singular_hi:
        hi -= eps
    return lo, hi


def _first_t(spec: ImproperSpec, big_t: Fraction) -> Fraction:
    """The schedule's first T: no less than the finite end's distance from
    0 on the infinite side, so the first window is never reversed (it is
    empty when the two meet)."""
    if spec.hi is None:
        return max(big_t, spec.lo)
    if spec.lo is None:
        return max(big_t, -spec.hi)
    return big_t


def _bound_exceeds(comp: Comparison, at: Fraction, thr: Fraction) -> bool:
    """Whether the true tail bound beyond T = at ("p_at_inf") or head bound
    within eps = at ("p_at_zero"), c at^e / |e| with e = 1 - p, exceeds
    thr, decided in integers: with y = thr |e| / c and e = -a/b, at^e > y
    iff 1 > y^b at^a; with e = a/b, iff at^a > y^b."""
    e = 1 - comp.p
    y, a, b = thr * abs(e) / comp.const, abs(e.numerator), e.denominator
    return 1 > y**b * at**a if e < 0 else at**a > y**b


def improper_integral(
    spec: ImproperSpec,
    target_width: RationalLike = Fraction(1, 10**6),
) -> Verdict:
    """Improper integral over a doubling/shrinking schedule of windows.

    Convergence is certified only through a registered comparison partner
    with an explicit tail (or head) bound; the finite core is evaluated by
    `integrate_enclosure` on the window `_window` cuts out, on whichever
    side the infinite or singular end lies.  Without a partner the verdict
    is Inconclusive and the trace carries the partial integrals of eight
    windows.  A registered minorant ("minorant_p_at_inf" at an infinite
    end, "minorant_p_at_zero" at a singular end) certifies divergence.

    Step j has T = T_0 2^j and eps = 2^-(j+1).  `rest`, the tail and/or
    head bound outside its window, enters the enclosure as the partner
    [0, rest] for a nonnegative integrand and [-rest, rest] otherwise; the
    core inside the window is integrated to target/2.

    The walk starts at the first step whose true power-law bound is at
    most thr, the part of the target the partner may take (all of it when
    nonnegative, half otherwise).  The bound falls strictly in j and
    `_bound_exceeds` compares it with thr exactly, so doubling an upper
    step and bisecting below it finds that step; the rounded `rest` is
    never below the true bound, so every step passed over has a partner
    wider than the target.  An "exp_at_inf" partner has no exact test and
    walks from step 0: const/p e^(-pT) fits after about
    log2(ln(1/thr)/p) steps, at most 8 at 1e-100 with p = 1.

    From there a step skips its window while the partner is wider than
    the target (core + partner cannot fit) and integrates the core
    otherwise.  The walk stops Converges at the first window whose core
    converged and whose core + partner fits, and Inconclusive at the first
    core that did not converge.  The trace lists the integrated windows.
    """
    target = to_rational(target_width)
    digits = _digits_for(target, 4)
    if spec.lo is None and spec.hi is None:
        raise ValueError("split a two-sided improper integral at a finite point first")
    if (spec.singular_lo and (spec.singular_hi or spec.lo is None)) or (
        spec.singular_hi and spec.hi is None
    ):
        raise ValueError("a window bounds one finite singular end: split at a finite point first")
    unbounded = spec.lo is None or spec.hi is None
    singular = spec.singular_lo or spec.singular_hi
    for comp in spec.comparisons:
        if comp.kind == "minorant_p_at_inf":
            if not unbounded:
                raise ValueError("a divergence minorant at infinity needs an infinite end")
            minorant = f"{comp.const} * x^{-comp.p} for |x| >= {comp.from_x}"
            reason = "integral of the minorant over [from_x, T) is unbounded in T"
        elif comp.kind == "minorant_p_at_zero":
            if not singular:
                raise ValueError("a divergence minorant at zero needs a singular end")
            minorant = f"{comp.const} * t^{-comp.p} at distance t from the singular end"
            reason = "integral of the minorant over [eps, 1] is unbounded as eps -> 0"
        else:
            continue
        cert = Certificate(
            "comparison_minorant",
            {"minorant": minorant, "reason": reason},
            asserted=("the minorant inequality holds beyond the checked range",),
        )
        return Verdict(Status.DIVERGES, cert)

    tail_comp = next((c for c in spec.comparisons if c.kind in ("p_at_inf", "exp_at_inf")), None)
    head_comp = next((c for c in spec.comparisons if c.kind == "p_at_zero"), None)
    if (unbounded and tail_comp is None) or (singular and head_comp is None):
        return _improper_trace_only(spec, digits)

    first_t = _first_t(spec, max(Fraction(2), tail_comp.from_x) if tail_comp else Fraction(2))
    thr = target if spec.nonnegative else target / 2

    def too_wide(step: int) -> bool:  # the true power-law bound alone is wider than thr
        return (unbounded and tail_comp.kind == "p_at_inf"
                and _bound_exceeds(tail_comp, first_t * 2**step, thr)) or (
            singular and _bound_exceeds(head_comp, Fraction(1, 2 ** (step + 1)), thr))

    # Termination: the true bounds fall to 0 in j (`Comparison` admits no
    # other p), so the doubling ends.
    top = 64
    while too_wide(top - 1):
        top *= 2
    first = bisect_left(range(top), True, key=lambda j: not too_wide(j))
    trace: list = []
    # Termination: each rounded bound is at most 10^(2 - digits) <= target/100
    # above the true one (`Comparison._power_digits`), so the partner is at
    # most target/25 wider than the true bounds give, and those fall to 0.
    # Some step's partner is then at most target/2 wide, and there a core
    # that converged (at most target/2 wide) certifies; one that did not
    # has stopped the walk.
    for step in count(first):
        big_t, eps = first_t * 2**step, Fraction(1, 2 ** (step + 1))
        rest = tail_comp.tail_bound(big_t, digits) if unbounded else Fraction(0)
        if singular:
            rest += head_comp.head_bound(eps, digits)
        partner = Enclosure(Fraction(0) if spec.nonnegative else -rest, rest)
        if partner.width() > target:
            continue  # core + partner is wider than the target: this window cannot stop
        lo, hi = _window(spec, big_t, eps)
        core = integrate_enclosure(spec.integrand, lo, hi, target / 2, digits=digits)
        enclosure = core.enclosure + partner
        trace.append(("window", (str(lo), str(hi)), enclosure))
        if core.status is not Status.CONVERGES:
            return Verdict(Status.INCONCLUSIVE, None, None, trace=tuple(trace))
        if enclosure.width() <= target:
            cert = Certificate(
                "comparison_majorant",
                {
                    "tail": f"<= {tail_comp.const} * partner at T={big_t}" if unbounded else None,
                    "head": f"<= head bound at eps={eps}" if singular else None,
                    "core_method": core.method,
                },
                asserted=("the comparison inequalities hold beyond the checked range",),
            )
            return Verdict(Status.CONVERGES, cert, enclosure, trace=tuple(trace))


def _improper_trace_only(spec: ImproperSpec, digits: int) -> Verdict:
    trace: list = []
    big_t = _first_t(spec, Fraction(2))
    eps = Fraction(1, 2)
    for _ in range(8):
        lo, hi = _window(spec, big_t, eps)
        try:
            core = integrate_enclosure(spec.integrand, lo, hi, Fraction(1, 1000), digits=digits)
            trace.append(("window", (str(lo), str(hi)), core.enclosure))
        except MissingMetadataError as exc:
            trace.append(("error", str(exc)))
            break
        big_t *= 2
        eps /= 2
    return Verdict(Status.INCONCLUSIVE, None, None, trace=tuple(trace))


# --- the gamma function ------------------------------------------------------

def _lower_incomplete_series(s: Fraction, x: int, budget: Fraction, digits: int) -> Enclosure:
    """Enclosure of the integral of t^(s-1) e^-t over (0, x], for s in
    (0, 1] and an integer x >= 2, of width <= 5/4 budget plus x^s's
    rounding times the series.

    Integrating the exponential series term by term gives
    x^s * sum_k (-x)^k / (k! (s+k)); after summing indices 0..K the
    exchange error is at most 2 x^(K+1) / ((K+1)! (s+K+1)) (valid once
    K+2 >= 2x), i.e. 2 |next power term| / (s+K+1).
    """
    # The series runs on the grid 2^-B.  P_k = floor(2^B x^k / k!) with an
    # integer error bound, 2^B x^k / k! in [P_k, P_k + e_k]: P_0 = 2^B,
    # e_0 = 0, and P_(k+1) = floor(P_k x / (k+1)) gives
    # e_(k+1) = ceil(e_k x / (k+1)) + 1.  With s = p/q, term k is
    # (-1)^k q 2^B x^k/k! / (p + kq), added to the sum as its floor/ceil
    # pair, so the sum scaled by 2^B lies in [lo, hi].
    #
    # Width: e_k <= 2 sum_(1<=j<=k) a_k/a_j for a_k = x^k/k!, and each
    # a_k/a_j is a product of consecutive factors x/i, at most x^x/x! < e^x;
    # so e_k <= 2k e^x.  As q/(p+kq) < 1/k, term k >= 1 adds at most
    # e_k/k + 2 <= 2e^x + 2 to hi - lo, and term 0 at most 1.  Through index
    # K that is at most 4K e^x - 2, and the two rounded-up tails add 2.
    # B = guard + bits(k_max) + 2, with guard = bits(4x/budget) +
    # ceil(1.443 x) (log2 e < 1.443), gives 2^B > 16 x k_max e^x / budget, which keeps the
    # rounding under budget/(4x), and under budget/4 after the product with
    # x^s <= x.  The e^x is the cancellation of the alternating terms, whose
    # largest is about e^x.
    #
    # Termination: past k = 2x the factor x/(k+1) is <= 1/2, so P_k and
    # e_k - 4 at least halve per step, and the stopping test holds by
    # k = 2x + guard + 2 <= k_max; so K <= k_max.
    p, q = s.numerator, s.denominator
    bn, bd = budget.numerator, budget.denominator
    guard = (4 * x * bd // bn).bit_length() + (1443 * x + 999) // 1000
    k_max = 2 * x + guard + 3
    one = 1 << (guard + k_max.bit_length() + 2)
    power, err = one, 0  # P_k, e_k
    lo = hi = 0
    k = 0
    while True:
        den = p + k * q
        low, high = q * power // den, -(-q * (power + err) // den)
        if k % 2:
            lo, hi = lo - high, hi - low
        else:
            lo, hi = lo + low, hi + high
        k += 1
        power, err = power * x // k, -(-err * x // k) + 1
        den = p + k * q
        # the exchange bound 2 q (P_k + e_k) / (2^B (p + kq)) <= budget/(2x)
        if k + 1 >= 2 * x and 4 * x * q * (power + err) * bd <= bn * den * one:
            tail = -(-2 * q * (power + err) // den)
            series = Enclosure(Fraction(lo - tail, one), Fraction(hi + tail, one))
            return rational_power_enclosure(x, s, digits).times(series)


def gamma(s: RationalLike, digits: int = 6) -> Enclosure:
    """Enclosure of the gamma function at rational s > 0, width <= 10**-digits.

    A positive integer s gives the exact point (s-1)!.  Otherwise the
    recursion gamma(s+1) = s * gamma(s) reduces to s in (0, 1]; there,
    gamma(s) is the lower incomplete part over (0, T] (a fixed-point
    series) plus a tail below 2 e^(-T/2), since t^(s-1) e^(-t/2) <= 1
    for t >= 1 when s <= 1.  The endpoints are rounded outward onto the
    10^-(digits+2) grid.
    """
    from certreal.powerseries import exp_enclosure

    s = to_rational(s)
    if s <= 0:
        raise ValueError("gamma needs s > 0")
    if s.denominator == 1:
        return Enclosure.point(factorial(s.numerator - 1))
    factor = Fraction(1)
    while s > 1:
        s -= 1
        factor *= s
    target = Fraction(1, 10**digits)
    scaled_target = target / factor if factor > 1 else target
    inner_digits = _digits_for(scaled_target, 4)
    for _ in range(4):
        big_t = 2
        # Termination: e^(-T/2) tends to 0 and the enclosure is at most
        # 10^-inner_digits <= scaled_target / 10^4 wider, so 2 * hi falls
        # below scaled_target / 4 once e^(-T/2) < scaled_target / 9.
        while True:
            tail_hi = 2 * exp_enclosure(Fraction(-big_t, 2), inner_digits).hi
            if tail_hi <= scaled_target / 4:
                break
            big_t *= 2
        # widths: the series 5/8 scaled_target, the tail 1/4 of it, and
        # x^s's rounding times the series; the outward rounding adds
        # 2 * 10^-(digits+2) = target/50
        core = _lower_incomplete_series(s, big_t, scaled_target / 2, inner_digits)
        enclosure = (core + Enclosure(Fraction(0), tail_hi)).scale(factor)
        enclosure = Enclosure(*_round_out(enclosure.lo, enclosure.hi, 10 ** (digits + 2)))
        if enclosure.width() <= target:
            return enclosure
        inner_digits += 6  # x^s rounding dominated; retry tighter
    raise ArithmeticError("gamma precision loop failed to close")


# --- oracle checks for the classical integral identities ---------------------

@dataclass(frozen=True)
class IdentityReport:
    left: Enclosure
    right: Enclosure
    agree: bool
    gap_bound: Fraction

    def __bool__(self) -> bool:
        return self.agree


def _identity_report(left: Enclosure, right: Enclosure) -> IdentityReport:
    overlap = left.lo <= right.hi and right.lo <= left.hi
    gap = max(abs(left.midpoint() - right.midpoint()), Fraction(0))
    return IdentityReport(left, right, overlap, gap + left.width() + right.width())


def substitution_check(
    outer: FnDescriptor,
    a: RationalLike,
    b: RationalLike,
    expected: Enclosure,
    target_width: RationalLike = Fraction(1, 10**6),
) -> IdentityReport:
    """Check integral of `outer` over [a, b] against a closed-form enclosure
    (the substituted right-hand side); agreement means the enclosures
    overlap, with the combined widths as the discrepancy bound."""
    result = integrate_enclosure(outer, a, b, target_width)
    return _identity_report(result.enclosure, expected)


def parts_check(
    u: FnDescriptor,
    v: FnDescriptor,
    a: RationalLike,
    b: RationalLike,
    target_width: RationalLike = Fraction(1, 10**4),
) -> IdentityReport:
    """Verify integral of u v' plus integral of u' v equals the boundary term
    u v | a..b, all as enclosures (integration by parts)."""
    a, b = to_rational(a), to_rational(b)
    if u.derivative is None or v.derivative is None:
        raise MissingMetadataError("parts check needs registered derivatives")
    du, dv = u.derivative, v.derivative

    def product_desc(f: FnDescriptor, g: FnDescriptor) -> FnDescriptor:
        if f.poly_coeffs is not None and g.poly_coeffs is not None:
            from certreal.core import poly_descriptor

            prod = [Fraction(0)] * (len(f.poly_coeffs) + len(g.poly_coeffs) - 1)
            for i, ci in enumerate(f.poly_coeffs):
                for j, cj in enumerate(g.poly_coeffs):
                    prod[i + j] += ci * cj
            return poly_descriptor(prod, name=f"({f.name})*({g.name})")
        lip = None
        if (
            f.lipschitz is not None
            and g.lipschitz is not None
            and f.bound is not None
            and g.bound is not None
        ):
            lip = f.lipschitz * g.bound + g.lipschitz * f.bound
        return FnDescriptor(
            name=f"({f.name})*({g.name})",
            eval_rat=(lambda x, _f=f, _g=g: _f.value_at(x) * _g.value_at(x))
            if f.eval_rat is not None and g.eval_rat is not None
            else None,
            lipschitz=lip,
        )

    left = integrate_enclosure(product_desc(u, dv), a, b, target_width).enclosure
    left = left + integrate_enclosure(product_desc(du, v), a, b, target_width).enclosure
    boundary = Enclosure.point(u.value_at(b) * v.value_at(b) - u.value_at(a) * v.value_at(a))
    return _identity_report(left, boundary)
