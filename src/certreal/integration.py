"""Partitions, Darboux/Riemann sums, certified integrals, improper integrals.

Per-interval infima/suprema are never estimated by sampling on certified
paths: they come from descriptor metadata (an exact range rule, step
pieces, monotone pieces) or, in Lipschitz mode, from conservative outer
bounds that are flagged as such.  The indicator-of-the-rationals descriptor
is the cautionary tale: sampling it anywhere yields nonsense, while its
registered range rule gives the honest pair L = 0, U = 1 forever.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb
from typing import Iterator, Optional, Sequence, Union

from certreal.core import (
    Enclosure,
    FnDescriptor,
    MissingMetadataError,
    RationalLike,
    Status,
    Verdict,
    _cut_points,
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
    step = (b - a) / k
    return Partition(tuple(a + i * step for i in range(k)) + (b,))


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


def _raw_bounds(f: FnDescriptor, x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """(lower, upper) for f(x) without Enclosure overhead on exact oracles."""
    if f.eval_rat is not None:
        value = f.eval_rat(x)
        return value, value
    enc = f.enclosure_at(x, digits)
    return enc.lo, enc.hi


def _interval_bounds_monotone(
    f: FnDescriptor, lo: Fraction, hi: Fraction, digits: int
) -> tuple[Fraction, Fraction, bool]:
    """Exact inf/sup on [lo, hi] from (piecewise) monotone metadata."""
    los: list[Fraction] = []
    his: list[Fraction] = []
    exact = True
    for u, v, direction in f.monotone_split(lo, hi):
        u_lo, u_hi = _raw_bounds(f, u, digits)
        v_lo, v_hi = _raw_bounds(f, v, digits)
        if u_lo != u_hi or v_lo != v_hi:
            exact = False
        if direction == "increasing":
            los.append(u_lo)
            his.append(v_hi)
        elif direction == "decreasing":
            los.append(v_lo)
            his.append(u_hi)
        else:
            los.append(min(u_lo, v_lo))
            his.append(max(u_hi, v_hi))
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
            mid_lo, mid_hi = _raw_bounds(f, (lo + hi) / 2, digits)
            # Snap outward to a shared decimal grid: still valid outer
            # bounds, and the exact fold over many intervals stays linear
            # (unrelated denominators would make it quadratic).
            half_swing = f.lipschitz * width / 2
            m, big_m = _round_out(mid_lo - half_swing, mid_hi + half_swing, 10**digits)
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
    A monotone polynomial piece takes exact forward-difference sums at the
    predicted k; every other piece doubles k in `_refine` until U - L meets
    its share, reading its brackets from `_running_darboux` (monotone and
    Lipschitz pieces: running sums on the 10^-digits grid, each point
    evaluated once) or, for range-rule and step pieces, from `darboux`.  A
    piece that meets no target within the doubling cap, or stops
    shrinking, makes the result Inconclusive with its best pair.
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
            piece = _refine(_running_darboux(f, u, v, kind, prec), share)
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


def _refine(brackets: Iterator[_Bracket], target: Fraction) -> IntegralResult:
    """The first bracket with U - L <= target, Converges.

    `brackets` yields the Darboux pair of the regular k-partition for
    k = 1, 2, 4, ...; at most _MAX_DOUBLINGS + 1 of them are pulled.  When
    the cap is reached, or a bracket is no narrower than the one before
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


def _poly_darboux(
    f: FnDescriptor, u: Fraction, v: Fraction, direction: str, target: Fraction
) -> IntegralResult:
    """Exact Darboux sums of a polynomial p monotone on [u, v], at the k
    the (v-u)(p(v)-p(u))/k shrinkage law predicts for the target.

    Newton's formula p(u + ih) = sum_j C(i, j) D^j p(u), D the forward
    difference of step h = (v-u)/k, sums to the left sum
    sum_(i<k) p(u + ih) = sum_(j<=deg p) D^j p(u) C(k, j+1); the right sum
    drops p(u) and adds p(v).
    """
    p_u, p_v = f.value_at(u), f.value_at(v)
    swing = abs(p_v - p_u)
    k = 1 if swing == 0 or direction == "constant" else int(swing * (v - u) / target) + 1
    h = (v - u) / k
    diffs = [f.value_at(u + i * h) for i in range(len(f.poly_coeffs))]
    left = Fraction(0)
    for j in range(len(f.poly_coeffs)):
        left += diffs[0] * comb(k, j + 1)
        diffs = [y - x for x, y in zip(diffs, diffs[1:])]
    lower, upper = h * left, h * (left + p_v - p_u)
    if direction == "decreasing":
        lower, upper = upper, lower
    return IntegralResult(Enclosure(lower, upper), Status.CONVERGES, k)


def _running_darboux(
    f: FnDescriptor, u: Fraction, v: Fraction, kind: str, digits: int
) -> Iterator[_Bracket]:
    """Darboux pairs of the regular k-partitions of [u, v], k = 1, 2, 4, ...,
    from point values, on a piece where f is monotone (`kind` is its
    direction) or L-Lipschitz (`kind` is "lipschitz").

    With h = (v - u)/k and S the sum of f over the interior grid points,
    an increasing f has inf f(x_i) and sup f(x_(i+1)) on [x_i, x_(i+1)],
    so L = h (f(u) + S) and U = h (S + f(v)) (decreasing: u and v swap
    roles; a constant f may take either).  An L-Lipschitz f has
    f(t) >= f(x) - L (t - x) and f(t) >= f(x + h) - L (x + h - t) on
    [x, x + h], whose mean is f(t) >= (f(x) + f(x + h))/2 - L h/2, and
    likewise f(t) <= (f(x) + f(x + h))/2 + L h/2; summed over the cells,
    the integral lies in h ((f(u) + f(v))/2 + S -+ L (v - u)/2), of width
    L (v - u) h as for the midpoint rule, but on points the 2k-partition
    reuses.  Only the two end values and the running sums of S's lower
    and upper bounds are kept: the next pair evaluates just the k new
    midpoints, so each point is evaluated once and memory stays O(1) in
    k.  Both sums stay on the 10^-digits grid, at O(digits) bits whatever
    the oracle returns: a point enclosure that is not exact is rounded
    outward before it enters them, and a sum of exact values is rounded
    outward once its denominator exceeds 10^digits.  `outer` is set for a
    Lipschitz piece, and otherwise once anything was rounded.
    """
    scale = 10**digits
    outer = kind == "lipschitz"

    def bounds(x: Fraction) -> tuple[Fraction, Fraction]:
        nonlocal outer
        lo, hi = _raw_bounds(f, x, digits)
        if lo == hi:
            return lo, hi
        outer = True
        return _round_out(lo, hi, scale)

    u_lo, u_hi = bounds(u)
    v_lo, v_hi = bounds(v)
    swing = Fraction(0)
    if kind == "lipschitz":
        end_lo, end_hi = (u_lo + v_lo) / 2, (u_hi + v_hi) / 2
        swing = f.lipschitz * (v - u) / 2
    elif kind == "decreasing":
        end_lo, end_hi = v_lo, u_hi
    else:
        end_lo, end_hi = u_lo, v_hi
    sum_lo = sum_hi = Fraction(0)
    k = 1
    while True:  # unbounded: `_refine` pulls at most _MAX_DOUBLINGS + 1
        h = (v - u) / k
        yield k, h * (end_lo + sum_lo - swing), h * (end_hi + sum_hi + swing), outer
        step = (v - u) / (2 * k)
        for j in range(k):
            lo, hi = bounds(u + (2 * j + 1) * step)
            sum_lo += lo
            sum_hi += hi
            if sum_lo.denominator > scale or sum_hi.denominator > scale:
                sum_lo, sum_hi = _round_out(sum_lo, sum_hi, scale)
                outer = True
        k *= 2


# --- improper integrals -----------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """Registered comparison partner for one improper end.

    kinds: "p_at_inf" (|f(x)| <= const |x|^-p for |x| >= from_x, p > 1),
    "exp_at_inf" (|f(x)| <= const e^(-p |x|) for |x| >= from_x, p > 0; the
    tail beyond T is then at most const/p e^(-p T)),
    "p_at_zero" (|f| <= const t^-p at distance t > 0 inward from the singular
    endpoint, for small t, 0 < p < 1),
    "minorant_p_at_inf" (f >= const |x|^-p >= 0 for |x| >= from_x, p <= 1:
    a certified divergence witness).  The "_at_inf" kinds apply on
    whichever end is infinite.
    """

    kind: str
    p: Optional[Fraction] = None
    const: Fraction = Fraction(1)
    from_x: Fraction = Fraction(1)

    def tail_bound(self, big_t: Fraction, digits: int) -> Fraction:
        if self.kind == "p_at_inf":
            exponent = 1 - self.p
            if exponent.denominator == 1:
                power = big_t ** int(exponent)
            else:
                power = rational_power_enclosure(big_t, exponent, digits).hi
            return self.const * power / (self.p - 1)
        if self.kind == "exp_at_inf":
            from certreal.powerseries import exp_enclosure

            return self.const / self.p * exp_enclosure(-self.p * big_t, digits).hi
        raise ValueError(f"{self.kind} has no upper tail bound")

    def head_bound(self, eps: Fraction, digits: int) -> Fraction:
        if self.kind != "p_at_zero":
            raise ValueError(f"{self.kind} has no head bound")
        if not 0 < self.p < 1:
            raise ValueError("p_at_zero needs 0 < p < 1")
        power = rational_power_enclosure(eps, 1 - self.p, digits).hi
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


@dataclass(frozen=True)
class ImproperCertificate:
    kind: str
    witnesses: dict
    asserted: tuple[str, ...] = ()


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


def improper_integral(
    spec: ImproperSpec,
    target_width: RationalLike = Fraction(1, 10**6),
    max_steps: int = 60,
) -> Verdict:
    """Improper integral over a doubling/shrinking schedule.

    Convergence is certified only through a registered comparison partner
    with an explicit tail (or head) bound; the finite core is evaluated by
    `integrate_enclosure` on the window `_window` cuts out, on whichever
    side the infinite or singular end lies.  Without a partner the verdict
    is Inconclusive and the trace carries the partial integrals.  A
    registered minorant certifies divergence.

    Each step bounds the part outside its window first: `rest`, the tail
    and/or head bound, enters the enclosure as [0, rest] for a
    nonnegative integrand and [-rest, rest] otherwise.  The core of the
    window is integrated only when that partner interval is no wider than
    the target, or at the last step.  A skipped window cannot stop the
    loop: its enclosure core + partner is at least as wide as the partner,
    which is wider than the target.  So the stopping window, the value and
    the certificate are those of the full schedule, and the trace lists
    only the windows whose core was integrated.
    """
    target = to_rational(target_width)
    digits = _digits_for(target, 4)
    if spec.lo is None and spec.hi is None:
        raise ValueError("split a two-sided improper integral at a finite point first")
    if (spec.singular_lo and (spec.singular_hi or spec.lo is None)) or (
        spec.singular_hi and spec.hi is None
    ):
        raise ValueError("a window bounds one finite singular end: split at a finite point first")
    for comp in spec.comparisons:
        if comp.kind == "minorant_p_at_inf":
            if comp.p > 1 or (spec.lo is not None and spec.hi is not None):
                raise ValueError("divergence minorant needs p <= 1 and an infinite end")
            cert = ImproperCertificate(
                "comparison_minorant",
                {
                    "minorant": f"{comp.const} * x^{-comp.p} for |x| >= {comp.from_x}",
                    "reason": "integral of the minorant over [from_x, T) is unbounded in T",
                },
                asserted=("the minorant inequality holds beyond the checked range",),
            )
            return Verdict(Status.DIVERGES, cert)

    tail_comp = next((c for c in spec.comparisons if c.kind in ("p_at_inf", "exp_at_inf")), None)
    head_comp = next((c for c in spec.comparisons if c.kind == "p_at_zero"), None)

    unbounded = spec.lo is None or spec.hi is None
    singular = spec.singular_lo or spec.singular_hi
    if (unbounded and tail_comp is None) or (singular and head_comp is None):
        return _improper_trace_only(spec, max_steps, digits)

    big_t = _first_t(spec, max(Fraction(2), tail_comp.from_x) if tail_comp else Fraction(2))
    eps = Fraction(1, 2)
    trace: list = []
    for step in range(max_steps):
        if step and unbounded:
            big_t *= 2
        if step and singular:
            eps /= 2
        rest = tail_comp.tail_bound(big_t, digits) if unbounded else Fraction(0)
        if singular:
            rest += head_comp.head_bound(eps, digits)
        partner = Enclosure(Fraction(0) if spec.nonnegative else -rest, rest)
        if partner.width() > target and step < max_steps - 1:
            continue  # core + partner is wider than the target: this window cannot stop
        lo, hi = _window(spec, big_t, eps)
        core = integrate_enclosure(spec.integrand, lo, hi, target / 2, digits=digits)
        enclosure = core.enclosure + partner
        trace.append(("window", (str(lo), str(hi)), enclosure))
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
            return Verdict(Status.CONVERGES, cert, enclosure, trace=tuple(trace))
    return Verdict(Status.INCONCLUSIVE, None, None, trace=tuple(trace))


def _improper_trace_only(spec: ImproperSpec, max_steps: int, digits: int) -> Verdict:
    trace: list = []
    big_t = _first_t(spec, Fraction(2))
    eps = Fraction(1, 2)
    for _ in range(min(max_steps, 8)):
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

def _lower_incomplete_series(s: Fraction, x: Fraction, budget: Fraction, digits: int) -> Enclosure:
    """Enclosure of the integral of t^(s-1) e^-t over (0, x], x >= 2.

    Integrating the exponential series term by term gives
    x^s * sum_k (-x)^k / (k! (s+k)); after summing indices 0..K the
    exchange error is at most 2 x^(K+1) / ((K+1)! (s+K+1)) (valid once
    K+2 >= 2x), i.e. 2 |next power term| / (s+K+1).
    """
    total = Fraction(0)
    k = 0
    power = Fraction(1)  # (-x)^k / k!
    # Termination: x^k / k! tends to 0, so the bound drops below the budget.
    while True:
        total += power / (s + k)
        k += 1
        power = power * (-x) / k
        bound = 2 * abs(power) / (s + k)
        # x^s <= x for s <= 1, so dividing the budget by x covers the final
        # multiplication by the x^s enclosure.
        if k + 1 >= 2 * x and bound <= budget / (2 * x):
            series = Enclosure.from_midrad(total, bound)
            break
    x_pow_s = rational_power_enclosure(x, s, digits)
    return x_pow_s.times(series)


def gamma(s: RationalLike, digits: int = 6) -> Enclosure:
    """Enclosure of the gamma function at rational s > 0, width <= 10**-digits.

    The recursion gamma(s+1) = s * gamma(s) reduces to s in (0, 1]; there,
    gamma(s) is the lower incomplete part over (0, T] (series, exact
    rationals) plus a tail below 2 e^(-T/2), since t^(s-1) e^(-t/2) <= 1
    for t >= 1 when s <= 1.
    """
    from certreal.powerseries import exp_enclosure

    s = to_rational(s)
    if s <= 0:
        raise ValueError("gamma needs s > 0")
    factor = Fraction(1)
    while s > 1:
        s -= 1
        factor *= s
    target = Fraction(1, 10**digits)
    scaled_target = target / factor if factor > 1 else target
    inner_digits = _digits_for(scaled_target, 4)
    for _ in range(4):
        big_t = Fraction(2)
        # Termination: e^(-T/2) tends to 0 and the enclosure is at most
        # 10^-inner_digits <= scaled_target / 10^4 wider, so 2 * hi falls
        # below scaled_target / 4 once e^(-T/2) < scaled_target / 9.
        while True:
            tail_hi = 2 * exp_enclosure(-big_t / 2, inner_digits).hi
            if tail_hi <= scaled_target / 4:
                break
            big_t *= 2
        core = _lower_incomplete_series(s, big_t, scaled_target / 2, inner_digits)
        enclosure = (core + Enclosure(Fraction(0), tail_hi)).scale(factor)
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
            eval_rat=(lambda x, _f=f, _g=g: _f.eval_rat(x) * _g.eval_rat(x))
            if f.eval_rat is not None and g.eval_rat is not None
            else None,
            lipschitz=lip,
        )

    left = integrate_enclosure(product_desc(u, dv), a, b, target_width).enclosure
    left = left + integrate_enclosure(product_desc(du, v), a, b, target_width).enclosure
    boundary = Enclosure.point(u.value_at(b) * v.value_at(b) - u.value_at(a) * v.value_at(a))
    return _identity_report(left, boundary)
