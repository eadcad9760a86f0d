"""Uniform-convergence diagnostics, Bernstein approximation, and the
pathological-function gallery.

The gallery's rational-indicator descriptor cannot be point-evaluated
faithfully at irrationals, so it is usable through its per-interval range
rule only; the sawtooth sum is evaluated exactly (argument reduction mod
the period in rational arithmetic), because the nowhere-differentiability
argument is an integer-parity statement and deserves integer-exact data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable, Optional, Union

from certreal.core import (
    Enclosure,
    FnDescriptor,
    RationalLike,
    Status,
    Verdict,
    sqrt_enclosure,
    to_rational,
)
from certreal.sequences import TermStream
from certreal.series import DEFAULT_POLICY, SeriesHandle, TestCertificate, classify


@dataclass(frozen=True)
class FnSequence:
    """Indexed function family n |-> descriptor on a shared domain."""

    gen: Callable[[int], FnDescriptor]
    domain: tuple[Optional[Fraction], Optional[Fraction]]
    name: str = ""
    # Registered exact rule for sup |f_n - limit| over the domain.
    deviation_rule: Optional[Callable[[int], Union[Fraction, Enclosure]]] = None

    def at(self, n: int) -> FnDescriptor:
        return self.gen(n)


def make_fn_sequence(family: str, **params) -> FnSequence:
    """Registered families.

    "power": f_n(x) = x**n on [0, 1) with pointwise limit 0; the deviation
    supremum is 1 for every n (not attained).  "xexp": f_n(x) = x e^(-n x^2)
    on the real line, limit 0, supremum e^(-1/2)/sqrt(2n) attained at
    1/sqrt(2n).  "constant": f_n = f for all n.
    """
    if family == "power":

        def gen(n: int) -> FnDescriptor:
            return FnDescriptor(
                name=f"x^{n}",
                eval_rat=lambda x, _n=n: x**_n,
                monotone="increasing",
                bound=Fraction(1),
            )

        return FnSequence(
            gen,
            (Fraction(0), Fraction(1)),
            "power",
            deviation_rule=lambda n: Fraction(1),
        )
    if family == "xexp":
        digits = int(params.get("digits", 12))

        def gen(n: int) -> FnDescriptor:
            from certreal.powerseries import exp_enclosure

            def eval_enc(x: Fraction, d: int) -> Enclosure:
                return exp_enclosure(-n * x * x, d).times(Enclosure.point(x))

            return FnDescriptor(name=f"x*e^(-{n}x^2)", eval_enc=eval_enc)

        def deviation(n: int) -> Enclosure:
            from certreal.powerseries import exp_enclosure

            # attained at x = 1/sqrt(2n): value e^(-1/2) / sqrt(2n)
            return exp_enclosure(Fraction(-1, 2), digits).times(
                sqrt_enclosure(Fraction(1, 2 * n), digits)
            )

        return FnSequence(gen, (None, None), "xexp", deviation_rule=deviation)
    if family == "constant":
        f = params["f"]
        return FnSequence(
            lambda n: f, params.get("domain", (None, None)), "constant",
            deviation_rule=lambda n: Fraction(0),
        )
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class DeviationResult:
    """sup |f_n - limit|: exact (registered rule) or a grid lower bound."""

    value: Union[Fraction, Enclosure]
    kind: str  # "exact_extrema" | "grid_lower_bound"

    @property
    def exact(self) -> bool:
        return self.kind == "exact_extrema"


def uniform_deviation(
    fs: FnSequence,
    limit: FnDescriptor,
    n: int,
    grid: Optional[int] = None,
    digits: int = 12,
) -> DeviationResult:
    """M_n = sup over the domain of |f_n - limit|.

    With a registered extremum rule the value is exact (or a tight
    enclosure); otherwise a rational grid of `grid` points yields a
    certified LOWER bound on the supremum, flagged as such.  Uniform
    convergence is equivalent to M_n -> 0.
    """
    if grid is None:
        if fs.deviation_rule is None:
            raise ValueError(f"{fs.name or 'family'}: no registered extremum rule; pass grid=")
        return DeviationResult(fs.deviation_rule(n), "exact_extrema")
    lo, hi = fs.domain
    if lo is None or hi is None:
        raise ValueError("grid mode needs a bounded domain")
    if grid < 2:
        raise ValueError("grid must have at least two points")
    f_n = fs.at(n)
    best = Fraction(0)
    for i in range(grid + 1):
        x = lo + (hi - lo) * Fraction(i, grid)
        diff = f_n.enclosure_at(x, digits) - limit.enclosure_at(x, digits)
        magnitude_lower = max(diff.lo, -diff.hi, Fraction(0))
        best = max(best, magnitude_lower)
    return DeviationResult(best, "grid_lower_bound")


def weierstrass_m_test(bounds: TermStream, horizon: int = 128) -> Verdict:
    """Uniform convergence of sum f_n from per-term bounds |f_n| <= M_n.

    The bounds are the caller's contract; they must be nonnegative
    (prefix-checked).  The series sum M_n is classified; convergence yields
    a uniform-convergence certificate (absolute and uniform on the domain).
    """
    for k in range(bounds.n0, min(horizon, bounds.n0 + 64) + 1):
        term = bounds.term(k)
        value = term.hi if isinstance(term, Enclosure) else term
        if value < 0:
            raise ValueError(f"bound M_{k} = {term} is negative")

    def rational_bound(k: int) -> Fraction:
        term = bounds.term(k)
        return term.hi if isinstance(term, Enclosure) else term

    handle = SeriesHandle(
        TermStream(rational_bound, bounds.n0, f"M-bounds({bounds.name})")
    )
    inner = classify(handle, DEFAULT_POLICY, horizon)
    if inner.status is Status.CONVERGES:
        cert = TestCertificate(
            "registered:weierstrass_m",
            {"bound_series_test": inner.certificate.test},
            machine_checked=inner.certificate.machine_checked,
            asserted=("|f_n| <= M_n on the whole domain",) + inner.certificate.asserted,
            detail="sum M_n converges, so sum f_n converges absolutely and uniformly",
        )
        return Verdict(Status.CONVERGES, cert, trace=inner.trace)
    return Verdict(Status.INCONCLUSIVE, None, None, trace=inner.trace)


# --- Bernstein approximation --------------------------------------------------

def bernstein_basis(n: int, k: int, x: RationalLike) -> Fraction:
    """p_{n,k}(x) = C(n,k) x^k (1-x)^(n-k), exactly."""
    x = to_rational(x)
    return comb(n, k) * x**k * (1 - x) ** (n - k)


@dataclass(frozen=True)
class BernsteinOperator:
    """Degree-n Bernstein approximant built from samples f(k/n).

    Reproduces constants and the identity exactly (partition of unity);
    general [a, b] domains enter through the affine pullback
    u(t) = a + t(b-a).
    """

    degree: int
    samples: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.samples) != self.degree + 1:
            raise ValueError("need degree + 1 samples")
        object.__setattr__(self, "samples", tuple(to_rational(s) for s in self.samples))

    @classmethod
    def from_function(
        cls,
        f: Union[FnDescriptor, Callable[[Fraction], Fraction]],
        n: int,
        interval: tuple[RationalLike, RationalLike] = (0, 1),
    ) -> "BernsteinOperator":
        a, b = to_rational(interval[0]), to_rational(interval[1])
        if a >= b:
            raise ValueError("need a < b")
        evaluate = f.value_at if isinstance(f, FnDescriptor) else f
        samples = tuple(
            to_rational(evaluate(a + (b - a) * Fraction(k, n))) for k in range(n + 1)
        )
        return cls(n, samples)


def bernstein_apply(op: BernsteinOperator, x: RationalLike) -> Fraction:
    """Exact evaluation of sum f(k/n) p_{n,k}(x) at x in [0, 1]."""
    x = to_rational(x)
    if not 0 <= x <= 1:
        raise ValueError("x must lie in [0, 1] (apply the affine pullback first)")
    n = op.degree
    return sum(
        (op.samples[k] * bernstein_basis(n, k, x) for k in range(n + 1)), Fraction(0)
    )


def bernstein_error_bound(
    m_bound: RationalLike, delta: RationalLike, eps: RationalLike, n: int
) -> Fraction:
    """The constructive uniform error bound eps/2 + M/(2 delta^2 n), valid
    whenever |f| <= M and |f(x)-f(y)| < eps/2 for |x-y| < delta."""
    m_bound, delta, eps = to_rational(m_bound), to_rational(delta), to_rational(eps)
    if delta <= 0 or n < 1:
        raise ValueError("need delta > 0 and n >= 1")
    return eps / 2 + m_bound / (2 * delta * delta * n)


# --- the gallery ---------------------------------------------------------------

def gallery(name: str, **params) -> FnDescriptor:
    """Named pathological/utility functions with faithful metadata.

    rational_indicator: 1 on rationals, 0 on irrationals; Darboux-usable
    only (range rule m=0, M=1 on every nondegenerate interval).
    unit_step: 0 for x < 0, 1 for x >= 0, with its exact antiderivative
    max(x, 0).  flat_bump: exp(-1/x^2), 0 at 0.
    smooth_step(a, b): 0 left of a, 1 right of b, smooth and increasing.
    sawtooth(levels): truncated nowhere-differentiable sum, with its exact
    antiderivative and Lipschitz constant levels + 1.
    """
    if name == "rational_indicator":
        return FnDescriptor(
            name="rational_indicator",
            # Every representable input is rational; the irrational branch
            # is expressible only through the range rule below.
            eval_rat=lambda x: Fraction(1),
            range_rule=lambda lo, hi: (Fraction(0), Fraction(1)),
            bound=Fraction(1),
            darboux_only=True,
        )
    if name == "unit_step":
        return FnDescriptor(
            name="unit_step",
            eval_rat=lambda x: Fraction(1) if x >= 0 else Fraction(0),
            monotone="increasing",
            bound=Fraction(1),
            antiderivative=FnDescriptor(
                name="integral of unit_step from 0", eval_rat=lambda x: max(x, Fraction(0))
            ),
        )
    if name == "flat_bump":
        digits = int(params.get("digits", 20))

        def bump_eval(x: Fraction, d: int) -> Enclosure:
            from certreal.powerseries import exp_enclosure

            if x == 0:
                return Enclosure.point(0)
            return exp_enclosure(-1 / (x * x), d)

        return FnDescriptor(
            name="flat_bump",
            eval_enc=bump_eval,
            monotone_pieces=((None, Fraction(0), "decreasing"), (Fraction(0), None, "increasing")),
            bound=Fraction(1),
        )
    if name == "smooth_step":
        a, b = to_rational(params["a"]), to_rational(params["b"])
        if a >= b:
            raise ValueError("need a < b")

        def step_eval(x: Fraction, d: int) -> Enclosure:
            from certreal.powerseries import _exp_negative_shift, _exp_series

            if x <= a:
                return Enclosure.point(0)
            if x >= b:
                return Enclosure.point(1)
            # rise / (rise + fall) = 1 / (1 + e^q) with q = 1/(x-a) - 1/(b-x),
            # written through e^-|q| in (0, 1] so that no exp argument is
            # large and positive.  The larger of the value and its
            # complement is 1/(1 + e^-|q|) in [1/2, 1], bracketed from
            # integers alone: e^-|q| <= 1/p gives [p/(p+1), 1], and
            # N/D <= e^|q| <= H/G gives [N/(N+D), H/(H+G)].  Each end is
            # rounded outward once onto the 10^-(d+1) grid, so the
            # endpoints keep O(d) bits however large N, D, H and G grow.
            #
            # Width: 1/(p+1) < 1/p <= 10^-(d+1), and E |-> E/(E+1) has slope
            # 1/(E+1)^2 <= 1/4 on E >= 1 while H/G - N/D <= 10^-(d+1), so
            # the exact bracket is at most 10^-(d+1) wide; the two roundings
            # add at most 2·10^-(d+1), and 3·10^-(d+1) < 10^-d.  Integration
            # rounds onto 10^-d, and floor(floor(y·10^(d+1))/10) =
            # floor(y·10^d), so its sums are those of the exact bracket.
            q = 1 / (x - a) - 1 / (b - x)
            shift = _exp_negative_shift(abs(q.numerator), q.denominator, d + 1)
            if shift is not None:
                lo_num, lo_den, hi_num, hi_den = 1 << shift, (1 << shift) + 1, 1, 1
            else:
                lo_num, lo_den, hi_num, hi_den = _exp_series(abs(q.numerator), q.denominator, d + 1)
                lo_den += lo_num
                hi_den += hi_num
            if q > 0:  # the complement 1 - larger
                lo_num, lo_den, hi_num, hi_den = hi_den - hi_num, hi_den, lo_den - lo_num, lo_den
            scale = 10 ** (d + 1)
            return Enclosure(
                Fraction(lo_num * scale // lo_den, scale),
                Fraction(-(-hi_num * scale // hi_den), scale),
            )

        return FnDescriptor(
            name=f"smooth_step[{a},{b}]",
            eval_enc=step_eval,
            monotone="increasing",
            bound=Fraction(1),
            breakpoints=(a, b),
        )
    if name == "sawtooth":
        levels = int(params.get("levels", 12))
        series = SawtoothSeries(levels)
        return FnDescriptor(
            name=f"sawtooth[{levels}]",
            eval_rat=lambda x: series.partial_value(x, levels),
            bound=Fraction(4, 3),
            lipschitz=levels + 1,  # each layer has slope +-1
            antiderivative=FnDescriptor(
                name=f"integral of sawtooth[{levels}] from 0",
                eval_rat=series.partial_area,
            ),
        )
    raise ValueError(f"unknown gallery function {name!r}")


@dataclass(frozen=True)
class SawtoothSeries:
    """Partial sums of the scaled periodic-absolute-value layers.

    Layer n is the even, 2m-periodic distance-to-lattice wave with
    m = 4**-n, so 0 <= layer_n <= 4**-n everywhere and the truncation error
    of the full sum past level N is at most 4**-N / 3.
    """

    level_cap: int

    def __post_init__(self) -> None:
        if self.level_cap < 0:
            raise ValueError("level cap must be >= 0")

    @staticmethod
    def scale(n: int) -> Fraction:
        return Fraction(1, 4**n)

    def layer_value(self, n: int, x: RationalLike) -> Fraction:
        """Exact layer evaluation by argument reduction mod the period."""
        x = to_rational(x)
        m = self.scale(n)
        t = x % (2 * m)
        return t if t <= m else 2 * m - t

    def layer_area(self, n: int, x: RationalLike) -> Fraction:
        """Exact integral of layer n over [0, x] (signed for x < 0): m^2
        per whole period 2m, plus the area of the partial triangle."""
        m = self.scale(n)
        periods, t = divmod(to_rational(x), 2 * m)
        return periods * m * m + (t * t / 2 if t <= m else m * m - (2 * m - t) ** 2 / 2)

    def partial_value(self, x: RationalLike, upto: Optional[int] = None) -> Fraction:
        upto = self.level_cap if upto is None else upto
        if upto > self.level_cap:
            raise IndexError("level beyond cap")
        # At x = p/q layer n is r/(q 4^n), with r = p 4^n mod 2q folded to
        # 2q - r past q (`layer_value` in integers), so the sum is one
        # integer over q 4^upto: layer n carries the weight 4^(upto - n).
        x = to_rational(x)
        p, q = x.numerator, x.denominator
        total, residue = 0, p % (2 * q)
        for _ in range(upto + 1):
            total = 4 * total + (residue if residue <= q else 2 * q - residue)
            residue = 4 * residue % (2 * q)
        return Fraction(total, q * 4**upto)

    def partial_area(self, x: RationalLike) -> Fraction:
        """Exact integral of the partial sum through the cap over [0, x]."""
        return sum((self.layer_area(n, x) for n in range(self.level_cap + 1)), Fraction(0))

    @staticmethod
    def truncation_error(level: int) -> Fraction:
        return Fraction(1, 3 * 4**level)


@dataclass(frozen=True)
class QuotientRecord:
    """Difference quotients of the truncated sawtooth sum at one level.

    sides: "-" means the probe x_k = x0 - m_k/2, "+" the right probe; both
    appear when the lattice makes either side straight (the ambiguity is
    reported rather than resolved by fiat).
    """

    level: int
    sides: tuple[str, ...]
    quotients: tuple[Fraction, ...]


def nowhere_diff_quotients(
    ss: SawtoothSeries, x0: RationalLike, levels: int
) -> list[QuotientRecord]:
    """Difference quotients c_k of the level-k truncated sum at probes
    x0 +/- m_k/2, with the probe side chosen so every layer through level k
    is a straight slope +-1 segment on the probe interval.

    Each c_k is then a sum of k+1 values +-1: an integer whose parity
    alternates with k.  Dyadic x0 keeps every quantity exact.
    """
    x0 = to_rational(x0)
    if levels > ss.level_cap:
        raise ValueError("levels beyond the series cap")
    records: list[QuotientRecord] = []
    for k in range(levels + 1):
        cell = ss.scale(k)  # the level-k grid has cells of this length
        t = (x0 / cell) % 1
        left_ok = t == 0 or t >= Fraction(1, 2)
        right_ok = t <= Fraction(1, 2)
        sides: list[str] = []
        quotients: list[Fraction] = []
        probe_offset = cell / 2
        base = ss.partial_value(x0, k)
        if left_ok:
            sides.append("-")
            quotients.append((ss.partial_value(x0 - probe_offset, k) - base) / (-probe_offset))
        if right_ok:
            sides.append("+")
            quotients.append((ss.partial_value(x0 + probe_offset, k) - base) / probe_offset)
        # One side is always straight; both only on the half-lattice.
        assert sides and (len(sides) == 1 or t in (Fraction(0), Fraction(1, 2)))
        records.append(QuotientRecord(k, tuple(sides), tuple(quotients)))
    return records
