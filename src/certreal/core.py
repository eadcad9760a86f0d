"""Exact rationals, enclosures, function descriptors, and verdicts.

Everything in this module is an immutable value; all operations are pure.
Certified computations use `fractions.Fraction` exclusively.  Floats are
rejected at the boundary: callers must convert explicitly (a float is a
binary approximation, and silently promoting it would launder its error
into a "certified" result).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union

Rational = Fraction

RationalLike = Union[Fraction, int, str]


def to_rational(value: RationalLike) -> Fraction:
    """Coerce int / "p/q" / decimal string to an exact Fraction; a Fraction is returned as is.

    Floats are refused: pass a string (e.g. "1e-3") or a Fraction instead.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing to coerce float %r on a certified path; "
            "pass a Fraction or a decimal string" % (value,)
        )
    return Fraction(value)


def decimal_string(value: Fraction, digits: int) -> str:
    """Round-toward-zero decimal rendering with `digits` fractional digits."""
    return _decimal(value.numerator, value.denominator, digits)


def _decimal(num: int, den: int, digits: int) -> str:
    """`decimal_string` of num/den (den > 0, not necessarily reduced), in integers."""
    if digits < 0:
        raise ValueError("digits must be >= 0")
    whole, frac = divmod(abs(num) * 10**digits // den, 10**digits)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}" if digits else f"{sign}{whole}"


@dataclass(frozen=True)
class Enclosure:
    """An ordered pair [lo, hi] of rationals bracketing a real value."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", to_rational(self.lo))
        object.__setattr__(self, "hi", to_rational(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"enclosure endpoints out of order: {self.lo} > {self.hi}")

    @classmethod
    def point(cls, value: RationalLike) -> "Enclosure":
        value = to_rational(value)
        return cls(value, value)

    @classmethod
    def from_midrad(cls, mid: RationalLike, rad: RationalLike) -> "Enclosure":
        mid, rad = to_rational(mid), to_rational(rad)
        if rad < 0:
            raise ValueError("radius must be nonnegative")
        return cls(mid - rad, mid + rad)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, other: Union["Enclosure", RationalLike]) -> bool:
        if isinstance(other, Enclosure):
            return self.lo <= other.lo and other.hi <= self.hi
        other = to_rational(other)
        return self.lo <= other <= self.hi

    def intersect(self, other: "Enclosure") -> "Enclosure":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise ValueError(f"disjoint enclosures: {self} and {other}")
        return Enclosure(lo, hi)

    def widen(self, amount: RationalLike) -> "Enclosure":
        amount = to_rational(amount)
        if amount < 0:
            raise ValueError("widen amount must be nonnegative")
        return Enclosure(self.lo - amount, self.hi + amount)

    def __add__(self, other: Union["Enclosure", RationalLike]) -> "Enclosure":
        if not isinstance(other, Enclosure):
            other = Enclosure.point(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self) -> "Enclosure":
        return Enclosure(-self.hi, -self.lo)

    def __sub__(self, other: Union["Enclosure", RationalLike]) -> "Enclosure":
        if not isinstance(other, Enclosure):
            other = Enclosure.point(other)
        return self + (-other)

    def __rsub__(self, other: RationalLike) -> "Enclosure":
        return Enclosure.point(other) - self

    def scale(self, k: RationalLike) -> "Enclosure":
        k = to_rational(k)
        if k >= 0:
            return Enclosure(self.lo * k, self.hi * k)
        return Enclosure(self.hi * k, self.lo * k)

    def times(self, other: "Enclosure") -> "Enclosure":
        """Product enclosure, sound for all sign combinations."""
        products = [
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ]
        return Enclosure(min(products), max(products))

    def reciprocal(self) -> "Enclosure":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError(f"enclosure {self} straddles zero")
        return Enclosure(1 / self.hi, 1 / self.lo)

    def decimal(self, digits: int = 12) -> str:
        return "[%s, %s]" % (
            decimal_string(self.lo, digits),
            decimal_string(self.hi, digits),
        )

    def __str__(self) -> str:
        return self.decimal()


class Status(Enum):
    CONVERGES = "Converges"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Certificate:
    """The test that settled a verdict, with named witness values.

    machine_checked covers exactly the prefix facts this library verified;
    `asserted` lists the tail claims that remain the caller's contract.
    """

    test: str
    witnesses: dict
    machine_checked: bool = True
    asserted: tuple[str, ...] = ()
    detail: str = ""

    @classmethod
    def from_reduction(cls, inner: Certificate, test: str, witnesses: dict,
                       asserted: tuple[str, ...] = (), detail: str = "") -> Certificate:
        """A verdict read off another one: it is machine-checked only as far
        as `inner` is, and it assumes `asserted` and then all `inner` assumes."""
        return cls(test, witnesses, inner.machine_checked, asserted + inner.asserted, detail)


@dataclass(frozen=True)
class Verdict:
    """Three-valued convergence result with a named certificate.

    Invariants: a decisive status carries a certificate; a value enclosure
    is only present on CONVERGES.
    """

    status: Status
    certificate: Optional[Certificate] = None
    value: Optional[Enclosure] = None
    trace: tuple = ()

    def __post_init__(self) -> None:
        if self.status in (Status.CONVERGES, Status.DIVERGES) and self.certificate is None:
            raise ValueError(f"{self.status.value} verdict requires a certificate")
        if self.value is not None and self.status is not Status.CONVERGES:
            raise ValueError("value enclosure only allowed on a Converges verdict")


# --- function descriptors -------------------------------------------------

class MissingMetadataError(ValueError):
    """The descriptor lacks the structural claim a certified path needs."""


# A monotone piece (lo, hi, direction); None endpoints mean unbounded.
MonotonePiece = tuple[Optional[Fraction], Optional[Fraction], str]

_DIRECTIONS = ("increasing", "decreasing", "constant")


def _norm_pieces(pieces) -> Optional[tuple[MonotonePiece, ...]]:
    if pieces is None:
        return None
    out = []
    for lo, hi, direction in pieces:
        if direction not in _DIRECTIONS:
            raise ValueError(f"bad direction {direction!r}")
        out.append(
            (
                None if lo is None else to_rational(lo),
                None if hi is None else to_rational(hi),
                direction,
            )
        )
    return tuple(out)


def _cut_points(lo: Fraction, hi: Fraction, points) -> list[Fraction]:
    """lo, hi and the points strictly between them, sorted (None is skipped)."""
    return sorted({lo, hi} | {p for p in points if p is not None and lo < p < hi})


@dataclass(frozen=True)
class FnDescriptor:
    """A real function: an evaluation oracle plus structural metadata.

    Metadata claims (monotonicity, Lipschitz constant, bound, ...) are the
    caller's contract; they are trusted, not verified.  Operations that
    rely on a claim state so in their preconditions.  `spot_check_metadata`
    offers a debug-mode sanity scan.

    Monotone metadata is either one global `monotone` direction or
    `monotone_pieces`; `monotone_split` is the one reader of both, and
    every path that needs monotone pieces goes through it.

    Evaluation, three oracle kinds: `eval_rat` for exactly rational-valued
    functions; `eval_enc(x, digits)` for functions only available as
    enclosures of width <= 10**-digits; and `eval_grid(n, m, d)`, which
    returns integers (lo, hi) with lo 10**-d <= f(n/m) <= hi 10**-d, the
    floor and ceil of a bracket at most 10**-d wide (so hi - lo <= 2), for
    an oracle that computes on the decimal grid anyway: it takes and gives
    integers, and the Darboux point loop builds no Fraction for it.  The
    library's grid oracles are gallery flat_bump and smooth_step, the
    members of make_fn_sequence("xexp"), and ln|x|, the CLI's
    antiderivative of x^-1.
    `enclosure_at(x, digits)` asks a grid oracle at digits + 1, which keeps
    its width below 3 10**-(digits+1) < 10**-digits.  At least one must be
    present unless the descriptor is darboux-only (e.g. the
    rational-indicator function, which is used solely through its
    per-interval inf/sup rule).

    Three readers, `value_at`, `enclosure_at` and `grid_bounds`, are the
    only callers of the oracles.  Code outside this class may test which
    oracle exists (to pick a fast path), but reads values only through them.
    """

    name: str = ""
    eval_rat: Optional[Callable[[Fraction], Fraction]] = None
    eval_enc: Optional[Callable[[Fraction, int], Enclosure]] = None
    eval_grid: Optional[Callable[[int, int, int], tuple[int, int]]] = None
    monotone: Optional[str] = None
    monotone_pieces: Optional[tuple[MonotonePiece, ...]] = None
    lipschitz: Optional[Fraction] = None
    bound: Optional[Fraction] = None
    range_rule: Optional[Callable[[Fraction, Fraction], tuple[Fraction, Fraction]]] = None
    step_pieces: Optional[tuple[tuple[Fraction, Fraction, Fraction], ...]] = None
    point_values: tuple[tuple[Fraction, Fraction], ...] = ()
    breakpoints: tuple[Fraction, ...] = ()
    poly_coeffs: Optional[tuple[Fraction, ...]] = None
    derivative: Optional["FnDescriptor"] = None
    antiderivative: Optional["FnDescriptor"] = None
    darboux_only: bool = False
    domain_lo: Optional[Fraction] = None  # f is defined on [domain_lo, inf); None: everywhere
    singular: tuple[Fraction, ...] = ()  # the points where f is unbounded

    def __post_init__(self) -> None:
        if self.monotone is not None and self.monotone not in _DIRECTIONS:
            raise ValueError(f"bad monotone claim {self.monotone!r}")
        object.__setattr__(self, "monotone_pieces", _norm_pieces(self.monotone_pieces))
        if self.lipschitz is not None:
            object.__setattr__(self, "lipschitz", to_rational(self.lipschitz))
        if self.bound is not None:
            object.__setattr__(self, "bound", to_rational(self.bound))
        object.__setattr__(self, "breakpoints", tuple(to_rational(b) for b in self.breakpoints))
        if (self.eval_rat is None and self.eval_enc is None and self.eval_grid is None
                and not self.darboux_only):
            raise ValueError("descriptor needs an evaluation oracle (or darboux_only)")

    def value_at(self, x: RationalLike) -> Fraction:
        """Exact value; requires a rational-valued oracle."""
        x = to_rational(x)
        if self.eval_rat is None:
            raise MissingMetadataError(f"{self.name or 'function'} has no exact rational oracle")
        return to_rational(self.eval_rat(x))

    def enclosure_at(self, x: RationalLike, digits: int = 30) -> Enclosure:
        """Enclosure of f(x) of width <= 10**-digits (exact oracles: width 0)."""
        x = to_rational(x)
        if self.eval_rat is not None:
            return Enclosure.point(self.eval_rat(x))
        if self.eval_enc is not None:
            return self.eval_enc(x, digits)
        if self.eval_grid is not None:
            scale = 10 ** (digits + 1)
            lo, hi = self.eval_grid(x.numerator, x.denominator, digits + 1)
            return Enclosure(Fraction(lo, scale), Fraction(hi, scale))
        raise MissingMetadataError(f"{self.name or 'function'} is darboux-only; no point oracle")

    def grid_bounds(self, n: int, m: int, digits: int) -> tuple[int, int, Fraction | int]:
        """(lo, hi, off) with lo 10^-digits + off <= f(n/m) <= hi 10^-digits + off.

        An exact value off the 10^-digits grid comes back whole as off, with
        lo = hi = 0; any other value has off = 0, and lo, hi are the floor and
        ceil of its bounds on the grid (equal for an exact value on it).  A
        grid oracle's answer is always taken as bounds: it is asked at
        digits + 1, as `enclosure_at` asks it, and one digit is dropped by
        floor and ceil division by 10, with no Fraction:
        floor(floor(y 10^(digits+1))/10) = floor(y 10^digits), the integers
        `_grid_ends` gives for its enclosure.
        """
        if self.eval_grid is not None and self.eval_rat is None and self.eval_enc is None:
            lo, hi = self.eval_grid(n, m, digits + 1)
            return lo // 10, -(-hi // 10), 0
        if self.eval_rat is not None:
            lo = hi = self.eval_rat(Fraction(n, m))
        else:
            enclosure = self.enclosure_at(Fraction(n, m), digits)
            lo, hi = enclosure.lo, enclosure.hi
        scale = 10**digits
        if lo == hi and scale % lo.denominator:
            return 0, 0, lo
        lo, hi = _grid_ends(lo, hi, scale)
        return lo, hi, 0

    def with_meta(self, **changes) -> "FnDescriptor":
        return replace(self, **changes)

    def monotone_split(self, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction, str]]:
        """[lo, hi] cut at the monotone-piece boundaries inside it, as
        (u, v, direction) with the direction of a piece covering [u, v].

        Raises MissingMetadataError when there is no monotone metadata or
        when the pieces leave part of [lo, hi] uncovered.
        """
        pieces = self.monotone_pieces
        if pieces is None and self.monotone is not None:
            pieces = ((None, None, self.monotone),)
        if pieces is None:
            raise MissingMetadataError(
                f"{self.name or 'function'}: no monotone decomposition registered"
            )
        xs = _cut_points(lo, hi, [p for plo, phi, _ in pieces for p in (plo, phi)])
        out = []
        for u, v in zip(xs, xs[1:]):
            for plo, phi, direction in pieces:
                if (plo is None or plo <= u) and (phi is None or v <= phi):
                    out.append((u, v, direction))
                    break
            else:
                raise MissingMetadataError(
                    f"{self.name or 'function'}: monotone pieces do not cover [{u}, {v}]"
                )
        return out


def _horner(coeffs: Sequence[Fraction], p: int, q: int) -> tuple[int, int]:
    """(N, M) with sum c_i (p/q)^i = N/M for q > 0, by Horner's rule in
    integers: on the numerators c_i L (L the lcm of the coefficients'
    denominators), N = sum c_i L p^i q^(n-i) over M = L q^n (no
    coefficients: 0/1).  Neither p/q nor N/M need be reduced."""
    den = math.lcm(*(c.denominator for c in coeffs))
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c.numerator * (den // c.denominator) * qk
        qk *= q
    return acc, den * (qk // q or 1)


def _poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Horner evaluation of ascending coefficients at x, exactly: one Fraction."""
    return Fraction(*_horner(coeffs, x.numerator, x.denominator))


def _grid(a: Fraction, b: Fraction, n: int) -> tuple[int, int, int]:
    """(first, step, den) with a + (b - a)·i/n = (first + i·step)/den."""
    d = math.lcm(a.denominator, b.denominator)
    first = a.numerator * (d // a.denominator)
    return n * first, b.numerator * (d // b.denominator) - first, n * d


def _grid_points(a: Fraction, b: Fraction, n: int) -> list[Fraction]:
    """a + (b - a)·i/n for i = 0, ..., n, each one Fraction built from integers."""
    first, step, den = _grid(a, b, n)
    return [Fraction(first + i * step, den) for i in range(n + 1)]


def _poly_table(coeffs: Sequence[Fraction], first: int, step: int, den: int) -> tuple[list[int], int]:
    """([D^0 N(0), ..., D^n N(0)], M): the forward differences of the
    numerators N(i) of p((first + i·step)/den) over their common
    denominator M, from n + 1 Horner values (Knuth, TAOCP 4.6.4)."""
    values = [_horner(coeffs, first + i * step, den) for i in range(len(coeffs))]
    row, table = [n for n, _ in values], []
    while row:
        table.append(row[0])
        row = [y - x for x, y in zip(row, row[1:])]
    return table, values[0][1]


def _table_rows(table: list[int]) -> Iterator[int]:
    """N(0), N(1), ... from a `_poly_table`, stepped in place: D^n N is
    constant, so each further value costs n integer additions."""
    while True:
        yield table[0]
        for j in range(len(table) - 1):
            table[j] += table[j + 1]


def _quadratic_rational_roots(c0: Fraction, c1: Fraction, c2: Fraction):
    """Rational roots of c2 x^2 + c1 x + c0, or None if irrational."""
    disc = c1 * c1 - 4 * c2 * c0
    if disc < 0:
        return ()
    num_root = math.isqrt(disc.numerator)
    den_root = math.isqrt(disc.denominator)
    if num_root * num_root != disc.numerator or den_root * den_root != disc.denominator:
        return None
    root = Fraction(num_root, den_root)
    lo = (-c1 - root) / (2 * c2)
    hi = (-c1 + root) / (2 * c2)
    return (lo,) if lo == hi else tuple(sorted((lo, hi)))


def _poly_monotone_pieces(coeffs: tuple[Fraction, ...]):
    """Exact monotone pieces from the derivative's rational roots (degree of
    the derivative at most 2, or no real roots); None when undecidable."""
    deriv = tuple(coeffs[i] * i for i in range(1, len(coeffs)))
    while deriv and deriv[-1] == 0:
        deriv = deriv[:-1]
    if not deriv:
        direction = "constant"
        return ((None, None, direction),)

    def sign_between(lo, hi) -> str:
        # Derivative has constant sign on (lo, hi); probe one interior point.
        if lo is None and hi is None:
            probe = Fraction(0)
        elif lo is None:
            probe = hi - 1
        elif hi is None:
            probe = lo + 1
        else:
            probe = (lo + hi) / 2
        value = _poly_eval(deriv, probe)
        if value > 0:
            return "increasing"
        if value < 0:
            return "decreasing"
        return "constant"

    if len(deriv) == 1:
        return ((None, None, "increasing" if deriv[0] > 0 else "decreasing"),)
    # Even powers only with one-signed coefficients: globally one-signed.
    if all(c == 0 for c in deriv[1::2]) and deriv[0] != 0:
        evens = deriv[0::2]
        if all(c >= 0 for c in evens):
            return ((None, None, "increasing"),)
        if all(c <= 0 for c in evens):
            return ((None, None, "decreasing"),)
    if len(deriv) == 2:
        roots: Optional[tuple] = (-deriv[0] / deriv[1],)
    elif len(deriv) == 3:
        roots = _quadratic_rational_roots(deriv[0], deriv[1], deriv[2])
    else:
        return None
    if roots is None:
        return None
    cuts = [None, *roots, None]
    return tuple(
        (cuts[i], cuts[i + 1], sign_between(cuts[i], cuts[i + 1]))
        for i in range(len(cuts) - 1)
    )


def poly_descriptor(
    coeffs: Sequence[RationalLike],
    name: str = "",
    bound: Optional[RationalLike] = None,
    _with_children: bool = True,
) -> FnDescriptor:
    """Descriptor for a rational-coefficient polynomial (ascending coeffs).

    Ships exact evaluation, monotone pieces when the derivative's roots are
    rational, the derivative and an antiderivative (constant 0), so both
    Darboux machinery and root finding get certified metadata for free.
    """
    cs = tuple(to_rational(c) for c in coeffs)
    while len(cs) > 1 and cs[-1] == 0:
        cs = cs[:-1]
    derivative = antiderivative = None
    if _with_children and len(cs) > 1:
        derivative = poly_descriptor(
            tuple(cs[i] * i for i in range(1, len(cs))),
            name=f"d/dx {name}" if name else "",
        )
    if _with_children:
        anti = (Fraction(0),) + tuple(c / (i + 1) for i, c in enumerate(cs))
        antiderivative = poly_descriptor(anti, _with_children=False)
    return FnDescriptor(
        name=name or "poly",
        eval_rat=lambda x, _cs=cs: _poly_eval(_cs, x),
        monotone_pieces=_poly_monotone_pieces(cs),
        poly_coeffs=cs,
        bound=bound,
        derivative=derivative,
        antiderivative=antiderivative,
    )


def spot_check_metadata(
    f: FnDescriptor,
    lo: RationalLike,
    hi: RationalLike,
    samples: int = 64,
    seed: int = 0,
    digits: int = 20,
) -> list[str]:
    """Debug mode: probe monotone (global or piecewise) / Lipschitz / bound
    claims on a random grid.

    Returns a list of human-readable violation reports (empty = no violation
    found).  A clean run is evidence, not proof; the claims stay the
    caller's contract.
    """
    lo, hi = to_rational(lo), to_rational(hi)
    if hi <= lo:
        raise ValueError("need lo < hi")
    rng = random.Random(seed)
    span = hi - lo
    xs = sorted(lo + span * Fraction(rng.randrange(10**9), 10**9) for _ in range(samples))
    problems: list[str] = []
    vals = [f.enclosure_at(x, digits) for x in xs]
    # One view per monotone claim, each read through monotone_split.
    claims = []
    if f.monotone is not None:
        claims.append(f.with_meta(monotone_pieces=None))
    if f.monotone_pieces is not None:
        claims.append(f)
    for (x1, v1), (x2, v2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        for claim in claims:
            try:
                parts = claim.monotone_split(x1, x2)
            except MissingMetadataError as exc:
                problems.append(str(exc))
                continue
            # a pair straddling a piece boundary says nothing about either piece
            direction = parts[0][2] if len(parts) == 1 else None
            if direction == "increasing" and v1.lo > v2.hi:
                problems.append(f"monotone increasing violated between {x1} and {x2}")
            if direction == "decreasing" and v1.hi < v2.lo:
                problems.append(f"monotone decreasing violated between {x1} and {x2}")
        if f.lipschitz is not None:
            gap = abs(v1.midpoint() - v2.midpoint()) - v1.width() - v2.width()
            if gap > f.lipschitz * (x2 - x1):
                problems.append(f"Lipschitz {f.lipschitz} violated between {x1} and {x2}")
    if f.bound is not None:
        for x, v in zip(xs, vals):
            if abs(v.midpoint()) - v.width() > f.bound:
                problems.append(f"bound {f.bound} violated at {x}")
    return problems


# --- exact root bracketing -------------------------------------------------

def integer_nth_root(x: int, n: int) -> int:
    """Largest r with r**n <= x (x >= 0, n >= 1).  Exact integer Newton.

    Seed: with x = m * 2^s and m the top 64 bits of x, e = (log2 m + s)/n and
    r0 = floor(2^e) + 1, built from a 53-bit mantissa shifted left, so no
    float overflows at any size of x.  The float only places the start.

    Termination: write R = floor(x^(1/n)) and N(r) = ((n-1)r + x // r^(n-1))
    // n, which equals floor(((n-1)r + x/r^(n-1))/n).  By AM-GM that mean is
    at least x^(1/n) for every r > 0, so N(r) >= R whatever r is: after one
    unconditional step r >= R.  While r > R, r^n > x gives x/r^(n-1) < r,
    so N(r) < r; at r = R, N(r) >= r.  So r strictly decreases through
    integers >= R, and the first step that does not decrease it is taken at
    r = R.  Each step computes one power and one division.
    """
    if x < 0 or n < 1:
        raise ValueError("need x >= 0 and n >= 1")
    if x == 0:
        return 0
    if n == 1:
        return x
    if n == 2:
        return math.isqrt(x)
    shift = max(x.bit_length() - 64, 0)
    e = (math.log2(x >> shift) + shift) / n
    whole = math.floor(e)
    mantissa = int(2.0 ** (e - whole) * 2.0**52)  # 2^52 <= mantissa <= 2^53
    r = (mantissa << (whole - 52) if whole >= 52 else mantissa >> (52 - whole)) + 1
    r = ((n - 1) * r + x // r ** (n - 1)) // n
    while True:
        step = ((n - 1) * r + x // r ** (n - 1)) // n
        if step >= r:
            return r
        r = step


def sqrt_enclosure(q: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of sqrt(q) of width <= 10**-digits, via integer sqrt.

    This is decimal truncation: the lower endpoints reproduce the familiar
    1.4, 1.41, 1.414, ... approximations of sqrt(2).
    """
    return nth_root_enclosure(q, 2, digits)


def nth_root_enclosure(q: RationalLike, n: int, digits: int = 12) -> Enclosure:
    """Enclosure of q**(1/n) of width <= 10**-digits (q >= 0, n >= 1)."""
    q = to_rational(q)
    if q < 0:
        raise ValueError("even roots of negatives are undefined here")
    if q == 0:
        return Enclosure.point(0)
    scale = 10**digits
    radicand = q.numerator * q.denominator ** (n - 1) * scale**n
    s = integer_nth_root(radicand, n)
    den = q.denominator * scale
    if s**n == radicand:  # (s/den)^n = q: den^n q is the radicand
        return Enclosure.point(Fraction(s, den))
    return Enclosure(Fraction(s, den), Fraction(s + 1, den))


def _ceil_log10(c: int) -> int:
    """The least k >= 0 with 10^k >= c: asking an oracle for k more digits
    keeps its width below 10^-digits after a scaling by at most c."""
    return len(str(c - 1)) if c > 1 else 0


def _grid_ends(lo: Fraction, hi: Fraction, scale: Fraction | int) -> tuple[int, int]:
    """floor(lo·scale) and ceil(hi·scale), by integer division."""
    n, d = scale.numerator, scale.denominator
    return lo.numerator * n // (lo.denominator * d), -(-hi.numerator * n // (hi.denominator * d))


def _round_out(lo: Fraction, hi: Fraction, scale: Fraction | int) -> tuple[Fraction, Fraction]:
    """lo rounded down and hi rounded up to the grid of multiples of 1/scale."""
    floor_lo, ceil_hi = _grid_ends(lo, hi, scale)
    n, d = scale.numerator, scale.denominator
    return Fraction(floor_lo * d, n), Fraction(ceil_hi * d, n)


def rational_power_enclosure(x: RationalLike, exponent: RationalLike, digits: int = 12) -> Enclosure:
    """Enclosure of x**exponent for rational exponent p/q and x > 0, or
    x = 0 with a positive exponent (the point 0)."""
    x, exponent = to_rational(x), to_rational(exponent)
    if x < 0 or (x == 0 and exponent <= 0):
        raise ValueError("base must be positive")
    if x == 0:
        return Enclosure.point(0)
    if exponent.denominator > digits + 16:
        return _power_by_logarithm(x, exponent, digits)
    powered = x**exponent.numerator
    if exponent.denominator == 1:
        return Enclosure.point(powered)
    return nth_root_enclosure(powered, exponent.denominator, digits)


def _power_by_logarithm(x: Fraction, exponent: Fraction, digits: int) -> Enclosure:
    """x**exponent as exp(exponent ln x), of width <= 10**-digits.

    The q-th root of x^p takes a radicand of about 3.3 q digits bits; the
    cost of this route does not grow with q.
    """
    from certreal import powerseries as ps  # local import: core stays leaf-light

    # With s = exponent, x^s <= 2^m for m = ceil(|s| (|bits(num) -
    # bits(den)| + 1)).  y = s ln x, rounded outward onto the 10^-inner
    # grid, is at most (|s| + 2) 10^-inner wide, so e^(y.hi) <= 2 x^s and
    # the exp bracket is at most (2^(m+1) (|s| + 2) + 2) 10^-inner wide;
    # its outward rounding adds 2 10^-inner.  That is below c 10^-inner
    # <= 10^-(digits+1).
    span = abs(x.numerator.bit_length() - x.denominator.bit_length()) + 1
    m = -(-abs(exponent.numerator) * span // exponent.denominator)
    c = (1 << (m + 2)) * (-(-abs(exponent.numerator) // exponent.denominator) + 3)
    inner = digits + len(str(c)) + 1
    scale = 10**inner
    ln_x = ps.ln_enclosure(x, inner).scale(exponent)
    y = Enclosure(*_round_out(ln_x.lo, ln_x.hi, scale))
    power = ps.exp_enclosure_over(y, inner)
    return Enclosure(*_round_out(power.lo, power.hi, scale))


# --- certified elementary constants / functions (dispatch) ----------------

def approx_real(name: str, arg: Optional[RationalLike] = None, digits: int = 12) -> Enclosure:
    """Enclosure of width <= 10**-digits for a named elementary quantity.

    name is one of "sqrt", "exp", "ln", "sin", "cos" (unary, rational
    argument) or "pi" (no argument).  The heavy lifting lives in
    `certreal.powerseries`; this is only the dispatch point.
    """
    from certreal import powerseries as ps  # local import: core stays leaf-light

    if digits < 1:
        raise ValueError("digits must be >= 1")
    if name == "pi":
        if arg is not None:
            raise ValueError("pi takes no argument")
        return ps.pi_enclosure(digits)
    unary = {
        "sqrt": sqrt_enclosure,
        "exp": ps.exp_enclosure,
        "ln": ps.ln_enclosure,
        "sin": ps.sin_enclosure,
        "cos": ps.cos_enclosure,
    }
    if name not in unary:
        raise ValueError(f"unknown quantity {name!r}")
    if arg is None:
        raise ValueError(f"{name} needs an argument")
    return unary[name](to_rational(arg), digits)
