"""Term streams, finite-horizon limit detection, and tail-window statistics.

True tail infima/suprema are uncomputable from an evaluation oracle, so the
window statistics here are documented surrogates: the window minimum is an
OVER-approximation of the tail infimum (inf over a larger set is smaller),
and the window maximum an UNDER-approximation of the tail supremum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Union

from certreal.core import (
    Certificate,
    Enclosure,
    FnDescriptor,
    RationalLike,
    Status,
    Verdict,
    to_rational,
)


@dataclass(frozen=True)
class TaggedAngle:
    """Exact symbolic value sin(2*pi*turns) for rational turns.

    Used by the periodic sample streams so that exact examples stay exact:
    comparisons are decided by a fixed exact rule, never by rounding a
    float.  Two tags are equal iff their angles coincide or are mirror images
    about the vertical axis (turns + turns' = 1/2 mod 1); strict order is
    decided by separating certified enclosures.
    """

    turns: Fraction

    def __post_init__(self) -> None:
        t = to_rational(self.turns) % 1
        object.__setattr__(self, "turns", t)

    _EXACT = {
        Fraction(0): Fraction(0),
        Fraction(1, 2): Fraction(0),
        Fraction(1, 4): Fraction(1),
        Fraction(3, 4): Fraction(-1),
        Fraction(1, 12): Fraction(1, 2),
        Fraction(5, 12): Fraction(1, 2),
        Fraction(7, 12): Fraction(-1, 2),
        Fraction(11, 12): Fraction(-1, 2),
    }

    def exact(self) -> Optional[Fraction]:
        return self._EXACT.get(self.turns)

    def enclosure(self, digits: int = 25) -> Enclosure:
        exact = self.exact()
        if exact is not None:
            return Enclosure.point(exact)
        from certreal import powerseries as ps

        # sin(2*pi*t) = sin(pi * (2t)); evaluate via pi enclosure and the sine
        # series.  Sound: sin is 1-Lipschitz, so the pi-enclosure width
        # propagates additively.
        inner = digits + 4
        pi = ps.pi_enclosure(inner)
        theta_lo = pi.lo * 2 * self.turns
        theta_hi = pi.hi * 2 * self.turns
        angle_err = abs(theta_hi - theta_lo)
        mid = (theta_lo + theta_hi) / 2
        return ps.sin_enclosure(mid, inner).widen(angle_err)

    def _same_value(self, other: "TaggedAngle") -> bool:
        return self.turns == other.turns or (self.turns + other.turns) % 1 == Fraction(1, 2)

    def _cmp(self, other: Union["TaggedAngle", RationalLike]) -> int:
        if isinstance(other, TaggedAngle):
            if self._same_value(other):
                return 0
            mine, theirs = self.exact(), other.exact()
            if mine is not None and theirs is not None:
                return (mine > theirs) - (mine < theirs)
            other_enc = other.enclosure
        else:
            # Rational sine values at rational angles are exactly the table
            # entries, so a missing exact() means the value is irrational
            # and enclosure refinement must separate.
            other_val = to_rational(other)
            mine = self.exact()
            if mine is not None:
                return (mine > other_val) - (mine < other_val)
            other_enc = lambda digits: Enclosure.point(other_val)
        digits = 25
        while digits <= 400:
            a, b = self.enclosure(digits), other_enc(digits)
            if a.hi < b.lo:
                return -1
            if a.lo > b.hi:
                return 1
            digits *= 2
        raise ValueError(f"cannot separate {self} from {other}")

    def __lt__(self, other) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other) -> bool:
        return self._cmp(other) >= 0

    def __eq__(self, other) -> bool:
        if isinstance(other, TaggedAngle):
            return self._same_value(other)
        if isinstance(other, (Fraction, int)):
            return self.exact() == other
        return NotImplemented

    def __hash__(self) -> int:
        canonical = min(self.turns, (Fraction(1, 2) - self.turns) % 1)
        return hash(("sin2pi", canonical))

    def __repr__(self) -> str:
        return f"sin(2*pi*{self.turns})"


StreamValue = Union[Fraction, TaggedAngle]


@dataclass
class TermStream:
    """Deterministic indexed term generator n |-> value for n >= n0.

    Streams are immutable; the memo is an append-only cache of the pure
    generator, so concurrent evaluation of disjoint indices is safe.
    """

    gen: Callable[[int], StreamValue]
    n0: int = 1
    name: str = ""
    # Optional certified enclosure of the limit as a function of the scan
    # horizon (registered for families whose tail admits an exact bound).
    tail_enclosure: Optional[Callable[[int], Enclosure]] = None
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def term(self, n: int) -> StreamValue:
        if n < self.n0:
            raise IndexError(f"index {n} below start {self.n0}")
        if n not in self._memo:
            self._memo[n] = self.gen(n)
        return self._memo[n]

    def terms(self, upto: int) -> list[StreamValue]:
        return [self.term(n) for n in range(self.n0, upto + 1)]


def _recursive_sqrt2_term(memo: dict, n: int) -> Fraction:
    # a_1 = 1, a_{n+1} = (2 a_n + 2) / (a_n + 2); increasing, bounded by 2,
    # converging to sqrt(2).
    if 1 not in memo:
        memo[1] = Fraction(1)
    top = max(memo)
    a = memo[top]
    for k in range(top + 1, n + 1):
        a = (2 * a + 2) / (a + 2)
        memo[k] = a
    return memo[n]


def _sqrt2_tail(memo: dict, horizon: int) -> Enclosure:
    # a_n < sqrt(2), and sqrt(2) - a_n = (2 - a_n^2)/(sqrt(2) + a_n)
    #                                  <= (2 - a_n^2)/(2 a_n)  for a_n >= 1.
    a = _recursive_sqrt2_term(memo, horizon)
    return Enclosure(a, a + (2 - a * a) / (2 * a))


def make_named(family: str, **params) -> TermStream:
    """Construct one of the named sequence families.

    Families: harmonic, geometric (r), recursive_sqrt2, euler_pow,
    alt_harmonic, sin_rational (q <= 12), constant (c), custom (gen, n0).
    All rational-valued families produce exact terms.
    """
    if family == "harmonic":
        return TermStream(lambda n: Fraction(1, n), 1, "harmonic")
    if family == "geometric":
        r = to_rational(params["r"])
        return TermStream(lambda n: r**n, 1, f"geometric(r={r})")
    if family == "recursive_sqrt2":
        memo: dict = {}
        return TermStream(
            lambda n: _recursive_sqrt2_term(memo, n),
            1,
            "recursive_sqrt2",
            tail_enclosure=lambda horizon: _sqrt2_tail(memo, horizon),
        )
    if family == "euler_pow":
        return TermStream(lambda n: (1 + Fraction(1, n)) ** n, 1, "euler_pow")
    if family == "alt_harmonic":
        return TermStream(lambda n: Fraction((-1) ** (n - 1), n), 1, "alt_harmonic")
    if family == "sin_rational":
        q = int(params["q"])
        if q == 0:
            raise ValueError("q must be nonzero")
        if not 1 <= q <= 12:
            raise ValueError("sin_rational supports denominators 1 <= q <= 12")
        return TermStream(lambda n: TaggedAngle(Fraction(n, q)), 1, f"sin_rational(q={q})")
    if family == "constant":
        c = to_rational(params["c"])
        return TermStream(lambda n: c, params.get("n0", 1), f"constant({c})")
    if family == "custom":
        return TermStream(params["gen"], params.get("n0", 1), params.get("name", "custom"))
    raise ValueError(f"unknown family {family!r}")


def partial_sum_stream(s: TermStream, name: str = "") -> TermStream:
    """Stream of partial sums s_n = sum of terms from n0 through n."""
    sums: dict[int, Fraction] = {}

    def gen(n: int) -> Fraction:
        top = max(sums) if sums else s.n0 - 1
        acc = sums.get(top, Fraction(0))
        for k in range(top + 1, n + 1):
            acc = acc + s.term(k)
            sums[k] = acc
        return sums[n]

    return TermStream(gen, s.n0, name or f"partial_sums({s.name})")


@dataclass(frozen=True)
class WindowStats:
    """Exact min/max over the finite index window [n, n+W].

    inf_tail_window OVER-estimates the true tail infimum and
    sup_tail_window UNDER-estimates the true tail supremum; both are
    attained at the recorded indices.
    """

    n: int
    W: int
    inf_tail_window: StreamValue
    sup_tail_window: StreamValue
    argmin: int
    argmax: int


def limsup_liminf_window(s: TermStream, n: int, W: int) -> WindowStats:
    if W < 1:
        raise ValueError("window length must be >= 1")
    if n < s.n0:
        raise ValueError(f"window start {n} below stream start {s.n0}")
    lo_idx = hi_idx = n
    lo_val = hi_val = s.term(n)
    for k in range(n + 1, n + W + 1):
        v = s.term(k)
        if v < lo_val:
            lo_val, lo_idx = v, k
        if v > hi_val:
            hi_val, hi_idx = v, k
    return WindowStats(n, W, lo_val, hi_val, lo_idx, hi_idx)


def detect_limit(
    s: TermStream,
    mode: str,
    horizon: int,
    eps: Optional[RationalLike] = None,
    bound: Optional[RationalLike] = None,
    monotone: Optional[str] = None,
) -> Verdict:
    """Finite-horizon limit detection.

    mode "monotone_certified": the caller asserts the direction of
    monotonicity and a bound on the far side; the returned enclosure is
    certified under that contract (the prefix is machine-checked, the tail
    claim remains the caller's).  Registered families with an exact tail
    bound tighten the enclosure.

    mode "cauchy_window": purely empirical; reports the observed
    oscillation of the window [horizon/2, horizon] and never returns
    Diverges (absence of evidence is not evidence).
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "monotone_certified":
        if monotone not in ("increasing", "decreasing") or bound is None:
            raise ValueError("monotone_certified needs monotone direction and a bound")
        bound = to_rational(bound)
        prefix = s.terms(max(horizon, s.n0))
        if monotone == "increasing":
            ok = all(a <= b for a, b in zip(prefix, prefix[1:]))
        else:
            ok = all(a >= b for a, b in zip(prefix, prefix[1:]))
        if not ok:
            raise ValueError("prefix violates the asserted monotonicity")
        last = prefix[-1]
        if monotone == "increasing":
            if last > bound:
                raise ValueError("prefix exceeds the asserted upper bound")
            enclosure = Enclosure(last, bound)
        else:
            if last < bound:
                raise ValueError("prefix falls below the asserted lower bound")
            enclosure = Enclosure(bound, last)
        if s.tail_enclosure is not None:
            enclosure = enclosure.intersect(s.tail_enclosure(horizon))
        cert = Certificate(
            "monotone_convergence",
            {"horizon": horizon, "bound": bound, "last_term": last},
            asserted=(f"monotone {monotone} beyond horizon", "bound holds for all n"),
        )
        return Verdict(Status.CONVERGES, cert, enclosure)
    if mode == "cauchy_window":
        if eps is None:
            raise ValueError("cauchy_window needs eps")
        eps = to_rational(eps)
        start = max(s.n0, horizon // 2)
        stats = limsup_liminf_window(s, start, max(1, horizon - start))
        lo, hi = stats.inf_tail_window, stats.sup_tail_window
        oscillation = hi - lo if isinstance(hi, Fraction) and isinstance(lo, Fraction) else None
        witnesses = {
            "window_start": start,
            "window_end": horizon,
            "oscillation": oscillation,
            "eps": eps,
        }
        if oscillation is not None and oscillation < eps:
            cert = Certificate("cauchy_window", witnesses, machine_checked=False)
            return Verdict(Status.CONVERGES, cert, None, trace=("empirical",))
        return Verdict(Status.INCONCLUSIVE, None, None, trace=(("cauchy_window", witnesses),))
    raise ValueError(f"unknown mode {mode!r}")


def second_symmetric_quotient(f: FnDescriptor, x0: RationalLike, h: RationalLike) -> Fraction:
    """(f(x0+h) + f(x0-h) - 2 f(x0)) / h**2, exact for rational-valued f.

    Converges to the second derivative as h -> 0 when f is twice
    continuously differentiable at x0.
    """
    x0, h = to_rational(x0), to_rational(h)
    if h == 0:
        raise ValueError("h must be nonzero")
    return (f.value_at(x0 + h) + f.value_at(x0 - h) - 2 * f.value_at(x0)) / (h * h)
