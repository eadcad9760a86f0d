import gc
import tracemalloc
from fractions import Fraction as F
from math import factorial, lcm

import pytest
from hypothesis import given, settings, strategies as st
from certreal import series
from certreal.core import Enclosure, FnDescriptor, Status
from certreal.powerseries import constants, exp_enclosure, ln_enclosure, pi_enclosure
from certreal.sequences import TermStream
from certreal.series import (
    DEFAULT_POLICY,
    SignClassExhausted,
    _TESTS,
    _root_scan,
    _signed_sum,
    alternating_sum_with_bound,
    classify,
    make_product,
    make_series,
    product_converges,
    product_log_series_verdict,
    ratio_root_scan,
    rearrange_pattern,
    rearrange_riemann,
)
from conftest import fractions_built, held_bytes


def test_partial_sum_examples():
    half_powers = make_series("geometric", a=F(1, 2), r=F(1, 2))
    assert half_powers.partial_sum(5) == F(31, 32)
    assert half_powers.partial_sum(1) == F(1, 2)
    alt = make_series("alt_harmonic")
    assert alt.partial_sum(4) == 1 - F(1, 2) + F(1, 3) - F(1, 4) == F(7, 12)


def test_geometric_closed_form_identity():
    a, r = F(2, 3), F(2, 3)
    handle = make_series("geometric", a=a, r=r)
    total = a / (1 - r)
    for n in (1, 2, 5, 17, 40):
        assert total == handle.partial_sum(n) + a * r**n / (1 - r)


def test_classification_table():
    assert classify(make_series("geometric", a=F(2, 3), r=F(2, 3))).status is Status.CONVERGES
    verdict = classify(make_series("geometric", a=F(2, 3), r=F(2, 3)))
    assert verdict.value == Enclosure.point(2)
    for r in (1, -1, 2):
        assert classify(make_series("geometric", a=1, r=F(r))).status is Status.DIVERGES
    outcomes = {F(1, 2): Status.DIVERGES, F(1): Status.DIVERGES,
                F(2): Status.CONVERGES, F(3): Status.CONVERGES}
    for p, status in outcomes.items():
        assert classify(make_series("p_series", p=p)).status is status
    assert classify(make_series("factorial_power", x=1)).status is Status.DIVERGES
    assert classify(make_series("factorial_power", x=F(1, 10))).status is Status.DIVERGES
    assert classify(make_series("two_pow_over_three_pow_minus_one")).status is Status.CONVERGES


def test_classify_trace_retained():
    verdict = classify(make_series("p_series", p=2))
    attempted = [test for test, _ in verdict.trace]
    assert attempted[:3] == ["nth_term", "geometric", "p_series"]
    with pytest.raises(ValueError):
        classify(make_series("harmonic"), policy=())


def test_harmonic_diverges_certified():
    verdict = classify(make_series("harmonic"))
    assert verdict.status is Status.DIVERGES
    assert verdict.certificate.test == "p_series"


def test_alternating_bound_ln2():
    magnitudes = TermStream(lambda k: F(1, k), 1)
    enc = alternating_sum_with_bound(magnitudes, 10**4)
    assert enc.width() <= F(2, 10**4 + 1)
    assert enc.contains(ln_enclosure(2, 20))


def test_alternating_bound_pi_quarter():
    magnitudes = TermStream(lambda k: F(1, 2 * k - 1), 1)
    enc = alternating_sum_with_bound(magnitudes, 10**4)
    assert enc.contains(pi_enclosure(20).scale(F(1, 4)))


def test_alternating_bound_zero_stream():
    zeros = TermStream(lambda k: F(0), 1)
    assert alternating_sum_with_bound(zeros, 100) == Enclosure.point(0)


def test_alternating_bound_rejects_violations():
    wobble = TermStream(lambda k: F(1, k) if k != 5 else F(2), 1)
    with pytest.raises(ValueError, match="index 5"):
        alternating_sum_with_bound(wobble, 10)


def _reference_alternating_sum(b, n):
    """The Fraction loop that the integer loop of `alternating_sum_with_bound`
    replaced, kept as the reference for its enclosures and its errors."""
    if n < 1:
        raise ValueError("need at least one term")
    previous = None
    total = F(0)
    even_sum = odd_sum = None
    for k in range(1, n + 1):
        bk = b.term(b.n0 + k - 1)
        if not isinstance(bk, F):
            raise ValueError("alternating bound needs exact rational magnitudes")
        if bk < 0:
            raise ValueError(f"magnitude term b_{k} = {bk} is negative")
        if previous is not None and bk > previous:
            raise ValueError(f"magnitudes increase at index {k}: {previous} -> {bk}")
        previous = bk
        total += bk if k % 2 == 1 else -bk
        if k % 2 == 0:
            even_sum = total
        else:
            odd_sum = total
    tail = b.term(b.n0 + n)
    if not isinstance(tail, F) or tail < 0 or tail > previous:
        raise ValueError("tail magnitude violates the decreasing contract")
    bracket = Enclosure(total - tail, total + tail)
    if even_sum is not None and odd_sum is not None:
        bracket = bracket.intersect(Enclosure(even_sum, odd_sum))
    return bracket


_MAGNITUDE_STREAMS = {
    "inv": lambda k: F(1, k),
    "inv_odd": lambda k: F(1, 2 * k - 1),
    "inv_sq": lambda k: F(1, k * k),
    "inv_factorial": lambda k: F(1, factorial(k)),
}


def _outcome(alternating_sum, values):
    """The enclosure of the alternating sum of values[:-1] with tail
    values[-1], or the text of the ValueError it raises."""
    try:
        enc = alternating_sum(TermStream(lambda k: values[k - 1], 1), len(values) - 1)
    except ValueError as exc:
        return str(exc)
    return enc.lo, enc.hi


@settings(deadline=None)
@given(st.sampled_from(sorted(_MAGNITUDE_STREAMS)), st.integers(min_value=1, max_value=400))
def test_alternating_sum_matches_fraction_loop_on_named_streams(name, n):
    values = [_MAGNITUDE_STREAMS[name](k) for k in range(1, n + 2)]
    assert _outcome(alternating_sum_with_bound, values) == _outcome(_reference_alternating_sum, values)


@settings(deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=10, max_denominator=10**6), min_size=2,
                max_size=401),
       st.sampled_from(["none", "negative", "increase", "float", "tail above", "tail float"]),
       st.data())
def test_alternating_sum_matches_fraction_loop_and_its_errors(values, fault, data):
    # non-increasing rationals, then at most one fault: the same enclosure,
    # or the same ValueError text, as the Fraction loop
    values = sorted(values, reverse=True)
    i = data.draw(st.integers(min_value=0, max_value=len(values) - 2))
    if fault == "negative":
        values[i] = -values[i] - F(1, 7)
    elif fault == "increase":
        values[i + 1] = values[i] + F(1, 3)
    elif fault == "float":
        values[i] = float(values[i])
    elif fault == "tail above":
        values[-1] = values[-2] + 1
    elif fault == "tail float":
        values[-1] = float(values[-1])
    expected = _outcome(_reference_alternating_sum, values)
    assert _outcome(alternating_sum_with_bound, values) == expected
    if fault != "none":
        assert isinstance(expected, str)


def test_alternating_sum_builds_fractions_for_its_terms_and_ends():
    # a machine-independent counter: the n + 1 terms of the stream, then
    # S_n, S_(n-1) and the bracket; the Fraction loop built 7,629 for
    # ln 2 at n = 3,050
    for name in _MAGNITUDE_STREAMS:
        for n in (1, 2, 50, 3050 if name != "inv_factorial" else 300):
            with fractions_built() as built:
                alternating_sum_with_bound(TermStream(_MAGNITUDE_STREAMS[name], 1), n)
            assert built.count <= n + 8, (name, n, built.count)


# the leaf size 16 of the binary splitting, its neighbours, and deeper splits
_SPLIT_SIZES = (15, 16, 17, 31, 32, 33, 1023, 1024, 1025, 3050)


@pytest.mark.parametrize("n", (1, 2) + _SPLIT_SIZES)
def test_alternating_sum_matches_fraction_loop_across_splits(n):
    for name, magnitude in _MAGNITUDE_STREAMS.items():
        values = [magnitude(k) for k in range(1, n + 2)]
        expected = _outcome(_reference_alternating_sum, values)
        assert _outcome(alternating_sum_with_bound, values) == expected, (name, n)


@pytest.mark.parametrize("n", (1, 2, 15, 16, 17, 33, 1025))
def test_signed_sum_denominator_is_the_lcm(n):
    for name, magnitude in _MAGNITUDE_STREAMS.items():
        values = [magnitude(k) for k in range(1, n + 1)]
        dens = [v.denominator for v in values]
        assert _signed_sum([v.numerator for v in values], dens, 0, n)[1] == lcm(*dens), (name, n)


def test_constants_match_the_checked_alternating_sum():
    streams = {"ln2": lambda k: F(1, k), "pi_over_4": lambda k: F(1, 2 * k - 1)}
    for which, magnitude in streams.items():
        for n in list(range(1, 301)) + [3050]:
            expected = alternating_sum_with_bound(TermStream(magnitude, 1), n)
            assert constants(which, n) == expected, (which, n)


def test_constants_build_no_fraction_per_term():
    # the Fraction loop built 3,075 (ln2) and 3,055 (pi_over_4) at n = 3,050
    for which in ("ln2", "pi_over_4"):
        with fractions_built() as built:
            constants(which, 3050)
        assert built.count <= 16, (which, built.count)


def _alt_harmonic_then(bad_term):
    """(-1)**(n-1)/n at every n except n = 11, where the term is bad_term."""
    return make_series("custom", gen=lambda n: bad_term if n == 11 else F((-1) ** (n - 1), n))


@pytest.mark.parametrize("bad_term,note", [
    (F(5), "term 11 = 5 is larger in magnitude than term 10"),
    (F(3, 20), "term 11 = 3/20 is larger in magnitude than term 10"),
    (F(-1, 11), "term 11 = -1/11 breaks the sign pattern"),
    (0.5, "term 11 is not an exact rational"),
])
def test_alternating_test_checks_the_term_after_the_horizon(bad_term, note):
    handle = _alt_harmonic_then(bad_term)
    verdict = classify(handle, ("alternating",), horizon=10)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.trace == (("alternating", note),)
    # the default policy goes on to the root and ratio tests instead of raising
    tests = [test for test, _ in classify(_alt_harmonic_then(bad_term), horizon=10).trace]
    assert tests[tests.index("alternating") + 1:] == ["root", "ratio"]


def test_alternating_test_accepts_an_equal_term_after_the_horizon():
    verdict = classify(_alt_harmonic_then(F(1, 10)), ("alternating",), horizon=10)
    assert verdict.status is Status.CONVERGES
    assert verdict.value.width() <= F(2, 10)


def test_alternating_test_sums_the_prefix_it_reads_once(monkeypatch):
    reads = []
    term = TermStream.term
    monkeypatch.setattr(TermStream, "term", lambda self, n: reads.append(n) or term(self, n))
    verdict = classify(make_series("alt_harmonic"), ("alternating",), horizon=10)
    assert sorted(reads) == list(range(1, 12))
    assert verdict.value == alternating_sum_with_bound(TermStream(lambda k: F(1, k), 1), 10)


def test_ratio_root_scan_examples():
    scan = ratio_root_scan(make_series("exp_terms", x=1), 100)
    assert scan["ratio_window"].hi <= F(1, 100 // 2 + 1)
    geo = ratio_root_scan(make_series("geometric", a=1, r=F(3, 5)), 64)
    assert geo["ratio_window"] == Enclosure(F(3, 5), F(3, 5))

    handle = make_series("two_pow_over_three_pow_minus_one")
    scan = ratio_root_scan(handle, 100)
    window = scan["ratio_window"]
    assert abs(window.lo - F(2, 3)) < F(1, 10**6)
    assert abs(window.hi - F(2, 3)) < F(1, 10**6)
    # brute-force oracle over the same index range
    lo_idx, hi_idx = scan["scan_range"]
    ratios = [abs(handle.term(n + 1) / handle.term(n)) for n in range(lo_idx, hi_idx)]
    assert window == Enclosure(min(ratios), max(ratios))


def test_ratio_scan_zero_term_reported():
    gappy = make_series("custom", gen=lambda n: F(0) if n == 60 else F(1, n), n0=1)
    with pytest.raises(ZeroDivisionError, match="60"):
        ratio_root_scan(gappy, 100)


def test_root_scan_radicands_stay_digit_sized(monkeypatch):
    # exp_terms at x = 1/2 has |a_n| = 1/(2^n n!), whose denominator has
    # about n log2 n bits; rooting |a_n| on its own grid took radicands of
    # millions of bits at horizon 512 and ran past any budget.
    calls = []
    root = series.integer_nth_root
    monkeypatch.setattr(series, "integer_nth_root",
                        lambda x, n: calls.append((x, n)) or root(x, n))
    handle = make_series("exp_terms", x=F(1, 2))
    verdict = classify(handle, policy=("root",), horizon=512)
    assert verdict.status is Status.CONVERGES
    assert sorted(n for _, n in calls) == list(range(256, 513))
    for radicand, n in calls:
        a_n = abs(handle.term(n))
        digits_bits = (10 ** (n * 12) - 1).bit_length()  # ceil(12 n log2 10)
        ceil_a_n = -(-a_n.numerator // a_n.denominator)
        assert radicand.bit_length() <= digits_bits + max(0, ceil_a_n.bit_length()) + 1


_ROOT_FAMILIES = ("exp_terms", "factorial_power", "geometric", "inv_square",
                  "two_pow_over_three_pow_minus_one")
_SIGNED_QUARTERS = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=12).flatmap(
    lambda x: st.sampled_from((x, -x)))


@settings(deadline=None, max_examples=60)
@given(family=st.sampled_from(_ROOT_FAMILIES), x=_SIGNED_QUARTERS, a=_SIGNED_QUARTERS,
       horizon=st.integers(2, 101), digits=st.integers(1, 20))
def test_root_scan_brackets_contain_the_root_on_the_digit_grid(family, x, a, horizon, digits):
    mpmath = pytest.importorskip("mpmath")
    params = {"exp_terms": {"x": x}, "factorial_power": {"x": x},
              "geometric": {"a": a, "r": x}}.get(family, {})
    handle = make_series(family, **params)
    (lo, hi), brackets = _root_scan(handle, horizon, digits)
    indices = range(max(lo, 1), hi + 1)
    assert len(brackets) == len(indices)
    slack = mpmath.mpf(10) ** -50
    with mpmath.workdps(60):
        for n, bracket in zip(indices, brackets):
            assert bracket.width() in (0, F(1, 10**digits))
            assert (bracket.lo * 10**digits).denominator == 1
            a_n = abs(handle.term(n))
            ref = mpmath.root(mpmath.mpf(a_n.numerator) / a_n.denominator, n)
            assert mpmath.mpf(bracket.lo.numerator) / bracket.lo.denominator - slack <= ref
            assert ref <= mpmath.mpf(bracket.hi.numerator) / bracket.hi.denominator + slack


@pytest.mark.parametrize("offset, expected", [
    (0, Enclosure.point(F(7, 10))),
    (-1, Enclosure(F(69, 100), F(7, 10))),
    (1, Enclosure(F(7, 10), F(71, 100))),
])
def test_root_scan_at_a_grid_point(offset, expected):
    # |a_n| = (7/10)^n exactly, a hair below it and a hair above it: the
    # root is the grid point 7/10 itself, or lies just below or just above
    handle = make_series("custom", gen=lambda n: F(7, 10) ** n + offset * F(1, 10 ** (3 * n)),
                         n0=1)
    _, brackets = _root_scan(handle, 8, 2)
    assert brackets == [expected] * 5


@pytest.mark.parametrize("family", ["harmonic", "inv_square"])
@pytest.mark.parametrize("horizon", [32, 64, 128])
def test_root_trend_guard_refuses_on_the_digit_grid(family, horizon):
    # the values climb toward 1 in both: a window below 1 - delta must not
    # certify convergence of the harmonic series
    verdict = classify(make_series(family), policy=("root",), horizon=horizon)
    assert verdict.status is Status.INCONCLUSIVE
    (test, note), = verdict.trace
    assert test == "root" and "trend rising" in note


def test_a_scan_result_holds_few_bytes():
    # A result keeps its windows and range; the per-index ratios and root
    # brackets it kept before held 30 KB at horizon 128.
    result, held = held_bytes(
        lambda: ratio_root_scan(make_series("two_pow_over_three_pow_minus_one"), 128))
    assert result["scan_range"] == (64, 128)
    assert held <= 2 * 1024, held


def _greedy_oracle(handle, target, steps):
    # Independent re-implementation: alternate sign classes greedily.
    order = []
    total = F(0)
    pos_idx, neg_idx = [], []
    n = handle.n0
    want_positive = True
    while len(order) < steps:
        value = handle.term(n)
        (pos_idx if value >= 0 else neg_idx).append((n, value))
        n += 1
        while len(order) < steps:
            queue = pos_idx if want_positive else neg_idx
            if not queue:
                break
            idx, term = queue.pop(0)
            total += term
            order.append(idx)
            if (want_positive and total > target) or (not want_positive and total < target):
                want_positive = not want_positive
    return order


def test_rearrange_riemann_matches_brute_force():
    alt = make_series("alt_harmonic")
    for target in (F(1, 4), F(7, 12)):
        result = rearrange_riemann(alt, target, 200)
        assert list(result.indices) == _greedy_oracle(make_series("alt_harmonic"), target, 200)


def test_rearrange_riemann_flip_overshoot_property():
    alt = make_series("alt_harmonic")
    result = rearrange_riemann(alt, F(1, 4), 2000)
    assert result.flips
    for flip in result.flips:
        assert flip.distance_to_target <= abs(flip.term)


def _blocks_of_three(n):
    # two positive terms, then a larger negative one: both sign classes
    # diverge, and the series converges conditionally
    return F(1, n) if n % 3 else F(-2, n)


_REARRANGED_SERIES = {
    "alt_harmonic": lambda: make_series("alt_harmonic"),
    "custom": lambda: make_series("custom", gen=_blocks_of_three, n0=5),
}


def _rearrangement_reference(gen, n0, steps, pattern=None, target=None):
    """Plain loop: each sign class read by its own index pointer; the
    greedy walk's flips as (step, index, term, sum, distance)."""
    next_index = {True: n0, False: n0}
    indices, sums, flips = [], [], []
    total, positive = F(0), True
    for step in range(1, steps + 1):
        n = next_index[positive]
        while (gen(n) >= 0) != positive:
            n += 1
        next_index[positive] = n + 1
        term = gen(n)
        total += term
        indices.append(n)
        sums.append(total)
        if pattern is not None:
            positive = step % sum(pattern) < pattern[0]
        elif total > target if positive else total < target:
            flips.append((step, n, term, total, abs(total - target)))
            positive = not positive
    return indices, sums, flips


@settings(deadline=None, max_examples=60)
@given(name=st.sampled_from(sorted(_REARRANGED_SERIES)), steps=st.integers(1, 300),
       pattern=st.none() | st.tuples(st.integers(1, 4), st.integers(1, 4)),
       target=st.fractions(-2, 2, max_denominator=50))
def test_replayed_rearrangement_equals_the_reference_loop(name, steps, pattern, target):
    handle = _REARRANGED_SERIES[name]()
    if pattern is None:
        result = rearrange_riemann(handle, target, steps)
    else:
        result = rearrange_pattern(handle, *pattern, steps)
        target = None
    indices, sums, flips = _rearrangement_reference(
        handle.terms.gen, handle.n0, steps, pattern, target)
    assert result.indices == tuple(indices)
    assert result.partial_sums == tuple(sums)
    assert [(f.step, f.index, f.term, f.partial_sum, f.distance_to_target)
            for f in result.flips] == flips
    assert result.last_sums == tuple(sums[-3:])
    if pattern is None:
        assert result.flip_count == len(flips)
        assert result.max_flip_distance == max((f[4] for f in flips), default=None)
    else:
        assert result.flip_count is None and result.max_flip_distance is None


@pytest.mark.parametrize("name", sorted(_REARRANGED_SERIES))
@pytest.mark.parametrize("rule", ["pattern", "riemann"])
def test_a_rearrangement_result_holds_few_bytes(name, rule):
    # A result keeps its last three partial sums and the flip summary, and
    # replays the per-step values; 1,500 steps of alt_harmonic kept 0.71 MB
    # (pattern) and 1.26 MB (riemann) when every sum was stored.
    def run():
        handle = _REARRANGED_SERIES[name]()
        if rule == "pattern":
            return rearrange_pattern(handle, 2, 1, 1500)
        return rearrange_riemann(handle, F(1, 4), 1500)

    run()  # warm whatever the first call allocates once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
        assert len(result.partial_sums) == 1500
        assert rule == "pattern" or len(result.flips) == result.flip_count > 0
        gc.collect()
        held_after_reads = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 32 * 1024, held
    assert held_after_reads <= 32 * 1024, held_after_reads


def test_rearrange_exhaustion_reported():
    positives = make_series("custom", gen=lambda n: F(1, n), n0=1)
    with pytest.raises(SignClassExhausted):
        rearrange_riemann(positives, F(1, 2), 10, scan_cap=50)


def test_rearrange_pattern_three_halves_ln2():
    alt = make_series("alt_harmonic")
    steps = 3 * 2000
    result = rearrange_pattern(alt, 2, 1, steps)
    target = ln_enclosure(2, 20).scale(F(3, 2))
    assert abs(result.partial_sums[-1] - target.midpoint()) < F(1, 1000)


def test_absolutely_convergent_rearrangement_same_sum():
    # sum (-1)^(n-1)/n^2 converges absolutely; a fixed-pattern rearrangement
    # must land in the same alternating-series enclosure.
    alt_sq = make_series("alt_inv_square")
    enc = alternating_sum_with_bound(TermStream(lambda k: F(1, k * k), 1), 2000)
    rearranged = rearrange_pattern(alt_sq, 2, 1, 6000)
    tail_slack = F(1, 2000)  # bound on the rearranged tail past the window
    assert enc.widen(tail_slack).contains(rearranged.partial_sums[-1])
    verdict = classify(alt_sq, DEFAULT_POLICY + ("abs_convergence",))
    assert verdict.status is Status.CONVERGES


def test_integral_test_bridge_exact():
    # f(n+1) <= s_n - integral_1^n f <= a_1 for f(x) = 1/x^2, exactly.
    handle = make_series("inv_square")
    for n in (10, 100):
        s_n = handle.partial_sum(n)
        integral = 1 - F(1, n)  # exact antiderivative -1/x
        assert F(1, (n + 1) ** 2) <= s_n - integral <= 1


def test_product_partial_identities():
    prod = make_product("one_minus_inv_sq")
    for n in (2, 5, 10, 50):
        assert prod.partial_product(n) == F(n + 1, 2 * n)
    grows = make_product("one_plus_inv")
    for n in (1, 7, 30):
        assert grows.partial_product(n) == n + 1
    shrinks = make_product("one_minus_inv")
    for n in (2, 5, 10, 50):
        assert shrinks.partial_product(n) == F(1, n)
    deltas = make_series("geometric", a=F(1, 3), r=F(1, 3))
    for form, sign in (("one_plus", 1), ("one_minus", -1)):
        factors = make_product(form, deltas=deltas).factors
        assert factors.n0 == deltas.n0
        for n in range(1, 6):
            assert factors.term(n) == 1 + sign * F(1, 3**n)


def test_limit_comparison_needs_positive_partner_terms():
    # a negative b_n makes |a_n|/b_n negative, which bounds nothing
    converges = classify(make_series("inv_square"), ("p_series",), 64)
    negative = make_series("custom", gen=lambda n: F(-1, n * n), name="-1/n^2")
    verdict = classify(make_series("harmonic"), ("limit_comparison",), 64,
                       partner=negative, partner_verdict=converges)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.trace == (("limit_comparison",
                              "limit comparison needs exact positive partner terms"),)
    positive = make_series("custom", gen=lambda n: F(1, n * n), name="1/n^2")
    verdict = classify(make_series("alt_inv_square"), ("limit_comparison",), 64,
                       partner=positive, partner_verdict=converges)
    assert verdict.status is Status.CONVERGES
    assert verdict.certificate.witnesses["ratio_window"] == Enclosure.point(1)


def test_limit_comparison_reads_the_partner_from_its_start():
    # a partner that starts after horizon // 2 is read from its own start,
    # and one that starts past the horizon leaves the test unfired
    converges = classify(make_series("inv_square"), ("p_series",), 64)
    late = make_series("custom", gen=lambda n: F(2, n * n), n0=40, name="2/n^2")
    verdict = classify(make_series("inv_square"), ("limit_comparison",), 64,
                       partner=late, partner_verdict=converges)
    assert verdict.status is Status.CONVERGES
    assert verdict.certificate.witnesses["ratio_window"] == Enclosure.point(F(1, 2))
    too_late = make_series("custom", gen=lambda n: F(2, n * n), n0=70, name="2/n^2")
    verdict = classify(make_series("inv_square"), ("limit_comparison",), 64,
                       partner=too_late, partner_verdict=converges)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.trace == (("limit_comparison",
                              "partner starts at 70, past the horizon 64"),)


def test_comparison_pairs_terms_by_index():
    # a_n is compared with b_n from the later start on, and a partner that
    # starts past the horizon leaves the test unfired
    converges = classify(make_series("inv_square"), ("p_series",), 64)
    late = make_series("custom", gen=lambda n: F(2, n * n), n0=40, name="2/n^2")
    verdict = classify(make_series("inv_square"), ("comparison",), 64,
                       partner=late, partner_verdict=converges)
    assert verdict.status is Status.CONVERGES
    assert verdict.certificate.witnesses == {"partner": "2/n^2", "direction": "below"}
    too_late = make_series("custom", gen=lambda n: F(2, n * n), n0=80, name="2/n^2")
    verdict = classify(make_series("inv_square"), ("comparison",), 64,
                       partner=too_late, partner_verdict=converges)
    assert verdict.status is Status.INCONCLUSIVE
    assert verdict.trace == (("comparison", "partner starts at 80, past the horizon 64"),)


def test_product_start_is_the_first_factor_index():
    assert make_product("one_minus_inv_sq").start == 2
    assert make_product("one_plus_inv").start == 1
    deltas = make_series("custom", gen=lambda n: F(1, n**3), n0=5, name="1/n^3")
    assert make_product("one_minus", deltas=deltas).start == 5
    assert make_product("one_plus_inv_exp").start == 1  # no exact factors


def test_product_verdicts():
    verdict = product_converges(make_product("one_minus_inv_sq"), 100)
    assert verdict.status is Status.CONVERGES
    assert verdict.value == Enclosure.point(F(1, 2))
    assert product_converges(make_product("one_plus_inv"), 100).status is Status.DIVERGES
    assert product_converges(make_product("one_minus_inv"), 100).status is Status.DIVERGES


def test_product_euler_mascheroni_limit():
    prod = make_product("one_plus_inv_exp")
    verdict = product_converges(prod, 1000)
    assert verdict.status is Status.CONVERGES
    # closed-form partial product at 10^5 approaches e^-gamma
    partial = prod.closed_partial(10**5)
    gamma_ref = F("0.577215664901532")
    e_neg_gamma = exp_enclosure(-gamma_ref, 12)
    assert abs(partial.midpoint() - e_neg_gamma.midpoint()) < F(1, 10**4)
    assert verdict.value.intersect(e_neg_gamma)


def _registered_product_cases():
    def p_case(p):
        deltas = make_series("custom", gen=lambda n, _p=p: F(1, n**_p), n0=2,
                             name=f"1/n^{p}")
        deltas.family, deltas.params = "p_series", {"p": F(p)}
        return f"1/n^{p}", deltas

    def geo_case(r):
        deltas = make_series(
            "custom", gen=lambda n, _r=F(r): _r**n, n0=1, name=f"{r}^n"
        )
        deltas.family, deltas.params = "geometric", {"a": F(r), "r": F(r)}
        return f"{r}^n", deltas

    bases = [p_case(p) for p in (1, 2, 3, 4, 5)]
    bases += [geo_case(r) for r in (F(1, 2), F(1, 3), F(1, 4), F(2, 3), F(3, 4))]
    return [(sign, name, deltas) for sign in ("one_plus", "one_minus")
            for name, deltas in bases]


def test_product_vs_log_series_agreement_20_cases():
    cases = _registered_product_cases()
    assert len(cases) == 20
    for sign, name, deltas in cases:
        product = make_product(sign, deltas=deltas)
        direct = product_converges(product, 256)
        via_log = product_log_series_verdict(product, 256)
        assert direct.status == via_log.status, (sign, name)
        assert direct.status is not Status.INCONCLUSIVE, (sign, name)


def test_partial_sums_past_certificate_stay_inside_widened_enclosure():
    # Convergent verdicts with a sum enclosure: later partial sums live in
    # the enclosure widened by the certified tail bound.
    for family, kwargs in (("alt_harmonic", {}), ("geometric", {"a": F(2, 3), "r": F(2, 3)})):
        handle = make_series(family, **kwargs)
        verdict = classify(handle, horizon=200)
        enc = verdict.value
        tail = verdict.certificate.witnesses["tail_bound"]
        cutoff = verdict.certificate.witnesses.get("N", 200)
        for n in (cutoff, cutoff + 100, cutoff + 300):
            assert enc.widen(tail).contains(handle.partial_sum(n))


def test_integral_test_in_policy():
    from certreal.core import FnDescriptor
    from certreal.integration import Comparison, ImproperSpec

    inv_square_fn = FnDescriptor(
        name="x^-2",
        eval_rat=lambda x: 1 / (x * x),
        monotone="decreasing",
        antiderivative=FnDescriptor(name="-1/x", eval_rat=lambda x: -1 / x),
    )
    spec = ImproperSpec(
        inv_square_fn, F(1), None,
        comparisons=(Comparison("p_at_inf", p=F(2), const=F(1), from_x=F(1)),),
        nonnegative=True,
    )
    handle = make_series("custom", gen=lambda n: F(1, n * n), n0=1)
    verdict = classify(handle, policy=("integral",), integral_spec=spec)
    assert verdict.status is Status.CONVERGES
    assert verdict.certificate.test == "integral"
    # a series from n = 0 is matched against f from the integral's lower end 1 on,
    # not evaluated at f(0) = 1/0
    handle = make_series("custom", gen=lambda n: F(1, n * n) if n else F(5), n0=0)
    assert classify(handle, policy=("integral",), integral_spec=spec).status is Status.CONVERGES


_FAMILIES = [
    ("geometric", {"a": F(1, 2), "r": F(1, 2)}), ("geometric", {"a": 1, "r": 1}),
    ("geometric", {"a": 1, "r": 2}), ("p_series", {"p": 2}), ("p_series", {"p": F(1, 2)}),
    ("p_series", {"p": F(3, 2)}), ("harmonic", {}), ("alt_harmonic", {}), ("newton_gregory", {}),
    ("exp_terms", {"x": F(1, 2)}), ("factorial_power", {"x": F(1, 2)}),
    ("two_pow_over_three_pow_minus_one", {}), ("inv_square", {}), ("alt_inv_square", {}),
]


def _every_verdict():
    """Verdicts from every route that returns a certificate: each series
    family under each single-test policy (the partner tests against a
    convergent and a divergent partner), both product routes, the M-test,
    both limit-detection modes and each improper comparison kind."""
    from certreal.approx import weierstrass_m_test
    from certreal.cli import resolve_function
    from certreal.integration import Comparison, ImproperSpec, improper_integral
    from certreal.sequences import detect_limit, make_named

    x_sq = resolve_function("x^-2")
    integral_spec = ImproperSpec(x_sq, F(1), None, nonnegative=True,
                                 comparisons=(Comparison("p_at_inf", p=F(2), from_x=F(1)),))
    partners = [(p, classify(p, horizon=32)) for p in map(make_series, ("inv_square", "harmonic"))]
    for family, params in _FAMILIES:
        for test in _TESTS:
            for partner, partner_verdict in partners[:2 if "comparison" in test else 1]:
                yield classify(make_series(family, **params), (test,), 32, partner=partner,
                               partner_verdict=partner_verdict, integral_spec=integral_spec)
    for name in ("one_minus_inv_sq", "one_plus_inv", "one_minus_inv", "one_plus_inv_exp"):
        product = make_product(name)
        yield product_converges(product, 64)
        if product.delta_form is not None:
            yield product_log_series_verdict(product, 64)
    yield weierstrass_m_test(TermStream(lambda n: F(1, 4**n), 0), 64)
    yield detect_limit(make_named("recursive_sqrt2"), "monotone_certified", 40, bound=2,
                       monotone="increasing")
    yield detect_limit(make_named("geometric", r=F(1, 2)), "cauchy_window", 64, eps=F(1, 1000))
    for spec, a, b, comparison in [
        ("x^-2", 1, None, Comparison("p_at_inf", p=F(2), from_x=F(1))),
        ("x^-1/2", 0, 1, Comparison("p_at_zero", p=F(1, 2))),
        ("x^-1", 1, None, Comparison("minorant_p_at_inf", p=F(1), from_x=F(1))),
        ("x^-1", 0, 1, Comparison("minorant_p_at_zero", p=F(1))),
    ]:
        yield improper_integral(ImproperSpec(resolve_function(spec), F(a), b and F(b),
                                             singular_lo=a == 0, comparisons=(comparison,),
                                             nonnegative=True), F(1, 1000))
    exp_neg = FnDescriptor(name="e^-x", eval_enc=lambda x, d: exp_enclosure(-x, d),
                           monotone="decreasing")
    exp_spec = ImproperSpec(exp_neg, F(0), None, nonnegative=True,
                            comparisons=(Comparison("exp_at_inf", p=F(1)),))
    yield improper_integral(exp_spec, F(1, 10))


def test_every_certificate_names_a_known_test():
    known = set(_TESTS) | {"monotone_convergence", "cauchy_window",
                           "comparison_majorant", "comparison_minorant"}
    seen = {v.certificate.test for v in _every_verdict() if v.certificate is not None}
    assert {t for t in seen if not t.startswith("registered:")} <= known
    # every route above fires, so each kind of name is checked at least once
    assert known <= seen
    assert {t for t in seen if t.startswith("registered:")} == {
        "registered:product_delta_reduction", "registered:product_log_bracket",
        "registered:product_log_comparison", "registered:weierstrass_m"}
