"""tools/bench_pairs.py's summary on canned result lines; no run starts."""

import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

_DECLARED = [
    {"name": "throughput_qps", "unit": "queries/s", "better": "higher", "bound": 0.15},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _stdout(correct=True, **metrics):
    line = {"correct": correct, "attempted": 100, "failed": 0,
            "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()}}
    return "samples: 100 queries\n" + json.dumps(line) + "\n"


def _run(qps, rss, setup, returncode=0, correct=True):
    return bench_pairs.parse_run(returncode, _stdout(correct, throughput_qps=qps,
                                                     peak_rss_mb=rss, setup_s=setup))


def _line(lines, name):
    return next(line for line in lines if line.startswith(name + " "))


def test_summary_reads_medians_wins_and_verdicts():
    pairs = [(_run(100 + i, 22.0, 0.10 + 0.03 * (i % 5)), _run(200 + i, 26.0, 0.16))
             for i in range(10)]
    lines = bench_pairs.summarize(pairs, _DECLARED)
    assert "10 of 10 pairs usable" in lines
    qps = _line(lines, "throughput_qps")
    assert "parent 104.5 [102.2, 106.8]" in qps and "change 204.5" in qps
    assert "change wins 10/10" in qps and qps.endswith("ok, gain")
    # +18.2% RSS is past the 15% bound
    assert _line(lines, "peak_rss_mb").endswith("worse")
    # the parent's setup_s spreads 0.10-0.22: an interquartile distance of
    # 37.5% of the median is past the 25% bound, so the metric is unresolved
    assert _line(lines, "setup_s").endswith("unresolved")


def test_failed_runs_are_reported_and_left_out():
    pairs = [(_run(100, 22.0, 0.1), _run(120, 22.0, 0.1)),
             (_run(100, 22.0, 0.1, returncode=1, correct=False), _run(120, 22.0, 0.1)),
             (_run(100, 22.0, 0.1), _run(120, 22.0, 0.1, returncode=2))]
    lines = bench_pairs.summarize(pairs, _DECLARED)
    assert 'FAILED run: pair 2, parent: exit 1, "correct": false' in lines
    assert "FAILED run: pair 3, change: exit 2" in lines
    assert "1 of 3 pairs usable" in lines
    # a failed pair counts as one the change did not win: 1 win in 3 pairs
    # run is no gain
    qps = _line(lines, "throughput_qps")
    assert "change wins 1/3" in qps and qps.endswith("ok")
    assert bench_pairs.parse_run(1, "Traceback ...\n")["problem"] == "exit 1, no result line"


def test_no_gain_when_the_change_fails_more_runs():
    pairs = [(_run(100 + i, 22.0, 0.1), _run(200 + i, 22.0, 0.1)) for i in range(19)]
    pairs.append((_run(100, 22.0, 0.1), _run(200, 22.0, 0.1, correct=False)))
    lines = bench_pairs.summarize(pairs, _DECLARED)
    # 19 wins of 20 pairs would claim a gain, but the change failed a run
    # the parent did not
    qps = _line(lines, "throughput_qps")
    assert "change wins 19/20" in qps and qps.endswith("ok")
    pairs[0] = (_run(100, 22.0, 0.1, returncode=1), pairs[0][1])
    assert _line(bench_pairs.summarize(pairs, _DECLARED), "throughput_qps").endswith("ok, gain")


def test_a_wide_spread_resolves_when_every_change_run_is_better():
    setups = [0.10, 0.13, 0.16, 0.19, 0.22]
    apart = [(_run(100, 22.0, s), _run(100, 22.0, 0.09)) for s in setups]
    assert _line(bench_pairs.summarize(apart, _DECLARED), "setup_s").endswith("ok, gain")
    # one change run slower than a parent run leaves the spread unresolved
    overlap = apart[:4] + [(_run(100, 22.0, 0.22), _run(100, 22.0, 0.25))]
    assert _line(bench_pairs.summarize(overlap, _DECLARED), "setup_s").endswith("unresolved")
