"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench

The last test runs every workload traced twice in fresh processes and
takes a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mixes  # noqa: E402
import oracle  # noqa: E402


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_same_seed_gives_the_same_mix(workload):
    first = [mixes.block(workload, 7, i) for i in range(3)]
    assert first == [mixes.block(workload, 7, i) for i in range(3)]
    assert first[0] != mixes.block(workload, 8, 0)
    assert first[0] != first[1]


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_composition_does_not_depend_on_the_seed(workload):
    def shape(queries):
        return sorted((q.op, q.defect) for q in queries)

    base = mixes.block(workload, 0, 0)
    assert all(shape(mixes.block(workload, seed, 2)) == shape(base) for seed in range(1, 6))
    # the known defects stay under a tenth of the mix
    assert sum(q.defect for q in base) < len(base) / 10


def test_calls_through_aliases_are_counted():
    import certreal
    from certreal import core, integration, series

    import spans

    original = core.rational_power_enclosure
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert integration.rational_power_enclosure is core.rational_power_enclosure
        tracer.begin_query(0, "alias")
        # integration imported rational_power_enclosure from core; series
        # imported nth_root_enclosure; the package re-exports poly_descriptor
        integration.rational_power_enclosure(F(2), F(1, 2), 10)
        series.nth_root_enclosure(F(3), 3, 10)
        f = certreal.poly_descriptor([0, 0, 1])
        integration.darboux(f, integration.regular_partition(0, 1, 4))
        tracer.end_query(keep=True)
    finally:
        tracer.uninstall()
    names = [span[spans.NAME] for span in tracer.spans]
    assert names.count("core.rational_power_enclosure") == 1
    assert names.count("core.nth_root_enclosure") == 2  # once directly, once via the power
    assert "core.poly_descriptor" in names and "integration.darboux" in names
    metrics = tracer.metrics()
    assert metrics["core.nth_root.calls"] == 4
    # both endpoints of each of the 4 cells; the 5 grid points are shared
    assert metrics["integration.oracle_calls"] == 8
    assert metrics["integration.oracle_unique_ratio"] == 5 / 8
    assert core.rational_power_enclosure is original
    assert integration.rational_power_enclosure is original


def test_oracle_never_imports_certreal():
    code = ("import sys, oracle; "
            "sys.exit(any(m.split('.')[0] == 'certreal' for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


def test_oracle_examples():
    geometric = mixes.Query("classify", ("geometric", (("a", F(1)), ("r", F(1, 2))), 64))
    assert oracle.check(geometric, {"status": "converges", "enc": (F(2), F(2))})[0] == oracle.OK
    assert oracle.check(geometric, {"status": "converges", "enc": (F(201, 100), F(3))})[0] == oracle.WRONG
    assert oracle.check(geometric, {"status": "inconclusive", "enc": None})[0] == oracle.UNCERTIFIED
    assert oracle.check(geometric, {"status": "diverges", "enc": None})[0] == oracle.WRONG
    pi = mixes.Query("pi", (20,))
    assert oracle.check(pi, {"enc": (F(314159265358979323846, 10**20),
                                     F(314159265358979323847, 10**20))})[0] == oracle.OK
    assert oracle.check(pi, {"enc": (F(3), F(4))})[0] == oracle.WIDTH_MISSED
    # pattern 2,1 of the alternating harmonic series tends to (3/2) ln 2
    pattern = mixes.Query("pattern", (2, 1, 3000))
    exact = oracle._alt_harmonic_rearranged(2, 1, 3000)
    assert abs(float(exact) - 1.5 * 0.6931471805599453) < 1e-3
    assert oracle.check(pattern, {"terms": 3000, "last": exact, "flips": 0})[0] == oracle.OK


def test_run_refuses_without_sources():
    # perfbench/ has no src/certreal: no result line, non-zero exit
    done = subprocess.run([sys.executable, "run.py", "--workload", "precision-ladder", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=HERE, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_untraced_run_prints_the_end_to_end_metrics():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "precision-ladder",
                           "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 100
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _traced(workload: str) -> dict:
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_counts_repeat_exactly_between_traced_runs(workload):
    first, second = _traced(workload), _traced(workload)
    assert first["correct"] and second["correct"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])

    def counts(result):
        return {name: m["value"] for name, m in result["metrics"].items()
                if m["unit"] != "s" and name != "trace.overhead_frac"}

    assert counts(first) == counts(second)
