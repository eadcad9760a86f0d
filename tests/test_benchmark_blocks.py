"""Benchmark blocks far into a run, checked against the benchmark's oracle.

The benchmark's own self-tests run a workload for about a second, a few
blocks; a 16 s run reaches about 85 precision-ladder blocks, whose digit
counts drift upward with the block index.  This test runs an early and a
late block of each workload whose queries change with the index, through
`perfbench/queries.py` and `perfbench/oracle.py` (imported, not edited),
and needs every answer to check OK, the root scans of series-battery
included, and so are the queries its mix marks as known defects:
`classify(exp_terms x=1/2, 512)` and `bisect(cos, 1, 2, 300)`.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import mixes  # noqa: E402
import oracle  # noqa: E402
import queries  # noqa: E402


@pytest.mark.parametrize("workload, index", [
    ("precision-ladder", 0), ("precision-ladder", 120),
    ("integrate-cli", 0), ("integrate-cli", 60),
    ("series-battery", 0), ("series-battery", 60),
])
def test_benchmark_block_answers_check_ok(workload, index):
    for query in mixes.block(workload, 1, index):
        answer = queries.answer(query, queries.execute(query))
        assert answer.get("code") != 1, (query.label, answer["stderr"])
        verdict, detail = oracle.check(query, answer)
        assert verdict == oracle.OK, (query.label, verdict, detail)
