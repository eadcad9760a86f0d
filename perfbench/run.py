"""certreal benchmark: time to a certified answer, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload integrate-cli --seed 1 --seconds 16 --trace 0

Workloads (see mixes.py for the exact composition of each block):

- integrate-cli: `certreal.cli.main([..., "--json"])` in-process, with
  seeded `integrate` and `sample` argvs.  Time goes to Darboux sums,
  many low-digit `exp` calls and JSON rendering.
- series-battery: library calls to `classify` over every series family,
  root/ratio scans, rearrangements, products, alternating sums, limit
  detection, the M-test, bisection and root counting.  Time goes to
  `integer_nth_root` and exact partial sums; `integration` is bypassed.
- precision-ladder: single 50-1000 digit calls to the elementary
  enclosures, gamma, harmonic numbers, constants and Taylor remainders.

One client sends the queries closed-loop in this process, with no extra
threads, whole blocks at a time, until `--seconds` have passed and at
least 100 queries were made.  Every answer is checked against
oracle.py, which computes the reference with mpmath and never imports
certreal.  A query fails on an exception ("error"), on running past its
budget ("timeout"), on Inconclusive where the answer is certifiable
("uncertified"), or on a certified width above the one requested
("width_missed"); a failed query counts at its budget in the latency
percentiles.  An enclosure that misses the reference is a correctness
failure: the result line says `"correct": false` and the exit code is 1.

With `--trace 0` the last line of output holds the end-to-end metrics:
latency_p50_ms, latency_p90_ms, throughput_qps, certified_frac, setup_s
and peak_rss_mb.  With `--trace 1` the first blocks of the mix (at least
100 queries, a fixed number so that counts repeat) run with a span
around every public call into certreal (spans.py); the spans are written
to perfbench/out/, and the last line holds the per-layer metrics
together with the tracing overhead, which is the traced time minus the
time of the same block run untraced in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import mixes

# One budget for every query, traced or not.  On the seed commit every
# query's time is at least 2x away from it (slowest passing query ~1 s;
# the known defects that run long take over 30 s), so the failure
# fraction repeats exactly.
BUDGET_S = 4.0
MIN_QUERIES = 100
SETUP_RUNS = 11
ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"


class QueryTimeout(BaseException):
    """Raised by SIGALRM inside a query that ran past its budget.  A
    BaseException, so no `except Exception` in the library catches it."""


def _alarm(signum, frame):
    raise QueryTimeout()


def run_query(query, execute):
    """(seconds, raw result or None, failure class or None, detail)."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            raw = execute(query)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except QueryTimeout:
        return BUDGET_S, None, "timeout", f"over {BUDGET_S:g} s"
    except Exception as exc:  # the library failed; record it and go on
        return perf_counter() - start, None, "error", f"{type(exc).__name__}: {exc}"[:200]
    return perf_counter() - start, raw, None, ""


def measure_setup(runs: int = SETUP_RUNS) -> float:
    """Median wall time of a fresh interpreter importing certreal.cli."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    command = [sys.executable, "-c", "import certreal.cli"]
    times = []
    for i in range(runs + 1):
        start = perf_counter()
        subprocess.run(command, env=env, check=True, capture_output=True, timeout=60)
        if i:  # the first run compiles the bytecode
            times.append(perf_counter() - start)
    return statistics.median(times)


def traced_blocks(workload: str) -> int:
    """Whole blocks that make at least MIN_QUERIES queries."""
    return -(-MIN_QUERIES // len(mixes.block(workload, 0, 0)))


def run_blocks(workload: str, seed: int, execute, seconds=None, blocks=None, tracer=None):
    """Run whole blocks closed-loop, until `blocks` blocks are done or
    `seconds` have passed and MIN_QUERIES were made.  Returns the
    per-query records and the loop time."""
    records = []
    start = perf_counter()
    index = 0
    while True:
        for query in mixes.block(workload, seed, index):
            if tracer:
                tracer.begin_query(len(records), query.op)
            seconds_used, raw, failure, detail = run_query(query, execute)
            if tracer:
                tracer.end_query(keep=failure != "timeout")
            records.append({"query": query, "seconds": seconds_used, "raw": raw,
                            "failure": failure, "detail": detail})
        index += 1
        elapsed = perf_counter() - start
        if blocks is not None:
            if index == blocks:
                return records, elapsed
        elif elapsed >= seconds and len(records) >= MIN_QUERIES:
            return records, elapsed


def check_answers(records, answer) -> list[str]:
    """Extract answers, classify failures, and return correctness errors."""
    import oracle  # only now: mpmath must not count in peak_rss_mb

    wrong = []
    for record in records:
        if record["failure"] is None:
            ans = answer(record["query"], record["raw"])
            if ans.get("code") == 1:
                record["failure"], record["detail"] = "error", ans["stderr"]
            else:
                verdict, detail = oracle.check(record["query"], ans)
                if verdict == oracle.WRONG:
                    wrong.append(f"{record['query'].label}: {detail}")
                elif verdict != oracle.OK:
                    record["failure"], record["detail"] = verdict, detail
        record["raw"] = None
    return wrong


def summarize(records, wrong) -> None:
    """Human-readable lines before the result: failures and wrong answers."""
    seen = set()
    for record in records:
        label = record["query"].label
        if record["failure"] and (label, record["failure"]) not in seen:
            seen.add((label, record["failure"]))
            tag = "known defect" if record["query"].defect else "NEW FAILURE"
            print(f"failed [{record['failure']}] ({tag}) {label}: {record['detail']}")
    for line in wrong:
        print(f"WRONG {line}")


def untraced(args) -> dict:
    setup_s = measure_setup()
    import queries

    signal.signal(signal.SIGALRM, _alarm)
    records, loop_s = run_blocks(args.workload, args.seed, queries.execute, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wrong = check_answers(records, queries.answer)
    summarize(records, wrong)
    latencies = [BUDGET_S if r["failure"] else r["seconds"] for r in records]
    failed = sum(1 for r in records if r["failure"])
    p90 = statistics.quantiles(latencies, n=10)[8]
    print(f"samples: {len(records)} queries in {len(records) // len(mixes.block(args.workload, args.seed, 0))}"
          f" blocks, {loop_s:.2f} s; {sum(1 for x in latencies if x > p90)} beyond p90")
    metrics = {
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": p90 * 1000,
        "throughput_qps": len(records) / loop_s,
        "certified_frac": 1 - failed / len(records),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return result(records, wrong, metrics, "end_to_end")


def untraced_durations(args) -> None:
    """Child of a traced run: the same blocks untraced, one time per query."""
    import queries

    signal.signal(signal.SIGALRM, _alarm)
    records, _ = run_blocks(args.workload, args.seed, queries.execute, blocks=args.blocks)
    print(json.dumps([None if r["failure"] else r["seconds"] for r in records]))


def traced(args) -> dict:
    import queries
    import spans

    tracer = spans.Tracer()
    tracer.install()
    signal.signal(signal.SIGALRM, _alarm)

    def execute(query):
        return queries.execute(query, tracer.wrap_descriptor)

    blocks = traced_blocks(args.workload)
    records, _ = run_blocks(args.workload, args.seed, execute, blocks=blocks, tracer=tracer)
    tracer.uninstall()
    output_bytes = sum(len(r["raw"][1].encode()) for r in records
                       if r["failure"] is None and r["query"].op == "cli")
    child = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
         "--trace", "0", "--blocks", str(blocks)],
        check=True, capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    plain = json.loads(child.stdout.splitlines()[-1])
    pairs = [(r["seconds"], s) for r, s in zip(records, plain) if r["failure"] is None and s is not None]
    traced_s, untraced_s = sum(t for t, _ in pairs), sum(u for _, u in pairs)
    wrong = check_answers(records, queries.answer)
    summarize(records, wrong)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    tracer.write(span_file)
    print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")
    metrics = tracer.metrics()
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    return result(records, wrong, metrics, "per_layer")


def result(records, wrong, metrics: dict, kind: str) -> dict:
    """Print each metric with its unit from BENCHMARK.json; build the
    result line.  The metric set must be exactly the one declared there."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: "
                           f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    return {"correct": not wrong, "attempted": len(records),
            "failed": sum(1 for r in records if r["failure"]),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blocks", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "certreal" / "__init__.py").is_file():
        print(f"perfbench: no certreal sources under {ROOT / 'src'}; "
              "run from the root of a certreal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.blocks is not None:
        untraced_durations(args)
        return 0
    outcome = traced(args) if args.trace else untraced(args)
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
