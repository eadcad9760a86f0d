"""Paired benchmark runs of two certreal checkouts, summarized per metric.

Pair i runs seed i of `perfbench/run.py --trace 0` in both
checkouts, for the `run_seconds` that BENCHMARK.json gives, one run at a
time; the side that runs first alternates from pair to pair, so a drift
of the machine does not favour one side.  Run from anywhere:

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N

For each end-to-end metric of BENCHMARK.json it prints each side's
median and quartiles, how many pairs the change won, and a verdict:
"worse" when the change's median is worse than the parent's by more than
the metric's bound (relative to the parent's median), "unresolved" when
the parent's own interquartile spread exceeds that bound and some change
run does not beat every parent run, else "ok"; ", gain" follows when the
change won at least 9 in 10 of all pairs run, its median is better by more
than the parent's interquartile distance, and it failed no more runs than
the parent.  A run that exits non-zero or prints `"correct": false` is
reported, left out of the statistics and counts as a pair the change did
not win.  It uses the standard library only and gates nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_run(returncode: int, stdout: str) -> dict:
    """{"metrics": {name: value}, "problem": None or a reason} from one run's
    exit code and output; the result line is the last line."""
    lines = stdout.strip().splitlines()
    try:
        outcome = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"metrics": {}, "problem": f"exit {returncode}, no result line"}
    metrics = {name: entry["value"] for name, entry in outcome.get("metrics", {}).items()}
    if outcome.get("correct") is False:
        return {"metrics": metrics, "problem": f"exit {returncode}, \"correct\": false"}
    if returncode != 0:
        return {"metrics": metrics, "problem": f"exit {returncode}"}
    return {"metrics": metrics, "problem": None}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], declared: list[dict]) -> list[str]:
    """Report lines for (parent run, change run) pairs of `parse_run`
    results against the end-to-end metrics declared in BENCHMARK.json."""
    lines = []
    failed = {"parent": 0, "change": 0}
    for index, (parent, change) in enumerate(pairs):
        for side, run in (("parent", parent), ("change", change)):
            if run["problem"]:
                failed[side] += 1
                lines.append(f"FAILED run: pair {index + 1}, {side}: {run['problem']}")
    good = [(p["metrics"], c["metrics"]) for p, c in pairs if not p["problem"] and not c["problem"]]
    lines.append(f"{len(good)} of {len(pairs)} pairs usable")
    for metric in declared:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        both = [(p[name], c[name]) for p, c in good if name in p and name in c]
        if not both:
            lines.append(f"{name}: no data")
            continue
        parents, changes = [p for p, _ in both], [c for _, c in both]
        p1, pm, p3 = _quartiles(parents)
        c1, cm, c3 = _quartiles(changes)
        wins = sum(1 for p, c in both if (c < p if lower else c > p))
        change = (cm - pm) / pm if pm else 0.0
        worse = change > bound if lower else -change > bound
        spread = (p3 - p1) / pm if pm else 0.0
        # a spread past the bound still tells when every change run beats
        # every parent run
        apart = max(changes) < min(parents) if lower else min(changes) > max(parents)
        verdict = "worse" if worse else "unresolved" if spread > bound and not apart else "ok"
        # a claimable gain: better in 9 of 10 of all pairs run, in the median
        # by more than the parent's interquartile distance, and no more
        # failed runs than the parent
        if (10 * wins >= 9 * len(pairs) and abs(cm - pm) > p3 - p1 and (cm < pm) == lower
                and failed["change"] <= failed["parent"]):
            verdict += ", gain"
        lines.append(
            f"{name} ({metric['unit']}, {metric['better']} is better, bound {bound:.0%}): "
            f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
            f"change wins {wins}/{len(pairs)}  median {change:+.1%}  {verdict}")
    return lines


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    return parse_run(proc.returncode, proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    pairs = []
    for index in range(args.pairs):
        seed = index + 1
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        runs = {side: run_once(getattr(args, side), args.workload, seed, benchmark["run_seconds"])
                for side in order}
        pairs.append((runs["parent"], runs["change"]))
        print(f"pair {index + 1} (seed {seed}, {order[0]} first) done", flush=True)
    print("\n".join(summarize(pairs, benchmark["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
