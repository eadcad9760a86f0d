"""Bytes that one kept benchmark result holds, per query op.

Runs block 0 of a perfbench workload under seed 1 through
`perfbench/queries.py` (imported, not edited) and measures with
tracemalloc what each raw result holds: the bytes still allocated while
the result is kept, less those still allocated once it is dropped, so a
cache that a query fills does not count.  The benchmark's harness keeps
every raw result until its timed loop ends, so these bytes, times the
queries a run completes, are the part of `peak_rss_mb` that grows with
the run's length.  Run from anywhere:

    python tools/kept_bytes.py series-battery

Every query of the block is measured, those the mix marks as known
defects included: each of them now answers within a second.  It uses
the standard library only and gates nothing.
"""

import collections
import gc
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import mixes  # noqa: E402
import queries  # noqa: E402


def _allocated() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def kept_bytes(workload: str) -> dict[str, list[int]]:
    """Bytes held per kept result, grouped by op."""
    held = collections.defaultdict(list)
    tracemalloc.start()
    try:
        for query in mixes.block(workload, 1, 0):
            raw = queries.execute(query)
            with_raw = _allocated()
            del raw
            # a result served from a cache frees nothing; allocator noise
            # can then read a few bytes below zero
            held[query.op].append(max(with_raw - _allocated(), 0))
    finally:
        tracemalloc.stop()
    return held


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in mixes.WORKLOADS:
        print(f"usage: python tools/kept_bytes.py {{{','.join(mixes.WORKLOADS)}}}", file=sys.stderr)
        return 1
    held = kept_bytes(argv[0])
    print(f"{'op':<20}{'results':>8}{'mean B':>10}{'max B':>10}")
    for op, sizes in sorted(held.items(), key=lambda item: -max(item[1])):
        print(f"{op:<20}{len(sizes):>8}{sum(sizes) // len(sizes):>10}{max(sizes):>10}")
    print("block 0, seed 1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
