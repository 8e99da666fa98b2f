"""Compare two checkouts on one benchmark workload, in alternating pairs of runs.

Usage, from anywhere (standard library only; the benchmark itself needs numpy):

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S --seed K

Pair k runs ``bench/run.py`` once in each checkout with the same seed and
seconds, the parent first when k is odd and the change first when it is
even, and prints each run's end-to-end metrics as it ends.  Then, for each
end-to-end metric of PARENT's ``BENCHMARK.json``, it prints each side's
median and quartiles and the pairs the change won, and whether a gain may be
claimed (``claim``).  It exits 1 if any run reads ``correct: false`` or
``failed > 0``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench_record import SECONDS, bench_run, summary


def claim(parent: list, change: list, better: str) -> dict:
    """The claim rule on one metric's paired runs: pair k is (parent[k], change[k]).

    ``better`` is "higher" or "lower".  The change wins a pair when it reads
    better; a tie counts for neither side.  A gain holds when there are at
    least ten pairs, the change wins at least nine tenths of them, and its
    median is better than the parent's by more than the parent's
    interquartile range.
    """
    sign = {"higher": 1.0, "lower": -1.0}[better]
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change, strict=True))
    p, c = summary(parent), summary(change)
    holds = (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
             and sign * (c["median"] - p["median"]) > p["iqr"])
    return {"parent": p, "change": c, "wins": wins, "pairs": len(parent), "holds": holds}


def main(argv: list | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="root of the parent's checkout")
    ap.add_argument("change", type=Path, help="root of the change's checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", default=SECONDS)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, to give quartiles")
    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    runs = {"parent": [], "change": []}
    for k in range(1, args.pairs + 1):
        for side in ("parent", "change") if k % 2 else ("change", "parent"):
            _, result = bench_run(args.workload, args.seed, 0, getattr(args, side), args.seconds)
            runs[side].append(result)
            values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics)
            print(f"pair {k} {side}: correct={result['correct']} failed={result['failed']} {values}",
                  flush=True)
    for m in metrics:
        rule = claim(*([r["metrics"][m["name"]]["value"] for r in runs[side]]
                       for side in ("parent", "change")), m["better"])
        p, c = rule["parent"], rule["change"]
        print(f"{m['name']} ({m['unit']}, {m['better']} is better): "
              f"parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}], "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}], "
              f"change won {rule['wins']} of {rule['pairs']}, gain {'holds' if rule['holds'] else 'not shown'}")
    ok = all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side)
    if not ok:
        print("bench_pairs: a run failed its checks or skipped realizations", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
