"""Write a perf record of this checkout: the benchmark's figures, the tier-1 wall time and output hashes.

Usage, from anywhere (standard library only; the benchmark itself needs numpy):

    python3 tools/bench_record.py BENCH_<n>.json

It runs ``bench/run.py`` on each workload of ``BENCHMARK.json`` at seeds
1-5 with ``--seconds 10 --trace 0``, then once with ``--trace 1`` (seed 1),
one run at a time, so the record takes about 3 minutes.  The record holds
the benchmark's machine line, the median and interquartile range of each
end-to-end metric per workload (with every run's value), each workload's
traced per-layer metrics, the tier-1 suite's wall time, the SHA-256 of each
file in ``tests/golden/``, the digests of bench/README.md's reference
recipe and the total lines of the ``.py`` files under ``src/irsbf`` and
``tests``.  A later change to the program makes a new record the same way and
quotes its difference from an earlier one.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3, 4, 5)
SECONDS = "10"
TRACE_SEED = 1
# bench/README.md's recipe: round 0 of a run with --seed 1 passes this seed to the CLI
RECIPE_SEED = "16294208416658607535"
RECIPE = {
    "design-sweep": ["sweep-n", "--values", "8,50,200", "--channels", "20", "--symbols", "2000", "--no-bound"],
    "bound-sweep": ["sweep-n", "--values", "16,50", "--channels", "1", "--symbols", "2000"],
    "iteration-study": ["iteration-study", "--values", "8,50,200", "--channels", "4"],
}


def environment(root: Path = ROOT) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def bench_run(workload: str, seed: int, trace: int, root: Path = ROOT, seconds: str = SECONDS
              ) -> tuple[str, dict]:
    """One ``bench/run.py`` run in the checkout at ``root``.

    Returns its machine line and its result, the last line of its output.
    A relative ``root`` is taken from the current directory, once.
    """
    root = root.resolve()
    out = subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        cwd=root, env=environment(root), capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    machine = next(line for line in out if line.startswith("machine: "))
    return machine[len("machine: "):], json.loads(out[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": values}


def record_workload(workload: str, end_to_end: list) -> tuple[str, dict]:
    """The record of one workload, and the benchmark's machine line."""
    runs = [bench_run(workload, seed, 0)[1] for seed in SEEDS]
    machine, traced = bench_run(workload, TRACE_SEED, 1)
    entry = {
        "all_correct": all(r["correct"] and r["failed"] == 0 for r in (*runs, traced)),
        "end_to_end": {
            m["name"]: {"unit": m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in runs])}
            for m in end_to_end
        },
        "per_layer": traced["metrics"],
    }
    return machine, entry


def tier1() -> dict:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=ROOT, env=environment(), capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    return {"wall_s": wall, "exit_code": done.returncode, "summary": re.sub(r"=+", "", last).strip()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def recipe_digests() -> dict:
    common = ["--seed", RECIPE_SEED, "--workers", "1", "--config", str(ROOT / "bench" / "operating_point.cfg")]
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload, argv in RECIPE.items():
            out = Path(tmp) / f"{workload}.csv"
            subprocess.run(
                [sys.executable, "-m", "irsbf.cli", *argv, *common, "--out", str(out)],
                cwd=ROOT, env=environment(), capture_output=True, check=True,
            )
            digests[workload] = sha256(out)
    return digests


def line_counts() -> dict:
    return {d: sum(len(p.read_text().splitlines()) for p in (ROOT / d).rglob("*.py"))
            for d in ("src/irsbf", "tests")}


def main(argv: list) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = {"machine": None, "python": platform.python_version(), "seeds": list(SEEDS),
              "seconds": float(SECONDS), "trace_seed": TRACE_SEED, "workloads": {}}
    for w in declared["workloads"]:
        print(f"bench_record: {w['name']}", file=sys.stderr)
        record["machine"], record["workloads"][w["name"]] = record_workload(w["name"], declared["end_to_end"])
    print("bench_record: tier-1", file=sys.stderr)
    record["tier1"] = tier1()
    record["golden_sha256"] = {p.name: sha256(p) for p in sorted((ROOT / "tests" / "golden").iterdir())}
    record["recipe_sha256"] = recipe_digests()
    record["lines"] = line_counts()
    Path(argv[0]).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
