"""Benchmark of the irsbf CLI: end-to-end metrics, or per-layer metrics with --trace 1.

Usage, from the root of a checkout (nothing needs to be installed):

    python3 bench/run.py --workload design-sweep --seed 1 --seconds 30 --trace 0

The workload runs ``irsbf.cli.main`` in this process with the argv a user
would type, on ``src/`` of the checkout, with one worker process and one
BLAS thread.  A round is one CLI invocation; rounds repeat with seeds
derived from ``--seed`` until ``--seconds`` have passed.  The last line of
standard output is a JSON object with the keys correct, attempted, failed
and metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fixed before numpy loads, here and in the set-up subprocesses, so that the
# figures do not depend on how many cores the BLAS library finds.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import logging
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_study_csv, check_sweep_csv
from reference import child_seed, load_operating_point
from speed import SpeedProbe
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = BENCH_DIR / "operating_point.cfg"
TMP_PARENT = ROOT / ".bench_tmp"
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import irsbf.cli\n"
    "irsbf.cli.build_parser().parse_args(sys.argv[2:])\n"
    "print(time.monotonic())\n"
)


@dataclass(frozen=True)
class Workload:
    command: str
    values: tuple[int, ...]
    channels: int
    symbols: int | None = None
    bound: bool = False

    @property
    def realizations(self) -> int:
        return len(self.values) * self.channels

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = [
            self.command,
            "--values", ",".join(str(v) for v in self.values),
            "--channels", str(self.channels),
            "--seed", str(seed),
            "--workers", "1",
            "--config", str(CONFIG),
            "--out", str(out),
        ]
        if self.symbols is not None:
            argv += ["--symbols", str(self.symbols)]
            if not self.bound:
                argv.append("--no-bound")
        return argv


# Why each workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "design-sweep": Workload("sweep-n", (8, 50, 200), channels=20, symbols=2000),
    "bound-sweep": Workload("sweep-n", (16, 50), channels=1, symbols=2000, bound=True),
    "iteration-study": Workload("iteration-study", (8, 50, 200), channels=4),
}

_SKIPPED = re.compile(r"skipped (\d+)/(\d+) realizations")


class SkipCounter(logging.Handler):
    """Counts the realizations that irsbf.sim logs as skipped."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.skipped = 0

    def emit(self, record):
        match = _SKIPPED.search(record.getMessage())
        if match:
            self.skipped += int(match.group(1))
        print(f"irsbf: {record.getMessage()}", file=sys.stderr)


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import irsbf from src/ of this checkout, and from nowhere else."""
    if not (SRC / "irsbf" / "__init__.py").is_file():
        fail(f"no irsbf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import irsbf.cli

    if Path(irsbf.cli.__file__).resolve().parent != SRC / "irsbf":
        fail(f"imported irsbf from {irsbf.cli.__file__}, not from {SRC}")
    return irsbf.cli


def measure_setup(workload: Workload, tmp: Path) -> float:
    """Seconds from starting a Python process to irsbf imported and argv parsed.

    Raw seconds: the speed probe runs in this process, so it cannot see the
    core the child runs on.
    """
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *workload.argv(0, tmp / "setup.csv")]
    start = time.monotonic()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        fail(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1]) - start


@dataclass
class Timing:
    """Seconds spent in rounds, the probe's own time taken out."""

    wall: float = 0.0
    nominal_wall: float = 0.0
    nominal_cpu: float = 0.0

    def add(self, wall: float, cpu: float, scale: float) -> None:
        self.wall += wall
        self.nominal_wall += wall * scale
        self.nominal_cpu += cpu * scale


class Runner:
    """Runs rounds of one workload and keeps their CSVs for the checks."""

    def __init__(self, cli, workload: Workload, tmp: Path, probe: SpeedProbe):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.probe = probe
        self.outputs: dict[int, bytes] = {}
        self.problems: list[str] = []
        self.attempted = 0

    def run(self, seed: int, timing: Timing | None = None) -> None:
        """One round, added to ``timing``.  Repeats must write identical bytes."""
        out = self.tmp / "round.csv"
        argv = self.workload.argv(seed, out)
        sink = io.StringIO()
        first = self.probe.mark()
        start, cpu0 = time.perf_counter(), cpu_seconds()
        with contextlib.redirect_stdout(sink):
            code = self.cli.main(argv)
        wall, cpu = time.perf_counter() - start, cpu_seconds() - cpu0
        probed, scale = self.probe.close(first)
        if timing is not None:
            timing.add(wall - probed, cpu - probed, scale)
        self.attempted += self.workload.realizations
        if code != 0:
            self.problems.append(f"irsbf {' '.join(argv)} exited with {code}")
        data = out.read_bytes()
        out.unlink()
        previous = self.outputs.setdefault(seed, data)
        if previous != data:
            self.problems.append(f"seed {seed}: a repeat wrote different CSV bytes")

    def check_outputs(self) -> list[str]:
        op = load_operating_point(CONFIG)
        w = self.workload
        problems = list(self.problems)
        for seed, data in self.outputs.items():
            text = data.decode("utf-8")
            if w.command == "iteration-study":
                found = check_study_csv(text, w.values)
            else:
                found = check_sweep_csv(text, op, seed, w.values, w.channels, w.symbols, w.bound)
            problems += [f"seed {seed}: {p}" for p in found]
        return problems


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_untraced(runner: Runner, seed: int, seconds: float, tmp: Path) -> dict:
    runner.run(child_seed(seed, 0))  # warm-up, and the reference for the repeat check
    timing, rounds, setups = Timing(), 0, []
    start = time.perf_counter()
    while rounds == 0 or time.perf_counter() < start + seconds:
        runner.run(child_seed(seed, rounds), timing)
        rounds += 1
        # set-up launches spread over the run, so that their median spans
        # the same changes in host load as the rounds do
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= start + len(setups) * seconds / SETUP_REPEATS:
            with runner.probe.paused():
                setups.append(measure_setup(runner.workload, tmp))
    while len(setups) < SETUP_REPEATS:
        with runner.probe.paused():
            setups.append(measure_setup(runner.workload, tmp))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Rounds differ in work with their channel draws, so the run's totals,
    # the mean over every round, vary least from one seed to the next.
    realizations = runner.workload.realizations * rounds
    print(
        f"rounds {rounds}, realizations {realizations}, "
        f"wall {timing.wall:.3f} s, nominal wall {timing.nominal_wall:.3f} s"
    )
    return {
        "setup_s": (statistics.median(setups), "s"),
        "realizations_per_s": (realizations / timing.nominal_wall, "1/s"),
        "cpu_ms_per_realization": (1000.0 * timing.nominal_cpu / realizations, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def run_traced(runner: Runner, seed: int, seconds: float) -> tuple[dict, list[str]]:
    runner.run(child_seed(seed, 0))  # warm-up
    tracer = Tracer()
    plain, traced, rounds = Timing(), Timing(), 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        # each seed runs once without and once with tracing, in alternating order
        for on in ((False, True) if rounds % 2 == 0 else (True, False)):
            if on:
                with tracer:
                    runner.run(child_seed(seed, rounds), traced)
            else:
                runner.run(child_seed(seed, rounds), plain)
        rounds += 1
    # span times are raw seconds; bring them to the nominal seconds of the e2e metrics
    metrics = tracer.layer_metrics(
        runner.workload.realizations * rounds, traced.nominal_wall / traced.wall
    )
    metrics["trace.overhead_pct"] = (100.0 * (traced.nominal_wall / plain.nominal_wall - 1.0), "%")
    if tracer.absent:
        print(f"absent (reported as 0): {', '.join(tracer.absent)}")
    print(f"rounds {rounds} traced and {rounds} untraced")
    return metrics, tracer.problems


def machine() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"machine: nproc {os.cpu_count()}, numpy {np.__version__}, "
        f"BLAS {blas.get('name')} {blas.get('version')} with {os.environ['OPENBLAS_NUM_THREADS']} thread"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    skips = SkipCounter()
    logging.getLogger("irsbf.sim").addHandler(skips)
    workload = WORKLOADS[args.workload]
    seed = args.seed % (1 << 64)
    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_PARENT))
    try:
        with SpeedProbe() as probe:
            runner = Runner(cli, workload, tmp, probe)
            if args.trace:
                metrics, problems = run_traced(runner, seed, args.seconds)
            else:
                metrics, problems = run_untraced(runner, seed, args.seconds, tmp), []
        problems += runner.check_outputs()
        if skips.skipped:
            problems.append(f"{skips.skipped} realizations skipped")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_PARENT.rmdir()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(machine())
    print(f"workload {args.workload}, seed {args.seed}: checks {'failed' if problems else 'passed'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": skips.skipped,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
