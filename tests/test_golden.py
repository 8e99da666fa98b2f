"""Golden fixed-seed outputs: pinned CLI invocations must reproduce their bytes.

Each case runs ``python -W error::RuntimeWarning -m irsbf.cli`` in a
subprocess with one BLAS thread, so a numerical warning fails the case,
and compares its stdout, and its ``--out`` CSV where the command writes
one, with the files under ``tests/golden/`` byte for byte.  On a
mismatch the failure lists the cells that differ and the largest relative
change among the numeric ones.

A change that moves these bytes on purpose regenerates them with

    PYTHONPATH=src python tests/test_golden.py --write

and says why in CHANGES.md.  The rewrite prints, for each golden, "new",
"unchanged" or the cells that moved, so the change can quote them.  The
comparison itself stays exact.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
SETUP = str(GOLDEN / "setup.cfg")
SRC = Path(__file__).resolve().parents[1] / "src"

# name -> (argv, whether the command takes --out)
CASES = {
    "sweep_n": (["sweep-n", "--seed", "3", "--channels", "6", "--symbols", "500",
                 "--values", "4,16,32"], True),
    # 34 channels make two chunks per point, the first a stack of 32 rows up
    # to n_i 200, which backtracks over several rounds in lockstep
    "sweep_n_stack": (["sweep-n", "--seed", "1", "--channels", "34", "--symbols", "500",
                       "--no-bound", "--values", "8,50,200"], True),
    "sweep_n_bits2": (["sweep-n", "--seed", "3", "--channels", "6", "--symbols", "500",
                       "--values", "4,16,32", "--bits", "2"], True),
    "sweep_kappa": (["sweep-kappa", "--seed", "4", "--channels", "4", "--symbols", "300",
                     "--values", "0.05,0.1"], True),
    "iteration_study": (["iteration-study", "--seed", "5", "--channels", "5",
                         "--values", "4,16"], True),
    # the benchmark's study shape: robust stacks of 4 rows up to n_i 200,
    # which leave single-row tails as their rows converge
    "iteration_study_stack": (["iteration-study", "--seed", "1", "--channels", "4",
                               "--values", "8,50,200"], True),
    "bound_check": (["bound-check", "--seed", "2", "--channels", "3"], True),
    "bound_check_json": (["bound-check", "--seed", "2", "--channels", "3", "--json"], False),
    # 40 channels make two chunks, stacks of 32 and 8 rows, and the bound's
    # dual ascent certifies 37 of them
    "bound_check_stack": (["bound-check", "--seed", "2", "--channels", "40", "--json"], True),
    "los_demo_json": (["los-demo", "--seed", "4", "--n-i", "12", "--json"], False),
    "sweep_distance": (["sweep-distance", "--seed", "6", "--channels", "3", "--symbols", "100",
                        "--values", "45,50"], True),
    "sweep_power_bits1": (["sweep-power", "--seed", "8", "--channels", "3", "--symbols", "100",
                           "--values", "0,20", "--bits", "1", "--no-bound"], True),
    "sweep_n_config": (["sweep-n", "--seed", "9", "--channels", "2", "--values", "4,8",
                        "--config", SETUP], True),
    "los_demo_config_json": (["los-demo", "--seed", "9", "--n-i", "12", "--config", SETUP,
                              "--json"], False),
}


def run_case(name: str, tmp: Path) -> dict[str, bytes]:
    """Run one case; returns its outputs keyed by golden file suffix."""
    argv, takes_out = CASES[name]
    csv_path = tmp / f"{name}.csv"
    if takes_out:
        argv = [*argv, "--out", str(csv_path)]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "irsbf.cli", *argv],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    outputs = {"stdout": proc.stdout}
    if takes_out:
        outputs["csv"] = csv_path.read_bytes()
    return outputs


def _cells(text: str) -> list[list[str]]:
    return [[c for c in re.split(r"[\s,:]+", line) if c] for line in text.splitlines()]


def describe_mismatch(expected: bytes, actual: bytes) -> str:
    """The differing cells, by line and column, and the largest relative change."""
    exp, act = _cells(expected.decode()), _cells(actual.decode())
    lines, worst = [], 0.0
    if len(exp) != len(act):
        lines.append(f"line count {len(exp)} -> {len(act)}")
    for i, (row_e, row_a) in enumerate(zip(exp, act), start=1):
        if len(row_e) != len(row_a):
            lines.append(f"line {i}: {len(row_e)} cells -> {len(row_a)}")
            continue
        for j, (e, a) in enumerate(zip(row_e, row_a), start=1):
            if e == a:
                continue
            try:
                x, y = float(e), float(a)
                rel = abs(y - x) / max(abs(x), abs(y)) if x != y else 0.0
                worst = max(worst, rel)
                lines.append(f"line {i} cell {j}: {e} -> {a} (rel {rel:.3e})")
            except ValueError:
                lines.append(f"line {i} cell {j}: {e!r} -> {a!r}")
    lines.append(f"largest relative change: {worst:.3e}")
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for suffix, actual in run_case(name, tmp_path).items():
        expected = (GOLDEN / f"{name}.{suffix}").read_bytes()
        assert actual == expected, (
            f"{name}.{suffix} differs from its golden:\n{describe_mismatch(expected, actual)}"
        )


def test_mismatch_report_names_cells_and_largest_change():
    report = describe_mismatch(b"a,1.0,2\nb,3,x\n", b"a,1.5,2\nb,3,y\n")
    assert "line 1 cell 2: 1.0 -> 1.5" in report
    assert "line 2 cell 3: 'x' -> 'y'" in report
    assert "largest relative change: 3.333e-01" in report


def rewrite(path: Path, data: bytes) -> str:
    """Write ``data`` to the golden ``path``, and report what moved.

    The report is "new" for a golden that did not exist, "unchanged" for
    the same bytes, and otherwise ``describe_mismatch`` of the old and new
    bytes, which a change that moves them can quote.
    """
    old = path.read_bytes() if path.exists() else None
    path.write_bytes(data)
    if old is None:
        return "new"
    return "unchanged" if old == data else describe_mismatch(old, data)


def write_goldens(tmp: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(CASES):
        for suffix, data in run_case(name, tmp).items():
            print(f"wrote {name}.{suffix}: {rewrite(GOLDEN / f'{name}.{suffix}', data)}")


def test_write_reports_each_golden_as_new_unchanged_or_its_moved_cells(tmp_path, monkeypatch, capsys):
    golden = tmp_path / "golden"
    outputs = {"a": {"stdout": b"x,1.0\n", "csv": b"n,2\n"}, "b": {"stdout": b"y\n"}}
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN", golden)
    monkeypatch.setattr(sys.modules[__name__], "CASES", dict.fromkeys(outputs))
    monkeypatch.setattr(sys.modules[__name__], "run_case", lambda name, tmp: outputs[name])
    write_goldens(tmp_path)
    assert capsys.readouterr().out.splitlines() == [
        "wrote a.stdout: new", "wrote a.csv: new", "wrote b.stdout: new"
    ]
    outputs["a"]["stdout"] = b"x,1.5\n"
    write_goldens(tmp_path)
    assert capsys.readouterr().out.splitlines() == [
        "wrote a.stdout: line 1 cell 2: 1.0 -> 1.5 (rel 3.333e-01)",
        "largest relative change: 3.333e-01",
        "wrote a.csv: unchanged",
        "wrote b.stdout: unchanged",
    ]
    assert (golden / "a.stdout").read_bytes() == b"x,1.5\n"


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        write_goldens(Path(tmp))
