"""The claim rule of ``tools/bench_pairs.py``, a pure function of paired runs, and its runner."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_record  # noqa: E402
from bench_pairs import claim  # noqa: E402

# ten runs with median 104.5 and quartiles 102.25 and 106.75: an IQR of 4.5
PARENT = [100.0 + k for k in range(10)]


class TestClaim:
    def test_nine_wins_in_ten_beyond_the_parents_iqr_hold(self):
        change = [99.0] + [p + 5.0 for p in PARENT[1:]]
        rule = claim(PARENT, change, "higher")
        assert (rule["wins"], rule["pairs"], rule["holds"]) == (9, 10, True)
        assert rule["parent"]["iqr"] == 4.5
        assert rule["change"]["median"] - rule["parent"]["median"] == 5.0

    def test_a_median_gain_equal_to_the_iqr_does_not_hold(self):
        rule = claim(PARENT, [p + 4.5 for p in PARENT], "higher")
        assert (rule["wins"], rule["holds"]) == (10, False)

    @pytest.mark.parametrize(
        "pairs, wins, holds", [(10, 8, False), (20, 18, True), (20, 17, False), (9, 9, False)]
    )
    def test_wins_must_be_nine_tenths_of_at_least_ten_pairs(self, pairs, wins, holds):
        parent = [100.0 + k for k in range(pairs)]
        change = [p + 50.0 if k < wins else p - 1.0 for k, p in enumerate(parent)]
        rule = claim(parent, change, "higher")
        assert (rule["wins"], rule["holds"]) == (wins, holds)

    def test_lower_is_better_counts_the_pairs_the_change_reads_lower(self):
        rule = claim(PARENT, [p - 5.0 for p in PARENT], "lower")
        assert (rule["wins"], rule["holds"]) == (10, True)
        assert claim(PARENT, [p - 5.0 for p in PARENT], "higher")["wins"] == 0

    def test_a_tie_counts_for_neither_side(self):
        rule = claim(PARENT, list(PARENT), "higher")
        assert (rule["wins"], rule["holds"]) == (0, False)
        assert claim(PARENT, list(PARENT), "lower")["wins"] == 0

    def test_unpaired_runs_are_rejected(self):
        with pytest.raises(ValueError):
            claim(PARENT, PARENT[:-1], "higher")


class TestBenchRun:
    def test_a_relative_root_is_resolved_once(self, tmp_path, monkeypatch):
        calls = []

        def run(args, cwd, env, **kwargs):
            calls.append((args, cwd, env))
            return subprocess.CompletedProcess(args, 0, f"machine: m\n{json.dumps({'ok': 1})}\n")

        monkeypatch.setattr(bench_record.subprocess, "run", run)
        base = tmp_path.resolve()
        (base / "change").mkdir()
        monkeypatch.chdir(base)
        assert bench_record.bench_run("design-sweep", 1, 0, Path("change")) == ("m", {"ok": 1})
        ((args, cwd, env),) = calls
        # absolute paths, so that cwd=root does not apply the relative root a second time
        assert Path(args[1]) == base / "change" / "bench" / "run.py"
        assert Path(env["PYTHONPATH"].split(os.pathsep)[0]) == base / "change" / "src"
        assert Path(cwd) == base / "change"
