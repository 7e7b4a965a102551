"""The paired-benchmark tool's summary arithmetic on fixed, fake run results,
and its copy of the working tree."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

RATE = {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
P50 = {"name": "campaign_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25}


def _run(tail="p99.9", **metrics):
    return {"metrics": metrics, "attempted": 100, "failed": 0, "tail": tail, "wall_s": 11.0}


def _pairs(base, change, name="trials_per_s"):
    return [
        bench_pairs.pair_record(_run(**{name: b}), _run(**{name: c}), "base")
        for b, c in zip(base, change)
    ]


def test_quartiles_interpolate_between_sorted_values():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_in_ten_pairs_and_a_median_step_beyond_the_base_spread():
    base = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]
    change = [125.0] * 9 + [109.0]  # the last pair is a tie
    s = bench_pairs.summarize(_pairs(base, change), RATE)
    assert s["base"] == {"q1": 102.25, "median": 104.5, "q3": 106.75}
    assert s["change"]["median"] == 125.0
    assert s["ratio_of_medians"] == pytest.approx(125.0 / 104.5)
    assert (s["pairs"], s["pairs_won"], s["pairs_lost"]) == (10, 9, 0)
    assert s["verdict"] == "gain"
    change[0] = 99.0  # 8 of 10 won
    s = bench_pairs.summarize(_pairs(base, change), RATE)
    assert (s["pairs_won"], s["pairs_lost"], s["verdict"]) == (8, 1, "within bound")


def test_a_small_step_inside_the_base_spread_is_no_gain():
    base = [100.0, 110.0, 90.0, 105.0, 95.0]
    change = [b + 1.0 for b in base]  # wins every pair, moves the median by 1
    s = bench_pairs.summarize(_pairs(base, change), RATE)
    assert s["pairs_won"] == 5
    assert s["verdict"] == "within bound"


def test_lower_is_better_metrics_and_the_regression_bound():
    base = [10.0] * 10
    s = bench_pairs.summarize(_pairs(base, [12.4] * 10, "campaign_ms_p50"), P50)
    assert (s["pairs_won"], s["pairs_lost"], s["verdict"]) == (0, 10, "within bound")
    s = bench_pairs.summarize(_pairs(base, [12.6] * 10, "campaign_ms_p50"), P50)
    assert s["verdict"] == "regression"
    s = bench_pairs.summarize(_pairs(base, [8.0] * 10, "campaign_ms_p50"), P50)
    assert (s["pairs_won"], s["ratio_of_medians"], s["verdict"]) == (10, 0.8, "gain")


def test_fewer_than_ten_pairs_show_no_gain():
    s = bench_pairs.summarize(_pairs([10.0] * 9, [8.0] * 9, "campaign_ms_p50"), P50)
    assert (s["pairs_won"], s["verdict"]) == (9, "within bound")


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_run_wins():
    base = [10.0, 5.0, 15.0, 8.0]  # interquartile range 4 on a median of 9
    s = bench_pairs.summarize(_pairs(base, [9.0, 4.0, 16.0, 9.0]), RATE)
    assert s["verdict"] == "unresolved"
    s = bench_pairs.summarize(_pairs(base, [16.0, 17.0, 18.0, 20.0]), RATE)
    assert s["verdict"] == "within bound"


def test_a_pair_notes_different_tail_percentiles():
    same = bench_pairs.pair_record(_run(), _run(), "change")
    assert same["first"] == "change" and "note" not in same
    differ = bench_pairs.pair_record(_run(tail="p99"), _run(tail="p99.9"), "base")
    assert differ["note"] == "tail percentiles differ: base p99, change p99.9"


def test_copy_tracked_takes_tracked_files_as_they_are_on_disk(tmp_path):
    # A fresh repository with staged files and no commit: the copy needs no history.
    repo, dest = tmp_path / "repo", tmp_path / "dest"
    (repo / "pkg").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    for name in ("a.txt", "pkg/b.py", "gone.txt"):
        (repo / name).write_text(f"staged {name}\n")
    subprocess.run(["git", "-C", str(repo), "add", "."], check=True)
    (repo / "pkg" / "b.py").write_text("edited\n")
    (repo / "gone.txt").unlink()
    (repo / "untracked.txt").write_text("not tracked\n")
    bench_pairs.copy_tracked(dest, repo)
    copied = sorted(p.relative_to(dest).as_posix() for p in dest.rglob("*") if p.is_file())
    assert copied == ["a.txt", "pkg/b.py"]
    assert (dest / "a.txt").read_text() == "staged a.txt\n"
    assert (dest / "pkg" / "b.py").read_text() == "edited\n"
