#!/usr/bin/env python3
"""Benchmark a base revision against the working tree in alternating pairs.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs 10 --out BENCH_<tag>.json
    python3 tools/bench_pairs.py --base HEAD --workloads paper_symmetry wide_grid --pairs 3 --out /tmp/b.json

REV is extracted with ``git archive`` into one temporary directory and the
working tree's tracked files (``git ls-files``, as they are on disk) are
copied into another, so both sides run from the same kind of checkout and the
run leaves nothing behind in the repository.  For each workload and pair the
unmodified benchmark

    python3 <checkout>/perfbench/run.py --workload W --seed S --seconds T --trace 0

runs once on each checkout, from its own root, with T the benchmark's
``run_seconds`` from BENCHMARK.json.  Even pairs run the base first and odd
pairs the working tree first, so a drift in the machine's speed falls on both
sides alike.  Runs go one at a time.  A run that exits non-zero or fails a
campaign stops the tool.

The output file holds both commits, the environment, every run's metrics,
campaign count and tail percentile (a pair whose two runs read different tail
percentiles says so), and for each end-to-end metric of BENCHMARK.json each
side's median and quartiles, the ratio of medians (working tree / base), the
pairs the working tree won and lost, and a verdict:

- "regression": the working tree's median is worse than the base's by more
  than the metric's bound, as a fraction of the base median;
- "gain": over at least 10 pairs, the working tree won at least 9 in 10 of
  them (ties count for neither side) and the medians differ by more than the
  base's interquartile range;
- "unresolved": neither, and one side's interquartile range exceeds the
  bound, unless every run of the working tree beats every run of the base;
- "within bound": otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10  # fewest pairs that can show a gain
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), linearly interpolated between the sorted values."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def summarize(pairs: list[dict], metric: dict) -> dict:
    """One end-to-end metric over pairs of {"base": run, "change": run}, each
    run holding a "metrics" dict; metric is its BENCHMARK.json entry."""
    name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
    base = [p["base"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    b_q1, b_med, b_q3 = quartiles(base)
    c_q1, c_med, c_q3 = quartiles(change)
    won = sum(_better(c, b, higher) for b, c in zip(base, change))
    lost = sum(_better(b, c, higher) for b, c in zip(base, change))
    worse = (b_med - c_med if higher else c_med - b_med) / b_med if b_med else 0.0
    spread = max(b_q3 - b_q1, c_q3 - c_q1) / b_med if b_med else 0.0
    if worse > bound:
        verdict = "regression"
    elif (
        len(pairs) >= MIN_PAIRS
        and won >= WIN_SHARE * len(pairs)
        and worse < 0.0
        and abs(c_med - b_med) > b_q3 - b_q1
    ):
        verdict = "gain"
    elif spread > bound and not _better(min(change) if higher else max(change),
                                        max(base) if higher else min(base), higher):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": bound,
        "base": {"q1": b_q1, "median": b_med, "q3": b_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "ratio_of_medians": c_med / b_med if b_med else math.nan,
        "pairs": len(pairs),
        "pairs_won": won,
        "pairs_lost": lost,
        "verdict": verdict,
    }


def pair_record(base: dict, change: dict, first: str) -> dict:
    record = {"first": first, "base": base, "change": change}
    if base["tail"] != change["tail"]:
        record["note"] = f"tail percentiles differ: base {base['tail']}, change {change['tail']}"
    return record


def _git(*args: str, root: Path = ROOT) -> str:
    return subprocess.run(
        ["git", "-C", str(root), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def extract(rev: str, dest: Path) -> None:
    """The files of rev, as committed, under dest."""
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev], check=True, capture_output=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def copy_tracked(dest: Path, root: Path = ROOT) -> None:
    """The tracked files of the working tree at root, as they are on disk,
    under dest; a tracked file deleted from the working tree is left out."""
    names = _git("ls-files", "-z", root=root).split("\0")
    for name in filter(None, names):
        if os.path.lexists(root / name):
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name, follow_symlinks=False)


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run on the checkout: its metrics, campaign counts and tail."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"error: {workload} on {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} on {checkout} failed a check:\n{proc.stdout}")
    detail = json.loads(
        (checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text()
    )
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "tail": detail["notes"]["campaign_ms_tail"].split()[0],
        "wall_s": round(wall, 2),
    }


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="perfbench's workload seed")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seconds = float(bench["run_seconds"])
    record = {
        "base": {"rev": args.base, "commit": _git("rev-parse", args.base)},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(_git("status", "--porcelain", "--untracked-files=no")),
        },
        "command": f"perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
        "environment": environment(),
        "workloads": {},
    }
    with (
        tempfile.TemporaryDirectory(prefix="bench-base-") as base_tmp,
        tempfile.TemporaryDirectory(prefix="bench-change-") as change_tmp,
    ):
        base_root, change_root = Path(base_tmp), Path(change_tmp)
        extract(args.base, base_root)
        copy_tracked(change_root)
        for workload in args.workloads:
            pairs = []
            for i in range(args.pairs):
                sides = [("base", base_root), ("change", change_root)]
                if i % 2:
                    sides.reverse()
                runs = {side: run_once(root, workload, args.seed, seconds) for side, root in sides}
                pairs.append(pair_record(runs["base"], runs["change"], sides[0][0]))
                print(f"{workload} pair {i + 1}/{args.pairs}: " + "  ".join(
                    f"{side} {runs[side]['metrics'][bench['end_to_end'][0]['name']]:.6g}"
                    for side in ("base", "change")), file=sys.stderr)
            summary = {m["name"]: summarize(pairs, m) for m in bench["end_to_end"]}
            record["workloads"][workload] = {"summary": summary, "pairs": pairs}
            for name, s in summary.items():
                print(f"{workload:15s} {name:16s} {s['base']['median']:12.6g} -> "
                      f"{s['change']['median']:12.6g}  x{s['ratio_of_medians']:.3f}  "
                      f"won {s['pairs_won']}/{s['pairs']}  {s['verdict']}")
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
