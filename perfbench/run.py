#!/usr/bin/env python3
"""kerrbell benchmark: seeded CLI campaigns in a closed loop on one thread.

    python3 perfbench/run.py --workload paper_symmetry --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout that holds ``src/kerrbell``; it imports
the package from there and from nowhere else.  Each campaign is one
``kerrbell.cli.run(ExperimentSpec)`` call whose spec is generated from the
seed; the next campaign starts when the previous one has returned.

Times are rescaled to a reference machine speed (see ``speed.py``), because
shared hosts change speed under outside load; the printout also shows the
raw figures.  ``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` runs half the time untraced and half traced, and reports
per-layer metrics from spans recorded around the calls into kerrbell's
modules.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.  The lines before it print every metric with its unit and
sample count; the full result, with the environment, goes to
``perfbench/out/``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads: the oracle's matrix products
# would otherwise use as many threads as there are cores.
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from campaigns import WORKLOADS, Campaign, Checker, campaign  # noqa: E402
from campaigns import input_singlet_weight  # noqa: E402
from spans import UNITS, Tracer, layer_metrics, snapshot  # noqa: E402
from speed import REFERENCE_SECONDS, adjusted, kernel_median, reference_kernel  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 7  # fresh interpreters per run; setup_s is their median
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)  # decades, so the choice rarely flips
MIN_BEYOND = 10  # campaigns a reported percentile must have beyond it
SAMPLER_PAD = 8.0  # the grid sampler's +/- pad around the pointer centres
MAX_REPORTED_FAILURES = 5

# Run in a fresh interpreter: the clock starts before ``import kerrbell``
# and stops after a 1-trial campaign, so numpy/scipy imports and first-call
# caches are inside it.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import json
import kerrbell
from kerrbell.cli import ExperimentSpec, run
run(ExperimentSpec(**json.loads(sys.argv[2])))
print(repr(time.perf_counter() - t0))
"""


@dataclass
class Phase:
    """Campaigns run back to back for a fixed time, in whole cycles."""

    campaigns: list[Campaign] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    kernel_seconds: list[float] = field(default_factory=list)  # reference kernel before each
    failures: list[tuple[int, list[str]]] = field(default_factory=list)
    first_report: str | None = None  # sorted-key JSON of the phase's first campaign
    next_index: int = 0

    @property
    def trials_done(self) -> int:
        failed = {i for i, _ in self.failures}
        return sum(c.trials for c in self.campaigns if c.index not in failed)

    @property
    def adjusted_seconds(self) -> np.ndarray:
        return adjusted(self.seconds, self.kernel_seconds)

    @property
    def trials_per_s(self) -> float:
        return self.trials_done / float(self.adjusted_seconds.sum())

    @property
    def raw_trials_per_s(self) -> float:
        return self.trials_done / sum(self.seconds)


def load_cli():
    """Import kerrbell from this checkout's src/, or stop with an error."""
    if not (SRC / "kerrbell" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'kerrbell'} not found; run from a kerrbell checkout")
    sys.path.insert(0, str(SRC))
    import kerrbell
    import kerrbell.cli

    if SRC not in Path(kerrbell.__file__).resolve().parents:
        raise SystemExit(f"error: imported kerrbell from {kerrbell.__file__}, not {SRC}")
    return kerrbell.cli


def run_campaign(cli, camp: Campaign, checker: Checker, tracer=None):
    """One campaign: its wall time, sorted-key report bytes (or None), problems."""
    from kerrbell.errors import InvalidSpec, KerrBellError

    spec = cli.ExperimentSpec(**camp.spec)
    if tracer is not None:
        tracer.campaign = camp.index
    start = time.perf_counter()
    try:
        report = cli.run(spec)
    except Exception as exc:  # a failed campaign is counted, not fatal
        elapsed = time.perf_counter() - start
        code = 2 if isinstance(exc, InvalidSpec) else 3 if isinstance(exc, KerrBellError) else 1
        traceback.print_exc(file=sys.stderr)
        return elapsed, None, [f"raised {type(exc).__name__} (exit code {code}): {exc}"]
    elapsed = time.perf_counter() - start
    try:
        problems = checker.check(camp.spec, report)
    except (KeyError, TypeError) as exc:  # a report without the fields a gate reads
        problems = [f"report cannot be checked: {exc!r}"]
    return elapsed, json.dumps(report, sort_keys=True), problems


def measure(cli, workload: str, seed: int, seconds: float, first: int, checker, tracer=None) -> Phase:
    phase = Phase(next_index=first)
    cycle = WORKLOADS[workload]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for _ in range(cycle):
            camp = campaign(workload, seed, phase.next_index)
            phase.kernel_seconds.append(reference_kernel())
            elapsed, report, problems = run_campaign(cli, camp, checker, tracer)
            phase.campaigns.append(camp)
            phase.seconds.append(elapsed)
            if problems:
                phase.failures.append((camp.index, problems))
            if camp.index == first:
                phase.first_report = report
            phase.next_index += 1
    return phase


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def setup_seconds(spec: dict) -> tuple[list[float], list[float]]:
    """setup_s samples, raw and speed-adjusted, each from a fresh interpreter.

    The kernel runs in this warm process just before and after each child,
    since kernel times taken inside a fresh interpreter scatter widely.
    """
    args = json.dumps(dict(spec, trials=1))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = kernel_median()
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(SRC), args],
            capture_output=True,
            text=True,
            timeout=150,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        elapsed = float(proc.stdout.split()[-1])
        kernel = 0.5 * (before + kernel_median())
        raw.append(elapsed)
        scaled.append(elapsed * REFERENCE_SECONDS / kernel)
    return raw, scaled


def peak_alloc_and_bytes(cli, camp: Campaign, checker: Checker) -> tuple[float, str | None]:
    """tracemalloc peak (MB) of one untimed campaign, and its report bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _, report, problems = run_campaign(cli, camp, checker)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, report if not problems else None


def grid_points(camps: list[Campaign]) -> float:
    """Computed sampler grid size per sample_homodyne call.

    The seed sampler's grid spans the pointer centres +/- 8 at the spec's
    grid step.  Balanced (singlet) branches sit at 2*alpha, bunched
    (triplet) ones at 2*alpha*cos(2*theta).  Bell-detector analyzers see
    Bell states only, so each of their grids has one centre.
    """
    total = calls = 0.0
    for c in camps:
        spec = c.spec
        if spec["command"] == "oracle-check":
            continue
        two_a = 2.0 * spec["alpha"]
        if spec["command"] == "bell":
            span = 0.0
        else:
            p_s = input_singlet_weight(spec["input"])
            span = two_a * (1.0 - math.cos(2.0 * spec["theta"])) if 0.0 < p_s < 1.0 else 0.0
        step = spec.get("grid_step", 0.01)
        total += c.trials * max(2, math.ceil((span + 2.0 * SAMPLER_PAD) / step) + 1)
        calls += c.trials
    return total / calls if calls else 0.0


def oracle_n_max(camps: list[Campaign]) -> float:
    """Mean probe truncation of the oracle campaigns, from OracleConfig."""
    from kerrbell import OracleConfig

    values = [
        OracleConfig(alpha=c.spec["alpha"], theta=c.spec["theta"]).resolved_n_max
        for c in camps
        if c.spec["command"] == "oracle-check"
    ]
    return sum(values) / len(values) if values else 0.0


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "threads": {var: os.environ[var] for var in PINNED_THREADS},
    }


def end_to_end(cli, workload: str, seed: int, seconds: float, checker, problems) -> tuple[dict, Phase]:
    first = campaign(workload, seed, 0)
    setup_raw, setup = setup_seconds(first.spec)
    _, warm_bytes, warm_problems = run_campaign(cli, first, checker)
    problems += warm_problems
    phase = measure(cli, workload, seed, seconds, 0, checker)
    peak_mb, peak_bytes = peak_alloc_and_bytes(cli, first, checker)
    if not warm_bytes == phase.first_report == peak_bytes:
        problems.append("re-running campaign 0 did not give byte-identical reports")
    n = len(phase.seconds)
    tail_p = tail_percentile(n)
    ms = phase.adjusted_seconds * 1e3
    raw_ms = np.array(phase.seconds) * 1e3
    metrics = {
        "trials_per_s": (
            phase.trials_per_s,
            "1/s",
            f"{phase.trials_done} trials, {n} campaigns; raw {phase.raw_trials_per_s:.6g}",
        ),
        "campaign_ms_p50": (
            float(np.percentile(ms, 50.0)),
            "ms",
            f"p50 of {n} campaigns; raw {np.percentile(raw_ms, 50.0):.6g}",
        ),
        "campaign_ms_tail": (
            float(np.percentile(ms, tail_p)),
            "ms",
            f"p{tail_p:g} of {n} campaigns; raw {np.percentile(raw_ms, tail_p):.6g}",
        ),
        "setup_s": (
            statistics.median(setup),
            "s",
            f"median of {len(setup)} fresh processes; raw {statistics.median(setup_raw):.6g}",
        ),
        "peak_alloc_mb": (peak_mb, "MB", "tracemalloc peak of campaign 0, untimed"),
    }
    return metrics, phase


def per_layer(cli, workload: str, seed: int, seconds: float, checker, problems) -> tuple[dict, Phase]:
    first = campaign(workload, seed, 0)
    _, warm_bytes, warm_problems = run_campaign(cli, first, checker)
    problems += warm_problems
    plain = measure(cli, workload, seed, seconds / 2.0, 0, checker)
    if warm_bytes != plain.first_report:
        problems.append("re-running campaign 0 did not give byte-identical reports")

    before = snapshot()
    with Tracer() as tracer:
        traced = measure(cli, workload, seed, seconds / 2.0, plain.next_index, checker, tracer)
    after = snapshot()
    if any(after[k] is not before[k] for k in before):
        problems.append("tracer left a wrapped kerrbell name in place")

    trials = sum(c.trials for c in traced.campaigns)
    wall_ns = int(sum(traced.seconds) * 1e9)
    note = f"{len(tracer.spans)} spans, {trials} trials"
    metrics = {
        key: (value, UNITS[key.rsplit(".", 1)[1]], note)
        for key, value in layer_metrics(tracer, trials, wall_ns).items()
    }
    metrics["pointer.sample_homodyne.grid_points"] = (grid_points(traced.campaigns), "count", "computed")
    metrics["oracle.n_max"] = (oracle_n_max(traced.campaigns), "count", "computed")
    overhead = 1.0 - traced.trials_per_s / plain.trials_per_s
    metrics["trace_overhead_frac"] = (overhead, "fraction", f"traced {traced.trials_per_s:.6g}/s vs {plain.trials_per_s:.6g}/s")
    tracer.write_jsonl(OUT / f"spans-{workload}-seed{seed}.jsonl")
    return metrics, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # One CPU for the benchmark and its set-up children, so the reference
    # kernel always measures the CPU that ran the timed work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = load_cli()
    checker = Checker(args.workload)
    problems: list[str] = []
    measure_fn = per_layer if args.trace else end_to_end
    metrics, phase = measure_fn(cli, args.workload, args.seed, args.seconds, checker, problems)
    problems += checker.finish()
    attempted = len(phase.campaigns)
    failed = len(phase.failures)

    print(f"kerrbell benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit:9s} {note}")
    print(f"  {'failed_frac':44s} {failed / attempted:14.6g} {'fraction':9s} {failed}/{attempted} campaigns")
    for index, why in phase.failures[:MAX_REPORTED_FAILURES]:
        print(f"  campaign {index} failed: {'; '.join(why)}")
    for why in problems:
        print(f"  check failed: {why}")
    env = environment()
    print("  env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        notes={name: note for name, (_, _, note) in metrics.items()},
        failures=phase.failures,
        problems=problems,
        environment=env,
    )
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
