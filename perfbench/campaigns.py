"""Seeded campaign generation and per-campaign correctness gates.

A campaign is one ``kerrbell.cli.run(ExperimentSpec(**spec))`` call.  Every
campaign's spec is a pure function of (workload, benchmark seed, campaign
index), so the program only ever sees the generated specs.  Campaigns come
in fixed cycles so that each run holds the same mix of campaign kinds
whatever the seed; the benchmark measures whole cycles only.

The gates check each report against exact or binomial expectations that the
benchmark computes itself, independently of the program's own formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import bdtr, bdtrc

# The three pinned operating points.
PAPER_POINT = {"theta": 0.1, "alpha": math.sqrt(1.3e4)}  # epsilon ~ 0.01
THRESHOLD_POINT = {"theta": 0.3, "alpha": 1.5 / 0.3**2}  # alpha*theta^2 = 1.5
GRID_POINT = {"theta": math.pi / 4.0, "alpha": 1e3}  # ~200k-point sampling grid

ORACLE_ALPHAS = (4.0, 3.0, 2.0)  # largest first: the untimed memory pass runs campaign 0
BELL_LABELS = ("PsiMinus", "PsiPlus", "PhiMinus", "PhiPlus")

# A gate rejects a count whose binomial tail probability is below this.  At
# ~1e5 checks over all runs of all workloads a false rejection is ~1e-4
# likely, while a count moved by 10 sigma is always caught.
GATE_TAIL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-10
ORACLE_TOL = 1e-8

_R = 1.0 / math.sqrt(2.0)
_SINGLET = np.array([0.0, _R, -_R, 0.0])


# Campaigns per cycle for each workload; runs measure whole cycles.  Why each
# workload exists is in README.md and BENCHMARK.json.
WORKLOADS = {
    "paper_symmetry": 12,  # (random, random, Bell state) for each Bell state
    "threshold_bell": 2,  # early exit, then no-early-exit with omit-final
    "wide_grid": 1,
    "oracle_ref": 3,  # alpha 4, 3, 2
}

# Campaign sizes put a 10-second run at a few hundred campaigns on every
# workload, inside one decade of the tail-percentile ladder (100 to 1000
# campaigns report p90) even when the machine runs twice as fast or slow.
# The two bell policies get counts that make their campaigns take about
# equally long, so the campaign-time median does not sit between two modes.
# The oracle checks use a finer density grid to reach that size.
SYMMETRY_TRIALS = 50
WIDE_GRID_TRIALS = 1
BELL_EARLY_TRIALS = 6
BELL_FULL_TRIALS = 5
ORACLE_GRID_STEP = 0.002


@dataclass(frozen=True)
class Campaign:
    index: int
    spec: dict  # keyword arguments of kerrbell.cli.ExperimentSpec
    trials: int  # symmetry shots, bell identifications or oracle Bell inputs


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _random_mixed_input(rng: np.random.Generator) -> str:
    """Four complex amplitudes of a state with both symmetry sectors populated."""
    while True:
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        p_s = singlet_weight(amps)
        if 0.01 <= p_s <= 0.99:
            return ",".join(repr(complex(a)) for a in amps)


def campaign(workload: str, seed: int, index: int) -> Campaign:
    """The index-th campaign of a workload; a pure function of its arguments."""
    rng = _rng(seed, index)
    spec_seed = int(rng.integers(0, 2**31))
    if workload == "paper_symmetry":
        pos = index % WORKLOADS[workload]
        text = BELL_LABELS[pos // 3] if pos % 3 == 2 else _random_mixed_input(rng)
        spec = dict(PAPER_POINT, command="symmetry", input=text, trials=SYMMETRY_TRIALS)
        trials = SYMMETRY_TRIALS
    elif workload == "threshold_bell":
        early = index % 2 == 0
        n = BELL_EARLY_TRIALS if early else BELL_FULL_TRIALS
        spec = dict(THRESHOLD_POINT, command="bell", trials=n)
        if not early:
            spec.update(early_exit=False, omit_final=True)
        trials = n * len(BELL_LABELS)
    elif workload == "wide_grid":
        text = _random_mixed_input(rng)
        spec = dict(GRID_POINT, command="symmetry", input=text, trials=WIDE_GRID_TRIALS)
        trials = WIDE_GRID_TRIALS
    elif workload == "oracle_ref":
        theta = (math.pi / 4.0) * (1.0 - float(rng.random()))  # in (0, pi/4]
        alpha = ORACLE_ALPHAS[index % len(ORACLE_ALPHAS)]
        spec = dict(
            command="oracle-check", theta=theta, alpha=alpha, trials=1, grid_step=ORACLE_GRID_STEP
        )
        trials = len(BELL_LABELS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec["seed"] = spec_seed
    return Campaign(index, spec, trials)


def singlet_weight(amps) -> float:
    """|<Psi-|q>|^2 of normalized HH, HV, VH, VV amplitudes."""
    return float(abs(np.dot(_SINGLET, np.asarray(amps, dtype=complex))) ** 2)


def input_singlet_weight(text: str) -> float:
    if text in BELL_LABELS:
        return 1.0 if text == "PsiMinus" else 0.0
    amps = np.array([complex(p) for p in text.split(",")])
    return singlet_weight(amps / np.linalg.norm(amps))


def exact_error(theta: float, alpha: float) -> float:
    """Misclassification probability of the midpoint rule between the two peaks."""
    return 0.5 * math.erfc(alpha * (1.0 - math.cos(2.0 * theta)) / math.sqrt(2.0))


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    lower = float(bdtr(k, n, p))
    upper = 1.0 if k == 0 else float(bdtrc(k - 1, n, p))
    return lower, upper


class Checker:
    """Per-campaign gates, plus one pooled gate over all campaigns of a run.

    Each per-campaign check returns a list of problems (empty when the report
    passes).  Campaigns of a few trials give a weak binomial test, so the
    counts are also pooled and tested once with a normal bound in ``finish``.
    """

    POOLED_Z = 6.0

    def __init__(self, workload: str) -> None:
        self._observed = 0.0
        self._mean = 0.0
        self._var = 0.0
        self._upper_only = workload == "threshold_bell"

    def check(self, spec: dict, report: dict) -> list[str]:
        if spec["command"] == "symmetry":
            return self._symmetry(spec, report)
        if spec["command"] == "bell":
            return self._bell(spec, report)
        return self._oracle(report)

    def _pool(self, observed: float, n: int, p: float) -> None:
        self._observed += observed
        self._mean += n * p
        self._var += n * p * (1.0 - p)

    def _symmetry(self, spec: dict, report: dict) -> list[str]:
        problems = []
        n = spec["trials"]
        counts = report["counts"]
        k = counts["Singlet"]
        if k + counts["Triplet"] != n:
            problems.append(f"counts {counts} do not sum to {n} trials")
        p_s = input_singlet_weight(spec["input"])
        eps = exact_error(spec["theta"], spec["alpha"])
        p = p_s * (1.0 - eps) + (1.0 - p_s) * eps
        lower, upper = binomial_tails(k, n, p)
        if min(lower, upper) < GATE_TAIL:
            problems.append(
                f"Singlet count {k}/{n} is improbable under p={p:.6g} "
                f"(tails {lower:.3g}, {upper:.3g})"
            )
        if spec["input"] in BELL_LABELS:
            fid = report["mean_post_fidelity_vs_input"]
            if not fid >= FIDELITY_FLOOR:
                problems.append(f"Bell input disturbed: mean post fidelity {fid!r}")
        self._pool(k, n, p)
        return problems

    def _bell(self, spec: dict, report: dict) -> list[str]:
        problems = []
        n = spec["trials"]
        omit_final = spec.get("omit_final", False)
        k_analyzers = 3 if omit_final else 4
        p_err = min(1.0, k_analyzers * exact_error(spec["theta"], spec["alpha"]))
        for row in report["results"]:
            name = row["input"]
            total = sum(row["label_rates"].values())
            if abs(total - 1.0) > 1e-12:
                problems.append(f"{name}: label rates sum to {total!r}")
            if sum(row["label_counts"].values()) != n:
                problems.append(f"{name}: label counts do not sum to {n}")
            mean_count = row["mean_analyzer_count"]
            if not 1.0 <= mean_count <= k_analyzers:
                problems.append(f"{name}: mean analyzer count {mean_count!r}")
            if row["true_label"] != name:
                problems.append(f"{name}: true label {row['true_label']!r}")
                continue
            errors = n - row["label_counts"][name]
            _, upper = binomial_tails(errors, n, p_err)
            if upper < GATE_TAIL:
                problems.append(
                    f"{name}: {errors}/{n} wrong labels exceed the union bound "
                    f"{p_err:.4g} (tail {upper:.3g})"
                )
            self._pool(errors, n, p_err)
        return problems

    def _oracle(self, report: dict) -> list[str]:
        problems = []
        if report["passed"] is not True:
            problems.append("oracle-check did not pass")
        for key in ("max_density_deviation", "max_collapse_deviation"):
            if not report[key] < ORACLE_TOL:
                problems.append(f"{key} = {report[key]!r}")
        return problems

    def finish(self) -> list[str]:
        """The pooled gate over every campaign checked so far."""
        if self._var == 0.0 and self._mean == 0.0:
            return []
        slack = self.POOLED_Z * math.sqrt(self._var) + 1.0
        excess = self._observed - self._mean
        if excess > slack or (not self._upper_only and -excess > slack):
            return [
                f"pooled count {self._observed:g} vs expected {self._mean:.6g} "
                f"exceeds {self.POOLED_Z:g} sigma"
            ]
        return []
