"""Experiment runner: Monte Carlo campaigns, sweeps, and oracle validation.

Every command is deterministic for a fixed seed and emits a JSON report whose
"spec" block echoes the fully resolved experiment parameters.  Where density
or sweep data applies, a CSV sits next to the JSON file.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, KerrBellError
from .fock_core import (
    BellLabel,
    TwoQubitState,
    apply_beam_splitter,
    bell_state,
    embed,
    fidelity,
    fidelity_amps,
    normalized_amps,
)
from .pointer import collapse, density_grid, homodyne_density
from .analyzers import (
    ANALYZER_WEIGHTS,
    AnalyzerConfig,
    Classification,
    Symmetry,
    check_domain,
    error_probability,
    shot,
    symmetry_pointer,
    two_mode_amps,
    two_mode_fidelity,
    two_mode_pointer,
    two_mode_shot,
)
from .bell_detector import DetectionPolicy, bell_detect, ideal_label
from .oracle import OracleConfig, full_fock_reference

DEFAULT_ALPHA = math.sqrt(1.3e4)
COMMANDS = ("demo2mode", "symmetry", "bell", "sweep", "oracle-check")
_LABELS = {label.value: label for label in BellLabel}
_BELL_NAMES = tuple((label, label.value) for label in BellLabel)  # in report order
_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass
class ExperimentSpec:
    """Fully resolved parameters of one experiment run."""

    command: str
    theta: float = 0.1
    alpha: float = DEFAULT_ALPHA
    trials: int = 1000
    seed: int = 0
    input: str | None = None
    sign: int = 1
    early_exit: bool = True
    omit_final: bool = False
    ideal: bool = False
    out: str | None = None
    grid_step: float = 0.01
    targets: str = "1.0,1.2,1.5"

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise InvalidSpec(f"unknown command {self.command!r}")
        if self.trials < 1:
            raise InvalidSpec(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        check_domain(self.theta, self.alpha, self.grid_step)
        if self.sign not in (1, -1):
            raise InvalidSpec(f"sign must be +1 or -1, got {self.sign!r}")
        if self.command == "oracle-check" and self.alpha > 4.0:
            raise InvalidSpec("oracle-check requires alpha <= 4")


def _analyzer_config(spec: ExperimentSpec, alpha: float | None = None) -> AnalyzerConfig:
    """The spec's operating point, or the spec's theta with another alpha."""
    return AnalyzerConfig(theta=spec.theta, alpha=spec.alpha if alpha is None else alpha)


def _analytic_errors(theta: float, alpha: float) -> dict:
    return {
        "small_angle": error_probability(theta, alpha, "small-angle"),
        "exact": error_probability(theta, alpha, "exact"),
    }


def _parse_complex_list(text: str, expected: int, what: str) -> list[complex]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != expected:
        raise InvalidSpec(f"{what} needs {expected} comma-separated values, got {text!r}")
    try:
        values = [complex(p) for p in parts]
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse {what} from {text!r}: {exc}") from exc
    if not all(cmath.isfinite(v) for v in values):
        raise InvalidSpec(f"{what} amplitudes must be finite, got {text!r}")
    return values


def _parse_qubit_input(text: str | None) -> tuple[TwoQubitState, str]:
    """A Bell label, or four comma-separated complex amplitudes (HH,HV,VH,VV)."""
    if text is None:
        text = BellLabel.PSI_MINUS.value
    if text in _LABELS:
        return bell_state(_LABELS[text]), text
    amps = _parse_complex_list(text, 4, "input state")
    try:
        state = TwoQubitState.normalized(amps)
    except ValueError as exc:
        raise InvalidSpec(f"cannot normalize input state {text!r}: {exc}") from exc
    return state, text


def _parse_demo_input(text: str | None) -> tuple[complex, complex]:
    if text is None:
        r = 1.0 / math.sqrt(2.0)
        return complex(r), complex(r)
    amps = _parse_complex_list(text, 2, "demo input")
    try:
        d1, d2 = normalized_amps(amps)
    except ValueError as exc:
        raise InvalidSpec(f"cannot normalize demo input {text!r}: {exc}") from exc
    return d1, d2


def _rate_ci(successes: int, trials: int) -> dict:
    p = successes / trials
    half = _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return {
        "rate": p,
        "ci_low": max(0.0, p - half),
        "ci_high": min(1.0, p + half),
    }


def _write_json(report: dict, out: str | None) -> None:
    if out is None:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: str, rows: list[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [header]
    lines += [",".join(repr(float(v)) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _sidecar(out: str | None, suffix: str) -> Path | None:
    if out is None:
        return None
    path = Path(out)
    return path.with_name(path.stem + suffix)


def _density_csv(pointer, spec: ExperimentSpec) -> str | None:
    """Write the density CSV next to the report; pointer() is built only then."""
    path = _sidecar(spec.out, "_density.csv")
    if path is None:
        return None
    xs, ps = density_grid(pointer(), step=spec.grid_step)
    _write_csv(path, "x,p", list(zip(xs, ps)))
    return str(path)


def _run_demo2mode(spec: ExperimentSpec) -> dict:
    d1, d2 = _parse_demo_input(spec.input)
    cfg = _analyzer_config(spec)
    csv_path = _density_csv(lambda: two_mode_pointer(d1, d2, spec.sign, cfg), spec)
    rng = np.random.default_rng(spec.seed)
    amps = two_mode_amps(d1, d2, spec.sign)
    balanced_target = two_mode_amps(1, 0, spec.sign)  # |1,1>
    bunched_target = two_mode_amps(0, 1, spec.sign)  # (|2,0> + sign*|0,2>)/sqrt2
    n_balanced = 0
    fid_balanced = fid_bunched = 0.0
    for _ in range(spec.trials):
        balanced, post = two_mode_shot(amps, cfg, rng)
        if balanced:
            n_balanced += 1
            fid_balanced += two_mode_fidelity(post, balanced_target)
        else:
            fid_bunched += two_mode_fidelity(post, bunched_target)
    counts = {
        Classification.BALANCED.value: n_balanced,
        Classification.BUNCHED.value: spec.trials - n_balanced,
    }
    fid_sums = dict(zip(counts, (fid_balanced, fid_bunched)))
    report = {
        "spec": dict(vars(spec)),
        "counts": counts,
        "rates": {
            c: _rate_ci(n, spec.trials) for c, n in counts.items()
        },
        "analytic_error_probability": _analytic_errors(spec.theta, spec.alpha),
        "mean_conditional_fidelity": {
            c: (fid_sums[c] / n if n else None) for c, n in counts.items()
        },
    }
    if csv_path:
        report["density_csv"] = csv_path
    return report


def _true_symmetry(q: TwoQubitState) -> str | None:
    p_singlet = fidelity(q, bell_state(BellLabel.PSI_MINUS))
    if p_singlet >= 1.0 - 1e-9:
        return Symmetry.SINGLET.value
    if p_singlet <= 1e-9:
        return Symmetry.TRIPLET.value
    return None


def _run_symmetry(spec: ExperimentSpec) -> dict:
    q, input_text = _parse_qubit_input(spec.input)
    cfg = _analyzer_config(spec)
    csv_path = _density_csv(lambda: symmetry_pointer(q, cfg), spec)
    rng = np.random.default_rng(spec.seed)
    true_symmetry = _true_symmetry(q)
    amps, ideal = q.amps, spec.ideal
    n_singlet = 0
    fid_sum = 0.0
    for _ in range(spec.trials):
        singlet, post = shot(amps, cfg, rng, ideal)
        n_singlet += singlet
        fid_sum += fidelity_amps(post, amps)
    counts = {Symmetry.SINGLET.value: n_singlet, Symmetry.TRIPLET.value: spec.trials - n_singlet}
    report = {
        "spec": dict(vars(spec)),
        "input": input_text,
        "true_symmetry": true_symmetry,
        "counts": counts,
        "rates": {s: _rate_ci(n, spec.trials) for s, n in counts.items()},
        "analytic_error_probability": _analytic_errors(spec.theta, spec.alpha),
        "mean_post_fidelity_vs_input": fid_sum / spec.trials,
    }
    if true_symmetry is not None:
        report["empirical_error"] = _rate_ci(spec.trials - counts[true_symmetry], spec.trials)
    if csv_path:
        report["density_csv"] = csv_path
    return report


def _run_bell(spec: ExperimentSpec) -> dict:
    cfg = _analyzer_config(spec)
    policy = DetectionPolicy(early_exit=spec.early_exit, omit_final=spec.omit_final)
    if spec.input is not None:
        inputs = [_parse_qubit_input(spec.input)]
    else:
        inputs = [(bell_state(label), name) for label, name in _BELL_NAMES]
    rng = np.random.default_rng(spec.seed)
    ideal = spec.ideal
    rows = []
    for q, name in inputs:
        try:
            true_label = ideal_label(q)
        except KerrBellError:
            true_label = None
        else:
            target = bell_state(true_label).amps
        labels = []
        analyzer_total = 0
        fid_correct_sum = 0.0
        for _ in range(spec.trials):
            trace = bell_detect(q, cfg, policy, rng, ideal)
            labels.append(trace.label)
            analyzer_total += trace.analyzer_count
            if trace.label is true_label:
                fid_correct_sum += fidelity_amps(trace.post_state.amps, target)
        label_counts = {name: labels.count(label) for label, name in _BELL_NAMES}
        row = {
            "input": name,
            "true_label": None if true_label is None else true_label.value,
            "label_counts": label_counts,
            "label_rates": {
                label: n / spec.trials for label, n in label_counts.items()
            },
            "mean_analyzer_count": analyzer_total / spec.trials,
        }
        if true_label is not None:
            correct = labels.count(true_label)
            row["accuracy"] = _rate_ci(correct, spec.trials)
            row["mean_fidelity_when_correct"] = (
                fid_correct_sum / correct if correct else None
            )
        rows.append(row)
    return {
        "spec": dict(vars(spec)),
        "policy": {"early_exit": policy.early_exit, "omit_final": policy.omit_final},
        "analytic_error_probability": _analytic_errors(spec.theta, spec.alpha),
        "results": rows,
    }


def _parse_targets(text: str) -> list[float]:
    try:
        targets = [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise InvalidSpec(f"cannot parse sweep targets from {text!r}") from exc
    if not targets or not all(0.0 < t < math.inf for t in targets):
        raise InvalidSpec(f"sweep targets must be finite and positive, got {text!r}")
    return targets


def _run_sweep(spec: ExperimentSpec) -> dict:
    targets = _parse_targets(spec.targets)
    theta_sq = spec.theta * spec.theta
    if theta_sq == 0.0:
        raise InvalidSpec(f"theta {spec.theta!r} squares to 0, so no target sets alpha")
    cfgs = [_analyzer_config(spec, t / theta_sq) for t in targets]
    rng = np.random.default_rng(spec.seed)
    singlet = bell_state(BellLabel.PSI_MINUS).amps
    triplet = bell_state(BellLabel.PHI_PLUS).amps
    table = []
    for target, cfg in zip(targets, cfgs):
        n_singlet = spec.trials // 2
        n_triplet = spec.trials - n_singlet
        errors = 0
        for _ in range(n_singlet):
            errors += not shot(singlet, cfg, rng)[0]
        for _ in range(n_triplet):
            errors += shot(triplet, cfg, rng)[0]
        ci = _rate_ci(errors, spec.trials)
        analytic = _analytic_errors(spec.theta, cfg.alpha)
        table.append(
            {
                "alpha_theta_sq": target,
                "alpha": cfg.alpha,
                "analytic_exact": analytic["exact"],
                "analytic_small_angle": analytic["small_angle"],
                "empirical": ci["rate"],
                "ci_low": ci["ci_low"],
                "ci_high": ci["ci_high"],
            }
        )
    report = {"spec": dict(vars(spec)), "sweep": table}
    path = _sidecar(spec.out, "_sweep.csv")
    if path is not None:
        # "analytic" is the exact-mode value: it is what the empirical rate
        # estimates; the small-angle figure stays in the JSON report.
        _write_csv(
            path,
            "alpha_theta_sq,analytic,empirical,ci_low,ci_high",
            [
                (
                    row["alpha_theta_sq"],
                    row["analytic_exact"],
                    row["empirical"],
                    row["ci_low"],
                    row["ci_high"],
                )
                for row in table
            ],
        )
        report["sweep_csv"] = str(path)
    return report


def _run_oracle_check(spec: ExperimentSpec) -> dict:
    try:
        ocfg = OracleConfig(
            alpha=spec.alpha, theta=spec.theta, grid_step=spec.grid_step
        )
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from exc
    cfg = _analyzer_config(spec)
    max_density_dev = 0.0
    max_collapse_dev = 0.0
    details = []
    xs = (cfg.bunched_peak, cfg.threshold, cfg.balanced_peak)
    splits = [apply_beam_splitter(embed(bell_state(label))) for label in BellLabel]
    refs = full_fock_reference(splits, ocfg, ANALYZER_WEIGHTS, xs)
    for label, (grid, p_oracle, conditionals) in zip(BellLabel, refs):
        pd = symmetry_pointer(bell_state(label), cfg)
        density_dev = float(np.max(np.abs(p_oracle - homodyne_density(pd, grid))))
        collapse_dev = max(
            1.0 - collapse(pd, x).fidelity(ref) for x, ref in zip(xs, conditionals)
        )
        max_density_dev = max(max_density_dev, density_dev)
        max_collapse_dev = max(max_collapse_dev, collapse_dev)
        details.append(
            {
                "input": label.value,
                "max_density_deviation": density_dev,
                "max_collapse_deviation": collapse_dev,
            }
        )
    passed = max_density_dev < 1e-8 and max_collapse_dev < 1e-8
    return {
        "spec": dict(vars(spec)),
        "per_input": details,
        "max_density_deviation": max_density_dev,
        "max_collapse_deviation": max_collapse_dev,
        "passed": passed,
    }


_RUNNERS = {
    "demo2mode": _run_demo2mode,
    "symmetry": _run_symmetry,
    "bell": _run_bell,
    "sweep": _run_sweep,
    "oracle-check": _run_oracle_check,
}


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment; returns the report and writes any output files."""
    spec.validate()
    report = _RUNNERS[spec.command](spec)
    _write_json(report, spec.out)
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerrbell",
        description="Seeded experiments on the cross-Kerr symmetry analyzer "
        "and Bell-state detector.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--theta", type=float, default=0.1, help="per-photon cross-phase (rad)")
        p.add_argument("--alpha", type=float, default=DEFAULT_ALPHA, help="probe coherent amplitude")
        p.add_argument("--trials", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=str, default=None, help="JSON report path; CSVs are written alongside")
        p.add_argument("--grid-step", type=float, default=0.01, dest="grid_step")

    p = sub.add_parser("demo2mode", help="two-mode balanced/bunched demonstrator")
    common(p)
    p.add_argument("--input", type=str, default=None, help="d1,d2 amplitudes (default 1/sqrt2 each)")
    p.add_argument("--sign", type=int, choices=(1, -1), default=1)

    p = sub.add_parser("symmetry", help="singlet/triplet analysis of a two-qubit input")
    common(p)
    p.add_argument("--input", type=str, default=None, help="Bell label or HH,HV,VH,VV amplitudes")
    p.add_argument("--ideal", action="store_true", help="exact subspace projection instead of sampling")

    p = sub.add_parser("bell", help="full Bell-state identification")
    common(p)
    p.add_argument("--input", type=str, default=None, help="Bell label or amplitudes; default: all four")
    p.add_argument("--early-exit", action=argparse.BooleanOptionalAction, default=True, dest="early_exit")
    p.add_argument("--omit-final", action="store_true", dest="omit_final")
    p.add_argument("--ideal", action="store_true")

    p = sub.add_parser("sweep", help="error rate vs alpha*theta^2")
    common(p)
    p.add_argument("--targets", type=str, default="1.0,1.2,1.5", help="comma list of alpha*theta^2 values")

    p = sub.add_parser("oracle-check", help="validate against the number-basis reference")
    common(p)
    return parser


_VALUE_OPTIONS = ("--theta", "--alpha", "--grid-step", "--input", "--targets")


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite "--theta -inf" as "--theta=-inf": argparse takes a separate "-inf"
    or "-1e+308" for an option, so the value would never reach validation."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in _VALUE_OPTIONS and tok[:1] == "-" and tok[:2] != "--":
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    fields = {k: v for k, v in vars(args).items() if k in ExperimentSpec.__dataclass_fields__}
    spec = ExperimentSpec(**fields)
    try:
        report = run(spec)
    except InvalidSpec as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KerrBellError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(report, indent=2, sort_keys=True))
    if not report.get("passed", True):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
