"""Experiment runner: Monte Carlo campaigns, sweeps, and oracle validation.

Every command is deterministic for a fixed seed and emits a JSON report whose
"spec" block echoes the fully resolved experiment parameters.  Where density
or sweep data applies, a CSV sits next to the JSON file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import InvalidSpec, KerrBellError
from .fock_core import (
    Amps,
    BellLabel,
    TwoQubitState,
    apply_beam_splitter,
    bell_state,
    embed,
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
    sample_outcome,
    shot,
    symmetry_pointer,
    two_mode_amps,
    two_mode_fidelity,
    two_mode_pointer,
    two_mode_shot,
)
from .bell_detector import DetectionPolicy, bell_detect, ideal_label
from .oracle import OracleConfig, full_fock_reference

_BELL_INPUTS = {label.value: bell_state(label) for label in BellLabel}
_BELL_NAMES = tuple((label, label.value) for label in BellLabel)  # in report order
_DEFAULT_INPUT = BellLabel.PSI_MINUS.value  # of the symmetry runner
_DEMO_INPUT = (complex(1.0 / math.sqrt(2.0)),) * 2  # d1 = d2 = 1/sqrt2, of demo2mode
_PSI_MINUS = _BELL_INPUTS[_DEFAULT_INPUT]
_Z95 = 1.959963984540054  # two-sided 95% normal quantile
# demo2mode's conditional targets by sign: |1,1> and (|2,0> + sign*|0,2>)/sqrt2.
_DEMO_TARGETS = {s: (two_mode_amps(1, 0, s), two_mode_amps(0, 1, s)) for s in (1, -1)}
# The sweep CSV's columns and the table keys they hold: "analytic" is the exact
# value, which the empirical rate estimates; the small-angle one stays in the JSON.
_SWEEP_HEADER = "alpha_theta_sq,analytic,empirical,ci_low,ci_high"
_SWEEP_KEYS = ("alpha_theta_sq", "analytic_exact", "empirical", "ci_low", "ci_high")

# Report keys: the outcome names of the symmetry analyzer and the demonstrator.
SINGLET, TRIPLET = Symmetry.SINGLET.value, Symmetry.TRIPLET.value
BALANCED, BUNCHED = Classification.BALANCED.value, Classification.BUNCHED.value


@dataclass
class ExperimentSpec:
    """Fully resolved parameters of one experiment run."""

    command: str
    theta: float = 0.1
    alpha: float = math.sqrt(1.3e4)  # mean probe photon number 1.3e4
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

    def validate(self) -> AnalyzerConfig:
        """Raise InvalidSpec unless every field is valid; return the spec's
        operating point, whose construction checks the theta and alpha domain."""
        if self.command not in COMMANDS:
            raise InvalidSpec(f"unknown command {self.command!r}")
        if _integer("trials", self.trials) < 1:
            raise InvalidSpec(f"trials must be >= 1, got {self.trials}")
        if _integer("seed", self.seed) < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        cfg = AnalyzerConfig(_real("theta", self.theta), _real("alpha", self.alpha))
        check_domain(grid_step=_real("grid_step", self.grid_step))
        if self.sign not in (1, -1):
            raise InvalidSpec(f"sign must be +1 or -1, got {self.sign!r}")
        return cfg


# The exact-type tests come first: isinstance on a numbers ABC costs ~0.5 us.
def _integer(name: str, value):
    """value, or InvalidSpec if it is not an integer."""
    if type(value) is int or isinstance(value, Integral):
        return value
    raise InvalidSpec(f"{name} must be an integer, got {value!r}")


def _real(name: str, value):
    """value, or InvalidSpec if it is not a real number."""
    if type(value) is float or isinstance(value, Real):
        return value
    raise InvalidSpec(f"{name} must be a real number, got {value!r}")


def _analytic_errors(theta: float, alpha: float) -> dict:
    return {
        "small_angle": error_probability(theta, alpha, "small-angle"),
        "exact": error_probability(theta, alpha, "exact"),
    }


def _parse_amps(text: str, expected: int, what: str, normalize=normalized_amps):
    """normalize(parts) of `expected` comma-separated complex values.

    normalize runs normalized_amps, whose one pass converts each part with
    complex() (which skips surrounding whitespace and takes the parenthesized
    form repr(complex) writes) and rejects a malformed part, a zero vector or
    a non-finite value with ValueError.
    """
    parts = text.split(",")
    if len(parts) != expected:
        raise InvalidSpec(f"{what} needs {expected} comma-separated values, got {text!r}")
    try:
        return normalize(parts)
    except ValueError as exc:
        raise InvalidSpec(f"cannot read {what} {text!r}: {exc}") from exc


def _parse_qubit_input(text: str) -> TwoQubitState:
    """A Bell label's prebuilt state, or four comma-separated complex amplitudes
    (HH,HV,VH,VV) normalized into a TwoQubitState, which checks their norm."""
    state = _BELL_INPUTS.get(text)
    if state is None:
        state = _parse_amps(text, 4, "input state", TwoQubitState.normalized)
    return state


def _rate_ci(successes: int, trials: int) -> dict:
    p = successes / trials
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials)  # p*(1-p) >= 0 for p in [0, 1]
    low, high = p - half, p + half
    return {
        "rate": p,
        "ci_low": low if low > 0.0 else 0.0,
        "ci_high": high if high < 1.0 else 1.0,
    }


def _summarize(
    spec: ExperimentSpec,
    names: tuple[str, str],
    first: int,
    csv_path: str | None,
    true_name: str | None = None,
    **report,
) -> dict:
    """The report of a campaign whose trials each gave one of two outcomes,
    `first` of them names[0]: the runner's fields in report, plus counts,
    rates, analytic_error_probability and any density_csv.  When true_name
    names the outcome every trial should give, empirical_error is the rate of
    the other."""
    trials = spec.trials
    second = trials - first
    report["counts"] = {names[0]: first, names[1]: second}
    rates = {names[0]: _rate_ci(first, trials), names[1]: _rate_ci(second, trials)}
    report["rates"] = rates
    report["analytic_error_probability"] = _analytic_errors(spec.theta, spec.alpha)
    if true_name is not None:
        wrong = names[1] if true_name == names[0] else names[0]
        report["empirical_error"] = dict(rates[wrong])
    if csv_path:
        report["density_csv"] = csv_path
    return report


def _write_json(report: dict, out: str | None) -> None:
    if out is None:
        return
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def _write_csv(out: str | None, suffix: str, header: str, rows) -> str | None:
    """Write the rows that rows() returns, as floats under header, to the CSV
    next to the report named by out's stem and suffix, and return its path;
    without out, write nothing, return None and never call rows()."""
    if out is None:
        return None
    path = Path(out)
    path = path.with_name(path.stem + suffix)
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows()]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _density_csv(pointer, spec: ExperimentSpec) -> str | None:
    """Write the density CSV next to the report; pointer() is built only then."""
    return _write_csv(
        spec.out, "_density.csv", "x,p", lambda: zip(*density_grid(pointer(), spec.grid_step))
    )


def _run_demo2mode(spec: ExperimentSpec, cfg: AnalyzerConfig) -> dict:
    d1, d2 = _DEMO_INPUT if spec.input is None else _parse_amps(spec.input, 2, "demo input")
    csv_path = _density_csv(lambda: two_mode_pointer(d1, d2, spec.sign, cfg), spec)
    rng = np.random.default_rng(spec.seed)
    amps = two_mode_amps(d1, d2, spec.sign)
    balanced_target, bunched_target = _DEMO_TARGETS[spec.sign]
    n_balanced = 0
    fid_balanced = fid_bunched = 0.0
    for _ in range(spec.trials):
        balanced, post = two_mode_shot(amps, cfg, rng)
        if balanced:
            n_balanced += 1
            fid_balanced += two_mode_fidelity(post, balanced_target)
        else:
            fid_bunched += two_mode_fidelity(post, bunched_target)
    n_bunched = spec.trials - n_balanced
    fidelities = {
        BALANCED: fid_balanced / n_balanced if n_balanced else None,
        BUNCHED: fid_bunched / n_bunched if n_bunched else None,
    }
    return _summarize(
        spec, (BALANCED, BUNCHED), n_balanced, csv_path, mean_conditional_fidelity=fidelities
    )


def _true_symmetry(amps: Amps) -> str | None:
    p_singlet = fidelity_amps(amps, _PSI_MINUS.amps)
    if p_singlet >= 1.0 - 1e-9:
        return SINGLET
    if p_singlet <= 1e-9:
        return TRIPLET
    return None


def _run_symmetry(spec: ExperimentSpec, cfg: AnalyzerConfig) -> dict:
    input_text = _DEFAULT_INPUT if spec.input is None else spec.input
    q = _parse_qubit_input(input_text)
    csv_path = _density_csv(lambda: symmetry_pointer(q, cfg), spec)
    rng = np.random.default_rng(spec.seed)
    amps, ideal = q.amps, spec.ideal
    n_singlet = 0
    fid_sum = 0.0
    for _ in range(spec.trials):
        singlet, post = shot(amps, cfg, rng, ideal)
        n_singlet += singlet
        fid_sum += fidelity_amps(post, amps)
    true_symmetry = _true_symmetry(amps)
    return _summarize(
        spec,
        (SINGLET, TRIPLET),
        n_singlet,
        csv_path,
        true_symmetry,
        input=input_text,
        true_symmetry=true_symmetry,
        mean_post_fidelity_vs_input=fid_sum / spec.trials,
    )


def _run_bell(spec: ExperimentSpec, cfg: AnalyzerConfig) -> dict:
    policy = DetectionPolicy(early_exit=spec.early_exit, omit_final=spec.omit_final)
    names = _BELL_INPUTS if spec.input is None else (spec.input,)  # default: every label
    inputs = [(_parse_qubit_input(name), name) for name in names]
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


def _run_sweep(spec: ExperimentSpec, cfg: AnalyzerConfig) -> dict:
    targets = _parse_targets(spec.targets)
    theta_sq = spec.theta * spec.theta
    if theta_sq == 0.0:
        raise InvalidSpec(f"theta {spec.theta!r} squares to 0, so no target sets alpha")
    points = [AnalyzerConfig(spec.theta, t / theta_sq) for t in targets]
    rng = np.random.default_rng(spec.seed)
    n_singlet = spec.trials // 2
    n_triplet = spec.trials - n_singlet
    table = []
    for target, point in zip(targets, points):
        # Only the decision is read: a PsiMinus shot draws from the Balanced
        # peak (singlet weight 1), a PhiPlus shot from the Bunched one (weight 0).
        errors = 0
        for _ in range(n_singlet):
            errors += sample_outcome(1.0, point, rng) < point.threshold
        for _ in range(n_triplet):
            errors += sample_outcome(0.0, point, rng) >= point.threshold
        ci = _rate_ci(errors, spec.trials)
        analytic = _analytic_errors(spec.theta, point.alpha)
        table.append(
            {
                "alpha_theta_sq": target,
                "alpha": point.alpha,
                "analytic_exact": analytic["exact"],
                "analytic_small_angle": analytic["small_angle"],
                "empirical": ci["rate"],
                "ci_low": ci["ci_low"],
                "ci_high": ci["ci_high"],
            }
        )
    report = {"sweep": table}
    path = _write_csv(
        spec.out, "_sweep.csv", _SWEEP_HEADER, lambda: ([r[k] for k in _SWEEP_KEYS] for r in table)
    )
    if path:
        report["sweep_csv"] = path
    return report


def _run_oracle_check(spec: ExperimentSpec, cfg: AnalyzerConfig) -> dict:
    try:
        ocfg = OracleConfig(
            alpha=spec.alpha, theta=spec.theta, grid_step=spec.grid_step
        )
    except ValueError as exc:
        raise InvalidSpec(str(exc)) from exc
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
        "per_input": details,
        "max_density_deviation": max_density_dev,
        "max_collapse_deviation": max_collapse_dev,
        "passed": passed,
    }


# Each runner takes the spec and the operating point its validate() returned.
_RUNNERS = {
    "demo2mode": _run_demo2mode,
    "symmetry": _run_symmetry,
    "bell": _run_bell,
    "sweep": _run_sweep,
    "oracle-check": _run_oracle_check,
}
COMMANDS = tuple(_RUNNERS)


def run(spec: ExperimentSpec) -> dict:
    """Execute one experiment; returns the report and writes any output files."""
    cfg = spec.validate()
    report = _RUNNERS[spec.command](spec, cfg)
    report["spec"] = dict(vars(spec))
    _write_json(report, spec.out)
    return report


def _build_parser() -> argparse.ArgumentParser:
    """Options absent from the command line stay out of the namespace, so the
    defaults are ExperimentSpec's."""
    parser = argparse.ArgumentParser(
        prog="kerrbell",
        description="Seeded experiments on the cross-Kerr symmetry analyzer "
        "and Bell-state detector.",
        argument_default=argparse.SUPPRESS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--theta", type=float, help="per-photon cross-phase (rad)")
        p.add_argument("--alpha", type=float, help="probe coherent amplitude")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", type=str, help="JSON report path; CSVs are written alongside")
        p.add_argument("--grid-step", type=float, dest="grid_step")
        return p

    p = command("demo2mode", "two-mode balanced/bunched demonstrator")
    p.add_argument("--input", type=str, help="d1,d2 amplitudes (default 1/sqrt2 each)")
    p.add_argument("--sign", type=int, choices=(1, -1))

    p = command("symmetry", "singlet/triplet analysis of a two-qubit input")
    p.add_argument("--input", type=str, help="Bell label or HH,HV,VH,VV amplitudes")
    p.add_argument("--ideal", action="store_true", help="exact subspace projection instead of sampling")

    p = command("bell", "full Bell-state identification")
    p.add_argument("--input", type=str, help="Bell label or amplitudes; default: all four")
    p.add_argument("--early-exit", action=argparse.BooleanOptionalAction, dest="early_exit")
    p.add_argument("--omit-final", action="store_true", dest="omit_final")
    p.add_argument("--ideal", action="store_true")

    p = command("sweep", "error rate vs alpha*theta^2")
    p.add_argument("--targets", type=str, help="comma list of alpha*theta^2 values")

    command("oracle-check", "validate against the number-basis reference")
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
