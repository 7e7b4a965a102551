"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every test also enforces its runtime budget.
"""

import math
import time

import numpy as np
from numpy import trapezoid
import pytest

from kerrbell import (
    ANALYZER_WEIGHTS,
    AnalyzerConfig,
    BellLabel,
    DetectionPolicy,
    OracleConfig,
    Symmetry,
    apply_beam_splitter,
    bell_detect,
    bell_state,
    collapse,
    density_grid,
    embed,
    error_probability,
    fidelity,
    full_fock_collapse,
    full_fock_density,
    homodyne_density,
    run_symmetry_analyzer,
    symmetry_pointer,
)
from kerrbell.cli import ExperimentSpec, run
from conftest import random_triplet

R = 1.0 / math.sqrt(2.0)


def _report(n: int, ok: bool, text: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def check(self) -> float:
        elapsed = time.perf_counter() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over {self.limit}s budget"
        return elapsed


def test_criterion_1_beam_splitter_patterns():
    budget = _Budget(1.0)
    expected = {
        BellLabel.PSI_MINUS: {(1, 0, 0, 1): -R, (0, 1, 1, 0): R},
        BellLabel.PSI_PLUS: {(1, 1, 0, 0): R, (0, 0, 1, 1): -R},
        BellLabel.PHI_MINUS: {
            (2, 0, 0, 0): 0.5, (0, 0, 2, 0): -0.5,
            (0, 2, 0, 0): -0.5, (0, 0, 0, 2): 0.5,
        },
        BellLabel.PHI_PLUS: {
            (2, 0, 0, 0): 0.5, (0, 0, 2, 0): -0.5,
            (0, 2, 0, 0): 0.5, (0, 0, 0, 2): -0.5,
        },
    }
    ok = True
    for label, wanted in expected.items():
        s = apply_beam_splitter(embed(bell_state(label)))
        ok &= set(s.amplitudes) == set(wanted)
        ok &= all(abs(s.amplitude(o) - a) <= 1e-12 for o, a in wanted.items())
        arm1 = [o[0] + o[1] for o in s.amplitudes]
        balanced = all(n == 1 for n in arm1)
        bunched = all(n in (0, 2) for n in arm1)
        ok &= balanced if label is BellLabel.PSI_MINUS else bunched
    budget.check()
    _report(1, ok, "splitter output of the four Bell states, amplitudes to 1e-12")


def test_criterion_2_error_formula():
    budget = _Budget(1.0)
    p_threshold = error_probability(0.3, 1.2 / 0.09, "small-angle")
    p_operating = error_probability(0.1, math.sqrt(1.3e4), "small-angle")
    ok = p_threshold < 0.01 and abs(p_operating - 0.01) <= 0.003
    budget.check()
    _report(
        2,
        ok,
        f"P(alpha*theta^2=1.2)={p_threshold:.5f} < 0.01; "
        f"P(theta=0.1, alpha^2=1.3e4)={p_operating:.5f} within 0.01 +/- 0.003",
    )


def test_criterion_3_monte_carlo_vs_analytic():
    budget = _Budget(30.0)
    theta = 0.3
    trials = 10_000
    rng = np.random.default_rng(1003)
    singlet = bell_state(BellLabel.PSI_MINUS)
    triplet = bell_state(BellLabel.PHI_PLUS)
    ok = True
    lines = []
    for target in (1.0, 1.2, 1.5):
        alpha = target / theta**2
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        wrong = 0
        for i in range(trials):
            if i % 2 == 0:
                out = run_symmetry_analyzer(singlet, cfg, rng)
                wrong += out.classification is not Symmetry.SINGLET
            else:
                out = run_symmetry_analyzer(triplet, cfg, rng)
                wrong += out.classification is not Symmetry.TRIPLET
        p = error_probability(theta, alpha, "exact")
        sigma = math.sqrt(p * (1.0 - p) / trials)
        ok &= abs(wrong / trials - p) <= 3.0 * sigma
        lines.append(f"at^2={target}: emp={wrong / trials:.5f} vs exact={p:.5f}")
    budget.check()
    _report(3, ok, "; ".join(lines))


def test_criterion_4_exact_non_destructiveness():
    budget = _Budget(10.0)
    cfg = AnalyzerConfig(theta=0.1, alpha=math.sqrt(1.3e4))
    rng = np.random.default_rng(1004)
    worst = 1.0
    for _ in range(100):
        q = random_triplet(rng)
        out = run_symmetry_analyzer(q, cfg, rng)
        worst = min(worst, fidelity(out.post_state, q))
    singlet = bell_state(BellLabel.PSI_MINUS)
    for _ in range(100):
        out = run_symmetry_analyzer(singlet, cfg, rng)
        worst = min(worst, fidelity(out.post_state, singlet))
    ok = worst >= 1.0 - 1e-10
    budget.check()
    _report(4, ok, f"worst corrected output fidelity {worst:.15f} >= 1 - 1e-10")


def test_criterion_5_oracle_equivalence():
    budget = _Budget(60.0)
    worst_density = 0.0
    worst_collapse = 0.0
    for alpha in (1.0, 2.0, 3.0):
        for theta in (0.1, 0.3, 0.5):
            ocfg = OracleConfig(alpha=alpha, theta=theta)
            acfg = AnalyzerConfig(theta=theta, alpha=alpha)
            probe_points = (
                2.0 * alpha * math.cos(2.0 * theta),
                alpha * (1.0 + math.cos(2.0 * theta)),
                2.0 * alpha,
            )
            for label in BellLabel:
                s = apply_beam_splitter(embed(bell_state(label)))
                pd = symmetry_pointer(bell_state(label), acfg)
                xs, p_oracle = full_fock_density(s, ocfg, ANALYZER_WEIGHTS)
                dev = float(np.max(np.abs(p_oracle - homodyne_density(pd, xs))))
                worst_density = max(worst_density, dev)
                for x in probe_points:
                    ref = full_fock_collapse(s, ocfg, ANALYZER_WEIGHTS, x)
                    worst_collapse = max(
                        worst_collapse, 1.0 - collapse(pd, x).fidelity(ref)
                    )
    ok = worst_density < 1e-8 and worst_collapse < 1e-8
    budget.check()
    _report(
        5,
        ok,
        f"max density dev {worst_density:.2e}, max collapse dev {worst_collapse:.2e}"
        " (both < 1e-8)",
    )


def test_criterion_6_bell_detector_ideal_limit():
    budget = _Budget(1.0)
    cfg = AnalyzerConfig(theta=0.1, alpha=50.0)
    early_counts = {
        BellLabel.PSI_MINUS: 1,
        BellLabel.PHI_MINUS: 2,
        BellLabel.PHI_PLUS: 3,
    }
    ok = True
    for early_exit in (False, True):
        for omit_final in (False, True):
            policy = DetectionPolicy(early_exit=early_exit, omit_final=omit_final)
            full = 3 if omit_final else 4
            for label in BellLabel:
                rng = np.random.default_rng(1006)
                trace = bell_detect(bell_state(label), cfg, policy, rng, ideal=True)
                ok &= trace.label == label
                ok &= fidelity(trace.post_state, bell_state(label)) >= 1.0 - 1e-10
                expected = early_counts.get(label, full) if early_exit else full
                ok &= trace.analyzer_count == expected
    budget.check()
    _report(6, ok, "ideal-limit labels, fidelities and analyzer counts, all policies")


def test_criterion_7_bell_detector_finite_resources():
    budget = _Budget(60.0)
    theta = 0.3
    alpha = 1.5 / theta**2
    cfg = AnalyzerConfig(theta=theta, alpha=alpha)
    policy = DetectionPolicy()
    p_err = error_probability(theta, alpha, "exact")
    trials = 1000
    bound = 1.0 - 4.0 * p_err
    sigma = math.sqrt(bound * (1.0 - bound) / trials)
    rng = np.random.default_rng(1007)
    ok = True
    lines = []
    for label in BellLabel:
        correct = 0
        worst_fid = 1.0
        for _ in range(trials):
            trace = bell_detect(bell_state(label), cfg, policy, rng)
            if trace.label == label:
                correct += 1
                worst_fid = min(
                    worst_fid, fidelity(trace.post_state, bell_state(label))
                )
        accuracy = correct / trials
        ok &= accuracy >= bound - 3.0 * sigma
        ok &= worst_fid >= 1.0 - 1e-10
        lines.append(f"{label.value}: acc={accuracy:.4f}")
    budget.check()
    _report(
        7,
        ok,
        f"accuracy >= 1 - 4*P - 3sigma = {bound - 3.0 * sigma:.4f} and exact "
        f"restoration when correct ({'; '.join(lines)})",
    )


def test_criterion_8_normalization_and_determinism(tmp_path):
    budget = _Budget(30.0)
    ok = True
    # density normalization across the tested operating points
    for theta, alpha in [(0.1, 1.0), (0.3, 2.0), (0.5, 3.0), (0.1, math.sqrt(1.3e4))]:
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        for label in BellLabel:
            xs, ps = density_grid(symmetry_pointer(bell_state(label), cfg))
            ok &= abs(float(trapezoid(ps, xs)) - 1.0) < 1e-9
    # bit-identical reports for identical specs and seeds
    out = tmp_path / "run.json"
    spec = dict(command="symmetry", theta=0.3, alpha=10.0, trials=300, seed=8,
                out=str(out))
    run(ExperimentSpec(**spec))
    first = out.read_bytes(), (tmp_path / "run_density.csv").read_bytes()
    run(ExperimentSpec(**spec))
    second = out.read_bytes(), (tmp_path / "run_density.csv").read_bytes()
    ok &= first == second
    budget.check()
    _report(8, ok, "densities integrate to 1 within 1e-9; reports bit-identical")
