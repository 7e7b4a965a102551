import cmath
import math

import numpy as np
import pytest

from kerrbell import (
    AnalyzerConfig,
    BellLabel,
    Classification,
    DetectionPolicy,
    NotABellState,
    TwoQubitState,
    apply_pauli,
    bell_detect,
    bell_state,
    classify,
    error_probability,
    fidelity,
    ideal_label,
    kraus,
    overlap,
    sample_outcome,
)
from conftest import random_state

ALL_POLICIES = [
    DetectionPolicy(early_exit=ee, omit_final=om)
    for ee in (False, True)
    for om in (False, True)
]

# analyzer invocations in the ideal limit, per input label
_EARLY_COUNTS = {
    BellLabel.PSI_MINUS: 1,
    BellLabel.PHI_MINUS: 2,
    BellLabel.PHI_PLUS: 3,
}


class TestIdealLimit:
    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_label_and_restoration(self, label, policy):
        cfg = AnalyzerConfig(theta=0.1, alpha=50.0)
        rng = np.random.default_rng(0)
        trace = bell_detect(bell_state(label), cfg, policy, rng, ideal=True)
        assert trace.label == label
        assert fidelity(trace.post_state, bell_state(label)) >= 1.0 - 1e-10

    @pytest.mark.parametrize("policy", ALL_POLICIES)
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_analyzer_count_schedule(self, label, policy):
        cfg = AnalyzerConfig(theta=0.1, alpha=50.0)
        rng = np.random.default_rng(0)
        trace = bell_detect(bell_state(label), cfg, policy, rng, ideal=True)
        full = 3 if policy.omit_final else 4
        expected = _EARLY_COUNTS.get(label, full) if policy.early_exit else full
        assert trace.analyzer_count == expected


class TestFiniteResources:
    def test_union_bound_accuracy(self):
        theta, alpha = 0.3, 1.5 / 0.09
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        policy = DetectionPolicy()
        p_err = error_probability(theta, alpha, "exact")
        trials = 400
        bound = 1.0 - 4.0 * p_err
        sigma = math.sqrt(bound * (1.0 - bound) / trials)
        rng = np.random.default_rng(777)
        for label in BellLabel:
            correct = 0
            for _ in range(trials):
                trace = bell_detect(bell_state(label), cfg, policy, rng)
                if trace.label == label:
                    correct += 1
                    assert fidelity(trace.post_state, bell_state(label)) >= 1.0 - 1e-10
            assert correct / trials >= bound - 3.0 * sigma

    def test_superposition_label_distribution(self):
        # soft projection approaches the Born weights at alpha*theta^2 = 2
        theta = 0.3
        cfg = AnalyzerConfig(theta=theta, alpha=2.0 / theta**2)
        policy = DetectionPolicy(early_exit=True)
        rng = np.random.default_rng(10)
        q = TwoQubitState.normalized(
            [
                a + b
                for a, b in zip(
                    bell_state(BellLabel.PSI_MINUS).amps,
                    bell_state(BellLabel.PHI_PLUS).amps,
                )
            ]
        )
        trials = 1500
        counts = {label: 0 for label in BellLabel}
        for _ in range(trials):
            counts[bell_detect(q, cfg, policy, rng).label] += 1
        assert counts[BellLabel.PSI_MINUS] / trials == pytest.approx(0.5, abs=0.05)
        assert counts[BellLabel.PHI_PLUS] / trials == pytest.approx(0.5, abs=0.05)
        assert counts[BellLabel.PSI_PLUS] + counts[BellLabel.PHI_MINUS] <= trials * 0.05

    def test_early_exit_uses_fewer_analyzers(self):
        cfg = AnalyzerConfig(theta=0.3, alpha=1.5 / 0.09)
        rng = np.random.default_rng(5)
        trace = bell_detect(
            bell_state(BellLabel.PSI_MINUS), cfg, DetectionPolicy(early_exit=True), rng
        )
        assert trace.analyzer_count == 1
        assert trace.label == BellLabel.PSI_MINUS


class TestIdealLabel:
    def test_plain_labels(self):
        for label in BellLabel:
            assert ideal_label(bell_state(label)) == label

    def test_global_phase_invariant(self):
        q = bell_state(BellLabel.PHI_MINUS)
        phased = TwoQubitState(tuple(cmath.exp(0.9j) * a for a in q.amps))
        assert ideal_label(phased) == BellLabel.PHI_MINUS

    def test_superposition_rejected(self):
        q = TwoQubitState.normalized(
            [
                a + b
                for a, b in zip(
                    bell_state(BellLabel.PSI_MINUS).amps,
                    bell_state(BellLabel.PHI_PLUS).amps,
                )
            ]
        )
        with pytest.raises(NotABellState):
            ideal_label(q)


# The paper's point, the threshold point, the grid-stress point, and a probe
# weak enough (alpha*theta^2 = 0.45) that the soft projection errs often.  The
# reference-chain tests loop over them, which keeps their test ids.
POINTS = [
    AnalyzerConfig(theta=0.1, alpha=math.sqrt(1.3e4)),
    AnalyzerConfig(theta=0.3, alpha=1.5 / 0.09),
    AnalyzerConfig(theta=math.pi / 4.0, alpha=1e3),
    AnalyzerConfig(theta=0.3, alpha=5.0),
]

# The label a first Singlet at analyzer 1, 2, 3, 4 names; no Singlet names PsiPlus.
_LABEL_AT = [BellLabel.PSI_MINUS, BellLabel.PHI_MINUS, BellLabel.PHI_PLUS, BellLabel.PSI_PLUS]


def reference_detect(q, cfg, policy, rng, ideal=False):
    """bell_detect rebuilt from apply_pauli, sample_outcome, classify and kraus.

    Returns (analyzer count, label, post state).  With ideal, one rng.random() below
    |<PsiMinus|state>|^2 picks the Singlet sector, and the state is projected
    onto the drawn sector exactly.
    """
    psi_minus = bell_state(BellLabel.PSI_MINUS)
    paulis = [None, ("X", 2), ("Z", 2), ("X", 2)][: 3 if policy.omit_final else 4]
    state, applied, first = q, [], None
    for k, pauli in enumerate(paulis):
        if pauli is not None:
            state = apply_pauli(state, pauli[1], pauli[0])
            applied.append(pauli)
        if ideal:
            c = overlap(psi_minus, state)
            singlet = rng.random() < abs(c) ** 2
            singlet_part = [c * b for b in psi_minus.amps]
            kept = singlet_part if singlet else [a - p for a, p in zip(state.amps, singlet_part)]
            state = TwoQubitState.normalized(kept)
        else:
            x = sample_outcome(fidelity(state, psi_minus), cfg, rng)
            singlet = classify(x, cfg.theta, cfg.alpha) is Classification.BALANCED
            state = kraus(state, x, cfg)
        if singlet and first is None:
            first = k
            if policy.early_exit:
                for op, qubit in reversed(applied):
                    state = apply_pauli(state, qubit, op)
                return k + 1, _LABEL_AT[first], state
    closing = ("Y", 2) if policy.omit_final else ("Z", 2)
    label = BellLabel.PSI_PLUS if first is None else _LABEL_AT[first]
    return len(paulis), label, apply_pauli(state, closing[1], closing[0])


@pytest.mark.parametrize("early_exit", [True, False])
@pytest.mark.parametrize("omit_final", [True, False])
def test_matches_reference_chain_on_non_bell_input(early_exit, omit_final):
    policy = DetectionPolicy(early_exit=early_exit, omit_final=omit_final)
    for cfg in POINTS:
        inputs = np.random.default_rng(7)
        rng = np.random.default_rng(11)
        ref = np.random.default_rng(11)
        for _ in range(50):
            q = random_state(inputs)
            trace = bell_detect(q, cfg, policy, rng)
            count, label, post = reference_detect(q, cfg, policy, ref)
            assert trace.label == label
            assert trace.analyzer_count == count
            assert 1.0 - fidelity(trace.post_state, post) <= 1e-12
            assert trace.post_state.amps == post.amps  # the same operations, in order
        assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("ideal", [False, True])
@pytest.mark.parametrize("policy", ALL_POLICIES)
def test_matches_reference_chain_on_bell_and_mixed_inputs(policy, ideal):
    inputs = [bell_state(label) for label in BellLabel]
    inputs += [random_state(np.random.default_rng(seed)) for seed in range(4)]
    for cfg in POINTS:
        rng = np.random.default_rng(23)
        ref = np.random.default_rng(23)
        for q in inputs:
            for _ in range(25):
                trace = bell_detect(q, cfg, policy, rng, ideal)
                count, label, post = reference_detect(q, cfg, policy, ref, ideal)
                assert trace.label == label
                assert trace.analyzer_count == count
                if ideal:  # the reference projects with other arithmetic
                    assert 1.0 - fidelity(trace.post_state, post) <= 1e-12
                else:
                    assert trace.post_state.amps == post.amps
                assert abs(sum(abs(a) ** 2 for a in trace.post_state.amps) - 1.0) <= 1e-12
        assert rng.bit_generator.state == ref.bit_generator.state
