"""Full Bell-state identification by repeated symmetry analysis.

Interleaving the symmetry analyzer with bit and phase flips on qubit 2 walks
each Bell state into the singlet in turn, so the position of the first
Singlet outcome identifies the input; the remaining operations of the fixed
sequence restore the identified state at the output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotABellState
from .fock_core import BellLabel, TwoQubitState, apply_pauli, bell_state, fidelity, pauli_amps
from .analyzers import AnalyzerConfig, Symmetry, shot

# Pauli applied (to qubit 2) before analyzer k = 2, 3, 4.
_PRE_PAULIS: tuple[tuple[str, int] | None, ...] = (None, ("X", 2), ("Z", 2), ("X", 2))
_LABEL_BY_POSITION = {
    1: BellLabel.PSI_MINUS,
    2: BellLabel.PHI_MINUS,
    3: BellLabel.PHI_PLUS,
    4: BellLabel.PSI_PLUS,
}


@dataclass(frozen=True)
class DetectionPolicy:
    """early_exit stops at the first Singlet; omit_final drops the fourth analyzer."""

    early_exit: bool = False
    omit_final: bool = False


@dataclass(frozen=True)
class DetectionTrace:
    """steps: one (Pauli applied before it, outcome) pair per analyzer run."""

    steps: tuple[tuple[tuple[str, int] | None, Symmetry], ...]
    label: BellLabel
    post_state: TwoQubitState
    analyzer_count: int


def bell_detect(
    q: TwoQubitState,
    cfg: AnalyzerConfig,
    policy: DetectionPolicy,
    rng: np.random.Generator,
    ideal: bool = False,
) -> DetectionTrace:
    """Identify which Bell state the input is, without destroying it.

    The sequence is SA, X2, SA, Z2, SA, X2, SA, then a closing Z2; a Singlet
    at analyzer 1..4 means PsiMinus, PhiMinus, PhiPlus, PsiPlus respectively,
    and no Singlet at all means PsiPlus.  With omit_final only three
    analyzers run and the closing operation is Y2 instead.  With early_exit
    the run stops at the first Singlet and the identified Bell state is
    rebuilt by undoing the Paulis applied so far (each its own inverse).
    """
    n_analyzers = 3 if policy.omit_final else 4
    closing = ("Y", 2) if policy.omit_final else ("Z", 2)

    amps = q.amps
    steps: list[tuple[tuple[str, int] | None, Symmetry]] = []
    applied: list[tuple[str, int]] = []
    first_singlet: int | None = None

    for k in range(n_analyzers):
        pauli = _PRE_PAULIS[k]
        if pauli is not None:
            amps = pauli_amps(amps, pauli[1], pauli[0])
            applied.append(pauli)
        singlet, amps = shot(amps, cfg, rng, ideal)
        steps.append((pauli, Symmetry.SINGLET if singlet else Symmetry.TRIPLET))
        if singlet and first_singlet is None:
            first_singlet = k + 1
            if policy.early_exit:
                state = TwoQubitState(amps)
                for op, qubit in reversed(applied):
                    state = apply_pauli(state, qubit, op)
                return DetectionTrace(
                    tuple(steps), _LABEL_BY_POSITION[first_singlet], state, len(steps)
                )

    state = apply_pauli(TwoQubitState(amps), closing[1], closing[0])
    label = _LABEL_BY_POSITION.get(first_singlet or 0, BellLabel.PSI_PLUS)
    return DetectionTrace(tuple(steps), label, state, len(steps))


def ideal_label(q: TwoQubitState) -> BellLabel:
    """Which Bell state q is, for test assertions; global phase is ignored."""
    for label in BellLabel:
        if fidelity(q, bell_state(label)) >= 1.0 - 1e-9:
            return label
    raise NotABellState("state is not within 1e-9 of any single Bell state")
