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
from .fock_core import PAULI_MAPS, BellLabel, TwoQubitState, apply_pauli, bell_state, fidelity
from .analyzers import AnalyzerConfig, Symmetry, shot

# Pauli applied (to qubit 2) before analyzer k = 2, 3, 4.
_PRE_PAULIS: tuple[tuple[str, int] | None, ...] = (None, ("X", 2), ("Z", 2), ("X", 2))
_PRE_MAPS = tuple(PAULI_MAPS[p] if p else None for p in _PRE_PAULIS)
# The step analyzer k records for a Triplet (index 0) or a Singlet (index 1).
_STEPS = tuple(((p, Symmetry.TRIPLET), (p, Symmetry.SINGLET)) for p in _PRE_PAULIS)
# Paulis that restore the identified state, in order.  An early exit after
# analyzer k undoes the Paulis applied so far, last first (each is its own
# inverse); a full run ends with the closing Z2, or Y2 with omit_final.
_UNDO = tuple(tuple(reversed(_PRE_PAULIS[1 : k + 1])) for k in range(4))
_CLOSE_Z2, _CLOSE_Y2 = (("Z", 2),), (("Y", 2),)
# The label a first Singlet at analyzer 1, 2, 3, 4 names; no Singlet names PsiPlus.
_LABEL_BY_POSITION = (
    BellLabel.PSI_MINUS,
    BellLabel.PHI_MINUS,
    BellLabel.PHI_PLUS,
    BellLabel.PSI_PLUS,
)


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

    The analyzers and the Paulis between them run on the amplitude tuple,
    one shot per analyzer; the restoring Paulis act on the validated post
    state through apply_pauli.
    """
    amps = q.amps
    steps = []
    first = None
    for k in range(3 if policy.omit_final else 4):
        if k:
            amps = _PRE_MAPS[k](amps)
        singlet, amps = shot(amps, cfg, rng, ideal)
        steps.append(_STEPS[k][singlet])
        if singlet and first is None:
            first = k
            if policy.early_exit:
                restore = _UNDO[k]
                break
    else:
        restore = _CLOSE_Y2 if policy.omit_final else _CLOSE_Z2
    state = TwoQubitState(amps)
    for op, qubit in restore:
        state = apply_pauli(state, qubit, op)
    label = _LABEL_BY_POSITION[3 if first is None else first]
    return DetectionTrace(tuple(steps), label, state, len(steps))


def ideal_label(q: TwoQubitState) -> BellLabel:
    """Which Bell state q is, global phase ignored; NotABellState if none.

    The bell runner uses it to find each input's true label.
    """
    for label in BellLabel:
        if fidelity(q, bell_state(label)) >= 1.0 - 1e-9:
            return label
    raise NotABellState("state is not within 1e-9 of any single Bell state")
