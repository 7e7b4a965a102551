"""Full Bell-state identification by repeated symmetry analysis.

Interleaving the symmetry analyzer with bit and phase flips on qubit 2 walks
each Bell state into the singlet in turn, so the position of the first
Singlet outcome identifies the input; the remaining operations of the fixed
sequence restore the identified state at the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotABellState
from .fock_core import PAULI_MAPS, BellLabel, TwoQubitState, apply_pauli, bell_state, fidelity
from .analyzers import _R, AnalyzerConfig

# Pauli applied (to qubit 2) before analyzer k = 2, 3, 4.
_PRE_PAULIS: tuple[tuple[str, int] | None, ...] = (None, ("X", 2), ("Z", 2), ("X", 2))
_PRE_MAPS = tuple(PAULI_MAPS[p] if p else None for p in _PRE_PAULIS)
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
    """The identified label, the restored post state and how many analyzers ran."""

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

    The analyzers and the Paulis between them run inline on four local
    amplitudes: the operating point and the generator's methods are read once
    per call, and each analyzer runs the float operations of shot, with the
    same draws, in the same order, so the loop of shot over the amplitude
    tuple is its bit-exact reference.  The restoring Paulis act on the
    validated post state, which the trace holds with the label and the count.
    """
    balanced, bunched, threshold = cfg.balanced_peak, cfg.bunched_peak, cfg.threshold
    random, normal, exp, sqrt = rng.random, rng.standard_normal, math.exp, math.sqrt
    r = _R
    h0, h1, h2, h3 = q.amps
    first = None
    for k in range(3 if policy.omit_final else 4):
        if k:
            h0, h1, h2, h3 = _PRE_MAPS[k]((h0, h1, h2, h3))
        c = r * h1 - r * h2
        p_s = abs(c) ** 2
        if ideal:
            singlet = random() < p_s
            g_s, g_t = float(singlet), float(not singlet)
        else:
            x = (bunched if random() >= p_s else balanced) + normal()
            singlet = x >= threshold
            u_b = x - balanced
            u_t = x - bunched
            g_s = exp(-u_b * u_b / 4.0)
            g_t = exp(-u_t * u_t / 4.0)
        d = (g_s - g_t) * c * r
        a0, a1, a2, a3 = g_t * h0, g_t * h1 + d, g_t * h2 - d, g_t * h3
        norm = sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2)
        h0, h1, h2, h3 = a0 / norm, a1 / norm, a2 / norm, a3 / norm
        if singlet and first is None:
            first = k
            if policy.early_exit:
                restore = _UNDO[k]
                break
    else:
        restore = _CLOSE_Y2 if policy.omit_final else _CLOSE_Z2
    state = TwoQubitState((h0, h1, h2, h3))
    for op, qubit in restore:
        state = apply_pauli(state, qubit, op)
    label = _LABEL_BY_POSITION[3 if first is None else first]
    return DetectionTrace(label, state, k + 1)


def ideal_label(q: TwoQubitState) -> BellLabel:
    """Which Bell state q is, global phase ignored; NotABellState if none.

    The bell runner uses it to find an amplitude input's true label; a named
    input's label comes from a table.
    """
    for label in BellLabel:
        if fidelity(q, bell_state(label)) >= 1.0 - 1e-9:
            return label
    raise NotABellState("state is not within 1e-9 of any single Bell state")
