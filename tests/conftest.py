import numpy as np
import pytest

from kerrbell import BellLabel, TwoQubitState, bell_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def random_triplet(rng: np.random.Generator) -> TwoQubitState:
    """Random pure state in the symmetric (triplet) subspace."""
    basis = [
        bell_state(BellLabel.PSI_PLUS),
        bell_state(BellLabel.PHI_PLUS),
        bell_state(BellLabel.PHI_MINUS),
    ]
    c = rng.normal(size=3) + 1j * rng.normal(size=3)
    amps = [sum(ci * b.amps[k] for ci, b in zip(c, basis)) for k in range(4)]
    return TwoQubitState.normalized(amps)


def random_state(rng: np.random.Generator) -> TwoQubitState:
    c = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoQubitState.normalized(c)


class FixedDraws:
    """Stands in for a Generator: every random() and standard_normal() returns
    the given value."""

    def __init__(self, u: float, z: float) -> None:
        self.u, self.z = u, z

    def random(self) -> float:
        return self.u

    def standard_normal(self) -> float:
        return self.z
