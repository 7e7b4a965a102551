"""Polarization qubits, truncated multimode Fock states, and passive linear optics.

Two photonic qubits are encoded in the polarization (H/V) of one photon per
spatial arm.  The circuit-level representation is a sparse amplitude map over
occupation tuples of the four signal modes (arm1-H, arm1-V, arm2-H, arm2-V);
a 50:50 beam splitter between the arms separates the antisymmetric two-qubit
state (one photon per arm, "balanced") from the symmetric ones (two photons
in one arm, "bunched").
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .errors import NotInQubitSpace, TruncationOverflow

BASIS = ("HH", "HV", "VH", "VV")
Amps = tuple[complex, ...]  # amplitudes over BASIS (or over two modes)

_NORM_TOL = 1e-9
PRUNE_TOL = 1e-14  # SpatialFockState drops amplitudes of modulus <= this


class BellLabel(Enum):
    PSI_MINUS = "PsiMinus"
    PSI_PLUS = "PsiPlus"
    PHI_MINUS = "PhiMinus"
    PHI_PLUS = "PhiPlus"


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized amplitudes over the basis HH, HV, VH, VV.

    Values are compared through :func:`fidelity`; a global phase is
    unphysical and never asserted on.
    """

    amps: tuple[complex, complex, complex, complex]

    def __post_init__(self) -> None:
        amps = tuple(map(complex, self.amps))
        if len(amps) != 4:
            raise ValueError("a two-qubit state needs exactly 4 amplitudes")
        a0, a1, a2, a3 = amps
        nsq = abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2
        if not abs(nsq - 1.0) <= _NORM_TOL:  # also rejects a NaN norm
            raise ValueError(
                f"amplitudes are not normalized (|.|^2 = {nsq!r}); "
                "use TwoQubitState.normalized"
            )
        object.__setattr__(self, "amps", amps)

    @classmethod
    def normalized(cls, amps: Iterable[complex]) -> "TwoQubitState":
        return cls(normalized_amps(amps))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self.amps)

    def __repr__(self) -> str:
        terms = ", ".join(f"{b}: {a:.4g}" for b, a in zip(BASIS, self.amps))
        return f"TwoQubitState({terms})"


def normalized_amps(amps: Iterable[complex]) -> Amps:
    """amps / ||amps|| for any finite, nonzero amps, in one pass over them.

    Each value goes through complex(), so complex() strings work too.  An exact
    rescale by 2**-e, with e the binary exponent of the largest real or
    imaginary part, first keeps the norm from overflowing or underflowing;
    e == 0 leaves every value as it is.  Raises ValueError on a string complex()
    cannot read, on the zero vector and on a NaN or infinite part.
    """
    amps = list(map(complex, amps))
    top = 0.0
    for a in amps:
        re, im = abs(a.real), abs(a.imag)
        if re > top:
            top = re
        if im > top:
            top = im
    e = math.frexp(top)[1]
    if e:
        amps = [complex(math.ldexp(a.real, -e), math.ldexp(a.imag, -e)) for a in amps]
    norm = math.sqrt(sum([abs(a) ** 2 for a in amps]))
    # Finite parts give a norm of at least 0.5 (the largest part is rescaled
    # into [0.5, 1)) or exactly 0; a NaN or infinite part gives a NaN or
    # infinite norm.
    if not 0.0 < norm < math.inf:
        raise ValueError(
            "cannot normalize the zero vector" if norm == 0.0 else "amplitudes must be finite"
        )
    return tuple([a / norm for a in amps])


def _bell_states() -> dict[BellLabel, TwoQubitState]:
    r = 1.0 / math.sqrt(2.0)
    amps = {
        BellLabel.PSI_MINUS: (0, r, -r, 0),
        BellLabel.PSI_PLUS: (0, r, r, 0),
        BellLabel.PHI_MINUS: (r, 0, 0, -r),
        BellLabel.PHI_PLUS: (r, 0, 0, r),
    }
    return {label: TwoQubitState(tuple(complex(a) for a in amps[label])) for label in BellLabel}


_BELL_STATES = _bell_states()


def bell_state(label: BellLabel) -> TwoQubitState:
    """Return the requested maximally entangled two-qubit state.

    The four states are built once; every call for a label returns the same
    frozen instance.
    """
    return _BELL_STATES[label]


def overlap(a: TwoQubitState, b: TwoQubitState) -> complex:
    """Inner product <a|b>."""
    return sum(x.conjugate() * y for x, y in zip(a.amps, b.amps))


def fidelity(a: TwoQubitState, b: TwoQubitState) -> float:
    """|<a|b>|^2 — symmetric, 1 iff equal up to a global phase."""
    return fidelity_amps(a.amps, b.amps)


def fidelity_amps(a: Amps, b: Amps) -> float:
    """fidelity on two (HH, HV, VH, VV) amplitude tuples."""
    ov = a[0].conjugate() * b[0] + a[1].conjugate() * b[1] + a[2].conjugate() * b[2]
    return min(1.0, abs(ov + a[3].conjugate() * b[3]) ** 2)


# Single-qubit Paulis on (HH, HV, VH, VV) tuples, by (op, qubit).  Qubit 2 is
# the low bit of the basis index.  X swaps H and V, Z flips the sign of V, and
# Y = iXZ.
PAULI_MAPS = {
    ("X", 2): lambda a: (a[1], a[0], a[3], a[2]),
    ("Y", 2): lambda a: (-1j * a[1], 1j * a[0], -1j * a[3], 1j * a[2]),
    ("Z", 2): lambda a: (a[0], -a[1], a[2], -a[3]),
    ("X", 1): lambda a: (a[2], a[3], a[0], a[1]),
    ("Y", 1): lambda a: (-1j * a[2], -1j * a[3], 1j * a[0], 1j * a[1]),
    ("Z", 1): lambda a: (a[0], a[1], -a[2], -a[3]),
}


def pauli_amps(amps: Amps, qubit: int, op: str) -> Amps:
    """apply_pauli on an (HH, HV, VH, VV) amplitude tuple."""
    if qubit not in (1, 2):
        raise ValueError(f"qubit must be 1 or 2, got {qubit!r}")
    if op not in ("X", "Y", "Z"):
        raise ValueError(f"op must be X, Y or Z, got {op!r}")
    return PAULI_MAPS[op, qubit](amps)


def apply_pauli(q: TwoQubitState, qubit: int, op: str) -> TwoQubitState:
    """Apply a single-qubit Pauli to polarization qubit 1 or 2.

    X swaps H and V, Z flips the sign of V, and Y = iXZ.
    """
    return TwoQubitState(pauli_amps(q.amps, qubit, op))


class SpatialFockState:
    """Sparse normalized amplitudes over photon-occupation tuples.

    Occupations are tuples of non-negative counts, one entry per mode, with
    total photon number bounded by ``max_total``.  Instances are immutable;
    every operation returns a new state.
    """

    __slots__ = ("_amps", "_n_modes", "_max_total")

    def __init__(
        self,
        amps: Mapping[tuple[int, ...], complex],
        max_total: int = 2,
    ) -> None:
        pruned: dict[tuple[int, ...], complex] = {}
        n_modes = None
        for occ, amp in amps.items():
            occ = tuple(int(n) for n in occ)
            if n_modes is None:
                n_modes = len(occ)
            elif len(occ) != n_modes:
                raise ValueError("occupation tuples differ in length")
            if any(n < 0 for n in occ):
                raise ValueError(f"negative occupation in {occ}")
            if sum(occ) > max_total:
                raise TruncationOverflow(
                    f"occupation {occ} exceeds the bound of {max_total} photons"
                )
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"non-finite amplitude {amp!r} at {occ}")
            if abs(amp) > PRUNE_TOL:
                pruned[occ] = pruned.get(occ, 0j) + amp
        if not pruned or n_modes is None:
            raise ValueError("state has no amplitude above the pruning threshold")
        nsq = sum(abs(a) ** 2 for a in pruned.values())
        if abs(nsq - 1.0) > _NORM_TOL:
            raise ValueError(
                f"amplitudes are not normalized (|.|^2 = {nsq!r}); "
                "use SpatialFockState.normalized"
            )
        self._amps = pruned
        self._n_modes = n_modes
        self._max_total = int(max_total)

    @classmethod
    def normalized(
        cls,
        amps: Mapping[tuple[int, ...], complex],
        max_total: int = 2,
    ) -> "SpatialFockState":
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        if norm < 1e-150:
            raise ValueError("cannot normalize the zero vector")
        return cls({occ: a / norm for occ, a in amps.items()}, max_total)

    @property
    def n_modes(self) -> int:
        return self._n_modes

    @property
    def max_total(self) -> int:
        return self._max_total

    @property
    def amplitudes(self) -> dict[tuple[int, ...], complex]:
        return dict(self._amps)

    def amplitude(self, occ: tuple[int, ...]) -> complex:
        return self._amps.get(tuple(occ), 0j)

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(sorted(self._amps.items()))

    def norm_sq(self) -> float:
        return sum(abs(a) ** 2 for a in self._amps.values())

    def overlap(self, other: "SpatialFockState") -> complex:
        return sum(
            a.conjugate() * other._amps.get(occ, 0j) for occ, a in self._amps.items()
        )

    def fidelity(self, other: "SpatialFockState") -> float:
        return min(1.0, abs(self.overlap(other)) ** 2)

    def __repr__(self) -> str:
        terms = " + ".join(
            f"({a:.4g})|{','.join(map(str, occ))}>" for occ, a in self.items()
        )
        return f"SpatialFockState({terms})"


# Dual-rail encoding: qubit 1 lives in modes (arm1-H, arm1-V), qubit 2 in
# (arm2-H, arm2-V); |H> puts the photon in the H mode of its arm.
_EMBED_OCC = {
    0: (1, 0, 1, 0),  # HH
    1: (1, 0, 0, 1),  # HV
    2: (0, 1, 1, 0),  # VH
    3: (0, 1, 0, 1),  # VV
}
_EXTRACT_IDX = {occ: i for i, occ in _EMBED_OCC.items()}


def embed(q: TwoQubitState) -> SpatialFockState:
    """Encode a two-qubit polarization state as one photon per spatial arm."""
    amps = {_EMBED_OCC[i]: a for i, a in enumerate(q.amps) if abs(a) > PRUNE_TOL}
    return SpatialFockState(amps)


def extract(s: SpatialFockState) -> TwoQubitState:
    """Decode a one-photon-per-arm state back to the two-qubit space.

    Raises NotInQubitSpace if any amplitude above 1e-10 sits on a bunched
    occupation.
    """
    if s.n_modes != 4:
        raise ValueError("extract expects a four-mode state")
    amps = [0j] * 4
    for occ, amp in s.items():
        idx = _EXTRACT_IDX.get(occ)
        if idx is None:
            if abs(amp) > 1e-10:
                raise NotInQubitSpace(
                    f"amplitude {abs(amp):.3e} on bunched occupation {occ}"
                )
            continue
        amps[idx] = amp
    return TwoQubitState.normalized(amps)


@lru_cache(maxsize=None)
def _bs_kernel(m: int, n: int) -> tuple[tuple[int, int, float], ...]:
    """Fock-basis action of the 50:50 splitter on a mode pair with (m, n) photons.

    Uses the real involutive convention a -> (a+b)/sqrt2, b -> (a-b)/sqrt2.
    Returns (p, q, coeff) triples with p + q = m + n.
    """
    total = m + n
    base = math.sqrt(1.0 / (2.0**total * math.factorial(m) * math.factorial(n)))
    out = []
    for p in range(total + 1):
        c = 0.0
        for j in range(max(0, p - n), min(m, p) + 1):
            c += math.comb(m, j) * math.comb(n, p - j) * (-1.0) ** (n - p + j)
        if c != 0.0:
            coeff = c * base * math.sqrt(math.factorial(p) * math.factorial(total - p))
            out.append((p, total - p, coeff))
    return tuple(out)


def apply_beam_splitter(s: SpatialFockState) -> SpatialFockState:
    """Mix spatial arms on a 50:50 beam splitter, identically per polarization.

    For four-mode states the arm-1/arm-2 pairs are (0, 2) and (1, 3); for
    two-mode states the single pair (0, 1).  The chosen convention is an
    involution, so the same element recombines the arms.
    """
    if s.n_modes == 4:
        pairs = ((0, 2), (1, 3))
    elif s.n_modes == 2:
        pairs = ((0, 1),)
    else:
        raise ValueError(f"no mode pairing for {s.n_modes} modes")
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in s.items():
        terms = [(occ, amp)]
        for i, j in pairs:
            next_terms = []
            for cur_occ, cur_amp in terms:
                for p, q, coeff in _bs_kernel(cur_occ[i], cur_occ[j]):
                    new_occ = list(cur_occ)
                    new_occ[i], new_occ[j] = p, q
                    next_terms.append((tuple(new_occ), cur_amp * coeff))
            terms = next_terms
        for new_occ, new_amp in terms:
            if sum(new_occ) > s.max_total:
                raise TruncationOverflow(
                    f"beam splitter generated {new_occ} beyond {s.max_total} photons"
                )
            out[new_occ] = out.get(new_occ, 0j) + new_amp
    return SpatialFockState(out, s.max_total)


def apply_phase_shift(
    s: SpatialFockState,
    phi: float,
    modes: tuple[int, ...],
) -> SpatialFockState:
    """Apply exp(i*phi*n) on the given modes, n being their total photon count."""
    out = {}
    for occ, amp in s.items():
        n = sum(occ[m] for m in modes)
        out[occ] = amp * cmath.exp(1j * phi * n)
    return SpatialFockState(out, s.max_total)
