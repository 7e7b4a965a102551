import cmath
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrbell import (
    BellLabel,
    NotInQubitSpace,
    SpatialFockState,
    TruncationOverflow,
    TwoQubitState,
    apply_beam_splitter,
    apply_pauli,
    apply_phase_shift,
    bell_state,
    embed,
    extract,
    fidelity,
)
from kerrbell.fock_core import PAULI_MAPS, normalized_amps
from conftest import random_state

R = 1.0 / math.sqrt(2.0)


class TestBellStates:
    def test_psi_minus_amplitudes(self):
        q = bell_state(BellLabel.PSI_MINUS)
        assert q.amps == (0j, complex(R), complex(-R), 0j)

    def test_phi_plus_amplitudes(self):
        q = bell_state(BellLabel.PHI_PLUS)
        assert q.amps == (complex(R), 0j, 0j, complex(R))

    def test_orthogonality(self):
        assert fidelity(bell_state(BellLabel.PSI_PLUS), bell_state(BellLabel.PSI_MINUS)) == 0.0

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_normalized(self, label):
        assert abs(bell_state(label).norm_sq() - 1.0) < 1e-15

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_built_once_and_frozen(self, label):
        assert bell_state(label) is bell_state(label)
        with pytest.raises(dataclasses.FrozenInstanceError):
            bell_state(label).amps = (1j, 0j, 0j, 0j)


class TestFidelity:
    def test_self_fidelity(self, rng):
        q = random_state(rng)
        assert fidelity(q, q) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pair(self):
        assert fidelity(bell_state(BellLabel.PSI_MINUS), bell_state(BellLabel.PHI_PLUS)) == 0.0

    def test_global_phase_invariance(self):
        q = bell_state(BellLabel.PSI_MINUS)
        phased = TwoQubitState(tuple(cmath.exp(1j * math.pi / 7) * a for a in q.amps))
        assert fidelity(q, phased) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self, rng):
        a, b = random_state(rng), random_state(rng)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-15)


class TestEmbedExtract:
    def test_hh_occupation(self):
        q = TwoQubitState((1, 0, 0, 0))
        s = embed(q)
        assert s.amplitudes == {(1, 0, 1, 0): 1 + 0j}

    def test_psi_minus_embedding(self):
        s = embed(bell_state(BellLabel.PSI_MINUS))
        assert s.amplitude((1, 0, 0, 1)) == pytest.approx(R, abs=1e-15)
        assert s.amplitude((0, 1, 1, 0)) == pytest.approx(-R, abs=1e-15)

    @pytest.mark.parametrize("idx", range(4))
    def test_round_trip_on_basis(self, idx):
        amps = [0, 0, 0, 0]
        amps[idx] = 1
        q = TwoQubitState(tuple(amps))
        assert extract(embed(q)).amps == q.amps

    def test_single_occupation_extract(self):
        s = SpatialFockState({(1, 0, 0, 1): 1.0})
        assert extract(s).amps == (0j, 1 + 0j, 0j, 0j)

    def test_embedded_bell_round_trip(self):
        q = bell_state(BellLabel.PSI_PLUS)
        assert fidelity(extract(embed(q)), q) == pytest.approx(1.0, abs=1e-12)

    def test_bunched_amplitude_rejected(self):
        s = SpatialFockState({(2, 0, 0, 0): 0.6, (1, 0, 0, 1): 0.8})
        with pytest.raises(NotInQubitSpace):
            extract(s)


# Post-splitter amplitudes of the four embedded Bell states, exact up to
# the chosen involutive convention.
_SPLITTER_EXPECTED = {
    BellLabel.PSI_MINUS: {(1, 0, 0, 1): -R, (0, 1, 1, 0): R},
    BellLabel.PSI_PLUS: {(1, 1, 0, 0): R, (0, 0, 1, 1): -R},
    BellLabel.PHI_MINUS: {
        (2, 0, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 2, 0, 0): -0.5, (0, 0, 0, 2): 0.5,
    },
    BellLabel.PHI_PLUS: {
        (2, 0, 0, 0): 0.5, (0, 0, 2, 0): -0.5, (0, 2, 0, 0): 0.5, (0, 0, 0, 2): -0.5,
    },
}
_BALANCED = {(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)}


class TestBeamSplitter:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_bell_state_amplitudes(self, label):
        s = apply_beam_splitter(embed(bell_state(label)))
        expected = _SPLITTER_EXPECTED[label]
        assert set(s.amplitudes) == set(expected)
        for occ, amp in expected.items():
            assert s.amplitude(occ) == pytest.approx(amp, abs=1e-12)

    def test_singlet_stays_balanced(self):
        s = apply_beam_splitter(embed(bell_state(BellLabel.PSI_MINUS)))
        assert set(s.amplitudes) <= _BALANCED
        assert s.fidelity(embed(bell_state(BellLabel.PSI_MINUS))) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "label", [BellLabel.PSI_PLUS, BellLabel.PHI_PLUS, BellLabel.PHI_MINUS]
    )
    def test_triplets_fully_bunch(self, label):
        s = apply_beam_splitter(embed(bell_state(label)))
        # both photons end up in the same arm (counting both polarizations)
        assert all(occ[0] + occ[1] in (0, 2) for occ in s.amplitudes)

    def test_involution(self, rng):
        q = random_state(rng)
        s = embed(q)
        twice = apply_beam_splitter(apply_beam_splitter(s))
        assert twice.fidelity(s) == pytest.approx(1.0, abs=1e-12)
        for occ, amp in s.items():
            assert twice.amplitude(occ) == pytest.approx(amp, abs=1e-12)

    def test_unitarity_on_random_states(self, rng):
        for _ in range(20):
            s = embed(random_state(rng))
            assert apply_beam_splitter(s).norm_sq() == pytest.approx(1.0, abs=1e-12)

    def test_two_mode_hong_ou_mandel(self):
        s = SpatialFockState({(1, 1): 1.0})
        out = apply_beam_splitter(s)
        assert out.amplitude((1, 1)) == 0j
        assert abs(out.amplitude((2, 0))) == pytest.approx(R, abs=1e-12)
        assert abs(out.amplitude((0, 2))) == pytest.approx(R, abs=1e-12)


class TestPauli:
    def test_x_on_qubit2_maps_phi_minus_to_psi_minus(self):
        out = apply_pauli(bell_state(BellLabel.PHI_MINUS), 2, "X")
        assert fidelity(out, bell_state(BellLabel.PSI_MINUS)) == pytest.approx(1.0, abs=1e-12)

    def test_z_on_qubit1_maps_psi_plus_to_psi_minus(self):
        out = apply_pauli(bell_state(BellLabel.PSI_PLUS), 1, "Z")
        assert fidelity(out, bell_state(BellLabel.PSI_MINUS)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("op", ["X", "Y", "Z"])
    @pytest.mark.parametrize("qubit", [1, 2])
    def test_involution(self, rng, op, qubit):
        q = random_state(rng)
        twice = apply_pauli(apply_pauli(q, qubit, op), qubit, op)
        # X^2 = Z^2 = I exactly; Y^2 = (iXZ)^2 = -XZXZ = I as well.
        assert fidelity(twice, q) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("qubit", [1, 2])
    def test_xz_anticommute(self, qubit):
        for idx in range(4):
            amps = [0, 0, 0, 0]
            amps[idx] = 1
            q = TwoQubitState(tuple(amps))
            xz = apply_pauli(apply_pauli(q, qubit, "Z"), qubit, "X")
            zx = apply_pauli(apply_pauli(q, qubit, "X"), qubit, "Z")
            assert all(
                a == pytest.approx(-b, abs=1e-15) for a, b in zip(xz.amps, zx.amps)
            )

    @pytest.mark.parametrize("op", ["X", "Y", "Z"])
    @pytest.mark.parametrize("qubit", [1, 2])
    def test_matches_kronecker_matrix(self, rng, op, qubit):
        sigma = {
            "X": np.array([[0, 1], [1, 0]]),
            "Y": np.array([[0, -1j], [1j, 0]]),
            "Z": np.array([[1, 0], [0, -1]]),
        }[op]
        # Qubit 1 is the high bit of the HH, HV, VH, VV index.
        matrix = np.kron(sigma, np.eye(2)) if qubit == 1 else np.kron(np.eye(2), sigma)
        q = random_state(rng)
        want = matrix @ np.array(q.amps)
        assert PAULI_MAPS[op, qubit](q.amps) == tuple(complex(a) for a in want)

    def test_invalid_arguments(self):
        q = bell_state(BellLabel.PSI_PLUS)
        with pytest.raises(ValueError):
            apply_pauli(q, 3, "X")
        with pytest.raises(ValueError):
            apply_pauli(q, 1, "H")


class TestStateValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            TwoQubitState((1, 1, 0, 0))
        with pytest.raises(ValueError):
            SpatialFockState({(1, 0, 0, 1): 0.5})

    # A 4-tuple of plain complex is kept as given; every other input is copied
    # through complex().  Either way the checks and the stored type are the same.
    @pytest.mark.parametrize(
        "amps, error",
        [
            pytest.param((0j, complex(R), complex(-R), 0j), None, id="plain-tuple"),
            pytest.param([0, R, -R, 0], None, id="list"),
            pytest.param(np.array([0, R, -R, 0], dtype=complex), None, id="ndarray"),
            pytest.param(tuple(np.complex128(a) for a in (0, R, -R, 0)), None, id="complex128"),
            pytest.param((1, 0, 0, 0), None, id="int-parts"),
            pytest.param((0.6, 0.8, 0.0, 0.0), None, id="float-parts"),
            pytest.param(("0.6", " 0.8j", "(0+0j)", "-0"), None, id="strings"),
            pytest.param((1j, 0, 0), "exactly 4 amplitudes", id="three"),
            pytest.param((1j, 0j, 0j, 0j, 0j), "exactly 4 amplitudes", id="five"),
            # abs(nan - 1) > tol is False, so a plain tolerance test lets NaN through.
            pytest.param((math.nan, 0, 0, 0), "not normalized", id="nan-part"),
            pytest.param((complex(math.nan), 0j, 0j, 0j), "not normalized", id="plain-nan"),
            pytest.param((1 + 0j, 1 + 0j, 0j, 0j), "not normalized", id="unnormalized"),
            pytest.param(("1", "x", "0", "0"), "complex", id="bad-string"),
        ],
    )
    def test_constructor_contract(self, amps, error):
        if error is not None:
            with pytest.raises(ValueError, match=error):
                TwoQubitState(amps)
            return
        q = TwoQubitState(amps)
        assert type(q.amps) is tuple
        assert all(type(a) is complex for a in q.amps)
        assert q.amps == tuple(complex(a) for a in amps)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.nan), math.inf])
    def test_non_finite_fock_amplitude_rejected(self, bad):
        # NaN fails the pruning test abs(amp) > tol, so it must be caught first.
        with pytest.raises(ValueError, match="non-finite"):
            SpatialFockState({(1, 1): 1.0, (2, 0): bad})

    def test_normalized_constructor(self):
        q = TwoQubitState.normalized((1, 1, 0, 0))
        assert q.amps[0] == pytest.approx(R, abs=1e-15)

    def test_truncation_bound(self):
        with pytest.raises(TruncationOverflow):
            SpatialFockState({(3, 0, 0, 0): 1.0})

    def test_negative_occupation(self):
        with pytest.raises(ValueError):
            SpatialFockState({(-1, 0): 1.0})

    def test_phase_shift(self):
        s = SpatialFockState({(2, 0): R, (0, 2): R})
        out = apply_phase_shift(s, 0.37, modes=(0,))
        assert out.amplitude((2, 0)) == pytest.approx(R * cmath.exp(0.74j), abs=1e-12)
        assert out.amplitude((0, 2)) == pytest.approx(R, abs=1e-12)


def reference_normalized_amps(amps):
    """normalized_amps as first written, with list and generator passes: the
    operations and their order that the one-pass version must keep."""
    amps = [complex(a) for a in amps]
    e = math.frexp(max((max(abs(a.real), abs(a.imag)) for a in amps), default=0.0))[1]
    amps = [complex(math.ldexp(a.real, -e), math.ldexp(a.imag, -e)) for a in amps]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(a / norm for a in amps)


def _bits(amps):
    """The float bit patterns, so that -0.0 and 0.0 differ."""
    return [struct.pack("<dd", a.real, a.imag) for a in amps]


# Finite parts from the smallest subnormal to +/-1e308, zeros of both signs
# included, with the extremes drawn often.
_PARTS = st.one_of(
    st.floats(min_value=-1e308, max_value=1e308, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 1e308, -1e308, 0.5, 1.0]),
)
_AMPS = st.builds(complex, _PARTS, _PARTS)


class TestNormalizedAmps:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.tuples(_AMPS, _AMPS), st.tuples(_AMPS, _AMPS, _AMPS, _AMPS)))
    def test_bit_identical_to_reference(self, amps):
        try:
            want = reference_normalized_amps(amps)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                normalized_amps(amps)
            return
        got = normalized_amps(amps)
        assert type(got) is tuple and len(got) == len(amps)
        assert _bits(got) == _bits(want)

    @pytest.mark.parametrize("n", [2, 4])
    def test_zero_vector(self, n):
        for zeros in ([0.0] * n, [complex(-0.0, -0.0)] * n):
            with pytest.raises(ValueError, match="zero vector"):
                normalized_amps(zeros)

    @pytest.mark.parametrize(
        "amps",
        [
            (math.nan, 1.0),
            (1.0, complex(0.0, math.nan), 0.0, 0.0),
            (math.inf, 0.0),
            (1e-320, complex(-math.inf, 1.0), 0.0, 0.0),
            (complex(math.inf, math.nan), 0.0),
        ],
    )
    def test_non_finite_rejected(self, amps):
        with pytest.raises(ValueError, match="finite"):
            normalized_amps(amps)
