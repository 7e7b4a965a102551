"""Property tests: the closed-form analyzer against its reference pipeline, and
the CLI's exit codes at the edges of the parameter domain."""

import contextlib
import copy
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from kerrbell import (
    AnalyzerConfig,
    BellLabel,
    Classification,
    DetectionPolicy,
    TwoQubitState,
    ZeroDensity,
    apply_beam_splitter,
    apply_pauli,
    apply_phase_shift,
    bell_detect,
    bell_state,
    classify,
    collapse,
    extract,
    fidelity,
    kraus,
    overlap,
    phase_phi,
    run_symmetry_analyzer,
    sample_outcome,
    shot,
    symmetry_pointer,
)
from kerrbell import bell_detector
from kerrbell.analyzers import _kraus_weights, _project, _singlet_amplitude
from kerrbell.cli import main
from conftest import random_state, random_triplet

# The paper's point, the threshold point and the grid-stress point.
PINNED = [
    AnalyzerConfig(theta=0.1, alpha=math.sqrt(1.3e4)),
    AnalyzerConfig(theta=0.3, alpha=1.5 / 0.09),
    AnalyzerConfig(theta=math.pi / 4.0, alpha=1e3),
]
seeds = st.integers(min_value=0, max_value=2**32 - 1)


def pipeline(q, x, cfg):
    """Embed, split, probe, cross-Kerr, collapse at x, correct, recombine, extract."""
    post = collapse(symmetry_pointer(q, cfg), x)
    post = apply_phase_shift(post, -phase_phi(x, cfg.theta, cfg.alpha), modes=(0, 1))
    return extract(apply_beam_splitter(post))


def peaks(cfg):
    return 2.0 * cfg.alpha, 2.0 * cfg.alpha * math.cos(2.0 * cfg.theta)


@settings(deadline=None, max_examples=150)
@given(
    cfg=st.sampled_from(PINNED),
    seed=seeds,
    bunched=st.booleans(),
    offset=st.floats(min_value=-4.0, max_value=4.0),
)
def test_kraus_matches_pipeline(cfg, seed, bunched, offset):
    q = random_state(np.random.default_rng(seed))
    x = peaks(cfg)[bunched] + offset
    assert 1.0 - fidelity(kraus(q, x, cfg), pipeline(q, x, cfg)) <= 1e-12


@settings(deadline=None, max_examples=150)
@given(cfg=st.sampled_from(PINNED), seed=seeds, ideal=st.booleans())
def test_shot_matches_kraus_with_the_same_draws(cfg, seed, ideal):
    q = random_state(np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    ref = copy.deepcopy(rng)
    singlet, post = shot(q.amps, cfg, rng, ideal)
    psi_minus = bell_state(BellLabel.PSI_MINUS)
    if ideal:
        expected = ref.random() < fidelity(q, psi_minus)
        c = overlap(psi_minus, q)
        p_t_q = TwoQubitState.normalized([a - c * s for a, s in zip(q.amps, psi_minus.amps)])
        want = psi_minus if expected else p_t_q
    else:
        x = sample_outcome(fidelity(q, psi_minus), cfg, ref)
        expected = classify(x, cfg.theta, cfg.alpha) is Classification.BALANCED
        want = kraus(q, x, cfg)
    assert singlet == expected
    assert 1.0 - fidelity(TwoQubitState(post), want) <= 1e-12
    assert rng.random() == ref.random()  # the shot drew exactly what the reference drew


@settings(deadline=None, max_examples=300)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi / 4.0, exclude_min=True),
    alpha=st.floats(min_value=0.0, max_value=1e6),
    seed=seeds,
    ideal=st.booleans(),
)
def test_shot_is_the_composition_bit_for_bit(theta, alpha, seed, ideal):
    # The operating-point constants are the peaks and threshold computed here.
    cfg = AnalyzerConfig(theta=theta, alpha=alpha)
    cos2 = math.cos(2.0 * theta)
    balanced, bunched, threshold = 2.0 * alpha, 2.0 * alpha * cos2, alpha * (1.0 + cos2)
    assert (cfg.balanced_peak, cfg.bunched_peak, cfg.threshold) == (balanced, bunched, threshold)
    amps = random_state(np.random.default_rng(seed)).amps
    rng = np.random.default_rng(seed + 1)
    ref, raw = copy.deepcopy(rng), copy.deepcopy(rng)
    singlet, post = shot(amps, cfg, rng, ideal)
    c = (1.0 / math.sqrt(2.0)) * amps[1] - (1.0 / math.sqrt(2.0)) * amps[2]
    p_s = abs(c) ** 2
    if ideal:
        want = ref.random() < p_s
        weights = (float(want), float(not want))
    else:
        x = sample_outcome(p_s, cfg, ref)
        assert x == (balanced if raw.random() < p_s else bunched) + raw.standard_normal()
        want = classify(x, theta, alpha) is Classification.BALANCED
        assert want == (x >= threshold)
        weights = _kraus_weights(x, cfg)
        u_b, u_t = x - balanced, x - bunched
        assert weights == (math.exp(-u_b * u_b / 4.0), math.exp(-u_t * u_t / 4.0))
    assert singlet == want
    assert post == _project(amps, c, *weights)
    assert abs(sum(abs(a) ** 2 for a in post) - 1.0) <= 1e-12
    assert rng.bit_generator.state == ref.bit_generator.state


def test_pipeline_density_vanishes_between_separated_peaks():
    cfg = PINNED[2]
    q = random_state(np.random.default_rng(1))
    with pytest.raises(ZeroDensity):
        collapse(symmetry_pointer(q, cfg), 0.5 * sum(peaks(cfg)))


@settings(deadline=None, max_examples=150)
@given(
    theta=st.floats(min_value=0.0, max_value=math.pi / 4.0, exclude_min=True),
    alpha=st.floats(min_value=0.0, max_value=1e6),
    seed=seeds,
    singlet=st.booleans(),
    ideal=st.booleans(),
)
def test_sector_eigenstate_is_undisturbed(theta, alpha, seed, singlet, ideal):
    rng = np.random.default_rng(seed)
    q = bell_state(BellLabel.PSI_MINUS) if singlet else random_triplet(rng)
    out = run_symmetry_analyzer(q, AnalyzerConfig(theta=theta, alpha=alpha), rng, ideal)
    assert fidelity(out.post_state, q) >= 1.0 - 1e-10


# The analyzer reads out only the symmetry: P_S and P_T commute with every U⊗U,
# so a shot of U⊗U·a with the same draws gives the same decision and U⊗U times
# the post state.  The decision compares the uniform u with |c|^2, which U⊗U
# can move by a few ulps (at most 6.5 in 20k scratch samples), so a draw whose
# u lies that close to |c|^2 is skipped and counted.
TIE_ULPS = 16
DRAWS = 4  # seeded draws per example


def haar_unitary(rng):
    """A Haar-random U in U(2): QR of a complex Ginibre matrix, R's phases moved to Q."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def near_tie(u, amps):
    return abs(u - abs(_singlet_amplitude(amps)) ** 2) <= TIE_ULPS * math.ulp(1.0)


@settings(deadline=None, max_examples=150)
@given(cfg=st.sampled_from(PINNED), seed=seeds, ideal=st.booleans())
def test_shot_commutes_with_local_unitaries(cfg, seed, ideal):
    rng = np.random.default_rng(seed)
    amps = random_state(rng).amps
    unitary = haar_unitary(rng)
    uu = np.kron(unitary, unitary)
    moved = tuple(complex(a) for a in uu @ np.asarray(amps))
    skipped = 0
    for draw_seed in range(seed, seed + DRAWS):
        rng, rng_moved = np.random.default_rng(draw_seed), np.random.default_rng(draw_seed)
        u = copy.deepcopy(rng).random()
        if near_tie(u, amps) or near_tie(u, moved):
            skipped += 1
            continue
        singlet, post = shot(amps, cfg, rng, ideal)
        singlet_moved, post_moved = shot(moved, cfg, rng_moved, ideal)
        assert singlet_moved == singlet
        assert np.max(np.abs(np.asarray(post_moved) - uu @ np.asarray(post))) <= 1e-12
    event(f"near-tie draws skipped: {skipped} of {DRAWS}")
    assert skipped < DRAWS


@settings(deadline=None, max_examples=150)
@given(
    cfg=st.sampled_from(PINNED),
    seed=seeds,
    bell=st.sampled_from([None, *BellLabel]),
    sigma=st.sampled_from("XYZ"),
    early_exit=st.booleans(),
    omit_final=st.booleans(),
    ideal=st.booleans(),
)
def test_bell_detect_ignores_a_pauli_on_both_qubits(
    cfg, seed, bell, sigma, early_exit, omit_final, ideal
):
    # sigma⊗sigma maps each Bell state to +/- itself and commutes or
    # anticommutes with every Pauli on qubit 2, so the label, the analyzer
    # count and (up to a global phase) sigma⊗sigma of the post state carry over.
    rng = np.random.default_rng(seed)
    q = random_state(rng) if bell is None else bell_state(bell)
    moved = apply_pauli(apply_pauli(q, 1, sigma), 2, sigma)
    policy = DetectionPolicy(early_exit=early_exit, omit_final=omit_final)
    gaps = []

    def recording_shot(amps, cfg, rng, ideal=False):
        gaps.append(near_tie(copy.deepcopy(rng).random(), amps))
        return shot(amps, cfg, rng, ideal)

    skipped = 0
    with mock.patch.object(bell_detector, "shot", recording_shot):
        for draw_seed in range(seed, seed + DRAWS):
            gaps.clear()
            trace = bell_detect(q, cfg, policy, np.random.default_rng(draw_seed), ideal)
            trace_moved = bell_detect(moved, cfg, policy, np.random.default_rng(draw_seed), ideal)
            if any(gaps):
                skipped += 1
                continue
            assert trace_moved.label is trace.label
            assert trace_moved.analyzer_count == trace.analyzer_count
            want = apply_pauli(apply_pauli(trace.post_state, 1, sigma), 2, sigma)
            assert fidelity(trace_moved.post_state, want) >= 1.0 - 1e-12
    event(f"near-tie draws skipped: {skipped} of {DRAWS}")
    assert skipped < DRAWS


edge_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 1e-300, 1e-9, 0.5, math.pi / 4.0, 1.0, 4.0, 1e6,
         1e6 + 1.0, 1e308, -1.0]
    ),
)


def edge_or_within(lo, hi):
    return st.one_of(edge_floats, st.floats(min_value=lo, max_value=hi))


@settings(deadline=None, max_examples=300)
@given(
    command=st.sampled_from(["demo2mode", "symmetry", "bell", "sweep"]),
    theta=edge_or_within(0.0, math.pi / 4.0),
    alpha=edge_or_within(0.0, 1e6),
    grid_step=edge_or_within(0.0, 1.0),
    targets=st.lists(edge_or_within(0.0, 10.0), min_size=1, max_size=3),
    trials=st.integers(min_value=1, max_value=3),
    separate=st.booleans(),
)
def test_main_exits_with_a_documented_code(
    command, theta, alpha, grid_step, targets, trials, separate
):
    # Values go in as "--flag=value" or as a separate token such as "-inf".
    options = {"--theta": repr(theta), "--alpha": repr(alpha),
               "--grid-step": repr(grid_step), "--trials": str(trials), "--seed": "1"}
    if command == "sweep":
        options["--targets"] = ",".join(map(repr, targets))
    argv = [command]
    for flag, value in options.items():
        argv += [flag, value] if separate else [f"{flag}={value}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 2, 3)
