"""Property tests: the closed-form analyzer against its reference pipeline, and
the CLI's exit codes at the edges of the parameter domain."""

import contextlib
import copy
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrbell import (
    AnalyzerConfig,
    BellLabel,
    Classification,
    TwoQubitState,
    ZeroDensity,
    apply_beam_splitter,
    apply_phase_shift,
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
from kerrbell.analyzers import _kraus_weights, _project
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
