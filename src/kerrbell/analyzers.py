"""Symmetry measurement logic: classification, phase correction, error model.

The two-mode demonstrator distinguishes |1,1> from (|2,0> +/- |0,2>)/sqrt2
without destroying either; the four-mode analyzer wraps the same probe
between two beam splitters to project a polarization two-qubit state onto
its singlet/triplet symmetry sectors, non-destructively.  Both run on the
closed-form Kraus operator of their circuit; the Fock/pointer layers are its
step-by-step reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpec
from .fock_core import (
    NORM_TOL,
    PRUNE_TOL,
    Amps,
    SpatialFockState,
    TwoQubitState,
    apply_beam_splitter,
    embed,
)
from .pointer import PointerDecomposition, apply_cross_kerr, attach_probe

TWO_PI = 2.0 * math.pi
MAX_ALPHA = 1e6  # largest validated probe amplitude

# Cross-phase signs for the four-mode analyzer: +1 on both arm-1 modes,
# -1 on both arm-2 modes, so balanced states shift the probe by net zero
# and bunched states by +/- 2*theta.
ANALYZER_WEIGHTS = (1, 1, -1, -1)
DEMO_WEIGHTS = (1, -1)
# The demonstrator's occupations in SpatialFockState.items() order; its
# amplitude tuples run over these.
DEMO_OCCUPATIONS = ((0, 2), (1, 1), (2, 0))
_R = 1.0 / math.sqrt(2.0)  # PsiMinus = (0, _R, -_R, 0) over HH, HV, VH, VV


class Classification(Enum):
    BALANCED = "Balanced"
    BUNCHED = "Bunched"


class Symmetry(Enum):
    SINGLET = "Singlet"
    TRIPLET = "Triplet"


def check_domain(
    theta: float | None = None,
    alpha: float | None = None,
    grid_step: float | None = None,
) -> None:
    """Raise InvalidSpec unless every given value lies in the validated domain.

    theta in (0, pi/4], alpha in [0, MAX_ALPHA], grid_step in (0, 1].  The
    chained comparisons also reject nan and +/-inf.
    """
    if theta is not None and not 0.0 < theta <= math.pi / 4.0:
        raise InvalidSpec(f"theta must be in (0, pi/4], got {theta!r}")
    if alpha is not None and not 0.0 <= alpha <= MAX_ALPHA:
        raise InvalidSpec(f"alpha must be in [0, {MAX_ALPHA:g}], got {alpha!r}")
    if grid_step is not None and not 0.0 < grid_step <= 1.0:
        raise InvalidSpec(f"grid_step must be in (0, 1], got {grid_step!r}")


def _peaks(theta: float, alpha: float) -> tuple[float, float, float]:
    """(Balanced peak 2*alpha, Bunched peak 2*alpha*cos(2*theta), the midpoint
    threshold alpha*(1 + cos(2*theta)) between them)."""
    cos2 = math.cos(2.0 * theta)
    return 2.0 * alpha, 2.0 * alpha * cos2, alpha * (1.0 + cos2)


@dataclass(frozen=True)
class AnalyzerConfig:
    """Operating point: per-photon cross-phase and probe amplitude.

    balanced_peak, bunched_peak and threshold (see _peaks) are set once here
    as plain attributes, not fields, for the shots to read.
    """

    theta: float
    alpha: float

    def __post_init__(self) -> None:
        check_domain(self.theta, self.alpha)
        attrs = self.__dict__  # frozen: plain attributes go straight into __dict__
        attrs["balanced_peak"], attrs["bunched_peak"], attrs["threshold"] = _peaks(
            self.theta, self.alpha
        )


@dataclass(frozen=True)
class SymmetryOutcome:
    classification: Symmetry
    post_state: TwoQubitState


def phase_phi(x: float, theta: float, alpha: float) -> float:
    """Outcome-dependent phase on the bunched branches, reduced to [0, 2*pi).

    phi(x) = alpha * sin(2*theta) * (x - 2*alpha*cos(2*theta)), the phase a
    pointer at alpha*exp(+/-2i*theta) imprints on its branch at outcome x.
    """
    phi = alpha * math.sin(2.0 * theta) * (x - _peaks(theta, alpha)[1])
    phi %= TWO_PI
    if phi >= TWO_PI:  # guard the rounding edge of the modulo
        phi = 0.0
    return phi


def classify(x: float, theta: float, alpha: float) -> Classification:
    """Midpoint decision rule between the two Gaussian peaks.

    The balanced peak sits at 2*alpha and the bunched one at
    2*alpha*cos(2*theta); the threshold alpha*(1 + cos(2*theta)) is the
    maximum-likelihood split for equal-variance Gaussians.  Ties go to
    Balanced (the larger-x peak).
    """
    return Classification.BALANCED if x >= _peaks(theta, alpha)[2] else Classification.BUNCHED


def error_probability(theta: float, alpha: float, mode: str = "small-angle") -> float:
    """Single-shot misclassification probability of the midpoint rule.

    "small-angle" evaluates erfc(sqrt2 * alpha * theta**2) / 2; "exact" uses
    the true peak separation 2*alpha*(1 - cos(2*theta)) between unit-variance
    Gaussians.  The modes agree closely for theta <= 0.2.
    """
    if mode == "small-angle":
        arg = math.sqrt(2.0) * alpha * theta * theta
    elif mode == "exact":
        delta = 2.0 * alpha * (1.0 - math.cos(2.0 * theta))
        arg = delta / (2.0 * math.sqrt(2.0))
    else:
        raise ValueError(f"mode must be 'small-angle' or 'exact', got {mode!r}")
    return 0.5 * math.erfc(arg)


def two_mode_amps(d1: complex, d2: complex, sign: int) -> Amps:
    """d1|1,1> + d2*(|2,0> + sign*|0,2>)/sqrt2 as its amplitude tuple over
    DEMO_OCCUPATIONS, with every amplitude that SpatialFockState would prune
    set to 0."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    d1, d2 = complex(d1), complex(d2)
    nsq = abs(d1) ** 2 + abs(d2) ** 2
    if not abs(nsq - 1.0) <= NORM_TOL:  # also rejects a NaN norm
        raise ValueError(f"|d1|^2 + |d2|^2 must be 1, got {nsq!r}")
    amps = (sign * d2 * _R, d1, d2 * _R)
    return tuple(a if abs(a) > PRUNE_TOL else 0j for a in amps)


def two_mode_input(d1: complex, d2: complex, sign: int) -> SpatialFockState:
    """two_mode_amps as a SpatialFockState."""
    return SpatialFockState(dict(zip(DEMO_OCCUPATIONS, two_mode_amps(d1, d2, sign))))


def two_mode_pointer(
    d1: complex, d2: complex, sign: int, cfg: AnalyzerConfig
) -> PointerDecomposition:
    """Probe-attached, cross-Kerr-evolved state of the two-mode demonstrator."""
    pd = attach_probe(two_mode_input(d1, d2, sign), cfg.alpha)
    return apply_cross_kerr(pd, DEMO_WEIGHTS, cfg.theta)


def sample_outcome(p_balanced: float, cfg: AnalyzerConfig, rng: np.random.Generator) -> float:
    """Draw one homodyne outcome x exactly from its two-peak mixture.

    Draw order: one rng.random() u picks the Balanced peak 2*alpha when
    u < p_balanced, else the Bunched peak 2*alpha*cos(2*theta); then one
    rng.standard_normal() is added to that peak.
    """
    peak = cfg.bunched_peak if rng.random() >= p_balanced else cfg.balanced_peak
    return peak + rng.standard_normal()


def _kraus_weights(x: float, cfg: AnalyzerConfig) -> tuple[float, float]:
    """(g(x - 2*alpha), g(x - 2*alpha*cos(2*theta))) with g(u) = exp(-u**2/4)."""
    u_b = x - cfg.balanced_peak
    u_t = x - cfg.bunched_peak
    return math.exp(-u_b * u_b / 4.0), math.exp(-u_t * u_t / 4.0)


def two_mode_shot(
    amps: Amps, cfg: AnalyzerConfig, rng: np.random.Generator
) -> tuple[bool, Amps]:
    """One shot of the two-mode demonstrator on its amplitudes over DEMO_OCCUPATIONS.

    Returns (balanced, post).  x comes from sample_outcome(|amps[1]|^2); post
    is (g_T*amps[0], g_B*amps[1], g_T*amps[2]) normalized, the weights of K(x)
    (see kraus), with every amplitude that SpatialFockState would prune set
    to 0.
    """
    x = sample_outcome(abs(amps[1]) ** 2, cfg, rng)
    g_b, g_t = _kraus_weights(x, cfg)
    a0, a1, a2 = amps[0] * g_t, amps[1] * g_b, amps[2] * g_t
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2)
    post = tuple(a if abs(a) > PRUNE_TOL else 0j for a in (a0 / norm, a1 / norm, a2 / norm))
    return x >= cfg.threshold, post


def two_mode_fidelity(a: Amps, b: Amps) -> float:
    """SpatialFockState.fidelity on two amplitude tuples over DEMO_OCCUPATIONS."""
    ov = a[0].conjugate() * b[0] + a[1].conjugate() * b[1] + a[2].conjugate() * b[2]
    return min(1.0, abs(ov) ** 2)


def symmetry_pointer(q: TwoQubitState, cfg: AnalyzerConfig) -> PointerDecomposition:
    """Probe-attached state of the four-mode analyzer just before homodyning."""
    s = apply_beam_splitter(embed(q))
    pd = attach_probe(s, cfg.alpha)
    return apply_cross_kerr(pd, ANALYZER_WEIGHTS, cfg.theta)


def _singlet_amplitude(amps: Amps) -> complex:
    """c = <PsiMinus|amps>."""
    return _R * amps[1] - _R * amps[2]


def _project(amps: Amps, c: complex, g_s: float, g_t: float) -> Amps:
    """(g_s*P_S + g_t*P_T) amps, normalized, with c = <PsiMinus|amps>.

    P_S amps = c*|PsiMinus>, so the result is g_t*amps + (g_s - g_t)*c*|PsiMinus>.
    """
    d = (g_s - g_t) * c * _R
    a0, a1, a2, a3 = g_t * amps[0], g_t * amps[1] + d, g_t * amps[2] - d, g_t * amps[3]
    norm = math.sqrt(abs(a0) ** 2 + abs(a1) ** 2 + abs(a2) ** 2 + abs(a3) ** 2)
    return a0 / norm, a1 / norm, a2 / norm, a3 / norm


def kraus(q: TwoQubitState, x: float, cfg: AnalyzerConfig) -> TwoQubitState:
    """K(x)q normalized: the analyzer's phase-corrected post state at outcome x.

    Embed, beam splitter, probe, cross-Kerr, collapse at x, the correction
    exp(-i*phi(x)*n_arm1), recombination and extract together act as
    K(x) = (2*pi)**-0.25 * [g(x - 2*alpha)*P_S + g(x - 2*alpha*cos(2*theta))*P_T]
    up to a global phase, with g(u) = exp(-u**2/4).
    """
    return TwoQubitState(
        _project(q.amps, _singlet_amplitude(q.amps), *_kraus_weights(x, cfg))
    )


def shot(
    amps: Amps,
    cfg: AnalyzerConfig,
    rng: np.random.Generator,
    ideal: bool = False,
) -> tuple[bool, Amps]:
    """One analyzer shot on a normalized (HH, HV, VH, VV) amplitude tuple.

    Returns (singlet, post).  Draw order, with c = <PsiMinus|amps>: one
    rng.random() u picks the sector, Singlet when u < |c|^2.  With ideal=True
    that sector is the outcome and post is the exact projection P_S amps or
    P_T amps, normalized.  Otherwise one rng.standard_normal() is added to the
    sector's peak to give x (see sample_outcome), singlet means a Balanced
    classify(x), and post is K(x) amps normalized (see kraus).

    run_symmetry_analyzer calls it once; symmetry_campaign and
    bell_detector.bell_detect inline it, and it is the bit-exact reference
    of both loops.
    """
    c = _singlet_amplitude(amps)
    p_s = abs(c) ** 2
    if ideal:
        singlet = rng.random() < p_s
        g_s, g_t = float(singlet), float(not singlet)
    else:
        x = sample_outcome(p_s, cfg, rng)
        singlet = x >= cfg.threshold
        g_s, g_t = _kraus_weights(x, cfg)
    return singlet, _project(amps, c, g_s, g_t)


def symmetry_campaign(
    amps: Amps,
    cfg: AnalyzerConfig,
    rng: np.random.Generator,
    trials: int,
    ideal: bool,
) -> tuple[int, float]:
    """(Singlet count, sum of fidelity_amps(post, amps)) over `trials` shots.

    Bit for bit the loop of shot(amps, cfg, rng, ideal) followed by
    fidelity_amps(post, amps), with the same draws: c, |c|^2, the input's
    amplitudes and the operating point are read once, and each trial runs
    the float operations of shot, _kraus_weights, _project and fidelity_amps
    inline, in the same order.  A regrouped product such as
    (g_s - g_t) * (c * _R) would change the last bits, and so the reports.
    """
    h0, h1, h2, h3 = amps
    r = _R
    c = r * h1 - r * h2
    p_s = abs(c) ** 2
    balanced, bunched, threshold = cfg.balanced_peak, cfg.bunched_peak, cfg.threshold
    random, normal, exp, sqrt = rng.random, rng.standard_normal, math.exp, math.sqrt
    n_singlet = 0
    fid_sum = 0.0
    for _ in range(trials):
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
        ov = (
            (a0 / norm).conjugate() * h0
            + (a1 / norm).conjugate() * h1
            + (a2 / norm).conjugate() * h2
        )
        fid = abs(ov + (a3 / norm).conjugate() * h3) ** 2
        n_singlet += singlet
        fid_sum += fid if fid < 1.0 else 1.0  # min(1.0, fid), NaN included
    return n_singlet, fid_sum


def run_symmetry_analyzer(
    q: TwoQubitState,
    cfg: AnalyzerConfig,
    rng: np.random.Generator,
    ideal: bool = False,
) -> SymmetryOutcome:
    """Project a two-qubit state onto its singlet or triplet sector: one shot."""
    singlet, post = shot(q.amps, cfg, rng, ideal)
    sym = Symmetry.SINGLET if singlet else Symmetry.TRIPLET
    return SymmetryOutcome(sym, TwoQubitState(post))
