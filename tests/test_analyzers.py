import math

import numpy as np
import pytest

from kerrbell import (
    AnalyzerConfig,
    BellLabel,
    Classification,
    InvalidSpec,
    SpatialFockState,
    Symmetry,
    TwoQubitState,
    bell_state,
    error_probability,
    classify,
    fidelity,
    phase_phi,
    run_symmetry_analyzer,
    sample_outcome,
    shot,
    two_mode_input,
    two_mode_shot,
)
from kerrbell.analyzers import DEMO_OCCUPATIONS, _kraus_weights, two_mode_amps
from kerrbell.fock_core import normalized_amps
from conftest import random_state, random_triplet


class FixedDraws:
    """Stands in for a Generator: every random() and standard_normal() returns
    the given value."""

    def __init__(self, u: float, z: float) -> None:
        self.u, self.z = u, z

    def random(self) -> float:
        return self.u

    def standard_normal(self) -> float:
        return self.z


class TestPhasePhi:
    def test_zero_theta(self):
        for x in (-3.0, 0.0, 57.2):
            assert phase_phi(x, 0.0, 100.0) == 0.0

    def test_zero_at_bunched_center(self):
        theta, alpha = 0.22, 31.0
        x = 2.0 * alpha * math.cos(2.0 * theta)
        assert phase_phi(x, theta, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_reference_value(self):
        # 100*sin(0.2)*(200 - 200*cos(0.2)) reduced mod 2*pi
        assert phase_phi(200.0, 0.1, 100.0) == pytest.approx(3.804969128564551, abs=1e-9)

    def test_range(self, rng):
        for _ in range(200):
            x = float(rng.normal(scale=100.0))
            phi = phase_phi(x, 0.17, 42.0)
            assert 0.0 <= phi < 2.0 * math.pi


class TestClassify:
    def test_balanced_peak(self):
        assert classify(2.0 * 100.0, 0.1, 100.0) is Classification.BALANCED

    def test_bunched_peak(self):
        assert classify(2.0 * 100.0 * math.cos(0.2), 0.1, 100.0) is Classification.BUNCHED

    def test_near_threshold(self):
        # threshold at alpha*(1 + cos(2*theta)) = 198.00666 for these values
        assert classify(199.0, 0.1, 100.0) is Classification.BALANCED
        assert classify(197.0, 0.1, 100.0) is Classification.BUNCHED

    def test_tie_goes_to_balanced(self):
        x_th = 100.0 * (1.0 + math.cos(0.2))
        assert classify(x_th, 0.1, 100.0) is Classification.BALANCED

    def test_matches_maximum_likelihood(self):
        theta, alpha = 0.23, 17.0
        mu_bal = 2.0 * alpha
        mu_bun = 2.0 * alpha * math.cos(2.0 * theta)
        for x in np.linspace(mu_bun - 6.0, mu_bal + 6.0, 501):
            ml_balanced = abs(x - mu_bal) <= abs(x - mu_bun)
            got = classify(float(x), theta, alpha) is Classification.BALANCED
            assert got == ml_balanced


class TestErrorProbability:
    def test_small_angle_threshold_value(self):
        # alpha*theta^2 = 1.2 sits just below the one-percent level
        p = error_probability(0.3, 1.2 / 0.09, "small-angle")
        assert p == pytest.approx(0.0081975, abs=1e-6)
        assert p < 0.01

    def test_operating_point(self):
        p = error_probability(0.1, math.sqrt(1.3e4), "small-angle")
        assert p == pytest.approx(0.01, abs=0.003)

    def test_zero_theta(self):
        assert error_probability(0.0, 50.0, "small-angle") == 0.5
        assert error_probability(0.0, 50.0, "exact") == 0.5

    @pytest.mark.parametrize("mode", ["small-angle", "exact"])
    def test_strictly_decreasing(self, mode):
        theta = 0.2
        values = [
            error_probability(theta, t / theta**2, mode)
            for t in np.linspace(0.2, 2.5, 24)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_modes_agree_small_theta(self):
        # absolute disagreement below one (ten) percentage point(s)
        for theta in (0.05, 0.1, 0.15, 0.2):
            for target in np.linspace(0.1, 3.0, 30):
                diff = abs(
                    error_probability(theta, target / theta**2, "exact")
                    - error_probability(theta, target / theta**2, "small-angle")
                )
                assert diff < 0.01
        for theta in (0.3, 0.4, 0.5):
            for target in np.linspace(0.1, 3.0, 30):
                diff = abs(
                    error_probability(theta, target / theta**2, "exact")
                    - error_probability(theta, target / theta**2, "small-angle")
                )
                assert diff < 0.10

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            error_probability(0.1, 10.0, "fast")


class TestAnalyzerConfig:
    def test_theta_bounds(self):
        with pytest.raises(InvalidSpec):
            AnalyzerConfig(theta=0.0, alpha=1.0)
        with pytest.raises(InvalidSpec):
            AnalyzerConfig(theta=1.0, alpha=1.0)

    def test_negative_alpha(self):
        with pytest.raises(InvalidSpec):
            AnalyzerConfig(theta=0.1, alpha=-1.0)

    @pytest.mark.parametrize("theta, alpha", [(math.nan, 1.0), (0.1, math.nan), (0.1, math.inf)])
    def test_non_finite_rejected(self, theta, alpha):
        with pytest.raises(InvalidSpec):
            AnalyzerConfig(theta=theta, alpha=alpha)

    def test_fields_are_the_operating_point(self):
        assert list(AnalyzerConfig.__dataclass_fields__) == ["theta", "alpha"]


def demo_post_state(post):
    """A two_mode_shot post tuple as the SpatialFockState it stands for."""
    return SpatialFockState(dict(zip(DEMO_OCCUPATIONS, post)))


class TestTwoModeDemo:
    def test_balanced_only_input(self, rng):
        cfg = AnalyzerConfig(theta=0.3, alpha=1.5 / 0.09)
        target = SpatialFockState({(1, 1): 1.0})
        for _ in range(20):
            balanced, post = two_mode_shot(two_mode_amps(1.0, 0.0, 1), cfg, rng)
            assert demo_post_state(post).fidelity(target) == pytest.approx(1.0, abs=1e-12)
        assert balanced  # overwhelming at this operating point

    @pytest.mark.parametrize("sign", [1, -1])
    def test_bunched_only_input_exact_restoration(self, rng, sign):
        cfg = AnalyzerConfig(theta=0.3, alpha=2.0)
        r = 1.0 / math.sqrt(2.0)
        target = SpatialFockState({(2, 0): r, (0, 2): sign * r})
        for _ in range(20):
            _, post = two_mode_shot(two_mode_amps(0.0, 1.0, sign), cfg, rng)
            assert demo_post_state(post).fidelity(target) == pytest.approx(1.0, abs=1e-12)

    def test_misclassification_rate_matches_analytic(self):
        # the 50/50 superposition sets the prior; each trial prepares the
        # branch the state would have collapsed into and checks the verdict
        theta, alpha = 0.3, 1.5 / 0.09
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        rng = np.random.default_rng(2718)
        trials, wrong = 4000, 0
        for _ in range(trials):
            branch_balanced = rng.random() < 0.5
            d1, d2 = (1.0, 0.0) if branch_balanced else (0.0, 1.0)
            got_balanced, _ = two_mode_shot(two_mode_amps(d1, d2, 1), cfg, rng)
            if got_balanced != branch_balanced:
                wrong += 1
        p = error_probability(theta, alpha, "exact")
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(wrong / trials - p) <= 3.0 * sigma

    @pytest.mark.parametrize("d", [(0.6, 0.8j), (3e-14, 1.0), (1.0, 3e-14), (0.3, 0.95)])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_shot_matches_fock_reference_exactly(self, d, sign):
        # Tiny amplitudes whose weight is the smaller one fall to SpatialFockState's
        # pruning threshold after the shot; the tuple must hold 0 there too.
        d1, d2 = normalized_amps(d)
        cfg = AnalyzerConfig(theta=0.3, alpha=4.0)
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        amps = two_mode_amps(d1, d2, sign)
        for _ in range(200):
            balanced, post = two_mode_shot(amps, cfg, rng)
            s = two_mode_input(d1, d2, sign)
            x = sample_outcome(abs(s.amplitude((1, 1))) ** 2, cfg, ref)
            g_b, g_t = _kraus_weights(x, cfg)
            want = SpatialFockState.normalized(
                {occ: a * (g_b if occ == (1, 1) else g_t) for occ, a in s.items()}
            )
            assert balanced == (classify(x, cfg.theta, cfg.alpha) is Classification.BALANCED)
            assert post == tuple(want.amplitude(occ) for occ in DEMO_OCCUPATIONS)

    def test_shot_tie_goes_to_balanced(self):
        cfg = AnalyzerConfig(theta=math.pi / 6.0, alpha=1.0)
        z = cfg.threshold - cfg.bunched_peak
        assert cfg.bunched_peak + z == cfg.threshold
        balanced, _ = two_mode_shot((0j, 0.6 + 0j, 0.8 + 0j), cfg, FixedDraws(0.99, z))
        assert balanced

    def test_unnormalized_input_rejected(self, rng):
        cfg = AnalyzerConfig(theta=0.3, alpha=2.0)
        with pytest.raises(ValueError):
            two_mode_shot(two_mode_amps(1.0, 1.0, 1), cfg, rng)


class TestSymmetryAnalyzer:
    def test_singlet_input(self, rng):
        cfg = AnalyzerConfig(theta=0.3, alpha=1.5 / 0.09)
        q = bell_state(BellLabel.PSI_MINUS)
        singlets = 0
        for _ in range(40):
            out = run_symmetry_analyzer(q, cfg, rng)
            assert fidelity(out.post_state, q) == pytest.approx(1.0, abs=1e-12)
            singlets += out.classification is Symmetry.SINGLET
        assert singlets >= 38

    def test_triplet_inputs_undisturbed(self, rng):
        cfg = AnalyzerConfig(theta=0.1, alpha=114.0)
        for _ in range(25):
            q = random_triplet(rng)
            out = run_symmetry_analyzer(q, cfg, rng)
            assert fidelity(out.post_state, q) >= 1.0 - 1e-10

    def test_mixed_superposition_statistics(self):
        theta, alpha = 0.3, 1.5 / 0.09
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        rng = np.random.default_rng(31415)
        psi_minus = bell_state(BellLabel.PSI_MINUS)
        phi_plus = bell_state(BellLabel.PHI_PLUS)
        q = TwoQubitState.normalized(
            [a + b for a, b in zip(psi_minus.amps, phi_plus.amps)]
        )
        trials = 3000
        n_singlet = 0
        fid_singlet = fid_triplet = 0.0
        for _ in range(trials):
            out = run_symmetry_analyzer(q, cfg, rng)
            if out.classification is Symmetry.SINGLET:
                n_singlet += 1
                fid_singlet += fidelity(out.post_state, psi_minus)
            else:
                fid_triplet += fidelity(out.post_state, phi_plus)
        assert n_singlet / trials == pytest.approx(0.5, abs=0.03)
        assert fid_singlet / n_singlet >= 0.99
        assert fid_triplet / (trials - n_singlet) >= 0.99

    def test_sampled_mean_by_symmetry_sector(self):
        theta, alpha = 0.3, 5.0
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        rng = np.random.default_rng(99)
        n = 100_000
        tol = 3.0 / math.sqrt(n)
        singlet = bell_state(BellLabel.PSI_MINUS)
        p_singlet = fidelity(singlet, singlet)
        mean_s = np.mean([sample_outcome(p_singlet, cfg, rng) for _ in range(n)])
        assert abs(mean_s - 2.0 * alpha) < tol
        p_triplet = fidelity(singlet, bell_state(BellLabel.PHI_PLUS))
        mean_t = np.mean([sample_outcome(p_triplet, cfg, rng) for _ in range(n)])
        assert abs(mean_t - 2.0 * alpha * math.cos(2.0 * theta)) < tol

    def test_shot_tie_goes_to_singlet(self):
        # x lands exactly on the threshold; like classify, shot calls it Balanced.
        cfg = AnalyzerConfig(theta=math.pi / 6.0, alpha=1.0)
        z = cfg.threshold - cfg.bunched_peak
        assert cfg.bunched_peak + z == cfg.threshold
        amps = random_state(np.random.default_rng(3)).amps
        singlet, _ = shot(amps, cfg, FixedDraws(0.999999, z))
        assert singlet

    def test_ideal_mode_projects_exactly(self, rng):
        cfg = AnalyzerConfig(theta=0.1, alpha=10.0)
        q = bell_state(BellLabel.PHI_MINUS)
        out = run_symmetry_analyzer(q, cfg, rng, ideal=True)
        assert out.classification is Symmetry.TRIPLET
        assert fidelity(out.post_state, q) == pytest.approx(1.0, abs=1e-12)
        out = run_symmetry_analyzer(bell_state(BellLabel.PSI_MINUS), cfg, rng, ideal=True)
        assert out.classification is Symmetry.SINGLET
