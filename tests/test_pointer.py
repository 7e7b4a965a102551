import cmath
import math

import numpy as np
from numpy import trapezoid
import pytest

from kerrbell import (
    AnalyzerConfig,
    BellLabel,
    PointerBranch,
    PointerDecomposition,
    SpatialFockState,
    ZeroDensity,
    apply_cross_kerr,
    apply_phase_shift,
    attach_probe,
    bell_state,
    collapse,
    density_grid,
    fidelity,
    homodyne_density,
    phase_phi,
    sample_outcome,
    symmetry_pointer,
    two_mode_input,
    two_mode_pointer,
    x_overlap,
)
from conftest import random_state

ROOT4 = (2.0 * math.pi) ** -0.25
GAUSS_PEAK = 1.0 / math.sqrt(2.0 * math.pi)


class TestAttachProbe:
    def test_single_branch(self):
        s = SpatialFockState({(1, 0, 0, 1): 1.0})
        pd = attach_probe(s, 100.0)
        assert len(pd.branches) == 1
        br = pd.branches[0]
        assert br.d == 1 + 0j and br.beta == 100 + 0j

    def test_vacuum_probe(self):
        s = SpatialFockState({(1, 1): 1.0})
        pd = attach_probe(s, 0.0)
        assert all(br.beta == 0j for br in pd.branches)

    def test_split_psi_plus_structure(self):
        from kerrbell import apply_beam_splitter, embed

        s = apply_beam_splitter(embed(bell_state(BellLabel.PSI_PLUS)))
        pd = attach_probe(s, 2.5)
        assert len(pd.branches) == 2
        r = 1.0 / math.sqrt(2.0)
        assert sorted(br.occ for br in pd.branches) == [(0, 0, 1, 1), (1, 1, 0, 0)]
        assert all(abs(abs(br.d) - r) < 1e-12 for br in pd.branches)
        assert all(br.beta == 2.5 + 0j for br in pd.branches)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            attach_probe(SpatialFockState({(1, 1): 1.0}), -1.0)


class TestCrossKerr:
    def test_balanced_net_zero(self):
        pd = PointerDecomposition([PointerBranch((1, 1), 1.0, 3.0)])
        out = apply_cross_kerr(pd, (1, -1), 0.7)
        assert out.branches[0].beta == 3 + 0j

    def test_bunched_double_rotation(self):
        pd = PointerDecomposition(
            [PointerBranch((2, 0), 1 / math.sqrt(2), 3.0),
             PointerBranch((0, 2), 1 / math.sqrt(2), 3.0)]
        )
        out = apply_cross_kerr(pd, (1, -1), 0.25)
        betas = {br.occ: br.beta for br in out.branches}
        assert betas[(2, 0)] == pytest.approx(3.0 * cmath.exp(0.5j), abs=1e-12)
        assert betas[(0, 2)] == pytest.approx(3.0 * cmath.exp(-0.5j), abs=1e-12)

    def test_zero_theta_identity(self):
        pd = PointerDecomposition([PointerBranch((2, 0), 1.0, 1.5)])
        out = apply_cross_kerr(pd, (1, -1), 0.0)
        assert out.branches[0].beta == 1.5 + 0j

    def test_modulus_preserved(self):
        pd = PointerDecomposition([PointerBranch((2, 0, 1, 0), 1.0, 4.0)])
        out = pd
        for theta in (0.3, 1.1, 2.9):
            out = apply_cross_kerr(out, (1, 1, -1, -1), theta)
            assert abs(out.branches[0].beta) == pytest.approx(4.0, rel=1e-14)

    def test_phase_additivity(self):
        pd = PointerDecomposition([PointerBranch((2, 0), 1.0, 2.0)])
        a = apply_cross_kerr(apply_cross_kerr(pd, (1, -1), 0.2), (1, -1), 0.35)
        b = apply_cross_kerr(pd, (1, -1), 0.55)
        assert a.branches[0].beta == pytest.approx(b.branches[0].beta, abs=1e-12)

    def test_weight_validation(self):
        pd = PointerDecomposition([PointerBranch((1, 1), 1.0, 1.0)])
        with pytest.raises(ValueError):
            apply_cross_kerr(pd, (1, -2), 0.1)
        with pytest.raises(ValueError):
            apply_cross_kerr(pd, (1,), 0.1)

    def test_duplicate_occupations_rejected(self):
        r = 1.0 / math.sqrt(2.0)
        with pytest.raises(ValueError, match="more than one branch"):
            PointerDecomposition(
                [PointerBranch((1, 1), r, 2.0), PointerBranch((1, 1), r, 2.0)]
            )

    def test_nan_amplitude_rejected(self):
        # abs(nan - 1) > tol is False, so a plain tolerance test lets NaN through.
        with pytest.raises(ValueError, match="not normalized"):
            PointerDecomposition([PointerBranch((1, 1), math.nan, 1.0)])


class TestXOverlap:
    def test_real_beta_peak(self):
        assert x_overlap(2.0, 4.0) == pytest.approx(ROOT4, abs=1e-15)

    def test_vacuum_at_origin(self):
        assert x_overlap(0.0, 0.0) == pytest.approx(ROOT4, abs=1e-15)

    def test_quadrature_normalization_complex_beta(self):
        beta = 3.0 * cmath.exp(1j * math.pi / 5)
        xs = np.linspace(2 * beta.real - 10, 2 * beta.real + 10, 4001)
        vals = np.array([abs(x_overlap(beta, x)) ** 2 for x in xs])
        assert trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-9)

    def test_branch_phase_structure(self):
        # arg <x|beta> - arg <x'|beta> depends only on Im(beta)*(x - x')
        beta = 1.7 * cmath.exp(0.4j)
        x1, x2 = 3.0, 3.8
        dphase = cmath.phase(x_overlap(beta, x2) / x_overlap(beta, x1))
        assert dphase == pytest.approx(beta.imag * (x2 - x1), abs=1e-12)


class TestHomodyneDensity:
    def test_single_branch_gaussian(self):
        pd = PointerDecomposition([PointerBranch((1, 1), 1.0, 3.0)])
        assert homodyne_density(pd, 6.0) == pytest.approx(GAUSS_PEAK, abs=1e-15)
        assert homodyne_density(pd, 8.0) == pytest.approx(
            GAUSS_PEAK * math.exp(-2.0), abs=1e-15
        )

    def test_bimodal_peaks(self):
        cfg = AnalyzerConfig(theta=0.3, alpha=2.0)
        pd = two_mode_pointer(1 / math.sqrt(2), 1 / math.sqrt(2), 1, cfg)
        xs, ps = density_grid(pd)
        top = xs[np.argsort(ps)[-60:]]
        assert any(abs(x - 2 * cfg.alpha) < 0.2 for x in top)
        assert any(abs(x - 2 * cfg.alpha * math.cos(2 * cfg.theta)) < 0.2 for x in top)

    def test_matches_abs_square_of_overlap(self):
        pd = PointerDecomposition(
            [PointerBranch((2, 0), 0.6, 2.0 * cmath.exp(0.5j)),
             PointerBranch((0, 2), 0.8, 2.0 * cmath.exp(-0.5j))]
        )
        for x in (1.0, 3.5, 4.2):
            direct = sum(
                abs(br.d) ** 2 * abs(x_overlap(br.beta, x)) ** 2 for br in pd.branches
            )
            assert homodyne_density(pd, x) == pytest.approx(direct, rel=1e-12)

    def test_normalization_random_decompositions(self, rng):
        for _ in range(10):
            k = int(rng.integers(1, 9))
            d = rng.normal(size=k) + 1j * rng.normal(size=k)
            d /= np.linalg.norm(d)
            betas = rng.normal(scale=1.5, size=k) + 1j * rng.normal(scale=1.5, size=k)
            pd = PointerDecomposition(
                [PointerBranch((j,), d[j], betas[j]) for j in range(k)]
            )
            xs, ps = density_grid(pd)
            assert trapezoid(ps, xs) == pytest.approx(1.0, abs=1e-9)


class TestSampling:
    # sample_outcome draws the analyzer's homodyne outcome; the pointer
    # model's density is the reference it must follow.
    cfg = AnalyzerConfig(theta=0.3, alpha=5.0)

    def test_deterministic_for_fixed_seed(self):
        a = [sample_outcome(0.4, self.cfg, np.random.default_rng(5)) for _ in range(3)]
        b = [sample_outcome(0.4, self.cfg, np.random.default_rng(5)) for _ in range(3)]
        assert a == b

    def test_draw_order(self):
        # one uniform picks the sector by its weight, then one normal is added
        peaks = (10.0, 10.0 * math.cos(0.6))
        for seed in range(20):
            ref = np.random.default_rng(seed)
            u, z = ref.random(), ref.standard_normal()
            center = peaks[0] if u < 0.5 else peaks[1]
            assert sample_outcome(0.5, self.cfg, np.random.default_rng(seed)) == center + z

    def test_statistics_against_density(self):
        q = random_state(np.random.default_rng(8))
        p = fidelity(q, bell_state(BellLabel.PSI_MINUS))
        peaks = np.array([10.0, 10.0 * math.cos(0.6)])
        rng = np.random.default_rng(123)
        draws = np.array([sample_outcome(p, self.cfg, rng) for _ in range(100_000)])
        # sample mean within 3 sigma of the mixture mean
        mean = p * peaks[0] + (1.0 - p) * peaks[1]
        sigma = math.sqrt(1.0 + p * (1.0 - p) * (peaks[0] - peaks[1]) ** 2)
        assert abs(draws.mean() - mean) < 3.0 * sigma / math.sqrt(draws.size)
        # total variation between histogram and pointer density below 0.02
        bins = np.linspace(peaks[1] - 5.0, peaks[0] + 5.0, 51)
        hist, _ = np.histogram(draws, bins=bins)
        centers = 0.5 * (bins[:-1] + bins[1:])
        pd = symmetry_pointer(q, self.cfg)
        theory = homodyne_density(pd, centers) * (bins[1] - bins[0])
        tv = 0.5 * np.abs(hist / draws.size - theory).sum()
        assert tv < 0.02


class TestCollapse:
    def test_single_branch_undisturbed(self):
        s = two_mode_input(1.0, 0.0, 1)
        pd = apply_cross_kerr(attach_probe(s, 2.0), (1, -1), 0.3)
        for x in (2.0, 4.0, 5.5):
            assert collapse(pd, x).fidelity(s) == pytest.approx(1.0, abs=1e-12)

    def test_shared_pointer_no_disturbance(self, rng):
        # equal beta on every branch: the outcome carries no information,
        # so conditioning must return the input exactly
        d = rng.normal(size=4) + 1j * rng.normal(size=4)
        d /= np.linalg.norm(d)
        occs = [(2, 0), (0, 2), (1, 1), (0, 0)]
        beta = 2.0 * cmath.exp(0.3j)
        pd = PointerDecomposition(
            [PointerBranch(o, di, beta) for o, di in zip(occs, d)]
        )
        ref = SpatialFockState({o: di for o, di in zip(occs, d)})
        for x in (2.5, 4.0):
            assert collapse(pd, x).fidelity(ref) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_peak_projects_onto_balanced(self):
        # alpha*theta^2 = 1.5; conditioning on the balanced peak leaves
        # almost no bunched weight
        theta, alpha = 0.3, 1.5 / 0.09
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        r = 1.0 / math.sqrt(2.0)
        pd = two_mode_pointer(r, r, 1, cfg)
        post = collapse(pd, 2.0 * alpha)
        target = SpatialFockState({(1, 1): 1.0})
        assert post.fidelity(target) >= 0.99

    def test_bunched_branch_phases_and_correction(self):
        theta, alpha = 0.3, 2.0
        cfg = AnalyzerConfig(theta=theta, alpha=alpha)
        pd = two_mode_pointer(0.0, 1.0, 1, cfg)
        for x in (3.0, 3.9, 4.4):
            post = collapse(pd, x)
            phi = phase_phi(x, theta, alpha)
            ratio = post.amplitude((2, 0)) / post.amplitude((0, 2))
            assert ratio == pytest.approx(cmath.exp(2j * phi), abs=1e-9)
            corrected = apply_phase_shift(post, -phi, modes=(0,))
            r = 1.0 / math.sqrt(2.0)
            target = SpatialFockState({(2, 0): r, (0, 2): r})
            assert corrected.fidelity(target) == pytest.approx(1.0, abs=1e-12)

    def test_zero_density_raises(self):
        pd = PointerDecomposition([PointerBranch((1, 1), 1.0, 2.0)])
        with pytest.raises(ZeroDensity):
            collapse(pd, 2.0 * 2.0 + 60.0)
