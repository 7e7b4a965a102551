import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
from numpy import trapezoid
import pytest

from kerrbell import (
    ANALYZER_WEIGHTS,
    AnalyzerConfig,
    BellLabel,
    OracleConfig,
    SpatialFockState,
    TruncationOverflow,
    apply_beam_splitter,
    bell_state,
    collapse,
    embed,
    full_fock_collapse,
    full_fock_density,
    full_fock_reference,
    homodyne_density,
    poisson_tail,
    quadrature_wavefunctions,
    symmetry_pointer,
    two_mode_input,
    two_mode_pointer,
    x_overlap,
)
from kerrbell.oracle import _BLOCK, _CHUNK, _coherent_coefficients, _wavefunction_chunks


def _split_bell(label):
    return apply_beam_splitter(embed(bell_state(label)))


class TestConfig:
    def test_default_n_max(self):
        cfg = OracleConfig(alpha=2.0, theta=0.3)
        assert cfg.resolved_n_max == math.ceil(4.0 + 20.0 + 20.0)

    def test_alpha_cap(self):
        with pytest.raises(ValueError):
            OracleConfig(alpha=4.5, theta=0.1)

    def test_undersized_truncation_rejected(self):
        with pytest.raises(TruncationOverflow):
            OracleConfig(alpha=3.0, theta=0.1, n_max=12)

    def test_tail_mass_bound(self):
        cfg = OracleConfig(alpha=3.0, theta=0.1)
        assert poisson_tail(cfg.resolved_n_max, 9.0) < 1e-12

    @pytest.mark.parametrize(
        "n_max, mean", [(0, 0.5), (3, 9.0), (12, 9.0), (40, 9.0), (76, 16.0), (10, 1e-3)]
    )
    def test_poisson_tail_matches_direct_sum(self, n_max, mean):
        with localcontext() as ctx:
            ctx.prec = 60
            m = Decimal(mean)
            term, head = Decimal(1), Decimal(1)
            for k in range(1, n_max + 1):
                term = term * m / k
                head += term
            tail, term = Decimal(0), term * m / (n_max + 1)
            for k in range(n_max + 2, n_max + 400):
                tail += term
                term = term * m / k
            expected = float(tail * (-m).exp())
        assert poisson_tail(n_max, mean) == pytest.approx(expected, rel=1e-13)


class TestQuadratureWavefunctions:
    def test_ground_state_matches_overlap_formula(self):
        xs = np.linspace(-6.0, 6.0, 241)
        psi = quadrature_wavefunctions(xs, 0)
        expected = np.array([x_overlap(0.0, x).real for x in xs])
        assert np.max(np.abs(psi[0] - expected)) < 1e-14

    def test_in_place_recurrence_matches_expression(self):
        xs = np.linspace(-30.0, 30.0, 3001)
        z = xs / math.sqrt(2.0)
        expected = np.empty((77, xs.size))
        expected[0] = (2.0 * math.pi) ** -0.25 * np.exp(-xs * xs / 4.0)
        expected[1] = math.sqrt(2.0) * z * expected[0]
        for n in range(2, 77):
            expected[n] = (
                math.sqrt(2.0 / n) * z * expected[n - 1]
                - math.sqrt((n - 1.0) / n) * expected[n - 2]
            )
        assert np.array_equal(quadrature_wavefunctions(xs, 76), expected)

    @pytest.mark.parametrize("n_max", [0, 1, 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 2, 76])
    def test_streamed_chunks_are_the_table_rows(self, n_max):
        # The density pass streams the recursion block by block; the table is
        # gathered from the same chunks, so both must agree bit for bit.
        xs = np.linspace(-30.0, 30.0, _BLOCK + 1001)
        psi = quadrature_wavefunctions(xs, n_max)
        for lo in range(0, xs.size, _BLOCK):
            starts = []
            for n, rows in _wavefunction_chunks(xs[lo : lo + _BLOCK], n_max):
                starts.append(n)
                assert np.array_equal(rows, psi[n : n + len(rows), lo : lo + _BLOCK])
            assert starts == list(range(0, n_max + 1, _CHUNK))
            assert n + len(rows) == n_max + 1

    def test_orthonormality(self):
        xs = np.linspace(-25.0, 25.0, 5001)
        psi = quadrature_wavefunctions(xs, 25)
        gram = trapezoid(psi[:, None, :] * psi[None, :, :], xs, axis=-1)
        assert np.max(np.abs(gram - np.eye(26))) < 1e-9


class TestDensity:
    def test_zero_theta_gaussian(self):
        cfg = OracleConfig(alpha=2.0, theta=0.0)
        s = two_mode_input(0.6, 0.8, 1)
        xs, ps = full_fock_density(s, cfg, (1, -1))
        expected = np.exp(-0.5 * (xs - 4.0) ** 2) / math.sqrt(2.0 * math.pi)
        assert np.max(np.abs(ps - expected)) < 1e-10

    def test_balanced_signal_invisible(self):
        # one photon in each mode: the +theta and -theta shifts cancel
        s = SpatialFockState({(1, 1): 1.0})
        cfg0 = OracleConfig(alpha=2.0, theta=0.0)
        cfg = OracleConfig(alpha=2.0, theta=0.3)
        xs0, ps0 = full_fock_density(s, cfg0, (1, -1))
        xs, ps = full_fock_density(s, cfg, (1, -1))
        assert np.allclose(xs, xs0)
        assert np.max(np.abs(ps - ps0)) < 1e-10

    def test_matches_pointer_two_mode(self):
        theta, alpha = 0.3, 2.0
        cfg = OracleConfig(alpha=alpha, theta=theta)
        acfg = AnalyzerConfig(theta=theta, alpha=alpha)
        r = 1.0 / math.sqrt(2.0)
        s = two_mode_input(r, r, 1)
        pd = two_mode_pointer(r, r, 1, acfg)
        xs, ps = full_fock_density(s, cfg, (1, -1))
        assert np.max(np.abs(ps - homodyne_density(pd, xs))) < 1e-8

    def test_integrates_to_one(self):
        cfg = OracleConfig(alpha=2.0, theta=0.3)
        s = _split_bell(BellLabel.PHI_PLUS)
        xs, ps = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
        assert trapezoid(ps, xs) == pytest.approx(1.0, abs=1e-9)

    def test_blocked_density_matches_direct_sum(self):
        # One center, so the grid spans 16 at the step: 2.5 table blocks, the last
        # one partial.
        alpha, theta = 2.0, 0.3
        cfg = OracleConfig(alpha=alpha, theta=theta, grid_step=16.0 / (2.5 * _BLOCK))
        s = _split_bell(BellLabel.PHI_MINUS)
        xs, ps = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
        assert 2 * _BLOCK < xs.size < 3 * _BLOCK
        n_max = cfg.resolved_n_max
        n = np.arange(n_max + 1)
        log_fact = np.array([math.lgamma(k + 1.0) for k in n])
        c = np.exp(n * math.log(alpha) - 0.5 * log_fact - alpha * alpha / 2.0)
        psi = quadrature_wavefunctions(xs, n_max)
        direct = np.zeros(xs.size)
        for occ, amp in s.items():
            net = sum(w * k for w, k in zip(ANALYZER_WEIGHTS, occ))
            direct += np.abs((amp * c * np.exp(1j * theta * net * n)) @ psi) ** 2
        assert np.max(np.abs(ps - direct)) <= 1e-15

    def test_memory_does_not_grow_with_n_max_times_points(self):
        # 160k grid points x 77 rows would be a ~99 MB table if built in one piece.
        cfg = OracleConfig(alpha=4.0, theta=0.3, grid_step=1e-4)
        s = _split_bell(BellLabel.PHI_PLUS)
        tracemalloc.start()
        try:
            xs, _ = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert xs.size > 150_000
        assert peak < 32 * 2**20

    def test_reference_memory_at_the_benchmark_size(self):
        # The four Bell splits at alpha 4 on the benchmark's 0.002 grid step: two
        # grids of 8001 points, 77 rows each.  One grid array per group, one
        # probe sum per +-net pair, the collapse points inside the first pass
        # and no grid-sized temporaries peak at about 1.17 MiB here; a probe
        # sum per net, a separate pass for the points and grid-sized
        # temporaries in the recursion peaked at 2.03 MiB.
        cfg = OracleConfig(alpha=4.0, theta=math.pi / 4, grid_step=0.002)
        states = [_split_bell(label) for label in BellLabel]
        tracemalloc.start()
        try:
            refs = full_fock_reference(states, cfg, ANALYZER_WEIGHTS, (0.0, 4.0, 8.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [grid.size for grid, _, _ in refs] == [8001] * 4
        assert peak < 1.75 * 2**20

    def test_n_max_convergence(self):
        base = OracleConfig(alpha=2.0, theta=0.3)
        doubled = OracleConfig(alpha=2.0, theta=0.3, n_max=2 * base.resolved_n_max)
        s = _split_bell(BellLabel.PSI_PLUS)
        _, p1 = full_fock_density(s, base, ANALYZER_WEIGHTS)
        _, p2 = full_fock_density(s, doubled, ANALYZER_WEIGHTS)
        assert np.max(np.abs(p1 - p2)) < 1e-10


class TestCollapse:
    def test_single_branch_returns_input(self):
        cfg = OracleConfig(alpha=2.0, theta=0.3)
        s = SpatialFockState({(1, 1): 1.0})
        for x in (2.0, 4.0, 5.0):
            out = full_fock_collapse(s, cfg, (1, -1), x)
            assert out.fidelity(s) == pytest.approx(1.0, abs=1e-10)

    def test_vacuum_probe_no_information(self):
        cfg = OracleConfig(alpha=0.0, theta=0.3)
        s = two_mode_input(0.6, 0.8, -1)
        for x in (-1.0, 0.0, 1.5):
            out = full_fock_collapse(s, cfg, (1, -1), x)
            assert out.fidelity(s) == pytest.approx(1.0, abs=1e-10)

    def test_matches_pointer_at_bunched_peak(self):
        theta, alpha = 0.3, 2.0
        cfg = OracleConfig(alpha=alpha, theta=theta)
        acfg = AnalyzerConfig(theta=theta, alpha=alpha)
        r = 1.0 / math.sqrt(2.0)
        s = two_mode_input(r, r, 1)
        pd = two_mode_pointer(r, r, 1, acfg)
        x = 2.0 * alpha * math.cos(2.0 * theta)
        ref = full_fock_collapse(s, cfg, (1, -1), x)
        assert collapse(pd, x).fidelity(ref) >= 1.0 - 1e-8

    def test_phase_convention_bridge(self):
        # The raw number-basis expansion and the analytic overlap place a
        # branch constant exp(-i*Re(b)*Im(b)) differently; verify the bridge
        # factor accounts for the difference exactly.
        theta, alpha = 0.3, 2.0
        cfg = OracleConfig(alpha=alpha, theta=theta)
        acfg = AnalyzerConfig(theta=theta, alpha=alpha)
        s = _split_bell(BellLabel.PHI_PLUS)
        pd = symmetry_pointer(bell_state(BellLabel.PHI_PLUS), acfg)
        x = alpha * (1.0 + math.cos(2.0 * theta))
        got = collapse(pd, x)
        raw = full_fock_collapse(s, cfg, ANALYZER_WEIGHTS, x, convention="fock")
        assert got.fidelity(raw) < 1.0 - 1e-3
        bridged = {}
        for occ, amp in raw.amplitudes.items():
            net = sum(w * n for w, n in zip(ANALYZER_WEIGHTS, occ))
            bridge = -0.5 * alpha**2 * math.sin(2.0 * theta * net)
            bridged[occ] = amp * complex(math.cos(bridge), math.sin(bridge))
        assert got.fidelity(SpatialFockState(bridged)) >= 1.0 - 1e-10

    def test_invalid_convention(self):
        cfg = OracleConfig(alpha=1.0, theta=0.1)
        with pytest.raises(ValueError):
            full_fock_collapse(SpatialFockState({(1, 1): 1.0}), cfg, (1, -1), 2.0, "x")


class TestReference:
    @pytest.mark.parametrize("convention", ["analytic", "fock"])
    @pytest.mark.parametrize("theta", [0.1, math.pi / 4])
    @pytest.mark.parametrize("alpha", [2.0, 4.0])
    def test_matches_single_state_calls(self, alpha, theta, convention):
        cfg = OracleConfig(alpha=alpha, theta=theta)
        states = [_split_bell(label) for label in BellLabel]
        xs = (2.0 * alpha * math.cos(2.0 * theta), alpha * (1.0 + math.cos(2.0 * theta)), 2.0 * alpha)
        refs = full_fock_reference(states, cfg, ANALYZER_WEIGHTS, xs, convention)
        assert len(refs) == len(states)
        for s, (grid, density, conditionals) in zip(states, refs):
            grid1, density1 = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
            assert np.array_equal(grid, grid1)
            assert np.array_equal(density, density1)
            assert len(conditionals) == len(xs)
            for x, got in zip(xs, conditionals):
                ref = full_fock_collapse(s, cfg, ANALYZER_WEIGHTS, x, convention)
                assert got.amplitudes == ref.amplitudes


class TestProbePass:
    def test_collapse_points_straddling_a_block(self):
        # One center per Bell split, so each grid holds 16382 points; the three
        # collapse points ride at the end of the first pass's grid, so _BLOCK
        # falls between the second and the third of them.
        alpha, theta = 3.0, 0.4
        cfg = OracleConfig(alpha=alpha, theta=theta, grid_step=16.0 / 16381)
        states = [_split_bell(label) for label in BellLabel]
        xs = (2.0 * alpha * math.cos(2.0 * theta), alpha * (1.0 + math.cos(2.0 * theta)), 2.0 * alpha)
        refs = full_fock_reference(states, cfg, ANALYZER_WEIGHTS, xs)
        assert [grid.size for grid, _, _ in refs] == [_BLOCK - 2] * 4
        for s, (grid, density, conditionals) in zip(states, refs):
            grid1, density1 = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
            assert np.array_equal(grid, grid1)
            assert np.array_equal(density, density1)
            for x, got in zip(xs, conditionals):
                ref = full_fock_collapse(s, cfg, ANALYZER_WEIGHTS, x)
                assert got.amplitudes == ref.amplitudes

    @pytest.mark.parametrize("alpha, theta", [(2.0, 0.3), (4.0, -0.7), (1.0, math.pi / 4)])
    def test_unequal_weights_at_plus_and_minus_net(self, alpha, theta):
        # Nets +2, -2, +1, -1 and 0, each net with its own weight: the density is
        # sum_u w_u*|f_u|^2 in net order, each f_u summed from its own probe rows.
        s = SpatialFockState.normalized(
            {(2, 0, 0, 0): 0.6, (0, 0, 2, 0): 0.3, (1, 0, 0, 0): 0.5j, (0, 0, 0, 1): -0.4,
             (1, 0, 1, 0): 0.2 + 0.1j}
        )
        cfg = OracleConfig(alpha=alpha, theta=theta)
        xs, ps = full_fock_reference([s], cfg, ANALYZER_WEIGHTS, ())[0][:2]
        n_max = cfg.resolved_n_max
        c, n = _coherent_coefficients(alpha, n_max), np.arange(n_max + 1)
        by_net = {}
        for occ, amp in s.items():
            by_net.setdefault(sum(w * k for w, k in zip(ANALYZER_WEIGHTS, occ)), []).append(amp)
        assert sorted(by_net) == [-2, -1, 0, 1, 2]
        expected = 0
        for u in sorted(by_net):
            probe = c * np.exp(1j * theta * np.outer([u], n))[0]
            rows = np.stack((probe.real, probe.imag))
            acc = np.zeros((2, xs.size))
            for k, psi in _wavefunction_chunks(xs, n_max):
                acc += rows[:, k : k + len(psi)] @ psi
            acc *= acc
            expected = expected + float(np.sum(np.abs(np.asarray(by_net[u])) ** 2)) * (acc[0] + acc[1])
        assert np.array_equal(ps, expected)


    def test_no_states(self):
        cfg = OracleConfig(alpha=2.0, theta=0.3)
        assert full_fock_reference([], cfg, ANALYZER_WEIGHTS, (0.0, 2.0, 4.0)) == []


class TestCrossValidation:
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_pointer_engine_agreement(self, label):
        theta, alpha = 0.3, 2.0
        cfg = OracleConfig(alpha=alpha, theta=theta)
        acfg = AnalyzerConfig(theta=theta, alpha=alpha)
        s = _split_bell(label)
        pd = symmetry_pointer(bell_state(label), acfg)
        xs, ps = full_fock_density(s, cfg, ANALYZER_WEIGHTS)
        assert np.max(np.abs(ps - homodyne_density(pd, xs))) < 1e-8
        for x in (
            2.0 * alpha * math.cos(2.0 * theta),
            alpha * (1.0 + math.cos(2.0 * theta)),
            2.0 * alpha,
        ):
            ref = full_fock_collapse(s, cfg, ANALYZER_WEIGHTS, x)
            assert collapse(pd, x).fidelity(ref) >= 1.0 - 1e-8
