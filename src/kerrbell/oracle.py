"""Brute-force cross-check: the probe expanded in a truncated number basis.

Everything the pointer module does analytically is redone here the slow way:
the joint signal-probe state is held as explicit coefficients over
(occupation, probe photon number), the cross-Kerr coupling acts as a diagonal
phase, and the homodyne projection uses the number-basis quadrature
wavefunctions for X = c + c^dag.  Feasible only for small probe amplitudes,
which is exactly where it certifies the pointer algebra.

Phase conventions: the number-basis expansion of a coherent state yields
quadrature phases Im(beta)*(x - Re(beta)), whereas the analytic overlap used
in `pointer.x_overlap` carries Im(beta)*(x - 2*Re(beta)).  The two differ by
the constant Re(beta)*Im(beta) per branch — a coherent-state phase
convention, invisible in any density.  `full_fock_collapse` returns the
"analytic" convention by default so conditional states compare directly
against `pointer.collapse`; convention="fock" returns the raw expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzers import check_domain
from .errors import TruncationOverflow, ZeroDensity
from .fock_core import SpatialFockState
from .pointer import uniform_grid

_TAIL_TOL = 1e-12
_BLOCK = 2048  # grid points per wavefunction table block


def default_n_max(alpha: float) -> int:
    return math.ceil(alpha * alpha + 10.0 * alpha + 20.0)


def poisson_tail(n_max: int, mean: float) -> float:
    """P(N > n_max) for N ~ Poisson(mean); the probe mass lost to truncation.

    Sums the Poisson terms above n_max, each evaluated in log space, until
    they are past the mode and below 1e-17 of the running sum.
    """
    if mean == 0.0:
        return 0.0
    log_mean = math.log(mean)
    k = n_max + 1
    log_term = k * log_mean - mean - math.lgamma(k + 1)
    total = 0.0
    while True:
        term = math.exp(log_term)
        total += term
        if k > mean and term <= 1e-17 * total:
            return total
        k += 1
        log_term += log_mean - math.log(k)


@dataclass(frozen=True)
class OracleConfig:
    """Truncation and grid settings for the number-basis reference computation.

    alpha and grid_step share the analyzer's validated domain; theta may be
    any finite value (0 switches the coupling off).
    """

    alpha: float
    theta: float
    n_max: int | None = None
    grid_step: float = 0.01

    def __post_init__(self) -> None:
        check_domain(alpha=self.alpha, grid_step=self.grid_step)
        if self.alpha > 4.0:
            raise ValueError(
                f"number-basis reference is limited to alpha <= 4, got {self.alpha!r}"
            )
        if not math.isfinite(self.theta):
            raise ValueError("theta must be finite")
        tail = poisson_tail(self.resolved_n_max, self.alpha**2)
        if tail >= _TAIL_TOL:
            raise TruncationOverflow(
                f"probe tail mass {tail:.3e} beyond n_max={self.resolved_n_max} "
                f"exceeds {_TAIL_TOL}"
            )

    @property
    def resolved_n_max(self) -> int:
        return self.n_max if self.n_max is not None else default_n_max(self.alpha)


def quadrature_wavefunctions(xs: np.ndarray, n_max: int) -> np.ndarray:
    """Number-state wavefunctions <x|n> for X = c + c^dag, rows n = 0..n_max.

    <x|0> = (2*pi)**-0.25 * exp(-x**2/4), the beta = 0 limit of the coherent
    overlap; higher n follow the stable two-term recursion of the normalized
    Hermite functions evaluated at x/sqrt2, each row written in place.
    """
    xs = np.asarray(xs, dtype=float)
    z = xs / math.sqrt(2.0)
    psi = np.empty((n_max + 1, xs.size))
    psi[0] = (2.0 * math.pi) ** -0.25 * np.exp(-xs * xs / 4.0)
    if n_max >= 1:
        psi[1] = math.sqrt(2.0) * z * psi[0]
    tmp = np.empty(xs.size)
    for n in range(2, n_max + 1):  # sqrt(2/n)*z*psi[n-1] - sqrt((n-1)/n)*psi[n-2]
        np.multiply(math.sqrt(2.0 / n), z, out=psi[n])
        psi[n] *= psi[n - 1]
        psi[n] -= np.multiply(math.sqrt((n - 1.0) / n), psi[n - 2], out=tmp)
    return psi


def _coherent_coefficients(alpha: float, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        out = np.zeros(n_max + 1)
        out[0] = 1.0
        return out
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    logs = n * math.log(alpha) - 0.5 * log_factorial - alpha * alpha / 2.0
    return np.exp(logs)


def _joint_amplitudes(
    s: SpatialFockState,
    cfg: OracleConfig,
    weights: tuple[int, ...],
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Occupations, net weights and joint coefficients A[occ, n] after the
    diagonal cross-Kerr phases."""
    if len(weights) != s.n_modes:
        raise ValueError(f"need {s.n_modes} weights, got {len(weights)}")
    occs, amps = zip(*s.items())
    nets = np.asarray([sum(w * n for w, n in zip(weights, occ)) for occ in occs])
    c = _coherent_coefficients(cfg.alpha, cfg.resolved_n_max)
    n = np.arange(cfg.resolved_n_max + 1)
    phases = np.exp(1j * cfg.theta * np.outer(nets, n))
    return occs, nets, np.asarray(amps)[:, None] * c[None, :] * phases


def _densities(joints: list, cfg: OracleConfig) -> list[tuple[np.ndarray, np.ndarray]]:
    """(grid, sum_occ |joint @ psi|^2) per joint, from tables of at most _BLOCK grid
    points; joints on equal grids (linspace: equal ends and size) share each block."""
    groups: dict[tuple, tuple[np.ndarray, list]] = {}
    out = []
    for _, nets, joint in joints:
        centers = 2.0 * cfg.alpha * np.cos(cfg.theta * nets)
        xs = uniform_grid(centers.tolist(), cfg.grid_step)
        p = np.empty(xs.size)
        out.append((xs, p))
        groups.setdefault((xs[0], xs[-1], xs.size), (xs, []))[1].append((joint, p))
    for xs, members in groups.values():
        for lo in range(0, xs.size, _BLOCK):
            psi = quadrature_wavefunctions(xs[lo : lo + _BLOCK], cfg.resolved_n_max)
            for joint, p in members:
                # psi is real: two real products avoid a complex copy of it.
                re, im = joint.real @ psi, joint.imag @ psi
                p[lo : lo + _BLOCK] = np.sum(re * re + im * im, axis=0)
    return out


def _conditionals(
    joint_amps: tuple, cfg: OracleConfig, xs, psi: np.ndarray, convention: str
) -> list[SpatialFockState]:
    """Conditional states of a joint state at each x in xs, psi being the table at xs."""
    if convention not in ("analytic", "fock"):
        raise ValueError(f"convention must be 'analytic' or 'fock', got {convention!r}")
    occs, nets, joint = joint_amps
    bridge = np.exp(-0.5j * cfg.alpha**2 * np.sin(2.0 * cfg.theta * nets))
    out = []
    for j, x in enumerate(xs):
        amps = joint @ psi[:, j].astype(complex)
        if convention == "analytic":
            amps = amps * bridge
        nsq = float(np.sum(np.abs(amps) ** 2))
        if nsq < 1e-300:
            raise ZeroDensity(f"conditional density at x={x!r} is numerically zero")
        scale = 1.0 / math.sqrt(nsq)
        state = {occ: complex(a) * scale for occ, a in zip(occs, amps)}
        out.append(SpatialFockState(state))
    return out


def full_fock_reference(
    states: list[SpatialFockState],
    cfg: OracleConfig,
    weights: tuple[int, ...],
    xs: tuple[float, ...],
    convention: str = "analytic",
) -> list[tuple[np.ndarray, np.ndarray, list[SpatialFockState]]]:
    """(grid, density, conditional states at each of xs) for each state.  Each joint
    state is built once, and states share the table at xs and equal grids' blocks."""
    joints = [_joint_amplitudes(s, cfg, weights) for s in states]
    psi = quadrature_wavefunctions(np.asarray(xs, dtype=float), cfg.resolved_n_max)
    conds = [_conditionals(j, cfg, xs, psi, convention) for j in joints]
    return [(grid, p, c) for (grid, p), c in zip(_densities(joints, cfg), conds)]


def full_fock_density(
    s: SpatialFockState,
    cfg: OracleConfig,
    weights: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact homodyne density of the truncated joint state, tabulated on a grid."""
    return _densities([_joint_amplitudes(s, cfg, weights)], cfg)[0]


def full_fock_collapse(
    s: SpatialFockState,
    cfg: OracleConfig,
    weights: tuple[int, ...],
    x: float,
    convention: str = "analytic",
) -> SpatialFockState:
    """Exact conditional signal state after measuring quadrature value x.

    convention="analytic" rotates each branch by exp(-i*Re(b)*Im(b)) with
    b = alpha*exp(i*theta*net_weight), matching the coherent-overlap phase
    convention of the pointer module; "fock" leaves the raw expansion.
    """
    psi = quadrature_wavefunctions(np.asarray([float(x)]), cfg.resolved_n_max)
    return _conditionals(_joint_amplitudes(s, cfg, weights), cfg, [x], psi, convention)[0]
