"""Brute-force cross-check: the probe expanded in a truncated number basis.

Everything the pointer module does analytically is redone here the slow way:
the joint signal-probe state is expanded over (occupation, probe photon
number), the cross-Kerr coupling acts as a diagonal phase, and the homodyne
projection uses the number-basis quadrature wavefunctions for X = c + c^dag.
Feasible only for small probe amplitudes, which is exactly where it certifies
the pointer algebra.

The joint coefficient d_occ*c_n*exp(i*theta*net*n) depends on the occupation
only through its amplitude d_occ and net weight, so the probe is summed once
per |net|: f_net(x) = sum_n c_n*exp(i*theta*net*n)*<x|n>, and c_n and <x|n>
are real, so f_-net = conj(f_net).  A density is sum_net w_net*|f_net(x)|^2,
w_net being the signal weight at that net, and a conditional state at x is
d_occ*f_net(x) up to its norm.  The wavefunctions <x|n> are never tabulated
over a density grid: the recursion streams them in chunks of _CHUNK rows,
each folded into the sums by one matrix product, and the collapse points
ride at the end of a density grid, their columns copied out of the chunks.

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
from .pointer import grid_windows

_TAIL_TOL = 1e-12
_BLOCK = 16384  # grid points per pass of the recursion; only larger grids are split
_CHUNK = 8  # wavefunction rows the recursion streams per step


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


def _wavefunction_chunks(xs: np.ndarray, n_max: int):
    """Yield (n, rows), rows[k] = <x|n + k> at xs, for n = 0, _CHUNK, ... <= n_max.

    <x|0> = (2*pi)**-0.25 * exp(-x**2/4), the beta = 0 limit of the coherent
    overlap; higher n follow the stable two-term recursion of the normalized
    Hermite functions evaluated at x/sqrt2.  Every row, <x|0> and <x|1>
    included, is written in place, one operation at a time.  rows is a view
    into one buffer that the next step overwrites: the chunk sits after the
    two rows before it, which seed the recursion.
    """
    z = xs / math.sqrt(2.0)
    buf = np.empty((_CHUNK + 2, xs.size))
    tmp = np.empty(xs.size)
    psi0 = np.multiply(np.negative(xs, out=buf[2]), xs, out=buf[2])  # -x*x
    np.exp(np.divide(psi0, 4.0, out=psi0), out=psi0)
    psi0 *= (2.0 * math.pi) ** -0.25
    if n_max >= 1:  # sqrt(2)*z*psi[0]
        np.multiply(math.sqrt(2.0), z, out=buf[3])
        buf[3] *= psi0
    for n0 in range(0, n_max + 1, _CHUNK):
        m = min(_CHUNK, n_max + 1 - n0)
        for k in range(2 if n0 else 4, m + 2):  # buf[k] holds row n0 + k - 2
            n = n0 + k - 2  # sqrt(2/n)*z*psi[n-1] - sqrt((n-1)/n)*psi[n-2]
            np.multiply(math.sqrt(2.0 / n), z, out=buf[k])
            buf[k] *= buf[k - 1]
            buf[k] -= np.multiply(math.sqrt((n - 1.0) / n), buf[k - 2], out=tmp)
        yield n0, buf[2 : m + 2]
        buf[:2] = buf[_CHUNK:]


def quadrature_wavefunctions(xs: np.ndarray, n_max: int) -> np.ndarray:
    """Number-state wavefunctions <x|n> for X = c + c^dag, rows n = 0..n_max,
    gathered from the streamed recursion."""
    xs = np.asarray(xs, dtype=float)
    psi = np.empty((n_max + 1, xs.size))
    for n, rows in _wavefunction_chunks(xs, n_max):
        psi[n : n + len(rows)] = rows
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
    weights: tuple[int, ...],
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Occupations, their net weights and signal amplitudes d_occ.  The joint
    coefficient after the cross-Kerr phases, d_occ*c_n*exp(i*theta*net*n), is
    never tabulated: it depends on the occupation only through d_occ and net."""
    if len(weights) != s.n_modes:
        raise ValueError(f"need {s.n_modes} weights, got {len(weights)}")
    occs, amps = zip(*s.items())
    nets = np.asarray([sum(w * n for w, n in zip(weights, occ)) for occ in occs])
    return occs, nets, np.asarray(amps)


def _probe_rows(joints: list, cfg: OracleConfig) -> dict[int, np.ndarray]:
    """|u| -> real rows [Re; Im] of the probe c_n*exp(i*theta*|u|*n), n = 0..n_max,
    for every distinct |net| u of the joints.  c_n and <x|n> are real, so the
    rows of -u are [Re; -Im]: f_-u = conj(f_u), and |f_-u|^2 equals |f_u|^2."""
    c = _coherent_coefficients(cfg.alpha, cfg.resolved_n_max)
    n = np.arange(cfg.resolved_n_max + 1)
    nets = sorted({abs(u) for _, js, _ in joints for u in js.tolist()})
    probes = c * np.exp(1j * cfg.theta * np.outer(nets, n))
    return {u: np.stack((p.real, p.imag)) for u, p in zip(nets, probes)}


def _probe_sums(xs: np.ndarray, rows: np.ndarray, n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows @ <x|n> over n = 0..len(rows[0]) - 1 at xs, the table <x|n> at the
    last n_points of xs), both from one stream of the recursion over xs in
    blocks of at most _BLOCK points."""
    n_max = rows.shape[1] - 1
    out = np.zeros((len(rows), xs.size))
    table = np.empty((n_max + 1, n_points))
    first = xs.size - n_points
    for lo in range(0, xs.size, _BLOCK):
        hi = min(lo + _BLOCK, xs.size)
        acc = out[:, lo:hi]
        tmp = np.empty_like(acc)
        at = max(first, lo)  # the block's first tabulated point
        for n, psi in _wavefunction_chunks(xs[lo:hi], n_max):
            acc += np.matmul(rows[:, n : n + len(psi)], psi, out=tmp)
            if at < hi:
                table[n : n + len(psi), at - first : hi - first] = psi[:, at - lo :]
    return out, table


def _probe_pass(
    joints: list, cfg: OracleConfig, xs, densities: bool = True
) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict[int, np.ndarray]]:
    """((grid, density) per joint, net u -> f_u at each of xs).  A joint's density
    is sum_u w_u*|f_u(x)|^2 over its nets in order, w_u = sum_{occ: net=u}
    |d_occ|^2.  Joints on equal grids (equal `grid_windows`) share one grid
    array and one pass of the recursion, which sums the probe once for each
    |u| of theirs.  xs ride at the end of the first pass's grid, or alone
    without densities.  Each f_u at xs is one pairwise sum of a probe row
    times a table column, so it does not depend on the other nets or points,
    and a single-state call gives the same bits as a call for several."""
    if not joints:
        return [], {}
    probes = _probe_rows(joints, cfg)
    points = np.asarray(xs, dtype=float)
    groups: dict[tuple, list] = {} if densities else {(): []}  # (): the points alone
    for j, (_, nets, amps) in enumerate(joints if densities else ()):
        centers = 2.0 * cfg.alpha * np.cos(cfg.theta * nets)
        w_net = {u: float(np.sum(np.abs(amps[nets == u]) ** 2)) for u in sorted(set(nets.tolist()))}
        groups.setdefault(grid_windows(centers.tolist(), cfg.grid_step), []).append((j, w_net))
    out: list = [None] * len(joints)
    table = None
    for windows, members in groups.items():
        carried = points if table is None else points[:0]
        grid = np.concatenate([np.linspace(*w) for w in windows] + [carried])
        size = grid.size - carried.size
        used = sorted({abs(u) for _, w_net in members for u in w_net}) or list(probes)
        sq, t = _probe_sums(grid, np.concatenate([probes[u] for u in used]), carried.size)
        table = t if table is None else table
        sq *= sq
        sq[0::2] += sq[1::2]
        mags = dict(zip(used, sq[0::2, :size]))
        for j, w_net in members:
            (u0, w0), *rest = w_net.items()
            p = w0 * mags[abs(u0)]
            for u, w in rest:
                p += w * mags[abs(u)]
            out[j] = (grid[:size], p)
        del sq, mags  # before the next group's pass
    cols = [table[:, j] for j in range(points.size)]
    f = {
        u: np.array([complex(*np.add.reduce(rows * col, axis=1)) for col in cols])
        for u, rows in probes.items()
    }
    return out, {**f, **{-u: fu.conj() for u, fu in f.items()}}


def _conditionals(
    joint_amps: tuple, cfg: OracleConfig, xs, f: dict[int, np.ndarray], convention: str
) -> list[SpatialFockState]:
    """Conditional states d_occ*f_net(x) of a joint state at each x in xs, f
    being the probe sums at xs."""
    if convention not in ("analytic", "fock"):
        raise ValueError(f"convention must be 'analytic' or 'fock', got {convention!r}")
    occs, nets, amps = joint_amps
    bridge = np.exp(-0.5j * cfg.alpha**2 * np.sin(2.0 * cfg.theta * nets))
    at_x = np.stack([f[u] for u in nets.tolist()])  # occupation x point
    out = []
    for j, x in enumerate(xs):
        cond = amps * at_x[:, j]
        if convention == "analytic":
            cond = cond * bridge
        nsq = float(np.sum(np.abs(cond) ** 2))
        if nsq < 1e-300:
            raise ZeroDensity(f"conditional density at x={x!r} is numerically zero")
        scale = 1.0 / math.sqrt(nsq)
        state = {occ: complex(a) * scale for occ, a in zip(occs, cond)}
        out.append(SpatialFockState(state))
    return out


def full_fock_reference(
    states: list[SpatialFockState],
    cfg: OracleConfig,
    weights: tuple[int, ...],
    xs: tuple[float, ...],
    convention: str = "analytic",
) -> list[tuple[np.ndarray, np.ndarray, list[SpatialFockState]]]:
    """(grid, density, conditional states at each of xs) for each state.  The probe
    rows are built once for every |net| of the states, states on equal grids
    share one pass of the recursion, and the table at xs that serves every
    state's conditionals comes out of the first pass."""
    joints = [_joint_amplitudes(s, weights) for s in states]
    dens, f = _probe_pass(joints, cfg, xs)
    conds = [_conditionals(j, cfg, xs, f, convention) for j in joints]
    return [(grid, p, c) for (grid, p), c in zip(dens, conds)]


def full_fock_density(
    s: SpatialFockState,
    cfg: OracleConfig,
    weights: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Exact homodyne density of the truncated joint state, tabulated on a grid."""
    return _probe_pass([_joint_amplitudes(s, weights)], cfg, ())[0][0]


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
    joint = _joint_amplitudes(s, weights)
    f = _probe_pass([joint], cfg, [float(x)], densities=False)[1]
    return _conditionals(joint, cfg, [x], f, convention)[0]
