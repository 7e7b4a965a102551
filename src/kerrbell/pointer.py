"""Signal-probe entanglement as a finite sum of Fock branches with coherent pointers.

A probe pulse prepared in a coherent state picks up one cross-Kerr phase per
signal occupation branch, so the exact joint state is a short list of
(occupation, signal amplitude, coherent pointer amplitude) triples.  This
stays exact at any probe amplitude — the probe is never expanded in a number
basis here — which is what makes the mean-photon-number ~1e4 operating points
tractable.

Quadrature convention: the homodyne observable is X = c + c^dag, with
coherent-state overlap

    <x|beta> = (2*pi)**-0.25 * exp(-Im(beta)**2 - (x - 2*beta)**2 / 4)

so a pointer at beta produces a unit-variance Gaussian centered on 2*Re(beta).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, ZeroDensity
from .fock_core import SpatialFockState

_ROOT4 = (2.0 * math.pi) ** -0.25
_GAUSS_NORM = 1.0 / math.sqrt(2.0 * math.pi)
_NORM_TOL = 1e-9
MAX_GRID_POINTS = 1_000_000  # largest tabulated density grid
GRID_PAD = 8.0  # density grid half-width beyond the outermost pointer centers


@dataclass(frozen=True)
class PointerBranch:
    """One signal occupation with its amplitude and coherent pointer."""

    occ: tuple[int, ...]
    d: complex
    beta: complex


class PointerDecomposition:
    """Branches with pairwise-distinct occupations; sum of |d|^2 equals 1."""

    __slots__ = ("_branches", "_max_total")

    def __init__(
        self,
        branches: list[PointerBranch] | tuple[PointerBranch, ...],
        max_total: int | None = None,
    ) -> None:
        by_occ: dict[tuple[int, ...], PointerBranch] = {}
        n_modes = None
        for br in branches:
            occ = tuple(int(n) for n in br.occ)
            if n_modes is None:
                n_modes = len(occ)
            elif len(occ) != n_modes:
                raise ValueError("occupation tuples differ in length")
            if occ in by_occ:
                raise ValueError(f"occupation {occ} appears in more than one branch")
            by_occ[occ] = PointerBranch(occ, complex(br.d), complex(br.beta))
        if not by_occ:
            raise ValueError("decomposition needs at least one branch")
        nsq = sum(abs(br.d) ** 2 for br in by_occ.values())
        if not abs(nsq - 1.0) <= _NORM_TOL:  # also rejects a NaN norm
            raise ValueError(f"signal amplitudes are not normalized (|.|^2 = {nsq!r})")
        ordered = tuple(by_occ[occ] for occ in sorted(by_occ))
        self._branches = ordered
        if max_total is None:
            max_total = max(sum(br.occ) for br in ordered)
        self._max_total = int(max_total)

    @property
    def branches(self) -> tuple[PointerBranch, ...]:
        return self._branches

    @property
    def max_total(self) -> int:
        return self._max_total

    @property
    def n_modes(self) -> int:
        return len(self._branches[0].occ)

    def __repr__(self) -> str:
        terms = "; ".join(
            f"{br.occ}: d={br.d:.4g}, beta={br.beta:.6g}" for br in self._branches
        )
        return f"PointerDecomposition({terms})"


def attach_probe(s: SpatialFockState, alpha: float) -> PointerDecomposition:
    """Tensor a coherent probe of real amplitude alpha onto every signal branch."""
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    beta = complex(alpha)
    return PointerDecomposition(
        [PointerBranch(occ, amp, beta) for occ, amp in s.items()],
        max_total=s.max_total,
    )


def apply_cross_kerr(
    pd: PointerDecomposition,
    weights: tuple[int, ...],
    theta: float,
) -> PointerDecomposition:
    """Rotate each branch pointer by exp(i*theta * sum(weights * occupation)).

    Each weight is +1, -1 or 0: the sign of the per-photon cross-phase the
    corresponding signal mode imparts on the probe.  Signal amplitudes and
    pointer moduli are unchanged.
    """
    if len(weights) != pd.n_modes:
        raise ValueError(f"need {pd.n_modes} weights, got {len(weights)}")
    if any(w not in (-1, 0, 1) for w in weights):
        raise ValueError(f"weights must be -1, 0 or +1, got {weights!r}")
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    out = []
    for br in pd.branches:
        w = sum(wm * nm for wm, nm in zip(weights, br.occ))
        out.append(PointerBranch(br.occ, br.d, br.beta * cmath.exp(1j * theta * w)))
    return PointerDecomposition(out, max_total=pd.max_total)


def x_overlap(beta: complex, x: float) -> complex:
    """Quadrature amplitude <x|beta> of a coherent state.

    The squared term generates both the Gaussian envelope around 2*Re(beta)
    and an x-dependent phase Im(beta)*(x - 2*Re(beta)).
    """
    beta = complex(beta)
    w = x - 2.0 * beta
    return _ROOT4 * cmath.exp(-beta.imag**2 - w * w / 4.0)


def homodyne_density(pd: PointerDecomposition, x):
    """Probability density of the homodyne outcome x.

    Occupations are unique per branch, so the density is the incoherent sum
    sum_j |d_j|^2 * |<x|beta_j>|^2.  Accepts a scalar or an ndarray of x.
    """
    scalar = np.isscalar(x)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros_like(xs)
    for br in pd.branches:
        u = xs - 2.0 * br.beta.real
        total += (abs(br.d) ** 2 * _GAUSS_NORM) * np.exp(-0.5 * u * u)
    return float(total[0]) if scalar else total


def uniform_grid(centers, step: float) -> np.ndarray:
    """Uniform x grid from min(centers) - GRID_PAD to max(centers) + GRID_PAD
    at the step.

    Raises InvalidSpec, before allocating, when the grid would hold more than
    MAX_GRID_POINTS; the step count is checked before it is rounded, since a
    subnormal step makes it infinite.
    """
    lo, hi = min(centers) - GRID_PAD, max(centers) + GRID_PAD
    steps = (hi - lo) / step
    if not steps <= MAX_GRID_POINTS - 1:
        raise InvalidSpec(
            f"density grid would exceed {MAX_GRID_POINTS} points; "
            f"use a coarser grid step than {step!r}"
        )
    return np.linspace(lo, hi, max(2, math.ceil(steps) + 1))


def density_grid(pd: PointerDecomposition, step: float = 0.01) -> tuple[np.ndarray, np.ndarray]:
    """Uniform x grid spanning all pointer centers +/- GRID_PAD, with its density."""
    xs = uniform_grid([2.0 * br.beta.real for br in pd.branches], step)
    return xs, homodyne_density(pd, xs)


def collapse(pd: PointerDecomposition, x: float) -> SpatialFockState:
    """Conditional signal state after measuring quadrature value x.

    Branch j keeps amplitude d_j * <x|beta_j>, then the state is renormalized:
    a Gaussian weight per pointer center plus the x-dependent branch phase
    Im(beta_j)*(x - 2*Re(beta_j)).
    """
    amps: dict[tuple[int, ...], complex] = {}
    nsq = 0.0
    for br in pd.branches:
        a = br.d * x_overlap(br.beta, x)
        amps[br.occ] = a
        nsq += abs(a) ** 2
    if nsq < 1e-300:
        raise ZeroDensity(f"homodyne density at x={x!r} is numerically zero")
    scale = 1.0 / math.sqrt(nsq)
    return SpatialFockState(
        {occ: a * scale for occ, a in amps.items()},
        max_total=pd.max_total,
    )
