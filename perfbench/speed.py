"""Machine-speed calibration for timings taken on shared hosts.

On a shared host the same work can run ~1.7x slower for seconds to minutes
at a time, because of load outside the process.  The benchmark times a fixed
reference kernel, which does not touch kerrbell, next to every campaign.  It
rescales each campaign's time by REFERENCE_SECONDS over the kernel's local
median time.  Reported times are then seconds at the reference speed: the
kernel's median time on the machine the benchmark was built on, a 2-vCPU
Intel Xeon VM.  Rescaling cannot hide a change to kerrbell, because the
kernel's work never changes.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_SECONDS = 4.0e-4
WINDOW = 4  # kernel times on each side of a campaign that set its factor

_X = np.linspace(-8.0, 8.0, 20000)


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of dict/complex Python work and one numpy pass."""
    start = time.perf_counter()
    amps: dict[tuple[int, ...], complex] = {}
    for i in range(300):
        occ = (i % 4, i % 3, i % 5, i % 2)
        amps[occ] = amps.get(occ, 0j) + complex(i, -i) * 0.5
    sum(abs(a) ** 2 for a in amps.values())
    float(np.exp(-0.5 * _X * _X).sum())
    return time.perf_counter() - start


def adjusted(seconds: list[float], kernel_seconds: list[float]) -> np.ndarray:
    """Each duration rescaled by the median kernel time of its neighbourhood."""
    t = np.asarray(seconds, dtype=float)
    k = np.asarray(kernel_seconds, dtype=float)
    local = np.array([np.median(k[max(0, i - WINDOW) : i + WINDOW + 1]) for i in range(len(k))])
    return t * (REFERENCE_SECONDS / local)


def kernel_median(repeats: int = 9) -> float:
    """Median kernel time over a few calls."""
    return float(np.median([reference_kernel() for _ in range(repeats)]))
