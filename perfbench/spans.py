"""Call tracing from outside the program: spans around kerrbell's public functions.

The tracer replaces each traced function at the names its callers import it
by (``kerrbell.analyzers.sample_homodyne``, ``kerrbell.cli.fidelity``, ...),
so calls a module makes to its own functions stay inside the caller's self
time.  ``kerrbell.cli.run`` is the entry point the benchmark itself calls, so
it is replaced in its own module.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

# Layer (kerrbell module) -> public functions traced in that layer.
TRACED = {
    "cli": ("run",),
    "bell_detector": ("bell_detect",),
    "analyzers": ("run_symmetry_analyzer",),
    "pointer": (
        "attach_probe",
        "apply_cross_kerr",
        "sample_homodyne",
        "collapse",
        "homodyne_density",
    ),
    "fock_core": (
        "embed",
        "apply_beam_splitter",
        "apply_phase_shift",
        "extract",
        "apply_pauli",
        "fidelity",
    ),
    "oracle": ("full_fock_density", "full_fock_collapse"),
}
ENTRY_POINTS = {("cli", "run")}
# Unit of each metric, by the last component of its name.
UNITS = {
    "us_per_call": "us/call",
    "calls_per_trial": "1/trial",
    "share": "fraction",
    "errors": "count",
    "analyzers_per_trial": "1/trial",
    "unaccounted_share": "fraction",
}


class Span(NamedTuple):
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index of the enclosing span, -1 at the top
    campaign: int


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.end - s.start - covered)
    return out


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"kerrbell.{layer}") for layer in TRACED}


def snapshot() -> dict:
    """The object behind every traced name in every layer module."""
    modules = layer_modules()
    return {
        (layer, fname): getattr(module, fname, None)
        for layer, module in modules.items()
        for names in TRACED.values()
        for fname in names
    }


class Tracer:
    """Installs span-recording wrappers; ``restore`` puts every original back.

    Use as a context manager.  Set ``campaign`` before each campaign so its
    spans carry the campaign index.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter = Counter()
        self.campaign = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = layer_modules()
        for layer, names in TRACED.items():
            home = modules[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # a removed function simply has no calls
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", layer, original)
                for caller in modules.values():
                    is_caller = caller is not home or (layer, fname) in ENTRY_POINTS
                    if is_caller and getattr(caller, fname, None) is original:
                        self._patched.append((caller, fname, original))
                        setattr(caller, fname, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._patched:
            module, fname, original = self._patched.pop()
            setattr(module, fname, original)

    def _wrap(self, name: str, layer: str, fn):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, tracer.campaign)

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def layer_metrics(tracer: Tracer, trials: int, wall_ns: int) -> dict[str, float]:
    """Per-function us_per_call, calls_per_trial and share, plus error counts.

    ``wall_ns`` is the traced campaigns' wall time; ``share`` is a function's
    self time over it, and ``trace.unaccounted_share`` is the part of it no
    span's self time covers.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    analyzers_in_bell = 0
    for s, self_ns in zip(spans, selfs):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += self_ns
        if (
            s.name == "analyzers.run_symmetry_analyzer"
            and s.parent >= 0
            and spans[s.parent].name == "bell_detector.bell_detect"
        ):
            analyzers_in_bell += 1
    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        for fname in names:
            key = f"{layer}.{fname}"
            n = calls[key]
            out[f"{key}.us_per_call"] = total[key] / n / 1e3 if n else 0.0
            out[f"{key}.calls_per_trial"] = n / trials
            out[f"{key}.share"] = own[key] / wall_ns
        out[f"{layer}.errors"] = tracer.errors[layer]
    out["bell_detector.analyzers_per_trial"] = analyzers_in_bell / trials
    out["trace.unaccounted_share"] = (wall_ns - sum(selfs)) / wall_ns
    return out
