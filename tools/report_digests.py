#!/usr/bin/env python3
"""Print one sha256 per seeded report of a fixed spec set, to diff two checkouts.

    python3 tools/report_digests.py --src path/to/checkout/src > digests.txt
    python3 tools/report_digests.py --src src --commands demo2mode,symmetry,bell,sweep

The spec set covers all five commands at the three pinned operating points,
seeds 1-3, sampled and --ideal where the command has it: demo2mode over
four inputs and both signs, symmetry over the four Bell states and two mixed
inputs, bell over all four Bell inputs, one mixed input and two amplitude
inputs that name a Bell state under all four policies, sweep, and oracle-check at alpha 2 and 4 (its alpha cap) at each
pinned theta.  The input parser's edge cases come on top: symmetry and bell
(sampled and --ideal, default policy) and demo2mode (both signs) on values
written as repr(complex) writes them, as perfbench does, with whitespace
around them, and subnormal or huge, and demo2mode on amplitudes at the
pruning tolerance.  Symmetry also runs at the benchmark's campaign sizes, 1
and 50 trials, sampled and --ideal, on a repr(complex) input and on
PsiMinus, and bell at its sizes, on all four Bell inputs, sampled and
--ideal: 6 trials with early exit, and 5 trials with --no-early-exit
--omit-final.  Each line is
"<sha256 of the sorted-key JSON report>  <spec>".  Two checkouts give
byte-identical reports exactly when ``diff <(... --src A/src) <(... --src
B/src)`` prints nothing.  --commands keeps the specs of the listed commands
only.  The report count goes to stderr.

tests/data/report_digests_mc.txt holds the Monte Carlo commands' lines (all
but oracle-check, whose bytes depend on the BLAS build);
tests/test_report_digests.py recomputes them.  A change that alters report
bytes on purpose regenerates that file with the second command above.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

POINTS = (
    {"theta": 0.1, "alpha": math.sqrt(1.3e4)},  # the paper's point
    {"theta": 0.3, "alpha": 1.5 / 0.3**2},  # the threshold point
    {"theta": math.pi / 4.0, "alpha": 1e3},  # the grid-stress point
)
SEEDS = (1, 2, 3)
TRIALS = 200
BELL_LABELS = ("PsiMinus", "PsiPlus", "PhiMinus", "PhiPlus")
MIXED = ("0.5,0.5j,-0.5,0.5", "0.3,0.5,0.2,0.7")
# Amplitude text that names a Bell state (PsiMinus, and PsiMinus times i), so
# the bell runner finds its true label with ideal_label.
BELL_AMPS = ("0,1,-1,0", "0,1j,-1j,0")
DEMO_INPUTS = (None, "0.6,0.8j", "1,0", "0,1")
# Parser edge cases: repr(complex) values (signed zeros included), spaces and
# tabs around values, subnormal and huge amplitudes.
EDGE_INPUTS = (
    "(0.5+0j),0.5j,(-0.5-0j),(0.5+0j)",
    "(0.3980606506533299+0.21626123292890712j),(0.16009139840198477-0.2601451245065213j),"
    "(-0.6313585205233393+0.28154228639244233j),(0.43863021795623547+0.17662940671887473j)",
    " 0.3 , 0.5j ,\t-0.2 , 0.7 ",
    "1e-320,-1e-320j,1e-320,0",
    "1e308,1e308j,-1e308,0",
)
DEMO_EDGE_INPUTS = (
    "(0.6+0j),0.8j",
    " 0.6 ,\t0.8j ",
    "1e-320,1e-320j",
    "1e308,-1e308",
    # One amplitude at or just above the pruning tolerance (1e-14): d1 = 1e-14
    # is pruned, d1 = 1.005e-14 and d2/sqrt2 = 1.06e-14 are kept.
    "1e-14,1",
    "1.005e-14,1",
    "1,1.5e-14",
)
# perfbench's symmetry campaign sizes (wide_grid runs 1 trial, paper_symmetry
# 50) on a perfbench-style repr(complex) input and a Bell label.
BENCH_TRIALS = (1, 50)
BENCH_INPUTS = (EDGE_INPUTS[1], "PsiMinus")
# perfbench's bell campaigns on the default input: (trials, early_exit, omit_final).
BENCH_BELL = ((6, True, False), (5, False, True))


def specs() -> list[dict]:
    """Keyword arguments of ExperimentSpec for every report in the set."""
    out = []
    for point in POINTS:
        for seed in SEEDS:
            base = dict(point, seed=seed, trials=TRIALS)
            for text in DEMO_INPUTS + DEMO_EDGE_INPUTS:
                for sign in (1, -1):
                    out.append(dict(base, command="demo2mode", input=text, sign=sign))
            for text in BELL_LABELS + MIXED:
                for ideal in (False, True):
                    out.append(dict(base, command="symmetry", input=text, ideal=ideal))
            for text in (None, MIXED[0]) + BELL_AMPS:
                for early_exit in (True, False):
                    for omit_final in (False, True):
                        for ideal in (False, True):
                            out.append(
                                dict(base, command="bell", input=text, early_exit=early_exit,
                                     omit_final=omit_final, ideal=ideal)
                            )
            for text in EDGE_INPUTS:
                for ideal in (False, True):
                    out.append(dict(base, command="symmetry", input=text, ideal=ideal))
                    out.append(dict(base, command="bell", input=text, early_exit=True,
                                    omit_final=False, ideal=ideal))
            for trials in BENCH_TRIALS:
                for text in BENCH_INPUTS:
                    for ideal in (False, True):
                        out.append(dict(base, command="symmetry", input=text, ideal=ideal,
                                        trials=trials))
            for trials, early_exit, omit_final in BENCH_BELL:
                for ideal in (False, True):
                    out.append(dict(base, command="bell", input=None, early_exit=early_exit,
                                    omit_final=omit_final, ideal=ideal, trials=trials))
            out.append(dict(base, command="sweep"))
            for alpha in (2.0, 4.0):
                out.append(dict(base, command="oracle-check", alpha=alpha, trials=1))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="a checkout's src directory")
    parser.add_argument(
        "--commands", default=None, help="comma-separated commands to keep (default: all)"
    )
    args = parser.parse_args(argv)
    src = args.src.resolve()
    if not (src / "kerrbell" / "__init__.py").is_file():
        parser.error(f"{src / 'kerrbell'} not found")
    sys.path.insert(0, str(src))
    import kerrbell
    from kerrbell.cli import ExperimentSpec, run

    if src not in Path(kerrbell.__file__).resolve().parents:
        parser.error(f"imported kerrbell from {kerrbell.__file__}, not {src}")
    all_specs = specs()
    if args.commands is not None:
        keep = set(args.commands.split(","))
        if not keep <= {kwargs["command"] for kwargs in all_specs}:
            parser.error(f"--commands {args.commands!r} names a command outside the set")
        all_specs = [kwargs for kwargs in all_specs if kwargs["command"] in keep]
    for kwargs in all_specs:
        report = json.dumps(run(ExperimentSpec(**kwargs)), sort_keys=True)
        digest = hashlib.sha256(report.encode()).hexdigest()
        print(f"{digest}  {json.dumps(kwargs, sort_keys=True)}")
    print(f"{len(all_specs)} reports", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
