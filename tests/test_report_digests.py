"""The digest tool's spec set: every command, pinned point and seed, sampled
and --ideal, and every spec valid; and the Monte Carlo reports against their
recorded digests."""

import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

from kerrbell.cli import COMMANDS, ExperimentSpec, run

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
_GOLDEN = Path(__file__).resolve().parent / "data" / "report_digests_mc.txt"
_MC_COMMANDS = ("demo2mode", "symmetry", "bell", "sweep")
_spec = importlib.util.spec_from_file_location("report_digests", _PATH)
report_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(report_digests)


def test_spec_set_covers_commands_points_and_seeds():
    specs = report_digests.specs()
    thetas = {0.1, 0.3, math.pi / 4.0}
    for command in COMMANDS:
        ours = [s for s in specs if s["command"] == command]
        assert {s["theta"] for s in ours} == thetas
        assert {s["seed"] for s in ours} == {1, 2, 3}
    for command in ("symmetry", "bell"):
        assert {s["ideal"] for s in specs if s["command"] == command} == {False, True}
    bell = [s for s in specs if s["command"] == "bell"]
    assert {(s["early_exit"], s["omit_final"]) for s in bell} == {
        (e, o) for e in (False, True) for o in (False, True)
    }
    for kwargs in specs:
        ExperimentSpec(**kwargs).validate()


def test_digests_repeat(capsys, monkeypatch):
    few = report_digests.specs()[::40]
    monkeypatch.setattr(report_digests, "specs", lambda: few)
    monkeypatch.setattr(sys, "path", sys.path[:])  # main() puts --src first
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for _ in range(2):
        assert report_digests.main(["--src", src]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == len(few)


def test_golden_file_lists_every_monte_carlo_spec():
    recorded = [json.loads(line.split("  ", 1)[1]) for line in _GOLDEN.read_text().splitlines()]
    want = [s for s in report_digests.specs() if s["command"] in _MC_COMMANDS]
    assert recorded == want, (
        f"{_GOLDEN.name} does not list the tool's Monte Carlo spec set; regenerate it with "
        "python3 tools/report_digests.py --src src --commands " + ",".join(_MC_COMMANDS)
    )


def test_monte_carlo_reports_match_recorded_digests():
    """Report bytes of every seeded demo2mode, symmetry, bell and sweep spec in
    the tool's set, against the digests recorded in tests/data.  oracle-check is
    left out: its bytes depend on the BLAS build."""
    mismatched = []
    for line in _GOLDEN.read_text().splitlines():
        digest, spec_json = line.split("  ", 1)
        report = json.dumps(run(ExperimentSpec(**json.loads(spec_json))), sort_keys=True)
        if hashlib.sha256(report.encode()).hexdigest() != digest:
            mismatched.append(spec_json)
    assert not mismatched, (
        f"{len(mismatched)} reports changed bytes, first {mismatched[0]}.  If the change "
        f"is deliberate, regenerate {_GOLDEN.name} with python3 tools/report_digests.py "
        "--src src --commands " + ",".join(_MC_COMMANDS) + " and say so in CHANGES.md"
    )
