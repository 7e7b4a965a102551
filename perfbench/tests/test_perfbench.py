"""Tests of the benchmark's own logic: spans, tracer hygiene, generation, gates.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import copy
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import pytest  # noqa: E402

from campaigns import (  # noqa: E402
    WORKLOADS,
    Checker,
    campaign,
    exact_error,
    input_singlet_weight,
)
from spans import Span, Tracer, layer_metrics, self_times, snapshot  # noqa: E402
from speed import REFERENCE_SECONDS, adjusted  # noqa: E402

import kerrbell.cli  # noqa: E402
from kerrbell.cli import ExperimentSpec, run  # noqa: E402


def test_self_time_subtracts_child_coverage():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 20, 50, 0, 0),  # overlaps a: the union 10..50 is covered once
        Span("c", 60, 70, 0, 0),
        Span("a.leaf", 12, 18, 1, 0),
        Span("late", 90, 120, 0, 0),  # sticks out of root: only 90..100 counts
    ]
    assert self_times(spans) == [100 - 40 - 10 - 10, 20 - 6, 30, 10, 6, 30]


def test_layer_metrics_account_for_wall_time():
    tracer = Tracer()
    tracer.spans.extend(
        [
            Span("cli.run", 0, 1000, -1, 0),
            Span("bell_detector.bell_detect", 100, 900, 0, 0),
            Span("analyzers.run_symmetry_analyzer", 200, 400, 1, 0),
            Span("analyzers.run_symmetry_analyzer", 500, 700, 1, 0),
        ]
    )
    m = layer_metrics(tracer, trials=2, wall_ns=1100)
    assert m["cli.run.share"] == pytest.approx(200 / 1100)
    assert m["bell_detector.bell_detect.us_per_call"] == pytest.approx(0.8)
    assert m["analyzers.run_symmetry_analyzer.calls_per_trial"] == 1.0
    assert m["bell_detector.analyzers_per_trial"] == 1.0
    assert m["trace.unaccounted_share"] == pytest.approx(100 / 1100)
    shares = sum(v for k, v in m.items() if k.endswith(".share"))
    assert shares + m["trace.unaccounted_share"] == pytest.approx(1.0)


def test_tracer_restores_every_wrapped_name():
    before = snapshot()
    spec = campaign("threshold_bell", 3, 1).spec
    with Tracer() as tracer:
        assert any(v is not before[k] for k, v in snapshot().items())
        kerrbell.cli.run(ExperimentSpec(**dict(spec, trials=1)))
    after = snapshot()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "bell_detector.bell_detect", "fock_core.apply_pauli"} <= names


def test_tracer_restores_after_an_exception():
    before = snapshot()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(snapshot()[k] is before[k] for k in before)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generation_is_a_pure_function_of_the_seed(workload):
    first = [campaign(workload, 7, i) for i in range(2 * WORKLOADS[workload])]
    again = [campaign(workload, 7, i) for i in range(2 * WORKLOADS[workload])]
    other = [campaign(workload, 8, i) for i in range(2 * WORKLOADS[workload])]
    assert first == again
    assert [c.spec for c in first] != [c.spec for c in other]
    # Each cycle holds the same kinds of campaign whatever the seed.
    kinds = lambda cs: [(c.spec["command"], c.trials, c.spec.get("alpha")) for c in cs]  # noqa: E731
    assert kinds(first) == kinds(other)


def test_symmetry_inputs_are_not_sector_eigenstates():
    for workload in ("paper_symmetry", "wide_grid"):
        for i in range(24):
            text = campaign(workload, 5, i).spec["input"]
            if "," in text:
                assert 0.01 <= input_singlet_weight(text) <= 0.99


def test_speed_adjustment_uses_the_local_kernel_median():
    r = REFERENCE_SECONDS
    # A lone slow kernel reading is outvoted by its neighbours.
    assert adjusted([1.0, 1.0, 1.0], [r, 2 * r, r]).tolist() == [1.0, 1.0, 1.0]
    # A machine running at half speed throughout has its times halved.
    assert adjusted([2.0] * 12, [2 * r] * 12).tolist() == [1.0] * 12
    # Far from a slow stretch, times are unchanged; inside it they are scaled.
    out = adjusted([1.0] * 20, [r] * 10 + [2 * r] * 10)
    assert out[0] == 1.0 and out[-1] == 0.5


def _run(spec):
    return run(ExperimentSpec(**spec))


def test_gate_accepts_real_reports_and_rejects_a_count_moved_by_ten_sigma():
    spec = campaign("paper_symmetry", 2, 0).spec
    report = _run(spec)
    checker = Checker("paper_symmetry")
    assert checker.check(spec, report) == []

    n = spec["trials"]
    p_s = input_singlet_weight(spec["input"])
    eps = exact_error(spec["theta"], spec["alpha"])
    p = p_s * (1 - eps) + (1 - p_s) * eps
    shift = math.ceil(10 * math.sqrt(n * p * (1 - p)))
    k = report["counts"]["Singlet"]
    moved = k + shift if k + shift <= n else max(0, k - shift)
    doctored = copy.deepcopy(report)
    doctored["counts"] = {"Singlet": moved, "Triplet": n - moved}
    assert Checker("paper_symmetry").check(spec, doctored)


def test_gate_rejects_a_disturbed_bell_input():
    spec = campaign("paper_symmetry", 2, 2).spec
    assert spec["input"] == "PsiMinus"
    report = _run(spec)
    assert Checker("paper_symmetry").check(spec, report) == []
    report["mean_post_fidelity_vs_input"] = 1.0 - 1e-9
    assert Checker("paper_symmetry").check(spec, report)


def test_bell_gate_checks_rates_counts_and_accuracy():
    spec = campaign("threshold_bell", 4, 1).spec
    report = _run(spec)
    assert Checker("threshold_bell").check(spec, report) == []
    bad = copy.deepcopy(report)
    bad["results"][0]["mean_analyzer_count"] = 3.5  # omit-final runs at most 3
    assert Checker("threshold_bell").check(spec, bad)
    bad = copy.deepcopy(report)
    row = bad["results"][1]
    n = spec["trials"]
    row["label_counts"] = {label: 0 for label in row["label_counts"]}
    row["label_counts"]["PsiMinus"] = n  # every identification wrong
    assert Checker("threshold_bell").check(spec, bad)


def test_oracle_gate_and_pooled_gate():
    spec = campaign("oracle_ref", 1, 2).spec
    report = _run(spec)
    assert Checker("oracle_ref").check(spec, report) == []
    report["max_collapse_deviation"] = 2e-8
    assert Checker("oracle_ref").check(spec, report)

    checker = Checker("wide_grid")
    spec = campaign("wide_grid", 1, 0).spec
    report = _run(spec)
    for _ in range(200):  # small campaigns that each pass but pool to a bias
        doctored = copy.deepcopy(report)
        n = spec["trials"]
        doctored["counts"] = {"Singlet": n, "Triplet": 0}
        checker.check(spec, doctored)
    assert checker.finish()
