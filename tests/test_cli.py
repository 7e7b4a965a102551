import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kerrbell import (
    AnalyzerConfig,
    InvalidSpec,
    SpatialFockState,
    classify,
    sample_outcome,
    two_mode_input,
)
from kerrbell.analyzers import _kraus_weights
from kerrbell.cli import COMMANDS, ExperimentSpec, main, run
from kerrbell.fock_core import normalized_amps


def _spec(**kw):
    return ExperimentSpec(**kw)


class TestValidation:
    def test_bad_trials(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="symmetry", trials=0))

    def test_bad_theta(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="symmetry", theta=2.0))

    def test_bad_sign(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="demo2mode", sign=0))

    def test_oracle_alpha_cap(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="oracle-check", alpha=5.0))

    def test_bad_input_text(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="symmetry", input="NotALabel", trials=1))

    def test_unknown_command(self):
        with pytest.raises(InvalidSpec):
            run(_spec(command="nope"))

    # A wrong type must not escape as a TypeError from range, SeedSequence or <.
    @pytest.mark.parametrize("trials", [2.5, "3", None])
    def test_non_integral_trials(self, trials):
        with pytest.raises(InvalidSpec, match="trials must be an integer"):
            run(_spec(command="symmetry", trials=trials))

    @pytest.mark.parametrize("seed", [1.5, "1", None])
    def test_non_integral_seed(self, seed):
        with pytest.raises(InvalidSpec, match="seed must be an integer"):
            run(_spec(command="symmetry", trials=1, seed=seed))

    @pytest.mark.parametrize("theta", ["0.1", 0.1j, None])
    def test_non_real_theta(self, theta):
        with pytest.raises(InvalidSpec, match="theta must be a real number"):
            run(_spec(command="symmetry", trials=1, theta=theta))

    @pytest.mark.parametrize("alpha", ["10", 10j, None])
    def test_non_real_alpha(self, alpha):
        with pytest.raises(InvalidSpec, match="alpha must be a real number"):
            run(_spec(command="bell", trials=1, alpha=alpha))

    @pytest.mark.parametrize("grid_step", ["0.01", 0.01j, None])
    def test_non_real_grid_step(self, grid_step):
        with pytest.raises(InvalidSpec, match="grid_step must be a real number"):
            run(_spec(command="oracle-check", grid_step=grid_step))

    def test_numpy_scalars_accepted(self):
        spec = _spec(command="symmetry", trials=np.int64(2), seed=np.int64(1), theta=np.float64(0.3))
        assert spec.validate().theta == 0.3

    @pytest.mark.parametrize(
        "text, match",
        [
            ("0,0,0,0", "zero vector"),
            ("0j,-0.0,0,(-0-0j)", "zero vector"),
            ("nan,1,0,0", "finite"),
            ("1,(inf+0j),0,0", "finite"),
            ("1,0,0", "needs 4"),
            ("1,0,0,x", "malformed"),
        ],
    )
    def test_bad_amplitudes(self, text, match):
        for command in ("symmetry", "bell"):
            with pytest.raises(InvalidSpec, match=match):
                run(_spec(command=command, input=text, trials=1))


class TestReports:
    def test_demo_report_shape(self):
        report = run(_spec(command="demo2mode", theta=0.3, alpha=10.0, trials=50, seed=1))
        assert report["spec"]["command"] == "demo2mode"
        counts = report["counts"]
        assert counts["Balanced"] + counts["Bunched"] == 50
        for entry in report["rates"].values():
            assert 0.0 <= entry["ci_low"] <= entry["rate"] <= entry["ci_high"] <= 1.0

    def test_symmetry_report(self):
        report = run(
            _spec(command="symmetry", theta=0.3, alpha=1.5 / 0.09, trials=200, seed=3)
        )
        assert report["true_symmetry"] == "Singlet"
        assert report["mean_post_fidelity_vs_input"] >= 1.0 - 1e-10
        assert "empirical_error" in report
        both = report["analytic_error_probability"]
        assert 0.0 <= both["small_angle"] <= 0.5 and 0.0 <= both["exact"] <= 0.5

    def test_bell_confusion_rows_sum_to_one(self):
        report = run(
            _spec(command="bell", theta=0.3, alpha=1.5 / 0.09, trials=40, seed=5)
        )
        assert len(report["results"]) == 4  # all four inputs by default
        for row in report["results"]:
            assert sum(row["label_rates"].values()) == pytest.approx(1.0, abs=1e-12)
            assert row["label_rates"][row["input"]] >= 0.9

    def test_bell_ideal_single_input(self):
        report = run(
            _spec(command="bell", input="PsiMinus", trials=1, seed=1, ideal=True)
        )
        row = report["results"][0]
        assert row["label_counts"]["PsiMinus"] == 1
        assert row["mean_analyzer_count"] == 1.0

    def test_sweep_table(self):
        report = run(
            _spec(command="sweep", theta=0.3, trials=100, seed=2, targets="1.0,1.5")
        )
        table = report["sweep"]
        assert [row["alpha_theta_sq"] for row in table] == [1.0, 1.5]
        for row in table:
            assert row["ci_low"] <= row["empirical"] <= row["ci_high"]

    def test_oracle_check_passes(self):
        report = run(_spec(command="oracle-check", theta=0.3, alpha=2.0))
        assert report["passed"] is True
        assert report["max_density_deviation"] < 1e-8
        assert report["max_collapse_deviation"] < 1e-8

    def test_symmetry_operating_point(self):
        # theta = 0.1 with mean probe photon number 1.3e4: the error
        # probability sits at the one-percent level
        import math

        report = run(
            _spec(command="symmetry", theta=0.1, alpha=114.02, trials=10_000, seed=7)
        )
        analytic = report["analytic_error_probability"]["small_angle"]
        assert analytic == pytest.approx(0.01, abs=0.003)
        empirical = report["empirical_error"]["rate"]
        sigma = math.sqrt(analytic * (1.0 - analytic) / 10_000)
        assert abs(empirical - analytic) <= 3.0 * sigma


class TestFilesAndDeterminism:
    def test_bit_identical_outputs(self, tmp_path):
        out = tmp_path / "report.json"
        spec = dict(
            command="symmetry", theta=0.3, alpha=10.0, trials=100, seed=9,
            out=str(out),
        )
        run(_spec(**spec))
        first_json = out.read_bytes()
        first_csv = (tmp_path / "report_density.csv").read_bytes()
        run(_spec(**spec))
        assert out.read_bytes() == first_json
        assert (tmp_path / "report_density.csv").read_bytes() == first_csv

    def test_density_csv_header(self, tmp_path):
        out = tmp_path / "demo.json"
        run(_spec(command="demo2mode", theta=0.3, alpha=5.0, trials=10, seed=0, out=str(out)))
        lines = (tmp_path / "demo_density.csv").read_text().splitlines()
        assert lines[0] == "x,p"
        assert len(lines) > 1000

    def test_sweep_csv_header(self, tmp_path):
        out = tmp_path / "sweep.json"
        run(
            _spec(
                command="sweep", theta=0.3, trials=50, seed=0, targets="1.0",
                out=str(out),
            )
        )
        lines = (tmp_path / "sweep_sweep.csv").read_text().splitlines()
        assert lines[0] == "alpha_theta_sq,analytic,empirical,ci_low,ci_high"
        assert len(lines) == 2

    def test_report_embeds_resolved_spec(self, tmp_path):
        out = tmp_path / "r.json"
        run(_spec(command="symmetry", theta=0.3, alpha=9.0, trials=5, seed=4, out=str(out)))
        report = json.loads(out.read_text())
        for key in ("command", "theta", "alpha", "trials", "seed", "grid_step"):
            assert key in report["spec"]

    def test_grid_step_does_not_change_statistics(self):
        # The homodyne draw is exact, so the grid step reaches only the CSV.
        reports = [
            run(_spec(command="symmetry", input="PhiPlus", trials=2000, seed=1, grid_step=g))
            for g in (0.01, 1.0)
        ]
        assert reports[0]["counts"] == reports[1]["counts"]
        assert reports[0]["empirical_error"] == reports[1]["empirical_error"]

    # sha256 of each sidecar CSV: a change to CSV bytes must be deliberate and
    # update these.  The density values come from numpy's exp, so another numpy
    # build may differ in the last digit; the sweep CSV is pure Python.
    PAPER = dict(theta=0.1, alpha=math.sqrt(1.3e4))
    THRESHOLD = dict(theta=0.3, alpha=1.5 / 0.3**2)
    STRESS = dict(theta=math.pi / 4.0, alpha=1e3)
    DEMO_PAPER = "d5302734d753fd22fb12eb02fbd469e7928ac7a578abaa251e52f1ba35722097"
    DEMO_THRESHOLD = "9ff8234e54c9e1fa2a003eddcc3024e51c8c754cbe7701b948f2dcd2bb724334"
    MIXED_INPUT = "0.3,0.5,0.2,0.7"

    @pytest.mark.parametrize(
        "spec, suffix, digest",
        [
            pytest.param(dict(command="demo2mode", sign=1, **PAPER), "_density.csv",
                         DEMO_PAPER, id="demo2mode-paper-plus"),
            pytest.param(dict(command="demo2mode", sign=-1, **PAPER), "_density.csv",
                         DEMO_PAPER, id="demo2mode-paper-minus"),
            pytest.param(dict(command="demo2mode", sign=1, **THRESHOLD), "_density.csv",
                         DEMO_THRESHOLD, id="demo2mode-threshold-plus"),
            pytest.param(dict(command="demo2mode", sign=-1, **THRESHOLD), "_density.csv",
                         DEMO_THRESHOLD, id="demo2mode-threshold-minus"),
            pytest.param(dict(command="symmetry", input="PhiPlus", **PAPER), "_density.csv",
                         "1f69f2f82713d53c1d4344bed266b9fd232b01ba94c5169124fa839f5f29aeb2",
                         id="symmetry-paper-bell"),
            pytest.param(dict(command="symmetry", input=MIXED_INPUT, **PAPER), "_density.csv",
                         "462b7139dd8ffeddd7c926c98b686a14b406d577c38d6dd1a993dbb7e36f671f",
                         id="symmetry-paper-mixed"),
            pytest.param(dict(command="symmetry", input="PhiPlus", **THRESHOLD), "_density.csv",
                         "b684d86b558e0d085106a166d7391cc41a198172b5bae5a013bea1294b0ac141",
                         id="symmetry-threshold-bell"),
            pytest.param(dict(command="symmetry", input=MIXED_INPUT, **THRESHOLD),
                         "_density.csv",
                         "2490f8263c499acb509250870013d52a8b622ba94b2360fd558848ba51492be4",
                         id="symmetry-threshold-mixed"),
            pytest.param(dict(command="sweep", trials=200, seed=1, **PAPER), "_sweep.csv",
                         "8b6c1bb2a6311f564564c3a6d7b48ec83d6a3052751fed5c70627df3a4202085",
                         id="sweep-paper"),
            pytest.param(dict(command="sweep", trials=200, seed=1, **THRESHOLD), "_sweep.csv",
                         "534c751adbd0ec2f651193f07931390f98a4b56140a6f2baa9b5ab9a230e2682",
                         id="sweep-threshold"),
            pytest.param(dict(command="sweep", trials=200, seed=1, **STRESS), "_sweep.csv",
                         "6f87041219aa112761d1a18d5e48428646512b952750eeb2e0ad6fc4e719ddf7",
                         id="sweep-stress"),
        ],
    )
    def test_sidecar_csv_bytes(self, tmp_path, spec, suffix, digest):
        report = run(_spec(**dict(dict(trials=1), **spec), out=str(tmp_path / "r.json")))
        csv_path = tmp_path / ("r" + suffix)
        assert report["density_csv" if suffix == "_density.csv" else "sweep_csv"] == str(csv_path)
        assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == digest

    def test_density_csv_grid_is_capped(self, tmp_path):
        out = tmp_path / "r.json"
        spec = _spec(
            command="symmetry", theta=0.7, alpha=1e5, input="0.6,0.8,0,0", trials=1,
            out=str(out),
        )
        with pytest.raises(InvalidSpec, match="density grid"):
            run(spec)
        assert not out.exists()


class TestMainEntry:
    def test_exit_zero(self, capsys):
        code = main(
            ["symmetry", "--theta", "0.3", "--alpha", "10", "--trials", "5", "--seed", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["trials"] == 5

    def test_exit_two_on_invalid(self, capsys):
        assert main(["symmetry", "--trials", "0"]) == 2
        assert main(["symmetry", "--seed", "-1"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["symmetry", "--input", "1e-200,1e-200,0,0"],
            ["symmetry", "--input", "1e308,1e308,0,0"],
            ["demo2mode", "--input", "1e-200,1e-200"],
            ["demo2mode", "--input", "0.70710678,0.70710678"],
        ],
    )
    def test_exit_zero_on_tiny_and_huge_amplitudes(self, capsys, argv):
        assert main(argv + ["--trials", "2", "--seed", "1"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["symmetry", "--alpha", "nan"],
            ["symmetry", "--alpha", "inf"],
            ["bell", "--alpha", "inf"],
            ["demo2mode", "--alpha", "nan"],
            ["sweep", "--targets", "nan"],
            ["sweep", "--targets", "inf"],
            ["sweep", "--theta", "1e-300"],
            ["symmetry", "--theta", "-inf"],
            ["symmetry", "--grid-step", "nan"],
            ["oracle-check", "--alpha", "4", "--grid-step", "1e-6"],
            ["oracle-check", "--alpha", "2", "--theta", "0.3", "--grid-step", "5e-324"],
            ["symmetry", "--alpha", "-1e+308"],
            ["symmetry", "--input", "-1e400,0,0,0"],
        ],
    )
    def test_exit_two_outside_domain(self, capsys, argv):
        assert main(argv + ["--trials", "2", "--seed", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv", [["symmetry", "--grid-step", "5e-324"], ["demo2mode", "--grid-step", "1e-310"]]
    )
    def test_exit_two_on_subnormal_grid_step_with_out(self, tmp_path, capsys, argv):
        # The density CSV's step count is infinite; it must not reach math.ceil.
        out = tmp_path / "r.json"
        assert main(argv + ["--trials", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: density grid")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_cli_defaults_are_the_spec_defaults(self, capsys, command):
        # oracle-check refuses the default alpha, so it gets one in range.
        fields = dict(command=command, trials=1)
        argv = [command, "--trials", "1"]
        if command == "oracle-check":
            fields["alpha"] = 2.0
            argv += ["--alpha", "2"]
        assert main(argv) == 0
        echoed = json.loads(capsys.readouterr().out)["spec"]
        assert json.dumps(echoed, sort_keys=True) == json.dumps(
            vars(ExperimentSpec(**fields)), sort_keys=True
        )

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, kerrbell; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_ideal_bell_via_subprocess(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kerrbell", "bell", "--input", "PsiMinus",
             "--trials", "1", "--seed", "1", "--ideal"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        row = report["results"][0]
        assert row["label_counts"]["PsiMinus"] == 1
        assert row["mean_analyzer_count"] == 1.0

    def test_oracle_check_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kerrbell", "oracle-check", "--alpha", "1",
             "--theta", "0.1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["passed"] is True


class TestPinnedStreams:
    """Seeded counts pinned to their current values: a change to the order or
    number of random draws must be deliberate and update these numbers."""

    LOW = dict(theta=0.3, alpha=5.0)  # alpha*theta^2 = 0.45: errors are common
    MIXED = "0.5,0.5j,-0.5,0.5"

    @pytest.mark.parametrize(
        "spec, counts",
        [
            (dict(input=MIXED, seed=1), (77, 223)),
            (dict(input=MIXED, seed=1, ideal=True), (76, 224)),
            (dict(input="PhiPlus", seed=2), (1, 299)),
            (dict(input="PsiMinus", seed=2), (300, 0)),
            (dict(input="PhiPlus", seed=5, **LOW), (54, 246)),
            (dict(input="PsiPlus", seed=2, ideal=True), (0, 300)),
        ],
    )
    def test_symmetry_counts(self, spec, counts):
        spec = dict(dict(theta=0.3, alpha=1.5 / 0.09), **spec)
        report = run(_spec(command="symmetry", trials=300, **spec))
        assert (report["counts"]["Singlet"], report["counts"]["Triplet"]) == counts

    @pytest.mark.parametrize(
        "early_exit, omit_final, rows",
        [
            (True, False, [((33, 5, 1, 1), 1.45), ((6, 22, 7, 5), 3.075),
                           ((7, 4, 28, 1), 2.05), ((7, 3, 4, 26), 2.625)]),
            (False, True, [((32, 7, 1, 0), 3.0), ((7, 23, 5, 5), 3.0),
                           ((10, 8, 22, 0), 3.0), ((5, 4, 10, 21), 3.0)]),
        ],
    )
    def test_bell_label_counts(self, early_exit, omit_final, rows):
        report = run(_spec(command="bell", trials=40, seed=6, early_exit=early_exit,
                           omit_final=omit_final, **self.LOW))
        labels = ("PsiMinus", "PsiPlus", "PhiMinus", "PhiPlus")
        got = [(tuple(r["label_counts"][k] for k in labels), r["mean_analyzer_count"])
               for r in report["results"]]
        assert got == rows

    def test_bell_mixed_input(self):
        report = run(_spec(command="bell", theta=0.3, alpha=1.5 / 0.09, trials=40, seed=3,
                           input=self.MIXED))
        row = report["results"][0]
        assert row["label_counts"] == {"PsiMinus": 10, "PsiPlus": 9, "PhiMinus": 0, "PhiPlus": 21}
        assert row["mean_analyzer_count"] == 2.725

    def test_sweep_errors(self):
        report = run(_spec(command="sweep", theta=0.3, trials=200, seed=4, targets="0.3,0.6"))
        assert [row["empirical"] for row in report["sweep"]] == [0.295, 0.12]


def demo_reference(text, sign, theta, alpha, trials, seed):
    """The demo2mode loop on SpatialFockState: counts and mean fidelities."""
    d1, d2 = normalized_amps(complex(p) for p in text.split(","))
    cfg = AnalyzerConfig(theta=theta, alpha=alpha)
    r = 1.0 / math.sqrt(2.0)
    targets = {
        "Balanced": SpatialFockState({(1, 1): 1.0 + 0j}),
        "Bunched": SpatialFockState({(2, 0): r, (0, 2): sign * r}),
    }
    counts = dict.fromkeys(targets, 0)
    sums = dict.fromkeys(targets, 0.0)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        s = two_mode_input(d1, d2, sign)
        x = sample_outcome(abs(s.amplitude((1, 1))) ** 2, cfg, rng)
        g_b, g_t = _kraus_weights(x, cfg)
        post = SpatialFockState.normalized(
            {occ: a * (g_b if occ == (1, 1) else g_t) for occ, a in s.items()}
        )
        name = classify(x, theta, alpha).value
        counts[name] += 1
        sums[name] += post.fidelity(targets[name])
    return counts, {c: (sums[c] / n if n else None) for c, n in counts.items()}


@pytest.mark.parametrize(
    "text", ["0.6,0.8j", "1e-14,1", "1.005e-14,1", "1,1.2e-14", "1,1.5e-14", "0.3,-0.2+0.9j"]
)
@pytest.mark.parametrize("sign", [1, -1])
def test_demo_matches_fock_reference_exactly(text, sign):
    # theta=0.3, alpha=4: misclassification is common, so both targets see
    # posts from both peaks.
    spec = dict(theta=0.3, alpha=4.0, trials=300, seed=8)
    report = run(_spec(command="demo2mode", input=text, sign=sign, **spec))
    counts, fidelities = demo_reference(text, sign, **spec)
    assert report["counts"] == counts
    assert report["mean_conditional_fidelity"] == fidelities
