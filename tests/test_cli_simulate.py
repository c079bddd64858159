"""The ``repro simulate`` command and the trace traffic section.

The base fleet (80 clients, 3 rounds, seed 7, dropout/straggler faults)
comes from the shared ``simulate_cli`` fixture in ``conftest.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestSimulateCommand:
    def test_report_shape(self, simulate_cli, capsys):
        payload = json.loads(simulate_cli("report.json"))
        assert payload["command"] == "simulate"
        assert payload["config"]["num_clients"] == 80
        assert len(payload["rounds"]) == 3
        assert payload["totals"]["rounds"] == 3
        assert payload["totals"]["dropouts"] > 0
        assert len(payload["weights_sha256"]) == 64
        assert "sim.rounds" in payload["metrics"]["counters"]

    def test_same_seed_byte_identical(self, simulate_cli):
        first = simulate_cli("a.json")
        second = simulate_cli("b.json")
        assert first == second

    def test_different_seed_differs(self, simulate_cli):
        first = simulate_cli("a.json")
        # the repeated --seed overrides the base value (argparse keeps last)
        assert first != simulate_cli("c.json", "--seed", "8")

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["simulate", "--clients", "20", "--rounds", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "simulate"

    def test_kill_and_resume_across_invocations(self, simulate_cli, tmp_path):
        """A killed server restarted over --state-dir finishes with weights
        bitwise-identical to the uninterrupted run."""
        state = tmp_path / "state"
        uninterrupted = json.loads(simulate_cli("full.json"))
        # "killed" run: only the first 2 of 3 rounds happen
        simulate_cli("partial.json", "--rounds", "2", "--state-dir", str(state))
        resumed = json.loads(
            simulate_cli("resumed.json", "--state-dir", str(state))
        )
        assert resumed["resumed_from_round"] == 2
        assert resumed["weights_sha256"] == uninterrupted["weights_sha256"]
        assert resumed["rounds"] == uninterrupted["rounds"]

    def test_says_what_happened_to_the_checkpoint(
        self, simulate_cli, tmp_path, capsys
    ):
        """A resume that rolled a torn write forward, or threw the checkpoint
        away, says so in one stderr line; an ordinary resume says nothing."""
        state = tmp_path / "state"
        flags = ("--state-dir", str(state))
        uninterrupted = json.loads(simulate_cli("full.json"))
        simulate_cli("partial.json", "--rounds", "2", *flags)
        capsys.readouterr()

        # the counter persist of the last put never hit the disk
        counters = state / "counters.json"
        trusted = json.loads(counters.read_text())
        counters.write_text(json.dumps({k: v - 1 for k, v in trusted.items()}))
        resumed = json.loads(simulate_cli("rolled.json", *flags))
        assert resumed["resumed_from_round"] == 2
        assert resumed["weights_sha256"] == uninterrupted["weights_sha256"]
        assert capsys.readouterr().err == (
            f"repro simulate: state dir {state}: checkpoint write cut short "
            "by a crash was rolled forward\n"
        )

        assert json.loads(simulate_cli("noop.json", *flags))["resumed_from_round"] == 3
        assert capsys.readouterr().err == ""

        (blob,) = state.glob("*.sec")
        blob.write_bytes(blob.read_bytes()[:-1])
        rerun = json.loads(simulate_cli("rerun.json", *flags))
        assert rerun["resumed_from_round"] is None
        assert rerun["rounds"] == uninterrupted["rounds"]
        assert capsys.readouterr().err == (
            f"repro simulate: state dir {state}: checkpoint failed "
            "verification (integrity), starting from round 0\n"
        )

    def test_listed(self, capsys):
        assert main(["list"]) == 0
        assert "simulate" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--overprovision", "inf", "overprovision"),
            ("--deadline", "nan", "deadline_seconds"),
            ("--update-scale", "nan", "update_scale"),
            ("--attack-strength", "inf", "attack_strength"),
        ],
    )
    def test_non_finite_float_is_one_line_and_exit_2(
        self, capsys, flag, value, field
    ):
        argv = ["simulate", "--clients", "20", "--rounds", "1", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        # The error names the flag typed, never a renamed internal field.
        assert captured.err == (
            f"repro simulate: error: {flag} must be finite, got {float(value)}\n"
        )
        assert field == flag[2:].replace("-", "_") or field not in captured.err
        assert captured.out == ""


class TestByzantineFlags:
    BYZANTINE = [
        "--byzantine", "0.3",
        "--attack", "scale",
        "--rule", "trimmed_mean",
        "--max-norm", "6",
        "--drift", "0.3",
        "--update-scale", "0.01",
    ]

    def test_flags_thread_into_the_report(self, simulate_cli):
        payload = json.loads(simulate_cli("byz.json", *self.BYZANTINE))
        assert payload["rule"] == "trimmed_mean"
        assert payload["config"]["byzantine"] == 0.3
        assert payload["config"]["attack"] == "scale"
        assert payload["config"]["max_norm"] == 6.0
        assert payload["totals"]["attacked"] > 0
        assert payload["totals"]["admission_rejected"] > 0
        assert "final_accuracy" in payload

    def test_byzantine_run_byte_identical(self, simulate_cli):
        first = simulate_cli("byz-a.json", *self.BYZANTINE)
        second = simulate_cli("byz-b.json", *self.BYZANTINE)
        assert first == second

    def test_rule_changes_the_weights(self, simulate_cli):
        base = ["--byzantine", "0.3", "--attack", "sign_flip"]
        fedavg = json.loads(simulate_cli("r-fedavg.json", *base))
        krum = json.loads(simulate_cli("r-krum.json", *base, "--rule", "krum"))
        assert fedavg["weights_sha256"] != krum["weights_sha256"]

    def test_clip_admits_instead_of_rejecting(self, simulate_cli):
        payload = json.loads(
            simulate_cli("clip.json", *self.BYZANTINE, "--clip")
        )
        assert payload["totals"]["admission_rejected"] == 0
        assert payload["totals"]["admission_clipped"] > 0


class TestTraceTraffic:
    def test_trace_reports_traffic_totals(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "--clients", "2", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        traffic = payload["traffic"]
        assert traffic["downloads"] == 2 and traffic["uploads"] == 2
        assert traffic["downlink_bytes"] > 0 and traffic["uplink_bytes"] > 0
        counters = payload["metrics"]["counters"]
        assert "fl.bytes.down" in counters
        assert "fl.bytes.up" in counters

    def test_trace_exports_robustness_metrics(self, tmp_path):
        out = tmp_path / "trace.json"
        assert main([
            "trace", "--clients", "2", "--rule", "median", "--out", str(out),
        ]) == 0
        counters = json.loads(out.read_text())["metrics"]["counters"]
        # Present (zero-valued on a healthy fleet) because the admission
        # controller and reputation ledger register them at construction.
        assert "fl.admission.rejected" in counters
        assert "fl.reputation.quarantined" in counters
        assert counters["fl.aggregate.rule"] == {"rule=median": 1.0}
