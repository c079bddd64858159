"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_trace


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_fast_flag(self):
        args = build_parser().parse_args(["fig5", "--fast"])
        assert args.fast is True

    def test_rounds_option(self):
        args = build_parser().parse_args(["table5", "--rounds", "12"])
        assert args.rounds == 12

    def test_cycles_alias_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["table5", "--cycles", "12"])
        assert excinfo.value.code == 2

    def test_perf_is_an_unknown_command(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["perf", "--quick"])
        assert excinfo.value.code == 2

    def test_shared_flags_spelled_identically(self):
        parser = build_parser()
        subs = parser._subparsers._group_actions[0].choices
        shared = {
            # Each subcommand carries every shared flag that is meaningful
            # for it, under the one canonical spelling.
            "table5": ("--seed", "--rounds", "--out"),
            "fig5": ("--seed", "--rounds", "--out"),
            "trace": ("--clients", "--seed", "--rounds", "--out"),
            "simulate": ("--clients", "--seed", "--rounds", "--out"),
        }
        for name, flags in shared.items():
            help_text = subs[name].format_help()
            for flag in flags:
                assert flag in help_text, f"{name} missing {flag}"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()[1:]]
        subs = build_parser()._subparsers._group_actions[0].choices
        assert listed == [name for name in subs if name != "list"]
        assert "perf" not in listed

    def test_table6(self, capsys):
        assert main(["table6"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "L2+L5" in out
        assert "MiB" in out

    def test_fig8(self, capsys):
        assert main(["fig8"]) == 0
        out = capsys.readouterr().out
        assert "DarkneTZ" in out

    def test_fig5_fast(self, capsys):
        assert main(["fig5", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "ImageLoss" in out

    def test_fig6_fast(self, capsys):
        assert main(["fig6", "--fast"]) == 0
        assert "AUC" in capsys.readouterr().out

    def test_table5_fast(self, capsys):
        assert main(["table5", "--fast"]) == 0
        assert "MW=2" in capsys.readouterr().out

    def test_summary(self, capsys):
        assert main(["summary"]) == 0
        assert "GradSec" in capsys.readouterr().out


class TestConfigErrors:
    def test_simulate_reports_a_rejected_config_in_one_line_and_exits_2(self, capsys):
        assert main(["simulate", "--clients", "10", "--cohort", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "repro simulate: error: --cohort must be in 1..10, got 20\n"
        assert captured.out == ""

    def test_simulate_reports_an_integer_policy_selector_in_one_line(self, capsys):
        assert main(["simulate", "--clients", "4", "--policy", "static:2"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "repro simulate: error: cannot resolve layer selector '2'; "
        )
        assert "('L2')" in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_the_api_keeps_raising(self):
        from repro.api import simulate

        with pytest.raises(ValueError, match=r"cohort must be in 1\.\.10, got 20"):
            simulate(clients=10, cohort=20)


class TestTrace:
    """``repro trace`` emits schema-valid, properly nested, ordered JSON."""

    def run_trace(self, capsys, argv=("trace",)):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out)

    def test_emits_schema_valid_json(self, capsys):
        payload = self.run_trace(capsys)
        assert payload["schema"] == 1
        assert payload["command"] == "trace"
        assert payload["config"]["clients"] == 2
        validate_trace(payload["trace"])

    def test_span_structure_covers_the_round(self, capsys):
        payload = self.run_trace(capsys)
        spans = payload["trace"]["spans"]
        names = {span["name"] for span in spans}
        assert {"fl.round", "fl.client.train", "tee.smc"} <= names
        # Fake-clock timestamps: creation order is strictly increasing.
        starts = [span["start"] for span in spans]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)
        # Client training happens inside the round span.
        (round_span,) = [s for s in spans if s["name"] == "fl.round"]
        trains = [s for s in spans if s["name"] == "fl.client.train"]
        assert len(trains) == payload["config"]["clients"]
        for train in trains:
            assert train["parent_id"] == round_span["span_id"]

    def test_metrics_snapshot_included(self, capsys):
        payload = self.run_trace(capsys)
        counters = payload["metrics"]["counters"]
        assert "tee.smc.calls" in counters
        assert "fl.rounds" in counters
        assert sum(counters["fl.client.steps"].values()) == (
            payload["config"]["clients"] * payload["config"]["steps"]
        )

    def test_protect_option_changes_smc_attribution(self, capsys):
        payload = self.run_trace(capsys, ("trace", "--protect", "2"))
        assert payload["config"]["protected_layers"] == [2]
        smc = [
            s
            for s in payload["trace"]["spans"]
            if s["name"] == "tee.smc"
            and s["attributes"].get("command") == "forward_run"
        ]
        assert smc
        for span in smc:
            assert span["attributes"]["indices"] == [2]

    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "trace.json"
        assert main(["trace", "--out", str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        payload = json.loads(target.read_text())
        validate_trace(payload["trace"])
