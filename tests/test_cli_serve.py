"""``repro serve`` CLI suite: determinism, flags, kill -9 + resume."""

import json
import signal
import time

import pytest

pytestmark = pytest.mark.serve

BASE = [
    "serve",
    "--tenants", "2",
    "--clients", "80",
    "--commits", "3",
    "--buffer-size", "8",
    "--concurrency", "16",
    "--seed", "5",
]


@pytest.fixture
def serve_cli(tmp_path):
    """Run ``repro serve`` in-process over the base load, return the bytes."""
    from repro.cli import main

    def run(name, *extra):
        out = tmp_path / name
        assert main([*BASE, "--out", str(out), *extra]) == 0
        return out.read_bytes()

    return run


class TestCli:
    def test_report_shape(self, serve_cli):
        payload = json.loads(serve_cli("r.json"))
        assert payload["schema"] == 1 and payload["command"] == "serve"
        assert len(payload["jobs"]) == 2
        tenants = {job["tenant"] for job in payload["jobs"]}
        assert tenants == {"tenant-0", "tenant-1"}
        for job in payload["jobs"]:
            assert job["commits"] == 3
            assert job["state"] == "done"
            assert len(job["weights_sha256"]) == 64

    def test_workers_flag_is_gone(self, serve_cli):
        with pytest.raises(SystemExit) as excinfo:
            serve_cli("w.json", "--workers", "2")
        assert excinfo.value.code == 2

    def test_the_api_keeps_raising_on_a_rejected_config(self):
        from repro.api import serve

        with pytest.raises(ValueError, match="buffer_size must be >= 1"):
            serve(tenants=1, clients=10, commits=1, buffer_size=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(drift=5.0), "drift must be in \\[0, 1\\]"),
            (dict(update_scale=-1.0), "update_scale must be positive"),
            (dict(drift=float("nan")), "drift must be finite"),
            (dict(attack_strength=float("inf")), "attack_strength must be finite"),
        ],
    )
    def test_load_spec_refuses_what_sim_config_refuses(self, kwargs, message):
        from repro.api import serve

        with pytest.raises(ValueError, match=message):
            serve(tenants=1, clients=10, commits=1, **kwargs)

    def test_says_what_happened_to_the_checkpoint(self, serve_cli, tmp_path, capsys):
        state = tmp_path / "state"
        flags = ("--state-dir", str(state))
        reference = serve_cli("ref.json")
        assert serve_cli("first.json", *flags) == reference
        assert capsys.readouterr().err == ""

        # the last put's counter persist never hit the disk: rolled forward
        counters = state / "counters.json"
        trusted = json.loads(counters.read_text())
        counters.write_text(json.dumps({k: v - 1 for k, v in trusted.items()}))
        assert serve_cli("rolled.json", *flags) == reference
        assert capsys.readouterr().err == (
            f"repro serve: state dir {state}: checkpoint write cut short "
            "by a crash was rolled forward\n"
        )

        # an older genuine counter state: the blob is now too far ahead
        counters.write_text(json.dumps(dict.fromkeys(trusted, 1)))
        assert serve_cli("rerun.json", *flags) == reference
        assert capsys.readouterr().err == (
            f"repro serve: state dir {state}: checkpoint failed "
            "verification (rollback), starting from event 0\n"
        )

    def test_state_dir_of_other_jobs_is_one_line_and_exit_2(
        self, serve_cli, tmp_path, capsys
    ):
        from repro.cli import main

        flags = ["--state-dir", str(tmp_path / "state")]
        serve_cli("two.json", *flags)
        capsys.readouterr()
        three = [*BASE, "--tenants", "3", "--out", str(tmp_path / "three.json")]
        assert main([*three, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "repro serve: error: checkpoint holds jobs ['job-0', 'job-1'], "
            "this harness runs ['job-0', 'job-1', 'job-2']\n"
        )
        assert captured.out == "" and not (tmp_path / "three.json").exists()

    @pytest.mark.parametrize("command", ["serve", "simulate"])
    def test_malformed_counter_file_is_one_line_and_exit_2(
        self, tmp_path, capsys, command
    ):
        from repro.cli import main

        state = tmp_path / "state"
        state.mkdir()
        (state / "counters.json").write_text('{"k": true}')
        out = tmp_path / "r.json"
        argv = [command, "--clients", "20", "--seed", "5", "--out", str(out)]
        assert main([*argv, "--state-dir", str(state)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"repro {command}: error: trusted counter file {state}/counters.json: "
            "expected a JSON object of non-negative integer counters\n"
        )
        assert captured.out == "" and not out.exists()

CHAOS = [*BASE, "--chaos", "--chaos-rate", "0.1", "--chaos-seed", "2"]


@pytest.mark.chaos
class TestChaosCli:
    def test_chaos_report_carries_transport_sections(self, serve_cli):
        payload = json.loads(
            serve_cli("c.json", "--chaos", "--chaos-rate", "0.1", "--chaos-seed", "2")
        )
        for job in payload["jobs"]:
            transport = job["transport"]
            assert transport["chaos_rate"] == 0.1
            assert transport["shed"] == 0 and transport["refused"] == 0
            assert transport["dedup_hits"] == transport["dup_clean_deliveries"]


class TestKillResume:
    def test_sigkill_mid_run_then_resume_is_byte_identical(
        self, tmp_path, spawn_repro, spawn_repro_background
    ):
        # reference: the same load, uninterrupted (its own state dir)
        ref_out = tmp_path / "ref.json"
        spawn_repro(
            *BASE, "--state-dir", str(tmp_path / "ref-state"),
            "--out", str(ref_out),
        )

        state_dir = tmp_path / "state"
        out = tmp_path / "resumed.json"
        victim = spawn_repro_background(
            *BASE, "--state-dir", str(state_dir), "--out", str(out)
        )
        # wait for the first sealed checkpoint to land, then kill -9
        deadline = time.time() + 120
        while time.time() < deadline:
            if state_dir.exists() and any(state_dir.rglob("*")):
                break
            time.sleep(0.02)
        else:
            pytest.fail("no checkpoint appeared before the deadline")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        # same command line again: restores from the checkpoint and finishes
        spawn_repro(*BASE, "--state-dir", str(state_dir), "--out", str(out))
        assert out.read_bytes() == ref_out.read_bytes()

    @pytest.mark.chaos
    def test_sigkill_mid_chaos_then_resume_is_byte_identical(
        self, tmp_path, spawn_repro, spawn_repro_background
    ):
        # the tentpole's crash story: dedup + retransmit state ride the
        # sealed checkpoints, so a kill -9 in the middle of a fault storm
        # resumes to the same report bytes as the uninterrupted chaos run
        ref_out = tmp_path / "ref.json"
        spawn_repro(
            *CHAOS, "--state-dir", str(tmp_path / "ref-state"),
            "--out", str(ref_out),
        )

        state_dir = tmp_path / "state"
        out = tmp_path / "resumed.json"
        victim = spawn_repro_background(
            *CHAOS, "--state-dir", str(state_dir), "--out", str(out)
        )
        deadline = time.time() + 120
        while time.time() < deadline:
            if state_dir.exists() and any(state_dir.rglob("*")):
                break
            time.sleep(0.02)
        else:
            pytest.fail("no checkpoint appeared before the deadline")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        spawn_repro(*CHAOS, "--state-dir", str(state_dir), "--out", str(out))
        assert out.read_bytes() == ref_out.read_bytes()
