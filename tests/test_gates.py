"""Each check kind of the gate table passes a good output and fails a mutated
one: a flipped byte, a different sha, a count off by one, a bound exceeded,
a non-zero exit.  No test here runs a ``repro`` command."""

import json
import re
import signal
from pathlib import Path

import pytest

import gates
from gates import (
    CliEqualsApi, Done, Exits0, Fields, ResumeEqualsReference, SameBytes, SameField,
    ServeChaosDeliveries,
)

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
RUN = gates.repro("simulate --state-dir state --out r.json")  # never run
SERVE = gates.repro("serve --state-dir state --out r.json")  # never run
KILLED = -signal.SIGKILL
SHA = "5e" * 32


def done(output, returncode=0, peak_rss_bytes=0):
    if not isinstance(output, bytes):
        output = json.dumps(output, sort_keys=True).encode()
    return Done("line", returncode, output, peak_rss_bytes)


def flipped(data):
    return data[:-2] + bytes([data[-2] ^ 1]) + data[-1:]


def report(**changes):
    return {"weights_sha256": SHA, "rounds": 5, "resumed_from_round": None,
            "metrics": {"counters": {}}, **changes}


def test_same_bytes_fails_on_a_flipped_byte():
    check = SameBytes((RUN, RUN))
    check.judge([done(report()), done(report())])
    with pytest.raises(AssertionError):
        check.judge([done(report()), done(flipped(done(report()).output))])


def test_same_field_fails_on_a_different_sha():
    check = SameField((RUN, RUN), name="weights_sha256")
    check.judge([done(report()), done(report(rounds=4))])
    with pytest.raises(AssertionError):
        check.judge([done(report()), done(report(weights_sha256="5f" * 32))])


def test_resume_equals_reference_fails_on_a_different_sha():
    check = ResumeEqualsReference(RUN, kills=(0.3, 0.6))
    # How a run got there is not part of what it reports.
    resumed = done(report(resumed_from_round=7, metrics={"counters": {"x": 1}}))
    check.judge(done(report()), [resumed, done(report())], [KILLED, KILLED])
    with pytest.raises(AssertionError, match="reference"):
        check.judge(done(report()), [resumed, done(report(weights_sha256="5f" * 32))],
                    [KILLED, KILLED])


def test_resume_equals_reference_without_kills_needs_the_rerun_to_resume():
    check = ResumeEqualsReference(RUN)
    first, rerun = done(report()), done(report(resumed_from_round=4))
    check.judge(done(report()), [first, rerun], [])
    with pytest.raises(AssertionError, match="no rerun resumed"):
        check.judge(done(report()), [first, first], [])


def test_a_trial_whose_victim_exited_before_its_kill_fails():
    check = ResumeEqualsReference(RUN, kills=(0.3, 0.6))
    resumed = done(report(resumed_from_round=7))
    check.judge(done(report()), [resumed, resumed], [KILLED, KILLED])
    with pytest.raises(AssertionError, match="trial 1: exit status 0, not killed"):
        check.judge(done(report()), [resumed, resumed], [KILLED, 0])


def test_a_simulate_kill_check_in_which_no_rerun_resumed_fails():
    fresh = done(report())
    with pytest.raises(AssertionError, match="no rerun resumed"):
        ResumeEqualsReference(RUN, kills=(0.3, 0.6)).judge(fresh, [fresh, fresh], [KILLED] * 2)
    # A serve report carries no resume marker: its kills are checked, not its reruns.
    ResumeEqualsReference(SERVE, kills=(0.3, 0.6)).judge(fresh, [fresh, fresh], [KILLED] * 2)


def test_resume_runs_each_trial_in_its_own_state_dir():
    check = ResumeEqualsReference(RUN, kills=(0.5,))
    assert check._in("-ref") == gates.repro("simulate --state-dir state-ref --out r.json")


def test_cli_equals_api_fails_on_a_flipped_byte():
    api_bytes = done(report()).output
    CliEqualsApi(RUN).judge(done(api_bytes), api_bytes)
    with pytest.raises(AssertionError, match="API"):
        CliEqualsApi(RUN).judge(done(flipped(api_bytes)), api_bytes)


def traced(**values):
    return {"attempted": 10, "metrics": {name: {"value": v} for name, v in values.items()}}


def test_fields_fails_on_a_count_off_by_one():
    check = Fields(RUN, {"fl.buffer.folds": 3000, "fl.buffer.commits": 12})
    check.judge(done(traced(**{"fl.buffer.folds": 3000, "fl.buffer.commits": 12})))
    with pytest.raises(AssertionError):
        check.judge(done(traced(**{"fl.buffer.folds": 3001, "fl.buffer.commits": 12})))


@pytest.mark.parametrize("bound, at_limit_passes", [("<=", True), ("<", False)])
def test_fields_fails_on_a_bound_exceeded(bound, at_limit_passes):
    check = Fields(RUN, bounds={"aggregator_peak_bytes": (bound, 2000),
                                "peak_rss_bytes": (bound, 1 << 30)})
    check.judge(done(report(aggregator_peak_bytes=1999), peak_rss_bytes=47 << 20))
    with pytest.raises(AssertionError, match="aggregator_peak_bytes"):
        check.judge(done(report(aggregator_peak_bytes=2001), peak_rss_bytes=47 << 20))
    with pytest.raises(AssertionError, match="peak_rss_bytes"):
        check.judge(done(report(aggregator_peak_bytes=1999), peak_rss_bytes=(1 << 30) + 1))
    at_limit = done(report(aggregator_peak_bytes=2000), peak_rss_bytes=47 << 20)
    if at_limit_passes:
        check.judge(at_limit)
    else:
        with pytest.raises(AssertionError):
            check.judge(at_limit)


@pytest.mark.parametrize("check, evidence", [
    (Exits0(RUN), lambda d: (d,)),
    (SameBytes((RUN, RUN)), lambda d: ([d, d],)),
    (SameField((RUN, RUN), name="weights_sha256"), lambda d: ([d, d],)),
    (ResumeEqualsReference(SERVE, kills=(0.5,)), lambda d: (d, [d], [KILLED])),
    (CliEqualsApi(RUN), lambda d: (d, d.output)),
    (Fields(RUN, {"rounds": 5}), lambda d: (d,)),
], ids=["exits-0", "same-bytes", "same-field", "resume", "cli-api", "fields"])
def test_every_kind_fails_on_a_non_zero_exit(check, evidence):
    check.judge(*evidence(done(report())))
    with pytest.raises(AssertionError, match="exit status 1"):
        check.judge(*evidence(done(report(), returncode=1)))


def chaos_ledger(lost=30, dedup_hits=20):
    workload = {"ops": {"attempted": 10, "lost_injected": lost},
                "exact": {"dedup_hits": dedup_hits}}
    return done({"workloads": {"serve_chaos": workload}})


def test_serve_chaos_deliveries_fails_on_a_count_off_by_one():
    check = ServeChaosDeliveries()
    # 10 deliveries, 10 corrupt, so none decoded and 10 wire calls.
    good = {"serve.wire.frames_decoded": 0, "serve.wire.calls": 10, "fl.buffer.folds": 2000,
            "fl.buffer.commits": 8, "serve.transport.dedup_hits": 234,
            "serve.coordinator.rejects": 6}
    check.judge(chaos_ledger(), done(traced(**good)))
    with pytest.raises(AssertionError):
        check.judge(chaos_ledger(), done(traced(**{**good, "serve.wire.calls": 11})))
    with pytest.raises(AssertionError):
        check.judge(chaos_ledger(lost=29), done(traced(**good)))
    with pytest.raises(AssertionError, match="dedup_hits"):
        check.judge(chaos_ledger(), done(traced(**{**good, "serve.transport.dedup_hits": 235})))
    with pytest.raises(AssertionError, match="exit status 1"):
        check.judge(chaos_ledger(), done(traced(**good), returncode=1))


def test_the_runner_reads_the_out_file_or_the_last_stdout_line(tmp_path):
    runner = gates.Runner(tmp_path)
    write = ("-c", "import sys; open(sys.argv[-1], 'w').write('{}')", "--out", "o.json")
    assert runner.run(write).output == b"{}"
    prints = ("-c", "print('a'); print('{\"b\": 1}')")
    printed = runner.run(prints)
    assert printed.report() == {"b": 1} and printed.peak_rss_bytes > 0
    assert runner.run(("-c", "import sys; sys.exit(3)")).returncode == 3


def test_every_gate_is_a_ci_step_and_every_ci_step_a_gate():
    steps = re.findall(r"python tools/gates\.py (\S+)", CI.read_text())
    assert sorted(steps) == sorted(gates.GATES)


def test_an_unknown_gate_is_refused_naming_the_gates(capsys):
    assert gates.main(["simulate-same-seed", "nope"]) == 2
    err = capsys.readouterr().err
    assert "no gate nope" in err and "serve-kill-resume" in err


def test_a_resume_check_holds_a_state_dir_and_every_run_read_writes_out():
    for checks in gates.GATES.values():
        for check in checks:
            if isinstance(check, ResumeEqualsReference):
                assert "--state-dir" in check.run
            if isinstance(check, (SameBytes, SameField, ResumeEqualsReference, CliEqualsApi)):
                assert all("--out" in argv for argv in check.argvs), check
