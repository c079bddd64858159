"""The gated runs: every non-test command CI runs, declared once with its checks.

A gate is a name and checks; a check holds the argv lines it runs,
``collect``s what they left (:class:`Done`) and ``judge``s that with a pure
function.  CI runs one gate per step, ``tools/census.py`` runs every argv
line, ``tests/test_cli_surface.py`` checks each ``simulate``/``serve`` line
against the API.  Usage (from anywhere; stdlib only)::

    python tools/gates.py [NAME ...]    # no names: every gate, each in its own tmp dir
"""

from __future__ import annotations

import json
import operator
import os
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

Argv = Tuple[str, ...]


def repro(line: str) -> Argv:
    return ("-m", "repro", *line.split())


def without(argv: Sequence[str], flag: str) -> Argv:
    """``argv`` less ``flag`` and its value."""
    at = argv.index(flag)
    return (*argv[:at], *argv[at + 2:])


@dataclass(frozen=True)
class Done:
    """What one run left: its exit status, its output (the ``--out`` file,
    else the last line of its stdout) and its own peak RSS."""

    line: str
    returncode: int
    output: bytes
    peak_rss_bytes: int = 0

    def report(self) -> dict:
        return json.loads(self.output)


def exited(*dones: Done) -> None:
    for done in dones:
        assert done.returncode == 0, f"{done.line}: exit status {done.returncode}"


class Runner:
    """Runs argv lines in one directory."""

    def __init__(self, cwd: Path, env: Optional[Dict[str, str]] = None):
        self.cwd = cwd
        self.env = env or dict(os.environ, PYTHONPATH=str(SRC))

    def start(self, argv: Argv, stdout=subprocess.DEVNULL) -> subprocess.Popen:
        print("gates:", " ".join(argv), flush=True)
        # Only scripts and the two suite directories are repository paths;
        # an --out name stays relative (the root holds BENCH_*.json).
        paths = [str(ROOT / part) if part.endswith(".py") or part in ("benchmarks", "tests")
                 else part for part in argv]
        return subprocess.Popen([sys.executable, *paths], cwd=self.cwd, env=self.env,
                                stdout=stdout)

    def run(self, argv: Argv) -> Done:
        child = self.start(argv, stdout=subprocess.PIPE)
        stdout = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        output = b""
        if child.returncode:
            sys.stdout.write(stdout[-4000:].decode(errors="replace"))
        elif "--out" in argv:
            output = (self.cwd / argv[argv.index("--out") + 1]).read_bytes()
        elif stdout.strip():
            output = stdout.strip().splitlines()[-1]
        return Done(" ".join(argv), child.returncode, output, usage.ru_maxrss * 1024)


class Check:
    @property
    def argvs(self) -> Tuple[Argv, ...]:
        return getattr(self, "runs", None) or (self.run,)

    def check(self, runner: Runner) -> None:
        self.judge(*self.collect(runner))


@dataclass(frozen=True)
class SameBytes(Check):
    """The runs write the same ``--out`` bytes (one argv twice, or eager
    against compiled)."""

    runs: Tuple[Argv, ...]

    def collect(self, runner: Runner):
        return ([runner.run(argv) for argv in self.runs],)

    def value(self, done: Done):
        return done.output

    def judge(self, dones: Sequence[Done]) -> None:
        exited(*dones)
        assert len({self.value(done) for done in dones}) == 1, [d.line for d in dones]


def twice(argv: Argv) -> SameBytes:
    return SameBytes((argv, argv))


@dataclass(frozen=True)
class SameField(SameBytes):
    """The runs' reports agree on one field."""

    name: str = ""

    def value(self, done: Done):
        return done.report()[self.name]


def settled(done: Done) -> str:
    """A report less what says how the run got there, as canonical JSON."""
    report = done.report()
    report.pop("resumed_from_round", None), report.pop("metrics", None)
    return json.dumps(report, sort_keys=True)


@dataclass(frozen=True)
class ResumeEqualsReference(Check):
    """A ``--state-dir`` rerun writes the report of a run nothing interrupted.

    With no ``kills`` the run finishes and is rerun, and the rerun resumes
    from its checkpoint; otherwise each trial SIGKILLs the run that many
    seconds after its start and reruns it to the end.  The reference runs
    in ``<dir>-ref`` and each trial in ``<dir>-<trial>``."""

    run: Argv
    kills: Tuple[float, ...] = ()

    def _in(self, suffix: str) -> Argv:
        at = self.run.index("--state-dir") + 1
        return (*self.run[:at], self.run[at] + suffix, *self.run[at + 1:])

    def collect(self, runner: Runner):
        reference = runner.run(self._in("-ref"))
        if not self.kills:
            return reference, [runner.run(self.run), runner.run(self.run)]
        reruns = []
        for trial, instant in enumerate(self.kills):
            victim = runner.start(self._in(f"-{trial}"))
            time.sleep(instant)
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            reruns.append(runner.run(self._in(f"-{trial}")))
        return reference, reruns

    def judge(self, reference: Done, reruns: Sequence[Done]) -> None:
        exited(reference, *reruns)
        for done in reruns:
            assert settled(done) == settled(reference), f"{done.line}: not the reference"
        if not self.kills:
            assert reruns[-1].report()["resumed_from_round"] is not None, "did not resume"


def api_keywords(command: str, flags: Sequence[str]) -> dict:
    """``simulate``/``serve`` flags as API keywords, typed by the knob table."""
    from repro.api import knob_table
    from repro.fl.config import knob_type
    from repro.serve import ServeRun
    from repro.sim import SimRun

    run_cls = {"simulate": SimRun, "serve": ServeRun}[command]
    by_flag = {flag: (keyword, item) for flag, keyword, item in knob_table(run_cls)}
    out, tokens = {}, list(flags)
    while tokens:
        keyword, item = by_flag[tokens.pop(0)]
        kind = knob_type(item)
        out[keyword] = True if kind is bool else kind(tokens.pop(0))
    return out


def api_report(command: str, flags: Sequence[str]) -> bytes:
    """What ``repro COMMAND FLAGS --out`` writes, from the API call."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro import api

    if command == "simulate":
        report = api.simulate(include_metrics=True, **api_keywords(command, flags))
    else:
        report = api.serve(**api_keywords(command, flags))
    payload = {"schema": 1, "command": command, **report}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


@dataclass(frozen=True)
class CliEqualsApi(Check):
    """The command line writes the bytes of the API call with its knobs."""

    run: Argv

    def collect(self, runner: Runner):
        _, _, command, *flags = without(self.run, "--out")
        return runner.run(self.run), api_report(command, flags)

    def judge(self, done: Done, api_bytes: bytes) -> None:
        exited(done)
        assert done.output == api_bytes, f"{done.line}: not the API call's bytes"


BOUNDS = {"<": operator.lt, "<=": operator.le}


def lookup(done: Done, name: str):
    """A top-level report field, a traced metric's value (``bench/run.py
    --trace 1``), or ``peak_rss_bytes``: the run's own, from ``os.wait4``."""
    if name == "peak_rss_bytes":
        return done.peak_rss_bytes
    document = done.report()
    return document[name] if name in document else document["metrics"][name]["value"]


@dataclass(frozen=True)
class Fields(Check):
    """Values of a run's output equal their pins and stay under their bounds."""

    run: Argv
    pins: Mapping[str, int] = field(default_factory=dict)
    bounds: Mapping[str, Tuple[str, int]] = field(default_factory=dict)

    def collect(self, runner: Runner):
        return (runner.run(self.run),)

    def judge(self, done: Done) -> None:
        exited(done)
        got = {name: lookup(done, name) for name in self.pins}
        assert got == dict(self.pins), f"{got} != {dict(self.pins)}"
        for name, (bound, limit) in self.bounds.items():
            got = lookup(done, name)
            assert BOUNDS[bound](got, limit), f"{name} = {got}, not {bound} {limit}"
            print(f"gates: {name} = {got}", flush=True)


#: A run that exits 0, with no value of its output pinned or bounded.
Exits0 = Fields


SYNC = "simulate --clients 500 --rounds 5 --seed 7"
BYZ = "simulate --clients 60 --rounds 10 --seed 0 --byzantine 0.3 --attack scale --rule trimmed_mean"
EAGER = "simulate --clients 256 --rounds 3 --seed 5 --dropout 0.1 --straggler 0.1"
ADMIT = "simulate --clients 300 --rounds 4 --seed 7 --async --buffer-size 32 --max-norm 3"
SERVE = "serve --tenants 2 --clients 200 --commits 4 --seed 7 --ratio 0.25"
BREAKERS = "--chaos --chaos-rate 0.2 --chaos-seed 3 --chaos-breaker-budget 5"
# Every fault kind with dead shards (sync), Byzantine + clip through a
# robust rule, all faults under polynomial staleness (async), then every
# --rule value: clipped_fedavg, krum, and trimmed_mean over a shard tree.
LIFECYCLE = [repro(f"{SYNC} {config} --out life{number}.json") for number, config in enumerate([
    "--pool-exhaust 0.05 --attestation 0.03 --shards 4 --shard-down 0.2",
    "--async --buffer-size 32 --max-norm 3 --clip --byzantine 0.3 --attack scale --rule median"
    " --shards 2",
    "--async --corrupt 0.05 --pool-exhaust 0.05 --attestation 0.02 --staleness polynomial"
    " --shards 4",
    "--byzantine 0.2 --rule clipped_fedavg",
    "--byzantine 0.2 --rule krum",
    "--byzantine 0.2 --rule trimmed_mean --shards 4",
], 1)]
LEDGER = ("bench/run.py", "--quick", "--out", "ledger.json")


def traced(workload: str) -> Argv:
    return ("bench/run.py", "--quick", "--workload", workload, "--trace", "1")


@dataclass(frozen=True)
class ServeChaosDeliveries(Check):
    """2 tenants x 4 commits x 250 folds at 10 % chaos, and one verify and
    one decode per delivery: every delivery is verified, every one that
    passes the CRC is decoded once.  An ingest "speed-up" that skips a
    check, a dedup or a fold fails here."""

    runs: Tuple[Argv, ...] = (LEDGER, traced("serve_chaos"))

    def collect(self, runner: Runner):
        return [runner.run(argv) for argv in self.runs]

    def judge(self, ledger: Done, traced: Done) -> None:
        exited(ledger, traced)
        trace = traced.report()
        metrics = trace["metrics"]
        expected = {"fl.buffer.folds": 2000, "fl.buffer.commits": 8,
                    "serve.transport.dedup_hits": 234, "serve.coordinator.rejects": 6}
        got = {name: metrics[name]["value"] for name in expected}
        assert got == expected, f"{got} != {expected}"
        # The untraced --quick ledger: duplicate statuses == dedup_hits, so
        # lost - dedup_hits is the corrupt count.
        ledger = ledger.report()["workloads"]["serve_chaos"]
        corrupt = ledger["ops"]["lost_injected"] - ledger["exact"]["dedup_hits"]
        deliveries = trace["attempted"]
        assert deliveries == ledger["ops"]["attempted"] and corrupt > 0
        decoded = metrics["serve.wire.frames_decoded"]["value"]
        assert decoded == deliveries - corrupt, (decoded, deliveries, corrupt)
        assert metrics["serve.wire.calls"]["value"] == deliveries + decoded


GATES: Dict[str, Tuple[Check, ...]] = {
    "simulate-same-seed": (
        twice(repro(f"{SYNC} --dropout 0.2 --straggler 0.1 --corrupt 0.05 --out sync.json")),
        twice(repro(f"{BYZ} --max-norm 6 --out byz.json")),
        twice(repro(f"{SYNC} --async --buffer-size 64 --dropout 0.2 --straggler 0.1 --out async.json")),
        *map(twice, LIFECYCLE),
        # The trimmed mean rounds the exact trimmed sum once, so one shard
        # and four commit the same weights.
        SameField((
            repro(f"{SYNC} --byzantine 0.2 --rule trimmed_mean --shards 1 --out trimmed-flat.json"),
            LIFECYCLE[5],
        ), name="weights_sha256"),
    ),
    "simulate-cli-api": (
        CliEqualsApi(repro("simulate --clients 300 --rounds 4 --seed 7 --dropout 0.1 --corrupt 0.05"
                           " --shards 4 --shard-down 0.2 --out cli1.json")),
        CliEqualsApi(repro(f"{ADMIT} --byzantine 0.3 --attack scale --out cli2.json")),
    ),
    "simulate-zoo-policy": (
        twice(repro("simulate --clients 300 --rounds 3 --seed 7 --model vit_tiny --policy pelta-mw:1"
                    " --out zoo.json")),
    ),
    # The rerun restores the reputation ledger from the checkpoint.
    "simulate-admission-resume": (
        ResumeEqualsReference(repro(f"{ADMIT} --byzantine 0.3 --attack scale"
                                    " --state-dir admit-state --out admit-resume.json")),
    ),
    # The FLServer/GradSec path: two cycles of shielded clients under static
    # L2+L4, through the admission gate and the exact fold.
    "trace-same-seed": (twice(repro("trace --rounds 2 --protect 2,4 --out trace.json")),),
    # Attackers too: the batched path applies each attack to its own row
    # (three chunks of 16, the last one short).
    "simulate-compiled": (
        SameBytes((repro(f"{EAGER} --out eager.json"),
                   repro(f"{EAGER} --compile --client-batch 64 --out compiled.json"))),
        SameBytes((repro(f"{BYZ} --max-norm 6 --out byz.json"),
                   repro(f"{BYZ} --max-norm 6 --compile --client-batch 16 --out byz-compiled.json"))),
    ),
    # Clean, chaos, top-k sparse uplinks in f32 over a shard tree and in q8
    # flat, then a chaos rate and budget at which the tenants' breakers trip.
    "serve-same-seed": (
        twice(repro("serve --tenants 2 --clients 200 --commits 5 --seed 7 --dropout 0.05"
                    " --straggler 0.1 --out serve.json")),
        twice(repro("serve --tenants 2 --clients 500 --commits 4 --seed 7 --chaos --chaos-rate 0.1"
                    " --chaos-seed 3 --out chaos.json")),
        twice(repro(f"{SERVE} --encoding f32 --shards 4 --out codec1.json")),
        twice(repro(f"{SERVE} --encoding q8 --out codec2.json")),
        twice(repro(f"serve --tenants 2 --clients 500 --commits 4 --seed 7 {BREAKERS} --out codec3.json")),
    ),
    # An async run seals a checkpoint per event, so a kill can land between
    # the blob write and the counter persist (one of the nine did, in one
    # run on a 2-core box, with the versions sealed as flat vectors): every
    # rerun must still exit 0 on the same report.
    "simulate-kill-resume": (
        ResumeEqualsReference(repro("simulate --clients 2000 --rounds 40 --seed 7 --async"
                                    " --buffer-size 64 --state-dir kill --out r.json"),
                              kills=tuple(1.5 + 0.9 * trial for trial in range(9))),
    ),
    # The harness seals a checkpoint per event and the checkpoint holds no
    # frame: every rerun rebuilds the 2 x 128 in flight from their
    # descriptors (rolling a torn put forward first, about two kills in
    # five).  The chaos case trips both tenants' breakers, so a resume also
    # restores each TenantBreaker's window; its ~250 kB checkpoint is sealed
    # every 8 events to keep the run to a few seconds.
    "serve-kill-resume": (
        ResumeEqualsReference(repro("serve --tenants 2 --seed 7 --clients 2000 --commits 20"
                                    " --dropout 0.05 --straggler 0.1 --state-dir skill-clean"
                                    " --out s.json"),
                              kills=tuple(1.0 + 1.2 * trial for trial in range(5))),
        ResumeEqualsReference(repro(f"serve --tenants 2 --seed 7 --clients 500 --commits 4"
                                    f" {BREAKERS} --checkpoint-every 8 --state-dir skill-chaos"
                                    " --out s.json"),
                              kills=tuple(0.5 + 0.9 * trial for trial in range(5))),
    ),
    # Peak RSS stays far below what 10^5 resident updates would need.
    "shard-ceiling": (
        Fields(repro("simulate --clients 100000 --shards 64 --rounds 2 --cohort 512"
                     " --out shard_smoke.json"),
               bounds={"aggregator_peak_bytes": ("<", 10_000_000),
                       "peak_rss_bytes": ("<", 1_500_000_000)}),
    ),
    "commands": tuple(map(Exits0, map(repro, [
        "list", "table5 --fast --rounds 12", "table6", "fig5 --fast", "fig6 --fast", "fig8",
        "summary", "blocks --fast", "trace",
    ]))),
    "examples": tuple(
        Exits0(("-W", "error::DeprecationWarning", f"examples/{path.name}"))
        for path in sorted((ROOT / "examples").glob("*.py"))
    ),
    "sweeps": tuple(
        Exits0((f"benchmarks/bench_{name}.py", "--quick", "--out", f"BENCH_{name}.json"))
        for name in ("shard_scale", "robust", "async", "serve", "chaos", "transformer")
    ),
    # pytest-benchmark disabled calls each timed body once, directly; timing
    # it pauses any profiler inside, the census's recorder with it.
    "paper-benchmarks": (
        Exits0(("-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
                "benchmarks")),
    ),
    # Counts, not timings.  shielded_fl: 2 clients x 1 cycle x 6 seals/unseals
    # and the bytes they move (float32 shards and uplinks; a float64 client
    # moves 1 260 768), the traced autodiff entry points, the world switches
    # and the secure pool's high-water mark.  serve_clean: 2 tenants x 6
    # commits x 250 folds.  sim_sync: 3 rounds x 250 asked of 2 000 under four fault kinds.
    # serve_durable: 2 tenants x 2 commits x 64 folds, killed at event 160
    # and resumed, a checkpoint every 32 events (the p50 needs 20 samples
    # and reads 0 at this size, so put_bytes is the pin).  A "speed-up" that
    # skips or merges a seal, kernel call, SMC, fault query, event, fold,
    # commit or checkpoint fails here.
    "ledger": (
        Exits0(("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "bench/test_bench.py")),
        Fields(traced("shielded_fl"), {"tee.crypto.calls": 12, "autodiff.calls": 28,
                                       "tee.monitor.smc_calls": 14,
                                       "tee.memory.peak_bytes": 278976,
                                       "tee.crypto.bytes": 751968}),
        Fields(traced("serve_clean"), {"fl.buffer.folds": 3000, "fl.buffer.commits": 12,
                                       "serve.coordinator.commits": 12}),
        Fields(traced("sim_sync"), {"sim.faults.calls": 1980, "sim.engine.calls": 606,
                                    "sim.events.events": 603, "fl.aggregation.adds": 607}),
        Fields(traced("serve_durable"),
               {"serve.loadgen.checkpoints": 18, "tee.storage.calls": 19,
                "tee.crypto.calls": 38, "fl.buffer.folds": 256, "sim.events.events": 510},
               {"serve.loadgen.checkpoint_bytes_p50": ("<=", 70_000),
                "tee.storage.put_bytes": ("<=", 700_000)}),
        ServeChaosDeliveries(),
        Exits0(("-W", "error::DeprecationWarning", "-c",
                "import repro.fl.aggregation, repro.fl.buffer, repro.obs.metrics, "
                "repro.tee.storage, repro.sim.keyed, repro.sim.faults, "
                "repro.serve.loadgen, repro.serve.coordinator, repro, repro.cli, "
                "repro.serve.wire, repro.attacks.dria, repro.core.shielded, "
                "repro.tee.costmodel")),
    ),
}


def argvs() -> List[Argv]:
    """Every argv line of the table, once each, in table order."""
    return list(dict.fromkeys(
        argv for checks in GATES.values() for check in checks for argv in check.argvs
    ))


def run_gate(name: str) -> bool:
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix=f"gate-{name}-") as scratch:
        runner = Runner(Path(scratch))
        try:
            for check in GATES[name]:
                check.check(runner)
        except AssertionError:
            traceback.print_exc()
            print(f"gate {name}: FAILED", flush=True)
            return False
    print(f"gate {name}: ok ({time.perf_counter() - started:.0f} s)", flush=True)
    return True


def main(names: Sequence[str]) -> int:
    unknown = [name for name in names if name not in GATES]
    if unknown:
        print(f"gates.py: no gate {', '.join(unknown)}; the gates: {' '.join(GATES)}",
              file=sys.stderr)
        return 2
    results = [run_gate(name) for name in names or GATES]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
