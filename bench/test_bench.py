"""Tests of the benchmark itself.  Not part of tier-1:

    python -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import run  # noqa: E402
from instrument import (  # noqa: E402
    CallRecorder, Instrumenter, import_all, public_methods, resolve,
)
from spans import LAYERS, PER_LAYER, Tracer, layer_targets  # noqa: E402
from stats import percentile, spread, summary  # noqa: E402
from workloads import WORKLOADS, account  # noqa: E402


def _run(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )


# -- span arithmetic -----------------------------------------------------------
def test_self_time_is_duration_minus_children_and_parts_sum_to_root():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    leaf = tracer.span_wrapper("leaf", "leaf", leaf)

    def middle():
        return leaf(2000) + leaf(3000)

    middle = tracer.span_wrapper("middle", "middle", middle)

    def top():
        return middle() + leaf(1000) + middle()

    top = tracer.span_wrapper("top", "top", top)

    assert top() == top()  # outside root(): passes through, records nothing
    assert tracer.spans == [] and tracer.aggregates == {}
    with tracer.root():
        top()
        leaf(10)
    tracer.check_exact()

    rows = {(r["layer"], r["parent"]): r for r in tracer.rows()}
    assert rows[("leaf", "middle")]["calls"] == 4
    assert rows[("leaf", "top")]["calls"] == 1
    assert rows[("leaf", "root")]["calls"] == 1
    # leaves have no children: self == duration
    assert all(r["self_ns"] == r["dur_ns"] for k, r in rows.items() if k[0] == "leaf")
    assert rows[("middle", "top")]["self_ns"] == (
        rows[("middle", "top")]["dur_ns"] - rows[("leaf", "middle")]["dur_ns"]
    )
    assert rows[("top", "root")]["self_ns"] == (
        rows[("top", "root")]["dur_ns"]
        - rows[("middle", "top")]["dur_ns"]
        - rows[("leaf", "top")]["dur_ns"]
    )
    totals = tracer.layer_totals()
    assert sum(t["self_ns"] for t in totals.values()) + tracer.root_self_ns == tracer.root_ns

    # the same arithmetic from the stored spans: every span's children lie inside it
    by_id = {s[0]: s for s in tracer.spans}
    for sid, parent, *_rest, start, end in tracer.spans:
        if parent >= 0:
            assert by_id[parent][5] <= start <= end <= by_id[parent][6]
    # one op id per top-level call under the root
    assert {s[4] for s in tracer.spans if s[0] != 0} == {0, 1}


def test_spans_survive_exceptions_and_cap_per_layer():
    tracer = Tracer(span_limit=3)

    def boom(flag):
        if flag:
            raise KeyError("x")

    boom = tracer.span_wrapper("layer", "boom", boom)
    with tracer.root():
        for i in range(10):
            if i == 4:
                with pytest.raises(KeyError):
                    boom(True)
            else:
                boom(False)
    tracer.check_exact()
    assert tracer.calls("layer") == 10  # aggregates are complete…
    assert sum(1 for s in tracer.spans if s[2] != 0) == 3  # …stored spans are capped
    assert tracer.document()["truncated_layers"] == ["layer"]


# -- percentile rule -------------------------------------------------------------
def test_percentile_refuses_thin_tails():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99)
    assert percentile(list(range(1000)), 99) == 989
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9
    assert summary([3.0, 1.0, 2.0])["median"] == 2.0
    assert spread([10.0] * 5) == 0.0


# -- instrument / restore --------------------------------------------------------
def test_wrap_patches_every_namespace_and_restores_by_identity():
    import repro.serve
    import repro.serve.coordinator as coordinator
    import repro.serve.loadgen as loadgen
    import repro.serve.wire as wire
    from repro.obs.metrics import Counter

    original, inc = wire.decode_frame, Counter.__dict__["inc"]
    holders = [wire, repro.serve, coordinator, loadgen]
    assert all(m.decode_frame is original for m in holders)

    patches = Instrumenter()
    wrapper = patches.wrap("repro.serve.wire:decode_frame", lambda f: lambda *a, **k: f(*a, **k))
    patches.wrap("repro.obs.metrics:Counter.inc", lambda f: lambda *a, **k: f(*a, **k))
    assert all(m.decode_frame is wrapper for m in holders)
    assert Counter.__dict__["inc"] is not inc
    with pytest.raises(AssertionError):
        patches.assert_restored()
    patches.restore()
    assert all(m.decode_frame is original for m in holders)
    assert Counter.__dict__["inc"] is inc

    with pytest.raises(KeyError):  # inherited, not defined on SGD: refuse
        patches.wrap("repro.nn.optim:SGD.step", lambda f: f)


def test_full_trace_install_leaves_nothing_behind():
    import_all()
    before = {
        target: resolve(target)[2] for layer in LAYERS for target in layer_targets(layer)
    }
    tracer = Tracer()
    with Instrumenter() as patches:
        tracer.install(patches)
        assert all(resolve(t)[2] is not f for t, f in before.items())
    patches.assert_restored()
    assert all(resolve(t)[2] is f for t, f in before.items())


# -- recorder + replay -------------------------------------------------------------
@pytest.fixture(scope="module")
def chaos_inputs():
    return WORKLOADS["serve_chaos"].make_inputs(seed=5, quick=True)


def test_recorder_logs_only_top_level_calls(chaos_inputs):
    from repro.serve.coordinator import Coordinator

    names = {name for name, _, _ in chaos_inputs["log"]}
    # ingest() pumps internally; those pumps are the coordinator's, not the fleet's
    assert names == {"ingest", "charge_download", "charge_upload"}
    assert names <= set(public_methods(Coordinator))

    recorder = CallRecorder()

    class Target:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    outer = recorder.factory("outer")(Target.outer)
    Target.inner = recorder.factory("inner")(Target.inner)
    assert outer(Target()) == 2 and Target().inner() == 1
    assert [name for name, _, _ in recorder.log] == ["outer", "inner"]


def test_replay_is_deterministic_and_matches_the_recording(chaos_inputs):
    workload = WORKLOADS["serve_chaos"]
    results = []
    for _ in range(2):
        state = workload.build(chaos_inputs)
        workload.timed(state)
        results.append(workload.result(state))
    assert results[0] == results[1]
    assert results[0]["ops"]["failed"] == 0
    assert results[0]["updates"] == 2 * 4 * 250
    assert workload.check(chaos_inputs, results, workload.reference(chaos_inputs)) == []


def test_account_flags_what_it_cannot_place():
    assert account(10, 7, 2, 1, 0)["failed"] == 0
    assert account(10, 7, 2, 0, 0)["failed"] == 1  # one update vanished
    assert account(10, 7, 2, 0, 4) == {
        "attempted": 10, "committed": 7, "lost_injected": 2, "rejected_typed": 0,
        "in_flight_at_end": 1, "failed": 0,
    }
    assert account(10, 9, 2, 0, 4)["failed"] == 1  # more outcomes than dispatches


# -- manifest <-> run.py -------------------------------------------------------------
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_manifest_is_what_run_py_defines_and_fits_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert manifest == run.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert [m["bound"] for m in run.END_TO_END] == [0.10, 0.10, 0.05]  # what compare.py applies
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert 2 <= len(manifest["workloads"]) <= 8 and len(manifest["per_layer"]) <= 128
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_driver_mode_prints_exactly_the_manifest_metrics(trace):
    done = _run("--workload", "serve_durable", "--seed", "3", "--seconds", "1",
                "--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    expected = (
        {m["name"]: m["unit"] for m in run.END_TO_END}
        if trace == "0"
        else {name: unit for name, (unit, _) in PER_LAYER.items()}
    )
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_a_repeat_without_a_result_fails_every_op(monkeypatch, capsys):
    monkeypatch.setattr(run, "CHILD_TIMEOUT_S", 0.01)
    entry = run.measure("sim_async", 1, quick=True, min_repeats=1, max_repeats=1,
                        min_seconds=0.0, traced=False)
    assert entry["failures"] and "timed out" in capsys.readouterr().err
    assert entry["ops"]["failed"] == entry["ops"]["attempted"] >= 1
    assert f"inputs-sim_async-{os.getpid()}.pkl" not in os.listdir(os.path.join(BENCH, "out"))


def test_refuses_to_run_outside_a_checkout(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_async", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""


# -- end-to-end smoke ------------------------------------------------------------------
def test_quick_ledger_smoke_and_self_compare(tmp_path):
    out = tmp_path / "ledger.json"
    started = time.perf_counter()
    done = _run("--quick", "--seed", "7", "--out", str(out))
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 30
    ledger = json.loads(out.read_text())
    assert list(ledger["workloads"]) == list(WORKLOADS)
    assert {"commit", "python", "numpy", "nproc", "blas_threads", "seed", "repeats",
            "loadavg_1m"} <= set(ledger["provenance"])
    for name, entry in ledger["workloads"].items():
        assert entry["failures"] == [] and entry["ops"]["failed_share"] == 0
        assert set(entry["per_layer"]) == set(PER_LAYER)
        assert entry["per_layer"]["trace.attributed_share"]["value"] >= 0.7, name
        for metric in PER_LAYER:  # every metric is printed by name
            assert re.search(rf"^{name}\s+{re.escape(metric)}\s", done.stdout, re.M)
    assert os.path.exists(os.path.join(BENCH, "out", "trace-serve_clean.json"))

    rows = compare.compare(ledger, ledger)
    assert {r["verdict"] for r in rows} == {"ok"}
    assert compare.main([str(out), str(out)]) == 0


def test_compare_verdicts():
    def row(samples, better="higher", bound=0.10):
        return {"bound": bound, "better": better, "unit": "x", "samples": samples, **summary(samples)}

    steady = row([100.0, 101.0, 99.0, 100.0, 100.5])
    assert compare.verdict(steady, row([95.0, 96.0, 94.0, 95.0, 95.5])) == "ok"
    assert compare.verdict(steady, row([80.0, 81.0, 79.0, 80.0, 80.5])) == "regressed"
    noisy = row([60.0, 140.0, 80.0, 120.0, 100.0])
    assert compare.verdict(steady, noisy) == "unresolved"
    assert compare.verdict(noisy, row([300.0, 301.0, 299.0])) == "ok"  # every run better
    lower = row([1.0, 1.01, 0.99], better="lower")
    assert compare.verdict(lower, row([1.2, 1.21, 1.19], better="lower")) == "regressed"

    def ledger(ups, failed_share=0.0):
        return {"workloads": {"w": {
            "end_to_end": {"updates_per_s": row(ups)},
            "ops": {"failed_share": failed_share},
            "exact": {"updates": 5},
        }}}

    base = ledger([100.0, 101.0, 99.0])
    assert [r["verdict"] for r in compare.compare(base, base)] == ["ok", "ok"]
    worse = compare.compare(base, ledger([100.0, 101.0, 99.0], failed_share=0.1))
    assert [r["verdict"] for r in worse] == ["ok", "regressed"]
