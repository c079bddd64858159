"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.data import synthetic_cifar
from repro.nn import lenet5, mlp, one_hot

_REPO_ROOT = Path(__file__).resolve().parents[1]
# tools/ holds scripts, not a package: the gate table and the census
# import as top-level modules, as they do when run.
sys.path.insert(0, str(_REPO_ROOT / "tools"))

# One example budget for every hypothesis suite, whichever modules a run
# collects; a suite that needs its own budget sets ``@settings`` on its tests.
settings.register_profile("tier1", max_examples=30, deadline=None)
settings.load_profile("tier1")


def _subprocess_env():
    """Environment for child interpreters: the repo's src on PYTHONPATH."""
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join([src, existing])
    return env


@pytest.fixture
def spawn_python():
    """Run ``python <args...>`` as a child process and return the result.

    The one blessed way suites shell out to a fresh interpreter (CLI
    byte-compare runs, benchmark scripts): repo ``src`` is always on the
    child's PYTHONPATH and output is captured as text.
    """

    def run(*args, timeout=600, check=True, cwd=None):
        result = subprocess.run(
            [sys.executable, *map(str, args)],
            capture_output=True,
            text=True,
            timeout=timeout,
            env=_subprocess_env(),
            cwd=cwd or str(_REPO_ROOT),
        )
        if check:
            assert result.returncode == 0, (
                f"child python {args} failed ({result.returncode}):\n"
                f"{result.stdout}\n{result.stderr}"
            )
        return result

    return run


@pytest.fixture
def spawn_repro(spawn_python):
    """Run a ``repro`` CLI subcommand in a child interpreter."""

    def run(*args, timeout=600, check=True):
        return spawn_python("-m", "repro", *args, timeout=timeout, check=check)

    return run


@pytest.fixture
def spawn_repro_background():
    """Start ``repro <args...>`` detached, for kill -9 / crash tests.

    Yields a factory returning the live ``subprocess.Popen``; anything
    still running at teardown is killed so a failing test cannot leak
    children.
    """
    procs = []

    def start(*args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", *map(str, args)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=_subprocess_env(),
            cwd=str(_REPO_ROOT),
        )
        procs.append(proc)
        return proc

    yield start
    for proc in procs:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def small_model():
    """A tiny 3-layer MLP for fast structural tests."""
    return mlp(num_classes=4, input_shape=(6,), hidden=(8, 5), seed=0)


@pytest.fixture
def lenet():
    """The paper's LeNet-5 (Table 4 shapes)."""
    return lenet5(num_classes=100, seed=0)


@pytest.fixture
def image_batch(rng):
    x = rng.normal(0.5, 0.2, size=(8, 3, 32, 32))
    y = one_hot(rng.integers(0, 5, 8), 5)
    return x, y


@pytest.fixture
def small_dataset():
    return synthetic_cifar(num_samples=64, num_classes=5, seed=3)


@pytest.fixture
def shape_budget():
    """Secure-pool bytes for shielding ``protected`` layers, from shapes alone.

    The paper's float32 ``W + dW`` (counted from the parameter arrays) plus
    ``A_{l-1} + Z_l + delta_l`` (from each layer's activation element counts)
    for the whole batch, summed over the set: an accounting written out here
    independently of ``Layer.tee_memory_bytes`` / ``CostModel``.
    """

    def budget(model, protected, batch_size):
        total = 0
        for index in sorted(set(protected)):
            layer = model.layer(index)
            weights = sum(p.data.size for p in layer.params.values())
            activations = batch_size * (layer.input_elems() + 2 * layer.output_elems())
            total += 4 * (2 * weights + activations)
        return total

    return budget


# --- simulator-report helpers (shared by the CLI, byzantine and async
# simulator suites, which all compare serialised reports byte-for-byte) ---


@pytest.fixture
def report_bytes():
    """Canonical serialisation of a simulate report, for byte comparisons."""

    def encode(report):
        return json.dumps(report, sort_keys=True).encode()

    return encode


@pytest.fixture
def simulate_cli(tmp_path):
    """Run ``repro simulate`` over the suite's base fleet, return the bytes.

    ``extra`` flags are appended after the base flags, so repeating a flag
    (e.g. ``--seed``) overrides the base value — argparse keeps the last.
    """
    from repro.cli import main

    def run(name, *extra):
        out = tmp_path / name
        argv = [
            "simulate",
            "--clients", "80",
            "--rounds", "3",
            "--seed", "7",
            "--dropout", "0.2",
            "--straggler", "0.1",
            "--out", str(out),
            *extra,
        ]
        assert main(argv) == 0
        return out.read_bytes()

    return run


@pytest.fixture
def sim_factory():
    """Build an ``FLSimulator`` under a fresh ``VirtualClock`` registry.

    Yields the simulator inside a context manager so tests that kill and
    resume a coordinator can open two independent metric registries.  The
    ``FaultPlan`` is derived from the config's byzantine settings, exactly
    as the CLI wires it; pass ``rates=FaultRates(...)`` for infrastructure
    faults.
    """
    from repro import obs
    from repro.obs import VirtualClock
    from repro.sim import FLSimulator, FaultPlan, FaultRates, SimConfig

    @contextmanager
    def build(storage=None, rates=None, **settings):
        config = SimConfig(**settings)
        plan = FaultPlan(rates or FaultRates(), seed=config.seed, attackers=config)
        with obs.fresh(clock=VirtualClock()) as ctx:
            yield FLSimulator(
                config, fault_plan=plan, storage=storage, clock=ctx.clock
            )

    return build


@pytest.fixture
def sim_runner(sim_factory):
    """Run one in-process simulation to completion and return its report."""

    def run(storage=None, rates=None, **settings):
        with sim_factory(storage=storage, rates=rates, **settings) as sim:
            return sim.run()

    return run
