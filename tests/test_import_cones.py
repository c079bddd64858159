"""What a process imports is the closure of what it runs.

Each case is a fresh interpreter (``sys.modules`` is per process): a
coordinator, a simulator and a shielded client load their own dependency
cone — never ``scipy``, never the attack / ml / baseline / paper-bench
subpackages, and a coordinator or simulator never the GradSec trainer —
and the lazy sites (every package ``__init__``'s PEP 562 ``__getattr__``,
DRIA's function-local ``scipy`` import) behave exactly as the eager ones
did.  DESIGN.md § Import cones has the table.
"""

import pytest

OFF_CONE = ("numpy.f2py", "repro.attacks", "repro.ml", "repro.baselines", "repro.bench")

# What a coordinator or a simulator never runs: the shielded trainer and its
# attestation, the planner and the V_MW search, the data sets, the client
# and the transformer layers.
TRAINER = (
    "repro.core.shielded",
    "repro.core.planner",
    "repro.core.search",
    "repro.tee.attestation",
    "repro.fl.client",
    "repro.data",
    "repro.nn.attention",
)
UNUSED_BY_A_CLIENT = ("repro.core.planner", "repro.core.search", "repro.nn.attention")

# Prepended to every child: ``loaded(*prefixes)`` lists the offending keys,
# ``count()`` the ``repro`` modules loaded.
PRELUDE = """
import sys

def loaded(*prefixes):
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] == "scipy" or m.startswith(prefixes)
    )

def count():
    return sum(m.split(".")[0] == "repro" for m in sys.modules)
"""


def run(spawn_python, body):
    return spawn_python("-c", PRELUDE + body, timeout=120).stdout


@pytest.mark.parametrize(
    "statement, stay_out, budget",
    [
        pytest.param(
            "from repro.serve import ServeHarness",
            OFF_CONE + TRAINER + ("repro.api",),
            41,
            id="repro.serve",
        ),
        pytest.param(
            "from repro.sim import FLSimulator",
            OFF_CONE + TRAINER + ("repro.api",),
            44,
            id="repro.sim",
        ),
        pytest.param(
            "import repro.fl.client",
            OFF_CONE + UNUSED_BY_A_CLIENT + ("repro.api", "repro.serve", "repro.sim"),
            44,
            id="repro.fl.client",
        ),
        pytest.param(
            "import repro.core.shielded",
            OFF_CONE + UNUSED_BY_A_CLIENT
            + ("repro.api", "repro.fl", "repro.data", "repro.tee.attestation"),
            33,
            id="repro.core.shielded",
        ),
        # The CLI module itself loads no subpackage: each command imports
        # what it runs.
        pytest.param("import repro.cli", ("repro.api",), 2, id="repro.cli"),
    ],
)
def test_library_entry_points_stay_on_their_cone(spawn_python, statement, stay_out, budget):
    run(
        spawn_python,
        f"""
{statement}
bad = loaded(*{stay_out!r})
assert not bad, bad
assert count() <= {budget}, count()
""",
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--tenants", "1", "--clients", "20", "--commits", "2"],
        ["simulate", "--clients", "20", "--rounds", "2"],
    ],
    ids=["serve", "simulate"],
)
def test_resumable_cli_commands_stay_on_their_cone(spawn_python, tmp_path, argv):
    # ``repro.api`` is the facade these two commands call; it is on the cone.
    out = tmp_path / "report.json"
    flags = ["--state-dir", str(tmp_path / "state"), "--out", str(out)]
    run(
        spawn_python,
        f"""
from repro.cli import main
assert main({argv + flags!r}) == 0
bad = loaded(*{OFF_CONE + TRAINER!r})
assert not bad, bad
""",
    )
    assert out.stat().st_size > 0


def test_the_library_runs_without_its_cli(spawn_python):
    """The zoo lookup and the experiment registry live in the library:
    ``repro.api`` never imports ``repro.cli``."""
    run(
        spawn_python,
        """
from repro import api
api.simulate(clients=20, rounds=1, seed=3, model="lenet5")
assert api.run_experiment("table6")["command"] == "table6"
assert not loaded("repro.cli"), loaded("repro.cli")
""",
    )


def test_a_serve_report_leaves_numpy_ma_unloaded(spawn_python):
    """The report's latency percentiles do not go through ``np.percentile``,
    whose ``np.unique`` call imports ``numpy.ma``."""
    run(
        spawn_python,
        """
from repro.obs import VirtualClock, fresh
from repro.serve import LoadSpec, ServeHarness

spec = LoadSpec(tenant="t", job_id="j", clients=40, commits=2, buffer_size=8,
                concurrency=8, seed=3, straggler=0.1)
with fresh(clock=VirtualClock()) as ctx:
    report = ServeHarness([spec], clock=ctx.clock).run()
assert report["jobs"][0]["latency_p99_s"] is not None
assert "numpy.ma" not in sys.modules
""",
    )


# Every package whose ``__init__`` resolves its names lazily, with the
# length of its (unchanged) ``__all__``.
LAZY_PACKAGES = {
    "repro.attacks": 14,
    "repro.autodiff": 10,
    "repro.baselines": 9,
    "repro.bench": 10,
    "repro.core": 25,
    "repro.data": 8,
    "repro.fl": 39,
    "repro.graph": 19,
    "repro.ml": 7,
    "repro.nn": 29,
    "repro.serve": 27,
    "repro.sim": 12,
    "repro.tee": 30,
}


@pytest.mark.parametrize("package", sorted(LAZY_PACKAGES))
def test_lazy_package_resolves_each_public_name_as_the_eager_one_did(
    spawn_python, package
):
    run(
        spawn_python,
        f"""
import importlib, pkgutil

pkg = importlib.import_module({package!r})
names = pkg.__all__
assert len(names) == {LAZY_PACKAGES[package]}, len(names)
assert set(names) <= set(dir(pkg))

# The first access runs __getattr__; the second is a plain attribute.
# (A submodule's own ``from . import sibling`` asks __getattr__ too.)
lazy, calls = pkg.__getattr__, []
pkg.__getattr__ = lambda name: calls.append(name) or lazy(name)
first = getattr(pkg, names[0])
assert getattr(pkg, names[0]) is first and calls.count(names[0]) == 1, calls
pkg.__getattr__ = lazy

namespace = {{}}
exec("from {package} import *", namespace)
submodules = [
    importlib.import_module(f"{package}.{{info.name}}")
    for info in pkgutil.iter_modules(pkg.__path__)
]
for name in names:
    value = namespace[name]
    assert value is getattr(pkg, name) and name in vars(pkg), name
    assert value is sys.modules.get(f"{package}.{{name}}") or any(
        vars(module).get(name) is value for module in submodules
    ), name

try:
    pkg.nope
except AttributeError as error:
    assert str(error) == "module {package!r} has no attribute 'nope'", error
else:
    raise AssertionError("a misspelt name must be an AttributeError")
try:
    exec("from {package} import nope")
except ImportError:
    pass
else:
    raise AssertionError("importing a misspelt name must be an ImportError")
""",
    )


def test_bare_import_loads_no_subpackage_and_resolves_on_access(spawn_python):
    run(
        spawn_python,
        """
import repro
assert [m for m in sys.modules if m.startswith("repro")] == ["repro"]
assert repro.__version__ == "1.0.0"
assert set(repro.__all__) <= set(dir(repro))
assert callable(repro.nn.lenet5)          # attribute access imports it
assert "nn" in vars(repro)                # ... once: now a plain attribute
from repro import fl
assert fl is sys.modules["repro.fl"]
try:
    repro.nope
except AttributeError as error:
    assert str(error) == "module 'repro' has no attribute 'nope'"
else:
    raise AssertionError("a misspelt subpackage must be an AttributeError")
try:
    from repro import nope
except ImportError:
    pass
else:
    raise AssertionError("from repro import nope must be an ImportError")
""",
    )


def test_star_import_binds_every_public_name(spawn_python):
    run(
        spawn_python,
        """
import repro
namespace = {}
exec("from repro import *", namespace)
for name in repro.__all__:
    assert namespace[name] is getattr(repro, name), name
assert namespace["attacks"] is sys.modules["repro.attacks"]
""",
    )


def test_scipy_is_loaded_by_the_lbfgs_run_and_nothing_else(spawn_python):
    """Adam leaves scipy unloaded; L-BFGS returns what a direct
    ``scipy.optimize.minimize`` over the same objective returns, bit for bit."""
    run(
        spawn_python,
        """
import numpy as np
from repro.attacks import DataReconstructionAttack
from repro.data import synthetic_cifar
from repro.nn import lenet5

model = lenet5(num_classes=5, seed=1, scale=0.5)
data = synthetic_cifar(num_samples=2, num_classes=5, seed=0)
x, y = data.x[:1], data.one_hot_labels()[:1]

adam = DataReconstructionAttack(model, iterations=3, optimizer="adam").run(x, y)
assert len(adam.detail["report"].matching_losses) == 3
assert not loaded(), loaded()

attack = DataReconstructionAttack(model, iterations=6, seed=0)
report = attack.run(x, y, protected=(5,)).detail["report"]
assert "scipy.optimize" in sys.modules

# The reference: the L-BFGS branch written out against scipy directly.
from scipy import optimize

observed = attack.observed_gradients(x, y, (5,))
dummy = np.random.default_rng(0).normal(0.5, 0.3, size=x.shape)
initial, _ = attack._matching_loss_and_grad(dummy, y, observed)
scale = 1.0 / max(initial, 1e-30)
losses = []

def objective(flat):
    value, gx = attack._matching_loss_and_grad(flat.reshape(x.shape), y, observed)
    losses.append(value)
    return scale * value, scale * gx.ravel()

solution = optimize.minimize(
    objective, dummy.ravel(), jac=True, method="L-BFGS-B",
    options={"maxiter": 6, "maxfun": 24, "ftol": 1e-14, "gtol": 1e-12},
)
assert report.reconstruction.tobytes() == solution.x.reshape(x.shape).tobytes()
assert report.matching_losses == losses and report.iterations == solution.nit
""",
    )
