"""What a process imports is the closure of what it runs.

Each case is a fresh interpreter (``sys.modules`` is per process): a
coordinator, a simulator and a shielded client load their own dependency
cone — never ``scipy``, never the attack / ml / baseline / paper-bench
subpackages — and the two lazy sites (``repro/__init__.py``'s PEP 562
``__getattr__``, DRIA's function-local ``scipy`` import) behave exactly
as the eager ones did.  DESIGN.md § Import cones has the table.
"""

import pytest

OFF_CONE = ("numpy.f2py", "repro.attacks", "repro.ml", "repro.baselines", "repro.bench")

# Prepended to every child: ``loaded(*prefixes)`` lists the offending keys.
PRELUDE = """
import sys

def loaded(*prefixes):
    return sorted(
        m for m in sys.modules
        if m.split(".")[0] == "scipy" or m.startswith(prefixes)
    )
"""


def run(spawn_python, body):
    return spawn_python("-c", PRELUDE + body, timeout=120).stdout


@pytest.mark.parametrize(
    "module", ["repro.serve", "repro.sim", "repro.fl.client", "repro.core.shielded"]
)
def test_library_entry_points_stay_on_their_cone(spawn_python, module):
    run(
        spawn_python,
        f"""
import {module}
bad = loaded(*{OFF_CONE + ("repro.api",)!r})
assert not bad, bad
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
    run(
        spawn_python,
        f"""
from repro.cli import main
assert main({argv + ["--out", str(out)]!r}) == 0
bad = loaded(*{OFF_CONE!r})
assert not bad, bad
""",
    )
    assert out.stat().st_size > 0


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
