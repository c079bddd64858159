"""The execution census records exactly the functions a process enters."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "census.py"


def load_census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hook_records_entered_functions_and_nothing_else(tmp_path):
    census = load_census()
    hook, calls = tmp_path / "hook", tmp_path / "calls"
    hook.mkdir()
    calls.mkdir()
    census.install_hook(hook)
    program = (
        "from repro.fl.config import BufferConfig, ShardingConfig\n"
        "BufferConfig(size=2).weight(1.0)\n"
        "ShardingConfig(num_shards=2).flat\n"
    )
    subprocess.run(
        [sys.executable, "-c", program],
        env=census.hook_env(hook, calls),
        cwd=tmp_path,
        check=True,
    )
    table = census.functions()
    called = {table[entry][0] for entry in census.recorded(calls) if entry in table}
    # A decorated function is keyed by its first decorator's line, which is
    # where its code object starts: the property is found like a plain method.
    assert {
        "BufferConfig.__post_init__",
        "BufferConfig.weight",
        "ShardingConfig.flat",
    } <= called
    assert "RoundConfig.__post_init__" not in called
    assert "require_finite" not in called


def test_function_sizes_leave_out_nested_definitions():
    census = load_census()
    sizes = {qualname: lines for qualname, lines in census.functions().values()}
    # compile_model_step holds a nested step_fn; each counts its own lines.
    assert sizes["compile_model_step"] > 0
    assert sizes["compile_model_step.<locals>.step_fn"] > 0
    source = (census.SRC / "repro" / "graph" / "vm.py").read_text()
    outer = source[source.index("def compile_model_step"):]
    outer = outer[: outer.index("\n\n\n")]
    assert sizes["compile_model_step"] + sizes[
        "compile_model_step.<locals>.step_fn"
    ] == len(outer.splitlines())
