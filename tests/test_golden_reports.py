"""Golden ``--out`` hashes for the fold, commit and admission paths no ledger
rung runs: the streaming trimmed mean, Krum under async commit, norm
clipping in the simulator and in the coordinator (dense f64, and top-k f32
over four shards), and the FL server's robust rule behind the gate.

Each hash is SHA-256 of the file the CLI writes — the embedded metrics
snapshot included — recorded on the tree where every fold, commit and
admission check still unflattened its update into a ``WeightsList``.  The
update vocabulary may change; not one byte of what these runs report.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cli import main
from repro.fl import client as client_module

SIMULATE = ["simulate", "--clients", "500", "--rounds", "4", "--seed", "7"]
SERVE = ["serve", "--clients", "300", "--commits", "4", "--seed", "7"]
CLIPPED = ["--byzantine", "0.2", "--attack", "scale", "--max-norm", "1.0", "--clip"]

GOLDEN_OUTPUTS = {
    "simulate-trimmed-mean-4-shards": (
        [*SIMULATE, "--shards", "4", "--byzantine", "0.2", "--rule", "trimmed_mean"],
        "0c6185fca2d102165524fa9bf885f5397a061b8704badbab1586c94da6bf0edc",
    ),
    "simulate-krum-async": (
        [
            *SIMULATE, "--shards", "2", "--byzantine", "0.2", "--rule", "krum",
            "--async", "--buffer-size", "32",
        ],
        "a1ed746f767bd6e4b6311ce6793b8605b51679bd2fd13109ce7b4e9235369ad3",
    ),
    "simulate-clip": (  # 47 updates clipped onto the ceiling
        [
            *SIMULATE, "--byzantine", "0.2", "--attack", "scale",
            "--max-norm", "2.0", "--clip",
        ],
        "94dbe2495a4b623aa8893047cc058e5895538ebf214423a9e67e00273df9e3b0",
    ),
    "serve-clip": (
        [*SERVE, *CLIPPED],
        "d1f73b05b16e9c033b6b2e5132085575a212ea51fd0c539aa79ead1f36388c0f",
    ),
    "serve-clip-topk-f32-4-shards": (
        [*SERVE, *CLIPPED, "--ratio", "0.25", "--encoding", "f32", "--shards", "4"],
        "668f2d735c09ed8a47894d4141f84ee4bf100c1aa278d1795368b7ff7319b60c",
    ),
    # Recorded when FL clients trained in float64: run with a float64
    # device, it proves a float32 device changed the precision and nothing
    # else.
    "trace-median-gated": (
        ["trace", "--rule", "median", "--max-norm", "1.0", "--clients", "3"],
        "03f4ca599dd7fbc20bab3fe86b889f8bd6ae34ee8ccf71186524557eb38a7f4f",
    ),
    # The same fleet on its float32 device.
    "trace-median-gated-device-f32": (
        ["trace", "--rule", "median", "--max-norm", "1.0", "--clients", "3"],
        "70bfd4953797bcd16097f6843500da9d12544fee89f877c42c4da2de83c48c65",
    ),
}

#: Runs whose FL clients train in float64 instead of ``DEVICE_DTYPE``.
FLOAT64_DEVICE = {"trace-median-gated"}


@pytest.mark.parametrize("name", sorted(GOLDEN_OUTPUTS))
def test_cli_output_hashes_recorded_before_the_flat_vocabulary_hold(
    name, tmp_path, capsys, monkeypatch
):
    argv, expected = GOLDEN_OUTPUTS[name]
    if name in FLOAT64_DEVICE:
        monkeypatch.setattr(client_module, "DEVICE_DTYPE", np.float64)
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected
