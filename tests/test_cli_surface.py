"""The ``repro simulate``/``serve`` surface is read off the run configs.

Each flag is one knob of :class:`~repro.sim.SimRun` or
:class:`~repro.serve.ServeRun` (``repro.api.knob_table``), so these tests
pin the contract from both sides: the flag set is the one the commands
always had, each flag lands in exactly one config field and each field has
one flag, a knob moved off its default while its switch is off is refused,
every refusal names the flag typed, and a command line and the API call
with the same knobs write the same bytes.
"""

import argparse
import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.fl.config import compose, knob_fields, knob_type
from repro.serve import ServeRun
from repro.sim import SimRun

RUNS = {"simulate": SimRun, "serve": ServeRun}
CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

# The two commands' flags before they were derived from the configs:
# command, flag, keyword (argparse dest), type, default, choices.
SNAPSHOT = """
simulate  --clients               clients             int         100         -
simulate  --rounds                rounds              int         5           -
simulate  --seed                  seed                int         0           -
simulate  --model                 model               str         null        lenet5,alexnet,mlp,vit_tiny,gpt_tiny
simulate  --policy                policy              str         null        -
simulate  --cohort                cohort              int         null        -
simulate  --overprovision         overprovision       float       1.25        -
simulate  --quorum                quorum              float       0.5         -
simulate  --deadline              deadline            float       5.0         -
simulate  --shards                shards              int         1           -
simulate  --dropout               dropout             float       0.0         -
simulate  --straggler             straggler           float       0.0         -
simulate  --corrupt               corrupt             float       0.0         -
simulate  --pool-exhaust          pool_exhaust        float       0.0         -
simulate  --attestation           attestation         float       0.0         -
simulate  --shard-down            shard_down          float       0.0         -
simulate  --byzantine             byzantine           float       0.0         -
simulate  --attack                attack              str         "sign_flip" sign_flip,scale,gauss_noise,collude
simulate  --attack-strength       attack_strength     float       10.0        -
simulate  --rule                  rule                str         "fedavg"    fedavg,median,trimmed_mean,krum,clipped_fedavg
simulate  --trim                  trim                int         null        -
simulate  --num-byzantine         num_byzantine       int         null        -
simulate  --max-norm              max_norm            float       null        -
simulate  --clip                  clip                store_true  false       -
simulate  --drift                 drift               float       0.2         -
simulate  --update-scale          update_scale        float       0.05        -
simulate  --compile               compile             store_true  false       -
simulate  --client-batch          client_batch        int         1           -
simulate  --async                 async_mode          store_true  false       -
simulate  --buffer-size           buffer_size         int         null        -
simulate  --staleness             staleness           str         "constant"  constant,polynomial
simulate  --staleness-exponent    staleness_exponent  float       0.5         -
simulate  --concurrency           concurrency         int         null        -
simulate  --state-dir             state_dir           str         null        -
simulate  --out                   out                 str         null        -
serve     --tenants               tenants             int         2           -
serve     --clients               clients             int         1000        -
serve     --commits               commits             int         10          -
serve     --buffer-size           buffer_size         int         64          -
serve     --shards                shards              int         1           -
serve     --concurrency           concurrency         int         128         -
serve     --max-queue-depth       max_queue_depth     int         4096        -
serve     --ratio                 ratio               float       null        -
serve     --encoding              encoding            str         "f64"       f64,f32,f16,q8
serve     --seed                  seed                int         0           -
serve     --dropout               dropout             float       0.0         -
serve     --straggler             straggler           float       0.0         -
serve     --byzantine             byzantine           float       0.0         -
serve     --attack                attack              str         "sign_flip" sign_flip,scale,gauss_noise,collude
serve     --attack-strength       attack_strength     float       10.0        -
serve     --max-norm              max_norm            float       null        -
serve     --clip                  clip                store_true  false       -
serve     --drift                 drift               float       0.2         -
serve     --update-scale          update_scale        float       0.05        -
serve     --state-dir             state_dir           str         null        -
serve     --checkpoint-every      checkpoint_every    int         1           -
serve     --chaos                 chaos               store_true  false       -
serve     --chaos-rate            chaos_rate          float       0.1         -
serve     --chaos-seed            chaos_seed          int         0           -
serve     --chaos-breaker-budget  breaker_budget      int         0           -
serve     --out                   out                 str         null        -
"""

# One in-range non-default value and one out-of-range value per valued
# knob.  Not here: the ``choices`` knobs (argparse refuses anything else),
# the ``store_true`` switches, ``--state-dir`` (any path names a
# directory) and ``--policy`` (a bad spec is refused in the policy
# vocabulary, naming the selector typed: test_cli.TestConfigErrors).
VALUES = {
    "simulate": {
        "--clients": ("40", "0"),
        "--rounds": ("2", "0"),
        "--seed": ("3", "-1"),
        "--cohort": ("20", "0"),
        "--overprovision": ("1.5", "0.5"),
        "--quorum": ("0.75", "0"),
        "--deadline": ("2.0", "0"),
        "--update-scale": ("0.1", "0"),
        "--shards": ("2", "0"),
        "--drift": ("0.5", "2"),
        "--byzantine": ("0.2", "1.5"),
        "--attack-strength": ("5.0", "inf"),
        "--trim": ("1", "-1"),
        "--num-byzantine": ("1", "-1"),
        "--max-norm": ("3.0", "0"),
        "--client-batch": ("4", "0"),
        "--buffer-size": ("8", "0"),
        "--staleness-exponent": ("1.0", "-1"),
        "--concurrency": ("8", "0"),
        "--dropout": ("0.1", "1.5"),
        "--straggler": ("0.1", "1.5"),
        "--corrupt": ("0.1", "1.5"),
        "--pool-exhaust": ("0.1", "1.5"),
        "--attestation": ("0.1", "1.5"),
        "--shard-down": ("0.1", "1.5"),
    },
    "serve": {
        "--tenants": ("1", "0"),
        "--clients": ("40", "0"),
        "--commits": ("2", "0"),
        "--buffer-size": ("8", "0"),
        "--shards": ("2", "0"),
        "--seed": ("3", "-1"),
        "--concurrency": ("8", "0"),
        "--ratio": ("0.5", "0"),
        "--drift": ("0.5", "2"),
        "--update-scale": ("0.1", "0"),
        "--dropout": ("0.1", "1.5"),
        "--straggler": ("0.1", "1.5"),
        "--byzantine": ("0.2", "1.5"),
        "--attack-strength": ("5.0", "inf"),
        "--max-norm": ("3.0", "0"),
        "--max-queue-depth": ("100", "0"),
        "--chaos-rate": ("0.2", "1.5"),
        "--chaos-seed": ("3", "-1"),
        "--chaos-breaker-budget": ("3", "-1"),
        "--checkpoint-every": ("4", "0"),
    },
}

# Small runs, so a refused value is the only thing that can go wrong.
BASE = {
    "simulate": ["--clients", "40", "--rounds", "2"],
    "serve": ["--tenants", "1", "--clients", "40", "--commits", "2"],
}


def rows(command):
    return api.knob_table(RUNS[command])


def actions(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]


def switch_argv(command, item, tmp_path):
    """The flags that turn on the switch ``item`` needs (none if it needs none)."""
    requires = item.metadata["requires"]
    if requires is None:
        return []
    switch, *allowed = (requires,) if isinstance(requires, str) else requires
    flag, _, target = next(row for row in rows(command) if row[2].name == switch)
    if allowed:
        return [flag, allowed[0]]
    if target.default is False:
        return [flag]
    if switch == "state_dir":
        return [flag, str(tmp_path / "state")]
    return [flag, VALUES[command][flag][0]]


def leaves(config, path=()):
    """Every non-section field of a composed run config, by path."""
    out = {}
    for item in fields(config):
        value = getattr(config, item.name)
        if "section" in item.metadata:
            out.update(leaves(value, path + (item.name,)))
        else:
            out[path + (item.name,)] = value
    return out


def parsed_run(command, argv):
    args = build_parser().parse_args([command, *argv])
    values = {item.name: getattr(args, keyword) for _, keyword, item in rows(command)}
    return compose(RUNS[command], values)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_flag_set_equals_the_snapshot(command):
    expected = [
        line.split()[1:] for line in SNAPSHOT.strip().splitlines()
        if line.split()[0] == command
    ]
    seen = []
    for action in actions(command):
        store_true = isinstance(action, argparse._StoreTrueAction)
        kind = "store_true" if store_true else (action.type or str).__name__
        choices = ",".join(action.choices) if action.choices else "-"
        seen.append([
            action.option_strings[0], action.dest, kind,
            json.dumps(action.default), choices,
        ])
        assert action.option_strings == [action.option_strings[0]]
    assert sorted(seen) == sorted(expected)


@pytest.mark.parametrize("command", sorted(RUNS))
def test_each_field_has_one_flag_and_each_flag_one_field(command):
    table = rows(command)
    paths = [path for path, _ in knob_fields(RUNS[command])]
    names = [path[-1] for path in paths]
    assert len(set(names)) == len(names), "a field name is two knobs"
    flags = [flag for flag, _, _ in table]
    keywords = [keyword for _, keyword, _ in table]
    assert len(set(flags)) == len(flags) and len(set(keywords)) == len(keywords)
    # --out is the command's own: where to write the report, not a knob.
    assert sorted(a.option_strings[0] for a in actions(command)) == sorted(flags + ["--out"])
    assert sorted(a.dest for a in actions(command)) == sorted(keywords + ["out"])
    # The flag defaults are the field defaults.
    assert parsed_run(command, []) == RUNS[command]()


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in sorted(RUNS) for flag in VALUES[command]],
)
def test_a_flag_lands_in_its_own_field(command, flag, tmp_path):
    (_, _, item), = [row for row in rows(command) if row[0] == flag]
    switch = switch_argv(command, item, tmp_path)
    before = leaves(parsed_run(command, switch))
    after = leaves(parsed_run(command, [*switch, flag, VALUES[command][flag][0]]))
    changed = {path[-1] for path in after if after[path] != before[path]}
    # cohort also moves buffer_size, which defaults to it
    assert changed - ({"buffer_size"} if item.name == "cohort" else set()) == {item.name}


def test_every_valued_knob_has_an_out_of_range_case():
    for command in RUNS:
        valued = {
            flag for flag, _, item in rows(command)
            if item.default is not False and not item.metadata["choices"]
        }
        assert valued - set(VALUES[command]) == {"--state-dir"} | (
            {"--policy"} if command == "simulate" else set()
        )


@pytest.mark.parametrize(
    "command, flag",
    [(command, flag) for command in sorted(RUNS) for flag in VALUES[command]],
)
def test_a_refused_value_is_one_line_naming_the_flag(command, flag, tmp_path, capsys):
    (_, _, item), = [row for row in rows(command) if row[0] == flag]
    argv = [command, *BASE[command], *switch_argv(command, item, tmp_path)]
    argv += [flag, VALUES[command][flag][1], "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith(f"repro {command}: error: ")
    assert re.search(rf"{re.escape(flag)}\b", captured.err), captured.err


# A knob moved off its default while the switch it needs is off changed
# nothing but the echoed config: now it is refused, naming both flags.
IGNORED = [
    ("serve", ["--chaos-rate", "0.5"], "--chaos"),
    ("serve", ["--chaos-seed", "9"], "--chaos"),
    ("serve", ["--chaos-breaker-budget", "5"], "--chaos"),
    ("serve", ["--checkpoint-every", "3"], "--state-dir"),
    ("serve", ["--clip"], "--max-norm"),
    ("simulate", ["--buffer-size", "5"], "--async"),
    ("simulate", ["--concurrency", "5"], "--async"),
    ("simulate", ["--staleness", "polynomial"], "--async"),
    ("simulate", ["--staleness-exponent", "2"], "--async"),
    ("simulate", ["--clip"], "--max-norm"),
    ("simulate", ["--trim", "3"], "--rule trimmed_mean"),
    ("simulate", ["--num-byzantine", "2"], "--rule trimmed_mean|krum"),
]


@pytest.mark.parametrize(
    "command, flags, switch", IGNORED, ids=[" ".join(f) for _, f, _ in IGNORED]
)
def test_a_knob_without_its_switch_is_refused(command, flags, switch, tmp_path, capsys):
    argv = [command, *BASE[command], *flags, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"repro {command}: error: {flags[0]} requires {switch}\n"
    )
    # The API refuses the same knobs, naming its keywords.
    keyword = flags[0][2:].replace("-", "_").replace("chaos_breaker", "breaker")
    with pytest.raises(ValueError, match=f"^{keyword} requires "):
        getattr(api, command)(**_keywords(command, flags))


def _keywords(command, argv):
    """``argv`` as API keywords, typed by the knob table."""
    by_flag = {flag: (keyword, item) for flag, keyword, item in rows(command)}
    out, tokens = {}, list(argv)
    while tokens:
        keyword, item = by_flag[tokens.pop(0)]
        kind = knob_type(item)
        out[keyword] = True if kind is bool else kind(tokens.pop(0))
    return out


# Every ``simulate``/``serve`` configuration .github/workflows/ci.yml runs.
CI_RUNS = [
    "simulate --clients 500 --rounds 5 --seed 7 --dropout 0.2 --straggler 0.1 --corrupt 0.05",
    "simulate --clients 60 --rounds 10 --seed 0 --byzantine 0.3 --attack scale --rule trimmed_mean --max-norm 6",
    "simulate --clients 500 --rounds 5 --seed 7 --async --buffer-size 64 --dropout 0.2 --straggler 0.1",
    "simulate --clients 500 --rounds 5 --seed 7 --pool-exhaust 0.05 --attestation 0.03 --shards 4 --shard-down 0.2",
    "simulate --clients 500 --rounds 5 --seed 7 --async --buffer-size 32 --max-norm 3 --clip --byzantine 0.3 --attack scale --rule median --shards 2",
    "simulate --clients 500 --rounds 5 --seed 7 --async --corrupt 0.05 --pool-exhaust 0.05 --attestation 0.02 --staleness polynomial --shards 4",
    "simulate --clients 500 --rounds 5 --seed 7 --byzantine 0.2 --rule clipped_fedavg",
    "simulate --clients 500 --rounds 5 --seed 7 --byzantine 0.2 --rule krum",
    "simulate --clients 500 --rounds 5 --seed 7 --byzantine 0.2 --rule trimmed_mean --shards 4",
    "simulate --clients 300 --rounds 4 --seed 7 --dropout 0.1 --corrupt 0.05 --shards 4 --shard-down 0.2",
    "simulate --clients 300 --rounds 4 --seed 7 --async --buffer-size 32 --max-norm 3 --byzantine 0.3 --attack scale",
    "simulate --clients 300 --rounds 3 --seed 7 --model vit_tiny --policy pelta-mw:1",
    "simulate --clients 256 --rounds 3 --seed 5 --dropout 0.1 --straggler 0.1",
    "simulate --clients 256 --rounds 3 --seed 5 --dropout 0.1 --straggler 0.1 --compile --client-batch 64",
    "simulate --clients 2000 --rounds 40 --seed 7 --async --buffer-size 64",
    "simulate --clients 100000 --shards 64 --rounds 2 --cohort 512",
    "serve --tenants 2 --clients 200 --commits 5 --seed 7 --dropout 0.05 --straggler 0.1",
    "serve --tenants 2 --clients 500 --commits 4 --seed 7 --chaos --chaos-rate 0.1 --chaos-seed 3",
    "serve --tenants 2 --clients 200 --commits 4 --seed 7 --ratio 0.25 --encoding f32 --shards 4",
    "serve --tenants 2 --clients 200 --commits 4 --seed 7 --ratio 0.25 --encoding q8",
    "serve --tenants 2 --clients 500 --commits 4 --seed 7 --chaos --chaos-rate 0.2 --chaos-seed 3 --chaos-breaker-budget 5",
    "serve --tenants 2 --seed 7 --clients 2000 --commits 20 --dropout 0.05 --straggler 0.1",
]


def test_the_ci_runs_cover_every_configuration_ci_yml_spells():
    text = " ".join(CI_RUNS)
    fragments = re.findall(r'"(--[a-z][^"]* [^"]*)"', CI.read_text())
    assert fragments and [f for f in fragments if f not in text] == []


@pytest.mark.parametrize("line", CI_RUNS)
def test_a_ci_command_line_writes_the_api_report(line, tmp_path):
    command, *argv = shlex.split(line)
    out = tmp_path / "cli.json"
    assert main([command, *argv, "--out", str(out)]) == 0
    if command == "simulate":
        report = api.simulate(include_metrics=True, **_keywords(command, argv))
    else:
        report = api.serve(**_keywords(command, argv))
    payload = {"schema": 1, "command": command, **report}
    assert out.read_text() == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_the_api_takes_the_run_config_or_its_keywords():
    from repro.sim import FaultRates, SimConfig

    config = SimRun(
        config=SimConfig(num_clients=40, rounds=2, seed=3, shards=2),
        rates=FaultRates(dropout=0.1),
    )
    assert api.simulate(config) == api.simulate(
        clients=40, rounds=2, seed=3, shards=2, dropout=0.1
    )
    with pytest.raises(TypeError, match="not both"):
        api.simulate(config, seed=4)
    with pytest.raises(TypeError, match="'num_clients'"):
        api.simulate(num_clients=40)  # the keyword is the flag's: clients=
