"""Every ``repro`` command's surface is read off its run config.

Each flag is one knob of the command's run config
(:class:`~repro.sim.SimRun`, :class:`~repro.serve.ServeRun`,
:class:`~repro.experiments.TraceRun`, :class:`~repro.experiments.PaperRun`
or :class:`~repro.experiments.BlocksRun`, through ``repro.api.knob_table``),
so these tests pin the contract from both sides: the flag set is the one
the commands always had, each flag lands in exactly one config field and
each field has one flag, a knob moved off its default while its switch is
off is refused, every refusal names the flag typed, any drawn knob values
build the same run config (or the same refusal) from the API and from the
command line, and a command line and the API call with the same knobs
write the same bytes.
"""

import argparse
import json
import math
import re
from dataclasses import fields

import pytest

from hypothesis import given, settings, strategies as st

import gates
from repro import api
from repro.cli import build_parser, main, run_config
from repro.core.policy import PolicyError
from repro.experiments import BlocksRun, PaperRun, TraceRun
from repro.fl.config import ConfigError, compose, knob_fields, knob_type
from repro.serve import ServeRun
from repro.sim import SimRun

PAPER = ("table5", "table6", "fig5", "fig6", "fig8", "summary")
RUNS = {
    "simulate": SimRun,
    "serve": ServeRun,
    "trace": TraceRun,
    "blocks": BlocksRun,
    **{command: PaperRun for command in PAPER},
}

# The commands' flags before they were derived from the configs:
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
table5    --fast                  fast                store_true  false       -
table5    --rounds                rounds              int         36          -
table5    --batch-size            batch_size          int         32          -
table5    --seed                  seed                int         0           -
table5    --out                   out                 str         null        -
table6    --fast                  fast                store_true  false       -
table6    --rounds                rounds              int         36          -
table6    --batch-size            batch_size          int         32          -
table6    --seed                  seed                int         0           -
table6    --out                   out                 str         null        -
fig5      --fast                  fast                store_true  false       -
fig5      --rounds                rounds              int         36          -
fig5      --batch-size            batch_size          int         32          -
fig5      --seed                  seed                int         0           -
fig5      --out                   out                 str         null        -
fig6      --fast                  fast                store_true  false       -
fig6      --rounds                rounds              int         36          -
fig6      --batch-size            batch_size          int         32          -
fig6      --seed                  seed                int         0           -
fig6      --out                   out                 str         null        -
fig8      --fast                  fast                store_true  false       -
fig8      --rounds                rounds              int         36          -
fig8      --batch-size            batch_size          int         32          -
fig8      --seed                  seed                int         0           -
fig8      --out                   out                 str         null        -
summary   --fast                  fast                store_true  false       -
summary   --rounds                rounds              int         36          -
summary   --batch-size            batch_size          int         32          -
summary   --seed                  seed                int         0           -
summary   --out                   out                 str         null        -
blocks    --fast                  fast                store_true  false       -
blocks    --rounds                rounds              int         36          -
blocks    --batch-size            batch_size          int         32          -
blocks    --seed                  seed                int         0           -
blocks    --out                   out                 str         null        -
blocks    --model                 model               str         "vit_tiny"  vit_tiny,gpt_tiny
blocks    --mw-size               mw_size             int         1           -
blocks    --roles                 roles               str         null        -
blocks    --dpia                  dpia                store_true  false       -
trace     --clients               clients             int         2           -
trace     --rounds                rounds              int         1           -
trace     --seed                  seed                int         0           -
trace     --steps                 steps               int         1           -
trace     --protect               protect             str         "2,3"       -
trace     --rule                  rule                str         "fedavg"    fedavg,median,trimmed_mean,krum,clipped_fedavg
trace     --max-norm              max_norm            float       null        -
trace     --out                   out                 str         null        -
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
    "trace": {
        "--clients": ("3", "0"),
        "--rounds": ("2", "0"),
        "--seed": ("3", "-1"),
        "--steps": ("2", "0"),
        "--protect": ("2", "0"),
        "--max-norm": ("3.0", "nan"),
    },
    "blocks": {
        "--rounds": ("12", "0"),
        "--batch-size": ("8", "0"),
        "--seed": ("3", "-1"),
        "--mw-size": ("2", "0"),
        "--roles": ("softmax", "foo"),
    },
    **{
        command: {
            "--rounds": ("12", "0"),
            "--batch-size": ("8", "-3"),
            "--seed": ("3", "-2"),
        }
        for command in PAPER
    },
}

# Small runs, so a refused value is the only thing that can go wrong.
BASE = {
    "simulate": ["--clients", "40", "--rounds", "2"],
    "serve": ["--tenants", "1", "--clients", "40", "--commits", "2"],
    "trace": [],
    **{command: ["--fast"] for command in ("blocks", *PAPER)},
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
        unchecked = {"--state-dir"} if "--state-dir" in valued else set()
        assert valued - set(VALUES[command]) == unchecked | (
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


# A malformed spec, not a bad selector: a window size that is not an
# integer, an argument to ``none``, an empty ``+`` term.
@pytest.mark.parametrize("spec", ["mw:x", "mw:1.5", "pelta-mw:x", "none:1", "static:L2+"])
def test_a_malformed_policy_spec_is_one_line_naming_the_flag(spec, tmp_path, capsys):
    argv = ["simulate", *BASE["simulate"], "--policy", spec, "--out", str(tmp_path / "r.json")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("repro simulate: error: --policy: ")


def knob_values(item):
    """Any value a knob's flag parses, in range or not (``None``: flag
    left out)."""
    kind = knob_type(item)
    if kind is bool:
        return st.booleans()
    if item.metadata["choices"]:
        values = st.sampled_from(item.metadata["choices"])
    elif kind is int:
        values = st.integers(-2, 2**40)
    elif kind is float:
        values = st.floats(-2.0, 1e6) | st.sampled_from([math.nan, math.inf])
    else:
        values = st.text("0123456789,:+-_. Lablockmwpstn", max_size=12)
    return st.none() | values


def argv_of(command, values):
    """``values`` (keyword -> value) as the command line that sets them."""
    argv = []
    for flag, keyword, item in rows(command):
        value = values[keyword]
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv.append(f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}")
    return argv


def built(make):
    """What ``make()`` gives: the run config, or the refusal's message."""
    try:
        return make()
    except (ConfigError, PolicyError) as error:
        return str(error)


@pytest.mark.property
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_any_knob_values_build_a_run_config_or_are_refused(data):
    # Nothing but a run config or a ConfigError/PolicyError comes out of
    # any knob values, from the API or from the command line, and both
    # give the same one.  No command runs.
    command = data.draw(st.sampled_from(sorted(RUNS)))
    values = {
        keyword: data.draw(knob_values(item), label=flag)
        for flag, keyword, item in rows(command)
    }
    fields_by_keyword = {keyword: item.name for _, keyword, item in rows(command)}
    from_api = built(lambda: compose(RUNS[command], {
        fields_by_keyword[keyword]: value
        for keyword, value in values.items() if value is not None
    }))
    argv = [command, *argv_of(command, values)]
    from_cli = built(lambda: run_config(build_parser().parse_args(argv)))
    assert from_cli == from_api


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
        getattr(api, command)(**gates.api_keywords(command, flags))


# Every ``simulate``/``serve`` line of the gate table, less its ``--out``.
GATED_RUNS = list(dict.fromkeys(
    gates.without(argv[2:], "--out") for argv in gates.argvs()
    if argv[:2] == ("-m", "repro") and argv[2] in ("simulate", "serve")
))
# All but the two long kill configurations (--state-dir kill, skill-clean):
# other lines set each of their flags, and argv and keywords build one
# run config (test_any_knob_values_build_a_run_config_or_are_refused).
REPORT_RUNS = [line for line in GATED_RUNS
               if not any(flag == "--state-dir" and value in ("kill", "skill-clean")
                          for flag, value in zip(line, line[1:]))]


def flags_of(lines):
    return {(line[0], part) for line in lines for part in line if part.startswith("--")}


def test_the_compared_lines_set_every_flag_of_the_gated_lines():
    assert len(REPORT_RUNS) == len(GATED_RUNS) - 2
    assert flags_of(REPORT_RUNS) == flags_of(GATED_RUNS)


@pytest.mark.parametrize("line", REPORT_RUNS, ids=" ".join)
def test_a_ci_command_line_writes_the_api_report(line, tmp_path):
    command, *argv = line
    # A --state-dir gets a fresh directory on each side, so neither resumes.
    cli, api_side = ([str(tmp_path / side) if flag == "--state-dir" else part
                      for flag, part in zip(["", *argv], argv)] for side in ("cli", "api"))
    out = tmp_path / "cli.json"
    assert main([command, *cli, "--out", str(out)]) == 0
    assert out.read_bytes() == gates.api_report(command, api_side)


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
