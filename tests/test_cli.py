"""End-to-end command line tests, most through a real subprocess."""
import copy
import json
import math
import operator
import os
import subprocess
import sys
import tomllib
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings, strategies as st

import teamsim.sd
from teamsim import cli
from teamsim.des import MAX_DES_DAYS
from teamsim.errors import ConfigurationError
from teamsim.io.scenario import (
    Scenario,
    default_scenario,
    load_scenario,
    save_scenario,
    scenario_to_dict,
)

from test_golden import GOLDEN, _files_sha
from test_io import TOY_CSV

SYNTH_SPEC = {
    "classes": [
        {
            "work_type": "incident",
            "daily_rate": 2.0,
            "priority_mix": [0.4, 0.4, 0.2],
            "service_mean_hours": [1.5, 3.0, 5.0],
        }
    ],
    "span_days": 200.0,
}


def scenario_with(tmp_path, path, value):
    """The default scenario saved with the value at key path ``path`` replaced."""
    p = tmp_path / "sc.yaml"
    doc = scenario_to_dict(default_scenario())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    p.write_text(yaml.safe_dump(doc))
    return p


def parse_kv(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if "=" in line:
            k, v = line.split("=", 1)
            out[k] = v
    return out


def run_cli(*args, env=None, timeout=120):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "teamsim", *args],
        capture_output=True,
        text=True,
        env=full_env,
        timeout=timeout,
    )


class TestValidate:
    def test_default_scenario_is_valid(self):
        res = run_cli("validate", "default")
        assert res.returncode == 0
        assert "ok" in res.stdout.lower()

    def test_saved_scenario_is_valid(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        assert run_cli("validate", str(p)).returncode == 0

    def test_broken_scenario_exits_one(self, tmp_path):
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        doc = yaml.safe_load(p.read_text())
        doc["generators"][0]["priority_mix"] = [0.9, 0.9, 0.9]
        p.write_text(yaml.safe_dump(doc))
        res = run_cli("validate", str(p))
        assert res.returncode == 1
        assert "priority_mix" in res.stderr

    def test_service_time_source_key_is_unknown(self, tmp_path):
        # the ingest source is chosen by `teamsim fit --service-time-source`
        p = tmp_path / "sc.yaml"
        save_scenario(default_scenario(), p)
        doc = yaml.safe_load(p.read_text())
        doc["service_time_source"] = "touch"
        p.write_text(yaml.safe_dump(doc))
        res = run_cli("validate", str(p))
        assert res.returncode == 1
        assert "unknown keys: service_time_source" in res.stderr
        assert "Traceback" not in res.stderr

    def test_missing_file_exits_two(self, tmp_path):
        res = run_cli("validate", str(tmp_path / "absent.yaml"))
        assert res.returncode == 2

    @pytest.mark.parametrize("command", ["fit", "validate", "synth"])
    def test_undecodable_input_exits_two(self, tmp_path, capsys, command):
        p = tmp_path / "input"
        p.write_bytes(b"\xff\xfe not text\n")
        extra = [str(tmp_path / "out.csv")] if command == "synth" else []
        assert cli.main([command, str(p), *extra]) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("command", ["validate", "synth"])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file"),
            ("- 1\n- 2\n", "expected a mapping, got list"),
            ("a: [1\n", "invalid YAML: "),
        ],
    )
    def test_yaml_file_errors_name_the_file(self, tmp_path, capsys, command, text, message):
        # scenario and synth-spec files share one reader, and so its messages
        p = tmp_path / "doc.yaml"
        p.write_text(text)
        extra = [str(tmp_path / "out.csv")] if command == "synth" else []
        assert cli.main([command, str(p), *extra]) == 1
        assert capsys.readouterr().err.startswith(f"error: {p}: {message}")

    def test_unknown_subcommand_exits_one(self):
        assert run_cli("frobnicate").returncode == 1

    def test_bad_flag_value_exits_one(self):
        res = run_cli("des", "default", "--seed", "many")
        assert res.returncode == 1


class TestNonFiniteKnobs:
    """NaN and infinite DES knobs are rejected when the scenario is validated.

    Each of these once reached the engine: a NaN hours_per_day or switch
    penalty ended in a traceback mid-run, an infinite hours_per_day ran
    with zero-length service, and a non-finite service mean failed only
    at its first draw.
    """

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("des", "hours_per_day"), math.nan, "hours_per_day must be positive and finite"),
            (("des", "hours_per_day"), math.inf, "hours_per_day must be positive and finite"),
            (("des", "switch_penalty_hours"), math.nan, "switch_penalty_hours must be finite"),
            (("des", "rework_service_mean_hours"), math.inf, "rework_service_mean_hours must"),
            (("des", "skill_gap_error_boost"), math.nan, "skill_gap_error_boost must be finite"),
            (("des", "interrupt_base_rate"), math.inf, "interrupt_base_rate must be finite"),
            (("generators", 0, "service_mean_hours", 2), math.inf, "mean for P3 must be finite"),
            (("generators", 1, "service_mean_hours", 0), math.nan, "mean for P1 must be finite"),
            (("generators", 2, "priority_mix", 1), math.nan, "priority_mix: negative or NaN"),
        ],
    )
    def test_rejected_with_a_message(self, tmp_path, capsys, path, value, message):
        p = scenario_with(tmp_path, path, value)
        # a traceback would propagate out of main() and fail the test
        assert cli.main(["des", str(p), "--horizon", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def _scalar_paths(node, path=()):
    """The key path of every scalar in a scenario document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _scalar_paths(child, (*path, key))]


_SCALAR_PATHS = _scalar_paths(scenario_to_dict(default_scenario()))


class TestMalformedValues:
    """Every value is read by its field's declared type: a value of the wrong
    kind exits 1 naming its key path, where it once ended in a traceback or
    was silently coerced, and a numeric string is still a number."""

    @pytest.mark.parametrize(
        "path, value, message",
        [
            # each of these once ended in a traceback
            (("seed",), "abc", "seed: expected int, got 'abc'"),
            (("horizon",), None, "horizon: expected float, got None"),
            (("des", "base_error_prob"), "abc", "des.base_error_prob: expected float, got 'abc'"),
            (("sd_initial", "fatigue"), "x", "sd_initial.fatigue: expected float, got 'x'"),
            (("engineers", 0, "skill_level"), [1], "engineers[0].skill_level: expected int"),
            (("engineers", 0), 5, "engineers[0]: expected a mapping, got 5"),
            (("des",), [1, 2], "des: expected a mapping, got [1, 2]"),
            (("sd",), 5, "sd: expected a mapping, got 5"),
            (("generators", 0, "skill_mix"), 5, "generators[0].skill_mix: expected a list"),
            (("generators", 0, "priority_mix"), "abc", "generators[0].priority_mix: expected a list"),
            # each of these was once silently coerced
            (("replications",), 1.5, "replications: expected int, got 1.5"),
            (("seed",), True, "seed: expected int, got True"),
            (("name",), [1], "name: expected str, got [1]"),
            (("engineers", 0, "id"), 2.7, "engineers[0].id: expected int, got 2.7"),
        ],
    )
    def test_rejected_naming_the_key(self, tmp_path, capsys, path, value, message):
        assert cli.main(["validate", str(scenario_with(tmp_path, path, value))]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "path, value, attr, expected",
        [
            # PyYAML reads 1e17 (no dot) as a string
            (("des", "interrupt_base_rate"), "1e17", "des.interrupt_base_rate", 1e17),
            (("seed",), 7.0, "seed", 7),
            # never through float, which would round it
            (("seed",), 2**63 + 1, "seed", 2**63 + 1),
            (("seed",), "12", "seed", 12),
        ],
    )
    def test_accepted(self, tmp_path, path, value, attr, expected):
        sc = load_scenario(scenario_with(tmp_path, path, value))
        got = operator.attrgetter(attr)(sc)
        assert got == expected and type(got) is type(expected)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("daily_rate", "abc", "classes[0].daily_rate: expected float, got 'abc'"),
            ("classes", [5], "classes[0]: expected a mapping, got 5"),
            ("span_days", "x", "span_days: expected float, got 'x'"),
            ("priority_mix", 7, "classes[0].priority_mix: expected a list, got 7"),
        ],
    )
    def test_synth_spec_rejected_naming_the_key(self, tmp_path, capsys, key, value, message):
        doc = copy.deepcopy(SYNTH_SPEC)
        (doc["classes"][0] if key in doc["classes"][0] else doc)[key] = value
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(doc))
        assert cli.main(["synth", str(spec), str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_synth_spec_takes_an_unquoted_start(self, tmp_path, capsys):
        # PyYAML reads an unquoted timestamp as a datetime
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(SYNTH_SPEC) + "start: 2025-03-01T06:00:00\n")
        out = tmp_path / "out.csv"
        assert cli.main(["synth", str(spec), str(out), "--span", "5"]) == 0
        first = out.read_text().splitlines()[1]
        assert first.startswith("2025-03-0")

    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        path=st.sampled_from(_SCALAR_PATHS),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(),
            st.text(max_size=8),
            st.lists(st.integers(), max_size=3),
            st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
        ),
    )
    def test_any_value_at_any_path_exits_cleanly(self, tmp_path, capsys, path, value):
        # an exception escaping main() fails the test
        rc = cli.main(["validate", str(scenario_with(tmp_path, path, value))])
        err = capsys.readouterr().err
        assert rc == 0 or (rc == 1 and err.startswith("error: ")), (rc, err)


# override path segments: real keys, an empty segment, signed, underscored
# and out-of-range indices, and a segment past a scalar (seed, name, id)
_OVERRIDE_SEGMENTS = [
    "seed", "horizon", "name", "engineers", "generators", "des", "sd", "sd_initial",
    "id", "daily_rate", "skill_mix", "p", "priority_mix", "base_error_prob", "s_base",
    "", "0", "1", "2", "-1", "-5", "+0", "1_0", "99", " 0", "x",
]


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    segments=st.lists(st.sampled_from(_OVERRIDE_SEGMENTS), min_size=1, max_size=5),
    value=st.sampled_from(["1", "0.5", "abc", "[]", "{}", "null"]),
)
@example(segments=["engineers", "-1", "id"], value="9")
@example(segments=[""], value="1")
@example(segments=["sd", ""], value="1")
@example(segments=["generators", "+0", "daily_rate"], value="1")
@example(segments=["generators", "1_0", "daily_rate"], value="1")
def test_any_override_path_exits_cleanly(capsys, segments, value):
    # an exception escaping main() fails the test
    var = "TEAMSIM_" + "__".join(segments).upper()
    with mock.patch.dict(os.environ, {var: value}):
        rc = cli.main(["validate", "default"])
    lines = capsys.readouterr().err.splitlines()
    assert (rc, lines) == (0, []) or (
        rc == 1 and len(lines) == 1 and lines[0].startswith("error: ")
    ), (rc, lines)
    # an empty segment, or a list index that is not decimal digits naming
    # one of the default's four engineers or three generators
    bad_index = (
        segments[0] in ("engineers", "generators")
        and len(segments) > 1
        and segments[1] not in ("0", "1", "2")
    )
    if "" in segments or bad_index:
        assert lines == [f"error: {var}: bad override path"]


class TestDesCommand:
    def test_prints_summary_by_default(self):
        res = run_cli("des", "default", "--horizon", "20")
        assert res.returncode == 0
        doc = parse_kv(res.stdout)
        assert int(doc["arrived_total"]) > 0

    def test_out_directory_and_determinism(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            res = run_cli("des", "default", "--horizon", "30", "--out", str(d))
            assert res.returncode == 0
        for name in ("summary.json", "queue_lengths.csv", "eventlog.ndjson"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("des", "default", "--horizon", "30", "--out", str(d1))
        run_cli("des", "default", "--horizon", "30", "--seed", "99", "--out", str(d2))
        assert (d1 / "summary.json").read_bytes() != (d2 / "summary.json").read_bytes()

    def test_env_override_reaches_engine(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("des", "default", "--horizon", "30", "--out", str(d1))
        run_cli(
            "des", "default", "--horizon", "30", "--out", str(d2),
            env={"TEAMSIM_SEED": "99"},
        )
        assert (d1 / "summary.json").read_bytes() != (d2 / "summary.json").read_bytes()

    def test_one_day_past_the_horizon_bound_exits_one(self, capsys):
        # rejected before the run allocates any day-by-day series
        assert cli.main(["des", "default", "--horizon", str(MAX_DES_DAYS + 1)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: horizon {MAX_DES_DAYS + 1.0!r} covers ")
        assert "Traceback" not in err

    def test_validate_applies_the_horizon_bound(self, tmp_path, capsys):
        # a dt of 2 days keeps the flow model's step count under its own bound
        doc = scenario_to_dict(default_scenario())
        doc.update(horizon=MAX_DES_DAYS + 1, dt=2.0)
        p = tmp_path / "sc.yaml"
        p.write_text(yaml.safe_dump(doc))
        assert cli.main(["validate", str(p)]) == 1
        assert f"covers {MAX_DES_DAYS + 1} days" in capsys.readouterr().err

    def test_replications_merge(self):
        res = run_cli("des", "default", "--horizon", "10", "--reps", "2")
        assert res.returncode == 0
        assert parse_kv(res.stdout)["replications"] == "2"


class TestSdCommand:
    def test_dt_above_the_horizon_is_one_rule_for_every_source(self, tmp_path, monkeypatch, capsys):
        # the flag, the environment, a scenario file and run_sd all meet it
        message = "dt must lie in (0, horizon], got 200.0"
        assert cli.main(["sd", "default", "--dt", "200"]) == 1
        assert cli.main(["sd", "default", "--horizon", "20", "--dt", "20.5"]) == 1
        doc = scenario_to_dict(default_scenario())
        doc["dt"] = 200.0
        path = tmp_path / "s.yaml"
        path.write_text(yaml.safe_dump(doc))
        assert cli.main(["validate", str(path)]) == 1
        monkeypatch.setenv("TEAMSIM_DT", "200")
        for command in ("validate", "sd", "hybrid"):
            assert cli.main([command, "default"]) == 1
        err = capsys.readouterr().err.splitlines()
        short = "error: dt must lie in (0, horizon], got 20.5"
        assert err == [f"error: {message}", short, *[f"error: {message}"] * 4]
        sc = default_scenario()
        with pytest.raises(ConfigurationError, match=r"^dt must lie in \(0, horizon\], got 200.0$"):
            teamsim.sd.run_sd(sc.sd_initial, sc.sd_params, 126.0, 200.0)
        # a dt equal to the horizon is one step
        assert len(teamsim.sd.run_sd(sc.sd_initial, sc.sd_params, 20.0, 20.0)) == 2

    def test_prints_final_state(self):
        res = run_cli("sd", "default", "--horizon", "20")
        assert res.returncode == 0
        doc = parse_kv(res.stdout)
        assert "final.project_backlog" in doc
        assert doc["clamp_events"] == "0"

    def test_out_files(self, tmp_path):
        res = run_cli("sd", "default", "--horizon", "20", "--out", str(tmp_path))
        assert res.returncode == 0
        assert (tmp_path / "trajectory.csv").exists()

    def test_step_bound_exits_one_before_any_step(self, monkeypatch, capsys):
        # a run keeps every step, so 1e300 steps would grow until memory ran out
        def no_step(*args):
            raise AssertionError("a flow-model step ran")

        monkeypatch.setattr(teamsim.sd, "_step_values", no_step)
        assert cli.main(["sd", "default", "--dt", "1e-300", "--horizon", "1"]) == 1
        # validation rejects what a hybrid run would
        monkeypatch.setenv("TEAMSIM_DT", "1e-300")
        assert cli.main(["validate", "default"]) == 1
        assert cli.main(["hybrid", "default", "--cycles", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("flow-model steps, more than the 1000000 allowed") == 3

    @pytest.mark.parametrize(
        "argv", [("hybrid", "default", "--cycles", "1"), ("sd", "default", "--out", "{out}")]
    )
    def test_a_column_whose_sum_overflows_reports_a_finite_mean(self, tmp_path, argv):
        # every fatigue value is finite, but their sum is not: the mean of the
        # column was once an OverflowError traceback out of math.fsum
        args = [a.format(out=tmp_path / "o") for a in argv]
        res = run_cli(*args, env={"TEAMSIM_SD_INITIAL__FATIGUE": "1e308"})
        assert res.returncode == 0 and res.stderr == ""
        if argv[0] == "hybrid":
            assert res.stdout.splitlines()[-1] == "converged=false cycles=1"
            return
        doc = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert 1e306 < doc["mean_fatigue"] < 1e308
        assert all(math.isfinite(doc[k]) for k in doc if k.startswith("mean_"))


def test_importing_the_entry_module_runs_nothing():
    # only `python -m teamsim` runs the command line; a tool or a spawned
    # process that imports the module must not
    res = subprocess.run(
        [sys.executable, "-c", "import teamsim.__main__"], capture_output=True, text=True, timeout=60
    )
    assert (res.returncode, res.stdout, res.stderr) == (0, "", "")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["validate", "default"], ["des", "default"]], ids=["validate", "des"])
def test_closed_stdout_exits_two_without_a_traceback(argv, buffered):
    # stdout is a pipe whose read end is already closed: unbuffered, the
    # first print fails inside main; buffered, every print lands in the
    # buffer and the flush at the console_main boundary fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        res = subprocess.run(
            [sys.executable, "-m", "teamsim", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert res.stderr == "i/o error: [Errno 32] Broken pipe\n"


def test_the_console_command_runs_through_the_boundary():
    # the installed `teamsim` command gets the same closed-stdout handling
    # as `python -m teamsim`
    project = tomllib.loads((Path(__file__).resolve().parent.parent / "pyproject.toml").read_text())
    assert project["project"]["scripts"] == {"teamsim": "teamsim.cli:console_main"}


class TestHybridCommand:
    def test_single_cycle_smoke(self, tmp_path):
        res = run_cli(
            "hybrid", "default", "--cycles", "1", "--out", str(tmp_path)
        )
        assert res.returncode == 0
        doc = json.loads((tmp_path / "cycles.json").read_text())
        assert doc["n_cycles"] == 1

    def test_interrupt_rate_that_would_stall_the_clock_exits_one(self):
        # cycle 0 feeds back an interrupt rate near 1e17 a day, at which the
        # next interrupt rounds onto the current time; it used to hang here
        env = {"TEAMSIM_DES__INTERRUPT_BASE_RATE": "1e17", "TEAMSIM_HORIZON": "20"}
        res = run_cli("hybrid", "default", "--cycles", "2", env=env, timeout=30)
        assert res.returncode == 1
        assert "interrupt_rate" in res.stderr
        assert "Traceback" not in res.stderr


class TestRunFlags:
    """Each run-setting flag sets one Scenario field: it goes into the
    scenario document after the ``TEAMSIM_*`` overrides, so a flag and its
    variable are one value, read and validated by one rule."""

    def test_each_flag_names_a_scenario_field(self):
        assert set(cli._RUN_FLAGS.values()) <= {f.name for f in fields(Scenario)}

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("des", {"seed": "7", "horizon": "40", "reps": "2"}),
            ("sd", {"horizon": "40", "dt": "0.5"}),
            ("hybrid", {"cycles": "2", "tol": "1e-9", "seed": "4"}),
        ],
    )
    def test_a_flag_runs_as_its_field_override(self, monkeypatch, capsys, command, flags):
        argv = [command, "default"]
        for flag, value in flags.items():
            argv += [f"--{flag}", value]
        assert cli.main(argv) == 0
        by_flags = capsys.readouterr().out
        for flag, value in flags.items():
            monkeypatch.setenv(f"TEAMSIM_{cli._RUN_FLAGS[flag].upper()}", value)
        assert cli.main([command, "default"]) == 0
        assert capsys.readouterr().out == by_flags
        # the flags moved the run off the scenario's own settings
        for flag in flags:
            monkeypatch.delenv(f"TEAMSIM_{cli._RUN_FLAGS[flag].upper()}")
        assert cli.main([command, "default"]) == 0
        assert capsys.readouterr().out != by_flags

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("des", "horizon", "0.1"),
            ("des", "horizon", str(MAX_DES_DAYS + 1)),
            ("des", "reps", "0"),
            ("hybrid", "cycles", "0"),
            ("hybrid", "tol", "0"),
            ("sd", "dt", "200"),
        ],
    )
    def test_a_bad_setting_is_one_error_from_either_source(
        self, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        # rejected before --out is created, with one message, and validate
        # rejects what the run would
        out = tmp_path / "out"
        assert cli.main([command, "default", f"--{flag}", value, "--out", str(out)]) == 1
        monkeypatch.setenv(f"TEAMSIM_{cli._RUN_FLAGS[flag].upper()}", value)
        assert cli.main([command, "default", "--out", str(out)]) == 1
        assert cli.main(["validate", "default"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 3 and lines[0].startswith("error: ") and set(lines) == {lines[0]}
        assert captured.out == ""
        assert not out.exists()


class TestCliSurface:
    """Each subcommand takes exactly the arguments its usage line shows, so an
    option added or dropped fails a test.  No command takes ``--format``:
    every report file has one encoding."""

    USAGE = {
        None: "teamsim [-h] {fit,synth,des,sd,hybrid,validate} ...",
        "fit": "teamsim fit [-h] [--service-time-source {touch,elapsed}] [--out OUT] tickets",
        "synth": "teamsim synth [-h] [--seed SEED] [--span SPAN] spec out",
        "des": "teamsim des [-h] [--seed SEED] [--horizon HORIZON] [--reps REPS] [--out OUT] scenario",
        "sd": "teamsim sd [-h] [--horizon HORIZON] [--dt DT] [--out OUT] scenario",
        "hybrid": "teamsim hybrid [-h] [--cycles CYCLES] [--tol TOL] [--seed SEED] [--out OUT] scenario",
        "validate": "teamsim validate [-h] scenario",
    }

    @pytest.mark.parametrize("command", list(USAGE))
    def test_each_subcommand_takes_exactly_its_options(self, capsys, command):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "-h"] if command else ["-h"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        # argparse wraps the usage line to the terminal width
        assert " ".join(usage.split()) == f"usage: {self.USAGE[command]}"

    @pytest.mark.parametrize(
        "argv",
        [["fit", "{tickets}"], ["des", "default"], ["sd", "default"], ["hybrid", "default"]],
        ids=["fit", "des", "sd", "hybrid"],
    )
    def test_format_is_a_usage_error(self, tmp_path, capsys, argv):
        tickets = tmp_path / "tickets.csv"
        tickets.write_text(TOY_CSV)
        out = tmp_path / "out"
        args = [a.format(tickets=tickets) for a in argv]
        assert cli.main([*args, "--format", "json", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()


class TestOutDirectory:
    """``--out`` is created before the first run; each run's event log is
    written when that run ends, and only the files written are listed."""

    @pytest.mark.parametrize("command", ["des", "hybrid"])
    def test_out_is_a_regular_file_exits_two(self, tmp_path, command):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        res = run_cli(command, "default", "--out", str(target))
        assert res.returncode == 2
        assert res.stderr.startswith("i/o error:") and "File exists" in res.stderr
        assert "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "command, runner", [("des", "run_des_replicated"), ("hybrid", "run_hybrid")]
    )
    def test_unusable_out_fails_before_any_run(self, tmp_path, monkeypatch, command, runner):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation started before --out was created")

        monkeypatch.setattr(cli, runner, no_run)
        target = tmp_path / "taken"
        target.write_text("")
        assert cli.main([command, "default", "--out", str(target)]) == 2

    def test_hybrid_logs_match_golden_and_stale_files_are_not_listed(self, tmp_path):
        (tmp_path / "eventlog_cycle5.ndjson").write_text("stale\n")
        res = run_cli("hybrid", "default", "--cycles", "2", "--tol", "1e-12", "--out", str(tmp_path))
        assert res.returncode == 0
        names = ["cycles.json", "diff_p1.csv", "diff_p2.csv", "diff_p3.csv",
                 "eventlog_cycle0.ndjson", "eventlog_cycle1.ndjson"]
        assert res.stdout.splitlines() == [str(tmp_path / n) for n in names]
        logs = [tmp_path / n for n in names if n.startswith("eventlog")]
        assert _files_sha(logs) == GOLDEN["hybrid-eventlog-ndjson"]

    def test_des_replication_logs_match_golden(self, tmp_path):
        res = run_cli("des", "default", "--reps", "2", "--out", str(tmp_path))
        assert res.returncode == 0
        names = ["summary.json", "queue_lengths.csv", "eventlog_rep0.ndjson", "eventlog_rep1.ndjson"]
        assert res.stdout.splitlines() == [str(tmp_path / n) for n in names]
        assert _files_sha(tmp_path.glob("eventlog_rep*.ndjson")) == GOLDEN["des-report-reps"]

    def test_single_replication_writes_eventlog_ndjson(self, tmp_path):
        res = run_cli("des", "default", "--reps", "1", "--horizon", "20", "--out", str(tmp_path))
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == str(tmp_path / "eventlog.ndjson")
        assert not list(tmp_path.glob("eventlog_rep*"))

    def test_memory_holds_one_cycle_log(self, tmp_path, monkeypatch, capsys):
        # the peak must not grow with the number of cycles whose logs are written
        monkeypatch.setenv("TEAMSIM_HORIZON", "400")

        def peak(cycles: int) -> int:
            out = tmp_path / f"c{cycles}"
            tracemalloc.start()
            try:
                rc = cli.main(["hybrid", "default", "--cycles", str(cycles), "--tol", "1e-12",
                               "--out", str(out)])
                _, top = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rc == 0 and (out / f"eventlog_cycle{cycles - 1}.ndjson").exists()
            return top

        two, six = peak(2), peak(6)
        capsys.readouterr()
        assert six <= 1.5 * two, f"peak {six / 1e6:.2f} MB for 6 cycles, {two / 1e6:.2f} MB for 2"


class TestSynthAndFit:
    def test_synth_then_fit(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(SYNTH_SPEC))
        out_csv = tmp_path / "tickets.csv"
        res = run_cli("synth", str(spec), str(out_csv), "--seed", "4")
        assert res.returncode == 0
        assert out_csv.exists()

        fit = run_cli("fit", str(out_csv))
        assert fit.returncode == 0
        total = 0.0
        for line in fit.stdout.splitlines():
            if line.startswith("incident,"):
                part = next(p for p in line.split(",") if p.startswith("rate_per_day="))
                value = part.split("=", 1)[1]
                if value != "none":
                    total += float(value)
        assert total == pytest.approx(2.0, rel=0.2)

    def test_synth_deterministic_across_processes(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(SYNTH_SPEC))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("synth", str(spec), str(a), "--seed", "4")
        run_cli("synth", str(spec), str(b), "--seed", "4")
        assert a.read_bytes() == b.read_bytes()

    def test_fit_missing_file_exits_two(self, tmp_path):
        assert run_cli("fit", str(tmp_path / "none.csv")).returncode == 2

    def test_fit_to_directory(self, tmp_path):
        spec = tmp_path / "spec.yaml"
        spec.write_text(yaml.safe_dump(SYNTH_SPEC))
        out_csv = tmp_path / "tickets.csv"
        run_cli("synth", str(spec), str(out_csv))
        res = run_cli("fit", str(out_csv), "--out", str(tmp_path / "fits"))
        assert res.returncode == 0
        assert (tmp_path / "fits" / "fits.json").exists()

    def test_fit_warns_of_dropped_zero_gaps_on_stderr(self, tmp_path):
        # the ticket reader loads only when fit runs; its warnings still reach
        # stderr through logging's last-resort handler
        p = tmp_path / "tickets.csv"
        p.write_text(TOY_CSV + "2025-01-06T09:00:00,2025-01-06T12:00:00,incident,P1,team-core,1.0\n")
        res = run_cli("fit", str(p))
        assert res.returncode == 0
        assert res.stderr == f"{p}: incident/P1: dropped 1 zero gaps\n"
