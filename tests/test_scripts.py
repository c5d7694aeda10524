"""Smoke tests of the example scripts under ``scripts/``."""
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _run(script, args, monkeypatch):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args])
    return module.main()


@pytest.mark.parametrize(
    "script, args", [("run_baseline.py", ["--reps", "2"]), ("run_loop_demo.py", ["--cycles", "2"])]
)
def test_script_writes_the_files_it_counts(script, args, tmp_path, monkeypatch, capsys):
    assert _run(script, [*args, "--out", str(tmp_path)], monkeypatch) == 0
    printed = re.search(r"wrote (\d+) files under", capsys.readouterr().out)
    on_disk = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert int(printed.group(1)) == len(on_disk) > 0


def test_env_overrides_apply_to_the_default_scenario(tmp_path, monkeypatch, capsys):
    # the scripts load 'default' as the CLI does, TEAMSIM_* overrides included
    monkeypatch.setenv("TEAMSIM_SEED", "7")
    assert _run("run_baseline.py", ["--reps", "1", "--out", str(tmp_path)], monkeypatch) == 0
    assert "seed 7 ==" in capsys.readouterr().out


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "script, args", [("run_baseline.py", ["--reps", "1"]), ("run_loop_demo.py", ["--cycles", "1"])]
)
def test_closed_stdout_exits_two_without_a_traceback(script, args, buffered, tmp_path):
    # stdout is a pipe whose read end is already closed: unbuffered, the first
    # print fails; buffered, the flush after main does
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        res = subprocess.run(
            [sys.executable, str(SCRIPTS / script), *args, "--out", str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr and "Exception ignored" not in res.stderr
    assert "i/o error: [Errno 32] Broken pipe" in res.stderr
