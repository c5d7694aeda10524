"""Smoke tests of the example scripts under ``scripts/``."""
import importlib.util
import re
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "script, args", [("run_baseline.py", ["--reps", "2"]), ("run_loop_demo.py", ["--cycles", "2"])]
)
def test_script_writes_the_files_it_counts(script, args, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args, "--out", str(tmp_path)])
    assert module.main() == 0
    printed = re.search(r"wrote (\d+) files under", capsys.readouterr().out)
    on_disk = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert int(printed.group(1)) == len(on_disk) > 0
