"""Every import in the package, the tests and the scripts is read, and
every function under ``src/`` is reached by a command.

An AST scan: a name an import binds must appear as a name somewhere in its
module, or in the module's ``__all__``, or inside a string annotation.
``from __future__`` imports change how a module compiles and bind nothing
to read, so they are exempt.
"""
import ast
import subprocess
import sys
from functools import partial
from pathlib import Path

import yaml

from teamsim import cli
from teamsim.io.scenario import default_scenario, scenario_to_dict

from test_cli import SYNTH_SPEC
from test_scripts import _run

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "scripts")


def _imported(tree: ast.Module) -> dict[str, int]:
    # bound name -> line of its import
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree: ast.Module) -> set[str]:
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            annotations += [a.annotation for a in every if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                read.update(_read(ast.parse(ann.value, mode="eval")))
    return read


def test_no_import_goes_unread():
    unread = []
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            read = _read(tree)
            unread += [
                f"{path.relative_to(ROOT)}:{line} {name}"
                for name, line in _imported(tree).items()
                if name not in read
            ]
    assert not unread, "imports never read:\n" + "\n".join(unread)


def _bound(tree: ast.Module) -> set[str]:
    # names a module binds at its top level, by import, assignment or definition
    names = set(_imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_each_name_has_one_import_path():
    # a public name is imported from the module that defines it; the
    # packages re-export none, so no second import path grows back
    expected = {"src/teamsim/__init__.py": {"__version__"}, "src/teamsim/io/__init__.py": set()}
    bound = {rel: _bound(ast.parse((ROOT / rel).read_text())) for rel in expected}
    assert bound == expected


def test_scenarios_load_through_one_loader():
    # the CLI takes nothing but load_scenario from the scenario module, and
    # the scripts load through the CLI's scenario_from_args, which applies
    # their run-setting flags, so no second way to load 'default' grows back
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    taken = {}
    for path in [ROOT / "src/teamsim/cli.py", *scripts]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(
                ("io.scenario", "teamsim.cli")
            ):
                taken.setdefault(path.relative_to(ROOT).as_posix(), set()).update(
                    alias.name for alias in node.names
                )
    expected = {"src/teamsim/cli.py": {"load_scenario"}}
    expected.update(
        (path.relative_to(ROOT).as_posix(), {"console_main", "scenario_from_args"})
        for path in scripts
    )
    assert taken == expected


def test_the_tracer_finds_every_name_it_wraps():
    # perfbench/tracing.py (``perfbench/run.py --trace 1``) rebinds package
    # functions and methods by name, so renaming or deleting one under src/
    # breaks its install; run it in a child so the patches die with it
    code = (
        "import sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import teamsim.cli\n"
        "from tracing import Tracer\n"
        "Tracer('t').install()\n"
    )
    res = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
    )
    assert res.returncode == 0, res.stderr


# Functions under src/ that no command reaches, each kept for a reason.
UNREACHED = {
    "teamsim/domain.py::WorkQueue.__len__":
        "perfbench/tracing.py reads it after each push for domain.queue.peak_len",
    "teamsim/des.py::EventCalendar.__len__":
        "perfbench/tracing.py reads it after each push for des.calendar.peak_len",
    "teamsim/io/scenario.py::save_scenario": "the README documents it as API",
    "teamsim/sd.py::mass_residuals": "the mass-balance audit that C6 and test_sd call",
}


def _defs(src: Path) -> dict[tuple[str, int], str]:
    # (file, first line of its code object) -> "file::qualname" for every
    # def under src; a decorated function's code starts at its first decorator
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = (
                    f"{path.relative_to(src).as_posix()}::{prefix}{child.name}"
                )
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text()), path.resolve(), "")
    return found


def _small_scenario(path: Path) -> Path:
    # 30 days; the incident generator also asks for 'ml', a catalogued skill
    # no engineer holds, so items dead-letter; no 'sd' arrivals, so the
    # loader sums them from the generators
    doc = scenario_to_dict(default_scenario())
    doc.update(horizon=30.0, name="small")
    doc["des"]["skill_types"] = ["core", "ml"]
    mix = doc["generators"][2]["skill_mix"]
    mix[-1]["p"] = 0.15
    mix.append({"p": 0.2, "skill_type": "ml", "skill_level": 1})
    del doc["sd"]["project_arrivals"], doc["sd"]["ops_arrivals"]
    path.write_text(yaml.safe_dump(doc))
    return path


def test_every_function_under_src_is_reached_by_a_command(tmp_path, monkeypatch, capsys):
    scenario = str(_small_scenario(tmp_path / "small.yaml"))
    bad_key = tmp_path / "bad.yaml"
    bad_key.write_text("horizon: 30\nno_such_key: 1\n")
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(SYNTH_SPEC))
    tickets = str(tmp_path / "tickets.csv")
    out = tmp_path / "out"

    def command(*argv):
        return partial(cli.main, list(argv))

    def script(name, *args):
        return partial(_run, name, list(args), monkeypatch)

    calls = [  # (process entry, exit code)
        (command("validate", "default"), 0),
        (command("validate", scenario), 0),
        (command("des", scenario), 0),
        (command("des", scenario, "--reps", "2"), 0),
        (command("des", scenario, "--out", str(out / "des1")), 0),
        (command("des", scenario, "--reps", "2", "--out", str(out / "des2")), 0),
        (command("sd", scenario), 0),
        (command("sd", scenario, "--out", str(out / "sd")), 0),
        (command("hybrid", scenario, "--cycles", "2"), 0),
        (command("hybrid", scenario, "--cycles", "2", "--out", str(out / "hybrid")), 0),
        (command("synth", str(spec), tickets, "--span", "30"), 0),
        (command("fit", tickets), 0),
        (command("fit", tickets, "--out", str(out / "fit")), 0),
        (command("fit", tickets, "--service-time-source", "elapsed"), 0),
        (command("des"), 1),
        (command("validate", str(bad_key)), 1),
        (script("run_baseline.py", "--scenario", scenario, "--reps", "1", "--out", str(out)), 0),
        (script("run_loop_demo.py", "--scenario", scenario, "--cycles", "2", "--out", str(out)), 0),
    ]
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # a cached function that an earlier test called answers from its cache
    # without a call the profiler sees
    for name, module in list(sys.modules.items()):
        if name.startswith("teamsim"):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    exits = []
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for entry, _ in calls:
            exits.append(cli.console_main(entry))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert exits == [code for _, code in calls]

    defs = _defs(ROOT / "src")
    hit = {defs.get((str(Path(f).resolve()), line)) for f, line in reached}
    unreached = set(defs.values()) - hit
    stale = {name for name in UNREACHED if name not in defs.values() or name in hit}
    assert not stale, f"allow-list entries reached or naming no def: {sorted(stale)}"
    missed = sorted(unreached - set(UNREACHED))
    assert not missed, f"not reached by any command: {missed}"
