"""Every import in the package, the tests and the scripts is read.

An AST scan: a name an import binds must appear as a name somewhere in its
module, or in the module's ``__all__``, or inside a string annotation.
``from __future__`` imports change how a module compiles and bind nothing
to read, so they are exempt.
"""
import ast
import subprocess
import sys
from pathlib import Path

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
    # the CLI and the scripts take nothing but load_scenario from the
    # scenario module, so no second way to load 'default' grows back
    paths = [ROOT / "src/teamsim/cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
    taken = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("io.scenario"):
                taken.setdefault(path.relative_to(ROOT).as_posix(), set()).update(
                    alias.name for alias in node.names
                )
    assert taken == {path.relative_to(ROOT).as_posix(): {"load_scenario"} for path in paths}


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
