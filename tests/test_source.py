"""Rules about the package source itself."""

import ast
import os
import shlex
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import sepfacets
from sepfacets import cli

SRC = Path(__file__).resolve().parent.parent / "src" / "sepfacets"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so correctness checks in the
    # package must raise explicitly
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_quick_start_runs():
    # the package exports exactly what this block imports, so it fails if
    # __init__.py drops a name that README uses
    readme = (SRC.parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    namespace: dict = {}
    values = []
    for stmt in tree.body:
        if isinstance(stmt, ast.Expr):
            values.append(eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert len(values) == 5
    assert values[0] == 180
    assert values[1] == 46656 == 6**6
    assert values[2] == 32
    assert len(values[3]) == 6
    assert values[4] == 180
    imported = {a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names}
    exported = {
        name for name, value in vars(sepfacets).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert exported == imported


def test_package_import_loads_no_heavy_stdlib_modules():
    # every run, and every benchmark probe, pays for importing the package
    # before any work: dataclasses alone pulls in inspect, ast, dis and
    # tokenize, and datetime and typing are needed by no hot path.  -S keeps
    # site and its .pth hooks out of the child.
    modules = sorted(f"sepfacets.{p.stem}" for p in SRC.glob("*.py") if p.stem != "__init__")
    heavy = ["dataclasses", "inspect", "datetime", "typing"]
    code = (f"import sys\nfor m in {modules!r}: __import__(m)\n"
            f"print([m for m in {heavy!r} if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_readme_command_lines_parse():
    # every command in README's command-line block goes through the real
    # parser (and only the parser), so the docs cannot spell an option the
    # CLI refuses
    readme = (SRC.parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10 and all(argv[0] == "sepfacets" for argv in commands)
    for argv in commands:
        cli._build_parser().parse_args(argv[1:])


def test_no_hidden_inputs_in_src():
    # what a run computes and writes depends on its argv alone: no module
    # reads the environment or the wall-clock date
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            found += [f"{path.name}:{node.lineno}:{name}" for name in names
                      if name.split(".")[0] in ("datetime", "environ", "getenv", "environb", "getenvb")]
    assert found == []


def test_every_src_import_is_used():
    # the project runs no linter, so a deletion could leave a dead import:
    # each name a module binds by import must be read somewhere in it
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno}:{name}" for name in
                          (a.asname or a.name.split(".")[0] for a in node.names) if name not in used]
    assert found == []


def test_every_private_src_definition_is_used():
    # a private top-level function or class serves only src, so once a
    # deletion leaves it unreferenced by any module it is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    found = [f"{name}:{node.lineno}:{node.name}" for name, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")
             and node.name not in used]
    assert found == []
