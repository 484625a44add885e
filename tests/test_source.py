"""Static checks of the package source."""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "blowup_rigidity"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py"))
# the module that makes the records of each stage, by check-id prefix
STAGE_MODULES = {"config": "fieldgeom.py", "lattice": "lattice.py", "cone": "cone.py",
                 "rigidity": "rigidity.py", "vectorfields": "vectorfields.py"}


def layout_modules(readme: str) -> list[str]:
    """The module names listed under src/blowup_rigidity/ in the README's
    Layout block, in order."""
    block = readme.split("## Layout", 1)[1].split("```")[1]
    package = block.split("src/blowup_rigidity/\n", 1)[1].split("tests/", 1)[0]
    return re.findall(r"^  (\w+\.py) ", package, flags=re.MULTILINE)


def test_layout_modules_reads_the_block():
    readme = ("# x\n## Layout\n\n```\nsrc/blowup_rigidity/\n"
              "  a.py     one\n           more text.py here\n  b.py     two\n"
              "tests/   pytest\n```\n")
    assert layout_modules(readme) == ["a.py", "b.py"]


def test_readme_layout_names_every_module():
    listed = layout_modules((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(listed) == [name for name in MODULES if name != "__init__.py"]


def readme_salts(readme: str) -> list[tuple[str, str]]:
    """The (salt, drawn in) rows of the README's salt table, with each
    `<name>` placeholder written as `<>`."""
    table = readme.split("| salt | check | drawn in |", 1)[1].split("\n\n", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \|[^|]+\| `([^`]+)` \|$", table, flags=re.MULTILINE)
    return sorted((re.sub(r"<\w+>", "<>", salt), where) for salt, where in rows)


def source_salts(sources: dict[str, str]) -> list[tuple[str, str]]:
    """The salt of every config_seed call in the sources (module name ->
    text) with the module.function, a top-level function, that makes it; a
    formatted value in an f-string salt is written as `<>`."""
    found = []
    for module, text in sources.items():
        for fn in ast.parse(text).body:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "config_seed":
                    salt = node.args[1]
                    parts = salt.values if isinstance(salt, ast.JoinedStr) else [salt]
                    rendered = "".join(
                        p.value if isinstance(p, ast.Constant) else "<>" for p in parts)
                    found.append((rendered, f"{module}.{fn.name}"))
    return sorted(found)


def test_salt_readers_read_both_sides():
    readme = ("x\n| salt | check | drawn in |\n|---|---|---|\n"
              "| `a` | `m.a` | `m.f` |\n| `b=<q>` | `m.b` at q | `n.g` |\n\nmore\n")
    assert readme_salts(readme) == [("a", "m.f"), ("b=<>", "n.g")]
    source = ("def f(c):\n    return config_seed(c, 'a')\n\n"
              "def g(c, q2):\n    return config_seed(c, f'b={q2}')\n")
    assert source_salts({"m": source}) == [("a", "m.f"), ("b=<>", "m.g")]


def test_readme_salt_table_lists_every_salt_drawn():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert readme_salts(readme) == source_salts(sources)


def unused_imports(source: str) -> list[str]:
    """The names bound by top-level imports that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_detects_a_leftover():
    assert unused_imports("import os\nimport sys\nos.getpid()\n") == ["sys"]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def asserts(source: str) -> list[int]:
    """The line numbers of the module's `assert` statements."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_asserts_detects_an_assert():
    assert asserts("def f(x):\n    assert x > 0\n    return x\n") == [2]


@pytest.mark.parametrize("module", MODULES)
def test_no_assert_in_package(module):
    # `python -O` strips assert, so no verdict or guard may rest on one
    assert asserts((PACKAGE / module).read_text(encoding="utf-8")) == []


def unreferenced_definitions(defining: dict[str, str], reading: list[str]) -> list[str]:
    """The non-dunder functions and classes defined in the `defining`
    sources (file name -> text) that no source in `defining` or `reading`
    names outside their own definition, as "<file name>:<name>".

    A name counts where the code reads it, as a name or an attribute, and
    inside any string that is not a docstring, such as a trace target; a
    definition's calls to itself do not count."""
    used: set[str] = set()
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(node, inside: frozenset, docstring=None) -> None:
        if isinstance(node, scopes):
            if node.body and isinstance(node.body[0], ast.Expr):
                docstring = node.body[0].value
            if not isinstance(node, ast.Module):
                inside = inside | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node is not docstring:
                used.update(re.findall(r"\w+", node.value))
        if name is not None and name not in inside:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside, docstring)

    defined = []
    for source, text in defining.items():
        tree = ast.parse(text)
        defined += [(source, node.name) for node in ast.walk(tree)
                    if isinstance(node, scopes[1:])
                    and not (node.name.startswith("__") and node.name.endswith("__"))]
        visit(tree, frozenset())
    for text in reading:
        visit(ast.parse(text), frozenset())
    return [f"{source}:{name}" for source, name in defined if name not in used]


def test_unreferenced_definitions_detects_a_leftover():
    defining = {"m.py": (
        "class Kept:\n"
        "    def read(self):\n"
        "        'helper and traced named in a docstring'\n"
        "        return 1\n\n"
        "def helper(n):\n"
        "    return helper(n - 1) if n else Kept().read()\n\n"
        "def traced():\n"
        "    return 0\n")}
    assert unreferenced_definitions(defining, []) == ["m.py:helper", "m.py:traced"]
    assert unreferenced_definitions(defining, ["TARGETS = ['m.traced']\nhelper(2)\n"]) == []


def test_every_package_definition_is_named_in_the_program():
    # a function or class that only the tests use belongs in the tests
    defining = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    reading = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))]
    assert unreferenced_definitions(defining, reading) == []


def record_ids(source: str) -> list[str | None]:
    """The check id of every make_record call, or None where it is not a
    string literal."""
    return [
        node.args[0].value
        if node.args and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str) else None
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "make_record"
    ]


def test_record_ids_finds_every_call():
    source = 'make_record("cone.phi_positive", PASS, 1, 1)\nmake_record(cid, FAIL, 0, 1)\n'
    assert record_ids(source) == ["cone.phi_positive", None]


@pytest.mark.parametrize("module", MODULES)
def test_records_are_made_in_their_stage_module(module):
    # a stage's claims are checked in that stage's module
    ids = record_ids((PACKAGE / module).read_text(encoding="utf-8"))
    assert [cid for cid in ids
            if cid is None or STAGE_MODULES.get(cid.partition(".")[0]) != module] == []


def test_trace_targets_resolve(monkeypatch):
    # a target the trace cannot find only warns, and its spans then read 0;
    # perfbench/ is only read, so no bytecode cache is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_trace",
                                                  ROOT / "perfbench" / "trace.py")
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    for modname, attr, _ in trace.TARGETS:
        *classes, name = attr.split(".")
        owner = importlib.import_module(f"blowup_rigidity.{modname}")
        for cls in classes:
            owner = getattr(owner, cls)
        # trace.py wraps only what the module or class itself defines
        assert callable(vars(owner).get(name)), f"{modname}.{attr}"
    report = importlib.import_module("blowup_rigidity.report")
    for modname, name in [("lattice", "lattice_checks"), ("cone", "cone_checks"),
                          ("vectorfields", "extra_q_vanishing")]:
        module = importlib.import_module(f"blowup_rigidity.{modname}")
        assert getattr(report, name) is getattr(module, name)


# the work counters each traced subcommand must report on C0
TRACE_COUNTERS = {
    "verify": {"cone.generators", "vectorfields.kernel_rows", "vectorfields.kernel_rank"},
    "rigidity": {"rigidity.group_elements"},
    "vector-fields": {"vectorfields.kernel_rows", "vectorfields.kernel_rank"},
}


@pytest.mark.parametrize("command", sorted(TRACE_COUNTERS))
def test_traced_run_finds_every_target_and_counter(command, tmp_path):
    # a counter reads attributes of a traced call's arguments or result, so
    # a renamed attribute would crash a traced run that only resolving the
    # targets does not reach; -B leaves no bytecode cache under perfbench/
    config = tmp_path / "c0.json"
    config.write_text(json.dumps({"n": 2, "r": 2, "s": [2, 3], "q": 13,
                                  "base": [[1, 2], [3, 4, 5]]}))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "perfbench" / "trace.py"), str(spans), "C0", "cli",
         command, "--config", str(config), "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans.read_text())
    assert trace["missing"] == []
    assert TRACE_COUNTERS[command] <= set(trace["counts"])
