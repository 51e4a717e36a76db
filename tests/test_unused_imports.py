"""Two rules on the imports of the package's modules:

- every name a module imports is used in that module, named in its
  __all__, or marked `# noqa: F401` on the import's line;
- no import runs inside a function, unless LAZY_IMPORTS names the function
  with the reason it stays: an import statement runs again on every call,
  even when its module is loaded, so one on a per-record path is paid per
  record."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "autoscore"

# (module, function) -> why the function imports when it is first called
LAZY_IMPORTS = {
    ("backend", "_default_transport"):
        "http.client and urllib.request cost about 16 ms to import (13.5 ms and "
        "2.4 ms), which a run that never reaches a remote model does not pay",
}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # bound name -> line number
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation ("Score | None") names what it uses
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_guard_flags_an_unused_import_and_honours_noqa():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import re  # noqa: F401\n"
        "from json import dumps, loads\n"
        "x: 'loads' = None\n"
    )
    assert unused_imports(source) == ["dumps (line 4)", "os (line 2)"]


def function_imports(source: str) -> dict[int, str]:
    """Line of each import inside a function -> the innermost such function."""
    owner = {}
    # breadth first, so a function nested in another is visited after it
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, (ast.Import, ast.ImportFrom)):
                    owner[inner.lineno] = node.name
    return owner


def test_no_import_inside_a_function():
    found, lazy = [], set()
    for module in sorted(PACKAGE.glob("*.py")):
        for line, function in function_imports(module.read_text(encoding="utf-8")).items():
            if (module.stem, function) in LAZY_IMPORTS:
                lazy.add((module.stem, function))
            else:
                found.append(f"{module.name}:{line} in {function}")
    assert found == []
    assert lazy == set(LAZY_IMPORTS)  # an allowance nothing needs goes too


def test_guard_names_the_innermost_function_of_an_import():
    source = (
        "import json\n"
        "def outer():\n"
        "    import os\n"
        "    def inner():\n"
        "        from re import match\n"
        "class Record:\n"
        "    @classmethod\n"
        "    def from_dict(cls):\n"
        "        from .schema import Rep\n"
    )
    assert function_imports(source) == {3: "outer", 5: "inner", 9: "from_dict"}
