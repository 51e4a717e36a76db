"""Every top-level function, class and constant of the package is referenced
somewhere in the package besides its own definition, or is on ALLOWED with
the reason it stays.

A reference is a name read in the defining module, a name imported from it
(`from .agents import STAGES`) and read in the importing module, or an
attribute of a module name bound by `from . import agents` (`agents.STAGES`).
Any other attribute of the same name (`args.run_baseline`) is not one."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "autoscore"

# (module, name) -> why it stays with no reference the guard can see
ALLOWED = {
    ("agents", name): "library API; pipeline calls it through getattr, so a "
                      "wrapper set on the module attribute sees every call"
    for name in ("run_extraction", "run_scoring", "run_baseline")
}


def _defined(tree: ast.Module) -> dict[str, int]:
    """Top-level function, class and constant names -> line number."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("__"):
                    names[target.id] = node.lineno
    return names


def _read_names(tree: ast.Module):
    """Every name read in the module, those in string annotations too, and
    every (module name, attribute) read."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, None
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(expression):
                if isinstance(inner, ast.Name):
                    yield inner.id, None


def dead_names(sources: dict[str, str]) -> list[str]:
    """`module.name (line n)` for each top-level name of the modules (module
    name -> source) that nothing references and ALLOWED does not name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced = set()
    for module, tree in trees.items():
        # local name -> (module, name) it stands for; (module, None) for a module
        bound = {name: (module, name) for name in _defined(tree)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    target = ((alias.name, None) if node.module is None
                              else (node.module, alias.name))
                    bound[alias.asname or alias.name] = target
        for name, attr in _read_names(tree):
            target = bound.get(name)
            if target is None:
                continue
            if target[1] is not None:
                referenced.add(target)
            elif attr is not None:
                referenced.add((target[0], attr))
    return [f"{module}.{name} (line {line})"
            for module, tree in sorted(trees.items())
            for name, line in sorted(_defined(tree).items(), key=lambda item: item[1])
            if (module, name) not in referenced and (module, name) not in ALLOWED]


def test_every_top_level_name_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dead_names(sources) == []


@pytest.mark.parametrize("module,name", sorted(ALLOWED))
def test_allowed_names_still_exist(module, name):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert name in _defined(tree)


def test_guard_flags_a_name_left_behind():
    sources = {
        "errors": (
            "class Used(Exception):\n"
            "    pass\n"
            "class LeftBehind(Exception):\n"  # nothing raises or catches it
            "    pass\n"
            "LIMIT = 3\n"
            "TABLE = {}\n"
            "def helper():\n"
            "    return LIMIT\n"
            "def _private():\n"
            "    pass\n"
        ),
        "user": (
            "from . import errors\n"
            "from .errors import Used as Alias\n"
            "def run_baseline(args):\n"
            "    helper = args.helper\n"    # an attribute of another object
            "    args.TABLE = 1\n"
            "    raise Alias(errors.helper())\n"
            "x: 'Alias | None' = None\n"
        ),
    }
    assert dead_names(sources) == [
        "errors.LeftBehind (line 3)",
        "errors.TABLE (line 6)",
        "errors._private (line 9)",
        "user.run_baseline (line 3)",
        "user.x (line 7)",
    ]
