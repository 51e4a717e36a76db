"""A type that checks its values when it is built is frozen: a @dataclass
whose __post_init__ raises must be declared frozen=True, or an assignment
after construction gets round every check it makes."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "autoscore"


def _is_frozen_dataclass(decorator: ast.expr) -> bool | None:
    """True or False for a dataclass decorator (frozen or not), None for
    any other decorator."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call is not None else decorator
    if ast.unparse(target) not in ("dataclass", "dataclasses.dataclass"):
        return None
    return call is not None and any(
        keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True for keyword in call.keywords)


def unfrozen_checked_dataclasses(source: str) -> list[str]:
    """The dataclasses in `source` whose __post_init__ raises and that are
    not frozen, as "Name (line N)"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        kinds = [kind for kind in map(_is_frozen_dataclass, node.decorator_list)
                 if kind is not None]
        if not kinds or kinds[0]:
            continue
        checks = any(
            isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
            and any(isinstance(inner, ast.Raise) for inner in ast.walk(item))
            for item in node.body)
        if checks:
            found.append(f"{node.name} (line {node.lineno})")
    return found


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_a_dataclass_that_checks_its_values_is_frozen(module):
    assert unfrozen_checked_dataclasses(module.read_text(encoding="utf-8")) == []


def test_guard_flags_only_an_unfrozen_dataclass_that_raises():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Checked:\n"
        "    def __post_init__(self):\n"
        "        if True:\n"
        "            raise ValueError\n"
        "@dataclasses.dataclass(frozen=False)\n"
        "class Spelled:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError\n"
        "@dataclass\n"
        "class Unchecked:\n"
        "    def __post_init__(self):\n"
        "        self.x = 1\n"
        "class Plain:\n"
        "    def __post_init__(self):\n"
        "        raise ValueError\n"
    )
    assert unfrozen_checked_dataclasses(source) == [
        "Checked (line 4)", "Spelled (line 9)"]
