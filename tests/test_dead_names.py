"""No dead names in the package: every name a module imports is used in
that module, and every private module-level name is used somewhere in
the package or its tests; and each eagerly loaded module's ``__all__``
lists exactly the public names it defines, as the package's
``_CENSUS_NAMES`` does for ``census``.  Read with ast, so a mention
in a comment or a docstring does not count as a use."""
import ast
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(path for path in (ROOT / "src" / "seifert").glob("*.py")
                 if path.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def uses(tree: ast.AST) -> Counter:
    """The names tree reads: names, attributes, names imported from a
    module, and the last part of a dotted string such as the target of
    monkeypatch.setattr."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value.rpartition(".")[2]] += 1
    return found


def test_every_import_is_used_in_its_module():
    unused = []
    for path in MODULES:
        tree = parse(path)
        read = Counter(node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name))
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if not read[name]:
                        unused.append(f"{path.name}: {name}")
    assert unused == []


def test_every_private_name_is_used():
    # each module-level _name with the uses outside its own definition,
    # so that a function that only calls itself counts as unused
    read = Counter()
    for path in MODULES + sorted((ROOT / "tests").glob("*.py")):
        read += uses(parse(path))
    unused = []
    for path in MODULES:
        for statement in parse(path).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [t.id for t in statement.targets
                         if isinstance(t, ast.Name)]
            elif isinstance(statement, ast.AnnAssign):
                names = [getattr(statement.target, "id", "")]
            else:
                continue
            for name in names:
                if not name.startswith("_") or name.startswith("__"):
                    continue
                if read[name] == uses(statement)[name]:
                    unused.append(f"{path.name}: {name}")
    assert unused == []


def public_names(module: str) -> list[str]:
    """The public module-level names that module defines (def, class,
    assignment), sorted."""
    defined = set()
    for statement in parse(ROOT / "src" / "seifert" / f"{module}.py").body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            defined.add(statement.name)
        elif isinstance(statement, ast.Assign):
            defined.update(t.id for t in statement.targets
                           if isinstance(t, ast.Name))
        elif isinstance(statement, ast.AnnAssign):
            defined.add(getattr(statement.target, "id", "_"))
    return sorted(name for name in defined if not name.startswith("_"))


@pytest.mark.parametrize("module", ["complexity", "core", "normal_form",
                                    "notation"])
def test_all_lists_exactly_the_public_names_the_module_defines(module):
    # census is checked below: it loads on first use, and the package
    # keeps its public names in _CENSUS_NAMES
    public = public_names(module)
    star = {}
    exec(f"from seifert.{module} import *", star)
    del star["__builtins__"]
    assert sorted(import_module(f"seifert.{module}").__all__) == public
    assert sorted(star) == public


def test_census_defines_exactly_the_public_names_the_package_lists():
    assert sorted(import_module("seifert")._CENSUS_NAMES) == public_names(
        "census")
