"""One writer of the output: in the package only cli.main reads
sys.stdout or calls print without file=.  The commands return their
text, so that a failed write is caught and reported in one place.  Read
with ast, so a mention in a comment or a docstring does not count."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "seifert").glob("*.py"))


def writes_stdout(node: ast.AST) -> bool:
    """node reads sys.stdout, or calls print with no file= argument."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "stdout" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(keyword.arg == "file" for keyword in node.keywords))


def test_only_main_writes_stdout():
    writers, in_main = [], []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        main = set()
        if path.name == "cli.py":
            main = {id(node) for statement in tree.body
                    if isinstance(statement, ast.FunctionDef)
                    and statement.name == "main"
                    for node in ast.walk(statement)}
        for node in ast.walk(tree):
            if writes_stdout(node):
                where = in_main if id(node) in main else writers
                where.append(f"{path.name}:{node.lineno}")
    assert writers == []
    # and main does write it, so the check above has something to find
    assert in_main
