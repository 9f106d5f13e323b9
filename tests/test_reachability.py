import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "polyprog"


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def test_every_public_name_is_reached():
    # A public top-level function or class outside the oracle must be named
    # somewhere in the package outside its own body.  The oracle's
    # references count as uses; the tests' do not.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    tops = [node for tree in trees.values() for node in tree.body]
    unreached = [
        f"{name}:{node.name}"
        for name, tree in trees.items() if name != "oracle.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not any(node.name in _names(top) for top in tops if top is not node)]
    assert unreached == []
