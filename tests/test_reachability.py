import ast
from collections import Counter
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


def test_every_method_is_reached():
    # A method or property of a package class (dunders aside) must be read
    # as an attribute somewhere in the package outside its own body.  Only
    # attributes count: a local variable of the same name (say `shift`)
    # does not reach a method.
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = Counter(n.attr for tree in trees.values() for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute))
    unreached = []
    for name, tree in trees.items():
        if name == "oracle.py":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or \
                        (fn.name.startswith("__") and fn.name.endswith("__")):
                    continue
                own = sum(1 for n in ast.walk(fn)
                          if isinstance(n, ast.Attribute) and n.attr == fn.name)
                if reads[fn.name] == own:
                    unreached.append(f"{name}:{cls.name}.{fn.name}")
    assert unreached == []
