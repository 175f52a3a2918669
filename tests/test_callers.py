"""Every function in ``src/isodiam`` has a caller in ``src/isodiam``.

A function counts as called when its name is read anywhere in the package:
a module-level or nested function by a bare name or a ``module.name``
attribute, a method only by an attribute (``Space.euclidean``,
``self.index``), so that a nested function of the same name, such as
``_ball_group``'s ``euclidean``, does not stand in for a method.  Dunder
methods are called by Python itself.
"""

import ast
from pathlib import Path

import isodiam

SRC = Path(isodiam.__file__).parent
#: public entry points whose only callers are outside the package
ENTRY_POINTS = {
    "Space.sphere",
    "Space.euclidean",
    "Space.hyperbolic",
    "save_region",
}


def _definitions(tree):
    """(qualified name, plain name, is a method) of every def in the tree."""
    out = []

    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name, in_class))
                walk(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", True)
            else:
                walk(child, prefix, in_class)

    walk(tree, "", False)
    return out


def _uncalled() -> set:
    """Qualified names of the package's functions that nothing in it reads."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    names, attributes = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return {qualified for tree in trees for qualified, name, method in _definitions(tree)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in (attributes if method else names | attributes)}


def test_every_function_has_a_caller():
    assert sorted(_uncalled() - ENTRY_POINTS) == []


def test_entry_points_have_no_caller_in_the_package():
    """The allowlist holds only what needs it."""
    assert ENTRY_POINTS <= _uncalled()
