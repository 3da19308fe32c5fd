"""Every definition in ``src/`` has a caller outside the tests.

A function, class or method that only the test suite reaches is API the
running system does not use: it costs reading, keeps documentation alive
and lets a test pass against code no deployment runs.  This scan walks
every ``def`` and ``class`` in ``src/`` and looks for its name where
production code could use it — ``src/``, ``benchmarks/`` (E21 wraps its
targets by name) and ``examples/``; ``tests/`` does not count.

A use is an identifier in code: a name, an attribute, or a string that is
exactly the identifier (``getattr`` and the E21 trace table look names up
that way).  Docstrings, comments, ``import`` lines and ``__all__`` lists are
not uses, so an ``__init__`` re-export keeps nothing alive.  A method needs
an attribute use (``obj.name``) or a bare use inside its own class body;
a local variable that shares its name does not count.  Dunder methods are
called by the interpreter and are skipped.

The check is by name, so two definitions sharing a name keep each other
alive; it errs towards passing, never towards a false failure.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src", "benchmarks", "examples")

#: Definitions kept without a production caller, each with its reason.
ALLOWED = {
    "independent_parities": "the tight Cascade leakage figure, pinned by "
    "tests/test_pinned_key_material.py, whose literals stay as they are",
    "total_bytes": "transcript size pinned by tests/test_pinned_key_material.py",
    "frame_numbers": "per-slot frame index hashed by tests/test_pinned_key_material.py",
}


def _uses(tree):
    """(bare names, attribute-or-string names) used in one module's code."""
    in_all = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            in_all.update(id(item) for item in ast.walk(node.value))
    bare, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            bare[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and node.value.isidentifier()
            and id(node) not in in_all
        ):
            attributes[node.value] += 1
    return bare, attributes


def _class_body_names(cls):
    """Bare names used in a class body outside its methods."""
    names = set()
    for statement in cls.body:
        if not isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.update(n.id for n in ast.walk(statement) if isinstance(n, ast.Name))
    return names


def _definitions(path, tree):
    """(location, name, is_method, class-body names) for every def and class."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                location = f"{path.relative_to(ROOT)}:{node.lineno}"
                in_class = owner is not None
                found.append(
                    (location, node.name, in_class, _class_body_names(owner) if in_class else set())
                )
                visit(node.body, node if isinstance(node, ast.ClassDef) else None)
            else:
                for field in ("body", "orelse", "finalbody", "handlers"):
                    visit(getattr(node, field, None) or [], owner)

    visit(tree.body, None)
    return found


def uncalled_definitions():
    bare, attributes, definitions = Counter(), Counter(), []
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            module_bare, module_attributes = _uses(tree)
            bare.update(module_bare)
            attributes.update(module_attributes)
            if directory == "src":
                definitions.extend(_definitions(path, tree))
    uncalled = []
    for location, name, is_method, class_names in definitions:
        if name.startswith("__") and name.endswith("__"):
            continue
        used = attributes[name] or (name in class_names if is_method else bare[name])
        if not used and name not in ALLOWED:
            uncalled.append(f"{location} {name}")
    return uncalled


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    uncalled = uncalled_definitions()
    assert not uncalled, (
        "defined in src/ but used only by tests (delete it with its tests, move it "
        "beside them as an oracle, or give it a caller):\n  " + "\n  ".join(uncalled)
    )


def test_every_allowed_name_is_still_defined_and_uncalled():
    """An allowlist entry whose definition went, or gained a caller, is stale."""
    saved = dict(ALLOWED)
    try:
        ALLOWED.clear()
        uncalled = {entry.split()[-1] for entry in uncalled_definitions()}
    finally:
        ALLOWED.update(saved)
    assert uncalled == set(saved)
