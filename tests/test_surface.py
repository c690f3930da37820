"""Every definition in src/qflag serves the command line.

An AST walk over the package.  The roots are `cli.main`, the `cmd_*`
handlers and all module-level code, class bodies included; a function,
class or method is reached when a reached body names it: a module-level
function or class as a bare name or as an attribute, a method only as an
attribute (a bare local of the same name is no call of it).  Names are
matched across modules, so the walk over-approximates the call graph: a
definition it misses is unused.  Dunder methods are left out, since the
language calls them."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qflag"
_DEFS = (ast.FunctionDef, ast.ClassDef)


def _package():
    """{(module, qualified name): node} of every function, class and method,
    and the module-level statements outside them."""
    defs, top = {}, []

    def visit(module, body, prefix):
        for node in body:
            if isinstance(node, _DEFS):
                defs[module, prefix + node.name] = node
                if isinstance(node, ast.ClassDef):
                    visit(module, node.body, f"{prefix}{node.name}.")
            else:
                top.append(node)

    for path in sorted(SRC.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()).body, "")
    return defs, top


def _names(node) -> set:
    """(name, is_attribute) of every bare name and attribute in node."""
    return {(n.id, False) if isinstance(n, ast.Name) else (n.attr, True)
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unreached() -> list[str]:
    defs, top = _package()
    by_name: dict = {}  # (name, is_attribute) -> the definitions it reaches
    for module, qual in defs:
        name = qual.rsplit(".", 1)[-1]
        by_name.setdefault((name, True), []).append((module, qual))
        if "." not in qual:
            by_name.setdefault((name, False), []).append((module, qual))
    todo = [(m, q) for m, q in defs if m == "cli" and (q == "main" or q.startswith("cmd_"))]
    for node in top:
        for name in _names(node):
            todo += by_name.get(name, [])
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            for name in _names(defs[key]):
                todo += by_name.get(name, [])
    dunder = lambda q: q.rsplit(".", 1)[-1].startswith("__") and q.endswith("__")
    return sorted(f"{m}.{q}" for m, q in defs if (m, q) not in reached and not dunder(q))


def test_every_definition_is_reached_from_the_cli():
    missing = unreached()
    assert not missing, f"{len(missing)} definitions no command reaches: {', '.join(missing)}"
