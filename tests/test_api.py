"""No dead API: every top-level function, class and constant of the package
is used in src/ somewhere other than its own definition and the package's
exports.  Dunders such as __version__ are exempt."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistcheck"

# names kept although nothing in src/ uses them, each with its reason
ALLOWED = {
    # the conductor of a twist in closed form: acceptance criterion 6 checks
    # Tate's algorithm against it
    "twisted_conductor_closed_form",
}


def names_in(node: ast.AST) -> set[str]:
    """Every name that node reads, as a bare name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def defines(node: ast.stmt) -> set[str]:
    """The names a top-level statement defines: a function, a class, or the
    names an assignment binds, dunders left out."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {
            sub.id
            for target in targets
            for sub in ast.walk(target)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store) and not sub.id.startswith("__")
        }
    return set()


def test_every_top_level_definition_is_used():
    defined = {}  # name -> module
    used = set()
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text(encoding="utf-8")).body
        for node in body:
            defined |= dict.fromkeys(defines(node), path.name)
        if path.name == "__init__.py":
            continue
        for node in body:
            # a definition's own body does not keep it alive, as in a recursion
            used |= names_in(node) - defines(node)
    dead = sorted(f"{module}: {name}" for name, module in defined.items() if name not in used | ALLOWED)
    assert not dead, dead

