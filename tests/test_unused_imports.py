"""Every import in the repository's Python code is used.

No linter runs in CI, so this is the check: an ``ast`` scan of src/,
tests/, benchmarks/ and examples/.  An imported name counts as used
when the importing module reads it (string annotations included),
lists it in ``__all__``, or when another module imports it from there.
``__init__`` modules (re-exports) and ``__future__`` imports are skipped.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREES = ("src", "benchmarks", "examples", "tests")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(ROOT).with_suffix("").parts)
    if parts[0] == "src":
        parts = parts[1:]
    return ".".join(parts)


def _annotation_names(node):
    """Names read by a string annotation such as ``"SharedState"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval")
        except SyntaxError:
            return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif sub is not node and isinstance(sub, ast.Constant):
            yield from _annotation_names(sub)


def _scan(path: Path, module: str):
    """(imports, used, imported_from) for one module.

    ``imports`` maps each bound name to its line; ``imported_from`` holds
    ``(module, name)`` for every name this module imports.
    """
    tree = ast.parse(path.read_text())
    package = module if path.name == "__init__.py" \
        else module.rpartition(".")[0]
    imports, used, imported_from = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                imports[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            source = node.module or ""
            if node.level:  # relative: resolve against this package
                base = package.rsplit(".", node.level - 1)[0]
                source = base + "." + source if source else base
            for alias in node.names:
                imported_from.add((source, alias.name))
                imports[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and \
                not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and \
                node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(
                elt.value for elt in node.value.elts
                if isinstance(elt, ast.Constant)
            )
    return imports, used, imported_from


def unused_imports():
    """``path:line name`` for every unused import in the four trees."""
    scans = {}
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            scans[path] = _scan(path, _module_name(path))
    imported_elsewhere = set()
    for _, _, imported_from in scans.values():
        imported_elsewhere |= imported_from
    unused = []
    for path, (imports, used, _) in scans.items():
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        for name, line in sorted(imports.items(), key=lambda kv: kv[1]):
            if name in used or (module, name) in imported_elsewhere:
                continue
            unused.append("%s:%d %s" % (path.relative_to(ROOT), line, name))
    return unused


def test_no_unused_imports():
    assert unused_imports() == []
