"""The library surface holds only what the library runs.

Every top-level function of ``tensor.py`` and ``nn.py`` must be referenced
somewhere in ``src/facestream/`` outside its own definition, so an op that
only tests call fails here instead of growing the vocabulary back. A name
exported from ``__init__.py`` counts as referenced.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "facestream"
CHECKED = ("tensor", "nn")


def _bound(fn):
    """Names a function binds itself: arguments, nested defs, assignments."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in ast.walk(fn):
        if isinstance(node, ast.FunctionDef) and node is not fn:
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _loads(node, shadowed=frozenset()):
    """Names read under ``node``, as ``name`` or ``tensor.name``/``nn.name``;
    a name is skipped inside a function that binds its own (a local
    ``backward`` closure, say)."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in shadowed:
        yield node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in CHECKED:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, shadowed)


def test_every_tensor_and_nn_function_is_used():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    exported = {alias.name for node in trees["__init__"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # (module, top-level statement) -> the names it reads
    reads = [(stem, node, set(_loads(node)))
             for stem, tree in trees.items() for node in tree.body]
    unused = []
    for module in CHECKED:
        for fn in trees[module].body:
            if not isinstance(fn, ast.FunctionDef) or fn.name in exported:
                continue
            if not any(fn.name in names for stem, node, names in reads
                       if not (stem == module and node is fn)):
                unused.append(f"{module}.{fn.name}")
    assert unused == [], f"defined but not used in src/facestream/: {unused}"
