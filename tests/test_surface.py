"""The library surface holds only what the library runs.

Every top-level function and class of the checked modules must be
referenced outside its own definition, somewhere in ``src/facestream/`` or in
the benchmark under ``perfbench/``, which calls the library as a user would;
so a function or class that only tests use fails here instead of growing the
surface back. A name exported from ``__init__.py`` counts as referenced.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "facestream"
READERS = (PACKAGE, ROOT / "perfbench")
CHECKED = ("tensor", "nn", "codec", "diffusion", "predictor", "audio", "training")


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


def _module_aliases(tree):
    """Local names the file's imports bind to checked modules, such as
    ``predictor_mod`` for ``from facestream import predictor as predictor_mod``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name.rsplit(".", 1)[-1] in CHECKED}
    return aliases


def _loads(node, modules, shadowed=frozenset()):
    """Names read under ``node``, as ``name`` or ``module.name`` for a name
    in ``modules``; a name is skipped inside a function that binds its own
    (a local ``backward`` closure, say)."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        shadowed = shadowed | _bound(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
            and node.id not in shadowed:
        yield node.id
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in modules:
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _loads(child, modules, shadowed)


def test_every_checked_function_is_used():
    trees = {path: ast.parse(path.read_text())
             for root in READERS for path in root.glob("*.py")}
    exported = {alias.name for node in trees[PACKAGE / "__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    # (file, top-level statement) -> the names it reads
    reads = [(path, node, set(_loads(node, _module_aliases(tree))))
             for path, tree in trees.items() for node in tree.body]
    unused = []
    for module in CHECKED:
        path = PACKAGE / f"{module}.py"
        for defn in trees[path].body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) \
                    or defn.name in exported:
                continue
            if not any(defn.name in names for where, node, names in reads
                       if not (where == path and node is defn)):
                unused.append(f"{module}.{defn.name}")
    assert unused == [], f"defined but not used in src/facestream/ or perfbench/: {unused}"
