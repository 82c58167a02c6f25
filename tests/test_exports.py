"""Every exported name resolves: the names in each cavitycp module's
__all__, and the names cavitycp/__init__.py imports.  Deleting a function
must not leave a dangling export behind."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cavitycp

MODULES = sorted(m.name for m in pkgutil.iter_modules(cavitycp.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"cavitycp.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(Path(cavitycp.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(cavitycp, n)] == []


@pytest.mark.parametrize("name", MODULES + sorted(
    f"tests/{path.name}" for path in Path(__file__).parent.glob("*.py")))
def test_no_dead_imports(name):
    # every name a module or test file imports is used in it or re-exported
    # by __all__; __init__.py only re-exports, and is not a module of MODULES
    if name.startswith("tests/"):
        path, exported = Path(__file__).with_name(name[6:]), set()
    else:
        path = Path(cavitycp.__file__).with_name(f"{name}.py")
        exported = set(getattr(importlib.import_module(f"cavitycp.{name}"),
                               "__all__", ()))
    tree = ast.parse(path.read_text())
    imported = {alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - exported) == []


def _private_names(tree):
    """Module-level private functions and constants of a module's tree."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            yield from (t.id for t in targets if isinstance(t, ast.Name))


def test_no_dead_private_helpers():
    # every module-level private function or constant of the package is
    # used somewhere in it besides its definition, so a helper that a
    # refactor moved or replaced cannot stay behind
    trees = {path.name: ast.parse(path.read_text()) for path in
             sorted(Path(cavitycp.__file__).parent.glob("*.py"))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    private = [f"{module}:{name}" for module, tree in trees.items()
               for name in _private_names(tree)
               if name.startswith("_") and not name.startswith("__")]
    assert private
    assert [p for p in private if p.split(":")[1] not in used] == []


def _imports(name):
    """(module, name) per name a cavitycp module imports; module is what a
    relative import resolves to, e.g. cavitycp.greens for .greens."""
    tree = ast.parse(Path(cavitycp.__file__).with_name(f"{name}.py")
                     .read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = "cavitycp" + ("." + module if module else "")
            yield from ((module, alias.name) for alias in node.names)


def test_layering():
    # the integrator knows quadrature rules, not the traces' value formats:
    # it imports no cavitycp module; and the trace layer owns its fold of
    # the positions, so potential imports no fold or row-mapping helper
    assert [m for m, _ in _imports("quadrature")
            if m.split(".")[0] == "cavitycp"] == []
    assert [n for m, n in _imports("potential")
            if m == "cavitycp.greens" and "fold" in n] == []


def _reads(node):
    """Names called and attributes read anywhere in node."""
    return {n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)} | \
        {f".{n.attr}" for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def test_geometry_supplies_what_differs():
    # the trace kernels ask the geometry and its mirror, not their classes:
    # imagfreq_trace_sum calls no isinstance and reads no .width or .layers,
    # _realfreq_trace calls no isinstance, and only materials walks a
    # Stack's layers (a mirror's depth comes from the mirror)
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(cavitycp.__file__).parent.glob("*.py"))}
    kernels = {f.name: _reads(f) for f in trees["greens"].body
               if isinstance(f, ast.FunctionDef)}
    assert kernels["imagfreq_trace_sum"] & {"isinstance", ".width",
                                            ".layers"} == set()
    assert "isinstance" not in kernels["_realfreq_trace"]
    assert [m for m, tree in trees.items()
            if m != "materials" and ".layers" in _reads(tree)] == []


MIRROR_AND_MATERIAL_CLASSES = {"Stack", "HalfSpace", "ConstantR", "Drude",
                               "ConstantLossy", "Vacuum"}


def test_mirror_supplies_what_differs():
    # the mirror and the permittivity model answer their own facts: greens
    # and materials call no isinstance anywhere (methods included), no
    # other module asks isinstance of a mirror or material class, and
    # greens imports no mirror class or mirror-kind helper
    trees = {path.stem: ast.parse(path.read_text()) for path in
             sorted(Path(cavitycp.__file__).parent.glob("*.py"))}
    asks = {m: [call.args[1] for call in ast.walk(tree)
                if isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "isinstance"]
            for m, tree in trees.items()}
    assert asks["greens"] == [] and asks["materials"] == []
    assert [f"{m}:{arg.lineno}" for m, args in asks.items() for arg in args
            if _names(arg) & MIRROR_AND_MATERIAL_CLASSES] == []
    assert {n for m, n in _imports("greens")} & {
        "ConstantR", "Stack", "permittivity_at", "_imaginary_axis"} == set()


def _names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_cli_has_one_door():
    # cli._quantity converts every flag value argparse leaves as text, and
    # main writes every table: no cmd_* function calls _emit, and no int()
    # or float() outside _quantity takes flag text (an args attribute, or
    # an item of a list made from one)
    tree = ast.parse(Path(cavitycp.__file__).with_name("cli.py").read_text())
    found = []
    for func in tree.body:
        if not isinstance(func, ast.FunctionDef) or func.name == "_quantity":
            continue
        text = {"args"} | {name for comp in ast.walk(func)
                           if isinstance(comp, ast.comprehension)
                           and "args" in _names(comp.iter)
                           for name in _names(comp.target)}
        for call in ast.walk(func):
            callee = getattr(getattr(call, "func", None), "id", None)
            if callee == "_emit" and func.name.startswith("cmd_") or \
                    callee in ("int", "float") and \
                    text & set().union(*map(_names, call.args)):
                found.append(f"{func.name}:{call.lineno} {callee}")
    assert found == []
