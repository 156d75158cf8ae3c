"""Source hygiene: every name a module imports is used in that module,
imports sit at module level, every function, class and method of the
library is referenced somewhere, and every default of the library is
overridden by some caller."""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nctorus"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
CALLERS = ("src", "tests", "perfbench")


def _unused_imports(tree: ast.AST):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _nested_imports(tree: ast.AST):
    """Import statements inside a function or method body."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    return sorted({
        (node.lineno, ", ".join(alias.name for alias in node.names))
        for func in ast.walk(tree) if isinstance(func, funcs)
        for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@lru_cache(maxsize=None)
def _caller_trees():
    return tuple(ast.parse(path.read_text(encoding="utf-8"))
                 for d in CALLERS for path in sorted((ROOT / d).rglob("*.py")))


@lru_cache(maxsize=None)
def _references():
    """(names read or imported, attributes accessed) over every caller file."""
    names, attrs = set(), set()
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return names, attrs


@lru_cache(maxsize=None)
def _calls():
    """{name: calls} over every caller file, for calls f(...) and x.f(...)."""
    calls = {}
    for tree in _caller_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _decorated(node, name: str) -> bool:
    """node carries @name, @name(...), @x.name or @x.name(...)."""
    heads = (getattr(d, "func", d) for d in node.decorator_list)
    return any(getattr(h, "id", None) == name or getattr(h, "attr", None) == name for h in heads)


def _defaults(tree: ast.Module):
    """(line, callee, parameter, position) for each defaulted parameter of a
    top-level function or method, an __init__ counted under its class name,
    and each defaulted dataclass field.  position is the index a positional
    argument needs to reach the parameter (self and cls are bound), None for
    a keyword-only one."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)

    def params(node, callee, bound):
        args = node.args
        pos = args.posonlyargs + args.args
        first = len(pos) - len(args.defaults)
        return ([(node.lineno, callee, a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
                + [(node.lineno, callee, a.arg, None)
                   for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])

    found = []
    for node in tree.body:
        if isinstance(node, funcs):
            found += params(node, node.name, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    callee = node.name if item.name == "__init__" else item.name
                    found += params(item, callee, 0 if _decorated(item, "staticmethod") else 1)
            if _decorated(node, "dataclass"):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and _in_init(f)]
                found += [(f.lineno, node.name, f.target.id, i)
                          for i, f in enumerate(fields) if f.value is not None]
    return found


def _in_init(f: ast.AnnAssign) -> bool:
    """A dataclass field is a constructor parameter unless field(init=False)."""
    return not (isinstance(f.value, ast.Call) and any(k.arg == "init" for k in f.value.keywords))


def _library_defaults():
    """(module, line, callee, parameter, position) over every library module."""
    return [(path.name, *found) for path in MODULES
            for found in _defaults(ast.parse(path.read_text(encoding="utf-8")))]


def _passes(call: ast.Call, param: str, position) -> bool:
    """call names param, reaches its position, or unpacks * or ** arguments."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or position is not None and len(call.args) > position)


def _unreferenced(tree: ast.Module):
    """Top-level functions and classes that no caller names, and methods
    (dunders aside) that no caller reaches as an attribute."""
    names, attrs = _references()
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    known, dead = names | attrs, []
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if node.name not in known:
            dead.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            dead.extend((item.lineno, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, defs[:2]) and not item.name.startswith("__")
                        and item.name not in attrs)
    return dead


def test_scan_sees_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    nested = _nested_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not nested, ", ".join(f"{path.name}:{line} {names}" for line, names in nested)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    dead = _unreferenced(ast.parse(path.read_text(encoding="utf-8")))
    assert not dead, ", ".join(f"{path.name}:{line} {name}" for line, name in dead)


def test_element_storage_stays_in_algebra():
    """Only algebra.py reads NcElement's storage (box and corner); the other
    modules read elements through .coeffs and the algebra functions."""
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in MODULES if path.name != "algebra.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("box", "corner")]
    assert not reads, ", ".join(reads)


def _hand_sliced_block(node: ast.AST) -> bool:
    """x[i][:, j]: the rows i of x, then the columns j of those rows."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript)):
        return False
    key = node.slice
    return (isinstance(key, ast.Tuple) and len(key.elts) == 2
            and isinstance(key.elts[0], ast.Slice)
            and key.elts[0].lower is key.elts[0].upper is key.elts[0].step is None)


def test_blocks_are_read_through_block_stacks():
    """No module slices a block out of a section by hand (x[i][:, j]);
    gns.block_stacks is the one reader of blocks."""
    slices = [f"{path.name}:{node.lineno}"
              for path in MODULES
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if _hand_sliced_block(node)]
    assert not slices, ", ".join(slices)


def test_default_scan_sees_each_kind():
    """The scan finds a function's default, an __init__'s under its class,
    a classmethod's past cls, and a dataclass field's (not a field(init=False))."""
    found = {(callee, param, pos) for _, _, callee, param, pos in _library_defaults()}
    assert {("exp_selfadjoint", "pad", 2), ("GradedSymbol", "winding_cutoff", 4),
            ("build", "pad", 2), ("ContourSpec", "nodes", 0)} <= found
    assert not any(param == "lambda_max" for _, param, _ in found)


def test_every_default_is_passed_by_a_caller():
    """A default that no call in CALLERS overrides has one value in use: it is
    a constant in the body, not a parameter or a field."""
    calls = _calls()
    unused = [f"{module}:{line} {callee}({param})"
              for module, line, callee, param, pos in _library_defaults()
              if not any(_passes(c, param, pos) for c in calls.get(callee, ()))]
    assert not unused, ", ".join(unused)
