"""Source hygiene: every name a library module or test file imports is used
in that file, imports sit at module level, every function, class and method
of the library is referenced by the library or the benchmark, and every
default of the library is overridden by a call in the library or the
benchmark, calls resolved through imports.  Tests are not callers: an oracle
that only tests read is named in ORACLES, a default that only tests vary in
TEST_VARIED."""

import ast
import importlib.util
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "nctorus"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
LIBRARY = frozenset(p.stem for p in MODULES)
CALLERS = ("src", "perfbench")
BENCH = ROOT / "perfbench"

# Definitions kept only as independent references: (module, name) -> the
# test, "file::function", that compares a claim path against the oracle.
ORACLES = {
    ("symbols", "GradedSymbol.eval_at"):
        "test_symbols.py::test_finite_section_matches_column_evaluation",
    ("symbols", "PolySymbol.eval_at"):
        "test_symbols.py::test_finite_section_matches_column_evaluation",
    ("symbols", "PolySymbol.to_graded"):
        "test_symbols.py::test_graded_compose_agrees_with_poly_compose",
    ("symbols", "flat_laplacian_symbol"):
        "test_heat.py::test_laplace_symbol_matches_composition_oracle",
    ("gns", "flat_laplacian_matrix"): "test_gns.py::test_block_path_matches_dense_reference",
    ("heat", "eval_expr"): "test_heat.py::test_xi_derivative_matches_finite_differences",
}

# Defaults that no caller passes and a test varies, kept as parameters:
# (module, function, parameter) -> (the test, "file::function", that passes
# it; why the value is not fixed).
TEST_VARIED = {
    ("cli", "main", "argv"): (
        "test_config_cli.py::test_cli_preset_and_config_are_exclusive",
        "the program's input; None reads the command line"),
    ("heat", "heat_coefficient", "rmax"): (
        "test_heat.py::test_block_engine_matches_whole_window",
        "the whole-window reference takes the block run's radial cut"),
    ("symbols", "classicalize_resolvent", "winding_cutoff"): (
        "test_symbols.py::test_classicalize_resolvent_generic_tau_pointwise",
        "at 32 windings tau = 1+i discards 4.1e-6 of the winding mass, tau = 2i 1.2e-8"),
}


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
    """(path, tree) of every caller file."""
    return tuple((path, ast.parse(path.read_text(encoding="utf-8")))
                 for d in CALLERS for path in sorted((ROOT / d).rglob("*.py")))


@lru_cache(maxsize=None)
def _references():
    """(names read or imported, attributes accessed) over the library modules
    and the benchmark, the real callers; the benchmark's string constants
    count as attributes, since its tracer names the functions it wraps."""
    names, attrs = set(), set()
    for path, tree in _caller_trees():
        if path not in MODULES and BENCH not in path.parents:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and BENCH in path.parents):
                attrs.add(node.value)
    return names, attrs


def _bindings(path: Path, tree: ast.Module) -> dict:
    """{local name: binding} for what a file binds: ("module", m) for the
    library module m ("" for the package), ("def", m, f) for the top-level
    definition f of m ("" for a name of the package), ("outside",) for any
    other import.  A name assigned an attribute named after a library module
    (alg = nct.algebra, the package passed in as nct) binds that module."""
    module = path.stem if path.parent == SRC and path.stem in LIBRARY else None
    bind = {} if module is None else {
        node.name: ("def", module, node.name) for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, sub = alias.name.partition(".")
                if head != "nctorus":
                    bind[alias.asname or head] = ("outside",)
                else:
                    bind[alias.asname or head] = ("module", sub if alias.asname else "")
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            inside = module is not None if node.level else source.partition(".")[0] == "nctorus"
            source = source if node.level else source.partition(".")[2]
            for alias in node.names:
                local = alias.asname or alias.name
                if not inside:
                    bind[local] = ("outside",)
                elif source:
                    bind[local] = ("def", source, alias.name)
                elif alias.name in LIBRARY:
                    bind[local] = ("module", alias.name)
                else:
                    bind[local] = ("def", "", alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            for t, v in pairs:
                m = _module_of(v, bind)
                if isinstance(t, ast.Name) and m is not None:
                    bind[t.id] = ("module", m)
    return bind


def _module_of(expr: ast.AST, bind: dict):
    """The library module expr names, "" for the package, else None."""
    if isinstance(expr, ast.Name):
        b = bind.get(expr.id, ())
        return b[1] if b[:1] == ("module",) else None
    if (isinstance(expr, ast.Attribute) and expr.attr in LIBRARY
            and isinstance(expr.value, ast.Name)
            and bind.get(expr.value.id) in (None, ("module", ""))):
        return expr.attr
    return None


def _resolved_calls(path: Path, tree: ast.Module):
    """(callee, call) per call of a file: callee is (module, name) for a
    library function or class, (None, name) for x.name(...) on a receiver
    that is neither a module nor an outside import (a method call).  Calls
    of outside names (np.isclose, a test's own helper) are left out."""
    bind = _bindings(path, tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            b = bind.get(func.id, ())
            if b[:1] == ("def",):
                yield b[1:], node
        elif isinstance(func, ast.Attribute):
            m = _module_of(func.value, bind)
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if m is not None:
                yield (m, func.attr), node
            elif not (isinstance(root, ast.Name) and bind.get(root.id) == ("outside",)):
                yield (None, func.attr), node


@lru_cache(maxsize=None)
def _calls():
    """{callee: calls} over every caller file, callee as in _resolved_calls."""
    calls = {}
    for path, tree in _caller_trees():
        for callee, node in _resolved_calls(path, tree):
            calls.setdefault(callee, []).append(node)
    return calls


def _decorated(node, name: str) -> bool:
    """node carries @name, @name(...), @x.name or @x.name(...)."""
    heads = (getattr(d, "func", d) for d in node.decorator_list)
    return any(getattr(h, "id", None) == name or getattr(h, "attr", None) == name for h in heads)


def _defaults(tree: ast.Module, module: str):
    """(line, callee, parameter, position) for each defaulted parameter of a
    top-level function or method, an __init__ counted under its class, and
    each defaulted dataclass field.  callee is (module, name) for a function
    or class, (None, name) for a method, as _resolved_calls keys calls.
    position is the index a positional argument needs to reach the parameter
    (self and cls are bound), None for a keyword-only one."""
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
            found += params(node, (module, node.name), 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, funcs):
                    callee = (module, node.name) if item.name == "__init__" else (None, item.name)
                    found += params(item, callee, 0 if _decorated(item, "staticmethod") else 1)
            if _decorated(node, "dataclass"):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign) and _in_init(f)]
                found += [(f.lineno, (module, node.name), f.target.id, i)
                          for i, f in enumerate(fields) if f.value is not None]
    return found


def _in_init(f: ast.AnnAssign) -> bool:
    """A dataclass field is a constructor parameter unless field(init=False)."""
    return not (isinstance(f.value, ast.Call) and any(k.arg == "init" for k in f.value.keywords))


def _library_defaults():
    """(module, line, callee, parameter, position) over every library module."""
    return [(path.name, *found) for path in MODULES
            for found in _defaults(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def _passes(call: ast.Call, param: str, position) -> bool:
    """call names param, reaches its position, or unpacks * or ** arguments."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, param) for k in call.keywords)
            or position is not None and len(call.args) > position)


# The dunder methods a class may define without a caller naming them: the
# constructor, the dataclass check and the repr.  Any other (an operator such
# as __add__) counts as a definition that a caller must reach by name.
ALLOWED_DUNDERS = frozenset({"__init__", "__post_init__", "__repr__"})


def _definitions(tree: ast.Module):
    """(line, name) of each top-level function and class and of each method
    (the ALLOWED_DUNDERS aside), a method named Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((item.lineno, f"{node.name}.{item.name}") for item in node.body
                        if isinstance(item, defs[:2]) and item.name not in ALLOWED_DUNDERS)


def _unreferenced(tree: ast.Module, module: str):
    """Top-level functions and classes that no caller names, and methods
    that no caller reaches as an attribute, oracles aside."""
    names, attrs = _references()
    return [(line, name) for line, name in _definitions(tree)
            if (module, name) not in ORACLES
            and name.rpartition(".")[2] not in (attrs if "." in name else names | attrs)]


def test_scan_sees_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    nested = _nested_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not nested, ", ".join(f"{path.name}:{line} {names}" for line, names in nested)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_definitions(path):
    dead = _unreferenced(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert not dead, ", ".join(f"{path.name}:{line} {name}" for line, name in dead)


def test_definitions_see_operator_dunders():
    """An operator method is a definition a caller must reach; the allowed
    dunders are not."""
    tree = ast.parse("class A:\n"
                     "    def __init__(self): pass\n"
                     "    def __repr__(self): pass\n"
                     "    def __add__(self, other): pass\n")
    assert [name for _, name in _definitions(tree)] == ["A", "A.__add__"]


def test_oracles_exist_and_are_tested():
    """Each ORACLES entry is a definition of its module, and the test named
    with it exists in a test file that reads the oracle."""
    missing = []
    for (module, name), test in ORACLES.items():
        source = (SRC / f"{module}.py").read_text(encoding="utf-8")
        defined = {n for _, n in _definitions(ast.parse(source))}
        file, _, func = test.partition("::")
        tree = ast.parse((ROOT / "tests" / file).read_text(encoding="utf-8"))
        read = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        if name not in defined or func not in tests or name.rpartition(".")[2] not in read:
            missing.append(f"{module}.{name} ({test})")
    assert not missing, ", ".join(missing)


def _library_bindings(modules) -> dict:
    """{(module, name): value} over the module namespaces and the namespaces
    of the classes each module defines."""
    out = {}
    for mod in modules:
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                out.update({(mod.__name__, f"{name}.{k}"): v for k, v in vars(value).items()})
    return out


def test_bench_tracer_restores_every_binding():
    """The benchmark's tracer wraps library functions it names as strings and
    puts every original back on uninstall.  A wrapped name the library no
    longer has fails here, not only in a traced benchmark run."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", BENCH / "ncbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    nct = importlib.import_module("nctorus")
    modules = [importlib.import_module(f"nctorus.{m}") for m in sorted(LIBRARY)]
    before = _library_bindings(modules)
    tracer = tracing.Tracer()
    try:
        tracer.install(nct)
        during = _library_bindings(modules)
    finally:
        tracer.uninstall()
    replaced = [key for key, value in during.items() if value is not before[key]]
    assert replaced
    for key in replaced:
        wrapper = getattr(during[key], "__func__", during[key])
        original = getattr(before[key], "__func__", before[key])
        assert wrapper.__wrapped__ is original, key
    after = _library_bindings(modules)
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
    assert nct.heat.mul is nct.algebra.mul


def test_element_storage_stays_in_algebra():
    """Only algebra.py reads NcElement's storage (box and corner); the other
    modules read elements through .coeffs, .terms() and the algebra functions."""
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in MODULES if path.name != "algebra.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("box", "corner")]
    assert not reads, ", ".join(reads)


# (module file, function) -> the direct twists e^{2 pi i theta k} it may compute:
# the table itself, and the commutation check's omega, which stays off the
# table as that check's independent route.
DIRECT_TWISTS = {("algebra.py", "_twist"): 1, ("acceptance.py", "_identity_suite"): 1}


def _direct_twists(tree: ast.Module):
    """(innermost function or "<module>", line) of each exp(...) call whose
    argument holds 2j and theta."""
    owner = {}
    for func in ast.walk(tree):  # outer functions first: inner ones overwrite
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(ast.walk(func), func.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "exp" and node.args):
            arg = ast.unparse(node.args[0])
            if "2j" in arg and "theta" in arg.lower():
                yield owner.get(node, "<module>"), node.lineno


def test_one_twist_path():
    """Every twist of the library reads algebra._twist's table per angle; a
    direct np.exp(2j ... theta ...) elsewhere recomputes it on every call."""
    found = {}
    for path in MODULES:
        for func, line in _direct_twists(ast.parse(path.read_text(encoding="utf-8"))):
            found.setdefault((path.name, func), []).append(line)
    extra = [f"{name}:{lines} in {func}" for (name, func), lines in found.items()
             if len(lines) > DIRECT_TWISTS.get((name, func), 0)]
    assert not extra, ", ".join(extra)
    assert set(found) == set(DIRECT_TWISTS)


def test_direct_twist_scan_sees_each_form():
    tree = ast.parse(
        "W = np.exp(2j * math.pi * THETA)\n"
        "def f(theta, k, s, m):\n"
        "    a = np.exp(2j * math.pi * theta * k)\n"
        "    def g(x):\n"
        "        return cmath.exp(2j * np.pi * x.theta * s * m)\n"
        "    c = np.exp(1j * theta)\n"
        "    return np.exp(-k)\n")
    found = sorted(_direct_twists(tree), key=lambda t: t[1])
    assert found == [("<module>", 1), ("f", 3), ("g", 5)]


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


def _vacuum_selector(node: ast.AST) -> bool:
    """x.vacuum in b: the test that picks the block holding the vacuum."""
    return (isinstance(node, ast.Compare) and isinstance(node.left, ast.Attribute)
            and node.left.attr == "vacuum" and any(isinstance(op, ast.In) for op in node.ops))


def test_vacuum_block_is_selected_once():
    """Exactly one x.vacuum in b in the library: gns.vacuum_block is the one
    selector of the vacuum's coupling block, for the closed form of t(k^-2)
    and for the heat quadrature alike."""
    found = [f"{path.name}:{node.lineno}"
             for path in MODULES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if _vacuum_selector(node)]
    assert len(found) == 1, ", ".join(found)


def _owners(tree: ast.Module) -> dict:
    """node -> the innermost "Class.function" or function holding it, or
    "<module>"."""
    owner = {}

    def scope(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{name}.{child.name}" if name else child.name
            owner[child] = inner or "<module>"
            scope(child, inner)

    scope(tree, "")
    return owner


def _hermitian_transposes(tree: ast.Module):
    """(owner, line) of each x.conj().T or x.conjugate().T."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "T"
                and isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr in ("conj", "conjugate")):
            yield owner[node], node.lineno


def test_hermitian_transpose_scan_sees_each_kind():
    tree = ast.parse(
        "a = x.conj().T\n"
        "class C:\n"
        "    def f(self):\n"
        "        def g(y):\n"
        "            return np.conj(y).T\n"
        "        return self.m.conjugate().T + self.m.T\n")
    assert sorted(_hermitian_transposes(tree), key=lambda t: t[1]) == [
        ("<module>", 1), ("C.f.g", 5), ("C.f", 6)]


def test_hermitian_part_is_taken_once():
    """Exactly one x.conj().T in the library, in
    FiniteSectionOperator.__post_init__: a selfadjoint section is checked
    and made Hermitian there alone, K D K, the pencil and heat's k^2 alike."""
    found = [(path.name, func, line) for path in MODULES
             for func, line in _hermitian_transposes(ast.parse(path.read_text(encoding="utf-8")))]
    where = ", ".join(f"{name}:{line} in {func}" for name, func, line in found)
    assert [(name, func) for name, func, _ in found] == [
        ("gns.py", "FiniteSectionOperator.__post_init__")], where


def _staircase_counts(tree: ast.Module):
    """(owner, line) of each x.searchsorted(..., side="left"): the number of
    values of a sorted spectrum below each lambda."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "searchsorted"
                and any(k.arg == "side" and isinstance(k.value, ast.Constant)
                        and k.value.value == "left" for k in node.keywords)):
            yield owner[node], node.lineno


def test_staircase_scan_sees_each_kind():
    tree = ast.parse(
        "a = np.searchsorted(e, x, side='left')\n"
        "class C:\n"
        "    def f(self, x):\n"
        "        b = self.e.searchsorted(x, side=\"left\")\n"
        "        return np.searchsorted(self.e, x) + np.searchsorted(self.e, x, side='right')\n")
    assert sorted(_staircase_counts(tree), key=lambda t: t[1]) == [("<module>", 1), ("C.f", 4)]


def test_staircase_is_counted_once():
    """Exactly one searchsorted(..., side="left") in the library, in
    CountingData.count: weyl_slope, adaptive_counting_ceiling and the CLI's
    staircase all count a spectrum through it (the flat box counts its rows
    in LatticeCountingData.count)."""
    found = [(path.name, func, line) for path in MODULES
             for func, line in _staircase_counts(ast.parse(path.read_text(encoding="utf-8")))]
    where = ", ".join(f"{name}:{line} in {func}" for name, func, line in found)
    assert [(name, func) for name, func, _ in found] == [
        ("spectral.py", "CountingData.count")], where


def _dense_reads(tree: ast.Module):
    """(owner, line) of each x.csr_matrix(a) or csr_matrix(a) whose one
    positional argument is not a tuple: a conversion of a whole matrix, not
    a build from (data, indices, indptr) or an empty (rows, cols) shape."""
    owner = _owners(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and len(node.args) == 1
                and not isinstance(node.args[0], ast.Tuple)
                and (node.func.attr if isinstance(node.func, ast.Attribute)
                     else getattr(node.func, "id", None)) == "csr_matrix"):
            yield owner[node], node.lineno


def test_dense_read_scan_sees_each_kind():
    tree = ast.parse(
        "a = sp.csr_matrix(x)\n"
        "def f(m, n):\n"
        "    b = csr_matrix(m.T) + sp.csr_matrix((n, n), dtype=complex)\n"
        "    return sp.csr_matrix((d, i, p), shape=s) + sp.csc_matrix(m)\n"
        "class C:\n"
        "    def g(self):\n"
        "        return scipy.sparse.csr_matrix(self.m, copy=True)\n")
    assert sorted(_dense_reads(tree), key=lambda t: t[1]) == [
        ("<module>", 1), ("f", 3), ("C.g", 7)]


def test_dense_input_is_read_once():
    """Exactly one whole-matrix csr_matrix(x) in the library, in gns.as_csr:
    a section, a block pattern or a matrix to decompose that arrives dense
    is read through its nonzero mask there, and nowhere by scipy's
    dense-to-CSR conversion."""
    found = [(path.name, func, line) for path in MODULES
             for func, line in _dense_reads(ast.parse(path.read_text(encoding="utf-8")))]
    where = ", ".join(f"{name}:{line} in {func}" for name, func, line in found)
    assert [(name, func) for name, func, _ in found] == [("gns.py", "as_csr")], where


# module -> the package modules it may import ("__init__" for a name of the
# package itself): each layer reads only the layers below it, so spectral
# estimates spectra without building symbols, and acceptance composes them.
LAYERS = {
    "algebra": set(),
    "io": set(),
    "config": {"algebra"},
    "gns": {"algebra"},
    "symbols": {"algebra", "gns"},
    "spectral": {"algebra", "gns"},
    "heat": {"algebra", "gns", "symbols"},
    "acceptance": {"algebra", "config", "gns", "heat", "spectral", "symbols"},
    "cli": {"__init__", "acceptance", "config", "heat", "io", "spectral", "symbols"},
}


def _package_imports(tree: ast.Module) -> set:
    """The package modules a file imports: x of from .x import y, of
    from . import x and of their absolute forms; a name that the package
    itself defines (from . import __version__) counts as "__init__"."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not (node.level or source.partition(".")[0] == "nctorus"):
                continue
            source = source if node.level else source.partition(".")[2]
            if source:
                found.add(source.partition(".")[0])
            else:
                found.update(a.name if a.name in LIBRARY else "__init__" for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, sub = alias.name.partition(".")
                if head == "nctorus":
                    found.add(sub.partition(".")[0] or "__init__")
    return found


def test_import_scan_sees_each_form():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from . import __version__, algebra as alg, io\n"
        "from .gns import BasisWindow\n"
        "from .heat import (ContourSpec,\n"
        "                   laplace_symbol)\n"
        "from scipy import sparse\n"
        "import nctorus.spectral\n"
        "from nctorus import config\n"
        "from nctorus.symbols import residue\n")
    assert _package_imports(tree) == {"__init__", "algebra", "io", "gns", "heat", "spectral",
                                      "config", "symbols"}


def test_module_imports_follow_the_layers():
    """Each library module imports only the package modules its LAYERS row
    names, and every module has a row."""
    assert set(LAYERS) == LIBRARY
    outside = [f"{path.stem} -> {name}" for path in MODULES
               for name in sorted(_package_imports(ast.parse(path.read_text(encoding="utf-8")))
                                  - LAYERS[path.stem])]
    assert not outside, ", ".join(outside)


def test_default_scan_sees_each_kind():
    """The scan finds a function's default, an __init__'s under its class,
    a classmethod's past cls, and a dataclass field's (not a field(init=False))."""
    found = {(callee, param, pos) for _, _, callee, param, pos in _library_defaults()}
    assert {(("algebra", "exp_selfadjoint"), "pad", 2),
            (("symbols", "GradedSymbol"), "winding_cutoff", 4),
            ((None, "build"), "pad", 2), (("heat", "ContourSpec"), "nodes", 0)} <= found
    assert not any(param == "lambda_max" for _, param, _ in found)


def test_every_default_is_passed_by_a_caller():
    """A default that no call in CALLERS overrides has one value in use: it is
    a constant in the body, not a parameter or a field, unless TEST_VARIED
    names it."""
    calls = _calls()
    unused = [f"{module}:{line} {callee[1]}({param})"
              for module, line, callee, param, pos in _library_defaults()
              if (*callee, param) not in TEST_VARIED
              and not any(_passes(c, param, pos) for c in calls.get(callee, ()))]
    assert not unused, ", ".join(unused)


def test_test_varied_defaults_are_test_only():
    """Each TEST_VARIED entry is a default of the library that no call in
    CALLERS passes and that its named test passes."""
    calls = _calls()
    positions = {(*callee, param): pos for _, _, callee, param, pos in _library_defaults()}
    wrong = []
    for key, (test, _) in TEST_VARIED.items():
        file, _, func = test.partition("::")
        path = ROOT / "tests" / file
        tree = ast.parse(path.read_text(encoding="utf-8"))
        body = {id(node) for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == func
                for node in ast.walk(top)}
        callee, param = key[:2], key[2]
        if (key not in positions
                or any(_passes(c, param, positions[key]) for c in calls.get(callee, ()))
                or not any(c == callee and id(node) in body
                           and _passes(node, param, positions[key])
                           for c, node in _resolved_calls(path, tree))):
            wrong.append(f"{'.'.join(callee)}({param}) ({test})")
    assert not wrong, ", ".join(wrong)


CALL_FORMS = """
import numpy as np
import nctorus
from nctorus import spectral as spc
from nctorus.algebra import mul


def run(nct, x, isclose):
    alg, gns = nct.algebra, nct.gns
    np.isclose(1, 2)
    np.linalg.norm(x)
    isclose(1, 2)
    x.isclose(1, 2)
    mul(1, 2)
    alg.exp_selfadjoint(1)
    gns.quadratic_form_values(1)
    spc.weyl_slope(1)
    nctorus.heat.laplace_symbol(1)
    nct.symbols.residue(1)
"""

LIBRARY_CALL_FORMS = """
from . import algebra as alg
from .gns import BasisWindow


def weyl_slope(x):
    return x


def run(x):
    weyl_slope(x)
    alg.mul(x, x)
    BasisWindow(3)
    BasisWindow.index_grids(x)
"""


def test_call_resolution_sees_each_form():
    """Calls resolve through each import form and module alias; calls on
    outside receivers and of unbound names are left out."""
    def resolve(path, source):
        return [callee for callee, _ in _resolved_calls(path, ast.parse(source))]

    assert resolve(ROOT / "tests" / "x.py", CALL_FORMS) == [
        (None, "isclose"), ("algebra", "mul"), ("algebra", "exp_selfadjoint"),
        ("gns", "quadratic_form_values"), ("spectral", "weyl_slope"),
        ("heat", "laplace_symbol"), ("symbols", "residue")]
    assert resolve(SRC / "spectral.py", LIBRARY_CALL_FORMS) == [
        ("spectral", "weyl_slope"), ("algebra", "mul"), ("gns", "BasisWindow"),
        (None, "index_grids")]
