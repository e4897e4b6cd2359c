"""Static checks on the package source: every module uses what it imports,
imports no underscore name from another module of the package, every
top-level function, class or UPPER_CASE constant is referred to somewhere
(assigning a name does not count), every method of a
top-level class other than a dunder is reached by an attribute or a string
somewhere (a local variable of the same name does not count), and every
parameter with a default is passed by some call.  linalg.py, under every enumeration kernel, runs
on the field's tables and never touches a GF arithmetic method; nor do the
maps and the structure check of gf.FieldHom.  Every function of linalg.py
is called by the package or wrapped by perfbench/tracer.py.  Every raise
names FingeoError or a subclass of it from errors.py.  Every form mask of
a coordinate geometry comes from its one form table, which only the
closure kernel and the flat sweep read.  The report records share one
equality rule, geometry.Report's: only Report and the three immutable
records define __eq__.  reconstruct.py, classify.py and geometry.py keep
no module-level cache: the facts they derive live on the geometry objects,
in one memo per geometry (plan), whose stores no other module touches.

The package's __init__.py is skipped by the import check, since its imports
are re-exports; for the definition check they count as references.
"""

import ast
import importlib.util
import math
import pathlib
import re
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "fingeo"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
# everything that may refer to a definition in src/fingeo
CORPUS = sorted(
    p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")
)
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*")


def unused_imports(source):
    """(line, name) for each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def private_imports(source):
    """(line, name) for each underscore name imported from a module of the
    package."""
    return [
        (node.lineno, a.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "fingeo")
        for a in node.names
        if a.name.startswith("_")
    ]


def referenced_names(source):
    """Names a module refers to: plain names read (not assigned) and
    imported names as they are, attribute names and string constants
    spelling a name (lookups by name) with a leading dot, since only those
    can reach a method.  A top-level definition's references to itself do
    not count."""
    out = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, DEFINITIONS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = "." + node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = "." + node.value
            else:
                continue
            if name.lstrip(".") != own:
                out.add(name)
    return out


def dead_definitions(source, referenced):
    """(line, name) for each top-level function, class or UPPER_CASE
    constant of the module that is not among the referenced names, and
    (line, "Class.method") for each method of a top-level class, other than
    a dunder, that no attribute or string refers to."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [
                (node.lineno, t.id)
                for t in targets
                if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)
                and not {t.id, "." + t.id} & referenced
            ]
        if not isinstance(node, DEFINITIONS):
            continue
        if not {node.name, "." + node.name} & referenced:
            out.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            out += [
                (method.lineno, f"{node.name}.{method.name}")
                for method in node.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (method.name.startswith("__") and method.name.endswith("__"))
                and "." + method.name not in referenced
            ]
    return sorted(out)


def call_arguments(sources):
    """Called name -> (positional count, keyword names) for each call in the
    sources.  A starred argument passes every position; a double-starred one
    shows up as the keyword name None and passes every keyword."""
    out = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            npos = math.inf if starred else len(node.args)
            out.setdefault(name, []).append((npos, {k.arg for k in node.keywords}))
    return out


def defaulted_parameters(source):
    """(line, called name, parameter, position) for each parameter with a
    default of a function or method, nested ones included.  The called name
    of __init__ is its class; position is the index of the argument at a
    call, without self or cls, and None for a keyword-only parameter."""
    out = []

    def visit(body, cls):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                name = cls if node.name == "__init__" else node.name
                first = len(positional) - len(args.defaults)
                for i in range(first, len(positional)):
                    out.append((node.lineno, name, positional[i].arg, i))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((node.lineno, name, arg.arg, None))
                visit(node.body, None)

    visit(ast.parse(source).body, None)
    return out


def unset_options(source, calls):
    """(line, called name, parameter) for each parameter with a default that
    no call in calls (as from call_arguments) passes."""
    return [
        (line, name, param)
        for line, name, param, pos in defaulted_parameters(source)
        if not any(
            (pos is not None and pos < npos) or param in kws or None in kws
            for npos, kws in calls.get(name, ())
        )
    ]


def test_modules_found():
    assert "classify.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "import os\nfrom .geometry import Flat, bits_of\n\nprint(bits_of)\n"
    assert unused_imports(source) == [(1, "os"), (2, "Flat")]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_private_imports(module):
    assert private_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_private_import_is_reported():
    source = (
        "from __future__ import annotations\n"
        "from collections import _chain\n"
        "from .classify import Verdict, _cached\n"
        "from fingeo.geometry import _QuotientClasses\n"
    )
    assert private_imports(source) == [(3, "_cached"), (4, "_QuotientClasses")]


@pytest.fixture(scope="module")
def corpus_references():
    return set().union(*(referenced_names(p.read_text(encoding="utf-8")) for p in CORPUS))


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_definitions(module, corpus_references):
    assert dead_definitions((SRC / module).read_text(encoding="utf-8"), corpus_references) == []


def test_dead_definition_is_reported():
    source = (
        "def used():\n    return 1\n\n\n"
        "def dead(n):\n    return dead(n - 1)\n\n\n"
        "class ByName:\n    pass\n"
    )
    other = "from .m import used\n\nhandler = getattr(m, 'ByName')\n"
    referenced = referenced_names(source) | referenced_names(other)
    assert dead_definitions(source, referenced) == [(5, "dead")]


def test_dead_constant_is_reported():
    source = (
        "USED = 1\nBY_ATTRIBUTE = 2\nDEAD = 3\nDEAD_TOO: int = 4\nlower = 5\n_PRIVATE = 6\n\n\n"
        "def f():\n    return USED\n"
    )
    # assigning DEAD elsewhere is no read of it
    other = "from . import m\n\nprint(m.BY_ATTRIBUTE, m.f())\nDEAD = 0\n"
    referenced = referenced_names(source) | referenced_names(other)
    assert dead_definitions(source, referenced) == [(3, "DEAD"), (4, "DEAD_TOO")]


def test_dead_method_is_reported():
    source = (
        "class Used:\n"
        "    def __init__(self):\n        self.x = self.helper()\n\n"
        "    def helper(self):\n        return 1\n\n"
        "    def apply(self, v):\n        return v\n\n"
        "    @property\n    def size(self):\n        return 2\n\n"
        "    @property\n    def members(self):\n        return 3\n"
    )
    # members appears elsewhere only as a local variable
    other = "from .m import Used\n\nprint(Used().size)\nfor members in ([],):\n    print(members)\n"
    referenced = referenced_names(source) | referenced_names(other)
    assert dead_definitions(source, referenced) == [(8, "Used.apply"), (16, "Used.members")]


@pytest.fixture(scope="module")
def corpus_calls():
    return call_arguments(p.read_text(encoding="utf-8") for p in CORPUS)


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_no_unset_options(module, corpus_calls):
    assert unset_options((SRC / module).read_text(encoding="utf-8"), corpus_calls) == []


def test_unset_option_is_reported():
    source = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    def inner(g=0):\n"
        "        return g\n"
        "    return inner()\n\n\n"
        "class C:\n"
        "    def __init__(self, x, y=0):\n"
        "        self.x = x\n\n"
        "    def m(self, z=None):\n"
        "        return z\n\n"
        "    @staticmethod\n"
        "    def s(w=1):\n"
        "        return w\n"
    )
    other = "f(1, 2, d=0)\nC(1).m(5)\nC.s(**{})\nf(*args)\n"
    calls = call_arguments([source, other])
    assert unset_options(source, calls) == [(1, "f", "e"), (2, "inner", "g"), (8, "C", "y")]


def fingeo_errors(source):
    """The names of FingeoError and of the classes of the errors module
    source that derive from it."""
    names = {"FingeoError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) in names for b in node.bases):
            names.add(node.name)
    return names


def untyped_raises(source, typed):
    """(line, name) for each raise whose exception is named outside typed.
    A bare re-raise passes, and the cause of raise ... from is not read."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            if name not in typed:
                out.append((node.lineno, ast.unparse(exc)))
    return sorted(out)


@pytest.fixture(scope="module")
def typed_errors():
    return fingeo_errors((SRC / "errors.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", MODULES)
def test_every_raise_is_typed(module, typed_errors):
    """Every library failure is a FingeoError."""
    assert untyped_raises((SRC / module).read_text(encoding="utf-8"), typed_errors) == []


def test_untyped_raise_is_reported():
    errors = "class FingeoError(Exception):\n    pass\n\n\nclass Typed(FingeoError, ValueError):\n    pass\n"
    source = (
        "def f(x):\n"
        "    try:\n"
        "        g(x)\n"
        "    except KeyError as exc:\n"
        "        raise errors.Typed(x) from exc\n"
        "    except OSError:\n"
        "        raise\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    raise NotImplementedError\n"
    )
    assert untyped_raises(source, fingeo_errors(errors)) == [(9, "ValueError"), (10, "NotImplementedError")]


MUTABLE = (ast.Dict, ast.Set, ast.DictComp, ast.SetComp)
# gf.interned is the package's lru_cache decorator
CACHE_NAMES = ("lru_cache", "cache", "interned")


def module_caches(source):
    """(line, text) for each place a module could memoise across calls for
    the whole process: a dict or set built in an assignment at module or
    class level, and every use of lru_cache, functools.cache or gf.interned."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
        for node in scope.body:
            value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
            if value is not None and any(
                isinstance(n, MUTABLE) or (isinstance(n, ast.Call) and ast.unparse(n.func) in ("dict", "set"))
                for n in ast.walk(value)
            ):
                out.append((node.lineno, ast.unparse(value)))
    for node in ast.walk(tree):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in CACHE_NAMES:
            out.append((node.lineno, ast.unparse(node)))
    return sorted(out)


def test_reconstruction_keeps_no_module_cache():
    """A process-wide memo would grow with every input and make repeated
    reconstructions free; the plans of reconstruct.py live on geometries."""
    assert module_caches((SRC / "reconstruct.py").read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", ["classify.py", "geometry.py"])
def test_memo_modules_keep_no_module_cache(module):
    """The derived facts of a geometry live in its own memo, so classify.py
    and geometry.py keep no process-wide one either."""
    assert module_caches((SRC / module).read_text(encoding="utf-8")) == []


def test_module_cache_is_reported():
    source = (
        "import functools\n"
        "PLANS = {}\n"
        "SEEN: set = set()\n"
        "ORDER = (1, 2)\n"
        "\n"
        "\n"
        "class Engine:\n"
        "    memo = {k: k for k in ORDER}\n"
        "\n"
        "    @functools.cached_property\n"
        "    def plans(self):\n"
        "        return {}\n"
        "\n"
        "\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def frame(n):\n"
        "    local = {}\n"
        "    return local\n"
        "\n"
        "\n"
        "@functools.cache\n"
        "def pair(n):\n"
        "    return n\n"
        "\n"
        "\n"
        "leg = gf.interned('n')(pair)\n"
    )
    assert module_caches(source) == [
        (2, "{}"),
        (3, "set()"),
        (8, "{k: k for k in ORDER}"),
        (15, "functools.lru_cache"),
        (21, "functools.cache"),
        (26, "gf.interned"),
    ]


FIELD_METHODS = ("add", "sub", "neg", "mul", "inv", "div")


def field_method_uses(source):
    """(line, name) for each attribute named after a GF arithmetic method,
    called in place or bound to a local name first."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in FIELD_METHODS
    )


def test_linalg_runs_on_field_tables():
    """linalg, and the per-element maps and structure check of gf.FieldHom."""
    assert field_method_uses((SRC / "linalg.py").read_text(encoding="utf-8")) == []
    source = (SRC / "gf.py").read_text(encoding="utf-8")
    hom = next(n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == "FieldHom")
    methods = {f.name: f for f in hom.body if isinstance(f, ast.FunctionDef)}
    for name in ("map_vec", "map_matrix", "preserves_structure"):
        body = textwrap.dedent(ast.get_source_segment(source, methods[name]))
        assert field_method_uses(body) == [], name


def test_field_method_is_reported():
    source = (
        "def f(K, a, b):\n"
        "    add, mul = K._add, K._mul\n"
        "    c = K.mul(a, b)\n"
        "    inv = K.inv\n"
        "    return add[c][mul[a][b]], inv(a), K.q\n"
    )
    assert field_method_uses(source) == [(3, "mul"), (4, "inv")]


# the form table's readers, and the names of the per-form routes it replaced
TABLE_READERS = ("trace_mask", "_build_flats")
FORM_MASK_NAME = re.compile(r"(?i)(form|value)_?masks?")


def form_mask_routes(source):
    """(line, name) for each mask route beside the one form table: a
    definition, attribute or name like form_mask, _form_masks or
    _value_masks, and a read of _form_table or of linalg.annihilator in a
    function (or method) other than TABLE_READERS."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, DEFINITIONS):
                name = child.name
            elif isinstance(child, ast.Attribute):
                name = child.attr
            elif isinstance(child, (ast.Name, ast.arg)):
                name = getattr(child, "id", None) or child.arg
            if name and FORM_MASK_NAME.search(name):
                out.append((child.lineno, name))
            reads_table = isinstance(child, ast.Attribute) and child.attr in ("_form_table", "annihilator")
            if reads_table and owner not in TABLE_READERS:
                out.append((child.lineno, f"{owner}: {child.attr}"))
            is_function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_function and owner is None else owner)

    visit(ast.parse(source), None)
    return sorted(out)


def test_one_form_mask_route():
    """Every form mask of a coordinate geometry comes from its form table,
    and only the closure kernel and the flat sweep read it."""
    for module in MODULES:
        if module != "linalg.py":  # kernel_basis reads annihilator forms, no masks
            assert form_mask_routes((SRC / module).read_text(encoding="utf-8")) == [], module


def test_second_form_mask_route_is_reported():
    source = (
        "class G:\n"
        "    def form_mask(self, form):\n"
        "        return self._form_masks[form]\n"
        "\n"
        "    def trace_mask(self, rows, pivots):\n"
        "        return [self._form_table[f] for f in linalg.annihilator(rows, pivots)]\n"
        "\n"
        "    def _form_table(self):\n"
        "        return dict(self._value_masks)\n"
        "\n"
        "    def lines(self):\n"
        "        return self._form_table\n"
    )
    assert form_mask_routes(source) == [
        (2, "form_mask"), (3, "_form_masks"), (9, "_value_masks"), (12, "lines: _form_table"),
    ]


# the keyed stores a geometry keeps: the one memo of derived facts (plan),
# the closure memo, the point quotients the tracer counts and the
# coordinate index
KEYED_STORES = {"_plans", "_closure_memo", "_point_quotients", "_vec_index"}


def keyed_stores(source):
    """(line, name) for each self.<name> that an __init__ sets to a dict or a
    set: the stores a class keeps per key."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for a in ast.walk(node):
                if isinstance(a, ast.Assign) and (
                    isinstance(a.value, MUTABLE)
                    or (isinstance(a.value, ast.Call) and ast.unparse(a.value.func) in ("dict", "set"))
                ):
                    out += [(a.lineno, t.attr) for t in a.targets
                            if isinstance(t, ast.Attribute) and ast.unparse(t.value) == "self"]
    return sorted(out)


def store_accesses(source, names):
    """(line, name) for each attribute read or written whose name is in names."""
    return sorted((n.lineno, n.attr) for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in names)


def test_one_memo_per_geometry():
    """A geometry keeps its derived facts in one memo, reached by plan: its
    __init__ makes no other keyed store, and no module but geometry.py
    reads or writes one of its stores."""
    source = (SRC / "geometry.py").read_text(encoding="utf-8")
    stores = {name for _, name in keyed_stores(source)}
    others = {m: store_accesses((SRC / m).read_text(encoding="utf-8"), stores) for m in MODULES if m != "geometry.py"}
    assert (stores - KEYED_STORES, {m: found for m, found in others.items() if found}) == (set(), {})


def test_second_memo_is_reported():
    source = (
        "class Geometry:\n"
        "    def __init__(self, n):\n"
        "        self._plans = {}\n"
        "        self._cache = dict()\n"
        "        self.order = (1, 2)\n"
        "        self._seen = {k for k in range(n)}\n"
        "\n"
        "    def plan(self, k):\n"
        "        self._memo = {}\n"
        "        return self._plans.get(k)\n"
    )
    stores = keyed_stores(source)
    assert stores == [(3, "_plans"), (4, "_cache"), (6, "_seen")]
    # an access from another module, read or write, is reported
    other = "def predicate(X):\n    got = X._cache.get(1)\n    X._plans[1] = got\n    return X.order\n"
    assert store_accesses(other, {name for _, name in stores}) == [(2, "_cache"), (3, "_plans")]


# the classes with an equality rule of their own: the report records'
# shared base and the three immutable, hashable records
OWN_EQUALITY = {"Report", "Flat", "FieldElement", "PartialPointMap"}


def classes_defining_eq(source):
    """(line, name) for each class whose body defines __eq__."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "__eq__" for f in node.body)
    )


def test_one_report_equality_rule():
    """A report record inherits its __eq__ from geometry.Report."""
    found = {name for module in MODULES for _, name in classes_defining_eq((SRC / module).read_text(encoding="utf-8"))}
    assert found == OWN_EQUALITY


def test_own_equality_rule_is_reported():
    source = (
        "class Report:\n"
        "    def __eq__(self, other):\n"
        "        return vars(self) == vars(other)\n"
        "\n"
        "\n"
        "class Verdict(Report):\n"
        "    def __bool__(self):\n"
        "        return True\n"
        "\n"
        "    def __eq__(self, other):\n"
        "        return type(other) is Verdict\n"
    )
    assert classes_defining_eq(source) == [(1, "Report"), (6, "Verdict")]


def load_tracer():
    """perfbench/tracer.py as a module, without installing it; it imports
    only the standard library."""
    spec = importlib.util.spec_from_file_location("tracer_names", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def linalg_calls(modules):
    """Names called as linalg.<name>(...) in the modules, a mapping of file
    name to source, and as a bare <name>(...) in linalg.py itself."""
    out = set()
    for module, source in modules.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "linalg":
                out.add(func.attr)
            elif isinstance(func, ast.Name) and module == "linalg.py":
                out.add(func.id)
    return out


def uncalled_linalg(modules, exempt):
    """(line, name) for each top-level function of linalg.py that no module
    calls and exempt does not hold."""
    called = linalg_calls(modules)
    return [
        (node.lineno, node.name)
        for node in ast.parse(modules["linalg.py"]).body
        if isinstance(node, ast.FunctionDef) and node.name not in called | set(exempt)
    ]


def test_linalg_functions_are_called():
    """A kernel that only tests call belongs with them; the tracer wraps
    its LINALG names by getattr, so those stay."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert uncalled_linalg(modules, load_tracer().LINALG) == []


def test_uncalled_linalg_is_reported():
    linalg = (
        "def used():\n    return 1\n\n\n"
        "def traced():\n    return used()\n\n\n"
        "def inverse(M):\n    return M\n\n\n"
        "def passed(v):\n    return v\n"
    )
    # a method of the same name is not the kernel, and passing a kernel
    # by name is no call of it
    other = "from . import linalg\n\nsigma.inverse()\nmap(linalg.passed, [])\n"
    modules = {"linalg.py": linalg, "other.py": other}
    assert uncalled_linalg(modules, ("traced",)) == [(9, "inverse"), (13, "passed")]


def test_tracer_names_exist():
    """The tracer finds what it wraps by name (getattr, rebinding, a class's
    own attributes), so a renamed or deleted library name must fail here
    and not only in a traced benchmark run."""
    # as modules: the package re-exports the function gf under the name of
    # its module
    classify, cli, gallery, geometry, gf, linalg, projective, reconstruct, serialize = (
        importlib.import_module(f"fingeo.{m}")
        for m in ("classify", "cli", "gallery", "geometry", "gf", "linalg", "projective",
                  "reconstruct", "serialize")
    )
    tracer = load_tracer()
    functions = [(linalg, a) for a in tracer.LINALG]
    functions += [(projective, a) for a in tracer.PROJECTIVE]
    functions += [(reconstruct, a) for a in tracer.RECONSTRUCT]
    functions += [(serialize, a) for a in tracer.SERIALIZE]
    functions += [(classify, a) for a in tracer.PREDICATES.values()]
    functions += [(classify, "classify")]
    functions += [(cli, f"cmd_{c}") for c in tracer.CLI_COMMANDS]
    functions += [(gallery, "build_example"), (gf, "list_homomorphisms")]
    functions += [(geometry, a) for a in ("check_geometry_axioms", "CoordGeometry", "QuotientGeometry")]
    missing = [f"{m.__name__}.{a}" for m, a in functions if not callable(getattr(m, a, None))]
    methods = [(geometry.FiniteGeometry, a) for a in ("closure_mask", "flats", "point_quotient")]
    methods += [(gf.FieldHom, a) for a in ("map_vec", "map_matrix", "preserves_structure")]
    missing += [f"{c.__name__}.{a}" for c, a in methods if not callable(vars(c).get(a))]
    G = projective.build_pg(2, 2)
    missing += [f"instance.{a}" for a in ("_flats", "_point_quotients") if not hasattr(G, a)]
    assert missing == []
    # the tracer tells a cold call from a warm one by these caches: a fresh
    # geometry (build_pg interns its spaces) has neither, and each call
    # fills its own
    for fresh in (geometry.CoordGeometry(G.field, G.vectors), geometry.TableGeometry(7, G.flats())):
        assert fresh._flats is None and fresh._point_quotients == {}, fresh
        fresh.flats()
        assert isinstance(fresh._flats, tuple), fresh
        fresh.point_quotient(0)
        assert list(fresh._point_quotients) == [0], fresh
