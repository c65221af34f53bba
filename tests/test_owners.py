"""One owner per decision: 1 - |z|^2 is formed by disc_geometry.one_minus_abs2,
the pseudo-hyperbolic distance and its complement by
disc_geometry.pseudo_hyperbolic, the automorphism denominator 1 + conj(c) z by
the Blaschke kernels' identity (1 - |c|^2) + conj(c)(z + c), roots are located
against the closed disc by functions.roots_in_closed_disc, polynomial data is
read through FunctionSpec.coeffs, a finite Blaschke spec's product is built once, by
FunctionSpec.finite_blaschke, artifacts are written by cli.main, which cli.run
alone calls, the process is ended by cli.run, JSON text is written by
serialize.dumps, the Gauss-Legendre table is built by quadrature.gl_rule, and
exact polynomial products by exactpoly.poly_mul, in a module without numpy.
blaschke takes angles from math.atan2, not np.angle, and decides the home
sector by Sector.contains alone. Record classes are built on records.Record,
whose to_dict no record writes again, and src/ generates no code. Every
top-level function in src/ has a caller there or is public, every method has
a caller there (through a receiver of its class where another class shares
its name), and every setting is set by a caller there, so code and
settings that only the tests use stay out of src/.  The invariant suites of
--selftest live in the selftest module alone, which only cli._Selftest loads."""

import ast
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import corona_lab
from corona_lab import blaschke
from corona_lab.blaschke import (BlaschkeProduct, DiscSequence, carleson_diagnostics,
                                 compose_with_mobius, construct_ladder)
from corona_lab.corona import CoronaInstance, bezout_exact
from corona_lab.disc_geometry import (MobiusAut, one_minus_abs2, pseudo_disc_euclidean,
                                      pseudo_distance, pseudo_hyperbolic)
from corona_lab.errors import DomainError, UnsolvableError
from corona_lab.exactpoly import iterated_xgcd, poly_from_complex, poly_to_complex
from corona_lab.functions import FunctionSpec, roots_in_closed_disc
from corona_lab.hoffman import schwarz_check
from corona_lab.measures import PushforwardDensity, SimpleDensity, poisson_kernel

EPS = np.finfo(float).eps
SRC = Path(corona_lab.__file__).parent


def _sites(test) -> list:
    """'module.py:function' of every AST node in src/ for which test holds."""
    found = []

    def visit(node, path, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name if where is None else where
        if test(node):
            found.append(f"{path.name}:{where}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, where)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, None)
    return found


def _attr(node, name: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == name


def _calls(name: str):
    """Node test: a call of name, bare or as an attribute."""
    def call(node):
        return isinstance(node, ast.Call) and (
            _attr(node.func, name) or isinstance(node.func, ast.Name) and node.func.id == name)
    return call


def _is_abs_squared(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and isinstance(node.right, ast.Constant) and node.right.value == 2
            and isinstance(node.left, ast.Call)
            and (_attr(node.left.func, "abs")
                 or isinstance(node.left.func, ast.Name) and node.left.func.id == "abs"))


def test_one_minus_abs2_is_formed_in_disc_geometry_only():
    def subtraction(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and isinstance(node.left, ast.Constant) and node.left.value == 1
                and _is_abs_squared(node.right))

    def veltkamp(node):
        return isinstance(node, ast.Constant) and node.value == 134217729.0

    assert _sites(subtraction) == []
    assert _sites(veltkamp) == ["disc_geometry.py:one_minus_abs2"]


def _is_abs_call(node) -> bool:
    return _calls("abs")(node) and len(node.args) == 1


def _one_minus(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant) and node.left.value == 1)


def _conj(node) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    return _calls("conj")(node) or _calls("conjugate")(node)


def test_the_pseudo_hyperbolic_distance_is_formed_in_disc_geometry_only():
    # |1 - conj(w) z| and 1 - |phi_c(a)| both cancel next to the circle;
    # pseudo_hyperbolic forms rho and 1 - rho without either (no src/
    # function forms 1 - conj(w) z at all: see the automorphism guard)
    def one_minus_abs_of_transported(fn):
        # a transported point is a MobiusAut apply or inverse, or a name bound to one
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        moves = [n for n in ast.walk(fn) if _calls("apply")(n) or _calls("inverse")(n)]
        moved = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and n.value in moves
                 for t in n.targets if isinstance(t, ast.Name)}
        return any(_one_minus(n) and _is_abs_call(n.right) and any(
            m in moves or isinstance(m, ast.Name) and m.id in moved
            for m in ast.walk(n.right.args[0])) for n in ast.walk(fn))

    def transported_gaps(node):
        name = getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
        return name == "_transported_gaps"

    kernel = "disc_geometry.py:pseudo_hyperbolic"
    assert [site for site in _sites(one_minus_abs_of_transported) if site != kernel] == []
    assert _sites(transported_gaps) == []


def _one_plus_or_minus_conj_product(node) -> bool:
    """1 + conj(c) z, 1 - conj(a) z and their mirrors: a difference that
    cancels where both points lie next to the circle."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))):
        return False
    for one, other in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(one, ast.Constant) and one.value == 1 and isinstance(other, ast.BinOp)
                and isinstance(other.op, ast.Mult) and (_conj(other.left) or _conj(other.right))):
            return True
    return False


def test_automorphism_denominators_use_the_blaschke_identity():
    # 1 + conj(c) z is formed as (1 - |c|^2) + conj(c)(z + c), the identity
    # the Blaschke kernels use, in the Mobius maps and the recentring
    # rotation alike; the pushforward Jacobian is the Poisson kernel at -c
    assert _sites(_one_plus_or_minus_conj_product) == []


def test_separation_tails_form_one_minus_abs2_once_per_point(monkeypatch):
    calls = []

    def counted(z):
        calls.append(z)
        return one_minus_abs2(z)

    monkeypatch.setattr(blaschke, "one_minus_abs2", counted)
    pts = tuple(0.9 * np.exp(2j * np.pi * k / 11) * (1 - 0.05 * k) for k in range(11))
    seq = DiscSequence(pts)
    carleson_diagnostics(seq)
    carleson_diagnostics(seq)
    assert calls == list(pts)


def test_blaschke_kernels_form_one_minus_abs2_once_per_zero(monkeypatch):
    # _factor_product takes the zeros' 1 - |a|^2 in: min_modulus_on_disc
    # forms it once per call for all zeros, a product once for its lifetime
    calls = []

    def counted(z):
        calls.append(z)
        return one_minus_abs2(z)

    monkeypatch.setattr(blaschke, "one_minus_abs2", counted)
    zeros = [(1 - 0.5 / k ** 2) * np.exp(0.1j * k) for k in range(1, 30)]
    blaschke.min_modulus_on_disc(zeros, 0.75)
    assert calls == zeros
    calls.clear()
    b = BlaschkeProduct(tuple(zeros[:11]))
    z = 0.5 * np.exp(1j * np.arange(5))
    b(z)
    b.derivative(z)
    b(z[:1])
    assert calls == list(b.zeros)


def test_the_schwarz_check_forms_one_minus_abs2_once_per_point(monkeypatch):
    # the sequence's product reads its zeros' 1 - |c|^2 from the sequence
    calls = []

    def counted(z):
        calls.append(z)
        return one_minus_abs2(z)

    monkeypatch.setattr(blaschke, "one_minus_abs2", counted)
    pts = tuple((1 - 0.5 ** (1 + k % 4)) * np.exp(2j * np.pi * k / 40) for k in range(40))
    schwarz_check(DiscSequence(pts))
    assert calls == list(pts)


def test_blaschke_takes_angles_from_libm():
    # the home-sector decisions read each zero's angle from math.atan2;
    # np.angle rounds differently at different numpy SIMD dispatch levels
    assert [site for site in _sites(_calls("angle")) if site.startswith("blaschke.py:")] == []


def test_the_home_sector_is_decided_by_sector_contains_only():
    # construct_ladder refuses its zeros through Sector.contains; the
    # recentring rotation is blaschke's one other reader of an angle
    found = []
    for top in ast.parse((SRC / "blaschke.py").read_text()).body:
        methods = top.body if isinstance(top, ast.ClassDef) else [top]
        for fn in methods:
            if (isinstance(fn, ast.FunctionDef)
                    and any(_calls("atan2")(node) for node in ast.walk(fn))):
                found.append(fn.name if fn is top else f"{top.name}.{fn.name}")
    assert found == ["compose_with_mobius", "Sector.contains"]


def test_records_take_their_json_form_from_record():
    # Record.to_dict is the fields by name; a to_dict that returns the dict
    # of its own fields, in order, read from self, is a second copy of it
    copies = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef)
                    and any(getattr(base, "id", None) == "Record" for base in cls.bases)):
                continue
            fields = [f.target.id for f in cls.body if isinstance(f, ast.AnnAssign)]
            own = ast.parse("return {%s}" % ", ".join(f"{f!r}: self.{f}" for f in fields))
            copies.extend(f"{path.name}:{cls.name}" for fn in cls.body
                          if isinstance(fn, ast.FunctionDef) and fn.name == "to_dict"
                          and ast.dump(ast.Module(fn.body, [])) == ast.dump(own))
    assert copies == []


def test_roots_are_located_in_one_place():
    assert _sites(lambda n: isinstance(n, ast.Call) and _attr(n.func, "roots")) == [
        "functions.py:roots_in_closed_disc"]


def test_only_functions_reads_kind_and_payload():
    def branch(node):
        return ((isinstance(node, ast.Compare)
                 and any(_attr(n, "kind") for n in (node.left, *node.comparators)))
                or (isinstance(node, ast.Subscript) and _attr(node.value, "payload")))

    assert {site.split(":")[0] for site in _sites(branch)} == {"functions.py"}


def test_artifacts_are_written_by_main_only():
    assert _sites(_calls("_emit")) == ["cli.py:main"]


def test_the_process_is_ended_by_cli_run_only():
    # os._exit skips the interpreter's teardown; run, the entry point that
    # __main__.py calls, is its one caller, so every library and in-process
    # caller of main keeps a live interpreter, and run is the one process
    # entry that calls main
    def hard_exit(node):
        return _attr(node, "_exit") or isinstance(node, ast.Name) and node.id == "_exit"

    assert _sites(hard_exit) == ["cli.py:run"]
    assert [site.split(":")[0] for site in _sites(_calls("run"))] == ["__main__.py"]
    assert _sites(_calls("main")) == ["cli.py:run"]


def test_a_blaschke_spec_builds_its_product_once():
    # finite_blaschke keeps the product it validated; evaluation reads it
    # instead of building a new one per call
    assert [site for site in _sites(_calls("BlaschkeProduct"))
            if site.startswith("functions.py:")] == ["functions.py:finite_blaschke"]


def test_json_text_is_written_by_serialize_dumps_only():
    # json only parses: no call of json.dump or json.dumps, and no import of either
    def json_writer(node):
        return (isinstance(node, ast.Call)
                and (_attr(node.func, "dump") or _attr(node.func, "dumps"))
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json")

    def imported_writer(node):
        return (isinstance(node, ast.ImportFrom) and node.module == "json"
                and any(alias.name in ("dump", "dumps") for alias in node.names))

    assert _sites(json_writer) == []
    assert _sites(imported_writer) == []


def test_delta_is_measured_by_its_two_readers_only():
    def delta_hat(node):
        return (_attr(node, "delta_hat") or isinstance(node, ast.Name) and node.id == "delta_hat"
                or isinstance(node, ast.Constant) and node.value == "delta_hat")

    assert _sites(_calls("measure_delta")) == ["cli.py:_cmd_delta", "corona.py:bezout_numeric"]
    assert _sites(delta_hat) == []


def test_the_gauss_legendre_table_is_built_in_gl_rule_only():
    def leggauss(node):
        return _attr(node, "leggauss") or isinstance(node, ast.Name) and node.id == "leggauss"

    assert _sites(leggauss) == ["quadrature.py:gl_rule"]


def test_exactpoly_imports_math_and_errors_only():
    # poly_mul is the one exact product: no numpy kernel can come back
    tree = ast.parse((SRC / "exactpoly.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {"." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert imported == {"math", ".errors"}
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "np"] == []


def test_records_are_built_without_generated_code():
    # records.Record writes once the methods that dataclasses would generate
    # and compile for each class when its module is imported
    def imports_dataclasses(node):
        return (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    assert _sites(imports_dataclasses) == []
    assert _sites(lambda node: any(_calls(name)(node) for name in ("exec", "eval", "compile"))) == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _unreferenced(sources: dict, untyped_calls: dict) -> tuple[list, set]:
    """'module.py:owner' of every top-level function and every non-dunder
    method or property in sources (file name -> text) that no code there
    names outside its own body, and the (site, name) of every call of a
    shared method name whose receiver's class the resolver cannot tell.

    A name is matched bare, except a method name that two or more classes
    define: that names the method its receiver's class finds first in its
    bases, so it counts only through a receiver of that class or of a
    subclass.  A receiver's class is known for self and cls in a method, a
    class name, a parameter annotated with a class, and a local whose every
    binding is a constructor call or a call of a function or method whose
    return annotation names a class.  untyped_calls maps each other site,
    ('module.py:owner', name), to the receiver's class read from the code."""
    trees = {name: ast.parse(text) for name, text in sorted(sources.items())}
    classes = {node.name: node for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    methods = {cls: {fn.name: fn for fn in node.body if isinstance(fn, _FUNCTIONS)}
               for cls, node in classes.items()}
    functions = {fn.name: fn for tree in trees.values() for fn in tree.body
                 if isinstance(fn, _FUNCTIONS)}
    counts = Counter(name for own in methods.values() for name in own)
    shared = {name for name, n in counts.items() if n > 1 and not name.startswith("__")}

    def lookup(cls, name):
        if name in methods[cls]:
            return cls
        bases = [b.id for b in classes[cls].bases if isinstance(b, ast.Name) and b.id in classes]
        return next(filter(None, (lookup(base, name) for base in bases)), None)

    def class_of(annotation):
        name = getattr(annotation, "id", getattr(annotation, "value", None))
        return name if isinstance(name, str) and name in classes else None

    def type_of(node, scope):
        if isinstance(node, ast.Name):
            return scope.get(node.id, class_of(node))
        if not isinstance(node, ast.Call):
            return None
        fn, callee = node.func, None
        if isinstance(fn, ast.Name) and fn.id not in scope:
            if fn.id in classes:
                return fn.id
            callee = functions.get(fn.id)
        elif isinstance(fn, ast.Attribute) and (cls := type_of(fn.value, scope)):
            owner = lookup(cls, fn.attr)
            callee = owner and methods[owner][fn.attr]
        return callee and class_of(callee.returns)

    def bound(node, scope, cls):
        """scope inside a module, function or lambda: each parameter's and
        local's class, or None where its bindings do not agree on one."""
        fixed, bindings = {}, []
        args = getattr(node, "args", None)
        params = [] if args is None else [p for p in (*args.posonlyargs, *args.args, args.vararg,
                                                      *args.kwonlyargs, args.kwarg) if p]
        for i, p in enumerate(params):
            first = i == 0 and cls is not None and p.arg in ("self", "cls")
            fixed[p.arg] = cls if first else class_of(p.annotation)
        stack = list(node.body) if isinstance(node.body, list) else [node.body]
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.Assign, ast.AnnAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                bindings.extend((t.id, n) for t in targets if isinstance(t, ast.Name))
                stack.extend(t for t in targets if not isinstance(t, ast.Name))
                stack.extend([n.value] if n.value is not None else [])
                continue
            if isinstance(n, _FUNCTIONS) and args is not None:
                bindings.append((n.name, None))     # a nested function
            elif isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
                bindings.append((n.id, None))
            if not isinstance(n, (*_FUNCTIONS, ast.ClassDef, ast.Lambda)):
                stack.extend(ast.iter_child_nodes(n))
        scope = {**scope, **{name: None for name, _ in bindings}, **fixed}
        while True:
            types = {name: {kind} for name, kind in fixed.items()}
            for name, n in bindings:
                types.setdefault(name, set()).add(
                    class_of(n.annotation) if isinstance(n, ast.AnnAssign)
                    else n and type_of(n.value, scope))
            new = {**scope, **{name: kinds.pop() if len(kinds) == 1 else None
                               for name, kinds in types.items()}}
            if new == scope:
                return scope
            scope = new

    defined, referenced, resolved, untyped = [], set(), set(), set()

    def visit(node, module, site, cls, owners, own, scope):
        # cls is the class whose body holds node directly
        if isinstance(node, (*_FUNCTIONS, ast.Lambda)):
            scope = bound(node, scope, cls)
            if not isinstance(node, ast.Lambda):
                owner = node.name if cls is None else f"{cls}.{node.name}"
                if not owners and not node.name.startswith("__"):
                    defined.append((module, owner, node.name, cls))
                site = site or f"{module}:{owner}"
                owners, own = owners | {node.name}, own | {(cls, node.name)}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name is not None and name not in owners:
            referenced.add(name)
        if isinstance(node, ast.Attribute) and node.attr in shared:
            receiver = type_of(node.value, scope)
            if receiver is None:
                untyped.add((site or f"{module}:", node.attr))
            elif (method := (lookup(receiver, node.attr), node.attr)) not in own:
                resolved.add(method)
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            visit(child, module, site, inner, owners, own, scope)

    for module, tree in trees.items():
        visit(tree, module, None, None, frozenset(), frozenset(), bound(tree, {}, None))
    resolved.update((lookup(cls, name), name) for (_, name), cls in untyped_calls.items())
    return [f"{module}:{owner}" for module, owner, name, cls in defined
            if ((cls, name) not in resolved if cls and name in shared
                else name not in referenced)], untyped


# the calls of a shared method name whose receiver's class the resolver
# cannot tell, each with that class as the code gives it
UNTYPED_CALLS = {
    ("cli.py:_cmd_measure_fit", "to_dict"): "SimpleDensity",               # fit.density
    ("corona.py:BezoutCertificate.to_dict", "to_dict"): "FunctionSpec",    # self.solutions
    ("functions.py:FunctionSpec.to_dict", "to_dict"): "BlaschkeProduct",   # self.payload[0]
    ("serialize.py:_encode", "to_dict"): "Record",                         # obj
}


def test_every_top_level_function_is_referenced_in_src_or_public():
    # every top-level function is named somewhere in src/ outside its own
    # body, or is public; so is every method or property of a class, with
    # argparse's hook _Parser.error the one exception, and a method whose
    # name another class shares is named through a receiver of its class.
    # Python calls the dunders, the module's __getattr__ and __dir__ among them
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    unreferenced, untyped = _unreferenced(sources, UNTYPED_CALLS)
    exempt = set(corona_lab._SOURCE) | {"_Parser.error"}
    assert [site for site in unreferenced if site.split(":")[1] not in exempt] == []
    assert untyped == set(UNTYPED_CALLS)


_RESOLVER_CASES = """
class Base:
    def shared(self): ...
    def read(self) -> "Base": ...
class Sub(Base):
    def run(self): return self.shared()
class Other:
    def shared(self): ...
    def read(self): ...
    def size(self): ...
class Annotated:
    def size(self): ...
def use(a: Annotated, anything):
    built = Sub()
    returned = built.read()
    anything.read()
    return a.size(), returned.size
ENTRY = use, Sub.run
"""


def test_the_method_guard_resolves_shared_names_by_class():
    # Base.shared through self in a subclass, Annotated.size through an
    # annotated parameter, Base.read through a constructor-bound local of a
    # subclass; a method that only shares its name with those stays
    # unreferenced however often the name is called, and a call through an
    # untyped receiver credits no class until the table names one
    unreferenced, untyped = _unreferenced({"m.py": _RESOLVER_CASES}, {})
    assert unreferenced == ["m.py:Other.shared", "m.py:Other.read", "m.py:Other.size"]
    assert untyped == {("m.py:use", "read")}
    unreferenced, _ = _unreferenced({"m.py": _RESOLVER_CASES}, {("m.py:use", "read"): "Other"})
    assert unreferenced == ["m.py:Other.shared", "m.py:Other.size"]


def test_the_invariant_suites_live_in_the_selftest_module_alone():
    # no library module carries a suite, and --selftest alone loads them
    assert _sites(lambda node: isinstance(node, ast.FunctionDef)
                  and node.name == "selftest") == []
    assert _sites(lambda node: isinstance(node, ast.ImportFrom)
                  and node.module == "selftest") == ["cli.py:__call__"]


def test_every_setting_is_set_by_a_caller_in_src():
    # a setting is a defaulted parameter of a function or method, or a
    # defaulted field of a record (a subclass of records.Record, whose
    # fields are its annotations); some call in src/ must pass it, by
    # keyword or by position.  Callees are matched by name, and cls(...) is
    # its class; calls through np. and rng. are numpy's, whatever their
    # name.  main(argv) is the entry point, Python calls the dunder methods,
    # and poisson_integral keeps nodes and tol for its in-process callers
    settings, passed = [], set()

    def visit(node, module, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
            if any(getattr(base, "id", None) == "Record" for base in node.bases):
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                settings.extend((module, cls, f.target.id, i)
                                for i, f in enumerate(fields) if f.value is not None)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params = node.args.posonlyargs + node.args.args
            if cls is not None and params and params[0].arg in ("self", "cls"):
                params = params[1:]
            first = len(params) - len(node.args.defaults)
            settings.extend((module, node.name, a.arg, i)
                            for i, a in enumerate(params) if i >= first)
            settings.extend((module, node.name, a.arg, None)
                            for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults)
                            if d is not None)
        elif (isinstance(node, ast.Call)
              and getattr(getattr(node.func, "value", None), "id", None) not in ("np", "rng")):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            name = cls if name == "cls" else name
            passed.update((name, i) for i in range(len(node.args)))
            passed.update((name, k.arg) for k in node.keywords)
        for child in ast.iter_child_nodes(node):
            visit(child, module, cls)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    exempt = {("cli.py", "main"), ("measures.py", "poisson_integral")}
    assert [f"{module}:{owner}({name})" for module, owner, name, i in settings
            if (module, owner) not in exempt and not owner.startswith("__")
            and (owner, name) not in passed and (owner, i) not in passed] == []


# points 1e-9 and 3e-12 from the circle, where 1 - |z|^2 formed by
# subtraction keeps only about 7 and 4 significant digits
NEAR_CIRCLE = [(1 - gap) * np.exp(1j * angle) for gap in (1e-9, 3e-12) for angle in (0.3, -2.1)]


@pytest.fixture(scope="module")
def mp():
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = 50
    return ctx


def _mpc(mp, z):
    return mp.mpc(z.real, z.imag)


def _rel(value, ref) -> float:
    return float(abs(value - ref) / abs(ref))


@pytest.mark.parametrize("z", NEAR_CIRCLE)
def test_one_minus_abs2_is_rounded_once(mp, z):
    ref = 1 - abs(_mpc(mp, z)) ** 2
    assert one_minus_abs2(z) == float(ref)


@pytest.mark.parametrize("z", NEAR_CIRCLE)
def test_poisson_kernel_near_the_circle_against_mpmath(mp, z):
    theta = np.angle(z) + np.array([1.0, 2.5, -3.0])
    got = poisson_kernel(z, theta)
    w = _mpc(mp, z)
    for t, value in zip(theta.tolist(), got.tolist()):
        ref = (1 - abs(w) ** 2) / abs(mp.expj(t) - w) ** 2
        assert _rel(value, ref) <= 4 * EPS, (t, _rel(value, ref))


@pytest.mark.parametrize("c", NEAR_CIRCLE)
def test_pushforward_jacobian_near_the_circle_against_mpmath(mp, c):
    u = PushforwardDensity(SimpleDensity.uniform(-0.5, 0.5), c)
    theta = np.angle(c) + np.array([0.0, 1.0, -2.0])
    w = _mpc(mp, c)
    for t, value in zip(theta.tolist(), u.jacobian(theta).tolist()):
        ref = (1 - abs(w) ** 2) / abs(1 + mp.conj(w) * mp.expj(t)) ** 2
        assert _rel(value, ref) <= 4 * EPS, (t, _rel(value, ref))


@pytest.mark.parametrize("c", NEAR_CIRCLE)
def test_pseudo_disc_radius_near_the_circle_against_mpmath(mp, c):
    eta = 0.5
    _, radius = pseudo_disc_euclidean(c, eta)
    w = _mpc(mp, c)
    ref = eta * (1 - abs(w) ** 2) / (1 - eta ** 2 * abs(w) ** 2)
    assert _rel(radius, ref) <= 4 * EPS


@pytest.mark.parametrize("c, eta", [(c, eta) for c in NEAR_CIRCLE[:2]
                                     for eta in (1 - 1e-9, 1 - 3e-12)]
                         + [(0.5 * np.exp(0.3j), 1 - 1e-12)])
def test_pseudo_disc_near_the_circle_against_mpmath(mp, c, eta):
    center, radius = pseudo_disc_euclidean(c, eta)
    w, e = _mpc(mp, c), mp.mpf(eta)
    den = 1 - e ** 2 * abs(w) ** 2
    assert _rel(center, (1 - e ** 2) * w / den) <= 4 * EPS
    assert _rel(radius, e * (1 - abs(w) ** 2) / den) <= 4 * EPS


def _near(rng, h, theta, depth=1):
    """A point depth h [0.5, 2] from the circle at an angle within 3h of theta."""
    return complex((1 - depth * h * rng.uniform(0.5, 2))
                   * np.exp(1j * (theta + 3 * h * rng.uniform(-1, 1))))


def _rho(mp, z, w):
    z, w = _mpc(mp, z), _mpc(mp, w)
    return abs(z - w) / abs(1 - mp.conj(w) * z)


def test_pseudo_distance_next_to_the_circle_against_mpmath(mp):
    # |z|, |w| in 1 - h [0.5, 2] and angles within 3h: |1 - conj(w) z| is of
    # order h, and forming it by subtraction erred by up to 8e-5 on these pairs
    h = 1e-12
    rng = np.random.default_rng(1812)
    for _ in range(200):
        theta = rng.uniform(-np.pi, np.pi)
        z = (1 - h * rng.uniform(0.5, 2)) * np.exp(1j * theta)
        w = (1 - h * rng.uniform(0.5, 2)) * np.exp(1j * (theta + 3 * h * rng.uniform(-1, 1)))
        assert _rel(pseudo_distance(z, w), _rho(mp, z, w)) <= 4 * EPS, (z, w)


def test_mobius_maps_next_to_the_circle_against_mpmath(mp):
    # c and w within h = 1e-12 of the circle and 3h of one angle: apply at
    # -w and inverse at w, where 1 + conj(c) z is of order h, and forming it
    # by subtraction erred by up to 4e-5 relative on these pairs
    rng = np.random.default_rng(2901)
    for _ in range(100):
        theta = rng.uniform(-np.pi, np.pi)
        c, w = _near(rng, 1e-12, theta), _near(rng, 1e-12, theta)
        m = MobiusAut(c)
        for z, got, sign in ((-w, m.apply(-w), 1), (w, m.inverse(w), -1)):
            a, x = sign * _mpc(mp, c), _mpc(mp, z)
            ref = (x + a) / (1 + mp.conj(a) * x)
            assert _rel(got, ref) <= 4 * EPS, (c, z)


def test_recentring_rotation_next_to_the_circle_against_mpmath(mp):
    # B o L_c at 0 is B(c) = e^{i rotation} prod |a'|, so the composed
    # product's rotation is arg B(c); five zeros within h of the circle and
    # c about 50 h from it nearby, where 1 - conj(a) c is of order h
    h = 1e-9
    rng = np.random.default_rng(2902)
    for _ in range(30):
        theta = rng.uniform(-np.pi, np.pi)
        zeros = tuple(_near(rng, h, theta) for _ in range(5))
        c = _near(rng, h, theta, depth=50)
        rotation = compose_with_mobius(BlaschkeProduct(zeros), c).rotation
        x = _mpc(mp, c)
        value = mp.fprod(mp.conj(a) / abs(a) * (a - x) / (1 - mp.conj(a) * x)
                         for a in (_mpc(mp, z) for z in zeros))
        assert abs(float(mp.arg(value * mp.expj(-rotation)))) <= 8 * EPS, (c, zeros)


def test_gap_sum_next_to_the_circle_against_mpmath(mp):
    # each term 1 - |z| formed by subtraction kept only its absolute
    # accuracy, 1.8e-7 relative in the sum on these points
    pts = tuple((1 - 1e-12 * (1 + k / 7)) * np.exp(1j * k) for k in range(12))
    ref = mp.fsum(1 - abs(_mpc(mp, z)) for z in pts)
    assert _rel(DiscSequence(pts).gap_sum, ref) <= len(pts) * EPS


def test_separation_tails_next_to_the_circle_against_mpmath(mp):
    # each tail is a product of eleven pseudo-distances, each within about
    # one eps, and the product adds half an eps per factor
    pts = tuple((1 - 10.0 ** -k) * np.exp(0.5j * 10.0 ** -k) for k in range(1, 13))
    _, tails = carleson_diagnostics(DiscSequence(pts))
    for k, tail in enumerate(tails):
        ref = mp.fprod(_rho(mp, w, pts[k]) for j, w in enumerate(pts) if j != k)
        assert _rel(tail, ref) <= len(pts) * EPS, (k, _rel(tail, ref))


def test_transported_gaps_on_criterion_10_rungs_against_mpmath(mp):
    # the gaps 1 - rho(a, c_j) whose sums choose each rung's candidate and
    # next radius; the chosen candidates lie within 1e-13 of the circle
    zeros = tuple(1 - 2.0 ** -k for k in range(1, 31))
    lad = construct_ladder(zeros, DiscSequence(tuple(1 - 3.0 ** -n for n in range(1, 33))),
                           [2.0 ** -j for j in range(1, 6)], [1 - 2.0 ** -j for j in range(1, 6)],
                           0.5)
    assert len(lad.chosen_points) == 5
    p = np.array([one_minus_abs2(a) for a in zeros])
    for c in lad.chosen_points:
        _, gaps = pseudo_hyperbolic(np.array(zeros), p, c, one_minus_abs2(c))
        for a, gap in zip(zeros, gaps.tolist()):
            assert _rel(gap, 1 - _rho(mp, a, c)) <= 4 * EPS, (c, a)


def test_roots_in_closed_disc_gives_python_complex_values():
    # (z - 1/2)(z - 3)
    inside = roots_in_closed_disc((1.5, -3.5, 1.0), "roots")
    assert [type(r) for r in inside] == [complex]
    assert abs(inside[0] - 0.5) < 1e-15
    assert roots_in_closed_disc((2.0,), "roots") == []
    with pytest.raises(DomainError, match="too small to locate the roots"):
        roots_in_closed_disc((1.0, 5e-324), "roots")


def test_rational_pole_error_lists_python_complex_values():
    with pytest.raises(DomainError) as exc:
        FunctionSpec.rational([1], [-0.5, 1])
    assert exc.value.payload()["message"] == (
        "rational pole(s) inside or on the closed disc: [(0.5-0j)]")


def test_common_zeros_are_the_gcd_roots_in_the_disc():
    # f2 = f1 (z - 2), so the gcd is f1 = (z - i/4)(z + 1/2), both roots inside
    f1 = np.polymul([1, -0.25j], [1, 0.5])[::-1]
    f2 = np.polymul(np.polymul([1, -0.25j], [1, 0.5]), [1, -2])[::-1]
    with pytest.raises(UnsolvableError) as exc:
        bezout_exact(CoronaInstance((FunctionSpec.polynomial(f1),
                                           FunctionSpec.polynomial(f2))))
    gcd, _ = iterated_xgcd([poly_from_complex(f) for f in (f1, f2)])
    want = [complex(r) for r in np.roots(poly_to_complex(gcd)[::-1]) if abs(r) <= 1 + 1e-9]
    assert exc.value.roots == want
    assert [type(r) for r in want] == [complex, complex]
    assert all(min(abs(r - z) for r in want) < 1e-12 for z in (-0.5, 0.25j))


def test_coeffs_are_the_exact_form_of_polynomials_only():
    assert FunctionSpec.polynomial([1, 2, 0]).coeffs == (1 + 0j, 2 + 0j)
    assert FunctionSpec.finite_blaschke([0.5]).coeffs is None
    assert FunctionSpec.rational([1], [-2, 1]).coeffs is None
