"""Checks on the library's syntax trees.

No linter ships with the project, so these walk the syntax tree of each
module in ``src/freeholo``:

* every module-level import is referenced by its module (``__init__.py``
  re-exports and is skipped), and every import inside a function by that
  function;
* every lazy export of ``freeholo/__init__.py`` resolves to its module's
  object and is listed by ``dir(freeholo)``;
* the bottom layers import nothing above them, at module level or inside a
  function: ``errors`` imports no freeholo module, ``mat`` only ``errors``,
  and ``freepoly`` only ``errors`` and ``mat``;
* ``freepoly.graded_sum`` is the only function that orders or merges
  words, the only caller of ``np.lexsort`` and ``np.add.at``;
* ``freepoly.PolyMatrix`` is the one class that holds a polynomial's word
  rows and stack: only its ``_hold`` stores them, and every other
  polynomial class subclasses it without slots of its own;
* operator norms come from ``mat.op_norms``, the only caller of
  ``np.linalg.svd`` that does not also use the singular vectors or the
  smallest singular value, and the largest of several norms comes from
  ``mat.max_op_norm``, never from a bare ``max`` that drops a NaN;
* in ``model`` and ``realize``, delta(x) and membership come only from
  ``ncpoint``'s membership kernel, as its level stacks: ``require_inside``,
  or ``delta_memberships`` itself in ``realize.eval_direct_points``; Delta u
  is formed only by the sample set's constructor and the resolvent
  kernels;
* ``realize`` makes no ``setdefault`` call: its batches come grouped, as
  the membership kernel's level stacks, the sample set's levels or
  ``mat.shape_stacks``, so it regroups no points itself;
* smallest eigenvalues come from ``model.gram_floors``, the only caller of
  ``np.linalg.eigvalsh``;
* a norm is classified inside or outside only by ``ncpoint``'s membership
  kernel, the sampler's shrink loop and the augmented domain;
* ``GradedPoint._of``, which skips validation, is called only by the
  sampler's shrink loop and ``ncpoint.point_direct_sum``, whose stacks are
  known finite, so outside input always goes through the constructor;
* no report is written by ``json``'s indented encoder, which runs in pure
  Python: ``jsonio.dumps`` writes the same bytes;
* each term of the Neumann loop in ``realize._series`` is only numpy calls
  and array methods, so no per-term validation in a helper creeps back,
  and none of them copies, so no layout change between the products does;
* the calls in that loop are ``np.matmul``, ``np.vdot`` and ``term.any``
  alone: its stop reads the norms by ``np.vdot``, never by
  ``np.linalg.norm``, which makes a temporary of |t|^2 on every term;
* only the term loop takes the ratio of the a posteriori stop:
  ``realize._series_squared`` takes ``(r, n, dx, k)`` and
  ``realize._neumann_kernel`` the shapes and k, so neither the squaring
  kernel nor the choice between the kernels reads it;
* ``realize._solve`` takes its resolvent memory only from ``mat.scratch``:
  it makes no identity of the resolvent's size and no fresh array;
* ``model_residual``, ``fit_lurking_isometry`` and ``_max_gap`` loop over
  the sample set's levels, never over its points: they read level stacks;
* in ``cli``, only ``_load_function`` parses an expression or builds an
  evaluator, so every subcommand that takes a function reads it one way;
* every module-level function and class, and every public method, is
  reached from the command line or from an entry of ``PUBLIC_API``, whose
  reasons are checked against the acceptance criteria, perfbench and the
  tests. A bare name or a module's attribute reaches one module-level
  definition; any other attribute reaches the public methods of its name.
"""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import freeholo

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "freeholo"


def unused_imports(source: str) -> list:
    """Names bound by top-level imports that no ``Name`` node reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(bound - used)


def test_unused_imports_finds_what_is_never_read():
    source = "import os\nimport numpy as np\nfrom .a import b, c\nnp.zeros(c)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize(
    "path",
    sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name,
)
def test_library_modules_use_their_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unused_local_imports(source: str) -> list:
    """``function.name`` for each name bound by an import inside a function
    that the function, its nested scopes included, never reads."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, pending = set(), list(fn.body)
        while pending:  # the function's own statements, not a nested def's
            node = pending.pop()
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                bound |= {a.asname or a.name for a in node.names}
            elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                pending.extend(ast.iter_child_nodes(node))
        used = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
        found += [f"{fn.name}.{name}" for name in sorted(bound - used)]
    return found


def test_unused_local_imports_finds_what_its_function_never_reads():
    source = (
        "from . import mat\n"
        "def f():\n    from . import realize, model\n    import os.path\n"
        "    return lambda x: realize.g(x)\n"
        "def g():\n    from .mat import op_norm as norm\n"
        "    def inner():\n        from . import mero\n        return norm\n    return mat\n"
    )
    assert unused_local_imports(source) == ["f.model", "f.os", "inner.mero"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_functions_use_their_imports(path):
    assert unused_local_imports(path.read_text(encoding="utf-8")) == []


def test_lazy_exports_resolve_to_their_modules():
    listed = dir(freeholo)
    for name, module in freeholo._MODULE_OF.items():
        assert getattr(freeholo, name) is getattr(
            importlib.import_module(f"freeholo.{module}"), name
        ), name
        assert name in listed
    with pytest.raises(AttributeError):
        freeholo.no_such_name


def package_imports(source: str) -> set:
    """The freeholo modules that a module imports, at module level or in any
    function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "freeholo":
            found |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("freeholo."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("freeholo.")}
    return found


def test_package_imports_finds_imports_in_function_bodies():
    source = (
        "import numpy as np\nfrom .errors import ShapeMismatch\n"
        "def f():\n    from . import mat, model\n    import freeholo.realize\n"
        "    def inner():\n        from freeholo.mero import scan\n"
        "        from freeholo import sampling\n"
    )
    assert package_imports(source) == {"errors", "mat", "model", "realize", "mero", "sampling"}


# Each bottom layer and the freeholo modules it may import.
LAYERS = {"errors": set(), "mat": {"errors"}, "freepoly": {"errors", "mat"}}


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_bottom_layers_import_nothing_above_them(module):
    found = package_imports((SRC / f"{module}.py").read_text(encoding="utf-8"))
    assert sorted(found - LAYERS[module]) == []


def callers(source: str, module: str, names: set) -> set:
    """``module.function`` names of the functions that call one of ``names``."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = [ast.unparse(n.func) for n in ast.walk(fn) if isinstance(n, ast.Call)]
            if names & set(calls):
                found.add(f"{module}.{fn.name}")
    return found


def library_callers(names: set) -> set:
    found = set()
    for path in SRC.glob("*.py"):
        found |= callers(path.read_text(encoding="utf-8"), path.stem, names)
    return found


def test_merge_calls_finds_nested_calls():
    source = "def f(a):\n    def g():\n        np.add.at(a, [0], 1)\n    return np.lexsort(a)\n"
    assert callers(source, "m", {"np.lexsort", "np.add.at"}) == {"m.f", "m.g"}


def test_graded_sum_is_the_only_word_merge():
    assert library_callers({"np.lexsort", "np.add.at"}) == {"freepoly.graded_sum"}


SETTERS = ("object.__setattr__", "setattr")


def slot_stores(source: str, module: str, names: set) -> set:
    """Qualified names of the scopes that store an attribute in ``names``:
    by ``object.__setattr__`` or ``setattr`` with the name as a literal, or
    by assignment to an attribute."""
    found = set()
    pending = [(node, module) for node in ast.parse(source).body]
    while pending:
        node, scope = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        elif isinstance(node, ast.Call) and ast.unparse(node.func) in SETTERS:
            if len(node.args) > 1 and getattr(node.args[1], "value", None) in names:
                found.add(scope)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr in names:
                found.add(scope)
        pending.extend((child, scope) for child in ast.iter_child_nodes(node))
    return found


def test_slot_stores_finds_setattr_and_assignments():
    source = (
        "class A:\n    def _hold(self, r):\n        object.__setattr__(self, '_stack', r)\n"
        "    def read(self):\n        return self._stack\n"
        "def f(a):\n    a._word_rows = 1\n"
        "def g(a):\n    setattr(a, '_stack', 2)\n"
        "def h(a):\n    object.__setattr__(a, '_d', 3)\n"
    )
    assert slot_stores(source, "m", {"_word_rows", "_stack"}) == {"m.A._hold", "m.f", "m.g"}


def test_one_class_holds_the_polynomial_normal_form():
    from freeholo import freepoly

    classes = [c for c in vars(freepoly).values()
               if isinstance(c, type) and c.__module__ == freepoly.__name__]
    polys = [c for c in classes if issubclass(c, freepoly.PolyMatrix)]
    assert [c.__name__ for c in classes if c not in polys] == ["GradedPoint"]
    for c in polys:
        assert c is freepoly.PolyMatrix or c.__dict__.get("__slots__") == (), c.__name__
    found = set()
    for path in SRC.glob("*.py"):
        found |= slot_stores(path.read_text(encoding="utf-8"), path.stem, {"_word_rows", "_stack"})
    assert found == {"freepoly.PolyMatrix._hold"}


def test_operator_norms_go_through_the_stacked_kernel():
    # every other SVD in the library serves a factorization, not a norm
    assert library_callers({"np.linalg.svd"}) == {
        "mat.op_norms",
        "mat.cond",
        "mat.inv",
        "realize.fit_lurking_isometry",
        "mero.inversion_certificate",
    }


def test_largest_norms_go_through_the_screened_kernel():
    assert library_callers({"mat.max_op_norm", "max_op_norm"}) == {
        "model.model_residual",
        "approx.select_covering_delta",
        "realize._max_gap",
        "cli._sampled_bound",
        "mero.norm_at",
    }


def test_smallest_eigenvalues_go_through_one_kernel():
    # diagonal_floor and corona_solve's coercivity floor share it
    assert library_callers({"np.linalg.eigvalsh"}) == {"model.gram_floors"}


def method_calls(source: str, name: str) -> list:
    """Source text of the calls to a method or attribute function ``name``."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


def test_method_calls_finds_attribute_calls_only():
    source = "by_n.setdefault(n, []).append(i)\nsetdefault(a, b)\nx = d.setdefault\n"
    assert method_calls(source, "setdefault") == ["by_n.setdefault(n, [])"]


def test_realize_regroups_no_points():
    source = (SRC / "realize.py").read_text(encoding="utf-8")
    assert method_calls(source, "setdefault") == []


@pytest.mark.parametrize("name", ["parse", "Schedule", "eval_expr", "realize.eval_direct"])
def test_functions_are_read_by_one_loader(name):
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert callers(source, "cli", {name}) == {"cli._load_function"}


NORM_CALLS = {"op_norm", "op_norms", "mat.op_norm", "mat.op_norms"}


def norm_folds(source: str, module: str) -> set:
    """``module.function`` names of the functions that take a builtin ``max``
    of norms.

    A norm is a call in ``NORM_CALLS`` or a name assigned from an expression
    holding one. ``max(1.0, norm)``, a clamp against a constant, is no fold.
    """
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(fn))

        def holds_norm(tree, names=frozenset()):
            return any(
                isinstance(n, ast.Call) and ast.unparse(n.func) in NORM_CALLS
                or isinstance(n, ast.Name) and n.id in names
                for n in ast.walk(tree)
            )

        norm_names = set()
        for n in nodes:
            if isinstance(n, (ast.Assign, ast.AugAssign)) and holds_norm(n.value):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                names = (t for tgt in targets for t in ast.walk(tgt))
                norm_names |= {t.id for t in names if isinstance(t, ast.Name)}
        for n in nodes:
            if not (isinstance(n, ast.Call) and ast.unparse(n.func) == "max"):
                continue
            args = n.args
            if len(args) == 2 and isinstance(args[0], ast.Constant):
                args = []
            if any(holds_norm(a, norm_names) for a in args):
                found.add(f"{module}.{fn.name}")
    return found


def test_norm_folds_finds_bare_max_of_norms():
    source = (
        "def f(ms):\n    return max(op_norm(m) for m in ms)\n"
        "def g(ms):\n    worst = 0.0\n    for m in ms:\n"
        "        nrm = float(mat.op_norms(m).max())\n        worst = max(worst, nrm)\n"
        "def h(m):\n    return max(1.0, mat.op_norm(m))\n"
        "def k(ms):\n    return max(ms)\n"
    )
    assert norm_folds(source, "m") == {"m.f", "m.g"}


def test_no_bare_max_folds_norms():
    found = set()
    for path in SRC.glob("*.py"):
        found |= norm_folds(path.read_text(encoding="utf-8"), path.stem)
    assert found == set()


def scoped_nodes(source: str, module: str):
    """``(node, scope)`` for each node of ``source``: the qualified name of
    its innermost enclosing function or class, or the module; a function or
    class node is in its own scope."""
    pending = [(node, module) for node in ast.parse(source).body]
    while pending:
        node, scope = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        yield node, scope
        pending.extend((child, scope) for child in ast.iter_child_nodes(node))


def name_users(source: str, module: str, name: str) -> set:
    """Qualified names of the scopes that read ``name`` (bare or as an attribute).

    Imports bind the name but do not read it.
    """
    return {
        scope
        for node, scope in scoped_nodes(source, module)
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
    }


def test_name_users_finds_methods_and_attributes():
    source = (
        "from .f import g\n"
        "class A:\n    def m(self):\n        return g(1)\n"
        "def h():\n    def inner():\n        return f.g\n    return inner\n"
        "X = g\n"
    )
    assert name_users(source, "mod", "g") == {"mod.A.m", "mod.h.inner", "mod"}


@pytest.mark.parametrize(
    "name, users",
    [
        ("eval_poly_matrix", set()),
        ("promoted_apply", {"model.ModelSampleSet.__init__", "realize._solve", "realize._series"}),
        ("eval_poly_matrix_stack", set()),
        ("require_inside", {
            "model.ModelSampleSet.__init__", "model.model_from_realization",
            "realize.eval_direct", "realize.eval_neumann",
        }),
        ("eval_poly_matrix_promoted", set()),
    ],
)
def test_sample_points_evaluate_delta_once(name, users):
    found = set()
    for stem in ("model", "realize"):
        found |= name_users((SRC / f"{stem}.py").read_text(encoding="utf-8"), stem, name)
    assert found == users


def inside_rules(source: str, module: str) -> set:
    """Scopes that classify a norm: they read ``from_norm`` or compare with
    ``1.0 - margin``, its inside rule."""
    return name_users(source, module, "from_norm") | {
        scope
        for node, scope in scoped_nodes(source, module)
        if isinstance(node, ast.Compare) and "1.0 - margin" in map(ast.unparse, node.comparators)
    }


def test_inside_rules_finds_calls_and_comparisons():
    source = (
        "def f(n, m):\n    return Membership.from_norm(n, m).inside\n"
        "def g(nrms, margin):\n    return (nrms < 2) & (nrms < 1.0 - margin)\n"
        "def h(nrms, margin):\n    return nrms < 1.0 + margin\n"
    )
    assert inside_rules(source, "m") == {"m.f", "m.g"}


def test_membership_is_classified_in_three_places():
    # the rule itself, and the three places that apply it: the membership
    # kernel, the sampler's shrink loop on its array of norms, the
    # augmented domain
    found = set()
    for path in SRC.glob("*.py"):
        found |= inside_rules(path.read_text(encoding="utf-8"), path.stem)
    assert found == {
        "ncpoint.Membership.from_norm",
        "ncpoint.delta_memberships", "sampling._shrunk", "mero.AugmentedDomain.contains",
    }


def trusted_point_callers(source: str, module: str) -> set:
    """Scopes that call ``GradedPoint._of``, however the class is reached."""
    return {
        scope
        for node, scope in scoped_nodes(source, module)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_of"
        and ast.unparse(node.func.value).rsplit(".", 1)[-1] == "GradedPoint"
    }


def test_trusted_point_callers_tells_point_from_polynomial():
    source = (
        "def f(s):\n    return GradedPoint._of(s)\n"
        "def g(s):\n    return freepoly.GradedPoint._of(s)\n"
        "def h(d, rows, stack):\n    return PolyMatrix._of(d, rows, stack), GradedPoint(s)\n"
    )
    assert trusted_point_callers(source, "m") == {"m.f", "m.g"}


def test_only_checked_stacks_become_points_unvalidated():
    # the sampler's shrink loop holds a batch it checked finite, the direct
    # sum two points that were validated; every other point is validated
    found = set()
    for path in SRC.glob("*.py"):
        found |= trusted_point_callers(path.read_text(encoding="utf-8"), path.stem)
    assert found == {"sampling._shrunk", "ncpoint.point_direct_sum"}


def indented_json_calls(source: str) -> list:
    """Source text of the calls to ``json`` with an ``indent`` keyword."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).startswith("json.")
        and any(k.arg == "indent" for k in node.keywords)
    ]


def test_indented_json_calls_finds_dumps_and_encoders():
    source = (
        "a = json.dumps(r, sort_keys=True, indent=2)\n"
        "b = json.JSONEncoder(indent=4).encode(r)\n"
        "c = json.dumps(r)\nd = jsonio.dumps(r)\n"
    )
    assert indented_json_calls(source) == [
        "json.dumps(r, sort_keys=True, indent=2)", "json.JSONEncoder(indent=4)",
    ]


def test_reports_are_not_written_by_the_indented_stdlib_encoder():
    # json's indented encoding runs in pure Python; jsonio.dumps gives its bytes
    found = []
    for path in SRC.glob("*.py"):
        found += indented_json_calls(path.read_text(encoding="utf-8"))
    assert found == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def loop_calls(source: str, function: str) -> tuple:
    """``(plain, other)``: the calls in the ``for`` loop bodies of the
    module-level ``function``, as source text.

    A plain call is an ``np.*`` function or a method of ``np.ndarray`` on a
    bare local name; any other call, a bare helper or builtin name or an
    attribute of a freeholo module or of a nested attribute, is ``other``.
    """
    tree = ast.parse(source)
    modules = bindings(source)[0]
    fn = next(n for n in tree.body if isinstance(n, FUNCTIONS) and n.name == function)
    plain, other = [], []
    for loop in (n for n in ast.walk(fn) if isinstance(n, ast.For)):
        for node in (n for stmt in loop.body for n in ast.walk(stmt)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            owner = None
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                owner = f.value.id
            if owner == "np" or (
                owner not in (None, *modules) and hasattr(np.ndarray, f.attr)
            ):
                plain.append(ast.unparse(f))
            else:
                other.append(ast.unparse(f))
    return plain, other


def test_loop_calls_tells_numpy_from_helpers():
    source = (
        "from . import mat\nfrom .freepoly import promoted_apply\n"
        "def f(r, a, b, k):\n    b.copy()\n"
        "    for _ in range(k):\n        np.matmul(a, b, out=b)\n        a.fill(0)\n"
        "        mat.kron_left_identity_apply(1, a, b)\n        promoted_apply(a, 1, 1, b)\n"
        "        r.delta.to_json()\n        b.helper()\n"
    )
    assert loop_calls(source, "f") == (
        ["np.matmul", "a.fill"],
        ["mat.kron_left_identity_apply", "promoted_apply", "r.delta.to_json", "b.helper"],
    )


def test_neumann_loop_calls_only_numpy():
    plain, other = loop_calls((SRC / "realize.py").read_text(encoding="utf-8"), "_series")
    assert plain and other == []


def test_neumann_loop_copies_nothing():
    # the term is held in the layout both of its products read
    plain, _ = loop_calls((SRC / "realize.py").read_text(encoding="utf-8"), "_series")
    copying = ("copyto", "copy", "ascontiguousarray")
    copies = [c for c in plain if c.rsplit(".", 1)[-1] in copying]
    assert "np.matmul" in plain and copies == []


def test_neumann_loop_norms_by_dot_products():
    # np.linalg.norm would allocate |t|^2 on every term
    plain, other = loop_calls((SRC / "realize.py").read_text(encoding="utf-8"), "_series")
    assert set(plain) <= {"np.matmul", "np.vdot", "term.any"} and other == []
    assert "np.vdot" in plain


def test_only_the_term_loop_takes_the_ratio():
    source = (SRC / "realize.py").read_text(encoding="utf-8")
    for name, args in [
        ("_series_squared", ["r", "n", "dx", "k"]),
        ("_neumann_kernel", ["n", "mult", "rows", "cols", "k1", "k"]),
    ]:
        sig = module_function(source, name).args
        assert [a.arg for a in sig.posonlyargs + sig.args + sig.kwonlyargs] == args
        assert sig.vararg is None and sig.kwarg is None
    loop = module_function(source, "_series").args
    assert [a.arg for a in loop.args] == ["r", "n", "dx", "k", "ratio"]


def module_function(source: str, name: str):
    return next(n for n in ast.parse(source).body if isinstance(n, FUNCTIONS) and n.name == name)


def test_neumann_kernel_is_chosen_from_shapes_alone():
    # no environment variable, option or value picks the Neumann kernel
    source = (SRC / "realize.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    stdlib = {
        a.name for n in tree.body if isinstance(n, ast.Import) for a in n.names
    } | {n.module for n in tree.body if isinstance(n, ast.ImportFrom) and n.level == 0}
    assert stdlib <= {"__future__", "math", "dataclasses", "numpy"}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert read.isdisjoint({"os", "sys", "environ", "getenv"})
    evaluator = module_function(source, "eval_neumann").args
    assert [a.arg for a in evaluator.args + evaluator.kwonlyargs] == ["r", "x", "tol"]
    assert evaluator.vararg is None and evaluator.kwarg is None
    chooser = module_function(source, "_neumann_kernel").args
    assert [a.arg for a in chooser.args] == ["n", "mult", "rows", "cols", "k1", "k"]
    assert function_calls(source, "_neumann_kernel") == [("(k + 1).bit_length", [])]


# names that hold sample points or their positions, and the sample set's
# per-point fields
POINT_NAMES = {"points", "indices", "reserved", "train", "idx", "at", "chunk", "range", "len"}
POINT_FIELDS = {"points", "psi", "phi", "u", "delta_u", "delta_x", "at"}


def point_loops(source: str, function: str) -> list:
    """The iterables, as source text, of the ``for`` loops and comprehensions
    of the module-level ``function`` (nested functions included) that run
    over sample points: the iterable reads a name of ``POINT_NAMES``, or it
    is a per-point field (``s.psi``, ``level.at``, ...) or zips or
    enumerates one. A tuple of fields, ``s.levels`` or a generator of the
    chunks of a level stack is no such loop.
    """
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, FUNCTIONS) and n.name == function)
    found = []
    for node in ast.walk(fn):
        if not isinstance(node, (ast.For, ast.comprehension)):
            continue
        it = node.iter
        named = {n.id for n in ast.walk(it) if isinstance(n, ast.Name)} & POINT_NAMES
        wraps = isinstance(it, ast.Call) and ast.unparse(it.func) in ("zip", "enumerate", "reversed")
        direct = [it, *it.args] if wraps else [it]
        field = any(isinstance(a, ast.Attribute) and a.attr in POINT_FIELDS for a in direct)
        if named or field:
            found.append(ast.unparse(it))
    return found


def test_point_loops_tells_points_from_levels():
    source = (
        "def f(s, indices, r):\n"
        "    for level in s.levels:\n"
        "        for g in (level.psi, level.phi):\n            g.sum()\n"
        "        for part, omega in chunks(r, level.delta_x):\n            pass\n"
        "    a = [i for i in range(len(s)) if i % 5]\n"
        "    b = [s.psi[i] for i in indices]\n"
        "    for x, p in zip(s.points, s.psi):\n        pass\n"
        "    def inner():\n        return [v for v in s.levels[0].psi]\n"
    )
    assert sorted(point_loops(source, "f")) == [
        "indices", "range(len(s))", "s.levels[0].psi", "zip(s.points, s.psi)",
    ]


@pytest.mark.parametrize(
    "module, function",
    [("model", "model_residual"), ("realize", "fit_lurking_isometry"), ("realize", "_max_gap")],
)
def test_sample_set_readers_loop_over_levels_not_points(module, function):
    # the identity pairs samples of one level only, so the residual, the fit
    # and its holdout gap read whole level stacks
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert point_loops(source, function) == []
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, FUNCTIONS) and n.name == function)
    assert any(isinstance(n, ast.Attribute) and n.attr == "levels" for n in ast.walk(fn))


def function_calls(source: str, function: str) -> list:
    """``(callee, arguments)`` of every call in the module-level ``function``,
    as source text."""
    tree = ast.parse(source)
    fn = next(n for n in tree.body if isinstance(n, FUNCTIONS) and n.name == function)
    return [
        (ast.unparse(n.func), [ast.unparse(a) for a in n.args])
        for n in ast.walk(fn)
        if isinstance(n, ast.Call)
    ]


def test_function_calls_lists_callees_and_arguments():
    source = "def f(n, size):\n    a = np.eye(n * 2)\n    return mat.scratch(size).reshape(size)\n"
    assert sorted(function_calls(source, "f")) == [
        ("mat.scratch", ["size"]), ("mat.scratch(size).reshape", ["size"]), ("np.eye", ["n * 2"]),
    ]


def test_resolvent_is_assembled_in_scratch():
    # the products and the resolvent matrices are blocks of one mat.scratch
    # buffer; no identity of the resolvent's size and no fresh array
    calls = function_calls((SRC / "realize.py").read_text(encoding="utf-8"), "_solve")
    callees = [f for f, _ in calls]
    fresh = ("np.empty", "np.zeros", "np.ones", "np.full", "np.identity")
    eyes = [args for f, args in calls if f == "np.eye"]
    assert callees.count("mat.scratch") == 1 and not set(fresh) & set(callees)
    assert all("size" not in " ".join(args) for args in eyes)


def bindings(source: str) -> tuple:
    """``(modules, names)``: the names that ``from . import m as name`` binds
    to freeholo modules, and those that ``from .m import f as name`` binds to
    ``"m.f"``, imports inside functions included."""
    modules, names = {}, {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for a in node.names:
                if node.module is None:
                    modules[a.asname or a.name] = a.name
                else:
                    names[a.asname or a.name] = f"{node.module}.{a.name}"
    return modules, names


def reads(nodes, module: str, modules: dict, names: dict) -> set:
    """What the nodes of ``module`` read, annotations skipped.

    A bare name, or an attribute of a name bound to a freeholo module, reads
    one module-level definition, ``("def", "module.name")``, resolved through
    the :func:`bindings` ``modules`` and ``names``; an attribute of anything
    else reads ``("attr", name)``.
    """
    found, pending = set(), list(nodes)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name):
            found.add(("def", names.get(node.id, f"{module}.{node.id}")))
        elif isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                found.add(("def", f"{modules[node.value.id]}.{node.attr}"))
                continue
            found.add(("attr", node.attr))
        for field, value in ast.iter_fields(node):
            if field not in ("annotation", "returns"):
                values = value if isinstance(value, list) else [value]
                pending.extend(v for v in values if isinstance(v, ast.AST))
    return found


def census(sources: dict) -> tuple:
    """``(definitions, roots)`` of the modules ``{module: source}``.

    The definitions, by qualified name, are the module-level functions and
    classes and the public methods, each with the nodes it reads from; a
    class's other methods, bases and decorators count as the class. The
    roots are the other module-level statements, by module.
    """
    defs, roots = {}, {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS):
                defs[f"{module}.{node.name}"] = [node]
            elif isinstance(node, ast.ClassDef):
                public_methods = [
                    m for m in node.body if isinstance(m, FUNCTIONS) and not m.name.startswith("_")
                ]
                for m in public_methods:
                    defs[f"{module}.{node.name}.{m.name}"] = [m]
                rest = [m for m in node.body if m not in public_methods]
                defs[f"{module}.{node.name}"] = rest + node.bases + node.decorator_list
            else:
                roots.setdefault(module, []).append(node)
    return defs, roots


def unreached(sources: dict, public) -> set:
    """The definitions of :func:`census` that no root and no entry of
    ``public`` reaches.

    A reached scope reaches the module-level definitions it reads (see
    :func:`reads`) and, through an attribute of anything but a module, every
    public method of that name: methods go by name, not by type.
    """
    defs, roots = census(sources)
    bound = {module: bindings(source) for module, source in sources.items()}

    def read(scopes):
        return {r for module, nodes in scopes for r in reads(nodes, module, *bound[module])}

    def reached(q, seen):
        parts = q.split(".")
        return ("def", q) in seen if len(parts) == 2 else ("attr", parts[2]) in seen

    live = set(public) & set(defs)
    seen = read(roots.items()) | read((q.split(".")[0], defs[q]) for q in live)
    while True:
        new = {q for q in defs if q not in live and reached(q, seen)}
        if not new:
            return set(defs) - live
        live |= new
        seen |= read((q.split(".")[0], defs[q]) for q in new)


def test_unreached_follows_chains_and_skips_annotations():
    source = (
        "def main():\n    return Used().go()\n"
        "class Used:\n    def go(self):\n        return 1\n    def spare(self):\n        return 2\n"
        "class Note:\n    pass\n"
        "def helper(n: Note) -> Note:\n    return Only.make()\n"
        "class Only:\n    def make(self):\n        return 3\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    found = unreached({"m": source}, set())
    assert found == {"m.Used.spare", "m.Note", "m.helper", "m.Only", "m.Only.make"}
    assert unreached({"m": source}, {"m.helper"}) == {"m.Used.spare", "m.Note"}
    # a bare name reaches its own module's or its import's definition, a
    # module attribute only that module's, any other attribute only methods
    first = (
        "from . import second as other\n"
        "from .second import helper as aid\n"
        "def main():\n    return other.shared(), Box().size, aid(), tool\n"
        "def shared():\n    return 0\n"
        "def tool():\n    return 1\n"
        "class Box:\n    def size(self):\n        return 2\n"
        "    def tool(self):\n        return 3\n    def shared(self):\n        return 4\n"
        "if __name__ == '__main__':\n    main()\n"
    )
    second = "".join(f"def {f}():\n    return 5\n" for f in ("shared", "helper", "size", "tool"))
    assert unreached({"first": first, "second": second}, set()) == {
        "first.shared", "first.Box.tool", "first.Box.shared", "second.size", "second.tool"
    }


# Definitions the command line does not reach that stay in src, each with its
# users: acceptance criteria cNN (tests/test_acceptance.py), perfbench, or the
# tests that compare against it as a dense reference.
PUBLIC_API = {
    "exprlang.to_free_poly": "c10",
    "freepoly.FreePoly.scale": "perfbench",
    "freepoly.GradedPoint.scalars": "c04, c08, c09, perfbench",
    "freepoly.PolyMatrix.from_poly": "perfbench",
    "freepoly.commutator_delta": "c08",
    "freepoly.eval_poly": "c01, c02, c09, c10",
    "freepoly.eval_poly_matrix_promoted": "dense reference, perfbench",
    "freepoly.MatrixPoly.eval": "c06, perfbench",
    "mat.kron_left_identity": "dense reference",
    "mero.verify_certificate": "c09",
    "model.model_from_realization": "c01, c03, c05, perfbench",
    "ncpoint.conjugate": "dense reference",
    "ncpoint.triangular_identity_deviation": "c02",
    "realize.CoronaSolution.phi_values": "c07, perfbench",
    "realize.CoronaSolution.row_norm_at": "c07, perfbench",
    "realize.eval_neumann": "c04, perfbench",
    "sampling.perturbations_near": "c09",
    "sampling.point_in_shrunk_domain": "c06, perfbench",
    "sampling.point_inside_gdelta": "c01, c03, c04, c05, perfbench",
    "sampling.random_free_poly": "c01, c02",
    "sampling.random_graded_point": "perfbench",
    "sampling.random_realization": "c01, c02, c03, c04, perfbench",
}


def library_sources() -> dict:
    return {
        p.stem: p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p.name != "__init__.py"
    }


def test_every_definition_is_reached():
    assert sorted(unreached(library_sources(), PUBLIC_API)) == []


def test_public_api_entries_exist_and_their_reasons_hold():
    assert sorted(set(PUBLIC_API) - set(census(library_sources())[0])) == []
    acceptance = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    criteria = {
        fn.name[5:8]: ast.get_source_segment(acceptance, fn)
        for fn in ast.parse(acceptance).body
        if isinstance(fn, FUNCTIONS) and re.fullmatch(r"test_c\d\d_\w+", fn.name)
    }
    users = {
        "perfbench": "".join(p.read_text(encoding="utf-8") for p in (ROOT / "perfbench").glob("*.py")),
        "dense reference": "".join(
            p.read_text(encoding="utf-8")
            for p in (ROOT / "tests").glob("test_*.py")
            if p.name not in ("test_acceptance.py", "test_imports.py")
        ),
        **criteria,
    }
    for name, reasons in PUBLIC_API.items():
        word = re.compile(rf"\b{name.rsplit('.', 1)[1]}\b")
        for reason in reasons.split(", "):
            assert word.search(users[reason]), f"{name} is not used by {reason}"
