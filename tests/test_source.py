import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recurq"


def _call_sites(name):
    """(module, enclosing function) of every call to a function named ``name``."""
    sites = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            func = getattr(child, "func", None)
            if getattr(func, "attr", getattr(func, "id", None)) == name:
                sites.add((module, scope))
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, "")
    return sites


def test_generators_are_diagonalized_in_one_place():
    # recurrence.spectral is every generator's decomposition; expm_skew is the
    # oracle and the small-dimension one-off path of expm_apply
    sites = _call_sites("eigh")
    assert ("recurrence", "spectral") in sites
    assert sites <= {("recurrence", "spectral"), ("propagate", "expm_skew")}, sites


def test_one_run_path():
    # synth.run is the only code that chooses between forward and signed
    # evolution, and the CLI realizes, runs and checks words only through
    # synth (notes/decisions.md, "One builder per word")
    assert _call_sites("evolve_signed") == {("synth", "run")}
    names = set()
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        names.update([getattr(node, "id", None), getattr(node, "attr", None)])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    banned = {"evolve", "evolve_signed", "realize_word", "expm_apply", "expr_matrix"}
    assert names & banned == set()


def test_one_action_kernel():
    # the Chebyshev action in propagate is the only e^{Gt}v kernel; scipy's
    # expm_multiply survives only as the test oracle
    refs = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names += [alias.name for alias in node.names]
            if "expm_multiply" in names:
                refs.append((path.stem, node.lineno))
    assert refs == []


def test_one_json_writer():
    # every JSON artifact is encoded by cli.json_text (notes/decisions.md,
    # "Artifacts encoded once per distinct node"); json.dumps survives only
    # as its test oracle
    assert _call_sites("dumps") | _call_sites("dump") == set()


def test_fock_assembly_never_sorts():
    # represent accumulates per diagonal into CSR order (notes/decisions.md,
    # "Fock assembly into CSR"): no sort, unique or argsort in fock
    calls = []
    for node in ast.walk(ast.parse((SRC / "fock.py").read_text())):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        if isinstance(node, ast.Call) and name in {"unique", "argsort", "sort", "lexsort"}:
            calls.append((name, node.lineno))
    assert calls == []


def test_ladder_powers_are_built_once_per_mode_size():
    # the per-mode ladder matrices and their powers q^a p^b are built only in
    # fock._mode_power, memoized per (levels, a, b), never per represent call
    tree = ast.parse((SRC / "fock.py").read_text())

    def ladder_calls(node):
        return [inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.Call)
                and getattr(inner.func, "attr", getattr(inner.func, "id", None))
                in {"_small_annihilator", "matrix_power"}]

    (memo,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_mode_power"]
    assert any(ast.unparse(d).startswith(("functools.lru_cache", "functools.cache"))
               for d in memo.decorator_list)
    assert ladder_calls(memo) and ladder_calls(tree) == ladder_calls(memo)


def test_grid_kernel_is_one_matrix_product():
    # a ratchet: the scan kernel forms [cos A | sin A] @ [cos C ; -sin C] as
    # one GEMM of inner size 2N per slice of at most 192 head levels
    # (notes/decisions.md, "Grid scan by angle addition"), not the two
    # products of inner size N it replaced; one @ sits in the slice loop
    tree = ast.parse((SRC / "recurrence.py").read_text())
    (kernel,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_grid_objective"]
    products = [node.lineno for node in ast.walk(kernel)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                in {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}]
    assert len(products) == 1, products


def _private_reads(tree):
    """(line, name) of every ``_``-prefixed name a module reads from another
    package module: an attribute of an imported module, or a from-import."""
    modules, refs = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("recurq")):
            base = (node.module or "").removeprefix("recurq").strip(".")
            for alias in node.names:
                if not base:
                    modules.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    refs.append((node.lineno, f"{base}.{alias.name}"))
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("recurq."))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and ast.unparse(node.value) in modules):
            refs.append((node.lineno, f"{ast.unparse(node.value)}.{node.attr}"))
    return sorted(refs)


def test_private_names_stay_in_their_module():
    # a module's _-prefixed names are its own.  In particular PolyOp's
    # unvalidated constructor weyl._trusted serves weyl's own arithmetic
    # only: every other module, and so all user input parsed in cli and
    # chains, builds polynomials through the validating PolyOp(...)
    probe = "from . import weyl\nimport recurq.fock\nfrom .weyl import _b\nweyl._a\nrecurq.fock._c"
    assert _private_reads(ast.parse(probe)) == [(3, "weyl._b"), (4, "weyl._a"),
                                                (5, "recurq.fock._c")]
    refs = {path.stem: _private_reads(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}
    assert {mod: found for mod, found in refs.items() if found} == {}


# the package's layers, lowest first: a module imports only modules below it
LAYERS = ("weyl", "fock", "recurrence", "propagate", "synth", "chains", "cli")


def _package_imports(tree):
    """Every recurq module a module imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or
                                                 (node.module or "").startswith("recurq")):
            base = (node.module or "").removeprefix("recurq").strip(".")
            names = [base] if base else [alias.name for alias in node.names]
            found.update(name.split(".")[0] for name in names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("recurq."))
    return found


def _function_body_imports(tree):
    """Line of every import statement inside a function body."""
    return {inner.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))}


def test_package_import_graph():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert set(LAYERS) | {"__init__"} == set(trees)
    imports = {mod: _package_imports(tree) for mod, tree in trees.items()}
    assert imports["recurrence"] == set()
    assert imports["propagate"] == {"recurrence"}
    assert imports["fock"] == {"weyl"}
    for mod in LAYERS:
        assert imports[mod] <= set(LAYERS[:LAYERS.index(mod)]), mod
    # no import of any module deferred into a function body, where a cycle or
    # a cold-start cost could hide
    assert {mod: lines for mod, tree in trees.items()
            if (lines := _function_body_imports(tree))} == {}


def _absolute_imports(tree):
    """Top-level package of every absolute import in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def _names_scipy_optimize(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.startswith("scipy.optimize") for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.startswith("scipy.optimize") or (
                    node.module == "scipy" and any(a.name == "optimize" for a in node.names)):
                return True
        elif isinstance(node, ast.Attribute) and node.attr == "optimize":
            if getattr(node.value, "id", None) == "scipy":
                return True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.startswith("scipy.optimize"):
                return True
    return False


def test_scipy_is_only_sparse():
    # the recurrence refine is a private Brent minimizer; scipy.optimize (and
    # the linalg, special and fft it pulls in) is a test oracle only
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [mod for mod, tree in trees.items() if _names_scipy_optimize(tree)] == []
    third_party = _absolute_imports(trees["recurrence"]) - set(sys.stdlib_module_names)
    assert third_party == {"numpy"}


def test_cli_import_loads_no_heavy_scipy():
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy.fft")
    code = ("import sys\nimport recurq.cli\n"
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == []


def _optional_parameters(tree):
    """Parameters with a default, of every function and lambda, plus class
    fields with a default (dataclass options)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_optional_parameters_do_not_grow():
    # a ratchet: every option is one more path to keep working; lower the
    # bound when an option goes
    assert sum(_optional_parameters(ast.parse(path.read_text()))
               for path in sorted(SRC.glob("*.py"))) <= 48
