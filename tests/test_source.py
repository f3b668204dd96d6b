import ast
import importlib
import inspect
import math
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "recurq"
PERFBENCH = SRC.parents[1] / "perfbench"


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


def _class_names():
    """Every class the package defines."""
    return {node.name for path in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)}


def _names(module):
    """Every name, attribute and imported name the module reads."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text())):
        names.update([getattr(node, "id", None), getattr(node, "attr", None)])
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_generators_are_diagonalized_in_one_place():
    # recurrence.spectral is every generator's decomposition, the one-off
    # expm_skew and expm_apply included: they run on a one-generator
    # EvolutionTable, so expm_apply keeps no path choice of its own
    # (notes/decisions.md, "One spectral store")
    assert _call_sites("eigh") == {("recurrence", "spectral")}
    (expm_apply,) = [node for node in ast.parse((SRC / "propagate.py").read_text()).body
                     if isinstance(node, ast.FunctionDef) and node.name == "expm_apply"]
    names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(expm_apply)}
    assert names & {"expm_skew", "_Action", "uses_spectrum"} == set()


def test_one_run_path():
    # synth.run is the only code that chooses between forward and signed
    # evolution, and the CLI realizes, runs and checks words only through
    # synth (notes/decisions.md, "One builder per word")
    assert _call_sites("evolve_signed") == {("synth", "run")}
    banned = {"evolve", "evolve_signed", "realize_word", "expm_apply", "expr_matrix"}
    assert _names("cli") & banned == set()


def test_one_build_per_generator():
    # a generator family reaches its EvolutionTable in cli._build_system,
    # which also refuses its indices, or in the library's chain_demo; closure
    # generators are checked by lie_closure alone, and a chain's summed
    # Hamiltonians only through coupling_hamiltonian's own check
    # (notes/decisions.md, "Only the generators a run reads", "One check per
    # closure generator" and "Chain Hamiltonians summed from the coupling terms").
    # The one-off expm_skew and expm_apply take one generator, not a family:
    # each wraps it in its own table to share the table's decomposition and
    # evaluation (notes/decisions.md, "One spectral store")
    assert _call_sites("EvolutionTable") == {("cli", "_build_system"), ("chains", "chain_demo"),
                                             ("propagate", "expm_skew"),
                                             ("propagate", "expm_apply")}
    assert _call_sites("as_hermitian") == {("chains", "coupling_hamiltonian")}
    assert _names("cli") & {"as_skew", "chain_table"} == set()
    assert "GeneratorIndexError" not in _class_names()


def test_one_recurrence_guarantee_path():
    # plan_recurrence alone turns a mode's cover into a tail cut: the net
    # and energy-bound cuts, and the overlaps a net's cut reads, are taken
    # nowhere else, so the CLI passes its covers through unconverted
    # (notes/decisions.md, "One cover per plan")
    plan = {("recurrence", "plan_recurrence")}
    assert _call_sites("tail_cut_energy") == plan
    assert _call_sites("tail_cut_finite_net") == plan
    assert _call_sites("overlaps") == plan


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
    # each monomial reaches CSR order by a stable counting sort by row, and
    # represent adds canonical CSR terms (notes/decisions.md, "Fock assembly
    # into CSR"): no sort, unique or argsort in fock
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
                in {"diag", "matrix_power"}]

    (memo,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_mode_power"]
    assert any(ast.unparse(d).startswith(("functools.lru_cache", "functools.cache"))
               for d in memo.decorator_list)
    assert ladder_calls(memo) and ladder_calls(tree) == ladder_calls(memo)


def test_structure_constants_are_built_once_per_key():
    # a ratchet: the contraction rule is expanded (the np.repeat over
    # contractions) in weyl._expand alone, for the bracket table and the
    # adjoint map, and those only for weyl._structure_constants, one
    # lru_cache bounded by an integer maxsize and keyed by (slot count, cap)
    # (notes/decisions.md, "Structure constants once per process"), never per
    # closure or per target list.  Its cached entry is the table object
    # closures read: no per-closure _StructureTensor wraps it
    assert {site for site in _call_sites("repeat") if site[0] == "weyl"} == {
        ("weyl", "_expand")}
    assert _call_sites("_expand") == {("weyl", "_adjoint_matrix"), ("weyl", "_bracket_table")}
    for name in ("_adjoint_matrix", "_bracket_table"):
        assert _call_sites(name) == {("weyl", "_structure_constants")}, name
    assert "_StructureTensor" not in _class_names()
    tree = ast.parse((SRC / "weyl.py").read_text())
    memos = [(node.name, d) for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
             for d in node.decorator_list
             if ast.unparse(getattr(d, "func", d)) in {"functools.lru_cache", "functools.cache"}]
    assert [name for name, _ in memos] == ["_structure_constants"]
    ((_, decorator),) = memos
    assert isinstance(decorator, ast.Call) and ast.unparse(decorator.func) == "functools.lru_cache"
    (maxsize,) = [k.value for k in decorator.keywords if k.arg == "maxsize"] or decorator.args
    assert isinstance(maxsize, ast.Constant) and type(maxsize.value) is int


def test_bracket_columns_key_rows_by_their_bytes():
    # a ratchet: _columns keys each exponent row by its uint8 bytes and sorts
    # the keys with one np.unique (notes/decisions.md, "One sparse structure
    # tensor"); no row-ranking helper, such as the combinatorial _lex_rank it
    # replaced, comes back in its place
    tree = ast.parse((SRC / "weyl.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_lex_rank" not in defined | _names("weyl")
    (columns,) = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "_columns"]
    called = {ast.unparse(node.func) for node in ast.walk(columns) if isinstance(node, ast.Call)}
    assert {name for name in called if name.split(".")[-1] in defined} == set()
    assert {"np.unique", "np.dtype"} <= called
    assert _call_sites("_columns") == {("weyl", "_adjoint_matrix"), ("weyl", "_bracket_table")}


def test_one_bracket_kernel():
    # a ratchet: every bracket the package takes is a product of the cached
    # table (notes/decisions.md, "Coupling brackets from the table").
    # weyl.bracket stays as library API and serves tests as an oracle, and
    # the coefficient pruning of tests/oracles.py's cleaned is no package call
    assert _call_sites("bracket") == set()
    assert _call_sites("cleaned") == set()
    # (_mono_product's product is itertools')
    assert _call_sites("product") - {("weyl", "_mono_product")} == {
        ("weyl", "_Constants.bracket_rows"), ("weyl", "algebraic_propagation_check")}


def test_one_closure_sweep():
    # a ratchet: lie_closure is the only closure sweep, and the propagation
    # check hands its table brackets to it (notes/decisions.md, "Coupling
    # brackets from the table"); no private copy of its frame pick, sweep,
    # target builder or row converter comes back
    assert _call_sites("_RealSpan") == {("weyl", "lie_closure")}
    assert ("weyl", "algebraic_propagation_check") in _call_sites("lie_closure")
    defined = {node.name for node in ast.walk(ast.parse((SRC / "weyl.py").read_text()))
               if isinstance(node, ast.FunctionDef)}
    for name in ("_close", "_reindex", "_skew_targets", "_from_vector"):
        assert name not in defined | _names("weyl"), name


def test_chain_closures_start_at_cap_three():
    # a ratchet: chains closes only in its two helpers, which close at
    # min(cap, 3) first and sweep at the cap only when that closure does not
    # imply the answer (notes/decisions.md, "Chain verdicts from the cap-3
    # closure"; test_chains' cap-six and one-mode-frame tests count the caps).
    # The check builds PolyOps only for the pair targets it misses, not every
    # target through skew_monomial_generators, and the targets i(I + A) are
    # built in one place, _structure_constants, once per key into _Constants.targets
    closes = _call_sites("lie_closure") | _call_sites("algebraic_propagation_check")
    assert {site for site in closes if site[0] == "chains"} == {("chains", "_site_dim"),
                                                                 ("chains", "_pair_verdict")}
    assert _call_sites("skew_monomial_generators") == {("weyl", "local_skew_generators")}
    assert _call_sites("identity") == {("weyl", "_structure_constants")}
    assert _call_sites("_target_ops") == {("weyl", "LieBasis.basis"),
                                          ("weyl", "skew_monomial_generators"),
                                          ("weyl", "algebraic_propagation_check")}


def test_one_coefficient_mask():
    # a ratchet: _drop_tiny is weyl's one coefficient mask, on the span's
    # stored rows, which the brackets and LieBasis.basis read, and on the
    # check's bracket rows (notes/decisions.md, "Rows stored once"); no
    # _PRUNE floor or hand-written mask comes back
    assert _call_sites("_drop_tiny") == {("weyl", "_RealSpan.try_add"),
                                         ("weyl", "algebraic_propagation_check")}
    assert "_PRUNE" not in _names("weyl")


def test_grid_kernel_is_one_matrix_product():
    # a ratchet: the scan kernel forms the rows' cos A, sin A against the
    # column factor's cos C, -sin C as one GEMM of inner size 2N per slice of
    # at most 192 head levels (notes/decisions.md, "Grid scan by angle
    # addition"), not the two products of inner size N it replaced; one @
    # sits in the slice loop
    tree = ast.parse((SRC / "recurrence.py").read_text())
    (kernel,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_grid_objective"]
    products = [node.lineno for node in ast.walk(kernel)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and getattr(node.func, "attr", None)
                in {"dot", "matmul", "einsum", "tensordot", "inner", "vdot"}]
    assert len(products) == 1, products


def test_phase_table_is_built_once_per_search():
    # a ratchet: a search scans one fixed-step grid from one phase table
    # (notes/decisions.md, "One phase table per search"), so the package
    # builds a _PhaseTable at one site, in find_recurrence_time's own body
    # (not in a helper or a nested function) and outside its chunk loop
    assert _call_sites("_PhaseTable") == {("recurrence", "find_recurrence_time")}
    tree = ast.parse((SRC / "recurrence.py").read_text())
    (search,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "find_recurrence_time"]

    def builds(node):
        return [inner.lineno for inner in ast.walk(node) if isinstance(inner, ast.Call)
                and getattr(inner.func, "id", getattr(inner.func, "attr", None)) == "_PhaseTable"]

    loops = [node for node in ast.walk(search) if isinstance(node, (ast.For, ast.While))]
    assert loops and len(builds(search)) == 1
    assert [line for loop in loops for line in builds(loop)] == []


def test_recurrence_holds_no_module_level_mutable_container():
    # a ratchet: searches share nothing between calls.  The scan's phase
    # tables live in one find_recurrence_time call, and threads share a
    # RecurrenceInverter under --jobs > 1, so a module-level cache would be
    # shared state; no dict, list or set, literal or call, at module level
    tree = ast.parse((SRC / "recurrence.py").read_text())
    literals = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    calls = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
             "WeakValueDictionary", "WeakKeyDictionary", "lru_cache", "cache"}
    found = []
    for stmt in tree.body:
        # decorators run at import, and a class attribute is shared by every
        # instance: both are module state too
        if isinstance(stmt, ast.FunctionDef):
            nodes = stmt.decorator_list
        elif isinstance(stmt, ast.ClassDef):
            nodes = stmt.decorator_list + [node for node in stmt.body
                                           if not isinstance(node, ast.FunctionDef)]
        else:
            nodes = [stmt]
        for node in (inner for top in nodes for inner in ast.walk(top)):
            if isinstance(node, literals) or isinstance(node, ast.Call) and getattr(
                    node.func, "attr", getattr(node.func, "id", None)) in calls:
                found.append((node.lineno, ast.unparse(node)[:60]))
    assert not found, found


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
    # the recurrence refine is a private Newton iteration; scipy.optimize (and
    # the linalg, special and fft it pulls in) stays out of the package
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


def test_readme_example_runs(capsys):
    # the README's Python example, run as written
    readme = (SRC.parents[1] / "README.md").read_text()
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    namespace: dict = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert abs(namespace["res"].t_star - (4 * math.pi - 1.0)) < 1e-6
    assert capsys.readouterr().out


def _traced_functions():
    """{span: [function]} of perfbench/tracing.py's SPANS (module, attribute,
    span) list, a "Class.method" attribute read from the class as the tracer
    patches it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (spans,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SPANS"]
    out = {}
    for module, attr, span in spans:
        owner = importlib.import_module(module)
        cls_name, _, meth = attr.rpartition(".")
        fn = vars(getattr(owner, cls_name))[meth] if cls_name else getattr(owner, attr)
        out.setdefault(span, []).append(fn)
    return out


def _hook_arguments(tree):
    """{hook: argument names} that each Tracer hook reads as args["..."],
    in its body or in a module function it calls."""
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (tracer,) = [node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "Tracer"]
    read = {}
    for hook in tracer.body:
        if not (isinstance(hook, ast.FunctionDef) and hook.name.startswith("_hook_")):
            continue
        nodes = [hook] + [helpers[call.func.id] for call in ast.walk(hook)
                          if isinstance(call, ast.Call)
                          and getattr(call.func, "id", None) in helpers]
        read[hook.name] = {sub.slice.value for node in nodes for sub in ast.walk(node)
                           if isinstance(sub, ast.Subscript)
                           and getattr(sub.value, "id", None) == "args"}
    return read


def test_benchmark_spans_and_hook_arguments_resolve():
    # perfbench/tracing.py wraps every SPANS binding and its hooks read
    # arguments by name, so renaming a traced function or one of those
    # parameters breaks `run.py --trace 1`, which tier-1 does not run
    functions = _traced_functions()
    read = _hook_arguments(ast.parse((PERFBENCH / "tracing.py").read_text()))
    assert set().union(*read.values()) >= {"seq", "segments", "generators", "degree_cap", "spec",
                                           "tau_min", "grid_step", "energies"}
    for hook, names in read.items():
        (span,) = [span for span in functions if "_hook_" + span.replace(".", "_") == hook]
        for fn in functions[span]:
            assert names <= set(inspect.signature(fn).parameters), (hook, fn)


def _benchmark_references(tree):
    """(dotted name, call or None) of every attribute chain that a perfbench
    file reads from a module it imports with ``from recurq import ...``."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "recurq"
               for alias in node.names}
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                refs.append((ast.unparse(node), calls.get(id(node))))
    return refs


def test_benchmark_names_resolve():
    # the names perfbench's tracer, checks and tracer tests read from recurq
    # exist, each call binds to its signature, and each "recurq.module.name"
    # wrapped site is a binding of a traced function
    traced = [fn for fns in _traced_functions().values() for fn in fns]
    resolved, unresolved = set(), set()
    for name in ("tracing.py", "checks.py", "tests/test_tracing.py"):
        tree = ast.parse((PERFBENCH / name).read_text())
        for dotted, call in _benchmark_references(tree):
            module, *path = dotted.split(".")
            obj = importlib.import_module(f"recurq.{module}")
            for part in path:
                assert hasattr(obj, part), (name, dotted)
                obj = getattr(obj, part)
            if call is not None and not any(isinstance(a, ast.Starred) for a in call.args):
                inspect.signature(obj).bind(*call.args, **{k.arg: None for k in call.keywords})
            resolved.add(dotted)
        sites = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
                 and isinstance(node.value, str) and re.fullmatch(r"recurq\.\w+\.\w+", node.value)]
        for site in sites:
            module, _, attr = site.rpartition(".")
            if any(getattr(importlib.import_module(module), attr, None) is fn for fn in traced):
                resolved.add(site)
            else:
                unresolved.add(site)
    # synth stopped importing expm_skew before this test; the stale site is
    # one of the two known test_tracing.py failures (ROADMAP item 1, step B)
    assert unresolved <= {"recurq.synth.expm_skew"}
    assert {"weyl.enumerate_monomials", "weyl.is_skew_hermitian", "weyl.PolyOp.from_text",
            "chains.chain_demo", "recurq.chains.represent",
            "recurq.chains.reachability_report"} <= resolved


def test_removed_library_names_stay_gone():
    # helpers whose only callers were tests: deleted, or moved to
    # tests/oracles.py (notes/decisions.md, "Library surface")
    import recurq
    from recurq import fock, propagate, recurrence, weyl

    gone = [(weyl, "canonicalize"), (weyl, "contains"), (weyl, "as_skew"),
            (weyl.PolyOp, "cleaned"), (weyl.PolyOp, "isclose"), (weyl.LieBasis, "contains"),
            (weyl.LieBasis, "contains_all"), (weyl.PropagationResult, "propagates"),
            (propagate, "trotter_sequence"), (recurrence, "recurrence_distance"),
            (fock, "TruncatedRep")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
    assert {name for _, name in gone} & set(vars(recurq)) == set()


def test_optional_parameters_do_not_grow():
    # a ratchet: every option is one more path to keep working; lower the
    # bound when an option goes
    assert sum(_optional_parameters(ast.parse(path.read_text()))
               for path in sorted(SRC.glob("*.py"))) <= 33


def test_weyl_does_not_grow():
    # a ratchet: lower the bound when code goes
    assert len((SRC / "weyl.py").read_text().splitlines()) <= 843


def test_source_does_not_grow():
    # a ratchet: lower the bound when code goes
    assert sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py")) <= 3795
