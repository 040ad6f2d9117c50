"""The library reads no environment variable and runs no worker pool: one
execution path, whatever the process environment.  Every module uses what
it imports, and neither the LP engine nor a solver returns a field its
callers do not read.  The rule for a valid solve input lives in one
function, `model.check_inputs`, which every solver and the trivial-escape
re-solve call, and every solution is built in `model` alone: an infeasible
one by `InverseSolution.infeasible`, the others by the one tail that picks
and realizes the active row.  Budget uncertainty's products alpha |x| are
ranked by `geometry`'s kernel alone, and each strong-duality model
treats all its rows in one array pass: the three strong-duality solvers
and the activation budgets hold no loop, and neither rlo-iu-sd's one-row
activation nor a norm is called in one; the kernels and solvers call no
`map` or `np.fromiter`, a loop no scan rule sees.  The certificate holds no loop
over the rows either, and reads nothing of a solve but its returned solution: `verify`
imports no solver module and not the LP engine; `diagnose_trivial` finds the trivialized
rows in one array pass.  Each gap model hands its subproblems to `model.gap_values`,
which prices one coupling row by the one knapsack kernel and shares one
feasible set over the m LPs when more are left.  `model` is the one module
besides the package's re-exports to import the LP engine, and `validate`
tests each assumption on all rows at once.  Side constraints read G's
nonzeros once, when built, and split the rows into bounds and kept rows
then; `canonicalize_omega` counts no nonzero and takes one path: G's
columns follow the natural parameter order everywhere in the library,
because `problem_io` resolves a document's `variable_order` when it reads
it, and no other module names the column order.  Documents are written by
`problem_io`'s own writer, not by the stdlib's indenting encoder, which is
pure Python.  The benchmark's traced runs
find every function they wrap, and every error class is raised or caught
somewhere in the library."""

import ast
import dataclasses
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from io_recover.lp import LpOutcome
from io_recover.model import InverseSolution

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "io_recover").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_knobs_or_worker_pools(path):
    text = path.read_text(encoding="utf-8")
    assert "os.environ" not in text and "getenv" not in text
    assert "concurrent.futures" not in text


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__.py is left out: it imports to re-export
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def _unread_fields(cls, home):
    """Fields of dataclass `cls` read as an attribute in no module but `home`."""
    read = set()
    for path in SOURCES:
        if path.name != home:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return [f.name for f in dataclasses.fields(cls) if f.name not in read]


def test_every_lp_outcome_field_is_read():
    # work the engine does per LP for a field no caller reads is waste
    assert _unread_fields(LpOutcome, "lp.py") == []


def test_every_solution_field_is_read():
    # a result field that no module, command or document reads is carried for nothing
    assert _unread_fields(InverseSolution, "model.py") == []


def test_traced_layers_resolve():
    # a traced run (bench/run.py --trace 1) looks each name up with getattr
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"io_recover.{layer}"), name, None))
    ]
    assert not missing


def _called(tree):
    """Names of the functions and methods called anywhere in `tree`."""
    funcs = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return {f.id for f in funcs if isinstance(f, ast.Name)} | {f.attr for f in funcs if isinstance(f, ast.Attribute)}


def _functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


SOURCE = {path.name: path for path in SOURCES}
# the input rule, and the structure's and omega's checks it runs
INPUT_CHECKS = {"check_inputs", "check_against"}


def test_solve_only_dispatches():
    assert _called(_functions(SOURCE["__init__.py"])["solve"]) & INPUT_CHECKS == set()


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "model.py"], ids=lambda p: p.name)
def test_input_rule_stays_in_model(path):
    assert _called(ast.parse(path.read_text(encoding="utf-8"))) & (INPUT_CHECKS - {"check_inputs"}) == set()


@pytest.mark.parametrize("name", ["nominal.py", "interval.py", "cardinality.py"])
def test_every_solver_calls_the_one_check(name):
    solvers = {key: node for key, node in _functions(SOURCE[name]).items() if key.startswith("solve_")}
    assert len(solvers) == 2
    assert [key for key, node in solvers.items() if "check_inputs" not in _called(node)] == []


def test_perturbation_calls_the_one_check():
    assert "check_inputs" in _called(_functions(SOURCE["nominal.py"])["perturb_and_resolve"])


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "model.py"], ids=lambda p: p.name)
def test_infeasible_solutions_come_from_model(path):
    # every solver reports an unsolvable input through InverseSolution.infeasible
    assert re.search(r"\bStatus\.INFEASIBLE", path.read_text(encoding="utf-8")) is None


@pytest.mark.parametrize("name", ["nominal.py", "interval.py", "cardinality.py"])
def test_one_solution_tail(name):
    # the active row is picked, its cost realized and the solution built in model.row_solution alone
    tree = ast.parse(SOURCE[name].read_text(encoding="utf-8"))
    assert _called(tree) & {"active_row", "realized_row_interval", "realized_row_cardinality"} == set()
    built = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "InverseSolution"]
    assert built == []


@pytest.mark.parametrize("name", ["cardinality.py", "verify.py", "model.py"])
def test_budgets_are_ranked_in_geometry_alone(name):
    # alpha |x| is ranked once, by geometry's m-row kernel; its per-row views are for callers outside
    ranking = {"argsort", "sorted", "gamma_bar"}
    assert _called(ast.parse(SOURCE[name].read_text(encoding="utf-8"))) & ranking == set()


def _gap_solver(name):
    (solver,) = [node for key, node in _functions(SOURCE[name]).items() if key.endswith("_dg")]
    return solver


MODEL = _functions(SOURCE["model.py"])


@pytest.mark.parametrize("name", ["nominal.py", "interval.py", "cardinality.py"])
def test_one_coupling_row_takes_the_one_kernel(name):
    # the gap solver hands its subproblems to model.gap_values, which prices a single coupling row
    # by model.knapsack_values over geometry.box_knapsack, not by LPs
    assert "gap_values" in _called(_gap_solver(name))
    assert "knapsack_values" in _called(MODEL["gap_values"])
    assert "box_knapsack" in _called(MODEL["knapsack_values"])


def _reads_G(node):
    return any(isinstance(n, ast.Name) and n.id == "G" or isinstance(n, ast.Attribute) and n.attr == "G"
               for n in ast.walk(node))


def test_canonicalize_reads_the_nonzeros_once():
    # G's nonzero pattern is read once, when the side constraints are built, and so is every part of
    # the split that depends on omega alone: canonicalize_omega reads no `entries`, counts, sums,
    # lists or scatters no nonzeros, multiplies no matrix, and only indexes G, never compares it,
    # computes with it or hands it whole to a function
    canon = MODEL["canonicalize_omega"]
    assert [node.lineno for node in ast.walk(canon) if isinstance(node, ast.MatMult)] == []
    assert "entries" not in {node.attr for node in ast.walk(canon) if isinstance(node, ast.Attribute)}
    assert _called(canon) & {"bincount", "cumsum", "flatnonzero", "at"} == set()
    assert [node.lineno for node in ast.walk(canon)
            if isinstance(node, (ast.Compare, ast.Call, ast.BinOp, ast.UnaryOp)) and _reads_G(node)] == []


def test_canonicalize_takes_one_path():
    # G's columns arrive in the natural order: canonicalize_omega branches only on the optional
    # inputs it was given (omega, a floor, a cap), never on how the columns are named
    canon = MODEL["canonicalize_omega"]
    tests = [node.test for node in ast.walk(canon) if isinstance(node, (ast.If, ast.IfExp))]
    assert tests and all(isinstance(test, ast.Compare) and isinstance(test.ops[0], (ast.Is, ast.IsNot))
                         and isinstance(test.comparators[0], ast.Constant) and test.comparators[0].value is None
                         for test in tests)
    assert _called(canon) & {"places", "argsort", "take"} == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_column_order_is_resolved_when_read(path):
    # a document's variable_order is problem_io's to resolve; no type carries a column map
    text = path.read_text(encoding="utf-8")
    assert "variable_map" not in text
    assert "variable_order" not in text or path.name == "problem_io.py"


def test_nominal_sorts_nothing():
    # the knapsacks' ratios are sorted in geometry alone
    assert _called(ast.parse(SOURCE["nominal.py"].read_text(encoding="utf-8"))) & {"argsort", "sort", "sorted"} == set()


def test_nlo_sd_projects_every_row_at_once():
    # the dual norm of x and its maximizer are computed once per solve, not once per row
    assert "project_hyperplane" not in _called(ast.parse(SOURCE["nominal.py"].read_text(encoding="utf-8")))


SCANS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@pytest.mark.parametrize("name", ["nominal.py", "interval.py", "cardinality.py"])
def test_gap_lps_share_one_feasible_set(name):
    # the gap LPs are built in model.gap_values alone, on one Constraints for all m, so the
    # engine builds one equality form and runs one phase 1
    assert "gap_values" in _called(_gap_solver(name))
    gap_values = MODEL["gap_values"]
    assert "Constraints" in _called(gap_values)
    assert [node.lineno for node in ast.walk(gap_values)
            if isinstance(node, SCANS) and "Constraints" in _called(node)] == []


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name not in ("model.py", "__init__.py")],
                         ids=lambda p: p.name)
def test_only_model_imports_the_lp_engine(path):
    # model.gap_values is the library's one client of the engine; __init__ re-exports it
    imported = set()  # each module by its last dotted part, and each name imported from one
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name.rpartition(".")[2] for alias in node.names}
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.rpartition(".")[2])
    assert "lp" not in imported


@pytest.mark.parametrize("name, solver", [("interval.py", "solve_rlo_iu_sd"), ("cardinality.py", "solve_rlo_ccu_sd"),
                                          ("nominal.py", "solve_nlo_sd"), ("geometry.py", "activation")])
def test_sd_solvers_scan_no_rows(name, solver):
    # every row's projection, deviation norm or dot (geometry.row_dots) comes from one pass over the
    # m rows' arrays; so do the activation budgets
    assert [type(node).__name__ for node in ast.walk(_functions(SOURCE[name])[solver]) if isinstance(node, SCANS)] == []


@pytest.mark.parametrize("name", ["geometry.py", "nominal.py", "interval.py", "cardinality.py"])
def test_no_row_loop_hides_in_a_call(name):
    # map and np.fromiter make one Python call per element: a row loop that the SCANS rules do not see
    assert _called(ast.parse(SOURCE[name].read_text(encoding="utf-8"))) & {"map", "fromiter"} == set()


def test_certificate_loops_over_no_rows():
    # the cost equation adds every row's deviation term by one cumulative sum; the comprehensions
    # that read the solution's fields stay
    loops = (ast.For, ast.While)
    assert [node.lineno for node in ast.walk(_functions(SOURCE["verify.py"])["check_certificate"])
            if isinstance(node, loops)] == []


def test_the_certificate_reads_no_solver_state():
    # check_certificate recomputes every residual from the returned solution: verify imports from
    # errors, geometry and model alone, never from a solver module or the LP engine, so no speed-up
    # can hand it what a solve computed
    modules = set()  # each io_recover module imported, by its last dotted part
    for node in ast.walk(ast.parse(SOURCE["verify.py"].read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            modules |= {alias.name for alias in node.names} if node.module is None else {node.module}
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("io_recover"):
            modules.add(node.module.rpartition(".")[2] if "." in node.module else node.module)
        elif isinstance(node, ast.Import):
            modules |= {alias.name.rpartition(".")[2] for alias in node.names if alias.name.startswith("io_recover")}
    assert modules and modules <= {"errors", "geometry", "model"}


def test_trivial_rows_are_found_in_one_array_pass():
    # verify.diagnose_trivial tests every imputed row at once; its one loop walks the rows found
    diagnose = _functions(SOURCE["verify.py"])["diagnose_trivial"]
    assert [type(node).__name__ for node in ast.walk(diagnose) if isinstance(node, SCANS[2:])] == []
    assert len([node for node in ast.walk(diagnose) if isinstance(node, (ast.For, ast.While))]) == 1


@pytest.mark.parametrize("name", ["interval.py", "cardinality.py"])
def test_no_row_at_a_time_kernel_in_a_loop(name):
    # `interval._activation` is the one-row view of the all-rows kernel, for callers outside
    tree = ast.parse(SOURCE[name].read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, SCANS) and _called(node) & {"_activation", "norm_value"}] == []


def test_validate_tests_every_row_at_once():
    # each standing assumption is one array test over all rows, not a per-row scan
    assert [type(node).__name__ for node in ast.walk(_functions(SOURCE["model.py"])["validate"])
            if isinstance(node, SCANS)] == []


def _raised_or_caught(tree):
    """Names of the exception classes raised or caught anywhere in `tree`."""
    exprs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
             for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc is not None]
    exprs += [node.type for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type is not None]
    names = set()
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_error_class_is_raised_or_caught():
    # an exported error the library never raises or catches is dead weight;
    # InverseLpError is the base callers catch
    tree = ast.parse(SOURCE["errors.py"].read_text(encoding="utf-8"))
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)} - {"InverseLpError"}
    used = set().union(*(_raised_or_caught(ast.parse(path.read_text(encoding="utf-8"))) for path in SOURCES))
    assert sorted(classes - used) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_indented_json_dumps(path):
    # json.dump(s) with an indent runs the stdlib's pure-Python encoder; problem_io's writer
    # gives the same bytes at the speed of the float reprs
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dump", "dumps")
             and any(keyword.arg == "indent" for keyword in node.keywords)]
    assert calls == []
