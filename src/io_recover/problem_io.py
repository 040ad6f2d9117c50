"""JSON problem and solution documents.

Schema version "1".  Matrices are row-major lists of lists, numbers are
JSON numbers (a string or boolean where a number belongs is rejected, not
converted), constraint and column indices in documents are 1-based.
Documents are written and read as standard JSON (RFC 8259), which has no
Infinity or NaN: a non-finite number is written as null, a NaN or
Infinity token is rejected, and a null entry of a `per_constraint`
vector is read back as infinity (a row that cannot be made active).
Unknown fields are rejected so fixture typos fail loudly.
"""

import itertools
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ProblemFileError
from .geometry import NormKind
from .model import (
    ForwardProblem,
    InverseSolution,
    ModelKind,
    Prior,
    SideConstraints,
    Status,
    UncertaintyStructure,
    check_inputs,
    param_keys,
)

SCHEMA_VERSION = "1"

_TOP_FIELDS = {
    "schema_version",
    "model",
    "A",
    "b",
    "x_hat",
    "uncertain_columns",
    "alpha",
    "omega",
    "prior",
}
_OMEGA_FIELDS = {"omega.G", "omega.h", "omega.variable_order"}
_PRIOR_FIELDS = {"prior.estimates", "prior.xi", "prior.norm"}

_VAR_RE = re.compile(r"^(a|alpha)\[(\d+)\]\[(\d+)\]$|^(gamma)\[(\d+)\]$")
_FITS = {"a": ("nlo",), "alpha": ("iu", "ccu"), "gamma": ("ccu",)}  # the model families a kind of name fits


@dataclass(frozen=True)
class ProblemBundle:
    model: ModelKind
    problem: ForwardProblem
    x_hat: np.ndarray
    structure: UncertaintyStructure
    omega: SideConstraints = None
    prior: Prior = None

    def __eq__(self, other):
        return (
            isinstance(other, ProblemBundle)
            and self.model == other.model
            and self.problem == other.problem
            and np.array_equal(self.x_hat, other.x_hat)
            and self.structure == other.structure
            and self.omega == other.omega
            and self.prior == other.prior
        )


def _require(doc, field, kind=None):
    if field not in doc:
        raise ProblemFileError(field, "missing required field")
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise ProblemFileError(field, f"expected {kind.__name__}")
    return value


def _within(doc, field):
    """The object doc[field] with its keys prefixed by `field.`, so errors name the full path."""
    return {f"{field}.{key}": value for key, value in _require(doc, field, dict).items()}


def _is_number(value):
    return type(value) in (int, float)


def _numbers(doc, field, ndim, null=None):
    """doc[field] as a float array of `ndim` dimensions (1: a flat list, 2: a
    list of rows) whose entries are JSON numbers: strings, booleans and
    nulls are rejected, not converted, except that, when `null` is given,
    a flat list reads a null entry as that number."""
    raw = _require(doc, field, list)
    if null is not None and ndim == 1 and None in raw:
        raw = [null if value is None else value for value in raw]
    shape = "must be a list of rows" if ndim == 2 else "must be a flat list"
    if ndim == 2 and not all(type(row) is list for row in raw):
        raise ProblemFileError(field, shape)
    types = set(map(type, itertools.chain.from_iterable(raw) if ndim == 2 else raw))  # at C speed
    if list in types:
        raise ProblemFileError(field, shape)
    if not types <= {int, float}:
        raise ProblemFileError(field, "every entry must be a number")
    try:
        arr = np.array(raw, dtype=float)
    except ValueError:
        raise ProblemFileError(field, "rows must have equal length") from None
    except OverflowError:
        raise ProblemFileError(field, "number out of range") from None
    if arr.ndim != ndim:
        raise ProblemFileError(field, shape)
    return arr


def _matrix(doc, field, rows=None, cols=None):
    arr = _numbers(doc, field, 2)
    if rows is not None and arr.shape[0] != rows:
        raise ProblemFileError(field, f"expected {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ProblemFileError(field, f"expected {cols} columns, got {arr.shape[1]}")
    return arr


def _vector(doc, field, size=None, null=None):
    arr = _numbers(doc, field, 1, null)
    if size is not None and arr.size != size:
        raise ProblemFileError(field, f"expected length {size}, got {arr.size}")
    return arr


def _parse_variable_order(names, model):
    """The 0-based (rows, cols) index arrays of the parameters the names
    list, cols None for the budgets.  An alpha name fits a budget model
    too, but names none of its parameters: its row reads -1."""
    own = {"nlo": "a", "iu": "alpha", "ccu": "gamma"}[model.family]
    rows, cols = [], []
    for name in names:
        match = _VAR_RE.match(name) if isinstance(name, str) else None
        if not match:
            raise ProblemFileError("omega.variable_order", f"cannot parse {name!r}")
        kind = match.group(1) or match.group(4)
        if model.family not in _FITS[kind]:
            raise ProblemFileError("omega.variable_order", f"{name!r} does not fit model {model.value}")
        # 0-based; an index past any array's reach reads as the largest
        i, j = (min(int(g or 0), sys.maxsize) - 1 for g in (match.group(2) or match.group(5), match.group(3)))
        rows.append(i if kind == own else -1)
        cols.append(j)
    return np.array(rows, dtype=np.intp), None if own == "gamma" else np.array(cols, dtype=np.intp)


def _first(flags, default):
    """The index of the first true flag, or `default` when none is."""
    return next((k for k, flag in enumerate(flags) if flag), default)


def _column_sets(doc, m, n):
    """uncertain_columns as 0-based column tuples in listed order, and their
    (row, column) index arrays.  The pairs are checked all at once, not
    entry by entry; the first fault in row-major order is the one reported."""
    raw = _require(doc, "uncertain_columns", list)
    if len(raw) != m:
        raise ProblemFileError("uncertain_columns", f"expected {m} rows")
    k = _first((type(row) is not list for row in raw), m)  # rows before k are lists
    flat = list(itertools.chain.from_iterable(raw[:k]))
    if set(map(type, flat)) <= {int} and (not flat or 1 <= min(flat) and max(flat) <= n):  # at C speed
        bad = len(flat)
    else:
        bad = _first((type(j) is not int or not 1 <= j <= n for j in flat), len(flat))
    lengths = list(map(len, raw[:k]))
    rows = np.repeat(np.arange(k), lengths)
    cols = np.array(flat[:bad], dtype=np.intp) - 1
    repeated = np.ones(bad, dtype=bool)  # an entry naming a column its row named before
    repeated[np.unique(rows[:bad] * n + cols, return_index=True)[1]] = False
    if repeated.any():
        p = np.argmax(repeated)
        raise ProblemFileError("uncertain_columns", f"row {rows[p] + 1}: column {cols[p] + 1} listed twice")
    if bad < len(flat):
        raise ProblemFileError("uncertain_columns", f"row {rows[bad] + 1}: column {flat[bad]!r} outside 1..{n}")
    if k < m:
        raise ProblemFileError("uncertain_columns", f"row {k + 1} must be a list")
    ends, columns = list(itertools.accumulate(lengths)), cols.tolist()
    return tuple(tuple(columns[a:b]) for a, b in zip([0] + ends, ends)), (rows, cols)


def _magnitudes(doc, sets, entries, n):
    """alpha, one number per uncertain column of each row, as a dense m x n
    matrix (zero off the column sets).  The first fault in row-major order
    is the one reported."""
    m = len(sets)
    raw = _require(doc, "alpha", list)
    if len(raw) != m:
        raise ProblemFileError("alpha", f"expected {m} rows")
    if (set(map(type, raw)) == {list} and list(map(len, raw)) == list(map(len, sets))
            and set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}):  # at C speed
        k = m
    else:
        k = _first((type(row) is not list or len(row) != len(s) or not all(map(_is_number, row))
                    for row, s in zip(raw, sets)), m)
    count = sum(map(len, sets[:k]))
    alpha = np.zeros((m, n))
    try:
        alpha[entries[0][:count], entries[1][:count]] = list(itertools.chain.from_iterable(raw[:k]))
    except OverflowError:
        raise ProblemFileError("alpha", "number out of range") from None
    if k < m:
        raise ProblemFileError("alpha", f"row {k + 1} must list one number per uncertain column")
    return alpha


def parse_problem(doc):
    """Build the solver inputs from a problem document (strict)."""
    if not isinstance(doc, dict):
        raise ProblemFileError("document", "top level must be an object")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise ProblemFileError(sorted(unknown)[0], "unknown field")
    version = _require(doc, "schema_version", str)
    if version != SCHEMA_VERSION:
        raise ProblemFileError("schema_version", f"unsupported version {version!r}")
    model_raw = _require(doc, "model", str)
    try:
        model = ModelKind(model_raw)
    except ValueError:
        raise ProblemFileError("model", f"unknown model {model_raw!r}") from None

    A = _matrix(doc, "A")
    m, n = A.shape
    b = _vector(doc, "b", m)
    x_hat = _vector(doc, "x_hat", n)
    problem = ForwardProblem(A=A, b=b)

    sets = alpha_rows = None
    if "uncertain_columns" in doc:
        sets, entries = _column_sets(doc, m, n)
    if "alpha" in doc:
        if sets is None:
            raise ProblemFileError("alpha", "needs uncertain_columns")
        alpha_rows = _magnitudes(doc, sets, entries, n)

    if model.family == "nlo":
        structure = UncertaintyStructure.nominal()
        if sets is not None:
            raise ProblemFileError("uncertain_columns", f"not used by model {model.value}")
    elif model.family == "iu":
        if sets is None:
            raise ProblemFileError("uncertain_columns", f"required by model {model.value}")
        structure = UncertaintyStructure.interval(sets)
    else:
        if sets is None:
            raise ProblemFileError("uncertain_columns", f"required by model {model.value}")
        if alpha_rows is None:
            raise ProblemFileError("alpha", f"required by model {model.value}")
        structure = UncertaintyStructure.cardinality(sets, alpha_rows)

    omega = order = None
    if "omega" in doc:
        omega_doc = _within(doc, "omega")
        unknown = set(omega_doc) - _OMEGA_FIELDS
        if unknown:
            raise ProblemFileError(sorted(unknown)[0], "unknown field")
        G = _matrix(omega_doc, "omega.G")
        h = _vector(omega_doc, "omega.h", G.shape[0])
        if "omega.variable_order" in omega_doc:
            order = _parse_variable_order(_require(omega_doc, "omega.variable_order", list), model)
        omega = SideConstraints(G=G, h=h)
        if order is not None and order[0].size != omega.p:
            raise DimensionError("omega.variable_order", f"{order[0].size} names for {omega.p} columns of G")

    prior = None
    xi = None
    norm = NormKind.L2
    if "prior" in doc:
        prior_doc = _within(doc, "prior")
        unknown = set(prior_doc) - _PRIOR_FIELDS
        if unknown:
            raise ProblemFileError(sorted(unknown)[0], "unknown field")
        if "prior.xi" in prior_doc:
            xi = _vector(prior_doc, "prior.xi", m)
        if "prior.norm" in prior_doc:
            raw_norm = _require(prior_doc, "prior.norm", str)
            try:
                norm = NormKind(raw_norm)
            except ValueError:
                raise ProblemFileError("prior.norm", f"unknown norm {raw_norm!r}") from None
        if model == ModelKind.NLO_SD:
            estimates = (
                _matrix(prior_doc, "prior.estimates", m, n) if "prior.estimates" in prior_doc else A.copy()
            )
            prior = Prior(estimates=estimates, xi=xi, norm=norm)
        elif model == ModelKind.RLO_CCU_SD:
            estimates = _vector(prior_doc, "prior.estimates", m)
            prior = Prior(estimates=estimates, xi=xi, norm=norm)
        elif model == ModelKind.RLO_IU_SD:
            if "prior.estimates" in prior_doc:
                raise ProblemFileError(
                    "prior.estimates", "magnitude priors belong in the alpha field"
                )
        else:
            raise ProblemFileError("prior", f"not used by model {model.value}")
    if model == ModelKind.RLO_IU_SD:
        if alpha_rows is None:
            raise ProblemFileError("alpha", "required by model rlo-iu-sd (prior magnitudes)")
        prior = Prior(estimates=alpha_rows, xi=xi, norm=norm)
    if model == ModelKind.RLO_IU_DG and alpha_rows is not None:
        raise ProblemFileError("alpha", "not used by model rlo-iu-dg (magnitudes are imputed)")
    if order is not None:
        # G's columns into their natural order, checked where check_inputs checks omega: after x_hat
        if not np.all(np.isfinite(x_hat)):
            raise DimensionError("x_hat", "entries must be finite")
        place = param_keys(model, problem, structure).places(*order)
        if place is None:
            raise DimensionError("omega.variable_order", "must name each imputed parameter exactly once")
        omega = SideConstraints(G=omega.G.take(np.argsort(place), axis=1), h=omega.h)  # C order, as G is read
    check_inputs(model, problem, x_hat, structure, omega, prior)

    return ProblemBundle(
        model=model, problem=problem, x_hat=x_hat, structure=structure, omega=omega, prior=prior
    )


def serialize_problem(bundle):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": bundle.model.value,
        "A": bundle.problem.A.tolist(),
        "b": bundle.problem.b.tolist(),
        "x_hat": np.asarray(bundle.x_hat, dtype=float).tolist(),
    }
    structure = bundle.structure
    if structure.variant.value != "nominal":
        doc["uncertain_columns"] = [[j + 1 for j in s] for s in structure.sets]
    if structure.variant.value == "cardinality":
        doc["alpha"] = [
            [float(structure.alpha[i, j]) for j in s] for i, s in enumerate(structure.sets)
        ]
    if bundle.model == ModelKind.RLO_IU_SD and bundle.prior is not None:
        doc["alpha"] = [
            [float(bundle.prior.estimates[i, j]) for j in s]
            for i, s in enumerate(structure.sets)
        ]
    if bundle.omega is not None:
        doc["omega"] = {"G": bundle.omega.G.tolist(), "h": bundle.omega.h.tolist()}
    if bundle.prior is not None:
        prior_doc = {}
        if bundle.model != ModelKind.RLO_IU_SD:
            prior_doc["estimates"] = bundle.prior.estimates.tolist()
        if bundle.prior.xi is not None:
            prior_doc["xi"] = bundle.prior.xi.tolist()
        prior_doc["norm"] = bundle.prior.norm.value
        doc["prior"] = prior_doc
    return doc


def _imputed_field(model):
    return {"nlo": "A", "iu": "alpha", "ccu": "gamma"}[model.family]


def serialize_solution(bundle, solution, report=None, validation=None):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "model": bundle.model.value,
        "status": solution.status.value,
        "active_index": solution.active_index,
        "duality_gap": solution.duality_gap,
        "objective_value": solution.objective_value,
        "cost": None if solution.cost is None else np.asarray(solution.cost).tolist(),
        "dual_pi": None if solution.dual_pi is None else np.asarray(solution.dual_pi).tolist(),
        "imputed": None,
        "per_constraint": {k: np.asarray(v).tolist() for k, v in solution.per_constraint.items()},
        "message": solution.message,
    }
    if solution.imputed is not None:
        doc["imputed"] = {_imputed_field(bundle.model): np.asarray(solution.imputed).tolist()}
    if solution.remediations:
        items = []
        for r in solution.remediations:
            entry = {"kind": type(r).__name__, "row": r.row + 1, "note": r.note}
            if hasattr(r, "col"):
                entry["col"] = r.col + 1
                entry["heuristic"] = r.heuristic
            if hasattr(r, "delta"):
                entry["delta"] = r.delta
            if hasattr(r, "weight"):
                entry["weight"] = r.weight
            items.append(entry)
        doc["remediations"] = items
    if report is not None:
        doc["certificate"] = {
            "verdict": report.verdict,
            "reason": report.reason,
            "residuals": dict(report.residuals),
            "nontriviality": dict(report.nontriviality),
        }
    if validation is not None:
        doc["validation"] = [
            {"check": e.check, "level": e.level, "rows": list(e.rows), "message": e.message}
            for e in validation.entries
        ]
    return doc


_SOLUTION_FIELDS = {
    "schema_version",
    "model",
    "status",
    "active_index",
    "duality_gap",
    "objective_value",
    "cost",
    "dual_pi",
    "imputed",
    "per_constraint",
    "message",
    "remediations",
    "certificate",
    "validation",
}


def parse_solution(doc, bundle):
    """Rebuild an InverseSolution from a solution document (for verify/regions)."""
    if not isinstance(doc, dict):
        raise ProblemFileError("document", "top level must be an object")
    unknown = set(doc) - _SOLUTION_FIELDS
    if unknown:
        raise ProblemFileError(sorted(unknown)[0], "unknown field")
    model_raw = _require(doc, "model", str)
    try:
        model = ModelKind(model_raw)
    except ValueError:
        raise ProblemFileError("model", f"unknown model {model_raw!r}") from None
    if model != bundle.model:
        raise ProblemFileError("model", f"solution is for {model.value}, problem is {bundle.model.value}")
    status_raw = _require(doc, "status", str)
    try:
        status = Status(status_raw)
    except ValueError:
        raise ProblemFileError("status", f"unknown status {status_raw!r}") from None
    m, n = bundle.problem.m, bundle.problem.n
    solved = status in (Status.OPTIMAL, Status.TRIVIAL_DETECTED)  # verify reads every block

    def given(field):
        return solved or doc.get(field) is not None

    imputed = None
    if given("imputed"):
        blocks = _within(doc, "imputed")
        name = f"imputed.{_imputed_field(model)}"
        imputed = _vector(blocks, name, m) if model.family == "ccu" else _matrix(blocks, name, m, n)
    per_constraint = {}
    if doc.get("per_constraint") is not None:
        rows = _within(doc, "per_constraint")
        per_constraint = {name.removeprefix("per_constraint."): _vector(rows, name, m, math.inf) for name in rows}
    for field in ("duality_gap", "objective_value"):
        value = doc.get(field)
        if value is not None and not _is_number(value):
            raise ProblemFileError(field, "expected a number")
        try:
            float(value or 0)
        except OverflowError:  # an integer beyond the float range
            raise ProblemFileError(field, "number out of range") from None
    active = doc.get("active_index")
    if active is not None and (type(active) is not int or not 1 <= active <= m):
        raise ProblemFileError("active_index", f"expected a constraint index in 1..{m}")
    return InverseSolution(
        model=model,
        status=status,
        imputed=imputed,
        cost=_vector(doc, "cost", n) if given("cost") else None,
        dual_pi=_vector(doc, "dual_pi", m) if given("dual_pi") else None,
        duality_gap=doc.get("duality_gap"),
        active_index=active,
        objective_value=doc.get("objective_value"),
        per_constraint=per_constraint,
        message=doc.get("message"),
    )


def _nonstandard(token):
    raise ValueError(f"{token} is not a JSON number")


def load_json(path):
    """Read a standard JSON (RFC 8259) document in UTF-8: no NaN or Infinity."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            return json.load(fp, parse_constant=_nonstandard)
    except OSError as exc:
        raise ProblemFileError(str(path), f"cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, a NaN or Infinity token, or nested too deep
        raise ProblemFileError(str(path), f"invalid JSON: {exc}") from None


_escape = json.encoder.encode_basestring_ascii  # the stdlib's own string writer


def _write(value, pad, out):
    """Append value's text in json.dumps(indent=2)'s layout to the list `out`,
    byte for byte; `pad` is the newline and indent that open value's line.
    numpy scalars and arrays are written as Python values and a non-finite
    float as null.  Dict keys must be strings."""
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        try:  # a flat list of floats in one join; a finite float's repr has no "n", inf and nan do
            flat = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # an entry that is not a float
            flat = "n"
        if "n" not in flat:
            out.append("[" + inner + flat + pad + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, item in value.items():
            out.append(sep + _escape(key) + ": ")
            _write(item, inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is str:
        out.append(_escape(value))
    elif isinstance(value, (float, np.floating)):
        out.append(float.__repr__(float(value)) if math.isfinite(value) else "null")
    elif value is None or isinstance(value, (bool, np.bool_)):
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(int.__repr__(int(value)))
    elif isinstance(value, np.ndarray):
        _write(value.tolist(), pad, out)
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _text(doc):
    """doc as json.dumps(doc, indent=2, allow_nan=False) writes it once numpy
    values are made Python values and non-finite floats None."""
    out = []
    _write(doc, "\n", out)
    return "".join(out)


def dump_json(path, doc):
    """Write doc as standard JSON: a non-finite number becomes null."""
    text = _text(doc)
    try:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text + "\n")
    except OSError as exc:
        raise ProblemFileError(str(path), f"cannot write: {exc}") from None
