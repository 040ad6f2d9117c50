import contextlib
import copy
import fnmatch
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import io_recover
from io_recover import DimensionError, NumericalFailureError, ProblemFileError, cli, problem_io
from io_recover import lp as lp_mod
from io_recover.fixtures import example_case, solve_case

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def _load(path):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def _column_sets_by_row(doc, m, n):
    """The reference reading of uncertain_columns and alpha, entry by entry:
    the listed 0-based sets and the dense magnitudes, or the first fault's message."""
    raw, sets = doc["uncertain_columns"], []
    if len(raw) != m:
        return f"uncertain_columns: expected {m} rows"
    for i, row in enumerate(raw):
        if not isinstance(row, list):
            return f"uncertain_columns: row {i + 1} must be a list"
        cols = []
        for j in row:
            if type(j) is not int or not 1 <= j <= n:
                return f"uncertain_columns: row {i + 1}: column {j!r} outside 1..{n}"
            if j - 1 in cols:
                return f"uncertain_columns: row {i + 1}: column {j} listed twice"
            cols.append(j - 1)
        sets.append(tuple(cols))
    if len(doc["alpha"]) != m:
        return f"alpha: expected {m} rows"
    alpha = np.zeros((m, n))
    for i, row in enumerate(doc["alpha"]):
        if not isinstance(row, list) or len(row) != len(sets[i]) or not all(type(v) in (int, float) for v in row):
            return f"alpha: row {i + 1} must list one number per uncertain column"
        try:
            alpha[i, list(sets[i])] = row
        except OverflowError:
            return "alpha: number out of range"
    return tuple(sets), alpha.tolist()


class TestProblemFiles:
    @pytest.mark.parametrize("number", range(1, 9))
    def test_round_trip(self, number):
        bundle = example_case(number)
        doc = problem_io.serialize_problem(bundle)
        again = problem_io.parse_problem(doc)
        assert again == bundle
        assert problem_io.serialize_problem(again) == doc

    def test_fixtures_is_the_package_examples(self):
        # one copy of the demo documents: the benchmark and the README read them at fixtures/
        assert FIXTURES.resolve() == (ROOT / "src" / "io_recover" / "examples").resolve()

    def test_examples_are_package_data(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(ROOT / "pyproject.toml", "rb") as fp:
            patterns = tomllib.load(fp)["tool"]["setuptools"]["package-data"]["io_recover"]
        package = ROOT / "src" / "io_recover"
        files = sorted(path.relative_to(package).as_posix() for path in (package / "examples").iterdir())
        assert files == [f"examples/example{n}.json" for n in range(1, 9)]
        assert all(any(fnmatch.fnmatch(name, pattern) for pattern in patterns) for name in files)

    def test_unknown_top_level_field_rejected(self):
        doc = _load(FIXTURES / "example1.json")
        doc["surprise"] = 1
        with pytest.raises(ProblemFileError) as err:
            problem_io.parse_problem(doc)
        assert err.value.field == "surprise"

    def test_integers_beyond_64_bits_parse(self):
        doc = _load(FIXTURES / "example1.json")
        doc["b"][0] = -(2**70)  # a valid JSON number, though no int64
        bundle = problem_io.parse_problem(json.loads(json.dumps(doc)))
        assert bundle.problem.b.tolist() == [-(2.0**70), -6.0, -10.0]

    def test_unknown_prior_field_rejected(self):
        doc = _load(FIXTURES / "example2.json")
        doc["prior"]["mystery"] = []
        with pytest.raises(ProblemFileError) as err:
            problem_io.parse_problem(doc)
        assert "mystery" in err.value.field

    def test_dimension_error_names_field(self):
        doc = _load(FIXTURES / "example1.json")
        doc["b"] = [1.0]
        with pytest.raises(ProblemFileError) as err:
            problem_io.parse_problem(doc)
        assert err.value.field == "b"

    def test_bad_model_rejected(self):
        doc = _load(FIXTURES / "example1.json")
        doc["model"] = "nlo-xx"
        with pytest.raises(ProblemFileError):
            problem_io.parse_problem(doc)

    def test_uncertain_columns_one_based_range(self):
        doc = _load(FIXTURES / "example3.json")
        doc["uncertain_columns"][0] = [0]
        with pytest.raises(ProblemFileError):
            problem_io.parse_problem(doc)

    @given(data=st.data())
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_column_sets_match_the_row_by_row_reading(self, data):
        m, n = data.draw(st.integers(1, 4), label="m"), data.draw(st.integers(1, 4), label="n")
        sets = data.draw(st.lists(st.lists(st.integers(1, n), max_size=n, unique=True), min_size=m, max_size=m))
        alpha = [data.draw(st.lists(st.floats(0, 10) | st.integers(0, 10), min_size=len(s), max_size=len(s)))
                 for s in sets]
        doc = {"uncertain_columns": sets, "alpha": alpha}
        junk = st.integers(-1, n + 1) | st.sampled_from([True, 2.0, None, "1", 10**30, 10**400, [1], []])
        for _ in range(data.draw(st.integers(0, 3), label="faults")):
            rows = doc[data.draw(st.sampled_from(sorted(doc)), label="field")]
            i = data.draw(st.integers(0, len(rows) - 1), label="row") if rows else 0
            action = data.draw(st.sampled_from(["entry", "row", "append", "drop"]), label="action")
            if action == "entry" and rows and isinstance(rows[i], list) and rows[i]:
                rows[i][data.draw(st.integers(0, len(rows[i]) - 1), label="entry")] = data.draw(junk)
            elif action == "row" and rows:
                rows[i] = data.draw(junk)
            elif action == "append":
                rows.append(data.draw(junk))
            elif rows:
                del rows[i]
        try:
            sets, entries = problem_io._column_sets(doc, m, n)
            read = (sets, problem_io._magnitudes(doc, sets, entries, n).tolist())
        except ProblemFileError as exc:
            read = str(exc)
        assert read == _column_sets_by_row(doc, m, n)

    def test_negative_prior_magnitude_rejected(self):
        doc = _load(FIXTURES / "example4.json")
        doc["alpha"][2] = [1.0, -0.25]
        with pytest.raises(DimensionError) as err:
            problem_io.parse_problem(doc)
        assert err.value.field == "prior.estimates"
        assert "alpha[3][2]" in str(err.value)

    def test_variable_order_round_trip(self):
        doc = _load(FIXTURES / "example5.json")
        doc["omega"]["variable_order"] = ["gamma[3]", "gamma[1]", "gamma[2]"]
        G = np.array(doc["omega"]["G"], dtype=float)
        doc["omega"]["G"] = G[:, [2, 0, 1]].tolist()
        bundle = problem_io.parse_problem(doc)
        base = problem_io.parse_problem(_load(FIXTURES / "example5.json"))
        # resolved when read: G's columns are in the natural order, and written back in it
        assert bundle == base and bundle.omega.G.tobytes() == base.omega.G.tobytes()
        written = problem_io.serialize_problem(bundle)
        assert "variable_order" not in written["omega"] and written == problem_io.serialize_problem(base)
        assert problem_io.parse_problem(written) == base

    @pytest.mark.parametrize(
        "number, order, change, error",
        [
            (5, ["gamma[1]", "gamma[1]", "gamma[2]"], {}, "omega.variable_order: must name each imputed parameter"),
            (5, ["gamma[1]", "alpha[2][1]", "gamma[3]"], {}, "omega.variable_order: must name each imputed parameter"),
            (5, ["gamma[1]", "gamma[2]"], {"prior": {}}, "omega.variable_order: 2 names for 3 columns of G"),
            (5, ["gamma[1]", "gamma[1]", "gamma[2]"], {"prior": {}}, "prior: not used by model rlo-ccu-dg"),
            (5, ["gamma[1]", "gamma[1]", "gamma[2]"], {"x_hat": [math.inf, 1.0]}, "x_hat: entries must be finite"),
            (3, ["alpha[1][1]", "alpha[2][2]", "alpha[3][1]", "alpha[3][3]"], {},
             "omega.variable_order: must name each imputed parameter"),
            (3, ["alpha[1][1]", "alpha[2][2]", "alpha[3][1]", "alpha[3][1]"], {"alpha": [[1.0], [1.0], [1.0, 1.0]]},
             "alpha: not used by model rlo-iu-dg"),
        ],
        ids=["repeated", "alpha on a budget model", "count before prior", "prior first", "x_hat first",
             "column past n", "alpha first"],
    )
    def test_variable_order_errors_keep_their_precedence(self, number, order, change, error):
        # a document's column order is checked where the library checks omega: after x_hat, the
        # prior and alpha, though the name count is checked with G
        doc = _load(FIXTURES / f"example{number}.json")
        doc["omega"]["variable_order"] = order
        doc.update(change)
        with pytest.raises((DimensionError, ProblemFileError)) as err:
            problem_io.parse_problem(doc)
        assert str(err.value).startswith(error)


def _natural_names(doc):
    """The names of a gap-model document's imputed parameters in their natural order."""
    m, n = len(doc["A"]), len(doc["A"][0])
    if doc["model"] == "rlo-ccu-dg":
        return [f"gamma[{i + 1}]" for i in range(m)]
    if doc["model"] == "rlo-iu-dg":
        return [f"alpha[{i + 1}][{j}]" for i, row in enumerate(doc["uncertain_columns"]) for j in sorted(row)]
    return [f"a[{i + 1}][{j + 1}]" for i in range(m) for j in range(n)]


@given(number=st.sampled_from([1, 3, 5]), coupled=st.booleans(), data=st.data())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_permuted_variable_order_reads_as_the_natural_document(number, coupled, data):
    natural = _load(FIXTURES / f"example{number}.json")
    if coupled:  # the last row repeated at twice the scale: the gap solver takes its m LPs
        natural["omega"]["G"].append([2.0 * v for v in natural["omega"]["G"][-1]])
        natural["omega"]["h"].append(2.0 * natural["omega"]["h"][-1])
    names = _natural_names(natural)
    perm = data.draw(st.permutations(range(len(names))), label="column order")
    permuted = copy.deepcopy(natural)
    permuted["omega"]["G"] = [[row[k] for k in perm] for row in natural["omega"]["G"]]
    permuted["omega"]["variable_order"] = [names[k] for k in perm]
    ours, theirs = problem_io.parse_problem(permuted).omega, problem_io.parse_problem(natural).omega
    assert ours.G.tobytes() == theirs.G.tobytes() and ours.G.flags.c_contiguous
    written = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, doc in enumerate((permuted, natural)):
            src, out = Path(tmp) / f"problem{k}.json", Path(tmp) / f"solution{k}.json"
            src.write_text(json.dumps(doc))
            written.append((_run(["solve", "--input", str(src), "--output", str(out)]), out.read_bytes()))
    assert written[0] == written[1]


class TestCliSolve:
    @pytest.mark.parametrize("number,expected", [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 3), (8, 3)])
    def test_exit_codes(self, tmp_path, number, expected):
        out = tmp_path / "solution.json"
        code = cli.main(
            ["solve", "--input", str(FIXTURES / f"example{number}.json"), "--output", str(out)]
        )
        assert code == expected
        doc = _load(out)
        assert doc["schema_version"] == "1"

    @pytest.mark.parametrize("number", range(1, 9))
    def test_one_solve_path(self, tmp_path, number):
        case = example_case(number)
        library = io_recover.solve(
            case.model, case.problem, case.x_hat,
            structure=case.structure, omega=case.omega, prior=case.prior,
        )
        out = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / f"example{number}.json"), "--output", str(out)])
        doc = _load(out)
        for sol in (library, solve_case(case)):
            assert sol.active_index == doc["active_index"]
            assert sol.objective_value == doc["objective_value"]
            assert np.asarray(sol.imputed).tolist() == next(iter(doc["imputed"].values()))

    def test_example1_document_contents(self, tmp_path):
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(FIXTURES / "example1.json"), "--output", str(out)]) == 0
        doc = _load(out)
        assert doc["duality_gap"] == pytest.approx(2.0, abs=1e-9)
        assert doc["cost"] == pytest.approx([-2.0, -2.0], abs=1e-9)
        assert doc["active_index"] == 3
        assert doc["certificate"]["verdict"] == "valid"
        assert doc["imputed"]["A"][2] == pytest.approx([-2.0, -2.0], abs=1e-9)

    def test_trivial_document_has_remediations(self, tmp_path):
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(FIXTURES / "example7.json"), "--output", str(out)]) == 3
        doc = _load(out)
        kinds = [r["kind"] for r in doc["remediations"]]
        assert kinds == ["RhsEpsilon", "PriorEpsilon", "WeightBoost"]
        assert doc["remediations"][0]["row"] == 3
        assert doc["remediations"][0]["delta"] == pytest.approx(0.1)

    def test_nominal_infeasible_exits_2(self, tmp_path):
        doc = _load(FIXTURES / "example4.json")
        doc["x_hat"] = [9.0, 9.0]
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 2
        solved = _load(out)
        assert solved["status"] == "infeasible"

    def test_negative_prior_magnitude_exits_1(self, tmp_path, capsys):
        doc = _load(FIXTURES / "example4.json")
        doc["alpha"][0] = [-0.5]
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "alpha[1][1]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "number, field, line",
        [(2, "omega", "omega: not used by model nlo-sd"), (6, "prior", "prior: required by model rlo-ccu-sd")],
    )
    def test_strong_duality_data_mismatch_exits_1(self, tmp_path, capsys, number, field, line):
        # only the gap models take side constraints, and the -sd models need a prior
        doc = _load(FIXTURES / f"example{number}.json")
        if field == "omega":
            doc["omega"] = {"G": [[1.0] * 6], "h": [100.0]}
        else:
            del doc["prior"]
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()

    def test_solver_rejection_prints_one_line(self, tmp_path, capsys):
        # at the zero observation, fixture 2 (nlo-sd) fails validation's A3
        # check and the solver rejects it: one line, not two
        doc = _load(FIXTURES / "example2.json")
        doc["x_hat"] = [0.0, 0.0]
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "strong-duality recovery needs a nonzero observation\n"
        assert not out.exists()

    @staticmethod
    def _two_couplings(tmp_path):
        """Fixture 1 with its coupling row repeated at twice the scale
        (`gen.two_couplings`): nlo-dg then takes its m LPs."""
        doc = _load(FIXTURES / "example1.json")
        doc["omega"]["G"].append([2.0 * v for v in doc["omega"]["G"][-1]])
        doc["omega"]["h"].append(2.0 * doc["omega"]["h"][-1])
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        return src

    def test_lp_failure_prints_one_line(self, tmp_path, capsys, monkeypatch):
        def failing(*args):
            raise NumericalFailureError("synthetic failure")

        monkeypatch.setattr(lp_mod, "_phase_two", failing)
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(self._two_couplings(tmp_path)), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "synthetic failure\n"
        assert not out.exists()

    def test_unbounded_gap_lp_prints_one_line(self, tmp_path, capsys, monkeypatch):
        import io_recover.model as model_mod

        unbounded = lp_mod.LpOutcome(status=lp_mod.LpStatus.UNBOUNDED)
        monkeypatch.setattr(model_mod, "solve_lp_batch", lambda lps: [unbounded for _ in lps])
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(self._two_couplings(tmp_path)), "--output", str(out)]) == 1
        assert capsys.readouterr().err == "the gap LP of constraint 1 reported unbounded\n"
        assert not out.exists()

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        src = tmp_path / "broken.json"
        src.write_text("{ not json")
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_field_exits_1(self, tmp_path, capsys):
        doc = _load(FIXTURES / "example1.json")
        doc["bogus"] = True
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
        assert "bogus" in capsys.readouterr().err


class TestCliDemo:
    @pytest.mark.parametrize("number", range(1, 9))
    def test_demo_exits_zero(self, number, capsys):
        assert cli.main(["demo", "--example", str(number)]) == 0
        out = capsys.readouterr().out
        assert f"example {number}" in out
        assert "MISMATCH" not in out

    def test_demo_7_shows_escapes(self, capsys):
        cli.main(["demo", "--example", "7"])
        out = capsys.readouterr().out
        assert "trivial-detected" in out
        assert "weight 10" in out


class TestCliVerify:
    def test_verify_valid_then_corrupted(self, tmp_path, capsys):
        out = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / "example5.json"), "--output", str(out)])
        assert cli.main(
            ["verify", "--input", str(FIXTURES / "example5.json"), "--solution", str(out)]
        ) == 0
        assert "verdict: valid" in capsys.readouterr().out
        doc = _load(out)
        doc["dual_pi"] = [0.5, 0.0, 0.0]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(
            ["verify", "--input", str(FIXTURES / "example5.json"), "--solution", str(bad)]
        ) == 2
        assert "invalid" in capsys.readouterr().out

    def test_verify_negative_magnitude_exits_2(self, tmp_path, capsys):
        out = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / "example3.json"), "--output", str(out)])
        doc = _load(out)
        doc["imputed"]["alpha"][0][0] = -0.5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(
            ["verify", "--input", str(FIXTURES / "example3.json"), "--solution", str(bad)]
        ) == 2
        text = capsys.readouterr().out
        assert "verdict: invalid" in text
        assert "primal.alpha_nonneg              5.000e-01" in text

    def test_verify_non_finite_number_exits_2(self, tmp_path, capsys):
        # 1e400 is a standard JSON number that reads as inf
        out = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / "example1.json"), "--output", str(out)])
        doc = _load(out)
        doc["imputed"]["A"][0][1] = 0.125
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace("0.125", "1e400"))
        capsys.readouterr()
        assert cli.main(["verify", "--input", str(FIXTURES / "example1.json"), "--solution", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "verdict: invalid\nreason: imputed: non-finite entry\n"
        assert captured.err == ""

    @pytest.mark.parametrize("number", range(1, 9))
    @pytest.mark.parametrize("field", ["duality_gap", "objective_value"])
    def test_verify_integer_beyond_any_float_exits_1(self, tmp_path, capsys, number, field):
        problem, out = str(FIXTURES / f"example{number}.json"), tmp_path / "solution.json"
        assert cli.main(["solve", "--input", problem, "--output", str(out)]) in (0, 3)
        for value in (10**400, -(10**400)):
            doc = _load(out)
            doc[field] = value
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(doc))
            capsys.readouterr()
            assert cli.main(["verify", "--input", problem, "--solution", str(bad)]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", f"{field}: number out of range\n")

    def test_verify_infeasible_solution_exits_2(self, tmp_path, capsys):
        doc = _load(FIXTURES / "example4.json")
        doc["x_hat"] = [9.0, 9.0]
        src = tmp_path / "problem.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "solution.json"
        assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 2
        capsys.readouterr()
        assert cli.main(["verify", "--input", str(src), "--solution", str(out)]) == 2
        assert capsys.readouterr().err == "nothing to verify: solution status is infeasible\n"

    def test_verify_mismatched_model_exits_1(self, tmp_path, capsys):
        out = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / "example5.json"), "--output", str(out)])
        assert cli.main(
            ["verify", "--input", str(FIXTURES / "example3.json"), "--solution", str(out)]
        ) == 1

    def test_row_that_cannot_be_made_active_is_written_as_null(self, tmp_path, capsys):
        # fixture 4 at x_hat = (0, 6): row 1 cannot be made robust-active, so
        # its f and t are infinite, which standard JSON cannot hold
        doc = _load(FIXTURES / "example4.json")
        doc["x_hat"] = [0.0, 6.0]
        problem, out = tmp_path / "problem.json", tmp_path / "solution.json"
        problem.write_text(json.dumps(doc))
        assert cli.main(["solve", "--input", str(problem), "--output", str(out)]) == 0

        def reject(token):
            raise ValueError(f"not standard JSON: {token}")

        solution = json.loads(out.read_text(), parse_constant=reject)
        assert (solution["status"], solution["active_index"]) == ("optimal", 3)
        assert solution["objective_value"] == pytest.approx(2.0 / 3.0)
        per_row = solution["per_constraint"]
        assert per_row["f"][0] is None and per_row["t"][0] is None
        capsys.readouterr()
        assert cli.main(["verify", "--input", str(problem), "--solution", str(out)]) == 0
        assert capsys.readouterr().out.startswith("verdict: valid\n")
        bundle = problem_io.parse_problem(doc)
        parsed = problem_io.parse_solution(solution, bundle)
        assert parsed.per_constraint["t"][0] == np.inf and parsed.per_constraint["f"][0] == np.inf
        # a null anywhere else that needs a number is still rejected
        solution["cost"][0] = None
        with pytest.raises(ProblemFileError) as err:
            problem_io.parse_solution(solution, bundle)
        assert err.value.field == "cost"


class TestCliRegions:
    def test_regions_document(self, tmp_path):
        sol = tmp_path / "solution.json"
        cli.main(["solve", "--input", str(FIXTURES / "example4.json"), "--output", str(sol)])
        out = tmp_path / "regions.json"
        code = cli.main(
            [
                "regions",
                "--input", str(FIXTURES / "example4.json"),
                "--solution", str(sol),
                "--bbox=-8,-8,8,8",
                "--output", str(out),
            ]
        )
        assert code == 0
        doc = _load(out)
        kinds = {p["kind"] for p in doc["polylines"]}
        assert kinds == {"nominal", "prior_robust", "imputed_robust"}

    def test_bad_bbox_exits_1(self, tmp_path, capsys):
        out = tmp_path / "regions.json"
        assert cli.main(
            [
                "regions",
                "--input", str(FIXTURES / "example4.json"),
                "--bbox=zero,0,1,1",
                "--output", str(out),
            ]
        ) == 1

    def test_short_bbox_exits_1(self, tmp_path, capsys):
        out = tmp_path / "regions.json"
        assert cli.main(
            ["regions", "--input", str(FIXTURES / "example4.json"), "--bbox=1,2,3", "--output", str(out)]
        ) == 1
        assert capsys.readouterr().err == "bbox needs 4 numbers, got 3\n"
        assert not out.exists()
        # an infinite entry, and finite entries whose width and height overflow
        for bbox in ("-inf,-8,8,8", "-1e308,-1e308,1e308,1e308"):
            assert cli.main(
                ["regions", "--input", str(FIXTURES / "example4.json"), f"--bbox={bbox}", "--output", str(out)]
            ) == 1
            assert capsys.readouterr().err == "bbox: entries, width and height must be finite\n"
            assert not out.exists()
        # finite width and height, but row . p - b leaves the float range
        for number in range(1, 7):
            problem = str(FIXTURES / f"example{number}.json")
            assert cli.main(
                ["regions", "--input", problem, "--bbox=-8e307,-8e307,8e307,8e307", "--output", str(out)]
            ) == 1
            err = capsys.readouterr().err
            assert err.startswith("bbox: ") and err.count("\n") == 1, (number, err)
            assert not out.exists()

    @pytest.mark.parametrize("number", range(1, 9))
    def test_large_finite_bbox_exits_0(self, tmp_path, number):
        problem, sol, out = str(FIXTURES / f"example{number}.json"), tmp_path / "solution.json", tmp_path / "regions.json"
        cli.main(["solve", "--input", problem, "--output", str(sol)])
        argv = ["regions", "--input", problem, "--solution", str(sol), "--bbox=-1e150,-1e150,1e150,1e150"]
        assert cli.main(argv + ["--output", str(out)]) == 0
        assert _load(out)["polylines"]

    def test_not_plottable_dimension_exits_1(self, tmp_path):
        doc = _load(FIXTURES / "example2.json")
        doc["A"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-2.0, -1.0, 0.0]]
        doc["x_hat"] = [-2.0, 6.0, 0.0]
        doc["prior"]["estimates"] = doc["A"]
        src = tmp_path / "problem3d.json"
        src.write_text(json.dumps(doc))
        out = tmp_path / "regions.json"
        assert cli.main(
            ["regions", "--input", str(src), "--bbox=-8,-8,8,8", "--output", str(out)]
        ) == 1


class TestSolutionValueFuzz:
    """One imputed entry of a fixture's solution set to a huge or
    overflowing number: verify and regions answer with their usual output
    or one diagnostic line, and numpy warns of nothing."""

    VALUES = ("1e300", "-1e300", "1e308", "-1e308", "1e400")  # 1e400 reads as inf

    @pytest.mark.parametrize("number", range(1, 9))
    def test_verify_and_regions(self, tmp_path, capsys, number):
        problem, solved = str(FIXTURES / f"example{number}.json"), tmp_path / "solution.json"
        assert cli.main(["solve", "--input", problem, "--output", str(solved)]) in (0, 3)
        capsys.readouterr()
        doc = _load(solved)
        ((field, imputed),) = doc["imputed"].items()
        bad, out = tmp_path / "bad.json", tmp_path / "regions.json"
        for index in np.ndindex(np.shape(imputed)):
            for value in self.VALUES:
                changed = copy.deepcopy(doc)
                row = changed["imputed"][field]
                for k in index[:-1]:
                    row = row[k]
                row[index[-1]] = "@"
                bad.write_text(json.dumps(changed).replace('"@"', value))
                for argv, usual in (
                    (["verify", "--input", problem, "--solution", str(bad)], "verdict: "),
                    (["regions", "--input", problem, "--solution", str(bad), "--bbox=-8,-8,8,8",
                      "--output", str(out)], ""),
                ):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error", RuntimeWarning)
                        code = cli.main(argv)
                    stdout, stderr = capsys.readouterr()
                    case = (number, index, value, argv[0], code, stdout, stderr)
                    assert code in (0, 1, 2, 3), case
                    if stderr:
                        assert stderr.count("\n") == 1 and stdout == "", case
                    else:
                        assert stdout.startswith(usual) and (usual or stdout == ""), case


class TestProblemValueFuzz:
    """The first entry of a fixture's A, b or x_hat set to a huge or
    subnormal number: solve answers with an exit code of 0 to 3 and one
    diagnostic line on exit 1, and numpy warns of nothing."""

    VALUES = ("1e300", "-1e300", "1e308", "-1e308", "1e-320")

    @pytest.mark.parametrize("number", range(1, 9))
    def test_solve(self, tmp_path, capsys, number):
        doc = _load(FIXTURES / f"example{number}.json")
        bad, out = tmp_path / "bad.json", tmp_path / "solution.json"
        for field in ("A", "b", "x_hat"):
            for value in self.VALUES:
                changed = copy.deepcopy(doc)
                entry = changed[field]
                while isinstance(entry[0], list):
                    entry = entry[0]
                entry[0] = "@"
                bad.write_text(json.dumps(changed).replace('"@"', value))
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = cli.main(["solve", "--input", str(bad), "--output", str(out)])
                stdout, stderr = capsys.readouterr()
                case = (number, field, value, code, stderr)
                assert code in (0, 1, 2, 3), case
                if code == 1:
                    assert stderr.count("\n") == 1 and stdout == "", case

    @pytest.mark.parametrize("number, code", [(2, 0), (7, 3), (8, 3)])
    def test_tiny_observation(self, tmp_path, capsys, number, code):
        # x_hat . x_hat underflows: the nlo-sd observation still reads nonzero
        doc = _load(FIXTURES / f"example{number}.json")
        doc["x_hat"] = [v * 1e-200 for v in doc["x_hat"]]
        tiny, out = tmp_path / "tiny.json", tmp_path / "solution.json"
        tiny.write_text(json.dumps(doc))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["solve", "--input", str(tiny), "--output", str(out)]) == code
        assert _load(out)["certificate"]["verdict"] == "valid"


def _set(field, value):
    def mutate(doc):
        doc[field] = value
    return mutate


def _update(**fields):
    def mutate(doc):
        doc.update(fields)
    return mutate


def _set_in(field, key, value):
    def mutate(doc):
        doc[field][key] = value
    return mutate


def _poke(*path, value):
    """Set one entry deep inside the document: doc[path[0]]...[path[-1]] = value."""
    def mutate(doc):
        *outer, last = path
        for key in outer:
            doc = doc[key]
        doc[last] = value
    return mutate


# (solution field or path, mutation) on the solution of fixture 1 (nlo-dg, m = 3, n = 2)
MALFORMED_SOLUTIONS = {
    "non-numeric cost": ("cost", _set("cost", ["a", 1.0])),
    "ragged cost": ("cost", _set("cost", [[1.0], [1.0, 2.0]])),
    "short cost": ("cost", _set("cost", [1.0])),
    "imputed not an object": ("imputed", _set("imputed", 5)),
    "ragged imputed": ("imputed.A", _set_in("imputed", "A", [[1.0], [0.0, 2.0], [1.0, 1.0]])),
    "imputed of the wrong shape": ("imputed.A", _set_in("imputed", "A", [[1.0, 0.0]])),
    "active_index a string": ("active_index", _set("active_index", "3")),
    "active_index out of range": ("active_index", _set("active_index", 4)),
    "active_index zero": ("active_index", _set("active_index", 0)),
    "short dual_pi": ("dual_pi", _set("dual_pi", [1.0])),
    "non-numeric per_constraint entry": ("per_constraint.t", _set_in("per_constraint", "t", ["x", 1.0, 2.0])),
    "non-numeric duality_gap": ("duality_gap", _set("duality_gap", "two")),
    "boolean in cost": ("cost", _set("cost", [True, 1.0])),
    "string in imputed": ("imputed.A", _poke("imputed", "A", 0, 0, value="1")),
    "null in dual_pi": ("dual_pi", _poke("dual_pi", 0, value=None)),
}


@pytest.mark.parametrize("command", ["verify", "regions"])
@pytest.mark.parametrize("case", MALFORMED_SOLUTIONS, ids=str)
def test_malformed_solution_exits_1(tmp_path, capsys, command, case):
    field, mutate = MALFORMED_SOLUTIONS[case]
    problem = str(FIXTURES / "example1.json")
    out = tmp_path / "solution.json"
    assert cli.main(["solve", "--input", problem, "--output", str(out)]) == 0
    doc = _load(out)
    mutate(doc)
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    extra = ["--bbox=-8,-8,8,8", "--output", str(tmp_path / "regions.json")] if command == "regions" else []
    assert cli.main([command, "--input", problem, "--solution", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{field}: ") and "Traceback" not in err


# (fixture, problem field, mutation)
MALFORMED_PROBLEMS = {
    "non-numeric alpha entry": (5, "alpha", _set("alpha", [["wide"], [0.5], [2.0, 1.0]])),
    "non-string variable_order name": (
        1, "omega.variable_order", _set_in("omega", "variable_order", [1, 2, 3, 4, 5, 6])
    ),
    "boolean uncertain column": (3, "uncertain_columns", _set("uncertain_columns", [[True], [2], [1, 2]])),
    # every numeric field takes JSON numbers only; np.array would read "-6" as -6 and true as 1
    "strings and a boolean in b": (1, "b", _set("b", ["-6", True, "-1e1"])),
    "boolean in x_hat": (1, "x_hat", _poke("x_hat", 0, value=True)),
    "string in A": (1, "A", _poke("A", 2, 1, value="-1")),
    "null in omega.G": (1, "omega.G", _poke("omega", "G", 0, 0, value=None)),
    "boolean in omega.h": (1, "omega.h", _poke("omega", "h", 1, value=False)),
    "string in prior.estimates": (2, "prior.estimates", _poke("prior", "estimates", 0, 0, value="1")),
    "boolean in prior.xi": (2, "prior.xi", _set_in("prior", "xi", [1.0, True, 1.0])),
    "string in a budget prior": (6, "prior.estimates", _poke("prior", "estimates", 0, value="0.2")),
    "integer beyond any float": (1, "b", _poke("b", 0, value=-(10**400))),
    "magnitude beyond any float": (5, "alpha", _poke("alpha", 2, 1, value=10**400)),
    # a column named twice would pair two magnitudes with one coefficient and keep only the last
    "budget row naming a column twice": (
        6, "uncertain_columns",
        _update(uncertain_columns=[[1, 1], [2], [1, 2]], alpha=[[2.5, 0.9], [0.5], [2.0, 1.0]]),
    ),
    "interval row naming a column twice": (
        4, "uncertain_columns",
        _update(uncertain_columns=[[1], [2, 2], [1, 2]], alpha=[[0.5], [0.5, 0.7], [1.0, 0.0]]),
    ),
}


@pytest.mark.parametrize("case", MALFORMED_PROBLEMS, ids=str)
def test_malformed_problem_exits_1(tmp_path, capsys, case):
    number, field, mutate = MALFORMED_PROBLEMS[case]
    doc = _load(FIXTURES / f"example{number}.json")
    mutate(doc)
    src = tmp_path / "problem.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "solution.json"
    assert cli.main(["solve", "--input", str(src), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{field}: ") and "Traceback" not in err
    assert not out.exists()


def _number(value):
    def write(doc, field):
        doc[field][0] = value
        return json.dumps(doc).encode()  # allow_nan: NaN, Infinity, -Infinity tokens
    return write


# (document, its first numeric field) -> bytes that standard JSON in UTF-8 does not allow
UNREADABLE_DOCUMENTS = {
    "NaN token": _number(math.nan),
    "Infinity token": _number(math.inf),
    "-Infinity token": _number(-math.inf),
    "not UTF-8": lambda doc, field: b"\xff\xfe" + json.dumps(doc).encode(),
    "nested 100 000 deep": lambda doc, field: b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("case", UNREADABLE_DOCUMENTS, ids=str)
def test_unreadable_document_exits_1(tmp_path, capsys, command, case):
    problem, path, out = str(FIXTURES / "example1.json"), tmp_path / "document.json", tmp_path / "solution.json"
    if command == "solve":
        path.write_bytes(UNREADABLE_DOCUMENTS[case](_load(problem), "b"))
        argv = ["solve", "--input", str(path), "--output", str(out)]
    else:
        assert cli.main(["solve", "--input", problem, "--output", str(out)]) == 0
        path.write_bytes(UNREADABLE_DOCUMENTS[case](_load(out), "cost"))
        argv = ["verify", "--input", problem, "--solution", str(path)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{path}: "), err


@pytest.mark.parametrize("command", ["solve", "regions"])
def test_unwritable_output_exits_1(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.json"
    extra = ["--bbox=-8,-8,8,8"] if command == "regions" else []
    # fixture 2 solves without a validation warning, so the write error is the only line
    assert cli.main([command, "--input", str(FIXTURES / "example2.json"), "--output", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"{out}: cannot write: "), err


# Structural fuzzing of the documents the command line reads: each example
# drops one key or element, swaps one value for another JSON type, or
# truncates, extends or nests one list, in a fixture or in a solution.
_SWAPS = st.sampled_from(["x", True, None, {}, [], [[]], 10**400]) | st.integers(-10**6, -1)


def _paths(node, prefix=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def front_door_documents():
    problems = [_load(FIXTURES / f"example{k}.json") for k in range(1, 9)]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "solution.json"
        assert cli.main(["solve", "--input", str(FIXTURES / "example3.json"), "--output", str(out)]) == 0
        return problems, _load(out)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@given(data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_mutated_documents_exit_cleanly(front_door_documents, data):
    problems, solution = front_door_documents
    target = data.draw(st.integers(0, len(problems)), label="document")  # the last one is the solution
    doc = copy.deepcopy(problems[target] if target < len(problems) else solution)
    path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, value = path[-1], parent[path[-1]]
    action = data.draw(st.sampled_from(["drop", "swap", "truncate", "extend", "nest"]), label="action")
    if action == "drop":
        del parent[key]
    elif action == "swap" or not isinstance(value, list):
        parent[key] = data.draw(_SWAPS, label="value")
    elif action == "truncate":
        del value[data.draw(st.integers(0, max(len(value) - 1, 0)), label="length"):]
    elif action == "extend":
        value.append(copy.deepcopy(value[-1]) if value else data.draw(st.floats(-1e6, 1e6), label="entry"))
    else:
        parent[key] = [value]
    with tempfile.TemporaryDirectory() as tmp:
        mutated, out = Path(tmp) / "mutated.json", Path(tmp) / "out.json"
        mutated.write_text(json.dumps(doc))
        if target < len(problems):
            runs = [["solve", "--input", str(mutated), "--output", str(out)],
                    ["regions", "--input", str(mutated), "--bbox=-8,-8,8,8", "--output", str(out)]]
        else:
            problem = str(FIXTURES / "example3.json")
            runs = [["verify", "--input", problem, "--solution", str(mutated)],
                    ["regions", "--input", problem, "--solution", str(mutated), "--bbox=-8,-8,8,8",
                     "--output", str(out)]]
        for argv in runs:
            code, err = _run(argv)
            assert code in (0, 1, 2, 3), (argv[0], path, action, code)
            assert code != 1 or err.count("\n") == 1, (argv[0], path, action, err)
