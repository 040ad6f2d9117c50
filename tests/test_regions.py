from dataclasses import replace

import numpy as np
import pytest

from conftest import holding_none, ragged
from io_recover import DimensionError
from io_recover.fixtures import example_case, solve_case
from io_recover.regions import _segment_in_cell, region_polylines
from io_recover.geometry import realized_row_cardinality, realized_row_interval

BBOX = (-8.0, -8.0, 8.0, 8.0)


def _segments(polylines, kind, index):
    return [p for p in polylines if p.kind == kind and p.constraint_index == index]


def _residual(bundle, solution, poly, point):
    i = poly.constraint_index - 1
    problem, structure = bundle.problem, bundle.structure
    if poly.kind == "nominal":
        row = problem.A[i]
    elif poly.kind == "prior_robust":
        params = bundle.prior.estimates
        if bundle.model.family == "nlo":
            row = np.asarray(params)[i]
        elif bundle.model.family == "iu":
            row = realized_row_interval(problem.A[i], params[i], structure.sets[i], point)
        else:
            row = realized_row_cardinality(
                problem.A[i], structure.alpha[i], float(params[i]), structure.sets[i], point
            )
    else:
        params = solution.imputed
        if bundle.model.family == "nlo":
            row = np.asarray(params)[i]
        elif bundle.model.family == "iu":
            row = realized_row_interval(problem.A[i], params[i], structure.sets[i], point)
        else:
            row = realized_row_cardinality(
                problem.A[i], structure.alpha[i], float(params[i]), structure.sets[i], point
            )
    return abs(float(row @ point) - problem.b[i])


@pytest.mark.parametrize("number", [2, 3, 4, 5, 6])
def test_every_point_sits_on_its_realized_boundary(number):
    bundle = example_case(number)
    solution = solve_case(bundle)
    polylines = region_polylines(bundle, solution=solution, bbox=BBOX)
    assert polylines
    for poly in polylines:
        for seg in poly.segments:
            for pt in seg:
                point = np.array(pt)
                assert _residual(bundle, solution, poly, point) <= 1e-6
            mid = 0.5 * (np.array(seg[0]) + np.array(seg[1]))
            assert _residual(bundle, solution, poly, mid) <= 1e-6


def test_nominal_rows_are_single_straight_segments():
    bundle = example_case(2)
    polylines = region_polylines(bundle, bbox=BBOX)
    for i in range(1, 4):
        polys = _segments(polylines, "nominal", i)
        assert len(polys) == 1
        assert len(polys[0].segments) == 1
        for pt in polys[0].segments[0]:
            assert abs(float(bundle.problem.A[i - 1] @ np.array(pt)) - bundle.problem.b[i - 1]) <= 1e-9


def test_interval_breakpoint_on_vertical_axis():
    bundle = example_case(4)
    solution = solve_case(bundle)
    polylines = region_polylines(bundle, solution=solution, bbox=BBOX)
    row3 = _segments(polylines, "imputed_robust", 3)[0]
    assert len(row3.segments) >= 2
    endpoints = [pt for seg in row3.segments for pt in seg]
    on_axis = [pt for pt in endpoints if abs(pt[0]) <= 1e-9 and abs(pt[1]) > 1e-9]
    assert on_axis, "expected a slope change where the boundary crosses x1 = 0"


def test_budget_breakpoints_on_axes_and_order_swap_lines():
    bundle = example_case(6)
    solution = solve_case(bundle)
    polylines = region_polylines(bundle, solution=solution, bbox=BBOX)
    row3 = _segments(polylines, "imputed_robust", 3)[0]
    assert len(row3.segments) >= 2
    x0, y0, x1, y1 = BBOX
    for seg in row3.segments:
        for pt in seg:
            on_box = (
                abs(pt[0] - x0) <= 1e-9
                or abs(pt[0] - x1) <= 1e-9
                or abs(pt[1] - y0) <= 1e-9
                or abs(pt[1] - y1) <= 1e-9
            )
            on_axis = abs(pt[0]) <= 1e-9 or abs(pt[1]) <= 1e-9
            on_swap = abs(pt[1] - 2 * pt[0]) <= 1e-9 or abs(pt[1] + 2 * pt[0]) <= 1e-9
            assert on_box or on_axis or on_swap, pt
    # the order-swap line x2 = 2 x1 genuinely carries a breakpoint
    endpoints = [pt for seg in row3.segments for pt in seg]
    assert any(
        abs(pt[1] - 2 * pt[0]) <= 1e-9 and abs(pt[0]) > 1e-9 for pt in endpoints
    )


def test_prior_robust_only_when_prior_present():
    bundle = example_case(3)
    solution = solve_case(bundle)
    polylines = region_polylines(bundle, solution=solution, bbox=BBOX)
    kinds = {p.kind for p in polylines}
    assert kinds == {"nominal", "imputed_robust"}


@pytest.mark.parametrize(
    "number, half, message",
    [
        # nominal row 3 is (-2, -1): 3 * 5e306 + 10 is beyond max / 16
        (1, 5e306, "nominal row 3 reaches |row . p - b| = 1.5e+307"),
        # imputed row 1 of fixture 5 is bounded by |a11| + alpha11 = 1 + 2.5
        (5, 3.7e306, "imputed_robust row 1 reaches |row . p - b| = 1.29e+307"),
    ],
)
def test_box_is_rejected_where_a_drawn_row_could_overflow(number, half, message):
    case = example_case(number)
    box = (-half, -half, half, half)
    with pytest.raises(DimensionError) as err:
        region_polylines(case, solution=solve_case(case), bbox=box)
    assert err.value.field == "bbox" and message in str(err.value)


@pytest.mark.parametrize("number", [1, 3, 5])
@pytest.mark.parametrize("cut", [lambda v: v[:1], lambda v: v[..., None], lambda v: v[0, ...], ragged, holding_none],
                         ids=["one row", "extra axis", "first entry", "ragged", "holding None"])
def test_wrong_shaped_imputed_block_names_imputed(number, cut):
    case = example_case(number)
    solution = solve_case(case)
    bad = replace(solution, imputed=cut(np.asarray(solution.imputed)))
    with pytest.raises(DimensionError) as err:
        region_polylines(case, solution=bad, bbox=BBOX)
    assert err.value.field == "imputed"


def test_segment_on_collinear_vertices_spans_the_farthest_pair():
    # the line y = 0 holds three vertices of the cell: the segment runs between the outer two
    cell = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    assert _segment_in_cell((0.0, 1.0), 0.0, cell) == ((0.0, 0.0), (1.0, 0.0))
    assert _segment_in_cell((0.0, 1.0), 0.0, cell[1:] + cell[:1]) == ((0.0, 0.0), (1.0, 0.0))
