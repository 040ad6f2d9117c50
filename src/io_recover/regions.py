"""Exact 2D boundary polylines of nominal, prior, and imputed constraints.

Robust constraint boundaries are piecewise linear: the effective row
changes at the coordinate axes (sign changes) and, for budget
uncertainty, at the lines where two deviation products swap order.  The
bounding box is partitioned into cells by those lines; inside each cell
the constraint is affine, so its boundary is a clipped segment with exact
endpoints.
"""

import math
import sys
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DimensionError
from .model import Variant, block_shapes, read_block, realized_row

_EPS = 1e-12
# Box coordinates and |row . p - b_i| of every drawn row stay below this over
# the box, so the difference of two such values and the coordinate sums over
# a cell's vertices (fewer than 16) stay finite.
_REACH_LIMIT = sys.float_info.max / 16


@dataclass(frozen=True)
class RegionPolyline:
    """Boundary pieces of one constraint: a list of 2D segments."""

    constraint_index: int  # 1-based
    kind: str  # nominal | prior_robust | imputed_robust
    segments: tuple


def _clip(poly, normal, offset, keep_le):
    """One Sutherland-Hodgman halfplane clip of a convex polygon."""
    out = []
    k = len(poly)
    for idx in range(k):
        p = poly[idx]
        q = poly[(idx + 1) % k]
        fp = normal[0] * p[0] + normal[1] * p[1] - offset
        fq = normal[0] * q[0] + normal[1] * q[1] - offset
        if not keep_le:
            fp, fq = -fp, -fq
        if fp <= _EPS:
            out.append(p)
        if (fp < -_EPS and fq > _EPS) or (fp > _EPS and fq < -_EPS):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    cleaned = []
    for pt in out:
        if not cleaned or abs(pt[0] - cleaned[-1][0]) > 1e-12 or abs(pt[1] - cleaned[-1][1]) > 1e-12:
            cleaned.append(pt)
    if len(cleaned) >= 2 and abs(cleaned[0][0] - cleaned[-1][0]) <= 1e-12 and abs(cleaned[0][1] - cleaned[-1][1]) <= 1e-12:
        cleaned.pop()
    return cleaned


def _split_cells(cells, normal, offset):
    out = []
    for cell in cells:
        left = _clip(cell, normal, offset, keep_le=True)
        right = _clip(cell, normal, offset, keep_le=False)
        if len(left) >= 3:
            out.append(left)
        if len(right) >= 3:
            out.append(right)
    return out


def _centroid(cell):
    xs = sum(p[0] for p in cell) / len(cell)
    ys = sum(p[1] for p in cell) / len(cell)
    return np.array([xs, ys])


def _segment_in_cell(row, rhs, cell):
    """Intersection of {row . p = rhs} with a convex polygon, as a segment."""
    points = []
    k = len(cell)
    scale = max(abs(row[0]), abs(row[1]), 1.0)
    for idx in range(k):
        p = cell[idx]
        q = cell[(idx + 1) % k]
        fp = row[0] * p[0] + row[1] * p[1] - rhs
        fq = row[0] * q[0] + row[1] * q[1] - rhs
        if abs(fp) <= 1e-9 * scale:
            points.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            points.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    unique = []
    for pt in points:
        if all(abs(pt[0] - u[0]) > 1e-9 or abs(pt[1] - u[1]) > 1e-9 for u in unique):
            unique.append(pt)
    if len(unique) < 2:
        return None
    # keep the farthest pair, the first one on ties (collinear sliver points can stack up)
    (x0, y0), (x1, y1) = max(combinations(unique, 2), key=lambda pair: math.dist(*pair))
    if (x0, y0) > (x1, y1):
        (x0, y0), (x1, y1) = (x1, y1), (x0, y0)
    return ((float(x0), float(y0)), (float(x1), float(y1)))


def _partition(bbox, structure, variant):
    x0, y0, x1, y1 = bbox
    cells = [[(x0, y0), (x1, y0), (x1, y1), (x0, y1)]]
    if variant == Variant.NOMINAL:
        return cells
    cells = _split_cells(cells, (1.0, 0.0), 0.0)
    cells = _split_cells(cells, (0.0, 1.0), 0.0)
    if variant == Variant.CARDINALITY:
        for i, cols in enumerate(structure.sets):
            if len(cols) == 2:
                a1 = structure.alpha[i, cols[0]]
                a2 = structure.alpha[i, cols[1]]
                if a1 > 0.0 and a2 > 0.0:
                    # order swap lines a1 |x| = a2 |y|
                    cells = _split_cells(cells, (a1, -a2), 0.0)
                    cells = _split_cells(cells, (a1, a2), 0.0)
    return cells


def _check_reach(problem, structure, bbox, kind, variant, params):
    """Reject a box over which |row . p - b_i| could overflow for row i of
    `kind`.  A robust row is bounded entrywise by |a_ij| + alpha_ij on its
    uncertain columns, whatever the realization; the order-swap lines of
    budget uncertainty have smaller coefficients."""
    if variant == Variant.NOMINAL:
        coeffs = np.abs(np.asarray(params, dtype=float))
    else:
        deviation = params if variant == Variant.INTERVAL else structure.alpha
        with np.errstate(over="ignore"):
            coeffs = np.abs(problem.A) + np.where(structure.mask(problem.n), np.abs(deviation), 0.0)
    x0, y0, x1, y1 = bbox
    with np.errstate(over="ignore"):
        reach = coeffs @ [max(-x0, x1), max(-y0, y1)] + np.abs(problem.b)
    within = reach < _REACH_LIMIT
    if not within.all():
        i = int(np.argmin(within))
        raise DimensionError(
            "bbox", f"{kind} row {i + 1} reaches |row . p - b| = {reach[i]:.3g} over the box, beyond {_REACH_LIMIT:.3g}"
        )


def _polylines_for(problem, structure, bbox, kind, variant, params):
    _check_reach(problem, structure, bbox, kind, variant, params)
    cells = _partition(bbox, structure, variant)
    out = []
    for i in range(problem.m):
        segments = []
        for cell in cells:
            row = realized_row(variant, problem, structure, params, i, _centroid(cell))
            if max(abs(row[0]), abs(row[1])) <= 1e-12:
                continue
            seg = _segment_in_cell(row, problem.b[i], cell)
            if seg is not None:
                segments.append(seg)
        if segments:
            distinct = tuple(sorted(set(segments)))
            out.append(RegionPolyline(constraint_index=i + 1, kind=kind, segments=distinct))
    return out


def region_polylines(bundle, solution=None, bbox=(-8.0, -8.0, 8.0, 8.0)):
    """Boundary polylines for a 2-variable problem: nominal rows always,
    prior rows when a prior exists, imputed rows when a solution is given."""
    problem = bundle.problem
    if problem.n != 2:
        raise DimensionError("x_hat", f"region extraction needs n = 2, got n = {problem.n}")
    x0, y0, x1, y1 = (float(v) for v in bbox)
    if not np.all(np.isfinite([x0, y0, x1, y1, x1 - x0, y1 - y0])):
        raise DimensionError("bbox", "entries, width and height must be finite")
    if not (x0 < x1 and y0 < y1):
        raise DimensionError("bbox", "expected x0 < x1 and y0 < y1")
    if max(-x0, x1, -y0, y1) >= _REACH_LIMIT:
        raise DimensionError("bbox", f"entries must lie within +-{_REACH_LIMIT:.3g}")
    imputed = None if solution is None else solution.imputed
    if imputed is not None:
        imputed, reason = read_block(imputed, block_shapes(bundle.model, problem.m, problem.n)["imputed"])
        if reason is None and not np.isfinite(imputed).all():
            reason = "non-finite entry"
        if reason:
            raise DimensionError("imputed", reason)
    box = (x0, y0, x1, y1)
    variant = bundle.model.variant
    out = list(_polylines_for(problem, bundle.structure, box, "nominal", Variant.NOMINAL, problem.A))
    if bundle.prior is not None and bundle.model.is_sd:
        out += _polylines_for(
            problem, bundle.structure, box, "prior_robust", variant, bundle.prior.estimates
        )
    if imputed is not None:
        out += _polylines_for(problem, bundle.structure, box, "imputed_robust", variant, imputed)
    return out


def polylines_to_doc(polylines):
    return {
        "schema_version": "1",
        "polylines": [
            {
                "constraint_index": p.constraint_index,
                "kind": p.kind,
                "segments": [[list(a), list(b)] for a, b in p.segments],
            }
            for p in polylines
        ],
    }
