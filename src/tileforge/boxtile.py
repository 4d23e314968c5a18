"""Box attractors: cyclic-form matrices, box digit sets, and a box detector.

An irreducible attractor that is a parallelepiped arises, in a suitable
integer basis, from the cyclic matrix with superdiagonal p_1 .. p_{n-1} and
corner +-p_n; the matching digit set is the grid {0..p_1-1} x ... x
{0..p_n-1} (last axis signed), and the attractor it generates is an exact
box.  The reverse decision for an arbitrary matrix is out of scope: only
genuinely monomial matrices are classified, via their permutation/cycle
structure.  For a monomial matrix, box_certificate proves in exact rational
arithmetic that the attractor is a given axis box, or refuses.  Everything
the certificate refuses goes to a numeric classifier, which decides "is this
approximated attractor a parallelepiped" from the convex hull of its cells
against the best-fitting parallelepiped spanned by hull facet directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from typing import NamedTuple, Optional

import numpy as np

from . import lattice
from .attractor import AttractorApprox, _cover_keys, _int_array, _unique_rows, _unit_cell_cover
from .lattice import System, as_int_matrix

#: Cell-count ceiling for the depth chosen by suggested_depth.
DEPTH_CELL_BUDGET = 70_000


class NotMonomialError(ValueError):
    """Matrix has a column with other than exactly one nonzero entry."""


class DegeneratePointCloudError(ValueError):
    """Point cloud spans less than the full dimension."""


@dataclass(frozen=True)
class BoxForm:
    """Cyclic normal form data: edge split counts p and the corner sign.

    Not all p_i may equal 1 (the matrix would fix a basis vector and fail
    to expand), equivalently prod(p) >= 2.
    """

    p: tuple
    sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "p", tuple(int(x) for x in self.p))
        if not self.p or any(x < 1 for x in self.p):
            raise ValueError("p must be a nonempty tuple of positive integers")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if math.prod(self.p) < 2:
            raise ValueError("not all p_i may equal 1 (the matrix would not expand)")


def build_cyclic_matrix(form: BoxForm):
    """The cyclic matrix with superdiagonal p_1..p_{n-1} and corner sign*p_n."""
    p = form.p
    n = len(p)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = p[i]
    rows[n - 1][0] = form.sign * p[n - 1]
    system = System.of(rows)
    if not lattice.is_expanding(system):
        raise ValueError(f"cyclic matrix for {form} is not expanding")
    return system.matrix


def box_digits(form: BoxForm):
    """The grid digit set generating an exact box for the cyclic matrix.

    D = {(k_1, ..., k_{n-1}, sign * k_n) : 0 <= k_i < p_i}; contains the
    zero vector, has prod(p) elements, and is a residue system for
    build_cyclic_matrix(form).
    """
    *head, last = form.p
    # The product of sorted axes is in lexicographic order.
    axes = [range(x) for x in head] + [sorted(range(0, form.sign * last, form.sign))]
    return tuple(product(*axes))


def tensor_product(matrix1, shifts1, matrix2, shifts2):
    """Block-diagonal matrix and concatenated product shifts.

    The attractor of the result is the cartesian product of the factor
    attractors; when both factors are tiles with digit sets, the product
    shift set is again a residue system.
    """
    d1, d2 = len(matrix1), len(matrix2)
    block = [(*r, *[0] * d2) for r in matrix1] + [(*[0] * d1, *r) for r in matrix2]
    shifts = tuple(tuple(s) + tuple(t) for s in shifts1 for t in shifts2)
    return tuple(block), shifts


def suggested_depth(matrix, digits) -> int:
    """Approximation depth for shape detection: enough cells, full rank.

    Picks the smallest depth whose cell count is comfortable for hull work
    and whose cells span the full dimension (digit sets confined to one
    axis need depth >= d before the cell cloud has full rank).
    """
    from .attractor import approximate

    system = System.of(matrix, digits)
    d = system.dim
    m = max(len(digits), 2)
    depth = 2
    while m ** (depth + 1) <= 4096 and depth < 8:
        depth += 1
    while m ** depth < 4 ** d and m ** (depth + 1) <= DEPTH_CELL_BUDGET:
        depth += 1
    while depth < max(2 * d, 8):
        cells = approximate(system, system.digits, depth).points.astype(float)
        if len(cells) >= 2 and np.linalg.matrix_rank(cells - cells[0]) == d:
            break
        depth += 1
    return depth


class MonomialStructure(NamedTuple):
    """Permutation action of a monomial matrix on the basis directions.

    permutation[j] = i means M e_j = multipliers[j] * e_i; cycles lists the
    orbits.  A single cycle is exactly the irreducible box case.
    """

    permutation: tuple
    multipliers: tuple
    cycles: tuple

    @property
    def is_single_cycle(self) -> bool:
        return len(self.cycles) == 1


def monomial_structure(matrix) -> MonomialStructure:
    """Permutation and multipliers of a monomial matrix.

    Raises NotMonomialError when some column does not have exactly one
    nonzero entry; no change of basis is attempted.
    """
    m = as_int_matrix(matrix)
    d = len(m)
    perm = []
    mult = []
    for j in range(d):
        nonzero = [i for i in range(d) if m[i][j] != 0]
        if len(nonzero) != 1:
            raise NotMonomialError(
                f"column {j} has {len(nonzero)} nonzero entries, expected exactly 1")
        perm.append(nonzero[0])
        mult.append(m[nonzero[0]][j])
    seen = set()
    cycles = []
    for j in range(d):
        cyc = []
        while j not in seen:
            seen.add(j)
            cyc.append(j)
            j = perm[j]
        if cyc:
            cycles.append(tuple(cyc))
    return MonomialStructure(tuple(perm), tuple(mult), tuple(cycles))


# ---------------------------------------------------------------------------
# exact box certificate
# ---------------------------------------------------------------------------

def _solve_cycles(ms: MonomialStructure, coef, rhs):
    """Solve coef[j] * u[j] = u[perm[j]] + rhs[j] for every axis j, cycle by cycle.

    Along a cycle, u[perm[j]] = coef[j] * u[j] - rhs[j] is affine in the value
    x at its first axis; coming back to that axis fixes x.  None when some
    cycle's coefficient product is 1, so x is not determined.
    """
    u = [None] * len(coef)
    for cyc in ms.cycles:
        forms = []
        a, b = 1, 0                      # u[j] = a * x + b
        for j in cyc:
            forms.append((j, a, b))
            a, b = coef[j] * a, coef[j] * b - rhs[j]
        if a == 1:
            return None
        x = Fraction(b) / (1 - a)
        for j, aj, bj in forms:
            u[j] = aj * x + bj
    return u


def box_certificate(matrix, digits):
    """Exact axis box (lo, hi) of Fractions that is the attractor, or None.

    Certifies a monomial M (M e_j = c_j e_i) with |D| = |det M|.  The box
    B = [lo, hi] solves c_j [lo_j, hi_j] = [lo_i + min_a a_i, hi_i + max_a a_i]
    (ends swapped when c_j < 0), so M B is the bounding box of the union of
    the B + a and every piece M^-1(B + a) lies in B.  When all widths are
    positive and every two digits differ by at least a full width on some
    axis, the pieces are interior-disjoint; their volumes add up to vol B,
    so they tile B, B satisfies the set equation and is the attractor G.
    Any other system is refused with None; that is no verdict on G.
    """
    system = System.of(matrix, digits)
    if not system.is_integer:
        raise ValueError("box certificates require integer data")
    return _box_certificate(system)


@lru_cache(maxsize=256)
def _box_certificate(system):
    try:
        ms = monomial_structure(system)
    except NotMonomialError:
        return None
    digits = system.digits
    if len(digits) != math.prod(abs(c) for c in ms.multipliers):
        return None
    d = system.dim
    perm, mult = ms.permutation, ms.multipliers
    low = [min(a[i] for a in digits) for i in range(d)]
    high = [max(a[i] for a in digits) for i in range(d)]
    # Widths: |c_j| w_j = w_i + (high_i - low_i) with i = perm[j].
    widths = _solve_cycles(ms, [abs(c) for c in mult],
                           [high[perm[j]] - low[perm[j]] for j in range(d)])
    if widths is None or min(widths) <= 0:
        return None
    # Lower ends: c_j lo_j = lo_i + low_i, plus |c_j| w_j when c_j < 0 maps hi_j to lo_i.
    lo = _solve_cycles(ms, mult, [low[perm[j]] + (abs(c) * widths[j] if c < 0 else 0)
                                  for j, c in enumerate(mult)])
    # Integer digit gaps reach a width w exactly when they reach ceil(w).
    gaps = _int_array([-(-w.numerator // w.denominator) for w in widths])
    pts = _int_array(system.array)
    for k in range(len(pts) - 1):
        if not (np.abs(pts[k + 1:] - pts[k]) >= gaps).any(axis=1).all():
            return None
    return tuple(lo), tuple(a + w for a, w in zip(lo, widths))


# ---------------------------------------------------------------------------
# parallelepiped detection
# ---------------------------------------------------------------------------

def _check_tol(tol):
    """`tol`, or ValueError unless it is finite with 0 <= tol < 1."""
    if not 0 <= tol < 1:
        raise ValueError(f"tol must satisfy 0 <= tol < 1, got {tol}")
    return tol


@dataclass(frozen=True)
class ParallelepipedReport:
    is_box: bool
    edge_vectors: Optional[tuple]
    hull_volume: float
    fit_volume: float
    measure_estimate: float
    interior_estimate: float
    tol: float
    certified: bool = False


def _cell_grid(points):
    """Dense boolean grid of a cell array, with a one-cell margin.

    Returns (grid, mins); cell z sits at index z - mins + 1.
    """
    arr = points.astype(np.int64, copy=False)
    mins = arr.min(axis=0)
    spans = arr.max(axis=0) - mins + 3
    grid = np.zeros(tuple(spans), dtype=bool)
    grid[tuple((arr - mins + 1).T)] = True
    return grid, mins


def _corner_cloud(approx: AttractorApprox, grid, mins):
    """Real-mapped corners of the boundary cells of (grid, mins) = _cell_grid(approx.points)."""
    from scipy import ndimage

    d = approx.dim
    cross = ndimage.generate_binary_structure(d, 1)
    boundary = grid & ~ndimage.binary_erosion(grid, structure=cross)
    idx = np.argwhere(boundary) + (mins - 1)
    offsets = np.array(list(product((0, 1), repeat=d)), dtype=np.int64)
    corners = _unique_rows((idx[:, None, :] + offsets[None, :, :]).reshape(-1, d))[0]
    minv = np.linalg.inv(np.array(approx.matrix, dtype=float))
    a = np.linalg.matrix_power(minv, approx.depth)
    return corners.astype(float) @ a.T


def _canonical_normal(n):
    n = n / np.linalg.norm(n)
    for x in n:
        if abs(x) > 1e-12:
            return tuple(np.round(n if x > 0 else -n, 9))
    return tuple(np.round(n, 9))


def _min_parallelepiped(pts, d):
    """Smallest parallelepiped with faces parallel to hull facet directions.

    Returns (hull_volume, fit_volume, edge_vectors).  The optimal enclosing
    parallelepiped of a convex body has its facet directions among the hull
    facet normals for the lattice clouds handled here; we scan d-tuples of
    distinct normals and keep the smallest slab-intersection volume.
    """
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise DegeneratePointCloudError(str(exc)) from exc
    vertices = pts[hull.vertices]
    normal_count: dict = {}
    for eq in hull.equations:
        key = _canonical_normal(eq[:d])
        normal_count[key] = normal_count.get(key, 0) + 1
    normals = sorted(normal_count, key=lambda k: (-normal_count[k], k))[:64]
    nmat = np.array(normals)
    projs = vertices @ nmat.T
    widths = projs.max(axis=0) - projs.min(axis=0)
    offsets = projs.min(axis=0)
    best = None
    for combo in combinations(range(len(normals)), d):
        sub = nmat[list(combo)]
        det = abs(np.linalg.det(sub))
        if det < 1e-9:
            continue
        vol = float(np.prod(widths[list(combo)])) / det
        if best is None or vol < best[0]:
            best = (vol, combo)
    if best is None:
        raise DegeneratePointCloudError("no independent facet directions found")
    vol, combo = best
    sub = nmat[list(combo)]
    inv = np.linalg.inv(sub)
    edges = tuple(tuple(inv[:, j] * widths[combo[j]]) for j in range(d))
    return float(hull.volume), float(vol), edges


def is_parallelepiped(approx: AttractorApprox, tol: float = 0.05) -> ParallelepipedReport:
    """Decide whether the approximated attractor is a box.

    A system with a box_certificate is a box, exactly: the report is
    certified, its edges are the box's axis edges and every volume field is
    the box volume.  Otherwise the decision is numeric, with two checks at
    tolerance `tol` (calibrated for depth 8 in dimension <= 3, with the
    cover bracket loosening at shallow depths):

      * the convex hull of the cell corners fills at least (1 - tol) of the
        smallest enclosing parallelepiped spanned by hull facet directions;
      * the hull volume is consistent with the measure bracket from the
        self-similar cover (interior count below, touched count above).

    `tol` must be finite with 0 <= tol < 1, else ValueError.
    """
    if not approx.is_integer:
        raise ValueError("parallelepiped detection requires integer data")
    _check_tol(tol)
    d = approx.dim
    system = approx.system
    box = _box_certificate(system)
    if box is not None:
        widths = [b - a for a, b in zip(*box)]
        vol = float(math.prod(widths))
        edges = tuple(tuple(float(w) if i == j else 0.0 for i in range(d))
                      for j, w in enumerate(widths))
        return ParallelepipedReport(
            is_box=True, edge_vectors=edges, hull_volume=vol, fit_volume=vol,
            measure_estimate=vol, interior_estimate=vol, tol=tol, certified=True)
    from scipy import ndimage

    rel = approx.points.astype(float)
    if len(rel) < 2 or np.linalg.matrix_rank(rel - rel[0]) < d:
        raise DegeneratePointCloudError(
            "cells span a lower-dimensional subspace; the attractor is degenerate")
    scale = abs(system.det) ** approx.depth
    cover = _unit_cell_cover(system, None)
    # The touched cells (cells + cover) as a dense grid over their key box, which
    # bounds the keys, so they narrow to int64 whatever their dtype.
    keys, _, span = _cover_keys(approx.points, cover)
    touched = np.zeros(math.prod(span), dtype=bool)
    touched[keys.astype(np.int64)] = True
    touched = touched.reshape(span)
    full = np.ones((3,) * d, dtype=bool)
    interior = ndimage.binary_erosion(touched, structure=full)
    vol_hi = int(np.count_nonzero(touched)) / scale
    vol_lo = int(np.count_nonzero(interior)) / scale
    if d == 1:
        zs = approx.points[:, 0]
        width = (int(zs.max()) - int(zs.min()) + 1) / abs(approx.matrix[0][0]) ** approx.depth
        hull_volume = fit_volume = float(width)
        edges = ((float(width),),)
    else:
        pts = _corner_cloud(approx, *_cell_grid(approx.points))
        hull_volume, fit_volume, edges = _min_parallelepiped(pts, d)
    is_box = bool(hull_volume >= (1.0 - tol) * fit_volume       # filled
                  and vol_lo <= hull_volume * (1.0 + tol)       # consistent
                  and hull_volume <= vol_hi * (1.0 + tol))
    return ParallelepipedReport(
        is_box=is_box, edge_vectors=edges if is_box else None,
        hull_volume=float(hull_volume), fit_volume=float(fit_volume),
        measure_estimate=float(vol_hi), interior_estimate=float(vol_lo), tol=tol)
