"""Cyclic forms, box digit sets, tensor products, monomial structure, box detection."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tileforge import attractor, boxtile, lattice
from tileforge.attractor import (approximate, rasterize, tile_check_exact, bounding_box,
                                 unit_cell_cover)
from tileforge.boxtile import (
    BoxForm,
    DegeneratePointCloudError,
    NotMonomialError,
    box_certificate,
    box_digits,
    build_cyclic_matrix,
    is_parallelepiped,
    monomial_structure,
    suggested_depth,
    tensor_product,
)
from tileforge.cli import main as cli_main
from tileforge.lattice import System


def all_forms(max_n, max_prod):
    for n in range(1, max_n + 1):
        for p in itertools.product(range(1, max_prod + 1), repeat=n):
            prod = 1
            for x in p:
                prod *= x
            if 2 <= prod <= max_prod:
                for sign in (1, -1):
                    yield BoxForm(p, sign)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_cyclic_two_digit():
    m = build_cyclic_matrix(BoxForm((1, 1, 2), 1))
    assert m == ((0, 1, 0), (0, 0, 1), (2, 0, 0))


def test_build_cyclic_twelve_digit():
    m = build_cyclic_matrix(BoxForm((3, 2, 2), 1))
    assert m == ((0, 3, 0), (0, 0, 2), (2, 0, 0))


def test_build_cyclic_scalar_negative():
    assert build_cyclic_matrix(BoxForm((2,), -1)) == ((-2,),)


def test_boxform_rejects_all_ones():
    with pytest.raises(ValueError):
        BoxForm((1, 1, 1), 1)
    with pytest.raises(ValueError):
        BoxForm((), 1)
    with pytest.raises(ValueError):
        BoxForm((2,), 0)


def test_box_digits_two():
    assert box_digits(BoxForm((1, 1, 2), 1)) == ((0, 0, 0), (0, 0, 1))


def test_box_digits_scalar():
    assert box_digits(BoxForm((2,), 1)) == ((0,), (1,))


def test_box_digits_twelve():
    digits = box_digits(BoxForm((3, 2, 2), 1))
    assert len(digits) == 12
    assert digits == tuple(sorted(itertools.product(range(3), range(2), range(2))))


def test_box_digits_negative_sign_contains_zero():
    digits = box_digits(BoxForm((2, 3), -1))
    assert (0, 0) in digits
    assert lattice.validate_digits(build_cyclic_matrix(BoxForm((2, 3), -1)), digits)


@pytest.mark.parametrize("form", [BoxForm((2,), 1), BoxForm((1, 1, 2), 1),
                                  BoxForm((3, 2, 2), 1), BoxForm((2, 3), -1),
                                  BoxForm((1, 1, 1, 2), -1)])
def test_box_digits_validate(form):
    m = build_cyclic_matrix(form)
    d = box_digits(form)
    assert lattice.validate_digits(m, d)
    assert lattice.is_expanding(m)


# ---------------------------------------------------------------------------
# monomial structure
# ---------------------------------------------------------------------------

def test_monomial_single_cycle():
    ms = monomial_structure([[0, 1, 0], [0, 0, 1], [2, 0, 0]])
    assert ms.is_single_cycle
    assert ms.permutation == (2, 0, 1)
    assert ms.multipliers == (2, 1, 1)


def test_monomial_diagonal_two_fixed_points():
    ms = monomial_structure([[2, 0], [0, 2]])
    assert len(ms.cycles) == 2
    assert not ms.is_single_cycle


def test_monomial_rejects_dense():
    with pytest.raises(NotMonomialError):
        monomial_structure([[1, 1], [-1, 1]])


def test_prime_determinant_single_cycle():
    # any cyclic form with prime digit count is irreducible (single cycle)
    for form in all_forms(4, 7):
        prod = 1
        for x in form.p:
            prod *= x
        if prod not in (2, 3, 5, 7):
            continue
        ms = monomial_structure(build_cyclic_matrix(form))
        assert ms.is_single_cycle, form


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_product_square():
    m, s = tensor_product([[2]], [(0,), (1,)], [[2]], [(0,), (1,)])
    assert m == ((2, 0), (0, 2))
    assert set(s) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_tensor_product_six_digits():
    m, s = tensor_product([[2]], [(0,), (1,)], [[3]], [(0,), (1,), (2,)])
    assert m == ((2, 0), (0, 3))
    assert len(s) == 6
    assert lattice.validate_digits(m, s)


def test_tensor_product_of_tiles_is_tile():
    m, s = tensor_product([[2]], [(0,), (1,)], [[0, -2], [1, 0]], [(0, 0), (1, 0)])
    assert tile_check_exact(m, s).is_tile


@pytest.mark.parametrize("f1,f2", [
    (([[2]], [(0,), (1,)]), ([[2]], [(0,), (1,)])),
    (([[2]], [(0,), (1,)]), ([[3]], [(0,), (1,), (2,)])),
    (([[3]], [(0,), (2,), (4,)]), ([[2]], [(0,), (1,)])),
])
def test_tensor_product_raster_is_cartesian(f1, f2):
    # raster of the product equals the cartesian product of factor rasters,
    # cell-exactly, when rasterized over the product box
    depth, res = 6, 16
    (m1, s1), (m2, s2) = f1, f2
    mp, sp = tensor_product(m1, s1, m2, s2)
    b1 = bounding_box(m1, s1)
    b2 = bounding_box(m2, s2)
    bp = (b1[0] + b2[0], b1[1] + b2[1])
    r1 = rasterize(approximate(m1, s1, depth), res, box=b1)
    r2 = rasterize(approximate(m2, s2, depth), res, box=b2)
    rp = rasterize(approximate(mp, sp, depth), res, box=bp)
    product_cells = {c1 + c2 for c1 in r1.occupied() for c2 in r2.occupied()}
    assert set(rp.occupied()) == product_cells


def test_disconnected_tensor_square():
    # the planar disconnected attractor: product of the 6-segment line
    # attractor with itself (36-shift system per factor)
    y = (0, 3, 6, 18, 21, 24)
    shifts_l = (0, 1, 2, 9, 10, 11)
    s1 = tuple((l + 36 * v,) for l in shifts_l for v in y)
    mp, sp = tensor_product([[36]], s1, [[36]], s1)
    assert len(sp) == 36 ** 2
    a = approximate(mp, sp, 1)
    assert len(a.cells) == 36 ** 2


# ---------------------------------------------------------------------------
# parallelepiped detection
# ---------------------------------------------------------------------------

def test_rect_is_box():
    report = is_parallelepiped(approximate([[0, -2], [1, 0]], [(0, 0), (1, 0)], 8))
    assert report.is_box
    assert abs(report.hull_volume - 1.0) < 0.05
    edges = np.abs(np.array(report.edge_vectors))
    assert np.allclose(sorted(np.linalg.norm(edges, axis=1)), [1.0, 1.0], atol=0.05)


def test_dragon_is_not_box():
    report = is_parallelepiped(approximate([[1, 1], [-1, 1]], [(0, 0), (1, 0)], 8))
    assert not report.is_box


def test_unit_square_is_box():
    m, s = tensor_product([[2]], [(0,), (1,)], [[2]], [(0,), (1,)])
    report = is_parallelepiped(approximate(m, s, 6))
    assert report.is_box
    edges = sorted(tuple(round(x, 6) for x in e) for e in report.edge_vectors)
    assert edges == [(0.0, 1.0), (1.0, 0.0)]


def test_interval_is_box_1d():
    report = is_parallelepiped(approximate([[2]], [(0,), (1,)], 8))
    assert report.is_box


def test_three_interval_is_box_1d():
    # [0, 3] is a segment, hence a box (it covers in three layers but the
    # classifier asks only about the shape)
    report = is_parallelepiped(approximate([[2]], [(0,), (3,)], 8))
    assert report.is_box


def test_degenerate_cloud_rejected():
    # rank-deficient shift set: all cells on a line in the plane
    a = approximate([[2, 0], [0, 2]], [(0, 0), (1, 0)], 5)
    with pytest.raises(DegeneratePointCloudError):
        is_parallelepiped(a)


def test_box_roundtrip_small_forms():
    # constructive direction: every small cyclic form generates a box
    for form in all_forms(3, 8):
        m = build_cyclic_matrix(form)
        d = box_digits(form)
        report = is_parallelepiped(approximate(m, d, suggested_depth(m, d)))
        assert report.is_box, (form, report)


# ---------------------------------------------------------------------------
# exact box certificate
# ---------------------------------------------------------------------------

#: The criterion-3 cyclic forms: n <= 4, prod(p) <= 16, both signs.
CRITERION_3_FORMS = list(all_forms(4, 16))


def _scaled_form(form, c):
    m = build_cyclic_matrix(form)
    return m, tuple(tuple(c * x for x in a) for a in box_digits(form))


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(CRITERION_3_FORMS), c=st.sampled_from([1, 2, 3, 5, -3]))
def test_scaled_box_forms_certify(form, c):
    # G(M, cD) = c G(M, D): the digits times c give a translate of |c| [0,1]^d
    m, digits = _scaled_form(form, c)
    lo, hi = box_certificate(m, digits)
    assert all(b - a == abs(c) for a, b in zip(lo, hi))
    report = is_parallelepiped(approximate(m, digits, suggested_depth(m, digits)))
    assert report.is_box and report.certified
    assert report.hull_volume == report.fit_volume == float(abs(c) ** len(m))
    assert report.edge_vectors == tuple(
        tuple(float(abs(c)) if i == j else 0.0 for i in range(len(m))) for j in range(len(m)))


@settings(max_examples=60, deadline=None)
@given(form=st.sampled_from(CRITERION_3_FORMS), c=st.sampled_from([1, 2, 3, 5, -3]))
def test_certified_box_lies_in_bounding_box(form, c):
    # the bounding box adds its tail (at most 1/64) to partial sums that are
    # within the tail of the exact extremes
    m, digits = _scaled_form(form, c)
    lo, hi = box_certificate(m, digits)
    blo, bhi = attractor._bounding_box_exact(System.of(m, digits))
    for a, b, ba, bb in zip(lo, hi, blo, bhi):
        assert ba <= a <= ba + Fraction(1, 32)
        assert bb - Fraction(1, 32) <= b <= bb


def test_certificate_matches_interval_attractors():
    assert box_certificate([[2]], [(0,), (3,)]) == ((0,), (3,))
    # sum of (-1/2)^k d_k over d_k in {0, -1}
    assert box_certificate([[-2]], [(0,), (-1,)]) == ((Fraction(-1, 3),), (Fraction(2, 3),))


@pytest.mark.parametrize("matrix,digits", [
    ([[1, 1], [-1, 1]], [(0, 0), (1, 0)]),      # twindragon: not monomial
    ([[3]], [(0,), (1,), (5,)]),                # pieces overlap
    ([[2, 0], [0, 2]], [(0, 0), (1, 0)]),       # |D| != |det M| and a zero width
    ([[2, 0], [0, 2]], [(0, 0), (1, 0), (2, 0), (3, 0)]),  # zero width
    ([[1, 0], [0, 2]], [(0, 0), (0, 1)]),       # a cycle that does not expand
])
def test_certificate_refuses(matrix, digits):
    assert box_certificate(matrix, digits) is None


def _numeric_reference(approx, tol=0.05):
    """The numeric detector as it was before the certificate: the report's
    fields as a tuple."""
    from scipy import ndimage

    d = approx.dim
    rel = approx.points.astype(float)
    if len(rel) < 2 or np.linalg.matrix_rank(rel - rel[0]) < d:
        raise DegeneratePointCloudError("degenerate")
    scale = abs(lattice.det(approx.matrix)) ** approx.depth
    cover = np.array(unit_cell_cover(approx.matrix, approx.shifts), dtype=np.int64)
    grid, mins = boxtile._cell_grid(approx.points)
    offsets = cover - cover.min(axis=0)
    touched = np.zeros(tuple(np.array(grid.shape) + offsets.max(axis=0)), dtype=bool)
    for g in offsets:
        touched[tuple(slice(a, a + n) for a, n in zip(g, grid.shape))] |= grid
    interior = ndimage.binary_erosion(touched, structure=np.ones((3,) * d, dtype=bool))
    vol_hi = int(np.count_nonzero(touched)) / scale
    vol_lo = int(np.count_nonzero(interior)) / scale
    if d == 1:
        zs = approx.points[:, 0]
        width = (int(zs.max()) - int(zs.min()) + 1) / abs(approx.matrix[0][0]) ** approx.depth
        hull_volume = fit_volume = float(width)
        edges = ((float(width),),)
    else:
        pts = boxtile._corner_cloud(approx, grid, mins)
        hull_volume, fit_volume, edges = boxtile._min_parallelepiped(pts, d)
    filled = hull_volume >= (1.0 - tol) * fit_volume
    consistent = vol_lo <= hull_volume * (1.0 + tol) and hull_volume <= vol_hi * (1.0 + tol)
    ok = bool(filled and consistent)
    return (ok, edges if ok else None, float(hull_volume), float(fit_volume),
            float(vol_hi), float(vol_lo), tol)


REFUSED_SYSTEMS = [
    ([[1, 1], [-1, 1]], [(0, 0), (1, 0)], 8),          # twindragon
    ([[1, 1], [-1, 1]], [(0, 0), (3, 0)], 6),          # twindragon, digits times 3
    ([[3]], [(0,), (1,), (5,)], 6),
    ([[1, -3], [1, -1]], [(0, 0), (1, 0)], 8),         # [[0,-2],[1,0]] conjugated by [[1,1],[0,1]]
    ([[2, 0], [0, 2]], [(0, 0), (1, 0)], 5),           # degenerate cloud
]


@pytest.mark.parametrize("matrix,digits,depth", REFUSED_SYSTEMS)
def test_refused_systems_keep_numeric_report(matrix, digits, depth):
    approx = approximate(matrix, digits, depth)
    assert box_certificate(matrix, digits) is None
    try:
        expected = _numeric_reference(approx)
    except DegeneratePointCloudError:
        with pytest.raises(DegeneratePointCloudError):
            is_parallelepiped(approx)
        return
    report = is_parallelepiped(approx)
    assert not report.certified
    got = (report.is_box, report.edge_vectors, report.hull_volume, report.fit_volume,
           report.measure_estimate, report.interior_estimate, report.tol)
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("matrix,digits,depth", REFUSED_SYSTEMS)
def test_refused_systems_keep_numeric_report_past_int64(matrix, digits, depth):
    # Every cell, cover and touched key is a Python int; the keys still index the grid.
    memos = (attractor._level, attractor._unit_cell_cover)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attractor, "INT64_SAFE", 1)
        for memo in memos:
            memo.cache_clear()
        try:
            test_refused_systems_keep_numeric_report(matrix, digits, depth)
        finally:
            for memo in memos:
                memo.cache_clear()


def test_box_detect_certifies_scaled_form(capsys):
    code = cli_main(["box", "detect", "--matrix", "[[0,1,0],[0,0,4],[1,0,0]]",
                     "--digits", "[[0,0,0],[0,5,0],[0,10,0],[0,15,0]]"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["is_box"] is True and report["certified"] is True
    assert report["hull_volume"] == 125.0
