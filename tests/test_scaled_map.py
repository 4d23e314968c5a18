"""The scaled-integer map M^-k = P / q against a Fraction reference.

Matrices are unimodular conjugates (and negatives) of small expanding
matrices, so they stay expanding, have dimension <= 3 and |det| <= 12, and
determinants of both signs occur.
"""

from fractions import Fraction
from math import floor, lcm

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tileforge import attractor
from tileforge.attractor import AttractorApprox, grid_indices, rasterize
from tileforge.lattice import (
    SingularMatrixError,
    as_int_matrix,
    det,
    inverse_power,
    is_expanding,
    mat_mul,
    mat_vec,
    residue_of,
    residue_system,
    validate_digits,
)

BASES = (
    ((2,),), ((-3,),), ((12,),),
    ((1, 1), (-1, 1)), ((0, 2), (3, 0)), ((2, 0), (0, -3)), ((1, -2), (1, 1)),
    ((0, 1), (2, 0)), ((2, 1), (0, 2)),
    ((0, 1, 0), (0, 0, 1), (2, 0, 0)), ((0, 1, 0), (0, 0, 1), (-3, 0, 0)),
    ((2, 0, 0), (0, -2, 0), (0, 0, 3)), ((0, 2, 0), (0, 0, 2), (-3, 0, 0)),
)

SETTINGS = settings(max_examples=150, deadline=None)


def _identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


@st.composite
def expanding_matrices(draw):
    m = draw(st.sampled_from(BASES))
    d = len(m)
    for _ in range(draw(st.integers(0, 3)) if d > 1 else 0):
        i, j = draw(st.permutations(range(d)))[:2]
        c = draw(st.integers(-2, 2))
        shear = [list(r) for r in _identity(d)]
        shear[i][j] = c
        unshear = [list(r) for r in _identity(d)]
        unshear[i][j] = -c
        m = mat_mul(mat_mul(shear, m), unshear)
    if draw(st.booleans()):
        m = tuple(tuple(-x for x in row) for row in m)
    assert is_expanding(m) and 2 <= abs(det(m)) <= 12
    return m


def _vectors(d, bound):
    return st.tuples(*[st.integers(-bound, bound)] * d)


def _coordinates(d):
    coord = st.one_of(
        st.integers(-40, 40),
        st.fractions(min_value=-40, max_value=40, max_denominator=1000),
        st.floats(min_value=-40, max_value=40, allow_nan=False),
    )
    return st.tuples(*[coord] * d)


def inverse_fractions(matrix):
    """Exact inverse as a matrix of Fractions (Gauss-Jordan over Q), the
    reference for the scaled-integer map."""
    m = as_int_matrix(matrix)
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
         for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def _reference_power(m, k):
    inv = inverse_fractions(m)
    a = tuple(tuple(Fraction(x) for x in row) for row in _identity(len(m)))
    for _ in range(k):
        a = mat_mul(a, inv)
    return a


def _reference_indices(m, k, cells, resolution, origin):
    a = _reference_power(m, k)
    return [tuple(floor((sum(a[i][j] * z[j] for j in range(len(z))) - Fraction(o))
                        * resolution)
                  for i, o in enumerate(origin))
            for z in cells]


def _approx(m, k, cells, dtype=object):
    d = len(m)
    return AttractorApprox(matrix=m, shifts=(tuple([0] * d),), depth=k,
                           points=np.array(cells, dtype=dtype), is_integer=True)


#: (points dtype, patched INT64_SAFE): int64 and object points under the
#: real guard, and int64 points with the guard patched so the product runs
#: on Python ints.
DTYPE_PATHS = ((np.int64, None), (object, None), (np.int64, 1))


def _guard_bound(m, k, cells, resolution, origin):
    """The bound grid_indices checks against INT64_SAFE: max ||row||_1 *
    max|z| + max|offset| for the rows P b R and offsets a q R.  The divisor
    q b is guarded on its own."""
    p, q = inverse_power(m, k)
    origin = [Fraction(x) for x in origin]
    b = lcm(*(x.denominator for x in origin))
    zmax = max([1] + [abs(x) for z in cells for x in z])
    norm = max(sum(abs(x) for x in row) for row in p) * b * resolution
    offset = max(abs(x) * b * q * resolution for x in origin)
    return norm * zmax + offset


@st.composite
def map_cases(draw, ks, cell_bound, resolutions):
    """(m, k, cells, resolution, origin, widths) for the scaled map."""
    m = draw(expanding_matrices())
    d = len(m)
    cells = draw(st.lists(_vectors(d, cell_bound), min_size=1, max_size=12))
    widths = st.fractions(min_value=0, max_value=4, max_denominator=50)
    return (m, draw(ks), cells, draw(resolutions), draw(_coordinates(d)),
            draw(st.tuples(*[widths] * d)))


#: Its product bound 2^62 - 1 lies just below INT64_SAFE, so the indices stay
#: int64, though the bound plus the divisor q b = 2 reaches it.
BOUND_EDGE = (((2,),), 1, [(2 ** 62 - 1,), (0,)], 1, (0,), (Fraction(1),))


def _expected_dtype(bound, safe):
    return object if bound >= (safe or attractor.INT64_SAFE) else np.int64


def _spy_grid_indices(mp, dtypes):
    real = attractor.grid_indices

    def spy(*args):
        out = real(*args)
        dtypes.append(out.dtype)
        return out
    mp.setattr(attractor, "grid_indices", spy)


@SETTINGS
@given(m=expanding_matrices(), k=st.integers(0, 6))
def test_inverse_power_matches_fraction_inverse(m, k):
    p, q = inverse_power(m, k)
    a = _reference_power(m, k)
    assert q > 0
    assert all(Fraction(p[i][j], q) == a[i][j] for i in range(len(m)) for j in range(len(m)))


@SETTINGS
@given(case=map_cases(st.integers(0, 6), 10 ** 6, st.integers(1, 500)))
@example(case=BOUND_EDGE)
def test_grid_indices_match_fraction_reference(case):
    m, k, cells, resolution, origin, _ = case
    d = len(m)
    expected = _reference_indices(m, k, cells, resolution, origin)
    bound = _guard_bound(m, k, cells, resolution, origin)
    for dtype, safe in DTYPE_PATHS:
        with pytest.MonkeyPatch.context() as mp:
            if safe:
                mp.setattr(attractor, "INT64_SAFE", safe)
            columns = grid_indices(_approx(m, k, cells, dtype), resolution, origin)
            assert columns.dtype == _expected_dtype(bound, safe)
        assert columns.shape == (d, len(cells))
        assert list(zip(*columns)) == expected


@pytest.mark.parametrize("cell", [2 ** 61 - 3, -(2 ** 61) + 5])
def test_grid_indices_past_int64_match_fraction_reference(cell):
    # 8 * 2^61 passes INT64_SAFE, though every index (about 2^62) fits int64.
    cells, origin = [(cell,), (0,), (1,)], (Fraction(1, 3),)
    columns = grid_indices(_approx(((2,),), 1, cells, np.int64), 8, origin)
    assert columns.dtype == object
    assert list(zip(*columns)) == _reference_indices(((2,),), 1, cells, 8, origin)


@SETTINGS
@given(case=map_cases(st.integers(1, 5), 400, st.integers(1, 8)))
@example(case=BOUND_EDGE)
def test_rasterize_matches_fraction_reference(case):
    m, k, cells, resolution, lo, widths = case
    hi = tuple(Fraction(x) + w for x, w in zip(lo, widths))
    extent = tuple(max(1, -floor(-(w * resolution))) for w in widths)
    expected = np.zeros(extent, dtype=np.int64)
    for ix in _reference_indices(m, k, cells, resolution, lo):
        expected[tuple(min(max(x, 0), e - 1) for x, e in zip(ix, extent))] += 1
    bound = _guard_bound(m, k, cells, resolution, lo)
    for dtype, safe in DTYPE_PATHS:
        dtypes = []
        with pytest.MonkeyPatch.context() as mp:
            if safe:
                mp.setattr(attractor, "INT64_SAFE", safe)
            _spy_grid_indices(mp, dtypes)
            r = rasterize(_approx(m, k, cells, dtype), resolution, box=(lo, hi))
        assert dtypes == [_expected_dtype(bound, safe)]
        assert r.extent == extent
        assert np.array_equal(r.occupancy, expected)


@SETTINGS
@given(m=expanding_matrices(), data=st.data())
def test_residues_match_fraction_reference(m, data):
    inv = inverse_fractions(m)
    for v in data.draw(st.lists(_vectors(len(m), 10 ** 9), min_size=1, max_size=8)):
        z = [floor(y) for y in mat_vec(inv, v)]
        expected = tuple(vi - x for vi, x in zip(v, mat_vec(m, z)))
        assert residue_of(m, v) == expected
    digits = residue_system(m)
    assert len(digits) == abs(det(m))
    assert all(0 <= y < 1 for r in digits for y in mat_vec(inv, r))
    assert validate_digits(m, digits)
    # M e_1, in the class of zero, in place of a nonzero digit.
    clash = list(digits)
    clash[next(i for i, r in enumerate(digits) if any(r))] = tuple(row[0] for row in m)
    assert not validate_digits(m, clash)
