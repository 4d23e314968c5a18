"""Attractor approximation, measure bounds, the tile test, layers, rasters."""

import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_scaled_map import _vectors, expanding_matrices

from tileforge import attractor, haar, lattice
from tileforge.attractor import (
    ResourceLimitError,
    approximate,
    bounding_box,
    contact_matrix,
    measure_upper,
    rasterize,
    self_similarity_residual,
    shift_cover_layers,
    tile_check_exact,
    unit_cell_cover,
)
from tileforge.boxtile import BoxForm, box_digits, build_cyclic_matrix
from tileforge.lattice import System, det, inverse_power, mat_mul, mat_vec, residue_system

DRAGON_M = ((1, 1), (-1, 1))
DRAGON_D = ((0, 0), (1, 0))
RECT_M = ((0, -2), (1, 0))
RECT_D = ((0, 0), (1, 0))


# ---------------------------------------------------------------------------
# approximate
# ---------------------------------------------------------------------------

def test_approximate_binary():
    a = approximate([[2]], [(0,), (1,)], 3)
    assert a.cells == tuple((i,) for i in range(8))


def test_approximate_is_direct_sum():
    a = approximate([[2]], [(0,), (3,)], 2)
    assert a.cells == ((0,), (3,), (6,), (9,))


def test_approximate_dragon_depth2():
    a = approximate(DRAGON_M, DRAGON_D, 2)
    assert len(a.cells) == 4


def test_approximate_rejects_non_expanding():
    with pytest.raises(ValueError):
        approximate([[1, 0], [0, 2]], [(0, 0), (1, 0)], 3)


def test_approximate_checks_expansion_once_per_system(monkeypatch):
    calls = []
    real = lattice._eigenvalues_expand
    monkeypatch.setattr(lattice, "_eigenvalues_expand",
                        lambda matrix: calls.append(matrix) or real(matrix))
    # A system no other test builds, so its levels start uncached.
    m, digits = ((0, 7), (-1, 1)), ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0))
    for depth in (3, 3, 1, 4, 2):
        approximate(m, digits, depth)
    assert calls == [m]
    # A non-expanding matrix is refused on every call, before any budget check.
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "1")
    for _ in range(2):
        with pytest.raises(ValueError, match="matrix must be expanding"):
            approximate([[1, 0], [0, 2]], [(0, 0), (1, 0)], 3)


def test_equal_inputs_share_one_system_and_its_memos():
    # Reordered, repeated and integral-float input names the same System, so
    # it reads the levels the first call built.
    m, digits = ((0, 5), (-1, 2)), [(k, 0) for k in range(5)]
    first = approximate(m, digits, 3)
    misses = attractor._level.cache_info().misses
    again = approximate([[0.0, 5], [-1, 2.0]], [*reversed(digits), (0.0, 0)], 3)
    assert attractor._level.cache_info().misses == misses
    assert again.system is first.system and again == first


def test_a_system_passed_with_other_digits_is_refused():
    m, digits = ((0, 5), (-1, 2)), [(k, 0) for k in range(5)]
    system = System.of(m, digits)
    assert approximate(system, digits[::-1], 2) == approximate(m, digits, 2)
    other = [(0, 0), (1, 0)]
    for call in (lambda: approximate(system, other, 2),
                 lambda: approximate(System.of(m), digits, 2),
                 lambda: bounding_box(system, other),
                 lambda: tile_check_exact(system, other),
                 lambda: measure_upper(system, other, 2)):
        with pytest.raises(ValueError, match="differ"):
            call()


def test_approximate_resource_cap(monkeypatch):
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "1000")
    with pytest.raises(ResourceLimitError):
        approximate([[2]], [(0,), (1,)], 40)


def test_approximate_budget_holds_for_cached_levels(monkeypatch):
    approximate([[2]], [(0,), (5,)], 10)
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "10")
    with pytest.raises(ResourceLimitError):
        approximate([[2]], [(0,), (5,)], 10)


def test_approximate_one_shift_past_the_budget_depth(monkeypatch):
    # One shift keeps one cell per level, so the per-level check never fires.
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "300")
    with pytest.raises(ResourceLimitError):
        approximate([[2]], [(3,)], 10 ** 12)
    assert len(approximate([[2]], [(3,)], 300).cells) == 1


def test_approximate_concurrent_depths():
    # Eight threads extending one fresh level list to depths 10..12.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            attractor._level.cache_clear()
            counts = {}

            def work(i):
                depth = 10 + i % 3
                counts[i] = (depth, len(approximate(DRAGON_M, DRAGON_D, depth).cells))

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert sorted(counts) == list(range(8))
            assert all(n == 2 ** depth for depth, n in counts.values())
    finally:
        sys.setswitchinterval(interval)


def test_memo_caches_concurrent():
    # Eight threads over 300 distinct systems (and 19 Haar systems), so every
    # memo evicts while other threads read it; results must match a serial run.
    systems = [(((a,),), tuple((k * c,) for k in range(a)))
               for a in range(2, 8) for c in range(1, 51)]
    wavelets = [haar.build_wavelets([[a]], [(k * c,) for k in range(a)])
                for a in (2, 3, 5) for c in (1, 2, 4, 7, 11, 13, 17)
                if math.gcd(a, c) == 1]
    point = (Fraction(1, 3),)

    def clear():
        for memo in (attractor._bounding_box_exact, attractor._unit_cell_cover,
                     attractor._level, haar._piece_tables, lattice._inverse_power):
            memo.cache_clear()

    def results(start):
        out = {}
        for j in range(len(systems)):
            k = (start + 37 * j) % len(systems)
            out[k] = (bounding_box(*systems[k]), unit_cell_cover(*systems[k], 2))
        for j in range(len(wavelets)):
            k = (start + j) % len(wavelets)
            out["haar", k] = haar.evaluate(wavelets[k], 1, point, depth=4)
        return out

    clear()
    expected = results(0)
    clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    got, errors = {}, []

    def work(i):
        try:
            got[i] = results(i)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(got[i] == expected for i in range(8))


def test_approximate_real_shifts():
    a = approximate([[2.0]], [(0.0,), (0.5,)], 4)
    assert not a.is_integer
    assert len(a.cells) == 16


def test_real_matrix_attractor():
    # non-integer dilations are supported by the approximation/raster path
    a = approximate([[1.5, 0.0], [0.0, 1.5]], [(0, 0), (1, 0), (0, 1)], 6)
    assert not a.is_integer
    r = rasterize(a, 16)
    assert r.occupied_count > 0
    assert self_similarity_residual(a) < 0.05


# ---------------------------------------------------------------------------
# bounding boxes and covers
# ---------------------------------------------------------------------------

def test_bounding_box_unit_interval():
    lo, hi = bounding_box([[2]], [(0,), (1,)])
    assert lo[0] <= 0 and hi[0] >= 1
    assert hi[0] - lo[0] <= Fraction(9, 8)


def test_bounding_box_dragon_contains_known_extremes():
    # coordinate series of the twindragon converge to x in [-2/3, 2/3],
    # y in [-1/3, 4/3]
    lo, hi = bounding_box(DRAGON_M, DRAGON_D)
    assert lo[0] <= Fraction(-2, 3) and hi[0] >= Fraction(2, 3)
    assert lo[1] <= Fraction(-1, 3) and hi[1] >= Fraction(4, 3)
    assert hi[0] - lo[0] <= Fraction(3, 2)


def test_unit_cell_cover_interval():
    # G = [0, 1]: the cell (0,) must be covered; the certified tail may keep
    # one grazing margin cell per side when the boundary sits on the lattice
    cover = set(unit_cell_cover(((2,),), ((0,), (1,))))
    assert {(0,)} <= cover <= {(-1,), (0,), (1,)}


def test_unit_cell_cover_three_interval():
    cover = set(unit_cell_cover(((2,),), ((0,), (3,))))
    assert {(0,), (1,), (2,)} <= cover <= {(-1,), (0,), (1,), (2,), (3,)}


def test_unit_cell_cover_dragon():
    cover = unit_cell_cover(DRAGON_M, DRAGON_D)
    assert set(cover) == {(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 0), (0, 1)}


# ---------------------------------------------------------------------------
# measure_upper
# ---------------------------------------------------------------------------

def test_measure_upper_unit_interval():
    for depth in (1, 4, 8):
        assert measure_upper([[2]], [(0,), (1,)], depth) == 1


def test_measure_upper_three_interval_approaches_three():
    # G = [0, 3]; the cover bound is 3 + 2^(1-K), derived from the
    # geometric series 3 * sum 2^-k giving exactly the interval [0, 3]
    for depth in (4, 6, 8, 10):
        mu = measure_upper([[2]], [(0,), (3,)], depth)
        assert mu == 3 + Fraction(2, 2 ** depth)
    assert abs(float(measure_upper([[2]], [(0,), (3,)], 12)) - 3.0) < 0.01


def test_measure_upper_dragon():
    assert measure_upper(DRAGON_M, DRAGON_D, 14) == 1


def test_measure_upper_monotone():
    for m, d in [(((2,),), ((0,), (3,))), (DRAGON_M, DRAGON_D)]:
        values = [measure_upper(m, d, k) for k in range(2, 9)]
        assert all(a >= b for a, b in zip(values, values[1:]))


def test_measure_upper_requires_digit_system():
    with pytest.raises(ValueError):
        measure_upper([[2]], [(0,), (2,)], 4)


# ---------------------------------------------------------------------------
# tile_check_exact
# ---------------------------------------------------------------------------

def test_tile_unit_interval():
    report = tile_check_exact([[2]], [(0,), (1,)])
    assert report.is_tile and not report.indeterminate
    assert report.measure == 1


def test_tile_three_interval_negative():
    report = tile_check_exact([[2]], [(0,), (3,)])
    assert not report.is_tile and not report.indeterminate
    assert abs(report.spectral_radius - 2.0) < 1e-6
    assert set(report.contact.states) == {(-3,), (-2,), (-1,), (1,), (2,), (3,)}


def test_tile_three_interval_perron_vector_pattern():
    # Overlap measures of [0,3]: mu(+-1) = 2, mu(+-2) = 1, mu(+-3) = 0,
    # an eigenvector of the 6-state contact matrix at eigenvalue m = 2.
    report = tile_check_exact([[2]], [(0,), (3,)])
    order = {k: i for i, k in enumerate(report.contact.states)}
    t = np.array(report.contact.counts, dtype=float)
    mu = np.zeros(len(order))
    for k, v in [((-3,), 0), ((-2,), 1), ((-1,), 2), ((1,), 2), ((2,), 1), ((3,), 0)]:
        mu[order[k]] = v
    assert np.allclose(t @ mu, 2.0 * mu)


def test_tile_dragon():
    report = tile_check_exact(DRAGON_M, DRAGON_D)
    assert report.is_tile
    assert report.spectral_radius < 2 - 1e-6


def test_tile_rect():
    report = tile_check_exact(RECT_M, RECT_D)
    assert report.is_tile
    assert abs(report.spectral_radius - 2 ** 0.5) < 1e-6


def test_tile_check_rejects_bad_digits():
    with pytest.raises(ValueError):
        tile_check_exact([[2]], [(0,), (2,)])
    with pytest.raises(ValueError):
        tile_check_exact([[1, 0], [0, 2]], [(0, 0), (1, 0)])


def _forbid_dense_counts(monkeypatch):
    def no_dense(contact):
        raise AssertionError("the tile verdict must run on the edge list")

    monkeypatch.setattr(attractor.ContactMatrix, "counts", property(no_dense))


def test_tile_verdict_needs_no_floats(monkeypatch):
    def no_floats(counts):
        raise AssertionError("the tile verdict must not estimate the Perron radius")

    monkeypatch.setattr(attractor, "_power_radius", no_floats)
    _forbid_dense_counts(monkeypatch)
    box = BoxForm((1, 1, 2), 1)
    cases = [
        (DRAGON_M, DRAGON_D, True),
        (((2,),), ((0,), (3,)), False),
        (build_cyclic_matrix(box), box_digits(box), True),
        (DRAGON_M, tuple((3 * x, 3 * y) for x, y in DRAGON_D), False),
    ]
    reports = [tile_check_exact(m, digits) for m, digits, _ in cases]
    assert [r.is_tile for r in reports] == [tile for _, _, tile in cases]
    assert not any(r.indeterminate for r in reports)
    monkeypatch.undo()
    assert 1.6956 < reports[0].spectral_radius < 1.6957
    assert abs(reports[1].spectral_radius - 2) < 1e-6


@st.composite
def digit_systems(draw):
    """Residue digits of an expanding M, each nonzero one moved by M v with
    small v, and sometimes all scaled by a factor coprime to det M."""
    m = draw(expanding_matrices())
    d = len(m)
    digits = []
    for r in residue_system(m):
        v = draw(_vectors(d, 1)) if any(r) else (0,) * d
        digits.append(tuple(x + y for x, y in zip(r, mat_vec(m, v))))
    k = draw(st.sampled_from([k for k in (1, 1, 2, 3, 5) if math.gcd(k, det(m)) == 1]))
    return m, tuple(tuple(k * x for x in r) for r in digits)


@settings(max_examples=60, deadline=None)
@given(digit_systems())
def test_tile_verdict_is_perron_radius_below_modulus(system):
    m, digits = system
    # Keep the window (and so the contact matrix) small.
    lo, hi = bounding_box(m, [tuple(b - a for a, b in zip(x, y)) for x in digits for y in digits])
    assume(math.prod(float(h - l) + 1 for l, h in zip(lo, hi)) <= 1500)
    report = tile_check_exact(m, digits)
    modulus = abs(det(m))
    assert all(sum(col) <= modulus for col in zip(*report.contact.counts))
    rho = attractor._power_radius(report.contact.counts)
    if abs(rho - modulus) >= 1e-3:
        assert report.is_tile == (rho < modulus), (m, digits, rho)
    assert report.is_tile == _dense_verdict(report.contact.counts, modulus)


def _dense_verdict(counts, modulus):
    """The column-sum fixed point on the dense contact matrix."""
    col = counts.sum(axis=0)
    alive = np.ones(len(counts), dtype=bool)
    while (drop := alive & (col < modulus)).any():
        alive &= ~drop
        col -= counts[drop].sum(axis=0)
    return not alive.any()


def test_scaled_dragon_verdict_needs_no_dense_matrix(monkeypatch):
    # Digits times 101: 66,672 contact states, a 33 GiB dense matrix.
    _forbid_dense_counts(monkeypatch)
    report = tile_check_exact(DRAGON_M, ((0, 0), (101, 0)))
    assert not report.is_tile and len(report.contact) == 66672
    assert report.spectral_radius == 2.0


def test_contact_window_over_budget(monkeypatch):
    # The twindragon with digits times 3 has a 9 x 11 window and 3 digit differences.
    m, digits = DRAGON_M, ((0, 0), (3, 0))
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "297")
    assert len(contact_matrix(m, digits)) > 0
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "296")
    with pytest.raises(ResourceLimitError, match="contact window"):
        contact_matrix(m, digits)


def _reference_box(matrix, shifts):
    """The box series summed level by level with Fraction accumulators, and
    the int64 guard's bound max_j ||P^j||_inf * max|s| over the levels summed."""
    d = len(matrix)
    step, q1 = inverse_power(matrix, 1)
    smax = max(abs(x) for s in shifts for x in s)
    lo = [Fraction(0)] * d
    hi = [Fraction(0)] * d
    power, q = step, q1
    norm_sum = Fraction(0)
    j = rmax = 0
    halved = False
    while True:
        j += 1
        rmax = max(rmax, max(sum(abs(x) for x in row) for row in power))
        imgs = [mat_vec(power, s) for s in shifts]
        for i in range(d):
            vals = [v[i] for v in imgs]
            lo[i] += Fraction(min(vals), q)
            hi[i] += Fraction(max(vals), q)
        norm = Fraction(max(sum(abs(x) for x in row) for row in power), q)
        norm_sum += norm
        if norm <= Fraction(1, 2):
            halved = True
            tail = norm * 2 * norm_sum * smax
            if tail <= Fraction(1, 64) or j >= 200:
                box = tuple(x - tail for x in lo), tuple(x + tail for x in hi)
                return box, rmax * max(smax, 1)
        if j >= 200 and not halved:
            raise ValueError("matrix does not appear to be expanding")
        power = mat_mul(power, step)
        q *= q1


def _box_dtypes(monkeypatch, matrix, shifts):
    """The exact box, bypassing its memo, and the dtypes its product used."""
    dtypes = []
    real = attractor._int_dtype
    monkeypatch.setattr(attractor, "_int_dtype", lambda bound: dtypes.append(real(bound)) or dtypes[-1])
    return attractor._bounding_box_exact.__wrapped__(System.of(matrix, shifts)), dtypes


#: Its bound max ||P^j||_inf * max|s| is 1.9e18 with the 12 residue digits
#: (int64) and 9.5e18 with them times 5 (past INT64_SAFE, so object).
STEEP_M = ((34, -96, 0), (12, -34, 0), (0, 0, 3))
STEEP_D = residue_system(STEEP_M)


@settings(max_examples=80, deadline=None)
@given(digit_systems(), st.booleans(), st.booleans())
@example((STEEP_M, STEEP_D), False, False)
@example((STEEP_M, tuple(tuple(5 * x for x in r) for r in STEEP_D)), False, False)
def test_bounding_box_matches_level_reference(system, differences, small_int64):
    m, digits = system
    if differences:
        digits = [tuple(b - a for a, b in zip(x, y)) for x in digits for y in digits]
    shifts = tuple(sorted(set(digits)))
    with pytest.MonkeyPatch.context() as mp:
        if small_int64:
            mp.setattr(attractor, "INT64_SAFE", 1)
        box, dtypes = _box_dtypes(mp, m, shifts)
    ref, bound = _reference_box(m, shifts)
    assert repr(box) == repr(ref)
    assert dtypes == [object if bound >= (1 if small_int64 else attractor.INT64_SAFE)
                      else np.int64]


#: Small entries, or entries anywhere in [-2^64, 2^64].
_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-(2 ** 64), 2 ** 64))


def _nested(shape):
    """Nested lists of _ENTRIES with the given shape."""
    if not shape:
        return _ENTRIES
    return st.lists(_nested(shape[1:]), min_size=shape[0], max_size=shape[0])


def _check_int_result(out, want, bound, guard):
    """Values, dtype and the int64 magnitude invariant of a helper's result."""
    assert out.tolist() == want
    assert out.dtype == (object if bound >= guard else np.int64)
    if out.dtype == np.int64:
        assert all(abs(x) < attractor.INT64_SAFE for x in out.ravel().tolist())


@settings(max_examples=150, deadline=None)
@given(data=st.data(), patched=st.booleans())
def test_int_helpers_match_python_int_reference(data, patched):
    n, d, k = (data.draw(st.integers(1, 4)) for _ in range(3))
    rows, matrix = data.draw(_nested((n, d))), data.draw(_nested((k, d)))
    offsets = data.draw(st.none() | _nested((data.draw(st.integers(1, 3)), k)))
    # Rows also come as arrays: object, and int64 when every entry fits.
    forms = [rows, np.array(rows, dtype=object)]
    if all(abs(x) < 2 ** 63 for r in rows for x in r):
        forms.append(np.array(rows, dtype=np.int64))
    prod = [[sum(a * b for a, b in zip(r, c)) for c in matrix] for r in rows]
    bound = max(1, *(abs(x) for r in rows for x in r)) * max(sum(map(abs, c)) for c in matrix)
    if offsets is None:
        want = prod
    else:
        want = [[[p + o for p, o in zip(row, off)] for off in offsets] for row in prod]
        bound += max(abs(x) for r in offsets for x in r)
    with pytest.MonkeyPatch.context() as mp:
        if patched:
            mp.setattr(attractor, "INT64_SAFE", 1)
        guard = attractor.INT64_SAFE
        for form in forms:
            _check_int_result(attractor._int_product(form, matrix, offsets), want, bound, guard)
        for values in (rows, rows[0], rows[0][0]):
            flat = np.ravel(np.array(values, dtype=object)).tolist()
            _check_int_result(attractor._int_array(values), values,
                              max(map(abs, flat)), guard)


def test_int_product_reads_rows_past_int64_under_a_zero_matrix():
    # The bound is 0, so the product is int64, though the rows do not fit int64.
    out = attractor._int_product([[2 ** 63]], [[0]])
    assert out.tolist() == [[0]] and out.dtype == np.int64


@pytest.mark.parametrize("matrix, shifts", [
    (((5, 2 ** 40), (0, 5)), tuple((a, b) for a in range(5) for b in range(5))),
    (((2,),), ((0,), (2 ** 62,))),
], ids=["shear-2^40", "shift-2^62"])
def test_bounding_box_past_int64_matches_level_reference(monkeypatch, matrix, shifts):
    box, dtypes = _box_dtypes(monkeypatch, matrix, shifts)
    assert repr(box) == repr(_reference_box(matrix, shifts)[0])
    assert dtypes == [object]


def test_non_tile_radius_is_exactly_modulus():
    # the power iteration reads 4.0000000004... here, above the proven bound
    box = BoxForm((1, 4, 1), 1)
    digits = tuple(tuple(5 * x for x in v) for v in box_digits(box))
    report = tile_check_exact(build_cyclic_matrix(box), digits)
    assert not report.is_tile
    assert report.spectral_radius == 4.0 <= report.modulus


def _reference_contact(m, digits):
    """States and counts pruned from the integer points of box(D - D series)."""
    diffs = {}
    for a in digits:
        for b in digits:
            delta = tuple(y - x for x, y in zip(a, b))
            diffs[delta] = diffs.get(delta, 0) + 1
    lo, hi = bounding_box(m, list(diffs))
    ranges = [range(math.ceil(x), math.floor(y) + 1) for x, y in zip(lo, hi)]
    succ = {k: [(tuple(map(sum, zip(mat_vec(m, k), delta))), n) for delta, n in diffs.items()]
            for k in itertools.product(*ranges) if any(k)}
    states = set(succ)
    while True:
        keep = {k for k in states if any(s in states for s, _ in succ[k])}
        if keep == states:
            break
        states = keep
    order = sorted(states)
    index = {k: i for i, k in enumerate(order)}
    counts = [[0] * len(order) for _ in order]
    for i, k in enumerate(order):
        for s, n in succ[k]:
            if s in index:
                counts[i][index[s]] += n
    return tuple(order), tuple(map(tuple, counts))


@settings(max_examples=60, deadline=None)
@given(digit_systems())
def test_contact_window_from_digit_box(system):
    m, digits = system
    lo, hi = bounding_box(m, [tuple(b - a for a, b in zip(x, y)) for x in digits for y in digits])
    assume(math.prod(float(h - l) + 1 for l, h in zip(lo, hi)) <= 500)
    contact = contact_matrix(m, digits)
    states, counts = _reference_contact(m, digits)
    assert (contact.states, contact.counts.tolist()) == (states, list(map(list, counts)))


def test_contact_matrix_large_window_matches_reference():
    # The 3-D box form (1, 4, 1) with digits times 5: a 1330-state non-tile.
    box = BoxForm((1, 4, 1), 1)
    m = build_cyclic_matrix(box)
    digits = tuple(tuple(5 * x for x in v) for v in box_digits(box))
    contact = contact_matrix(m, digits)
    states, counts = _reference_contact(m, digits)
    assert len(contact) == 1330
    assert contact.states == states
    assert contact.counts.tolist() == list(map(list, counts))
    assert contact.counts.dtype == np.int64 and not contact.counts.flags.writeable
    assert contact.counts.sum(axis=0).max() <= abs(det(m))
    assert [a.dtype for a in contact.edges] == [np.dtype(np.int64)] * 3


def test_contact_matrix_past_int64_takes_python_ints(monkeypatch):
    box = BoxForm((1, 1, 2), 1)
    cases = [(DRAGON_M, DRAGON_D), (((2,),), ((0,), (3,))),
             (build_cyclic_matrix(box), box_digits(box))]
    expected = [contact_matrix(m, digits) for m, digits in cases]
    dtypes = set()
    real_ravel = attractor._ravel

    def ravel(rows, lo, span):
        dtypes.add(rows.dtype)
        return real_ravel(rows, lo, span)

    monkeypatch.setattr(attractor, "_ravel", ravel)
    monkeypatch.setattr(attractor, "INT64_SAFE", 2)
    for (m, digits), want in zip(cases, expected):
        got = contact_matrix(m, digits)
        assert got.states == want.states
        assert got.counts.dtype == np.int64
        assert got.counts.tolist() == want.counts.tolist()
    assert dtypes == {np.dtype(object)}


def test_contact_matrix_counts_row_total():
    # every row's total multiplicity is at most m^2 (all digit pairs)
    contact = contact_matrix([[2]], ((0,), (3,)))
    for row in contact.counts:
        assert sum(row) <= 4


def _reference_ranges(m, shifts, level):
    """The unit-cell cover as one interval product per level cell, in Python
    ints: each cell's per-axis ranges."""
    d = len(m)
    lo, hi = bounding_box(m, shifts)
    sn, q = inverse_power(m, level)
    r = math.lcm(*(x.denominator for x in (*lo, *hi)))
    blo, bhi = [int(x * r) for x in lo], [int(x * r) for x in hi]
    products = []
    for c in approximate(m, shifts, level).cells:
        ranges = []
        for i in range(d):
            base = sum(sn[i][j] * c[j] for j in range(d)) * r
            lo_num = base + sum(a * (b if a >= 0 else t) for a, b, t in zip(sn[i], blo, bhi))
            hi_num = base + sum(a * (t if a >= 0 else b) for a, b, t in zip(sn[i], blo, bhi))
            # least g with g + 1 > lo through the greatest g with g < hi
            ranges.append(range(lo_num // (q * r), (hi_num - 1) // (q * r) + 1))
        products.append(ranges)
    return products


def _clear_cell_memos():
    for memo in (attractor._level, attractor._unit_cell_cover, attractor._bounding_box_exact):
        memo.cache_clear()


@settings(max_examples=40, deadline=None)
@given(digit_systems(), st.sampled_from([1, 2, 3]), st.booleans())
def test_unit_cell_cover_matches_per_cell_reference(system, level, patched):
    m, digits = system
    products = _reference_ranges(m, digits, level)
    budget = attractor.max_cells_budget()
    # The program's grid holds at least these candidates, so a draw skipped here
    # is one the program refuses too.
    assume(sum(math.prod(map(len, ranges)) for ranges in products) <= budget)
    grid = len(products) * math.prod(max(len(ranges[i]) for ranges in products)
                                     for i in range(len(m)))
    with pytest.MonkeyPatch.context() as mp:
        if patched:
            mp.setattr(attractor, "INT64_SAFE", 1)
        _clear_cell_memos()
        try:
            if grid > budget:
                with pytest.raises(ResourceLimitError, match="the unit-cell cover"):
                    unit_cell_cover(m, digits, level)
                return
            got = unit_cell_cover(m, digits, level)
        finally:
            _clear_cell_memos()
    assert got == tuple(sorted({g for ranges in products for g in itertools.product(*ranges)}))
    if patched:
        assert got._points.dtype == object


def test_unit_cell_cover_grid_past_the_budget_is_refused():
    # 12 level-1 cells times a largest per-axis range product of about 78M: the
    # candidate grid would hold 932,219,664 rows, and none is allocated.
    m = [[0, -6, 10], [15, -12, 18], [9, -8, 12]]
    digits = [(-15, -30, -20), (-15, -5, -5), (-15, 20, 10), (0, 0, 0), (0, 25, 15),
              (0, 50, 30), (10, 15, 10), (10, 40, 25), (10, 65, 40), (25, 45, 30),
              (25, 70, 45), (25, 95, 60)]
    with pytest.raises(ResourceLimitError, match="the unit-cell cover needs up to 932219664 cells"):
        unit_cell_cover(m, digits, 1)


def test_cell_sets_are_read_only_views():
    cover = unit_cell_cover(DRAGON_M, DRAGON_D)
    contact = contact_matrix(DRAGON_M, DRAGON_D)
    for view in (cover, contact.states):
        assert isinstance(view, attractor.CellView)
        assert not view._points.flags.writeable
    # Equality and hashing use the states, whether a view or a tuple holds them.
    twin = attractor.ContactMatrix(states=tuple(contact.states), edges=contact.edges)
    assert contact == twin and twin == contact and hash(contact) == hash(twin)
    assert contact != contact_matrix(DRAGON_M, ((0, 0), (3, 0)))


def test_cells_match_bruteforce_digit_strings():
    # the frontier construction equals plain enumeration of all |S|^K strings
    import itertools as it
    for m, shifts in [([[2]], ((0,), (3,))), (DRAGON_M, DRAGON_D)]:
        depth = 5
        a = approximate(m, shifts, depth)
        dim = a.dim
        brute = set()
        for string in it.product(a.shifts, repeat=depth):
            acc = tuple([0] * dim)
            for s in string:
                acc = tuple(
                    sum(a.matrix[i][j] * acc[j] for j in range(dim)) + s[i]
                    for i in range(dim))
            brute.add(acc)
        assert set(a.cells) == brute


def test_cells_always_distinct_mod_mk_for_residue_digits():
    # expansion cells of any residue digit system enumerate Z/M^K Z exactly
    # once, tile or not ({0,3} covers in three layers yet is residue-distinct)
    for digits in [((0,), (1,)), ((0,), (3,)), ((0,), (5,))]:
        a = approximate([[2]], digits, 6)
        residues = {z[0] % 64 for z in a.cells}
        assert len(residues) == len(a.cells) == 64


def _reference_cells(m, shifts, depth):
    """sorted of the iterated set {M z + s}, one cell at a time.

    Real data follow the per-cell float route: M z as a float matrix-vector
    product, then round(y_i + s_i, 12) on the numpy scalars.
    """
    level = {tuple([0] * len(m))}
    mat = np.array(m, dtype=float)
    for _ in range(depth):
        if all(isinstance(x, int) for v in (*m, *shifts) for x in v):
            level = {tuple(y + x for y, x in zip(mat_vec(m, z), s))
                     for z in level for s in shifts}
        else:
            level = {tuple(round(y + x, 12) for y, x in zip(mat @ np.array(z, dtype=float), s))
                     for z in level for s in shifts}
    return tuple(sorted(level))


@settings(max_examples=80, deadline=None)
@given(system=digit_systems(), data=st.data())
def test_cells_match_iterated_set_reference(system, data):
    m, digits = system
    top = int(math.log(5000) / math.log(abs(det(m))))
    depth = data.draw(st.integers(1, max(top, 1)))
    a = approximate(m, digits, depth)
    assert a.cells == _reference_cells(a.matrix, a.shifts, depth)
    assert a.points.dtype == np.int64 and not a.points.flags.writeable


def test_cells_past_int64_take_python_ints():
    # entries beyond 2^63 leave int64 for Python ints in an object array
    m = ((5, 2 ** 62), (0, 5))
    digits = tuple((a, b) for a in range(5) for b in range(5))
    a = approximate(m, digits, 3)
    assert a.points.dtype == object and not a.points.flags.writeable
    assert len(a.cells) == 25 ** 3
    assert max(abs(x) for z in a.cells for x in z) > 2 ** 63
    assert a.cells == _reference_cells(m, digits, 3)
    # int64 levels that later leave the range, and int64 cells whose key box
    # is too large for int64 keys
    wide = ((0, 0), (2 ** 31 + 1, 0), (0, 2 ** 31 + 1), (1, 1))
    for m, shifts, depth in [(((2,),), ((0,), (2 ** 60,)), 5), (((2, 0), (0, 2)), wide, 3)]:
        assert approximate(m, shifts, depth).cells == _reference_cells(m, shifts, depth)


def test_touched_cells_past_int64_are_translates():
    # digits moved by c move the depth-K touched cells by c * 2^K exactly
    c = 2 ** 62
    for digits in [((0,), (1,)), ((0,), (3,))]:
        moved = tuple((x + c,) for (x,) in digits)
        assert approximate([[2]], moved, 6).points.dtype == object
        assert (attractor.touched_cells([[2]], moved, 6)
                == {(x + c * 2 ** 6,) for (x,) in attractor.touched_cells([[2]], digits, 6)})


def test_real_shift_cells_match_reference():
    m = ((1, 1), (-1, 1))
    shifts = ((0.1, 0.2), (1.1, -0.3), (0.0, 0.7))
    for depth in range(1, 7):
        a = approximate(m, shifts, depth)
        assert a.points.dtype == float and not a.points.flags.writeable
        assert a.cells == _reference_cells(m, a.shifts, depth)


def _point_in_1d_attractor(m, digits, x, reach):
    """Exact membership of a rational in the 1-D attractor.

    x lies in G iff an infinite admissible expansion path exists:
    y -> m*y - d staying inside [0, reach].  Reachable states have bounded
    denominators and values, so the graph is finite and the greatest fixed
    point (states that keep a successor) decides membership exactly.
    """
    if x < 0 or x > reach:
        return False
    seen = set()
    frontier = {x}
    while frontier:
        seen |= frontier
        nxt = set()
        for y in frontier:
            for d in digits:
                z = m * y - d
                if 0 <= z <= reach and z not in seen:
                    nxt.add(z)
        frontier = nxt
    states = set(seen)
    while True:
        keep = {y for y in states
                if any(0 <= m * y - d <= reach and (m * y - d) in states
                       for d in digits)}
        if keep == states:
            break
        states = keep
    return x in states


def _layers_at(m, digits, x):
    reach = Fraction(max(digits), m - 1)
    lo_t = -int(reach) - 2
    hi_t = int(reach) + 2
    return sum(1 for t in range(lo_t, hi_t + 1)
               if _point_in_1d_attractor(m, digits, x - t, reach))


def test_tile_check_agrees_with_1d_point_oracle():
    """Contact criterion vs an exact independent oracle on 1-D attractors.

    For every valid 1-D digit set with m <= 4 and digits <= 12, the number
    of closed integer translates of G containing a point is decided exactly
    by the expansion-path automaton.  The count is at least the measure
    everywhere and equal to it off a null set (points inside measure-zero
    overlaps of closed translates overcount), so the minimum over seeded
    sample points is the measure, and the system is a tile exactly when
    that minimum is one.
    """
    import itertools as it

    rng = random.Random(99)
    systems = []
    for m in (2, 3, 4):
        classes = [[x for x in range(1, 13) if x % m == r] for r in range(1, m)]
        for combo in it.product(*classes):
            systems.append((m, tuple(sorted((0,) + combo))))
    assert len(systems) == 6 + 16 + 27
    for m, digits in systems:
        mu = min(_layers_at(m, digits, Fraction(rng.randrange(1, 193), 193))
                 for _ in range(7))
        report = tile_check_exact([[m]], [(d,) for d in digits])
        assert not report.indeterminate, (m, digits)
        assert report.is_tile == (mu == 1), (m, digits, mu, report.spectral_radius)


# ---------------------------------------------------------------------------
# self-similarity and layers
# ---------------------------------------------------------------------------

def test_residual_zero_for_integer_systems():
    assert self_similarity_residual(approximate([[2]], [(0,), (1,)], 8)) == 0.0
    assert self_similarity_residual(approximate([[2]], [(0,), (3,)], 8)) == 0.0


def test_residual_dragon_small():
    assert self_similarity_residual(approximate(DRAGON_M, DRAGON_D, 10)) < 0.05


def test_residual_real_shifts_small():
    a = approximate([[2.0]], [(0.0,), (0.7,)], 8)
    assert self_similarity_residual(a) < 0.05


def test_residual_needs_depth_two():
    with pytest.raises(ValueError):
        self_similarity_residual(approximate([[2]], [(0,), (1,)], 1))


def _set_residual(approx):
    """The residual by Python sets of cell tuples, the reference formula."""
    side1 = set(approx.cells)
    prev = approximate(approx.matrix, approx.shifts, approx.depth - 1)
    d = approx.dim
    if approx.is_integer:
        mk = lattice.mat_pow(approx.matrix, approx.depth - 1)
        lead = [mat_vec(mk, s) for s in approx.shifts]
        side2 = {tuple(z[i] + t[i] for i in range(d)) for z in prev.cells for t in lead}
    else:
        mk = np.linalg.matrix_power(np.array(approx.matrix, float), approx.depth - 1)
        lead = [mk @ np.array(s, float) for s in approx.shifts]
        side2 = {tuple(round(z[i] + t[i], 12) for i in range(d))
                 for z in prev.cells for t in lead}
    return len(side1 ^ side2) / len(side1 | side2)


def _altered(approx, extra):
    """`approx` with every seventh cell left out and the rows `extra` added."""
    kept = np.delete(approx.points, np.s_[::7], axis=0)
    points = np.array(sorted(set(map(tuple, kept.tolist())) | set(extra)), dtype=object)
    return attractor.AttractorApprox(matrix=approx.matrix, shifts=approx.shifts,
                                     depth=approx.depth, points=points, is_integer=True)


def test_residual_matches_set_formula():
    dragon = approximate(DRAGON_M, DRAGON_D, 12)
    wide = approximate([[2]], [(0,), (2 ** 62,)], 5)
    cases = [dragon, _altered(dragon, [(1000, 1000), (-3, 5)]), wide,
             _altered(wide, [(-1,), (2 ** 70,)]),
             approximate(DRAGON_M, ((0.1, 0.2), (1.1, -0.3), (0.0, 0.7)), 6)]
    for approx in cases:
        assert self_similarity_residual(approx) == _set_residual(approx)
    assert self_similarity_residual(cases[1]) > 0 and self_similarity_residual(cases[3]) > 0


def test_layers_unit_interval_all_one():
    hist = shift_cover_layers(approximate([[2]], [(0,), (1,)], 8))
    assert hist == {1: 256}


def test_layers_three_interval_dominant_three():
    hist = shift_cover_layers(approximate([[2]], [(0,), (3,)], 8))
    assert max(hist, key=hist.get) == 3
    assert hist[3] >= 0.9 * sum(hist.values())


def test_layers_off_residue_systems_take_the_unit_cell_cover():
    # {0, 2} is no residue system mod 2 and {0, 1} none mod 3: no tile report is
    # read, and the cells are counted with the unit-cell cover.
    assert shift_cover_layers(approximate([[2]], [(0,), (2,)], 6)) == {2: 62, 3: 2}
    stand_in = attractor._stand_in_cover(System.of([[3]], [(0,), (1,)]))
    assert attractor.CellView(stand_in) == unit_cell_cover([[3]], [(0,), (1,)])


def test_layers_dragon_dominant_one():
    hist, per = shift_cover_layers(approximate(DRAGON_M, DRAGON_D, 12), per_cell=True)
    total = sum(hist.values())
    assert max(hist, key=hist.get) == 1
    deviating = sum(v for k, v in hist.items() if k != 1)
    assert deviating / total < 0.10
    # deviations confined to non-interior cells
    for cell, layers in per.items():
        neighborhood = [tuple(cell[i] + d[i] for i in range(2))
                        for d in [(-1, 0), (1, 0), (0, -1), (0, 1)]]
        if all(per.get(n, layers) == layers for n in neighborhood):
            if layers != 1:
                # interior deviation would be a failure
                pytest.fail(f"interior cell {cell} has {layers} layers")


def test_layers_window_too_small():
    with pytest.raises(ValueError):
        shift_cover_layers(approximate([[2]], [(0,), (1,)], 2), window=((0, 0),))


def test_layers_past_int64_take_python_ints(monkeypatch):
    cases = [(((2,),), ((0,), (3,)), 8), (DRAGON_M, DRAGON_D, 10),
             (DRAGON_M, ((0, 0), (3, 0)), 6)]
    expected = [shift_cover_layers(approximate(m, d, k), window=((-1, 1),) * len(m),
                                   per_cell=True) for m, d, k in cases]
    monkeypatch.setattr(attractor, "INT64_SAFE", 2)
    # The layers are memoized: recompute them under the patched guard.
    attractor._cover_layers.cache_clear()
    try:
        for (m, d, k), want in zip(cases, expected):
            assert shift_cover_layers(approximate(m, d, k), window=((-1, 1),) * len(m),
                                      per_cell=True) == want
    finally:
        attractor._cover_layers.cache_clear()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=30),
       st.lists(st.tuples(st.integers(-25, 25), st.integers(-25, 25)), min_size=1, max_size=60),
       st.sampled_from([0, 2 ** 62, -(2 ** 70)]))
def test_has_cells_matches_set_membership(points, rows, c):
    # c = 0 keeps int64 keys; the other offsets push the key box past INT64_SAFE.
    dtype = np.int64 if c == 0 else object
    table = attractor._cover_keys(np.array([(x + c, y + c) for x, y in points], dtype=dtype),
                                  [(0, 0)])
    got = attractor._has_cells(table, np.array([(x + c, y + c) for x, y in rows], dtype=dtype))
    assert got.tolist() == [r in set(points) for r in rows]
    if c:
        # int64 rows far from the key box are never cells
        assert not attractor._has_cells(table, np.array(rows, dtype=np.int64)).any()


# ---------------------------------------------------------------------------
# rasterize
# ---------------------------------------------------------------------------

def test_rasterize_unit_interval():
    r = rasterize(approximate([[2]], [(0,), (1,)], 6), 8)
    occupied = r.occupied()
    assert len(occupied) == 8


def test_rasterize_dragon_area():
    # at resolution 256 and depth 16 the mapped cells are exactly the
    # 1/256-grid points of the attractor, one per raster cell: area 1.0
    r = rasterize(approximate(DRAGON_M, DRAGON_D, 16), 256)
    assert r.occupied_count == 2 ** 16
    area = r.occupied_count / 256 ** 2
    assert abs(area - 1.0) <= 0.10


def test_rasterize_rect_axis_box():
    r = rasterize(approximate(RECT_M, RECT_D, 12), 32)
    occ = np.argwhere(r.occupancy > 0)
    lo = occ.min(axis=0)
    hi = occ.max(axis=0)
    # occupied region is a filled axis box up to a one-cell rim
    box_cells = np.prod(hi - lo + 1)
    assert r.occupied_count >= box_cells - 2 * (hi - lo + 1).sum()
    assert abs(r.occupied_count / 32 ** 2 - 1.0) < 0.15


def test_rasterize_refinement_overlay():
    # raster at depth K equals the union of the one-step-mapped rasters of
    # depth K-1 shifted by each digit (the refinement identity), up to
    # boundary cells
    box = bounding_box(DRAGON_M, DRAGON_D)
    fine = rasterize(approximate(DRAGON_M, DRAGON_D, 11), 32, box=box)
    coarse = approximate(DRAGON_M, DRAGON_D, 10)
    overlay = set()
    minv = np.linalg.inv(np.array(DRAGON_M, float))
    a = np.linalg.matrix_power(minv, 10)
    lo = np.array([float(x) for x in box[0]])
    for s in DRAGON_D:
        for z in coarse.cells:
            x = minv @ (a @ np.array(z, float) + np.array(s, float))
            idx = tuple(np.floor((x - lo) * 32).astype(int))
            overlay.add(idx)
    occupied = set(fine.occupied())
    sym = len(occupied ^ overlay)
    assert sym / len(occupied | overlay) < 0.08


def test_rasterize_bad_resolution():
    with pytest.raises(ValueError):
        rasterize(approximate([[2]], [(0,), (1,)], 3), 0)


@pytest.mark.parametrize("matrix, shifts, depth, resolution", [
    ([[2]], [[0], [0.5]], 8, 32),
    ([[3]], [[0], [1.25], [2]], 5, 27),
    ([[1, 1], [-1, 1]], [[0, 0], [1, 0.5]], 10, 16),
    ([[2, 0.5], [0, 2]], [[0, 0], [0.5, 0], [0, 1], [1, 1.5]], 5, 16),
    ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [[0, 0, 0], [1, 0.5, 0], [0, 1, 0.25]], 4, 8),
], ids=["1d", "1d-three", "2d", "2d-real-matrix", "3d"])
def test_rasterize_real_shifts_match_per_cell_loop(matrix, shifts, depth, resolution):
    approx = approximate(matrix, shifts, depth)
    r = rasterize(approx, resolution)
    a = np.linalg.matrix_power(np.linalg.inv(np.array(approx.matrix, float)), depth)
    lo = np.array([float(x) for x in r.origin])
    want = np.zeros(r.extent, dtype=np.int64)
    for z in approx.cells:
        idx = np.floor((a @ np.array(z, float) - lo) * resolution).astype(int)
        want[tuple(np.clip(idx, 0, np.array(r.extent) - 1))] += 1
    assert np.array_equal(r.occupancy, want)


def test_grid_indices_reject_bad_resolution():
    with pytest.raises(ValueError):
        attractor.grid_indices(approximate([[2]], [(0,), (1,)], 3), 0, (0,))


class _RowlessPoints:
    """A cell array stand-in that has a length but refuses to build rows."""

    def __len__(self):
        return 7

    def tolist(self):
        raise AssertionError("rows were built")


def test_cells_view_is_a_lazy_sequence():
    assert len(attractor.CellView(_RowlessPoints())) == 7
    for a in [approximate([[2]], [(0,), (3,)], 3),
              approximate(DRAGON_M, [(0.0, 0.5), (1.0, 0.0)], 3),
              approximate([[5, 2 ** 62], [0, 5]], [(a, b) for a in range(5) for b in range(5)], 1)]:
        cells = tuple(map(tuple, a.points.tolist()))
        assert len(a.cells) == len(a.points) == len(cells)
        assert a.cells == cells and cells == a.cells and a.cells == a.cells
        assert a.cells != cells[:-1] and a.cells != list(cells)
        assert (a.cells[0], a.cells[-1], a.cells[1:3]) == (cells[0], cells[-1], cells[1:3])
        assert list(a.cells) == list(cells) and cells[-1] in a.cells
        assert a.to_json()["cells"] == [list(z) for z in cells]


def test_approx_to_json_roundtrip():
    import json
    a = approximate(DRAGON_M, DRAGON_D, 3)
    blob = json.loads(json.dumps(a.to_json()))
    assert blob["depth"] == 3
    assert sorted(map(tuple, blob["cells"])) == list(a.cells)
    rebuilt = approximate(blob["matrix"], blob["shifts"], blob["depth"])
    assert rebuilt.cells == a.cells
