"""Hyperplane bases, wavelet systems, exact and raster inner products."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tileforge import attractor, haar
from tileforge.attractor import approximate
from tileforge.boxtile import BoxForm, box_digits, build_cyclic_matrix
from tileforge.cli import main
from tileforge.haar import (
    build_wavelets,
    evaluate,
    exact_gram,
    exact_inner,
    hyperplane_basis,
    inner_product,
    raster_gram,
    shift_orthonormality,
    wavelet_mean,
)
from tileforge.lattice import System, mat_pow, mat_vec

DRAGON_M = ((1, 1), (-1, 1))
DRAGON_D = ((0, 0), (1, 0))


def test_basis_m2():
    b = hyperplane_basis(2)
    assert b.vectors == ((1 / math.sqrt(2), -1 / math.sqrt(2)),)


def test_basis_m3():
    b = hyperplane_basis(3)
    v1, v2 = b.vectors
    assert v1 == (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
    assert np.allclose(v2, (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6)))


@pytest.mark.parametrize("m", [2, 3, 4, 7, 12])
def test_basis_orthonormal_and_zero_sum(m):
    b = hyperplane_basis(m)
    arr = np.array(b.vectors)
    assert np.max(np.abs(arr @ arr.T - np.eye(m - 1))) < 1e-12
    assert np.max(np.abs(arr.sum(axis=1))) < 1e-12
    # integer backbone is exact
    for row in b.integer_rows:
        assert sum(row) == 0
    # sign convention: first nonzero coordinate positive
    for v in b.vectors:
        first = next(x for x in v if x != 0)
        assert first > 0


def test_basis_rejects_m1():
    with pytest.raises(ValueError):
        hyperplane_basis(1)


def test_classic_haar_pieces():
    system = build_wavelets([[2]], [(0,), (1,)])
    assert system.pieces == (((0, 1.0), (1, -1.0)),)


def test_rect_wavelet_coefficients():
    # sqrt(2) * (+-1/sqrt(2)) = +-1 on the two half-rectangle pieces
    system = build_wavelets([[0, -2], [1, 0]], [(0, 0), (1, 0)])
    assert system.generator_count == 1
    coeffs = [c for _, c in system.pieces[0]]
    assert coeffs == [1.0, -1.0]


def test_box12_system_shape():
    form = BoxForm((3, 2, 2), 1)
    system = build_wavelets(build_cyclic_matrix(form), box_digits(form))
    assert system.generator_count == 11
    assert all(len(row) == 12 for row in system.pieces)


def test_wavelet_coefficients_sum_to_zero():
    for m, d in [(((2,),), ((0,), (1,))), (DRAGON_M, DRAGON_D)]:
        system = build_wavelets(m, d)
        for s in range(1, system.generator_count + 1):
            assert wavelet_mean(system, s) == 0
            assert abs(math.fsum(c for _, c in system.pieces[s - 1])) < 1e-12


def test_build_rejects_mismatched_basis():
    with pytest.raises(ValueError):
        build_wavelets([[2]], [(0,), (1,)], hyperplane_basis(3))
    with pytest.raises(ValueError):
        build_wavelets([[2]], [(0,), (2,)])


def test_haar_system_keeps_its_matrix_and_the_digits_of_its_system():
    wavelets = build_wavelets([[1, 1.0], [-1, 1]], [(1, 0), (0, 0)])
    assert wavelets.matrix == DRAGON_M and wavelets.digits == ((1, 0), (0, 0))
    assert wavelets.system is System.of(DRAGON_M, DRAGON_D)
    # Built directly, it makes its System from the matrix and digits.
    again = haar.HaarSystem(matrix=DRAGON_M, digits=wavelets.digits, basis=wavelets.basis,
                            pieces=wavelets.pieces)
    assert again == wavelets and again.system == wavelets.system
    # Digits other than those of a System passed in are refused, not swapped in.
    for digits in [((0, 0), (3, 0)), ((0, 0), (1, 0), (2, 0))]:
        with pytest.raises(ValueError, match="differ"):
            build_wavelets(System.of(DRAGON_M, DRAGON_D), digits)
    with pytest.raises(ValueError, match="differ"):
        build_wavelets(System.of(DRAGON_M), DRAGON_D)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def test_exact_inner_classic():
    system = build_wavelets([[2]], [(0,), (1,)])
    assert exact_inner(system, 1, 1) == 1
    assert exact_inner(system, 1, 0) == 0
    assert exact_inner(system, 0, 0) == 1


def test_exact_gram_identity_m3():
    system = build_wavelets([[3]], [(0,), (1,), (2,)])
    g = exact_gram(system)
    for s in range(2):
        for t in range(2):
            assert g[s][t] == (Fraction(1) if s == t else Fraction(0))


def test_exact_gram_identity_box12():
    form = BoxForm((3, 2, 2), 1)
    system = build_wavelets(build_cyclic_matrix(form), box_digits(form))
    g = exact_gram(system)
    n = system.generator_count
    assert all(g[s][t] == (1 if s == t else 0) for s in range(n) for t in range(n))


def test_inner_product_auto_routes():
    box_sys = build_wavelets([[2]], [(0,), (1,)])
    assert inner_product(box_sys, 1, 1) == 1  # exact route
    dragon_sys = build_wavelets(DRAGON_M, DRAGON_D)
    val = inner_product(dragon_sys, 1, 1, resolution=64, depth=12)
    assert abs(val - 1.0) < 0.1


def test_auto_route_needs_a_box_tile(capsys):
    # [[2]] with {0,3} generates the certified box [0,3], of measure 3: not a
    # tile, so its Gram matrix is not the identity
    system = build_wavelets([[2]], [(0,), (3,)])
    assert not haar._is_box_system(system)
    assert haar._is_box_system(build_wavelets([[2]], [(0,), (1,)]))
    assert main(["haar", "gram", "--matrix", "[[2]]", "--digits", "[[0],[3]]",
                 "--resolution", "32", "--depth", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["method"] != "exact"


def test_raster_gram_dragon():
    system = build_wavelets(DRAGON_M, DRAGON_D)
    gram, edge_fraction = raster_gram(system, resolution=128, depth=16)
    assert np.max(np.abs(gram - np.eye(1))) < 0.05
    assert 0 <= edge_fraction <= 1


def test_raster_gram_matches_exact_for_interval():
    system = build_wavelets([[2]], [(0,), (1,)])
    gram, _ = raster_gram(system, resolution=64, depth=10)
    assert abs(gram[0][0] - 1.0) < 0.05


def test_raster_scaling_inner_product():
    # <psi, chi_G> cancels to zero under quadrature as well
    system = build_wavelets([[2]], [(0,), (1,)])
    val = inner_product(system, 1, 0, method="raster", resolution=64, depth=10)
    assert abs(val) < 0.05


def test_evaluate_classic_haar():
    # psi = chi_[0, 1/2) - chi_[1/2, 1)
    system = build_wavelets([[2]], [(0,), (1,)])
    assert evaluate(system, 1, (0.25,)) == 1.0
    assert evaluate(system, 1, (0.75,)) == -1.0
    assert evaluate(system, 1, (1.5,)) == 0.0
    assert evaluate(system, 1, (-0.25,)) == 0.0


def test_evaluate_rect_halves():
    system = build_wavelets([[0, -2], [1, 0]], [(0, 0), (1, 0)])
    # the two pieces carry values +1 and -1; sample deep inside each half
    vals = {evaluate(system, 1, (x, y), depth=10)
            for x in (-0.4, 0.1) for y in (-0.4, 0.1)}
    assert vals <= {1.0, -1.0, 0.0}
    assert 1.0 in vals and -1.0 in vals


def reference_pieces(matrix, digits, depth, num, den):
    """Piece of each point num / den by tuple sets of the expansion cells, -1 outside.

    x is claimed iff floor(M^(K+1) x) is a depth-(K+1) cell; its piece is the
    first digit d_k with that cell - M^K d_k among the depth-K cells.
    """
    fine = set(approximate(matrix, digits, depth + 1).cells)
    coarse = set(approximate(matrix, digits, depth).cells)
    mk1 = mat_pow(matrix, depth + 1)
    offsets = [mat_vec(mat_pow(matrix, depth), d) for d in digits]
    out = []
    for row in num:
        cell = tuple(x // den for x in mat_vec(mk1, row))
        out.append(-1 if cell not in fine else next(
            k for k, off in enumerate(offsets)
            if tuple(c - o for c, o in zip(cell, off)) in coarse))
    return out


BOX_NEG = (((0, 2), (3, 0)), ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)))
PIECE_SYSTEMS = {
    "twindragon": (DRAGON_M, DRAGON_D, 8),
    "box-neg6": (*BOX_NEG, 3),
    "three": (((2,),), ((0,), (3,)), 8),
}


@st.composite
def rational_points(draw, dim):
    den = draw(st.integers(1, 60))
    coord = st.integers(-3 * den, 3 * den)
    rows = draw(st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=40))
    return np.array(rows, dtype=np.int64), den


@pytest.mark.parametrize("int64_safe", [None, 64], ids=["int64", "object"])
@pytest.mark.parametrize("name", sorted(PIECE_SYSTEMS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pieces_match_reference_classifier(name, int64_safe, data):
    matrix, digits, depth = PIECE_SYSTEMS[name]
    num, den = data.draw(rational_points(len(matrix)))
    want = reference_pieces(matrix, digits, depth, num.tolist(), den)
    with pytest.MonkeyPatch.context() as mp:
        if int64_safe is not None:
            # Small enough that every level, key table and cell is held as Python ints.
            mp.setattr(attractor, "INT64_SAFE", int64_safe)
            haar._piece_tables.cache_clear()
            attractor._level.cache_clear()
        try:
            got = haar._pieces(System.of(matrix, digits), digits, depth, num, den)
            tables = haar._piece_tables(System.of(matrix, digits), depth)
            assert all(t[0].dtype == (np.int64 if int64_safe is None else object) for t in tables)
        finally:
            haar._piece_tables.cache_clear()
            attractor._level.cache_clear()
    assert got.tolist() == want


def test_shift_orthonormality_past_int64_takes_python_ints(monkeypatch):
    cases = [([[2]], [(0,), (3,)], 8), (DRAGON_M, DRAGON_D, 10),
             (DRAGON_M, ((0, 0), (3, 0)), 6)]
    expected = [shift_orthonormality(m, d, depth=k) for m, d, k in cases]
    monkeypatch.setattr(attractor, "INT64_SAFE", 2)
    assert [shift_orthonormality(m, d, depth=k) for m, d, k in cases] == expected


def test_scaling_consistency_raster():
    # || sqrt(m) psi(M x) ||_2 = || psi ||_2: quadrature over the halved
    # support reproduces the norm within boundary tolerance
    system = build_wavelets([[2]], [(0,), (1,)])
    h = 1.0 / 256
    total = sum((2 ** 0.5 * evaluate(system, 1, (Fraction(2) * Fraction(i * 2 + 1, 512),),
                                     depth=10)) ** 2 * h
                for i in range(256))
    assert abs(total - 1.0) < 0.05


# ---------------------------------------------------------------------------
# shift orthonormality
# ---------------------------------------------------------------------------

def test_shift_orthonormality_interval_exact_zero():
    assert shift_orthonormality([[2]], [(0,), (1,)], depth=10) == 0.0


def test_shift_orthonormality_dragon():
    assert shift_orthonormality(DRAGON_M, DRAGON_D, depth=16) < 0.05


def test_shift_orthonormality_three_interval():
    # overlap of [0,3] with [1,4] has measure 2; max deviation approaches 2
    dev = shift_orthonormality([[2]], [(0,), (3,)], depth=12)
    assert abs(dev - 2.0) < 0.01


def test_evaluate_at_denominator_past_int64():
    # The points are num / 2^70: small int64 products over a divisor past int64.
    system = build_wavelets([[2]], [(0,), (1,)])
    assert evaluate(system, 1, (Fraction(1, 2 ** 70),), depth=4) == 1.0
    assert evaluate(system, 1, (1 - Fraction(1, 2 ** 70),), depth=4) == -1.0
