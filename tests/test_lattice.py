"""Exact integer linear algebra: determinants, expansion, residues."""

import random

import numpy as np
import pytest
from test_scaled_map import inverse_fractions

from tileforge import lattice
from tileforge.lattice import (
    System,
    as_int_matrix,
    det,
    is_expanding,
    residue_of,
    residue_system,
    validate_digits,
)

DRAGON = ((1, 1), (-1, 1))
RECT = ((0, -2), (1, 0))
BOX12 = ((0, 3, 0), (0, 0, 2), (2, 0, 0))


def test_det_dragon():
    assert det(DRAGON) == 2


def test_det_identity():
    assert det([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1


def test_det_box12():
    assert det(BOX12) == 12


@pytest.mark.parametrize("matrix,expected", [
    (DRAGON, True),          # |lambda| = sqrt(2)
    ([[1, 0], [0, 2]], False),  # eigenvalue 1
    (RECT, True),            # |lambda| = sqrt(2)
    ([[2]], True),
    ([[1]], False),
    ([[-2]], True),
])
def test_is_expanding(matrix, expected):
    assert is_expanding(matrix) is expected


def test_det_bareiss_matches_cofactor_oracle():
    """Fraction-free determinant against brute-force cofactor expansion."""
    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert det(m) == cofactor_det(m)


def test_residue_of_diagonal():
    assert residue_of([[2, 0], [0, 2]], (3, 5)) == (1, 1)
    assert residue_of([[2, 0], [0, 2]], (0, 0)) == (0, 0)


def test_residue_of_rect_exhaustive_oracle():
    # (2,1) = M(1,-1) + (0,0), found by searching z over a small box
    m = RECT
    v = (2, 1)
    found = None
    for z1 in range(-4, 5):
        for z2 in range(-4, 5):
            mz = lattice.mat_vec(m, (z1, z2))
            r = (v[0] - mz[0], v[1] - mz[1])
            if r == residue_of(m, v):
                found = (z1, z2)
    assert residue_of(m, v) == (0, 0)
    assert found is not None


def test_residue_of_idempotent_and_translation_invariant():
    rng = random.Random(3)
    matrices = [DRAGON, RECT, BOX12, ((2, 0), (0, 2)), ((3,),)]
    for m in matrices:
        d = len(m)
        for _ in range(40):
            v = tuple(rng.randint(-20, 20) for _ in range(d))
            r = residue_of(m, v)
            assert residue_of(m, r) == r
            z = tuple(rng.randint(-5, 5) for _ in range(d))
            shifted = tuple(v[i] + x for i, x in enumerate(lattice.mat_vec(m, z)))
            assert residue_of(m, shifted) == r


def test_residue_system_diag2():
    assert residue_system([[2, 0], [0, 2]]) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_residue_system_scalar():
    assert residue_system([[2]]) == ((0,), (1,))


def test_residue_system_dragon():
    rs = residue_system(DRAGON)
    assert len(rs) == 2
    assert (0, 0) in rs


@pytest.mark.parametrize("matrix", [DRAGON, RECT, BOX12, ((2, 0), (0, 3)), ((-2,),)])
def test_residue_system_counts_and_validates(matrix):
    rs = residue_system(matrix)
    assert len(rs) == abs(det(matrix))
    assert validate_digits(matrix, rs)


def test_validate_digits():
    assert validate_digits([[2]], [(0,), (1,)])
    assert validate_digits(DRAGON, [(0, 0), (1, 0)])
    assert not validate_digits([[2]], [(0,), (2,)])       # both even
    assert not validate_digits([[2]], [(1,), (2,)])       # no zero
    assert not validate_digits([[2]], [(0,), (1,), (2,)])  # wrong count
    assert validate_digits([[2]], [(0,), (3,)])            # non-canonical, still valid
    assert not validate_digits([[2]], [(0,), (1,), (1,)])  # a repeated digit counts
    assert not validate_digits([[2]], [(0, 0), (1, 0)])    # wrong dimension
    assert not validate_digits([[2]], [(0,), (0.5,)])      # not integral
    with pytest.raises(ValueError):
        validate_digits([[2.5]], [(0,), (1,)])


def test_system_of_normalizes_once():
    system = System.of([[1.0, 1], [-1, np.int64(1)]], [[1, 0], (0.0, 0), [1, 0]])
    assert system.matrix == DRAGON and system.digits == ((0, 0), (1, 0))
    assert system.is_integer and type(system.matrix[0][0]) is int
    assert System.of(system) is system and System.of(DRAGON, [(0, 0), (1, 0)]) is system
    assert system.det == 2 and system.inverse == (((1, -1), (1, 1)), 2)
    assert system.is_residue_system and system.is_expanding
    assert system.array.tolist() == [[0, 0], [1, 0]] and not system.array.flags.writeable
    real = System.of([[2]], [(0,), (0.5,)])
    assert not real.is_integer and real.int_matrix and real.digits == ((0.0,), (0.5,))
    assert not real.is_residue_system and real.array.dtype == float
    # The exact |det| >= 2 test reads the matrix alone, whatever the digits.
    assert not System.of([[1]], [(0,), (0.5,)]).is_expanding
    assert not System.of([[1.5]], [(0,), (1,)]).int_matrix
    bare = System.of([[3]])
    assert bare.digits == () and bare.is_integer and bare.int_matrix and bare.det == 3
    for matrix, digits in [([[True]], [(0,)]), ([["2"]], [(0,)]), ([[2]], [("0",)]),
                           ([[2]], [(False,)]), ([[2, 0]], [(0,)]), ([], [(0,)]),
                           ([[2]], [(0, 0)]), ([[2]], [])]:
        with pytest.raises(ValueError):
            System.of(matrix, digits)
    for matrix, digits in [([[2 ** 63]], [(0,)]), ([[2]], [(0,), (-(2 ** 63),)]),
                           ([[2.0 ** 64]], [(0,)])]:
        with pytest.raises(OverflowError):
            System.of(matrix, digits)


def test_system_with_other_digits_is_refused():
    system = System.of([[2]], [(0,), (1,)])
    # Its own digits, in any order and with repeats, name the same System.
    assert System.of(system, [(1,), (0,), (0,)]) is system
    assert validate_digits(system, [[1], [0]]) and not validate_digits(system, [(1,), (0,), (0,)])
    for digits in ([(5,), (7,)], [(0,), (3,)], [(0,)], [(0,), (1,), (2,)], [(0,), (0.5,)]):
        with pytest.raises(ValueError, match="differ"):
            System.of(system, digits)
        with pytest.raises(ValueError, match="differ"):
            validate_digits(system, digits)
    # A bare System carries no digits, so none given with it are its own.
    with pytest.raises(ValueError, match="differ"):
        validate_digits(System.of([[2]]), [(0,), (1,)])


def test_as_int_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_int_matrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        as_int_matrix([[1.5, 0], [0, 1]])
    # Integral floats are integers, by the rules of System.of.
    assert as_int_matrix([[2.0, 0], [0, np.int64(1)]]) == ((2, 0), (0, 1))
    assert det([[2.0]]) == 2 and is_expanding([[2.0]])
    with pytest.raises(OverflowError):
        as_int_matrix([[2 ** 64, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_int_matrix([])


def test_singular_matrix_errors():
    with pytest.raises(lattice.SingularMatrixError):
        residue_of([[1, 1], [1, 1]], (0, 0))
    with pytest.raises(lattice.SingularMatrixError):
        residue_system([[0, 0], [0, 0]])


def test_inverse_fractions_roundtrip():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        while True:
            m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            if det(m) != 0:
                break
        inv = inverse_fractions(m)
        prod = lattice.mat_mul([[int(x) for x in row] for row in m], inv)
        assert all(prod[i][j] == (1 if i == j else 0)
                   for i in range(n) for j in range(n))
