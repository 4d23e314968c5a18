"""Exact integer linear algebra for dilation matrices and digit sets.

A dilation system is a square integer matrix M (all eigenvalues strictly
outside the unit circle) together with a set of integer "digits", one
representative per class of Z^d / M Z^d, always containing the zero vector.
Raw input is normalized once, by System.of, into a hashable System that
every memo in the package keys on.  Everything in this module that feeds a
yes/no decision is computed exactly over the integers or rationals;
floating point only enters the eigenvalue test, guarded by a conservative
tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

#: A matrix with an eigenvalue within EIG_TOL of the unit circle is rejected
#: as non-expanding.
EIG_TOL = 1e-9

#: Entries beyond this magnitude are refused (documented 64-bit input bound).
MAX_ENTRY = 2**63 - 1


class SingularMatrixError(ValueError):
    """Matrix has determinant zero where an invertible one is required."""


def _freeze(rows, what):
    """Rows as tuples of ints when every entry is integral, else of floats, and
    whether they are integral.  Non-numbers (booleans and strings too) raise
    ValueError, integral entries past MAX_ENTRY OverflowError."""
    rows = [tuple(r) for r in rows]
    flat = [x for r in rows for x in r]
    if not all(type(x) is int for x in flat):
        for x in flat:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{what} entries must be numbers, got {x!r}")
        if not all(isinstance(x, numbers.Integral) or float(x).is_integer() for x in flat):
            return tuple(tuple(float(x) for x in r) for r in rows), False
        rows = [tuple(int(x) for x in r) for r in rows]
        flat = [x for r in rows for x in r]
    if flat and max(max(flat), -min(flat)) > MAX_ENTRY:
        raise OverflowError(f"{what} entry exceeds the 64-bit input bound")
    return tuple(rows), True


@dataclass(frozen=True)
class System:
    """A square matrix and a digit set, normalized once; the key of every memo.

    `matrix` is a tuple of rows, `digits` the distinct digits in sorted order
    (none for a bare matrix); each holds ints when all its entries are
    integral, else floats.  `int_matrix` says whether the matrix is integral,
    `is_integer` whether the digits are too.  Build one with System.of.  The
    hash and the facts below are computed once per system.
    """

    matrix: tuple
    digits: tuple
    is_integer: bool
    int_matrix: bool

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.matrix, self.digits)))

    def __hash__(self):
        return self._hash

    @classmethod
    def of(cls, matrix, digits=None) -> "System":
        """The System of a raw matrix and digit set (none: of the bare matrix).
        Integral floats become ints; see _freeze for refused entries, and a
        non-square matrix, digits of another dimension or an empty digit set
        raise ValueError.  A System is returned unchanged; `digits` given
        with it must be its own, in any order and with repeats, else
        ValueError."""
        if isinstance(matrix, System):
            if (digits is not None and digits is not matrix.digits
                    and set(map(tuple, digits)) != set(matrix.digits)):
                raise ValueError("digits differ from the digits of the System")
            return matrix
        rows, int_matrix = _freeze(matrix, "matrix")
        d = len(rows)
        if d == 0:
            raise ValueError("matrix must have at least one row")
        if any(len(r) != d for r in rows):
            raise ValueError("matrix must be square")
        vectors, int_digits = _freeze(() if digits is None else digits, "digit")
        if digits is not None and not vectors:
            raise ValueError("digit set must be nonempty")
        for v in vectors:
            if len(v) != d:
                raise ValueError(f"digit {v!r} has wrong dimension, expected {d}")
        return _canonical(cls(rows, tuple(sorted(set(vectors))), int_matrix and int_digits,
                              int_matrix))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def det(self) -> int:
        """Exact determinant of an integer matrix."""
        return _bareiss(self.matrix)

    @cached_property
    def inverse(self):
        """Integer P and integer q > 0 with M^-1 = P / q: adj(M) / det(M),
        the sign of det folded into P."""
        d, m, n = self.det, self.matrix, self.dim
        if d == 0:
            raise SingularMatrixError("matrix is singular")
        sign = 1 if d > 0 else -1
        return tuple(
            tuple(sign * (-1) ** (i + j) * _bareiss([row[:i] + row[i + 1:]
                                                     for r, row in enumerate(m) if r != j])
                  for j in range(n))
            for i in range(n)), abs(d)

    @cached_property
    def array(self) -> np.ndarray:
        """The digits as a read-only (n, d) array: int64 for an integer system
        (its digits lie within the input bound), else float64."""
        a = np.array(self.digits, dtype=np.int64 if self.is_integer else float)
        a = a.reshape(-1, self.dim)
        a.flags.writeable = False
        return a

    @cached_property
    def is_residue_system(self) -> bool:
        """Whether the digits are integral, contain zero and hold one
        representative of every class of Z^d / M Z^d."""
        if not self.is_integer or self.det == 0:
            return False
        p, q = self.inverse
        if len(self.digits) != q or (0,) * self.dim not in self.digits:
            return False
        return len({_residue(self.matrix, p, q, v) for v in self.digits}) == q

    @cached_property
    def is_expanding(self) -> bool:
        """True iff every eigenvalue of M has modulus > 1 + EIG_TOL.

        An integer M with all |lambda| > 1 has |det| = prod |lambda| >= 2.
        That is checked exactly first, so floating point can never accept a
        non-expanding integer matrix with unit determinant.
        """
        if self.int_matrix and abs(self.det) < 2:
            return False
        return _eigenvalues_expand(self.matrix)

    @cached_property
    def span_depth(self):
        """The least K whose depth-K cells span R^d affinely, or None when no K
        does (fewer than two digits, or a span that stalls below d).

        Their differences span sum_{j<K} M^j span(D - D), a Krylov space that
        stops growing by K = d.  It is R^d exactly when the Gram matrix
        G_K = C + M G_{K-1} M^T, G_1 = C = sum v v^T over v = a - D[0], is
        nonsingular.  Real entries are binary fractions, scaled to integers
        first; that changes no span.
        """
        if len(self.digits) < 2:
            return None
        m = _integral_rows(self.matrix)
        first, *rest = _integral_rows(self.digits)
        vs = [[x - y for x, y in zip(a, first)] for a in rest]
        gram = c = [[sum(v[i] * v[j] for v in vs) for j in range(self.dim)]
                    for i in range(self.dim)]
        for k in range(1, self.dim + 1):
            if _bareiss(gram):
                return k
            image = mat_mul(mat_mul(m, gram), tuple(zip(*m)))
            gram = [[x + y for x, y in zip(r, s)] for r, s in zip(c, image)]
        return None


@lru_cache(maxsize=256)
def _canonical(system):
    """The first System built equal to `system`, so equal inputs share its facts."""
    return system


def _integral_rows(rows):
    """The rows times the least common denominator of their entries, as ints
    (a float is a binary fraction, so it has one)."""
    rows = [[Fraction(x) for x in r] for r in rows]
    scale = math.lcm(*(x.denominator for r in rows for x in r))
    return [[int(x * scale) for x in r] for r in rows]


def _eigenvalues_expand(matrix) -> bool:
    """Floating-point test: every eigenvalue has modulus > 1 + EIG_TOL."""
    eigvals = np.linalg.eigvals(np.array(matrix, dtype=float))
    return bool(np.min(np.abs(eigvals)) > 1.0 + EIG_TOL)


def _integer_system(matrix) -> System:
    """System.of(matrix), or ValueError unless its matrix is integral."""
    system = System.of(matrix)
    if not system.int_matrix:
        raise ValueError("matrix entries must be integers")
    return system


def as_int_matrix(entries):
    """Validate and freeze a square integer matrix (any nested sequence) as a
    tuple of tuples, by the rules of System.of; ValueError for a real one."""
    return _integer_system(entries).matrix


def _bareiss(rows) -> int:
    """Exact determinant of integer rows by fraction-free (Bareiss) elimination;
    1 for no rows."""
    m = [list(row) for row in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division, stays integral.
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def det(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    return _integer_system(matrix).det


def mat_vec(matrix, v):
    """Integer matrix times integer vector."""
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in matrix)


def mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def mat_pow(matrix, k: int):
    """Integer matrix power, k >= 0, by squaring; entries of any size."""
    n = len(matrix)
    result = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    base = tuple(tuple(int(x) for x in row) for row in matrix)
    while k:
        if k & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base) if k > 1 else base
        k >>= 1
    return result


def inverse_power(matrix, k: int):
    """Integer matrix P and integer q > 0 with M^-k = P / q, k >= 0.

    M^-1 = adj(M) / det(M), so M^-k = adj^k / det^k; the sign of det^k is
    folded into P.  The exact maps by M^-k in the package (rasters, covers,
    bounding boxes, residues) use this pair, so floors and comparisons of
    M^-k z stay in plain integers.  Memoised on the System and k.
    """
    return _inverse_power(_integer_system(matrix), k)


@lru_cache(maxsize=256)
def _inverse_power(system, k):
    p, q = system.inverse
    return mat_pow(p, k), q ** k


def is_expanding(matrix) -> bool:
    """True iff every eigenvalue of the integer matrix M has modulus > 1 + EIG_TOL."""
    return _integer_system(matrix).is_expanding


def _residue(m, p, q, v):
    """v minus M floor(M^-1 v), with M^-1 = p / q."""
    z = tuple(x // q for x in mat_vec(p, v))
    return tuple(vi - x for vi, x in zip(v, mat_vec(m, z)))


def residue_of(matrix, v):
    """Canonical representative of v modulo M Z^d.

    The representative is the unique r with v = M z + r (z integral) and
    M^{-1} r in the half-open cube [0,1)^d, i.e. r lies in the half-open
    fundamental parallelepiped M [0,1)^d.  Computed exactly: z_i =
    floor((M^{-1} v)_i).
    """
    system = _integer_system(matrix)
    (vec,), integral = _freeze([v], "vector")
    if not integral or len(vec) != system.dim:
        raise ValueError(f"expected an integer vector of length {system.dim}, got {v!r}")
    return _residue(system.matrix, *system.inverse, vec)


def residue_system(matrix):
    """All |det M| lattice points inside M [0,1)^d, in lexicographic order.

    These are pairwise inequivalent modulo M Z^d, include the zero vector,
    and form the canonical digit set of M.
    """
    system = _integer_system(matrix)
    m, d = system.matrix, system.dim
    p, q = system.inverse
    # Bounding box of the parallelepiped M [0,1)^d from its corners.
    corners = [mat_vec(m, c) for c in product((0, 1), repeat=d)]
    lo = [min(c[i] for c in corners) for i in range(d)]
    hi = [max(c[i] for c in corners) for i in range(d)]
    # The product of ascending ranges runs in lexicographic order.
    digits = tuple(r for r in product(*(range(lo[i], hi[i] + 1) for i in range(d)))
                   if all(0 <= c < q for c in mat_vec(p, r)))
    assert len(digits) == q
    return digits


def validate_digits(matrix, digits) -> bool:
    """True iff digits are a full residue system for M containing zero.

    Checks cardinality |D| = |det M| (repeated digits count, so they fail
    it), membership of the zero vector, and pairwise inequivalence modulo
    M Z^d.  Malformed digits give False; a malformed or real matrix raises,
    and so does a System given with digits other than its own.
    """
    try:
        system = System.of(matrix, digits)
    except (ValueError, OverflowError):
        if isinstance(matrix, System):
            raise
        _integer_system(matrix)     # raises for the matrix, else the digits are at fault
        return False
    return _integer_system(system).is_residue_system and len(digits) == len(system.digits)
