"""Exact integer linear algebra for dilation matrices and digit sets.

A dilation system is a square integer matrix M (all eigenvalues strictly
outside the unit circle) together with a set of integer "digits", one
representative per class of Z^d / M Z^d, always containing the zero vector.
Everything in this module that feeds a yes/no decision is computed exactly
over the integers or rationals; floating point only enters the eigenvalue
test, guarded by a conservative tolerance.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

#: A matrix with an eigenvalue within EIG_TOL of the unit circle is rejected
#: as non-expanding.
EIG_TOL = 1e-9

#: Entries beyond this magnitude are refused (documented 64-bit input bound).
MAX_ENTRY = 2**63 - 1


class SingularMatrixError(ValueError):
    """Matrix has determinant zero where an invertible one is required."""


def as_int_matrix(entries):
    """Validate and freeze a square integer matrix as a tuple of tuples.

    Accepts any nested sequence (lists, tuples, numpy arrays).  Rejects
    non-square shapes, non-integer entries and entries outside the 64-bit
    range.
    """
    rows = [tuple(row) for row in entries]
    d = len(rows)
    if d == 0:
        raise ValueError("matrix must have at least one row")
    for row in rows:
        if len(row) != d:
            raise ValueError("matrix must be square")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"matrix entries must be integers, got {x!r}")
            if abs(int(x)) > MAX_ENTRY:
                raise OverflowError(f"matrix entry {x} exceeds 64-bit input bound")
    return tuple(tuple(int(x) for x in row) for row in rows)


def as_int_vector(v, dim=None):
    """Freeze an integer vector as a tuple, optionally checking its length."""
    vec = tuple(int(x) for x in v)
    for x, raw in zip(vec, v):
        if isinstance(raw, float) and raw != x:
            raise ValueError(f"vector entry {raw!r} is not an integer")
    if dim is not None and len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def det(matrix) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in as_int_matrix(matrix)]
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
    return sign * m[n - 1][n - 1]


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
    M^-k z stay in plain integers.  Memoised on the frozen matrix and k.
    """
    return _inverse_power(as_int_matrix(matrix), k)


@lru_cache(maxsize=256)
def _inverse_power(m, k):
    n = len(m)
    d = det(m)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    if n == 1:
        adj = ((1,),)
    else:
        adj = tuple(
            tuple((-1) ** (i + j) * det([row[:i] + row[i + 1:]
                                         for r, row in enumerate(m) if r != j])
                  for j in range(n))
            for i in range(n))
    p = mat_pow(adj, k)
    if d < 0 and k % 2:
        p = tuple(tuple(-x for x in row) for row in p)
    return p, abs(d) ** k


def is_expanding(matrix) -> bool:
    """True iff every eigenvalue of M has modulus > 1 + EIG_TOL.

    An integer matrix with all |lambda| > 1 has |det| = prod |lambda| > 1,
    hence |det| >= 2; that necessary condition is checked exactly first, so
    floating point can only make the test more conservative, never accept a
    non-expanding matrix with unit determinant.
    """
    m = as_int_matrix(matrix)
    if abs(det(m)) < 2:
        return False
    eigvals = np.linalg.eigvals(np.array(m, dtype=float))
    return bool(np.min(np.abs(eigvals)) > 1.0 + EIG_TOL)


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
    m = as_int_matrix(matrix)
    p, q = inverse_power(m, 1)
    return _residue(m, p, q, as_int_vector(v, dim=len(m)))


def residue_system(matrix):
    """All |det M| lattice points inside M [0,1)^d, in lexicographic order.

    These are pairwise inequivalent modulo M Z^d, include the zero vector,
    and form the canonical digit set of M.
    """
    m = as_int_matrix(matrix)
    d = len(m)
    p, q = inverse_power(m, 1)
    # Bounding box of the parallelepiped M [0,1)^d from its corners.
    corners = [mat_vec(m, c) for c in product((0, 1), repeat=d)]
    lo = [min(c[i] for c in corners) for i in range(d)]
    hi = [max(c[i] for c in corners) for i in range(d)]
    digits = []
    for r in product(*(range(lo[i], hi[i] + 1) for i in range(d))):
        if all(0 <= c < q for c in mat_vec(p, r)):
            digits.append(r)
    digits.sort()
    assert len(digits) == q
    return tuple(digits)


def validate_digits(matrix, digits) -> bool:
    """True iff digits are a full residue system for M containing zero.

    Checks cardinality |D| = |det M|, membership of the zero vector, and
    pairwise inequivalence modulo M Z^d.
    """
    m = as_int_matrix(matrix)
    d = len(m)
    if det(m) == 0:
        return False
    try:
        ds = [as_int_vector(v, dim=d) for v in digits]
    except ValueError:
        return False
    p, q = inverse_power(m, 1)
    if len(ds) != q:
        return False
    if tuple([0] * d) not in ds:
        return False
    residues = {_residue(m, p, q, v) for v in ds}
    return len(residues) == len(ds)
