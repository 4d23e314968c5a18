"""Seeded known-answer inputs and reference arithmetic for the benchmark.

Everything here is plain integer (and `Fraction`) arithmetic and imports
nothing from tileforge, so generating an input or checking an output never
runs the code being measured.  Every generated system carries a label that
holds by construction:

* cyclic box forms (superdiagonal p_1..p_{n-1}, corner sign*p_n) with their
  grid digit sets are tiles, and their attractor is a box;
* conjugating a system (M, D) by a unimodular U gives (U M U^-1, U D), whose
  attractor is U G, so tiles stay tiles and non-tiles stay non-tiles;
* scaling a tile's digits by k >= 2 coprime to |det M| keeps a residue
  system, but the attractor becomes k G with measure k^d >= 2: a non-tile;
* a direct sum of progressions picked from one chain family
  (1, d_1), (d_1, d_2), ... tiles the segment {0 .. d_1 d_2 ... - 1}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

TWINDRAGON = (((1, 1), (-1, 1)), ((0, 0), (1, 0)))


# ---------------------------------------------------------------------------
# integer linear algebra
# ---------------------------------------------------------------------------

def identity(d):
    return tuple(tuple(int(i == j) for j in range(d)) for i in range(d))


def mat_mul(a, b):
    n = len(b)
    return tuple(tuple(sum(row[k] * b[k][j] for k in range(n)) for j in range(len(b[0])))
                 for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_pow(a, k):
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def det(a):
    """Determinant by cofactor expansion (the matrices here have d <= 4)."""
    if len(a) == 1:
        return a[0][0]
    return sum((-1) ** j * a[0][j] * det(_minor(a, 0, j)) for j in range(len(a)))


def _minor(a, i, j):
    return tuple(tuple(x for c, x in enumerate(row) if c != j)
                 for r, row in enumerate(a) if r != i)


def adjugate(a):
    """Integer matrix with a @ adjugate(a) = det(a) * I."""
    d = len(a)
    if d == 1:
        return ((1,),)
    return tuple(tuple((-1) ** (i + j) * det(_minor(a, j, i)) for j in range(d))
                 for i in range(d))


def is_residue_system(matrix, digits):
    """True iff digits hold zero and one point of each class of Z^d / M Z^d.

    a and b are congruent iff M^-1 (a - b) is integral, i.e. iff
    adj(M) (a - b) = 0 mod |det M| in every coordinate.
    """
    m = abs(det(matrix))
    if m == 0 or len(digits) != m or tuple([0] * len(matrix)) not in digits:
        return False
    adj = adjugate(matrix)
    return len({tuple(x % m for x in mat_vec(adj, v)) for v in digits}) == m


# ---------------------------------------------------------------------------
# systems with known verdicts
# ---------------------------------------------------------------------------

def box_forms(max_n=4, max_prod=16):
    """The criterion-3 family: (p, sign) with n <= 4, 2 <= prod p <= 16."""
    forms = []
    for n in range(1, max_n + 1):
        for p in product(range(1, max_prod + 1), repeat=n):
            if 2 <= math.prod(p) <= max_prod:
                forms.extend((p, sign) for sign in (1, -1))
    return forms


def cyclic_matrix(p, sign):
    n = len(p)
    rows = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][i + 1] = p[i]
    rows[n - 1][0] += sign * p[n - 1]
    return tuple(tuple(r) for r in rows)


def box_digit_set(p, sign):
    """Grid {0..p_1-1} x ... x {0..p_n-1}, last axis multiplied by sign."""
    return tuple(sorted(ks[:-1] + (sign * ks[-1],) for ks in product(*map(range, p))))


def unimodular(rng, d, steps):
    """(U, U^-1) from `steps` elementary row operations row_i += c row_j."""
    u = uinv = identity(d)
    for _ in range(steps):
        i, j = rng.sample(range(d), 2)
        c = rng.choice((-1, 1))
        u = mat_mul(_elementary(d, i, j, c), u)
        uinv = mat_mul(uinv, _elementary(d, i, j, -c))
    return u, uinv


def _elementary(d, i, j, c):
    rows = [list(r) for r in identity(d)]
    rows[i][j] = c
    return tuple(tuple(r) for r in rows)


def conjugate(matrix, digits, u, uinv):
    """(U M U^-1, U D): the system whose attractor is U G."""
    return (mat_mul(mat_mul(u, matrix), uinv),
            tuple(sorted(mat_vec(u, v) for v in digits)))


def scale_digits(digits, k):
    return tuple(sorted(tuple(k * x for x in v) for v in digits))


def coprime_scale(rng, matrix, choices):
    """A scale k from `choices` with gcd(k, det M) = 1."""
    ok = [k for k in choices if math.gcd(k, det(matrix)) == 1]
    return rng.choice(ok)


# ---------------------------------------------------------------------------
# one-dimensional sets
# ---------------------------------------------------------------------------

def chain_tiler(rng, max_len):
    """(Y, P): a direct sum of progressions from one chain family, tiling {0..P-1}.

    The factors d_i are drawn from 2..6 while their product stays within
    max_len; a random nonempty subset of the family's progressions
    (a_i, d_i), a_i = d_1 ... d_{i-1}, is summed.
    """
    factors = []
    while True:
        d = rng.randint(2, 6)
        if math.prod(factors) * d > max_len:
            break
        factors.append(d)
    picks = [rng.random() < 0.5 for _ in factors]
    if not any(picks):
        picks[rng.randrange(len(factors))] = True
    ys = {0}
    step = 1
    for d, keep in zip(factors, picks):
        if keep:
            ys = {y + step * i for y in ys for i in range(d)}
        step *= d
    return tuple(sorted(ys)), step


def random_subset(rng, lo, hi):
    """A 0-containing random subset of {0..n-1}, n drawn from [lo, hi]."""
    n = rng.randint(lo, hi)
    return (0,) + tuple(x for x in range(1, n) if rng.random() < 0.5)


def mask(xs):
    out = 0
    for x in xs:
        out |= 1 << x
    return out


def is_direct_sum(parts, target):
    """True iff the sums of one element from each part are distinct and form target."""
    acc = {0}
    size = 1
    for part in parts:
        acc = {a + b for a in acc for b in part}
        size *= len(part)
    return len(acc) == size and acc == set(target)


def tiles_segment(ys, n):
    """True iff translates of Y tile {0..n-1}, by the forced left-to-right sweep."""
    full = (1 << n) - 1
    ymask = mask(ys)
    covered = 0
    while covered != full:
        hole = ((~covered) & (covered + 1)).bit_length() - 1
        placed = ymask << hole
        if placed & covered or placed > full:
            return False
        covered |= placed
    return True


def segment_tilers(n):
    """All 0-containing subsets of {0..n-1} tiling it, as sorted tuples.

    Direct sums of subsets of the chain family of every ordered
    factorization of n, enumerated by recursion on the next factor.
    """
    found = set()

    def walk(rest, step, sums):
        if rest == 1:
            found.add(tuple(sorted(sums)))
            return
        for d in range(2, rest + 1):
            if rest % d == 0:
                walk(rest // d, step * d, sums)
                walk(rest // d, step * d, {y + step * i for y in sums for i in range(d)})

    walk(n, 1, {0})
    return found


# ---------------------------------------------------------------------------
# attractor cells and raster maps
# ---------------------------------------------------------------------------

def attractor_cells(matrix, digits, depth):
    """{sum_k M^(K-k) s_k}: the depth-K expansion cells, built level by level."""
    cells = {tuple([0] * len(matrix))}
    for _ in range(depth):
        cells = {tuple(x + y for x, y in zip(mat_vec(matrix, z), s))
                 for z in cells for s in digits}
    return cells


def raster_cells(matrix, cells, depth, resolution):
    """{floor(adj^K z * R / det^K)}: cells mapped through M^-K onto the R-grid."""
    adj_k = mat_pow(adjugate(matrix), depth)
    den = det(matrix) ** depth
    return {tuple(x * resolution // den for x in mat_vec(adj_k, z)) for z in cells}


def line_raster(m, digits, depth, resolution, lo, hi):
    """Raster indices of a one-dimensional attractor over the box [lo, hi].

    Index floor((z / m^K - lo) R), clamped into the extent ceil((hi - lo) R).
    """
    extent = max(1, math.ceil((hi - lo) * resolution))
    scale = Fraction(1, m ** depth)
    return {min(max(math.floor((z * scale - lo) * resolution), 0), extent - 1)
            for (z,) in attractor_cells(((m,),), digits, depth)}
