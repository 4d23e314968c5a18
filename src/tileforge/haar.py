"""Haar-type wavelet generators built from a tile and their inner products.

A tile with m digits yields m - 1 generators

    psi_s(x) = sqrt(m) * sum_k (e_s)_{k+1} * indicator(M^{-1}(G + d_k))(x),

where e_1 .. e_{m-1} is an orthonormal basis of the zero-sum hyperplane in
R^m.  The canonical basis here is the Helmert construction
e_s ~ (1, ..., 1, -s, 0, ..., 0) / sqrt(s(s+1)) whose entries are integer
multiples of a single square root; all zero-mean and orthogonality
statements therefore reduce to integer arithmetic and hold exactly.  Inner
products are evaluated exactly for box tiles (all pieces have volume 1/m)
and by raster quadrature with a reported boundary fraction otherwise.

Piecewise-constant generators cannot exceed L2 smoothness exponent 1/2;
box tiles attain it, which is what makes them the preferred generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Optional

import numpy as np

from . import lattice
from .attractor import (approximate, bounding_box, _check_budget, _cover_keys, _grid,
                        _has_cells, _int_array, _int_product, _tile_report, _unit_cell_cover,
                        _unravel)
from .boxtile import _box_certificate
from .lattice import System, mat_pow


@dataclass(frozen=True)
class HyperplaneBasis:
    """Orthonormal vectors spanning {x in R^m : sum x_i = 0}.

    `integer_rows[s]` holds the unnormalized integer vector u_s with
    e_s = u_s / sqrt(norm_sq[s]); exact checks use these.
    """

    m: int
    vectors: tuple
    integer_rows: tuple
    norm_sq: tuple


def hyperplane_basis(m: int) -> HyperplaneBasis:
    """Helmert basis of the zero-sum hyperplane, first nonzero entry positive.

    e_s has s leading entries 1/sqrt(s(s+1)), then -s/sqrt(s(s+1)), then
    zeros, for s = 1 .. m-1.
    """
    if m < 2:
        raise ValueError("need at least two digits")
    rows = tuple(tuple([1] * s + [-s] + [0] * (m - s - 1)) for s in range(1, m))
    norm_sq = tuple(s * (s + 1) for s in range(1, m))
    vectors = tuple(tuple(u * (1.0 / math.sqrt(n)) for u in row) for row, n in zip(rows, norm_sq))
    return HyperplaneBasis(m=m, vectors=vectors, integer_rows=rows, norm_sq=norm_sq)


@dataclass(frozen=True)
class HaarSystem:
    """A tile system plus the piecewise-constant wavelet generators.

    `digits` keeps the caller's order, which numbers the pieces: pieces[s]
    lists, for generator s+1, one (digit index k, coefficient) pair per
    digit; the coefficient is sqrt(m) * (e_{s+1})_{k+1}.  The support of
    every generator is the tile itself.  `system` is the System of matrix
    and digits, built from them when not given.
    """

    matrix: tuple
    digits: tuple
    basis: HyperplaneBasis
    pieces: tuple
    system: System = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.system is None:
            object.__setattr__(self, "system", System.of(self.matrix, self.digits))

    @property
    def m(self) -> int:
        return len(self.digits)

    @property
    def generator_count(self) -> int:
        return self.m - 1


def build_wavelets(matrix, digits, basis: Optional[HyperplaneBasis] = None) -> HaarSystem:
    """Assemble the wavelet system for a validated digit system."""
    system = System.of(matrix, digits)
    if not lattice.validate_digits(system, digits):
        raise ValueError("digits must form a residue system for the matrix")
    digits = tuple(tuple(int(x) for x in v) for v in digits)
    count = len(digits)
    if basis is None:
        basis = hyperplane_basis(count)
    if basis.m != count:
        raise ValueError(f"basis is for m={basis.m}, digit set has {count}")
    root_m = math.sqrt(count)
    pieces = tuple(
        tuple((k, root_m * basis.vectors[s][k]) for k in range(count))
        for s in range(count - 1)
    )
    return HaarSystem(matrix=system.matrix, digits=digits, basis=basis, pieces=pieces,
                      system=system)


def wavelet_mean(system: HaarSystem, s: int) -> Fraction:
    """Exact integral of generator s (1-based): zero, by integer cancellation.

    integral psi_s = (sqrt(m)/m) * sum_k (e_s)_{k+1} * mu(G); the integer
    row of e_s sums to zero, so the value is exactly zero whatever mu(G) is.
    """
    if not 1 <= s <= system.generator_count:
        raise ValueError(f"generator index must be in 1..{system.generator_count}")
    if sum(system.basis.integer_rows[s - 1]) != 0:
        raise AssertionError("hyperplane basis row does not sum to zero")
    return Fraction(0)


# ---------------------------------------------------------------------------
# inner products
# ---------------------------------------------------------------------------

def _is_box_system(system: HaarSystem) -> bool:
    """Whether the attractor is a certified box of volume one, a box tile."""
    box = _box_certificate(system.system)
    return box is not None and math.prod(b - a for a, b in zip(*box)) == 1


def exact_inner(system: HaarSystem, i: int, j: int) -> Fraction:
    """Exact inner product for box tiles; indices 0 = scaling, s = psi_s.

    All pieces M^{-1}(G + d_k) have volume mu(G)/m = 1/m and overlap in
    measure zero, so products reduce to integer dot products of the
    Helmert rows:  <psi_s, psi_t> = u_s . u_t / sqrt(nsq_s * nsq_t), which
    is 0 for s != t and 1 for s = t; <psi_s, scaling> = 0 by zero sum.
    """
    mcount = system.m
    if not 0 <= i < mcount or not 0 <= j < mcount:
        raise ValueError("function index out of range")
    if i == 0 and j == 0:
        return Fraction(1)
    if i == 0 or j == 0:
        return wavelet_mean(system, max(i, j))
    us = system.basis.integer_rows[i - 1]
    ut = system.basis.integer_rows[j - 1]
    dot = sum(a * b for a, b in zip(us, ut))
    if i == j:
        # dot equals nsq_s, so the normalized product is exactly one
        return Fraction(dot, system.basis.norm_sq[i - 1])
    if dot != 0:
        raise AssertionError("Helmert rows are not orthogonal")
    return Fraction(0)


def exact_gram(system: HaarSystem):
    """Exact Gram matrix of the generators (box tiles), as Fractions."""
    n = system.generator_count
    return tuple(
        tuple(exact_inner(system, s + 1, t + 1) for t in range(n)) for s in range(n)
    )


@lru_cache(maxsize=16)
def _piece_tables(system, depth: int):
    """_cover_keys tables of the expansion cells at depths K and K+1."""
    return tuple(_cover_keys(approximate(system, system.digits, k).points, [(0,) * system.dim])
                 for k in (depth, depth + 1))


def _pieces(system, digits, depth: int, num, den: int):
    """Piece index of each point num / den, or -1 outside the stand-in.

    `system` is a System and `digits` its digits in piece order; `num` is an
    (n, d) integer array.  The depth-(K+1) expansion cells
    partition a measure-one stand-in for the tile into disjoint floor-cells:
    x is claimed iff floor(M^(K+1) x) is an expansion cell, and its piece is
    the first expansion digit, the first d_k with cell - M^K d_k among the
    depth-K cells.  Exact integer arithmetic; no membership ambiguity.
    """
    coarse, fine = _piece_tables(system, depth)
    mk = mat_pow(system.matrix, depth)
    cells = _int_product(num, lattice.mat_mul(mk, system.matrix)) // _int_array(den)
    pieces = np.full(len(cells), -1, dtype=np.int32)
    open_ = np.flatnonzero(_has_cells(fine, cells))
    for k, lead in enumerate(_int_product(digits, mk)):
        hit = _has_cells(coarse, cells[open_] - lead)
        pieces[open_[hit]] = k
        open_ = open_[~hit]
    if len(open_):
        raise AssertionError("expansion cell lost its leading digit")
    return pieces


def evaluate(system: HaarSystem, s: int, x, depth: int = 12) -> float:
    """Value of generator s (1-based) at the point x; 0 outside the tile.

    Membership is resolved at the given depth against the expansion cells,
    so values within O(||M||^-depth) of a piece boundary may land on either
    side.  Exact rational points are handled exactly.
    """
    if not 1 <= s <= system.generator_count:
        raise ValueError(f"generator index must be in 1..{system.generator_count}")
    fr = [Fraction(v) for v in x]
    if len(fr) != system.system.dim:
        raise ValueError("point has wrong dimension")
    den = math.lcm(*(f.denominator for f in fr))
    num = np.array([[int(f * den) for f in fr]], dtype=object)
    piece = int(_pieces(system.system, system.digits, depth, num, den)[0])
    return 0.0 if piece < 0 else system.pieces[s - 1][piece][1]


def _sample_pieces(system: HaarSystem, resolution: int, depth: int):
    """Piece index of every raster cell center over the bounding-box grid.

    Returns (piece array, cell volume).  Sample j along axis i sits at
    int(lo_i * 2R + 2j + 1) / 2R, the cell center truncated toward zero to
    the 1/2R grid, so the classification is deterministic.
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    lo, hi = bounding_box(system.system, system.digits)
    d = system.system.dim
    counts = [max(1, -int(-((hi[i] - lo[i]) * resolution) // 1)) for i in range(d)]
    _check_budget("the raster grid", math.prod(counts))
    den = 2 * resolution
    axes = [[int(lo_i * den + 2 * j + 1) for j in range(c)] for lo_i, c in zip(lo, counts)]
    return (_pieces(system.system, system.digits, depth, _grid(axes), den).reshape(counts),
            float(resolution) ** (-d))


def _edge_fraction(pieces: np.ndarray) -> float:
    """Fraction of claimed samples adjacent to a differently-claimed sample."""
    claimed = pieces >= 0
    if not claimed.any():
        return 0.0
    edge = np.zeros_like(claimed)
    for axis in range(pieces.ndim):
        a = np.swapaxes(pieces, 0, axis)
        e = np.swapaxes(edge, 0, axis)
        e[:-1] |= a[:-1] != a[1:]
        e[1:] |= a[1:] != a[:-1]
    return float(np.count_nonzero(edge & claimed)) / float(np.count_nonzero(claimed))


def raster_gram(system: HaarSystem, resolution: int = 64, depth: int = 12):
    """Gram matrix of the generators by raster quadrature.

    Samples cell centers of the certified bounding-box grid, classifies
    each into a refinement piece, and accumulates coefficient products
    times cell volume.  Returns (gram ndarray, edge_fraction); the edge
    fraction (samples on piece boundaries) is the resolution-limited part
    of the quadrature error.
    """
    gram, edge = _raster_products(system, resolution, depth)
    return gram[1:, 1:], edge


def _raster_products(system: HaarSystem, resolution: int, depth: int):
    """Raster Gram matrix of (scaling, psi_1, ..., psi_{m-1}), and the edge fraction."""
    pieces, cell_vol = _sample_pieces(system, resolution, depth)
    coeff = np.array([[1.0] * system.m] + [[c for _, c in row] for row in system.pieces])
    gram = np.zeros((system.m, system.m))
    counts = np.bincount(pieces[pieces >= 0], minlength=system.m)
    for k, count in enumerate(counts.tolist()):
        if count:
            vals = coeff[:, k]
            gram += count * np.outer(vals, vals)
    gram *= cell_vol
    return gram, _edge_fraction(pieces)


def inner_product(system: HaarSystem, i: int, j: int, method: str = "auto",
                  resolution: int = 64, depth: int = 12):
    """Inner product of two system functions (0 = scaling, s = generator s).

    Box tiles take the exact rational route; other tiles use raster
    quadrature at the given resolution and membership depth.
    """
    if method == "auto":
        method = "exact" if _is_box_system(system) else "raster"
    if method == "exact":
        return exact_inner(system, i, j)
    if method != "raster":
        raise ValueError(f"unknown method {method!r}")
    gram, _ = _raster_products(system, resolution, depth)
    return float(gram[i][j])


def shift_orthonormality(matrix, digits, window: int = 1, depth: int = 12) -> float:
    """Max deviation of <chi_G, chi_G(. + k)> from delta_k over a lattice window.

    For a certified tile the expansion cells are a measure-exact stand-in
    for G, and overlaps are counted as |cells intersect (cells + M^depth k)|
    / m^depth: exactly one at k = 0, decreasing toward zero with depth for
    k != 0.  Systems covering in several layers fall back to the unit-cell
    cover, whose overlap counts stay bounded away from zero.
    """
    system = System.of(matrix, digits)
    d = system.dim
    tile = _tile_report(system).is_tile
    cover = [(0,) * d] if tile else _unit_cell_cover(system, None)
    table = _cover_keys(approximate(system, system.digits, depth).points, cover)
    modulus = abs(system.det) ** depth
    mk = mat_pow(system.matrix, depth)
    cells = _unravel(*table)
    worst = 0.0
    for k in product(*[range(-window, window + 1) for _ in range(d)]):
        count = int(_has_cells(table, _int_product([k], mk, cells)[0]).sum())
        worst = max(worst, abs(count / modulus - (0.0 if any(k) else 1.0)))
    return worst
