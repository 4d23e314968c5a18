"""Finite approximations of self-affine attractors and the exact tile test.

An attractor is the unique compact fixed set of the map
A |-> union over shifts s of M^{-1}(A + s) for an expanding matrix M.  At
depth K it is represented by the truncated expansion sums

    cells(K) = { sum_{k=1..K} M^{K-k} s_k  :  s_k in shifts },

integer vectors when the data is integral; the region M^{-K}(z + B) around
each cell (B a certified bounding box of the attractor) covers the set.
All set bookkeeping is exact; rationals are used wherever a bound feeds a
decision.

The tile test builds the contact matrix on the integer points of G - G.
Its Perron radius is below m = |det M| exactly when integer translates
overlap in measure zero (a tile); that is decided by an integer fixed point
on column sums.  The radius is only displayed: m for a non-tile, else estimated.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from typing import Optional

import numpy as np

from . import lattice
from .lattice import System, _inverse_power, mat_pow, mat_vec

DEFAULT_MAX_CELLS = 5_000_000

POWER_TOL = 1e-10
POWER_MAX_ITER = 100_000


class ResourceLimitError(RuntimeError):
    """Construction would exceed the configured cell budget."""


def max_cells_budget() -> int:
    """TILEFORGE_MAX_CELLS when set, else DEFAULT_MAX_CELLS; ValueError unless positive."""
    raw = os.environ.get("TILEFORGE_MAX_CELLS", "").strip()
    if not raw:
        return DEFAULT_MAX_CELLS
    if not raw.isdecimal() or int(raw) <= 0:
        raise ValueError(f"TILEFORGE_MAX_CELLS must be a positive integer, got {raw!r}")
    return int(raw)


# ---------------------------------------------------------------------------
# certified bounding boxes
# ---------------------------------------------------------------------------

def bounding_box(matrix, shifts):
    """Per-coordinate bounds on G = {sum M^{-j} s_j}, certified.

    Returns (lo, hi) tuples with lo_i <= x_i <= hi_i for every point of the
    attractor.  Exact rationals for integer input: partial sums of the
    coordinate series with independent shift choices per level, plus a tail
    bound 2 * ||M^{-J}||_inf * P_J * max|s| once ||M^{-J}||_inf <= 1/2.
    """
    system = System.of(matrix, shifts)
    if system.is_integer:
        return _bounding_box_exact(system)
    return _bounding_box_float(system.matrix, system.digits)


@lru_cache(maxsize=256)
def _bounding_box_exact(system):
    """Scaled-integer evaluation of the coordinate series with certified tail.

    M^{-j} = P^j / q^j with (P, q) = inverse_power(M, 1).  The stopping rule
    runs on the d x d powers alone, in integers: with r_j = ||P^j||_inf and
    n_j = n_{j-1} q + r_j, the norm r_j / q^j and the norm sum n_j / q^j.
    Then one stacked product forms every level's shift images, and the
    per-coordinate extremes are summed as numerators over q^J.
    """
    step, q1 = system.inverse
    shifts = system.array
    smax = _abs_max(shifts)
    powers = [step]
    n, q = 0, q1
    halved = False
    while True:
        r = max(sum(map(abs, row)) for row in powers[-1])
        n = n * q1 + r
        if 2 * r <= q:
            halved = True
            # the tail of the norm series is at most norm * (2 * norm_sum)
            if 128 * r * n * smax <= q * q or len(powers) >= 200:
                break
        if len(powers) >= 200 and not halved:
            raise ValueError("matrix does not appear to be expanding")
        powers.append(lattice.mat_mul(powers[-1], step))
        q *= q1
    # One product against the stacked (J d, d) powers: imgs[s, j] = P^(j+1) s.
    imgs = _int_product(shifts, [row for p in powers for row in p]).reshape(
        len(shifts), len(powers), -1)
    weights = np.array([q1 ** e for e in reversed(range(len(powers)))], dtype=object)
    lo, hi = (weights @ a.astype(object) for a in (imgs.min(axis=0), imgs.max(axis=0)))
    tail = Fraction(2 * r * n * smax, q * q)
    return (tuple(Fraction(x, q) - tail for x in lo.tolist()),
            tuple(Fraction(x, q) + tail for x in hi.tolist()))


def _bounding_box_float(matrix, shifts):
    d = len(matrix)
    minv = np.linalg.inv(np.array(matrix, dtype=float))
    pts = np.array([[float(x) for x in s] for s in shifts])
    smax = float(np.max(np.abs(pts))) if pts.size else 0.0
    lo, hi = np.zeros(d), np.zeros(d)
    power = minv.copy()
    norm_sum = 0.0
    for j in range(1, 401):
        imgs = pts @ power.T
        lo += imgs.min(axis=0)
        hi += imgs.max(axis=0)
        norm = float(np.max(np.sum(np.abs(power), axis=1)))
        norm_sum += norm
        if norm <= 0.5:
            tail = norm * 2.0 * norm_sum * smax * 1.001 + 1e-12
            if tail <= 1.0 / 64 or j == 400:
                return tuple(lo - tail), tuple(hi + tail)
        power = power @ minv
    raise ValueError("matrix does not appear to be expanding")


# ---------------------------------------------------------------------------
# depth-K approximation
# ---------------------------------------------------------------------------

class CellView(Sequence):
    """Read-only sequence of the rows of a cell array as tuples of Python numbers.

    The length is the row count; tuples are built only on indexing and
    iteration.  A view equals a tuple, or another view, with the same cells
    in the same order.
    """

    __slots__ = ("_points",)

    def __init__(self, points):
        self._points = points

    def __len__(self):
        return len(self._points)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(tuple, self._points[index].tolist()))
        return tuple(self._points[index].tolist())

    def __iter__(self):
        return map(tuple, self._points.tolist())

    def __eq__(self, other):
        if isinstance(other, (tuple, CellView)):
            return len(self) == len(other) and tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"CellView({len(self)} cells)"


@dataclass(frozen=True)
class AttractorApprox:
    """Depth-K truncation of an attractor as lattice cells.

    Cell z stands for the region M^{-depth}(z + B) with B the certified
    bounding box of the attractor.  `points` holds the distinct cells in
    lexicographic order (see _level); equality and hashing use the four
    fields that determine them.  `system` is the System of matrix and
    shifts, built from them when not given.
    """

    matrix: tuple
    shifts: tuple
    depth: int
    points: np.ndarray = field(compare=False)
    is_integer: bool
    system: System = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.system is None:
            object.__setattr__(self, "system", System.of(self.matrix, self.shifts))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @property
    def cells(self) -> CellView:
        """The cells in order, as a read-only sequence of tuples of Python numbers."""
        return CellView(self.points)

    def to_json(self) -> dict:
        """JSON-ready cell list: matrix, shifts, depth and the cells."""
        return {
            "matrix": [list(r) for r in self.matrix],
            "shifts": [list(s) for s in self.shifts],
            "depth": self.depth,
            "cells": self.points.tolist(),
        }


#: Integer arrays stay int64 below this magnitude, else hold Python ints (dtype object).
INT64_SAFE = 2 ** 62


def _int_dtype(bound):
    """int64 for integers bounded by `bound` under INT64_SAFE, else object (Python ints)."""
    return np.int64 if bound < INT64_SAFE else object


def _abs_max(values):
    """max |x| over an integer array or nested integers, 0 when empty."""
    a = values if isinstance(values, np.ndarray) else np.array(values, dtype=object)
    return max(-int(a.min(initial=0)), int(a.max(initial=0)))


def _int_array(values):
    """Nested integers as an int64 array while every |x| < INT64_SAFE, else as Python ints."""
    return np.array(values, dtype=_int_dtype(_abs_max(values)))


def _int_product(rows, matrix, offsets=None):
    """rows @ matrix.T, or (rows @ matrix.T)[:, None] + offsets, exactly.

    `rows` and `offsets` are integer arrays or nested integers, `matrix`
    nested integers.  The result is int64 while
    max(max|rows|, 1) * max ||matrix row||_1 + max|offsets| < INT64_SAFE,
    else Python ints (dtype object).  So every int64 entry is below
    INT64_SAFE, and one sum or difference of two results stays exact.
    """
    top = max(_abs_max(rows), 1)
    dtype = _int_dtype(top * max(sum(map(abs, row)) for row in matrix)
                       + (0 if offsets is None else _abs_max(offsets)))
    # Under a zero matrix, rows past int64 still give an int64 product.
    rows = np.asarray(rows, dtype=object if top >= INT64_SAFE else dtype)
    out = (rows @ np.array(matrix, dtype=dtype).T).astype(dtype, copy=False)
    return out if offsets is None else out[:, None] + np.asarray(offsets, dtype=dtype)


def _box_rows(p, lo, hi):
    """Least and greatest (p x)_i over the box lo <= x <= hi, as two lists over the rows of p."""
    return ([sum(min(a * b, a * c) for a, b, c in zip(row, lo, hi)) for row in p],
            [sum(max(a * b, a * c) for a, b, c in zip(row, lo, hi)) for row in p])


def _grid(axes):
    """The product of the axes as (n, d) rows, in itertools.product order."""
    mesh = np.meshgrid(*map(_int_array, axes), indexing="ij")
    return np.stack(mesh, axis=-1).reshape(-1, len(axes))


def _ravel(rows, lo, span):
    """Row-major keys sum_i (x_i - lo_i) * stride_i, ordered like the row tuples."""
    keys = rows[:, 0] - lo[0]
    for i in range(1, len(span)):
        keys = keys * span[i] + (rows[:, i] - lo[i])
    return keys


def _unravel(keys, lo, span):
    """Rows of the keys made by _ravel(rows, lo, span)."""
    strides = [math.prod(span[i + 1:]) for i in range(len(span))]
    return np.stack([keys // st % n + a for st, n, a in zip(strides, span, lo)], axis=1)


def _unique_rows(rows):
    """Distinct integer rows in lexicographic order and their multiplicities,
    deduplicated on raveled keys."""
    lo = [int(x) for x in rows.min(axis=0)]
    span = [int(x) - a + 1 for x, a in zip(rows.max(axis=0), lo)]
    exact = rows if math.prod(span) < INT64_SAFE else rows.astype(object)
    _, first, mult = np.unique(_ravel(exact, lo, span), return_index=True, return_counts=True)
    return rows[first], mult


@lru_cache(maxsize=96)
def _level(system, t):
    """Frontier level t: {0} at t = 0, then {M z + s : z in level t-1}.

    A read-only (n, d) array of distinct rows in lexicographic order: int64,
    Python ints (dtype object) past INT64_SAFE, or float64 for real data.
    """
    d = system.dim
    if t == 0:
        pts = np.zeros((1, d), dtype=np.int64 if system.is_integer else float)
    elif system.is_integer:
        rows = _int_product(_level(system, t - 1), system.matrix, system.array)
        pts = _unique_rows(rows.reshape(-1, d))[0]
    else:
        prev = _level(system, t - 1)
        rows = (prev @ np.array(system.matrix, dtype=float).T)[:, None] + system.array
        pts = np.unique(np.round(rows.reshape(-1, d), 12), axis=0)
    pts.flags.writeable = False
    return pts


def _cells_at(system, depth, max_cells):
    """Cells at `depth`, built level by level within the cell budget."""
    if not system.is_expanding:
        raise ValueError("matrix must be expanding")
    # Two distinct shifts add a cell per level, so only one shift reaches a
    # depth past the budget, and its one-cell frontier would never stop it.
    if depth > max_cells:
        raise ResourceLimitError(
            f"depth {depth} exceeds the budget of {max_cells} cells (TILEFORGE_MAX_CELLS)")
    # The budget is checked per level whether or not the level is cached.
    for t in range(1, depth + 1):
        need = len(_level(system, t - 1)) * len(system.digits)
        if need > max_cells:
            raise ResourceLimitError(
                f"depth {t} needs up to {need} cells, "
                f"budget is {max_cells} (TILEFORGE_MAX_CELLS)"
            )
    return _level(system, depth)


def approximate(matrix, shifts, depth: int, max_cells: Optional[int] = None) -> AttractorApprox:
    """Depth-K approximation of the attractor for (matrix, shifts).

    Work is bounded by a per-level frontier (cells at level t feed level
    t+1), so repeated digit strings are merged as they appear.  Raises
    ResourceLimitError when the frontier would exceed the cell budget.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    system = System.of(matrix, shifts)
    budget = max_cells if max_cells is not None else max_cells_budget()
    cells = _cells_at(system, depth, budget)
    return AttractorApprox(matrix=system.matrix, shifts=system.digits, depth=depth,
                           points=cells, is_integer=system.is_integer, system=system)


# ---------------------------------------------------------------------------
# unit-cell covers
# ---------------------------------------------------------------------------

def unit_cell_cover(matrix, shifts, level: Optional[int] = None):
    """Integer unit cells meeting the attractor in positive measure (superset).

    Starting from the certified bounding box, the cover is refined through
    `level` subdivision steps: the attractor lies in the union of regions
    M^{-level}(c + B) over the level cells c, and a unit cell survives only
    if its interior meets one of those regions.  Exact rational interval
    arithmetic throughout, so no cell of positive overlap is ever dropped.
    Returns the cells in lexicographic order as a read-only CellView.
    """
    system = System.of(matrix, shifts)
    if not system.is_integer:
        raise ValueError("unit-cell covers require integer data")
    return CellView(_unit_cell_cover(system, level))


@lru_cache(maxsize=64)
def _unit_cell_cover(system, level):
    lo, hi = _bounding_box_exact(system)
    if level is None:
        level = 1
        while len(system.digits) ** (level + 1) <= 512:
            level += 1
    cells = _cells_at(system, level, max_cells_budget())
    # Scaled integers: M^{-level} = sn / q and B = [lo, hi] has denominator r,
    # so one product gives each region M^{-level}(c + B) as [low, high] / (q r).
    sn, q = _inverse_power(system, level)
    r = math.lcm(*(x.denominator for x in (*lo, *hi)))
    box = _box_rows(sn, [int(x * r) for x in lo], [int(x * r) for x in hi])
    low, high = _int_product(cells, [[x * r for x in row] for row in sn], box).transpose(1, 0, 2)
    big_q = _int_array(q * r)
    first = low // big_q                        # least g with g + 1 > lo
    width = (high - 1) // big_q - first + 1     # up to the greatest g with g < hi
    offsets = _grid([range(max(int(w), 0)) for w in width.max(axis=0)])
    keep = (offsets[None] < width[:, None]).all(axis=2)
    rows = (first[:, None] + offsets[None])[keep]
    cover = _unique_rows(rows)[0] if len(rows) else rows
    cover.flags.writeable = False
    return cover


def _check_budget(what, need):
    """Raise ResourceLimitError when `need` cells exceed the cell budget."""
    budget = max_cells_budget()
    if need > budget:
        raise ResourceLimitError(
            f"{what} needs up to {need} cells, budget is {budget} (TILEFORGE_MAX_CELLS)")


def _cover_keys(points, cover):
    """Sorted distinct _ravel keys of {z + g : z in points, g in cover}.

    `cover` is an integer array of rows or nested integers.  Returns
    (keys, lo, span) for the key box lo + [0, span): int64 keys while it
    holds fewer than INT64_SAFE cells, Python ints past that.  Raises
    ResourceLimitError when the product would exceed the cell budget.
    """
    _check_budget("the cover product", len(points) * len(cover))
    d = points.shape[1]
    g = _int_array(cover).reshape(-1, d)
    glo, ghi = ([int(x) for x in f(g, axis=0)] if len(g) else [0] * d for f in (np.min, np.max))
    zlo = [int(x) for x in points.min(axis=0)]
    span = [int(zh) - zl + gh - gl + 1
            for zl, zh, gl, gh in zip(zlo, points.max(axis=0), glo, ghi)]
    dtype = _int_dtype(math.prod(span)) if points.dtype != object else object
    kz = _ravel(points.astype(dtype, copy=False), zlo, span)
    kg = _ravel(g.astype(object), glo, span).astype(dtype)
    keys = np.unique((kz[:, None] + kg[None, :]).ravel())
    return keys, [a + b for a, b in zip(zlo, glo)], span


def _has_cells(table, rows):
    """Whether each row of an (n, d) int64 or object array is a cell of `table`
    (a _cover_keys result), as an (n,) bool array."""
    keys, lo, span = table
    hi = [a + n for a, n in zip(lo, span)]
    if rows.dtype != object:
        rows = rows.astype(_int_dtype(max(map(abs, lo + hi))), copy=False)
    inside = ((rows >= lo) & (rows < hi)).all(axis=1)
    k = _ravel((rows[inside] - lo).astype(keys.dtype), [0] * len(span), span)
    # No key reaches the box size, so it closes the sorted keys as a sentinel.
    closed = np.append(keys, math.prod(span))
    member = np.zeros(len(rows), dtype=bool)
    member[inside] = closed[np.searchsorted(keys, k)] == k
    return member


def touched_cells(matrix, shifts, depth: int, level: Optional[int] = None):
    """Unit cells at scale M^{-depth} covering the attractor: cells + cover."""
    approx = approximate(matrix, shifts, depth)
    cover = _unit_cell_cover(approx.system, level)
    return set(map(tuple, _unravel(*_cover_keys(approx.points, cover)).tolist()))


def measure_upper(matrix, digits, depth: int, level: Optional[int] = None) -> Fraction:
    """Upper bound on the Lebesgue measure of the attractor, as a rational.

    Two routes, tightest wins: when the contact-matrix test certifies a
    tile, the measure is exactly one and the bound is the constant 1;
    otherwise the unit cells (at scale M^{-depth}) of the self-similar
    cover are counted and divided by m^depth.  Either way the sequence in
    depth is a non-increasing upper bound converging to the measure.
    """
    system = System.of(matrix, digits)
    if not lattice.validate_digits(system, digits):
        raise ValueError("digits must form a residue system for the matrix")
    if _tile_report(system).is_tile:
        return Fraction(1)
    approx = approximate(system, system.digits, depth)
    cover = _unit_cell_cover(system, level)
    keys, _, _ = _cover_keys(approx.points, cover)
    return Fraction(len(keys), abs(system.det) ** depth)


# ---------------------------------------------------------------------------
# contact matrix and the exact tile test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactMatrix:
    """Transition counts k -> M k + b - a on candidate overlap translations.

    States are the nonzero integer vectors that can arise as differences of
    two points of the attractor, in lexicographic order, as a CellView of a
    read-only integer array.  `edges` holds the transitions as int64 arrays
    (rows, cols, mult) sorted by row: mult[e] digit pairs (a, b) give
    states[cols[e]] = M @ states[rows[e]] + b - a.
    Equality and hashing use the states.
    """

    states: CellView
    edges: tuple = field(compare=False)

    def __len__(self) -> int:
        return len(self.states)

    @cached_property
    def counts(self) -> np.ndarray:
        """The transition counts as a read-only dense (n, n) int64 array."""
        rows, cols, mult = self.edges
        counts = np.zeros((len(self), len(self)), dtype=np.int64)
        counts[rows, cols] = mult
        counts.flags.writeable = False
        return counts


@dataclass(frozen=True)
class TileReport:
    is_tile: bool
    modulus: int
    contact: ContactMatrix
    measure: Optional[int] = None
    #: The verdict is exact, never indeterminate.
    indeterminate = False

    @cached_property
    def spectral_radius(self) -> float:
        """The Perron radius for display: exactly m for a non-tile (the
        verdict proves rho = m), else a power-iteration estimate."""
        if not self.is_tile:
            return float(self.modulus)
        return _power_radius(self.contact.counts)


def _power_radius(counts):
    """Perron radius of a nonnegative matrix by power iteration.

    Iterates on T + I, which is aperiodic, shares the Perron vector of T,
    and has radius rho(T) + 1, so contact graphs that are unions of cycles
    (common here) still converge.  Deterministic all-ones start.
    """
    n = len(counts)
    if n == 0:
        return 0.0
    t = counts + np.eye(n)
    x = np.ones(n)
    lam = 0.0
    for _ in range(POWER_MAX_ITER):
        y = t @ x
        ny = float(np.max(y))
        if ny == 0.0:
            return 0.0
        y /= ny
        if (abs(ny - lam) <= POWER_TOL * max(1.0, ny)
                and float(np.max(np.abs(y - x))) <= POWER_TOL):
            return max(ny - 1.0, 0.0)
        x, lam = y, ny
    return max(lam - 1.0, 0.0)


def contact_matrix(matrix, digits) -> ContactMatrix:
    """Contact matrix on the integer points of G - G (zero excluded).

    Candidate states are the integer points of box(G) - box(G), box(G) the
    certified bounding box; the window is then pruned to its greatest fixed
    point under "k keeps some successor M k + b - a inside the set", which is
    exactly the set of integer vectors sum M^{-j} (b_j - a_j) in any window
    holding them all.
    """
    system = System.of(matrix, digits)
    if not system.is_integer:
        raise ValueError("contact matrices require integer data")
    d = system.dim
    lo, hi = _bounding_box_exact(system)
    # box(G) - box(G) is symmetric: its integer points reach floor(width) each way.
    w = [int((h - l) // 1) for l, h in zip(lo, hi)]
    neg, span = [-b for b in w], [2 * b + 1 for b in w]
    n = math.prod(span)
    dig = _int_array(system.array)
    deltas, mult = _unique_rows((dig[None] - dig[:, None]).reshape(-1, d))
    _check_budget("the contact window", n * len(deltas))
    # Window states in row-major key order, which is lexicographic order.
    window = _unravel(np.arange(n), neg, span)
    rows = _int_product(window, system.matrix, deltas)
    # Successor keys; n is the dead sentinel for successors off the window.
    inside = ((rows >= np.array(neg)) & (rows <= np.array(w))).all(axis=2)
    succ = np.full(inside.shape, n, dtype=np.int64)
    succ[inside] = _ravel(rows[inside], neg, span)
    # Greatest fixed point: keep states with at least one surviving successor.
    # The zero state (the centre key) is dead from the start, like the sentinel.
    alive = np.ones(n + 1, dtype=bool)
    alive[[n // 2, n]] = False
    while True:
        size = alive.sum()
        alive[:n] &= alive[succ].any(axis=1)
        if alive.sum() == size:
            break
    keep = np.flatnonzero(alive[:n])
    # Survivor positions, -1 for dead keys.  Distinct deltas give distinct
    # successors of one state, so every (row, column) pair below is unique.
    pos = np.full(n + 1, -1, dtype=np.int64)
    pos[keep] = np.arange(len(keep))
    cols = pos[succ[keep]]
    hit = cols >= 0
    edges = (np.nonzero(hit)[0], cols[hit], np.broadcast_to(mult, cols.shape)[hit])
    states = window[keep]
    for a in (states, *edges):
        a.flags.writeable = False
    return ContactMatrix(states=CellView(states), edges=edges)


@lru_cache(maxsize=256)
def _tile_report(system) -> "TileReport":
    return tile_check_exact(system, system.digits)


def tile_check_exact(matrix, digits) -> TileReport:
    """Decide whether the digit system generates a tile (measure one).

    The system is a tile iff the Perron radius of the contact matrix T is
    below m = |det M|.  Every column of T sums to at most m: for a column
    state k and a digit a exactly one digit b is congruent to k + a mod M,
    and it fixes the row state M^-1 (k + a - b).  So rho(T) <= m, with
    equality iff some nonempty state set keeps every in-set column sum at
    m (an irreducible class at radius m has all its column sums m).  The
    greatest such set is an integer fixed point: drop every state whose
    column sum over the remaining states is below m until none is dropped.
    The system is a tile iff that set is empty.  No eigenvalue is computed.
    """
    system = System.of(matrix, digits)
    if not lattice.is_expanding(system):
        raise ValueError("matrix must be expanding")
    if not lattice.validate_digits(system, digits):
        raise ValueError("digits must form a residue system for the matrix")
    modulus = abs(system.det)
    contact = contact_matrix(system, system.digits)
    rows, cols, mult = contact.edges

    def col_sums(sel):
        return np.bincount(np.repeat(cols[sel], mult[sel]), minlength=len(contact))

    # Column sums over the remaining states, kept by subtracting the edges of dropped rows.
    col = col_sums(slice(None))
    alive = np.ones(len(contact), dtype=bool)
    while (drop := alive & (col < modulus)).any():
        alive &= ~drop
        col -= col_sums(drop[rows])
    is_tile = not alive.any()
    return TileReport(is_tile=is_tile, modulus=modulus, contact=contact,
                      measure=1 if is_tile else None)


# ---------------------------------------------------------------------------
# self-similarity and covering layers
# ---------------------------------------------------------------------------

def self_similarity_residual(approx: AttractorApprox) -> float:
    """Symmetric-difference fraction between two routes to cells(K).

    cells(K) as built (last-digit recursion M z + s) is compared against
    the first-digit reconstruction {M^{K-1} s + z' : z' in cells(K-1)}.
    The two agree identically for exact integer data; for real shift sets
    the value measures accumulated floating-point drift.
    """
    if approx.depth < 2:
        raise ValueError("self-similarity residual needs depth >= 2")
    system = approx.system
    prev = approximate(system, system.digits, approx.depth - 1)
    d = approx.dim
    if approx.is_integer:
        # Both sides as distinct rows; a row of both appears twice in the union.
        side2 = _int_product(system.array, mat_pow(system.matrix, approx.depth - 1), prev.points)
        _, mult = _unique_rows(np.concatenate([approx.points,
                                               _unique_rows(side2.reshape(-1, d))[0]]))
        return int(np.count_nonzero(mult == 1)) / len(mult)
    side1 = set(approx.cells)
    mk = np.linalg.matrix_power(np.array(approx.matrix, float), approx.depth - 1)
    lead = [mk @ np.array(s, float) for s in approx.shifts]
    side2 = {tuple(round(z[i] + t[i], 12) for i in range(d))
             for z in prev.cells for t in lead}
    return len(side1 ^ side2) / len(side1 | side2)


def shift_cover_layers(approx: AttractorApprox, window=None, per_cell: bool = False):
    """Histogram of covering multiplicities of integer translates.

    Every unit cell (at scale M^{-depth}) lying inside `window` is tested
    against all integer translates of the attractor cover; the returned
    histogram maps layer count -> number of cells.  For a tile the dominant
    count is 1, with deviations confined to cells near the boundary of the
    cover.  `window` is a per-coordinate (lo, hi) integer box, default the
    unit cube.
    """
    if not approx.is_integer:
        raise ValueError("covering layers require integer data")
    d = approx.dim
    if window is None:
        window = tuple((0, 1) for _ in range(d))
    window = tuple((int(a), int(b)) for a, b in window)
    if any(b <= a for a, b in window):
        raise ValueError("window must have positive extent in every coordinate")
    # With M^-depth = P / q, the mapped unit cell M^-depth(c + [0,1]^d) spans
    # (P c)_i plus the box bound of P over [0,1]^d, over q, along coordinate i.
    system = approx.system
    p, q = _inverse_power(system, approx.depth)
    # Candidate sample cells from the corners of M^depth(window).
    mk = mat_pow(system.matrix, approx.depth)
    corners = [mat_vec(mk, c) for c in product(*[(lo, hi) for lo, hi in window])]
    ranges = [range(min(c[i] for c in corners) - 1, max(c[i] for c in corners) + 1)
              for i in range(d)]
    # Translate range big enough that every translate meeting the window appears.
    lo_b, hi_b = _bounding_box_exact(system)
    t_ranges = [range(int((window[i][0] - hi_b[i]) // 1),
                      -int(-(window[i][1] - lo_b[i]) // 1) + 1) for i in range(d)]
    cand = _grid(ranges)
    low, high = _int_product(cand, p, _box_rows(p, [0] * d, [1] * d)).transpose(1, 0, 2)
    q_lo, q_hi = _int_array([[q * a for a, _ in window], [q * b for _, b in window]])
    samples = cand[((q_lo <= low) & (high <= q_hi)).all(axis=1)]
    if not len(samples):
        raise ValueError("window too small: no unit cell fits inside it at this depth")
    shifted = _int_product(_grid(t_ranges), mk)
    # A certified tile admits an exact one-layer stand-in: its cells are a
    # complete residue system mod M^depth.  Otherwise count against the
    # geometric unit-cell cover, where boundary cells may deviate.
    if system.is_residue_system and _tile_report(system).is_tile:
        cover = [(0,) * d]
    else:
        cover = _unit_cell_cover(system, None)
    table = _cover_keys(approx.points, cover)
    # Sample c lies in the translate by t iff c - M^depth t is a touched cell.
    rows = (samples[:, None, :] - shifted[None, :, :]).reshape(-1, d)
    layers = _has_cells(table, rows).reshape(len(samples), -1).sum(axis=1)
    hist = dict(zip(*(a.tolist() for a in np.unique(layers, return_counts=True))))
    if per_cell:
        return hist, dict(zip(map(tuple, samples.tolist()), layers.tolist()))
    return hist


# ---------------------------------------------------------------------------
# rasterization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Raster:
    """Axis-aligned occupancy grid: origin, cell size 1/resolution, counts."""

    origin: tuple
    cell_size: Fraction
    extent: tuple
    occupancy: np.ndarray

    def occupied(self):
        """Sorted tuple of occupied index vectors."""
        return tuple(sorted(map(tuple, np.argwhere(self.occupancy > 0).tolist())))

    @property
    def occupied_count(self) -> int:
        return int(np.count_nonzero(self.occupancy))


def grid_indices(approx: AttractorApprox, resolution: int, origin):
    """floor((M^-depth z - origin) * resolution) for every cell z, exactly.

    With M^-depth = P / q (lattice.inverse_power) and the origin written as
    a / b over one common denominator b, coordinate i of cell z is
    ((P z)_i * b * R - a_i * q * R) // (q * b), formed as one integer
    product: int64 under INT64_SAFE, Python ints (dtype object) past it.
    `origin` entries may be ints, Fractions or floats (taken exactly).
    Returns a (d, n) integer array, one row per coordinate, holding the
    indices of the cells in cell order.
    """
    if not approx.is_integer:
        raise ValueError("exact grid indices require integer data")
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    p, q = _inverse_power(approx.system, approx.depth)
    origin = [Fraction(x) for x in origin]
    b = math.lcm(*(x.denominator for x in origin))
    rows = [[x * b * resolution for x in row] for row in p]
    offsets = [x.numerator * (b // x.denominator) * q * resolution for x in origin]
    num = _int_product(approx.points, rows, [[-x for x in offsets]])[:, 0]
    return num.T // _int_array(q * b)


def rasterize(approx: AttractorApprox, resolution: int, box=None) -> Raster:
    """Mark the raster cells hit by the real-mapped cells of the approximation.

    `resolution` is the number of raster cells per unit length.  `box`
    overrides the certified bounding box (pass a shared box to compare
    rasters across systems cell-exactly).
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    if box is None:
        lo, hi = bounding_box(approx.system, approx.system.digits)
    else:
        lo, hi = box
        lo = tuple(Fraction(x) if approx.is_integer else float(x) for x in lo)
        hi = tuple(Fraction(x) if approx.is_integer else float(x) for x in hi)
    extent = [max(-int(-((h - l) * resolution) // 1), 1) for l, h in zip(lo, hi)]
    occupancy = np.zeros(tuple(extent), dtype=np.int64)
    if approx.is_integer:
        # Clamp before narrowing to int64: far from a caller's box the
        # indices can exceed it.
        idx = np.clip(grid_indices(approx, resolution, lo), 0, np.array(extent)[:, None] - 1)
        np.add.at(occupancy, tuple(idx.astype(np.int64)), 1)
    else:
        a = np.linalg.matrix_power(np.linalg.inv(np.array(approx.matrix, float)),
                                   approx.depth)
        idx = np.floor((approx.points @ a.T - np.array(lo, dtype=float)) * resolution).astype(int)
        np.add.at(occupancy, tuple(np.clip(idx, 0, np.array(extent) - 1).T), 1)
    return Raster(origin=tuple(lo), cell_size=Fraction(1, resolution),
                  extent=tuple(extent), occupancy=occupancy)
