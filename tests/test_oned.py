"""One-dimensional integer tiles: sums, oracle, classification, enumeration."""

import random

import pytest

from tileforge import oned
from tileforge.oned import (
    CollisionError,
    NotSimpleError,
    NotTilingError,
    Progression,
    cancel,
    classify,
    direct_sum,
    enumerate_simple,
    intset_to_segments,
    is_l_set,
    poly_eq,
    poly_mul,
    poly_of_set,
    progression_family,
    segment_poly,
    segments_to_intset,
    tiling_oracle,
)

LINE_SET = (0, 3, 6, 18, 21, 24)


def brute_force_tilers(n):
    """All 0-containing subsets of {0..n-1} tiling {0..n-1} exactly.

    Forced leftmost-hole placement on bitmasks; independent of the
    construction in enumerate_simple.
    """
    out = []
    for extra in range(1 << (n - 1)):
        ymask = (extra << 1) | 1
        if n % bin(ymask).count("1"):
            continue
        covered = ymask
        ok = True
        while covered != (1 << n) - 1:
            hole = ((~covered) & (covered + 1)).bit_length() - 1
            placed = ymask << hole
            if placed & covered or placed >> n:
                ok = False
                break
            covered |= placed
        if ok:
            out.append(tuple(i for i in range(n) if ymask >> i & 1))
    return sorted(out)


# ---------------------------------------------------------------------------
# direct sums and cancellation
# ---------------------------------------------------------------------------

def test_direct_sum_segment():
    assert direct_sum([0, 1, 2], [0, 3, 6]) == tuple(range(9))


def test_direct_sum_line_set():
    assert direct_sum([0, 3, 6], [0, 18]) == LINE_SET


def test_direct_sum_collision():
    with pytest.raises(CollisionError) as exc:
        direct_sum([0, 1], [0, 1])
    assert exc.value.value == 1


def test_cancel_examples():
    assert cancel([0, 1, 2], range(9)) == (0, 3, 6)
    assert cancel([0], [0, 4, 9]) == (0, 4, 9)
    assert cancel([0, 2], [0, 1, 2, 3]) == (0, 1)


def test_cancel_failure():
    with pytest.raises(ValueError):
        cancel([0, 2], [0, 1, 2, 4])


def test_cancel_inverts_direct_sum_random():
    rng = random.Random(5)
    for _ in range(200):
        a = sorted(rng.sample(range(1, 30), rng.randint(1, 4)))
        b = sorted(rng.sample(range(1, 40), rng.randint(1, 4)))
        a = tuple([0] + a)
        b = tuple([0] + b)
        try:
            s = direct_sum(a, b)
        except CollisionError:
            continue
        assert cancel(a, s) == b


# ---------------------------------------------------------------------------
# tiling oracle
# ---------------------------------------------------------------------------

def test_oracle_line_set():
    assert tiling_oracle(LINE_SET) == (36, (0, 1, 2, 9, 10, 11))


def test_oracle_trivial():
    assert tiling_oracle([0]) == (1, (0,))


def test_oracle_negative():
    with pytest.raises(NotTilingError):
        tiling_oracle([0, 1, 3], 64)


def test_oracle_bound_too_small():
    with pytest.raises(ValueError):
        tiling_oracle([0, 5], 3)


def test_oracle_forced_prefix_is_minimal():
    # first completed segment is minimal: {0,2} tiles {0..3}, not anything shorter
    assert tiling_oracle([0, 2]) == (4, (0, 1))


# ---------------------------------------------------------------------------
# l-sets
# ---------------------------------------------------------------------------

def test_l_set_examples():
    assert is_l_set([0, 1, 2, 9, 10, 11], 3)
    assert not is_l_set([0, 1, 3], 2)
    assert is_l_set([0, 1, 2, 3, 4, 5], 3)
    with pytest.raises(ValueError):
        is_l_set([0, 1], 0)


def test_shift_sets_are_l_sets():
    # for every enumerated tiler with at least two elements and minimal gap
    # l, the oracle's shift set is an l-set
    for n in range(2, 16):
        for y in enumerate_simple(n):
            if len(y) < 2:
                continue
            _, shifts = tiling_oracle(y)
            gap = y[1]
            assert is_l_set(shifts, gap), (y, shifts, gap)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_line_set():
    assert classify(LINE_SET) == [Progression(3, 3), Progression(18, 2)]


def test_classify_full_segment_maximal_run():
    assert classify([0, 1, 2, 3]) == [Progression(1, 4)]


def test_classify_two_progressions():
    assert classify([0, 1, 4, 5]) == [Progression(1, 2), Progression(4, 2)]


def test_classify_not_simple():
    with pytest.raises(NotSimpleError):
        classify([0, 1, 2, 5, 6, 7])  # chain 3 does not divide 5
    with pytest.raises(NotSimpleError):
        classify([0, 1, 3])


def test_classify_roundtrip_on_enumerated():
    for n in (6, 8, 12, 16):
        for y in enumerate_simple(n):
            if y == (0,):
                continue
            progs = classify(y)
            acc = (0,)
            for p in progs:
                acc = direct_sum(acc, p.elements())
            assert acc == y


def test_classify_idempotent_canonical():
    # re-summing and re-classifying gives the same decomposition
    progs = classify([0, 1, 2, 3])
    acc = (0,)
    for p in progs:
        acc = direct_sum(acc, p.elements())
    assert classify(acc) == progs


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def test_poly_of_set():
    assert poly_of_set([0, 3, 6]) == (1, 0, 0, 1, 0, 0, 1)


def test_poly_product_segment_identity():
    assert poly_eq(poly_mul(segment_poly(2), segment_poly(2, 2)), segment_poly(4))


def test_poly_square_not_direct():
    assert poly_mul(poly_of_set([0, 1]), poly_of_set([0, 1])) == (1, 2, 1)


def test_segment_factorization_identity_all_tuples():
    # product over the chain family of P_d(z^a) equals P_N(z), for every
    # ordered factor tuple with product at most 64
    def tuples(n):
        if n == 1:
            yield ()
            return
        for f in range(2, n + 1):
            if n % f == 0:
                for rest in tuples(n // f):
                    yield (f,) + rest

    for n in range(2, 65):
        for ds in tuples(n):
            acc = (1,)
            for prog in progression_family(ds):
                acc = poly_mul(acc, segment_poly(prog.d, prog.a))
            assert poly_eq(acc, segment_poly(n)), (n, ds)


# ---------------------------------------------------------------------------
# progression families and enumeration
# ---------------------------------------------------------------------------

def test_progression_family_line():
    fam = progression_family([3, 3, 2, 2])
    assert fam == [Progression(1, 3), Progression(3, 3),
                   Progression(9, 2), Progression(18, 2)]
    acc = (0,)
    for p in fam:
        acc = direct_sum(acc, p.elements())
    assert acc == tuple(range(36))


def test_progression_family_small():
    assert progression_family([2, 2]) == [Progression(1, 2), Progression(2, 2)]
    assert progression_family([6]) == [Progression(1, 6)]
    with pytest.raises(ValueError):
        progression_family([2, 1])


def test_enumerate_examples():
    assert enumerate_simple(4) == [(0,), (0, 1), (0, 1, 2, 3), (0, 2)]
    assert enumerate_simple(6) == [(0,), (0, 1), (0, 1, 2), (0, 1, 2, 3, 4, 5),
                                   (0, 2, 4), (0, 3)]
    assert enumerate_simple(1) == [(0,)]


@pytest.mark.parametrize("n", list(range(1, 15)))
def test_enumerate_matches_brute_force(n):
    assert enumerate_simple(n) == brute_force_tilers(n)


def _ordered_factorizations(n):
    """All ordered tuples of factors >= 2 with the given product."""
    if n == 1:
        yield ()
        return
    for f in range(2, n + 1):
        if n % f == 0:
            for rest in _ordered_factorizations(n // f):
                yield (f,) + rest


def reference_enumerate(n):
    """enumerate_simple as first written: the direct sum of every subset of
    progression_family(f), over every ordered factorization f of n, with the
    duplicates removed."""
    found = {(0,)}
    for factors in _ordered_factorizations(n):
        family = progression_family(factors)
        for pick in range(1, 1 << len(family)):
            acc = (0,)
            for i, prog in enumerate(family):
                if pick >> i & 1:
                    acc = direct_sum(acc, prog.elements())
            found.add(tuple(acc))
    return sorted(found)


@pytest.mark.parametrize("ns", [range(1, 101), range(101, 201), [720]])
def test_enumerate_matches_reference(ns):
    for n in ns:
        sets = enumerate_simple(n)
        assert sets == reference_enumerate(n), n
        assert oned.enumerated_elements(n) == sum(map(len, sets)), n


def test_enumerated_elements_of_large_segments():
    # The size of the output, counted without building it.
    assert oned.enumerated_elements(720) == 161_820
    assert oned.enumerated_elements(5040) == 5_674_176
    assert oned.enumerated_elements(65536) == 43_046_721
    with pytest.raises(ValueError):
        oned.enumerated_elements(0)


def test_classify_oracle_cross_agreement():
    # sampled 0-containing subsets of {0..17}: classification succeeds
    # exactly when the bounded tiling search does
    rng = random.Random(17)
    masks = [rng.randrange(1 << 17) for _ in range(4000)]
    for extra in masks:
        y = tuple(i for i in range(18) if ((extra << 1) | 1) >> i & 1)
        try:
            classify(y)
            simple = True
        except NotSimpleError:
            simple = False
        try:
            tiling_oracle(y)
            tiles = True
        except NotTilingError:
            tiles = False
        assert simple == tiles, y


# ---------------------------------------------------------------------------
# segment sets
# ---------------------------------------------------------------------------

def test_segments_to_intset_basic():
    assert segments_to_intset([(0, 1), (3, 1)]) == (0, 3)


def test_segments_to_intset_line_figure():
    segments = [(y, 1) for y in LINE_SET]
    assert segments_to_intset(segments) == LINE_SET


def test_segments_rescale():
    assert segments_to_intset([(0, 2), (6, 2)]) == (0, 3)


def test_segments_length_mismatch():
    with pytest.raises(ValueError):
        segments_to_intset([(0, 1), (2, 2)])


def test_segments_overlap_rejected():
    with pytest.raises(ValueError):
        segments_to_intset([(0, 2), (1, 2)])


def test_segments_roundtrip():
    for y in [(0,), (0, 1), LINE_SET, (0, 2, 4)]:
        assert segments_to_intset(intset_to_segments(y)) == y


def test_as_intset_reports_negative_elements():
    with pytest.raises(ValueError, match="set elements must be nonnegative"):
        oned.as_intset([-1, 0, 2])
    with pytest.raises(ValueError, match="set must contain 0 as its first element"):
        oned.as_intset([1, 2])
