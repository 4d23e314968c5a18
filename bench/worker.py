"""One measured pass of a benchmark workload, in a fresh interpreter.

Started by run.py with the checkout's `src` on PYTHONPATH.  It imports
tileforge (and, for box_sweep, the scipy modules tileforge imports lazily),
builds the workload's seeded ops, and runs them in one sequential closed loop until
`--seconds` of wall time have passed (or exactly `--ops` ops).  Each op is
timed alone; its output is then checked, untimed, against an answer known
by construction.  A workload's warm-up ops run and are checked first, but
only the ops after them enter the time metrics.  Peak RSS is read when a
fixed number of ops is done, so it does not move with how far a run gets.
The last stdout line is a JSON summary.

An op is a (call, check) pair: `call()` runs tileforge and returns the
output, `check(output)` returns None or a failure message.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import io
import itertools
import json
import math
import random
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import inputs
from tracer import Recorder

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import tileforge  # noqa: E402
from tileforge import attractor, boxtile, cli, haar, lattice, oned  # noqa: E402,F401

if Path(tileforge.__file__).resolve().parent != SRC / "tileforge":
    raise SystemExit(f"tileforge imported from {tileforge.__file__}, not from {SRC}")


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _expect(condition, message):
    return None if condition else message


# ---------------------------------------------------------------------------
# box_sweep: criterion-3 forms through the whole box pipeline
# ---------------------------------------------------------------------------

def box_sweep_order(rng):
    """Every criterion-3 form once, interleaved so any prefix is a stratified sample.

    Forms are grouped into cost classes (n and the multiset of p; cost
    follows the cell count |det|^K).  The seed shuffles each class, and
    member i of class number j, of size c, is placed at (i + u_j) / c with
    the phases u_j = frac(j * golden ratio) spread over [0, 1).  Every prefix
    of the order then holds about the same share of every class, so the mix
    a run measures does not depend on how far it gets.
    """
    classes = {}
    for p, sign in inputs.box_forms():
        classes.setdefault((len(p), tuple(sorted(p))), []).append((p, sign))
    keyed = []
    for j, key in enumerate(sorted(classes)):
        members = classes[key]
        rng.shuffle(members)
        phase = (j * 0.6180339887498949) % 1.0
        keyed.extend(((i + phase) / len(members), key, form) for i, form in enumerate(members))
    keyed.sort()
    return [form for _, _, form in keyed]


def box_sweep_ops(rng, _workdir):
    # tileforge imports these lazily in is_parallelepiped; load them before the first op.
    import scipy.ndimage  # noqa: F401
    import scipy.spatial  # noqa: F401
    while True:
        for p, sign in box_sweep_order(rng):
            yield Op("box_form", _box_call(p, sign), _box_check(p, sign))


def _box_call(p, sign):
    def call():
        form = boxtile.BoxForm(p, sign)
        matrix = boxtile.build_cyclic_matrix(form)
        digits = boxtile.box_digits(form)
        valid = lattice.validate_digits(matrix, digits)
        report = attractor.tile_check_exact(matrix, digits)
        depth = boxtile.suggested_depth(matrix, digits)
        approx = attractor.approximate(matrix, digits, depth)
        is_box = boxtile.is_parallelepiped(approx).is_box
        return matrix, digits, valid, report, depth, len(approx.cells), is_box
    return call


def _box_check(p, sign):
    def check(out):
        matrix, digits, valid, report, depth, cells, is_box = out
        m = inputs.cyclic_matrix(p, sign)
        return (_expect(matrix == m and tuple(digits) == inputs.box_digit_set(p, sign),
                        "wrong cyclic matrix or digit set")
                or _expect(valid, "digits rejected")
                or _expect(report.is_tile and not report.indeterminate,
                           f"tile verdict is_tile={report.is_tile} "
                           f"indeterminate={report.indeterminate}")
                or _expect(is_box, "not detected as a box")
                or _expect(cells == abs(inputs.det(m)) ** depth,
                           f"{cells} cells at depth {depth}"))
    return check


# ---------------------------------------------------------------------------
# tile_decide: tile_check_exact on conjugated tiles and scaled non-tiles
# ---------------------------------------------------------------------------

def _forms(n, max_prod, coprime_to=1):
    return [(p, s) for p, s in inputs.box_forms()
            if len(p) == n and math.prod(p) <= max_prod and math.gcd(math.prod(p), coprime_to) == 1]


def _box_system(form):
    return inputs.cyclic_matrix(*form), inputs.box_digit_set(*form)


def _conjugated(rng, matrix, digits, steps):
    u, uinv = inputs.unimodular(rng, len(matrix), steps)
    return inputs.conjugate(matrix, digits, u, uinv)


def _decide_strata():
    """One round of tile_decide: (name, draw(rng) -> (matrix, digits, is_tile))."""
    forms2, forms3 = _forms(2, 16), _forms(3, 16)
    small2, small3 = _forms(2, 8), _forms(3, 8, coprime_to=3)
    tiny3 = _forms(3, 4, coprime_to=5)

    def dragon(rng):
        return (*_conjugated(rng, *inputs.TWINDRAGON, rng.randint(1, 3)), True)

    def box_tile(forms, steps):
        def draw(rng):
            return (*_conjugated(rng, *_box_system(rng.choice(forms)), rng.randint(*steps)), True)
        return draw

    def dragon_scaled(rng):
        m, d = inputs.TWINDRAGON
        d = inputs.scale_digits(d, rng.choice((3, 5, 7)))
        return (*_conjugated(rng, m, d, rng.randint(1, 3)), False)

    def box_scaled(forms, ks, steps):
        def draw(rng):
            m, d = _box_system(rng.choice(forms))
            d = inputs.scale_digits(d, inputs.coprime_scale(rng, m, ks))
            return (*_conjugated(rng, m, d, rng.randint(*steps)), False)
        return draw

    return (
        ("2d-dragon-tile", dragon),
        ("2d-box-tile", box_tile(forms2, (1, 3))),
        ("2d-dragon-scaled", dragon_scaled),
        ("2d-box-scaled", box_scaled(small2, (3, 5), (1, 3))),
        ("3d-box-tile", box_tile(forms3, (1, 2))),
        ("3d-box-scaled-3", box_scaled(small3, (3,), (1, 2))),
        ("3d-box-tile", box_tile(forms3, (1, 2))),
        ("3d-box-scaled-5", box_scaled(tiny3, (5,), (1, 1))),
    )


def tile_decide_ops(rng, _workdir):
    strata = _decide_strata()
    while True:
        for kind, draw in strata:
            matrix, digits, label = draw(rng)
            yield Op(kind, _decide_call(matrix, digits), _decide_check(label))


def _decide_call(matrix, digits):
    return lambda: attractor.tile_check_exact(matrix, digits)


def _decide_check(label):
    def check(report):
        return (_expect(not report.indeterminate, "indeterminate verdict")
                or _expect(report.is_tile == label,
                           f"is_tile={report.is_tile}, expected {label}"))
    return check


# ---------------------------------------------------------------------------
# plane_render: 2-D commands through cli.main, and product rasters
# ---------------------------------------------------------------------------

def _json(value):
    return json.dumps([list(r) for r in value], separators=(",", ""))


def _system_args(matrix, digits):
    return ["--matrix", _json(matrix), "--digits", _json(digits)]


def _cli(argv):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return call


def _cli_check(expected_code, check_report):
    def check(out):
        code, stdout, stderr = out
        if code != expected_code:
            return f"exit code {code}, expected {expected_code}: {stderr.strip()[:200]}"
        return check_report(json.loads(stdout))
    return check


def _read_ppm(path):
    """Non-white pixels of a binary PPM as a set of (row, column)."""
    data = Path(path).read_bytes()
    magic, size, depth, pixels = data.split(b"\n", 3)
    width, height = map(int, size.split())
    if magic != b"P6" or depth != b"255" or len(pixels) != width * height * 3:
        raise ValueError("malformed PPM")
    img = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width, 3)
    return set(map(tuple, np.argwhere(np.any(img != 255, axis=2)).tolist()))


class _Reference:
    """Untimed reference rasters, memoised per system (they are the benchmark's own)."""

    def __init__(self):
        self._memo = {}

    def raster(self, matrix, digits, depth, resolution):
        key = (matrix, digits, depth, resolution)
        if key not in self._memo:
            cells = inputs.attractor_cells(matrix, digits, depth)
            self._memo[key] = inputs.raster_cells(matrix, cells, depth, resolution)
        return self._memo[key]


def _plain_pixels(base):
    top = max(gy for _, gy in base)
    left = min(gx for gx, _ in base)
    return {(top - gy, gx - left) for gx, gy in base}


def _tiling_pixels(base, resolution, window):
    """Pixels of the window covered by integer translates of the raster cells."""
    (x0, x1), (y0, y1) = window
    width, height = (x1 - x0) * resolution, (y1 - y0) * resolution
    pixels = set()
    for gx, gy in base:
        px0, py0 = gx - x0 * resolution, gy - y0 * resolution
        for tx in range(-(px0 // resolution), (width - 1 - px0) // resolution + 1):
            for ty in range(-(py0 // resolution), (height - 1 - py0) // resolution + 1):
                pixels.add((height - 1 - (py0 + ty * resolution), px0 + tx * resolution))
    return pixels


#: Raster Gram settings of acceptance criterion 8, and its tolerance.
GRAM_RESOLUTION, GRAM_DEPTH, GRAM_TOL = 128, 16, 0.05
#: Depths of `tile check`, plain render and tiling render by |det M|: 256, 4096
#: and 1024 cells.  At the even check depths M^K is a multiple of the identity
#: for every system used, so the cost of the check does not depend on U.
DEPTHS = {2: (8, 12, 10), 4: (4, 6, 5)}
TILING_WINDOW = ((0, 2), (0, 2))
#: Systems of plane_render (the twindragon and three seeded conjugates), and
#: the ops of its first round: three commands per system, the raster Gram
#: and four extras.  That round meets every system cold; the rounds after it
#: re-read the caches, and only they enter the time metrics.
PLANE_SYSTEMS = 4
PLANE_WARMUP = 3 * PLANE_SYSTEMS + 5


def plane_render_ops(rng, workdir):
    ref = _Reference()
    ppm = str(workdir / "render.ppm")
    systems = [inputs.TWINDRAGON]
    det2or4 = [f for f in _forms(2, 4) if math.prod(f[0]) in (2, 4)]
    while len(systems) < PLANE_SYSTEMS:   # distinct, so that each first query is cold
        base = inputs.TWINDRAGON if rng.random() < 0.5 else _box_system(rng.choice(det2or4))
        system = _conjugated(rng, *base, rng.randint(1, 2))
        if system not in systems:
            systems.append(system)
    nontiles = []
    for base in (inputs.TWINDRAGON, _box_system(rng.choice(_forms(2, 2)))):
        m, d = base
        nontiles.append(_conjugated(rng, m, inputs.scale_digits(d, 3), rng.randint(1, 2)))
    box_forms = [rng.choice(_forms(2, 16)) for _ in range(2)]
    products = [_product_case(rng, m1, m2) for m1, m2 in ((2, 2), (2, 4), (4, 2), (4, 4))]

    per_system = []
    for matrix, digits in systems:
        per_system.extend(_system_ops(ref, ppm, matrix, digits, *DEPTHS[abs(inputs.det(matrix))]))
    gram = Op("haar-gram-raster",
              _cli(["haar", "gram", *_system_args(*inputs.TWINDRAGON), "--method", "raster",
                    "--resolution", str(GRAM_RESOLUTION), "--depth", str(GRAM_DEPTH)]),
              _cli_check(0, _gram_check(GRAM_TOL)))
    extras = [[
        Op("haar-gram-exact",
           _cli(["haar", "gram", *_system_args(*_box_system(box_forms[r])), "--method", "exact"]),
           _cli_check(0, _gram_check(0.0))),
        Op("tile-check-nontile",
           _cli(["tile", "check", *_system_args(*nontiles[r]), "--depth", "8"]),
           _cli_check(1, _nontile_check)),
        _product_op(products[2 * r]),
        _product_op(products[2 * r + 1]),
    ] for r in (0, 1)]
    extras[0].insert(0, gram)
    for r in itertools.count():
        yield from per_system
        yield from extras[r % 2]


def _system_ops(ref, ppm, matrix, digits, check_depth, plain_depth, tiling_depth):
    args = _system_args(matrix, digits)
    res_plain, res_tiling = 64, 32
    window = ",".join(f"{a}:{b}" for a, b in TILING_WINDOW)

    def plain_check(report):
        base = ref.raster(matrix, digits, plain_depth, res_plain)
        return (_expect(report["occupied_pixels"] == len(base),
                        f"{report['occupied_pixels']} occupied pixels, expected {len(base)}")
                or _expect(_read_ppm(ppm) == _plain_pixels(base), "render pixels differ"))

    def tiling_check(report):
        base = ref.raster(matrix, digits, tiling_depth, res_tiling)
        return _expect(_read_ppm(ppm) == _tiling_pixels(base, res_tiling, TILING_WINDOW),
                       "tiling pixels differ")

    return [
        Op("tile-check",
           _cli(["tile", "check", *args, "--depth", str(check_depth)]),
           _cli_check(0, _tile_check)),
        Op("render",
           _cli(["tile", "render", *args, "--depth", str(plain_depth),
                 "--resolution", str(res_plain), "--out", ppm]),
           _cli_check(0, plain_check)),
        Op("render-tiling",
           _cli(["tile", "render", *args, "--depth", str(tiling_depth),
                 "--resolution", str(res_tiling), "--out", ppm, f"--tiling={window}"]),
           _cli_check(0, tiling_check)),
    ]


def _tile_check(report):
    # A tile's depth-K cells are a complete residue system mod M^K, so every
    # unit cell of the window is covered exactly once.
    return (_expect(report["is_tile"] and not report["indeterminate"],
                    f"is_tile={report['is_tile']} indeterminate={report['indeterminate']}")
            or _expect(report["measure_upper"] == "1", f"measure {report['measure_upper']}")
            or _expect(set(report["layers_histogram"]) == {"1"},
                       f"layers {report['layers_histogram']}"))


def _nontile_check(report):
    return _expect(not report["is_tile"] and not report["indeterminate"],
                   f"is_tile={report['is_tile']} indeterminate={report['indeterminate']}")


def _gram_check(tol):
    def check(report):
        dev = max(report["max_offdiag"], report["max_diag_deviation"])
        return _expect(dev <= tol, f"Gram deviation {dev} above {tol}")
    return check


#: Depth K with (m1 m2)^K = 4096 cells for each product of 1-D factors, and
#: the raster resolution of acceptance criterion 9.
PRODUCT_DEPTH = {4: 6, 8: 4, 16: 3}
PRODUCT_RESOLUTION = 16


def _product_case(rng, m1, m2):
    """Two seeded 1-D digit systems, each with a certified box [0, max D / (m - 1)]."""
    factors = []
    for m in (m1, m2):
        digits = tuple(sorted((r + m * rng.randint(0, 2),) if r else (0,) for r in range(m)))
        factors.append((m, digits, Fraction(0), Fraction(max(d for (d,) in digits), m - 1)))
    return factors


def _product_op(factors):
    (m1, s1, lo1, hi1), (m2, s2, lo2, hi2) = factors
    depth, resolution = PRODUCT_DEPTH[m1 * m2], PRODUCT_RESOLUTION
    box = ((lo1, lo2), (hi1, hi2))

    def call():
        matrix, shifts = boxtile.tensor_product(((m1,),), s1, ((m2,),), s2)
        approx = attractor.approximate(matrix, shifts, depth)
        return attractor.rasterize(approx, resolution, box=box)

    def check(raster):
        xs = inputs.line_raster(m1, s1, depth, resolution, lo1, hi1)
        ys = inputs.line_raster(m2, s2, depth, resolution, lo2, hi2)
        return _expect(set(raster.occupied()) == {(x, y) for x in xs for y in ys},
                       "product raster is not the cartesian product of its factors")

    return Op("product-raster", call, check)


# ---------------------------------------------------------------------------
# oned_sweep: classify + tiling_oracle, with some enumerate_simple
# ---------------------------------------------------------------------------

#: Composite segment lengths for enumerate_simple, cycled in seeded order.
ENUMERATE_N = (48, 60, 64, 72, 96, 120)
#: Rounds of set ops between two enumerate_simple calls.
ENUMERATE_EVERY = 50


def oned_sweep_ops(rng, _workdir):
    sizes = list(ENUMERATE_N)
    rng.shuffle(sizes)
    expected = {}
    for r in itertools.count():
        for _ in range(6):
            ys = inputs.random_subset(rng, 24, 96)
            yield Op("oned-random", _oned_call(ys), _oned_check(ys, None))
        for _ in range(4):
            ys, length = inputs.chain_tiler(rng, 4096)
            yield Op("oned-chain", _oned_call(ys), _oned_check(ys, length))
        if r % ENUMERATE_EVERY == ENUMERATE_EVERY - 1:
            n = sizes[(r // ENUMERATE_EVERY) % len(sizes)]
            if n not in expected:
                expected[n] = inputs.segment_tilers(n)
            yield Op("oned-enumerate", lambda n=n: oned.enumerate_simple(n),
                     _enumerate_check(n, expected[n]))


def _oned_call(ys):
    def call():
        try:
            progressions = oned.classify(ys)
        except oned.NotSimpleError:
            progressions = None
        try:
            tiling = oned.tiling_oracle(ys)
        except oned.NotTilingError:
            tiling = None
        return progressions, tiling
    return call


def _oned_check(ys, segment):
    """segment: the length a chain tiler tiles by construction, None if unknown."""
    def check(out):
        progressions, tiling = out
        if (progressions is None) != (tiling is None):
            return f"classify and tiling_oracle disagree on {ys}"
        if segment is not None and tiling is None:
            return f"chain tiler {ys} of {{0..{segment - 1}}} rejected"
        if tiling is None:
            return None
        n, shifts = tiling
        if not inputs.is_direct_sum([ys, shifts], range(n)):
            return f"oracle shifts do not rebuild {{0..{n - 1}}}"
        steps = [(p.a, p.d) for p in progressions]
        parts = [range(0, a * d, a) for a, d in steps]
        chain = all(b % (a * d) == 0 for (a, d), (b, _) in zip(steps, steps[1:]))
        return (_expect(inputs.is_direct_sum(parts, ys), "progressions do not sum to the set")
                or _expect(chain, "progressions break the chain condition"))
    return check


def _enumerate_check(n, tilers):
    def check(sets):
        return (_expect(list(sets) == sorted(set(sets)), "sets not sorted and distinct")
                or _expect(set(sets) == tilers,
                           f"enumerate_simple({n}) differs from the chain construction")
                or _expect(all(inputs.tiles_segment(s, n) for s in sets),
                           f"a set of enumerate_simple({n}) does not tile {{0..{n - 1}}}"))
    return check


class Workload(NamedTuple):
    ops: Callable        # (rng, workdir) -> iterator of Op
    warmup: int          # leading ops left out of the time metrics
    rss_at: int          # ops done when peak RSS is read; every run gets well past it


WORKLOADS = {
    "box_sweep": Workload(box_sweep_ops, 0, 200),
    "plane_render": Workload(plane_render_ops, PLANE_WARMUP, 100),
    "tile_decide": Workload(tile_decide_ops, 0, 200),
    "oned_sweep": Workload(oned_sweep_ops, 0, 10000),
}


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------

def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, max_ops, recorder, workdir):
    spec = WORKLOADS[workload]
    ops = spec.ops(random.Random(seed), workdir)
    times = []
    ok = []
    failures = []
    rss = None
    # `tile check` commands that are the first query of their system, i.e.
    # run with tileforge's caches cold for that system.
    seen, cold_checks = set(), []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if len(times) >= (max_ops or math.inf) or (
                max_ops is None and len(times) > spec.warmup
                and time.perf_counter() - start >= seconds):
            break
        if op.kind == "tile-check" and op not in seen:
            seen.add(op)
            cold_checks.append(i)
        if recorder is not None:
            recorder.op_id = i
        t0 = time.perf_counter()
        try:
            out = op.call()
            error = None
        except Exception as exc:  # an unexpected exception is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:  # malformed output is a wrong answer
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        # Free the output now, so that the next op's timer does not pay for it.
        out = None
        if error is not None and len(failures) < 10:
            failures.append(f"op {i} ({op.kind}): {error}")
        ok.append(error is None)
        if len(times) == spec.rss_at:
            rss = peak_rss_mb()
    wall = time.perf_counter() - start
    skip = spec.warmup if len(times) > spec.warmup else 0
    measured = sorted(times[skip:])
    return {
        "cold_checks": cold_checks,
        "attempted": len(times),
        "failed": ok.count(False),
        "failures": failures,
        "timed_s": sum(times),
        "wall_s": wall,
        "measured_ops": len(measured),
        "ops_per_s": sum(ok[skip:]) / sum(measured),
        "op_p50_ms": 1e3 * percentile(measured, 0.5),
        # Only with at least ten samples beyond the 90th percentile.
        "op_p90_ms": 1e3 * percentile(measured, 0.9) if len(measured) >= 100 else None,
        # A short run (say, --ops) that never reaches rss_at reads it at its end.
        "peak_rss_mb": rss if rss is not None else peak_rss_mb(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--ops", type=int, help="run exactly this many ops instead")
    ap.add_argument("--trace", help="record spans and write them to this file")
    ap.add_argument("--workdir", required=True, help="scratch directory for render output")
    args = ap.parse_args(argv)
    recorder = None
    if args.trace:
        recorder = Recorder()
        recorder.install()
    result = run(args.workload, args.seed, args.seconds, args.ops, recorder, Path(args.workdir))
    if recorder is not None:
        layers = recorder.metrics(result["timed_s"])
        cold = result["cold_checks"]
        layers["attractor.tile_check_exact.calls_per_cold_tile_check"] = (
            recorder.calls("attractor.tile_check_exact", cold) / len(cold) if cold else 0)
        result["layers"] = layers
        recorder.write(args.trace)
    result["versions"] = {"python": sys.version.split()[0], "numpy": np.__version__,
                          "scipy": importlib.metadata.version("scipy"),
                          "tileforge": tileforge.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
