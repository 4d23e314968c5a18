"""Command-line front end: tile checks, box tools, Haar reports, renders.

Commands
    tile check | measure | render
    box build | digits | detect
    haar build | gram
    oned oracle | classify | enumerate | lset
    product

All reports are deterministic JSON on stdout (sorted keys, two-space
indent); images are binary PPM (P6).  Exit codes: 0 success, 1 verified
negative (not a tile, not a box, no tiling, not simple, not an l-set),
2 invalid input, 3 resource cap hit.  The environment variable
TILEFORGE_MAX_CELLS (a positive integer) caps the attractor cell budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache

import numpy as np

from . import attractor, boxtile, haar, lattice, oned

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3

#: Fixed render palette, cycled per translate in deterministic order.
PALETTE = (
    (31, 119, 180), (255, 127, 14), (44, 160, 44), (214, 39, 40),
    (148, 103, 189), (140, 86, 75), (227, 119, 194), (127, 127, 127),
    (188, 189, 34), (23, 190, 207), (174, 199, 232), (255, 187, 120),
)


class InputError(ValueError):
    """Bad command-line or problem-spec input (exit code 2)."""


def _emit(report) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def _parse_json_field(text, name):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON for {name}: {exc}") from exc


def _parse_int_list(text, name):
    try:
        return [int(x) for x in str(text).replace(",", " ").split()]
    except ValueError as exc:
        raise InputError(f"{name} must be a comma-separated integer list") from exc


def _load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError("problem spec must be a JSON object")
    return spec


#: The required and the optional fields of each spec kind.
_SPEC_FIELDS = {
    "attractor": ({"matrix"}, {"digits", "shifts", "params"}),
    "boxform": ({"p"}, {"sign", "params"}),
    "oned": ({"set"}, {"l", "params"}),
}


def _validate_spec(spec):
    kind = spec.get("kind")
    if kind not in _SPEC_FIELDS:
        raise InputError(f"spec kind must be one of {sorted(_SPEC_FIELDS)}, got {kind!r}")
    required, optional = _SPEC_FIELDS[kind]
    allowed = required | optional | {"kind"}
    missing = required - spec.keys()
    if missing:
        raise InputError(f"spec kind {kind!r} requires fields {sorted(missing)}")
    extra = spec.keys() - allowed
    if extra:
        raise InputError(f"spec kind {kind!r} does not take fields {sorted(extra)}")
    if not isinstance(spec.get("params", {}), dict):
        raise InputError(f"spec params must be a JSON object, got {spec['params']!r}")
    return spec


def _integral(x):
    """int(x) for an integer or an integral float; ValueError for anything else."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"entry {x!r} is not a number")
    if isinstance(x, float) and not x.is_integer():
        raise ValueError(f"entry {x!r} is not an integer")
    return int(x)


def _int_system(matrix, digits):
    """The integer System of JSON values, and its digits in the given order as int
    tuples; a scalar digit is a vector of length one.  InputError otherwise."""
    try:
        digits = [v if hasattr(v, "__len__") else (v,) for v in digits]
        system = lattice.System.of(matrix, digits)
        if not system.is_integer:
            raise ValueError("entries must be integers")
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix/digits must be integer arrays: {exc}") from exc
    return system, [tuple(map(int, v)) for v in digits]


def _spec_of(args, spec, kind, article="a"):
    """The --spec content, which must be of the given kind; {} without --spec.

    `spec` is the --spec file's content when the caller has read it already.
    """
    if not getattr(args, "spec", None):
        return {}
    spec = _validate_spec(_load_spec(args.spec) if spec is None else spec)
    if spec.get("kind") != kind:
        raise InputError(f"this command needs {article} {kind} problem spec")
    return spec


def _matrix_digits_from(args, spec=None):
    """System, digits in the given order, and params, from --spec plus inline
    flags (flags win)."""
    spec = _spec_of(args, spec, "attractor", "an")
    matrix = spec.get("matrix")
    digits = spec.get("digits") or spec.get("shifts")
    if getattr(args, "matrix", None):
        matrix = _parse_json_field(args.matrix, "--matrix")
    if getattr(args, "digits", None):
        digits = _parse_json_field(args.digits, "--digits")
    if getattr(args, "shifts", None):
        digits = _parse_json_field(args.shifts, "--shifts")
    if matrix is None:
        raise InputError("a matrix is required (--matrix or --spec)")
    if digits is None:
        raise InputError("a digit/shift set is required (--digits or --spec)")
    return (*_int_system(matrix, digits), spec.get("params", {}))


def _positive(args, params, name, default=None):
    """--name, else params[name], else default: None or a positive integer (else exit 2)."""
    value = getattr(args, name)
    if value is None and name not in params:
        return default
    if (value := _integral(params[name] if value is None else value)) <= 0:
        raise InputError(f"{name} must be positive, got {value}")
    return value


def _boxform_from(args, spec=None):
    spec = _spec_of(args, spec, "boxform")
    p = spec.get("p")
    sign = spec.get("sign", 1)
    if getattr(args, "p", None):
        p = _parse_int_list(args.p, "-p")
    if getattr(args, "sign", None):
        sign = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}.get(args.sign)
        if sign is None:
            raise InputError("--sign must be + or -")
    if p is None:
        raise InputError("box commands need -p (or a boxform spec)")
    if not isinstance(p, list):
        raise InputError(f"p must be a list of integers, got {p!r}")
    form = boxtile.BoxForm(tuple(map(_integral, p)), _integral(sign))
    attractor._check_budget("the box digit set", math.prod(form.p))
    return form


# ---------------------------------------------------------------------------
# tile commands
# ---------------------------------------------------------------------------

def cmd_tile_check(args) -> int:
    system, digits, params = _matrix_digits_from(args)
    depth = _positive(args, params, "depth", 10)
    if not lattice.validate_digits(system, digits):
        raise InputError("digits are not a residue system for the matrix")
    # measure_upper and shift_cover_layers read the same cached report.
    report = attractor._tile_report(system)
    mu = attractor.measure_upper(system, digits, depth)
    approx = attractor.approximate(system, system.digits, depth)
    hist = attractor.shift_cover_layers(approx)
    _emit({
        "kind": "tile_check",
        "matrix": [list(r) for r in system.matrix],
        "digits": [list(v) for v in digits],
        "modulus": report.modulus,
        "is_tile": report.is_tile,
        "indeterminate": report.indeterminate,
        "spectral_radius": report.spectral_radius,
        "contact_states": len(report.contact),
        "depth": depth,
        "measure_upper": str(mu),
        "measure_upper_float": float(mu),
        "layers_histogram": {str(k): v for k, v in sorted(hist.items())},
    })
    return EXIT_OK if report.is_tile else EXIT_NEGATIVE


def cmd_tile_measure(args) -> int:
    system, digits, params = _matrix_digits_from(args)
    depth = _positive(args, params, "depth", 10)
    mu = attractor.measure_upper(system, digits, depth)
    _emit({
        "kind": "tile_measure",
        "matrix": [list(r) for r in system.matrix],
        "digits": [list(v) for v in digits],
        "depth": depth,
        "measure_upper": str(mu),
        "measure_upper_float": float(mu),
    })
    return EXIT_OK


def _parse_window(text):
    try:
        parts = [p.split(":") for p in text.split(",")]
        return tuple((int(a), int(b)) for a, b in parts)
    except (ValueError, TypeError) as exc:
        raise InputError("--tiling window must look like x0:x1,y0:y1") from exc


def write_ppm(path, pixels: np.ndarray) -> None:
    """Write an (h, w, 3) uint8 array as binary PPM (P6)."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.astype(np.uint8).tobytes())


def _blank_image(width, height):
    """A white (height, width, 3) image; its pixels count against the cell budget."""
    attractor._check_budget("the image", width * height)
    return np.full((height, width, 3), 255, dtype=np.uint8)


@attractor._budget_memo(maxsize=16)
def _render(system, depth, resolution, tiling):
    """The read-only (h, w, 3) uint8 image of `tile render` and its occupied
    pixels.  `tiling` is the raw --tiling text, or None for the plain image;
    it is parsed after the cells are built, as a cold render always did.  At
    worst the memo holds 16 images of the cell budget's pixels times 3 bytes."""
    approx = attractor.approximate(system, system.digits, depth)
    gx, gy = attractor.grid_indices(approx, resolution, (0, 0)).astype(np.int64)
    if tiling:
        window = _parse_window(tiling)
        if len(window) != 2:
            raise InputError("--tiling window must be two-dimensional")
        (x0, x1), (y0, y1) = window
        if x1 <= x0 or y1 <= y0:
            raise InputError("--tiling window is empty")
        width, height = (x1 - x0) * resolution, (y1 - y0) * resolution
        img = _blank_image(width, height)
        # Translates whose bounding box meets the window, in sorted order, give
        # the palette index; only those putting a cell pixel g in the window
        # paint: t0 - g // R + k for 0 <= k < t1 - t0 on each axis.
        lo_b, hi_b = attractor.bounding_box(system, system.digits)
        xs = range(x0 - int(hi_b[0] // 1) - 1, x1 - int(lo_b[0] // 1) + 1)
        ys = range(y0 - int(hi_b[1] // 1) - 1, y1 - int(lo_b[1] // 1) + 1)
        # Distinct unit squares and translates as 1-D row-major keys; a
        # translate's key in the box xs x ys is its palette index.
        squares = np.stack([gx, gy], axis=1) // resolution
        lo = squares.min(axis=0).tolist()
        span = [h - a + 1 for h, a in zip(squares.max(axis=0).tolist(), lo)]
        units = attractor._unravel(np.unique(attractor._exact_keys(squares, lo, span)), lo, span)
        attractor._check_budget("the tiling translates", len(units) * (x1 - x0) * (y1 - y0))
        steps = attractor._grid([range(x1 - x0), range(y1 - y0)])
        pairs = (((x0, y0) - units)[:, None] + steps).reshape(-1, 2)
        pairs = pairs[(xs.start <= pairs[:, 0]) & (pairs[:, 0] < xs.stop)
                      & (ys.start <= pairs[:, 1]) & (pairs[:, 1] < ys.stop)]
        indices = np.unique(attractor._exact_keys(pairs, (xs.start, ys.start), (len(xs), len(ys))))
        # Painted last to first so the first keeps each pixel.
        for index in reversed(indices.tolist()):
            tx, ty = xs.start + index // len(ys), ys.start + index % len(ys)
            px = gx + (tx - x0) * resolution
            py = gy + (ty - y0) * resolution
            keep = (0 <= px) & (px < width) & (0 <= py) & (py < height)
            img[height - 1 - py[keep], px[keep]] = PALETTE[index % len(PALETTE)]
    else:
        ox, oy = gx.min(), gy.min()
        width, height = int(gx.max() - ox) + 1, int(gy.max() - oy) + 1
        img = _blank_image(width, height)
        img[height - 1 - (gy - oy), gx - ox] = PALETTE[0]
    img.flags.writeable = False
    return img, int(np.count_nonzero(np.any(img != 255, axis=2)))


def cmd_tile_render(args) -> int:
    system, _, params = _matrix_digits_from(args)
    depth = _positive(args, params, "depth", 12)
    resolution = _positive(args, params, "resolution", 64)
    if system.dim != 2:
        raise InputError("render supports two-dimensional systems")
    img, occupied = _render(system, depth, resolution, args.tiling)
    write_ppm(args.out, img)
    _emit({
        "kind": "render",
        "out": args.out,
        "width": int(img.shape[1]),
        "height": int(img.shape[0]),
        "resolution": resolution,
        "depth": depth,
        "occupied_pixels": occupied,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# box commands
# ---------------------------------------------------------------------------

def _box_report(args):
    """The box form of the arguments and the report fields of its digit set."""
    form = _boxform_from(args)
    digits = boxtile.box_digits(form)
    return form, {"p": list(form.p), "sign": form.sign,
                  "digits": [list(v) for v in digits], "digit_count": len(digits)}


def cmd_box_build(args) -> int:
    form, report = _box_report(args)
    matrix = boxtile.build_cyclic_matrix(form)
    _emit({**report, "kind": "box_build", "matrix": [list(r) for r in matrix],
           "expanding": lattice.is_expanding(matrix)})
    return EXIT_OK


def cmd_box_digits(args) -> int:
    _emit({**_box_report(args)[1], "kind": "box_digits"})
    return EXIT_OK


def cmd_box_detect(args) -> int:
    spec = _load_spec(args.spec) if getattr(args, "spec", None) else None
    if getattr(args, "p", None) or (spec or {}).get("kind") == "boxform":
        form = _boxform_from(args, spec)
        digits = boxtile.box_digits(form)
        system = lattice.System.of(boxtile.build_cyclic_matrix(form), digits)
    else:
        system, digits, _ = _matrix_digits_from(args, spec)
    tol = boxtile._check_tol(args.tol if args.tol is not None else 0.05)
    depth = _positive(args, {}, "depth") or boxtile.suggested_depth(system, digits)
    approx = attractor.approximate(system, system.digits, depth)
    try:
        report = boxtile.is_parallelepiped(approx, tol=tol)
    except boxtile.DegeneratePointCloudError as exc:
        raise InputError(f"degenerate point cloud: {exc}") from exc
    _emit({
        "kind": "box_detect",
        "matrix": [list(r) for r in system.matrix],
        "digits": [list(v) for v in digits],
        "depth": depth,
        "tol": tol,
        "is_box": report.is_box,
        "certified": report.certified,
        "hull_volume": report.hull_volume,
        "fit_volume": report.fit_volume,
        "measure_estimate": report.measure_estimate,
        "edge_vectors": [list(e) for e in report.edge_vectors] if report.edge_vectors else None,
    })
    return EXIT_OK if report.is_box else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# haar commands
# ---------------------------------------------------------------------------

def cmd_haar_build(args) -> int:
    system, digits, _ = _matrix_digits_from(args)
    wavelets = haar.build_wavelets(system, digits)
    _emit({
        "kind": "haar_system",
        "matrix": [list(r) for r in system.matrix],
        "digits": [list(v) for v in digits],
        "generator_count": wavelets.generator_count,
        "basis": [list(v) for v in wavelets.basis.vectors],
        "pieces": [[[k, c] for k, c in row] for row in wavelets.pieces],
    })
    return EXIT_OK


def cmd_haar_gram(args) -> int:
    system, digits, params = _matrix_digits_from(args)
    wavelets = haar.build_wavelets(system, digits)
    method = args.method
    if method == "auto":
        method = "exact" if haar._is_box_system(wavelets) else "raster"
    if method == "exact":
        gram = np.array(haar.exact_gram(wavelets), dtype=float)
        edge_fraction = 0.0
    else:
        resolution = _positive(args, params, "resolution", 64)
        depth = _positive(args, params, "depth", 12)
        gram, edge_fraction = haar.raster_gram(wavelets, resolution, depth)
    n = wavelets.generator_count
    dev = np.abs(gram - np.eye(n))
    off = float(np.max(dev - np.diag(np.diag(dev)))) if n > 1 else 0.0
    _emit({
        "kind": "haar_gram",
        "matrix": [list(r) for r in system.matrix],
        "digits": [list(v) for v in digits],
        "method": method,
        "generator_count": n,
        "max_offdiag": off,
        "max_diag_deviation": float(np.max(np.abs(np.diag(gram) - 1.0))),
        "edge_fraction": edge_fraction,
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# oned commands
# ---------------------------------------------------------------------------

def cmd_oned_oracle(args) -> int:
    y = oned.as_intset(_parse_int_list(args.set, "set"))
    attractor._check_budget("the set", y[-1] + 1)
    if args.n_max is not None:
        attractor._check_budget("the segment", args.n_max)
    report = {"kind": "oned_oracle", "set": list(y)}
    try:
        n, shifts = oned.tiling_oracle(y, args.n_max)
    except oned.NotTilingError as exc:
        _emit({**report, "tiles": False, "bound": exc.n_max})
        return EXIT_NEGATIVE
    _emit({**report, "tiles": True, "segment_length": n, "shifts": list(shifts)})
    return EXIT_OK


def cmd_oned_classify(args) -> int:
    y = oned.as_intset(_parse_int_list(args.set, "set"))
    attractor._check_budget("the set", y[-1] + 1)
    report = {"kind": "oned_classify", "set": list(y)}
    try:
        progressions = oned.classify(y)
    except oned.NotSimpleError as exc:
        _emit({**report, "simple": False, "reason": str(exc)})
        return EXIT_NEGATIVE
    _emit({**report, "simple": True,
           "progressions": [{"a": p.a, "d": p.d} for p in progressions]})
    return EXIT_OK


def cmd_oned_enumerate(args) -> int:
    if args.n < 1:
        raise InputError("N must be at least 1")
    attractor._check_budget("the segment", args.n)
    attractor._check_budget("the enumeration", oned.enumerated_elements(args.n))
    sets = oned.enumerate_simple(args.n)
    _emit({
        "kind": "oned_enumerate",
        "n": args.n,
        "count": len(sets),
        "sets": [list(s) for s in sets],
    })
    return EXIT_OK


def cmd_oned_lset(args) -> int:
    xs = _parse_int_list(args.set, "set")
    ok = oned.is_l_set(xs, args.l)
    _emit({
        "kind": "oned_lset",
        "set": sorted(set(xs)),
        "l": args.l,
        "is_l_set": ok,
    })
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# product command
# ---------------------------------------------------------------------------

def cmd_product(args) -> int:
    system1, s1 = _int_system(_parse_json_field(args.matrix1, "--matrix1"),
                              _parse_json_field(args.shifts1, "--shifts1"))
    system2, s2 = _int_system(_parse_json_field(args.matrix2, "--matrix2"),
                              _parse_json_field(args.shifts2, "--shifts2"))
    matrix, shifts = boxtile.tensor_product(system1.matrix, s1, system2.matrix, s2)
    _emit({
        "kind": "product",
        "matrix": [list(r) for r in matrix],
        "shifts": [list(v) for v in shifts],
        "dims": [system1.dim, system2.dim],
    })
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_system_flags(p, shifts=False):
    p.add_argument("--spec", help="problem spec JSON file")
    p.add_argument("--matrix", help="integer matrix as JSON, e.g. [[1,1],[-1,1]]")
    p.add_argument("--digits", help="digit set as JSON, e.g. [[0,0],[1,0]]")
    if shifts:
        p.add_argument("--shifts", help="shift set as JSON (alias for --digits)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tileforge",
                                 description="self-affine tiles and attractors")
    sub = ap.add_subparsers(dest="command", required=True)

    tile = sub.add_parser("tile", help="tile verification and rendering")
    tsub = tile.add_subparsers(dest="subcommand", required=True)
    p = tsub.add_parser("check", help="contact-matrix tile test")
    _add_system_flags(p)
    p.add_argument("--depth", type=int, help="measure/layer depth (default 10)")
    p.set_defaults(func=cmd_tile_check)
    p = tsub.add_parser("measure", help="measure upper bound")
    _add_system_flags(p)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_tile_measure)
    p = tsub.add_parser("render", help="render attractor to PPM")
    _add_system_flags(p, shifts=True)
    p.add_argument("--depth", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--out", required=True, help="output PPM path")
    p.add_argument("--tiling", help="translate window x0:x1,y0:y1 for a tiling image")
    p.set_defaults(func=cmd_tile_render)

    box = sub.add_parser("box", help="cyclic-form box tiles")
    bsub = box.add_subparsers(dest="subcommand", required=True)
    for name, fn in (("build", cmd_box_build), ("digits", cmd_box_digits)):
        p = bsub.add_parser(name)
        p.add_argument("-p", help="comma-separated edge splits, e.g. 1,1,2")
        p.add_argument("--sign", help="+ or -")
        p.add_argument("--spec", help="boxform spec JSON file")
        p.set_defaults(func=fn)
    p = bsub.add_parser("detect", help="parallelepiped check: exact certificate for "
                                       "monomial systems, numeric otherwise")
    _add_system_flags(p)
    p.add_argument("-p", help="boxform edge splits (build then detect)")
    p.add_argument("--sign")
    p.add_argument("--depth", type=int)
    p.add_argument("--tol", type=float)
    p.set_defaults(func=cmd_box_detect)

    hr = sub.add_parser("haar", help="wavelet systems from tiles")
    hsub = hr.add_subparsers(dest="subcommand", required=True)
    p = hsub.add_parser("build")
    _add_system_flags(p)
    p.set_defaults(func=cmd_haar_build)
    p = hsub.add_parser("gram")
    _add_system_flags(p)
    p.add_argument("--method", choices=("auto", "exact", "raster"), default="auto")
    p.add_argument("--resolution", type=int)
    p.add_argument("--depth", type=int)
    p.set_defaults(func=cmd_haar_gram)

    od = sub.add_parser("oned", help="one-dimensional integer tilings")
    osub = od.add_subparsers(dest="subcommand", required=True)
    p = osub.add_parser("oracle")
    p.add_argument("set", help="comma-separated set, e.g. 0,3,6,18,21,24")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.set_defaults(func=cmd_oned_oracle)
    p = osub.add_parser("classify")
    p.add_argument("set")
    p.set_defaults(func=cmd_oned_classify)
    p = osub.add_parser("enumerate")
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_oned_enumerate)
    p = osub.add_parser("lset")
    p.add_argument("set")
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(func=cmd_oned_lset)

    p = sub.add_parser("product", help="tensor product of two systems")
    p.add_argument("--matrix1", required=True)
    p.add_argument("--shifts1", required=True)
    p.add_argument("--matrix2", required=True)
    p.add_argument("--shifts2", required=True)
    p.set_defaults(func=cmd_product)
    return ap


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; parse_args only reads it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except attractor.ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OverflowError, OSError) as exc:   # InputError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
