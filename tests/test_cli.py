"""CLI surface: subcommands, exit codes, schemas, deterministic output."""

import itertools
import json
import sys
import threading
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tileforge import attractor, cli
from tileforge.cli import PALETTE, main

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "docs" / "schemas"


def load_schema(name):
    with open(SCHEMA_DIR / f"{name}.schema.json", encoding="utf-8") as fh:
        return json.load(fh)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


DRAGON = ("--matrix", "[[1,1],[-1,1]]", "--digits", "[[0,0],[1,0]]")


def test_tile_check_dragon(capsys):
    code, report = run_json(capsys, "tile", "check", *DRAGON, "--depth", "8")
    assert code == 0
    assert report["is_tile"] is True
    jsonschema.validate(report, load_schema("tile_check"))


def test_tile_check_three_interval_negative_exit(capsys):
    code, report = run_json(capsys, "tile", "check",
                            "--matrix", "[[2]]", "--digits", "[[0],[3]]",
                            "--depth", "8")
    assert code == 1
    assert report["is_tile"] is False
    assert abs(report["measure_upper_float"] - 3.0) < 0.05
    assert report["layers_histogram"]["3"] > 200
    jsonschema.validate(report, load_schema("tile_check"))


def test_tile_measure_schema(capsys):
    code, report = run_json(capsys, "tile", "measure",
                            "--matrix", "[[2]]", "--digits", "[[0],[1]]",
                            "--depth", "6")
    assert code == 0
    assert report["measure_upper"] == "1"
    jsonschema.validate(report, load_schema("tile_measure"))


def test_malformed_json_is_input_error(capsys):
    code, _ = run(capsys, "tile", "check", "--matrix", "[[2]", "--digits", "[[0],[1]]")
    assert code == 2


def test_invalid_digits_is_input_error(capsys):
    code, _ = run(capsys, "tile", "check", "--matrix", "[[2]]", "--digits", "[[0],[2]]")
    assert code == 2


def test_spec_file_roundtrip(tmp_path, capsys):
    spec = {"kind": "attractor", "matrix": [[2]], "digits": [[0], [1]],
            "params": {"depth": 6}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(capsys, "tile", "check", "--spec", str(path))
    assert code == 0 and report["is_tile"] and report["depth"] == 6


def test_spec_file_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "attractor", "matrix": [[2]],
                                "digits": [[0], [1]], "bogus": 1}))
    code, _ = run(capsys, "tile", "check", "--spec", str(path))
    assert code == 2


def test_render_rect_box_image(tmp_path, capsys):
    out = tmp_path / "rect.ppm"
    code, report = run_json(capsys, "tile", "render",
                            "--matrix", "[[0,-2],[1,0]]", "--digits", "[[0,0],[1,0]]",
                            "--depth", "10", "--resolution", "32",
                            "--out", str(out))
    assert code == 0
    jsonschema.validate(report, load_schema("render"))
    raw = out.read_bytes()
    assert raw.startswith(b"P6\n")
    # the rectangle tile fills an axis box: 32x32 occupied pixels
    assert report["occupied_pixels"] == 32 * 32


def test_render_dragon_area(tmp_path, capsys):
    out = tmp_path / "dragon.ppm"
    code, report = run_json(capsys, "tile", "render", *DRAGON,
                            "--depth", "16", "--resolution", "256",
                            "--out", str(out))
    assert code == 0
    area = report["occupied_pixels"] / 256 ** 2
    assert abs(area - 1.0) <= 0.10


def test_render_deterministic(tmp_path, capsys):
    out1 = tmp_path / "a.ppm"
    out2 = tmp_path / "b.ppm"
    _, rep1 = run_json(capsys, "tile", "render", *DRAGON, "--depth", "10",
                       "--resolution", "32", "--out", str(out1))
    _, rep2 = run_json(capsys, "tile", "render", *DRAGON, "--depth", "10",
                       "--resolution", "32", "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert {k: v for k, v in rep1.items() if k != "out"} == \
           {k: v for k, v in rep2.items() if k != "out"}


def test_render_tiling_window(tmp_path, capsys):
    out = tmp_path / "tiling.ppm"
    code, report = run_json(capsys, "tile", "render", *DRAGON,
                            "--depth", "12", "--resolution", "16",
                            "--out", str(out), "--tiling=-1:2,-1:2")
    assert code == 0
    # a tile's translates cover the window completely: no white pixels
    raw = out.read_bytes()
    body = raw.split(b"255\n", 1)[1]
    assert b"\xff\xff\xff" not in body
    assert report["occupied_pixels"] == report["width"] * report["height"]


def test_render_overlapping_tiling_first_translate_wins(tmp_path, capsys):
    # The twindragon with digits times 3 covers in several layers, so
    # translates overlap; each pixel takes the first translate in sorted order.
    matrix, digits = [[1, 1], [-1, 1]], [[0, 0], [3, 0]]
    depth, resolution, ((x0, x1), (y0, y1)) = 10, 16, ((0, 3), (-1, 2))
    out = tmp_path / "overlap.ppm"
    code, report = run_json(capsys, "tile", "render", "--matrix", json.dumps(matrix),
                            "--digits", json.dumps(digits), "--depth", str(depth),
                            "--resolution", str(resolution), "--tiling=0:3,-1:2",
                            "--out", str(out))
    assert code == 0
    approx = attractor.approximate(matrix, digits, depth)
    base = set(zip(*attractor.grid_indices(approx, resolution, (0, 0))))
    lo, hi = attractor.bounding_box(matrix, digits)
    translates = sorted((tx, ty)
                        for tx in range(x0 - int(hi[0] // 1) - 1, x1 - int(lo[0] // 1) + 1)
                        for ty in range(y0 - int(hi[1] // 1) - 1, y1 - int(lo[1] // 1) + 1))
    width, height = (x1 - x0) * resolution, (y1 - y0) * resolution
    want = np.full((height, width, 3), 255, dtype=np.uint8)
    for index, (tx, ty) in enumerate(translates):
        for gx, gy in base:
            px, py = gx + (tx - x0) * resolution, gy + (ty - y0) * resolution
            if 0 <= px < width and 0 <= py < height:
                if tuple(want[height - 1 - py, px]) == (255, 255, 255):
                    want[height - 1 - py, px] = PALETTE[index % len(PALETTE)]
    assert out.read_bytes() == f"P6\n{width} {height}\n255\n".encode() + want.tobytes()
    assert report["occupied_pixels"] == int(np.any(want != 255, axis=2).sum())
    # the overlaps are real: more than one translate lands on some pixel
    assert len({tuple(c) for c in want.reshape(-1, 3).tolist()}) > 2


@pytest.mark.parametrize("argv", [
    ("tile", "render", *DRAGON, "--resolution", "0", "--out", "never.ppm"),
    ("tile", "render", *DRAGON, "--resolution", "-2", "--out", "never.ppm"),
    ("tile", "render", *DRAGON, "--depth", "0", "--out", "never.ppm"),
    ("tile", "check", *DRAGON, "--depth", "0"),
    ("tile", "measure", *DRAGON, "--depth", "-3"),
    ("box", "detect", *DRAGON, "--depth", "0"),
    ("haar", "gram", *DRAGON, "--method", "raster", "--resolution", "0", "--depth", "0"),
    ("haar", "gram", *DRAGON, "--method", "raster", "--depth", "-1"),
], ids=["render-res0", "render-res-neg", "render-depth0", "check-depth0",
        "measure-depth-neg", "detect-depth0", "gram-res0", "gram-depth-neg"])
def test_non_positive_depth_or_resolution_is_input_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert "must be positive" in captured.err
    assert not (tmp_path / "never.ppm").exists()


def test_non_positive_spec_param_is_input_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "attractor", "matrix": [[1, 1], [-1, 1]],
                                "digits": [[0, 0], [1, 0]], "params": {"resolution": 0}}))
    code = main(["tile", "render", "--spec", str(path), "--out", str(tmp_path / "x.ppm")])
    assert code == 2 and "must be positive" in capsys.readouterr().err


def test_box_build_example(capsys):
    code, report = run_json(capsys, "box", "build", "-p", "1,1,2", "--sign", "+")
    assert code == 0
    assert report["matrix"] == [[0, 1, 0], [0, 0, 1], [2, 0, 0]]
    assert report["digit_count"] == 2
    jsonschema.validate(report, load_schema("box_build"))


def test_box_digits_twelve(capsys):
    code, report = run_json(capsys, "box", "digits", "-p", "3,2,2", "--sign", "+")
    assert code == 0
    assert report["digit_count"] == 12
    jsonschema.validate(report, load_schema("box_digits"))


def test_box_detect_from_form(capsys):
    code, report = run_json(capsys, "box", "detect", "-p", "3,2,2", "--sign", "+",
                            "--depth", "3")
    assert code == 0
    assert report["is_box"] is True
    jsonschema.validate(report, load_schema("box_detect"))


def test_boxform_spec_file(tmp_path, capsys):
    path = tmp_path / "form.json"
    path.write_text(json.dumps({"kind": "boxform", "p": [1, 1, 2], "sign": 1}))
    code, report = run_json(capsys, "box", "build", "--spec", str(path))
    assert code == 0
    assert report["matrix"] == [[0, 1, 0], [0, 0, 1], [2, 0, 0]]
    code, report = run_json(capsys, "box", "detect", "--spec", str(path))
    assert code == 0 and report["is_box"] is True


def test_box_detect_dragon_negative(capsys):
    code, report = run_json(capsys, "box", "detect", *DRAGON, "--depth", "8")
    assert code == 1
    assert report["is_box"] is False
    jsonschema.validate(report, load_schema("box_detect"))


def test_haar_build_schema(capsys):
    code, report = run_json(capsys, "haar", "build", *DRAGON)
    assert code == 0
    assert report["generator_count"] == 1
    jsonschema.validate(report, load_schema("haar_system"))


def test_haar_gram_exact(capsys):
    code, report = run_json(capsys, "haar", "gram",
                            "--matrix", "[[2]]", "--digits", "[[0],[1]]")
    assert code == 0
    assert report["method"] == "exact"
    assert report["max_offdiag"] == 0 and report["max_diag_deviation"] == 0
    jsonschema.validate(report, load_schema("haar_gram"))


def test_haar_gram_raster(capsys):
    code, report = run_json(capsys, "haar", "gram", *DRAGON,
                            "--method", "raster", "--resolution", "64",
                            "--depth", "12")
    assert code == 0
    assert report["method"] == "raster"
    assert report["max_diag_deviation"] < 0.1
    jsonschema.validate(report, load_schema("haar_gram"))


def test_oned_oracle(capsys):
    code, report = run_json(capsys, "oned", "oracle", "0,3,6,18,21,24")
    assert code == 0
    assert report["segment_length"] == 36
    assert report["shifts"] == [0, 1, 2, 9, 10, 11]
    jsonschema.validate(report, load_schema("oned_oracle"))


def test_oned_oracle_negative(capsys):
    code, report = run_json(capsys, "oned", "oracle", "0,1,3", "--n-max", "64")
    assert code == 1
    assert report["tiles"] is False
    jsonschema.validate(report, load_schema("oned_oracle"))


def test_oned_classify(capsys):
    code, report = run_json(capsys, "oned", "classify", "0,3,6,18,21,24")
    assert code == 0
    assert report["progressions"] == [{"a": 3, "d": 3}, {"a": 18, "d": 2}]
    jsonschema.validate(report, load_schema("oned_classify"))


def test_oned_classify_negative(capsys):
    code, report = run_json(capsys, "oned", "classify", "0,1,3")
    assert code == 1
    assert report["simple"] is False
    jsonschema.validate(report, load_schema("oned_classify"))


def test_oned_enumerate(capsys):
    code, report = run_json(capsys, "oned", "enumerate", "6")
    assert code == 0
    assert report["count"] == 6
    jsonschema.validate(report, load_schema("oned_enumerate"))


def test_oned_lset(capsys):
    code, report = run_json(capsys, "oned", "lset", "0,1,2,9,10,11", "--l", "3")
    assert code == 0 and report["is_l_set"] is True
    jsonschema.validate(report, load_schema("oned_lset"))
    code, report = run_json(capsys, "oned", "lset", "0,1,3", "--l", "2")
    assert code == 1 and report["is_l_set"] is False


def test_product(capsys):
    code, report = run_json(capsys, "product",
                            "--matrix1", "[[2]]", "--shifts1", "[[0],[1]]",
                            "--matrix2", "[[3]]", "--shifts2", "[[0],[1],[2]]")
    assert code == 0
    assert report["matrix"] == [[2, 0], [0, 3]]
    assert len(report["shifts"]) == 6
    jsonschema.validate(report, load_schema("product"))


def test_json_output_deterministic(capsys):
    _, out1 = run(capsys, "oned", "enumerate", "12")
    _, out2 = run(capsys, "oned", "enumerate", "12")
    assert out1 == out2


def test_resource_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "100")
    code, _ = run(capsys, "tile", "measure",
                  "--matrix", "[[2]]", "--digits", "[[0],[3]]", "--depth", "20")
    assert code == 3


@pytest.mark.parametrize("value", ["1e2", "abc", "-5", "0"])
def test_malformed_cell_budget_is_input_error(value, capsys, monkeypatch):
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", value)
    code = main(["tile", "measure", "--matrix", "[[2]]", "--digits", "[[0],[3]]",
                 "--depth", "12"])
    err = capsys.readouterr().err
    assert code == 2
    assert "TILEFORGE_MAX_CELLS" in err and "Traceback" not in err


#: The 3-D box form (1, 4, 1) with digits times 5: 1330 contact states, not a tile.
SCALED_BOX = ("--matrix", "[[0,1,0],[0,0,4],[1,0,0]]",
              "--digits", "[[0,0,0],[0,5,0],[0,10,0],[0,15,0]]")


def test_cover_product_over_budget_exits_resource(capsys):
    # At depth 10 the measure bound would form 4^10 * 343 cover keys.
    start = time.perf_counter()
    code = main(["tile", "check", *SCALED_BOX])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err and "cover product" in captured.err
    assert elapsed < 30


@pytest.mark.parametrize("scale, stage", [(101, "cover product"), (1001, "contact window")])
def test_scaled_dragon_over_budget_exits_resource(scale, stage, capsys):
    # Times 101 the verdict runs on 66,672 contact states, then the measure
    # bound is over budget; times 1001 the contact window itself is.
    code = main(["tile", "check", *DRAGON[:3], f"[[0,0],[{scale},0]]"])
    captured = capsys.readouterr()
    assert code == 3
    assert "Traceback" not in captured.err and stage in captured.err


def test_scaled_box_non_tile_at_depth_4(capsys):
    code, report = run_json(capsys, "tile", "check", *SCALED_BOX, "--depth", "4")
    assert code == 1
    assert report["is_tile"] is False and report["contact_states"] == 1330
    jsonschema.validate(report, load_schema("tile_check"))


@pytest.mark.parametrize("flags", [
    ("tile", "check", "--matrix", "[[1.5,1],[-1,1]]", "--digits", "[[0,0],[1,0]]"),
    ("tile", "check", "--matrix", "[[1,1],[-1,1]]", "--digits", "[[0,0],[1.7,0]]"),
    ("tile", "render", "--matrix", "[[1,1],[-1,1]]", "--shifts", "[[0,0],[1,0.5]]",
     "--out", "never.ppm"),
], ids=["matrix", "digits", "shifts"])
def test_non_integral_flag_entry_is_input_error(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _ = run(capsys, *flags)
    assert code == 2
    assert not (tmp_path / "never.ppm").exists()


def test_non_integral_spec_entry_is_input_error(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "attractor", "matrix": [[2.5]],
                                "digits": [[0], [1]]}))
    code, _ = run(capsys, "tile", "check", "--spec", str(path))
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("tile", "check", "--matrix", "[[99999999999999999999]]", "--digits", "[[0],[1]]"),
    ("tile", "measure", "--matrix", "[[99999999999999999999]]", "--digits", "[[0],[1]]"),
    ("haar", "build", "--matrix", "[[99999999999999999999]]", "--digits", "[[0],[1]]"),
    ("tile", "check", "--matrix", "[[2]]", "--digits", "[[0],[99999999999999999999]]"),
], ids=["check-matrix", "measure-matrix", "haar-matrix", "check-digits"])
def test_oversized_entry_is_input_error(argv, capsys):
    code = main(list(argv))
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def test_integral_float_entries_are_accepted(capsys):
    code, report = run_json(capsys, "tile", "check", "--matrix", "[[2.0]]",
                            "--digits", "[[0],[1.0]]", "--depth", "4")
    assert code == 0 and report["matrix"] == [[2]]


def test_tile_check_builds_contact_matrix_once(capsys, monkeypatch):
    calls = []
    real = attractor.contact_matrix

    def counting(matrix, digits):
        calls.append(matrix)
        return real(matrix, digits)

    monkeypatch.setattr(attractor, "contact_matrix", counting)
    attractor._tile_report.cache_clear()
    # Unsorted digits: the cached report is shared with the sorted shift set.
    code, _ = run(capsys, "tile", "check", "--matrix", "[[1,1],[-1,1]]",
                  "--digits", "[[1,0],[0,0]]", "--depth", "6")
    assert code == 0
    assert len(calls) == 1


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    cli._parser.cache_clear()
    plain, tiled, again = (str(tmp_path / f"{n}.ppm") for n in ("plain", "tiled", "again"))
    render = ("tile", "render", *DRAGON, "--depth", "8", "--resolution", "8")
    assert run(capsys, "tile", "check", *DRAGON, "--depth", "6")[0] == 0
    assert run(capsys, *render, "--out", plain)[0] == 0
    assert run(capsys, *render, "--out", tiled, "--tiling=0:2,0:2")[0] == 0
    assert run(capsys, *render, "--out", again)[0] == 0
    assert run(capsys, "tile", "check", "--matrix", "[[1,1]", "--digits", "[[0,0]]")[0] == 2
    with pytest.raises(SystemExit) as exc:
        main(["tile", "render", *DRAGON])   # usage error: --out is required
    assert exc.value.code == 2
    assert len(calls) == 1
    # No state leaks from the --tiling call into the plain render after it.
    assert Path(again).read_bytes() == Path(plain).read_bytes() != Path(tiled).read_bytes()


def test_shared_parser_is_thread_safe():
    argvs = [
        ["tile", "check", *DRAGON, "--depth", "3"],
        ["tile", "render", *DRAGON, "--out", "a.ppm", "--tiling=0:1,0:1"],
        ["haar", "gram", *DRAGON, "--method", "raster", "--resolution", "16"],
        ["oned", "oracle", "0,1,2", "--n-max", "9"],
    ]
    expected = [vars(cli.build_parser().parse_args(argv)) for argv in argvs]
    parser = cli._parser()
    start = threading.Barrier(len(argvs))
    seen = [[] for _ in argvs]

    def parse(i):
        start.wait()
        seen[i].extend(vars(parser.parse_args(argvs[i])) for _ in range(200))

    threads = [threading.Thread(target=parse, args=(i,)) for i in range(len(argvs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[want] * 200 for want in expected]


@pytest.mark.parametrize("argv, message", [
    (("box", "build", "-p", "1,1"), "not all p_i may equal 1 (the matrix would not expand)"),
    (("box", "detect", "-p", "1,1"), "not all p_i may equal 1 (the matrix would not expand)"),
    (("haar", "build", "--matrix", "[[2]]", "--digits", "[[0],[2]]"),
     "digits must form a residue system for the matrix"),
    (("haar", "gram", "--matrix", "[[2]]", "--digits", "[[0],[2]]"),
     "digits must form a residue system for the matrix"),
    (("oned", "oracle", "1,2"), "set must contain 0 as its first element"),
    (("oned", "oracle", "0,3", "--n-max", "2"), "n_max must be at least max(Y) + 1"),
    (("oned", "classify", "1,2"), "set must contain 0 as its first element"),
    (("oned", "lset", "0,1", "--l", "0"), "block length must be positive"),
], ids=["boxform", "detect-boxform", "haar-build", "haar-gram", "oracle-set", "oracle-bound",
        "classify-set", "lset-length"])
def test_library_value_errors_exit_input(argv, message, capsys):
    assert main(list(argv)) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("spec, message", [
    ({"kind": "boxform", "p": [1, 1]}, "not all p_i may equal 1 (the matrix would not expand)"),
    ({"kind": "oned", "set": [0, 1]}, "this command needs an attractor problem spec"),
    ({"kind": "boxform"}, "spec kind 'boxform' requires fields ['p']"),
], ids=["boxform", "oned", "missing-p"])
def test_box_detect_spec_errors_exit_input(spec, message, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["box", "detect", "--spec", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_box_detect_reads_its_spec_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = cli._load_spec
    monkeypatch.setattr(cli, "_load_spec", lambda path: calls.append(path) or real(path))
    for kind, extra in (("boxform", {"p": [1, 1, 2]}),
                        ("attractor", {"matrix": [[2]], "digits": [[0], [1]]})):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"kind": kind, **extra}))
        code, report = run_json(capsys, "box", "detect", "--spec", str(path))
        assert code == 0 and report["is_box"] is True and calls == [str(path)]
        calls.clear()


@pytest.mark.parametrize("argv", [
    ("tile", "render", *DRAGON, "--depth", "2", "--resolution", "1000000", "--out", "never.ppm"),
    ("tile", "render", *DRAGON, "--depth", "2", "--resolution", "1000",
     "--tiling=0:100,0:100", "--out", "never.ppm"),
    ("haar", "gram", *DRAGON, "--method", "raster", "--resolution", "1000000", "--depth", "4"),
], ids=["render", "render-tiling", "raster-gram"])
def test_oversized_image_or_raster_exits_resource(argv, tmp_path, monkeypatch, capsys):
    # 1.36 TiB and 16.6 TiB at the default budget; the tiling window is 10^10 pixels.
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "Traceback" not in captured.err
    assert "resource cap" in captured.err and "TILEFORGE_MAX_CELLS" in captured.err
    assert not (tmp_path / "never.ppm").exists()


def test_image_budget_counts_pixels(tmp_path, capsys, monkeypatch):
    # The twindragon at depth 8 and resolution 16 renders to 21 x 26 = 546 pixels.
    out = str(tmp_path / "dragon.ppm")
    argv = ["tile", "render", *DRAGON, "--depth", "8", "--resolution", "16", "--out", out]
    code, report = run_json(capsys, *argv)
    assert code == 0
    pixels = report["width"] * report["height"]
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", str(pixels))
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", str(pixels - 1))
    assert main(argv) == 3
    assert f"the image needs up to {pixels} cells" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["5", "1", "-1", "nan", "inf"])
def test_box_detect_tol_out_of_range_is_input_error(tol, capsys):
    # --tol 5 used to make the numeric path call the twindragon a box.
    code = main(["box", "detect", *DRAGON, "--depth", "8", f"--tol={tol}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: tol must satisfy 0 <= tol < 1")


def test_box_detect_checks_tol_before_building_cells(capsys, monkeypatch):
    calls = []
    real = attractor.approximate
    monkeypatch.setattr(attractor, "approximate", lambda *a, **k: calls.append(a) or real(*a, **k))
    code = main(["box", "detect", *DRAGON, "--tol", "5"])
    assert code == 2 and calls == []
    assert capsys.readouterr().err.startswith("error: tol must satisfy 0 <= tol < 1")


def _reference_tiling(matrix, digits, depth, resolution, window):
    """PPM bytes of a tiling painted over every translate whose bounding box
    meets the window, in sorted order, last to first."""
    approx = attractor.approximate(matrix, digits, depth)
    gx, gy = attractor.grid_indices(approx, resolution, (0, 0)).astype(np.int64)
    (x0, x1), (y0, y1) = window
    width, height = (x1 - x0) * resolution, (y1 - y0) * resolution
    img = np.full((height, width, 3), 255, dtype=np.uint8)
    lo, hi = attractor.bounding_box(matrix, digits)
    xs = range(x0 - int(hi[0] // 1) - 1, x1 - int(lo[0] // 1) + 1)
    ys = range(y0 - int(hi[1] // 1) - 1, y1 - int(lo[1] // 1) + 1)
    for index, (tx, ty) in reversed(list(enumerate(itertools.product(xs, ys)))):
        px = gx + (tx - x0) * resolution
        py = gy + (ty - y0) * resolution
        keep = (0 <= px) & (px < width) & (0 <= py) & (py < height)
        img[height - 1 - py[keep], px[keep]] = PALETTE[index % len(PALETTE)]
    return f"P6\n{width} {height}\n255\n".encode("ascii") + img.tobytes()


@pytest.mark.parametrize("matrix, digits, depth, resolution, window", [
    ([[1, 1], [-1, 1]], [[0, 0], [1, 0]], 10, 16, ((-1, 2), (-1, 2))),
    ([[1, 1], [-1, 1]], [[3, 1], [4, 1]], 8, 8, ((-2, 1), (0, 3))),     # no zero digit
    ([[1, 1], [-1, 1]], [[0, 0], [3, 0]], 8, 3, ((0, 3), (0, 3))),
    ([[1, -3], [1, -1]], [[0, 0], [1, 0]], 9, 12, ((-1, 1), (-1, 1))),
])
def test_tiling_paints_like_every_box_translate(tmp_path, capsys, matrix, digits, depth,
                                                resolution, window):
    out = tmp_path / "tiling.ppm"
    tiling = ",".join(f"{a}:{b}" for a, b in window)
    code = main(["tile", "render", "--matrix", json.dumps(matrix), "--digits", json.dumps(digits),
                 "--depth", str(depth), "--resolution", str(resolution), f"--tiling={tiling}",
                 "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == _reference_tiling(matrix, digits, depth, resolution, window)


def test_tiling_keys_past_int64_paint_alike(tmp_path, capsys, monkeypatch):
    # With the guard at 1, unit squares and translates are keyed in Python ints.
    matrix, digits, window = [[1, 1], [-1, 1]], [[3, 1], [4, 1]], ((-2, 1), (0, 3))
    want = _reference_tiling(matrix, digits, 8, 8, window)
    out = tmp_path / "tiling.ppm"
    dtypes = set()
    real = attractor._exact_keys

    def spy(*args):
        keys = real(*args)
        dtypes.add(keys.dtype)
        return keys

    monkeypatch.setattr(attractor, "_exact_keys", spy)
    monkeypatch.setattr(attractor, "INT64_SAFE", 1)
    # The image is memoized: render it afresh under the patched guard.
    cli._render.cache_clear()
    attractor._level.cache_clear()
    try:
        code = main(["tile", "render", "--matrix", json.dumps(matrix),
                     "--digits", json.dumps(digits), "--depth", "8", "--resolution", "8",
                     "--tiling=-2:1,0:3", "--out", str(out)])
    finally:
        cli._render.cache_clear()
        attractor._level.cache_clear()   # drop the levels held as Python ints
    assert code == 0
    assert dtypes == {np.dtype(object)}
    assert out.read_bytes() == want


def test_tiling_visits_only_translates_reaching_the_window(tmp_path, capsys):
    # The bounding box of the twindragon with digits x 1001 meets about 2.2 M
    # translates of the window, yet only the 256 cells at depth 8 can reach it.
    out = tmp_path / "tiling.ppm"
    start = time.perf_counter()
    code = main(["tile", "render", "--matrix", "[[1,1],[-1,1]]", "--digits", "[[0,0],[1001,0]]",
                 "--depth", "8", "--resolution", "4", "--tiling=0:1,0:1", "--out", str(out)])
    assert code == 0 and time.perf_counter() - start < 10
    assert out.stat().st_size > 0


def _product(**flags):
    """A product command line, with the given flags replacing the defaults."""
    values = {"matrix1": "[[2]]", "shifts1": "[[0],[1]]", "matrix2": "[[3]]",
              "shifts2": "[[0],[1],[2]]", **flags}
    return ["product", *(f"--{k}={v}" for k, v in values.items())]


_ATTRACTOR = {"kind": "attractor", "matrix": [[2]], "digits": [[0], [1]]}

#: Inputs that once raised a traceback or exited 0 with a wrong report.
MALFORMED = {
    "params-not-object": (["tile", "check"], {**_ATTRACTOR, "params": 5}),
    "depth-not-number": (["tile", "check"], {**_ATTRACTOR, "params": {"depth": [1]}}),
    "depth-null": (["tile", "check"], {**_ATTRACTOR, "params": {"depth": None}}),
    "p-not-list-build": (["box", "build"], {"kind": "boxform", "p": 5}),
    "p-not-list-detect": (["box", "detect"], {"kind": "boxform", "p": 5}),
    "sign-not-integer": (["box", "build"], {"kind": "boxform", "p": [2], "sign": [1]}),
    "product-shifts-scalar": (_product(shifts1="5"), None),
    "product-matrix-scalar": (_product(matrix1="5"), None),
    "product-matrix-string": (_product(matrix1='[["a"]]'), None),
    "product-matrix-not-square": (_product(matrix1="[[2,0]]"), None),
    "product-shifts-fraction": (_product(shifts1="[[0],[0.5]]"), None),
    "product-shifts-dimension": (_product(shifts2="[[0,0],[1,0],[2,0]]"), None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_input_error(name, tmp_path, capsys):
    argv, spec = MALFORMED[name]
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [*argv, "--spec", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_box_digit_set_over_budget_exits_resource(capsys):
    # 10^10 digits used to be built one tuple at a time.
    assert main(["box", "digits", "-p", "100000,100000"]) == 3
    assert "the box digit set needs up to 10000000000 cells" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oned", "classify", "0,100000000000"],
    ["oned", "oracle", "0,100000000000"],
    ["oned", "oracle", "0,3", "--n-max", "100000000000"],
    ["oned", "enumerate", "1000000007"],
], ids=["classify", "oracle", "oracle-n-max", "enumerate"])
def test_oned_over_budget_exits_resource(argv, capsys):
    # The set, the segment bound and N are bit masks or segments of that many cells.
    assert main(argv) == 3
    assert "TILEFORGE_MAX_CELLS" in capsys.readouterr().err


@pytest.mark.parametrize("n,total", [("65536", 43046721), ("5040", 5674176)])
def test_oned_enumerate_output_over_budget_exits_resource(n, total, capsys):
    # N is within the budget, but the sets enumerate would print are not.
    assert main(["oned", "enumerate", n]) == 3
    assert f"the enumeration needs up to {total} cells" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["oned", "classify", "0,1"],
    ["oned", "oracle", "0,1"],
    ["oned", "enumerate", "4"],
], ids=["classify", "oracle", "enumerate"])
def test_oned_malformed_budget_exits_input(argv, capsys, monkeypatch):
    # These commands check their segments against the budget, so they read it.
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "1e2")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "TILEFORGE_MAX_CELLS" in err and "Traceback" not in err
    # `oned lset` builds no segment and reads no budget.
    assert main(["oned", "lset", "0,1", "--l", "2"]) == 0


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.integers() | st.floats()
    | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=3), kids,
                                                              max_size=2),
    max_leaves=8)


#: Commands that take their system from inline flags, and the flags each takes
#: beyond --matrix and --digits.
_FLAG_COMMANDS = {
    "tile render": ("shifts", "depth", "resolution", "tiling"),
    "haar build": (),
    "haar gram": ("method", "resolution", "depth"),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["tile check", "tile measure", "box build", "box detect",
                                "product", *_FLAG_COMMANDS]),
       values=st.fixed_dictionaries({
           "matrix": st.one_of(_JSON, st.just([[2]]), st.just([[1, 1], [-1, 1]])),
           "digits": st.one_of(_JSON, st.just([[0], [1]]), st.just([[0, 0], [1, 0]])),
           "params": st.one_of(_JSON, st.fixed_dictionaries({"depth": _JSON})),
           "p": st.one_of(_JSON, st.lists(st.integers(-1, 3), max_size=3)),
           "sign": _JSON,
           "shifts": st.one_of(_JSON, st.just([[0, 0], [1, 0]])),
           "depth": st.integers(-2, 12) | st.integers(),
           "resolution": st.integers(-2, 12) | st.integers(),
           "tiling": st.text(alphabet="-0123:,", max_size=9) | st.text(max_size=4),
           "method": st.sampled_from(["auto", "exact", "raster"])}),
       present=st.sets(st.sampled_from(["shifts", "depth", "resolution", "tiling"])))
def test_cli_never_raises_on_json_values(command, values, present, tmp_path, capsys,
                                         monkeypatch):
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "300")
    if command == "product":
        argv = _product(matrix1=json.dumps(values["matrix"]), shifts1=json.dumps(values["digits"]),
                        shifts2=json.dumps(values["p"]))
    elif command in _FLAG_COMMANDS:
        argv = [*command.split(), f"--matrix={json.dumps(values['matrix'])}",
                f"--digits={json.dumps(values['digits'])}"]
        for flag in _FLAG_COMMANDS[command]:
            if flag in present or flag == "method":
                value = values[flag] if flag != "shifts" else json.dumps(values[flag])
                argv.append(f"--{flag}={value}")
        if command == "tile render":
            argv.append(f"--out={tmp_path / 'out.ppm'}")
    else:
        if command.startswith("tile"):
            spec = {"kind": "attractor", "matrix": values["matrix"], "digits": values["digits"]}
        else:
            spec = {"kind": "boxform", "p": values["p"], "sign": values["sign"]}
        spec["params"] = values["params"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        argv = [*command.split(), "--spec", str(path)]
    assert main(argv) in (0, 1, 2, 3)
    capsys.readouterr()


def _exit_code(argv):
    """main's exit code, taking an argparse rejection (SystemExit) at its code."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


_NUMBER = (st.integers(-2, 40) | st.integers()).map(str) | st.text(max_size=3)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["oracle", "classify", "enumerate", "lset"]),
       text=st.lists(st.integers(-2, 40) | st.integers(), max_size=5).map(
           lambda xs: ",".join(map(str, xs)))
       | st.text(alphabet="-0123456789,", max_size=12) | st.text(max_size=4),
       number=_NUMBER, n_max=st.none() | _NUMBER)
def test_oned_cli_never_raises(command, text, number, n_max, capsys, monkeypatch):
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "300")
    if command == "enumerate":
        argv = ["oned", "enumerate", number]
    else:
        argv = ["oned", command, text]
        if command == "oracle" and n_max is not None:
            argv.append(f"--n-max={n_max}")
        if command == "lset":
            argv.append(f"--l={number}")
    assert _exit_code(argv) in (0, 1, 2, 3)
    capsys.readouterr()
