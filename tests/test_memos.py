"""Memoized covering layers, measure bound, raster-Gram piece grid and render images.

A memo hit must give what a cold call gives, hand callers no shared mutable
object, and under any cell budget fail exactly where a cold call fails.
"""

import json
import os
import sys
import threading

import pytest

from tileforge import attractor, cli, haar
from tileforge.attractor import (
    ResourceLimitError,
    approximate,
    measure_upper,
    shift_cover_layers,
    unit_cell_cover,
)
from tileforge.cli import main

DRAGON_M = ((1, 1), (-1, 1))
SYSTEMS = {
    "dragon": (DRAGON_M, ((0, 0), (1, 0))),
    "dragon_x3": (DRAGON_M, ((0, 0), (3, 0))),
    "three": (((2,),), ((0,), (3,))),
}
DEPTH, RESOLUTION = 6, 16

MEMOS = (attractor._level, attractor._bounding_box_exact, attractor._unit_cell_cover,
         attractor._tile_report, attractor._cover_count, attractor._cover_layers,
         haar._piece_tables, haar._sample_pieces, cli._render)


def clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def cold_memos(monkeypatch):
    monkeypatch.delenv("TILEFORGE_MAX_CELLS", raising=False)
    clear_memos()
    yield
    clear_memos()


def outputs(matrix, digits):
    """Every memoized result, as JSON text in the order the callers see it."""
    approx = approximate(matrix, digits, DEPTH)
    window = tuple((-1, 2) for _ in matrix)
    hist, cells = shift_cover_layers(approx, per_cell=True)
    wavelets = haar.build_wavelets(matrix, digits)
    gram, edge = haar.raster_gram(wavelets, RESOLUTION, DEPTH)
    return json.dumps({
        "layers": list(shift_cover_layers(approx).items()),
        "window": list(shift_cover_layers(approx, window).items()),
        "per_cell": [list(hist.items()), [[list(k), v] for k, v in cells.items()]],
        "measure": str(measure_upper(matrix, digits, DEPTH)),
        "measure_level": str(measure_upper(matrix, digits, DEPTH, 2)),
        "gram": [gram.dtype.str, gram.tolist(), edge],
        "inner": [haar.inner_product(wavelets, i, j, "raster", RESOLUTION, DEPTH)
                  for i in range(wavelets.m) for j in range(wavelets.m)],
    })


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_warm_results_equal_cold(name):
    cold = outputs(*SYSTEMS[name])
    assert outputs(*SYSTEMS[name]) == cold
    clear_memos()
    assert outputs(*SYSTEMS[name]) == cold


def test_callers_get_fresh_objects():
    matrix, digits = SYSTEMS["dragon_x3"]
    approx = approximate(matrix, digits, DEPTH)
    hist = shift_cover_layers(approx)
    want = dict(hist)
    hist[1] = -1
    hist[99] = 1
    assert shift_cover_layers(approx) == want
    hist, cells = shift_cover_layers(approx, per_cell=True)
    want_cells = dict(cells)
    hist.clear()
    cells.clear()
    assert shift_cover_layers(approx, per_cell=True) == (want, want_cells)
    wavelets = haar.build_wavelets(matrix, digits)
    gram, edge = haar.raster_gram(wavelets, RESOLUTION, DEPTH)
    want_gram = gram.copy()
    gram[:] = 7.0
    again, again_edge = haar.raster_gram(wavelets, RESOLUTION, DEPTH)
    assert again is not gram and (again == want_gram).all() and again_edge == edge


def test_memoized_arrays_are_read_only():
    matrix, digits = SYSTEMS["dragon"]
    system = attractor.System.of(matrix, digits)
    samples, layers = attractor._cover_layers(system, DEPTH, ((0, 1), (0, 1)))
    counts, _, _ = haar._sample_pieces(system, digits, RESOLUTION, DEPTH)
    images = [cli._render(system, DEPTH, RESOLUTION, tiling)[0] for tiling in (None, "0:2,0:2")]
    for a in (samples, layers, counts, *images):
        with pytest.raises(ValueError):
            a.flat[0] = 1


def _outcome(call):
    try:
        return "ok", repr(call())
    except (ResourceLimitError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _wavelets(name):
    return haar.build_wavelets(*SYSTEMS[name])


def _image(tiling):
    img, occupied = cli._render(attractor.System.of(*SYSTEMS["dragon"]), DEPTH, RESOLUTION,
                                tiling)
    return img.tobytes(), occupied


#: One call per memo path; each reads one or more memos filled by the calls it makes.
CALLS = {
    "unit_cell_cover": lambda: unit_cell_cover(*SYSTEMS["dragon"]),
    "layers": lambda: shift_cover_layers(approximate(*SYSTEMS["dragon_x3"], DEPTH),
                                         per_cell=True),
    "layers_tile": lambda: shift_cover_layers(approximate(*SYSTEMS["dragon"], DEPTH),
                                              ((-1, 2), (0, 2))),
    "measure": lambda: measure_upper(*SYSTEMS["three"], DEPTH),
    "raster_gram": lambda: haar.raster_gram(_wavelets("dragon_x3"), RESOLUTION, DEPTH),
    "inner_product": lambda: haar.inner_product(_wavelets("three"), 1, 1, "raster",
                                                RESOLUTION, DEPTH),
    "evaluate": lambda: haar.evaluate(_wavelets("dragon"), 1, (0.25, 0.25), DEPTH),
    "render": lambda: _image(None),
    "render_tiling": lambda: _image("0:2,0:2"),
}
BUDGETS = ["1e2", "0", "1", "4", "7", "16", "40", "64", "100", "256", "700", "1024", "5000",
           "100000"]


@pytest.mark.parametrize("name", sorted(CALLS))
def test_warm_call_checks_the_budget_like_a_cold_call(name, monkeypatch):
    call = CALLS[name]
    seen = set()
    for budget in BUDGETS:
        monkeypatch.delenv("TILEFORGE_MAX_CELLS", raising=False)
        clear_memos()
        call()
        monkeypatch.setenv("TILEFORGE_MAX_CELLS", budget)
        warm = _outcome(call)
        clear_memos()
        assert warm == _outcome(call), budget
        seen.add(warm[0])
    assert seen == {"ok", "ResourceLimitError", "ValueError"}


def test_warm_unit_cell_cover_over_budget_raises(monkeypatch):
    matrix, digits = SYSTEMS["dragon"]
    unit_cell_cover(matrix, digits)
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "4")
    with pytest.raises(ResourceLimitError):
        unit_cell_cover(matrix, digits)


def test_warm_piece_tables_over_budget_raise(monkeypatch):
    # evaluate reads the depth-K and depth-(K+1) cell tables: 2^7 cells at K = 6.
    wavelets = _wavelets("dragon")
    haar.evaluate(wavelets, 1, (0.25, 0.25), DEPTH)
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "100")
    with pytest.raises(ResourceLimitError, match="depth 7"):
        haar.evaluate(wavelets, 1, (0.25, 0.25), DEPTH)


def _args(name):
    matrix, digits = SYSTEMS[name]
    return ["--matrix", json.dumps(matrix), "--digits", json.dumps(digits)]


CLI_CASES = {
    "tile_check_nontile": (["tile", "check", *_args("dragon_x3"), "--depth", "6"], 1),
    "tile_check": (["tile", "check", *_args("dragon"), "--depth", "8"], 0),
    "tile_measure": (["tile", "measure", *_args("three"), "--depth", "8"], 0),
    "haar_gram": (["haar", "gram", *_args("dragon"), "--method", "raster",
                   "--resolution", "32", "--depth", "8"], 0),
    "tile_render": (["tile", "render", *_args("dragon"), "--depth", "8", "--resolution", "16",
                     "--tiling=0:2,0:2", "--out", os.devnull], 0),
}


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_warm_cli_exits_like_cold(name, capsys, monkeypatch):
    argv, code = CLI_CASES[name]
    assert main(argv) == code
    cold = capsys.readouterr().out
    assert main(argv) == code and capsys.readouterr().out == cold
    for budget, want in (("1e2", 2), ("4", 3)):
        monkeypatch.setenv("TILEFORGE_MAX_CELLS", budget)
        assert main(argv) == want
        assert "TILEFORGE_MAX_CELLS" in capsys.readouterr().err
    monkeypatch.delenv("TILEFORGE_MAX_CELLS")
    assert main(argv) == code and capsys.readouterr().out == cold


def test_memos_filled_concurrently_keep_their_checks(monkeypatch):
    # Eight threads fill the memos of every call at once; a lowered budget must
    # then fail alike warm and cold.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    names = sorted(CALLS)
    errors = []

    def work(i):
        try:
            for j in range(3 * len(names)):
                CALLS[names[(i + j) % len(names)]]()
        except Exception as exc:   # reported by the assertion below
            errors.append(exc)

    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    monkeypatch.setenv("TILEFORGE_MAX_CELLS", "40")
    warm = {name: _outcome(CALLS[name]) for name in names}
    clear_memos()
    assert warm == {name: _outcome(CALLS[name]) for name in names}


#: Render systems: the twindragon, its digits x 3 (overlapping) and one with no zero digit.
RENDER_SYSTEMS = {
    "dragon": SYSTEMS["dragon"],
    "dragon_x3": SYSTEMS["dragon_x3"],
    "no_zero": (DRAGON_M, ((3, 1), (4, 1))),
}
TILINGS = {"plain": [], "tiling": ["--tiling=0:2,0:2"]}


def _render_argv(system, out, *extra, depth=8):
    matrix, digits = system
    return ["tile", "render", "--matrix", json.dumps(matrix), "--digits", json.dumps(digits),
            "--depth", str(depth), "--resolution", "16", *extra, "--out", str(out)]


def _run_render(argv, out, capsys):
    """Exit code, stdout, stderr and the PPM bytes (None when none was written)."""
    out.unlink(missing_ok=True)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("tiling", sorted(TILINGS))
@pytest.mark.parametrize("name", sorted(RENDER_SYSTEMS))
def test_warm_render_equals_cold(name, tiling, tmp_path, capsys):
    out = tmp_path / "render.ppm"
    argv = _render_argv(RENDER_SYSTEMS[name], out, *TILINGS[tiling])
    cold = _run_render(argv, out, capsys)
    assert cold[0] == 0 and cold[3]
    assert _run_render(argv, out, capsys) == cold
    clear_memos()
    assert _run_render(argv, out, capsys) == cold


def test_render_past_the_budget_exits_before_a_malformed_window(tmp_path, capsys):
    # 2^100 cells exit 3 before the window is read, cold and warm.
    out = tmp_path / "render.ppm"
    system = SYSTEMS["dragon"]
    argv = _render_argv(system, out, "--tiling=garbage", depth=100)
    cold = _run_render(argv, out, capsys)
    assert cold[0] == 3 and cold[3] is None
    for extra in TILINGS.values():
        assert _run_render(_render_argv(system, out, *extra), out, capsys)[0] == 0
    assert _run_render(_render_argv(system, out, "--tiling=garbage"), out, capsys)[0] == 2
    assert _run_render(argv, out, capsys) == cold
