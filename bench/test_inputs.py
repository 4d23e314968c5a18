"""Tests of the benchmark's own input generator, reference checks and tracer.

    PYTHONPATH=src python3 -m pytest bench -q

The generator must produce residue systems whose labels hold by
construction; these tests check that with the benchmark's own integer
arithmetic, and cross-check a few labels against tileforge.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import worker  # noqa: E402  (imports tileforge from SRC)

SEEDS = (0, 1, 7)


def test_box_family_is_criterion_3():
    forms = inputs.box_forms()
    assert len(forms) == 752
    for p, sign in forms:
        m = inputs.cyclic_matrix(p, sign)
        # C^n = sign * prod(p) * I, so every eigenvalue has modulus prod(p)^(1/n) > 1.
        assert inputs.mat_pow(m, len(p)) == tuple(
            tuple(sign * math.prod(p) * int(i == j) for j in range(len(p))) for i in range(len(p)))
        assert inputs.is_residue_system(m, inputs.box_digit_set(p, sign))


def test_residue_check_rejects_repeated_classes():
    m, d = inputs.TWINDRAGON
    assert inputs.is_residue_system(m, d)
    assert not inputs.is_residue_system(m, ((0, 0), (1, 1)))   # (1, 1) = M (1, 0)
    assert not inputs.is_residue_system(m, ((1, 0), (2, 0)))   # no zero vector
    assert not inputs.is_residue_system(((2,),), ((0,), (2,)))


def test_adjugate_inverts():
    rng = random.Random(3)
    for d in (1, 2, 3, 4):
        for _ in range(20):
            a = tuple(tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(d))
            det = inputs.det(a)
            assert inputs.mat_mul(a, inputs.adjugate(a)) == tuple(
                tuple(det * int(i == j) for j in range(d)) for i in range(d))


@pytest.mark.parametrize("seed", SEEDS)
def test_unimodular_conjugates_keep_labels(seed):
    rng = random.Random(seed)
    for d in (2, 3):
        for steps in (1, 2, 3):
            u, uinv = inputs.unimodular(rng, d, steps)
            assert inputs.mat_mul(u, uinv) == inputs.identity(d)
            assert abs(inputs.det(u)) == 1
            p, sign = rng.choice([f for f in inputs.box_forms() if len(f[0]) == d])
            m, digits = inputs.cyclic_matrix(p, sign), inputs.box_digit_set(p, sign)
            m2, d2 = inputs.conjugate(m, digits, u, uinv)
            assert inputs.is_residue_system(m2, d2)
            # The attractor of (U M U^-1, U D) is U G: same cells, mapped by U.
            cells = inputs.attractor_cells(m, digits, 3)
            assert inputs.attractor_cells(m2, d2, 3) == {inputs.mat_vec(u, z) for z in cells}


@pytest.mark.parametrize("seed", SEEDS)
def test_scaled_digits_stay_residue_systems(seed):
    rng = random.Random(seed)
    for p, sign in rng.sample(inputs.box_forms(), 40):
        m, digits = inputs.cyclic_matrix(p, sign), inputs.box_digit_set(p, sign)
        k = inputs.coprime_scale(rng, m, (3, 5, 7, 11, 13))
        assert math.gcd(k, inputs.det(m)) == 1
        scaled = inputs.scale_digits(digits, k)
        assert inputs.is_residue_system(m, scaled)
        # The attractor of k D is k G, of measure k^d >= 2: not a tile.
        cells = inputs.attractor_cells(m, digits, 2)
        assert inputs.attractor_cells(m, scaled, 2) == {tuple(k * x for x in z) for z in cells}


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_tile_decide_systems(seed):
    """Every system of two tile_decide rounds is a residue system with a sound label."""
    rng = random.Random(seed)
    strata = worker._decide_strata()
    for _ in range(2):
        for _, draw in strata:
            m, digits, label = draw(rng)
            assert inputs.is_residue_system(m, digits)
            assert abs(inputs.det(m)) >= 2
            if not label:
                g = math.gcd(*(x for v in digits for x in v))
                assert g >= 3 and math.gcd(g, inputs.det(m)) == 1


def test_tile_decide_labels_agree_with_tileforge():
    from tileforge.attractor import tile_check_exact
    rng = random.Random(11)
    cheap = [s for s in worker._decide_strata() if s[0] != "3d-box-scaled-5"]
    for _, draw in cheap:
        m, digits, label = draw(rng)
        report = tile_check_exact(m, digits)
        assert report.is_tile == label and not report.indeterminate


@pytest.mark.parametrize("seed", SEEDS)
def test_chain_tilers_tile_their_segment(seed):
    rng = random.Random(seed)
    for _ in range(200):
        ys, length = inputs.chain_tiler(rng, 4096)
        assert ys[0] == 0 and length % len(ys) == 0
        assert inputs.tiles_segment(ys, length)
        ys = inputs.random_subset(rng, 24, 96)
        assert ys[0] == 0 and list(ys) == sorted(set(ys)) and ys[-1] < 96


def test_segment_tilers_match_brute_force():
    for n in range(1, 13):
        brute = {tuple(i for i in range(n) if mask >> i & 1)
                 for mask in range(1, 1 << n, 2)
                 if inputs.tiles_segment([i for i in range(n) if mask >> i & 1], n)}
        assert inputs.segment_tilers(n) == brute


def test_raster_map_matches_fractions():
    m, digits = inputs.TWINDRAGON
    cells = inputs.attractor_cells(m, digits, 6)
    minv = ((Fraction(1, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)))
    a = inputs.identity(2)
    for _ in range(6):
        a = inputs.mat_mul(a, minv)
    expected = {tuple(math.floor(x * 16) for x in inputs.mat_vec(a, z)) for z in cells}
    assert inputs.raster_cells(m, cells, 6, 16) == expected


def test_line_raster_clamps_to_extent():
    assert inputs.line_raster(2, ((0,), (1,)), 3, 4, Fraction(0), Fraction(1)) == {0, 1, 2, 3}


def test_seeded_inputs_are_deterministic():
    def first(workload, seed, n=30):
        ops = worker.WORKLOADS[workload].ops(random.Random(seed), HERE)
        return [op.kind for op, _ in zip(ops, range(n))]
    for workload in worker.WORKLOADS:
        assert first(workload, 5) == first(workload, 5)
    a = [draw(random.Random(5)) for _, draw in worker._decide_strata()]
    b = [draw(random.Random(5)) for _, draw in worker._decide_strata()]
    assert a == b


def test_failed_ops_are_counted(monkeypatch, tmp_path):
    def boom():
        raise ValueError("boom")

    ops = [worker.Op("ok", lambda: 1, lambda out: None),
           worker.Op("wrong", lambda: 1, lambda out: "wrong answer"),
           worker.Op("raises", boom, lambda out: None),
           worker.Op("unreadable", lambda: "", json.loads)]
    monkeypatch.setitem(worker.WORKLOADS, "fake",
                        worker.Workload(lambda rng, workdir: iter(ops), 0, 2))
    result = worker.run("fake", 0, 60.0, 4, None, tmp_path)
    assert (result["attempted"], result["failed"]) == (4, 3)
    assert result["ops_per_s"] > 0 and len(result["failures"]) == 3
    assert result["op_p90_ms"] is None   # fewer than 100 ops


def test_warmup_ops_are_checked_but_not_timed(monkeypatch, tmp_path):
    def slow():
        time.sleep(0.05)

    ops = [worker.Op("cold", slow, lambda out: "wrong answer")] + [
        worker.Op("warm", lambda: None, lambda out: None) for _ in range(120)]
    monkeypatch.setitem(worker.WORKLOADS, "fake",
                        worker.Workload(lambda rng, workdir: iter(ops), 1, 50))
    result = worker.run("fake", 0, 60.0, len(ops), None, tmp_path)
    assert (result["attempted"], result["failed"], result["measured_ops"]) == (121, 1, 120)
    assert result["op_p90_ms"] < 50 and result["timed_s"] >= 0.05
    assert result["ops_per_s"] > 120 / 0.05


def test_plane_render_warmup_is_its_first_round():
    ops = worker.WORKLOADS["plane_render"].ops(random.Random(2), HERE)
    kinds = [op.kind for op, _ in zip(ops, range(2 * worker.PLANE_WARMUP))]
    first, second = kinds[:worker.PLANE_WARMUP], kinds[worker.PLANE_WARMUP:]
    assert first.count("tile-check") == worker.PLANE_SYSTEMS
    assert "haar-gram-raster" in first and "haar-gram-raster" not in second
    assert second[:3] == ["tile-check", "render", "render-tiling"]


def _traced(tmp_path, workload, ops):
    spans = tmp_path / "spans.jsonl"
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--seconds", "60", "--ops", str(ops), "--trace", str(spans),
         "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"})
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    return result["layers"], [json.loads(line) for line in spans.read_text().splitlines()]


def test_trace_counts_and_self_time(tmp_path):
    layers, spans = _traced(tmp_path, "tile_decide", 7)
    assert layers["attractor.tile_check_exact.calls"] == 7
    assert layers["attractor.contact_matrix.calls"] == 7
    assert layers["lattice.validate_digits.calls"] == 7
    assert layers["attractor.approximate.calls"] == 0
    assert layers["attractor.contact_states"] > 0
    for module in ("lattice", "attractor"):
        fns = [k for k in layers if k.startswith(module + ".") and k.endswith(".self_s")
               and k.count(".") == 2]
        assert layers[f"{module}.self_s"] == pytest.approx(sum(layers[k] for k in fns))
    top = [s for s in spans if s["parent"] < 0]
    assert {s["name"] for s in top} == {"attractor.tile_check_exact"}
    assert layers["attractor.tile_check_exact.self_s"] <= layers["attractor.tile_check_exact.total_s"]
    assert layers["outside_spans_s"] >= 0


def test_trace_counts_tile_checks_per_cold_command(tmp_path):
    layers, spans = _traced(tmp_path, "plane_render", 1)   # the first op is `tile check`
    assert layers["cli.main.calls"] == 1
    parents = {i: s for i, s in enumerate(spans)}

    def under_main(i):
        while i >= 0 and spans[i]["name"] != "cli.main":
            i = spans[i]["parent"]
        return i >= 0

    checks = sum(1 for i, s in enumerate(spans)
                 if s["name"] == "attractor.tile_check_exact" and under_main(i))
    assert checks >= 1
    assert layers["attractor.tile_check_exact.calls"] == checks
    assert layers["attractor.tile_check_exact.calls_per_cold_tile_check"] == checks
    for s in spans:
        if s["name"] == "attractor.approximate":
            assert parents[s["parent"]]["name"] in ("cli.main", "attractor.shift_cover_layers",
                                                    "attractor.measure_upper")
