"""The benchmark's own checks, at the smallest sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

from geoaccess import RunConfig, generate_synthetic_region  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SMALL = {
    "dense": lambda seed: wl.dense_region(seed, 8, 16, 4),
    "sprawl": lambda seed: wl.sprawl_region(seed, tiles=4),
}

# Zones near a tile edge may see the next tile, so tiling may raise the
# mean neighbourhood a little above that of the tiles on their own.
HOOD_TOLERANCE = 0.10


def _file_bytes(files):
    out = []
    for path in files.paths():
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


@pytest.mark.parametrize("name", sorted(SMALL))
def test_inputs_repeat_for_a_seed_and_differ_for_another(name, tmp_path):
    first = _file_bytes(wl.write_inputs(SMALL[name](3), str(tmp_path / "a")))
    again = _file_bytes(wl.write_inputs(SMALL[name](3), str(tmp_path / "b")))
    other = _file_bytes(wl.write_inputs(SMALL[name](4), str(tmp_path / "c")))
    assert first == again
    assert first != other


def test_sprawl_inputs_carry_a_polygon_per_zone(tmp_path):
    files = wl.write_inputs(SMALL["sprawl"](3), str(tmp_path))
    assert files.geometry is not None
    zones, _, _ = SMALL["sprawl"](3)
    assert all(z.geometry["type"] == "Polygon" for z in zones)


@pytest.mark.parametrize("seed", [1, 7])
def test_tiling_keeps_the_default_mean_neighbourhood(seed):
    band = RunConfig().band_miles
    tiles = 6
    zones, facilities, counties = wl.tiled_region(seed, tiles=tiles, columns=3)
    assert len(zones) == 120 * tiles and len(facilities) == 16 * tiles
    assert len({z.zone_id for z in zones}) == len(zones)
    assert len({(c.county_id, c.year) for c in counties}) == len(counties)
    alone = [wl.mean_neighbourhood(generate_synthetic_region(seed * tiles + k)[0], band)
             for k in range(tiles)]
    expected = sum(alone) / tiles
    tiled = wl.mean_neighbourhood(zones, band)
    assert expected <= tiled <= expected * (1.0 + HOOD_TOLERANCE)


def test_tiles_do_not_overlap():
    tiles, columns = 6, 3
    zones, _, _ = wl.tiled_region(5, tiles=tiles, columns=columns)
    boxes = {}
    for z in zones:
        k = int(z.zone_id[1:3])
        lat0, lat1, lon0, lon1 = boxes.get(k, (90.0, -90.0, 180.0, -180.0))
        boxes[k] = (min(lat0, z.centroid.lat), max(lat1, z.centroid.lat),
                    min(lon0, z.centroid.lon), max(lon1, z.centroid.lon))
    for a in range(tiles):
        for b in range(a + 1, tiles):
            la, lb = boxes[a], boxes[b]
            apart_ns = la[1] < lb[0] or lb[1] < la[0]
            apart_ew = la[3] < lb[2] or lb[3] < la[2]
            assert apart_ns or apart_ew, (a, b)


@pytest.fixture
def small_dense(tmp_path):
    return wl.write_inputs(SMALL["dense"](2), str(tmp_path / "inputs"))


def test_corrupted_output_is_counted_failed(small_dense, tmp_path, monkeypatch):
    cfg = RunConfig()
    real = wl.run_pipeline
    calls = []

    def corrupting(zones, facilities, counties, out_dir, cfg):
        written = real(zones, facilities, counties, out_dir, cfg)
        calls.append(out_dir)
        if len(calls) % 2 == 0:
            with open(written["access"], "a", encoding="utf-8") as fh:
                fh.write("\n")
        return written

    def op(i):
        return wl.timed_pipeline(small_dense, str(tmp_path / f"out-{i}"), cfg)

    _, reference = op(0)
    monkeypatch.setattr(wl, "run_pipeline", corrupting)
    for expected in (reference, None):
        calls.clear()
        # Each operation is followed by the ~0.2 s reference loop.
        samples = wl.run_operations(op, expected, seconds=1.5)
        assert samples.attempted >= 3
        assert samples.failed == samples.attempted // 2
        assert len(samples.seconds) == samples.attempted - samples.failed
        assert len(samples.scaled) == len(samples.seconds)
        assert all("access.csv" in m for m in samples.mismatches)


def test_times_scale_to_reference_speed():
    slow = 2.0 * wl.REFERENCE_LOOP_S
    assert wl.at_reference_speed(3.0, [slow, slow]) == pytest.approx(1.5)
    assert wl.at_reference_speed(3.0, [slow, 0.0]) == pytest.approx(3.0)
    assert wl.at_reference_speed(3.0, [wl.REFERENCE_LOOP_S]) == pytest.approx(3.0)


def test_raising_operation_is_counted_failed():
    def op(i):
        raise OSError("disk full")

    samples = wl.run_operations(op, None, seconds=0.0)
    assert (samples.attempted, samples.failed, samples.seconds) == (1, 1, [])


def test_traced_replay_writes_what_run_pipeline_writes(small_dense, tmp_path):
    cfg = RunConfig()
    untraced_s, digests = wl.timed_pipeline(small_dense, str(tmp_path / "plain"), cfg)
    tracer = tracing.Tracer()
    zones, field = tracing.traced_pipeline(tracer, small_dense, str(tmp_path / "traced"), cfg)
    assert wl.file_digests(str(tmp_path / "traced")) == digests
    assert tracing.spatial_probes(tracer, zones, field, cfg)

    names = [rec["name"] for rec in tracer.spans if rec["parent"] == 0]
    stages = [n for n in names if n.startswith("pipeline.")]
    assert stages == list(tracing.STAGE_METRICS)
    selfs = tracer.self_times()
    top = sum(tracer.duration(r) for r in tracer.spans if r["parent"] is None)
    assert sum(selfs.values()) == pytest.approx(top)

    metrics = tracing.layer_metrics(tracer, untraced_s)
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(metrics) == sorted(declared)
    assert metrics["ingest.rows"] == 24 + 4 + len(SMALL["dense"](2)[2])
    assert metrics["output.files"] == len(digests)
    assert metrics["spatial.weights_nnz"] >= len(zones)
    assert all(metrics[m] > 0 for m in tracing.STAGE_METRICS.values())
