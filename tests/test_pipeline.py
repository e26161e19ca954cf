import filecmp

import pytest

from geoaccess import RunConfig, generate_synthetic_region, run_pipeline
from geoaccess import pipeline as pl


@pytest.mark.parametrize("scheme", ["fixed_band", "knn"])
def test_run_pipeline_builds_weights_once_and_shares_them(tmp_path, monkeypatch, scheme):
    zones, facilities, counties = generate_synthetic_region(3)
    cfg = RunConfig(weights_scheme=scheme)
    calls = []
    build = pl.build_weights

    def counting_build(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(pl, "build_weights", counting_build)
    run_pipeline(zones, facilities, counties, tmp_path / "shared", cfg)
    assert calls == [scheme]

    # The same run with every spatial stage building its own weights.
    hotspot, bivariate = pl.hotspot_rows, pl.bivariate_rows
    monkeypatch.setattr(pl, "hotspot_rows",
                        lambda zones, values, cfg, weights=None: hotspot(zones, values, cfg))
    monkeypatch.setattr(pl, "bivariate_rows",
                        lambda zones, x, y, cfg, computed=None, weights=None:
                        bivariate(zones, x, y, cfg, computed))
    calls.clear()
    run_pipeline(zones, facilities, counties, tmp_path / "own", cfg)
    assert calls == [scheme] * 4

    names = sorted(p.name for p in (tmp_path / "shared").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "own").iterdir())
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "shared", tmp_path / "own", names,
                                               shallow=False)
    assert (mismatch, errors) == ([], [])
