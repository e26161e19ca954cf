"""Per-stage times at 120, 1,200 and 4,000 zones from one traced run.

Reproduces the ROADMAP baseline table. From the root of a checkout:

    python3 perfbench/baseline.py            # seed 1, all three sizes
    python3 perfbench/baseline.py --seed 3 --sizes 120 1200

Each size is ``generate_synthetic_region(seed, n/3, 2n/3, facilities)``
in the fixed synthetic area, so neighbourhoods get denser as n grows.
Times are seconds from one traced pipeline replay (``workers=1``, the
default config) plus one call each of ``build_weights`` and
``local_bivariate`` on weights that are already built.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from geoaccess import RunConfig, generate_synthetic_region  # noqa: E402

from tracing import Tracer, spatial_probes, traced_pipeline  # noqa: E402
from workloads import DEFAULT_SEED, mean_neighbourhood, write_inputs  # noqa: E402

# Zone count -> facility count, as in the ROADMAP table.
FACILITIES = {120: 16, 1200: 160, 4000: 500}

COLUMNS = (
    ("ingest", ("ingest.",)),
    ("access", ("pipeline.access",)),
    ("gini", ("pipeline.gini",)),
    ("hotspot", ("pipeline.hotspot",)),
    ("risk", ("pipeline.risk",)),
    ("bivariate x2", ("pipeline.bivariate_",)),
    ("mortality", ("pipeline.mortality",)),
    ("write", ("output.",)),
    ("one weights build", ("probe.build_weights",)),
    ("one bivariate call", ("probe.local_bivariate_w1",)),
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--sizes", type=int, nargs="+", default=sorted(FACILITIES),
                   choices=sorted(FACILITIES))
    args = p.parse_args(argv)
    cfg = RunConfig()
    work = os.path.join(HERE, "_work", f"baseline-{os.getpid()}")
    print("| zones / facilities | mean hood | " + " | ".join(c for c, _ in COLUMNS)
          + " | pipeline total |")
    print("|---" * (len(COLUMNS) + 3) + "|")
    try:
        for n in args.sizes:
            n_urban = n // 3
            region = generate_synthetic_region(args.seed, n_urban, n - n_urban, FACILITIES[n])
            files = write_inputs(region, os.path.join(work, f"inputs-{n}"))
            tracer = Tracer()
            zones, field = traced_pipeline(tracer, files, os.path.join(work, f"out-{n}"), cfg)
            spatial_probes(tracer, zones, field, cfg)
            cells = [f"{sum(tracer.total(p) for p in prefixes):.3f}" for _, prefixes in COLUMNS]
            (op,) = tracer.named("op")
            total = tracer.duration(op) - tracer.total("ingest.")
            print(f"| {n:,} / {FACILITIES[n]} | {mean_neighbourhood(zones, cfg.band_miles):.0f} | "
                  + " | ".join(cells) + f" | {total:.3f} |", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
