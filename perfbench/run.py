"""geoaccess benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Workloads are ``dense`` and ``sprawl`` (see perfbench/README.md). With
``--trace 0`` the operation runs back to back, untraced, for about
``--seconds`` and the end-to-end metrics are reported. With ``--trace 1``
the operation is replayed under spans between untraced runs of it, and
the per-layer metrics are reported after a JSON document of every span. The last line of standard output is always the result object.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def _import_geoaccess() -> float:
    """Import geoaccess from this checkout's src/ and return the seconds it took."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    try:
        import geoaccess
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import geoaccess from {SRC}: {exc}")
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(geoaccess.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: geoaccess imported from {geoaccess.__file__}, not {SRC}")
    return elapsed


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("dense", "sprawl"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--record-reference", action="store_true",
                   help="store the default seed's output digests in reference.json and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    import_s = _import_geoaccess()
    import bench

    return bench.run(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
