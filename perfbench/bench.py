"""Set-up, the untraced and traced runs, and the result line.

Every workload is a closed loop: one caller, ``workers=1``, the next
operation starting when the previous one has finished.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import time

from geoaccess import RunConfig, generate_synthetic_region, run_pipeline

from tracing import Tracer, layer_metrics, spatial_probes, traced_pipeline
from workloads import (
    DEFAULT_SEED, REFERENCE_LOOP_S, WORKLOADS, at_reference_speed, file_digests,
    mean_neighbourhood, reference_loop, run_operations, timed_pipeline, write_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Set-up runs this many times per run; setup_s reports the median.
SETUP_REPEATS = 3
# Untraced operations on each side of the traced replay.
UNTRACED_AROUND = 3

__all__ = ["run"]


def _report(metrics, kind):
    """Attach units from BENCHMARK.json; the names must be exactly its ``kind`` metrics."""
    with open(SPEC, encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(metrics) != set(units):
        raise ValueError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with {SPEC}")
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


class Run:
    """One workload at one seed: its inputs on disk and its operation."""

    def __init__(self, args, run_dir):
        self.args = args
        self.build = WORKLOADS[args.workload]
        self.cfg = RunConfig()
        self.run_dir = run_dir
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.expected = self.reference.get(args.workload) if args.seed == DEFAULT_SEED else None
        self.files = None
        self.setups = 0

    def setup(self) -> float:
        """Generate and write the inputs, then warm up; returns the seconds taken."""
        t0 = time.perf_counter()
        rep = self.setups = self.setups + 1
        self.region = self.build(self.args.seed)
        self.files = write_inputs(self.region, os.path.join(self.run_dir, f"inputs-{rep}"))
        run_pipeline(*generate_synthetic_region(self.args.seed),
                     os.path.join(self.run_dir, f"warm-{rep}"), self.cfg)
        return time.perf_counter() - t0

    def op(self, i):
        """One timed operation; returns (seconds, output digests)."""
        elapsed, digests = timed_pipeline(self.files, os.path.join(self.run_dir, f"out-{i}"),
                                          self.cfg)
        names = self.reference.get(self.args.workload)
        if names is not None and sorted(digests) != sorted(names):
            raise ValueError(f"wrote {sorted(digests)}, expected {sorted(names)}")
        return elapsed, digests


def run(args, import_s) -> int:
    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        job = Run(args, run_dir)
        if args.record_reference:
            return _record_reference(job)
        setup_s = _setup_seconds(job, import_s)
        if args.trace:
            return _traced(job)
        return _untraced(job, setup_s)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _setup_seconds(job, import_s) -> float:
    """Import time plus the median of the set-ups, each at reference speed
    like an operation; the import is judged by the loop just after it."""
    loops = [reference_loop()]
    setups = []
    for _ in range(SETUP_REPEATS):
        took = job.setup()
        loops.append(reference_loop())
        setups.append(at_reference_speed(took, loops[-2:]))
    return at_reference_speed(import_s, loops[:1]) + statistics.median(setups)


def _record_reference(job) -> int:
    if job.args.seed != DEFAULT_SEED:
        print(f"perfbench: reference digests are recorded for seed {DEFAULT_SEED} only",
              file=sys.stderr)
        return 2
    job.reference.pop(job.args.workload, None)
    job.setup()
    _, digests = job.op(0)
    job.reference[job.args.workload] = digests
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(job.reference, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests for {job.args.workload} seed {job.args.seed}")
    return 0


def _untraced(job, setup_s) -> int:
    args, cfg = job.args, job.cfg
    samples = run_operations(job.op, job.expected, args.seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for line in samples.mismatches:
        print(f"FAILED {line}", file=sys.stderr)
    if not samples.seconds:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    zones, facilities, counties = job.region
    hood = mean_neighbourhood(zones, cfg.band_miles)
    q1, wall, q3 = _quartiles(samples.scaled)
    raw_q1, raw_wall, raw_q3 = _quartiles(samples.seconds)
    zones_per_s = len(zones) * len(samples.scaled) / sum(samples.scaled)
    print(f"{args.workload} seed {args.seed}: {len(zones)} zones, {len(facilities)} facilities, "
          f"{len(counties)} county-year rows, mean neighbourhood {hood:.1f} zones "
          f"within {cfg.band_miles:g} mi")
    print(f"wall_s       median {wall:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples.scaled)}"
          f"  (scaled to a {REFERENCE_LOOP_S:g} s reference loop)")
    print(f"raw wall     median {raw_wall:.4f} s  q1 {raw_q1:.4f}  q3 {raw_q3:.4f}")
    print("op seconds   " + " ".join(f"{t:.4f}" for t in samples.seconds))
    print(f"zones_per_s  {zones_per_s:.1f} 1/s")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    print(f"setup_s      {setup_s:.4f} s")
    print(f"failed_frac  {samples.failed / samples.attempted:.4f}  "
          f"({samples.failed} of {samples.attempted})")
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": samples.attempted,
        "failed": samples.failed,
        "metrics": _report({"wall_s": wall, "zones_per_s": zones_per_s,
                            "peak_rss_mb": peak_mb, "setup_s": setup_s}, "end_to_end"),
    }))
    return 0


def _traced(job) -> int:
    """The operation replayed under spans, between untraced operations.

    ``UNTRACED_AROUND`` untraced operations run before the replay and as
    many after it, each at reference speed like in an untraced run. The
    untraced time is their median, brought to the speed the replay ran
    at, so that drift in machine speed cancels from the overhead and the
    unexplained time.
    """
    args, cfg = job.args, job.cfg
    loops = [reference_loop()]
    untraced, digest_sets = [], []

    def untraced_ops(first):
        for i in range(first, first + UNTRACED_AROUND):
            took, digests = job.op(i)
            loops.append(reference_loop())
            untraced.append(at_reference_speed(took, loops[-2:]))
            digest_sets.append(digests)

    untraced_ops(0)
    expected = job.expected or digest_sets[0]
    tracer = Tracer()
    out_dir = os.path.join(job.run_dir, "traced")
    zones, field = traced_pipeline(tracer, job.files, out_dir, cfg)
    loops.append(reference_loop())
    replay_loops = loops[-2:]
    replay = file_digests(out_dir)
    probes_ok = spatial_probes(tracer, zones, field, cfg)
    loops.append(reference_loop())
    untraced_ops(UNTRACED_AROUND)
    untraced_s = statistics.median(untraced) * sum(replay_loops) / (2.0 * REFERENCE_LOOP_S)
    checks = [(digests == expected, f"untraced operation {i} differs from the "
               + ("reference digests" if job.expected else "first"))
              for i, digests in enumerate(digest_sets)]
    checks += [
        (replay == expected, "traced replay differs from the untraced operations"),
        (probes_ok, "local_bivariate differs between workers=1 and workers=2"),
    ]
    failed = 0
    for ok, message in checks:
        if not ok:
            failed += 1
            print(f"FAILED {message}", file=sys.stderr)

    metrics = layer_metrics(tracer, untraced_s)
    print(json.dumps(tracer.document(workload=args.workload, seed=args.seed,
                                     untraced_at_reference_s=untraced,
                                     reference_loop_s=loops)))
    for name, value in metrics.items():
        print(f"{name:40s} {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": _report(metrics, "per_layer"),
    }))
    return 0
