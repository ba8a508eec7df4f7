#!/usr/bin/env python3
"""Gate the perf-regression CI lane on deterministic allocation counts.

Usage: check_bench_baseline.py BENCH_PR4.json ci/alloc_baseline.json

Reads the merged bench artifact (interp_alloc + simd_gemm fragments) and
fails (exit 1) when any measured allocation count exceeds its committed
ceiling. Only allocation counts gate the lane: they are deterministic
per (code, HECTOR_SCALE) pair, so a breach is always a real regression.
Wall-clock and GFLOP/s fields ride along in the artifact for humans but
never fail the job.
"""

import json
import sys


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    with open(sys.argv[1]) as f:
        bench = json.load(f)
    with open(sys.argv[2]) as f:
        base = json.load(f)

    rows = bench.get("interp_alloc", {})
    failed = False

    for row, ceiling in base["max_allocs_per_pass"].items():
        got = rows.get(row, {}).get("allocs_per_pass")
        if got is None:
            print(f"FAIL {row}: missing from bench artifact")
            failed = True
        elif got > ceiling:
            print(f"FAIL {row}: {got} allocs/pass exceeds baseline {ceiling}")
            failed = True
        else:
            print(f"  ok {row}: {got} <= {ceiling} allocs/pass")

    for field, ceiling in (
        ("scratch_grows", base["max_scratch_grows"]),
        ("plan_grows", base["max_plan_grows"]),
    ):
        for row, metrics in sorted(rows.items()):
            got = metrics.get(field, 0)
            if got > ceiling:
                print(f"FAIL {row}: {field}={got} exceeds baseline {ceiling}")
                failed = True

    # Informational: surface the microkernel speedups in the job log.
    for row, metrics in sorted(bench.get("simd_gemm", {}).items()):
        print(f"info {row}: speedup {metrics.get('speedup', 'n/a')}")

    # Informational: engine/module-cache reuse wins (wall clock never
    # gates; the bench itself asserts the deterministic hit/miss shape).
    for row, metrics in sorted(bench.get("engine_reuse", {}).items()):
        print(
            f"info engine_reuse {row}: cold {metrics.get('cold_build_us', 'n/a')}us"
            f" -> cached {metrics.get('cached_build_us', 'n/a')}us"
            f" (hits {metrics.get('cache_hits', 'n/a')})"
        )

    # Informational: mini-batch pipeline throughput and overlap (batch
    # *contents* are gated by tests/minibatch.rs; wall clock never gates,
    # and CI runners rarely spare a core for the producer thread).
    for row, metrics in sorted(bench.get("minibatch", {}).items()):
        print(
            f"info minibatch {row}: {metrics.get('seeds_per_sec', 'n/a')} seeds/s,"
            f" overlap {metrics.get('overlap_fraction', 'n/a')},"
            f" pipeline speedup {metrics.get('speedup', 'n/a')}x"
        )

    # Informational: tracing-subsystem overhead (tests/run_alloc.rs gates
    # the zero-allocation claim; wall-clock deltas never gate — the A/A
    # line shows the noise floor the on/off delta should sit inside).
    for row, metrics in sorted(bench.get("trace_overhead", {}).items()):
        print(
            f"info trace_overhead {row}: span_start"
            f" {metrics.get('span_start_ns', 'n/a')}ns,"
            f" tracing-off A/A delta {metrics.get('off_aa_delta_pct', 'n/a')}%,"
            f" tracing-on overhead {metrics.get('on_overhead_pct', 'n/a')}%"
            f" ({metrics.get('events_recorded', 'n/a')} events)"
        )

    # Informational: multi-tenant serving throughput (the bench itself
    # asserts the >= 1.5x coalescing contrast and tests/serve.rs gates
    # bit-identity with the sequential oracle; wall clock never gates).
    for row, metrics in sorted(bench.get("serve_throughput", {}).items()):
        print(
            f"info serve_throughput {row}:"
            f" {metrics.get('req_per_s', 'n/a')} req/s,"
            f" p50 {metrics.get('p50_us', 'n/a')}us,"
            f" p99 {metrics.get('p99_us', 'n/a')}us,"
            f" coalescing {metrics.get('coalescing_factor', 'n/a')}x"
        )

    if failed:
        print("perf-regression: allocation baseline exceeded")
        return 1
    print("perf-regression: all allocation counts within baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
