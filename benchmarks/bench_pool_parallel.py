"""Bench PP — parallel pool execution engine speedup + bit-identity.

Measures offline-phase wall time (member fitting and prequential
prediction-matrix construction) for the serial baseline and for every
``backend x n_jobs`` combination of :mod:`repro.runtime.executor`,
asserting along the way that every parallel run reproduces the serial
prediction matrix byte-for-byte. Results (including per-combination
speedups and the host's usable core count) are written as JSON for CI
artifact upload.

Run directly::

    PYTHONPATH=src python benchmarks/bench_pool_parallel.py
    PYTHONPATH=src python benchmarks/bench_pool_parallel.py --quick

The speedup you observe is bounded by the host: on a single-core
container every backend degenerates to ~1x (the engine still must be
*correct* there, which the bit-identity assertions cover); the >=2x
acceptance target applies to hosts with >= 4 usable cores.
"""

from __future__ import annotations

import argparse
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.models import ForecasterPool, build_pool
from repro.runtime.executor import available_workers

from stamp import write_result

DEFAULT_OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_pool_parallel.json"


def make_series(n: int, seed: int = 2024) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    season = 3.0 * np.sin(2 * np.pi * t / 24)
    noise = np.zeros(n)
    for i in range(1, n):
        noise[i] = 0.6 * noise[i - 1] + rng.normal(0, 0.5)
    return 10.0 + season + noise


def timed_run(pool_size: str, series: np.ndarray, start: int,
              backend: str, n_jobs, rounds: int):
    """Best-of-``rounds`` fit and matrix wall times for one configuration.

    Every round rebuilds the pool from scratch (same seed) so fit cost is
    measured cold and every configuration sees identical members.
    """
    best_fit = float("inf")
    best_matrix = float("inf")
    matrix = None
    for _ in range(rounds):
        pool = ForecasterPool(build_pool(pool_size),
                              executor=backend, n_jobs=n_jobs)
        t0 = time.perf_counter()
        pool.fit(series[:start])
        best_fit = min(best_fit, time.perf_counter() - t0)
        t0 = time.perf_counter()
        matrix = pool.prediction_matrix(series, start)
        best_matrix = min(best_matrix, time.perf_counter() - t0)
        pool.close()
    return best_fit, best_matrix, matrix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", choices=("small", "medium", "full"),
                        default="medium")
    parser.add_argument("--length", type=int, default=600)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--jobs", default="1,2,4",
                        help="comma-separated worker counts (default 1,2,4)")
    parser.add_argument("--backends", default="thread,process",
                        help="comma-separated parallel backends to measure")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: small pool, short series, 1 round")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    if args.quick:
        args.pool = "small"
        args.length = min(args.length, 300)
        args.rounds = 1

    series = make_series(args.length)
    start = int(args.length * 2 / 3)
    jobs_grid = [int(j) for j in args.jobs.split(",")]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]

    print(f"pool={args.pool} length={args.length} start={start} "
          f"rounds={args.rounds} cores={available_workers()}")

    serial_fit, serial_matrix, reference = timed_run(
        args.pool, series, start, "serial", None, args.rounds)
    print(f"serial         fit={serial_fit:8.3f}s matrix={serial_matrix:8.3f}s")

    runs = []
    identical = True
    for backend in backends:
        for jobs in jobs_grid:
            fit_s, matrix_s, matrix = timed_run(
                args.pool, series, start, backend, jobs, args.rounds)
            same = bool(np.array_equal(reference, matrix))
            identical = identical and same
            runs.append({
                "backend": backend,
                "n_jobs": jobs,
                "fit_seconds": fit_s,
                "matrix_seconds": matrix_s,
                "fit_speedup": serial_fit / fit_s if fit_s > 0 else None,
                "matrix_speedup": (
                    serial_matrix / matrix_s if matrix_s > 0 else None
                ),
                "bit_identical": same,
            })
            print(f"{backend:<7} jobs={jobs:<2} fit={fit_s:8.3f}s "
                  f"(x{serial_fit / fit_s:4.2f}) "
                  f"matrix={matrix_s:8.3f}s "
                  f"(x{serial_matrix / matrix_s:4.2f}) "
                  f"identical={same}")

    result = {
        "bench": "pool_parallel",
        "pool": args.pool,
        "length": args.length,
        "start": start,
        "rounds": args.rounds,
        "quick": args.quick,
        "cpu_count": available_workers(),
        "python": platform.python_version(),
        "serial": {"fit_seconds": serial_fit, "matrix_seconds": serial_matrix},
        "runs": runs,
        "all_bit_identical": identical,
    }
    write_result(args.output, result, quick=args.quick)
    print(f"wrote {args.output}")

    if not identical:
        print("ERROR: a parallel backend diverged from the serial matrix",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
