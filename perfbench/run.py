"""Run the repository benchmark.

One workload, as the benchmark contract calls it::

    python3 perfbench/run.py --workload durable_churn --seed 1 \\
        --seconds 40 --trace 0

prints human-readable lines (stamp, load-generator discipline, checks,
every metric with its unit) and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the per-layer metrics. Exits non-zero when a
correctness check fails.

Every workload, untraced then traced, each in its own process::

    python3 perfbench/run.py --all --seed 1 --seconds 40

Run from the root of a source checkout; the program is imported from its
``src`` directory. Spill directories live under ``.perfbench_work`` in
the checkout and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"


def stamp(seed: int) -> dict:
    """Where and what was measured; printed, never part of the result."""
    import numpy

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }


def declared(kind: str) -> dict:
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def correct_from(checks: dict, discipline: dict) -> bool:
    ok = discipline["ok"] and checks.get("outputs_ok", False)
    ok &= checks.get("paper_passes_ok", True)
    ok &= not checks.get("pristine_after_untraced")
    ok &= not checks.get("pristine_after_traced", [])
    ok &= checks.get("attribution", {"ok": True})["ok"]
    return bool(ok)


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    try:
        from layers import Patcher, Tracer
        from workloads import WORKLOADS, make_run

        if args.workload not in WORKLOADS:
            print(f"unknown workload {args.workload!r}; choose from "
                  f"{', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        print("# stamp " + json.dumps(stamp(args.seed)))
        patcher = Patcher(Tracer())
        run = make_run(args.workload, args.seed, args.seconds, str(workdir))
        if args.trace:
            metrics = run.run_traced(patcher)
            units = declared("per_layer")
        else:
            metrics = run.run_untraced()
            recorder = run.recorder
            metrics["ok_share"] = (
                (recorder.attempted - recorder.failed) / recorder.attempted
            )
            run.checks["pristine_after_untraced"] = patcher.verify_pristine()
            units = declared("end_to_end")
        discipline = run.report()
        correct = correct_from(run.checks, discipline)
        print("# discipline " + json.dumps(discipline))
        print("# counts " + json.dumps(run.recorder.counts))
        print("# checks " + json.dumps(run.checks, default=str))
        for error in run.recorder.errors:
            print(f"# failed request: {error}")
        missing = sorted(set(units) - set(metrics))
        if missing:
            print(f"# metrics not produced: {missing}", file=sys.stderr)
            correct = False
        for name, unit in units.items():
            if name in metrics:
                print(f"{args.workload:>15} {name:<36} "
                      f"{metrics[name]:>14.4f} {unit}")
        undeclared = {k: v for k, v in metrics.items() if k not in units}
        if undeclared:
            print("# not declared " + json.dumps(undeclared))
        print(json.dumps({
            "correct": correct,
            "attempted": run.recorder.attempted,
            "failed": run.recorder.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name in metrics
            },
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    status = 0
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if not line.startswith("#"):
                    print(line)
            if proc.returncode != 0:
                status = 1
                print(f"{workload} trace={trace}: exit {proc.returncode}")
                print(proc.stderr[-2000:], file=sys.stderr)
            sys.stdout.flush()
    return status


def _terminate(signum, frame):
    # Unwind through the finally blocks: services shut down, shard
    # workers are joined and the work directory is removed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("--workload or --all is required")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
