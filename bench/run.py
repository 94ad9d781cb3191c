"""liecurv benchmark: one workload per call, each in a fresh interpreter.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory. Workloads: catalog_report, flag_survey, random_algebras,
cli_cold (see bench/README.md for why each one is there).

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
The run fails (nonzero exit, no result) when the checkout has no liecurv
sources or a worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("catalog_report", "flag_survey", "random_algebras", "cli_cold")
SETUP_RUNS = 5  # setup_s is the median over this many fresh interpreters
DEADLINE_S = 170  # a run must end within 180 s


def worker_cmd(args, *extra) -> list:
    return [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def timed_worker(cmd: list, deadline: float) -> tuple[float, str]:
    """Spawn a worker; return (seconds from spawn to READY at the reference
    host speed, remaining stdout). Past the deadline the worker and anything
    it started are killed."""
    factor = hostspeed.scale([hostspeed.child_ms()], "child")
    t0 = time.perf_counter()
    # its own process group, so that a kill also reaches a running CLI child
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))[0]:
            raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
        first = proc.stdout.readline()
        ready = (time.perf_counter() - t0) * factor
        if first.strip() != "READY":
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
            raise RuntimeError("worker failed during set-up")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return ready, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "liecurv" / "__init__.py").is_file():
        print(f"error: no liecurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cpu = hostspeed.pin_fastest_cpu()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(timed_worker(worker_cmd(args, "--setup-only"), deadline)[0])
        ready, out = timed_worker(worker_cmd(args), deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    print(f"# pinned to cpu {cpu}")
    for line in lines[:-1]:
        print(line)
    if not args.trace:
        setups.append(ready)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        print(f"# setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
