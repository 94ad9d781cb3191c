"""One benchmark run of one workload, in a fresh interpreter.

run.py starts it. It prints ``READY`` once set-up is done (run.py times
set-up from its own spawn to that line), then runs the closed loop, checks
every output outside the timed region, and prints one JSON result as its
last line.

Untraced (--trace 0): the end-to-end metrics; run.py adds setup_s.
Traced (--trace 1): the first half of the time runs untraced, the second
half with span wrappers installed. The per-layer metrics come from the
second half; the throughput of the two halves gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
MIN_OPS = 100  # so that p90 has ten samples beyond it
PROBE_EVERY_S = 0.25  # host-speed samples cost a few % of a run

# Self-test: the functions each workload's timed ops must reach, and those
# they must never reach. Functions in neither list are free either way.
MUST_CALL = {
    "catalog_report": (
        "catalog.get_case", "catalog.reproduce", "catalog.fixture_line",
        "exprs.parse_expr", "exprs.evaluate", "documents.parse_document",
        "algebra.check_jacobi", "algebra.MetricTensor.inner",
        "algebra.MetricTensor.is_positive_definite", "linalg.solve_many",
        "linalg.nullspace", "linalg.rank", "linalg.gram_schmidt",
        "linalg.orthonormal_pair", "riemann.levi_civita", "riemann.riemann_tensor",
        "riemann.scalar_curvature", "riemann.sectional", "riemann.curvature_apply",
        "randers.parallel_fields", "randers.build_randers", "randers.g_y",
        "randers.flag_curvature", "scalars.sqrt_scalar"),
    "flag_survey": (
        "randers.flag_curvature", "randers.g_y", "riemann.curvature_apply",
        "algebra.MetricTensor.inner", "scalars.sqrt_scalar"),
    "random_algebras": (
        "documents.parse_document", "documents.document_digest",
        "algebra.check_jacobi", "algebra.MetricTensor.inner",
        "algebra.MetricTensor.is_positive_definite", "linalg.solve_many",
        "linalg.nullspace", "linalg.gram_schmidt", "riemann.levi_civita",
        "riemann.riemann_tensor", "riemann.scalar_curvature", "riemann.sectional",
        "riemann.curvature_apply", "randers.parallel_fields"),
    "cli_cold": (
        "cli.main", "catalog.get_case", "catalog.reproduce", "exprs.parse_expr",
        "exprs.evaluate", "documents.parse_document", "documents.document_digest",
        "algebra.check_jacobi", "riemann.levi_civita", "riemann.riemann_tensor",
        "riemann.scalar_curvature", "riemann.sectional", "randers.parallel_fields",
        "randers.build_randers", "randers.g_y", "randers.flag_curvature"),
}
MUST_NOT_CALL = {
    "catalog_report": ("cli.main", "documents.document_digest"),
    "flag_survey": (
        "cli.main", "catalog.get_case", "catalog.reproduce", "catalog.fixture_line",
        "exprs.parse_expr", "exprs.evaluate", "documents.parse_document",
        "documents.document_digest", "algebra.check_jacobi",
        "algebra.MetricTensor.is_positive_definite", "linalg.solve_many",
        "linalg.nullspace", "linalg.rank", "linalg.gram_schmidt",
        "linalg.orthonormal_pair", "riemann.levi_civita", "riemann.riemann_tensor",
        "riemann.scalar_curvature", "randers.parallel_fields", "randers.build_randers"),
    "random_algebras": (
        "cli.main", "catalog.get_case", "catalog.reproduce", "catalog.fixture_line",
        "exprs.parse_expr", "exprs.evaluate", "randers.build_randers", "randers.g_y",
        "randers.flag_curvature"),
    "cli_cold": (),
}


def run_loop(wl, seconds: float, min_ops: int, start: int, tracer=None) -> dict:
    """Closed loop from op `start` until `seconds` have passed, at least
    `min_ops` ops have run, and the last cycle is whole. Before an op, once
    PROBE_EVERY_S has passed since the last sample, the workload's host-speed
    probe runs, outside the timed op."""
    latencies, verified, exact, failures = [], [], 0, []
    probes, sample_of = [], []  # probe times; per op, its latest sample
    probe = hostspeed.PROBES[wl.speed_probe][0]
    begin = time.perf_counter()
    last_sample = -PROBE_EVERY_S
    i = start
    while (time.perf_counter() - begin < seconds or i - start < min_ops
           or (i - start) % wl.cycle):
        if time.perf_counter() - last_sample >= PROBE_EVERY_S:
            last_sample = time.perf_counter()
            probes.append(probe())
        sample_of.append(len(probes) - 1)
        inp = wl.make_input(i)
        error = None
        if tracer is not None:
            tracer.begin_op(i)
        t0 = time.perf_counter()
        try:
            out = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end_op()
            if error is None:
                wl.collect(tracer, out)
        if error is None:
            ok, is_exact, why = wl.check(inp, out)
            exact += is_exact
            if not ok:
                error = why
        verified.append(error is None)
        if error is not None:
            failures.append(f"op {i}: {error}")
        i += 1
    return {"latencies": latencies, "verified": verified, "probes": probes,
            "sample_of": sample_of, "exact": exact, "failures": failures,
            "wall": time.perf_counter() - begin}


def scaled_latencies(wl, res: dict) -> list:
    """Op times at the reference host speed: each op is scaled by the median
    of the probe sample taken before it and its two neighbours."""
    k = res["probes"]
    factors = [hostspeed.scale(k[max(0, j - 1):j + 2], wl.speed_probe)
               for j in range(len(k))]
    return [t * factors[j] for t, j in zip(res["latencies"], res["sample_of"])]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def windows(wl, n: int) -> list:
    """Split n ops into windows of whole cycles, each at least MIN_OPS ops;
    leftover cycles join the last window."""
    size = wl.cycle * -(-MIN_OPS // wl.cycle)
    count = max(1, n // size)
    return [(k * size, (k + 1) * size if k < count - 1 else n) for k in range(count)]


def end_to_end(wl, res: dict) -> dict:
    """Throughput and latency percentiles are medians over windows of at
    least MIN_OPS ops, so that a stretch the host-speed scaling misjudges
    moves them less."""
    lat, ok = scaled_latencies(wl, res), res["verified"]
    rates, p50s, p90s = [], [], []
    for a, b in windows(wl, len(lat)):
        rates.append(sum(ok[a:b]) / sum(lat[a:b]))
        deciles = statistics.quantiles(lat[a:b], n=10)
        p50s.append(deciles[4])
        p90s.append(deciles[8])
    attempted = len(lat)
    return {
        "ops_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(p50s) * 1e3, "unit": "ms"},
        "op_p90_ms": {"value": statistics.median(p90s) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "exact_ratio": {"value": res["exact"] / attempted, "unit": "ratio"},
        "verified_ratio": {"value": sum(ok) / attempted, "unit": "ratio"},
    }


def import_probe(env: dict, repeats: int = 3) -> tuple[float, float]:
    """Median (numpy share, whole `import liecurv.cli`) in ms, each from a
    fresh interpreter that imports and exits."""
    numpy_ms, import_ms, probes = [], [], []
    stats = OUT_DIR / f"import-probe-{os.getpid()}.json"
    for _ in range(repeats):
        probes.append(hostspeed.child_ms())
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", str(BENCH_DIR / "clitrace.py"),
             "--stats", str(stats)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr[-300:]}")
        numpy_ms.append(spans.numpy_import_ms(proc.stderr))
        import_ms.append(json.loads(stats.read_text())["import_ms"])
    stats.unlink()
    factor = hostspeed.scale(probes, "child")
    return statistics.median(numpy_ms) * factor, statistics.median(import_ms) * factor


def per_layer(wl, tracer, plain: dict, traced: dict, cli_numbers) -> tuple[dict, list]:
    ops = len(traced["latencies"])
    factor = hostspeed.scale(traced["probes"], wl.speed_probe)
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in spans.NAMES:
        if name != "cli.main":
            put(f"{name}.calls_per_op", tracer.calls[name] / ops, "count")
        put(f"{name}.self_ms_per_op", tracer.self_ns[name] / 1e6 / ops * factor, "ms")
    parse_calls = tracer.calls["exprs.parse_expr"]
    put("exprs.parse_expr.unique_ratio",
        tracer.distinct_sources() / parse_calls if parse_calls else 0.0, "ratio")
    linalg_calls = sum(tracer.calls[n] for n in spans.LINALG)
    put("linalg.float_call_ratio",
        tracer.linalg_float / linalg_calls if linalg_calls else 0.0, "ratio")
    sqrt_calls = tracer.calls["scalars.sqrt_scalar"]
    put("scalars.sqrt_scalar.irrational_ratio",
        tracer.sqrt_irrational / sqrt_calls if sqrt_calls else 0.0, "ratio")
    put("cli.numpy_import_ms", cli_numbers[0], "ms")
    put("cli.import_ms", cli_numbers[1], "ms")

    def rate(res):
        return len(res["latencies"]) / sum(scaled_latencies(wl, res))

    put("trace_overhead_ratio", rate(traced) / rate(plain), "ratio")

    problems = [f"{name}: not found in liecurv" for name in tracer.missing]
    problems += [f"{name}: 0 calls, expected some" for name in MUST_CALL[wl.name]
                 if tracer.calls[name] == 0 and name not in tracer.missing]
    problems += [f"{name}: {tracer.calls[name]} calls, expected 0"
                 for name in MUST_NOT_CALL[wl.name] if tracer.calls[name]]
    put("selftest_failures", len(problems), "count")
    return metrics, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import liecurv
    if not Path(liecurv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: liecurv imported from {liecurv.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    out_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def run(args, out_dir: Path) -> int:
    import workloads

    env = dict(os.environ)  # run.py put this checkout's src/ on PYTHONPATH
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliCold:
        wl = cls(args.seed, out_dir, sys.executable, env, ROOT)
    else:
        wl = cls(args.seed, out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if not args.trace:
        res = run_loop(wl, args.seconds, MIN_OPS, 0)
        metrics = end_to_end(wl, res)
        runs = [res]
        lat = res["latencies"]
        deciles = statistics.quantiles(lat, n=10)
        print(f"# {wl.name}: {len(lat)} ops in {len(windows(wl, len(lat)))} windows, "
              f"{res['wall']:.1f} s, "
              f"failed_ratio {len(res['failures']) / len(lat):.4f}; "
              f"host speed {hostspeed.scale(res['probes'], wl.speed_probe):.3f} of reference; "
              f"unscaled ops_per_s {sum(res['verified']) / sum(lat):.4g}, "
              f"op_p50_ms {deciles[4] * 1e3:.4g}, op_p90_ms {deciles[8] * 1e3:.4g}")
    else:
        plain = run_loop(wl, args.seconds / 2, wl.cycle, 0)
        tracer = spans.Tracer()
        if cls is workloads.CliCold:
            wl.traced = True  # the CLI children install the wrappers
        else:
            tracer.install()
        traced = run_loop(wl, args.seconds / 2, wl.cycle, len(plain["latencies"]), tracer)
        tracer.uninstall()
        if cls is workloads.CliCold:
            factor = hostspeed.scale(traced["probes"], "child")
            cli_numbers = (statistics.median(wl.numpy_ms) * factor,
                           statistics.median(wl.import_ms) * factor)
        else:
            cli_numbers = import_probe(env)
        metrics, problems = per_layer(wl, tracer, plain, traced, cli_numbers)
        spans.write_spans(OUT_DIR / f"spans-{wl.name}-seed{args.seed}.tsv", tracer.spans)
        runs = [plain, traced]
        print(f"# selftest: {'pass' if not problems else 'FAIL'}")
        for p in problems:
            print(f"#   {p}")

    failures = [f for res in runs for f in res["failures"]]
    for f in failures[:10]:
        print(f"# failure: {f}", file=sys.stderr)
    attempted = sum(len(res["latencies"]) for res in runs)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
