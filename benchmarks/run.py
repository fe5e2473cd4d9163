"""cntbands benchmark: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from `src/`.  The run
sets up (imports, seeded inputs, reference table, warm-up), then runs whole
rounds of ops until at least S seconds have passed and at least 100 op
latencies are recorded, so that 10 lie beyond the 90th percentile.  Every
op's output is checked.  Lines before the last describe the machine and each
metric with its unit; the last line is the JSON result.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same inputs
for S seconds, each round once with spans around the public calls of each
layer and once without, in alternating order, and reports the per-layer
metrics and the tracing overhead.  See README.md here for every metric.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_SAMPLES = 100
SETUP_RUNS = 3          # this process plus two fresh ones; setup_s is their median
MAX_LOOP_S = 140        # stop adding rounds after this, whatever the sample count
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "ok_frac": "ratio", "peak_rss_mb": "MB", "setup_s": "s",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the setup time as JSON and exit")
    return ap.parse_args(argv)


def limit_blas_threads():
    """Cap BLAS threads at the CPUs this process may use, for it and its children."""
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def machine(threads, seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads, "seed": seed,
    }


def run_round(wl, items, tracer=None):
    """Run and check one round; returns (latencies, attempted, failed, output bytes)."""
    lat, attempted, failed, nbytes = [], 0, 0, 0
    for item in items:
        if tracer is not None:
            tracer.op += 1
        attempted += 1
        try:
            out, seconds = wl.run(item)
        except Exception as exc:   # a raising op is a failed op; keep measuring
            print(f"# op {item} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        lat.append(seconds)
        failed += not wl.check(item, out)
        nbytes += wl.out_bytes(out)
    return lat, attempted, failed, nbytes


def child_setup_s(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "0", "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=120).stdout
    return json.loads(out.strip().splitlines()[-1])["setup_s"]


def end_to_end(wl, args, setup_main):
    lat, rounds, attempted, failed = [], 0, 0, 0
    t0 = time.perf_counter()
    for items in wl.rounds():
        r_lat, r_att, r_fail, _ = run_round(wl, items)
        lat += r_lat
        rounds += 1
        attempted += r_att
        failed += r_fail
        elapsed = time.perf_counter() - t0
        if (elapsed >= args.seconds and len(lat) >= MIN_SAMPLES) or elapsed >= MAX_LOOP_S:
            break
    peak = wl.peak_rss_mb()
    setups = [setup_main] + [child_setup_s(args) for _ in range(SETUP_RUNS - 1)]
    metrics = {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setups),
    }
    print(f"# samples {len(lat)} latencies in {rounds} rounds; "
          f"setup samples {[round(s, 4) for s in setups]}")
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, attempted, failed


def per_layer(wl, args, workloads, spans):
    """Each round runs traced and untraced, in alternating order, for S seconds in all."""
    tracer = spans.Tracer()
    lat_t, lat_u, attempted, failed, nbytes, done = [], [], 0, 0, 0, 0
    t0 = time.perf_counter()
    for items in wl.rounds():
        for traced in (True, False) if done % 2 == 0 else (False, True):
            if not traced:
                lat_u += run_round(wl, items)[0]
                continue
            for module, attr in workloads.TRACED:
                tracer.wrap(module, attr, workloads.COUNTS.get(attr))
            try:
                r_lat, r_att, r_fail, r_bytes = run_round(wl, items, tracer)
            finally:
                tracer.close()
            lat_t += r_lat
            attempted += r_att
            failed += r_fail
            nbytes += r_bytes
        done += 1
        if time.perf_counter() - t0 >= min(args.seconds, MAX_LOOP_S):
            break
    summary = tracer.summary(workloads.TRACED_NAMES)
    metrics = {}
    for name in workloads.TRACED_NAMES:
        row = summary[name]
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.busy_s"] = (row["busy_s"], "s")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    dim_max = max((s.counts.get("dim", 0) for s in tracer.spans), default=0)
    cli_runs = summary["cli.main"]["calls"] > 0
    metrics.update({
        "bands.band_gap.grid_evals": (summary["bands.band_gap"]["grid_evals"], "count"),
        "bands.band_gap.wrong": (failed if wl.failures == "band_gap" else 0, "count"),
        "bands.band_table.rows": (summary["bands.band_table"]["rows"], "count"),
        "cli.import_s": (cli_import_s() if cli_runs else 0.0, "s"),
        "cli.bytes_out": (nbytes if cli_runs else 0, "B"),
        "oracle.dim_max": (dim_max, "count"),
        "oracle.matrix_bytes": (16 * dim_max * dim_max, "B"),
        "oracle.compare_spectra.failed": (failed if wl.failures == "compare_spectra" else 0,
                                          "count"),
        "trace.overhead_frac": (sum(lat_t) / sum(lat_u) - 1.0, "ratio"),
        "fail_frac": (failed / attempted, "ratio"),
    })
    print(f"# traced {done} rounds, {len(tracer.spans)} spans; grid_evals and matrix_bytes "
          "are computed as n x resolution and 16 d^2, not measured")
    return metrics, attempted, failed


def cli_import_s():
    """Median time to import cntbands.cli in a fresh interpreter, of three."""
    code = "import time; t = time.perf_counter(); import cntbands.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                                  capture_output=True, text=True).stdout)
             for _ in range(3)]
    return statistics.median(times)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cntbands" / "__init__.py").is_file():
        print(f"error: no cntbands package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    threads = limit_blas_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, trace=bool(args.trace))
    try:
        setup_main = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main}))
            return 0
        print("# machine " + json.dumps(machine(threads, args.seed)))
        if args.trace:
            metrics, attempted, failed = per_layer(wl, args, workloads, spans)
        else:
            metrics, attempted, failed = end_to_end(wl, args, setup_main)
    finally:
        wl.close()
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
