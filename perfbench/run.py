"""Benchmark of the periodic solve, the IVP march and the dissipation number.

Run from the root of a checkout:

    python3 perfbench/run.py --workload periodic_euler --seed 1 --seconds 14 --trace 0

One process runs one workload: set-up (timed several times, median
reported), then repetitions of the timed operation for --seconds seconds,
then the checks of every output. Reported times are scaled to a reference
host speed measured by a fixed probe around every timed interval; the
wall times go to the result file. With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 the
first half of the time runs untraced and the second half under a Tracer,
and the JSON holds the per-layer metrics and the tracing overhead.
Results and span files go to perfbench/out/.
"""
import os

# the library does not thread; a BLAS pool on few cores only adds noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPS = 3   # set-up repetitions of an untraced run (median reported)
MIN_REPS = 3     # timed repetitions at least, whatever --seconds says
# the speed probe's time at the reference speed every reported time is
# scaled to (its median on the machine the bounds were measured on)
PROBE_NOMINAL_S = 0.05
_PROBE_ROWS = np.sin(0.1 * np.arange(64.0)).reshape(32, 2)
_PROBE_T = np.linspace(0.0, 2.0, 32) + 0.013


def host_speed() -> float:
    """Time of a fixed kernel over its nominal time (above 1: slower host).

    The kernel is the shape of the sweep's hot path, periodic cubic
    weights and gathers on 32-row arrays. The host's core speed swings by
    up to 2x for seconds at a time; timing the probe right before and
    after an interval and dividing the interval by the mean factor takes
    that swing out of the reported times.
    """
    t0 = time.perf_counter()
    for _ in range(2000):
        s = (_PROBE_T / 2.0 - np.floor(_PROBE_T / 2.0)) * 32
        j = np.floor(s)
        f = s - j
        j = j.astype(np.int64) % 32
        w0 = -f * (f - 1) * (f - 2) / 6.0
        w1 = (f + 1) * (f - 1) * (f - 2) / 2.0
        w0[:, None] * _PROBE_ROWS[(j - 1) % 32] + w1[:, None] * _PROBE_ROWS[j]
    return (time.perf_counter() - t0) / PROBE_NOMINAL_S


_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "t = time.perf_counter(); import periodic_hyp; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of importing the package in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, first_rep: int, tracer=None) -> tuple:
    """Repeat the timed operation for `seconds`.

    Returns (wall times, times at reference speed, outputs).
    """
    times, scaled, outputs = [], [], []
    rep = first_rep
    speed = host_speed()
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        inp = wl.prepare(rep)
        if tracer is not None:
            tracer.op = rep
        t0 = time.perf_counter()
        out = wl.op(inp)
        times.append(time.perf_counter() - t0)
        after = host_speed()
        scaled.append(times[-1] / (0.5 * (speed + after)))
        speed = after
        outputs.append(out)
        rep += 1
    return times, scaled, outputs


def parse_args(argv, names):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(names))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv, workloads.WORKLOADS)
    try:
        prog = workloads.load_program(SRC)
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}", flush=True)

    setup_s, setup_scaled = [], []
    for _ in range(1 if args.trace else SETUP_REPS):
        speed = host_speed()
        t_import = import_seconds()
        t0 = time.perf_counter()
        wl = cls(prog, args.seed)
        wl.setup()
        setup_s.append(t_import + time.perf_counter() - t0)
        setup_scaled.append(setup_s[-1] / (0.5 * (speed + host_speed())))

    if args.trace:
        half = args.seconds / 2
        plain_times, plain_scaled, outputs = measure(wl, half, 0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_times, traced_scaled, traced_outputs = measure(
                wl, half, len(plain_times), tracer)
        finally:
            tracer.uninstall()
        times = plain_times + traced_times
        scaled = plain_scaled + traced_scaled
        outputs += traced_outputs
    else:
        times, scaled, outputs = measure(wl, args.seconds, 0)

    failed = sum(wl.failures(o) for o in outputs)
    attempted = len(outputs) * wl.ops_per_rep
    fails = wl.check(outputs)
    for msg in fails[:20]:
        print(f"CHECK FAILED: {msg}", flush=True)
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted} "
          f"failed {failed} ({len(times)} repetitions of {wl.ops_per_rep} operations)",
          flush=True)

    if args.trace:
        n_ops = len(traced_times) * wl.ops_per_rep
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracing.layer_metrics(tracer.totals(), n_ops).items()}
        overhead = statistics.median(traced_scaled) / statistics.median(plain_scaled) - 1.0
        metrics["tracing.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = {
            "op_ms": {"value": 1e3 * statistics.median(scaled) / wl.ops_per_rep, "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not fails, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  op_wall_seconds=times, op_scaled_seconds=scaled,
                  setup_wall_seconds=setup_s, setup_scaled_seconds=setup_scaled,
                  check_failures=fails)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if not fails else 1


if __name__ == "__main__":
    sys.exit(main())
