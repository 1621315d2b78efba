"""Run-to-run spread of the end-to-end metrics over seeds.

    python3 perfbench/spread.py --workload theta_designs --seeds 1-10

Runs the benchmark once per seed, one run at a time, with the command and
run length of BENCHMARK.json, and prints for each end-to-end metric the
median, the quartiles and their distance as a share of the median, the
figure each bound is set against. It also prints the failed share of each
run, which must be the same in all of them.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    shares = set()
    for seed in seed_list(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if proc.returncode or not result["correct"]:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        shares.add((result["failed"], result["attempted"],
                    result["failed"] / result["attempted"]))
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.4f}" for k, v in values.items()),
              flush=True)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        print(f"{name}: median {med:.4f} q1 {q1:.4f} q3 {q3:.4f} spread {spread:.4f} "
              f"(bound {bounds[name]}, a third of it {bounds[name] / 3:.4f})")
    print("failed/attempted per run:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
