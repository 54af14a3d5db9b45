#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 fvbench/record.py --seeds 1-10 --seconds 30 \
        [--workloads tables-cold,gen-sweep] [--trace] [--bin PATH] \
        [--out fvbench/trajectory/NAME.json]

Run from the repository root. Each workload runs once per seed; the
summary gives, per metric, the median and the spread, which is the
distance between the first and third quartiles as a share of the median
(`statistics.quantiles(values, n=4)`). With `--out` the summary is
written as one trajectory point, tagged with the commit and `nproc`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["tables-cold", "tables-warm", "gen-sweep", "serve-mixed"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    started = time.time()
    out = subprocess.run(args, capture_output=True, text=True)
    elapsed = time.time() - started
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, elapsed


def summary(values):
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "spread": None, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "spread": spread, "values": values}


def commit():
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--trace", action="store_true")
    p.add_argument("--bin", help="a built fvbench binary (default: cargo run)")
    p.add_argument("--out")
    a = p.parse_args()
    command = [a.bin] if a.bin else [
        "cargo", "run", "--release", "--offline", "--quiet",
        "--manifest-path", "fvbench/Cargo.toml", "--"]
    point = {"commit": commit(), "nproc": os.cpu_count(), "run_seconds": a.seconds,
             "trace": a.trace, "seeds": seeds(a.seeds), "workloads": {}}
    for workload in a.workloads.split(","):
        metrics, runs = {}, []
        for seed in seeds(a.seeds):
            result, elapsed = run(command, workload, seed, a.seconds, a.trace)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "elapsed_s": round(elapsed, 1)})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(
                    m["value"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {elapsed:.1f}s", flush=True)
        point["workloads"][workload] = {
            "runs": runs,
            "metrics": {name: {"unit": m["unit"], **summary(m["values"])}
                        for name, m in metrics.items()},
        }
        for name, m in point["workloads"][workload]["metrics"].items():
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:<40} median {m['median']:<14.6g} spread {spread}")
    if a.out:
        os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
        with open(a.out, "w") as f:
            json.dump(point, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
