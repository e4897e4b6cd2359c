"""Run the benchmark on several seeds and record medians and spreads.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--workload NAME ...]
                                  [--no-trace] [--out FILE]

Runs ``run.py`` once per seed for each workload, one run at a time, then
(unless ``--no-trace``) twice with ``--trace 1`` on the first seed,
checking that the per-layer counts repeat exactly.  For every end-to-end
metric it prints and records the run count, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median, for the scaled
values the benchmark reports and for the unscaled ones of its ``raw``
line.  With ``--out`` the record, including the per-layer table of the
traced run, is written as JSON (perfbench/baseline.json holds the record
of the commit that defined the benchmark).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    raw = next((json.loads(line[4:]) for line in lines if line.startswith("raw ")), None)
    return env, raw, json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "runs": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append")
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    spec = bench()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    record = {"run_seconds": spec["run_seconds"], "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    for workload in workloads:
        values = {name: [] for name in bounds}
        raw_values = {name: [] for name in list(bounds) + ["host_speed"]}
        outcomes = []
        for seed in seeds:
            env, raw, result = run_once(spec, workload, seed, 0)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in raw_values:
                raw_values[name].append(raw[name])
            outcomes.append({"seed": seed, "loadavg": env["loadavg"], "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4g} {units[k]}" for k, v in values.items())
                + f", error_rate={result['failed'] / result['attempted']:.4g}, host_speed={raw['host_speed']:.3f}",
                flush=True)
        entry = {"runs": outcomes, "end_to_end": {}, "unscaled": {}}
        for name, vals in values.items():
            s = spread(vals)
            entry["end_to_end"][name] = s
            r = entry["unscaled"][name] = spread(raw_values[name])
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {name}: median {s['median']:.4g} {units[name]}, quartiles {s['q1']:.4g}..{s['q3']:.4g}, "
                  f"spread {s['spread']:.3f} (bound {bounds[name]}; unscaled {r['spread']:.3f}){flag}", flush=True)
        entry["unscaled"]["host_speed"] = spread(raw_values["host_speed"])
        if not args.no_trace:
            traced = [run_once(spec, workload, seeds[0], 1)[2]["metrics"] for _ in range(2)]
            entry["traced_seed"] = seeds[0]
            entry["traced"] = {k: v["value"] for k, v in traced[0].items()}
            counts = [{k: v["value"] for k, v in t.items() if v["unit"] in ("count", "byte")} for t in traced]
            entry["traced_counts_repeat"] = counts[0] == counts[1]
            print(f"  traced twice on seed {seeds[0]}: counts repeat {entry['traced_counts_repeat']}", flush=True)
        record["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
