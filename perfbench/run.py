"""The fingeo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fingeo is imported from its ``src/``.
Workloads (the module docstrings say why each was chosen):

  classify-cold     build and classify gallery examples from cold caches
  reconstruct-warm  closed loop of reconstructions on warmed geometries
  cli-session       the README's CLI session, one child process per command

With ``--trace 0`` the run sets up once, runs the workload's fixed job list
ROUNDS times (a constant, so that every commit's statistics are taken over
the same number of samples; three rounds take 10 to 35 s on the host the
benchmark was defined on), then sets up twice more.  Only when the rounds
run past twice ``--seconds`` does the run stop early, after at least two,
and say so.

The run pins itself and its children to one vCPU.  Every time is measured
with the wall clock around the operation alone and scaled to a reference
host speed by the calibration kernel of hostspeed.py, run before and after
each short chunk of work: on a shared host the speed of pure-Python code
swings by up to 2x for minutes, and the scaling is what keeps two sets of
runs comparable.  The unscaled figures are printed on a ``raw`` line beside
the host's median speed.

  setup_s      median of the three set-ups (each a fresh import of fingeo
               plus building the workload's inputs and warming its caches)
  wall_s       median over the rounds of the round's time, the sum of its
               operations' times
  op_p50_ms    median (nearest rank) over the operations of the job list
               of each one's latency, the median of its three runs
  op_p99_ms    99th percentile (nearest rank) of the same; on classify-cold
               (13 operations) and cli-session (37) that is the slowest
  peak_rss_mb  peak resident memory of this process, or of the largest
               child on cli-session

Taking each operation's median over the rounds keeps a pause that hits one
run of one operation (a collection, a burst of the host's noise) out of
the percentiles, which would otherwise follow the host's noise from run
to run; such a pause still counts in wall_s.

An operation whose answer is wrong or missing in any round counts as
missing every latency limit (common.FAILED_MS).  ``error_rate`` (failed
over attempted operations) is printed on its own line.  With ``--trace 1``
the run does two untraced rounds, then sets up again with the layer tracer
installed and runs one traced round; it reports the per-layer metrics of
the traced set-up and round and the tracing overhead (the traced round's
unscaled time minus the faster untraced round's).

Every operation's output is checked against golden.json or against the
generator of its input.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; ``correct`` is false when
any answer was wrong, and ``failed`` also counts operations that broke the
CLI's exit-code contract or raised.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

import classify_cold
import cli_session
import hostspeed
import reconstruct_warm
import tracer as tracing
from common import FAILED_MS, OUT, SetupError, Tally, digest, fresh_import, load_golden, percentile

WORKLOADS = {w.NAME: w for w in (classify_cold, reconstruct_warm, cli_session)}
ROUNDS = 3
SETUP_REPEATS = 3
MIN_ROUNDS = 2


def set_up(workload, seed, golden, meter, layer_tracer=None):
    """One timed set-up from a fresh import; returns (seconds, scaled
    seconds, state)."""
    meter.start()
    t0 = time.perf_counter()
    fg = fresh_import()
    if layer_tracer is not None:
        tracing.install(layer_tracer)
    state = workload.setup(fg, seed, golden)
    seconds = time.perf_counter() - t0
    return seconds, seconds * meter.scale(), state


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload is cli_session else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def environment(seed, inputs_digest):
    load1, load5, load15 = os.getloadavg()
    return {
        "seed": seed,
        "inputs_digest": inputs_digest,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(load1, 2), round(load5, 2), round(load15, 2)],
    }


def op_latencies_ms(rounds, scaled):
    """Each operation's median latency over the rounds, or FAILED_MS."""
    per_op = zip(*(r.latencies_ms(scaled) for r in rounds))
    return [FAILED_MS if FAILED_MS in lats else statistics.median(lats) for lats in per_op]


def summarise(rounds, setups, rss, scaled=True):
    """The end-to-end metrics, from scaled or from unscaled times."""
    ops = op_latencies_ms(rounds, scaled)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r.wall(scaled) for r in rounds), "s"),
        "op_p50_ms": (percentile(ops, 50), "ms"),
        "op_p99_ms": (percentile(ops, 99), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def measure(workload, seed, seconds, golden):
    """Set up, run the rounds, then set up twice more, so that the set-up
    times are taken at different moments of the run."""
    meter = hostspeed.Meter()
    raw_setup, setup, state = set_up(workload, seed, golden, meter)
    print("env " + json.dumps(environment(seed, digest(workload.inputs(state)))), flush=True)
    rounds = []
    t_start = time.perf_counter()
    while len(rounds) < ROUNDS:
        rounds.append(workload.run(state, meter))
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - t_start > 2 * seconds:
            print(f"stopped after {len(rounds)} of {ROUNDS} rounds: past twice --seconds")
            break
    rss = peak_rss_mb(workload)
    del state
    raw_setups, setups = [raw_setup], [setup]
    for _ in range(SETUP_REPEATS - 1):
        raw_setup, setup, _ = set_up(workload, seed, golden, meter)
        raw_setups.append(raw_setup)
        setups.append(setup)
    total = Tally()
    for r in rounds:
        total.merge(r.tally)
    raw = {k: v for k, (v, _) in summarise(rounds, raw_setups, rss, scaled=False).items()}
    raw["host_speed"] = meter.median_speed()
    print("raw " + json.dumps(raw))
    print(
        f"rounds {len(rounds)}, operations {len(rounds[0].seconds)} per round, "
        f"error_rate {total.failed / total.attempted:.6f} ratio ({total.failed}/{total.attempted})"
    )
    return summarise(rounds, setups, rss), total


def measure_traced(workload, seed, golden):
    meter = hostspeed.Meter()
    _, _, state = set_up(workload, seed, golden, meter)
    print("env " + json.dumps(environment(seed, digest(workload.inputs(state)))), flush=True)
    untraced = [workload.run(state, meter) for _ in range(MIN_ROUNDS)]
    untraced_wall = min(r.wall(scaled=False) for r in untraced)
    del state
    trace_dir = os.path.join(OUT, f"trace-{workload.NAME}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    tr = tracing.Tracer()
    in_process = workload is not cli_session
    _, _, state = set_up(workload, seed, golden, meter, tr if in_process else None)
    traced = workload.run(state, meter, trace_dir)
    wall = traced.wall(scaled=False)
    tally = Tally()
    for r in untraced + [traced]:
        tally.merge(r.tally)
    if in_process:
        summary, counters, process_start_s = tr.summary(), tr.counters, 0.0
        tr.write(os.path.join(trace_dir, "spans.gz"))
    else:
        summary, counters, process_start_s = state["trace"]
    metrics = tracing.per_layer(summary, counters, process_start_s)
    metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
    metrics["trace.traced_wall_s"] = (wall, "s")
    metrics["trace.overhead_s"] = (wall - untraced_wall, "s")
    print(f"spans written to {os.path.relpath(trace_dir)}")
    return metrics, tally


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        print(f"pinned to vCPU {hostspeed.pin()}")
        golden = load_golden()
        if args.trace:
            metrics, tally = measure_traced(workload, args.seed, golden)
        else:
            metrics, tally = measure(workload, args.seed, args.seconds, golden)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in tally.failures:
        print(f"FAILED {line}")
    width = max(len(k) for k in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.wrong == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
