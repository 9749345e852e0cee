#!/usr/bin/env python3
"""The repo benchmark: croupier/gozar gossip runs timed from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call builds
.bench_build/perfbench/croupier-perfbench from perfbench/ and src/ (CMake,
Release). Every trial then runs in a child process, so an abort is a
failed trial rather than a lost run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. The
lines above it print the same metrics with their units, and the results
that are checked rather than timed. perfbench/README.md documents the
workloads, the metrics and the layer to end-to-end table.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "croupier-perfbench")
BUILD_TIMEOUT = 840
RUN_TIMEOUT = 170  # all trials of one run, after the build
# Nominal host seconds of one measured window on a 4-vCPU x86 VM; a run
# measures --seconds as round(seconds / this) identical replicas (>= 2).
WINDOW_HOST_S = {"croupier-seq": 4.5, "croupier-wj4": 3.5,
                 "gozar-churn-packet": 4.0}
# Host-speed gauge (src/gauge.hpp): host times are reported as if one
# gauge unit took this long, about its median on that VM.
GAUGE_NOMINAL_S = 0.010

# Workload and metric names and units: BENCHMARK.json, the one place
# they are defined.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the trial program; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=BUILD_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {' '.join(cmd)}: {e}")
            return False
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return os.path.exists(BINARY)


class Trial:
    """One child-process run of the trial program."""

    deadline = None  # time.monotonic() by which every trial must end

    def __init__(self, args, label):
        self.label = label
        self.record = None
        self.problems = []
        timeout = max(1.0, Trial.deadline - time.monotonic())
        try:
            proc = subprocess.run([BINARY] + args, cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            self.problems.append(f"timed out after {timeout:.0f} s")
            return
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            self.problems.append(f"exit {proc.returncode}: " + " | ".join(tail))
            return
        try:
            self.record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.problems.append("no result line")
            return
        self.problems.extend(self.record.get("checks", []))

    @property
    def ok(self):
        return not self.problems

    @property
    def completed(self):
        return self.record is not None


def workload_trial(workload, seed, traced):
    return Trial(["--workload", workload, "--seed", str(seed),
                  "--trace", "1" if traced else "0"],
                 f"{workload}{' traced' if traced else ''}")


def same_digest(trials, why):
    """Fails every trial whose digest differs from the first one's."""
    ref = trials[0]
    for t in trials[1:]:
        if t.completed and ref.completed and \
                t.record["digest"] != ref.record["digest"]:
            t.problems.append(f"digest {t.record['digest']} != "
                              f"{ref.record['digest']} of {ref.label} ({why})")


def span_seconds(recs, span, calibrated=True):
    """Host seconds of a played span, summed round by round.

    Each round's slices are scaled by GAUGE_NOMINAL_S over the gauge time
    taken right after that round (calibrated), and each round takes the
    median over the replicas, which play the identical simulation.
    """
    total = 0.0
    rounds = len(recs[0][f"{span}_gauge_s"])
    per_round = len(recs[0][f"{span}_slices_s"]) // rounds
    for j in range(rounds):
        values = []
        for r in recs:
            host = sum(r[f"{span}_slices_s"][j * per_round:(j + 1) * per_round])
            scale = GAUGE_NOMINAL_S / r[f"{span}_gauge_s"][j] if calibrated \
                else 1.0
            values.append(host * scale)
        total += statistics.median(values)
    return total


def setup_seconds(recs, calibrated=True):
    """Median set-up time over every set-up of every replica."""
    return statistics.median(
        s * (GAUGE_NOMINAL_S / g if calibrated else 1.0)
        for r in recs for s, g in zip(r["setup_s"], r["setup_gauge_s"]))


def end_to_end(recs, calibrated=True):
    return {
        "setup_s": setup_seconds(recs, calibrated),
        "warmup_s": span_seconds(recs, "warmup", calibrated),
        "us_per_node_round": span_seconds(recs, "window", calibrated) * 1e6 /
        recs[0]["node_rounds"],
        "rss_kib_per_node": statistics.median(
            r["peak_rss_kib"] / r["peak_nodes"] for r in recs),
        "traffic_bytes_per_node_s": recs[0]["traffic_bytes_per_node_s"],
        "indegree_chi2_z": recs[0]["indegree_chi2_z"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not build():
        return 1
    Trial.deadline = time.monotonic() + RUN_TIMEOUT

    w, seed, traced = args.workload, args.seed, args.trace == 1
    trials = []   # every trial attempted, in order
    timed = []    # trials whose timings are reported

    if traced:
        # An untraced twin gives the overhead base and the digest the
        # traced run must reproduce.
        plain = workload_trial(w, seed, False)
        probe = workload_trial(w, seed, True)
        trials += [plain, probe]
        same_digest([plain, probe], "tracing changed the simulation")
    else:
        replicas = max(2, round(args.seconds / WINDOW_HOST_S[w]))
        timed = [workload_trial(w, seed, False) for _ in range(replicas)]
        trials += timed
        same_digest(timed, "same seed, different result")

    if w == "croupier-wj4":
        # The parallel engine must reproduce the sequential one exactly.
        reference = workload_trial("croupier-seq", seed, False)
        trials.append(reference)
        same_digest([reference] + trials[:-1], "engine changed the result")

    # Known defect, kept visible on purpose: with NAT identification on,
    # churn aborts (the responder asks the network for the public address
    # of a client churn already killed). This trial fails until it is fixed.
    natid = None
    if w == "gozar-churn-packet":
        natid = Trial(["--natid-churn-repro", "--seed", str(seed)],
                      "natid-churn-repro")
        trials.append(natid)

    attempted = len(trials)
    failed = sum(1 for t in trials if not t.ok)
    workload_trials = [t for t in trials if t is not natid]
    correct = all(t.ok for t in workload_trials)

    for t in trials:
        if not t.ok:
            log(f"trial {t.label} failed: {'; '.join(t.problems)}")

    if traced:
        if not (plain.completed and probe.completed):
            return 1
        layers = dict(probe.record["layers"])
        layers["trace.overhead_frac"] = (
            span_seconds([probe.record], "window") /
            span_seconds([plain.record], "window") - 1.0)
        metrics = {k: (layers[k], PER_LAYER[k]) for k in PER_LAYER}
        shown = plain.record
    else:
        done = [t.record for t in timed if t.completed]
        if not done:
            return 1
        values = end_to_end(done)
        metrics = {k: (values[k], END_TO_END[k]) for k in END_TO_END}
        uncalibrated = end_to_end(done, calibrated=False)
        shown = done[0]

    print(f"# {w} seed={seed} trace={args.trace} "
          f"world_jobs={shown['world_jobs']} digest={shown['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    if not traced:
        for name in ("setup_s", "warmup_s", "us_per_node_round"):
            print(f"{name + '.uncalibrated':32s} {uncalibrated[name]:16.6g} "
                  f"{END_TO_END[name]} (raw host time, not in the result)")
    # Checked, not timed: printed for the record.
    if w != "gozar-churn-packet":
        print(f"{'est_avg_error':32s} {shown['est_avg_error']:16.6g} "
              "abs (checked against its bound)")
    print(f"{'failed_frac':32s} {failed / attempted:16.6g} "
          f"ratio ({failed} of {attempted} trials)")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
