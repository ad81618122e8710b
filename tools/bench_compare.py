#!/usr/bin/env python3
"""Diff two BENCH_kernels.json files from `bench_micro_kernels --perf-json`.

usage: bench_compare.py BASELINE.json CURRENT.json [--threshold=0.8]

Prints a side-by-side ratio table for every point present in BOTH
files. The file has four sections of points:
  kernels    — SIMD kernel throughput (gbps);
  whole_net  — one whole-net run: its wall time, and its setup and infer
               times where the file splits them;
  serve      — Engine::run_batches serving throughput (infer_per_s);
  multichip  — simulated multi-chip scaling (sim_images_per_s).
Any other section is ignored, so a baseline written with sections this
script does not read still compares.
Every point the harness writes is the median of several runs and
carries "runs" and a <metric>_min/_max spread (a whole_net point one per
phase: wall, setup, infer); the diff is median against median, and the
current spread is printed beside the ratio. A one-run point from an
older baseline still compares by its single value.
Extra points on either side are listed, not compared — a --quick run
legitimately omits VGG16, and a baseline from before the two-tier split
simply has no functional-tier entries; those show up as "new entry",
never as regressions. whole_net/serve points are keyed by execution
tier, with missing "tier" fields defaulting to "cycle" so old baselines
stay comparable. A point is flagged as a REGRESSION when its current
range lies wholly below the baseline's (no overlap: the best current run
is slower than the worst baseline run). A point without a range on
either side, such as an older one-run baseline, is flagged when its
current throughput falls below threshold * baseline.

This is an *informational* CI leg: machine load and CPU frequency swings
make wall-clock comparisons noisy, so the exit code is 0 unless a file
is missing or malformed (exit 2). Humans (or a stricter CI) read the
flags.
"""

import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def kernel_key(k):
    return ("kernel", k["name"], k["backend"], k["n"])


# whole_net/serve entries are keyed by execution tier since the two-tier
# split; files written before it carry no "tier" field and default to the
# cycle tier, so old baselines keep lining up with new runs.
def wholenet_key(r):
    return ("whole_net", r["net"], r["backend"], r.get("tier", "cycle"))


# Batched serving points (the infer_batch ladder) carry "b" (execution
# batch size); files written before the batched path omit it, defaulting
# to 1 so the unbatched points keep lining up with old baselines. Files
# written before the pool-width ladder was dropped also carry
# "intra_jobs" points, which stay apart from every current point (and
# show as baseline-only) through the same default. Multi-chip serving
# points additionally carry "chips" and "partition"; missing keys default
# to the single-chip package (chips=1, partition="single") for the same
# reason.
def serve_key(r):
    return ("serve", r["net"], r["backend"], r["jobs"],
            r.get("tier", "cycle"), r.get("b", 1), r.get("intra_jobs", 1),
            r.get("chips", 1), r.get("partition", "single"))


# Multi-chip scaling points (from `bench_multichip --perf-json`) are pure
# simulated-cycle measurements: byte-stable across hosts, so a ratio
# change here is a partitioner/interconnect model change, never noise.
def multichip_key(r):
    return ("multichip", r["net"], r["chips"], r["partition"])


def spread(r, metric):
    lo, hi = r.get(metric + "_min"), r.get(metric + "_max")
    return (lo, hi) if lo is not None and hi is not None else None


# A milliseconds spread as a rate spread (higher is better).
def rate_spread(r, metric):
    ms = spread(r, metric)
    return (1.0 / ms[1], 1.0 / ms[0]) if ms and ms[0] > 0 else None


def index(doc):
    points = {}
    for k in doc.get("kernels", []):
        # Higher is better for throughput. Entries missing their metric
        # (older harness versions) are skipped rather than fatal.
        if "gbps" in k:
            points[kernel_key(k)] = ("gbps", k["gbps"], spread(k, "gbps"))
    for r in doc.get("whole_net", []):
        # Convert wall_ms to a rate so "higher is better" holds uniformly.
        if r.get("wall_ms"):
            points[wholenet_key(r)] = ("1/wall_ms", 1.0 / r["wall_ms"],
                                       rate_spread(r, "wall_ms"))
        # Cycle points also split wall_ms into setup and infer; files
        # written before the split have neither, so these keys show up as
        # new entries against such a baseline, never as regressions.
        for phase in ("infer", "setup"):
            ms = r.get(phase + "_ms")
            if ms:
                points[(phase,) + wholenet_key(r)[1:]] = (
                    f"1/{phase}_ms", 1.0 / ms, rate_spread(r, phase + "_ms"))
    for r in doc.get("serve", []):
        if "infer_per_s" in r:
            points[serve_key(r)] = ("infer_per_s", r["infer_per_s"],
                                    spread(r, "infer_per_s"))
    for r in doc.get("multichip", []):
        if "sim_images_per_s" in r:
            points[multichip_key(r)] = ("sim_images_per_s",
                                        r["sim_images_per_s"], None)
    return points


def fmt_key(key):
    if key[0] == "kernel":
        return f"{key[1]:<14} {key[2]:<6} n={key[3]}"
    if key[0] == "serve":
        s = f"serve {key[1]:<8} {key[2]:<6} jobs={key[3]} [{key[4]}]"
        if len(key) > 5 and (key[5] != 1 or key[6] != 1):
            s += f" b={key[5]} ij={key[6]}"
        if len(key) > 7 and key[7] != 1:
            s += f" chips={key[7]}/{key[8]}"
        return s
    if key[0] == "multichip":
        return f"mchip {key[1]:<9} chips={key[2]} {key[3]}"
    if key[0] in ("infer", "setup"):
        return f"{key[0]} {key[1]:<8} {key[2]:<6} [{key[3]}]"
    return f"sim {key[1]:<10} {key[2]:<6} [{key[3]}]"


def main(argv):
    threshold = 0.8
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--threshold="):
            threshold = float(arg.split("=", 1)[1])
        else:
            paths.append(arg)
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2

    base = index(load(paths[0]))
    cur = index(load(paths[1]))
    common = sorted(set(base) & set(cur), key=str)
    regressions = []

    print(f"{'point':<34} {'baseline':>12} {'current':>12} {'ratio':>7}"
          f"  current spread")
    for key in common:
        _, b, b_spread = base[key]
        _, c, c_spread = cur[key]
        ratio = c / b if b > 0 else float("inf")
        flag = ""
        if b_spread and c_spread:
            slower = c_spread[1] < b_spread[0]
        else:
            slower = ratio < threshold
        if slower:
            flag = "  REGRESSION"
            regressions.append(key)
        span = f"  [{c_spread[0]:.4g}, {c_spread[1]:.4g}]" if c_spread else ""
        print(f"{fmt_key(key):<34} {b:>12.4g} {c:>12.4g} {ratio:>6.2f}x"
              f"{span}{flag}")

    for key in sorted(set(base) - set(cur), key=str):
        print(f"{fmt_key(key):<34} (only in baseline)")
    # Points the baseline predates — e.g. the first run after a new tier
    # or kernel lands — are reported as new, never as regressions.
    for key in sorted(set(cur) - set(base), key=str):
        print(f"{fmt_key(key):<34} (new entry — no baseline yet)")

    if regressions:
        print(f"\nbench_compare: {len(regressions)} point(s) regressed: "
              "range wholly below the baseline's, or, without ranges, "
              f"below {threshold:.0%} of it (informational)")
    else:
        print("\nbench_compare: no regressions "
              f"({len(common)} points; ranges, else threshold "
              f"{threshold:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
