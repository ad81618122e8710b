#!/usr/bin/env python3
"""Quick check of the benchmark: every workload for a couple of ops.

usage: python3 perfbench/smoke_test.py   (from the repository root)

For each workload in BENCHMARK.json and each trace mode, runs one short
run and asserts that the result line is well formed, that outputs are
correct with no failed op, and that exactly the metrics BENCHMARK.json
names for that mode are printed, each with its declared unit.
"""
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit {proc.returncode}\n"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(spec, workload, trace, result):
    where = f"{workload} --trace {trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: outputs not correct"
    assert result["failed"] == 0, f"{where}: {result['failed']} ops failed"
    assert result["attempted"] >= 2, f"{where}: fewer than two ops"
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(want), (
        f"{where}: missing {sorted(set(want) - set(got))}, "
        f"unexpected {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name}"
        if not trace:
            assert got[name]["value"] > 0, f"{where}: {name} is not positive"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(spec, w["name"], trace, run(w["name"], trace))
            print(f"ok {w['name']} --trace {trace}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
