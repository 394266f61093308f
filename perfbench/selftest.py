"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for one second, untraced and traced; a run always
holds at least one whole cycle of op kinds.  Checks that the report prints every metric
with a unit and a sample count, and that the final JSON line has the keys
and metrics BENCHMARK.json declares.  Then feeds the harness ops whose
oracle is deliberately wrong, or that raise, and checks that they count
toward fail_ratio.  Exits non-zero on the first broken expectation.
"""

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import harness

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "latency_ref.p50", "latency_ref.tail", "throughput_ops_per_ref",
              "cpu_ref_per_op", "peak_rss_mb", "probe_s", "latency_s.p50", "latency_s.tail",
              "throughput_ops_per_s", "cpu_s_per_op", "fail_ratio")
GRID_ONLY = ("points_per_s",)  # only curvature-grids names kernel points
WORKLOADS = ("cli-batch", "curvature-grids", "shift-verdicts")


def expect(condition, message):
    if not condition:
        sys.exit(f"selftest: {message}")


def run(workload, trace, declared):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n"
                                 f"{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines:
        m = re.match(r"^\s+(\S+)\s+\S+\s+(\S+)\s+samples=(\d+)", line)
        if m:
            printed[m.group(1)] = (m.group(2), int(m.group(3)))
    if trace:
        names = tuple(declared)
    else:
        names = END_TO_END + (GRID_ONLY if workload == "curvature-grids" else ())
    for name in names:
        expect(name in printed, f"{workload} trace={trace}: report lacks {name}")
        unit, samples = printed[name]
        expect(unit and samples >= 1, f"{workload}: {name} has no unit or samples")
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True, f"{workload} trace={trace}: unexpected failures")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{workload}: attempted {result['attempted']}")
    expect(isinstance(result["failed"], int), f"{workload}: failed {result['failed']}")
    expect(set(result["metrics"]) == set(declared),
           f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
           f"{sorted(set(result['metrics']) ^ set(declared))}")
    for name, m in result["metrics"].items():
        expect(m["unit"] == declared[name], f"{workload}: {name} unit {m['unit']}")
        expect(isinstance(m["value"], (int, float)), f"{workload}: {name} is not a number")
    print(f"ok  {workload} trace={trace}: {result['attempted']} ops, "
          f"{result['failed']} failed")


def wrong_oracle():
    right = harness.Op("right", lambda: 2.0, lambda out: None)
    wrong = harness.Op("wrong-oracle", lambda: 2.0,
                       lambda out: None if out == 3.0 else f"got {out}, oracle wants 3.0")

    def boom():
        raise ValueError("deliberate")

    raising = harness.Op("raising", boom, lambda out: None)
    loop = harness.run_loop(itertools.cycle([wrong, raising, right]), 0.05,
                            probe=lambda: sum(range(1000)))
    failures = harness.check_outcomes(loop.outcomes)
    n = len(loop.outcomes)
    bad = sum(o.op.kind != "right" for o in loop.outcomes)
    expect(n >= 1 and len(failures) == bad,
           f"{len(failures)} failures for {bad} bad ops of {n}")
    expect({f.kind for f in failures} <= {"wrong-oracle", "raising"}, "a right op failed")
    metrics = harness.end_to_end(loop, failures, [1.0], 1.0)
    expect(metrics["fail_ratio"].value == bad / n > 0, "fail_ratio ignores the wrong oracle")
    print(f"ok  wrong oracle: fail_ratio {metrics['fail_ratio'].value:.3f} over {n} ops")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(tuple(w["name"] for w in bench["workloads"]) == WORKLOADS, "workload list")
    wrong_oracle()
    for workload in WORKLOADS:
        run(workload, 0, end_to_end)
        run(workload, 1, per_layer)
    print("selftest passed")


if __name__ == "__main__":
    main()
