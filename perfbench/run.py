"""rkhs-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program under test is ``src/rkhs_lab`` of
the same checkout; the run stops with a non-zero exit code if it is missing.  The run
prints a report (each metric with its unit and sample count) and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones from spans recorded around the calls into each module.
A full record of the run, with its environment, is written to
``perfbench/out/``.
"""

import time

T_START = time.perf_counter()  # workload start: set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One BLAS thread (at most nproc), fixed before numpy loads here and
# inherited by every CLI subprocess: on 2 CPUs a second thread made the
# Gram eigensolves slower and doubled their CPU time.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import harness  # noqa: E402  (numpy loads here, after the thread settings)
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 3  # this process plus fresh ones, after the timed phase
# The end-to-end metrics of the result line.  The rest are printed only:
# the raw times drift with the machine, fail_ratio can be 0 (attempted and
# failed carry it), and only curvature-grids names kernel points.
GATED = ("setup_s", "latency_ref.p50", "latency_ref.tail", "throughput_ops_per_ref",
         "cpu_ref_per_op", "peak_rss_mb")


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def load_program():
    """Import rkhs_lab from this checkout's src/, never from elsewhere."""
    if not (SRC / "rkhs_lab" / "__init__.py").is_file():
        sys.exit(f"benchmark: no rkhs_lab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rkhs_lab

    if Path(rkhs_lab.__file__).resolve().parent != SRC / "rkhs_lab":
        sys.exit(f"benchmark: imported rkhs_lab from {rkhs_lab.__file__}, not {SRC}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("cli-batch", "curvature-grids", "shift-verdicts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time as JSON and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def set_up(args, in_process_cli=False):
    """Import, generate inputs and run one warm-up op of each kind."""
    load_program()
    import workloads  # imports rkhs_lab

    workload = workloads.make(args.workload, ROOT, program_env(), in_process_cli)
    harness.run_loop(iter(workload.warmup_ops(args.seed)), float("inf"))
    return workload


def fresh_setup_s(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.exit(f"benchmark: set-up in a fresh process failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def report(header, env, metrics, outcomes, failures) -> list:
    lines = [header, "environment: " + " ".join(f"{k}={v}" for k, v in env.items())]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m.value:>14.6g} {m.unit:<13} samples={m.samples}"
                     + (f"  {m.note}" if m.note else ""))
    for kind, (count, p50) in harness.by_kind(outcomes).items():
        lines.append(f"  op {kind:<24} {count:>5} ops  p50 {p50 * 1e3:10.3f} ms")
    counts = {}
    for f in failures:
        key = (f.kind, f.reason.split(" (")[0], f.known_defect)
        counts[key] = counts.get(key, 0) + 1
    for (kind, reason, defect), count in sorted(counts.items(), key=str):
        tag = f"known defect: {defect}" if defect else "UNEXPECTED"
        lines.append(f"  failed {count}x {kind}: {reason} [{tag}]")
    return lines


def run_untraced(args, workload):
    setup_main = time.perf_counter() - T_START
    loop = harness.run_loop(workload.ops(args.seed), args.seconds, len(workload.kinds),
                            probe=workload.probe)
    peak = (loop.children_maxrss_mb if args.workload == "cli-batch"
            else harness.self_peak_rss_mb())
    failures = harness.check_outcomes(loop.outcomes)
    setups = [setup_main] + [fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
    metrics = harness.end_to_end(loop, failures, setups, peak)
    return loop.outcomes, loop.probes, failures, metrics


def run_traced(args, workload):
    """Half the time untraced, then the same op sequence traced."""
    half = args.seconds / 2.0
    plain = harness.run_loop(workload.ops(args.seed), half, len(workload.kinds))
    tracer = tracing.Tracer()
    tracer.install()

    def mark(op_id):
        tracer.op_id = op_id

    try:
        traced = harness.run_loop(workload.ops(args.seed), half, len(workload.kinds),
                                  before_op=mark)
    finally:
        tracer.uninstall()
    outcomes = plain.outcomes + traced.outcomes
    failures = harness.check_outcomes(outcomes)
    env = program_env()
    values = {**tracing.import_split(ROOT, env),
              "cli.interpreter_ms": tracing.interpreter_ms(env),
              **tracer.rollup(),
              "trace.overhead_ratio": (len(traced.outcomes) / traced.elapsed)
              / (len(plain.outcomes) / plain.elapsed)}
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    metrics = {name: harness.Metric(values[name], unit, len(traced.outcomes))
               for name, unit, _ in tracing.PER_LAYER}
    return outcomes, [], failures, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # the traced cli-batch run calls the CLI in process, where spans can see it
    workload = set_up(args, in_process_cli=bool(args.trace))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": time.perf_counter() - T_START}))
            return 0
        run = run_traced if args.trace else run_untraced
        outcomes, probes, failures, metrics = run(args, workload)
    finally:
        workload.close()

    env = harness.environment(args.seed)
    unexpected = [f for f in failures if f.known_defect is None]
    lines = report(f"rkhs-lab benchmark: workload={args.workload} seed={args.seed} "
                   f"seconds={args.seconds:g} trace={args.trace} ops={len(outcomes)}",
                   env, metrics, outcomes, failures)
    result = {
        "correct": not unexpected,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()
                    if args.trace or name in GATED},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({
        "environment": env, "args": vars(args), **result,
        "report": lines,
        "failures": [vars(f) for f in failures],
        "ops": [[o.op.kind, o.latency, o.cpu] for o in outcomes],
        "probes": probes,
    }, indent=1, default=str))
    print("\n".join(lines))
    print(f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
