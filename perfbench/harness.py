"""Closed-loop runner, oracle bookkeeping and end-to-end metrics.

One client in one process sends the next operation only after the previous
one has returned.  Each operation carries its own oracle; an operation fails
if it raises, or if its oracle rejects the output.  Failures of a kind with a
registered known defect are still counted as failures, but do not make the
run incorrect.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional

import numpy as np

#: the tail percentile needs at least this many samples beyond it
TAIL_BEYOND = 10
#: probes around an op that give its speed scale
PROBE_WINDOW = 5


@dataclass
class Op:
    """One operation: a timed call and the oracle for its output.

    ``check`` returns None when the output is right, else the reason it is
    wrong.  ``known_defect`` names a registered defect of the program that
    makes ops of this kind fail today.
    """

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    points: int = 0  # kernel points the op evaluates, for points_per_s
    known_defect: Optional[str] = None


@dataclass
class Outcome:
    op: Op
    latency: float
    cpu: float  # process CPU time, plus that of waited-for children
    output: Any = None
    error: Optional[str] = None


@dataclass
class Failure:
    kind: str
    reason: str
    known_defect: Optional[str]


@dataclass
class Loop:
    outcomes: list
    elapsed: float  # summed op latencies: the timed phase without the probes
    children_maxrss_mb: float
    probes: list  # duration of the reference probe timed after each op


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def run_loop(ops: Iterator[Op], seconds: float, cycle: int = 1,
             before_op: Optional[Callable[[int], None]] = None,
             probe: Optional[Callable[[], Any]] = None) -> Loop:
    """Run whole cycles of ``cycle`` ops back to back and stop at the cycle
    end nearest to ``seconds`` (after one cycle at least); or when ``ops``
    runs out.

    Whole cycles give every run the same mix of op kinds, so the latency
    percentiles do not depend on which kinds a run happens to end with.
    After every op, ``probe`` (fixed reference work that does not call the
    program) is timed, so each op can be set against the speed the machine
    had while it ran.
    """
    outcomes, probes = [], []
    cycle_start = time.perf_counter()
    deadline = cycle_start + seconds
    for op in ops:
        if before_op is not None:
            before_op(len(outcomes))
        c = _cpu()
        t = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t
        outcomes.append(Outcome(op, latency, _cpu() - c, output=out, error=error))
        if probe is not None:
            t = time.perf_counter()
            probe()
            probes.append(time.perf_counter() - t)
        if len(outcomes) % cycle == 0:
            now = time.perf_counter()
            # the next cycle end, a cycle like this one away, would be farther
            if now + (now - cycle_start) / 2.0 >= deadline:
                break
            cycle_start = now
    elapsed = sum(o.latency for o in outcomes)
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return Loop(outcomes, elapsed, rss, probes)


def check_outcomes(outcomes) -> list:
    failures = []
    for o in outcomes:
        reason = o.error
        if reason is None:
            try:
                reason = o.op.check(o.output)
            except Exception as exc:  # an oracle that cannot read the output rejects it
                reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(Failure(o.op.kind, reason, o.op.known_defect))
    return failures


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond): the highest percentile with
    TAIL_BEYOND samples beyond it, never below the median."""
    xs = sorted(latencies)
    n = len(xs)
    idx = max(n - TAIL_BEYOND - 1, n // 2)
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


def probe_scale(probes) -> list:
    """For op i, the median of the probes timed after ops i-2 .. i+2: the
    machine's speed around that op, in the probe's own time."""
    half = PROBE_WINDOW // 2
    return [statistics.median(probes[max(0, i - half):i + half + 1])
            for i in range(len(probes))]


def end_to_end(loop: Loop, failures: list, setup_samples: list,
               peak_rss_mb: float) -> dict:
    """End-to-end metrics.  The ``ref`` ones divide each op's latency and
    CPU time by the reference-probe time around it: this machine's speed
    drifts by up to 1.9x within and between runs, and the probe, timed
    beside the ops, slows with them."""
    lat = [o.latency for o in loop.outcomes]
    cpu = [o.cpu for o in loop.outcomes]
    n = len(lat)
    scale = probe_scale(loop.probes)
    rel = [x / s for x, s in zip(lat, scale)]
    points = sum(o.op.points for o in loop.outcomes)
    tail_value, tail_pct, beyond = tail(lat)
    rel_tail = tail(rel)[0]
    tail_note = f"p{tail_pct:.1f}, {beyond} samples beyond it"
    metrics = {
        "setup_s": Metric(statistics.median(setup_samples), "s", len(setup_samples),
                          "median of set-ups: "
                          + ", ".join(f"{s:.3f}" for s in setup_samples)),
        "latency_ref.p50": Metric(statistics.median(rel), "ref", n),
        "latency_ref.tail": Metric(rel_tail, "ref", n, tail_note),
        "throughput_ops_per_ref": Metric(n / sum(rel), "1/ref", n),
        "cpu_ref_per_op": Metric(sum(c / s for c, s in zip(cpu, scale)) / n, "ref", n),
        "peak_rss_mb": Metric(peak_rss_mb, "MB", 1),
        "probe_s": Metric(statistics.median(loop.probes), "s", len(loop.probes),
                          "median reference-probe time, one ref"),
        "latency_s.p50": Metric(statistics.median(lat), "s", n),
        "latency_s.tail": Metric(tail_value, "s", n, tail_note),
        "throughput_ops_per_s": Metric(n / loop.elapsed, "1/s", n,
                                       f"{n} ops in {loop.elapsed:.3f} s"),
        "cpu_s_per_op": Metric(sum(cpu) / n, "s", n, f"{sum(cpu):.3f} CPU s over {n} ops"),
        "fail_ratio": Metric(len(failures) / n, "ratio", n,
                             f"{len(failures)} failed of {n} attempted"),
    }
    if points:  # only the grid workload names its kernel points
        metrics["points_per_s"] = Metric(points / loop.elapsed, "1/s", n,
                                         f"{points} kernel points in {loop.elapsed:.3f} s")
    return metrics


def by_kind(outcomes) -> dict:
    """Op count and median latency of each op kind."""
    lat = {}
    for o in outcomes:
        lat.setdefault(o.op.kind, []).append(o.latency)
    return {kind: (len(v), statistics.median(v)) for kind, v in sorted(lat.items())}


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(seed: int) -> dict:
    import scipy
    from importlib.metadata import version

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
