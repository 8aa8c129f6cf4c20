"""The omq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of horn, alc_answer, classify, or ``all``,
which runs every workload untraced and then traced.  Run it from the root
of a checkout; it builds nothing and imports ``omq`` from ``src``.

Each measurement runs in a fresh interpreter (``worker.py``) with a fixed
hash seed, so module caches start empty and set iteration orders repeat.
Set-up time is the median over several fresh interpreters.  With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  An answer that fails its check makes the benchmark exit with
status 1 and print no metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import CALIBRATE_REF_MS as REFERENCE_MS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("horn", "alc_answer", "classify")
SETUP_PROBES = 6       # plus the measuring worker: seven set-up samples
DEADLINE_S = 170       # a run must end within 180 s

END_TO_END = {         # name -> unit; ref_* are scaled to the reference speed
    "setup_s": "s",
    "ref_op_ms_p50": "ms",
    "ref_op_ms_tail": "ms",
    "ref_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    pass


def spawn_worker(workload, seed, seconds, trace, deadline, setup_only=False):
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: worker did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, deadline):
    """One workload: set-up probes (untraced only), then the measuring
    worker.  Returns the worker's result with ``setup_s`` set to the
    median over all set-up samples."""
    samples = []
    if not trace:
        for _ in range(SETUP_PROBES):
            samples.append(spawn_worker(workload, seed, seconds, 0, deadline,
                                        setup_only=True)["setup_s"])
    result = spawn_worker(workload, seed, seconds, trace, deadline)
    samples.append(result["setup_s"])
    result["setup_samples"] = samples
    result["setup_s"] = statistics.median(samples)
    result["failed_frac"] = result["failed"] / result["attempted"]
    return result


def report(result):
    """Human-readable lines: every end-to-end metric by name with its unit."""
    w = result["workload"]
    out = [f"# {w} seed={result['seed']} trace={result['trace']} "
           f"rounds={result['rounds']} ops={result['attempted']}"]

    def line(name, value, unit, note=""):
        out.append(f"{w:13s} {name:14s} {value:12.4f} {unit:6s} {note}".rstrip())

    line("setup_s", result["setup_s"], "s",
         f"median of {len(result['setup_samples'])} fresh interpreters")
    line("compile_s", result["compile_s"], "s")
    line("op_ms_p50", result["op_ms_p50"], "ms")
    line("op_ms_tail", result["op_ms_tail"], "ms",
         f"p{result['tail_pct']:.1f} of {result['attempted']} ops")
    line("ops_per_s", result["ops_per_s"], "1/s")
    line("calibrate_ms", result["calibrate_ms"], "ms",
         f"median of {result['calibrations']}; reference {REFERENCE_MS} ms")
    line("ref_op_ms_p50", result["ref_op_ms_p50"], "ms", "at the reference speed")
    line("ref_op_ms_tail", result["ref_op_ms_tail"], "ms", "at the reference speed")
    line("ref_ops_per_s", result["ref_ops_per_s"], "1/s", "at the reference speed")
    line("failed_frac", result["failed_frac"], "ratio",
         f"{result['failed']} of {result['attempted']} {result['failure_kinds'] or ''}")
    if "rewrite_rules" in result["notes"]:
        line("rewrite_rules", result["notes"]["rewrite_rules"], "count")
    line("peak_rss_mb", result["peak_rss_mb"], "MB")
    out.append(f"{w:13s} notes {json.dumps(result['notes'])}")
    if "per_layer" in result:
        for name, m in result["per_layer"].items():
            out.append(f"{w:13s} {name:48s} {m['value']:14.6g} {m['unit']}")
        out.append(f"{w:13s} spans written to {result['span_file']}")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description="The omq benchmark.")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (ROOT / "src" / "omq" / "__init__.py").is_file():
        print(f"error: no omq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = ([(a.workload, a.trace)] if a.workload != "all"
            else [(w, t) for w in WORKLOADS for t in (0, 1)])
    results = []
    for workload, trace in runs:
        try:
            result = measure(workload, a.seed, a.seconds, trace,
                             time.monotonic() + DEADLINE_S)
        except BenchmarkError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        if not result["correct"]:
            print(f"error: {workload}: wrong answers", file=sys.stderr)
            for m in result["mismatches"]:
                print(f"  {m}", file=sys.stderr)
            return 1
        print("\n".join(report(result)), flush=True)
        results.append(result)

    if a.workload != "all":
        result = results[0]
        metrics = result["per_layer"] if a.trace else {
            k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": r[k], "unit": u}
                   for r in results if not r["trace"] for k, u in END_TO_END.items()}
    print(json.dumps({"correct": True,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
