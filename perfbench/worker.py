"""One benchmark process: set up a workload, run its ops, check the answers.

``run.py`` starts this file in a fresh interpreter for every measurement,
so module caches in ``omq`` start empty, as they do for a user.  The last
line of standard output is a JSON object with the measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --spawned-at MONOTONIC [--setup-only]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this interpreter; set-up time is measured from there to the moment
the first op could start.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

# The host's speed drifts by a third and more within minutes, so raw op
# times of runs made minutes apart scatter more than any bound a regression
# check could use.  The timed loop therefore also runs calibrate(), which
# shares no code with omq, about every CALIBRATE_EVERY_S, and the reported
# op times are scaled to a host on which calibrate() takes CALIBRATE_REF_MS
# (its typical time on one core of a 2-vCPU Intel Xeon virtual machine).
CALIBRATE_EVERY_S = 0.25
CALIBRATE_REF_MS = 15.0


def calibrate():
    """Milliseconds taken by a fixed piece of pure-Python work of the kind
    omq does (sets of small frozensets, dicts keyed by tuples, sorting),
    with the garbage collector off so that the program's heap does not
    enter the figure."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        rng = random.Random(0)
        nodes = 600
        edges = {i: {(rng.randrange(nodes), rng.choice("rs")) for _ in range(4)}
                 for i in range(nodes)}
        labels = {i: frozenset(rng.sample(range(40), 3)) for i in range(nodes)}
        for _ in range(3):
            for i in range(nodes):
                acc = set(labels[i])
                for j, role in edges[i]:
                    if role == "r":
                        acc |= labels[j]
                labels[i] = frozenset(acc)
        sorted(map(sorted, labels.values()))
        return 1000 * (time.perf_counter() - t0)
    finally:
        gc.enable()


def tail(latencies_ms):
    """The highest percentile with at least ten samples beyond it:
    (value, percentile).  Fewer than eleven samples give the maximum."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Record(NamedTuple):
    index: int          # into inputs.items
    ms: float           # latency
    answer: object
    kind: object        # failure kind, or None
    traced: bool
    op_id: int
    round: int          # -1 for the warm-up round


def run_loop(workload, inputs, seconds, tracer=None, calibrations=None):
    """Answer the item pool once untimed (warm-up: module caches fill and
    lazy set-up finishes), then in whole timed rounds until ``seconds``
    have passed.  If ``calibrations`` is a list, the times of calibrate()
    runs spread over the timed rounds are appended to it.

    With a tracer, timed ops alternate between untraced and traced, and
    each item swaps sides from one round to the next (an even number of
    rounds), so both sides see the same items at interleaved times.  The
    warm-up round is untraced.  Returns a list of Records."""
    from workloads import FAILURES, failure_kind

    items = inputs.items
    records = []
    op_id = 0
    rounds = -1
    calibrated_at = None
    if tracer is not None:
        tracer.uninstall()
    while True:
        for index, item in enumerate(items):
            if calibrations is not None and rounds >= 0 and (
                    calibrated_at is None
                    or time.perf_counter() - calibrated_at >= CALIBRATE_EVERY_S):
                calibrations.append(calibrate())
                calibrated_at = time.perf_counter()
            traced = tracer is not None and rounds >= 0 and (index + rounds) % 2 == 1
            if tracer is not None and rounds >= 0:
                tracer.install() if traced else tracer.uninstall()
            if traced:
                tracer.op_id = op_id
            scope = tracer.span(f"{workload.name}.op") if traced else nullcontext()
            answer, kind = None, None
            t0 = time.perf_counter()
            try:
                with scope:
                    answer = workload.op(inputs, item)
            except FAILURES as exc:
                kind = failure_kind(exc)
            latency = time.perf_counter() - t0
            records.append(Record(index, 1000 * latency, answer, kind, traced,
                                  op_id, rounds))
            op_id += 1
        rounds += 1
        if rounds == 0:
            start = time.perf_counter()
            continue
        done = time.perf_counter() - start >= seconds
        if done and (tracer is None or rounds % 2 == 0):
            break
    if tracer is not None:
        tracer.uninstall()
        tracer.op_id = None
    return records


def check_answers(workload, inputs, records):
    """Mismatch descriptions (empty when every answer passes), and the one
    answer per item.  An item answered differently in two rounds, the
    warm-up round included, is a mismatch."""
    answers = {}
    mismatches = []
    for r in records:
        if r.kind is not None:
            continue
        key = inputs.items[r.index].key
        if key in answers and answers[key] != r.answer:
            mismatches.append(f"{key}: answers differ between rounds")
        answers.setdefault(key, r.answer)
    for item in inputs.items:
        if item.key in answers:
            problem = workload.check(inputs, item, answers[item.key])
            if problem:
                mismatches.append(f"{item.key}: got {answers[item.key]!r}; {problem}")
    return mismatches, answers


def op_ms_p50(records):
    """The median over the pool of each item's median latency over the
    timed rounds.  With a pool of a few dozen items, a median over all ops
    would jump between neighbouring items from run to run."""
    by_item = {}
    for r in records:
        by_item.setdefault(r.index, []).append(r.ms)
    return statistics.median(statistics.median(v) for v in by_item.values())


def ops_per_s(records):
    """The median over timed rounds of completed ops per second of op time
    in that round: a round run while the machine was briefly faster or
    slower than usual does not move it."""
    by_round = {}
    for r in records:
        done, ms = by_round.get(r.round, (0, 0.0))
        by_round[r.round] = (done + (r.kind is None), ms + r.ms)
    return statistics.median(1000 * done / ms for done, ms in by_round.values())


def measure(name, seed, seconds, trace, spawned_at, setup_only=False):
    if not (SRC / "omq" / "__init__.py").is_file():
        raise SystemExit(f"no omq sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import omq
    if Path(omq.__file__).resolve().parent != SRC / "omq":
        raise SystemExit(f"imported omq from {omq.__file__}, not from {SRC}")
    from layers import TARGETS, per_layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = Tracer(TARGETS) if trace else None
    if tracer is not None:
        tracer.install()
    inputs = workload.load(workload.generate(seed))
    setup_s = time.monotonic() - spawned_at
    if setup_only:
        return {"setup_s": setup_s}

    t0 = time.perf_counter()
    workload.compile(inputs)
    compile_s = time.perf_counter() - t0

    calibrations = []
    records = run_loop(workload, inputs, seconds, tracer, calibrations)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    timed = [r for r in records if r.round >= 0]
    measured = [r for r in timed if not r.traced]
    latencies = [r.ms for r in measured]
    failures = {}
    for r in measured:
        if r.kind is not None:
            failures[r.kind] = failures.get(r.kind, 0) + 1
    tail_ms, tail_pct = tail(latencies)
    calibrate_ms = statistics.median(calibrations)
    scale = CALIBRATE_REF_MS / calibrate_ms     # op time at the reference speed
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "setup_s": setup_s, "compile_s": compile_s,
        "rounds": len(timed) // len(inputs.items),
        "attempted": len(measured), "failed": sum(failures.values()),
        "failure_kinds": failures,
        "op_ms_p50": op_ms_p50(measured),
        "op_ms_tail": tail_ms, "tail_pct": tail_pct,
        "ops_per_s": ops_per_s(measured),
        "calibrate_ms": calibrate_ms, "calibrations": len(calibrations),
        "peak_rss_mb": peak_rss_mb,
    }
    result["ref_op_ms_p50"] = result["op_ms_p50"] * scale
    result["ref_op_ms_tail"] = tail_ms * scale
    result["ref_ops_per_s"] = result["ops_per_s"] / scale
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(
            tracer, [r.ms for r in timed if r.traced], latencies)
        SPAN_DIR.mkdir(exist_ok=True)
        span_file = SPAN_DIR / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(span_file)
        result["span_file"] = str(span_file.relative_to(ROOT))

    mismatches, answers = check_answers(workload, inputs, records)
    result["correct"] = not mismatches
    result["mismatches"] = mismatches[:20]
    result["notes"] = workload.notes(inputs, answers)
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--setup-only", action="store_true")
    a = p.parse_args(argv)
    result = measure(a.workload, a.seed, a.seconds, bool(a.trace), a.spawned_at,
                     a.setup_only)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
