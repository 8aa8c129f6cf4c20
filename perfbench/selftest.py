"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that the same seed makes the same inputs, that the traced run puts
every wrapped ``omq`` attribute back, that a planted wrong reference trips
the answer gate, that per op the spans' self times sum to the op's wall
time, that the calibration behind the reference speed runs no ``omq``
code, and that ``BENCHMARK.json`` names exactly the metrics the benchmark
reports.  Exits with status 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import omq  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# per op: |sum of self times - wall time| may be this share of the wall
# time plus a fixed allowance for the loop's own bookkeeping
SELF_TIME_REL_TOL = 0.01
SELF_TIME_ABS_TOL_MS = 0.5


def small_inputs(name, seed=7):
    """A workload's inputs cut down to a few quick items."""
    w = workloads.WORKLOADS[name]
    inputs = w.load(w.generate(seed))
    keep = {
        "horn": lambda i: i.key.endswith("chain50#0"),
        "alc_answer": lambda i: i.key.startswith(("2p2/random4", "kcolor/path20")),
        "classify": lambda i: i.key in ("or", "cover", "kcolor2", "horn_cycle"),
    }[name]
    inputs.items = [i for i in inputs.items if keep(i)]
    w.compile(inputs)
    return w, inputs


def test_same_seed_same_inputs():
    for name, w in workloads.WORKLOADS.items():
        a, b = w.generate(3), w.generate(3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True), name
        assert a != w.generate(4), f"{name}: seed 4 gives the inputs of seed 3"


def test_tracer_restores_every_binding():
    t = Tracer(layers.TARGETS)
    t.install()
    patched = list(t._patches)
    bindings = {(getattr(o, "__name__", o), a) for o, a, _ in patched}
    for expected in (("omq.datalog", "compute_types"), ("omq.analysis", "entails_eliq"),
                     ("omq.types", "abox_consistent"), ("omq.csp", "find_homomorphism"),
                     ("omq.chase", "match_query"), ("Interpretation", "from_abox")):
        assert expected in bindings, f"{expected} was not wrapped"
    t.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "omq" or mod_name.startswith("omq."):
            for owner in [mod] + [v for v in vars(mod).values() if isinstance(v, type)]:
                for attr, value in vars(owner).items():
                    fn = getattr(value, "__func__", value)
                    assert not hasattr(fn, "__perfbench_original__"), f"{owner}.{attr}"


def test_wrong_reference_trips_gate():
    plants = {
        # the rewritings belong to the next OMQ's query
        "horn": lambda w, inputs: setattr(inputs, "programs", [
            omq.datalog.build_rewriting(*_other_omq(o)) for o in inputs.omqs]),
        # brute force says no formula is satisfiable
        "alc_answer": lambda w, inputs: setattr(
            workloads.analysis, "brute_2p2_satisfiable", lambda formula: False),
        # the hand-written table expects "coNP-hard" for the Horn TBox
        "classify": lambda w, inputs: inputs.expected.update(
            {"horn_cycle": {"verdict": workloads.CONP}}),
    }
    saved = workloads.analysis.brute_2p2_satisfiable
    for name, plant in plants.items():
        w, inputs = small_inputs(name)
        records = worker.run_loop(w, inputs, 0)
        good, _ = worker.check_answers(w, inputs, records)
        assert not good, f"{name}: {good}"
        try:
            plant(w, inputs)
            if name == "horn":    # the planted rewritings must answer the ops
                records = worker.run_loop(w, inputs, 0)
            bad, _ = worker.check_answers(w, inputs, records)
        finally:
            workloads.analysis.brute_2p2_satisfiable = saved
        assert bad, f"{name}: the planted reference passed the gate"
    # the gate: a wrong answer means exit status 1 and no metrics line
    wrong = {"correct": False, "mismatches": ["x: planted"], "workload": "classify"}
    out = io.StringIO()
    real = run.measure
    run.measure = lambda *a, **k: wrong
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = run.main(["--workload", "classify", "--seed", "1", "--seconds", "1"])
    finally:
        run.measure = real
    assert status == 1 and "metrics" not in out.getvalue(), (status, out.getvalue())


def _other_omq(o):
    names = [x.name for x in workloads._load_omqs()]
    other = workloads._load_omqs()[(names.index(o.name) + 1) % len(names)]
    return o.tbox, other.query


def test_self_times_sum_to_op_wall_time():
    for name in workloads.WORKLOADS:
        w, inputs = small_inputs(name)
        tracer = Tracer(layers.TARGETS)
        records = worker.run_loop(w, inputs, 0, tracer)
        self_by_op = tracer.self_time_by_op()
        traced = [r for r in records if r.traced]
        assert traced, name
        for r in traced:
            total = 1000 * self_by_op[r.op_id]
            assert abs(total - r.ms) <= SELF_TIME_REL_TOL * r.ms + SELF_TIME_ABS_TOL_MS, \
                f"{name} op {r.op_id}: self times {total:.3f} ms, wall {r.ms:.3f} ms"


def test_calibrate_runs_no_omq_code():
    """The reference speed must not move when omq changes."""
    omq_dir = str(Path(omq.__file__).resolve().parent)
    seen = set()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code.co_filename))
    try:
        worker.calibrate()
    finally:
        sys.setprofile(None)
    assert not [f for f in seen if f.startswith(omq_dir)], sorted(seen)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.PER_LAYER


def main():
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
