"""What the traced run wraps, and the per-layer metrics it reports.

Each layer is one ``omq`` module.  Every traced function yields
``<span>.calls`` and ``<span>.self_s``; the observers below add the counts
an optimisation of that layer should move.  Which end-to-end metric each
one should move, and on which workload, is listed in ``README.md``.
"""

from __future__ import annotations

import statistics

from tracer import Target

REFUTERS = ("analysis.refute_disjunction_property",
            "analysis.refute_unraveling_tolerance")


def _count(key, measure):
    def observe(tracer, result):
        tracer.counters[key] += measure(result)
    return observe


def _oracle_call(tracer, result):
    if any(tracer.open[name] for name in REFUTERS):
        tracer.counters["analysis.oracle_calls"] += 1


def _entails(tracer, result):
    tracer.counters["types.entails_eliq.yes"] += bool(result)
    _oracle_call(tracer, result)


def _completion(tracer, result):
    tracer.counters["chase.complete.assertions"] += (
        sum(len(label) for label in result.labels.values()) + len(result.edges))
    tracer.counters["chase.complete.truncated"] += result.status == "budget-exhausted"


def _rewriting(tracer, result):
    tracer.counters["datalog.rules"] += len(result.rules)
    tracer.counters["datalog.idb_relations"] += len(result.idb())


_type_count = _count("types.type_count", len)

TARGETS = (
    Target("omq.syntax", "parse_tbox", "syntax.parse"),
    Target("omq.syntax", "parse_abox", "syntax.parse"),
    Target("omq.syntax", "parse_query", "syntax.parse"),
    Target("omq.types", "compute_types", "types.compute_types", _type_count),
    Target("omq.types", "succ_relation", "types.succ_relation"),
    Target("omq.types", "types_omitting", "types.types_omitting", _type_count),
    Target("omq.types", "entails_eliq", "types.entails_eliq", _entails),
    Target("omq.types", "entails_eliq_disjunction",
           "types.entails_eliq_disjunction", _oracle_call),
    Target("omq.tableau", "abox_consistent", "tableau.abox_consistent"),
    Target("omq.tableau", "satisfiable", "tableau.satisfiable"),
    Target("omq.chase", "complete", "chase.complete", _completion),
    Target("omq.chase", "horn_entails_eliq", "chase.horn_entails_eliq"),
    Target("omq.chase", "horn_certain_answer_cq", "chase.horn_certain_answer_cq"),
    Target("omq.semantics", "match_query", "semantics.match_query"),
    Target("omq.semantics", "find_homomorphism", "semantics.find_homomorphism",
           _count("semantics.find_homomorphism.found", lambda h: h is not None)),
    Target("omq.semantics", "Interpretation.from_abox",
           "semantics.Interpretation.from_abox"),
    Target("omq.datalog", "build_rewriting", "datalog.build_rewriting", _rewriting),
    Target("omq.datalog", "evaluate", "datalog.evaluate",
           _count("datalog.evaluate.answers", len)),
    Target("omq.csp", "template_from_omq", "csp.template_from_omq",
           _count("csp.template.points", lambda t: len(t.points))),
    Target("omq.csp", "Template.interpretation", "csp.Template.interpretation"),
    Target("omq.csp", "unraveling_entails", "csp.unraveling_entails"),
    Target("omq.csp", "certain_boolean_eliq_csp", "csp.certain_boolean_eliq_csp"),
    Target("omq.analysis", "refute_disjunction_property", REFUTERS[0],
           _count("analysis.checked_aboxes", lambda r: r.checked_aboxes)),
    Target("omq.analysis", "refute_unraveling_tolerance", REFUTERS[1],
           _count("analysis.checked_aboxes", lambda r: r.checked_aboxes)),
)

# Spans reported as <span>.calls and <span>.self_s.
TIMED = (
    "syntax.parse", "types.compute_types", "types.succ_relation",
    "types.types_omitting", "types.entails_eliq", "tableau.abox_consistent",
    "tableau.satisfiable", "chase.complete", "chase.horn_entails_eliq",
    "chase.horn_certain_answer_cq", "semantics.match_query",
    "semantics.find_homomorphism", "semantics.Interpretation.from_abox",
    "datalog.build_rewriting", "datalog.evaluate", "csp.template_from_omq",
    "csp.Template.interpretation", "csp.unraveling_entails",
    "csp.certain_boolean_eliq_csp",
) + REFUTERS

# name -> (unit, better) of every per-layer metric, in report order.
PER_LAYER = {}
for _span in TIMED:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "types.type_count": ("count", "lower"),
    "types.entails_eliq.yes_frac": ("ratio", "higher"),
    "tableau.abox_consistent.ms_p50": ("ms", "lower"),
    "tableau.budget_exceeded": ("count", "lower"),
    "chase.complete.assertions": ("count", "lower"),
    "chase.complete.truncated": ("count", "lower"),
    "semantics.find_homomorphism.found_frac": ("ratio", "higher"),
    "datalog.rules": ("count", "lower"),
    "datalog.idb_relations": ("count", "lower"),
    "datalog.evaluate.answers": ("count", "higher"),
    "csp.template.points": ("count", "lower"),
    "analysis.checked_aboxes": ("count", "lower"),
    "analysis.oracle_calls_per_abox": ("count", "lower"),
    "trace.ops": ("count", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ms_per_op": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
})


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_ms, untraced_ms):
    """Every PER_LAYER metric from the tracer's totals.  ``traced_ms`` and
    ``untraced_ms`` are the op latencies of the traced and untraced rounds
    over the same items; their mean difference is the tracing overhead."""
    calls, counters = tracer.calls, tracer.counters
    values = {}
    for span in TIMED:
        values[f"{span}.calls"] = calls[span]
        values[f"{span}.self_s"] = tracer.self_s[span]
    consistent = [end - start for _, name, start, end, _, _ in tracer.spans
                  if name == "tableau.abox_consistent"]
    traced = statistics.fmean(traced_ms) if traced_ms else 0.0
    untraced = statistics.fmean(untraced_ms) if untraced_ms else 0.0
    values.update({
        "types.type_count": counters["types.type_count"],
        "types.entails_eliq.yes_frac": _ratio(counters["types.entails_eliq.yes"],
                                              calls["types.entails_eliq"]),
        "tableau.abox_consistent.ms_p50":
            1000 * statistics.median(consistent) if consistent else 0.0,
        "tableau.budget_exceeded": sum(
            n for (name, kind), n in tracer.errors.items()
            if name.startswith("tableau.") and kind == "BudgetExceededError"),
        "chase.complete.assertions": counters["chase.complete.assertions"],
        "chase.complete.truncated": counters["chase.complete.truncated"],
        "semantics.find_homomorphism.found_frac": _ratio(
            counters["semantics.find_homomorphism.found"],
            calls["semantics.find_homomorphism"]),
        "datalog.rules": counters["datalog.rules"],
        "datalog.idb_relations": counters["datalog.idb_relations"],
        "datalog.evaluate.answers": counters["datalog.evaluate.answers"],
        "csp.template.points": counters["csp.template.points"],
        "analysis.checked_aboxes": counters["analysis.checked_aboxes"],
        "analysis.oracle_calls_per_abox": _ratio(counters["analysis.oracle_calls"],
                                                 counters["analysis.checked_aboxes"]),
        "trace.ops": len(traced_ms),
        "trace.spans": len(tracer.spans),
        "trace.overhead_ms_per_op": traced - untraced,
        "trace.overhead_frac": _ratio(traced - untraced, untraced),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}
