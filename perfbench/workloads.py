"""The three benchmark workloads: seeded inputs, one op, and its check.

A workload makes its inputs as text from the seed (``generate``), parses
them (``load``), builds the artefacts that are built once per OMQ
(``compile``), and then answers a pool of items, one op per item.  Every
answer is checked after the timed loop against a reference that does not
share the code path being measured (``check``).

Calls into ``omq`` go through module attributes (``chase.complete``), so
that the traced run sees them.  Input sizes, and the cliffs each workload
leaves out on purpose, are listed in ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace

from omq import analysis, chase, csp, datalog, syntax, types
from omq.chase import InconclusiveError
from omq.datalog import SizeGuardError
from omq.syntax import DisjunctBlowupError
from omq.tableau import BudgetExceededError


class CompletionBudgetExhausted(RuntimeError):
    """The chase returned a Completion with status "budget-exhausted"."""


# Budget outcomes: the op is counted as failed, never turned into an answer.
FAILURES = (BudgetExceededError, InconclusiveError, SizeGuardError,
            DisjunctBlowupError, CompletionBudgetExhausted)


def failure_kind(exc):
    if isinstance(exc, CompletionBudgetExhausted):
        return "budget-exhausted"
    return type(exc).__name__


@dataclass(frozen=True)
class Item:
    key: str     # names the input in the output
    data: object


def _abox_text(concepts, roles):
    lines = [f"{n}({a})" for n, a in sorted(concepts)]
    lines += [f"{n}({a},{b})" for n, a, b in sorted(roles)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Horn workloads
# ---------------------------------------------------------------------------

# Cyclic existentials make blocking fire; "some r.X sub X" propagates
# recursively.  func(inv(r)) holds on the generated data because every
# r-edge points from a parent to its child.
HORN_OMQS = (
    ("alci_r",
     "A sub some r.B\nB sub some r.A\nsome r.D sub D\nB and C sub D\n"
     "some inv(r).C sub C\n",
     "some r.D (x)"),
    ("alci_s",
     "A sub some inv(s).B\nB sub some inv(s).A\nsome s.E sub E\nC sub E\n",
     "some s.E (x)"),
    ("alcfi_r",
     "func(inv(r))\nA sub some r.B\nB sub some r.A\nsome r.C sub C\n",
     "some r.C (x)"),
)


def horn_abox_text(rng, n, shape, names):
    """A chain or a bushy tree over r (parent to child) and s (either
    direction), with 30% of the individuals labelled A, B or C, on the n
    individual ``names`` in chain or tree order.  ``rng`` places roles,
    directions and labels; their counts are fixed, because they set how
    much the chase and the rewritings derive."""
    kinds = ["r"] * ((n - 1) // 2) + ["s", "s_inv"] * (n // 4)
    kinds += ["s"] * (n - 1 - len(kinds))
    rng.shuffle(kinds)
    roles = set()
    for k in range(1, n):
        parent = k - 1 if shape == "chain" else rng.randrange(max(0, k - 3), k)
        a, b = names[parent], names[k]
        kind = kinds[k - 1]
        roles.add(("s", b, a) if kind == "s_inv" else (kind, a, b))
    labelled = rng.sample(names, 3 * n // 10)
    concepts = {("ABC"[j % 3], a) for j, a in enumerate(labelled)}
    return _abox_text(concepts, roles)


def _load_omqs():
    out = []
    for name, tbox_text, query_text in HORN_OMQS:
        q = syntax.parse_query(query_text)
        out.append(SimpleNamespace(name=name, tbox=syntax.parse_tbox(tbox_text),
                                   query=q, cq=syntax.eliq_to_cq(q)))
    return out


def _individuals(abox):
    return tuple(sorted(abox.individuals(), key=lambda a: int(a[1:])))


def _chase_answers(omq, abox, individuals):
    c = chase.complete(omq.tbox, abox)
    if c.status == "budget-exhausted":
        raise CompletionBudgetExhausted(omq.name)
    return c, tuple(a for a in individuals
                    if chase.horn_entails_eliq(omq.tbox, abox, omq.query, a,
                                               completion=c))


class Horn:
    """One op: one (OMQ, ABox) pair answered by two routes.  The chase
    route runs ``complete`` on the ABox, the OMQ's ELIQ at every
    individual, and its tree CQ at one seeded individual.  The rewriting
    route runs ``evaluate`` of the OMQ's monadic Datalog rewriting, built
    once per OMQ (compile), on the same ABox and reads off the same
    answers.  Reference: each route is the other's; they must agree."""
    name = "horn"
    SHAPES = tuple((shape, n) for n in (50, 60) for shape in ("chain", "tree"))

    def generate(self, seed):
        rng = random.Random(seed)
        pairs = []
        for omq_name, _, _ in HORN_OMQS:
            for k, (shape, n) in enumerate(self.SHAPES):
                # Each slot's structure comes from the slot, not the seed:
                # with seeded structures the median op moved by about a
                # tenth between seeds, on top of the host's own drift.
                # The seed names the individuals and picks the CQ's probe.
                key = f"{omq_name}/{shape}{n}#{k}"
                names = [f"i{j}" for j in rng.sample(range(n), n)]
                pairs.append({"omq": omq_name, "key": key,
                              "text": horn_abox_text(random.Random(key), n, shape, names),
                              "probe": rng.choice(names)})
        return {"pairs": pairs, "order": rng.sample(range(len(pairs)), len(pairs))}

    def load(self, spec):
        omqs = _load_omqs()
        by_name = {o.name: (k, o) for k, o in enumerate(omqs)}
        items = []
        for p in spec["pairs"]:
            o_index, omq = by_name[p["omq"]]
            abox = syntax.parse_abox(p["text"])
            items.append(Item(p["key"], SimpleNamespace(
                omq=omq, o_index=o_index, abox=abox, probe=p["probe"],
                individuals=_individuals(abox))))
        return SimpleNamespace(omqs=omqs, programs=None,
                               items=[items[i] for i in spec["order"]])

    def compile(self, inputs):
        inputs.programs = [datalog.build_rewriting(o.tbox, o.query) for o in inputs.omqs]

    def op(self, inputs, item):
        d = item.data
        c, yes = _chase_answers(d.omq, d.abox, d.individuals)
        cq = chase.horn_certain_answer_cq(d.omq.tbox, d.abox, d.omq.cq, (d.probe,),
                                          completion=c)
        got = {t[0] for t in datalog.evaluate(inputs.programs[d.o_index], d.abox)}
        return (yes, cq), (tuple(a for a in d.individuals if a in got), d.probe in got)

    def check(self, inputs, item, answer):
        chase_answer, rewriting_answer = answer
        return (None if chase_answer == rewriting_answer
                else f"the rewriting gives {rewriting_answer}")

    def notes(self, inputs, answers):
        return {"rewrite_rules": sum(len(p.rules) for p in inputs.programs)}


# ---------------------------------------------------------------------------
# ALC answering: k-colouring via tableau and CSP, and 2+2-SAT via tableau
# ---------------------------------------------------------------------------

def _graph_text(rng, kind, n, yes, asked):
    """A symmetric cycle or path of n nodes, asked at node ``asked``.  For
    a "yes" question the asked node and a random neighbour both carry
    colour A1; for a "no" question no node is coloured."""
    last = n if kind == "cycle" else n - 1
    edges = {(k, (k + 1) % n) for k in range(last)}
    roles = set()
    for a, b in edges:
        roles |= {("r", f"a{a}", f"a{b}"), ("r", f"a{b}", f"a{a}")}
    concepts = set()
    if yes:
        neighbour = rng.choice([k % n for k in (asked - 1, asked + 1)
                                if kind == "cycle" or 0 <= k < n])
        concepts = {("A1", f"a{asked}"), ("A1", f"a{neighbour}")}
    return _abox_text(concepts, roles), f"a{asked}"


def _formula(rng, nv, planted):
    """A random 2+2 formula over nv variables (clauses p1 or p2 or not n1
    or not n2; 10% of the literals are truth constants).  A planted one
    adds four clauses forcing x or y, not x or not y, and x = y, so it is
    unsatisfiable."""
    def lit():
        return rng.random() < 0.5 if rng.random() < 0.1 else rng.randrange(nv)

    clauses = [[lit() for _ in range(4)] for _ in range(nv if planted else 2 * nv)]
    if planted:
        x, y = rng.sample(range(nv), 2)
        clauses += [[x, y, True, True], [False, False, x, y],
                    [x, False, y, True], [y, False, x, True]]
        rng.shuffle(clauses)
    return clauses


SAT_TBOX = "A sub B or C\n"
SAT_WITNESS = "A(a)\n"


class AlcAnswer:
    """One op: one yes/no question.  k-colouring questions are answered by
    the tableau (``types.entails_eliq``) and by the CSP route with the
    compiled template, which must agree; 2+2-SAT questions by the tableau,
    checked against brute force."""
    name = "alc_answer"
    # Fixed question slots, so that every seed asks the same mix: (shape,
    # nodes, yes) for k-colouring, (variables, planted) for 2+2-SAT.
    KCOLOR = tuple((shape, n, yes) for shape, sizes in
                   (("cycle", (21, 33, 45, 57, 69, 81)), ("path", (20, 30, 40)))
                   for n in sizes for yes in (False, True))
    SAT = tuple((nv, False) for nv in (4, 6, 8, 10)) + ((4, True), (4, True))
    # Each slot is asked this many times, at the nodes 1/3 and 2/3 of the
    # way along: the tableau's time depends on where the question is
    # asked, so a random position would make the pool differ between seeds
    # far more than the formulas do.
    VARIANTS = 2

    def generate(self, seed):
        rng = random.Random(seed)
        questions = []
        for k, (shape, n, yes) in enumerate(self.KCOLOR * self.VARIANTS):
            asked = (k // len(self.KCOLOR) + 1) * n // (self.VARIANTS + 1)
            text, asked = _graph_text(rng, shape, n, yes, asked)
            questions.append({"kind": "kcolor", "key": f"kcolor/{shape}{n}#{k}",
                              "abox": text, "asked": asked})
        for k, (nv, planted) in enumerate(self.SAT * self.VARIANTS):
            questions.append({"kind": "2p2", "formula": _formula(rng, nv, planted),
                              "key": f"2p2/{'planted' if planted else 'random'}{nv}#{k}"})
        return {"kcolor_tbox": syntax.print_tbox(analysis.gen_kcolor_tbox(2)),
                "questions": questions,
                "order": rng.sample(range(len(questions)), len(questions))}

    def load(self, spec):
        kcolor = syntax.parse_tbox(spec["kcolor_tbox"])
        sat = syntax.parse_tbox(SAT_TBOX)
        b, c = syntax.Atom("B"), syntax.Atom("C")
        witness = analysis.DisjunctionViolation(syntax.parse_abox(SAT_WITNESS),
                                                ((b, "a"), (c, "a")))
        items = []
        for q in spec["questions"]:
            if q["kind"] == "kcolor":
                abox = syntax.parse_abox(q["abox"])
                data = SimpleNamespace(kind="kcolor", tbox=kcolor, abox=abox,
                                       asked=q["asked"])
            else:
                formula = [tuple(c) for c in q["formula"]]
                abox, query, f = analysis.gen_2p2sat_reduction(sat, witness, formula)
                data = SimpleNamespace(kind="2p2", tbox=sat, abox=abox,
                                       concept=query.concept, asked=f,
                                       formula=formula)
            items.append(Item(q["key"], data))
        return SimpleNamespace(kcolor=kcolor, template=None, query=None,
                               items=[items[i] for i in spec["order"]])

    def compile(self, inputs):
        m = syntax.Atom("M")
        first = next(i.data for i in inputs.items if i.data.kind == "kcolor")
        _, _, inputs.query = csp.booleanize_eliq(inputs.kcolor, first.abox, m, first.asked)
        inputs.template = csp.template_from_omq(inputs.kcolor, inputs.query)

    def op(self, inputs, item):
        d = item.data
        if d.kind == "2p2":
            return types.entails_eliq(d.tbox, d.abox, d.concept, d.asked)
        m = syntax.Atom("M")
        tableau_answer = types.entails_eliq(d.tbox, d.abox, m, d.asked)
        _, marked, q = csp.booleanize_eliq(d.tbox, d.abox, m, d.asked)
        if q != inputs.query:
            raise ValueError(f"{item.key}: booleanized query differs from the compiled one")
        return tableau_answer, csp.certain_boolean_eliq_csp(d.tbox, marked, q,
                                                             template=inputs.template)

    def check(self, inputs, item, answer):
        d = item.data
        if d.kind == "2p2":
            expected = not analysis.brute_2p2_satisfiable(d.formula)
            return None if answer == expected else f"brute force gives {expected}"
        tableau_answer, csp_answer = answer
        return None if tableau_answer == csp_answer else "tableau and CSP route disagree"

    def notes(self, inputs, answers):
        yes = sum(1 for a in answers.values() if (a[0] if isinstance(a, tuple) else a))
        return {"questions": len(answers), "yes": yes, "no": len(answers) - yes,
                "template_points": len(inputs.template.points)}


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

PTIME = analysis.PTIME_DEFINITIVE
CONP = analysis.CONP_HARD

# (name, TBox, expected definitive parts of the report).  Verdicts other
# than PTIME/CONP and statuses other than "refuted" are evidence only and
# are counted, not checked.
CLASSIFY_TBOXES = (
    ("horn_cycle", "A sub some r.B\nB sub some r.A\n", {"verdict": PTIME}),
    ("horn_alci_deep", "A sub some inv(r).(B and some r.C)\nsome r.C sub D\n",
     {"verdict": PTIME}),
    ("horn_deep", "A sub some r.some r.B\n", {"verdict": PTIME}),
    ("or", "A sub B or C\n", {"verdict": CONP, "materializable": "refuted"}),
    ("cover", "top sub A or B\n", {}),
    ("cover3", "top sub A or B or C\n", {}),
    ("and_or", "A and B sub C or D\n", {"verdict": CONP, "materializable": "refuted"}),
    ("or_chain", "A sub B or C\nB sub D\n",
     {"verdict": CONP, "materializable": "refuted"}),
    ("cover_irreflexive", "top sub A or B\nA and some r.A sub bot\n",
     {"verdict": CONP, "materializable": "refuted"}),
    ("kcolor2", None, {"verdict": CONP, "materializable": "refuted",
                       "unraveling_tolerant": "refuted"}),
    ("alci_cover_irreflexive", "top sub A or B\nA and some inv(r).B sub bot\n",
     {"verdict": CONP, "materializable": "refuted"}),
)
CLASSIFY_BUDGET = analysis.Budget(max_individuals=2)


class Classify:
    """One op: ``classify(tbox)`` at Budget(max_individuals=2).  Reference:
    the hand-written definitive verdicts above."""
    name = "classify"

    def generate(self, seed):
        rng = random.Random(seed)
        tboxes = [{"key": name, "text": text if text is not None
                   else syntax.print_tbox(analysis.gen_kcolor_tbox(2))}
                  for name, text, _ in CLASSIFY_TBOXES]
        return {"tboxes": tboxes, "order": rng.sample(range(len(tboxes)), len(tboxes))}

    def load(self, spec):
        items = [Item(t["key"], syntax.parse_tbox(t["text"])) for t in spec["tboxes"]]
        return SimpleNamespace(expected={n: e for n, _, e in CLASSIFY_TBOXES},
                               items=[items[i] for i in spec["order"]])

    def compile(self, inputs):
        pass

    def op(self, inputs, item):
        report = analysis.classify(item.data, CLASSIFY_BUDGET)
        return {"verdict": report.verdict,
                "materializable": report.materializable[0],
                "unraveling_tolerant": report.unraveling_tolerant[0]}

    def check(self, inputs, item, answer):
        expected = inputs.expected[item.key]
        wrong = {k: answer[k] for k, v in expected.items() if answer[k] != v}
        return f"expected {expected}, got {wrong}" if wrong else None

    def notes(self, inputs, answers):
        evidence = sum(1 for a in answers.values() if a["verdict"] not in (PTIME, CONP))
        return {"definitive_verdicts": len(answers) - evidence,
                "evidence_only_verdicts": evidence}


WORKLOADS = {w.name: w for w in (Horn(), AlcAnswer(), Classify())}
