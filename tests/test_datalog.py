import random
import re

import pytest

from omq.syntax import ABox, Atom, ELIQ, Exists, Role, TBox, parse_abox, parse_tbox
from omq.analysis import _is_forest
from omq.chase import horn_entails_eliq
from omq.csp import booleanize_eliq, certain_boolean_eliq_csp, template_from_omq
from omq.datalog import (
    DAtom, DOM, DRule, Program, SizeGuardError,
    _edb_facts, _join, _plan, build_rewriting, evaluate, print_program,
)

from genutil import rand_abox, rand_eli_concept, rand_horn_tbox, rand_tbox
from oracles import bruteforce_certain_answer

A = Atom("A")
r = Role("r")

T_EXISTS_L = parse_tbox("some r.A sub A")

REACHABILITY = Program((
    DRule(DAtom("goal", ("x",)), (DAtom("P", ("x",)),)),
    DRule(DAtom("P", ("x",)), (DAtom("A", ("x",)),)),
    DRule(DAtom("P", ("x",)), (DAtom("r", ("x", "y")), DAtom("P", ("y",)))),
), "goal", 1)

FUNC_VIOLATION = Program((
    DRule(DAtom("goal", ()), (DAtom("r", ("x", "y1")), DAtom("r", ("x", "y2"))),
          (("y1", "y2"),)),
    DRule(DAtom("goal", ()), (DAtom("M", ("x",)),)),
), "goal", 0)


def rule(text):
    """One rule written as a ``.dl`` line, e.g. ``P(x) :- r(x,y), A(y), x != y.``"""
    head, _, body = text.rstrip(".").partition(" :- ")
    atoms = [DAtom(p, tuple(filter(None, args.split(","))))
             for p, args in re.findall(r"(\w+)\(([^)]*)\)", f"{head} {body}")]
    neq = tuple(tuple(m.split(" != ")) for m in re.findall(r"\w+ != \w+", body))
    return DRule(atoms[0], tuple(atoms[1:]), neq)


def test_print_program_writes_dl_text():
    # a goal/arity header, then the rules sorted by their text
    assert print_program(REACHABILITY) == (
        "goal/1.\n"
        "P(x) :- A(x).\n"
        "P(x) :- r(x,y), P(y).\n"
        "goal(x) :- P(x).\n")
    assert print_program(FUNC_VIOLATION) == (
        "goal/0.\n"
        "goal() :- M(x).\n"
        "goal() :- r(x,y1), r(x,y2), y1 != y2.\n")
    assert str(REACHABILITY) == print_program(REACHABILITY)


def test_reachability_program():
    got = evaluate(REACHABILITY, parse_abox("r(a,b)\nA(b)"))
    assert got == {("a",), ("b",)}
    got = evaluate(REACHABILITY, parse_abox("r(a,b)\nr(b,c)\nA(c)\nr(z,z)"))
    assert got == {("a",), ("b",), ("c",)}


def test_no_goal_rule_is_empty():
    p = Program((DRule(DAtom("P", ("x",)), (DAtom("A", ("x",)),)),), "goal", 1)
    assert evaluate(p, parse_abox("A(a)")) == frozenset()


def test_functionality_violation_program():
    assert evaluate(FUNC_VIOLATION, parse_abox("r(a,b1)\nr(a,b2)")) == {()}
    assert evaluate(FUNC_VIOLATION, parse_abox("r(a,b)")) == frozenset()
    assert evaluate(FUNC_VIOLATION, parse_abox("M(a)")) == {()}


def test_program_validation():
    with pytest.raises(ValueError, match="unsafe"):
        Program((DRule(DAtom("goal", ("x",)), (DAtom("A", ("y",)),)),))
    with pytest.raises(ValueError, match="goal"):
        Program((DRule(DAtom("P", ("x",)), (DAtom("goal", ("x",)),)),
                 DRule(DAtom("goal", ("x",)), (DAtom("A", ("x",)),))))


# -- the naive reference evaluator ----------------------------------------------

def _join_naive(rule, facts):
    """All head tuples derivable from the rule: every body atom ranges
    over its whole relation, scanned in sorted order."""
    body = rule.body
    out = set()

    def extend(i, binding):
        if i == len(body):
            for x, y in rule.neq:
                if binding[x] == binding[y]:
                    return
            out.add(tuple(binding[v] for v in rule.head.args))
            return
        atom = body[i]
        for tup in sorted(facts.get(atom.pred, ())):
            if len(tup) != len(atom.args):
                continue
            new = dict(binding)
            ok = True
            for var, val in zip(atom.args, tup):
                if new.get(var, val) != val:
                    ok = False
                    break
                new[var] = val
            if ok:
                extend(i + 1, new)

    extend(0, {})
    return out


def evaluate_naive(program, abox):
    """The naive fixpoint: apply every rule in full until nothing changes."""
    facts = _edb_facts(abox, program)
    for p in program.idb():
        facts.setdefault(p, set())
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            derived = _join_naive(rule, facts)
            if not derived <= facts[rule.head.pred]:
                facts[rule.head.pred].update(derived)
                changed = True
    return frozenset(facts.get(program.goal, ()))


def _rand_atom(rng, variables):
    """A random body atom over the given variables: unary EDB or IDB,
    binary EDB or IDB, a repeated variable ``r(x,x)``, or a binary atom
    over two variables already in use."""
    kind = rng.random()
    if kind < 0.35:
        return DAtom(rng.choice(["A", "B", "P", "Q"]), (rng.choice(variables),))
    pred = rng.choice(["r", "s", "R"])
    if kind < 0.45:
        v = rng.choice(variables)
        return DAtom(pred, (v, v))
    if kind < 0.6 and len(variables) >= 2:
        return DAtom(pred, tuple(rng.sample(variables, 2)))
    v = f"y{len(variables)}"
    old = rng.choice(variables)
    variables.append(v)
    return DAtom(pred, (old, v) if rng.random() < 0.5 else (v, old))


def _features(rule):
    atoms = rule.body
    found = {"neq": bool(rule.neq),
             "repeat": any(len(set(a.args)) < len(a.args) for a in atoms),
             "binary idb": rule.head.pred == "R",
             "shared pair": any(len(set(a.args)) == 2 and set(a.args) <= set(b.args)
                                for k, a in enumerate(atoms) for b in atoms[:k])}
    return {name for name, present in found.items() if present}


def test_seminaive_equals_naive_random():
    """Random programs with unary and binary IDB relations (``P``, ``Q``
    and ``R``), repeated variables in one atom, atoms that share both
    variables with earlier ones, and inequalities between bound
    variables, with a unary or a 0-ary goal."""
    rng = random.Random(61)
    kinds = set()
    for _ in range(400):
        goal_arity = rng.choice([0, 1, 1])
        rules = [DRule(DAtom("P", ("x",)), (DAtom("A", ("x",)),)),
                 DRule(DAtom("R", ("x", "y")), (DAtom("s", ("x", "y")),))]
        for _k in range(rng.randint(1, 5)):
            head_pred = rng.choice(["goal", "P", "Q", "R"])
            variables = ["x"]
            body = [_rand_atom(rng, variables) for _j in range(rng.randint(1, 3))]
            if not any("x" in a.args for a in body):
                body.append(DAtom(DOM, ("x",)))
            head_vars = {"goal": ("x",) * goal_arity, "R": ("x", variables[-1])}
            neq = ()
            if len(variables) >= 2 and rng.random() < 0.3:
                neq = (tuple(rng.sample(variables, 2)),)
            rules.append(DRule(DAtom(head_pred, head_vars.get(head_pred, ("x",))),
                               tuple(body), neq))
        if not any(ru.head.pred == "goal" for ru in rules):
            continue
        try:
            p = Program(tuple(rules), "goal", goal_arity)
        except ValueError:
            continue
        kinds.add(f"{goal_arity}-ary goal")
        for ru in rules:
            kinds |= _features(ru)
        abox = rand_abox(rng, n_individuals=4, n_assertions=10,
                         concepts=("A", "B"), roles=("r", "s"))
        assert evaluate(p, abox) == evaluate_naive(p, abox), p
    assert kinds >= {"0-ary goal", "1-ary goal", "neq", "repeat", "binary idb",
                     "shared pair"}


# Rules that share their shape (body argument tuples, head arguments,
# inequalities, first atom), or all of it but one part: a join plan
# shared across that part would give wrong answers.
SHAPE_TWINS = {
    "relation names": ["P(x) :- r(x,y), A(y).", "Q(x) :- s(x,y), B(y)."],
    "head arguments": ["P(x) :- r(x,y), A(y).", "Q(y) :- r(x,y), A(y)."],
    "inequalities": ["P(x) :- r(x,y), r(x,z), y != z.", "Q(x) :- r(x,y), r(x,z)."],
    # round one starts each rule at its first atom, later rounds at the
    # IDB atom that grew: P and Q feed each other through r and s
    "first atom": ["P(x) :- A(x).", "P(x) :- r(x,y), Q(y).", "Q(x) :- s(x,y), P(y)."],
}


@pytest.mark.parametrize("case", sorted(SHAPE_TWINS))
def test_rules_of_one_shape_keep_their_own_answers(case):
    rules = SHAPE_TWINS[case]
    rng = random.Random(70)
    for head in ("P", "Q"):
        p = Program(tuple(map(rule, [f"goal(x) :- {head}(x).", *rules])), "goal", 1)
        for _ in range(40):
            abox = rand_abox(rng, n_individuals=4, n_assertions=8,
                             concepts=("A", "B"), roles=("r", "s"))
            assert evaluate(p, abox) == evaluate_naive(p, abox), (case, head, abox)


def test_evaluate_plans_each_rule_shape_once(monkeypatch):
    t = parse_tbox("A sub some r.B\nB sub some r.A\nsome r.D sub D\nB and C sub D\n"
                   "some inv(r).C sub C")
    p = build_rewriting(t, ELIQ(Exists(r, Atom("D")), "x"))
    shapes = {(tuple(a.args for a in rule.body), rule.head.args, rule.neq, i)
              for rule in p.rules for i in range(len(rule.body))}
    planned = 0

    def plan(*args):
        nonlocal planned
        planned += 1
        return _plan(*args)

    monkeypatch.setattr("omq.datalog._plan", plan)
    abox = parse_abox("\n".join([f"r(a{k},a{k + 1})" for k in range(8)] +
                                ["A(a0)", "C(a3)", "B(a5)", "D(a8)"]))
    assert evaluate(p, abox)
    assert 0 < planned <= len(shapes) < len(p.rules) // 20


def test_evaluate_reads_one_rule_index_per_program():
    # the index of which rules read a relation is built on first use,
    # then shared by later calls, which leave it as it was built
    p = build_rewriting(T_EXISTS_L, ELIQ(A, "x"))
    abox = parse_abox("r(a,b)\nr(b,c)\nA(c)")
    answers = evaluate(p, abox)
    uses = p.uses
    assert evaluate(p, abox) == answers == {("a",), ("b",), ("c",)}
    assert p.uses is uses and uses == Program.uses.func(p)


def test_evaluate_compiles_each_program_once(monkeypatch):
    # the plans, the defined relations and the rules of round one are
    # built on the first call and read, unchanged, by every later one
    t = parse_tbox("A sub some r.B\nB sub some r.A\nsome r.D sub D\nB and C sub D\n"
                   "some inv(r).C sub C")
    p = build_rewriting(t, ELIQ(Exists(r, Atom("D")), "x"))
    abox = parse_abox("\n".join([f"r(a{k},a{k + 1})" for k in range(6)] + ["C(a2)", "B(a4)"]))
    other = parse_abox("r(a,b)\nA(b)")
    answers, other_answers = evaluate(p, abox), evaluate_naive(p, other)
    assert answers == evaluate_naive(p, abox) and answers
    compiled = p.compiled
    calls = []
    monkeypatch.setattr("omq.datalog._plan", lambda *args: calls.append("_plan"))
    monkeypatch.setattr(Program, "idb", lambda self: calls.append("idb"))
    assert evaluate(p, abox) == answers and evaluate(p, other) == other_answers
    assert calls == [] and p.compiled is compiled
    monkeypatch.undo()
    assert compiled[:2] == Program.compiled.func(p)[:2]
    # the rules of one shape share one tuple of plans
    assert len({id(plans) for plans in compiled[2]}) < len(p.rules) // 20


def test_evaluate_joins_no_empty_relation(monkeypatch):
    # almost every rewriting rule reads a type-set relation, empty until
    # a seed fills it: such a rule waits for its delta instead of being
    # joined in round one
    t = parse_tbox("A sub some r.B\nB sub some r.A\nsome r.D sub D\nB and C sub D\n"
                   "some inv(r).C sub C")
    p = build_rewriting(t, ELIQ(Exists(r, Atom("D")), "x"))
    entered = 0

    def join(plan, sources, k, *args):
        nonlocal entered
        entered += k == 0
        return _join(plan, sources, k, *args)

    monkeypatch.setattr("omq.datalog._join", join)
    abox = parse_abox("\n".join([f"r(a{(k - 1) // 2},a{k})" for k in range(1, 15)] +
                                ["A(a3)", "C(a1)", "B(a6)", "D(a12)", "C(a9)"]))
    got = evaluate(p, abox)
    assert got == evaluate_naive(p, abox) and got
    assert 0 < entered < len(p.rules) // 4


# Rules whose body relations first hold facts in different rounds, or
# never: a chain of IDB relations, the 0-ary clash relation, and an
# input relation (C) that no ABox below asserts.
LATE_RULES = {
    "idb chain": ["P1(x) :- A(x).", "P2(x) :- r(x,y), P1(y).",
                  "P3(x) :- s(x,y), P2(y).", "goal(x) :- P3(x), P1(x).",
                  "goal(x) :- P2(x), B(x)."],
    "clash": ["P(x) :- r(x,y), A(y).", "clash() :- P(x), B(x).",
              "clash() :- s(y,z1), s(y,z2), z1 != z2.",
              "goal(x) :- dom(x), clash().", "goal(x) :- A(x)."],
    "absent input": ["P(x) :- A(x).", "P(x) :- r(x,y), P(y).",
                     "goal(x) :- P(x), C(x).", "goal(x) :- s(x,y), C(y).",
                     "goal(x) :- P(x), B(x)."],
}


@pytest.mark.parametrize("case", sorted(LATE_RULES))
def test_rules_that_fire_late_keep_their_answers(case):
    p = Program(tuple(map(rule, LATE_RULES[case])), "goal", 1)
    rng = random.Random(71)
    for _ in range(60):
        abox = rand_abox(rng, n_individuals=5, n_assertions=9,
                         concepts=("A", "B"), roles=("r", "s"))
        assert evaluate(p, abox) == evaluate_naive(p, abox), (case, abox)


def test_monotone_for_inequality_free():
    rng = random.Random(62)
    for _ in range(60):
        abox = rand_abox(rng, n_individuals=4, n_assertions=5,
                         concepts=("A",), roles=("r",))
        extra = rand_abox(rng, n_individuals=3, n_assertions=3,
                          concepts=("A",), roles=("r",))
        bigger = ABox(abox.concept_assertions | extra.concept_assertions,
                      abox.role_assertions | extra.role_assertions)
        assert evaluate(REACHABILITY, abox) <= evaluate(REACHABILITY, bigger)


# -- build_rewriting ----------------------------------------------------------

def is_monadic(p):
    return all(len(rule.head.args) == 1 for rule in p.rules if rule.head.pred != p.goal)


def test_rewriting_empty_tbox():
    p = build_rewriting(TBox.of(), ELIQ(A, "x"))
    assert is_monadic(p)
    assert evaluate(p, parse_abox("A(a)\nr(a,b)")) == {("a",)}
    assert evaluate(p, parse_abox("B(b)")) == frozenset()


def test_rewriting_matches_reachability():
    p = build_rewriting(T_EXISTS_L, ELIQ(A, "x"))
    assert is_monadic(p)
    rng = random.Random(63)
    for _ in range(120):
        abox = rand_abox(rng, n_individuals=5, n_assertions=7,
                         concepts=("A",), roles=("r",))
        assert evaluate(p, abox) == evaluate(REACHABILITY, abox), abox
    # the chase agrees as well
    for _ in range(40):
        abox = rand_abox(rng, n_individuals=4, n_assertions=5,
                         concepts=("A",), roles=("r",))
        answers = {t[0] for t in evaluate(p, abox)}
        for a in sorted(abox.individuals()):
            assert (a in answers) == horn_entails_eliq(T_EXISTS_L, abox, ELIQ(A, "x"), a)


def test_rewriting_unraveling_intolerant_tbox_incomplete():
    # A and some r.A sub B, not A and some r.not A sub B: on the loop
    # r(a,a) the certain answer holds but the monadic program cannot see it
    t2 = parse_tbox("A and some r.A sub B\nnot A and some r.not A sub B")
    p = build_rewriting(t2, ELIQ(Atom("B"), "x"))
    assert evaluate(p, parse_abox("r(a,a)")) == frozenset()
    holds, _ = bruteforce_certain_answer(t2, parse_abox("r(a,a)"),
                                         ELIQ(Atom("B"), "x"), ("a",))
    assert holds


def test_rewriting_functionality_goal_rules():
    t = parse_tbox("func(r)\ntop sub top")
    p = build_rewriting(t, ELIQ(Atom("M"), "x"))
    # inconsistency makes every individual an answer
    answers = evaluate(p, parse_abox("r(a,b1)\nr(a,b2)"))
    assert answers == {("a",), ("b1",), ("b2",)}
    assert evaluate(p, parse_abox("r(a,b)")) == frozenset()
    # on consistent data only the M-individual answers the unary query
    assert evaluate(p, parse_abox("M(a)\nr(a,b)")) == {("a",)}


def rewriting_tboxes():
    rng = random.Random(68)
    tboxes = [T_EXISTS_L, parse_tbox("A sub some r.B\nB sub some r.A\nsome r.B sub B"),
              parse_tbox("func(inv(r))\nA sub some r.B\nB sub bot")]
    return tboxes + [rand_horn_tbox(rng, n_inclusions=2, depth=1, roles=("r", "s"))
                     for _ in range(10)]


def test_rewriting_has_no_self_implying_rules():
    # and below the goal every rule is a seed, an intersection of two
    # type sets, a propagation reading one type set at the successor, or
    # a 0-ary clash: an empty type set, or two successors of a functional role
    for t in rewriting_tboxes():
        p = build_rewriting(t, ELIQ(A, "x"))
        for rule in p.rules:
            assert rule.head not in rule.body, rule
            if rule.head.pred == p.goal:
                continue
            if not rule.head.args:
                assert [len(a.args) for a in rule.body] in ([1], [2, 2]), rule
                assert bool(rule.neq) == (len(rule.body) == 2), rule
                continue
            assert len(rule.body) <= 2, rule
            if any(len(a.args) == 2 for a in rule.body):
                assert [a.args for a in rule.body if a.pred in p.idb()] == [("y",)], rule


def test_rewriting_rules_join_their_body_in_one_piece():
    # the body atoms of positive arity share variables in one connected
    # join: a part apart from the rest would be a cross product in evaluate
    shapes = set()
    for t in rewriting_tboxes():
        for rule in build_rewriting(t, ELIQ(A, "x")).rules:
            parts = [set(a.args) for a in rule.body if a.args]
            joined = parts.pop()
            while any(p & joined for p in parts):
                joined |= set().union(*(p for p in parts if p & joined))
                parts = [p for p in parts if not p & joined]
            assert not parts, rule
            shapes.add(tuple(len(a.args) for a in rule.body))
    assert {(1, 0), (2, 2), (1,)} <= shapes


def test_rewriting_emits_each_rule_once():
    # no two rules are equal up to the order of their body atoms
    for t in rewriting_tboxes():
        rules = build_rewriting(t, ELIQ(A, "x")).rules
        keys = {(r.head, tuple(sorted(r.body, key=str)), r.neq) for r in rules}
        assert len(keys) == len(rules), t


@pytest.mark.parametrize("text", ["goal(b)", "C(b)\nP1(b)"])
def test_abox_facts_never_enter_program_relations(text):
    # an ABox assertion naming the goal or a type-set relation is not input
    t, q = parse_tbox("A sub B"), ELIQ(Atom("B"), "x")
    p = build_rewriting(t, q)
    assert {"goal", "P1"} <= p.idb()
    abox = parse_abox(text)
    assert not horn_entails_eliq(t, abox, q, "b")
    assert evaluate(p, abox) == frozenset()


@pytest.mark.parametrize("tbox, query, text", [
    ("P1 sub B", "B", "P1(b)"), ("some P3.top sub B", "B", "P3(b,c)"),
    ("goal sub B", "B", "goal(b)"), ("A sub B", "P1", "A(b)\nP1(c)"),
    ("func(clash)\nA sub B", "B", "clash(a,b)\nclash(a,c)"),
])
def test_rewriting_relations_never_clash_with_tbox_names(tbox, query, text):
    # the program's own relation names are kept apart from the OMQ's names
    t, q, abox = parse_tbox(tbox), ELIQ(Atom(query), "x"), parse_abox(text)
    p = build_rewriting(t, q)
    assert not p.idb() & (t.concept_names() | t.role_names() | {query})
    assert {a for (a,) in evaluate(p, abox)} == \
        {a for a in abox.individuals() if horn_entails_eliq(t, abox, q, a)}


@pytest.mark.parametrize("tbox, query", [
    ("dom sub A", "A"), ("some dom.top sub A", "A"), ("A sub B", "dom"),
])
def test_rewriting_rejects_the_reserved_name_dom(tbox, query):
    # dom is the built-in active-domain relation, not a TBox or query name
    with pytest.raises(ValueError):
        build_rewriting(parse_tbox(tbox), ELIQ(Atom(query), "x"))


def test_rewriting_agrees_with_chase_on_random_horn_tboxes():
    rng = random.Random(69)
    queries = [A, Atom("B"), Exists(r, A), Exists(Role("r", True), Atom("B"))]
    outcomes = {True: 0, False: 0}
    for _ in range(60):
        t = rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        q = ELIQ(rng.choice(queries), "x")
        p = build_rewriting(t, q)
        for _k in range(6):
            abox = rand_abox(rng, n_individuals=4, n_assertions=6,
                             concepts=("A", "B"), roles=("r",))
            answers = {a for (a,) in evaluate(p, abox)}
            for a in sorted(abox.individuals()):
                truth = horn_entails_eliq(t, abox, q, a)
                assert (a in answers) == truth, (t, abox, a)
                outcomes[truth] += 1
    assert min(outcomes.values()) > 200


def test_rewriting_agrees_with_csp_on_random_alc_alci_tboxes():
    # the CSP route is exact for ALC/ALCI (homomorphism duality); the
    # rewriting is arc consistency, so it is sound, and complete on
    # forest-shaped ABoxes, where arc consistency decides homomorphisms
    # (Freuder, JACM 1982; Feder & Vardi, SIAM J. Comput. 1998)
    rng = random.Random(72)
    outcomes = {True: 0, False: 0}
    forests = 0
    for k in range(40):
        t = rand_tbox(rng, n_inclusions=2, depth=1, allow_inverse=k % 2 == 0)
        concept = rand_eli_concept(rng, depth=1)
        p = build_rewriting(t, ELIQ(concept, "x"))
        templates = {}      # booleanized query -> its template
        for _k in range(4):
            abox = rand_abox(rng, n_individuals=3, n_assertions=4)
            answers = {a for (a,) in evaluate(p, abox)}
            forest = _is_forest(abox)
            forests += forest
            for a in sorted(abox.individuals()):
                _, marked, q = booleanize_eliq(t, abox, concept, a)
                if q not in templates:
                    templates[q] = template_from_omq(t, q)
                truth = certain_boolean_eliq_csp(t, marked, q, template=templates[q])
                assert a not in answers or truth, (t, concept, abox, a)
                if forest:
                    assert (a in answers) == truth, (t, concept, abox, a)
                outcomes[truth] += 1
    assert min(outcomes.values()) >= 20 and forests >= 20


def test_rewriting_size_guard():
    t = parse_tbox("some r.A sub A")
    with pytest.raises(SizeGuardError):
        build_rewriting(t, ELIQ(A, "x"), max_idbs=1)


def test_rule5_effect_inconsistency_means_all_answers():
    t = parse_tbox("A sub bot")
    p = build_rewriting(t, ELIQ(Atom("B"), "x"))
    got = evaluate(p, parse_abox("A(a)\nB(b)\nr(b,c)"))
    assert got == {("a",), ("b",), ("c",)}
    assert evaluate(p, parse_abox("B(b)")) == {("b",)}
