import hashlib
import itertools
import random

import pytest

from omq.syntax import (
    ABox, And, Atom, Bot, CQ, ELIQ, Exists, Implies, Not, Or, Role, TBox,
    Top, UCQ, eliq_to_cq, parse_abox, parse_tbox, print_concept,
)
from omq.semantics import Interpretation, eval_concept, is_model, match_query
from omq.chase import (
    Completion, InconclusiveError, _Structure, _Table, complete, horn_certain_answer_cq,
    horn_entails_eliq,
)
from omq.tableau import abox_consistent
from omq.types import entails_eliq

from genutil import rand_abox, rand_eli_concept, rand_horn_tbox, rand_role
from oracles import complete_by_rounds, enumerate_interpretations

A, B = Atom("A"), Atom("B")
r = Role("r")

T_EXISTS_L = parse_tbox("some r.A sub A")        # reachability to an A
T_EXISTS_R = parse_tbox("A sub some r.A")        # forward A-chains


# -- Completion.matches -------------------------------------------------------

def test_match_top_unconditional():
    c = complete(TBox.of(), parse_abox("B(b)"))
    assert c.matches(Top(), "b")


def test_match_exists_one_step():
    c = complete(TBox.of(), parse_abox("r(a,b)\nA(b)"))
    assert c.matches(Exists(r, A), "a")
    assert not c.matches(Exists(r, B), "a")


def test_match_bottom_is_global():
    # bottom derived anywhere matches bot at every individual
    t = parse_tbox("A sub bot")
    c = complete(t, parse_abox("A(c)\nB(d)"))
    assert c.bottom
    assert c.matches(Bot(), "d")


def test_match_refuses_concepts_outside_eliu_bot():
    # checked before matching: without the check the conjunction would
    # fail on A and answer False
    c = complete(TBox.of(), parse_abox("B(b)\nr(a,b)"))
    with pytest.raises(ValueError):
        c.matches(And(A, Not(B)), "a")


# -- complete -----------------------------------------------------------------

def test_complete_exists_r_blocks():
    c = complete(T_EXISTS_R, parse_abox("A(a)"))
    assert c.status == "complete"
    witness, = (y for y, step in c.origin.items() if step == ("a", r, A))
    assert witness in c.labels
    assert A in c.labels[witness]
    assert ("r", "a", witness) in c.edges
    # blocked on the repeated label set: no deeper individual
    assert all(parent not in c.origin for parent, _, _ in c.origin.values())


def test_complete_exists_l_derives():
    c = complete(T_EXISTS_L, parse_abox("r(a,b)\nA(b)"))
    assert A in c.labels["a"]


def test_complete_functional_pushes_to_existing_successor():
    # func(r): an existential filler lands on the data successor, no fresh one
    t = parse_tbox("func(r)\nA sub some r.B")
    c = complete(t, parse_abox("A(a)\nr(a,b)"))
    assert B in c.labels["b"]
    assert not c.origin


def test_complete_functional_clash_under_unique_names():
    t = parse_tbox("func(r)\ntop sub top")
    c = complete(t, parse_abox("r(a,b1)\nr(a,b2)"))
    assert c.bottom


def test_kb_consistent_iff_not_bottom():
    rng = random.Random(6021)
    both = 0
    for _ in range(120):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=False)
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        c = complete(t, a)
        if c.status != "complete":
            continue
        both += 1
        assert abox_consistent(t, a) == (not c.bottom)
    assert both > 100


def test_rule_soundness_on_small_models():
    # every model of T and A (over Ind(A), edges fixed) satisfies each
    # derived atomic assertion at its individual
    rng = random.Random(140)
    checked = 0
    for _ in range(60):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=False)
        a = rand_abox(rng, n_individuals=2, n_assertions=3,
                      concepts=("A", "B"), roles=("r",))
        c = complete(t, a)
        if c.bottom or c.status != "complete":
            continue
        base = Interpretation.from_abox(a)
        for i in enumerate_interpretations(base.domain, ("A", "B"), ("r",),
                                           fixed_edges=a.role_assertions):
            if not all(x in i.concept(n) for n, x in a.concept_assertions):
                continue
            if not is_model(i, t):
                continue
            checked += 1
            for ind in a.individuals():
                for concept in c.labels[ind]:
                    if isinstance(concept, Atom):
                        assert ind in i.concept(concept.name)
    assert checked > 50


def test_order_insensitive_boolean_outputs():
    rng = random.Random(99)
    for _ in range(25):
        t = rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        runs = [complete(t, a, order_seed=s) for s in (None, 1, 2, 3, 4)]
        assert len({c.bottom for c in runs}) == 1
        if runs[0].bottom:
            continue
        q = ELIQ(Exists(r, A), "x")
        answers = set()
        for c in runs:
            if c.status != "complete":
                break
            got = frozenset(x for x in sorted(a.individuals())
                            if horn_entails_eliq(t, a, q, x, completion=c))
            answers.add(got)
        assert len(answers) <= 1


# -- complete against full rounds ---------------------------------------------

NAMES, ROLES = ("A", "B", "C"), ("r", "s")


def _rand_horn_kb(rng):
    """A random Horn KB: inclusions of depth <= 2 with inverse roles, 3-8
    individuals, and a functional role in 40% of the TBoxes.  Every other
    KB is a chain of 5-8 individuals whose first edges use role r1 and the
    rest r2, with X asserted at its end and the inclusions ``some r2.X sub
    X``, ``X sub Y`` and ``some r1.some r1.Y sub Z``, plus a random one: X
    can spread back one individual per round, and the last premise first
    matches when Y arrives two ABox edges away."""
    if rng.random() < 0.5:
        t = rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=NAMES, roles=ROLES)
        inds = [f"a{i}" for i in range(rng.randint(3, 8))]
        cas = {(rng.choice(NAMES), rng.choice(inds)) for _ in range(rng.randint(1, 4))}
        ras = {(rng.choice(ROLES), rng.choice(inds), rng.choice(inds))
               for _ in range(rng.randint(2, 8))}
    else:
        x, y, z = (Atom(rng.choice(NAMES)) for _ in range(3))
        r1, r2 = (Role(n) for n in rng.sample(ROLES, 2))
        inds = [f"a{i}" for i in range(rng.randint(5, 8))]
        rng.shuffle(inds)
        k = rng.randint(2, len(inds) - 2)
        ras = {((r1 if i < k else r2).name, a, b)
               for i, (a, b) in enumerate(zip(inds, inds[1:]))}
        cas = {(x.name, inds[-1])} | {(rng.choice(NAMES), rng.choice(inds))
                                      for _ in range(rng.randint(0, 2))}
        extra = rand_horn_tbox(rng, n_inclusions=1, depth=2, concepts=NAMES, roles=ROLES)
        t = TBox(extra.inclusions | {(Exists(r2, x), x), (x, y),
                                     (Exists(r1, Exists(r1, y)), z)})
    if rng.random() < 0.4:
        t = TBox(t.inclusions, frozenset({rand_role(rng, ROLES)}))
    return t, ABox(frozenset(cas), frozenset(ras))


def test_complete_matches_full_rounds_on_random_horn_kbs():
    # skipping the individuals far from the last round's new facts loses
    # nothing: same status and bottom, and on complete consistent runs the
    # same ABox labels and ELIQ answers as rounds that visit everyone
    rng = random.Random(5)
    compared = 0
    for _ in range(2000):
        t, abox = _rand_horn_kb(rng)
        queries = [rand_eli_concept(rng, 2, NAMES, ROLES) for _ in range(3)]
        new = complete(t, abox, max_depth=60)
        old = complete_by_rounds(t, abox, max_depth=60)
        assert (new.status, new.bottom) == (old.status, old.bottom), (t, abox)
        if new.status != "complete" or new.bottom:
            continue
        compared += 1
        for a in sorted(abox.individuals()):
            assert new.labels[a] == old.labels[a], (t, abox, a)
            for q in queries:
                assert new.matches(q, a) == old.matches(q, a), (t, abox, q, a)
    assert compared > 1400


def test_premise_matches_two_abox_edges_from_a_late_fact():
    # E spreads back along s one individual per round, reaching c in the
    # fourth; a sees c's A through a premise two ABox edges deep
    t = parse_tbox("some s.E sub E\nE sub A\nsome r.some r.A sub B")
    a = parse_abox("r(a,b)\nr(b,c)\ns(c,d)\ns(d,e)\ns(e,f)\nE(f)")
    assert horn_entails_eliq(t, a, ELIQ(B, "x"), "a")
    assert complete(t, a).labels == complete_by_rounds(t, a).labels


# The horn benchmark's TBoxes: cyclic existentials that block, recursive
# premises, and a functional inverse role.
HORN_TBOXES = [parse_tbox(text) for text in (
    "A sub some r.B\nB sub some r.A\nsome r.D sub D\nB and C sub D\nsome inv(r).C sub C",
    "A sub some inv(s).B\nB sub some inv(s).A\nsome s.E sub E\nC sub E",
    "func(inv(r))\nA sub some r.B\nB sub some r.A\nsome r.C sub C",
)]


def _horn_tree(n):
    """A tree over r (parent to child) and s (either way), with every
    individual but the root labelled A, B or C."""
    lines = []
    for k in range(1, n):
        a, b = f"a{(k - 1) // 2}", f"a{k}"
        lines += [(f"r({a},{b})", f"s({a},{b})", f"s({b},{a})")[k % 3], f"{'ABC'[k % 3]}({b})"]
    return parse_abox("\n".join(lines))


def test_complete_matches_no_premise_whose_conclusions_hold(monkeypatch):
    # an Implies settles once its conclusion is in the label: a premise
    # all of whose conclusions an individual already has is never
    # matched there again
    holds = _Structure.holds
    depth = 0
    matched, stale = 0, []

    def spy(self, premise, x):
        nonlocal depth, matched
        if depth == 0:      # a premise; deeper calls match its parts
            matched += 1
            t = self.table
            conclusions = 0
            for kind, parts in zip(t.kind, t.parts):
                if kind is Implies and parts[0] == premise:
                    conclusions |= 1 << parts[1]
            if conclusions & ~self.labels[x] == 0:
                stale.append((premise, x))
        depth += 1
        try:
            return holds(self, premise, x)
        finally:
            depth -= 1

    monkeypatch.setattr(_Structure, "holds", spy)
    rng = random.Random(9)
    kbs = [_rand_horn_kb(rng) for _ in range(300)]
    kbs += [(t, _horn_tree(n)) for t in HORN_TBOXES for n in (12, 30)]
    for t, abox in kbs:
        complete(t, abox, max_depth=60)
        assert not stale, (t, abox, stale[:3])
    assert matched > 10000


def test_forall_reaches_a_successor_made_after_it():
    # all r.B is in a's label a pass before some r.C makes the
    # r-successor: a Forall never settles, so a later visit reaches it
    t = parse_tbox("A sub all r.B\nA sub E\nE sub some r.C\nsome r.(B and C) sub D")
    c = complete(t, parse_abox("A(a)"))
    assert Atom("D") in c.labels["a"]


def test_one_structure_serves_the_whole_completion(monkeypatch):
    # the run's own structure answers every later question
    init = _Structure.__init__
    built = 0

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(_Structure, "__init__", counting)
    t = HORN_TBOXES[0]
    abox = _horn_tree(12)
    q = ELIQ(Exists(r, Atom("D")), "x")
    c = complete(t, abox)
    answers = {a for a in sorted(abox.individuals())
               if horn_entails_eliq(t, abox, q, a, completion=c)}
    assert answers and answers != abox.individuals()
    # A(a3): r-successors alternate B and A, the fourth past a blocked one
    assert c.matches(Exists(r, Exists(r, Exists(r, Exists(r, A)))), "a3")
    assert horn_certain_answer_cq(t, abox, eliq_to_cq(q), (min(answers),), completion=c)
    assert c.unrolled_interpretation(3).domain > abox.individuals()
    assert built == 1


def test_one_table_per_tbox_value():
    # the numbering is made on a TBox's first completion and kept on it;
    # an equal TBox value numbers its own, and an ABox with names the
    # table lacks reads a copy that leaves the kept table as it was
    text = "A sub some r.B\nB sub some r.A\nsome r.D sub D"
    t, other = parse_tbox(text), parse_tbox(text)
    first = complete(t, parse_abox("A(a)\nr(a,b)"))
    second = complete(t, parse_abox("B(b)\nD(c)\nr(c,b)"))
    assert first.structure.table is second.structure.table is t._chase
    assert other == t
    assert complete(other, parse_abox("A(a)")).structure.table is not t._chase
    wider = complete(t, parse_abox("Z(a)\ns(a,b)"))
    assert wider.structure.table is not t._chase
    assert Atom("Z") in wider.labels["a"] and Atom("Z") not in t._chase.ids
    assert wider.matches(Exists(Role("s"), Top()), "a")
    assert complete(t, parse_abox("A(a)")).structure.table is t._chase
    # a new role name alone copies the role numbering, and shares the rest
    roles_only = complete(t, parse_abox("A(a)\ns(a,b)\nB(b)"))
    assert roles_only.structure.table.concepts is t._chase.concepts
    assert roles_only.matches(Exists(Role("s"), B), "a")
    assert vars(t._chase) == vars(_Table(t)) and "s" not in t._chase.role_ids


# -- the order of additions ---------------------------------------------------

def traced_completions():
    """Traced runs: the horn benchmark's TBoxes on trees of 12 and 30
    individuals in three visit orders, then 200 random KBs."""
    for t in HORN_TBOXES:
        for n in (12, 30):
            for seed in (None, 1, 2):
                yield complete(t, _horn_tree(n), order_seed=seed, keep_trace=True)
    rng = random.Random(5)
    for _ in range(200):
        yield complete(*_rand_horn_kb(rng), keep_trace=True)


def _fingerprint(c):
    """The run's trace, labels, origin, edges, status and bottom as text.
    The fillers that one R5 or R7 entry pushes to several successors are
    listed sorted: an earlier chase took them in set order."""
    trace = []
    for _, run in itertools.groupby(c.trace, lambda e: e[:2] if e[0] in ("R5", "R7") else e):
        trace += sorted(run)
    labels = sorted((repr(x), sorted(map(print_concept, v))) for x, v in c.labels.items())
    origin = sorted((y, repr(x), str(role), print_concept(filler))
                    for y, (x, role, filler) in c.origin.items())
    return repr((trace, labels, origin, sorted(map(repr, c.edges)), c.status, c.bottom))


def test_order_of_additions_is_pinned():
    # the digest of the concept-labelled chase that the numbered one replaced
    h = hashlib.sha256()
    for c in traced_completions():
        h.update(_fingerprint(c).encode())
    assert h.hexdigest() == "391801d66014151171edb8a330eb85608febfd6c65a07db1ad1a6cd0f816811d"


# -- horn_entails_eliq --------------------------------------------------------

def test_entails_along_r_path():
    a = parse_abox("r(a,b)\nr(b,c)\nA(c)")
    assert horn_entails_eliq(T_EXISTS_L, a, ELIQ(A, "x"), "a")
    assert horn_entails_eliq(T_EXISTS_L, a, ELIQ(A, "x"), "b")
    assert not horn_entails_eliq(T_EXISTS_L, a, ELIQ(B, "x"), "a")


def test_entails_top_everywhere():
    a = parse_abox("r(a,b)")
    for x in ("a", "b"):
        assert horn_entails_eliq(T_EXISTS_R, a, ELIQ(Top(), "x"), x)


def test_ex5b_query_not_entailed():
    # B1(a), B2(b), A(a), A(b): the looping materialization would satisfy
    # (B1 and some r.some inv(r).B2)(a), the genuine chase does not
    a = parse_abox("B1(a)\nB2(b)\nA(a)\nA(b)")
    q = ELIQ(And(Atom("B1"), Exists(r, Exists(Role("r", True), Atom("B2")))), "x")
    assert not horn_entails_eliq(T_EXISTS_R, a, q, "a")
    # sanity: the deep chain query is entailed
    deep = ELIQ(Exists(r, Exists(r, Exists(r, A))), "x")
    assert horn_entails_eliq(T_EXISTS_R, a, deep, "a")


def test_entails_rejects_a_name_outside_the_abox():
    a = parse_abox("A(a)")
    with pytest.raises(ValueError):
        horn_entails_eliq(parse_tbox("A sub B"), a, ELIQ(B, "x"), "nobody")
    # anonymous individuals are numbered, and a number names none of the ABox
    with pytest.raises(ValueError):
        horn_entails_eliq(T_EXISTS_R, a, ELIQ(A, "x"), 0)


def test_entails_rejects_a_name_outside_an_inconsistent_abox():
    with pytest.raises(ValueError):
        horn_entails_eliq(parse_tbox("A sub bot"), parse_abox("A(a)"), ELIQ(B, "x"),
                          "nobody")


def test_chase_agrees_with_tableau_on_inverse_and_functional_roles():
    rng = random.Random(3307)
    roles = ("r", "s")
    checked = functional = 0
    for _ in range(200):
        t = rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=("A", "B"),
                           roles=roles, allow_inverse=True)
        if rng.random() < 0.5:
            t = TBox(t.inclusions, frozenset({rand_role(rng, roles)}))
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=roles)
        qs = [rand_eli_concept(rng, 2, ("A", "B"), roles) for _ in range(6)]
        c = complete(t, a)
        if c.status != "complete":
            continue
        for q in qs:
            for x in sorted(a.individuals()):
                checked += 1
                functional += bool(t.functional)
                assert horn_entails_eliq(t, a, ELIQ(q, "x"), x, completion=c) == \
                    entails_eliq(t, a, q, x)
    assert checked > 1500 and functional > 500


def test_deep_premise_matching_through_blocked_nodes():
    # the implication premise needs a 3-step descent; blocking must not
    # hide it
    t = parse_tbox("top sub some r.A\nsome r.some r.some r.A sub B")
    a = parse_abox("A(a)")
    assert horn_entails_eliq(t, a, ELIQ(B, "x"), "a")


# -- canonical interpretation -------------------------------------------------
# Without anonymous individuals, the unrolling to depth 0 is the completed ABox.

def test_canonical_of_empty_tbox_is_abox():
    a = parse_abox("A(a)\nr(a,b)")
    c = complete(TBox.of(), a)
    i = c.unrolled_interpretation(0)
    assert i.domain == {"a", "b"}
    assert i.concept("A") == {"a"}
    assert i.role_ext["r"] == {("a", "b")}


def test_canonical_exists_l_adds_labels_along_paths():
    a = parse_abox("r(a,b)\nr(b,c)\nA(c)\nr(d,d)")
    c = complete(T_EXISTS_L, a)
    i = c.unrolled_interpretation(0)
    assert i.concept("A") == {"a", "b", "c"}
    assert is_model(i, T_EXISTS_L, a)


def test_canonical_is_model_when_unblocked():
    rng = random.Random(512)
    checked = 0
    for _ in range(80):
        t = rand_horn_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                           roles=("r",), allow_inverse=False)
        a = rand_abox(rng, n_individuals=2, n_assertions=3,
                      concepts=("A", "B"), roles=("r",))
        c = complete(t, a)
        if c.bottom or c.status != "complete":
            continue
        if c.origin:
            continue  # blocked/placeholder-free slices only
        checked += 1
        assert is_model(c.unrolled_interpretation(0), t, a)
    assert checked > 10


# -- horn_certain_answer_cq ---------------------------------------------------

def test_boolean_cq_already_in_abox():
    a = parse_abox("r(a,b)\nA(b)")
    q = CQ.of([("A", "x")], [], ())
    assert horn_certain_answer_cq(T_EXISTS_L, a, q, ())


def test_inconsistent_kb_entails_everything():
    t = parse_tbox("func(r)\ntop sub top")
    a = parse_abox("r(a,b1)\nr(a,b2)")
    q = CQ.of([("Z", "x")], [], ())
    assert horn_certain_answer_cq(t, a, q, ())


def test_ex5b_cq_form_not_entailed():
    a = parse_abox("B1(a)\nB2(b)\nA(a)\nA(b)")
    q = CQ.of([("B1", "x"), ("B2", "z")], [("r", "x", "y"), ("r", "z", "y")], ("x",))
    assert not horn_certain_answer_cq(T_EXISTS_R, a, q, ("a",))
    # but matching the looping materialization shape inside one branch works
    q2 = CQ.of([("A", "y")], [("r", "x", "y")], ("x",))
    assert horn_certain_answer_cq(T_EXISTS_R, a, q2, ("a",))


def test_cq_rejects_a_name_outside_the_abox():
    q = CQ.of([("B", "x")], [], ("x",))
    with pytest.raises(ValueError):
        horn_certain_answer_cq(parse_tbox("A sub B"), parse_abox("A(a)"), q, ("nobody",))


def test_cyclic_cq_on_chase():
    # cycles can only match the data part, never the tree part
    a = parse_abox("A(a)")
    q = CQ.of([], [("r", "x", "x")], ())
    assert not horn_certain_answer_cq(T_EXISTS_R, a, q, ())
    a2 = parse_abox("A(a)\nr(a,a)")
    assert horn_certain_answer_cq(T_EXISTS_R, a2, q, ())


def test_cq_matches_unrolled_tree_beyond_blocking():
    a = parse_abox("A(a)")
    # a path of 4 fresh variables into the anonymous part
    q = CQ.of([("A", "v4")],
              [("r", "x", "v1"), ("r", "v1", "v2"), ("r", "v2", "v3"), ("r", "v3", "v4")],
              ("x",))
    assert horn_certain_answer_cq(T_EXISTS_R, a, q, ("a",))


def test_cq_route_agrees_with_eliq_route_on_random_horn_kbs():
    # the ELIQ's tree CQ, matched in the unrolled completion, holds at an
    # individual exactly where the completion matches the ELIQ (an
    # inconsistent KB answers everything on both routes)
    rng = random.Random(71)
    outcomes = {True: 0, False: 0}
    for _ in range(500):
        t, abox = _rand_horn_kb(rng)
        queries = [rand_eli_concept(rng, 2, NAMES, ROLES) for _ in range(2)]
        c = complete(t, abox)
        if c.status != "complete" or c.bottom:
            continue
        for q in queries:
            cq = eliq_to_cq(ELIQ(q, "x"))
            for a in sorted(abox.individuals()):
                want = horn_entails_eliq(t, abox, q, a, completion=c)
                assert horn_certain_answer_cq(t, abox, cq, (a,), completion=c) == want, \
                    (t, abox, q, a)
                outcomes[want] += 1
    assert min(outcomes.values()) > 1000, outcomes


def test_unrolling_keeps_every_path_apart():
    # every element has an r-child and an s-child, so depth k of unrolling
    # past the deepest chase individual gives the full binary tree of
    # 2^(k+2) - 1 elements, each labelled A
    c = complete(parse_tbox("A sub some r.A and some s.A"), parse_abox("A(a)"))
    for k in range(4):
        i = c.unrolled_interpretation(k)
        assert len(i.domain) == 2 ** (k + 2) - 1
        assert i.concept("A") == i.domain
        assert sum(map(len, i.role_ext.values())) == len(i.domain) - 1


def _rand_cq(rng, arity):
    """A random CQ over NAMES and ROLES with ``arity`` answer variables
    and up to three more, each atom over any of them: cycles, parts
    disconnected from each other and parts holding no answer variable
    all occur.  Every other CQ with an answer variable is instead the
    tree CQ of a depth-2 ELIQ at x, which reaches into the anonymous
    part."""
    variables = ["x", "x2"][:arity] + [f"v{k}" for k in range(rng.randint(arity == 0, 3))]
    if arity and rng.random() < 0.5:
        tree = eliq_to_cq(ELIQ(rand_eli_concept(rng, 2, NAMES, ROLES), "x"))
        return CQ.of(tree.concept_atoms, tree.role_atoms, variables[:arity])
    return CQ.of({(rng.choice(NAMES), rng.choice(variables)) for _ in range(rng.randint(0, 3))},
                 {(rng.choice(ROLES), rng.choice(variables), rng.choice(variables))
                  for _ in range(rng.randint(0, 4))},
                 variables[:arity])


def _cq_features(q):
    """Which of cyclic, disconnected and Boolean-part the CQ is, by the
    parts of its multigraph of role atoms: a forest has one edge fewer
    per part than it has variables, and a self-loop is an edge that
    joins nothing."""
    parts = [{v} for v in q.variables()]
    edges = [frozenset((x, y)) for _, x, y in q.role_atoms]
    for e in edges:
        parts = [p for p in parts if not p & e] + [set().union(*(p for p in parts if p & e))]
    found = {"cyclic"} if len(edges) > len(q.variables()) - len(parts) else set()
    if any(p.isdisjoint(q.answer_vars) for p in parts):
        found.add("boolean part")
    elif len(parts) > 1:
        found.add("disconnected anchored")
    return found


def _unrolled_size(c, extra_depth):
    """How many elements ``c.unrolled_interpretation(extra_depth)`` has,
    counted without building it."""
    s, memo = c.structure, {}

    def size(x, k):
        if k and (x, k) not in memo:
            rep = s.blocker_of(x)
            kids = s.children.get(x if rep is None else rep, {}).values()
            memo[x, k] = 1 + sum(size(y, k - 1) for y in kids)
        return memo.get((x, k), 1)

    limit = max((len(s.path(y)) for y in c.origin), default=0) + extra_depth
    return sum(size(a, limit) for a in c.abox.individuals())


def test_cq_ball_agrees_with_the_full_unrolling_on_random_horn_kbs():
    # anchored queries are matched in the ball around their answers, the
    # others in the full unrolling: both give what matching the full
    # unrolling at the query's variable count gives.  That reference grows
    # as the branching to the power 2·nvars + 1, so a query whose
    # reference would exceed 20,000 elements is not asked
    rng = random.Random(24)
    kinds, outcomes = set(), {(ball, want): 0 for ball in (True, False) for want in (True, False)}
    asked = skipped = 0
    for _ in range(300):
        t, abox = _rand_horn_kb(rng)
        c = complete(t, abox)
        if c.status != "complete" or c.bottom:
            continue
        inds = sorted(abox.individuals())
        for _ in range(3):
            arity = rng.choice([0, 1, 2, 2])
            qs = [_rand_cq(rng, arity) for _ in range(rng.choice([1, 1, 2]))]
            q = qs[0] if len(qs) == 1 else UCQ(tuple(qs), qs[0].answer_vars)
            kinds |= {f"{arity} answers", "ucq" if len(qs) > 1 else "cq"}
            features = set().union(*map(_cq_features, qs))
            kinds |= features
            nvars = max(len(d.variables()) for d in qs)
            size = _unrolled_size(c, 2 * nvars + 1)
            if size > 20000:
                skipped += 1
                continue
            asked += 1
            full = c.unrolled_interpretation(2 * nvars + 1)
            assert len(full.domain) == size
            tuples = list(itertools.product(inds, repeat=arity))
            for answers in rng.sample(tuples, min(8, len(tuples))):
                want = match_query(full, q, answers)
                assert horn_certain_answer_cq(t, abox, q, answers, completion=c) == want, \
                    (t, abox, q, answers)
                outcomes["boolean part" not in features, want] += 1
    assert kinds >= {"0 answers", "1 answers", "2 answers", "cq", "ucq", "cyclic",
                     "boolean part", "disconnected anchored"}, kinds
    assert min(outcomes.values()) > 100 and skipped < asked // 20, (outcomes, skipped)


def test_cq_unrolls_only_the_ball_around_its_answers(monkeypatch):
    # matched on the full unrolling to its variable count, this CQ once
    # built 744,684 elements; it reaches two steps from its answer
    t = parse_tbox("top sub all r.some r.top\ntop or B sub some r.some s.not B\n"
                   "func(inv(r))")
    abox = parse_abox("r(a0,a0)\ns(a0,a0)")
    q = eliq_to_cq(ELIQ(Exists(Role("r", True), Exists(Role("s", True), B)), "x"))
    sizes = []

    def spy(i, *args):
        sizes.append(len(i.domain))
        return match_query(i, *args)

    monkeypatch.setattr("omq.chase.match_query", spy)
    assert not horn_certain_answer_cq(t, abox, q, ("a0",))
    assert len(sizes) == 1 and sizes[0] < 50


def test_budget_exhaustion_is_inconclusive():
    t = parse_tbox("A sub some r.(A and B)\nB sub some s.A")
    a = parse_abox("A(a)")
    c = complete(t, a, max_depth=1)
    if c.status == "complete":
        pytest.skip("budget not reachable on this instance")
    with pytest.raises(InconclusiveError):
        horn_entails_eliq(t, a, ELIQ(Atom("Z"), "x"), "a", completion=c)


# -- trace and assertion cap --------------------------------------------------

def _assertion_count(labels, edges):
    return sum(len(v) for v in labels.values()) + len(edges)


def test_trace_names_rule_premise_and_conclusion():
    t = parse_tbox("A sub all r.B\nB sub some s.C")
    c = complete(t, parse_abox("A(a)\nr(a,b)"), keep_trace=True)
    c_t = "(A implies all r.B) and (B implies some s.C)"
    assert c.trace[0] == ("R1", "a", f"{c_t}(a)")
    for step in (("R2", f"{c_t}(a)", "A implies all r.B(a)"),
                 ("R3", "A implies all r.B(a)", "all r.B(a)"),
                 ("R7", "all r.B(a)", "B(b)"),
                 ("R4", "some s.C(b)", "s(b,b.s.C)"),
                 ("R4", "some s.C(b)", "C(b.s.C)")):
        assert step in c.trace
    clash = complete(parse_tbox("func(r)\ntop sub top"), parse_abox("r(a,b1)\nr(a,b2)"),
                     keep_trace=True)
    assert clash.trace[-1] == ("Rf", "r(a) has two successors", "bot(a)")
    deep = complete(parse_tbox("A sub some inv(r).B\nB sub some r.C"), parse_abox("A(a)"),
                    keep_trace=True)
    assert ("R4", "some r.C(a.r_inv.B)", "r(a.r_inv.B,a.r_inv.B.r.C)") in deep.trace
    assert complete(t, parse_abox("A(a)\nr(a,b)")).trace == ()


def test_trace_has_one_entry_per_added_assertion():
    rng = random.Random(4411)
    checked = 0
    for _ in range(60):
        t = rand_horn_tbox(rng, n_inclusions=3, depth=2, concepts=("A", "B"),
                           roles=("r",), allow_inverse=True)
        a = rand_abox(rng, n_individuals=3, n_assertions=4,
                      concepts=("A", "B"), roles=("r",))
        c = complete(t, a, keep_trace=True)
        if c.bottom:
            continue  # a clash adds bot without an entry of its own
        checked += 1
        added = (_assertion_count(c.labels, c.edges)
                 - len(a.concept_assertions) - len(a.role_assertions))
        assert len(c.trace) == added
        assert {rule for rule, _, _ in c.trace} <= {"R1", "R2", "R3", "R4", "R7"}
    assert checked > 40


def test_assertion_cap_exhausts_the_budget():
    # the untamed completion of A sub some r.A on A(a) is an infinite r-chain
    a = parse_abox("A(a)")
    small = complete(T_EXISTS_R, a, max_assertions=3)
    assert small.status == "budget-exhausted"
    assert complete(T_EXISTS_R, a, max_assertions=10_000).status == "complete"


def test_default_cap_scales_with_the_abox():
    # 20 assertions per individual on a 2,600-individual chain: more than
    # 50,000, within the default of 20 per ABox assertion
    n = 2600
    t = parse_tbox("A sub some r.B\nB sub C\nsome inv(r).C sub D\nsome r.D sub E")
    a = ABox(frozenset(("A", f"a{i}") for i in range(n)),
             frozenset(("r", f"a{i}", f"a{i + 1}") for i in range(n - 1)))
    c = complete(t, a)
    assert c.status == "complete"
    assert _assertion_count(c.labels, c.edges) > 50_000
    assert complete(t, a, max_assertions=50_000).status == "budget-exhausted"
