import itertools
import random

import pytest

from omq.syntax import (
    ABox, And, Atom, Bot, ELIQ, Exists, Forall, Implies, Not, Or, Role, TBox,
    Top, parse_abox, parse_concept, parse_tbox,
)
from omq.semantics import Interpretation, eval_concept, is_model
from omq import types as types_module
from omq.types import (
    BLOCK_DECISIONS, _candidates, closure, closure_roles, compute_types, entails_eliq,
    entails_eliq_disjunction, omitting_tbox, succ_relation, type_structure,
    types_omitting,
)
from omq.tableau import BudgetExceededError, abox_consistent, nnf, satisfiable

from genutil import rand_concept, rand_tbox
from oracles import (
    realized_type, reference_candidates, reference_successors, reference_types,
    structure_triples,
)

A, B = Atom("A"), Atom("B")
r = Role("r")
EMPTY = TBox.of()


def brute_satisfiable(concept, tbox, max_size=3):
    """One-sided oracle: search all interpretations with <= max_size
    elements over the joint signature."""
    concepts = sorted(tbox.concept_names() | {a.name for a in [concept]
                      if isinstance(a, Atom)} | set(), key=str)
    from omq.syntax import concept_names, roles_of_concept
    concepts = sorted(tbox.concept_names() | concept_names(concept))
    roles = sorted(tbox.role_names() |
                   {ro.name for ro in roles_of_concept(concept)})
    for n in range(1, max_size + 1):
        dom = [f"e{i}" for i in range(n)]
        cell_subsets = list(itertools.chain.from_iterable(
            itertools.combinations(dom, k) for k in range(n + 1)))
        pair_subsets = None
        pairs = [(a, b) for a in dom for b in dom]
        pair_subsets = list(itertools.chain.from_iterable(
            itertools.combinations(pairs, k) for k in range(len(pairs) + 1)))
        for cvec in itertools.product(cell_subsets, repeat=len(concepts)):
            cext = {c: frozenset(s) for c, s in zip(concepts, cvec)}
            for rvec in itertools.product(pair_subsets, repeat=len(roles)):
                rext = {ro: frozenset(s) for ro, s in zip(roles, rvec)}
                i = Interpretation(frozenset(dom), frozenset(), cext, rext)
                if is_model(i, tbox) and eval_concept(i, concept):
                    return True
    return False


# -- closure ------------------------------------------------------------------

def test_closure_example():
    t = parse_tbox("A sub some r.A")
    cl = closure(t, A)
    assert A in cl and Exists(r, A) in cl
    assert Not(A) in cl and Not(Exists(r, A)) in cl


def test_closure_trivial():
    cl = closure(EMPTY, Top())
    assert set(cl) == {Top(), Not(Top())}


def test_closure_idempotent():
    t = parse_tbox("A and B sub some r.(A or B)")
    cl = closure(t, A)
    again = set()
    for c in cl:
        again |= set(closure(EMPTY, c))
    assert again == set(cl)


# -- satisfiable --------------------------------------------------------------

def test_bot_unsatisfiable():
    assert not satisfiable(Bot(), EMPTY)
    assert not satisfiable(Bot(), parse_tbox("A sub B"))


def test_looping_witness():
    t = parse_tbox("A sub some r.A")
    assert satisfiable(A, t)


def test_direct_clash():
    t = parse_tbox("A and B sub bot")
    assert not satisfiable(And(A, B), t)
    assert satisfiable(A, t)


def test_satisfiable_with_inverse_and_functionality():
    # func(inv(r)) + A sub some r.A forces an infinite (or cyclic) chain;
    # still satisfiable, pairwise blocking must terminate
    t = parse_tbox("func(inv(r))\nA sub some r.A")
    assert satisfiable(A, t)


def test_no_finite_model_case_terminates():
    # B requires an infinite forward r-chain of fresh elements:
    # func(inv(r)) makes predecessors unique, N marks non-roots
    t = parse_tbox("func(inv(r))\nB sub some r.N\nN sub some r.N\nN sub not B")
    assert satisfiable(B, t)


def test_budget_error_is_distinct():
    t = parse_tbox("A sub some r.A and some s.A")
    with pytest.raises(BudgetExceededError):
        satisfiable(A, t, budget=2)


def test_satisfiability_agrees_with_small_model_search():
    rng = random.Random(2024)
    agree_sat = 0
    for _ in range(60):
        t = rand_tbox(rng, n_inclusions=rng.randint(0, 2), depth=1,
                      concepts=("A", "B"), roles=("r",),
                      allow_inverse=False, allow_functional=True)
        c = rand_concept(rng, depth=1, concepts=("A", "B"), roles=("r",),
                         allow_inverse=False)
        if brute_satisfiable(c, t, max_size=2):
            assert satisfiable(c, t)
            agree_sat += 1
    assert agree_sat > 10


# -- abox_consistent ----------------------------------------------------------

def test_kb_consistent_empty_tbox():
    assert abox_consistent(EMPTY, parse_abox("A(a)\nr(a,b)"))


def test_kb_inconsistent_direct():
    t = parse_tbox("A and B sub bot")
    assert not abox_consistent(t, parse_abox("A(a)\nB(a)"))


def test_kb_functional_unique_names():
    t = parse_tbox("func(r)\ntop sub top")
    assert not abox_consistent(t, parse_abox("r(a,b1)\nr(a,b2)"))
    assert abox_consistent(t, parse_abox("r(a,b)"))


def test_entails_eliq():
    t = parse_tbox("A sub some r.A")
    a = parse_abox("A(a)")
    assert entails_eliq(t, a, Exists(r, A), "a")
    assert not entails_eliq(t, a, B, "a")
    with pytest.raises(ValueError):
        entails_eliq(t, a, A, "zz")
    with pytest.raises(ValueError):
        entails_eliq_disjunction(t, a, [(B, "zz"), (A, "a")])


def test_entails_disjunction_without_disjunct():
    t = parse_tbox("A sub A1 or A2")
    a = parse_abox("A(a)")
    assert entails_eliq_disjunction(t, a, [(Atom("A1"), "a"), (Atom("A2"), "a")])
    assert not entails_eliq(t, a, Atom("A1"), "a")
    assert not entails_eliq(t, a, Atom("A2"), "a")


# -- compute_types ------------------------------------------------------------

def test_types_empty_tbox_single_atom():
    types = compute_types(EMPTY, ELIQ(A, "x"))
    assert len(types) == 2
    assert {A in t for t in types} == {True, False}


def test_types_forced_membership():
    t = parse_tbox("top sub A")
    types = compute_types(t, ELIQ(A, "x"))
    assert all(Not(A) not in tt for tt in types)
    assert len(types) == 1


def test_types_boolean_coherence():
    t = parse_tbox("A and B sub some r.A")
    types = compute_types(t, ELIQ(And(A, B), "x"))
    for tt in types:
        if And(A, B) in closure(t, And(A, B)):
            assert (And(A, B) in tt) == (A in tt and B in tt)


def test_types_model_soundness_random():
    rng = random.Random(11)
    from genutil import rand_interpretation
    for _ in range(150):
        t = rand_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                      roles=("r",), allow_inverse=True)
        q = ELIQ(A, "x")
        cl = closure(t, A)
        try:
            types = compute_types(t, q)
        except BudgetExceededError:
            continue
        succ = structure_triples(types, succ_relation(t, q, types))
        covered = set(closure_roles(cl))
        for _k in range(6):
            i = rand_interpretation(rng, size=3, concepts=("A", "B"), roles=("r",))
            if not is_model(i, t):
                continue
            for d in sorted(i.domain):
                assert realized_type(cl, i, d) in types
            if Role("r") in covered:
                for (d, e) in sorted(i.role_ext.get("r", frozenset())):
                    assert (realized_type(cl, i, d), Role("r"),
                            realized_type(cl, i, e)) in succ


def test_types_match_tableau_route():
    # type elimination agrees with the tableau reference on functional
    # TBoxes: here an unused functional role on top of the random inclusions
    rng = random.Random(31)
    for _ in range(40):
        t = rand_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                      roles=("r",), allow_inverse=True)
        q = ELIQ(A, "x")
        t_func = TBox(t.inclusions, frozenset({Role("zz_unused")}))
        try:
            types = compute_types(t_func, q)
        except BudgetExceededError:
            continue
        assert types == reference_types(closure(t, A), t_func)


def chain_tbox(k):
    """A_i sub A_(i+1) for i < k and A_i sub some r.A_(i+1) for even i, with
    the query some r.A_k: k + 1 names and k // 2 + 1 existentials decide."""
    names = [Atom(f"A{i}") for i in range(k + 1)]
    inclusions = {(names[i], names[i + 1]) for i in range(k)}
    inclusions |= {(names[i], Exists(r, names[i + 1])) for i in range(0, k, 2)}
    return TBox(frozenset(inclusions), frozenset()), Exists(r, names[k])


def decoded_candidates(models, cl):
    return [frozenset(c for p, c in enumerate(cl) if t >> p & 1)
            for t in _candidates(models, cl)]


@pytest.mark.parametrize("block", [0, 2, BLOCK_DECISIONS])
def test_bit_parallel_candidates_match_the_oracle_random(monkeypatch, block):
    # small blocks split even these closures over many blocks
    monkeypatch.setattr(types_module, "BLOCK_DECISIONS", block)
    rng = random.Random(41)
    for k in range(60):
        inverse = k % 2 == 0
        inclusions = frozenset(
            tuple(rand_concept(rng, depth=2, concepts=("A", "B"), roles=("r", "s"),
                               allow_inverse=inverse, allow_implies=True) for _ in "lr")
            for _ in range(rng.randint(0, 3)))
        t = TBox(inclusions, frozenset())
        c0 = rand_concept(rng, depth=1, concepts=("A", "B"), roles=("r", "s"),
                          allow_inverse=inverse, allow_implies=True)
        cl = closure(t, c0)
        for models in (t, omitting_tbox(t, c0)):
            assert decoded_candidates(models, cl) == reference_candidates(models, cl), (t, c0)


def test_candidates_over_several_blocks_on_the_chain_tbox():
    t, q = chain_tbox(8)
    cl = closure(t, q)
    assert sum(isinstance(c, (Atom, Exists, Forall)) for c in cl) == 14 > BLOCK_DECISIONS
    assert decoded_candidates(t, cl) == reference_candidates(t, cl)
    types = compute_types(t, q)
    assert len(types) == 37
    assert types == reference_types(cl, t)


def test_type_space_is_capped_at_twenty_decisions():
    t, q = chain_tbox(12)
    assert sum(isinstance(c, (Atom, Exists, Forall)) for c in closure(t, q)) == 20
    assert len(compute_types(t, q)) == 65
    with pytest.raises(BudgetExceededError):
        compute_types(*chain_tbox(13))


# -- succ_relation ------------------------------------------------------------

def test_succ_unconstrained():
    types = compute_types(EMPTY, ELIQ(Exists(r, A), "x"))
    succ = structure_triples(types, succ_relation(EMPTY, ELIQ(Exists(r, A), "x"), types))
    # every pair is related unless the source denies an existential the
    # target would witness
    for t in types:
        for t2 in types:
            if A in t2 and Not(Exists(r, A)) in t:
                assert (t, r, t2) not in succ
            elif A not in t2 or Exists(r, A) in t:
                assert (t, r, t2) in succ


def test_succ_respects_value_restrictions():
    t = parse_tbox("A sub all r.B")
    q = ELIQ(B, "x")
    types = compute_types(t, q)
    succ = structure_triples(types, succ_relation(t, q, types))
    for (t1, role, t2) in succ:
        if role == r and A in t1:
            assert B in t2


def test_succ_inversion_symmetry():
    rng = random.Random(77)
    for _ in range(30):
        t = rand_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                      roles=("r",), allow_inverse=True)
        q = ELIQ(A, "x")
        try:
            types = compute_types(t, q)
        except BudgetExceededError:
            continue
        succ = structure_triples(types, succ_relation(t, q, types))
        for (t1, role, t2) in succ:
            assert (t2, role.inverse(), t1) in succ


def test_succ_functional_edge_reaches_the_unique_witness():
    t = parse_tbox("func(r)\nA sub some r.B\nB sub not A")
    q = ELIQ(A, "x")
    types = compute_types(t, q)
    succ = structure_triples(types, succ_relation(t, q, types))
    # a functional r-edge from an A-element must reach its unique witness,
    # which must then be a B-element
    assert any(role == r and A in t1 for (t1, role, t2) in succ)
    for (t1, role, t2) in succ:
        if role == r and A in t1:
            assert B in t2


@pytest.mark.parametrize("tbox, query", [
    ("func(inv(r))\nA sub some r.B\nB sub some r.A\nsome r.C sub C", "some r.C"),
    ("func(r)\nA sub some r.B\nB sub not A", "A"),
], ids=["alcfi_r", "func_r"])
def test_functional_type_structures_run_no_tableau(monkeypatch, tbox, query):
    import omq.tableau

    class NoTableau:
        def __init__(self, *args, **kwargs):
            raise AssertionError("the type layer ran the tableau")

    monkeypatch.setattr(omq.tableau, "_Tableau", NoTableau)
    t, c = parse_tbox(tbox), parse_concept(query)
    types = compute_types(t, c)
    assert types and types_omitting(t, c)
    assert succ_relation(t, c, types).domain
    structure, holders = type_structure(t, closure(t, c))
    assert len(structure.domain) == len(types) and len(holders) == len(closure(t, c))


# -- the type structure against the pairwise reference ------------------------

def assert_structure_agrees(tbox, c0, omit):
    """The types and every triple of the type structure, for all types or
    for the ``c0``-omitting ones, equal the pairwise reference's."""
    cl = closure(tbox, c0)
    models = omitting_tbox(tbox, c0) if omit else tbox
    types = types_omitting(tbox, c0) if omit else compute_types(tbox, c0)
    assert types == reference_types(cl, models), (tbox, c0, omit)
    structure = succ_relation(models, c0, types)
    # numbering position i is type i, every point named at one width
    points = structure.numbering.elements
    assert [int(p[1:]) for p in points] == list(range(len(types)))
    assert len({len(p) for p in points}) <= 1
    assert set(structure.concept_ext) == {c.name for c in cl if isinstance(c, Atom)}
    assert set(structure.role_ext) == {role.name for role in closure_roles(cl)}
    assert structure_triples(types, structure) == reference_successors(
        types, closure_roles(cl), models), (tbox, c0, omit)


def test_type_structure_agrees_with_pairwise_reference_random():
    rng = random.Random(2024)
    functional = 0
    for k in range(60):
        inverse = k % 2 == 0
        t = rand_tbox(rng, n_inclusions=2, depth=1, concepts=("A", "B"),
                      roles=("r", "s"), allow_inverse=inverse, allow_functional=True)
        c0 = rand_concept(rng, depth=1, concepts=("A", "B"), roles=("r", "s"),
                          allow_inverse=inverse)
        for omit in (False, True):
            assert_structure_agrees(t, c0, omit)
        functional += bool(t.functional)
    assert 15 < functional < 45


def test_type_structure_agrees_with_pairwise_reference_on_216_types():
    # the largest template of the unraveling-slice corpus
    t = parse_tbox("A sub top\nsome r.C sub B or bot\nsome inv(s).C sub some r.B")
    c0 = parse_concept("P_mark and some s.some inv(r).top")
    assert len(types_omitting(t, c0)) == 216
    assert_structure_agrees(t, c0, omit=True)


# -- types_omitting -----------------------------------------------------------

def test_omitting_bot_query():
    types = compute_types(EMPTY, ELIQ(A, "x"))
    # every type omits an unsatisfiable query; use A sub bot to make A empty
    t = parse_tbox("A sub bot")
    omitted = types_omitting(t, ELIQ(A, "x"))
    assert omitted == compute_types(t, ELIQ(A, "x"))


def test_omitting_forced_query_is_empty():
    t = parse_tbox("top sub A")
    assert types_omitting(t, ELIQ(A, "x")) == ()


def test_omitting_value_restriction_three_types():
    t = parse_tbox("A sub all r.B")
    omitted = types_omitting(t, ELIQ(B, "x"))
    assert len(omitted) == 3
    assert all(Not(B) in tt for tt in omitted)
    assert {A in tt for tt in omitted} == {True, False}
