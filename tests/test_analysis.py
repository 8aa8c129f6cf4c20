import itertools
import random

import pytest

from omq import analysis
from omq.analysis import (
    CONP_HARD, PTIME_DEFINITIVE, Budget, DisjunctionViolation,
    UnravelingViolation, _eliq_candidates, _entailment, _escape_test,
    _is_forest, _type_structure, brute_2p2_satisfiable, classify,
    enumerate_aboxes, gen_2p2sat_reduction, gen_kcolor_tbox, minimize_witness,
    refute_disjunction_property, refute_unraveling_tolerance,
)
from omq.csp import Signature
from omq.semantics import Interpretation
from omq.syntax import (
    ABox, Atom, Exists, Forall, dialect, parse_abox, parse_concept, parse_tbox,
)
from omq.types import entails_eliq, entails_eliq_disjunction

from oracles import unravel_abox

B, C = Atom("B"), Atom("C")
SMALL = Budget(max_individuals=2)

# the non-Horn TBoxes of the benchmark's classify workload
NON_HORN = {
    "or": parse_tbox("A sub B or C"),
    "cover": parse_tbox("top sub A or B"),
    "cover3": parse_tbox("top sub A or B or C"),
    "and_or": parse_tbox("A and B sub C or D"),
    "or_chain": parse_tbox("A sub B or C\nB sub D"),
    "cover_irreflexive": parse_tbox("top sub A or B\nA and some r.A sub bot"),
    "kcolor2": gen_kcolor_tbox(2),
    "alci_cover_irreflexive": parse_tbox("top sub A or B\nA and some inv(r).B sub bot"),
}


# -- classify -----------------------------------------------------------------

@pytest.mark.parametrize("tbox, expected", [
    (parse_tbox("A sub some r.B\nB sub some r.A"), {"verdict": PTIME_DEFINITIVE}),
    (parse_tbox("A sub B or C"), {"verdict": CONP_HARD}),
    (NON_HORN["cover_irreflexive"],
     {"verdict": CONP_HARD, "unraveling_tolerant": "refuted"}),
    (gen_kcolor_tbox(2), {"verdict": CONP_HARD, "unraveling_tolerant": "refuted"}),
], ids=["horn_cycle", "or", "cover_irreflexive", "kcolor2"])
def test_classify_verdicts(tbox, expected):
    report = classify(tbox, SMALL)
    got = {"verdict": report.verdict,
           "unraveling_tolerant": report.unraveling_tolerant[0]}
    assert {k: got[k] for k in expected} == expected
    # every refutation comes with a witness that re-verifies
    for status, witness in (report.materializable, report.unraveling_tolerant):
        if status == "refuted":
            assert witness.verify(tbox)


# -- unraveling tolerance at the root copy ------------------------------------

@pytest.mark.parametrize("tbox, checked, witness", [
    (NON_HORN["cover_irreflexive"], 4, ("r(a,a)", "B")),
    (parse_tbox("A sub B or C\nB and some r.C sub D"), 1337,
     ("A(a)\nB(b)\nC(b)\nr(a,a)\nr(a,b)\nr(b,a)", "some r.D")),
    (NON_HORN["alci_cover_irreflexive"], 135, None),
], ids=["cover_irreflexive", "or_then_some_r", "alci_cover_irreflexive"])
def test_unraveling_refuter_checks_the_root_copy(tbox, checked, witness):
    # in both witnesses an r-path alternating between the disjuncts lets
    # the root copy of a escape the query, though some copy of a cannot
    result = refute_unraveling_tolerance(tbox, SMALL)
    if witness is not None:
        abox, concept = witness
        witness = UnravelingViolation(parse_abox(abox), parse_concept(concept), "a")
        assert witness.verify(tbox)
    status = "refuted" if witness else "none-found"
    assert (result.status, result.checked_aboxes, result.witness) == (status, checked, witness)


def test_unraveling_witness_ignores_names_outside_the_tbox():
    # no type mentions Z, so Z(a) must not empty a's candidates, and c,
    # which only Z names, is still an individual
    tbox = NON_HORN["cover_irreflexive"]
    assert UnravelingViolation(parse_abox("r(a,a)\nZ(a)\nZ(c)"), B, "a").verify(tbox)


def _named_slice(abox: ABox, depth: int) -> ABox:
    """The depth-bounded unraveling slice as an ABox: the base
    individuals keep their names, the longer words get fresh ones."""
    u = unravel_abox(abox, depth)
    name = {w: w if isinstance(w, str) else f"w{k}"
            for k, w in enumerate(sorted(u.individuals, key=str))}
    return ABox(frozenset((n, name[w]) for n, w in u.concept_assertions),
                frozenset((n, name[v], name[w]) for n, v, w in u.role_assertions))


def _corpus(tbox, count=None):
    """The first ``count`` (default all) ABoxes the refuters enumerate for
    the TBox at two individuals."""
    sigma = Signature.of_tbox(tbox)
    aboxes = enumerate_aboxes(sorted(sigma.concept_names), sorted(sigma.role_names), 2)
    return itertools.islice(aboxes, count)


def _facts(tbox, abox, inverse=True):
    """The facts (C, a) of depth-1 tree queries C over the TBox's names."""
    eliqs = _eliq_candidates(Signature.of_tbox(tbox), 1, inverse)
    return [(c, a) for c in eliqs for a in sorted(abox.individuals())]


def _unraveling_decisions(tbox, abox, structures):
    """Per fact, the unraveling refuter's ``(T, A |= C(a), T, U_A |= C(a)
    at the root copy)``."""
    escapes = _escape_test(Interpretation.from_abox(abox))
    for c, a in _facts(tbox, abox):
        query = _type_structure(tbox, (c,), structures)
        yield (c, a), not escapes(query, (a,)), not escapes(query, (a,), unraveled=True)


def test_refuter_facts_agree_with_the_tableau():
    # each fact of the refuter's search: the entailment against the tableau
    # on the ABox, the root copy against the tableau at the root of the
    # depth-3 unraveling slice (deep enough on this corpus).  The corpus
    # holds violations, which random corpora do not.
    violations = 0
    for name in ("cover_irreflexive", "kcolor2", "alci_cover_irreflexive", "or_chain"):
        tbox, structures = NON_HORN[name], {}
        for abox in _corpus(tbox, 60):
            sliced = _named_slice(abox, 3)
            for (c, a), entailed, at_root in _unraveling_decisions(tbox, abox, structures):
                assert entailed == entails_eliq(tbox, abox, c, a), (name, abox, c, a)
                assert at_root == entails_eliq(tbox, sliced, c, a), (name, abox, c, a)
                violations += entailed and not at_root
    assert violations >= 20


def test_forest_predicate():
    for text in ("r(a,a)", "r(a,b)\ns(a,b)", "r(a,b)\nr(b,a)", "r(a,b)\nr(b,c)\nr(c,a)"):
        assert not _is_forest(parse_abox(text)), text
    for text in ("r(a,b)\ns(b,c)", "A(a)\nB(b)", "r(a,b)\nr(a,c)\nr(d,c)"):
        assert _is_forest(parse_abox(text)), text


@pytest.mark.parametrize("second_role", ["s", "inv(r)"])
def test_two_edges_on_one_pair_are_not_a_forest(second_role):
    # an r- and a second edge between a and b: the unraveling splits them
    # into two branches, one may be B and the other C at the root copy,
    # so it loses D(a); a predicate that took the pair for one tree edge
    # would skip this witness
    tbox = parse_tbox(f"top sub B or C\nsome r.B and some {second_role}.B sub D\n"
                      f"some r.C and some {second_role}.C sub D")
    abox = parse_abox("r(a,b)\ns(a,b)" if second_role == "s" else "r(a,b)\nr(b,a)")
    assert not _is_forest(abox)
    assert UnravelingViolation(abox, Atom("D"), "a").verify(tbox)


def test_forest_aboxes_entail_at_the_root_copy_what_they_entail():
    # why the unraveling refuter skips them: AC is exact on forests
    forests = 0
    for name, tbox in NON_HORN.items():
        structures = {}
        for abox in filter(_is_forest, _corpus(tbox)):
            forests += 1
            for fact, entailed, at_root in _unraveling_decisions(tbox, abox, structures):
                assert entailed == at_root, (name, abox, fact)
    assert forests > 200


@pytest.mark.parametrize("name, max_disjuncts", [
    *((name, 2) for name in NON_HORN), ("or3", 3),
])
def test_disjunction_decisions_agree_with_the_tableau(name, max_disjuncts):
    # each fact and each disjunction of open facts the refuter decides,
    # against the tableau, on the first 60 ABoxes of the enumeration
    tbox = NON_HORN[name] if name in NON_HORN else parse_tbox("A sub B or C or D")
    structures, decided = {}, 0
    for abox in _corpus(tbox, 60):
        entails = _entailment(tbox, abox, structures)
        open_facts = []
        for c, a in _facts(tbox, abox, dialect(tbox) == "ALCI"):
            got = entails(((c, a),))
            assert got == entails_eliq(tbox, abox, c, a), (abox, c, a)
            if not got:
                open_facts.append((c, a))
        for k in range(2, max_disjuncts + 1):
            for combo in itertools.combinations(open_facts, k):
                assert entails(combo) == entails_eliq_disjunction(tbox, abox, list(combo)), \
                    (abox, combo)
                decided += 1
    assert decided > 0


def test_classify_builds_each_type_structure_once(monkeypatch):
    # the two refuters share the structures of one call; a closure's
    # decisions (names, existentials, universals) fix its structure
    built = []
    type_structure = analysis.type_structure

    def record(tbox, cl, *args):
        built.append(frozenset(c for c in cl if isinstance(c, (Atom, Exists, Forall))))
        return type_structure(tbox, cl, *args)

    monkeypatch.setattr(analysis, "type_structure", record)
    report = classify(NON_HORN["alci_cover_irreflexive"], SMALL)
    assert report.unraveling_tolerant[0] == "unknown"   # no witness, so no verify builds
    assert built and len(built) == len(set(built))


# -- the 2+2-SAT reduction ----------------------------------------------------

def rand_2p2_formula(rng, nvars, planted):
    """Random clauses (p1 or p2 or not n1 or not n2), a tenth of the
    literals truth constants.  A planted formula adds four clauses that
    force x or y, not x or not y, and x = y, so it is unsatisfiable."""
    def lit():
        return rng.random() < 0.5 if rng.random() < 0.1 else rng.randrange(nvars)

    clauses = [tuple(lit() for _ in range(4)) for _ in range(nvars)]
    if planted:
        x, y = rng.sample(range(nvars), 2)
        clauses += [(x, y, True, True), (False, False, x, y),
                    (x, False, y, True), (y, False, x, True)]
        rng.shuffle(clauses)
    return clauses


def test_2p2sat_reduction_contract():
    # the formula is unsatisfiable iff the query is certain at f
    tbox = parse_tbox("A sub B or C")
    witness = DisjunctionViolation(parse_abox("A(a)"), ((B, "a"), (C, "a")))
    rng = random.Random(17)
    unsat = 0
    for k in range(40):
        formula = rand_2p2_formula(rng, rng.randint(2, 4), planted=k % 2 == 0)
        abox, query, f = gen_2p2sat_reduction(tbox, witness, formula)
        want = not brute_2p2_satisfiable(formula)
        assert entails_eliq(tbox, abox, query.concept, f) == want, formula
        unsat += want
    assert 20 <= unsat < 40


# -- disjunction refuter and witness minimization -----------------------------

def test_three_way_disjunction_needs_three_disjuncts():
    tbox = parse_tbox("A sub B or C or D")
    two = refute_disjunction_property(tbox, Budget(max_individuals=2, max_disjuncts=2))
    assert (two.status, two.checked_aboxes) == ("none-found", 135)
    three = refute_disjunction_property(tbox, Budget(max_individuals=2, max_disjuncts=3))
    assert three.status == "refuted"
    assert len(three.witness.disjuncts) == 3
    assert three.witness.verify(tbox)
    assert minimize_witness(tbox, three.witness) == three.witness
